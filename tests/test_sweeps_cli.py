import csv
import json
import math
import os

import pytest

from rigraph import (
    InvalidParamsError,
    ModelParams,
    SweepRow,
    beta,
    classify_from_values,
    classify_regime,
    run_sweep,
    simulate_row,
    solve_k1,
    solve_k1_nearest,
)
import rigraph.montecarlo as montecarlo
from rigraph.cli import main
from rigraph.sweeps import (
    CSV_COLUMNS,
    load_sweep_spec,
    resolve_point,
    rows_to_csv_text,
    sweep_spec_from_dict,
    write_sweep_csv,
)

from conftest import exit_in_worker, small_params
from hypothesis import given, settings


# ---------------------------------------------------------------- regimes

class TestClassifyRegime:
    def test_supercritical(self):
        n = 1000
        lab = classify_from_values(n, 2 * math.log(n) / n)
        assert lab.kind == "supercritical-yagan"
        assert lab.label == "supercritical-yagan"
        assert lab.c == pytest.approx(2.0, rel=1e-12)

    def test_subcritical(self):
        n = 1000
        lab = classify_from_values(n, math.log(n) / (2 * n))
        assert lab.kind == "subcritical-yagan"

    def test_critical_window_carries_beta_sign(self):
        # b_1 = (ln n + ln ln n)/n: c -> 1, beta = ln ln n > 0; needs n huge
        # enough that ln ln n / ln n fits inside the default 0.05 window
        n = 10**44
        b1 = (math.log(n) + math.log(math.log(n))) / n
        lab = classify_from_values(n, b1)
        assert lab.kind == "critical-window"
        assert lab.beta > 0
        assert lab.label == "critical-window(beta>0)"

    def test_exact_critical_point(self):
        n = 500
        lab = classify_from_values(n, math.log(n) / n)
        assert lab.kind == "critical-window"
        assert lab.label == "critical-window(beta=0)" or abs(lab.beta) < 1e-9

    @given(small_params())
    @settings(max_examples=30, deadline=None)
    def test_depends_only_on_n_and_b1(self, params):
        from rigraph import b_vector

        direct = classify_regime(params)
        via_values = classify_from_values(params.n, b_vector(params)[0])
        assert direct == via_values

    def test_window_is_configuration(self):
        n = 1000
        b1 = 1.03 * math.log(n) / n
        assert classify_from_values(n, b1, window=0.05).kind == "critical-window"
        assert classify_from_values(n, b1, window=0.01).kind == "supercritical-yagan"


class TestSolveK1Nearest:
    def test_negative_target_picks_floor_candidate(self):
        # achieved deviations at n=2000, P=4000, ratios (1,2) jump
        # -4.60 (K1=2) -> -0.86 (K1=3) -> +4.37 (K1=4)
        assert solve_k1(2000, 4000, (0.5, 0.5), (1.0, 2.0), -4.0) == (3, 6)
        assert solve_k1_nearest(2000, 4000, (0.5, 0.5), (1.0, 2.0), -4.0) == (2, 4)

    def test_target_above_midpoint_keeps_ceiling(self):
        assert solve_k1_nearest(2000, 4000, (0.5, 0.5), (1.0, 2.0), 2.0) == (4, 8)

    def test_agrees_with_exhaustive_nearest(self):
        n, P, a, ratios = 300, 150, (1.0,), (1.0,)
        for target in (-3.0, -0.5, 0.0, 1.0, 5.0):
            got = solve_k1_nearest(n, P, a, ratios, target)
            best = min(
                range(1, P + 1),
                key=lambda k1: (abs(beta(ModelParams(n=n, a=a, K=(k1,), P=P)) - target), k1),
            )
            assert got == (best,)


# ---------------------------------------------------------------- spec validation

def spec_dict(**over):
    doc = {
        "schema": 1,
        "base": {"n": 40, "P": 60, "a": [0.5, 0.5], "K": [2, 3]},
        "axis": "n",
        "points": [30, 40],
        "trials": 50,
        "master_seed": 7,
        "output_path": "out.csv",
    }
    doc.update(over)
    return doc


class TestSweepSpec:
    def test_valid_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(spec_dict()))
        spec = load_sweep_spec(str(path))
        assert spec.axis == "n"
        assert spec.points == (30.0, 40.0)

    def test_schema_version_enforced(self):
        with pytest.raises(InvalidParamsError):
            sweep_spec_from_dict(spec_dict(schema=2))

    def test_points_strictly_increasing(self):
        with pytest.raises(InvalidParamsError):
            sweep_spec_from_dict(spec_dict(points=[40, 30]))
        with pytest.raises(InvalidParamsError):
            sweep_spec_from_dict(spec_dict(points=[30, 30]))
        with pytest.raises(InvalidParamsError):
            sweep_spec_from_dict(spec_dict(points=[]))

    def test_bad_axis_and_trials(self):
        with pytest.raises(InvalidParamsError):
            sweep_spec_from_dict(spec_dict(axis="K2"))
        with pytest.raises(InvalidParamsError):
            sweep_spec_from_dict(spec_dict(trials=0))

    def test_beta_target_needs_ratios(self):
        with pytest.raises(InvalidParamsError):
            sweep_spec_from_dict(spec_dict(axis="beta-target", points=[-1, 1]))
        ok = sweep_spec_from_dict(spec_dict(axis="beta-target", points=[-1, 1], ratios=[1, 2]))
        assert ok.ratios == (1.0, 2.0)

    def test_integral_floats_accepted(self):
        doc = spec_dict(base={"n": 40.0, "P": 60.0, "a": [0.5, 0.5], "K": [2.0, 3.0]},
                        trials=50.0, master_seed=7.0)
        assert sweep_spec_from_dict(doc) == sweep_spec_from_dict(spec_dict())

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(InvalidParamsError):
            load_sweep_spec(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InvalidParamsError):
            load_sweep_spec(str(bad))


class TestResolvePoint:
    def test_n_axis(self):
        spec = sweep_spec_from_dict(spec_dict())
        p = resolve_point(spec, 30.0)
        assert (p.n, p.P, p.K) == (30, 60, (2, 3))
        with pytest.raises(InvalidParamsError):
            resolve_point(spec, 30.5)

    def test_p_axis(self):
        spec = sweep_spec_from_dict(spec_dict(axis="P", points=[50, 70]))
        assert resolve_point(spec, 70.0).P == 70
        with pytest.raises(InvalidParamsError):
            resolve_point(spec, 2.0)  # P < K_m

    def test_k1_scale_axis(self):
        spec = sweep_spec_from_dict(spec_dict(axis="K1-scale", points=[0.5, 1.5, 2.0]))
        assert resolve_point(spec, 1.5).K == (3, 5)  # round-half-up of (3, 4.5)
        assert resolve_point(spec, 0.5).K == (1, 2)
        assert resolve_point(spec, 30.0).K == (60, 60)  # clamped to P
        assert resolve_point(spec, 1e308).K == (60, 60)  # 3e308 is inf
        assert resolve_point(spec, -1e308).K == (1, 1)

    def test_beta_target_axis(self):
        spec = sweep_spec_from_dict(
            spec_dict(
                base={"n": 2000, "P": 4000, "a": [0.5, 0.5]},
                axis="beta-target",
                points=[-4, 4],
                ratios=[1, 2],
            )
        )
        assert resolve_point(spec, -4.0).K == (2, 4)
        assert resolve_point(spec, 4.0).K == (4, 8)


# ---------------------------------------------------------------- sweep execution and CSV

BASE = ModelParams(n=40, a=(0.5, 0.5), K=(2, 3), P=60)


def read_csv(path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


class TestSweepCsv:
    def test_deterministic_text(self):
        spec = sweep_spec_from_dict(spec_dict())
        rows1 = run_sweep(spec)
        rows2 = run_sweep(spec)
        assert rows_to_csv_text(rows1) == rows_to_csv_text(rows2)

    def test_round_trip_at_printed_precision(self, tmp_path):
        spec = sweep_spec_from_dict(spec_dict())
        rows = run_sweep(spec)
        out = tmp_path / "rows.csv"
        write_sweep_csv(rows, str(out))
        text = out.read_text()
        assert text.endswith("\n")
        header, parsed = read_csv(out)
        assert tuple(header) == CSV_COLUMNS
        assert len(parsed) == len(rows)
        for row, rec in zip(rows, parsed):
            for col, field in zip(CSV_COLUMNS, row.to_csv_fields()):
                assert rec[col] == field
            # numeric columns reparse to the printed precision
            assert float(rec["b1"]) == pytest.approx(row.b1, rel=1e-8)
            assert rec["K"] == ";".join(str(k) for k in row.K)

    def test_single_point_sweep_equals_simulate(self, tmp_path):
        spec = sweep_spec_from_dict(spec_dict(points=[40]))
        sweep_text = rows_to_csv_text(run_sweep(spec))
        row, _ = simulate_row(BASE, trials=50, master_seed=7)
        assert rows_to_csv_text([row]) == sweep_text

    def test_atomic_write_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "missing-dir" / "rows.csv"
        spec = sweep_spec_from_dict(spec_dict(points=[40]))
        rows = run_sweep(spec)
        with pytest.raises(OSError):
            write_sweep_csv(rows, str(target))
        assert not target.exists()
        assert not any(p.name.startswith(".sweep-") for p in tmp_path.iterdir())

    def test_row_formats_infinite_cross_moment_ratio(self):
        params = ModelParams(n=2000, a=(0.5, 0.5), K=(1, 3), P=3)
        row, _ = simulate_row(params, trials=2, master_seed=5)
        assert row.cross_moment_ratio == math.inf
        fields = dict(zip(CSV_COLUMNS, row.to_csv_fields()))
        assert fields["cross_moment_ratio"] == "inf"

    def test_frozen_csv_bytes(self):
        # the README's header and number formatting, pinned literally; the int
        # axis point must print like the float it stands for
        rows = [
            SweepRow(
                axis="P", axis_value=10**9, n=2000, P=10**9, K=(3, 6), b1=1.0 / 3, beta=-7.25,
                yagan_c=2e-7, p_connected=0.0, p_connected_low=0.0, p_connected_high=0.0192,
                p_no_isolated=1.0, p_no_isolated_low=0.981, p_no_isolated_high=1.0, p_f=0.125,
                p_f_low=0.0625, p_f_high=0.25, mean_isolated=1234.5678901,
                expected_isolated_closed_form=1e-300, cross_moment_ratio=math.inf, regime_flags=(),
            ),
            SweepRow(
                axis="beta-target", axis_value=-4.0, n=60, P=120, K=(2,), b1=0.0666666666666666,
                beta=0.5, yagan_c=1.0, p_connected=0.5, p_connected_low=0.4, p_connected_high=0.6,
                p_no_isolated=0.75, p_no_isolated_low=0.7, p_no_isolated_high=0.8, p_f=0.25,
                p_f_low=0.2, p_f_high=0.3, mean_isolated=0.0,
                expected_isolated_closed_form=12345678901.0, cross_moment_ratio=math.nan,
                regime_flags=("ring_size", "beta_drift"),
            ),
        ]
        assert rows_to_csv_text(rows) == (
            "axis,axis_value,n,P,K,b1,beta,yagan_c,"
            "p_connected,p_connected_low,p_connected_high,"
            "p_no_isolated,p_no_isolated_low,p_no_isolated_high,"
            "p_f,p_f_low,p_f_high,"
            "mean_isolated,expected_isolated_closed_form,cross_moment_ratio,regime_flags\n"
            "P,1e+09,2000,1000000000,3;6,0.333333333,-7.25,2e-07,0,0,0.0192,1,0.981,1,"
            "0.125,0.0625,0.25,1234.56789,1e-300,inf,\n"
            "beta-target,-4,60,120,2,0.0666666667,0.5,1,0.5,0.4,0.6,0.75,0.7,0.8,"
            "0.25,0.2,0.3,0,1.23456789e+10,nan,ring_size;beta_drift\n"
        )

    def test_beta_decreases_along_n_axis_when_b1_tiny(self):
        # with K and P fixed and b1 << ln(n)/n, beta(n) = n*b1 - ln n falls
        spec = sweep_spec_from_dict(
            spec_dict(
                base={"n": 100, "P": 1_000_000, "a": [1.0], "K": [1]},
                points=[100, 200, 400],
                trials=1,
            )
        )
        rows = run_sweep(spec)
        betas = [r.beta for r in rows]
        assert betas == sorted(betas, reverse=True)


# ---------------------------------------------------------------- CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_prob_worked_instance(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--n", "2", "--P", "5", "--a", "0.5,0.5", "--K", "1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["edge_prob"] == pytest.approx(0.425, abs=1e-12)
        assert doc["b"] == pytest.approx([0.3, 0.55], abs=1e-12)

    def test_prob_full_pool(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--n", "100", "--P", "100", "--a", "1", "--K", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["p"] == [[1.0]]

    def test_prob_cross_moment_ratio_past_float_range(self, capsys):
        code, out, err = run_cli(capsys, "prob", "--n", "2000", "--P", "3", "--a", "0.5,0.5", "--K", "1,3")
        assert code == 0
        assert err == ""
        assert json.loads(out)["cross_moment_ratio"] == math.inf

    def test_prob_invalid_weights_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "prob", "--n", "2", "--P", "5", "--a", "0.4,0.4", "--K", "1,2")
        assert code == 2
        assert "sum" in err

    def test_prob_weights_whose_sum_overflows_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "prob", "--n", "2", "--P", "5", "--a", "1e308,1e308", "--K", "1,1")
        assert code == 2
        assert out == ""
        assert "sum" in err

    def test_prob_nan_weight_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "prob", "--n", "10", "--P", "5", "--a", "nan", "--K", "1")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_solve(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--n", "1000", "--P", "10000", "--a", "1", "--ratios", "1",
            "--target-beta", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["beta"] >= 0.0
        assert doc["K"] == list(solve_k1(1000, 10000, (1.0,), (1.0,), 0.0))

    def test_solve_unachievable_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--n", "10", "--P", "4", "--a", "1", "--ratios", "1",
            "--target-beta", "1000",
        )
        assert code == 2
        assert "unachievable" in err

    def test_simulate_deterministic_and_certain(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["simulate", "--n", "20", "--P", "5", "--a", "1", "--K", "5",
                "--trials", "40", "--seed", "11"]
        code1, js1, _ = run_cli(capsys, *args, "--out", str(out1))
        code2, js2, _ = run_cli(capsys, *args, "--out", str(out2))
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        rec = read_csv(out1)[1][0]
        assert rec["p_connected"] == "1"
        assert json.loads(js1)["p_connected"] == 1.0
        assert json.loads(js1)["p_connected"] == json.loads(js2)["p_connected"]

    def test_simulate_bad_rig_threads_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RIG_THREADS", "abc")
        out = tmp_path / "run.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--n", "20", "--P", "5", "--a", "1", "--K", "5",
            "--trials", "4", "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert "RIG_THREADS" in err and "'abc'" in err
        assert not out.exists()

    def test_simulate_requires_budget_and_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "20", "--P", "5", "--a", "1", "--K", "5"])
        assert exc.value.code == 2

    def test_sweep_end_to_end(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec_dict(output_path=str(out))))
        code, js, _ = run_cli(capsys, "sweep", str(cfg))
        assert code == 0
        assert json.loads(js)["rows"] == 2
        assert json.loads(js)["bytes"] == len(out.read_bytes())
        assert read_csv(out)[1][0]["axis"] == "n"

    def test_sweep_config_error_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec_dict(points=[2, 1], output_path=str(tmp_path / "x.csv"))))
        code, _, err = run_cli(capsys, "sweep", str(cfg))
        assert code == 2
        assert err == "error: points must be strictly increasing, got (2.0, 1.0)\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("field", ["n", "P", "K", "trials", "master_seed"])
    @pytest.mark.parametrize("value", ["2.5", "Infinity", "1e400"])
    def test_sweep_non_integral_value_exit_2(self, capsys, tmp_path, field, value):
        # int() would truncate 2.5 and overflow on the two infinities
        doc = spec_dict(output_path=str(tmp_path / "x.csv"))
        if field in ("n", "P"):
            doc["base"][field] = "@"
        elif field == "K":
            doc["base"]["K"] = [2, "@"]
        else:
            doc[field] = "@"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc).replace('"@"', value))
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert code == 2
        assert out == ""
        assert "must be an integer" in err and "malformed" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("axis", ["n", "P", "K1-scale"])
    @pytest.mark.parametrize("point", ["NaN", "Infinity", "1e400"])
    def test_sweep_non_finite_point_exit_2(self, capsys, tmp_path, axis, point):
        # json.load accepts all three; each must be refused before any trial runs
        cfg = tmp_path / "cfg.json"
        doc = json.dumps(spec_dict(axis=axis, points=[1, 2], output_path=str(tmp_path / "x.csv")))
        cfg.write_text(doc.replace("[1, 2]", f"[1, {point}]"))
        code, _, err = run_cli(capsys, "sweep", str(cfg))
        assert code == 2
        assert "finite" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("ratios", ["1,nan", "1,inf", "nan"])
    def test_solve_non_finite_ratio_exit_2(self, capsys, ratios):
        a = "1" if ratios == "nan" else "0.5,0.5"
        code, out, err = run_cli(
            capsys, "solve", "--n", "100", "--P", "1000", "--a", a, "--ratios", ratios,
            "--target-beta", "0",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ratios must be finite") and err.count("\n") == 1

    @pytest.mark.parametrize("ratio", ["NaN", "Infinity", "-Infinity"])
    def test_sweep_non_finite_ratio_exit_2(self, capsys, tmp_path, ratio):
        doc = spec_dict(base={"n": 200, "P": 400, "a": [0.5, 0.5]}, axis="beta-target",
                        points=[-1, 1], ratios=[1, "@"], output_path=str(tmp_path / "x.csv"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc).replace('"@"', ratio))
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert code == 2
        assert out == ""
        assert "ratios must be finite" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("path", [None, 5, ["x.csv"], ""])
    def test_sweep_output_path_must_be_a_string_exit_2(self, capsys, tmp_path, monkeypatch, path):
        # str(None) would pass as the file name "None"
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec_dict(output_path=path)))
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: output_path must be a nonempty string, got {path!r}\n"
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("field, literal", [
        ("trials", "true"), ("master_seed", '"7"'), ("n", '"40"'), ("K", "false"),
        ("a", '"0.5"'), ("points", '"40"'), ("ratios", "null"),
    ])
    def test_sweep_non_number_exit_2(self, capsys, tmp_path, field, literal):
        # only JSON numbers pass; int() and float() would take all of these
        doc = spec_dict(output_path=str(tmp_path / "x.csv"))
        if field == "n":
            doc["base"]["n"] = "@"
        elif field in ("K", "a"):
            doc["base"][field] = [doc["base"][field][0], "@"]
        elif field == "points":
            doc["points"] = [30, "@"]
        elif field == "ratios":
            doc.update(base={"n": 200, "P": 400, "a": [0.5, 0.5]}, axis="beta-target",
                       points=[-1, 1], ratios=[1, "@"])
        else:
            doc[field] = "@"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc).replace('"@"', literal))
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert code == 2
        assert out == ""
        assert "must be a number, got" in err and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_sweep_worker_crash_exit_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(montecarlo, "_run_range", exit_in_worker)
        monkeypatch.setenv("RIG_THREADS", "2")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec_dict(trials=64, output_path=str(tmp_path / "x.csv"))))
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert code == 1
        assert out == ""
        assert err == "error: a worker process died while running trials\n"
        assert not (tmp_path / "x.csv").exists()

    def test_oracle_pair(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "pair", "--P", "5", "--Ki", "2", "--Kj", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["p_intersect"] == "7/10"
        assert doc["p_intersect_float"] == 0.7

    def test_oracle_events(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "events", "--n", "2", "--P", "5", "--a", "0.5,0.5", "--K", "1,2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["p_connected"] == "17/40"

    def test_oracle_budget_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "pair", "--P", "40", "--Ki", "12", "--Kj", "12")
        assert code == 3
        assert "budget" in err

    def test_diag(self, capsys):
        code, out, _ = run_cli(capsys, "diag", "--n", "200", "--P", "400", "--a", "1", "--K", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["flags"] == []
        assert doc["p_over_n"] == 2.0
        assert "regime" in doc

    @pytest.mark.parametrize("window", ["-1", "-0.01", "nan", "inf"])
    def test_diag_bad_window_exit_2(self, capsys, window):
        code, out, err = run_cli(
            capsys, "diag", "--n", "200", "--P", "400", "--a", "1", "--K", "3", "--window", window
        )
        assert code == 2
        assert out == ""
        assert "window" in err

    def test_rig_threads_speed_only(self, capsys, tmp_path, monkeypatch):
        cfg1 = tmp_path / "c1.json"
        out1 = tmp_path / "r1.csv"
        cfg1.write_text(json.dumps(spec_dict(points=[40], output_path=str(out1))))
        monkeypatch.setenv("RIG_THREADS", "2")
        assert main(["sweep", str(cfg1)]) == 0
        capsys.readouterr()
        out2 = tmp_path / "r2.csv"
        cfg2 = tmp_path / "c2.json"
        cfg2.write_text(json.dumps(spec_dict(points=[40], output_path=str(out2))))
        monkeypatch.setenv("RIG_THREADS", "1")
        assert main(["sweep", str(cfg2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
