import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rigraph import (
    InvalidParamsError,
    ModelParams,
    UnachievableError,
    b_vector,
    beta,
    diagnostics,
    run_sweep,
    solve_k1,
)
import rigraph.cli as cli
import rigraph.model_core as model_core
import rigraph.montecarlo as montecarlo
import rigraph.sweeps as sweeps
from rigraph.cli import main
from rigraph.model_core import CRITICAL_WINDOW, _regime
from rigraph.sweeps import (
    CSV_COLUMNS,
    SweepRow,
    load_sweep_spec,
    resolve_point,
    rows_to_csv_text,
    simulate_row,
    solve_k1_nearest,
    sweep_spec_from_dict,
    write_sweep_csv,
)

from conftest import exit_in_worker, small_params
from reference_solver import bisect_solve_k1
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------- regimes

class TestClassifyRegime:
    # _regime(n, b1, window) -> (c, beta, label); synthetic b1 values reach
    # cases, such as n = 10**44, that no ModelParams can
    def test_supercritical(self):
        n = 1000
        c, _, label = _regime(n, 2 * math.log(n) / n, CRITICAL_WINDOW)
        assert label == "supercritical-yagan"
        assert c == pytest.approx(2.0, rel=1e-12)

    def test_subcritical(self):
        n = 1000
        assert _regime(n, math.log(n) / (2 * n), CRITICAL_WINDOW)[2] == "subcritical-yagan"

    def test_critical_window_carries_beta_sign(self):
        # b_1 = (ln n + ln ln n)/n: c -> 1, beta = ln ln n > 0; needs n huge
        # enough that ln ln n / ln n fits inside the default 0.05 window
        n = 10**44
        b1 = (math.log(n) + math.log(math.log(n))) / n
        _, dev, label = _regime(n, b1, CRITICAL_WINDOW)
        assert dev > 0
        assert label == "critical-window(beta>0)"

    def test_exact_critical_point(self):
        n = 500
        _, dev, label = _regime(n, math.log(n) / n, CRITICAL_WINDOW)
        assert label.startswith("critical-window(")
        assert label == "critical-window(beta=0)" or abs(dev) < 1e-9

    @given(small_params())
    @settings(max_examples=30, deadline=None)
    def test_depends_only_on_n_and_b1(self, params):
        d = diagnostics(params)
        assert (d.yagan_c, d.beta, d.regime) == _regime(params.n, b_vector(params)[0], CRITICAL_WINDOW)
        assert d.window == CRITICAL_WINDOW

    def test_window_is_configuration(self):
        n = 1000
        b1 = 1.03 * math.log(n) / n
        assert _regime(n, b1, 0.05)[2] == "critical-window(beta>0)"
        assert _regime(n, b1, 0.01)[2] == "supercritical-yagan"
        params = ModelParams(n=2000, a=(0.5, 0.5), K=(3, 6), P=4000)  # c = 0.887
        assert diagnostics(params).regime == "subcritical-yagan"
        assert diagnostics(params, window=0.3).regime == "critical-window(beta<0)"


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

    def test_float32_ratio_gives_the_shape_solve_k1_probed(self):
        # 1.05 * 10 rounds to 10.5 in float32 and up to 11, while the float
        # value of np.float32(1.05), 1.0499999523..., gives 10 and is what
        # solve_k1 probes at K_1 = 10
        ratio = np.float32(1.05)
        got = solve_k1_nearest(100, 2000, (0.5, 0.5), (1.0, ratio), 0.5)
        assert got == solve_k1_nearest(100, 2000, (0.5, 0.5), (1.0, float(ratio)), 0.5) == (10, 10)

    def test_float32_target_compared_as_float(self):
        # the candidates' betas, -1.919 (K_1 = 9) and -1.462 (K_1 = 10), lie
        # 0.22851982 and 0.22851976 from this target: K_1 = 10 is nearer, but
        # in float32 arithmetic both distances are 0.2285198, a tie that would
        # go to the smaller vector
        target = np.float32(-1.6906556)
        got = solve_k1_nearest(50, 2000, (1.0,), (1.0,), target)
        assert got == solve_k1_nearest(50, 2000, (1.0,), (1.0,), float(target)) == (10,)


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


# the fields of ``spec_dict()``'s spec, for building a SweepSpec directly
SPEC_FIELDS = dict(base_n=40, base_P=60, a=(0.5, 0.5), base_K=(2, 3), ratios=None, axis="n",
                   points=(30.0, 40.0), trials=50, master_seed=7, output_path="out.csv")

# one config per axis
AXIS_CONFIGS = [
    spec_dict(),
    spec_dict(axis="P", points=[50, 70]),
    spec_dict(axis="K1-scale", points=[0.5, 1.5, 2.0]),
    spec_dict(base={"n": 2000, "P": 4000, "a": [0.5, 0.5]}, axis="beta-target", points=[-4, 4], ratios=[1, 2]),
]

SEQUENCE_FIELDS = ("a", "base_K", "ratios", "points")
CONFIG_BASE_KEYS = {"base_n": "n", "base_P": "P", "a": "a", "base_K": "K"}

# (field, value, message) for a SweepSpec built in code from ``SPEC_FIELDS``
# with one field changed; a config with the same value gives the same message,
# except where the value is no sequence (a malformed config) or no JSON value
DIRECT_REFUSALS = [
    ("base_n", 2.5, "base n must be an integer, got 2.5"),
    ("base_n", "40", "base n must be a number, got '40'"),
    ("base_P", None, "base P must be a number, got None"),
    ("a", (0.5, "x"), "every a_i must be a number, got 'x'"),
    ("a", None, "a must be a sequence, got None"),
    ("base_K", (2, 3.5), "every K_i must be an integer, got 3.5"),
    ("base_K", 3, "base_K must be a sequence, got 3"),
    ("ratios", (1, None), "every ratio must be a number, got None"),
    ("ratios", 2.0, "ratios must be a sequence, got 2.0"),
    ("axis", "K2", f"axis must be one of {sweeps.AXES}, got 'K2'"),
    ("axis", np.array(["n", "P"]), f"axis must be one of {sweeps.AXES}, got array(['n', 'P'], dtype='<U1')"),
    ("points", "ab", "every point must be a number, got 'a'"),
    ("points", (30, 2**53 + 1), f"every point must be a number a float holds exactly, got {2**53 + 1}"),
    ("points", 5, "points must be a sequence, got 5"),
    ("points", None, "points must be a sequence, got None"),
    ("trials", "5", "trials must be a number, got '5'"),
    ("trials", 2.5, "trials must be an integer, got 2.5"),
    ("trials", 0, "trials must be >= 1, got 0"),
    ("master_seed", 7.5, "master_seed must be an integer, got 7.5"),
    ("master_seed", math.inf, "master_seed must be an integer, got inf"),
    ("master_seed", -1, "master_seed must be a 64-bit unsigned integer, got -1"),
    ("master_seed", 2**64, f"master_seed must be a 64-bit unsigned integer, got {2**64}"),
    ("output_path", "", "output_path must be a nonempty string, got ''"),
]


def field_types(spec) -> list:
    """The type of each field of a spec, and of each item of a tuple field."""
    return [(type(v), tuple(map(type, v)) if isinstance(v, tuple) else ()) for v in dataclasses.astuple(spec)]


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

    @pytest.mark.parametrize("field, value, message", DIRECT_REFUSALS)
    def test_direct_spec_refuses(self, field, value, message):
        # a SweepSpec built in code applies each field's rule as a config does
        with pytest.raises(InvalidParamsError) as err:
            sweeps.SweepSpec(**dict(SPEC_FIELDS, **{field: value}))
        assert str(err.value) == message

    @pytest.mark.parametrize("field, value, message", [
        case for case in DIRECT_REFUSALS
        if not isinstance(case[1], np.ndarray) and (case[0] not in SEQUENCE_FIELDS or isinstance(case[1], (tuple, str)))
    ])
    def test_config_refuses_with_the_same_message(self, field, value, message):
        doc = spec_dict()
        if field in CONFIG_BASE_KEYS:
            doc["base"][CONFIG_BASE_KEYS[field]] = value
        else:
            doc[field] = value
        with pytest.raises(InvalidParamsError) as err:
            sweep_spec_from_dict(doc)
        assert str(err.value) == message

    def test_direct_spec_converts_as_a_config_does(self):
        spec = sweeps.SweepSpec(**dict(SPEC_FIELDS, points=(30, 40), trials=50.0))
        assert spec == sweep_spec_from_dict(spec_dict())
        assert [type(v) for v in (*spec.points, spec.trials)] == [float, float, int]

    @pytest.mark.parametrize("number", [int, float, np.int64], ids=["int", "integral-float", "numpy-int"])
    @pytest.mark.parametrize("doc", AXIS_CONFIGS, ids=[d["axis"] for d in AXIS_CONFIGS])
    def test_spec_built_in_code_equals_its_config(self, doc, number):
        # lists in place of tuples, and each whole number as ``number``
        def whole(x):
            return number(x) if isinstance(x, int) else x

        base = doc["base"]
        spec = sweeps.SweepSpec(
            base_n=whole(base["n"]), base_P=whole(base["P"]), a=list(base["a"]),
            base_K=[whole(k) for k in base["K"]] if "K" in base else None,
            ratios=[whole(r) for r in doc["ratios"]] if "ratios" in doc else None,
            axis=doc["axis"], points=[whole(p) for p in doc["points"]], trials=whole(doc["trials"]),
            master_seed=whole(doc["master_seed"]), output_path=doc["output_path"],
        )
        twin = sweep_spec_from_dict(doc)
        assert spec == twin and hash(spec) == hash(twin)
        assert field_types(spec) == field_types(twin)
        moved = dataclasses.replace(spec, output_path="other.csv")
        assert moved == dataclasses.replace(twin, output_path="other.csv")
        assert field_types(moved) == field_types(twin)

    def test_points_not_a_list_stays_a_malformed_config(self):
        with pytest.raises(InvalidParamsError) as err:
            sweep_spec_from_dict(spec_dict(points=5))
        assert str(err.value) == "malformed sweep config: TypeError(\"'int' object is not iterable\")"


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
        base = {"n": 40, "P": 60, "a": [0.5, 0.5], "K": [6, 3]}
        unordered = sweep_spec_from_dict(spec_dict(base=base, axis="K1-scale"))
        with pytest.raises(InvalidParamsError, match=r"^ring sizes must be nondecreasing, got \(6, 3\)$"):
            resolve_point(unordered, 1.0)
        # 1e299 * 1e10 overflows to inf, which is past P, so the size is P
        huge = sweep_spec_from_dict(spec_dict(base={"n": 40, "P": 10**300, "a": [1.0], "K": [10**299]},
                                              axis="K1-scale", points=[1e10]))
        assert resolve_point(huge, 1e10).K == (10**300,)

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
        # a directory target fails in os.replace, after the temporary file exists
        target = tmp_path / "rows.csv"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            write_sweep_csv(rows, str(target))
        assert target.is_dir() and not any(target.iterdir())
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]

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

    def test_simulate_out_of_memory_exit_1(self, capsys, tmp_path, monkeypatch):
        # numpy raises a MemoryError subclass for an array it cannot allocate
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 TiB for an array with shape (2000000000000,)")

        monkeypatch.setattr(cli, "simulate_row", out_of_memory)
        out = tmp_path / "run.csv"
        code, js, err = run_cli(
            capsys, "simulate", "--n", "20", "--P", "5", "--a", "1", "--K", "5",
            "--trials", "1", "--seed", "1", "--out", str(out),
        )
        assert (code, js) == (1, "")
        assert err == "error: Unable to allocate 14.6 TiB for an array with shape (2000000000000,)\n"
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
        out = str(tmp_path / "x.csv")
        no_base = spec_dict(output_path=out)
        del no_base["base"]
        no_seed = spec_dict(output_path=out)
        del no_seed["master_seed"]
        cases = [
            (spec_dict(points=[2, 1], output_path=out), "points must be strictly increasing, got (2.0, 1.0)"),
            ([spec_dict(output_path=out)], "sweep config must be a JSON object"),
            (no_base, "config needs a 'base' object with n, P, a"),
            (spec_dict(base={"n": 40, "P": 60, "a": [0.5, 0.5]}, output_path=out), "axis 'n' requires base K"),
            (no_seed, "malformed sweep config: KeyError('master_seed')"),
            (
                spec_dict(base={"n": 40, "P": 60, "a": [0.5, 0.5], "K": [6, 3]}, axis="K1-scale",
                          points=[1, 2], output_path=out),
                "ring sizes must be nondecreasing, got (6, 3)",
            ),
            (
                spec_dict(base={"n": 40, "P": 40, "a": [0.5, 0.5], "K": [0, 3]}, axis="K1-scale", output_path=out),
                "need 1 <= K_1 <= P, got K=(0, 3), P=40",
            ),
            (
                spec_dict(base={"n": 40, "P": 40, "a": [0.5, 0.5], "K": [3, 99]}, axis="K1-scale", output_path=out),
                "need 1 <= K_2 <= P, got K=(3, 99), P=40",
            ),
            (
                spec_dict(base={"n": 40, "P": 10**300, "a": [1.0], "K": [10**299]}, axis="K1-scale",
                          points=[1e10], output_path=out),
                f"simulation needs P <= 2^53, got P={10**300}",
            ),
        ]
        cfg = tmp_path / "cfg.json"
        for doc, msg in cases:
            cfg.write_text(json.dumps(doc))
            assert run_cli(capsys, "sweep", str(cfg)) == (2, "", f"error: {msg}\n")
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
        # 8 trials per batch at n=40, so each point's 64 trials need the pool
        monkeypatch.setattr(montecarlo, "_BATCH_FLOATS", 8 * 40 * (1 + 3))
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

    @pytest.mark.parametrize("argv, stdout", [
        (
            ["--n", "2000", "--P", "4000", "--a", "0.5,0.5", "--K", "3,6"],
            '{\n  "beta": -0.8576521772365915,\n  "beta_over_ln_n": -0.11283557206551245,\n'
            '  "flags": [],\n  "km_sq_over_p": 0.009,\n  "p_over_n": 2.0,\n'
            '  "regime": "subcritical-yagan",\n  "window": 0.05,\n'
            '  "yagan_c": 0.8871644279344876\n}\n',
        ),
        (
            ["--n", "2000", "--P", "4000", "--a", "0.5,0.5", "--K", "3,6", "--window", "0.3"],
            '{\n  "beta": -0.8576521772365915,\n  "beta_over_ln_n": -0.11283557206551245,\n'
            '  "flags": [],\n  "km_sq_over_p": 0.009,\n  "p_over_n": 2.0,\n'
            '  "regime": "critical-window(beta<0)",\n  "window": 0.3,\n'
            '  "yagan_c": 0.8871644279344876\n}\n',
        ),
        (
            ["--n", "10", "--P", "100", "--a", "1", "--K", "10"],
            '{\n  "beta": 4.3926527961387025,\n  "beta_over_ln_n": 1.9077048702799282,\n'
            '  "flags": [\n    "ring_size",\n    "beta_drift"\n  ],\n'
            '  "km_sq_over_p": 1.0,\n  "p_over_n": 10.0,\n'
            '  "regime": "supercritical-yagan",\n  "window": 0.05,\n'
            '  "yagan_c": 2.907704870279928\n}\n',
        ),
    ])
    def test_frozen_diag_bytes(self, capsys, argv, stdout):
        # the JSON keys, their order and every float's repr, pinned literally
        code, out, err = run_cli(capsys, "diag", *argv)
        assert (code, out, err) == (0, stdout, "")

    @pytest.mark.parametrize("flag, value, kind", [("--a", "0.5,x", "reals"), ("--K", "1,x", "integers")])
    def test_prob_bad_comma_list_exit_2(self, capsys, flag, value, kind):
        lists = {"--a": "0.5,0.5", "--K": "1,2", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["prob", "--n", "2", "--P", "5", "--a", lists["--a"], "--K", lists["--K"]])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.splitlines()[-1] == f"rig prob: error: argument {flag}: expected comma-separated {kind}, got {value!r}"
        assert "Traceback" not in out.err

    def test_python_m_rigraph_prints_what_main_prints(self, capsys):
        argv = ["diag", "--n", "2000", "--P", "4000", "--a", "0.5,0.5", "--K", "3,6"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "rigraph", *argv], env=env, capture_output=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.decode() == run_cli(capsys, *argv)[1]

    @pytest.mark.parametrize("argv, name", [
        (["prob", "--n", "9" * 400, "--P", "400", "--a", "1", "--K", "3"], "n"),
        (["diag", "--n", "9" * 400, "--P", "400", "--a", "1", "--K", "3"], "n"),
        (["solve", "--n", "9" * 400, "--P", "400", "--a", "1", "--ratios", "1", "--target-beta", "0"], "n"),
        (["diag", "--n", "200", "--P", "9" * 400, "--a", "1", "--K", "3"], "P"),
        (["solve", "--n", "100", "--P", "9" * 400, "--a", "1", "--ratios", "1", "--target-beta", "0"], "P"),
    ], ids=["prob-n", "diag-n", "solve-n", "diag-P", "solve-P"])
    def test_n_or_P_past_float_range_exit_2(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {name} must be finite, got an integer past the float range\n")

    @pytest.mark.parametrize("P", [2**53 + 1, 2**64])
    def test_simulate_pool_past_2_53_exit_2(self, capsys, tmp_path, P):
        out_csv = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "simulate", "--n", "3", "--P", str(P), "--a", "1", "--K", "2",
                                 "--trials", "5", "--seed", "1", "--out", str(out_csv))
        assert (code, out, err) == (2, "", f"error: simulation needs P <= 2^53, got P={P}\n")
        assert not out_csv.exists()

    def test_sweep_pool_past_2_53_refused_before_any_point_runs(self, capsys, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(sweeps, "run_trials", lambda *args: ran.append(args))
        doc = spec_dict(axis="P", points=[100, 2**54], trials=20_000, output_path=str(tmp_path / "x.csv"))
        with pytest.raises(InvalidParamsError, match="P <= 2\\^53"):
            run_sweep(sweep_spec_from_dict(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert (code, out, err) == (2, "", f"error: simulation needs P <= 2^53, got P={2**54}\n")
        assert ran == []
        assert not (tmp_path / "x.csv").exists()

    def test_beta_target_pool_past_2_53_refused_before_any_solve(self, capsys, tmp_path, monkeypatch):
        probes = []
        ring_beta = model_core._ring_beta
        monkeypatch.setattr(model_core, "_ring_beta", lambda *args: probes.append(args[3]) or ring_beta(*args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec_dict(base={"n": 100, "P": 2**53 + 1, "a": [1.0]}, ratios=[1.0],
                                            axis="beta-target", points=[-10], output_path=str(tmp_path / "x.csv"))))
        assert run_cli(capsys, "sweep", str(cfg)) == (2, "", f"error: simulation needs P <= 2^53, got P={2**53 + 1}\n")
        assert probes == []
        assert not (tmp_path / "x.csv").exists()

    def test_estimate_past_float_range_exit_2(self, capsys, tmp_path):
        # P (ln n + target) overflows: one line and exit 2, not a traceback
        want = (2, "", "error: cannot solve for target beta 0.0 at n=100, P=1e+308: "
                       "the estimate of K_1 is past the float range\n")
        argv = ["solve", "--n", "100", "--P", str(10**308), "--a", "1", "--ratios", "1", "--target-beta", "0"]
        assert run_cli(capsys, *argv) == want
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec_dict(base={"n": 100, "P": 10**308, "a": [1.0]}, ratios=[1.0],
                                            axis="beta-target", points=[0], output_path=str(tmp_path / "x.csv"))))
        # a sweep refuses this pool before any solve
        assert run_cli(capsys, "sweep", str(cfg)) == (2, "", f"error: simulation needs P <= 2^53, got P={10**308}\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("where", ["huge", "-huge", "above-beta(P)"])
    def test_solve_targets_past_the_ends_match_reference(self, capsys, where):
        n, P = 10, 10
        top = beta(ModelParams(n=n, a=(1.0,), K=(P,), P=P))
        target = {"huge": 1.7e308, "-huge": -1.7e308, "above-beta(P)": math.nextafter(top, math.inf)}[where]
        code, out, err = run_cli(capsys, "solve", "--n", str(n), "--P", str(P), "--a", "1", "--ratios", "1",
                                 f"--target-beta={target!r}")
        try:
            K = bisect_solve_k1(n, P, (1.0,), (1.0,), target)
        except UnachievableError as exc:
            assert (code, out, err) == (2, "", f"error: {exc}\n")
        else:
            assert (code, err) == (0, "")
            assert json.loads(out)["K"] == list(K)

    def test_sweep_empty_groups_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec_dict(base={"n": 40, "P": 60, "a": []}, ratios=[], axis="beta-target",
                                            points=[0], output_path=str(tmp_path / "x.csv"))))
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: group probabilities must sum to 1 within 1e-09, got sum 0.0\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, where", [
        ("sweep", "missing/x.csv"), ("simulate", "missing/x.csv"), ("sweep", "."), ("simulate", "."),
        ("sweep", "missing/"), ("simulate", ""),
    ], ids=["sweep-missing-dir", "simulate-missing-dir", "sweep-dir", "simulate-dir", "sweep-trailing-slash",
            "simulate-empty"])
    def test_output_path_refused_before_any_trial_runs(self, capsys, tmp_path, monkeypatch, command, where):
        ran = []
        monkeypatch.setattr(sweeps, "run_trials", lambda *args: ran.append(args))
        monkeypatch.chdir(tmp_path)
        if command == "sweep":
            (tmp_path / "cfg.json").write_text(json.dumps(spec_dict(output_path=where)))
            argv = ["sweep", "cfg.json"]
        else:
            argv = ["simulate", "--n", "40", "--P", "60", "--a", "0.5,0.5", "--K", "2,3",
                    "--trials", "50", "--seed", "7", "--out", where]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: output path {where!r} must name a file in a directory that exists\n"
        assert ran == []
        assert os.listdir(tmp_path) == (["cfg.json"] if command == "sweep" else [])
        assert not any(name.startswith(".sweep-") for name in os.listdir(tmp_path.parent))

    @pytest.mark.parametrize("axis", ["n", "P", "beta-target"])
    def test_sweep_point_no_float_holds_exit_2(self, capsys, tmp_path, axis):
        # 2^53 + 1 would round to 2^53 and run there
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec_dict(axis=axis, points=[1, 2**53 + 1], ratios=[1, 2],
                                            output_path=str(tmp_path / "x.csv"))))
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: every point must be a number a float holds exactly, got {2**53 + 1}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("content", [
        json.dumps(spec_dict(master_seed="@")).replace('"@"', "7" * 5000).encode(),
        b"\xff\xfe{}",
    ], ids=["5000-digit-seed", "not-utf8"])
    def test_sweep_unreadable_config_exit_2(self, capsys, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read sweep config {str(cfg)!r}: ") and err.count("\n") == 1

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


@st.composite
def pool_points(draw):
    """(n, P, small ring, large ring): P up to 2^64, a small ring of at most
    10^4 and a large ring anywhere in [small, P], save where it is slow."""
    P = draw(st.integers(1, 2**64))
    small = draw(st.integers(0, min(P, 10**4)))
    large = draw(st.integers(small, P))
    # a large ring in between sums up to sqrt(745 P) log terms in its ratio with itself: slow, not wrong
    assume(large <= 10**5 or large * large >= 800 * P)
    return draw(st.integers(0, 10**6)), P, small, large


class TestCliNeverTraces:
    @settings(max_examples=200, deadline=None)
    @given(point=pool_points(), command=st.sampled_from(["prob", "diag"]))
    # large / P rounds to 1.0, where log1p raised a math domain error
    @example(point=(10, 555580775569255334, 1, 555580775569255333), command="prob")
    @example(point=(10, 555580775569255334, 1, 555580775569255333), command="diag")
    def test_prob_and_diag_exit_0_2_or_3_without_a_traceback(self, point, command):
        n, P, small, large = point
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--n", str(n), "--P", str(P), "--a", "0.5,0.5", "--K", f"{small},{large}"])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3)
        if code == 0:
            assert err == ""
            json.loads(out)
        else:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
