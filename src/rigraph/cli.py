"""Command-line surface.

Subcommands: prob, solve, simulate, sweep, oracle, diag.  Exit codes:
0 success, 1 a trial worker process died, 2 validation error,
3 enumeration-budget or regime error.
Trial budget and seed are mandatory wherever randomness is involved, so
every emitted number is reproducible from the command line alone.  The
RIG_THREADS env var caps worker count; it changes speed, never results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .errors import (
    EnumerationBudgetError,
    InvalidParamsError,
    RegimeViolationError,
    UnachievableError,
    WorkerCrashError,
)
from .model_core import CRITICAL_WINDOW, ModelParams, beta, classify_regime, diagnostics, exact_quantities, solve_k1
from .oracle import enumerate_event_probs, enumerate_pair_prob
from .sweeps import load_sweep_spec, run_sweep, simulate_row, write_sweep_csv


def _floats_csv(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from exc


def _ints_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _params_from(args: argparse.Namespace) -> ModelParams:
    return ModelParams(n=args.n, a=args.a, K=args.K, P=args.P)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _add_params_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--P", type=int, required=True, help="object pool size")
    p.add_argument("--a", type=_floats_csv, required=True, help="group probabilities, comma list")
    p.add_argument("--K", type=_ints_csv, required=True, help="ring sizes, comma list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rig",
        description="Random intersection graph G(n, a, K, P): exact quantities and seeded experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prob = sub.add_parser("prob", help="print all closed-form quantities as JSON")
    _add_params_flags(p_prob)

    p_solve = sub.add_parser("solve", help="smallest ratio-shaped K reaching a beta target")
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--P", type=int, required=True)
    p_solve.add_argument("--a", type=_floats_csv, required=True)
    p_solve.add_argument("--ratios", type=_floats_csv, required=True)
    p_solve.add_argument("--target-beta", type=float, required=True)

    p_sim = sub.add_parser("simulate", help="run seeded trials at one parameter point")
    _add_params_flags(p_sim)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="path for the one-row CSV")

    p_sweep = sub.add_parser("sweep", help="run a sweep from a JSON config")
    p_sweep.add_argument("config", help="sweep config (JSON, schema 1)")

    p_oracle = sub.add_parser("oracle", help="brute-force exact values for tiny instances")
    orc = p_oracle.add_subparsers(dest="oracle_mode", required=True)
    o_pair = orc.add_parser("pair", help="exact intersection probability of two uniform subsets")
    o_pair.add_argument("--P", type=int, required=True)
    o_pair.add_argument("--Ki", type=int, required=True)
    o_pair.add_argument("--Kj", type=int, required=True)
    o_events = orc.add_parser("events", help="exact event probabilities by full enumeration")
    _add_params_flags(o_events)

    p_diag = sub.add_parser("diag", help="regime ratios, advisory flags, and classification")
    _add_params_flags(p_diag)
    p_diag.add_argument("--window", type=float, default=CRITICAL_WINDOW, help="critical-window half-width")

    return parser


def _cmd_prob(args) -> int:
    _emit(dataclasses.asdict(exact_quantities(_params_from(args))))
    return 0


def _cmd_solve(args) -> int:
    K = solve_k1(args.n, args.P, args.a, args.ratios, args.target_beta)
    achieved = beta(ModelParams(n=args.n, a=args.a, K=K, P=args.P))
    _emit({"K": list(K), "beta": achieved, "target_beta": args.target_beta})
    return 0


def _cmd_simulate(args) -> int:
    params = _params_from(args)
    row, agg = simulate_row(params, args.trials, args.seed, workers=None)
    write_sweep_csv([row], args.out)
    _emit(
        {
            "out": args.out,
            "trials": agg.trials,
            "seed": args.seed,
            "p_connected": agg.connected.point,
            "p_connected_ci": [agg.connected.ci_low, agg.connected.ci_high],
            "p_no_isolated": agg.no_isolated.point,
            "p_no_isolated_but_disconnected": agg.no_isolated_but_disconnected.point,
            "mean_isolated": agg.mean_isolated,
            "stderr_isolated": agg.stderr_isolated,
        }
    )
    return 0


def _cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.config)
    rows = run_sweep(spec, workers=None)
    write_sweep_csv(rows, spec.output_path)
    _emit({"out": spec.output_path, "rows": len(rows), "bytes": os.path.getsize(spec.output_path)})
    return 0


def _cmd_oracle(args) -> int:
    if args.oracle_mode == "pair":
        value = enumerate_pair_prob(args.P, args.Ki, args.Kj)
        _emit({"p_intersect": str(value), "p_intersect_float": float(value)})
    else:
        probs = enumerate_event_probs(_params_from(args))
        _emit(
            {
                "p_connected": str(probs.p_connected),
                "p_connected_float": float(probs.p_connected),
                "p_no_isolated": str(probs.p_no_isolated),
                "p_no_isolated_float": float(probs.p_no_isolated),
                "expected_isolated": str(probs.expected_isolated),
                "expected_isolated_float": float(probs.expected_isolated),
            }
        )
    return 0


def _cmd_diag(args) -> int:
    params = _params_from(args)
    diag = diagnostics(params)
    regime = classify_regime(params, window=args.window)
    _emit(
        {
            "p_over_n": diag.p_over_n,
            "km_sq_over_p": diag.km_sq_over_p,
            "beta_over_ln_n": diag.beta_over_ln_n,
            "yagan_c": diag.yagan_c,
            "flags": list(diag.flags),
            "regime": regime.label,
            "beta": regime.beta,
            "window": regime.window,
        }
    )
    return 0


_DISPATCH = {
    "prob": _cmd_prob,
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "diag": _cmd_diag,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (InvalidParamsError, UnachievableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EnumerationBudgetError, RegimeViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WorkerCrashError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
