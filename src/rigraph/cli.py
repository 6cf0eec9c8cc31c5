"""Command-line surface.

Each subcommand's parser carries the handler that runs it.  Exit codes:
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
from .model_core import CRITICAL_WINDOW, ModelParams, beta, diagnostics, exact_quantities, solve_k1
from .oracle import enumerate_event_probs, enumerate_pair_prob
from .sweeps import load_sweep_spec, run_sweep, simulate_row, write_sweep_csv


def _comma_list(cast, kind: str):
    """An argparse type parsing a comma list of ``cast`` values, called ``kind`` in its error."""

    def parse(text: str) -> tuple:
        try:
            return tuple(cast(x) for x in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind}, got {text!r}") from exc

    return parse


_floats_csv = _comma_list(float, "reals")
_ints_csv = _comma_list(int, "integers")

# the model flags: name -> (type, help)
_MODEL_FLAGS = {
    "n": (int, "vertex count"),
    "P": (int, "object pool size"),
    "a": (_floats_csv, "group probabilities, comma list"),
    "K": (_ints_csv, "ring sizes, comma list"),
}

# the exit code of each error class that main reports; the first class an error is an instance of decides
_EXIT_CODES = {
    InvalidParamsError: 2,
    UnachievableError: 2,
    OSError: 2,
    EnumerationBudgetError: 3,
    RegimeViolationError: 3,
    WorkerCrashError: 1,
    MemoryError: 1,
}


def _params_from(args: argparse.Namespace) -> ModelParams:
    return ModelParams(n=args.n, a=args.a, K=args.K, P=args.P)


def _check_out_path(path: str) -> None:
    """Refuse, before any trial runs, a CSV path that names no file in a directory that exists."""
    if not os.path.basename(path) or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise InvalidParamsError(f"output path {path!r} must name a file in a directory that exists")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _exact(values: dict) -> dict:
    """Each exact value as its fraction string, and under ``<name>_float`` as a float."""
    out = {}
    for name, value in values.items():
        out[name], out[f"{name}_float"] = str(value), float(value)
    return out


def _subcommand(sub, name: str, handler, summary: str, model_flags=tuple(_MODEL_FLAGS)) -> argparse.ArgumentParser:
    """Add subcommand ``name``, run by ``handler``, with the model flags named in ``model_flags``."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(handler=handler)
    for flag in model_flags:
        kind, text = _MODEL_FLAGS[flag]
        p.add_argument(f"--{flag}", type=kind, required=True, help=text)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rig",
        description="Random intersection graph G(n, a, K, P): exact quantities and seeded experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _subcommand(sub, "prob", _cmd_prob, "print all closed-form quantities as JSON")

    p = _subcommand(sub, "solve", _cmd_solve, "smallest ratio-shaped K reaching a beta target", ("n", "P", "a"))
    p.add_argument("--ratios", type=_floats_csv, required=True)
    p.add_argument("--target-beta", type=float, required=True)

    p = _subcommand(sub, "simulate", _cmd_simulate, "run seeded trials at one parameter point")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="path for the one-row CSV")

    p = _subcommand(sub, "sweep", _cmd_sweep, "run a sweep from a JSON config", ())
    p.add_argument("config", help="sweep config (JSON, schema 1)")

    p = sub.add_parser("oracle", help="brute-force exact values for tiny instances")
    modes = p.add_subparsers(dest="oracle_mode", required=True)
    p = _subcommand(modes, "pair", _cmd_oracle_pair, "exact intersection probability of two uniform subsets", ())
    for flag in ("--P", "--Ki", "--Kj"):
        p.add_argument(flag, type=int, required=True)
    _subcommand(modes, "events", _cmd_oracle_events, "exact event probabilities by full enumeration")

    p = _subcommand(sub, "diag", _cmd_diag, "regime ratios, advisory flags, and classification")
    p.add_argument("--window", type=float, default=CRITICAL_WINDOW, help="critical-window half-width")
    return parser


def _cmd_prob(args) -> None:
    _emit(dataclasses.asdict(exact_quantities(_params_from(args))))


def _cmd_solve(args) -> None:
    K = solve_k1(args.n, args.P, args.a, args.ratios, args.target_beta)
    achieved = beta(ModelParams(n=args.n, a=args.a, K=K, P=args.P))
    _emit({"K": list(K), "beta": achieved, "target_beta": args.target_beta})


def _cmd_simulate(args) -> None:
    params = _params_from(args)
    _check_out_path(args.out)
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


def _cmd_sweep(args) -> None:
    spec = load_sweep_spec(args.config)
    _check_out_path(spec.output_path)
    rows = run_sweep(spec, workers=None)
    write_sweep_csv(rows, spec.output_path)
    _emit({"out": spec.output_path, "rows": len(rows), "bytes": os.path.getsize(spec.output_path)})


def _cmd_oracle_pair(args) -> None:
    _emit(_exact({"p_intersect": enumerate_pair_prob(args.P, args.Ki, args.Kj)}))


def _cmd_oracle_events(args) -> None:
    _emit(_exact(dataclasses.asdict(enumerate_event_probs(_params_from(args)))))


def _cmd_diag(args) -> None:
    _emit(dataclasses.asdict(diagnostics(_params_from(args), args.window)))


def _run(handler, args: argparse.Namespace) -> int:
    """Call ``handler(args)`` and return the exit code: 0, or that of an error ``_EXIT_CODES``
    names, which is printed as one ``error:`` line."""
    try:
        handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _run(args.handler, args)


if __name__ == "__main__":
    sys.exit(main())
