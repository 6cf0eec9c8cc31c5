"""Sweep configuration, execution and CSV emission.

A sweep walks one axis (n, P, K1-scale, or beta-target) across a base
parameter point, runs a fixed trial budget per point, and emits one frozen
CSV row per point.  Identical config plus seed yields byte-identical CSV.
Axis point i derives its own master seed from the sweep seed by splitmix64,
so parameter points never share random numbers.

The beta-target axis picks, for each target, the ratio-shaped ring vector
whose *achieved* deviation is nearest the target.  Integer ring sizes make
beta jump in coarse steps at desk scale, so "smallest K with beta >= target"
could land far above a negative target; choosing the nearer of the two
bracketing candidates keeps the labeled point honest.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass, fields
from typing import Any

from .errors import InvalidParamsError
from .model_core import (
    ModelParams,
    _as_float,
    _each,
    _scaled_sizes,
    diagnostics,
    exact_quantities,
    solve_k1,
)
from .montecarlo import TrialAggregate, _plan, _trial_pool, resolve_workers, run_trials
from .sampler import SeedSpec, _check_pool

SCHEMA_VERSION = 1
AXES = ("n", "P", "K1-scale", "beta-target")

def solve_k1_nearest(
    n: int, P: int, a: tuple[float, ...], ratios: tuple[float, ...], target_beta: float
) -> tuple[int, ...]:
    """Ratio-shaped ring vector whose achieved beta is nearest the target.

    Candidates are the ``solve_k1`` result (smallest vector at or above the
    target) and its base-size-minus-one sibling (just below); ties go to the
    smaller vector.  This is ``solve_k1(..., nearest=True)``: the solve has
    evaluated beta at both candidates when it closes its bracket, so the
    choice costs no further evaluation or input check.
    """
    # through this module's global, which ``perfbench --trace 1`` swaps for a timed wrapper
    return solve_k1(n, P, a, ratios, target_beta, nearest=True)


@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep definition (JSON schema version 1).  Construction
    applies each field's rule, however the spec is built: base n, base P,
    every K_i, trials and master_seed are integers (``_integral``), the seed
    one of 64 bits (``SeedSpec``), every a_i and ratio a number, and every
    point a float (``_point``); a, base_K, ratios and points become tuples,
    and one that is no sequence is refused.  So a spec built in code equals,
    and hashes as, the one its JSON twin gives."""

    base_n: int
    base_P: int
    a: tuple[float, ...]
    base_K: tuple[int, ...] | None
    ratios: tuple[float, ...] | None
    axis: str
    points: tuple[float, ...]
    trials: int
    master_seed: int
    output_path: str

    def __post_init__(self) -> None:
        # each field's rule, in field order, so the first bad field is the one named
        object.__setattr__(self, "base_n", _integral("base n", self.base_n))
        object.__setattr__(self, "base_P", _integral("base P", self.base_P))
        object.__setattr__(self, "a", _each("a", self.a, _as_float, "every a_i"))
        for name, rule, what in (("base_K", _integral, "every K_i"), ("ratios", _as_float, "every ratio")):
            if getattr(self, name) is not None:  # either may be absent
                object.__setattr__(self, name, _each(name, getattr(self, name), rule, what))
        object.__setattr__(self, "points", _each("points", self.points, _point, "every point"))
        object.__setattr__(self, "trials", _integral("trials", self.trials))
        object.__setattr__(self, "master_seed", SeedSpec(_integral("master_seed", self.master_seed)).master_seed)
        if not isinstance(self.axis, str) or self.axis not in AXES:
            raise InvalidParamsError(f"axis must be one of {AXES}, got {self.axis!r}")
        if len(self.points) == 0:
            raise InvalidParamsError("points must be nonempty")
        if not all(math.isfinite(p) for p in self.points):
            raise InvalidParamsError(f"points must be finite, got {self.points}")
        if any(self.points[i] >= self.points[i + 1] for i in range(len(self.points) - 1)):
            raise InvalidParamsError(f"points must be strictly increasing, got {self.points}")
        if self.trials < 1:
            raise InvalidParamsError(f"trials must be >= 1, got {self.trials}")
        if self.axis == "beta-target":
            if self.ratios is None:
                raise InvalidParamsError("beta-target axis requires 'ratios'")
        elif self.base_K is None:
            raise InvalidParamsError(f"axis {self.axis!r} requires base K")
        if not isinstance(self.output_path, str) or not self.output_path:
            raise InvalidParamsError(f"output_path must be a nonempty string, got {self.output_path!r}")


def load_sweep_spec(path: str) -> SweepSpec:
    """Parse and validate a sweep config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON, bad UTF-8 or an int past the digit limit
        raise InvalidParamsError(f"cannot read sweep config {path!r}: {exc}") from exc
    return sweep_spec_from_dict(doc)


def sweep_spec_from_dict(doc: dict[str, Any]) -> SweepSpec:
    if not isinstance(doc, dict):
        raise InvalidParamsError("sweep config must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise InvalidParamsError(
            f"unsupported config schema {doc.get('schema')!r}; expected {SCHEMA_VERSION}"
        )
    base = doc.get("base")
    if not isinstance(base, dict):
        raise InvalidParamsError("config needs a 'base' object with n, P, a")
    try:
        return SweepSpec(
            base_n=base["n"],
            base_P=base["P"],
            # a list field that is no list is a malformed config; SweepSpec converts the values
            a=tuple(base["a"]),
            base_K=tuple(base["K"]) if "K" in base else None,
            ratios=tuple(doc["ratios"]) if "ratios" in doc else None,
            axis=str(doc["axis"]),
            points=tuple(doc["points"]),
            trials=doc["trials"],
            master_seed=doc["master_seed"],
            output_path=doc["output_path"],
        )
    except (KeyError, TypeError) as exc:
        raise InvalidParamsError(f"malformed sweep config: {exc!r}") from exc


def _integral(what: str, value) -> int:
    """``value`` as an int: integral floats such as 2000.0 pass; fractional
    and non-finite floats, bools and non-numbers such as ``"7"`` are refused."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    value = _as_float(what, value)
    if not value.is_integer():  # also NaN and inf
        raise InvalidParamsError(f"{what} must be an integer, got {value}")
    return int(value)


def _point(what: str, value) -> float:
    """An axis point as a float; an integer no float holds exactly, such as
    2^53 + 1, is refused rather than run at a neighbouring value."""
    x = _as_float(what, value)
    if isinstance(value, numbers.Integral) and int(value) != x:
        raise InvalidParamsError(f"{what} must be a number a float holds exactly, got {value}")
    return x


def resolve_point(spec: SweepSpec, value: float) -> ModelParams:
    """Materialize the parameter point for one axis value."""
    n, P, a = spec.base_n, spec.base_P, spec.a
    if spec.axis == "n":
        return ModelParams(n=_integral("n axis point", value), a=a, K=spec.base_K, P=P)
    if spec.axis == "P":
        return ModelParams(n=n, a=a, K=spec.base_K, P=_integral("P axis point", value))
    if spec.axis == "K1-scale":
        base = ModelParams(n=n, a=a, K=spec.base_K, P=P)
        # scaling, rounding half up and clamping are monotone, so the checked base K stays nondecreasing
        return ModelParams(n=n, a=a, K=_scaled_sizes(base.K, value, 1, P), P=P)
    K = solve_k1_nearest(n, P, a, spec.ratios, value)
    return ModelParams(n=n, a=a, K=K, P=P)


@dataclass(frozen=True)
class SweepRow:
    """One (axis point x estimators) record; its fields are the frozen CSV
    columns, in order."""

    axis: str
    axis_value: float
    n: int
    P: int
    K: tuple[int, ...]
    b1: float
    beta: float
    yagan_c: float
    p_connected: float
    p_connected_low: float
    p_connected_high: float
    p_no_isolated: float
    p_no_isolated_low: float
    p_no_isolated_high: float
    p_f: float
    p_f_low: float
    p_f_high: float
    mean_isolated: float
    expected_isolated_closed_form: float
    cross_moment_ratio: float
    regime_flags: tuple[str, ...]

    def to_csv_fields(self) -> list[str]:
        return [_format(f.type, getattr(self, f.name)) for f in fields(self)]


def _format(declared: str, value) -> str:
    """One CSV field, by the field's declared type (so an int axis point
    prints like the float it stands for): floats with 9 significant digits,
    tuples ``;``-joined."""
    if declared == "float":
        return format(float(value), ".9g")
    if declared.startswith("tuple"):
        return ";".join(str(x) for x in value)
    return str(value)


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


def point_seed(master_seed: int, point_index: int) -> int:
    """Per-point master seed; points never share trial randomness."""
    return SeedSpec(master_seed, point_index).trial_seed()


def build_row(
    axis: str, axis_value: float, params: ModelParams, agg: TrialAggregate
) -> SweepRow:
    exact = exact_quantities(params)
    cmr = exact.cross_moment_ratio
    diag = diagnostics(params)
    return SweepRow(
        axis=axis,
        axis_value=axis_value,
        n=params.n,
        P=params.P,
        K=params.K,
        b1=exact.b[0],
        beta=exact.beta,
        yagan_c=diag.yagan_c,
        p_connected=agg.connected.point,
        p_connected_low=agg.connected.ci_low,
        p_connected_high=agg.connected.ci_high,
        p_no_isolated=agg.no_isolated.point,
        p_no_isolated_low=agg.no_isolated.ci_low,
        p_no_isolated_high=agg.no_isolated.ci_high,
        p_f=agg.no_isolated_but_disconnected.point,
        p_f_low=agg.no_isolated_but_disconnected.ci_low,
        p_f_high=agg.no_isolated_but_disconnected.ci_high,
        mean_isolated=agg.mean_isolated,
        expected_isolated_closed_form=exact.expected_isolated,
        cross_moment_ratio=math.nan if cmr is None else cmr,
        regime_flags=diag.flags,
    )


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[SweepRow]:
    """Resolve and check every axis point up front (config errors and
    pools the simulator refuses must precede any simulation), then run them
    in order, all through one process pool if any point's plan needs one.
    The beta-target axis checks its base pool before any solve, since one
    solve at a pool the simulator refuses can take minutes."""
    if spec.axis == "beta-target":
        _check_pool(spec.base_P)
    resolved = [(i, v, resolve_point(spec, v)) for i, v in enumerate(spec.points)]
    for _, _, params in resolved:
        _check_pool(params.P)
    workers = resolve_workers(workers)
    rows = []
    with _trial_pool(max(_plan(params, spec.trials, workers)[1] for _, _, params in resolved)):
        for i, value, params in resolved:
            agg = run_trials(params, spec.trials, point_seed(spec.master_seed, i), workers)
            rows.append(build_row(spec.axis, value, params, agg))
    return rows


def simulate_row(
    params: ModelParams, trials: int, master_seed: int, workers: int | None = None
) -> tuple[SweepRow, TrialAggregate]:
    """Single-point run; identical to a one-point sweep on the n axis."""
    agg = run_trials(params, trials, point_seed(master_seed, 0), workers)
    return build_row("n", float(params.n), params, agg), agg


def rows_to_csv_text(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)] + [",".join(row.to_csv_fields()) for row in rows]
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    """Write atomically: a failed run never leaves a partial file behind."""
    text = rows_to_csv_text(rows)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".sweep-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

