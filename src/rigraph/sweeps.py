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
    beta,
    diagnostics,
    exact_quantities,
    ring_sizes_for,
    solve_k1,
)
from .montecarlo import TrialAggregate, _sweep_pool, run_trials
from .sampler import SeedSpec

SCHEMA_VERSION = 1
AXES = ("n", "P", "K1-scale", "beta-target")

def solve_k1_nearest(
    n: int, P: int, a: tuple[float, ...], ratios: tuple[float, ...], target_beta: float
) -> tuple[int, ...]:
    """Ratio-shaped ring vector whose achieved beta is nearest the target.

    Candidates are the ``solve_k1`` result (smallest vector at or above the
    target) and its base-size-minus-one sibling (just below); ties go to the
    smaller vector.
    """
    upper = solve_k1(n, P, a, ratios, target_beta)

    def achieved(K: tuple[int, ...]) -> float:
        return beta(ModelParams(n=n, a=a, K=K, P=P))

    if upper[0] == 1:
        return upper
    lower = ring_sizes_for(upper[0] - 1, tuple(min(float(r), P) for r in ratios), P)
    if abs(achieved(lower) - target_beta) <= abs(achieved(upper) - target_beta):
        return lower
    return upper


@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep definition (JSON schema version 1)."""

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
        if self.axis not in AXES:
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
    except (OSError, json.JSONDecodeError) as exc:
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
        args = dict(
            base_n=_integral(base["n"], "base n"),
            base_P=_integral(base["P"], "base P"),
            a=tuple(_real(x, "every a_i") for x in base["a"]),
            base_K=tuple(_integral(k, "every K_i") for k in base["K"]) if "K" in base else None,
            ratios=tuple(_real(r, "every ratio") for r in doc["ratios"]) if "ratios" in doc else None,
            axis=str(doc["axis"]),
            points=tuple(_real(p, "every point") for p in doc["points"]),
            trials=_integral(doc["trials"], "trials"),
            master_seed=_integral(doc["master_seed"], "master_seed"),
            output_path=doc["output_path"],
        )
    except InvalidParamsError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParamsError(f"malformed sweep config: {exc!r}") from exc
    return SweepSpec(**args)


def _number(value, what: str) -> None:
    """Only numbers pass: JSON ``true`` and ``"7"`` are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParamsError(f"{what} must be a number, got {value!r}")


def _real(value, what: str) -> float:
    _number(value, what)
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        raise InvalidParamsError(f"{what} must be finite, got {value}") from None


def _integral(value, what: str) -> int:
    """``value`` as an int: integral floats such as 2000.0 pass, fractional
    and non-finite ones are refused."""
    _number(value, what)
    if isinstance(value, float) and not value.is_integer():  # also NaN and inf
        raise InvalidParamsError(f"{what} must be an integer, got {value}")
    return int(value)


def resolve_point(spec: SweepSpec, value: float) -> ModelParams:
    """Materialize the parameter point for one axis value."""
    n, P, a = spec.base_n, spec.base_P, spec.a
    if spec.axis == "n":
        return ModelParams(n=_integral(value, "n axis point"), a=a, K=spec.base_K, P=P)
    if spec.axis == "P":
        return ModelParams(n=n, a=a, K=spec.base_K, P=_integral(value, "P axis point"))
    if spec.axis == "K1-scale":
        # a scale outside [0, P] gives the same sizes as its end of that range
        # (every K_i >= 1), and k * value could overflow to inf
        value = min(max(value, 0.0), P)
        scaled = [min(P, max(1, math.floor(k * value + 0.5))) for k in spec.base_K]
        for i in range(1, len(scaled)):  # rounding can break monotonicity
            scaled[i] = max(scaled[i], scaled[i - 1])
        return ModelParams(n=n, a=a, K=tuple(scaled), P=P)
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
    """Resolve every axis point up front (config errors must precede any
    simulation), then run them in order, all through one process pool."""
    resolved = [(i, v, resolve_point(spec, v)) for i, v in enumerate(spec.points)]
    rows = []
    with _sweep_pool():
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

