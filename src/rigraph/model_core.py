"""Closed-form probability engine for group-heterogeneous random intersection graphs.

The model: n vertices are split into m groups, a vertex landing in group i
with probability a_i.  A group-i vertex draws K_i distinct objects uniformly
at random from a pool of P objects, and two vertices are adjacent iff their
object sets intersect.  Everything in this module is an exact function of the
parameter tuple (n, a, K, P):

* pairwise edge probabilities   p_ij = 1 - C(P-K_i, K_j) / C(P, K_j)
* group-conditioned edge prob   b_i  = sum_j a_j p_ij
* unconditional edge prob       sum_ij a_i a_j p_ij
* threshold deviation           beta = n*b_1 - ln n
  (b_1 = (ln n + beta)/n is the critical scaling for connectivity; the graph
  is asymptotically disconnected when beta -> -inf and connected when
  beta -> +inf)
* expected isolated-vertex counts  E[J] = n * sum_i a_i (1-b_i)^(n-1) and its
  group-1 restriction             E[I] = n * a_1 (1-b_1)^(n-1)
* a second-moment diagnostic for the pair-isolation probability of two
  group-1 vertices (see ``cross_moment_ratio``).

Binomial-coefficient ratios are evaluated as products of K linear factors in
log space; raw factorials are never formed, so P up to ~1e9 is fine.  A ratio
whose exp would underflow is returned as 0.0 without the full sum, so one
ratio costs O(min(K_i, K_j, sqrt(745 P))) terms, and the seeded ring-size
search needs O(log K_1) of them near its answer.  An
exact rational mirror of the same formulas lives in ``tests/exact.py`` and is
used by the test suite as ground truth for the float path.
"""

from __future__ import annotations

import hashlib
import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InvalidParamsError,
    RegimeViolationError,
    UnachievableError,
)

_SUM_TOL = 1e-9  # |sum(a) - 1| beyond this is rejected, within it renormalized

# exp(x) rounds to 0.0 for every x below ln(2^-1075); this cut-off sits 0.3
# lower, a margin far wider than the rounding of the bound that is compared.
_LOG_UNDERFLOW = math.log(2.0**-1074) - 1.0
# below this many log terms the full sum is cheaper than testing the bound
_BOUND_MIN_TERMS = 64
# exp(x) is finite exactly for x <= ln(max float)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _as_int(name: str, value) -> int:
    """``value`` as a Python int; bools and non-integers are rejected."""
    if isinstance(value, bool):
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter tuple (n, a, K, P); single source of truth.

    Invariants enforced at construction:
      * n, P and every K_i are integers (numpy integers are stored as Python
        ints; bools are rejected), n >= 1, P >= 1
      * len(a) == len(K) == m >= 1, every a_i finite and > 0, sum(a) == 1 within 1e-9
        (renormalized exactly to sum 1 on construction, rejected otherwise)
      * 1 <= K_1 <= K_2 <= ... <= K_m <= P.  Out-of-order K is rejected, not
        sorted: silently reordering would desynchronize groups from ``a``.
    """

    n: int
    a: tuple[float, ...]
    K: tuple[int, ...]
    P: int

    def __post_init__(self) -> None:
        n = _as_int("n", self.n)
        if n < 1:
            raise InvalidParamsError(f"n must be an integer >= 1, got {self.n!r}")
        P = _as_int("P", self.P)
        if P < 1:
            raise InvalidParamsError(f"P must be an integer >= 1, got {self.P!r}")
        a = tuple(float(x) for x in self.a)
        K = tuple(_as_int("every K_i", k) for k in self.K)
        if len(a) == 0 or len(a) != len(K):
            raise InvalidParamsError(
                f"a and K must be nonempty and equally long, got {len(a)} and {len(K)}"
            )
        if not all(0.0 < x < math.inf for x in a):  # also false for NaN
            raise InvalidParamsError(f"every group probability must be finite and > 0, got {a}")
        try:
            total = math.fsum(a)
        except OverflowError:  # finite weights whose sum leaves the float range
            total = math.inf
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidParamsError(
                f"group probabilities must sum to 1 within {_SUM_TOL}, got sum {total!r}"
            )
        a = tuple(x / total for x in a)
        for i, k in enumerate(K):
            if k < 1 or k > P:
                raise InvalidParamsError(f"need 1 <= K_{i + 1} <= P, got K={K}, P={P}")
        if any(K[i] > K[i + 1] for i in range(len(K) - 1)):
            raise InvalidParamsError(f"ring sizes must be nondecreasing, got {K}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "K", K)

    @property
    def m(self) -> int:
        """Number of groups."""
        return len(self.a)

    def fingerprint(self) -> str:
        """Stable hex digest of the exact parameter values."""
        return _fingerprint(self)


@lru_cache(maxsize=4096)
def _fingerprint(params: ModelParams) -> str:
    canon = "n=%d;P=%d;a=%s;K=%s" % (
        params.n,
        params.P,
        ",".join(x.hex() for x in params.a),
        ",".join(str(k) for k in params.K),
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def log_no_overlap_ratio(P: int, Ki: int, Kj: int) -> float:
    """ln of the probability that fixed Ki objects avoid a uniform Kj-subset.

    Equals ln[ C(P-Ki, Kj) / C(P, Kj) ], computed as a compensated sum of
    log1p terms.  Returns -inf when P - Ki < Kj (avoidance impossible) and
    exactly 0.0 when either size is zero.  Symmetric in (Ki, Kj); the sum
    always runs over the smaller of the two so the symmetry is exact in
    floating point.
    """
    if Ki < 0 or Kj < 0 or Ki > P or Kj > P:
        raise InvalidParamsError(f"need 0 <= Ki, Kj <= P, got Ki={Ki}, Kj={Kj}, P={P}")
    if Ki == 0 or Kj == 0:
        return 0.0
    if P - Ki < Kj:
        return -math.inf
    if Kj > Ki:  # C(P-Ki,Kj)/C(P,Kj) == C(P-Kj,Ki)/C(P,Ki); iterate less
        Ki, Kj = Kj, Ki
    return math.fsum(math.log1p(-Ki / (P - t)) for t in range(Kj))


def no_overlap_ratio(P: int, Ki: int, Kj: int) -> float:
    """Probability that a uniform Ki-subset and an independent uniform
    Kj-subset of a P-element pool are disjoint: C(P-Ki, Kj) / C(P, Kj).

    Equals ``exp(log_no_overlap_ratio(P, Ki, Kj))`` bit for bit, but costs
    O(min(Ki, Kj, sqrt(745 P))) terms: each of the min(Ki, Kj) log terms is
    at most log1p(-max(Ki, Kj)/P), so once that many copies of the first
    term fall below the underflow cut-off, the result is 0.0 without the sum.
    """
    small, large = (Ki, Kj) if Ki <= Kj else (Kj, Ki)
    # these two tests also ensure 0 < small <= large < P, which the bound
    # needs; other inputs go to log_no_overlap_ratio, which validates them
    if small > _BOUND_MIN_TERMS and large < P:
        if small * math.log1p(-large / P) < _LOG_UNDERFLOW:
            return 0.0
    return math.exp(log_no_overlap_ratio(P, Ki, Kj))


def pairwise_edge_prob(params: ModelParams, i: int, j: int) -> float:
    """Edge probability between a group-i and a group-j vertex (1-based)."""
    for g in (i, j):
        if not isinstance(g, int) or not 1 <= g <= params.m:
            raise InvalidParamsError(f"group index must be in 1..{params.m}, got {g!r}")
    return 1.0 - no_overlap_ratio(params.P, params.K[i - 1], params.K[j - 1])


@lru_cache(maxsize=512)
def b_vector(params: ModelParams) -> tuple[float, ...]:
    """All group-conditioned edge probabilities b_i = sum_j a_j p_ij."""
    P, a, K = params.P, params.a, params.K
    return tuple(
        math.fsum(aj * (1.0 - no_overlap_ratio(P, Ki, Kj)) for aj, Kj in zip(a, K))
        for Ki in K
    )


def edge_prob(params: ModelParams) -> float:
    """Unconditional edge probability sum_i sum_j a_i a_j p_ij."""
    return math.fsum(ai * bi for ai, bi in zip(params.a, b_vector(params)))


def beta_from_b1(n: int, b1: float) -> float:
    """Deviation of b_1 from the connectivity-critical scaling ln(n)/n,
    i.e. the beta solving b_1 = (ln n + beta)/n."""
    if n < 2:
        raise InvalidParamsError(f"beta needs n >= 2, got n={n}")
    return n * b1 - math.log(n)


def beta(params: ModelParams) -> float:
    """Threshold deviation n*b_1 - ln n for this parameter point."""
    return beta_from_b1(params.n, b_vector(params)[0])


def _yagan_c(n: int, b1: float) -> float:
    """The constant c = n*b_1/ln n of the coarse connectivity law."""
    return n * b1 / math.log(n)


def _isolation_term(n: int, b: float) -> float:
    # (1-b)^(n-1) via exp((n-1) log1p(-b)); exact 0 at b >= 1
    if b >= 1.0:
        return 0.0
    return math.exp((n - 1) * math.log1p(-b))


def expected_isolated_from_b(n: int, a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, float]:
    """E[#isolated] and E[#group-1 isolated] from explicit b values.

    E[J] = n * sum_i a_i (1-b_i)^(n-1),  E[I] = n * a_1 (1-b_1)^(n-1).
    """
    if n < 2:
        raise InvalidParamsError(f"isolation moments need n >= 2, got n={n}")
    terms = [ai * _isolation_term(n, bi) for ai, bi in zip(a, b)]
    e_j = n * math.fsum(terms)
    e_i = n * terms[0]
    return e_j, e_i


def expected_isolated(params: ModelParams) -> tuple[float, float]:
    """Expected isolated-vertex count E[J] and its group-1 part E[I]."""
    return expected_isolated_from_b(params.n, params.a, b_vector(params))


def cross_moment_ratio(params: ModelParams) -> float:
    """Second-moment diagnostic for the count of isolated group-1 vertices.

    The probability that two fixed group-1 vertices with disjoint rings are
    both isolated is bounded by a_1^2 * D^(n-2) with
    D = sum_l a_l C(P-2K_1, K_l)/C(P, K_l), while the squared single-vertex
    bound uses S = sum_l a_l C(P-K_1, K_l)/C(P, K_l).  This returns
    (D / S^2)^(n-2), the factor by which the pair bound can exceed the
    squared singleton bound.  Values near 1 certify that the second-moment
    method pins the isolation count; the power is taken in log space, and a
    power beyond the float range is ``math.inf``.
    """
    n, P, a, K = params.n, params.P, params.a, params.K
    if n < 3:
        raise InvalidParamsError(f"cross-moment ratio needs n >= 3, got n={n}")
    K1 = K[0]
    if 2 * K1 > P:
        raise RegimeViolationError(
            f"double-avoidance ratio needs 2*K_1 <= P, got K_1={K1}, P={P}"
        )
    num = math.fsum(al * no_overlap_ratio(P, 2 * K1, Kl) for al, Kl in zip(a, K))
    den = math.fsum(al * no_overlap_ratio(P, K1, Kl) for al, Kl in zip(a, K))
    if den == 0.0:
        raise RegimeViolationError(
            "single-vertex avoidance probability is zero; ratio undefined"
        )
    if num == 0.0:
        return 0.0
    log_ratio = (n - 2) * (math.log(num) - 2.0 * math.log(den))
    if log_ratio > _LOG_FLOAT_MAX:
        return math.inf
    return math.exp(log_ratio)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def ring_sizes_for(K1: int, ratios: tuple[float, ...], P: int) -> tuple[int, ...]:
    """Ring-size vector generated by a base size and fixed ratios.

    K_j = min(P, max(K1, round-half-up(ratios_j * K1))); nondecreasing by
    construction when the ratios are nondecreasing.
    """
    return tuple(min(P, max(K1, _round_half_up(r * K1))) for r in ratios)


def _check_ratios(a: tuple[float, ...], ratios: tuple[float, ...]) -> None:
    if len(ratios) != len(a):
        raise InvalidParamsError(
            f"ratios must have one entry per group, got {len(ratios)} for m={len(a)}"
        )
    if not all(math.isfinite(r) for r in ratios):
        raise InvalidParamsError(f"ratios must be finite, got {ratios}")
    if abs(ratios[0] - 1.0) > 1e-12:
        raise InvalidParamsError(f"ratios[0] must be 1, got {ratios[0]!r}")
    if any(r < 1.0 for r in ratios):
        raise InvalidParamsError(f"every ratio must be >= 1, got {ratios}")
    if any(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1)):
        raise InvalidParamsError(f"ratios must be nondecreasing, got {ratios}")


def solve_k1(
    n: int,
    P: int,
    a: tuple[float, ...],
    ratios: tuple[float, ...],
    target_beta: float,
) -> tuple[int, ...]:
    """Smallest ratio-shaped ring vector whose deviation reaches a target.

    Searches base sizes K_1 in [1, P] with K_j tied to K_1 through
    ``ring_sizes_for`` and returns the smallest vector with
    beta(params) >= target_beta.  Raises ``UnachievableError`` when even
    K = (P, ..., P) stays below the target.

    The search starts from the small-ring estimate b_1 ~ K_1^2 sum_j a_j r_j / P,
    i.e. K_1 ~ sqrt(P (ln n + target) / (n sum_j a_j r_j)), clamped to [2, P].
    From there it gallops down or up with doubling steps until
    beta(lo) < target <= beta(hi), then bisects inside that bracket.  Both
    steps are valid because b_1 (hence beta) is nondecreasing in K_1, so the
    result is the one a bisection over all of [1, P] finds; near the answer
    the search costs O(log K_1) beta evaluations instead of O(log P).
    """
    a = tuple(float(x) for x in a)
    ratios = tuple(float(r) for r in ratios)
    _check_ratios(a, ratios)
    if ratios[-1] > P:  # K_j = P either way, and r * K1 stays finite
        ratios = tuple(min(r, P) for r in ratios)
    if not math.isfinite(target_beta):
        raise InvalidParamsError(f"target beta must be finite, got {target_beta!r}")

    def beta_at(k1: int) -> float:
        return beta(ModelParams(n=n, a=a, K=ring_sizes_for(k1, ratios, P), P=P))

    if beta_at(P) < target_beta:
        raise UnachievableError(
            f"target beta {target_beta} unachievable: even K=(P,...,P) gives beta {beta_at(P)}"
        )
    lo, hi = 1, P  # invariant: beta_at(lo) < target <= beta_at(hi)
    if beta_at(lo) >= target_beta:
        return ring_sizes_for(lo, ratios, P)
    mean_ratio = math.fsum(aj * r for aj, r in zip(a, ratios))
    estimate = math.sqrt(max(0.0, P * (math.log(n) + target_beta) / (n * mean_ratio)))
    k = min(P, max(2, math.ceil(estimate)))
    step = 1
    if k < P:
        if beta_at(k) >= target_beta:
            hi = k
            while hi - step > lo and beta_at(hi - step) >= target_beta:
                hi -= step
                step *= 2
            lo = max(lo, hi - step)
        else:
            lo = k
            while lo + step < hi and beta_at(lo + step) < target_beta:
                lo += step
                step *= 2
            hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if beta_at(mid) >= target_beta:
            hi = mid
        else:
            lo = mid
    return ring_sizes_for(hi, ratios, P)


# Advisory thresholds for ``diagnostics`` (not assertions: the asymptotic
# regime conditions cannot be decided at a single n).
MIN_POOL_PER_VERTEX = 1.0  # flag when P/n drops below this
MAX_RING_SQ_PER_POOL = 0.1  # flag when K_m^2/P exceeds this
MAX_BETA_DRIFT = 0.5  # flag when |beta|/ln(n) exceeds this
# default half-width of the critical window around c = 1
CRITICAL_WINDOW = 0.05


@dataclass(frozen=True)
class RegimeLabel:
    """Connectivity regime of one instance under the coarse c = n*b_1/ln n
    law, refined by the sign of beta inside the critical window where the
    coarse law is silent."""

    kind: str  # subcritical-yagan | supercritical-yagan | critical-window
    c: float
    beta: float
    window: float

    @property
    def label(self) -> str:
        if self.kind != "critical-window":
            return self.kind
        sign = ">" if self.beta > 0 else ("<" if self.beta < 0 else "=")
        return f"critical-window(beta{sign}0)"


def classify_from_values(n: int, b1: float, window: float = CRITICAL_WINDOW) -> RegimeLabel:
    """Regime of an instance with n vertices and group-1 edge probability b1;
    ``window`` must be finite and >= 0."""
    if n < 2:
        raise InvalidParamsError(f"classification needs n >= 2, got n={n}")
    if not 0.0 <= window < math.inf:
        raise InvalidParamsError(f"critical window must be finite and >= 0, got {window!r}")
    c = _yagan_c(n, b1)
    if c < 1.0 - window:
        kind = "subcritical-yagan"
    elif c > 1.0 + window:
        kind = "supercritical-yagan"
    else:
        kind = "critical-window"
    return RegimeLabel(kind=kind, c=c, beta=beta_from_b1(n, b1), window=window)


def classify_regime(params: ModelParams, window: float = CRITICAL_WINDOW) -> RegimeLabel:
    """Classify one instance; depends on params only through (n, b_1)."""
    return classify_from_values(params.n, b_vector(params)[0], window)


@dataclass(frozen=True)
class RegimeDiagnostics:
    """Ratios describing how far a finite instance sits from the regime in
    which the connectivity threshold result applies, plus advisory flags."""

    p_over_n: float
    km_sq_over_p: float
    beta_over_ln_n: float
    yagan_c: float
    flags: tuple[str, ...]


def diagnostics(params: ModelParams) -> RegimeDiagnostics:
    """Regime ratios for one instance; ``yagan_c`` is n*b_1/ln n, the constant
    in the coarser c-above/below-1 connectivity law."""
    if params.n < 2:
        raise InvalidParamsError(f"diagnostics need n >= 2, got n={params.n}")
    b1 = b_vector(params)[0]
    p_over_n = params.P / params.n
    km_sq_over_p = params.K[-1] ** 2 / params.P
    beta_over_ln_n = beta_from_b1(params.n, b1) / math.log(params.n)
    flags: list[str] = []
    if p_over_n < MIN_POOL_PER_VERTEX:
        flags.append("pool_growth")
    if km_sq_over_p > MAX_RING_SQ_PER_POOL:
        flags.append("ring_size")
    if abs(beta_over_ln_n) > MAX_BETA_DRIFT:
        flags.append("beta_drift")
    return RegimeDiagnostics(
        p_over_n=p_over_n,
        km_sq_over_p=km_sq_over_p,
        beta_over_ln_n=beta_over_ln_n,
        yagan_c=_yagan_c(params.n, b1),
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class ExactQuantities:
    """Every closed-form quantity for one parameter point.

    ``cross_moment_ratio`` is None when undefined (n < 3 or 2*K_1 > P or a
    zero avoidance probability).
    """

    p: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    edge_prob: float
    beta: float
    expected_isolated: float
    expected_group1_isolated: float
    cross_moment_ratio: float | None


def exact_quantities(params: ModelParams) -> ExactQuantities:
    """Evaluate all closed forms at one parameter point (needs n >= 2)."""
    if params.n < 2:
        raise InvalidParamsError(f"exact quantities need n >= 2, got n={params.n}")
    m = params.m
    p = tuple(
        tuple(pairwise_edge_prob(params, i, j) for j in range(1, m + 1))
        for i in range(1, m + 1)
    )
    b = b_vector(params)
    e_j, e_i = expected_isolated(params)
    cmr: float | None
    try:
        cmr = cross_moment_ratio(params)
    except (RegimeViolationError, InvalidParamsError):
        cmr = None
    return ExactQuantities(
        p=p,
        b=b,
        edge_prob=edge_prob(params),
        beta=beta(params),
        expected_isolated=e_j,
        expected_group1_isolated=e_i,
        cross_moment_ratio=cmr,
    )
