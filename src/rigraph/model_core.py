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

Each formula has one function.  ``no_overlap_ratio`` evaluates a
binomial-coefficient ratio as a product of K linear factors in log space;
raw factorials are never formed, so P up to ~1e9 is fine.  A ratio whose exp
would underflow is returned as 0.0 without the full sum, by one bound tested
before every sum, so one ratio costs O(min(K_i, K_j, sqrt(745 P))) terms.
b, the p-matrix, the cross-moment denominator and the ring-size solver share
its 4096-entry cache (``_no_overlap_ratio``, which takes sizes already
checked), so each (P, K_i, K_j) in it is computed once.
``exact_quantities`` is the one place that assembles the p-matrix and the
unconditional edge probability, and it takes every quantity built on b from
one b.  A closed-form query is interpreter work, so two formulas are written
out where they run: the isolation term a_i (1-b_i)^(n-1) in
``_isolation_moments``, and beta = n b_1 - ln n in ``_ring_beta``, the
solver's probe.  ``ModelParams`` and the result records ``ExactQuantities``
and ``RegimeDiagnostics`` stay frozen dataclasses but fill their fields in
one ``__dict__`` update.

Each model rule has one owner.  ``_model_inputs`` checks n, a and P for
``ModelParams`` and for the solver, walking each tuple once; n >= 2 is one
of its rules, so no function taking a ``ModelParams`` checks it again.
``_walk`` converts the ring sizes of ``ModelParams`` and the solver's
ratios and flags any out of range or order; each caller names the rule
broken.  ``_at_least`` is the one floor on a count (trials, workers, a
trial index, a pool size) across the package.  ``_ring_pair`` checks the
pool and ring sizes that ``no_overlap_ratio`` and the oracle's pair
enumeration take.
``_scaled_sizes`` builds every ring vector from a base and a scale,
rounding half up exactly and clamping to [low, P] without an exception path.  The
solver then evaluates beta on those plain values, row 1 of b only,
O(log K_1) times near its answer and twice when its starting estimate is
within one of it; at two or more groups Newton steps on a lower bound of b_1
refine that estimate when the target asks for b_1 > 0.05.  One loop
gallops from that estimate and bisects the bracket it finds.  Its beta at
K_1 = P is the closed form n sum_j a_j - ln n, so P is never probed, and it
evaluates beta at K_1 = 1 only when the bracket closes at (1, 2].  The
bracket it closes holds both candidates of the nearest choice
(``nearest=True``), so that choice costs no further evaluation.
An exact rational mirror of the same formulas lives in ``tests/exact.py`` and
is used by the test suite as ground truth for the float path.
"""

from __future__ import annotations

import math
import numbers
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
# exp(x) is finite exactly for x <= ln(max float)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# the closed forms take n and P as floats; an int comparison is the cheap test
_INT_FLOAT_MAX = int(sys.float_info.max)
# ``solve_k1`` refines its start by Newton steps only past this b_1*: below
# it the two lower bounds are already tight, and the steps would cost more
# than they save on the many cheap small-ring solves
_NEWTON_MIN_B1 = 0.05
_NEWTON_MAX_STEPS = 8
_NEWTON_REL_STEP = 1e-9


def _as_int(name: str, value) -> int:
    """``value`` as a Python int; bools and non-integers are rejected."""
    if isinstance(value, bool):
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}") from None


def _at_least(name: str, value, floor: int) -> int:
    """``_as_int`` of ``value``, refused below ``floor``: the one rule for
    a count such as trials, workers or a trial index."""
    value = _as_int(name, value)
    if value < floor:
        raise InvalidParamsError(f"{name} must be >= {floor}, got {value}")
    return value


def _as_float(name: str, value) -> float:
    """``value`` as a Python float; bools, strings and other non-numbers,
    and integers past the float range are rejected."""
    if type(value) is float:  # skips the numbers.Real test, which costs ~0.5 us
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParamsError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise InvalidParamsError(f"{name} must be finite, got an integer past the float range") from None


def _each(name: str, values, convert, what: str) -> tuple:
    """``convert(what, x)`` for each item x of ``values``, as a tuple; a
    ``values`` that cannot be iterated is refused."""
    try:
        return tuple(convert(what, x) for x in values)
    except TypeError:  # ``values`` is not iterable
        raise InvalidParamsError(f"{name} must be a sequence, got {values!r}") from None


def _walk(values, kind: type, convert, what: str, low, high, refusal: str) -> tuple[tuple, bool]:
    """The items of ``values`` as a tuple, each one ``convert(what, x)``
    unless it is a plain ``kind`` already, and whether every item lies in
    [low, high] and none below the one before; a ``values`` that cannot be
    iterated is refused as ``refusal``.  The one walk of the ring sizes and
    the solver's ratios, both on every solve: a plain loop, since a
    comprehension plus ``all`` passes costs about twice as much."""
    items = []
    ordered = True
    try:
        for x in values:
            if type(x) is not kind:
                x = convert(what, x)
            if not low <= x <= high:  # also true for NaN
                ordered = False
            low = x
            items.append(x)
    except TypeError:  # ``values`` is not iterable
        raise InvalidParamsError(f"{refusal}, got {values!r}") from None
    return tuple(items), ordered


def _model_inputs(n, a, P) -> tuple[int, tuple[float, ...], int]:
    """The n, a and P that a ``ModelParams`` stores (a renormalized), or
    ``InvalidParamsError`` if they break its invariants (an empty a sums to 0).
    Plain ints and floats skip conversion, and a is walked once."""
    if type(n) is not int:
        n = _as_int("n", n)
    if type(P) is not int:
        P = _as_int("P", P)
    if not (2 <= n <= _INT_FLOAT_MAX and 1 <= P <= _INT_FLOAT_MAX):
        for name, value, least in (("n", n, 2), ("P", P, 1)):
            if value < least:
                raise InvalidParamsError(f"{name} must be an integer >= {least}, got {value}")
            if value > _INT_FLOAT_MAX:
                raise InvalidParamsError(f"{name} must be finite, got an integer past the float range")
    weights = []
    in_range = True
    try:
        for x in a:
            if type(x) is not float:
                x = _as_float("every group probability", x)
            if not 0.0 < x < math.inf:  # also true for NaN
                in_range = False
            weights.append(x)
    except TypeError:  # ``a`` is not iterable
        raise InvalidParamsError(f"a must be a sequence of group probabilities, got {a!r}") from None
    a = tuple(weights)
    if not in_range:
        raise InvalidParamsError(f"every group probability must be finite and > 0, got {a}")
    try:
        total = math.fsum(a)
    except OverflowError:  # finite weights whose sum leaves the float range
        total = math.inf
    if abs(total - 1.0) > _SUM_TOL:
        raise InvalidParamsError(f"group probabilities must sum to 1 within {_SUM_TOL}, got sum {total!r}")
    if total != 1.0:  # x / 1.0 is x, so a sum of exactly 1 needs no second pass
        a = tuple([x / total for x in a])
    return n, a, P


@dataclass(frozen=True, init=False)
class ModelParams:
    """Immutable parameter tuple (n, a, K, P); single source of truth.

    Invariants enforced at construction:
      * n, P and every K_i are integers (numpy integers are stored as Python
        ints; bools are rejected), n lies in 2..max float and P in 1..max
        float (every closed form built on b_1 needs a second vertex)
      * len(a) == len(K) == m >= 1, every a_i a finite number > 0 (bools and
        strings are rejected), sum(a) == 1 within 1e-9 (renormalized exactly
        to sum 1 on construction, rejected otherwise)
      * 1 <= K_1 <= K_2 <= ... <= K_m <= P.  Out-of-order K is rejected, not
        sorted: silently reordering would desynchronize groups from ``a``.
    """

    n: int
    a: tuple[float, ...]
    K: tuple[int, ...]
    P: int

    def __init__(self, n: int, a: tuple[float, ...], K: tuple[int, ...], P: int) -> None:
        n, a, P = _model_inputs(n, a, P)
        K, ordered = _walk(K, int, _as_int, "every K_i", 1, P, "K must be a sequence of ring sizes")
        if len(a) != len(K):
            raise InvalidParamsError(f"a and K must be equally long, got {len(a)} and {len(K)}")
        if not ordered:  # name the first rule broken, range before order
            for i, k in enumerate(K):
                if k < 1 or k > P:
                    raise InvalidParamsError(f"need 1 <= K_{i + 1} <= P, got K={K}, P={P}")
            raise InvalidParamsError(f"ring sizes must be nondecreasing, got {K}")
        self.__dict__.update(n=n, a=a, K=K, P=P)


def _ring_pair(P, Ki, Kj) -> tuple[int, int, int]:
    """P, Ki and Kj as ints, or ``InvalidParamsError`` unless both ring
    sizes lie in [0, P]: the one rule for a pair of rings in a pool."""
    P = _as_int("P", P)
    Ki = _as_int("Ki", Ki)
    Kj = _as_int("Kj", Kj)
    if Ki < 0 or Kj < 0 or Ki > P or Kj > P:
        raise InvalidParamsError(f"need 0 <= Ki, Kj <= P, got Ki={Ki}, Kj={Kj}, P={P}")
    return P, Ki, Kj


def no_overlap_ratio(P: int, Ki: int, Kj: int) -> float:
    """Probability that a uniform Ki-subset and an independent uniform
    Kj-subset of a P-element pool are disjoint: C(P-Ki, Kj) / C(P, Kj).
    P, Ki and Kj must be integers with 0 <= Ki, Kj <= P (``_ring_pair``);
    ``_no_overlap_ratio`` computes it."""
    return _no_overlap_ratio(*_ring_pair(P, Ki, Kj))


@lru_cache(maxsize=4096)
def _no_overlap_ratio(P: int, Ki: int, Kj: int) -> float:
    """``no_overlap_ratio`` of ints with 0 <= Ki, Kj <= P, which every
    caller in this module has checked, cached.

    Computed as the exp of a compensated sum of min(Ki, Kj) log1p terms,
    log1p(-max(Ki, Kj)/(P - t)); the sum always runs over the smaller size,
    so the ratio is symmetric in (Ki, Kj) exactly in floating point.  Exactly
    1.0 when either size is zero and 0.0 when P - Ki < Kj (avoidance
    impossible).  Each term is at most the first, log1p(-max(Ki, Kj)/P), so
    once min(Ki, Kj) copies of that fall below the underflow cut-off the
    result is 0.0 without the sum, where the full sum's exp is 0.0 too; the
    bound is tested before the sum, so one ratio costs O(min(Ki, Kj,
    sqrt(745 P))) terms.  Each term, the bound's first too, is log1p of the
    float quotient max(Ki, Kj)/(P - t) where that is below 1.0; at P >= 2^54
    it can round to 1.0, where log1p raises, and such a term is the log of
    the int quotient (P - t - max)/(P - t), which rounds once.
    """
    small, large = (Ki, Kj) if Ki <= Kj else (Kj, Ki)
    if small == 0:
        return 1.0
    if P - large < small:
        return 0.0
    # here 0 < small <= large < P, which the bound needs
    if small * (math.log1p(-q) if (q := large / P) < 1.0 else math.log((P - large) / P)) < _LOG_UNDERFLOW:
        return 0.0
    # the term inline: a call per term slows a long sum by about 40%
    return math.exp(math.fsum(
        math.log1p(-q) if (q := large / (P - t)) < 1.0 else math.log((P - t - large) / (P - t))
        for t in range(small)
    ))


def _b_row(P: int, a: tuple[float, ...], K: tuple[int, ...], Ki: int) -> float:
    """b_i = sum_j a_j p_ij for the group whose ring size is Ki."""
    return math.fsum([aj * (1.0 - _no_overlap_ratio(P, Ki, Kj)) for aj, Kj in zip(a, K)])


@lru_cache(maxsize=512)
def b_vector(params: ModelParams) -> tuple[float, ...]:
    """All group-conditioned edge probabilities b_i = sum_j a_j p_ij."""
    P, a, K = params.P, params.a, params.K
    return tuple(_b_row(P, a, K, Ki) for Ki in K)


def _beta_from_b1(n: int, b1: float) -> float:
    """Deviation of b_1 from the connectivity-critical scaling ln(n)/n,
    i.e. the beta solving b_1 = (ln n + beta)/n; n >= 2 is the caller's
    check."""
    return n * b1 - math.log(n)


def beta(params: ModelParams) -> float:
    """Threshold deviation n*b_1 - ln n for this parameter point."""
    return _beta_from_b1(params.n, b_vector(params)[0])


def _ring_beta(n: int, P: int, a: tuple[float, ...], K: tuple[int, ...]) -> float:
    """``beta(ModelParams(n, a, K, P))`` bit for bit from the n, a and P that
    ``_model_inputs`` returns, computing row 1 of b only: ``_beta_from_b1``
    written out, since this runs on every probe of the solver."""
    return n * _b_row(P, a, K, K[0]) - math.log(n)


def expected_isolated_from_b(n: int, a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, float]:
    """E[#isolated] and E[#group-1 isolated] from explicit b values.

    E[J] = n * sum_i a_i (1-b_i)^(n-1),  E[I] = n * a_1 (1-b_1)^(n-1).
    n must be an integer in 2..max float, and a and b equally long
    nonempty sequences of numbers, every a_i in (0, 1] and every b_i >= 0
    (a b_i >= 1 leaves no group-i vertex isolated).
    """
    n = _as_int("n", n)
    if n < 2:
        raise InvalidParamsError(f"isolation moments need n >= 2, got n={n}")
    if n > _INT_FLOAT_MAX:
        raise InvalidParamsError("n must be finite, got an integer past the float range")
    a, b = _each("a", a, _as_float, "every a_i"), _each("b", b, _as_float, "every b_i")
    if not len(a) == len(b) >= 1:
        raise InvalidParamsError(f"a and b must be equally long and nonempty, got {len(a)} and {len(b)}")
    if not all(0.0 < x <= 1.0 for x in a) or not all(x >= 0.0 for x in b):
        raise InvalidParamsError(f"need every a_i in (0, 1] and every b_i >= 0, got a={a}, b={b}")
    return _isolation_moments(n, a, b)


def _isolation_moments(n: int, a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, float]:
    """``expected_isolated_from_b`` on values already checked: the n and a
    of a ``ModelParams`` and its b.  Each term is a_i (1-b_i)^(n-1), as
    exp((n-1) log1p(-b_i)) and exactly 0 at b_i >= 1."""
    terms = [ai * (0.0 if bi >= 1.0 else math.exp((n - 1) * math.log1p(-bi))) for ai, bi in zip(a, b)]
    return n * math.fsum(terms), n * terms[0]


def expected_isolated(params: ModelParams) -> tuple[float, float]:
    """Expected isolated-vertex count E[J] and its group-1 part E[I]."""
    return _isolation_moments(params.n, params.a, b_vector(params))


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
    num = math.fsum([al * _no_overlap_ratio(P, 2 * K1, Kl) for al, Kl in zip(a, K)])
    den = math.fsum([al * _no_overlap_ratio(P, K1, Kl) for al, Kl in zip(a, K)])
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


def _scaled_sizes(values, scale, low: int, P: int) -> tuple[int, ...]:
    """Each value times ``scale``, rounded half up exactly and clamped to
    [low, P] for a low <= P: a product at or past P gives P and one below
    low gives low, neither rounded, so +-inf and ints past the float range
    need no exception path.  The one rule behind every ring vector: those of
    each solver probe and of the K1-scale sweep axis.  A loop, not a
    comprehension, which would cost a call per vector on the solver's hot
    path."""
    sizes = []
    for v in values:
        x = v * scale
        # rounded only when low <= x < P, so within [low, P]; at or past 2^52 a float is an
        # integer, where x + 0.5 would round a tie to even, and an int product is exact
        sizes.append(P if x >= P else low if x < low else math.floor(x + 0.5) if x < 2.0**52 else int(x))
    return tuple(sizes)


def _solver_inputs(n, P, a, ratios, target_beta) -> tuple[int, int, tuple[float, ...], tuple[float, ...], float]:
    """The checked (n, P, a, ratios, target_beta) of a ring-size solve: n, a
    and P as a ``ModelParams`` stores them, the ratios and target as floats.
    Plain floats skip conversion, and the ratios are walked once."""
    n, a, P = _model_inputs(n, a, P)
    # every ratio finite (at most the largest float), none below 1 or the one before
    ratios, ordered = _walk(ratios, float, _as_float, "every ratio", 1.0, sys.float_info.max,
                            "ratios must be a sequence of numbers")
    if len(ratios) != len(a):
        raise InvalidParamsError(f"ratios must have one entry per group, got {len(ratios)} for m={len(a)}")
    if not ordered or ratios[0] - 1.0 > 1e-12:  # name the first rule broken
        if not all(math.isfinite(r) for r in ratios):
            raise InvalidParamsError(f"ratios must be finite, got {ratios}")
        if abs(ratios[0] - 1.0) > 1e-12:
            raise InvalidParamsError(f"ratios[0] must be 1, got {ratios[0]!r}")
        if any(r < 1.0 for r in ratios):
            raise InvalidParamsError(f"every ratio must be >= 1, got {ratios}")
        raise InvalidParamsError(f"ratios must be nondecreasing, got {ratios}")
    if type(target_beta) is not float:
        target_beta = _as_float("target beta", target_beta)
    if not -math.inf < target_beta < math.inf:
        raise InvalidParamsError(f"target beta must be finite, got {target_beta!r}")
    return n, P, a, ratios, target_beta


def solve_k1(
    n: int,
    P: int,
    a: tuple[float, ...],
    ratios: tuple[float, ...],
    target_beta: float,
    *,
    nearest: bool = False,
) -> tuple[int, ...]:
    """Smallest ratio-shaped ring vector whose deviation reaches a target.

    Searches base sizes K_1 in [1, P], with K_j = min(P, max(K_1,
    round-half-up(ratios_j * K_1))) by ``_scaled_sizes``, and returns the
    smallest vector with beta(params) >= target_beta.  Raises
    ``UnachievableError`` when even K = (P, ..., P) stays below the target.

    With ``nearest=True`` it returns instead whichever of that vector and
    its base-size-minus-one sibling has the achieved beta nearest the
    target: the sibling when |beta(K_1 - 1) - target| <= |beta(K_1) - target|,
    so ties go to the smaller vector, and the vector itself when K_1 = 1.
    The search has evaluated beta at both when its bracket closes (or has
    it in closed form at K_1 = P), so the choice costs no evaluation.

    The target asks for b_1* = (ln n + target) / n, and b_1 >= 1 - sum_j a_j
    e^{-K_1 K_j / P}.  So the search starts from K_1 ~ sqrt(P x) with
    x = max(-ln(1 - b_1*) / sum_j a_j r_j, -ln(1 - b_1*) + ln a_1), the larger
    of two lower bounds on the root of f(x) = sum_j a_j e^{-r_j x} -
    (1 - b_1*) = 0 (by Jensen, and from the j = 1 term alone).  At m = 1
    both are the root.  At m >= 2 and b_1* > 0.05, where spread ratios leave
    them loose, Newton steps on f refine x; f is convex and decreasing, so
    from below the root each step stays below it.  The steps stop on a
    relative step under 1e-9, on f <= 0 or after 8 steps.  Unlike the
    small-ring estimate from the linearized b_1 ~ K_1^2 sum_j a_j r_j / P,
    this start does not undershoot as b_1* nears 1.  It is clamped to
    [2, P // 2 + 1], since every K_1 > P / 2 gives b_1 = 1; a b_1* >= 1
    takes the float below 1 and is met only where b_1 rounds to 1.
    From there one loop keeps a bracket beta(lo) < target <= beta(hi): each
    pass probes, moves one end of the bracket to the probe, and steps on by
    a stride that doubles on every pass, so it gallops down or up; once the
    next step would leave the bracket it probes the midpoint instead, and
    from then on it bisects, since the stride stays wider than every later
    bracket.  This is valid because b_1 (hence beta) is nondecreasing in
    K_1, so the result is the one a bisection over all of [1, P] finds,
    whatever the start; near the answer the search costs O(log K_1) beta
    evaluations instead of O(log P), two when the start is off by less than
    one.  beta(P) needs no search: every ring of size P meets every other
    ring, so b_1 = sum_j a_j there, and beta(P) = n sum_j a_j - ln n refuses
    an unachievable target before any evaluation.  beta(1) is evaluated only
    when the bracket closes at (1, 2], and P is never probed.  No K_1 is
    evaluated twice.  A small-ring estimate
    P (ln n + target) / (n sum_j a_j r_j) of K_1^2 past the float range is
    refused with ``InvalidParamsError`` unless the target is above beta(P)
    or at most beta(1).
    ``_solver_inputs`` checks the arguments once; each evaluation is then
    ``_ring_beta`` on the plain values it returns.
    """
    n, P, a, ratios, target_beta = _solver_inputs(n, P, a, ratios, target_beta)
    log_n = math.log(n)
    top = n * math.fsum(a) - log_n  # beta(P) bit for bit: every ring of size P meets every other, so b_1 = sum_j a_j
    if top < target_beta:
        raise UnachievableError(f"target beta {target_beta} unachievable: even K=(P,...,P) gives beta {top}")

    seen = {P: top}  # beta at every K_1 evaluated, for the nearest choice
    rings = {P: (P,) * len(a)}  # the ring vector of each, so the answer is never rebuilt

    def beta_at(k1: int) -> float:
        K = rings[k1] = _scaled_sizes(ratios, k1, k1, P)
        value = seen[k1] = _ring_beta(n, P, a, K)
        return value

    mean_ratio = math.fsum([aj * r for aj, r in zip(a, ratios)])
    demand = log_n + target_beta  # n times the b_1 the target asks for
    if P * demand / (n * mean_ratio) == math.inf:  # the small-ring estimate of K_1^2
        if beta_at(1) >= target_beta:
            return rings[1]
        raise InvalidParamsError(
            f"cannot solve for target beta {target_beta} at n={n:.6g}, P={P:.6g}: "
            "the estimate of K_1 is past the float range"
        )
    b1 = demand / n
    tail = -math.log1p(-b1 if b1 < 1.0 else 2.0**-53 - 1.0)  # from b_1* >= 1, the float below 1
    x = max(tail / mean_ratio, tail + math.log(a[0]))
    if b1 > _NEWTON_MIN_B1 and len(a) > 1:
        # f(x) = sum_j a_j e^{-r_j x} - e^{-tail} is convex and decreasing, and x lies below its
        # root, so each Newton step stays below the root; at m = 1 x is the root already
        rest = math.exp(-tail)
        for _ in range(_NEWTON_MAX_STEPS):
            terms = [aj * math.exp(-r * x) for aj, r in zip(a, ratios)]
            f = math.fsum(terms) - rest
            if f <= 0.0:
                break
            dx = f / math.fsum([r * t for r, t in zip(ratios, terms)])
            x += dx
            if dx <= _NEWTON_REL_STEP * x:
                break
    # no answer lies past P // 2 + 1: every K_1 > P / 2 meets every ring, so b_1 = 1 there;
    # conditionals, not nested min and max: this start runs once per solve on the hot path
    root, half = (math.sqrt(P * x) if x > 0.0 else 0.0), P // 2 + 1
    k = max(2, math.ceil(root) if root < half else half)  # below P once P > 2, and at P <= 2 never probed
    # invariant: beta_at(lo) < target <= beta_at(hi), once 1 is evaluated; the stride doubles
    # on every probe, and once a stride step would leave the bracket it stays wider than every
    # later bracket, so from the first midpoint on this is a bisection
    lo, hi, probe, step = 1, P, k, 1
    while hi - lo > 1:
        if beta_at(probe) >= target_beta:
            hi, probe = probe, probe - step
        else:
            lo, probe = probe, probe + step
        step *= 2
        if not lo < probe < hi:
            probe = (lo + hi) // 2
    if hi == 2 and beta_at(1) >= target_beta:  # lo == 1 here, and the loop never probes it
        hi = 1
    # the bracket's ends hi - 1 = lo and hi are both in ``seen`` once hi > 1
    if nearest and hi > 1 and abs(seen[hi - 1] - target_beta) <= abs(seen[hi] - target_beta):
        hi -= 1
    return rings[hi]


# Advisory thresholds for ``diagnostics`` (not assertions: the asymptotic
# regime conditions cannot be decided at a single n).
MIN_POOL_PER_VERTEX = 1.0  # flag when P/n drops below this
MAX_RING_SQ_PER_POOL = 0.1  # flag when K_m^2/P exceeds this
MAX_BETA_DRIFT = 0.5  # flag when |beta|/ln(n) exceeds this
# default half-width of the critical window around c = 1
CRITICAL_WINDOW = 0.05


def _regime(n: int, b1: float, window: float) -> tuple[float, float, str]:
    """Yagan's c = n*b_1/ln n, beta = n*b_1 - ln n, and the regime label:
    the coarse c-below/above-1 law outside ``window`` around c = 1, and the
    sign of beta inside it, where the coarse law is silent."""
    dev = _beta_from_b1(n, b1)
    window = _as_float("critical window", window)
    if not 0.0 <= window < math.inf:
        raise InvalidParamsError(f"critical window must be finite and >= 0, got {window!r}")
    c = n * b1 / math.log(n)
    if c < 1.0 - window:
        label = "subcritical-yagan"
    elif c > 1.0 + window:
        label = "supercritical-yagan"
    else:
        sign = ">" if dev > 0 else ("<" if dev < 0 else "=")
        label = f"critical-window(beta{sign}0)"
    return c, dev, label


# The result records, like ``ModelParams``, are frozen dataclasses, so
# ``asdict``, ``astuple`` and ``replace`` work on them, but each fills its
# ``__dict__`` in one update: the generated frozen ``__init__`` makes one
# ``object.__setattr__`` call per field, which costs about a tenth of a
# closed-form query.  Callers pass the fields by position.
@dataclass(frozen=True, init=False)
class RegimeDiagnostics:
    """Ratios describing how far a finite instance sits from the regime in
    which the connectivity threshold result applies, advisory flags, and
    the instance's regime label."""

    p_over_n: float
    km_sq_over_p: float
    beta_over_ln_n: float
    yagan_c: float
    flags: tuple[str, ...]
    beta: float
    regime: str  # subcritical-yagan | supercritical-yagan | critical-window(beta<0|=0|>0)
    window: float

    def __init__(self, p_over_n, km_sq_over_p, beta_over_ln_n, yagan_c, flags, beta, regime, window) -> None:
        self.__dict__.update(p_over_n=p_over_n, km_sq_over_p=km_sq_over_p, beta_over_ln_n=beta_over_ln_n,
                             yagan_c=yagan_c, flags=flags, beta=beta, regime=regime, window=window)


def diagnostics(params: ModelParams, window: float = CRITICAL_WINDOW) -> RegimeDiagnostics:
    """Regime report for one instance; ``yagan_c`` is n*b_1/ln n, the
    constant in the coarser c-above/below-1 connectivity law, and ``window``
    (finite, >= 0) is the half-width around c = 1 where beta's sign decides."""
    n, P = params.n, params.P
    c, dev, regime = _regime(n, b_vector(params)[0], window)
    p_over_n = P / n
    km_sq_over_p = params.K[-1] ** 2 / P
    beta_over_ln_n = dev / math.log(n)
    flags: list[str] = []
    if p_over_n < MIN_POOL_PER_VERTEX:
        flags.append("pool_growth")
    if km_sq_over_p > MAX_RING_SQ_PER_POOL:
        flags.append("ring_size")
    if abs(beta_over_ln_n) > MAX_BETA_DRIFT:
        flags.append("beta_drift")
    return RegimeDiagnostics(p_over_n, km_sq_over_p, beta_over_ln_n, c, tuple(flags), dev, regime, window)


@dataclass(frozen=True, init=False)
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

    def __init__(self, p, b, edge_prob, beta, expected_isolated, expected_group1_isolated,
                 cross_moment_ratio) -> None:
        self.__dict__.update(p=p, b=b, edge_prob=edge_prob, beta=beta, expected_isolated=expected_isolated,
                             expected_group1_isolated=expected_group1_isolated,
                             cross_moment_ratio=cross_moment_ratio)


def exact_quantities(params: ModelParams) -> ExactQuantities:
    """Evaluate all closed forms at one parameter point; the edge
    probability, beta and the isolation terms all come from one b."""
    n, P, a, K = params.n, params.P, params.a, params.K
    b = b_vector(params)
    e_j, e_i = _isolation_moments(n, a, b)
    cmr: float | None
    try:
        cmr = cross_moment_ratio(params)
    except (RegimeViolationError, InvalidParamsError):
        cmr = None
    return ExactQuantities(
        tuple([tuple([1.0 - _no_overlap_ratio(P, Ki, Kj) for Kj in K]) for Ki in K]),
        b,
        math.fsum([ai * bi for ai, bi in zip(a, b)]),
        _beta_from_b1(n, b[0]),
        e_j,
        e_i,
        cmr,
    )
