import dataclasses
import itertools
import math
import pickle
from contextlib import contextmanager
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigraph import (
    InvalidParamsError,
    ModelParams,
    RegimeViolationError,
    UnachievableError,
    b_vector,
    beta,
    beta_from_b1,
    cross_moment_ratio,
    diagnostics,
    exact_quantities,
    expected_isolated,
    expected_isolated_from_b,
    no_overlap_ratio,
    ring_sizes_for,
    solve_k1,
    solve_k1_nearest,
)
import rigraph.model_core as model_core
import rigraph.sweeps as sweeps
from rigraph.model_core import _INT_FLOAT_MAX, _ring_beta
from rigraph.oracle import enumerate_pair_prob

import exact
from conftest import small_params
from reference_closed_forms import reference_exact_quantities
from reference_solver import bisect_solve_k1, bisect_solve_k1_nearest, full_sum_no_overlap_ratio, gallop_solve_k1


@contextmanager
def probed_base_sizes():
    """Collect the K_1 of every beta evaluation the solvers make, in
    ``model_core`` and in any module that imports ``_ring_beta`` from it."""
    probes = []
    ring_beta = model_core._ring_beta
    callers = [module for module in (model_core, sweeps) if getattr(module, "_ring_beta", None) is ring_beta]

    def counted(n, P, a, K):
        probes.append(K[0])
        return ring_beta(n, P, a, K)

    for module in callers:
        module._ring_beta = counted
    try:
        yield probes
    finally:
        for module in callers:
            module._ring_beta = ring_beta


# ---------------------------------------------------------------- params

class TestModelParams:
    def test_renormalizes_within_tolerance(self):
        p = ModelParams(n=2, a=(0.5, 0.5 + 4e-10), K=(1, 1), P=3)
        assert math.isclose(sum(p.a), 1.0, abs_tol=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidParamsError):
            ModelParams(n=2, a=(0.4, 0.4), K=(1, 1), P=3)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(InvalidParamsError):
            ModelParams(n=2, a=(1.2, -0.2), K=(1, 1), P=3)

    @pytest.mark.parametrize("a", [(math.nan,), (0.5, math.nan), (math.inf,), (math.inf, 0.5)])
    def test_rejects_non_finite_weights(self, a):
        with pytest.raises(InvalidParamsError, match="finite"):
            ModelParams(n=2, a=a, K=(1,) * len(a), P=3)

    def test_rejects_weights_whose_sum_overflows(self):
        # each weight is finite, but their sum leaves the float range
        with pytest.raises(InvalidParamsError, match="sum"):
            ModelParams(n=2, a=(1e308, 1e308), K=(1, 1), P=5)

    def test_rejects_decreasing_K_instead_of_sorting(self):
        with pytest.raises(InvalidParamsError):
            ModelParams(n=2, a=(0.5, 0.5), K=(2, 1), P=3)

    def test_rejects_K_outside_pool(self):
        with pytest.raises(InvalidParamsError):
            ModelParams(n=2, a=(1.0,), K=(4,), P=3)
        with pytest.raises(InvalidParamsError):
            ModelParams(n=2, a=(1.0,), K=(0,), P=3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidParamsError):
            ModelParams(n=2, a=(0.5, 0.5), K=(1,), P=3)

    def test_rejects_bool_integers(self):
        with pytest.raises(InvalidParamsError, match="n must be an integer"):
            ModelParams(n=True, a=(1.0,), K=(1,), P=3)
        with pytest.raises(InvalidParamsError, match="P must be an integer"):
            ModelParams(n=2, a=(1.0,), K=(1,), P=True)
        with pytest.raises(InvalidParamsError, match="K_i must be an integer"):
            ModelParams(n=2, a=(0.5, 0.5), K=(True, 2), P=3)
        with pytest.raises(InvalidParamsError, match="K_i must be an integer"):
            ModelParams(n=2, a=(1.0,), K=(2.0,), P=3)

    @pytest.mark.parametrize("a", [(10**400,), (0.5, -(10**400)), ("x",), ("0.5", "0.5"), (None,), (True,)],
                             ids=["huge-int", "huge-negative-int", "word", "numeric-strings", "none", "bool"])
    def test_rejects_weights_no_float_holds(self, a):
        with pytest.raises(InvalidParamsError, match="group probability"):
            ModelParams(n=2, a=a, K=(1,) * len(a), P=3)

    @pytest.mark.parametrize("n, P, name", [
        (10**400, 3, "n"), (2, 10**400, "P"), (_INT_FLOAT_MAX + 1, 3, "n"), (2, _INT_FLOAT_MAX + 1, "P"),
    ], ids=["huge-n", "huge-P", "n-past-max-float", "P-past-max-float"])
    def test_rejects_n_and_P_no_float_holds(self, n, P, name):
        # the closed forms take n and P as floats, and would overflow
        with pytest.raises(InvalidParamsError, match=f"^{name} must be finite, got an integer past the float range$"):
            ModelParams(n=n, a=(1.0,), K=(1,), P=P)

    def test_largest_float_n_and_P_pass(self):
        p = ModelParams(n=_INT_FLOAT_MAX, a=(0.5, 0.5), K=(1, 2), P=_INT_FLOAT_MAX)
        q = exact_quantities(p)
        assert all(math.isfinite(x) for x in (q.beta, q.expected_isolated, diagnostics(p).p_over_n))

    def test_numpy_integers_stored_as_python_ints(self):
        plain = ModelParams(n=5, a=(0.5, 0.5), K=(2, 3), P=7)
        for K in (np.array([2, 3], dtype=np.int32), (np.int64(2), np.int32(3))):
            got = ModelParams(n=np.int64(5), a=(0.5, 0.5), K=tuple(K), P=np.int64(7))
            assert all(type(x) is int for x in (got.n, got.P, *got.K))
            assert got == plain
            assert hash(got) == hash(plain)
            assert got.fingerprint() == plain.fingerprint()

    def test_construction_forms_agree(self):
        by_keyword = ModelParams(n=5, a=(0.25, 0.75), K=(2, 3), P=9)
        by_position = ModelParams(5, (0.25, 0.75), (2, 3), 9)
        replaced = dataclasses.replace(ModelParams(n=7, a=(0.5, 0.5), K=(1, 3), P=9), n=5, a=(0.25, 0.75), K=(2, 3))
        for other in (by_position, replaced):
            assert other == by_keyword
            assert hash(other) == hash(by_keyword)
            assert other.fingerprint() == by_keyword.fingerprint()
        assert astuple(replaced) == (5, (0.25, 0.75), (2, 3), 9)

    def test_replace_runs_the_checks(self):
        with pytest.raises(InvalidParamsError, match="^n must be an integer >= 2, got 1$"):
            dataclasses.replace(WORKED, n=1)
        with pytest.raises(InvalidParamsError, match="nondecreasing"):
            dataclasses.replace(WORKED, K=(2, 1))

    def test_fields_cannot_be_assigned(self):
        p = ModelParams(n=5, a=(1.0,), K=(2,), P=9)
        for field, value in (("n", 1), ("a", (2.0,)), ("K", (0,)), ("P", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, field, value)
        assert astuple(p) == (5, (1.0,), (2,), 9)

    def test_pickle_round_trip(self):
        # pool workers receive their params this way
        p = ModelParams(n=50, a=(0.2, 0.3, 0.5), K=(2, 3, 5), P=400)
        back = pickle.loads(pickle.dumps(p))
        assert back == p and hash(back) == hash(p) and back.fingerprint() == p.fingerprint()

    def test_fingerprint_distinguishes(self):
        p1 = ModelParams(n=2, a=(0.5, 0.5), K=(1, 2), P=5)
        p2 = ModelParams(n=2, a=(0.5, 0.5), K=(1, 2), P=6)
        assert p1.fingerprint() == ModelParams(n=2, a=(0.5, 0.5), K=(1, 2), P=5).fingerprint()
        assert p1.fingerprint() != p2.fingerprint()


# ---------------------------------------------------------------- no_overlap_ratio

@st.composite
def ratio_cases(draw):
    """(P, Ki, Kj) near the underflow boundary of exp(log ratio), where
    Ki*Kj/P ~ 730..760 for small rings, or anywhere on a small pool, which
    covers the 0.0 / 1.0 / -inf branches."""
    if draw(st.booleans()):
        P = draw(st.integers(1, 60))
        return P, draw(st.integers(0, P)), draw(st.integers(0, P))
    P = draw(st.integers(800, 10**9))
    small = draw(st.integers(1, min(P, 40_000)))
    bound = draw(st.floats(-760.0, -730.0))  # small * log1p(-large / P)
    large = min(P, max(small, math.ceil(-P * math.expm1(bound / small))))
    return (P, small, large) if draw(st.booleans()) else (P, large, small)


class TestNoOverlapRatio:
    def test_worked_value(self):
        # 30 of the C(5,2)^2 = 100 ordered subset pairs are disjoint
        assert no_overlap_ratio(5, 2, 2) == pytest.approx(0.3, abs=1e-12)
        assert 1 - enumerate_pair_prob(5, 2, 2) == Fraction(3, 10)

    def test_empty_set_never_intersects(self):
        assert no_overlap_ratio(5, 0, 3) == 1.0
        assert no_overlap_ratio(5, 3, 0) == 1.0

    def test_zero_when_no_room(self):
        assert no_overlap_ratio(4, 3, 2) == 0.0

    def test_rejects_oversized_arguments(self):
        with pytest.raises(InvalidParamsError):
            no_overlap_ratio(4, 5, 1)
        with pytest.raises(InvalidParamsError):
            no_overlap_ratio(4, 1, 5)
        with pytest.raises(InvalidParamsError):
            no_overlap_ratio(4, -1, 2)

    def test_exhaustive_against_exact_rationals(self):
        # every 0 <= Ki, Kj <= P <= 60, float vs arbitrary precision
        for P in range(1, 61):
            for Ki in range(P + 1):
                for Kj in range(P + 1):
                    got = no_overlap_ratio(P, Ki, Kj)
                    want = exact.no_overlap_ratio(P, Ki, Kj)
                    if want == 0:
                        assert got == 0.0
                    else:
                        assert abs(got - float(want)) <= 1e-12 * float(want)
                    # symmetry is exact in floating point by construction
                    assert got == no_overlap_ratio(P, Kj, Ki)

    @settings(max_examples=300, deadline=None)
    @given(case=ratio_cases())
    # exp of the full sum is 2^-1074 here, with the bound just below -744.94
    @example(case=(169417827, 763, 105612087))
    @example(case=(32144123, 2207, 9208709))
    # the bound is tested on every sum, however short: it fires here on at most 64 terms
    @example(case=(10**9, 64, 10**9 - 64))
    @example(case=(10**9, 10**9 - 100, 64))
    @example(case=(10**12, 40, 10**12 - 40))
    @example(case=(10**15, 32, 10**15 - 32))
    @example(case=(10**15, 24, 10**15 - 24))  # the bound reads -752.7, just past the cut-off
    @example(case=(2**53, 21, 2**53 - 21))  # the bound reads -707.5 and the full sum is subnormal
    def test_underflow_bound_is_bit_identical_to_full_sum(self, case):
        P, Ki, Kj = case
        want = full_sum_no_overlap_ratio(P, Ki, Kj)
        assert no_overlap_ratio(P, Ki, Kj).hex() == want.hex()
        assert no_overlap_ratio(P, Kj, Ki).hex() == want.hex()

    @pytest.mark.parametrize("P, small, large", [
        # past 2^53 a late term's large / (P - t) rounds to 1.0, where log1p
        # raises; the first term's does not, so the bound gives 0.0 first
        (555580775569255334, 63, 555580775569255271),
        # the first term's rounds to 1.0 too, so the bound on the exact int
        # quotient gives 0.0: 20 log(20 / 2^60) = -771.9 and the ratio is about 1e-343
        (2**60, 20, 2**60 - 20),
    ], ids=["late-quotient", "first-quotient"])
    def test_bound_answers_where_the_full_sum_leaves_the_log_domain(self, P, small, large):
        with pytest.raises(ValueError):
            full_sum_no_overlap_ratio(P, small, large)
        exact_ratio = math.prod(Fraction(P - large - t, P - t) for t in range(small))
        assert float(exact_ratio) == 0.0
        assert no_overlap_ratio(P, small, large) == 0.0 == no_overlap_ratio(P, large, small)

    @pytest.mark.parametrize("P, small, large", [
        (555580775569255334, 1, 555580775569255333),  # the ratio is 1/P
        (2**60, 3, 2**60 - 5),
    ])
    def test_quotient_rounding_to_one_takes_the_exact_int_quotient(self, P, small, large):
        # large / P rounds to 1.0, where log1p raises a math domain error
        assert large / P == 1.0
        want = math.prod(Fraction(P - large - t, P - t) for t in range(small))
        assert small > 1 or want == Fraction(1, P)
        for Ki, Kj in ((small, large), (large, small)):
            assert abs(no_overlap_ratio(P, Ki, Kj) - float(want)) <= 1e-12 * float(want)


# ---------------------------------------------------------------- edge probabilities

WORKED = ModelParams(n=2, a=(0.5, 0.5), K=(1, 2), P=5)


class TestEdgeProbabilities:
    def test_pairwise_worked_values(self):
        p22 = ModelParams(n=2, a=(0.5, 0.5), K=(2, 2), P=5)
        assert exact_quantities(p22).p[0][1] == pytest.approx(0.7, abs=1e-12)
        assert float(enumerate_pair_prob(5, 2, 2)) == pytest.approx(0.7, abs=1e-15)
        assert exact_quantities(WORKED).p[0][0] == pytest.approx(0.2, abs=1e-12)
        assert float(enumerate_pair_prob(5, 1, 1)) == pytest.approx(0.2, abs=1e-15)

    def test_full_ring_always_intersects(self):
        p = exact_quantities(ModelParams(n=2, a=(0.5, 0.5), K=(1, 5), P=5)).p
        assert p[0][1] == 1.0
        assert p[1][1] == 1.0

    def test_group_edge_prob_worked_values(self):
        # b_1 = 0.5*0.2 + 0.5*0.4, b_2 = 0.5*0.4 + 0.5*0.7, with the p_ij
        # cross-checked against the subset-pair enumeration oracle
        assert float(enumerate_pair_prob(5, 1, 2)) == pytest.approx(0.4, abs=1e-15)
        assert float(enumerate_pair_prob(5, 2, 2)) == pytest.approx(0.7, abs=1e-15)
        assert b_vector(WORKED) == pytest.approx((0.3, 0.55), abs=1e-12)

    def test_single_group_b_equals_p11(self):
        p = ModelParams(n=4, a=(1.0,), K=(2,), P=6)
        assert b_vector(p)[0] == pytest.approx(exact_quantities(p).p[0][0], abs=1e-15)

    def test_edge_prob_worked_value(self):
        assert exact_quantities(WORKED).edge_prob == pytest.approx(0.425, abs=1e-12)

    def test_edge_prob_single_group(self):
        q = exact_quantities(ModelParams(n=4, a=(1.0,), K=(2,), P=6))
        assert q.edge_prob == pytest.approx(q.p[0][0], abs=1e-15)

    @given(small_params())
    @settings(max_examples=60, deadline=None)
    def test_edge_prob_identity(self, params):
        # the unconditional probability is the a-weighted mix of the p-matrix
        q = exact_quantities(params)
        mix = math.fsum(ai * aj * pij for ai, row in zip(params.a, q.p) for aj, pij in zip(params.a, row))
        assert abs(q.edge_prob - mix) <= 1e-12

    @given(small_params())
    @settings(max_examples=60, deadline=None)
    def test_p_matrix_symmetric_and_b_monotone(self, params):
        m = params.m
        p = exact_quantities(params).p
        for i in range(m):
            for j in range(m):
                assert p[i][j] == p[j][i]
        b = b_vector(params)
        assert all(b[i] <= b[i + 1] + 1e-15 for i in range(m - 1))

    @given(small_params(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_p_monotone_under_ring_growth(self, params, data):
        # growing one ring (keeping the vector valid) never lowers any p_ij
        j = data.draw(st.integers(0, params.m - 1))
        K = list(params.K)
        upper = params.P if j == params.m - 1 else K[j + 1]
        if K[j] + 1 > upper:
            return
        K[j] += 1
        bigger = exact_quantities(ModelParams(n=params.n, a=params.a, K=tuple(K), P=params.P)).p
        before = exact_quantities(params).p
        for r in range(params.m):
            for c in range(params.m):
                assert bigger[r][c] >= before[r][c] - 1e-15


# ---------------------------------------------------------------- beta

class TestBeta:
    def test_zero_at_critical_point(self):
        n = 50
        assert beta_from_b1(n, math.log(n) / n) == pytest.approx(0.0, abs=1e-12)

    def test_worked_value_high_precision(self):
        import mpmath

        want = float(mpmath.mpf(10) * mpmath.mpf("0.3") - mpmath.log(10))
        assert beta_from_b1(10, 0.3) == pytest.approx(want, abs=1e-9)
        assert beta_from_b1(10, 0.3) == pytest.approx(0.697415, abs=1e-6)

    def test_empty_edge_limit(self):
        assert beta_from_b1(100, 0.0) == -math.log(100)

    def test_rejects_small_n(self):
        # a ModelParams never has n < 2 (see TestInputChecks); b_1, or b,
        # may come with any n
        with pytest.raises(InvalidParamsError, match="^beta needs n >= 2, got n=1$"):
            beta_from_b1(1, 0.5)
        with pytest.raises(InvalidParamsError, match="^isolation moments need n >= 2, got n=1$"):
            expected_isolated_from_b(1, (1.0,), (0.5,))

    def test_params_level_matches_b1(self):
        p = ModelParams(n=20, a=(0.5, 0.5), K=(2, 3), P=30)
        assert beta(p) == pytest.approx(20 * b_vector(p)[0] - math.log(20), abs=1e-14)

    def test_strictly_increasing_in_b1(self):
        assert beta_from_b1(30, 0.2) < beta_from_b1(30, 0.20001)


# ---------------------------------------------------------------- isolation moments

class TestExpectedIsolated:
    def test_worked_instance_matches_exact_path(self):
        p = ModelParams(n=3, a=(0.5, 0.5), K=(1, 2), P=5)
        e_j, e_i = expected_isolated(p)
        # exact rational: 3*(0.5*(1-0.3)^2 + 0.5*(1-0.55)^2) = 831/800
        want_j, want_i = exact.expected_isolated(p)
        assert want_j == Fraction(831, 800)
        assert e_j == pytest.approx(float(want_j), abs=1e-12)
        assert e_i == pytest.approx(float(want_i), abs=1e-12)

    def test_zero_when_edges_certain(self):
        p = ModelParams(n=5, a=(1.0,), K=(4,), P=4)
        e_j, e_i = expected_isolated(p)
        assert e_j == 0.0 and e_i == 0.0

    @given(small_params())
    @settings(max_examples=60, deadline=None)
    def test_group1_part_never_exceeds_total(self, params):
        e_j, e_i = expected_isolated(params)
        assert 0.0 <= e_i <= e_j + 1e-15
        assert e_j <= params.n

    def test_convergence_toward_a1_at_fixed_beta(self):
        # along b_1 = ln(n)/n the group-1 moment approaches a_1 monotonically
        a1 = 0.5
        diffs = []
        for n in (10**3, 10**4, 10**5, 10**6):
            b1 = math.log(n) / n
            _, e_i = expected_isolated_from_b(n, (a1, a1), (b1, b1))
            diffs.append(abs(e_i - a1))
        assert all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))


# ---------------------------------------------------------------- cross moment

class TestCrossMomentRatio:
    def test_power_one_at_n3(self):
        p = ModelParams(n=3, a=(0.5, 0.5), K=(2, 3), P=12)
        base = float(exact.cross_moment_base(p))
        assert cross_moment_ratio(p) == pytest.approx(base, rel=1e-12)

    def test_regime_violation(self):
        p = ModelParams(n=5, a=(1.0,), K=(3,), P=5)
        with pytest.raises(RegimeViolationError):
            cross_moment_ratio(p)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParamsError):
            cross_moment_ratio(ModelParams(n=2, a=(1.0,), K=(1,), P=4))

    def test_power_past_float_range_is_inf(self):
        # D/S^2 = 1.5 on this tiny pool, and 1.5^1750 < max float < 1.5^1751
        def ratio(n):
            return cross_moment_ratio(ModelParams(n=n, a=(0.5, 0.5), K=(1, 3), P=3))

        assert ratio(2000) == math.inf
        assert ratio(1752) == pytest.approx(1.5**1750, rel=1e-9)
        assert ratio(1753) == math.inf

    @given(small_params(min_n=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_base_power(self, params):
        if 2 * params.K[0] > params.P:
            with pytest.raises(RegimeViolationError):
                cross_moment_ratio(params)
            return
        base = exact.cross_moment_base(params)
        if base == 0:
            assert cross_moment_ratio(params) == 0.0
        else:
            want = float(base) ** (params.n - 2)
            assert cross_moment_ratio(params) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------- solve_k1

class TestSolveK1:
    def test_boundary_returns_full_pool(self):
        # P=2 keeps b_1 strictly below 1 until K=P, so only the full pool
        # reaches the top deviation
        n, P, a = 50, 2, (1.0,)
        top = beta(ModelParams(n=n, a=a, K=(P,), P=P))
        assert solve_k1(n, P, a, (1.0,), top) == (P,)

    def test_unachievable(self):
        n, P, a = 50, 6, (1.0,)
        top = beta(ModelParams(n=n, a=a, K=(P,), P=P))
        with pytest.raises(UnachievableError):
            solve_k1(n, P, a, (1.0,), top + 1.0)

    @pytest.mark.parametrize("target", [-3.0, -1.0, 0.0, 1.5, 4.0])
    def test_linear_scan_oracle_small_pool(self, target):
        n, P, a, ratios = 120, 60, (0.6, 0.4), (1.0, 1.5)

        def beta_at(k1):
            return beta(ModelParams(n=n, a=a, K=ring_sizes_for(k1, ratios, P), P=P))

        want = next((k1 for k1 in range(1, P + 1) if beta_at(k1) >= target), None)
        if want is None:
            with pytest.raises(UnachievableError):
                solve_k1(n, P, a, ratios, target)
        else:
            assert solve_k1(n, P, a, ratios, target) == ring_sizes_for(want, ratios, P)

    def test_critical_threshold_instance(self):
        # smallest K with b_1(K-1) < ln(1000)/1000 <= b_1(K)
        n, P = 1000, 10000
        K = solve_k1(n, P, (1.0,), (1.0,), 0.0)
        crit = math.log(n) / n

        def b1(k):
            return b_vector(ModelParams(n=n, a=(1.0,), K=(k,), P=P))[0]

        assert b1(K[0]) >= crit
        assert b1(K[0] - 1) < crit

    def test_monotone_in_target(self):
        n, P, a, ratios = 200, 100, (1.0,), (1.0,)
        ks = [solve_k1(n, P, a, ratios, t)[0] for t in (-5.0, -1.0, 0.0, 2.0)]
        assert ks == sorted(ks)

    def test_ratio_validation(self):
        with pytest.raises(InvalidParamsError):
            solve_k1(10, 20, (0.5, 0.5), (2.0, 1.0), 0.0)  # first ratio must be 1
        with pytest.raises(InvalidParamsError):
            solve_k1(10, 20, (0.5, 0.5), (1.0, 0.5), 0.0)  # decreasing
        with pytest.raises(InvalidParamsError):
            solve_k1(10, 20, (0.5, 0.5), (1.0,), 0.0)  # length mismatch
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParamsError, match="finite"):
                solve_k1(10, 20, (0.5, 0.5), (1.0, bad), 0.0)
            with pytest.raises(InvalidParamsError, match="finite"):
                solve_k1(10, 20, (1.0,), (bad,), 0.0)
        with pytest.raises(InvalidParamsError):
            solve_k1(10, 20, (0.5, 0.5), (1.0, 2.0), math.inf)

    @pytest.mark.parametrize("solve", [solve_k1, solve_k1_nearest], ids=["solve_k1", "solve_k1_nearest"])
    def test_empty_groups_refused(self, solve):
        # a is checked before the ratios, whose first entry an empty tuple lacks
        with pytest.raises(InvalidParamsError, match="sum to 1"):
            solve(10, 20, (), (), 0.0)

    @pytest.mark.parametrize("n, P, a, ratios, target", [
        (100, 1000, (0.5, 0.5), (1, 10**400), 0.0),
        (100, 1000, (0.5, 10**400), (1.0, 2.0), 0.0),
        (100, 1000, (0.5, 0.5), (1.0, 2.0), 10**400),
        (100, 1000, (0.5, 0.5), (1.0, "2"), 0.0),
        (100, 1000, (0.5, 0.5), (1.0, 2.0), "0"),
        (100, 1000, (0.5, 0.5), (1.0, 2.0), None),
        (10**400, 1000, (0.5, 0.5), (1.0, 2.0), 0.0),
        (100, 10**400, (1.0,), (1.0,), 0.0),
    ], ids=["huge-int-ratio", "huge-int-weight", "huge-int-target", "string-ratio", "string-target", "none-target",
            "huge-int-n", "huge-int-P"])
    def test_rejects_inputs_no_float_holds(self, n, P, a, ratios, target):
        with pytest.raises(InvalidParamsError):
            solve_k1(n, P, a, ratios, target)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_plain_bisection(self, data):
        m = data.draw(st.integers(1, 3))
        extra = data.draw(st.lists(
            st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(1.0, 6.0)),
            min_size=m - 1, max_size=m - 1,
        ))
        ratios = (1.0, *sorted(extra))
        weights = data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
        a = tuple(w / sum(weights) for w in weights)
        n = data.draw(st.integers(2, 10**5))
        P = data.draw(st.integers(1, 10**5))
        if data.draw(st.booleans()):
            target = data.draw(st.floats(-40.0, 40.0))
        else:  # land exactly on an achieved deviation, where ">=" decides
            k1 = data.draw(st.integers(1, P))
            target = beta(ModelParams(n=n, a=a, K=ring_sizes_for(k1, ratios, P), P=P))

        def outcome(solve):
            try:
                return solve(n, P, a, ratios, target)
            except UnachievableError as exc:
                return type(exc), str(exc)

        assert outcome(solve_k1) == outcome(bisect_solve_k1)
        assert outcome(solve_k1_nearest) == outcome(bisect_solve_k1_nearest)

    @staticmethod
    def assert_searches_as_the_gallop_did(n, P, a, ratios, target):
        # the same K or error, and the same probes in the same order, except
        # that at P <= 2 the start P is no longer probed: there the loop
        # probes K_1 = 1 or nothing
        for nearest in (False, True):
            searches = []
            for solve in (solve_k1, gallop_solve_k1):
                with probed_base_sizes() as probes:
                    try:
                        got = solve(n, P, a, ratios, target, nearest=nearest)
                    except (UnachievableError, InvalidParamsError) as exc:
                        got = type(exc), str(exc)
                searches.append((got, probes))
            (got, probes), (want, gallop_probes) = searches
            assert got == want
            if P >= 3:
                assert probes == gallop_probes
            else:
                assert probes in ([], [1]) and P not in probes

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_loop_searches_as_the_gallop_and_bisection_did(self, data):
        m = data.draw(st.integers(1, 3))
        extra = data.draw(st.lists(
            st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(1.0, 6.0)),
            min_size=m - 1, max_size=m - 1,
        ))
        ratios = (1.0, *sorted(extra))
        weights = data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
        a = tuple(w / sum(weights) for w in weights)
        n = data.draw(st.integers(2, 10**6))
        P = data.draw(st.one_of(st.integers(1, 4), st.integers(1, 10**6)))
        if data.draw(st.booleans()):
            target = data.draw(st.floats(-40.0, 40.0))
        else:  # land exactly on an achieved deviation, where ">=" decides
            k1 = data.draw(st.integers(1, P))
            target = beta(ModelParams(n=n, a=a, K=ring_sizes_for(k1, ratios, P), P=P))
        self.assert_searches_as_the_gallop_did(n, P, a, ratios, target)

    def test_one_loop_searches_the_ring_solve_cells_as_the_gallop_did(self):
        # the cells of perfbench's ring_solve stream, and the small pools below them
        shapes = [((1.0,), (1.0,)), ((0.5, 0.5), (1.0, 2.0)), ((1 / 3,) * 3, (1.0, 2.0, 4.0))]
        for n in (1000, 10_000, 100_000):
            for P in (1, 2, 3, n, 2 * n, 10 * n, 100 * n):
                if P > 10**6:
                    continue
                for (a, ratios), target in itertools.product(shapes, (-2.0, 0.0, 2.0)):
                    self.assert_searches_as_the_gallop_did(n, P, a, ratios, target)

    @pytest.mark.parametrize(
        "a, ratios", [((1.0,), (1.0,)), ((0.2, 0.3, 0.5), (1.0, 1.5, 3.0))]
    )
    def test_huge_pool_needs_few_evaluations(self, a, ratios):
        # the plain bisection's first probe, K_1 = P/2, alone sums 5e8 terms
        n, P, target = 10**6, 10**9, 0.0
        with probed_base_sizes() as probes:
            K = solve_k1(n, P, a, ratios, target)
        assert 0 < len(probes) <= 2
        assert K == ring_sizes_for(K[0], ratios, P)

        def exact_b1(k1):  # product of rationals, independent of model_core
            ring = ring_sizes_for(k1, ratios, P)
            avoid = [math.prod(Fraction(P - ring[0] - t, P - t) for t in range(Kj)) for Kj in ring]
            return sum(Fraction(aj) * (1 - r) for aj, r in zip(a, avoid))

        critical = (math.log(n) + target) / n
        assert float(exact_b1(K[0])) >= critical > float(exact_b1(K[0] - 1))

        def beta_at(k1):
            return beta(ModelParams(n=n, a=a, K=ring_sizes_for(k1, ratios, P), P=P))

        assert beta_at(K[0]) >= target > beta_at(K[0] - 1)

    @pytest.mark.parametrize("a, ratios", [((1.0,), (1.0,)), ((0.5, 0.5), (1.0, 2.0))], ids=["m1", "m2"])
    @pytest.mark.parametrize("below_top, most", [(1e-9, (16, 14)), (1.0, (8, 6)), (None, (0, 0))],
                             ids=["1e-9-below-beta(P)", "1-below-beta(P)", "ulp-above-beta(P)"])
    def test_targets_near_beta_of_P_need_few_evaluations(self, a, ratios, below_top, most):
        # the linearized b_1 ~ K_1^2 r / P undershoots as b_1 nears 1, where
        # every probe sums some 1e5 terms; a target past beta(P) is refused
        # by the closed form n sum_j a_j - ln n, without a probe
        n, P = 10**6, 10**9
        top = _ring_beta(n, P, a, ring_sizes_for(P, ratios, P))
        target = math.nextafter(top, math.inf) if below_top is None else top - below_top

        def outcome(solve):
            try:
                return solve(n, P, a, ratios, target)
            except UnachievableError as exc:
                return type(exc), str(exc)

        with probed_base_sizes() as probes:
            got = outcome(solve_k1)
        assert len(probes) <= most[len(a) - 1]
        assert (len(probes) > 0) == (below_top is not None)
        assert got == outcome(bisect_solve_k1)

    @pytest.mark.parametrize("a, ratios, most", [
        ((1.0,), (1.0,), (2, 2, 4, 4, 6)),
        ((0.5, 0.5), (1.0, 2.0), (2, 2, 2, 4, 6)),
        ((0.2, 0.3, 0.5), (1.0, 1.5, 3.0), (2, 2, 4, 4, 4)),
    ], ids=["m1", "m2", "m3"])
    @pytest.mark.parametrize("which", range(5), ids=["1e4", "1e5", "5e5", "9e5", "999000"])
    def test_mid_range_targets_need_few_evaluations(self, a, ratios, most, which):
        # at m >= 2 both lower bounds on the root of sum_j a_j e^{-r_j x} =
        # 1 - b_1* are loose mid-range (10-24 probes from them alone at m = 3);
        # Newton steps from the larger one bring the start within a few
        target = (1e4, 1e5, 5e5, 9e5, 999_000.0)[which]
        args = (10**6, 10**9, a, ratios, target)
        with probed_base_sizes() as probes:
            K = solve_k1(*args)
        assert len(probes) <= most[which]
        assert K == bisect_solve_k1(*args)
        assert solve_k1_nearest(*args) == bisect_solve_k1_nearest(*args)

    def test_nearest_probes_only_what_the_solve_probes(self):
        # the cells of perfbench's ring_solve stream: the nearest choice takes
        # both candidates' beta from the solve's closed bracket
        shapes = [((1.0,), (1.0,)), ((0.5, 0.5), (1.0, 2.0)), ((1 / 3,) * 3, (1.0, 2.0, 4.0))]
        for n in (1000, 10_000, 100_000):
            for P in (n, 2 * n, 10 * n, 100 * n):
                if P > 10**6:
                    continue
                for (a, ratios), target in itertools.product(shapes, (-2.0, 0.0, 2.0)):
                    with probed_base_sizes() as solved:
                        K = solve_k1(n, P, a, ratios, target)
                    with probed_base_sizes() as chosen:
                        nearest = sweeps.solve_k1_nearest(n, P, a, ratios, target)
                    assert chosen == solved and len(solved) == 2
                    assert nearest in (K, ring_sizes_for(K[0] - 1, ratios, P))

    def test_estimate_past_float_range_refused(self):
        # P (ln n + target) overflows, so the search has no finite start;
        # beta(P) reaches the target and beta(1) does not, so neither decides
        msg = "cannot solve for target beta 0.0 at n=100, P=1e+308: the estimate of K_1 is past the float range"
        for solve in (solve_k1, solve_k1_nearest):
            with pytest.raises(InvalidParamsError) as err:
                solve(100, 10**308, (1.0,), (1.0,), 0.0)
            assert str(err.value) == msg
        # the estimate overflows here too, but beta(1) reaches the target
        n, P = 13 * 10**307, 10**6
        a, ratios = (0.5, 0.5), (1.0, 1.5)
        target = beta(ModelParams(n=n, a=a, K=ring_sizes_for(1, ratios, P), P=P))
        mean_ratio = math.fsum(aj * r for aj, r in zip(a, ratios))
        assert P * (math.log(n) + target) / (n * mean_ratio) == math.inf
        assert solve_k1(n, P, a, ratios, target) == (1, 2)
        # one ulp above, beta(1) falls short and the estimate still overflows
        above = math.nextafter(target, math.inf)
        msg = (f"cannot solve for target beta {above} at n=1.3e+308, P=1e+06: "
               "the estimate of K_1 is past the float range")
        with pytest.raises(InvalidParamsError) as err:
            solve_k1(n, P, a, ratios, above)
        assert str(err.value) == msg
        # at n = P = 1e308 b_1 rounds to 0 at K_1 = 1 and 2, so the estimate
        # is 0.0 and the search, not the float-range branch, finds K_1 = 1
        n = P = 10**308
        a, ratios = (1e-3, 1 - 1e-3), (1.0, 1.5)
        target = beta(ModelParams(n=n, a=a, K=ring_sizes_for(1, ratios, P), P=P))
        assert P * (math.log(n) + target) == 0.0
        assert solve_k1(n, P, a, ratios, target) == (1, 2)

    @pytest.mark.parametrize("n, P, a, ratios", [
        (10, 10, (1.0,), (1.0,)),
        (50, 1, (1.0,), (1.0,)),
        (50, 2, (0.5, 0.5), (1.0, 2.0)),
        (50, 3, (0.5, 0.5), (1.0, 2.0)),
        (50, 3, (1.0,), (1.0,)),
        (1000, 10**6, (0.2, 0.3, 0.5), (1.0, 1.5, 3.0)),
    ], ids=["n10-P10", "P1", "P2", "P3", "P3-m1", "P1e6"])
    @pytest.mark.parametrize("where", [
        "huge", "-huge", "above-beta(P)", "beta(P)", "below-beta(P)", "above-beta(1)", "beta(1)", "below-beta(1)",
    ])
    def test_targets_at_the_ends_match_reference(self, n, P, a, ratios, where):
        # the ends of [1, P] are probed only when the search reaches them,
        # so the K or the error must still be the full bisection's
        def beta_at(k1):
            return beta(ModelParams(n=n, a=a, K=ring_sizes_for(k1, ratios, P), P=P))

        targets = {
            "huge": 1.7e308,
            "-huge": -1.7e308,
            "above-beta(P)": math.nextafter(beta_at(P), math.inf),
            "beta(P)": beta_at(P),
            "below-beta(P)": math.nextafter(beta_at(P), -math.inf),
            "above-beta(1)": math.nextafter(beta_at(1), math.inf),
            "beta(1)": beta_at(1),
            "below-beta(1)": math.nextafter(beta_at(1), -math.inf),
        }
        target = targets[where]

        def outcome(solve):
            try:
                return solve(n, P, a, ratios, target)
            except UnachievableError as exc:
                return type(exc), str(exc)

        assert outcome(solve_k1) == outcome(bisect_solve_k1)
        assert outcome(solve_k1_nearest) == outcome(bisect_solve_k1_nearest)

    @pytest.mark.parametrize("args", [
        (10**6, 10**9, (1.0,), (1.0,), 0.0),
        (10**6, 10**9, (0.2, 0.3, 0.5), (1.0, 1.5, 3.0), -5.0),
        (1000, 10**6, (0.2, 0.3, 0.5), (1.0, 1.5, 3.0), 0.0),
        (120, 2000, (0.6, 0.4), (1.0, 1.5), 1.5),
    ])
    def test_inner_answer_never_probes_the_ends(self, args):
        with probed_base_sizes() as probes:
            K1 = solve_k1(*args)[0]
        P = args[1]
        assert 2 < K1 < P - 1
        assert probes and 1 not in probes and P not in probes

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_ends_probed_only_next_to_the_answer(self, data):
        # deciding K_1 = 2 needs beta(1), and beta(P) is a closed form, so
        # with P >= 3 the search never probes P; any other answer needs neither end
        m = data.draw(st.integers(1, 3))
        extra = data.draw(st.lists(st.floats(1.0, 6.0), min_size=m - 1, max_size=m - 1))
        ratios = (1.0, *sorted(extra))
        weights = data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
        a = tuple(w / sum(weights) for w in weights)
        n = data.draw(st.integers(2, 10**6))
        P = data.draw(st.integers(4, 10**5))
        target = data.draw(st.floats(-20.0, 40.0))
        with probed_base_sizes() as probes:
            try:
                K1 = solve_k1(n, P, a, ratios, target)[0]
            except UnachievableError:
                K1 = P + 1
        assert P not in probes
        if 2 < K1 < P - 1:
            assert 1 not in probes
        assert len(probes) == len(set(probes))  # nothing is evaluated twice

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_ring_beta_is_beta_of_the_params(self, data):
        m = data.draw(st.integers(1, 3))
        extra = data.draw(st.lists(st.floats(1.0, 6.0), min_size=m - 1, max_size=m - 1))
        ratios = (1.0, *sorted(extra))
        weights = data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
        n = data.draw(st.integers(2, 10**6))
        P = data.draw(st.integers(1, 10**6))
        K = ring_sizes_for(data.draw(st.integers(1, P)), ratios, P)
        params = ModelParams(n=n, a=tuple(w / sum(weights) for w in weights), K=K, P=P)
        assert _ring_beta(params.n, params.P, params.a, K).hex() == beta(params).hex()

    def test_solve_validates_once_and_skips_b_vector(self, monkeypatch):
        built, looked_up, checked = [], [], []
        solver_inputs = model_core._solver_inputs

        def spy_params(*args, **kwargs):
            built.append(kwargs["K"])
            return ModelParams(*args, **kwargs)

        def spy_b_vector(params):
            looked_up.append(params)
            return b_vector(params)

        def spy_inputs(*args):
            checked.append(args)
            return solver_inputs(*args)

        for module in (model_core, sweeps):
            monkeypatch.setattr(module, "ModelParams", spy_params)
            if hasattr(module, "_solver_inputs"):  # spied wherever it is imported
                monkeypatch.setattr(module, "_solver_inputs", spy_inputs)
        monkeypatch.setattr(model_core, "b_vector", spy_b_vector)
        args = (1000, 10**6, (0.2, 0.3, 0.5), (1.0, 1.5, 3.0), 0.0)
        K = solve_k1(*args)
        assert (built, looked_up, checked) == ([], [], [args])
        checked.clear()
        nearest = sweeps.solve_k1_nearest(*args)
        # once, inside solve_k1: the nearest choice reuses its checked values
        assert (built, looked_up, checked) == ([], [], [args])
        assert K[0] > 1 and nearest in (K, ring_sizes_for(K[0] - 1, args[3], args[1]))

    def test_ring_sizes_round_half_up(self):
        assert ring_sizes_for(3, (1.0, 1.5), 100) == (3, 5)  # 4.5 rounds up
        assert ring_sizes_for(2, (1.0, 2.0), 3) == (2, 3)  # clamped to P

    def test_ring_sizes_overflowing_ratio_clamps(self):
        # 1e308 * K_1 overflows to inf: a finite ratio past P gives P, and
        # one far below 0 gives K_1
        assert ring_sizes_for(2, (1.0, 1e308), 7) == (2, 7)
        assert ring_sizes_for(2, (-1e308, 1.0), 7) == (2, 2)
        # clamping a ratio to a pool past the float range must not overflow
        big = 10**200
        assert ring_sizes_for(big, (1.0, 1e300), big) == (big, big)

    @pytest.mark.parametrize("ratios, want", [((1, 10**400), (2, 7)), ((-(10**400), 1), (2, 2))],
                             ids=["huge-int", "huge-negative-int"])
    def test_ring_sizes_integer_ratio_past_float_range_clamps(self, ratios, want):
        # finite like 1e308, so it clamps the same way instead of overflowing
        assert ring_sizes_for(2, ratios, 7) == want

    @pytest.mark.parametrize("ratio", [math.nan, math.inf])
    def test_ring_sizes_non_finite_ratio_refused(self, ratio):
        with pytest.raises(InvalidParamsError, match="ratios must be finite"):
            ring_sizes_for(2, (1.0, ratio), 7)

    RATIO_EDGES = [1e308, -1e308, 10**400, -(10**400), 0.49999999999999994, 0.5, 1.5, 2.5, 0.0, -0.0, 3]

    @staticmethod
    def exact_ring_sizes(K1, ratios, P):
        """min(P, max(K1, round-half-up(r * K1))) with x = r * K1 as Python
        computes it and the half-up rounding done in rationals."""
        if not all(-math.inf < r < math.inf for r in ratios):
            raise InvalidParamsError(f"ratios must be finite, got {ratios}")
        low = min(K1, P)
        sizes = []
        for r in ratios:
            x = r * K1
            sizes.append(P if x >= P else low if x < low else math.floor(Fraction(x) + Fraction(1, 2)))
        return tuple(sizes)

    @pytest.mark.parametrize("K1, ratios, P, want", [
        # an int product is exact: rounding it through a float gave P - 1
        (1, (41887311642964241,), 41887311642964241, (41887311642964241,)),
        # in [2^52, 2^53) x + 0.5 rounds a tie to even: these gave 2^52 + 2 and 2^53
        (2**52 + 1, (1.0,), 2**53, (2**52 + 1,)),
        (2**53 - 1, (1.0,), 2**53, (2**53 - 1,)),
    ])
    def test_ring_sizes_round_exactly(self, K1, ratios, P, want):
        assert ring_sizes_for(K1, ratios, P) == self.exact_ring_sizes(K1, ratios, P) == want

    @pytest.mark.parametrize("P", [7, 2**53, int(1.7e308)])
    def test_ring_sizes_edges_match_the_code_they_replaced(self, P):
        for K1 in sorted({1, 2, P // 3, P - 1, P} - {0}):
            for r in self.RATIO_EDGES:
                assert ring_sizes_for(K1, (1.0, r), P) == self.exact_ring_sizes(K1, (1.0, r), P)

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_ring_sizes_match_the_code_they_replaced(self, data):
        # one rule in place of a loop and a fallback that disagreed past the float range,
        # checked against half-up rounding in rationals
        P = data.draw(st.one_of(st.integers(1, 200), st.integers(1, int(1.7e308)),
                                st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, int(1.7e308)])))
        K1 = data.draw(st.one_of(st.integers(1, P), st.sampled_from([1, P])))
        ratio = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(self.RATIO_EDGES),
                          st.integers(-(10**400), 10**400), st.floats(0.0, 4.0))
        ratios = tuple(data.draw(st.lists(ratio, max_size=4)))
        assert ring_sizes_for(K1, ratios, P) == self.exact_ring_sizes(K1, ratios, P)
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        ratios = ratios + (bad,) if data.draw(st.booleans()) else (bad,) + ratios
        for rule in (ring_sizes_for, self.exact_ring_sizes):
            with pytest.raises(InvalidParamsError) as refused:
                rule(K1, ratios, P)
            assert str(refused.value) == f"ratios must be finite, got {ratios}"

    def test_ring_sizes_base_past_pool_is_pool(self):
        # min(P, max(K_1, .)) is P whatever the ratio; the replaced fallback gave K_1
        assert ring_sizes_for(17, (-(10**400), 0.0), 7) == (7, 7)
        assert ring_sizes_for(17, (1.0, 2.0), 7) == (7, 7)

    @pytest.mark.parametrize("target", [-2.0, 5.0, 40.0])
    def test_ratio_above_pool_acts_as_pool(self, target):
        # 1e308 * K_1 overflows to inf; a ratio of P gives the same rings
        args = (100, 1000, (0.5, 0.5))
        assert solve_k1(*args, (1.0, 1e308), target) == solve_k1(*args, (1.0, 1000.0), target)
        assert solve_k1_nearest(*args, (1.0, 1e308), target) == solve_k1_nearest(*args, (1.0, 1000.0), target)


# ---------------------------------------------------------------- input checks

HUGE = 10**400  # an integer no float holds
MODEL_BASE = dict(n=10, a=(0.5, 0.5), K=(2, 3), P=20)
SOLVER_BASE = dict(n=100, P=1000, a=(0.25, 0.25, 0.5), ratios=(1.0, 2.0, 3.0), target_beta=0.0)


class TestInputChecks:
    """One bad value per case; each check keeps its exception and message."""

    @pytest.mark.parametrize("field, value, message", [
        ("n", True, "n must be an integer, got True"),
        ("n", "10", "n must be an integer, got '10'"),
        ("n", None, "n must be an integer, got None"),
        ("n", 10.0, "n must be an integer, got 10.0"),
        ("n", HUGE, "n must be finite, got an integer past the float range"),
        ("n", 0, "n must be an integer >= 2, got 0"),
        ("n", 1, "n must be an integer >= 2, got 1"),
        ("P", True, "P must be an integer, got True"),
        ("P", None, "P must be an integer, got None"),
        ("P", HUGE, "P must be finite, got an integer past the float range"),
        ("P", 0, "P must be an integer >= 1, got 0"),
        ("a", (True, 0.5), "every group probability must be a number, got True"),
        ("a", ("0.5", 0.5), "every group probability must be a number, got '0.5'"),
        ("a", (None, 0.5), "every group probability must be a number, got None"),
        ("a", (math.nan, 0.5), "every group probability must be finite and > 0, got (nan, 0.5)"),
        ("a", (0.5, math.inf), "every group probability must be finite and > 0, got (0.5, inf)"),
        ("a", (0.5, HUGE), "every group probability must be finite, got an integer past the float range"),
        ("a", (0.5, -0.5), "every group probability must be finite and > 0, got (0.5, -0.5)"),
        ("a", (0.4, 0.4), "group probabilities must sum to 1 within 1e-09, got sum 0.8"),
        ("K", (True, 3), "every K_i must be an integer, got True"),
        ("K", ("2", 3), "every K_i must be an integer, got '2'"),
        ("K", (None, 3), "every K_i must be an integer, got None"),
        ("K", (math.nan, 3), "every K_i must be an integer, got nan"),
        ("K", (2, math.inf), "every K_i must be an integer, got inf"),
        ("K", (2, HUGE), "need 1 <= K_2 <= P, got K=(2, 1" + "0" * 400 + "), P=20"),
        ("K", (), "a and K must be equally long, got 2 and 0"),
        ("K", (3, 2), "ring sizes must be nondecreasing, got (3, 2)"),
        ("K", (2, 21), "need 1 <= K_2 <= P, got K=(2, 21), P=20"),
        ("K", (0, 3), "need 1 <= K_1 <= P, got K=(0, 3), P=20"),
        ("K", (21, 2), "need 1 <= K_1 <= P, got K=(21, 2), P=20"),
    ])
    def test_model_params_refuses(self, field, value, message):
        with pytest.raises(InvalidParamsError) as err:
            ModelParams(**dict(MODEL_BASE, **{field: value}))
        assert str(err.value) == message

    def test_model_params_refuses_empty_groups(self):
        with pytest.raises(InvalidParamsError) as err:
            ModelParams(n=10, a=(), K=(), P=20)
        assert str(err.value) == "group probabilities must sum to 1 within 1e-09, got sum 0.0"

    @pytest.mark.parametrize("solve", [solve_k1, solve_k1_nearest], ids=["solve_k1", "solve_k1_nearest"])
    @pytest.mark.parametrize("field, value, message", [
        ("n", True, "n must be an integer, got True"),
        ("n", "100", "n must be an integer, got '100'"),
        ("n", None, "n must be an integer, got None"),
        ("n", HUGE, "n must be finite, got an integer past the float range"),
        ("n", 0, "n must be an integer >= 2, got 0"),
        ("n", 1, "n must be an integer >= 2, got 1"),
        ("P", True, "P must be an integer, got True"),
        ("P", None, "P must be an integer, got None"),
        ("P", HUGE, "P must be finite, got an integer past the float range"),
        ("P", 0, "P must be an integer >= 1, got 0"),
        ("a", (0.25, True, 0.5), "every group probability must be a number, got True"),
        ("a", (0.25, "0.25", 0.5), "every group probability must be a number, got '0.25'"),
        ("a", (0.25, None, 0.5), "every group probability must be a number, got None"),
        ("a", (0.25, math.nan, 0.5), "every group probability must be finite and > 0, got (0.25, nan, 0.5)"),
        ("a", (0.25, 0.25, math.inf), "every group probability must be finite and > 0, got (0.25, 0.25, inf)"),
        ("a", (0.25, 0.25, HUGE), "every group probability must be finite, got an integer past the float range"),
        ("a", (), "group probabilities must sum to 1 within 1e-09, got sum 0.0"),
        ("ratios", (1.0, True, 3.0), "every ratio must be a number, got True"),
        ("ratios", (1.0, "2", 3.0), "every ratio must be a number, got '2'"),
        ("ratios", (1.0, None, 3.0), "every ratio must be a number, got None"),
        ("ratios", (1.0, math.nan, 3.0), "ratios must be finite, got (1.0, nan, 3.0)"),
        ("ratios", (1.0, 2.0, math.inf), "ratios must be finite, got (1.0, 2.0, inf)"),
        ("ratios", (1.0, 2.0, HUGE), "every ratio must be finite, got an integer past the float range"),
        ("ratios", (), "ratios must have one entry per group, got 0 for m=3"),
        ("ratios", (1.0, 3.0, 2.0), "ratios must be nondecreasing, got (1.0, 3.0, 2.0)"),
        ("ratios", (2.0, 2.0, 3.0), "ratios[0] must be 1, got 2.0"),
        ("ratios", (1.0, 0.5, 3.0), "every ratio must be >= 1, got (1.0, 0.5, 3.0)"),
        ("ratios", (1.0 - 1e-13, 2.0, 3.0), "every ratio must be >= 1, got (0.9999999999999, 2.0, 3.0)"),
        ("target_beta", True, "target beta must be a number, got True"),
        ("target_beta", "0", "target beta must be a number, got '0'"),
        ("target_beta", None, "target beta must be a number, got None"),
        ("target_beta", math.nan, "target beta must be finite, got nan"),
        ("target_beta", -math.inf, "target beta must be finite, got -inf"),
        ("target_beta", HUGE, "target beta must be finite, got an integer past the float range"),
    ])
    def test_solvers_refuse(self, solve, field, value, message):
        with pytest.raises(InvalidParamsError) as err:
            solve(**dict(SOLVER_BASE, **{field: value}))
        assert str(err.value) == message

    def test_numpy_scalars_act_as_python_values(self):
        weights = (np.float32(0.3), np.float32(0.7))
        plain_weights = tuple(float(x) for x in weights)
        got = ModelParams(n=np.int64(50), a=weights, K=(np.int32(3), np.int64(5)), P=np.int64(400))
        assert got == ModelParams(n=50, a=plain_weights, K=(3, 5), P=400)
        assert all(type(x) is float for x in got.a)
        for solve in (solve_k1, solve_k1_nearest):
            for ratios, target in [((np.float64(1.0), np.float32(1.6)), np.float32(0.3)),
                                   ((1.0, np.float64(1.6)), np.float64(-1.2))]:
                want = solve(500, 4000, plain_weights, tuple(float(r) for r in ratios), float(target))
                assert solve(np.int64(500), np.int32(4000), weights, ratios, target) == want


# ---------------------------------------------------------------- diagnostics

class TestDiagnostics:
    def test_clean_instance_has_no_flags(self):
        # P = 2n, small ring, near-critical deviation: inside every default bound
        n = 200
        d = diagnostics(ModelParams(n=n, a=(1.0,), K=(3,), P=2 * n))
        assert d.flags == ()
        assert d.p_over_n == 2.0

    def test_each_flag_triggers(self):
        small_pool = diagnostics(ModelParams(n=100, a=(1.0,), K=(1,), P=50))
        assert "pool_growth" in small_pool.flags
        big_ring = diagnostics(ModelParams(n=10, a=(1.0,), K=(10,), P=100))
        assert "ring_size" in big_ring.flags
        assert "beta_drift" in big_ring.flags  # K=10, P=100 is far supercritical

    @pytest.mark.parametrize("window", ["0.1", None, True, 10**400, -0.1, math.nan, math.inf],
                             ids=["string", "none", "bool", "huge-int", "negative", "nan", "inf"])
    def test_rejects_window_no_finite_float_holds(self, window):
        with pytest.raises(InvalidParamsError, match="critical window"):
            diagnostics(ModelParams(n=100, a=(1.0,), K=(3,), P=200), window)

    def test_yagan_c_relation(self):
        p = ModelParams(n=400, a=(0.5, 0.5), K=(2, 4), P=800)
        d = diagnostics(p)
        assert d.yagan_c == pytest.approx(400 * b_vector(p)[0] / math.log(400), rel=1e-14)
        assert d.beta_over_ln_n == pytest.approx(beta(p) / math.log(400), rel=1e-12)


# ---------------------------------------------------------------- exact_quantities

class TestExactQuantities:
    def test_worked_instance(self):
        q = exact_quantities(WORKED)
        assert q.edge_prob == pytest.approx(0.425, abs=1e-12)
        assert q.b == pytest.approx((0.3, 0.55), abs=1e-12)
        assert q.p[0][1] == q.p[1][0]
        assert q.cross_moment_ratio is None  # n=2 < 3
        assert q.expected_isolated == pytest.approx(2 * (1 - 0.425), abs=1e-12)

    def test_cross_moment_included_when_defined(self):
        p = ModelParams(n=10, a=(0.5, 0.5), K=(2, 3), P=20)
        q = exact_quantities(p)
        assert q.cross_moment_ratio == pytest.approx(cross_moment_ratio(p), rel=1e-15)

    @given(small_params())
    @settings(max_examples=30, deadline=None)
    def test_probability_ranges(self, params):
        q = exact_quantities(params)
        for row in q.p:
            for v in row:
                assert 0.0 <= v <= 1.0
        assert all(0.0 <= bi <= 1.0 for bi in q.b)
        assert 0.0 <= q.edge_prob <= 1.0


def _hex(value):
    """Floats as ``.hex()`` strings, through nested tuples; None as is."""
    if isinstance(value, tuple):
        return tuple(_hex(x) for x in value)
    return None if value is None else value.hex()


@st.composite
def wide_params(draw) -> ModelParams:
    """m <= 3, n up to 1e6 and P up to 1e9, with ring sizes anywhere in 1..P."""
    m = draw(st.integers(1, 3))
    P = draw(st.one_of(st.integers(1, 60), st.integers(1, 10**9)))
    K = sorted(draw(st.lists(st.integers(1, P), min_size=m, max_size=m)))
    weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    n = draw(st.one_of(st.integers(2, 8), st.integers(2, 10**6)))
    return ModelParams(n=n, a=tuple(w / sum(weights) for w in weights), K=tuple(K), P=P)


class TestExactQuantitiesOnePass:
    @given(st.one_of(small_params(), wide_params()))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bit_for_bit(self, params):
        assert _hex(astuple(exact_quantities(params))) == _hex(astuple(reference_exact_quantities(params)))

    def test_one_b_vector_lookup(self, monkeypatch):
        looked_up = []

        def spy_b_vector(params):
            looked_up.append(params)
            return b_vector(params)

        monkeypatch.setattr(model_core, "b_vector", spy_b_vector)
        params = ModelParams(n=10, a=(0.2, 0.3, 0.5), K=(2, 3, 4), P=40)
        exact_quantities(params)
        assert looked_up == [params]


# ---------------------------------------------------------------- float path against exact rationals
#
# Each bound is a first-order forward error bound of the float path, with
# every input taken at its exact value.  +, -, *, / and fsum round to within
# U of their result; log1p, log and exp are within one ulp, at most 2U.  The
# weights stored in ModelParams differ from the exact normalized weights of
# tests/exact.py by the factor sum(a), so each carries |sum(a) - 1| more.
# SECOND_ORDER covers products of two error terms, each below 1e-12 of the
# bound for these instances.

U = Fraction(1, 2**53)
LIBM = 2 * U
TINY = Fraction(1, 2**1074)  # absolute error of a rounding whose result is subnormal
SECOND_ORDER = Fraction(101, 100)


def _ratio_rel_err(P: int, Ki: int, Kj: int) -> Fraction:
    """Relative error of ``no_overlap_ratio``: each log1p term carries its
    division's rounding times the condition number |x / (1 + x)| of log1p
    at x = -Ki/(P-t), plus its own rounding; then fsum's and exp's."""
    if P - Ki < Kj:
        return Fraction(0)  # exp(-inf) is exactly 0.0
    big, small = max(Ki, Kj), min(Ki, Kj)
    logs = [abs(Fraction(math.log1p(-big / (P - t)))) for t in range(small)]
    err = sum(U * Fraction(big, P - t - big) + LIBM * x for t, x in enumerate(logs))
    return err + U * sum(logs) + LIBM


def _error_bounds(params: ModelParams):
    """Absolute error bounds of p_ij, b_i, edge_prob, E[J] and E[I], kept
    in rationals so that the bounds of subnormal results do not underflow."""
    n, P, K, m = params.n, params.P, params.K, params.m
    a = exact._a_fractions(params)
    alpha = abs(sum(Fraction(x) for x in params.a) - 1) + U  # weight error, then product rounding
    r = [[exact.no_overlap_ratio(P, Ki, Kj) for Kj in K] for Ki in K]
    dp = [[r[i][j] * _ratio_rel_err(P, K[i], K[j]) + U * (1 - r[i][j]) for j in range(m)]
          for i in range(m)]
    b = exact.b_vector(params)
    db = [sum(a[j] * (dp[i][j] + (1 - r[i][j]) * alpha) for j in range(m)) + U * b[i]
          for i in range(m)]
    de = sum(a[i] * (db[i] + b[i] * alpha) for i in range(m)) + U * exact.edge_prob(params)
    # (1-b)^(n-1) = exp((n-1) log1p(-b)): the error of b propagates by the
    # mean value theorem; log1p's and the product's rounding are amplified
    # by n-1 through exp; every rounding may also land on a subnormal
    dterm, term = [], []
    for i in range(m):
        q = 1 - b[i]
        propagated = (n - 1) * (q + db[i]) ** (n - 2) * db[i]
        rounding = 0
        if q > db[i]:
            log_q = abs(Fraction(math.log(q - db[i])))
            rounding = (q ** (n - 1) + propagated) * (3 * U * (n - 1) * log_q + LIBM)
        dterm.append(propagated + rounding + TINY)
        term.append(q ** (n - 1))
    total = sum(a[i] * term[i] for i in range(m))
    dj = n * (sum(a[i] * (dterm[i] + term[i] * alpha) for i in range(m)) + (m + 1) * TINY + U * total)
    di = n * (a[0] * (dterm[0] + term[0] * alpha) + TINY)
    return dp, db, de, dj + U * n * total + TINY, di + U * n * a[0] * term[0] + TINY


def _within(got: float, want: Fraction, bound: Fraction) -> bool:
    return abs(Fraction(got) - want) <= SECOND_ORDER * bound


class TestFloatPathAgainstExact:
    @given(small_params())
    @settings(max_examples=150, deadline=None)
    def test_edge_probabilities(self, params):
        dp, db, de, _, _ = _error_bounds(params)
        q = exact_quantities(params)
        for i in range(params.m):
            for j in range(params.m):
                assert _within(q.p[i][j], exact.pairwise_edge_prob(params, i + 1, j + 1), dp[i][j])
        for got, want, bound in zip(q.b, exact.b_vector(params), db):
            assert _within(got, want, bound)
        assert _within(q.edge_prob, exact.edge_prob(params), de)

    @given(st.one_of(small_params(), small_params(max_P=60, max_n=300)))
    @settings(max_examples=150, deadline=None)
    def test_expected_isolated(self, params):
        *_, dj, di = _error_bounds(params)
        (got_j, got_i), (want_j, want_i) = expected_isolated(params), exact.expected_isolated(params)
        assert _within(got_j, want_j, dj)
        assert _within(got_i, want_i, di)
