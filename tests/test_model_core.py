import math
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
    edge_prob,
    exact_quantities,
    expected_isolated,
    expected_isolated_from_b,
    no_overlap_ratio,
    pairwise_edge_prob,
    ring_sizes_for,
    solve_k1,
    solve_k1_nearest,
)
from rigraph.oracle import enumerate_pair_prob

import exact
from conftest import small_params
from reference_solver import bisect_solve_k1, bisect_solve_k1_nearest, full_sum_no_overlap_ratio


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

    def test_numpy_integers_stored_as_python_ints(self):
        plain = ModelParams(n=5, a=(0.5, 0.5), K=(2, 3), P=7)
        for K in (np.array([2, 3], dtype=np.int32), (np.int64(2), np.int32(3))):
            got = ModelParams(n=np.int64(5), a=(0.5, 0.5), K=tuple(K), P=np.int64(7))
            assert all(type(x) is int for x in (got.n, got.P, *got.K))
            assert got == plain
            assert hash(got) == hash(plain)
            assert got.fingerprint() == plain.fingerprint()

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
    def test_underflow_bound_is_bit_identical_to_full_sum(self, case):
        P, Ki, Kj = case
        want = full_sum_no_overlap_ratio(P, Ki, Kj)
        assert no_overlap_ratio(P, Ki, Kj).hex() == want.hex()
        assert no_overlap_ratio(P, Kj, Ki).hex() == want.hex()


# ---------------------------------------------------------------- edge probabilities

WORKED = ModelParams(n=2, a=(0.5, 0.5), K=(1, 2), P=5)


class TestEdgeProbabilities:
    def test_pairwise_worked_values(self):
        p22 = ModelParams(n=2, a=(0.5, 0.5), K=(2, 2), P=5)
        assert pairwise_edge_prob(p22, 1, 2) == pytest.approx(0.7, abs=1e-12)
        assert float(enumerate_pair_prob(5, 2, 2)) == pytest.approx(0.7, abs=1e-15)
        assert pairwise_edge_prob(WORKED, 1, 1) == pytest.approx(0.2, abs=1e-12)
        assert float(enumerate_pair_prob(5, 1, 1)) == pytest.approx(0.2, abs=1e-15)

    def test_full_ring_always_intersects(self):
        p = ModelParams(n=2, a=(0.5, 0.5), K=(1, 5), P=5)
        assert pairwise_edge_prob(p, 1, 2) == 1.0
        assert pairwise_edge_prob(p, 2, 2) == 1.0

    def test_index_bounds(self):
        with pytest.raises(InvalidParamsError):
            pairwise_edge_prob(WORKED, 0, 1)
        with pytest.raises(InvalidParamsError):
            pairwise_edge_prob(WORKED, 1, 3)

    def test_group_edge_prob_worked_values(self):
        # b_1 = 0.5*0.2 + 0.5*0.4, b_2 = 0.5*0.4 + 0.5*0.7, with the p_ij
        # cross-checked against the subset-pair enumeration oracle
        assert float(enumerate_pair_prob(5, 1, 2)) == pytest.approx(0.4, abs=1e-15)
        assert float(enumerate_pair_prob(5, 2, 2)) == pytest.approx(0.7, abs=1e-15)
        assert b_vector(WORKED) == pytest.approx((0.3, 0.55), abs=1e-12)

    def test_single_group_b_equals_p11(self):
        p = ModelParams(n=4, a=(1.0,), K=(2,), P=6)
        assert b_vector(p)[0] == pytest.approx(pairwise_edge_prob(p, 1, 1), abs=1e-15)

    def test_edge_prob_worked_value(self):
        assert edge_prob(WORKED) == pytest.approx(0.425, abs=1e-12)

    def test_edge_prob_single_group(self):
        p = ModelParams(n=4, a=(1.0,), K=(2,), P=6)
        assert edge_prob(p) == pytest.approx(pairwise_edge_prob(p, 1, 1), abs=1e-15)

    @given(small_params())
    @settings(max_examples=60, deadline=None)
    def test_edge_prob_identity(self, params):
        mix = math.fsum(ai * bi for ai, bi in zip(params.a, b_vector(params)))
        assert abs(edge_prob(params) - mix) <= 1e-12

    @given(small_params())
    @settings(max_examples=60, deadline=None)
    def test_p_matrix_symmetric_and_b_monotone(self, params):
        m = params.m
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                assert pairwise_edge_prob(params, i, j) == pairwise_edge_prob(params, j, i)
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
        bigger = ModelParams(n=params.n, a=params.a, K=tuple(K), P=params.P)
        for r in range(1, params.m + 1):
            for c in range(1, params.m + 1):
                assert pairwise_edge_prob(bigger, r, c) >= pairwise_edge_prob(params, r, c) - 1e-15


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
        with pytest.raises(InvalidParamsError):
            beta_from_b1(1, 0.5)
        with pytest.raises(InvalidParamsError):
            beta(ModelParams(n=1, a=(1.0,), K=(1,), P=2))

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
            except UnachievableError:
                return "unachievable"

        assert outcome(solve_k1) == outcome(bisect_solve_k1)
        assert outcome(solve_k1_nearest) == outcome(bisect_solve_k1_nearest)

    @pytest.mark.parametrize(
        "a, ratios", [((1.0,), (1.0,)), ((0.2, 0.3, 0.5), (1.0, 1.5, 3.0))]
    )
    def test_huge_pool_needs_few_evaluations(self, a, ratios):
        # the plain bisection's first probe, K_1 = P/2, alone sums 5e8 terms
        n, P, target = 10**6, 10**9, 0.0
        before = b_vector.cache_info()
        K = solve_k1(n, P, a, ratios, target)
        after = b_vector.cache_info()
        assert (after.hits + after.misses) - (before.hits + before.misses) <= 8
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

    def test_ring_sizes_round_half_up(self):
        assert ring_sizes_for(3, (1.0, 1.5), 100) == (3, 5)  # 4.5 rounds up
        assert ring_sizes_for(2, (1.0, 2.0), 3) == (2, 3)  # clamped to P

    @pytest.mark.parametrize("target", [-2.0, 5.0, 40.0])
    def test_ratio_above_pool_acts_as_pool(self, target):
        # 1e308 * K_1 overflows to inf; a ratio of P gives the same rings
        args = (100, 1000, (0.5, 0.5))
        assert solve_k1(*args, (1.0, 1e308), target) == solve_k1(*args, (1.0, 1000.0), target)
        assert solve_k1_nearest(*args, (1.0, 1e308), target) == solve_k1_nearest(*args, (1.0, 1000.0), target)


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
        for i in range(params.m):
            for j in range(params.m):
                got = pairwise_edge_prob(params, i + 1, j + 1)
                assert _within(got, exact.pairwise_edge_prob(params, i + 1, j + 1), dp[i][j])
        for got, want, bound in zip(b_vector(params), exact.b_vector(params), db):
            assert _within(got, want, bound)
        assert _within(edge_prob(params), exact.edge_prob(params), de)

    @given(st.one_of(small_params(), small_params(max_P=60, max_n=300)))
    @settings(max_examples=150, deadline=None)
    def test_expected_isolated(self, params):
        *_, dj, di = _error_bounds(params)
        (got_j, got_i), (want_j, want_i) = expected_isolated(params), exact.expected_isolated(params)
        assert _within(got_j, want_j, dj)
        assert _within(got_i, want_i, di)
