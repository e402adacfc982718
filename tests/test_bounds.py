"""Bound formulas: pinned values, monotonicity, minimality, and the surface."""

from fractions import Fraction

import pytest

from zfpkit.bounds import (
    BoundDomainError,
    BoundInputs,
    InfeasibleAccuracyError,
    b_beta,
    b_beta_exact,
    beta_for_accuracy,
    componentwise_bound,
    epsilon,
    k_beta,
    k_beta_exact,
    k_l,
    k_l_inv,
    kbeta_surface,
    rate_lower_bound,
)

TOY = BoundInputs(d=1, k=13, q=9, beta=7)


class TestEpsilon:
    def test_values(self):
        assert epsilon(1) == 1
        assert epsilon(9) == Fraction(1, 256)
        assert epsilon(53) == Fraction(1, 1 << 52)  # double machine epsilon
        assert epsilon(0) == 2


class TestTransformConstants:
    def test_forward(self):
        assert k_l(1) == Fraction(7, 4)
        assert k_l(2) == Fraction(21, 4)

    def test_inverse(self):
        assert k_l_inv(1) == Fraction(5, 2)
        assert k_l_inv(3) == Fraction(35, 2)


class TestKBeta:
    def test_toy_value(self):
        exact = k_beta_exact(TOY)
        # independent evaluation of the closed form with plain Fractions
        e_k, e_q, e_b = Fraction(1, 4096), Fraction(1, 256), Fraction(1, 64)
        bracket = (Fraction(8, 3) * e_b
                   + e_q * (1 + Fraction(8, 3) * e_b) * (Fraction(7, 4) * (1 + e_q) + 1))
        assert exact == Fraction(15, 4) * ((1 + e_k) * bracket + e_k)
        assert abs(k_beta(TOY) - 0.19928) < 5e-6

    def test_regime_guard(self):
        with pytest.raises(BoundDomainError):
            k_beta(BoundInputs(d=1, k=13, q=9, beta=10))
        k_beta(BoundInputs(d=1, k=13, q=9, beta=10), allow_out_of_regime=True)

    def test_strictly_decreasing_in_beta(self):
        vals = [k_beta_exact(BoundInputs(d=2, k=24, q=30, beta=b)) for b in range(0, 29)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_strictly_increasing_in_d(self):
        vals = [k_beta_exact(BoundInputs(d=d, k=53, q=62, beta=32), True)
                for d in range(1, 6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_single_precision_sanity(self):
        assert k_beta(BoundInputs(d=2, k=24, q=30, beta=32), allow_out_of_regime=True) < 1

    def test_determinism(self):
        a = k_beta_exact(BoundInputs(d=3, k=53, q=62, beta=40))
        b = k_beta_exact(BoundInputs(d=3, k=53, q=62, beta=40))
        assert a == b


class TestBBeta:
    def test_never_below_k_beta(self):
        for d in (1, 2, 3):
            for beta in range(0, 40, 3):
                inp = BoundInputs(d=d, k=24, q=30, beta=beta)
                assert b_beta_exact(inp) >= k_beta_exact(inp, True)

    def test_structure(self):
        inp = BoundInputs(d=1, k=13, q=9, beta=9)
        e_k, e_q, e_b = Fraction(1, 4096), Fraction(1, 256), Fraction(1, 256)
        bracket = (Fraction(8, 3) * e_b
                   + e_q * (1 + Fraction(8, 3) * e_b) * (Fraction(7, 4) * (1 + e_q) + 1))
        expected = Fraction(5, 2) * e_q * (1 + e_k) * bracket + k_beta_exact(inp, True)
        assert b_beta_exact(inp) == expected
        assert b_beta(inp) == pytest.approx(float(expected))


class TestComponentwise:
    def test_rho_zero_equals_k_beta(self):
        inp = BoundInputs(d=1, k=13, q=9, beta=7, e_max=5, e_min=5)
        assert componentwise_bound(inp) == k_beta(TOY)

    def test_rho_seven_scales(self):
        inp = BoundInputs(d=1, k=13, q=9, beta=7, e_max=7, e_min=0)
        assert componentwise_bound(inp) == pytest.approx(128 * k_beta(TOY))

    def test_missing_exponents(self):
        with pytest.raises(BoundDomainError):
            componentwise_bound(TOY)


class TestBetaForAccuracy:
    def test_near_infinite_precision_analog(self):
        # with k and q enormous the formula degenerates to 2**beta >= 20
        inp = BoundInputs(d=1, k=53, q=4000, beta=0, b=0, e_max=0)
        # epsilon terms at k=53 still matter a little; compare against the
        # asymptotic value for a clearly feasible target
        assert beta_for_accuracy(inp) == 5

    def test_result_satisfies_target_and_is_minimal(self):
        for d in (1, 2, 3):
            for b in (4, 10, 20):
                for e_max in (0, 3, 11):
                    inp = BoundInputs(d=d, k=53, q=62, beta=0, b=b, e_max=e_max)
                    beta = beta_for_accuracy(inp)
                    target = Fraction(1, 1 << (b + e_max))
                    assert k_beta_exact(BoundInputs(d=d, k=53, q=62, beta=beta), True) <= target
                    if beta > 0:
                        worse = k_beta_exact(BoundInputs(d=d, k=53, q=62, beta=beta - 1), True)
                        assert worse > target

    def test_feasibility_monotone_in_b(self):
        # feasible at b implies feasible at b-1
        for b in range(1, 40):
            inp = BoundInputs(d=2, k=53, q=62, beta=0, b=b, e_max=0)
            try:
                beta_for_accuracy(inp)
            except InfeasibleAccuracyError:
                continue
            beta_for_accuracy(BoundInputs(d=2, k=53, q=62, beta=0, b=b - 1, e_max=0))

    def test_infeasible_names_limit(self):
        inp = BoundInputs(d=1, k=13, q=9, beta=0, b=20, e_max=0)
        with pytest.raises(InfeasibleAccuracyError, match="k = 13"):
            beta_for_accuracy(inp)

    def test_beta_beyond_the_planes_of_a_block_is_infeasible(self):
        # K_beta reaches 2**-17 at d = 3, q = 30 only with beta = 33 > q + 2
        inp = BoundInputs(d=3, k=24, q=30, beta=0, b=17, e_max=0)
        with pytest.raises(InfeasibleAccuracyError, match=r"beta = 33.*\(q = 30\)"):
            beta_for_accuracy(inp)
        assert beta_for_accuracy(BoundInputs(d=3, k=24, q=30, beta=0, b=16, e_max=0)) <= 32


class TestRateBound:
    def test_examples(self):
        assert rate_lower_bound(7, 1, 8) == 10
        assert rate_lower_bound(7, 1, 0) == 8  # beta + 1
        assert rate_lower_bound(16, 2, 11) == Fraction(16 * 16 + 11, 16) + 1

    def test_domain(self):
        with pytest.raises(BoundDomainError):
            rate_lower_bound(-1, 1, 8)


class TestSurface:
    def test_shape_and_monotonicity(self):
        rows = kbeta_surface(range(1, 6), range(1, 65), 53, 62)
        assert len(rows) == 320
        by_d = {}
        for d, beta, v in rows:
            by_d.setdefault(d, []).append((beta, v))
        for d, series in by_d.items():
            vals = [v for _, v in sorted(series)]
            assert all(a > b for a, b in zip(vals, vals[1:])), f"not decreasing at d={d}"
        for beta in (1, 16, 64):
            col = [v for d, b, v in rows if b == beta]
            assert all(a < b for a, b in zip(col, col[1:])), f"not increasing at beta={beta}"


class TestFloatRange:
    def test_float_forms_refuse_values_beyond_float64(self):
        from zfpkit.bounds import componentwise_bound_exact

        wide = BoundInputs(d=1025, k=53, q=62, beta=8)
        assert k_beta_exact(wide, True) > 2 ** 1024  # the exact forms still answer
        with pytest.raises(BoundDomainError, match=r"^K_beta = 10\*\*878\.827 lies beyond"):
            k_beta(wide, True)
        with pytest.raises(BoundDomainError, match=r"^B_beta = 10\*\*"):
            b_beta(BoundInputs(d=1025, k=53, q=62, beta=63))
        spread = BoundInputs(d=1, k=53, q=62, beta=8, e_max=9999, e_min=0)
        assert componentwise_bound_exact(spread, True) > 2 ** 1024
        with pytest.raises(BoundDomainError, match=r"^the componentwise bound = 10\*\*"):
            componentwise_bound(spread, True)

    def test_underflow_still_reads_zero(self):
        assert k_beta(BoundInputs(d=1, k=2000, q=2000, beta=2000)) == 0.0

    @pytest.mark.parametrize("field", ["d", "k", "q", "beta", "e_max", "e_min", "b", "b_e"])
    def test_fields_beyond_the_limit_refused(self, field):
        from zfpkit.bounds import FIELD_LIMIT

        base = dict(d=1, k=53, q=62, beta=8, e_max=0, e_min=0, b=0, b_e=11)
        BoundInputs(**dict(base, **{field: FIELD_LIMIT}))
        with pytest.raises(BoundDomainError, match=rf"^{field} must lie within \[-65536, 65536\]"):
            BoundInputs(**dict(base, **{field: FIELD_LIMIT + 1}))
        if field in ("e_max", "e_min", "b"):
            with pytest.raises(BoundDomainError, match=rf"^{field} must lie within"):
                BoundInputs(**dict(base, **{field: -FIELD_LIMIT - 1}))
