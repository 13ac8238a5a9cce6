import math

import numpy as np
import pytest

from awsym import (WeightParams, e_space_norm, gaussian_1d,
                   gevrey_order_estimate, gs_constant, hermite_bound_margin,
                   hermite_l2_log_margin, hermite_sup, holo_bound_check,
                   phi_weight, psi_weight)
from awsym.gaussians import (AnalyticGaussianSum, GaussFactor,
                             gaussian_derivative_values, tensor)
from awsym.gsnorm import (MAX_HERMITE_ORDER, _axis_extent, _hermite_table,
                          e_space_divergent, strip_rule, strip_sum)
from oracles import (e_space_norm_per_node, gaussian_derivative_recurrence,
                     gs_constant_brute_force, hermite_function_reference)


def grower():
    """e^{+z^2}: entire, but blows up along the real axis."""
    return AnalyticGaussianSum(1, ((GaussFactor(1.0, 0, -1.0, 0.0),),))


def constant_one():
    return AnalyticGaussianSum(1, ((GaussFactor(1.0, 0, 0.0, 0.0),),))


class TestWeights:
    def test_phi_value(self):
        # (lambda/2) |x/A|^{1/lambda} at lambda=1/2, A=1, x=1: 0.25 * 1^2
        w = WeightParams(0.5, 0.25, 1.0)
        assert phi_weight(1.0, w) == pytest.approx(0.25)

    def test_psi_value(self):
        # 2 (1-mu) |A y|^{1/(1-mu)} at mu=1/4, A=1, y=1: 1.5
        w = WeightParams(0.5, 0.25, 1.0)
        assert psi_weight(1.0, w) == pytest.approx(1.5)

    def test_phi_at_origin(self):
        w = WeightParams(1.7, 0.45, 2.3)
        assert phi_weight(0.0, w) == 0.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            WeightParams(0.0, 0.25, 1.0)
        with pytest.raises(ValueError):
            WeightParams(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            WeightParams(0.5, 0.25, 0.0)


class TestGSConstant:
    def test_gaussian_is_finite_and_stabilizes(self):
        u = gaussian_1d(math.pi)
        est10 = gs_constant(u, 0.5, 0.5, 10, 10)
        est20 = gs_constant(u, 0.5, 0.5, 20, 20)
        assert np.isfinite(est10.a_est)
        assert est20.a_est <= 1.25 * est10.a_est

    def test_constant_reports_unbounded(self):
        est = gs_constant(constant_one(), 0.5, 0.5, 6, 6)
        assert est.unbounded
        assert est.a_est == math.inf

    def test_monotone_in_exponents(self):
        u = gaussian_1d(math.pi)
        tight = gs_constant(u, 0.5, 0.5, 10, 10)
        loose = gs_constant(u, 1.0, 1.0, 10, 10)
        assert loose.a_est <= tight.a_est

    def test_cumulative_record_nondecreasing(self):
        est = gs_constant(gaussian_1d(math.pi), 0.5, 0.5, 8, 8)
        rec = np.asarray(est.a_by_total_order)
        assert np.all(np.diff(rec) >= 0.0)

    def test_derivative_sups_against_hermite_recurrence(self):
        # independent oracle: sup |d^m e^{-pi x^2}| = (2 pi)^{m/2} sup|f_m|
        from awsym.gaussians import sum_derivative_values
        u = gaussian_1d(math.pi)
        xs = np.linspace(-6, 6, 20001)
        for m in (3, 7, 12):
            mine = np.max(np.abs(sum_derivative_values(u, [m], [xs])))
            oracle = (2 * math.pi) ** (m / 2.0) * hermite_sup(m)
            assert mine == pytest.approx(oracle, rel=1e-5)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            gs_constant(gaussian_1d(1.0), 0.5, 0.5, 50, 10)

    @pytest.mark.parametrize("lam, mu", [(math.nan, 0.5), (0.5, math.nan),
                                         (math.inf, 0.5)])
    def test_exponent_outside_positive_reals_is_value_error(self, lam, mu):
        # NaN compares False against 0, so a sign test alone lets it through
        with pytest.raises(ValueError,
                           match="lambda and mu must be positive and finite"):
            gs_constant(gaussian_1d(math.pi), lam, mu, 4, 4)

    @pytest.mark.parametrize("max_alpha, max_beta", [(-1, 5), (5, -2)])
    def test_negative_order_is_value_error(self, max_alpha, max_beta):
        with pytest.raises(ValueError,
                           match="max_alpha and max_beta must be >= 0"):
            gs_constant(gaussian_1d(1.0), 0.5, 0.5, max_alpha, max_beta)

    @pytest.mark.parametrize("u,lam,mu,max_alpha,max_beta,points", [
        (gaussian_1d(math.pi), 0.5, 0.5, 10, 10, 4097),
        (gaussian_1d(1.5, power=1) + gaussian_1d(math.pi, coeff=0.4),
         0.5, 0.45, 16, 16, 1025),
        (tensor(gaussian_1d(2.0, center=0.3), gaussian_1d(3.0, power=1)),
         0.5, 0.5, 10, 10, 65),
        (tensor(gaussian_1d(2.0, center=0.3, coeff=1 + 2j),
                gaussian_1d(3.0, power=1))
         + tensor(gaussian_1d(1.7, power=2, coeff=0.3 - 1j),
                  gaussian_1d(2.5, center=-0.4)), 0.7, 0.4, 6, 8, 49),
        (tensor(tensor(gaussian_1d(2.0), gaussian_1d(3.0, power=1)),
                gaussian_1d(1.5, center=0.2, coeff=0.5j)), 0.5, 0.5, 4, 4,
         17),
    ])
    def test_matches_per_pair_full_grid_loop(self, u, lam, mu, max_alpha,
                                             max_beta, points):
        est = gs_constant(u, lam, mu, max_alpha, max_beta,
                          points_per_axis=points)
        a_est, by_order = gs_constant_brute_force(u, lam, mu, max_alpha,
                                                  max_beta, points)
        assert est.a_est == a_est
        assert est.a_by_total_order == by_order


class TestHoloBound:
    def test_member_passes(self):
        u = gaussian_1d(math.pi)
        est = gs_constant(u, 0.5, 0.45, 16, 16)
        res = holo_bound_check(u, WeightParams(0.5, 0.45, est.a_est),
                               4.0, 2.5)
        assert res.ok
        assert res.k_est >= 1.0

    def test_grower_fails(self):
        res = holo_bound_check(grower(), WeightParams(0.5, 0.45, 1.0),
                               4.0, 2.5)
        assert not res.ok

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_function(self, dim):
        # no terms at all, and one zero-coefficient term, read the same
        w = WeightParams(0.5, 0.45, 1.0)
        empty = holo_bound_check(AnalyticGaussianSum(dim, ()), w, 4.0, 2.5)
        zero = holo_bound_check(
            0.0 * tensor(*[gaussian_1d(1.0)] * dim), w, 4.0, 2.5)
        assert empty == zero == (0.0, True, 0.0)

    def test_real_axis_slice_matches_scan(self):
        # y -> 0 reduces the check to sup e^{phi(x)} |u(x)|
        u = gaussian_1d(math.pi)
        w = WeightParams(0.5, 0.45, 2.0)
        res = holo_bound_check(u, w, 4.0, 1e-9)
        xs = np.linspace(-4, 4, 201)
        scan = np.max(np.exp(phi_weight(xs[None, :], w))
                      * np.abs(u(xs.astype(complex))))
        assert res.k_est == pytest.approx(scan, rel=1e-6)


class TestESpace:
    def test_standard_gaussian_value_and_stability(self):
        # analytically: int e^{-2 pi y^2} e^{-pi(x^2 - y^2)} dx dy = 1
        r3 = e_space_norm(gaussian_1d(math.pi), 0, 3.0)
        r4 = e_space_norm(gaussian_1d(math.pi), 0, 4.0)
        assert not r3.divergent
        assert r3.value == pytest.approx(1.0, abs=1e-10)
        assert abs(r4.value - r3.value) <= 0.01 * r3.value

    def test_divergence_flag_above_two_pi(self):
        r = e_space_norm(gaussian_1d(2 * math.pi + 0.1), 0, 3.0)
        assert r.divergent
        assert r.value == math.inf
        assert e_space_divergent(gaussian_1d(2 * math.pi + 0.1))

    def test_zero_function(self):
        u = 0.0 * gaussian_1d(1.0)
        r = e_space_norm(u, 0, 3.0)
        assert r.value == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_sum_is_float_zero(self, dim):
        r = e_space_norm(AnalyticGaussianSum(dim, ()), 0, 3.0)
        assert type(r.value) is float
        assert r.value == 0.0 and not r.divergent

    def test_moment_weight_and_cap(self):
        r0 = e_space_norm(gaussian_1d(1.0), 0, 3.0)
        r2 = e_space_norm(gaussian_1d(1.0), 2, 3.0)
        assert r2.value > r0.value
        with pytest.raises(ValueError):
            e_space_norm(gaussian_1d(1.0), 17, 3.0)

    def test_negative_moment_is_value_error(self):
        with pytest.raises(ValueError,
                           match=r"moment must lie in \[0, 16\], got -3"):
            e_space_norm(gaussian_1d(1.0), -3)

    @pytest.mark.parametrize("width", [1.0, math.pi, 5.0, 6.0])
    @pytest.mark.parametrize("strip", [3.0, 4.0])
    @pytest.mark.parametrize("moment", [0, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_equals_per_node_loop(self, dim, moment, strip, width):
        u = gaussian_1d(width, center=0.3, power=1, coeff=0.8 - 0.1j) \
            + gaussian_1d(2.0, coeff=0.5)
        if dim == 2:
            u = tensor(u, gaussian_1d(width, center=-0.2, power=2))
        value = e_space_norm(u, moment, strip).value
        ref = e_space_norm_per_node(u, moment, strip)
        assert abs(value - ref) <= 2e-15 * ref

    @pytest.mark.parametrize("width", [1.0, math.pi, 5.0, 6.0])
    @pytest.mark.parametrize("moment", [0, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_real_sum_half_rule_equals_per_node_loop(self, dim, moment,
                                                     width):
        # real coefficients: the 65 nodes y >= 0, against all 129
        u = gaussian_1d(width, center=0.3, power=1, coeff=0.8) \
            + gaussian_1d(2.0, coeff=-0.5)
        if dim == 2:
            u = tensor(u, gaussian_1d(width, center=-0.2, power=2))
        assert u.has_real_coefficients()
        value = e_space_norm(u, moment, 3.0).value
        ref = e_space_norm_per_node(u, moment, 3.0)
        assert abs(value - ref) <= 2e-15 * ref

    @pytest.mark.parametrize("width", [1.0, math.pi, 5.0, 6.0])
    @pytest.mark.parametrize("moment", [0, 2])
    @pytest.mark.parametrize("kind", ["single", "tensor"])
    def test_complex_factor_half_rule_equals_per_node_loop(self, kind,
                                                           moment, width):
        # one factor's modulus is even in y whatever its coefficient: a
        # single term, and each strip sum of a tensor product, take the
        # 65 nodes y >= 0, against all 129
        u = gaussian_1d(width, center=0.3, power=1, coeff=0.8 - 0.1j)
        if kind == "tensor":
            u = tensor(u, gaussian_1d(width, center=-0.2, power=2)) \
                + tensor(gaussian_1d(2.0, coeff=0.5j), gaussian_1d(1.0))
        assert not u.has_real_coefficients()
        value = e_space_norm(u, moment, 3.0).value
        ref = e_space_norm_per_node(u, moment, 3.0)
        assert abs(value - ref) <= 2e-15 * ref

    def test_complex_1d_sum_keeps_the_whole_rule(self):
        # |u(x + iy)| is not even in y here: the mean of |u| and |ubar| on
        # the nodes y >= 0 matches every node of the whole rule, u alone is
        # far off
        u = gaussian_1d(2.0, coeff=1j) + gaussian_1d(3.0, center=0.5)
        ref = e_space_norm_per_node(u, 0, 3.0)
        assert abs(e_space_norm(u, 0, 3.0).value - ref) <= 2e-15 * ref
        start, step, wy = strip_rule(3.0, 129)
        ext = _axis_extent(u, 0, 0)
        xs = np.linspace(-ext, ext, 2049)
        half = strip_sum([t[0] for t in u.terms], xs, start, step,
                         wy * (xs[1] - xs[0]),
                         lambda slabs: np.sum(np.abs(slabs.sum(axis=0)),
                                              axis=1))
        assert abs(half - ref) > 0.1 * ref

    @pytest.mark.parametrize("strip", [0.0, -1.0, math.nan, math.inf])
    def test_strip_halfwidth_validation(self, strip):
        with pytest.raises(ValueError, match="strip half-width"):
            e_space_norm(gaussian_1d(1.0), 0, strip)


class TestHermite:
    def test_order_zero(self):
        assert hermite_sup(0) == pytest.approx(1.0, abs=1e-12)
        bound = math.sqrt(2.0) * (2 * math.pi) ** 0.25
        assert hermite_bound_margin(0) == pytest.approx(bound, rel=1e-12)

    def test_order_one(self):
        # sup |x e^{-x^2/2}| = e^{-1/2} at x = 1
        assert hermite_sup(1) == pytest.approx(math.exp(-0.5), rel=1e-6)
        assert hermite_bound_margin(1) > 1.0

    def test_margins_up_to_sixty(self):
        assert all(hermite_bound_margin(m) >= 1.0 for m in range(61))

    def test_l2_margin_nonnegative(self):
        assert all(hermite_l2_log_margin(m) >= 0.0 for m in (0, 1, 5, 20, 60))

    def test_l2_margin_order_zero_value(self):
        # ||e^{-x^2/2}||^2 = sqrt(pi); margin log(sqrt(2 pi)/sqrt(pi))
        assert hermite_l2_log_margin(0) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-10)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            hermite_sup(201)
        with pytest.raises(ValueError):
            hermite_l2_log_margin(201)

    def test_sups_and_l2_against_hermite_e(self):
        sups, sq_norms = hermite_function_reference(30)
        for m in range(31):
            scale = math.sqrt(math.factorial(m))
            assert hermite_sup(m) == pytest.approx(sups[m] * scale, rel=1e-6)
            assert hermite_l2_log_margin(m) == pytest.approx(
                0.5 * math.log(2 * math.pi) - math.log(sq_norms[m]),
                abs=1e-10)

    def test_low_order_table_is_a_prefix(self):
        sups, norms = _hermite_table(MAX_HERMITE_ORDER)
        low_sups, low_norms = _hermite_table(8)
        assert low_sups == sups[:9]
        assert low_norms == norms[:9]

    @pytest.mark.parametrize("m", [60, 128, 197, 200])
    def test_high_order_sups_match_per_order_recurrence(self, m):
        # the former per-order path: its own recurrence on its own grid
        t = np.linspace(0.0, math.sqrt(2.0 * m) + 5.0, 40001)
        g = gaussian_derivative_recurrence(m, t)
        assert hermite_sup(m) == pytest.approx(float(np.max(np.abs(g))),
                                               rel=1e-4)

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 40, 97])
    def test_shared_pass_repeats_per_order_recurrence(self, m):
        # same update, same rounding: every kept order agrees bit for bit
        t = np.linspace(-12.0, 12.0, 3001)
        keep = min(m + 1, 4)
        got = gaussian_derivative_values(m, t, keep=keep)
        for offset, values in enumerate(got):
            want = gaussian_derivative_recurrence(m - keep + 1 + offset, t)
            assert values.tobytes() == want.tobytes()


class TestGevrey:
    def test_gaussian_order_half(self):
        fit = gevrey_order_estimate(gaussian_1d(0.25), 40)
        assert fit.s_est <= 0.6
        assert fit.fit_residual < 0.05
        assert not fit.degenerate

    def test_smoothed_sum(self):
        f = gaussian_1d(1.5, center=0.3) + gaussian_1d(3.0, power=1,
                                                       coeff=0.5)
        fit = gevrey_order_estimate(f.smoothed(), 40)
        assert fit.s_est <= 0.6
        assert fit.fit_residual < 0.05

    def test_scale_invariance(self):
        f1 = gevrey_order_estimate(gaussian_1d(0.25), 30)
        f2 = gevrey_order_estimate(7.3 * gaussian_1d(0.25), 30)
        assert f1.s_est == pytest.approx(f2.s_est, abs=1e-9)

    def test_degenerate_flag(self):
        assert gevrey_order_estimate(constant_one(), 30).degenerate

    def test_m_max_cap(self):
        with pytest.raises(ValueError):
            gevrey_order_estimate(gaussian_1d(1.0), 61)

    @pytest.mark.parametrize("dim, axis", [(1, 1), (1, -1), (2, 2)])
    def test_axis_out_of_range_is_value_error(self, dim, axis):
        u = gaussian_1d(1.0) if dim == 1 \
            else tensor(gaussian_1d(1.0), gaussian_1d(2.0))
        with pytest.raises(ValueError,
                           match=rf"axis must lie in \[0, {dim}\), got {axis}"):
            gevrey_order_estimate(u, 30, axis=axis)


class TestProofChainInequalities:
    """The scalar bounds used to derive the strip estimate."""

    def test_sup_power_over_factorial(self):
        # sup_k x^k / k! >= e^{x/2} / 2 for x > 0
        ks = np.arange(0, 400)
        log_fact = np.cumsum(np.log(np.maximum(ks, 1)))
        for x in np.logspace(-2, 2, 41):
            sup_log = np.max(ks * math.log(x) - log_fact)
            assert sup_log >= 0.5 * x - math.log(2.0) - 1e-12

    def test_power_series_bound(self):
        # sum_k (x^k/k!)^nu <= C e^{2 nu x}, C = 1/(1 - 2^{-nu})
        ks = np.arange(0, 400)
        log_fact = np.cumsum(np.log(np.maximum(ks, 1)))
        for nu in (0.55, 1.0):
            c = 1.0 / (1.0 - 2.0**-nu)
            for x in np.logspace(-2, 2, 41):
                total = np.sum(np.exp(nu * (ks * math.log(x) - log_fact)))
                assert total <= c * math.exp(2 * nu * x) * (1 + 1e-12)
