import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from awsym import gaussian_1d, tensor
from awsym.gaussians import (AnalyticGaussianSum, GaussFactor,
                             OverflowGuardError, factor_derivative_values,
                             sum_derivative_values, sum_derivatives)

from oracles import heat_convolution_quadrature


def test_evaluation_matches_formula():
    u = gaussian_1d(2.0, center=0.5, power=3, coeff=1.5 - 0.25j)
    z = np.array([0.0, 1.0 + 0.5j, -2.3])
    w = z - 0.5
    assert_allclose(u(z), (1.5 - 0.25j) * w**3 * np.exp(-2.0 * w * w))


def test_derivative_closure():
    # d/dz e^{-pi z^2} = -2 pi z e^{-pi z^2}
    u = gaussian_1d(math.pi)
    du = u.derivative(0)
    z = np.linspace(-2, 2, 41)
    assert_allclose(du(z), -2 * math.pi * z * np.exp(-math.pi * z**2),
                    atol=1e-13)


def test_derivative_matches_finite_differences():
    u = gaussian_1d(1.3, center=0.2, power=2) + gaussian_1d(2.0, coeff=0.4j)
    du = u.derivative(0)
    z = np.linspace(-1.5, 1.5, 11)
    h = 1e-6
    fd = (u(z + h) - u(z - h)) / (2 * h)
    assert_allclose(du(z), fd, atol=1e-7)


def test_tensor_product_eval():
    u = tensor(gaussian_1d(1.0), gaussian_1d(2.0, power=1))
    assert u.dim == 2
    x, y = 0.3, -0.8
    assert u(np.array(x), np.array(y)) == pytest.approx(
        math.exp(-x * x) * y * math.exp(-2 * y * y))


def test_term_growth_stays_bounded_under_derivatives():
    u = gaussian_1d(math.pi)
    for _ in range(10):
        u = u.derivative(0)
    # merged representation: one term per surviving power
    assert len(u.terms) <= 11


def test_merged_sums_repeated_keys_in_first_seen_order():
    u = gaussian_1d(1.0, coeff=2.0) + gaussian_1d(2.0, power=1) \
        + gaussian_1d(3.0) + gaussian_1d(1.0, coeff=0.5j) \
        + gaussian_1d(3.0, coeff=-1.0)
    terms = u.merged().terms
    assert [(t[0].coeff, t[0].power, t[0].width) for t in terms] \
        == [(2.0 + 0.5j, 0, 1.0), (1.0, 1, 2.0)]


def test_smoothed_against_convolution_oracle():
    u = gaussian_1d(1.0, center=0.5, power=2, coeff=1.3) \
        + gaussian_1d(3.0, power=1)
    sm = u.smoothed()
    xs = np.array([-1.0, 0.0, 0.4, 1.7])
    oracle = heat_convolution_quadrature(lambda v: u(v.astype(complex)), xs)
    assert_allclose(sm(xs.astype(complex)), oracle, atol=1e-10)


def test_smoothed_pure_gaussian_formula():
    # e^{-a x^2} -> sqrt(2 pi/(a + 2 pi)) e^{-a' x^2}, a' = 2 pi a/(a + 2 pi)
    a = 2 * math.pi
    sm = gaussian_1d(a, coeff=math.sqrt(2.0)).smoothed()
    z = np.linspace(-2, 2, 9)
    assert_allclose(sm(z.astype(complex)), np.exp(-math.pi * z**2),
                    atol=1e-14)


def test_shifted_values_overflow_guard():
    f = GaussFactor(1.0, 0, 30.0, 0.0)
    with pytest.raises(OverflowGuardError):
        f.shifted_values(np.array([0.0]), 5.0)   # e^{30*25} overflows


def test_shifted_values_column_rows_match_scalar_calls():
    # a y column against an x row is one scalar-y call per row, bit for
    # bit, and a scalar-y call is still the literal formula
    f = GaussFactor(0.7 - 0.2j, 2, 2.5, 0.3)
    xs = np.linspace(-8.0, 8.0, 256, endpoint=False)
    ys = np.linspace(-3.0, 3.0, 64)
    batched = f.shifted_values(xs, ys[:, None],
                               -2 * math.pi * ys[:, None] * ys[:, None])
    for y, row in zip(ys, batched):
        lw = -2 * math.pi * y * y
        w = xs - 0.3 + 1j * y
        literal = (0.7 - 0.2j) * w**2 * np.exp(-2.5 * w * w + lw)
        scalar = f.shifted_values(xs, y, lw)
        assert np.array_equal(scalar, literal)
        assert np.array_equal(row, scalar)


def test_shifted_values_column_overflow_guard():
    # only the last row overflows; the guard still fires, with the same
    # type as a scalar call, and names that row's shift
    f = GaussFactor(1.0, 0, 30.0, 0.0)
    ys = np.array([0.0, 1.0, 5.0])[:, None]
    with pytest.raises(OverflowGuardError, match=r"shift=5\.0,"):
        f.shifted_values(np.array([0.0, 0.5]), ys, np.zeros_like(ys))


def test_shifted_values_weight_folding():
    # width close to 2 pi: e^{a y^2} alone is huge, folded value is tame
    f = GaussFactor(1.0, 0, 6.0, 0.0)
    y = 9.0
    vals = f.shifted_values(np.array([0.0]), y, -2 * math.pi * y * y)
    assert np.isfinite(vals).all()
    assert abs(vals[0]) == pytest.approx(math.exp((6.0 - 2 * math.pi) * 81.0),
                                         rel=1e-12)


def test_log_abs_matches_direct():
    u = gaussian_1d(1.0, power=1) + gaussian_1d(0.5, coeff=-2.0)
    z = np.linspace(-2, 2, 21) + 0.3j
    direct = np.log(np.abs(u(z)))
    assert_allclose(u.log_abs(z), direct, atol=1e-12)


def test_log_abs_handles_growth():
    grower = AnalyticGaussianSum(1, ((GaussFactor(1.0, 0, -1.0, 0.0),),))
    z = np.array([30.0 + 0.0j])
    assert grower.log_abs(z)[0] == pytest.approx(900.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_log_abs_of_empty_sum_is_minus_inf(dim):
    z = np.linspace(-2, 2, 5) + 0.3j
    coords = [z] + [z[:, None]] * (dim - 1)
    out = AnalyticGaussianSum(dim, ()).log_abs(*coords)
    assert out.shape == np.broadcast_shapes(*(c.shape for c in coords))
    assert np.all(out == -np.inf)


def test_stable_derivative_values_match_symbolic():
    factor = GaussFactor(1.2, 2, 1.7, 0.3)
    dn = AnalyticGaussianSum(1, ((factor,),))
    xs = np.linspace(-3, 3, 101)
    stable = factor_derivative_values(factor, 5, xs)
    assert stable.shape == (6, 101)
    for n in range(6):
        assert_allclose(stable[n], dn(xs.astype(complex)).real, atol=1e-10)
        dn = dn.derivative(0)


def test_sum_derivatives_match_symbolic_chain_2d():
    u = (tensor(gaussian_1d(1.3, center=0.2, power=1, coeff=0.8 - 0.5j),
                gaussian_1d(2.1, center=-0.4))
         + tensor(gaussian_1d(2.7, coeff=0.3j),
                  gaussian_1d(1.6, center=0.1, power=2)))
    xs = np.linspace(-2.0, 2.0, 9)
    ys = np.linspace(-1.5, 1.5, 7)
    betas = [(0, 0), (2, 0), (1, 3), (0, 4), (3, 2)]
    grid = (xs[:, None].astype(complex), ys[None, :].astype(complex))
    for beta, stable in zip(betas, sum_derivatives(u, betas, [xs, ys])):
        d = u
        for axis, order in enumerate(beta):
            for _ in range(order):
                d = d.derivative(axis)
        assert_allclose(stable, d(*grid), rtol=1e-10, atol=1e-10)


def test_sum_derivatives_rejects_bad_orders():
    u = tensor(gaussian_1d(1.0), gaussian_1d(2.0))
    xs = np.linspace(-1, 1, 5)
    with pytest.raises(ValueError):
        sum_derivatives(u, [(1, 0), (2,)], [xs, xs])
    with pytest.raises(ValueError):
        sum_derivatives(u, [(1, -1)], [xs, xs])
    with pytest.raises(ValueError):
        sum_derivative_values(u, [1, 1], [xs])


def test_sum_derivative_values_2d():
    u = tensor(gaussian_1d(1.0), gaussian_1d(2.0))
    ux = u.derivative(0).derivative(1)
    xs = np.linspace(-1, 1, 5)
    direct = ux(xs[:, None].astype(complex), xs[None, :].astype(complex))
    stable = sum_derivative_values(u, [1, 1], [xs, xs])
    assert_allclose(stable, direct, atol=1e-12)


def test_gaussian_decay_validation():
    const = AnalyticGaussianSum(1, ((GaussFactor(1.0, 0, 0.0, 0.0),),))
    assert not const.has_gaussian_decay()
    with pytest.raises(ValueError):
        const.require_gaussian_decay()
    with pytest.raises(ValueError):
        const.smoothed()


def test_algebra_and_merge():
    u = gaussian_1d(1.0) + gaussian_1d(1.0)
    assert len(u.terms) == 1
    assert u(np.array(0.0)) == pytest.approx(2.0)
    v = u - 2.0 * gaussian_1d(1.0)
    assert v.is_zero()
