import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awsym import (AntiWickFromSymbol, CoherentCombo, ESpaceDivergenceError,
                   GridMismatchError, SampledField, antiwick_pair,
                   antiwick_pair_reference, assemble_antiwick,
                   desmooth_complex, gaussian_1d, make_grid,
                   position_grid_of, radial_gaussian, sample, tensor,
                   weyl_symbol)

from awsym import heat, pairing, quantize
from awsym.gaussians import AnalyticGaussianSum, GaussFactor

from oracles import (antiwick_pair_dense, antiwick_pair_reference_dense,
                     trapezoid_grid)


def unit_symbol(phase):
    return AntiWickFromSymbol(SampledField(phase, np.ones(phase.shape)))


def gaussian_symbol(phase, width=math.pi):
    return AntiWickFromSymbol(sample(radial_gaussian(2, width), phase))


def symbol_or_kernel(kind, phase64, grid64):
    """An operator whose phase grid is phase64: a sampled anti-Wick symbol,
    or the dense kernel assembled from it."""
    op = gaussian_symbol(phase64)
    return op if kind == "antiwick-symbol" \
        else assemble_antiwick(op, grid64.refined())


# a phase grid neither operator of symbol_or_kernel lives on
OTHER_PHASE = make_grid(2, 32, 4.0)


class TestWeylSymbol:
    def test_unit_antiwick_symbol_smooths_to_one(self, phase64):
        sigma = weyl_symbol(unit_symbol(phase64), phase64)
        assert np.max(np.abs(sigma.values - 1.0)) < 1e-10

    def test_ground_projector_closed_form(self, phase64):
        combo = CoherentCombo(((1.0, (0.0, 0.0), (0.0, 0.0)),))
        sigma = weyl_symbol(combo, phase64)
        x, xi = np.meshgrid(phase64.axis_nodes(), phase64.axis_nodes(),
                            indexing="ij")
        ref = 2.0 * np.exp(-2.0 * math.pi * (x**2 + xi**2))
        assert np.max(np.abs(sigma.values - ref)) < 1e-10

    def test_zero_operator(self, phase64):
        op = AntiWickFromSymbol(SampledField(phase64,
                                             np.zeros(phase64.shape)))
        assert np.all(weyl_symbol(op, phase64).values == 0.0)

    def test_dense_kernel_dispatch(self, phase64, grid64):
        op = gaussian_symbol(phase64)
        kernel = assemble_antiwick(op, grid64.refined())
        direct = weyl_symbol(op, phase64)
        via_kernel = weyl_symbol(kernel, phase64)
        q = phase64.npoints // 4
        sl = (slice(q, 3 * q),) * 2
        assert np.max(np.abs(direct.values[sl]
                             - via_kernel.values[sl])) < 1e-6

    @pytest.mark.parametrize("kind", ["antiwick-symbol", "dense-kernel"])
    def test_wrong_phase_grid(self, phase64, grid64, kind):
        op = symbol_or_kernel(kind, phase64, grid64)
        with pytest.raises(GridMismatchError, match="implies phase grid"):
            weyl_symbol(op, OTHER_PHASE)


REF_GRIDS = {"2d-64": make_grid(2, 64, 4.0), "4d-16": make_grid(4, 16, 2.0)}
small_complex = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                   allow_infinity=False)
axis_factors = st.builds(GaussFactor, small_complex, st.integers(0, 2),
                         st.floats(0.5, 4.0), st.floats(-1.0, 1.0))


class TestReference:
    def test_unit_symbol_gaussian(self, phase64):
        # int e^{-pi |X|^2} dX = 1
        val = antiwick_pair_reference(unit_symbol(phase64).symbol,
                                      radial_gaussian(2, math.pi))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_odd_integrand(self, phase64):
        u = tensor(gaussian_1d(math.pi, power=1), gaussian_1d(math.pi))
        val = antiwick_pair_reference(unit_symbol(phase64).symbol, u)
        assert abs(val) < 1e-14

    def test_gaussian_pair(self, phase64):
        # int e^{-2 pi |X|^2} dX = 1/2, cross-checked by dense trapezoid
        val = antiwick_pair_reference(gaussian_symbol(phase64).symbol,
                                      radial_gaussian(2, math.pi))
        xs, h = trapezoid_grid(6.0, 1201)
        dens = np.sum(np.exp(-2 * math.pi * xs**2)) * h
        assert val == pytest.approx(0.5, abs=1e-12)
        assert val == pytest.approx(dens**2, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(REF_GRIDS))
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle(self, name, data, seed):
        grid = REF_GRIDS[name]
        terms = data.draw(st.lists(
            st.tuples(*[axis_factors] * grid.dim), min_size=1, max_size=3))
        u = AnalyticGaussianSum(grid.dim, tuple(terms))
        rng = np.random.default_rng(seed)
        symbol = SampledField(grid, rng.standard_normal(grid.shape)
                              + 1j * rng.standard_normal(grid.shape))
        # and its real part as a float symbol, which takes the real
        # product on the factors' (re, im) view
        for field in (symbol, SampledField(grid, symbol.values.real)):
            value, scale = antiwick_pair_reference_dense(field, u)
            got = antiwick_pair_reference(field, u)
            assert type(got) is complex
            assert abs(got - value) <= 1e-13 * scale

    def test_real_symbol_is_not_cast_to_complex(self, phase256):
        # a complex copy of the float symbol would be twice its size
        symbol = gaussian_symbol(phase256).symbol
        assert symbol.values.dtype == np.float64
        u = tensor(gaussian_1d(2.0, center=0.3, power=1, coeff=0.8 - 0.6j),
                   gaussian_1d(3.0, center=-0.2)) + radial_gaussian(2, 1.5)
        assert traced_peak(lambda: antiwick_pair_reference(symbol, u)) \
            < 0.25 * symbol.values.nbytes

    def test_zero_function(self, phase64):
        symbol = gaussian_symbol(phase64).symbol
        got = antiwick_pair_reference(symbol, AnalyticGaussianSum(2, ()))
        assert type(got) is complex and got == 0j

    @pytest.mark.parametrize("dim", [1, 4])
    def test_dimension_mismatch(self, phase64, dim):
        with pytest.raises(GridMismatchError):
            antiwick_pair_reference(gaussian_symbol(phase64).symbol,
                                    radial_gaussian(dim, math.pi))

    def test_forms_no_grid_sized_array(self, phase256, monkeypatch):
        u = tensor(gaussian_1d(2.0, center=0.3, power=1, coeff=0.8 - 0.6j),
                   gaussian_1d(3.0, center=-0.2)) + radial_gaussian(2, 1.5)
        symbol = gaussian_symbol(phase256).symbol
        grid_bytes = phase256.size * 16
        dense = traced_peak(lambda: antiwick_pair_reference_dense(symbol, u))
        assert dense > grid_bytes     # the unit is the one that bites

        def refuse(*args):
            raise AssertionError("the reference sampled u on the grid")
        monkeypatch.setattr(AnalyticGaussianSum, "eval_axes", refuse)
        monkeypatch.setattr(pairing, "sample", refuse)
        assert traced_peak(lambda: antiwick_pair_reference(symbol, u)) \
            < 0.05 * grid_bytes


def traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAntiwickPair:
    def test_unit_symbol_integrates_test_function(self, phase64):
        res = antiwick_pair(unit_symbol(phase64), radial_gaussian(2, math.pi))
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.method == "complex-shift"
        assert not res.flags
        assert res.residual < 1e-8
        assert np.isfinite(res.quadrature_error_estimate)

    def test_zero_operator(self, phase64):
        op = AntiWickFromSymbol(SampledField(phase64,
                                             np.zeros(phase64.shape)))
        res = antiwick_pair(op, radial_gaussian(2, math.pi))
        assert abs(res.value) < 1e-14

    def test_gaussian_gaussian_half(self, phase64):
        res = antiwick_pair(gaussian_symbol(phase64),
                            radial_gaussian(2, math.pi))
        assert res.value == pytest.approx(0.5, abs=1e-6)

    def test_consistency_family_against_reference(self, phase64, grid64):
        symbols = [radial_gaussian(2, math.pi),
                   tensor(gaussian_1d(1.5, center=0.5), gaussian_1d(2.0)),
                   tensor(gaussian_1d(2.0, power=2, coeff=0.6),
                          gaussian_1d(1.0, center=-0.4))]
        tests = [radial_gaussian(2, math.pi),
                 tensor(gaussian_1d(2.0, center=0.3, power=1),
                        gaussian_1d(3.0)),
                 tensor(gaussian_1d(5.0), gaussian_1d(2.5, power=1,
                                                      coeff=1.1))]
        for fsym in symbols:
            op = AntiWickFromSymbol(sample(fsym, phase64))
            kernel = assemble_antiwick(op, grid64.refined())
            for u in tests:
                res = antiwick_pair(kernel, u)
                ref = antiwick_pair_reference(op.symbol, u)
                assert abs(res.value - ref) < 1e-3 * (1.0 + abs(ref))
                assert not res.flags

    def test_linearity(self, phase64):
        op1 = gaussian_symbol(phase64)
        op2 = AntiWickFromSymbol(sample(
            tensor(gaussian_1d(2.0), gaussian_1d(1.2)), phase64))
        op_sum = AntiWickFromSymbol(SampledField(
            phase64, op1.symbol.values + op2.symbol.values))
        u1 = radial_gaussian(2, math.pi)
        u2 = tensor(gaussian_1d(2.2), gaussian_1d(3.0, power=1))

        in_a = antiwick_pair(op_sum, u1).value \
            - antiwick_pair(op1, u1).value - antiwick_pair(op2, u1).value
        assert abs(in_a) < 1e-10

        in_u = antiwick_pair(op1, u1 + 2.5 * u2).value \
            - antiwick_pair(op1, u1).value \
            - 2.5 * antiwick_pair(op1, u2).value
        assert abs(in_u) < 1e-10

    def test_real_symbol_real_test_function_real_value(self, phase64):
        res = antiwick_pair(gaussian_symbol(phase64),
                            radial_gaussian(2, math.pi))
        assert abs(res.value.imag) < 1e-12

    def test_method_agreement_within_l1_weighted_residuals(self, phase64):
        op = gaussian_symbol(phase64)
        u = radial_gaussian(2, 2.0)
        r1 = antiwick_pair(op, u, method="complex-shift")
        r2 = antiwick_pair(op, u, method="fourier-regularized")
        f_l1 = float(np.sum(np.abs(op.symbol.values))
                     * op.symbol.grid.cell_volume)
        budget = f_l1 * (r1.residual + r2.residual) + 1e-12
        assert abs(r1.value - r2.value) <= budget

    def test_coherent_combo_path(self, phase64):
        # The ground projector's anti-Wick symbol is the point mass at the
        # origin (its Weyl symbol 2 e^{-2 pi |X|^2} desmooths to delta),
        # so the pairing evaluates the test function there: u(0) = 1.
        combo = CoherentCombo(((1.0, (0.0, 0.0), (0.0, 0.0)),))
        u = radial_gaussian(2, math.pi)
        res = antiwick_pair(combo, u, phase_grid=phase64)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_error_estimate_on_ten_point_grid(self):
        # the stride-two subgrid of 10 points has 5, an odd count that no
        # Grid accepts; the estimate needs only its cell volume (2h)^2 = 1
        phase = make_grid(2, 10, 2.5)
        op, u = gaussian_symbol(phase), radial_gaussian(2, math.pi)
        res = antiwick_pair(op, u)
        sigma = weyl_symbol(op, phase).values[::2, ::2]
        phi = desmooth_complex(u, phase, 3.0, 64).result.values[::2, ::2]
        assert res.quadrature_error_estimate == pytest.approx(
            abs(res.value - np.sum(sigma * phi)), rel=1e-12)

    def test_two_dimensional_kernel_pairs_as_product(self):
        # a tensor symbol assembles to kron(M1, M2), and a tensor test
        # function desmooths axis by axis, so the n = 2 pairing of the
        # dense kernel is the product of the two 1-d pairings
        sym = [(gaussian_1d(1.5, center=0.5),
                gaussian_1d(2.0, power=1, coeff=0.8 + 0.6j)),
               (gaussian_1d(2.5, center=-0.25), gaussian_1d(1.2, center=1.0))]
        test = [(gaussian_1d(3.0, center=0.3), gaussian_1d(3.0, power=1)),
                (gaussian_1d(3.0, center=-0.2, coeff=0.5j),
                 gaussian_1d(3.0))]

        def pair(f, u, dim):
            phase = make_grid(dim, 16, 2.0)
            op = AntiWickFromSymbol(sample(f, phase))
            kernel = assemble_antiwick(op, position_grid_of(phase).refined())
            return antiwick_pair(kernel, u)

        whole = pair(tensor(sym[0][0], sym[1][0], sym[0][1], sym[1][1]),
                     tensor(test[0][0], test[1][0], test[0][1], test[1][1]),
                     4)
        parts = [pair(tensor(*f), tensor(*u), 2) for f, u in zip(sym, test)]
        ref = parts[0].value * parts[1].value
        assert abs(whole.value - ref) <= 1e-15 * abs(ref)
        assert whole.flags == parts[0].flags == parts[1].flags == ()

    @pytest.mark.parametrize("method",
                             ["complex-shift", "fourier-regularized"])
    @pytest.mark.parametrize("kind", ["antiwick-symbol", "dense-kernel"])
    def test_wrong_phase_grid(self, phase64, grid64, kind, method):
        op = symbol_or_kernel(kind, phase64, grid64)
        with pytest.raises(GridMismatchError, match="implies phase grid"):
            antiwick_pair(op, radial_gaussian(2, math.pi), method=method,
                          phase_grid=OTHER_PHASE)

    def test_fourier_route_needs_a_phase_grid_for_combo(self):
        combo = CoherentCombo(((1.0, (0.0, 0.0), (0.0, 0.0)),))
        with pytest.raises(ValueError, match="pass phase_grid"):
            antiwick_pair(combo, radial_gaussian(2, math.pi),
                          method="fourier-regularized")

    def test_closed_form_needs_no_phase_grid(self, phase64):
        # the closed form reads no grid: with and without one the result
        # is the same bit for bit, and a given grid is still checked
        combo = CoherentCombo(((0.6 - 0.2j, (0.3, -0.5), (-0.1, 0.4)),
                               (1.1j, (0.0, 0.2), (0.7, 0.0))))
        u = tensor(gaussian_1d(2.0, center=0.3, power=1, coeff=0.8 - 0.6j),
                   gaussian_1d(3.0, center=-0.2))
        bare = antiwick_pair(combo, u)
        gridded = antiwick_pair(combo, u, phase_grid=phase64)
        assert bare == gridded
        assert bare.method == "closed-form"
        with pytest.raises(GridMismatchError):
            antiwick_pair(combo, u, phase_grid=make_grid(4, 16, 2.0))


PHASE4 = make_grid(4, 16, 2.0)
PHASE2 = make_grid(2, 64, 4.0)

TESTS_2D = {
    "centred": radial_gaussian(2, math.pi),
    "power1-offcentre": tensor(gaussian_1d(2.0, center=0.3, power=1),
                               gaussian_1d(3.0, center=-0.45)),
    "power2-complex": tensor(gaussian_1d(2.5, center=-0.2, power=2,
                                         coeff=0.6 - 0.8j),
                             gaussian_1d(1.8, power=1, coeff=1.1j)),
    "sum": tensor(gaussian_1d(1.5, center=0.5, power=1, coeff=0.77),
                  gaussian_1d(2.0))
    + tensor(gaussian_1d(4.0, coeff=0.3 + 0.9j),
             gaussian_1d(2.5, center=0.25, power=2, coeff=0.12 - 0.46j))
    + tensor(gaussian_1d(5.0, center=-0.6), gaussian_1d(3.3, coeff=-0.5)),
}
TEST_4D = tensor(gaussian_1d(3.0, center=0.3), gaussian_1d(2.5, power=1),
                 gaussian_1d(3.5, center=-0.2, coeff=0.5j),
                 gaussian_1d(3.0, power=2)) \
    + tensor(*(gaussian_1d(4.0, center=0.1, coeff=0.3) for _ in range(4)))


def random_symbol(phase, seed):
    """Complex noise under a Gaussian envelope, centred off the origin."""
    rng = np.random.default_rng(seed)
    env = sample(tensor(*(gaussian_1d(0.3, center=0.2 * (a + 1))
                          for a in range(phase.dim))), phase).values
    return SampledField(phase, env * (rng.standard_normal(phase.shape)
                                      + 1j * rng.standard_normal(phase.shape)))


def operators(phase):
    """An anti-Wick symbol, its assembled dense kernel and a coherent
    combination, each paired on ``phase``."""
    op = AntiWickFromSymbol(random_symbol(phase, phase.npoints))
    kernel = assemble_antiwick(op, position_grid_of(phase).refined())
    n = phase.dim // 2
    combo = CoherentCombo(((1.0, (0.1,) * 2 * n, (0.1,) * 2 * n),
                           (0.4 - 0.3j, (0.3, -0.2) * n, (-0.1, 0.2) * n)))
    return {"antiwick": op, "kernel": kernel, "combo": combo}


OPS2 = operators(PHASE2)
OPS4 = operators(PHASE4)
CASES = [(kind, name) for kind in OPS2 for name in TESTS_2D]


class TestFactoredPairAgainstDense:
    """The complex-shift pairing on 1-d factors against the dense route it
    replaced: value to 1e-14 relative, estimate to 1e-15 (1 + |value|),
    residual to 1e-15 absolute or 1 % relative.  Coherent combinations
    take the closed form, which must lie within the dense route's own
    stride-two estimate of the dense value."""

    @staticmethod
    def check(op, u, phase):
        res = antiwick_pair(op, u, phase_grid=phase)
        value, residual, estimate = antiwick_pair_dense(op, u, phase)
        if isinstance(op, CoherentCombo):
            assert abs(res.value - value) <= estimate
            assert (res.method, res.residual, res.quadrature_error_estimate,
                    res.flags) == ("closed-form", 0.0, 0.0, ())
            return
        assert abs(res.value - value) <= 1e-14 * abs(value)
        assert abs(res.quadrature_error_estimate - estimate) \
            <= 1e-15 * (1.0 + abs(value))
        assert abs(res.residual - residual) <= max(1e-15, 0.01 * residual)
        assert res.method == "complex-shift"
        assert res.flags == ()

    @pytest.mark.parametrize("kind, name", CASES,
                             ids=[f"{k}-{n}" for k, n in CASES])
    def test_phase_plane(self, kind, name):
        self.check(OPS2[kind], TESTS_2D[name], PHASE2)

    @pytest.mark.parametrize("kind", list(OPS4))
    def test_four_dimensional_phase_grid(self, kind):
        self.check(OPS4[kind], TEST_4D, PHASE4)

    def test_desk_grid_pool(self, phase256):
        op = AntiWickFromSymbol(random_symbol(phase256, 3))
        for u in TESTS_2D.values():
            self.check(op, u, phase256)

    def test_desk_grid_kernel_pool(self, phase256):
        op = AntiWickFromSymbol(random_symbol(phase256, 3))
        kernel = assemble_antiwick(op, position_grid_of(phase256).refined())
        for u in TESTS_2D.values():
            self.check(kernel, u, phase256)


REAL_TESTS = {
    **{name: u for name, u in TESTS_2D.items()
       if u.has_real_coefficients()},
    "real-sum": tensor(gaussian_1d(1.5, center=0.5, power=1, coeff=0.77),
                       gaussian_1d(2.0))
    + tensor(gaussian_1d(5.0, center=-0.6), gaussian_1d(3.3, coeff=-0.5)),
}


def real_operators(phase):
    """A float64 anti-Wick symbol, the real part of ``random_symbol``, and
    the dense kernel assembled from it."""
    op = AntiWickFromSymbol(SampledField(
        phase, random_symbol(phase, phase.npoints).values.real))
    return {"antiwick": op,
            "kernel": assemble_antiwick(op, position_grid_of(phase).refined())}


REAL_OPS2 = real_operators(PHASE2)
REAL_CASES = [(kind, name) for kind in REAL_OPS2 for name in REAL_TESTS]


def contract_dtypes(monkeypatch) -> list:
    """Spy on ``pairing._contract``: the (field, terms) dtypes of each call."""
    seen, contract = [], pairing._contract

    def spy(field, terms):
        seen.append((field.dtype, terms.dtype))
        return contract(field, terms)

    monkeypatch.setattr(pairing, "_contract", spy)
    return seen


class TestRealTestFunctions:
    """A test function whose coefficients are all real pairs through
    float64 factors: with a float symbol in one real product, with a
    kernel (whose xi factors are transformed) through complex terms; both
    against the dense route at the tolerances of
    ``TestFactoredPairAgainstDense``."""

    @pytest.mark.parametrize("kind, name", REAL_CASES,
                             ids=[f"{k}-{n}" for k, n in REAL_CASES])
    def test_matches_dense_route(self, kind, name, monkeypatch):
        seen = contract_dtypes(monkeypatch)
        TestFactoredPairAgainstDense.check(REAL_OPS2[kind], REAL_TESTS[name],
                                           PHASE2)
        dtype = np.float64 if kind == "antiwick" else np.complex128
        assert seen == [(dtype, dtype)]

    @pytest.mark.parametrize("name", sorted(REAL_TESTS))
    def test_reference_contracts_real_columns(self, name, monkeypatch):
        symbol, u = REAL_OPS2["antiwick"].symbol, REAL_TESTS[name]
        value, scale = antiwick_pair_reference_dense(symbol, u)
        seen = contract_dtypes(monkeypatch)
        got = antiwick_pair_reference(symbol, u)
        assert seen == [(np.float64, np.float64)]
        assert type(got) is complex
        assert abs(got - value) <= 1e-13 * scale

    @pytest.mark.parametrize("dim, npts", [(2, 64), (4, 16)])
    def test_real_product_matches_pairs_of_rows(self, dim, npts):
        rng = np.random.default_rng(dim)
        field = rng.standard_normal((npts,) * dim)
        terms = rng.standard_normal((3, dim, npts))
        got = pairing._contract(field, terms)
        ref = pairing._contract(field, terms.astype(complex))
        assert got.dtype == np.float64 and ref.dtype == np.complex128
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestZeroFunction:
    """The zero function (a sum with no terms) pairs to 0 with residual 0
    on every operator route, as an empty coherent combination does."""

    @pytest.mark.parametrize("phase, ops", [(PHASE2, OPS2), (PHASE4, OPS4)],
                             ids=["1d", "2d"])
    def test_pairs_to_zero(self, phase, ops):
        u = AnalyticGaussianSum(phase.dim, ())
        for op in ops.values():
            res = antiwick_pair(op, u, phase_grid=phase)
            assert (res.value, res.residual, res.quadrature_error_estimate,
                    res.flags) == (0.0, 0.0, 0.0, ())


class TestFactoredPairStaysFactored:
    def test_no_dense_smooth_and_no_grid_sized_phi(self, monkeypatch):
        # the factors are smoothed as one (term, axis, node) batch, so
        # neither an anti-Wick nor a kernel pair calls the field-level
        # smooth, and the traced peak stays well under one grid-sized
        # complex array
        phase = make_grid(2, 1024, 16.0)
        op = AntiWickFromSymbol(random_symbol(phase, 5))
        u = TESTS_2D["sum"]
        ref = antiwick_pair(op, u)
        ref_kernel = antiwick_pair(OPS2["kernel"], u)
        dense_calls, batch_shapes = [], []
        real_smooth, real_batch = heat.smooth, heat.smooth_factors

        def spy(f):
            dense_calls.append(f.grid)
            return real_smooth(f)

        def batch_spy(factors, g):
            batch_shapes.append(factors.shape)
            return real_batch(factors, g)

        for module in (heat, pairing):
            monkeypatch.setattr(module, "smooth", spy)
            monkeypatch.setattr(module, "smooth_factors", batch_spy)
        tracemalloc.start()
        try:
            res = antiwick_pair(op, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert antiwick_pair(OPS2["kernel"], u) == ref_kernel
        assert res == ref
        assert dense_calls == []
        # anti-Wick: fine and coarse in one call; kernel: the fine factors
        terms = len(u.terms)
        assert batch_shapes == [(2 * terms, 2, phase.npoints),
                                (terms, 2, PHASE2.npoints)]
        assert peak < 0.25 * phase.size * 16


class TestPairFormsNoWeylSymbol:
    def test_kernel_and_combo_pairs_skip_the_dense_symbol(self, monkeypatch):
        # a kernel pair contracts its midpoint slices and a combination
        # pair is the closed form: neither transforms nor densifies
        ops = {"kernel": OPS2["kernel"], "combo": OPS2["combo"]}
        u = TESTS_2D["sum"]
        ref = {k: antiwick_pair(op, u, phase_grid=PHASE2)
               for k, op in ops.items()}
        calls = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        for name in ("weyl_from_kernel", "kernel_from_coherent"):
            wrapped = spy(name, getattr(quantize, name))
            monkeypatch.setattr(quantize, name, wrapped)
            monkeypatch.setattr(pairing, name, wrapped)
        for kind, op in ops.items():
            res = antiwick_pair(op, u, phase_grid=PHASE2)
            assert res.value == ref[kind].value
        assert calls == []
        # the spies see the dense route, which still forms sigma
        weyl_symbol(OPS2["combo"], PHASE2)
        assert calls == ["kernel_from_coherent", "weyl_from_kernel"]


def closed_form_literal(c, point_x, point_y, u):
    """The coherent pairing formula written out: overlap, phase and u at
    the complex point, each factor evaluated by ``GaussFactor.__call__``."""
    n = len(point_x) // 2
    x, xi = np.array(point_x[:n]), np.array(point_x[n:])
    y, eta = np.array(point_y[:n]), np.array(point_y[n:])
    z = np.concatenate([(x + y) / 2 + 0.5j * (xi - eta),
                        (xi + eta) / 2 + 0.5j * (y - x)])
    dist2 = np.sum((x - y)**2 + (xi - eta)**2)
    return c * np.exp(-math.pi * dist2 / 2
                      + 1j * math.pi * (y @ xi - x @ eta)) * u(*z)


class TestClosedForm:
    U2 = TESTS_2D["sum"]

    def test_equal_points_evaluate_the_test_function(self):
        # the symbol of |Psi_X><Psi_X| is the point mass at X
        for u, point in ((self.U2, (0.4, -0.7)), (TEST_4D, (0.3, -0.2,
                                                           0.1, 0.5))):
            res = antiwick_pair(CoherentCombo(((1.0, point, point),)), u,
                                phase_grid=make_grid(u.dim, 16, 2.0))
            ref = complex(u(*point))
            assert abs(res.value - ref) <= 1e-15 * abs(ref)
            assert (res.method, res.residual, res.quadrature_error_estimate,
                    res.flags) == ("closed-form", 0.0, 0.0, ())

    def test_matches_the_written_out_formula(self):
        terms = ((0.7 - 0.2j, (0.3, -1.1), (-0.4, 0.6)),
                 (1.3j, (1.0, 0.5), (0.2, -0.8)))
        res = antiwick_pair(CoherentCombo(terms), self.U2,
                            phase_grid=PHASE2)
        ref = sum(closed_form_literal(c, x, y, self.U2) for c, x, y in terms)
        assert abs(res.value - ref) <= 1e-14 * abs(ref)

    def test_product_combo_pairs_as_product(self):
        # a product of n = 1 combinations against a tensor test function
        # pairs to the product of the two n = 1 closed forms
        combos = [((0.8 + 0.3j, (0.2, -0.5), (-0.6, 0.4)),
                   (-0.4j, (1.0, 0.1), (0.3, 0.9))),
                  ((1.1, (-0.3, 0.7), (0.5, 0.2)),)]
        axes = [(gaussian_1d(2.0, center=0.3, power=1)
                 + gaussian_1d(3.5, coeff=0.4j),
                 gaussian_1d(1.5, center=-0.2, power=2, coeff=0.6)),
                (gaussian_1d(2.5, center=0.1),
                 gaussian_1d(4.0, power=1) + gaussian_1d(1.0, coeff=-0.3))]
        parts = [antiwick_pair(CoherentCombo(c), tensor(*a),
                               phase_grid=PHASE2).value
                 for c, a in zip(combos, axes)]
        product = tuple((c1 * c2, (x1[0], x2[0], x1[1], x2[1]),
                         (y1[0], y2[0], y1[1], y2[1]))
                        for c1, x1, y1 in combos[0]
                        for c2, x2, y2 in combos[1])
        whole = antiwick_pair(
            CoherentCombo(product),
            tensor(axes[0][0], axes[1][0], axes[0][1], axes[1][1]),
            phase_grid=PHASE4)
        ref = parts[0] * parts[1]
        assert abs(whole.value - ref) <= 1e-15 * abs(ref)

    def test_far_apart_points_stay_finite(self):
        # |X - Y| = 40: the overlap e^{-pi |X-Y|^2/2} and u's growth
        # e^{a |X-Y|^2/4} along the imaginary shift each leave double
        # range; folded into one exponent they give a normal number
        u = tensor(gaussian_1d(6.0, center=0.1), gaussian_1d(6.0))
        point_x, point_y = (0.0, 20.0), (0.0, -20.0)
        res = antiwick_pair(CoherentCombo(((1.0, point_x, point_y),)), u,
                            phase_grid=PHASE2)
        # the exponent written out: -pi 40^2/2 - 6 (0 + 20i - 0.1)^2 - 6 0^2
        expo = -800.0 * math.pi - 6.0 * (20j - 0.1)**2
        ref = complex(np.exp(expo))
        assert np.isfinite(res.value) and res.value != 0.0
        assert abs(res.value - ref) <= 1e-12 * abs(ref)

    def test_wide_test_function_diverges(self):
        combo = CoherentCombo(((1.0, (0.0, 0.0), (0.5, 0.0)),))
        with pytest.raises(ESpaceDivergenceError):
            antiwick_pair(combo, radial_gaussian(2, 2 * math.pi),
                          phase_grid=PHASE2)

    @pytest.mark.parametrize("strip, nodes", [(math.nan, 64), (3.0, 3)])
    def test_bad_strip_parameters_still_rejected(self, strip, nodes):
        combo = CoherentCombo(((1.0, (0.0, 0.0), (0.0, 0.0)),))
        with pytest.raises(ValueError):
            antiwick_pair(combo, self.U2, phase_grid=PHASE2,
                          strip_halfwidth=strip, y_nodes=nodes)

    def test_empty_combination_pairs_to_zero(self):
        res = antiwick_pair(CoherentCombo(()), self.U2, phase_grid=PHASE2)
        assert res.value == 0.0 and res.method == "closed-form"

    @pytest.mark.parametrize("method", ["complex-shift",
                                        "fourier-regularized"])
    def test_dimension_mismatch(self, method):
        combo = CoherentCombo(((1.0, (0.0,) * 4, (0.0,) * 4),))
        with pytest.raises(GridMismatchError):
            antiwick_pair(combo, self.U2, method=method, phase_grid=PHASE2)


DESK = make_grid(2, 256, 8.0)
coords = st.floats(-1.5, 1.5)
points = st.tuples(coords, coords)
test_factors = st.builds(
    lambda a, b, p, c: gaussian_1d(a, center=b, power=p, coeff=c),
    st.floats(0.5, 4.0), st.floats(-1.0, 1.0), st.integers(0, 2),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                       allow_infinity=False))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(c=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                            allow_nan=False, allow_infinity=False),
       point_x=points, point_y=points, fx=test_factors, fxi=test_factors)
def test_closed_form_matches_dense_route(c, point_x, point_y, fx, fxi):
    combo = CoherentCombo(((c, point_x, point_y),))
    u = tensor(fx, fxi)
    res = antiwick_pair(combo, u, phase_grid=DESK)
    value, _, _ = antiwick_pair_dense(combo, u, DESK)
    assert abs(res.value - value) <= 1e-12 * (1.0 + abs(value))


class TestIllPosedness:
    def test_complex_shift_rejects_wide_widths(self, phase64):
        with pytest.raises(ESpaceDivergenceError):
            antiwick_pair(unit_symbol(phase64), radial_gaussian(2, 7.0))

    def test_fourier_route_flags_and_discloses(self, phase64):
        res = antiwick_pair(unit_symbol(phase64), radial_gaussian(2, 7.0),
                            method="fourier-regularized")
        assert "e-space-divergent" in res.flags

    def test_unregularized_residual_blows_up_on_desk_grid(self, phase256):
        # with the threshold below the rounding floor nothing is cut and
        # the recomputed residual exposes the amplified noise
        res = antiwick_pair(unit_symbol(phase256), radial_gaussian(2, 7.0),
                            method="fourier-regularized",
                            rel_threshold=1e-300)
        assert res.residual > 1e-2
        assert "excessive-residual" in res.flags
