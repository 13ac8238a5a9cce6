import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from awsym import (AntiWickFromSymbol, CoherentCombo, DenseKernel,
                   GridMismatchError, SampledField, apply_operator,
                   assemble_antiwick, coherent_state, gaussian_1d,
                   identity_kernel, inner, kernel_from_coherent,
                   kernel_from_weyl, make_grid, radial_gaussian, sample,
                   tensor, weyl_from_kernel)
from awsym import quantize
from awsym.cli import _pairing_families
from awsym.quantize import BAND_HALFWIDTH, _read_pairs
from oracles import (antiwick_kernel_full_band, antiwick_matrix_element,
                     coherent_state_func, contract_on_pairs_loop,
                     kernel_from_weyl_literal, weyl_from_kernel_literal)


def rank_one_gaussian_sigma(grid):
    """2 e^{-2 pi (x^2 + xi^2)} on a phase grid."""
    x, xi = np.meshgrid(grid.axis_nodes(), grid.axis_nodes(), indexing="ij")
    return 2.0 * np.exp(-2.0 * math.pi * (x**2 + xi**2))


class TestCoherentState:
    def test_ground_state(self, grid256):
        psi = coherent_state((0.0, 0.0), grid256)
        u = grid256.axis_nodes()
        assert_allclose(psi.values,
                        2.0**0.25 * np.exp(-math.pi * u**2), atol=1e-15)

    def test_pure_translation(self, grid256):
        psi = coherent_state((1.0, 0.0), grid256)
        u = grid256.axis_nodes()
        assert_allclose(psi.values,
                        2.0**0.25 * np.exp(-math.pi * (u - 1.0) ** 2),
                        atol=1e-15)

    def test_modulated_norm(self, grid256):
        psi = coherent_state((1.0, 3.0), grid256)
        assert inner(psi, psi).real == pytest.approx(1.0, abs=1e-10)

    def test_point_dimension_checked(self, grid256):
        with pytest.raises(ValueError):
            coherent_state((0.0, 0.0, 0.0), grid256)


class TestCoherentComboChecks:
    GOOD = (0.5j, (0.1, 0.2), (-0.3, 0.4))

    @pytest.mark.parametrize("bad", [
        (complex(math.nan, 0.0), (0.0, 0.0), (0.0, 0.0)),
        (complex(1.0, math.inf), (0.0, 0.0), (0.0, 0.0)),
        (1.0, (math.nan, 0.0), (0.0, 0.0)),
        (1.0, (0.0, 0.0), (0.0, -math.inf))],
        ids=["c-nan", "c-inf", "X-nan", "Y-inf"])
    def test_non_finite_term_is_named(self, bad):
        with pytest.raises(ValueError, match="term 1: c, X and Y must be "
                                             "finite"):
            CoherentCombo((self.GOOD, bad))

    def test_mixed_dimensions_are_named(self):
        with pytest.raises(ValueError, match="term 1: phase dimension 4 "
                                             "differs from term 0's 2"):
            CoherentCombo((self.GOOD, (1.0, (0.0,) * 4, (0.0,) * 4)))

    def test_unequal_point_lengths(self):
        with pytest.raises(ValueError, match="term 0: phase points"):
            CoherentCombo(((1.0, (0.0, 0.0), (0.0,) * 4),))


class TestKernelFromCoherent:
    def test_single_ground_projector(self, grid64):
        combo = CoherentCombo(((1.0, (0.0, 0.0), (0.0, 0.0)),))
        k = kernel_from_coherent(combo, grid64)
        u = grid64.axis_nodes()
        ref = math.sqrt(2.0) * np.exp(-math.pi * (u[:, None] ** 2
                                                  + u[None, :] ** 2))
        assert_allclose(k.matrix, ref, atol=1e-14)

    def test_empty_combo_zero_kernel(self, grid64):
        k = kernel_from_coherent(CoherentCombo(()), grid64)
        assert np.all(k.matrix == 0.0)

    def test_offdiagonal_outer_product(self, grid64):
        combo = CoherentCombo(((1j, (1.0, 0.0), (0.0, 0.0)),))
        k = kernel_from_coherent(combo, grid64)
        left = coherent_state((1.0, 0.0), grid64).values
        right = coherent_state((0.0, 0.0), grid64).values
        assert_allclose(k.matrix, 1j * np.outer(left, np.conj(right)),
                        atol=1e-14)

    @pytest.mark.parametrize("dim, npoints, half_extent, point", [
        (1, 256, 8.0, (1.0, 2.0)),
        (2, 16, 2.0, (0.3, -0.2, 0.5, -0.25))], ids=["1d-512", "2d-32"])
    def test_projector_is_exactly_hermitian(self, dim, npoints, half_extent,
                                            point):
        g = make_grid(dim, npoints, half_extent).refined()
        k = kernel_from_coherent(CoherentCombo(((1.0, point, point),)),
                                 g).matrix
        assert np.array_equal(k, k.conj().T)
        psi = coherent_state(point, g).values.ravel()
        assert route_rel_err(k, np.outer(psi, psi.conj())) <= 1e-15


class TestAssemble:
    def test_zero_symbol(self, phase64, grid64):
        op = AntiWickFromSymbol(SampledField(phase64,
                                             np.zeros(phase64.shape)))
        k = assemble_antiwick(op, grid64)
        assert np.all(k.matrix == 0.0)

    def test_unit_symbol_is_identity_over_h(self, phase256, grid256):
        op = AntiWickFromSymbol(SampledField(phase256,
                                             np.ones(phase256.shape)))
        k = assemble_antiwick(op, grid256)
        eye = np.eye(grid256.size) / grid256.spacing
        interior = slice(64, 192)
        dev = np.max(np.abs((k.matrix - eye)[interior, interior]))
        assert dev < 1e-6

    def test_unit_symbol_reproduces_vectors(self, phase256, grid256):
        op = AntiWickFromSymbol(SampledField(phase256,
                                             np.ones(phase256.shape)))
        k = assemble_antiwick(op, grid256)
        for u in (gaussian_1d(math.pi), gaussian_1d(2.0, center=1.0),
                  gaussian_1d(1.0, power=2, coeff=0.7)):
            f = sample(u, grid256)
            out = apply_operator(k, f)
            assert (out - f).l2_norm() / f.l2_norm() < 1e-6

    def test_gaussian_symbol_against_double_quadrature(self, phase64,
                                                       grid64):
        op = AntiWickFromSymbol(sample(radial_gaussian(2, math.pi), phase64))
        kernels = [assemble_antiwick(op, g)
                   for g in (grid64, grid64.refined())]
        for point in ((0.0, 0.0), (0.75, -1.25)):
            oracle = antiwick_matrix_element(
                lambda x0, xis: np.exp(-math.pi * (x0**2 + xis**2)),
                coherent_state_func(*point), coherent_state_func(*point),
                phase_extent=4.0, phase_n=161, pos_extent=8.0, pos_n=2001)
            for k in kernels:
                psi = coherent_state(point, k.grid)
                got = inner(apply_operator(k, psi), psi)
                assert abs(got - oracle) / abs(oracle) < 1e-6

    def test_self_adjoint_for_real_symbol(self, phase64, grid64):
        op = AntiWickFromSymbol(sample(radial_gaussian(2, 1.5), phase64))
        k = assemble_antiwick(op, grid64)
        assert np.max(np.abs(k.matrix - k.matrix.conj().T)) < 1e-12

    def test_positive_symbol_gives_psd_matrix(self):
        phase = make_grid(2, 128, 8.0)
        pos = make_grid(1, 128, 8.0)
        op = AntiWickFromSymbol(sample(radial_gaussian(2, 1.0), phase))
        k = assemble_antiwick(op, pos)
        eigs = np.linalg.eigvalsh(k.matrix)
        assert eigs.min() > -1e-8

    def test_translation_covariance(self, phase64, grid64):
        # shifting F by (x0, 0) conjugates the operator by translation
        shift = 8  # x0 = shift * h
        f0 = sample(radial_gaussian(2, 2.0), phase64)
        k0 = assemble_antiwick(AntiWickFromSymbol(f0), grid64)
        shifted = SampledField(phase64, np.roll(f0.values, shift, axis=0))
        k1 = assemble_antiwick(AntiWickFromSymbol(shifted), grid64)
        rolled = np.roll(np.roll(k0.matrix, shift, axis=0), shift, axis=1)
        interior = slice(16, 48)
        assert np.max(np.abs((k1.matrix - rolled)[interior, interior])) < 1e-6

    def test_grid_dimension_mismatch(self, phase64, grid256):
        op = AntiWickFromSymbol(SampledField(phase64,
                                             np.ones(phase64.shape)))
        with pytest.raises(GridMismatchError):
            assemble_antiwick(op, make_grid(2, 64, 4.0))


class TestBandLimitedAssembly:
    """assemble_antiwick against the literal full-band quadrature, and the
    strided pair read of _read_pairs against a plain loop."""

    SYMBOLS = {
        "unit": None,
        "off-centre complex": tensor(
            gaussian_1d(1.5, center=0.75, coeff=0.8 + 0.6j),
            gaussian_1d(2.0, center=-0.5)),
        "power-1": tensor(gaussian_1d(2.0, center=-0.25, power=1),
                          gaussian_1d(1.2, center=0.5, power=1)),
        # mass near both box edges, where the window's T/2 cut and its
        # clip to the phase box both act
        "edges": tensor(gaussian_1d(2.0, center=3.25, coeff=0.6 - 0.8j),
                        gaussian_1d(1.5, center=0.5, power=1))
        + tensor(gaussian_1d(2.5, center=-3.5),
                 gaussian_1d(1.0, center=-0.75, coeff=0.3j)),
    }

    @pytest.mark.parametrize("name", sorted(SYMBOLS))
    @pytest.mark.parametrize("refined", [False, True],
                             ids=["64", "128"])
    def test_matches_full_band_quadrature(self, phase64, grid64, name,
                                          refined):
        fsym = self.SYMBOLS[name]
        symbol = SampledField(phase64, np.ones(phase64.shape)) \
            if fsym is None else sample(fsym, phase64)
        g = grid64.refined() if refined else grid64
        got = assemble_antiwick(AntiWickFromSymbol(symbol), g).matrix
        ref = antiwick_kernel_full_band(symbol, g)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        nodes = g.axis_nodes()
        far = np.abs(np.subtract.outer(nodes, nodes)) > BAND_HALFWIDTH
        assert far.any() and np.all(got[far] == 0.0)

    def test_midpoints_beyond_the_phase_box(self):
        # phase box [-2, 2), position box [-8, 8): midpoint blocks more
        # than T/2 outside the phase box have no node to sum over
        phase = make_grid(2, 16, 2.0)
        symbol = sample(tensor(gaussian_1d(1.5, center=0.5, coeff=1j),
                               gaussian_1d(2.0, center=-0.25)), phase)
        g = make_grid(1, 64, 8.0)
        got = assemble_antiwick(AntiWickFromSymbol(symbol), g).matrix
        ref = antiwick_kernel_full_band(symbol, g)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        # a block spans 1.75 here, so these lie in blocks with no node
        mids = np.add.outer(g.axis_nodes(), g.axis_nodes()) / 2.0
        far = np.abs(mids) > 2.0 + 1.75 + BAND_HALFWIDTH / 2
        assert far.any() and np.all(got[far] == 0.0)

    @pytest.mark.parametrize("k0", [4, 34, *range(48, 56)])
    def test_window_keeps_every_node_within_half_band(self, phase64, grid64,
                                                      k0):
        # a point mass F = delta(x0, xi0) makes every entry one term,
        # sqrt(2) h^2 e^{-2 pi (m - x0)^2} e^{-pi t^2/2} e^{2 i pi t xi0},
        # so each one with |m - x0| <= T/2 and |t| <= T must match it to
        # relative round-off, down to its 2^-120 size; eight neighbouring
        # x0 put a node just inside T/2 of every block's span
        h, x0, xi0 = phase64.spacing, phase64.axis_nodes()[k0], 0.5
        values = np.zeros(phase64.shape)
        values[k0, phase64.index_of(xi0)] = 1.0
        op = AntiWickFromSymbol(SampledField(phase64, values))
        for g in (grid64, grid64.refined()):
            got = assemble_antiwick(op, g).matrix
            nodes = g.axis_nodes()
            m = np.add.outer(nodes, nodes) / 2.0
            t = np.subtract.outer(nodes, nodes)
            ref = math.sqrt(2.0) * h * h * np.exp(
                -2.0 * math.pi * (m - x0) ** 2 - 0.5 * math.pi * t * t
                + 2j * math.pi * t * xi0)
            near = (np.abs(m - x0) <= BAND_HALFWIDTH / 2) \
                & (np.abs(t) <= BAND_HALFWIDTH)
            rel = np.abs(got - ref)[near] / np.abs(ref[near])
            assert (~near).any() and np.max(rel) <= 1e-12

    @pytest.mark.parametrize("npts", [8, 9])
    @pytest.mark.parametrize("band", ["full", "one", "mid"])
    @pytest.mark.parametrize("rest", [(), (3, 2)], ids=["1d", "2d"])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_contract_on_pairs_against_loop(self, npts, band, rest, real):
        # the pair read of a midpoint x difference table T = w_mid tab
        rng = np.random.default_rng(npts)
        b = {"full": npts - 1, "one": 1, "mid": npts // 2 - 1}[band]
        k = 5
        w_mid = rng.standard_normal((2 * npts - 1, k))
        shape = (k, 2 * b + 1) + rest
        tab = rng.standard_normal(shape)
        if not real:
            w_mid = w_mid + 1j * rng.standard_normal(w_mid.shape)
            tab = tab + 1j * rng.standard_normal(shape)
        got = _read_pairs(np.tensordot(w_mid, tab, axes=1), npts)
        ref = contract_on_pairs_loop(w_mid, tab, 0, 1, npts)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestWeylFromKernel:
    def test_rank_one_ground_state(self, grid256, phase256):
        combo = CoherentCombo(((1.0, (0.0, 0.0), (0.0, 0.0)),))
        k = kernel_from_coherent(combo, grid256.refined())
        sigma = weyl_from_kernel(k)
        assert sigma.grid == phase256
        assert np.max(np.abs(sigma.values
                             - rank_one_gaussian_sigma(phase256))) < 1e-8

    def test_zero_kernel(self, grid256):
        k = DenseKernel(grid256.refined(),
                        np.zeros((512, 512)))
        assert np.all(weyl_from_kernel(k).values == 0.0)

    def test_t_normalized_identity_gives_unit_symbol(self, grid256):
        # the t-slice quadrature runs at the phase spacing h, so the
        # discrete delta normalized as I/h transforms to the constant 1
        gk = grid256.refined()
        k = DenseKernel(gk, np.eye(gk.size) / grid256.spacing)
        sigma = weyl_from_kernel(k)
        assert np.max(np.abs(sigma.values - 1.0)) < 1e-6

    @pytest.mark.parametrize("npoints, half_extent", [(16, 2.0), (36, 3.0)])
    def test_matches_literal_sums(self, npoints, half_extent):
        # complex noise fills the box edges, so the out-of-box reads
        # (which count as zero) carry weight
        gk = make_grid(1, 2 * npoints, half_extent)
        rng = np.random.default_rng(npoints)
        k = DenseKernel(gk, rng.standard_normal((gk.size, gk.size))
                        + 1j * rng.standard_normal((gk.size, gk.size)))
        got = weyl_from_kernel(k).values
        ref = weyl_from_kernel_literal(k)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_requires_self_dual(self):
        gk = make_grid(1, 128, 8.0).refined()
        k = DenseKernel(gk, np.zeros((256, 256)))
        with pytest.raises(GridMismatchError):
            weyl_from_kernel(k)


class TestKernelFromWeyl:
    def test_exact_right_inverse(self, phase256):
        sigma = SampledField(phase256, rank_one_gaussian_sigma(phase256))
        k = kernel_from_weyl(sigma)
        back = weyl_from_kernel(k)
        assert np.max(np.abs(back.values - sigma.values)) < 1e-12

    def test_right_inverse_in_rows_away_from_the_edge(self, phase64):
        # random complex symbols reach the box edge; at 64/4 the rows at
        # least L/2 = 2 from either edge are 16..47, and only they come back
        rng = np.random.default_rng(64)
        for _ in range(3):
            sigma = SampledField(phase64, rng.standard_normal(phase64.shape)
                                 + 1j * rng.standard_normal(phase64.shape))
            back = weyl_from_kernel(kernel_from_weyl(sigma)).values
            err = np.abs(back - sigma.values)
            peak = np.max(np.abs(sigma.values))
            assert np.max(err[16:48]) <= 1e-15 * peak
            assert np.max(err[[0, 63]]) > 0.1 * peak

    def test_round_trip_on_rank_one_kernels(self, grid256):
        points = [((0.0, 0.0), (0.0, 0.0)),
                  ((1.0, 2.0), (-0.5, 1.0)),
                  ((-1.5, -1.0), (-1.5, -1.0))]
        for x, y in points:
            combo = CoherentCombo(((1.0, x, y),))
            k = kernel_from_coherent(combo, grid256.refined())
            k2 = kernel_from_weyl(weyl_from_kernel(k))
            assert np.max(np.abs(k2.matrix - k.matrix)) < 1e-10

    def test_gaussian_sigma_gives_rank_one_kernel(self, grid256, phase256):
        sigma = SampledField(phase256, rank_one_gaussian_sigma(phase256))
        k = kernel_from_weyl(sigma)
        ref = kernel_from_coherent(
            CoherentCombo(((1.0, (0.0, 0.0), (0.0, 0.0)),)),
            grid256.refined())
        assert np.max(np.abs(k.matrix - ref.matrix)) < 1e-10

    def test_unit_symbol_acts_as_identity(self, grid256, phase256):
        sigma = SampledField(phase256, np.ones(phase256.shape))
        k = kernel_from_weyl(sigma)
        # even-offset interior entries match I/h of the phase spacing
        sub = k.matrix[64:960:2, 64:960:2]
        eye = np.eye(sub.shape[0]) / phase256.spacing
        assert np.max(np.abs(sub - eye)) < 1e-9
        # as an operator it reconstructs band-limited fields
        f = sample(gaussian_1d(math.pi), grid256.refined())
        out = apply_operator(k, f)
        assert (out - f).l2_norm() / f.l2_norm() < 2e-3

    @pytest.mark.parametrize("npoints, half_extent",
                             [(16, 2.0), (36, 3.0), (64, 4.0), (100, 5.0)])
    def test_matches_literal_sums(self, npoints, half_extent):
        # complex noise is asymmetric in x and in xi
        phase = make_grid(2, npoints, half_extent)
        rng = np.random.default_rng(npoints)
        sigma = SampledField(phase, rng.standard_normal(phase.shape)
                             + 1j * rng.standard_normal(phase.shape))
        got = kernel_from_weyl(sigma).matrix
        ref = kernel_from_weyl_literal(sigma)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("npoints, half_extent",
                             [(16, 2.0), (36, 3.0), (64, 4.0), (100, 5.0)])
    def test_real_noise_matches_literal_sums(self, npoints, half_extent):
        # a float64 sigma takes the half route; real noise fills the x
        # Nyquist row, which the interpolation takes as a cosine
        phase = make_grid(2, npoints, half_extent)
        rng = np.random.default_rng(npoints)
        sigma = SampledField(phase, rng.standard_normal(phase.shape))
        got = kernel_from_weyl(sigma).matrix
        ref = kernel_from_weyl_literal(sigma)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_odd_phase_dimension_is_rejected(self):
        g = make_grid(1, 16, 2.0)
        sigma = SampledField(g, np.zeros(g.shape))
        with pytest.raises(ValueError, match="even dimension"):
            kernel_from_weyl(sigma)


class TestApply:
    def test_identity_kernel(self, grid64):
        k = identity_kernel(grid64)
        f = sample(gaussian_1d(math.pi), grid64)
        out = apply_operator(k, f)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_ground_projector_fixes_ground_state(self, grid256):
        combo = CoherentCombo(((1.0, (0.0, 0.0), (0.0, 0.0)),))
        psi = coherent_state((0.0, 0.0), grid256)
        out = apply_operator(combo, psi)
        assert np.max(np.abs(out.values - psi.values)) < 1e-10

    def test_zero_symbol(self, phase64, grid64):
        op = AntiWickFromSymbol(SampledField(phase64,
                                             np.zeros(phase64.shape)))
        f = sample(gaussian_1d(math.pi), grid64)
        assert np.all(apply_operator(op, f).values == 0.0)

    def test_kernel_grid_mismatch(self, grid64, grid256):
        k = identity_kernel(grid64)
        f = sample(gaussian_1d(math.pi), grid256)
        with pytest.raises(GridMismatchError):
            apply_operator(k, f)


def assert_matches_dense(op, f, rtol=1e-12):
    """The matrix-free action against the assembled kernel's action."""
    got = apply_operator(op, f).values
    ref = apply_operator(assemble_antiwick(op, f.grid), f).values
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


A1_VECTORS = (gaussian_1d(math.pi), gaussian_1d(2.0, center=1.0),
              gaussian_1d(1.0, power=2, coeff=0.7),
              gaussian_1d(0.6, center=-1.5),
              gaussian_1d(3.0, power=1) + gaussian_1d(1.2, coeff=0.3j))


class TestMatrixFreeApply:
    """The analysis/multiply/synthesis action against assemble_antiwick,
    which stays the independent oracle."""

    @pytest.mark.parametrize("refined", [False, True],
                             ids=["desk", "refined"])
    def test_a1_vectors(self, phase256, grid256, refined):
        g = grid256.refined() if refined else grid256
        op = AntiWickFromSymbol(SampledField(phase256,
                                             np.ones(phase256.shape)))
        kernel = assemble_antiwick(op, g)
        for u in A1_VECTORS:
            f = sample(u, g)
            got = apply_operator(op, f).values
            ref = apply_operator(kernel, f).values
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_pairing_family_symbols(self, phase256, grid256, index):
        symbols, _ = _pairing_families()
        op = AntiWickFromSymbol(sample(symbols[index], phase256))
        f = sample(gaussian_1d(2.0, center=0.5, power=1)
                   + gaussian_1d(1.2, coeff=0.3j), grid256)
        assert_matches_dense(op, f)

    @pytest.mark.parametrize("npts", [16, 32])
    def test_two_dimensional_position_space(self, npts):
        phase = make_grid(4, 16, 2.0)
        fsym = tensor(gaussian_1d(1.5, center=0.5, coeff=0.8 + 0.6j),
                      gaussian_1d(2.0, center=-0.75, power=1),
                      gaussian_1d(2.5, center=-0.25, power=1),
                      gaussian_1d(1.2, center=1.0))
        op = AntiWickFromSymbol(sample(fsym, phase))
        f = sample(tensor(gaussian_1d(math.pi, center=0.2),
                          gaussian_1d(2.0, center=0.3, power=1)),
                   make_grid(2, npts, 2.0))
        assert_matches_dense(op, f)

    def test_non_self_dual_grid_pair(self):
        phase = make_grid(2, 64, 3.0)
        op = AntiWickFromSymbol(sample(
            tensor(gaussian_1d(1.3, center=0.4), gaussian_1d(0.9, power=1)),
            phase))
        f = sample(gaussian_1d(1.1, center=-0.3, coeff=1j)
                   + gaussian_1d(2.0, power=1), make_grid(1, 100, 5.0))
        assert_matches_dense(op, f)

    def test_zero_symbol_two_dimensional(self):
        phase = make_grid(4, 16, 2.0)
        op = AntiWickFromSymbol(SampledField(phase, np.zeros(phase.shape)))
        f = sample(tensor(gaussian_1d(math.pi), gaussian_1d(2.0)),
                   make_grid(2, 32, 2.0))
        assert np.all(apply_operator(op, f).values == 0.0)

    def test_dimension_mismatch(self, phase64):
        op = AntiWickFromSymbol(SampledField(phase64,
                                             np.ones(phase64.shape)))
        f = sample(tensor(gaussian_1d(math.pi), gaussian_1d(2.0)),
                   make_grid(2, 16, 2.0))
        with pytest.raises(GridMismatchError):
            apply_operator(op, f)


def direct_phase_table(x, scale, start, step, count):
    """Every entry of a phase table its own exp."""
    return np.exp(1j * scale * np.multiply.outer(
        start + step * np.arange(count), x))


TABLE_CASES = [
    (tensor(gaussian_1d(1.5, center=0.5, coeff=0.8 + 0.6j),
            gaussian_1d(2.0, center=-0.75, power=1)),
     gaussian_1d(2.0, center=0.5, power=1) + gaussian_1d(1.2, coeff=0.3j),
     64, 4.0),
    (tensor(gaussian_1d(1.5, center=0.5, coeff=0.8 + 0.6j),
            gaussian_1d(2.0, center=-0.75, power=1)),
     gaussian_1d(2.0, center=0.5, power=1) + gaussian_1d(1.2, coeff=0.3j),
     256, 8.0),
    (tensor(gaussian_1d(1.5, center=0.5, coeff=0.8 + 0.6j),
            gaussian_1d(2.0, center=-0.75, power=1),
            gaussian_1d(2.5, center=-0.25, power=1),
            gaussian_1d(1.2, center=1.0)),
     tensor(gaussian_1d(math.pi, center=0.2),
            gaussian_1d(2.0, center=0.3, power=1)),
     16, 2.0),
]


class TestAngleAdditionTables:
    """Refined assembly and the matrix-free action, whose phase tables are
    formed by angle addition, against the same maps with every table entry
    its own exp: within 1e-15 of the largest entry."""

    @pytest.mark.parametrize("fsym, u, npts, ell", TABLE_CASES,
                             ids=["64", "256", "4d-16"])
    def test_matches_direct_tables(self, monkeypatch, fsym, u, npts, ell):
        op = AntiWickFromSymbol(sample(fsym, make_grid(2 * u.dim, npts,
                                                       ell)))
        f = sample(u, make_grid(u.dim, npts, ell))

        def both():
            return (assemble_antiwick(op, f.grid.refined()).matrix,
                    apply_operator(op, f).values)

        got = both()
        monkeypatch.setattr(quantize, "phase_table", direct_phase_table)
        for new, ref in zip(got, both()):
            assert np.max(np.abs(new - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.fixture(scope="module")
def pos2():
    return make_grid(2, 16, 2.0)


@pytest.fixture(scope="module")
def phase4():
    return make_grid(4, 16, 2.0)


class TestTwoDimensionalPositionSpace:
    """Smoke coverage of the dimension-general paths on a coarse box
    (n = 2, per-axis N = 16, L = 2; errors are box truncation)."""

    def test_coherent_norm(self, pos2):
        psi = coherent_state((0.5, 0.0, 1.0, -0.5), pos2)
        assert inner(psi, psi).real == pytest.approx(1.0, abs=1e-6)

    def test_rank_one_weyl_symbol(self, pos2, phase4):
        combo = CoherentCombo(((1.0, (0.0,) * 4, (0.0,) * 4),))
        k = kernel_from_coherent(combo, pos2.refined())
        sigma = weyl_from_kernel(k)
        ax = phase4.axis_nodes()
        mesh = np.meshgrid(ax, ax, ax, ax, indexing="ij")
        ref = 4.0 * np.exp(-2 * math.pi * sum(m**2 for m in mesh))
        assert np.max(np.abs(sigma.values - ref)) < 2e-2

    def test_tensor_symbol_assembles_to_kron(self, pos2, phase4):
        # F(x1, x2, xi1, xi2) = F1(x1, xi1) F2(x2, xi2) factors the kernel
        # as kron(M1, M2): pins the axis order and both parity classes of
        # the pair gather against the 1-d assembly
        phase2 = make_grid(2, phase4.npoints, phase4.half_extent)
        f1 = sample(tensor(gaussian_1d(1.5, center=0.5, coeff=0.8 + 0.6j),
                           gaussian_1d(2.0, center=-0.75, power=1)), phase2)
        f2 = sample(tensor(gaussian_1d(2.5, center=-0.25, power=1),
                           gaussian_1d(1.2, center=1.0, coeff=0.3 - 0.9j)),
                    phase2)
        f = SampledField(phase4, np.einsum("ac,bd->abcd", f1.values,
                                           f2.values))
        for g in (pos2, pos2.refined()):
            g1 = make_grid(1, g.npoints, g.half_extent)
            m1 = assemble_antiwick(AntiWickFromSymbol(f1), g1).matrix
            m2 = assemble_antiwick(AntiWickFromSymbol(f2), g1).matrix
            m = assemble_antiwick(AntiWickFromSymbol(f), g).matrix
            ref = np.kron(m1, m2)
            assert np.max(np.abs(m - ref)) / np.max(np.abs(ref)) < 1e-13

    def test_weyl_maps_of_tensor_products_are_krons(self, pos2, phase4):
        # each pass of the Weyl maps acts on one axis pair, so
        # sum_i s_i (x) r_i maps to sum_i kron(K(s_i), K(r_i)) and back;
        # complex noise pins the axis order, both parity classes and the
        # out-of-box reads against the 1-d maps
        phase2 = make_grid(2, phase4.npoints, phase4.half_extent)
        g1 = make_grid(1, 2 * pos2.npoints, pos2.half_extent)
        rng = np.random.default_rng(11)

        def noise(shape):
            return rng.standard_normal(shape) \
                + 1j * rng.standard_normal(shape)

        symbols = [SampledField(phase2, noise(phase2.shape))
                   for _ in range(4)]
        kernels = [DenseKernel(g1, noise((g1.size, g1.size)))
                   for _ in range(4)]
        sym_k = [kernel_from_weyl(s).matrix for s in symbols]
        ker_w = [weyl_from_kernel(k).values for k in kernels]
        for terms in ([(0, 1)], [(0, 1), (2, 3)]):
            sigma = sum(np.einsum("ac,bd->abcd", symbols[a].values,
                                  symbols[b].values) for a, b in terms)
            ref = sum(np.kron(sym_k[a], sym_k[b]) for a, b in terms)
            got = kernel_from_weyl(SampledField(phase4, sigma))
            assert got.grid == pos2.refined()
            assert np.max(np.abs(got.matrix - ref)) \
                <= 1e-15 * np.max(np.abs(ref))

            kernel = sum(np.kron(kernels[a].matrix, kernels[b].matrix)
                         for a, b in terms)
            ref = sum(np.einsum("ac,bd->abcd", ker_w[a], ker_w[b])
                      for a, b in terms)
            got = weyl_from_kernel(DenseKernel(pos2.refined(), kernel))
            assert got.grid == phase4
            assert np.max(np.abs(got.values - ref)) \
                <= 1e-15 * np.max(np.abs(ref))

    def test_unit_symbol_identity(self, pos2, phase4):
        op = AntiWickFromSymbol(SampledField(phase4, np.ones(phase4.shape)))
        k = assemble_antiwick(op, pos2)
        f = sample(tensor(gaussian_1d(math.pi),
                          gaussian_1d(2.0, center=0.3)), pos2)
        out = apply_operator(k, f)
        assert (out - f).l2_norm() / f.l2_norm() < 2e-2


class TestMutualInversion:
    def test_weyl_then_kernel_then_weyl(self, grid256):
        combo = CoherentCombo(((0.7, (0.5, -1.0), (0.0, 0.5)),
                               (0.3j, (0.0, 0.0), (0.0, 0.0))))
        k = kernel_from_coherent(combo, grid256.refined())
        sigma = weyl_from_kernel(k)
        k2 = kernel_from_weyl(sigma)
        sigma2 = weyl_from_kernel(k2)
        assert np.max(np.abs(sigma2.values - sigma.values)) < 1e-10
        assert np.max(np.abs(k2.matrix - k.matrix)) < 1e-10


def route_rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def complex_route_sigma(kernel):
    """weyl_from_kernel's complex transform, whatever the kernel."""
    n = kernel.grid.dim
    tab = quantize.centered_fft(quantize._midpoint_slices(kernel),
                                axes=tuple(range(n, 2 * n)))
    return tab * (kernel.grid.spacing * 2) ** n


REAL_SYMBOL_2D = tensor(gaussian_1d(1.5, center=-0.4),
                        gaussian_1d(2.5, power=1, coeff=0.7))
REAL_SYMBOL_4D = tensor(gaussian_1d(1.5, center=0.5),
                        gaussian_1d(2.0, center=-0.75, power=1),
                        gaussian_1d(2.5, center=-0.25, power=1),
                        gaussian_1d(1.2, center=1.0))


class TestHermitianRoutes:
    """A float64 F or sigma takes the half route: the t >= 0 half of the
    first axis pair's midpoint x difference table, mirrored.  It matches
    the complex route on the same values as complex128 to round-off.  For
    n = 1 a float64 symbol's kernel is exactly Hermitian, from either
    builder."""

    @pytest.mark.parametrize("refined", [False, True], ids=["256", "512"])
    def test_assembly_is_exactly_hermitian(self, phase256, grid256, refined):
        g = grid256.refined() if refined else grid256
        symbol = sample(REAL_SYMBOL_2D, phase256)
        assert symbol.values.dtype == np.float64
        k = assemble_antiwick(AntiWickFromSymbol(symbol), g).matrix
        assert np.array_equal(k, k.conj().T)
        ref = assemble_antiwick(AntiWickFromSymbol(SampledField(
            phase256, symbol.values.astype(complex))), g).matrix
        assert route_rel_err(k, ref) <= 1e-14

    def test_kernel_from_weyl_matches_complex_route(self, phase256):
        sigma = sample(REAL_SYMBOL_2D, phase256)
        k = kernel_from_weyl(sigma).matrix
        ref = kernel_from_weyl(SampledField(
            phase256, sigma.values.astype(complex))).matrix
        assert ref.dtype == np.complex128
        assert route_rel_err(k, ref) <= 1e-14

    @pytest.mark.parametrize("kind", ["multiplier", "paired", "noise"])
    def test_kernel_from_weyl_is_exactly_hermitian(self, phase256, kind):
        # a Fourier multiplier g(xi), samples repeated in pairs along x
        # (both with a zero x Nyquist row) and real noise, which fills it
        x, xi = phase256.meshgrid()
        values = np.exp(-2.0 * (xi - 0.3) ** 2) * xi
        if kind == "paired":
            values = values * np.exp(-(x[1::2] - 0.4) ** 2).repeat(2, axis=0)
        elif kind == "multiplier":
            values = values + 0.0 * x
        else:
            values = np.random.default_rng(256).standard_normal(x.shape)
        k = kernel_from_weyl(SampledField(phase256, values)).matrix
        assert np.array_equal(k, k.conj().T)
        ref = kernel_from_weyl(SampledField(phase256, values.astype(complex)))
        assert route_rel_err(k, ref.matrix) <= 1e-14

    def test_weyl_of_assembled_kernel_is_float(self, phase256, grid256):
        kernel = assemble_antiwick(
            AntiWickFromSymbol(sample(REAL_SYMBOL_2D, phase256)),
            grid256.refined())
        sigma = weyl_from_kernel(kernel).values
        ref = complex_route_sigma(kernel)
        assert sigma.dtype == np.float64
        assert sigma.tobytes() == np.ascontiguousarray(ref.real).tobytes()
        # one entry off the Hermitian pattern, on a pair the table reads
        # (u + v = 4j), keeps the complex route, in its real part or its
        # imaginary part
        for step in (1e-3, 1e-3j):
            matrix = kernel.matrix.copy()
            matrix[300, 304] += step
            off = DenseKernel(kernel.grid, matrix)
            sigma = weyl_from_kernel(off).values
            assert sigma.dtype == np.complex128
            assert sigma.tobytes() == complex_route_sigma(off).tobytes()

    def test_four_dimensional_phase_space(self, pos2, phase4):
        # only the first axis pair is halved; both routes agree to
        # round-off
        symbol = sample(REAL_SYMBOL_4D, phase4)
        cast = SampledField(phase4, symbol.values.astype(complex))
        for g in (pos2, pos2.refined()):
            got = assemble_antiwick(AntiWickFromSymbol(symbol), g).matrix
            ref = assemble_antiwick(AntiWickFromSymbol(cast), g).matrix
            assert route_rel_err(got, ref) <= 1e-14
        got = kernel_from_weyl(symbol).matrix
        assert route_rel_err(got, kernel_from_weyl(cast).matrix) <= 1e-14
        # L = 2 < T: the assembled kernel's slabs t_a = -L have no mirror
        # in the midpoint-slice table, so its symbol stays complex; a
        # Hermitian kernel that is zero there gives a float64 symbol
        kernel = assemble_antiwick(AntiWickFromSymbol(symbol), pos2.refined())
        assert weyl_from_kernel(kernel).values.dtype == np.complex128
        point = (0.3, -0.2, 0.5, -0.25)
        k = kernel_from_coherent(CoherentCombo(((1.0, point, point),)),
                                 pos2.refined()).matrix
        m = pos2.refined().npoints
        t = np.abs(np.subtract.outer(np.arange(m), np.arange(m))) >= m // 2
        far = (t[:, None, :, None] | t[None, :, None, :]).reshape(k.shape)
        kernel = DenseKernel(pos2.refined(),
                             np.where(far, 0.0, k + k.conj().T))
        sigma = weyl_from_kernel(kernel).values
        assert sigma.dtype == np.float64
        assert sigma.tobytes() == np.ascontiguousarray(
            complex_route_sigma(kernel).real).tobytes()

    def test_right_inverse_of_real_noise(self, phase64):
        # rows 16..47 of real noise at 64/4 come back as complex noise's do
        rng = np.random.default_rng(64)
        for _ in range(3):
            sigma = SampledField(phase64, rng.standard_normal(phase64.shape))
            back = weyl_from_kernel(kernel_from_weyl(sigma)).values
            err = np.abs(back - sigma.values)
            peak = np.max(np.abs(sigma.values))
            assert np.max(err[16:48]) <= 1e-15 * peak
            assert np.max(err[[0, 63]]) > 0.1 * peak

    @pytest.mark.parametrize("phase_dim, npoints, half_extent",
                             [(2, 64, 4.0), (4, 16, 2.0)], ids=["2d", "4d"])
    def test_real_noise_matches_complex_route(self, phase_dim, npoints,
                                              half_extent):
        # noise fills the x Nyquist row; the kernel does not depend on the
        # dtype and is Hermitian (exactly for n = 1, where the half route
        # mirrors every difference)
        phase = make_grid(phase_dim, npoints, half_extent)
        values = np.random.default_rng(npoints).standard_normal(phase.shape)
        got = kernel_from_weyl(SampledField(phase, values)).matrix
        ref = kernel_from_weyl(SampledField(phase, values.astype(complex)))
        assert route_rel_err(got, ref.matrix) <= 1e-14
        if phase_dim == 2:
            assert np.array_equal(got, got.conj().T)
        else:
            assert route_rel_err(got.conj().T, got) <= 1e-14

    @pytest.mark.parametrize("npoints, half_extent", [(36, 3.0), (64, 4.0)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_pure_nyquist_row_is_a_cosine(self, npoints, half_extent,
                                          dtype):
        # sigma(x_j, xi_k) = (-1)^j g(xi_k) is the x Nyquist row alone; its
        # kernel is cos(2 pi L (m + L)) h sum_k g(xi_k) e^{2 i pi xi_k t},
        # written here with plain float phases
        phase = make_grid(2, npoints, half_extent)
        nodes, h = phase.axis_nodes(), phase.spacing
        g = np.exp(-(nodes - 0.3) ** 2) * (1.0 + 0.5 * nodes)
        signs = (-1.0) ** np.arange(npoints)
        sigma = SampledField(phase, np.outer(signs, g).astype(dtype))
        pos = -half_extent + 0.5 * h * np.arange(2 * npoints)
        m = np.add.outer(pos, pos) / 2.0
        t = np.subtract.outer(pos, pos)
        ref = np.cos(2.0 * math.pi * half_extent * (m + half_extent)) \
            * (h * np.exp(2j * math.pi * np.multiply.outer(t, nodes)) @ g)
        idx = np.arange(2 * npoints)
        ref[np.abs(np.subtract.outer(idx, idx)) > npoints] = 0.0
        got = kernel_from_weyl(sigma).matrix
        assert route_rel_err(got, ref) <= 1e-12
