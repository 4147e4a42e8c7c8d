import math
import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistx import operator as op
from persistx import harness, oracle
from persistx.model import (
    ARModel,
    Exponential,
    Gaussian,
    IIDInnovation,
    MAModel,
    Rademacher,
    RequestedDensityOfAtomicLaw,
    SurvivalConvention,
    Uniform,
    drift,
)

GE = SurvivalConvention.NON_NEGATIVE


class TestGrids:
    def test_two_point_gauss_nodes(self):
        g = op.build_grid(0.0, 1.0, 2)
        assert g.nodes == pytest.approx([0.2113248654051871, 0.7886751345948129], abs=1e-12)
        assert g.weights == pytest.approx([0.5, 0.5], abs=1e-15)

    @given(st.integers(2, 60))
    @settings(max_examples=40, deadline=None)
    def test_grid_invariants(self, n):
        lo, hi = -1.5, 2.5
        g = op.build_grid(lo, hi, n)
        assert g.weights.sum() == pytest.approx(hi - lo, rel=1e-12)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.edges[0] == lo and g.edges[-1] == pytest.approx(hi)
        assert np.all(g.nodes > g.edges[:-1]) and np.all(g.nodes < g.edges[1:])

    @pytest.mark.parametrize("n", [2, 3, 150, 151, 800])
    def test_gauss_rule_matches_numpy(self, n):
        x, w = np.polynomial.legendre.leggauss(n)
        g = op.build_grid(-1.0, 1.0, n)
        assert np.abs(g.nodes - x).max() <= 1e-15
        assert np.abs(g.weights - w).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 151, 400, 1600])
    def test_rule_integrates_even_monomials(self, n):
        # exact through degree 2n - 1; x^(2n-2) weighs the nodes next to +-1,
        # where scipy's roots_legendre misses by 1.6e-11 (n=400) and 1.1e-9 (n=1600)
        x, w = op.leggauss(n)
        for k in (n // 2, n - 1):
            exact = 2.0 / (2 * k + 1)
            assert abs((w * x ** (2 * k)).sum() - exact) <= 1e-11 * exact

    @pytest.mark.parametrize("n", [2, 3, 150, 151, 1600])
    def test_rule_is_exactly_symmetric(self, n):
        x, w = op.leggauss(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    def test_rule_is_cached_and_read_only(self):
        x, w = op.leggauss(40)
        assert op.leggauss(40)[0] is x
        for a in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            op.build_grid(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            op.build_grid(0.0, 1.0, 0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                        (0.0, math.nan)])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="need finite lo < hi"):
            op.build_grid(lo, hi, 4)

    @pytest.mark.parametrize("model", [
        ARModel((0.5,), Gaussian(), IIDInnovation(), GE),
        MAModel((1.0,), Gaussian(), GE),
    ], ids=["ar1", "ma1"])
    @pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan])
    def test_non_finite_truncation_rejected(self, model, m):
        # an infinite M gave an AR grid an AssertionError and an MA grid
        # [-inf, inf] with lambda 0
        with pytest.raises(ValueError, match="need a finite truncation M > 0"):
            op.default_grid(model, m, 10)
        with pytest.raises(ValueError, match="need a finite truncation M > 0"):
            op.truncation_lambdas(model, [2.0, m], 10)

    def test_default_truncation_tracks_tails(self):
        m = op.default_truncation(Gaussian())
        assert m == pytest.approx(1.5 * Gaussian().tail_radius(1e-10))
        assert op.default_truncation(Uniform(-1.0, 1.0)) == pytest.approx(1.5)

    def test_default_grid_clamps_to_support(self):
        # nonpositive AR coefficients with bounded innovations keep the
        # reachable state inside [0, sup xi]
        m = ARModel((-1.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
        g = op.default_grid(m, 5.0, 16)
        assert g.lo == 0.0 and g.hi == pytest.approx(1.0)
        # MA state lives on the innovation support
        mm = MAModel((-0.5,), Exponential(), GE)
        g2 = op.default_grid(mm, 7.0, 16)
        assert g2.lo == 0.0 and g2.hi == pytest.approx(7.0)
        mg = MAModel((1.0,), Gaussian(), GE)
        g3 = op.default_grid(mg, 6.0, 16)
        assert g3.lo == pytest.approx(-6.0) and g3.hi == pytest.approx(6.0)

    @pytest.mark.parametrize("model", [
        ARModel((0.5,), Gaussian(), IIDInnovation(), GE),
        ARModel((-1.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE),
        MAModel((-0.5,), Exponential(), GE),
    ], ids=["ar1_gauss", "ar1_uniform", "ma1_exp"])
    def test_default_grid_defaults_truncation(self, model):
        g = op.default_grid(model, None, 40)
        ref = op.default_grid(model, op.default_truncation(model.innovation), 40)
        assert (g.lo, g.hi, g.n, g.d) == (ref.lo, ref.hi, ref.n, ref.d)
        for a, b in ((g.nodes, ref.nodes), (g.weights, ref.weights), (g.edges, ref.edges)):
            assert np.array_equal(a, b)


class TestAssembleAr:
    def test_rank_one_case_is_exact(self):
        # zero coefficients make the kernel independent of the state, so the
        # spectral radius is the single-step survival mass on the grid box
        m = ARModel((0.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
        res = op.solve_operator(m, n=30)
        assert res.lam == pytest.approx(0.5, abs=1e-12)

    def test_row_sums_bound_one(self):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        grid = op.default_grid(m, 6.0, 80)
        kop = op.assemble_ar(m, grid)
        sums = kop.kmat.sum(axis=-1)
        assert np.all(sums <= 1.0 + 1e-12)
        assert np.all(kop.kmat >= 0.0)

    def test_needs_density(self):
        from persistx.model import RequestedDensityOfAtomicLaw

        m = ARModel((0.5,), Rademacher(), IIDInnovation(), GE)
        grid = op.build_grid(0.0, 1.0, 8)
        with pytest.raises(RequestedDensityOfAtomicLaw):
            op.assemble_ar(m, grid)

    def test_dimension_must_match_order(self):
        m = ARModel((0.5, 0.2), Gaussian(), IIDInnovation(), GE)
        grid = op.build_grid(0.0, 1.0, 8, d=1)
        with pytest.raises(ValueError):
            op.assemble_ar(m, grid)

    def test_ar2_operator_shape_and_apply(self):
        # a law with a support endpoint keeps the exact table at order 2
        m = ARModel((0.3, 0.2), Exponential(), IIDInnovation(), GE)
        grid = op.build_grid(0.0, 4.0, 12, d=2)
        kop = op.assemble_ar(m, grid)
        assert kop.kmat.shape == (12, 12, 12)
        g = np.ones((12, 12))
        out = kop.apply(g)
        assert out.shape == (12, 12)
        assert np.all(out >= 0.0)

    def test_ar2_monotone_in_each_coefficient(self):
        # raising either coefficient raises the exponent
        lam = {}
        for coeffs in ((0.25, 0.0), (0.25, 0.25), (0.4, 0.25)):
            lam[coeffs] = op.solve_operator(
                ARModel(coeffs, Gaussian(), IIDInnovation(), GE), n=40, delta=0.25
            ).lam
        assert lam[(0.25, 0.0)] < lam[(0.25, 0.25)] < lam[(0.4, 0.25)]
        assert 0.5 < lam[(0.25, 0.0)] < 1.0


def _one_shot_kmat(model, grid, delta):
    """The AR kernel table built in one piece: every entry at once."""
    d = model.order
    cols = [grid.nodes.reshape((-1,) + (1,) * (d - 1 - k)) for k in range(d)]
    s = drift(model.coeffs, cols)
    cdf_vals = model.innovation.cdf(grid.edges.reshape((1,) * d + (-1,)) - s[..., None])
    kmat = np.clip(cdf_vals[..., 1:] - cdf_vals[..., :-1], 0.0, None)
    if delta != 0.0:
        kmat = kmat * np.exp(delta * grid.nodes)
        kmat = kmat * np.exp(-delta * grid.nodes).reshape((grid.n,) + (1,) * d)
    return kmat


def _dense_apply(kmat, g):
    """(Kg)(x_1..x_d) = sum_z kmat[x_1..x_d, z] g(x_2..x_d, z), from the table."""
    letters = string.ascii_lowercase[:g.ndim]
    return np.einsum(f"{letters}z,{letters[1:]}z->{letters}", kmat, g)


class TestSlabAssembly:
    # every size spans several assembly slabs, the last one partial
    @pytest.mark.parametrize("coeffs,innovation,n", [
        ((0.4,), Gaussian(), 400),
        ((-0.7,), Exponential(), 300),
        ((0.3, 0.2), Uniform(-1.0, 1.0), 60),
        ((0.5, -0.3), Exponential(), 45),
    ])
    @pytest.mark.parametrize("delta", [0.0, 0.35])
    def test_kmat_equals_one_shot_formula(self, coeffs, innovation, n, delta):
        m = ARModel(coeffs, innovation, IIDInnovation(), GE)
        grid = op.default_grid(m, 7.0, n)
        kmat = op.assemble_ar(m, grid, delta=delta).kmat
        assert np.array_equal(kmat, _one_shot_kmat(m, grid, delta))


class TestApply:
    @pytest.mark.parametrize("coeffs,n", [((0.3, 0.2), 50), ((0.3, 0.2, 0.1), 14)])
    def test_matches_einsum(self, coeffs, n):
        # the exact table at order >= 2 serves the laws with a support endpoint
        m = ARModel(coeffs, Exponential(), IIDInnovation(), GE)
        kop = op.assemble_ar(m, op.default_grid(m, 6.0, n), delta=0.3)
        d = len(coeffs)
        g = np.random.default_rng(5).random((n,) * d)
        expected = _dense_apply(kop.kmat, g)
        out = kop.apply(g)
        assert out.shape == (n,) * d
        assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()

    # lambda and iterations of the one batched apply, at d = 1 and d = 2
    @pytest.mark.parametrize("coeffs,innovation,n,delta,lam,iterations", [
        ((0.4,), Gaussian(), 400, 0.3, 0.647769920818495, 15),
        ((-0.5,), Exponential(), 400, 0.3, 0.666647748564583, 3),
        ((0.5, -0.3), Gaussian(), 60, 0.0, 0.5521435068094849, 23),
        ((0.3, 0.2), Gaussian(), 60, "auto", 0.7005364266035168, 25),
    ], ids=["ar1_gauss_0.4", "ar1_exp_m0.5", "ar2_0.5_m0.3", "ar2_0.3_0.2_auto"])
    def test_lambda_and_iterations_pinned(self, coeffs, innovation, n, delta, lam, iterations):
        res = op.solve_operator(ARModel(coeffs, innovation, IIDInnovation(), GE), n=n, delta=delta)
        assert res.lam == pytest.approx(lam, abs=1e-13)
        assert res.iterations == iterations


def _dense_drift_kmat(kop):
    """The drift-table operator's kernel as a table: each state's two drift
    rows, blended by its weights."""
    n, d = kop.grid.n, kop.grid.d
    lower, upper = kop.kmat[kop.start], kop.kmat[kop.start + 1]
    rows = kop.coef[0][:, None] * lower + kop.coef[1][:, None] * upper
    return rows.reshape((n,) * d + (n,))


# the AR(2) grid size of the drift-table tests
N_DRIFT = 129
AR2 = ARModel((0.3, 0.2), Gaussian(), IIDInnovation(), GE)


class TestDriftTable:
    # the kernel form follows the order and the law's support, at every n
    @pytest.mark.parametrize("model, n, tabulated", [
        (AR2, 12, True),
        (AR2, 60, True),
        (AR2, 128, True),
        (ARModel((0.5, -0.3), Exponential(), IIDInnovation(), GE), 12, False),
        (ARModel((0.5, -0.3), Exponential(), IIDInnovation(), GE), N_DRIFT, False),
        (ARModel((0.4,), Gaussian(), IIDInnovation(), GE), 1500, False),
    ], ids=["gaussian_ar2_12", "gaussian_ar2_60", "gaussian_ar2_128", "exponential_ar2_12",
            "exponential_ar2_129", "gaussian_ar1_1500"])
    def test_kernel_form_follows_the_law(self, model, n, tabulated):
        grid = op.default_grid(model, None, n)
        kop = op.assemble_ar(model, grid, delta=0.3)
        if tabulated:
            assert kop.kmat.shape == (op.DRIFT_NODES_PER_NODE * n, n)
            assert kop.start is not None
        else:
            assert kop.kmat.shape == (n,) * (model.order + 1)
            assert kop.start is None
            assert np.array_equal(kop.kmat, _one_shot_kmat(model, grid, 0.3))

    @pytest.mark.parametrize("coeffs, n", [
        ((0.3, 0.2), 16),
        ((0.3, 0.2), 60),
        ((0.3, 0.2), 128),
        ((0.5, -0.3), 16),
        ((0.3, 0.2, 0.1), 20),
        ((0.3, 0.2, 0.1), 38),
    ], ids=["ar2_0.3_0.2_16", "ar2_0.3_0.2_60", "ar2_0.3_0.2_128", "ar2_0.5_m0.3_16",
            "ar3_0.3_0.2_0.1_20", "ar3_0.3_0.2_0.1_38"])
    def test_lambda_within_one_percent_of_the_discretization_error(self, coeffs, n):
        # the exact table on the same grid is the reference, down to small n
        m = ARModel(coeffs, Gaussian(), IIDInnovation(), GE)
        delta = op.default_delta(m)
        grid = op.default_grid(m, None, n)
        lam = op.spectral_radius(op.assemble_ar(m, grid, delta=delta)).lam
        exact = op.DiscretizedOperator(grid, _one_shot_kmat(m, grid, delta), delta)
        lam_exact = op.spectral_radius(exact).lam
        lam_half = op.solve_operator(m, n=n // 2, delta=delta).lam
        assert abs(lam - lam_exact) <= 0.01 * abs(lam_exact - lam_half)

    def test_ar2_solve_peaks_below_the_exact_table(self):
        # the exact AR(2) table at N = 128 alone would take 128^3 * 8 B =
        # 16.8 MB; the drift table's solve peaks at about 4.8 MB
        op.solve_operator(AR2, n=10)
        tracemalloc.start()
        try:
            op.solve_operator(AR2, n=128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_rows_are_the_cell_masses_at_the_drift_nodes(self):
        # the reference is written in one piece, as _one_shot_kmat is
        grid = op.default_grid(AR2, None, N_DRIFT)
        kop = op.assemble_ar(AR2, grid, delta=0.3)
        cols = [grid.nodes.reshape((-1, 1)), grid.nodes.reshape((1, -1))]
        s = drift(AR2.coeffs, cols)
        count = op.DRIFT_NODES_PER_NODE * N_DRIFT
        lo = float(s.min())
        nodes = lo + (float(s.max()) - lo) / (count - 1) * np.arange(count)
        cdf_vals = AR2.innovation.cdf(grid.edges - nodes[:, None])
        table = np.clip(cdf_vals[:, 1:] - cdf_vals[:, :-1], 0.0, None)
        assert np.array_equal(kop.kmat, table * np.exp(0.3 * grid.nodes))

    def test_ar2_assembly_peak_is_the_table_and_one_slab(self):
        # at N = 400 the (3200, 400) table and the apply's image buffer take
        # 10.2 MB each and the per-state arrays about 9 MB; the cell masses of
        # every drift node at once would add three table-sized temporaries
        grid = op.default_grid(AR2, None, 400)
        op.assemble(AR2, op.default_grid(AR2, None, 10), delta="auto")
        tracemalloc.start()
        try:
            op.assemble(AR2, grid, delta="auto")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 38e6

    def test_apply_matches_dense_interpolated_kernel(self):
        kop = op.assemble_ar(AR2, op.default_grid(AR2, None, N_DRIFT), delta=0.3)
        g = np.random.default_rng(5).random((N_DRIFT,) * 2)
        expected = _dense_apply(_dense_drift_kmat(kop), g)
        assert np.abs(kop.apply(g) - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_entries_and_images_nonnegative(self):
        kop = op.assemble(AR2, op.default_grid(AR2, None, N_DRIFT), delta="auto")
        assert kop.kmat.min() >= 0.0 and kop.coef.min() >= 0.0
        g = np.random.default_rng(3).random((N_DRIFT,) * 2)
        assert kop.apply(g).min() >= 0.0
        case = {"process": "ar", "coeffs": [0.3, 0.2], "innovation": {"kind": "gaussian"},
                "operator": {"N": N_DRIFT, "delta": "auto"}}
        ok, details = harness._prop_nonnegativity(case, 0)
        assert ok and details["min_entry_or_image"] >= 0.0

    def test_tilt_leaves_lambda_unchanged(self):
        grid = op.default_grid(AR2, None, N_DRIFT)
        lams = [op.spectral_radius(op.assemble_ar(AR2, grid, delta=d)).lam
                for d in (0.0, 0.1, 0.5)]
        assert max(lams) - min(lams) <= 1e-8

    def test_ar3_fits_and_exceeds_ar2(self):
        # the exact AR(3) table at N = 60 alone would take 60^4 * 8 B = 104 MB
        m = ARModel((0.3, 0.2, 0.1), Gaussian(), IIDInnovation(), GE)
        tracemalloc.start()
        try:
            res = op.solve_operator(m, n=60, delta="auto")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak < 40e6
        # strict monotonicity in the coefficients for a log-concave law
        assert res.lam > op.solve_operator(AR2, n=60, delta="auto").lam


class TestTilt:
    def test_conjugation_leaves_lambda_unchanged(self):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        grid = op.default_grid(m, 6.0, 200)
        lams = [op.spectral_radius(op.assemble_ar(m, grid, delta=d)).lam
                for d in (0.0, 0.1, 0.5)]
        assert max(lams) - min(lams) <= 1e-8

    def test_tilted_matrix_is_similar(self):
        m = ARModel((0.4,), Exponential(), IIDInnovation(), GE)
        grid = op.default_grid(m, 8.0, 40)
        k0 = op.assemble_ar(m, grid, delta=0.0).kmat
        k1 = op.assemble_ar(m, grid, delta=0.3).kmat
        # K_delta[x, z] = e^{-delta x} K[x, z] e^{delta z}; undo it exactly
        h = np.exp(0.3 * grid.nodes)
        back = k1 * h[:, None] / h[None, :]
        assert np.max(np.abs(back - k0)) <= 1e-10 * np.max(k0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_tilt_rejected(self, delta):
        # a NaN tilt ran power iteration to its budget on NaN iterates
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        with pytest.raises(ValueError, match="need a finite tilt delta"):
            op.assemble(m, op.default_grid(m, None, 10), delta=delta)
        m = MAModel((1.0,), Gaussian(), GE)
        with pytest.raises(ValueError, match="MA operator takes no tilt"):
            op.assemble(m, op.default_grid(m, None, 10), delta=delta)

    def test_ma_takes_no_tilt(self):
        m = MAModel((1.0,), Gaussian(), GE)
        grid = op.default_grid(m, None, 40)
        for delta in (0.7, -0.1, "0.5"):
            with pytest.raises(ValueError, match="MA operator takes no tilt"):
                op.assemble(m, grid, delta=delta)
        for delta in (0, 0.0, "auto"):
            assert op.assemble(m, grid, delta=delta).delta == 0.0

    def test_default_delta(self):
        assert op.default_delta(ARModel((0.5,), Gaussian(2.0), IIDInnovation(), GE)) \
            == pytest.approx(0.25)
        assert op.default_delta(ARModel((0.5, 0.1), Exponential(), IIDInnovation(), GE)) \
            == pytest.approx(0.25)
        assert op.default_delta(ARModel((0.5,), Uniform(-1.0, 1.0), IIDInnovation(), GE)) == 0.0


class TestAssembleMa:
    def test_survival_indicator_dropped_rows(self):
        # strongly negative drift kills every cell for small states
        m = MAModel((-0.9,), Exponential(), GE)
        grid = op.build_grid(0.0, 10.0, 50)
        kop = op.assemble_ma(m, grid)
        # row sums are the image of the constant function
        sums = kop.apply(np.ones(50))
        assert sums.shape == (50,)
        # large x forces y > 0.9 x: the row loses most of its mass
        assert sums[-1] < sums[0]

    def test_cut_cell_improves_symmetric_case(self):
        m = MAModel((1.0,), Gaussian(), GE)
        grid = op.default_grid(m, 8.0, 200)
        lam_plain = np.linalg.eigvals(_dense_ma_kmat(m, grid, cut_cell=False)).real.max()
        lam_cut = op.solve_operator(m, m=8.0, n=200).lam
        target = 2.0 / math.pi
        assert abs(lam_cut - target) < abs(lam_plain - target)
        assert abs(lam_cut - target) < 5e-4

    def test_ma2_shape(self):
        m = MAModel((0.4, 0.2), Gaussian(), GE)
        grid = op.build_grid(-5.0, 5.0, 10, d=2)
        kop = op.assemble_ma(m, grid)
        out = kop.apply(np.ones((10, 10)))
        assert out.shape == (10, 10)
        assert np.all(out >= 0.0) and out.max() <= 1.0 + 1e-12

    def test_exponential_eigenpair_residual(self):
        a1 = -0.5
        m = MAModel((a1,), Exponential(), GE)
        grid = op.default_grid(m, 9.0, 400)
        kop = op.assemble_ma(m, grid)
        g = oracle.ma1_exponential_eigenfunction(a1)(grid.nodes)
        resid = np.abs(kop.apply(g) - (1.0 + a1) * g).max()
        assert resid <= 1e-5

    def test_atomic_innovation_rejected(self):
        from persistx.model import RequestedDensityOfAtomicLaw

        m = MAModel((1.0,), Rademacher(), GE)
        grid = op.build_grid(-1.0, 1.0, 8)
        with pytest.raises(RequestedDensityOfAtomicLaw):
            op.assemble_ma(m, grid)


def _dense_ma_kmat(model, grid, cut_cell=True):
    """The MA kernel as a table, entry by entry from its rule: base[j] =
    w_j phi(y_j) at every node above the cut; with the cut cell, the cell
    [e_k, e_k+1) holding a cut strictly inside (lo, hi) carries base[k] times
    the fraction of its innovation mass above the cut. cut_cell=False gives
    the plain indicator rule, the reference the cut cell is measured against."""
    d = model.order
    base = grid.weights * model.innovation.density(grid.nodes)
    cols = [grid.nodes.reshape((-1,) + (1,) * (d - 1 - k)) for k in range(d)]
    cut = np.broadcast_to(-drift(model.coeffs, cols), (grid.n,) * d)
    kmat = np.where(grid.nodes > cut[..., None], base, 0.0)
    if cut_cell:
        cdf = model.innovation.cdf
        for x in np.ndindex(cut.shape):
            c = float(cut[x])
            if not grid.edges[0] < c < grid.edges[-1]:
                continue
            k = int(np.searchsorted(grid.edges, c, side="right")) - 1
            mass = cdf(grid.edges[k + 1]) - cdf(grid.edges[k])
            frac = (cdf(grid.edges[k + 1]) - cdf(c)) / mass if mass > 0 else 0.0
            kmat[x + (k,)] = base[k] * min(max(frac, 0.0), 1.0)
    return kmat


def _midpoint_grid(lo, hi, n):
    """n equal cells on [lo, hi] with nodes at their midpoints: dyadic
    bounds make every node and edge exact, so cuts can land on them."""
    edges = np.linspace(lo, hi, n + 1)
    return op.QuadratureGrid(1, lo, hi, n, 0.5 * (edges[:-1] + edges[1:]), np.diff(edges), edges)


class TestMatrixFreeMa:
    @pytest.mark.parametrize("coeffs,innovation,n", [
        ((1.0,), Gaussian(), 200),
        ((-1.0,), Gaussian(), 200),
        ((-0.99,), Gaussian(), 150),
        ((-0.5,), Exponential(), 150),
        ((0.5,), Uniform(-1.0, 2.0), 120),
        ((0.5, -0.2), Gaussian(), 30),
        ((0.5, 0.5), Gaussian(), 30),
        ((0.3, 0.3, 0.3), Gaussian(), 9),
    ], ids=["ma1_gauss_1", "ma1_gauss_m1", "ma1_gauss_m0.99", "ma1_exp_m0.5", "ma1_unif",
            "ma2_0.5_m0.2", "ma2_0.5_0.5", "ma3_0.3"])
    def test_apply_matches_dense_kernel(self, coeffs, innovation, n):
        m = MAModel(coeffs, innovation, GE)
        grid = op.default_grid(m, None, n)
        kop = op.assemble_ma(m, grid)
        kmat = _dense_ma_kmat(m, grid)
        rng = np.random.default_rng(11)
        for g in (np.ones((n,) * m.order), rng.random((n,) * m.order)):
            expected = _dense_apply(kmat, g)
            out = kop.apply(g)
            assert out.shape == g.shape
            assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("a1", [-1.0, -2.0, -8.0],
                             ids=["cut_on_node", "cut_on_edge", "cut_on_lo_and_hi"])
    def test_cuts_on_nodes_edges_and_bounds(self, a1):
        # on [-1, 1] with 8 cells, cut = -a1 x lands on nodes (a1 = -1), on
        # edges and beyond both bounds (a1 = -2), or on lo and hi exactly (-8)
        m = MAModel((a1,), Uniform(-1.0, 1.0), GE)
        grid = _midpoint_grid(-1.0, 1.0, 8)
        cut = -a1 * grid.nodes
        hits = {-1.0: grid.nodes, -2.0: grid.edges, -8.0: grid.edges[[0, -1]]}[a1]
        assert np.isin(cut, hits).sum() >= 2
        kop = op.assemble_ma(m, grid)
        kmat = _dense_ma_kmat(m, grid)
        g = np.random.default_rng(3).random(8)
        assert np.abs(kop.apply(g) - kmat @ g).max() <= 1e-15
        row_sums = kop.apply(np.ones(8))
        assert np.all(row_sums[cut >= grid.hi] == 0.0)
        assert np.all(row_sums[cut <= grid.lo] == kop.base.sum())

    def test_cuts_below_support(self):
        # exponential support with a positive coefficient: every cut lies
        # below lo = 0, so every row keeps all of its nodal weight
        m = MAModel((0.5,), Exponential(), GE)
        grid = op.default_grid(m, None, 60)
        kop = op.assemble_ma(m, grid)
        assert np.all(kop.start == 0) and np.all(kop.coef == 0.0)
        assert kop.apply(np.ones(60)) == pytest.approx(np.full(60, kop.base.sum()), rel=1e-14)
        g = np.random.default_rng(4).random(60)
        kmat = _dense_ma_kmat(m, grid)
        assert np.abs(kop.apply(g) - kmat @ g).max() <= 1e-14 * np.abs(kmat @ g).max()

    # lambda and iterations of the matrix-free apply
    @pytest.mark.parametrize("coeffs,innovation,n,lam,iterations", [
        ((1.0,), Gaussian(), 400, 0.6365503548414224, 23),
        ((-0.99,), Gaussian(), 400, 0.01559514468294227, 4373),
        ((-0.5,), Exponential(), 400, 0.4999998004420251, 25),
        ((0.5, -0.2), Gaussian(), 100, 0.5583245207830102, 25),
        ((0.5, 0.5), Gaussian(), 100, 0.6801429268434205, 29),
        ((0.3, 0.3, 0.3), Gaussian(), 20, 0.677944812933027, 33),
    ], ids=["ma1_gauss_1", "ma1_gauss_m0.99", "ma1_exp_m0.5", "ma2_0.5_m0.2", "ma2_0.5_0.5",
            "ma3_0.3"])
    def test_lambda_and_iterations_pinned(self, coeffs, innovation, n, lam, iterations):
        res = op.solve_operator(MAModel(coeffs, innovation, GE), n=n)
        assert res.lam == pytest.approx(lam, abs=1e-13)
        assert res.iterations == iterations

    def test_ma2_memory_is_linear_in_states(self):
        # a kernel table at N = 300 alone would take 300^3 * 8 B = 216 MB
        m = MAModel((0.5, 0.5), Gaussian(), GE)
        tracemalloc.start()
        try:
            res = op.solve_operator(m, n=300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak < 50e6

    def test_apply_returns_a_fresh_array(self):
        m = MAModel((0.5,), Gaussian(), GE)
        kop = op.assemble_ma(m, op.default_grid(m, None, 40))
        g = np.ones(40)
        first = kop.apply(g)
        kept = first.copy()
        second = kop.apply(2.0 * g)
        assert second is not first and np.array_equal(first, kept)


def _eager_power_iteration(kop, tol=1e-10, max_iter=50000):
    """spectral_radius's loop, forming the residual on every step and with
    fresh arrays throughout: (lam, it, residual, psi). The Ritz pair comes
    from the same op._ritz_pair, over the last op.RITZ_BLOCK iterates."""
    v = np.ones((kop.grid.n,) * kop.grid.d)
    iterates, lams = [], []
    check, ritz = op.RITZ_FIRST, None
    lam_prev = theta_prev = math.inf
    for it in range(1, max_iter + 1):
        w = kop.apply(v)
        lam = float(w.max())
        estimate = lam if ritz is None else ritz
        residual = float(np.abs(w - v * estimate).max())
        settled = ritz is not None or abs(lam - lam_prev) < tol
        if residual < tol * max(1.0, estimate) and settled:
            return estimate, it, residual, v
        ritz = None
        iterates = (iterates + [v.reshape(-1).copy()])[-op.RITZ_BLOCK:]
        lams = (lams + [lam])[-op.RITZ_BLOCK:]
        v = w / lam
        if it == check:
            check += max(op.RITZ_FIRST, it // op.RITZ_SPACING)
            u = np.empty(v.size)
            theta, block_residual = op._ritz_pair(np.array(iterates), np.array(lams),
                                                  w.reshape(-1), u, np.empty(v.size))
            if abs(theta - theta_prev) < tol and block_residual < tol * max(1.0, theta):
                ritz = theta
                v = np.maximum(u, 0.0).reshape(v.shape)
            theta_prev = theta
        v[v < np.finfo(float).tiny] = 0.0
        lam_prev = lam
    raise AssertionError("reference power iteration did not converge")


class TestPowerIteration:
    def test_known_two_by_two(self):
        grid = op.build_grid(0.0, 1.0, 2)
        kmat = np.array([[0.6, 0.2], [0.1, 0.3]])
        kop = op.DiscretizedOperator(grid, kmat)
        res = op.spectral_radius(kop, tol=1e-13)
        expected = max(np.linalg.eigvals(kmat).real)
        assert res.lam == pytest.approx(expected, abs=1e-10)
        assert res.converged
        assert res.residual <= 1e-10

    def test_eigenfunction_normalized_and_nonnegative(self):
        m = ARModel((-1.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
        res = op.solve_operator(m, n=100)
        assert res.psi.max() == pytest.approx(1.0)
        assert res.psi.min() >= 0.0

    def test_lambda_bounded_by_sup_row_sum(self):
        m = ARModel((0.6,), Gaussian(), IIDInnovation(), GE)
        grid = op.default_grid(m, 6.0, 120)
        kop = op.assemble_ar(m, grid, delta=0.5)
        res = op.spectral_radius(kop)
        assert res.lam <= kop.apply(np.ones(120)).max() + 1e-12

    def test_zero_operator(self):
        grid = op.build_grid(0.0, 1.0, 3)
        kop = op.DiscretizedOperator(grid, np.zeros((3, 3)))
        res = op.spectral_radius(kop)
        assert res.lam == 0.0 and res.converged

    def test_max_iterations_names_last_residual(self):
        m = MAModel((-1.0,), Gaussian(), GE)
        with pytest.raises(op.MaxIterationsExceeded,
                           match=r"in 3 iterations \(last residual \S+ at lambda \S+\)"):
            op.spectral_radius(op.assemble_ma(m, op.default_grid(m, 6.0, 100)),
                               tol=1e-14, max_iter=3)

    @pytest.mark.parametrize("model,n,delta", [
        (ARModel((0.4,), Gaussian(), IIDInnovation(), GE), 120, 0.0),
        (ARModel((0.3, 0.2), Gaussian(), IIDInnovation(), GE), 30, "auto"),
        (MAModel((1.0,), Gaussian(), GE), 120, 0.0),
        (MAModel((-0.99,), Gaussian(), GE), 60, 0.0),
    ], ids=["ar1", "ar2_tilted", "ma1", "ma1_m0.99"])
    def test_lazy_residual_matches_eager(self, model, n, delta):
        # the residual is formed only once lambda has settled; the result is
        # byte-equal to forming it on every step
        kop = op.assemble(model, op.default_grid(model, None, n), delta=delta)
        res = op.spectral_radius(kop)
        lam, it, residual, psi = _eager_power_iteration(kop)
        assert (res.lam, res.iterations, res.residual) == (lam, it, residual)
        assert res.psi.tobytes() == psi.tobytes()

    def test_periodic_kernel_yields_its_perron_root(self):
        # a permutation-like kernel drives power iteration into a 2-cycle
        # (estimates 2, 0.5, 2, ...); the Ritz block spans both phases and
        # holds the Perron pair rho = 1, psi = (1, 0.5)
        grid = op.build_grid(0.0, 1.0, 2)
        kmat = np.array([[0.0, 2.0], [0.5, 0.0]])
        kop = op.DiscretizedOperator(grid, kmat)
        res = op.spectral_radius(kop, tol=1e-12, max_iter=200)
        assert res.lam == pytest.approx(1.0, abs=1e-12)
        assert res.psi == pytest.approx([1.0, 0.5], abs=1e-12)
        assert res.residual < 1e-12

    def test_slow_mixing_ma1_pinned_without_subnormals(self):
        # MA(1) a1=-1 mixes slowly: 3,874 iterations drive the iterate's tail
        # below the normal range, where it is flushed to zero
        m = MAModel((-1.0,), Gaussian(), GE)
        res = op.solve_operator(m, n=400)
        assert res.lam == pytest.approx(0.015178073361816272, abs=1e-12)
        assert res.iterations == 3874
        tiny = np.finfo(float).tiny
        assert not np.any((res.psi > 0.0) & (res.psi < tiny))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_tol_must_be_finite_and_positive(self, tol):
        kop = op.DiscretizedOperator(op.build_grid(0.0, 1.0, 2), np.eye(2))
        with pytest.raises(ValueError, match="finite tol > 0"):
            op.spectral_radius(kop, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True, "10"])
    def test_max_iter_must_be_a_positive_count(self, max_iter):
        kop = op.DiscretizedOperator(op.build_grid(0.0, 1.0, 2), np.eye(2))
        with pytest.raises(ValueError, match="max_iter"):
            op.spectral_radius(kop, max_iter=max_iter)

    @pytest.mark.parametrize("model,delta", [
        (ARModel((0.3,), Gaussian(), IIDInnovation(), GE), "auto"),
        (MAModel((0.5,), Gaussian(), GE), "auto"),
    ], ids=["ar", "ma"])
    def test_spectral_result_payload(self, model, delta):
        payload = op.solve_operator(model, n=60, delta=delta).to_json()
        assert set(payload) == {"lambda", "residual", "iterations", "converged", "grid", "delta"}
        assert set(payload["grid"]) == {"lo", "hi", "n", "d"}
        assert payload["grid"]["n"] == 60
        # the AR tilt as resolved from "auto"; the MA kernel takes none
        assert payload["delta"] == (op.default_delta(model) if isinstance(model, ARModel) else 0.0)


def _dense_kernel(kop):
    """A d = 1 operator as a matrix, column by column from apply."""
    return np.column_stack([kop.apply(e) for e in np.eye(kop.grid.n)])


class TestDenseReference:
    # (model, N, delta, gate on |lambda - dense Perron root|); the gate is
    # looser only where the top two eigenvalues nearly meet (lambda_2 /
    # lambda_1 = 0.99995 at a1 = -0.99 and 0.9985 at a1 = -1)
    @pytest.mark.parametrize("model,n,delta,gate", [
        (ARModel((0.4,), Gaussian(), IIDInnovation(), GE), 400, 0.3, 1e-10),
        (ARModel((0.9,), Gaussian(), IIDInnovation(), GE), 400, "auto", 1e-10),
        (ARModel((-1.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE), 400, 0.0, 1e-10),
        (ARModel((-0.5,), Exponential(), IIDInnovation(), GE), 400, 0.3, 1e-10),
        (MAModel((1.0,), Gaussian(), GE), 400, 0.0, 1e-10),
        (MAModel((-0.5,), Exponential(), GE), 400, 0.0, 1e-10),
        (MAModel((-0.99,), Gaussian(), GE), 400, 0.0, 1e-8),
        (MAModel((-1.0,), Gaussian(), GE), 400, 0.0, 1e-8),
    ], ids=["ar1_gauss_0.4_tilted", "ar1_gauss_0.9_auto", "ar1_unif_m1", "ar1_exp_m0.5",
            "ma1_gauss_1", "ma1_exp_m0.5", "ma1_gauss_m0.99", "ma1_gauss_m1"])
    def test_lambda_is_the_dense_perron_root(self, model, n, delta, gate):
        kop = op.assemble(model, op.default_grid(model, None, n), delta=delta)
        lam_dense = float(np.linalg.eigvals(_dense_kernel(kop)).real.max())
        res = op.spectral_radius(kop)
        assert abs(res.lam - lam_dense) <= gate
        assert res.psi.min() >= 0.0
        assert res.psi.max() == 1.0


class TestReferenceValues:
    def test_ar1_uniform_symmetric(self):
        m = ARModel((-1.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
        res = op.solve_operator(m, n=400)
        assert res.lam == pytest.approx(1.0 / math.pi, abs=1e-5)

    def test_ar1_uniform_asymmetric(self):
        m = ARModel((-1.0,), Uniform(-1.0, 3.0), IIDInnovation(), GE)
        res = op.solve_operator(m, n=400)
        assert res.lam == pytest.approx(6.0 / (4.0 * math.pi), abs=1e-5)

    def test_ma1_gaussian_symmetric(self):
        m = MAModel((1.0,), Gaussian(), GE)
        res = op.solve_operator(m, m=8.0, n=300)
        assert res.lam == pytest.approx(2.0 / math.pi, abs=5e-3)

    def test_ma1_uniform_root_case(self):
        m = MAModel((1.0,), Uniform(-1.0, 3.0), GE)
        res = op.solve_operator(m, n=400)
        assert res.lam == pytest.approx(0.8993316389440023, abs=1e-4)

    def test_ma1_exponential_family(self):
        # the default truncation is generous for the heavy decay here, so a
        # tighter box keeps N=300 accurate
        for a1 in (-0.9, -0.5):
            m = MAModel((a1,), Exponential(), GE)
            res = op.solve_operator(m, m=6.0, n=300)
            assert res.lam == pytest.approx(1.0 + a1, abs=1e-3)

    def test_ar1_exponential_contractive(self):
        m = ARModel((-0.5,), Exponential(), IIDInnovation(), GE)
        res = op.solve_operator(m, n=300)
        assert res.lam == pytest.approx(1.0 / 1.5, abs=1e-3)


class TestSweeps:
    def test_truncation_lambdas_monotone(self):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        family = op.truncation_lambdas(m, [2.0, 4.0, 6.0], 400)
        ms, lams = family["Ms"], family["lambdas"]
        assert list(ms) == [2.0, 4.0, 6.0]
        assert all(b - a >= -1e-9 for a, b in zip(lams, lams[1:]))
        assert family["monotone"] is True
        assert lams[-1] == pytest.approx(0.69224, abs=1e-3)

    @pytest.mark.parametrize("model, ms, n_ref, delta", [
        (MAModel((-0.5,), Exponential(), GE), [2.0, 4.0, 9.0], 400, 0.0),
        (MAModel((1.0,), Gaussian(), GE), [2.0, 4.0, 6.0], 400, 0.0),
        (ARModel((0.3, 0.2), Gaussian(), IIDInnovation(), GE), [2.0, 4.0], 60, "auto"),
    ], ids=["ma1_exp_m0.5", "ma1_gauss_1", "ar2_gauss_auto_delta"])
    def test_truncation_lambdas_monotone_more_models(self, model, ms, n_ref, delta):
        # the family restricts the solve grid, so its largest member is the
        # (largest M, n_ref) solve itself, bit for bit
        family = op.truncation_lambdas(model, ms, n_ref, delta=delta)
        lams = family["lambdas"]
        assert family["Ms"] == ms
        assert all(b - a >= -1e-9 for a, b in zip(lams, lams[1:]))
        assert family["monotone"] is True
        assert lams[-1] == op.solve_operator(model, m=ms[-1], n=n_ref, delta=delta).lam

    @pytest.mark.parametrize("model, ms, n, delta", [
        (ARModel((0.4,), Gaussian(), IIDInnovation(), GE), [2.0, 4.0, 6.0], 200, 0.0),
        (ARModel((0.5, -0.3), Exponential(), IIDInnovation(), GE), [3.0, 6.0, 12.0], 40, 0.2),
        (MAModel((2.0,), Gaussian(), GE), [1.5, 3.0, 6.0], 200, 0.0),
        (MAModel((-0.5,), Exponential(), GE), [2.0, 4.0, 9.0], 200, 0.0),
        (MAModel((0.5, -0.2), Gaussian(), GE), [2.0, 4.0, 6.0], 60, 0.0),
        (AR2, [2.0, 4.0, 6.0], N_DRIFT, "auto"),
    ], ids=["exact_ar1_gauss", "exact_ar2_exp", "ma1_gauss_2", "ma1_exp_m0.5", "ma2_gauss",
            "drift_table"])
    def test_truncation_family_restricts_the_largest_member(self, monkeypatch, model, ms, n,
                                                            delta):
        assembled, ops = [], []
        assemble, solve = op.assemble, op.spectral_radius

        def counted(*args, **kwargs):
            assembled.append(args)
            return assemble(*args, **kwargs)

        def kept(kop, *args, **kwargs):
            ops.append(kop)
            return solve(kop, *args, **kwargs)

        monkeypatch.setattr(op, "assemble", counted)
        monkeypatch.setattr(op, "spectral_radius", kept)
        family = op.truncation_lambdas(model, ms, n, delta=delta)
        monkeypatch.undo()
        assert len(assembled) == 1
        assert family["monotone"] is True
        assert family["lambdas"][-1] == op.solve_operator(model, m=ms[-1], n=n, delta=delta).lam
        largest, d = ops[-1], model.order
        rng = np.random.default_rng(11)
        for kop, lam in zip(ops[:-1], family["lambdas"]):
            k = kop.grid.n
            i0 = int(np.searchsorted(largest.grid.nodes, kop.grid.nodes[0]))
            assert k < n
            assert np.array_equal(kop.grid.nodes, largest.grid.nodes[i0:i0 + k])
            if kop.start is None:
                # the exact table's member is a view of the largest table
                assert np.shares_memory(kop.kmat, largest.kmat)
            if kop.kmat is None or kop.start is None:
                # exact and MA members are the operators assembled on their
                # own boxes, bit for bit
                assert lam == op.spectral_radius(op.assemble(model, kop.grid, delta=delta)).lam
                continue
            # a drift table depends on its box's drift range: its member is the
            # largest member's principal submatrix
            g = rng.random((k,) * d)
            padded = np.zeros((n,) * d)
            padded[(slice(0, k),) * d] = g
            expected = largest.apply(padded)[(slice(0, k),) * d]
            assert np.abs(kop.apply(g) - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("a1, innovation, m, sides", [
        (2.0, Gaussian(), 6.0, {"left", "inside", "right"}),
        (-0.5, Exponential(), 9.0, {"left", "inside"}),
        (-2.0, Exponential(), 9.0, {"inside", "right"}),
    ], ids=["gauss_2", "exp_m0.5", "exp_m2"])
    def test_ma_restriction_is_the_box_assembly(self, a1, innovation, m, sides):
        # a box that starts past the grid's first cell, with cut cells on
        # either side of it: the restricted rows are the rows assembled on it
        model = MAModel((a1,), innovation, GE)
        full = op.assemble(model, op.default_grid(model, m, 120))
        i0, i1 = 30, 80
        kop = op._restrict(full, i0, i1)
        cells = full.start[i0:i1][full.coef[i0:i1] > 0.0] - 1
        assert set(np.where(cells < i0, "left", np.where(cells < i1, "inside", "right"))) == sides
        ref = op.assemble(model, kop.grid)
        for name in ("base", "start", "coef"):
            assert np.array_equal(getattr(kop, name), getattr(ref, name))
        assert op.spectral_radius(kop).lam == op.spectral_radius(ref).lam

    def test_truncation_family_peaks_at_one_solve(self):
        # the family holds one table, its largest member's, and every smaller
        # member is a view of it; assembling each member anew read 1.24x here
        model = ARModel((0.5, -0.3), Exponential(), IIDInnovation(), GE)
        op.solve_operator(model, n=10)
        peaks = []
        for run in (lambda: op.truncation_lambdas(model, [6.0, 9.0, 12.0], 100),
                    lambda: op.solve_operator(model, m=12.0, n=100)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 1% of the 8 MB table covers the family's index arrays and results
        assert peaks[0] <= 1.01 * peaks[1]

    def test_empty_truncation_list_named(self):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        with pytest.raises(ValueError, match="need a nonempty list of truncations M"):
            op.truncation_lambdas(m, [], 40)

    def test_bounded_support_saturates(self):
        # once the box covers the reachable states, growing it changes nothing
        m = ARModel((-1.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
        res = op.convergence_sweep(m, [1.0, 2.0, 4.0], [200])
        lams = [row["lambda"] for row in res["table"]]
        assert lams[0] == pytest.approx(lams[1], abs=1e-12)
        assert lams[1] == pytest.approx(lams[2], abs=1e-12)

    def test_gaussian_truncation_converged(self):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        res = op.convergence_sweep(m, [6.0, 8.0], [800], delta=0.25)
        lams = {row["M"]: row["lambda"] for row in res["table"]}
        assert abs(lams[6.0] - lams[8.0]) < 1e-4

    def test_node_refinement_converged(self):
        m = ARModel((-1.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
        res = op.convergence_sweep(m, [1.5], [400, 800])
        lams = {row["N"]: row["lambda"] for row in res["table"]}
        assert abs(lams[400] - lams[800]) < 1e-4

    def test_sweep_reports_reference_and_diffs(self):
        m = ARModel((0.4,), Gaussian(), IIDInnovation(), GE)
        res = op.convergence_sweep(m, [4.0, 6.0], [100, 200])
        assert res["M_ref"] == 6.0 and res["N_ref"] == 200
        ref_row = [r for r in res["table"] if r["M"] == 6.0 and r["N"] == 200][0]
        assert ref_row["diff"] == 0.0
        assert res["truncation"]["monotone"] is True

    def test_truncation_family_ends_at_reference_cell(self):
        m = ARModel((0.4,), Gaussian(), IIDInnovation(), GE)
        res = op.convergence_sweep(m, [4.0, 6.0], [100, 200])
        assert res["truncation"]["Ms"] == [4.0, 6.0]
        assert res["truncation"]["lambdas"][-1] == res["lambda_ref"]

    def test_sweep_solves_finest_cell_once(self, monkeypatch):
        # 8 table cells plus 3 truncation members; the finest cell is the
        # family's last member, not a twelfth solve
        calls = []
        solve = op.spectral_radius

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(op, "spectral_radius", counted)
        m = ARModel((0.4,), Gaussian(), IIDInnovation(), GE)
        res = op.convergence_sweep(m, [4, 6, 8], [100, 200, 400])
        assert len(calls) == 11
        assert len(res["table"]) == 9
        assert res["table"][-1] == {"M": 8.0, "N": 400, "lambda": res["lambda_ref"], "diff": 0.0}


class TestRefusals:
    """Each input an operator entry point refuses, with the message it gives."""

    @pytest.mark.parametrize("assemble, model, grid, message", [
        (op.assemble_ar, MAModel((0.5,), Gaussian(), GE), op.build_grid(0.0, 1.0, 8),
         "assemble_ar expects an AR model"),
        (op.assemble_ar, ARModel((0.5,), Gaussian(), IIDInnovation(), GE),
         op.build_grid(-1.0, 1.0, 8), "the AR state axis must start at 0, got lo=-1.0"),
        (op.assemble_ar, ARModel((0.5,), Rademacher(), IIDInnovation(), GE),
         op.build_grid(0.0, 1.0, 8),
         "the AR operator needs an innovation density; atomic laws are handled in closed form"),
        (op.assemble_ar, ARModel((0.5, 0.2), Gaussian(), IIDInnovation(), GE),
         op.build_grid(0.0, 1.0, 8), "grid dimension 1 does not match model order 2"),
        (op.assemble_ma, ARModel((0.5,), Gaussian(), IIDInnovation(), GE),
         op.build_grid(-1.0, 1.0, 8), "assemble_ma expects an MA model"),
        (op.assemble_ma, MAModel((1.0,), Rademacher(), GE), op.build_grid(-1.0, 1.0, 8),
         "the MA operator needs an innovation density; atomic laws are handled in closed form"),
        (op.assemble_ma, MAModel((0.5, 0.2), Gaussian(), GE), op.build_grid(-1.0, 1.0, 8),
         "grid dimension 1 does not match model order 2"),
        (op.assemble_ma, MAModel((0.5,), Gaussian(), GE), op.build_grid(-1.0, 1.0, 8, d=2),
         "grid dimension 2 does not match model order 1"),
    ], ids=["ar_on_ma", "ar_lo", "ar_atomic", "ar_dimension", "ma_on_ar", "ma_atomic",
            "ma_dimension", "ma_dimension_above"])
    def test_kernel_input_refused(self, assemble, model, grid, message):
        # an atomic law has its own error class; every other refusal is a ValueError
        atomic = isinstance(model.innovation, Rademacher)
        with pytest.raises(RequestedDensityOfAtomicLaw if atomic else ValueError,
                           match=f"^{re.escape(message)}$"):
            assemble(model, grid)

    def test_zero_dimension_grid(self):
        with pytest.raises(ValueError, match="need dimension >= 1, got 0"):
            op.build_grid(0.0, 1.0, 8, d=0)

    @pytest.mark.parametrize("model, shape", [
        (ARModel((0.5,), Gaussian(), IIDInnovation(), GE), (5,)),
        (MAModel((0.5, 0.2), Gaussian(), GE), (8,)),
    ], ids=["ar_table", "ma_suffix_sums"])
    def test_apply_refuses_a_misshapen_vector(self, model, shape):
        kop = op.assemble(model, op.default_grid(model, 4.0, 8))
        wants = (8,) * model.order
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}, grid wants {wants}")):
            kop.apply(np.ones(shape))

    def test_truncation_keeping_under_two_nodes(self):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        with pytest.raises(ValueError, match="M=0.001 keeps fewer than 2 nodes"):
            op.truncation_lambdas(m, [0.001, 6.0], 10)

    @pytest.mark.parametrize("ms, ns", [([], [50]), ([4.0], [])])
    def test_convergence_sweep_needs_both_lists(self, ms, ns):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        with pytest.raises(ValueError, match="need nonempty M and N lists"):
            op.convergence_sweep(m, ms, ns)
