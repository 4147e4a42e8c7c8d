import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import DenseOperator
from conftest import dense_apply as _dense_apply
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
        assert op.default_truncation(Gaussian()) == 9.700426612098628
        assert op.default_truncation(Gaussian(2.0)) == 1.5 * Gaussian(2.0).tail_radius()
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
        table = _factored_table(op.assemble_ar(m, grid))
        sums = table.sum(axis=-1)
        assert np.all(sums <= 1.0 + 1e-12)
        assert np.all(table >= 0.0)

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
        # a law with a support endpoint takes window sums at order 2: base
        # over the new coordinate, the rest over the 144 states
        m = ARModel((0.3, 0.2), Exponential(), IIDInnovation(), GE)
        grid = op.build_grid(0.0, 4.0, 12, d=2)
        kop = op.assemble_ar(m, grid)
        assert kop.kmat is None and kop.stop is None and kop.base.shape == (12,)
        assert {a.shape for a in (kop.start, kop.coef, kop.scale)} == {(144,)}
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


def _check_against_the_table(kop, model):
    """kop's images of the ones and of a random vector are finite and within
    1e-13 of the one-shot table's, relative to the largest image entry, and
    its lambda and iterations are the table's."""
    grid = kop.grid
    table = DenseOperator(grid, _one_shot_kmat(model, grid, kop.delta), kop.delta)
    shape = (grid.n,) * grid.d
    for g in (np.ones(shape), np.random.default_rng(7).random(shape)):
        out, expected = kop.apply(g), table.apply(g)
        assert np.all(np.isfinite(out))
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()
    res, ref = op.spectral_radius(kop), op.spectral_radius(table)
    assert abs(res.lam - ref.lam) <= 1e-13 and res.iterations == ref.iterations


# uniform and exponential AR models at d = 1..3, each with its M (None for
# the default) and N; among them a support narrower than one cell (at M = 1
# most windows lie inside one cell) and a1 = 3, whose upper rows' windows
# miss the box
WINDOW_CASES = [
    (ARModel((-0.7,), Exponential(), IIDInnovation(), GE), 7.0, 300),
    (ARModel((-1.0,), Uniform(-1.0, 3.0), IIDInnovation(), GE), None, 200),
    (ARModel((0.3, 0.2), Uniform(-1.0, 1.0), IIDInnovation(), GE), 7.0, 60),
    (ARModel((0.3, -0.5), Uniform(-0.5, 1.5), IIDInnovation(), GE), None, 30),
    (ARModel((0.5, -0.3), Exponential(), IIDInnovation(), GE), 7.0, 45),
    (ARModel((0.3, 0.2, 0.1), Uniform(-1.0, 1.0), IIDInnovation(), GE), None, 12),
    (ARModel((0.5, -0.3, 0.2), Exponential(), IIDInnovation(), GE), 7.0, 14),
    (ARModel((0.5,), Uniform(-1e-3, 1e-3), IIDInnovation(), GE), 1.0, 20),
    (ARModel((3.0,), Exponential(), IIDInnovation(), GE), 7.0, 60),
]
WINDOW_IDS = ["ar1_exp_m0.7", "ar1_unif_m1_asym", "ar2_unif", "ar2_unif_shifted", "ar2_exp",
              "ar3_unif", "ar3_exp", "ar1_unif_narrow", "ar1_exp_3"]


class TestWindowSums:
    @pytest.mark.parametrize("model, m, n", WINDOW_CASES, ids=WINDOW_IDS)
    @pytest.mark.parametrize("delta", [0.0, 0.35, "auto"])
    def test_apply_and_lambda_match_the_one_shot_table(self, model, m, n, delta):
        kop = op.assemble(model, op.default_grid(model, m, n), delta=delta)
        _check_against_the_table(kop, model)

    @pytest.mark.parametrize("model", [WINDOW_CASES[0][0], WINDOW_CASES[4][0]],
                             ids=["ar1_exp_m0.7", "ar2_exp"])
    @pytest.mark.parametrize("delta", [0.0, "auto"])
    def test_lambda_and_iterations_match_at_the_default_truncation(self, model, delta):
        # at the default M = 34.5 the tilted table's CDF differences near 1
        # lose their digits to e^(delta M) (the window form computes
        # e^(s - e_j) (1 - e^-w_j) instead), so only lambda and the
        # iteration count are compared
        grid = op.default_grid(model, None, 40 if model.order == 2 else 300)
        kop = op.assemble(model, grid, delta=delta)
        table = DenseOperator(grid, _one_shot_kmat(model, grid, kop.delta), kop.delta)
        res, ref = op.spectral_radius(kop), op.spectral_radius(table)
        assert abs(res.lam - ref.lam) <= 1e-13 and res.iterations == ref.iterations

    def test_rows_whose_window_misses_the_box_stay_finite(self):
        # a1 = 3 on [0, 600]: rows past x_1 = 200 start their window above the
        # box, with e^s up to e^1800; the cap keeps them at 0, not inf * 0
        model = ARModel((3.0,), Exponential(), IIDInnovation(), GE)
        kop = op.assemble(model, op.default_grid(model, 600.0, 80))
        assert np.all(np.isfinite(kop.scale))
        row_sums = kop.apply(np.ones(80))
        assert np.all(row_sums[kop.grid.nodes * 3.0 >= kop.grid.hi] == 0.0)
        _check_against_the_table(kop, model)

    def test_refused_past_its_range(self):
        m = ARModel((0.5,), Exponential(), IIDInnovation(), GE)
        op.solve_operator(m, m=op._WINDOW_RANGE, n=20)
        with pytest.raises(ValueError, match=re.escape(
                "no window form on the box [0.0, 701.0]: its end exceeds 700")):
            op.solve_operator(m, m=701.0, n=20)

    @pytest.mark.parametrize("law", [Uniform(-2.0, -1.0), Uniform(-1.0, 0.0)],
                             ids=["hi_m1", "hi_0"])
    def test_empty_state_axis_named(self, law):
        # coefficients <= 0 and y <= 0 leave S at the first step
        m = ARModel((-0.5,), law, IIDInnovation(), GE)
        with pytest.raises(ValueError, match=re.escape(
                f"the AR state axis is empty: coefficients <= 0 and a law bounded above by "
                f"hi = {law.hi} <= 0 leave S at the first step")):
            op.default_grid(m, None, 10)

    # (coefficients, N, delta, bound): the exact table would take 64 MB and
    # 104 MB; the window sums peak at about 5.2 MB and 28 MB
    @pytest.mark.parametrize("coeffs, n, delta, bound", [
        ((0.5, -0.3), 200, "auto", 8e6),
        ((0.5, -0.3, 0.2), 60, 0.0, 40e6),
    ], ids=["ar2", "ar3"])
    def test_exponential_solve_peaks_below_the_table(self, coeffs, n, delta, bound):
        m = ARModel(coeffs, Exponential(), IIDInnovation(), GE)
        op.solve_operator(m, n=10, delta=delta)
        tracemalloc.start()
        try:
            op.solve_operator(m, n=n, delta=delta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestApply:
    @pytest.mark.parametrize("coeffs,n", [((0.3, 0.2), 50), ((0.3, 0.2, 0.1), 14)])
    def test_matches_einsum(self, coeffs, n):
        # the window sums at order >= 2 serve the laws with a support endpoint
        m = ARModel(coeffs, Exponential(), IIDInnovation(), GE)
        kop = op.assemble_ar(m, op.default_grid(m, 6.0, n), delta=0.3)
        d = len(coeffs)
        g = np.random.default_rng(5).random((n,) * d)
        expected = _dense_apply(_one_shot_kmat(m, kop.grid, 0.3), g)
        out = kop.apply(g)
        assert out.shape == (n,) * d
        assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()

    # lambda and iterations at d = 1 and d = 2; ar1_gauss_0.4 (N = 400) is
    # warm-started from its 40-node solve, the N = 60 pins are cold. A cold
    # solve of each Gaussian operator equals the cold solve of
    # _density_table's exact table on the same grid
    @pytest.mark.parametrize("coeffs,innovation,n,delta,lam,iterations", [
        ((0.4,), Gaussian(), 400, 0.3, 0.6477665857489595, 2),
        ((-0.5,), Exponential(), 400, 0.3, 0.666647748564583, 3),
        ((0.5, -0.3), Gaussian(), 60, 0.0, 0.5521273970403443, 23),
        ((0.3, 0.2), Gaussian(), 60, "auto", 0.7003321186514562, 25),
    ], ids=["ar1_gauss_0.4", "ar1_exp_m0.5", "ar2_0.5_m0.3", "ar2_0.3_0.2_auto"])
    def test_lambda_and_iterations_pinned(self, coeffs, innovation, n, delta, lam, iterations):
        m = ARModel(coeffs, innovation, IIDInnovation(), GE)
        res = op.solve_operator(m, n=n, delta=delta)
        assert res.lam == pytest.approx(lam, abs=1e-13)
        assert res.iterations == iterations
        if isinstance(innovation, Gaussian):
            cold = op.spectral_radius(op.assemble(m, res.grid, delta=res.delta))
            table = _density_table(m, res.grid, res.delta)
            ref = op.spectral_radius(DenseOperator(res.grid, table, res.delta))
            assert (ref.lam, ref.iterations) == (pytest.approx(cold.lam, abs=1e-15),
                                                 cold.iterations)
            assert res.iterations <= cold.iterations


def _density_table(model, grid, delta, rows=slice(None)):
    """The Gaussian AR kernel w_j phi(z_j - s(x)) exp(delta (z_j - x_1)) as a
    table over the states whose x_1 is nodes[rows], every entry evaluated
    directly."""
    d, sd = model.order, model.innovation.sd
    cols = [grid.nodes.reshape((-1,) + (1,) * (d - 1 - k)) for k in range(d)]
    cols[0] = cols[0][rows]
    y = (grid.nodes - drift(model.coeffs, cols)[..., None]) / sd
    table = np.exp(-0.5 * y * y) / (sd * math.sqrt(2.0 * math.pi)) * grid.weights
    return table * np.exp(delta * (grid.nodes - cols[0][..., None]))


def _factored_table(kop, rows=slice(None)):
    """The table that a Gaussian operator's factors hold, over the states whose
    x_1 is nodes[rows]."""
    table = kop.coef[rows, :, None] * (kop.kmat[rows, None, :] * kop.base)
    return table.reshape((-1,) + (kop.grid.n,) * kop.grid.d)


# the AR(2) grid size of the factored-form tests
N_AR2 = 129
AR2 = ARModel((0.3, 0.2), Gaussian(), IIDInnovation(), GE)


def _table_apply(kop, g):
    """A density-form apply through the whole kmat table in one contraction."""
    weighted = g.reshape(kop.base.shape) * kop.base
    return (np.einsum("iz,kz->ik", kop.kmat, weighted) * kop.coef).reshape(g.shape)


class TestDensityFactors:
    # the kernel form follows the law, at every order and n
    @pytest.mark.parametrize("model, n, factored", [
        (AR2, 12, True),
        (AR2, 128, True),
        (ARModel((0.4,), Gaussian(), IIDInnovation(), GE), 1500, True),
        (ARModel((0.3, 0.2, 0.1), Gaussian(), IIDInnovation(), GE), 20, True),
        (ARModel((0.5, -0.3), Exponential(), IIDInnovation(), GE), 12, False),
        (ARModel((0.5, -0.3), Exponential(), IIDInnovation(), GE), N_AR2, False),
        (ARModel((0.3, 0.2), Uniform(-1.0, 1.0), IIDInnovation(), GE), 12, False),
    ], ids=["gaussian_ar2_12", "gaussian_ar2_128", "gaussian_ar1_1500", "gaussian_ar3_20",
            "exponential_ar2_12", "exponential_ar2_129", "uniform_ar2_12"])
    def test_kernel_form_follows_the_law(self, model, n, factored):
        grid = op.default_grid(model, None, n)
        kop = op.assemble_ar(model, grid, delta=0.3)
        d = model.order
        if factored:
            assert kop.start is None
            shapes = (kop.kmat.shape, kop.base.shape, kop.coef.shape)
            assert shapes == ((n, n), (n ** (d - 1), n), (n, n ** (d - 1)))
        else:
            # only the uniform's windows have an upper end inside the box
            assert kop.kmat is None and kop.base.shape == (n,)
            bounded = isinstance(model.innovation, Uniform)
            windows = (kop.start, kop.coef, kop.scale) + ((kop.stop, kop.upper) if bounded else ())
            assert {a.shape for a in windows} == {(n ** d,)}
            assert (kop.stop is None) is not bounded
            g = np.random.default_rng(2).random((n,) * d)
            expected = _dense_apply(_one_shot_kmat(model, grid, 0.3), g)
            assert np.abs(kop.apply(g) - expected).max() <= 1e-13 * expected.max()

    # (coefficients, sd, M in units of sd or None for the default, N): the
    # operator benchmark's two Gaussian AR cases, |a_d| = 10 at the default M
    # and 2 at M = 25 sd, the edges of the factored form's range, an AR(3)
    # and two scales
    @pytest.mark.parametrize("coeffs, sd, m, n", [
        ((0.9,), 1.0, None, 1600),
        ((0.3, 0.2), 1.0, None, 200),
        ((10.0,), 1.0, None, 200),
        ((-10.0,), 1.0, None, 200),
        ((0.3, 10.0), 1.0, None, 60),
        ((2.0,), 1.0, 25.0, 200),
        ((-2.0,), 1.0, 25.0, 200),
        ((5.0, -2.0), 1.0, 25.0, 60),
        ((0.3, 0.2, 0.1), 1.0, None, 20),
        ((0.5, 0.3), 0.01, None, 60),
        ((0.5, 0.3), 100.0, None, 60),
    ], ids=["ar1_0.9", "ar2_0.3_0.2", "ar1_10", "ar1_m10", "ar2_0.3_10", "ar1_2_m25",
            "ar1_m2_m25", "ar2_5_m2_m25", "ar3", "ar2_sd0.01", "ar2_sd100"])
    def test_entries_and_apply_match_the_dense_table(self, coeffs, sd, m, n):
        model = ARModel(coeffs, Gaussian(sd), IIDInnovation(), GE)
        grid = op.default_grid(model, None if m is None else m * sd, n)
        delta = op.default_delta(model)
        kop = op.assemble_ar(model, grid, delta=delta)
        g = np.random.default_rng(5).random((n,) * model.order)
        expected = np.empty_like(g)
        largest = worst = 0.0
        # the table is built in slabs of x_1 of about 2^20 entries
        step = max(1, (1 << 20) // n ** model.order)
        for i in range(0, n, step):
            rows = slice(i, i + step)
            table = _density_table(model, grid, delta, rows)
            largest = max(largest, float(table.max()))
            worst = max(worst, float(np.abs(_factored_table(kop, rows) - table).max()))
            expected[rows] = _dense_apply(table, g)
        assert worst <= 1e-13 * largest
        assert np.abs(kop.apply(g) - expected).max() <= 1e-13 * np.abs(expected).max()
        # the apply forms kmat in row blocks, and each output entry keeps its
        # own sum over z: the bytes of the whole table's contraction, on the
        # operator and on a restricted member
        for member in (kop, op._restrict(kop, 0, 2 * n // 3)):
            h = g[(slice(0, member.grid.n),) * model.order]
            assert member.apply(h).tobytes() == _table_apply(member, h).tobytes()

    def test_ar1_solve_holds_no_table(self):
        # the (N, N) kmat at N = 1600 alone would take 20.5 MB; the row blocks
        # take 0.5 MB and the solve peaks at about 2 MB
        m = ARModel((0.9,), Gaussian(), IIDInnovation(), GE)
        op.solve_operator(m, n=10, delta="auto")
        tracemalloc.start()
        try:
            op.solve_operator(m, n=1600, delta="auto")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_refused_past_its_range(self):
        # |a_d| (M / 2sd)^2 = 781 at a_d = 5, M = 25 sd
        m = ARModel((5.0, 5.0), Gaussian(), IIDInnovation(), GE)
        with pytest.raises(ValueError, match=re.escape(
                "no factored form at a_d = 5.0 on the box [0.0, 25.0] with sd 1.0")):
            op.solve_operator(m, m=25.0, n=20)

    @pytest.mark.parametrize("coeffs", [(0.5,), (0.9,), (0.3, 0.2), (0.3, 0.2, 0.1)])
    def test_lambda_settles_by_n_30(self, coeffs):
        m = ARModel(coeffs, Gaussian(), IIDInnovation(), GE)
        lams = [op.solve_operator(m, n=n, delta="auto").lam for n in (30, 40, 60)]
        assert max(lams) - min(lams) <= 1e-11

    @pytest.mark.parametrize("n", [20, 40, 80])
    @pytest.mark.parametrize("delta", [0.0, "auto"])
    def test_iid_case_is_one_half(self, n, delta):
        m = ARModel((0.0,), Gaussian(), IIDInnovation(), GE)
        assert abs(op.solve_operator(m, n=n, delta=delta).lam - 0.5) <= 1e-13

    # the cell masses converge as N^-2; AR(2) takes them at N = 100 and 200,
    # since its table at N = 800 would take 4 GB
    @pytest.mark.parametrize("coeffs, n_cells", [((0.5,), 400), ((0.9,), 400),
                                                 ((0.3, 0.2), 100)])
    def test_n_40_within_the_cell_mass_two_grid_difference(self, coeffs, n_cells):
        m = ARModel(coeffs, Gaussian(), IIDInnovation(), GE)
        delta = op.default_delta(m)
        cells = []
        for n in (n_cells, 2 * n_cells):
            grid = op.default_grid(m, None, n)
            exact = DenseOperator(grid, _one_shot_kmat(m, grid, delta), delta)
            cells.append(op.spectral_radius(exact).lam)
        richardson = (4.0 * cells[1] - cells[0]) / 3.0
        lam = op.solve_operator(m, n=40, delta="auto").lam
        assert abs(lam - richardson) <= abs(cells[1] - cells[0])

    @pytest.mark.parametrize("check", ["nonnegativity", "conjugation", "truncation"])
    def test_operator_properties_hold(self, check):
        case = {"process": "ar", "coeffs": [0.3, 0.2], "innovation": {"kind": "gaussian"},
                "operator": {"N": 40}}
        ok, details = harness.PROPERTY_CHECKS[check](case, 0)
        assert ok, details

    def test_ar2_solve_peaks_below_the_exact_table(self):
        # the exact AR(2) table at N = 128 alone would take 128^3 * 8 B =
        # 16.8 MB; the factored form's solve peaks at about 1.5 MB
        op.solve_operator(AR2, n=10)
        tracemalloc.start()
        try:
            op.solve_operator(AR2, n=128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_ar2_assembly_peak_is_the_factors(self):
        # at N = 400 the three factors take 1.28 MB each and the assembly
        # peaks at about 5.3 MB; a density table would take 512 MB
        grid = op.default_grid(AR2, None, 400)
        op.assemble(AR2, op.default_grid(AR2, None, 10), delta="auto")
        tracemalloc.start()
        try:
            op.assemble(AR2, grid, delta="auto")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    # the Gaussian factors, and the window sums of a tilted exponential AR(2)
    # and of a uniform AR(2), whose windows have both ends
    @pytest.mark.parametrize("innovation, coeffs", [
        ({"kind": "gaussian"}, [0.3, 0.2]),
        ({"kind": "exponential"}, [0.5, -0.3]),
        ({"kind": "uniform", "lo": -1.0, "hi": 1.0}, [0.3, 0.2]),
    ], ids=["gaussian", "exponential", "uniform"])
    def test_entries_and_images_nonnegative(self, innovation, coeffs):
        case = {"process": "ar", "coeffs": coeffs, "innovation": innovation,
                "operator": {"N": N_AR2, "delta": "auto"}}
        model = harness.model_from_json(case)
        kop = op.assemble(model, op.default_grid(model, None, N_AR2), delta="auto")
        parts = (kop.kmat, kop.base, kop.coef, kop.scale, kop.upper)
        assert min(part.min() for part in parts if part is not None) >= 0.0
        g = np.random.default_rng(3).random((N_AR2,) * 2)
        assert kop.apply(g).min() >= 0.0
        ok, details = harness._prop_nonnegativity(case, 0)
        assert ok and details["min_entry_or_image"] >= 0.0

    def test_tilt_leaves_lambda_unchanged(self):
        grid = op.default_grid(AR2, None, N_AR2)
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
        k0 = _dense_kernel(op.assemble_ar(m, grid, delta=0.0))
        k1 = _dense_kernel(op.assemble_ar(m, grid, delta=0.3))
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

    @pytest.mark.parametrize("coeffs, n", [((1.0,), 60), ((0.5, -0.2), 20)], ids=["ma1", "ma2"])
    def test_cdf_once_at_the_edges_and_once_per_cut_row(self, coeffs, n, monkeypatch):
        # the cut cells gather F(e_k) and F(e_k+1) from one call on the n + 1
        # edges; only the cuts themselves take a call of their own
        m = MAModel(coeffs, Gaussian(), GE)
        grid = op.default_grid(m, 6.0, n)
        sizes = []
        cdf = Gaussian.cdf
        monkeypatch.setattr(Gaussian, "cdf", lambda law, x: sizes.append(np.size(x)) or cdf(law, x))
        op.assemble_ma(m, grid)
        cut = -drift(coeffs, [grid.nodes.reshape((-1,) + (1,) * (m.order - 1 - k))
                              for k in range(m.order)])
        rows = np.count_nonzero((cut > grid.lo) & (cut < grid.hi))
        assert 0 < rows <= n ** m.order
        assert sizes == [n + 1, rows]

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
        ((-0.99,), Gaussian(), 400, 0.015595144625096697, 4373),
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
        kop = DenseOperator(grid, kmat)
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
        kop = DenseOperator(grid, np.zeros((3, 3)))
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
        kop = DenseOperator(grid, kmat)
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
        kop = DenseOperator(op.build_grid(0.0, 1.0, 2), np.eye(2))
        with pytest.raises(ValueError, match="finite tol > 0"):
            op.spectral_radius(kop, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True, "10"])
    def test_max_iter_must_be_a_positive_count(self, max_iter):
        kop = DenseOperator(op.build_grid(0.0, 1.0, 2), np.eye(2))
        with pytest.raises(ValueError, match="max_iter"):
            op.spectral_radius(kop, max_iter=max_iter)

    @pytest.mark.parametrize("start, message", [
        (np.ones(3), "got (3,)"),
        (np.ones((2, 1)), "got (2, 1)"),
        (np.array([1.0, math.nan]), "got (2,)"),
        (np.array([1.0, math.inf]), "got (2,)"),
        (np.array([1.0, -1e-300]), "got (2,)"),
        (np.zeros(2), "got (2,)"),
    ], ids=["long", "two_axes", "nan", "inf", "negative", "zero"])
    def test_start_refused(self, start, message):
        kop = DenseOperator(op.build_grid(0.0, 1.0, 2), np.array([[0.6, 0.2], [0.1, 0.3]]))
        with pytest.raises(ValueError, match=re.escape(
                f"start must be finite, >= 0 and not 0, of shape (2,); {message}")):
            op.spectral_radius(kop, start=start)

    def test_start_is_copied_not_normalized_or_returned(self):
        kop = DenseOperator(op.build_grid(0.0, 1.0, 2), np.array([[0.6, 0.2], [0.1, 0.3]]))
        start = np.array([3.0, 2.0])
        res = op.spectral_radius(kop, start=start)
        assert start.tolist() == [3.0, 2.0]
        assert not np.shares_memory(res.psi, start)
        assert res.lam == pytest.approx(max(np.linalg.eigvals(kop.kmat).real), abs=1e-12)
        # an operator that annihilates the start returns the iterate itself
        # at the first step, which must still be a copy of the caller's array
        res = op.spectral_radius(DenseOperator(kop.grid, np.zeros((2, 2))), start=start)
        assert res.lam == 0.0 and not np.shares_memory(res.psi, start)

    @pytest.mark.parametrize("model,delta", [
        (ARModel((0.3,), Gaussian(), IIDInnovation(), GE), "auto"),
        (MAModel((0.5,), Gaussian(), GE), "auto"),
    ], ids=["ar", "ma"])
    def test_spectral_result_payload(self, model, delta):
        payload = op.solve_operator(model, n=60, delta=delta).to_json()
        assert set(payload) == {"lambda", "residual", "iterations", "converged", "grid", "delta",
                                "warm_start"}
        assert set(payload["grid"]) == {"lo", "hi", "n", "d"}
        assert payload["grid"]["n"] == 60
        # the AR tilt as resolved from "auto"; the MA kernel takes none
        assert payload["delta"] == (op.default_delta(model) if isinstance(model, ARModel) else 0.0)
        # N = 60 starts cold; MA always does
        assert payload["warm_start"] is None
        warm = op.solve_operator(model, n=2 * op.WARM_N, delta=delta).to_json()["warm_start"]
        if isinstance(model, ARModel):
            coarse = op.solve_operator(model, n=op.WARM_N, delta=delta)
            assert warm == {"n": op.WARM_N, "iterations": coarse.iterations}
        else:
            assert warm is None


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


class TestWarmStart:
    # (coefficients, sd, M in units of sd or None for the default, N, delta):
    # d = 1-3, delta 0 and "auto", a_d = +-10, M = 25 sd, sd 0.01 and 100
    @pytest.mark.parametrize("coeffs, sd, m, n, delta", [
        ((0.9,), 1.0, None, 200, 0.0),
        ((0.9,), 1.0, None, 200, "auto"),
        ((0.99,), 1.0, None, 200, "auto"),
        ((0.9,), 1.0, 20.0, 200, "auto"),
        ((10.0,), 1.0, None, 200, "auto"),
        ((-10.0,), 1.0, None, 200, "auto"),
        ((2.0,), 1.0, 25.0, 200, 0.0),
        ((-2.0,), 1.0, 25.0, 200, 0.0),
        ((0.3, 0.2), 1.0, None, 96, 0.0),
        ((0.3, 0.2), 1.0, None, 96, "auto"),
        ((0.3, 10.0), 1.0, None, 80, "auto"),
        ((5.0, -2.0), 1.0, 25.0, 80, 0.0),
        ((0.5, 0.3), 0.01, None, 80, "auto"),
        ((0.5, 0.3), 100.0, None, 80, "auto"),
        ((0.3, 0.2, 0.1), 1.0, None, 80, "auto"),
    ], ids=["ar1_0.9", "ar1_0.9_auto", "ar1_0.99_auto", "ar1_0.9_m20", "ar1_10", "ar1_m10",
            "ar1_2_m25", "ar1_m2_m25", "ar2_0.3_0.2", "ar2_0.3_0.2_auto", "ar2_0.3_10",
            "ar2_5_m2_m25", "ar2_sd0.01", "ar2_sd100", "ar3"])
    def test_no_more_iterations_and_the_same_root(self, coeffs, sd, m, n, delta):
        model = ARModel(coeffs, Gaussian(sd), IIDInnovation(), GE)
        warm = op.solve_operator(model, m=None if m is None else m * sd, n=n, delta=delta)
        kop = op.assemble(model, warm.grid, delta=delta)
        cold = op.spectral_radius(kop)
        assert warm.warm_start["n"] == op.WARM_N
        assert warm.iterations <= cold.iterations
        if model.order == 1:
            # TestDenseReference's LAPACK bound
            lam_dense = float(np.linalg.eigvals(_dense_kernel(kop)).real.max())
            assert abs(warm.lam - lam_dense) <= 1e-10
        else:
            assert abs(warm.lam - cold.lam) <= 2e-10 * max(1.0, cold.lam)

    def test_cold_below_twice_warm_n(self):
        # a solve below 2 WARM_N nodes is the cold solve of its operator, bit for bit
        m = ARModel((0.9,), Gaussian(), IIDInnovation(), GE)
        res = op.solve_operator(m, n=2 * op.WARM_N - 1, delta="auto")
        cold = op.spectral_radius(op.assemble(m, res.grid, delta="auto"))
        assert res.warm_start is None
        assert (res.lam, res.iterations) == (cold.lam, cold.iterations)
        assert res.psi.tobytes() == cold.psi.tobytes()

    def test_start_with_zeros_reaches_the_same_root(self):
        # the Gaussian kernel is positive, so a start that is zero on half
        # its nodes still reaches the Perron root
        m = ARModel((0.9,), Gaussian(), IIDInnovation(), GE)
        kop = op.assemble(m, op.default_grid(m, None, 200), delta="auto")
        start = np.ones(200)
        start[100:] = 0.0
        cold = op.spectral_radius(kop)
        res = op.spectral_radius(kop, start=start)
        assert abs(res.lam - cold.lam) <= 2e-10 * max(1.0, cold.lam)
        assert res.psi.min() >= 0.0 and res.psi.max() == 1.0

    def test_fine_node_on_a_coarse_node_takes_its_value(self, monkeypatch):
        # a fine grid holding every coarse node and one node below each: the
        # interpolant takes the coarse psi there, with no division by zero
        m = ARModel((0.9,), Gaussian(), IIDInnovation(), GE)
        coarse = op.build_grid(0.0, 8.0, op.WARM_N)
        below = np.concatenate(([0.5 * coarse.nodes[0]],
                                0.5 * (coarse.nodes[:-1] + coarse.nodes[1:])))
        nodes = np.sort(np.concatenate((coarse.nodes, below)))
        edges = np.concatenate(([0.0], 0.5 * (nodes[:-1] + nodes[1:]), [8.0]))
        grid = op.QuadratureGrid(1, 0.0, 8.0, 2 * op.WARM_N, nodes, np.diff(edges), edges)
        kop = op.assemble(m, grid, delta="auto")
        starts = []
        solve = op.spectral_radius

        def kept(kop, *args, **kwargs):
            starts.append(kwargs.get("start"))
            return solve(kop, *args, **kwargs)

        monkeypatch.setattr(op, "spectral_radius", kept)
        res = op._solve(m, kop)
        monkeypatch.undo()
        psi = op.spectral_radius(op.assemble(m, coarse, delta="auto")).psi
        start = starts[-1][1::2]
        assert res.warm_start is not None and np.isfinite(starts[-1]).all()
        # the start is the interpolant over its maximum, where psi is 1
        scale = start[np.argmax(psi)]
        assert start == pytest.approx(np.maximum(psi * scale, 1e-12), rel=1e-15, abs=0.0)


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
        (ARModel((0.3, 0.2), Uniform(-1.0, 1.0), IIDInnovation(), GE), [0.75, 1.5, 3.0], 40,
         0.2),
        (ARModel((-1.0,), Uniform(-1.0, 3.0), IIDInnovation(), GE), [1.0, 2.0, 3.0], 200, 0.0),
        (MAModel((2.0,), Gaussian(), GE), [1.5, 3.0, 6.0], 200, 0.0),
        (MAModel((-0.5,), Exponential(), GE), [2.0, 4.0, 9.0], 200, 0.0),
        (MAModel((0.5, -0.2), Gaussian(), GE), [2.0, 4.0, 6.0], 60, 0.0),
        (AR2, [2.0, 4.0, 6.0], N_AR2, "auto"),
    ], ids=["factored_ar1_gauss", "window_ar2_exp", "window_ar2_unif", "window_ar1_unif",
            "ma1_gauss_2", "ma1_exp_m0.5", "ma2_gauss", "factored_ar2_gauss"])
    def test_truncation_family_restricts_the_largest_member(self, monkeypatch, model, ms, n,
                                                            delta):
        assembled, ops = [], []
        assemble, solve = op.assemble, op.spectral_radius

        # the density-form operators on WARM_N nodes that warm-start Gaussian
        # members are left out; no member here has WARM_N nodes
        def fine(kop):
            return kop.start is not None or kop.grid.n != op.WARM_N

        def counted(*args, **kwargs):
            kop = assemble(*args, **kwargs)
            if fine(kop):
                assembled.append(kop)
            return kop

        def kept(kop, *args, **kwargs):
            if fine(kop):
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
            if kop.start is not None:
                # window members are the operators assembled on their own
                # boxes, bit for bit
                own = op.assemble(model, kop.grid, delta=delta)
                for name in ("base", "start", "coef", "scale", "stop", "upper"):
                    assert np.array_equal(getattr(kop, name), getattr(own, name))
                assert lam == op.spectral_radius(own).lam
                if isinstance(model, ARModel):
                    _check_against_the_table(kop, model)
                continue
            # a Gaussian member's kmat vectors are views of the largest member's
            assert np.shares_memory(kop.cu, largest.cu) and np.shares_memory(kop.u, largest.u)
            # the Gaussian factors are centred on their box: a member's rows
            # are the largest member's, cut to the box
            box = (slice(i0, i0 + k),) * (d + 1)
            assert np.array_equal(_factored_table(kop), _factored_table(largest)[box])
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
        # the family's largest member is the assembled operator itself, and a
        # smaller member with its solve fits beside it within the peak of the
        # largest member's solve
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
        # 1% covers the family's index arrays and results
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
        # family's last member, not a twelfth solve. The WARM_N-node solves
        # that warm-start them are not counted
        calls = []
        solve = op.spectral_radius

        def counted(kop, *args, **kwargs):
            if kop.grid.n != op.WARM_N:
                calls.append(kop)
            return solve(kop, *args, **kwargs)

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

    def test_grid_past_max_states(self):
        # N^d = MAX_STATES is a grid; N^d above it is not
        assert op.build_grid(0.0, 1.0, 2, d=23).d == 23 and 2 ** 23 == op.MAX_STATES
        with pytest.raises(ValueError, match=re.escape(
                "a grid of N = 3 nodes per axis in d = 15 dimensions has N^d = 14348907 states, "
                "more than MAX_STATES = 8388608")):
            op.build_grid(0.0, 1.0, 3, d=15)

    def test_order_3_at_the_default_n_refused_before_allocating(self):
        # AR(3) at the default N = 400 is 6.4e7 states: solves peak at 81-161
        # bytes per state, so this asked for gigabytes
        m = ARModel((0.3, 0.2, 0.1), Gaussian(), IIDInnovation(), GE)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape("N^d = 64000000 states")):
                op.solve_operator(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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
