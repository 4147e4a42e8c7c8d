import hashlib
import math
import re

import numpy as np
import pytest

from persistx import operator as op
from persistx import simulate as sim
from persistx.model import (
    ARModel,
    Exponential,
    Gaussian,
    IIDInnovation,
    MAModel,
    PointMass,
    Rademacher,
    StationaryAR1Gaussian,
    SurvivalConvention,
    Uniform,
    substream,
)

GE = SurvivalConvention.NON_NEGATIVE
GT = SurvivalConvention.STRICTLY_POSITIVE


class TestPaths:
    def test_ar_path_recursion(self):
        m = ARModel((0.75,), Uniform(-1e-9, 1e-9), PointMass((1.0,)), GE)
        z = sim.sample_paths(m, 4, 1, substream(0, "p"))[0]
        # with near-zero noise the path is the deterministic skeleton
        assert z[0] == pytest.approx(1.0)
        for i in range(1, 5):
            assert z[i] == pytest.approx(0.75 ** i, abs=1e-7)

    def test_ar2_path_skeleton(self):
        m = ARModel((0.5, 0.25), Uniform(-1e-9, 1e-9), PointMass((1.0, 1.0)), GE)
        z = sim.sample_paths(m, 3, 1, substream(0, "p"))[0]
        assert z[0] == pytest.approx(1.0) and z[1] == pytest.approx(1.0)
        assert z[2] == pytest.approx(0.5 * 1.0 + 0.25 * 1.0, abs=1e-7)
        assert z[3] == pytest.approx(0.5 * z[2] + 0.25 * z[1], abs=1e-7)

    # Z_0..Z_5 at substream(5, "path"), pinned: a change in the order in
    # which a path consumes its stream moves every value
    @pytest.mark.parametrize("coeffs, innovation, initial, expected", [
        ((0.4,), Gaussian(), IIDInnovation(),
         [-0.14082972677712058, 0.10144076959792095, 0.6944054442524106,
          0.11086801363382923, 2.1990818828279624, 1.207134897761386]),
        ((0.4,), Gaussian(), PointMass((0.3,)),
         [0.3, -0.020829726777120583, 0.14944076959792096, 0.7136054442524107,
          0.1185480136338293, 2.2021538828279623]),
        ((0.4,), Gaussian(), StationaryAR1Gaussian(0.4),
         [-0.15365782929907246, 0.0963095285891402, 0.6923529478488983,
          0.11004701507242434, 2.1987534834034004, 1.2070035379915613]),
        ((0.5, -0.3), Exponential(), IIDInnovation(),
         [0.5869909942023351, 0.8270947252352214, 1.5976442328111145,
          1.119372087871926, 4.241434905399198, 2.7747245355178505]),
    ], ids=["iid", "point", "stationary", "ar2_iid"])
    def test_ar_path_pinned(self, coeffs, innovation, initial, expected):
        m = ARModel(coeffs, innovation, initial, GE)
        z = sim.sample_paths(m, 5, 1, substream(5, "path"))[0]
        assert z.tolist() == pytest.approx(expected, rel=1e-12)

    def test_ma_path_telescoping_sum(self):
        # with a_1 = -1, partial sums telescope: sum_0^n Z_i = xi_n - xi_{-1}
        m = MAModel((-1.0,), Gaussian(), GE)
        z = sim.sample_paths(m, 50, 1, substream(3, "tele"))[0]
        draws = m.innovation.sample(substream(3, "tele"), 52)
        assert z.shape == (51,)
        assert z.sum() == pytest.approx(draws[-1] - draws[0], abs=1e-10)

    def test_ma_path_matches_direct_formula(self):
        m = MAModel((0.4, -0.3), Exponential(), GE)
        stream = substream(1, "ma")
        z = sim.sample_paths(m, 6, 1, stream)[0]
        draws = m.innovation.sample(substream(1, "ma"), 9)  # xi_{-2}..xi_6
        for i in range(7):
            expected = draws[i + 2] + 0.4 * draws[i + 1] - 0.3 * draws[i]
            assert z[i] == pytest.approx(expected, abs=1e-12)


class TestCrude:
    def test_iid_probability(self):
        m = ARModel((0.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
        est = sim.estimate_crude(m, [0, 1, 2, 3], 200_000, 1)
        # n = 3 means four independent sign constraints
        assert est.p_hat[3] == pytest.approx(1.0 / 16.0, abs=4 * est.se[3])
        assert est.counts[0] > est.counts[3]

    def test_ma_first_step_orthant(self):
        # Z_0, Z_1 for MA(1) with a=1 are jointly Gaussian with corr 1/2;
        # P(both >= 0) = 1/3
        m = MAModel((1.0,), Gaussian(), GE)
        est = sim.estimate_crude(m, [1], 1_000_000, 2)
        assert est.p_hat[0] == pytest.approx(1.0 / 3.0, abs=4 * est.se[0])

    def test_survival_counts_nested(self):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        est = sim.estimate_crude(m, [0, 2, 5, 9], 50_000, 3)
        assert np.all(np.diff(est.counts) <= 0)
        assert np.all(est.p_hat[:-1] >= est.p_hat[1:])

    def test_conventions_equal_for_continuous_laws(self):
        m_ge = ARModel((0.3,), Gaussian(), IIDInnovation(), GE)
        m_gt = ARModel((0.3,), Gaussian(), IIDInnovation(), GT)
        e_ge = sim.estimate_crude(m_ge, [0, 1, 4], 40_000, 5)
        e_gt = sim.estimate_crude(m_gt, [0, 1, 4], 40_000, 5)
        assert np.array_equal(e_ge.counts, e_gt.counts)

    def test_conventions_differ_for_atoms(self):
        m_ge = MAModel((1.0,), Rademacher(), GE)
        m_gt = MAModel((1.0,), Rademacher(), GT)
        e_ge = sim.estimate_crude(m_ge, [1], 50_000, 5)
        e_gt = sim.estimate_crude(m_gt, [1], 50_000, 5)
        assert e_ge.p_hat[0] > e_gt.p_hat[0]

    def test_all_paths_died(self):
        m = ARModel((0.0,), Uniform(-2.0, -1.0), IIDInnovation(), GE)
        with pytest.raises(sim.AllPathsDied):
            sim.estimate_crude(m, [0, 1], 1000, 0)

    def test_thread_count_does_not_change_counts(self):
        m = ARModel((0.4,), Gaussian(), StationaryAR1Gaussian(0.4), GE)
        base = sim.estimate_crude(m, [0, 3, 7], 30_000, 9, threads=1)
        for threads in (2, 8):
            est = sim.estimate_crude(m, [0, 3, 7], 30_000, 9, threads=threads)
            assert np.array_equal(est.counts, base.counts)

    def test_seed_changes_counts(self):
        m = ARModel((0.4,), Gaussian(), IIDInnovation(), GE)
        a = sim.estimate_crude(m, [0, 3], 30_000, 1)
        b = sim.estimate_crude(m, [0, 3], 30_000, 2)
        assert not np.array_equal(a.counts, b.counts)

    def test_replicates_not_multiple_of_block(self):
        m = ARModel((0.0,), Gaussian(), IIDInnovation(), GE)
        est = sim.estimate_crude(m, [0], 5000, 0)
        assert est.effort == 5000
        assert est.counts[0] <= 5000

    def test_horizons_validation(self):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        est = sim.estimate_crude(m, [3, 1], 1000, 0)
        assert est.horizons.tolist() == [1, 3]
        with pytest.raises(ValueError):
            sim.estimate_crude(m, [1, 1], 1000, 0)
        with pytest.raises(ValueError):
            sim.estimate_crude(m, [-1, 2], 1000, 0)


# Crude counts at seed 7 with 10,001 replicates (two full blocks and a
# one-path partial block), pinned from the path-major layout that drew one
# innovation per step; the step-major layout must take the same draws.
# (model, horizons, counts)
DRAW_ORDER_CASES = {
    "ar1_gauss_iid": (ARModel((0.4,), Gaussian(), IIDInnovation(), GE), [0, 1, 2, 4, 8],
                      [5019, 3126, 1989, 778, 146]),
    "ar1_gauss_point": (ARModel((0.4,), Gaussian(), PointMass((0.3,)), GE), [0, 1, 2, 4, 8],
                        [10001, 5473, 3433, 1361, 256]),
    "ar1_gauss_stationary": (ARModel((0.4,), Gaussian(), StationaryAR1Gaussian(0.4), GE),
                             [0, 1, 2, 4, 8], [5019, 3184, 2029, 793, 151]),
    "ar1_unif_iid": (ARModel((0.4,), Uniform(-1.0, 1.0), IIDInnovation(), GE), [0, 1, 2, 4, 8],
                     [5019, 3015, 1842, 665, 106]),
    "ar1_unif_point": (ARModel((0.4,), Uniform(-1.0, 1.0), PointMass((0.3,)), GE),
                       [0, 1, 2, 4, 8], [10001, 5611, 3432, 1258, 214]),
    "ar1_unif_stationary": (ARModel((0.4,), Uniform(-1.0, 1.0), StationaryAR1Gaussian(0.4), GE),
                            [0, 1, 2, 4, 8], [5019, 3384, 2146, 803, 131]),
    "ar1_exp_iid": (ARModel((-0.5,), Exponential(), IIDInnovation(), GE), [0, 1, 2, 4, 8],
                    [10001, 6619, 4386, 1950, 363]),
    "ar1_exp_point": (ARModel((-0.5,), Exponential(), PointMass((0.3,)), GE), [0, 1, 2, 4, 8],
                      [10001, 8597, 5731, 2490, 468]),
    "ar1_exp_stationary": (ARModel((-0.5,), Exponential(), StationaryAR1Gaussian(-0.5), GE),
                           [0, 1, 2, 4, 8], [5019, 3318, 2219, 977, 172]),
    "ar2_gauss": (ARModel((0.3, 0.2), Gaussian(), IIDInnovation(), GE), [0, 1, 2, 4, 8],
                  [5013, 2496, 1628, 741, 189]),
    "ar3_unif_point": (ARModel((0.3, -0.2, 0.1), Uniform(-1.0, 1.0), PointMass((0.1, 0.2, 0.3)),
                               GE), [0, 2, 3, 7], [10001, 10001, 5322, 435]),
    # horizons shorter than the order: the block draws its initial state only
    "ar3_short": (ARModel((0.3, -0.2, 0.1), Gaussian(), IIDInnovation(), GE), [0, 1],
                  [4942, 2431]),
    "ar1_sparse_unsorted": (ARModel((0.4,), Gaussian(), IIDInnovation(), GE), [9, 0, 5],
                            [5019, 495, 91]),
    "ar1_rademacher_gt": (ARModel((0.5,), Rademacher(), IIDInnovation(), GT), [0, 1, 2, 3],
                          [5019, 2518, 1219, 569]),
    "ma1_gauss": (MAModel((1.0,), Gaussian(), GE), [0, 1, 2, 4, 8],
                  [4989, 3302, 2059, 831, 140]),
    "ma2_exp": (MAModel((-0.5, 0.3), Exponential(), GE), [0, 1, 2, 4, 8],
                [7887, 5831, 4260, 2382, 766]),
    "ma1_rademacher_gt": (MAModel((1.0,), Rademacher(), GT), [0, 1, 2, 3],
                          [2464, 1219, 593, 312]),
}


def per_step_paths(model, n, size, rng):
    """Reference recursion: path-major, one size-long innovation draw per step."""
    z = np.empty((size, n + 1))
    if isinstance(model, ARModel):
        p = model.order
        z[:, :p] = model.initial.sample(p, rng, size=size)[:, :n + 1]
        for i in range(p, n + 1):
            z[:, i] = (sum(a * z[:, i - j] for j, a in enumerate(model.coeffs, start=1))
                       + model.innovation.sample(rng, size))
        return z
    q = model.order
    xi = model.innovation.sample(rng, (size, n + q + 1))
    for i in range(n + 1):
        z[:, i] = (sum(a * xi[:, q + i - j] for j, a in enumerate(model.coeffs, start=1))
                   + xi[:, q + i])
    return z


class TestDrawOrder:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(DRAW_ORDER_CASES))
    def test_crude_counts_pinned(self, name, threads):
        m, horizons, counts = DRAW_ORDER_CASES[name]
        est = sim.estimate_crude(m, horizons, 10_001, 7, threads=threads)
        assert est.counts.tolist() == counts
        assert np.array_equal(est.p_hat, np.asarray(counts) / 10_001)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 9])
    @pytest.mark.parametrize("size", [1, 5, 4096])
    @pytest.mark.parametrize("name", sorted(DRAW_ORDER_CASES))
    def test_sample_paths_match_per_step_reference(self, name, size, n):
        m = DRAW_ORDER_CASES[name][0]
        z = sim.sample_paths(m, n, size, substream(2, "ref", n, size))
        ref = per_step_paths(m, n, size, substream(2, "ref", n, size))
        assert z.shape == (size, n + 1)
        assert np.array_equal(z, ref)

    # two paths Z_0..Z_3 at substream(5, "block"), pinned from the
    # path-major layout
    @pytest.mark.parametrize("m, expected", [
        (ARModel((0.3, 0.2), Gaussian(), IIDInnovation(), GE),
         [[-0.008443990098901049, 0.6025345932547507, -0.31344229147067326, 1.4279189935628103],
          [2.1168530974261595, -0.3103323135626886, -0.643838151268432, -0.9677668234168891]]),
        (MAModel((-0.5, 0.3), Exponential(), GE),
         [[3.624101359249777, -1.1691834955519196, 1.3552103169421055, 0.1364576493764539],
          [3.1197738800333736, 2.5036638538978906, -1.0118093913625874, 2.9286770351150935]]),
    ], ids=["ar2", "ma2"])
    def test_block_paths_pinned(self, m, expected):
        z = sim.sample_paths(m, 3, 2, substream(5, "block"))
        assert z.tolist() == expected


class TestSplitting:
    def test_iid_deep_tail(self):
        # 51 independent half-probability constraints at n = 50
        m = ARModel((0.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
        est = sim.estimate_splitting(m, [50], 100_000, 3)
        target = 0.5 ** 51
        assert abs(math.log(est.p_hat[0] / target)) < 0.2
        assert est.log_var[0] < 0.01

    def test_ar_exponential_long_horizon(self):
        m = ARModel((-1.0,), Exponential(), IIDInnovation(), GE)
        est = sim.estimate_splitting(m, list(range(0, 101)), 50_000, 5)
        assert math.log(est.p_hat[100]) / 100 == pytest.approx(math.log(0.5), abs=0.01)

    def test_matches_crude_on_moderate_horizon(self):
        m = ARModel((0.4,), Gaussian(), StationaryAR1Gaussian(0.4), GE)
        crude = sim.estimate_crude(m, [15], 400_000, 7)
        split = sim.estimate_splitting(m, [15], 50_000, 7)
        se = math.sqrt(crude.se[0] ** 2 + split.se[0] ** 2)
        assert abs(crude.p_hat[0] - split.p_hat[0]) < 4 * se

    def test_population_extinct(self):
        m = ARModel((0.0,), Uniform(-3.0, -1.0), IIDInnovation(), GE)
        with pytest.raises(sim.PopulationExtinct) as exc:
            sim.estimate_splitting(m, [5], 1000, 0)
        assert exc.value.step == 0

    def test_fractions_recorded(self):
        m = ARModel((0.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
        est = sim.estimate_splitting(m, [10], 20_000, 1)
        assert est.fractions is not None and len(est.fractions) == 11
        assert all(0.4 < f < 0.6 for f in est.fractions)

    def test_ma_state_survival(self):
        m = MAModel((1.0,), Gaussian(), GE)
        est = sim.estimate_splitting(m, [0, 1], 100_000, 2)
        assert est.p_hat[0] == pytest.approx(0.5, abs=0.01)
        assert est.p_hat[1] == pytest.approx(1.0 / 3.0, abs=0.01)


# sha256 of p_hat.tobytes() + fractions.tobytes() at seed 7 over horizons
# 0..n, pinned from the particle-major (P, d) loop that indexed survivors
# with a boolean mask and a fancy gather. (model, {P: (n, digest)})
SPLIT_PINS = {
    "ar1_gauss_0.9": (ARModel((0.9,), Gaussian(), IIDInnovation(), GE), {
        65_536: (8, "94d1f80126165f294a26b4b47fe4b953464ad7646c09469765221112fbb60d89"),
        2000: (30, "b547c71049cb673a47b20ab81b42f53bb311cea81af437dd0933a3d749b78e87")}),
    "ar2_gauss": (ARModel((0.5, -0.3), Gaussian(), IIDInnovation(), GE), {
        65_536: (8, "6828837dc0092e5f1788cf8a21f1f13802858d61d21288178cf174a4220a3636"),
        2000: (30, "71c218cdf22a75acb4fa690192139e065d87a36ec142441b63364b1437d9a360")}),
    "ma1_exp_m0.5": (MAModel((-0.5,), Exponential(), GE), {
        65_536: (8, "b8f41f9099a67c3a3f5e9711a6e23ff38bb91d9ec6e0e0b629fd8ae13233ad09"),
        2000: (30, "3a0429c0bcbf5ca6dbf44b14706970d56782a3ddcd6416ec65d995f46eaebd60")}),
    "ma2_rademacher_gt": (MAModel((0.5, 0.5), Rademacher(), GT), {
        65_536: (8, "0e75d193de46dfbd8f690738967dec8d0608de48526b886ecc2efa069e92160c"),
        2000: (30, "fd986805439e293d0a298bd102423460606c66bd1ba14795f88054fbf042e386")}),
}


class TestSplittingLoop:
    @pytest.mark.parametrize("particles", [65_536, 2000])
    @pytest.mark.parametrize("name", sorted(SPLIT_PINS))
    def test_bytes_pinned(self, name, particles):
        m, pins = SPLIT_PINS[name]
        n, digest = pins[particles]
        est = sim.estimate_splitting(m, range(n + 1), particles, 7)
        got = hashlib.sha256(est.p_hat.tobytes() + est.fractions.tobytes()).hexdigest()
        assert got == digest

    def test_extinct_after_first_step(self):
        # Z_0 = 1 survives; Z_1 = -10 + xi < -9 kills every particle
        m = ARModel((-10.0,), Uniform(-1.0, 1.0), PointMass((1.0,)), GE)
        with pytest.raises(sim.PopulationExtinct) as exc:
            sim.estimate_splitting(m, range(5), 2000, 0)
        assert exc.value.step == 1


# Fixed-seed values of every route. The coefficients are asymmetric, so a
# reversed or shifted coefficient in model.drift moves every value below.
COEFFICIENT_ORDER_CASES = [
    (ARModel((0.5, -0.3), Gaussian(), IIDInnovation(), GE),
     [9989, 5023, 2814, 1601, 845, 466, 257, 139, 85, 54, 30, 16, 9, 5, 3, 3, 2],
     [0.0012883976017018205, 8.876705363780745e-09, 5.820778430605072e-14],
     0.5521365107944121),
    (MAModel((0.5, -0.2), Gaussian(), GE),
     [10128, 6028, 3287, 1849, 1020, 563, 322, 182, 99, 55, 31, 13, 9, 5, 3, 1, 1],
     [0.0016855043529172124, 1.4531336319765406e-08, 1.202842803903613e-13],
     0.5581422033717083),
]


class TestCoefficientOrder:
    @pytest.mark.parametrize("m, counts, split_p, lam", COEFFICIENT_ORDER_CASES,
                             ids=["ar2", "ma2"])
    def test_routes_match_pinned_values(self, m, counts, split_p, lam):
        for threads in (1, 2):
            est = sim.estimate_crude(m, range(17), 20_000, 3, threads=threads)
            assert est.counts.tolist() == counts
        est = sim.estimate_splitting(m, range(51), 2000, 3)
        assert est.p_hat[[10, 30, 50]] == pytest.approx(split_p, rel=1e-12)
        assert op.solve_operator(m, n=80).lam == pytest.approx(lam, abs=1e-12)


class TestFitExponent:
    def synthetic(self, lam, k=11, se=1e-6):
        n = np.arange(k)
        return sim.PersistenceEstimate(
            method="crude", horizons=n, p_hat=lam ** n,
            se=np.full(k, se), log_var=np.full(k, se * se), effort=1, seed=0,
        )

    def test_exact_geometric(self):
        lam, hw = sim.fit_exponent(self.synthetic(0.5))
        assert lam == pytest.approx(0.5, abs=1e-12)
        assert hw < 1e-5

    def test_window_selection(self):
        est = self.synthetic(0.7)
        lam_full, _ = sim.fit_exponent(est, (0, 10))
        lam_tail, _ = sim.fit_exponent(est, (5, 10))
        assert lam_full == pytest.approx(lam_tail, abs=1e-12)

    def test_window_pair(self):
        lam, _ = sim.fit_exponent(self.synthetic(0.9), (2, 9))
        assert lam == pytest.approx(0.9, abs=1e-12)

    def test_nonpositive_probability_in_window(self):
        est = self.synthetic(0.5)
        est.p_hat = est.p_hat.copy()
        est.p_hat[7] = 0.0
        with pytest.raises(sim.NonPositiveProbabilityInWindow):
            sim.fit_exponent(est, (5, 10))

    def test_default_window_skips_dead_tail(self):
        est = self.synthetic(0.5)
        est.p_hat = est.p_hat.copy()
        est.p_hat[8:] = 0.0
        lam, _ = sim.fit_exponent(est)
        assert lam == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("window", [(-6, -1), (3, 40), (4, 4), (5, 2), (2.0, 5),
                                        (True, 5), 5, (1, 2, 3), "0:5"])
    def test_window_outside_the_horizons_named(self, window):
        # a negative pair would otherwise be a Python slice: (-6, -1) fitted 11..15
        with pytest.raises(ValueError, match=re.escape(f"fit window {window!r}")):
            sim.fit_exponent(self.synthetic(0.5, k=17), window)

    def test_window_may_end_at_the_horizon_count(self):
        est = self.synthetic(0.9, k=17)
        assert sim.fit_exponent(est, (11, 17)) == sim.fit_exponent(est, [11, 17])
        assert sim.fit_exponent(est, (np.int64(11), np.int64(17))) == sim.fit_exponent(
            est, (11, 17))

    def test_needs_two_points(self):
        est = self.synthetic(0.5)
        with pytest.raises(ValueError):
            sim.fit_exponent(est, (3, 4))

    def test_half_width_tracks_noise(self):
        rng = substream(0, "fit-noise")
        n = np.arange(12)
        noisy = 0.6 ** n * np.exp(rng.normal(0.0, 0.01, 12))
        est = sim.PersistenceEstimate(
            method="crude", horizons=n, p_hat=noisy,
            se=0.01 * noisy, log_var=np.full(12, 1e-4), effort=1, seed=0,
        )
        lam, hw = sim.fit_exponent(est, (0, 11))
        assert lam == pytest.approx(0.6, abs=0.02)
        assert 1e-4 < hw < 0.05

    def test_degenerate_decay_is_superexponential(self):
        # 1/(n+2)! decays faster than any lambda**n: fitted slopes fall as
        # the window moves right
        m = MAModel((-1.0,), Gaussian(), GE)
        est = sim.estimate_crude(m, list(range(0, 9)), 400_000, 11)
        lam_early, _ = sim.fit_exponent(est, (0, 4))
        lam_late, _ = sim.fit_exponent(est, (4, est.window[1]))
        assert lam_late < lam_early
        assert lam_late < 0.2

    def test_supercritical_slopes_increase_with_window(self):
        m = ARModel((1.2,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
        est = sim.estimate_splitting(m, list(range(0, 121)), 20_000, 13)
        lam_short, _ = sim.fit_exponent(est, (1, 40))
        lam_long, _ = sim.fit_exponent(est, (1, 120))
        assert lam_long > lam_short


class TestEstimateReport:
    def test_to_json_fields(self):
        m = ARModel((0.0,), Gaussian(), IIDInnovation(), GE)
        est = sim.estimate_crude(m, [0, 1, 2, 3, 4, 5], 20_000, 0)
        payload = est.to_json()
        assert payload["method"] == "crude"
        assert len(payload["table"]) == 6
        assert {"n", "p_hat", "se"} <= set(payload["table"][0])
        assert payload["lambda_hat"] == pytest.approx(0.5, abs=0.05)
        assert payload["window"] is not None

    def test_effort_accounting(self):
        m = MAModel((0.5,), Gaussian(), GE)
        est = sim.estimate_splitting(m, [0, 5], 5000, 0)
        assert est.effort == 5000
        est2 = sim.estimate_crude(m, [0, 5], 7000, 0)
        assert est2.effort == 7000
