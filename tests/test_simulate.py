import hashlib
import math
import re

import numpy as np
import pytest
from conftest import DenseOperator
from hypothesis import given, settings
from hypothesis import strategies as st

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


def step_path(model, n, rng):
    """Z_0..Z_n of one path: sim._initial_state, then sim._step per step
    with one innovation drawn per step (none while AR reads its initial state)."""
    state = sim._initial_state(model, 1, rng)
    z = []
    for t in range(n + 1):
        if isinstance(model, ARModel) and t < model.order:
            z.append(state[t, 0])
        else:
            zt, state = sim._step(model, state, model.innovation.sample(rng, 1))
            z.append(zt[0])
    return np.array(z)


class TestPaths:
    def test_ar_path_recursion(self):
        m = ARModel((0.75,), Uniform(-1e-9, 1e-9), PointMass((1.0,)), GE)
        z = step_path(m, 4, substream(0, "p"))
        # with near-zero noise the path is the deterministic skeleton
        assert z[0] == pytest.approx(1.0)
        for i in range(1, 5):
            assert z[i] == pytest.approx(0.75 ** i, abs=1e-7)

    def test_ar2_path_skeleton(self):
        m = ARModel((0.5, 0.25), Uniform(-1e-9, 1e-9), PointMass((1.0, 1.0)), GE)
        z = step_path(m, 3, substream(0, "p"))
        assert z[0] == pytest.approx(1.0) and z[1] == pytest.approx(1.0)
        assert z[2] == pytest.approx(0.5 * 1.0 + 0.25 * 1.0, abs=1e-7)
        assert z[3] == pytest.approx(0.5 * z[2] + 0.25 * z[1], abs=1e-7)

    # Z_0..Z_5 at substream(5, "path"): a change in the order in which a path
    # consumes its stream moves every value
    @pytest.mark.parametrize("coeffs, innovation, initial, expected", [
        ((0.4,), Gaussian(), IIDInnovation(),
         [-0.9081024544769456, -0.9338070469999035, 1.4855026849670603,
          0.04452721986983044, 0.6433916209048944, 0.21332466988403725]),
        ((0.4,), Gaussian(), PointMass((0.3,)),
         [0.3, -0.7881024544769456, -0.8858070469999035, 1.5047026849670602,
          0.05220721986983046, 0.6464636209048944]),
        ((0.4,), Gaussian(), StationaryAR1Gaussian(0.4),
         [-0.9908210086704268, -0.966894468677296, 1.472267716296103,
          0.039233232401447604, 0.6412740259175413, 0.21247763188909602]),
        ((0.5, -0.3), Exponential(), IIDInnovation(),
         [2.4029291660945895, 0.4991343058805953, 0.739529903447181,
          1.1860453139210212, 0.5788044806673878, -0.06291721317138628]),
    ], ids=["iid", "point", "stationary", "ar2_iid"])
    def test_ar_path_pinned(self, coeffs, innovation, initial, expected):
        m = ARModel(coeffs, innovation, initial, GE)
        z = step_path(m, 5, substream(5, "path"))
        assert z.tolist() == pytest.approx(expected, rel=1e-12)

    def test_ma_path_telescoping_sum(self):
        # with a_1 = -1, partial sums telescope: sum_0^n Z_i = xi_n - xi_{-1}
        m = MAModel((-1.0,), Gaussian(), GE)
        z = step_path(m, 50, substream(3, "tele"))
        draws = m.innovation.sample(substream(3, "tele"), 52)
        assert z.shape == (51,)
        assert z.sum() == pytest.approx(draws[-1] - draws[0], abs=1e-10)

    def test_ma_path_matches_direct_formula(self):
        m = MAModel((0.4, -0.3), Exponential(), GE)
        z = step_path(m, 6, substream(1, "ma"))
        draws = m.innovation.sample(substream(1, "ma"), 9)  # xi_{-2}..xi_6
        for i in range(7):
            expected = draws[i + 2] + 0.4 * draws[i + 1] - 0.3 * draws[i]
            assert z[i] == pytest.approx(expected, abs=1e-12)

    def test_step_shifts_the_state(self):
        # the oldest coordinate leaves; AR keeps z, MA keeps xi as the newest
        state = np.array([[1.0, 2.0], [3.0, 4.0]])
        xi = np.array([0.5, -0.5])
        z, nxt = sim._step(ARModel((0.5, 0.25), Gaussian(), IIDInnovation(), GE), state, xi)
        assert z.tolist() == [2.25, 2.0]
        assert nxt.tolist() == [[3.0, 4.0], [2.25, 2.0]]
        z, nxt = sim._step(MAModel((0.5, 0.25), Gaussian(), GE), state, xi)
        assert z.tolist() == [2.25, 2.0]
        assert nxt.tolist() == [[3.0, 4.0], [0.5, -0.5]]
        assert state.tolist() == [[1.0, 2.0], [3.0, 4.0]]


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
        # two full blocks and a partial one, so threads take different blocks
        m = ARModel((0.4,), Gaussian(), StationaryAR1Gaussian(0.4), GE)
        replicates = 2 * sim.BLOCK + 1
        base = sim.estimate_crude(m, [0, 3, 7], replicates, 9, threads=1)
        for threads in (2, 8):
            est = sim.estimate_crude(m, [0, 3, 7], replicates, 9, threads=threads)
            assert np.array_equal(est.counts, base.counts)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_must_be_positive(self, threads):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        with pytest.raises(ValueError, match=f"threads must be a positive count, got {threads}"):
            sim.estimate_crude(m, [0, 3], 1000, 0, threads=threads)

    def test_seed_changes_counts(self):
        m = ARModel((0.4,), Gaussian(), IIDInnovation(), GE)
        a = sim.estimate_crude(m, [0, 3], 30_000, 1)
        b = sim.estimate_crude(m, [0, 3], 30_000, 2)
        assert not np.array_equal(a.counts, b.counts)

    def test_replicates_not_multiple_of_block(self):
        m = ARModel((0.0,), Gaussian(), IIDInnovation(), GE)
        est = sim.estimate_crude(m, [0], sim.BLOCK + 1, 0)
        assert est.effort == sim.BLOCK + 1
        assert est.counts[0] <= sim.BLOCK + 1

    def test_horizons_validation(self):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        est = sim.estimate_crude(m, [3, 1], 1000, 0)
        assert est.horizons.tolist() == [1, 3]
        with pytest.raises(ValueError):
            sim.estimate_crude(m, [1, 1], 1000, 0)
        with pytest.raises(ValueError):
            sim.estimate_crude(m, [-1, 2], 1000, 0)


# Crude counts at seed 7 with 2 * BLOCK + 1 = 131,073 replicates (two full
# blocks and a one-path partial block), pinned from per_step_counts, the
# path-major reference that draws one innovation per living path per step.
# (model, horizons, counts)
DRAW_ORDER_REPLICATES = 2 * sim.BLOCK + 1
DRAW_ORDER_CASES = {
    "ar1_gauss_iid": (ARModel((0.4,), Gaussian(), IIDInnovation(), GE), [0, 1, 2, 4, 8],
                      [65683, 40517, 25767, 10657, 1989]),
    "ar1_gauss_point": (ARModel((0.4,), Gaussian(), PointMass((0.3,)), GE), [0, 1, 2, 4, 8],
                        [131073, 71989, 44949, 18389, 3352]),
    "ar1_gauss_stationary": (ARModel((0.4,), Gaussian(), StationaryAR1Gaussian(0.4), GE),
                             [0, 1, 2, 4, 8], [65683, 41156, 26258, 10931, 1992]),
    "ar1_unif_iid": (ARModel((0.4,), Uniform(-1.0, 1.0), IIDInnovation(), GE), [0, 1, 2, 4, 8],
                     [65486, 39144, 24221, 9433, 1505]),
    "ar1_unif_point": (ARModel((0.4,), Uniform(-1.0, 1.0), PointMass((0.3,)), GE),
                       [0, 1, 2, 4, 8], [131073, 73273, 44842, 17485, 2758]),
    "ar1_unif_stationary": (ARModel((0.4,), Uniform(-1.0, 1.0), StationaryAR1Gaussian(0.4), GE),
                            [0, 1, 2, 4, 8], [65683, 44012, 28081, 11106, 1788]),
    "ar1_exp_iid": (ARModel((-0.5,), Exponential(), IIDInnovation(), GE), [0, 1, 2, 4, 8],
                    [131073, 87487, 58233, 25963, 5058]),
    "ar1_exp_point": (ARModel((-0.5,), Exponential(), PointMass((0.3,)), GE), [0, 1, 2, 4, 8],
                      [131073, 112821, 75085, 33330, 6646]),
    "ar1_exp_stationary": (ARModel((-0.5,), Exponential(), StationaryAR1Gaussian(-0.5), GE),
                           [0, 1, 2, 4, 8], [65683, 43837, 29244, 12919, 2569]),
    "ar2_gauss": (ARModel((0.3, 0.2), Gaussian(), IIDInnovation(), GE), [0, 1, 2, 4, 8],
                  [65122, 32634, 21295, 9961, 2432]),
    "ar3_unif_point": (ARModel((0.3, -0.2, 0.1), Uniform(-1.0, 1.0), PointMass((0.1, 0.2, 0.3)),
                               GE), [0, 2, 3, 7], [131073, 131073, 69399, 6425]),
    # horizons shorter than the order: the block draws its initial state only
    "ar3_short": (ARModel((0.3, -0.2, 0.1), Gaussian(), IIDInnovation(), GE), [0, 1],
                  [65686, 32876]),
    "ar1_sparse_unsorted": (ARModel((0.4,), Gaussian(), IIDInnovation(), GE), [9, 0, 5],
                            [65683, 6997, 1306]),
    "ar1_rademacher_gt": (ARModel((0.5,), Rademacher(), IIDInnovation(), GT), [0, 1, 2, 3],
                          [65486, 32811, 16331, 8113]),
    "ma1_gauss": (MAModel((1.0,), Gaussian(), GE), [0, 1, 2, 4, 8],
                  [65418, 43641, 27457, 11111, 1816]),
    "ma2_exp": (MAModel((-0.5, 0.3), Exponential(), GE), [0, 1, 2, 4, 8],
                [103694, 76280, 56606, 31920, 10344]),
    "ma1_rademacher_gt": (MAModel((1.0,), Rademacher(), GT), [0, 1, 2, 3],
                          [32653, 16253, 8260, 4113]),
}


def per_step_survivors(model, n, size, rng):
    """Reference block: the survivors at steps 0..n of `size` paths, from a
    path-major array, a boolean mask of the living paths, and per step one
    innovation draw sized to the living paths, written into their rows."""
    d = model.order
    alive = np.ones(size, dtype=bool)
    survivors = []
    if isinstance(model, ARModel):
        z = np.full((size, max(n + 1, d)), np.nan)  # Z_0..Z_n
        z[:, :d] = model.initial.sample(d, rng, size=size)
        for i in range(n + 1):
            if i >= d:
                xi = np.full(size, np.nan)
                xi[alive] = model.innovation.sample(rng, np.count_nonzero(alive))
                z[:, i] = sum(a * z[:, i - j] for j, a in enumerate(model.coeffs, start=1)) + xi
            alive &= model.convention.survives(z[:, i])
            survivors.append(np.count_nonzero(alive))
    else:
        xi = np.full((size, d + n + 1), np.nan)  # xi_{-d}..xi_n
        xi[:, :d] = model.innovation.sample(rng, (size, d))
        for i in range(n + 1):
            xi[alive, d + i] = model.innovation.sample(rng, np.count_nonzero(alive))
            z = sum(a * xi[:, d + i - j]
                    for j, a in enumerate(model.coeffs, start=1)) + xi[:, d + i]
            alive &= model.convention.survives(z)
            survivors.append(np.count_nonzero(alive))
    return survivors


def per_step_counts(model, horizons, replicates, seed):
    """Reference crude counts: per_step_survivors on each block's own stream."""
    horizons = sorted(horizons)
    counts = np.zeros(len(horizons), dtype=np.int64)
    for m, start in enumerate(range(0, replicates, sim.BLOCK)):
        size = min(sim.BLOCK, replicates - start)
        survivors = per_step_survivors(model, horizons[-1], size, substream(seed, "crude", m))
        counts += np.asarray(survivors)[horizons]
    return counts.tolist()


class TestDrawOrder:
    @pytest.mark.parametrize("name", sorted(DRAW_ORDER_CASES))
    def test_per_step_reference_gives_the_pins(self, name):
        m, horizons, counts = DRAW_ORDER_CASES[name]
        assert per_step_counts(m, horizons, DRAW_ORDER_REPLICATES, 7) == counts

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(DRAW_ORDER_CASES))
    def test_crude_counts_pinned(self, name, threads):
        m, horizons, counts = DRAW_ORDER_CASES[name]
        est = sim.estimate_crude(m, horizons, DRAW_ORDER_REPLICATES, 7, threads=threads)
        assert est.counts.tolist() == counts
        assert np.array_equal(est.p_hat, np.asarray(counts) / DRAW_ORDER_REPLICATES)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 9])
    @pytest.mark.parametrize("size", [1, 5, 4096])
    @pytest.mark.parametrize("name", sorted(DRAW_ORDER_CASES))
    def test_block_counts_match_per_step_reference(self, name, size, n):
        # small blocks die out early, so this also checks the stop
        m = DRAW_ORDER_CASES[name][0]
        counts = sim._survival_counts_block(m, np.arange(n + 1), size,
                                            substream(2, "ref", n, size))
        assert counts.tolist() == per_step_survivors(m, n, size, substream(2, "ref", n, size))


class TestDrawAccounting:
    """Every draw of one crude block, by size: the initial state, then per
    step one innovation per path alive after the previous step, and nothing
    once the block is extinct."""

    @pytest.mark.parametrize("m, first_draw", [
        (ARModel((0.4,), Gaussian(), IIDInnovation(), GE), [(1000, 1)]),
        (ARModel((0.3, 0.2), Uniform(-1.0, 1.0), IIDInnovation(), GE), [(1000, 2)]),
        (ARModel((-0.5,), Exponential(), PointMass((0.3,)), GE), []),
        (MAModel((-0.5, 0.3), Exponential(), GE), [(1000, 2)]),
        (MAModel((1.0,), Rademacher(), GT), [(1000, 1)]),
        # Z_0 = 1 survives and Z_1 < -9 kills every path: the block stops
        (ARModel((-10.0,), Uniform(-1.0, 1.0), PointMass((1.0,)), GE), []),
    ], ids=["ar1", "ar2", "ar1_point", "ma2", "ma1_rademacher", "extinct"])
    def test_each_step_draws_for_the_survivors(self, monkeypatch, m, first_draw):
        sizes = []
        sample = type(m.innovation).sample

        def recorded(law, stream, size=None):
            sizes.append(size)
            return sample(law, stream, size)

        monkeypatch.setattr(type(m.innovation), "sample", recorded)
        horizons = np.arange(12)
        survivors = sim._survival_counts_block(m, horizons, 1000, substream(4, "acct"))
        monkeypatch.undo()
        reads_initial = m.order if isinstance(m, ARModel) else 0
        alive_before = [1000] + survivors[:-1].tolist()
        steps = [alive_before[t] for t in range(reads_initial, 12)]
        expected = first_draw + steps[:steps.index(0) if 0 in steps else None]
        assert sizes == expected


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
# 0..n, pinned from reference_splitting. (model, {P: (n, digest)})
SPLIT_PINS = {
    "ar1_gauss_0.9": (ARModel((0.9,), Gaussian(), IIDInnovation(), GE), {
        65_536: (8, "a11c386bd72ae2b06b90d0ccdbe66eef3e500a438afc933b78ef0a19f98d7b24"),
        2000: (30, "c8a1ac0197abbd70e7b379c3df853f89478dfcd224bfacb10b34b0a6cc53c508")}),
    "ar2_gauss": (ARModel((0.5, -0.3), Gaussian(), IIDInnovation(), GE), {
        65_536: (8, "bd1b1aa3ff04704f7ce233d8e50783e390d110cbbadbf711a9c8d8299242913b"),
        2000: (30, "5c208d69312f057a0a92bb6bd2fe8a0b63e68c02489c6a246ce2cbce6776c8fb")}),
    "ma1_exp_m0.5": (MAModel((-0.5,), Exponential(), GE), {
        65_536: (8, "7bb90594f2c02cadacff88841ca5e98b9b528d24590a958622e5807765644f09"),
        2000: (30, "5c454480f489a2e175d88e1632c594f208decd7c7f76e20a7e786d62bfd54e51")}),
    "ma2_rademacher_gt": (MAModel((0.5, 0.5), Rademacher(), GT), {
        65_536: (8, "581b434fd6fc2e032f87342e1184fdde7944ec0d3db07ecd22e70b77dd28dc4d"),
        2000: (30, "a329508cfa4654642fb05cc54cc7dd8c73b5d407c9bef7bd5cc0cb6a18890041")}),
}


def reference_splitting(model, n, particles, seed):
    """Reference splitting loop: a particle-major (P, d) state, survivors
    picked by a boolean mask, and a plain-loop systematic resampler. Returns
    p_hat and the fractions over horizons 0..n."""
    d = model.order
    is_ar = isinstance(model, ARModel)
    init = substream(seed, "split", "init")
    if is_ar:
        state = model.initial.sample(d, init, size=particles)
    else:
        state = model.innovation.sample(init, (particles, d))
    fractions = []
    for t in range(n + 1):
        rng = substream(seed, "split", t)
        if is_ar and t < d:
            z = state[:, t]
        else:
            xi = model.innovation.sample(rng, particles)
            z = sum(a * state[:, d - j] for j, a in enumerate(model.coeffs, start=1)) + xi
            state = np.column_stack([state[:, 1:], z if is_ar else xi])
        survivors = state[model.convention.survives(z)]
        fractions.append(len(survivors) / particles)
        state = survivors[plain_systematic(rng.random(), len(survivors), particles)]
    fractions = np.array(fractions)
    return np.exp(np.cumsum(np.log(fractions))), fractions


def plain_systematic(u, n, size):
    """Kitagawa's systematic resampling of n equal weights, as a plain loop:
    output k takes the particle i whose cell [i/n, (i+1)/n) holds (k + u)/size."""
    picks, i = [], 0
    for k in range(size):
        while (k + u) * n >= (i + 1) * size:
            i += 1
        picks.append(i)
    return picks


class TestSplittingLoop:
    @pytest.mark.parametrize("particles", [65_536, 2000])
    @pytest.mark.parametrize("name", sorted(SPLIT_PINS))
    def test_bytes_pinned(self, name, particles):
        m, pins = SPLIT_PINS[name]
        n, digest = pins[particles]
        est = sim.estimate_splitting(m, range(n + 1), particles, 7)
        got = hashlib.sha256(est.p_hat.tobytes() + est.fractions.tobytes()).hexdigest()
        assert got == digest

    @pytest.mark.parametrize("particles", [65_536, 2000])
    @pytest.mark.parametrize("name", sorted(SPLIT_PINS))
    def test_reference_loop_gives_the_pins(self, name, particles):
        m, pins = SPLIT_PINS[name]
        n, digest = pins[particles]
        p_hat, fractions = reference_splitting(m, n, particles, 7)
        assert hashlib.sha256(p_hat.tobytes() + fractions.tobytes()).hexdigest() == digest

    def test_one_uniform_per_step_after_its_innovations(self, monkeypatch):
        # every draw of a run, by stream: the initial state, then per step its
        # P innovations (none while AR reads its initial state) and one uniform
        log = {}

        class Recorded:
            def __init__(self, rng, calls):
                self.rng, self.calls = rng, calls

            def __getattr__(self, name):
                def draw(size=None):
                    self.calls.append((name, size))
                    return getattr(self.rng, name)(size)
                return draw

        monkeypatch.setattr(sim, "substream", lambda seed, *path: Recorded(
            substream(seed, *path), log.setdefault(path, [])))
        m = ARModel((0.3, 0.2), Gaussian(), IIDInnovation(), GE)
        est = sim.estimate_splitting(m, range(6), 500, 4)
        monkeypatch.undo()
        assert np.array_equal(est.p_hat, sim.estimate_splitting(m, range(6), 500, 4).p_hat)
        assert log == {
            ("split", "init"): [("standard_normal", (500, 2))],
            **{("split", t): [("random", None)] for t in (0, 1)},
            **{("split", t): [("standard_normal", 500), ("random", None)] for t in range(2, 6)},
        }

    def test_extinct_after_first_step(self):
        # Z_0 = 1 survives; Z_1 = -10 + xi < -9 kills every particle
        m = ARModel((-10.0,), Uniform(-1.0, 1.0), PointMass((1.0,)), GE)
        with pytest.raises(sim.PopulationExtinct) as exc:
            sim.estimate_splitting(m, range(5), 2000, 0)
        assert exc.value.step == 1


class TestSystematicIndices:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3000), st.integers(2, 3000),
           st.floats(0.0, 1.0, exclude_max=True))
    def test_floor_or_ceil_copies(self, n, size, u):
        idx = sim.systematic_indices(u, n, size)
        copies = np.bincount(idx, minlength=n)
        assert len(copies) == n and copies.sum() == size
        assert set(copies.tolist()) <= {size // n, -(-size // n)}
        assert np.all(np.diff(idx) >= 0)

    @pytest.mark.parametrize("u", [0.0, 0.37, 0.999])
    @pytest.mark.parametrize("n, size", [(1, 7), (7, 7), (3, 10), (999, 1000), (2, 65_536)])
    def test_matches_plain_loop(self, n, size, u):
        assert sim.systematic_indices(u, n, size).tolist() == plain_systematic(u, n, size)

    def test_largest_uniform_stays_in_range(self):
        u = 1.0 - 2.0 ** -53
        for n in (1, 3, 7, 2 ** 20, 10 ** 5):
            assert sim.systematic_indices(u, n, 2 * n).max() == n - 1


# Fixed-seed values of every route. The coefficients are asymmetric, so a
# reversed or shifted coefficient in model.drift moves every value below.
# The Monte Carlo values are pinned from per_step_counts (at
# DRAW_ORDER_REPLICATES) and reference_splitting, and the AR operator value
# from ar2_density_table, which spell the coefficient order out themselves.
COEFFICIENT_ORDER_CASES = [
    (ARModel((0.5, -0.3), Gaussian(), IIDInnovation(), GE),
     [65648, 32644, 18260, 10394, 5770, 3167, 1748, 947, 532, 296, 165, 98, 51, 24, 10, 8, 5],
     [0.0013379222315355037, 8.465551682490946e-09, 5.94329120364211e-14],
     0.5521273970409593),
    (MAModel((0.5, -0.2), Gaussian(), GE),
     [65361, 39261, 21120, 12094, 6795, 3865, 2153, 1191, 652, 333, 183, 93, 50, 27, 17, 8, 4],
     [0.001620508523458125, 1.3086173669869438e-08, 1.1301430276757393e-13],
     0.558142203379211),
]


def ar2_density_table(model, grid):
    """The Gaussian AR(2) kernel w_z phi(z - a_1 x_2 - a_2 x_1) on the grid, at
    every (x_1, x_2, z) at once: a_1 weighs the newer coordinate x_2."""
    x1, x2, z = np.ix_(grid.nodes, grid.nodes, grid.nodes)
    y = (z - model.coeffs[0] * x2 - model.coeffs[1] * x1) / model.innovation.sd
    return np.exp(-0.5 * y * y) / (model.innovation.sd * math.sqrt(2.0 * math.pi)) * grid.weights


class TestCoefficientOrder:
    @pytest.mark.parametrize("m, counts, split_p, lam", COEFFICIENT_ORDER_CASES,
                             ids=["ar2", "ma2"])
    def test_routes_match_pinned_values(self, m, counts, split_p, lam):
        for threads in (1, 2):
            est = sim.estimate_crude(m, range(17), DRAW_ORDER_REPLICATES, 3, threads=threads)
            assert est.counts.tolist() == counts
        est = sim.estimate_splitting(m, range(51), 2000, 3)
        assert est.p_hat[[10, 30, 50]] == pytest.approx(split_p, rel=1e-12)
        assert op.solve_operator(m, n=80).lam == pytest.approx(lam, abs=1e-12)

    @pytest.mark.parametrize("m, counts, split_p, lam", COEFFICIENT_ORDER_CASES,
                             ids=["ar2", "ma2"])
    def test_references_give_the_pins(self, m, counts, split_p, lam):
        assert per_step_counts(m, range(17), DRAW_ORDER_REPLICATES, 3) == counts
        p_hat, _ = reference_splitting(m, 50, 2000, 3)
        assert p_hat[[10, 30, 50]] == pytest.approx(split_p, rel=1e-12)
        if isinstance(m, ARModel):
            grid = op.default_grid(m, None, 80)
            table = DenseOperator(grid, ar2_density_table(m, grid))
            assert op.spectral_radius(table).lam == pytest.approx(lam, abs=1e-12)


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


class TestRefusals:
    def test_crude_needs_a_replicate(self):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        with pytest.raises(ValueError, match="need at least one replicate"):
            sim.estimate_crude(m, [0, 1], 0, 0)

    def test_splitting_needs_two_particles(self):
        m = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        with pytest.raises(ValueError, match="need at least two particles"):
            sim.estimate_splitting(m, [0, 1], 1, 0)
