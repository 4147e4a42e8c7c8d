import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import roots_legendre

from persistx import oracle
from persistx.model import (
    ARModel,
    Exponential,
    Gaussian,
    IIDInnovation,
    MAModel,
    PointMass,
    Rademacher,
    SurvivalConvention,
    Uniform,
    substream,
)

GE = SurvivalConvention.NON_NEGATIVE
GT = SurvivalConvention.STRICTLY_POSITIVE


class TestAr1Uniform:
    def test_symmetric_value(self):
        assert oracle.ar1_uniform_exponent(1.0, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_asymmetric_value(self):
        assert oracle.ar1_uniform_exponent(1.0, 3.0) == pytest.approx(6.0 / (4.0 * math.pi), abs=1e-15)

    def test_rejects_nonpositive_halves(self):
        with pytest.raises(ValueError):
            oracle.ar1_uniform_exponent(0.0, 1.0)


class TestAr1Exponential:
    def test_point_mass_values(self):
        init = PointMass((0.0,))
        assert oracle.ar1_exponential_pn(-1.0, 1, init) == pytest.approx(1.0)
        assert oracle.ar1_exponential_pn(-1.0, 2, init) == pytest.approx(0.5)
        assert oracle.ar1_exponential_pn(-1.0, 3, init) == pytest.approx(0.25)

    def test_point_mass_prefactor(self):
        init = PointMass((2.0,))
        assert oracle.ar1_exponential_pn(-0.5, 1, init) == pytest.approx(math.exp(-1.0))

    def test_negative_start_never_survives(self):
        init = PointMass((-1.0,))
        assert oracle.ar1_exponential_pn(-0.5, 4, init) == 0.0

    def test_exponential_initial_gives_clean_geometric(self):
        init = IIDInnovation(Exponential())
        for n in range(1, 8):
            assert oracle.ar1_exponential_pn(-1.0, n, init) == pytest.approx(0.5 ** n, rel=1e-14)

    def test_exponent(self):
        assert oracle.ar1_exponential_exponent(-1.0) == pytest.approx(0.5)
        assert oracle.ar1_exponential_exponent(-0.25) == pytest.approx(0.8)

    def test_domain(self):
        with pytest.raises(ValueError):
            oracle.ar1_exponential_exponent(0.5)
        with pytest.raises(ValueError):
            oracle.ar1_exponential_pn(-1.0, 0, PointMass((0.0,)))

    def test_monte_carlo_agreement(self):
        # direct check of the closed form against brute force
        rng = substream(0, "oracle-mc")
        a1, n, reps = -0.7, 4, 400_000
        z = Exponential().sample(rng, reps)
        alive = z >= 0.0
        for _ in range(n):
            z = a1 * z + Exponential().sample(rng, reps)
            alive &= z >= 0.0
        p_mc = alive.mean()
        p_oracle = oracle.ar1_exponential_pn(a1, n, IIDInnovation(Exponential()))
        se = math.sqrt(p_mc * (1 - p_mc) / reps)
        assert abs(p_mc - p_oracle) < 4 * se


class TestMa1Uniform:
    def test_flat_branch(self):
        assert oracle.ma1_uniform_exponent(3.0, 1.0) == pytest.approx(4.0 / (4.0 * math.pi))
        assert oracle.ma1_uniform_exponent(1.0, 1.0) == pytest.approx(2.0 / math.pi)

    def test_root_branch_frozen_value(self):
        lam = oracle.ma1_uniform_exponent(1.0, 3.0)
        assert lam == pytest.approx(0.8993316389440023, abs=1e-12)

    def test_root_satisfies_equation(self):
        a, b = 1.0, 3.0
        lam = oracle.ma1_uniform_exponent(a, b)
        r = 1.0 - 2.0 * a / (a + b)
        resid = math.tan(a / ((a + b) * lam)) - (1.0 - r / lam) / (1.0 + r / lam)
        assert abs(resid) <= 1e-10

    def test_branches_agree_at_equal_halves(self):
        flat = 4.0 * 1.0 / (math.pi * 2.0)
        lam_root = oracle._ma1_uniform_root(1.0, 1.0 + 1e-12)
        assert flat == pytest.approx(2.0 / math.pi, abs=1e-10)
        assert lam_root == pytest.approx(2.0 / math.pi, abs=1e-10)

    def test_monotone_in_b(self):
        lams = [oracle.ma1_uniform_exponent(1.0, b) for b in (1.0, 1.5, 2.0, 3.0, 5.0)]
        assert all(x < y for x, y in zip(lams, lams[1:]))
        assert all(0.0 < x < 1.0 for x in lams)


class TestMa1SymmetricSeries:
    def test_single_constraint_is_half(self):
        assert oracle.ma1_symmetric_series(1) == pytest.approx(0.5, abs=1e-8)

    def test_double_constraint_is_third(self):
        assert oracle.ma1_symmetric_series(2) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_more_terms_tightens(self):
        err200 = abs(oracle.ma1_symmetric_series(1, terms=200) - 0.5)
        err5000 = abs(oracle.ma1_symmetric_series(1, terms=5000) - 0.5)
        assert err5000 < err200

    def test_ratio_approaches_exponent(self):
        # consecutive series values decay by the dominant-mode ratio 2/pi
        ratio = oracle.ma1_symmetric_series(7) / oracle.ma1_symmetric_series(6)
        assert ratio == pytest.approx(2.0 / math.pi, abs=1e-3)
        assert oracle.ma1_symmetric_exponent() == pytest.approx(2.0 / math.pi, abs=1e-15)


class TestRademacher:
    def test_strict_small_n_brute_force(self):
        # n=1: Z_0 = xi_0 + xi_{-1}, Z_1 = xi_1 + xi_0, 8 sign patterns
        patterns = [(s0, s1, s2) for s0 in (-1, 1) for s1 in (-1, 1) for s2 in (-1, 1)]
        strict = sum(1 for (a, b, c) in patterns if a + b > 0 and b + c > 0) / 8.0
        loose = sum(1 for (a, b, c) in patterns if a + b >= 0 and b + c >= 0) / 8.0
        assert oracle.rademacher_pn(1, GT) == pytest.approx(strict)
        assert oracle.rademacher_pn(1, GE) == pytest.approx(loose)
        assert strict == 0.125 and loose == 0.625

    def test_closed_form_matches_transfer_matrix(self):
        for conv in (GE, GT):
            for n in range(0, 41):
                closed = oracle.rademacher_pn(n, conv)
                transfer = oracle.rademacher_ma_pn(MAModel((1.0,), Rademacher(), conv), n)
                assert closed == pytest.approx(transfer, rel=1e-12), (conv, n)

    @pytest.mark.parametrize("conv", [GE, GT], ids=["ge", "gt"])
    @pytest.mark.parametrize("coeffs", [(1.0, 1.0), (0.5, 0.5, 1.0), (1.0, -0.4, 0.3)],
                             ids=["1_1", "0.5_0.5_1", "1_m0.4_0.3"])
    def test_ma_pn_matches_every_sign_path(self, coeffs, conv):
        # every path xi_{-q}..xi_n has probability 2^-(q+n+1); Z_t = xi_t +
        # sum_j a_j xi_{t-j}, the sum taken j = 1..q from zero
        q = len(coeffs)
        model = MAModel(coeffs, Rademacher(), conv)
        for n in range(5):
            alive = 0
            for xi in itertools.product((-1.0, 1.0), repeat=q + n + 1):
                levels = [sum(a * xi[q + t - j] for j, a in enumerate(coeffs, start=1))
                          + xi[q + t] for t in range(n + 1)]
                alive += all(conv.survives(z) for z in levels)
            assert oracle.rademacher_ma_pn(model, n) == alive / 2 ** (q + n + 1), n

    def test_exponents(self):
        assert oracle.rademacher_exponent(GT) == pytest.approx(0.5)
        golden = (1.0 + math.sqrt(5.0)) / 4.0
        assert oracle.rademacher_exponent(GE) == pytest.approx(golden)

    def test_strict_values(self):
        assert oracle.rademacher_pn(0, GT) == pytest.approx(0.25)
        assert oracle.rademacher_pn(2, GT) == pytest.approx(1.0 / 16.0)


class TestMa1Exponential:
    def test_exponent_is_one_plus_a1(self):
        for a1 in (-0.9, -0.5, -0.1):
            assert oracle.ma1_exponential_exponent(a1) == pytest.approx(1.0 + a1)

    def test_domain(self):
        for bad in (-1.0, 0.0, 0.5, -1.5):
            with pytest.raises(ValueError):
                oracle.ma1_exponential_exponent(bad)

    def test_eigenfunction_shape(self):
        g = oracle.ma1_exponential_eigenfunction(-0.5)
        x = np.array([-1.0, 0.0, 1.0, 2.0])
        got = g(x)
        assert got[0] == 1.0
        assert got[1] == pytest.approx(1.0)
        assert got[2] == pytest.approx(math.exp(-1.0))
        assert got[3] == pytest.approx(math.exp(-2.0))

    def test_eigenfunction_solves_fixed_point_integral(self):
        # lambda * g(x) = integral over the surviving region, checked by
        # high-resolution quadrature independent of the operator module
        a1 = -0.5
        lam = 1.0 + a1
        g = oracle.ma1_exponential_eigenfunction(a1)
        xs = np.linspace(0.0, 5.0, 9)
        y, w = roots_legendre(4000)
        for x in xs:
            lo = max(0.0, -a1 * x)
            hi = 60.0
            nodes = 0.5 * (hi - lo) * y + 0.5 * (hi + lo)
            weights = 0.5 * (hi - lo) * w
            integral = float(weights @ (np.exp(-nodes) * g(nodes)))
            assert integral == pytest.approx(lam * g(x), rel=1e-10)


class TestDegenerateFactorial:
    def test_small_values(self):
        assert oracle.degenerate_factorial_pn(0) == pytest.approx(0.5)
        assert oracle.degenerate_factorial_pn(1) == pytest.approx(1.0 / 6.0)
        assert oracle.degenerate_factorial_pn(4) == pytest.approx(1.0 / 720.0)

    def test_log_space_for_large_n(self):
        p = oracle.degenerate_factorial_pn(200)
        assert 0.0 < p < 1e-300 or p == pytest.approx(math.exp(-math.lgamma(203)), rel=1e-12)

    def test_matches_exact_factorial_at_crossover(self):
        assert oracle.degenerate_factorial_pn(18) == pytest.approx(1.0 / math.factorial(20), rel=1e-12)
        assert oracle.degenerate_factorial_pn(19) == pytest.approx(1.0 / math.factorial(21), rel=1e-12)


class TestCharacteristicRoot:
    def test_order_one_is_exact(self):
        assert oracle.characteristic_root([1.2]) == 1.2

    def test_order_two(self):
        rho = oracle.characteristic_root([0.8, 0.8])
        assert 0.8 / rho + 0.8 / rho**2 == pytest.approx(1.0, abs=1e-12)
        assert rho > 1.0

    def test_rejects_subcritical_or_signed(self):
        with pytest.raises(ValueError):
            oracle.characteristic_root([0.5])
        with pytest.raises(ValueError):
            oracle.characteristic_root([1.2, -0.1])

    @given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4))
    def test_root_solves_equation(self, coeffs):
        if sum(coeffs) <= 1.0 + 1e-9:
            return
        rho = oracle.characteristic_root(coeffs)
        assert rho > 1.0 - 1e-12
        val = sum(a / rho ** (j + 1) for j, a in enumerate(coeffs))
        assert val == pytest.approx(1.0, abs=1e-9)


class TestClassifyRegime:
    def test_supercritical(self):
        m = ARModel((1.2,), Gaussian(), IIDInnovation())
        got = oracle.classify_regime(m)
        assert got["regime"] == "supercritical"
        assert got["exponent"] == 1.0
        assert got["characteristic_root"] == 1.2

    def test_contractive(self):
        m = ARModel((0.5, 0.25), Gaussian(), IIDInnovation())
        assert oracle.classify_regime(m)["regime"] == "contractive"

    def test_nonpositive(self):
        m = ARModel((-0.5, -1.5), Gaussian(), IIDInnovation())
        assert oracle.classify_regime(m)["regime"] == "nonpositive"

    def test_unclassified_mixed_sign(self):
        m = ARModel((0.8, -0.4), Gaussian(), IIDInnovation())
        assert oracle.classify_regime(m)["regime"] == "unclassified"

    def test_degenerate_ma(self):
        m = MAModel((-1.0,), Gaussian())
        got = oracle.classify_regime(m)
        assert got["degenerate"] is True

    def test_nondegenerate_ma(self):
        m = MAModel((0.5,), Gaussian())
        assert oracle.classify_regime(m)["degenerate"] is False


    @pytest.mark.parametrize("model, keys", [
        (ARModel((1.2,), Gaussian(), IIDInnovation()),
         {"regime", "exponent", "characteristic_root"}),
        (ARModel((0.5, 0.25), Gaussian(), IIDInnovation()), {"regime"}),
        (ARModel((-0.5, -1.5), Gaussian(), IIDInnovation()), {"regime"}),
        (ARModel((0.8, -0.4), Gaussian(), IIDInnovation()), {"regime"}),
        (MAModel((-1.0,), Gaussian()), {"regime", "degenerate"}),
        (MAModel((0.5,), Gaussian()), {"regime", "degenerate"}),
    ], ids=["supercritical", "contractive", "nonpositive", "unclassified", "degenerate_ma",
            "nondegenerate_ma"])
    def test_returns_only_the_keys_read(self, model, keys):
        assert set(oracle.classify_regime(model)) == keys


class TestLogConcaveConditionalMean:
    """E[w dot step(Y - t) | Y >= -s] computed in closed form from the cdf.

    For log-concave innovation laws the conditional survival weight is
    monotone in the shift s; the helper makes that property checkable
    exactly, with no quadrature error.
    """

    @pytest.mark.parametrize("dist", [Gaussian(), Exponential(), Uniform(-1.0, 2.0)])
    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0])
    def test_monotone_in_shift(self, dist, delta):
        thresholds = np.array([0.0, 0.3, 0.9])
        weights = np.array([0.2, 0.5, 0.3])
        shifts = np.linspace(0.0, 2.0, 9) * delta
        vals = [
            oracle.shifted_step_conditional_mean(dist, thresholds, weights, s)
            for s in shifts
        ]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-9)

    def test_matches_direct_computation(self):
        # Exponential xi, shift s = 0.5, one step at t = 1:
        # E[1{xi + s >= t} | xi + s > 0] = P(xi >= t - s) = exp(-(t - s))
        dist = Exponential()
        got = oracle.shifted_step_conditional_mean(dist, np.array([1.0]), np.array([1.0]), 0.5)
        assert got == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_import_leaves_scipy_optimize_unloaded():
    # no persistx code imports scipy.optimize: the root finders bisect
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, persistx; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
