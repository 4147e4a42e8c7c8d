import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistx import model as model_mod
from persistx.model import (
    ARModel,
    Exponential,
    Gaussian,
    IIDInnovation,
    MAModel,
    PointMass,
    Rademacher,
    RequestedDensityOfAtomicLaw,
    StationaryAR1Gaussian,
    SurvivalConvention,
    Uniform,
    innovation_from_json,
    model_from_json,
    substream,
)


class TestDistributionValues:
    def test_uniform_cdf_and_quantile(self):
        u = Uniform(-1.0, 1.0)
        assert u.cdf(0.0) == pytest.approx(0.5)
        assert u.quantile(0.25) == pytest.approx(-0.5)
        assert u.cdf(-2.0) == 0.0 and u.cdf(2.0) == 1.0

    def test_uniform_density(self):
        u = Uniform(-1.0, 3.0)
        assert u.density(0.0) == pytest.approx(0.25)
        assert u.density(-1.5) == 0.0 and u.density(3.5) == 0.0

    def test_gaussian_cdf(self):
        g = Gaussian()
        assert g.cdf(0.0) == pytest.approx(0.5)
        assert g.cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)
        assert g.density(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_gaussian_sd_scaling(self):
        g = Gaussian(2.0)
        assert g.cdf(2.0) == pytest.approx(Gaussian().cdf(1.0))

    def test_exponential(self):
        e = Exponential()
        assert e.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0))
        assert e.cdf(-0.5) == 0.0
        assert e.density(-0.5) == 0.0
        assert e.density(2.0) == pytest.approx(math.exp(-2.0))
        assert e.quantile(0.5) == pytest.approx(math.log(2.0))

    def test_rademacher_cdf_steps(self):
        r = Rademacher()
        got = r.cdf(np.array([-1.5, -1.0, 0.0, 0.99, 1.0, 2.0]))
        assert got.tolist() == [0.0, 0.5, 0.5, 0.5, 1.0, 1.0]

    def test_rademacher_density_refuses(self):
        with pytest.raises(RequestedDensityOfAtomicLaw):
            Rademacher().density(0.0)
        with pytest.raises(RequestedDensityOfAtomicLaw):
            Rademacher().density(np.zeros(3))

    def test_rademacher_quantile(self):
        r = Rademacher()
        assert r.quantile(0.25) == -1.0
        assert r.quantile(0.75) == 1.0

    def test_uniform_density_cdf_and_sample(self):
        u = Uniform(0.0, 2.0)
        assert u.density(1.0) == pytest.approx(0.5)
        assert u.cdf(1.0) == pytest.approx(0.5)
        x = u.sample(substream(0, "alias"), 10)
        assert x.shape == (10,) and np.all((x >= 0.0) & (x <= 2.0))

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Gaussian(0.0)

    def test_tail_radius_bounds_tail_mass(self):
        for dist in (Uniform(-1.0, 3.0), Gaussian(1.5), Exponential(), Rademacher()):
            r = dist.tail_radius()
            tail = (1.0 - dist.cdf(r)) + dist.cdf(-r - 1e-12)
            assert tail <= model_mod.TAIL_MASS + 1e-12

    def test_decay_rates(self):
        assert Uniform(-1.0, 1.0).exponential_decay_rate() == math.inf
        assert Gaussian(2.0).exponential_decay_rate() == pytest.approx(0.5)
        assert Exponential().exponential_decay_rate() == 1.0


class TestStandardNormal:
    """Gaussian() is Phi: 0.5 erfc of the C library, with cephes' underflow to
    0, held to scipy.special's ndtr as reference, with a literal tail radius
    that equals ndtri's."""

    def test_cdf_within_8_ulp_of_ndtr(self):
        from scipy.special import ndtr

        x = np.linspace(-1.0, 8.3, 400_001)
        want = ndtr(x)
        assert np.all(np.abs(Gaussian().cdf(x) - want) <= 8 * np.spacing(want))

    def test_cdf_lower_tail_relative_to_ndtr(self):
        from scipy.special import ndtr

        x = np.linspace(-37.0, -1.0, 400_001)
        want = ndtr(x)
        assert np.all(np.abs(Gaussian().cdf(x) - want) <= 1e-12 * want)

    @pytest.mark.parametrize("sd", [0.5, 3.0])
    def test_scaled_law_matches_scipy(self, sd):
        from scipy.special import ndtr

        g = Gaussian(sd)
        x = np.linspace(-40.0, 40.0, 801) * sd
        want = ndtr(x / sd)
        assert np.all(np.abs(g.cdf(x) - want) <= 1e-12 * want)

    @pytest.mark.parametrize("sd", [0.01, 0.3, 0.7, 1.0, 2.0, 3.0, 100.0])
    def test_tail_radius_is_ndtri_at_tail_mass(self, sd):
        from scipy.special import ndtri

        assert model_mod.TAIL_MASS / 2.0 == 5e-11
        assert Gaussian(sd).tail_radius() == sd * ndtri(1.0 - 5e-11)

    def test_no_quantile(self):
        with pytest.raises(NotImplementedError):
            Gaussian().quantile(0.5)

    def test_special_values(self):
        g = Gaussian()
        assert g.cdf(-np.inf) == 0.0 and g.cdf(np.inf) == 1.0 and np.isnan(g.cdf(np.nan))
        assert g.cdf(0.0) == 0.5 and g.cdf(-0.0) == 0.5

    def test_shapes_kept(self):
        f = Gaussian().cdf
        for arg in (0.3, np.float64(0.3), np.array(0.3)):
            assert np.ndim(f(arg)) == 0 and isinstance(f(arg), np.float64)
        for shape in ((0,), (2, 3), (3, 0, 2)):
            assert f(np.full(shape, 0.3)).shape == shape
        strided = np.linspace(0.01, 0.99, 24).reshape(4, 6)[:, ::2]
        assert np.array_equal(f(strided), f(strided.copy()))

    def test_batch_does_not_change_values(self):
        # a point's value is the same whatever batch, or batch position, it falls in
        n = (1 << 16) + 1
        x = substream(0, "chunks").uniform(-40.0, 40.0, n)
        x[::1001] = np.resize([np.nan, np.inf, -np.inf, 0.0], x[::1001].size)
        g = Gaussian()
        whole = g.cdf(x)
        pieces = np.concatenate([g.cdf(x[i:i + 9973]) for i in range(0, n, 9973)])
        assert np.array_equal(whole, pieces, equal_nan=True)
        singles = np.array([g.cdf(v) for v in x])
        assert np.array_equal(whole, singles, equal_nan=True)


class TestQuantileCdfInverse:
    @given(st.floats(-0.999, 2.999))
    def test_uniform_roundtrip(self, x):
        u = Uniform(-1.0, 3.0)
        assert u.quantile(u.cdf(x)) == pytest.approx(x, abs=1e-12)

    @given(st.floats(0.001, 20.0))
    def test_exponential_roundtrip(self, x):
        # representing F(x) near 1 costs eps/(1-F(x)) of relative precision,
        # about 5e-8 at x = 20, so the bound tracks the tail mass
        e = Exponential()
        tol = max(1e-12, 2e-16 / math.exp(-x))
        assert e.quantile(e.cdf(x)) == pytest.approx(x, abs=tol)

    @given(st.floats(0.0001, 0.9999))
    def test_cdf_of_quantile(self, u):
        for dist in (Uniform(-2.0, 1.0), Exponential()):
            assert dist.cdf(dist.quantile(u)) == pytest.approx(u, abs=1e-9)


class TestSampling:
    def test_sampler_matches_law_moments(self):
        n = 1_000_000
        x = Uniform(-1.0, 1.0).sample(substream(0, "lln", 0), n)
        assert abs(x.mean()) < 5e-3 and abs(x.var() - 1.0 / 3.0) < 5e-3
        x = Gaussian().sample(substream(0, "lln", 1), n)
        assert abs(x.mean()) < 5e-3 and abs(x.var() - 1.0) < 1e-2
        x = Exponential().sample(substream(0, "lln", 2), n)
        assert abs(x.mean() - 1.0) < 5e-3 and np.all(x >= 0.0)
        x = Rademacher().sample(substream(0, "lln", 3), n)
        assert set(np.unique(x)) == {-1.0, 1.0}
        assert abs(x.mean()) < 5e-3

    # 2e5 ziggurat draws at a fixed seed, held to the law's own cdf
    @pytest.mark.parametrize("law", [Gaussian(0.5), Gaussian(3.0), Exponential()],
                             ids=["gaussian_0.5", "gaussian_3", "exponential"])
    def test_direct_sampler_passes_ks(self, law):
        from scipy.stats import kstest

        x = law.sample(substream(0, "ks", repr(law)), 200_000)
        assert kstest(x, law.cdf).pvalue > 1e-3

    def test_sample_shapes(self):
        g = Gaussian()
        s = substream(1, "shape")
        assert np.shape(g.sample(s)) == ()
        assert g.sample(s, 7).shape == (7,)
        assert g.sample(s, (3, 4)).shape == (3, 4)

    def test_substream_is_deterministic_and_path_dependent(self):
        a = substream(42, "crude", 3).random(5)
        b = substream(42, "crude", 3).random(5)
        c = substream(42, "crude", 4).random(5)
        d = substream(43, "crude", 3).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestInitialLaws:
    def test_point_mass(self):
        init = PointMass((1.0, -2.0))
        got = init.sample(2, substream(0, "i"), size=1)
        assert got.tolist() == [[1.0, -2.0]]
        got = init.sample(2, substream(0, "i"), size=3)
        assert got.shape == (3, 2) and np.all(got == [1.0, -2.0])

    def test_iid_initial(self):
        init = IIDInnovation(Exponential())
        got = init.sample(4, substream(0, "i"), size=100)
        assert got.shape == (100, 4) and np.all(got >= 0.0)

    def test_unbound_iid_initial_refuses_to_sample(self):
        with pytest.raises(ValueError):
            IIDInnovation().sample(2, substream(0, "i"), size=1)

    def test_stationary_ar1(self):
        init = StationaryAR1Gaussian(0.6)
        x = init.sample(1, substream(0, "i"), size=200_000)
        assert x.shape == (200_000, 1)
        target_var = 1.0 / (1.0 - 0.36)
        assert x.var() == pytest.approx(target_var, rel=2e-2)

    def test_stationary_requires_contraction(self):
        with pytest.raises(ValueError):
            StationaryAR1Gaussian(1.0)

    def test_point_mass_sample(self):
        got = PointMass((0.5,)).sample(1, substream(0, "x"), size=2)
        assert got.tolist() == [[0.5], [0.5]]


class TestModels:
    def test_ar_model_basics(self):
        m = ARModel((0.5, 0.25), Gaussian(), IIDInnovation(), SurvivalConvention.NON_NEGATIVE)
        assert m.order == 2
        assert m.coeffs == (0.5, 0.25)
        assert m.initial.innovation == Gaussian()

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="declared order 2"):
            model_from_json({"process": "ar", "order": 2, "coeffs": [0.5],
                             "innovation": {"kind": "gaussian"}})
        with pytest.raises(ValueError, match="declared order 1"):
            model_from_json({"process": "ma", "order": 1, "coeffs": [0.5, 0.1],
                             "innovation": {"kind": "gaussian"}})

    @pytest.mark.parametrize("order", [1.5, True, "x"])
    def test_order_is_a_count(self, order):
        with pytest.raises(ValueError, match=r"order must be an integer, got"):
            model_from_json({"process": "ar", "order": order, "coeffs": [0.5],
                             "innovation": {"kind": "gaussian"}})

    def test_point_mass_length_checked(self):
        with pytest.raises(ValueError):
            ARModel((0.5, 0.2), Gaussian(), PointMass((1.0,)))

    def test_stationary_initial_needs_order_one(self):
        with pytest.raises(ValueError):
            ARModel((0.5, 0.2), Gaussian(), StationaryAR1Gaussian(0.5))

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            ARModel((), Gaussian(), IIDInnovation())

    def test_scalar_coeffs_accepted(self):
        m = model_from_json({"process": "ar", "coeffs": 1, "innovation": {"kind": "gaussian"}})
        assert m.coeffs == (1.0,)

    def test_survival_conventions(self):
        z = np.array([-1.0, 0.0, 1.0])
        assert SurvivalConvention.NON_NEGATIVE.survives(z).tolist() == [False, True, True]
        assert SurvivalConvention.STRICTLY_POSITIVE.survives(z).tolist() == [False, False, True]


class TestJsonSchema:
    def test_ar_roundtrip(self):
        m = ARModel((-1.0,), Uniform(-1.0, 1.0), PointMass((0.0,)),
                    SurvivalConvention.STRICTLY_POSITIVE)
        assert model_from_json(m.to_json()) == m

    def test_ma_roundtrip(self):
        m = MAModel((0.7, -0.2), Gaussian(2.0))
        assert model_from_json(m.to_json()) == m

    def test_default_initial_is_iid_innovation(self):
        m = model_from_json({"process": "ar", "coeffs": [0.5],
                             "innovation": {"kind": "exponential"}})
        assert m.initial == IIDInnovation(Exponential())

    def test_stationary_roundtrip(self):
        m = ARModel((0.6,), Gaussian(), StationaryAR1Gaussian(0.6))
        assert model_from_json(m.to_json()) == m

    def test_ma_rejects_initial(self):
        with pytest.raises(ValueError, match="initial"):
            model_from_json({"process": "ma", "coeffs": [0.5],
                             "innovation": {"kind": "gaussian"},
                             "initial": {"kind": "point_mass", "values": [0.0]}})

    def test_unknown_tags_are_named(self):
        with pytest.raises(ValueError, match="arma"):
            model_from_json({"process": "arma", "coeffs": [0.5],
                             "innovation": {"kind": "gaussian"}})
        with pytest.raises(ValueError, match="cauchy"):
            model_from_json({"process": "ar", "coeffs": [0.5],
                             "innovation": {"kind": "cauchy"}})
        with pytest.raises(ValueError, match="geq"):
            model_from_json({"process": "ar", "coeffs": [0.5],
                             "innovation": {"kind": "gaussian"}, "convention": "geq"})

    @pytest.mark.parametrize("build, field", [
        (lambda: model_from_json({"process": "ar", "coeffs": [math.nan],
                                  "innovation": {"kind": "gaussian"}}), "coeffs"),
        (lambda: model_from_json({"process": "ma", "coeffs": [math.inf],
                                  "innovation": {"kind": "gaussian"}}), "coeffs"),
        (lambda: ARModel((0.5, -math.inf), Gaussian(), IIDInnovation(),
                         SurvivalConvention.NON_NEGATIVE), "coeffs"),
        (lambda: MAModel((math.nan,), Gaussian(), SurvivalConvention.NON_NEGATIVE), "coeffs"),
        (lambda: Gaussian(math.inf), "sd"),
        (lambda: Uniform(-1.0, math.inf), "hi"),
        (lambda: Uniform(math.nan, 1.0), "lo"),
        (lambda: innovation_from_json({"kind": "gaussian", "sd": math.inf}), "sd"),
        (lambda: innovation_from_json({"kind": "uniform", "lo": -1.0, "hi": math.inf}), "hi"),
        (lambda: innovation_from_json({"kind": "gaussian", "sdd": 2.0}), "sdd"),
        (lambda: innovation_from_json({"kind": "exponential", "rate": 2.0}), "rate"),
    ], ids=["ar_coeff_nan", "ma_coeff_inf", "ar_ctor_inf", "ma_ctor_nan", "gaussian_sd_inf",
            "uniform_hi_inf", "uniform_lo_nan", "json_sd_inf", "json_hi_inf",
            "gaussian_unknown_field", "exponential_unknown_field"])
    def test_nonfinite_or_unknown_field_is_named(self, build, field):
        with pytest.raises(ValueError, match=f"'{field}'"):
            build()

    def test_extra_keys_ignored(self):
        m = model_from_json({"process": "ma", "coeffs": [1.0],
                             "innovation": {"kind": "gaussian"},
                             "seed": 3, "mc": {"method": "crude"}})
        assert isinstance(m, MAModel)
