import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from persistx import harness, oracle
from persistx import simulate as sim
from persistx.model import (
    ARModel,
    Exponential,
    Gaussian,
    IIDInnovation,
    MAModel,
    Rademacher,
    SurvivalConvention,
    Uniform,
)

GE = SurvivalConvention.NON_NEGATIVE
GT = SurvivalConvention.STRICTLY_POSITIVE


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = harness.canonical_json({"b": 1.0 / 3.0, "a": 1})
        assert text.index('"a"') < text.index('"b"')
        assert "0.33333333333333331" in text

    def test_seventeen_digits_roundtrip(self):
        values = [1.0 / 3.0, math.pi, 1e-300, 123456.789, 2.0 ** -52]
        text = harness.canonical_json({"v": values})
        back = json.loads(text)
        assert back["v"] == values

    def test_non_finite_floats_become_strings(self):
        text = harness.canonical_json({"a": math.nan, "b": math.inf, "c": -math.inf})
        back = json.loads(text)
        assert back == {"a": "nan", "b": "inf", "c": "-inf"}

    def test_numpy_types_normalized(self):
        text = harness.canonical_json(
            {"i": np.int64(3), "f": np.float64(0.5), "arr": np.array([1.0, 2.0]),
             "flag": np.bool_(True)}
        )
        back = json.loads(text)
        assert back == {"i": 3, "f": 0.5, "arr": [1.0, 2.0], "flag": True}

    def test_deterministic_bytes(self):
        obj = {"z": [1, 2, {"y": 0.1}], "a": None}
        assert harness.canonical_json(obj) == harness.canonical_json(obj)

    def test_pinned_text(self):
        # one payload of every kind the writer handles, against its exact text
        class Tag:
            def __str__(self):
                return "tag<1>"

        payload = {
            "empty_dict": {}, "empty_list": [],
            "nested": {"d": {}, "l": [], "t": (1, 2.5)},
            "tuple": (1, "a", None), "arr": np.array([1.0, 0.1]),
            "arr2": np.array([[1, 2], [3, 4]]), "flag": np.bool_(False),
            "i": np.int64(-7), "f": np.float64(1.0 / 3.0), "nan": math.nan,
            "inf": math.inf, "ninf": -math.inf, "none": None, 3: "int key",
            "obj": Tag(), "b": True, "s": 'x"y',
        }
        expected = """{
  "3": "int key",
  "arr": [
    1,
    0.10000000000000001
  ],
  "arr2": [
    [
      1,
      2
    ],
    [
      3,
      4
    ]
  ],
  "b": true,
  "empty_dict": {},
  "empty_list": [],
  "f": 0.33333333333333331,
  "flag": false,
  "i": -7,
  "inf": "inf",
  "nan": "nan",
  "nested": {
    "d": {},
    "l": [],
    "t": [
      1,
      2.5
    ]
  },
  "ninf": "-inf",
  "none": null,
  "obj": "tag<1>",
  "s": "x\\"y",
  "tuple": [
    1,
    "a",
    null
  ]
}
"""
        assert harness.canonical_json(payload) == expected
        assert harness.canonical_json([]) == "[]\n"
        assert harness.canonical_json({}) == "{}\n"


class TestDetectOracle:
    def detect(self, model):
        return harness.detect_oracle(model)

    def test_ar1_uniform(self):
        m = ARModel((-1.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
        lam, info, label = self.detect(m)
        assert lam == pytest.approx(1.0 / math.pi)
        assert label is None

    def test_ar1_exponential(self):
        m = ARModel((-0.5,), Exponential(), IIDInnovation(), GE)
        lam, _, _ = self.detect(m)
        assert lam == pytest.approx(1.0 / 1.5)

    def test_ar_supercritical(self):
        m = ARModel((1.2,), Gaussian(), IIDInnovation(), GE)
        lam, info, label = self.detect(m)
        assert lam == 1.0
        assert info["characteristic_root"] == 1.2
        assert label is None

    def test_ar_mixed_sign_label(self):
        m = ARModel((0.8, -0.4), Gaussian(), IIDInnovation(), GE)
        lam, _, label = self.detect(m)
        assert lam is None
        assert label == harness.EXPLORATORY_LABEL

    def test_iid_case(self):
        m = ARModel((0.0,), Exponential(), IIDInnovation(), GE)
        lam, _, _ = self.detect(m)
        assert lam == pytest.approx(1.0)
        m2 = MAModel((0.0,), Gaussian(), GE)
        lam2, _, _ = self.detect(m2)
        assert lam2 == pytest.approx(0.5)

    def test_ma_degenerate(self):
        m = MAModel((-1.0,), Gaussian(), GE)
        lam, info, label = self.detect(m)
        assert lam == 0.0
        assert label == "degenerate, beta=0"

    def test_ma1_known_families(self):
        assert harness.detect_oracle(MAModel((1.0,), Uniform(-1.0, 3.0), GE))[0] \
            == pytest.approx(0.8993316389440023)
        assert harness.detect_oracle(MAModel((1.0,), Gaussian(), GE))[0] \
            == pytest.approx(2.0 / math.pi)
        assert harness.detect_oracle(MAModel((-0.4,), Exponential(), GE))[0] \
            == pytest.approx(0.6)
        assert harness.detect_oracle(
            MAModel((1.0,), Rademacher(), SurvivalConvention.STRICTLY_POSITIVE))[0] \
            == pytest.approx(0.5)

    def test_no_oracle_for_generic_ma(self):
        lam, _, label = harness.detect_oracle(MAModel((0.3,), Gaussian(), GE))
        assert lam is None and label is None


class TestCompare:
    def test_ar1_uniform_all_routes(self):
        case = {
            "process": "ar", "coeffs": [-1.0],
            "innovation": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
            "seed": 0,
            "mc": {"method": "crude", "replicates": 150_000, "horizons": list(range(0, 11))},
            "operator": {"N": 300},
        }
        report = harness.compare(case)
        assert report["passed"]
        assert set(report["checks"]) == {"oracle_operator", "oracle_mc", "operator_mc"}
        assert report["diffs"]["oracle_operator"] < 2e-3

    def test_ma1_exponential_with_splitting(self):
        case = {
            "process": "ma", "coeffs": [-0.5],
            "innovation": {"kind": "exponential"},
            "seed": 1,
            "mc": {"method": "splitting", "particles": 30_000,
                   "horizons": list(range(0, 41))},
            "operator": {"N": 300, "M": 8.0},
        }
        report = harness.compare(case)
        assert report["passed"]
        assert abs(report["operator"]["lambda"] - 0.5) < 1e-3
        assert abs(report["mc"]["lambda_hat"] - 0.5) < 1e-2

    def test_degenerate_label_skips_checks(self):
        case = {
            "process": "ma", "coeffs": [-1.0],
            "innovation": {"kind": "gaussian", "sd": 1.0},
            "mc": {"method": "none"}, "operator": {"skip": True},
        }
        report = harness.compare(case)
        assert report["label"] == "degenerate, beta=0"
        assert report["lambda_oracle"] == 0.0
        assert report["checks"] == {} and report["passed"]

    def test_unsupported_regime_is_exploratory(self):
        case = {
            "process": "ar", "coeffs": [0.8, -0.4],
            "innovation": {"kind": "gaussian", "sd": 1.0},
            "mc": {"method": "crude", "replicates": 30_000, "horizons": list(range(0, 7))},
            "operator": {"skip": True},
        }
        report = harness.compare(case)
        assert report["label"] == harness.EXPLORATORY_LABEL
        assert report["lambda_oracle"] is None
        assert report["passed"]  # nothing to cross-check

    def test_operator_skipped_for_atomic_innovations(self):
        case = {
            "process": "ma", "coeffs": [1.0],
            "innovation": {"kind": "rademacher"}, "convention": "gt",
            "mc": {"method": "crude", "replicates": 100_000, "horizons": list(range(0, 9))},
        }
        report = harness.compare(case)
        assert report["operator"] is None
        assert report["lambda_oracle"] == pytest.approx(0.5)
        assert "oracle_mc" in report["checks"] and report["passed"]

    def test_supercritical_ar_skips_operator(self):
        # the kernel truncated to [0, M] drops the mass escaping to +inf, so
        # its spectral radius (about 0.728 here) is not the exponent 1
        case = {
            "process": "ar", "coeffs": [1.2],
            "innovation": {"kind": "gaussian", "sd": 1.0},
            "mc": {"method": "none"}, "operator": {"N": 100},
        }
        report = harness.compare(case)
        assert report["lambda_oracle"] == 1.0
        assert report["operator"] is None
        assert report["checks"] == {} and report["passed"]

    def test_degenerate_ma_skips_operator(self):
        case = {
            "process": "ma", "coeffs": [-0.5, -0.5],
            "innovation": {"kind": "gaussian", "sd": 1.0},
            "mc": {"method": "none"}, "operator": {"N": 40},
        }
        report = harness.compare(case)
        assert report["label"] == harness.DEGENERATE_LABEL
        assert report["operator"] is None

    @pytest.mark.parametrize("key, value", [
        ("cut_cell", False), ("scheme", "midpoint"), ("tol", 1e-8), ("max_iter", 10)])
    def test_unknown_operator_key_rejected(self, key, value):
        case = {
            "process": "ar", "coeffs": [0.3],
            "innovation": {"kind": "gaussian", "sd": 1.0},
            "mc": {"method": "none"}, "operator": {"N": 80, key: value},
        }
        with pytest.raises(harness.ConfigError, match=key):
            harness.compare(case)

    @pytest.mark.parametrize("section, typo, key", [
        ("mc", {"method": "crude", "replicate": 1000}, "replicate"),
    ])
    def test_unknown_section_key_rejected(self, section, typo, key):
        case = {
            "process": "ar", "coeffs": [0.3],
            "innovation": {"kind": "gaussian", "sd": 1.0},
            "mc": {"method": "none"}, "operator": {"skip": True},
        }
        case[section] = typo
        with pytest.raises(harness.ConfigError, match=f"unknown {section} key.*{key}"):
            harness.compare(case)

    def test_tolerances_section_is_an_unknown_case_key(self):
        # the tolerances are fixed: no case widens a band
        case = {
            "process": "ar", "coeffs": [0.3],
            "innovation": {"kind": "gaussian", "sd": 1.0},
            "mc": {"method": "none"}, "operator": {"skip": True},
            "tolerances": {"oracle_operater": 1.0},
        }
        with pytest.raises(harness.ConfigError, match="unknown case key.*tolerances"):
            harness.compare(case)
        del case["tolerances"]
        assert harness.compare(case)["tolerances"] == harness.TOLERANCES

    def test_mc_pair_within_its_band_passes(self, monkeypatch):
        # a Monte Carlo exponent two half-widths above 1/pi, with a half-width
        # far above the fixed 5e-3: the Monte Carlo band, not the tolerance,
        # passes both pairs
        hw = 0.02
        lam_hat = 1.0 / math.pi + 2.0 * hw
        n = np.arange(9)
        est = sim.PersistenceEstimate(
            method="crude", horizons=n, p_hat=lam_hat ** n, se=np.zeros(9),
            log_var=np.zeros(9), effort=20_000, seed=3, window=(4, 9),
            lambda_hat=lam_hat, half_width=hw)
        monkeypatch.setattr(harness, "run_mc", lambda model, cfg, seed: est)
        case = {
            "process": "ar", "coeffs": [-1.0],
            "innovation": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
            "seed": 3, "mc": {"method": "crude"}, "operator": {"N": 100},
        }
        report = harness.compare(case)
        assert report["mc"]["half_width"] == hw
        for key in ("oracle_mc", "operator_mc"):
            diff = report["diffs"][key]
            assert harness.TOLERANCES[key] < hw < diff <= harness.MC_BAND * hw
            assert report["checks"][key]
        assert report["passed"]

    @pytest.mark.parametrize("change, error, message", [
        ({"Ms": [], "threads": [2.5], "mc": {"method": "splitting", "threads": 2.5}},
         harness.ConfigError, r"Ms must be a nonempty list, got \[\]"),
        ({"mc": {"method": "crud"}}, harness.ConfigError, "unknown mc method 'crud'"),
        ({"threads": [1, 2.5]}, ValueError, "threads must be an integer, got 2.5"),
    ], ids=["suite_example", "mc_method", "listed_threads"])
    def test_suite_case_checks_before_any_route(self, monkeypatch, change, error, message):
        def no_route(*args, **kwargs):
            raise AssertionError("a route ran")

        monkeypatch.setattr(harness, "detect_oracle", no_route)
        case = {"process": "ar", "coeffs": [0.3], "innovation": {"kind": "gaussian"},
                "operator": {"N": 60}, **change}
        with pytest.raises(error, match=message):
            harness.compare(case)

    def test_mc_pair_beyond_both_bands_fails(self):
        # a fit over horizons 1..4 of AR(1) 0.9 sits far below the exponent
        case = {
            "process": "ar", "coeffs": [0.9],
            "innovation": {"kind": "gaussian", "sd": 1.0},
            "seed": 0,
            "mc": {"method": "crude", "replicates": 20_000, "horizons": list(range(0, 5)),
                   "window": [1, 5]},
            "operator": {"N": 100},
        }
        report = harness.compare(case)
        diff = report["diffs"]["operator_mc"]
        assert diff > harness.MC_BAND * report["mc"]["half_width"]
        assert diff > harness.TOLERANCES["operator_mc"]
        assert report["checks"] == {"operator_mc": False} and not report["passed"]

    def test_fit_without_finite_exponent_leaves_mc_pairs_unscored(self):
        case = {
            "process": "ar", "coeffs": [-1.0],
            "innovation": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
            "mc": {"method": "crude", "replicates": 4000, "horizons": [0, 1]},
            "operator": {"N": 100},
        }
        report = harness.compare(case)
        assert not math.isfinite(report["mc"]["lambda_hat"])
        assert set(report["diffs"]) == set(report["checks"]) == {"oracle_operator"}
        assert report["passed"]

    def test_payload_has_no_wall_times(self):
        case = {
            "process": "ar", "coeffs": [0.0],
            "innovation": {"kind": "gaussian", "sd": 1.0},
            "mc": {"method": "crude", "replicates": 10_000, "horizons": [0, 1, 2, 3]},
            "operator": {"N": 50},
        }
        report = harness.compare(case)
        text = harness.canonical_json(report)
        assert "wall" not in text


class TestMonotonicitySweep:
    def test_gaussian_family_increases(self):
        m = ARModel((0.0,), Gaussian(), IIDInnovation(), GE)
        res = harness.monotonicity_sweep(m, [(0.0,), (0.2,), (0.4,)], n=150, delta="auto")
        assert res["passed"]
        assert all(inc > 1e-3 for inc in res["increments"])
        assert res["lambdas"][0] == pytest.approx(0.5, abs=1e-6)

    def test_single_point_trivially_passes(self):
        m = ARModel((0.3,), Gaussian(), IIDInnovation(), GE)
        res = harness.monotonicity_sweep(m, [(0.3,)], n=100)
        assert res["passed"] and res["increments"] == []

    def test_preconditions(self):
        m = ARModel((0.0,), Gaussian(), IIDInnovation(), GE)
        with pytest.raises(ValueError):
            harness.monotonicity_sweep(m, [(0.4,), (0.2,)], n=50)  # not increasing
        with pytest.raises(ValueError):
            harness.monotonicity_sweep(m, [(-0.1,), (0.2,)], n=50)  # negative entry
        with pytest.raises(ValueError):
            harness.monotonicity_sweep(m, [(0.5,), (1.5,)], n=50)  # leaves the regime
        with pytest.raises(ValueError):
            harness.monotonicity_sweep(m, [], n=50)
        with pytest.raises(ValueError):
            harness.monotonicity_sweep(
                MAModel((0.5,), Gaussian(), GE), [(0.0,), (0.2,)], n=50)

    @pytest.mark.parametrize("innovation", [Exponential(), Uniform(0.0, 2.0)])
    def test_rejects_law_without_mass_below_zero(self, innovation):
        # every path with a >= 0 survives: lambda = 1 on the whole grid
        m = ARModel((0.0,), innovation, IIDInnovation(), GE)
        with pytest.raises(ValueError, match="mass below zero"):
            harness.monotonicity_sweep(m, [(0.0,), (0.1,), (0.2,)], n=50)

    def test_rejects_atomic_innovation(self):
        m = ARModel((0.0,), Rademacher(), IIDInnovation(), GE)
        with pytest.raises(ValueError):
            harness.monotonicity_sweep(m, [(0.0,), (0.2,)], n=50)


class TestContinuitySweep:
    def test_ar_path_converges_to_target(self):
        m = ARModel((0.0,), Gaussian(), IIDInnovation(), GE)
        path = [(0.5 - 2.0 ** -k,) for k in range(2, 11)]
        res = harness.continuity_sweep(m, path, (0.5,), n=150, delta=0.25)
        assert res["nonincreasing"]
        assert res["final_gap"] < 1e-3
        assert res["passed"]

    def test_ma_path(self):
        m = MAModel((0.0,), Gaussian(), GE)
        path = [(1.0 - 2.0 ** -k,) for k in range(3, 9)]
        res = harness.continuity_sweep(m, path, (1.0,), m=6.0, n=200)
        assert res["passed"]

    def test_constant_path(self):
        m = ARModel((0.0,), Gaussian(), IIDInnovation(), GE)
        res = harness.continuity_sweep(m, [(0.3,), (0.3,)], (0.3,), n=100)
        assert res["passed"] and res["final_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_empty_path_rejected(self):
        m = ARModel((0.0,), Gaussian(), IIDInnovation(), GE)
        with pytest.raises(ValueError):
            harness.continuity_sweep(m, [], (0.3,), n=50)


class TestPropertyChecks:
    def test_qbound_at_order_two(self):
        # Z_0 is symmetric about 0, so P(Z_0 >= 0) = 1/2
        case = {"process": "ma", "coeffs": [0.5, 0.5],
                "innovation": {"kind": "gaussian", "sd": 1.0}}
        ok, details = harness.PROPERTY_CHECKS["qbound"](case, 0)
        assert ok
        assert details["p0"] == pytest.approx(0.5, abs=1e-12)

    def test_qbound_p0_takes_no_seed(self):
        case = {"process": "ma", "coeffs": [0.5, -0.2, 0.1],
                "innovation": {"kind": "exponential"}, "mc": {"replicates": 20000}}
        details = [harness.PROPERTY_CHECKS["qbound"](case, seed)[1] for seed in (0, 1)]
        assert details[0]["p0"] == details[1]["p0"]
        assert details[0]["min_margin"] != details[1]["min_margin"]

    def test_qbound_above_order_four_named(self):
        case = {"process": "ma", "coeffs": [0.1] * 5, "innovation": {"kind": "gaussian"}}
        with pytest.raises(harness.ConfigError, match="MA orders 1 to 4, got order 5"):
            harness.PROPERTY_CHECKS["qbound"](case, 0)

    def test_nonnegativity_takes_auto_delta(self):
        # "auto" is resolved by operator.assemble, as in compare cases
        case = {"process": "ar", "coeffs": [0.5], "innovation": {"kind": "gaussian"},
                "operator": {"N": 60, "delta": "auto"}}
        ok, _ = harness.PROPERTY_CHECKS["nonnegativity"](case, 0)
        assert ok

    @pytest.mark.parametrize("name", ["kmat", "base", "coef", "scale", "upper"])
    def test_nonnegativity_reads_every_kernel_array(self, monkeypatch, name):
        # a negative entry in any array the kernel's entries are built from
        # fails the check, even where every image stays nonnegative
        from types import SimpleNamespace

        from persistx import operator

        def assemble(model, grid, delta=0.0):
            parts = dict.fromkeys(("kmat", "base", "coef", "scale", "upper"), np.ones(3))
            parts[name] = np.array([1.0, -0.5, 1.0])
            return SimpleNamespace(apply=np.ones_like, **parts)

        monkeypatch.setattr(operator, "assemble", assemble)
        case = {"process": "ar", "coeffs": [0.5, -0.3], "innovation": {"kind": "exponential"},
                "operator": {"N": 20}}
        ok, details = harness.PROPERTY_CHECKS["nonnegativity"](case, 0)
        assert not ok and details == {"min_entry_or_image": -0.5}

    def test_nonnegativity_rejects_ma_tilt(self):
        case = {"process": "ma", "coeffs": [0.5], "innovation": {"kind": "gaussian"},
                "operator": {"N": 40, "delta": 0.3}}
        with pytest.raises(ValueError, match="MA operator takes no tilt"):
            harness.PROPERTY_CHECKS["nonnegativity"](case, 0)

    # P(Z_0 >= 0) against closed forms: 1/2 for a symmetric law, 1/(1 - a1)
    # for exponential MA(1) with a1 < 0, and 1 - (5/7 + 1.35)/9 = 971/1260 for
    # uniform(-1, 2) MA(1) 0.7. The tolerance is 1e-12 where the error is at
    # most 1e-14, else ten times the error measured: the (1 - u)^c integrands
    # of the exponential law and the kink of the uniform one converge slowest.
    @pytest.mark.parametrize("coeffs,innovation,p0,tol", [
        ((1.0,), Gaussian(), 0.5, 1e-12),
        ((0.5, 0.5), Gaussian(), 0.5, 1e-12),
        ((0.5, 0.5, 0.5), Gaussian(), 0.5, 1e-12),
        ((0.5, 0.5, 0.5, 0.5), Gaussian(), 0.5, 1e-12),
        ((0.3, -0.2, 0.6), Gaussian(2.0), 0.5, 1e-12),
        ((0.5, 0.5), Uniform(-1.0, 1.0), 0.5, 1e-12),
        ((-0.5,), Exponential(), 1.0 / 1.5, 1.3e-10),
        ((-0.9,), Exponential(), 1.0 / 1.9, 1e-12),
        ((-0.1,), Exponential(), 1.0 / 1.1, 2.9e-8),
        ((0.7,), Uniform(-1.0, 2.0), 971.0 / 1260.0, 1.1e-7),
    ], ids=["gaussian_q1", "gaussian_q2", "gaussian_q3", "gaussian_q4", "gaussian_sd2_q3",
            "uniform_symmetric_q2", "exponential_m0.5", "exponential_m0.9", "exponential_m0.1",
            "uniform_m1_2"])
    def test_p0_closed_forms(self, coeffs, innovation, p0, tol):
        assert abs(harness._ma_p0(MAModel(coeffs, innovation, GE)) - p0) <= tol

    def test_p0_exponential_ma3_reference(self):
        # Z_0 < 0 iff 0.2 xi_{-2} > xi_0 + 0.5 xi_{-1} + 0.1 xi_{-3}, which has
        # probability E[exp(-5 xi)] E[exp(-2.5 xi)] E[exp(-0.5 xi)] = 1/31.5;
        # the kink of 1 - F(-s) at s = 0 limits the 64-node rule to about 1e-5
        model = MAModel((0.5, -0.2, 0.1), Exponential(), GE)
        assert abs(harness._ma_p0(model) - 61.0 / 63.0) <= 2e-5

    @pytest.mark.parametrize("coeffs,convention,p0", [
        ((1.0,), GE, oracle.rademacher_pn(0, GE)),
        ((1.0,), GT, oracle.rademacher_pn(0, GT)),
        ((0.3, 0.7), GE, 5 / 8),
        ((0.3, 0.7), GT, 3 / 8),
    ], ids=["a1_ge", "a1_gt", "0.3_0.7_ge", "0.3_0.7_gt"])
    def test_p0_rademacher_exact(self, coeffs, convention, p0):
        # Z_0 = 0 on a tie, which the convention keeps (ge) or kills (gt)
        assert harness._ma_p0(MAModel(coeffs, Rademacher(), convention)) == p0

    @pytest.mark.parametrize("innovation", [Gaussian(), Exponential()],
                             ids=["gaussian", "exponential"])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_p0_memory_within_budget(self, q, innovation):
        # at most 2^18 states, so a few 2 MiB arrays at once
        model = MAModel((0.5,) * q, innovation, GE)
        harness._ma_p0(model)
        tracemalloc.start()
        try:
            harness._ma_p0(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    @pytest.mark.parametrize("check, process", [("nonnegativity", "ma"),
                                                ("conjugation", "ar")])
    def test_zero_truncation_rejected(self, check, process):
        # M = 0 is an error, as in compare, not a request for the default
        case = {"process": process, "coeffs": [0.5], "innovation": {"kind": "gaussian"},
                "operator": {"M": 0, "N": 40}}
        with pytest.raises(ValueError, match="M > 0"):
            harness.PROPERTY_CHECKS[check](case, 0)


class TestRunMc:
    def test_splitting_default_horizons(self):
        model = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        est = harness.run_mc(model, {"method": "splitting", "particles": 300}, 0)
        assert list(est.horizons) == list(range(0, 61))

    @pytest.mark.parametrize("window", [5, (3, 40), (-6, -1), (4, 4), (2.0, 5), (True, 5),
                                        (1, 2, 3), "0:5"])
    def test_window_outside_the_horizons_named(self, window, monkeypatch):
        # 17 default crude horizons; the window is checked before anything runs
        def no_run(*args, **kwargs):
            raise AssertionError("the estimate ran")

        monkeypatch.setattr(sim, "estimate_crude", no_run)
        model = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        with pytest.raises(ValueError, match=re.escape(f"fit window {window!r}")):
            harness.run_mc(model, {"window": window}, 0)

    def test_window_on_unsorted_horizons_named(self, monkeypatch):
        # the window indexes the list as written; the estimate would sort it first
        def no_run(*args, **kwargs):
            raise AssertionError("the estimate ran")

        monkeypatch.setattr(sim, "estimate_crude", no_run)
        model = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        with pytest.raises(ValueError, match=re.escape("horizon list [8, 0, 4] is unsorted")):
            harness.run_mc(model, {"horizons": [8, 0, 4], "window": [0, 2]}, 0)

    def test_unsorted_horizons_without_window_are_sorted(self):
        model = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        est = harness.run_mc(model, {"replicates": 4000, "horizons": [8, 0, 4]}, 0)
        assert est.horizons.tolist() == [0, 4, 8]

    def test_window_ends_at_the_horizon_count(self):
        model = ARModel((0.5,), Gaussian(), IIDInnovation(), GE)
        est = harness.run_mc(model, {"replicates": 4000, "horizons": [0, 1, 2, 3],
                                     "window": [1, 4]}, 0)
        assert est.window == (1, 4)


def tiny_config():
    return {
        "seed": 0,
        "cases": [
            {"name": "uniform-exact", "type": "compare",
             "process": "ar", "coeffs": [-1.0],
             "innovation": {"kind": "uniform", "lo": -1.0, "hi": 1.0},
             "mc": {"method": "crude", "replicates": 60_000, "horizons": list(range(0, 9))},
             "operator": {"N": 200}},
            {"name": "nonneg", "type": "property", "check": "nonnegativity",
             "process": "ar", "coeffs": [0.5],
             "innovation": {"kind": "gaussian", "sd": 1.0}, "operator": {"N": 100}},
            {"name": "determinism", "type": "property", "check": "determinism",
             "process": "ar", "coeffs": [0.3],
             "innovation": {"kind": "gaussian", "sd": 1.0},
             "mc": {"replicates": 20_000}},
        ],
    }


class TestRunSuite:
    def test_tiny_suite_green(self, tmp_path):
        res = harness.run_suite(tiny_config(), tmp_path / "out")
        assert not res.any_failed
        names = {r["name"] for r in res.records}
        assert names == {"uniform-exact", "nonneg", "determinism"}
        for name in names:
            assert (tmp_path / "out" / f"{name}.json").exists()
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_reports_byte_reproducible(self, tmp_path):
        harness.run_suite(tiny_config(), tmp_path / "a")
        harness.run_suite(tiny_config(), tmp_path / "b")
        for name in ("uniform-exact", "nonneg", "determinism"):
            a = (tmp_path / "a" / f"{name}.json").read_bytes()
            b = (tmp_path / "b" / f"{name}.json").read_bytes()
            assert a == b, name

    def test_summary_lists_every_case(self, tmp_path):
        res = harness.run_suite(tiny_config(), tmp_path / "out")
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(res.records)
        header = lines[0].split(",")
        assert header[0] == "case" and "passed" in header and "wall_time_s" in header

    def test_empty_case_list(self, tmp_path):
        res = harness.run_suite({"cases": []}, tmp_path / "out")
        assert not res.any_failed
        assert (tmp_path / "out" / "summary.csv").read_text().count("\n") == 1

    def test_failing_case_sets_exit_flag(self, tmp_path):
        config = {
            "seed": 0,
            "cases": [
                {"name": "dead", "type": "compare",
                 "process": "ar", "coeffs": [0.0],
                 "innovation": {"kind": "uniform", "lo": -2.0, "hi": -1.0},
                 "mc": {"method": "crude", "replicates": 2000, "horizons": [0, 1]},
                 "operator": {"skip": True}},
            ],
        }
        res = harness.run_suite(config, tmp_path / "out")
        assert res.any_failed
        assert "AllPathsDied" in res.records[0]["error"]

    def test_unknown_case_type_named(self, tmp_path):
        with pytest.raises(harness.ConfigError, match="case 0"):
            harness.run_suite({"cases": [{"name": "x", "type": "banana"}]}, tmp_path / "o")

    @pytest.mark.parametrize("initial, field", [
        ({"kind": "point_mass"}, "values"),
        ({"kind": "stationary_ar1_gaussian"}, "a1"),
        ({"kind": "point_mass", "values": 3}, "values"),
    ], ids=["point_mass_without_values", "stationary_without_a1", "point_mass_scalar_values"])
    def test_malformed_initial_named(self, tmp_path, initial, field):
        case = {"name": "x", "process": "ar", "coeffs": [0.5],
                "innovation": {"kind": "gaussian"}, "initial": initial}
        with pytest.raises(harness.ConfigError, match=f"case 0: .*'{field}'"):
            harness.run_suite({"cases": [case]}, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change, field", [
        ({"innovation": {"kind": "gaussian", "sd": [1]}}, "sd"),
        ({"innovation": {"kind": "gaussian", "sd": None}}, "sd"),
        ({"coeffs": [[1]]}, "coeffs"),
    ], ids=["sd_list", "sd_null", "coeffs_nested"])
    def test_malformed_number_named(self, tmp_path, change, field):
        case = {"name": "x", "process": "ar", "coeffs": [0.5],
                "innovation": {"kind": "gaussian"}, **change}
        with pytest.raises(harness.ConfigError, match=f"case 0: .*'{field}'"):
            harness.run_suite({"cases": [case]}, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_bad_window_is_a_case_error(self, tmp_path):
        config = tiny_config()
        config["cases"][0]["mc"]["window"] = 5
        res = harness.run_suite(config, tmp_path / "out")
        assert res.any_failed
        assert res.records[0]["error"] == (
            "ValueError: fit window 5 is not a pair of integers i0, i1 "
            "with 0 <= i0 < i1 <= 9, the number of horizons")
        assert [r["passed"] for r in res.records[1:]] == [True, True]

    def test_window_on_unsorted_horizons_is_a_case_error(self, tmp_path):
        config = tiny_config()
        config["cases"][0]["mc"].update(horizons=[8, 0, 4], window=[0, 2])
        res = harness.run_suite(config, tmp_path / "out")
        assert res.any_failed
        assert res.records[0]["error"] == (
            "ValueError: fit window [0, 2] indexes the horizons as listed, "
            "but the horizon list [8, 0, 4] is unsorted")
        assert [r["passed"] for r in res.records[1:]] == [True, True]

    def test_ma_tilt_is_a_case_error(self, tmp_path):
        config = {"cases": [{"name": "tilted", "process": "ma", "coeffs": [1.0],
                             "innovation": {"kind": "gaussian"}, "mc": {"method": "none"},
                             "operator": {"N": 50, "delta": 0.7}}]}
        res = harness.run_suite(config, tmp_path / "out")
        assert "MA operator takes no tilt" in res.records[0]["error"]

    @pytest.mark.parametrize("names, bad", [
        (["a", "a"], "'a'"),
        (["case-2", "x", None], "'case-2'"),
        (["x", None, "case-1"], "'case-1'"),
        (["../x", "b", "c"], "'../x'"),
        (["a", "b/c", "d"], "'b/c'"),
        (["", "b", "c"], "''"),
        ([".", "b", "c"], "'.'"),
        (["a", "..", "c"], "'..'"),
    ], ids=["repeat", "repeat_default_name", "repeat_of_a_default", "parent_dir", "subdir",
            "empty", "dot", "dotdot"])
    def test_case_names_checked_before_any_case_runs(self, tmp_path, names, bad):
        config = tiny_config()
        for case, name in zip(config["cases"], names):
            if name is None:
                del case["name"]
            else:
                case["name"] = name
        with pytest.raises(harness.ConfigError, match=re.escape(f"name {bad}")):
            harness.run_suite(config, tmp_path / "out" / "o")
        assert not (tmp_path / "out").exists()

    def test_unknown_property_check_named(self, tmp_path):
        with pytest.raises(harness.ConfigError, match="qqq"):
            harness.run_suite(
                {"cases": [{"name": "x", "type": "property", "check": "qqq"}]},
                tmp_path / "o")

    def test_malformed_json_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"cases": [\n  {"name" "missing-colon"}\n]}')
        with pytest.raises(harness.ConfigError, match="line 2"):
            harness.run_suite(bad, tmp_path / "o")

    def test_unknown_operator_key_named(self, tmp_path):
        config = tiny_config()
        config["cases"][0]["operator"] = {"N": 80, "cut_cell": False}
        with pytest.raises(harness.ConfigError, match="case 0.*cut_cell"):
            harness.run_suite(config, tmp_path / "o")

    @pytest.mark.parametrize("index, section, typo, key", [
        (0, "mc", {"method": "crude", "replicate": 1000}, "replicate"),
        # the tolerances are fixed, so the section itself is an unknown case key
        (0, "tolerances", {"oracle_operater": 1.0}, "unknown case key.*tolerances"),
        (2, "mc", {"replicate": 20_000}, "replicate"),
        # a misspelled top-level key is refused, not skipped for the defaults
        (0, "operater", {"N": 50}, "operater"),
        (1, "ms", [1, 2], "ms"),
    ])
    def test_unknown_section_key_named_before_any_case_runs(self, tmp_path, index, section,
                                                            typo, key):
        config = tiny_config()
        config["cases"][index][section] = typo
        with pytest.raises(harness.ConfigError, match=f"case {index}.*{key}"):
            harness.run_suite(config, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change, error, message", [
        ({"sead": 5}, harness.ConfigError, "unknown config key.*sead"),
        ({"seed": 1.9}, ValueError, "seed must be an integer, got 1.9"),
        ({"seed": True}, ValueError, "seed must be an integer, got True"),
        ({"threads": "x"}, ValueError, "threads must be an integer, got 'x'"),
        ({"threads": 2.5}, ValueError, "threads must be an integer, got 2.5"),
        ({"threads": True}, ValueError, "threads must be an integer, got True"),
        ({"threads": 0}, ValueError, "threads must be a positive count, got 0"),
        ({"threads": -3}, ValueError, "threads must be a positive count, got -3"),
    ], ids=["misspelled_key", "fractional_seed", "bool_seed", "string_threads",
            "fractional_threads", "bool_threads", "zero_threads", "negative_threads"])
    def test_config_keys_checked_before_any_case_runs(self, tmp_path, change, error,
                                                      message):
        config = {**tiny_config(), **change}
        with pytest.raises(error, match=message):
            harness.run_suite(config, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threads", [0, -3])
    def test_non_positive_suite_threads_refused_before_any_case_runs(self, tmp_path, threads):
        # the caller's count, as the CLI's --threads passes it, ran serial
        with pytest.raises(ValueError, match=f"threads must be a positive count, got {threads}"):
            harness.run_suite(tiny_config(), tmp_path / "o", threads=threads)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("index, section, change, message", [
        (0, None, {"seed": 1.9}, "seed must be an integer, got 1.9"),
        (1, None, {"seed": True}, "seed must be an integer, got True"),
        (0, "operator", {"N": 50.5}, "N must be an integer, got 50.5"),
        (0, "mc", {"replicates": 5000.7}, "replicates must be an integer, got 5000.7"),
        (2, "mc", {"method": "splitting", "particles": "many"},
         "particles must be an integer, got 'many'"),
        (0, "mc", {"horizons": [0, 4, 8.5]}, "horizon must be an integer, got 8.5"),
        (0, "mc", {"threads": 2.5}, "threads must be an integer, got 2.5"),
        (2, None, {"threads": [1, 2.5]}, "threads must be an integer, got 2.5"),
        (2, None, {"threads": [True]}, "threads must be an integer, got True"),
        (0, "mc", {"threads": 0}, "threads must be a positive count, got 0"),
        (2, None, {"threads": [1, -3]}, "threads must be a positive count, got -3"),
        (2, None, {"threads": []}, "threads must be a nonempty list"),
        (2, None, {"threads": 2}, "threads must be a nonempty list"),
        (1, None, {"check": "truncation", "Ms": []}, "Ms must be a nonempty list"),
        (1, None, {"check": "conjugation", "deltas": []}, "deltas must be a nonempty list"),
        (1, None, {"check": "qbound", "process": "ma", "mc": {"method": "none"}},
         "the qbound check bounds a Monte Carlo estimate, so its mc method cannot be 'none'"),
        (0, "mc", {"method": "crud"}, "unknown mc method 'crud'"),
        (2, "mc", {"method": "crud"}, "unknown mc method 'crud'"),
    ], ids=["case_seed", "bool_seed", "operator_N", "replicates", "particles", "horizon",
            "mc_threads", "listed_threads", "bool_listed_threads", "zero_mc_threads",
            "negative_listed_threads", "empty_threads",
            "scalar_threads", "empty_Ms", "empty_deltas", "qbound_without_mc",
            "mc_method", "property_mc_method"])
    def test_case_counts_checked_before_any_output(self, tmp_path, index, section, change,
                                                    message):
        config = tiny_config()
        case = config["cases"][index]
        (case if section is None else case.setdefault(section, {})).update(change)
        with pytest.raises(harness.ConfigError, match=f"case {index}: {message}"):
            harness.run_suite(config, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_benchmark_suite_validates(self):
        # every key of the benchmark's suite config stays known
        suite = Path(__file__).resolve().parents[1] / "perfbench" / "suite.json"
        config = json.loads(suite.read_text())
        assert config["cases"]
        for i, case in enumerate(config["cases"]):
            harness._validate_case(case, i)

    @pytest.mark.parametrize("index, change, message", [
        (1, {"innovation": {"kind": "banana"}}, "banana"),
        (2, {"coeffs": None}, "coeffs"),
        (1, {"process": "ma", "initial": {"kind": "iid"}}, "initial law"),
    ])
    def test_malformed_model_named_before_any_case_runs(self, tmp_path, index, change,
                                                        message):
        # property cases have their models checked as compare cases do
        config = tiny_config()
        config["cases"][index].update(change)
        with pytest.raises(harness.ConfigError, match=f"case {index}.*{message}"):
            harness.run_suite(config, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_config_from_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": []}))
        res = harness.run_suite(cfg, tmp_path / "out")
        assert not res.any_failed

    def test_threaded_suite_matches_serial(self, tmp_path):
        harness.run_suite(tiny_config(), tmp_path / "ser")
        harness.run_suite(tiny_config(), tmp_path / "par", threads=3)
        for name in ("uniform-exact", "nonneg", "determinism"):
            a = (tmp_path / "ser" / f"{name}.json").read_bytes()
            b = (tmp_path / "par" / f"{name}.json").read_bytes()
            assert a == b


AR_CASE = {"process": "ar", "coeffs": [0.5], "innovation": {"kind": "gaussian", "sd": 1.0}}
MA_CASE = {"process": "ma", "coeffs": [0.5, 0.5], "innovation": {"kind": "gaussian", "sd": 1.0}}


class TestUnreadKeys:
    """A key that a case's type does not read is a config error that names it."""

    @pytest.mark.parametrize("case, unread", [
        ({"type": "property", "check": "determinism",
          "mc": {"method": "splitting", "particles": 500}},
         "a determinism case does not read mc.method, mc.particles"),
        ({"type": "property", "check": "truncation", "operator": {"delta": "auto", "M": 3.0}},
         "a truncation case does not read operator.delta, operator.M"),
        ({"type": "property", "check": "conjugation", "operator": {"delta": 0.7},
          "mc": {"replicates": 1000}},
         "a conjugation case does not read operator.delta, mc.replicates"),
        ({"type": "compare", "Ms": [2.0], "deltas": [0.1], "check": "truncation",
          "threads": [1]},
         "a compare case does not read check, Ms, deltas, threads"),
        ({"type": "property", "check": "nonnegativity", "operator": {"skip": True}},
         "a nonnegativity case does not read operator.skip"),
        ({"type": "property", "check": "determinism", "Ms": [2.0], "mc": {"threads": 2}},
         "a determinism case does not read Ms, mc.threads"),
    ], ids=["determinism_method", "truncation_tilt_and_M", "conjugation_sections",
            "compare_lists", "nonnegativity_skip", "determinism_Ms_mc_threads"])
    def test_unread_key_named_before_any_output(self, tmp_path, case, unread):
        config = tiny_config()
        config["cases"].append({"name": "extra", **AR_CASE, **case})
        with pytest.raises(harness.ConfigError, match=re.escape(f"case 3: {unread}")):
            harness.run_suite(config, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_compare_refuses_an_unread_key(self):
        case = {**AR_CASE, "mc": {"method": "none"}, "operator": {"N": 40}, "deltas": [0.1]}
        with pytest.raises(harness.ConfigError, match="a compare case does not read deltas"):
            harness.compare(case)

    @pytest.mark.parametrize("case", [
        {"type": "compare", **AR_CASE, "seed": 3, "operator": {"M": 4.0, "N": 40,
                                                               "delta": "auto", "skip": True},
         "mc": {"method": "crude", "horizons": [0, 1, 2], "replicates": 100,
                "particles": 10, "threads": 1, "window": [0, 2]}},
        {"type": "property", "check": "nonnegativity", **AR_CASE,
         "operator": {"M": 4.0, "N": 40, "delta": 0.1}},
        {"type": "property", "check": "conjugation", **AR_CASE, "deltas": [0.0, 0.2],
         "operator": {"M": 4.0, "N": 40}},
        {"type": "property", "check": "truncation", **AR_CASE, "Ms": [2.0, 4.0],
         "operator": {"N": 40}},
        {"type": "property", "check": "qbound", **MA_CASE,
         "mc": {"method": "splitting", "horizons": [0, 1, 2], "replicates": 100,
                "particles": 10, "threads": 1, "window": [0, 2]}},
        {"type": "property", "check": "determinism", **AR_CASE, "threads": [1, 2],
         "mc": {"horizons": [0, 1], "replicates": 100}},
    ], ids=["compare", "nonnegativity", "conjugation", "truncation", "qbound", "determinism"])
    def test_every_key_a_case_reads_is_accepted(self, case):
        assert harness._validate_case(case, 0) == case["type"]


class TestRefusals:
    @pytest.mark.parametrize("config, message", [
        ({"cases": [5]}, "case 0 is not an object"),
        ({"cases": [{**AR_CASE, "mc": [1]}]}, "case 0: the 'mc' section must be an object"),
        ({"cases": [{**AR_CASE, "operator": 40}]},
         "case 0: the 'operator' section must be an object"),
        ({"cases": {"a": AR_CASE}}, "'cases' must be a list"),
        ({"seed": 0}, "config must be an object with a 'cases' list"),
        # one error names every case whose process or order its check refuses
        ({"cases": [{"type": "property", "check": "conjugation", **MA_CASE, "coeffs": [0.5]},
                    {"type": "property", "check": "qbound", **MA_CASE, "coeffs": [0.1] * 5}]},
         "case 0: conjugation invariance is an AR property; "
         "case 1: qbound computes p_0 for MA orders 1 to 4, got order 5"),
    ], ids=["case", "mc_section", "operator_section", "cases_not_a_list", "no_cases",
            "process_and_order"])
    def test_malformed_config_refused_before_any_output(self, tmp_path, config, message):
        with pytest.raises(harness.ConfigError, match=re.escape(message)):
            harness.run_suite(config, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(harness.ConfigError,
                           match="config must be an object with a 'cases' list"):
            harness.run_suite(path, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("check, case, message", [
        ("conjugation", MA_CASE, "conjugation invariance is an AR property"),
        ("qbound", AR_CASE, "the q-dependence bound is an MA property"),
    ])
    def test_property_on_the_wrong_process(self, check, case, message):
        with pytest.raises(harness.ConfigError, match=message):
            harness.PROPERTY_CHECKS[check](case, 0)
