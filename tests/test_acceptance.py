"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each test computes its quantities first, records a single
"ACCEPTANCE n: PASS/FAIL - details" line (echoed in the terminal summary),
and only then asserts, so the line is emitted whether or not the criterion
holds. Tolerances are pinned in the assertions, not tuned per run.
"""

import math

import numpy as np
import pytest

from persistx import harness, oracle
from persistx import operator as op
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
from conftest import record_acceptance

GE = SurvivalConvention.NON_NEGATIVE
GT = SurvivalConvention.STRICTLY_POSITIVE


def verdict(ok):
    return "PASS" if ok else "FAIL"


def test_criterion_01_ar1_uniform_operator():
    m_sym = ARModel((-1.0,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
    res_sym = op.solve_operator(m_sym, n=400)
    err_sym = abs(res_sym.lam - 1.0 / math.pi)

    m_asym = ARModel((-1.0,), Uniform(-1.0, 3.0), IIDInnovation(), GE)
    res_asym = op.solve_operator(m_asym, n=400)
    err_asym = abs(res_asym.lam - 6.0 / (4.0 * math.pi))

    ok = (res_sym.grid.lo, res_sym.grid.hi) == (0.0, 1.0) \
        and err_sym <= 1e-3 and err_asym <= 1e-3
    record_acceptance(
        f"ACCEPTANCE 1: {verdict(ok)} - AR(1) uniform operator on [0,1] N=400: "
        f"|lam-1/pi|={err_sym:.2e} (<=1e-3); (a,b)=(1,3): "
        f"|lam-6/(4pi)|={err_asym:.2e} (<=1e-3)"
    )
    assert (res_sym.grid.lo, res_sym.grid.hi) == (0.0, 1.0)
    assert err_sym <= 1e-3
    assert err_asym <= 1e-3


def test_criterion_02_ar1_exponential_monte_carlo():
    m = ARModel((-1.0,), Exponential(), IIDInnovation(Exponential()), GE)
    est = sim.estimate_crude(m, list(range(0, 13)), 1_000_000, 7)
    devs = []
    for j, n in enumerate(est.horizons):
        if n == 0:
            continue
        target = 0.5 ** int(n)
        devs.append(abs(est.p_hat[j] - target) / est.se[j])
    max_dev = max(devs)
    lam_hat, _ = sim.fit_exponent(est)

    split = sim.estimate_splitting(m, list(range(0, 101)), 100_000, 7)
    log_rate = math.log(split.p_hat[-1]) / 100.0
    log_err = abs(log_rate - math.log(0.5))

    ok = max_dev <= 4.0 and 0.48 <= lam_hat <= 0.52 and log_err <= 0.01
    record_acceptance(
        f"ACCEPTANCE 2: {verdict(ok)} - AR(1) exponential: crude R=1e6 max "
        f"|p_hat-(1/2)^n|/SE={max_dev:.2f} (<=4), fitted lam={lam_hat:.4f} "
        f"(in [0.48,0.52]); splitting P=1e5 |log p_100/100 - log(1/2)|="
        f"{log_err:.2e} (<=0.01)"
    )
    assert max_dev <= 4.0
    assert 0.48 <= lam_hat <= 0.52
    assert log_err <= 0.01


def test_criterion_03_ma1_symmetric():
    m = MAModel((1.0,), Gaussian(), GE)
    res = op.solve_operator(m, m=8.0, n=800)
    err_op = abs(res.lam - 2.0 / math.pi)
    err_series = abs(oracle.ma1_symmetric_series(2, terms=200) - 1.0 / 3.0)

    ok = err_op <= 1e-3 and err_series <= 1e-6
    record_acceptance(
        f"ACCEPTANCE 3: {verdict(ok)} - MA(1) Gaussian M=8 N=800 cut-cell: "
        f"|lam-2/pi|={err_op:.2e} (<=1e-3); series c=2 terms=200 "
        f"|sum-1/3|={err_series:.2e} (<=1e-6)"
    )
    assert err_op <= 1e-3
    assert err_series <= 1e-6


def test_criterion_04_ma1_uniform_root():
    a, b = 1.0, 3.0
    lam_root = oracle.ma1_uniform_exponent(a, b)
    r = 1.0 - 2.0 * a / (a + b)
    resid = abs(math.tan(a / ((a + b) * lam_root))
                - (1.0 - r / lam_root) / (1.0 + r / lam_root))

    m = MAModel((1.0,), Uniform(-a, b), GE)
    lam_op = op.solve_operator(m, n=400).lam
    gap = abs(lam_op - lam_root)

    flat_at_tie = 4.0 / (math.pi * 2.0)
    root_at_tie = oracle._ma1_uniform_root(1.0, 1.0 + 1e-12)
    branch_err = max(abs(flat_at_tie - 2.0 / math.pi), abs(root_at_tie - 2.0 / math.pi))

    ok = resid <= 1e-10 and gap <= 2e-3 and branch_err <= 1e-10
    record_acceptance(
        f"ACCEPTANCE 4: {verdict(ok)} - MA(1) uniform (1,3): equation residual "
        f"{resid:.1e} (<=1e-10), |lam_op-lam_root|={gap:.2e} (<=2e-3); branch "
        f"agreement at a=b: {branch_err:.1e} (<=1e-10)"
    )
    assert resid <= 1e-10
    assert gap <= 2e-3
    assert branch_err <= 1e-10


def test_criterion_05_ma1_exponential():
    details = []
    lam_ok = True
    resid_ok = True
    for a1 in (-0.9, -0.5, -0.1):
        m = MAModel((a1,), Exponential(), GE)
        trunc = (1.0 + a1) * math.log(10.0 * (1.0 + a1) / 1e-7)
        grid = op.default_grid(m, trunc, 800)
        kop = op.assemble_ma(m, grid)
        lam = op.spectral_radius(kop).lam
        lam_err = abs(lam - (1.0 + a1))
        g = oracle.ma1_exponential_eigenfunction(a1)(grid.nodes)
        resid = float(np.abs(kop.apply(g) - (1.0 + a1) * g).max())
        lam_ok = lam_ok and lam_err <= 1e-3
        resid_ok = resid_ok and resid <= 1e-6
        details.append(f"a1={a1}: lam_err={lam_err:.1e}, resid={resid:.1e}")

    ok = lam_ok and resid_ok
    record_acceptance(
        f"ACCEPTANCE 5: {verdict(ok)} - MA(1) exponential N=800 "
        f"(lam tol 1e-3, residual tol 1e-6): " + "; ".join(details)
    )
    assert lam_ok
    # known shortfall: the nodal residual floors at the O(h^2) quadrature
    # error of the survival kink, which exceeds 1e-6 at N=800 for the two
    # slower-decaying cases; kept red rather than retuned
    assert resid_ok


def test_criterion_06_rademacher():
    rel_err = 0.0
    for conv in (GE, GT):
        for n in range(0, 41):
            closed = oracle.rademacher_pn(n, conv)
            transfer = oracle.rademacher_ma_pn(MAModel((1.0,), Rademacher(), conv), n)
            rel_err = max(rel_err, abs(closed - transfer) / transfer)

    m_strict = MAModel((1.0,), Rademacher(), GT)
    est_strict = sim.estimate_crude(m_strict, [1], 1_000_000, 21)
    dev_strict = abs(est_strict.p_hat[0] - 1.0 / 8.0) / est_strict.se[0]
    m_loose = MAModel((1.0,), Rademacher(), GE)
    est_loose = sim.estimate_crude(m_loose, [1], 1_000_000, 21)
    dev_loose = abs(est_loose.p_hat[0] - 5.0 / 8.0) / est_loose.se[0]

    ok = rel_err <= 1e-12 and dev_strict <= 4.0 and dev_loose <= 4.0
    record_acceptance(
        f"ACCEPTANCE 6: {verdict(ok)} - Rademacher: closed vs transfer matrix "
        f"n<=40 rel err {rel_err:.1e} (<=1e-12); crude R=1e6 p_1 devs "
        f"{dev_strict:.2f} SE (strict, 1/8) and {dev_loose:.2f} SE (non-strict, 5/8)"
    )
    assert rel_err <= 1e-12
    assert dev_strict <= 4.0
    assert dev_loose <= 4.0


def test_criterion_07_degenerate_ma():
    m = MAModel((-1.0,), Gaussian(), GE)
    est = sim.estimate_crude(m, [0, 1, 2, 3, 4], 10_000_000, 13)
    max_dev = 0.0
    for j in range(5):
        target = oracle.degenerate_factorial_pn(j)
        max_dev = max(max_dev, abs(est.p_hat[j] - target) / est.se[j])

    lam_small = op.solve_operator(m, m=6.0, n=400).lam
    lam_big = op.solve_operator(m, m=8.0, n=800).lam

    ok = max_dev <= 4.0 and lam_small > lam_big
    record_acceptance(
        f"ACCEPTANCE 7: {verdict(ok)} - degenerate MA(1): crude R=1e7 max "
        f"|p_hat-1/(n+2)!|/SE={max_dev:.2f} (<=4, n<=4); operator lam "
        f"(M=6,N=400)={lam_small:.3e} > (M=8,N=800)={lam_big:.3e}"
    )
    assert max_dev <= 4.0
    assert lam_small > lam_big


def test_criterion_08_strict_monotonicity():
    m = ARModel((0.0,), Gaussian(), IIDInnovation(), GE)
    grid = [(round(0.1 * k, 1),) for k in range(0, 6)]
    res = harness.monotonicity_sweep(m, grid, n=200, delta="auto", threshold=1e-4)
    base_err = abs(res["lambdas"][0] - 0.5)
    min_inc = min(res["increments"])

    ok = res["passed"] and base_err <= 1e-3
    record_acceptance(
        f"ACCEPTANCE 8: {verdict(ok)} - Gaussian AR(1) tilted operator over "
        f"a1 in 0..0.5: min increment {min_inc:.2e} (>1e-4), "
        f"lam(0)=0.5 err {base_err:.1e} (<=1e-3)"
    )
    assert res["passed"]
    assert base_err <= 1e-3


def test_criterion_09_supercritical():
    m = ARModel((1.2,), Uniform(-1.0, 1.0), IIDInnovation(), GE)
    est = sim.estimate_splitting(m, list(range(0, 201)), 100_000, 17)
    lam_50, _ = sim.fit_exponent(est, (1, 50))
    lam_200, _ = sim.fit_exponent(est, (1, 200))
    rho = oracle.characteristic_root([1.2])

    ok = lam_200 > lam_50 and lam_200 > 0.9 and rho == 1.2
    record_acceptance(
        f"ACCEPTANCE 9: {verdict(ok)} - supercritical AR(1) a1=1.2: splitting "
        f"lam(n=50)={lam_50:.4f} < lam(n=200)={lam_200:.4f} (>0.9); "
        f"characteristic root {rho} == 1.2 exactly"
    )
    assert lam_200 > lam_50
    assert lam_200 > 0.9
    assert rho == 1.2


def test_criterion_10_property_suite(tmp_path):
    config = {
        "seed": 0,
        "cases": [
            {"name": "nonnegativity", "type": "property", "check": "nonnegativity",
             "process": "ar", "coeffs": [0.5],
             "innovation": {"kind": "gaussian", "sd": 1.0}, "operator": {"N": 200}},
            {"name": "conjugation", "type": "property", "check": "conjugation",
             "process": "ar", "coeffs": [0.5],
             "innovation": {"kind": "gaussian", "sd": 1.0},
             "deltas": [0.0, 0.1, 0.5], "operator": {"N": 200}},
            {"name": "truncation", "type": "property", "check": "truncation",
             "process": "ar", "coeffs": [0.5],
             "innovation": {"kind": "gaussian", "sd": 1.0},
             "Ms": [2.0, 4.0, 6.0], "operator": {"N": 400}},
            {"name": "qbound", "type": "property", "check": "qbound",
             "process": "ma", "coeffs": [0.7],
             "innovation": {"kind": "gaussian", "sd": 1.0},
             "mc": {"replicates": 200_000, "horizons": list(range(0, 13))}},
            {"name": "determinism", "type": "property", "check": "determinism",
             "process": "ar", "coeffs": [0.3],
             "innovation": {"kind": "gaussian", "sd": 1.0},
             "threads": [1, 2, 8], "mc": {"replicates": 2 * sim.BLOCK + 1}},
        ],
    }
    res = harness.run_suite(config, tmp_path / "suite")
    status = {r["name"]: r["passed"] for r in res.records}

    ok = not res.any_failed and len(status) == 5
    record_acceptance(
        f"ACCEPTANCE 10: {verdict(ok)} - run_suite property checks: "
        + ", ".join(f"{k}={'green' if v else 'RED'}" for k, v in status.items())
    )
    assert len(status) == 5
    assert not res.any_failed
