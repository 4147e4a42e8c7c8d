"""Closed-form persistence exponents and exact probabilities for concrete cases.

Everything here is an independent ground truth for the operator and Monte
Carlo routes: iid sequences, AR(1) with uniform or exponential innovations,
MA(1) with uniform, symmetric, Rademacher, or exponential innovations, exact
survival of any Rademacher MA(q), the degenerate moving average with
factorially decaying probabilities, and regime classification (degenerate /
contractive / nonpositive / supercritical with its characteristic root).
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    ARModel,
    Exponential,
    IIDInnovation,
    MAModel,
    PersistxError,
    PointMass,
    Rademacher,
    SurvivalConvention,
    drift,
)


class BracketNotFound(PersistxError):
    """A root scan failed to bracket a sign change; widen the scan range."""


def _bisect(f, lo, hi):
    """A root of f in [lo, hi], where f(lo) and f(hi) differ in sign.

    The bracket is halved until its ends are adjacent floats and its lower
    end is returned, unless a midpoint is an exact zero of f.
    """
    f_lo = f(lo)
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return lo
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# iid sequences (every coefficient zero)


def iid_exponent(innovation):
    """Exponent 1 - F(0) of an iid sequence: each step survives independently."""
    return 1.0 - float(innovation.cdf(0.0))


# ---------------------------------------------------------------------------
# AR(1) cases


def ar1_uniform_exponent(a, b):
    """Exponent of the AR(1) process with a1 = -1 and Uniform(-a, b) innovations.

    Equals 2b / (pi (a+b)) for a, b > 0.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"need a, b > 0, got ({a}, {b})")
    return 2.0 * b / (math.pi * (a + b))


def ar1_exponential_pn(a1, n, initial):
    """Exact p_n for AR(1), a1 < 0, standard exponential innovations, n >= 1.

    p_n = (1/(1-a1))^(n-1) * E[exp(a1 Z0); Z0 >= 0], where the prefactor is
    known for point-mass and standard-exponential initial laws.
    """
    if not a1 < 0:
        raise ValueError(f"need a1 < 0, got {a1}")
    if n < 1:
        raise ValueError(f"the closed form holds for n >= 1, got n={n}")
    if isinstance(initial, PointMass):
        if len(initial.values) != 1:
            raise ValueError("closed form needs an order-1 initial state")
        x0 = initial.values[0]
        prefactor = math.exp(a1 * x0) if x0 >= 0 else 0.0
    elif isinstance(initial, IIDInnovation) and isinstance(initial.innovation, Exponential):
        # int_0^inf e^{a1 z} e^{-z} dz
        prefactor = 1.0 / (1.0 - a1)
    else:
        raise ValueError(
            "closed form available for point-mass or standard-exponential initial laws only"
        )
    return (1.0 / (1.0 - a1)) ** (n - 1) * prefactor


def ar1_exponential_exponent(a1):
    """Per-step decay rate 1/(1-a1) of the exponential AR(1) case."""
    if not a1 < 0:
        raise ValueError(f"need a1 < 0, got {a1}")
    return 1.0 / (1.0 - a1)


# ---------------------------------------------------------------------------
# MA(1) uniform case


def _ma1_uniform_equation(lam, a, b):
    r = 1.0 - 2.0 * a / (a + b)
    return math.tan(a / ((a + b) * lam)) - (1.0 - r / lam) / (1.0 + r / lam)


# the MA(1) uniform root scan's step in lambda, and its root's residual bound
_MA1_UNIFORM_STEP = 1e-3
_MA1_UNIFORM_TOL = 1e-12


def _ma1_uniform_root(a, b):
    """Largest root in (0, 1] of the tan equation, by downward scan + bracketing.

    Scanning lambda downward from 1 in _MA1_UNIFORM_STEP steps finds the
    first sign change, which brackets the largest real root; the bracket is
    then bisected down to adjacent floats, and the root must leave an
    equation residual below _MA1_UNIFORM_TOL.
    """
    # the tan argument hits pi/2 at lam = 2a/((a+b) pi); stay above the pole
    pole = 2.0 * a / ((a + b) * math.pi)
    lam = 1.0
    f_hi = _ma1_uniform_equation(lam, a, b)
    while lam - _MA1_UNIFORM_STEP > pole * (1.0 + 1e-9):
        lam_next = lam - _MA1_UNIFORM_STEP
        f_lo = _ma1_uniform_equation(lam_next, a, b)
        if f_hi == 0.0:
            return lam
        if f_lo == 0.0:
            return lam_next
        if (f_lo < 0.0) != (f_hi < 0.0):
            root = _bisect(lambda x: _ma1_uniform_equation(x, a, b), lam_next, lam)
            if abs(_ma1_uniform_equation(root, a, b)) > _MA1_UNIFORM_TOL:
                raise BracketNotFound(f"bracketed root at {root} but residual exceeds "
                                      f"tol={_MA1_UNIFORM_TOL}")
            return root
        lam, f_hi = lam_next, f_lo
    raise BracketNotFound(
        f"no sign change of the eigenvalue equation in ({pole}, 1] for (a, b)=({a}, {b})"
    )


def ma1_uniform_exponent(a, b):
    """Exponent of the MA(1) process with a1 = 1 and Uniform(-a, b) innovations.

    For a >= b the exponent is 4b / (pi (a+b)); for a < b it is the largest
    real solution of tan(a/((a+b) lam)) = (1 - r/lam)/(1 + r/lam) with
    r = 1 - 2a/(a+b).
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"need a, b > 0, got ({a}, {b})")
    if a >= b:
        return 4.0 * b / (math.pi * (a + b))
    return _ma1_uniform_root(a, b)


# ---------------------------------------------------------------------------
# MA(1) symmetric innovations at a1 = 1


def ma1_symmetric_series(c, terms=200):
    """P(c consecutive pair-sum constraints hold) for symmetric innovations.

    Partial sum over k in [-terms, terms] of 2 / (pi/2 + 2 pi k)^(c+2),
    where c counts the constraints xi_i + xi_{i-1} >= 0. The convention
    "c constraints, exponent c+2" reproduces the directly computable values
    c=1 -> 1/2 and c=2 -> 1/3; the exponent of the case is 2/pi either way.
    """
    if c < 0 or terms < 1:
        raise ValueError("need c >= 0 and terms >= 1")
    power = int(c) + 2
    ks = range(-int(terms), int(terms) + 1)
    return math.fsum(2.0 / (math.pi / 2.0 + 2.0 * math.pi * k) ** power for k in ks)


def ma1_symmetric_exponent():
    """Exponent 2/pi of MA(1) with a1 = 1 and any symmetric innovation density."""
    return 2.0 / math.pi


# ---------------------------------------------------------------------------
# Rademacher MA cases


def rademacher_pn(n, convention):
    """Exact p_n for MA(1), a1 = 1, Rademacher innovations.

    Strict survival: (1/2)^(n+2). Non-strict survival:
    (1/2 + 1/sqrt5) ((1+sqrt5)/4)^(n+1) + (1/2 - 1/sqrt5) ((1-sqrt5)/4)^(n+1).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if convention is SurvivalConvention.STRICTLY_POSITIVE:
        return 0.5 ** (n + 2)
    s5 = math.sqrt(5.0)
    return (0.5 + 1.0 / s5) * ((1.0 + s5) / 4.0) ** (n + 1) + (
        0.5 - 1.0 / s5
    ) * ((1.0 - s5) / 4.0) ** (n + 1)


def rademacher_ma_pn(model, n):
    """Exact p_n of an MA(q) model with Rademacher innovations, any coefficients.

    The state is the last q signs, oldest first, so there are 2^q states. A
    step draws a new sign and survives where drift(coeffs, past signs) + new
    sign passes the model's convention, the level the Monte Carlo forms:
    T[s, s'] = 1/2 if the step from s to s' survives, and p_n = mu T^(n+1) 1
    with mu uniform over the states.
    """
    if not (isinstance(model, MAModel) and isinstance(model.innovation, Rademacher)):
        raise ValueError("rademacher_ma_pn needs an MA model with Rademacher innovations")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    q = model.order
    states = 2 ** q
    # axis k of the sign patterns is xi_{k-q}; the last axis is the new sign
    xi = 2.0 * np.indices((2,) * (q + 1)) - 1.0
    alive = model.convention.survives(drift(model.coeffs, xi[:q]) + xi[q]).reshape(states, 2)
    # the new sign enters as the last bit of the next state, the oldest drops out
    s = np.arange(states)[:, None]
    t = np.zeros((states, states))
    t[s, (2 * s + np.arange(2)) % states] = np.where(alive, 0.5, 0.0)
    vec = np.full(states, 1.0 / states)
    for _ in range(n + 1):
        vec = vec @ t
    return float(vec.sum())


def rademacher_exponent(convention):
    """Exponent of the Rademacher MA(1): 1/2 strict, (1+sqrt5)/4 non-strict."""
    if convention is SurvivalConvention.STRICTLY_POSITIVE:
        return 0.5
    return (1.0 + math.sqrt(5.0)) / 4.0


# ---------------------------------------------------------------------------
# MA(1) exponential case


def ma1_exponential_exponent(a1):
    """Exponent 1 + a1 of MA(1) with a1 in (-1, 0) and exponential innovations."""
    if not -1.0 < a1 < 0.0:
        raise ValueError(f"need a1 in (-1, 0), got {a1}")
    return 1.0 + a1


def ma1_exponential_eigenfunction(a1):
    """The eigenfunction x -> exp(a1 x / (1+a1)) on x >= 0 (1 below zero)."""
    if not -1.0 < a1 < 0.0:
        raise ValueError(f"need a1 in (-1, 0), got {a1}")
    rate = a1 / (1.0 + a1)

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, np.exp(rate * np.clip(x, 0.0, None)), 1.0)[()]

    return g


# ---------------------------------------------------------------------------
# degenerate MA


def degenerate_factorial_pn(n):
    """p_n = 1/(n+2)! for the MA(1) with a1 = -1 and continuous innovations.

    Computed in log space once the factorial leaves the exactly representable
    range (n > 18).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n <= 18:
        return 1.0 / math.factorial(n + 2)
    return math.exp(-math.lgamma(n + 3))


# ---------------------------------------------------------------------------
# regime classification


def characteristic_root(coeffs):
    """The unique rho > 1 with sum_j a_j rho^(-j) = 1, for a >= 0, sum a > 1.

    For order 1 the root is a1 itself; otherwise the equation is monotone in
    rho and is bracketed by doubling, then refined.
    """
    a = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if np.any(a < 0) or a.sum() <= 1.0:
        raise ValueError("characteristic root requires a >= 0 with sum(a) > 1")
    if len(a) == 1:
        return float(a[0])

    def g(rho):
        return sum(aj * rho ** -(j + 1) for j, aj in enumerate(a)) - 1.0

    lo = 1.0
    hi = 2.0
    for _ in range(200):
        if g(hi) < 0.0:
            return _bisect(g, lo, hi)
        lo, hi = hi, hi * 2.0
    raise BracketNotFound("characteristic-root scan did not bracket a sign change")


def classify_regime(model):
    """The model's regime, with its exponent and characteristic root when supercritical.

    MA: {"regime", "degenerate"}, degenerate (exponent 0) iff sum(a) == -1.
    AR: {"regime"}, the first that holds of supercritical (a >= 0 with
    sum(a) > 1; exponent 1, and "exponent" and "characteristic_root" are
    added), contractive (sum |a| < 1), nonpositive (every coefficient is
    <= 0), and unclassified.
    """
    a = np.asarray(model.coeffs, dtype=float)
    if isinstance(model, MAModel):
        degenerate = bool(abs(a.sum() + 1.0) < 1e-12)
        return {"regime": "degenerate" if degenerate else "nondegenerate",
                "degenerate": degenerate}
    if not isinstance(model, ARModel):
        raise ValueError(f"cannot classify {type(model).__name__}")
    if np.all(a >= 0.0) and a.sum() > 1.0:
        return {"regime": "supercritical", "exponent": 1.0,
                "characteristic_root": characteristic_root(a)}
    if np.abs(a).sum() < 1.0:
        return {"regime": "contractive"}
    if np.all(a <= 0.0):
        return {"regime": "nonpositive"}
    return {"regime": "unclassified"}


# ---------------------------------------------------------------------------
# conditional-mean inequality helper


def shifted_step_conditional_mean(dist, thresholds, weights, shift):
    """E[g(xi + shift) | xi + shift > 0] for g = sum_i w_i 1{x >= t_i}.

    Step functions make the conditional expectation a finite sum of CDF
    evaluations, so no quadrature error enters the comparison:
    E[1{xi + s >= t} | xi + s > 0] = (1 - F(max(t, 0) - s)) / (1 - F(-s)).
    """
    denom = 1.0 - float(dist.cdf(-shift))
    if denom <= 0.0:
        raise ValueError(f"conditioning event has zero mass at shift {shift}")
    total = 0.0
    for t, w in zip(thresholds, weights):
        total += w * (1.0 - float(dist.cdf(max(t, 0.0) - shift)))
    return total / denom
