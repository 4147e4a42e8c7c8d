"""Path sampling and persistence-probability estimation.

Both estimators follow a population of paths killed when they leave S, and
both advance it with one step, _step, on a C-ordered (d, size) state, one
row per state coordinate, oldest first. The crude estimator runs its
replicates in fixed blocks of 65,536 paths, each block on its own derived
stream: a block draws its initial state, then at each step one innovation
per path still alive, in path order; it counts the survivors, keeps only
them with one compress, and stops once none are left. Summing integer
counts makes the result independent of the thread schedule. The splitting
estimator advances its population one step at a time, records the
per-step survival fraction, and resamples survivors back to the full
population, so the product of fractions estimates p_n far below the reach
of crude sampling; each step keeps the survivors with one compress and
resamples them systematically with one take.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ARModel, PersistxError, as_count, as_threads, drift, substream

BLOCK = 65_536


class AllPathsDied(PersistxError):
    """Crude MC saw no survivor at the smallest horizon; use splitting."""


class PopulationExtinct(PersistxError):
    """Every splitting particle died in one step."""

    def __init__(self, step):
        super().__init__(f"all particles died at step {step}")
        self.step = step


class NonPositiveProbabilityInWindow(PersistxError):
    """The fit window contains a vanishing probability estimate."""


# ---------------------------------------------------------------------------
# one step of a killed population


def _initial_state(model, size, rng):
    """The (d, size) starting state of `size` paths, C-ordered, oldest first:
    an AR path's Z_0..Z_{p-1} from the initial law, or an MA path's past
    innovations xi_{-q}..xi_{-1}, drawn as one (size, d) draw."""
    if isinstance(model, ARModel):
        state = model.initial.sample(model.order, rng, size=size)
    else:
        state = model.innovation.sample(rng, (size, model.order))
    return np.ascontiguousarray(np.asarray(state, dtype=float).T)


def _step(model, state, xi):
    """(z, next_state): one transition of every path in a (d, size) state.

    This is the one AR/MA path recursion: z = drift + xi, and the state
    shifts by one, taking z (AR) or xi (MA) as its newest coordinate.
    """
    z = drift(model.coeffs, state)
    z += xi  # in place: drift + xi, exactly, with one array fewer
    newest = (z if isinstance(model, ARModel) else xi)[np.newaxis]
    if len(state) == 1:  # a one-row state is its newest row, with no copy
        return z, newest
    return z, np.concatenate((state[1:], newest))


# ---------------------------------------------------------------------------
# crude Monte Carlo


def _survival_counts_block(model, horizons, block_size, rng):
    """Survival counts at each horizon for one block of independent paths.

    The block is a killed population that is never resampled: at step t
    an AR path reads Z_t from its initial state while t < p; after that
    every path still alive draws one innovation, in path order, and steps.
    Only the survivors are kept, and the block stops once none are left.
    """
    n_max = int(horizons[-1])
    reads_initial = model.order if isinstance(model, ARModel) else 0
    state = _initial_state(model, block_size, rng)
    survivors = np.zeros(n_max + 1, dtype=np.int64)
    for t in range(n_max + 1):
        if t < reads_initial:
            z = state[t]
        else:
            z, state = _step(model, state, model.innovation.sample(rng, state.shape[1]))
        alive = model.convention.survives(z)
        survivors[t] = np.count_nonzero(alive)
        if survivors[t] == 0:
            break
        if survivors[t] < len(alive):
            state = np.compress(alive, state, axis=1)
    return survivors[horizons]


def estimate_crude(model, horizons, replicates, seed, threads=None):
    """Crude Monte Carlo persistence estimate over a horizon grid.

    Every replicate contributes one path evaluated at all horizons (the
    survival events are nested, so the estimates are monotone by
    construction). A path that has left S adds nothing to a later count,
    so it draws nothing more. Replicates are organised in fixed blocks of
    BLOCK = 65,536 paths with one derived stream (seed, "crude", m) per
    block m; the integer count reduction is order independent, so any
    thread count reproduces the same numbers bit for bit.
    """
    horizons = _check_horizons(horizons)
    replicates = as_count(replicates, "replicates")
    if replicates < 1:
        raise ValueError("need at least one replicate")
    n_blocks = (replicates + BLOCK - 1) // BLOCK

    def run_block(m):
        size = min(BLOCK, replicates - m * BLOCK)
        return _survival_counts_block(model, horizons, size, substream(seed, "crude", m))

    threads = 1 if threads is None else as_threads(threads)
    if threads <= 1:
        counts = sum(run_block(m) for m in range(n_blocks))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = sum(pool.map(run_block, range(n_blocks)))
    if counts[0] == 0:
        raise AllPathsDied(
            f"no survivors at horizon {horizons[0]} out of {replicates} replicates"
        )
    p_hat = counts / replicates
    se = np.sqrt(p_hat * (1.0 - p_hat) / replicates)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_var = np.where(p_hat > 0.0, (se / p_hat) ** 2, np.inf)
    return _fit_default_window(PersistenceEstimate(
        method="crude", horizons=horizons, p_hat=p_hat, se=se, log_var=log_var,
        effort=replicates, seed=seed, counts=counts))


# ---------------------------------------------------------------------------
# multilevel splitting


def estimate_splitting(model, horizons, particles, seed):
    """Fixed-effort splitting estimate of p_n over a horizon grid.

    All particles advance one transition per step; the survival fraction s_t
    is recorded, dead particles are dropped, and the survivors are resampled
    systematically back to the full population (systematic_indices): each
    of the n survivors gets floor(P/n) or ceil(P/n) copies. p_n is the
    product of the fractions up to n, an unbiased estimator for each horizon.
    The per-step fractions are kept for diagnostics, and
    var(log p_n) is approximated by sum_t (1 - s_t) / (s_t P).

    Step t draws from its own stream (seed, "split", t): its P innovations
    (none while an AR population still reads its initial state), then the
    one uniform of its resampling. The population is a C-ordered (d, P)
    array, one contiguous row per state coordinate, oldest first, so the
    drift reads rows and the survivors are kept and resampled along the
    particle axis in one compress and one take.
    """
    horizons = _check_horizons(horizons)
    particles = as_count(particles, "particles")
    if particles < 2:
        raise ValueError("need at least two particles")
    n_max = int(horizons[-1])
    reads_initial = model.order if isinstance(model, ARModel) else 0
    state = _initial_state(model, particles, substream(seed, "split", "init"))

    fractions = np.empty(n_max + 1)
    for t in range(n_max + 1):
        rng = substream(seed, "split", t)
        if t < reads_initial:
            z = state[t]
        else:
            z, state = _step(model, state, model.innovation.sample(rng, particles))
        alive = model.convention.survives(z)
        n_alive = np.count_nonzero(alive)
        fractions[t] = n_alive / particles
        if n_alive == 0:
            raise PopulationExtinct(t)
        idx = systematic_indices(rng.random(), n_alive, particles)
        state = np.compress(alive, state, axis=1).take(idx, axis=1)

    log_p = np.cumsum(np.log(fractions))
    p_hat = np.exp(log_p[horizons])
    step_var = (1.0 - fractions) / (fractions * particles)
    log_var = np.cumsum(step_var)[horizons]
    se = p_hat * np.sqrt(log_var)
    return _fit_default_window(PersistenceEstimate(
        method="splitting", horizons=horizons, p_hat=p_hat, se=se, log_var=log_var,
        effort=particles, seed=seed, fractions=fractions))


def systematic_indices(u, n, size):
    """Systematic resampling of n equally weighted particles to size.

    Output k takes particle floor((k + u) n / size) for one uniform u in
    [0, 1), so particle i gets floor(size/n) or ceil(size/n) copies and the
    indices are sorted. With j = floor(u n) that index is exactly
    (k n + j) // size, which integer arithmetic computes without rounding.
    """
    j = min(int(u * n), n - 1)
    return (np.arange(size, dtype=np.int64) * n + j) // size


# ---------------------------------------------------------------------------
# estimates and exponent fits


@dataclass
class PersistenceEstimate:
    """Persistence probabilities over a horizon grid with a pooled exponent fit."""

    method: str
    horizons: np.ndarray
    p_hat: np.ndarray
    se: np.ndarray
    log_var: np.ndarray
    effort: int
    seed: int
    counts: np.ndarray = None
    fractions: np.ndarray = None
    window: tuple = None
    lambda_hat: float = math.nan
    half_width: float = math.nan

    def to_json(self):
        table = []
        for j, n in enumerate(self.horizons):
            row = {"n": int(n), "p_hat": float(self.p_hat[j]), "se": float(self.se[j])}
            if self.counts is not None:
                row["count"] = int(self.counts[j])
            table.append(row)
        return {
            "method": self.method,
            "effort": int(self.effort),
            "seed": int(self.seed),
            "table": table,
            "window": list(self.window) if self.window else None,
            "lambda_hat": self.lambda_hat,
            "half_width": self.half_width,
        }


def _check_horizons(horizons):
    # object dtype keeps each value's own type, so a bool in a list stays a bool
    listed = np.atleast_1d(np.asarray(horizons, dtype=object)).tolist()
    horizons = np.asarray(sorted(as_count(n, "horizon") for n in listed), dtype=int)
    if len(horizons) == 0 or horizons[0] < 0:
        raise ValueError("horizons must be nonnegative integers")
    if len(np.unique(horizons)) != len(horizons):
        raise ValueError("horizons must be distinct")
    return horizons


def check_window(window, n_horizons):
    """Raise ValueError unless window is two integers with 0 <= i0 < i1 <= n_horizons."""
    if not (isinstance(window, (list, tuple)) and len(window) == 2
            and all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                    for i in window)
            and 0 <= window[0] < window[1] <= n_horizons):
        raise ValueError(f"fit window {window!r} is not a pair of integers i0, i1 "
                         f"with 0 <= i0 < i1 <= {n_horizons}, the number of horizons")


def default_window(p_hat):
    """Last half of the leading run of positive estimates."""
    positive = np.flatnonzero(~(np.asarray(p_hat) > 0.0))
    k = positive[0] if len(positive) else len(p_hat)
    return (k // 2, k)


def _fit_default_window(est):
    """est with its default window and, when that spans 2 or more horizons, its fit."""
    lo, hi = default_window(est.p_hat)
    est.window = (int(lo), int(hi))
    if hi - lo >= 2:
        est.lambda_hat, est.half_width = fit_exponent(est, (lo, hi))
    return est


def fit_exponent(estimate, window=None):
    """Least-squares exponent over a window of the horizon grid.

    The slope of log p_hat against n is fitted without weights; lambda_hat is
    exp(slope) and the half-width propagates the per-horizon variances of
    log p_hat through the least-squares coefficients (two standard errors).
    The window is a (start, stop) index pair into the horizon grid, checked
    by check_window; by default, the last half of the run of positive
    estimates.
    """
    p_hat = np.asarray(estimate.p_hat, dtype=float)
    if window is None:
        window = default_window(p_hat)
    else:
        check_window(window, len(estimate.horizons))
    lo, hi = window
    sel = slice(int(lo), int(hi))
    x = np.asarray(estimate.horizons, dtype=float)[sel]
    p = p_hat[sel]
    v = np.asarray(estimate.log_var, dtype=float)[sel]
    if len(x) < 2:
        raise ValueError(f"fit window selects {len(x)} points; need at least 2")
    if np.any(~(p > 0.0)):
        raise NonPositiveProbabilityInWindow(
            f"window {window} contains a vanishing probability estimate"
        )
    y = np.log(p)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("fit window has no horizon spread")
    coeff = xc / sxx
    slope = float(coeff @ y)
    var_slope = float(coeff**2 @ v)
    lam = math.exp(slope)
    half_width = 2.0 * lam * math.sqrt(var_slope)
    return lam, half_width
