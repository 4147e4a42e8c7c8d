"""Discretized persistence operators and their spectral radius.

The AR operator acts on functions of the state (x_1..x_p) as
(Kg)(x) = int_0^M g(x_2..x_p, z) phi(z - s(x)) dz with drift
s(x) = sum_j a_j x_{p+1-j}; the substituted variable z shares the grid with
the state, so the discretization needs no interpolation in z. The kernel
form follows the law alone (assemble_ar). The Gaussian takes the Nystrom
rule of the grid itself, w_j phi(z_j - s(x)), whose integrand is smooth on
the box, held as three small factors. A law with a support endpoint
(uniform, exponential) keeps the exact innovation mass of each grid cell
(CDF differences), which keeps the rank-one i.i.d. case and bounded-support
truncations exact, held as sums over each row's window of the support.

The MA operator acts on the last q innovations as
(Kg)(x) = sum_j w_j phi(y_j) 1{y_j + s(x) > 0} g(x_2..x_q, y_j);
the indicator cuts one grid cell per row, and that cell keeps its nodal
weight times the fraction of its innovation mass above the cut (the cut
cell), so MA takes the same window sums, unscaled, open above and untilted.

Both kernels take s from model.drift, the one definition of the linear part
of the transition that every route shares: crude and splitting Monte Carlo
step with it too.

Every grid comes from build_grid's Gauss-Legendre rule. Each solver setting
is a parameter only of the layer that owns it, and every layer above takes
its default: spectral_radius's tol and max_iter.

An exponential tilt h(x) = exp(delta sum_j x_j) conjugates the AR kernel by a
positive diagonal, so the spectral radius is unchanged while eigenfunction
mass is confined near the origin; the spectral radius itself comes from power
iteration with sup-norm normalization and Rayleigh-Ritz extraction from its
last iterates.

Cost. The Gauss-Legendre rule is Newton's method on the three-term
recurrence, O(N^2) in numpy (numpy's leggauss is an O(N^3) eigen-solve), and
is built once per N: later grids of the same N rescale the cached rule, and
grids on the same axis share the rescaled arrays. The Gaussian factors take
O(N^d) memory (each apply forms the (N, N) one in row blocks) and O(N^(d+1))
time per apply, and from N = 2 WARM_N start from a WARM_N-node solve
(_solve). Window sums take O(N^d) in both (an exponential AR(2) solve at
N = 200 peaks near 5 MB, where a table would take 64 MB). No apply or
interpolation calls BLAS, so lambda's bytes do not depend on the BLAS
thread count. Power iteration normalizes its next iterate in place, so each
step allocates only the apply's result, and forms the residual only once
lambda has settled. It sets the iterate's subnormal entries to zero: they
weigh nothing at the sup-norm scale but slow every later matvec several-fold.
The Rayleigh-Ritz extraction (_ritz_pair) costs no apply but the certifying
one, which iterations counts, and O(N^d) per check; on nearly reducible
kernels it takes about a third of power iteration's applies (MA(1)
a1 = -0.99, N = 400: 4,373 against 12,935).
Grids, assembly and solves are numpy only: no path here loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ARModel,
    Gaussian,
    MAModel,
    PersistxError,
    RequestedDensityOfAtomicLaw,
    Uniform,
    as_count,
    drift,
)


class MaxIterationsExceeded(PersistxError):
    """Power iteration hit its budget; the message gives the last residual and lambda."""


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Tensorized per-axis quadrature rule on [lo, hi]^d.

    build_grid makes a Gauss-Legendre rule; _restrict narrows one to a run
    of its consecutive cells, so that the smaller operators are principal
    submatrices of the solve's. Edges partition [lo, hi] into one cell per
    node by cumulative weights; each node lies inside its cell, which the
    cut-cell logic of the MA assembly relies on.
    """

    d: int
    lo: float
    hi: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray


@functools.cache
def leggauss(n):
    """Gauss-Legendre nodes (ascending) and weights for n points on [-1, 1].

    Newton's method on all n nodes at once from Tricomi's estimate, with
    P_n and P_n' from the three-term recurrence: O(n^2) per step, and three
    or four steps reach round-off. The weight 2 / ((1-x)(1+x) P_n'(x)^2)
    keeps its accuracy near +-1, where eigenvalue-based rules (numpy's
    leggauss, O(n^3)) and scipy's roots_legendre lose digits. Nodes and
    weights are symmetrized, so x[i] == -x[n-1-i] and w[i] == w[n-1-i]
    exactly. The rule is built once per n and returned as read-only arrays.
    """
    k = np.arange(n, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    # P_j(x) = a_j x P_{j-1}(x) - b_j P_{j-2}(x), coefficients as Python floats
    j = np.arange(2, n + 1)
    recurrence = list(zip(((2 * j - 1) / j).tolist(), ((j - 1) / j).tolist()))
    for _ in range(10):
        p0, p1 = np.ones(n), x
        for a, b in recurrence:
            p0, p1 = p1, a * x * p1 - b * p0
        dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        dx = p1 / dp
        x = x - dx
        if np.abs(dx).max() <= 1e-15:
            break
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def build_grid(lo, hi, n, d=1):
    """Per-axis Gauss-Legendre rule with n nodes on [lo, hi], tensorized to d axes.

    Grids on the same axis share their read-only node, weight and edge
    arrays (_axis_rule), so results of repeated solves do not each hold a
    copy.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid axis bounds [{lo}, {hi}]: need finite lo < hi")
    n = as_count(n, "N")
    if n < 2:
        raise ValueError(f"need at least 2 nodes per axis, got {n}")
    if d < 1:
        raise ValueError(f"need dimension >= 1, got {d}")
    return QuadratureGrid(int(d), lo, hi, n, *_axis_rule(lo, hi, n))


@functools.lru_cache(maxsize=32)
def _axis_rule(lo, hi, n):
    """Nodes, weights and edges of build_grid's rule, as read-only arrays; the
    last 32 axes are kept."""
    length = hi - lo
    x, w = leggauss(n)
    nodes = lo + (x + 1.0) * 0.5 * length
    weights = w * 0.5 * length
    edges = np.concatenate(([lo], lo + np.cumsum(weights)))
    edges[-1] = hi
    if abs(weights.sum() - length) > 1e-10 * max(1.0, length):
        raise AssertionError("quadrature weights do not sum to the axis length")
    if np.any(nodes[:-1] >= nodes[1:]):
        raise AssertionError("quadrature nodes are not strictly increasing")
    if np.any(nodes <= edges[:-1]) or np.any(nodes >= edges[1:]):
        raise AssertionError("a quadrature node fell outside its cell")
    for a in (nodes, weights, edges):
        a.flags.writeable = False
    return nodes, weights, edges


TAIL_MASS = 1e-10
TRUNCATION_MARGIN = 1.5


def default_truncation(innovation):
    """Truncation radius: smallest M with tail mass <= TAIL_MASS, times TRUNCATION_MARGIN."""
    return float(innovation.tail_radius(TAIL_MASS)) * TRUNCATION_MARGIN


def default_delta(model):
    """Default AR tilt: half the innovation decay rate, divided by the order.

    Compactly supported innovations need no tilt (truncation is already
    exact), so their default is zero.
    """
    rate = model.innovation.exponential_decay_rate()
    if math.isinf(rate):
        return 0.0
    return rate / (2.0 * model.order)


def _axis_bounds(model, m):
    """State-axis bounds at truncation M, clamped to the reachable set.

    AR lives on [0, min(M, sup)] where sup bounds the reachable states (for
    nonpositive coefficients and bounded innovations the new value y + s(x)
    never exceeds the innovation's upper end hi, so truncation there is
    exact; hi <= 0 leaves that set empty, a ValueError).
    MA lives on the innovation support intersected with [-M, M].
    """
    lo_s, hi_s = model.innovation.support
    if not isinstance(model, ARModel):
        return max(lo_s, -m), min(hi_s, m)
    if all(c <= 0 for c in model.coeffs) and math.isfinite(hi_s):
        if hi_s <= 0:
            raise ValueError(f"the AR state axis is empty: coefficients <= 0 and a law bounded "
                             f"above by hi = {hi_s} <= 0 leave S at the first step")
        return 0.0, min(m, hi_s)
    return 0.0, m


def _truncation(m):
    """m as a float, which must be a finite truncation M > 0."""
    m = float(m)
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"need a finite truncation M > 0, got {m}")
    return m


def default_grid(model, m, n):
    """State-axis grid for the model at truncation m, clamped to the reachable
    set; m=None means default_truncation of the innovation."""
    m = default_truncation(model.innovation) if m is None else _truncation(m)
    lo, hi = _axis_bounds(model, m)
    return build_grid(lo, hi, n, d=model.order)


# ---------------------------------------------------------------------------
# discretized operators


@dataclass(eq=False)
class DiscretizedOperator:
    """A kernel over (state, new coordinate) with a matrix-free apply.

    The image of state (x_1..x_d) weighs g over the new coordinate z at the
    state (x_2..x_d, z), which reuses d-1 source coordinates, so the full
    n^d x n^d matrix is never formed. The kernel is held in one of two
    forms; delta is the tilt it was assembled with (always 0 for MA).

    Gaussian AR, density factors: entry [x_1, r, z] is
    coef[x_1, r] * kmat[x_1, z] * base[r, z], where r runs over the states
    (x_2..x_d) in C order: kmat[i, j] = exp(cu[i] u[j]) is (n, n) (a property
    that forms it whole), base (n^(d-1), n) and coef (n, n^(d-1)). One apply
    weighs g by base, contracts it with kmat, formed in blocks of rows, and
    scales the result by coef: O(n^(d+1)) time, O(n^d) memory.

    Window sums (MA, uniform and exponential AR): base runs over the new
    coordinate, the rest over the states in C order. Row x is scale[x] *
    base[j] at nodes start[x] <= j < stop[x], plus coef[x] at start[x] - 1
    and upper[x] at stop[x], the cells its window cuts (0 if none); no scale
    is 1 and no stop is n. One apply gathers each window from the suffix
    sums of g * base along the new coordinate: O(n^d) time and memory. Its
    work buffers belong to the operator: it serves one caller at a time.
    """

    grid: QuadratureGrid
    cu: np.ndarray = None
    u: np.ndarray = None
    delta: float = 0.0
    base: np.ndarray = None
    start: np.ndarray = None
    coef: np.ndarray = None
    scale: np.ndarray = None
    stop: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        if self.start is None:
            return
        n, d = self.grid.n, self.grid.d
        # g viewed as rows (x_2..x_d) by the new coordinate
        row = np.arange(n ** d) % n ** (d - 1)
        # the suffix table holds, per row, the sums of its last 0..n weighted
        # entries; clipped gathers keep a zero cut term's index in range
        self._at_suffix = row * (n + 1) + (n - self.start)
        self._cuts = [(row * n + self.start - 1, self.coef)]
        if self.stop is not None:
            self._at_stop = row * (n + 1) + (n - self.stop)
            self._cuts.append((row * n + self.stop, self.upper))
        self._weighted = np.empty((n ** (d - 1), n))
        self._suffix = np.zeros((n ** (d - 1), n + 1))
        self._at_cut = np.empty(n ** d)

    @property
    def kmat(self):
        return None if self.cu is None else np.exp(np.multiply.outer(self.cu, self.u))

    def apply(self, g):
        d = self.grid.d
        g = np.asarray(g, dtype=float)
        if g.shape != (self.grid.n,) * d:
            raise ValueError(f"value vector has shape {g.shape}, grid wants {(self.grid.n,) * d}")
        if self.start is None:
            # kmat in row blocks of <= 2^16 entries; each entry keeps its own sum
            weighted = g.reshape(self.base.shape) * self.base
            out = np.empty(self.coef.shape)
            rows = max(1, (1 << 16) // len(self.u))
            for i in range(0, len(out), rows):
                part = np.multiply.outer(self.cu[i:i + rows], self.u)
                np.einsum("iz,kz->ik", np.exp(part, out=part), weighted, out=out[i:i + rows])
            out *= self.coef
            return out.reshape(g.shape)
        # suffix sums run from the last node down: the terms are nonnegative,
        # so nothing cancels, and a window's difference of two is never negative
        weighted = np.multiply(g.reshape(self._weighted.shape), self.base, out=self._weighted)
        np.add.accumulate(weighted[:, ::-1], axis=1, out=self._suffix[:, 1:])
        out = self._suffix.take(self._at_suffix)
        if self.stop is not None:
            out -= self._suffix.take(self._at_stop, out=self._at_cut)
        if self.scale is not None:
            out *= self.scale
        for at, term in self._cuts:
            at_cut = g.take(at, out=self._at_cut, mode="clip")
            at_cut *= term
            out += at_cut
        return out.reshape(g.shape)


# the largest |a_d| (M / 2sd)^2 of the Gaussian factors (_density_factors):
# their exponents that matter then lie in [-700, 350], inside float range
_DENSITY_RANGE = 350.0
# the largest box end of the exponential window sums, so e^s stays in float range
_WINDOW_RANGE = 700.0


def _coordinates(grid):
    """State coordinates x_1..x_d as node views that broadcast to (n,)*d."""
    return [grid.nodes.reshape((-1,) + (1,) * (grid.d - 1 - k)) for k in range(grid.d)]


def assemble_ar(model, grid, delta=0.0):
    """Discretize the AR persistence operator (optionally tilted) on the grid.

    With delta > 0 every entry is multiplied by h(x')/h(x) = exp(delta (z -
    x_1)), a diagonal similarity that leaves the spectral radius unchanged.
    The form follows the law alone, at every order and n: the Gaussian takes
    the Nystrom rule w_j phi(z_j - s(x)) as three factors (_density_factors),
    a law with a support endpoint (uniform, exponential) its exact cell
    masses F(e_{j+1} - s(x)) - F(e_j - s(x)) as window sums (_window_sums).
    """
    if not isinstance(model, ARModel):
        raise ValueError("assemble_ar expects an AR model")
    _check_kernel_input(model, grid, "AR")
    if abs(grid.lo) > 1e-12:
        raise ValueError(f"the AR state axis must start at 0, got lo={grid.lo}")
    form = _density_factors if isinstance(model.innovation, Gaussian) else _window_sums
    return form(model, grid, float(delta))


def _check_kernel_input(model, grid, label):
    """Refuse an atomic law, and a grid whose dimension is not the model order."""
    if not model.innovation.has_density:
        raise RequestedDensityOfAtomicLaw(f"the {label} operator needs an innovation density; "
                                          "atomic laws are handled in closed form")
    if grid.d != model.order:
        raise ValueError(f"grid dimension {grid.d} does not match model order {model.order}")


def _window_sums(model, grid, delta):
    """The uniform or exponential AR kernel, tilted by delta, as window sums.

    Row x's window is [s + lo, s + hi] for the support [lo, hi]. A whole cell
    j in it carries scale[x] * base[j]: (e_{j+1} - e_j) / (hi - lo) for the
    uniform, e^s (e^-e_j - e^-e_{j+1}) for the exponential, factored at the
    axis origin that every AR box shares, so a restricted member is its own
    box's assembly bit for bit. The cells holding s + lo (coef, at start - 1)
    and s + hi (upper, at stop) carry their exact CDF difference, once if
    they are one cell. e^s is capped at e^700: no window that meets a box
    within _WINDOW_RANGE reaches it.
    """
    law, n, d, edges = model.innovation, grid.n, grid.d, grid.edges
    lo_s, hi_s = law.support
    s = drift(model.coeffs, _coordinates(grid)).reshape(-1)
    tilt_to = np.exp(delta * grid.nodes)
    tilt_from = np.repeat(np.exp(-delta * grid.nodes), n ** (d - 1))
    if isinstance(law, Uniform):
        base, scale = np.diff(edges) / (hi_s - lo_s), tilt_from
    elif grid.hi > _WINDOW_RANGE:
        raise ValueError(f"the exponential AR kernel has no window form on the box "
                         f"[{grid.lo}, {grid.hi}]: its end exceeds {_WINDOW_RANGE:g}")
    else:
        base = np.exp(-edges[:-1]) * -np.expm1(edges[:-1] - edges[1:])
        scale = np.exp(np.minimum(s, _WINDOW_RANGE)) * tilt_from
    base *= tilt_to

    def cut_term(cell, rows):
        term, k = np.zeros(n ** d), cell[rows]
        mass = law.cdf(edges[k + 1] - s[rows]) - law.cdf(edges[k] - s[rows])
        term[rows] = np.clip(mass, 0.0, None) * tilt_to[k] * tilt_from[rows]
        return term

    start = np.minimum(np.searchsorted(edges, s + lo_s, side="right"), n)
    window = {"start": start, "coef": cut_term(start - 1, np.flatnonzero(start > 0))}
    if math.isfinite(hi_s):
        # the cell holding s + hi: -1 below the box, n above it
        cell = np.searchsorted(edges, s + hi_s, side="right") - 1
        window.update(stop=np.maximum(cell, start),
                      upper=cut_term(cell, np.flatnonzero((cell >= start) & (cell < n))))
    return DiscretizedOperator(grid=grid, delta=delta, base=base, scale=scale, **window)


def _density_factors(model, grid, delta):
    """The Gaussian AR kernel w_j phi(z_j - s(x)) exp(delta (z_j - x_1)) as
    three factors.

    With c = a_d, s(x) = c x_1 + r(x_2..x_d). From the box's midpoint m, in
    units of sd, u = (x_1 - m)/sd, v = (z - m)/sd and t = (m - r - c m)/sd,
    so (z - s)/sd = v + t - c u. With q the peak -t of row r clipped to the
    box and p = q + t,
    -(v + t - c u)^2 / 2 = [-(v - q)^2 / 2 - p (v - q)] + c u v
                           + [-(p - c u)^2 / 2 - c u q]:
    base[r, j] takes the first term times w_j exp(delta z_j) / (sd sqrt(2 pi)),
    kmat[i, j] the second (as cu_i u_j) and coef[i, r] the third times exp(-delta x_1).
    The first term is <= 0 and the others are <= R = |c| (M / 2sd)^2; where an
    entry is not negligible, none is below about -2R. So the factors keep
    every entry that matters in float range while R <= _DENSITY_RANGE; past
    it a ValueError names c and the box.
    """
    n, d = grid.n, grid.d
    sd = model.innovation.sd
    c = model.coeffs[-1]
    mid = 0.5 * (grid.lo + grid.hi)
    half = 0.5 * (grid.hi - grid.lo) / sd
    reach = abs(c) * half * half
    if reach > _DENSITY_RANGE:
        raise ValueError(f"the Gaussian AR kernel has no factored form at a_d = {c} on the box "
                         f"[{grid.lo}, {grid.hi}] with sd {sd}: |a_d| (M / 2sd)^2 = {reach:.4g} "
                         f"exceeds {_DENSITY_RANGE:g}")
    u = (grid.nodes - mid) / sd
    rest = drift(model.coeffs[:-1], _coordinates(grid)[1:])
    t = ((mid - np.broadcast_to(rest, (n,) * (d - 1)) - c * mid) / sd).reshape(-1)
    q = np.clip(-t, -half, half)
    p = q + t
    base = u - q[:, None]
    base *= -0.5 * base - p[:, None]
    np.exp(base, out=base)
    base *= grid.weights * np.exp(delta * grid.nodes) / (sd * math.sqrt(2.0 * math.pi))
    cu = c * u
    coef = np.subtract.outer(cu, p)
    coef *= -0.5 * coef
    coef -= np.multiply.outer(cu, q)
    np.exp(coef, out=coef)
    coef *= np.exp(-delta * grid.nodes)[:, None]
    return DiscretizedOperator(grid=grid, cu=cu, u=u, delta=delta, base=base, coef=coef)


def assemble_ma(model, grid):
    """Discretize the MA persistence operator on the grid.

    Row x keeps the nodal rule base[j] = w_j phi(y_j) above the survival cut
    y > -sum_i a_i x_{q+1-i}, so it is stored as the first node above the cut
    (start). The one cell k straddling the cut keeps the fraction of its
    innovation mass that lies above it: start is k + 1 and coef is base[k]
    times that fraction. Nothing of size n^(d+1) is built.
    """
    if not isinstance(model, MAModel):
        raise ValueError("assemble_ma expects an MA model")
    _check_kernel_input(model, grid, "MA")
    base = grid.weights * model.innovation.density(grid.nodes)
    cut = (-drift(model.coeffs, _coordinates(grid))).reshape(-1)
    start = np.searchsorted(grid.nodes, cut, side="right")
    coef = np.zeros(cut.shape)
    # the cell k with e_k <= cut < e_k+1 of each cut strictly inside (lo, hi)
    rows = np.flatnonzero((cut > grid.edges[0]) & (cut < grid.edges[-1]))
    k = np.searchsorted(grid.edges, cut[rows], side="right") - 1
    f_lo = model.innovation.cdf(grid.edges[k])
    f_hi = model.innovation.cdf(grid.edges[k + 1])
    f_cut = model.innovation.cdf(cut[rows])
    mass = f_hi - f_lo
    frac = np.where(mass > 0.0, (f_hi - f_cut) / np.where(mass > 0, mass, 1.0), 0.0)
    start[rows] = k + 1
    coef[rows] = base[k] * np.clip(frac, 0.0, 1.0)
    return DiscretizedOperator(grid=grid, base=base, start=start, coef=coef)


def assemble(model, grid, delta=0.0):
    """The model's operator on the grid; delta="auto" means default_delta.

    Every route to an operator (solve_operator, convergence_sweep,
    truncation_lambdas) passes through here, so "auto" is resolved once.
    An AR tilt that is not finite is a ValueError. The MA kernel takes no
    tilt: a delta other than 0 or "auto" is a ValueError.
    """
    if isinstance(model, ARModel):
        delta = default_delta(model) if delta == "auto" else float(delta)
        if not math.isfinite(delta):
            raise ValueError(f"need a finite tilt delta, got {delta!r}")
        return assemble_ar(model, grid, delta=delta)
    if delta != "auto" and delta != 0:
        raise ValueError(f"the MA operator takes no tilt, got delta={delta!r}")
    return assemble_ma(model, grid)


# ---------------------------------------------------------------------------
# spectral radius


@dataclass(eq=False)
class SpectralResult:
    """Perron root and eigenfunction of a discretized operator of tilt delta."""

    lam: float
    psi: np.ndarray
    residual: float
    iterations: int
    converged: bool
    grid: QuadratureGrid
    delta: float
    warm_start: dict = None

    def to_json(self):
        return {
            "lambda": self.lam,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "grid": {
                "lo": self.grid.lo,
                "hi": self.grid.hi,
                "n": self.grid.n,
                "d": self.grid.d,
            },
            "delta": self.delta,
            "warm_start": self.warm_start,
        }


_TINY = np.finfo(float).tiny
# Rayleigh-Ritz extraction: the block holds the last RITZ_BLOCK iterates; the
# first check is at iteration RITZ_FIRST, and each next one follows after
# max(RITZ_FIRST, it // RITZ_SPACING) more; basis directions whose singular
# value falls below RITZ_RANK times the largest are dropped
RITZ_BLOCK = 4
RITZ_FIRST = 8
RITZ_SPACING = 16
RITZ_RANK = 1e-10
# nodes per axis of the solve that warm-starts a density-form solve (_solve)
WARM_N = 40


def _ritz_pair(xs, lams, w, u, r):
    """Rayleigh-Ritz on the span of the power iterates x_0..x_{s-1}.

    xs holds the iterates as rows, with x_{j+1} = K x_j / lams[j], and w is
    K x_{s-1}: so K V = [lams[0] x_1, .., lams[s-2] x_{s-1}, w] needs no
    stored images. xs is orthonormalized in place by classical Gram-Schmidt
    run twice, V = Q R, and the SVD of R = P S T^T is that of V: the basis is
    U = Q P_k over the singular values above RITZ_RANK times the largest,
    and V M = U with M = T_k / S_k. (A basis from the Gram matrix V^T V
    would square the block's conditioning and lose the second eigenvalue's
    separation.) With K V = Q B + w e^T, where B's column j < s-1 is
    lams[j] R[:, j+1] and its last is 0, the projected operator is
    H = U^T K U = P_k^T (B + Q^T w e^T) M.

    Writes into u the Ritz vector of H's eigenvalue theta of largest real
    part, scaled so that its entry of largest magnitude is +1 (a complex
    theta gives real parts, which the residual then rejects). r is scratch.
    Returns theta and the sup norm of K u - theta u, formed in the block.
    """
    s = len(xs)
    rmat = np.zeros((s, s))
    for j in range(s):
        x, q = xs[j], xs[:j]
        norms = []
        for _ in range(2):
            c = np.einsum("ij,j->i", q, x)
            x -= np.einsum("i,ij->j", c, q, out=r)
            rmat[:j, j] += c
            norms.append(math.sqrt(np.einsum("i,i->", x, x)))
        if norms[1] <= 0.5 * norms[0]:
            # the second sweep cancelled too: x lies in the span of the rows
            # before it up to round-off, and its row is dropped (Kahan-Parlett)
            x[:] = 0.0
        else:
            x /= norms[1]
            rmat[j, j] = norms[1]
    p, sv, tt = np.linalg.svd(rmat)
    keep = sv > RITZ_RANK * sv[0]
    p, m = p[:, keep], tt[keep].T / sv[keep]
    b = np.zeros((s, s))
    b[:, :-1] = rmat[:, 1:] * lams[:-1]
    qw = np.einsum("ij,j->i", xs, w)
    vals, vecs = np.linalg.eig(p.T @ b @ m + np.outer(p.T @ qw, m[-1]))
    i = int(np.argmax(vals.real))
    theta, y = float(vals[i].real), vecs[:, i].real
    np.einsum("i,ij->j", p @ y, xs, out=u)
    hi, lo = float(u.max()), float(u.min())
    scale = hi if hi >= -lo else lo
    u /= scale
    # K u - theta u = Q (B M y - theta P y) + w (M y)_last, over scale
    my = m @ y / scale
    np.einsum("i,ij->j", b @ my - theta * (p @ y) / scale, xs, out=r)
    r += my[-1] * w
    return theta, float(np.abs(r, out=r).max())


def spectral_radius(op, tol=1e-10, max_iter=50000, start=None):
    """Perron root of a nonnegative operator: power iteration with
    Rayleigh-Ritz extraction from its own iterates.

    Power iteration starts from a copy of start (all ones if None; else of the
    grid's shape, finite, >= 0 and not 0, or ValueError) with sup-norm
    normalization. It stops when the eigenvalue increment falls below tol and
    the sup-norm residual below tol * max(1, lambda); the residual is formed
    only on steps whose increment is below tol, and on step max_iter.

    At sparse checks (step RITZ_FIRST, then every max(RITZ_FIRST,
    it // RITZ_SPACING) steps) the last RITZ_BLOCK iterates, which the loop
    computes anyway, give a Ritz pair (_ritz_pair) at no extra apply. A pair
    whose value moved by less than tol since the last check and whose block
    residual is below tol * max(1, theta) is clipped at 0 and applied once
    more; it is returned only if that true residual passes the same test,
    else power iteration continues from its image. Ritz values of these
    non-normal kernels can overshoot the root early, so the residual of a
    nonnegative vector is what certifies the answer. The extraction
    converges at about the rate lambda_3 / lambda_1 rather than power
    iteration's lambda_2 / lambda_1.

    iterations counts every apply of op, the verifying one included. A
    kernel that does not settle within max_iter steps ends in
    MaxIterationsExceeded, whose message reports the last step's residual
    and lambda. tol must be finite and > 0 and max_iter a positive count,
    else ValueError. op.apply must return a new C-contiguous array on every
    call: the iterate is normalized in place, and at a check its flat view
    takes the Ritz vector.
    """
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"need a finite tol > 0, got {tol!r}")
    last = as_count(max_iter, "max_iter")
    if last < 1:
        raise ValueError(f"max_iter must be a positive count, got {max_iter!r}")
    shape = (op.grid.n,) * op.grid.d
    v = np.ones(shape) if start is None else np.array(start, dtype=float)
    if v.shape != shape or not (np.isfinite(v).all() and v.min() >= 0.0 and v.max() > 0.0):
        raise ValueError(f"start must be finite, >= 0 and not 0, of shape {shape}; got {v.shape}")
    # residual and subnormal-mask buffers; each apply returns a fresh w, which
    # is normalized in place into the next iterate
    r = np.empty_like(v)
    tiny = np.empty(v.shape, dtype=bool)
    # the Ritz block, filled only in the RITZ_BLOCK steps that end at a check:
    # the iterates and their lambdas, whose images are lambda times the next
    xs = np.empty((RITZ_BLOCK, v.size))
    lams = np.empty(RITZ_BLOCK)
    check = RITZ_FIRST
    # the Ritz value whose vector v is, while its true apply is due
    ritz = None
    lam_prev = theta_prev = residual = math.inf
    for it in range(1, last + 1):
        w = op.apply(v)
        lam = float(w.max())
        if lam <= 0.0:
            # the operator annihilates the cone on this grid
            return SpectralResult(0.0, v, 0.0, it, True, op.grid, op.delta)
        estimate = lam if ritz is None else ritz
        settled = ritz is not None or abs(lam - lam_prev) < tol
        if settled or it == last:
            np.multiply(v, estimate, out=r)
            np.subtract(w, r, out=r)
            residual = float(np.abs(r, out=r).max())
        if settled and residual < tol * max(1.0, estimate):
            # psi is a copy, not the iteration's last work array: that block
            # can sit above a freed operator and, held by the result, keep the
            # allocator from reusing its space on the next assembly
            return SpectralResult(estimate, v.copy(), residual, it, True, op.grid, op.delta)
        ritz = None
        slot = it - check + RITZ_BLOCK - 1
        if slot >= 0:
            xs[slot] = v.reshape(-1)
            lams[slot] = lam
        if it == check:
            check += max(RITZ_FIRST, it // RITZ_SPACING)
            # v is in the block now, so its array takes the Ritz vector
            theta, block_residual = _ritz_pair(xs, lams, w.reshape(-1), v.reshape(-1),
                                               r.reshape(-1))
            if abs(theta - theta_prev) < tol and block_residual < tol * max(1.0, theta):
                # v's largest entry is +1, so clipped it keeps sup norm 1
                ritz = theta
                w = np.maximum(v, 0.0, out=v)
            theta_prev = theta
        v = w if ritz is not None else np.divide(w, lam, out=w)
        # flush subnormal entries: they carry no weight at the sup-norm scale
        # of v but slow every later matvec several-fold
        np.less(v, _TINY, out=tiny)
        np.putmask(v, tiny, 0.0)
        lam_prev = lam
    raise MaxIterationsExceeded(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e} at lambda {lam_prev:.6g})"
    )


def solve_operator(model, m=None, n=400, delta=0.0):
    """One-call operator route: grid defaults, assembly, power iteration (_solve)."""
    return _solve(model, assemble(model, default_grid(model, m, n), delta=delta))


def _solve(model, op):
    """spectral_radius of the model's operator op; on the density form at n >=
    2 WARM_N, from the psi of a WARM_N-node solve of op's box, interpolated per
    axis by barycentric weights (-1)^j sqrt((1 - x_j^2) w_j) (exact on coarse
    nodes), at sup norm 1 and floored at 1e-12 (zeros can trap the iterate)."""
    if op.start is not None or op.grid.n < 2 * WARM_N:
        return spectral_radius(op)
    coarse = build_grid(op.grid.lo, op.grid.hi, WARM_N, op.grid.d)
    warm = spectral_radius(assemble(model, coarse, delta=op.delta))
    x, w = leggauss(WARM_N)
    weights = (-1.0) ** np.arange(WARM_N) * np.sqrt((1.0 - x) * (1.0 + x) * w)
    diff = np.subtract.outer(op.grid.nodes, coarse.nodes)
    interp = np.divide(weights, diff, out=np.zeros_like(diff), where=diff != 0.0)
    np.copyto(interp, diff == 0.0, where=(diff == 0.0).any(axis=1)[:, None])
    interp /= interp.sum(axis=1, keepdims=True)
    v = warm.psi
    for _ in range(op.grid.d):  # contract the first coarse axis, append its fine one
        v = np.einsum("ij,j...->...i", interp, v)
    v /= v.max()
    return replace(spectral_radius(op, start=np.maximum(v, 1e-12, out=v)),
                   warm_start={"n": WARM_N, "iterations": warm.iterations})


# ---------------------------------------------------------------------------
# convergence sweeps


def _restrict(op, i0, i1):
    """op restricted to cells i0..i1-1 of every axis: a principal submatrix, in
    op's own form. The Gaussian factors each keep their box; a window row's
    start and stop shift and clip to the box, and a cut cell outside the box
    is dropped. The whole box is op itself."""
    big, d, n = op.grid, op.grid.d, int(i1 - i0)
    if n == big.n:
        return op
    grid = replace(big, lo=float(big.edges[i0]), hi=float(big.edges[i1]), n=n,
                   nodes=big.nodes[i0:i1], weights=big.weights[i0:i1],
                   edges=big.edges[i0:i1 + 1])
    box = (slice(i0, i1),) * d
    if op.start is None:
        # base's axes are x_2..x_d, z and coef's x_1..x_d
        return DiscretizedOperator(grid=grid, cu=op.cu[box[0]], u=op.u[box[0]], delta=op.delta,
                                   base=op.base.reshape((big.n,) * d)[box].reshape(-1, n),
                                   coef=op.coef.reshape((big.n,) * d)[box].reshape(n, -1))
    states = np.arange(big.n ** d).reshape((big.n,) * d)[box].reshape(-1)
    start = op.start[states]
    window = {"scale": None if op.scale is None else op.scale[states]}
    if op.stop is not None:
        stop = op.stop[states]
        window.update(stop=np.clip(stop - i0, 0, n),
                      upper=np.where((stop >= i0) & (stop < i1), op.upper[states], 0.0))
    # the cut cell is start - 1
    coef = np.where((start > i0) & (start <= i1), op.coef[states], 0.0)
    return DiscretizedOperator(grid=grid, delta=op.delta, base=op.base[i0:i1],
                               start=np.clip(start - i0, 0, n), coef=coef, **window)


def truncation_lambdas(model, ms, n_ref, delta=0.0):
    """Spectral radii on a nested family of truncations of the solve grid.

    The operator solve_operator builds at (largest M, n_ref) is assembled
    once, and each smaller M's member is it restricted to the cells of the
    nodes inside that M's clamped axis. Every smaller operator is then a
    principal submatrix of the largest one, so the Perron root cannot
    decrease along the family, and the largest member is the (largest M,
    n_ref) solve itself, each solved by _solve. Returns {"Ms", "lambdas",
    "monotone"}, where monotone checks that nondecrease up to a 1e-9 slack.
    """
    ms = sorted(_truncation(m) for m in ms)
    if not ms:
        raise ValueError("need a nonempty list of truncations M")
    full = assemble(model, default_grid(model, ms[-1], n_ref), delta=delta)
    lams = []
    for m in ms:
        lo_m, hi_m = _axis_bounds(model, m)
        keep = np.flatnonzero((full.grid.nodes >= lo_m) & (full.grid.nodes <= hi_m))
        if len(keep) < 2:
            raise ValueError(f"truncation M={m} keeps fewer than 2 nodes of the reference grid")
        lams.append(_solve(model, _restrict(full, keep[0], keep[-1] + 1)).lam)
    monotone = all(b - a >= -1e-9 for a, b in zip(lams, lams[1:]))
    return {"Ms": ms, "lambdas": lams, "monotone": monotone}


def convergence_sweep(model, ms, ns, delta=0.0):
    """Factorial table of lambda over truncations and grid sizes.

    Reports Cauchy differences against the finest (M, N) cell, plus a nested
    truncation family used to check that lambda is nondecreasing in M. The
    family's last member is the finest cell's solve, so that cell is taken
    from it rather than solved twice.
    """
    ms = sorted(float(m) for m in np.atleast_1d(ms))
    ns = sorted(as_count(n, "N") for n in np.atleast_1d(np.asarray(ns, dtype=object)).tolist())
    if not ms or not ns:
        raise ValueError("need nonempty M and N lists")
    family = truncation_lambdas(model, ms, ns[-1], delta=delta)
    lam_ref = family["lambdas"][-1]
    finest = (ms[-1], ns[-1])
    table = {(m, n): solve_operator(model, m=m, n=n, delta=delta).lam
             for m in ms for n in ns if (m, n) != finest}
    table[finest] = lam_ref
    rows = [
        {"M": m, "N": n, "lambda": lam, "diff": abs(lam - lam_ref)}
        for (m, n), lam in table.items()
    ]
    return {
        "table": rows,
        "lambda_ref": lam_ref,
        "M_ref": ms[-1],
        "N_ref": ns[-1],
        "truncation": family,
    }
