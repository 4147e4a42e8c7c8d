"""Discretized persistence operators and their spectral radius.

The AR operator acts on functions of the state (x_1..x_p) as
(Kg)(x) = int_0^M g(x_2..x_p, z) phi(z - s(x)) dz with drift
s(x) = sum_j a_j x_{p+1-j}; the substituted variable z shares the grid with
the state, so the discretization needs no interpolation in z. Each kernel
row is assembled from exact innovation mass per grid cell (CDF
differences), which keeps the rank-one i.i.d. case and bounded-support
truncations exact. The kernel form follows the model alone (assemble_ar):
AR(1) and laws with a support endpoint keep the exact table, AR of order
>= 2 on a law supported on the whole line interpolates its rows linearly
in the drift, and MA is stored as suffix sums.

The MA operator acts on the last q innovations as
(Kg)(x) = sum_j w_j phi(y_j) 1{y_j + s(x) > 0} g(x_2..x_q, y_j);
the indicator cuts one grid cell per row, and that cell keeps its nodal
weight times the fraction of its innovation mass above the cut (the cut
cell). Every row is the nodal weight above its cut cell plus that one cell,
so the MA operator is stored per state (first node past the cut cell, the
cut cell's weight) and never as a table. The MA kernel takes no tilt.

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
grids on the same axis share the rescaled arrays. Both AR tables are
filled through one routine (_cell_masses) whose temporaries are one slab of
about 2^16 entries, so assembly memory is the table (N^(d+1) floats exact,
L*N over the drift) plus one slab. One exact AR apply is a batched
matrix-vector product (np.matmul) on a strided view of the table, not a
copy of it. A drift table has L = 8N drift nodes, O(L*N + N^d) memory,
and one apply is one GEMM of the (L, N) table with g's rows plus two
gathers, O(L*N^d) time: an AR(2) solve at N = 128 peaks at 4.8 MB, one on
the exact table at 20.0 MB. MA memory is O(N^d): one MA apply is a suffix
sum of the weighted iterate along the new coordinate plus a gather of each
state's suffix, O(N^d) time. Power iteration normalizes its next iterate
in place, so each step allocates only the apply's result, and it forms the
residual only on steps where lambda has settled. After each normalization
the iterate's subnormal entries are set to zero: they weigh nothing at the
sup-norm scale, but they slow every later matvec several-fold. The
Rayleigh-Ritz extraction costs no apply: it copies the RITZ_BLOCK = 4
iterates before each sparse check into one (4, N^d) block, whose images are
the next iterates times their lambdas, and at the check spends O(N^d) in a
Gram-Schmidt sweep and a few small products, plus a 4x4 SVD and
eigen-solve. Its certifying apply is counted in iterations. On nearly
reducible kernels this takes about a third of power iteration's applies
(MA(1) a1 = -0.99, N = 400: 4,373 against 12,935). Grids, assembly and
solves are numpy only, for every law: no path here loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ARModel,
    MAModel,
    PersistxError,
    RequestedDensityOfAtomicLaw,
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
    never exceeds the innovation's upper end, so truncation there is exact).
    MA lives on the innovation support intersected with [-M, M].
    """
    lo_s, hi_s = model.innovation.support
    if not isinstance(model, ARModel):
        return max(lo_s, -m), min(hi_s, m)
    if all(c <= 0 for c in model.coeffs) and math.isfinite(hi_s):
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
    n^d x n^d matrix is never formed. The kernel is held in one of three
    forms; delta is the tilt it was assembled with (always 0 for MA).

    AR, exact table: kmat has shape (n,)*d + (n,) and start is None; entry
    [x_1..x_d, z] is the quadrature weight carried from state (x_1..x_d) to
    state (x_2..x_d, z). One apply costs O(n^d * n).

    AR, drift table: kmat has shape (L, n), one row of tilted cell masses per
    drift node; start (the state's lower drift node) and coef (shape
    (2, n^d), the weights of that node and the next) run over the states in C
    order. Row x of the kernel is coef[0, x] kmat[start[x]] + coef[1, x]
    kmat[start[x] + 1]. One apply is one GEMM, kmat @ g.reshape(n^(d-1), n).T,
    plus a gather of each state's two images: O(L * n^d) time, O(L * n + n^d)
    memory.

    MA: start and coef run over the states in C order. The row of state x
    is base[j] at every node j >= start[x], plus coef[x] at node
    start[x] - 1, the cut cell (coef is 0 on a row without one). One apply
    multiplies g by base along the new coordinate, takes its suffix sums,
    gathers each state's suffix from start[x] and adds coef[x] * g at
    start[x] - 1: O(n^d) in time and in memory. The work buffers of the MA
    and drift-table forms belong to the operator, so one operator serves one
    caller at a time.
    """

    grid: QuadratureGrid
    kmat: np.ndarray = None
    delta: float = 0.0
    base: np.ndarray = None
    start: np.ndarray = None
    coef: np.ndarray = None

    def __post_init__(self):
        if self.start is None:
            return
        n, d = self.grid.n, self.grid.d
        # g viewed as rows (x_2..x_d) by the new coordinate
        row = np.arange(n ** d) % n ** (d - 1)
        if self.kmat is not None:
            # the images are laid out drift nodes by rows: states next to each
            # other in C order mostly share their nodes, so both gathers run
            # nearly in order
            self._at_node = self.start * n ** (d - 1) + row
            self._at_upper = self._at_node + n ** (d - 1)
            self._images = np.empty((len(self.kmat), n ** (d - 1)))
            self._upper = np.empty(n ** d)
            return
        # the suffix table holds, per row, the sums of its last 0..n weighted
        # entries
        self._at_suffix = row * (n + 1) + (n - self.start)
        # the cut cell precedes start; a row without one has coef 0, and the
        # clipped gather keeps its index in range
        self._at_cell = row * n + self.start - 1
        self._weighted = np.empty((n ** (d - 1), n))
        self._suffix = np.zeros((n ** (d - 1), n + 1))
        self._at_cut = np.empty(n ** d)

    def apply(self, g):
        d = self.grid.d
        g = np.asarray(g, dtype=float)
        if g.shape != (self.grid.n,) * d:
            raise ValueError(f"value vector has shape {g.shape}, grid wants {(self.grid.n,) * d}")
        if self.start is None:
            # batch over x_2..x_d (one batch at d = 1) on a strided view: each
            # batch is one BLAS matrix-vector product and kmat is not copied
            out = np.empty_like(g)
            np.matmul(np.moveaxis(self.kmat, 0, d - 1), g[..., None],
                      out=np.moveaxis(out, 0, d - 1)[..., None])
            return out
        if self.kmat is None:
            # suffix sums run from the last node down: the terms are
            # nonnegative, so nothing cancels
            weighted = np.multiply(g.reshape(self._weighted.shape), self.base, out=self._weighted)
            np.add.accumulate(weighted[:, ::-1], axis=1, out=self._suffix[:, 1:])
            out = self._suffix.take(self._at_suffix)
            at_cut = g.take(self._at_cell, out=self._at_cut, mode="clip")
            at_cut *= self.coef
            out += at_cut
            return out.reshape(g.shape)
        # one GEMM gives the image of every row of g under every drift node's
        # table row; each state blends the images at its two nodes
        images = np.matmul(self.kmat, g.reshape(-1, self.grid.n).T, out=self._images)
        out = images.take(self._at_node)
        out *= self.coef[0]
        upper = images.take(self._at_upper, out=self._upper)
        upper *= self.coef[1]
        out += upper
        return out.reshape(g.shape)


# entries per slab of _cell_masses, which fills both AR tables
_SLAB = 1 << 16
# an AR kernel of order >= 2 on a law supported on the whole line is
# tabulated over the drift, on DRIFT_NODES_PER_NODE drift nodes per grid node
DRIFT_NODES_PER_NODE = 8


def _coordinates(grid):
    """State coordinates x_1..x_d as node views that broadcast to (n,)*d."""
    return [grid.nodes.reshape((-1,) + (1,) * (grid.d - 1 - k)) for k in range(grid.d)]


def assemble_ar(model, grid, delta=0.0):
    """Discretize the AR persistence operator (optionally tilted) on the grid.

    Row x, column j carries the exact innovation mass of grid cell j shifted
    by the drift: F(e_{j+1} - s(x)) - F(e_j - s(x)). With delta > 0 every
    entry is multiplied by h(x')/h(x) = exp(delta (z - x_1)), a diagonal
    similarity that leaves the spectral radius unchanged.

    The form follows the model alone, at every n:
    - AR(1), and any order on a law with a support endpoint (uniform,
      exponential), keep the exact table of shape (n,)*d + (n,). A support
      endpoint puts a kink in s into the cell masses, which linear
      interpolation resolves poorly.
    - Order >= 2 on a law supported on the whole line (the Gaussian) is
      tabulated over the drift: the row depends on x only through s(x), so
      the rows are tabulated on L = DRIFT_NODES_PER_NODE * n uniform drift
      nodes spanning the states' drift range, and each state interpolates
      linearly between its two nodes. The tilt's exp(delta z) scales the
      table's columns and its exp(-delta x_1) each state's weights, so every
      entry stays nonnegative and the tilt stays an exact similarity.
    """
    if not isinstance(model, ARModel):
        raise ValueError("assemble_ar expects an AR model")
    _check_kernel_input(model, grid, "AR")
    if abs(grid.lo) > 1e-12:
        raise ValueError(f"the AR state axis must start at 0, got lo={grid.lo}")
    n, d = grid.n, grid.d
    delta = float(delta)
    s = drift(model.coeffs, _coordinates(grid)).reshape(-1)
    tilt_to = np.exp(delta * grid.nodes)
    tilt_from = np.repeat(np.exp(-delta * grid.nodes), n ** (d - 1))
    if d >= 2 and model.innovation.support == (-math.inf, math.inf):
        return _assemble_drift_table(model.innovation, grid, delta, s, tilt_to, tilt_from)
    kmat = _cell_masses(model.innovation, grid.edges, s, tilt_to, tilt_from)
    return DiscretizedOperator(grid=grid, kmat=kmat.reshape((n,) * d + (n,)), delta=delta)


def _check_kernel_input(model, grid, label):
    """Refuse an atomic law, and a grid whose dimension is not the model order."""
    if not model.innovation.has_density:
        raise RequestedDensityOfAtomicLaw(f"the {label} operator needs an innovation density; "
                                          "atomic laws are handled in closed form")
    if grid.d != model.order:
        raise ValueError(f"grid dimension {grid.d} does not match model order {model.order}")


def _cell_masses(innovation, edges, drifts, tilt_to, tilt_from=None):
    """Row k, column j: clip(F(e_{j+1} - s_k) - F(e_j - s_k), 0), the
    innovation mass of cell j shifted by the k-th of the flat drifts, times
    tilt_to[j] and then tilt_from[k] if given (at delta = 0 both are 1.0,
    and multiplying by 1.0 is exact).

    The rows are filled and tilted in slabs of about _SLAB entries, so the
    temporaries stay small next to the result.
    """
    out = np.empty((len(drifts), len(edges) - 1))
    step = max(1, _SLAB // len(edges))
    for k0 in range(0, len(drifts), step):
        cdf_vals = innovation.cdf(edges - drifts[k0:k0 + step, None])
        slab = out[k0:k0 + step]
        np.subtract(cdf_vals[:, 1:], cdf_vals[:, :-1], out=slab)
        np.clip(slab, 0.0, None, out=slab)
        slab *= tilt_to
        if tilt_from is not None:
            slab *= tilt_from[k0:k0 + step, None]
    return out


def _assemble_drift_table(innovation, grid, delta, s, tilt_to, tilt_from):
    """The AR kernel interpolated linearly in the drift.

    Row l of the table is the cell masses at the l-th of L uniform drift
    nodes spanning the range of the drifts s, each column j times tilt_to[j]
    = exp(delta z_j); each state keeps its lower node (start) and the weights
    of its two nodes times tilt_from = exp(-delta x_1) (coef, shape (2, n^d)).
    """
    count = DRIFT_NODES_PER_NODE * grid.n
    lo = float(s.min())
    # a constant drift sits on node 0 with weight 1, whatever the spacing
    step = (float(s.max()) - lo) / (count - 1) or 1.0
    table = _cell_masses(innovation, grid.edges, lo + step * np.arange(count), tilt_to)
    pos = (s - lo) / step
    start = np.minimum(pos.astype(np.intp), count - 2)
    upper = np.clip(pos - start, 0.0, 1.0)
    coef = np.stack((1.0 - upper, upper))
    coef *= tilt_from
    return DiscretizedOperator(grid=grid, kmat=table, delta=delta, start=start, coef=coef)


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


def spectral_radius(op, tol=1e-10, max_iter=50000):
    """Perron root of a nonnegative operator: power iteration with
    Rayleigh-Ritz extraction from its own iterates.

    Power iteration starts from the all-ones vector with sup-norm
    normalization. It stops when the eigenvalue increment falls below tol
    and the sup-norm residual below tol * max(1, lambda); the residual is
    formed only on steps whose increment is below tol, and on step max_iter.

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

    iterations counts every apply, the verifying one included. A kernel
    that does not settle within max_iter steps ends in
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
    v = np.ones((op.grid.n,) * op.grid.d)
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
            # can sit above a freed AR table and, held by the result, keep the
            # allocator from reusing the table's space on the next assembly
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
    """One-call operator route: grid defaults, assembly, power iteration."""
    grid = default_grid(model, m, n)
    op = assemble(model, grid, delta=delta)
    return spectral_radius(op)


# ---------------------------------------------------------------------------
# convergence sweeps


def _restrict(op, i0, i1):
    """op restricted to cells i0..i1-1 of every axis: a principal submatrix, in
    op's own form. An exact table's member is a view of its kmat's block; a
    drift table keeps its drift nodes; an MA row's start shifts and clips to
    the box, and a cut cell outside the box is dropped."""
    big, d, n = op.grid, op.grid.d, int(i1 - i0)
    grid = replace(big, lo=float(big.edges[i0]), hi=float(big.edges[i1]), n=n,
                   nodes=big.nodes[i0:i1], weights=big.weights[i0:i1],
                   edges=big.edges[i0:i1 + 1])
    box = (slice(i0, i1),) * d
    if op.start is None:
        return DiscretizedOperator(grid=grid, kmat=op.kmat[box + box[:1]], delta=op.delta)
    states = np.arange(big.n ** d).reshape((big.n,) * d)[box].reshape(-1)
    start = op.start[states]
    if op.kmat is not None:
        return DiscretizedOperator(grid=grid, kmat=np.ascontiguousarray(op.kmat[:, box[0]]),
                                   delta=op.delta, start=start, coef=op.coef[:, states])
    # the cut cell is start - 1
    coef = np.where((start > i0) & (start <= i1), op.coef[states], 0.0)
    return DiscretizedOperator(grid=grid, base=op.base[i0:i1],
                               start=np.clip(start - i0, 0, n), coef=coef)


def truncation_lambdas(model, ms, n_ref, delta=0.0):
    """Spectral radii on a nested family of truncations of the solve grid.

    The operator solve_operator builds at (largest M, n_ref) is assembled
    once, and each smaller M's member is it restricted to the cells of the
    nodes inside that M's clamped axis. Every smaller operator is then a
    principal submatrix of the largest one, so the Perron root cannot
    decrease along the family, and the largest member is the (largest M,
    n_ref) solve itself. Returns {"Ms", "lambdas", "monotone"}, where
    monotone checks that nondecrease up to a 1e-9 slack.
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
        lams.append(spectral_radius(_restrict(full, keep[0], keep[-1] + 1)).lam)
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
