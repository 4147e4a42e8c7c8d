"""Process-level definitions: innovation laws, initial laws, AR/MA models.

An innovation law enters everywhere through four handles: density, CDF,
quantile, and a sampler. Every draw goes through
InnovationDistribution.sample, which calls the law's _draw: the Gaussian
and exponential laws use the generator's ziggurat standard_normal and
standard_exponential, scaled by their parameters, and the uniform and
Rademacher laws map uniforms through their quantile. Streams are derived
from (seed, path-tag) pairs, one SFC64 generator per tag, so a replicate's
draw sequence is a fixed function of its tag. Together these make every
Monte Carlo result bit-reproducible under any thread schedule, for the same
seed and numpy version.

Everything here is numpy. The Gaussian law's cdf is the cephes ndtr, the
form scipy.special.ndtr follows, evaluated in chunks of numpy arithmetic;
its quantile and tail radius refine a closed-form start by Newton steps on
that cdf. No law loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np


class PersistxError(Exception):
    """Base of the errors persistx raises for a computation or a config it
    refuses; the command line prints each one as an error line."""


class RequestedDensityOfAtomicLaw(PersistxError):
    """A density was requested from a law with atoms (Rademacher)."""


# ---------------------------------------------------------------------------
# random streams


def substream(seed, *path):
    """Derive an independent random stream for (seed, *path).

    The tag is hashed to a 128-bit entropy value that seeds an SFC64
    generator through a SeedSequence, so distinct tags give statistically
    independent streams, no stream reads OS entropy, and the draw order
    within one tag is fixed no matter how work is scheduled across threads.
    """
    import hashlib  # loads OpenSSL, so only once a stream is asked for

    tag = repr((int(seed),) + tuple(path)).encode()
    digest = hashlib.blake2b(tag, digest_size=16).digest()
    entropy = int.from_bytes(digest, "little")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


# ---------------------------------------------------------------------------
# the standard normal cdf and its inverse

# Cephes ndtr: Phi(a) = 0.5 erfc(|a|/sqrt2), reflected to 1 - that for a > 0,
# with erfc(z) = exp(-z^2) P(z)/Q(z) on [1, 8), exp(-z^2) R(z)/S(z) from 8
# on, and 1 - erf(z) below 1, where erf(x) = x T(x^2)/U(x^2); for |a| < 1 it
# is 0.5 + 0.5 erf(a/sqrt2) directly. The operations and their order are
# cephes', so on standardized input only numpy's exp can part the two, by a
# few ulp.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)


def _horner_pair(num, den):
    """A numerator and a monic denominator as one (steps, 2, 1) table of
    Horner coefficients, the shorter row padded with leading zeros (which
    leave Horner exact)."""
    rows = (num, (1.0,) + den)
    steps = max(map(len, rows))
    return np.array([(0.0,) * (steps - len(r)) + r for r in rows]).T[:, :, None]


_ERFC_NEAR = _horner_pair(_P, _Q)
_ERFC_FAR = _horner_pair(_R, _S)
_ERF = _horner_pair(_T, _U)
_SQRT_HALF = math.sqrt(0.5)
# erfc(z) is 0 once z^2 > MAXLOG = log(DBL_MAX); sqrt(MAXLOG) is the
# largest double z with z^2 <= MAXLOG
_MAXLOG = 7.09782712893383996843e2
_Z_UNDERFLOW = math.sqrt(_MAXLOG)
# from x = a/sqrt2 = 6 on, 0.5 erfc(x) < 1.1e-17 and Phi(a) rounds to 1
_X_ONE = 6.0
# points per chunk: its few buffers stay in cache, and its per-chunk numpy
# calls stay cheap next to the arithmetic; 2^16 would take the 2^18-point
# call of harness._ma_p0 past its 8 MB memory budget
_NDTR_CHUNK = 1 << 15


def _ndtr(x, sd=1.0):
    """Phi(x / sd) elementwise, as a new float array of x's shape.

    x / sd enters erfc as x * (sqrt(1/2) / sd), in one rounding. Phi(-inf)
    = 0, Phi(inf) = 1 and Phi(nan) = nan. The points are taken _NDTR_CHUNK
    at a time, each chunk with buffers allocated by this call, so concurrent
    calls share nothing and a point's value does not depend on what it is
    evaluated with.
    """
    x = np.asarray(x, dtype=float)
    y = np.empty(x.shape)
    src, dst = x.reshape(-1), y.reshape(-1)
    k = min(src.size, _NDTR_CHUNK)
    xs, z, w = np.empty(k), np.empty(k), np.empty((2, k))
    m1, m2 = np.empty(k, dtype=bool), np.empty(k, dtype=bool)
    for i in range(0, src.size, _NDTR_CHUNK):
        n = min(k, src.size - i)
        _ndtr_chunk(src[i:i + n], _SQRT_HALF / sd, dst[i:i + n],
                    xs[:n], z[:n], w[:, :n], m1[:n], m2[:n])
    return y


def _ndtr_chunk(a, scale, y, xs, z, w, m1, m2):
    np.multiply(a, scale, out=xs)
    np.abs(xs, out=z)
    # 1 where x > 0, else 0: Phi where it saturates, and the side to reflect to
    np.greater(xs, 0.0, out=y)
    np.greater_equal(z, 1.0, out=m1)
    near = np.flatnonzero(np.logical_not(m1, out=m2))  # z < 1, and nan
    # erfc by P/Q, except where Phi rounds to 1
    np.less(xs, _X_ONE, out=m2)
    m1 &= m2
    m1 &= np.greater(xs, -8.0, out=m2)
    idx = np.flatnonzero(m1)
    if idx.size:
        h = y[idx]
        h -= _half_erfc(_ERFC_NEAR, z[idx], w)
        y[idx] = np.abs(h, out=h)
    # erfc by R/S, on the lower side only, up to where exp(-z^2) underflows
    if np.less_equal(xs, -8.0, out=m1).any():
        m1 &= np.greater_equal(xs, -_Z_UNDERFLOW, out=m2)
        idx = np.flatnonzero(m1)
        y[idx] = _half_erfc(_ERFC_FAR, z[idx], w)
    if near.size:
        v = xs[near]
        num, den = _horner(_ERF, v * v, w[:, :v.size])
        erf = num
        erf *= v
        erf /= den
        # 0.5 + 0.5 erf(x) for every z < 1: on 1/sqrt2 <= z < 1, where cephes
        # reflects 0.5 erfc(z) = 0.5 (1 - erf(z)), erf(z) >= 0.68 makes
        # 1 - erf(z) exact, so both round (1 + erf(x))/2 once, to the same bits
        erf *= 0.5
        erf += 0.5
        y[near] = erf


def _horner(pair, v, w):
    """Numerator and denominator of a Horner pair at v, in place in w (2, v.size)."""
    np.multiply(pair[0], v, out=w)
    w += pair[1]
    for c in pair[2:]:
        w *= v
        w += c
    return w


def _half_erfc(pair, z, w):
    """0.5 erfc(z) = 0.5 exp(-z^2) num(z)/den(z), for z >= 1."""
    num, den = _horner(pair, z, w[:, :z.size])
    e = np.multiply(z, z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e *= num
    e /= den
    e *= 0.5
    return e


# Abramowitz-Stegun 26.2.23: -Phi^-1(p) = t - (c0 + c1 t + c2 t^2) /
# (1 + d1 t + d2 t^2 + d3 t^3), t = sqrt(-2 log p), within 4.5e-4 for 0 < p <= 0.5
_AS_C = (2.515517, 0.802853, 0.010328)
_AS_D = (1.432788, 0.189269, 0.001308)
# Newton on Phi converges quadratically, about as e -> |x| e^2 / 2: three
# steps take 4.5e-4 below the last bit even at x = -37
_NEWTON_STEPS = 3


def _ndtri(u):
    """Phi^-1(u) elementwise, for the lower tail mass p = min(u, 1 - u) and
    reflected for u > 0.5.

    Phi^-1(0) = -inf, Phi^-1(1) = inf, Phi^-1(0.5) = 0, and nan outside
    [0, 1]. Below p = 1e-308 or so, where Phi underflows, Newton steps stop
    and the start is returned.
    """
    u = np.asarray(u, dtype=float)
    p = np.minimum(u, 1.0 - u)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.sqrt(-2.0 * np.log(p))
        x = ((_AS_C[2] * t + _AS_C[1]) * t + _AS_C[0]) / (
            ((_AS_D[2] * t + _AS_D[1]) * t + _AS_D[0]) * t + 1.0) - t
        for _ in range(_NEWTON_STEPS):
            f = _ndtr(x)
            step = (f - p) / (np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
            x -= np.where(f > 0.0, step, 0.0)
    x = np.where(u > 0.5, -x, x)
    x = np.where(u == 0.5, 0.0, x)
    return np.where(p == 0.0, np.where(u == 0.0, -np.inf, np.inf), x)


# ---------------------------------------------------------------------------
# innovation distributions


class InnovationDistribution:
    """Base class; subclasses provide density/cdf/quantile and support bounds."""

    kind = "base"
    has_density = True

    def density(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    @property
    def support(self):
        """(lo, hi) support bounds, possibly infinite."""
        raise NotImplementedError

    def sample(self, stream, size=None):
        """Draw(s) from the law using the given stream.

        Every draw of every law passes through here; the law's own method is
        its _draw. Draws concatenate along a stream: one (k, m) draw takes
        the values of k successive m-long draws, in order.
        """
        return self._draw(stream, size)

    def _draw(self, stream, size):
        """Inverse-CDF draw, for laws without a direct sampler."""
        return self.quantile(stream.random(size))

    def tail_radius(self, eps):
        """Smallest M with P(|xi| > M) <= eps."""
        raise NotImplementedError

    def exponential_decay_rate(self):
        """A rate r with density(x) <= C exp(-r|x|); inf for compact support."""
        raise NotImplementedError

    def to_json(self):
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}


@dataclass(frozen=True)
class Uniform(InnovationDistribution):
    lo: float = -1.0
    hi: float = 1.0

    kind = "uniform"

    def __post_init__(self):
        for name in ("lo", "hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"uniform law needs a finite {name!r}, got {getattr(self, name)}")
        if not self.lo < self.hi:
            raise ValueError(f"uniform law needs lo < hi, got ({self.lo}, {self.hi})")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)[()]

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)[()]

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return (self.lo + u * (self.hi - self.lo))[()]

    @property
    def support(self):
        return (self.lo, self.hi)

    def tail_radius(self, eps):
        return max(abs(self.lo), abs(self.hi))

    def exponential_decay_rate(self):
        return math.inf


@dataclass(frozen=True)
class Gaussian(InnovationDistribution):
    """Centered normal with standard deviation sd.

    Draws are sd times the generator's ziggurat standard normals. The cdf is
    the cephes ndtr in numpy (_ndtr), within a few units in the last place
    of scipy.special.ndtr; the quantile and tail radius are Newton-refined
    (_ndtri), within 1e-13 of ndtri for u in [1e-300, 1 - 1e-15].
    """

    sd: float = 1.0

    kind = "gaussian"

    def __post_init__(self):
        if not 0 < self.sd < math.inf:
            raise ValueError(f"gaussian law needs a finite 'sd' > 0, got {self.sd}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        z = x / self.sd
        return (np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi)))[()]

    def cdf(self, x):
        return _ndtr(x, self.sd)[()]

    def quantile(self, u):
        return (self.sd * _ndtri(u))[()]

    def _draw(self, stream, size):
        return self.sd * stream.standard_normal(size)

    @property
    def support(self):
        return (-math.inf, math.inf)

    def tail_radius(self, eps):
        return float(self.sd * _ndtri(1.0 - eps / 2.0))

    def exponential_decay_rate(self):
        return 1.0 / self.sd


@dataclass(frozen=True)
class Exponential(InnovationDistribution):
    """Standard exponential (rate 1) on [0, inf)."""

    kind = "exponential"

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, np.exp(-np.clip(x, 0.0, None)), 0.0)[()]

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, -np.expm1(-np.clip(x, 0.0, None)), 0.0)[()]

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return (-np.log1p(-u))[()]

    def _draw(self, stream, size):
        return stream.standard_exponential(size)

    @property
    def support(self):
        return (0.0, math.inf)

    def tail_radius(self, eps):
        return -math.log(eps)

    def exponential_decay_rate(self):
        return 1.0


@dataclass(frozen=True)
class Rademacher(InnovationDistribution):
    """+-1 with probability 1/2 each. No density; CDF and sampler only."""

    kind = "rademacher"
    has_density = False

    def density(self, x):
        raise RequestedDensityOfAtomicLaw(
            "the Rademacher law has atoms at -1 and +1 and no density"
        )

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 1.0, 1.0, np.where(x >= -1.0, 0.5, 0.0))[()]

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 0.5, -1.0, 1.0)[()]

    @property
    def support(self):
        return (-1.0, 1.0)

    def tail_radius(self, eps):
        return 1.0

    def exponential_decay_rate(self):
        return math.inf


# kind -> law. The dataclass fields of a law are the parameters of its kind,
# in the order the command line lists them, with their defaults; the JSON
# schema and the command-line grammar both read them from here.
INNOVATIONS = {cls.kind: cls for cls in (Uniform, Gaussian, Exponential, Rademacher)}


# ---------------------------------------------------------------------------
# initial distributions (AR only; the MA state is built from fresh innovations)


class InitialDistribution:
    def sample(self, p, stream, size):
        """Draw size initial state vectors (Z_0 .. Z_{p-1}), shape (size, p)."""
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


@dataclass(frozen=True)
class PointMass(InitialDistribution):
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def sample(self, p, stream, size):
        if len(self.values) != p:
            raise ValueError(
                f"point-mass initial state has length {len(self.values)}, model order is {p}"
            )
        return np.tile(np.array(self.values, dtype=float), (size, 1))

    def to_json(self):
        return {"kind": "point_mass", "values": list(self.values)}


@dataclass(frozen=True)
class IIDInnovation(InitialDistribution):
    """Initial coordinates drawn iid; None defers to the model's innovation law."""

    innovation: InnovationDistribution = None

    def sample(self, p, stream, size):
        if self.innovation is None:
            raise ValueError("initial law has no distribution bound to it yet")
        return self.innovation.sample(stream, (size, p))

    def to_json(self):
        return {"kind": "iid", "innovation": self.innovation.to_json()}


@dataclass(frozen=True)
class StationaryAR1Gaussian(InitialDistribution):
    """N(0, 1/(1-a1^2)), the stationary law of a Gaussian AR(1) with |a1| < 1."""

    a1: float

    def __post_init__(self):
        if not abs(self.a1) < 1.0:
            raise ValueError(f"stationary AR(1) initial law needs |a1| < 1, got {self.a1}")

    def sample(self, p, stream, size):
        if p != 1:
            raise ValueError(f"stationary AR(1) initial law is order-1 only, model order is {p}")
        sd = 1.0 / math.sqrt(1.0 - self.a1 * self.a1)
        return Gaussian(sd).sample(stream, (size, 1))

    def to_json(self):
        return {"kind": "stationary_ar1_gaussian", "a1": self.a1}


# ---------------------------------------------------------------------------
# survival conventions and models


class SurvivalConvention(Enum):
    """Whether a path survives at level z >= 0 or z > 0.

    For innovations with a density the two events coincide almost surely (and
    double-precision ties are resolved the same way for both runs of a common
    seed); for atomic laws like Rademacher they genuinely differ.
    """

    NON_NEGATIVE = "ge"
    STRICTLY_POSITIVE = "gt"

    def survives(self, z):
        if self is SurvivalConvention.NON_NEGATIVE:
            return np.asarray(z) >= 0.0
        return np.asarray(z) > 0.0


def drift(coeffs, cols):
    """The linear part of the transition, sum_j a_j x_{d+1-j}.

    cols holds the state coordinates x_1..x_d, oldest first: scalars, or
    arrays that broadcast against each other. The terms are added in the
    order j = 1..d starting from zero, so every route that calls this rounds
    the same way.
    """
    d = len(coeffs)
    return sum(a * cols[d - j] for j, a in enumerate(coeffs, start=1))


def _as_coeffs(coeffs):
    """A number or a flat list of numbers as a tuple of floats; anything else
    is a ValueError naming the field."""
    try:
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float))
    except (TypeError, ValueError) as e:
        raise ValueError(f"malformed 'coeffs' field {coeffs!r}: {e}") from e
    if arr.ndim > 1:
        raise ValueError(f"malformed 'coeffs' field {coeffs!r}: need a number or a flat list")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"malformed 'coeffs' field {coeffs!r}: need finite numbers")
    out = tuple(float(c) for c in arr)
    if len(out) == 0:
        raise ValueError("coefficient vector must be nonempty")
    return out


def as_count(value, name):
    """An int, or a float with no fractional part (JSON's 1e5), as an int; a
    bool or anything else is a ValueError naming the field."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_threads(value):
    """A thread count: a count (as_count) of at least 1, as an int."""
    threads = as_count(value, "threads")
    if threads < 1:
        raise ValueError(f"threads must be a positive count, got {value!r}")
    return threads


@dataclass(frozen=True)
class ARModel:
    """Z_i = sum_j a_j Z_{i-j} + xi_i, driven by iid innovations."""

    coeffs: tuple
    innovation: InnovationDistribution
    initial: InitialDistribution
    convention: SurvivalConvention = SurvivalConvention.NON_NEGATIVE

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))
        p = self.order
        if isinstance(self.initial, IIDInnovation) and self.initial.innovation is None:
            object.__setattr__(self, "initial", IIDInnovation(self.innovation))
        if isinstance(self.initial, PointMass) and len(self.initial.values) != p:
            raise ValueError(
                f"point-mass initial state has length {len(self.initial.values)}, model order is {p}"
            )
        if isinstance(self.initial, StationaryAR1Gaussian) and p != 1:
            raise ValueError("stationary AR(1) initial law requires order 1")

    @property
    def order(self):
        return len(self.coeffs)

    def to_json(self):
        return {
            "process": "ar",
            "order": self.order,
            "coeffs": list(self.coeffs),
            "innovation": self.innovation.to_json(),
            "initial": self.initial.to_json(),
            "convention": self.convention.value,
        }


@dataclass(frozen=True)
class MAModel:
    """Z_i = xi_i + sum_j a_j xi_{i-j}, driven by iid innovations."""

    coeffs: tuple
    innovation: InnovationDistribution
    convention: SurvivalConvention = SurvivalConvention.NON_NEGATIVE

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    @property
    def order(self):
        return len(self.coeffs)

    def to_json(self):
        return {
            "process": "ma",
            "order": self.order,
            "coeffs": list(self.coeffs),
            "innovation": self.innovation.to_json(),
            "convention": self.convention.value,
        }


# ---------------------------------------------------------------------------
# JSON experiment schema


def innovation_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"innovation description must be an object with a 'kind' field, got {obj!r}")
    kind = obj["kind"]
    cls = INNOVATIONS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown innovation kind {kind!r}")
    names = [f.name for f in fields(cls)]
    unknown = [key for key in obj if key != "kind" and key not in names]
    if unknown:
        raise ValueError(f"{kind} innovation has unknown field {unknown[0]!r}; "
                         f"it takes {', '.join(map(repr, names)) or 'no parameters'}")
    return cls(**{name: _field(obj, name, float, "innovation") for name in names if name in obj})


def initial_from_json(obj, default_innovation):
    if obj is None:
        return IIDInnovation(default_innovation)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"initial description must be an object with a 'kind' field, got {obj!r}")
    kind = obj["kind"]
    if kind == "point_mass":
        return _field(obj, "values", lambda values: PointMass(tuple(values)), "initial law")
    if kind == "iid":
        innov = obj.get("innovation")
        return IIDInnovation(default_innovation if innov is None else innovation_from_json(innov))
    if kind == "stationary_ar1_gaussian":
        return _field(obj, "a1", lambda a1: StationaryAR1Gaussian(float(a1)), "initial law")
    raise ValueError(f"unknown initial-law kind {kind!r}")


def _field(obj, name, build, law):
    """build(obj[name]) for a law object; a missing or malformed field is a
    ValueError naming it."""
    if name not in obj:
        raise ValueError(f"{obj['kind']} {law} is missing its {name!r} field")
    try:
        return build(obj[name])
    except (TypeError, ValueError) as e:
        raise ValueError(
            f"{obj['kind']} {law} has a malformed {name!r} field {obj[name]!r}: {e}"
        ) from e


def convention_from_json(tag):
    if tag in (None, "ge"):
        return SurvivalConvention.NON_NEGATIVE
    if tag == "gt":
        return SurvivalConvention.STRICTLY_POSITIVE
    raise ValueError(f"unknown convention {tag!r} (expected 'ge' or 'gt')")


def model_from_json(obj):
    """Build an ARModel or MAModel from the experiment schema.

    Schema: {"process": "ar"|"ma", "order": int, "coeffs": [...],
             "innovation": {"kind": ..., ...}, "initial": {...}, "convention": "ge"|"gt"}.
    The order field is optional and, when given, must equal len(coeffs);
    initial is optional too (iid).
    """
    if not isinstance(obj, dict):
        raise ValueError("experiment description must be a JSON object")
    process = obj.get("process")
    if process not in ("ar", "ma"):
        raise ValueError(f"unknown process {process!r} (expected 'ar' or 'ma')")
    coeffs = obj.get("coeffs")
    if coeffs is None:
        raise ValueError("experiment description is missing 'coeffs'")
    coeffs = _as_coeffs(coeffs)
    order = obj.get("order")
    if order is not None and as_count(order, "order") != len(coeffs):
        raise ValueError(
            f"declared order {order} does not match coefficient vector of length {len(coeffs)}"
        )
    innovation = innovation_from_json(obj.get("innovation"))
    convention = convention_from_json(obj.get("convention"))
    if process == "ar":
        initial = initial_from_json(obj.get("initial"), innovation)
        return ARModel(coeffs, innovation, initial, convention)
    if "initial" in obj:
        raise ValueError("MA models take no initial law; the state is built from innovations")
    return MAModel(coeffs, innovation, convention)
