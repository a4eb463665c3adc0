"""The map family on the infinite cylinder.

The maps f(z) = ell*z + c - (ell-1)*log(c) - e^z commute with translation by
2*pi*i (ell is an integer), so they descend to self-maps of the cylinder
C/2*pi*i*Z.  Everything here works with the canonical strip representative
Im(z) in (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import defaults

TWO_PI = 2.0 * math.pi


def canonical(z):
    """Canonical strip representative (Im in (-pi, pi]) of a complex, a
    CylinderPoint, or an array or sequence of them: the one strip rule.
    Only Im moves, and a value in the strip or not finite keeps its bits."""
    out = np.array(z, dtype=np.complex128)
    im = np.atleast_1d(out.imag)  # a view: writes land in out, in any order
    shift = np.ceil((im - math.pi) / TWO_PI)
    shift[~np.isfinite(shift)] = 0.0
    # + 0.0 turns a shift of -0.0 into 0.0, so an Im of -0.0 keeps its sign
    r = im - TWO_PI * (shift + 0.0)
    r[r > math.pi] -= TWO_PI  # the shift rounds: an ulp past an edge
    r[r <= -math.pi] += TWO_PI
    im[...] = r
    if out.ndim == 0:
        return complex(out)
    return out


def cylinder_distance(z, w):
    """min over integers k of |z - w + 2*pi*i*k|; the metric of the cylinder."""
    d = np.asarray(z, dtype=np.complex128) - np.asarray(w, dtype=np.complex128)
    im = d.imag - TWO_PI * np.round(d.imag / TWO_PI)
    out = np.hypot(d.real, im)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class CylinderPoint:
    """A point of the cylinder in canonical coordinates, Im in (-pi, pi]."""

    re: float
    im: float

    def __post_init__(self):
        for name in ("re", "im"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"CylinderPoint {name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "im", canonical(complex(0.0, self.im)).imag)

    @classmethod
    def from_complex(cls, z):
        z = complex(z)
        return cls(z.real, z.imag)

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    def __complex__(self) -> complex:
        return self.z


@dataclass(frozen=True)
class MapParams:
    """The pair (ell, c) selecting one member of the family.

    Requires ell >= 2 and c in the open unit disk around ell, which keeps
    Re(c) > 0 so the principal logarithm of c is safe everywhere below.
    """

    ell: int
    c: complex

    def __post_init__(self):
        ell = self.ell
        if int(ell) != ell or ell < 2:
            raise ValueError(f"ell must be an integer >= 2, got {ell!r}")
        object.__setattr__(self, "ell", int(ell))
        c = complex(self.c)
        object.__setattr__(self, "c", c)
        if not abs(c - self.ell) < 1.0:  # NaN compares False
            raise ValueError(f"c={c} must lie in the open disk D({self.ell}, 1)")

    @property
    def log_c(self) -> complex:
        return cmath.log(self.c)

    @property
    def multiplier(self) -> complex:
        return self.ell - self.c

    @property
    def critical_point(self) -> float:
        return math.log(self.ell)

    @property
    def affine_term(self) -> complex:
        """A in f(z) = ell*z + A - e^z."""
        return self.c - (self.ell - 1) * self.log_c

    def conjugate(self) -> "MapParams":
        return MapParams(self.ell, self.c.conjugate())


def evaluate(params: MapParams, z):
    """One step of the cylinder map, returned in canonical coordinates."""
    v = np.asarray(z, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        out = canonical(params.ell * v + params.affine_term - np.exp(v))
    return out


def derivative(params: MapParams, z):
    """Phase derivative ell - e^z; well defined on the cylinder."""
    return params.ell - np.exp(np.asarray(z, dtype=np.complex128))


def param_derivative(params: MapParams):
    """Derivative of the map in the parameter c: 1 - (ell-1)/c, the same at
    every point."""
    return 1.0 - (params.ell - 1) / params.c


def _orbit_derivatives(params, z, period):
    """(D1F^n, D2F^n, F^n(z)) at z for n = period steps: the derivatives in
    c and in z of the n-th iterate, accumulated along the orbit."""
    q = param_derivative(params)
    d1 = 0.0 + 0.0j
    d2 = 1.0 + 0.0j
    w = z
    for _ in range(period):
        fp = complex(derivative(params, w))
        d1 = q + fp * d1
        d2 *= fp
        w = evaluate(params, w)
    return d1, d2, w


def orbit_derivative(params: MapParams, z, n: int) -> complex:
    """Chain-rule product of derivatives along the first n orbit points."""
    return _orbit_derivatives(params, z, n)[1]


class OrbitTag(IntEnum):
    """Outcome of one orbit: attracted to log(c), escaped into the Baker
    domain, or left unresolved.

    The values are the raw tag bytes of classify_window and of the PGM
    lookup, and independent checkers compare those integers.  2 is left
    unused (it once tagged escape to +infinity, which a float64 orbit
    cannot reach; see _classify), so UNRESOLVED keeps the value 3.
    """

    ATTRACTED_TO_LOG_C = 0
    BAKER_ESCAPE = 1
    UNRESOLVED = 3


@dataclass(frozen=True)
class OrbitClass:
    tag: OrbitTag
    iterations_used: int


def _classify(params: MapParams, z, max_iter, radius_eps):
    """Fatou-trichotomy tags of the orbits of the points z (a flat complex128
    array, left unchanged), and the number of map steps each orbit took
    before its tag was decided (max_iter for an orbit left unresolved).

    Only the undecided orbits are iterated: after each iterate the decided
    ones leave the working arrays.  The rules are checked in this order at
    every iterate: a NaN coordinate leaves the orbit unresolved; Re < -2*ell
    (that half plane lies in the invariant Baker domain) is a Baker escape;
    entering the radius_eps neighbourhood of log(c) is attraction.  Both
    entry points, classify_orbit and classify_window, reach their checks of
    max_iter >= 1 and radius_eps > 0 here.

    There is no rule for escape to +infinity, because in float64 no orbit
    can show one.  Such a rule needs a streak of five consecutive growing
    iterates with Re > max(50, 10*ell).  For ell <= 70 and a finite
    r = Re z in (max(50, 10*ell), 709.78], |e^z cos(theta)| >= e^50 *
    6.1e-17 ~ 3.2e5, because |cos(theta)| of a double theta in (-pi, pi] is
    never below 6.1e-17.  The next real part is then either below 0, which
    ends the streak, or above 709.78, so the iterate after it overflows.  A
    streak reaches at most 3 (r, then r' > 709.78, then +inf); after that
    the value is NaN, or +inf again, which is not greater than +inf.  For
    ell >= 71 the threshold is above 709.78, so the first counted iterate
    already overflows and the streak ends after 2.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not radius_eps > 0:
        raise ValueError("radius_eps must be positive")
    tags = np.full(z.shape, int(OrbitTag.UNRESOLVED), dtype=np.int8)
    used = np.full(z.shape, max_iter, dtype=np.int64)
    idx = np.arange(z.size)

    target = canonical(params.log_c)
    baker = -2.0 * params.ell

    with np.errstate(all="ignore"):
        for it in range(max_iter + 1):
            nan_mask = np.isnan(z)  # stays UNRESOLVED
            baker_mask = ~nan_mask & (z.real < baker)
            att_mask = ~baker_mask & (cylinder_distance(z, target) < radius_eps)
            tags[idx[baker_mask]] = int(OrbitTag.BAKER_ESCAPE)
            tags[idx[att_mask]] = int(OrbitTag.ATTRACTED_TO_LOG_C)
            live = ~(nan_mask | baker_mask | att_mask)
            if not live.all():
                used[idx[~live]] = it
                idx, z = idx[live], z[live]
            if it == max_iter or not idx.size:
                break
            z = evaluate(params, z)
    return tags, used


def classify_orbit(params: MapParams, z, max_iter: int = defaults.MAX_ITER,
                   radius_eps: float = defaults.RADIUS_EPS) -> OrbitClass:
    """Tag of a single orbit (attracted to log(c), Baker escape or
    unresolved), with the number of map steps taken before it was decided
    (the rules, and why there is no escape to +infinity, are documented at
    _classify)."""
    tags, used = _classify(params, np.array([canonical(z)]), max_iter,
                           radius_eps)
    return OrbitClass(OrbitTag(int(tags[0])), int(used[0]))


# classify_window iterates at most this many pixels at a time, which bounds
# the orbit temporaries (about 90 bytes a pixel); each orbit is iterated on
# its own, so the chunks change no tag
_WINDOW_CHUNK = 32_768


def classify_window(params: MapParams, re_min: float, re_max: float,
                    nx: int, ny: int, max_iter: int = defaults.MAX_ITER,
                    radius_eps: float = defaults.RADIUS_EPS):
    """Orbit tags over a window (re_min, re_max) x full strip.

    Returns an int8 array of OrbitTag values, shape (ny, nx); rows run from
    Im = +pi down to -pi (image orientation).  Cell centres are sampled and
    classified by the rules of classify_orbit, in chunks of pixels that
    bound the temporaries whatever the resolution.
    """
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be positive")
    if not (math.isfinite(re_min) and math.isfinite(re_max) and re_min < re_max):
        raise ValueError(f"window {re_min:g}:{re_max:g} must be finite, with "
                         f"its start below its end")
    res = np.linspace(re_min, re_max, nx, endpoint=False) + (re_max - re_min) / (2 * nx)
    ims = math.pi - (np.arange(ny) + 0.5) * TWO_PI / ny
    z = (res[None, :] + 1j * ims[:, None]).ravel()
    tags = np.empty(z.size, dtype=np.int8)
    for lo in range(0, z.size, _WINDOW_CHUNK):
        hi = lo + _WINDOW_CHUNK
        tags[lo:hi] = _classify(params, z[lo:hi], max_iter, radius_eps)[0]
    return tags.reshape(ny, nx)


@dataclass(frozen=True)
class PeriodicPoint:
    """A validated periodic point with its recomputable multiplier."""

    point: CylinderPoint
    period: int
    multiplier: complex
    branch_word: tuple = ()
