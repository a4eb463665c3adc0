"""Independent checks of the library's outputs, written without its code.

Everything here re-derives results from the map itself,

    f(z) = ell*z + c - (ell-1)*log(c) - e^z   on the cylinder C / 2*pi*i*Z,

with plain numpy or plain Python: Newton from dense seed grids and from the
asymptotic seed Log(-B), the level sums S_1 and S_2 as a double loop over
those roots, the documented orbit-classification rules one pixel at a time,
and a least-squares quadratic in c.  No function of bowendim is called.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Largest relative residual accepted for a root of a*x - e^x = B: rounding
# in evaluating f contributes a few ulp of the largest term, so 1e-12 is
# generous for a correct root and far below the O(1) residual of a wrong one.
ROOT_RTOL = 1e-12

# From Re z = 53*log(2) on, |e^z| > 2^53, so Im(e^z) carries no digit below
# 2*pi and the next iterate has no meaningful phase; orbits that get there
# are excluded from the pixel-by-pixel comparison and counted.
PHASE_LOSS_RE = 53 * math.log(2)

# documented OrbitTag values
ATTRACTED, BAKER, ESCAPE, UNRESOLVED = 0, 1, 2, 3


def affine(ell, c):
    return complex(c) - (ell - 1) * cmath.log(complex(c))


def strip(z):
    """Canonical representative with Im in (-pi, pi]."""
    z = np.asarray(z, dtype=np.complex128)
    return z - 1j * TWO_PI * np.ceil((z.imag - math.pi) / TWO_PI)


def cyl_dist(z, w):
    d = np.asarray(z, dtype=np.complex128) - np.asarray(w, dtype=np.complex128)
    return np.hypot(d.real, d.imag - TWO_PI * np.round(d.imag / TWO_PI))


def newton(a, B, x, iters=80):
    """Plain Newton on a*x - e^x - B with a capped step; NaN where it diverges."""
    x = np.array(x, dtype=np.complex128)
    B = np.broadcast_to(np.asarray(B, dtype=np.complex128), x.shape)
    with np.errstate(all="ignore"):
        for _ in range(iters):
            e = np.exp(x)
            step = (a * x - e - B) / (a - e)
            mag = np.abs(step)
            x = x - np.where(mag > 1.0, step / mag, step)
            x = np.where(np.abs(x.real) > 150.0, np.nan, x)
    return x


def _relative_residual(a, x, B):
    with np.errstate(all="ignore"):
        e = np.exp(x)
        scale = np.maximum(np.abs(a * x) + np.abs(e) + np.abs(B), 1.0)
        return np.abs(a * x - e - B) / scale


def strip_roots(a, rhs, kmax, re_box=(-12.0, 9.0), spacing=0.2):
    """All strip roots of a*x - e^x = rhs + 2*pi*i*k with |k| <= kmax.

    Seeds: Log(-B) for every k (the asymptotic root) and a dense grid over
    re_box x strip whose lift index is frozen from each seed's own image.
    Roots are moved into the strip, re-indexed, validated by relative
    residual and deduplicated.  Returns (x, k) sorted by (k, Re, Im).
    """
    ks = np.arange(-kmax, kmax + 1)
    B = rhs + 1j * TWO_PI * ks
    with np.errstate(all="ignore"):
        seeds_a = np.log(-B)
    re = np.arange(re_box[0], re_box[1] + spacing / 2, spacing)
    im = -math.pi + (np.arange(int(round(TWO_PI / spacing))) + 0.5) * spacing
    grid = (re[:, None] + 1j * im[None, :]).ravel()
    with np.errstate(all="ignore"):
        k_grid = np.round((np.imag(a * grid - np.exp(grid)) - rhs.imag)
                          / TWO_PI).astype(np.int64)
    x = np.concatenate([newton(a, B, seeds_a),
                        newton(a, rhs + 1j * TWO_PI * k_grid, grid)])
    k = np.concatenate([ks, k_grid])
    ok = np.isfinite(x)
    x, k = x[ok], k[ok]
    xc = strip(x)
    k = k - a * np.round((x.imag - xc.imag) / TWO_PI).astype(np.int64)
    ok = (np.abs(k) <= kmax) \
        & (_relative_residual(a, xc, rhs + 1j * TWO_PI * k) < ROOT_RTOL)
    xc, k = xc[ok], k[ok]
    # many seeds converge to each root: collapse the copies that round to
    # the same 1e-9 cell, then merge the rest pairwise within 1e-7
    _, first = np.unique(np.stack([k, np.round(xc.real * 1e9),
                                   np.round(xc.imag * 1e9)]), axis=1,
                         return_index=True)
    xc, k = xc[first], k[first]
    order = np.lexsort((xc.imag, xc.real, k))
    xc, k = xc[order], k[order]
    keep = np.ones(xc.size, dtype=bool)
    for i in range(1, xc.size):
        same = (k[:i] == k[i]) & keep[:i]
        if same.any() and cyl_dist(xc[:i][same], xc[i]).min() < 1e-7:
            keep[i] = False
    return xc[keep], k[keep]


def level_sums(ell, c, t, z, K):
    """(S_1, S_2) of L_t^j 1 (z) over all branches |k| <= K, as a double loop."""
    A = affine(ell, c)
    x1, _ = strip_roots(ell, complex(z) - A, K)
    w1 = np.abs(ell - np.exp(x1)) ** (-t)
    s2 = 0.0
    for x, w in zip(x1, w1):
        x2, _ = strip_roots(ell, complex(x) - A, K)
        s2 += w * float((np.abs(ell - np.exp(x2)) ** (-t)).sum())
    return float(w1.sum()), s2


def root_problems(ell, c, w, ks, xs, K, small_k=10):
    """Problems with one enumeration F^-1(w), |k| <= K, as returned by the library.

    Every root must map onto w in the cylinder metric (relative tolerance),
    carry the lift index its own image gives it and lie in the strip; for
    |k| <= small_k the number of roots per index must equal the dense-grid
    Newton count.
    """
    A = affine(ell, c)
    out = []
    with np.errstate(all="ignore"):
        img = ell * xs + A - np.exp(xs)
        scale = np.maximum(np.abs(ell * xs) + abs(A) + np.abs(np.exp(xs)), 1.0)
    bad = cyl_dist(img, w) > ROOT_RTOL * scale
    if bad.any():
        out.append(f"{int(bad.sum())} roots do not map onto w={w:.6g}")
    lift = np.round((img.imag - complex(w).imag) / TWO_PI).astype(np.int64)
    if np.any(lift != ks):
        out.append(f"{int((lift != ks).sum())} roots carry a wrong lift index")
    if np.any(np.abs(xs.imag) > math.pi) or np.any(np.abs(ks) > K):
        out.append("roots outside the strip or beyond |k| <= K")
    _, k_or = strip_roots(ell, complex(w) - A, small_k)
    mine = np.bincount(ks[np.abs(ks) <= small_k] + small_k, minlength=2 * small_k + 1)
    theirs = np.bincount(k_or + small_k, minlength=2 * small_k + 1)
    if not np.array_equal(mine, theirs):
        diff = np.flatnonzero(mine != theirs) - small_k
        out.append(f"root counts differ from the dense-grid oracle at k={diff.tolist()}")
    return out


def asymptotic_roots_exist(ell, c, w, missed_k):
    """True if Newton from Log(-B) finds a valid strip root for every missed k."""
    if len(missed_k) == 0:
        return True
    k = np.asarray(missed_k, dtype=np.int64)
    B = complex(w) - affine(ell, c) + 1j * TWO_PI * k
    with np.errstate(all="ignore"):
        x = newton(ell, B, np.log(-B))
    ok = np.isfinite(x) & (np.abs(x.imag) <= math.pi) \
        & (_relative_residual(ell, x, B) < ROOT_RTOL)
    return bool(ok.all())


def classify_pixel(ell, c, z, max_iter=200, radius_eps=0.05):
    """Documented tag rules, one orbit, plain Python complex arithmetic.

    Returns the tag, or None when the orbit reaches Re >= PHASE_LOSS_RE.
    """
    A = affine(ell, c)
    target = complex(strip(cmath.log(complex(c))))
    baker = -2.0 * ell
    thresh = max(50.0, 10.0 * ell)
    streak, prev_re = 0, -math.inf
    for it in range(max_iter + 1):
        re = z.real
        if math.isnan(re) or math.isnan(z.imag):
            return UNRESOLVED
        if re < baker:
            return BAKER
        if float(cyl_dist(z, target)) < radius_eps:
            return ATTRACTED
        if re > thresh and re > prev_re:
            streak += 1
            if streak >= 5:
                return ESCAPE
        else:
            streak = 0
        prev_re = re
        if it < max_iter:
            if re >= PHASE_LOSS_RE:
                return None
            v = ell * z + A - cmath.exp(z)
            z = complex(v.real, v.imag - TWO_PI * math.ceil((v.imag - math.pi) / TWO_PI))
    return UNRESOLVED


def window_pixels(re_min, re_max, nx, ny):
    """Cell-centre coordinates of a classification window (rows from Im=+pi)."""
    res = np.linspace(re_min, re_max, nx, endpoint=False) + (re_max - re_min) / (2 * nx)
    ims = math.pi - (np.arange(ny) + 0.5) * TWO_PI / ny
    return res, ims


def quadratic_fit_residual(cs, values):
    """RMS residual of the least-squares quadratic in (Re c, Im c)."""
    cs = np.asarray(cs, dtype=np.complex128)
    x, y = cs.real - cs.real.mean(), cs.imag - cs.imag.mean()
    design = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
    return float(np.sqrt(np.mean((values - design @ coef) ** 2)))
