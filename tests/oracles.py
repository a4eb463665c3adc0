"""Brute-force oracles, independent of the library's two-regime solver.

Everything here is plain numpy: dense rectangular Newton grids with the lift
index frozen from each seed's image.  Used to audit the branch enumeration
for completeness and to recompute transfer sums by direct double loops.
The plain forms of routines the library has sped up are kept here too, as
references that the fast versions must match bit for bit.
"""

import math

import numpy as np

TWO_PI = 2.0 * np.pi


def canon(z):
    z = np.asarray(z, dtype=complex)
    return z - 2j * np.pi * np.ceil((z.imag - np.pi) / TWO_PI)


def dense_root_oracle(a, rhs, box, spacing=0.1, tol=1e-11, iters=150):
    """All strip roots of a*x - e^x = rhs + 2*pi*i*k with x in the box.

    Seeds form a dense rectangular grid; each seed freezes its lift index
    from its own image and runs plain Newton.  Roots are canonicalised,
    re-indexed, fold-snapped (double roots collapse onto x = log a) and
    deduplicated by direct pairwise comparison.

    Returns (roots, k) sorted by (|k|, Re, Im).
    """
    relo, rehi = box
    sr = np.arange(relo, rehi + spacing / 2, spacing)
    si = np.arange(-np.pi + spacing / 2, np.pi, spacing)
    seeds = (sr[:, None] + 1j * si[None, :]).ravel()
    img = a * seeds - np.exp(seeds)
    kk = np.round((img.imag - np.imag(rhs)) / TWO_PI).astype(np.int64)
    B = rhs + 2j * np.pi * kk
    x = seeds.astype(complex)
    with np.errstate(all="ignore"):
        for _ in range(iters):
            e = np.exp(x)
            gp = a - e
            gp = np.where(np.abs(gp) < 1e-290, 1e-290, gp)
            step = (a * x - e - B) / gp
            mag = np.abs(step)
            step = np.where(mag > 1.5, step * (1.5 / np.where(mag == 0, 1, mag)), step)
            x = x - step
            x = np.where(np.abs(x.real) > 150, np.nan, x)
    good = np.isfinite(x)
    x, kk = x[good], kk[good]
    xc = canon(x)
    m = np.round((x.imag - xc.imag) / TWO_PI).astype(np.int64)
    kk = kk - a * m
    ex = np.exp(xc)
    # fold snap, matching the documented near-double-root convention
    fold = np.abs(a - ex) < 3e-5
    if fold.any():
        crit = np.log(a)
        critres = np.abs(a * crit - a - (rhs + 2j * np.pi * kk[fold]))
        idx = np.flatnonzero(fold)[critres < tol]
        xc[idx] = crit
        ex[idx] = np.exp(crit)
    resid = np.abs(a * xc - ex - (rhs + 2j * np.pi * kk))
    ok = resid < tol
    xc, kk = xc[ok], kk[ok]
    # O(m^2) dedup in the cylinder metric: each candidate is compared with
    # every root kept before it, and the first of a cluster is kept
    keep_x = np.empty(xc.size, dtype=complex)
    keep_k = np.empty(xc.size, dtype=np.int64)
    n_kept = 0
    for z, k in zip(xc, kk):
        d = z - keep_x[:n_kept]
        im = d.imag - TWO_PI * np.round(d.imag / TWO_PI)
        if not np.any(np.hypot(d.real, im) < 1e-7):
            keep_x[n_kept], keep_k[n_kept] = z, k
            n_kept += 1
    keep_x, keep_k = keep_x[:n_kept], keep_k[:n_kept]
    order = np.lexsort((keep_x.imag, keep_x.real, np.abs(keep_k)))
    return keep_x[order], keep_k[order]


def lift_root_oracle(a, rhs, ks, spacing=0.1, tol=1e-11):
    """Every strip root of a*x - e^x = rhs + 2*pi*i*k, for each k in ks.

    The box holds every strip root of these lifts: where Re x < 0,
    |a*x - B| = e^Re(x) < 1 puts x within 1/a of B/a; where Re x > 0,
    e^Re(x) <= a*(Re(x) + pi) + |B|.  Returns (counts, x, k): per k in ks
    its roots counted with multiplicity (a root the fold snap put on
    x = log a is double), and the roots with their lift indices.
    """
    ks = np.asarray(ks, dtype=np.int64)
    B = rhs + 2j * np.pi * ks
    lo = min(0.0, float(B.real.min()) / a) - 2.0
    hi = math.log(float(np.abs(B).max()) + 20.0 * a) + 2.0
    x, k = dense_root_oracle(a, rhs, (lo, hi), spacing, tol)
    mult = np.where(x == math.log(a), 2, 1)
    counts = np.array([int(mult[k == kk].sum()) for kk in ks])
    return counts, x, k


def preimage_oracle(ell, c, w, box, spacing=0.1, k_cap=None, tol=1e-11):
    """Dense-grid preimages of w; optionally restricted to |k| <= k_cap."""
    A = c - (ell - 1) * np.log(complex(c))
    rhs = complex(canon(w)) - A
    x, k = dense_root_oracle(ell, rhs, box, spacing, tol)
    sel = (x.real >= box[0]) & (x.real <= box[1])
    if k_cap is not None:
        sel &= np.abs(k) <= k_cap
    return x[sel], k[sel]


def fixed_point_oracle(ell, c, box, spacing=0.1, k_cap=3, tol=1e-11):
    """Dense-grid period-1 points with lift index |k| <= k_cap."""
    A = c - (ell - 1) * np.log(complex(c))
    x, k = dense_root_oracle(ell - 1, -A, box, spacing, tol)
    sel = (np.abs(k) <= k_cap) & (x.real >= box[0]) & (x.real <= box[1])
    return x[sel], k[sel]


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


def dedupe_reference(i_idx, ks, xs, exs, radius):
    """Two-pass dedupe over every candidate: first entry per quantisation
    cell in (target, cell, k) order, then a scan for cell-boundary
    stragglers in (target, real, imag) order."""
    if xs.size == 0:
        return i_idx, ks, xs, exs
    radius = max(radius, 1e-14)
    re_q = np.round(xs.real / radius).astype(np.int64)
    im_q = np.round(xs.imag / radius).astype(np.int64)
    order = np.lexsort((ks, im_q, re_q, i_idx))
    i_s, k_s, x_s, e_s = i_idx[order], ks[order], xs[order], exs[order]
    rq, iq = re_q[order], im_q[order]
    keep = np.ones(x_s.size, dtype=bool)
    keep[1:] = ~((i_s[1:] == i_s[:-1]) & (rq[1:] == rq[:-1]) & (iq[1:] == iq[:-1]))
    i_s, k_s, x_s, e_s = i_s[keep], k_s[keep], x_s[keep], e_s[keep]
    order = np.lexsort((x_s.imag, x_s.real, i_s))
    i_s, k_s, x_s, e_s = i_s[order], k_s[order], x_s[order], e_s[order]
    keep = np.ones(x_s.size, dtype=bool)
    for off in (1, 2):
        if x_s.size > off:
            d = x_s[off:] - x_s[:-off]
            im = d.imag - TWO_PI * np.round(d.imag / TWO_PI)
            close = (i_s[off:] == i_s[:-off]) & (np.hypot(d.real, im) < radius)
            keep[off:] &= ~close
    return i_s[keep], k_s[keep], x_s[keep], e_s[keep]


def dedupe_sorted_reference(i_idx, ks, xs, exs, radius, alone=None):
    """preimages._dedupe_sorted with its exact pass ordered by two stable
    argsorts (complex, then target) and every neighbour pair compared."""
    if xs.size == 0:
        return i_idx, ks, xs, exs
    radius = max(radius, 1e-14)
    sub = np.arange(xs.size) if alone is None else np.flatnonzero(~alone)
    re_q = np.round(xs.real[sub] / radius).astype(np.int64)
    im_q = np.round(xs.imag[sub] / radius).astype(np.int64)
    order = np.lexsort((ks[sub], im_q, re_q, i_idx[sub]))
    i_s, rq, iq = i_idx[sub][order], re_q[order], im_q[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = ~((i_s[1:] == i_s[:-1]) & (rq[1:] == rq[:-1]) & (iq[1:] == iq[:-1]))
    kept = sub[order[first]]
    if alone is not None:
        kept = np.concatenate([np.flatnonzero(alone), kept])
    i_s, k_s, x_s, e_s = i_idx[kept], ks[kept], xs[kept], exs[kept]
    order = np.argsort(x_s, kind="stable")  # complex: real, then imaginary
    order = order[np.argsort(i_s[order], kind="stable")]
    i_s, k_s, x_s, e_s = i_s[order], k_s[order], x_s[order], e_s[order]
    keep = np.ones(x_s.size, dtype=bool)
    for off in (1, 2):
        if x_s.size > off:
            d = x_s[off:] - x_s[:-off]
            im = d.imag - TWO_PI * np.round(d.imag / TWO_PI)
            close = (i_s[off:] == i_s[:-off]) & (np.hypot(d.real, im) < radius)
            keep[off:] &= ~close
    return i_s[keep], k_s[keep], x_s[keep], e_s[keep]


def preimage_arrays_reference(params, targets, kmax, tol=1e-11):
    """preimage_arrays(...) finished the reference way.

    The library's validated candidates (before deduplication) go through
    dedupe_reference, and a fast pair counts as missed unless some survivor
    carries its packed (target, k) key (np.isin).
    """
    from bowendim import defaults
    from bowendim.preimages import _strip_candidates, _uniform_pairs, k_secondary

    targets = np.atleast_1d(np.asarray(targets, dtype=np.complex128))
    pair_i, pair_k, kmax_arr = _uniform_pairs(targets.size, kmax)
    rhs = targets - params.affine_term
    a = params.ell
    k_sec = k_secondary(a, rhs.imag)  # each target's own cutoff
    cand = _strip_candidates(a, rhs, pair_i, pair_k, kmax_arr, k_sec, tol=tol)
    is_, ks, xc, ex = dedupe_reference(*cand, defaults.DEDUP_FACTOR * tol)
    fast = np.abs(pair_k) > k_sec[pair_i]
    want = pair_i[fast] * np.int64(1 << 22) + pair_k[fast]
    have = is_ * np.int64(1 << 22) + ks
    missed = ~np.isin(want, have)
    return (is_, ks, xc, a - ex, pair_i[fast][missed], pair_k[fast][missed]), cand


ESCAPE_PLUS_INFINITY = 2


def classify_orbit_reference(params, z, max_iter, radius_eps=0.05):
    """(tag, iterations_used) of one orbit, by a plain scalar loop.

    Attracted once the orbit enters the radius_eps neighbourhood of log(c);
    Baker escape once Re < -2*ell; escape to +infinity (the raw tag
    ESCAPE_PLUS_INFINITY) once Re exceeds max(50, 10*ell) and keeps growing
    for 5 iterates; unresolved on a NaN coordinate or when max_iter runs
    out.  The fourth rule has no
    counterpart in the library (see cylinder._classify); it stays here so
    that tests can check that it never fires.
    """
    import math

    from bowendim import OrbitTag, canonical, cylinder_distance, evaluate

    target = canonical(params.log_c)
    thresh = max(50.0, 10.0 * params.ell)
    baker = -2.0 * params.ell
    w = canonical(complex(z))
    streak = 0
    prev_re = -math.inf
    for it in range(max_iter + 1):
        re = w.real
        if math.isnan(re) or math.isnan(w.imag):
            return OrbitTag.UNRESOLVED, it
        if re < baker:
            return OrbitTag.BAKER_ESCAPE, it
        if math.isfinite(re) and math.isfinite(w.imag) \
                and cylinder_distance(w, target) < radius_eps:
            return OrbitTag.ATTRACTED_TO_LOG_C, it
        if re > thresh and re > prev_re:
            streak += 1
            if streak >= 5:
                return ESCAPE_PLUS_INFINITY, it
        else:
            streak = 0
        prev_re = re
        if it < max_iter:
            w = evaluate(params, w)
    return OrbitTag.UNRESOLVED, max_iter


def pair_count_reference(w, t, K, k_lo, p):
    """Pairs a level of weights w expands at threshold p: every node of
    kmax = (C/2pi)(w/p)^(1/t) >= k_lo counts 2 min(kmax, K) + 1."""
    from bowendim import defaults

    km = defaults.C_GEO / TWO_PI * (w / p) ** (1.0 / t)
    keep = km >= k_lo
    if not keep.any():
        return 0
    km = np.minimum(km[keep], K)
    return float((2 * km + 1).sum())


def choose_threshold_reference(w, t, K, k_lo, p_floor, cap, steps=None):
    """transfer._choose_threshold the plain way: 60 geometric bisection steps,
    each recounting the pairs of the whole level with a fresh pow.

    Returns (p, keep, kmax) with kmax over the whole level; the library
    returns the same p and keep bit for bit, and kmax[keep].  A list passed
    as `steps` receives each bisection step's (mid, pairs).
    """
    from bowendim import defaults

    c = defaults.C_GEO / TWO_PI
    if pair_count_reference(w, t, K, k_lo, p_floor) <= cap:
        p = p_floor
    else:
        lo, hi = p_floor, float(w.max()) * (k_lo / c) ** (-t) * 2.0
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            pairs = pair_count_reference(w, t, K, k_lo, mid)
            if steps is not None:
                steps.append((mid, pairs))
            if pairs > cap:
                lo = mid
            else:
                hi = mid
        p = hi
    km_raw = c * (w / p) ** (1.0 / t)
    keep = km_raw >= k_lo
    kmax = np.minimum(np.maximum(km_raw, k_lo), K).astype(np.int64)
    return p, keep, kmax


def newton_batch_reference(a, B, x0, iters):
    """preimages._newton_batch before its in-place rewrite, verbatim: the
    kernel must match it bit for bit.

    Vectorised Newton on g(x) = a*x - e^x - B.

    Runs until every entry either converged (last step below _STEP_TOL) or
    the iteration cap is hit.  Divergent entries become NaN.  Plain Newton
    also handles double roots (linear convergence, rate 1/2), which is why
    _FAST_ITERS and _ROBUST_ITERS are generous.
    """
    from bowendim.preimages import _RE_HI, _RE_LO, _STEP_TOL

    x = np.array(x0, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    active = np.isfinite(x)
    x[~active] = np.nan
    idx = np.flatnonzero(active)
    xa = x[idx]
    Ba = B[idx] if B.shape == x.shape else np.broadcast_to(B, x.shape)[idx]
    for _ in range(iters):
        if idx.size == 0:
            break
        e = np.exp(xa)
        g = a * xa - e - Ba
        gp = a - e
        bad = np.abs(gp) < 1e-290
        if bad.any():
            gp = np.where(bad, 1e-290, gp)
        step = g / gp
        mag = np.abs(step)
        big = mag > 1.5
        if big.any():
            step = np.where(big, step * (1.5 / np.where(mag == 0, 1, mag)), step)
        xa = xa - step
        out = (xa.real < _RE_LO) | (xa.real > _RE_HI) | ~np.isfinite(xa)
        done = (mag < _STEP_TOL) & ~out
        if out.any():
            xa[out] = np.nan
        finished = done | out
        if finished.any():
            x[idx[finished]] = xa[finished]
            keep = ~finished
            idx, xa, Ba = idx[keep], xa[keep], Ba[keep]
    if idx.size:
        # iteration cap: keep the last iterate; residual validation decides.
        # Near a double root Newton random-walks at the sqrt(eps) scale and
        # the step criterion is unreachable, yet |g| certifies the root.
        x[idx] = xa
    return x
