"""Branch-indexed enumeration of preimages on the cylinder.

A preimage of w under the cylinder map solves

    ell*x - e^x = w + 2*pi*i*k - A,     A = c - (ell-1)*log(c),

with x in the canonical strip, one equation per lift index k.  Period-1
points solve the same kind of equation with ell replaced by ell-1.  The
solver below handles both through the linear coefficient ``a``:

* log regime (every k):  fixed-point iteration x <- Log(a*x - B) seeded at
  Log(-B), polished by Newton.  Beyond the band edge k_secondary this is
  provably the only strip solution (see the strip regime).
* strip regime (|k| up to k_secondary): lift k, B = rhs + 2*pi*i*k, holds
  exactly two strip roots counted with multiplicity when |Im B| < a*pi (a
  band lift) and exactly one when |Im B| > a*pi; no band lift lies beyond
  k_secondary.  Band lifts add the two seeds at the fold of a*x - e^x
  (x = log a).  A lift whose own seeds find fewer distinct roots than its
  count, or that lies on the band edge, runs the full robust block (fold,
  linear root B/a and six static seeds).  This one rule serves every caller.

Roots are canonicalised into the strip, re-assigned to their true lift index
(a canonical shift by 2*pi*i*m moves index k to k - a*m), validated against
the residual tolerance, and deduplicated in the cylinder metric.

Every step is per target, so a large call is solved in contiguous blocks of
targets on one process-wide thread pool (``defaults.default_threads()``
workers; numpy releases the GIL in its kernels) and the blocks are joined in
target order.  The band edge k_secondary is each target's own, from its own
Im rhs, so a target's roots do not depend on the other targets of its
call.  Only the main thread fans out: other threads (sweep cells) solve the
same bounded blocks in turn.  The output bits depend neither on the blocks
nor on the thread count.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import defaults
from .cylinder import (TWO_PI, CylinderPoint, MapParams, PeriodicPoint,
                       canonical, cylinder_distance)
from .errors import BranchMiss, InvalidTol, TNotSummable

import logging

log = logging.getLogger(__name__)


# ----------------------------------------------------------------- kernels

_RE_LO, _RE_HI = -200.0, 60.0  # no relevant roots outside this band
_STEP_TOL = 1e-12  # Newton stops once its last step is below this
_FAST_ITERS = 12   # Newton steps from the asymptotic-branch seed
_ROBUST_ITERS = 40  # Newton steps from the strip-regime seeds
_LOG_ROUNDS = 4    # fixed-point rounds of the asymptotic-branch seed


def _newton_batch(a, B, x0, iters):
    """Vectorised Newton on g(x) = a*x - e^x - B.

    Runs until every entry either converged (last step below _STEP_TOL) or
    the iteration cap is hit.  Divergent entries become NaN.  Plain Newton
    also handles double roots (linear convergence, rate 1/2), which is why
    _FAST_ITERS and _ROBUST_ITERS are generous.
    """
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
        g = a * xa
        g -= e
        g -= Ba
        gp = np.subtract(a, e, out=e)
        # |gp| < 1e-290 only where |Re gp| < 1e-290 as well
        tiny = np.flatnonzero(np.abs(gp.real) < 1e-290)
        if tiny.size:
            gp[tiny[np.abs(gp[tiny]) < 1e-290]] = 1e-290
        step = np.divide(g, gp, out=g)
        mag = np.abs(step)
        big = mag > 1.5
        if big.any():
            step[big] *= 1.5 / mag[big]
        xa -= step
        out = ~((xa.real >= _RE_LO) & (xa.real <= _RE_HI) & np.isfinite(xa.imag))
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


def _log_seed(a, B):
    """Seed for the asymptotic branch: iterate x <- Log(a*x - B) from Log(-B)."""
    with np.errstate(all="ignore"):
        x = np.log(-np.asarray(B, dtype=np.complex128))
        for _ in range(_LOG_ROUNDS):
            x = np.log(a * x - B)
    return x


def _fold_seeds(a, B):
    """The two fold seeds (fold_p, fold_m) of a*x - e^x = B: the roots of the
    quadratic model of a*x - e^x at its critical point x = log(a).

    Returns an array of shape (2, B.size).
    """
    B = np.asarray(B, dtype=np.complex128)
    vc = a - a * math.log(a)  # critical value of a*x - e^x at x = log(a)
    with np.errstate(all="ignore"):
        sq = np.sqrt(2.0 * a * (-B - vc))
        return np.stack([np.log(a + sq), np.log(a - sq)])


def _robust_seed_block(a, B):
    """Seeds covering fold and linear roots of a*x - e^x = B: the two fold
    seeds, the linear root B/a and six static seeds around x = log(a).  Run
    on a lift whose first seeds fall short of its root count.

    Returns an array of shape (n_seeds, B.size).
    """
    B = np.asarray(B, dtype=np.complex128)
    crit = math.log(a)
    static = np.array([crit + 0.7, crit - 0.7, crit + 0.7j, crit - 0.7j,
                       crit + 1.4j, crit - 1.4j], dtype=np.complex128)
    seeds = [*_fold_seeds(a, B), B / a]
    seeds += [np.full(B.shape, s) for s in static]
    return np.stack(seeds)


def k_secondary(a, im_rhs):
    """The band edge per target, from its Im rhs (an array of them): every
    band or edge lift k (see _root_count) has |k| <= k_secondary, so each
    lift beyond it holds exactly one strip root."""
    return np.ceil((a * math.pi + np.abs(im_rhs)) / TWO_PI).astype(np.int64)


def _root_count(a, B):
    """Strip roots of a*x - e^x = B per lift, counted with multiplicity, and
    whether the lift lies within a relative 1e-9 of the band edge.

    The strip's edges Im x = +-pi map monotonically onto Im = +-a*pi, and the
    argument principle on the strip gives two roots inside the band
    |Im B| < a*pi and one outside it.  On the edge a root lies on Im x = +-pi.
    """
    dist = np.abs(np.asarray(B).imag) - a * math.pi
    return np.where(dist < 0, 2, 1), np.abs(dist) <= 1e-9 * a * math.pi


def _dedupe_sorted(i_idx, ks, xs, exs, radius, alone=None):
    """Deduplicate per-target roots within a cylinder-metric radius.

    Entries flagged in ``alone`` are known to share their quantisation cell
    with no other entry and skip the first pass.  Survivors come back sorted
    by (target, real part, imaginary part), ties in input order.
    """
    if xs.size == 0:
        return i_idx, ks, xs, exs
    radius = max(radius, 1e-14)  # below fp resolution dedup is meaningless
    # quantised pass on exact integer cell coordinates; the first entry of a
    # cell in input order represents it
    sub = np.arange(xs.size) if alone is None else np.flatnonzero(~alone)
    re_q = np.round(xs.real[sub] / radius).astype(np.int64)
    im_q = np.round(xs.imag[sub] / radius).astype(np.int64)
    order = np.lexsort((ks[sub], im_q, re_q, i_idx[sub]))
    i_s, rq, iq = i_idx[sub][order], re_q[order], im_q[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = ~((i_s[1:] == i_s[:-1]) & (rq[1:] == rq[:-1]) & (iq[1:] == iq[:-1]))
    lone = np.flatnonzero(alone) if alone is not None else sub[:0]
    kept = np.concatenate([lone, sub[order[first]]])
    i_s, k_s, x_s, e_s = i_idx[kept], ks[kept], xs[kept], exs[kept]
    # exact pass for cell-boundary stragglers in (target, real, imag) order,
    # ties in input order: the real part sorted unstably, then the target
    # stably, by radix where it spans fewer than 2^16 values, then each run
    # of equal (target, real), -0.0 == 0.0 included, by (imag, position)
    order = np.argsort(x_s.real)
    key = i_s[order] - i_s.min()
    if key.max() < 1 << 16:
        key = key.astype(np.uint16)
    order = order[np.argsort(key, kind="stable")]
    i_o, re_o = i_s[order], x_s.real[order]
    tie = (i_o[1:] == i_o[:-1]) & (re_o[1:] == re_o[:-1])
    if tie.any():
        pos = np.flatnonzero(np.append(tie, False) | np.insert(tie, 0, False))
        run = np.cumsum(np.insert(~tie, 0, True))[pos]
        ties = order[pos]
        order[pos] = ties[np.lexsort((ties, x_s.imag[ties], run))]
    i_s, k_s, x_s, e_s = i_s[order], k_s[order], x_s[order], e_s[order]
    # Two entries of one target within the radius in the plane share their
    # k (_one_k_per_cell, the condition under which alone is set), so their
    # slot, and neither is alone; an alone entry can only be close to
    # another across the seam Im = +-pi, where both lie within the radius of
    # it.  Only pairs of entries that may be close are compared.
    check = (order >= lone.size) | (np.abs(x_s.imag) > math.pi - 2.0 * radius)
    keep = np.ones(x_s.size, dtype=bool)
    for off in (1, 2):
        if x_s.size > off:
            j = np.flatnonzero(check[off:] & check[:-off])
            close = (i_s[j + off] == i_s[j]) \
                & (cylinder_distance(x_s[j + off], x_s[j]) < radius)
            keep[j[close] + off] = False
    return i_s[keep], k_s[keep], x_s[keep], e_s[keep]


def _one_k_per_cell(a, max_abs_ex, radius, tol):
    """True when two validated roots of one target in one dedupe cell share k.

    Roots at most d = sqrt(2)*radius apart with residuals below tol satisfy
    2*pi*|dk| <= (a + max|e^x| e^d) d + 2 tol; below pi (a factor 2 of
    margin) that forces dk = 0.
    """
    d = math.sqrt(2.0) * max(radius, 1e-14)
    return (a + max_abs_ex * math.exp(d)) * d + 2.0 * tol < math.pi


def _check_tol(tol):
    """Raise InvalidTol unless tol is positive and its dedupe radius
    DEDUP_FACTOR * tol is below pi, half the cylinder's circumference."""
    if not 0 < defaults.DEDUP_FACTOR * tol < math.pi:
        raise InvalidTol(f"tol must be positive with {defaults.DEDUP_FACTOR}"
                         f" * tol below pi, got {tol}")


def solve_strip_equations(a, rhs_base, pair_i, pair_k, kmax_by_i, *,
                          tol=defaults.TOL):
    """Solve a*x - e^x = rhs_base[i] + 2*pi*i*k for the given (i, k) pairs.

    Returns (i, k, x, e^x) flat arrays of validated strip roots,
    deduplicated per target and re-indexed after canonicalisation.
    ``kmax_by_i`` bounds the lift indices kept per target.  Every lift runs
    the asymptotic seed.  Up to the target's own band edge k_secondary,
    the band lifts (two roots each) add the two fold seeds, and
    a lift whose own seeds fall short of its root count, or that lies on the
    band edge, adds the full robust seed block.  Each lift's seeds depend on
    that lift alone, so each target's output depends on that target alone,
    whatever else its call solves.

    Target i owns the slots zero[i] + k for |k| <= kmax_by_i[i]; where the
    pairs fill most of their slot range, a table over the slots stands in for
    sorting in the dedupe.

    A large call whose pair_i is non-decreasing is solved in contiguous
    target blocks, on the solver pool when called from the main thread and
    in turn on the calling thread otherwise; the blocks are joined in target
    order.  The output is bit-identical for any blocks and threads.
    """
    rhs_base = np.asarray(rhs_base, dtype=np.complex128)
    pair_i = np.asarray(pair_i, dtype=np.int64)
    pair_k = np.asarray(pair_k, dtype=np.int64)
    _check_tol(tol)
    a = int(a)
    k_sec = k_secondary(a, rhs_base.imag)
    kmax_arr = np.asarray(kmax_by_i, dtype=np.int64)
    radius = defaults.DEDUP_FACTOR * tol
    ends = np.cumsum(2 * kmax_arr + 1)
    n_slots = int(ends[-1]) if ends.size else 0
    zero = ends - kmax_arr - 1
    # the table has n_slots entries: a pair set far sparser than its slot
    # range (one distant branch, as inverse_branch asks for) gets none
    table = n_slots <= 2 * pair_k.size + 64

    def block(lo, hi):
        is_, ks, xc, ex = _strip_candidates(
            a, rhs_base, pair_i[lo:hi], pair_k[lo:hi], kmax_arr, k_sec,
            tol=tol)
        alone = None
        if table and ex.size and _one_k_per_cell(a, float(np.abs(ex).max()),
                                                 radius, tol):
            # each dedupe cell lies in one slot, so a root alone in its slot
            # is alone in its cell; the block's slots start at its first one
            slot = zero[is_] + ks
            slot -= slot.min()
            alone = np.bincount(slot)[slot] == 1
        return _dedupe_sorted(is_, ks, xc, ex, radius, alone)

    cuts = _block_cuts(pair_i)
    spans = list(zip(cuts[:-1], cuts[1:]))
    pool = _solver_pool()[0] if len(spans) > 1 and _on_main_thread() else None
    if pool is None:
        parts = [block(lo, hi) for lo, hi in spans]
    else:
        parts = list(pool.map(lambda span: block(*span), spans))
    if len(parts) > 1:
        # the dedupe sorts by target first, so joining the blocks in target
        # order gives the one-block output
        parts = [tuple(np.concatenate(col) for col in zip(*parts))]
    return parts[0]


# A call of at least _SPLIT_PAIRS pairs gets blocks of at most _BLOCK_PAIRS
# pairs, and on the main thread at least one block per worker.
_SPLIT_PAIRS = 8_192
_BLOCK_PAIRS = 32_768


@functools.cache
def _solver_pool():
    """(pool, workers) for target blocks; no pool, hence no thread, for one."""
    workers = defaults.default_threads()
    pool = ThreadPoolExecutor(workers, thread_name_prefix="bowendim-solve") \
        if workers > 1 else None
    return pool, workers


def _on_main_thread():
    return threading.current_thread() is threading.main_thread()


def _block_cuts(pair_i):
    """Pair offsets [0, ..., n] of contiguous target blocks, balanced by pairs.

    One block unless the call is large and pair_i is non-decreasing.  Other
    threads than the main one (sweep cells, pool workers) get blocks of at
    most _BLOCK_PAIRS pairs, which bounds their temporaries, and solve them
    in turn: they must neither oversubscribe the cores nor wait on the pool
    they run in.
    """
    n = pair_i.size
    if n < _SPLIT_PAIRS or np.any(pair_i[1:] < pair_i[:-1]):
        return [0, n]
    starts = np.flatnonzero(np.diff(pair_i)) + 1
    if not starts.size:  # one target never splits, so it makes no pool
        return [0, n]
    n_blocks = -(-n // _BLOCK_PAIRS)
    if _on_main_thread():
        n_blocks = max(_solver_pool()[1], n_blocks)
    bounds = np.concatenate(([0], starts, [n]))
    want = np.arange(1, n_blocks) * n // n_blocks
    hi = np.searchsorted(bounds, want)
    below, above = bounds[hi - 1], bounds[hi]
    pick = np.where(want - below <= above - want, below, above)
    return np.unique(np.concatenate(([0], pick, [n]))).tolist()


def _strip_candidates(a, rhs_base, pair_i, pair_k, kmax_arr, k_sec, *, tol):
    """Validated strip roots (i, k, x, e^x) before deduplication; k_sec
    holds each target's band edge.

    Every pair runs the asymptotic seed.  Of the small lifts (|k| up to
    k_sec), the band lifts (|Im B| < a*pi, two roots) also run the two fold
    seeds.  A small lift on which its own seeds found fewer distinct roots
    than its count, or that lies within a relative 1e-9 of the band edge
    (a root on Im x = +-pi can re-index to another lift), also runs the full
    robust seed block.  Candidates come in this order, which decides the
    copy of a root that the dedupe keeps.  Each seed depends on its own
    lift's B alone.
    """
    B = rhs_base[pair_i] + (TWO_PI * 1j) * pair_k
    x = _newton_batch(a, B, _log_seed(a, B), _FAST_ITERS)
    parts = [_validated(a, rhs_base, pair_i, pair_k, x, tol)]
    small = np.flatnonzero(np.abs(pair_k) <= k_sec[pair_i])
    if small.size:
        Bs, i_s, k_s = B[small], pair_i[small], pair_k[small]
        need, edge = _root_count(a, Bs)
        band = np.flatnonzero(need == 2)
        # the roots that each small lift's first seeds found on that lift
        # itself: row 0 from the asymptotic seed, rows 1 and 2 from fold_p
        # and fold_m on band lifts
        own = np.full((3, small.size), np.nan, dtype=np.complex128)
        at = np.full(pair_k.size, -1, dtype=np.int64)
        at[small] = np.arange(small.size)
        _, ks, xc, _, pos = parts[0]
        mine = (ks == pair_k[pos]) & (at[pos] >= 0)
        own[0, at[pos[mine]]] = xc[mine]
        if band.size:
            Bb = np.tile(Bs[band], 2)
            kb = np.tile(k_s[band], 2)
            x = _newton_batch(a, Bb, _fold_seeds(a, Bs[band]).ravel(),
                              _ROBUST_ITERS)
            parts.append(_validated(a, rhs_base, np.tile(i_s[band], 2), kb,
                                    x, tol))
            _, ks, xc, _, pos = parts[-1]
            mine = ks == kb[pos]
            row, col = np.divmod(pos[mine], band.size)
            own[1 + row, band[col]] = xc[mine]
        # distinct in the dedupe's metric; NaN compares as not close
        radius = max(defaults.DEDUP_FACTOR * tol, 1e-14)
        close = [cylinder_distance(own[i], own[j]) < radius
                 for i, j in ((1, 0), (2, 0), (2, 1))]
        found = ~np.isnan(own)
        distinct = found[0].astype(np.int64) + (found[1] & ~close[0]) \
            + (found[2] & ~close[1] & ~close[2])
        fall = np.flatnonzero((distinct < need) | edge)
        if fall.size:
            # one Newton batch for every robust seed, seed-major; Newton acts
            # per entry, so this equals one batch per seed
            seeds = _robust_seed_block(a, Bs[fall])
            n = seeds.shape[0]
            x = _newton_batch(a, np.tile(Bs[fall], n), seeds.ravel(),
                              _ROBUST_ITERS)
            parts.append(_validated(a, rhs_base, np.tile(i_s[fall], n),
                                    np.tile(k_s[fall], n), x, tol))

    is_, ks, xc, ex = (np.concatenate([part[c] for part in parts])
                       for c in range(4))
    ok = np.abs(ks) <= kmax_arr[is_]
    return is_[ok], ks[ok], xc[ok], ex[ok]


def _validated(a, rhs_base, is_, ks, xs, tol):
    """The Newton results xs for the lifts (is_, ks) that are strip roots:
    (i, k, x, e^x, pos), with x canonicalised, k re-indexed to x's true lift
    and pos the entry's position in xs.  Acts per entry."""
    pos = np.flatnonzero(np.isfinite(xs))
    xs, is_, ks = xs[pos], is_[pos], ks[pos]
    xc = canonical(xs)
    m = np.round((xs.imag - xc.imag) / TWO_PI).astype(np.int64)
    ks = ks - a * m
    ex = np.exp(xc)
    # Fold snap: near a double root the accepted iterates scatter over the
    # region where |g| < tol (radius ~ sqrt(2 tol)), but the critical point
    # x = log(a) itself satisfies the residual there; replacing the cluster
    # by it keeps counts and positions deterministic.  Root pairs whose
    # separation exceeds ~sqrt(8 tol) stay resolved (the residual gate at
    # the critical point fails for them).
    fold = np.abs(a - ex) < 3e-5
    if fold.any():
        crit = math.log(a)
        crit_resid = np.abs(a * crit - a - (rhs_base[is_[fold]]
                                            + (TWO_PI * 1j) * ks[fold]))
        snap = np.flatnonzero(fold)[crit_resid < tol]
        xc[snap] = crit
        ex[snap] = np.exp(crit)
    resid = np.abs(a * xc - ex - (rhs_base[is_] + (TWO_PI * 1j) * ks))
    ok = resid < tol
    return is_[ok], ks[ok], xc[ok], ex[ok], pos[ok]


def _uniform_pairs(n_targets, kmax):
    """(i, k) pairs for k in [-kmax_i, kmax_i] per target."""
    kmax = np.asarray(kmax, dtype=np.int64)
    if kmax.ndim == 0:
        kmax = np.full(n_targets, int(kmax), dtype=np.int64)
    counts = 2 * kmax + 1
    total = int(counts.sum())
    pair_i = np.repeat(np.arange(n_targets, dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    pair_k = np.arange(total, dtype=np.int64) - offsets[pair_i] - kmax[pair_i]
    return pair_i, pair_k, kmax


def preimage_arrays(params: MapParams, targets, kmax, *, tol=defaults.TOL):
    """Flat preimage enumeration used by the transfer machinery.

    targets: complex array of canonical cylinder points.
    kmax: scalar or per-target truncation half-width.
    Returns (parent_index, k, x, f'(x), miss_i, miss_k): the validated roots,
    and the pairs beyond their target's k_secondary that own no root (each
    of them must own exactly one), in (target, k) order.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=np.complex128))
    pair_i, pair_k, kmax_arr = _uniform_pairs(targets.size, kmax)
    rhs = targets - params.affine_term
    is_, ks, xc, ex = solve_strip_equations(params.ell, rhs, pair_i, pair_k,
                                            kmax_arr, tol=tol)
    # the pairs enumerate every slot once, in order: pair j is slot j
    zero = np.cumsum(2 * kmax_arr + 1) - kmax_arr - 1
    marked = np.zeros(pair_k.size, dtype=bool)
    marked[zero[is_] + ks] = True
    miss = ~marked & (np.abs(pair_k) > k_secondary(params.ell, rhs.imag)[pair_i])
    return is_, ks, xc, params.ell - ex, pair_i[miss], pair_k[miss]


# ---------------------------------------------------------------- tail bound

@dataclass(frozen=True)
class TailBound:
    """Closed-form bound on the branch weights omitted beyond index K."""

    K: int
    t: float
    bound: float


def tail_bound_value(K, t):
    """Vectorised value of the omitted-weight bound (no validation)."""
    K = np.asarray(K, dtype=float)
    return 2.0 * defaults.C_GEO * TWO_PI ** (-t) * K ** (1.0 - t) / (t - 1.0)


def check_t(t):
    """TNotSummable for t <= 1, ValueError for a t that is not finite."""
    if t <= 1.0:
        raise TNotSummable(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")


def tail_weight_bound(K: int, t: float, *,
                      k_min=defaults.K_MIN_FLOOR) -> TailBound:
    """Upper bound for sum_{|k|>K} |F'(x_k)|^(-t).

    Uses |F'(x_k)| >= 2*pi*|k| / C_GEO for |k| >= k_min, which the
    enumeration validates at run time.  Finite only for t > 1.
    """
    check_t(t)
    if K < k_min:
        raise ValueError(f"tail bound requires K >= {k_min}, got {K}")
    return TailBound(int(K), float(t), float(tail_bound_value(K, t)))


# ---------------------------------------------------------------- public API

class Branch(NamedTuple):
    k: int
    x: CylinderPoint
    deriv: complex


@dataclass(frozen=True, eq=False)
class PreimageSet:
    """Validated, branch-indexed preimages of one target point.

    The branches are held as three read-only arrays in branch order: the
    lift indices, the roots as the solver canonicalised them, and F' there.
    """

    target: CylinderPoint
    K: int
    tol: float
    misses: tuple
    derivative_bound_ok: bool
    _ks: np.ndarray
    _xs: np.ndarray
    _derivs: np.ndarray

    def __len__(self):
        return self._ks.size

    @property
    def branches(self):
        """The branches as Branch tuples, built on each read."""
        return tuple(Branch(k, CylinderPoint.from_complex(x), d) for k, x, d in
                     zip(self._ks.tolist(), self._xs.tolist(),
                         self._derivs.tolist()))

    def points(self):
        """The roots as the points of branches hold them: CylinderPoint's Im
        rule applied once to the solver's values (the rule can move a value
        within an ulp of a strip edge again, so it is not applied twice)."""
        xs = self._xs.copy()
        # + 0.0 turns a shift of -0.0 into 0.0, so an Im of -0.0 stays -0.0
        # as under math.ceil
        xs.imag -= TWO_PI * (np.ceil((xs.imag - math.pi) / TWO_PI) + 0.0)
        return xs

    def ks(self):
        return self._ks.copy()

    def derivs(self):
        return self._derivs.copy()


# the largest K of the library: a tree's ChildTable keeps lift indices as
# int16, and preimages() takes the same bound
_K_LIMIT = int(np.iinfo(np.int16).max)


def preimages(params: MapParams, w, K: int, tol: float = defaults.TOL
              ) -> PreimageSet:
    """Enumerate F^{-1}(w) on the cylinder for lift indices |k| <= K.

    The roots are those of ``preimage_arrays(params, [w], K)``, sorted by
    |k|, then by real part, imaginary part and k.  Each lift up to
    k_secondary is checked against its root count, and a lift short of it
    runs the robust seeds.  Missing asymptotic branches (no root found where
    exactly one must exist) are recorded in ``misses``.  A non-finite w, or
    K outside 1.._K_LIMIT, raises ValueError.
    """
    _check_tol(tol)
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > _K_LIMIT:
        raise ValueError(f"K must be <= {_K_LIMIT}, got {K}")
    w = _as_c(w)
    if not cmath.isfinite(w):
        raise ValueError(f"target w must be finite, got {w!r}")
    wt = canonical(w)
    is_, ks, xs, ders, mi, mk = preimage_arrays(params, np.array([wt]), K,
                                                tol=tol)
    order = np.lexsort((ks, xs.imag, xs.real, np.abs(ks)))
    ks, xs, ders = ks[order], xs[order], ders[order]

    km = defaults.k_min(params.ell, params.c)
    sel = np.abs(ks) >= km
    bound_ok = True
    if sel.any():
        bound_ok = bool(np.all(np.abs(ders[sel])
                               >= TWO_PI * np.abs(ks[sel]) / defaults.C_GEO))
    miss = tuple(sorted(int(k) for k in mk))
    if miss:
        log.warning("preimages: no root found for branch indices %s", miss)
    for col in (ks, xs, ders):
        col.flags.writeable = False
    return PreimageSet(CylinderPoint.from_complex(wt), int(K), float(tol), miss,
                       bound_ok, ks, xs, ders)


def _as_c(z):
    if isinstance(z, CylinderPoint):
        return z.z
    return complex(z)


def _branch_roots_single(params: MapParams, target: complex, k: int, tol):
    """All validated roots of one branch equation for one target."""
    rhs = np.array([target - params.affine_term])
    pair_i = np.zeros(1, dtype=np.int64)
    pair_k = np.array([k], dtype=np.int64)
    kmax = np.array([abs(k)], dtype=np.int64)
    is_, ks, xs, ex = solve_strip_equations(params.ell, rhs, pair_i, pair_k,
                                            kmax, tol=tol)
    keep = ks == k
    return xs[keep]


def inverse_branch(params: MapParams, w, branch_word, tol: float = defaults.TOL
                   ) -> CylinderPoint:
    """Depth-n preimage along a symbolic word of lift indices.

    Each letter applies one more inverse branch; when a branch index carries
    several strip roots the principal one (largest real part, the asymptotic
    branch) is taken.  Raises BranchMiss at the failing depth.
    """
    if not len(branch_word):
        raise ValueError("branch_word must be nonempty")
    _check_tol(tol)
    v = canonical(_as_c(w))
    for depth, k in enumerate(branch_word):
        roots = _branch_roots_single(params, v, int(k), tol)
        if roots.size == 0:
            raise BranchMiss(int(k), depth)
        v = complex(roots[np.argmax(roots.real)])
    return CylinderPoint.from_complex(v)


def fixed_points(params: MapParams, k_range, tol: float = defaults.TOL):
    """All period-1 points of the cylinder map for lift indices in k_range.

    k_range is an inclusive (lo, hi) pair or an explicit iterable of ints.
    The k=0 list always contains log(c).  The points solve the strip
    equations with linear coefficient ell - 1 under the same seeding rule as
    the preimages, so each lift up to k_secondary is checked against its
    root count.  Missing indices beyond k_secondary are logged, not fatal.
    """
    _check_tol(tol)
    if isinstance(k_range, tuple) and len(k_range) == 2:
        ks_wanted = np.arange(k_range[0], k_range[1] + 1, dtype=np.int64)
    else:
        ks_wanted = np.asarray(sorted(set(int(k) for k in k_range)), dtype=np.int64)
    a = params.ell - 1
    rhs = np.array([-params.affine_term])
    pair_i = np.zeros(ks_wanted.size, dtype=np.int64)
    kmax = np.array([int(np.max(np.abs(ks_wanted))) if ks_wanted.size else 0])
    is_, ks, xs, ex = solve_strip_equations(a, rhs, pair_i, ks_wanted, kmax,
                                            tol=tol)
    keep = np.isin(ks, ks_wanted)
    ks, xs, ex = ks[keep], xs[keep], ex[keep]
    order = np.lexsort((ks, xs.imag, xs.real, np.abs(ks)))
    pts = []
    for k, x, e in zip(ks[order], xs[order], ex[order]):
        mult = params.ell - e
        pts.append(PeriodicPoint(CylinderPoint.from_complex(x), 1,
                                 complex(mult), (int(k),)))
    found = set(int(k) for k in ks)
    k_sec = int(k_secondary(a, rhs[0].imag))
    missing = [int(k) for k in ks_wanted
               if int(k) not in found and abs(int(k)) > k_sec]
    if missing:
        log.warning("fixed_points: no solution found for k in %s", missing)
    return pts
