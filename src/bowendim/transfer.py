"""Weighted transfer operator via truncated preimage trees.

The operator acts on a function g by summing |F'(x)|^(-t) g(x) over the
preimages x of the evaluation point.  Iterates on the constant function 1
are computed by expanding the preimage tree breadth first.  Three kinds of
omission are ledgered per level and propagated into the reported error:

* k-tails:   every node enumerates branches |k| <= kmax(node); the omitted
             branch weights are bounded by the closed-form tail bound;
* node cuts: whole subtrees whose root weight falls below the pruning
             threshold (raised level-by-level when the node budget binds);
* misses:    asymptotic branches whose solve failed validation (rare).

Omitted mass m at level j contributes to S_n at most m * sup(L^(n-j) 1).
Following the boundedness of the normalised iterates, the supremum is
modelled as M * alpha^(n-j) with alpha the measured level-sum ratio and M a
runtime probe estimate; both are heuristic and reported as such.  M is the
largest of about a thousand per-probe sums over |k| <= 256.  The probes and
their branches |k| <= k_first, twice the probes' band edge within [32, 256],
are solved once per parameter.  Beyond k_first, Im F' alone bounds every
branch's |F'| from below, so per t two rounds find the maximum: the probe
with the largest first-stage sum is solved to 256, then every probe whose
bound reaches that sum; a probe solved to 256 is kept for every later t.

Every tree node carries lam = log|(F^j)'| along its path, so on a fixed
tree each level sum is a sum of exp(-t lam).  Each level asks a ChildTable
for its kept nodes' branches in one request; the table keeps one entry per
solved target, its roots and |F'| from the widest solve so far, and serves
every later call for that target whose truncation lies between the
target's k_secondary and that width; a table belongs to one parameter and
one tolerance.  bowen_dimension keeps a TreeStore: one table, and per
schedule row the record of the tree grown at the first t that asks for the
row, per level the cuts, the kmax and the lam of the children and misses
as flat arrays.  Every later t reads that tree from its record, taking
each weight, sum, cut and miss estimate at t by the growth's own
arithmetic, with no threshold choice and no solve; the cuts themselves are
the first t's.  A row's tree draws on the branches an earlier row's
solved.  Any other tree is grown at its t with a table of its own, which
still solves the base point's fixed-point preimage, found again at every
level, only once.  The sup probe keeps its probes solved to 256 in a table
of its own.
"""

from __future__ import annotations

import functools
import logging
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import defaults
from .cylinder import TWO_PI, CylinderPoint, MapParams, canonical, cylinder_distance
from .errors import NumericsError
from .preimages import (_K_LIMIT, _dedupe_sorted, check_t, fixed_points,
                        k_secondary, preimage_arrays, preimages,
                        tail_bound_value, tail_weight_bound)

log = logging.getLogger(__name__)

_PAIR_CHUNK = 2_000_000
_K_PROBE = 256  # branch truncation of the sup probe
_K_FIRST = 32   # the first stage's least width; only contenders go to _K_PROBE


@dataclass(frozen=True)
class WeightedValue:
    """A nonnegative sum together with its accumulated omission bound."""

    value: float
    error: float

    @property
    def lo(self):
        return self.value - self.error

    @property
    def hi(self):
        return self.value + self.error


@dataclass(frozen=True)
class PressureEstimate:
    """One pressure evaluation with its reported uncertainty."""

    t: float
    value: float
    uncertainty: float
    n: int
    K: int
    prune: float

    @property
    def certified_positive(self):
        return self.value - self.uncertainty > 0.0

    @property
    def certified_negative(self):
        return self.value + self.uncertainty < 0.0


@functools.lru_cache(maxsize=None)
def default_base_point(params: MapParams) -> complex:
    """The |k|=1 repelling fixed point.

    The sign of k follows the sign of Im(c), so conjugate parameters use
    mirror-image base points and all downstream estimates are equivariant
    under conjugation.
    """
    order = (1, -1) if params.c.imag >= 0 else (-1, 1)
    for k in order:
        pts = fixed_points(params, (k, k))
        for p in pts:
            if abs(p.multiplier) > 1.0:
                return p.point.z
    raise NumericsError(f"no repelling fixed point found for k=+-1 at {params}")


# The sup probe's maximum from bounds.  A validated root x (|Im x| <= pi) of
# lift k solves e^x = a x - B - r, with B = rhs + 2 pi i k and |r| < tol, so
# F' = a - e^x = B + r - a (x - 1), and |F'| >= |Im F'| gives
#     |F'| >= 2 pi |k| - max|Im rhs| - a pi - tol = L_k.
# _LIFT_SLACK lowers L_k past the rounding of the residual gate, of the strip
# edge and of L_k itself, each below 1e-11 while the terms stay under 1e4.
# The band edge k_edge, the probes' largest k_secondary, has
# 2 pi k_edge >= a pi + max|Im rhs|, so beyond any k_first >= k_edge every
# L_k is positive and each lift holds one root (preimages._root_count): a
# probe with no first-stage miss adds at most 2 sum L_k^-t (k_first < k <=
# _K_PROBE) to its first-stage sum.  The first stage takes k_first = 2 k_edge
# within [_K_FIRST, _K_PROBE], a chosen factor that keeps every L_k above
# a pi and so the bound tight (at (64, 64) it solves 4 probes in full over
# seven t, and k_first = k_edge 3,401).  The pairs the full solve adds run
# only the asymptotic seed of their own lift, so its roots at |k| <= k_first
# are the first stage's, but for a root that a far pair finds shifted by a
# lift: a copy within 2 tol / |F'| of the one it displaces, whose weight
# moves by a relative 3 t tol / |F'| at most.
# _SUP_SLACK (1 + t) covers that where |F'| >= 1 (tol = TOL = 1e-11), and
# the rounding of the three sums (under 2^10 terms each, added in order:
# 2.3e-13 each) and of the powers.
_LIFT_SLACK = 1e-9
_SUP_SLACK = 1e-10


def _lift_bounds(a, im_max, tol, k_first):
    """L_k for k_first < k <= _K_PROBE: |F'| >= L_k at every validated root
    of lift +-k of a target with |Im rhs| <= im_max."""
    ks = np.arange(k_first + 1, _K_PROBE + 1)
    return TWO_PI * ks - im_max - a * math.pi - tol - _LIFT_SLACK


class _SupProbe:
    """The sup probe of one parameter: every probe solved for |k| <= k_first,
    the first stage, and a table that keeps every probe solved to _K_PROBE.

    Probes are themselves Julia points: the base point (a repelling fixed
    point) and its first two preimage generations (the Julia set is backward
    invariant), so the estimate is not inflated by Fatou regions near the
    critical value; there are about a thousand.  k_first is twice their
    band edge, which keeps the bound tight (see L_k).  Nothing reads the
    build's solves again, so they bypass the table.  dabs and parent hold
    |F'| over the first stage's branches and each branch's probe index; lift
    holds L_k beyond k_first, and unbounded marks the probes with a
    first-stage miss, which the first stage does not bound.
    """

    def __init__(self, params):
        base = np.array([default_base_point(params)])
        x1 = preimage_arrays(params, base, 24)[2]
        x2 = preimage_arrays(params, x1, 8)[2]
        self.probes = np.concatenate([base, x1, x2])
        im_max = float(np.abs((self.probes - params.affine_term).imag).max())
        k_edge = int(k_secondary(params.ell, im_max))
        k_first = min(_K_PROBE, max(_K_FIRST, 2 * k_edge))
        self.parent, _, _, der, missed, _ = preimage_arrays(
            params, self.probes, k_first)
        self.dabs = np.abs(der)
        self.unbounded = np.bincount(missed, minlength=self.probes.size) > 0
        self.lift = _lift_bounds(params.ell, im_max, defaults.TOL, k_first)
        for col in (self.probes, self.dabs, self.parent, self.lift,
                    self.unbounded):
            col.flags.writeable = False
        self.table = ChildTable(params, defaults.TOL)
        self._lock = threading.Lock()

    def bounds(self, t):
        """(first, bound): every probe's first-stage sum at t, and a bound on
        its sum to _K_PROBE (inf where the first stage bounds nothing)."""
        first = np.bincount(self.parent, weights=self.dabs ** (-t),
                            minlength=self.probes.size)
        tail = 2.0 * float((self.lift ** (-t)).sum())
        bound = np.where(self.unbounded, math.inf,
                         (first + tail) * (1.0 + _SUP_SLACK * (1.0 + t)))
        return first, bound

    def sums(self, ids, t):
        """The exact sums at t of the probes ids, solved to _K_PROBE or
        served from the table."""
        with self._lock:
            n, _, _, dabs, _, _ = self.table.solve(
                self.probes[ids], np.full(ids.size, _K_PROBE), math.inf)
        return np.bincount(np.repeat(np.arange(ids.size), n),
                           weights=dabs ** (-t), minlength=ids.size)


# each parameter's sup probe is built once, and kept for the last four
_sup_l1_probe = functools.lru_cache(maxsize=4)(_SupProbe)


def _sup_l1(params: MapParams, t: float) -> float:
    """Runtime estimate of sup of L_t 1 over the Julia set: the largest
    per-probe sum of |F'|^-t over |k| <= _K_PROBE, plus the k-tail bound.

    Two rounds find the maximum.  The first solves to _K_PROBE the probes
    with a first-stage miss and the one with the largest first-stage sum; b
    is the largest of their sums.  The second takes those probes again
    (served from the table) and every probe whose bound (first-stage sum
    plus 2 sum L_k^-t, widened by _SUP_SLACK) reaches b, which holds every
    probe that may exceed b, so its largest sum is the maximum.  Each exact
    sum adds its probe's branches in branch order, and a probe's roots do
    not depend on the probes solved with it, so the result is the one full
    solve's bit for bit.
    """
    probe = _sup_l1_probe(params)
    first, bound = probe.bounds(t)
    ids = np.union1d(np.flatnonzero(probe.unbounded), np.argmax(first))
    best = probe.sums(ids, t).max()
    ids = np.union1d(ids, np.flatnonzero(~(bound < best)))
    return float(probe.sums(ids, t).max() + tail_bound_value(_K_PROBE, t))


# ------------------------------------------------------------- tree builder

def _chunks(kk):
    """The slices of a request's targets (kmax kk) that ChildTable.solve
    solves together: as many targets as fit in _PAIR_CHUNK pairs, and at
    least one."""
    csum = np.cumsum(2 * kk + 1)
    start = 0
    while start < kk.size:
        hi = int(np.searchsorted(csum, (csum[start - 1] if start else 0)
                                 + _PAIR_CHUNK, side="left")) + 1
        sl = slice(start, min(max(hi, start + 1), kk.size))
        yield sl
        start = sl.stop


class ChildTable:
    """The solved branches of every target of one parameter and tolerance,
    for one Bowen solve, one tree or one sup probe.

    The two trees of a Bowen solve, one per schedule row, keep solving the
    same branch equations.  One target's solve output (its roots in
    (real, imag) order and its missed k in ascending order) depends on the
    target's bits and kmax alone, whatever else its call solves, so the
    table keeps one entry per target: what its readers need of the widest
    solve so far, as one target's slice of the compact columns that solve
    made (the lift index, the root, |F'| and the missed k).  Lift indices
    are int16, which _grow guards by bounding K.  The target is keyed by its
    raw bits, as +0.0 and -0.0 lie on opposite sides of Log's branch cut.

    An entry solved to kmax serves every request for kmax' with
    k_secondary(target) <= kmax' <= kmax: its roots and misses with
    |k| <= kmax' are the solve at kmax' bit for bit.  Every lift's seeds
    (the asymptotic one, and up to k_secondary the fold seeds on the band
    lifts and the robust block on a lift short of its root count) depend on
    that lift alone, so the lifts up to kmax' run the same seeds in both
    solves.  The pairs beyond kmax' lie beyond the band edge k_secondary and
    run only the asymptotic seed of their own lift, for its one root, whose
    Newton iterate stays clear of the strip's edges (near Im x = -+pi/2 for
    large |k|), so no root of theirs re-indexes into |k| <= kmax'.  A
    narrower kmax' is solved as asked, and a wider one is solved and
    replaces the entry.  A solve stores no entry once the entries hold
    `limit` roots (the node budget of the tree being grown), so they exceed
    it by at most one chunk's roots; lookups go on, and the output bits do
    not depend on what is cached.
    """

    def __init__(self, params, tol):
        self.params, self.tol = params, tol
        self.entries = {}
        self.roots = 0
        self.pairs_requested = 0
        self.pairs_solved = 0
        self.served_wider = 0  # requests served from a wider entry

    def solve(self, targets, kmax, limit):
        """(n, k, x, |F'|, n_miss, missed k): preimage_arrays(params,
        targets, kmax, tol=tol) with each row's root count n and miss count
        n_miss in place of the parent indices, k as int16 and |F'| in place
        of F', solving only the targets the table cannot serve, in pieces
        of at most _PAIR_CHUNK pairs (one target at least); kmax is an int64
        array.  Every array is read-only."""
        if not targets.size:
            return tuple(np.zeros(0, dt) for dt in (
                np.int64, np.int16, complex, float, np.int64, np.int64))
        bits = np.ascontiguousarray(targets).view(np.uint64).reshape(-1, 2)
        self.pairs_requested += int((2 * kmax + 1).sum())
        keys = list(map(tuple, bits.tolist()))
        kms = kmax.tolist()
        rows = [self.entries.get(key) for key in keys]
        todo, wider = [], 0
        for j, (row, km) in enumerate(zip(rows, kms)):
            if row is not None and km != row[5]:
                if row[6] <= km < row[5]:
                    wider += 1
                else:
                    row = rows[j] = None
            if row is None:
                todo.append(j)
        self.served_wider += wider
        for sl in _chunks(kmax[todo]):
            sub = np.array(todo[sl])
            store = self.roots < limit
            self.pairs_solved += int((2 * kmax[sub] + 1).sum())
            si, sk, sx, sd, smi, smk = preimage_arrays(
                self.params, targets[sub], kmax[sub], tol=self.tol)
            k_sec = k_secondary(self.params.ell,
                                (targets[sub] - self.params.affine_term).imag)
            # what the readers need, compact and read-only; a row is one
            # target's slice of it, (cols, lo, hi, mlo, mhi, kmax, k_sec)
            cols = (sk.astype(np.int16), sx, np.abs(sd), smk)
            for col in cols:
                col.flags.writeable = False
            cut = np.searchsorted(si, np.arange(sub.size + 1)).tolist()
            mcut = np.searchsorted(smi, np.arange(sub.size + 1)).tolist()
            del si, sk, sd, smi, smk
            for r, (j, ks) in enumerate(zip(sub.tolist(), k_sec.tolist())):
                rows[j] = (cols, cut[r], cut[r + 1], mcut[r], mcut[r + 1],
                           kms[j], ks)
                if store:
                    old = self.entries.get(keys[j])
                    if old is None or old[5] < kms[j]:
                        self.entries[keys[j]] = rows[j]
                        self.roots += cut[r + 1] - cut[r] \
                            - (0 if old is None else old[2] - old[1])
        # per column group (the roots' k, x and |F'|; the missed k), the rows
        # of one solve that follow each other are one run, read as one
        # slice, and a request of one run is not copied; when a row is
        # served from a wider entry, each run keeps the roots and misses
        # with |k| up to their row's kmax, which are all of them on the
        # other rows
        new_source = np.array([a[0] is not b[0]
                               for a, b in zip(rows, rows[1:])], dtype=bool)
        bounds = np.array([row[1:5] for row in rows], np.int64).T
        counts, cols = [], []
        for lo, hi, group in ((*bounds[:2], (0, 1, 2)), (*bounds[2:], (3,))):
            n = hi - lo
            starts = np.flatnonzero(np.concatenate(
                ([True], new_source | (lo[1:] != hi[:-1]))))
            ends = np.append(starts[1:], len(rows))
            parts = []
            for j0, j1, first, last in zip(starts.tolist(), ends.tolist(),
                                           lo[starts].tolist(),
                                           hi[ends - 1].tolist()):
                run = [rows[j0][0][c][first:last] for c in group]
                if wider:
                    keep = np.abs(run[0]) <= np.repeat(kmax[j0:j1], n[j0:j1])
                    run = [col[keep] for col in run]
                    kept = np.concatenate(([0], np.cumsum(keep)))
                    n[j0:j1] = np.diff(kept[np.cumsum(n[j0:j1])], prepend=0)
                parts.append(run)
            counts.append(n)
            cols += [p[0] if len(p) == 1 else np.concatenate(p)
                     for p in zip(*parts)]
        for col in counts + cols:
            col.flags.writeable = False
        return counts[0], *cols[:3], counts[1], cols[3]


@dataclass
class _Levels:
    """Raw result of one breadth-first expansion."""

    params: MapParams
    t: float
    budget: int
    values: list = field(default_factory=list)        # S_0 .. S_m
    parent_cuts: list = field(default_factory=list)   # mass cut entering level j
    tail_cuts: list = field(default_factory=list)     # omitted child mass at level j
    nodes: list = field(default_factory=list)         # optional LevelNodes
    budget_exceeded: bool = False
    misses: int = 0
    stored: int = 0

    def alpha_hat(self):
        v = self.values
        if len(v) < 2:
            return 1.0
        ratios = [v[j + 1] / v[j] for j in range(len(v) - 1) if v[j] > 0]
        tail = ratios[-2:] if len(ratios) >= 2 else ratios
        return max(max(tail), 1e-6) if tail else 1.0

    def weighted(self, n_requested):
        """Assemble WeightedValue per level, propagating omissions forward.

        Omitted mass m, j levels before the current one, contributes at most
        m * sup(L^j 1), modelled as m * M * alpha^j with alpha the measured
        level ratio and M a runtime bound on the normalised iterates.
        """
        alpha = self.alpha_hat()
        m_hat = 1.3 * max(1.0, _sup_l1(self.params, self.t) / alpha)
        for j, v in enumerate(self.values):
            if v > 0 and alpha ** j > 0:
                m_hat = max(m_hat, 1.3 * v / alpha ** j)
        out = [WeightedValue(1.0, 0.0)]
        err = 0.0
        for j in range(1, len(self.values)):
            err = err * alpha + (self.parent_cuts[j - 1] * alpha
                                 + self.tail_cuts[j - 1]) * m_hat
            out.append(WeightedValue(self.values[j], err))
        while len(out) <= n_requested:
            out.append(WeightedValue(math.nan, math.inf))
        return out


@dataclass
class LevelNodes:
    x: np.ndarray
    k: np.ndarray
    parent: np.ndarray
    lam: np.ndarray  # log|(F^j)'| along the path from the base point


def _pair_count(w, t, K, k_lo, p):
    """(pairs, cand, km): the pairs that threshold p expands, counted
    exactly; the nodes that may be kept, in level order; and their unclipped
    kmax (C/2pi)(w/p)^(1/t).

    A node with kmax >= k_lo has w >= p (k_lo / c)^t to a few ulps, so only
    the nodes that pass that cut, lowered by a relative 1e-9 in kmax, are
    raised to the power; every other node is dropped and clips to k_lo.  The
    kept nodes come in level order, so their pairwise sum is the whole
    level's."""
    c = defaults.C_GEO / TWO_PI
    with np.errstate(over="ignore"):
        cut = p * np.float64(k_lo * (1.0 - 1e-9) / c) ** t
    # a cut that is not a finite float cuts nothing
    cand = np.flatnonzero(w >= cut) if cut < math.inf else np.arange(w.size)
    km = c * (w[cand] / p) ** (1.0 / t)
    keep = km >= k_lo
    if not keep.any():
        return 0, cand, km
    return float((2 * np.minimum(km[keep], K) + 1).sum()), cand, km


def _choose_threshold(w, t, K, k_lo, p_floor, cap):
    """Smallest threshold >= p_floor whose expansion fits in `cap` pairs.

    A node of weight w gets kmax = min((C/2pi)(w/p)^(1/t), K) branches and
    is dropped entirely when the unclipped value falls below k_lo.  The
    threshold is p_floor if that fits, else the end of 60 geometric
    bisection steps, each on the exact pair count (_pair_count).  Returns
    (p, keep, kmax): the threshold, the level's mask of kept nodes, and the
    kept nodes' kmax in level order.
    """
    p = p_floor
    count, cand, km = _pair_count(w, t, K, k_lo, p)
    if count > cap:
        c = defaults.C_GEO / TWO_PI
        lo, hi = p_floor, float(w.max()) * (k_lo / c) ** (-t) * 2.0
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            # lo is over cap and hi is not (the first hi keeps no node), so a
            # step onto either changes nothing, nor does any step after it
            if mid == lo or mid == hi:
                break
            if _pair_count(w, t, K, k_lo, mid)[0] > cap:
                lo = mid
            else:
                hi = mid
        p = hi
        _, cand, km = _pair_count(w, t, K, k_lo, p)
    kept = km >= k_lo
    keep = np.zeros(w.size, dtype=bool)
    keep[cand] = kept
    return p, keep, np.minimum(km[kept], K).astype(np.int64)


def _weigh(wk, kk, t, lam_c, lam_m, keep_c, cut):
    """One level's sums at t: (S_j, its tail cut, its dust, the mask of the
    children kept).

    wk and kk are the kept nodes' weights and kmax, and lam_c and lam_m the
    lam of their children and of their misses; keep_c is the mask of the
    children kept, or None where the children whose weight reaches cut are
    kept.  Growth and reads both weigh a level here.
    """
    cw = np.exp(-t * lam_c)
    if keep_c is None:
        keep_c = cw >= cut
    tail_cut = float((wk * tail_bound_value(kk, t)).sum()) \
        + float(np.exp(-t * lam_m).sum())
    return float(cw.sum()), tail_cut, float(cw[~keep_c].sum()), keep_c


def _grow(params, t, z, n, K, prune, budget, keep_nodes=False, tol=defaults.TOL,
          children=None, record=None):
    """The preimage tree of z at t, n levels deep, grown breadth first.

    Every node carries lam = log|(F^j)'| along its path from z (0 at z),
    and weighs exp(-t lam) at t.  Each level chooses its threshold
    (_choose_threshold) and cuts the nodes below it, solves the kept nodes'
    branches |k| <= kmax in one request to `children` (a ChildTable; without
    one the tree gets a table of its own), and keeps as the next level the
    children whose weight reaches a quarter of the threshold; the others
    are dust, cut on entering the next level.  A child's lam is its parent's
    plus log|F'|, and a missed branch k is weighed at lam = its parent's plus
    log(2pi|k|/C_GEO).

    `record`, a list, lets a tree be grown once and read at later t.  An
    empty one receives per level what another t needs, as flat arrays: the
    kept mask, the kept nodes' kmax, the lam of the children and of the
    misses, and the mask of the children kept.  A filled one is read at t:
    no threshold is chosen and nothing is solved, but every sum, cut and
    miss estimate is taken at t by the same steps (_weigh), so a read at the
    growth's own t has the growth's bits.  Only the choice of the nodes cut
    comes from the t the tree was grown at; the mass they carry at t is
    ledgered as ever, and the read ends where the growth did, on an empty
    level, the budget or the last level.
    """
    check_t(t)
    if n < 1:
        raise ValueError("n must be >= 1")
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > _K_LIMIT:
        raise ValueError(f"K must be <= {_K_LIMIT}, got {K}")
    if not 0 <= prune < math.inf:
        raise ValueError(f"prune must be finite and >= 0, got {prune}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    base = canonical(z)
    if not np.isfinite(base):
        raise ValueError(f"base point z must be finite, got {base}")
    own_table = children is None
    if own_table:
        children = ChildTable(params, tol)
    elif (children.params, children.tol) != (params, tol):
        raise ValueError("the children table belongs to another parameter "
                         "or tolerance")
    read = bool(record)
    k_lo = min(defaults.k_min(params.ell, params.c), K)

    lv = _Levels(params, t, int(budget))
    x = np.array([base], dtype=np.complex128)
    lam = np.zeros(1)
    lv.values.append(1.0)
    lv.stored = 1
    if keep_nodes:
        lv.nodes.append(LevelNodes(x.copy(), np.zeros(1, np.int64),
                                   np.full(1, -1, np.int64), lam))
    carry_cut = 0.0
    for depth in range(1, n + 1):
        if lam.size == 0:
            lv.budget_exceeded = True
            break
        # the last level's children are only counted, unless nodes are kept
        store = depth < n or keep_nodes
        w = np.exp(-t * lam)
        if read:
            keep, kk, lam_c, lam_m, keep_c = record[depth - 1]
        else:
            s_prev = lv.values[-1]
            p_floor = max(prune * s_prev, 1e-300)
            # geometric budget split: the deepest levels carry the widest
            # frontier; the 0.9 leaves slack for secondary roots beyond the
            # pair count
            cap = max(0.9 * (lv.budget - lv.stored)
                      / (2.0 ** (n - depth + 1) - 1.0), 4.0 * k_lo + 2)
            p_abs, keep, kk = _choose_threshold(w, t, K, k_lo, p_floor, cap)
        parent_cut = carry_cut + float(w[~keep].sum())
        w, lam = w[keep], lam[keep]
        if not read:
            if keep_nodes:  # parent pointers index the full level
                kept_idx = np.flatnonzero(keep)
            x = x[keep]  # the level is freed before its children are solved
            # a table of this tree's own is never read after its last level
            limit = 0 if own_table and depth == n else lv.budget
            cn, ck, cx, cdabs, mn, mk = children.solve(x, kk, limit)
            del x  # the next level's come from the solve
            lam_c = np.repeat(lam, cn) + np.log(cdabs)
            lam_m = np.repeat(lam, mn) \
                + np.log(TWO_PI * np.abs(mk) / defaults.C_GEO)
            keep_c = None
        value, tail_cut, carry_cut, keep_c = _weigh(
            w, kk, t, lam_c, lam_m, keep_c, None if read else p_abs * 0.25)
        if record is not None and not read:
            record.append((keep, kk, lam_c, lam_m, keep_c))
        lv.values.append(value)
        lv.parent_cuts.append(parent_cut)
        lv.tail_cuts.append(tail_cut)
        lv.misses += lam_m.size
        n_children = int(keep_c.sum())
        if lv.stored + n_children > lv.budget:
            lv.budget_exceeded = True
            if keep_nodes:
                lv.nodes.append(None)
            break
        lv.stored += n_children
        if not store:
            break
        lam = lam_c[keep_c]
        if read:
            continue
        x = cx[keep_c]
        if keep_nodes:
            lv.nodes.append(LevelNodes(x, ck[keep_c].astype(np.int64),
                                       np.repeat(kept_idx, cn)[keep_c], lam))
        del cn, ck, cx, cdabs, mn, mk, lam_c, lam_m
    return lv


class TreeStore:
    """The trees of one Bowen solve: one ChildTable, so a row's tree draws
    on the branches an earlier row's solved, and per schedule row (base
    point, n, K, prune, budget) the record of its tree, grown at the first t
    that asks for the row and read at every later one (see _grow)."""

    def __init__(self, params, tol):
        self.table = ChildTable(params, tol)
        self.records = {}
        self.reads = 0

    def levels(self, params, t, z, n, K, prune, budget):
        """The row's tree at t, grown and recorded or read from its record."""
        base = canonical(z)
        key = (np.complex128(base).tobytes(), n, K, prune, budget)
        record = self.records.get(key, [])
        read = bool(record)  # a recorded tree has at least one level
        lv = _grow(params, t, z, n, K, prune, budget, tol=self.table.tol,
                   children=self.table, record=record)
        if read:
            self.reads += 1
        else:
            self.records[key] = record  # a growth that raised records nothing
        return lv


def transfer_level_sums(params: MapParams, t: float, z, n: int,
                        K: int = defaults.K, prune: float = defaults.PRUNE,
                        budget: int = defaults.NODE_BUDGET, *, store=None):
    """S_0 .. S_n with error accounting, S_j = (truncated) L_t^j 1 (z).

    ``store`` is the TreeStore of a Bowen solve: the tree of each (z, n, K,
    prune, budget) is grown once, at the first t, and read at every later
    one.  Without it the tree is grown at t with a table of its own.
    """
    if store is None:
        lv = _grow(params, t, z, n, K, prune, budget)
    else:
        lv = store.levels(params, t, z, n, K, prune, budget)
    return lv.weighted(n)


def apply_transfer(params: MapParams, t: float, g, z, K: int = defaults.K,
                   *, g_sup: float = 1.0) -> WeightedValue:
    """L_t g (z) truncated at branch index K; error = tail bound * sup|g|."""
    check_t(t)
    ps = preimages(params, z, K)
    der = ps.derivs()
    pts = ps.points()
    gv = np.array([float(g(complex(x))) for x in pts])
    value = float((np.abs(der) ** (-t) * gv).sum())
    err = tail_weight_bound(K, t, k_min=min(K, defaults.K_MIN_FLOOR)).bound * g_sup
    return WeightedValue(value, err)


# ------------------------------------------------------------------ pressure

def _ratio_estimate(S, j, t, K, prune):
    """Pressure estimate from the level-j / level-(j-1) sum ratio."""
    s2, s1, s0 = S[j], S[j - 1], S[j - 2]
    if not all(np.isfinite(sv.value) and sv.value > 0 for sv in (s0, s1, s2)):
        return PressureEstimate(t, math.nan, math.inf, j, K, prune)
    value = math.log(s2.value / s1.value)
    drift = abs(value - math.log(s1.value / s0.value))
    if s2.lo > 0 and s1.lo > 0:
        hi = math.log(s2.hi / s1.lo)
        lo = math.log(s2.lo / s1.hi)
        interval = max(hi - value, value - lo)
    else:
        interval = math.inf
    return PressureEstimate(t, value, interval + drift, j, K, prune)


def pressure_ratio(params: MapParams, t: float, z, n: int,
                   K: int = defaults.K, prune: float = defaults.PRUNE,
                   budget: int = defaults.NODE_BUDGET) -> PressureEstimate:
    """log of the depth-n level-sum ratio, with interval + drift uncertainty.

    The ratio converges like a power method on the leading eigenvalue of the
    truncated operator; the drift between the last two ratios stands in for
    the unquantified spectral gap.
    """
    if n < 2:
        raise ValueError("pressure_ratio needs n >= 2")
    S = transfer_level_sums(params, t, z, n, K, prune, budget)
    return _ratio_estimate(S, n, t, K, prune)


def best_ratio_estimate(params: MapParams, t: float, z, n: int,
                        K: int = defaults.K, prune: float = defaults.PRUNE,
                        budget: int = defaults.NODE_BUDGET, *,
                        store=None) -> PressureEstimate:
    """The ratio depth (2..n) with the smallest reported uncertainty.

    Early ratios carry power-iteration transient (drift), late ones carry
    accumulated truncation mass; one tree expansion yields them all, and the
    reported uncertainty is an honest selector between the two regimes.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    S = transfer_level_sums(params, t, z, n, K, prune, budget, store=store)
    best = None
    for j in range(2, len(S)):
        est = _ratio_estimate(S, j, t, K, prune)
        if best is None or est.uncertainty < best.uncertainty:
            best = est
    return best


def _shadow_cycles(params, lv, n, tol):
    """Refine depth-n tree paths into period-n cycles (vectorised shadowing)."""
    nodes = lv.nodes
    leaf = nodes[n]
    n_words = leaf.x.size
    if n_words == 0:
        return np.empty((n, 0), complex)
    U = np.empty((n, n_words), dtype=np.complex128)
    L = np.empty((n, n_words), dtype=np.int64)
    idx = np.arange(n_words)
    for i in range(n):  # u_i = node at depth n-i
        lvl = nodes[n - i]
        U[i] = lvl.x[idx]
        L[i] = lvl.k[idx]
        idx = lvl.parent[idx]
    A = params.affine_term
    ell = params.ell
    active = np.ones(n_words, dtype=bool)
    for _ in range(60):
        move = np.zeros(n_words)
        for i in range(n - 1, -1, -1):
            target = U[(i + 1) % n]
            B = target[active] - A + (TWO_PI * 1j) * L[i][active]
            xa = U[i][active]
            for _ in range(8):
                e = np.exp(xa)
                gp = ell - e
                gp = np.where(np.abs(gp) < 1e-290, 1e-290, gp)
                xa = xa - (ell * xa - e - B) / gp
            step = np.abs(xa - U[i][active])
            move[active] = np.maximum(move[active], step)
            U[i][active] = xa
        active &= np.isfinite(move) & (move > 0.25 * tol)
        if not active.any():
            break
    # validate the cycle relations on the cylinder
    good = np.ones(n_words, dtype=bool)
    for i in range(n):
        img = ell * U[i] + A - np.exp(U[i])
        good &= cylinder_distance(img, U[(i + 1) % n]) < tol * max(1, n)
        good &= np.isfinite(U[i])
    dropped = int(n_words - good.sum())
    if dropped:
        log.info("zeta: %d of %d words did not close up", dropped, n_words)
    return canonical(U[:, good])


def periodic_points(params: MapParams, n: int, K: int):
    """All period-n points reachable as fixed points of branch words |k| <= K.

    Returns (points, multipliers): points has shape (n, m) with column i the
    orbit x, F(x), ..., F^{n-1}(x); multipliers are the (F^n)' values.  Words
    are seeded by the depth-n preimage tree of the base point and refined by
    a cyclic shadowing iteration; only repelling cycles are kept (the single
    attracting fixed point belongs to the Fatou set).  Lower periods dividing
    n are included, as they are fixed points of F^n.
    """
    if not 1 <= n <= 4:
        raise ValueError("periodic_points supports n in 1..4")
    words = float(2 * K + 2) ** n
    if words > 4e6:
        raise ValueError(f"word alphabet too large: (2K+2)^n = {words:.3g}")
    base = default_base_point(params)
    lv = _grow(params, 1.5, base, n, K, prune=0.0,
               budget=int(4 * words + 1000), keep_nodes=True)
    if lv.budget_exceeded or len(lv.nodes) <= n or lv.nodes[n] is None:
        raise NumericsError("periodic_points: tree expansion exhausted its budget")
    U = _shadow_cycles(params, lv, n, defaults.TOL)
    if U.shape[1] == 0:
        return U, np.empty(0, dtype=np.complex128)
    mult = np.prod(params.ell - np.exp(U), axis=0)
    repelling = np.abs(mult) > 1.0 + 1e-9
    U, mult = U[:, repelling], mult[repelling]
    # one entry per periodic point: deduplicate on the cycle starting point
    n_pts = U.shape[1]
    radius = defaults.DEDUP_FACTOR * defaults.TOL
    uniq = np.sort(_dedupe_sorted(np.zeros(n_pts, np.int64), np.arange(n_pts),
                                  U[0], U[0], radius)[1])
    return U[:, uniq], mult[uniq]


def zeta_pressure(params: MapParams, t: float, n: int, K: int) -> PressureEstimate:
    """Periodic-orbit pressure: (1/n) log sum over period-n points of |(F^n)'|^-t.

    Desk scale: n <= 3.  The omitted-word uncertainty applies the branch
    tail bound once per word position, scaled by the runtime operator-norm
    estimate; non-convergent words are dropped and logged.
    """
    check_t(t)
    _, mult = periodic_points(params, n, K)
    if mult.size == 0:
        return PressureEstimate(t, math.nan, math.inf, n, K, 0.0)
    total = float((np.abs(mult) ** (-t)).sum())
    value = math.log(total) / n
    b_hat = max(1.0, _sup_l1(params, t))
    omitted = n * tail_bound_value(K, t) * b_hat ** (n - 1)
    unc = (math.log(total + omitted) - math.log(total)) / n
    return PressureEstimate(t, value, unc, n, K, 0.0)


# ------------------------------------------------ eigenfunction & conformal

@dataclass(frozen=True)
class FunctionSamples:
    """Sampled nonnegative function values, base-point normalised."""

    points: np.ndarray
    values: np.ndarray
    t: float
    rel_changes: tuple = ()
    iterates: np.ndarray = None


def eigenfunction_iterate(params: MapParams, t: float, samples, iterations: int,
                          K: int = defaults.K, prune: float = defaults.PRUNE,
                          *, budget: int = defaults.NODE_BUDGET) -> FunctionSamples:
    """Normalised iterates (e^-P L_t)^m 1 at the sample points.

    Values are renormalised so the iterate equals 1 at the base point, which
    replaces the (unavailable) conformal-measure normalisation; the two
    differ by a positive scalar.  Successive sup-relative changes reported.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    base = default_base_point(params)
    pts = np.array([canonical(s) for s in samples], dtype=np.complex128)
    if not pts.size:
        raise ValueError("samples must name at least one point")
    allpts = np.concatenate([pts, [canonical(base)]])
    raw = np.empty((iterations + 1, allpts.size))
    for j, p in enumerate(allpts):
        S = transfer_level_sums(params, t, p, iterations, K, prune, budget)
        raw[:, j] = [sv.value for sv in S]
    norm = raw[:, -1]
    if np.any(norm <= 0) or not np.all(np.isfinite(norm)):
        raise NumericsError("base-point normalisation failed (budget too small?)")
    iters = raw[:, :-1] / norm[:, None]
    rel = []
    for m in range(1, iterations + 1):
        num = np.abs(iters[m] - iters[m - 1]).max()
        den = max(np.abs(iters[m]).max(), 1e-300)
        rel.append(float(num / den))
    return FunctionSamples(pts, iters[-1], t, tuple(rel), iters)


@dataclass(frozen=True)
class AtomicMeasure:
    """Unit-mass atomic approximation of the conformal measure."""

    points: np.ndarray
    masses: np.ndarray
    t: float
    depth: int
    base: CylinderPoint

    @property
    def total_mass(self):
        return float(self.masses.sum())


def conformal_atoms(params: MapParams, t: float, P: float, base, depth: int,
                    K: int = defaults.K, prune: float = defaults.PRUNE,
                    budget: int = defaults.NODE_BUDGET) -> AtomicMeasure:
    """Atoms at depth-`depth` preimages of base, masses ~ |(F^d)'|^-t e^(dP)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > defaults.ATOM_DEPTH_CAP:
        raise ValueError(f"depth capped at {defaults.ATOM_DEPTH_CAP}")
    if not math.isfinite(P):
        raise ValueError(f"P must be finite, got {P}")
    b = canonical(base)
    if depth == 0:
        return AtomicMeasure(np.array([b]), np.array([1.0]), t, 0,
                             CylinderPoint.from_complex(b))
    lv = _grow(params, t, b, depth, K, prune, budget, keep_nodes=True)
    if lv.budget_exceeded or lv.nodes[depth] is None or lv.nodes[depth].x.size == 0:
        raise NumericsError("conformal_atoms: enumeration exhausted the budget")
    leaf = lv.nodes[depth]
    masses = np.exp(depth * P - t * leaf.lam)
    masses = masses / masses.sum()
    return AtomicMeasure(leaf.x.copy(), masses, t, depth,
                         CylinderPoint.from_complex(b))
