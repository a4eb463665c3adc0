import cmath
import dataclasses
import importlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from bowendim import (MapParams, canonical, cylinder_distance, defaults,
                      evaluate, fixed_points, inverse_branch, preimage_arrays,
                      preimages, tail_weight_bound)
from bowendim.errors import BranchMiss, InvalidTol, TNotSummable
from bowendim.dimension import bowen_dimension
from bowendim.preimages import _dedupe_sorted, _one_k_per_cell
from oracles import (dedupe_reference, dedupe_sorted_reference, lift_root_oracle,
                     newton_batch_reference, preimage_arrays_reference,
                     preimage_oracle)

TWO_PI = 2 * math.pi
# the package exports the function preimages under the module's name
preimages_mod = importlib.import_module("bowendim.preimages")


def _newton_batches():
    """Seeded Newton batches (a, B, x0), each named for the exits it takes."""
    rng = np.random.default_rng(20261019)
    batches = {}
    for a in (2, 3, 4):
        k = rng.integers(-3000, 3001, 400)
        B = rng.uniform(-6, 6, k.size) + 1j * (rng.uniform(-4, 4, k.size)
                                              + TWO_PI * k)
        with np.errstate(all="ignore"):
            batches[f"asymptotic seeds, a={a}"] = (
                a, B, preimages_mod._log_seed(a, B))
            small = B[np.abs(k) <= 6]
            batches[f"robust seeds, a={a}"] = (
                a, np.tile(small, 9),
                preimages_mod._robust_seed_block(a, small).ravel())
    # one step leaves the band: e^x vanishes far left and dominates far
    # right, and the step is clipped to 1.5
    x0 = np.concatenate([rng.uniform(-199.9, -198.6, 50) + 1j * rng.uniform(-3, 3, 50),
                         rng.uniform(58.8, 59.9, 50) + 1j * rng.uniform(-0.3, 0.3, 50)])
    B = np.where(x0.real < 0, -1e3, -1e30) + 0j
    batches["leaving the band"] = (2, B, x0)
    bad = np.array([np.nan, complex(np.nan, 1.0), complex(1.0, np.inf),
                    complex(-np.inf, 0.0), complex(np.inf, np.nan), 0.5 + 0.5j])
    batches["non-finite seeds"] = (3, np.full(bad.size, 1.0 + 2.0j), bad)
    # the fold: at x0 = log a, a - e^x0 is exactly 0 for these a, and so is
    # g with B = a log a - a; a step of 1e-9 in Im x0 leaves Re(a - e^x0)
    # at 0 but not a - e^x0
    for a in (2, 4, 6):
        crit = math.log(a)
        assert a - np.exp(complex(crit, 0.0)) == 0
        assert (a - np.exp(complex(crit, 1e-9))).real == 0
        batches[f"fold, a={a}"] = (
            a, np.array([a * crit - a, a * crit - a + 1e-9j, 1.0 + 0.0j,
                         1.0 + 0.0j]) + 0j,
            np.array([crit, crit, crit, crit + 1e-9j]) + 0j)
    batches["one B for every seed"] = (2, np.complex128(0.5 + 3.0j),
                                       rng.uniform(-4, 4, 64) + 1j * rng.uniform(-3, 3, 64))
    return batches


_NEWTON = _newton_batches()


@pytest.mark.parametrize("iters", [1, 3, 12, 40])
@pytest.mark.parametrize("name", sorted(_NEWTON))
def test_newton_batch_matches_frozen_copy(name, iters):
    # the in-place kernel gives the plain one's bits, at the iteration cap
    # (1 and 3 stop most entries early) and after every other exit
    a, B, x0 = _NEWTON[name]
    with np.errstate(all="ignore"):
        got = preimages_mod._newton_batch(a, B, x0, iters)
        ref = newton_batch_reference(a, B, x0, iters)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_newton_batch_exits():
    # the batches above reach each exit of the kernel
    with np.errstate(all="ignore"):
        band = preimages_mod._newton_batch(*_NEWTON["leaving the band"], 1)
        fold = preimages_mod._newton_batch(*_NEWTON["fold, a=2"], 40)
        fast = _NEWTON["asymptotic seeds, a=2"]
        x = preimages_mod._newton_batch(*fast, 12)
    assert np.isnan(band).all()
    assert fold[0] == math.log(2)  # g = 0 with gp = 0: a zero step
    resid = np.abs(2 * x - np.exp(x) - fast[1])
    assert np.median(resid) < 1e-9 * np.median(np.abs(fast[1]))


def test_fixed_point_is_own_preimage(params22):
    ps = preimages(params22, cmath.log(2), 12)
    assert np.min(np.abs(ps.points() - cmath.log(2))) < 1e-12
    # generic parameter too
    p = MapParams(2, 2.3 + 0.25j)
    ps = preimages(p, p.log_c, 12)
    assert np.min(cylinder_distance(ps.points(), p.log_c)) < 1e-9


def test_residual_contract(params22):
    w = 1.1 - 0.6j
    ps = preimages(params22, w, 30)
    for b in ps.branches:
        assert cylinder_distance(evaluate(params22, b.x.z), w) < ps.tol
        assert abs((params22.ell - cmath.exp(b.x.z)) - b.deriv) < 1e-12


def test_sorted_and_deduplicated(params22):
    ps = preimages(params22, 0.2 + 0.9j, 25)
    ks = np.abs(ps.ks())
    assert np.all(np.diff(ks) >= 0)
    pts = ps.points()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert cylinder_distance(pts[i], pts[j]) > 10 * ps.tol


def test_preimage_set_contract(params22):
    # a generic target, and a real one, which has roots on Im = 0 (k = 0) and
    # on Im = pi (k = 1), the edge of the canonical strip
    for w in (0.2 + 0.9j, 0.5 + 0j):
        ps = preimages(params22, w, 40)
        br = ps.branches
        assert len(ps) == len(br) > 0
        built = {"points": np.array([b.x.z for b in br], dtype=np.complex128),
                 "ks": np.array([b.k for b in br], dtype=np.int64),
                 "derivs": np.array([b.deriv for b in br], dtype=np.complex128)}
        for name, want in built.items():
            got = getattr(ps, name)()
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            got[:] = 0  # a copy: the set is unchanged
            assert getattr(ps, name)().tobytes() == want.tobytes()
        assert [tuple(b) for b in ps.branches] == [tuple(b) for b in br]
        # ordered by |k|, then by real part
        ks, re = np.abs(built["ks"]), built["points"].real
        assert np.all((ks[1:] > ks[:-1]) | ((ks[1:] == ks[:-1]) & (re[1:] >= re[:-1])))
    # points() follows CylinderPoint's Im rule bit for bit on the strip
    # edges too, and keeps the sign of an Im of -0.0
    ims = [-0.0, 0.0, -math.pi, math.pi, np.nextafter(math.pi, 4.0)]
    edge = dataclasses.replace(
        ps, _ks=np.zeros(len(ims), dtype=np.int64),
        _xs=np.array([complex(0.5, im) for im in ims]),
        _derivs=np.ones(len(ims), dtype=np.complex128))
    assert edge.points().tobytes() == \
        np.array([b.x.z for b in edge.branches]).tobytes()


@pytest.mark.parametrize("ell, c", [(2, 2.0), (3, 3.0), (3, 3.2 - 0.3j),
                                    (5, 5.0)])
def test_preimages_are_preimage_arrays_in_branch_order(ell, c):
    # one solver: preimages() returns the bits of preimage_arrays() for its
    # one target, in its documented order, on generic targets and on targets
    # with a lift on the band edge |Im B| = a*pi (the Im = pi and real ones
    # at real c); a tolerance below the large-|k| residuals gives misses
    p = MapParams(ell, c)
    targets = list(_count_targets(p))
    if c == 3.0:
        targets.append(-5.560410724670101 + 3.141592653589793j)
    n_missed = 0
    for w in targets:
        for tol in (defaults.TOL, 1e-14):
            ps = preimages(p, w, 25, tol)
            _, ks, xs, ders, _, mk = preimage_arrays(p, [w], 25, tol=tol)
            order = np.lexsort((ks, xs.imag, xs.real, np.abs(ks)))
            _same_bits((ps.ks(), ps._xs, ps.derivs()),
                       (ks[order], xs[order], ders[order]))
            assert ps.misses == tuple(sorted(mk.tolist()))
            n_missed += len(ps.misses)
    assert n_missed > 0


def test_non_finite_target_is_rejected(params22):
    for w in (complex(1e400, 0.0), complex(0.5, 1e400), complex("nan+1j")):
        with pytest.raises(ValueError, match="finite"):
            preimages(params22, w, 5)


def test_count_matches_dense_oracle(params22):
    w = cmath.log(2)
    K = 20
    box = (-4.0, math.log(2 * math.pi * K) + 1)
    ox, _ = preimage_oracle(2, 2.0, w, box, spacing=0.1, k_cap=K)
    ps = preimages(params22, w, K)
    mine = ps.points()
    mine = mine[(mine.real >= box[0]) & (mine.real <= box[1])]
    assert mine.size == ox.size
    for z in mine:
        assert np.min(np.abs(ox - z)) < 1e-9


def test_large_k_asymptotics(params22):
    ps = preimages(params22, cmath.log(2), 101)
    x100 = [b.x for b in ps.branches if b.k == 100]
    assert len(x100) == 1
    assert abs(x100[0].re - math.log(TWO_PI * 100)) < 0.1


def test_derivative_lower_bound_validated(params22):
    ps = preimages(params22, 0.7 + 0.1j, 80)
    assert ps.derivative_bound_ok


def test_conjugation_symmetry_of_preimages():
    p = MapParams(2, 2.2 + 0.4j)
    w = 0.5 + 0.8j
    a = preimages(p, w, 15).points()
    b = preimages(p.conjugate(), np.conj(w), 15).points()
    assert a.size == b.size
    for z in a:
        assert np.min(cylinder_distance(np.conj(z), b)) < 1e-9


def test_tail_bound_closed_form():
    tb = tail_weight_bound(100, 2.0)
    assert tb.bound == pytest.approx(2 * 2 * (TWO_PI) ** -2 / 100, rel=1e-12)
    assert tb.bound == pytest.approx(1.0132e-3, rel=1e-3)
    assert tail_weight_bound(200, 1.5).bound < tail_weight_bound(100, 1.5).bound


def test_tail_bound_guards():
    with pytest.raises(TNotSummable):
        tail_weight_bound(100, 1.0)
    with pytest.raises(ValueError):
        tail_weight_bound(5, 1.5)


def test_preimages_refuses_k_beyond_the_limit(params22):
    # the trees' K limit, checked before any array is made
    with pytest.raises(ValueError, match="^K must be <= 32767, got 32768$"):
        preimages(params22, 0.5, 32_768)


def test_empirical_tail_below_bound(params22):
    ps = preimages(params22, cmath.log(2), 1000)
    ks = ps.ks()
    ders = np.abs(ps.derivs())
    sel = np.abs(ks) > 100
    for t in (1.5, 2.0):
        emp = float(np.sum(ders[sel] ** -t))
        assert emp <= tail_weight_bound(100, t).bound


def test_invalid_tol(params22):
    with pytest.raises(InvalidTol):
        preimages(params22, 1.0, 10, tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 1e300, 0.32])
def test_tol_needs_a_dedupe_radius_below_pi(params22, tol):
    # NaN and huge tolerances are refused like non-positive ones; 0.32
    # makes the dedupe radius DEDUP_FACTOR * tol reach pi
    calls = (lambda: preimages(params22, 1.0 + 1.0j, 20, tol=tol),
             lambda: fixed_points(params22, (-2, 2), tol=tol),
             lambda: inverse_branch(params22, 1.0, [1], tol=tol),
             lambda: preimage_arrays(params22, np.array([1.0 + 1.0j]), 5,
                                     tol=tol))
    for call in calls:
        with pytest.raises(InvalidTol):
            call()


def test_inverse_branch_single_letter(params22):
    w = 0.4 + 0.3j
    ps = preimages(params22, w, 8)
    for k in (-3, 2):
        x = inverse_branch(params22, w, [k])
        matches = [b for b in ps.branches if b.k == k]
        assert any(cylinder_distance(x.z, b.x.z) < 1e-9 for b in matches)


def test_inverse_branch_word_residual(params22):
    w = 0.4 + 0.3j
    word = [2, -1, 3, 0, -2]
    x = inverse_branch(params22, w, word)
    z = x.z
    for _ in word:
        z = evaluate(params22, z)
    assert cylinder_distance(z, w) < len(word) * 1e-11


def test_inverse_branch_rejects_empty_word(params22):
    with pytest.raises(ValueError):
        inverse_branch(params22, 0.5, [])


def test_inverse_branch_contraction(params22, rng):
    """Empirical fit of the inverse-branch contraction |(F_v^-n)'| <= L b^n."""
    rates = []
    for _ in range(40):
        n = int(rng.integers(3, 7))
        word = [int(k) for k in rng.integers(1, 7, n) * rng.choice([-1, 1], n)]
        w1 = complex(rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0))
        delta = 1e-4 * complex(rng.standard_normal(), rng.standard_normal())
        try:
            x1 = inverse_branch(params22, w1, word)
            x2 = inverse_branch(params22, w1 + delta, word)
        except BranchMiss:
            continue
        contr = cylinder_distance(x1.z, x2.z) / abs(delta)
        rates.append((n, contr))
    assert len(rates) > 20
    ns = np.array([r[0] for r in rates])
    logc = np.log([max(r[1], 1e-300) for r in rates])
    slope, _ = np.polyfit(ns, logc, 1)
    beta = math.exp(slope)
    assert beta < 1.0


def test_repeated_word_converges_to_periodic(params22):
    fp1 = [q for q in fixed_points(params22, (1, 1)) if abs(q.multiplier) > 1][0]
    x = inverse_branch(params22, 0.5 + 0.2j, [1] * 25)
    assert cylinder_distance(x.z, fp1.point.z) < 1e-9


def test_misses_recorded_empty_on_generic_target(params22):
    assert preimages(params22, 0.33 + 0.21j, 60).misses == ()


def test_every_small_branch_has_a_root(params22, rng):
    # each lift index carries at least its asymptotic root
    for _ in range(5):
        w = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
        ps = preimages(params22, w, 6)
        assert set(range(-6, 7)) <= set(ps.ks().tolist())


def _same_bits(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.tobytes() == r.tobytes()


def _seeded_targets(ell, n, seed):
    rng = np.random.default_rng([seed, ell])
    return rng.uniform(-2 * ell, 6, n) + 1j * rng.uniform(-math.pi, math.pi, n)


@pytest.mark.parametrize("ell, c", [(2, 2.0), (2, 2.3 + 0.4j), (3, 3.2 - 0.3j)])
@pytest.mark.parametrize("K", [64, 512, 4096])
def test_slot_table_matches_reference_path(ell, c, K):
    p = MapParams(ell, c)
    targets = _seeded_targets(ell, 12, K)
    got = preimage_arrays(p, targets, K)
    ref, _ = preimage_arrays_reference(p, targets, K)
    _same_bits(got, ref)
    if K == 4096:  # the absolute residual gate rejects roots at |k| ~ 1,800+
        assert got[4].size > 0


def test_slot_table_fallback_when_cells_can_span_k():
    # a coarse tolerance widens the dedupe cells until one cell could hold
    # two lift indices: the full dedupe runs instead of the slot shortcut
    p = MapParams(2, 2.0)
    targets = _seeded_targets(2, 4, 7)
    tol = 1e-3
    got = preimage_arrays(p, targets, 64, tol=tol)
    ref, cand = preimage_arrays_reference(p, targets, 64, tol=tol)
    assert not _one_k_per_cell(2, float(np.abs(cand[3]).max()),
                               defaults.DEDUP_FACTOR * tol, tol)
    _same_bits(got, ref)


def test_slot_table_with_many_small_k_duplicates():
    # every small-|k| pair is asked for 16 times, so each of its roots comes
    # many times over into one slot, while the lone large-|k| roots take the
    # slot shortcut
    for ell, c in ((2, 2.0), (3, 3.2 - 0.3j)):
        p = MapParams(ell, c)
        crit_value = canonical(evaluate(p, p.critical_point))
        targets = np.concatenate([[p.log_c, crit_value],
                                  _seeded_targets(ell, 3, 11)])
        rhs = targets - p.affine_term
        pair_i, pair_k, kmax = preimages_mod._uniform_pairs(targets.size, 12)
        k_sec = preimages_mod.k_secondary(ell, rhs.imag)
        reps = np.where(np.abs(pair_k) <= k_sec[pair_i], 16, 1)
        pair_i, pair_k = np.repeat(pair_i, reps), np.repeat(pair_k, reps)
        got = preimages_mod.solve_strip_equations(ell, rhs, pair_i, pair_k,
                                                  kmax)
        cand = preimages_mod._strip_candidates(ell, rhs, pair_i, pair_k, kmax,
                                               k_sec, tol=defaults.TOL)
        ref = dedupe_reference(*cand, defaults.DEDUP_FACTOR * defaults.TOL)
        assert cand[0].size > 5 * got[0].size
        _same_bits(got, ref)


def test_straggler_order_matches_lexsort():
    # the dedupe's exact pass orders by (target, real, imaginary) with two
    # stable argsorts; exact real ties and signed zeros keep the lexsort order
    rng = np.random.default_rng(31)
    n = 4000
    i_s = rng.integers(0, 40, n)
    re = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], n)
    im = rng.choice([-0.0, 0.0, 1.0, -3.0], n) + np.where(
        rng.random(n) < 0.5, 0.0, rng.uniform(-3, 3, n))
    x_s = re + 1j * im
    o = np.argsort(x_s, kind="stable")
    o = o[np.argsort(i_s[o], kind="stable")]
    assert np.array_equal(o, np.lexsort((x_s.imag, x_s.real, i_s)))


def _dedupe_input(rng, n, n_targets, radius):
    """Roots of n_targets targets, with planted equal real parts, +-0.0 in
    both parts, exact duplicates, pairs just within the radius across a
    cell boundary and pairs within the radius across the seam Im = +-pi;
    entries with no other entry of their target within 4 radius in the
    plane are flagged alone, nine in ten of them."""
    re = np.where(rng.random(n) < 0.5, rng.choice([-1.5, -0.0, 0.0, 2.0], n),
                  rng.uniform(-4, 4, n))
    im = np.where(rng.random(n) < 0.5, rng.choice([-0.0, 0.0, 1.0, -3.0], n),
                  rng.uniform(-3, 3, n))
    dup = rng.integers(0, n, n // 10)
    edge = (rng.integers(-1000, 1000, n // 10) + 0.5) * radius  # rounds up
    edge = edge - 0.3 * radius + 1j * rng.uniform(-3, 3, edge.size)
    seam = rng.uniform(-4, 4, n // 50) + 1j * (math.pi - 0.25 * radius)
    xs = np.concatenate([re + 1j * im, (re + 1j * im)[dup],
                         edge, edge + 0.6 * radius,
                         seam, seam - 2j * math.pi + 0.5j * radius])
    i_idx = rng.integers(0, n_targets, n)
    pair, seam_pair = (rng.integers(0, n_targets, m.size) for m in (edge, seam))
    i_idx = np.concatenate([i_idx, i_idx[dup], pair, pair, seam_pair, seam_pair])
    ks = rng.integers(-40, 40, xs.size)
    order = rng.permutation(xs.size)
    i_idx, ks, xs = i_idx[order], ks[order], xs[order]
    by = np.lexsort((xs.real, i_idx))
    i_b, x_b = i_idx[by], xs[by]
    crowded = np.zeros(xs.size, dtype=bool)
    for off in range(1, xs.size):
        same = (i_b[off:] == i_b[:-off]) \
            & (np.abs(x_b.real[off:] - x_b.real[:-off]) < 4 * radius)
        if not same.any():
            break
        near = same & (np.abs(x_b[off:] - x_b[:-off]) < 4 * radius)
        crowded[by[off:][near]] = crowded[by[:-off][near]] = True
    alone = ~crowded & (rng.random(xs.size) < 0.9)
    return i_idx, ks, xs, xs * 2.0, alone


@pytest.mark.parametrize("n_targets", [300, 70_000])
def test_exact_pass_matches_the_two_sort_reference(n_targets):
    # the exact pass sorts the real part unstably, the target by radix below
    # 2^16 targets and by a stable int64 sort from there, then restores the
    # input order in runs of equal (target, real part); an alone entry is
    # compared only across the seam.  The output is the two-sort code's
    rng = np.random.default_rng([20261020, n_targets])
    radius = defaults.DEDUP_FACTOR * defaults.TOL
    i_idx, ks, xs, exs, alone = _dedupe_input(rng, 30_000, n_targets, radius)
    assert (np.ptp(i_idx) >= 1 << 16) == (n_targets > 1 << 16)
    assert alone.sum() > 10_000
    assert (alone & (np.abs(xs.imag) > math.pi - radius)).sum() > 400
    for flags in (None, alone):
        got = _dedupe_sorted(i_idx, ks, xs, exs, radius, flags)
        ref = dedupe_sorted_reference(i_idx, ks, xs, exs, radius, flags)
        _same_bits(got, ref)
        assert got[0].size < xs.size - 3_000


def test_dedupe_output_sorted_by_target_real_imag():
    rng = np.random.default_rng(5)
    n = 3000
    i_idx = rng.integers(0, 30, n)
    xs = rng.choice([-0.0, 0.0, 0.5], n) + 1j * rng.uniform(-3, 3, n)
    i_s, _, x_s, _ = _dedupe_sorted(i_idx, np.zeros(n, np.int64), xs,
                                    np.exp(xs), 1e-10)
    assert np.array_equal(np.lexsort((x_s.imag, x_s.real, i_s)),
                          np.arange(i_s.size))


def _count_targets(p):
    """Canonical targets: two seeded ones, one on Im = pi, one on Im = -pi
    (canonicalised onto pi), a real one and the fold's critical value, one
    lift of which has a double root at x = log(ell)."""
    rng = np.random.default_rng([29, p.ell])
    w = [*_seeded_targets(p.ell, 2, 29),
         complex(rng.uniform(-p.ell, 4), math.pi),
         complex(rng.uniform(-p.ell, 4), -math.pi),
         complex(rng.uniform(-p.ell, 4), 0.0),
         evaluate(p, p.critical_point)]
    return canonical(np.array(w))


def _check_lift_counts(a, rhs, ks, counts):
    """The library's count per lift against the oracle's (with multiplicity).

    On the band edge |Im B| = a*pi one root lies on Im x = +-pi, which the
    half-open strip gives to the lift with Im B = +a*pi: the two edge lifts,
    a apart, hold three roots between them.
    """
    B = rhs + 2j * np.pi * ks
    need, edge = preimages_mod._root_count(a, B)
    on_edge = np.isclose(np.abs(B.imag), a * np.pi, rtol=1e-9, atol=0)
    assert np.array_equal(edge, on_edge)
    assert np.array_equal(counts[~edge], need[~edge])
    for j in np.flatnonzero(edge & (B.imag > 0)):
        partner = ks == ks[j] - a
        if partner.any():
            assert counts[j] + counts[partner][0] == 3
    return ks[edge]


def _check_same_roots(lib_k, lib_x, or_k, or_x, edge_ks):
    """One library root per oracle root, on the same lift off the edge."""
    assert lib_x.size == or_x.size
    d = cylinder_distance(lib_x[:, None], or_x[None, :])
    assert (d.min(axis=1) < 1e-9).all() and (d.min(axis=0) < 1e-9).all()
    same_k = lib_k == or_k[d.argmin(axis=1)]
    assert np.all(same_k | np.isin(lib_k, edge_ks))


_COUNT_PARAMS = [(ell, c) for ell in (2, 3, 5, 8, 16)
                 for c in (ell + 0j, ell + 0.3j, ell + 0.97 * cmath.exp(2.2j))]


@pytest.mark.parametrize("ell, c", _COUNT_PARAMS)
def test_lift_root_count_matches_dense_oracle(ell, c):
    # lift k, B = rhs + 2 pi i k, has two strip roots (with multiplicity)
    # inside the band |Im B| < a pi and one outside it; the solve finds
    # every root the oracle finds.  a = ell for preimages and a = ell - 1
    # for fixed points
    p = MapParams(ell, c)
    K = ell + 4
    ks = np.arange(-K, K + 1)
    targets = _count_targets(p)
    got = preimage_arrays(p, targets, K)
    n_edge = n_double = 0
    for i, w in enumerate(targets):
        rhs = w - p.affine_term
        counts, ox, ok = lift_root_oracle(ell, rhs, ks)
        edge_ks = _check_lift_counts(ell, rhs, ks, counts)
        sel = np.abs(ok) <= K
        _check_same_roots(got[1][got[0] == i], got[2][got[0] == i],
                          ok[sel], ox[sel], edge_ks)
        n_edge += edge_ks.size
        n_double += int(np.sum(ox[sel] == math.log(ell)))
    assert n_double >= 1  # the critical value's double root
    if c.imag == 0:  # lifts of the real or the Im = pi targets on the edge
        assert n_edge >= 2
    a = ell - 1
    counts, ox, ok = lift_root_oracle(a, -p.affine_term, ks)
    edge_ks = _check_lift_counts(a, -p.affine_term, ks, counts)
    pts = fixed_points(p, (-K, K))
    sel = np.abs(ok) <= K
    _check_same_roots(np.array([q.branch_word[0] for q in pts]),
                      np.array([q.point.z for q in pts]), ok[sel], ox[sel],
                      edge_ks)


def _spy_robust_blocks(monkeypatch):
    """The lifts B that each solve sends to the robust seed block, and a
    flag that is up while the block builds its seeds."""
    blocks, inside = [], [False]
    robust = preimages_mod._robust_seed_block

    def spy(a, B):
        blocks.append(np.array(B))
        inside[0] = True
        try:
            return robust(a, B)
        finally:
            inside[0] = False

    monkeypatch.setattr(preimages_mod, "_robust_seed_block", spy)
    return blocks, inside


def _pair_multiset(out):
    is_, ks = out[0], out[1]
    return sorted(zip(is_.tolist(), ks.tolist()))


_SEED_FAILURES = ["asymptotic seed lost", "asymptotic seed on another lift",
                  "fold seed lost", "fold seed on another lift",
                  "fold seed on the other root"]


@pytest.mark.parametrize("ell, c", [(2, 2.0), (3, 3.2 - 0.3j), (5, 5.5)])
@pytest.mark.parametrize("failing", _SEED_FAILURES)
def test_lifts_short_of_their_count_take_the_robust_block(ell, c, failing,
                                                          monkeypatch):
    # the asymptotic seed fails on the band lifts and the first lift beyond
    # each band edge, or fold_m fails on every band lift in the first pass:
    # it is lost (NaN), or it finds a root of lift k + a shifted by -2 pi i
    # (which re-indexes away from its own lift), or fold_m finds fold_p's
    # root
    p = MapParams(ell, c)
    targets = np.concatenate([_seeded_targets(ell, 6, 5),
                              [canonical(p.log_c),
                               canonical(evaluate(p, p.critical_point))]])
    ref = preimage_arrays(p, targets, 40)
    blocks, inside = _spy_robust_blocks(monkeypatch)
    if failing.startswith("asymptotic"):
        log_seed = preimages_mod._log_seed

        def seed(a, B):
            x = log_seed(a, B)
            near = np.abs(B.imag) < (a + 2) * math.pi
            if failing.endswith("lost"):
                x[near] = np.nan
            else:
                x[near] = log_seed(a, B[near] + 2j * np.pi * a) - 2j * np.pi
            return x

        monkeypatch.setattr(preimages_mod, "_log_seed", seed)
    else:
        fold_seeds = preimages_mod._fold_seeds

        def seed(a, B):
            x = fold_seeds(a, B)
            if inside[0]:
                return x
            if failing.endswith("lost"):
                x[1] = np.nan
            elif failing.endswith("another lift"):
                x[1] = preimages_mod._log_seed(a, B + 2j * np.pi * a) \
                    - 2j * np.pi
            else:
                x[1] = x[0]
            return x

        monkeypatch.setattr(preimages_mod, "_fold_seeds", seed)
    got = preimage_arrays(p, targets, 40)
    assert _pair_multiset(got) == _pair_multiset(ref)
    for g, r in zip(got[4:], ref[4:]):
        assert np.array_equal(g, r)
    fell = np.concatenate(blocks)
    if failing.startswith("asymptotic"):
        rhs = targets - p.affine_term
        k_sec = preimages_mod.k_secondary(ell, rhs.imag)
        for r, km in zip(rhs, k_sec):  # the band's fold seeds may do
            B = r + 2j * np.pi * np.arange(-km, km + 1)
            im = np.abs(B.imag)
            beyond = B[(im >= ell * math.pi) & (im < (ell + 2) * math.pi)]
            assert beyond.size >= 1 and np.isin(beyond, fell).all()
    else:
        assert fell.size > 0


def test_band_edge_lifts_take_the_robust_block(monkeypatch):
    # real targets at (2, 2) put lifts +-1 on Im B = +-2 pi, targets on
    # Im = pi at (3, 3) put lifts 1 and -2 on Im B = +-3 pi; a lift a
    # relative 1e-10 off the edge counts as on it
    blocks, _ = _spy_robust_blocks(monkeypatch)
    for ell, w in ((2, 0.5 + 0j), (2, -1.5 + 6e-10j), (3, 0.7 + math.pi * 1j),
                   (3, -2.0 + (math.pi - 9e-10) * 1j)):
        p = MapParams(ell, float(ell))
        blocks.clear()
        preimage_arrays(p, [w], 30)
        rhs = w - p.affine_term
        km = int(preimages_mod.k_secondary(ell, rhs.imag))
        B = rhs + 2j * np.pi * np.arange(-km, km + 1)
        edge = np.abs(np.abs(B.imag) - ell * np.pi) <= 1e-9 * ell * np.pi
        assert edge.sum() == 2
        assert np.isin(B[edge], np.concatenate(blocks)).all()


def _band_edge_targets(p, a):
    """Targets that put lifts of a*x - e^x = rhs + 2 pi i k on the band edge
    |Im B| = a*pi, and a relative 5e-10 and 2e-9 outside it."""
    rng = np.random.default_rng([37, p.ell, a])
    out = []
    for off in (0.0, 5e-10, -5e-10, 2e-9, -2e-9):
        im = math.remainder(p.affine_term.imag + a * math.pi * (1 + off), TWO_PI)
        out += [complex(re, im) for re in rng.uniform(-40, 20, 2)]
    return np.array(out)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 8, 16])
def test_k_secondary_is_the_band_edge(ell):
    # every lift with two roots or on the band edge lies within k_secondary,
    # and k_secondary lies at most one lift beyond the last of them; a = ell
    # for preimages and a = ell - 1 for fixed points.  Besides canonical
    # targets, rhs values with |Im rhs| up to 3 pi stretch the band's reach
    rng = np.random.default_rng([43, ell])
    wide = rng.uniform(-40, 20, 8) + 1j * rng.uniform(-3 * math.pi, 3 * math.pi, 8)
    n_edge = 0
    for c in (ell + 0j, ell + 0.3j, ell + 0.97 * cmath.exp(2.2j)):
        p = MapParams(ell, c)
        targets = np.concatenate([
            _seeded_targets(ell, 8, 41), [p.log_c, evaluate(p, p.critical_point)],
            [complex(r, s * math.pi) for r in (-30.0, 5.0) for s in (1, -1)]])
        for a in (ell, ell - 1):
            rhs = np.concatenate([canonical(targets), _band_edge_targets(p, a)]) \
                - p.affine_term
            rhs = np.concatenate([rhs, wide])
            k_sec = preimages_mod.k_secondary(a, rhs.imag)
            ks = np.arange(-ell - 4, ell + 5)
            need, edge = preimages_mod._root_count(a, rhs[:, None] + 2j * np.pi * ks)
            flagged = (need == 2) | edge
            assert flagged.any(axis=1).all()
            top = np.where(flagged, np.abs(ks), -1).max(axis=1)
            assert (top <= k_sec).all() and (k_sec <= top + 1).all()
            assert (k_sec < ks.max()).all()
            n_edge += int(edge.sum())
    assert n_edge > 0


def test_robust_newton_seeds_at_the_base_point(params22, base22, monkeypatch):
    # the (2, 2) base point at K = 512 has 5 lifts up to k_secondary; its two
    # band lifts run the two fold seeds each and no lift falls short
    runs = []
    newton = preimages_mod._newton_batch

    def spy(a, B, x0, iters):
        if iters == preimages_mod._ROBUST_ITERS:
            runs.append(np.size(x0))
        return newton(a, B, x0, iters)

    monkeypatch.setattr(preimages_mod, "_newton_batch", spy)
    preimage_arrays(params22, [base22], 512)
    assert sum(runs) == 4


@pytest.fixture()
def small_blocks(monkeypatch):
    """Split every call of two or more targets into blocks of <= 700 pairs."""
    monkeypatch.setattr(preimages_mod, "_SPLIT_PAIRS", 1)
    monkeypatch.setattr(preimages_mod, "_BLOCK_PAIRS", 700)


def _one_block(fn, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(preimages_mod, "_SPLIT_PAIRS", 1 << 62)
        return fn()


def test_block_cuts_follow_targets(small_blocks):
    pair_i, _, _ = preimages_mod._uniform_pairs(9, np.arange(9) * 40 + 3)
    cuts = preimages_mod._block_cuts(pair_i)
    assert len(cuts) > 3 and cuts[0] == 0 and cuts[-1] == pair_i.size
    starts = set(np.flatnonzero(np.diff(pair_i)) + 1)
    assert all(c in starts for c in cuts[1:-1])
    # decreasing target order (as a caller might build it) is never split
    assert preimages_mod._block_cuts(pair_i[::-1].copy()) == [0, pair_i.size]


def test_one_target_makes_no_pool(monkeypatch):
    def no_pool():
        raise AssertionError("a call that cannot split made the solver pool")

    monkeypatch.setattr(preimages_mod, "_solver_pool", no_pool)
    pair_i = np.zeros(preimages_mod._SPLIT_PAIRS + 1, dtype=np.int64)
    assert preimages_mod._block_cuts(pair_i) == [0, pair_i.size]


@pytest.mark.parametrize("ell, c", [(2, 2.3 + 0.4j), (3, 3.2 - 0.3j)])
@pytest.mark.parametrize("K", [64, 512, 4096])
def test_blocked_solve_matches_one_block(ell, c, K, small_blocks, monkeypatch):
    p = MapParams(ell, c)
    targets = _seeded_targets(ell, 12, K + 1)
    ref = _one_block(lambda: preimage_arrays(p, targets, K),
                     monkeypatch)
    got = preimage_arrays(p, targets, K)
    _same_bits(got, ref)
    if K == 4096:
        assert got[4].size > 0


def _target_rows(out, i):
    """Target i's roots (k, x, F') and missed k from a tracked solve."""
    is_, ks, xs, ders, mi, mk = out
    return ks[is_ == i], xs[is_ == i], ders[is_ == i], mk[mi == i]


@pytest.mark.parametrize("blocks", ["one block", "small blocks"])
def test_target_roots_do_not_depend_on_co_targets(blocks, request):
    # a co-target near Im = pi has |Im rhs| > pi, hence a larger cutoff of
    # its own; the other target's roots must come out as when it is solved
    # alone
    if blocks == "small blocks":
        request.getfixturevalue("small_blocks")
    p = MapParams(3, 3.2 - 0.3j)
    z, far = -7.0 - 0.7j, -40.0 + 3.1j
    k_sec = preimages_mod.k_secondary
    assert k_sec(3, (z - p.affine_term).imag) < k_sec(3, (far - p.affine_term).imag)
    alone = preimage_arrays(p, [z], 64)
    both = preimage_arrays(p, [z, far], 64)
    rows = _target_rows(both, 0)
    assert rows[0].size > 0
    _same_bits(rows, _target_rows(alone, 0))


def test_blocked_solve_when_cells_can_span_k(small_blocks, monkeypatch):
    p = MapParams(2, 2.0)
    targets = _seeded_targets(2, 8, 7)
    tol = 1e-3
    radius = defaults.DEDUP_FACTOR * tol
    ref = _one_block(lambda: preimage_arrays(p, targets, 64, tol=tol),
                     monkeypatch)
    got = preimage_arrays(p, targets, 64, tol=tol)
    _same_bits(got, ref)
    # the slot shortcut's guard fails in some block (one block per target)
    # the guard of the slot shortcut fails in the block holding the largest
    # |e^x| (got[3] is 2 - e^x)
    assert not _one_k_per_cell(2, float(np.abs(2 - got[3]).max()), radius, tol)


def test_other_threads_solve_as_one_block(small_blocks, monkeypatch):
    p = MapParams(2, 2.0)
    targets = _seeded_targets(2, 6, 3)
    ref = _one_block(lambda: preimage_arrays(p, targets, 200), monkeypatch)

    def no_pool():
        raise AssertionError("the solver pool was used off the main thread")

    monkeypatch.setattr(preimages_mod, "_solver_pool", no_pool)
    out, errors = [], []

    def work():
        try:
            out.append(preimage_arrays(p, targets, 200))
        except Exception as exc:  # reported from the main thread below
            errors.append(exc)

    th = threading.Thread(target=work)
    th.start()
    th.join(timeout=120)
    assert not th.is_alive()
    assert not errors, errors
    _same_bits(out[0], ref)


def test_worker_thread_solves_bounded_blocks_inline(small_blocks, monkeypatch):
    # off the main thread a large call is cut into _BLOCK_PAIRS blocks too,
    # which bounds its temporaries, and they run in turn on that thread
    p = MapParams(2, 2.0)
    targets = _seeded_targets(2, 6, 3)
    ref = _one_block(lambda: preimage_arrays(p, targets, 200), monkeypatch)

    def no_pool():
        raise AssertionError("the solver pool was used off the main thread")

    blocks = []
    strip_candidates = preimages_mod._strip_candidates

    def spy(*args, **kwargs):
        blocks.append(threading.current_thread())
        return strip_candidates(*args, **kwargs)

    monkeypatch.setattr(preimages_mod, "_solver_pool", no_pool)
    monkeypatch.setattr(preimages_mod, "_strip_candidates", spy)
    out, errors = [], []

    def work():
        try:
            out.append(preimage_arrays(p, targets, 200))
        except Exception as exc:  # reported from the main thread below
            errors.append(exc)

    th = threading.Thread(target=work)
    th.start()
    th.join(timeout=120)
    assert not th.is_alive()
    assert not errors, errors
    assert len(blocks) > 1 and set(blocks) == {th}
    _same_bits(out[0], ref)


def test_bowen_dimension_independent_of_blocks(small_blocks, monkeypatch):
    p = MapParams(2, 2.0)
    rec = bowen_dimension(p, 0.05, max_attempts=1, budget=50_000)
    ref = _one_block(lambda: bowen_dimension(p, 0.05, max_attempts=1,
                                             budget=50_000), monkeypatch)
    assert repr(rec) == repr(ref)


def test_import_and_base_point_start_no_thread():
    code = ("import threading\n"
            "n = threading.active_count()\n"
            "import bowendim\n"
            "from bowendim.transfer import default_base_point\n"
            "default_base_point(bowendim.MapParams(2, 2.0))\n"
            "print(threading.active_count() - n)\n")
    src = str(Path(preimages_mod.__file__).parents[1])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0"


def test_default_threads_follow_affinity_mask(monkeypatch):
    # one CPU in this process's mask on a 64-CPU machine gives one worker;
    # BOWEN_DIM_THREADS overrides it, and without a mask the CPU count stands
    monkeypatch.delenv(defaults.THREADS_ENV, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    assert defaults.default_threads() == 1
    monkeypatch.setenv(defaults.THREADS_ENV, "3")
    assert defaults.default_threads() == 3
    monkeypatch.delenv(defaults.THREADS_ENV)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert defaults.default_threads() == 64
