import cmath
import math

import numpy as np
import pytest

from bowendim import (MapParams, canonical, cylinder_distance, defaults,
                      evaluate, fixed_points, inverse_branch, preimage_arrays,
                      preimages, tail_weight_bound)
from bowendim.errors import BranchMiss, InvalidTol, TNotSummable
from bowendim.preimages import _one_k_per_cell
from oracles import preimage_arrays_reference, preimage_oracle

TWO_PI = 2 * math.pi


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
    got = preimage_arrays(p, targets, K, track_misses=True)
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
    got = preimage_arrays(p, targets, 64, tol=tol, track_misses=True)
    ref, cand = preimage_arrays_reference(p, targets, 64, tol=tol)
    assert not _one_k_per_cell(2, float(np.abs(cand[3]).max()),
                               defaults.DEDUP_FACTOR * tol, tol)
    _same_bits(got, ref)


def test_slot_table_with_many_small_k_duplicates():
    # dense Newton seeds land on every small-|k| root many times over
    for ell, c in ((2, 2.0), (3, 3.2 - 0.3j)):
        p = MapParams(ell, c)
        crit_value = canonical(evaluate(p, p.critical_point))
        targets = np.concatenate([[p.log_c, crit_value],
                                  _seeded_targets(ell, 3, 11)])
        got = preimage_arrays(p, targets, 30, dense_spacing=0.35,
                              track_misses=True)
        ref, cand = preimage_arrays_reference(p, targets, 30,
                                              dense_spacing=0.35)
        assert cand[0].size > 5 * got[0].size
        _same_bits(got, ref)
