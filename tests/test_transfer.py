import cmath
import importlib
import logging
import math
import re
import threading
import weakref

import numpy as np
import pytest

from bowendim import (MapParams, apply_transfer, bowen_dimension,
                      conformal_atoms, cylinder_distance, defaults,
                      eigenfunction_iterate, evaluate, fixed_points,
                      periodic_points, pressure, pressure_ratio,
                      transfer_level_sums, zeta_pressure)
from bowendim.errors import TNotSummable
from bowendim.preimages import (k_secondary, preimage_arrays, tail_bound_value,
                                tail_weight_bound)
from bowendim.dimension import _ATTEMPTS
from bowendim.transfer import (ChildTable, LevelNodes, TreeStore, _grow,
                               _Levels, _shadow_cycles, _sup_l1, _sup_l1_probe,
                               default_base_point)
from oracles import (choose_threshold_reference, pair_count_reference,
                     preimage_oracle)

transfer_mod = importlib.import_module("bowendim.transfer")
dimension_mod = importlib.import_module("bowendim.dimension")


@pytest.fixture(scope="module")
def base(params22):
    return default_base_point(params22)


def test_default_base_point_is_repelling(params22, base):
    fp1 = [q for q in fixed_points(params22, (1, 1)) if abs(q.multiplier) > 1]
    assert abs(base - fp1[0].point.z) < 1e-10


def test_apply_zero_function(params22, base):
    v = apply_transfer(params22, 1.5, lambda z: 0.0, base, K=20, g_sup=0.0)
    assert v.value == 0.0
    assert v.error == 0.0


def test_apply_linearity(params22, base):
    g1 = lambda z: 1.0
    g2 = lambda z: abs(math.sin(z.real))
    a, b = 0.7, 1.9
    lhs = apply_transfer(params22, 1.5, lambda z: a * g1(z) + b * g2(z), base, K=20)
    r1 = apply_transfer(params22, 1.5, g1, base, K=20)
    r2 = apply_transfer(params22, 1.5, g2, base, K=20)
    assert lhs.value == pytest.approx(a * r1.value + b * r2.value, rel=1e-12)


def test_apply_requires_summable_t(params22, base):
    with pytest.raises(TNotSummable):
        apply_transfer(params22, 0.9, lambda z: 1.0, base, K=20)


_T_ENTRY_POINTS = {
    "transfer_level_sums": lambda p, b, t: transfer_level_sums(p, t, b, 2, 32, 0.0),
    "apply_transfer": lambda p, b, t: apply_transfer(p, t, lambda z: 1.0, b, K=20),
    "zeta_pressure": lambda p, b, t: zeta_pressure(p, t, 1, 10),
    "tail_weight_bound": lambda p, b, t: tail_weight_bound(20, t),
    "pressure": lambda p, b, t: dimension_mod.pressure(p, t, 0.1),
}


@pytest.mark.parametrize("entry", sorted(_T_ENTRY_POINTS))
@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_non_finite_t_is_rejected(params22, base, entry, t):
    # t <= 1 keeps its own error (TNotSummable, or ValueError from pressure)
    with pytest.raises(ValueError, match="finite"):
        _T_ENTRY_POINTS[entry](params22, base, t)


def test_transfer_decay_in_re(params22):
    one = lambda z: 1.0
    vals = [apply_transfer(params22, 1.5, one, re + 0.5j, K=200).value
            for re in (2, 10, 20)]
    assert vals[0] > vals[1] > vals[2]


def test_iterate_depth_one_matches_apply(params22, base):
    it = transfer_level_sums(params22, 1.5, base, 1, K=40, prune=0.0,
                             budget=100_000)[1]
    ap = apply_transfer(params22, 1.5, lambda z: 1.0, base, K=40)
    assert it.value == pytest.approx(ap.value, rel=1e-9)


def test_iterate_monotone_in_t(params22, base):
    v15 = transfer_level_sums(params22, 1.5, base, 3, K=50, prune=0.0,
                              budget=400_000)[3]
    v20 = transfer_level_sums(params22, 2.0, base, 3, K=50, prune=0.0,
                              budget=400_000)[3]
    assert v20.value < v15.value


def test_iterate_positive(params22, base):
    for t in (1.3, 1.8):
        v = transfer_level_sums(params22, t, base, 3, K=30, prune=1e-13,
                                budget=200_000)[3]
        assert v.value > 0


def test_level2_sum_against_dense_double_loop(params22, base):
    """S_2 via the tree equals an independent dense-oracle double loop."""
    K = 60
    t = 1.5
    box = (-6.0, math.log(2 * math.pi * K) + 1.5)
    x1, _ = preimage_oracle(2, 2.0, base, box, spacing=0.12, k_cap=K)
    total = 0.0
    for x in x1:
        d1 = abs(2 - cmath.exp(x))
        x2, _ = preimage_oracle(2, 2.0, x, box, spacing=0.12, k_cap=K)
        d2 = np.abs(2 - np.exp(x2))
        total += d1 ** -t * float(np.sum(d2 ** -t))
    tree = transfer_level_sums(params22, t, base, 2, K=K, prune=0.0,
                               budget=200_000)[2]
    assert tree.value == pytest.approx(total, rel=1e-3)


def test_refinement_monotonicity(params22, base):
    a = transfer_level_sums(params22, 1.5, base, 3, K=30, prune=1e-9,
                            budget=300_000)[3]
    b = transfer_level_sums(params22, 1.5, base, 3, K=60, prune=1e-10,
                            budget=300_000)[3]
    assert b.error <= a.error
    assert max(a.lo, b.lo) <= min(a.hi, b.hi)  # intervals overlap


def test_budget_exhaustion_flags_inf(params22, base):
    # pruning escalation normally keeps runs inside the budget; only an
    # absurdly small cap (below one minimal frontier) trips the inf flag
    v = transfer_level_sums(params22, 1.5, base, 4, K=50, prune=0.0,
                            budget=30)[4]
    assert math.isinf(v.error)


@pytest.fixture(scope="module")
def pr_table(params22, base):
    # shallow depth, wide truncation: the sharpest honestly-certified ratios
    out = {}
    for t in (1.4, 1.8):
        out[t] = pressure_ratio(params22, t, base, 2, K=4096, prune=1e-12,
                                budget=2_500_000)
    return out


def test_pressure_strictly_decreasing_beyond_uncertainty(pr_table):
    lo, hi = pr_table[1.4], pr_table[1.8]
    assert lo.value - hi.value > lo.uncertainty + hi.uncertainty


def test_pressure_base_point_independence(params22, base):
    fps = fixed_points(params22, (-1, 1))
    reps = [q.point.z for q in fps if abs(q.multiplier) > 1][:2]
    assert len(reps) == 2
    e1 = pressure_ratio(params22, 1.5, reps[0], 4, K=512, prune=1e-10,
                        budget=400_000)
    e2 = pressure_ratio(params22, 1.5, reps[1], 4, K=512, prune=1e-10,
                        budget=400_000)
    assert abs(e1.value - e2.value) < e1.uncertainty + e2.uncertainty


def test_zeta_period1_matches_fixed_points(params22):
    z1 = zeta_pressure(params22, 1.5, 1, 30)
    fps = fixed_points(params22, (-30, 30))
    s = sum(abs(q.multiplier) ** -1.5 for q in fps if abs(q.multiplier) > 1)
    assert z1.value == pytest.approx(math.log(s), abs=1e-9)


def test_periodic_points_residuals(params22):
    U, mult = periodic_points(params22, 2, 15)
    assert U.shape[1] > 100
    assert np.all(np.abs(mult) > 1)
    for i in range(0, U.shape[1], 37):
        x = U[0, i]
        w = evaluate(params22, evaluate(params22, x))
        assert cylinder_distance(w, x) < 2e-11


def test_zeta_value_stable_in_k(params22):
    z30 = zeta_pressure(params22, 1.5, 2, 30)
    z100 = zeta_pressure(params22, 1.5, 2, 100)
    assert abs(z30.value - z100.value) < 0.025
    assert (max(z30.value - z30.uncertainty, z100.value - z100.uncertainty)
            <= min(z30.value + z30.uncertainty, z100.value + z100.uncertainty))


def test_pressure_bracketing_ratio_vs_zeta(params22, base, pr_table):
    for t in (1.4, 1.8):
        r = pr_table[t]
        z = zeta_pressure(params22, t, 3, 15)
        assert max(r.value - r.uncertainty, z.value - z.uncertainty) \
            <= min(r.value + r.uncertainty, z.value + z.uncertainty)


def test_eigenfunction_one_step_identity(params22, base):
    s = 1.0 + 0.8j
    fs = eigenfunction_iterate(params22, 1.5, [s], 1, K=48, prune=0.0,
                               budget=200_000)
    num = apply_transfer(params22, 1.5, lambda z: 1.0, s, K=48).value
    den = apply_transfer(params22, 1.5, lambda z: 1.0, base, K=48).value
    assert fs.values[0] == pytest.approx(num / den, rel=1e-9)


def test_eigenfunction_decay_and_stabilisation(params22):
    samples = [2 + 0.5j, 15 + 0.5j]
    fs = eigenfunction_iterate(params22, 1.5, samples, 5, K=48, prune=1e-12,
                               budget=400_000)
    assert fs.values[1] < fs.values[0]          # decay toward Re -> +inf
    assert all(v >= 0 for v in fs.values)
    assert fs.rel_changes[4] < 0.10             # m=4 -> m=5 below 10%
    assert fs.rel_changes[4] <= fs.rel_changes[1]


def test_eigenfunction_residual_decreases(params22, base):
    samples = [complex(base) + d for d in (0.0, 0.3, -0.2 + 0.4j, 0.1 - 0.5j)]
    fs = eigenfunction_iterate(params22, 1.5, samples, 5, K=48, prune=1e-12,
                               budget=400_000)
    it = fs.iterates
    # residual of the normalised fixed-point relation across iterations
    res = [np.max(np.abs(it[m + 1] - it[m])) for m in range(1, 5)]
    assert res[-1] < res[0]


def test_conformal_atoms_depth0(params22, base):
    am = conformal_atoms(params22, 1.5, -0.04, base, 0)
    assert am.points.size == 1
    assert am.masses[0] == 1.0


def test_conformal_atoms_mass_and_validity(params22, base):
    am = conformal_atoms(params22, 1.5, -0.04, base, 3, K=16, prune=1e-13,
                         budget=300_000)
    assert abs(am.total_mass - 1.0) < 1e-12
    assert np.all(am.masses > 0)
    # every atom is a validated depth-3 preimage of the base point
    idx = np.argsort(-am.masses)[:25]
    z = am.points[idx]
    for _ in range(3):
        z = evaluate(params22, z)
    assert np.max(cylinder_distance(z, base)) < 1e-9


def test_sup_probe_built_once_per_parameter():
    p = MapParams(2, 2.0)
    _sup_l1_probe.cache_clear()
    rec = bowen_dimension(p, accuracy=0.1, max_attempts=1)
    assert rec.evaluations > 1
    assert _sup_l1_probe.cache_info().misses == 1
    # reference: the probe tree rebuilt from scratch and summed per probe
    base = default_base_point(p)
    x1 = preimage_arrays(p, np.array([base]), 24)[2]
    x2 = preimage_arrays(p, x1, 8)[2]
    probes = np.concatenate([[base], x1, x2])
    parent, _, _, der, _, _ = preimage_arrays(p, probes, 256)
    for t in (1.1, 1.46, 1.8, 2.5):
        sums = np.zeros(probes.size)
        np.add.at(sums, parent, np.abs(der) ** (-t))
        assert _sup_l1(p, t) == float(sums.max() + tail_bound_value(256, t))
    assert _sup_l1_probe.cache_info().misses == 1


def _sup_reference(p, ts):
    """_sup_l1 at each t from one K = 256 solve of every probe, and every
    probe's sum at each t."""
    base = default_base_point(p)
    x1 = preimage_arrays(p, np.array([base]), 24)[2]
    x2 = preimage_arrays(p, x1, 8)[2]
    probes = np.concatenate([[base], x1, x2])
    parent, _, _, der, _, _ = preimage_arrays(p, probes, 256)
    values, sums = [], []
    for t in ts:
        sums.append(np.zeros(probes.size))
        np.add.at(sums[-1], parent, np.abs(der) ** (-t))
        values.append(float(sums[-1].max() + tail_bound_value(256, t)))
    return values, sums


_SUP_TS = (1.01, 1.05, 1.2, 1.46, 1.8, 2.5, 4.0, 9.0)


def _solved_in_full(probe):
    """The indices of the probes that the sup probe's table holds, each
    solved to _K_PROBE."""
    keys = map(tuple, probe.probes.view(np.uint64).reshape(-1, 2).tolist())
    return [i for i, key in enumerate(keys) if key in probe.table.entries]


def test_lift_bound_soundness():
    # every validated root of lift 32 < |k| <= 256 has |F'| >= L_k; targets on
    # both strip edges and on Im = pi/2, far left and far right, stretch
    # |Im rhs| and the root's Im
    ks_first, ks_probe = transfer_mod._K_FIRST, transfer_mod._K_PROBE
    worst = math.inf
    for ell in (2, 3, 4, 5, 6, 8, 16, 32, 60):
        for c in (ell, ell + 0.7j):
            p = MapParams(ell, c)
            targets = np.array([complex(re, im)
                                for re in np.linspace(-2 * ell, 8, 11)
                                for im in (math.pi, -math.pi, math.pi / 2)])
            rhs = targets - p.affine_term
            # the one-root-per-lift claim holds beyond k_secondary
            assert k_secondary(ell, rhs.imag).max() <= ks_first
            _, k, _, der, mi, _ = preimage_arrays(p, targets, ks_probe)
            assert mi.size == 0
            far = np.abs(k) > ks_first
            assert far.sum() == 2 * (ks_probe - ks_first) * targets.size
            lift = transfer_mod._lift_bounds(
                ell, float(np.abs(rhs.imag).max()), defaults.TOL, ks_first)
            assert lift.size == ks_probe - ks_first and lift.min() > 0
            ratio = np.abs(der[far]) / lift[np.abs(k[far]) - ks_first - 1]
            assert ratio.min() >= 1.0
            if ell <= 6:
                worst = min(worst, float(ratio.min()))
    assert worst < 1.05  # the bound is within 5% of some |F'|


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_sup_l1_bits_match_one_full_solve(ell):
    rng = np.random.default_rng(1200 + ell)
    for r in (0.3, 0.7, 0.95):
        th = rng.uniform(0.0, 2.0 * math.pi)
        p = MapParams(ell, complex(ell + r * math.cos(th), r * math.sin(th)))
        values, sums = _sup_reference(p, _SUP_TS)
        assert [_sup_l1(p, t) for t in _SUP_TS] == values
        probe = _sup_l1_probe(p)
        assert not probe.unbounded.any()
        assert 0 < len(probe.table.entries) < probe.probes.size // 20
        for t, ref in zip(_SUP_TS, sums):
            first, bound = probe.bounds(t)
            assert np.all(first <= ref) and np.all(ref <= bound)


@pytest.mark.parametrize("mode", ["miss", "largest"])
def test_weakest_probe_misleads_first_stage(monkeypatch, mode):
    # the weakest probe gets a first-stage miss, or a first-stage sum above
    # every other one; it is solved in full, and the result does not move
    p = MapParams(3, 3.2 - 0.3j)
    ts = (1.2, 1.8)
    values, sums = _sup_reference(p, ts)
    weakest = int(np.argmin(sums[0]))
    assert weakest != int(np.argmax(sums[0]))

    solve = transfer_mod.preimage_arrays

    def first_stage(params, targets, kmax, **kwargs):
        i, k, x, d, *miss = solve(params, targets, kmax, **kwargs)
        if not np.all(kmax == transfer_mod._K_FIRST):
            return (i, k, x, d, *miss)
        mi, mk = miss
        if mode == "miss":
            return i, k, x, d, np.append(mi, weakest), np.append(mk, 20)
        return i, k, x, np.where(i == weakest, d / 1e3, d), mi, mk

    _sup_l1_probe.cache_clear()
    monkeypatch.setattr(transfer_mod, "preimage_arrays", first_stage)
    try:
        probe = _sup_l1_probe(p)
        unbounded = [weakest] if mode == "miss" else []
        assert np.flatnonzero(probe.unbounded).tolist() == unbounded
        assert [_sup_l1(p, t) for t in ts] == values
        solved = _solved_in_full(probe)
        assert weakest in solved and int(np.argmax(sums[0])) in solved
    finally:
        _sup_l1_probe.cache_clear()


@pytest.mark.parametrize("ell, c, cap", [
    (16, 16, 8), (16, 16 + 0.5j, 8), (20, 20, 8), (20, 20 + 0.5j, 8),
    (48, 48 + 0.3j, 8), (64, 64, 12), (66, 66, 9), (300, 300.5, 8)])
def test_sup_probe_solves_few_probes_in_full_at_large_ell(ell, c, cap):
    # the first stage reaches twice the probes' band edge (32 at ell 16 and
    # 20, 50 to 68 at ell 48 to 66, and all of 256 at ell 300), so every L_k
    # beyond it is positive and every probe is bounded; the two rounds of
    # _sup_l1 solve a handful of the thousands of probes to 256, and still
    # return the bits of one full solve of every probe.  Near t = 1 the tail
    # bound 2 sum L_k^-t loosens: t = 1.01, taken last, solves 8 probes in
    # all at (48, 48+0.3i), 12 at (64, 64) and 9 at (66, 66), and 4 at ell
    # 16 and 20 either way.
    _sup_l1_probe.cache_clear()
    try:
        p = MapParams(ell, c)
        values = _sup_reference(p, _SUP_TS)[0]
        assert _SUP_TS[0] == 1.01
        assert [_sup_l1(p, t) for t in _SUP_TS[1:]] == values[1:]
        probe = _sup_l1_probe(p)
        assert probe.probes.size > 2000 and not probe.unbounded.any()
        assert 0 < len(probe.table.entries) <= 8
        assert _sup_l1(p, _SUP_TS[0]) == values[0]
        assert len(probe.table.entries) <= cap
    finally:
        _sup_l1_probe.cache_clear()


def test_sup_l1_bits_do_not_depend_on_the_order_of_t():
    # _sup_l1 keeps no state across t but the probes the table holds, so
    # visiting the same t in two orders gives the reference bits both times
    p = MapParams(3, 3.2 - 0.3j)
    values = dict(zip(_SUP_TS, _sup_reference(p, _SUP_TS)[0]))
    for ts in (_SUP_TS, _SUP_TS[::-1], _SUP_TS[1::2] + _SUP_TS[::2]):
        _sup_l1_probe.cache_clear()
        assert [_sup_l1(p, t) for t in ts] == [values[t] for t in ts]
    _sup_l1_probe.cache_clear()


def test_sup_probe_solve_counts(params22, solved_pairs):
    _sup_l1_probe.cache_clear()
    solved_pairs.append(0)
    probe = _sup_l1_probe(params22)
    solved_pairs.append(0)
    _sup_l1(params22, 1.37)
    solved_pairs.append(0)
    _sup_l1(params22, 1.37)
    # the base point to |k| <= 24, its 51 preimages to 8, then all 1,021
    # probes to _K_FIRST = 32 (to 256 there would be 523,773 pairs); a new t
    # solves a few probes to 256, and the same t none
    assert probe.probes.size == 1021
    assert solved_pairs[0] == 49 + 17 * 51 + 65 * 1021 == 67_281
    assert 0 < solved_pairs[1] <= 4 * 513 and solved_pairs[1] % 513 == 0
    assert solved_pairs[2] == 0
    _sup_l1_probe.cache_clear()


def test_sup_l1_two_threads_one_parameter(params22):
    ts = (1.1, 2.5)
    want = _sup_reference(params22, ts)[0]
    _sup_l1_probe.cache_clear()
    _sup_l1_probe(params22)
    barrier = threading.Barrier(2)
    got = {}

    def run(t):
        barrier.wait()
        got[t] = _sup_l1(params22, t)

    threads = [threading.Thread(target=run, args=(t,)) for t in ts]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert [got[t] for t in ts] == want
    _sup_l1_probe.cache_clear()


# ----------------------------------------------------------- children table

def _tree_bits(lv):
    """Every figure of a tree, with floats and arrays compared by their bits."""
    nodes = [None if nd is None else
             tuple(getattr(nd, f).tobytes() for f in ("x", "k", "parent", "lam"))
             for nd in lv.nodes]
    return (repr((lv.values, lv.parent_cuts, lv.tail_cuts, lv.misses,
                  lv.stored, lv.budget_exceeded)), nodes)


@pytest.fixture()
def solved_pairs(monkeypatch):
    """Pairs solved through transfer.preimage_arrays, one count per tree."""
    counts = []
    solve = transfer_mod.preimage_arrays

    def spy(params, targets, kmax, **kwargs):
        kmax = np.broadcast_to(kmax, np.shape(np.atleast_1d(targets)))
        counts[-1] += int((2 * kmax + 1).sum())
        return solve(params, targets, kmax, **kwargs)

    monkeypatch.setattr(transfer_mod, "preimage_arrays", spy)
    return counts


@pytest.mark.parametrize("ell, c", [(2, 2.0), (3, 3.2 - 0.3j)])
@pytest.mark.parametrize("K", [512, 4096])
def test_child_table_trees_match_tableless(ell, c, K, solved_pairs):
    p = MapParams(ell, c)
    base = default_base_point(p)
    table = ChildTable(p, 1e-11)
    misses = 0
    for t in (1.3, 1.45, 1.6, 1.9):
        solved_pairs.append(0)
        got = _grow(p, t, base, 3, K, 1e-9, 100_000, keep_nodes=True,
                    children=table)
        solved_pairs.append(0)
        ref = _grow(p, t, base, 3, K, 1e-9, 100_000, keep_nodes=True,
                    children=_Tableless(p))
        assert _tree_bits(got) == _tree_bits(ref)
        misses += got.misses
        # without kept nodes the last level is only counted; all cached here
        flat = _grow(p, t, base, 3, K, 1e-9, 100_000, children=table)
        assert _tree_bits(flat)[0] == _tree_bits(ref)[0]
    if K == 4096:  # the absolute residual gate rejects roots at |k| ~ 1,800+
        assert misses > 0
    with_table = solved_pairs[0::2]
    # repeated targets within one tree are solved once as well
    assert 0 < with_table[0] <= solved_pairs[1]
    assert with_table[1] < with_table[0]
    assert table.pairs_solved == sum(with_table)
    assert table.pairs_requested == 2 * sum(solved_pairs[1::2])


def _table_solve(table, targets, kmax, limit=10**9):
    return table.solve(np.asarray(targets, dtype=complex),
                       np.asarray(kmax, dtype=np.int64), limit)


def _tableless(p, targets, kmax, tol=1e-11, solve=preimage_arrays):
    """What ChildTable.solve returns, from one table-less solve: each row's
    root count, k as int16, x, |F'|, each row's miss count and missed k."""
    targets = np.asarray(targets, dtype=complex)
    ci, ck, cx, cd, mi, mk = solve(
        p, targets, np.asarray(kmax, dtype=np.int64), tol=tol)
    return (np.bincount(ci, minlength=targets.size), ck.astype(np.int16), cx,
            np.abs(cd), np.bincount(mi, minlength=targets.size), mk)


class _Tableless:
    """A ChildTable stand-in that solves every target it is asked for
    through transfer.preimage_arrays and keeps nothing."""

    def __init__(self, params, tol=defaults.TOL):
        self.params, self.tol = params, tol

    def solve(self, targets, kmax, limit):
        return _tableless(self.params, targets, kmax, self.tol,
                          transfer_mod.preimage_arrays)


def _same_bits(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.tobytes() == r.tobytes()


def test_child_table_key(solved_pairs):
    # a target is solved again when its bits change or kmax grows, and not
    # when its co-targets do or kmax shrinks, down to its k_secondary (see
    # test_narrow_requests_served_from_a_wide_entry)
    p = MapParams(2, 2.0)
    table = ChildTable(p, 1e-11)
    z = 0.3 + 1.1j
    far = -40.0 + 0.5j
    on_axis, neg_zero = 2.0 + 0.0j, complex(2.0, -0.0)
    calls = [([z], [40], 81), ([z], [40], 0), ([z], [41], 83),
             ([z, z], [40, 41], 0), ([z, far], [40, 40], 81),
             ([on_axis], [5], 11), ([neg_zero], [5], 11),
             ([on_axis, neg_zero], [5, 5], 0)]
    for targets, kmax, pairs in calls:
        solved_pairs.append(0)
        _same_bits(_table_solve(table, targets, kmax),
                   _tableless(p, targets, kmax))
        assert solved_pairs[-1] == pairs


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_narrow_requests_served_from_a_wide_entry(ell, solved_pairs):
    # a target solved to kmax serves any kmax' in [k_secondary, kmax] with
    # the bits of a solve at kmax'; seeded targets over the strip, at
    # parameters across D(ell, 0.95), with +-0.0 on the real axis
    rng = np.random.default_rng([20261019, ell])
    for _ in range(2):
        c = ell + 0.95 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        p = MapParams(ell, c)
        z = rng.uniform(-2 * ell, 6, 40) + 1j * rng.uniform(-math.pi, math.pi, 40)
        axis = rng.uniform(-2 * ell, 6, 4)
        targets = np.concatenate([z, axis + 0.0j, [complex(r, -0.0) for r in axis]])
        wide = rng.integers(30, 120, targets.size)
        k_sec = k_secondary(ell, (targets - p.affine_term).imag)
        assert (k_sec < 30).all()
        # the edges of the range, and the lifts a re-indexed root would
        # come from (k -> k - a m)
        narrow = np.stack([k_sec, k_sec + 1, wide - 1, wide - ell,
                           rng.integers(k_sec, wide + 1)])
        table = ChildTable(p, 1e-11)
        solved_pairs.append(0)
        _table_solve(table, targets, wide)
        for km in narrow:
            solved_pairs.append(0)
            served = table.served_wider
            _same_bits(_table_solve(table, targets, km),
                       _tableless(p, targets, km))
            assert solved_pairs[-1] == 0
            assert table.served_wider - served == int((km < wide).sum())
        assert len(table.entries) == targets.size


def test_table_solves_below_k_secondary_and_beyond_its_entry(solved_pairs):
    # at ell = 16 the band edge of a real rhs is 8 and of any other is 9
    p = MapParams(16, 16.0)
    table = ChildTable(p, 1e-11)
    far = -40.0 + 0.5j  # k_secondary 9, beyond the narrow kmax
    on_axis, neg_zero = 2.0 + 0.0j, complex(2.0, -0.0)
    assert k_secondary(16, [(w - p.affine_term).imag
                            for w in (far, on_axis, neg_zero)]).tolist() \
        == [9, 8, 8]
    calls = [([far, on_axis], [40, 40], 162, 0),
             ([far, on_axis], [8, 8], 17, 1),     # far solved, on_axis served
             ([neg_zero], [8], 17, 0),            # -0.0 has an entry of its own
             ([on_axis], [60], 121, 0),           # wider: solved, replaces
             ([on_axis, far], [50, 12], 0, 2)]    # both served
    for targets, kmax, pairs, served in calls:
        solved_pairs.append(0)
        before = table.served_wider
        _same_bits(_table_solve(table, targets, kmax),
                   _tableless(p, targets, kmax))
        assert (solved_pairs[-1], table.served_wider - before) == (pairs, served)
    assert sorted(e[5] for e in table.entries.values()) == [8, 40, 60]
    assert table.roots == sum(e[2] - e[1] for e in table.entries.values())


def test_misses_served_from_a_wide_entry(params22, base, solved_pairs):
    # the base point's K = 4096 solve misses lifts from |k| ~ 1,800 on; a
    # narrower request gets the misses of its own range
    table = ChildTable(params22, defaults.TOL)
    solved_pairs.append(0)
    _table_solve(table, [base], [4096])
    misses = []
    for km in (3000, 2000, 1700):
        solved_pairs.append(0)
        got = _table_solve(table, [base], [km])
        _same_bits(got, _tableless(params22, [base], [km]))
        assert solved_pairs[-1] == 0
        misses.append(got[5].size)
    assert misses[0] > misses[1] > 0
    assert table.served_wider == 3


def test_child_table_bound_stops_inserts(solved_pairs):
    # a solve stores its targets only while the table holds fewer roots
    # than the limit; what is cached never changes the output
    p = MapParams(2, 2.0)
    first = np.array([0.3 + 1.1j, -1.0 - 2.0j])
    second = np.array([2.0 + 0.2j, 4.0 - 3.0j])
    kmax = np.array([30, 60])
    for limit, stored, pairs in ((0, 0, [182] * 4), (1, 2, [182, 182, 0, 182]),
                                 (10**9, 4, [182, 182, 0, 0])):
        table = ChildTable(p, 1e-11)
        solved_pairs.clear()
        for targets in (first, second, first, second):
            solved_pairs.append(0)
            _same_bits(_table_solve(table, targets, kmax, limit),
                       _tableless(p, targets, kmax))
        assert len(table.entries) == stored and solved_pairs == pairs
        assert table.roots == sum(e[2] - e[1] for e in table.entries.values())


def _entry(table, z):
    return table.entries[tuple(np.array([z]).view(np.uint64).tolist())]


def _held(table):
    """What a table holds: its counts, and the identity of every column."""
    return (table.roots, len(table.entries),
            {id(c) for e in table.entries.values() for c in e[0]})


def test_second_tree_of_a_shape_adds_nothing(params22, base, solved_pairs):
    # a tree that repeats an earlier tree's requests is served from the
    # entries at every level: no pair solved, no root stored, no column
    # array made
    table = ChildTable(params22, defaults.TOL)
    solved_pairs.append(0)
    first = _grow(params22, 1.5, base, 3, 64, 1e-9, 100_000, keep_nodes=True,
                  children=table)
    held = _held(table)
    solved_pairs.append(0)
    again = _grow(params22, 1.5, base, 3, 64, 1e-9, 100_000, keep_nodes=True,
                  children=table)
    solved_pairs.append(0)
    ref = _grow(params22, 1.5, base, 3, 64, 1e-9, 100_000, keep_nodes=True,
                children=_Tableless(params22))
    assert _tree_bits(again) == _tree_bits(first) == _tree_bits(ref)
    assert solved_pairs[1] == 0
    assert _held(table) == held


def test_empty_request(params22, solved_pairs):
    # a level whose nodes are all cut asks for no target: the columns come
    # back empty with their usual dtypes, and nothing is solved
    table = ChildTable(params22, 1e-11)
    solved_pairs.append(0)
    got = _table_solve(table, [], [])
    ref = _tableless(params22, [0.3 + 1.1j], [4])
    assert [g.dtype for g in got] == [r.dtype for r in ref]
    assert all(g.size == 0 for g in got)
    assert solved_pairs == [0] and table.pairs_requested == 0


def test_mixed_request_is_stored_once(monkeypatch, solved_pairs):
    # a request of an exactly served, a wider-served and a new target: the
    # new target's entry is a slice of the solve's own columns, the served
    # entries stay, and a repeat is served target by target
    p = MapParams(2, 2.0)
    table = ChildTable(p, 1e-11)
    exact, wider, new = 0.3 + 1.1j, -1.0 - 2.0j, 2.0 + 0.2j
    solved_pairs.append(0)
    _table_solve(table, [exact, wider], [40, 60])
    kept = [_entry(table, z) for z in (exact, wider)]
    chunks = []
    solve = transfer_mod.preimage_arrays

    def watched(*args, **kwargs):
        out = solve(*args, **kwargs)
        chunks.append(weakref.ref(out[2]))
        return out

    monkeypatch.setattr(transfer_mod, "preimage_arrays", watched)
    targets, kmax = [exact, wider, new], [40, 45, 30]
    roots = table.roots
    solved_pairs.append(0)
    got = _table_solve(table, targets, kmax)
    _same_bits(got, _tableless(p, targets, kmax))
    assert solved_pairs[-1] == 61 and table.served_wider == 1
    assert len(chunks) == 1 and _entry(table, new)[0][1] is chunks[0]()
    assert all(_entry(table, z) is e for z, e in zip((exact, wider), kept))
    assert table.roots - roots == int(got[0][2])
    assert table.roots == sum(e[2] - e[1] for e in table.entries.values())
    solved_pairs.append(0)
    again = _table_solve(table, targets, kmax)
    _same_bits(again, got)
    assert solved_pairs[-1] == 0 and table.served_wider == 2


def test_bowen_dimension_grows_each_row_once(monkeypatch):
    # (2, 2) at 5e-3 evaluates ten values of t on two schedule rows: each
    # row's tree is grown once, and only its levels choose a threshold; the
    # 18 other trees are read from the records, and every one of the 20
    # equals a tree grown afresh at its t
    stores, choices, trees = [], [], []

    class Recorded(TreeStore):
        def __init__(self, *args):
            super().__init__(*args)
            stores.append(self)

    choose = transfer_mod._choose_threshold
    sums = transfer_mod.transfer_level_sums

    def counted(*args):
        choices.append(args[1])
        return choose(*args)

    def kept(params, t, z, n, K, prune, budget, *, store=None):
        S = sums(params, t, z, n, K, prune, budget, store=store)
        trees.append(((params, t, z, n, K, prune, budget), S))
        return S

    monkeypatch.setattr(dimension_mod, "TreeStore", Recorded)
    monkeypatch.setattr(transfer_mod, "_choose_threshold", counted)
    monkeypatch.setattr(transfer_mod, "transfer_level_sums", kept)
    bowen_dimension(MapParams(2, 2.0), 5e-3)
    (store,) = stores
    assert (len(store.records), store.reads, len(trees)) == (2, 18, 20)
    assert len(choices) == 9 and set(choices) == {trees[0][0][1]}
    table = store.table
    assert table.pairs_solved == 587_339
    assert (len(table.entries), table.roots) == (6_363, 563_001)
    fresh = ChildTable(store.table.params, defaults.TOL)  # no bit moves
    for (params, t, z, n, K, prune, budget), S in trees:
        ref = _grow(params, t, z, n, K, prune, budget, children=fresh)
        assert repr(S) == repr(ref.weighted(n)), (t, n)


def test_bowen_dimension_same_without_table(monkeypatch, caplog):
    p = MapParams(2, 2.0)
    with caplog.at_level(logging.DEBUG, logger="bowendim.dimension"):
        rec = bowen_dimension(p, 0.05, max_attempts=1, budget=50_000)
    # the debug line counts the trees grown and read, and the requests
    # served from a wider solve
    (line,) = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("bowen_dimension")]
    counts = re.search(r"(\d+) trees grown, (\d+) read from their records; "
                       r"\d+ of \d+ pairs solved, (\d+) requests served from "
                       r"a wider solve", line)
    # one schedule row, one tree per evaluation: the first grown, the rest
    # read
    assert counts and (int(counts.group(1)), int(counts.group(2))) \
        == (1, rec.evaluations - 1)
    assert int(counts.group(3)) > 0

    def fresh_without_table(params, t, z, n, K, prune, budget, *, store=None):
        return _grow(params, t, z, n, K, prune, budget,
                     children=_Tableless(params)).weighted(n)

    # a tree grown afresh at each (row, t), with no table and no record
    monkeypatch.setattr(transfer_mod, "transfer_level_sums", fresh_without_table)
    ref = bowen_dimension(p, 0.05, max_attempts=1, budget=50_000)
    assert repr(rec) == repr(ref)


def test_tree_solves_a_repeated_target_once(solved_pairs):
    # the base point is a repelling fixed point: its fixed-point preimage is
    # found again, with the same bits, as a child of itself at every level;
    # a target asked for again at a narrower kmax is served from its wider
    # solve
    p = MapParams(3, 3.2 - 0.3j)
    base = default_base_point(p)
    solved_pairs.append(0)  # the sup probe's solves, not the tree's
    _sup_l1(p, 1.3)
    solved_pairs.append(0)
    got = transfer_level_sums(p, 1.3, base, 3, 512, 1e-9, 100_000)
    solved_pairs.append(0)
    ref = _grow(p, 1.3, base, 3, 512, 1e-9, 100_000,
                children=_Tableless(p)).weighted(3)
    assert solved_pairs[1:] == [82_208, 91_595]
    assert repr(got) == repr(ref)


def test_own_table_stores_no_last_level_solve(params22, base, monkeypatch):
    # a tree that owns its table never reads the last level's entries again;
    # a shared table, which stores every level, gives the same sums
    tables = []

    class Recorded(ChildTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(transfer_mod, "ChildTable", Recorded)
    got = transfer_level_sums(params22, 1.5, base, 2, 64)
    (own,) = tables
    shared = ChildTable(params22, defaults.TOL)
    ref = _grow(params22, 1.5, base, 2, 64, defaults.PRUNE, defaults.NODE_BUDGET,
                children=shared).weighted(2)
    assert len(own.entries) == 1  # the base point, solved at level 1
    assert len(shared.entries) > 1
    assert repr(got) == repr(ref)


@pytest.mark.parametrize("prune", [math.nan, math.inf])
def test_prune_must_be_finite(params22, base, prune):
    with pytest.raises(ValueError, match="prune"):
        transfer_level_sums(params22, 1.5, base, 2, 64, prune)


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(0.0, math.inf)])
def test_base_point_must_be_finite(params22, z):
    # a base point that is not finite has no preimages to sum; every entry
    # that grows a tree from a given point refuses it
    with pytest.raises(ValueError, match="finite"):
        transfer_level_sums(params22, 1.5, z, 2, 16)
    with pytest.raises(ValueError, match="finite"):
        eigenfunction_iterate(params22, 1.5, [z], 2, 16)
    with pytest.raises(ValueError, match="finite"):
        pressure(params22, 1.5, 0.1, z=z)


def test_table_of_another_parameter_is_rejected(params22, base):
    # a table's key leaves out the parameter: reading (2, 2)'s children, or
    # a (2, 2) tree's record, at another c would give the (2, 2) sums
    other = MapParams(2, 2.3 + 0.1j)
    table = ChildTable(params22, defaults.TOL)
    _grow(params22, 1.5, base, 2, 64, 1e-9, 100_000, children=table)
    with pytest.raises(ValueError):
        _grow(other, 1.5, base, 2, 64, 1e-9, 100_000, children=table)
    with pytest.raises(ValueError):
        _grow(params22, 1.5, base, 2, 64, 1e-9, 100_000, tol=1e-10,
              children=table)
    store = TreeStore(params22, defaults.TOL)
    transfer_level_sums(params22, 1.5, base, 2, 64, store=store)
    for prune in (defaults.PRUNE, 1e-9):  # a recorded row, and a new one
        with pytest.raises(ValueError):
            transfer_level_sums(other, 1.7, base, 2, 64, prune, store=store)


def test_lift_indices_fit_the_table(params22, base):
    # ChildTable keeps lift indices as int16: K = 32,767 gives the table-less
    # tree bit for bit, missed lifts beyond |k| ~ 1,800 included, and a
    # larger K is refused
    got = _grow(params22, 1.5, base, 1, 32_767, 0.0, 10**6, keep_nodes=True)
    ref = _grow(params22, 1.5, base, 1, 32_767, 0.0, 10**6, keep_nodes=True,
                children=_Tableless(params22))
    assert got.misses > 0
    assert _tree_bits(got) == _tree_bits(ref)
    with pytest.raises(ValueError):
        _grow(params22, 1.5, base, 1, 32_768, 0.0, 10**6)


def test_grow_over_several_chunks(params22, base, monkeypatch):
    # chunks of a few hundred pairs cut every level's request past the first
    # into many solves; a target's roots do not depend on the targets solved
    # with it, and each level is weighed in one pass over flat arrays, so
    # every figure of the tree keeps its bits
    ref = _grow(params22, 1.5, base, 3, 64, 1e-9, 100_000, keep_nodes=True,
                children=ChildTable(params22, defaults.TOL))
    solves = []
    solve = transfer_mod.preimage_arrays

    def counted(params, targets, kmax, **kwargs):
        solves.append(targets.size)
        return solve(params, targets, kmax, **kwargs)

    monkeypatch.setattr(transfer_mod, "preimage_arrays", counted)
    monkeypatch.setattr(transfer_mod, "_PAIR_CHUNK", 300)
    got = _grow(params22, 1.5, base, 3, 64, 1e-9, 100_000, keep_nodes=True,
                children=ChildTable(params22, defaults.TOL))
    assert len(solves) > 3 * 3  # the default chunk makes one solve a level
    assert _tree_bits(got) == _tree_bits(ref)


@pytest.mark.parametrize("ell, c", [(2, 2.0), (5, 5.5), (16, 16.3)])
def test_lam_is_the_log_derivative_along_the_path(ell, c):
    # every kept node's lam is its parent's plus log|F'| at the node, with
    # F' = ell - e^x, and 0 at the base point
    p = MapParams(ell, c)
    lv = _grow(p, 1.3, default_base_point(p), 3, 64, 1e-6, 100_000,
               keep_nodes=True)
    assert lv.nodes[0].lam.tobytes() == np.zeros(1).tobytes()
    for parent, nd in zip(lv.nodes, lv.nodes[1:]):
        assert nd.x.size > 0
        want = parent.lam[nd.parent] + np.log(np.abs(ell - np.exp(nd.x)))
        np.testing.assert_allclose(nd.lam, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("ell, c", [(2, 2.0), (5, 5.5), (16, 16.3)])
def test_read_at_the_growth_t_is_the_growth(ell, c):
    # a read runs _grow's own weight arithmetic on the record, so at the t
    # the tree was grown at it gives every figure of the tree bit for bit:
    # for the first two schedule rows grown in turn on one table, as a Bowen
    # solve grows them (the second served in part from the first's
    # entries), and against trees grown with no table or record
    p = MapParams(ell, c)
    base = default_base_point(p)
    table = ChildTable(p, defaults.TOL)
    for n, K, prune, budget in _ATTEMPTS[:2]:
        record = []
        grown = _grow(p, 1.3, base, n, K, prune, budget, children=table,
                      record=record)
        assert len(record) == n
        read = _grow(p, 1.3, base, n, K, prune, budget, children=table,
                     record=record)
        ref = _grow(p, 1.3, base, n, K, prune, budget)
        assert _tree_bits(read) == _tree_bits(grown) == _tree_bits(ref)
    assert table.served_wider > 0


@pytest.mark.parametrize("prune, budget", [(3e-3, 100_000), (1e-9, 50)])
def test_read_ends_where_the_growth_did(params22, base, prune, budget):
    # at t = 1.5 the first tree keeps nothing of level 2, so level 3 is
    # empty, and the second overruns its budget at level 2; a read at 1.5
    # gives the tree, and one at 1.2 ends at the same level
    table = ChildTable(params22, defaults.TOL)
    record = []
    grown = _grow(params22, 1.5, base, 4, 64, prune, budget, children=table,
                  record=record)
    assert grown.budget_exceeded and len(grown.values) == 3
    read = _grow(params22, 1.5, base, 4, 64, prune, budget, children=table,
                 record=record)
    ref = _grow(params22, 1.5, base, 4, 64, prune, budget)
    assert _tree_bits(read) == _tree_bits(grown) == _tree_bits(ref)
    other = _grow(params22, 1.2, base, 4, 64, prune, budget, children=table,
                  record=record)
    assert other.budget_exceeded and len(other.values) == 3
    assert other.stored == grown.stored


def test_shadow_cycles_empty_leaf(params22):
    lv = _Levels(params22, 1.5, 100)
    empty = LevelNodes(np.empty(0, complex), np.empty(0, np.int64),
                       np.empty(0, np.int64), np.empty(0))
    lv.nodes = [None, None, empty]
    U = _shadow_cycles(params22, lv, 2, 1e-11)
    assert isinstance(U, np.ndarray)
    assert U.shape == (2, 0) and U.dtype == np.complex128


# --------------------------------------------------------- threshold choice

def _same_choice(got, ref):
    """p, keep and the kept nodes' kmax equal bit for bit, dtypes included;
    the reference gives kmax over the whole level."""
    return (np.float64(got[0]).tobytes() == np.float64(ref[0]).tobytes()
            and all(g.dtype == r.dtype and g.tobytes() == r.tobytes()
                    for g, r in zip(got[1:], (ref[1], ref[2][ref[1]]))))


@pytest.fixture
def audited_thresholds(monkeypatch):
    """Every threshold choice, checked against choose_threshold_reference:
    a list that receives per call (bit-equal, bisection steps)."""
    choose, calls = transfer_mod._choose_threshold, []

    def spy(w, t, K, k_lo, p_floor, cap):
        steps = []
        got = choose(w, t, K, k_lo, p_floor, cap)
        ref = choose_threshold_reference(w, t, K, k_lo, p_floor, cap, steps)
        calls.append((_same_choice(got, ref), len(steps)))
        return got

    monkeypatch.setattr(transfer_mod, "_choose_threshold", spy)
    return calls


def test_threshold_matches_reference_in_grown_trees(audited_thresholds,
                                                    params22, base):
    # every level of the first schedule row's tree at the t a Bowen solve
    # evaluates
    n, K, prune, _ = _ATTEMPTS[0]
    for t in (1.05, 1.2, 1.4, 1.55, 1.7, 2.0):
        _grow(params22, t, base, n, K, prune, 50_000)
    assert all(same for same, _ in audited_thresholds)
    assert sum(steps > 0 for _, steps in audited_thresholds) >= 10


@pytest.mark.parametrize("ell, c", [(2, 2.0), (5, 5.5), (16, 16.3)])
def test_threshold_matches_reference_in_bowen_rows(audited_thresholds, ell, c):
    # every level of the first two schedule rows' trees as a Bowen solve
    # grows them, at its first t, 1.05, on one table: each tree's first
    # level fits at p_floor, and every later one bisects
    p = MapParams(ell, c)
    base = default_base_point(p)
    store = TreeStore(p, defaults.TOL)
    bisects = []
    for n, K, prune, budget in _ATTEMPTS[:2]:
        transfer_level_sums(p, 1.05, base, n, K, prune, budget, store=store)
        bisects += [False] + [True] * (n - 1)
    assert all(same for same, _ in audited_thresholds)
    assert [steps > 0 for _, steps in audited_thresholds] == bisects


def _ulps_around(v, n):
    """v and the n nearest floats on either side of it."""
    out, lo, hi = [v], v, v
    for _ in range(n):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, math.inf)
        out += [lo, hi]
    return np.array(out)


def _threshold_levels():
    """Seeded levels (w, t, K, k_lo, p_floor, cap), edge cases included."""
    rng = np.random.default_rng(20261019)
    c = defaults.C_GEO / (2 * math.pi)
    t, K, k_lo, p_floor = 1.46, 2048, 10, 1e-12
    logn = rng.lognormal(-12.0, 3.0, 20_000)
    levels = {
        "lognormal": (logn, t, K, k_lo, p_floor, 2e5),
        "repeated": (rng.permutation(np.repeat(logn[:200], 50)), 1.2, 512,
                     k_lo, p_floor, 5e4),
        "one node": (np.array([0.3]), t, K, k_lo, p_floor, 4.0 * k_lo + 2),
        "all clipped": (rng.uniform(0.5, 1.0, 300), 2.0, 64, k_lo, p_floor,
                        300 * 129 - 1.0),
        "none kept": (rng.uniform(0.0, 1e-12, 300), t, K, k_lo, p_floor, 100.0),
        "zero weights": (np.where(rng.random(logn.size) < 0.3, 0.0, logn), t,
                         K, k_lo, p_floor, 1e5),
        "on the keep boundary at p_floor": (
            rng.permutation(np.concatenate(
                [np.full(50, p_floor * (k_lo / c) ** t), logn[:5000]])),
            t, K, k_lo, p_floor, 3e4),
        "cap the pairs at p_floor": (
            logn, t, K, k_lo, p_floor,
            pair_count_reference(logn, t, K, k_lo, p_floor)),
    }
    # caps met exactly at a bisection step, and caps that split one node's
    # keep test, so that the bisection closes in on where that test flips
    w = logn[:5000]
    steps = []
    choose_threshold_reference(w, t, K, k_lo, p_floor, 3e4, steps)
    for s in (1, 3, 5, 8):
        levels[f"cap the pairs at step {s}"] = (w, t, K, k_lo, p_floor, steps[s][1])
    ws = np.sort(w)
    for r in (30, 300, 2000):
        flip = ws[-r] * (c / k_lo) ** t
        dropped = pair_count_reference(w, t, K, k_lo, flip * (1 + 1e-9))
        levels[f"cap split by the node of rank {r}"] = (
            w, t, K, k_lo, p_floor, dropped + k_lo)
    # nodes a few ulps either side of the keep cut p (k_lo/c)^t, and of the
    # cut lowered by 1e-9 that spares the nodes below it the power: at
    # p_floor, where the level fits, and at the threshold that bisection
    # reaches without them (it ends a few ulps higher with them)
    for te in (1.01, 2.5, 4.0):
        base = rng.lognormal(-12.0, 3.0, 3000)
        p = choose_threshold_reference(base, te, K, k_lo, p_floor, 2e4)[0]
        for at, cap, where in ((p_floor, 1e12, "at p_floor"),
                               (p, 2e4, "in bisection")):
            for cut, name in ((k_lo / c, "cut"),
                              (k_lo * (1.0 - 1e-9) / c, "lowered cut")):
                edge = _ulps_around(at * cut ** te, 4)
                levels[f"ulps from the {name}, t={te} {where}"] = (
                    rng.permutation(np.concatenate([edge, base])), te, K, k_lo,
                    p_floor, cap)
    # w / p_floor is not a finite float for the heaviest nodes
    heavy = np.concatenate([logn[:3000], [1e10, 3e12, 1e11]])
    for te in (1.46, 4.0):
        levels[f"w / p_floor overflows, t={te}"] = (
            rng.permutation(heavy), te, K, k_lo, 1e-300, 5e4)
    # (k_lo/c)^t is not a finite float, and the heaviest nodes are kept
    levels["(k_lo/c)^t overflows"] = (heavy, 800.0, K, k_lo, 1e-300, 5e4)
    return levels


_LEVELS = _threshold_levels()


@pytest.mark.parametrize("name", sorted(_LEVELS))
def test_threshold_matches_reference_on_seeded_levels(name):
    w, t, K, k_lo, p_floor, cap = _LEVELS[name]
    with np.errstate(over="ignore"):  # some levels overflow w / p on purpose
        got = transfer_mod._choose_threshold(w, t, K, k_lo, p_floor, cap)
        ref = choose_threshold_reference(w, t, K, k_lo, p_floor, cap)
    assert _same_choice(got, ref)
