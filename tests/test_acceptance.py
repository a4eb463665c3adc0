"""Acceptance suite: every primary criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts.  Heavy artefacts (dimension records, pressure tables) are computed
once per session and shared.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bowendim import (MapParams, bowen_dimension, canonical, conformal_atoms,
                      cylinder_distance, derivative, evaluate, fixed_points,
                      preimages, pressure, pressure_ratio, tail_weight_bound,
                      zeta_pressure)
from bowendim.errors import AccuracyNotReached
from bowendim.sweep import _orbit_derivatives, continue_periodic, \
    expansion_constants
from conftest import random_disk_params
from oracles import central_difference, preimage_oracle


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def press(params, t, attempts=3, acc=5e-3):
    try:
        return pressure(params, t, acc, max_attempts=attempts)
    except AccuracyNotReached as exc:
        return exc.estimate


@pytest.fixture(scope="module")
def dim22(params22):
    return bowen_dimension(params22, accuracy=5e-3)


@pytest.fixture(scope="module")
def p_table(params22):
    return {t: press(params22, t) for t in (1.3, 1.5, 1.7, 2.0)}


def test_fixed_point_multiplier_suite(rng):
    t0 = time.time()
    worst_f = worst_d = 0.0
    for ell in (2, 3):
        for p in random_disk_params(rng, ell, radius=0.95, n=50):
            zc = p.log_c
            worst_f = max(worst_f, cylinder_distance(evaluate(p, zc), zc))
            worst_d = max(worst_d, abs(derivative(p, zc) - (ell - p.c)))
    dt = time.time() - t0
    ok = worst_f < 1e-12 and worst_d < 1e-12 and dt < 1.0
    assert report("fixed-point & multiplier suite", ok,
                  f"max |F(log c)-log c|={worst_f:.2e}, "
                  f"max |F'(log c)-(ell-c)|={worst_d:.2e}, {dt:.2f}s")


def test_preimage_completeness(params22):
    t0 = time.time()
    w = math.log(2)
    K = 50
    box = (-4.0, math.log(100 * math.pi) + 1)
    ps = preimages(params22, w, K)
    mine = ps.points()
    inside = mine[(mine.real >= box[0]) & (mine.real <= box[1])]
    ox, _ = preimage_oracle(2, 2.0, w, box, spacing=0.1, k_cap=K)
    count_ok = inside.size == ox.size == mine.size
    dist = max(float(np.min(np.abs(ox - z))) for z in inside) if count_ok else math.inf
    ok = count_ok and dist < 1e-9
    assert report("preimage completeness", ok,
                  f"solver {inside.size} vs oracle {ox.size} roots, "
                  f"max pointwise {dist:.2e}, {time.time()-t0:.1f}s")


def test_tail_bound_soundness(params22):
    t0 = time.time()
    ps = preimages(params22, math.log(2), 1000)
    ks = ps.ks()
    ders = np.abs(ps.derivs())
    sel = np.abs(ks) > 100
    results = []
    for t in (1.5, 2.0):
        emp = float(np.sum(ders[sel] ** -t))
        bound = tail_weight_bound(100, t).bound
        results.append((t, emp, bound, emp <= bound))
    ok = all(r[3] for r in results)
    assert report("tail-bound soundness", ok,
                  "; ".join(f"t={t}: {e:.3e} <= {b:.3e}" for t, e, b, _ in results)
                  + f", {time.time()-t0:.1f}s")


def test_transfer_operator_decay(params22):
    t0 = time.time()
    from bowendim import apply_transfer
    vals = [apply_transfer(params22, 1.5, lambda z: 1.0, re + 0.5j, K=200).value
            for re in (2, 10, 20)]
    ok = vals[0] > vals[1] > vals[2]
    assert report("transfer-operator decay", ok,
                  f"L1 at Re 2/10/20 = {vals[0]:.4f}/{vals[1]:.4f}/{vals[2]:.4f}"
                  f", {time.time()-t0:.1f}s")


def test_pressure_properties(params22, p_table):
    t0 = time.time()
    ts = (1.3, 1.5, 1.7, 2.0)
    vals = {t: p_table[t].value for t in ts}
    uncs = {t: p_table[t].uncertainty for t in ts}
    mono = all(vals[a] - vals[b] > uncs[a] + uncs[b]
               for a, b in zip(ts, ts[1:]))
    convex = (vals[1.3] + vals[1.7] - 2 * vals[1.5]
              >= -2 * (uncs[1.3] + uncs[1.5] + uncs[1.7]))
    reps = [q.point.z for q in fixed_points(params22, (-1, 1))
            if abs(q.multiplier) > 1][:2]
    e1 = press(params22, 1.5, attempts=2)
    try:
        e2 = pressure(params22, 1.5, 5e-3, z=reps[1], max_attempts=2)
    except AccuracyNotReached as exc:
        e2 = exc.estimate
    indep = abs(e1.value - e2.value) < e1.uncertainty + e2.uncertainty
    ok = mono and convex and indep
    table = ", ".join(f"P({t})={vals[t]:+.4f}+-{uncs[t]:.3f}" for t in ts)
    assert report("pressure properties", ok,
                  f"{table}; monotone-beyond-unc={mono} convex={convex} "
                  f"base-indep={indep}, {time.time()-t0:.0f}s")


def test_cross_oracle_pressure_agreement(params22, base22):
    t0 = time.time()
    r = pressure_ratio(params22, 1.5, base22, 4, K=2048, prune=1e-11,
                       budget=1_000_000)
    z = zeta_pressure(params22, 1.5, 3, 20)
    gap = abs(r.value - z.value)
    allowance = r.uncertainty + z.uncertainty + 0.05
    ok = gap <= allowance
    assert report("cross-oracle pressure agreement", ok,
                  f"|ratio-zeta| = {gap:.4f} <= {allowance:.4f}, "
                  f"{time.time()-t0:.0f}s")


def test_bowen_zero(dim22):
    lo, hi = dim22.bracket
    width = hi - lo
    certified = dim22.diagnostics.get("certified") == 1.0
    in_range = 1.0 < dim22.t_star < 2.0
    ok = certified and width < 5e-3 and in_range
    assert report("Bowen zero", ok,
                  f"t*={dim22.t_star:.5f}+-{dim22.uncertainty:.3f}, "
                  f"bracket width {width:.2e} (<5e-3: {width < 5e-3}), "
                  f"certified={certified}, in (1,2)={in_range}")


def test_conjugation_symmetry_of_dimension():
    t0 = time.time()
    a = bowen_dimension(MapParams(2, 2 + 0.3j), accuracy=5e-3)
    b = bowen_dimension(MapParams(2, 2 - 0.3j), accuracy=5e-3)
    gap = abs(a.t_star - b.t_star)
    allowance = a.uncertainty + b.uncertainty
    ok = gap <= allowance
    assert report("conjugation symmetry of dimension", ok,
                  f"|t*(2+0.3i) - t*(2-0.3i)| = {gap:.2e} <= {allowance:.3f}, "
                  f"{time.time()-t0:.0f}s")


def test_continuity_probe(dim22):
    t0 = time.time()
    cs = [2 + 0.05j * j for j in range(5)]
    recs = [dim22] + [bowen_dimension(MapParams(2, c), accuracy=5e-3)
                      for c in cs[1:]]
    finite = all(math.isfinite(r.t_star) for r in recs)
    jumps = [abs(recs[i + 1].t_star - recs[i].t_star) for i in range(4)]
    med = float(np.median(jumps))
    no_spike = all(j <= 10 * med for j in jumps) if med > 0 else \
        all(j == 0 for j in jumps)
    ok = finite and no_spike
    assert report("continuity probe", ok,
                  f"t* = {[f'{r.t_star:.4f}' for r in recs]}, jumps "
                  f"{[f'{j:.1e}' for j in jumps]}, median {med:.1e}, "
                  f"{time.time()-t0:.0f}s")


def test_continuation_suite(params22):
    t0 = time.time()
    fp1 = [q for q in fixed_points(params22, (1, 1)) if abs(q.multiplier) > 1][0]
    path = [2 + 0.3j * (j + 1) / 20 for j in range(20)]
    track = continue_periodic(params22, fp1, path)
    worst_res = 0.0
    min_mult = math.inf
    for c, z, mult in track.path:
        prm = MapParams(2, c)
        worst_res = max(worst_res, cylinder_distance(evaluate(prm, z.z), z.z))
        min_mult = min(min_mult, abs(mult))

    c0, h = 2 + 0.15j, 1e-3

    def tracked(c):
        return complex(continue_periodic(params22, fp1, [c]).path[-1][1].z)

    fd_re = central_difference(tracked, c0, h)
    fd_im = central_difference(tracked, c0, 1j * h)
    cr = abs(fd_re - fd_im) / max(abs(fd_re), abs(fd_im))
    d1, d2, _ = _orbit_derivatives(MapParams(2, c0), tracked(c0), 1)
    hp = d1 / (1 - d2)
    rel = abs(hp - fd_re) / abs(hp)
    ok = worst_res < 1e-9 and min_mult > 1 and rel < 1e-3 and cr < 1e-4
    assert report("continuation suite", ok,
                  f"max residual {worst_res:.1e}, min |mult| {min_mult:.3f}, "
                  f"derivative rel err {rel:.1e}, CR residual {cr:.1e}, "
                  f"{time.time()-t0:.1f}s")


def test_expansion_certification(params22):
    t0 = time.time()
    est = expansion_constants(params22, 0.1, 50, 10)
    # the shared pair certifies fresh per-parameter observations
    certified = True
    for c in (2.0, 2.1, 2 + 0.1j, 1.9, 2 - 0.1j):
        prm = MapParams(2, c)
        for q in fixed_points(prm, (-2, 2)):
            if abs(q.multiplier) > 1:
                for n in range(1, 11):
                    if abs(q.multiplier) ** n < est.L * est.kappa ** n * (1 - 1e-9):
                        certified = False
    ok = est.kappa > 1 and certified
    assert report("expansion certification", ok,
                  f"kappa={est.kappa:.4f} L={est.L:.4f} "
                  f"({est.observations} observations), shared-pair certified="
                  f"{certified}, {time.time()-t0:.0f}s")


def test_conformal_measure_defect(params22, base22, p_table):
    t0 = time.time()
    P = p_table[1.5].value
    t = 1.5
    center = complex(base22)
    h = 0.034  # box diameter 0.096 < delta_num = 0.1, so F is injective on it

    def in_box(z):
        d = np.asarray(z) - center
        im = d.imag - 2 * np.pi * np.round(d.imag / (2 * np.pi))
        return (np.abs(d.real) <= h) & (np.abs(im) <= h)

    fc = params22.ell * center + params22.affine_term - np.exp(center)
    k0 = int(np.round((fc - complex(canonical(fc))).imag / (2 * np.pi)))

    def defect(depth, K, prune, budget):
        am = conformal_atoms(params22, t, P, base22, depth, K=K, prune=prune,
                             budget=budget)
        pts, mass = am.points, am.masses
        inA = in_box(pts)
        B = pts + 2j * np.pi * k0 - params22.affine_term
        x = np.full(pts.shape, center, dtype=complex)
        for _ in range(60):
            e = np.exp(x)
            x = x - (params22.ell * x - e - B) / (params22.ell - e)
        member = (np.abs(params22.ell * x - np.exp(x) - B) < 1e-9) & in_box(x)
        nu_fa = mass[member].sum()
        rhs = (math.exp(P) * np.abs(params22.ell - np.exp(pts[inA])) ** t
               * mass[inA]).sum()
        return abs(nu_fa - rhs)

    d3 = defect(3, 32, 1e-13, 1_000_000)
    d6 = defect(6, 32, 1e-11, 4_000_000)
    ok = d6 < d3
    assert report("conformal-measure defect", ok,
                  f"defect depth3 {d3:.2e} -> depth6 {d6:.2e}, "
                  f"{time.time()-t0:.0f}s")


def test_cli_golden_files(tmp_path):
    t0 = time.time()

    # the child imports bowendim from where this process does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def run(args, out):
        cmd = [sys.executable, "-m", "bowendim.cli"] + args + ["--out", str(out)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                             env=env)
        assert res.returncode == 0, res.stderr
        return out.read_bytes()

    identical = True
    jobs = [
        (["preimages", "--ell", "2", "--c", "2+0i", "--w", "0.6931+0i",
          "--K", "50"], "pre.csv"),
        (["dim", "--ell", "2", "--c", "2+0i"], "dim.json"),
        (["classify", "--ell", "2", "--c", "2+0i", "--window=-6:6",
          "--res", "64x64"], "cls.pgm"),
    ]
    for args, name in jobs:
        a = run(args, tmp_path / ("a_" + name))
        b = run(args, tmp_path / ("b_" + name))
        identical &= a == b
    dt = time.time() - t0
    ok = identical and dt < 120
    assert report("CLI golden files", ok,
                  f"byte-identical={identical}, {dt:.0f}s (< 120s)")
