import cmath
import math

import numpy as np
import pytest

from bowendim import (CylinderPoint, MapParams, OrbitTag, canonical,
                      classify_orbit, classify_window, cylinder_distance, defaults,
                      derivative, evaluate, fixed_points, orbit_derivative,
                      param_derivative)
import bowendim.cylinder as cylinder_mod
from bowendim.cylinder import _classify
from conftest import random_disk_params
from oracles import (ESCAPE_PLUS_INFINITY, classify_orbit_reference,
                     fixed_point_oracle)

TWO_PI = 2 * math.pi


def test_params_validation():
    with pytest.raises(ValueError):
        MapParams(1, 1.5)
    with pytest.raises(ValueError):
        MapParams(2, 3.2)  # outside D(2, 1)
    p = MapParams(2, 2.3 + 0.4j)
    assert p.multiplier == 2 - (2.3 + 0.4j)


@pytest.mark.parametrize("c", [complex("nan"), complex(2.0, math.nan),
                               complex(math.nan, 0.1), complex(math.inf, 0.0)])
def test_params_reject_non_finite_c(c):
    with pytest.raises(ValueError):
        MapParams(2, c)


def test_canonical_strip():
    assert canonical(1j * math.pi).imag == pytest.approx(math.pi)
    assert canonical(-1j * math.pi).imag == pytest.approx(math.pi)  # -pi -> pi
    assert canonical(2.5j * math.pi).imag == pytest.approx(0.5 * math.pi)
    p = CylinderPoint(0.0, 3 * math.pi / 2)
    assert p.im == pytest.approx(-math.pi / 2)
    assert cylinder_distance(0.1 + 1j * math.pi, 0.1 - 1j * math.pi) < 1e-15
    # the one strip rule, idempotent at both edges: +-8 ulps around
    # +-pi + 2*pi*k, signed zeros, non-finite values and seeded bulk values
    edges = np.array([s * math.pi + TWO_PI * k for s in (-1, 1)
                      for k in range(-6, 7)])
    near = [edges]
    for _ in range(8):
        near += [np.nextafter(near[-1], -np.inf)]
    far = [edges]
    for _ in range(8):
        far += [np.nextafter(far[-1], np.inf)]
    ims = np.concatenate(near + far + [
        [0.0, -0.0, math.nan, math.inf, -math.inf, -3.1415926535897927],
        np.random.default_rng(7).uniform(-60.0, 60.0, 1_000_000)])
    res = ims[::-1]
    z = np.empty(ims.size, dtype=np.complex128)
    z.real, z.imag = res, ims
    w = canonical(z)
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
    assert np.array_equal(bits(w.real), bits(z.real))  # Re keeps its bits
    fin = np.isfinite(ims)
    assert np.all((w.imag[fin] > -math.pi) & (w.imag[fin] <= math.pi))
    assert np.array_equal(bits(w.imag[~fin]), bits(ims[~fin]))
    assert np.array_equal(bits(canonical(w)), bits(w))  # idempotent
    inside = fin & (ims > -math.pi) & (ims <= math.pi)
    assert np.array_equal(bits(w.imag[inside]), bits(ims[inside]))
    assert canonical(complex(0.0, -3.1415926535897927)).imag == -3.1415926535897927
    # shifted by whole turns only: the residue of Im is kept to rounding
    assert np.all(cylinder_distance(1j * w.imag[fin], 1j * ims[fin]) <= 1e-13)
    # scalars, CylinderPoints and sequences agree with the array rule, and
    # CylinderPoint stores canonical's Im
    for i in np.flatnonzero(fin)[:500].tolist() + [len(ims) - 1]:
        cp = CylinderPoint(res[i] if np.isfinite(res[i]) else 0.0, ims[i])
        assert bits(np.array([cp.im])) == bits(w.imag[i:i + 1])
        assert bits(np.array([canonical(z[i]).imag])) == bits(w.imag[i:i + 1])
        assert canonical(cp) == cp.z
    assert np.array_equal(bits(canonical(list(z[:50]))), bits(w[:50]))
    # 2-D arrays in C order, F order and strided views: every entry is
    # reduced, none left behind in a copy
    block = z[:120_000].reshape(300, 400)
    for arr in (block, np.asfortranarray(block), block[::3, ::-2],
                np.asfortranarray(block)[1::2, ::5]):
        got = canonical(arr)
        assert got.shape == arr.shape
        assert np.array_equal(bits(got), bits(canonical(arr.ravel()).reshape(arr.shape)))
        assert np.all(np.abs(got.imag[np.isfinite(got.imag)]) <= math.pi)
        assert np.array_equal(bits(canonical(got)), bits(got))


@pytest.mark.parametrize("re, im, name", [(math.nan, 0.0, "re"),
                                           (math.inf, 0.0, "re"),
                                           (0.0, math.nan, "im"),
                                           (0.0, -math.inf, "im")])
def test_cylinder_point_rejects_non_finite(re, im, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        CylinderPoint(re, im)


def test_fixed_point_of_log_c(params22):
    z = evaluate(params22, cmath.log(2))
    assert abs(z - cmath.log(2)) < 1e-12


def test_evaluate_at_zero(params22):
    assert abs(evaluate(params22, 0.0) - (1 - math.log(2))) < 1e-12


def test_lift_independence(rng):
    p = MapParams(2, 2.1 + 0.3j)
    z = rng.uniform(-5, 5, 1000) + 1j * rng.uniform(-10, 10, 1000)
    k = rng.integers(-10, 11, 1000)
    a = evaluate(p, z)
    b = evaluate(p, z + TWO_PI * 1j * k)
    assert np.max(cylinder_distance(a, b)) < 1e-12


def test_conjugation_symmetry(rng):
    for p in random_disk_params(rng, 2, n=20):
        pc = p.conjugate()
        z = complex(rng.uniform(-3, 5), rng.uniform(-3, 3))
        lhs = evaluate(pc, np.conj(z))
        rhs = np.conj(evaluate(p, z))
        assert cylinder_distance(lhs, rhs) < 1e-12


def test_derivative_values(params22, rng):
    assert abs(derivative(params22, math.log(2))) < 1e-12  # critical point
    assert abs(derivative(params22, 0.0) - 1.0) < 1e-15    # ell - 1
    for ell in (2, 3):
        for p in random_disk_params(rng, ell, n=50):
            assert abs(derivative(p, p.log_c) - p.multiplier) < 1e-12


def test_param_derivative_values():
    assert param_derivative(MapParams(2, 2.0)) == pytest.approx(0.5)
    # the closed form 1 - (ell-1)/c at ell=2, c=1+0.5i (plain arithmetic;
    # that c lies outside the parameter disk, so no MapParams here)
    assert abs((1 - 1 / (1 + 0.5j)) - (0.2 + 0.4j)) < 1e-14
    got = param_derivative(MapParams(2, 1.8 + 0.5j))
    assert abs(got - (1 - 1 / (1.8 + 0.5j))) < 1e-14


def test_param_derivative_finite_difference():
    ell, z = 2, 0.4 + 0.7j

    def f_at(c):
        return evaluate(MapParams(ell, c), z)

    c0 = 2.1 + 0.2j
    pd = param_derivative(MapParams(ell, c0))
    h = 1e-5
    fd = (f_at(c0 + h) - f_at(c0 - h)) / (2 * h)
    assert abs(pd - fd) < 1e-9
    # second order: error ratio ~ 4 when h halves (at h large enough to
    # stay clear of roundoff)
    errs = []
    for h in (1e-3, 5e-4):
        fd = (f_at(c0 + h) - f_at(c0 - h)) / (2 * h)
        errs.append(abs(pd - fd))
    assert 2.5 < errs[0] / errs[1] < 6.0


def test_orbit_derivative(params22):
    z = 0.3 + 0.4j
    assert orbit_derivative(params22, z, 1) == pytest.approx(
        complex(derivative(params22, z)))
    # at a fixed point the chain rule collapses to a power
    fps = [q for q in fixed_points(params22, (1, 1)) if abs(q.multiplier) > 1]
    p = fps[0]
    d3 = orbit_derivative(params22, p.point.z, 3)
    assert abs(d3 - p.multiplier ** 3) < 1e-8 * abs(p.multiplier) ** 3


def test_classify_fixed_point(params22):
    oc = classify_orbit(params22, params22.log_c)
    assert oc.tag == OrbitTag.ATTRACTED_TO_LOG_C
    assert oc.iterations_used == 0


def test_classify_baker_half_plane(params22):
    oc = classify_orbit(params22, -3 * params22.ell + 0.7j)
    assert oc.tag == OrbitTag.BAKER_ESCAPE
    assert oc.iterations_used == 0


def test_classify_critical_orbit():
    # the critical point is attracted to log c throughout the disk
    for c in (2.0, 2.4 + 0.3j, 1.7 - 0.4j):
        p = MapParams(2, c)
        oc = classify_orbit(p, p.critical_point, max_iter=500)
        assert oc.tag == OrbitTag.ATTRACTED_TO_LOG_C


@pytest.mark.parametrize("max_iter, radius_eps", [(0, 0.05), (-1, 0.05),
                                                   (10, 0.0), (10, -1.0),
                                                   (10, math.nan)])
def test_classify_entry_points_share_their_checks(params22, max_iter,
                                                  radius_eps):
    with pytest.raises(ValueError):
        classify_orbit(params22, 0.5 + 0.5j, max_iter, radius_eps)
    with pytest.raises(ValueError):
        classify_window(params22, -6.0, 6.0, 4, 4, max_iter, radius_eps)


def test_classify_window_matches_scalar(params22, base22):
    # both entry points against a scalar loop: window tags, and the tag and
    # iterations_used of every orbit
    tags = classify_window(params22, -5, 4, 12, 9, max_iter=60)
    res = np.linspace(-5, 4, 12, endpoint=False) + 9 / (2 * 12)
    ims = math.pi - (np.arange(9) + 0.5) * TWO_PI / 9
    starts = [complex(r, i) for i in ims for r in res]
    for z, tag in zip(starts, tags.ravel()):
        oc = classify_orbit(params22, z, max_iter=60)
        assert (oc.tag, oc.iterations_used) == \
            classify_orbit_reference(params22, z, 60)
        assert tag == int(oc.tag)
    # decided after >= 1 step: attracted, Baker escape (via Re ~ 44 and
    # 5.6e17), NaN once the Re > 50 streak reached 2; the repelling base
    # point stays unresolved until max_iter; a NaN start.  The reference's
    # escape to +infinity needs five growing iterates above Re = 50, which
    # overflow to infinity first, so no start reaches it (extreme starts are
    # checked in test_no_orbit_escapes_to_plus_infinity).
    decided = {0.5 + 0.5j: (OrbitTag.ATTRACTED_TO_LOG_C, 3),
               3.69 - 2.634j: (OrbitTag.BAKER_ESCAPE, 3),
               51 + 3j: (OrbitTag.UNRESOLVED, 3),
               base22: (OrbitTag.UNRESOLVED, 10),
               complex(math.nan, 0.0): (OrbitTag.UNRESOLVED, 0)}
    for z, want in decided.items():
        assert classify_orbit_reference(params22, z, 10) == want
        oc = classify_orbit(params22, z, max_iter=10)
        assert (oc.tag, oc.iterations_used) == want


def test_no_orbit_escapes_to_plus_infinity():
    # starts at and far beyond the reference's escape threshold
    # max(50, 10*ell), below and above the overflow edge Re = 709.78; Im at
    # the doubles nearest +-pi/2 makes |cos(Im)| as small as a double
    # allows.  ell = 70 and 71 sit on either side of a threshold at 709.78.
    res = (50.5, 100.0, 700.0, 709.7, 709.79, 1e300, math.inf)
    ims = (0.0, math.pi / 2, -math.pi / 2, math.pi, -3.0)
    for ell in (2, 3, 70, 71, 1000):
        p = MapParams(ell, ell + 0.5)
        for re in res:
            for im in ims:
                want = classify_orbit_reference(p, complex(re, im), 20)
                assert want[0] != ESCAPE_PLUS_INFINITY
                oc = classify_orbit(p, complex(re, im), max_iter=20)
                assert (oc.tag, oc.iterations_used) == want
    # a window reaching Re = 60, past the threshold 50 at ell = 2
    tags = classify_window(MapParams(2, 1.1), -6, 60, 132, 24)
    assert not (tags == ESCAPE_PLUS_INFINITY).any()


def test_compacting_kernel_matches_reference_near_boundary(rng):
    # near the disk boundary attraction to log c is slow, so the orbits of
    # one window are decided at many different iterates and the kernel's
    # working arrays shrink step by step
    p = MapParams(3, 3 + 0.9j)
    n, max_iter = 40, 200
    tags = classify_window(p, -6, 6, n, n, max_iter=max_iter)
    res = np.linspace(-6, 6, n, endpoint=False) + 12 / (2 * n)
    ims = math.pi - (np.arange(n) + 0.5) * TWO_PI / n
    starts = (res[None, :] + 1j * ims[:, None]).ravel()
    want = [classify_orbit_reference(p, z, max_iter) for z in starts]
    assert tags.ravel().tolist() == [int(tag) for tag, _ in want]
    assert len({used for _, used in want}) >= 10
    for j in rng.choice(starts.size, 60, replace=False):
        oc = classify_orbit(p, starts[j], max_iter=max_iter)
        assert (oc.tag, oc.iterations_used) == want[j]
    # a row of NaN starts among the window's orbits: NaN in either
    # coordinate, some with Re < -2*ell, which is no Baker escape then
    row = n // 2
    z = starts.copy()
    z[row * n:(row + 1) * n] = [complex(math.nan, im) if i % 2 else
                                complex(re - 3, math.nan)
                                for i, (re, im) in enumerate(zip(res, ims))]
    got_tags, got_used = _classify(p, z.copy(), max_iter, defaults.RADIUS_EPS)
    want = [classify_orbit_reference(p, w, max_iter) for w in z]
    assert want[row * n:(row + 1) * n] == [(OrbitTag.UNRESOLVED, 0)] * n
    assert list(zip(got_tags.tolist(), got_used.tolist())) == \
        [(int(tag), used) for tag, used in want]


def test_window_chunks_give_the_same_tags(monkeypatch):
    # chunks of 7 pixels split the window's rows, so orbits decided at
    # different iterates share a chunk; the tags equal one chunk's bit for bit
    p = MapParams(3, 3 + 0.9j)
    whole = classify_window(p, -6, 6, 40, 30)
    monkeypatch.setattr(cylinder_mod, "_WINDOW_CHUNK", 7)
    chunked = classify_window(p, -6, 6, 40, 30)
    assert chunked.dtype == whole.dtype and chunked.shape == whole.shape
    assert chunked.tobytes() == whole.tobytes()


def test_fixed_points_contract(params22):
    pts = fixed_points(params22, (-3, 3))
    assert any(abs(q.point.z - cmath.log(2)) < 1e-9 and abs(q.multiplier) < 1e-12
               for q in pts)
    for q in pts:
        img = evaluate(params22, q.point.z)
        assert cylinder_distance(img, q.point.z) < 1e-11
        re_mult = params22.ell - cmath.exp(q.point.z)
        assert abs(re_mult - q.multiplier) < 1e-12


def test_fixed_points_match_dense_oracle():
    for c in (2.0, 2.2 + 0.35j):
        p = MapParams(2, c)
        got = fixed_points(p, (-3, 3))
        ox, ok_ = fixed_point_oracle(2, c, (-6.0, 6.0), spacing=0.1, k_cap=3)
        mine = np.array([q.point.z for q in got])
        mine = mine[(mine.real >= -6) & (mine.real <= 6)]
        assert mine.size == ox.size
        for z in mine:
            assert np.min(np.abs(ox - z)) < 1e-9
