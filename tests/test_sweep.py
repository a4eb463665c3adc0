import math

import numpy as np
import pytest

from bowendim import (DimensionRecord, GridSpec, MapParams, SweepGrid,
                      continue_periodic, cylinder_distance, evaluate,
                      expansion_constants, fixed_points, smoothness_diagnostic,
                      sweep_dimension)
from bowendim.errors import ContinuationError, InsufficientGrid
from bowendim.sweep import _orbit_derivatives
from oracles import central_difference


@pytest.fixture(scope="module")
def fp1(params22):
    return [q for q in fixed_points(params22, (1, 1)) if abs(q.multiplier) > 1][0]


def test_constant_path_returns_start(params22, fp1):
    track = continue_periodic(params22, fp1, [params22.c])
    assert len(track.path) == 1
    c, z, mult = track.path[0]
    assert c == params22.c
    assert z.z == fp1.point.z


def test_track_residuals_and_multipliers(params22, fp1):
    path = [2 + 0.3j * (j + 1) / 20 for j in range(20)]
    track = continue_periodic(params22, fp1, path)
    assert len(track.path) == 21
    for c, z, mult in track.path:
        prm = MapParams(2, c)
        assert cylinder_distance(evaluate(prm, z.z), z.z) < 1e-9
        assert abs(mult) > 1


def _tracked_point(params22, fp1, c):
    return complex(continue_periodic(params22, fp1, [c]).path[-1][1].z)


def test_track_holomorphy_cauchy_riemann(params22, fp1):
    c0, h = 2 + 0.15j, 1e-3
    d_re = central_difference(lambda c: _tracked_point(params22, fp1, c), c0, h)
    d_im = central_difference(lambda c: _tracked_point(params22, fp1, c),
                              c0, 1j * h)
    cr = abs(d_re - d_im) / max(abs(d_re), abs(d_im))
    assert cr < 1e-4


def test_track_derivative_formula_vs_central_difference(params22, fp1):
    c0, h = 2 + 0.15j, 1e-3
    z0 = _tracked_point(params22, fp1, c0)
    d1, d2, _ = _orbit_derivatives(MapParams(2, c0), z0, 1)
    hp = d1 / (1 - d2)
    fd = central_difference(lambda c: _tracked_point(params22, fp1, c), c0, h)
    assert abs(hp - fd) / abs(hp) < 1e-3


def test_track_derivative_bound_from_expansion(params22, fp1):
    est = expansion_constants(params22, 0.1, 50, 10)
    bound = 2 * est.kappa / (est.L * (est.kappa - 1)) * 1.5
    for c in (2 + 0.1j, 2 + 0.25j):
        z = _tracked_point(params22, fp1, c)
        d1, d2, _ = _orbit_derivatives(MapParams(2, c), z, 1)
        assert abs(d1 / (1 - d2)) <= bound


def test_track_aborts_on_failure(params22, fp1):
    with pytest.raises(ContinuationError) as e:
        continue_periodic(params22, fp1, [2 + 0.3j], tol=1e-30)
    assert e.value.track is not None


def test_expansion_constants(params22, fp1):
    est = expansion_constants(params22, 0.1, 50, 10)
    assert est.kappa > 1
    assert est.L * est.kappa <= abs(fp1.multiplier) + 1e-9
    assert 0.8 <= est.beta * est.kappa <= 1.25
    assert est.observations >= 50


def test_expansion_universality_over_window(params22):
    est = expansion_constants(params22, 0.1, 50, 8)
    # the fitted pair certifies fresh observations at perturbed parameters
    for c in (2.05, 2 + 0.08j, 1.95 - 0.05j):
        prm = MapParams(2, c)
        for q in fixed_points(prm, (-2, 2)):
            if abs(q.multiplier) > 1:
                for n in range(1, 9):
                    assert abs(q.multiplier) ** n >= est.L * est.kappa ** n * (1 - 1e-9)


def test_expansion_validates_inputs(params22):
    with pytest.raises(ValueError):
        expansion_constants(params22, 0.1, 5, 10)
    with pytest.raises(ValueError):
        expansion_constants(params22, 0.1, 50, 3)
    # a window point outside D(ell, 1) is refused before any solve; at
    # c = 2.9 the radius 0.1 puts one on the disk's edge
    for c, radius in ((2.0, 5.0), (2.0, 1.0), (2.9, 0.1)):
        with pytest.raises(ValueError, match="c_radius"):
            expansion_constants(MapParams(2, c), radius, 50, 10)


def _synthetic_grid(fn, n=6, center=2 + 0j, half=0.25):
    spec = GridSpec(center, half, half, n, n)
    records = []
    for c in spec.centers():
        records.append(DimensionRecord(c, fn(c), 1e-3, (1.0, 2.0), 0, {}))
    return SweepGrid(2, spec.centers(), records, spec)


def test_smoothness_constant_grid():
    grid = _synthetic_grid(lambda c: 1.5)
    d = smoothness_diagnostic(grid)
    assert d["richardson_max_rel_dev"] == 0.0
    assert d["quadfit_max_residual"] < 1e-12


def test_smoothness_quadratic_grid():
    grid = _synthetic_grid(lambda c: 1.4 + 0.1 * (c.real - 2.0) ** 2)
    d = smoothness_diagnostic(grid)
    assert d["quadfit_max_residual"] < 1e-12
    assert d["richardson_max_rel_dev"] < 1e-9


def test_smoothness_needs_five_points():
    grid = _synthetic_grid(lambda c: 1.5, n=4)
    with pytest.raises(InsufficientGrid):
        smoothness_diagnostic(grid)


@pytest.mark.parametrize("nx, ny", [(0, 3), (3, 0), (-2, 3), (0, 0)])
def test_grid_needs_a_cell(nx, ny):
    with pytest.raises(ValueError, match=f"nx={nx}, ny={ny}"):
        GridSpec(2 + 0j, 0.25, 0.25, nx, ny)


def test_sweep_margin_enforced():
    with pytest.raises(ValueError):
        sweep_dimension(2, GridSpec.square(2.0, 0.99, 3), 0.1)


@pytest.mark.parametrize("attempts", [0, 1.5, 2.0])
def test_sweep_needs_an_attempt(attempts):
    # every cell would fail with no estimate, or on slicing the schedule;
    # the sweep refuses the count
    with pytest.raises(ValueError, match="max_attempts"):
        sweep_dimension(2, GridSpec.square(2.0, 0.25, 3), 0.1,
                        max_attempts=attempts)


@pytest.mark.parametrize("field, args", [
    ("center", (complex(math.nan, 0), 0.1, 0.1)),
    ("center", (complex(2, math.inf), 0.1, 0.1)),
    ("half_re", (2 + 0j, math.nan, 0.1)),
    ("half_im", (2 + 0j, 0.1, math.nan)),
    ("half_im", (2 + 0j, 0.1, -math.inf)),
])
def test_grid_needs_finite_bounds(field, args):
    # a NaN compares False, so it would pass the sweep's margin check and
    # fail in a cell, in the name of c
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        GridSpec(*args, 2, 1)


def test_sweep_5x5_records_and_diagnostics(params22):
    spec = GridSpec.square(2 + 0j, 0.5, 5)
    grid = sweep_dimension(2, spec, accuracy=0.1, threads=4, max_attempts=1)
    assert len(grid.records) == 25
    for rec in grid.records:
        assert not rec.diagnostics.get("failed")
        lo, hi = rec.bracket
        assert 1.0 < lo < rec.t_star < hi
    hd = grid.t_star_array()
    assert np.all(np.isfinite(hd))
    assert np.all((hd > 1.0) & (hd < 2.0))
    # conjugate rows agree (identical mirrored problems)
    syms = [r.diagnostics["sym_defect"] for r in grid.records]
    syms = [s for s in syms if not math.isnan(s)]
    assert syms and max(syms) < 1e-9
    d = smoothness_diagnostic(grid)
    assert d["cells"] == 25.0
    assert d["quadfit_max_residual"] < min(r.uncertainty for r in grid.records)
