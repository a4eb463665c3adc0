"""Parameter-plane analysis: continuation, expansion constants, sweeps.

Periodic points move holomorphically in the parameter c; their derivative
in c at a period-n point z0 is D1F^n / (1 - D2F^n), with the first-variable
derivative accumulated along the orbit by

    D1F^j = dF/dc (F^{j-1}) + F'(F^{j-1}) * D1F^{j-1},   dF/dc = 1 - (ell-1)/c.

Dimension sweeps call the Bowen solver per grid cell and attach finite
difference smoothness and conjugation-symmetry diagnostics.  Smoothness is
probed, never proven.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import defaults
from .cylinder import (TWO_PI, CylinderPoint, MapParams, PeriodicPoint,
                       _orbit_derivatives, canonical, cylinder_distance)
from .dimension import DimensionRecord, bowen_dimension
from .errors import (ContinuationError, DenominatorNearOne, InsufficientGrid,
                     NoExpansion, NumericsError)
from .preimages import fixed_points
from .transfer import _grow, default_base_point

log = logging.getLogger(__name__)


# ------------------------------------------------------------- continuation

@dataclass(frozen=True)
class ContinuationTrack:
    """A periodic point followed along a path in the parameter plane."""

    period: int
    path: tuple  # entries (c, CylinderPoint, multiplier)
    start: PeriodicPoint


def _newton_periodic(params, z, period, tol):
    """Newton on F^period(x) - x over the cylinder; returns (z, residual)."""
    for _ in range(30):
        _, d2, w = _orbit_derivatives(params, z, period)
        rr = complex(w) - complex(z)
        rr -= TWO_PI * 1j * round(rr.imag / TWO_PI)
        denom = d2 - 1.0
        if abs(denom) < 1e-14:
            break
        step = rr / denom
        z = canonical(complex(z) - step)
        if abs(step) < 0.1 * tol:
            break
    resid = cylinder_distance(_orbit_end(params, z, period), z)
    return z, float(resid)


def _orbit_end(params, z, period):
    return _orbit_derivatives(params, z, period)[2]


def continue_periodic(params0: MapParams, p: PeriodicPoint, path,
                      tol: float = defaults.TOL) -> ContinuationTrack:
    """Predictor-corrector continuation of a periodic point along c-values.

    The predictor moves z by h'(c) * dc with h' = D1F^n / (1 - D2F^n); the
    corrector is Newton on the period-n return map at the new parameter.
    Steps longer than MAX_STEP_C are subdivided; a rejected step is halved up
    to the configured retry count.  The track aborts (with the partial track
    attached) if a point stops being repelling or the corrector fails.
    """
    period = p.period
    c = params0.c
    z = p.point.z
    params = params0
    entries = [(c, p.point, p.multiplier)]

    def fail(msg):
        raise ContinuationError(msg, ContinuationTrack(period, tuple(entries), p))

    for target in path:
        target = complex(target)
        while abs(target - c) > 1e-15:
            dc_full = target - c
            n_sub = max(1, math.ceil(abs(dc_full) / defaults.MAX_STEP_C))
            dc = dc_full / n_sub
            accepted = False
            for _ in range(defaults.STEP_HALVINGS + 1):
                d1, d2, _ = _orbit_derivatives(params, z, period)
                if abs(1.0 - d2) < defaults.DENOM_GUARD:
                    raise DenominatorNearOne(
                        f"|1 - (F^n)'| = {abs(1.0 - d2):.2e} at c={c}",
                        ContinuationTrack(period, tuple(entries), p))
                hprime = d1 / (1.0 - d2)
                c_try = c + dc
                params_try = MapParams(params0.ell, c_try)
                z_pred = canonical(complex(z) + hprime * dc)
                z_new, resid = _newton_periodic(params_try, z_pred, period, tol)
                if resid < tol and cylinder_distance(z_new, z) < 1.0:
                    _, mult, _ = _orbit_derivatives(params_try, z_new, period)
                    if abs(mult) <= 1.0:
                        fail(f"tracked point stopped repelling at c={c_try}")
                    c, z, params = c_try, z_new, params_try
                    entries.append((c, CylinderPoint.from_complex(z), complex(mult)))
                    accepted = True
                    break
                dc = dc / 2
            if not accepted:
                fail(f"corrector failed near c={c + dc} (step rejected "
                     f"{defaults.STEP_HALVINGS} times)")
    return ContinuationTrack(period, tuple(entries), p)


# ---------------------------------------------------------------- expansion

@dataclass(frozen=True)
class ExpansionEstimate:
    """Fitted uniform expansion |(F^n)'| >= L * kappa^n over a c-window."""

    L: float
    kappa: float
    samples: int
    n_max: int
    c_window: tuple
    beta: float
    L_inv: float
    fit_residual: float
    observations: int


def _tree_observations(params, n_max, per_param, tol):
    """(n, log|(F^n)'|) observations from forward orbits of preimage leaves."""
    base = default_base_point(params)
    depth = min(n_max, 4)
    lv = _grow(params, 1.5, base, depth, K=12, prune=0.0,
               budget=300_000, keep_nodes=True, tol=tol)
    obs = {n: [] for n in range(1, n_max + 1)}
    nodes = lv.nodes
    if len(nodes) <= depth or nodes[depth] is None:
        return obs
    leaf = nodes[depth]
    order = np.lexsort((leaf.x.imag, leaf.x.real))
    take = order[:: max(1, order.size // per_param)][:per_param]
    idx = take
    for j in range(1, depth + 1):
        idx = nodes[depth - j + 1].parent[idx]
        obs[j].extend((leaf.lam[take] - nodes[depth - j].lam[idx]).tolist())
    return obs


def expansion_constants(params: MapParams, c_radius: float, samples: int,
                        n_max: int, *, tol: float = defaults.TOL
                        ) -> ExpansionEstimate:
    """Fit (L, kappa) with kappa > 1 bounding |(F^n)'| from below.

    Pools observations from repelling periodic points and preimage-tree
    orbits at the window centre and four perturbed parameters, then fits the
    least-squares line through the per-n minima and shifts it down so every
    observation satisfies the bound.  The inverse-branch pair (L_inv, beta)
    is fitted from the reciprocals of the same data.
    """
    if samples < 10:
        raise ValueError("samples must be >= 10")
    if n_max < 5:
        raise ValueError("n_max must be >= 5")
    if not 0 < c_radius < math.inf:
        raise ValueError(f"c_radius must be finite and > 0, got {c_radius:g}")
    cs = [params.c] + [params.c + c_radius * 1j ** j for j in range(4)]
    # the test MapParams makes of each window point, before any solve
    if not all(abs(c - params.ell) < 1.0 for c in cs[1:]):
        raise ValueError(f"c_radius={c_radius:g} takes the window around "
                         f"c={params.c} beyond the disk D({params.ell}, 1)")
    per_param = max(2, samples // len(cs))
    pool = {n: [] for n in range(1, n_max + 1)}
    count = 0
    for c in cs:
        prm = MapParams(params.ell, c)
        for fp in fixed_points(prm, (-2, 2), tol):
            if abs(fp.multiplier) > 1.0:
                lm = math.log(abs(fp.multiplier))
                for n in range(1, n_max + 1):
                    pool[n].append(n * lm)
                count += 1
        tree = _tree_observations(prm, n_max, per_param, tol)
        for n, vals in tree.items():
            pool[n].extend(vals)
            count += len(vals)
    deep = max(3, n_max // 2)
    for n, vals in pool.items():
        if n >= deep and vals and min(vals) <= 0.0:
            raise NoExpansion(
                f"|(F^{n})'| <= 1 observed on sampled Julia data "
                f"(min log = {min(vals):.3g}); solver bug indicator")
    ns = np.array([n for n in range(1, n_max + 1) if pool[n]])
    if ns.size < 2:
        raise NumericsError("not enough expansion observations")
    mins = np.array([min(pool[int(n)]) for n in ns])
    b, a = np.polyfit(ns, mins, 1)
    kappa = math.exp(b)
    shift = float(np.min(mins - b * ns))
    L = math.exp(shift)
    resid = float(np.sqrt(np.mean((mins - (b * ns + shift)) ** 2)))
    return ExpansionEstimate(L=L, kappa=kappa, samples=samples, n_max=n_max,
                             c_window=(params.c, c_radius),
                             beta=1.0 / kappa, L_inv=1.0 / L,
                             fit_residual=resid, observations=count)


# -------------------------------------------------------------------- sweeps

@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid of parameter values centred at `center`."""

    center: complex
    half_re: float
    half_im: float
    nx: int
    ny: int

    def __post_init__(self):
        for name in ("center", "half_re", "half_im"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid needs nx >= 1 and ny >= 1, got "
                             f"nx={self.nx}, ny={self.ny}")

    @classmethod
    def square(cls, center, half_width, n):
        return cls(complex(center), float(half_width), float(half_width),
                   int(n), int(n))

    def centers(self):
        res = np.linspace(self.center.real - self.half_re,
                          self.center.real + self.half_re, self.nx)
        ims = np.linspace(self.center.imag - self.half_im,
                          self.center.imag + self.half_im, self.ny)
        return [complex(r, i) for i in ims for r in res]

    @property
    def spacing(self):
        dre = 2 * self.half_re / max(self.nx - 1, 1)
        dim = 2 * self.half_im / max(self.ny - 1, 1)
        return dre, dim


@dataclass
class SweepGrid:
    """Dimension records aligned 1:1 with the grid centres."""

    ell: int
    centers: list
    records: list
    spec: GridSpec = None

    def t_star_array(self):
        arr = np.array([r.t_star for r in self.records])
        return arr.reshape(self.spec.ny, self.spec.nx)


def sweep_dimension(ell: int, grid_spec: GridSpec, accuracy: float,
                    *, threads: int = 1, max_attempts: int = 3,
                    budget: int = None) -> SweepGrid:
    """Bowen dimension over a parameter grid, with per-cell diagnostics.

    Cell failures are recorded in the cell's diagnostics and the sweep
    continues.  Cells are independent; `threads` bounds the worker pool.
    """
    centers = grid_spec.centers()
    margin = defaults.SWEEP_MARGIN
    bad = [c for c in centers if abs(c - ell) >= 1.0 - margin]
    if bad:
        raise ValueError(f"{len(bad)} grid centres violate the margin "
                         f"{margin} inside D({ell},1), e.g. {bad[0]}")

    def cell(c):
        try:
            return bowen_dimension(MapParams(ell, c), accuracy,
                                   max_attempts=max_attempts, budget=budget)
        except NumericsError as exc:
            log.warning("sweep cell c=%s failed: %s", c, exc)
            return DimensionRecord(c, math.nan, math.inf, (math.nan, math.nan),
                                   0, {"failed": 1.0})

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(cell, centers))
    else:
        records = [cell(c) for c in centers]

    grid = SweepGrid(ell, centers, records, grid_spec)
    _attach_grid_diagnostics(grid)
    return grid


def _attach_grid_diagnostics(grid: SweepGrid):
    ny, nx = grid.spec.ny, grid.spec.nx
    hd = grid.t_star_array()
    dre, dim = grid.spec.spacing
    for j in range(ny):
        for i in range(nx):
            rec = grid.records[j * nx + i]
            d = dict(rec.diagnostics)
            d["grad_re"] = _central(hd[j, :], i, dre)
            d["grad_im"] = _central(hd[:, i], j, dim)
            d["fit_residual"] = _quadfit_residual(hd, j, i, dre, dim)
            jj = ny - 1 - j  # conjugate row when the grid is symmetric
            if grid.spec.center.imag == 0.0 and not math.isnan(hd[jj, i]):
                d["sym_defect"] = abs(hd[j, i] - hd[jj, i])
            else:
                d["sym_defect"] = math.nan
            grid.records[j * nx + i] = DimensionRecord(
                rec.c, rec.t_star, rec.uncertainty, rec.bracket,
                rec.evaluations, d)


def _central(line, i, h):
    n = line.size
    if n < 2 or h == 0:
        return math.nan
    if 0 < i < n - 1:
        return float((line[i + 1] - line[i - 1]) / (2 * h))
    if i == 0:
        return float((line[1] - line[0]) / h)
    return float((line[-1] - line[-2]) / h)


def _quadfit_residual(hd, j, i, dre, dim):
    ny, nx = hd.shape
    if not (0 < j < ny - 1 and 0 < i < nx - 1):
        return math.nan
    patch = hd[j - 1:j + 2, i - 1:i + 2]
    if not np.all(np.isfinite(patch)):
        return math.nan
    xs, ys = np.meshgrid(np.array([-1, 0, 1]) * dre, np.array([-1, 0, 1]) * dim)
    A = np.stack([np.ones(9), xs.ravel(), ys.ravel(), xs.ravel() ** 2,
                  (xs * ys).ravel(), ys.ravel() ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(A, patch.ravel(), rcond=None)
    resid = patch.ravel() - A @ coef
    return float(np.sqrt(np.mean(resid ** 2)))


def smoothness_diagnostic(grid: SweepGrid) -> dict:
    """Named smoothness probes over a rectangular sweep.

    Richardson consistency compares second differences at spacings h and 2h
    (they agree for smooth data; the tolerance is deliberately loose because
    dimension uncertainties dominate), quadratic local fits measure curvature
    capture, and conjugate cells measure the symmetry defect.
    """
    ny, nx = grid.spec.ny, grid.spec.nx
    if nx < 5 or ny < 5:
        raise InsufficientGrid("smoothness diagnostics need >= 5 points per axis")
    hd = grid.t_star_array()
    dre, dim = grid.spec.spacing
    devs = []
    for axis, h in ((1, dre), (0, dim)):
        arr = hd if axis == 1 else hd.T
        d2h = (arr[:, 2:] - 2 * arr[:, 1:-1] + arr[:, :-2]) / h ** 2
        d22 = (arr[:, 4:] - 2 * arr[:, 2:-2] + arr[:, :-4]) / (2 * h) ** 2
        both = np.stack([d2h[:, 1:-1], d22])
        scale = np.maximum(np.abs(both).max(axis=0), 1e-9)
        devs.append(np.abs(both[0] - both[1]) / scale)
    devs = np.concatenate([d.ravel() for d in devs])
    devs = devs[np.isfinite(devs)]
    fits = [_quadfit_residual(hd, j, i, dre, dim)
            for j in range(1, ny - 1) for i in range(1, nx - 1)]
    fits = [f for f in fits if not math.isnan(f)]
    syms = [r.diagnostics.get("sym_defect", math.nan) for r in grid.records]
    syms = [s for s in syms if not math.isnan(s)]
    return {
        "richardson_max_rel_dev": float(devs.max()) if devs.size else math.nan,
        "richardson_pass_fraction": float(
            (devs <= defaults.RICHARDSON_TOL).mean()) if devs.size else math.nan,
        "quadfit_max_residual": max(fits) if fits else math.nan,
        "quadfit_mean_residual": float(np.mean(fits)) if fits else math.nan,
        "sym_defect_max": max(syms) if syms else math.nan,
        "cells": float(len(grid.records)),
    }
