"""The three workloads: inputs from a seed, one timed round, independent checks.

A round is the unit a run repeats; every round of a workload attempts the
same operations, so the share of failed operations is the same in every
run.  Rounds call the library through module attributes
(``bd.dimension.bowen_dimension`` and so on), as the CLI subcommands do,
so that the traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import oracles


@dataclass
class Round:
    outputs: list
    attempted: int
    failed: int
    wall_s: float
    parts_s: dict = field(default_factory=dict)
    # check findings that are reported but not gated, such as those on
    # operations counted as failed: `correct` speaks only of the others
    notes: list = field(default_factory=list)


def _disk_point(rng, ell, r_lo, r_hi):
    r = rng.uniform(r_lo, r_hi)
    th = rng.uniform(0.0, 2 * math.pi)
    return complex(ell + r * math.cos(th), r * math.sin(th))


def freeze(obj):
    """Exact, comparable image of an output: float bits and array bytes."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, float):
        return ("float", obj.hex())
    if isinstance(obj, complex):
        return ("complex", obj.real.hex(), obj.imag.hex())
    if isinstance(obj, dict):
        return tuple((k, freeze(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(v) for v in obj)
    return repr(obj)


def _record_image(rec):
    return (rec.c, rec.t_star, rec.uncertainty, rec.bracket, rec.evaluations,
            rec.diagnostics)


def _bracket_problems(image, accuracy, label):
    _, t_star, _, (lo, hi), _, _ = image
    out = []
    if not (1.0 < lo < t_star < hi < 2.0):
        out.append(f"{label}: not 1 < t_lo < t* < t_hi < 2 "
                   f"({lo!r}, {t_star!r}, {hi!r})")
    if not hi - lo <= accuracy:
        out.append(f"{label}: bracket width {hi - lo:.3g} > accuracy {accuracy}")
    return out


class DimBase:
    """`bowendim dim` at the reference point (ell, c) = (2, 2): the deep path
    (K up to 2048, depth 5) that one-tree-per-parameter, Newton on P and the
    lean hot path target."""

    name = "dim-base"

    def inputs(self, bd, seed, quick):
        rng = np.random.default_rng([seed, 1])
        return {
            "ell": 2, "c": 2 + 0j,
            "accuracy": 0.1 if quick else 5e-3,
            "solver": {"max_attempts": 1, "budget": 50_000} if quick else {},
            # the S_1/S_2 cross-check also runs at a seeded ell = 3 parameter
            "check_t": float(rng.uniform(1.2, 1.8)),
            "check_c3": _disk_point(rng, 3, 0.0, 0.5),
        }

    def first_params(self, bd, inp):
        return inp["ell"], inp["c"]

    def run(self, bd, inp):
        params = bd.MapParams(inp["ell"], inp["c"])
        t0 = time.perf_counter()
        rec = bd.dimension.bowen_dimension(params, inp["accuracy"], **inp["solver"])
        wall = time.perf_counter() - t0
        return Round([_record_image(rec)], 1, 0, wall)

    def check(self, bd, inp, rnd):
        out = _bracket_problems(rnd.outputs[0], inp["accuracy"], "dim")
        for ell, c in ((inp["ell"], inp["c"]), (3, inp["check_c3"])):
            params = bd.MapParams(ell, c)
            z = bd.transfer.default_base_point(params)
            S = bd.transfer.transfer_level_sums(params, inp["check_t"], z, 2, 32, 0.0)
            ref = oracles.level_sums(ell, c, inp["check_t"], z, 32)
            for j in (1, 2):
                rel = abs(S[j].value / ref[j - 1] - 1.0)
                if not rel <= 1e-10:
                    out.append(f"S_{j} at ell={ell}, c={c:.4g}: relative "
                               f"difference {rel:.3g} from the double loop")
        return out

    def report(self, rnds, inp):
        return {"dim_s": (float(np.median([r.wall_s for r in rnds])), "s"),
                "dim_unc": (max(r.outputs[0][2] for r in rnds), "1")}


class SweepGrid:
    """A cold 3x3 `sweep` around c = 2 on the shallow path (K = 512) with the
    thread pool; the grid is symmetric about the real axis."""

    name = "sweep-grid"

    def inputs(self, bd, seed, quick):
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:
            cores = os.cpu_count() or 1
        return {
            "ell": 2, "center": 2 + 0j, "half": 0.5, "n": 3,
            "accuracy": 0.2 if quick else 0.1,
            "threads": min(2, cores),
            "solver": {"max_attempts": 1},
        }

    def _spec(self, bd, inp):
        return bd.sweep.GridSpec.square(inp["center"], inp["half"], inp["n"])

    def first_params(self, bd, inp):
        return inp["ell"], self._spec(bd, inp).centers()[0]

    def run(self, bd, inp):
        t0 = time.perf_counter()
        grid = bd.sweep.sweep_dimension(inp["ell"], self._spec(bd, inp),
                                        inp["accuracy"], threads=inp["threads"],
                                        **inp["solver"])
        wall = time.perf_counter() - t0
        failed = sum(1 for r in grid.records if r.diagnostics.get("failed"))
        return Round([_record_image(r) for r in grid.records],
                     len(grid.records), failed, wall)

    def check(self, bd, inp, rnd):
        n = inp["n"]
        out = []
        for o in rnd.outputs:
            out += _bracket_problems(o, inp["accuracy"], f"cell c={o[0]:.3g}")
        cs = np.array([o[0] for o in rnd.outputs]).reshape(n, n)
        hd = np.array([o[1] for o in rnd.outputs]).reshape(n, n)
        if not np.allclose(cs[::-1].conj(), cs, rtol=0, atol=1e-12):
            out.append("grid rows are not mirror images")
        sym = float(np.max(np.abs(hd - hd[::-1])))
        if not sym <= 1e-9:
            out.append(f"conjugate cells differ by {sym:.3g}")
        fit = oracles.quadratic_fit_residual(cs.ravel(), hd.ravel())
        unc_min = min(o[2] for o in rnd.outputs)
        if not fit < unc_min:
            out.append(f"quadratic fit residual {fit:.3g} >= smallest cell "
                       f"uncertainty {unc_min:.3g}")
        return out

    def report(self, rnds, inp):
        cells = inp["n"] ** 2
        wall = float(np.median([r.wall_s for r in rnds]))
        return {"sweep_cells_per_s": (cells / wall, "cells/s"),
                "sweep_unc_max": (max(o[2] for r in rnds for o in r.outputs), "1")}


class BranchesOrbits:
    """Module-grade code that never enters transfer or dimension: orbit
    classification windows and dense-seed preimage enumerations.

    The enumerations at K = 2048 and 4096 of two fixed base points fail
    today (the absolute residual gate rejects correct roots from |k| of
    about 1,800 on); they are the workload's failed operations.
    """

    name = "branches-orbits"
    FAILING = ((2, 2 + 0j), (3, 3 + 0j))
    FAILING_K = (2048, 4096)

    def inputs(self, bd, seed, quick):
        rng = np.random.default_rng([seed, 3])
        # For ell in {2, 3}, an interior radius and a near-boundary one (there
        # |multiplier| = |c - ell| is close to 1, attraction to log c is slow
        # and orbits run longer), each at evenly spread angles from a seeded
        # start.  The cost of a window depends strongly on its angle; fixed
        # radii and many spread angles keep the work of a round nearly
        # independent of the seed.
        per_class = 2 if quick else 12
        windows = []
        for ell in (2, 3):
            for r in (0.4, 0.9):
                th0 = rng.uniform(0.0, 2 * math.pi)
                windows += [(ell, ell + r * complex(math.cos(th), math.sin(th)))
                            for th in th0 + 2 * math.pi * np.arange(per_class) / per_class]
        targets = [(ell, c, complex(rng.uniform(-2.0 * ell, 6.0),
                                    rng.uniform(-math.pi, math.pi)),
                    64 if quick else 512)
                   for ell, c in windows]
        return {"windows": windows, "res": 40 if quick else 300,
                "re_window": (-6.0, 6.0), "targets": targets,
                "pixel_sample": 50,
                "sample_seed": [seed, 4],
                "fixed_targets": [
                    (ell, c, bd.transfer.default_base_point(bd.MapParams(ell, c)), K)
                    for ell, c in self.FAILING for K in self.FAILING_K]}

    def first_params(self, bd, inp):
        return inp["windows"][0]

    def run(self, bd, inp):
        lo, hi = inp["re_window"]
        n = inp["res"]
        t0 = time.perf_counter()
        tags = [bd.cylinder.classify_window(bd.MapParams(ell, c), lo, hi, n, n)
                for ell, c in inp["windows"]]
        t1 = time.perf_counter()
        sets = [bd.preimages.preimages(bd.MapParams(ell, c), w, K)
                for ell, c, w, K in inp["targets"] + inp["fixed_targets"]]
        t2 = time.perf_counter()
        outputs = [tags, [(ps.ks(), ps.points(), ps.derivs(), np.array(ps.misses))
                          for ps in sets]]
        failed = sum(1 for ps in sets if ps.misses)
        return Round(outputs, len(tags) + len(sets), failed, t2 - t0,
                     {"classify_s": t1 - t0, "preimages_s": t2 - t1})

    def check(self, bd, inp, rnd):
        tags, sets = rnd.outputs
        out = []
        lo, hi = inp["re_window"]
        n = inp["res"]
        res, ims = oracles.window_pixels(lo, hi, n, n)
        rng = np.random.default_rng(inp["sample_seed"])
        excluded = 0
        for (ell, c), tg in zip(inp["windows"], tags):
            band = res < -2.0 * ell
            if np.any(tg[:, band] != oracles.BAKER):
                out.append(f"classify ell={ell} c={c:.4g}: Re < -2*ell not all BAKER_ESCAPE")
            for j, i in rng.integers(0, n, size=(inp["pixel_sample"], 2)):
                ref = oracles.classify_pixel(ell, c, complex(res[i], ims[j]))
                if ref is None:
                    excluded += 1
                elif ref != tg[j, i]:
                    out.append(f"classify ell={ell} c={c:.4g}: pixel ({j},{i}) "
                               f"tagged {int(tg[j, i])}, rules give {ref}")
        rnd.notes.append(f"classification: {excluded} of {len(tags) * inp['pixel_sample']} "
                         f"sampled orbits reach Re >= {oracles.PHASE_LOSS_RE:.1f} "
                         "and are left out of the comparison")
        for (ell, c, w, K), (ks, xs, _, misses) in zip(
                inp["targets"] + inp["fixed_targets"], sets):
            label = f"preimages ell={ell} c={c:.4g} w={w:.4g} K={K}"
            found = [f"{label}: {p}" for p in oracles.root_problems(ell, c, w, ks, xs, K)]
            if not misses.size:
                out += found
            elif oracles.asymptotic_roots_exist(ell, c, w, misses):
                # a confirmed miss makes this a failed operation
                rnd.notes += [f"in a failed operation: {f}" for f in found]
            else:
                out.append(f"{label}: a reported miss has no asymptotic root")
        return out

    def report(self, rnds, inp):
        pixels = len(inp["windows"]) * inp["res"] ** 2
        sets = len(inp["targets"]) + len(inp["fixed_targets"])
        cls = float(np.median([r.parts_s["classify_s"] for r in rnds]))
        pre = float(np.median([r.parts_s["preimages_s"] for r in rnds]))
        return {"classify_mpix_per_s": (pixels / cls / 1e6, "Mpx/s"),
                "preimage_sets_per_s": (sets / pre, "sets/s")}


WORKLOADS = {w.name: w for w in (DimBase(), SweepGrid(), BranchesOrbits())}
