"""Command-line surface: named presets, CSV/JSON tables, PGM grids.

Flag precedence is CLI > config file > built-in defaults.  The config file
is flat ``key = value`` text with ``#`` comments; keys match flag names.
Exit codes: 0 success, 2 usage error, 3 numerical failure (the partial
trace is dumped as JSON next to the requested output).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import defaults
from .cylinder import MapParams, OrbitTag, canonical, classify_window, \
    cylinder_distance, evaluate
from .dimension import bowen_dimension
from .errors import NumericsError
from .preimages import fixed_points, preimages
from .sweep import GridSpec, _orbit_end, continue_periodic, \
    expansion_constants, sweep_dimension
from .transfer import default_base_point, pressure_ratio

TAG_GRAY = {OrbitTag.ATTRACTED_TO_LOG_C: 220, OrbitTag.BAKER_ESCAPE: 160,
            OrbitTag.UNRESOLVED: 0}

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' (no spaces); bare reals and 'bi' also accepted."""
    s = text.strip()
    m = re.fullmatch(rf"({_NUM})([+-](?:{_NUM})?)i", s)
    if m:
        im = m.group(2)
        if im in ("+", "-"):
            im += "1"
        return complex(float(m.group(1)), float(im))
    m = re.fullmatch(rf"({_NUM})?i", s)
    if m:
        return complex(0.0, float(m.group(1) or 1.0))
    m = re.fullmatch(rf"[+-]i", s)
    if m:
        return complex(0.0, 1.0 if s[0] == "+" else -1.0)
    m = re.fullmatch(rf"{_NUM}", s)
    if m:
        return complex(float(s), 0.0)
    raise ValueError(f"cannot parse complex number {text!r} (expected a+bi)")


def parse_int(text) -> int:
    """An integer flag or config value; one outside int64 is a usage error."""
    value = int(text)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{text} lies outside the int64 range")
    return value


def _pair(text, sep, cast):
    """'a<sep>b' as (cast(a), cast(b))."""
    parts = text.split(sep)
    if len(parts) != 2:
        raise ValueError(f"expected two values split by {sep!r}, got {text!r}")
    return cast(parts[0]), cast(parts[1])


def _cast(name, cast, text):
    """cast(text); a value it rejects is a usage error that names it."""
    try:
        return cast(text)
    except (ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ValueError(f"{name}: {exc}") from None


def fmt(x: float) -> str:
    """Exact decimal serialisation: 17 significant digits round-trips doubles."""
    return format(float(x), ".17g")


def read_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


@dataclass
class RunConfig:
    """Merged flag/config/default values for one invocation."""

    ell: int = 2
    c: complex = 2.0 + 0.0j
    t: float = 1.5
    K: int = defaults.K
    n: int = defaults.N_ITER
    prune: float = defaults.PRUNE
    tol: float = defaults.TOL
    accuracy: float = defaults.ACCURACY
    budget: int = defaults.NODE_BUDGET
    threads: int = 0  # 0 -> machine default
    out: str = ""

    def params(self) -> MapParams:
        return MapParams(self.ell, self.c)

    def nthreads(self) -> int:
        if self.threads < 0:
            raise ValueError(f"threads must be >= 0, got {self.threads}")
        return self.threads if self.threads > 0 else defaults.default_threads()


_CASTS = {
    "ell": parse_int, "c": parse_complex, "t": float, "K": parse_int,
    "n": parse_int, "prune": float, "tol": float, "accuracy": float,
    "budget": lambda s: int(float(s)), "threads": parse_int, "out": str,
}


def merge_config(args) -> RunConfig:
    cfg = RunConfig()
    file_vals = read_config(args.config) if getattr(args, "config", None) else {}
    for key in file_vals:
        if key not in _CASTS:
            raise ValueError(f"unknown config key {key!r}")
    for name, cast in _CASTS.items():
        for value in (file_vals.get(name), getattr(args, name, None)):
            if value is not None:
                setattr(cfg, name, _cast(name, cast, value))
    return cfg


# ------------------------------------------------------------------ writers

def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(fmt(v))
        lines.append(",".join(cells))
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_grid(cells, path):
    """Binary PGM (P5, maxval 255) with the documented tag -> gray mapping."""
    lut = np.zeros(256, dtype=np.uint8)
    for tag, gray in TAG_GRAY.items():
        lut[int(tag)] = gray
    arr = lut[np.asarray(cells, dtype=np.uint8)]
    h, w = arr.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + arr.tobytes())


# -------------------------------------------------------------- subcommands

def cmd_preimages(args):
    cfg = merge_config(args)
    params = cfg.params()
    w = canonical(args.w)
    ps = preimages(params, w, cfg.K, cfg.tol)
    rows = []
    for b in ps.branches:
        resid = cylinder_distance(evaluate(params, b.x.z), w)
        rows.append((b.k, b.x.re, b.x.im, b.deriv.real, b.deriv.imag, resid))
    out = cfg.out or "preimages.csv"
    write_csv(out, ["k", "re", "im", "deriv_re", "deriv_im", "residual"], rows)
    worst = max((r[-1] for r in rows), default=0.0)
    print(f"preimages: {len(rows)} branches for w={w:.6g} (K={cfg.K}), "
          f"max residual {worst:.3g} -> {out}")
    return 0


def cmd_pressure(args):
    cfg = merge_config(args)
    if not cfg.t > 1.0:
        # the library's TNotSummable is a numerical failure; here t is input
        raise ValueError(f"t must be > 1, got {cfg.t}")
    params = cfg.params()
    base = default_base_point(params)
    est = pressure_ratio(params, cfg.t, base, cfg.n, cfg.K, cfg.prune, cfg.budget)
    out = cfg.out or "pressure.json"
    write_json(out, {
        "t": est.t, "value": est.value, "error": est.uncertainty,
        "n": est.n, "K": est.K, "prune": est.prune,
        "base": {"re": base.real, "im": base.imag},
    })
    print(f"pressure: P({est.t:g}) = {est.value:.6g} +- {est.uncertainty:.3g} "
          f"(n={est.n}, K={est.K}) -> {out}")
    if not math.isfinite(est.uncertainty):
        return 3
    return 0


def cmd_dim(args):
    cfg = merge_config(args)
    params = cfg.params()
    out = cfg.out or "dim.json"
    try:
        rec = bowen_dimension(params, cfg.accuracy, budget=cfg.budget)
    except NumericsError as exc:
        trace = getattr(exc, "trace", [])
        write_json(out, {"error": str(exc),
                         "trace": [{"t": t, "value": v, "uncertainty": u}
                                   for t, v, u in trace]})
        print(f"dim: FAILED ({exc}) -> {out}", file=sys.stderr)
        return 3
    write_json(out, {
        "ell": params.ell, "c_re": params.c.real, "c_im": params.c.imag,
        "t_star": rec.t_star, "uncertainty": rec.uncertainty,
        "t_lo": rec.bracket[0], "t_hi": rec.bracket[1],
        "evaluations": rec.evaluations,
        "method_params": {k: rec.diagnostics[k] for k in ("n", "K", "prune")
                          if k in rec.diagnostics},
    })
    print(f"dim: t* = {rec.t_star:.6g} +- {rec.uncertainty:.3g} "
          f"(bracket [{rec.bracket[0]:.6g}, {rec.bracket[1]:.6g}], "
          f"{rec.evaluations} evaluations) -> {out}")
    return 0


def cmd_sweep(args):
    cfg = merge_config(args)
    spec = GridSpec(cfg.c if args.center is None else args.center,
                    args.half_re, args.half_im, args.nx, args.ny)
    grid = sweep_dimension(cfg.ell, spec, cfg.accuracy, threads=cfg.nthreads(),
                           budget=cfg.budget)
    rows = []
    for c, rec in zip(grid.centers, grid.records):
        d = rec.diagnostics
        rows.append((c.real, c.imag, rec.t_star, rec.uncertainty,
                     rec.bracket[0], rec.bracket[1],
                     d.get("grad_re", math.nan), d.get("grad_im", math.nan),
                     d.get("fit_residual", math.nan),
                     d.get("sym_defect", math.nan)))
    out = cfg.out or "sweep.csv"
    write_csv(out, ["c_re", "c_im", "t_star", "uncertainty", "t_lo", "t_hi",
                    "grad_re", "grad_im", "fit_residual", "sym_defect"], rows)
    vals = [r.t_star for r in grid.records if math.isfinite(r.t_star)]
    fails = sum(1 for r in grid.records if r.diagnostics.get("failed"))
    print(f"sweep: {len(rows)} cells, t* in [{min(vals):.4g}, {max(vals):.4g}]"
          f", {fails} failures -> {out}" if vals else
          f"sweep: {len(rows)} cells, all failed -> {out}")
    return 0 if fails < len(rows) else 3


def cmd_classify(args):
    cfg = merge_config(args)
    params = cfg.params()
    (lo, hi), (nx, ny) = args.window, args.res
    cells = classify_window(params, lo, hi, nx, ny, args.max_iter,
                            args.radius_eps)
    out = cfg.out or "classify.pgm"
    render_grid(cells, out)
    frac = {tag.name.lower(): float((cells == int(tag)).sum()) / cells.size
            for tag in OrbitTag}
    print("classify: " + " ".join(f"{k} {100 * v:.1f}%" for k, v in frac.items())
          + f" -> {out}")
    return 0


def cmd_continue_orbit(args):
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    cfg = merge_config(args)
    params = cfg.params()
    start = None
    for p in fixed_points(params, (args.k, args.k), cfg.tol):
        if abs(p.multiplier) > 1.0:
            start = p
            break
    if start is None:
        print(f"continue-orbit: no repelling fixed point for k={args.k}",
              file=sys.stderr)
        return 3
    c_end = args.c_end
    out = cfg.out or "continue_orbit.csv"
    path = [params.c + (c_end - params.c) * (j + 1) / args.steps
            for j in range(args.steps)]
    try:
        track = continue_periodic(params, start, path, cfg.tol)
    except NumericsError as exc:
        write_json(out + ".partial.json", {"error": str(exc)})
        print(f"continue-orbit: FAILED ({exc})", file=sys.stderr)
        return 3
    rows = []
    for c, z, mult in track.path:
        prm = MapParams(params.ell, c)
        resid = cylinder_distance(_orbit_end(prm, z.z, track.period), z.z)
        rows.append((c.real, c.imag, z.re, z.im, abs(mult), resid))
    write_csv(out, ["c_re", "c_im", "z_re", "z_im", "mult_abs", "residual"], rows)
    mults = [r[4] for r in rows]
    print(f"continue-orbit: {len(rows)} steps to c={c_end:.6g}, |mult| in "
          f"[{min(mults):.4g}, {max(mults):.4g}], max residual "
          f"{max(r[5] for r in rows):.3g} -> {out}")
    return 0


def cmd_expansion(args):
    cfg = merge_config(args)
    params = cfg.params()
    out = cfg.out or "expansion.json"
    try:
        est = expansion_constants(params, args.c_radius, args.samples,
                                  args.n_max, tol=cfg.tol)
    except NumericsError as exc:
        write_json(out, {"error": str(exc)})
        print(f"expansion: FAILED ({exc})", file=sys.stderr)
        return 3
    write_json(out, {
        "L": est.L, "kappa": est.kappa, "beta": est.beta, "L_inv": est.L_inv,
        "samples": est.samples, "n_max": est.n_max,
        "fit_residual": est.fit_residual, "observations": est.observations,
        "c_re": params.c.real, "c_im": params.c.imag,
        "c_radius": est.c_window[1],
    })
    print(f"expansion: kappa={est.kappa:.4g} L={est.L:.4g} "
          f"({est.observations} observations, window r={est.c_window[1]:g}) "
          f"-> {out}")
    return 0


# --------------------------------------------------------------------- main

def _add_common(sp, *knobs):
    """Shared flags plus the numeric knobs this subcommand honours.

    A knob the subcommand cannot honour is not offered, so giving it on the
    command line is a usage error; config files may still set any knob.
    Values stay text until the command casts them: a bad one is a usage error.
    """
    for name in ("ell", "c", *knobs, "out"):
        sp.add_argument("--" + name.replace("_", "-"), dest=name)
    sp.add_argument("--config", type=str, help="flat key=value config file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bowendim", allow_abbrev=False,
        description="Pressure, preimages and Hausdorff-dimension estimates "
                    "for the cylinder map family ell*z + c - (ell-1)*log c - e^z")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, summary):
        # no abbreviations: '--t' must not silently become '--threads'
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    sp = command("preimages", "enumerate branch preimages (CSV)")
    _add_common(sp, "K", "tol")
    sp.add_argument("--w", type=str, required=True, help="target point a+bi")
    sp.set_defaults(func=cmd_preimages)

    sp = command("pressure", "one pressure estimate (JSON)")
    _add_common(sp, "t", "n", "K", "prune", "budget")
    sp.set_defaults(func=cmd_pressure)

    sp = command("dim", "Bowen dimension estimate (JSON)")
    _add_common(sp, "accuracy", "budget")
    sp.set_defaults(func=cmd_dim)

    sp = command("sweep", "dimension sweep over a c-grid (CSV)")
    _add_common(sp, "accuracy", "budget", "threads")
    sp.add_argument("--center", type=str)
    sp.add_argument("--half-re", dest="half_re", default=0.25)
    sp.add_argument("--half-im", dest="half_im", default=0.25)
    sp.add_argument("--nx", default=5)
    sp.add_argument("--ny", default=5)
    sp.set_defaults(func=cmd_sweep)

    sp = command("classify", "orbit classification grid (PGM)")
    _add_common(sp)
    sp.add_argument("--window", type=str, default="-6:6",
                    help="re_min:re_max (imaginary axis spans the strip)")
    sp.add_argument("--res", type=str, default="600x600", help="NXxNY")
    sp.add_argument("--max-iter", dest="max_iter", default=defaults.MAX_ITER)
    sp.add_argument("--radius-eps", dest="radius_eps",
                    default=defaults.RADIUS_EPS)
    sp.set_defaults(func=cmd_classify)

    sp = command("continue-orbit", "continue a repelling fixed point in c (CSV)")
    _add_common(sp, "tol")
    sp.add_argument("--c-end", dest="c_end", type=str, required=True)
    sp.add_argument("--steps", default=20)
    sp.add_argument("--k", default=1, help="lift index of the start")
    sp.set_defaults(func=cmd_continue_orbit)

    sp = command("expansion", "uniform expansion constants (JSON)")
    _add_common(sp, "tol")
    sp.add_argument("--c-radius", dest="c_radius", default=0.1)
    sp.add_argument("--samples", default=50)
    sp.add_argument("--n-max", dest="n_max", default=10)
    sp.set_defaults(func=cmd_expansion)
    return ap


# the subcommands' own flags, cast in main; the knobs go through _CASTS
_FLAG_CASTS = {
    **dict.fromkeys(("nx", "ny", "max_iter", "steps", "k", "samples", "n_max"),
                    parse_int),
    **dict.fromkeys(("half_re", "half_im", "radius_eps", "c_radius"), float),
    **dict.fromkeys(("w", "center", "c_end"), parse_complex),
    "window": lambda s: _pair(s, ":", float),
    "res": lambda s: _pair(s.lower(), "x", parse_int),
}
_VALUE_FLAGS = {"--window", "--w", "--c", "--c-end", "--center"}


def _merge_dashed_values(argv):
    """Join '--flag -6:6' into '--flag=-6:6' so argparse accepts the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _VALUE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and not argv[i + 1].startswith("--")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(_merge_dashed_values(argv))
    try:
        for dest, cast in _FLAG_CASTS.items():
            if getattr(args, dest, None) is not None:
                setattr(args, dest, _cast(dest.replace("_", "-"), cast,
                                          getattr(args, dest)))
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"{args.command}: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
