"""Benchmark for bowendim: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload dim-base --seed 1 --seconds 5 --trace 0

Run from the repository root.  The library is imported from ``src/`` next to
this directory, never from an installed copy.  With ``--trace 0`` the run
measures whole rounds until ``--seconds`` have passed (at least one) and
reports the end-to-end metrics; with ``--trace 1`` it runs one round plain
and one round with every layer boundary wrapped in a span, checks that both
give bit-identical outputs, and reports the per-layer metrics.  ``--quick``
shrinks every workload to a size whose checks finish in seconds.

Every round starts with the library's caches empty (``default_base_point``
and ``_sup_l1_probe``), because a command-line user pays for them on every
invocation.  The last line of standard output is the JSON result; the lines
before it list the metrics by name and unit.  Results and span dumps are
written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, freeze  # noqa: E402

LAYERS = ("cylinder", "preimages", "transfer", "dimension", "sweep")
SETUP_REPEATS = 7

# A fresh interpreter: import the library and compute the first parameter's
# base point, the set-up every command-line invocation pays.
SETUP_SCRIPT = """import sys
sys.path.insert(0, sys.argv[1])
from bowendim.cylinder import MapParams
from bowendim.transfer import default_base_point
default_base_point(MapParams(int(sys.argv[2]), complex(sys.argv[3])))
print("ready", flush=True)
"""


def load_library():
    """The package under src/ as a namespace of its layer modules."""
    src = ROOT / "src"
    if not (src / "bowendim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library source at {src / 'bowendim'}")
    sys.path.insert(0, str(src))
    import bowendim
    if Path(bowendim.__file__).resolve().parent != (src / "bowendim").resolve():
        raise SystemExit(f"bench: imported bowendim from {bowendim.__file__}, "
                         f"not from {src}")
    logging.getLogger("bowendim").setLevel(logging.ERROR)
    mods = {m: importlib.import_module(f"bowendim.{m}") for m in LAYERS}
    return SimpleNamespace(MapParams=mods["cylinder"].MapParams, **mods)


def setup_seconds(ell, c):
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_SCRIPT, str(ROOT / "src"),
                           str(ell), repr(complex(c))],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit("bench: set-up process failed")
    return elapsed


def clear(caches):
    for cache in caches:
        cache.cache_clear()


def run_plain(bd, wl, inp, seconds, caches):
    """Whole rounds until `seconds` have passed; the end-to-end metrics."""
    ell, c = wl.first_params(bd, inp)
    setup_s = statistics.median(setup_seconds(ell, c) for _ in range(SETUP_REPEATS))
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        clear(caches)
        rounds.append(wl.run(bd, inp))
    metrics = {
        "round_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    problems = []
    first = freeze(rounds[0].outputs)
    if any(freeze(r.outputs) != first for r in rounds[1:]):
        problems.append("rounds on the same inputs gave different outputs")
    return rounds, problems, metrics, wl.report(rounds, inp), []


def layer_metrics(tracer, traced, plain, probe_computed, threads):
    """Per-layer counts and times of the traced round; 0 where a layer is unused."""
    pairs = tracer.attr_sum("preimages.preimage_arrays", "pairs")
    roots = tracer.attr_sum("preimages.preimage_arrays", "roots")
    solve_s = tracer.total("preimages.preimage_arrays")
    sweep_wall = tracer.total("sweep.sweep_dimension")
    cells = tracer.total("sweep.cell")
    uncs = [s.attrs["uncertainty"] for s in tracer.spans if "uncertainty" in s.attrs]
    return {
        "dimension.pressure_calls": (len(tracer.named("dimension.pressure")), "count"),
        "dimension.estimates": (len(tracer.named("dimension.best_ratio_estimate")), "count"),
        "dimension.pressure_s": (tracer.total("dimension.pressure"), "s"),
        "dimension.unc_max": (max(uncs, default=0.0), "1"),
        "transfer.trees": (len(tracer.named("transfer.transfer_level_sums")), "count"),
        "transfer.tree_self_s": (tracer.self_time("transfer.transfer_level_sums"), "s"),
        "transfer.sup_probe_s": (tracer.total("transfer.sup_probe"), "s"),
        "transfer.sup_probe_computed": (probe_computed, "count"),
        "preimages.pairs": (pairs, "count"),
        "preimages.roots": (roots, "count"),
        "preimages.root_yield": (roots / pairs if pairs else 0.0, "1"),
        "preimages.solve_s": (solve_s, "s"),
        "preimages.pairs_per_s": (pairs / solve_s if solve_s else 0.0, "1/s"),
        "preimages.misses": (tracer.attr_sum("preimages.preimage_arrays", "misses"), "count"),
        "cylinder.classify_s": (tracer.total("cylinder.classify_window"), "s"),
        "sweep.cell_s": (tracer.median("sweep.cell"), "s"),
        "sweep.pool_busy": (cells / (sweep_wall * threads) if sweep_wall else 0.0, "1"),
        "trace.overhead_s": (traced.wall_s - plain.wall_s, "s"),
    }


def run_traced(bd, wl, inp, caches):
    """One plain and one traced round; the per-layer metrics."""
    clear(caches)
    plain = wl.run(bd, inp)
    clear(caches)
    tracer = tracing.Tracer()
    with tracing.Rebinding(bd, tracer) as binding:
        traced = wl.run(bd, inp)
    problems = []
    if freeze(traced.outputs) != freeze(plain.outputs):
        problems.append("traced outputs differ from the untraced round")
    if not binding.restored:
        problems.append("a rebound library name was not restored")
    metrics = layer_metrics(tracer, traced, plain,
                            bd.transfer._sup_l1_probe.cache_info().misses,
                            inp.get("threads", 1))
    return [plain, traced], problems, metrics, {}, tracer.to_json()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes: every check, in seconds")
    args = ap.parse_args(argv)

    bd = load_library()
    wl = WORKLOADS[args.workload]
    inp = wl.inputs(bd, args.seed, args.quick)
    caches = (bd.transfer.default_base_point, bd.transfer._sup_l1_probe)
    if args.trace:
        rounds, problems, metrics, extra, spans = run_traced(bd, wl, inp, caches)
    else:
        rounds, problems, metrics, extra, spans = run_plain(bd, wl, inp,
                                                            args.seconds, caches)
    problems += wl.check(bd, inp, rounds[0])

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {wl.name}  seed {args.seed}  rounds {len(rounds)}  "
          f"trace {args.trace}{'  quick' if args.quick else ''}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(f"  attempted {attempted}  failed {failed}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    for note in rounds[0].notes:
        print(f"  {note}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "reported": {k: {"value": v, "unit": u}
                                          for k, (v, u) in extra.items()},
                   "problems": problems, "spans": spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
