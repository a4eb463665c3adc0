"""Bowen zero of the pressure function: the dimension of the radial Julia set.

The pressure t -> P(t) is convex, continuous and strictly decreasing for
t > 1 with a unique zero t*; t* is located by a certified-sign bracket scan
followed by bisection.  When the reported pressure uncertainty exceeds the
sign margin at the midpoint, refinement is escalated once; if the sign still
cannot be certified the bracket stops shrinking and the record reports its
accuracy as limited by operator truncation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from . import defaults
from .cylinder import MapParams
from .errors import AccuracyNotReached, NoBracket, NumericsError
from .transfer import (PressureEstimate, TreeStore, _sup_l1_probe,
                       best_ratio_estimate, default_base_point)

log = logging.getLogger(__name__)

_ATTEMPTS = ((4, 512, 1e-9, 250_000),
             (5, 2048, 1e-11, 600_000),
             (6, 4096, 1e-12, 2_500_000),
             (6, 8192, 1e-13, 5_000_000),
             (7, 16384, 1e-14, 12_000_000))


def _check_attempts(max_attempts):
    """An attempt count slices the schedule: an integer >= 1, or ValueError."""
    if not hasattr(max_attempts, "__index__") or max_attempts < 1:
        raise ValueError(f"max_attempts must be an integer >= 1, "
                         f"got {max_attempts!r}")


def pressure(params: MapParams, t: float, accuracy: float, *, z=None,
             max_attempts: int = len(_ATTEMPTS),
             budget: int = None, store: TreeStore = None) -> PressureEstimate:
    """Adaptive pressure estimate at one t.

    Raises n, K and the pruning depth on a fixed schedule until the reported
    uncertainty drops below `accuracy`; raises AccuracyNotReached (carrying
    the best estimate) once the schedule or node budget is exhausted.
    ``store`` lets the evaluations of one Bowen solve grow each row's tree
    once and read it at every later t.
    """
    if t <= 1.0:
        raise ValueError("pressure is defined for t > 1")
    if not 0 < accuracy < math.inf:
        raise ValueError(f"accuracy must be positive and finite, got {accuracy}")
    _check_attempts(max_attempts)
    base = default_base_point(params) if z is None else complex(z)
    best = None
    for n, K, prune, nodes in _ATTEMPTS[:max_attempts]:
        if budget is not None:
            nodes = min(nodes, budget)
        est = best_ratio_estimate(params, t, base, n, K, prune, nodes,
                                  store=store)
        if best is None or est.uncertainty < best.uncertainty:
            best = est
        if est.uncertainty <= accuracy:
            return est
    raise AccuracyNotReached(best)


def _certified(est: PressureEstimate):
    if est.certified_positive:
        return 1
    if est.certified_negative:
        return -1
    return 0


@dataclass(frozen=True)
class DimensionRecord:
    """One dimension estimate: the Bowen zero with its certified bracket."""

    c: complex
    t_star: float
    uncertainty: float
    bracket: tuple
    evaluations: int
    diagnostics: dict = field(default_factory=dict)


def bowen_dimension(params: MapParams, accuracy: float = defaults.ACCURACY,
                    *, max_attempts: int = 2,
                    budget: int = None) -> DimensionRecord:
    """Locate the unique pressure zero t* > 1 by bracketed bisection.

    Bisection decisions use certified signs (value beyond its reported
    uncertainty) whenever available.  Reported pressure uncertainties for
    this family stay well above the point-estimate noise at any affordable
    truncation, so sign certification routinely fails below t*; the solver
    then falls back to the sign of the value, flags the bracket as
    uncertified in the diagnostics, and widens the reported uncertainty by
    the endpoint pressure uncertainty divided by the local slope.

    The point estimate interpolates the pressure linearly across the final
    bracket (smooth in the parameter c, unlike the raw midpoint) and always
    lies strictly inside it.  The solve keeps one TreeStore: each schedule
    row's tree is grown once, at the first t that asks for it, drawing its
    branch solves from one ChildTable shared by the rows, and every later t
    reads its sums from that tree's record with no threshold choice and no
    solve.  A pressure estimate that is not finite raises NumericsError
    naming its t, with the trace so far.
    """
    if not 0 < accuracy < math.inf:
        raise ValueError(f"accuracy must be positive and finite, got {accuracy}")
    _check_attempts(max_attempts)
    base = default_base_point(params)
    evals = 0
    trace = []
    store = TreeStore(params, defaults.TOL)

    def est_at(t, acc, extra=0):
        nonlocal evals
        evals += 1
        try:
            e = pressure(params, t, acc, z=base,
                         max_attempts=max_attempts + extra, budget=budget,
                         store=store)
        except AccuracyNotReached as exc:
            e = exc.estimate
        trace.append((t, e.value, e.uncertainty))
        if not math.isfinite(e.value):
            # sign_of would read a NaN as a negative sign
            exc = NumericsError(f"no finite pressure estimate at t={t:g}")
            exc.trace = trace
            raise exc
        return e

    def sign_of(e):
        s = _certified(e)
        if s:
            return s, True
        return (1 if e.value > 0 else -1), False

    # ---- scan for a sign change (certified when possible)
    all_certified = True
    lo = hi = None
    est_lo = est_hi = None
    prev_t, prev_est = None, None
    for ts in defaults.SCAN_TS:
        e = est_at(ts, 0.05)
        s, cert = sign_of(e)
        if s < 0 and prev_est is None:
            probe = est_at(1.01, 0.05)
            s0, cert0 = sign_of(probe)
            if s0 <= 0:
                raise NoBracket("pressure negative down to t=1.01", trace)
            prev_t, prev_est = 1.01, probe
            all_certified &= cert0
        if s < 0 and prev_est is not None:
            lo, hi, est_lo, est_hi = prev_t, ts, prev_est, e
            all_certified &= cert
            break
        prev_t, prev_est = ts, e
        all_certified &= cert
    if lo is None:
        raise NoBracket(
            f"no pressure sign change on the scan grid {defaults.SCAN_TS}", trace)

    # ---- bisection; one escalated retry when the value itself is ambiguous
    slope = max((est_lo.value - est_hi.value) / (hi - lo), 1e-3)
    while hi - lo > accuracy:
        mid = 0.5 * (lo + hi)
        margin = slope * (hi - lo) / 8
        e = est_at(mid, max(margin, accuracy * slope / 4))
        s, cert = sign_of(e)
        if not cert and abs(e.value) < margin / 2:
            e = est_at(mid, margin / 2, extra=1)
            s, cert = sign_of(e)
        all_certified &= cert
        if s > 0:
            lo, est_lo = mid, e
        else:
            hi, est_hi = mid, e
        slope = max((est_lo.value - est_hi.value) / (hi - lo), 1e-3)

    # interpolated zero of the pressure across the final bracket
    p_lo, p_hi = est_lo.value, est_hi.value
    frac = p_lo / (p_lo - p_hi) if p_lo > 0 > p_hi else 0.5
    frac = min(max(frac, 1e-3), 1 - 1e-3)
    t_star = lo + frac * (hi - lo)
    unc_p = max(est_lo.uncertainty, est_hi.uncertainty)
    uncertainty = 0.5 * (hi - lo) + (0.0 if all_certified else unc_p / slope)
    diag = {
        "slope": slope,
        "pressure_unc_lo": est_lo.uncertainty,
        "pressure_unc_hi": est_hi.uncertainty,
        "certified": float(all_certified),
        "truncation_limited": float(not all_certified),
        "in_expected_range": float(1.0 < t_star < 2.0),
        "n": float(est_hi.n),
        "K": float(est_hi.K),
        "prune": float(est_hi.prune),
    }
    if log.isEnabledFor(logging.DEBUG):
        table = store.table
        log.debug("bowen_dimension %s: %d trees grown, %d read from their "
                  "records; %d of %d pairs solved, %d requests served from a "
                  "wider solve; children table holds %d targets, %d roots; "
                  "sup probe solved %d probes in full",
                  params, len(store.records), store.reads, table.pairs_solved,
                  table.pairs_requested, table.served_wider,
                  len(table.entries), table.roots,
                  len(_sup_l1_probe(params).table.entries))
    return DimensionRecord(params.c, t_star, uncertainty, (lo, hi), evals, diag)
