"""Central table of numeric defaults.

Every tunable that appears in more than one module lives here, so the CLI,
the library and the tests agree on one set of values.  Changing any entry is
a breaking interface change for the command line.

====================  =========  =====================================================
name                  value      meaning
====================  =========  =====================================================
TOL                   1e-11      residual tolerance for branch / periodic solves
DEDUP_FACTOR          10         dedup radius = DEDUP_FACTOR * tol (cylinder metric)
M0                    8.0        real-part margin in k_min, the derivative-bound cutoff
C_GEO                 2.0        safety constant in the branch-derivative lower bound
K_MIN_FLOOR           10         smallest branch index with a certified tail bound
RADIUS_EPS            0.05       capture radius around the attracting fixed point
MAX_ITER              200        default orbit iteration budget for classification
K                     50         default branch truncation half-width
N_ITER                4          default transfer-iteration depth
PRUNE                 1e-14      relative pruning threshold (fraction of level total)
NODE_BUDGET           5_000_000  hard cap on stored preimage-tree nodes
ATOM_DEPTH_CAP        6          maximum depth for conformal-measure atoms
ACCURACY              5e-3       bisection target width for the Bowen zero
SCAN_TS               (...)      initial bracket scan abscissae
MAX_STEP_C            0.02       predictor-corrector step cap in the parameter plane
STEP_HALVINGS         6          retries (halving the step) before a track aborts
DENOM_GUARD           1e-6       guard on |1 - (F^n)'| in the continuation derivative
SWEEP_MARGIN          0.05       keep-out margin from the boundary of D(ell, 1)
RICHARDSON_TOL        0.30       relative tolerance for second-difference consistency
BOWEN_DIM_THREADS     (env)      worker threads (default_threads); unset: the CPUs
                                 in this process's affinity mask
====================  =========  =====================================================
"""

import math
import os

TOL = 1e-11
DEDUP_FACTOR = 10
M0 = 8.0
C_GEO = 2.0
K_MIN_FLOOR = 10
RADIUS_EPS = 0.05
MAX_ITER = 200
K = 50
N_ITER = 4
PRUNE = 1e-14
NODE_BUDGET = 5_000_000
ATOM_DEPTH_CAP = 6
ACCURACY = 5e-3
SCAN_TS = (1.05, 1.2, 1.4, 1.7, 2.0, 2.5)
MAX_STEP_C = 0.02
STEP_HALVINGS = 6
DENOM_GUARD = 1e-6
SWEEP_MARGIN = 0.05
RICHARDSON_TOL = 0.30

THREADS_ENV = "BOWEN_DIM_THREADS"


def k_min(ell, c):
    """Smallest |k| at which the asymptotic derivative bound is certified."""
    return max(K_MIN_FLOOR,
               math.ceil((abs(c) + ell * (M0 + math.pi) + 2 * math.pi) / (2 * math.pi)))


def default_threads():
    """BOWEN_DIM_THREADS if set to an integer, else the CPUs this process may
    run on (its affinity mask where the OS has one)."""
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1
