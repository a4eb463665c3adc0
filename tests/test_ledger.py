"""Ledger audit: a tree's reported S_j + err_j must reach the S_j of a larger
tree at every level.

The larger tree truncates less, and truncation only drops positive mass, so
its S_j is a lower bound on the true L_t^j 1 at the base point.  The audited
trees are the first two rows of the Bowen solve's schedule, at t = 1.3 and
near each parameter's t*; err/gap (the reported error over the mass the
larger tree finds beyond the audited one) is printed, as it shows how much
room a tighter ledger has.
"""

import pytest

from bowendim import MapParams, defaults
from bowendim.dimension import _ATTEMPTS
from bowendim.transfer import (ChildTable, default_base_point,
                               transfer_level_sums)

_REFERENCE = (5, 8192, 1e-13, 5_000_000)  # (n, K, prune, budget)


@pytest.mark.parametrize("ell, c, ts", [(2, 2.0, (1.3, 1.46)),
                                        (5, 5.5, (1.3, 1.34)),
                                        (16, 16.3, (1.3, 1.23))])
def test_ledger_bounds_a_larger_tree(ell, c, ts):
    p = MapParams(ell, c)
    base = default_base_point(p)
    table = ChildTable(p, defaults.TOL)  # one per parameter; no bit moves
    for t in ts:
        ref = transfer_level_sums(p, t, base, *_REFERENCE, children=table)
        for n, K, prune, budget in _ATTEMPTS[:2]:
            S = transfer_level_sums(p, t, base, n, K, prune, budget,
                                    children=table)
            for j in range(1, n + 1):
                gap = ref[j].value - S[j].value
                ratio = f"{S[j].error / gap:.3g}" if gap > 0 else "no gap"
                print(f"ledger ({ell}, {c}) t={t} K={K} S_{j}: "
                      f"err/gap {ratio}")
                assert S[j].value + S[j].error >= ref[j].value, (t, K, j)
