"""Ledger audit: a tree's reported S_j + err_j must reach the S_j of a larger
tree at every level.

The larger tree truncates less, and truncation only drops positive mass, so
its S_j is a lower bound on the true L_t^j 1 at the base point.  The audited
trees are the first two rows of the Bowen solve's schedule: grown at t = 1.3
and near each parameter's t*, and read at t from 1.3 to 2.0 from the trees a
Bowen solve records at its first t, 1.05, whose cuts a tree grown at t would
not all choose.  err/gap (the reported error over the mass the larger tree
finds beyond the audited one) is printed, as it shows how much room a
tighter ledger has.
"""

import pytest

from bowendim import MapParams, defaults
from bowendim.dimension import _ATTEMPTS
from bowendim.transfer import (ChildTable, TreeStore, _grow,
                               default_base_point, transfer_level_sums)

_REFERENCE = (5, 8192, 1e-13, 5_000_000)  # (n, K, prune, budget)
_READ_TS = (1.3, 1.46, 1.7, 2.0)


@pytest.mark.parametrize("ell, c, ts", [(2, 2.0, (1.3, 1.46)),
                                        (5, 5.5, (1.3, 1.34)),
                                        (16, 16.3, (1.3, 1.23))])
def test_ledger_bounds_a_larger_tree(ell, c, ts):
    p = MapParams(ell, c)
    base = default_base_point(p)
    table = ChildTable(p, defaults.TOL)  # one per parameter; no bit moves
    store = TreeStore(p, defaults.TOL)
    for n, K, prune, budget in _ATTEMPTS[:2]:
        transfer_level_sums(p, 1.05, base, n, K, prune, budget, store=store)
    for t in sorted(set(ts) | set(_READ_TS)):
        ref = _grow(p, t, base, *_REFERENCE, children=table).weighted(5)
        for n, K, prune, budget in _ATTEMPTS[:2]:
            audited = []
            if t in ts:
                audited.append(("grown", _grow(p, t, base, n, K, prune, budget,
                                               children=table).weighted(n)))
            if t in _READ_TS:
                audited.append(("read", transfer_level_sums(
                    p, t, base, n, K, prune, budget, store=store)))
            for kind, S in audited:
                for j in range(1, n + 1):
                    gap = ref[j].value - S[j].value
                    ratio = f"{S[j].error / gap:.3g}" if gap > 0 else "no gap"
                    print(f"ledger ({ell}, {c}) t={t} K={K} {kind} S_{j}: "
                          f"err/gap {ratio}")
                    assert S[j].value + S[j].error >= ref[j].value, \
                        (kind, t, K, j)
