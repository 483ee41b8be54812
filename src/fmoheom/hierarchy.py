"""Enumeration and indexing of the auxiliary-operator hierarchy.

Multi-indices n = (n_1, ..., n_K) with sum(n) <= N are laid out in graded
lexicographic order (by depth, then lexicographically within a depth) and
addressed by a flat rank. The hierarchy is one int32 block (3, count, K)
of three planes: n, the down ranks (of n - e_k) and the up ranks (of
n + e_k). Ranks in this order have a closed form in the suffix sums
s_j = n_j + ... + n_K (the combinatorial number system), and so do the
neighbours' ranks as offsets from the rank of n; `hierarchy_tables` in
`_kernel.c` steps through the nodes in order and writes all three planes
from them in one pass. int32, which `MAX_NODES` makes room for, halves
the bytes a build writes and each RHS call reads against int64.
"""

import numbers
from dataclasses import dataclass
from math import comb

import numpy as np

from . import kernel

# Refuse to enumerate hierarchies that would not fit in memory anyway.
# Every rank, index entry and depth is below this, so it must fit int32,
# the dtype of the tables.
MAX_NODES = 5_000_000

# Sentinel rank for a missing neighbour: n_k = 0 down, depth_max up.
NO_NEIGHBOR = -1


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def hierarchy_count(n_sites, depth_max):
    """Number of multi-indices with sum <= depth_max (stars and bars)."""
    for name, value in (("n_sites", n_sites), ("depth_max", depth_max)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n_sites < 0:
        raise ValueError("n_sites must be nonnegative")
    if depth_max < 0:
        raise ValueError("truncation depth must be nonnegative")
    return comb(depth_max + n_sites, n_sites)


@dataclass(frozen=True)
class HierarchyIndexSpace:
    """Flat index space over the hierarchy: `n, down, up = space.tables`, the
    multi-indices and the ranks of n - e_k and n + e_k (NO_NEIGHBOR for none)."""

    tables: np.ndarray  # (3, count, n_sites) int32, read-only

    @property
    def count(self):
        return self.tables.shape[1]


def enumerate_hierarchy(n_sites, depth_max):
    """Build the HierarchyIndexSpace for sum(n) <= depth_max."""
    count = hierarchy_count(n_sites, depth_max)
    if count > MAX_NODES:
        raise ValueError(
            f"hierarchy with {count} nodes exceeds the {MAX_NODES} node limit"
        )
    tables = np.empty((3, count, n_sites), dtype=np.int32)
    binom = np.empty((n_sites, depth_max + 1), dtype=np.int64)
    kernel.LIB.hierarchy_tables(count, n_sites, depth_max, binom.ctypes.data,
                                tables.ctypes.data)
    tables.flags.writeable = False  # the kernel follows the ranks unchecked
    return HierarchyIndexSpace(tables)
