"""Enumeration and indexing of the auxiliary-operator hierarchy.

Multi-indices n = (n_1, ..., n_K) with sum(n) <= N are laid out in graded
lexicographic order (by depth, then lexicographically within a depth) and
addressed by a flat rank. The hierarchy holds both neighbour tables: the
rank of n with n_k decremented and the rank of n with n_k incremented.
Ranks in this order have a closed form in the suffix sums s_j = n_j + ...
+ n_K (the combinatorial number system), and so do the neighbours' ranks
as offsets from the rank of n; `hierarchy_tables` in `_kernel.c` steps
through the nodes in order and writes every row of the three tables from
them in one pass. The tables are int32, which `MAX_NODES` makes room for,
so a build writes and each RHS call reads half the bytes of int64.
"""

import numbers
from dataclasses import dataclass
from math import comb

import numpy as np

from . import kernel

# Refuse to enumerate hierarchies that would not fit in memory anyway.
# Every rank, index entry and depth is below this, so it must fit int32,
# the dtype of the three tables.
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
    """Flat index space over the hierarchy with its two neighbour tables."""

    indices: np.ndarray          # (count, n_sites): row i is the multi-index n
    neighbors_minus: np.ndarray  # (count, n_sites): rank of n - e_k or NO_NEIGHBOR
    neighbors_plus: np.ndarray   # (count, n_sites): rank of n + e_k or NO_NEIGHBOR

    @property
    def count(self):
        return self.indices.shape[0]


def enumerate_hierarchy(n_sites, depth_max):
    """Build the HierarchyIndexSpace for sum(n) <= depth_max."""
    count = hierarchy_count(n_sites, depth_max)
    if count > MAX_NODES:
        raise ValueError(
            f"hierarchy with {count} nodes exceeds the {MAX_NODES} node limit"
        )
    indices, minus, plus = (np.empty((count, n_sites), dtype=np.int32)
                            for _ in range(3))
    binom = np.empty((n_sites, depth_max + 1), dtype=np.int64)
    kernel.LIB.hierarchy_tables(count, n_sites, depth_max, binom.ctypes.data,
                                indices.ctypes.data, minus.ctypes.data,
                                plus.ctypes.data)
    for table in (indices, minus, plus):  # the kernel follows them unchecked
        table.flags.writeable = False
    return HierarchyIndexSpace(indices=indices, neighbors_minus=minus,
                               neighbors_plus=plus)
