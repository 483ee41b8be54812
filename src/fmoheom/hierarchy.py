"""Enumeration and indexing of the auxiliary-operator hierarchy.

Multi-indices n = (n_1, ..., n_K) with sum(n) <= N are laid out in graded
lexicographic order (by depth, then lexicographically within a depth) and
addressed by a flat rank. The hierarchy holds both neighbour tables: the
rank of n with n_k decremented, found by binary search over integer keys
that increase in that order, and the rank of n with n_k incremented,
scattered from the same search: the up-neighbour of n along k is the node
whose down-neighbour along k is n.
"""

import numbers
from dataclasses import dataclass
from math import comb

import numpy as np

# Refuse to enumerate hierarchies that would not fit in memory anyway.
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


def _graded_keys(indices, depth_max):
    """Integer keys depth * B**n + sum_k n_k * B**(n-1-k) with B = depth_max + 1.

    Digits are below B, so the keys increase strictly in graded
    lexicographic order and a neighbor's key is a fixed offset away.
    Returns the keys and the per-site offsets B**n + B**(n-1-k).
    """
    n_sites = indices.shape[1]
    base = depth_max + 1
    # Every key is below B**(n+1); down-neighbour queries are smaller still.
    if base ** (n_sites + 1) > np.iinfo(np.int64).max:
        raise ValueError(
            f"hierarchy keys for {n_sites} sites at depth {depth_max} overflow int64"
        )
    digits = base ** np.arange(n_sites - 1, -1, -1, dtype=np.int64)
    keys = indices.sum(axis=1) * base**n_sites + indices @ digits
    return keys, base**n_sites + digits


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
    indices = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_sites):
        room = depth_max - indices.sum(axis=1)
        indices = np.concatenate([
            np.column_stack([np.full(np.count_nonzero(room >= v), v),
                             indices[room >= v]])
            for v in range(depth_max + 1)
        ])
    keys, step = _graded_keys(indices, depth_max)
    order = np.argsort(keys)
    indices, keys = indices[order], keys[order]

    # One site column at a time, so the queries arrive in increasing order.
    minus = np.full((count, n_sites), NO_NEIGHBOR, dtype=np.int64)
    plus = np.full_like(minus, NO_NEIGHBOR)
    for k, has_minus in enumerate((indices > 0).T):
        below = np.searchsorted(keys, keys[has_minus] - step[k])
        minus[has_minus, k] = below
        plus[below, k] = np.flatnonzero(has_minus)
    for table in (indices, minus, plus):  # the kernel follows them unchecked
        table.flags.writeable = False
    return HierarchyIndexSpace(indices=indices, neighbors_minus=minus,
                               neighbors_plus=plus)
