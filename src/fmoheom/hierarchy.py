"""Enumeration and indexing of the auxiliary-operator hierarchy.

Multi-indices n = (n_1, ..., n_K) with sum(n) <= N are laid out in graded
lexicographic order (by depth, then lexicographically within a depth) and
addressed by a flat rank. Neighbor tables (rank of n with n_k incremented
or decremented) are precomputed once, by binary search over integer keys
that increase in that order, so the right-hand side never performs hash
lookups.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

# Refuse to enumerate hierarchies that would not fit in memory anyway.
MAX_NODES = 5_000_000

# Sentinel rank for a missing neighbor (above truncation or n_k = 0).
NO_NEIGHBOR = -1


def hierarchy_count(n_sites, depth_max):
    """Number of multi-indices with sum <= depth_max (stars and bars)."""
    return comb(depth_max + n_sites, n_sites)


def _graded_keys(indices, depth_max):
    """Integer keys depth * B**n + sum_k n_k * B**(n-1-k) with B = depth_max + 1.

    Digits are below B, so the keys increase strictly in graded
    lexicographic order and a neighbor's key is a fixed offset away.
    Returns the keys and the per-site offsets B**n + B**(n-1-k).
    """
    n_sites = indices.shape[1]
    base = depth_max + 1
    # Largest key queried: a top-depth node plus the largest offset.
    if base * (base**n_sites + base**(n_sites - 1)) > np.iinfo(np.int64).max:
        raise ValueError(
            f"hierarchy keys for {n_sites} sites at depth {depth_max} overflow int64"
        )
    digits = base ** np.arange(n_sites - 1, -1, -1, dtype=np.int64)
    keys = indices.sum(axis=1) * base**n_sites + indices @ digits
    return keys, base**n_sites + digits


def enumerate_multi_indices(n_sites, depth_max):
    """Multi-indices in graded lexicographic order as an (count, n_sites) array."""
    indices = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_sites):
        room = depth_max - indices.sum(axis=1)
        indices = np.concatenate([
            np.column_stack([np.full(np.count_nonzero(room >= v), v),
                             indices[room >= v]])
            for v in range(depth_max + 1)
        ])
    keys, _ = _graded_keys(indices, depth_max)
    return indices[np.argsort(keys)]


@dataclass(frozen=True)
class HierarchyIndexSpace:
    """Flat index space over the hierarchy with precomputed adjacency.

    neighbors_plus[i, k] is the rank of indices[i] with n_k incremented,
    or NO_NEIGHBOR when that would exceed the truncation depth;
    neighbors_minus[i, k] likewise for decrementing.
    """

    indices: np.ndarray          # (count, n_sites)
    neighbors_plus: np.ndarray   # (count, n_sites)
    neighbors_minus: np.ndarray  # (count, n_sites)

    @property
    def count(self):
        return self.indices.shape[0]

    @property
    def depths(self):
        return self.indices.sum(axis=1)


def enumerate_hierarchy(n_sites, depth_max):
    """Build the full HierarchyIndexSpace for sum(n) <= depth_max."""
    if depth_max < 0:
        raise ValueError("truncation depth must be nonnegative")
    count = hierarchy_count(n_sites, depth_max)
    if count > MAX_NODES:
        raise ValueError(
            f"hierarchy with {count} nodes exceeds the {MAX_NODES} node limit"
        )
    indices = enumerate_multi_indices(n_sites, depth_max)
    keys, step = _graded_keys(indices, depth_max)

    plus = np.full((count, n_sites), NO_NEIGHBOR, dtype=np.int64)
    minus = np.full((count, n_sites), NO_NEIGHBOR, dtype=np.int64)
    depths = indices.sum(axis=1)
    has_plus = np.repeat(depths < depth_max, n_sites).reshape(count, n_sites)
    has_minus = indices > 0
    plus[has_plus] = np.searchsorted(keys, (keys[:, None] + step)[has_plus])
    minus[has_minus] = np.searchsorted(keys, (keys[:, None] - step)[has_minus])

    return HierarchyIndexSpace(indices=indices, neighbors_plus=plus,
                               neighbors_minus=minus)
