from math import comb

import numpy as np
import pytest

from fmoheom.hierarchy import (
    NO_NEIGHBOR,
    enumerate_hierarchy,
    hierarchy_count,
)


class TestCounting:
    def test_depth_zero(self):
        assert enumerate_hierarchy(7, 0).count == 1

    def test_single_site(self):
        assert enumerate_hierarchy(1, 3).count == 4

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="truncation depth must be nonnegative"):
            enumerate_hierarchy(7, -1)

    def test_paper_truncation_level(self):
        assert hierarchy_count(7, 12) == 50388
        assert hierarchy_count(7, 12) == comb(19, 7)

    @pytest.mark.parametrize("n_sites,depth", [(7, n) for n in range(7)])
    def test_exhaustive_matches_binomial(self, n_sites, depth):
        space = enumerate_hierarchy(n_sites, depth)
        assert space.count == comb(depth + n_sites, n_sites)
        # every index is distinct and within depth
        seen = {tuple(row) for row in space.indices}
        assert len(seen) == space.count
        assert space.depths.max() <= depth

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="node"):
            enumerate_hierarchy(7, 40)

    def test_key_overflow_rejected(self):
        # 64 nodes, but the base-2 keys of 63 sites do not fit in int64.
        with pytest.raises(ValueError, match="overflow"):
            enumerate_hierarchy(63, 1)


class TestOrdering:
    def test_graded_lex(self):
        idx = enumerate_hierarchy(3, 2).indices
        depths = idx.sum(axis=1)
        assert np.all(np.diff(depths) >= 0)  # graded
        for d in range(3):
            block = [tuple(r) for r in idx[depths == d]]
            assert block == sorted(block)

    def test_root_first(self):
        space = enumerate_hierarchy(7, 3)
        assert not space.indices[0].any()


class TestAdjacency:
    @pytest.fixture(scope="class")
    @staticmethod
    def space():
        return enumerate_hierarchy(7, 4)

    def test_minus_iff_positive(self, space):
        has_minus = space.neighbors_minus != NO_NEIGHBOR
        np.testing.assert_array_equal(has_minus, space.indices > 0)

    @pytest.mark.parametrize("n_sites,depth", [(7, 3), (3, 6), (1, 4)])
    def test_tables_match_brute_force(self, n_sites, depth):
        space = enumerate_hierarchy(n_sites, depth)
        rank = {tuple(int(v) for v in row): i
                for i, row in enumerate(space.indices)}
        for i, row in enumerate(space.indices):
            for k in range(n_sites):
                down = list(row)
                down[k] -= 1
                assert space.neighbors_minus[i, k] == rank.get(tuple(down), NO_NEIGHBOR)
