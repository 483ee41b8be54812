from math import comb

import numpy as np
import pytest

from fmoheom.hierarchy import (
    MAX_NODES,
    NO_NEIGHBOR,
    enumerate_hierarchy,
    hierarchy_count,
)


def graded_lex(n_sites, depth):
    """Every multi-index of sum <= depth, sorted by depth, then lexicographically."""
    def within(sites, room):
        if sites == 0:
            yield ()
            return
        for v in range(room + 1):
            for rest in within(sites - 1, room - v):
                yield (v, *rest)

    return sorted(within(n_sites, depth), key=lambda n: (sum(n), n))


class TestCounting:
    def test_depth_zero(self):
        assert enumerate_hierarchy(7, 0).count == 1

    def test_single_site(self):
        assert enumerate_hierarchy(1, 3).count == 4

    def test_no_sites(self):
        space = enumerate_hierarchy(0, 3)
        assert space.count == 1
        for table in space.tables:
            assert table.shape == (1, 0)

    def test_node_limit_on_one_site(self):
        # The deepest hierarchy the limit admits: a chain of 5 000 000 nodes.
        space = enumerate_hierarchy(1, MAX_NODES - 1)
        assert space.count == MAX_NODES
        n, down, up = space.tables
        assert n[-1].tolist() == [MAX_NODES - 1]
        assert down[-1].tolist() == [MAX_NODES - 2]
        assert up[-1].tolist() == [NO_NEIGHBOR]

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="truncation depth must be nonnegative"):
            enumerate_hierarchy(7, -1)

    @pytest.mark.parametrize("count,n_sites,depth,message", [
        (hierarchy_count, 7, -1, "truncation depth must be nonnegative"),
        (hierarchy_count, -1, 2, "n_sites must be nonnegative"),
        (enumerate_hierarchy, -1, 2, "n_sites must be nonnegative"),
    ])
    def test_negative_argument_named(self, count, n_sites, depth, message):
        with pytest.raises(ValueError, match=message):
            count(n_sites, depth)

    @pytest.mark.parametrize("n_sites,depth", [(7, True), (True, 2), (7, 2.5),
                                               (7.0, 2), (7, "2")])
    def test_non_integer_arguments_rejected(self, n_sites, depth):
        # A bool is not a count: enumerate_hierarchy(7, True) would be depth 1.
        with pytest.raises(ValueError, match="must be an integer"):
            enumerate_hierarchy(n_sites, depth)

    def test_numpy_integer_arguments_accepted(self):
        assert enumerate_hierarchy(np.int64(7), np.int64(2)).count == 36

    def test_paper_truncation_level(self):
        assert hierarchy_count(7, 12) == 50388
        assert hierarchy_count(7, 12) == comb(19, 7)

    @pytest.mark.parametrize("n_sites,depth", [(7, n) for n in range(7)])
    def test_exhaustive_matches_binomial(self, n_sites, depth):
        space = enumerate_hierarchy(n_sites, depth)
        assert space.count == comb(depth + n_sites, n_sites)
        # every index is distinct and within depth
        n = space.tables[0]
        seen = {tuple(row) for row in n}
        assert len(seen) == space.count
        assert n.sum(axis=1).max() <= depth

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="node"):
            enumerate_hierarchy(7, 40)


class TestOrdering:
    def test_graded_lex(self):
        idx = enumerate_hierarchy(3, 2).tables[0]
        depths = idx.sum(axis=1)
        assert np.all(np.diff(depths) >= 0)  # graded
        for d in range(3):
            block = [tuple(r) for r in idx[depths == d]]
            assert block == sorted(block)

    def test_root_first(self):
        space = enumerate_hierarchy(7, 3)
        assert not space.tables[0, 0].any()


class TestAdjacency:
    @pytest.fixture(scope="class")
    @staticmethod
    def space():
        return enumerate_hierarchy(7, 4)

    def test_minus_iff_positive(self, space):
        n, down, _ = space.tables
        has_minus = down != NO_NEIGHBOR
        np.testing.assert_array_equal(has_minus, n > 0)

    @pytest.mark.parametrize("n_sites,depth", [(7, 3), (3, 6), (1, 4), (63, 1),
                                               (7, 12)])
    def test_tables_match_brute_force(self, n_sites, depth):
        # Every row, or a seeded sample of 2 000 rows of the larger tables.
        space = enumerate_hierarchy(n_sites, depth)
        indices, minus, plus = space.tables
        nodes = graded_lex(n_sites, depth)
        assert indices.tolist() == [list(n) for n in nodes]
        rank = {n: i for i, n in enumerate(nodes)}
        rows = range(space.count)
        if space.count > 2000:
            rows = np.random.default_rng(12).choice(space.count, 2000, replace=False)
        for i in rows:
            row = nodes[i]
            for k in range(n_sites):
                down = list(row)
                down[k] -= 1
                assert minus[i, k] == rank.get(tuple(down), NO_NEIGHBOR)
                up = list(row)
                up[k] += 1
                assert plus[i, k] == rank.get(tuple(up), NO_NEIGHBOR)

    @pytest.mark.parametrize("n_sites", [1, 3, 7])
    @pytest.mark.parametrize("depth", range(8))
    def test_each_level_is_a_prefix_of_the_next(self, n_sites, depth):
        # Level N is the first count(N) rows of level N + 1, whose up
        # ranks at depth N point past them and read NO_NEIGHBOR at level N.
        low = enumerate_hierarchy(n_sites, depth).tables
        high = enumerate_hierarchy(n_sites, depth + 1).tables
        count = low.shape[1]
        np.testing.assert_array_equal(low[:2], high[:2, :count])
        plus = high[2, :count]
        np.testing.assert_array_equal(
            low[2], np.where(plus >= count, NO_NEIGHBOR, plus))

    def test_tables_are_read_only(self, space):
        # The compiled kernel follows the ranks without checking them again.
        for table in space.tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 10**9

    @pytest.mark.parametrize("n_sites,depth", [(7, n) for n in range(13)]
                             + [(1, 4), (0, 3)])
    def test_tables_are_int32(self, n_sites, depth):
        space = enumerate_hierarchy(n_sites, depth)
        block = space.tables
        assert block.shape == (3, space.count, n_sites)
        assert block.flags.c_contiguous and not block.flags.writeable
        for table in block:
            assert table.dtype == np.int32 and table.flags.c_contiguous
            assert not table.flags.writeable

    def test_node_limit_fits_int32(self):
        # Every rank is below MAX_NODES and every entry of n at most its
        # depth, which is below MAX_NODES too.
        assert MAX_NODES < 2**31
