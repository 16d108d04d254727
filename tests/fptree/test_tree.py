"""Tests for the k-ary tree construction and leaf location."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fptree import build_tree, leaf_positions
from repro.fptree.tree import _chunk_bounds, children_bounds


class TestChunkBounds:
    def test_even_split(self):
        assert _chunk_bounds(0, 8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loaded(self):
        bounds = _chunk_bounds(0, 7, 3)
        sizes = [hi - lo for lo, hi in bounds]
        assert sizes == [3, 2, 2]

    def test_fewer_items_than_width(self):
        assert _chunk_bounds(0, 2, 5) == [(0, 1), (1, 2)]

    def test_empty(self):
        assert _chunk_bounds(3, 3, 4) == []

    def test_covers_range_exactly(self):
        bounds = _chunk_bounds(10, 100, 7)
        assert bounds[0][0] == 10
        assert bounds[-1][1] == 100
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c


class TestBuildTree:
    def test_single_node(self):
        tree = build_tree([42], width=4)
        assert tree.node_id == 42
        assert tree.is_leaf()
        assert tree.size() == 1

    def test_small_tree_shape(self):
        tree = build_tree(list(range(5)), width=2)
        assert tree.node_id == 0
        assert len(tree.children) == 2
        assert tree.size() == 5

    def test_all_ids_present_once(self):
        ids = list(range(100))
        tree = build_tree(ids, width=4)
        seen = sorted(n.node_id for n in tree.iter_nodes())
        assert seen == ids

    def test_width_bound_respected(self):
        tree = build_tree(list(range(1000)), width=8)
        for node in tree.iter_nodes():
            assert len(node.children) <= 8

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tree([], width=2)

    def test_width_one_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tree([1, 2], width=1)

    @given(st.integers(2, 500), st.integers(2, 16))
    @settings(max_examples=40)
    def test_first_layer_children_are_group_heads(self, n, w):
        tree = build_tree(list(range(n)), width=w)
        heads = [c.node_id for c in tree.children]
        expected = [lo for lo, _hi in children_bounds(0, n, w)]
        assert heads == expected


class TestLeafPositions:
    @given(st.integers(1, 800), st.integers(2, 20))
    @settings(max_examples=60)
    def test_matches_built_tree(self, n, w):
        via_tree = sorted(build_tree(list(range(n)), width=w).leaf_ids())
        via_sim = sorted(leaf_positions(n, w))
        assert via_tree == via_sim

    def test_zero_nodes(self):
        assert leaf_positions(0, 4) == []

    def test_single_node_is_leaf(self):
        assert leaf_positions(1, 4) == [0]

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            leaf_positions(-1, 4)

    @given(st.integers(2, 800), st.integers(2, 20))
    @settings(max_examples=40)
    def test_most_nodes_are_leaves(self, n, w):
        # In this contiguous-chunk w-ary construction at least a quarter
        # of positions are leaves (w=2 worst case); wide trees approach 1.
        leaves = leaf_positions(n, w)
        assert len(leaves) >= max(1, n // 4)
