"""Tests for the rack/chassis/board topology."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.topology import HopLevel, Topology
from repro.errors import ConfigurationError

TOPO = Topology(nodes_per_board=8, boards_per_chassis=16, chassis_per_rack=4)
NODES_PER_RACK = 8 * 16 * 4  # 512


class TestCoordinates:
    def test_node_zero(self):
        assert TOPO.coordinates(0) == (0, 0, 0)

    def test_board_boundary(self):
        assert TOPO.coordinates(7)[2] == 0
        assert TOPO.coordinates(8)[2] == 1

    def test_rack_boundary(self):
        assert TOPO.coordinates(NODES_PER_RACK - 1)[0] == 0
        assert TOPO.coordinates(NODES_PER_RACK)[0] == 1

    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            TOPO.coordinates(-1)


class TestHopLevel:
    def test_same_node(self):
        assert TOPO.hop_level(5, 5) is HopLevel.SAME_NODE

    def test_same_board(self):
        assert TOPO.hop_level(0, 7) is HopLevel.SAME_BOARD

    def test_same_chassis(self):
        assert TOPO.hop_level(0, 8) is HopLevel.SAME_CHASSIS

    def test_same_rack(self):
        assert TOPO.hop_level(0, TOPO.nodes_per_chassis) is HopLevel.SAME_RACK

    def test_cross_rack(self):
        assert TOPO.hop_level(0, NODES_PER_RACK) is HopLevel.CROSS_RACK

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_symmetry(self, a, b):
        assert TOPO.hop_level(a, b) == TOPO.hop_level(b, a)

    @given(st.integers(0, 10_000))
    def test_reflexive(self, a):
        assert TOPO.hop_level(a, a) is HopLevel.SAME_NODE


class TestHelpers:
    def test_racks_for(self):
        assert TOPO.racks_for(1) == 1
        assert TOPO.racks_for(NODES_PER_RACK) == 1
        assert TOPO.racks_for(NODES_PER_RACK + 1) == 2

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(nodes_per_board=0)


#: irregular layouts (tiny boards, degenerate 1-wide levels) crossed
#: with cluster sizes that do not divide evenly into any container
topologies = st.builds(
    Topology,
    nodes_per_board=st.integers(1, 8),
    boards_per_chassis=st.integers(1, 8),
    chassis_per_rack=st.integers(1, 4),
)


class TestPropertySweep:
    """Edge-case sweep: single-rack clusters, partial racks, odd sizes."""

    @given(topologies, st.integers(0, 5000))
    def test_coordinates_consistent_with_hop_level(self, topo, nid):
        rack, chassis, board = topo.coordinates(nid)
        assert board // topo.boards_per_chassis == chassis
        assert chassis // topo.chassis_per_rack == rack

    @given(topologies, st.integers(0, 5000), st.integers(0, 5000))
    def test_hop_level_matches_coordinates(self, topo, a, b):
        level = topo.hop_level(a, b)
        ra, ca, ba = topo.coordinates(a)
        rb, cb, bb = topo.coordinates(b)
        if a == b:
            assert level is HopLevel.SAME_NODE
        elif ba == bb:
            assert level is HopLevel.SAME_BOARD
        elif ca == cb:
            assert level is HopLevel.SAME_CHASSIS
        elif ra == rb:
            assert level is HopLevel.SAME_RACK
        else:
            assert level is HopLevel.CROSS_RACK

    @given(topologies, st.integers(1, 3000))
    def test_racks_partition_cluster(self, topo, total):
        # Every node lands in exactly one rack; the last rack may be
        # partial (total not divisible by the rack size) but never empty.
        racks = [topo.rack_of(nid) for nid in range(total)]
        assert racks == sorted(racks)
        assert set(racks) == set(range(topo.racks_for(total)))

    @given(topologies, st.integers(1, 3000))
    def test_last_rack_size(self, topo, total):
        last = topo.racks_for(total) - 1
        in_last = sum(topo.rack_of(nid) == last for nid in range(total))
        remainder = total % topo.nodes_per_rack
        assert in_last == (remainder if remainder else topo.nodes_per_rack)

    @given(st.integers(1, 512), st.integers(0, 511), st.integers(0, 511))
    def test_single_rack_cluster_never_crosses_racks(self, total, a, b):
        # Any cluster that fits one rack: no pair can be CROSS_RACK.
        topo = Topology(nodes_per_board=8, boards_per_chassis=16, chassis_per_rack=4)
        a, b = a % total, b % total
        assert total <= topo.nodes_per_rack
        assert topo.hop_level(a, b) is not HopLevel.CROSS_RACK

    @given(topologies, st.integers(1, 3000))
    def test_cluster_not_divisible_by_chassis(self, topo, total):
        # A cluster size straddling a chassis boundary must still give
        # every node a valid chassis whose global index is in range.
        n_chassis = -(-total // topo.nodes_per_chassis)
        for nid in (0, total // 2, total - 1):
            _, chassis, _ = topo.coordinates(nid)
            assert 0 <= chassis < n_chassis
