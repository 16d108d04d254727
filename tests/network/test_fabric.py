"""Tests for the latency/bandwidth fabric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.cluster.topology import Topology
from repro.errors import ClusterError
from repro.network import NetworkFabric
from repro.network.fabric import (
    BYTES_PER_SECOND,
    DEAD_NODE_PENALTY_S,
    HOP_LATENCY_S,
    SEND_OVERHEAD_S,
)
from repro.rm import EslurmRM
from repro.sched.job import Job, JobState
from repro.simkit import Simulator


def build(n=128, seed=0):
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(n_nodes=n).build(sim)
    return sim, cluster, NetworkFabric(sim, cluster)


class TestFabricConfig:
    def test_defaults_valid(self):
        # a 25 Gb/s lane; a 1 s connect timeout and three retries
        assert BYTES_PER_SECOND == pytest.approx(25e9 / 8)
        assert DEAD_NODE_PENALTY_S == pytest.approx(4.0)
        assert len(HOP_LATENCY_S) == 5  # one per HopLevel

    def test_a_day_draws_no_fabric_stream(self):
        # The interconnect is fixed: delays and broadcasts draw nothing.
        sim = Simulator(seed=0)
        cluster = ClusterSpec(n_nodes=64, n_satellites=2).build(sim)
        rm = EslurmRM(sim, cluster)
        jobs = [Job(i, f"j{i}.sh", "u", 8, 600.0, 900.0, 60.0 * i) for i in range(1, 6)]
        rm.run_trace(jobs, until=86400.0)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        assert "fabric" not in sim.rng._streams


class TestTransferDelay:
    def test_delay_components(self):
        _, _, fabric = build()
        # nodes 0 and 1 share a board
        d = fabric.transfer_delay(0, 1, 1000)
        expected = SEND_OVERHEAD_S + HOP_LATENCY_S[1] + 1000 / BYTES_PER_SECOND
        assert d == pytest.approx(expected)

    def test_farther_hops_cost_more(self):
        _, cluster, fabric = build(n=2048)
        same_board = fabric.transfer_delay(0, 1, 100)
        cross_rack = fabric.transfer_delay(0, cluster.topology.nodes_per_rack, 100)
        assert cross_rack > same_board

    def test_bigger_messages_cost_more(self):
        _, _, fabric = build()
        assert fabric.transfer_delay(0, 1, 10_000_000) > fabric.transfer_delay(0, 1, 100)

    def test_master_id_mapped_safely(self):
        _, cluster, fabric = build(n=16)
        d = fabric.transfer_delay(cluster.master_id, 3, 100)
        assert d > 0


class TestVectorizedDelays:
    def test_matches_scalar(self):
        _, _, fabric = build(n=1024)
        dsts = np.array([1, 7, 63, 200, 900])
        vec = fabric.transfer_delays(0, dsts, 500)
        scalar = [fabric.transfer_delay(0, int(d), 500) for d in dsts]
        assert vec.tolist() == scalar

    @given(
        dims=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
        n_nodes=st.integers(1, 3000),
        n_satellites=st.integers(0, 3),
        size_bytes=st.integers(1, 10**7),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_hop_codes_match_scalar(self, dims, n_nodes, n_satellites, size_bytes, seed):
        # Any layout, powers of two or not; pairs drawn from the whole
        # id space, master and satellites included: far apart, close
        # by (same board, chassis or rack) and the same id twice.
        sim = Simulator(seed=0)
        spec = ClusterSpec(n_nodes=n_nodes, n_satellites=n_satellites, topology=Topology(*dims))
        cluster = spec.build(sim)
        fabric = NetworkFabric(sim, cluster)
        rng = np.random.default_rng(seed)
        n_ids = cluster.state.size
        srcs = rng.integers(0, n_ids, 64)
        near = np.clip(srcs[30:60] + rng.integers(-40, 41, 30), 0, n_ids - 1)
        dsts = np.concatenate([rng.integers(0, n_ids, 30), near, srcs[60:]])
        scalar = [fabric.transfer_delay(int(a), int(b), size_bytes) for a, b in zip(srcs, dsts)]
        pairwise = fabric.link_delays(fabric.hop_codes(srcs), fabric.hop_codes(dsts), size_bytes)
        assert pairwise.tolist() == scalar
        for src in (int(srcs[0]), cluster.master_id, n_ids - 1):
            assert fabric.transfer_delays(src, dsts, size_bytes).tolist() == [
                fabric.transfer_delay(src, int(b), size_bytes) for b in dsts
            ]

    def test_reachability_mask(self):
        _, cluster, fabric = build(n=10)
        cluster.fail_nodes([2, 4])
        mask = fabric.reachability(list(range(10)))
        assert list(np.nonzero(~mask)[0]) == [2, 4]

    @pytest.mark.parametrize("n_ids", [10, 100])
    @pytest.mark.parametrize("unknown", [10_000, -1])
    def test_reachability_rejects_unknown_ids(self, n_ids, unknown):
        # Short and long lists take the same path: an id outside the
        # cluster raises instead of reading as reachable.
        _, cluster, fabric = build(n=128)
        cluster.fail_nodes([2])
        ids = list(range(n_ids - 1)) + [unknown]
        with pytest.raises(ClusterError, match=f"unknown node id {unknown}"):
            fabric.reachability(ids)

