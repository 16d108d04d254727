"""Forest (multi-root batched) broadcast evaluation.

The relay fan-out and heartbeat sweep hand many independent trees to
one ``simulate_forest`` call; the tree engine then runs a single
multi-root level sweep instead of one recursion per tree.  The whole
contract is bit-identity: every forest entry must equal its standalone
``simulate`` result, including dead-node takeover patches, and the
batching must fall back to the scalar path whenever the forest is too
small to batch.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.fptree import FPTreeBroadcast, StaticSetPredictor
from repro.network import NetworkFabric, RingBroadcast, TreeBroadcast
from repro.network.broadcast import MemoizedBroadcast
from repro.simkit import Simulator


def build(n=256, seed=0):
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(n_nodes=n).build(sim)
    fabric = NetworkFabric(sim, cluster)
    return sim, cluster, fabric


def forest_tasks(n=256, parts=4):
    """Split [1, n) into ``parts`` disjoint trees rooted at their heads."""
    chunk = (n - 1) // parts
    tasks = []
    for p in range(parts):
        nodes = list(range(1 + p * chunk, 1 + (p + 1) * chunk))
        tasks.append((nodes[0], nodes[1:]))
    return tasks


def as_tuples(results):
    return [(r.structure, r.makespan_s, r.n_targets, r.failed, r.n_timeouts) for r in results]


class TestTreeForest:
    def test_forest_matches_per_task_simulate(self):
        engine = TreeBroadcast(width=8)
        _, _, fabric = build()
        tasks = forest_tasks()
        batched = engine.simulate_forest(tasks, 2048, fabric)
        scalar = [engine.simulate(root, targets, 2048, fabric) for root, targets in tasks]
        assert as_tuples(batched) == as_tuples(scalar)
        assert all(r.makespan_s > 0 for r in batched)

    def test_forest_matches_with_dead_nodes(self):
        # Dead inner nodes force the takeover patching; the batched
        # replay must land on the same makespans and failed sets.
        engine = TreeBroadcast(width=8)
        _, cluster, fabric = build()
        cluster.fail_nodes([2, 3, 70, 140, 200])
        tasks = forest_tasks()
        batched = engine.simulate_forest(tasks, 2048, fabric)
        scalar = [engine.simulate(root, targets, 2048, fabric) for root, targets in tasks]
        assert as_tuples(batched) == as_tuples(scalar)
        assert {n for r in batched for n in r.failed} == {2, 3, 70, 140, 200}

    def test_small_forest_falls_back(self):
        # Total targets below FAST_PATH_MIN_TARGETS: still correct.
        engine = TreeBroadcast(width=4)
        _, _, fabric = build(n=32)
        tasks = [(1, [2, 3, 4]), (10, [11, 12])]
        assert sum(len(t) for _, t in tasks) < TreeBroadcast.FAST_PATH_MIN_TARGETS
        batched = engine.simulate_forest(tasks, 1024, fabric)
        scalar = [engine.simulate(root, targets, 1024, fabric) for root, targets in tasks]
        assert as_tuples(batched) == as_tuples(scalar)

    @pytest.mark.parametrize("dead", [[], [3]], ids=["alive", "inner-dead"])
    @pytest.mark.parametrize("total", [63, 64])
    def test_forest_straddling_the_threshold(self, total, dead, monkeypatch):
        # Two trees too small to sweep alone; the forest's total alone
        # picks the sequential recursion (63) or one sweep (64), and
        # every entry equals its standalone result either way.
        swept = []
        sweep = TreeBroadcast._sweep
        monkeypatch.setattr(
            TreeBroadcast, "_sweep", lambda self, *a, **kw: swept.append(1) or sweep(self, *a, **kw)
        )
        engine = TreeBroadcast(width=4)
        _, cluster, fabric = build(n=128)
        cluster.fail_nodes(dead)  # node 3 is inner in the first tree
        tasks = [(1, list(range(2, 34))), (40, list(range(41, 41 + total - 32)))]
        assert sum(len(t) for _, t in tasks) == total
        batched = engine.simulate_forest(tasks, 1024, fabric)
        assert len(swept) == (total >= TreeBroadcast.FAST_PATH_MIN_TARGETS)
        scalar = [engine.simulate(root, targets, 1024, fabric) for root, targets in tasks]
        assert len(swept) == (total >= TreeBroadcast.FAST_PATH_MIN_TARGETS)  # neither tree swept
        assert as_tuples(batched) == as_tuples(scalar)
        assert batched[0].failed == tuple(dead)

    def test_empty_targets_entry_is_a_zero_result(self):
        engine = TreeBroadcast(width=8)
        _, _, fabric = build()
        tasks = forest_tasks(parts=2) + [(250, [])]
        results = engine.simulate_forest(tasks, 2048, fabric)
        assert len(results) == 3
        empty = results[-1]
        assert empty.n_targets == 0
        assert empty.makespan_s == 0.0
        assert empty.failed == ()

    def test_forest_is_deterministic(self):
        engine = TreeBroadcast(width=8)
        tasks = forest_tasks()
        runs = []
        for _ in range(2):
            _, _, fabric = build(seed=5)
            runs.append(as_tuples(engine.simulate_forest(tasks, 4096, fabric)))
        assert runs[0] == runs[1]


class TestDefaultForest:
    def test_non_tree_engines_accept_forest_calls(self):
        # The base-class default is a sequential loop, so every engine
        # supports the forest entry point.
        engine = RingBroadcast()
        _, _, fabric = build(n=64)
        tasks = forest_tasks(n=64, parts=2)
        batched = engine.simulate_forest(tasks, 1024, fabric)
        scalar = [engine.simulate(root, targets, 1024, fabric) for root, targets in tasks]
        assert as_tuples(batched) == as_tuples(scalar)


class TestMemoizedForest:
    """The memo looks up every tree of a forest on its own slot."""

    def test_repeat_forest_hits_cache(self):
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        _, _, fabric = build()
        tasks = forest_tasks()
        first = memo.simulate_forest(tasks, 2048, fabric)
        second = memo.simulate_forest(tasks, 2048, fabric)
        assert memo.misses == 4  # one per tree
        assert memo.hits == 4
        assert as_tuples(first) == as_tuples(second)

    def test_hits_hand_out_copies(self):
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        _, _, fabric = build()
        tasks = forest_tasks()
        first = memo.simulate_forest(tasks, 2048, fabric)
        second = memo.simulate_forest(tasks, 2048, fabric)
        # Call sites mutate results (ack-wait adjustments); the cache
        # must never hand out its stored instances.
        assert first[0] is not second[0]

    def test_failure_rewalks_only_its_tree(self):
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        _, cluster, fabric = build()
        tasks = forest_tasks()
        before = memo.simulate_forest(tasks, 2048, fabric)
        cluster.fail_nodes([70])  # in the second tree
        after = memo.simulate_forest(tasks, 2048, fabric)
        assert (memo.misses, memo.hits) == (5, 3)
        assert after[1].failed == (70,)
        assert as_tuples(before)[1] != as_tuples(after)[1]
        assert as_tuples(after) == as_tuples(
            TreeBroadcast(width=8).simulate_forest(tasks, 2048, fabric)
        )

    def test_scalar_and_forest_calls_share_slots(self):
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        _, _, fabric = build()
        root, targets = forest_tasks(parts=1)[0]
        scalar = memo.simulate(root, targets, 2048, fabric)
        forest = memo.simulate_forest([(root, targets)], 2048, fabric)
        assert (memo.misses, memo.hits) == (1, 1)  # a scalar call is a forest of one
        assert forest[0].makespan_s == scalar.makespan_s


class TestFPTreeForest:
    def test_fp_forest_matches_per_task_simulate(self):
        # Predicted-faulty nodes push to the leaves per part; the
        # batched evaluation must preserve each part's rearrangement.
        engine = FPTreeBroadcast(StaticSetPredictor({5, 80, 150}), width=8)
        _, _, fabric = build()
        tasks = forest_tasks()
        batched = engine.simulate_forest(tasks, 2048, fabric)
        scalar = [engine.simulate(root, targets, 2048, fabric) for root, targets in tasks]
        assert as_tuples(batched) == as_tuples(scalar)
        assert all(r.structure == "fp-tree" for r in batched)
