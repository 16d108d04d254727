"""The sweep engine: ordering, warm reuse, crash containment, retry-once.

Everything here drives the real spawn-based pool through the
``selftest`` task kind, so poisoned cells exercise the exact in-worker
and hard-death paths the production sweeps rely on.
"""

import os

import pytest

from repro.errors import ConfigurationError
from repro.parallel import SweepError, Task, resolve_jobs, resolve_kind, run_tasks


def ok_cell(i):
    return Task(id=f"cell-{i}", kind="selftest", spec={"mode": "ok", "payload": i})


class TestRegistry:
    def test_builtin_kinds_cover_every_sweep_surface(self):
        for kind in ("chaos", "verify", "experiment", "selftest"):
            assert callable(resolve_kind(kind))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown task kind"):
            resolve_kind("nope")


class TestResolveJobs:
    def test_zero_autodetects(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_positive_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(SweepError, match="jobs must be >= 0"):
            resolve_jobs(-1)


class TestInline:
    def test_empty_sweep(self):
        assert run_tasks([]) == []

    def test_results_in_task_order(self):
        results = run_tasks([ok_cell(i) for i in range(4)], jobs=1)
        assert [r.task_id for r in results] == [f"cell-{i}" for i in range(4)]
        assert [r.value["echo"] for r in results] == [0, 1, 2, 3]
        assert all(r.ok and r.worker is None and r.attempts == 1 for r in results)

    def test_inline_runs_in_calling_process(self):
        (result,) = run_tasks([ok_cell(0)], jobs=1)
        assert result.value["pid"] == os.getpid()

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SweepError, match="duplicate task ids"):
            run_tasks([ok_cell(0), ok_cell(0)])

    def test_unknown_kind_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown task kind"):
            run_tasks([Task(id="x", kind="nope")])

    def test_raise_is_contained_and_retried_once(self):
        tasks = [ok_cell(0), Task(id="bad", kind="selftest", spec={"mode": "raise"}), ok_cell(2)]
        results = run_tasks(tasks, jobs=1)
        assert [r.ok for r in results] == [True, False, True]
        bad = results[1]
        assert bad.attempts == 2
        assert "poisoned task cell" in (bad.error or "")

    def test_flaky_cell_recovers_on_retry(self, tmp_path):
        marker = str(tmp_path / "flaky.marker")
        (result,) = run_tasks(
            [Task(id="f", kind="selftest", spec={"mode": "flaky", "marker": marker})],
            jobs=1,
        )
        assert result.ok and result.attempts == 2
        assert result.value["recovered"] is True


class TestPool:
    def test_results_in_task_order_with_warm_workers(self):
        results = run_tasks([ok_cell(i) for i in range(8)], jobs=4)
        assert [r.task_id for r in results] == [f"cell-{i}" for i in range(8)]
        assert all(r.ok for r in results)
        pids = {r.value["pid"] for r in results}
        # ran out-of-process, on at most `jobs` warm (reused) workers
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 4

    def test_raise_poisons_only_its_cell(self):
        tasks = [ok_cell(i) for i in range(5)]
        tasks.insert(2, Task(id="bad", kind="selftest", spec={"mode": "raise"}))
        results = run_tasks(tasks, jobs=3)
        by_id = {r.task_id: r for r in results}
        assert not by_id["bad"].ok
        assert by_id["bad"].attempts == 2
        assert "poisoned task cell" in (by_id["bad"].error or "")
        assert all(by_id[f"cell-{i}"].ok for i in range(5))

    def test_hard_death_charges_only_the_held_cell(self):
        tasks = [ok_cell(i) for i in range(5)]
        tasks.insert(1, Task(id="dead", kind="selftest", spec={"mode": "exit", "code": 13}))
        results = run_tasks(tasks, jobs=2)
        by_id = {r.task_id: r for r in results}
        assert not by_id["dead"].ok
        assert "died (exit code 13)" in (by_id["dead"].error or "")
        assert all(by_id[f"cell-{i}"].ok for i in range(5))

    def test_every_worker_dying_at_once_is_respawned(self):
        dead = [
            Task(id=f"dead-{i}", kind="selftest", spec={"mode": "exit", "code": 13})
            for i in range(2)
        ]
        results = run_tasks(dead + [ok_cell(i) for i in range(4)], jobs=2)
        by_id = {r.task_id: r for r in results}
        for i in range(2):
            assert not by_id[f"dead-{i}"].ok
            assert by_id[f"dead-{i}"].attempts == 2
            assert "died (exit code 13)" in (by_id[f"dead-{i}"].error or "")
        assert all(by_id[f"cell-{i}"].ok for i in range(4))

    def test_flaky_cell_recovers_on_retry(self, tmp_path):
        marker = str(tmp_path / "flaky-pool.marker")
        tasks = [ok_cell(0), Task(id="f", kind="selftest", spec={"mode": "flaky", "marker": marker})]
        results = run_tasks(tasks, jobs=2)
        by_id = {r.task_id: r for r in results}
        assert by_id["f"].ok and by_id["f"].attempts == 2
        assert by_id["f"].value["recovered"] is True

    def test_progress_sees_every_cell_exactly_once(self):
        seen = []
        run_tasks([ok_cell(i) for i in range(6)], jobs=3, progress=lambda r: seen.append(r.task_id))
        assert sorted(seen) == [f"cell-{i}" for i in range(6)]
