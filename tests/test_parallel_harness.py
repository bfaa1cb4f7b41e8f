"""Tests for the parallel scenario harness.

The golden property is worker-count independence: scenarios are seeded
and extraction is pure, so workers=1 and workers=N must produce
byte-identical tables.  The pool tests are kept small (two scenario
points, short durations) because spawn-started workers re-import the
package per process.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.harness.experiments import run_e1_response_time
from repro.harness.parallel import (
    pool_transport_stats,
    reset_pool_transport_stats,
    resolve_workers,
    run_scenarios,
    run_tasks,
    shutdown_pool,
)
from repro.harness.scenario import ScenarioConfig, ScenarioResult
from repro.harness.sweep import grid, run_sweep
from repro.workload.profiles import WorkloadConfig

FAST = dict(
    topology="single",
    topology_params={"n_clients": 2, "n_attackers": 1},
    duration_s=12.0,
    workload=WorkloadConfig(
        attack_rate_pps=300, attack_start_s=3.0, attack_duration_s=1000
    ),
)


# Module-level so spawn workers can pickle them by reference.
def _extract_summary(result: ScenarioResult) -> dict:
    return {
        "detections": result.detection_times(),
        "success": result.success_rate(),
        "attack_packets": result.workload.attack_packets_sent(),
    }


def _add(a: int, b: int) -> int:
    return a + b


def _boom(x: int) -> int:
    raise ValueError(f"boom {x}")


def _die_in_worker(x: int) -> int:
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return x


@pytest.fixture(autouse=True)
def _fresh_pool():
    yield
    shutdown_pool()


class TestResolveWorkers:
    def test_none_means_cpu_count(self):
        assert resolve_workers(None) >= 1

    def test_floor_is_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1

    def test_passthrough(self):
        assert resolve_workers(4) == 4


class TestRunTasks:
    def test_serial_path(self):
        assert run_tasks(_add, [{"a": 1, "b": 2}, {"a": 3, "b": 4}], workers=1) == [3, 7]

    def test_parallel_results_in_submission_order(self):
        tasks = [{"a": i, "b": i} for i in range(6)]
        assert run_tasks(_add, tasks, workers=2) == [2 * i for i in range(6)]

    def test_worker_error_falls_back_serially_and_raises(self):
        # After retries the task reruns in-process, surfacing the real error.
        with pytest.raises(ValueError, match="boom"):
            run_tasks(_boom, [{"x": 1}, {"x": 2}], workers=2, retries=0)

    def test_unpicklable_task_falls_back_to_serial(self):
        # A lambda cannot be pickled for the spawn worker; the harness must
        # still complete the tasks rather than blow up.
        results = run_tasks(
            lambda a, b: a * b, [{"a": 2, "b": 3}, {"a": 4, "b": 5}], workers=2
        )
        assert results == [6, 20]

    def test_timeout_falls_back_to_serial(self):
        # A 10s sleeper against a tiny timeout exhausts its retries and runs
        # in-process; use a fast function so the fallback is quick.
        results = run_tasks(
            _add,
            [{"a": 1, "b": 1}, {"a": 2, "b": 2}],
            workers=2,
            timeout_s=0.001,
            retries=0,
        )
        assert results == [2, 4]

    def test_retries_then_serial_fallback(self):
        results = run_tasks(
            _add,
            [{"a": 3, "b": 4}, {"a": 5, "b": 6}],
            workers=2,
            timeout_s=0.0001,
            retries=2,
        )
        assert results == [7, 11]

    def test_worker_death_falls_back_serially(self):
        # Workers hard-exit mid-task (BrokenProcessPool): the pool is torn
        # down and every task completes in-process, in order.
        results = run_tasks(_die_in_worker, [{"x": 1}, {"x": 2}, {"x": 3}], workers=2)
        assert results == [1, 2, 3]

    def test_pool_results_are_tallied(self):
        reset_pool_transport_stats()
        run_tasks(_add, [{"a": i, "b": 1} for i in range(3)], workers=2)
        stats = pool_transport_stats()
        assert stats.pickle_results == 3
        assert stats.shm_bytes == 0


class TestRunScenarios:
    def test_serial_matches_parallel(self):
        base = ScenarioConfig(defense="spi", **FAST)
        points = grid(seed=[1, 2])
        serial = run_scenarios(base, points, extract=_extract_summary, workers=1)
        parallel = run_scenarios(base, points, extract=_extract_summary, workers=2)
        assert serial == parallel

    def test_no_extract_returns_full_results_serially(self):
        base = ScenarioConfig(defense="none", **FAST)
        results = run_scenarios(base, grid(seed=[1, 2]), workers=2)
        assert all(isinstance(r, ScenarioResult) for r in results)
        assert [r.config.seed for r in results] == [1, 2]


class TestRunSweep:
    def test_default_returns_point_result_pairs(self):
        base = ScenarioConfig(defense="none", **FAST)
        results = run_sweep(base, grid(seed=[1, 2]))
        assert results[0][0] == {"seed": 1}
        assert results[0][1].config.seed == 1

    def test_sweep_values_worker_count_independent(self):
        base = ScenarioConfig(defense="spi", **FAST)
        points = grid(seed=[1, 2])
        serial = run_sweep(base, points, extract=_extract_summary, workers=1)
        parallel = run_sweep(base, points, extract=_extract_summary, workers=2)
        assert serial == parallel


class TestGoldenDeterminism:
    def test_e1_table_byte_identical_across_worker_counts(self):
        kwargs = dict(rates=(100, 400), seeds=(1,))
        serial = run_e1_response_time(workers=1, **kwargs)
        parallel = run_e1_response_time(workers=4, **kwargs)
        assert serial.to_csv() == parallel.to_csv()
        assert serial.to_text() == parallel.to_text()


class TestShutdownPool:
    def test_busy_spawn_workers_are_terminated(self):
        """Regression: shutdown must kill workers mid-task, not orphan them.

        ``Executor.shutdown(wait=False, cancel_futures=True)`` only
        cancels queued futures — a worker already executing keeps
        running, and at interpreter exit (Ctrl-C mid-sweep) it used to
        survive its parent as an orphan.  ``shutdown_pool`` now
        terminates and joins every live worker process.
        """
        import time as _time

        from repro.harness import parallel as parallel_module

        pool = parallel_module._get_pool(2)
        # Occupy both workers with a task far longer than the test.
        for _ in range(2):
            pool.submit(_time.sleep, 120)
        deadline = _time.monotonic() + 30
        while _time.monotonic() < deadline:
            processes = list(pool._processes.values())
            if len(processes) >= 2 and all(p.is_alive() for p in processes):
                break
            _time.sleep(0.05)
        else:
            pytest.fail("spawn workers never came up")

        shutdown_pool()

        for process in processes:
            process.join(timeout=10)
            assert not process.is_alive(), f"worker {process.pid} orphaned"
