"""Parallel scenario execution across worker processes.

The evaluation suite regenerates its tables from hundreds of independent,
seeded scenario runs, so the harness fans them out over a process pool:

* ``run_tasks`` is the generic layer: it runs a module-level function over a
  list of keyword-argument dicts on a ``ProcessPoolExecutor`` and collects
  the results **in submission order**, with a per-task result timeout,
  bounded retry, and an in-process serial fallback as the last resort (which
  also surfaces deterministic errors with their real traceback).
* ``run_scenarios`` is the scenario layer: each ``(overrides, base config)``
  point is resolved with :func:`repro.harness.sweep.apply_overrides`, shipped
  to the worker as the plain-data dict produced by
  :mod:`repro.harness.serialize` (the same transport the CLI's
  ``--save``/``--config`` replay path uses), rebuilt, run, and reduced to a
  picklable value by a caller-supplied ``extract`` function.

Scenarios are fully deterministic given their seed and extraction is pure,
so the results are identical whatever the worker count — ``workers=1`` and
``workers=N`` must (and do) produce byte-identical tables.  Workers are
started with the ``spawn`` method: every entrypoint here is a module-level
function pickled by reference, so the harness works on platforms where
``fork`` is unavailable or unsafe.

That same determinism makes extracted results cacheable: when a
:class:`repro.harness.cache.SweepCache` is installed (explicitly or via
``repro experiment --cache``), ``run_scenarios`` consults it per point
before dispatching anything and only the misses are simulated; hits,
misses and stores are tallied on the cache's stats.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:
    from repro.harness.cache import SweepCache

from repro.harness.scenario import (
    ScenarioConfig,
    ScenarioResult,
    effective_config,
    run_scenario,
)
from repro.harness.serialize import config_from_dict, config_to_dict

__all__ = [
    "resolve_workers",
    "run_tasks",
    "run_scenarios",
    "shutdown_pool",
    "pool_transport_stats",
    "reset_pool_transport_stats",
]


@dataclass
class PoolTransportStats:
    """Lifetime tallies of how pool results travelled.

    Every result crosses the executor's pickle channel, so
    ``pickle_results`` counts them all and ``shm_bytes`` stays 0; the
    field is kept for readers that sum bytes across both counters.
    """

    pickle_results: int = 0
    shm_bytes: int = 0


_transport_stats = PoolTransportStats()


def pool_transport_stats() -> PoolTransportStats:
    return _transport_stats


def reset_pool_transport_stats() -> None:
    global _transport_stats
    _transport_stats = PoolTransportStats()


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request: ``None`` means one per CPU."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


# One cached executor, reused across experiment calls so the spawn cost is
# paid once per process, not once per table.
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_workers
    if _pool is None or _pool_workers != workers:
        shutdown_pool()
        _pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        )
        _pool_workers = workers
    return _pool


def shutdown_pool(timeout_s: float = 5.0) -> None:
    """Dispose of the cached worker pool (also runs at interpreter exit).

    ``Executor.shutdown(wait=False, cancel_futures=True)`` only cancels
    *queued* futures — a worker already simulating keeps going, and a
    spawn worker abandoned at interpreter exit (Ctrl-C mid-sweep, an
    atexit teardown) outlives its parent as an orphan burning a core.
    So disposal also terminates every worker process still alive and
    joins it (bounded by ``timeout_s``, escalating to ``kill``).
    """
    global _pool, _pool_workers
    if _pool is None:
        return
    pool, _pool, _pool_workers = _pool, None, 0
    # Private, but the only handles on the worker processes and on the
    # executor's manager thread; taken before shutdown() clears them.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()
    # The manager thread joins every worker once they exit.  Joining the
    # same child from two threads races: the loser's waitpid gets ECHILD
    # and reports a dead worker alive until the winner stores the exit
    # code.  Waiting for the manager first leaves every exit code set.
    if manager is not None:
        manager.join(timeout=timeout_s)
    deadline_each = max(0.1, timeout_s / max(1, len(processes)))
    for process in processes:
        process.join(timeout=deadline_each)
        if process.is_alive():
            process.kill()
            process.join(timeout=deadline_each)


atexit.register(shutdown_pool)


def _invoke(fn: Callable[..., Any], kwargs: dict[str, Any]) -> Any:
    """Worker-side trampoline: apply a task's keyword arguments."""
    return fn(**kwargs)


def run_tasks(
    fn: Callable[..., Any],
    tasks: Sequence[dict[str, Any]],
    *,
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
) -> list[Any]:
    """Run ``fn(**task)`` for every task, returning results in task order.

    ``fn`` must be a module-level callable (pickled by reference for the
    spawn-started workers).  Each task gets up to ``retries`` resubmissions
    after a failure or a ``timeout_s`` wait on its result; once those are
    exhausted the task runs serially in this process, which either completes
    it (e.g. the payload was merely unpicklable) or raises the genuine
    error with a usable traceback.  A broken pool (a worker died) disables
    parallelism for the remaining tasks instead of failing the sweep.
    Results travel back over the executor's pickle channel.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(**task) for task in tasks]

    pool = _get_pool(workers)
    futures = [pool.submit(_invoke, fn, task) for task in tasks]
    results: list[Any] = []
    for future, task in zip(futures, tasks):
        attempts = 0
        while True:
            try:
                results.append(future.result(timeout=timeout_s))
                _transport_stats.pickle_results += 1
                break
            except BrokenProcessPool:
                # The pool is unusable for every outstanding future;
                # finish this task (and let later iterations do the
                # same) serially.
                shutdown_pool()
                results.append(fn(**task))
                break
            except Exception as exc:
                if isinstance(exc, FutureTimeoutError):
                    future.cancel()
                if attempts >= retries:
                    results.append(fn(**task))
                    break
                attempts += 1
                try:
                    future = _get_pool(workers).submit(_invoke, fn, task)
                except Exception:
                    results.append(fn(**task))
                    break
    return results


def _scenario_worker(
    config_data: dict[str, Any], extract: Callable[[ScenarioResult], Any]
) -> Any:
    """Spawn-safe worker entrypoint: rebuild, run, reduce one scenario."""
    result = run_scenario(config_from_dict(config_data))
    return extract(result)


def _run_configs(
    configs: Sequence[ScenarioConfig],
    extract: Callable[[ScenarioResult], Any],
    workers: Optional[int],
    timeout_s: Optional[float],
    retries: int,
) -> list[Any]:
    """Simulate + reduce each config, serially or through the pool."""
    if resolve_workers(workers) <= 1 or len(configs) <= 1:
        return [extract(run_scenario(config)) for config in configs]
    tasks = [
        {"config_data": config_to_dict(config), "extract": extract}
        for config in configs
    ]
    return run_tasks(
        _scenario_worker,
        tasks,
        workers=workers,
        timeout_s=timeout_s,
        retries=retries,
    )


def run_scenarios(
    base: ScenarioConfig,
    points: Sequence[dict[str, Any]],
    *,
    extract: Optional[Callable[[ScenarioResult], Any]] = None,
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    cache: Optional["SweepCache"] = None,
) -> list[Any]:
    """Run one scenario per override point, fanned out across workers.

    Args:
        base: the scenario every point starts from.
        points: dotted-path override dicts (see
            :func:`repro.harness.sweep.apply_overrides`); an empty dict runs
            ``base`` unchanged.
        extract: module-level function reducing a :class:`ScenarioResult`
            to a picklable value.  Without one the full (unpicklable)
            results are needed, so the run degrades gracefully to serial.
        workers: process count; ``None`` means one per CPU, ``1`` forces
            the serial path.
        cache: a :class:`repro.harness.cache.SweepCache` consulted per
            point *before* anything is dispatched; misses are simulated
            and stored.  Defaults to the process-wide cache installed by
            ``repro experiment --cache`` (``None`` → no caching).  Only
            extracted values are cacheable: with ``extract=None`` the
            points are counted as skipped.

    Returns:
        One value per point, in point order, regardless of worker count
        or cache warmth (extraction is pure and runs are deterministic).
    """
    from repro.harness.cache import get_default_cache
    from repro.harness.sweep import apply_overrides

    # Stamp the process-wide --check-invariants override onto each config
    # *before* transport: spawn workers import a fresh module where the
    # override is at its default, so only the config carries it across.
    configs = [
        effective_config(apply_overrides(base, point) if point else base)
        for point in points
    ]
    if cache is None:
        cache = get_default_cache()
    if extract is None:
        if cache is not None:
            cache.stats.skipped += len(configs)
        return [run_scenario(config) for config in configs]
    if cache is None:
        return _run_configs(configs, extract, workers, timeout_s, retries)

    keys = [cache.key(config, extract) for config in configs]
    results: list[Any] = [None] * len(configs)
    pending: list[int] = []
    for index, key in enumerate(keys):
        hit, value = cache.get(key)
        if hit:
            results[index] = value
        else:
            pending.append(index)
    if pending:
        fresh = _run_configs(
            [configs[i] for i in pending], extract, workers, timeout_s, retries
        )
        # Stored parent-side: spawn workers never touch the cache files.
        for index, value in zip(pending, fresh):
            cache.put(keys[index], value)
            results[index] = value
    return results
