"""Engine tasks — maximal / top-k through the full kernel+executor stack.

Before the engine refactor, ``maximal`` and ``topk`` were standalone
serial miners: no kernel choice, no worker pool, no cache.  Now they
are task strategies over the one enumeration engine, so the whole
acceleration stack composes.  This benchmark measures that composition
on a Figure 6(a)-style market workload against a serial baseline on
the ``bitset`` int-mask kernel:

* the engine's kernel tier — the default kernel (``slab``, which runs
  quasi on the int masks), serial (real wall-clock),
* the engine's pool tier — ``processes=4`` makespan *modeled* from
  measured per-root subtree times, exactly as in
  ``test_parallel_scaling.py`` (the recorded hardware has 2 usable
  CPUs, fewer than the 4 modeled workers, so a real pool cannot show
  4-way scaling; a real ``processes=4`` run, which the executor's pool
  gate may keep inline, still executes for the byte-identity check),
* the cache's exact-replay tier — a warmed re-run of the same sweep.

Each task's headline ``speedup`` is the *measured* ratio for the
engine shape the refactor unlocked for it: ``maximal`` rides the
default slab kernel (``MiningRequest(task="maximal")``), ``topk`` rides the
cache (``MiningRequest(task="topk")`` with ``cache=...``).  Results
must be byte-identical on every path; the timings are written to
``BENCH_engine.json`` at the repo root as the perf-trajectory record.

``quasi`` (ported onto the engine last) gets one extra baseline: the
*pre-port bounded-enumeration path* — per-transaction γ-quasi-clique
enumeration with a global closed filter, which is exactly what
``bruteforce_quasi_cliques`` still implements.  Its headline is the
warm-cache run against that old path, and the record also carries the
serial-engine-vs-bounded-enumeration ratio.
"""

import heapq
import json
import time
from pathlib import Path

from repro.baselines.bruteforce import bruteforce_quasi_cliques
from repro.bench import format_table, hardware_context
from repro.core import MinerConfig, MiningCache, MiningRequest, mine
from repro.core.engine import engine_for_task

from conftest import write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
THETAS = (0.95, 0.90)
SUPPORTS = (1.00, 0.95, 0.90, 0.85)
PROCESSES = 4
ROUNDS = 2  # best-of, to shed scheduler noise

#: task -> (mine() extras, the engine shape whose measured speedup is
#: the task's headline number)
TASKS = (
    ("maximal", {}, "default (slab) kernel, serial"),
    ("topk", {"k": 10}, "default kernel + warm exact-replay cache"),
    (
        "quasi",
        {"gamma": 0.8, "max_size": 4},
        "default kernel + warm cache, vs pre-port bounded enumeration",
    ),
)


def fig6a_task_sweep(market_databases, task, extra, cache=None, **options):
    keys = []
    started = time.perf_counter()
    for theta in THETAS:
        database = market_databases[theta]
        for min_sup in SUPPORTS:
            request = MiningRequest.from_options(min_sup, task=task, **extra, **options)
            result = mine(database, request, cache=cache)
            keys.append(sorted(p.key() for p in result))
    return time.perf_counter() - started, keys


def fig6a_quasi_baseline(market_databases, extra):
    """The pre-port quasi path over the same sweep: per-transaction
    bounded enumeration plus the global relaxed closed filter.  Run
    once (no best-of) — exhaustive enumeration is deterministic and
    already the slowest shape measured here."""
    keys = []
    started = time.perf_counter()
    for theta in THETAS:
        database = market_databases[theta]
        for min_sup in SUPPORTS:
            result = bruteforce_quasi_cliques(
                database,
                min_sup,
                gamma=extra["gamma"],
                min_size=2,
                max_size=extra["max_size"],
            )
            keys.append(sorted(p.key() for p in result))
    return time.perf_counter() - started, keys


def best_of(measure, *args, **options):
    best_seconds, keys = measure(*args, **options)
    for _ in range(ROUNDS - 1):
        seconds, _ = measure(*args, **options)
        best_seconds = min(best_seconds, seconds)
    return best_seconds, keys


def modeled_pool(database, task, extra, min_sup, processes):
    """Greedy list-scheduling makespan from measured per-root times.

    Every root subtree is timed serially (default kernel), then packed
    heaviest-first onto ``processes`` workers — the same model
    ``test_parallel_scaling.py`` uses, because a machine with fewer
    usable CPUs than ``processes`` cannot show real pool scaling.
    """
    if "max_size" in extra:  # quasi needs its finite size ceiling
        config = MinerConfig(min_size=2, max_size=extra["max_size"])
    else:
        config = MinerConfig()
    engine = engine_for_task(
        database, config, task, k=extra.get("k"), gamma=extra.get("gamma")
    ).prepare()
    abs_sup = database.absolute_support(min_sup)
    roots = database.frequent_labels(abs_sup)
    times = []
    for root in roots:
        started = time.perf_counter()
        engine.mine(min_sup, root_labels=(root,))
        times.append(time.perf_counter() - started)
    workers = [0.0] * processes
    heapq.heapify(workers)
    for seconds in sorted(times, reverse=True):
        heapq.heappush(workers, heapq.heappop(workers) + seconds)
    makespan = max(workers)
    serial = sum(times)
    return {
        "roots": len(roots),
        "serial_seconds": serial,
        "makespan_seconds": makespan,
        "modeled_speedup": serial / makespan if makespan else 1.0,
    }


def test_engine_tasks(benchmark, market_databases, scale):
    benchmark.pedantic(
        lambda: fig6a_task_sweep(market_databases, "maximal", {}),
        rounds=1,
        iterations=1,
    )

    record = {
        "benchmark": "engine tasks (maximal/topk/quasi through kernel+executor+cache)",
        "scale": scale,
        "rounds": ROUNDS,
        "hardware": hardware_context(),
        # Per-task "modeled_speedup" fields are list-scheduling
        # simulations over serially measured root times (what a machine
        # with that many free cores could reach); every *_seconds field
        # is real wall clock on the recorded hardware.
        "speedup_semantics": {
            "modeled_speedup": "greedy list-scheduling simulation over measured root times",
            "kernel_speedup / cache_speedup": "real wall clock on the recorded hardware",
        },
        "workload": (
            f"market thetas {THETAS} x supports {SUPPORTS}; "
            f"baseline = bitset kernel serial; "
            f"quasi additionally scored vs the pre-port bounded-"
            f"enumeration path (bruteforce_quasi_cliques); "
            f"pool makespan modeled at {PROCESSES} processes "
            f"from serial root times, real pool run checks identity"
        ),
        "tasks": {},
    }
    rows = []
    heavy_theta, heavy_sup = THETAS[0], min(SUPPORTS)
    for task, extra, shape in TASKS:
        base_seconds, base_keys = best_of(
            fig6a_task_sweep, market_databases, task, extra, kernel="bitset"
        )
        kernel_seconds, kernel_keys = best_of(
            fig6a_task_sweep, market_databases, task, extra
        )
        # The stack must be invisible in the output.
        assert kernel_keys == base_keys, task

        # Real processes=4 run (the pool gate decides whether workers
        # start): identity is checkable on any box even though
        # wall-clock scaling is not.
        pool_started = time.perf_counter()
        _, pool_keys = fig6a_task_sweep(
            market_databases, task, extra, processes=PROCESSES
        )
        pool_seconds = time.perf_counter() - pool_started
        assert pool_keys == base_keys, task

        pool_model = modeled_pool(
            market_databases[heavy_theta],
            task,
            extra,
            heavy_sup,
            PROCESSES,
        )

        # The cache's exact-replay tier: a warmed re-run of the same
        # sweep replays every root.
        cache = MiningCache()
        fig6a_task_sweep(market_databases, task, extra, cache=cache)
        warm_seconds, warm_keys = fig6a_task_sweep(
            market_databases, task, extra, cache=cache
        )
        assert warm_keys == base_keys, task

        kernel_speedup = base_seconds / kernel_seconds
        cache_speedup = base_seconds / warm_seconds
        record["tasks"][task] = {
            "engine_shape": shape,
            "baseline_bitset_serial_seconds": base_seconds,
            "kernel_default_serial_seconds": kernel_seconds,
            "kernel_speedup": kernel_speedup,
            "pool_real_x4_seconds": pool_seconds,
            "pool_modeled_x4": pool_model,
            "cache_warm_seconds": warm_seconds,
            "cache_speedup": cache_speedup,
        }
        if task == "quasi":
            # The differential baseline: the algorithm quasi ran on
            # before the engine port.  Its output must match the engine
            # byte-for-key, and both engine-unlocked shapes are scored
            # against it.
            bounded_seconds, bounded_keys = fig6a_quasi_baseline(
                market_databases, extra
            )
            assert bounded_keys == base_keys, task
            record["tasks"][task].update(
                bounded_enum_serial_seconds=bounded_seconds,
                kernel_speedup_vs_bounded=bounded_seconds / kernel_seconds,
                cache_speedup_vs_bounded=bounded_seconds / warm_seconds,
            )
            speedup = bounded_seconds / warm_seconds
        elif task == "maximal":
            speedup = kernel_speedup
        else:
            speedup = cache_speedup
        record["tasks"][task]["speedup"] = speedup
        rows.append(
            [
                task,
                f"{base_seconds:.3f}",
                f"{kernel_seconds:.3f}",
                f"{kernel_speedup:.2f}x",
                f"{pool_model['modeled_speedup']:.2f}x",
                f"{warm_seconds:.3f}",
                f"{cache_speedup:.2f}x",
            ]
        )

    table = format_table(
        [
            "task",
            "bitset serial (s)",
            "default serial (s)",
            "kernel",
            f"pool x{PROCESSES} (modeled)",
            "warm cache (s)",
            "cache",
        ],
        rows,
        title=f"Engine tasks, best of {ROUNDS} (scale={scale})",
    )
    write_report("engine_tasks", table)

    (REPO_ROOT / "BENCH_engine.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    # Acceptance bar: each task's engine shape is at least 1.5x the
    # bitset serial baseline (enforced from the small scale up; the
    # json carries the true ratios).
    if scale in ("small", "medium", "paper"):
        for task, numbers in record["tasks"].items():
            assert numbers["speedup"] >= 1.5, (task, numbers)
