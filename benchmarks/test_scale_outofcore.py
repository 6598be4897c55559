"""Out-of-core scale benchmark — SQLite store vs eager, per kernel.

Not a paper figure: CLAN's experiments fit in 2006-era RAM.  This
benchmark is the acceptance gate for the GraphSource seam.  It
replicates the market database SM-0.95 (the base of the paper's
Figure 7(b) scalability study, at ``scale="tiny"``) far past its
original 11 transactions, imports it into a SQLite transaction store,
and mines it two ways:

* **eager** — decode every transaction into an in-memory
  :class:`GraphDatabase` up front (what every pre-seam caller did),
  then run the serial engine;
* **out-of-core** — mine straight off the store with
  :func:`repro.core.sharding.mine_sharded` and a small decode cache.

It does so for two kernels, one record each:

* **bitset** (pinned) — ``mine_sharded`` runs its shard-sized passes.
  Gated: the out-of-core peak must sit at least ``MEMORY_BAR``× below
  the eager peak, and its wall clock at most ``WALL_BAR``× above.
* **slab** (the default) — the store is unique-label, so
  ``mine_sharded`` feeds its rows once into the slab index, building
  no graph, and mines serially.  Its target, ``DEFAULT_WALL_TARGET``×
  eager wall clock at ``MEMORY_BAR``× less memory, is recorded as
  reached or not, with the measured ratios; it does not gate.

Wall clock and memory come from separate runs.  The two ways are timed
``REPEATS`` times each without tracemalloc, alternating eager then
out-of-core, and the wall ratio is the median of the per-pair ratios:
a pair shares the host's load of the moment, so a slow spell moves
both of its samples rather than one side's median.  Each way's
reported seconds are the median of its samples.  Each way then runs
once more under tracemalloc for its peak.  Both ways must produce
byte-identical canonical envelopes.  Results land in
``BENCH_scale.json`` at the repo root as the perf-trajectory record.
"""

import gc
import json
import statistics
import time
import tracemalloc
from pathlib import Path

from repro.bench import format_table, hardware_context
from repro.core.api import MiningRequest, MiningResultEnvelope, execute_request
from repro.core.sharding import mine_sharded
from repro.graphdb import GraphDatabase, import_graphs
from repro.graphdb.storage import SqliteGraphSource
from repro.stockmarket.datasets import stock_market_database

from conftest import write_report

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Required headroom: out-of-core peak must be at least this many times
#: below the eager full-materialisation peak.
MEMORY_BAR = 3.0

#: Ceiling on out-of-core wall clock as a multiple of eager.
WALL_BAR = 5.0

#: Out-of-core wall-clock target on the default kernel, as a multiple
#: of eager (recorded, not gated).
DEFAULT_WALL_TARGET = 1.5

#: Timed (eager, out-of-core) pairs; medians are reported.
REPEATS = 3

#: 90% of the 11-transaction base is 10 of 11: below the every-
#: transaction level, so candidates and closure are not degenerate.
MIN_SUP = "90%"

#: Replication factor of SM-0.95 (tiny: 11 transactions), shard size,
#: and decode-cache geometry (batch_size, max_batches) per scale.
SCALE_PARAMS = {
    "tiny": (96, 64, 16, 2),
    "small": (192, 64, 16, 2),
    "medium": (384, 128, 32, 2),
    "paper": (768, 128, 32, 2),
}


def _timed_pairs(*runs):
    """Per run, ``(every sample, last result)`` over ``REPEATS`` rounds.

    Each round times every run once, in order, so the i-th samples of
    the runs are a pair taken under the same host load.
    """
    samples = [[] for _ in runs]
    results = [None] * len(runs)
    for _ in range(REPEATS):
        for i, run in enumerate(runs):
            gc.collect()
            t0 = time.perf_counter()
            results[i] = run()
            samples[i].append(time.perf_counter() - t0)
    return list(zip(samples, results))


def _peak_bytes(run) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _measure(store_path, request, batch_size, max_batches, shard_size):
    """Eager vs out-of-core on one request: timings, peaks, envelopes."""

    def eager():
        source = SqliteGraphSource(store_path)
        try:
            return execute_request(GraphDatabase(list(source), name="eager"), request)
        finally:
            source.close()

    def out_of_core():
        source = SqliteGraphSource(
            store_path, batch_size=batch_size, max_batches=max_batches
        )
        try:
            return mine_sharded(
                GraphDatabase(source=source), request, shard_size=shard_size
            )
        finally:
            source.close()

    (eager_samples, eager_result), (ooc_samples, ooc_result) = _timed_pairs(
        eager, out_of_core
    )
    pair_ratios = [ooc / eager for eager, ooc in zip(eager_samples, ooc_samples)]
    eager_envelope = MiningResultEnvelope.from_result(request, eager_result).canonical_json()
    ooc_envelope = MiningResultEnvelope.from_result(request, ooc_result).canonical_json()
    assert ooc_envelope == eager_envelope
    patterns = len(ooc_result)
    del eager_result, ooc_result
    eager_peak = _peak_bytes(eager)
    ooc_peak = _peak_bytes(out_of_core)
    return {
        "kernel": request.resolved_config().kernel,
        "eager_peak_bytes": eager_peak,
        "outofcore_peak_bytes": ooc_peak,
        "memory_ratio": eager_peak / ooc_peak,
        "eager_seconds": statistics.median(eager_samples),
        "outofcore_seconds": statistics.median(ooc_samples),
        "eager_samples": eager_samples,
        "outofcore_samples": ooc_samples,
        "pair_ratios": pair_ratios,
        "wall_ratio": statistics.median(pair_ratios),
        "identical_envelopes": True,
        "patterns": patterns,
    }


def test_outofcore_scale(scale, tmp_path):
    factor, shard_size, batch_size, max_batches = SCALE_PARAMS[scale]
    base = stock_market_database(0.95, scale="tiny")
    replicated = base.replicate(factor)
    n_transactions = len(replicated)
    store_path = tmp_path / "sm095_replicated.sqlite"
    import_graphs(store_path, iter(replicated), name=f"SM-0.95-x{factor}").close()
    store_bytes = store_path.stat().st_size
    del replicated
    assert n_transactions >= 1000

    # Witnesses off: the memory under test is the transaction store,
    # not the per-pattern witness lists both runs would share.
    bitset = _measure(
        store_path,
        MiningRequest(
            min_sup=MIN_SUP, task="closed", kernel="bitset", collect_witnesses=False
        ),
        batch_size,
        max_batches,
        shard_size,
    )
    bitset.update(
        path="shard passes",
        memory_bar=MEMORY_BAR,
        wall_bar=WALL_BAR,
        gated=True,
    )
    default = _measure(
        store_path,
        MiningRequest(min_sup=MIN_SUP, task="closed", collect_witnesses=False),
        batch_size,
        max_batches,
        shard_size,
    )
    default.update(
        path="streamed slab build, serial mine",
        memory_bar=MEMORY_BAR,
        wall_target=DEFAULT_WALL_TARGET,
        gated=False,
        target_reached=(
            default["memory_ratio"] >= MEMORY_BAR
            and default["wall_ratio"] <= DEFAULT_WALL_TARGET
        ),
    )

    record = {
        "benchmark": "out-of-core scale (SQLite store + mine_sharded vs eager)",
        "workload": f"SM-0.95 (tiny) replicated x{factor}, closed @ {MIN_SUP}",
        "scale": scale,
        "hardware": hardware_context(),
        "replication_factor": factor,
        "transactions": n_transactions,
        "store_bytes": store_bytes,
        "shard_size": shard_size,
        "decode_cache": {"batch_size": batch_size, "max_batches": max_batches},
        "timing": (
            f"{REPEATS} alternating (eager, out-of-core) pairs without "
            "tracemalloc; seconds are per-way medians, wall_ratio the "
            "median per-pair ratio"
        ),
        "records": [bitset, default],
    }
    (REPO_ROOT / "BENCH_scale.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    table = format_table(
        ("kernel", "run", "peak MiB", "seconds", "ratios"),
        [
            row
            for entry in (bitset, default)
            for row in (
                (
                    entry["kernel"],
                    "eager",
                    f"{entry['eager_peak_bytes'] / 2**20:.2f}",
                    f"{entry['eager_seconds']:.2f}",
                    "",
                ),
                (
                    entry["kernel"],
                    "out-of-core",
                    f"{entry['outofcore_peak_bytes'] / 2**20:.2f}",
                    f"{entry['outofcore_seconds']:.2f}",
                    f"memory {entry['memory_ratio']:.2f}x, "
                    f"wall {entry['wall_ratio']:.2f}x",
                ),
            )
        ],
        title=(
            f"SM-0.95 x{factor} ({n_transactions} transactions, "
            f"{store_bytes / 2**20:.2f} MiB store); default-kernel target "
            f"{'reached' if default['target_reached'] else 'not reached'}"
        ),
    )
    write_report("scale_outofcore", table)
    assert bitset["memory_ratio"] >= MEMORY_BAR, (
        f"bitset out-of-core peak {bitset['outofcore_peak_bytes']} is only "
        f"{bitset['memory_ratio']:.2f}x below eager peak "
        f"{bitset['eager_peak_bytes']}; the bar is {MEMORY_BAR}x"
    )
    assert bitset["wall_ratio"] <= WALL_BAR, (
        f"bitset out-of-core took {bitset['outofcore_seconds']:.2f} s against "
        f"eager's {bitset['eager_seconds']:.2f} s, a median per-pair ratio of "
        f"{bitset['wall_ratio']:.2f}x; the bar is {WALL_BAR}x"
    )
