"""Out-of-core scale benchmark — SQLite store + sharded mining vs eager.

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
  :func:`repro.core.sharding.mine_sharded`, a small decode cache, and
  shard-sized passes.

Wall clock and memory come from separate runs: each way is timed
``REPEATS`` times without tracemalloc (the median is reported), then
run once more under tracemalloc for its peak.  Both ways must produce
byte-identical canonical envelopes, the out-of-core peak must sit at
least ``MEMORY_BAR``× below the eager peak, and the out-of-core wall
clock at most ``WALL_BAR``× above eager.  Results land in
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

#: Timed runs per way; the median is reported.
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


def _timed(run):
    """``(median seconds, every sample, last result)`` over ``REPEATS`` runs."""
    samples = []
    for _ in range(REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        result = run()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples, result


def _peak_bytes(run) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_outofcore_scale(scale, tmp_path):
    factor, shard_size, batch_size, max_batches = SCALE_PARAMS[scale]
    base = stock_market_database(0.95, scale="tiny")
    replicated = base.replicate(factor)
    n_transactions = len(replicated)
    store_path = tmp_path / "sm095_replicated.sqlite"
    import_graphs(store_path, iter(replicated), name=f"SM-0.95-x{factor}").close()
    store_bytes = store_path.stat().st_size
    del replicated

    # Witnesses off: the memory under test is the transaction store,
    # not the per-pattern witness lists both runs would share.
    request = MiningRequest(
        min_sup=MIN_SUP, task="closed", kernel="bitset", collect_witnesses=False
    )

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

    eager_seconds, eager_samples, eager_result = _timed(eager)
    ooc_seconds, ooc_samples, ooc_result = _timed(out_of_core)
    eager_envelope = MiningResultEnvelope.from_result(request, eager_result).canonical_json()
    ooc_envelope = MiningResultEnvelope.from_result(request, ooc_result).canonical_json()
    patterns = len(ooc_result)
    del eager_result, ooc_result
    eager_peak = _peak_bytes(eager)
    ooc_peak = _peak_bytes(out_of_core)

    assert n_transactions >= 1000
    assert ooc_envelope == eager_envelope
    memory_ratio = eager_peak / ooc_peak
    wall_ratio = ooc_seconds / eager_seconds

    record = {
        "benchmark": "out-of-core scale (SQLite store + sharded mining vs eager)",
        "workload": f"SM-0.95 (tiny) replicated x{factor}, closed @ {MIN_SUP}",
        "scale": scale,
        "hardware": hardware_context(),
        "replication_factor": factor,
        "transactions": n_transactions,
        "store_bytes": store_bytes,
        "shard_size": shard_size,
        "decode_cache": {"batch_size": batch_size, "max_batches": max_batches},
        "memory_bar": MEMORY_BAR,
        "wall_bar": WALL_BAR,
        "eager_peak_bytes": eager_peak,
        "outofcore_peak_bytes": ooc_peak,
        "memory_ratio": memory_ratio,
        "timing": f"median of {REPEATS} runs without tracemalloc",
        "eager_seconds": eager_seconds,
        "outofcore_seconds": ooc_seconds,
        "eager_samples": eager_samples,
        "outofcore_samples": ooc_samples,
        "wall_ratio": wall_ratio,
        "identical_envelopes": True,
        "patterns": patterns,
    }
    (REPO_ROOT / "BENCH_scale.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    table = format_table(
        ("run", "peak MiB", "seconds"),
        [
            ("eager", f"{eager_peak / 2**20:.2f}", f"{eager_seconds:.2f}"),
            ("out-of-core", f"{ooc_peak / 2**20:.2f}", f"{ooc_seconds:.2f}"),
        ],
        title=(
            f"SM-0.95 x{factor} ({n_transactions} transactions, "
            f"{store_bytes / 2**20:.2f} MiB store): memory ratio "
            f"{memory_ratio:.2f}x, wall ratio {wall_ratio:.2f}x"
        ),
    )
    write_report("scale_outofcore", table)
    assert memory_ratio >= MEMORY_BAR, (
        f"out-of-core peak {ooc_peak} is only {memory_ratio:.2f}x below eager "
        f"peak {eager_peak}; the bar is {MEMORY_BAR}x"
    )
    assert wall_ratio <= WALL_BAR, (
        f"out-of-core took {ooc_seconds:.2f} s, {wall_ratio:.2f}x eager's "
        f"{eager_seconds:.2f} s; the bar is {WALL_BAR}x"
    )
