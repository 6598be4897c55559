"""Ablation — bitset vs slab kernels on the paper workloads.

Both kernels run the identical CLAN algorithm (the differential suite
enforces byte-identical results and statistics against the hashed-set
reference in ``tests/oracles.py``); the only difference is the
candidate-set representation, so the runtime gap is a pure measure of
the kernel engineering:

* ``bitset`` — per-graph int masks: one Python int bitmask per
  candidate set, over each transaction's own vertex bits;
* ``slab``   — numpy word slabs, batched level-by-level across the
  whole DFS forest (vectorised AND + popcount over every sibling at
  once).  The default kernel.

Measured on the Figure 6(a) sweep (six market databases × four
thresholds) and two Figure 7(b) style replicated cells; the numbers
are written to ``BENCH_kernels.json`` at the repo root as the
perf-trajectory baseline for future PRs.  Each round runs every cell
on both kernels, alternating which kernel goes first, and each cell
keeps its best round.  A record is one draw of that best: the record
says so beside its seconds, since on a shared host one tree's fig6a
cell varies by tens of percent from run to run.

Interpreting the workloads: fig6a@small has only 11 transactions
per database, so per-node mask arithmetic is already cheap and the
run is dominated by the shared engine/emission floor — slab's win
there is modest.  fig7b_x4 multiplies the transaction axis 4x, which
is exactly the axis slab vectorises over, and the gap widens.  Its 44
transactions still fit one slab word, so the report-only fig7b_x64
cell (704 transactions, 11 ``uint64`` words per slab row at small
scale) is the one that measures the multi-word layout.  Slab's
advantage scales with transaction count, not alphabet size.

Memory sits next to speed, report-only: each cell's tracemalloc peak
over one run on a fresh database view, so the slab kernel's database
index (the transposed slab) is built inside the measured run.  The
graphs' own mask indexes, all that ``bitset`` reads, are shared by
every view and kernel and stay out.
"""

import json
import time
import tracemalloc
from pathlib import Path

from repro.bench import format_table, hardware_context
from repro.core import BITSET, SLAB, ClanMiner, MinerConfig
from repro.graphdb import GraphDatabase
from repro.stockmarket import PAPER_THETAS

from conftest import write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
SUPPORTS = (1.00, 0.95, 0.90, 0.85)
ROUNDS = 3  # best-of, to shed scheduler noise
KERNELS = (BITSET, SLAB)


def fig6a_sweep(market_databases, kernel):
    config = MinerConfig(kernel=kernel)
    keys = []
    started = time.perf_counter()
    for theta in PAPER_THETAS:
        miner = ClanMiner(market_databases[theta], config)
        for min_sup in SUPPORTS:
            keys.append(sorted(p.key() for p in miner.mine(min_sup)))
    return time.perf_counter() - started, keys


def fig7b_cell(replica, kernel):
    # The replica is built once by the caller so best-of rounds measure
    # steady-state mining, not one-time index construction (the fig6a
    # databases come from a session fixture and amortise the same way).
    config = MinerConfig(kernel=kernel)
    started = time.perf_counter()
    result = ClanMiner(replica, config).mine(0.85)
    return time.perf_counter() - started, sorted(p.key() for p in result)


def best_of_interleaved(cells):
    """Best seconds and result keys per kernel and cell.

    Every round runs every cell on both kernels, and the kernel that
    goes first alternates between rounds, so neither kernel always
    measures on the warmer (or noisier) side of a round.
    """
    timings = {kernel: {} for kernel in KERNELS}
    keys = {kernel: {} for kernel in KERNELS}
    for round_no in range(ROUNDS):
        order = KERNELS if round_no % 2 == 0 else KERNELS[::-1]
        for kernel in order:
            for cell, (measure, arg) in cells.items():
                seconds, cell_keys = measure(arg, kernel)
                best = timings[kernel].get(cell)
                timings[kernel][cell] = seconds if best is None else min(best, seconds)
                keys[kernel][cell] = cell_keys
    return timings, keys


def fresh(database):
    """A new database view over the same graphs: no kernel index yet."""
    return GraphDatabase(list(database), name=database.name)


def traced_peak_mib(measure, *args):
    """tracemalloc peak of one run, in MiB."""
    tracemalloc.start()
    try:
        measure(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_ablation_kernels(benchmark, market_databases, scale):
    benchmark.pedantic(
        lambda: fig6a_sweep(market_databases, BITSET), rounds=1, iterations=1
    )

    replicas = {
        "fig7b_x4": market_databases[0.95].replicate(4),
        "fig7b_x64": market_databases[0.95].replicate(64),
    }
    cells = {"fig6a_sweep": (fig6a_sweep, market_databases)}
    cells.update((cell, (fig7b_cell, replica)) for cell, replica in replicas.items())
    timings, keys = best_of_interleaved(cells)
    # The kernels must be indistinguishable on results.
    assert keys[SLAB] == keys[BITSET]

    peaks = {
        kernel: {
            "fig6a_sweep": traced_peak_mib(
                fig6a_sweep,
                {theta: fresh(db) for theta, db in market_databases.items()},
                kernel,
            ),
            **{
                cell: traced_peak_mib(fig7b_cell, fresh(replica), kernel)
                for cell, replica in replicas.items()
            },
        }
        for kernel in KERNELS
    }

    rows = []
    for workload in cells:
        bit_s = timings[BITSET][workload]
        slab_s = timings[SLAB][workload]
        rows.append([workload, f"{bit_s:.3f}", f"{slab_s:.3f}", f"{bit_s / slab_s:.2f}x"])
    table = format_table(
        ["workload", "bitset (s)", "slab (s)", "slab/bitset"],
        rows,
        title=f"Kernel ablation, best of {ROUNDS} interleaved rounds (scale={scale})",
    )
    memory = format_table(
        ["workload", "bitset (MiB)", "slab (MiB)"],
        [
            [workload] + [f"{peaks[kernel][workload]:.1f}" for kernel in KERNELS]
            for workload in cells
        ],
        title="tracemalloc peak of one cold run, index build included",
    )
    write_report("kernels", table + "\n\n" + memory)

    record = {
        "benchmark": "kernel ablation (bitset vs slab)",
        "scale": scale,
        "rounds": ROUNDS,
        "hardware": hardware_context(),
        "method": "best of rounds; every round runs every cell on both "
        "kernels, the first kernel alternating between rounds",
        "kernels": {
            BITSET: "per-graph int masks",
            SLAB: "transposed numpy word slabs, forest-batched",
        },
        "workloads": {
            "fig6a_sweep": "6 market databases x supports 100/95/90/85%",
            "fig7b_x4": "SM-0.95 replicated x4 @ 85% "
            f"({len(replicas['fig7b_x4'])} transactions)",
            "fig7b_x64": "SM-0.95 replicated x64 @ 85% "
            f"({len(replicas['fig7b_x64'])} transactions; report-only)",
        },
        "bitset_seconds": timings[BITSET],
        "slab_seconds": timings[SLAB],
        "seconds_note": "one draw per record: each cell is the best of "
        f"{ROUNDS} rounds in one process.  On a shared 2-CPU host repeated "
        "runs of one tree read the slab fig6a cell anywhere from 0.27 to "
        "0.42 s, so two records can differ by 40% with no code change; "
        "compare trees with an interleaved A/B run, not two records",
        "slab_speedup_vs_bitset": {
            workload: timings[BITSET][workload] / timings[SLAB][workload]
            for workload in timings[BITSET]
        },
        "peak_mib_note": "report-only: tracemalloc peak of one run on a fresh "
        "database view (kernel index build included)",
        "peak_mib": peaks,
    }
    (REPO_ROOT / "BENCH_kernels.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    # Acceptance bars (generous slack for CI noise — the recorded json
    # carries the true ratios): slab beats bitset on both workloads.
    # fig6a@small is floor-bound (see module docstring) so the bar
    # there is 1.3x; the transaction-heavy fig7b cell is where slab's
    # batching pays (measured ~5x) and gets a 1.5x bar.  fig7b_x64,
    # the multi-word cell, is report-only.
    if scale in ("small", "medium", "paper"):
        assert record["slab_speedup_vs_bitset"]["fig6a_sweep"] >= 1.3
        assert record["slab_speedup_vs_bitset"]["fig7b_x4"] >= 1.5
