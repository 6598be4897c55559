"""The shared engine's per-node floor on the Figure 6(a) workload.

The iterative search loop (:meth:`repro.core.engine.MiningEngine._search`)
is the cost every task pays per DFS node before any task-specific work:
frame management, the extension scan, pruning, statistics, and — only
at emission — pattern/witness materialisation.  This benchmark breaks
that floor down by toggling each layer off.  Every rung runs on the
default kernel (``MinerConfig()``, the slab kernel on these aligned
market databases):

* ``default``       — the full closed mine: enumeration + pattern and
  witness materialisation + statistics;
* ``no witnesses``  — ``collect_witnesses=False``: emission still
  builds forms/transactions but skips the witness row gather;
* ``no emission``   — ``min_size`` above every clique: the pure
  enumeration floor, nothing materialised (lazy prefixes never become
  patterns);
* ``hooks passive`` — a dormant :class:`SearchHooks` attached (the
  budget-less session path: counters settled at subtree boundaries);
* ``hooks armed``   — a live ring sink, every pattern/prune delivered;
* ``bitset``        — the default mine on the int-mask kernel, for
  reference.

Rounds alternate the modes (each round runs every mode once, in a
seeded shuffled order), so a slow stretch of the machine hits every
mode alike.  The order is shuffled, not rotated: under rotation each
mode always follows the same mode, and a sweep right after the slow
bitset sweep read ~10% slower.  Each sweep starts from a full
collection and runs with automatic GC paused, so no mode pays for
another's garbage.  Differences between adjacent rungs give the
per-node overhead of each layer.  Each rung is recorded twice: from
every mode's best round (the headline figures), and as the median and
quartiles of its per-round differences, each taken within one round.
A rung whose quartile range spans zero is marked unresolved: it sits
inside the host's noise, as rungs under ~2 µs per node often do on a
shared host.  The headline number is enumerated nodes per second; the
record lands in ``BENCH_floor.json`` at the repo root, and the CI smoke
job gates on the nodes/sec bar at small scale.
"""

import gc
import json
import random
import statistics
import time
from pathlib import Path

from repro.bench import format_table, hardware_context
from repro.core import BITSET, ClanMiner, MinerConfig, RingBufferSink
from repro.core.session import SearchHooks
from repro.stockmarket import PAPER_THETAS

from conftest import write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
SUPPORTS = (1.00, 0.95, 0.90, 0.85)
ROUNDS = 9  # interleaved rounds: the best sheds scheduler noise, the rest give the spread

#: Conservative CI bar (nodes/second, default mode, small scale) —
#: roughly a third of what a developer laptop sustains, so it only
#: trips on genuine per-node regressions, not on slow runners.
MIN_NODES_PER_SECOND = 8_000


def sweep(market_databases, config, hooks_factory=None):
    """One fig6a sweep; returns (seconds, total DFS nodes, result keys)."""
    keys = []
    nodes = 0
    started = time.perf_counter()
    for theta in PAPER_THETAS:
        miner = ClanMiner(market_databases[theta], config)
        for min_sup in SUPPORTS:
            hooks = hooks_factory() if hooks_factory is not None else None
            result = miner.mine(min_sup, hooks=hooks)
            nodes += result.statistics.prefixes_visited
            keys.append(sorted(p.key() for p in result))
    return time.perf_counter() - started, nodes, keys


def interleaved(market_databases, modes):
    """Every mode's sweep seconds, round by round.

    ``modes`` maps a name to ``(config, hooks_factory)``; returns
    ``{name: (seconds per round, nodes, keys)}``.
    """
    runs = {}
    for round_index in range(ROUNDS):
        order = list(modes)
        random.Random(round_index).shuffle(order)
        for name in order:
            gc.collect()
            gc.disable()
            try:
                seconds, nodes, keys = sweep(market_databases, *modes[name])
            finally:
                gc.enable()
            runs.setdefault(name, ([], nodes, keys))[0].append(seconds)
    return runs


#: Each rung of the ladder: the mode it times, and the mode below it
#: (``None``: the rung is that mode's whole per-node cost).
RUNGS = {
    "enumeration": ("no_emission", None),
    "emission": ("no_witnesses", "no_emission"),
    "witnesses": ("default", "no_witnesses"),
    "statistics_hooks": ("passive", "default"),
    "armed_sink": ("armed", "default"),
}


def rung_spread(runs, mode, below, nodes):
    """Median and quartiles of a rung's per-round per-node cost (µs).

    Differences are taken within each round, where both modes shared a
    stretch of the machine.  ``resolved`` is False when the quartile
    range spans zero.
    """
    seconds = runs[mode][0]
    if below is not None:
        seconds = [a - b for a, b in zip(seconds, runs[below][0])]
    q1, median, q3 = statistics.quantiles(
        [per_node_us(value, nodes) for value in seconds], n=4, method="inclusive"
    )
    return {"median": median, "q1": q1, "q3": q3, "resolved": q1 > 0 or q3 < 0}


def per_node_us(seconds, nodes):
    return seconds / nodes * 1e6 if nodes else 0.0


def test_engine_floor(benchmark, market_databases, scale):
    benchmark.pedantic(
        lambda: sweep(market_databases, MinerConfig()), rounds=1, iterations=1
    )

    runs = interleaved(
        market_databases,
        {
            "default": (MinerConfig(), None),
            "no_witnesses": (MinerConfig(collect_witnesses=False), None),
            # min_size above any clique: nothing is ever emitted, so the
            # run is the bare enumeration floor (node counts are
            # unchanged — emission is downstream of counting).
            "no_emission": (MinerConfig(min_size=99), None),
            "passive": (MinerConfig(), SearchHooks),
            "armed": (
                MinerConfig(),
                lambda: SearchHooks(sinks=(RingBufferSink(capacity=None),)),
            ),
            "bitset": (MinerConfig(kernel=BITSET), None),
        },
    )
    best = {name: min(seconds) for name, (seconds, _, _) in runs.items()}
    _, nodes, default_keys = runs["default"]
    _, no_emit_nodes, no_emit_keys = runs["no_emission"]

    # The toggles must not change what is enumerated or found.
    assert no_emit_nodes == nodes
    assert all(not keys for keys in no_emit_keys)
    for name in ("no_witnesses", "passive", "armed", "bitset"):
        assert runs[name][2] == default_keys, name

    default_s = best["default"]
    nodes_per_second = nodes / default_s
    per_node = {
        rung: per_node_us(best[mode] - (best[below] if below else 0.0), nodes)
        for rung, (mode, below) in RUNGS.items()
    }
    spread = {
        rung: rung_spread(runs, mode, below, nodes) for rung, (mode, below) in RUNGS.items()
    }

    def row(layer, mode, rung):
        cost = spread[rung]
        sign = "" if rung == "enumeration" else "+"
        return [
            layer,
            f"{best[mode]:.3f}",
            f"{per_node[rung]:{sign}.2f} µs",
            f"{cost['median']:{sign}.2f} [{cost['q1']:.2f}, {cost['q3']:.2f}]",
            "yes" if cost["resolved"] else "unresolved",
        ]

    table = format_table(
        ["layer", "best s", "per node (best)", "median [quartiles] µs", "resolved"],
        [
            row("enumeration floor", "no_emission", "enumeration"),
            row("+ pattern emission", "no_witnesses", "emission"),
            row("+ witness rows", "default", "witnesses"),
            row("+ passive hooks", "passive", "statistics_hooks"),
            row("+ armed ring sink", "armed", "armed_sink"),
            ["default, bitset kernel", f"{best['bitset']:.3f}", "-", "-", "-"],
        ],
        title=(
            f"Engine floor: {nodes} nodes, {nodes_per_second:,.0f} nodes/s "
            f"default kernel, best of {ROUNDS} interleaved rounds (scale={scale})"
        ),
    )
    write_report("engine_floor", table)

    record = {
        "benchmark": "engine enumeration floor",
        "scale": scale,
        "rounds": ROUNDS,
        "method": "modes interleaved per round in a seeded shuffled order, a "
        "full collection before each sweep and GC paused inside it; per_node_us "
        "from each mode's best round, per_node_us_rounds the median and "
        "quartiles of each rung's within-round differences (unresolved when "
        "the quartile range spans zero)",
        "kernel": MinerConfig().kernel,
        "hardware": hardware_context(),
        "workload": "fig6a sweep: 6 market databases x supports 100/95/90/85%",
        "nodes": nodes,
        "nodes_per_second": nodes_per_second,
        "default_seconds": default_s,
        "no_witnesses_seconds": best["no_witnesses"],
        "no_emission_seconds": best["no_emission"],
        "hooks_passive_seconds": best["passive"],
        "hooks_armed_seconds": best["armed"],
        "bitset_seconds": best["bitset"],
        "per_node_us": per_node,
        "per_node_us_rounds": spread,
    }
    (REPO_ROOT / "BENCH_floor.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    # CI floor-regression bar (tiny runs are too short to time):
    if scale in ("small", "medium", "paper"):
        assert nodes_per_second > MIN_NODES_PER_SECOND, (
            f"{nodes_per_second:,.0f} nodes/s under the "
            f"{MIN_NODES_PER_SECOND:,} floor bar"
        )
