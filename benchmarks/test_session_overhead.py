"""Session-instrumentation overhead on the Figure 6(a) workload.

The MiningSession control plane threads a ``hooks`` object through
the engine's iterative search loop (``MiningEngine._search``); hooks
that can neither abort nor sample skip the per-node callback entirely
(the loop settles their counters at subtree boundaries), so a dormant
session pays almost nothing per prefix.  This benchmark quantifies the
whole ladder:

* ``plain``      — ``ClanMiner.mine`` exactly as before the control
  plane existed (``hooks=None`` fast path);
* ``hooks``      — the same mine with an armed :class:`SearchHooks`
  carrying no sinks, budget, or token (what a budgeted-but-quiet
  session costs inside the DFS);
* ``armed``      — hooks carrying a live ring sink, so every pattern
  and prune event is delivered.  Events are buffered and handed to
  the sink in batches (``SearchHooks.flush``), which is what keeps
  this mode cheap — per-event ``sink.emit`` calls used to cost ~50%
  on this workload;
* ``session``    — a full :class:`MiningSession` with an in-memory
  ring sink and sampled prefix events (the observable configuration).
  It mines each run of roots in one engine sweep, handing each root
  back at its boundary for the per-root heartbeats.

The modes alternate within each round, one mine at a time: every one
of the sweep's 24 (database, support) mines runs in all four modes back
to back, so the modes share the host's load of the moment.  The first
of the four runs colder than the rest, so the order is rotated by
database, support and round through a Williams square
(:data:`ORDERS`): over every four rounds each mine runs in each mode at
each position once, and each mode follows every other once.  Automatic garbage collection
is paused while a round runs and done between rounds: a collection
triggered inside one mode's mine would pay for the garbage the mode
before it left.  A mode's overhead is the median over rounds of its
per-round time ratio to ``plain``, and its reported seconds the median
of its per-round totals.  Timing each mode's rounds in one block
instead let a slow spell land on one side and record negative
overheads.

Acceptance bars: dormant hooks under 5% overhead, armed ring-sink
hooks under 15%, the full session under :data:`SESSION_BAR`.  The
measured numbers are written to ``BENCH_session.json`` at the repo
root as the perf-trajectory record.
"""

import gc
import json
import statistics
import time
from pathlib import Path

from repro.bench import format_table, hardware_context
from repro.core import ClanMiner, MinerConfig, MiningSession, RingBufferSink
from repro.core.session import SearchHooks
from repro.stockmarket import PAPER_THETAS

from conftest import write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
SUPPORTS = (1.00, 0.95, 0.90, 0.85)
ROUNDS = 8  # alternating rounds (a multiple of len(MODES)); medians of ratios
#: Session overhead bar (small scale and above); see the module docstring.
SESSION_BAR = 0.60


def mine_plain(miner, database, min_sup):
    return miner.mine(min_sup)


def mine_hooks(miner, database, min_sup):
    return miner.mine(min_sup, hooks=SearchHooks())


def mine_armed(miner, database, min_sup):
    return miner.mine(min_sup, hooks=SearchHooks(sinks=(RingBufferSink(capacity=None),)))


def mine_session(miner, database, min_sup):
    session = MiningSession(database, min_sup, sinks=(RingBufferSink(),), sample_every=64)
    return session.run()


MODES = (
    ("plain", mine_plain),
    ("hooks", mine_hooks),
    ("armed", mine_armed),
    ("session", mine_session),
)
#: A Williams square over the four modes: across the four orders each
#: mode runs once at each position and follows every other mode once.
ORDERS = ((0, 1, 3, 2), (1, 2, 0, 3), (2, 3, 1, 0), (3, 0, 2, 1))


def one_round(market_databases, round_index):
    """Per mode, the round's summed seconds and its sorted pattern keys."""
    seconds = {name: 0.0 for name, _ in MODES}
    keys = {name: [] for name, _ in MODES}
    gc.collect()
    gc.disable()
    try:
        for theta_index, theta in enumerate(PAPER_THETAS):
            database = market_databases[theta]
            # One engine per mode and database, reused across the
            # supports as a caller mining a sweep would.
            miners = {name: ClanMiner(database, MinerConfig()) for name, _ in MODES}
            for support_index, min_sup in enumerate(SUPPORTS):
                order = ORDERS[(round_index + theta_index + support_index) % len(ORDERS)]
                for name, mine in (MODES[index] for index in order):
                    started = time.perf_counter()
                    result = mine(miners[name], database, min_sup)
                    seconds[name] += time.perf_counter() - started
                    keys[name].append(sorted(p.key() for p in result))
    finally:
        gc.enable()
    return seconds, keys


def test_session_overhead(benchmark, market_databases, scale):
    benchmark.pedantic(lambda: one_round(market_databases, 0), rounds=1, iterations=1)

    samples = {name: [] for name, _ in MODES}
    for round_index in range(ROUNDS):
        seconds, keys = one_round(market_databases, round_index)
        # Instrumentation must be invisible in the results.
        for name, _ in MODES[1:]:
            assert keys[name] == keys["plain"], name
        for name, _ in MODES:
            samples[name].append(seconds[name])

    median_seconds = {name: statistics.median(samples[name]) for name, _ in MODES}
    round_ratios = {
        name: [mode / plain for mode, plain in zip(samples[name], samples["plain"])]
        for name, _ in MODES[1:]
    }
    overhead = {name: statistics.median(ratios) - 1.0 for name, ratios in round_ratios.items()}

    rows = [["plain", f"{median_seconds['plain']:.3f}", "-"]]
    for name, label in (
        ("hooks", "hooks, no sinks"),
        ("armed", "hooks + ring sink"),
        ("session", "session + ring sink"),
    ):
        rows.append([label, f"{median_seconds[name]:.3f}", f"{overhead[name]:+.1%}"])
    table = format_table(
        ["mode", "seconds", "overhead"],
        rows,
        title=(
            f"Session instrumentation overhead, median of {ROUNDS} alternating "
            f"rounds (scale={scale})"
        ),
    )
    write_report("session_overhead", table)

    record = {
        "benchmark": "session instrumentation overhead",
        "scale": scale,
        "rounds": ROUNDS,
        "method": (
            "each round runs every (database, support) mine in all four modes "
            "back to back, in a Williams-square order rotated per mine and "
            "round, with automatic GC paused inside the round; seconds are "
            "medians of per-round totals, overheads the median per-round "
            "ratio to plain minus one"
        ),
        "hardware": hardware_context(),
        "workload": "fig6a sweep: 6 market databases x supports 100/95/90/85%",
        "plain_seconds": median_seconds["plain"],
        "hooks_no_sinks_seconds": median_seconds["hooks"],
        "armed_ring_sink_seconds": median_seconds["armed"],
        "session_ring_sink_seconds": median_seconds["session"],
        "hooks_overhead_fraction": overhead["hooks"],
        "armed_overhead_fraction": overhead["armed"],
        "session_overhead_fraction": overhead["session"],
        "round_ratios": round_ratios,
        "bars": {"hooks": 0.05, "armed": 0.15, "session": SESSION_BAR},
    }
    (REPO_ROOT / "BENCH_session.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    # Acceptance bars (tiny runs are too short to time reliably):
    # dormant hooks cost < 5%, a live ring sink — every pattern and
    # prune event delivered, via batched emission — costs < 15%, and a
    # full session, which mines each run of roots in one sweep, stays
    # under SESSION_BAR (one engine call per root read 2x-3x here).
    if scale in ("small", "medium", "paper"):
        assert overhead["hooks"] < 0.05, f"hooks overhead {overhead['hooks']:.1%}"
        assert overhead["armed"] < 0.15, f"armed overhead {overhead['armed']:.1%}"
        assert overhead["session"] < SESSION_BAR, (
            f"session overhead {overhead['session']:.1%}"
        )
