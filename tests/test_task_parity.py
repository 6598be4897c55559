"""Cross-task parity: every engine task, every execution path.

The engine refactor's contract is that ``maximal``, ``topk``, and
``quasi`` are ordinary engine tasks — the same
kernel/executor/session/cache stack that serves ``closed`` serves
them, and every path composes the same per-root subtrees, so the
outputs are *byte-identical* across:

* the serial engine (``repro.mine``, ``processes=1``),
* the work-stealing process pool (``processes>1, scheduler=stealing``),
* the static pool (``scheduler=static``),
* a warm :class:`MiningCache` (exact-replay tier),
* a :class:`MiningSession` (event-streaming control plane),

and equal (order-normalised) to the exhaustive brute-force oracle.
Extends the differential machinery of ``test_kernel_differential.py``
from kernels to tasks.
"""

from __future__ import annotations

import pytest

from repro.baselines.bruteforce import (
    bruteforce_closed_cliques,
    bruteforce_quasi_cliques,
)
from repro.core import (
    MinerConfig,
    MiningBudget,
    MiningCache,
    MiningSession,
    RingBufferSink,
    mine,
)
from repro.core.api import MiningRequest
from repro.core.engine import finalize_patterns
from repro.core.maximal import maximal_subset
from repro.exceptions import MiningError

from tests.conftest import make_random_database


def rq(min_sup, **options):
    """The request the legacy kwargs path would have built."""
    return MiningRequest.from_options(min_sup, **options)

#: Seeded databases spanning sparse to dense, few to many labels.
CASES = [
    (seed, 3 + seed % 3, 6 + seed % 4, 0.35 + 0.08 * (seed % 6), 3 + seed % 4)
    for seed in range(8)
]

TASKS = (
    ("maximal", {}),
    ("topk", {"k": 4}),
    ("quasi", {"gamma": 0.8, "max_size": 4}),
)


def session_options(task, extra):
    """Translate ``repro.mine`` extras into MiningSession keywords.

    The façade folds ``max_size`` into the config itself (and maps the
    default ``min_size=1`` to 2 for quasi); sessions take the config
    directly.
    """
    if task != "quasi":
        return dict(extra)
    return {
        "gamma": extra["gamma"],
        "config": MinerConfig(min_size=2, max_size=extra["max_size"]),
    }


def full_signature(result):
    """Everything observable, *in result order* (order is part of the
    byte-identity contract)."""
    return [
        (
            pattern.form.labels,
            pattern.support,
            tuple(sorted(pattern.transactions)),
            tuple(sorted(pattern.witnesses.items())),
        )
        for pattern in result
    ]


def comparable_snapshot(result):
    """The full deterministic statistics snapshot.

    Every path charges the launcher's work — the label-support scan
    and the infrequent root labels — exactly as the serial engine
    does, so the whole snapshot must be byte-equal across paths.
    """
    return dict(result.statistics.snapshot())


def oracle_signature(result):
    """Brute-force patterns carry no witnesses — compare the rest,
    order-normalised."""
    return sorted(
        (pattern.form.labels, pattern.support, tuple(sorted(pattern.transactions)))
        for pattern in result
    )


def database_for(case):
    seed, n_graphs, n_vertices, p, n_labels = case
    return make_random_database(
        seed,
        n_graphs=n_graphs,
        n_vertices=n_vertices,
        edge_probability=p,
        n_labels=n_labels,
    )


class TestPathParity:
    """Serial == stealing pool == static pool == warm cache == session."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("task,extra", TASKS, ids=("maximal", "topk", "quasi"))
    def test_all_paths_byte_identical(self, case, task, extra):
        database = database_for(case)
        min_sup = 2 if case[0] % 2 else 1

        serial = mine(database, rq(min_sup, task=task, **extra))
        reference = full_signature(serial)
        ref_snapshot = comparable_snapshot(serial)

        stealing = mine(
            database,
            rq(min_sup, task=task, processes=2, scheduler="stealing", **extra),
        )
        assert full_signature(stealing) == reference
        assert comparable_snapshot(stealing) == ref_snapshot

        static = mine(
            database,
            rq(min_sup, task=task, processes=2, scheduler="static", **extra),
        )
        assert full_signature(static) == reference
        assert comparable_snapshot(static) == ref_snapshot

        cache = MiningCache()
        cold = mine(database, rq(min_sup, task=task, **extra), cache=cache)
        warm = mine(database, rq(min_sup, task=task, **extra), cache=cache)
        assert full_signature(cold) == reference
        assert full_signature(warm) == reference
        assert comparable_snapshot(warm) == ref_snapshot
        assert warm.statistics.roots_from_cache > 0

        ring = RingBufferSink(capacity=None)
        session = MiningSession(
            database, min_sup, task=task, sinks=(ring,), **session_options(task, extra)
        )
        via_session = session.run()
        assert full_signature(via_session) == reference
        assert comparable_snapshot(via_session) == ref_snapshot
        kinds = [event.kind for event in ring.events]
        assert kinds[0] == "search_started" and kinds[-1] == "search_finished"


class TestOracle:
    """Engine outputs equal exhaustive enumeration at small scale."""

    @pytest.mark.parametrize("case", CASES)
    def test_maximal_equals_bruteforce(self, case):
        database = database_for(case)
        min_sup = 2 if case[0] % 2 else 1
        mined = mine(database, rq(min_sup, task="maximal"))
        oracle = maximal_subset(bruteforce_closed_cliques(database, min_sup))
        assert oracle_signature(mined) == oracle_signature(oracle), case

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("k", (1, 4))
    def test_topk_equals_bruteforce(self, case, k):
        database = database_for(case)
        min_sup = 2 if case[0] % 2 else 1
        mined = mine(database, rq(min_sup, task="topk", k=k))
        closed = list(bruteforce_closed_cliques(database, min_sup))
        oracle = finalize_patterns("topk", closed, k)
        assert [
            (p.form.labels, p.support) for p in mined
        ] == [(p.form.labels, p.support) for p in oracle], case

    @pytest.mark.parametrize("case", CASES)
    def test_quasi_equals_bruteforce(self, case):
        # Witnesses included: both sides define the witness as the
        # lexicographically smallest qualifying vertex set per
        # transaction, so the oracle pins them exactly.
        database = database_for(case)
        min_sup = 2 if case[0] % 2 else 1
        mined = mine(database, rq(min_sup, task="quasi", gamma=0.8, max_size=4))
        oracle = bruteforce_quasi_cliques(
            database, min_sup, gamma=0.8, min_size=2, max_size=4
        )
        assert sorted(full_signature(mined)) == sorted(full_signature(oracle)), case


class TestSnapshotSchemaTaskIndependent:
    """Satellite: every task fills the same deterministic snapshot.

    The 13-key schema is frozen — heartbeats, traces, checkpoints, and
    the cache all serialise it — and maximal/top-k runs must populate
    the very same fields as closed/frequent (no task-shaped gaps).
    """

    FROZEN_KEYS = frozenset(
        {
            "prefixes_visited",
            "frequent_cliques",
            "closed_cliques",
            "nonclosed_prefix_prunes",
            "closure_rejections",
            "infrequent_extensions",
            "redundancy_skips",
            "duplicates_collapsed",
            "embeddings_created",
            "peak_embeddings",
            "database_scans",
            "max_depth",
            "frequent_by_size",
        }
    )

    def test_snapshot_keys_identical_across_tasks(self):
        database = database_for(CASES[1])
        snapshots = {
            "closed": mine(database, 2).statistics.snapshot(),
            "frequent": mine(database, rq(2, task="frequent")).statistics.snapshot(),
            "maximal": mine(database, rq(2, task="maximal")).statistics.snapshot(),
            "topk": mine(database, rq(2, task="topk", k=3)).statistics.snapshot(),
            "quasi": mine(
                database, rq(2, task="quasi", gamma=0.8, max_size=4)
            ).statistics.snapshot(),
        }
        for task, snapshot in snapshots.items():
            assert set(snapshot) == self.FROZEN_KEYS, task

    def test_all_tasks_fill_search_counters(self):
        # The old standalone maximal/top-k miners left per-prefix
        # counters (infrequent extensions, redundancy skips) at zero;
        # through the shared engine they count the same events the
        # closed task does.
        database = database_for(CASES[0])
        for task, extra in TASKS:
            snapshot = mine(database, rq(1, task=task, **extra)).statistics.snapshot()
            assert snapshot["prefixes_visited"] > 0, task
            assert snapshot["frequent_cliques"] > 0, task
            assert snapshot["max_depth"] > 0, task
            assert snapshot["embeddings_created"] > 0, task


class TestQuasiCheckpointResume:
    """Mid-run checkpoints work for quasi like any engine task.

    The session truncates on a prefix budget, checkpoints (recording
    ``gamma`` the way top-k records ``k``), and a fresh session resumes
    the incomplete roots to the byte-identical full result.
    """

    GAMMA = 0.8
    CONFIG = MinerConfig(min_size=2, max_size=4)

    def truncated_session(self, database, min_sup):
        session = MiningSession(
            database,
            min_sup,
            task="quasi",
            gamma=self.GAMMA,
            config=self.CONFIG,
            budget=MiningBudget(max_expanded_prefixes=20),
        )
        partial = session.run()
        assert partial.truncated, "budget did not bite mid-run"
        return session

    def test_mid_run_resume_completes_to_identical_result(self):
        database = database_for(CASES[2])
        full = mine(database, rq(1, task="quasi", gamma=self.GAMMA, max_size=4))
        session = self.truncated_session(database, 1)
        checkpoint = session.checkpoint()
        assert checkpoint.task == "quasi"
        assert checkpoint.gamma == self.GAMMA
        assert checkpoint.completed_roots  # genuinely mid-run, not empty
        final = MiningSession(
            database,
            1,
            task="quasi",
            gamma=self.GAMMA,
            config=self.CONFIG,
            resume_from=checkpoint,
        ).run()
        assert not final.truncated
        assert full_signature(final) == full_signature(full)

    def test_resume_rejects_mismatched_gamma(self):
        database = database_for(CASES[2])
        checkpoint = self.truncated_session(database, 1).checkpoint()
        with pytest.raises(MiningError, match="gamma"):
            MiningSession(
                database,
                1,
                task="quasi",
                gamma=0.6,
                config=self.CONFIG,
                resume_from=checkpoint,
            )
