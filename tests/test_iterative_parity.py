"""Differential tests for the iterative, lazily-materialising core.

The engine's hot loop (:meth:`repro.core.engine.MiningEngine._search`)
is an explicit-stack DFS that carries prefixes as bare label tuples and
only materialises :class:`CanonicalForm` / :class:`CliquePattern` /
witness maps at emission time, with statistics accumulated in plain
locals and hook dispatch hoisted out of the loop.  None of that may be
observable: the engine is checked against the *recursive, eagerly
materialising* reference miner of :mod:`tests.oracles`, run over the
hashed-set store — patterns, witnesses, transactions, and the full
frozen statistics snapshot — under both kernels, plus the legs the
reference cannot express (hook dispatch modes, checkpoint/resume
mid-root).

``KERNELS`` also carries ``"set"``, the deprecated spelling of
``"bitset"`` (stage 1 of the CONTRIBUTING.md deprecation policy): its
legs assert the warning and the identical result.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BITSET,
    SET,
    SLAB,
    ClanMiner,
    MinerConfig,
    MiningBudget,
    MiningSession,
    mine,
)
from repro.core.embeddings import EmbeddingStore
from repro.core.engine import engine_for_task
from repro.core.session import SearchHooks

from tests.conftest import kernel_warning, make_random_database
from tests.oracles import reference_mine
from tests.strategies import graph_databases

KERNELS = (SET, BITSET, SLAB)
STRATEGIES = ("cached", "rescan")

#: Seeded databases spanning sparse to dense, few to many labels.
CASES = [
    (seed, 3 + seed % 3, 6 + seed % 4, 0.35 + 0.08 * (seed % 6), 3 + seed % 4)
    for seed in range(6)
]


def database_for(case):
    seed, n_graphs, n_vertices, p, n_labels = case
    return make_random_database(
        seed,
        n_graphs=n_graphs,
        n_vertices=n_vertices,
        edge_probability=p,
        n_labels=n_labels,
    )


def signature(result):
    """Everything observable about a result, order-normalised."""
    return sorted(
        (
            pattern.form.labels,
            pattern.support,
            tuple(sorted(pattern.transactions)),
            tuple(sorted(pattern.witnesses.items())),
        )
        for pattern in result
    )


def config_for(task, kernel, **overrides):
    with kernel_warning(kernel):
        if task == "frequent":
            return MinerConfig.all_frequent(kernel=kernel, **overrides)
        return MinerConfig(kernel=kernel, **overrides)


class TestRecursiveReference:
    """Iterative engine == recursive eager reference, bit for bit."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("task", ("closed", "frequent", "maximal"))
    def test_patterns_and_snapshot_match(self, case, kernel, task):
        database = database_for(case)
        min_sup = 2 if case[0] % 2 else 1
        reference = reference_mine(database, min_sup, config_for(task, BITSET), task)
        for strategy in STRATEGIES:
            config = config_for(task, kernel, embedding_strategy=strategy)
            # No prepare(): the lazy label-support scan must be charged
            # on both sides (the reference counts its own scan up front).
            mined = engine_for_task(database, config, task).mine(min_sup)
            key = (case, kernel, strategy, task)
            assert signature(mined) == signature(reference), key
            assert mined.statistics.snapshot() == reference.statistics.snapshot(), key

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "overrides",
        (
            {"nonclosed_prefix_pruning": False},
            {"structural_redundancy_pruning": False, "nonclosed_prefix_pruning": False},
            {"collect_witnesses": False},
            {"min_size": 2, "max_size": 3},
            {"low_degree_pruning": False},
        ),
        ids=("no-lemma44", "no-redundancy", "no-witnesses", "size-window", "no-lowdeg"),
    )
    def test_ablation_configs_match(self, kernel, overrides):
        # The lazy loop has branch-heavy ablation paths (the seen-forms
        # dedup, the size window, witness skipping); each must shadow
        # the reference exactly.
        database = database_for(CASES[2])
        reference = reference_mine(
            database, 1, config_for("closed", BITSET, **overrides), "closed"
        )
        for strategy in STRATEGIES:
            config = config_for("closed", kernel, embedding_strategy=strategy, **overrides)
            mined = ClanMiner(database, config).mine(1)
            key = (kernel, strategy, overrides)
            assert signature(mined) == signature(reference), key
            assert mined.statistics.snapshot() == reference.statistics.snapshot(), key
            if kernel == BITSET:
                # The int-mask store itself, driven by the reference
                # recursion instead of the engine.
                direct = reference_mine(database, 1, config, "closed", EmbeddingStore)
                assert signature(direct) == signature(reference), key
                assert direct.statistics.snapshot() == reference.statistics.snapshot()


class TestHypothesisReference:
    """Property: the parity holds on arbitrary shrinkable databases."""

    @settings(max_examples=30, deadline=None)
    @given(database=graph_databases(), min_sup=st.integers(1, 3))
    def test_closed_parity_on_arbitrary_databases(self, database, min_sup):
        min_sup = min(min_sup, len(database))
        reference = reference_mine(database, min_sup, MinerConfig(), "closed")
        for kernel in (BITSET, SLAB):
            for strategy in STRATEGIES:
                config = MinerConfig(kernel=kernel, embedding_strategy=strategy)
                mined = ClanMiner(database, config).mine(min_sup)
                assert signature(mined) == signature(reference), (kernel, strategy)
                assert mined.statistics.snapshot() == reference.statistics.snapshot()


class TestHookDispatchParity:
    """Passive, armed, and absent hooks see one identical search.

    The loop skips ``enter_prefix`` entirely when hooks cannot abort or
    sample, settling the prefix counters from its local node count; an
    armed hook walks the per-node path.  Both modes must agree with
    each other, with the no-hooks run, and with the statistics object.
    """

    TASKS = (
        ("closed", {}),
        ("frequent", {}),
        ("maximal", {}),
        ("topk", {"k": 3}),
        ("quasi", {"gamma": 0.8}),
    )

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("task,extra", TASKS, ids=[t for t, _ in TASKS])
    def test_hook_modes_identical(self, kernel, task, extra):
        database = database_for(CASES[1])
        if task == "quasi":
            with kernel_warning(kernel):
                config = MinerConfig(kernel=kernel, min_size=2, max_size=4)
        else:
            config = config_for(task, kernel)

        def run(hooks):
            engine = engine_for_task(
                database, config, task, extra.get("k"), extra.get("gamma")
            ).prepare()
            return engine.mine(2, hooks=hooks), hooks

        bare, _ = run(None)
        passive_result, passive = run(SearchHooks())
        # A huge sampling interval arms the per-node path without ever
        # actually emitting a sample event.
        armed_result, armed = run(SearchHooks(sample_every=10**9))

        reference = signature(bare)
        snapshot = bare.statistics.snapshot()
        for label, result in (("passive", passive_result), ("armed", armed_result)):
            assert signature(result) == reference, (kernel, task, label)
            assert result.statistics.snapshot() == snapshot, (kernel, task, label)
        visited = snapshot["prefixes_visited"]
        assert passive.total_prefixes == visited
        assert armed.total_prefixes == visited
        assert passive.total_patterns == armed.total_patterns


class TestCheckpointResumeMidRoot:
    """A budget abort mid-root resumes to the byte-identical result.

    The abort unwinds the iterative loop through its ``finally`` flush,
    so the checkpoint's statistics stay exact, and the resumed session
    re-mines the interrupted root through the same lazy loop.
    """

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_closed_resume_completes_identically(self, kernel):
        database = database_for(CASES[3])
        config = config_for("closed", kernel)
        full = ClanMiner(database, config).mine(1)

        session = MiningSession(
            database,
            1,
            config=config,
            budget=MiningBudget(max_expanded_prefixes=10),
        )
        partial = session.run()
        assert partial.truncated, "budget did not bite mid-run"
        checkpoint = session.checkpoint()
        assert checkpoint.completed_roots  # genuinely mid-run

        final = MiningSession(
            database, 1, config=config, resume_from=checkpoint
        ).run()
        assert not final.truncated
        assert signature(final) == signature(full), kernel
        assert [p.form.labels for p in final] == [p.form.labels for p in full]
