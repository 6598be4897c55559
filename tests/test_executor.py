"""The work-stealing executor: tasks, cost estimates, splitting, pools.

The load-bearing contract is byte-identity: for every scheduler, any
split decisions, and any worker interleaving, the merged result must
equal the serial :class:`ClanMiner`'s — patterns, order, and the
deterministic statistics counters.  Everything else here (cost
estimates, reports, the persistent pool) is scheduling policy, which
may only change wall-clock.
"""

import multiprocessing
import os
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClanMiner, MinerConfig, MiningResult, mine_closed_cliques
from repro.core import executor as executor_module
from repro.core.executor import (
    DEFAULT_SPLIT_FACTOR,
    STATIC,
    STEALING,
    ExecutorReport,
    MiningExecutor,
    MiningTask,
    _execute_task,
    _replay_substreams,
    estimate_root_costs,
    plan_tasks,
)
from repro.core.engine import MiningEngine, engine_for_task, finalize_patterns
from repro.core.session import PatternEmitted, PrefixVisited, RingBufferSink, SearchHooks
from repro.exceptions import MiningError
from repro.graphdb import Graph, GraphDatabase, random_database
from tests.conftest import make_random_database


def keys(result):
    return [p.key() for p in result]


# ======================================================================
# Cost estimation
# ======================================================================
class TestCostEstimates:
    def test_every_root_gets_a_positive_cost(self, paper_db):
        costs = estimate_root_costs(paper_db, ("a", "b", "c", "d", "e"))
        assert set(costs) == {"a", "b", "c", "d", "e"}
        assert all(cost > 0 for cost in costs.values())

    def test_low_alphabet_hub_root_dominates(self, paper_db):
        # Root 'a' sees every other label as a forward extension, root
        # 'e' sees only itself; redundancy pruning makes 'a' heavier.
        costs = estimate_root_costs(paper_db, ("a", "e"))
        assert costs["a"] > costs["e"]

    def test_only_requested_roots_are_estimated(self, paper_db):
        costs = estimate_root_costs(paper_db, ("b",))
        assert set(costs) == {"b"}


# ======================================================================
# Tasks and reports
# ======================================================================
class TestMiningTask:
    def test_whole_single_root_is_splittable(self):
        assert MiningTask(roots=("a",)).splittable

    def test_split_task_is_not_splittable(self):
        assert not MiningTask(roots=("a",), first_extensions=("b",)).splittable

    def test_static_chunk_is_not_splittable(self):
        assert not MiningTask(roots=("a", "c")).splittable


class TestExecutorReport:
    def test_straggler_ratio_balanced(self):
        report = ExecutorReport(scheduler=STEALING, processes=2)
        report.record(101, 1.0)
        report.record(102, 1.0)
        assert report.tasks == 2
        assert report.cpu_seconds == pytest.approx(2.0)
        assert report.max_straggler_ratio == pytest.approx(1.0)

    def test_straggler_ratio_one_worker_does_everything(self):
        report = ExecutorReport(scheduler=STATIC, processes=4)
        report.record(101, 8.0)
        assert report.max_straggler_ratio == pytest.approx(4.0)

    def test_empty_report_defaults_to_balanced(self):
        assert ExecutorReport(scheduler=STEALING, processes=2).max_straggler_ratio == 1.0


# ======================================================================
# The pool's precomputed plan
# ======================================================================
class TestPlanTasks:
    ROOTS = ("a", "b", "c", "d")
    ESTIMATES = {"a": 8.0, "b": 1.0, "c": 4.0, "d": 2.0}
    EXTENSIONS = {"a": [("b", 3), ("c", 1)], "b": [], "c": [("d", 2), ("e", 2)], "d": [("e", 1)]}

    def plan(self, processes, split_factor):
        return plan_tasks(
            self.ROOTS, self.ESTIMATES, processes, split_factor, self.EXTENSIONS.get
        )

    def test_heaviest_first(self):
        plan = self.plan(2, float("inf"))
        assert [task.roots for task in plan] == [("a",), ("c",), ("d",), ("b",)]
        assert [task.cost for task in plan] == [8.0, 4.0, 2.0, 1.0]

    def test_zero_split_factor_splits_every_splittable_root(self):
        plan = self.plan(2, 0.0)
        # 'b' has no extensions and 'd' one: they stay whole.  Equal
        # costs pop in push order.
        assert [(task.roots, task.first_extensions) for task in plan] == [
            (("a",), ("b",)),
            (("d",), None),
            (("a",), ("c",)),
            (("c",), ("d",)),
            (("c",), ("e",)),
            (("b",), None),
        ]
        split = [task for task in plan if task.first_extensions is not None]
        assert [(task.cost, task.seq, task.include_root) for task in split] == [
            (6.0, 0, True),
            (2.0, 1, False),
            (2.0, 0, True),
            (2.0, 1, False),
        ]

    def test_fair_share_rule(self):
        # At 2 processes 'a' (8) exceeds half of the 15 units unplanned
        # and splits; 'c' (4) then stays under half of the 9 left.
        plan = self.plan(2, DEFAULT_SPLIT_FACTOR)
        assert [(task.roots, task.first_extensions) for task in plan] == [
            (("a",), ("b",)),
            (("c",), None),
            (("d",), None),
            (("a",), ("c",)),
            (("b",), None),
        ]

    def test_static_keeps_canonical_order_and_never_splits(self):
        plan = plan_tasks(self.ROOTS, dict.fromkeys(self.ROOTS, 1.0), 2, 0.0)
        assert plan == [MiningTask(roots=(root,)) for root in self.ROOTS]

    def test_static_executor_makes_no_splits(self, paper_db):
        with MiningExecutor(
            paper_db, processes=2, scheduler=STATIC, split_factor=0.0
        ) as executor:
            executor.mine(2)
            report = executor.last_report
        assert report.splits == 0
        assert report.tasks == report.roots


def skewed_hub_database(n_graphs=4, seed=7):
    """Dense low-alphabet hubs ('a' most copied) plus a sparse tail."""
    copies = (4, 2, 2, 2, 2, 2)
    database = GraphDatabase(name="skewed-hub")
    for gid in range(n_graphs):
        rng = random.Random(seed * 1000 + gid)
        labels = {}
        for label, count in zip("abcdef", copies):
            for _ in range(count):
                labels[len(labels)] = label
        hub = list(labels)
        for label in "ghij":
            labels[len(labels)] = label
        edges = [(u, v) for u in hub for v in hub if u < v and rng.random() < 0.65]
        edges += [
            (u, v)
            for v in range(len(hub), len(labels))
            for u in range(v)
            if rng.random() < 0.12
        ]
        database.add(Graph.from_edges(labels, edges, graph_id=gid))
    return database


# ======================================================================
# The split plan (ClanMiner.root_extension_plan) and its exactness
# ======================================================================
class TestRootExtensionPlan:
    def test_plan_lists_forward_frequent_extensions(self, paper_db):
        plan = ClanMiner(paper_db).root_extension_plan(2, "a")
        assert [label for label, _sup in plan] == ["b", "c", "d"]
        assert all(sup >= 2 for _label, sup in plan)

    def test_infrequent_root_has_empty_plan(self, paper_db):
        assert ClanMiner(paper_db).root_extension_plan(2, "z") == []

    def test_max_size_one_has_empty_plan(self, paper_db):
        miner = ClanMiner(paper_db, MinerConfig(max_size=1))
        assert miner.root_extension_plan(2, "a") == []

    def test_plan_requires_structural_pruning(self, paper_db):
        config = MinerConfig(
            closed_only=False,
            structural_redundancy_pruning=False,
            nonclosed_prefix_pruning=False,
        )
        with pytest.raises(MiningError, match="structural"):
            ClanMiner(paper_db, config).root_extension_plan(2, "a")

    def test_plan_does_not_touch_statistics(self, paper_db):
        # Planning prepares the miner (uncounted label-support scan,
        # like any prepare() call) but must not perturb the counters of
        # a subsequent mine relative to any other prepared miner.
        miner = ClanMiner(paper_db)
        miner.root_extension_plan(2, "a")
        result = miner.mine(2)
        reference = ClanMiner(paper_db).prepare().mine(2)
        assert keys(result) == keys(reference)
        assert result.statistics.snapshot() == reference.statistics.snapshot()

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_split_union_equals_whole_root(self, seed):
        # The exactness argument behind cost-guided splitting: mining a
        # root's level-2 subtrees independently (root-level work on the
        # first task only) reproduces the whole-root subtree exactly —
        # patterns, deterministic counters, and the every-prefix event
        # stream — for every splittable task on every kernel.
        db = make_random_database(seed)
        for task, gamma, max_size in (
            ("closed", None, None),
            ("frequent", None, None),
            ("maximal", None, None),
            ("quasi", 0.75, 4),
        ):
            for kernel in ("bitset", "slab"):
                config = MinerConfig.for_task(task, max_size=max_size, kernel=kernel)
                miner = engine_for_task(db, config, task, gamma=gamma).prepare()
                self._assert_split_union_exact(miner, db)

    @staticmethod
    def _assert_split_union_exact(miner, db):
        def mine_recorded(root, **split):
            sink = RingBufferSink(capacity=None)
            hooks = SearchHooks(sinks=(sink,), sample_every=1)
            hooks.begin_root(root)
            result = miner.mine(2, root_labels=(root,), hooks=hooks, **split)
            hooks.flush()
            return result, tuple(sink.events)

        for root in db.frequent_labels(2):
            whole, whole_events = mine_recorded(root)
            plan = miner.root_extension_plan(2, root)
            if len(plan) < 2:
                continue
            merged = MiningResult(min_sup=2, closed_only=whole.closed_only)
            collected = []
            substreams = []
            for index, (label, _sup) in enumerate(plan):
                part, events = mine_recorded(
                    root, first_extensions=(label,), include_root=index == 0
                )
                merged.statistics.merge(part.statistics)
                collected.extend(part)
                substreams.append(events)
            for pattern in finalize_patterns(miner.task, collected):
                merged.add(pattern)
            assert keys(merged) == keys(whole)
            assert merged.statistics.snapshot() == whole.statistics.snapshot()
            assert _replay_substreams(substreams, 1) == whole_events

    def test_split_task_rejects_bad_extensions(self, paper_db):
        # The split-task preconditions the executor's planner upholds,
        # exercised directly: an extension sorting below the root, an
        # infrequent one (no 'a' vertex is adjacent to an 'e'), and a
        # root Lemma 4.4 prunes ('c' always sits beside a 'b').
        miner = ClanMiner(paper_db)
        with pytest.raises(MiningError, match="sorts below root"):
            miner.mine(2, root_labels=("b",), first_extensions=("a",), include_root=False)
        with pytest.raises(MiningError, match="infrequent"):
            miner.mine(2, root_labels=("a",), first_extensions=("e",), include_root=False)
        with pytest.raises(MiningError, match="subtree prune"):
            miner.mine(2, root_labels=("c",), first_extensions=("d",))


# ======================================================================
# The executor itself
# ======================================================================
class TestMiningExecutor:
    def test_stealing_matches_serial(self, paper_db):
        serial = mine_closed_cliques(paper_db, 2)
        with MiningExecutor(paper_db, processes=2) as executor:
            result = executor.mine(2)
        assert keys(result) == keys(serial)
        assert result.statistics.snapshot() == serial.statistics.snapshot()

    def test_chunks_per_process_warns_and_is_ignored(self, paper_db):
        with pytest.warns(DeprecationWarning, match="chunks_per_process"):
            executor = MiningExecutor(paper_db, processes=1, chunks_per_process=4)
        with executor:
            result = executor.mine(2)
        serial = mine_closed_cliques(paper_db, 2)
        assert keys(result) == keys(serial)
        assert result.statistics.snapshot() == serial.statistics.snapshot()

    def test_static_matches_serial(self, paper_db):
        serial = mine_closed_cliques(paper_db, 2)
        with MiningExecutor(paper_db, processes=2, scheduler=STATIC) as executor:
            result = executor.mine(2)
        assert keys(result) == keys(serial)
        assert result.statistics.snapshot() == serial.statistics.snapshot()

    def test_forced_splits_match_serial(self, paper_db):
        # split_factor=0 splits every splittable root — the adversarial
        # schedule for the merge/replay logic.
        serial = mine_closed_cliques(paper_db, 2)
        with MiningExecutor(paper_db, processes=2, split_factor=0.0) as executor:
            result = executor.mine(2)
            report = executor.last_report
        assert keys(result) == keys(serial)
        assert result.statistics.snapshot() == serial.statistics.snapshot()
        assert report.splits >= 1
        assert report.tasks > report.roots

    def test_pool_runs_the_plan(self):
        # Two forced-pool runs split and submit exactly what the
        # precomputed plan says, whatever the workers' timings.
        db = skewed_hub_database()
        roots = tuple(db.frequent_labels(2))
        miner = ClanMiner(db).prepare()
        plan = plan_tasks(
            roots,
            estimate_root_costs(db, roots, db.slab_space()),
            4,
            DEFAULT_SPLIT_FACTOR,
            lambda root: miner.root_extension_plan(2, root),
        )
        planned_splits = sum(
            1 for task in plan if task.first_extensions is not None and task.include_root
        )
        reports = []
        for _ in range(2):
            with MiningExecutor(db, processes=4) as executor:
                result = executor.mine(2)
                reports.append(executor.last_report)
            assert keys(result) == keys(mine_closed_cliques(db, 2))
        assert planned_splits >= 1
        for report in reports:
            assert (report.splits, report.tasks) == (planned_splits, len(plan))

    def test_database_scans_match_serial(self, paper_db):
        # Satellite regression: the warmed workers never rescan label
        # supports, and the parent's root scan counts once.
        serial = mine_closed_cliques(paper_db, 2)
        with MiningExecutor(paper_db, processes=2, split_factor=0.0) as executor:
            result = executor.mine(2)
        assert result.statistics.database_scans == serial.statistics.database_scans

    def test_persistent_pool_across_mine_calls(self, paper_db):
        with MiningExecutor(paper_db, processes=2) as executor:
            first = executor.mine(2)
            pool = executor._pool
            second = executor.mine(1)
            assert executor._pool is pool  # no respawn between calls
        assert keys(first) == keys(mine_closed_cliques(paper_db, 2))
        assert keys(second) == keys(mine_closed_cliques(paper_db, 1))

    def test_report_shape(self, paper_db):
        with MiningExecutor(paper_db, processes=2) as executor:
            executor.mine(2)
            report = executor.last_report
        assert report.scheduler == STEALING
        assert report.processes == 2
        assert report.roots == 5
        assert report.tasks >= report.roots
        assert report.cpu_seconds > 0.0
        assert report.elapsed_seconds > 0.0
        assert report.max_straggler_ratio >= 1.0
        assert sum(report.worker_busy_seconds.values()) == pytest.approx(
            report.cpu_seconds
        )

    def test_wall_clock_and_cpu_seconds(self, paper_db):
        # Satellite regression for the statistics merge: elapsed is the
        # parent's wall-clock, cpu_seconds sums worker time — neither is
        # a sum of per-root elapsed stamped over the other.
        with MiningExecutor(paper_db, processes=2) as executor:
            result = executor.mine(2)
        assert result.elapsed_seconds > 0.0
        assert result.statistics.cpu_seconds > 0.0
        assert "cpu_seconds" not in result.statistics.snapshot()

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_serial_on_random_databases(self, seed):
        db = make_random_database(seed)
        serial = mine_closed_cliques(db, 2)
        with MiningExecutor(db, processes=2, split_factor=0.0) as executor:
            result = executor.mine(2)
        assert keys(result) == keys(serial)
        assert result.statistics.snapshot() == serial.statistics.snapshot()

    def test_unknown_scheduler_rejected(self, paper_db):
        with pytest.raises(MiningError, match="scheduler"):
            MiningExecutor(paper_db, scheduler="fifo")

    def test_invalid_processes_rejected(self, paper_db):
        with pytest.raises(MiningError, match="processes"):
            MiningExecutor(paper_db, processes=0)

    def test_negative_split_factor_rejected(self, paper_db):
        with pytest.raises(MiningError, match="split_factor"):
            MiningExecutor(paper_db, split_factor=-0.5)

    def test_requires_structural_pruning(self, paper_db):
        config = MinerConfig(
            closed_only=False,
            structural_redundancy_pruning=False,
            nonclosed_prefix_pruning=False,
        )
        with pytest.raises(MiningError, match="structural"):
            MiningExecutor(paper_db, config)

    def test_closed_executor_rejects_reuse(self, paper_db):
        executor = MiningExecutor(paper_db, processes=1)
        executor.close()
        with pytest.raises(MiningError, match="closed"):
            executor.mine(2)
        executor.close()  # idempotent

    def test_default_split_factor_is_fair_share(self):
        assert DEFAULT_SPLIT_FACTOR == 1.0


# ======================================================================
# Pool faults and abandoned runs
# ======================================================================
def _slow_unless_root_a(engine, abs_sup, task, *args):
    """A pool task that holds back every root but ``a`` for a second."""
    if task.roots != ("a",):
        time.sleep(1.0)
    return _execute_task(engine, abs_sup, task, *args)


class TestPoolLifecycle:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="kills a worker through a fork-inherited patch",
    )
    def test_a_dead_worker_raises(self, monkeypatch):
        # The pool replaces a dead worker but never reruns its task.
        parent = os.getpid()
        mine = MiningEngine.mine

        def dying(engine, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return mine(engine, *args, **kwargs)

        monkeypatch.setattr(MiningEngine, "mine", dying)
        database = random_database(20, 8, 0.4, 3, seed=9)
        raised = []

        def run():
            try:
                with MiningExecutor(database, processes=2) as executor:
                    executor.mine(2)
            except MiningError as exc:
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert raised and "died" in str(raised[0])

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="slows workers through a fork-inherited patch",
    )
    def test_abandoned_run_drops_its_pool(self, monkeypatch):
        database = random_database(20, 8, 0.4, 3, seed=9)
        serial = mine_closed_cliques(database, 2)
        roots = tuple(database.frequent_labels(2))
        assert roots[0] == "a"
        monkeypatch.setattr(executor_module, "_execute_task", _slow_unless_root_a)
        with MiningExecutor(database, processes=2, scheduler=STATIC) as executor:
            runs = executor.iter_roots(2, roots)
            next(runs)
            assert executor.last_report.pool_started
            runs.close()
            assert executor._pool is None
            # A run left suspended mid-pool: the next one starts afresh
            # instead of queueing behind its tasks.
            runs = executor.iter_roots(2, roots)
            next(runs)
            stale = executor._pool
            result = executor.mine(2)
            assert executor._pool is not stale
            runs.close()
            assert executor._pool is not None
        assert keys(result) == keys(serial)
        assert result.statistics.snapshot() == serial.statistics.snapshot()

    def test_spawned_worker_prepares_on_its_first_root_task(self, paper_db, monkeypatch):
        # Without an inherited engine the initializer builds no index, so
        # a shard job builds none of the whole database's; the first
        # root task prepares, keeping per-root statistics serial.
        scans, builds = [], []
        label_supports, bit_index = GraphDatabase.label_supports, Graph.bit_index

        def counting_scan(database):
            scans.append(database)
            return label_supports(database)

        def counting_build(graph):
            builds.append(graph)
            return bit_index(graph)

        monkeypatch.setattr(executor_module, "_PARENT_MINERS", {})
        monkeypatch.setattr(executor_module, "_WORKER_STATE", {})
        monkeypatch.setattr(GraphDatabase, "label_supports", counting_scan)
        monkeypatch.setattr(Graph, "bit_index", counting_build)
        executor_module._init_executor_worker(1, paper_db, MinerConfig())
        assert scans == [] and builds == []
        task = MiningTask(roots=("a",))
        _, part, _, _, _ = executor_module._run_job(
            (executor_module._execute_task, (2, task, 0, False))
        )
        assert scans == [paper_db]
        serial = engine_for_task(paper_db, None).prepare().mine(2, root_labels=("a",))
        assert part.statistics.snapshot() == serial.statistics.snapshot()


# ======================================================================
# Substream replay (event sampling re-derivation)
# ======================================================================
class TestReplaySubstreams:
    @staticmethod
    def prefix(ordinal):
        return PrefixVisited(form=("a",), support=2, depth=1, ordinal=ordinal)

    def test_renumbers_and_resamples_across_substreams(self):
        # Two split substreams recorded at sample_every=1 with per-task
        # ordinals; replay at sample_every=2 keeps every 2nd prefix of
        # the concatenation with root-wide ordinals, as serial would.
        first = [self.prefix(1), self.prefix(2), self.prefix(3)]
        second = [self.prefix(1), self.prefix(2)]
        replayed = _replay_substreams([first, second], sample_every=2)
        assert [e.ordinal for e in replayed] == [2, 4]

    def test_non_prefix_events_pass_through(self):
        emitted = PatternEmitted(form=("a", "b"), support=2, size=2)
        replayed = _replay_substreams([[self.prefix(1), emitted]], sample_every=1)
        assert replayed == (self.prefix(1), emitted)

    def test_sampling_disabled_drops_prefix_events(self):
        replayed = _replay_substreams([[self.prefix(1), self.prefix(2)]], 0)
        assert replayed == ()
