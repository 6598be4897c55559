"""Run-batched inline mining and the executor's pool gate.

* :meth:`MiningEngine.mine_roots` mines a run of roots in one sweep and
  must hand back, root for root, exactly what single-root ``mine``
  calls return: patterns, their order, and ``statistics.snapshot()``.
* ``processes > 1`` runs mine inline until :class:`_PoolGate` finds the
  pool pays; whatever the handoff point, envelopes, cache entries, and
  session event streams stay byte-identical to serial.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MiningRequest, mine
from repro.core import MinerConfig, MiningCache, MiningSession, RingBufferSink
from repro.core import executor as executor_module
from repro.core.api import MiningResultEnvelope
from repro.core.cache import mine_with_cache
from repro.core.engine import engine_for_task
from repro.core.executor import MiningExecutor, _PoolGate
from repro.exceptions import MiningError
from repro.graphdb import Graph, GraphDatabase, random_database
from tests.strategies import aligned_databases, graph_databases

TASKS = (
    ("closed", {}),
    ("frequent", {}),
    ("maximal", {}),
    ("topk", {"k": 3}),
    ("quasi", {"gamma": 0.8}),
)


def keys(result):
    return [p.key() for p in result]


def task_config(task, kernel):
    if task == "frequent":
        return MinerConfig.all_frequent(kernel=kernel)
    return MinerConfig(kernel=kernel, max_size=4 if task == "quasi" else None)


@pytest.fixture(scope="module")
def dense_db():
    return random_database(12, 14, 0.45, 6, seed=3)


# ----------------------------------------------------------------------
# The per-root split of one engine sweep
# ----------------------------------------------------------------------
class TestMineRoots:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        database=st.one_of(graph_databases(max_graphs=5), aligned_databases()),
        task_index=st.integers(0, len(TASKS) - 1),
        kernel=st.sampled_from(["bitset", "slab"]),
        min_sup=st.integers(1, 3),
    )
    def test_parts_equal_single_root_mines(
        self, data, database, task_index, kernel, min_sup
    ):
        task, options = TASKS[task_index]
        config = task_config(task, kernel)
        batched = engine_for_task(database, config, task, **options)
        single = engine_for_task(database, config, task, **options).prepare()
        roots = database.frequent_labels(min_sup)
        cuts = sorted(
            data.draw(st.sets(st.integers(1, max(1, len(roots) - 1)))) if roots else []
        )
        runs, start = [], 0
        for cut in cuts + [len(roots)]:
            if cut > start:
                runs.append(roots[start:cut])
                start = cut
        parts = []
        for run in runs:
            parts.extend(batched.mine_roots(min_sup, run))
        assert len(parts) == len(roots)
        for root, part in zip(roots, parts):
            reference = single.mine(min_sup, root_labels=(root,))
            assert keys(part) == keys(reference)
            assert part.statistics.snapshot() == reference.statistics.snapshot()
            assert part.min_sup == reference.min_sup

    def test_market_parts_equal_single_root_mines(self):
        from repro.stockmarket import stock_market_database

        database = stock_market_database(0.95, scale="tiny", seed=7)
        engine = engine_for_task(database, None).prepare()
        roots = database.frequent_labels(database.absolute_support("85%"))
        parts = list(engine.mine_roots("85%", roots))
        for root, part in zip(roots, parts):
            reference = engine.mine("85%", root_labels=(root,))
            assert keys(part) == keys(reference)
            assert part.statistics.snapshot() == reference.statistics.snapshot()
            assert part.elapsed_seconds == part.statistics.cpu_seconds > 0.0

    def test_empty_run(self, paper_db):
        assert list(engine_for_task(paper_db, None).mine_roots(2, [])) == []

    def test_rejects_unordered_or_infrequent_roots(self, paper_db):
        engine = engine_for_task(paper_db, None)
        with pytest.raises(MiningError, match="ascending"):
            engine.mine_roots(2, ["b", "a"])
        with pytest.raises(MiningError, match="ascending"):
            engine.mine_roots(2, ["a", "a"])
        with pytest.raises(MiningError, match="not frequent"):
            engine.mine_roots(2, ["zz"])

    def test_requires_structural_pruning(self, paper_db):
        engine = engine_for_task(
            paper_db,
            MinerConfig(
                structural_redundancy_pruning=False, nonclosed_prefix_pruning=False
            ),
        )
        with pytest.raises(MiningError, match="structural"):
            engine.mine_roots(2, ["a"])


# ----------------------------------------------------------------------
# The gate's arithmetic
# ----------------------------------------------------------------------
class TestPoolGate:
    def gate(self, budget, processes=2, **costs):
        costs = costs or {"a": 4.0, "b": 2.0, "c": 1.0, "d": 1.0}
        calls = []

        def estimate(roots):
            calls.append(tuple(roots))
            return dict(costs)

        gate = _PoolGate(processes, budget, tuple(costs), estimate)
        return gate, calls

    def test_zero_budget_pays_before_any_inline_work(self):
        gate, calls = self.gate(0.0)
        assert gate.pays()
        assert calls == []

    def test_no_timing_means_one_root_and_no_pool(self):
        gate, calls = self.gate(1.0)
        assert not gate.pays()
        assert gate.chunk(("a", "b", "c", "d")) == 1
        assert calls == []

    def test_chunk_spends_the_budget_at_the_mean_root_time(self):
        gate, calls = self.gate(0.5)
        gate.record(("a",), 0.25)
        assert not gate.pays()  # budget not yet spent
        assert gate.chunk(("b", "c", "d")) == 2
        gate, _ = self.gate(1.0)
        gate.record(("a",), 0.25)
        assert gate.chunk(("b", "c", "d")) == 3
        assert calls == []  # no estimate before the budget is spent

    def test_pays_only_when_the_saving_beats_the_budget(self):
        gate, calls = self.gate(1.0, a=1.0, b=100.0)
        gate.record(("a",), 1.0)  # 1 s per cost unit; 100 units left
        assert gate.pays()  # saving 100 * 0.5 = 50 s > 1 s
        assert calls == [("a", "b")]
        gate, calls = self.gate(1.0)
        gate.record(("a",), 1.0)  # 0.25 s per unit, 4 units left
        assert not gate.pays()  # saving 0.5 s
        assert gate.chunk(("b", "c", "d")) == 3  # the budget is spent
        gate.pays()
        assert len(calls) == 1  # estimated once

    def test_more_processes_save_more(self):
        low, _ = self.gate(0.6, processes=2)
        high, _ = self.gate(0.6, processes=8)
        for gate in (low, high):
            gate.record(("a",), 0.8)  # 0.2 s per unit; 4 units left
        assert not low.pays()  # 0.8 * 0.5 = 0.4 s
        assert high.pays()  # 0.8 * 0.875 = 0.7 s


# ----------------------------------------------------------------------
# The gate in the executor
# ----------------------------------------------------------------------
def envelope(request, result):
    payload = MiningResultEnvelope.from_result(request, result).canonical_dict()
    return json.dumps(payload["result"], sort_keys=True)


def handoff_after(calls):
    """A gate that mines ``calls`` single-root inline runs, then pools."""

    class HandoffGate(_PoolGate):
        def __init__(self, processes, budget, roots, estimate):
            super().__init__(processes, 1.0, roots, estimate)
            self.calls = 0

        def record(self, run, seconds):
            super().record(run, seconds)
            self.calls += 1

        def pays(self):
            return self.calls >= calls

        def chunk(self, run):
            return 1

    return HandoffGate


class TestExecutorGate:
    def test_zero_budget_pools_from_the_first_root(self, dense_db):
        with MiningExecutor(dense_db, processes=2) as executor:
            result = executor.mine(3)
            report = executor.last_report
            assert executor._pool is not None
        assert report.pool_started
        assert report.roots_inline == 0
        assert report.tasks >= report.roots
        assert keys(result) == keys(engine_for_task(dense_db, None).mine(3))

    def test_large_budget_never_creates_the_pool(self, dense_db, monkeypatch):
        monkeypatch.setattr(executor_module, "POOL_START_SECONDS", 1e9)
        serial = engine_for_task(dense_db, None).mine(3)
        with MiningExecutor(dense_db, processes=2) as executor:
            result = executor.mine(3)
            report = executor.last_report
            assert executor._pool is None
        assert not report.pool_started
        assert report.roots_inline == report.roots == report.tasks
        assert keys(result) == keys(serial)
        assert result.statistics.snapshot() == serial.statistics.snapshot()

    def test_large_budget_session_stays_serial(self, dense_db, monkeypatch):
        monkeypatch.setattr(executor_module, "POOL_START_SECONDS", 1e9)
        ring = RingBufferSink(capacity=None)
        session = MiningSession(dense_db, 3, sinks=(ring,), sample_every=3, processes=2)
        session.run()
        assert session._executor._pool is None
        serial = RingBufferSink(capacity=None)
        MiningSession(dense_db, 3, sinks=(serial,), sample_every=3).run()
        assert list(ring.events) == list(serial.events)

    @pytest.mark.parametrize("calls", [1, 3])
    def test_mid_run_handoff_envelope(self, dense_db, monkeypatch, calls):
        monkeypatch.setattr(executor_module, "_PoolGate", handoff_after(calls))
        for task, options in TASKS:
            max_size = 4 if task == "quasi" else None
            serial = MiningRequest(min_sup=3, task=task, max_size=max_size, **options)
            pooled = MiningRequest(
                min_sup=3, task=task, max_size=max_size, processes=2, **options
            )
            assert envelope(pooled, mine(dense_db, pooled)) == envelope(
                serial, mine(dense_db, serial)
            ), task

    def test_mid_run_handoff_report(self, dense_db, monkeypatch):
        monkeypatch.setattr(executor_module, "_PoolGate", handoff_after(2))
        with MiningExecutor(dense_db, processes=2) as executor:
            executor.mine(3)
            report = executor.last_report
        assert report.pool_started
        assert report.roots_inline == 2
        assert report.tasks >= report.roots

    def test_mid_run_handoff_cache_entries(self, dense_db, monkeypatch):
        serial_cache, pooled_cache = MiningCache(), MiningCache()
        serial = mine_with_cache(dense_db, 3, cache=serial_cache)
        monkeypatch.setattr(executor_module, "_PoolGate", handoff_after(2))
        pooled = mine_with_cache(dense_db, 3, cache=pooled_cache, processes=2)
        assert keys(pooled) == keys(serial)
        assert pooled.statistics.snapshot() == serial.statistics.snapshot()
        assert pooled_cache.to_dict() == serial_cache.to_dict()

    def test_mid_run_handoff_around_cached_roots(self, dense_db, monkeypatch):
        # A partially warm cache splits the uncached roots into several
        # runs; the handoff lands inside that pattern.
        roots = dense_db.frequent_labels(3)
        cache = MiningCache()
        for root in roots[1::3]:
            part = engine_for_task(dense_db, None).prepare().mine(3, root_labels=(root,))
            with MiningExecutor(dense_db, cache=cache) as executor:
                executor._store(3, root, part, (), False, 0)
        monkeypatch.setattr(executor_module, "_PoolGate", handoff_after(2))
        result = mine_with_cache(dense_db, 3, cache=cache, processes=2)
        serial = engine_for_task(dense_db, None).mine(3)
        assert keys(result) == keys(serial)
        assert result.statistics.snapshot() == serial.statistics.snapshot()

    @pytest.mark.parametrize("calls", [1, 4])
    def test_mid_run_handoff_session_stream(self, dense_db, monkeypatch, calls):
        serial = RingBufferSink(capacity=None)
        reference = MiningSession(dense_db, 3, sinks=(serial,), sample_every=3).run()
        monkeypatch.setattr(executor_module, "_PoolGate", handoff_after(calls))
        ring = RingBufferSink(capacity=None)
        session = MiningSession(
            dense_db, 3, sinks=(ring,), sample_every=3, processes=2
        )
        result = session.run()
        assert list(ring.events) == list(serial.events)
        assert keys(result) == keys(reference)
        assert result.statistics.snapshot() == reference.statistics.snapshot()


# ----------------------------------------------------------------------
# Memoized whole-database scans of the in-memory source
# ----------------------------------------------------------------------
class TestScanMemo:
    def test_repeated_calls_reuse_the_scans(self, paper_db):
        source = paper_db.source
        supports = source.label_supports()
        digests = list(source.transaction_digests())
        scans = source._scan_cache
        assert source.label_supports() == supports
        assert list(source.transaction_digests()) == digests
        assert source._scan_cache is scans

    def test_returned_dict_is_a_copy(self, paper_db):
        supports = paper_db.label_supports()
        supports["zz"] = 99
        assert "zz" not in paper_db.label_supports()

    def test_append_is_seen(self, paper_db):
        before = paper_db.label_supports()
        digests = list(paper_db.source.transaction_digests())
        paper_db.add(Graph.from_edges({0: "a", 1: "q"}, [(0, 1)]))
        after = paper_db.label_supports()
        assert after["a"] == before["a"] + 1
        assert after["q"] == 1
        assert list(paper_db.source.transaction_digests())[:-1] == digests

    def test_graph_mutation_is_seen(self, paper_db):
        from repro.io.runlog import database_fingerprint

        paper_db.label_supports()
        fingerprint = database_fingerprint(paper_db)
        graph = next(iter(paper_db))
        graph.add_vertex(max(graph.vertices()) + 1, "q")
        assert paper_db.label_supports()["q"] == 1
        assert database_fingerprint(paper_db) != fingerprint

    def test_shared_graph_objects_count_per_transaction(self):
        from repro.graphdb import transaction_digest

        graph = Graph.from_edges({0: "a", 1: "b"}, [(0, 1)])
        other = Graph.from_edges({0: "a"}, [])
        database = GraphDatabase([graph, graph, other])
        assert database.label_supports() == {"a": 3, "b": 2}
        assert list(database.source.transaction_digests()) == [
            transaction_digest(graph),
            transaction_digest(graph),
            transaction_digest(other),
        ]
