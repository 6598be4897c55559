"""Storage-backend and shard-merge differential suite.

The load-bearing promise of :mod:`repro.core.sharding`: for every
engine task and kernel, mining through any storage backend — the
in-memory list, the SQLite store, or the partition-parallel
shard-and-merge path — produces byte-identical canonical envelopes
(patterns, supports, transactions, witnesses).
"""

import dataclasses
import gc
import multiprocessing
import multiprocessing.pool
import os
import sqlite3
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import MiningRequest, MiningResultEnvelope, execute_request
from repro.core.config import MinerConfig
from repro.core.embeddings import EmbeddingStore
from repro.core import executor as executor_module
from repro.core import sharding
from repro.core.miner import ClanMiner
from repro.core.sharding import (
    local_threshold,
    mine_sharded,
    shard_bounds,
    shard_database,
)
from repro.exceptions import MiningError
from repro.graphdb import GraphDatabase, import_graphs, open_source, random_database
from repro.graphdb import Graph
from repro.graphdb import storage
from repro.graphdb.schema import SCHEMA_VERSION, decode_graph, parse_row

from .conftest import kernel_warning
from .strategies import aligned_databases, aligned_graphs, graph_databases
from .test_kernel_differential import unique_label_database

TASKS = [
    ("closed", {}),
    ("frequent", {}),
    ("maximal", {}),
    ("topk", {"k": 5, "max_size": 6}),
    ("quasi", {"gamma": 0.8, "max_size": 5, "min_size": 2}),
]
#: ``"set"`` is the deprecated spelling of ``"bitset"`` (it warns).
KERNELS = ["set", "bitset", "slab"]


def canonical(request: MiningRequest, result) -> str:
    return MiningResultEnvelope.from_result(request, result).canonical_json()


@pytest.fixture(scope="module")
def seeded_db() -> GraphDatabase:
    return random_database(60, 12, 0.5, 4, seed=7, name="diff60")


@pytest.fixture(scope="module")
def store_path(seeded_db, tmp_path_factory):
    path = tmp_path_factory.mktemp("stores") / "diff60.sqlite"
    import_graphs(path, iter(seeded_db), name=seeded_db.name).close()
    return path


@pytest.fixture(scope="module")
def sqlite_db(store_path) -> GraphDatabase:
    return GraphDatabase(source=open_source(store_path))


class TestShardBounds:
    def test_by_shard_count(self):
        assert shard_bounds(10, shards=3) == [(0, 4), (4, 7), (7, 10)]

    def test_by_shard_size(self):
        assert shard_bounds(10, shard_size=4) == [(0, 4), (4, 8), (8, 10)]

    def test_empty_and_oversubscribed(self):
        assert shard_bounds(0, shards=4) == []
        assert shard_bounds(2, shards=5) == [(0, 1), (1, 2)]

    def test_ranges_partition_the_id_space(self):
        for n in (1, 7, 100):
            for shards in (1, 2, 3, n):
                bounds = shard_bounds(n, shards=shards)
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                assert all(lo < hi for lo, hi in bounds)
                assert all(
                    bounds[i][1] == bounds[i + 1][0] for i in range(len(bounds) - 1)
                )

    def test_both_specs_rejected(self):
        with pytest.raises(MiningError):
            shard_bounds(10, shards=2, shard_size=5)

    def test_shard_database_shares_graphs(self):
        db = random_database(9, 5, 0.5, 2, seed=1)
        pieces = list(shard_database(db, shards=3))
        assert [(lo, hi) for lo, hi, _ in pieces] == [(0, 3), (3, 6), (6, 9)]
        for lo, hi, shard in pieces:
            assert len(shard) == hi - lo
            assert shard[0] is db[lo]


class TestLocalThreshold:
    def test_never_below_one_or_above_share(self):
        for global_sup in (1, 3, 10):
            for n_i in (1, 4, 7):
                s = local_threshold(global_sup, n_i, 10)
                assert 1 <= s <= max(1, global_sup)

    def test_pigeonhole_bound(self):
        # Sum over any partition of (s_i - 1) stays below S: the recall
        # guarantee's arithmetic core.
        n, global_sup = 23, 9
        for shards in (1, 2, 3, 5, 8, 23):
            bounds = shard_bounds(n, shards=shards)
            slack = sum(
                local_threshold(global_sup, hi - lo, n) - 1 for lo, hi in bounds
            )
            assert slack < global_sup


class TestDifferentialSuite:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("task,options", TASKS, ids=[t for t, _ in TASKS])
    def test_sharded_merge_matches_serial(self, seeded_db, task, options, kernel):
        with kernel_warning(kernel):
            request = MiningRequest.from_options(2, task=task, kernel=kernel, **options)
        serial = canonical(request, execute_request(seeded_db, request))
        sharded = canonical(request, mine_sharded(seeded_db, request, shards=4))
        assert sharded == serial

    @pytest.mark.parametrize("task,options", TASKS, ids=[t for t, _ in TASKS])
    def test_sqlite_backend_matches_in_memory(self, seeded_db, sqlite_db, task, options):
        request = MiningRequest.from_options(2, task=task, **options)
        in_memory = execute_request(seeded_db, request)
        from_sqlite = execute_request(sqlite_db, request)
        assert canonical(request, from_sqlite) == canonical(request, in_memory)
        # The serial engine does identical work whichever backend feeds
        # it, so the full statistics snapshot matches too.  (Sharded
        # statistics are per-shard aggregates by design and are only
        # checked for presence, not equality.)
        assert from_sqlite.statistics.snapshot() == in_memory.statistics.snapshot()

    @pytest.mark.parametrize("task,options", TASKS, ids=[t for t, _ in TASKS])
    def test_sharded_over_sqlite_matches_serial(
        self, seeded_db, sqlite_db, task, options
    ):
        request = MiningRequest.from_options(2, task=task, **options)
        serial = canonical(request, execute_request(seeded_db, request))
        sharded = canonical(request, mine_sharded(sqlite_db, request, shards=5))
        assert sharded == serial

    @pytest.mark.parametrize("task,options", TASKS, ids=[t for t, _ in TASKS])
    def test_each_pass_decodes_a_transaction_once(
        self, seeded_db, store_path, monkeypatch, task, options
    ):
        # A 16-transaction decode cache over a 60-transaction store:
        # anything but a shard-major scan would decode far more.
        decoded = []

        def counting_decode(encoding, tid):
            decoded.append(tid)
            return decode_graph(encoding, tid)

        monkeypatch.setattr(storage, "decode_graph", counting_decode)
        source = open_source(store_path, batch_size=4, max_batches=4)
        request = MiningRequest.from_options(2, task=task, **options)
        try:
            sharded = mine_sharded(GraphDatabase(source=source), request, shards=4)
        finally:
            source.close()
        assert len(source) >= 40
        assert len(decoded) <= 2 * len(source)
        serial = canonical(request, execute_request(seeded_db, request))
        assert canonical(request, sharded) == serial

    @pytest.mark.parametrize("task,options", TASKS, ids=[t for t, _ in TASKS])
    def test_pool_matches_serial_over_sqlite(self, sqlite_db, task, options):
        request = MiningRequest.from_options(2, task=task, **options)
        serial = mine_sharded(sqlite_db, request, shards=4)
        pooled = mine_sharded(
            sqlite_db, dataclasses.replace(request, processes=2), shards=4
        )
        # Compared under one request: the envelope echoes ``processes``.
        assert canonical(request, pooled) == canonical(request, serial)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="counts initializer calls through fork-inherited patches",
    )
    def test_one_pool_serves_both_passes(self, sqlite_db, tmp_path, monkeypatch):
        # One pool start per call, one initializer call per worker: the
        # database reaches each worker once, not with every shard job.
        starts = []

        class CountingPool(multiprocessing.pool.Pool):
            def __init__(self, *args, **kwargs):
                starts.append(args)
                super().__init__(*args, **kwargs)

        log = tmp_path / "initializers.log"
        initializer = executor_module._init_executor_worker

        def logged_initializer(*args):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            initializer(*args)

        monkeypatch.setattr(multiprocessing.pool, "Pool", CountingPool)
        monkeypatch.setattr(executor_module, "_init_executor_worker", logged_initializer)
        request = MiningRequest(min_sup=2, kernel="bitset")
        pooled = mine_sharded(
            sqlite_db, dataclasses.replace(request, processes=2), shards=4
        )
        assert len(starts) == 1
        pids = log.read_text(encoding="utf-8").split()
        assert len(pids) == len(set(pids)) == 2
        serial = mine_sharded(sqlite_db, request, shards=4)
        assert canonical(request, pooled) == canonical(request, serial)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="kills a worker through a fork-inherited patch",
    )
    def test_a_dead_worker_raises(self, seeded_db, monkeypatch):
        # A pool replaces a dead worker but never reruns its job.
        shard = sharding._shard

        def dying(database, lo, hi):
            if lo == 0:
                os._exit(1)
            return shard(database, lo, hi)

        monkeypatch.setattr(sharding, "_shard", dying)
        request = MiningRequest(min_sup=2, kernel="bitset", processes=2)
        raised = []

        def run():
            try:
                mine_sharded(seeded_db, request, shards=4)
            except MiningError as exc:
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert raised and "died" in str(raised[0])

    def test_counting_pass_leaves_no_cyclic_garbage(self, seeded_db):
        # Shards must be freed as soon as they are counted; garbage in
        # cycles would wait for the collector, several shards at once.
        request = MiningRequest.from_options(2, task="closed", kernel="bitset")
        gc.collect()
        gc.disable()
        try:
            mine_sharded(seeded_db, request, shards=4)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_size_windows_survive_the_merge(self, seeded_db):
        for task, options in [
            ("closed", {"min_size": 2, "max_size": 4}),
            ("closed", {"max_size": 3}),
            ("frequent", {"min_size": 2, "max_size": 3}),
            ("topk", {"k": 3, "min_size": 2, "max_size": 4}),
            ("quasi", {"gamma": 0.9, "min_size": 2, "max_size": 4}),
        ]:
            request = MiningRequest.from_options(3, task=task, **options)
            serial = canonical(request, execute_request(seeded_db, request))
            sharded = canonical(request, mine_sharded(seeded_db, request, shards=5))
            assert sharded == serial, (task, options)

    def test_single_shard_degenerates_to_serial(self, seeded_db):
        request = MiningRequest.from_options(2, task="closed")
        serial = canonical(request, execute_request(seeded_db, request))
        assert canonical(
            request, mine_sharded(seeded_db, request, shards=1)
        ) == serial

    def test_statistics_are_aggregated(self, seeded_db):
        request = MiningRequest.from_options(2, task="closed")
        result = mine_sharded(seeded_db, request, shards=4)
        assert result.statistics.prefixes_visited > 0

    def test_session_features_rejected(self, seeded_db):
        request = MiningRequest.from_options(2, task="closed", deadline=60.0)
        with pytest.raises(MiningError):
            mine_sharded(seeded_db, request, shards=2)


class TestShardBoundaryProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        database=graph_databases(min_graphs=2, max_graphs=8, max_vertices=6),
        data=st.data(),
    )
    def test_any_shard_geometry_is_exact(self, database, data):
        request = MiningRequest.from_options(1, task="closed")
        serial = canonical(request, execute_request(database, request))
        shards = data.draw(st.integers(1, len(database)), label="shards")
        sharded = canonical(request, mine_sharded(database, request, shards=shards))
        assert sharded == serial


def _counting(calls, function):
    """``function(encoding, tid)``, recording each tid in ``calls``."""

    def counted(encoding, tid):
        calls.append(tid)
        return function(encoding, tid)

    return counted


class TestAlignedStoreOnSlab:
    """Aligned (unique-label) stores mine on the slab index, no shards."""

    @pytest.fixture(scope="class")
    def aligned_db(self) -> GraphDatabase:
        return unique_label_database(3, n_graphs=20)

    @pytest.fixture(scope="class")
    def aligned_path(self, aligned_db, tmp_path_factory):
        path = tmp_path_factory.mktemp("aligned") / "aligned.sqlite"
        import_graphs(path, iter(aligned_db), name=aligned_db.name).close()
        return path

    @pytest.mark.parametrize("task,options", TASKS, ids=[t for t, _ in TASKS])
    def test_each_transaction_decoded_at_most_once(
        self, aligned_db, aligned_path, monkeypatch, task, options
    ):
        # An 8-transaction decode cache over a 20-transaction store.
        decoded, parsed = [], []
        monkeypatch.setattr(storage, "decode_graph", _counting(decoded, decode_graph))
        monkeypatch.setattr(storage, "parse_row", _counting(parsed, parse_row))
        source = open_source(aligned_path, batch_size=4, max_batches=2)
        database = GraphDatabase(source=source)
        request = MiningRequest(min_sup=2, task=task, **options)
        try:
            assert len(source) > source.batch_size * source.max_batches
            expected = canonical(request, execute_request(aligned_db, request))
            runs = [
                execute_request(database, request),
                mine_sharded(database, request, shards=1),
                mine_sharded(database, request, shards=4),
                mine_sharded(
                    database, dataclasses.replace(request, processes=2), shards=4
                ),
            ]
            for result in runs:
                assert canonical(request, result) == expected
            # Quasi runs on int masks, so it keeps the shard passes.
            # Every other task maps the store's stored slab index: it
            # parses no row and builds no Graph.  (A store without the
            # index parses each row once: TestStoredSlabIndex.)
            if task != "quasi":
                assert parsed == []
                assert decoded == []
        finally:
            source.close()

    def test_append_after_the_build_is_mined(self, aligned_db, aligned_path, tmp_path):
        path = tmp_path / "grow.sqlite"
        path.write_bytes(aligned_path.read_bytes())
        source = open_source(path)
        database = GraphDatabase(source=source)
        request = MiningRequest(min_sup=2)
        try:
            built = source.slab_space()
            assert built is not None
            extra = Graph.from_edges(
                {0: "T00", 1: "T01", 5: "NEW"}, [(0, 1), (1, 5), (0, 5)]
            )
            grown = GraphDatabase(list(aligned_db) + [extra, extra.copy()])
            database.add(extra.copy())
            database.add(extra.copy())
            rebuilt = source.slab_space()
            assert rebuilt is not None and rebuilt is not built
            assert rebuilt.n_transactions == len(aligned_db) + 2
            expected = canonical(request, execute_request(grown, request))
            assert canonical(request, mine_sharded(database, request, shards=4)) == expected
            assert "NEW" in canonical(request, execute_request(database, request))
        finally:
            source.close()

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_store_feeds_the_same_slab_as_memory(self, tmp_path, replicas):
        # Past 64 transactions the slab spans several words; replicated
        # graph objects share one index in memory but not in the store.
        database = unique_label_database(5, n_graphs=50).replicate(replicas)
        path = tmp_path / "wide.sqlite"
        import_graphs(path, iter(database), name=database.name).close()
        source = open_source(path)
        try:
            from_store = source.slab_space()
        finally:
            source.close()
        in_memory = database.slab_space()
        assert from_store.tx_words == in_memory.tx_words == (1 if replicas == 1 else 3)
        assert from_store.labels == in_memory.labels
        for name in ("nbr", "presence", "vertices", "label_tx_counts"):
            assert np.array_equal(getattr(from_store, name), getattr(in_memory, name))

    def test_record_level_paths_decode_from_the_store(self, aligned_db, aligned_path):
        # The redundancy-off ablation mines on int masks over each
        # transaction's own vertex bits, decoded from the store; the
        # store-fed slab answers the record-level reads as memory does.
        source = open_source(aligned_path)
        try:
            store_db = GraphDatabase(source=source)
            config = MinerConfig(
                closed_only=False,
                structural_redundancy_pruning=False,
                nonclosed_prefix_pruning=False,
            )
            assert sorted(
                pattern.key() for pattern in ClanMiner(store_db, config).mine(3)
            ) == sorted(pattern.key() for pattern in ClanMiner(aligned_db, config).mine(3))
            label = aligned_db.frequent_labels(2)[0]
            stores = [
                EmbeddingStore.for_label(db, None, label, slab=True)
                for db in (store_db, aligned_db)
            ]
            assert [type(store).__name__ for store in stores] == ["SlabEmbeddingStore"] * 2
            assert stores[0].witnesses() == stores[1].witnesses()
            assert stores[0].extension_supports() == stores[1].extension_supports()
        finally:
            source.close()

    def test_repeated_label_store_is_rejected_without_decoding(self, store_path, monkeypatch):
        decoded = []

        def counting_decode(encoding, tid):
            decoded.append(tid)
            return decode_graph(encoding, tid)

        monkeypatch.setattr(storage, "decode_graph", counting_decode)
        source = open_source(store_path)
        try:
            # Alignment is decided from the stored columns, decoding nothing.
            assert source.slab_space() is None
            assert decoded == []
        finally:
            source.close()

    @pytest.mark.parametrize("task,options", TASKS[:4], ids=[t for t, _ in TASKS[:4]])
    def test_statistics_are_the_serial_snapshot(
        self, aligned_db, aligned_path, task, options
    ):
        request = MiningRequest(min_sup=2, task=task, **options)
        source = open_source(aligned_path)
        try:
            sharded = mine_sharded(GraphDatabase(source=source), request, shards=4)
        finally:
            source.close()
        serial = execute_request(aligned_db, request)
        assert sharded.statistics.snapshot() == serial.statistics.snapshot()


#: Vertex ids at the ``int32`` bounds the slab's vertex matrix holds,
#: and just past them (both backends must then decline the slab).
INT32_EDGES = {
    "min": -(2**31),
    "max": 2**31 - 1,
    "below-min": -(2**31) - 1,
    "above-max": 2**31,
}


class TestSlabFeedParity:
    @settings(max_examples=30, deadline=None)
    @given(
        graphs=st.lists(aligned_graphs(max_vertices=6), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_store_slab_equals_memory_slab(self, graphs, data):
        # Vertex ids arrive unsorted from the strategy; one graph may
        # gain a vertex at (or just past) an int32 bound.
        bound = data.draw(st.sampled_from([None, *sorted(INT32_EDGES)]), label="bound")
        edited = None
        if bound is not None:
            edited = data.draw(st.integers(0, len(graphs) - 1), label="graph")
            graph = graphs[edited]
            anchor = next(iter(graph.vertices()), None)
            graph.add_vertex(INT32_EDGES[bound], "int32-edge")
            if anchor is not None:
                graph.add_edge(anchor, INT32_EDGES[bound])
        # Replication: transactions share the drawn graph objects.
        n_tx = data.draw(st.integers(1, 200), label="transactions")
        picks = data.draw(
            st.lists(st.integers(0, len(graphs) - 1), min_size=n_tx, max_size=n_tx),
            label="picks",
        )
        database = GraphDatabase([graphs[pick] for pick in picks])
        in_memory = database.slab_space()
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "feed.sqlite"
            import_graphs(path, iter(database)).close()
            source = open_source(path)
            try:
                from_store = source.slab_space()
            finally:
                source.close()
        if bound in ("below-min", "above-max") and edited in picks:
            # An out-of-range vertex declines the slab only when its
            # graph is one of the transactions; otherwise fall through.
            assert from_store is None and in_memory is None
            return
        if in_memory is None:
            assert from_store is None
            return
        assert from_store.labels == in_memory.labels
        assert from_store.tx_words == in_memory.tx_words
        for name in ("nbr", "presence", "vertices", "label_tx_counts"):
            assert np.array_equal(getattr(from_store, name), getattr(in_memory, name))

    @settings(max_examples=30, deadline=None)
    @given(
        graphs=st.lists(aligned_graphs(max_vertices=6), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_index_fed_slab_equals_memory_slab(self, graphs, data):
        # A re-opened imported store maps the index it stored at import.
        n_tx = data.draw(st.integers(1, 150), label="transactions")
        picks = data.draw(
            st.lists(st.integers(0, len(graphs) - 1), min_size=n_tx, max_size=n_tx),
            label="picks",
        )
        database = GraphDatabase([graphs[pick] for pick in picks])
        in_memory = database.slab_space()
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "indexed.sqlite"
            import_graphs(path, iter(database)).close()
            source = open_source(path)
            try:
                from_store = source.slab_space()
            finally:
                source.close()
        if in_memory is None:
            assert from_store is None
            return
        assert_same_slab(from_store, in_memory)
        # Mapped read-only from the stored index, not built from rows.
        assert not any(
            getattr(from_store, name).flags.writeable
            for name in ("nbr", "presence", "vertices")
        )


def assert_same_slab(got, expected) -> None:
    assert got.labels == expected.labels
    assert got.tx_words == expected.tx_words
    for name in ("nbr", "presence", "vertices", "label_tx_counts"):
        assert np.array_equal(getattr(got, name), getattr(expected, name))


class TestStoredSlabIndex:
    """Version-1 and appended stores build the slab from their rows."""

    @pytest.fixture(scope="class")
    def aligned_db(self) -> GraphDatabase:
        return unique_label_database(4, n_graphs=30)

    @pytest.fixture
    def indexed_path(self, aligned_db, tmp_path):
        path = tmp_path / "indexed.sqlite"
        import_graphs(path, iter(aligned_db), name=aligned_db.name).close()
        return path

    @staticmethod
    def _count(path, table) -> int:
        conn = sqlite3.connect(path)
        try:
            return conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        finally:
            conn.close()

    def test_version_1_store_builds_from_rows_and_is_not_written(
        self, aligned_db, indexed_path, monkeypatch
    ):
        # A version-1 store: no index table, schema_version 1.
        conn = sqlite3.connect(indexed_path)
        try:
            conn.execute("DROP TABLE slab_index")
            conn.execute("UPDATE meta SET value = '1' WHERE key = 'schema_version'")
            conn.commit()
            conn.execute("VACUUM")
        finally:
            conn.close()
        before = indexed_path.read_bytes()
        parsed = []
        monkeypatch.setattr(storage, "parse_row", _counting(parsed, parse_row))
        request = MiningRequest(min_sup=2)
        expected = canonical(request, execute_request(aligned_db, request))
        source = open_source(indexed_path)
        try:
            assert source.schema_version() == 1 < SCHEMA_VERSION
            built = source.slab_space()
            assert sorted(parsed) == list(range(len(aligned_db)))
            assert built.nbr.flags.writeable
            assert_same_slab(built, aligned_db.slab_space())
            database = GraphDatabase(source=source)
            assert canonical(request, execute_request(database, request)) == expected
            assert canonical(request, mine_sharded(database, request, shards=4)) == expected
        finally:
            source.close()
        assert indexed_path.read_bytes() == before

    def test_append_drops_the_index(self, aligned_db, indexed_path):
        request = MiningRequest(min_sup=2)
        extra = Graph.from_edges({0: "T00", 1: "T03", 2: "NEW"}, [(0, 1), (1, 2), (0, 2)])
        grown = GraphDatabase(list(aligned_db) + [extra])
        assert self._count(indexed_path, "slab_index") == 1
        source = open_source(indexed_path)
        try:
            assert not source.slab_space().nbr.flags.writeable
            GraphDatabase(source=source).add(extra.copy())
            # Committed with the row: another connection sees both.
            assert self._count(indexed_path, "slab_index") == 0
            assert self._count(indexed_path, "graphs") == len(grown)
            rebuilt = source.slab_space()
            assert rebuilt.nbr.flags.writeable
            assert_same_slab(rebuilt, grown.slab_space())
            got = execute_request(GraphDatabase(source=source), request)
            assert canonical(request, got) == canonical(
                request, execute_request(grown, request)
            )
        finally:
            source.close()


class TestAlignedStoreProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        database=aligned_databases(min_graphs=2, max_graphs=8, max_vertices=6),
        data=st.data(),
    )
    def test_store_mines_like_memory(self, database, data):
        task, options = data.draw(st.sampled_from(TASKS[:4]), label="task")
        request = MiningRequest(min_sup=1, task=task, **options)
        expected = canonical(request, execute_request(database, request))
        shards = data.draw(st.integers(1, len(database)), label="shards")
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "aligned.sqlite"
            import_graphs(path, iter(database), name=database.name).close()
            source = open_source(path)
            try:
                store = GraphDatabase(source=source)
                assert canonical(request, execute_request(store, request)) == expected
                sharded = mine_sharded(store, request, shards=shards)
                assert canonical(request, sharded) == expected
            finally:
                source.close()
