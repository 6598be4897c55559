"""Tests for the pluggable storage seam (repro.graphdb.storage/schema).

Covers the GraphSource contract for both backends, the SQLite store's
round-trip fidelity, fingerprint portability across backends, the
no-copy subset/replicate contract, and the streaming readers' parity
with the eager parsers.
"""

import hashlib
import io
import json
import multiprocessing
import os
import pickle
import re
import sqlite3
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings

import repro

from repro.chem import ca_like_database
from repro.core.api import MiningRequest, MiningResultEnvelope, execute_request
from repro.core.executor import MiningExecutor
from repro.exceptions import DatabaseError
from repro.graphdb import (
    Graph,
    GraphDatabase,
    InMemoryGraphSource,
    SqliteGraphSource,
    create_store,
    fingerprint_digests,
    import_graphs,
    open_source,
    paper_example_database,
    random_database,
    transaction_digest,
)
from repro.graphdb import slab, storage
from repro.graphdb.schema import decode_graph, encode_graph, parse_row
from repro.io import gspan_format, json_format
from repro.io.runlog import database_fingerprint
from repro.stockmarket.datasets import stock_market_database

from tests.strategies import graph_databases
from tests.test_kernel_differential import unique_label_database


def tricky_db() -> GraphDatabase:
    """Labels chosen to break any positional text encoding."""
    g1 = Graph.from_edges({0: "a;b", 1: "x=y", 2: "µ"}, [(0, 1), (1, 2)])
    g2 = Graph.from_edges({3: "t#0", 7: 'q"r'}, [(3, 7)])
    g3 = Graph()
    g3.add_vertex(0, "lonely")
    return GraphDatabase([g1, g2, g3], name="tricky")


class TestSchema:
    def test_encode_decode_round_trip(self):
        for tid, graph in enumerate(tricky_db()):
            again = decode_graph(encode_graph(graph), tid)
            assert again == graph
            assert again.graph_id == tid

    def test_digest_is_structural(self):
        db = tricky_db()
        assert transaction_digest(db[0]) != transaction_digest(db[1])
        copy = decode_graph(encode_graph(db[0]), 99)
        assert transaction_digest(copy) == transaction_digest(db[0])

    def test_parse_row_sorts_vertices_and_keeps_repeated_edges(self):
        text = '{"e":[[9,2],[2,9],[2,5]],"v":[[9,"z"],[2,"x"],[5,"y"]]}'
        vertices, labels, ends = parse_row(text, 0)
        assert (vertices, labels) == ([2, 5, 9], ["x", "y", "z"])
        assert ends == ([2, 0, 0], [0, 2, 1])
        graph = decode_graph(text, 0)
        assert graph == Graph.from_edges({2: "x", 5: "y", 9: "z"}, [(2, 9), (2, 5)])
        assert graph.edge_count == 2

    def test_fingerprint_folds_digests_in_order(self):
        db = tricky_db()
        digests = [transaction_digest(g) for g in db]
        assert fingerprint_digests(digests) != fingerprint_digests(digests[::-1])


class TestSqliteSource:
    @pytest.fixture()
    def store(self, tmp_path):
        db = random_database(25, 8, 0.4, 3, seed=9)
        path = tmp_path / "db.sqlite"
        import_graphs(path, iter(db), name="rand25", commit_every=7)
        return db, open_source(path)

    def test_round_trip_get_and_iter(self, store):
        db, source = store
        assert len(source) == len(db)
        assert source.name == "rand25"
        for tid in (0, 13, 24):
            assert source.get(tid) == db[tid]
            assert source.get(tid).graph_id == tid
        assert list(source) == list(db)
        assert list(source.iter_range(5, 9)) == [db[t] for t in range(5, 9)]

    def test_out_of_range(self, store):
        _, source = store
        with pytest.raises(DatabaseError):
            source.get(len(source))

    def test_label_supports_without_decoding(self, store):
        db, source = store
        assert source.label_supports() == db.label_supports()

    def test_digests_from_stored_column(self, store):
        db, source = store
        assert list(source.transaction_digests()) == [
            transaction_digest(g) for g in db
        ]

    def test_tricky_labels_round_trip(self, tmp_path):
        db = tricky_db()
        path = tmp_path / "tricky.sqlite"
        import_graphs(path, iter(db), name="tricky")
        source = open_source(path)
        assert list(source) == list(db)

    def test_append_updates_supports_and_len(self, tmp_path):
        path = tmp_path / "grow.sqlite"
        source = create_store(path, name="grow")
        g = Graph.from_edges({0: "a", 1: "b"}, [(0, 1)])
        assert source.append(g) == 0
        assert source.append(g.copy(1)) == 1
        assert len(source) == 2
        assert source.label_supports() == {"a": 2, "b": 2}
        assert source.get(1) == g

    def test_open_source_rejects_non_store(self, tmp_path):
        path = tmp_path / "not-a-store.sqlite"
        path.write_text("this is not sqlite")
        with pytest.raises(DatabaseError):
            open_source(path)

    def test_import_into_populated_store_rejected(self, tmp_path):
        db = paper_example_database()
        path = tmp_path / "dup.sqlite"
        import_graphs(path, iter(db))
        with pytest.raises(DatabaseError):
            import_graphs(path, iter(db))

    def test_create_over_populated_store_writes_nothing(self, tmp_path):
        # Neither the name nor the schema version of the store changes.
        path = tmp_path / "kept.sqlite"
        import_graphs(path, iter(paper_example_database()), name="kept").close()
        before = path.read_bytes()
        with pytest.raises(DatabaseError, match="already holds 2 transactions"):
            create_store(path, name="other")
        assert path.read_bytes() == before

    def test_pickle_round_trip(self, store):
        db, source = store
        clone = pickle.loads(pickle.dumps(source))
        assert len(clone) == len(db)
        assert clone.get(3) == db[3]

    def test_iter_range_clips_to_the_store(self, store):
        db, source = store
        assert list(source.iter_range(-3, 2)) == [db[0], db[1]]
        assert list(source.iter_range(23, 99)) == [db[23], db[24]]
        assert list(source.iter_range(9, 9)) == []

    def test_serial_mine_decodes_each_transaction_once(self, store, monkeypatch):
        # Every root's store scans the database; a store that fits the
        # decode cache must still decode each transaction only once.
        db, source = store
        decoded = []

        def counting_decode(encoding, tid):
            decoded.append(tid)
            return decode_graph(encoding, tid)

        monkeypatch.setattr(storage, "decode_graph", counting_decode)
        request = MiningRequest(min_sup=2)
        result = execute_request(GraphDatabase(source=source), request)
        assert sorted(decoded) == list(range(len(source)))
        assert (
            MiningResultEnvelope.from_result(request, result).canonical_json()
            == MiningResultEnvelope.from_result(
                request, execute_request(db, request)
            ).canonical_json()
        )

    def test_no_aligned_or_slab_space(self, store):
        # This store repeats labels, so it has no slab index.
        _, source = store
        assert source.slab_space() is None


class TestForkedConnections:
    """SQLite forbids using a connection across ``fork()``."""

    def test_a_forked_child_opens_its_own_connection(self, tmp_path, monkeypatch):
        path = tmp_path / "db.sqlite"
        db = random_database(6, 6, 0.4, 3, seed=9)
        import_graphs(path, iter(db))
        source = open_source(path)
        inherited = source._connect()
        monkeypatch.setattr(storage.os, "getpid", lambda: -1)  # as in a child
        own = source._connect()
        assert own is not inherited
        assert source._connect() is own
        assert source.get(2) == db[2]
        source.close()
        monkeypatch.undo()
        # The child neither used nor closed the parent's connection.
        assert inherited.execute("SELECT COUNT(*) FROM graphs").fetchone() == (6,)
        inherited.close()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="logs connections through fork-inherited patches",
    )
    def test_pool_workers_never_use_the_parents_connection(
        self, tmp_path, monkeypatch
    ):
        # A forced two-worker pool over a store without a slab index,
        # decoding one transaction per batch, reads rows in its workers.
        path = tmp_path / "db.sqlite"
        db = random_database(25, 8, 0.4, 3, seed=9)
        import_graphs(path, iter(db))
        source = open_source(path, batch_size=1, max_batches=1)
        parent = source._connect()
        log = tmp_path / "connections.log"
        connect = SqliteGraphSource._connect

        def logged_connect(self):
            conn = connect(self)
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {id(conn)}\n")
            return conn

        monkeypatch.setattr(SqliteGraphSource, "_connect", logged_connect)
        with MiningExecutor(GraphDatabase(source=source), processes=2) as executor:
            result = executor.mine(2)
            assert executor.last_report.pool_started
        calls = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        in_workers = {int(conn) for pid, conn in calls if int(pid) != os.getpid()}
        assert in_workers
        assert id(parent) not in in_workers
        assert [p.key() for p in result] == [p.key() for p in repro.mine(db, 2)]
        source.close()


class TestFingerprintPortability:
    def test_backends_share_fingerprints(self, tmp_path):
        db = random_database(12, 7, 0.5, 3, seed=4)
        path = tmp_path / "db.sqlite"
        import_graphs(path, iter(db), name=db.name)
        sqlite_db = GraphDatabase(source=open_source(path))
        assert database_fingerprint(sqlite_db) == database_fingerprint(db)

    def test_shards_reassemble_the_fingerprint(self):
        db = random_database(10, 6, 0.5, 3, seed=8)
        digests = []
        for lo in range(0, 10, 3):
            shard = db.subset(range(lo, min(lo + 3, 10)))
            digests.extend(shard.transaction_digests())
        assert fingerprint_digests(digests) == database_fingerprint(db)

    def test_fingerprint_detects_structural_change(self):
        db = random_database(5, 6, 0.5, 3, seed=2)
        before = database_fingerprint(db)
        db[2].add_vertex(999, "new")
        assert database_fingerprint(db) != before


class TestSharingContract:
    def test_subset_of_large_database_copies_nothing(self):
        graph = Graph.from_edges({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2), (0, 2)])
        db = GraphDatabase(name="big")
        for _ in range(10_000):
            db.add(graph.copy())
        picked = list(range(0, 10_000, 7))
        sub = db.subset(picked)
        assert len(sub) == len(picked)
        for local, tid in enumerate(picked):
            assert sub[local] is db[tid]

    def test_replicate_shares_and_scales(self):
        db = paper_example_database()
        big = db.replicate(16)
        assert len(big) == 16 * len(db)
        assert all(big[i] is db[i % len(db)] for i in range(len(big)))


class TestStreamingReaders:
    def test_gspan_parity_fig6a(self, tmp_path):
        db = paper_example_database()
        path = tmp_path / "fig6a.tve"
        gspan_format.save_database(db, path)
        eager = gspan_format.open_database(path)
        streamed = list(gspan_format.iter_database_file(path))
        assert streamed == list(eager)

    def test_gspan_parity_chem(self, tmp_path):
        db = ca_like_database(n_compounds=12, seed=5)
        path = tmp_path / "chem.tve"
        gspan_format.save_database(db, path)
        eager = gspan_format.open_database(path)
        streamed = list(gspan_format.iter_database_file(path))
        assert streamed == list(eager)

    def test_gspan_streaming_errors_carry_line_numbers(self):
        from repro.exceptions import FormatError

        with pytest.raises(FormatError):
            list(gspan_format.iter_database(io.StringIO("v 0 a\n")))

    def test_json_parity_fig6a(self, tmp_path):
        db = paper_example_database()
        path = tmp_path / "fig6a.json"
        json_format.save_database(db, path)
        eager = json_format.open_database(path)
        streamed = list(json_format.iter_database_file(path))
        assert streamed == list(eager)

    def test_json_parity_chem(self, tmp_path):
        db = ca_like_database(n_compounds=12, seed=5)
        path = tmp_path / "chem.json"
        json_format.save_database(db, path)
        eager = json_format.open_database(path)
        streamed = list(json_format.iter_database_file(path))
        assert streamed == list(eager)

    def test_import_composes_with_streaming_reader(self, tmp_path):
        db = ca_like_database(n_compounds=10, seed=7)
        tve = tmp_path / "chem.tve"
        gspan_format.save_database(db, tve)
        store = tmp_path / "chem.sqlite"
        import_graphs(store, gspan_format.iter_database_file(tve), name="chem")
        sqlite_db = GraphDatabase(source=open_source(store))
        assert list(sqlite_db) == list(db)
        assert database_fingerprint(sqlite_db) == database_fingerprint(db)


class TestInMemorySource:
    def test_default_source_is_in_memory(self):
        db = GraphDatabase()
        assert isinstance(db.source, InMemoryGraphSource)

    def test_iter_range_and_contract_checks(self):
        db = paper_example_database()
        source = db.source
        assert list(source.iter_range(0, len(db))) == list(db)
        with pytest.raises(DatabaseError):
            source.get(len(db))

    def test_sqlite_database_view(self, tmp_path):
        db = paper_example_database()
        path = tmp_path / "paper.sqlite"
        import_graphs(path, iter(db), name="paper")
        view = GraphDatabase(source=open_source(path))
        assert isinstance(view.source, SqliteGraphSource)
        assert view.label_supports() == db.label_supports()
        assert view.total_vertices() == db.total_vertices()

    def test_slab_space_rebuilt_after_mutation(self):
        database = unique_label_database(3)
        first = database.slab_space()
        assert database.slab_space() is first  # cached while fresh
        graph = database[0]
        graph.add_vertex(max(graph.vertices()) + 1, "ZZZ")
        second = database.slab_space()
        assert second is not first
        assert "ZZZ" in second.bit_of
        appended = Graph()
        appended.add_vertex(0, "YYY")
        database.add(appended)
        third = database.slab_space()
        assert third is not second
        assert "YYY" in third.bit_of
        assert third.n_transactions == len(database)

    def test_duplicate_label_anywhere_disables_slab_space(self):
        database = unique_label_database(4)
        assert database.slab_space() is not None
        graph = database[0]
        existing_label = next(iter(graph.labels().values()))
        graph.add_vertex(max(graph.vertices()) + 1, existing_label)
        assert database.slab_space() is None

    @settings(deadline=None)
    @given(database=graph_databases())
    def test_slab_space_iff_unique_labels(self, database):
        # The builder also declines a database with no label at all.
        unique = all(graph.bit_index().unique_labels for graph in database)
        assert (database.slab_space() is not None) == (unique and bool(database.label_supports()))


#: Damaged encodings for transaction 1 of a three-transaction store.
CORRUPT_ROWS = {
    "bad-json": '{"e":[[0,1]],"v":[[0,"a"],[1,"b"]]',
    "missing-e": '{"v":[[0,"a"],[1,"b"]]}',
    "duplicate-vertex": '{"e":[],"v":[[0,"a"],[0,"b"]]}',
    "self-loop": '{"e":[[1,1]],"v":[[0,"a"],[1,"b"]]}',
    "unknown-vertex": '{"e":[[0,7]],"v":[[0,"a"],[1,"b"]]}',
}


def _set_index(conn, **columns) -> None:
    assignments = ", ".join(f"{column} = ?" for column in columns)
    conn.execute(f"UPDATE slab_index SET {assignments}", tuple(columns.values()))


def _index_column(conn, column):
    return conn.execute(f"SELECT {column} FROM slab_index").fetchone()[0]


def _truncate(conn, rehash: bool) -> None:
    arrays = _index_column(conn, "arrays")[:-1]
    if rehash:  # a consistent checksum: only the size check catches it
        _set_index(conn, arrays=arrays, checksum=hashlib.sha256(arrays).hexdigest())
    else:
        _set_index(conn, arrays=arrays)


def _flip_byte(conn) -> None:
    arrays = bytearray(_index_column(conn, "arrays"))
    arrays[0] ^= 0xFF
    _set_index(conn, arrays=bytes(arrays))


def _edit_layout(conn, edit) -> None:
    layout = json.loads(_index_column(conn, "layout"))
    edit(layout)
    _set_index(conn, layout=json.dumps(layout))


def _swap_dims(layout) -> None:
    layout[0][2] = layout[0][2][::-1]


def _widen_words(layout) -> None:
    layout[0][1] = layout[1][1] = "<u8"


#: Damage to the stored slab index of the three-transaction store; each
#: must fall back to building the slab from the rows.
INDEX_DAMAGE = {
    "truncated-blob": lambda conn: _truncate(conn, rehash=False),
    "truncated-rehashed": lambda conn: _truncate(conn, rehash=True),
    "flipped-byte": _flip_byte,
    "dropped-table": lambda conn: conn.execute("DROP TABLE slab_index"),
    "wrong-shape": lambda conn: _edit_layout(conn, _swap_dims),
    "wrong-dtype": lambda conn: _edit_layout(conn, _widen_words),
    "wrong-alphabet": lambda conn: _set_index(conn, labels=json.dumps(["a", "b", "d"])),
    "two-index-rows": lambda conn: conn.execute(
        "INSERT INTO slab_index SELECT * FROM slab_index"
    ),
    # A valid row edited under an intact index: the index is stale.
    "edited-row": lambda conn: conn.execute(
        "UPDATE graphs SET encoding = ? WHERE tid = 1", ('{"e":[],"v":[[0,"a"],[1,"b"]]}',)
    ),
}



class TestCorruptRows:
    """A damaged row surfaces as a DatabaseError naming store and tid."""

    @pytest.fixture(scope="class")
    def clean_path(self, tmp_path_factory):
        # Unique labels, so the store is aligned and slab_space parses rows.
        db = GraphDatabase(
            [
                Graph.from_edges({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)]),
                Graph.from_edges({0: "a", 1: "b"}, [(0, 1)]),
                Graph.from_edges({0: "a", 1: "c"}, [(0, 1)]),
            ]
        )
        path = tmp_path_factory.mktemp("clean") / "clean.sqlite"
        import_graphs(path, iter(db), name="clean").close()
        return path

    @pytest.fixture(params=sorted(CORRUPT_ROWS))
    def damaged(self, request, clean_path, tmp_path):
        path = self._damaged_copy(
            clean_path,
            tmp_path / f"{request.param}.sqlite",
            "UPDATE graphs SET encoding = ? WHERE tid = 1",
            (CORRUPT_ROWS[request.param],),
        )
        source = open_source(path)
        yield source
        source.close()

    @staticmethod
    def _damaged_copy(clean_path, path, statement, parameters=()):
        path.write_bytes(clean_path.read_bytes())
        conn = sqlite3.connect(path)
        try:
            conn.execute(statement, parameters)
            conn.commit()
        finally:
            conn.close()
        return path

    @staticmethod
    def _assert_names_row(source, info):
        assert type(info.value) is DatabaseError
        assert source.path in str(info.value)
        assert re.search(r"\btransaction 1\b", str(info.value))

    def test_clean_store_builds_a_slab(self, clean_path):
        source = open_source(clean_path)
        try:
            assert source.slab_space() is not None
        finally:
            source.close()

    def test_get(self, damaged):
        with pytest.raises(DatabaseError) as info:
            damaged.get(1)
        self._assert_names_row(damaged, info)

    def test_slab_space(self, damaged):
        with pytest.raises(DatabaseError) as info:
            damaged.slab_space()
        self._assert_names_row(damaged, info)

    def test_missing_row(self, clean_path, tmp_path):
        path = self._damaged_copy(
            clean_path, tmp_path / "gap.sqlite", "UPDATE graphs SET tid = 5 WHERE tid = 1"
        )
        source = open_source(path)
        try:
            for read in (lambda: source.get(1), source.slab_space):
                with pytest.raises(DatabaseError) as info:
                    read()
                self._assert_names_row(source, info)
        finally:
            source.close()

    @pytest.mark.parametrize("damage", sorted(INDEX_DAMAGE))
    def test_index_damage_falls_back_to_the_rows(self, clean_path, tmp_path, damage):
        path = tmp_path / f"{damage}.sqlite"
        path.write_bytes(clean_path.read_bytes())
        conn = sqlite3.connect(path)
        try:
            INDEX_DAMAGE[damage](conn)
            conn.commit()
        finally:
            conn.close()
        source = open_source(path)
        try:
            expected = GraphDatabase(list(source)).slab_space()
            got = source.slab_space()
        finally:
            source.close()
        # Built from the rows (writable arrays), not mapped from the index.
        assert got.nbr.flags.writeable
        assert got.labels == expected.labels and got.tx_words == expected.tx_words
        for name in ("nbr", "presence", "vertices", "label_tx_counts"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))


#: Graphs the interrupted imports below get through, and their batch.
STOP_AFTER, COMMIT_EVERY = 6, 4

_KILLED_IMPORT = """
import os, sys
from repro.graphdb import import_graphs
from repro.stockmarket.datasets import stock_market_database

def graphs():
    for at, graph in enumerate(stock_market_database(0.95, scale="tiny", seed=7)):
        if at == {stop}:
            os._exit(9)
        yield graph

import_graphs(sys.argv[1], graphs(), commit_every={commit})
"""


class TestInterruptedImport:
    """Every committed prefix of an import is a valid store."""

    @staticmethod
    def _assert_mines_like_memory(path, graphs):
        request = MiningRequest(min_sup="85%")
        source = open_source(path)
        try:
            prefix = GraphDatabase(graphs[: len(source)])
            assert source.label_supports() == prefix.label_supports()
            expected = execute_request(prefix, request)
            assert len(expected) > 0
            got = execute_request(GraphDatabase(source=source), request)
            envelopes = [
                MiningResultEnvelope.from_result(request, result).canonical_json()
                for result in (got, expected)
            ]
            assert envelopes[0] == envelopes[1]
            return len(source)
        finally:
            source.close()

    def test_generator_error_leaves_the_committed_prefix(self, tmp_path):
        graphs = list(stock_market_database(0.95, scale="tiny", seed=7))

        def interrupted():
            yield from graphs[:STOP_AFTER]
            raise RuntimeError("interrupted")

        path = tmp_path / "cut.sqlite"
        with pytest.raises(RuntimeError, match="interrupted"):
            import_graphs(path, interrupted(), commit_every=COMMIT_EVERY)
        assert self._assert_mines_like_memory(path, graphs) == COMMIT_EVERY

    def test_killed_process_leaves_the_committed_prefix(self, tmp_path):
        graphs = list(stock_market_database(0.95, scale="tiny", seed=7))
        path = tmp_path / "killed.sqlite"
        script = _KILLED_IMPORT.format(stop=STOP_AFTER, commit=COMMIT_EVERY)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env)
        assert done.returncode == 9
        assert self._assert_mines_like_memory(path, graphs) == COMMIT_EVERY

    def test_failure_before_the_index_write(self, tmp_path, monkeypatch):
        # The last batch and the index commit together, so the store
        # keeps the batches before it and builds its slab from rows.
        graphs = list(stock_market_database(0.95, scale="tiny", seed=7))

        def failing_pack(space):
            raise RuntimeError("index write failed")

        monkeypatch.setattr(slab, "pack_index", failing_pack)
        path = tmp_path / "no-index.sqlite"
        with pytest.raises(RuntimeError, match="index write failed"):
            import_graphs(path, iter(graphs), commit_every=COMMIT_EVERY)
        n_stored = self._assert_mines_like_memory(path, graphs)
        assert n_stored == len(graphs) - len(graphs) % COMMIT_EVERY
        source = open_source(path)
        try:
            built = source.slab_space()
            expected = GraphDatabase(graphs[:n_stored]).slab_space()
            assert built.nbr.flags.writeable
            assert np.array_equal(built.nbr, expected.nbr)
        finally:
            source.close()
