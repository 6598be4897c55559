"""Tests for the pluggable storage seam (repro.graphdb.storage/schema).

Covers the GraphSource contract for both backends, the SQLite store's
round-trip fidelity, fingerprint portability across backends, the
no-copy subset/replicate contract, and the streaming readers' parity
with the eager parsers.
"""

import io
import pickle
import re
import sqlite3

import pytest
from hypothesis import given, settings

from repro.chem import ca_like_database
from repro.core.api import MiningRequest, MiningResultEnvelope, execute_request
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
from repro.graphdb import storage
from repro.graphdb.schema import decode_graph, encode_graph, parse_row
from repro.io import gspan_format, json_format
from repro.io.runlog import database_fingerprint

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
