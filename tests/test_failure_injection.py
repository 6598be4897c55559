"""Failure-injection tests: the library must fail loudly and precisely."""

import pytest

from repro.cli import main
from repro.core import (
    CanonicalForm,
    ClanMiner,
    EmbeddingStore,
    MinerConfig,
    MiningResult,
    make_pattern,
)
from repro.exceptions import (
    DatabaseError,
    InvalidSupportError,
    MiningError,
    PatternError,
    ReproError,
)
from repro.graphdb import Graph, GraphDatabase, PseudoDatabase, paper_example_database


class TestExceptionHierarchy:
    def test_everything_derives_from_repro_error(self):
        for exc_type in (DatabaseError, InvalidSupportError, MiningError, PatternError):
            assert issubclass(exc_type, ReproError)

    def test_invalid_support_carries_value(self):
        db = paper_example_database()
        with pytest.raises(InvalidSupportError) as excinfo:
            db.absolute_support(0)
        assert excinfo.value.value == 0


class TestMinerGuards:
    def test_max_embeddings_names_the_prefix(self, paper_db):
        config = MinerConfig(max_embeddings=1)
        with pytest.raises(MiningError) as excinfo:
            ClanMiner(paper_db, config).mine(2)
        assert "max_embeddings" in str(excinfo.value)

    def test_mining_empty_database_fails_cleanly(self):
        with pytest.raises(DatabaseError):
            ClanMiner(GraphDatabase()).mine(1)

    def test_extension_invariant_violation_detected(self, paper_db, monkeypatch):
        """If the extension scan and materialisation ever disagree, the
        miner must crash rather than report wrong supports."""
        original = EmbeddingStore.extend

        def corrupted(self, label, last_label):
            store = original(self, label, last_label)
            if store.by_transaction:
                # Drop one transaction's embeddings: support shrinks.
                tid = next(iter(store.by_transaction))
                del store.by_transaction[tid]
            return store

        monkeypatch.setattr(EmbeddingStore, "extend", corrupted)
        with pytest.raises(MiningError) as excinfo:
            ClanMiner(paper_db).mine(2)
        assert "predicted support" in str(excinfo.value)


class TestResultGuards:
    def test_duplicate_form_rejected(self):
        result = MiningResult([make_pattern("ab", 2)])
        with pytest.raises(PatternError):
            result.add(make_pattern("ab", 3))

    def test_expand_on_size_filtered_lattice_detected(self, paper_db):
        """critical_path on a non-prefix-closed lattice names the gap."""
        from repro.core import CliqueLattice

        lattice = CliqueLattice([make_pattern("abc", 2)])
        with pytest.raises(PatternError) as excinfo:
            lattice.critical_path(CanonicalForm.from_labels("abc"))
        assert "prefix-closed" in str(excinfo.value)


class TestCliErrorPaths:
    def test_missing_input_file(self, capsys):
        assert main(["mine", "/nonexistent/nowhere.tve"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_database_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.tve"
        bad.write_text("v 0 a\n")  # vertex before any transaction
        assert main(["mine", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_unwritable_output(self, tmp_path, capsys):
        from repro.io import gspan_format

        db_file = tmp_path / "ok.tve"
        gspan_format.save_database(paper_example_database(), db_file)
        assert main([
            "mine", str(db_file), "--min-sup", "2",
            "--output", "/nonexistent-dir/x.txt",
        ]) == 2

    def test_convert_bad_source_format_content(self, tmp_path, capsys):
        bad = tmp_path / "notmatrix.matrix"
        bad.write_text("a b c\n")
        assert main(["convert", str(bad), str(tmp_path / "o.json"),
                     "--from", "matrix", "--to", "json"]) == 2

    def test_diff_with_missing_file(self, capsys):
        assert main(["diff", "/no/left.txt", "/no/right.txt"]) == 2


class TestCorruptedGraphsSurfaceEarly:
    def test_verify_catches_tampered_witness(self, paper_db):
        from repro.core import mine_closed_cliques

        result = mine_closed_cliques(paper_db, 2)
        pattern = next(iter(result))
        tampered = make_pattern(
            pattern.labels,
            pattern.support,
            pattern.transactions,
            witnesses={pattern.transactions[0]: (1, 2, 3, 6)},  # not a clique
        )
        with pytest.raises(PatternError):
            tampered.verify(paper_db)

    def test_validation_catches_adjacency_corruption_before_mining(self):
        from repro.graphdb import validate_database

        g = Graph.from_edges({0: "a", 1: "b"}, [(0, 1)])
        g._adjacency[1].discard(0)  # break symmetry behind the API's back
        report = validate_database(GraphDatabase([g]))
        assert not report.ok
