"""End-to-end tests of the command-line interface."""

import pytest

from repro.cli import _parse_min_sup, build_parser, main
from repro.graphdb import paper_example_database
from repro.io import gspan_format


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.tve"
    gspan_format.save_database(paper_example_database(), path)
    return str(path)


class TestParsing:
    def test_parse_min_sup_variants(self):
        assert _parse_min_sup("2") == 2
        assert isinstance(_parse_min_sup("2"), int)
        assert _parse_min_sup("0.85") == pytest.approx(0.85)
        assert _parse_min_sup("85%") == pytest.approx(0.85)
        assert _parse_min_sup("100%") == pytest.approx(1.0)

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMine:
    def test_mine_prints_closed_patterns(self, example_file, capsys):
        assert main(["mine", example_file, "--min-sup", "2"]) == 0
        out = capsys.readouterr().out
        assert "abcd:2" in out
        assert "bde:2" in out

    def test_mine_all_frequent(self, example_file, capsys):
        assert main(["mine", example_file, "--min-sup", "2", "--all-frequent"]) == 0
        out = capsys.readouterr().out
        assert out.count(":2") == 19

    def test_mine_percentage_support(self, example_file, capsys):
        assert main(["mine", example_file, "--min-sup", "100%"]) == 0
        assert "abcd:2" in capsys.readouterr().out

    def test_mine_min_size(self, example_file, capsys):
        assert main(["mine", example_file, "--min-sup", "2", "--min-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "abcd:2" in out
        assert "bde:2" not in out

    def test_mine_to_output_file(self, example_file, tmp_path, capsys):
        out_file = tmp_path / "patterns.txt"
        assert main([
            "mine", example_file, "--min-sup", "2", "--output", str(out_file)
        ]) == 0
        assert out_file.read_text().splitlines() == ["abcd:2", "bde:2"]

    def test_mine_stats_flag(self, example_file, capsys):
        assert main(["mine", example_file, "--min-sup", "2", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "prefixes=" in err

    def test_invalid_support_is_reported(self, example_file, capsys):
        # Mining-configuration errors (MiningError) exit 3; plain usage
        # errors exit 2 (see the exit-code table in repro.cli).
        assert main(["mine", example_file, "--min-sup", "99"]) == 3
        assert "error:" in capsys.readouterr().err


class TestStatsAndLattice:
    def test_stats_table(self, example_file, capsys):
        assert main(["stats", example_file]) == 0
        out = capsys.readouterr().out
        assert "Avg. # vertices" in out

    def test_stats_extended(self, example_file, capsys):
        assert main(["stats", example_file, "--extended"]) == 0
        assert "Max degree" in capsys.readouterr().out

    def test_lattice_render(self, example_file, capsys):
        assert main(["lattice", example_file, "--min-sup", "2"]) == 0
        out = capsys.readouterr().out
        assert "[abcd:2]" in out

    def test_lattice_dot(self, example_file, capsys):
        assert main(["lattice", example_file, "--min-sup", "2", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestGenerate:
    def test_generate_example_round_trip(self, tmp_path, capsys):
        out = tmp_path / "example.tve"
        assert main(["generate", "example", str(out)]) == 0
        db = gspan_format.open_database(out)
        assert len(db) == 2

    def test_generate_chem(self, tmp_path, capsys):
        out = tmp_path / "chem.tve"
        assert main(["generate", "chem", str(out), "--compounds", "15"]) == 0
        db = gspan_format.open_database(out)
        assert len(db) == 15

    def test_generate_stock_tiny(self, tmp_path, capsys):
        out = tmp_path / "stock.json"
        assert main([
            "generate", "stock", str(out), "--scale", "tiny",
            "--theta", "0.93", "--format", "json",
        ]) == 0
        from repro.io import json_format

        db = json_format.open_database(out)
        assert len(db) == 11


class TestKernelDefault:
    @pytest.fixture
    def market_file(self, tmp_path):
        path = tmp_path / "stock.json"
        assert main([
            "generate", "stock", str(path), "--scale", "tiny",
            "--theta", "0.95", "--format", "json",
        ]) == 0
        return str(path)

    @pytest.mark.parametrize("command", [
        ["mine", "--min-sup", "0.9", "--stats"],
        ["sweep", "--min-sups", "1.0,0.9"],
        ["topk", "--min-sup", "0.9", "-k", "3"],
    ])
    def test_aligned_database_mines_on_the_slab_path(
        self, market_file, command, monkeypatch, capsys
    ):
        # Without --kernel the command defers to MinerConfig's default:
        # unique ticker labels put every root on the slab store.
        from repro.core.slab_store import SlabEmbeddingStore

        roots = []
        for_root = SlabEmbeddingStore.for_root.__func__

        def counting(cls, slab, label, *args, **kwargs):
            roots.append(label)
            return for_root(cls, slab, label, *args, **kwargs)

        monkeypatch.setattr(SlabEmbeddingStore, "for_root", classmethod(counting))
        def output():
            lines = capsys.readouterr().out.splitlines()
            if name == "sweep":  # drop the wall-clock column
                lines = [line.rsplit(None, 1)[0] for line in lines]
            return lines

        name, *options = command
        argv = [name, market_file, "--format", "json", *options]
        assert main(argv) == 0
        default_out = output()
        assert roots
        roots.clear()
        assert main(argv + ["--kernel", "bitset"]) == 0
        assert not roots
        assert output() == default_out


class TestExperiments:
    def test_experiments_lists_all_artifacts(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for item in ("Table 1", "Figure 5", "Figure 6(a)", "Figure 6(b)",
                     "Figure 7(a)", "Figure 7(b)"):
            assert item in out
