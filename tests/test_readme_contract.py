"""The README's code snippets and claims, executed verbatim.

If the README drifts from the library, this file fails.
"""

from pathlib import Path

import pytest

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


class TestQuickstartSnippets:
    def test_running_example_snippet(self):
        from repro import mine, paper_example_database

        database = paper_example_database()
        result = mine(database, min_sup=2)
        assert [p.key() for p in result] == ["abcd:2", "bde:2"]

    def test_facade_matches_legacy_wrappers(self):
        """The README's claim: the per-task functions remain supported
        and agree with the façade, byte for byte."""
        from repro import MiningRequest, mine
        from repro import mine_closed_cliques, mine_frequent_cliques
        from repro import paper_example_database

        database = paper_example_database()
        assert [p.key() for p in mine(database, 2)] == [
            p.key() for p in mine_closed_cliques(database, 2)
        ]
        assert [p.key() for p in mine(database, MiningRequest(min_sup=2, task="frequent"))] == [
            p.key() for p in mine_frequent_cliques(database, 2)
        ]
        assert [p.key() for p in mine(database, "100%")] == [
            p.key() for p in mine(database, 2)
        ]

    def test_own_data_snippet(self):
        from repro import Graph, GraphDatabase, mine_closed_cliques

        g = Graph()
        g.add_vertex(0, "a")
        g.add_vertex(1, "b")
        g.add_vertex(2, "c")
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.add_edge(1, 2)
        db = GraphDatabase([g, g.copy()])
        result = mine_closed_cliques(db, min_sup=1.0)
        assert [p.key() for p in result] == ["abc:2"]

    def test_long_running_mines_snippet(self):
        from repro import MiningBudget, MiningRequest, mine, paper_example_database

        database = paper_example_database()
        request = MiningRequest(
            min_sup=2, budget=MiningBudget(max_expanded_prefixes=3)
        )
        partial = mine(database, request)
        if partial.truncated:
            finished = mine(
                database, min_sup=2, root_labels=partial.completed_roots
            )
            assert [p.key() for p in partial] == [p.key() for p in finished]
        # The README also promises the truncation actually triggers on
        # this example (3 prefixes cannot cover all five roots).
        assert partial.truncated

    def test_long_running_cli_flags_exist(self):
        """Every session flag the README shows is a real mine option."""
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        mine_options = {
            option
            for action in sub.choices["mine"]._actions
            for option in action.option_strings
        }
        for flag in ("--progress", "--deadline", "--max-patterns",
                     "--trace", "--checkpoint", "--resume"):
            assert flag in mine_options, flag
        for flag in ("--progress", "--deadline", "--trace",
                     "--checkpoint", "--resume"):
            assert flag in README, flag

    def test_scaling_out_snippet(self):
        from repro import MiningExecutor, MiningRequest, mine, paper_example_database

        database = paper_example_database()
        serial = mine(database, MiningRequest(min_sup=2))
        parallel = mine(database, MiningRequest(min_sup=2, processes=2))
        assert [p.key() for p in serial] == [p.key() for p in parallel]
        # The prose's deprecated "static" spelling: it warns, and the
        # request it builds is the stealing one, so the results match.
        with pytest.warns(DeprecationWarning, match="static"):
            static = MiningRequest(min_sup=2, processes=2, scheduler="static")
        assert static == MiningRequest(min_sup=2, processes=2)
        assert [p.key() for p in mine(database, static)] == [p.key() for p in parallel]
        with MiningExecutor(database, processes=2) as executor:
            sizes = {min_sup: len(executor.mine(min_sup)) for min_sup in (2, 1)}
            report = executor.last_report
        assert sizes[2] == 2
        assert sizes[1] >= sizes[2]
        assert report.tasks >= report.roots

    def test_scaling_out_cli_flags_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        mine_options = {
            option
            for action in sub.choices["mine"]._actions
            for option in action.option_strings
        }
        for flag in ("--processes", "--scheduler"):
            assert flag in mine_options, flag
            assert flag in README, flag

    def test_out_of_core_snippet(self, tmp_path):
        from repro import GraphDatabase, MiningRequest, mine, mine_sharded
        from repro.graphdb import import_graphs, open_source, paper_example_database

        database = paper_example_database()
        store = tmp_path / "big.sqlite"
        import_graphs(store, iter(database), name="big").close()
        view = GraphDatabase(source=open_source(store))
        result = mine_sharded(view, MiningRequest(min_sup=2), shard_size=1024)
        assert [p.key() for p in result] == [
            p.key() for p in mine(database, min_sup=2)
        ]

    def test_out_of_core_cli_flags_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        assert "import" in sub.choices
        assert "clan import" in README
        mine_options = {
            option
            for action in sub.choices["mine"]._actions
            for option in action.option_strings
        }
        for flag in ("--db", "--shards", "--shard-size"):
            assert flag in mine_options, flag
            assert flag in README, flag

    def test_serve_snippet_wire_format_is_valid(self):
        """The curl body in 'Mining as a service' is a valid request."""
        import re

        from repro import MiningRequest

        match = re.search(r"-d '(\{.*?\})'", README, re.S)
        assert match, "README curl example with a request body not found"
        request = MiningRequest.from_json(match.group(1))
        assert request == MiningRequest(min_sup=2)

    def test_stock_market_snippet(self):
        from repro import mine_closed_cliques
        from repro.stockmarket import maximum_group, stock_market_database

        db = stock_market_database(theta=0.90)
        result = mine_closed_cliques(db, min_sup=1.0)
        top = maximum_group(result, n_periods=len(db))
        described = top.describe()
        for ticker in ("DMF", "IQM", "XAA"):
            assert ticker in described
        assert "12 stocks" in described
        assert "100%" in described


class TestReadmeReferences:
    def test_referenced_files_exist(self):
        root = Path(__file__).resolve().parent.parent
        for name in ("DESIGN.md", "EXPERIMENTS.md", "docs/ALGORITHM.md"):
            assert name in README
            assert (root / name).exists(), name

    def test_cli_commands_mentioned_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        available = set(sub.choices)
        for command in ("mine", "sweep", "topk", "quasi", "serve", "submit",
                        "watch-job", "lattice", "stats",
                        "validate", "convert", "diff", "record", "replay",
                        "generate", "experiments"):
            assert f"clan {command}" in README, command
            assert command in available, command

    def test_install_commands_present(self):
        assert "pip install -e ." in README
        assert "python setup.py develop" in README
