"""Unit tests for MinerConfig validation and ablation helpers."""

import pytest

from repro.core import CACHED, RESCAN, ClanMiner, MinerConfig
from repro.exceptions import MiningError


class TestValidation:
    def test_defaults_are_paper_defaults(self):
        config = MinerConfig.paper_defaults()
        assert config.closed_only
        assert config.structural_redundancy_pruning
        assert config.low_degree_pruning
        assert config.nonclosed_prefix_pruning
        assert config.embedding_strategy == CACHED

    def test_min_size_must_be_positive(self):
        with pytest.raises(MiningError):
            MinerConfig(min_size=0)

    def test_max_size_must_cover_min_size(self):
        with pytest.raises(MiningError):
            MinerConfig(min_size=3, max_size=2)
        MinerConfig(min_size=3, max_size=3)

    def test_bad_strategy(self):
        with pytest.raises(MiningError):
            MinerConfig(embedding_strategy="telepathy")

    def test_nonclosed_prefix_requires_closed_only(self):
        with pytest.raises(MiningError):
            MinerConfig(closed_only=False)
        MinerConfig(closed_only=False, nonclosed_prefix_pruning=False)

    def test_nonclosed_prefix_requires_redundancy_pruning(self):
        with pytest.raises(MiningError):
            MinerConfig(structural_redundancy_pruning=False)
        MinerConfig(
            structural_redundancy_pruning=False, nonclosed_prefix_pruning=False
        )

    def test_max_embeddings_positive(self):
        with pytest.raises(MiningError):
            MinerConfig(max_embeddings=0)
        MinerConfig(max_embeddings=10)


class TestHelpers:
    def test_all_frequent(self):
        config = MinerConfig.all_frequent()
        assert not config.closed_only
        assert not config.nonclosed_prefix_pruning

    def test_without_each_pruning(self):
        base = MinerConfig()
        assert not base.without("low_degree").low_degree_pruning
        assert not base.without("nonclosed_prefix").nonclosed_prefix_pruning
        relaxed = base.without("structural_redundancy")
        assert not relaxed.structural_redundancy_pruning
        # Dependent pruning is switched off too (Lemma 4.4 soundness).
        assert not relaxed.nonclosed_prefix_pruning

    def test_without_unknown(self):
        with pytest.raises(MiningError):
            MinerConfig().without("magic")

    def test_rescan_strategy_accepted(self):
        assert MinerConfig(embedding_strategy=RESCAN).embedding_strategy == RESCAN


class TestSetKernelDeprecated:
    """Stage 1 of the deprecation policy for ``kernel="set"``.

    The hashed-set kernel now lives only in ``tests/oracles.py``.  Every
    public spelling of it still works: it warns (naming ``"bitset"``)
    and runs the bitset kernel, so patterns and statistics equal a
    bitset mine's.
    """

    @staticmethod
    def bitset_mine(database, min_sup=2):
        return ClanMiner(database, MinerConfig(kernel="bitset")).mine(min_sup)

    @staticmethod
    def assert_same(result, expected):
        assert [p.key() for p in result] == [p.key() for p in expected]
        assert [p.witnesses for p in result] == [p.witnesses for p in expected]
        assert result.statistics.snapshot() == expected.statistics.snapshot()

    def test_config_warns_and_becomes_bitset(self, paper_db):
        with pytest.warns(DeprecationWarning, match="bitset"):
            config = MinerConfig(kernel="set")
        assert config == MinerConfig(kernel="bitset")
        assert config.to_dict()["kernel"] == "bitset"
        self.assert_same(ClanMiner(paper_db, config).mine(2), self.bitset_mine(paper_db))

    def test_with_kernel_warns(self, paper_db):
        with pytest.warns(DeprecationWarning, match="bitset"):
            config = MinerConfig(min_size=2).with_kernel("set")
        assert config == MinerConfig(min_size=2, kernel="bitset")

    def test_unknown_kernel_still_raises(self):
        with pytest.raises(MiningError, match="kernel"):
            MinerConfig(kernel="hashed")

    def test_mining_request_warns_once(self, paper_db):
        import warnings

        from repro import MiningRequest, mine

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            request = MiningRequest(min_sup=2, kernel="set")
        assert [w.category for w in caught] == [DeprecationWarning]
        assert "bitset" in str(caught[0].message)
        assert request.kernel == "bitset"
        expected = mine(paper_db, MiningRequest(min_sup=2, kernel="bitset"))
        self.assert_same(mine(paper_db, request), expected)

    def test_saved_config_and_request_load(self):
        from repro import MiningRequest

        payload = MinerConfig(min_size=2, kernel="bitset").to_dict()
        payload["kernel"] = "set"
        with pytest.warns(DeprecationWarning, match="bitset"):
            loaded = MinerConfig.from_dict(payload)
        assert loaded == MinerConfig(min_size=2, kernel="bitset")
        request = MiningRequest(min_sup=2, kernel="bitset").to_dict()
        request["kernel"] = "set"
        with pytest.warns(DeprecationWarning, match="bitset"):
            assert MiningRequest.from_dict(request).kernel == "bitset"

    def test_checkpoint_saved_with_set_resumes(self, tmp_path):
        from repro.core import MiningBudget, MiningSession
        from repro.io.runlog import open_checkpoint, save_checkpoint
        from tests.conftest import make_random_database

        database = make_random_database(3)
        config = MinerConfig(kernel="bitset")
        session = MiningSession(
            database, 1, config=config, budget=MiningBudget(max_expanded_prefixes=5)
        )
        assert session.run().truncated
        checkpoint = session.checkpoint()
        payload = checkpoint.to_dict()
        payload["config"]["kernel"] = "set"
        path = tmp_path / "ckpt.json"
        save_checkpoint(type(checkpoint).from_dict(payload), path)
        reopened = open_checkpoint(path)
        with pytest.warns(DeprecationWarning, match="bitset"):
            saved = MinerConfig.from_dict(reopened.config)
        final = MiningSession(database, 1, config=saved, resume_from=reopened).run()
        assert not final.truncated
        self.assert_same(final, self.bitset_mine(database, 1))

    def test_cli_mine_kernel_set(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graphdb import paper_example_database
        from repro.io import gspan_format

        path = tmp_path / "example.tve"
        gspan_format.save_database(paper_example_database(), path)
        args = ["mine", str(path), "--min-sup", "2", "--stats", "--kernel"]

        def patterns_and_counters(captured):
            # --stats writes the counters to stderr after a timed header.
            return captured.out, captured.err.splitlines()[1:]

        assert main(args + ["bitset"]) == 0
        expected = patterns_and_counters(capsys.readouterr())
        assert expected[1] and expected[1][0].startswith("# prefixes=")
        with pytest.warns(DeprecationWarning, match="bitset"):
            assert main(args + ["set"]) == 0
        assert patterns_and_counters(capsys.readouterr()) == expected
