"""Tests for parallel mining over DFS roots."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import MiningRequest, MiningResultEnvelope, mine
from repro.core import (
    ClanMiner,
    MinerConfig,
    MinerStatistics,
    mine_closed_cliques,
    mine_closed_cliques_parallel,
    partition_roots,
)
from repro.exceptions import MiningError
from tests.conftest import make_random_database


class TestRootPartitioning:
    """``partition_roots`` is at stage 2 of the deprecation policy: it
    raises, and its message carries an expression that computes the
    round-robin chunks it used to return."""

    @staticmethod
    def recipe(labels, chunks):
        with pytest.raises(MiningError, match="partition_roots") as raised:
            partition_roots(labels, chunks)
        expression = re.search(r"use (\[tuple.*\])$", str(raised.value)).group(1)
        return eval(expression, {"labels": labels, "chunks": chunks})

    def test_round_robin(self):
        assert self.recipe(list("abcdef"), 2) == [("a", "c", "e"), ("b", "d", "f")]

    def test_more_chunks_than_labels(self):
        assert self.recipe(["a", "b"], 5) == [("a",), ("b",)]

    def test_empty_labels(self):
        assert self.recipe([], 3) == []

    def test_invalid_chunks(self):
        with pytest.raises(MiningError):
            partition_roots(["a"], 0)


class TestRootRestrictedMining:
    def test_single_root_subtree(self, paper_db):
        result = ClanMiner(paper_db).mine(2, root_labels=("b",))
        assert sorted(p.key() for p in result) == ["bde:2"]

    def test_union_over_roots_is_complete(self, paper_db):
        serial = mine_closed_cliques(paper_db, 2)
        pieces = []
        for label in "abcde":
            pieces.extend(ClanMiner(paper_db).mine(2, root_labels=(label,)))
        assert sorted(p.key() for p in pieces) == sorted(p.key() for p in serial)

    def test_roots_require_redundancy_pruning(self, paper_db):
        config = MinerConfig(
            closed_only=False,
            structural_redundancy_pruning=False,
            nonclosed_prefix_pruning=False,
        )
        with pytest.raises(MiningError):
            ClanMiner(paper_db, config).mine(2, root_labels=("a",))


def pooled(database, min_sup=2, **options):
    """Mine on a 2-worker pool through the typed request."""
    options.setdefault("processes", 2)
    return mine(database, MiningRequest(min_sup=min_sup, **options))


class TestParallelMining:
    def test_processes_one_bypasses_pool(self, paper_db):
        result = pooled(paper_db, processes=1)
        assert sorted(p.key() for p in result) == ["abcd:2", "bde:2"]

    def test_legacy_wrapper_warns_and_matches_the_request(self, paper_db):
        # Stage 2: the wrapper raises; its recipe mines like the request.
        with pytest.raises(MiningError, match="MiningRequest") as raised:
            mine_closed_cliques_parallel(paper_db, 2, processes=2)
        recipe = re.search(r"instead: (.*)$", str(raised.value)).group(1)
        scope = {"repro": repro, "database": paper_db, "min_sup": 2, "config": None}
        legacy = eval(recipe, {**scope, "processes": 2})
        assert [p.key() for p in legacy] == [p.key() for p in pooled(paper_db)]
        assert legacy.statistics.snapshot() == pooled(paper_db).statistics.snapshot()

    def test_two_processes_match_serial(self, paper_db):
        result = pooled(paper_db)
        assert sorted(p.key() for p in result) == ["abcd:2", "bde:2"]

    def test_result_order_is_canonical(self, paper_db):
        result = pooled(paper_db)
        forms = [p.form.labels for p in result]
        assert forms == sorted(forms)

    def test_statistics_are_merged(self, paper_db):
        parallel = pooled(paper_db)
        serial = mine_closed_cliques(paper_db, 2)
        # Per-subtree work is identical; only the level-1 scan repeats.
        assert parallel.statistics.closed_cliques == serial.statistics.closed_cliques
        assert parallel.statistics.nonclosed_prefix_prunes == (
            serial.statistics.nonclosed_prefix_prunes
        )
        assert parallel.statistics.max_depth == serial.statistics.max_depth

    def test_requires_redundancy_pruning(self, paper_db):
        config = MinerConfig(
            closed_only=False,
            structural_redundancy_pruning=False,
            nonclosed_prefix_pruning=False,
        )
        with pytest.raises(MiningError, match="structural redundancy"):
            pooled(paper_db, task="frequent", config=config)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_serial_on_random_databases(self, seed):
        db = make_random_database(seed)
        parallel = pooled(db)
        serial = mine_closed_cliques(db, 2)
        assert sorted(p.key() for p in parallel) == sorted(p.key() for p in serial)

    def test_witnesses_preserved(self, paper_db):
        for pattern in pooled(paper_db):
            pattern.verify(paper_db)

    @pytest.mark.parametrize("scheduler", ["static", "stealing"])
    def test_schedulers_match_serial(self, paper_db, scheduler):
        if scheduler == "static":
            # Deprecated (stage 1): warns, and is the stealing request.
            with pytest.warns(DeprecationWarning, match="static"):
                request = MiningRequest(min_sup=2, processes=2, scheduler=scheduler)
            assert request == MiningRequest(min_sup=2, processes=2)
        else:
            request = MiningRequest(min_sup=2, processes=2, scheduler=scheduler)
        result = mine(paper_db, request)
        serial = mine_closed_cliques(paper_db, 2)
        assert sorted(p.key() for p in result) == sorted(p.key() for p in serial)
        assert result.statistics.snapshot() == serial.statistics.snapshot()
        stealing = MiningRequest(min_sup=2, processes=2)
        assert MiningResultEnvelope.from_result(request, result).canonical_json() == (
            MiningResultEnvelope.from_result(stealing, mine(paper_db, stealing))
            .canonical_json()
        )

    def test_unknown_scheduler_rejected(self, paper_db):
        with pytest.raises(MiningError, match="scheduler"):
            pooled(paper_db, scheduler="fifo")


class TestStatisticsMerge:
    """Regression tests for the merged-statistics contract.

    Historically the pool summed per-chunk ``database_scans`` (counting
    the label-support scan once per worker) and stamped a sum of
    per-chunk elapsed times over the wall clock; merged results now
    report wall-clock ``elapsed_seconds``, summed worker time in
    ``statistics.cpu_seconds``, and serial-equal ``database_scans``.
    """

    def test_database_scans_equal_serial(self, paper_db):
        parallel = pooled(paper_db)
        serial = mine_closed_cliques(paper_db, 2)
        assert parallel.statistics.database_scans == serial.statistics.database_scans

    def test_elapsed_is_wall_clock_and_cpu_is_summed(self, paper_db):
        parallel = pooled(paper_db)
        assert parallel.elapsed_seconds > 0.0
        assert parallel.statistics.cpu_seconds > 0.0

    def test_serial_mine_records_cpu_seconds(self, paper_db):
        serial = mine_closed_cliques(paper_db, 2)
        assert serial.statistics.cpu_seconds > 0.0

    def test_merge_sums_cpu_seconds(self):
        left, right = MinerStatistics(), MinerStatistics()
        left.cpu_seconds, right.cpu_seconds = 1.5, 2.5
        left.merge(right)
        assert left.cpu_seconds == pytest.approx(4.0)

    def test_cpu_seconds_stays_out_of_deterministic_views(self):
        stats = MinerStatistics()
        stats.cpu_seconds = 1.23
        assert "cpu_seconds" not in stats.snapshot()
        assert "cpu_seconds" not in repr(stats)
