"""Tests for the cross-run mining cache (repro.core.cache).

The load-bearing claims, in order:

* **Threshold independence** (Lemma 4.3): mining at support ``s`` and
  filtering to ``support >= t`` equals mining at ``t``, for every
  ``t >= s``, for the closed and the all-frequent task — property
  tested against fresh mines and the brute-force oracle.  This is the
  exactness argument of the sweep tier.
* **Cached mining is invisible**: cold-through-cache, warm, and
  persisted-reload runs return pattern sets and deterministic
  statistics snapshots byte-identical to the uncached serial miner,
  and warm sessions replay event streams byte-identical to cold ones —
  serially and through the work-stealing executor (including forced
  root splits).
* **Invalidation is sound**: database changes miss via the
  fingerprint, appends migrate exactly the untouched roots
  (``rekey_database``), threshold changes invalidate nothing.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import bruteforce_closed_cliques, bruteforce_frequent_cliques
from repro.core.api import MiningRequest
from repro.core import (
    CachedRoot,
    ClanMiner,
    MinerConfig,
    MinerStatistics,
    MiningCache,
    MiningExecutor,
    MiningSession,
    RingBufferSink,
    mine,
    mine_closed_cliques,
    mine_frequent_cliques,
    mine_with_cache,
    sweep,
)
from repro.core.engine import MiningEngine
from repro.exceptions import FormatError, MiningError, PatternError
from repro.graphdb.generators import random_database
from repro.io.runlog import (
    database_fingerprint,
    load_or_create_cache,
    open_cache,
    save_cache,
)
from repro.stockmarket import stock_market_database
from tests.conftest import make_random_database


def rq(min_sup, **options):
    """The request the legacy kwargs path would have built."""
    return MiningRequest.from_options(min_sup, **options)

SEEDS = st.integers(0, 100_000)

#: Shared across the equivalence tests; dense enough that roots split.
dense_db = random_database(12, 14, 0.45, 6, seed=3)


def keys(result):
    return [p.key() for p in result]


def fp(db):
    return database_fingerprint(db)


# ----------------------------------------------------------------------
# Satellite: the MinerConfig digest the cache keys on
# ----------------------------------------------------------------------
class TestConfigDigest:
    def test_equal_configs_share_a_digest(self):
        assert MinerConfig().digest() == MinerConfig.paper_defaults().digest()

    def test_every_field_feeds_the_digest(self):
        base = MinerConfig()
        variants = [
            MinerConfig.all_frequent(),
            MinerConfig().without("low_degree"),
            MinerConfig(min_size=2),
            MinerConfig(max_size=4),
            MinerConfig().with_kernel("bitset"),
            MinerConfig(embedding_strategy="rescan"),
            MinerConfig(collect_witnesses=False),
            MinerConfig(max_embeddings=100),
        ]
        digests = [base.digest()] + [v.digest() for v in variants]
        assert len(set(digests)) == len(digests)

    def test_digest_survives_serialisation(self):
        config = MinerConfig(min_size=2, kernel="bitset")
        assert MinerConfig.from_dict(config.to_dict()).digest() == config.digest()


# ----------------------------------------------------------------------
# Threshold independence (the sweep tier's exactness; satellite 3)
# ----------------------------------------------------------------------
class TestThresholdIndependence:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, low=st.integers(1, 3), delta=st.integers(0, 2))
    def test_closed_filter_equals_remine(self, seed, low, delta):
        db = make_random_database(seed)
        high = min(low + delta, len(db))
        filtered = mine_closed_cliques(db, low).filter_support(high)
        assert keys(filtered) == keys(mine_closed_cliques(db, high))
        assert sorted(keys(filtered)) == sorted(
            keys(bruteforce_closed_cliques(db, high))
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, low=st.integers(1, 3), delta=st.integers(0, 2))
    def test_frequent_filter_equals_remine(self, seed, low, delta):
        db = make_random_database(seed)
        high = min(low + delta, len(db))
        filtered = mine_frequent_cliques(db, low).filter_support(high)
        assert keys(filtered) == keys(mine_frequent_cliques(db, high))
        assert sorted(keys(filtered)) == sorted(
            keys(bruteforce_frequent_cliques(db, high))
        )

    def test_filtering_below_the_mined_threshold_is_rejected(self):
        result = mine_closed_cliques(dense_db, 3)
        with pytest.raises(PatternError):
            result.filter_support(2)

    def test_filter_preserves_witnesses_and_order(self):
        full = mine_closed_cliques(dense_db, 2)
        filtered = full.filter_support(3)
        for pattern in filtered:
            assert full.get(pattern.form) is pattern  # shared, not copied


# ----------------------------------------------------------------------
# MiningCache mechanics
# ----------------------------------------------------------------------
def _entry(root="a", abs_sup=2, patterns=(), statistics=None, **kw):
    return CachedRoot(
        root=root, abs_sup=abs_sup, patterns=tuple(patterns), statistics=statistics, **kw
    )


class TestMiningCache:
    def test_exact_hit_and_miss(self):
        cache = MiningCache()
        cache.store("fp", "cfg", _entry())
        assert cache.lookup("fp", "cfg", 2, "a") is not None
        assert cache.lookup("fp", "cfg", 2, "b") is None
        assert cache.lookup("other", "cfg", 2, "a") is None
        assert cache.lookup("fp", "other", 2, "a") is None
        assert (cache.hits, cache.misses) == (1, 3)

    def test_need_statistics_excludes_patterns_only_entries(self):
        cache = MiningCache()
        cache.store("fp", "cfg", _entry(statistics=None))
        assert cache.lookup("fp", "cfg", 2, "a", need_statistics=True) is None
        assert cache.lookup("fp", "cfg", 2, "a", need_statistics=False) is not None

    def test_need_events_requires_matching_sample_every(self):
        cache = MiningCache()
        cache.store(
            "fp", "cfg", _entry(statistics={}, events=(), events_sample_every=3)
        )
        assert (
            cache.lookup("fp", "cfg", 2, "a", need_events=True, sample_every=3)
            is not None
        )
        assert (
            cache.lookup("fp", "cfg", 2, "a", need_events=True, sample_every=1) is None
        )

    def test_sweep_tier_filters_the_closest_lower_threshold(self):
        db = dense_db
        part = ClanMiner(db).prepare().mine(1, root_labels=("a",))
        cache = MiningCache()
        cache.store(
            fp(db), "cfg", _entry(abs_sup=1, patterns=tuple(part), statistics={})
        )
        derived = cache.lookup(fp(db), "cfg", 3, "a")
        assert derived is not None
        assert derived.derived_from == 1
        assert derived.statistics is None
        expected = [p for p in part if p.support >= 3]
        assert list(derived.patterns) == expected
        # The derivation is memoized as an entry of its own.
        assert cache.sweep_hits == 1
        again = cache.lookup(fp(db), "cfg", 3, "a")
        assert again is not None and cache.sweep_hits == 1

    def test_sweep_tier_never_uses_higher_thresholds(self):
        cache = MiningCache()
        cache.store("fp", "cfg", _entry(abs_sup=3))
        assert cache.lookup("fp", "cfg", 2, "a") is None

    def test_peek_does_not_touch_counters(self):
        cache = MiningCache()
        cache.store("fp", "cfg", _entry())
        cache.lookup("fp", "cfg", 2, "a", record=False)
        cache.lookup("fp", "cfg", 2, "b", record=False)
        assert (cache.hits, cache.misses) == (0, 0)

    def test_invalidate_roots_and_database(self):
        cache = MiningCache()
        for root in "ab":
            cache.store("fp1", "cfg", _entry(root=root))
            cache.store("fp2", "cfg", _entry(root=root))
        assert cache.invalidate_roots("fp1", ["a"]) == 1
        assert cache.lookup("fp1", "cfg", 2, "a", record=False) is None
        assert cache.lookup("fp1", "cfg", 2, "b", record=False) is not None
        assert cache.invalidate_database("fp2") == 2
        assert len(cache) == 1

    def test_rekey_database_moves_and_drops(self):
        cache = MiningCache()
        for root in "abc":
            cache.store("old", "cfg", _entry(root=root))
        cache.store("old", "cfg", _entry(root="a", abs_sup=5))
        moved, dropped = cache.rekey_database("old", "new", drop_roots=["a"])
        assert (moved, dropped) == (2, 2)  # 'a' dropped at both thresholds
        assert cache.lookup("new", "cfg", 2, "b", record=False) is not None
        assert cache.lookup("new", "cfg", 2, "a", record=False) is None
        assert cache.lookup("old", "cfg", 2, "b", record=False) is None

    def test_roots_cached_lists_exact_entries_in_order(self):
        cache = MiningCache()
        for root in "cab":
            cache.store("fp", "cfg", _entry(root=root))
        cache.store("fp", "cfg", _entry(root="z", abs_sup=9))
        assert cache.roots_cached("fp", "cfg", 2) == ("a", "b", "c")

    def test_clear_and_hit_rate(self):
        cache = MiningCache()
        assert cache.hit_rate == 0.0
        cache.store("fp", "cfg", _entry())
        cache.lookup("fp", "cfg", 2, "a")
        cache.lookup("fp", "cfg", 2, "b")
        assert cache.hit_rate == 0.5
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup("fp", "cfg", 2, "a") is None


class TestPersistence:
    def test_round_trip_preserves_entries_exactly(self, tmp_path):
        cache = MiningCache()
        mine_with_cache(dense_db, 2, cache=cache)
        # Add an events-bearing entry via a cached session too.
        ring = RingBufferSink(capacity=None)
        MiningSession(dense_db, 3, sinks=(ring,), sample_every=2, cache=cache).run()
        target = save_cache(cache, tmp_path / "cache.json")
        reloaded = open_cache(target)
        assert reloaded.to_dict() == cache.to_dict()

    def test_directory_paths_use_the_well_known_filename(self, tmp_path):
        cache = MiningCache()
        mine_with_cache(dense_db, 3, cache=cache)
        target = save_cache(cache, tmp_path)
        assert target.name == "clan-cache.json"
        assert len(open_cache(tmp_path)) == len(cache)

    def test_load_or_create(self, tmp_path):
        fresh = load_or_create_cache(tmp_path)
        assert len(fresh) == 0
        mine_with_cache(dense_db, 3, cache=fresh)
        save_cache(fresh, tmp_path)
        assert len(load_or_create_cache(tmp_path)) == len(fresh)

    def test_garbage_raises_format_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(FormatError):
            open_cache(bad)


# ----------------------------------------------------------------------
# mine_with_cache: invisible caching
# ----------------------------------------------------------------------
class TestMineWithCache:
    def test_cold_equals_uncached_serial(self):
        cache = MiningCache()
        cold = mine_with_cache(dense_db, 2, cache=cache)
        base = ClanMiner(dense_db).mine(2)
        assert keys(cold) == keys(base)
        assert cold.statistics.snapshot() == base.statistics.snapshot()
        assert cold.statistics.roots_from_cache == 0

    def test_warm_replays_statistics_exactly(self):
        cache = MiningCache()
        mine_with_cache(dense_db, 2, cache=cache)
        warm = mine_with_cache(dense_db, 2, cache=cache)
        base = ClanMiner(dense_db).mine(2)
        assert keys(warm) == keys(base)
        assert warm.statistics.snapshot() == base.statistics.snapshot()
        assert warm.statistics.roots_from_cache == len(
            dense_db.frequent_labels(2)
        )
        assert warm.statistics.cache_misses == 0

    def test_partial_overlap_remines_only_missing_roots(self):
        cache = MiningCache()
        mine_with_cache(dense_db, 2, cache=cache)
        digest = MinerConfig().digest()
        dropped = cache.invalidate_roots(fp(dense_db), ["a", "b"])
        assert dropped >= 2
        result = mine_with_cache(dense_db, 2, cache=cache)
        assert keys(result) == keys(ClanMiner(dense_db).mine(2))
        assert result.statistics.cache_misses == 2
        # The re-mined roots are stored back.
        assert set(cache.roots_cached(fp(dense_db), digest, 2)) >= {"a", "b"}

    def test_sweep_tier_answers_higher_thresholds(self):
        cache = MiningCache()
        mine_with_cache(dense_db, 2, cache=cache)
        higher = mine_with_cache(dense_db, 4, cache=cache)
        assert keys(higher) == keys(ClanMiner(dense_db).mine(4))
        assert higher.statistics.cache_misses == 0
        assert cache.sweep_hits > 0

    def test_parallel_cold_and_warm_match_serial(self):
        base = ClanMiner(dense_db).mine(2)
        cache = MiningCache()
        cold = mine_with_cache(dense_db, 2, cache=cache, processes=2)
        warm = mine_with_cache(dense_db, 2, cache=cache, processes=2)
        serial_warm = mine_with_cache(dense_db, 2, cache=cache)
        for result in (cold, warm, serial_warm):
            assert keys(result) == keys(base)
            assert result.statistics.snapshot() == base.statistics.snapshot()
        assert warm.statistics.roots_from_cache == len(dense_db.frequent_labels(2))
        assert warm.statistics.cache_misses == 0
        assert serial_warm.statistics.cache_misses == 0

    def test_different_config_is_a_clean_miss(self):
        cache = MiningCache()
        mine_with_cache(dense_db, 2, cache=cache)
        other = mine_with_cache(
            dense_db, 2, cache=cache, config=MinerConfig(kernel="bitset")
        )
        assert other.statistics.roots_from_cache == 0
        assert keys(other) == keys(ClanMiner(dense_db).mine(2))

    def test_database_change_is_a_clean_miss(self):
        cache = MiningCache()
        mine_with_cache(dense_db, 2, cache=cache)
        other_db = random_database(12, 14, 0.45, 6, seed=4)
        result = mine_with_cache(other_db, 2, cache=cache)
        assert result.statistics.roots_from_cache == 0
        assert keys(result) == keys(ClanMiner(other_db).mine(2))

    @pytest.mark.parametrize("processes", [1, 2])
    def test_launcher_accounting_matches_serial(self, processes):
        # SM-0.95 at 85% has infrequent root labels: the serial engine
        # charges them (and its label-support scan) outside any root.
        market = stock_market_database(0.95, scale="tiny")
        base = ClanMiner(market).mine("85%")
        cache = MiningCache()
        cold = mine_with_cache(market, "85%", cache=cache, processes=processes)
        warm = mine_with_cache(market, "85%", cache=cache, processes=processes)
        for result in (cold, warm):
            assert keys(result) == keys(base)
            assert result.statistics.snapshot() == base.statistics.snapshot()
        assert warm.statistics.cache_misses == 0

    def test_warm_pool_run_builds_no_index(self, monkeypatch):
        market = stock_market_database(0.95, scale="tiny")
        cache = MiningCache()
        mine_with_cache(market, "85%", cache=cache, processes=2)
        calls = []
        prepare = MiningEngine.prepare

        def counting(engine):
            calls.append(engine)
            return prepare(engine)

        monkeypatch.setattr(MiningEngine, "prepare", counting)
        warm = mine_with_cache(market, "85%", cache=cache, processes=2)
        assert calls == []
        assert warm.statistics.roots_from_cache == len(
            market.frequent_labels(market.absolute_support("85%"))
        )

    def test_requires_structural_redundancy_pruning(self):
        config = MinerConfig().without("structural_redundancy")
        with pytest.raises(MiningError):
            mine_with_cache(dense_db, 2, cache=MiningCache(), config=config)

    def test_scheduler_requires_processes(self):
        with pytest.raises(MiningError):
            mine_with_cache(dense_db, 2, cache=MiningCache(), scheduler="stealing")


# ----------------------------------------------------------------------
# sweep(): the multi-threshold entry point
# ----------------------------------------------------------------------
class TestSweep:
    def test_every_threshold_matches_a_fresh_mine(self):
        results = sweep(dense_db, [4, 2, 3])
        for support, result in results.items():
            assert keys(result) == keys(ClanMiner(dense_db).mine(support)), support
        assert list(results) == [4, 2, 3]  # input order preserved

    def test_only_the_lowest_threshold_mines(self):
        cache = MiningCache()
        results = sweep(dense_db, [4, 2, 3], cache=cache)
        n_roots = len(dense_db.frequent_labels(2))
        # The lowest threshold IS the warming mine; the rest derive.
        assert results[2].statistics.cache_misses == n_roots
        assert results[4].statistics.cache_misses == 0
        assert results[3].statistics.cache_misses == 0
        assert cache.misses == n_roots  # one cold pass, ever

    def test_fractional_specs_resolve_like_mine(self):
        results = sweep(dense_db, ["75%", 1.0])
        assert keys(results["75%"]) == keys(mine_closed_cliques(dense_db, "75%"))
        assert keys(results[1.0]) == keys(mine_closed_cliques(dense_db, 1.0))

    def test_frequent_task(self):
        results = sweep(dense_db, [3, 2], task="frequent")
        for support, result in results.items():
            assert keys(result) == keys(mine_frequent_cliques(dense_db, support))

    def test_bad_inputs(self):
        with pytest.raises(MiningError):
            sweep(dense_db, [])
        with pytest.raises(MiningError):
            sweep(dense_db, [2, 2])
        with pytest.raises(MiningError):
            sweep(dense_db, [2], task="maximal")

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS)
    def test_sweep_equals_fresh_mines_on_random_databases(self, seed):
        db = make_random_database(seed)
        supports = list(range(1, len(db) + 1))
        results = sweep(db, supports)
        for support in supports:
            assert keys(results[support]) == keys(mine_closed_cliques(db, support))


# ----------------------------------------------------------------------
# Sessions and the executor: byte-identity through the cache
# ----------------------------------------------------------------------
def _run_session(cache, **kw):
    ring = RingBufferSink(capacity=None)
    session = MiningSession(dense_db, 2, sinks=(ring,), sample_every=3, cache=cache, **kw)
    result = session.run()
    return result, list(ring.events)


class TestSessionCache:
    def test_serial_cold_warm_streams_are_byte_identical(self):
        cache = MiningCache()
        r0, e0 = _run_session(None)
        r1, e1 = _run_session(cache)
        r2, e2 = _run_session(cache)
        assert e0 == e1 == e2
        assert keys(r0) == keys(r1) == keys(r2)
        assert (
            r0.statistics.snapshot()
            == r1.statistics.snapshot()
            == r2.statistics.snapshot()
        )
        assert r2.statistics.roots_from_cache == len(r2.completed_roots or ())

    def test_parallel_warm_stream_matches_serial_cold(self):
        cache = MiningCache()
        _, e0 = _run_session(None)
        _run_session(cache)  # warm serially
        r, e = _run_session(cache, processes=2, scheduler="stealing")
        assert e == e0
        assert r.statistics.roots_from_cache == len(r.completed_roots or ())

    def test_parallel_cold_then_warm_with_forced_splits(self):
        _, e0 = _run_session(None)
        cache = MiningCache()
        r1, e1 = _run_session(
            cache, processes=2, scheduler="stealing", split_factor=0.0
        )
        r2, e2 = _run_session(
            cache, processes=2, scheduler="stealing", split_factor=0.0
        )
        assert e1 == e0 and e2 == e0
        assert r2.statistics.roots_from_cache == len(r2.completed_roots or ())

    def test_persisted_reload_stream_is_byte_identical(self, tmp_path):
        cache = MiningCache()
        _, e0 = _run_session(None)
        _run_session(cache)
        save_cache(cache, tmp_path)
        reloaded = open_cache(tmp_path)
        r, e = _run_session(reloaded)
        assert e == e0
        assert r.statistics.roots_from_cache == len(r.completed_roots or ())

    def test_mismatched_sample_every_remines(self):
        cache = MiningCache()
        _run_session(cache)  # recorded at sample_every=3
        ring = RingBufferSink(capacity=None)
        session = MiningSession(
            dense_db, 2, sinks=(ring,), sample_every=1, cache=cache
        )
        result = session.run()
        assert result.statistics.roots_from_cache == 0
        # And the re-mine upgraded the entries to sample_every=1.
        ring2 = RingBufferSink(capacity=None)
        session2 = MiningSession(
            dense_db, 2, sinks=(ring2,), sample_every=1, cache=cache
        )
        session2.run()
        assert list(ring2.events) == list(ring.events)
        assert session2.result.statistics.roots_from_cache > 0


class TestExecutorCache:
    def test_mine_cold_and_warm_match_serial(self):
        base = ClanMiner(dense_db).mine(2)
        cache = MiningCache()
        with MiningExecutor(dense_db, processes=2, cache=cache) as executor:
            cold = executor.mine(2)
            warm = executor.mine(2)
        for result in (cold, warm):
            assert keys(result) == keys(base)
            assert result.statistics.snapshot() == base.statistics.snapshot()
        assert cold.statistics.roots_from_cache == 0
        assert warm.statistics.roots_from_cache == len(
            dense_db.frequent_labels(2)
        )
        assert executor.last_report.roots_from_cache == warm.statistics.roots_from_cache

    def test_iter_roots_skips_cached_roots_entirely(self):
        cache = MiningCache()
        roots = tuple(dense_db.frequent_labels(2))
        with MiningExecutor(dense_db, processes=2, cache=cache) as executor:
            list(executor.iter_roots(2, roots))
            assert executor.last_report.tasks >= len(roots)
            list(executor.iter_roots(2, roots))
            # Warm run: no tasks were submitted to the pool at all.
            assert executor.last_report.tasks == 0
            assert executor.last_report.roots_from_cache == len(roots)


# ----------------------------------------------------------------------
# repro.mine integration
# ----------------------------------------------------------------------
class TestMineFacade:
    def test_cache_keyword_round_trips(self):
        cache = MiningCache()
        cold = mine(dense_db, 2, cache=cache)
        warm = mine(dense_db, 2, cache=cache)
        base = mine(dense_db, 2)
        assert keys(cold) == keys(base) == keys(warm)
        assert warm.statistics.roots_from_cache > 0

    def test_cache_with_parallel_and_session_paths(self):
        cache = MiningCache()
        parallel = mine(dense_db, rq(2, processes=2), cache=cache)
        ring = RingBufferSink(capacity=None)
        session = mine(dense_db, 2, cache=cache, sinks=(ring,))
        assert keys(parallel) == keys(session)

    def test_cache_serves_maximal_topk_and_quasi(self):
        # Exact-replay reuse is task-generic across every engine task.
        for task, extra in (
            ("maximal", {}),
            ("topk", {"k": 3}),
            ("quasi", {"gamma": 0.8, "max_size": 4}),
        ):
            cache = MiningCache()
            cold = mine(dense_db, rq(2, task=task, **extra), cache=cache)
            warm = mine(dense_db, rq(2, task=task, **extra), cache=cache)
            base = mine(dense_db, rq(2, task=task, **extra))
            assert keys(cold) == keys(warm) == keys(base)
            assert warm.statistics.roots_from_cache > 0

    def test_cache_keys_are_task_scoped(self):
        # One cache serving several tasks never cross-contaminates.
        cache = MiningCache()
        closed = mine(dense_db, 2, cache=cache)
        maximal = mine(dense_db, rq(2, task="maximal"), cache=cache)
        topk = mine(dense_db, rq(2, task="topk", k=3), cache=cache)
        assert keys(closed) == keys(mine(dense_db, 2))
        assert keys(maximal) == keys(mine(dense_db, rq(2, task="maximal")))
        assert keys(topk) == keys(mine(dense_db, rq(2, task="topk", k=3)))
        # Different k = different key space.
        topk1 = mine(dense_db, rq(2, task="topk", k=1), cache=cache)
        assert keys(topk1) == keys(mine(dense_db, rq(2, task="topk", k=1)))

    def test_cache_keys_are_gamma_scoped(self):
        # Two densities share a cache without cross-contaminating: the
        # engine digest folds gamma in, like k for top-k.
        cache = MiningCache()
        loose = mine(dense_db, rq(2, task="quasi", gamma=0.6, max_size=4), cache=cache)
        tight = mine(dense_db, rq(2, task="quasi", gamma=1.0, max_size=4), cache=cache)
        assert keys(loose) == keys(
            mine(dense_db, rq(2, task="quasi", gamma=0.6, max_size=4))
        )
        assert keys(tight) == keys(
            mine(dense_db, rq(2, task="quasi", gamma=1.0, max_size=4))
        )

    def test_sweep_tier_never_serves_maximal_or_topk(self):
        # Warm the cache at a LOWER threshold; a closed run at the
        # higher threshold may sweep-derive, maximal/topk must not.
        cache = MiningCache()
        mine(dense_db, rq(2, task="maximal"), cache=cache)
        before = cache.sweep_hits
        again = mine(dense_db, rq(3, task="maximal"), cache=cache)
        assert cache.sweep_hits == before  # mined fresh, not filtered
        assert keys(again) == keys(mine(dense_db, rq(3, task="maximal")))
        cache2 = MiningCache()
        mine(dense_db, rq(2, task="topk", k=3), cache=cache2)
        mine(dense_db, rq(3, task="topk", k=3), cache=cache2)
        assert cache2.sweep_hits == 0
        cache3 = MiningCache()
        mine(dense_db, rq(2, task="quasi", gamma=0.8, max_size=4), cache=cache3)
        mine(dense_db, rq(3, task="quasi", gamma=0.8, max_size=4), cache=cache3)
        assert cache3.sweep_hits == 0

    def test_cache_rejected_with_root_labels(self):
        with pytest.raises(MiningError):
            mine(dense_db, 2, cache=MiningCache(), root_labels=("a",))


# ----------------------------------------------------------------------
# Statistics plumbing
# ----------------------------------------------------------------------
class TestStatisticsPlumbing:
    def test_cache_counters_stay_out_of_snapshots(self):
        stats = MinerStatistics(roots_from_cache=5, cache_hits=5, cache_misses=2)
        snapshot = stats.snapshot()
        assert "roots_from_cache" not in snapshot
        assert "cache_hits" not in snapshot
        assert "cache_misses" not in snapshot
        assert "roots_from_cache" not in repr(stats)

    def test_merge_sums_cache_counters(self):
        a = MinerStatistics(roots_from_cache=1, cache_hits=2, cache_misses=3)
        b = MinerStatistics(roots_from_cache=4, cache_hits=5, cache_misses=6)
        a.merge(b)
        assert (a.roots_from_cache, a.cache_hits, a.cache_misses) == (5, 7, 9)

    def test_from_snapshot_round_trips_deterministic_counters(self):
        stats = ClanMiner(dense_db).mine(2).statistics
        rebuilt = MinerStatistics.from_snapshot(stats.snapshot())
        assert rebuilt.snapshot() == stats.snapshot()
        assert rebuilt.cpu_seconds == 0.0


# ----------------------------------------------------------------------
# CLI: clan sweep / clan mine --cache
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture()
    def db_file(self, tmp_path, paper_db):
        from repro.io import gspan_format

        path = tmp_path / "db.tve"
        gspan_format.save_database(paper_db, path)
        return str(path)

    def test_sweep_command(self, db_file, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", db_file, "--min-sups", "2,1", "--cache", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "min_sup" in first and "patterns" in first
        assert (tmp_path / "cache" / "clan-cache.json").exists()
        # Second run warms from disk: zero misses reported.
        assert main(["sweep", db_file, "--min-sups", "2,1", "--cache", cache_dir]) == 0
        err = capsys.readouterr().err
        assert "0 misses" in err

    def test_sweep_output_dir(self, db_file, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "patterns"
        assert main(
            ["sweep", db_file, "--min-sups", "2", "--output-dir", str(out)]
        ) == 0
        capsys.readouterr()
        assert (out / "patterns-2.json").exists()

    def test_mine_cache_flag(self, db_file, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        assert main(["mine", db_file, "--min-sup", "2", "--cache", cache_dir]) == 0
        cold = capsys.readouterr()
        assert main(["mine", db_file, "--min-sup", "2", "--cache", cache_dir]) == 0
        warm = capsys.readouterr()
        assert cold.out == warm.out
        assert "0 misses" in warm.err

    def test_mine_cache_with_maximal(self, db_file, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        args = ["mine", db_file, "--maximal", "--cache", cache_dir]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert main(args) == 0
        warm = capsys.readouterr()
        assert cold.out == warm.out
        assert "0 misses" in warm.err
