"""Tests for the task-parameterised enumeration engine itself.

Coverage of the strategy registry, task-scoped cache digests, the
removed ``repro.core.parallel`` import path, and the precise error
texts the façade promises — the cross-path output guarantees live in
``test_task_parity.py``.
"""

from __future__ import annotations

import pytest

from repro.core import ClanMiner, MinerConfig, MiningEngine, mine
from repro.core.api import MiningRequest
from repro.core.engine import (
    ENGINE_TASKS,
    engine_digest,
    engine_for_task,
    finalize_patterns,
    make_strategy,
)
from repro.exceptions import MiningError
from tests.conftest import make_random_database


class TestStrategyRegistry:
    def test_engine_tasks_enumeration(self):
        assert ENGINE_TASKS == ("closed", "frequent", "maximal", "topk", "quasi")

    @pytest.mark.parametrize("task", ENGINE_TASKS)
    def test_make_strategy_round_trips_task_name(self, task):
        strategy = make_strategy(
            task,
            k=3 if task == "topk" else None,
            gamma=0.8 if task == "quasi" else None,
        )
        assert strategy.task == task

    def test_unknown_task_rejected(self):
        with pytest.raises(MiningError, match="unknown engine task"):
            make_strategy("pseudo")

    def test_topk_requires_positive_k(self):
        with pytest.raises(MiningError):
            make_strategy("topk", k=None)
        with pytest.raises(MiningError):
            make_strategy("topk", k=0)

    def test_quasi_requires_gamma_in_range(self):
        with pytest.raises(MiningError, match="requires gamma"):
            make_strategy("quasi")
        with pytest.raises(MiningError, match="gamma must be"):
            make_strategy("quasi", gamma=0.3)

    def test_sweep_support_is_task_scoped(self):
        assert make_strategy("closed").supports_sweep
        assert make_strategy("frequent").supports_sweep
        assert not make_strategy("maximal").supports_sweep
        assert not make_strategy("topk", k=2).supports_sweep
        assert not make_strategy("quasi", gamma=0.8).supports_sweep

    def test_clan_miner_is_the_closed_engine(self):
        database = make_random_database(1)
        miner = ClanMiner(database)
        assert isinstance(miner, MiningEngine)
        assert miner.task == "closed"
        assert ClanMiner(database, MinerConfig.all_frequent()).task == "frequent"


class TestEngineDigest:
    def test_closed_and_frequent_digests_stay_bare(self):
        # Persisted caches and the incremental miner key on the bare
        # MinerConfig digest; the engine must not invalidate them.
        config = MinerConfig()
        assert engine_digest("closed", config, None) == config.digest()
        frequent = MinerConfig.all_frequent()
        assert engine_digest("frequent", frequent, None) == frequent.digest()

    def test_specialised_tasks_get_prefixed_digests(self):
        config = MinerConfig()
        digests = {
            engine_digest("closed", config, None),
            engine_digest("maximal", config, None),
            engine_digest("topk", config, 3),
            engine_digest("topk", config, 5),
            engine_digest("quasi", config, None, 0.6),
            engine_digest("quasi", config, None, 0.8),
        }
        assert len(digests) == 6  # no collisions across tasks, k, or gamma


class TestFinalizePatterns:
    def test_non_topk_is_canonical_order(self):
        database = make_random_database(2)
        patterns = list(mine(database, 2))
        shuffled = list(reversed(patterns))
        assert finalize_patterns("closed", shuffled, None) == patterns

    def test_topk_selects_global_best(self):
        database = make_random_database(2)
        everything = list(mine(database, 2))
        top = finalize_patterns("topk", everything, 2)
        assert len(top) == 2
        assert top == list(
            mine(database, MiningRequest(min_sup=2, task="topk", k=2))
        )


class TestEngineForTask:
    @pytest.mark.parametrize("task", ENGINE_TASKS)
    def test_prepare_and_mine(self, task):
        database = make_random_database(3)
        k = 2 if task == "topk" else None
        gamma = 0.8 if task == "quasi" else None
        config = MinerConfig(min_size=2, max_size=4) if task == "quasi" else None
        engine = engine_for_task(database, config, task, k, gamma).prepare()
        result = engine.mine(2)
        assert result.closed_only == (task != "frequent")

    def test_topk_engine_is_not_root_splittable(self):
        # The branch-and-bound threshold is root-wide state; handing a
        # level-2 subtree to another worker would lose it.
        database = make_random_database(3)
        engine = engine_for_task(database, None, "topk", 2).prepare()
        roots = database.frequent_labels(2)
        assert engine.root_extension_plan(2, roots[0]) == []

    def test_maximal_engine_exposes_split_plan(self):
        database = make_random_database(3)
        engine = engine_for_task(database, None, "maximal", None).prepare()
        roots = database.frequent_labels(1)
        assert engine.root_extension_plan(1, roots[0])


class TestParallelShimRemoved:
    def test_module_is_gone(self):
        # Stage three of the deprecation policy (CONTRIBUTING.md): the
        # ``repro.core.parallel`` shim warned, then raised with a
        # migration hint, and is now deleted outright.
        with pytest.raises(ModuleNotFoundError):
            import repro.core.parallel  # noqa: F401

    def test_entry_points_live_in_executor(self):
        from repro.core.executor import (  # noqa: F401
            mine_closed_cliques_parallel,
            partition_roots,
        )


class TestMineFreesItsStores:
    def test_slab_mine_leaves_no_cyclic_garbage(self):
        # A slab mine's stores and forest must be freed by refcount when
        # the call returns; a cycle would hold them until a gen-2
        # collection, which a long-lived process may rarely run.
        import gc

        from repro.core.slab_store import SlabEmbeddingStore, _SlabForest
        from repro.stockmarket import stock_market_database

        market = stock_market_database(0.95, scale="tiny")
        request = MiningRequest(min_sup="85%")
        assert MinerConfig().kernel == "slab"
        assert market.slab_space() is not None
        mine(market, request)  # builds the indexes the next call reuses
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert len(mine(market, request))
            gc.collect()
            leaked = [
                type(obj).__name__
                for obj in gc.garbage
                if isinstance(obj, (SlabEmbeddingStore, _SlabForest))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []

    def test_slab_forest_is_freed_by_refcount(self):
        # With the cyclic collector off, a slab mine and a drained root
        # sweep must leave no slab store or forest alive: refcounting
        # alone frees them when the call returns.
        import gc

        from repro.core.slab_store import SlabEmbeddingStore, _SlabForest
        from repro.stockmarket import stock_market_database

        market = stock_market_database(0.95, scale="tiny")
        assert market.slab_space() is not None

        def live():
            return [
                type(obj).__name__
                for obj in gc.get_objects()
                if isinstance(obj, (SlabEmbeddingStore, _SlabForest))
            ]

        miner = ClanMiner(market)
        miner.prepare()
        roots = market.frequent_labels(market.absolute_support(0.85))
        gc.collect()
        gc.disable()
        try:
            assert len(miner.mine(0.85))
            after_mine = live()
            parts = list(miner.mine_roots(0.85, roots))
            after_sweep = live()
        finally:
            gc.enable()
        assert len(parts) == len(roots) > 1
        assert after_mine == []
        assert after_sweep == []
