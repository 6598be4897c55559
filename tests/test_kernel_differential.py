"""Differential testing of the bitset and slab mining kernels.

The bitset kernel (including its aligned database-global label space,
engaged automatically on unique-label databases) and the numpy slab
kernel (word-sliced uint64 masks, forest-batched extension planning),
each under both embedding strategies, must be *byte identical* to the
recursive reference miner over the hashed-set store of
:mod:`tests.oracles`: same closed-clique sets, same supports and
supporting transactions, same witnesses, and the same search
statistics — the kernels are different representations of one
algorithm, not different algorithms.  All must also agree with the
exhaustive brute-force oracle at small scale.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.baselines.bruteforce import bruteforce_closed_cliques
from repro.core import BITSET, SLAB, ClanMiner, MinerConfig
from repro.graphdb import Graph, GraphDatabase

from tests.conftest import make_random_database
from tests.oracles import reference_mine
from tests.strategies import graph_databases

KERNELS = (BITSET, SLAB)
STRATEGIES = ("cached", "rescan")

#: 50 seeded random databases spanning sparse to near-complete graphs,
#: few to many labels (many labels → unique-per-graph labels are more
#: likely, exercising the aligned bitset path).
RANDOM_CASES = [
    (seed, 3 + seed % 3, 6 + seed % 4, 0.3 + 0.06 * (seed % 10), 3 + seed % 5)
    for seed in range(50)
]


def signature(result):
    """Everything observable about a mining result, order-normalised."""
    return sorted(
        (
            pattern.form.labels,
            pattern.support,
            tuple(sorted(pattern.transactions)),
            tuple(sorted(pattern.witnesses.items())),
        )
        for pattern in result
    )


def oracle_signature(result):
    """Brute-force results carry no witnesses — compare the rest."""
    return sorted(
        (pattern.form.labels, pattern.support, tuple(sorted(pattern.transactions)))
        for pattern in result
    )


def set_reference(database, min_sup, config):
    """The set-store reference miner's result for ``config``."""
    task = "closed" if config.closed_only else "frequent"
    return reference_mine(database, min_sup, config, task)


def assert_matches_reference(result, reference, key):
    assert signature(result) == signature(reference), key
    assert result.statistics.snapshot() == reference.statistics.snapshot(), key


def assert_all_identical(database, min_sup):
    """Every kernel × strategy mine equals the set-store reference."""
    reference = set_reference(database, min_sup, MinerConfig())
    for kernel in KERNELS:
        for strategy in STRATEGIES:
            config = MinerConfig(kernel=kernel, embedding_strategy=strategy)
            result = ClanMiner(database, config).mine(min_sup)
            assert_matches_reference(result, reference, (kernel, strategy, database.name))
    return reference


def unique_label_database(seed: int, n_graphs: int = 4) -> GraphDatabase:
    """Random database whose transactions carry unique per-vertex labels.

    Every graph samples a subset of a shared ticker-like alphabet, one
    vertex per label — the shape that switches the bitset kernel into
    its aligned database-global label space.
    """
    rng = random.Random(seed)
    alphabet = [f"T{i:02d}" for i in range(12)]
    database = GraphDatabase(name=f"unique-{seed}")
    for gid in range(n_graphs):
        labels = rng.sample(alphabet, k=rng.randint(3, 9))
        graph = Graph(gid)
        for vertex, label in enumerate(labels):
            graph.add_vertex(vertex, label)
        for u in range(len(labels)):
            for v in range(u + 1, len(labels)):
                if rng.random() < 0.55:
                    graph.add_edge(u, v)
        database.add(graph)
    return database


class TestRandomDatabases:
    @pytest.mark.parametrize("seed,n_graphs,n_vertices,p,n_labels", RANDOM_CASES)
    def test_kernels_identical_and_match_oracle(
        self, seed, n_graphs, n_vertices, p, n_labels
    ):
        database = make_random_database(
            seed,
            n_graphs=n_graphs,
            n_vertices=n_vertices,
            edge_probability=p,
            n_labels=n_labels,
        )
        min_sup = 2 if seed % 2 else 1
        reference = assert_all_identical(database, min_sup)
        oracle = bruteforce_closed_cliques(database, min_sup)
        assert oracle_signature(reference) == oracle_signature(oracle), seed


class TestAlignedPath:
    """Unique-label databases run the aligned global-label-space code."""

    @pytest.mark.parametrize("seed", range(12))
    def test_aligned_kernels_identical_and_match_oracle(self, seed):
        database = unique_label_database(seed)
        assert database.aligned_space() is not None
        min_sup = 2 if seed % 2 else 1
        reference = assert_all_identical(database, min_sup)
        oracle = bruteforce_closed_cliques(database, min_sup)
        assert oracle_signature(reference) == oracle_signature(oracle), seed

    def test_duplicate_labels_disable_aligned_space(self):
        database = make_random_database(0, n_labels=2)
        assert database.aligned_space() is None


class TestMultiWordSlab:
    """Databases with more than 64 transactions span several uint64
    words per slab row — the word-axis reductions (popcount sums,
    blocking-tie scans) must agree with the single-word fast path."""

    @pytest.mark.parametrize("seed", (0, 3))
    def test_wide_databases_identical_and_match_oracle(self, seed):
        database = unique_label_database(seed, n_graphs=70)
        assert database.aligned_space() is not None
        space = database.slab_space()
        assert space is not None and space.tx_words > 1
        reference = assert_all_identical(database, 8)
        oracle = bruteforce_closed_cliques(database, 8)
        assert oracle_signature(reference) == oracle_signature(oracle), seed


class TestNonDefaultConfigs:
    """Kernel identity must also hold under ablation configurations."""

    @pytest.mark.parametrize("seed", (1, 7, 13))
    @pytest.mark.parametrize(
        "overrides",
        (
            {"closed_only": False, "nonclosed_prefix_pruning": False},
            {"nonclosed_prefix_pruning": False},
            {"low_degree_pruning": False},
            {"min_size": 2, "max_size": 3},
        ),
        ids=("frequent", "no-nonclosed", "no-core", "size-window"),
    )
    def test_ablation_configs_identical(self, seed, overrides):
        for database in (make_random_database(seed), unique_label_database(seed)):
            reference = set_reference(database, 2, MinerConfig(**overrides))
            for kernel in KERNELS:
                config = MinerConfig(kernel=kernel, **overrides)
                result = ClanMiner(database, config).mine(2)
                assert_matches_reference(result, reference, (kernel, database.name))


class TestHypothesisDifferential:
    @settings(max_examples=60, deadline=None)
    @given(database=graph_databases(), min_sup=__import__("hypothesis").strategies.integers(1, 3))
    def test_kernels_identical_on_arbitrary_databases(self, database, min_sup):
        assert_all_identical(database, min(min_sup, len(database)))


@pytest.mark.slow
def test_market_sweep_identical():
    """Full fig6a-style sweep: kernel identity on real workload shapes."""
    from repro.stockmarket import stock_market_series

    database = stock_market_series([0.90], scale="small")[0]
    for min_sup in (1.00, 0.95, 0.90, 0.85):
        assert_all_identical(database, min_sup)
