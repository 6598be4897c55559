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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce_closed_cliques
from repro.core import BITSET, SLAB, ClanMiner, MinerConfig, slab_store
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
    words per slab row — the word-axis reductions (popcount sums, the
    Lemma 4.4 blocking test) must agree with the bitset kernel on any
    word count."""

    @pytest.mark.parametrize("seed", (0, 3))
    def test_wide_databases_identical_and_match_oracle(self, seed):
        database = unique_label_database(seed, n_graphs=70)
        assert database.aligned_space() is not None
        space = database.slab_space()
        assert space is not None and space.tx_words > 1
        reference = assert_all_identical(database, 8)
        oracle = bruteforce_closed_cliques(database, 8)
        assert oracle_signature(reference) == oracle_signature(oracle), seed

    @pytest.mark.parametrize(
        "n_graphs,min_sup",
        ((6, 1), (40, 2), (70, 3)),
        ids=("uint8-word", "uint64-word", "two-words"),
    )
    def test_saturated_forest_identical_to_bitset(self, monkeypatch, n_graphs, min_sup):
        """A forest past ``_FOREST_MAX_BYTES`` stops deepening and its
        stores batch per parent (``_materialize_children``,
        ``_ensure_child_blocks``) — byte-identically, on one-word
        layouts as on multi-word ones."""
        database = unique_label_database(5, n_graphs=n_graphs)
        space = database.slab_space()
        assert space is not None and (space.tx_words > 1) == (n_graphs > 64)
        forest, store = slab_store._SlabForest, slab_store.SlabEmbeddingStore
        levels = []  # (built, forest bytes) per level build asked for
        fallbacks = []  # per-parent batch calls, by name

        def trace_levels(method):
            def traced(level_forest, depth):
                built = method(level_forest, depth)
                levels.append((built, level_forest.nbytes))
                return built

            return traced

        def trace_calls(method):
            def traced(parent, *args):
                fallbacks.append(method.__name__)
                return method(parent, *args)

            return traced

        monkeypatch.setattr(forest, "ensure_children", trace_levels(forest.ensure_children))
        for name in ("_materialize_children", "_ensure_child_blocks"):
            monkeypatch.setattr(store, name, trace_calls(getattr(store, name)))

        bitset = ClanMiner(database, MinerConfig(kernel=BITSET)).mine(min_sup)
        unbounded = ClanMiner(database, MinerConfig(kernel=SLAB)).mine(min_sup)
        assert_matches_reference(unbounded, bitset, (n_graphs, "unbounded"))
        # The mid cap holds the forest's first level build, not the rest.
        grown = [nbytes for built, nbytes in levels if built]
        assert max(grown) > min(grown)
        for cap in (0, min(grown)):
            monkeypatch.setattr(slab_store, "_FOREST_MAX_BYTES", cap)
            levels.clear()
            fallbacks.clear()
            result = ClanMiner(database, MinerConfig(kernel=SLAB)).mine(min_sup)
            assert_matches_reference(result, bitset, (n_graphs, cap))
            # A zero cap saturates at once; the mid cap deepens first.
            built = {grew for grew, _ in levels}
            assert built == ({False} if cap == 0 else {True, False}), cap
            assert set(fallbacks) == {"_materialize_children", "_ensure_child_blocks"}, cap


def _draw_slab(data, dtype, shape):
    """A word array of ``shape`` biased toward empty and full words."""
    full = 2 ** (dtype.itemsize * 8) - 1
    word = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    size = int(np.prod(shape))
    words = data.draw(st.lists(word, min_size=size, max_size=size))
    return np.array(words, dtype=dtype).reshape(shape)


class TestBlockingBatch:
    """``slab_store._first_blocking`` against the definition of the
    Lemma 4.4 test: per row, the smallest paired label ``c`` (with
    ``cand[c] == tx``) whose ``cand & ~nbr[c]`` is zero outside row
    ``c``."""

    @settings(max_examples=150, deadline=None)
    @given(
        dtype=st.sampled_from(["<u1", "<u2", "<u4", "<u8"]).map(np.dtype),
        tx_words=st.integers(1, 3),
        n_labels=st.integers(1, 6),
        n_rows=st.integers(1, 5),
        data=st.data(),
    )
    def test_first_blocking_matches_definition(
        self, dtype, tx_words, n_labels, n_rows, data
    ):
        tx = _draw_slab(data, dtype, (n_rows, tx_words))
        cand = _draw_slab(data, dtype, (n_rows, n_labels, tx_words)) & tx[:, None, :]
        nbr = _draw_slab(data, dtype, (n_labels, n_labels, tx_words))
        labels = st.lists(st.integers(0, n_labels - 1), unique=True)
        tied = [sorted(data.draw(labels, label=f"tied {row}")) for row in range(n_rows)]
        for row, bits in enumerate(tied):
            cand[row, bits] = tx[row]
        # Make some pairs block: nbr[c] covers every candidate of a row.
        for row, bits in enumerate(tied):
            forced = st.lists(st.sampled_from(bits), unique=True) if bits else st.just([])
            for c in data.draw(forced, label=f"forced {row}"):
                nbr[c] |= cand[row]
        nbr[np.arange(n_labels), np.arange(n_labels)] = 0
        ranks = [
            data.draw(st.integers(0, n_labels), label=f"rank {row}") for row in range(n_rows)
        ]
        pairs = [(row, c) for row in range(n_rows) for c in tied[row] if c < ranks[row]]

        expected = {}
        for row, c in pairs:
            if row not in expected and all(
                int(cand[row, a, w]) & ~int(nbr[c, a, w]) == 0
                for a in range(n_labels)
                if a != c
                for w in range(tx_words)
            ):
                expected[row] = c

        rows = np.array([row for row, _ in pairs], dtype=np.intp)
        cols = np.array([c for _, c in pairs], dtype=np.intp)
        # Tiny chunks, so answered rows drop out between chunks.
        chunk = data.draw(st.integers(1, 4), label="pair chunk")
        chunk_bytes = data.draw(
            st.sampled_from([1, nbr[0].nbytes * 2, 1 << 20]), label="chunk bytes"
        )
        inputs = cand.copy(), nbr.copy()
        with mock.patch.object(slab_store, "_PAIR_CHUNK", chunk), mock.patch.object(
            slab_store, "_CHUNK_BYTES", chunk_bytes
        ):
            got = slab_store._first_blocking(rows, cols, cand, nbr)
        assert got == expected
        # The cleared rows live in a fresh gather, never in the inputs.
        assert np.array_equal(cand, inputs[0]) and np.array_equal(nbr, inputs[1])


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
