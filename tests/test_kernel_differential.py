"""Differential testing of the bitset and slab mining kernels.

The bitset kernel (per-graph int masks, on every database) and the
numpy slab kernel (word-sliced uint64 masks, forest-batched extension
planning, engaged on unique-label databases),
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
from repro.core import BITSET, SLAB, ClanMiner, MinerConfig, mine, slab_store
from repro.core.api import MiningRequest
from repro.graphdb import Graph, GraphDatabase
from repro.graphdb.slab import popcount_rows

from tests.conftest import make_random_database
from tests.oracles import reference_mine
from tests.strategies import graph_databases

KERNELS = (BITSET, SLAB)
STRATEGIES = ("cached", "rescan")

#: 50 seeded random databases spanning sparse to near-complete graphs,
#: few to many labels (many labels → unique-per-graph labels are more
#: likely, exercising the slab path).
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
    vertex per label — the aligned shape the slab kernel indexes, and
    the per-graph masks' unique-label special case.
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
    """Unique-label databases run the slab kernel, with the per-graph
    masks of the bitset kernel as its reference."""

    @pytest.mark.parametrize("seed", range(12))
    def test_aligned_kernels_identical_and_match_oracle(self, seed):
        database = unique_label_database(seed)
        assert database.slab_space() is not None
        min_sup = 2 if seed % 2 else 1
        reference = assert_all_identical(database, min_sup)
        oracle = bruteforce_closed_cliques(database, min_sup)
        assert oracle_signature(reference) == oracle_signature(oracle), seed

    def test_duplicate_labels_disable_aligned_space(self):
        database = make_random_database(0, n_labels=2)
        assert database.slab_space() is None


class TestMultiWordSlab:
    """Databases with more than 64 transactions span several uint64
    words per slab row — the word-axis reductions (popcount sums, the
    Lemma 4.4 blocking test) must agree with the bitset kernel on any
    word count."""

    @pytest.mark.parametrize("seed", (0, 3))
    def test_wide_databases_identical_and_match_oracle(self, seed):
        database = unique_label_database(seed, n_graphs=70)
        space = database.slab_space()
        assert space is not None and space.tx_words > 1
        reference = assert_all_identical(database, 8)
        oracle = bruteforce_closed_cliques(database, 8)
        assert oracle_signature(reference) == oracle_signature(oracle), seed

    @pytest.mark.parametrize(
        "n_graphs,min_sup,task",
        [
            (n_graphs, min_sup, task)
            for task in ("closed", "topk", "maximal")
            for n_graphs, min_sup in ((6, 1), (40, 2), (70, 3))
        ],
        ids=[
            layout + suffix
            for suffix in ("", "-topk", "-maximal")
            for layout in ("uint8-word", "uint64-word", "two-words")
        ],
    )
    def test_saturated_forest_identical_to_bitset(self, monkeypatch, n_graphs, min_sup, task):
        """A forest past ``_FOREST_MAX_BYTES`` stops deepening and its
        stores batch per parent (``_batch_children``, and the Lemma 4.4
        batch of those per-parent levels) — byte-identically, on
        one-word layouts as on multi-word ones, and under top-k's
        ``multiplicity_bound`` cuts and the maximal task as under the
        closed one."""
        database = unique_label_database(5, n_graphs=n_graphs)
        space = database.slab_space()
        assert space is not None and (space.tx_words > 1) == (n_graphs > 64)
        forest, store = slab_store._SlabForest, slab_store.SlabEmbeddingStore
        level_cls = slab_store._ForestLevel
        levels = []  # (built, forest bytes) per level build asked for
        batches = []  # per-parent batches grown
        blocked = []  # levels whose Lemma 4.4 batch ran
        ensure_children = forest.ensure_children
        batch_children = store._batch_children
        blocking = level_cls.blocking

        def traced_levels(level_forest, depth):
            built = ensure_children(level_forest, depth)
            levels.append((built, level_forest.nbytes))
            return built

        def traced_batch(parent, *args):
            batches.append(batch_children(parent, *args))
            return batches[-1]

        def traced_blocking(level):
            blocked.append(level)
            return blocking(level)

        monkeypatch.setattr(forest, "ensure_children", traced_levels)
        monkeypatch.setattr(store, "_batch_children", traced_batch)
        monkeypatch.setattr(level_cls, "blocking", traced_blocking)

        def run(kernel):
            options = {"k": 5} if task == "topk" else {}
            request = MiningRequest(min_sup=min_sup, task=task, kernel=kernel, **options)
            return mine(database, request)

        bitset = run(BITSET)
        unbounded = run(SLAB)
        assert_matches_reference(unbounded, bitset, (n_graphs, task, "unbounded"))
        # The mid cap holds the forest's first level build, not the rest;
        # ``nbytes`` counts the levels' entry words.
        grown = [nbytes for built, nbytes in levels if built]
        assert max(grown) > min(grown)
        for cap in (0, min(grown)):
            monkeypatch.setattr(slab_store, "_FOREST_MAX_BYTES", cap)
            levels.clear()
            batches.clear()
            blocked.clear()
            result = run(SLAB)
            assert_matches_reference(result, bitset, (n_graphs, task, cap))
            # A zero cap saturates at once; the mid cap deepens first.
            built = {grew for grew, _ in levels}
            assert built == ({False} if cap == 0 else {True, False}), cap
            assert batches, cap
            assert any(level in batches for level in blocked), cap

    def test_fig7b_x64_forest_never_saturates(self, monkeypatch):
        """Sparse levels keep fig7b ×64 inside the default forest cap:
        every level is built and no store batches per parent."""
        from repro.stockmarket import stock_market_database

        database = stock_market_database(0.95, scale="small").replicate(64)
        assert database.slab_space().tx_words == 11
        forest, store = slab_store._SlabForest, slab_store.SlabEmbeddingStore
        built = []
        fallbacks = []
        ensure_children = forest.ensure_children
        batch_children = store._batch_children

        def traced_levels(level_forest, depth):
            built.append(ensure_children(level_forest, depth))
            return built[-1]

        def traced_fallback(parent, *args):
            fallbacks.append(parent)
            return batch_children(parent, *args)

        monkeypatch.setattr(forest, "ensure_children", traced_levels)
        monkeypatch.setattr(store, "_batch_children", traced_fallback)
        assert len(ClanMiner(database, MinerConfig(kernel=SLAB)).mine(0.85))
        assert built and all(built)
        assert fallbacks == []


def _draw_slab(data, dtype, shape):
    """A word array of ``shape`` biased toward empty and full words."""
    full = 2 ** (dtype.itemsize * 8) - 1
    word = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    size = int(np.prod(shape))
    words = data.draw(st.lists(word, min_size=size, max_size=size))
    return np.array(words, dtype=dtype).reshape(shape)


def _entries(dense):
    """``(offsets, cols, words)``: the nonzero rows of a ``[m, labels,
    words]`` stack of slabs, row ``r``'s at ``offsets[r] : offsets[r+1]``
    — the entry layout of the slab forest's levels."""
    rows, cols = np.nonzero(popcount_rows(dense))
    offsets = np.searchsorted(rows, np.arange(dense.shape[0] + 1)).astype(np.int64)
    return offsets, cols, dense[rows, cols]


class TestBlockingBatch:
    """``slab_store._first_blocking`` against the definition of the
    Lemma 4.4 test: per row, the smallest paired label ``c`` (with
    ``cand[c] == tx``) whose ``cand & ~nbr[c]`` is zero outside row
    ``c``.  The dense slabs are handed over as their nonzero rows."""

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
        shapes = [
            data.draw(st.sampled_from(["drawn", "empty", "dense"]), label=f"shape {row}")
            for row in range(n_rows)
        ]
        tx = _draw_slab(data, dtype, (n_rows, tx_words))
        for row, shape in enumerate(shapes):
            if shape != "drawn":
                tx[row] = 0 if shape == "empty" else np.iinfo(dtype).max
        cand = _draw_slab(data, dtype, (n_rows, n_labels, tx_words)) & tx[:, None, :]
        for row, shape in enumerate(shapes):
            if shape == "dense":
                cand[row] = tx[row]
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
        entries = _entries(cand)
        # Tiny chunks, so answered rows drop out between chunks.
        chunk = data.draw(st.integers(1, 4), label="pair chunk")
        chunk_bytes = data.draw(
            st.sampled_from([1, nbr[0, 0].nbytes * 3, nbr[0].nbytes * 2, 1 << 20]),
            label="chunk bytes",
        )
        inputs = [array.copy() for array in (*entries, nbr)]
        with mock.patch.object(slab_store, "_PAIR_CHUNK", chunk), mock.patch.object(
            slab_store, "_CHUNK_BYTES", chunk_bytes
        ):
            got = slab_store._first_blocking(rows, cols, *entries, nbr)
        assert got == expected
        # The cleared rows live in a fresh gather, never in the inputs.
        for array, before in zip((*entries, nbr), inputs):
            assert np.array_equal(array, before)


def _dense_candidates(space, member_bits):
    """A prefix's candidate slab by definition, grown label by label: a
    child's is ``parent & nbr[bit] & parent[bit]`` (``parent[bit]`` is
    the child's ``tx``)."""
    cand = space.nbr[member_bits[0]]
    for bit in member_bits[1:]:
        cand = cand & space.nbr[bit] & cand[bit]
    return cand


#: Transaction counts per slab layout — one u1/u2/u4/u8 word, or two or
#: three u8 words — and the layout's (word bytes, words per row).
LAYOUTS = {
    "u1": ((2, 8), (1, 1)),
    "u2": ((9, 16), (2, 1)),
    "u4": ((17, 32), (4, 1)),
    "u8": ((33, 64), (8, 1)),
    "u8x2": ((65, 128), (8, 2)),
    "u8x3": ((129, 192), (8, 3)),
}


def mixed_label_database(seed: int, n_bases: int, n_graphs: int) -> GraphDatabase:
    """``n_graphs`` transactions drawn from a few unique-label graphs, so
    cliques stay frequent at any transaction count."""
    bases = list(unique_label_database(seed, n_graphs=n_bases))
    rng = random.Random(seed)
    return GraphDatabase(
        (rng.choice(bases).copy(graph_id=tid) for tid in range(n_graphs)),
        name=f"mixed-{seed}",
    )


class TestSparseForest:
    """The forest keeps each prefix's candidate slab as its nonzero rows.

    Every level's entries must equal the nonzero rows of the dense
    definition (``parent & nbr[child] & tx``), and so must every
    child store's own entries — forest-bound or, under a zero
    ``_FOREST_MAX_BYTES``, per-parent batched or grown alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        layout=st.sampled_from(sorted(LAYOUTS)),
        seed=st.integers(0, 2**16),
        n_bases=st.integers(2, 6),
        fraction=st.sampled_from([0.05, 0.1, 0.25]),
        cap=st.sampled_from([slab_store._FOREST_MAX_BYTES, 0]),
        data=st.data(),
    )
    def test_entries_match_dense_definition(
        self, layout, seed, n_bases, fraction, cap, data
    ):
        transactions, word_shape = LAYOUTS[layout]
        n_graphs = data.draw(st.integers(*transactions), label="transactions")
        database = mixed_label_database(seed, n_bases, n_graphs)
        space = database.slab_space()
        assert (space.presence.itemsize, space.tx_words) == word_shape
        forest_cls, store_cls = slab_store._SlabForest, slab_store.SlabEmbeddingStore
        forests = []
        forest_init, extend = forest_cls.__init__, store_cls.extend

        def recorded(forest, *args):
            forest_init(forest, *args)
            forests.append(forest)

        def checked(store, label, *args, **kwargs):
            child = extend(store, label, *args, **kwargs)
            dense = _dense_candidates(space, child._member_bits)
            level, _, lo, hi = child._entries()
            nonzero = np.flatnonzero(popcount_rows(dense))
            assert np.array_equal(level.entry_cols[lo:hi], nonzero)
            assert np.array_equal(level.entry_words[lo:hi], dense[nonzero])
            return child

        min_sup = max(1, int(fraction * n_graphs))
        bitset = ClanMiner(database, MinerConfig(kernel=BITSET)).mine(min_sup)
        with mock.patch.object(forest_cls, "__init__", recorded), mock.patch.object(
            store_cls, "extend", checked
        ), mock.patch.object(slab_store, "_FOREST_MAX_BYTES", cap):
            result = ClanMiner(database, MinerConfig(kernel=SLAB)).mine(min_sup)
        assert_matches_reference(result, bitset, (layout, n_graphs, min_sup, cap))
        assert forests

        for forest in forests:
            dense = space.nbr[forest.levels[0].bits_np]
            for depth, level in enumerate(forest.levels):
                if depth:
                    parent = forest.levels[depth - 1]
                    owners = np.repeat(
                        np.arange(len(parent.bits)), np.diff(parent.child_offsets)
                    )
                    bits = np.array(parent.child_bits, dtype=np.intp)
                    tx = dense[owners, bits]
                    assert np.array_equal(level.tx, tx)
                    dense = dense[owners] & space.nbr[bits] & tx[:, None, :]
                offsets, cols, words = _entries(dense)
                assert np.array_equal(level.offsets, offsets)
                assert np.array_equal(level.entry_cols, cols)
                assert np.array_equal(level.entry_words, words)
            if cap == 0:
                assert len(forest.levels) == 1


def _surface(store, probes, labels):
    """Everything the engine, top-k and result emission read off a store,
    asked in one fixed order: nonclosed probes before any plan, plans
    below, at and above the support, and the probes again after them."""
    last = store.support + 1
    seen = [store.support, store.transactions()]
    seen.append([store.nonclosed_extension_label(probe) for probe in probes])
    seen.append(sorted(store.extension_supports().items()))
    for abs_sup in (1, 2, 4, last):
        seen.append(tuple(store.extension_plan(abs_sup)))
        seen.append([store.nonclosed_extension_label(probe) for probe in probes])
    for valid in (labels, labels[::2], labels[len(labels) // 2 :], []):
        seen.append(store.multiplicity_bound(valid))
    seen.append(sorted(store.witnesses().items()))
    seen.append(sorted(store.iter_embeddings()))
    return seen


class TestStoreSurface:
    """Off the engine, a slab store must answer every store-level
    question exactly as the bitset store does: unknown roots, extensions
    on every label (below the last one, infrequent, absent), extensions
    before and after the parent's plan, and three-deep chains, on one-
    and multi-word layouts."""

    @pytest.mark.parametrize("n_graphs", (4, 70), ids=("one-word", "multi-word"))
    @pytest.mark.parametrize("seed", range(8))
    def test_stores_match_bitset(self, seed, n_graphs):
        from repro.core.embeddings import EmbeddingStore

        database = unique_label_database(seed, n_graphs=n_graphs)
        assert (database.slab_space().tx_words > 1) == (n_graphs > 64)
        labels = sorted(database.label_supports())
        probes = labels + ["~beyond"]
        rng = random.Random(seed)

        def check(pair, key):
            slab, bitset = pair
            assert type(slab).__name__ == "SlabEmbeddingStore", key
            assert _surface(slab, probes, labels) == _surface(bitset, probes, labels), key

        # "T05x" names no vertex and sorts inside the alphabet.
        for root in labels + ["T05x"]:
            pair = [EmbeddingStore.for_label(database, None, root, slab=s) for s in (True, False)]
            unplanned = [store.extend(label, root) for label in probes for store in pair]
            for i, label in enumerate(probes):
                check(unplanned[2 * i : 2 * i + 2], (root, label, "before plan"))
            check(pair, (root,))
            for store in pair:
                store.extension_plan(1)
            for label in probes:
                child = [store.extend(label, root) for store in pair]
                check(child, (root, label))
                if not child[1].support:
                    continue
                for store in child:
                    store.extension_plan(2)
                for deeper in rng.sample(probes, 3):
                    grandchild = [store.extend(deeper, label) for store in child]
                    check(grandchild, (root, label, deeper))

    @pytest.mark.parametrize("n_graphs", (4, 70), ids=("one-word", "multi-word"))
    def test_zero_support_store_has_no_blocking_label(self, n_graphs):
        # A prefix supported nowhere has no embedding to carry a Lemma
        # 4.4 label, on either kernel, before and after its plan.
        from repro.core.embeddings import EmbeddingStore

        database = unique_label_database(0, n_graphs=n_graphs)
        labels = sorted(database.label_supports())
        probes = labels + ["~beyond"]
        for slab in (True, False):
            root = EmbeddingStore.for_label(database, None, "T05x", slab=slab)
            child = EmbeddingStore.for_label(database, None, labels[0], slab=slab)
            for store in (root, child.extend("T05x", labels[0])):
                assert store.support == 0
                assert [store.nonclosed_extension_label(p) for p in probes] == [None] * len(probes)
                assert store.extension_plan(1) == ([], 0, False)
                assert [store.nonclosed_extension_label(p) for p in probes] == [None] * len(probes)


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
            {"structural_redundancy_pruning": False, "nonclosed_prefix_pruning": False},
        ),
        ids=("frequent", "no-nonclosed", "no-core", "size-window", "no-redundancy"),
    )
    def test_ablation_configs_identical(self, seed, overrides):
        for database in (make_random_database(seed), unique_label_database(seed)):
            reference = set_reference(database, 2, MinerConfig(**overrides))
            for kernel in KERNELS:
                config = MinerConfig(kernel=kernel, **overrides)
                result = ClanMiner(database, config).mine(2)
                assert_matches_reference(result, reference, (kernel, database.name))

    def test_redundancy_off_roots_run_on_int_masks(self):
        # The slab store grows canonical extensions only, so the
        # pruning-off ablation asks for int-mask roots on aligned data.
        from repro.core.embeddings import EmbeddingStore
        from repro.core.engine import MiningEngine

        database = unique_label_database(3)
        assert database.slab_space() is not None
        label = sorted(database.label_supports())[0]
        for redundancy, expected in (
            (True, slab_store.SlabEmbeddingStore),
            (False, EmbeddingStore),
        ):
            config = MinerConfig(
                structural_redundancy_pruning=redundancy, nonclosed_prefix_pruning=False
            )
            assert config.kernel == SLAB
            engine = MiningEngine(database, config)
            assert type(engine.strategy.root_store(engine, None, label, {})) is expected


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
