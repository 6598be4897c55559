"""Property tests for the bitset kernel's mask primitives.

Every mask-valued primitive must agree exactly with its set-valued
counterpart: neighbour masks with :meth:`Graph.neighbors`, popcount
and bit iteration with set cardinality and membership, core-pruning
masks with the set-based survivor sets, and the store-level Lemma 4.4
scan with the hashed-set oracle's.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closure import fully_connected_old_labels_mask
from repro.core.embeddings import EmbeddingStore
from repro.graphdb import Graph, GraphDatabase
from repro.graphdb.bitset import (
    iter_bits,
    lowest_bit,
    mask_from_bits,
    popcount,
)

from tests.conftest import make_random_database
from tests.oracles import SetCliqueStore, fully_connected_old_labels
from tests.strategies import labeled_graphs
from tests.test_kernel_differential import unique_label_database

bitsets = st.integers(min_value=0, max_value=(1 << 80) - 1)


class TestPrimitives:
    @given(mask=bitsets)
    def test_popcount_matches_bit_iteration(self, mask):
        bits = list(iter_bits(mask))
        assert popcount(mask) == len(bits)
        assert bits == sorted(set(bits))

    @given(bits=st.sets(st.integers(0, 80)))
    def test_mask_roundtrip(self, bits):
        mask = mask_from_bits(bits)
        assert set(iter_bits(mask)) == bits
        assert popcount(mask) == len(bits)
        for position in range(82):
            assert bool(mask & (1 << position)) == (position in bits)

    @given(mask=bitsets.filter(bool))
    def test_lowest_bit(self, mask):
        assert lowest_bit(mask) == min(iter_bits(mask))


class TestGraphMasks:
    @settings(deadline=None)
    @given(graph=labeled_graphs())
    def test_neighbor_mask_roundtrips_neighbors(self, graph):
        for vertex in graph.vertices():
            decoded = set(graph.vertices_from_mask(graph.neighbor_mask(vertex)))
            assert decoded == graph.neighbors(vertex)

    @settings(deadline=None)
    @given(graph=labeled_graphs())
    def test_label_masks_partition_vertices(self, graph):
        index = graph.bit_index()
        for label, mask in index.label_masks.items():
            assert set(index.vertices_of(mask)) == graph.vertices_with_label(label)
        assert sum(index.label_masks.values()) == index.all_mask

    @settings(deadline=None)
    @given(graph=labeled_graphs())
    def test_mask_below_is_prefix_union(self, graph):
        index = graph.bit_index()
        for probe in sorted(set(index.labels_by_bit)) + ["~beyond", ""]:
            expected = {
                v for v in graph.vertices() if graph.label(v) < probe
            }
            assert set(index.vertices_of(index.mask_below(probe))) == expected

    def test_mask_invalidation_on_mutation(self):
        graph = Graph()
        graph.add_vertex(0, "a")
        graph.add_vertex(1, "b")
        graph.add_edge(0, 1)
        assert graph.vertices_from_mask(graph.neighbor_mask(0)) == [1]
        graph.add_vertex(2, "c")
        graph.add_edge(0, 2)
        assert graph.vertices_from_mask(graph.neighbor_mask(0)) == [1, 2]
        graph.remove_vertex(1)
        assert graph.vertices_from_mask(graph.neighbor_mask(0)) == [2]


class TestCoreMasks:
    @pytest.mark.parametrize("seed", range(8))
    def test_usable_mask_matches_usable_set(self, seed):
        database = make_random_database(seed)
        for graph in database:
            index = graph.core_index()
            for size in range(1, index.max_clique_upper_bound() + 2):
                survivors = index.usable_at(size)
                assert set(graph.vertices_from_mask(index.usable_mask_at(size))) == set(
                    survivors
                )

    def test_core_index_cached_and_invalidated(self):
        graph = Graph()
        for vertex, label in enumerate("abc"):
            graph.add_vertex(vertex, label)
        graph.add_edge(0, 1)
        first = graph.core_index()
        assert graph.core_index() is first
        graph.add_edge(1, 2)
        second = graph.core_index()
        assert second is not first
        assert second.max_core == 1


class TestClosureVariantsAgree:
    """The Lemma 4.4 scans agree with the hashed-set oracle's."""

    @pytest.mark.parametrize("seed", range(6))
    def test_local_mask_variant_matches_set_variant(self, seed):
        database = make_random_database(seed)
        for graph in database:
            adjacency = graph.adjacency_map()
            label_of = graph.label_map()
            candidates = {v for v in graph.vertices() if v % 2 == 0}
            for probe in sorted(graph.distinct_labels()) + ["~beyond"]:
                expected = fully_connected_old_labels(
                    candidates, adjacency, label_of, probe
                )
                mask = graph.mask_of(candidates)
                assert (
                    fully_connected_old_labels_mask(mask, graph, probe) == expected
                )

    @pytest.mark.parametrize("seed", range(6))
    def test_aligned_variant_matches_set_variant(self, seed):
        # On aligned (unique-label) data the store's per-graph-mask scan
        # takes the unique-label shortcut; hold it to the set oracle's
        # store-level answer on every supported 2-clique prefix, for
        # both strategies, with and without the tie set an extension
        # plan seeds it from.
        database = unique_label_database(seed)
        assert all(graph.bit_index().unique_labels for graph in database)
        labels = sorted(database.label_supports())
        for first in labels:
            oracle_root = SetCliqueStore.for_label(database, None, first)
            for strategy in ("cached", "rescan"):
                root = EmbeddingStore.for_label(database, None, first, strategy)
                assert type(root) is EmbeddingStore
                for second in labels[labels.index(first):]:
                    oracle = oracle_root.extend(second, first)
                    if not oracle.support:
                        continue  # the engine never scans an unsupported prefix
                    for probe in labels + ["~beyond"]:
                        expected = oracle.nonclosed_extension_label(probe)
                        store = root.extend(second, first)
                        assert store.nonclosed_extension_label(probe) == expected
                        store.extension_plan(1)
                        assert store.nonclosed_extension_label(probe) == expected


class TestSlabPrimitives:
    """The uint64 slab primitives must agree with the int-mask ones.

    The slab kernel is a re-encoding of the bitset kernel's masks into
    little-endian uint64 word arrays; these properties pin the encoding
    (round-trips), the counts (vectorised popcount vs ``int.bit_count``
    on both the ``numpy.bitwise_count`` and byte-LUT paths), and the
    bit iteration order.
    """

    @given(mask=bitsets, extra_words=st.integers(0, 2))
    def test_words_round_trip(self, mask, extra_words):
        from repro.graphdb import slab

        n_words = max(1, -(-mask.bit_length() // 64)) + extra_words
        words = slab.words_from_int(mask, n_words)
        assert words.shape == (n_words,)
        assert slab.int_from_words(words) == mask

    @given(masks=st.lists(bitsets, min_size=1, max_size=8))
    def test_popcount_rows_matches_bit_count(self, masks):
        import numpy as np

        from repro.graphdb import slab

        n_words = max(1, max(-(-m.bit_length() // 64) for m in masks))
        rows = np.stack([slab.words_from_int(m, n_words) for m in masks])
        expected = [m.bit_count() for m in masks]
        assert slab.popcount_rows(rows).tolist() == expected
        # The [m, n, words] shape of a grown forest level.
        grown = np.stack([rows, rows[::-1]])
        assert slab.popcount_rows(grown).tolist() == [expected, expected[::-1]]
        # Both popcount implementations must agree: the numpy >= 2.0
        # bitwise_count fast path and the byte-LUT fallback.
        per_word_fast = slab.popcount_words(rows)
        saved = slab._HAS_BITWISE_COUNT
        try:
            slab._HAS_BITWISE_COUNT = False
            per_word_lut = slab.popcount_words(rows)
        finally:
            slab._HAS_BITWISE_COUNT = saved
        assert per_word_fast.tolist() == per_word_lut.tolist()

    @given(mask=bitsets)
    def test_iter_word_bits_matches_iter_bits(self, mask):
        from repro.graphdb import slab

        n_words = max(1, -(-mask.bit_length() // 64))
        words = slab.words_from_int(mask, n_words)
        assert slab.bit_positions(words).tolist() == list(iter_bits(mask))

    @pytest.mark.parametrize("dtype", ["<u1", "<u2", "<u4", "<u8"])
    @given(mask=bitsets)
    def test_bit_positions_on_every_word_width(self, dtype, mask):
        """Every slab word width: a contiguous little-endian row, the
        layout every slab array has."""
        import numpy as np

        from repro.graphdb import slab

        width = np.dtype(dtype).itemsize * 8
        n_words = max(1, -(-mask.bit_length() // width))
        words = np.array(
            [(mask >> (width * w)) & ((1 << width) - 1) for w in range(n_words)],
            dtype=dtype,
        )
        assert slab.bit_positions(words).tolist() == list(iter_bits(mask))
