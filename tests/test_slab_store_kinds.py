"""Every kind of slab store emits what the bitset store emits.

A slab store is a row of a ``_ForestLevel``, and that level is made
one of five ways: a forest level, a per-parent batch, a row digested
alone at another threshold, a one-pair growth, or the empty
``_nowhere`` level (and an infrequent root is the one row of its own
root level).  Each store reads its emission (``transactions``,
``witnesses``, ``iter_embeddings``) straight off its row, so every kind
must equal the bitset store of the same prefix on every word layout:
one ``<u1``/``<u2``/``<u4``/``<u8`` word, or several ``<u8`` words.  The
Lemma 4.4 test is probed at and below each store's last label, the
below-rank branch being the one that scans the row's own entries.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embeddings import EmbeddingStore
from repro.core.slab_store import SlabEmbeddingStore
from repro.graphdb import GraphDatabase

from tests.strategies import aligned_databases
from tests.test_kernel_differential import unique_label_database

#: Transaction counts per slab layout, and the layout's (word bytes,
#: words per row).
LAYOUTS = {
    "<u1": ((1, 8), (1, 1)),
    "<u2": ((9, 16), (2, 1)),
    "<u4": ((17, 32), (4, 1)),
    "<u8": ((33, 64), (8, 1)),
    "<u8x2": ((65, 128), (8, 2)),
}

KINDS = ("forest", "batch", "alone", "single", "nowhere")


def layered(base: GraphDatabase, picks) -> GraphDatabase:
    """Transaction ``tid`` is a copy of ``base[picks[tid]]``."""
    graphs = list(base)
    return GraphDatabase(
        (graphs[pick].copy(graph_id=tid) for tid, pick in enumerate(picks)), name="layered"
    )


def store_kinds(database: GraphDatabase, abs_sup: int):
    """``(kind, slab store, bitset store)`` for prefixes reached every
    way a slab store can be made, each kind checked by its mechanism."""
    labels = sorted(database.label_supports())
    context = {"roots": labels, "abs_sup": abs_sup}
    found = []

    def add(kind, slab, bitset):
        assert type(slab) is SlabEmbeddingStore, kind
        found.append((kind, slab, bitset))

    def pair(label, context=None):
        return (
            EmbeddingStore.for_label(database, None, label, context=context, slab=True),
            EmbeddingStore.for_label(database, None, label),
        )

    # A label outside the alphabet is supported nowhere.
    slab, bitset = pair("~none", context)
    assert slab.support == 0
    add("nowhere", slab, bitset)
    for root in labels:
        slab, bitset = pair(root, context)
        if slab._forest is None:
            # An infrequent root is the one row of its own root level.
            add("own root", slab, bitset)
            continue
        add("forest", slab, bitset)
        for label in labels:
            child = slab.extend(label, root), bitset.extend(label, root)
            if child[0]._forest is not None:
                add("forest", *child)
            elif child[0].support:
                add("single", *child)  # infrequent or below the root
            else:
                add("nowhere", *child)  # no entry at the label
        # Digested again above the forest's threshold, the root leaves
        # the forest and batches its own frequent children.
        slab.extension_plan(abs_sup + 1)
        bitset.extension_plan(abs_sup + 1)
        assert slab._forest is None
        add("alone", slab, bitset)
        for label, _ in slab.extension_plan(abs_sup + 1)[0]:
            if label > root:
                child = slab.extend(label, root), bitset.extend(label, root)
                assert child[0]._source is slab._batch
                add("batch", *child)
    return found


def probes_below(labels, last):
    """Every alphabet label at or below ``last``, and a label outside
    the alphabet just above each (it sorts between two bits)."""
    below = [label for label in labels if label <= last]
    return below + [label + "!" for label in below] + [""]


@settings(max_examples=80, deadline=None)
@given(
    base=aligned_databases(min_graphs=1, max_graphs=4),
    layout=st.sampled_from(sorted(LAYOUTS)),
    abs_sup=st.integers(1, 3),
    data=st.data(),
)
def test_every_store_kind_emits_as_bitset(base, layout, abs_sup, data):
    (low, high), word_shape = LAYOUTS[layout]
    n_tx = data.draw(st.integers(low, high), label="transactions")
    picks = data.draw(
        st.lists(st.integers(0, len(base) - 1), min_size=n_tx, max_size=n_tx), label="picks"
    )
    database = layered(base, picks)
    space = database.slab_space()
    if space is None:  # no labels at all: nothing to mine on the slab
        assert not database.label_supports()
        return
    assert (space.presence.itemsize, space.tx_words) == word_shape
    labels = sorted(database.label_supports())
    for kind, slab, bitset in store_kinds(database, min(abs_sup, n_tx)):
        key = (kind, slab)
        assert slab.transactions() == bitset.transactions(), key
        assert dict(slab.witnesses()) == dict(bitset.witnesses()), key
        assert list(slab.iter_embeddings()) == list(bitset.iter_embeddings()), key
        members = slab._member_bits
        last = slab.slab.labels[members[-1]] if members else ""
        for probe in probes_below(labels, last):
            assert slab.nonclosed_extension_label(probe) == bitset.nonclosed_extension_label(
                probe
            ), (key, probe)


@pytest.mark.parametrize("n_graphs", (4, 70), ids=("one-word", "multi-word"))
def test_store_kinds_reach_every_kind(n_graphs):
    # The helper the property runs on really makes all five kinds.
    database = unique_label_database(1, n_graphs=n_graphs)
    kinds = {kind for kind, _, _ in store_kinds(database, 2)}
    assert kinds >= set(KINDS)
