"""Native-width slab primitives for the mining hot path.

The bitset kernel (:mod:`repro.graphdb.bitset`) keeps every mask a
Python arbitrary-precision ``int``: each ``&``/popcount is fast C code,
but every *operation* still pays interpreter dispatch and a fresh
bigint allocation.  The slab kernel trades those per-operation costs
for numpy's per-*array* cost by batching masks into unsigned-word slab
arrays and running ``&``/``|``/popcount vectorized across whole rows.

The payoff comes from the **transposed** layout this module builds for
aligned (unique-label) databases.  There, a prefix clique has exactly
one embedding per supporting transaction — a label names at most one
vertex — so the full kernel state of a prefix is *per extension label,
the set of transactions where it extends the prefix*:

``cand[α]``
    ``word[tx_words]`` — bit ``t`` set iff label ``α`` is a candidate
    extension of the prefix's embedding in transaction ``t``.

Stacked over the whole alphabet this is one ``[n_labels, tx_words]``
slab, and Algorithm 1's scans become single vectorized expressions:

* extension supports (lines 01–03): ``popcount(cand)`` summed over
  the word axis (:func:`popcount_rows`),
* growing by β (line 09): ``cand & nbr[β] & cand[β]``,
* Lemma 4.4's full-connectivity test: ``cand & ~nbr[β]`` is zero.

``nbr`` is the transposed adjacency this module precomputes once per
database: ``nbr[b, a]`` holds, over transactions, where the vertices
labeled ``b`` and ``a`` are adjacent.  Word layout everywhere:
little-endian unsigned words of ``B`` bits, bit ``t`` of word ``w``
standing for transaction ``B*w + t`` — the numpy mirror of the int-mask
convention, so conversions are plain byte reinterpretation.  ``B`` is
the narrowest of 8/16/32/64 that holds every transaction in one word
(:func:`word_dtype`), else 64.

Popcount uses :func:`numpy.bitwise_count` (numpy >= 2.0) and falls
back to an 8-bit lookup table over the byte view on older numpy.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import DatabaseError
from .bitset import GraphBitIndex, Label

#: Little-endian uint64: byte views line up with ``int.to_bytes(...,
#: "little")`` regardless of host endianness.  The word of databases
#: with more than 64 transactions.
WORD_DTYPE = np.dtype("<u8")

#: Ceiling on the transposed index's resident ``nbr`` slab, in bytes.
#: Databases above it simply keep the int-mask kernel.
DEFAULT_BUILD_BYTES = 256 * 1024 * 1024

#: Vertex ids the ``int32`` vertex matrix can hold.
_VERTEX_MIN, _VERTEX_MAX = -(2**31), 2**31 - 1

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Byte-popcount lookup table for the pre-2.0 numpy fallback.
_POPCOUNT_LUT = np.array([i.bit_count() for i in range(256)], dtype=np.uint8)


def word_dtype(n_transactions: int) -> np.dtype:
    """The slab word for a database of ``n_transactions``.

    The narrowest little-endian unsigned word that holds every
    transaction in one word, or ``uint64`` (several words) past 64: an
    11-transaction database gets ``uint16`` words, so its slabs, forest
    levels and batches are a quarter of their ``uint64`` size.
    """
    for dtype in ("<u1", "<u2", "<u4"):
        if n_transactions <= np.dtype(dtype).itemsize * 8:
            return np.dtype(dtype)
    return WORD_DTYPE


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word popcounts of an unsigned word array (same shape, small ints).

    Uses :func:`numpy.bitwise_count` when available; otherwise an 8-bit
    lookup over the byte view (both return identical values).
    """
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    flat = np.ascontiguousarray(words)
    as_bytes = flat.view(np.uint8).reshape(flat.shape + (flat.dtype.itemsize,))
    return _POPCOUNT_LUT[as_bytes].sum(axis=-1, dtype=np.uint8)


def popcount_rows(rows: np.ndarray) -> np.ndarray:
    """Set-bit totals along the last (word) axis, as ``int64``.

    ``[..., n_words] words -> [...] int64`` — the vectorized analogue
    of mapping :func:`repro.graphdb.bitset.popcount` over int masks.
    The word axis is short (one word per 64 transactions), so the
    per-word popcounts are added one word at a time: a strided add per
    word costs a fraction of numpy's ``sum`` over a trailing axis.
    Every slab row has at least one word.
    """
    per_word = popcount_words(rows)
    totals = per_word[..., 0].astype(np.int64)
    for word in range(1, per_word.shape[-1]):
        totals += per_word[..., word]
    return totals


def words_from_int(mask: int, n_words: int) -> np.ndarray:
    """An int bitmask as a little-endian ``uint64`` word array."""
    return np.frombuffer(mask.to_bytes(n_words * 8, "little"), dtype=WORD_DTYPE).copy()


def int_from_words(words: np.ndarray) -> int:
    """The int bitmask a word array encodes (inverse of words_from_int)."""
    return int.from_bytes(np.ascontiguousarray(words, dtype=WORD_DTYPE).tobytes(), "little")


def bit_positions(words: np.ndarray) -> np.ndarray:
    """Set-bit positions of a contiguous slab word row, ascending, as ``intp``.

    Matches :func:`repro.graphdb.bitset.iter_bits` on the equivalent
    int mask: position ``B*w + t`` for bit ``t`` of ``B``-bit word
    ``w``.  Slab words are little-endian, so the row's bytes unpack in
    little-endian bit order with no conversion: one ``unpackbits`` and
    one ``nonzero`` per row.
    """
    return np.unpackbits(words.view(np.uint8), bitorder="little").nonzero()[0]


#: One transaction as the slab builder reads it: its vertex ids
#: ascending, each vertex's label, and its edges as two parallel
#: sequences of positions into the vertex list (edge ``i`` joins
#: ``ends[0][i]`` and ``ends[1][i]``, in either orientation; a repeated
#: edge counts once) — the shape of
#: :func:`repro.graphdb.schema.parse_row`.
SlabRow = Tuple[Sequence[int], Sequence[Label], Tuple[Sequence[int], Sequence[int]]]

#: The builder's feed, in tid order: ``(tid, key, load)``.  ``load()``
#: returns the transaction's :data:`SlabRow`; transactions of one word
#: with equal ``key`` are the same graph, loaded and scattered once.
SlabFeed = Iterable[Tuple[int, Hashable, Callable[[], SlabRow]]]


def _index_row(index: GraphBitIndex) -> SlabRow:
    """The :data:`SlabRow` of a resident graph's mask index."""
    n = len(index.order)
    row_bytes = (n + 7) // 8
    neighbor_masks = index.neighbor_masks
    packed = b"".join(
        neighbor_masks[vertex].to_bytes(row_bytes, "little") for vertex in index.order
    )
    adjacency = np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8).reshape(n, row_bytes),
        axis=1,
        count=n,
        bitorder="little",
    )
    return index.order, index.labels_by_bit, np.nonzero(np.triu(adjacency, 1))


def index_feed(indexes: Iterable[GraphBitIndex]) -> SlabFeed:
    """The slab feed of resident graphs, one mask index per transaction.

    Keyed by index object, so a replicated database's shared graphs
    are unpacked and scattered once per word.
    """
    for tid, index in enumerate(indexes):
        yield tid, index, functools.partial(_index_row, index)


class _Ineligible(Exception):
    """A streamed transaction the transposed layout cannot hold."""


def _tx_words(n_transactions: int) -> int:
    """Words per transaction axis of a database of ``n_transactions``."""
    word_bits = word_dtype(n_transactions).itemsize * 8
    return max(1, (n_transactions + word_bits - 1) // word_bits)


def _scatter(
    feed: SlabFeed, labels: Tuple[Label, ...], n_tx: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nbr, presence, vertices)`` of a :data:`SlabFeed` over ``n_tx``.

    Consumes the feed one transaction word (up to 64 transactions) at
    a time, so its working set is that word's rows; transactions of
    one word that share a key are loaded and written together.  A
    transaction with a repeated label or a vertex id outside ``int32``
    raises :class:`_Ineligible`; a feed that skips or reorders a tid,
    or names a label outside ``labels``, raises :class:`DatabaseError`.
    """
    bit_of = {label: bit for bit, label in enumerate(labels)}
    n_labels = len(labels)
    dtype = word_dtype(n_tx)
    word_bits = dtype.itemsize * 8
    tx_words = _tx_words(n_tx)
    nbr = np.zeros((n_labels, n_labels, tx_words), dtype=dtype)
    presence = np.zeros((n_labels, tx_words), dtype=dtype)
    vertices = np.full((n_tx, n_labels), -1, dtype=np.int32)

    def load(tid: int, loader: Callable[[], SlabRow]) -> tuple:
        order, row_labels, ends = loader()
        if order and (order[0] < _VERTEX_MIN or order[-1] > _VERTEX_MAX):
            raise _Ineligible
        try:
            positions = [bit_of[label] for label in row_labels]
        except KeyError as exc:
            raise DatabaseError(
                f"transaction {tid} has label {exc.args[0]!r} outside the alphabet"
            ) from None
        if len(set(positions)) < len(positions):
            raise _Ineligible
        return order, np.array(positions, dtype=np.intp), ends

    def scatter(word: int, groups: Dict[Hashable, list]) -> None:
        for (order, positions, ends), bits, tids in groups.values():
            mask = dtype.type(bits)
            presence[positions, word] |= mask
            vertices[np.array(tids, dtype=np.intp)[:, None], positions] = order
            a, b = (positions[np.asarray(end, dtype=np.intp)] for end in ends)
            nbr[a, b, word] |= mask
            nbr[b, a, word] |= mask

    word = 0
    groups: Dict[Hashable, list] = {}
    expected = 0
    for tid, key, loader in feed:
        if tid != expected:
            raise DatabaseError(f"transaction {expected} is missing (next: {tid})")
        expected += 1
        if tid // word_bits != word:
            scatter(word, groups)
            word = tid // word_bits
            groups = {}
        bit = 1 << (tid - word * word_bits)
        group = groups.get(key)
        if group is None:
            groups[key] = [load(tid, loader), bit, [tid]]
        else:
            group[1] |= bit
            group[2].append(tid)
    if expected != n_tx:
        raise DatabaseError(f"transaction {expected} is missing (next: none)")
    scatter(word, groups)
    return nbr, presence, vertices


class TransposedSlabSpace:
    """The transposed slab index of one aligned database snapshot.

    Holds, for transactions ``0..n-1`` and the database's sorted label
    alphabet ``labels``, three arrays; bit ``b`` of the label axis
    stands for ``labels[b]`` (``bit_of`` inverts it) and bit ``t`` of
    the word axis for transaction ``t``:

    * ``nbr`` — ``word[n_labels, n_labels, tx_words]``; bit ``t`` of
      ``nbr[b, a]`` set iff both labels are present in transaction
      ``t`` and their vertices are adjacent there (symmetric, zero
      diagonal: a vertex is not its own neighbour),
    * ``presence`` — ``word[n_labels, tx_words]``; bit ``t`` of
      ``presence[b]`` set iff label ``b`` occurs in transaction ``t``,
    * ``vertices`` — ``int32[n_transactions, n_labels]``; cell
      ``(t, b)`` is the vertex carrying label bit ``b`` in transaction
      ``t``, ``-1`` where the label is absent.  Witnesses and
      embeddings are gathered from it with one fancy index.

    plus, derived at construction: ``label_tx_counts``, the
    ``int64[n_labels]`` row popcounts of ``presence`` (the per-label
    supports, so root stores are O(1)); ``label_array``, ``labels`` as
    an object array (a batch of label bits becomes its labels in one
    ``take``); and the nonzero rows of ``nbr`` per label, as CSR:
    ``nbr_cols[nbr_offsets[b] : nbr_offsets[b + 1]]`` are the ``a``
    with ``nbr[b, a]`` nonzero, ascending (a batch of roots gathers its
    candidate rows without a dense scan).  ``word`` is
    :func:`word_dtype` of the transaction count.  The one constructor
    takes the arrays, however they were made: :func:`build_slab_space`
    scatters them from a :data:`SlabFeed`, which needs no graph (the
    in-memory source derives each row from a resident mask index,
    :func:`index_feed`), and :func:`unpack_index` maps them read-only
    from a stored index.  Nothing writes to them after construction.
    """

    __slots__ = (
        "labels",
        "bit_of",
        "n_labels",
        "n_transactions",
        "tx_words",
        "nbr",
        "presence",
        "label_tx_counts",
        "label_array",
        "nbr_cols",
        "nbr_offsets",
        "vertices",
    )

    def __init__(
        self,
        labels: Tuple[Label, ...],
        nbr: np.ndarray,
        presence: np.ndarray,
        vertices: np.ndarray,
    ) -> None:
        self.nbr = nbr
        self.presence = presence
        self.vertices = vertices
        self.label_tx_counts = popcount_rows(presence)
        self.labels = labels
        label_array = self.label_array = np.empty(len(labels), dtype=object)
        for bit, label in enumerate(labels):
            label_array[bit] = label  # one at a time: a tuple label stays one item
        self.bit_of = {label: bit for bit, label in enumerate(labels)}
        self.n_labels = len(labels)
        self.n_transactions = vertices.shape[0]
        self.tx_words = presence.shape[-1]
        owners, self.nbr_cols = np.divmod(np.flatnonzero(nbr.any(axis=-1)), self.n_labels)
        self.nbr_offsets = np.searchsorted(owners, np.arange(self.n_labels + 1))

    def __repr__(self) -> str:
        return (
            f"<TransposedSlabSpace |L|={self.n_labels} |D|={self.n_transactions} "
            f"tx_words={self.tx_words}>"
        )


def build_slab_space(
    feed: SlabFeed,
    labels: Tuple[Label, ...],
    n_transactions: int,
    max_build_bytes: int = DEFAULT_BUILD_BYTES,
) -> Optional[TransposedSlabSpace]:
    """Build the transposed slab index, or ``None`` when ineligible.

    The one builder behind every storage backend: ``feed`` is a
    :data:`SlabFeed` over all ``n_transactions`` and ``labels`` is the
    sorted alphabet.  Requires at least one label and transaction and
    a resident ``nbr`` slab under ``max_build_bytes`` (both checked
    before the feed is touched), unique per-vertex labels in every
    transaction, and vertex ids that fit the ``int32`` vertex matrix
    (both checked as it streams; the first failure stops the feed).
    Ineligible databases keep the int-mask kernel; results are
    byte-identical either way.
    """
    n_labels = len(labels)
    if not n_labels or not n_transactions:
        return None
    nbr_words = n_labels * n_labels * _tx_words(n_transactions)
    if nbr_words * word_dtype(n_transactions).itemsize > max_build_bytes:
        return None
    try:
        return TransposedSlabSpace(labels, *_scatter(feed, labels, n_transactions))
    except _Ineligible:
        return None


def index_layout(n_labels: int, n_transactions: int) -> Tuple[Tuple[str, str, tuple], ...]:
    """The arrays of a stored slab index: ``(name, dtype, shape)`` in blob order."""
    dtype = word_dtype(n_transactions).str
    tx_words = _tx_words(n_transactions)
    return (
        ("nbr", dtype, (n_labels, n_labels, tx_words)),
        ("presence", dtype, (n_labels, tx_words)),
        ("vertices", "<i4", (n_transactions, n_labels)),
    )


def pack_index(space: TransposedSlabSpace) -> bytes:
    """The index's arrays as one blob, laid out by :func:`index_layout`."""
    return b"".join(
        np.ascontiguousarray(getattr(space, name), dtype=dtype).tobytes()
        for name, dtype, _ in index_layout(space.n_labels, space.n_transactions)
    )


def unpack_index(
    blob: bytes, labels: Tuple[Label, ...], n_transactions: int
) -> Optional[TransposedSlabSpace]:
    """The index :func:`pack_index` wrote, as read-only views of ``blob``.

    ``None`` unless ``blob`` is exactly the layout's size.
    """
    arrays, at = [], 0
    for _, dtype, shape in index_layout(len(labels), n_transactions):
        count = math.prod(shape)
        end = at + count * np.dtype(dtype).itemsize
        if end > len(blob):
            return None
        arrays.append(np.frombuffer(blob, dtype, count, at).reshape(shape))
        at = end
    return TransposedSlabSpace(labels, *arrays) if at == len(blob) else None
