"""The slab kernel's embedding store (``MinerConfig.kernel="slab"``).

:class:`SlabEmbeddingStore` is the aligned-database fast path of the
slab kernel: it mirrors :class:`repro.core.embeddings.EmbeddingStore`'s
engine-facing surface while keeping the whole per-prefix state in the
transposed slab layout of :mod:`repro.graphdb.slab` — a candidate slab
``word[n_labels, tx_words]`` whose row ``α`` masks the transactions
where label ``α`` extends the prefix.

Why transposition is exact here: with unique per-vertex labels a prefix
clique has exactly one embedding per supporting transaction (a label
names at most one vertex), so "the candidate sets of every embedding"
and "per extension label, the supporting transactions" carry the same
information, just batched along the axis numpy can vectorize.

What makes the kernel fast is not the vectorized expressions alone but
*where* they run.  numpy pays ~1µs of dispatch per call; a search tree
visits tens of thousands of prefixes, so per-prefix numpy work would
drown the vector win on small databases.  The kernel therefore answers
per-prefix questions from **level-synchronous forest batches**
(:class:`_SlabForest`, one per mine call, hosted in the context dict
the engine threads through ``root_store``):

* a level is sparse: only a few percent of a prefix's candidate rows
  are nonzero, so each level keeps every prefix's nonzero rows as
  entries (:class:`_ForestLevel`) and grows the next depth from them
  in one pass of gathers, ANDs and per-entry popcounts (levels are
  built lazily, on the first ``extend`` out of the previous depth),
* the engine always calls ``extension_plan(abs_sup)`` before anything
  else on a store, and ``abs_sup`` is fixed for a mine call — so the
  level batch also derives each prefix's *entire plan digest*
  (frequent list, infrequent count, Lemma 4.3 verdict, tied labels)
  with one thresholded extraction over the entries,
* under canonical prefix growth, the rank a prefix's Lemma 4.4 scan
  runs at is its own last bit — known at batch time — so the
  non-closed test for a *whole level* collapses into one chunked pass
  over the (prefix, tied label) pairs, resolved lazily on the first
  store that asks,
* forests whose entries outgrow ``_FOREST_MAX_BYTES`` stop deepening;
  affected stores fall back to the same entry growth applied per
  parent (one batch over a prefix's frequent children),
  byte-identically.

A tied label ``c`` satisfies ``cand[c] == tx`` by definition
(``counts[c] == support`` and every row is a subset of ``tx``), and
``c`` blocks iff ``cand & ~nbr[c]`` is zero outside row ``c`` — row
``c`` itself always equals ``tx`` (the diagonal of ``nbr`` is zero).
:func:`_first_blocking` is the one definition of that test: zero rows
pass it, so it gathers only a prefix's entries, clears the one at
``c``, and reduces each pair's flat words with one ``reduceat``, so no
reduction runs over the short word axis.

A store bound to a batch row holds no dense slab: the cold paths that
need one — single extensions, extension counts, off-engine Lemma 4.4
scans — scatter it from the entries on first use.  Everything the hot
path does not need — witness tuples, per-embedding records,
restriction, the unordered-extension ablation — materialises the
equivalent int-mask records lazily and delegates to the bitset kernel,
which keeps the byte-identity contract trivially.

Construction goes through :meth:`repro.core.embeddings.EmbeddingStore.
for_label`, which dispatches to this class only when the database has
a transposed slab space and the strategy is ``cached``; otherwise the
slab kernel falls back to int masks wholesale (identical results, no
special cases downstream).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..graphdb.core_index import PseudoDatabase
from ..graphdb.database import GraphDatabase
from ..graphdb.slab import (
    TransposedSlabSpace,
    bit_position_array,
    popcount_rows,
)
from .canonical import Label
from .pattern import WitnessRows

#: Pairs per chunk of the batched Lemma 4.4 resolution — because rows
#: whose answer is already known drop out between chunks, bounds how
#: far the batch can overshoot the sequential scan's early exit.
_PAIR_CHUNK = 256

#: Ceiling on the candidate rows one chunk temporary gathers, in bytes:
#: wide (multi-word) databases gather fewer rows per chunk, so no
#: transient outgrows it.
_CHUNK_BYTES = 1024 * 1024

#: Ceiling on the candidate-entry bytes a mine call's speculative
#: forest may hold.  Mine calls whose search tree grows past it stop
#: deepening the forest and fall back to per-parent batching — same
#: answers, bounded memory.
_FOREST_MAX_BYTES = 16 * 1024 * 1024


def _chunk_rows(nbr: np.ndarray) -> int:
    """Candidate rows per chunk temporary: ``_CHUNK_BYTES`` of them, at least one."""
    return max(1, _CHUNK_BYTES // max(1, nbr.itemsize * nbr.shape[-1]))


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of the segments ``starts[i] : starts[i] + lengths[i]``.

    Returns the positions back to back, and where each segment begins
    among them.
    """
    firsts = np.cumsum(lengths) - lengths
    total = int(firsts[-1] + lengths[-1]) if lengths.size else 0
    return np.arange(total) + np.repeat(starts - firsts, lengths), firsts


def _grow(
    offsets: np.ndarray,
    cols: np.ndarray,
    words: np.ndarray,
    parents: np.ndarray,
    child_bits: np.ndarray,
    tx: np.ndarray,
    nbr: np.ndarray,
    budget: Optional[int] = None,
) -> Optional[tuple]:
    """Nonzero candidate rows of child prefixes, grown from their parents.

    Child ``i`` extends the prefix whose entries are
    ``offsets[parents[i]] : offsets[parents[i] + 1]`` of ``cols`` /
    ``words`` by label bit ``child_bits[i]``, supported in ``tx[i]``.
    Its candidate rows are ``words & nbr[child_bits[i], cols] & tx[i]``
    over its parent's entries — a zero parent row stays zero — so each
    parent entry is repeated once per child (a ragged ``np.repeat``)
    and gathered with 1-D ``take`` on flat row views, at most
    ``_CHUNK_BYTES`` of rows at a time.  Returns ``(rows, cols, words,
    counts)`` of the nonzero results in (child, label) order, ``rows``
    naming the child, or ``None`` once their bytes pass ``budget``.
    """
    starts = offsets[parents]
    lengths = offsets[parents + 1] - starts
    positions, _ = _ragged(starts, lengths)
    owners = np.repeat(np.arange(lengths.size), lengths)
    n_labels = nbr.shape[0]
    nbr_rows = nbr.reshape(-1, nbr.shape[-1])
    step = _chunk_rows(nbr)
    row_bytes = nbr.itemsize * nbr.shape[-1]
    parts = []
    kept = 0
    # At least one chunk, even an empty one, so the budget is checked.
    for start in range(0, max(1, positions.size), step):
        child = owners[start : start + step]
        at = positions[start : start + step]
        grown_cols = cols.take(at)
        grown = words.take(at, axis=0)
        grown &= nbr_rows.take(child_bits.take(child) * n_labels + grown_cols, axis=0)
        grown &= tx.take(child, axis=0)
        counts = popcount_rows(grown)
        keep = np.flatnonzero(counts)
        kept += keep.size * row_bytes
        if budget is not None and kept > budget:
            return None
        parts.append(
            (child.take(keep), grown_cols.take(keep), grown.take(keep, axis=0), counts.take(keep))
        )
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _first_blocking(
    rows: np.ndarray,
    tied: np.ndarray,
    offsets: np.ndarray,
    entry_cols: np.ndarray,
    entry_words: np.ndarray,
    nbr: np.ndarray,
) -> Dict[int, int]:
    """Smallest Lemma 4.4 blocking bit per row, chunk-batched.

    ``rows``/``tied`` hold parallel ``(row, c)`` pairs in ascending
    ``(row, c)`` order: entries ``offsets[row] : offsets[row + 1]`` of
    ``entry_cols``/``entry_words`` are a prefix's nonzero candidate
    rows, and ``c`` a label bit with ``cand[c] == tx`` below the
    prefix's rank.  ``c`` blocks iff ``cand & ~nbr[c]`` is zero outside
    row ``c``.  Zero candidate rows pass that test, so each pair
    gathers only its prefix's entries, clears the one at ``c``, and
    one ``maximum.reduceat`` over the flat words tests each pair's
    segment for zero.  Rows missing from the result have no blocking
    label.  A chunk holds at most ``_PAIR_CHUNK`` pairs and
    ``_CHUNK_BYTES`` of gathered rows; rows whose answer is found drop
    out between chunks, bounding how far the batch overshoots the
    sequential scan's early exit.  ``~nbr`` is formed per chunk, on
    the gathered rows only.
    """
    answers: Dict[int, int] = {}
    total = int(rows.size)
    if not total:
        return answers
    n_labels, _, tx_words = nbr.shape
    nbr_rows = nbr.reshape(-1, tx_words)
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    gathered = np.cumsum(lengths)
    per_chunk = _chunk_rows(nbr)
    answered = np.zeros(offsets.size - 1, dtype=bool)
    position = 0
    while position < total:
        before = int(gathered[position - 1]) if position else 0
        stop = int(np.searchsorted(gathered, before + per_chunk, side="right"))
        stop = min(max(stop, position + 1), position + _PAIR_CHUNK)
        r = rows[position:stop]
        c = tied[position:stop]
        first = starts[position:stop]
        count = lengths[position:stop]
        position = stop
        keep = ~answered[r]
        if not keep.all():
            r = r[keep]
            c = c[keep]
            first = first[keep]
            count = count[keep]
            if not r.size:
                continue
        at, segments = _ragged(first, count)
        cols = entry_cols.take(at)
        c_rep = np.repeat(c, count)
        bad = nbr_rows.take(c_rep * n_labels + cols, axis=0)
        np.invert(bad, out=bad)
        bad &= entry_words.take(at, axis=0)
        bad[cols == c_rep] = 0
        if count.all():
            tops = np.maximum.reduceat(bad.reshape(-1), segments * tx_words)
        else:
            # An empty segment blocks vacuously; reduceat needs a word.
            tops = np.zeros(r.size, dtype=bad.dtype)
            some = np.flatnonzero(count)
            if some.size:
                tops[some] = np.maximum.reduceat(bad.reshape(-1), segments[some] * tx_words)
        hits = np.flatnonzero(tops == 0)
        if hits.size:
            # Pairs are (row, c)-ascending and answered rows left the
            # batch, so a row's first hit carries its smallest blocking
            # bit.
            first_rows, first_at = np.unique(r[hits], return_index=True)
            answers.update(zip(first_rows.tolist(), c[hits][first_at].tolist()))
            answered[first_rows] = True
    return answers


class _ForestLevel:
    """A batch of prefix cliques of one size, stored as entries.

    Row ``r`` is one prefix: ``bits[r]`` its last label bit, ``tx[r]``
    its supporting transactions and ``supports[r]`` their count.  Its
    candidate slab is kept sparse: entries ``offsets[r] : offsets[r+1]``
    of ``entry_cols``/``entry_words`` are its nonzero candidate rows in
    ascending label order (label ``entry_cols[e]`` extends the prefix in
    the transactions of ``entry_words[e]``); every other row is zero.
    ``digests[r]`` is its plan digest at ``abs_sup``, and ``freq_*``
    keep the frequent entries, so the next level and the Lemma 4.4
    batch are built without re-scanning.  Forest levels and per-parent
    batches are both of this type.
    """

    __slots__ = (
        "bits",
        "bits_np",
        "tx",
        "supports",
        "abs_sup",
        "offsets",
        "entry_cols",
        "entry_words",
        "digests",
        "freq_entries",
        "freq_rows",
        "freq_cols",
        "freq_vals",
        "tie_rows",
        "tie_cols",
        "child_offsets",
        "child_bits",
        "blocks",
    )

    def __init__(
        self,
        bits: List[int],
        bits_np: np.ndarray,
        tx: np.ndarray,
        supports: np.ndarray,
        abs_sup: int,
        labels: Sequence[Label],
        rows: np.ndarray,
        cols: np.ndarray,
        words: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Digest the entries ``(rows, cols, words, counts)`` of a batch.

        One thresholded extraction over the entries' popcounts: every
        row is frequent (``support >= abs_sup >= 1``), so tied labels
        (``count == support``) are a subset of the frequent ones and
        fall out of the same extraction — see the tie-cache mirror notes
        on :class:`SlabEmbeddingStore`.
        """
        n = len(bits)
        self.bits = bits
        self.bits_np = bits_np
        self.tx = tx
        self.supports = supports.tolist()
        self.abs_sup = abs_sup
        self.entry_cols = cols
        self.entry_words = words
        self.child_offsets: Optional[List[int]] = None
        self.child_bits: Optional[List[int]] = None
        self.blocks: Optional[Dict[int, int]] = None
        per_row = np.bincount(rows, minlength=n)
        offsets = self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_row, out=offsets[1:])

        freq = self.freq_entries = np.flatnonzero(counts >= abs_sup)
        freq_rows = self.freq_rows = rows.take(freq)
        freq_cols = self.freq_cols = cols.take(freq)
        freq_vals = self.freq_vals = counts.take(freq)
        pairs_all = list(zip(map(labels.__getitem__, freq_cols.tolist()), freq_vals.tolist()))
        freq_per = np.bincount(freq_rows, minlength=n).tolist()
        tie_mask = freq_vals == supports.take(freq_rows)
        tie_rows = self.tie_rows = freq_rows[tie_mask]
        tie_cols = self.tie_cols = freq_cols[tie_mask]
        tie_per = np.bincount(tie_rows, minlength=n).tolist()
        tie_flat = tie_cols.tolist()

        digests: List[tuple] = []
        fpos = 0
        tpos = 0
        for j, present in enumerate(per_row.tolist()):
            nf = freq_per[j]
            nt = tie_per[j]
            if present:
                ties = tie_flat[tpos : tpos + nt]
                digests.append(
                    (pairs_all[fpos : fpos + nf], present - nf, bool(ties), ties)
                )
            else:
                digests.append(([], 0, False, None))
            fpos += nf
            tpos += nt
        self.digests = digests

    def blocking(self, nbr: np.ndarray) -> Dict[int, int]:
        """Smallest Lemma 4.4 blocking bit per row, at each row's own rank.

        Under canonical growth a prefix's scan rank is its last bit, so
        the pairs are each row's tied labels below ``bits[row]``;
        resolved once, on the first store that asks.
        """
        blocks = self.blocks
        if blocks is None:
            mask = self.tie_cols < self.bits_np[self.tie_rows]
            blocks = self.blocks = _first_blocking(
                self.tie_rows[mask],
                self.tie_cols[mask],
                self.offsets,
                self.entry_cols,
                self.entry_words,
                nbr,
            )
        return blocks


class _SlabForest:
    """Level-synchronous expansion of one mine call's DFS forest.

    The engine's DFS asks per-prefix questions one node at a time; on
    small databases the answers are dispatch-bound, not compute-bound
    — a numpy call costs ~1µs whether it touches one row or a
    thousand.  The forest therefore evaluates the *whole* mine call's
    search frontier one level at a time: every prefix of size ``d+1``
    reachable by canonical growth from the mine's roots is grown,
    popcounted, and plan-digested in one batch of vectorized passes.

    Levels are built lazily (level ``d+1`` on the first ``extend``
    from level ``d``), so early aborts — budgets, ``max_size``, top-k
    bounds — never pay for depths the DFS does not reach, and the cut
    prefixes of Lemma 4.4 only overshoot by at most one frontier.
    The forest lives in the per-mine-call context the engine threads
    through ``root_store``; nothing is shared across mine calls, so
    every call performs (and every benchmark measures) its own work.

    Speculation is bounded by ``_FOREST_MAX_BYTES`` of entry words: a
    search tree too large to keep resident stops deepening and the
    stores fall back to per-parent batching, byte-identically.
    """

    __slots__ = ("slab", "abs_sup", "levels", "nbytes", "saturated", "root_index")

    def __init__(
        self,
        slab: TransposedSlabSpace,
        abs_sup: int,
        root_bits: Sequence[int],
    ) -> None:
        self.slab = slab
        self.abs_sup = abs_sup
        self.saturated = False
        supports = slab.label_tx_counts
        bits = [bit for bit in root_bits if supports[bit] >= abs_sup]
        bits_np = np.array(bits, dtype=np.intp)
        # A root's candidate slab is its ``nbr`` slice: one dense
        # popcount pass per mine call finds the nonzero rows.
        nbr = slab.nbr
        n_labels = slab.n_labels
        counts = popcount_rows(nbr[bits_np])
        flat = np.flatnonzero(counts)
        rows, cols = np.divmod(flat, n_labels)
        words = nbr.reshape(-1, slab.tx_words).take(bits_np.take(rows) * n_labels + cols, axis=0)
        level = _ForestLevel(
            bits,
            bits_np,
            slab.presence[bits_np],
            supports[bits_np],
            abs_sup,
            slab.labels,
            rows,
            cols,
            words,
            counts.reshape(-1).take(flat),
        )
        self.nbytes = words.nbytes
        self.levels: List[_ForestLevel] = [level]
        self.root_index = {bit: row for row, bit in enumerate(bits)}

    def ensure_children(self, depth: int) -> bool:
        """Build level ``depth+1`` (all canonical frequent children).

        Each child's ``tx`` is its parent's entry at the child bit, and
        its entries grow from the parent's (:func:`_grow`).  Returns
        False when the forest is saturated — callers then fall back to
        per-parent batching.  Idempotent per level.
        """
        level = self.levels[depth]
        if level.child_offsets is not None:
            return True
        if self.saturated:
            return False
        slab = self.slab
        canon = level.freq_cols >= level.bits_np[level.freq_rows]
        if level.blocks:
            # The engine prunes before it extends, so by the time the
            # first extend out of this level lands here, the level's
            # Lemma 4.4 batch has run iff non-closed subtree pruning is
            # on — and then every blocked row's subtree is cut, so its
            # children need not exist.  (A blocked row extended anyway,
            # e.g. off-engine, falls to the single-extension path.)
            alive = np.ones(len(level.bits), dtype=bool)
            alive[np.fromiter(level.blocks, dtype=np.intp, count=len(level.blocks))] = False
            canon &= alive[level.freq_rows]
        parent_rows = level.freq_rows[canon]
        child_bits = level.freq_cols[canon]
        tx = level.entry_words.take(level.freq_entries[canon], axis=0)
        grown = _grow(
            level.offsets,
            level.entry_cols,
            level.entry_words,
            parent_rows,
            child_bits,
            tx,
            slab.nbr,
            _FOREST_MAX_BYTES - self.nbytes,
        )
        if grown is None:
            self.saturated = True
            return False
        offsets = np.zeros(len(level.bits) + 1, dtype=np.int64)
        np.cumsum(np.bincount(parent_rows, minlength=len(level.bits)), out=offsets[1:])
        level.child_offsets = offsets.tolist()
        level.child_bits = child_bits.tolist()
        if child_bits.size:
            child = _ForestLevel(
                level.child_bits,
                child_bits,
                tx,
                level.freq_vals[canon],
                self.abs_sup,
                slab.labels,
                *grown,
            )
            self.nbytes += child.entry_words.nbytes
            self.levels.append(child)
        return True


class SlabEmbeddingStore:
    """Embeddings of one prefix clique, transposed into slab rows.

    API-compatible with the engine-facing surface of
    :class:`~repro.core.embeddings.EmbeddingStore`; ``kernel`` reports
    ``"slab"``.  Instances are created by ``EmbeddingStore.for_label``
    (roots) and :meth:`extend` (children) — the constructor is
    internal plumbing.
    """

    __slots__ = (
        "database",
        "pseudo",
        "strategy",
        "kernel",
        "size",
        "slab",
        "_cand",
        "_tx",
        "_support",
        "_member_bits",
        "_counts",
        "_tie_bits",
        "_plan_digest",
        "_plan_abs_sup",
        "_context",
        "_forest",
        "_level",
        "_source",
        "_row",
        "_block_parent",
        "_batch",
        "_children",
        "_tids",
        "_tid_array",
        "_by_transaction",
    )

    def __init__(
        self,
        slab: TransposedSlabSpace,
        database: GraphDatabase,
        pseudo: Optional[PseudoDatabase],
        size: int,
        member_bits: Tuple[int, ...],
        cand: Optional[np.ndarray],
        tx: np.ndarray,
        support: int,
    ) -> None:
        self.strategy = "cached"
        self.kernel = "slab"
        self.slab = slab
        self._refill(database, pseudo, size, member_bits, cand, tx, support)

    def _refill(
        self,
        database: GraphDatabase,
        pseudo: Optional[PseudoDatabase],
        size: int,
        member_bits: Tuple[int, ...],
        cand: Optional[np.ndarray],
        tx: np.ndarray,
        support: int,
    ) -> "SlabEmbeddingStore":
        """Point this store at one prefix and clear every lazy cache.

        The constructor's body, and how the engine's free list recycles
        a retired store in place (:meth:`for_root`, :meth:`_child`):
        sound within one mine call, whose database and slab never
        change.
        """
        self.database = database
        self.pseudo = pseudo
        self.size = size
        self._member_bits = member_bits
        #: The dense ``[n_labels, tx_words]`` candidate slab; ``None``
        #: for a batched child until a cold path scatters it
        #: (:meth:`_cand_slab`).
        self._cand = cand
        self._tx = tx
        self._support = support
        #: Extension supports per label bit, computed on first use
        #: (stores from a batch arrive with their plan digest instead).
        self._counts: Optional[np.ndarray] = None
        #: Tied label bits (ascending), seeded by the extension plan;
        #: ``None`` mirrors the int-mask kernel's unseeded tie cache.
        self._tie_bits: Optional[List[int]] = None
        #: ``(frequent, n_infrequent, blocking, tie_bits)`` — pre-seeded
        #: by the mine call's forest or a parent's per-parent batch.
        self._plan_digest: Optional[tuple] = None
        self._plan_abs_sup: Optional[int] = None
        #: The engine's per-mine-call context dict (root stores only);
        #: hosts the shared :class:`_SlabForest`.
        self._context: Optional[dict] = None
        #: This store's position in the mine call's forest: the forest
        #: and its level (depth = size - 1), else ``None``.
        self._forest: Optional[_SlabForest] = None
        self._level: int = 0
        #: The batch holding this prefix's entries — its forest level or
        #: its parent's per-parent batch — and its row there.
        self._source: Optional[_ForestLevel] = None
        self._row: int = 0
        #: Per-parent fallback: the parent whose batch answers this
        #: store's Lemma 4.4 test when the forest is saturated.
        self._block_parent: Optional["SlabEmbeddingStore"] = None
        #: This store's own per-parent batch of children, and their rows
        #: in it by label.
        self._batch: Optional[_ForestLevel] = None
        self._children: Optional[Dict[Label, int]] = None
        self._tids: Optional[Tuple[int, ...]] = None
        self._tid_array: Optional[np.ndarray] = None
        self._by_transaction: Optional[Dict[int, list]] = None
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_root(
        cls,
        database: GraphDatabase,
        pseudo: Optional[PseudoDatabase],
        label: Label,
        slab: TransposedSlabSpace,
        context: Optional[dict] = None,
    ) -> "SlabEmbeddingStore":
        """The 1-clique store of one label: two precomputed slab rows.

        ``context`` is the engine's per-mine-call dict; when present it
        hosts the mine call's shared :class:`_SlabForest`, and its
        ``store_pool`` free list may hand back a retired store to refill.
        """
        bit = slab.bit_of.get(label)
        if bit is None:
            empty = np.zeros((slab.n_labels, slab.tx_words), dtype=slab.presence.dtype)
            return cls(slab, database, pseudo, 1, (), empty, empty[0], 0)
        prefix = (
            database,
            pseudo,
            1,
            (bit,),
            slab.nbr[bit],
            slab.presence[bit],
            int(slab.label_tx_counts[bit]),
        )
        pool = context.get("store_pool") if context is not None else None
        if pool and type(pool[-1]) is cls and pool[-1].slab is slab:
            store = pool.pop()._refill(*prefix)
        else:
            store = cls(slab, *prefix)
        store._context = context
        return store

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def support(self) -> int:
        """Number of transactions with at least one embedding."""
        return self._support

    @property
    def embedding_count(self) -> int:
        """Total embeddings (= support: one embedding per transaction)."""
        return self._support

    def transactions(self) -> Tuple[int, ...]:
        """Supporting transaction ids, sorted."""
        tids = self._tids
        if tids is None:
            tids = self._tids = tuple(self._tid_positions().tolist())
        return tids

    def _tid_positions(self) -> np.ndarray:
        """:meth:`transactions` as an ``intp`` array."""
        positions = self._tid_array
        if positions is None:
            positions = self._tid_array = bit_position_array(self._tx)
        return positions

    def _embedding_rows(self) -> np.ndarray:
        """``[support, size]`` vertices of every embedding, label order.

        Two ``take`` gathers on the slab's (transaction, bit) → vertex
        matrix, the member columns first (the smaller temporary) — a
        fresh array, never a view; rows follow :meth:`transactions`.
        Measured cheaper than one ``[tids[:, None], bits]`` fancy index
        at both 11 and 704 transactions.
        """
        columns = self.slab.vertices.take(self._member_bits, axis=1)
        return columns.take(self._tid_positions(), axis=0)

    def witnesses(self) -> WitnessRows:
        """The (single) embedding of each transaction, vertex-sorted.

        One ``[support, size]`` row array behind a read-only mapping:
        no per-transaction tuple is built until the map is read.
        """
        rows = self._embedding_rows()
        rows.sort(axis=1)
        return WitnessRows(self.transactions(), rows)

    def iter_embeddings(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(transaction id, vertex tuple)`` per embedding.

        Vertices come in canonical (extension) label order, matching
        the int-mask kernels' record tuples.
        """
        rows = self._embedding_rows().tolist()
        for tid, row in zip(self.transactions(), rows):
            yield tid, tuple(row)

    # ------------------------------------------------------------------
    # Scans of Algorithm 1
    # ------------------------------------------------------------------
    def extension_supports(self) -> Dict[Label, int]:
        """Support of ``C ◇ β`` for every extension label β."""
        counts = self._ensure_counts()
        labels = self.slab.labels
        present = np.nonzero(counts)[0].tolist()
        values = counts[present].tolist() if present else []
        return {labels[bit]: count for bit, count in zip(present, values)}

    def extension_plan(
        self, abs_sup: int
    ) -> Tuple[List[Tuple[Label, int]], int, bool]:
        """Threshold/tie digest of one extension scan.

        Same contract as ``EmbeddingStore.extension_plan``: frequent
        ``(label, support)`` pairs in ascending label order, the
        infrequent-label count, and the Lemma 4.3 verdict.  The digest
        arrives precomputed when this store came out of the mine call's
        forest or a parent's per-parent batch (and ``abs_sup``
        matches); root stores bind to their forest row here; only
        off-engine callers pay a per-store vectorized pass.
        """
        digest = self._plan_digest
        if digest is None or abs_sup != self._plan_abs_sup:
            digest = None
            context = self._context
            if context is not None and self.size == 1 and self._member_bits:
                bit = self._member_bits[0]
                forest = context.get("slab_forest")
                if (
                    forest is None
                    or forest.abs_sup != abs_sup
                    or forest.slab is not self.slab
                ):
                    bit_of = self.slab.bit_of
                    root_bits = [
                        bit_of[root]
                        for root in context.get("roots", ())
                        if root in bit_of
                    ]
                    forest = _SlabForest(self.slab, abs_sup, root_bits)
                    context["slab_forest"] = forest
                row = forest.root_index.get(bit)
                if row is not None:
                    self._forest = forest
                    self._level = 0
                    self._source = forest.levels[0]
                    self._row = row
                    digest = forest.levels[0].digests[row]
            if digest is None:
                digest = self._compute_plan(abs_sup)
            self._plan_digest = digest
            self._plan_abs_sup = abs_sup
        frequent, n_infrequent, blocking, tie_bits = digest
        self._tie_bits = tie_bits
        return frequent, n_infrequent, blocking

    def _compute_plan(self, abs_sup: int) -> tuple:
        """The unbatched fallback digest (off-engine callers only)."""
        counts = self._ensure_counts()
        present = counts > 0
        n_present = int(np.count_nonzero(present))
        if not n_present:
            # Mirror the int-mask early return: the tie cache stays
            # unseeded (nonclosed scans then run from scratch).
            return [], 0, False, None
        frequent_mask = present & (counts >= abs_sup)
        tie_bits = np.nonzero(counts == self._support)[0].tolist()
        freq_bits = np.nonzero(frequent_mask)[0].tolist()
        freq_counts = counts[frequent_mask].tolist()
        labels = self.slab.labels
        frequent = [
            (labels[bit], count) for bit, count in zip(freq_bits, freq_counts)
        ]
        return frequent, n_present - len(frequent), bool(tie_bits), tie_bits

    def nonclosed_extension_label(self, last_label: Label) -> Optional[Label]:
        """The Lemma 4.4 test, transposed.

        A label ``c`` blocks iff it is a candidate in *every*
        supporting transaction (``cand[c] == tx`` — automatic for tied
        labels) and no other candidate anywhere is non-adjacent to it
        (``cand & ~nbr[c]`` is zero outside row ``c``).  On the engine
        path the answer comes from the batch holding the prefix — its
        forest level, or its parent's per-parent batch — resolved once
        for the whole batch, so this is a dict lookup; off-engine
        callers run the same test over their own pairs.
        """
        slab = self.slab
        rank = slab.bit_of.get(last_label)
        if rank is None:
            rank = bisect_left(slab.labels, last_label)
        if rank == 0:
            return None
        if self._support == 0:
            # Mirror the int-mask scan over zero embeddings: with no
            # tie cache the below-mask survives untouched.
            if self._tie_bits is not None:
                return None
            return slab.labels[0]
        source = self._source
        if source is not None and rank == self._member_bits[-1]:
            parent = self._block_parent
            if parent is None:
                hit = source.blocking(slab.nbr).get(self._row)
            else:
                hit = parent._ensure_child_blocks().get(self._row)
        else:
            tie_bits = self._tie_bits
            if tie_bits is not None:
                # Tied labels below the rank: ``cand[c] == tx`` holds
                # for every one of them, no equality check needed.
                below = np.array(tie_bits[: bisect_left(tie_bits, rank)], dtype=np.intp)
            else:
                below = np.flatnonzero((self._cand_slab()[:rank] == self._tx).all(axis=1))
            offsets, cols, words, row = self._entries()
            hit = _first_blocking(
                np.full(below.size, row, dtype=np.intp), below, offsets, cols, words, slab.nbr
            ).get(row)
        return None if hit is None else slab.labels[hit]

    def _child(
        self,
        member_bits: Tuple[int, ...],
        cand: Optional[np.ndarray],
        tx: np.ndarray,
        support: int,
        reuse: Optional["SlabEmbeddingStore"],
    ) -> "SlabEmbeddingStore":
        """Wrap a child's slab rows, recycling ``reuse`` when possible.

        The engine's free list hands back stores whose subtree has
        finished; :meth:`_refill` re-points one in place, skipping the
        allocation (the ``reuse.slab is self.slab`` check also rejects
        foreign store types).
        """
        prefix = (self.database, self.pseudo, self.size + 1, member_bits, cand, tx, support)
        if (
            reuse is not None
            and type(reuse) is SlabEmbeddingStore
            and reuse.slab is self.slab
        ):
            return reuse._refill(*prefix)
        return SlabEmbeddingStore(self.slab, *prefix)

    def _batched_child(
        self,
        source: _ForestLevel,
        row: int,
        reuse: Optional["SlabEmbeddingStore"],
    ) -> "SlabEmbeddingStore":
        """The child held by row ``row`` of a batch, plan digest seeded."""
        child = self._child(
            self._member_bits + (source.bits[row],),
            None,
            source.tx[row],
            source.supports[row],
            reuse,
        )
        child._plan_digest = source.digests[row]
        child._plan_abs_sup = source.abs_sup
        child._source = source
        child._row = row
        return child

    def extend(
        self,
        label: Label,
        last_label: Optional[Label] = None,
        reuse: Optional["SlabEmbeddingStore"] = None,
    ) -> "SlabEmbeddingStore":
        """Embeddings of ``C ◇ label`` — two ANDs on the slab.

        The same-label ordering discipline (``last_label``) is vacuous
        in aligned space, exactly as for the aligned int-mask kernel.
        Stores bound to the mine call's forest hand out their children
        as rows of the next forest level (built for the whole frontier
        on first demand); saturated forests and off-engine stores batch
        the frequent children per parent instead; other labels take
        the single path.  ``reuse`` optionally recycles a retired store
        object (see :meth:`_child`).
        """
        forest = self._forest
        if forest is not None:
            bit = self.slab.bit_of.get(label)
            if bit is not None and bit >= self._member_bits[-1] and (
                forest.levels[self._level].child_offsets is not None
                or forest.ensure_children(self._level)
            ):
                level = forest.levels[self._level]
                lo = level.child_offsets[self._row]
                hi = level.child_offsets[self._row + 1]
                i = bisect_left(level.child_bits, bit, lo, hi)
                if i < hi and level.child_bits[i] == bit:
                    child = self._batched_child(forest.levels[self._level + 1], i, reuse)
                    child._forest = forest
                    child._level = self._level + 1
                    return child
                return self._extend_single(label, reuse)
        children = self._children
        if children is None:
            children = self._children = self._materialize_children(last_label)
        row = children.get(label)
        if row is None:
            return self._extend_single(label, reuse)
        child = self._batched_child(self._batch, row, reuse)
        child._block_parent = self
        return child

    def _entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """``(offsets, cols, words, row)``: this prefix's nonzero candidate
        rows are entries ``offsets[row] : offsets[row + 1]`` of
        ``cols``/``words`` — its batch's, or extracted from its dense
        slab."""
        source = self._source
        if source is not None:
            return source.offsets, source.entry_cols, source.entry_words, self._row
        cols = np.flatnonzero(self._ensure_counts())
        offsets = np.array([0, cols.size], dtype=np.int64)
        return offsets, cols, self._cand.take(cols, axis=0), 0

    def _materialize_children(self, last_label: Optional[Label]) -> Dict[Label, int]:
        """Batch-build the frequent children recorded by the last plan.

        The forest's level build applied to one parent: every child
        grows from this prefix's nonzero candidate rows (:func:`_grow`),
        and the batch digests every child's plan from its entries
        (sound because the engine's ``abs_sup`` is fixed per mine call
        and recorded by this store's own plan, and every batched child
        is frequent).  Children below ``last_label`` are skipped —
        canonical growth never visits them (``extend`` still serves
        them via the single path).  Returns each child's batch row by
        label.
        """
        digest = self._plan_digest
        abs_sup = self._plan_abs_sup
        if digest is None or not digest[0] or not abs_sup or abs_sup < 1:
            return {}
        slab = self.slab
        bit_of = slab.bit_of
        if last_label is None:
            cutoff = 0
        else:
            cutoff = bit_of.get(last_label)
            if cutoff is None:
                cutoff = bisect_left(slab.labels, last_label)
        frequent = [(lab, count) for lab, count in digest[0] if bit_of[lab] >= cutoff]
        if not frequent:
            return {}
        bits_list = [bit_of[lab] for lab, _ in frequent]
        bits = np.array(bits_list, dtype=np.intp)
        offsets, cols, words, row = self._entries()
        lo = offsets[row]
        tx = words.take(lo + np.searchsorted(cols[lo : offsets[row + 1]], bits), axis=0)
        grown = _grow(
            offsets, cols, words, np.full(bits.size, row, dtype=np.intp), bits, tx, slab.nbr
        )
        self._batch = _ForestLevel(
            bits_list,
            bits,
            tx,
            np.array([count for _, count in frequent], dtype=np.int64),
            abs_sup,
            slab.labels,
            *grown,
        )
        return {lab: j for j, (lab, _) in enumerate(frequent)}

    def _ensure_child_blocks(self) -> Dict[int, int]:
        """Lemma 4.4 answers for this store's batched children, by row.

        Resolved lazily on the first child that asks (the closure
        prunings may be disabled, in which case nobody ever does), in
        one chunked pass over every (child, tied-bit-below-its-bit)
        pair.
        """
        return self._batch.blocking(self.slab.nbr)

    def _extend_single(
        self, label: Label, reuse: Optional["SlabEmbeddingStore"] = None
    ) -> "SlabEmbeddingStore":
        bit = self.slab.bit_of.get(label)
        cand = self._cand_slab()
        if bit is None:
            empty = np.zeros_like(cand)
            return self._child(
                self._member_bits,
                empty,
                empty[0] if len(empty) else self._tx[:0],
                0,
                reuse,
            )
        row = cand[bit]
        grown = (cand & self.slab.nbr[bit]) & row
        counts = self._counts
        support = (
            int(counts[bit])
            if counts is not None
            else int(popcount_rows(row[None, :])[0])
        )
        return self._child(
            self._member_bits + (bit,),
            grown,
            row,
            support,
            reuse,
        )

    def _cand_slab(self) -> np.ndarray:
        """The dense candidate slab, scattered from the entries on first use.

        Only cold paths ask: single extensions, extension counts,
        off-engine Lemma 4.4 scans, records and bitset delegation.
        """
        cand = self._cand
        if cand is None:
            slab = self.slab
            cand = np.zeros((slab.n_labels, slab.tx_words), dtype=slab.presence.dtype)
            source, row = self._source, self._row
            lo, hi = source.offsets[row], source.offsets[row + 1]
            cand[source.entry_cols[lo:hi]] = source.entry_words[lo:hi]
            self._cand = cand
        return cand

    def _ensure_counts(self) -> np.ndarray:
        counts = self._counts
        if counts is None:
            counts = self._counts = popcount_rows(self._cand_slab())
        return counts

    # ------------------------------------------------------------------
    # Branch-and-bound support (top-k)
    # ------------------------------------------------------------------
    def multiplicity_bound(self, valid_labels: Sequence[Label]) -> int:
        """Max candidates with a valid label in any one transaction.

        The slab analogue of ``EmbeddingStore.multiplicity_bound``:
        gather the valid labels' rows and column-sum their unpacked
        bits — one vectorized pass instead of a per-embedding scan.
        """
        bit_of = self.slab.bit_of
        rows = [bit_of[label] for label in valid_labels if label in bit_of]
        if not rows or not self._support:
            return 0
        picked = np.ascontiguousarray(self._cand_slab()[np.asarray(rows, dtype=np.intp)])
        bits = np.unpackbits(picked.view(np.uint8), axis=-1, bitorder="little")
        return int(bits.sum(axis=0, dtype=np.int64).max())

    # ------------------------------------------------------------------
    # Record-level surface (cold paths delegate to the int-mask kernel)
    # ------------------------------------------------------------------
    @property
    def by_transaction(self) -> Dict[int, list]:
        """Int-mask embedding records, materialised lazily.

        One record per supporting transaction — the vertex tuple in
        canonical label order plus the candidate mask — exactly what
        the bitset kernel would hold: an aligned label bitmask where
        the database has an aligned label space, else (an out-of-core
        store) a mask over the transaction's own vertex bits.
        """
        records = self._by_transaction
        if records is None:
            records = self._by_transaction = self._materialize_records()
        return records

    def _materialize_records(self) -> Dict[int, list]:
        tids = self.transactions()
        records: Dict[int, list] = {}
        if not tids:
            return records
        aligned = self.database.aligned_space() is not None
        vertex_of = self.slab.vertices
        # Column-extract each supporting transaction's candidate mask.
        cand = np.ascontiguousarray(self._cand_slab())
        bits = np.unpackbits(cand.view(np.uint8), axis=-1, bitorder="little")
        for tid, vertices in zip(tids, self._embedding_rows().tolist()):
            column = bits[:, tid]
            if aligned:
                column = np.packbits(column, bitorder="little")
                mask = int.from_bytes(column.tobytes(), "little")
            else:
                candidates = vertex_of[tid, np.nonzero(column)[0]].tolist()
                mask = self.database[tid].bit_index().mask_of(candidates)
            records[tid] = [(tuple(vertices), mask)]
        return records

    def _candidates(self, tid: int, record) -> Set[int]:
        """Kernel-independent candidate accessor (tests, top-k legacy)."""
        space = self.database.aligned_space()
        if space is None:
            return set(self.database[tid].bit_index().vertices_of(record[1]))
        return set(space.views[tid].vertices_of(record[1]))

    def _to_bitset_store(self):
        """An equivalent ``EmbeddingStore`` on the bitset kernel."""
        from .embeddings import EmbeddingStore

        return EmbeddingStore(
            self.database,
            self.pseudo,
            self.strategy,
            self.size,
            {tid: list(recs) for tid, recs in self.by_transaction.items()},
            self.database.aligned_space(),
        )

    def extend_unordered(self, label: Label):
        """Unordered extension (redundancy-pruning-off ablation only)."""
        return self._to_bitset_store().extend_unordered(label)

    def restrict_to(self, transaction_ids: Iterable[int]):
        """Embeddings restricted to a subset of transactions (tests)."""
        return self._to_bitset_store().restrict_to(transaction_ids)

    def __repr__(self) -> str:
        return (
            f"<SlabEmbeddingStore size={self.size} support={self._support} "
            f"embeddings={self.embedding_count} strategy={self.strategy} "
            f"kernel={self.kernel}>"
        )


__all__ = ["SlabEmbeddingStore"]
