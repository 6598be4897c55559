"""The slab kernel's embedding store (``MinerConfig.kernel="slab"``).

:class:`SlabEmbeddingStore` is the aligned-database fast path of the
slab kernel: it mirrors the engine-facing surface of
:class:`repro.core.embeddings.EmbeddingStore` while keeping each
prefix's state in the transposed layout of :mod:`repro.graphdb.slab`:
per extension label, the mask of transactions where that label extends
the prefix (a candidate row).

Why transposition is exact here: with unique per-vertex labels a prefix
clique has exactly one embedding per supporting transaction (a label
names at most one vertex), so "the candidate sets of every embedding"
and "per extension label, the supporting transactions" carry the same
information, just batched along the axis numpy can vectorize.

Only a few percent of a prefix's candidate rows are nonzero, so no
store holds a dense slab.  Every store is a row of a
:class:`_ForestLevel`, a batch of prefixes of one size that keeps each
prefix's nonzero candidate rows as entries, from the moment it is
built.  One growth routine (:meth:`_ForestLevel.grow`) builds every
level from its parents' entries, and one digest routine (the level's
constructor) gives every row its extension plan.

What makes the kernel fast is not the vectorized expressions alone but
*where* they run.  numpy pays ~1µs of dispatch per call; a search tree
visits tens of thousands of prefixes, so per-prefix numpy work would
drown the vector win on small databases.  The kernel therefore answers
per-prefix questions from **level-synchronous forest batches**
(:class:`_SlabForest`, one per mine call, hosted in the context dict
the engine threads through ``root_store``):

* the roots are the rows of level 0, built with the first root store
  from the call's roots and its threshold ``abs_sup`` (both in the
  context) by one ragged gather of the slab's per-label nonzero
  ``nbr`` rows (``nbr_cols``), never a dense scan of the alphabet,
* each further level holds every canonical frequent child of the
  previous one, grown in one pass of gathers, ANDs and per-entry
  popcounts (levels are built lazily, on the first ``extend`` out of
  the previous depth),
* ``abs_sup`` is fixed for a mine call, so the level batch also derives
  each prefix's *entire plan digest* (frequent list, infrequent count,
  Lemma 4.3 verdict) with one thresholded extraction over the entries,
* under canonical prefix growth, the rank a prefix's Lemma 4.4 scan
  runs at is its own last bit — known at batch time — so the
  non-closed test for a *whole level* collapses into one chunked pass
  over the (prefix, tied label) pairs, resolved lazily on the first
  store that asks into a row → blocking-label dict; every store's
  engine-path test is then one lookup in it,
* forests whose entries outgrow ``_FOREST_MAX_BYTES`` stop deepening;
  affected stores grow their own frequent children as one level
  instead (a per-parent batch), byte-identically.

Stores outside a forest are rows of small levels built the same way: a
root with no forest is the one row of a level read off its ``nbr``
slice (digested at ``support + 1`` when no threshold is known, where
nothing is frequent), a single off-plan extension is a one-pair
growth, and a plan at another threshold digests the row again on its
own.

:func:`_first_blocking` is the one definition of the Lemma 4.4 test,
for level batches and off-engine probes alike.

Emission reads only the store's own row: its transactions are one
``unpackbits`` of the row's little-endian ``tx`` bytes
(:func:`~repro.graphdb.slab.bit_positions`), per emitted store, never
per level (most rows never emit; a wide row holds hundreds of tids).
Witnesses and embeddings are gathered at those tids from the slab's
(transaction, bit) → vertex matrix; no per-embedding records are kept.

Construction goes through :meth:`repro.core.embeddings.EmbeddingStore.
for_label`, which dispatches to this class only when the database has
a transposed slab space and the strategy is ``cached``; the engine asks
for it only under structural redundancy pruning.  Otherwise the slab
kernel runs on int masks wholesale (identical results, no special
cases downstream).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graphdb.slab import TransposedSlabSpace, bit_positions, popcount_rows
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
        bad *= (cols != c_rep)[:, None]
        if count.all():
            tops = np.maximum.reduceat(bad.reshape(-1), segments * tx_words)
        else:
            # An empty segment blocks vacuously; reduceat needs a word.
            tops = np.zeros(r.size, dtype=bad.dtype)
            some = np.flatnonzero(count)
            if some.size:
                tops[some] = np.maximum.reduceat(bad.reshape(-1), segments[some] * tx_words)
        hits = (tops == 0).nonzero()[0]
        if hits.size:
            # Pairs are (row, c)-ascending and answered rows left the
            # batch, so a row's first hit carries its smallest blocking
            # bit: fed in reverse, it is the one the dict keeps.
            hit_rows = r.take(hits)
            answers.update(zip(hit_rows[::-1].tolist(), c.take(hits)[::-1].tolist()))
            answered[hit_rows] = True
    return answers


class _ForestLevel:
    """A batch of prefix cliques of one size, stored as entries.

    Row ``r`` is one prefix: ``bits[r]`` its last label bit, ``tx[r]``
    its supporting transactions and ``supports[r]`` their count.  Its
    candidate slab is kept sparse: entries ``offsets[r] : offsets[r+1]``
    of ``entry_cols``/``entry_words`` are its nonzero candidate rows in
    ascending label order (label ``entry_cols[e]`` extends the prefix in
    the transactions of ``entry_words[e]``); every other row is zero.
    ``digests[r]`` is its plan digest at ``abs_sup``, ``freq_*`` keep
    the frequent entries and ``tie_*`` the tied ones, so children and
    the Lemma 4.4 batch are built without re-scanning.  Every store is
    a row of one: forest levels, per-parent batches and the small
    levels of stores outside a forest share this type.
    """

    __slots__ = (
        "slab",
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
        "tie_rows",
        "tie_cols",
        "child_offsets",
        "child_bits",
        "blocks",
    )

    def __init__(
        self,
        slab: TransposedSlabSpace,
        bits_np: np.ndarray,
        tx: np.ndarray,
        supports: np.ndarray,
        abs_sup: int,
        rows: np.ndarray,
        cols: np.ndarray,
        words: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Digest the entries ``(rows, cols, words, counts)`` of a batch.

        One thresholded extraction over the entries' popcounts gives
        each row its frequent ``(label, support)`` pairs and infrequent
        count.  Ties (``count == support``) are taken over all entries,
        so a row below ``abs_sup`` still reports a tied label as
        blocking, as the bitset kernel does.
        """
        n = bits_np.size
        self.slab = slab
        self.bits = bits_np.tolist()
        self.bits_np = bits_np
        self.tx = tx
        self.supports = supports.tolist()
        self.abs_sup = abs_sup
        self.entry_cols = cols
        self.entry_words = words
        self.child_offsets: Optional[List[int]] = None
        self.child_bits: Optional[List[int]] = None
        self.blocks: Optional[Dict[int, Label]] = None
        per_row = np.bincount(rows, minlength=n)
        offsets = self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_row, out=offsets[1:])

        freq = self.freq_entries = (counts >= abs_sup).nonzero()[0]
        freq_rows = self.freq_rows = rows.take(freq)
        freq_cols = self.freq_cols = cols.take(freq)
        pairs = list(zip(slab.label_array.take(freq_cols).tolist(), counts.take(freq).tolist()))
        ties = (counts == supports.take(rows)).nonzero()[0]
        tie_rows = self.tie_rows = rows.take(ties)
        self.tie_cols = cols.take(ties)
        tied = np.zeros(n, dtype=bool)
        tied[tie_rows] = True
        n_frequent = np.bincount(freq_rows, minlength=n)
        ends = np.cumsum(n_frequent)
        frequent = map(pairs.__getitem__, map(slice, (ends - n_frequent).tolist(), ends.tolist()))
        self.digests = list(zip(frequent, (per_row - n_frequent).tolist(), tied.tolist()))

    @classmethod
    def roots(
        cls, slab: TransposedSlabSpace, bits_np: np.ndarray, abs_sup: int
    ) -> "_ForestLevel":
        """The 1-cliques of label bits ``bits_np``, digested at ``abs_sup``.

        A root's candidate slab is its ``nbr`` slice, whose nonzero
        rows the slab lists per label (``nbr_cols``): one ragged gather.
        """
        starts = slab.nbr_offsets[bits_np]
        lengths = slab.nbr_offsets[bits_np + 1] - starts
        at, _ = _ragged(starts, lengths)
        cols = slab.nbr_cols.take(at)
        flat = np.repeat(bits_np * slab.n_labels, lengths) + cols
        words = slab.nbr.reshape(-1, slab.tx_words).take(flat, axis=0)
        return cls(
            slab,
            bits_np,
            slab.presence[bits_np],
            slab.label_tx_counts[bits_np],
            abs_sup,
            np.repeat(np.arange(bits_np.size), lengths),
            cols,
            words,
            popcount_rows(words),
        )

    def grow(
        self, parent_rows: np.ndarray, picks: np.ndarray, budget: Optional[int] = None
    ) -> Optional["_ForestLevel"]:
        """The children named by entries ``picks`` of rows ``parent_rows``.

        Child ``i`` extends row ``parent_rows[i]`` by the label of its
        entry ``picks[i]``, so that entry's words are the child's
        ``tx``.  Its candidate rows are ``words & nbr[child_bit, cols] &
        tx`` over its parent's entries — a zero parent row stays zero —
        so each parent entry is repeated once per child (a ragged
        ``np.repeat``) and gathered with 1-D ``take`` on flat row views,
        at most ``_CHUNK_BYTES`` of rows at a time.  Returns the
        children as a level digested at this one's ``abs_sup``, or
        ``None`` once their entry bytes pass ``budget``.
        """
        child_bits = self.entry_cols.take(picks)
        tx = self.entry_words.take(picks, axis=0)
        starts = self.offsets[parent_rows]
        lengths = self.offsets[parent_rows + 1] - starts
        positions, _ = _ragged(starts, lengths)
        owners = np.repeat(np.arange(lengths.size), lengths)
        nbr = self.slab.nbr
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
            grown_cols = self.entry_cols.take(at)
            grown = self.entry_words.take(at, axis=0)
            grown &= nbr_rows.take(child_bits.take(child) * n_labels + grown_cols, axis=0)
            grown &= tx.take(child, axis=0)
            counts = popcount_rows(grown)
            keep = (counts != 0).nonzero()[0]
            kept += keep.size * row_bytes
            if budget is not None and kept > budget:
                return None
            parts.append(
                (
                    child.take(keep),
                    grown_cols.take(keep),
                    grown.take(keep, axis=0),
                    counts.take(keep),
                )
            )
        if len(parts) > 1:
            parts = [tuple(np.concatenate(arrays) for arrays in zip(*parts))]
        return _ForestLevel(self.slab, child_bits, tx, popcount_rows(tx), self.abs_sup, *parts[0])

    def alone(self, row: int, abs_sup: int) -> "_ForestLevel":
        """Row ``row`` as the one row of a level digested at ``abs_sup``."""
        lo, hi = self.offsets[row : row + 2].tolist()
        words = self.entry_words[lo:hi]
        return _ForestLevel(
            self.slab,
            self.bits_np[row : row + 1],
            self.tx[row : row + 1],
            np.array(self.supports[row : row + 1]),
            abs_sup,
            np.zeros(hi - lo, dtype=np.intp),
            self.entry_cols[lo:hi],
            words,
            popcount_rows(words),
        )

    def blocking(self) -> Dict[int, Label]:
        """Smallest Lemma 4.4 blocking label per row, at each row's own rank.

        Under canonical growth a prefix's scan rank is its last bit, so
        the pairs are each row's tied labels below ``bits[row]``;
        resolved once, on the first store that asks.
        """
        blocks = self.blocks
        if blocks is None:
            mask = self.tie_cols < self.bits_np[self.tie_rows]
            bits = _first_blocking(
                self.tie_rows[mask],
                self.tie_cols[mask],
                self.offsets,
                self.entry_cols,
                self.entry_words,
                self.slab.nbr,
            )
            blocks = self.blocks = {row: self.slab.labels[bit] for row, bit in bits.items()}
        return blocks


def _nowhere(slab: TransposedSlabSpace, abs_sup: int) -> _ForestLevel:
    """A one-row level for a prefix supported in no transaction.

    It has no entries, so its last bit (recorded as 0) only ever meets
    the Lemma 4.4 lookup, which finds no blocking label there.
    """
    none = np.zeros(0, dtype=np.intp)
    tx = np.zeros((1, slab.tx_words), dtype=slab.presence.dtype)
    return _ForestLevel(
        slab,
        np.zeros(1, dtype=np.intp),
        tx,
        np.zeros(1, dtype=np.int64),
        abs_sup,
        none,
        none,
        tx[:0],
        none,
    )


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
        level = _ForestLevel.roots(slab, np.array(bits, dtype=np.intp), abs_sup)
        self.nbytes = level.entry_words.nbytes
        self.levels: List[_ForestLevel] = [level]
        self.root_index = {bit: row for row, bit in enumerate(bits)}

    def ensure_children(self, depth: int) -> bool:
        """Build level ``depth+1`` (all canonical frequent children).

        Each child grows from its parent's entries
        (:meth:`_ForestLevel.grow`).  Returns False when the forest is
        saturated — callers then fall back to per-parent batching.
        Idempotent per level.
        """
        level = self.levels[depth]
        if level.child_offsets is not None:
            return True
        if self.saturated:
            return False
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
        child = level.grow(
            parent_rows, level.freq_entries[canon], _FOREST_MAX_BYTES - self.nbytes
        )
        if child is None:
            self.saturated = True
            return False
        offsets = np.zeros(len(level.bits) + 1, dtype=np.int64)
        np.cumsum(np.bincount(parent_rows, minlength=len(level.bits)), out=offsets[1:])
        level.child_offsets = offsets.tolist()
        level.child_bits = child.bits
        self.nbytes += child.entry_words.nbytes
        self.levels.append(child)
        return True


class SlabEmbeddingStore:
    """Embeddings of one prefix clique: row ``_row`` of level ``_source``.

    API-compatible with the engine-facing surface of
    :class:`~repro.core.embeddings.EmbeddingStore`.  Instances are
    created by ``EmbeddingStore.for_label`` (roots, via
    :meth:`for_root`) and :meth:`extend` (children) — the constructor
    is internal plumbing.  A store bound to the mine call's forest
    (``_forest``) sits at its level ``size - 1``.
    """

    __slots__ = (
        "size",
        "slab",
        "embedding_count",
        "_member_bits",
        "_forest",
        "_source",
        "_row",
        "_batch",
        "_tids",
        "_tid_array",
    )

    def __init__(
        self,
        slab: TransposedSlabSpace,
        size: int,
        member_bits: Tuple[int, ...],
        source: _ForestLevel,
        row: int,
        forest: Optional[_SlabForest] = None,
    ) -> None:
        self.slab = slab
        self.size = size
        self._member_bits = member_bits
        #: Total embeddings (= support: one embedding per transaction).
        self.embedding_count = source.supports[row]
        self._forest = forest
        #: The level holding this prefix's entries, and its row there.
        self._source = source
        self._row = row
        #: This store's own per-parent batch of children.
        self._batch: Optional[_ForestLevel] = None
        self._tids: Optional[Tuple[int, ...]] = None
        self._tid_array: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_root(
        cls,
        slab: TransposedSlabSpace,
        label: Label,
        context: Optional[dict] = None,
    ) -> "SlabEmbeddingStore":
        """The 1-clique store of one label, a level-0 row from the start.

        ``context`` is the engine's per-mine-call dict.  When it names
        the call's ``roots`` and threshold ``abs_sup``, the first root
        builds the call's :class:`_SlabForest` there and every root it
        holds is handed its row.  A root outside the forest (an
        infrequent or unrequested label), or one built without a
        threshold, is the one row of its own level.
        """
        bit = slab.bit_of.get(label)
        if bit is None:
            return cls(slab, 1, (), _nowhere(slab, 1), 0)
        abs_sup = context.get("abs_sup") if context is not None else None
        if abs_sup is None:
            # Nothing is frequent above the support: no children batch
            # until a plan names a threshold.
            abs_sup = int(slab.label_tx_counts[bit]) + 1
        else:
            forest = context.get("slab_forest")
            if forest is None:
                bit_of = slab.bit_of
                root_bits = [bit_of[root] for root in context["roots"] if root in bit_of]
                forest = context["slab_forest"] = _SlabForest(slab, abs_sup, root_bits)
            row = forest.root_index.get(bit)
            if row is not None:
                return cls(slab, 1, (bit,), forest.levels[0], row, forest)
        level = _ForestLevel.roots(slab, np.array([bit], dtype=np.intp), abs_sup)
        return cls(slab, 1, (bit,), level, 0)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def support(self) -> int:
        """Number of transactions with at least one embedding."""
        return self.embedding_count

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
            positions = self._tid_array = bit_positions(self._source.tx[self._row])
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

    def _entries(self) -> Tuple[_ForestLevel, int, int, int]:
        """``(level, row, lo, hi)``: this prefix is row ``row`` of
        ``level``, and its nonzero candidate rows are entries ``lo:hi``
        there."""
        level, row = self._source, self._row
        lo, hi = level.offsets[row : row + 2].tolist()
        return level, row, lo, hi

    # ------------------------------------------------------------------
    # Scans of Algorithm 1
    # ------------------------------------------------------------------
    def extension_supports(self) -> Dict[Label, int]:
        """Support of ``C ◇ β`` for every extension label β."""
        level, _, lo, hi = self._entries()
        labels = self.slab.labels
        counts = popcount_rows(level.entry_words[lo:hi]).tolist()
        return {labels[bit]: count for bit, count in zip(level.entry_cols[lo:hi].tolist(), counts)}

    def extension_plan(
        self, abs_sup: int
    ) -> Tuple[List[Tuple[Label, int]], int, bool]:
        """Threshold/tie digest of one extension scan.

        Same contract as ``EmbeddingStore.extension_plan``: frequent
        ``(label, support)`` pairs in ascending label order, the
        infrequent-label count, and the Lemma 4.3 verdict.  The digest
        is this store's row of its level when the level was digested at
        ``abs_sup`` — always so on the engine path.  Otherwise the row
        is digested again on its own, leaving the forest.
        """
        level = self._source
        if level.abs_sup != abs_sup:
            level = self._source = level.alone(self._row, abs_sup)
            self._forest, self._row, self._batch = None, 0, None
        return level.digests[self._row]

    def nonclosed_extension_label(self, last_label: Label) -> Optional[Label]:
        """The Lemma 4.4 test, transposed.

        A label ``c`` blocks iff it is a candidate in *every*
        supporting transaction (``cand[c] == tx`` — automatic for tied
        labels) and no other candidate anywhere is non-adjacent to it
        (``cand & ~nbr[c]`` is zero outside row ``c``).  At the row's
        own last bit, where the engine asks, the answer is one lookup in
        its level's blocking labels — forest level, per-parent batch or
        own small level — resolved once per level; other ranks run the
        same test over the row's entries equal to ``tx`` below the rank.
        """
        level, row = self._source, self._row
        slab = self.slab
        rank = slab.bit_of.get(last_label)
        if rank == level.bits[row]:
            blocks = level.blocks
            if blocks is None:
                blocks = level.blocking()
            return blocks.get(row)
        if rank is None:
            rank = bisect_left(slab.labels, last_label)
        if rank == 0 or not self.embedding_count:
            # Nothing sorts below the first label, and a prefix
            # supported nowhere has no embedding to carry one.
            return None
        lo, hi = level.offsets[row : row + 2].tolist()
        hi = lo + int(np.searchsorted(level.entry_cols[lo:hi], rank))
        tied = lo + np.flatnonzero((level.entry_words[lo:hi] == level.tx[row]).all(axis=1))
        hit = _first_blocking(
            np.full(tied.size, row, dtype=np.intp),
            level.entry_cols[tied],
            level.offsets,
            level.entry_cols,
            level.entry_words,
            slab.nbr,
        ).get(row)
        return None if hit is None else slab.labels[hit]

    def extend(self, label: Label, last_label: Optional[Label] = None) -> "SlabEmbeddingStore":
        """Embeddings of ``C ◇ label``: a row of a grown level.

        The same-label ordering discipline (``last_label``) is vacuous
        with unique labels: a label names at most one vertex per
        transaction.
        Stores bound to the mine call's forest hand out their children
        as rows of the next forest level (built for the whole frontier
        on first demand); saturated forests and stores outside one
        batch their frequent children from ``last_label`` on per
        parent instead; other labels take a one-pair growth.
        """
        bit = self.slab.bit_of.get(label)
        forest = self._forest
        # A forest-bound store is a row of level ``size - 1``.
        level = self._source
        row = self._row
        if forest is not None and bit is not None and bit >= level.bits[row] and (
            level.child_offsets is not None or forest.ensure_children(self.size - 1)
        ):
            offsets = level.child_offsets
            hi = offsets[row + 1]
            bits = level.child_bits
            i = bisect_left(bits, bit, offsets[row], hi)
            if i < hi and bits[i] == bit:
                return SlabEmbeddingStore(
                    self.slab,
                    self.size + 1,
                    self._member_bits + (bit,),
                    forest.levels[self.size],
                    i,
                    forest,
                )
        elif bit is not None:
            batch = self._batch
            if batch is None:
                batch = self._batch = self._batch_children(last_label)
            i = bisect_left(batch.bits, bit)
            if i < len(batch.bits) and batch.bits[i] == bit:
                return SlabEmbeddingStore(
                    self.slab, self.size + 1, self._member_bits + (bit,), batch, i
                )
        return self._extend_single(bit)

    def _batch_children(self, last_label: Optional[Label]) -> _ForestLevel:
        """This prefix's frequent children from ``last_label`` on, as one
        level (the per-parent batch).

        The forest's level build applied to one parent: the children
        are its row's frequent entries at or above ``last_label``'s bit
        (canonical growth never visits the ones below; ``extend`` still
        serves them one at a time).
        """
        level, row, _, _ = self._entries()
        cutoff = 0
        if last_label is not None:
            cutoff = self.slab.bit_of.get(last_label)
            if cutoff is None:
                cutoff = bisect_left(self.slab.labels, last_label)
        lo, hi = np.searchsorted(level.freq_rows, (row, row + 1)).tolist()
        lo += int(np.searchsorted(level.freq_cols[lo:hi], cutoff))
        picks = level.freq_entries[lo:hi]
        return level.grow(np.full(picks.size, row, dtype=np.intp), picks)

    def _extend_single(self, bit: Optional[int]) -> "SlabEmbeddingStore":
        """``C ◇ bit`` on its own: a one-pair growth from this row's
        entry at ``bit``, or a child supported nowhere when it has none
        (a label outside the slab, ``bit is None``, adds no member)."""
        level, row, lo, hi = self._entries()
        members = self._member_bits
        child = None
        if bit is not None:
            members += (bit,)
            at = lo + int(np.searchsorted(level.entry_cols[lo:hi], bit))
            if at < hi and level.entry_cols[at] == bit:
                child = level.grow(np.array([row], dtype=np.intp), np.array([at], dtype=np.intp))
        if child is None:
            child = _nowhere(self.slab, level.abs_sup)
        return SlabEmbeddingStore(self.slab, self.size + 1, members, child, 0)

    # ------------------------------------------------------------------
    # Branch-and-bound support (top-k)
    # ------------------------------------------------------------------
    def multiplicity_bound(self, valid_labels: Sequence[Label]) -> int:
        """Max candidates with a valid label in any one transaction.

        The slab analogue of ``EmbeddingStore.multiplicity_bound``:
        pick the valid labels' entries and column-sum their unpacked
        bits — one vectorized pass instead of a per-embedding scan.
        """
        bit_of = self.slab.bit_of
        rows = [bit_of[label] for label in valid_labels if label in bit_of]
        if not rows or not self.embedding_count:
            return 0
        level, _, lo, hi = self._entries()
        valid = np.zeros(self.slab.n_labels, dtype=bool)
        valid[rows] = True
        picked = level.entry_words[lo:hi][valid[level.entry_cols[lo:hi]]]
        bits = np.unpackbits(picked.view(np.uint8), axis=-1, bitorder="little")
        return int(bits.sum(axis=0, dtype=np.int64).max())

    def __repr__(self) -> str:
        return f"<SlabEmbeddingStore size={self.size} support={self.embedding_count}>"


__all__ = ["SlabEmbeddingStore"]
