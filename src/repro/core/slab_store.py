"""The slab kernel's embedding store (``MinerConfig.kernel="slab"``).

:class:`SlabEmbeddingStore` is the aligned-database fast path of the
slab kernel: it mirrors :class:`repro.core.embeddings.EmbeddingStore`'s
engine-facing surface while keeping the whole per-prefix state in the
transposed slab layout of :mod:`repro.graphdb.slab` — one
``word[n_labels, tx_words]`` candidate slab whose row ``α`` masks the
transactions where label ``α`` extends the prefix.

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

* every prefix of one depth reachable by canonical growth from the
  mine call's roots is grown in one ``[m, n_labels, tx_words]`` slab
  expression whose single popcount pass yields every prefix's
  extension-count row (levels are built lazily, on the first
  ``extend`` out of the previous depth),
* the engine always calls ``extension_plan(abs_sup)`` before anything
  else on a store, and ``abs_sup`` is fixed for a mine call — so the
  level batch also derives each prefix's *entire plan digest*
  (frequent list, infrequent count, Lemma 4.3 verdict, tied labels)
  with one thresholded extraction,
* under canonical prefix growth, the rank a prefix's Lemma 4.4 scan
  runs at is its own last bit — known at batch time — so the
  non-closed test for a *whole level* collapses into one chunked
  ``cand & ~nbr[c]`` pass over the (prefix, tied label) pairs,
  resolved lazily on the first store that asks,
* forests whose search tree outgrows ``_FOREST_MAX_BYTES`` stop
  deepening; affected stores fall back to the same batching applied
  per parent (one ``[k, n_labels, tx_words]`` expression over a
  prefix's frequent children), byte-identically.

A tied label ``c`` satisfies ``cand[c] == tx`` by definition
(``counts[c] == support`` and every row is a subset of ``tx``), and
``c`` blocks iff ``cand & ~nbr[c]`` is zero outside row ``c`` — row
``c`` itself always equals ``tx`` (the diagonal of ``nbr`` is zero).
:func:`_first_blocking` is the one definition of that test: it clears
row ``c`` of each freshly gathered ``bad`` slab and reduces the rest
as one contiguous row, so no reduction runs over the short word axis.

Everything the hot path does not need — witness tuples, per-embedding
records, restriction, the unordered-extension ablation — materialises
the equivalent int-mask records lazily and delegates to the bitset
kernel, which keeps the byte-identity contract trivially.

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

#: Pairs per chunk of the batched Lemma 4.4 resolution — bounds the
#: ``[pairs, n_labels, tx_words]`` temporary (a few MB at the default)
#: and, because rows whose answer is already known drop out between
#: chunks, bounds how far the batch can overshoot the sequential
#: scan's early exit.
_PAIR_CHUNK = 256

#: Ceiling on one chunk temporary, in bytes: wide (multi-word)
#: databases gather fewer rows per chunk, so no transient outgrows it.
_CHUNK_BYTES = 1024 * 1024

#: Ceiling on the candidate-slab bytes a mine call's speculative forest
#: may hold.  Mine calls whose search tree grows past it stop deepening
#: the forest and fall back to per-parent batching — same answers,
#: bounded memory.  Eight times this bought nothing on fig7b ×64,
#: where the forest saturates either way.
_FOREST_MAX_BYTES = 16 * 1024 * 1024


def _chunk_rows(slab: np.ndarray, limit: int) -> int:
    """Rows of ``slab`` per chunk: at most ``limit`` and ``_CHUNK_BYTES``."""
    return max(1, min(limit, _CHUNK_BYTES // max(1, slab[0].nbytes)))


def _first_blocking(
    rows: np.ndarray,
    tied: np.ndarray,
    cand_source: np.ndarray,
    nbr: np.ndarray,
) -> Dict[int, int]:
    """Smallest Lemma 4.4 blocking bit per row, chunk-batched.

    ``rows``/``tied`` hold parallel ``(row, c)`` pairs in ascending
    ``(row, c)`` order: ``cand_source[row]`` is a prefix's candidate
    slab and ``c`` a label bit with ``cand[c] == tx`` below the
    prefix's rank.  ``c`` blocks iff ``cand & ~nbr[c]`` is zero outside
    row ``c``: each pair's row ``c`` is cleared in the gathered ``bad``
    slab, and one contiguous whole-row ``max`` tests the rest for zero.
    Rows missing from the result have no blocking label.  Rows whose
    answer is found drop out between chunks, bounding how far the batch
    overshoots the sequential scan's early exit.  ``~nbr`` is formed
    per chunk, on the gathered rows only.
    """
    answers: Dict[int, int] = {}
    total = int(rows.size)
    if not total:
        return answers
    answered = np.zeros(cand_source.shape[0], dtype=bool)
    step = _chunk_rows(nbr, _PAIR_CHUNK)
    position = 0
    while position < total:
        r = rows[position : position + step]
        c = tied[position : position + step]
        position += step
        keep = ~answered[r]
        if not keep.all():
            r = r[keep]
            c = c[keep]
            if not r.size:
                continue
        k = r.size
        bad = nbr[c]
        np.invert(bad, out=bad)
        bad &= cand_source[r]
        bad[np.arange(k), c] = 0
        hits = np.flatnonzero(bad.reshape(k, -1).max(axis=1) == 0)
        if hits.size:
            # Pairs are (row, c)-ascending and answered rows left the
            # batch, so a row's first hit carries its smallest blocking
            # bit.
            first_rows, first_at = np.unique(r[hits], return_index=True)
            answers.update(zip(first_rows.tolist(), c[hits][first_at].tolist()))
            answered[first_rows] = True
    return answers


class _ForestLevel:
    """One depth slice of a mine call's speculative slab forest.

    Row ``r`` is one prefix clique of size ``depth+1``; the arrays are
    parallel over rows.  ``freq_*`` keep the raw frequent-extension
    extraction so the next level and the Lemma 4.4 batch can be built
    without re-scanning ``counts``.
    """

    __slots__ = (
        "bits",
        "bits_np",
        "cand",
        "tx",
        "supports",
        "digests",
        "freq_rows",
        "freq_cols",
        "freq_vals",
        "tie_rows",
        "tie_cols",
        "child_offsets",
        "child_bits",
        "blocks",
    )

    def __init__(self) -> None:
        self.child_offsets: Optional[List[int]] = None
        self.child_bits: Optional[List[int]] = None
        self.blocks: Optional[Dict[int, int]] = None


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

    Speculation is bounded by ``_FOREST_MAX_BYTES``: a search tree too
    large to keep resident stops deepening and the stores fall back to
    per-parent batching, byte-identically.
    """

    __slots__ = ("slab", "abs_sup", "levels", "nbytes", "saturated", "root_index", "labels_arr")

    def __init__(
        self,
        slab: TransposedSlabSpace,
        abs_sup: int,
        root_bits: Sequence[int],
    ) -> None:
        self.slab = slab
        self.abs_sup = abs_sup
        self.nbytes = 0
        self.saturated = False
        self.labels_arr = np.array(slab.labels, dtype=object)
        supports = slab.label_tx_counts
        bits = [bit for bit in root_bits if supports[bit] >= abs_sup]
        bits_np = np.array(bits, dtype=np.intp)
        cand = slab.nbr[bits_np]
        level = self._finish_level(
            bits,
            bits_np,
            cand,
            slab.presence[bits_np],
            popcount_rows(cand),
            supports[bits_np].tolist(),
        )
        self.levels: List[_ForestLevel] = [level]
        self.root_index = {bit: row for row, bit in enumerate(bits)}

    def _finish_level(
        self,
        bits: List[int],
        bits_np: np.ndarray,
        cand: np.ndarray,
        tx: np.ndarray,
        counts: np.ndarray,
        supports: List[int],
    ) -> _ForestLevel:
        """Digest a freshly grown level: one thresholded extraction.

        Every row is frequent (``support >= abs_sup >= 1``), so tied
        labels (``count == support``) are a subset of the frequent
        ones and fall out of the same extraction — see the tie-cache
        mirror notes on :class:`SlabEmbeddingStore`.
        """
        abs_sup = self.abs_sup
        level = _ForestLevel()
        level.bits = bits
        level.bits_np = bits_np
        level.cand = cand
        level.tx = tx
        level.supports = supports
        self.nbytes += cand.nbytes

        n = len(bits)
        freq_mask = counts >= abs_sup
        freq_rows, freq_cols = np.nonzero(freq_mask)
        freq_vals = counts[freq_mask]
        n_present = (counts != 0).sum(axis=1).tolist()
        level.freq_rows = freq_rows
        level.freq_cols = freq_cols
        level.freq_vals = freq_vals

        if freq_rows.size:
            pairs_all = list(zip(self.labels_arr[freq_cols].tolist(), freq_vals.tolist()))
            freq_per = np.bincount(freq_rows, minlength=n).tolist()
            tie_mask = freq_vals == np.asarray(supports, dtype=np.int64)[freq_rows]
            tie_rows = freq_rows[tie_mask]
            tie_cols = freq_cols[tie_mask]
            tie_per = np.bincount(tie_rows, minlength=n).tolist()
            tie_flat = tie_cols.tolist()
        else:
            pairs_all = []
            freq_per = [0] * n
            tie_rows = tie_cols = freq_rows
            tie_per = [0] * n
            tie_flat = []
        level.tie_rows = tie_rows
        level.tie_cols = tie_cols

        digests: List[tuple] = []
        fpos = 0
        tpos = 0
        for j in range(n):
            nf = freq_per[j]
            nt = tie_per[j]
            present = n_present[j]
            if present:
                ties = tie_flat[tpos : tpos + nt]
                digests.append(
                    (pairs_all[fpos : fpos + nf], present - nf, bool(ties), ties)
                )
            else:
                digests.append(([], 0, False, None))
            fpos += nf
            tpos += nt
        level.digests = digests
        return level

    def ensure_children(self, depth: int) -> bool:
        """Build level ``depth+1`` (all canonical frequent children).

        Returns False when the forest is saturated — callers then fall
        back to per-parent batching.  Idempotent per level.
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
        child_sup = level.freq_vals[canon]
        new_bytes = child_bits.size * slab.nbr[0].nbytes
        if self.nbytes + new_bytes > _FOREST_MAX_BYTES:
            self.saturated = True
            return False
        offsets = np.zeros(len(level.bits) + 1, dtype=np.int64)
        np.cumsum(np.bincount(parent_rows, minlength=len(level.bits)), out=offsets[1:])
        level.child_offsets = offsets.tolist()
        level.child_bits = child_bits.tolist()
        if not child_bits.size:
            return True
        grown = level.cand[parent_rows]
        nbr = slab.nbr
        step = _chunk_rows(nbr, len(child_bits))
        for start in range(0, len(child_bits), step):
            grown[start : start + step] &= nbr[child_bits[start : start + step]]
        tx = level.cand[parent_rows, child_bits]
        grown &= tx[:, None, :]
        counts = popcount_rows(grown)
        self.levels.append(
            self._finish_level(
                level.child_bits, child_bits, grown, tx, counts, child_sup.tolist()
            )
        )
        return True

    def level_blocks(self, depth: int) -> Dict[int, int]:
        """Smallest Lemma 4.4 blocking bit per row of one level, batched."""
        level = self.levels[depth]
        blocks = level.blocks
        if blocks is None:
            mask = level.tie_cols < level.bits_np[level.tie_rows]
            blocks = level.blocks = _first_blocking(
                level.tie_rows[mask], level.tie_cols[mask], level.cand, self.slab.nbr
            )
        return blocks


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
        "_row",
        "_block_parent",
        "_block_rank",
        "_batch",
        "_child_blocks",
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
        cand: np.ndarray,
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
        cand: np.ndarray,
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
        #: This store's position in the mine call's forest: the forest,
        #: its level (depth = size - 1), and its row in that level.
        self._forest: Optional[_SlabForest] = None
        self._level: int = 0
        self._row: int = 0
        #: Per-parent fallback: where this store's batched Lemma 4.4
        #: answer lives when the forest is saturated, valid only when
        #: the scan rank equals ``_block_rank``.
        self._block_parent: Optional["SlabEmbeddingStore"] = None
        self._block_rank: Optional[int] = None
        self._batch: Optional[tuple] = None
        self._child_blocks: Optional[Dict[int, int]] = None
        self._children: Optional[Dict[Label, tuple]] = None
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
        path the answer was resolved by the owning batch — the parent's
        for child prefixes, the slab space's for roots — so this is a
        dict lookup; off-engine callers run the same batch over their
        own pairs.
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
        forest = self._forest
        parent = self._block_parent
        if (
            forest is not None
            and self._member_bits
            and rank == self._member_bits[-1]
        ):
            hit = forest.level_blocks(self._level).get(self._row)
        elif parent is not None and rank == self._block_rank:
            hit = parent._ensure_child_blocks().get(rank)
        else:
            tie_bits = self._tie_bits
            if tie_bits is not None:
                # Tied labels below the rank: ``cand[c] == tx`` holds
                # for every one of them, no equality check needed.
                below = np.array(tie_bits[: bisect_left(tie_bits, rank)], dtype=np.intp)
            else:
                below = np.flatnonzero((self._cand[:rank] == self._tx).all(axis=1))
            hit = _first_blocking(
                np.zeros(below.size, dtype=np.intp), below, self._cand[None], slab.nbr
            ).get(0)
        return None if hit is None else slab.labels[hit]

    def _child(
        self,
        member_bits: Tuple[int, ...],
        cand: np.ndarray,
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
        as views into the next forest level (built for the whole
        frontier on first demand); saturated forests and off-engine
        stores batch the frequent children per parent instead; other
        labels take the single path.  ``reuse`` optionally recycles a
        retired store object (see :meth:`_child`).
        """
        forest = self._forest
        member_bits = self._member_bits
        if forest is not None and member_bits:
            bit = self.slab.bit_of.get(label)
            if bit is not None and bit >= member_bits[-1] and (
                forest.levels[self._level].child_offsets is not None
                or forest.ensure_children(self._level)
            ):
                level = forest.levels[self._level]
                lo = level.child_offsets[self._row]
                hi = level.child_offsets[self._row + 1]
                i = bisect_left(level.child_bits, bit, lo, hi)
                if i < hi and level.child_bits[i] == bit:
                    next_level = forest.levels[self._level + 1]
                    child = self._child(
                        member_bits + (bit,),
                        next_level.cand[i],
                        next_level.tx[i],
                        next_level.supports[i],
                        reuse,
                    )
                    child._plan_digest = next_level.digests[i]
                    child._plan_abs_sup = forest.abs_sup
                    child._forest = forest
                    child._level = self._level + 1
                    child._row = i
                    return child
                return self._extend_single(label, reuse)
        children = self._children
        if children is None:
            children = self._children = self._materialize_children(last_label)
        hit = children.get(label)
        if hit is None:
            return self._extend_single(label, reuse)
        row, bit, digest, support = hit
        batch = self._batch
        child = self._child(
            self._member_bits + (bit,),
            batch[1][row],
            batch[3][row],
            support,
            reuse,
        )
        child._plan_digest = digest
        child._plan_abs_sup = self._plan_abs_sup
        child._block_parent = self
        child._block_rank = bit
        return child

    def _materialize_children(self, last_label: Optional[Label]) -> Dict[Label, tuple]:
        """Batch-build the frequent children recorded by the last plan.

        One ``[k, n_labels, tx_words]`` expression grows every child;
        its popcount pass seeds their extension counts, and one fused
        thresholded extraction seeds their entire plan digests (sound
        because the engine's ``abs_sup`` is fixed per mine call and
        recorded by this store's own plan, and every batched child is
        frequent — so tied labels are a subset of frequent ones, see
        :func:`_group_plan_digests`).  Children below ``last_label``
        are skipped — canonical growth never visits them (``extend``
        still serves them via the single path).  The child map holds
        ``label -> (batch row, bit, digest, support)``.
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
        triples = [
            (bit_of[lab], lab, count)
            for lab, count in digest[0]
            if bit_of[lab] >= cutoff
        ]
        if not triples:
            return {}
        labels = slab.labels
        cand = self._cand
        bits_list = [bit for bit, _, _ in triples]
        bits = np.array(bits_list, dtype=np.intp)
        grown = slab.nbr[bits]
        grown &= cand
        tx_rows = cand[bits]
        grown &= tx_rows[:, None, :]
        counts = popcount_rows(grown)

        # The digest extraction of _group_plan_digests, inlined: one
        # thresholded nonzero finds the frequent labels and (because
        # every child is frequent) the tied ones among them.
        freq_mask = counts >= abs_sup
        rows, cols = np.nonzero(freq_mask)
        values = counts[freq_mask]
        n_present = (counts != 0).sum(axis=1)

        sup_list = [count for _, _, count in triples]
        frequent_lists: List[list] = [[] for _ in triples]
        tie_lists: List[list] = [[] for _ in triples]
        for row, col, value in zip(rows.tolist(), cols.tolist(), values.tolist()):
            frequent_lists[row].append((labels[col], value))
            if value == sup_list[row]:
                tie_lists[row].append(col)

        child_digests: Dict[int, tuple] = {}
        children: Dict[Label, tuple] = {}
        for j, present in enumerate(n_present.tolist()):
            bit, lab, count = triples[j]
            if present:
                frequent = frequent_lists[j]
                tie_bits = tie_lists[j]
                child = (frequent, present - len(frequent), bool(tie_bits), tie_bits)
            else:
                child = ([], 0, False, None)
            child_digests[bit] = child
            children[lab] = (j, bit, child, count)
        self._batch = (bits_list, grown, child_digests, tx_rows)
        return children

    def _ensure_child_blocks(self) -> Dict[int, int]:
        """Lemma 4.4 answers for this store's batched children.

        Resolved lazily on the first child that asks (the closure
        prunings may be disabled, in which case nobody ever does), in
        one chunked pass over every (child, tied-bit-below-rank) pair.
        """
        blocks = self._child_blocks
        if blocks is None:
            bits, grown, digests, _ = self._batch
            pair_rows: List[int] = []
            pair_tied: List[int] = []
            for row, bit in enumerate(bits):
                tie_bits = digests[bit][3]
                if not tie_bits:
                    continue
                for tied in tie_bits:
                    if tied >= bit:
                        break
                    pair_rows.append(row)
                    pair_tied.append(tied)
            by_row = _first_blocking(
                np.asarray(pair_rows, dtype=np.intp),
                np.asarray(pair_tied, dtype=np.intp),
                grown,
                self.slab.nbr,
            )
            blocks = self._child_blocks = {
                bits[row]: hit for row, hit in by_row.items()
            }
        return blocks

    def _extend_single(
        self, label: Label, reuse: Optional["SlabEmbeddingStore"] = None
    ) -> "SlabEmbeddingStore":
        bit = self.slab.bit_of.get(label)
        cand = self._cand
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

    def _ensure_counts(self) -> np.ndarray:
        counts = self._counts
        if counts is None:
            counts = self._counts = popcount_rows(self._cand)
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
        picked = np.ascontiguousarray(self._cand[np.asarray(rows, dtype=np.intp)])
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
        cand = np.ascontiguousarray(self._cand)
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
