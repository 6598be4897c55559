"""Embedding bookkeeping for prefix cliques.

An *embedding* of a clique pattern C in a transaction G is a set of
pairwise-adjacent vertices whose sorted labels equal C's canonical
form (Section 2).  CLAN's recursion carries, for the current prefix
clique, its embeddings in every supporting transaction; this module
owns that state and the three scans of Algorithm 1:

* finding the support of every single-label extension (lines 01–03),
* the non-closed prefix pruning test of Lemma 4.4 (lines 04–05),
* materialising the embeddings of ``C ◇ l`` for a chosen extension
  label (line 09).

Two candidate-generation strategies are provided:

``cached``
    Each embedding carries its *extension-vertex set* (the common
    neighbourhood of its vertices, the ``V_i`` of Section 4.3), updated
    incrementally by one intersection per extension.  This is the
    default and by far the fastest in Python.

``rescan``
    Embeddings store only vertex tuples; extension vertices are
    re-derived per scan by checking the vertices of the *pseudo
    database* (the low-degree-pruned vertex index of Section 4.2)
    against the embedding.  This is the paper's literal procedure and
    exists so the pseudo low-degree pruning ablation measures what the
    paper's design actually saves.

Orthogonally to the strategy, two *kernels* implement the set algebra:

``bitset``
    Vertex sets are arbitrary-precision integer bitmasks over the
    graph's sorted-vertex-id bit order
    (:meth:`repro.graphdb.graph.Graph.bit_index`).  Intersections are
    single ``&`` operations, the pseudo-database survivor index is
    ANDed in as a mask, and per-transaction extension labels are read
    off the union mask's set bits.  :class:`EmbeddingStore` is this
    kernel.  It runs every database the same way: unique per-vertex
    labels only let the extension scan skip its per-transaction label
    dedup.

``slab`` (default)
    Numpy unsigned-word slab arrays with vectorized ``&``/``|``/popcount,
    transposed so one array row holds a label's supporting-transaction
    mask (:mod:`repro.core.slab_store`).  Engaged when the database has
    a slab index (unique per-vertex labels, resident or in a SQLite
    store), the strategy is ``cached`` and structural redundancy
    pruning is on; otherwise the mine runs on the ``bitset`` kernel's
    per-graph int masks.

Both kernels enumerate embeddings in identical order (ascending vertex
id within each label group) and produce identical results.  The
differential suites hold them to an independent hashed-``set`` store
kept beside the brute-force oracle in the test tree.

Embeddings with equal labels are generated with vertex ids ascending
inside each label group, so every vertex *set* is enumerated exactly
once even though label multisets are not sets.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..exceptions import MiningError
from ..graphdb.core_index import PseudoDatabase
from ..graphdb.database import GraphDatabase
from .canonical import Label
from .closure import fully_connected_old_labels_mask
from .slab_store import SlabEmbeddingStore

#: One embedding: its vertex tuple (in canonical label order) and, in
#: ``cached`` mode, its extension-vertex set as an ``int`` bitmask.
EmbeddingRecord = Tuple[Tuple[int, ...], Optional[int]]

CACHED = "cached"
RESCAN = "rescan"
_STRATEGIES = (CACHED, RESCAN)

BITSET = "bitset"
SLAB = "slab"


class EmbeddingStore:
    """Embeddings of one prefix clique across all supporting transactions."""

    __slots__ = (
        "database",
        "pseudo",
        "strategy",
        "size",
        "by_transaction",
        "_ties",
    )

    def __init__(
        self,
        database: GraphDatabase,
        pseudo: Optional[PseudoDatabase],
        strategy: str,
        size: int,
        by_transaction: Dict[int, List[EmbeddingRecord]],
    ) -> None:
        """``pseudo=None`` disables low-degree pruning in ``rescan`` mode."""
        if strategy not in _STRATEGIES:
            raise MiningError(f"unknown embedding strategy {strategy!r}; use one of {_STRATEGIES}")
        self.database = database
        self.pseudo = pseudo
        self.strategy = strategy
        self.size = size
        self.by_transaction = by_transaction
        # Tie cache: labels whose extension support equals the prefix
        # support, recorded by the last extension_plan() call.  A
        # Lemma 4.4 blocking label necessarily ties the support, so
        # the nonclosed scan restricts itself to this set when known.
        self._ties: Optional[Set[Label]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_label(
        cls,
        database: GraphDatabase,
        pseudo: Optional[PseudoDatabase],
        label: Label,
        strategy: str = CACHED,
        context: Optional[dict] = None,
        *,
        slab: bool = False,
    ) -> "EmbeddingStore":
        """Embeddings of the 1-clique with the given label.

        ``slab=True`` (the slab kernel) dispatches to the transposed
        :class:`~repro.core.slab_store.SlabEmbeddingStore` when the
        database has a slab space and the strategy is ``cached``;
        otherwise it falls back to this int-mask store (byte-identical
        results either way).  ``context`` is the engine's
        per-mine-call scratch dict: it caches the database's slab space
        across the call's roots, and with the call's ``roots`` and
        ``abs_sup`` in it the slab kernel builds its level-batched
        forest there and hands each root its level-0 row.
        """
        if strategy not in _STRATEGIES:
            raise MiningError(f"unknown embedding strategy {strategy!r}; use one of {_STRATEGIES}")
        if slab and strategy == CACHED:
            # One staleness-checked space resolution per mine call:
            # the engine's context dict caches it across the call's
            # roots (fresh per call, so mutations between calls are
            # still observed).
            if context is not None and "slab_space" in context:
                slab_space = context["slab_space"]
            else:
                slab_space = database.slab_space()
                if context is not None:
                    context["slab_space"] = slab_space
            if slab_space is not None:
                return SlabEmbeddingStore.for_root(slab_space, label, context)
        by_transaction: Dict[int, List[EmbeddingRecord]] = {}
        for tid, graph in enumerate(database):
            records: List[EmbeddingRecord] = []
            for vertex in sorted(graph.vertices_with_label(label)):
                if strategy == CACHED:
                    records.append(((vertex,), graph.neighbor_mask(vertex)))
                else:
                    records.append(((vertex,), None))
            if records:
                by_transaction[tid] = records
        return cls(database, pseudo, strategy, 1, by_transaction)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def support(self) -> int:
        """Number of transactions with at least one embedding."""
        return len(self.by_transaction)

    @property
    def embedding_count(self) -> int:
        """Total embeddings across all transactions."""
        return sum(map(len, self.by_transaction.values()))

    def transactions(self) -> Tuple[int, ...]:
        """Supporting transaction ids, sorted."""
        return tuple(sorted(self.by_transaction))

    def witnesses(self) -> Dict[int, Tuple[int, ...]]:
        """One witness embedding (sorted vertex tuple) per transaction.

        The lexicographically smallest embedding is chosen so the
        reported witness is deterministic and identical across kernels
        and embedding strategies.
        """
        witnesses: Dict[int, Tuple[int, ...]] = {}
        for tid, records in self.by_transaction.items():
            if len(records) == 1:
                witnesses[tid] = tuple(sorted(records[0][0]))
            else:
                witnesses[tid] = min(tuple(sorted(vertices)) for vertices, _ in records)
        return witnesses

    def iter_embeddings(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(transaction id, vertex tuple)`` for every embedding."""
        for tid, records in self.by_transaction.items():
            for vertices, _ in records:
                yield tid, vertices

    # ------------------------------------------------------------------
    # Candidate (extension-vertex) computation
    # ------------------------------------------------------------------
    def _candidates(self, tid: int, record: EmbeddingRecord) -> Set[int]:
        """The extension-vertex set ``V_i`` of one embedding, as a set.

        The mask expanded to vertex ids; external consumers such as the
        top-k bound use it, while the hot paths below stay on masks.
        """
        return set(self.database[tid].vertices_from_mask(self._candidates_mask(tid, record)))

    def _candidates_mask(self, tid: int, record: EmbeddingRecord) -> int:
        """The extension-vertex set of one embedding, as a bitmask.

        In ``rescan`` mode the pseudo-database pruning of Observation
        4.1 becomes one AND with the level's surviving-vertex mask, and
        "adjacent to the whole embedding" is the AND of the members'
        neighbour masks (each member is absent from its own mask, so
        members need no explicit exclusion).
        """
        vertices, cached = record
        if cached is not None:
            return cached  # type: ignore[return-value]
        index = self.database[tid].bit_index()
        if self.pseudo is not None:
            mask = self.pseudo.index(tid).usable_mask_at(self.size + 1)
        else:
            mask = index.all_mask
        neighbor_masks = index.neighbor_masks
        for vertex in vertices:
            mask &= neighbor_masks[vertex]
            if not mask:
                break
        return mask

    # ------------------------------------------------------------------
    # Scans of Algorithm 1
    # ------------------------------------------------------------------
    def extension_supports(self) -> Dict[Label, int]:
        """Support of ``C ◇ β`` for every extension label β.

        A transaction supports ``C ◇ β`` iff some embedding of C in it
        has an extension vertex labeled β; this covers both *new*
        (β ≥ last label) and *old* (β < last label) extension vertices,
        which is exactly what the closure check of Lemma 4.3 needs.

        One ``|`` per embedding collapses the transaction's candidate
        sets before any label work happens; labels are then read off
        the union's set bits top-down (``bit_length`` isolates the
        highest bit in O(1)).  When the graph's labels are unique per
        vertex, each label can appear at most once per union, so the
        per-transaction dedup set is skipped and counts are bumped
        directly.
        """
        supports: Dict[Label, int] = {}
        get = supports.get
        cached_mode = self.strategy == CACHED
        for tid, records in self.by_transaction.items():
            union = 0
            if cached_mode:
                for _, cached in records:
                    union |= cached  # type: ignore[operator]
            else:
                for record in records:
                    union |= self._candidates_mask(tid, record)
            if not union:
                continue
            index = self.database[tid].bit_index()
            labels_by_bit = index.labels_by_bit
            if index.unique_labels:
                while union:
                    top = union.bit_length() - 1
                    union ^= 1 << top
                    label = labels_by_bit[top]
                    supports[label] = get(label, 0) + 1
            else:
                seen: Set[Label] = set()
                while union:
                    top = union.bit_length() - 1
                    union ^= 1 << top
                    seen.add(labels_by_bit[top])
                for label in seen:
                    supports[label] = get(label, 0) + 1
        return supports

    def extension_plan(
        self, abs_sup: int
    ) -> Tuple[List[Tuple[Label, int]], int, bool]:
        """Digest of one extension scan, as the miner consumes it.

        Returns ``(frequent, n_infrequent, blocking)``:

        * ``frequent`` — the extension labels with support ≥ ``abs_sup``
          in ascending label order, each with its support,
        * ``n_infrequent`` — how many extension labels fell below the
          threshold (feeds the statistics counter),
        * ``blocking`` — whether some extension label ties the prefix
          support, i.e. the Lemma 4.3 closure check *fails*.

        Post-processes :meth:`extension_supports`, recording the tied
        labels for :meth:`nonclosed_extension_label`.
        """
        supports = self.extension_supports()
        prefix_support = self.support
        frequent: List[Tuple[Label, int]] = []
        infrequent = 0
        ties: Set[Label] = set()
        for label in sorted(supports):
            count = supports[label]
            if count == prefix_support:
                ties.add(label)
            if count >= abs_sup:
                frequent.append((label, count))
            else:
                infrequent += 1
        self._ties = ties
        return frequent, infrequent, bool(ties)

    def nonclosed_extension_label(self, last_label: Label) -> Optional[Label]:
        """The Lemma 4.4 test: find a non-closed extension vertex label.

        Returns a label β < ``last_label`` that is, in *every* embedding
        of the prefix, carried by an extension vertex fully connected to
        all other extension vertices of that embedding — or ``None`` if
        no such label exists.  A non-None result licenses pruning the
        whole subtree rooted at the current prefix.

        A blocking label extends C in every supporting transaction, so
        its extension support necessarily ties ``sup(C)``; when a
        preceding :meth:`extension_plan` recorded the tied labels, the
        scan starts from that (usually empty) set instead of from
        scratch.
        """
        common = self._ties
        if common is not None:
            # The tie set also holds new labels (≥ last_label); only old
            # labels can block, so drop the rest before seeding the scan.
            common = {label for label in common if label < last_label}
            if not common:
                return None
        for tid, records in self.by_transaction.items():
            graph = self.database[tid]
            for record in records:
                fully_connected = fully_connected_old_labels_mask(
                    self._candidates_mask(tid, record), graph, last_label, common
                )
                common = fully_connected if common is None else common & fully_connected
                if not common:
                    return None
        if common:
            return min(common)
        return None

    def extend(self, label: Label, last_label: Optional[Label]) -> "EmbeddingStore":
        """Embeddings of ``C ◇ label``.

        ``last_label`` is the last label of the current prefix (``None``
        for the empty prefix).  When the extension repeats the last
        label, only vertices with ids above the previous same-label
        vertex are taken, so each vertex set appears exactly once.

        Restricting candidates to the extension label is ``mask &
        label_mask``; the same-label ascending-id discipline is a shift
        mask (bit order is sorted vertex id, so "ids above the floor"
        is "bits above the floor's bit").
        """
        same_label_tail = last_label is not None and label == last_label
        cached_mode = self.strategy == CACHED
        by_transaction: Dict[int, List[EmbeddingRecord]] = {}
        for tid, records in self.by_transaction.items():
            graph = self.database[tid]
            index = graph.bit_index()
            label_mask = index.label_masks.get(label, 0)
            if not label_mask:
                continue
            order = index.order
            bit_of = index.bit
            neighbor_masks = index.neighbor_masks
            extended: List[EmbeddingRecord] = []
            for record in records:
                vertices, cached = record
                grow = self._candidates_mask(tid, record) & label_mask
                if same_label_tail:
                    grow &= -1 << (bit_of[vertices[-1]] + 1)
                while grow:
                    low = grow & -grow
                    grow ^= low
                    vertex = order[low.bit_length() - 1]
                    if cached_mode:
                        new_cached: Optional[int] = cached & neighbor_masks[vertex]  # type: ignore[operator]
                    else:
                        new_cached = None
                    extended.append((vertices + (vertex,), new_cached))
            if extended:
                by_transaction[tid] = extended
        return EmbeddingStore(
            self.database,
            self.pseudo,
            self.strategy,
            self.size + 1,
            by_transaction,
        )

    def extend_unordered(self, label: Label) -> "EmbeddingStore":
        """Extension without the canonical ordering discipline.

        Used only when structural redundancy pruning is disabled (the
        paper's "simple way" baseline): any extension label is allowed,
        so the per-label ascending-id trick no longer applies and
        duplicate vertex sets are collapsed explicitly per transaction.
        """
        by_transaction: Dict[int, List[EmbeddingRecord]] = {}
        for tid, records in self.by_transaction.items():
            graph = self.database[tid]
            neighbor_masks = graph.bit_index().neighbor_masks
            seen: Set[frozenset] = set()
            extended: List[EmbeddingRecord] = []
            for record in records:
                vertices, cached = record
                for vertex in graph.vertices_from_mask(self._candidates_mask(tid, record)):
                    if graph.label(vertex) != label:
                        continue
                    key = frozenset(vertices) | {vertex}
                    if key in seen:
                        continue
                    seen.add(key)
                    new_cached = None if cached is None else cached & neighbor_masks[vertex]
                    extended.append((vertices + (vertex,), new_cached))
            if extended:
                by_transaction[tid] = extended
        return EmbeddingStore(
            self.database,
            self.pseudo,
            self.strategy,
            self.size + 1,
            by_transaction,
        )

    def multiplicity_bound(self, valid_labels: Iterable[Label]) -> int:
        """Upper bound on how many more vertices this subtree can add.

        For each supporting transaction, no extension can use more
        vertices than some embedding there has candidate vertices with
        valid labels; conservatively the maximum over transactions
        (support may drop to min_sup of the current set).  Top-k's
        branch-and-bound cut consumes this; the slab kernel overrides
        it with a vectorized column sum.
        """
        valid = set(valid_labels)
        best = 0
        for tid, records in self.by_transaction.items():
            graph = self.database[tid]
            per_transaction = 0
            for record in records:
                candidates = self._candidates(tid, record)
                count = sum(1 for v in candidates if graph.label(v) in valid)
                per_transaction = max(per_transaction, count)
            best = max(best, per_transaction)
        return best

    def restrict_to(self, transaction_ids: Iterable[int]) -> "EmbeddingStore":
        """Embeddings restricted to a subset of transactions (tests)."""
        keep = set(transaction_ids)
        return EmbeddingStore(
            self.database,
            self.pseudo,
            self.strategy,
            self.size,
            {tid: recs for tid, recs in self.by_transaction.items() if tid in keep},
        )

    def __repr__(self) -> str:
        return (
            f"<EmbeddingStore size={self.size} support={self.support} "
            f"embeddings={self.embedding_count} strategy={self.strategy}>"
        )


def warm_kernel_indexes(database: GraphDatabase, kernel: str = BITSET) -> None:
    """Force-build the lazy per-graph indexes the given kernel reads.

    The mask layer (:meth:`Graph.bit_index`, the slab
    :meth:`GraphDatabase.slab_space`) is built lazily on first touch
    and cached.  The parallel executor calls this in the *parent*
    before forking its pool so every worker inherits the finished
    indexes copy-on-write instead of rebuilding them per process — the
    "shared index warm-up" of the executor design.  Safe to call
    repeatedly; subsequent calls hit the caches.
    """
    if kernel == SLAB and database.slab_space() is not None:
        return
    # Bitset, and slab-ineligible databases (the int-mask fallback).
    for graph in database:
        graph.bit_index()
