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
    kernel.

``slab`` (default)
    Numpy unsigned-word slab arrays with vectorized ``&``/``|``/popcount,
    transposed so one array row holds a label's supporting-transaction
    mask (:mod:`repro.core.slab_store`).  Engaged when the database has
    a slab index (unique per-vertex labels, resident or in a SQLite
    store) and the strategy is ``cached``; otherwise it transparently
    falls back to the ``bitset`` int-mask representation.

Both kernels enumerate embeddings in identical order (ascending vertex
id within each label group) and produce identical results.  The
differential suites hold them to an independent hashed-``set`` store
kept beside the brute-force oracle in the test tree.

Embeddings with equal labels are generated with vertex ids ascending
inside each label group, so every vertex *set* is enumerated exactly
once even though label multisets are not sets.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..exceptions import MiningError
from ..graphdb.bitset import lowest_bit, popcount
from ..graphdb.core_index import PseudoDatabase
from ..graphdb.database import GraphDatabase
from .canonical import Label
from .closure import fully_connected_old_labels_mask

#: One embedding: its vertex tuple (in canonical label order) and, in
#: ``cached`` mode, its extension-vertex set as an ``int`` bitmask.
EmbeddingRecord = Tuple[Tuple[int, ...], Optional[int]]

CACHED = "cached"
RESCAN = "rescan"
_STRATEGIES = (CACHED, RESCAN)

BITSET = "bitset"
SLAB = "slab"

# Sentinel: "look the aligned space up from the database" (``None`` is
# a valid explicit value, meaning "no aligned space").
_SPACE_LOOKUP = object()


class EmbeddingStore:
    """Embeddings of one prefix clique across all supporting transactions."""

    __slots__ = (
        "database",
        "pseudo",
        "strategy",
        "size",
        "by_transaction",
        "space",
        "_ties",
    )

    def __init__(
        self,
        database: GraphDatabase,
        pseudo: Optional[PseudoDatabase],
        strategy: str,
        size: int,
        by_transaction: Dict[int, List[EmbeddingRecord]],
        space: object = _SPACE_LOOKUP,
    ) -> None:
        """``pseudo=None`` disables low-degree pruning in ``rescan`` mode.

        ``space`` is internal plumbing: derived stores (``extend`` and
        friends) hand their own aligned label space down so the
        database-level lookup-and-validate happens once per mining
        call, not once per prefix.
        """
        if strategy not in _STRATEGIES:
            raise MiningError(f"unknown embedding strategy {strategy!r}; use one of {_STRATEGIES}")
        self.database = database
        self.pseudo = pseudo
        self.strategy = strategy
        self.size = size
        self.by_transaction = by_transaction
        # Aligned label space (unique-label databases only): masks live
        # in the database-global label bit order instead of per-graph
        # vertex bit order, enabling bit-sliced support counting.
        if space is _SPACE_LOOKUP:
            space = database.aligned_space()
        self.space = space
        # Tie cache: labels whose extension support equals the prefix
        # support, recorded by the last extension_plan() call.  A
        # Lemma 4.4 blocking label necessarily ties the support, so
        # the nonclosed scan restricts itself to this set when known.
        self._ties: Optional[Union[Set[Label], int]] = None

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
        per-mine-call scratch dict: it caches the database's kernel
        spaces across the call's roots, and the slab kernel shares its
        level-batched forest through it.
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
                from .slab_store import SlabEmbeddingStore

                return SlabEmbeddingStore.for_root(
                    database, pseudo, label, slab_space, context
                )
        if context is not None and "aligned_space" in context:
            space = context["aligned_space"]
        else:
            space = database.aligned_space()
            if context is not None:
                context["aligned_space"] = space
        by_transaction: Dict[int, List[EmbeddingRecord]] = {}
        for tid, graph in enumerate(database):
            records: List[EmbeddingRecord] = []
            for vertex in sorted(graph.vertices_with_label(label)):
                if strategy == CACHED:
                    if space is not None:
                        cached: int = space.views[tid].neighbor_masks[vertex]
                    else:
                        cached = graph.neighbor_mask(vertex)
                    records.append(((vertex,), cached))
                else:
                    records.append(((vertex,), None))
            if records:
                by_transaction[tid] = records
        return cls(database, pseudo, strategy, 1, by_transaction, space)

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
        mask = self._candidates_mask(tid, record)
        if self.space is not None:
            return set(self.space.views[tid].vertices_of(mask))
        return set(self.database[tid].vertices_from_mask(mask))

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
        space = self.space
        if space is not None:
            view = space.views[tid]
            if self.pseudo is not None:
                mask = view.usable_mask_at(self.pseudo.index(tid), self.size + 1)
            else:
                mask = view.present_mask
            neighbor_masks = view.neighbor_masks
        else:
            graph = self.database[tid]
            index = graph.bit_index()
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
        """
        if self.space is not None:
            return self._extension_supports_aligned()
        return self._extension_supports_mask()

    def _extension_slices(self) -> List[int]:
        """Carry-save counter of extension labels across transactions.

        Aligned space only: per-transaction candidate unions all live
        in the same label bit space, so "in how many transactions does
        label β extend C" is binary addition of the union masks.  The
        returned slice masks hold every label's count bit-sliced (bit
        β of ``slices[i]`` is bit ``i`` of β's count), built with a
        couple of word-parallel operations per transaction — no
        per-label work happens here at all.
        """
        slices: List[int] = []
        if self.strategy == CACHED:
            for records in self.by_transaction.values():
                if len(records) == 1:
                    carry = records[0][1]
                else:
                    carry = 0
                    for _, cached in records:
                        carry |= cached  # type: ignore[operator]
                for i in range(len(slices)):
                    if not carry:
                        break
                    slice_i = slices[i]
                    slices[i] = slice_i ^ carry
                    carry &= slice_i
                if carry:
                    slices.append(carry)
            return slices
        for tid, records in self.by_transaction.items():
            carry = 0
            for record in records:
                carry |= self._candidates_mask(tid, record)
            for i in range(len(slices)):
                if not carry:
                    break
                slice_i = slices[i]
                slices[i] = slice_i ^ carry
                carry &= slice_i
            if carry:
                slices.append(carry)
        return slices

    def _extension_supports_aligned(self) -> Dict[Label, int]:
        """Aligned-space kernel: read the supports off the slice counter."""
        slices = self._extension_slices()
        supports: Dict[Label, int] = {}
        total = 0
        for slice_i in slices:
            total |= slice_i
        labels = self.space.labels  # type: ignore[union-attr]
        n_slices = len(slices)
        while total:
            top = total.bit_length() - 1
            bit = 1 << top
            total ^= bit
            count = 0
            for i in range(n_slices):
                if slices[i] & bit:
                    count += 1 << i
            supports[labels[top]] = count
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

        Semantically equivalent to post-processing
        :meth:`extension_supports`, which is what the per-graph mask
        path does; the aligned path instead answers the threshold
        and tie questions word-parallel on the bit-sliced counter and
        only ever extracts the (few) frequent labels.
        """
        if self.space is not None:
            return self._extension_plan_aligned(abs_sup)
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

    def _extension_plan_aligned(
        self, abs_sup: int
    ) -> Tuple[List[Tuple[Label, int]], int, bool]:
        """Word-parallel threshold/tie tests on the slice counter.

        ``count == prefix support`` is an AND chain matching the
        support's binary digits; ``count >= abs_sup`` is the standard
        bit-sliced subtraction borrow (a label is frequent iff
        ``count - abs_sup`` produces no borrow).  Only frequent labels
        — the ones the miner recurses into anyway — are extracted.
        """
        slices = self._extension_slices()
        total = 0
        for slice_i in slices:
            total |= slice_i
        if not total:
            return [], 0, False
        n_slices = len(slices)

        prefix_support = self.support
        equal = 0
        if not prefix_support >> n_slices:  # else no count can reach it
            equal = total
            for i in range(n_slices):
                if (prefix_support >> i) & 1:
                    equal &= slices[i]
                else:
                    equal &= ~slices[i]
                if not equal:
                    break
        self._ties = equal
        blocking = bool(equal)

        if abs_sup >> n_slices:  # threshold above any representable count
            frequent_mask = 0
        else:
            borrow = 0
            for i in range(n_slices):
                slice_i = slices[i]
                if (abs_sup >> i) & 1:
                    borrow = ~slice_i | (borrow & slice_i)
                else:
                    borrow &= ~slice_i
            frequent_mask = total & ~borrow
        infrequent = popcount(total) - popcount(frequent_mask)

        labels = self.space.labels  # type: ignore[union-attr]
        frequent: List[Tuple[Label, int]] = []
        scan = frequent_mask
        while scan:
            low = scan & -scan
            scan ^= low
            count = 0
            for i in range(n_slices):
                if slices[i] & low:
                    count += 1 << i
            frequent.append((labels[low.bit_length() - 1], count))
        return frequent, infrequent, blocking

    def _extension_supports_mask(self) -> Dict[Label, int]:
        """Per-graph masks: union the candidate masks, then read labels off.

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
        if self.space is not None:
            return self._nonclosed_extension_label_aligned(last_label)
        common: Optional[Set[Label]] = self._ties  # type: ignore[assignment]
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

    def _nonclosed_extension_label_aligned(self, last_label: Label) -> Optional[Label]:
        """Aligned-space Lemma 4.4: the label intersection is one AND.

        Qualifying old-label sets come back as masks in the global
        label space, so intersecting across embeddings and picking the
        smallest surviving label (= lowest set bit, since bit order is
        label order) never touches a Python set.
        """
        space = self.space
        views = space.views  # type: ignore[union-attr]
        # Only labels sorting below the last label can block, and any
        # blocking label must tie the prefix support (when known from a
        # preceding extension_plan) — both restrictions are loop
        # invariants, so the running intersection starts from their
        # conjunction and the hot path usually exits here.
        common: int = space.mask_below(last_label)  # type: ignore[union-attr]
        ties = self._ties
        if ties is not None:
            common &= ties  # type: ignore[operator]
        if not common:
            return None
        cached_mode = self.strategy == CACHED
        for tid, records in self.by_transaction.items():
            view = views[tid]
            vertex_by_bit = view.vertex_by_bit
            neighbor_masks = view.neighbor_masks
            for record in records:
                candidates = (
                    record[1] if cached_mode else self._candidates_mask(tid, record)
                )
                scan = candidates & common  # type: ignore[operator]
                qualifying = 0
                while scan:
                    top = scan.bit_length() - 1
                    bit = 1 << top
                    scan ^= bit
                    if (candidates ^ bit) & ~neighbor_masks[vertex_by_bit[top]] == 0:  # type: ignore[operator]
                        qualifying |= bit
                common &= qualifying
                if not common:
                    return None
        if common:
            return space.labels[lowest_bit(common)]  # type: ignore[union-attr]
        return None

    def _child(
        self,
        by_transaction: Dict[int, List[EmbeddingRecord]],
        reuse: Optional["EmbeddingStore"],
    ) -> "EmbeddingStore":
        """Wrap a child's records, recycling ``reuse`` when possible.

        The engine's free list hands back stores whose subtree has
        finished; refilling one in place skips the allocation and the
        constructor's validation (sound: within one mine call the
        database, strategy, and aligned space never change).
        A ``reuse`` of a different concrete type is ignored.
        """
        if reuse is not None and type(reuse) is EmbeddingStore:
            reuse.database = self.database
            reuse.pseudo = self.pseudo
            reuse.strategy = self.strategy
            reuse.space = self.space
            reuse.size = self.size + 1
            reuse.by_transaction = by_transaction
            reuse._ties = None
            return reuse
        return EmbeddingStore(
            self.database,
            self.pseudo,
            self.strategy,
            self.size + 1,
            by_transaction,
            self.space,
        )

    def extend(
        self,
        label: Label,
        last_label: Optional[Label],
        reuse: Optional["EmbeddingStore"] = None,
    ) -> "EmbeddingStore":
        """Embeddings of ``C ◇ label``.

        ``last_label`` is the last label of the current prefix (``None``
        for the empty prefix).  When the extension repeats the last
        label, only vertices with ids above the previous same-label
        vertex are taken, so each vertex set appears exactly once.
        ``reuse`` optionally recycles a retired store object in place
        of a fresh allocation (see :meth:`_child`).
        """
        if self.space is not None:
            return self._extend_aligned(label, reuse)
        return self._extend_mask(label, last_label, reuse)

    def _extend_aligned(
        self, label: Label, reuse: Optional["EmbeddingStore"] = None
    ) -> "EmbeddingStore":
        """Aligned-space ``extend``: the label filter is a 1-bit AND.

        With unique per-vertex labels a label names at most one vertex
        per transaction, so "candidates carrying β" is ``candidates &
        (1 << bit(β))`` and the same-label ascending-id discipline is
        vacuous: a repeated label would need two distinct vertices with
        the same label in one transaction, which cannot exist here (the
        label's one vertex is already an embedding member, and members
        are absent from their own candidate masks).
        """
        space = self.space
        bit = space.bit_of.get(label)  # type: ignore[union-attr]
        by_transaction: Dict[int, List[EmbeddingRecord]] = {}
        if bit is not None:
            label_mask = 1 << bit
            views = space.views  # type: ignore[union-attr]
            cached_mode = self.strategy == CACHED
            for tid, records in self.by_transaction.items():
                view = views[tid]
                vertex = view.vertex_by_bit.get(bit)
                if vertex is None:
                    continue
                extended: List[EmbeddingRecord] = []
                if cached_mode:
                    neighbor_mask = view.neighbor_masks[vertex]
                    for vertices, cached in records:
                        if cached & label_mask:  # type: ignore[operator]
                            extended.append((vertices + (vertex,), cached & neighbor_mask))  # type: ignore[operator]
                else:
                    for record in records:
                        if self._candidates_mask(tid, record) & label_mask:
                            extended.append((record[0] + (vertex,), None))
                if extended:
                    by_transaction[tid] = extended
        return self._child(by_transaction, reuse)

    def _extend_mask(
        self,
        label: Label,
        last_label: Optional[Label],
        reuse: Optional["EmbeddingStore"] = None,
    ) -> "EmbeddingStore":
        """Per-graph-mask ``extend``: one AND per label filter and per growth.

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
        return self._child(by_transaction, reuse)

    def extend_unordered(self, label: Label) -> "EmbeddingStore":
        """Extension without the canonical ordering discipline.

        Used only when structural redundancy pruning is disabled (the
        paper's "simple way" baseline): any extension label is allowed,
        so the per-label ascending-id trick no longer applies and
        duplicate vertex sets are collapsed explicitly per transaction.
        """
        space = self.space
        by_transaction: Dict[int, List[EmbeddingRecord]] = {}
        for tid, records in self.by_transaction.items():
            graph = self.database[tid]
            if space is not None:
                view = space.views[tid]
                neighbor_masks = view.neighbor_masks
                vertices_of = view.vertices_of
            else:
                neighbor_masks = graph.bit_index().neighbor_masks
                vertices_of = graph.vertices_from_mask
            seen: Set[frozenset] = set()
            extended: List[EmbeddingRecord] = []
            for record in records:
                vertices, cached = record
                for vertex in vertices_of(self._candidates_mask(tid, record)):
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
            self.space,
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
            self.space,
        )

    def __repr__(self) -> str:
        return (
            f"<EmbeddingStore size={self.size} support={self.support} "
            f"embeddings={self.embedding_count} strategy={self.strategy}>"
        )


def warm_kernel_indexes(database: GraphDatabase, kernel: str = BITSET) -> None:
    """Force-build the lazy per-graph indexes the given kernel reads.

    The mask layer (:meth:`Graph.bit_index`, the aligned
    :meth:`GraphDatabase.aligned_space`, the slab
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
    if database.aligned_space() is None:
        for graph in database:
            graph.bit_index()
