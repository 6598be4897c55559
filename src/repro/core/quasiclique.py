"""Closed quasi-clique mining — the paper's future-work extension (§6).

The paper closes by proposing to extend CLAN from exact cliques to
*quasi-cliques*.  This module implements that direction with the
standard degree-based definition (as in Pei et al., ICDE'05): a vertex
set S of size n in a transaction is a **γ-quasi-clique** if every
vertex of S is adjacent to at least ``ceil(γ · (n − 1))`` other
vertices of S.  With γ = 1.0 this is exactly a clique and the results
coincide with CLAN's.

Patterns remain label multisets: a transaction supports pattern P if it
contains a γ-quasi-clique whose sorted labels equal P.  Unlike cliques,

* the canonical-form shortcut no longer certifies isomorphism of the
  *topology* — only of the label bag — which matches the paper's
  pattern definition (topology class + labels) for the clique case;
* downward closure fails for the quasi-clique *property* (subsets of
  quasi-cliques need not be quasi-cliques), so the search cannot grow
  quasi-cliques directly.  What **is** hereditary is *feasibility*: "S
  can still reach some quasi-clique size ≤ max_size" survives removing
  any single vertex, because shrinking S only loosens every member's
  degree deficit.  :class:`QuasiEmbeddingStore` therefore stores every
  canonical embedding whose vertex set is feasible, which restores the
  exact anti-monotone support recursion the engine's DFS needs;
* Lemma 4.3/4.4 closure reasoning is *relaxed*, not inherited:
  pattern-level closedness is no longer decidable per prefix, so the
  closed filter runs globally in
  :func:`repro.core.engine.finalize_patterns` (sound at every merge
  site because the filter composes over any partition of the emitted
  patterns — the ⊂-maximal killer of a killed pattern is itself
  unkilled, so it survives every piecewise filter and still kills at
  the final one).  In place of the Lemma 4.4 subtree cut,
  :meth:`QuasiTaskStrategy.prune_subtree` applies a **c-closure bound**
  (Husić & Roughgarden): two non-adjacent members u, v of a final
  γ-quasi-clique of size n must share ``2·ceil(γ(n−1)) − n + 2`` common
  neighbours, so an embedding whose worst non-adjacent pair falls below
  that bound for every reachable size can never grow into a result.

``task="quasi"`` runs on the shared :class:`~repro.core.engine
.MiningEngine` stack — the int-mask kernel, the work-stealing executor,
sessions, and the mining cache — via :class:`QuasiTaskStrategy`; see
:func:`repro.core.api.mine`.  γ must be ≥ 0.5 (which guarantees
connectivity and diameter ≤ 2, the usual tractable regime) and
``max_size`` is mandatory: every feasibility and c-closure bound is
anchored to a finite size ceiling.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..exceptions import MiningError
from ..graphdb.bitset import popcount
from ..graphdb.database import GraphDatabase
from ..graphdb.graph import Graph
from .canonical import CanonicalForm, Label
from .engine import MiningEngine, TaskStrategy, finalize_patterns
from .pattern import CliquePattern
from .results import MiningResult


def required_degree(gamma: float, size: int) -> int:
    """Minimum in-set degree for a member of a γ-quasi-clique of ``size``."""
    if size <= 1:
        return 0
    return ceil(gamma * (size - 1) - 1e-9)


def is_quasi_clique(graph: Graph, vertices: FrozenSet[int], gamma: float) -> bool:
    """Check the γ-quasi-clique condition for a vertex set."""
    need = required_degree(gamma, len(vertices))
    return all(len(graph.neighbors(v) & vertices) >= need for v in vertices)


def _feasible(
    graph: Graph,
    members: Tuple[int, ...],
    max_size: int,
    gamma: float,
) -> bool:
    """Optimistic bound: can ``members`` still grow into a quasi-clique?

    For some final size n ≤ max_size, every current member v would need
    ``required_degree(gamma, n)`` in-set neighbours; at best v gains all
    ``n - |S|`` future vertices as neighbours.
    """
    member_set = set(members)
    degrees = [len(graph.neighbors(v) & member_set) for v in members]
    size = len(members)
    for n in range(size, max_size + 1):
        need = required_degree(gamma, n)
        slack = n - size
        if all(d + slack >= need for d in degrees):
            return True
    return False


def quasi_cliques_in_graph(
    graph: Graph,
    gamma: float,
    min_size: int,
    max_size: int,
) -> Iterator[FrozenSet[int]]:
    """Enumerate all γ-quasi-cliques of a single transaction, each once.

    Vertex sets are generated in ascending-id DFS order.  γ ≥ 0.5 keeps
    every quasi-clique connected (each vertex reaches more than half of
    the others), so candidates can be restricted to the neighbourhood
    of the current set.  This is the reference enumerator behind the
    brute-force oracle (:func:`repro.baselines.bruteforce
    .bruteforce_quasi_cliques`); the engine path uses
    :class:`QuasiEmbeddingStore` instead.
    """
    if not 0.5 <= gamma <= 1.0:
        raise MiningError(f"gamma must be in [0.5, 1.0], got {gamma}")
    if max_size < min_size or min_size < 1:
        raise MiningError(f"invalid size window [{min_size}, {max_size}]")

    order = sorted(graph.vertices())

    def grow(
        members: Tuple[int, ...], member_set: Set[int], universe: List[int]
    ) -> Iterator[FrozenSet[int]]:
        size = len(members)
        if size >= min_size:
            frozen = frozenset(member_set)
            if is_quasi_clique(graph, frozen, gamma):
                yield frozen
        if size >= max_size:
            return
        last = members[-1]
        for vertex in universe:
            if vertex <= last or vertex in member_set:
                continue
            grown = members + (vertex,)
            if _feasible(graph, grown, max_size, gamma):
                yield from grow(grown, member_set | {vertex}, universe)

    for start in order:
        if min_size == 1:
            yield frozenset((start,))
        if max_size >= 2:
            # γ ≥ 0.5 bounds the quasi-clique's internal diameter by 2,
            # so every member lies within two hops of the (minimum-id)
            # start vertex in the whole graph as well.  Prefixes are
            # generated in ascending id order, which deduplicates sets.
            ball = set(graph.neighbors(start))
            for neighbor in list(ball):
                ball |= graph.neighbors(neighbor)
            ball.discard(start)
            universe = sorted(v for v in ball if v > start)
            yield from grow((start,), {start}, universe)


# ----------------------------------------------------------------------
# Feasibility / c-closure threshold precomputation
# ----------------------------------------------------------------------
def _degree_needs(gamma: float, max_size: int) -> Tuple[int, ...]:
    """``needs[n]`` = in-set degree a member of a size-n result needs."""
    return tuple(required_degree(gamma, n) for n in range(max_size + 1))


def _feasibility_thresholds(needs: Tuple[int, ...], max_size: int) -> Tuple[int, ...]:
    """``t[s]`` such that a size-s set is feasible iff min degree ≥ t[s].

    Feasible means ∃n ∈ [s, max_size] with every member's degree + the
    (n − s) optimistic future neighbours ≥ ``needs[n]``; rearranged,
    min-degree ≥ s + min over n ≥ s of (needs[n] − n), a suffix minimum.
    ``t[1] ≤ 0``, so singletons are always feasible.
    """
    thresholds = [0] * (max_size + 1)
    running: Optional[int] = None
    for n in range(max_size, 0, -1):
        deficit = needs[n] - n
        running = deficit if running is None else min(running, deficit)
        thresholds[n] = n + running
    return tuple(thresholds)


def _cc_thresholds(
    needs: Tuple[int, ...], min_size: int, max_size: int
) -> Tuple[int, ...]:
    """``cc_t[s]``: the c-closure bound a size-s embedding must meet.

    If non-adjacent u, v both sit in a final γ-quasi-clique S of size n,
    then |N(u)∩S|, |N(v)∩S| ≥ needs[n] inside S∖{u, v} (|·| = n − 2), so
    by inclusion–exclusion u and v share ≥ 2·needs[n] − n + 2 common
    neighbours in the whole transaction.  A size-s embedding can only
    end up inside results of size n ∈ [max(min_size, s), max_size], so
    its worst non-adjacent pair must meet the minimum of the bound over
    that range — a suffix minimum.  The range shrinks as s grows and
    the pair's common-neighbour count never changes, so *failing* the
    bound is hereditary: pruning on it cuts no future result.
    """
    suffix = [0] * (max_size + 2)
    running: Optional[int] = None
    for n in range(max_size, 0, -1):
        bound = 2 * needs[n] - n + 2
        running = bound if running is None else min(running, bound)
        suffix[n] = running
    lo = min(max(min_size, 1), max_size)
    return tuple(
        suffix[max(lo, s)] if s else 0 for s in range(max_size + 1)
    )


# ----------------------------------------------------------------------
# The feasibility-pruned embedding store
# ----------------------------------------------------------------------
class QuasiEmbeddingStore:
    """Per-prefix embeddings for the quasi task, feasibility-pruned.

    Drop-in for the engine-facing surface of
    :class:`~repro.core.embeddings.EmbeddingStore` (``support``,
    ``embedding_count``, ``transactions``, ``extension_plan``,
    ``extend``), with one semantic shift: a *record* is any canonical
    embedding of the prefix's label multiset whose vertex set is
    **feasible** — it can still reach some γ-quasi-clique size within
    ``max_size`` — rather than a clique embedding.  Feasibility is
    hereditary under vertex removal, so growing records one vertex at a
    time (same-label groups in ascending vertex id, the canonical
    discipline) enumerates exactly the feasible canonical embeddings,
    each once, and the engine's extension-support prediction stays
    exact: a transaction has a feasible child *set* iff some record
    here extends to it, floored or not.

    Records are ``(vertices, members, degrees, min_cc)``: the canonical
    vertex tuple, the member set (a bitmask over
    :meth:`Graph.bit_index`), each member's in-set degree, and the
    smallest common-neighbour
    count over the set's non-adjacent pairs (``None`` when none exist —
    cliques).  ``min_cc`` drives the c-closure prune
    (:meth:`cc_viable_support`); per-pair counts are memoized in a
    ``(tid, u, v)``-keyed dict shared down the whole extend chain.

    Unlike the clique store there is no slab layout and no rescan
    mode: candidates are recomputed from the per-transaction index and
    cached per store instance, in ascending vertex id.  Quasi-clique
    degree bookkeeping is per-embedding, not per-label, so every kernel
    setting runs this int-mask store.
    """

    __slots__ = (
        "database",
        "gamma",
        "min_size",
        "max_size",
        "size",
        "by_transaction",
        "_needs",
        "_thresholds",
        "_cc_t",
        "_cc_memo",
        "_candidate_cache",
        "_plan",
        "_cc_viable",
        "_quasi",
    )

    def __init__(
        self,
        database: GraphDatabase,
        gamma: float,
        min_size: int,
        max_size: int,
        size: int,
        by_transaction: Dict[int, list],
        needs: Tuple[int, ...],
        thresholds: Tuple[int, ...],
        cc_t: Tuple[int, ...],
        cc_memo: Dict[Tuple[int, int, int], int],
    ) -> None:
        self.database = database
        self.gamma = gamma
        self.min_size = min_size
        self.max_size = max_size
        self.size = size
        self.by_transaction = by_transaction
        self._needs = needs
        self._thresholds = thresholds
        self._cc_t = cc_t
        self._cc_memo = cc_memo
        self._candidate_cache: Dict[int, List[List[Tuple[int, Label]]]] = {}
        self._plan: Optional[Tuple[int, Tuple[list, int, bool]]] = None
        self._cc_viable: Optional[int] = None
        self._quasi: Optional[Tuple[Tuple[int, ...], Dict[int, Tuple[int, ...]]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_label(
        cls,
        database: GraphDatabase,
        label: Label,
        *,
        gamma: float,
        min_size: int,
        max_size: int,
    ) -> "QuasiEmbeddingStore":
        """Singleton embeddings of one root label (always feasible)."""
        needs = _degree_needs(gamma, max_size)
        thresholds = _feasibility_thresholds(needs, max_size)
        cc_t = _cc_thresholds(needs, min_size, max_size)
        by_transaction: Dict[int, list] = {}
        for tid, graph in enumerate(database):
            records = []
            index = graph.bit_index()
            mask = index.label_masks.get(label, 0)
            order = index.order
            while mask:
                low = mask & -mask
                mask ^= low
                bit = low.bit_length() - 1
                records.append(((order[bit],), low, (0,), None))
            if records:
                by_transaction[tid] = records
        return cls(
            database,
            gamma,
            min_size,
            max_size,
            1,
            by_transaction,
            needs,
            thresholds,
            cc_t,
            {},
        )

    # ------------------------------------------------------------------
    # Engine-facing surface
    # ------------------------------------------------------------------
    @property
    def support(self) -> int:
        """Transactions holding at least one feasible embedding."""
        return len(self.by_transaction)

    @property
    def embedding_count(self) -> int:
        return sum(len(records) for records in self.by_transaction.values())

    def transactions(self) -> Tuple[int, ...]:
        return tuple(sorted(self.by_transaction))

    def extension_plan(self, abs_sup: int) -> Tuple[list, int, bool]:
        """``(frequent, n_infrequent, blocking)`` — see the clique store.

        Supports count transactions where some record has a feasible
        candidate of the label, unfloored — exact for the floored child
        too, because per-transaction existence is a property of vertex
        *sets* and every feasible child set decomposes canonically into
        (stored parent, above-floor candidate).  ``blocking`` is always
        ``False``: Lemma 4.3 per-prefix closure does not transfer to
        quasi patterns, whose closed filter runs globally in
        :func:`~repro.core.engine.finalize_patterns`.
        """
        if self._plan is not None and self._plan[0] == abs_sup:
            return self._plan[1]
        supports: Dict[Label, int] = {}
        for tid in self.by_transaction:
            seen: Set[Label] = set()
            for row in self._tid_candidates(tid):
                for _vertex, label in row:
                    seen.add(label)
            for label in seen:
                supports[label] = supports.get(label, 0) + 1
        frequent: List[Tuple[Label, int]] = []
        infrequent = 0
        for label in sorted(supports):
            count = supports[label]
            if count >= abs_sup:
                frequent.append((label, count))
            else:
                infrequent += 1
        plan = (frequent, infrequent, False)
        self._plan = (abs_sup, plan)
        return plan

    def nonclosed_extension_label(self, last_label: Label) -> Optional[Label]:
        raise MiningError(
            "Lemma 4.4 non-closed prefix pruning does not apply to quasi "
            "stores; QuasiTaskStrategy.prune_subtree uses the c-closure "
            "bound instead"
        )

    def extend(self, label: Label, last_label: Optional[Label]) -> "QuasiEmbeddingStore":
        """Feasible embeddings of ``C ◇ label``.

        Mirrors the clique store's canonical discipline: repeating the
        last label only accepts vertices above the previous same-label
        vertex, so each feasible vertex set appears exactly once.
        """
        same_label_tail = last_label is not None and label == last_label
        by_transaction: Dict[int, list] = {}
        for tid, records in self.by_transaction.items():
            index = self.database[tid].bit_index()
            bit_of = index.bit
            neighbor_masks = index.neighbor_masks
            rows = self._tid_candidates(tid)
            extended = []
            for record, row in zip(records, rows):
                vertices, members, degrees, min_cc = record
                floor = vertices[-1] if same_label_tail else None
                for vertex, candidate_label in row:
                    if candidate_label != label:
                        continue
                    if floor is not None and vertex <= floor:
                        continue
                    vmask = neighbor_masks[vertex]
                    new_degrees = tuple(
                        d + ((vmask >> bit_of[v]) & 1)
                        for v, d in zip(vertices, degrees)
                    ) + (popcount(vmask & members),)
                    new_members = members | (1 << bit_of[vertex])
                    non_adjacent = [
                        v for v in vertices if not (vmask >> bit_of[v]) & 1
                    ]
                    new_min_cc = min_cc
                    for v in non_adjacent:
                        cc = self._common_neighbors(tid, vertex, v)
                        if new_min_cc is None or cc < new_min_cc:
                            new_min_cc = cc
                    extended.append(
                        (vertices + (vertex,), new_members, new_degrees, new_min_cc)
                    )
            if extended:
                by_transaction[tid] = extended
        return QuasiEmbeddingStore(
            self.database,
            self.gamma,
            self.min_size,
            self.max_size,
            self.size + 1,
            by_transaction,
            self._needs,
            self._thresholds,
            self._cc_t,
            self._cc_memo,
        )

    def extend_unordered(self, label: Label) -> "QuasiEmbeddingStore":
        raise MiningError(
            "task='quasi' requires structural redundancy pruning; the "
            "feasibility store only enumerates canonical embeddings"
        )

    # ------------------------------------------------------------------
    # Quasi-specific queries
    # ------------------------------------------------------------------
    def quasi_transactions(self) -> Tuple[int, ...]:
        """Transactions where some embedding *is* a γ-quasi-clique now."""
        return self._qualify()[0]

    def quasi_witnesses(self) -> Dict[int, Tuple[int, ...]]:
        """Per supporting transaction, the lexicographically smallest
        sorted vertex tuple among its qualifying embeddings."""
        return dict(self._qualify()[1])

    def cc_viable_support(self) -> int:
        """Transactions with an embedding surviving the c-closure bound.

        An embedding is viable when it has no non-adjacent pair, or its
        worst pair still shares ``cc_t[size]`` common neighbours (see
        :func:`_cc_thresholds`).  Non-viability is hereditary, and any
        embedding qualifying for emission is trivially viable at its
        own size, so a prefix whose viable-transaction count falls
        below ``abs_sup`` cannot emit — nor can any descendant.
        """
        if self._cc_viable is None:
            threshold = self._cc_t[self.size]
            count = 0
            for records in self.by_transaction.values():
                for _vertices, _members, _degrees, min_cc in records:
                    if min_cc is None or min_cc >= threshold:
                        count += 1
                        break
            self._cc_viable = count
        return self._cc_viable

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _qualify(self) -> Tuple[Tuple[int, ...], Dict[int, Tuple[int, ...]]]:
        if self._quasi is None:
            need = self._needs[self.size]
            tids: List[int] = []
            witnesses: Dict[int, Tuple[int, ...]] = {}
            for tid in sorted(self.by_transaction):
                best: Optional[Tuple[int, ...]] = None
                for vertices, _members, degrees, _min_cc in self.by_transaction[tid]:
                    if min(degrees) >= need:
                        key = tuple(sorted(vertices))
                        if best is None or key < best:
                            best = key
                if best is not None:
                    tids.append(tid)
                    witnesses[tid] = best
            self._quasi = (tuple(tids), witnesses)
        return self._quasi

    def _tid_candidates(self, tid: int) -> List[List[Tuple[int, Label]]]:
        """Per record, the feasible extension vertices, ascending id.

        A candidate is any graph vertex outside the member set whose
        addition keeps the set feasible (min grown degree ≥
        ``t[size+1]``) — *all* vertices, not a neighbourhood ball:
        feasible sets may be disconnected below γ's final guarantee,
        and the support-prediction invariant needs the full set.
        """
        cached = self._candidate_cache.get(tid)
        if cached is not None:
            return cached
        records = self.by_transaction[tid]
        next_size = self.size + 1
        if next_size > self.max_size:
            rows: List[List[Tuple[int, Label]]] = [[] for _ in records]
            self._candidate_cache[tid] = rows
            return rows
        threshold = self._thresholds[next_size]
        index = self.database[tid].bit_index()
        order = index.order
        bit_of = index.bit
        neighbor_masks = index.neighbor_masks
        labels_by_bit = index.labels_by_bit
        rows = []
        for vertices, members, degrees, _min_cc in records:
            row: List[Tuple[int, Label]] = []
            for bit, vertex in enumerate(order):
                if (members >> bit) & 1:
                    continue
                vmask = neighbor_masks[vertex]
                if popcount(vmask & members) < threshold:
                    continue
                if all(
                    d + ((vmask >> bit_of[v]) & 1) >= threshold
                    for v, d in zip(vertices, degrees)
                ):
                    row.append((vertex, labels_by_bit[bit]))
            rows.append(row)
        self._candidate_cache[tid] = rows
        return rows

    def _common_neighbors(self, tid: int, u: int, v: int) -> int:
        key = (tid, u, v) if u < v else (tid, v, u)
        memo = self._cc_memo
        cc = memo.get(key)
        if cc is None:
            masks = self.database[tid].bit_index().neighbor_masks
            cc = popcount(masks[u] & masks[v])
            memo[key] = cc
        return cc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QuasiEmbeddingStore size={self.size} support={self.support} "
            f"embeddings={self.embedding_count} gamma={self.gamma}>"
        )


# ----------------------------------------------------------------------
# The task strategy
# ----------------------------------------------------------------------
class QuasiTaskStrategy(TaskStrategy):
    """γ-quasi-clique mining as an ordinary engine task.

    * **root_store** — builds a :class:`QuasiEmbeddingStore` (the
      feasibility relaxation of the clique store).  Core-number
      pruning and the embedding-strategy knob are clique-specific and
      ignored; ``max_size`` is mandatory.
    * **prune_subtree** — replaces the (unsound-for-quasi) Lemma 4.4
      cut with the c-closure bound: prune when fewer than ``abs_sup``
      transactions keep a cc-viable embedding.  Gated on
      ``nonclosed_prefix_pruning`` like the cut it replaces.
    * **visit** — a prefix emits when enough transactions hold an
      embedding that *is* a γ-quasi-clique right now (the store's
      feasibility support only drives the recursion).
    * **finalize** — the closed filter is global for quasi (label-bag
      anti-monotonicity fails), applied here per ``mine`` call and
      again by :func:`~repro.core.engine.finalize_patterns` at every
      merge site; the filter composes over any partition of the
      emissions, so all execution paths stay byte-identical.
    """

    task = "quasi"
    splittable = True
    supports_sweep = False

    def __init__(self, gamma: float, closed: bool = True) -> None:
        if not 0.5 <= gamma <= 1.0:
            raise MiningError(f"gamma must be in [0.5, 1.0], got {gamma}")
        self.gamma = gamma
        self.closed = closed

    def root_store(self, engine: "MiningEngine", pseudo, label: Label, context=None):
        config = engine.config
        if config.max_size is None:
            raise MiningError(
                "task='quasi' requires max_size (the γ-quasi-clique "
                "feasibility and c-closure bounds need a finite size ceiling)"
            )
        return QuasiEmbeddingStore.for_label(
            engine.database,
            label,
            gamma=self.gamma,
            min_size=config.min_size,
            max_size=config.max_size,
        )

    def prune_subtree(self, engine, labels, store, abs_sup):
        if not engine.config.nonclosed_prefix_pruning:
            return None
        if store.cc_viable_support() < abs_sup:
            return "quasi_cc_bound"
        return None

    def visit(self, engine, labels, store, frequent_extensions, blocked, result, stats, hooks):
        config = engine.config
        if len(labels) < config.min_size:
            return
        tids = store.quasi_transactions()
        if len(tids) < result.min_sup:
            stats.closure_rejections += 1
            return
        pattern = CliquePattern(
            form=CanonicalForm.wrap(labels),
            support=len(tids),
            transactions=tids,
            witnesses=store.quasi_witnesses() if config.collect_witnesses else {},
        )
        result.add(pattern)
        if config.closed_only:
            stats.closed_cliques += 1
        if hooks is not None:
            hooks.pattern(pattern)

    def finalize(self, result):
        final = MiningResult(
            min_sup=result.min_sup,
            closed_only=result.closed_only,
            statistics=result.statistics,
            elapsed_seconds=result.elapsed_seconds,
            truncated=result.truncated,
            completed_roots=result.completed_roots,
        )
        if self.closed:
            ordered = finalize_patterns("quasi", list(result))
        else:
            ordered = sorted(result, key=lambda p: p.form.labels)
        for pattern in ordered:
            final.add(pattern)
        return final
