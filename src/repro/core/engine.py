"""The task-parameterised enumeration engine (paper Algorithm 1).

:class:`MiningEngine` owns the depth-first canonical-form search that
used to live inside :class:`repro.core.miner.ClanMiner`, factored so
the *task* — which prefixes become output patterns, which subtrees can
be cut — is supplied by a small :class:`TaskStrategy` object instead of
being hard-wired.  Every mining task then rides the same machinery:

* the :class:`~repro.core.config.MinerConfig` kernels (``bitset`` or
  ``slab``) and embedding strategies,
* root partitioning and level-2 splitting
  (:meth:`MiningEngine.root_extension_plan`,
  ``first_extensions``/``include_root``) for the work-stealing
  executor,
* the :class:`~repro.core.session.SearchHooks` instrumentation points
  for events, budgets, and checkpoints,
* one :class:`~repro.core.statistics.MinerStatistics` object filled
  with the same counters regardless of task.

The five built-in strategies map to the paper like so:

========== ==========================================================
strategy    emission / pruning rule
========== ==========================================================
closed      emit iff no extension ties the support (Lemma 4.3);
            prune subtrees under a fully-connected smaller-label
            extension (Lemma 4.4)
frequent    emit every frequent prefix; same Lemma 4.4 prune
maximal     emit iff *no* extension label is frequent at all — the
            Lemma 4.3 scan with "ties the support" relaxed to
            "is frequent"; Lemma 4.4 stays sound because equal
            support to a frequent prefix implies frequency
topk        closed emission into a bounded heap, plus a
            branch-and-bound size cut: subtrees whose multiplicity
            bound cannot beat the current k-th best size are skipped
quasi       γ-quasi-clique relaxation over a feasibility-pruned
            embedding store (``root_store``); emit iff enough
            transactions hold a qualifying embedding, closed filter
            applied *globally* (Lemma 4.3 does not relax), and the
            Lemma 4.4 cut replaced by a c-closure bound on
            non-adjacent pairs (see :mod:`repro.core.quasiclique`)
========== ==========================================================

Determinism contract: a strategy may keep *per-root* state only
(reset in :meth:`TaskStrategy.begin_root`), so mining the same roots
serially, through the executor, or replayed from the cache composes to
byte-identical final results.  Global selections (top-k's "k best
overall") happen in :func:`finalize_patterns`, applied identically at
every merge site.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..exceptions import MiningError
from ..graphdb.core_index import PseudoDatabase
from ..graphdb.database import GraphDatabase
from .canonical import CanonicalForm, Label
from .config import MinerConfig
from .embeddings import RESCAN, SLAB, EmbeddingStore, warm_kernel_indexes
from .pattern import CliquePattern
from .results import MiningResult
from .statistics import MinerStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import SearchHooks

#: Tasks the engine can run directly.
ENGINE_TASKS = ("closed", "frequent", "maximal", "topk", "quasi")


# ----------------------------------------------------------------------
# Task strategies
# ----------------------------------------------------------------------
class TaskStrategy:
    """What to emit and what to cut, per mining task.

    The engine calls the hooks in a fixed order at every prefix (see
    :meth:`MiningEngine._search`); a strategy answers three questions:

    * :meth:`prune_subtree` — can the whole subtree be cut here (the
      Lemma 4.4 test by default; quasi substitutes a c-closure bound)?
    * :meth:`visit` — does this prefix become an output pattern?
    * :meth:`descend` — is the subtree below still worth exploring?

    The search loop is allocation-free and *lazy*: prefixes travel as
    bare canonical label tuples (``labels``), and no
    :class:`CanonicalForm`, :class:`CliquePattern`, witness map, or
    transaction tuple exists until a strategy decides to emit.  A
    ``visit`` override therefore receives ``labels`` (canonical by
    construction — wrap with :meth:`CanonicalForm.wrap` at emission
    time) and must treat ``store`` as borrowed for the duration of the
    call: a slab store pins its whole forest level, so a strategy may
    *read* the store (and copy out ``transactions()``/``witnesses()``,
    which return fresh objects) but must never retain a reference to
    it past the call.

    :meth:`root_store` lets a strategy substitute the embedding store
    the DFS grows (quasi swaps in the feasibility-pruned store);
    ``begin_root``/``end_root`` bracket each DFS root so strategies may
    keep per-root state; ``finalize`` runs once per ``mine`` call (once
    per root under :meth:`MiningEngine.mine_roots`).
    Class attributes declare how the stack above may treat the task:
    ``splittable`` gates level-2 root splitting (the executor),
    ``supports_sweep`` gates the cache's support-monotone sweep tier
    (sound only when the output is support-filterable, Lemma 4.3), and
    ``inline_rule`` names a built-in emission rule the search loop runs
    in place of :meth:`visit`.
    """

    task: str = "closed"
    #: May the executor split this task's roots into level-2 subtrees?
    splittable: bool = True
    #: May the cache derive this task's results from lower-support runs?
    supports_sweep: bool = False
    #: The emission rule the search loop inlines instead of calling
    #: :meth:`visit`: ``"closed"`` (no extension ties the support),
    #: ``"frequent"`` (every prefix), or ``"maximal"`` (no frequent
    #: extension).  Honoured only while :meth:`visit` is not overridden,
    #: so a subclass that overrides it gets the dispatching path.
    inline_rule: Optional[str] = None

    def begin_root(self, label: Label) -> None:
        """Reset any per-root state before a DFS root is mined."""

    def root_store(
        self, engine: "MiningEngine", pseudo, label: Label, context: Optional[dict] = None
    ) -> EmbeddingStore:
        """Build the embedding store one DFS root grows from.

        The default is the clique store; strategies whose definition
        relaxes the clique condition (quasi) substitute their own.
        Called with the engine's :class:`PseudoDatabase` (``None`` when
        low-degree pruning is off) at both mining and split-planning
        sites, so every execution path grows the same embeddings.
        ``context`` is the per-mine-call scratch dict: with the call's
        ``roots`` and ``abs_sup`` in it, the slab kernel hands each
        root its row of the call's level-batched forest.  The slab
        store grows canonical extensions only, so the slab kernel asks
        for it only under structural redundancy pruning; the pruning-off
        ablation runs on int masks throughout.
        """
        config = engine.config
        return EmbeddingStore.for_label(
            engine.database,
            pseudo,
            label,
            config.embedding_strategy,
            context,
            slab=config.kernel == SLAB and config.structural_redundancy_pruning,
        )

    def prune_subtree(
        self,
        engine: "MiningEngine",
        labels: Tuple[Label, ...],
        store: EmbeddingStore,
        abs_sup: int,
    ) -> Optional[str]:
        """Decide whether the whole subtree at ``labels`` can be cut.

        Returns a reason string (recorded in statistics and streamed in
        :class:`~repro.core.session.SubtreePruned` events) or ``None``
        to keep searching.  The default is the Lemma 4.4 non-closed
        prefix test, gated on ``config.nonclosed_prefix_pruning``; it
        runs after :meth:`EmbeddingStore.extension_plan` has seeded the
        store's tie cache.  A strategy override must only cut subtrees
        that provably contain no output pattern, and must be a pure
        function of the store — split tasks and cache replays re-run it.
        """
        if not engine.config.nonclosed_prefix_pruning:
            return None
        if store.nonclosed_extension_label(labels[-1]) is not None:
            return "nonclosed_prefix"
        return None

    def visit(
        self,
        engine: "MiningEngine",
        labels: Tuple[Label, ...],
        store: EmbeddingStore,
        frequent_extensions: Sequence[Tuple[Label, int]],
        blocked: bool,
        result: MiningResult,
        stats: MinerStatistics,
        hooks: Optional["SearchHooks"],
    ) -> None:
        """Decide whether this prefix is an output pattern.

        Not called for strategies that set :attr:`inline_rule`.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def descend(
        self,
        labels: Tuple[Label, ...],
        store: EmbeddingStore,
        frequent_extensions: Sequence[Tuple[Label, int]],
        stats: MinerStatistics,
    ) -> bool:
        """Whether to explore the subtree below this prefix."""
        return True

    def end_root(
        self,
        engine: "MiningEngine",
        result: MiningResult,
        stats: MinerStatistics,
        hooks: Optional["SearchHooks"],
    ) -> None:
        """Flush any per-root state after a DFS root finishes."""

    def finalize(self, result: MiningResult) -> MiningResult:
        """Post-process one ``mine`` call's (or root's) result; identity by default."""
        return result


class ClosedStrategy(TaskStrategy):
    """Closed cliques: Lemma 4.3 emission, Lemma 4.4 subtree cut."""

    task = "closed"
    supports_sweep = True
    inline_rule = "closed"


class FrequentStrategy(TaskStrategy):
    """All frequent cliques: every frequent prefix is output."""

    task = "frequent"
    supports_sweep = True
    inline_rule = "frequent"


class MaximalStrategy(TaskStrategy):
    """Maximal frequent cliques.

    C maximal ⇔ no extension label β has sup(C ◇ β) ≥ min_sup, with β
    ranging over *all* labels, old and new (a prefix-restricted check
    would wrongly call the running example's ``bcd`` maximal).  The
    Lemma 4.4 cut stays sound: a fully-connected same-support smaller
    extension means every clique in the subtree extends frequently.
    """

    task = "maximal"
    inline_rule = "maximal"


class TopKStrategy(TaskStrategy):
    """The k largest closed cliques, with a branch-and-bound size cut.

    Keeps one bounded heap *per DFS root* (reset in ``begin_root``,
    drained into the result in ``end_root``) so that serial, split,
    and cache-replayed runs of the same roots produce byte-identical
    per-root results; :func:`finalize_patterns` then selects the global
    k best under the total order ``(size, reversed labels)``.  The
    per-root heap threshold is at most the global one, so the bound cut
    is sound (merely more conservative than a global heap's).  Roots
    are never split (``splittable`` is False): the bound's state is
    root-wide, and a level-2 split would weaken it nondeterministically.
    """

    task = "topk"
    splittable = False

    def __init__(self, k: int) -> None:
        if k < 1:
            raise MiningError(f"top-k mining needs k >= 1, got {k}")
        self.k = k
        self._heap = _TopKHeap(k)

    def begin_root(self, label):
        self._heap = _TopKHeap(self.k)

    def visit(self, engine, labels, store, frequent_extensions, blocked, result, stats, hooks):
        config = engine.config
        if len(labels) < config.min_size:
            return
        if not blocked:
            pattern = CliquePattern(
                form=CanonicalForm.wrap(labels),
                support=store.support,
                transactions=store.transactions(),
                witnesses=store.witnesses() if config.collect_witnesses else {},
            )
            self._heap.offer(pattern)
            stats.closed_cliques += 1
            if hooks is not None:
                hooks.pattern(pattern)
        else:
            stats.closure_rejections += 1

    def descend(self, labels, store, frequent_extensions, stats):
        last_label = labels[-1] if labels else None
        valid = [
            label
            for label, _ in frequent_extensions
            if last_label is None or label >= last_label
        ]
        if not valid:
            return True  # the extension loop handles the small labels
        # Branch and bound: can this subtree still reach the heap?  The
        # cut is strict because size ties are broken by label order, so
        # a subtree that can only *match* the k-th size may still win.
        bound = len(labels) + store.multiplicity_bound(valid)
        if bound < self._heap.threshold():
            stats.redundancy_skips += 1  # bound cuts share this counter
            return False
        return True

    def end_root(self, engine, result, stats, hooks):
        for pattern in self._heap.patterns():
            result.add(pattern)

    def finalize(self, result):
        final = MiningResult(
            min_sup=result.min_sup,
            closed_only=result.closed_only,
            statistics=result.statistics,
            elapsed_seconds=result.elapsed_seconds,
            truncated=result.truncated,
            completed_roots=result.completed_roots,
        )
        for pattern in finalize_patterns("topk", list(result), k=self.k):
            final.add(pattern)
        return final


class _TopKHeap:
    """Keeps the k best (size, form) entries; min-heap on size."""

    def __init__(self, k: int) -> None:
        self.k = k
        self._heap: List[Tuple[int, Tuple[Label, ...], CliquePattern]] = []

    def offer(self, pattern: CliquePattern) -> None:
        # Tie-break on the reversed label tuple so the heap order is
        # total; the reversed-ness is arbitrary but deterministic.
        entry = (pattern.size, tuple(reversed(pattern.labels)), pattern)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
        elif entry[:2] > self._heap[0][:2]:
            heapq.heapreplace(self._heap, entry)

    def threshold(self) -> int:
        """Sizes at or below this cannot improve the heap once full."""
        if len(self._heap) < self.k:
            return 0
        return self._heap[0][0]

    def patterns(self) -> List[CliquePattern]:
        """The kept patterns, largest first (ties by the heap's order)."""
        return [
            entry[2]
            for entry in sorted(self._heap, key=lambda e: (e[0], e[1]), reverse=True)
        ]


# ----------------------------------------------------------------------
# Strategy / digest factories
# ----------------------------------------------------------------------
def make_strategy(
    task: str, k: Optional[int] = None, gamma: Optional[float] = None
) -> TaskStrategy:
    """Build the :class:`TaskStrategy` for an engine task."""
    if task == "closed":
        return ClosedStrategy()
    if task == "frequent":
        return FrequentStrategy()
    if task == "maximal":
        return MaximalStrategy()
    if task == "topk":
        if k is None:
            raise MiningError("task='topk' requires k=<number of patterns>")
        return TopKStrategy(k)
    if task == "quasi":
        if gamma is None:
            raise MiningError(
                "task='quasi' requires gamma=<density in [0.5, 1.0]>"
            )
        # Imported here: quasiclique builds on this module's TaskStrategy.
        from .quasiclique import QuasiTaskStrategy

        return QuasiTaskStrategy(gamma)
    raise MiningError(
        f"unknown engine task {task!r}; the engine runs {ENGINE_TASKS}"
    )


def engine_for_task(
    database: GraphDatabase,
    config: Optional[MinerConfig],
    task: str = "closed",
    k: Optional[int] = None,
    gamma: Optional[float] = None,
) -> "MiningEngine":
    """Build a prepared-on-demand engine for any engine task.

    ``config=None`` resolves to the task's natural default (closed-style
    search for everything but ``frequent``); a config whose
    ``closed_only`` contradicts the task is rejected — a frequent
    strategy under Lemma 4.4 pruning would silently skip subtrees.
    """
    strategy = make_strategy(task, k, gamma)
    if config is None:
        config = MinerConfig() if task != "frequent" else MinerConfig.all_frequent()
    elif config.closed_only != (task != "frequent"):
        raise MiningError(
            f"config.closed_only={config.closed_only} contradicts task {task!r}"
        )
    if task == "quasi" and config.max_size is None:
        raise MiningError(
            "task='quasi' requires max_size (the γ-quasi-clique feasibility "
            "and c-closure bounds need a finite size ceiling)"
        )
    return MiningEngine(database, config, strategy=strategy)


def engine_digest(
    task: str,
    config: MinerConfig,
    k: Optional[int] = None,
    gamma: Optional[float] = None,
) -> str:
    """The cache digest for a (task, config[, k/gamma]) combination.

    Closed/frequent keep the bare :meth:`MinerConfig.digest` (their
    task is already encoded in ``config.closed_only``, and persisted
    caches from earlier releases carry those digests); maximal, top-k,
    and quasi prefix the task (and its parameter) so their per-root
    entries can never collide with a closed run of the same config.
    """
    digest = config.digest()
    if task in ("closed", "frequent"):
        return digest
    if task == "maximal":
        return f"maximal:{digest}"
    if task == "topk":
        if k is None:
            raise MiningError("task='topk' requires k=<number of patterns>")
        return f"topk:{k}:{digest}"
    if task == "quasi":
        if gamma is None:
            raise MiningError(
                "task='quasi' requires gamma=<density in [0.5, 1.0]>"
            )
        return f"quasi:{gamma!r}:{digest}"
    raise MiningError(
        f"unknown engine task {task!r}; the engine runs {ENGINE_TASKS}"
    )


def finalize_patterns(
    task: str,
    patterns: List[CliquePattern],
    k: Optional[int] = None,
) -> List[CliquePattern]:
    """Order (and for top-k, select) merged per-root patterns.

    Applied identically at every merge site — the serial engine, the
    session, the executor, and the cache — so all execution paths
    compose per-root outputs into the same final pattern list.  For
    top-k this is where the *global* k best are chosen from the
    per-root candidates, under the same total order the per-root heaps
    use; for quasi it is the *global* closed filter (pattern-level
    closedness is not per-prefix decidable for quasi-cliques, so
    emission keeps every frequent pattern and closedness is resolved
    here).  The quasi filter composes over any partition of the
    emissions — a killed pattern's ⊂-maximal killer is itself unkilled,
    so it survives every piecewise application and still kills at the
    last one — which is what keeps per-root (cache), per-split-task
    (executor), and whole-run (serial) filtering byte-identical after
    the final merge.  For every other task it is the canonical-form
    sort the merge sites always applied.
    """
    if task == "topk":
        if k is None:
            raise MiningError("task='topk' requires k=<number of patterns>")
        ordered = sorted(
            patterns,
            key=lambda p: (p.size, tuple(reversed(p.labels))),
            reverse=True,
        )
        return ordered[:k]
    if task == "quasi":
        kept = [
            p
            for p in patterns
            if not any(
                q.support == p.support and p.form.is_proper_subclique_of(q.form)
                for q in patterns
            )
        ]
        return sorted(kept, key=lambda p: p.form.labels)
    return sorted(patterns, key=lambda p: p.form.labels)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class MiningEngine:
    """Task-parameterised frequent clique enumerator.

    One engine = one database snapshot + one config + one strategy.
    :class:`repro.core.miner.ClanMiner` is the closed/frequent special
    case and keeps the historical name.
    """

    def __init__(
        self,
        database: GraphDatabase,
        config: Optional[MinerConfig] = None,
        strategy: Optional[TaskStrategy] = None,
    ) -> None:
        self.database = database
        self.config = config if config is not None else MinerConfig()
        self.strategy = strategy if strategy is not None else (
            ClosedStrategy() if self.config.closed_only else FrequentStrategy()
        )
        # Database-wide indexes, built once per engine (lazily by mine,
        # eagerly by prepare).  The engine snapshots the database at
        # first use — create a new engine after mutating it, as
        # IncrementalMiner does.
        self._pseudo: Optional[PseudoDatabase] = None
        self._label_supports: Optional[Dict[Label, int]] = None
        #: ``sorted(self._label_supports)``, built alongside it so
        #: root-by-root callers (pool workers) do not re-sort the full
        #: label space on every single-root ``mine`` call.
        self._sorted_labels: Optional[Tuple[Label, ...]] = None

    @property
    def task(self) -> str:
        """The strategy's task name (``closed``/``frequent``/...)."""
        return self.strategy.task

    def prepare(self) -> "MiningEngine":
        """Build the label-support, core-number, and kernel indexes now.

        :meth:`mine` builds them lazily (counting one database scan);
        root-by-root callers — the executor's inline sweeps and its pool
        workers — call this eagerly so repeated calls on the same engine
        pay for the indexes once and per-root statistics do not depend
        on which root ran first.  The parallel executor calls it in the
        parent *before* forking, so workers inherit every index
        copy-on-write instead of rebuilding it
        (:func:`repro.core.embeddings.warm_kernel_indexes`).
        """
        if self._label_supports is None:
            self._label_supports = self.database.label_supports()
        if self._sorted_labels is None:
            self._sorted_labels = tuple(sorted(self._label_supports))
        self._pseudo_database()
        warm_kernel_indexes(self.database, self.config.kernel)
        return self

    def _pseudo_database(self) -> Optional[PseudoDatabase]:
        """The core-number index, built only where it is read.

        Only ``rescan`` embeddings under low-degree pruning consult it;
        ``cached`` embeddings carry their candidate sets instead.
        """
        config = self.config
        if not config.low_degree_pruning or config.embedding_strategy != RESCAN:
            return None
        if self._pseudo is None:
            self._pseudo = PseudoDatabase(self.database)
        return self._pseudo

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def mine(
        self,
        min_sup: float,
        root_labels: Optional[Tuple[Label, ...]] = None,
        hooks: Optional["SearchHooks"] = None,
        first_extensions: Optional[Tuple[Label, ...]] = None,
        include_root: bool = True,
    ) -> MiningResult:
        """Mine with the given support threshold (absolute int or fraction).

        Returns a :class:`MiningResult` of the strategy's patterns,
        with search statistics and elapsed wall-clock time attached.

        ``root_labels`` restricts the search to the DFS subtrees rooted
        at those 1-cliques (canonical forms starting with one of them).
        Every subtree is self-contained — closure checking and pruning
        only consult the subtree's own embeddings — so partitioning the
        roots partitions the per-root output exactly; this is what the
        parallel executor builds on.  Note it requires structural
        redundancy pruning (otherwise patterns are reachable from any
        of their labels).

        ``first_extensions`` restricts the search one level further: to
        the level-2 subtrees rooted at ``root ◇ β`` for the given β
        labels only (requires exactly one root label).  The same
        self-containedness argument applies one level down, so the
        level-2 subtrees of one root partition the root's output —
        minus the root's own 1-clique pattern and its root-level
        statistics and events, which belong to exactly one split task:
        the one mined with ``include_root=True``.  Callers (the
        work-stealing executor, :mod:`repro.core.executor`) must only
        split roots that are frequent and not Lemma-4.4 pruned, and
        must hand each frequent valid extension to exactly one task; a
        pruned split root, an extension sorting below the root, or an
        infrequent extension raises :class:`MiningError`.  Only
        strategies with ``splittable`` set may be split
        (:meth:`root_extension_plan` returns ``[]`` otherwise).

        ``hooks`` is the session layer's instrumentation object (see
        :class:`repro.core.session.SearchHooks`): when given, it is
        notified at every prefix, emitted pattern, and pruned subtree,
        and may abort the search by raising
        :class:`~repro.core.session.SearchAborted` at a prefix boundary;
        their event buffer is flushed before ``mine`` returns or raises.
        When ``None`` (the default) the search runs exactly as before —
        the only added cost is one ``is not None`` test per hook site.
        """
        started = time.perf_counter()
        abs_sup = self.database.absolute_support(min_sup)
        config = self.config
        if root_labels is not None and not config.structural_redundancy_pruning:
            raise MiningError(
                "root_labels partitioning requires structural redundancy pruning"
            )
        if first_extensions is not None:
            if root_labels is None or len(root_labels) != 1:
                raise MiningError(
                    "first_extensions requires exactly one root label; it splits "
                    "a single DFS root into its level-2 subtrees"
                )
        elif not include_root:
            raise MiningError(
                "include_root=False only makes sense with first_extensions; "
                "a whole-subtree mine always owns its root"
            )
        stats = MinerStatistics()
        result = MiningResult(min_sup=abs_sup, closed_only=config.closed_only, statistics=stats)

        if self._label_supports is None:
            self._label_supports = self.database.label_supports()
            stats.database_scans += 1
        if self._sorted_labels is None:
            self._sorted_labels = tuple(sorted(self._label_supports))
        label_supports = self._label_supports

        if root_labels is None:
            roots = self._sorted_labels
        else:
            # Root-restricted calls (the pool workers' per-root
            # mines) visit only the requested roots instead of
            # filtering the whole alphabet each call; unknown labels
            # are dropped exactly as the full scan would skip them.
            roots = sorted(label for label in set(root_labels) if label in label_supports)

        # The whole root sweep — or the one split root — runs inside one
        # _search call: the hoisted dispatch/config preamble is paid per
        # mine call, not per root (market sweeps have thousands of tiny
        # roots).  Without ``parts`` the sweep yields nothing.
        for _ in self._search(
            abs_sup, result, stats, hooks, roots, first_extensions, include_root
        ):
            pass
        result.elapsed_seconds = time.perf_counter() - started
        stats.cpu_seconds = result.elapsed_seconds
        return self.strategy.finalize(result)

    def mine_roots(
        self,
        min_sup: float,
        roots: Sequence[Label],
        hooks: Optional["SearchHooks"] = None,
    ) -> Iterator[MiningResult]:
        """Mine a run of DFS roots in one sweep, one result per root.

        ``roots`` must be distinct frequent labels in ascending
        (canonical) order; they are checked before this returns.  The
        returned iterator is lazy: each ``next`` mines one more root and
        hands back its part at the root boundary, so the consumer runs
        between roots.  Part ``i`` equals ``mine(min_sup,
        root_labels=(roots[i],), hooks=hooks)`` on a prepared engine —
        patterns, their order, ``statistics.snapshot()``, and the
        events the hooks deliver — with the strategy's ``finalize``
        applied per root and its own ``elapsed_seconds`` (mining time
        only, not the consumer's).  Before a part is handed back the
        hooks' buffer is flushed and their prefix counters are settled;
        a caller that resets per-root hook state (``hooks.begin_root``)
        does so before asking for the next part.  What one call shares
        across its roots is the per-call scratch: the slab kernel's
        level-batched forest, which a call per root would rebuild every
        time.  The engine is prepared first, so no part counts the
        label-support scan.
        """
        config = self.config
        if not config.structural_redundancy_pruning:
            raise MiningError(
                "per-root parts require structural redundancy pruning"
            )
        if self._label_supports is None:
            self.prepare()
        abs_sup = self.database.absolute_support(min_sup)
        roots = list(roots)
        label_supports = self._label_supports
        for before, after in zip(roots, roots[1:]):
            if not before < after:
                raise MiningError(
                    f"mine_roots needs strictly ascending roots, got {before!r} "
                    f"before {after!r}"
                )
        for root in roots:
            if label_supports.get(root, 0) < abs_sup:
                raise MiningError(f"mine_roots root {root!r} is not frequent")
        stats = MinerStatistics()
        result = MiningResult(min_sup=abs_sup, closed_only=config.closed_only, statistics=stats)
        return self._search(abs_sup, result, stats, hooks, roots, None, True, parts=True)

    # ------------------------------------------------------------------
    # Root splitting support (the work-stealing executor's primitive)
    # ------------------------------------------------------------------
    def root_extension_plan(self, min_sup: float, root: Label) -> list:
        """The frequent valid level-2 extensions of one DFS root.

        Returns ``[(label, support), ...]`` for every frequent extension
        label ≥ ``root`` — the labels whose level-2 subtrees together
        with the root's own pattern make up the root's entire output.
        Returns ``[]`` when the root cannot (or must not) be split:
        infrequent root, Lemma 4.4 prunes the whole subtree, the size
        ceiling forbids 2-cliques, or the strategy is not splittable
        (top-k carries root-wide branch-and-bound state).  The executor
        uses a non-empty plan to re-enqueue a heavy root as independent
        ``first_extensions`` tasks; an empty plan means "mine the root
        whole".

        Does not touch mining statistics: split planning is scheduler
        overhead, and per-root statistics must sum to the serial run's.
        """
        config = self.config
        if not config.structural_redundancy_pruning:
            raise MiningError(
                "root splitting requires structural redundancy pruning"
            )
        if not self.strategy.splittable:
            return []
        if config.max_size is not None and config.max_size <= 1:
            return []
        self.prepare()
        abs_sup = self.database.absolute_support(min_sup)
        if self._label_supports.get(root, 0) < abs_sup:
            return []
        # A one-root context: the slab kernel digests the root once, as
        # the one row of a forest at this threshold.
        store = self.strategy.root_store(
            self, self._pseudo_database(), root, {"roots": (root,), "abs_sup": abs_sup}
        )
        if config.max_embeddings is not None and store.embedding_count > config.max_embeddings:
            return []
        frequent_extensions, _, _ = store.extension_plan(abs_sup)
        if self.strategy.prune_subtree(self, (root,), store, abs_sup) is not None:
            return []
        return [(label, sup) for label, sup in frequent_extensions if label >= root]

    # ------------------------------------------------------------------
    # Iterative search (Algorithm 1, explicit stack)
    # ------------------------------------------------------------------
    def _search(
        self,
        abs_sup: int,
        result: MiningResult,
        stats: MinerStatistics,
        hooks: Optional["SearchHooks"],
        roots: Sequence[Label],
        first_extensions: Optional[Tuple[Label, ...]],
        include_root: bool,
        parts: bool = False,
    ) -> Iterator[MiningResult]:
        """Depth-first enumeration, explicit-stack form.

        Drives a whole root sweep: each frequent root gets
        ``begin_root``/``root_store``/``end_root`` around its subtree.
        A split task (``first_extensions``, one root — see :meth:`mine`)
        is handled only where its root opens and where the root's frame
        is pushed, never per node: with ``include_root`` the root runs
        the normal node step and its frame keeps only the requested
        extensions; without it the root node is skipped and its frame is
        seeded with those extensions directly.  This is the engine's hot
        loop; everything per-node is kept allocation-free:

        * prefixes travel as bare label tuples — ``CanonicalForm`` /
          ``CliquePattern`` / witnesses materialise only at emission;
        * search frames are 4-slot lists recycled by stack depth;
        * strategy dispatch is resolved once per call — the built-in
          emission rules run inline, overridden hooks via pre-bound
          methods;
        * statistics accumulate in plain locals, folded into ``stats``
          exactly once (in the ``finally``, so budget aborts and
          invariant errors keep exact counters; ``end_root`` therefore
          must not read ``stats`` mid-sweep, and no built-in strategy
          does);
        * hooks with nothing to check per node (no budget, token,
          deadline, or sampling) skip ``enter_prefix`` entirely and get
          their prefix counters settled from the local node count.

        A generator: with ``parts`` (:meth:`mine_roots`) every closed
        root also folds the locals into its own statistics, settles the
        hooks' prefix counters and flushes their buffer, yields its
        finalized result, and hands the next root a fresh result and
        statistics object; without it nothing is yielded.  The per-node
        loop is the same either way.
        """
        config = self.config
        strategy = self.strategy
        cls = type(strategy)
        pseudo = self._pseudo_database()
        seen_forms: Set[Tuple[Label, ...]] = set()
        # Per-call scratch shared across this call's roots; the slab
        # kernel builds its level-batched forest here from the roots and
        # the threshold, and each root store is a row of its first
        # level.  A split task's root node belongs to a sibling task, so
        # its root gets no threshold and grows only the requested
        # extensions, one by one.  Created fresh per call so no work
        # leaks between separate calls.
        context: dict = {"roots": roots, "abs_sup": abs_sup} if include_root else {}

        redundancy = config.structural_redundancy_pruning
        nonclosed_pruning = config.nonclosed_prefix_pruning
        min_size = config.min_size
        max_size = config.max_size
        max_embeddings = config.max_embeddings
        closed_only = config.closed_only
        collect_witnesses = config.collect_witnesses

        # Dispatch hoisting: default hooks are inlined, overrides are
        # pre-bound so the loop never walks the MRO.
        inline_prune = cls.prune_subtree is TaskStrategy.prune_subtree
        inline_descend = cls.descend is TaskStrategy.descend
        rule = cls.inline_rule if cls.visit is TaskStrategy.visit else None
        emit_every = rule == "frequent"
        emit_unblocked = rule == "closed"
        emit_leaves = rule == "maximal"
        visit = strategy.visit
        prune = strategy.prune_subtree
        descend = strategy.descend
        result_add = result.add
        wrap_form = CanonicalForm.wrap
        make_pattern = CliquePattern

        # Hook dispatch: hooks that can neither abort nor sample have
        # no per-node work — skip ``enter_prefix`` and settle their
        # prefix counters once, from the local node count.
        enter = None
        sinks_armed = False
        if hooks is not None:
            sinks_armed = bool(hooks.sinks)
            if (
                hooks.budget is not None
                or hooks.token is not None
                or hooks.deadline_at is not None
                or hooks.sample_every
            ):
                enter = hooks.enter_prefix

        # Statistics as plain locals (see the flush in the finally).
        n_nodes = 0
        n_frequent = 0
        n_closed = 0
        n_rejected = 0
        n_prunes = 0
        n_infrequent = 0
        n_skips = 0
        n_dups = 0
        n_scans = 0
        emb_created = 0
        emb_peak = 0
        depth = 0
        by_size: Dict[int, int] = {}

        # Root sweeping: the per-root ceremony stays out of the node
        # loop, entered only when the stack drains.
        root_iter = iter(roots)
        wanted = None if first_extensions is None else set(first_extensions)
        label_supports = self._label_supports
        begin_root = (
            None if cls.begin_root is TaskStrategy.begin_root else strategy.begin_root
        )
        end_root = (
            None if cls.end_root is TaskStrategy.end_root else strategy.end_root
        )
        make_root_store = strategy.root_store
        in_root = False
        root_started = time.perf_counter()

        # The explicit stack: reusable frames [labels, store,
        # extensions, next_index], recycled by depth so steady-state
        # descent allocates nothing.
        frames: List[list] = []
        top = -1
        labels = store = None  # type: ignore[assignment]
        pending = False  # do ``labels``/``store`` hold an unprocessed node?

        try:
            while True:
                if pending:
                    pending = False
                    # ---- one DFS node (Algorithm 1 lines 01-07) ----
                    if not redundancy:
                        # Fallback duplicate detection: the paper's
                        # "simple way".  Checked before the node is
                        # counted so duplicates only show up in their
                        # own counter, not the per-size histogram.
                        if labels in seen_forms:
                            n_dups += 1
                            labels = store = None  # type: ignore[assignment]
                            continue
                        seen_forms.add(labels)
                    emb = store.embedding_count
                    n_nodes += 1
                    size = len(labels)
                    if size > depth:
                        depth = size
                    emb_created += emb
                    if emb > emb_peak:
                        emb_peak = emb
                    if enter is not None:
                        enter(labels, store)
                    if max_embeddings is not None and emb > max_embeddings:
                        raise MiningError(
                            f"prefix {wrap_form(labels)} materialised {emb} "
                            f"embeddings, exceeding the max_embeddings bound "
                            f"of {max_embeddings}"
                        )
                    n_frequent += 1
                    by_size[size] = by_size.get(size, 0) + 1

                    # Lines 01-03: one scan finds every extension
                    # label's support — frequent extensions (label,
                    # support), the infrequent count, and the Lemma 4.3
                    # closure verdict (some extension ties the support).
                    frequent_extensions, n_inf, blocked = store.extension_plan(abs_sup)
                    n_scans += 1

                    # Lines 04-05: the subtree cut (Lemma 4.4 inline
                    # for the default, the strategy's own otherwise).
                    if inline_prune:
                        reason = None
                        if (
                            nonclosed_pruning
                            and store.nonclosed_extension_label(labels[-1]) is not None
                        ):
                            reason = "nonclosed_prefix"
                    else:
                        reason = prune(self, labels, store, abs_sup)
                    if reason is not None:
                        if wanted is not None and size == 1:
                            raise MiningError(
                                f"split task for root {wrap_form(labels)} reached "
                                f"a subtree prune; the splitter must not split "
                                f"pruned roots"
                            )
                        n_prunes += 1
                        if sinks_armed:
                            hooks.pruned(labels, reason)
                        labels = store = None  # type: ignore[assignment]
                        continue

                    # Lines 06-07: the emission rule.  The strategy's
                    # ``inline_rule`` runs inline; the pattern, its
                    # form, and its witness map materialise only here.
                    if rule is not None:
                        if (
                            emit_every
                            or (emit_unblocked and not blocked)
                            or (emit_leaves and not frequent_extensions)
                        ):
                            if size >= min_size and (
                                max_size is None or size <= max_size
                            ):
                                pattern = make_pattern(
                                    form=wrap_form(labels),
                                    support=store.support,
                                    transactions=store.transactions(),
                                    witnesses=store.witnesses()
                                    if collect_witnesses
                                    else {},
                                )
                                result_add(pattern)
                                if closed_only:
                                    n_closed += 1
                                if hooks is not None:
                                    hooks.pattern(pattern)
                        else:
                            n_rejected += 1
                    else:
                        visit(
                            self,
                            labels,
                            store,
                            frequent_extensions,
                            blocked,
                            result,
                            stats,
                            hooks,
                        )

                    # Lines 08-09: queue the frequent valid extensions.
                    if max_size is not None and size >= max_size:
                        labels = store = None  # type: ignore[assignment]
                        continue
                    n_infrequent += n_inf
                    if not inline_descend and not descend(
                        labels, store, frequent_extensions, stats
                    ):
                        labels = store = None  # type: ignore[assignment]
                        continue
                    extensions = frequent_extensions
                    if redundancy:
                        # The frequent list is label-ascending, so the
                        # canonical skips (label < last) form a prefix —
                        # count them in one bisect.
                        skipped = bisect_left(extensions, (labels[-1],))
                        if skipped:
                            n_skips += skipped
                            extensions = extensions[skipped:]
                    if not extensions:
                        labels = store = None  # type: ignore[assignment]
                        continue
                    top += 1
                    if top == len(frames):
                        if wanted is not None and top == 0:
                            # A split task's one root pushes the first
                            # frame of the call: keep its requested
                            # extensions only.
                            extensions = [e for e in extensions if e[0] in wanted]
                        frames.append([labels, store, extensions, 0])
                    else:
                        frame = frames[top]
                        frame[0] = labels
                        frame[1] = store
                        frame[2] = extensions
                        frame[3] = 0
                    labels = store = None  # type: ignore[assignment]
                    continue

                # ---- advance the deepest frame ---------------------
                if top < 0:
                    # Stack drained: close the active root, open the
                    # next frequent one (infrequent roots only count).
                    if in_root:
                        in_root = False
                        if end_root is not None:
                            end_root(self, result, stats, hooks)
                        if parts:
                            if hooks is not None:
                                if enter is None:
                                    hooks.total_prefixes += n_nodes
                                    hooks.root_prefixes += n_nodes
                                hooks.flush()
                            stats.absorb_search(
                                prefixes=n_nodes,
                                max_depth=depth,
                                embeddings=emb_created,
                                peak_embeddings=emb_peak,
                                frequent=n_frequent,
                                frequent_by_size=by_size,
                                closed=n_closed,
                                rejections=n_rejected,
                                prunes=n_prunes,
                                infrequent=n_infrequent,
                                redundancy_skips=n_skips,
                                duplicates=n_dups,
                                scans=n_scans,
                            )
                            n_nodes = n_frequent = n_closed = n_rejected = 0
                            n_prunes = n_infrequent = n_skips = n_dups = 0
                            n_scans = emb_created = emb_peak = depth = 0
                            by_size = {}
                            result.elapsed_seconds = time.perf_counter() - root_started
                            stats.cpu_seconds = result.elapsed_seconds
                            part = strategy.finalize(result)
                            stats = MinerStatistics()
                            result = MiningResult(
                                min_sup=abs_sup, closed_only=closed_only, statistics=stats
                            )
                            result_add = result.add
                            yield part
                            root_started = time.perf_counter()
                    root = next(root_iter, None)
                    while root is not None and label_supports[root] < abs_sup:
                        n_infrequent += 1
                        root = next(root_iter, None)
                    if root is None:
                        break
                    if begin_root is not None:
                        begin_root(root)
                    store = make_root_store(self, pseudo, root, context)
                    labels = (root,)
                    in_root = True
                    if include_root:
                        pending = True
                    elif max_size is None or max_size > 1:
                        # A sibling split task owns the root node: seed
                        # its frame with the requested extensions, their
                        # supports unknown (``None``) until materialised.
                        for label in first_extensions:
                            if label < root:
                                raise MiningError(
                                    f"split extension {label!r} sorts below root "
                                    f"{root!r}; structural redundancy pruning "
                                    f"forbids it"
                                )
                        top = 0
                        frames.append(
                            [labels, store, [(label, None) for label in first_extensions], 0]
                        )
                    continue
                frame = frames[top]
                extensions = frame[2]
                i = frame[3]
                if i == len(extensions):
                    frame[0] = frame[1] = frame[2] = None
                    top -= 1
                    continue
                frame[3] = i + 1
                label, ext_support = extensions[i]
                parent_labels = frame[0]
                if redundancy:
                    store = frame[1].extend(label, parent_labels[-1])
                    labels = parent_labels + (label,)
                else:
                    store = frame[1].extend_unordered(label)
                    labels = tuple(sorted(parent_labels + (label,)))
                if store.support != ext_support:
                    if ext_support is not None:  # pragma: no cover - invariant
                        raise MiningError(
                            f"extension scan predicted support {ext_support} for "
                            f"{wrap_form(labels)} but materialisation found "
                            f"{store.support}"
                        )
                    if store.support < abs_sup:
                        raise MiningError(
                            f"split task extension {wrap_form(labels)} is "
                            f"infrequent ({store.support} < {abs_sup}); the "
                            f"splitter must only hand out frequent extensions"
                        )
                pending = True
        finally:
            # One additive flush per call: exact under aborts, and
            # composable with the counters strategies touched directly
            # through ``stats`` mid-search.
            stats.absorb_search(
                prefixes=n_nodes,
                max_depth=depth,
                embeddings=emb_created,
                peak_embeddings=emb_peak,
                frequent=n_frequent,
                frequent_by_size=by_size,
                closed=n_closed,
                rejections=n_rejected,
                prunes=n_prunes,
                infrequent=n_infrequent,
                redundancy_skips=n_skips,
                duplicates=n_dups,
                scans=n_scans,
            )
            if hooks is not None:
                if enter is None:
                    hooks.total_prefixes += n_nodes
                    hooks.root_prefixes += n_nodes
                # Aborted searches included: the sinks see every event
                # the search produced before the error propagates.
                hooks.flush()
