"""The one root runner: CLAN's root-partitioned search, inline or pooled.

Structural redundancy pruning makes every DFS root's subtree
independent (paper §4), so a run is an ordered walk over roots.
:meth:`MiningExecutor.iter_roots` is the only loop that walks them:
:meth:`MiningExecutor.mine`, :func:`~repro.core.cache.mine_with_cache`
and :class:`~repro.core.session.MiningSession` all drive roots through
it.  Per root it either replays a :class:`~repro.core.cache.MiningCache`
entry or mines the root — inline, in the parent (each run of uncached
roots in one :meth:`~repro.core.engine.MiningEngine.mine_roots` sweep,
consumed one root at a time; live
:class:`~repro.core.session.SearchHooks` ride the sweep and keep
per-prefix budgets and cancellation), or on a worker pool.
``processes=N`` is an upper bound: a ``processes > 1`` run mines
inline first and starts the pool only once inline mining has spent
:data:`POOL_START_SECONDS` and the measured rate predicts a larger
saving on the remaining roots (:class:`_PoolGate`).  The pool is the
library's only one (:func:`~repro.core.sharding.mine_sharded` runs its
shard passes on it through :meth:`MiningExecutor.run_jobs`); it has:

* **one precomputed plan** (:func:`plan_tasks`) — each root gets a
  static cost estimate from label support × candidate-degree
  statistics (:func:`estimate_root_costs`); the plan pops them
  heaviest first and replaces a root whose cost exceeds a fair share
  of the work not yet planned by its independent level-2 subtrees
  (``first_extensions`` tasks of :meth:`ClanMiner.mine`), which the
  root-partitioning property makes exact one level down.  The pool
  takes the plan whole and reassembles each root from its tasks;
* **shared index warm-up** — on a run's first cache miss the parent
  builds the label supports, the
  :class:`~repro.graphdb.core_index.PseudoDatabase`, and the per-graph
  bitset masks once (:meth:`ClanMiner.prepare`) *before* creating the
  pool, so under the ``fork`` start method every worker inherits the
  finished indexes copy-on-write instead of rebuilding them; under
  ``spawn`` a worker rebuilds the engine from the pickled initargs and
  prepares it on its first root task.  A fully cached run builds no
  index at all;
* a **persistent pool**: the executor keeps its workers alive across
  :meth:`mine` calls, so repeated mining of the same database (support
  sweeps, benchmark loops) pays process start-up once.  A run abandoned
  mid-pool (a budget trips, a cancel, the consumer stops) drops it, so
  its queued tasks never delay the next run;
* **one result loop**: workers run every job as ``fn(engine, *args)``;
  a job that raises or a worker that dies (the pool replaces it but
  never reruns its job) raises :class:`~repro.exceptions.MiningError`.

Correctness contract: for every scheduler and any interleaving, the
merged :class:`MiningResult` — patterns, order, and statistics — is
byte-identical to the serial :class:`ClanMiner`'s, and the per-root
event substreams replayed in canonical task order are byte-identical
to a serial session's.  Split tasks record *every* prefix
(``sample_every=1``) and the parent re-derives the serial sampling
while renumbering ordinals during replay, so even sampled streams
match.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import heapq
import itertools
import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import MiningError, ReproError
from ..graphdb.database import GraphDatabase
from .cache import CachedRoot, MiningCache
from .canonical import Label
from .config import MinerConfig
from .embeddings import SLAB
from .engine import MiningEngine, engine_digest, engine_for_task, finalize_patterns
from .results import MiningResult
from .session import MiningEvent, PrefixVisited, SearchHooks, _ListSink
from .statistics import MinerStatistics

__all__ = [
    "DEFAULT_SPLIT_FACTOR",
    "ExecutorReport",
    "MiningExecutor",
    "MiningTask",
    "SCHEDULERS",
    "STATIC",
    "STEALING",
    "estimate_root_costs",
    "mine_closed_cliques_parallel",
    "partition_roots",
    "plan_tasks",
]

#: Scheduler names: canonical order, or heaviest first with splitting.
STATIC = "static"
STEALING = "stealing"
SCHEDULERS = (STATIC, STEALING)

#: Split when a task's cost exceeds this multiple of the fair share
#: (work not yet planned / processes).  At 1.0 a task splits exactly when it
#: alone would dominate a perfectly balanced schedule — so small,
#: even workloads never split, while one hub root always does.
DEFAULT_SPLIT_FACTOR = 1.0

#: Pool start-up cost, in seconds of inline mining: a ``processes > 1``
#: run mines inline until it has spent this long, and starts the pool
#: only if the pool's predicted saving on the remaining roots exceeds
#: it (:class:`_PoolGate`).  The largest pool overhead (forced pool
#: wall clock minus half the serial one) over the gate workloads of
#: ``BENCH_parallel.json``, measured on 2 CPUs: 0.56 s at fig7b ×256,
#: rounded up.
POOL_START_SECONDS = 0.6


def partition_roots(labels: Sequence[Label], chunks: int) -> List[Tuple[Label, ...]]:
    """Deprecated: split root labels into round-robin chunks.

    No scheduler uses chunks any more (both submit one task per root),
    so this warns (stage 1 of the CONTRIBUTING.md deprecation policy)
    and then returns the chunks as before.
    """
    warnings.warn(
        "partition_roots is deprecated: the executor schedules one task "
        "per root and nothing reads root chunks",
        DeprecationWarning,
        stacklevel=2,
    )
    if chunks < 1:
        raise MiningError("need at least one chunk")
    buckets: List[List[Label]] = [[] for _ in range(min(chunks, max(1, len(labels))))]
    for index, label in enumerate(labels):
        buckets[index % len(buckets)].append(label)
    return [tuple(bucket) for bucket in buckets if bucket]


#: Ceiling on one chunk of :func:`estimate_root_costs`' unpacked slab rows.
_ESTIMATE_CHUNK_BYTES = 8 * 1024 * 1024


def _tx_bits(rows: np.ndarray, n_tx: int) -> np.ndarray:
    """``uint8`` per-transaction bits of slab word rows (last axis)."""
    unpacked = np.unpackbits(
        np.ascontiguousarray(rows).view(np.uint8), axis=-1, bitorder="little"
    )
    return unpacked[..., :n_tx]


def estimate_root_costs(
    database: GraphDatabase, roots: Sequence[Label], slab=None
) -> Dict[Label, float]:
    """Static per-root subtree cost estimates, from one database pass.

    Under structural redundancy pruning the subtree of root ℓ explores
    cliques inside the *forward* neighbourhoods of ℓ-vertices — the
    neighbours whose labels sort ≥ ℓ.  Each such vertex therefore
    contributes its embedding (1), one candidate per forward neighbour
    (f), and a quadratic term for the intersections among them
    (f²/2).  The absolute scale is irrelevant; only the ratios steer
    the heaviest-first ordering and the split decision
    (:func:`plan_tasks`).

    Given the database's transposed ``slab`` index, the same numbers
    come from its adjacency rows instead, without touching a graph (an
    out-of-core store would otherwise decode every transaction again).
    """
    wanted = set(roots)
    costs: Dict[Label, float] = {root: 1.0 for root in roots}
    if slab is not None:
        n_tx = slab.n_transactions
        bits = sorted(slab.bit_of[root] for root in wanted if root in slab.bit_of)
        n_labels = len(slab.labels)
        # Chunks of roots share one gather and one unpack; each chunk's
        # unpacked [roots, labels, transactions] temporary stays below
        # _ESTIMATE_CHUNK_BYTES.
        per_root = max(1, n_labels * slab.nbr.shape[-1] * slab.nbr.itemsize * 8)
        step = max(1, _ESTIMATE_CHUNK_BYTES // per_root)
        # A forward count never exceeds the alphabet: narrow sums.
        counter = np.uint16 if n_labels < 1 << 16 else np.int64
        for start in range(0, len(bits), step):
            chunk = np.array(bits[start : start + step])
            low = int(chunk[0]) + 1
            # Labels are unique per transaction, so every forward
            # neighbour of a root's vertex carries a label above it:
            # keep columns above each row's own root bit.
            rows = slab.nbr[chunk, low:]
            columns = np.arange(low, n_labels)
            rows = np.where((columns[None, :] > chunk[:, None])[:, :, None], rows, 0)
            forward = _tx_bits(rows, n_tx).sum(axis=1, dtype=counter).astype(np.float64)
            present = _tx_bits(slab.presence[chunk], n_tx).astype(bool)
            weight = np.where(present, 1.0 + forward + 0.5 * forward * forward, 0.0)
            for bit, cost in zip(chunk.tolist(), weight.sum(axis=1).tolist()):
                costs[slab.labels[bit]] += cost
        return costs
    for graph in database:
        label_map = graph.label_map()
        adjacency = graph.adjacency_map()
        for vertex, label in label_map.items():
            if label not in wanted:
                continue
            forward = 0
            for neighbor in adjacency[vertex]:
                if label_map[neighbor] >= label:
                    forward += 1
            costs[label] += 1.0 + forward + 0.5 * forward * forward
    return costs


@dataclass(frozen=True)
class MiningTask:
    """One unit of schedulable work: a subtree (or sub-subtree) mine.

    ``roots``
        The DFS root labels this task mines (the executor schedules one
        root per task).
    ``first_extensions``
        ``None`` mines the whole subtree(s); a tuple restricts the
        task to the level-2 subtrees ``root ◇ β`` for those β (split
        tasks — exactly one root then).
    ``include_root``
        Whether this task owns the root-level work: the root's own
        pattern, its statistics, its events, and the Lemma 4.4 check.
        Exactly one task per root carries ``True``.
    ``cost``
        The static cost estimate (arbitrary units).
    ``seq``
        Position among the root's split tasks; replay order key.
    """

    roots: Tuple[Label, ...]
    first_extensions: Optional[Tuple[Label, ...]] = None
    include_root: bool = True
    cost: float = 1.0
    seq: int = 0

    @property
    def splittable(self) -> bool:
        """Whole single-root subtrees can split; split tasks cannot."""
        return len(self.roots) == 1 and self.first_extensions is None


def plan_tasks(
    roots: Sequence[Label],
    estimates: Dict[Label, float],
    processes: int,
    split_factor: float,
    root_extension_plan: Optional[Callable[[Label], Sequence[Tuple[Label, int]]]] = None,
) -> List[MiningTask]:
    """The pool's whole schedule, planned once from static cost estimates.

    Pops tasks heaviest first (ties in ``roots`` order).  A popped whole
    root splits when its estimate exceeds ``split_factor`` × (the
    estimates not yet planned, its own included) / ``processes`` and
    ``root_extension_plan(root)`` names at least two level-2
    extensions: one subtask per extension, costed ``cost × sup /
    total``, goes back on the heap.  Every other pop is appended to the
    plan, the order the pool submits in.  Without
    ``root_extension_plan`` nothing splits; with equal estimates that
    is the static schedule, canonical order.
    """
    heap = [
        (-estimates[root], index, MiningTask(roots=(root,), cost=estimates[root]))
        for index, root in enumerate(roots)
    ]
    heapq.heapify(heap)
    tiebreak = itertools.count(len(heap))
    # Subtasks' costs sum to their root's, so a split leaves this as is.
    unplanned = sum(estimates[root] for root in roots)
    plan: List[MiningTask] = []
    while heap:
        _, _, task = heapq.heappop(heap)
        if (
            root_extension_plan is not None
            and task.splittable
            and task.cost > split_factor * unplanned / processes
        ):
            extensions = root_extension_plan(task.roots[0])
            if len(extensions) >= 2:
                total_support = sum(sup for _label, sup in extensions)
                for index, (label, sup) in enumerate(extensions):
                    subtask = MiningTask(
                        roots=task.roots,
                        first_extensions=(label,),
                        include_root=index == 0,
                        cost=task.cost * sup / total_support,
                        seq=index,
                    )
                    heapq.heappush(heap, (-subtask.cost, next(tiebreak), subtask))
                continue
        unplanned -= task.cost
        plan.append(task)
    return plan


@dataclass
class ExecutorReport:
    """Observability record of one executor run (``last_report``)."""

    scheduler: str
    processes: int
    roots: int = 0
    tasks: int = 0
    splits: int = 0
    elapsed_seconds: float = 0.0
    #: Roots answered from the executor's :class:`MiningCache` instead
    #: of being mined at all.
    roots_from_cache: int = 0
    #: Summed in-worker mining time (the statistics' ``cpu_seconds``).
    cpu_seconds: float = 0.0
    #: Per-worker busy seconds, keyed by worker pid.
    worker_busy_seconds: Dict[int, float] = field(default_factory=dict)
    #: Roots mined in the calling process rather than on the pool
    #: (with ``processes > 1``: those mined before the pool started).
    roots_inline: int = 0
    #: Whether the run handed its remaining roots to the worker pool.
    pool_started: bool = False

    def record(self, pid: int, seconds: float) -> None:
        self.tasks += 1
        self.cpu_seconds += seconds
        self.worker_busy_seconds[pid] = (
            self.worker_busy_seconds.get(pid, 0.0) + seconds
        )

    @property
    def max_straggler_ratio(self) -> float:
        """Busiest worker's share over a perfectly even share.

        ``max(busy) / (total busy / processes)`` — 1.0 is a perfectly
        balanced schedule, ``processes`` is one worker doing all the
        work while the rest idle.
        """
        if not self.worker_busy_seconds or self.cpu_seconds <= 0.0:
            return 1.0
        busiest = max(self.worker_busy_seconds.values())
        return busiest * self.processes / self.cpu_seconds


class _PoolGate:
    """Decides when a ``processes > 1`` run should start its pool.

    ``roots`` are the run's uncached roots in canonical order; inline
    calls mine a prefix of them and report their wall clock.  The pool
    pays once inline mining has spent the start-up ``budget`` and the
    pool's predicted saving on the remaining roots, ``rate × remaining
    cost × (1 − 1/processes)``, exceeds it, where ``rate`` is inline
    seconds per unit of the roots' static cost (:func:`estimate_root_costs`,
    computed by ``estimate`` only once the budget is spent).  A budget
    of 0 starts the pool before any inline work.
    """

    def __init__(
        self,
        processes: int,
        budget: float,
        roots: Sequence[Label],
        estimate: Callable[[Sequence[Label]], Dict[Label, float]],
    ) -> None:
        self.processes = processes
        self.budget = budget
        self.roots = tuple(roots)
        self.estimate = estimate
        self.estimates: Optional[Dict[Label, float]] = None
        self._cumulative: List[float] = []  # cost of roots[:i]
        self.mined = 0  # roots[:mined] ran inline
        self.inline_seconds = 0.0

    def pays(self) -> bool:
        if self.budget <= 0.0:
            return True
        if self.inline_seconds < self.budget or not self.mined:
            return False
        if self.estimates is None:
            self.estimates = self.estimate(self.roots)
            self._cumulative = list(
                itertools.accumulate((self.estimates[root] for root in self.roots), initial=0.0)
            )
        inline_cost = self._cumulative[self.mined]
        remaining = self._cumulative[-1] - inline_cost
        rate = self.inline_seconds / inline_cost
        return rate * remaining * (1.0 - 1.0 / self.processes) > self.budget

    def chunk(self, run: Sequence[Label]) -> int:
        """How many of ``run``'s roots to mine inline in the next call.

        One root while there is no timing yet; then about enough roots
        to spend the rest of the budget at the mean seconds per root so
        far; the whole run once the budget is spent and the pool still
        does not pay.
        """
        if not self.mined:
            return 1
        left = self.budget - self.inline_seconds
        per_root = self.inline_seconds / self.mined
        if left <= 0.0 or per_root <= 0.0:
            return len(run)
        return min(len(run), int(left / per_root) + 1)

    def record(self, run: Sequence[Label], seconds: float) -> None:
        self.mined += len(run)
        self.inline_seconds += seconds


# ----------------------------------------------------------------------
# Task execution (inline and in workers)
# ----------------------------------------------------------------------
#: Parent-side registry of engines, set *before* the pool is created so
#: fork-started workers inherit the entry (and its indexes) copy-on-write.
_PARENT_MINERS: Dict[int, MiningEngine] = {}
_TOKENS = itertools.count(1)

#: Worker-side state: the initializer's engine, and whether it is prepared.
_WORKER_STATE: Dict[str, Any] = {}


def _init_executor_worker(
    token: int,
    database: GraphDatabase,
    config: MinerConfig,
    task: str = "closed",
    k: Optional[int] = None,
    gamma: Optional[float] = None,
) -> None:
    miner = _PARENT_MINERS.get(token)
    if miner is None:
        # spawn/forkserver start methods: no inherited parent state, so
        # rebuild the engine from the pickled initargs, unprepared.
        miner = engine_for_task(database, config, task, k, gamma)
    _WORKER_STATE.update(miner=miner, prepared=False)


def _run_job(job: Tuple[Callable[..., Any], tuple]) -> Any:
    """The worker-side trampoline: ``fn(engine, *args)``."""
    fn, args = job
    return fn(_WORKER_STATE["miner"], *args)


def _live_workers(pool: Any) -> frozenset:
    """Pids of ``pool``'s live workers; a death or replacement changes it."""
    return frozenset(process.pid for process in pool._pool if process.is_alive())


def _execute_task(
    engine: MiningEngine, abs_sup: int, task: MiningTask, sample_every: int, capture: bool
) -> Tuple[MiningTask, MiningResult, Tuple[MiningEvent, ...], float, int]:
    """Run one :class:`MiningTask` in a worker; the result channel.

    Returns the task, its :class:`MiningResult`, the event substream
    (recorded through private hooks sampling every ``sample_every``-th
    prefix, when capturing), the measured mining seconds and the worker
    pid (straggler accounting).  A worker's first task prepares the
    engine, so no task's statistics count the label-support scan.
    """
    if not _WORKER_STATE["prepared"]:
        engine.prepare()
        _WORKER_STATE["prepared"] = True
    started = time.perf_counter()
    hooks = recorder = None
    if capture:
        recorder = _ListSink()
        hooks = SearchHooks(sinks=(recorder,), sample_every=sample_every)
    part = engine.mine(
        abs_sup,
        root_labels=task.roots,
        hooks=hooks,
        first_extensions=task.first_extensions,
        include_root=task.include_root,
    )
    events = tuple(recorder.events) if recorder is not None else ()
    elapsed = time.perf_counter() - started
    return task, part, events, elapsed, os.getpid()


def _replay_substreams(
    substreams: Sequence[Sequence[MiningEvent]], sample_every: int
) -> Tuple[MiningEvent, ...]:
    """Concatenate split-task substreams in canonical task order.

    Split tasks record every prefix (``sample_every=1``); the serial
    session samples every N-th prefix *of the whole root* and numbers
    them with a root-wide ordinal.  Replaying in task order walks the
    prefixes in exactly the serial DFS order, so re-deriving the
    sampling here — count every prefix, keep each N-th, rewrite its
    ordinal — reproduces the serial stream byte for byte.
    """
    out: List[MiningEvent] = []
    counter = 0
    for events in substreams:
        for event in events:
            if isinstance(event, PrefixVisited):
                counter += 1
                if sample_every and counter % sample_every == 0:
                    out.append(replace(event, ordinal=counter))
            else:
                out.append(event)
    return tuple(out)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class MiningExecutor:
    """Mines CLAN's DFS roots inline or on a persistent worker pool.

    Examples
    --------
    >>> from repro.graphdb import paper_example_database
    >>> with MiningExecutor(paper_example_database(), processes=2) as ex:
    ...     sorted(str(p.form) for p in ex.mine(2))
    ['abcd', 'bde']

    Parameters
    ----------
    database, config:
        As for :class:`~repro.core.engine.MiningEngine`; structural
        redundancy pruning must be on (root partitioning).  ``None``
        resolves to the task's default config.
    processes:
        Upper bound on the pool size (default: CPU count).  ``1`` mines
        every root inline, in the calling process, and never starts a
        pool; ``> 1`` starts one only when the pool gate finds it pays
        (see the module docstring).
    task / k / gamma:
        The engine task to run (any of
        :data:`repro.core.engine.ENGINE_TASKS`; ``k`` for ``"topk"``,
        ``gamma`` for ``"quasi"``).  Defaults to closed/frequent
        following ``config.closed_only``.  Top-k roots are never split
        (the branch-and-bound state is root-wide), but distribute across
        workers like any other.
    scheduler:
        ``"stealing"`` (default): one task per root, submitted heaviest
        first, heavy roots split into level-2 subtrees when they
        dominate the work not yet planned (:func:`plan_tasks`).
        ``"static"``: one task per root submitted in canonical order
        with no splitting, kept as the comparison baseline.
    split_factor:
        Split threshold multiplier over the fair share
        (:data:`DEFAULT_SPLIT_FACTOR`); ``0.0`` splits every splittable
        root (used by the equivalence tests), large values never split.
    chunks_per_process:
        Deprecated and ignored (passing it warns): the static scheduler
        submits one task per root.
    cache:
        Optional :class:`~repro.core.cache.MiningCache`.  Roots it can
        answer are replayed instead of mined, and every root
        :meth:`iter_roots` mines is stored back.

    The pool is created lazily when the gate first hands it roots (or
    :meth:`run_jobs` its first jobs) and survives across :meth:`mine`
    calls; a run abandoned mid-pool drops it, and :meth:`close` (or the
    context manager) tears it down.  Like the engine, the executor snapshots
    the database (indexes, cache fingerprint) at first use.  After each
    run, :attr:`last_report` holds an :class:`ExecutorReport` with
    task/split counts, per-worker busy time, the roots mined inline,
    and whether the pool started.
    """

    def __init__(
        self,
        database: GraphDatabase,
        config: Optional[MinerConfig] = None,
        processes: Optional[int] = None,
        scheduler: str = STEALING,
        split_factor: float = DEFAULT_SPLIT_FACTOR,
        chunks_per_process: Optional[int] = None,
        cache: Optional[MiningCache] = None,
        task: Optional[str] = None,
        k: Optional[int] = None,
        gamma: Optional[float] = None,
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise MiningError(
                f"unknown scheduler {scheduler!r}; use one of {SCHEDULERS}"
            )
        if processes is None:
            processes = multiprocessing.cpu_count()
        if processes < 1:
            raise MiningError(f"processes must be >= 1, got {processes}")
        if split_factor < 0:
            raise MiningError(f"split_factor must be >= 0, got {split_factor}")
        if chunks_per_process is not None:
            warnings.warn(
                "MiningExecutor(chunks_per_process=...) is deprecated and "
                "ignored: the static scheduler submits one task per root",
                DeprecationWarning,
                stacklevel=2,
            )
        if task is None:
            task = "closed" if config is None or config.closed_only else "frequent"
        # Validates the task, its k/gamma, and the config against the
        # task; indexes are built on the first root a run must mine.
        self._miner = engine_for_task(database, config, task, k, gamma)
        if not self._miner.config.structural_redundancy_pruning:
            raise MiningError(
                "root-partitioned mining requires structural redundancy pruning"
            )
        self.database = database
        self.config = self._miner.config
        self.processes = processes
        self.scheduler = scheduler
        self.split_factor = split_factor
        self.cache = cache
        self.task = task
        self.k = k
        self.gamma = gamma
        self.last_report: Optional[ExecutorReport] = None
        self._prepared = False
        self._fingerprint: Optional[str] = None
        self._digest: Optional[str] = None
        self._token = next(_TOKENS)
        self._pool: Optional[Any] = None
        #: Whether a run has results still due from the pool.
        self._pool_busy = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "MiningExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Terminate the pool and release the parent-side miner registry."""
        if self._closed:
            return
        self._closed = True
        _PARENT_MINERS.pop(self._token, None)
        self._drop_pool()

    def _drop_pool(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._pool_busy = False

    def _prepare(self) -> None:
        # Shared index warm-up, once: before the pool forks, so workers
        # inherit the indexes copy-on-write, and before any inline mine,
        # so no per-root mine counts the label-support scan.
        if not self._prepared:
            self._miner.prepare()
            self._prepared = True

    def _ensure_pool(self) -> Any:
        if self._pool_busy:
            # An earlier run left jobs queued: they must not delay this one.
            self._drop_pool()
        if self._pool is None:
            # Registered before Pool() so the forked children see it.
            _PARENT_MINERS[self._token] = self._miner
            context = multiprocessing.get_context()
            self._pool = context.Pool(
                processes=self.processes,
                initializer=_init_executor_worker,
                initargs=(
                    self._token,
                    self.database,
                    self.config,
                    self.task,
                    self.k,
                    self.gamma,
                ),
            )
        return self._pool

    def run_jobs(self, fn: Callable[..., Any], jobs: Sequence[tuple]) -> Iterator[Any]:
        """``fn(engine, *job)`` for every job, yielded in job order.

        ``engine`` is this executor's :class:`MiningEngine` (and holds
        the database).  With ``processes > 1`` the jobs run on the pool,
        whose workers received the engine at start, so a job carries
        only its arguments (``fn`` must be module-level to pickle).
        """
        if self.processes == 1:
            return (fn(self._miner, *job) for job in jobs)
        return self._pool_results([(fn, job) for job in jobs], ordered=True)

    def _pool_results(
        self, jobs: Sequence[Tuple[Callable[..., Any], tuple]], ordered: bool
    ) -> Iterator[Any]:
        """Submit every ``(fn, args)`` job at once; yield the results.

        In job order when ``ordered``, else as they arrive.  A job that
        raises or a dead worker raises :class:`MiningError`; a run
        stopped before its last result drops the pool.
        """
        pool = self._ensure_pool()
        workers = _live_workers(pool)
        submit = pool.imap if ordered else pool.imap_unordered
        results = submit(_run_job, jobs)
        pending = len(jobs)
        self._pool_busy = pending > 0
        try:
            while pending:
                try:
                    # Wake once a second to check that no worker died.
                    result = results.next(timeout=1.0)
                except multiprocessing.TimeoutError:
                    if _live_workers(pool) != workers:
                        raise MiningError("a pool worker process died") from None
                    continue
                except ReproError:
                    raise
                except Exception as error:
                    raise MiningError(f"parallel worker failed: {error}") from error
                pending -= 1
                if not pending and self._pool is pool:
                    self._pool_busy = False
                yield result
        finally:
            if pending and self._pool is pool:
                self._drop_pool()

    # -- the drained entry point ---------------------------------------
    def mine(self, min_sup: float) -> MiningResult:
        """Mine the whole database; byte-identical to serial ClanMiner.

        Statistics are summed across roots, ``elapsed_seconds`` is
        wall-clock, and ``statistics.cpu_seconds`` is the summed
        in-worker mining time.  With a :attr:`cache`, closed/frequent
        roots cached only at a lower threshold are answered by the
        sweep tier (:func:`~repro.core.cache.mine_with_cache`): their
        patterns are exact, but they contribute no search counters.
        """
        started = time.perf_counter()
        abs_sup = self.database.absolute_support(min_sup)
        roots = tuple(self.database.frequent_labels(abs_sup))
        merged = MiningResult(min_sup=abs_sup, closed_only=self.config.closed_only)
        collected: List[Any] = []
        for _root, part, _events in self.iter_roots(abs_sup, roots):
            merged.statistics.merge(part.statistics)
            collected.extend(part)
        # Restore the serial engine's deterministic order (and, for
        # top-k, pick the global k best from the per-root candidates —
        # the same selection the serial engine's finalize applies).
        for pattern in finalize_patterns(self.task, collected, self.k):
            merged.add(pattern)
        self._charge_run(merged.statistics, len(roots))
        merged.elapsed_seconds = time.perf_counter() - started
        if self.last_report is not None:
            self.last_report.elapsed_seconds = merged.elapsed_seconds
        return merged

    def _charge_run(self, statistics: MinerStatistics, n_frequent: int) -> None:
        """Add the last run's launcher work, which no root owns.

        The parent's ``frequent_labels()`` root scan stands in for the
        serial engine's label-support scan, and the serial root loop
        counts every infrequent root label it skips; charging both here
        makes every path's statistics equal the serial engine's.  The
        cache counters report the run's reuse.
        """
        statistics.database_scans += 1
        statistics.infrequent_extensions += (
            len(self.database.label_supports()) - n_frequent
        )
        report = self.last_report
        if self.cache is not None and report is not None:
            hits = report.roots_from_cache
            statistics.roots_from_cache += hits
            statistics.cache_hits += hits
            statistics.cache_misses += report.roots - hits

    # -- the root runner ------------------------------------------------
    def iter_roots(
        self,
        min_sup: float,
        roots: Sequence[Label],
        hooks: Optional[SearchHooks] = None,
    ) -> Iterator[Tuple[Label, MiningResult, Tuple[MiningEvent, ...]]]:
        """Mine the given roots, yielding each in canonical order.

        Yields ``(root, result, events)`` for every root, in the order
        given (the canonical serial order), regardless of the order
        workers finish in — split tasks are merged and their event
        substreams replayed in canonical task order first, which is
        what preserves the serial==parallel byte-identity contract.
        The consumer may stop iterating at any root boundary (budgets,
        cancellation); a pooled run then drops its pool, so the tasks
        it left queued never delay the next run.

        ``hooks`` is a live :class:`~repro.core.session.SearchHooks`
        (the session's); it decides what the run records.  With hooks,
        every root's event substream is captured at
        ``hooks.sample_every`` and the cache accepts only exact-tier
        entries that carry statistics and a substream recorded at that
        sampling, keeping the byte-identity contract.  Without them
        nothing is captured, and closed/frequent runs also accept the
        cache's patterns-only sweep-tier entries derived from a lower
        cached threshold.  Every mined root is stored back.

        Inline, each maximal run of uncached roots is mined by one
        :meth:`~repro.core.engine.MiningEngine.mine_roots` sweep, with
        or without hooks, consumed one root at a time: the sweep hands
        back each root's part at its boundary, so the consumer runs
        (publishes, saves a checkpoint) before the next root is mined.
        With ``processes > 1`` the roots are mined inline until the pool
        gate (:class:`_PoolGate`), fed each part's own mining time,
        finds that the pool pays for the rest; the pool then mines every
        remaining uncached root.

        Each root opens with ``hooks.begin_root``.  Inline, mined roots
        run under the hooks: per-prefix budgets and cancellation raise
        :class:`~repro.core.session.SearchAborted` out of this iterator,
        and their sinks see events as they happen (yielded only when a
        cache records them).  Cached and pool-mined roots replay their
        substreams to the sinks and advance the run-wide counters, so
        budgets count them too.  Before each pool-mined root the hooks'
        one stop rule (:meth:`~repro.core.session.SearchHooks.check`)
        runs, as it would at that root's first prefix inline.
        """
        if self._closed:
            raise MiningError("this MiningExecutor is closed; create a new one")
        abs_sup = self.database.absolute_support(min_sup)
        roots = tuple(roots)
        report = ExecutorReport(
            scheduler=self.scheduler, processes=self.processes, roots=len(roots)
        )
        self.last_report = report
        started = time.perf_counter()
        capture = hooks is not None
        sample_every = hooks.sample_every if capture else 0
        # The sweep tier derives patterns by support-filtering (Lemma
        # 4.3's monotonicity); only strategies whose output is support-
        # filterable may use it — maximal/top-k/quasi stay exact-replay.
        allow_sweep = not capture and self._miner.strategy.supports_sweep
        cached: Dict[Label, CachedRoot] = {}
        if self.cache is not None:
            fingerprint, digest = self._cache_keys()
            for root in roots:
                entry = self.cache.lookup(
                    fingerprint,
                    digest,
                    abs_sup,
                    root,
                    need_statistics=not allow_sweep,
                    need_events=capture,
                    sample_every=sample_every,
                    allow_sweep=allow_sweep,
                )
                if entry is not None:
                    cached[root] = entry
        report.roots_from_cache = len(cached)
        to_mine = tuple(root for root in roots if root not in cached)
        if to_mine:
            self._prepare()
        # A cache stores each root's substream: a recorder rides beside
        # the live sinks and, at each root boundary, holds that root's
        # events, whether mined live or replayed.
        recorder = None
        if capture and self.cache is not None:
            recorder = _ListSink()
            live_sinks = hooks.sinks
            hooks.sinks = live_sinks + (recorder,)
        # Where each run of uncached roots ends (exclusive).
        run_end = [0] * len(roots)
        end = len(roots)
        for position in range(len(roots) - 1, -1, -1):
            if roots[position] in cached:
                end = position
            run_end[position] = end

        gate = None
        if self.processes > 1 and to_mine:
            gate = _PoolGate(self.processes, POOL_START_SECONDS, to_mine, self._estimates)
        pooled = None
        #: The inline sweep over the current chunk of a run.
        sweep: Optional[Iterator[MiningResult]] = None
        try:
            for position, root in enumerate(roots):
                if hooks is not None:
                    hooks.begin_root(root)
                entry = cached.get(root)
                replayed = entry is not None
                if replayed:
                    part = entry.result(self.config.closed_only)
                    events = entry.events if capture else ()
                else:
                    part = None if sweep is None else next(sweep, None)
                    if part is None:
                        sweep = None
                        if pooled is None and gate is not None and gate.pays():
                            report.pool_started = True
                            pooled = self._mine_pooled(
                                abs_sup,
                                to_mine[gate.mined :],
                                sample_every,
                                capture,
                                report,
                                gate.estimates,
                            )
                        if pooled is None:
                            run = roots[position : run_end[position]]
                            if gate is not None:
                                run = run[: gate.chunk(run)]
                            sweep = self._miner.mine_roots(abs_sup, run, hooks)
                            report.roots_inline += len(run)
                            part = next(sweep)
                    if sweep is not None:
                        events = ()
                        report.record(os.getpid(), part.elapsed_seconds)
                        if gate is not None:
                            gate.record((root,), part.elapsed_seconds)
                    else:
                        if hooks is not None:
                            hooks.check()
                        part, events = next(pooled)
                        replayed = True
                if replayed and hooks is not None:
                    hooks.replay(events, len(part), part.statistics.prefixes_visited)
                if recorder is not None:
                    events = tuple(recorder.events)
                    recorder.events.clear()
                if entry is None:
                    self._store(abs_sup, root, part, events, capture, sample_every)
                report.elapsed_seconds = time.perf_counter() - started
                yield root, part, events
        finally:
            if sweep is not None:
                sweep.close()
            if pooled is not None:
                pooled.close()
            if recorder is not None:
                hooks.sinks = live_sinks

    def _estimates(self, roots: Sequence[Label]) -> Dict[Label, float]:
        slab = self.database.slab_space() if self.config.kernel == SLAB else None
        return estimate_root_costs(self.database, roots, slab)

    def _cache_keys(self) -> Tuple[str, str]:
        if self._fingerprint is None:
            from ..io.runlog import database_fingerprint

            self._fingerprint = database_fingerprint(self.database)
        if self._digest is None:
            self._digest = engine_digest(self.task, self.config, self.k, self.gamma)
        return self._fingerprint, self._digest

    def _store(
        self,
        abs_sup: int,
        root: Label,
        part: MiningResult,
        events: Tuple[MiningEvent, ...],
        capture_events: bool,
        sample_every: int,
    ) -> None:
        if self.cache is None:
            return
        self.cache.store(
            *self._cache_keys(),
            CachedRoot(
                root=root,
                abs_sup=abs_sup,
                patterns=tuple(part),
                statistics=part.statistics.snapshot(),
                events=events if capture_events else None,
                events_sample_every=sample_every if capture_events else 0,
            ),
        )

    # -- the pool -------------------------------------------------------
    def _mine_pooled(
        self,
        abs_sup: int,
        roots: Tuple[Label, ...],
        sample_every: int,
        capture_events: bool,
        report: ExecutorReport,
        estimates: Optional[Dict[Label, float]] = None,
    ) -> Iterator[Tuple[MiningResult, Tuple[MiningEvent, ...]]]:
        """Mine ``roots`` on the pool; yield ``(result, events)`` in order.

        The pool runs :func:`plan_tasks`' plan, submitted whole, and each
        root is reassembled once all of its tasks have arrived.
        ``estimates`` are the roots' static costs when the caller has
        them already (the pool gate's).
        """
        extension_plan = None
        if self.scheduler == STEALING:
            estimates = estimates or self._estimates(roots)
            extension_plan = functools.partial(self._miner.root_extension_plan, abs_sup)
        else:
            estimates = dict.fromkeys(roots, 1.0)
        tasks = plan_tasks(roots, estimates, self.processes, self.split_factor, extension_plan)
        task_counts = collections.Counter(task.roots[0] for task in tasks)
        report.splits = sum(1 for count in task_counts.values() if count > 1)
        jobs = []
        for task in tasks:
            task_sample = sample_every
            if capture_events and task_counts[task.roots[0]] > 1:
                # Split tasks record every prefix; the parent re-derives
                # the sampling during replay.
                task_sample = 1 if sample_every else 0
            jobs.append((_execute_task, (abs_sup, task, task_sample, capture_events)))
        finished: Dict[Label, Dict[int, Any]] = {root: {} for root in roots}
        with contextlib.closing(self._pool_results(jobs, ordered=False)) as arrivals:
            for root in roots:
                while len(finished[root]) < task_counts[root]:
                    done, part, events, seconds, pid = next(arrivals)
                    report.record(pid, seconds)
                    finished[done.roots[0]][done.seq] = (part, events)
                yield self._merge_root(finished.pop(root), sample_every, capture_events)

    def _merge_root(
        self,
        done: Dict[int, Tuple[MiningResult, Tuple[MiningEvent, ...]]],
        sample_every: int,
        capture_events: bool,
    ) -> Tuple[MiningResult, Tuple[MiningEvent, ...]]:
        """Fold one root's task results, keyed by ``seq``, into the serial shape."""
        if len(done) == 1:
            return done[0]
        ordered = [done[seq] for seq in range(len(done))]
        merged = MiningResult(
            min_sup=ordered[0][0].min_sup, closed_only=self.config.closed_only
        )
        collected: List[Any] = []
        for part, _events in ordered:
            merged.statistics.merge(part.statistics)
            collected.extend(part)
        # Within one root, task order ≡ extension order ≡ canonical
        # order, but sort anyway: MiningResult.add rejects duplicates,
        # an independent safety net under the split's disjointness.
        for pattern in sorted(collected, key=lambda p: p.form.labels):
            merged.add(pattern)
        merged.elapsed_seconds = sum(part.elapsed_seconds for part, _ in ordered)
        events: Tuple[MiningEvent, ...] = ()
        if capture_events:
            events = _replay_substreams([events for _, events in ordered], sample_every)
        return merged, events


# ----------------------------------------------------------------------
# Deprecated one-call wrapper (formerly repro.core.parallel)
# ----------------------------------------------------------------------
def mine_closed_cliques_parallel(
    database: GraphDatabase,
    min_sup: float,
    processes: Optional[int] = None,
    config: Optional[MinerConfig] = None,
    chunks_per_process: int = 4,
    scheduler: str = STEALING,
) -> MiningResult:
    """Deprecated: use ``repro.mine(db, MiningRequest(min_sup=...,
    config=..., processes=N))``.

    Stage 1 of the CONTRIBUTING.md deprecation policy: warns, then runs
    exactly that request (``processes=None`` means the CPU count;
    ``chunks_per_process`` is ignored).
    """
    warnings.warn(
        "mine_closed_cliques_parallel is deprecated; use "
        "repro.mine(db, MiningRequest(min_sup=..., config=..., processes=N))",
        DeprecationWarning,
        stacklevel=2,
    )
    from .api import MiningRequest, mine

    return mine(
        database,
        MiningRequest(
            min_sup=min_sup,
            task="frequent" if config is not None and not config.closed_only else "closed",
            config=config,
            processes=multiprocessing.cpu_count() if processes is None else processes,
            scheduler=scheduler,
        ),
    )
