"""The mining control plane: streaming progress, budgets, checkpoints.

A plain :meth:`ClanMiner.mine` call is an opaque block — fine for small
databases, unusable for the long-running dense workloads the paper
targets.  :class:`MiningSession` wraps the same DFS with the
observability and robustness shape a production service needs:

* a typed **event stream** (:class:`SearchStarted`, :class:`RootStarted`,
  :class:`PrefixVisited` (sampled), :class:`PatternEmitted`,
  :class:`SubtreePruned`, :class:`RootFinished`, :class:`SearchFinished`)
  delivered to pluggable sinks — callbacks, an in-memory ring buffer, a
  JSONL trace file, a progress printer;
* **cooperative cancellation and budgets** — a wall-clock deadline, a
  pattern cap, a prefix cap — checked at prefix boundaries, stopping the
  search with a well-defined partial result;
* **checkpoint/resume** by completed DFS roots.

The exactness guarantee rides on the property already proven for
:mod:`repro.core.executor`: under structural redundancy pruning each
pattern belongs to exactly one DFS subtree (rooted at its smallest
label), and every closure/pruning decision inside a subtree consults
only that subtree's embeddings.  The session therefore mines root by
root; when a budget or cancellation interrupts it, the subtree in
flight is discarded and the returned :class:`MiningResult` is flagged
``truncated`` with ``completed_roots`` — and is *provably equal* to a
``root_labels``-restricted mine of exactly those roots.  A checkpoint
records the completed roots and their patterns; resuming mines only the
remainder, and the union is identical to an uninterrupted mine.

The session drives its roots through the one root runner,
:meth:`MiningExecutor.iter_roots <repro.core.executor.MiningExecutor.iter_roots>`,
handing it the run's live :class:`SearchHooks`.  With ``processes=1``
the runner mines every run of uncached roots in this process in one
engine sweep under those hooks, handing each root back at its
boundary, so budgets and cancellation act at every prefix, sinks see
events as they happen, and the session publishes each root's
heartbeat before the next root is mined.  With ``processes > 1`` the
runner does the same until its pool gate starts the pool; pool
workers then record per-root event substreams, and the runner replays
them to the sinks in canonical order, so budgets act at root
boundaries from there on.  Cached roots
replay the same way on either path.  Events are deterministic — they carry no
wall-clock timestamps — so serial, pooled, and cached sessions produce
byte-identical streams for the same database.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Deque,
    Dict,
    IO,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from ..exceptions import MiningError
from ..graphdb.database import GraphDatabase
from .canonical import Label
from .config import MinerConfig
from .embeddings import EmbeddingStore
from .engine import finalize_patterns
from .pattern import CliquePattern
from .results import MiningResult
from .statistics import MinerStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .api import MiningRequest
    from .cache import MiningCache

__all__ = [
    "CallbackSink",
    "CancellationToken",
    "EventSink",
    "JsonlTraceSink",
    "MiningBudget",
    "MiningCheckpoint",
    "MiningEvent",
    "MiningSession",
    "PatternEmitted",
    "PrefixVisited",
    "ProgressSink",
    "RingBufferSink",
    "RootFinished",
    "RootStarted",
    "SearchAborted",
    "SearchFinished",
    "SearchHooks",
    "SearchStarted",
    "SubtreePruned",
    "event_from_dict",
    "event_to_dict",
    "iter_session_events",
]


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchStarted:
    """The session began: scope of the search and of this run."""

    kind: ClassVar[str] = "search_started"
    task: str
    min_sup: int
    n_transactions: int
    #: Every frequent root of the database, in canonical order.
    roots: Tuple[Label, ...]
    #: Roots this run will actually mine (excludes resumed ones).
    pending_roots: Tuple[Label, ...]
    #: Roots carried in finished from a resumed checkpoint.
    resumed_roots: Tuple[Label, ...]


@dataclass(frozen=True)
class RootStarted:
    """One DFS root's subtree search began."""

    kind: ClassVar[str] = "root_started"
    root: Label
    index: int
    n_pending: int


@dataclass(frozen=True)
class PrefixVisited:
    """A sampled DFS prefix (every ``sample_every``-th within a root)."""

    kind: ClassVar[str] = "prefix_visited"
    form: Tuple[Label, ...]
    support: int
    depth: int
    #: 1-based count of prefixes visited within the current root.
    ordinal: int


@dataclass(frozen=True)
class PatternEmitted:
    """A pattern was added to the result set."""

    kind: ClassVar[str] = "pattern_emitted"
    form: Tuple[Label, ...]
    support: int
    size: int


@dataclass(frozen=True)
class SubtreePruned:
    """A whole subtree was cut.

    ``reason`` names the strategy's bound: ``"nonclosed_prefix"``
    (Lemma 4.4, the clique tasks) or ``"quasi_cc_bound"`` (the
    c-closure feasibility bound, ``task="quasi"``).
    """

    kind: ClassVar[str] = "subtree_pruned"
    form: Tuple[Label, ...]
    reason: str


@dataclass(frozen=True)
class RootFinished:
    """One DFS root completed; the per-root heartbeat."""

    kind: ClassVar[str] = "root_finished"
    root: Label
    index: int
    n_pending: int
    patterns: int
    #: :meth:`MinerStatistics.snapshot` of this root's subtree only.
    statistics: Dict[str, Any]


@dataclass(frozen=True)
class SearchFinished:
    """The session ended, normally or truncated."""

    kind: ClassVar[str] = "search_finished"
    patterns: int
    truncated: bool
    #: Why the run stopped early (``"deadline"``, ``"max_patterns"``,
    #: ``"max_prefixes"``, ``"cancelled"``) or ``None`` when complete.
    reason: Optional[str]
    completed_roots: Tuple[Label, ...]


MiningEvent = Union[
    SearchStarted,
    RootStarted,
    PrefixVisited,
    PatternEmitted,
    SubtreePruned,
    RootFinished,
    SearchFinished,
]

_EVENT_TYPES: Dict[str, Type[Any]] = {
    cls.kind: cls
    for cls in (
        SearchStarted,
        RootStarted,
        PrefixVisited,
        PatternEmitted,
        SubtreePruned,
        RootFinished,
        SearchFinished,
    )
}

#: Event fields holding label tuples (JSON lists must convert back).
_TUPLE_FIELDS = {"form", "roots", "pending_roots", "resumed_roots", "completed_roots"}


def event_to_dict(event: MiningEvent) -> Dict[str, Any]:
    """Convert an event to a JSON-ready dict (``{"event": kind, ...}``)."""
    payload: Dict[str, Any] = {"event": event.kind}
    for field_ in fields(event):
        value = getattr(event, field_.name)
        if isinstance(value, tuple):
            value = list(value)
        payload[field_.name] = value
    return payload


def event_from_dict(payload: Dict[str, Any]) -> MiningEvent:
    """Rebuild an event from :func:`event_to_dict` output."""
    kind = payload.get("event")
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise MiningError(f"unknown event kind {kind!r}")
    kwargs: Dict[str, Any] = {}
    for field_ in fields(cls):
        if field_.name not in payload:
            raise MiningError(f"event {kind!r} is missing field {field_.name!r}")
        value = payload[field_.name]
        if field_.name in _TUPLE_FIELDS:
            value = tuple(value)
        elif field_.name == "statistics":
            value = dict(value)
        kwargs[field_.name] = value
    return cls(**kwargs)


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class EventSink:
    """Receives session events; subclass and override :meth:`emit`.

    Hot paths deliver events in batches through :meth:`emit_batch`;
    the default unrolls a batch into per-event :meth:`emit` calls, so
    existing sinks keep working unchanged.  Sinks with a cheap bulk
    ingest (buffers, files) override it to amortise per-event call
    overhead.
    """

    def emit(self, event: MiningEvent) -> None:
        raise NotImplementedError

    def emit_batch(self, events: Sequence[MiningEvent]) -> None:
        """Receive several events at once, oldest first."""
        for event in events:
            self.emit(event)

    def close(self) -> None:
        """Called once when the session finishes (flush/close files)."""


class CallbackSink(EventSink):
    """Forward every event to a callable."""

    def __init__(self, callback: Callable[[MiningEvent], None]) -> None:
        self.callback = callback

    def emit(self, event: MiningEvent) -> None:
        self.callback(event)


class RingBufferSink(EventSink):
    """Keep the last ``capacity`` events in memory (``None``: keep all)."""

    def __init__(self, capacity: Optional[int] = 4096) -> None:
        self.events: Deque[MiningEvent] = deque(maxlen=capacity)

    def emit(self, event: MiningEvent) -> None:
        self.events.append(event)

    def emit_batch(self, events: Sequence[MiningEvent]) -> None:
        self.events.extend(events)

    def of_kind(self, kind: str) -> List[MiningEvent]:
        """The buffered events of one kind, oldest first."""
        return [event for event in self.events if event.kind == kind]


class JsonlTraceSink(EventSink):
    """Append one JSON object per event to a trace file.

    The format is one :func:`event_to_dict` payload per line; read it
    back with :func:`repro.io.runlog.open_trace`.
    """

    def __init__(self, path: Union[str, "object"]) -> None:
        self._stream: IO[str] = open(path, "w", encoding="utf-8")

    def emit(self, event: MiningEvent) -> None:
        json.dump(event_to_dict(event), self._stream, sort_keys=True)
        self._stream.write("\n")

    def emit_batch(self, events: Sequence[MiningEvent]) -> None:
        lines = [
            json.dumps(event_to_dict(event), sort_keys=True) + "\n"
            for event in events
        ]
        self._stream.writelines(lines)

    def close(self) -> None:
        self._stream.close()


class ProgressSink(EventSink):
    """Human-readable heartbeat lines (the CLI's ``--progress``).

    The only sink that consults a clock — rates are presentation, not
    part of the event stream, so determinism of the stream is kept.
    """

    def __init__(self, stream: Optional[IO[str]] = None, label: str = "clan") -> None:
        import sys

        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self._started_at = time.monotonic()
        self._prefixes = 0
        self._patterns = 0

    def emit(self, event: MiningEvent) -> None:
        if isinstance(event, SearchStarted):
            self._started_at = time.monotonic()
            print(
                f"[{self.label}] mining {len(event.pending_roots)} roots "
                f"(min_sup={event.min_sup}, {event.n_transactions} transactions"
                + (
                    f", {len(event.resumed_roots)} roots resumed from checkpoint)"
                    if event.resumed_roots
                    else ")"
                ),
                file=self.stream,
            )
        elif isinstance(event, RootFinished):
            self._prefixes += int(event.statistics.get("prefixes_visited", 0))
            self._patterns += event.patterns
            elapsed = max(time.monotonic() - self._started_at, 1e-9)
            print(
                f"[{self.label}] root {event.index + 1}/{event.n_pending} "
                f"{event.root!r} done: {self._patterns} patterns, "
                f"{self._prefixes} prefixes, {self._prefixes / elapsed:.0f} prefixes/s",
                file=self.stream,
            )
        elif isinstance(event, SearchFinished):
            state = f"TRUNCATED ({event.reason})" if event.truncated else "complete"
            print(
                f"[{self.label}] search {state}: {event.patterns} patterns, "
                f"{len(event.completed_roots)} roots finished",
                file=self.stream,
            )


class _ListSink(EventSink):
    """Unbounded in-order event recorder (worker-side replay buffer)."""

    def __init__(self) -> None:
        self.events: List[MiningEvent] = []

    def emit(self, event: MiningEvent) -> None:
        self.events.append(event)

    def emit_batch(self, events: Sequence[MiningEvent]) -> None:
        self.events.extend(events)


# ----------------------------------------------------------------------
# Budgets and cancellation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MiningBudget:
    """Cooperative resource bounds, checked at prefix boundaries.

    ``deadline_seconds``
        Wall-clock limit for the run (measured from :meth:`MiningSession.
        run`).  Granularity: one DFS prefix serially, one root in
        parallel mode.
    ``max_patterns``
        Stop once this many patterns have been produced by this run.
    ``max_expanded_prefixes``
        Stop once this many DFS prefixes have been expanded by this run.

    A tripped budget never yields a wrong result — the subtree in
    flight is discarded and the partial result is exact for its
    ``completed_roots``.  Budgets count work of the *current* run only;
    resuming from a checkpoint starts fresh counters.
    """

    deadline_seconds: Optional[float] = None
    max_patterns: Optional[int] = None
    max_expanded_prefixes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("deadline_seconds", "max_patterns", "max_expanded_prefixes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise MiningError(f"{name} must be positive when set, got {value!r}")

    @property
    def unbounded(self) -> bool:
        return (
            self.deadline_seconds is None
            and self.max_patterns is None
            and self.max_expanded_prefixes is None
        )


class CancellationToken:
    """Thread-safe cooperative cancellation flag."""

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request the session stop at the next prefix boundary."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class SearchAborted(Exception):
    """Internal control flow: a budget/cancellation tripped mid-root.

    Raised by :class:`SearchHooks` inside the engine's search loop
    (:meth:`MiningEngine._search`), passed up through the executor's
    root runner, and caught by :class:`MiningSession` — it never
    escapes to callers.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ----------------------------------------------------------------------
# The instrumentation object threaded through the DFS
# ----------------------------------------------------------------------
#: Buffered events per :meth:`SearchHooks.flush` on emission-heavy
#: searches: one ``emit_batch`` call per sink per this many events.
EVENT_BATCH_SIZE = 256


class SearchHooks:
    """Per-prefix instrumentation for :meth:`MiningEngine._search`.

    Designed to be near-zero-cost: the miner guards every call site
    with ``if hooks is not None``, and with no sinks, budget, or token
    each call is a couple of integer increments and ``None`` tests
    (overhead measured in ``benchmarks/test_session_overhead.py``).

    Events are not pushed to the sinks one at a time: armed hooks
    append to a pending buffer and flush it as a batch — every
    :data:`EVENT_BATCH_SIZE` events, and always at root boundaries and
    when a search ends or aborts (the engine calls :meth:`flush`
    there), so each sink still sees the exact ordered stream.
    Batching is what keeps the armed overhead low on emission-heavy
    searches: one ``emit_batch`` call per couple hundred events instead
    of a python call per sink per event.
    """

    __slots__ = (
        "sinks",
        "budget",
        "token",
        "sample_every",
        "deadline_at",
        "pending",
        "total_prefixes",
        "total_patterns",
        "root_prefixes",
        "root_patterns",
    )

    def __init__(
        self,
        sinks: Sequence[EventSink] = (),
        budget: Optional[MiningBudget] = None,
        token: Optional[CancellationToken] = None,
        sample_every: int = 0,
        deadline_at: Optional[float] = None,
    ) -> None:
        self.sinks = tuple(sinks)
        self.budget = budget if budget is not None and not budget.unbounded else None
        self.token = token
        self.sample_every = sample_every
        self.deadline_at = deadline_at
        self.pending: List[MiningEvent] = []
        self.total_prefixes = 0
        self.total_patterns = 0
        self.root_prefixes = 0
        self.root_patterns = 0

    def begin_root(self, root: Label) -> None:
        """Reset per-root counters (keeps event streams deterministic)."""
        self.flush()
        self.root_prefixes = 0
        self.root_patterns = 0

    # -- called from MiningEngine._search ------------------------------
    def enter_prefix(self, labels: Tuple[Label, ...], store: EmbeddingStore) -> None:
        """One DFS node: budget/cancellation checks plus sampling.

        ``labels`` is the bare canonical label tuple the engine's
        iterative loop carries (no :class:`CanonicalForm` exists on the
        hot path).  Hooks with no budget, token, deadline, or sampling
        are never called here at all — the engine settles
        ``total_prefixes``/``root_prefixes`` from its local node count
        at subtree boundaries instead, so dormant instrumentation pays
        nothing per node.
        """
        self.check()
        self.total_prefixes += 1
        self.root_prefixes += 1
        if self.sample_every and self.root_prefixes % self.sample_every == 0:
            self._dispatch(
                PrefixVisited(
                    form=labels,
                    support=store.support,
                    depth=len(labels),
                    ordinal=self.root_prefixes,
                )
            )

    def check(self) -> None:
        """The one stop rule: before each expanded prefix and each pooled root.

        Raises :class:`SearchAborted` once a budget trips or the run is
        cancelled; a run that completed every root is never truncated.
        """
        budget = self.budget
        if budget is not None:
            if self.deadline_at is not None and time.monotonic() >= self.deadline_at:
                raise SearchAborted("deadline")
            if (
                budget.max_expanded_prefixes is not None
                and self.total_prefixes >= budget.max_expanded_prefixes
            ):
                raise SearchAborted("max_prefixes")
            if (
                budget.max_patterns is not None
                and self.total_patterns >= budget.max_patterns
            ):
                raise SearchAborted("max_patterns")
        if self.token is not None and self.token.cancelled:
            raise SearchAborted("cancelled")

    def pattern(self, pattern: CliquePattern) -> None:
        self.total_patterns += 1
        self.root_patterns += 1
        if self.sinks:
            self._dispatch(
                PatternEmitted(
                    form=pattern.form.labels,
                    support=pattern.support,
                    size=pattern.size,
                )
            )

    def pruned(self, labels: Tuple[Label, ...], reason: str) -> None:
        if self.sinks:
            self._dispatch(SubtreePruned(form=labels, reason=reason))

    def replay(self, events: Sequence[MiningEvent], patterns: int, prefixes: int) -> None:
        """Deliver and count a root mined elsewhere (cache or pool).

        Budgets are enforced lazily at the next expanded prefix;
        advancing the run-wide counters here makes roots mined
        afterwards trip as if this one had been mined live.
        """
        self.flush()
        if events:
            for sink in self.sinks:
                sink.emit_batch(events)
        self.total_prefixes += prefixes
        self.total_patterns += patterns

    def _dispatch(self, event: MiningEvent) -> None:
        if not self.sinks:
            return
        self.pending.append(event)
        if len(self.pending) >= EVENT_BATCH_SIZE:
            self.flush()

    def flush(self) -> None:
        """Push every buffered event to the sinks, preserving order."""
        pending = self.pending
        if pending:
            batch = tuple(pending)
            pending.clear()
            for sink in self.sinks:
                sink.emit_batch(batch)


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class MiningCheckpoint:
    """A resumable snapshot of a (possibly truncated) session.

    Persist with :func:`repro.io.runlog.save_checkpoint` /
    :func:`repro.io.runlog.open_checkpoint`.  The JSON payload carries
    the task, the *absolute* support, the full miner config, a
    structural database fingerprint, the completed root labels, and the
    patterns mined from those roots.  Resuming validates the
    fingerprint, support, and config (every field but ``kernel``, which
    changes no pattern) before skipping any work.
    """

    task: str
    min_sup: int
    config: Dict[str, Any]
    database_fingerprint: str
    n_transactions: int
    completed_roots: Tuple[Label, ...]
    result: Dict[str, Any]
    #: ``task="topk"`` only: the k the run was started with (older
    #: checkpoints carry no ``k`` key and load as ``None``).
    k: Optional[int] = None
    #: ``task="quasi"`` only: the density the run was started with
    #: (older checkpoints carry no ``gamma`` key and load as ``None``).
    gamma: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "mining-checkpoint",
            "version": CHECKPOINT_VERSION,
            "task": self.task,
            "min_sup": self.min_sup,
            "config": dict(self.config),
            "database_fingerprint": self.database_fingerprint,
            "n_transactions": self.n_transactions,
            "completed_roots": list(self.completed_roots),
            "result": self.result,
            "k": self.k,
            "gamma": self.gamma,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MiningCheckpoint":
        if payload.get("kind") != "mining-checkpoint":
            raise MiningError(
                f"expected kind 'mining-checkpoint', got {payload.get('kind')!r}"
            )
        k = payload.get("k")
        gamma = payload.get("gamma")
        return cls(
            task=payload["task"],
            min_sup=int(payload["min_sup"]),
            config=dict(payload["config"]),
            database_fingerprint=payload["database_fingerprint"],
            n_transactions=int(payload["n_transactions"]),
            completed_roots=tuple(payload["completed_roots"]),
            result=dict(payload["result"]),
            k=int(k) if k is not None else None,
            gamma=float(gamma) if gamma is not None else None,
        )

    def patterns(self) -> MiningResult:
        """Rehydrate the patterns of the completed roots."""
        from ..io.json_format import result_from_dict

        return result_from_dict(self.result)


def _without_kernel(config: Dict[str, Any]) -> Dict[str, Any]:
    """A config dict minus ``kernel``: no pattern depends on it (the
    kernel differential suite is that contract), so a checkpoint resumes
    under any kernel."""
    return {key: value for key, value in config.items() if key != "kernel"}


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------
class MiningSession:
    """A controllable, observable engine-task mining run.

    Examples
    --------
    >>> from repro.graphdb import paper_example_database
    >>> session = MiningSession(paper_example_database(), min_sup=2)
    >>> sorted(p.key() for p in session.run())
    ['abcd:2', 'bde:2']

    Parameters
    ----------
    database, min_sup:
        As for :func:`repro.mine`; ``min_sup`` accepts counts,
        fractions, and ``"85%"`` strings.
    task:
        Any engine task: ``"closed"`` (default), ``"frequent"``,
        ``"maximal"``, ``"topk"`` (requires ``k``), or ``"quasi"``
        (requires ``gamma`` and a ``config`` with a finite
        ``max_size``).  All five run the same
        :class:`~repro.core.engine.MiningEngine` under a task
        strategy, so budgets, sinks, checkpoints, worker pools, and
        the cache's exact-replay tier apply uniformly.
    k:
        ``task="topk"`` only: how many of the largest closed cliques
        to keep.  Per-root candidates accumulate across roots (and
        across checkpoint/resume); the *global* k best are selected
        when the result is built.
    gamma:
        ``task="quasi"`` only: the γ density threshold in
        ``[0.5, 1.0]``.  Checkpoints record it, and resuming
        validates it the same way ``k`` is validated for top-k.
    config:
        Optional :class:`MinerConfig`; must agree with ``task`` and
        keep structural redundancy pruning on (root partitioning).
    budget:
        A :class:`MiningBudget`; ``None`` mines to completion.
    sinks:
        :class:`EventSink` instances; all are closed when the run ends.
    sample_every:
        Emit every N-th prefix of each root as :class:`PrefixVisited`
        (0, the default, disables prefix events).
    processes:
        ``1`` (default) mines every root in this process, under the
        session's hooks.  ``> 1`` is an upper bound: roots are mined
        the same way until the executor's pool gate finds the pool
        pays, and the rest in the
        :class:`repro.core.executor.MiningExecutor` pool; workers send
        each root's event substream back, and the runner replays them
        in canonical root order, so the observable stream matches the
        serial one byte for byte.  Budgets and cancellation stop
        pool-mined roots at root granularity, by the inline stop rule
        (:meth:`SearchHooks.check`).  Either way the result's
        statistics equal the serial engine's, launcher work included.
    scheduler:
        ``"stealing"`` (default) submits roots heaviest first,
        splitting dominant roots into their level-2 subtrees;
        ``"static"`` submits roots in canonical order with no
        splitting (the legacy behaviour).  Either way the stream and
        result are identical — the knob only changes wall-clock.
    split_factor:
        Optional override of the stealing scheduler's split threshold
        (see :data:`repro.core.executor.DEFAULT_SPLIT_FACTOR`); the
        equivalence tests force every root to split with ``0.0``.
    resume_from:
        A :class:`MiningCheckpoint`; its completed roots are loaded,
        not re-mined.
    cache:
        Optional :class:`~repro.core.cache.MiningCache`, looked up and
        fed by the executor's root runner on either ``processes``
        path.  Roots it holds exact entries for (with statistics *and*
        an event substream recorded at this ``sample_every``) are
        replayed instead of mined — the emitted stream stays
        byte-identical to a cold run — and every root this session
        mines is stored back.  A fully cached run starts no pool and
        builds no index.  Sessions never use the sweep tier: their
        events and per-root statistics cannot be derived by
        filtering.  Budgets see replayed roots at root granularity: a
        replay expands no prefixes and is never interrupted, but its
        pattern/prefix counts still advance the budget counters, so
        roots mined afterwards respect the budget.
    """

    def __init__(
        self,
        database: GraphDatabase,
        min_sup: Union[int, float, str],
        task: str = "closed",
        config: Optional[MinerConfig] = None,
        budget: Optional[MiningBudget] = None,
        sinks: Sequence[EventSink] = (),
        sample_every: int = 0,
        processes: int = 1,
        scheduler: str = "stealing",
        split_factor: Optional[float] = None,
        resume_from: Optional[MiningCheckpoint] = None,
        cache: Optional["MiningCache"] = None,
        k: Optional[int] = None,
        gamma: Optional[float] = None,
    ) -> None:
        if sample_every < 0:
            raise MiningError(f"sample_every must be >= 0, got {sample_every}")
        from .executor import MiningExecutor

        # The executor validates the task, k/gamma, config, processes,
        # and scheduler; it starts no pool and builds no index until
        # run() reaches a root it must mine.
        options = {} if split_factor is None else {"split_factor": split_factor}
        self._executor = MiningExecutor(
            database,
            config,
            processes=processes,
            scheduler=scheduler,
            cache=cache,
            task=task,
            k=k,
            gamma=gamma,
            **options,
        )
        self.database = database
        self.task = task
        self.k = k
        self.gamma = gamma
        self.config = self._executor.config
        self.abs_sup = database.absolute_support(min_sup)
        self.budget = budget
        self.sinks = tuple(sinks)
        self.sample_every = sample_every
        self.processes = processes
        self.scheduler = scheduler
        self.split_factor = split_factor
        self.cache = cache
        self.token = CancellationToken()
        self.result: Optional[MiningResult] = None
        self._completed: Dict[Label, List[CliquePattern]] = {}
        self._resumed_roots: Tuple[Label, ...] = ()
        self._statistics = MinerStatistics()
        self._ran = False
        if resume_from is not None:
            self._load_checkpoint(resume_from)

    # ------------------------------------------------------------------
    @classmethod
    def from_request(
        cls,
        database: GraphDatabase,
        request: "MiningRequest",
        *,
        sinks: Sequence[EventSink] = (),
        resume_from: Optional[MiningCheckpoint] = None,
        cache: Optional["MiningCache"] = None,
        budget: Optional[MiningBudget] = None,
        split_factor: Optional[float] = None,
    ) -> "MiningSession":
        """Build a session from a :class:`~repro.core.api.MiningRequest`.

        The request describes the run (task, support, config, budget,
        execution options); ``sinks``/``resume_from``/``cache`` are the
        runtime attachments that cannot ride on the wire.  ``budget``
        overrides the request's own budget when given — the service
        uses this to impose a default per-job SLO on requests that did
        not set one.  Checkpoints taken mid-run (e.g. from a
        ``RootFinished`` sink) are consistent: the completed-roots map
        is updated before the heartbeat event is emitted.
        """
        return cls(
            database,
            request.min_sup,
            task=request.task,
            config=request.resolved_config(),
            budget=budget if budget is not None else request.budget,
            sinks=sinks,
            sample_every=request.sample_every,
            processes=request.processes,
            scheduler=request.scheduler,
            split_factor=split_factor,
            resume_from=resume_from,
            cache=cache if request.use_cache else None,
            k=request.k,
            gamma=request.gamma,
        )

    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Request a cooperative stop (thread-safe, idempotent)."""
        self.token.cancel()

    @property
    def completed_roots(self) -> Tuple[Label, ...]:
        """Roots whose subtrees are fully mined so far, sorted."""
        return tuple(sorted(self._completed))

    # ------------------------------------------------------------------
    def run(self) -> MiningResult:
        """Execute the search; single-use.

        Returns the full :class:`MiningResult`, or a partial one with
        ``truncated=True`` when a budget tripped or :meth:`cancel` was
        called.  All sinks are closed before returning.
        """
        if self._ran:
            raise MiningError("a MiningSession runs once; create a new one to re-mine")
        self._ran = True
        started = time.perf_counter()
        deadline_at = None
        if self.budget is not None and self.budget.deadline_seconds is not None:
            deadline_at = time.monotonic() + self.budget.deadline_seconds

        roots = tuple(self.database.frequent_labels(self.abs_sup))
        pending = tuple(root for root in roots if root not in self._completed)
        self._publish(
            SearchStarted(
                task=self.task,
                min_sup=self.abs_sup,
                n_transactions=len(self.database),
                roots=roots,
                pending_roots=pending,
                resumed_roots=self._resumed_roots,
            )
        )
        hooks = SearchHooks(
            sinks=self.sinks,
            budget=self.budget,
            token=self.token,
            sample_every=self.sample_every,
            deadline_at=deadline_at,
        )
        executor = self._executor
        reason: Optional[str] = None
        try:
            # RootStarted for root i+1 is published before the runner
            # resumes to mine it, so live prefix events follow it.
            if pending:
                self._publish(RootStarted(root=pending[0], index=0, n_pending=len(pending)))
            try:
                runs = executor.iter_roots(self.abs_sup, pending, hooks)
                for index, (root, part, _events) in enumerate(runs):
                    self._finish_root(root, index, len(pending), part)
                    if index + 1 < len(pending):
                        self._publish(
                            RootStarted(
                                root=pending[index + 1],
                                index=index + 1,
                                n_pending=len(pending),
                            )
                        )
            except SearchAborted as stop:
                reason = stop.reason
            executor._charge_run(self._statistics, len(roots))
            result = self._build_result(reason, started)
            self._publish(
                SearchFinished(
                    patterns=len(result),
                    truncated=result.truncated,
                    reason=reason,
                    completed_roots=result.completed_roots,
                )
            )
        finally:
            executor.close()
            for sink in self.sinks:
                sink.close()
        self.result = result
        return result

    def _finish_root(
        self, root: Label, index: int, n_pending: int, part: MiningResult
    ) -> None:
        self._completed[root] = list(part)
        self._statistics.merge(part.statistics)
        self._publish(
            RootFinished(
                root=root,
                index=index,
                n_pending=n_pending,
                patterns=len(part),
                statistics=part.statistics.snapshot(),
            )
        )

    def _build_result(self, reason: Optional[str], started: float) -> MiningResult:
        result = MiningResult(
            min_sup=self.abs_sup,
            closed_only=self.config.closed_only,
            statistics=self._statistics,
            truncated=reason is not None,
            completed_roots=self.completed_roots,
        )
        collected: List[CliquePattern] = []
        for patterns in self._completed.values():
            collected.extend(patterns)
        for pattern in finalize_patterns(self.task, collected, self.k):
            result.add(pattern)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _publish(self, event: MiningEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> MiningCheckpoint:
        """Snapshot the completed roots for a later resume.

        Valid after :meth:`run` (truncated or not) — and also before it
        on a freshly resumed session.  Patterns of the subtree that was
        interrupted mid-flight are *not* included; that root re-mines
        on resume.
        """
        from ..io.json_format import result_to_dict
        from ..io.runlog import database_fingerprint

        interim = MiningResult(
            min_sup=self.abs_sup, closed_only=self.config.closed_only
        )
        collected: List[CliquePattern] = []
        for patterns in self._completed.values():
            collected.extend(patterns)
        for pattern in sorted(collected, key=lambda p: p.form.labels):
            interim.add(pattern)
        return MiningCheckpoint(
            task=self.task,
            min_sup=self.abs_sup,
            config=self.config.to_dict(),
            database_fingerprint=database_fingerprint(self.database),
            n_transactions=len(self.database),
            completed_roots=self.completed_roots,
            result=result_to_dict(interim),
            k=self.k,
            gamma=self.gamma,
        )

    def _load_checkpoint(self, checkpoint: MiningCheckpoint) -> None:
        from ..io.runlog import database_fingerprint

        if checkpoint.task != self.task:
            raise MiningError(
                f"checkpoint task {checkpoint.task!r} does not match {self.task!r}"
            )
        if checkpoint.k != self.k:
            raise MiningError(
                f"checkpoint k={checkpoint.k!r} does not match this "
                f"session's k={self.k!r}"
            )
        if checkpoint.gamma != self.gamma:
            raise MiningError(
                f"checkpoint gamma={checkpoint.gamma!r} does not match this "
                f"session's gamma={self.gamma!r}"
            )
        if checkpoint.min_sup != self.abs_sup:
            raise MiningError(
                f"checkpoint min_sup {checkpoint.min_sup} does not match "
                f"this session's absolute support {self.abs_sup}"
            )
        if _without_kernel(checkpoint.config) != _without_kernel(self.config.to_dict()):
            raise MiningError(
                "checkpoint was mined under a different MinerConfig; "
                "resume with the same configuration"
            )
        fingerprint = database_fingerprint(self.database)
        if checkpoint.database_fingerprint != fingerprint:
            raise MiningError(
                "checkpoint database fingerprint does not match this database "
                "(the input changed since the checkpoint was written)"
            )
        grouped: Dict[Label, List[CliquePattern]] = {
            root: [] for root in checkpoint.completed_roots
        }
        for pattern in checkpoint.patterns():
            root = pattern.form.labels[0]
            if root not in grouped:  # pragma: no cover - corrupt checkpoint
                raise MiningError(
                    f"checkpoint pattern {pattern.key()} belongs to root "
                    f"{root!r} which is not marked completed"
                )
            grouped[root].append(pattern)
        self._completed = grouped
        self._resumed_roots = tuple(sorted(grouped))


def iter_session_events(
    database: GraphDatabase,
    min_sup: Union[int, float, str],
    **session_options: Any,
) -> Iterable[MiningEvent]:
    """Convenience generator: run a session, yielding events in order.

    Buffers via an unbounded ring; for true streaming into your own
    machinery, pass a :class:`CallbackSink` to :class:`MiningSession`.
    """
    ring = RingBufferSink(capacity=None)
    sinks = tuple(session_options.pop("sinks", ())) + (ring,)
    session = MiningSession(database, min_sup, sinks=sinks, **session_options)
    session.run()
    return list(ring.events)
