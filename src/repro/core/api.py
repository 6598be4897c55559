"""The unified mining entry point and its typed request/response API.

The library grew seven near-duplicate entry points (closed, frequent,
maximal, top-k, quasi, parallel, incremental), each with subtly
different knobs, and :func:`mine` itself had accreted ~a dozen
loosely-typed keyword options.  This module is the one contract every
caller now shares:

* :class:`MiningRequest` — a versioned, serializable description of a
  mining run: the task, the support threshold, the config, and the
  execution/cache/session options.  ``to_json()``/``from_json()`` *is*
  the wire format of the mining service (:mod:`repro.service`), so an
  in-process call and an over-the-wire job are the same request object
  by construction.
* :class:`MiningResultEnvelope` — the response: the request echoed
  back, the :class:`~repro.core.results.MiningResult` core
  (patterns, support, truncation), and a non-canonical ``search``
  section (statistics, timing, cache counters).  Its
  ``canonical_json()`` is deterministic — byte-identical whether the
  run was in-process, over HTTP, cold, warm, or resumed from a
  checkpoint.
* :func:`mine` — the façade.  ``mine(database, request)`` is the
  primary signature; ``mine(database, 2)`` stays as sugar for a
  default request.
* :func:`execute_request` — the dispatcher underneath :func:`mine`,
  the CLI, and the service: a session, the serial engine, or one
  executor call for cached and/or pooled runs.

Dispatch table::

    task="closed"    closed cliques        MiningEngine / executor / session
    task="frequent"  all frequent cliques  MiningEngine / executor / session
    task="maximal"   maximal cliques       MiningEngine / executor / session
    task="topk"      k largest closed      MiningEngine / executor / session
                                           (k=... required)
    task="quasi"     closed quasi-cliques  MiningEngine / executor / session
                                           (gamma=..., max_size required)

All five are **engine tasks**: one enumeration core
(:mod:`repro.core.engine`) under task strategies, so kernels, worker
pools, sessions, and the cache's exact-replay tier apply uniformly.

``stream=True`` returns an unstarted
:class:`~repro.core.session.MiningSession` instead of running it, so
callers can attach a cancellation handler before calling
:meth:`~repro.core.session.MiningSession.run`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from ..exceptions import MiningError
from ..graphdb.database import GraphDatabase
from .cache import MiningCache
from .canonical import Label
from .config import MinerConfig
from .engine import engine_for_task
from .results import MiningResult
from .session import EventSink, MiningBudget, MiningCheckpoint, MiningSession
from .support import parse_support

__all__ = [
    "ENVELOPE_VERSION",
    "MINING_TASKS",
    "MiningRequest",
    "MiningResultEnvelope",
    "REQUEST_VERSION",
    "execute_request",
    "mine",
]

MINING_TASKS = ("closed", "frequent", "maximal", "topk", "quasi")

#: Version of the :class:`MiningRequest` wire format.
REQUEST_VERSION = 1

#: Version of the :class:`MiningResultEnvelope` wire format.
ENVELOPE_VERSION = 1

#: The historical quasi default density (``mine(..., task="quasi")``
#: without an explicit ``gamma``); the typed request requires gamma.
_LEGACY_QUASI_GAMMA = 0.8


# ----------------------------------------------------------------------
# The typed request
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MiningRequest:
    """A versioned, serializable description of one mining run.

    The request is the *entire* contract: :func:`repro.mine`, ``clan
    submit``, and the service's ``POST /v1/jobs`` all consume the same
    object, and ``from_json(to_json(r)) == r`` holds for every valid
    request (dataclass equality; property-tested per task in
    ``tests/test_api_contract.py``).

    Parameters
    ----------
    min_sup:
        Support threshold: an absolute count (``10``), a fraction
        (``0.85``), or a string in either spelling plus percentages
        (``"85%"``) — see :func:`repro.core.support.parse_support`.
    task:
        One of ``"closed"`` (default), ``"frequent"``, ``"maximal"``,
        ``"topk"`` (requires ``k``), ``"quasi"`` (requires ``gamma``
        and a finite ``max_size``).
    min_size / max_size:
        Size window on reported patterns.  ``task="maximal"`` rejects
        ``max_size`` (a capped search misreports maximality).
    k:
        ``task="topk"`` only: how many of the largest closed cliques.
    gamma:
        ``task="quasi"`` only: the γ density threshold in [0.5, 1.0].
    config:
        Full :class:`MinerConfig` control.  May be combined with the
        ``min_size``/``max_size``/``kernel``/``collect_witnesses``
        shorthands; contradictions raise :class:`MiningError`.
    kernel / collect_witnesses:
        Shorthand config overrides.
    processes / scheduler:
        Worker-pool execution (results are identical; only wall-clock
        differs).  Part of the request so a service job can ask for a
        pool, but excluded from cache keys and checkpoints.
        ``scheduler="static"`` is deprecated: it warns and is stored as
        ``"stealing"``, the only plan the pool runs.
    budget:
        A :class:`~repro.core.session.MiningBudget` — the per-job SLO.
        Any budget routes the run through a session; the result may
        come back ``truncated``.  An unbounded budget normalises to
        ``None``.
    sample_every:
        Emit every N-th prefix as a ``PrefixVisited`` event (0
        disables); implies a session when nonzero.
    use_cache:
        Whether this run may consult/populate a shared
        :class:`~repro.core.cache.MiningCache` offered by the caller
        or the service (``False`` forces a cold mine).
    """

    min_sup: Union[int, float, str] = 2
    task: str = "closed"
    min_size: int = 1
    max_size: Optional[int] = None
    k: Optional[int] = None
    gamma: Optional[float] = None
    config: Optional[MinerConfig] = None
    kernel: Optional[str] = None
    collect_witnesses: Optional[bool] = None
    processes: int = 1
    scheduler: str = "stealing"
    budget: Optional[MiningBudget] = None
    sample_every: int = 0
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.task not in MINING_TASKS:
            raise MiningError(
                f"unknown task {self.task!r}; expected one of {MINING_TASKS}"
            )
        from .executor import _resolve_scheduler

        # The deprecated "static" spelling warns once, here, and is
        # stored as the scheduler it runs.
        object.__setattr__(self, "scheduler", _resolve_scheduler(self.scheduler, 4))
        parse_support(self.min_sup)  # raises on malformed specs
        if self.processes < 1:
            raise MiningError(f"processes must be >= 1, got {self.processes}")
        if self.sample_every < 0:
            raise MiningError(f"sample_every must be >= 0, got {self.sample_every}")
        if self.task == "topk":
            if self.k is None:
                raise MiningError("task='topk' requires k=<number of patterns>")
            if self.k < 1:
                raise MiningError(f"k must be >= 1, got {self.k}")
        elif self.k is not None:
            raise MiningError(f"k only applies to task='topk', got task={self.task!r}")
        if self.task == "quasi":
            if self.gamma is None:
                raise MiningError(
                    "task='quasi' requires gamma=<density in [0.5, 1.0]>"
                )
            if not 0.5 <= self.gamma <= 1.0:
                raise MiningError(f"gamma must be in [0.5, 1.0], got {self.gamma}")
            if self.max_size is None and (
                self.config is None or self.config.max_size is None
            ):
                raise MiningError(
                    "task='quasi' requires max_size (the γ-quasi-clique "
                    "feasibility and c-closure bounds need a finite size "
                    "ceiling; see repro.core.quasiclique)"
                )
        elif self.gamma is not None:
            raise MiningError(
                f"gamma only applies to task='quasi', got task={self.task!r}"
            )
        if self.budget is not None and self.budget.unbounded:
            object.__setattr__(self, "budget", None)
        # Validate the config merge eagerly: contradictions (task vs
        # closed_only, maximal vs max_size, window conflicts, unknown
        # or retired kernels) surface at construction, not at execution.
        self.resolved_config()

    # -- builders ------------------------------------------------------
    @classmethod
    def from_options(
        cls,
        min_sup: Union[int, float, str] = 2,
        *,
        task: str = "closed",
        min_size: int = 1,
        max_size: Optional[int] = None,
        k: Optional[int] = None,
        gamma: Optional[float] = None,
        config: Optional[MinerConfig] = None,
        kernel: Optional[str] = None,
        collect_witnesses: Optional[bool] = None,
        processes: int = 1,
        scheduler: str = "stealing",
        budget: Optional[MiningBudget] = None,
        deadline: Optional[float] = None,
        max_patterns: Optional[int] = None,
        max_expanded_prefixes: Optional[int] = None,
        sample_every: int = 0,
        use_cache: bool = True,
    ) -> "MiningRequest":
        """Build a request from :func:`mine`-style keyword options.

        The sanctioned spelling of the legacy kwargs — warning-free,
        used by the soft-legacy wrappers and the CLI.  It reproduces
        the façade's historical defaults: ``task="quasi"`` fills
        ``gamma=0.8`` when omitted and bumps the default ``min_size``
        to 2 (no singleton quasi patterns unless a window is spelled
        out), and the ``deadline``/``max_patterns``/
        ``max_expanded_prefixes`` shorthands build a
        :class:`~repro.core.session.MiningBudget` (mutually exclusive
        with ``budget=``).
        """
        budget = _resolve_budget(budget, deadline, max_patterns, max_expanded_prefixes)
        if task == "quasi":
            if gamma is None:
                gamma = _LEGACY_QUASI_GAMMA
            if config is None and min_size == 1:
                min_size = 2
        else:
            gamma = None
        return cls(
            min_sup=min_sup,
            task=task,
            min_size=min_size,
            max_size=max_size,
            k=k,
            gamma=gamma,
            config=config,
            kernel=kernel,
            collect_witnesses=collect_witnesses,
            processes=processes,
            scheduler=scheduler,
            budget=budget,
            sample_every=sample_every,
            use_cache=use_cache,
        )

    # -- derived views -------------------------------------------------
    def resolved_config(self) -> MinerConfig:
        """The effective :class:`MinerConfig` after merging shorthands."""
        return MinerConfig.for_task(
            self.task,
            self.config,
            self.min_size,
            self.max_size,
            self.kernel,
            self.collect_witnesses,
        )

    def absolute_support(self, database: GraphDatabase) -> int:
        """This request's threshold as an absolute transaction count."""
        return database.absolute_support(parse_support(self.min_sup))

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; the inverse of :meth:`from_dict`."""
        budget = None
        if self.budget is not None:
            budget = {
                "deadline_seconds": self.budget.deadline_seconds,
                "max_patterns": self.budget.max_patterns,
                "max_expanded_prefixes": self.budget.max_expanded_prefixes,
            }
        return {
            "kind": "mining-request",
            "version": REQUEST_VERSION,
            "min_sup": self.min_sup,
            "task": self.task,
            "min_size": self.min_size,
            "max_size": self.max_size,
            "k": self.k,
            "gamma": self.gamma,
            "config": self.config.to_dict() if self.config is not None else None,
            "kernel": self.kernel,
            "collect_witnesses": self.collect_witnesses,
            "processes": self.processes,
            "scheduler": self.scheduler,
            "budget": budget,
            "sample_every": self.sample_every,
            "use_cache": self.use_cache,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MiningRequest":
        """Rebuild a request; unknown keys are rejected (typo safety)."""
        if payload.get("kind") != "mining-request":
            raise MiningError(
                f"expected kind 'mining-request', got {payload.get('kind')!r}"
            )
        version = payload.get("version")
        if not isinstance(version, int) or not 1 <= version <= REQUEST_VERSION:
            raise MiningError(
                f"unsupported mining-request version {version!r} "
                f"(this library speaks versions 1..{REQUEST_VERSION})"
            )
        known = {
            "kind",
            "version",
            "min_sup",
            "task",
            "min_size",
            "max_size",
            "k",
            "gamma",
            "config",
            "kernel",
            "collect_witnesses",
            "processes",
            "scheduler",
            "budget",
            "sample_every",
            "use_cache",
        }
        unknown = set(payload) - known
        if unknown:
            raise MiningError(
                f"unknown mining-request keys {sorted(unknown)}"
            )
        config = payload.get("config")
        budget = payload.get("budget")
        if budget is not None:
            extra = set(budget) - {
                "deadline_seconds",
                "max_patterns",
                "max_expanded_prefixes",
            }
            if extra:
                raise MiningError(f"unknown budget keys {sorted(extra)}")
        return cls(
            min_sup=payload.get("min_sup", 2),
            task=payload.get("task", "closed"),
            min_size=int(payload.get("min_size", 1)),
            max_size=payload.get("max_size"),
            k=payload.get("k"),
            gamma=payload.get("gamma"),
            config=MinerConfig.from_dict(config) if config is not None else None,
            kernel=payload.get("kernel"),
            collect_witnesses=payload.get("collect_witnesses"),
            processes=int(payload.get("processes", 1)),
            scheduler=payload.get("scheduler", "stealing"),
            budget=MiningBudget(**budget) if budget else None,
            sample_every=int(payload.get("sample_every", 0)),
            use_cache=bool(payload.get("use_cache", True)),
        )

    def to_json(self) -> str:
        """The canonical wire bytes (sorted keys, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "MiningRequest":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """A stable SHA-256 over the wire bytes (job dedup, cache keys)."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()


# ----------------------------------------------------------------------
# The typed response envelope
# ----------------------------------------------------------------------
@dataclass(eq=False)
class MiningResultEnvelope:
    """A :class:`MiningResult` plus the request that produced it.

    The envelope is what the service returns and what
    ``clan submit``/:func:`repro.io.runlog.save_envelope` persist.  Its
    dict has three sections:

    ``request``
        The :class:`MiningRequest`, echoed back verbatim.
    ``result``
        The canonical core: absolute support, ``closed_only``,
        ``truncated``, the completed roots (only when truncated —
        complete runs normalise to ``[]`` so plain-engine and session
        paths serialise identically), and the patterns.
    ``search``
        Observability: the deterministic statistics snapshot, wall
        clock, and cache counters.  **Not** part of the canonical
        bytes — a warm, parallel, or checkpoint-resumed run reports
        different counters but the same canonical envelope.

    :meth:`canonical_json` covers ``request`` + ``result`` only and is
    therefore byte-identical for any two exact runs of the same
    request, which is the contract the ``service-contract`` CI job
    pins.
    """

    request: MiningRequest
    result: MiningResult = field(repr=False)

    @classmethod
    def from_result(
        cls, request: MiningRequest, result: MiningResult
    ) -> "MiningResultEnvelope":
        return cls(request=request, result=result)

    @property
    def status(self) -> str:
        return "truncated" if self.result.truncated else "complete"

    # -- serialization -------------------------------------------------
    def canonical_dict(self) -> Dict[str, Any]:
        """The deterministic sections only (``request`` + ``result``)."""
        from ..io.json_format import pattern_to_dict

        result = self.result
        completed: Tuple[Label, ...] = ()
        if result.truncated and result.completed_roots is not None:
            completed = tuple(sorted(result.completed_roots))
        return {
            "kind": "mining-result-envelope",
            "version": ENVELOPE_VERSION,
            "request": self.request.to_dict(),
            "result": {
                "min_sup": result.min_sup,
                "closed_only": result.closed_only,
                "truncated": result.truncated,
                "completed_roots": list(completed),
                "patterns": [pattern_to_dict(p) for p in result],
            },
        }

    def to_dict(self) -> Dict[str, Any]:
        stats = self.result.statistics
        payload = self.canonical_dict()
        payload["search"] = {
            "statistics": stats.snapshot(),
            "elapsed_seconds": self.result.elapsed_seconds,
            "cache": {
                "roots_from_cache": stats.roots_from_cache,
                "hits": stats.cache_hits,
                "misses": stats.cache_misses,
            },
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MiningResultEnvelope":
        from ..io.json_format import pattern_from_dict
        from .statistics import MinerStatistics

        if payload.get("kind") != "mining-result-envelope":
            raise MiningError(
                f"expected kind 'mining-result-envelope', got {payload.get('kind')!r}"
            )
        version = payload.get("version")
        if not isinstance(version, int) or not 1 <= version <= ENVELOPE_VERSION:
            raise MiningError(
                f"unsupported mining-result-envelope version {version!r}"
            )
        request = MiningRequest.from_dict(payload["request"])
        core = payload["result"]
        search = payload.get("search", {})
        statistics = MinerStatistics.from_snapshot(search.get("statistics", {}))
        cache = search.get("cache", {})
        statistics.roots_from_cache = int(cache.get("roots_from_cache", 0))
        statistics.cache_hits = int(cache.get("hits", 0))
        statistics.cache_misses = int(cache.get("misses", 0))
        truncated = bool(core.get("truncated", False))
        completed = core.get("completed_roots", [])
        result = MiningResult(
            min_sup=int(core["min_sup"]),
            closed_only=bool(core["closed_only"]),
            statistics=statistics,
            truncated=truncated,
            completed_roots=tuple(completed) if truncated else None,
            elapsed_seconds=float(search.get("elapsed_seconds", 0.0)),
        )
        for entry in core.get("patterns", []):
            result.add(pattern_from_dict(entry))
        return cls(request=request, result=result)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def canonical_json(self) -> str:
        """The byte-identity surface: same request + exact run ⇒ same bytes."""
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json(cls, text: str) -> "MiningResultEnvelope":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# The façade
# ----------------------------------------------------------------------
_UNSET: Any = object()


def mine(
    database: GraphDatabase,
    request: Union[MiningRequest, int, float, str] = _UNSET,
    *,
    min_sup: Union[int, float, str] = _UNSET,
    stream: bool = False,
    sinks: Sequence[EventSink] = (),
    resume_from: Optional[MiningCheckpoint] = None,
    cache: Optional[MiningCache] = None,
    root_labels: Optional[Tuple[Label, ...]] = None,
) -> Union[MiningResult, MiningSession]:
    """Mine clique patterns from a graph transaction database.

    Primary signature::

        mine(database, MiningRequest(task="topk", min_sup="85%", k=5))

    The second argument may also be a bare support threshold —
    ``mine(database, 2)`` / ``mine(database, min_sup=2)`` — which is
    sugar for ``MiningRequest(min_sup=2)``.  Every other mining option
    lives on the request.

    Runtime arguments stay keywords on this call because they are not
    serializable run descriptions:

    stream:
        Return an unstarted :class:`MiningSession` instead of a result.
    sinks:
        :class:`~repro.core.session.EventSink` instances; implies a
        session.
    resume_from:
        A :class:`~repro.core.session.MiningCheckpoint` to continue
        from; implies a session.
    cache:
        A :class:`~repro.core.cache.MiningCache` shared across calls.
        Roots it can answer are replayed instead of mined, and mined
        roots are stored back.  Ignored when the request sets
        ``use_cache=False``.
    root_labels:
        Restrict the search to the given DFS roots (non-session serial
        runs) — the partitioning primitive sessions and the pool build
        on.

    Returns a :class:`MiningResult`, or a :class:`MiningSession` when
    ``stream=True``.
    """
    if request is _UNSET:
        request = 2 if min_sup is _UNSET else min_sup
    elif min_sup is not _UNSET:
        raise TypeError(
            "mine() got both a positional request/min_sup and a min_sup keyword"
        )
    if not isinstance(request, MiningRequest):
        request = MiningRequest(min_sup=request)
    return execute_request(
        database,
        request,
        stream=stream,
        sinks=sinks,
        resume_from=resume_from,
        cache=cache,
        root_labels=root_labels,
    )


def execute_request(
    database: GraphDatabase,
    request: MiningRequest,
    *,
    stream: bool = False,
    sinks: Sequence[EventSink] = (),
    resume_from: Optional[MiningCheckpoint] = None,
    cache: Optional[MiningCache] = None,
    root_labels: Optional[Tuple[Label, ...]] = None,
) -> Union[MiningResult, MiningSession]:
    """Dispatch a :class:`MiningRequest` to the right execution path.

    The single dispatcher behind :func:`mine`, the CLI subcommands, and
    the service's job runner: a session (budgets/sinks/resume/
    streaming), else the serial engine when neither a cache nor a pool
    is asked for, else one :meth:`MiningExecutor.mine
    <repro.core.executor.MiningExecutor.mine>` call (cached and/or
    pooled).
    """
    resolved = request.resolved_config()
    min_sup = parse_support(request.min_sup)
    if not request.use_cache:
        cache = None
    wants_session = bool(
        stream
        or sinks
        or request.sample_every
        or resume_from is not None
        or request.budget is not None
    )
    if wants_session:
        if root_labels is not None:
            raise MiningError(
                "root_labels cannot be combined with session options; "
                "sessions manage root scheduling themselves"
            )
        session = MiningSession.from_request(
            database,
            request,
            sinks=sinks,
            resume_from=resume_from,
            cache=cache,
        )
        return session if stream else session.run()
    if cache is None and request.processes == 1:
        return engine_for_task(
            database, resolved, request.task, request.k, request.gamma
        ).mine(min_sup, root_labels=root_labels)
    if root_labels is not None:
        raise MiningError(
            "root_labels cannot be combined with cache or processes>1; "
            "cached and pooled mining cover every frequent root"
        )
    from .executor import MiningExecutor

    with MiningExecutor(
        database,
        resolved,
        processes=request.processes,
        scheduler=request.scheduler,
        cache=cache,
        task=request.task,
        k=request.k,
        gamma=request.gamma,
    ) as executor:
        return executor.mine(min_sup)


def _resolve_budget(
    budget: Optional[MiningBudget],
    deadline: Optional[float],
    max_patterns: Optional[int],
    max_expanded_prefixes: Optional[int],
) -> Optional[MiningBudget]:
    shorthand = (
        deadline is not None
        or max_patterns is not None
        or max_expanded_prefixes is not None
    )
    if budget is not None and shorthand:
        raise MiningError(
            "pass either budget=MiningBudget(...) or the deadline/max_patterns/"
            "max_expanded_prefixes shorthands, not both"
        )
    if shorthand:
        return MiningBudget(
            deadline_seconds=deadline,
            max_patterns=max_patterns,
            max_expanded_prefixes=max_expanded_prefixes,
        )
    if budget is not None and budget.unbounded:
        return None
    return budget
