"""Outside-in span recorder for the end-to-end benchmark.

The benchmark measures its end-to-end numbers untraced.  A traced run
repeats a workload with this recorder installed: every seam in
:data:`SEAMS` is wrapped *where it is looked up* (the defining module or
class, plus every loaded module that imported the function by name),
and each call records a span ``(id, name, start, end, parent,
op, counts)``.  Spans stay in memory and are written as JSONL at exit;
:func:`layer_metrics` turns them into the per-layer numbers.

The program itself is not edited.  A seam that a refactor renamed or
removed is reported in :attr:`Recorder.absent` and skipped, so its
metrics read 0 instead of the run crashing.  Forked pool workers inherit
the wrappers but record nothing (spans are only kept in the process that
installed the recorder).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

_parent: contextvars.ContextVar = contextvars.ContextVar("e2e_parent", default=None)
_op: contextvars.ContextVar = contextvars.ContextVar("e2e_op", default=None)

#: The op id spans recorded during workload set-up carry.
SETUP_OP = "setup"


def _file_bytes(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


@dataclass(frozen=True)
class Seam:
    """One wrapped call site.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.
    ``counts(args, result)`` returns counters stored on the span.
    ``job_arg`` names the positional argument holding a service job: its
    ``job_id`` becomes the op id of the span and of everything it calls.
    ``job_result`` takes the op id from the returned job instead.
    ``mode`` is ``"span"``; ``"count"`` for hot calls that only count
    (a span per call would dominate what they cost); or ``"op"`` to only
    set the op id (coroutines whose span would mostly be waiting).
    """

    name: str
    target: str
    counts: Optional[Callable[[tuple, Any], Dict[str, float]]] = None
    job_arg: Optional[int] = None
    job_result: bool = False
    mode: str = "span"


SEAMS: Tuple[Seam, ...] = (
    # core.api
    Seam("api.execute_request", "repro.core.api:execute_request"),
    Seam("api.envelope_to_dict", "repro.core.api:MiningResultEnvelope.to_dict"),
    # core.sharding
    Seam("sharding.mine_sharded", "repro.core.sharding:mine_sharded"),
    Seam(
        "sharding.candidates",
        "repro.core.sharding:_collect_candidates",
        counts=lambda args, result: {"candidates": len(result[0])},
    ),
    Seam("sharding.count", "repro.core.sharding:_count_candidates"),
    Seam(
        "sharding.merge",
        "repro.core.sharding:_merge_candidates",
        counts=lambda args, result: {"counted": len(args[0]), "reported": len(result)},
    ),
    # core.engine and its kernels
    Seam("engine.prepare", "repro.core.engine:MiningEngine.prepare"),
    Seam(
        "engine.mine",
        "repro.core.engine:MiningEngine.mine",
        counts=lambda args, result: {
            "prefixes": result.statistics.prefixes_visited,
            "patterns": len(result),
        },
    ),
    Seam("engine.finalize", "repro.core.engine:finalize_patterns"),
    Seam(
        "kernel.root_store",
        "repro.core.embeddings:EmbeddingStore.for_label",
        counts=lambda args, result: {"embeddings": result.embedding_count},
    ),
    # graphdb indexes and storage
    Seam("graphdb.aligned_space", "repro.graphdb.database:GraphDatabase.aligned_space"),
    Seam("graphdb.slab_space", "repro.graphdb.database:GraphDatabase.slab_space"),
    Seam("storage.get", "repro.graphdb.storage:SqliteGraphSource.get", mode="count"),
    Seam("storage.iter_range", "repro.graphdb.storage:SqliteGraphSource.iter_range"),
    Seam("storage.decode", "repro.graphdb.storage:decode_graph"),
    Seam("storage.import", "repro.graphdb.storage:import_graphs"),
    # core.executor, core.cache, core.session
    Seam("executor.mine", "repro.core.executor:MiningExecutor.mine"),
    Seam("executor.close", "repro.core.executor:MiningExecutor.close"),
    Seam("cache.lookup", "repro.core.cache:MiningCache.lookup"),
    Seam("session.run", "repro.core.session:MiningSession.run"),
    # io.runlog
    Seam(
        "runlog.save_checkpoint",
        "repro.io.runlog:save_checkpoint",
        counts=lambda args, result: {"bytes": _file_bytes(args[1])},
    ),
    Seam(
        "runlog.save_cache",
        "repro.io.runlog:save_cache",
        counts=lambda args, result: {"bytes": _file_bytes(result)},
    ),
    Seam("runlog.save_envelope", "repro.io.runlog:save_envelope"),
    Seam("runlog.open_envelope", "repro.io.runlog:open_envelope"),
    # service
    Seam("service.submit", "repro.service.server:MiningService.submit", job_result=True),
    Seam("service.start_job", "repro.service.server:MiningService._start_job", job_arg=1),
    Seam("service.persist_job", "repro.service.server:MiningService._persist_job", job_arg=1),
    Seam("service.job_thread", "repro.service.server:MiningService._run_job_thread", job_arg=1),
    Seam(
        "service.handle_result",
        "repro.service.server:MiningService._handle_result",
        job_arg=1,
        mode="op",
    ),
)


class Recorder:
    """Installs the seam wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self.absent: List[str] = []
        self._ids = itertools.count(1)
        # (seam name, op id) -> calls, for ``mode="count"`` seams.
        self.calls: Dict[Tuple[str, Any], int] = {}
        self._calls_lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- op ids ---------------------------------------------------------
    @contextlib.contextmanager
    def op(self, op_id: str):
        """Attribute every span recorded inside the block to ``op_id``."""
        token = _op.set(op_id)
        try:
            yield
        finally:
            _op.reset(token)

    # -- install / uninstall -------------------------------------------
    def install(self) -> "Recorder":
        resolved = []
        for seam in SEAMS:
            module_name, _, path = seam.target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(seam.target)
                continue
            resolved.append((seam, owner, attr, raw))
        # Resolve every seam before patching any, so the by-name scan
        # below sees modules imported while resolving.
        for seam, owner, attr, raw in resolved:
            method = isinstance(raw, (classmethod, staticmethod))
            wrapped: Any = self._wrap(seam, raw.__func__ if method else raw)
            if wrapped is None:
                self.absent.append(seam.target)
                continue
            if method:
                wrapped = type(raw)(wrapped)
            self._patch(owner, attr, wrapped)
            if inspect.ismodule(owner):
                for module in list(sys.modules.values()):
                    if module is owner or not inspect.ismodule(module):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, wrapped)
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers -------------------------------------------------------
    def _wrap(self, seam: Seam, fn: Callable) -> Optional[Callable]:
        """The wrapper, or ``None`` if ``fn`` no longer fits the seam."""
        if seam.mode == "op":
            if not inspect.iscoroutinefunction(fn):
                return None
            return self._wrap_coroutine(seam, fn)
        if seam.mode == "count":
            return self._wrap_counter(seam, fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(seam, fn)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != recorder.pid:
                return fn(*args, **kwargs)
            op_token = None
            if seam.job_arg is not None:
                op_token = _op.set(args[seam.job_arg].job_id)
            span_id = next(recorder._ids)
            parent = _parent.get()
            token = _parent.set(span_id)
            start = time.perf_counter()
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                _parent.reset(token)
                op_id = _op.get()
                if seam.job_result and result is not None:
                    op_id = result.job_id
                if op_token is not None:
                    _op.reset(op_token)
                counts = None
                if seam.counts is not None and returned:
                    counts = seam.counts(args, result)
                recorder.spans.append(
                    {
                        "id": span_id,
                        "name": seam.name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                        "op": op_id,
                        "counts": counts,
                    }
                )

        return wrapper

    def _wrap_generator(self, seam: Seam, fn: Callable) -> Callable:
        """A generator's span runs from its first to its last step; its
        ``dur`` counts only the time spent inside it."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != recorder.pid:
                yield from fn(*args, **kwargs)
                return
            inner = fn(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = _parent.get()
            op_id = _op.get()
            start = end = time.perf_counter()
            busy = 0.0
            try:
                while True:
                    token = _parent.set(span_id)
                    began = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        end = time.perf_counter()
                        busy += end - began
                        _parent.reset(token)
                    yield item
            finally:
                inner.close()
                recorder.spans.append(
                    {
                        "id": span_id,
                        "name": seam.name,
                        "start": start,
                        "end": end,
                        "dur": busy,
                        "parent": parent,
                        "op": op_id,
                        "counts": None,
                    }
                )

        return wrapper

    def _wrap_counter(self, seam: Seam, fn: Callable) -> Callable:
        calls, lock = self.calls, self._calls_lock
        name = seam.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, _op.get())
            with lock:
                calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_coroutine(self, seam: Seam, fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            token = _op.set(args[seam.job_arg].job_id)
            try:
                return await fn(*args, **kwargs)
            finally:
                _op.reset(token)

        return wrapper

    # -- output ---------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            for absent in self.absent:
                stream.write(json.dumps({"absent": absent}) + "\n")
            for (name, op_id), n in self.calls.items():
                stream.write(json.dumps({"calls": name, "op": op_id, "n": n}) + "\n")
            for span in self.spans:
                stream.write(json.dumps(span, sort_keys=True) + "\n")


def read_jsonl(path: str):
    """``(spans, calls, absent)`` from a file :meth:`Recorder.write_jsonl` wrote."""
    spans: List[Dict[str, Any]] = []
    calls: Dict[Tuple[str, Any], int] = {}
    absent: List[str] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            if "absent" in record:
                absent.append(record["absent"])
            elif "calls" in record:
                calls[(record["calls"], record["op"])] = record["n"]
            else:
                spans.append(record)
    return spans, calls, absent


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: name -> unit, in report order.  Times ending in ``_s`` are self time
#: (span time minus child spans) per op, except the phase totals marked
#: inclusive in the README.
LAYER_METRICS: Dict[str, str] = {
    "storage.decoded_tx": "count",
    "storage.decode_passes": "ratio",
    "storage.decode_s": "s",
    "storage.read_calls": "count",
    "storage.import_s": "s",
    "storage.bytes_per_tx": "B",
    "sharding.candidates_s": "s",
    "sharding.count_s": "s",
    "sharding.merge_s": "s",
    "sharding.candidates": "count",
    "sharding.precision": "ratio",
    "engine.search_s": "s",
    "engine.prefixes": "count",
    "engine.prefixes_per_s": "1/s",
    "engine.yield": "ratio",
    "engine.prepare_s": "s",
    "engine.finalize_s": "s",
    "graphdb.index_s": "s",
    "kernel.root_stores": "count",
    "kernel.embeddings_created": "count",
    "executor.mine_s": "s",
    "executor.close_s": "s",
    "executor.speedup": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.lookup_s": "s",
    "session.run_s": "s",
    "runlog.checkpoint_s": "s",
    "runlog.checkpoint_writes": "count",
    "runlog.checkpoint_bytes": "B",
    "runlog.cache_save_s": "s",
    "runlog.cache_bytes": "B",
    "runlog.envelope_s": "s",
    "service.job_record_s": "s",
    "service.queue_wait_ms": "ms",
    "service.persist_share": "ratio",
    "api.envelope_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


def _duration(span: Dict[str, Any]) -> float:
    return span.get("dur", span["end"] - span["start"])


_PERSISTENCE = (
    "runlog.save_checkpoint",
    "runlog.save_cache",
    "runlog.save_envelope",
    "runlog.open_envelope",
    "service.persist_job",
)


def layer_metrics(
    spans: List[Dict[str, Any]],
    calls: Dict[Tuple[str, Any], int],
    op_walls: Dict[str, float],
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-op means of every :data:`LAYER_METRICS` entry.

    ``op_walls`` maps each timed op id to its wall seconds; spans and
    ``calls`` (of ``mode="count"`` seams) of other ops are ignored, except those of :data:`SETUP_OP`, which feed
    the set-up metrics.  ``extra`` supplies the values spans cannot
    give (``storage.bytes_per_tx``, ``executor.speedup``,
    ``cache.hit_ratio``, ``trace.overhead``, and the store size
    ``_store_tx`` that ``storage.decode_passes`` divides by).
    """
    extra = dict(extra or {})
    # A callback posted to another thread inherits the poster's context,
    # so a "child" can run after its parent ended: only the part inside
    # the parent's interval is subtracted from the parent.  A generator
    # child is busy for ``dur`` of its interval.
    interval = {span["id"]: (span["start"], span["end"]) for span in spans}
    child_time: Dict[int, float] = {}
    for span in spans:
        parent = interval.get(span["parent"])
        if parent is not None:
            inside = min(span["end"], parent[1]) - max(span["start"], parent[0])
            inside = min(inside, _duration(span))
            if inside > 0:
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + inside

    self_s: Dict[str, float] = {}
    incl_s: Dict[str, float] = {}
    n_calls: Dict[str, int] = {}
    for (name, op_id), n in calls.items():
        if op_id in op_walls:
            n_calls[name] = n_calls.get(name, 0) + n
    counts: Dict[str, float] = {}
    setup_self: Dict[str, float] = {}
    covered = 0.0
    submit_end: Dict[str, float] = {}
    start_begin: Dict[str, float] = {}
    for span in spans:
        name = span["name"]
        duration = _duration(span)
        own = duration - child_time.get(span["id"], 0.0)
        if span["op"] == SETUP_OP:
            setup_self[name] = setup_self.get(name, 0.0) + own
            continue
        if span["op"] not in op_walls:
            continue
        covered += own
        self_s[name] = self_s.get(name, 0.0) + own
        incl_s[name] = incl_s.get(name, 0.0) + duration
        n_calls[name] = n_calls.get(name, 0) + 1
        for key, value in (span.get("counts") or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0.0) + value
        if name == "service.submit":
            submit_end[span["op"]] = span["end"]
        elif name == "service.start_job":
            start_begin[span["op"]] = span["start"]

    n_ops = max(len(op_walls), 1)
    wall = sum(op_walls.values())

    def per_op(table: Dict[str, float], *names: str) -> float:
        return sum(table.get(name, 0.0) for name in names) / n_ops

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    decoded = per_op(n_calls, "storage.decode")
    prefixes = counts.get("engine.mine.prefixes", 0.0)
    waits = [
        start_begin[op] - submit_end[op] for op in submit_end if op in start_begin
    ]
    metrics = {
        "storage.decoded_tx": decoded,
        "storage.decode_passes": ratio(decoded, extra.pop("_store_tx", 0.0)),
        "storage.decode_s": per_op(self_s, "storage.decode"),
        "storage.read_calls": per_op(n_calls, "storage.get", "storage.iter_range"),
        "storage.import_s": setup_self.get("storage.import", 0.0),
        "sharding.candidates_s": per_op(incl_s, "sharding.candidates"),
        "sharding.count_s": per_op(incl_s, "sharding.count"),
        "sharding.merge_s": per_op(incl_s, "sharding.merge"),
        "sharding.candidates": per_op(counts, "sharding.candidates.candidates"),
        "sharding.precision": ratio(
            counts.get("sharding.merge.reported", 0.0),
            counts.get("sharding.merge.counted", 0.0),
        ),
        "engine.search_s": per_op(self_s, "engine.mine"),
        "engine.prefixes": prefixes / n_ops,
        "engine.prefixes_per_s": ratio(prefixes, incl_s.get("engine.mine", 0.0)),
        "engine.yield": ratio(counts.get("engine.mine.patterns", 0.0), prefixes),
        "engine.prepare_s": per_op(self_s, "engine.prepare"),
        "engine.finalize_s": per_op(self_s, "engine.finalize"),
        "graphdb.index_s": setup_self.get("graphdb.aligned_space", 0.0)
        + setup_self.get("graphdb.slab_space", 0.0),
        "kernel.root_stores": per_op(n_calls, "kernel.root_store"),
        "kernel.embeddings_created": per_op(counts, "kernel.root_store.embeddings"),
        "executor.mine_s": per_op(incl_s, "executor.mine"),
        "executor.close_s": per_op(self_s, "executor.close"),
        "cache.lookup_s": per_op(self_s, "cache.lookup"),
        "session.run_s": per_op(self_s, "session.run"),
        "runlog.checkpoint_s": per_op(self_s, "runlog.save_checkpoint"),
        "runlog.checkpoint_writes": per_op(n_calls, "runlog.save_checkpoint"),
        "runlog.checkpoint_bytes": per_op(counts, "runlog.save_checkpoint.bytes"),
        "runlog.cache_save_s": per_op(self_s, "runlog.save_cache"),
        "runlog.cache_bytes": per_op(counts, "runlog.save_cache.bytes"),
        "runlog.envelope_s": per_op(
            self_s, "runlog.save_envelope", "runlog.open_envelope"
        ),
        "service.job_record_s": per_op(self_s, "service.persist_job"),
        "service.queue_wait_ms": 1000.0 * sum(waits) / len(waits) if waits else 0.0,
        "service.persist_share": ratio(
            sum(self_s.get(name, 0.0) for name in _PERSISTENCE), wall
        ),
        "api.envelope_s": per_op(self_s, "api.envelope_to_dict"),
        "trace.coverage": ratio(covered, wall),
    }
    metrics.update(extra)
    return {name: float(metrics.get(name, 0.0)) for name in LAYER_METRICS}
