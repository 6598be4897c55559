"""Reproducible run records, session traces, and checkpoints.

A :class:`RunRecord` captures everything needed to audit or replay a
mining run: the configuration, the threshold, a structural fingerprint
of the input database, the environment, the search statistics, and the
patterns themselves.  Records serialise to JSON; replaying re-mines and
diffs against the recorded patterns.

This module is also the persistence layer for the session control
plane (:mod:`repro.core.session`): :func:`open_trace` reads the JSONL
event streams written by
:class:`~repro.core.session.JsonlTraceSink`, and
:func:`save_checkpoint` / :func:`open_checkpoint` round-trip
:class:`~repro.core.session.MiningCheckpoint` snapshots so an
interrupted mine can resume in another process, and
:func:`save_cache` / :func:`open_cache` persist a
:class:`~repro.core.cache.MiningCache` so sweeps and repeated runs
warm up from disk (``clan sweep --cache DIR``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .. import __version__
from ..core.api import MiningRequest, MiningResultEnvelope
from ..core.cache import MiningCache
from ..core.config import MinerConfig
from ..core.miner import ClanMiner
from ..core.results import MiningResult
from ..core.session import MiningCheckpoint, MiningEvent, event_from_dict
from ..exceptions import FormatError, MiningError
from ..graphdb.database import GraphDatabase
from ..graphdb.schema import fingerprint_digests
from .json_format import result_from_dict, result_to_dict

PathLike = Union[str, Path]


def database_fingerprint(database: GraphDatabase) -> str:
    """A stable SHA-256 over the database's full structure.

    Covers transaction order, vertex ids, labels, and edges — two
    databases share a fingerprint iff they are structurally identical
    in the sense of :meth:`Graph.__eq__` with matching order.

    Computed incrementally as a fold over the per-transaction digests
    (:func:`repro.graphdb.transaction_digest`), so it streams: the
    database is never materialised, a
    :class:`~repro.graphdb.storage.SqliteGraphSource` answers from its
    stored digest column without decoding graphs, and any two storage
    backends holding the same transactions in the same order — in
    memory, on disk, or shard by shard — land on the same fingerprint.
    Cache keys therefore stay portable across backends.
    """
    return fingerprint_digests(database.transaction_digests())


@dataclass(frozen=True)
class RunRecord:
    """One mining run, fully described."""

    created_at: str
    library_version: str
    python_version: str
    database_name: str
    database_fingerprint: str
    n_transactions: int
    min_sup: int
    config: Dict[str, Any]
    statistics: Dict[str, Any]
    elapsed_seconds: float
    result: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def patterns(self) -> MiningResult:
        """Rehydrate the recorded result."""
        return result_from_dict(self.result)

    def miner_config(self) -> MinerConfig:
        """Rehydrate the recorded configuration."""
        return MinerConfig.from_dict(self.config)


def record_run(
    database: GraphDatabase,
    min_sup: float,
    config: Optional[MinerConfig] = None,
) -> RunRecord:
    """Mine and capture the complete run record."""
    if config is None:
        config = MinerConfig()
    result = ClanMiner(database, config).mine(min_sup)
    stats = result.statistics
    return RunRecord(
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
        library_version=__version__,
        python_version=platform.python_version(),
        database_name=database.name,
        database_fingerprint=database_fingerprint(database),
        n_transactions=len(database),
        min_sup=result.min_sup,
        config=config.to_dict(),
        statistics=stats.snapshot(),
        elapsed_seconds=result.elapsed_seconds,
        result=result_to_dict(result),
    )


def save_record(record: RunRecord, path: PathLike) -> None:
    """Write a run record as JSON."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(record.to_dict(), stream, indent=1)


def open_record(path: PathLike) -> RunRecord:
    """Read a run record back."""
    with open(path, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    try:
        return RunRecord(**payload)
    except TypeError as exc:
        raise FormatError(f"not a run record: {exc}") from exc


@dataclass(frozen=True)
class ReplayOutcome:
    """Result of replaying a recorded run against a database."""

    fingerprint_matches: bool
    patterns_match: bool
    recorded_patterns: int
    replayed_patterns: int

    @property
    def reproduced(self) -> bool:
        return self.fingerprint_matches and self.patterns_match


def replay(record: RunRecord, database: GraphDatabase) -> ReplayOutcome:
    """Re-mine with the recorded configuration and compare.

    A fingerprint mismatch means the database is not the recorded one;
    the patterns are compared regardless (useful when checking whether
    a *changed* database still yields the same result).
    """
    fingerprint_matches = database_fingerprint(database) == record.database_fingerprint
    config = record.miner_config()
    replayed = ClanMiner(database, config).mine(record.min_sup)
    recorded = record.patterns()
    patterns_match = sorted(p.key() for p in replayed) == sorted(
        p.key() for p in recorded
    )
    return ReplayOutcome(
        fingerprint_matches=fingerprint_matches,
        patterns_match=patterns_match,
        recorded_patterns=len(recorded),
        replayed_patterns=len(replayed),
    )


# ----------------------------------------------------------------------
# Session traces (JSONL event streams)
# ----------------------------------------------------------------------
def open_trace(path: PathLike) -> List[MiningEvent]:
    """Read back a JSONL event trace written by ``JsonlTraceSink``.

    Returns the typed events in file order.  Malformed lines raise
    :class:`FormatError` with the offending line number.
    """
    events: List[MiningEvent] = []
    with open(path, "r", encoding="utf-8") as stream:
        for number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(event_from_dict(json.loads(line)))
            except (MiningError, ValueError, KeyError, TypeError) as exc:
                raise FormatError(f"bad trace event: {exc}", line_number=number) from exc
    return events


# ----------------------------------------------------------------------
# Session checkpoints
# ----------------------------------------------------------------------
def save_checkpoint(checkpoint: MiningCheckpoint, path: PathLike) -> None:
    """Write a session checkpoint as JSON, replacing ``path`` atomically.

    The JSON goes to a fresh file beside ``path`` that then replaces
    it, so a reader (a service restarted after a crash) sees the
    previous checkpoint or the new one, never a half-written file.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")
    with open(partial, "w", encoding="utf-8") as stream:
        json.dump(checkpoint.to_dict(), stream, indent=1)
    os.replace(partial, path)


def open_checkpoint(path: PathLike) -> MiningCheckpoint:
    """Read a session checkpoint back."""
    with open(path, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    try:
        return MiningCheckpoint.from_dict(payload)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"not a mining checkpoint: {exc}") from exc


# ----------------------------------------------------------------------
# Mining requests and result envelopes (the service wire format)
# ----------------------------------------------------------------------
def save_request(request: MiningRequest, path: PathLike) -> None:
    """Write a :class:`~repro.core.api.MiningRequest` as JSON.

    The file holds exactly the wire payload ``clan submit --request
    FILE`` posts and the service persists per job.
    """
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(json.dumps(request.to_dict(), sort_keys=True, indent=1))
        stream.write("\n")


def open_request(path: PathLike) -> MiningRequest:
    """Read a mining request back."""
    with open(path, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    try:
        return MiningRequest.from_dict(payload)
    except (MiningError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"not a mining request: {exc}") from exc


def save_envelope(envelope: MiningResultEnvelope, path: PathLike) -> None:
    """Write a :class:`~repro.core.api.MiningResultEnvelope` as JSON."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(json.dumps(envelope.to_dict(), sort_keys=True, indent=1))
        stream.write("\n")


def open_envelope(path: PathLike) -> MiningResultEnvelope:
    """Read a result envelope back."""
    with open(path, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    try:
        return MiningResultEnvelope.from_dict(payload)
    except (MiningError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"not a mining result envelope: {exc}") from exc


# ----------------------------------------------------------------------
# Mining caches
# ----------------------------------------------------------------------
#: File name used inside a cache *directory* (the CLI passes
#: ``--cache DIR``; the API accepts a file path or a directory).
CACHE_FILENAME = "clan-cache.json"


def _cache_file(path: PathLike) -> Path:
    path = Path(path)
    if path.is_dir():
        return path / CACHE_FILENAME
    return path


def save_cache(cache: MiningCache, path: PathLike) -> Path:
    """Write a mining cache as JSON; returns the file written.

    ``path`` may be a file or an existing directory (the file is then
    ``clan-cache.json`` inside it).  Only the entries are persisted —
    hit/miss counters are process-local observability, not state.
    """
    target = _cache_file(path)
    with open(target, "w", encoding="utf-8") as stream:
        json.dump(cache.to_dict(), stream, indent=1)
    return target


def open_cache(path: PathLike) -> MiningCache:
    """Read a mining cache back (file or directory, as for save)."""
    target = _cache_file(path)
    with open(target, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    try:
        return MiningCache.from_dict(payload)
    except (MiningError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"not a mining cache: {exc}") from exc


def load_or_create_cache(path: PathLike) -> MiningCache:
    """Open the cache at ``path`` if present, else a fresh empty one.

    The convenience the CLI uses for ``--cache DIR``: first run creates
    the cache, later runs warm from it.
    """
    target = _cache_file(path)
    if target.exists():
        return open_cache(target)
    return MiningCache()
