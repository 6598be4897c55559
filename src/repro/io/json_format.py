"""JSON serialisation for databases and mining results.

A structured format for programmatic interchange: databases round-trip
exactly (ids, labels, edges, name), and results carry enough to rebuild
:class:`~repro.core.pattern.CliquePattern` objects including witnesses.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, Union

from ..core.canonical import CanonicalForm
from ..core.pattern import CliquePattern, WitnessRows
from ..core.results import MiningResult
from ..exceptions import FormatError
from ..graphdb.database import GraphDatabase
from ..graphdb.graph import Graph

PathLike = Union[str, Path]

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Databases
# ----------------------------------------------------------------------
def database_to_dict(database: GraphDatabase) -> Dict[str, Any]:
    """Convert a database to a JSON-ready dict."""
    return {
        "version": FORMAT_VERSION,
        "kind": "graph-database",
        "name": database.name,
        "graphs": [
            {
                "vertices": [[v, graph.label(v)] for v in sorted(graph.vertices())],
                "edges": sorted(graph.edges()),
            }
            for graph in database
        ],
    }


def database_from_dict(payload: Dict[str, Any]) -> GraphDatabase:
    """Rebuild a database from :func:`database_to_dict` output."""
    if payload.get("kind") != "graph-database":
        raise FormatError(f"expected kind 'graph-database', got {payload.get('kind')!r}")
    database = GraphDatabase(name=payload.get("name", ""))
    for gid, entry in enumerate(payload.get("graphs", [])):
        database.add(_graph_from_entry(entry, gid))
    return database


def _graph_from_entry(entry: Dict[str, Any], gid: int) -> Graph:
    graph = Graph(gid)
    for vertex, label in entry["vertices"]:
        graph.add_vertex(int(vertex), str(label))
    for u, v in entry["edges"]:
        graph.add_edge(int(u), int(v))
    return graph


def iter_database_file(path: PathLike) -> Iterator[Graph]:
    """Stream transactions from a JSON database file, one at a time.

    Scans the ``"graphs"`` array with
    :meth:`json.JSONDecoder.raw_decode` so only one decoded transaction
    is ever resident — the file's *text* is read once, but the parsed
    graph objects (which dominate memory by an order of magnitude) are
    yielded and released individually.  Accepts exactly the documents
    :func:`save_database` writes.
    """
    text = Path(path).read_text(encoding="utf-8")
    decoder = json.JSONDecoder()
    marker = '"graphs"'
    at = text.find(marker)
    if at < 0:
        raise FormatError("not a graph-database document: no 'graphs' array")
    at = text.index("[", at + len(marker))
    at += 1
    gid = 0
    while True:
        while at < len(text) and text[at] in " \t\r\n,":
            at += 1
        if at >= len(text):
            raise FormatError("unterminated 'graphs' array")
        if text[at] == "]":
            return
        try:
            entry, at = decoder.raw_decode(text, at)
        except json.JSONDecodeError as exc:
            raise FormatError(f"malformed graph entry: {exc}") from exc
        try:
            yield _graph_from_entry(entry, gid)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed graph entry {gid}: {exc}") from exc
        gid += 1


def save_database(database: GraphDatabase, path: PathLike) -> None:
    """Write a database as JSON."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(database_to_dict(database), stream, indent=1)


def open_database(path: PathLike) -> GraphDatabase:
    """Read a JSON database."""
    with open(path, "r", encoding="utf-8") as stream:
        return database_from_dict(json.load(stream))


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def pattern_to_dict(pattern: CliquePattern) -> Dict[str, Any]:
    """Convert one pattern to the JSON shape shared by results,
    checkpoints, caches, and
    :class:`~repro.core.api.MiningResultEnvelope`.  Row-backed
    witnesses (:class:`~repro.core.pattern.WitnessRows`) serialise with
    one ``tolist`` and no intermediate tuples."""
    witnesses = pattern.witnesses
    if isinstance(witnesses, WitnessRows):
        encoded = dict(zip(map(str, witnesses.transactions), witnesses.rows.tolist()))
    else:
        encoded = {str(t): list(w) for t, w in witnesses.items()}
    return {
        "labels": list(pattern.labels),
        "support": pattern.support,
        "transactions": list(pattern.transactions),
        "witnesses": encoded,
    }


def pattern_from_dict(entry: Dict[str, Any]) -> CliquePattern:
    """Rebuild one pattern from :func:`pattern_to_dict` output."""
    return CliquePattern(
        form=CanonicalForm.from_labels(entry["labels"]),
        support=int(entry["support"]),
        transactions=tuple(int(t) for t in entry.get("transactions", ())),
        witnesses={
            int(t): tuple(int(v) for v in w)
            for t, w in entry.get("witnesses", {}).items()
        },
    )


def result_to_dict(result: MiningResult) -> Dict[str, Any]:
    """Convert a mining result to a JSON-ready dict."""
    return {
        "version": FORMAT_VERSION,
        "kind": "mining-result",
        "min_sup": result.min_sup,
        "closed_only": result.closed_only,
        "elapsed_seconds": result.elapsed_seconds,
        "patterns": [pattern_to_dict(p) for p in result],
    }


def result_from_dict(payload: Dict[str, Any]) -> MiningResult:
    """Rebuild a mining result from :func:`result_to_dict` output."""
    if payload.get("kind") != "mining-result":
        raise FormatError(f"expected kind 'mining-result', got {payload.get('kind')!r}")
    result = MiningResult(
        min_sup=int(payload.get("min_sup", 1)),
        closed_only=bool(payload.get("closed_only", True)),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
    )
    for entry in payload.get("patterns", []):
        result.add(pattern_from_dict(entry))
    return result


def save_result(result: MiningResult, path: PathLike) -> None:
    """Write a mining result as JSON."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(result_to_dict(result), stream, indent=1)


def open_result(path: PathLike) -> MiningResult:
    """Read a JSON mining result."""
    with open(path, "r", encoding="utf-8") as stream:
        return result_from_dict(json.load(stream))
