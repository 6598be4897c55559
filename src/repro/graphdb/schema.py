"""On-disk schema and canonical encodings for graph transactions.

This module is the contract between :class:`~repro.graphdb.storage.
SqliteGraphSource` and every reader of a ``.sqlite`` graph store:

* the SQL DDL (one row per transaction, mirroring the
  cliques/contents-as-tables shape of the graphstreams exemplar, with
  the graph body in a single ``encoding`` column, and the per-label
  supports of those rows);
* since version 2, the ``slab_index`` table: an aligned store's
  transposed slab index (:mod:`repro.graphdb.slab`), built once at
  import so opening the store maps it instead of parsing every row.
  Keyed by :func:`rows_key` and checksummed; a store whose rows
  changed since, or whose index is damaged or missing (every
  version-1 store, which otherwise opens unchanged), builds the slab
  from its rows as version 1 did;
* a lossless JSON transaction encoding (:func:`encode_graph`) and its
  one reader (:func:`parse_row`, with :func:`decode_graph` on top) —
  labels are arbitrary strings, so the positional text format the
  fingerprint hashes cannot be parsed back;
* the per-transaction digest (:func:`transaction_digest`) that the
  store persists alongside each row.  The digest preimage is the exact
  byte string the pre-sharding ``database_fingerprint`` hashed per
  graph, so a digest is a pure structural property of the transaction:
  an in-memory graph and its SQLite row always agree, which is what
  makes fingerprints (and therefore cache keys) portable across
  storage backends.
"""

from __future__ import annotations

import hashlib
import json
import operator
from collections import Counter
from typing import Iterable, List, Tuple

from ..exceptions import DatabaseError
from .graph import Graph, Label

#: Version stamped into the ``meta`` table; bump on any DDL or
#: encoding change.  Version 2 added ``slab_index``.
SCHEMA_VERSION = 2

#: The store layout.  ``tid`` is the authoritative transaction id
#: (densely 0..n-1, assigned at append time); ``digest`` caches
#: :func:`transaction_digest` so fingerprinting a store never decodes
#: a graph; ``n_vertices``/``n_edges`` serve the Table-1 statistics
#: without decoding either.  ``slab_index`` holds the aligned slab
#: index: ``rows_key`` is :func:`rows_key` of the rows it indexes,
#: ``labels`` the JSON list of its sorted alphabet, ``layout`` the JSON
#: of :func:`repro.graphdb.slab.index_layout` (each array's name, dtype
#: and shape), ``arrays`` those arrays' bytes end to end, and
#: ``checksum`` the SHA-256 hex digest of ``arrays``.
DDL = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS graphs (
        tid        INTEGER PRIMARY KEY,
        encoding   TEXT NOT NULL,
        digest     TEXT NOT NULL,
        n_vertices INTEGER NOT NULL,
        n_edges    INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS label_supports (
        label   TEXT PRIMARY KEY,
        support INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS slab_index (
        rows_key TEXT NOT NULL,
        labels   TEXT NOT NULL,
        layout   TEXT NOT NULL,
        arrays   BLOB NOT NULL,
        checksum TEXT NOT NULL
    )
    """,
)


def encode_graph(graph: Graph) -> str:
    """Encode one transaction as compact, canonical JSON.

    Vertices and edges are sorted, so structurally equal graphs encode
    to identical bytes; the encoding is lossless for arbitrary string
    labels (unlike the digest preimage, which is a hash input only).
    """
    return json.dumps(
        {
            "v": [[v, graph.label(v)] for v in sorted(graph.vertices())],
            "e": sorted(graph.edges()),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


#: One parsed transaction row: its vertex ids ascending, each vertex's
#: label, and its edges as two parallel lists of positions into the
#: vertex list (edge ``i`` joins ``ends[0][i]`` and ``ends[1][i]``).
Row = Tuple[List[int], List[Label], Tuple[List[int], List[int]]]


def parse_row(text: str, tid: int) -> Row:
    """Parse and validate one :func:`encode_graph` row, building no graph.

    The one reader of the row encoding: :func:`decode_graph` and the
    store's slab feed both go through it, so every path validates a
    row the same way.  Rows that are not a JSON object of ``"v"``
    (``[id, label]`` pairs) and ``"e"`` (``[u, v]`` pairs), or that
    repeat a vertex id, hold a self loop, or name an unknown vertex in
    an edge raise :class:`DatabaseError` naming ``tid``.  A repeated
    edge is kept: both readers treat it as one.
    """
    try:
        payload = json.loads(text)
        # Columns of the pair lists; ``strict`` rejects ragged pairs.
        ids, names = list(zip(*payload["v"], strict=True)) or [(), ()]
        us, vs = list(zip(*payload["e"], strict=True)) or [(), ()]
        vertices = list(map(int, ids))
        labels = list(map(str, names))
    except (ValueError, TypeError, KeyError) as exc:
        raise DatabaseError(
            f"transaction {tid} has a malformed encoding ({type(exc).__name__}: {exc})"
        ) from None
    position = dict(zip(vertices, range(len(vertices))))
    if len(position) < len(vertices):
        repeated = next(v for v, n in Counter(vertices).items() if n > 1)
        raise DatabaseError(f"transaction {tid} repeats vertex {repeated}")
    if vertices != sorted(vertices):
        order = sorted(range(len(vertices)), key=vertices.__getitem__)
        vertices = [vertices[i] for i in order]
        labels = [labels[i] for i in order]
        position = dict(zip(vertices, range(len(vertices))))
    try:
        ends = (list(map(position.__getitem__, us)), list(map(position.__getitem__, vs)))
    except KeyError as exc:
        raise DatabaseError(
            f"transaction {tid} has an edge to unknown vertex {exc.args[0]!r}"
        ) from None
    except TypeError as exc:
        raise DatabaseError(f"transaction {tid} has a malformed edge ({exc})") from None
    if any(map(operator.eq, *ends)):
        a = next(a for a, b in zip(*ends) if a == b)
        raise DatabaseError(f"transaction {tid} has a self loop on vertex {vertices[a]}")
    return vertices, labels, ends


def decode_graph(text: str, graph_id: int) -> Graph:
    """Rebuild a transaction from :func:`encode_graph` output.

    Raises :class:`DatabaseError` for a row :func:`parse_row` rejects.
    """
    vertices, labels, edges = parse_row(text, graph_id)
    return Graph._from_row(vertices, labels, edges, graph_id)


def digest_preimage(graph: Graph) -> bytes:
    """The canonical byte string a transaction hashes to its digest.

    Exactly the per-graph slice of the historical whole-database
    fingerprint stream: ``t`` then ``v<id>=<label>;`` per sorted
    vertex then ``e<u>-<v>;`` per sorted edge.
    """
    parts = ["t"]
    parts.extend(
        f"v{vertex}={graph.label(vertex)};" for vertex in sorted(graph.vertices())
    )
    parts.extend(f"e{u}-{v};" for u, v in sorted(graph.edges()))
    return "".join(parts).encode()


def transaction_digest(graph: Graph) -> str:
    """SHA-256 hex digest of one transaction's structure.

    A pure function of (vertex ids, labels, edges) — independent of
    construction order, the transaction's position, and the storage
    backend holding it.
    """
    return hashlib.sha256(digest_preimage(graph)).hexdigest()


def rows_key(rows: Iterable[Tuple[int, str]]) -> str:
    """SHA-256 hex digest of a store's ``(tid, encoding)`` rows, in order.

    What a stored slab index is valid for.  Not the fingerprint: that
    folds the stored ``digest`` column, which an edit of ``encoding``
    leaves alone, so only a key over the encodings themselves sees a
    row changed under the index.
    """
    key = hashlib.sha256()
    for tid, encoding in rows:
        data = str(encoding).encode()
        key.update(b"%d:%d:" % (tid, len(data)))
        key.update(data)
    return key.hexdigest()


def fingerprint_digests(digests: Iterable[str]) -> str:
    """Fold an ordered stream of per-transaction digests into one.

    This is the whole-database fingerprint: SHA-256 over the
    concatenated raw digest bytes, in transaction order.  Streaming —
    it never needs the transactions themselves, so a SQLite store
    fingerprints from its ``digest`` column without decoding a single
    graph, and lands on the same value as the in-memory database it
    was imported from.
    """
    rollup = hashlib.sha256()
    for digest in digests:
        rollup.update(bytes.fromhex(digest))
    return rollup.hexdigest()
