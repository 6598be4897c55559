"""Pluggable transaction storage behind :class:`GraphDatabase`.

A :class:`GraphSource` is the storage seam the database delegates to:
random access by transaction id, ordered (streaming) iteration,
range iteration for sharding, per-label supports, per-transaction
digests, and the lazily-built kernel spaces.  Two backends implement
it:

* :class:`InMemoryGraphSource` — the historical Python list.  The
  default; every existing construction path uses it unchanged.
* :class:`SqliteGraphSource` — an on-disk SQLite store
  (:mod:`repro.graphdb.schema`) that decodes transactions on demand in
  shard-sized batches and never holds the full database resident.
  Label supports, digests, and size statistics come from dedicated
  columns, so fingerprinting and root planning do not decode graphs
  at all.

Both backends feed the one transposed slab builder
(:func:`repro.graphdb.slab.build_slab_space`): the in-memory source
from its resident graphs' indexes, the SQLite store straight from its
rows, read once and parsed (:func:`repro.graphdb.schema.parse_row`)
into vertex ids, labels and edge positions without building any
graph.  An aligned (unique-label) store therefore mines on the slab
kernel with no graph built.  Every reader of a row
validates it through that one parser, and a damaged row raises
:class:`DatabaseError` naming the store and the transaction.

The seam is what makes out-of-core mining composable: the engine only
ever sees a :class:`GraphDatabase`, and
:func:`repro.core.sharding.mine_sharded` materialises one shard of any
source at a time where the slab cannot hold the store.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sqlite3
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..exceptions import DatabaseError
from .graph import Graph, Label
from .schema import (
    DDL,
    SCHEMA_VERSION,
    decode_graph,
    encode_graph,
    parse_row,
    transaction_digest,
)

PathLike = Union[str, Path]

# Sentinel: the slab space has not been computed yet (``None`` is a
# valid cached answer, meaning "not available").
_SPACE_UNSET = object()


class GraphSource:
    """The storage protocol behind :class:`~repro.graphdb.database.
    GraphDatabase`.

    Subclasses must preserve the database's core invariant: transaction
    ids are dense positions ``0..len-1`` in append order, and a graph,
    once appended, is never mutated through the source.
    """

    name: str = ""

    # -- required surface ----------------------------------------------
    def __len__(self) -> int:
        raise NotImplementedError

    def get(self, tid: int) -> Graph:
        """Transaction by id; raises :class:`DatabaseError` out of range."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Graph]:
        return self.iter_range(0, len(self))

    def iter_range(self, lo: int, hi: int) -> Iterator[Graph]:
        """Stream transactions ``lo <= tid < hi`` in tid order."""
        raise NotImplementedError

    def append(self, graph: Graph) -> int:
        """Persist a transaction; returns its assigned tid."""
        raise NotImplementedError

    def label_supports(self) -> Dict[Label, int]:
        """Per label, the number of transactions containing it."""
        raise NotImplementedError

    def transaction_digests(self) -> Iterator[str]:
        """Per-transaction structural digests, in tid order."""
        raise NotImplementedError

    # -- kernel spaces --------------------------------------------------
    def slab_space(self):
        """The transposed numpy slab index, or ``None``.

        ``None`` when some transaction repeats a label, when the index
        would outgrow :data:`repro.graphdb.slab.DEFAULT_BUILD_BYTES`,
        or when the backend does not build one; the slab kernel then
        runs on int masks.
        """
        return None

    def close(self) -> None:
        """Release backend resources (no-op for in-memory)."""

    def _check_range(self, tid: int) -> None:
        if not 0 <= tid < len(self):
            raise DatabaseError(
                f"transaction id {tid} out of range for database of size {len(self)}"
            )


class InMemoryGraphSource(GraphSource):
    """The historical backend: a Python list of resident graphs.

    Owns the lazily-built slab space that used to live on
    :class:`GraphDatabase` — it is a storage-level cache (it indexes
    the resident graphs), so it moved with the storage.
    """

    __slots__ = ("graphs", "name", "_slab_cache", "_scan_cache")

    def __init__(self, graphs: Optional[List[Graph]] = None, name: str = "") -> None:
        self.graphs: List[Graph] = list(graphs) if graphs else []
        self.name = name
        self._slab_cache: Optional[tuple] = None
        #: ``[per-graph bit indexes, label supports, digests]`` of the
        #: last scans (``None`` until computed); see :meth:`_scans`.
        self._scan_cache: Optional[list] = None

    def __len__(self) -> int:
        return len(self.graphs)

    def get(self, tid: int) -> Graph:
        try:
            return self.graphs[tid]
        except IndexError:
            raise DatabaseError(
                f"transaction id {tid} out of range for database of size "
                f"{len(self.graphs)}"
            ) from None

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)

    def iter_range(self, lo: int, hi: int) -> Iterator[Graph]:
        return iter(self.graphs[lo:hi])

    def append(self, graph: Graph) -> int:
        tid = len(self.graphs)
        self.graphs.append(graph)
        return tid

    def _scans(self) -> list:
        """The memo of whole-database scans, reset when any graph changed.

        A graph's bit index is rebuilt on every mutation, so comparing
        index identities sees appends and mutated transactions alike.
        """
        graphs = self.graphs
        cached = self._scan_cache
        if cached is not None and len(cached[0]) == len(graphs):
            if all(graph._bit_index is index for graph, index in zip(graphs, cached[0])):
                return cached
        cached = self._scan_cache = [[graph.bit_index() for graph in graphs], None, None]
        return cached

    def label_supports(self) -> Dict[Label, int]:
        scans = self._scans()
        if scans[1] is None:
            supports: Dict[Label, int] = {}
            for index in scans[0]:
                for label in index.label_masks:
                    supports[label] = supports.get(label, 0) + 1
            scans[1] = supports
        return dict(scans[1])

    def transaction_digests(self) -> Iterator[str]:
        scans = self._scans()
        if scans[2] is None:
            # Replicated databases share graph objects: hash each once.
            by_graph: Dict[int, str] = {}
            digests = []
            for graph in self.graphs:
                digest = by_graph.get(id(graph))
                if digest is None:
                    digest = by_graph[id(graph)] = transaction_digest(graph)
                digests.append(digest)
            scans[2] = digests
        return iter(scans[2])

    def slab_space(self):
        # Keyed by the scan memo, which is replaced whenever a graph
        # changes; the build reads the memo's resident indexes.
        scans = self._scans()
        cached = self._slab_cache
        if cached is not None and cached[0] is scans:
            return cached[1]
        indexes = scans[0]
        slab = None
        if all(index.unique_labels for index in indexes):
            from .slab import build_slab_space, index_feed

            labels = tuple(sorted(self.label_supports()))
            slab = build_slab_space(index_feed(indexes), labels, len(indexes))
        self._slab_cache = (scans, slab)
        return slab


class SqliteGraphSource(GraphSource):
    """An on-disk SQLite transaction store.

    Transactions live one per row (:mod:`repro.graphdb.schema`); reads
    decode on demand and cache a bounded number of *batches* (windows
    of ``batch_size`` consecutive tids), so the miner's random-access
    patterns — which are strongly tid-local — hit warm decodes while
    resident memory stays O(``batch_size`` × ``max_batches``), not
    O(database).

    The connection is opened lazily and dropped on pickling, so a
    source (and any :class:`GraphDatabase` view over it) can cross a
    process boundary to worker pools; each process reopens its own
    connection on first use.
    """

    __slots__ = (
        "path",
        "name",
        "batch_size",
        "max_batches",
        "_conn",
        "_len",
        "_label_supports",
        "_batches",
        "_batch_order",
        "_slab",
    )

    def __init__(
        self,
        path: PathLike,
        *,
        name: Optional[str] = None,
        batch_size: int = 64,
        max_batches: int = 4,
        create: bool = False,
    ) -> None:
        if batch_size < 1:
            raise DatabaseError(f"batch_size must be >= 1, got {batch_size}")
        if max_batches < 1:
            raise DatabaseError(f"max_batches must be >= 1, got {max_batches}")
        self.path = str(path)
        self.batch_size = batch_size
        self.max_batches = max_batches
        self._conn: Optional[sqlite3.Connection] = None
        self._len: Optional[int] = None
        self._label_supports: Optional[Dict[Label, int]] = None
        self._batches: Dict[int, Dict[int, Graph]] = {}
        self._batch_order: List[int] = []
        self._slab: object = _SPACE_UNSET
        if not create and not os.path.exists(self.path):
            raise DatabaseError(f"no graph store at {self.path!r}")
        if create:
            conn = self._connect()
            for statement in DDL:
                conn.execute(statement)
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
            if name is not None:
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    ("name", name),
                )
            conn.commit()
        self.name = name if name is not None else self._stored_name()

    # -- connection management -----------------------------------------
    def _connect(self) -> sqlite3.Connection:
        conn = self._conn
        if conn is None:
            conn = self._conn = sqlite3.connect(self.path)
        return conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __getstate__(self):
        # Connections and decode caches do not cross processes.
        return (self.path, self.name, self.batch_size, self.max_batches)

    def __setstate__(self, state) -> None:
        self.path, self.name, self.batch_size, self.max_batches = state
        self._conn = None
        self._len = None
        self._label_supports = None
        self._batches = {}
        self._batch_order = []
        self._slab = _SPACE_UNSET

    def _stored_name(self) -> str:
        try:
            row = self._connect().execute(
                "SELECT value FROM meta WHERE key = 'name'"
            ).fetchone()
        except sqlite3.Error as exc:
            raise DatabaseError(
                f"{self.path!r} is not a clan graph store: {exc}"
            ) from exc
        return row[0] if row is not None else ""

    def schema_version(self) -> int:
        try:
            row = self._connect().execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.Error as exc:
            raise DatabaseError(
                f"{self.path!r} is not a clan graph store: {exc}"
            ) from exc
        if row is None:
            raise DatabaseError(f"{self.path!r} is not a clan graph store")
        return int(row[0])

    # -- GraphSource surface -------------------------------------------
    def __len__(self) -> int:
        if self._len is None:
            row = self._connect().execute("SELECT COUNT(*) FROM graphs").fetchone()
            self._len = int(row[0])
        return self._len

    def get(self, tid: int) -> Graph:
        self._check_range(tid)
        base = (tid // self.batch_size) * self.batch_size
        batch = self._batches.get(base)
        if batch is None:
            with self._corrupt_rows():
                batch = {
                    row_tid: decode_graph(encoding, row_tid)
                    for row_tid, encoding in self._connect().execute(
                        "SELECT tid, encoding FROM graphs WHERE tid >= ? AND tid < ? "
                        "ORDER BY tid",
                        (base, base + self.batch_size),
                    )
                }
            self._batches[base] = batch
            self._batch_order.append(base)
            while len(self._batch_order) > self.max_batches:
                evicted = self._batch_order.pop(0)
                del self._batches[evicted]
        graph = batch.get(tid)
        if graph is None:
            raise DatabaseError(f"graph store {self.path!r}: transaction {tid} is missing")
        return graph

    def iter_range(self, lo: int, hi: int) -> Iterator[Graph]:
        # Through the batch cache: a scan of a store that fits the cache
        # decodes each transaction once, however often it is repeated.
        for tid in range(max(lo, 0), min(hi, len(self))):
            yield self.get(tid)

    def append(self, graph: Graph) -> int:
        conn = self._connect()
        tid = len(self)
        conn.execute(
            "INSERT INTO graphs (tid, encoding, digest, n_vertices, n_edges) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                tid,
                encode_graph(graph),
                transaction_digest(graph),
                graph.vertex_count,
                graph.edge_count,
            ),
        )
        conn.executemany(
            "INSERT INTO label_supports (label, support) VALUES (?, 1) "
            "ON CONFLICT(label) DO UPDATE SET support = support + 1",
            [(label,) for label in sorted(graph.distinct_labels())],
        )
        conn.commit()
        self._len = tid + 1
        self._label_supports = None
        self._slab = _SPACE_UNSET
        base = (tid // self.batch_size) * self.batch_size
        self._batches.pop(base, None)
        if base in self._batch_order:
            self._batch_order.remove(base)
        return tid

    def label_supports(self) -> Dict[Label, int]:
        if self._label_supports is None:
            self._label_supports = {
                label: int(support)
                for label, support in self._connect().execute(
                    "SELECT label, support FROM label_supports"
                )
            }
        return dict(self._label_supports)

    def transaction_digests(self) -> Iterator[str]:
        cursor = self._connect().execute("SELECT digest FROM graphs ORDER BY tid")
        for (digest,) in cursor:
            yield digest

    def slab_space(self):
        """The store's transposed slab index, fed straight from its rows.

        Built once and cached until the next :meth:`append`.  The
        alphabet comes from the ``label_supports`` column, and the
        columns also decide alignment without reading a row: per-label
        supports count each transaction's *distinct* labels, so they
        sum to the stored vertex total exactly when no transaction
        repeats a label.  An aligned store's rows are then read once,
        in tid order and outside the batch cache, and each is parsed
        (:func:`~repro.graphdb.schema.parse_row`) straight into the
        builder's feed: no :class:`Graph` or mask index is built.
        """
        slab = self._slab
        if slab is _SPACE_UNSET:
            slab = None
            supports = self.label_supports()
            if sum(supports.values()) == self.size_totals()[0]:
                from .slab import build_slab_space

                rows = self._connect().execute(
                    "SELECT tid, encoding FROM graphs ORDER BY tid"
                )
                feed = (
                    (tid, tid, functools.partial(parse_row, encoding, tid))
                    for tid, encoding in rows
                )
                with self._corrupt_rows():
                    slab = build_slab_space(feed, tuple(sorted(supports)), len(self))
            self._slab = slab
        return slab

    @contextlib.contextmanager
    def _corrupt_rows(self) -> Iterator[None]:
        """Name the store in a row's :class:`DatabaseError`."""
        try:
            yield
        except DatabaseError as exc:
            raise DatabaseError(f"graph store {self.path!r}: {exc}") from exc

    # -- decode-free statistics ----------------------------------------
    def size_totals(self) -> Tuple[int, int, int, int]:
        """``(total_vertices, total_edges, max_vertices, max_edges)``
        from the per-row columns, without decoding any graph."""
        row = self._connect().execute(
            "SELECT COALESCE(SUM(n_vertices), 0), COALESCE(SUM(n_edges), 0), "
            "COALESCE(MAX(n_vertices), 0), COALESCE(MAX(n_edges), 0) FROM graphs"
        ).fetchone()
        return (int(row[0]), int(row[1]), int(row[2]), int(row[3]))


def open_source(path: PathLike, **options) -> SqliteGraphSource:
    """Open an existing SQLite graph store (read/append)."""
    source = SqliteGraphSource(path, **options)
    source.schema_version()  # validates the file eagerly
    return source


def create_store(path: PathLike, name: str = "", **options) -> SqliteGraphSource:
    """Create a fresh SQLite graph store (fails if rows already exist)."""
    source = SqliteGraphSource(path, name=name, create=True, **options)
    if len(source) > 0:
        raise DatabaseError(f"{path!r} already holds {len(source)} transactions")
    return source


def import_graphs(
    path: PathLike,
    graphs: "Iterator[Graph]",
    *,
    name: str = "",
    commit_every: int = 256,
) -> SqliteGraphSource:
    """Stream transactions into a new SQLite store.

    Consumes any iterator (the streaming ``iter_database`` readers in
    :mod:`repro.io` compose directly), holding at most ``commit_every``
    encoded rows in flight — importing never materialises the database.
    """
    if commit_every < 1:
        raise DatabaseError(f"commit_every must be >= 1, got {commit_every}")
    source = create_store(path, name=name)
    conn = source._connect()
    tid = 0
    supports: Dict[Label, int] = {}
    rows = []
    for graph in graphs:
        rows.append(
            (
                tid,
                encode_graph(graph),
                transaction_digest(graph),
                graph.vertex_count,
                graph.edge_count,
            )
        )
        for label in graph.distinct_labels():
            supports[label] = supports.get(label, 0) + 1
        tid += 1
        if len(rows) >= commit_every:
            conn.executemany(
                "INSERT INTO graphs (tid, encoding, digest, n_vertices, n_edges) "
                "VALUES (?, ?, ?, ?, ?)",
                rows,
            )
            conn.commit()
            rows = []
    if rows:
        conn.executemany(
            "INSERT INTO graphs (tid, encoding, digest, n_vertices, n_edges) "
            "VALUES (?, ?, ?, ?, ?)",
            rows,
        )
    conn.executemany(
        "INSERT INTO label_supports (label, support) VALUES (?, ?) "
        "ON CONFLICT(label) DO UPDATE SET support = support + excluded.support",
        sorted(supports.items()),
    )
    conn.commit()
    source._len = tid
    source._label_supports = None
    return source
