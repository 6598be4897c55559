"""Graph transaction databases.

A :class:`GraphDatabase` is the ``D`` of Section 2: an ordered
collection of labeled undirected graph transactions.  It owns the
support-threshold arithmetic (relative percentages → absolute counts)
and the replication operation used by the scalability study of
Figure 7(b).

Storage is pluggable: the database is a *view* over a
:class:`~repro.graphdb.storage.GraphSource` — the in-memory list by
default, or an out-of-core backend like
:class:`~repro.graphdb.storage.SqliteGraphSource` that streams
transactions instead of holding them resident.  Everything above this
class (kernels, engine, executor, sessions, service) is
storage-agnostic.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from ..exceptions import DatabaseError, InvalidSupportError
from .graph import Graph, Label
from .storage import GraphSource, InMemoryGraphSource


class GraphDatabase:
    """An ordered collection of graph transactions.

    Transactions keep their position index as the authoritative
    transaction id used in embeddings and support sets.

    Examples
    --------
    >>> db = GraphDatabase([Graph.from_edges({0: "a", 1: "b"}, [(0, 1)])])
    >>> len(db)
    1
    >>> db.absolute_support(1.0)
    1
    """

    __slots__ = ("_source", "_resident", "name")

    def __init__(
        self,
        graphs: Optional[Iterable[Graph]] = None,
        name: str = "",
        source: Optional[GraphSource] = None,
    ) -> None:
        if source is None:
            source = InMemoryGraphSource()
        self._source = source
        #: Direct reference to the resident list for in-memory sources —
        #: keeps ``db[tid]`` in the kernels' extension loops a plain
        #: list index instead of a delegating method call.
        self._resident: Optional[List[Graph]] = (
            source.graphs if isinstance(source, InMemoryGraphSource) else None
        )
        self.name = name or source.name
        for graph in graphs or ():
            self.add(graph)

    @property
    def source(self) -> GraphSource:
        """The storage backend this database is a view over."""
        return self._source

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, graph: Graph) -> int:
        """Append a transaction and return its transaction id."""
        tid = self._source.append(graph)
        if graph.graph_id is None:
            graph.graph_id = tid
        return tid

    def slab_space(self):
        """The transposed numpy slab index, or ``None``.

        Built by :func:`repro.graphdb.slab.build_slab_space` from the
        storage backend's feed of transactions — derived from resident
        indexes in memory, parsed once per row without building a graph
        for a SQLite store — and ``None`` whenever some transaction
        repeats a label or the index would exceed the build-memory
        ceiling.
        """
        return self._source.slab_space()

    def replicate(self, factor: int, name: str = "") -> "GraphDatabase":
        """Return a database with every transaction repeated ``factor`` times.

        This is the base-size scaling of the paper's Figure 7(b): the
        graphs are replicated from 2 to 16 times and runtime is expected
        to grow linearly.  Each occurrence is an independent transaction
        (a fresh tid), but the :class:`Graph` objects are *shared*, not
        copied — transactions are immutable once added, so replication
        is O(factor × |D|) references, and the graphs' lazily-built
        kernel indexes are shared too.
        """
        if factor < 1:
            raise DatabaseError(f"replication factor must be >= 1, got {factor}")
        replica = GraphDatabase(name=name or f"{self.name}x{factor}")
        for _ in range(factor):
            for graph in self:
                replica._source.append(graph)
        return replica

    def subset(self, transaction_ids: Iterable[int], name: str = "") -> "GraphDatabase":
        """Return a database holding the selected transactions.

        The selected :class:`Graph` objects are shared with this
        database (never copied): transactions are immutable once
        added, so a subset is O(k) references — see the 10k-transaction
        no-copy regression in ``tests/test_storage.py``.
        """
        picked = GraphDatabase(name=name or f"{self.name}-subset")
        for tid in transaction_ids:
            picked._source.append(self[tid])
        return picked

    # ------------------------------------------------------------------
    # Support arithmetic
    # ------------------------------------------------------------------
    def absolute_support(self, min_sup: float) -> int:
        """Convert a support threshold to an absolute transaction count.

        ``min_sup`` may be an absolute integer count (``1 <= min_sup <=
        |D|``, integers only), a relative fraction in ``(0, 1]`` (floats
        only), or any string :func:`repro.core.support.parse_support`
        accepts (``"10"``, ``"0.85"``, ``"85%"``).  The relative form
        rounds *up*, matching the usual "at least x%" semantics: 85% of
        11 graphs requires support 10.  Zero, negative, and float-count
        spellings like ``2.0`` are ambiguous and rejected outright.
        """
        from ..core.support import parse_support

        size = len(self)
        if not size:
            raise DatabaseError("cannot derive a support threshold for an empty database")
        min_sup = parse_support(min_sup)
        if isinstance(min_sup, int):
            if min_sup > size:
                raise InvalidSupportError(
                    min_sup,
                    f"absolute support exceeds the database's {size} "
                    f"transactions",
                )
            return min_sup
        absolute = -int(-min_sup * size // 1)  # ceil without math import
        return max(1, absolute)

    def label_supports(self) -> Dict[Label, int]:
        """Return, for each label, the number of transactions containing it.

        Delegated to the storage backend: the SQLite store answers from
        its ``label_supports`` table without decoding a single graph,
        which is what keeps the engine's root scan out-of-core.
        """
        return self._source.label_supports()

    def frequent_labels(self, min_sup_abs: int) -> List[Label]:
        """Return labels supported by at least ``min_sup_abs`` transactions, sorted."""
        return sorted(
            label for label, sup in self.label_supports().items() if sup >= min_sup_abs
        )

    def distinct_labels(self) -> Set[Label]:
        """Return the union of all transaction label sets."""
        return set(self.label_supports())

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def transaction_digests(self) -> Iterator[str]:
        """Per-transaction structural digests, in transaction order.

        The stream :func:`repro.io.runlog.database_fingerprint` folds;
        the SQLite backend serves it from its stored ``digest`` column.
        """
        return self._source.transaction_digests()

    # ------------------------------------------------------------------
    # Aggregate statistics (feeds Table 1)
    # ------------------------------------------------------------------
    def total_vertices(self) -> int:
        """Total vertex count across all transactions."""
        return sum(g.vertex_count for g in self)

    def total_edges(self) -> int:
        """Total edge count across all transactions."""
        return sum(g.edge_count for g in self)

    def average_vertices(self) -> float:
        """Average ``|V|`` per transaction (0.0 for an empty database)."""
        size = len(self)
        if not size:
            return 0.0
        return self.total_vertices() / size

    def average_edges(self) -> float:
        """Average ``|E|`` per transaction (0.0 for an empty database)."""
        size = len(self)
        if not size:
            return 0.0
        return self.total_edges() / size

    def max_vertices(self) -> int:
        """Largest ``|V|`` over all transactions (0 if empty)."""
        return max((g.vertex_count for g in self), default=0)

    def max_edges(self) -> int:
        """Largest ``|E|`` over all transactions (0 if empty)."""
        return max((g.edge_count for g in self), default=0)

    def max_degree(self) -> int:
        """Largest vertex degree over all transactions (0 if empty)."""
        return max((g.max_degree() for g in self), default=0)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        resident = self._resident
        if resident is not None:
            return len(resident)
        return len(self._source)

    def __iter__(self) -> Iterator[Graph]:
        resident = self._resident
        if resident is not None:
            return iter(resident)
        return iter(self._source)

    def __getitem__(self, tid: int) -> Graph:
        resident = self._resident
        if resident is not None:
            try:
                return resident[tid]
            except IndexError:
                raise DatabaseError(
                    f"transaction id {tid} out of range for database of size "
                    f"{len(resident)}"
                ) from None
        return self._source.get(tid)

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return (
            f"<GraphDatabase{name} |D|={len(self)} "
            f"avg|V|={self.average_vertices():.1f} avg|E|={self.average_edges():.1f}>"
        )
