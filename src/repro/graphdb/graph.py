"""Labeled undirected graph transactions.

A graph transaction is defined in Section 2 of the paper as a tuple
``G = {V, E, L_V, F_V}``: a set of vertices, undirected edges, vertex
labels, and a mapping from vertices to labels.  Edge labels are
deliberately not modelled — the paper explicitly ignores them when
computing frequent closed cliques (end of Section 2).

The representation here favours the access patterns CLAN needs:

* adjacency is stored as one ``set`` of neighbour ids per vertex, so
  "is v adjacent to every vertex of this embedding" and common-neighbour
  intersections are fast;
* vertices of each label are indexed (``vertices_with_label``) because
  clique extension enumerates candidate vertices label by label;
* a lazily-built bitset index (``neighbor_mask``/``label_mask``, one
  bit per vertex in sorted-id order) serves the miner's ``bitset``
  kernel, which intersects candidate sets with integer ``&`` instead
  of hashed set operations.

Vertex ids are small integers supplied by the caller; they do not need
to be contiguous, which lets pruned "pseudo databases" reuse the ids of
the original graph (Section 4.2 of the paper).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..exceptions import (
    DuplicateVertexError,
    GraphError,
    SelfLoopError,
    VertexNotFoundError,
)
from .bitset import GraphBitIndex

Label = str


class Graph:
    """A vertex-labeled, undirected, simple graph transaction.

    Parameters
    ----------
    graph_id:
        Identifier of this transaction inside its database (purely
        informational; the database assigns authoritative indices).

    Examples
    --------
    >>> g = Graph()
    >>> g.add_vertex(0, "a")
    >>> g.add_vertex(1, "b")
    >>> g.add_edge(0, 1)
    >>> g.has_edge(1, 0)
    True
    >>> sorted(g.neighbors(0))
    [1]
    """

    __slots__ = (
        "graph_id",
        "_labels",
        "_adjacency",
        "_label_index",
        "_edge_count",
        "_bit_index",
        "_core_index",
    )

    def __init__(self, graph_id: Optional[int] = None) -> None:
        self.graph_id = graph_id
        self._labels: Dict[int, Label] = {}
        self._adjacency: Dict[int, Set[int]] = {}
        self._label_index: Dict[Label, Set[int]] = {}
        self._edge_count = 0
        self._bit_index: Optional[GraphBitIndex] = None
        self._core_index = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: int, label: Label) -> None:
        """Add a vertex with the given label.

        Raises :class:`DuplicateVertexError` if the id is already used.
        """
        if vertex in self._labels:
            raise DuplicateVertexError(vertex)
        self._labels[vertex] = label
        self._adjacency[vertex] = set()
        self._label_index.setdefault(label, set()).add(vertex)
        self._bit_index = None
        self._core_index = None

    def add_edge(self, u: int, v: int) -> None:
        """Add an undirected edge between two existing vertices.

        Adding an edge twice is a no-op; self loops are rejected because
        transactions are simple graphs.
        """
        if u == v:
            raise SelfLoopError(u)
        if u not in self._labels:
            raise VertexNotFoundError(u)
        if v not in self._labels:
            raise VertexNotFoundError(v)
        if v in self._adjacency[u]:
            return
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._edge_count += 1
        self._bit_index = None
        self._core_index = None

    def remove_vertex(self, vertex: int) -> None:
        """Remove a vertex and all its incident edges."""
        if vertex not in self._labels:
            raise VertexNotFoundError(vertex)
        for neighbor in self._adjacency[vertex]:
            self._adjacency[neighbor].discard(vertex)
            self._edge_count -= 1
        label = self._labels[vertex]
        self._label_index[label].discard(vertex)
        if not self._label_index[label]:
            del self._label_index[label]
        del self._adjacency[vertex]
        del self._labels[vertex]
        self._bit_index = None
        self._core_index = None

    @classmethod
    def from_edges(
        cls,
        labels: Mapping[int, Label],
        edges: Iterable[Tuple[int, int]],
        graph_id: Optional[int] = None,
    ) -> "Graph":
        """Build a graph from a label mapping and an edge list."""
        graph = cls(graph_id)
        for vertex, label in labels.items():
            graph.add_vertex(vertex, label)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    @classmethod
    def _from_row(
        cls,
        vertices: List[int],
        labels: List[Label],
        ends: Tuple[List[int], List[int]],
        graph_id: Optional[int] = None,
    ) -> "Graph":
        """Build from a row :func:`repro.graphdb.schema.parse_row` validated.

        ``vertices`` are distinct, ``labels`` parallel to them, and
        ``ends`` two parallel position lists whose pairs are distinct
        positions into ``vertices`` (a repeated pair counts once), so
        no per-call checks are needed.
        """
        graph = cls(graph_id)
        graph._labels = dict(zip(vertices, labels))
        neighbors: List[Set[int]] = [set() for _ in vertices]
        for a, b in zip(*ends):
            neighbors[a].add(vertices[b])
            neighbors[b].add(vertices[a])
        graph._adjacency = dict(zip(vertices, neighbors))
        label_index = graph._label_index
        for vertex, label in zip(vertices, labels):
            label_index.setdefault(label, set()).add(vertex)
        graph._edge_count = sum(map(len, neighbors)) // 2
        return graph

    def copy(self, graph_id: Optional[int] = None) -> "Graph":
        """Return a deep copy, optionally with a new graph id."""
        clone = Graph(self.graph_id if graph_id is None else graph_id)
        clone._labels = dict(self._labels)
        clone._adjacency = {v: set(nbrs) for v, nbrs in self._adjacency.items()}
        clone._label_index = {l: set(vs) for l, vs in self._label_index.items()}
        clone._edge_count = self._edge_count
        return clone

    def relabeled(self, offset: int, graph_id: Optional[int] = None) -> "Graph":
        """Return a copy whose vertex ids are shifted by ``offset``.

        Used by database replication (the scalability experiment of
        Figure 7(b)) to keep ids unique if transactions are merged.
        """
        clone = Graph(graph_id)
        for vertex, label in self._labels.items():
            clone.add_vertex(vertex + offset, label)
        for u, v in self.edges():
            clone.add_edge(u + offset, v + offset)
        return clone

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def vertex_count(self) -> int:
        """Number of vertices, ``|V|``."""
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges, ``|E|``."""
        return self._edge_count

    def vertices(self) -> Iterator[int]:
        """Iterate over vertex ids (insertion order)."""
        return iter(self._labels)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges as ``(u, v)`` with ``u < v``."""
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def label(self, vertex: int) -> Label:
        """Return the label of a vertex."""
        try:
            return self._labels[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def labels(self) -> Dict[int, Label]:
        """Return a copy of the vertex → label mapping."""
        return dict(self._labels)

    def label_map(self) -> Mapping[int, Label]:
        """Return the live vertex → label mapping (do not mutate).

        Exposed for hot loops (the miner's extension scans) that would
        otherwise pay a method call per vertex; treat it as read-only.
        """
        return self._labels

    def adjacency_map(self) -> Mapping[int, Set[int]]:
        """Return the live vertex → neighbour-set mapping (do not mutate).

        The adjacency analogue of :meth:`label_map`, for the miner's
        per-candidate intersection loops.
        """
        return self._adjacency

    def distinct_labels(self) -> Set[Label]:
        """Return the set of labels in use, ``L_V``."""
        return set(self._label_index)

    def vertices_with_label(self, label: Label) -> FrozenSet[int]:
        """Return the vertices carrying ``label`` (empty if none)."""
        return frozenset(self._label_index.get(label, frozenset()))

    def has_vertex(self, vertex: int) -> bool:
        """Return whether a vertex id exists."""
        return vertex in self._labels

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether an undirected edge exists between ``u`` and ``v``."""
        return v in self._adjacency.get(u, ())

    def neighbors(self, vertex: int) -> Set[int]:
        """Return the (live) neighbour set of a vertex.

        The returned set is the internal adjacency set; callers must not
        mutate it.  It is exposed directly because CLAN's hot loop is
        set intersections over neighbourhoods.
        """
        try:
            return self._adjacency[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def degree(self, vertex: int) -> int:
        """Return the degree of a vertex."""
        return len(self.neighbors(vertex))

    def max_degree(self) -> int:
        """Return the maximum vertex degree (0 for an empty graph)."""
        if not self._adjacency:
            return 0
        return max(len(nbrs) for nbrs in self._adjacency.values())

    def density(self) -> float:
        """Return ``2|E| / (|V| (|V|-1))``; 0.0 for fewer than 2 vertices."""
        n = self.vertex_count
        if n < 2:
            return 0.0
        return 2.0 * self._edge_count / (n * (n - 1))

    def is_clique(self, vertices: Iterable[int]) -> bool:
        """Return whether the given vertices are pairwise adjacent.

        A set of fewer than two vertices is trivially a clique.  Raises
        :class:`VertexNotFoundError` for unknown ids.
        """
        vertex_list = list(vertices)
        for vertex in vertex_list:
            if vertex not in self._labels:
                raise VertexNotFoundError(vertex)
        for i, u in enumerate(vertex_list):
            adjacency = self._adjacency[u]
            for v in vertex_list[i + 1 :]:
                if v not in adjacency:
                    return False
        return True

    def label_multiset(self, vertices: Iterable[int]) -> Tuple[Label, ...]:
        """Return the sorted tuple of labels of the given vertices."""
        return tuple(sorted(self._labels[v] for v in vertices))

    def induced_subgraph(self, vertices: Iterable[int], graph_id: Optional[int] = None) -> "Graph":
        """Return the subgraph induced by ``vertices`` (ids preserved)."""
        keep = set(vertices)
        subgraph = Graph(graph_id if graph_id is not None else self.graph_id)
        for vertex in keep:
            subgraph.add_vertex(vertex, self.label(vertex))
        for vertex in keep:
            for neighbor in self._adjacency[vertex]:
                if neighbor in keep and vertex < neighbor:
                    subgraph.add_edge(vertex, neighbor)
        return subgraph

    def common_neighbors(self, vertices: Iterable[int]) -> Set[int]:
        """Return vertices adjacent to *every* vertex in ``vertices``.

        This is the extension-vertex set ``V_i`` of Section 4.3 for an
        embedding.  Raises :class:`GraphError` when called with no
        vertices, because "common neighbours of nothing" is ambiguous.
        """
        vertex_list = list(vertices)
        if not vertex_list:
            raise GraphError("common_neighbors requires at least one vertex")
        # Intersect starting from the smallest neighbourhood.
        vertex_list.sort(key=lambda v: len(self.neighbors(v)))
        result = set(self._adjacency[vertex_list[0]])
        for vertex in vertex_list[1:]:
            result &= self._adjacency[vertex]
            if not result:
                break
        result.difference_update(vertex_list)
        return result

    # ------------------------------------------------------------------
    # Bitset kernel (lazily-built mask index)
    # ------------------------------------------------------------------
    def bit_index(self) -> GraphBitIndex:
        """Return the lazily-built mask index of this graph.

        Bit ``i`` stands for the ``i``-th smallest vertex id, so the
        mapping is a pure function of the vertex set — stable across
        construction order and isomorphic re-insertion.  The index is
        invalidated by any mutation (``add_vertex``/``add_edge``/
        ``remove_vertex``) and rebuilt on next access.
        """
        index = self._bit_index
        if index is None:
            index = self._bit_index = GraphBitIndex(self._labels, self._adjacency)
        return index

    def core_index(self):
        """Return the lazily-built core-decomposition index of this graph.

        The :class:`~repro.graphdb.core_index.CoreIndex` is a pure
        function of the graph structure, so it is cached here and
        invalidated on mutation — repeated mining runs over the same
        database (parameter sweeps, benchmarks) pay for the core
        decomposition once instead of once per run.
        """
        index = self._core_index
        if index is None:
            from .core_index import CoreIndex

            index = self._core_index = CoreIndex(self)
        return index

    def vertex_bit_order(self) -> Tuple[int, ...]:
        """Bit position → vertex id (ascending vertex ids)."""
        return self.bit_index().order

    def bit_of(self, vertex: int) -> int:
        """Bit position of a vertex in this graph's masks."""
        try:
            return self.bit_index().bit[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def neighbor_mask(self, vertex: int) -> int:
        """Neighbour set of ``vertex`` as a bitmask."""
        try:
            return self.bit_index().neighbor_masks[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def label_mask(self, label: Label) -> int:
        """Mask of the vertices carrying ``label`` (0 if none)."""
        return self.bit_index().label_masks.get(label, 0)

    def vertices_mask(self) -> int:
        """Mask with every vertex bit set."""
        return self.bit_index().all_mask

    def mask_of(self, vertices: Iterable[int]) -> int:
        """Mask of an arbitrary vertex-id collection."""
        try:
            return self.bit_index().mask_of(vertices)
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None

    def vertices_from_mask(self, mask: int) -> List[int]:
        """Vertex ids of the set bits of ``mask``, ascending."""
        return self.bit_index().vertices_of(mask)

    def connected_components(self) -> List[Set[int]]:
        """Return connected components as vertex-id sets."""
        seen: Set[int] = set()
        components: List[Set[int]] = []
        for start in self._labels:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                vertex = frontier.pop()
                for neighbor in self._adjacency[vertex]:
                    if neighbor not in component:
                        component.add(neighbor)
                        frontier.append(neighbor)
            seen |= component
            components.append(component)
        return components

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, vertex: object) -> bool:
        return vertex in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[int]:
        return iter(self._labels)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same ids, labels, and edges."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._adjacency == other._adjacency

    def __hash__(self) -> int:  # pragma: no cover - explicit unhashability
        raise TypeError("Graph is mutable and unhashable")

    def __repr__(self) -> str:
        gid = f" id={self.graph_id}" if self.graph_id is not None else ""
        return f"<Graph{gid} |V|={self.vertex_count} |E|={self.edge_count}>"
