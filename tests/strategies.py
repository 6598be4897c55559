"""Shared hypothesis strategies for graph databases.

Unlike the seed-based ``make_random_database`` helper, these strategies
let hypothesis shrink counter-examples structurally: fewer graphs,
fewer vertices, fewer edges, simpler labels.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import strategies as st

from repro.graphdb import Graph, GraphDatabase

#: Labels include multi-char and unicode to exercise string ordering.
label_st = st.sampled_from(["a", "b", "c", "aa", "Z", "µ", "C1"])


@st.composite
def labeled_graphs(draw, max_vertices: int = 7) -> Graph:
    """One labeled undirected simple graph with ids 0..n-1."""
    n = draw(st.integers(0, max_vertices))
    graph = Graph()
    for vertex in range(n):
        graph.add_vertex(vertex, draw(label_st))
    if n >= 2:
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = draw(
            st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        )
        for u, v in chosen:
            graph.add_edge(u, v)
    return graph


@st.composite
def graph_databases(
    draw, min_graphs: int = 1, max_graphs: int = 4, max_vertices: int = 7
) -> GraphDatabase:
    """A database of 1..max_graphs arbitrary labeled graphs."""
    count = draw(st.integers(min_graphs, max_graphs))
    database = GraphDatabase(name="hypothesis")
    for _ in range(count):
        database.add(draw(labeled_graphs(max_vertices=max_vertices)))
    return database


@st.composite
def aligned_graphs(draw, max_vertices: int = 7) -> Graph:
    """One graph whose labels are unique per vertex, on sparse vertex ids."""
    labels = draw(st.lists(label_st, unique=True, max_size=max_vertices))
    ids = draw(
        st.lists(st.integers(0, 60), unique=True, min_size=len(labels), max_size=len(labels))
    )
    graph = Graph()
    for vertex, label in zip(ids, labels):
        graph.add_vertex(vertex, label)
    if len(ids) >= 2:
        possible = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
        chosen = draw(
            st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        )
        for u, v in chosen:
            graph.add_edge(u, v)
    return graph


@st.composite
def aligned_databases(
    draw, min_graphs: int = 1, max_graphs: int = 4, max_vertices: int = 7
) -> GraphDatabase:
    """A database of graphs with unique per-vertex labels (slab-eligible)."""
    count = draw(st.integers(min_graphs, max_graphs))
    database = GraphDatabase(name="hypothesis-aligned")
    for _ in range(count):
        database.add(draw(aligned_graphs(max_vertices=max_vertices)))
    return database
