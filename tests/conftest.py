"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from typing import Callable

import pytest

from repro.core import MinerConfig, executor
from repro.exceptions import MiningError
from repro.graphdb import Graph, GraphDatabase, paper_example_database
from repro.graphdb.generators import default_label_alphabet, random_transaction


@pytest.fixture(autouse=True)
def pool_from_first_root(monkeypatch):
    """Start a ``processes > 1`` pool before any inline work.

    The executor's pool gate would keep these small databases serial;
    a zero start-up budget makes every pooled test exercise the pool
    (splits, task counts, persistence).  Gate tests override it.
    """
    monkeypatch.setattr(executor, "POOL_START_SECONDS", 0.0)


@pytest.fixture
def paper_db() -> GraphDatabase:
    """The running-example database D of Figure 1."""
    return paper_example_database()


@pytest.fixture
def triangle_graph() -> Graph:
    """A labeled triangle a-b-c."""
    return Graph.from_edges({0: "a", 1: "b", 2: "c"}, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def path_graph() -> Graph:
    """A labeled path a-b-c-d (no triangles)."""
    return Graph.from_edges(
        {0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 1), (1, 2), (2, 3)]
    )


@pytest.fixture
def k4_graph() -> Graph:
    """A complete graph on labels a, b, c, d."""
    labels = {i: l for i, l in enumerate("abcd")}
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return Graph.from_edges(labels, edges)


def make_random_database(
    seed: int,
    n_graphs: int = 4,
    n_vertices: int = 8,
    edge_probability: float = 0.5,
    n_labels: int = 4,
) -> GraphDatabase:
    """Small random database helper used by property tests."""
    rng = random.Random(seed)
    labels = default_label_alphabet(n_labels)
    database = GraphDatabase(name=f"random-{seed}")
    for gid in range(n_graphs):
        database.add(random_transaction(rng, n_vertices, edge_probability, labels, gid))
    return database


def retired_kernel(
    kernel: str, build: Callable[[str], object] = lambda kernel: MinerConfig(kernel=kernel)
) -> bool:
    """Whether ``kernel`` is the retired ``"set"`` spelling.

    For it (stage 2 of the deprecation policy) assert that ``build(kernel)``
    raises a :class:`MiningError` whose recipe names ``"bitset"``; the
    caller's leg then stops instead of mining.
    """
    if kernel != "set":
        return False
    with pytest.raises(MiningError, match=r"MinerConfig\(kernel='bitset'\)"):
        build(kernel)
    return True
