"""Tests for the closed quasi-clique extension (paper §6 future work)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce_quasi_cliques
from repro.core import (
    MinerConfig,
    QuasiTaskStrategy,
    is_quasi_clique,
    mine,
    mine_closed_cliques,
    quasi_cliques_in_graph,
    required_degree,
)
from repro.core.api import MiningRequest
from repro.core.engine import MiningEngine
from repro.exceptions import MiningError
from repro.graphdb import Graph, GraphDatabase
from tests.conftest import make_random_database


def signature(result):
    return sorted(
        (
            pattern.form.labels,
            pattern.support,
            tuple(sorted(pattern.transactions)),
            tuple(sorted(pattern.witnesses.items())),
        )
        for pattern in result
    )


def rq(min_sup, **options):
    """A MiningRequest built exactly the way the legacy kwargs path would."""
    return MiningRequest.from_options(min_sup, **options)


def k5_minus_edge() -> Graph:
    labels = {i: l for i, l in enumerate("pqrst")}
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (3, 4)]
    return Graph.from_edges(labels, edges)


class TestDefinitions:
    def test_required_degree(self):
        assert required_degree(1.0, 4) == 3
        assert required_degree(0.5, 5) == 2
        assert required_degree(0.6, 6) == 3
        assert required_degree(0.9, 1) == 0

    def test_clique_is_quasi_clique_at_any_gamma(self, k4_graph):
        assert is_quasi_clique(k4_graph, frozenset(k4_graph.vertices()), 1.0)
        assert is_quasi_clique(k4_graph, frozenset(k4_graph.vertices()), 0.5)

    def test_k5_minus_edge(self):
        g = k5_minus_edge()
        everyone = frozenset(g.vertices())
        assert not is_quasi_clique(g, everyone, 1.0)
        assert is_quasi_clique(g, everyone, 0.75)


class TestEnumeration:
    def test_gamma_one_equals_cliques(self, k4_graph):
        from repro.graphdb import all_cliques

        quasi = set(quasi_cliques_in_graph(k4_graph, 1.0, 1, 4))
        exact = set(all_cliques(k4_graph, min_size=1, max_size=4))
        assert quasi == exact

    def test_each_set_once(self):
        g = k5_minus_edge()
        found = list(quasi_cliques_in_graph(g, 0.75, 2, 5))
        assert len(found) == len(set(found))

    def test_k5_minus_edge_found_at_075(self):
        g = k5_minus_edge()
        found = set(quasi_cliques_in_graph(g, 0.75, 5, 5))
        assert frozenset(g.vertices()) in found

    def test_not_found_at_gamma_one(self):
        g = k5_minus_edge()
        assert set(quasi_cliques_in_graph(g, 1.0, 5, 5)) == set()

    def test_invalid_gamma(self, k4_graph):
        with pytest.raises(MiningError):
            list(quasi_cliques_in_graph(k4_graph, 0.3, 1, 3))
        with pytest.raises(MiningError):
            list(quasi_cliques_in_graph(k4_graph, 1.2, 1, 3))

    def test_invalid_window(self, k4_graph):
        with pytest.raises(MiningError):
            list(quasi_cliques_in_graph(k4_graph, 0.9, 3, 2))

    def test_disconnected_prefix_reachable(self):
        """Ascending-id prefixes may be disconnected; sets must still appear.

        Quasi-clique {1,2,3,4} where 1-2 is the missing edge: the prefix
        {1, 2} has no edge, yet the full set must be enumerated.
        """
        g = Graph.from_edges(
            {1: "a", 2: "b", 3: "c", 4: "d"},
            [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        )
        found = set(quasi_cliques_in_graph(g, 0.6, 4, 4))
        assert frozenset({1, 2, 3, 4}) in found

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gamma_one_matches_cliques_on_random_graphs(self, seed):
        db = make_random_database(seed, n_graphs=1, n_vertices=8)
        g = db[0]
        from repro.graphdb import all_cliques

        quasi = set(quasi_cliques_in_graph(g, 1.0, 1, 8))
        exact = set(all_cliques(g, min_size=1, max_size=8))
        assert quasi == exact

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), gamma=st.sampled_from([0.5, 0.6, 0.75, 0.9]))
    def test_soundness_every_result_is_quasi_clique(self, seed, gamma):
        db = make_random_database(seed, n_graphs=1, n_vertices=8)
        g = db[0]
        for vertex_set in quasi_cliques_in_graph(g, gamma, 2, 5):
            assert is_quasi_clique(g, vertex_set, gamma)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), gamma=st.sampled_from([0.5, 0.75]))
    def test_completeness_against_bruteforce(self, seed, gamma):
        from itertools import combinations

        db = make_random_database(seed, n_graphs=1, n_vertices=7)
        g = db[0]
        expected = {
            frozenset(sub)
            for size in (2, 3, 4)
            for sub in combinations(sorted(g.vertices()), size)
            if is_quasi_clique(g, frozenset(sub), gamma)
        }
        found = set(quasi_cliques_in_graph(g, gamma, 2, 4))
        assert found == expected


class TestMining:
    def test_gamma_one_matches_clan(self, paper_db):
        quasi = mine(
            paper_db,
            rq(2, task="quasi", gamma=1.0, config=MinerConfig(min_size=1, max_size=4)),
        )
        exact = mine_closed_cliques(paper_db, 2, config=MinerConfig(max_size=4))
        assert sorted(p.key() for p in quasi) == sorted(p.key() for p in exact)

    def test_near_clique_pattern_mined(self):
        db = GraphDatabase([k5_minus_edge(), k5_minus_edge()])
        result = mine(db, rq(2, task="quasi", gamma=0.75, min_size=5, max_size=5))
        assert [p.key() for p in result] == ["pqrst:2"]

    def test_closed_only_flag(self):
        db = GraphDatabase([k5_minus_edge(), k5_minus_edge()])
        config = MinerConfig.all_frequent(min_size=2, max_size=5)
        every = MiningEngine(
            db, config, strategy=QuasiTaskStrategy(0.75, closed=False)
        ).mine(2)
        closed = mine(db, rq(2, task="quasi", gamma=0.75, min_size=2, max_size=5))
        assert len(closed) < len(every)
        assert {p.key() for p in closed} <= {p.key() for p in every}

    def test_witnesses_are_quasi_cliques(self, paper_db):
        result = mine(
            paper_db, rq(2, task="quasi", gamma=0.75, min_size=3, max_size=4)
        )
        for pattern in result:
            for tid, witness in pattern.witnesses.items():
                assert is_quasi_clique(paper_db[tid], frozenset(witness), 0.75)

    def test_removed_entry_point_is_gone(self):
        # Stage three of the deprecation policy (CONTRIBUTING.md): the
        # stub that raised with a migration hint is deleted outright.
        import repro
        import repro.core.quasiclique

        for module in (repro, repro.core, repro.core.quasiclique):
            with pytest.raises(AttributeError):
                module.mine_closed_quasi_cliques


class TestEngineStrategyProperties:
    """Hypothesis properties of the QuasiTaskStrategy bounds.

    The engine port replaces per-prefix closure reasoning with two
    quasi-specific cuts — the feasibility recursion and the c-closure
    subtree bound — so their soundness is exactly what the strategy's
    correctness rests on.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        gamma=st.sampled_from([0.5, 0.6, 0.75, 0.8, 0.9, 1.0]),
        min_sup=st.integers(1, 2),
    )
    def test_cc_prune_bound_never_cuts_a_result_subtree(
        self, seed, gamma, min_sup
    ):
        """Pruning is invisible in the output: a run with the c-closure
        cut enabled equals a run with all subtree pruning disabled, and
        both equal the exhaustive oracle — so no cut subtree contained
        an oracle-confirmed pattern."""
        db = make_random_database(seed, n_graphs=3, n_vertices=7)
        pruned = mine(db, rq(min_sup, task="quasi", gamma=gamma, max_size=4))
        unpruned = mine(
            db,
            rq(
                min_sup,
                task="quasi",
                gamma=gamma,
                config=MinerConfig(
                    min_size=2, max_size=4, nonclosed_prefix_pruning=False
                ),
            ),
        )
        assert signature(pruned) == signature(unpruned)
        oracle = bruteforce_quasi_cliques(
            db, min_sup, gamma=gamma, min_size=2, max_size=4
        )
        assert signature(pruned) == signature(oracle)

    def test_cc_prune_bound_fires(self):
        """The soundness property is not vacuous: on a seed where the
        bound provably cuts subtrees, the output still matches the
        unpruned run (regression pin for the probe that found it)."""
        db = make_random_database(0, n_graphs=3, n_vertices=7)
        pruned = mine(db, rq(2, task="quasi", gamma=0.6, max_size=4))
        assert pruned.statistics.snapshot()["nonclosed_prefix_prunes"] > 0
        unpruned = mine(
            db,
            rq(
                2,
                task="quasi",
                gamma=0.6,
                config=MinerConfig(
                    min_size=2, max_size=4, nonclosed_prefix_pruning=False
                ),
            ),
        )
        assert signature(pruned) == signature(unpruned)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        gammas=st.tuples(
            st.sampled_from([0.5, 0.6, 0.75, 0.8, 0.9, 1.0]),
            st.sampled_from([0.5, 0.6, 0.75, 0.8, 0.9, 1.0]),
        ),
    )
    def test_visit_check_is_density_monotone(self, seed, gammas):
        """Loosening γ only adds: every pattern the strategy's visit
        check emits at the tighter density is emitted at the looser one
        too, with support at least as large.  (Tested on the frequent
        variant — the closed filter deliberately drops dominated
        patterns, which would mask the monotonicity.)"""
        lo, hi = min(gammas), max(gammas)
        db = make_random_database(seed, n_graphs=3, n_vertices=7)
        config = MinerConfig.all_frequent(min_size=2, max_size=4)
        at_hi = MiningEngine(
            db, config, strategy=QuasiTaskStrategy(hi, closed=False)
        ).mine(1)
        at_lo = MiningEngine(
            db, config, strategy=QuasiTaskStrategy(lo, closed=False)
        ).mine(1)
        support_at_lo = {p.form.labels: p.support for p in at_lo}
        for pattern in at_hi:
            assert pattern.form.labels in support_at_lo, pattern
            assert support_at_lo[pattern.form.labels] >= pattern.support, pattern
