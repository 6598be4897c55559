"""Differential testing of ``task="quasi"`` — kernels, oracle, invariance.

The quasi task's closure lemma is *relaxed*, not inherited: per-prefix
closedness (Lemma 4.3) is undecidable for γ-quasi-cliques and the
Lemma 4.4 subtree cut is replaced by a c-closure bound, so nothing
about the clique kernels' byte-identity contract transfers for free.
This suite holds the port to the same bar as the clique kernels
(``test_kernel_differential.py``):

* the bitset and slab kernel settings are *byte identical* — same
  patterns, same supports and supporting transactions, same witnesses,
  same search statistics — on 50 seeded random databases spanning
  sparse to near-complete graphs and the γ grid the feasibility bounds
  key on (the quasi store is int-mask only, so the slab setting must
  fall back to it without a trace);
* both agree with the exhaustive brute-force oracle
  (:func:`repro.baselines.bruteforce.bruteforce_quasi_cliques`),
  witnesses included — both sides define the witness as the
  lexicographically smallest qualifying vertex set per transaction;
* mining is invariant under vertex-id permutation (the regression
  probe for state keyed by vertex id — the bitset kernel's vertex→bit
  mapping and the feasibility store's ascending-id candidate order).
"""

from __future__ import annotations

import pytest

from repro.baselines.bruteforce import bruteforce_quasi_cliques
from repro.core import BITSET, SLAB, mine
from repro.core.api import MiningRequest
from repro.graphdb import permute_vertex_ids

from tests.conftest import make_random_database

KERNELS = (BITSET, SLAB)

#: 50 seeded random databases spanning sparse to near-complete graphs,
#: few to many labels (duplicate labels exercise the same-label
#: ascending-id discipline of the feasibility store).
RANDOM_CASES = [
    (seed, 3 + seed % 3, 6 + seed % 4, 0.3 + 0.06 * (seed % 10), 3 + seed % 5)
    for seed in range(50)
]

#: γ grid: the clique edge (1.0), the connectivity floor (0.6), and
#: mid-relaxations; rotated per seed so every density regime meets
#: every graph shape.
GAMMA_GRID = (0.6, 0.75, 0.8, 1.0)

MAX_SIZE = 4


def case_parameters(seed):
    gamma = GAMMA_GRID[seed % len(GAMMA_GRID)]
    min_sup = 2 if seed % 2 else 1
    return gamma, min_sup


def signature(result):
    """Everything observable about a mining result, order-normalised."""
    return sorted(
        (
            pattern.form.labels,
            pattern.support,
            tuple(sorted(pattern.transactions)),
            tuple(sorted(pattern.witnesses.items())),
        )
        for pattern in result
    )


def structural_signature(result):
    """The permutation-invariant observables (witnesses are vertex ids,
    which the permutation probe deliberately moves)."""
    return sorted(
        (pattern.form.labels, pattern.support, tuple(sorted(pattern.transactions)))
        for pattern in result
    )


def database_for(case):
    seed, n_graphs, n_vertices, p, n_labels = case
    return make_random_database(
        seed,
        n_graphs=n_graphs,
        n_vertices=n_vertices,
        edge_probability=p,
        n_labels=n_labels,
    )


def mine_both_kernels(database, min_sup, gamma):
    outcomes = {
        kernel: mine(
            database,
            MiningRequest.from_options(
                min_sup, task="quasi", gamma=gamma, max_size=MAX_SIZE,
                kernel=kernel,
            ),
        )
        for kernel in KERNELS
    }
    reference = outcomes[BITSET]
    for kernel, result in outcomes.items():
        assert signature(result) == signature(reference), (kernel, database.name)
        assert str(result.statistics) == str(reference.statistics), (
            kernel,
            database.name,
        )
    return reference


class TestKernelsIdenticalAndMatchOracle:
    @pytest.mark.parametrize("case", RANDOM_CASES, ids=lambda c: f"seed{c[0]}")
    def test_differential(self, case):
        seed = case[0]
        gamma, min_sup = case_parameters(seed)
        database = database_for(case)
        reference = mine_both_kernels(database, min_sup, gamma)
        oracle = bruteforce_quasi_cliques(
            database, min_sup, gamma=gamma, min_size=2, max_size=MAX_SIZE
        )
        assert signature(reference) == signature(oracle), seed


class TestVertexPermutationInvariance:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "case",
        [RANDOM_CASES[i] for i in (1, 7, 14, 26, 33, 45)],
        ids=lambda c: f"seed{c[0]}",
    )
    def test_permuted_database_mines_identically(self, kernel, case):
        seed = case[0]
        gamma, min_sup = case_parameters(seed)
        database = database_for(case)
        permuted = permute_vertex_ids(database, seed=seed + 17)
        base = mine(
            database,
            MiningRequest.from_options(
                min_sup, task="quasi", gamma=gamma, max_size=MAX_SIZE,
                kernel=kernel,
            ),
        )
        moved = mine(
            permuted,
            MiningRequest.from_options(
                min_sup, task="quasi", gamma=gamma, max_size=MAX_SIZE,
                kernel=kernel,
            ),
        )
        assert structural_signature(base) == structural_signature(moved)
        assert str(base.statistics) == str(moved.statistics)
        # The permuted run's witnesses must still be genuine witnesses
        # in the permuted database (ids moved, the guarantee did not).
        from repro.core import is_quasi_clique

        for pattern in moved:
            for tid, witness in pattern.witnesses.items():
                assert is_quasi_clique(permuted[tid], frozenset(witness), gamma)
                assert permuted[tid].label_multiset(witness) == pattern.form.labels
