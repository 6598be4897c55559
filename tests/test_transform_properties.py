"""Property tests: how transforms interact with mining semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mine_closed_cliques, mine_frequent_cliques
from repro.graphdb import merge_databases, relabel_database, restrict_labels
from tests.conftest import make_random_database

SEEDS = st.integers(0, 50_000)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, min_sup=st.integers(1, 3))
def test_self_merge_doubles_supports(seed, min_sup):
    """D ⊎ D doubles every support and nothing else changes."""
    db = make_random_database(seed)
    doubled = merge_databases([db, db])
    base = {p.form: p.support for p in mine_frequent_cliques(db, min_sup)}
    merged = {
        p.form: p.support for p in mine_frequent_cliques(doubled, 2 * min_sup)
    }
    assert merged == {form: 2 * sup for form, sup in base.items()}


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS)
def test_injective_relabel_renames_patterns(seed):
    """An injective label mapping renames patterns one-to-one."""
    db = make_random_database(seed)
    mapping = {"a": "w", "b": "x", "c": "y", "d": "z"}
    renamed = relabel_database(db, mapping)
    base = sorted(
        (tuple(mapping[l] for l in p.labels), p.support)
        for p in mine_closed_cliques(db, 2)
    )
    # Re-sort each renamed multiset: the mapping here is monotone
    # (a<b<c<d -> w<x<y<z) so sorted order is preserved anyway.
    found = sorted(
        (p.labels, p.support) for p in mine_closed_cliques(renamed, 2)
    )
    assert found == base


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS)
def test_non_monotone_relabel_keeps_pattern_count(seed):
    """Renaming that reverses the alphabet permutes canonical forms but
    preserves the number of closed patterns and their supports."""
    db = make_random_database(seed)
    mapping = {"a": "z", "b": "y", "c": "x", "d": "w"}
    renamed = relabel_database(db, mapping)
    base = sorted(p.support for p in mine_closed_cliques(db, 2))
    found = sorted(p.support for p in mine_closed_cliques(renamed, 2))
    assert found == base


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, min_sup=st.integers(1, 3))
def test_restriction_equals_label_filter_on_frequent_set(seed, min_sup):
    """Mining a label-restricted database = filtering the frequent set."""
    db = make_random_database(seed)
    keep = {"a", "c"}
    restricted = mine_frequent_cliques(restrict_labels(db, keep), min_sup)
    filtered = sorted(
        p.key()
        for p in mine_frequent_cliques(db, min_sup)
        if set(p.labels) <= keep
    )
    assert sorted(p.key() for p in restricted) == filtered


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_merging_distinct_databases_unions_patterns(seed):
    """At min_sup=1, patterns of D1 ⊎ D2 are the union of each side's."""
    db1 = make_random_database(seed)
    db2 = make_random_database(seed + 1)
    merged = merge_databases([db1, db2])
    union = {str(p.form) for p in mine_frequent_cliques(db1, 1)} | {
        str(p.form) for p in mine_frequent_cliques(db2, 1)
    }
    found = {str(p.form) for p in mine_frequent_cliques(merged, 1)}
    assert found == union


@pytest.mark.parametrize("kernel", ("set", "bitset", "slab"))
@pytest.mark.parametrize("seed,permutation_seed,min_sup", [
    (0, 1, 1), (7, 42, 2), (13, 99, 2), (21, 5, 3), (34, 17, 1), (48, 3, 2),
])
def test_mining_invariant_under_vertex_permutation(
    kernel, seed, permutation_seed, min_sup
):
    """Vertex-id permutation must not change any mining observable.

    The regression probe for state keyed by vertex id — above all the
    bitset kernel's vertex → bit mapping, which must be stable under
    relabeling (bit order follows sorted vertex ids, so a permutation
    reorders bits but never changes label masks or adjacency masks).
    ``"set"`` is the deprecated spelling of ``"bitset"``: it must warn.
    """
    from repro.core import ClanMiner, MinerConfig
    from repro.graphdb import permute_vertex_ids
    from tests.conftest import kernel_warning
    from tests.test_kernel_differential import unique_label_database

    with kernel_warning(kernel):
        config = MinerConfig(kernel=kernel)
    for db in (make_random_database(seed), unique_label_database(seed % 100)):
        permuted = permute_vertex_ids(db, seed=permutation_seed)
        base = ClanMiner(db, config).mine(min_sup)
        moved = ClanMiner(permuted, config).mine(min_sup)
        assert sorted(
            (p.form.labels, p.support, tuple(sorted(p.transactions))) for p in base
        ) == sorted(
            (p.form.labels, p.support, tuple(sorted(p.transactions))) for p in moved
        )
        assert str(base.statistics) == str(moved.statistics)
