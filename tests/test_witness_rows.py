"""Row-backed witness maps (:class:`repro.core.pattern.WitnessRows`).

The slab kernel emits each pattern's witnesses as one ``int32[support,
size]`` row array behind a read-only ``Mapping``; the bitset kernel
keeps plain dicts.  The map must be indistinguishable from the dict it
stands for — equality both ways, repr, pickling, serialisation — and
must own its rows, never viewing the slab's buffers.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import BITSET, SLAB, MiningCache, MiningRequest, MiningResultEnvelope
from repro.core.pattern import CliquePattern, WitnessRows
from repro.io.json_format import pattern_from_dict, pattern_to_dict

from tests.strategies import aligned_databases

TIDS = (1, 4, 7)
ROWS = [[2, 5, 9], [0, 3, 8], [1, 6, 11]]
AS_DICT = {1: (2, 5, 9), 4: (0, 3, 8), 7: (1, 6, 11)}


@pytest.fixture
def rows() -> WitnessRows:
    return WitnessRows(TIDS, np.array(ROWS, dtype=np.int32))


class TestMappingContract:
    def test_len_and_ascending_iteration(self, rows):
        assert len(rows) == 3
        assert list(rows) == [1, 4, 7]

    def test_item_lookup(self, rows):
        assert rows[4] == (0, 3, 8)
        assert all(type(v) is int for v in rows[4])
        assert rows.get(7) == (1, 6, 11)
        assert rows.get(5) is None
        assert rows.get("x", "default") == "default"
        assert 1 in rows and 2 not in rows and "x" not in rows

    @pytest.mark.parametrize("missing", [0, 2, 8, -1, "a", None])
    def test_missing_key_raises_key_error(self, rows, missing):
        with pytest.raises(KeyError):
            rows[missing]

    def test_views(self, rows):
        assert list(rows.keys()) == [1, 4, 7]
        assert list(rows.values()) == [(2, 5, 9), (0, 3, 8), (1, 6, 11)]
        assert list(rows.items()) == list(AS_DICT.items())
        assert (4, (0, 3, 8)) in rows.items()
        assert (4, (0, 3, 9)) not in rows.items()

    def test_equal_to_dict_both_ways(self, rows):
        assert rows == AS_DICT and AS_DICT == rows
        assert not (rows != AS_DICT) and not (AS_DICT != rows)
        assert rows == WitnessRows(TIDS, np.array(ROWS, dtype=np.int32))

    def test_one_changed_vertex_breaks_equality(self, rows):
        changed = dict(AS_DICT)
        changed[4] = (0, 3, 10)
        assert rows != changed and changed != rows
        other = np.array(ROWS, dtype=np.int32)
        other[1, 2] = 10
        assert rows != WitnessRows(TIDS, other)
        assert rows != {1: (2, 5, 9), 4: (0, 3, 8)}
        assert rows != [(1, (2, 5, 9))]

    def test_repr_is_the_dicts(self, rows):
        assert repr(rows) == repr(AS_DICT)
        assert repr(WitnessRows((), np.zeros((0, 2), dtype=np.int32))) == "{}"

    def test_pickle_round_trip(self, rows):
        back = pickle.loads(pickle.dumps(rows))
        assert isinstance(back, WitnessRows)
        assert back == rows and back == AS_DICT
        assert back.transactions == TIDS
        assert not back.rows.flags.writeable

    def test_read_only(self, rows):
        assert not hasattr(rows, "__setitem__")
        with pytest.raises(TypeError):
            rows[1] = (0, 0, 0)  # type: ignore[index]
        with pytest.raises(ValueError):
            rows.rows[0, 0] = 99
        with pytest.raises(AttributeError):
            rows.extra = 1  # type: ignore[attr-defined]

    def test_pattern_equality_and_codec(self, rows):
        pattern = CliquePattern(form=repro.CanonicalForm.from_labels("abc"),
                                support=3, transactions=TIDS, witnesses=rows)
        plain = CliquePattern(form=pattern.form, support=3, transactions=TIDS,
                              witnesses=dict(AS_DICT))
        assert pattern == plain and plain == pattern
        assert pattern_to_dict(pattern) == pattern_to_dict(plain)
        assert pattern_from_dict(pattern_to_dict(pattern)) == pattern


def canonical_json(request, result) -> str:
    payload = MiningResultEnvelope.from_result(request, result).canonical_dict()
    return json.dumps(payload, sort_keys=True)


@settings(max_examples=80, deadline=None)
@given(
    database=aligned_databases(min_graphs=1, max_graphs=5, max_vertices=7),
    min_sup=st.integers(1, 3),
)
def test_slab_witness_rows_match_bitset(database, min_sup):
    min_sup = min(min_sup, len(database))
    request = MiningRequest(min_sup=min_sup)
    slab = repro.mine(database, MiningRequest(min_sup=min_sup, kernel=SLAB))
    bitset = repro.mine(database, MiningRequest(min_sup=min_sup, kernel=BITSET))
    assert list(slab) == list(bitset)

    space = database.slab_space()
    for pattern, reference in zip(slab, bitset):
        assert type(reference.witnesses) is dict
        assert pattern.witnesses == reference.witnesses
        assert reference.witnesses == pattern.witnesses
        assert repr(pattern.witnesses) == repr(reference.witnesses)
        pattern.verify(database)
        if isinstance(pattern.witnesses, WitnessRows):
            assert pattern.witnesses.transactions is pattern.transactions
            assert not np.shares_memory(pattern.witnesses.rows, space.vertices)
    if space is not None and len(slab):
        assert all(isinstance(p.witnesses, WitnessRows) for p in slab)

    expected = canonical_json(request, slab)
    assert canonical_json(request, bitset) == expected

    cache = MiningCache()
    repro.mine(database, request, cache=cache)
    reloaded = MiningCache.from_dict(json.loads(json.dumps(cache.to_dict())))
    replayed = repro.mine(database, request, cache=reloaded)
    assert canonical_json(request, replayed) == expected

    assert canonical_json(request, pickle.loads(pickle.dumps(slab))) == expected
