"""Contract tests for the typed MiningRequest / MiningResult API.

The request is the wire format: ``from_json(to_json(r)) == r`` for
every valid request, the legacy keyword spelling of :func:`repro.mine`
raises with the equivalent request spelled out, and the
result envelope's canonical bytes are run-independent.  The CI
``service-contract`` job runs this file (with ``tests/test_service.py``)
under ``-W error::DeprecationWarning``.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import (
    MinerConfig,
    MiningBudget,
    MiningRequest,
    MiningResultEnvelope,
    mine,
)
from repro.exceptions import MiningError
from repro.graphdb import paper_example_database

#: One representative request per task, plus option-heavy variants —
#: every field that travels over the wire appears in at least one.
REQUEST_CASES = [
    MiningRequest(min_sup=2),
    MiningRequest(min_sup="85%", task="frequent", min_size=2, max_size=4),
    MiningRequest(min_sup=0.7, task="maximal"),
    MiningRequest(min_sup=2, task="topk", k=5),
    MiningRequest(min_sup=2, task="quasi", gamma=0.75, min_size=2, max_size=5),
    MiningRequest(min_sup=2, config=MinerConfig(min_size=2, max_size=4)),
    MiningRequest(min_sup=2, kernel="bitset", collect_witnesses=False),
    MiningRequest(min_sup=2, processes=3, scheduler="static"),
    MiningRequest(
        min_sup=2,
        budget=MiningBudget(deadline_seconds=5.0, max_patterns=100),
        sample_every=10,
        use_cache=False,
    ),
]


class TestRequestRoundTrip:
    @pytest.mark.parametrize(
        "request_", REQUEST_CASES, ids=lambda r: f"{r.task}-{r.min_sup}"
    )
    def test_json_round_trip_is_identity(self, request_):
        assert MiningRequest.from_json(request_.to_json()) == request_

    @pytest.mark.parametrize(
        "request_", REQUEST_CASES, ids=lambda r: f"{r.task}-{r.min_sup}"
    )
    def test_digest_is_stable(self, request_):
        round_tripped = MiningRequest.from_json(request_.to_json())
        assert round_tripped.digest() == request_.digest()

    @settings(max_examples=50, deadline=None)
    @given(
        min_sup=st.one_of(st.integers(1, 10), st.floats(0.1, 1.0)),
        task=st.sampled_from(["closed", "frequent", "maximal", "topk", "quasi"]),
        min_size=st.integers(1, 4),
        max_size=st.one_of(st.none(), st.integers(4, 8)),
        k=st.integers(1, 10),
        gamma=st.floats(0.5, 1.0),
        processes=st.integers(1, 4),
        use_cache=st.booleans(),
    )
    def test_round_trip_property(
        self, min_sup, task, min_size, max_size, k, gamma, processes, use_cache
    ):
        if task == "maximal":
            max_size = None  # a capped search misreports maximality
        elif task == "quasi" and max_size is None:
            max_size = 6  # quasi requires a finite ceiling
        request = MiningRequest(
            min_sup=min_sup,
            task=task,
            min_size=min_size,
            max_size=max_size,
            k=k if task == "topk" else None,
            gamma=round(gamma, 3) if task == "quasi" else None,
            processes=processes,
            use_cache=use_cache,
        )
        assert MiningRequest.from_json(request.to_json()) == request

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(MiningError, match="mining-request"):
            MiningRequest.from_dict({"kind": "something-else", "version": 1})

    def test_from_dict_rejects_future_version(self):
        payload = MiningRequest(min_sup=2).to_dict()
        payload["version"] = 999
        with pytest.raises(MiningError, match="version"):
            MiningRequest.from_dict(payload)

    def test_from_dict_rejects_unknown_keys(self):
        payload = MiningRequest(min_sup=2).to_dict()
        payload["min_supp"] = 3  # typo: must not be silently dropped
        with pytest.raises(MiningError, match="min_supp"):
            MiningRequest.from_dict(payload)

    def test_invalid_requests_fail_at_construction(self):
        with pytest.raises(MiningError, match="task"):
            MiningRequest(min_sup=2, task="closedish")
        with pytest.raises(MiningError, match="k"):
            MiningRequest(min_sup=2, task="topk")
        with pytest.raises(MiningError, match="gamma"):
            MiningRequest(min_sup=2, task="quasi", max_size=4)
        with pytest.raises(MiningError, match="max_size"):
            MiningRequest(min_sup=2, task="quasi", gamma=0.8)


class TestLegacyBuilder:
    def test_kwargs_spelling_raises_with_a_recipe(self, paper_db):
        # Stage 2: the message spells a request that runs as written.
        with pytest.raises(MiningError, match=r"MiningRequest\(") as raised:
            mine(paper_db, 2, task="quasi", max_size=4)
        call = re.search(r"mine\(database, (.*)\)$", str(raised.value)).group(1)
        assert eval(call) == MiningRequest.from_options(2, task="quasi", max_size=4)

    def test_request_spelling_is_warning_free(self, paper_db, recwarn):
        mine(paper_db, MiningRequest(min_sup=2))
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]

    def test_from_options_fills_legacy_quasi_defaults(self):
        request = MiningRequest.from_options(2, task="quasi", max_size=4)
        assert request.gamma == 0.8
        assert request.min_size == 2

    def test_from_options_builds_budget_from_shorthands(self):
        request = MiningRequest.from_options(
            2, deadline=5.0, max_patterns=10
        )
        assert request.budget == MiningBudget(
            deadline_seconds=5.0, max_patterns=10
        )

    def test_from_options_rejects_budget_and_shorthand(self):
        with pytest.raises(MiningError):
            MiningRequest.from_options(
                2, budget=MiningBudget(max_patterns=5), deadline=1.0
            )


class TestEnvelopeContract:
    def test_canonical_bytes_are_run_independent(self, paper_db):
        request = MiningRequest(min_sup=2)
        first = MiningResultEnvelope.from_result(request, mine(paper_db, request))
        second = MiningResultEnvelope.from_result(request, mine(paper_db, request))
        assert first.canonical_json() == second.canonical_json()

    def test_complete_runs_normalise_completed_roots(self, paper_db):
        request = MiningRequest(min_sup=2)
        envelope = MiningResultEnvelope.from_result(
            request, mine(paper_db, request)
        )
        assert envelope.canonical_dict()["result"]["completed_roots"] == []
        assert envelope.status == "complete"

    def test_envelope_round_trip_preserves_canonical_bytes(self, paper_db):
        request = MiningRequest(min_sup=2)
        envelope = MiningResultEnvelope.from_result(
            request, mine(paper_db, request)
        )
        reloaded = MiningResultEnvelope.from_json(envelope.to_json())
        assert reloaded.canonical_json() == envelope.canonical_json()
        assert reloaded.result.statistics.snapshot() == (
            envelope.result.statistics.snapshot()
        )

    def test_truncated_run_records_completed_roots(self, paper_db):
        request = MiningRequest(
            min_sup=2, budget=MiningBudget(max_expanded_prefixes=3)
        )
        envelope = MiningResultEnvelope.from_result(
            request, mine(paper_db, request)
        )
        assert envelope.result.truncated
        assert envelope.status == "truncated"
        core = envelope.canonical_dict()["result"]
        assert core["truncated"] is True

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(MiningError, match="mining-result-envelope"):
            MiningResultEnvelope.from_dict({"kind": "nope", "version": 1})

    def test_from_dict_rejects_future_version(self, paper_db):
        request = MiningRequest(min_sup=2)
        payload = MiningResultEnvelope.from_result(
            request, mine(paper_db, request)
        ).to_dict()
        payload["version"] = 999
        with pytest.raises(MiningError, match="version"):
            MiningResultEnvelope.from_dict(payload)

    def test_request_echoed_verbatim(self, paper_db):
        request = MiningRequest(min_sup=2, task="topk", k=2)
        envelope = MiningResultEnvelope.from_result(
            request, mine(paper_db, request)
        )
        reloaded = MiningResultEnvelope.from_json(envelope.to_json())
        assert reloaded.request == request


class TestRequestSemantics:
    def test_replace_builds_sweep_variants(self, paper_db):
        """dataclasses.replace is the sanctioned sweep spelling."""
        template = MiningRequest(min_sup=2)
        lowered = dataclasses.replace(template, min_sup=1)
        assert lowered.min_sup == 1
        assert len(mine(paper_db, lowered)) >= len(mine(paper_db, template))

    def test_unbounded_budget_normalises_to_none(self):
        assert MiningRequest(min_sup=2, budget=MiningBudget()).budget is None

    def test_wire_format_is_sorted_compact_json(self):
        text = MiningRequest(min_sup=2).to_json()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestVersionStrings:
    def test_package_metadata_and_changelog_agree(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as handle:
            declared = tomllib.load(handle)["project"]["version"]
        changelog = (root / "CHANGELOG.md").read_text(encoding="utf-8")
        released = re.search(r"^## (\d+\.\d+\.\d+) ", changelog, re.MULTILINE).group(1)
        assert declared == repro.__version__ == released
