"""The MiningSession control plane and the ``repro.mine`` façade.

The contracts here are the PR's acceptance criteria:

* façade results are identical to each legacy entry point;
* a cancelled/budgeted session's partial result equals a
  ``root_labels``-restricted mine of exactly the completed roots;
* resuming a truncated session's checkpoint yields a union identical
  to an uninterrupted mine;
* serial and parallel sessions produce byte-identical event streams.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MiningRequest, MiningResultEnvelope, mine
from repro.core import (
    CallbackSink,
    ClanMiner,
    JsonlTraceSink,
    MinerConfig,
    MiningBudget,
    MiningCache,
    MiningSession,
    RingBufferSink,
    event_from_dict,
    event_to_dict,
    iter_session_events,
    mine_closed_cliques,
    mine_frequent_cliques,
)
from repro.baselines.bruteforce import bruteforce_quasi_cliques
from repro.core.engine import MiningEngine
from repro.core.maximal import mine_maximal_cliques
from repro.core.session import (
    PatternEmitted,
    RootFinished,
    SearchFinished,
    SearchStarted,
)
from repro.core.topk import mine_top_k_closed_cliques
from repro.exceptions import FormatError, MiningError, ReproError
from repro.graphdb import paper_example_database, random_database
from repro.io.runlog import open_checkpoint, open_trace, save_checkpoint
from repro.stockmarket import stock_market_database
from tests.conftest import make_random_database


@pytest.fixture()
def paper_db():
    return paper_example_database()


@pytest.fixture(scope="module")
def dense_db():
    # Large enough for several roots and a few hundred prefixes.
    return random_database(12, 14, 0.45, 6, seed=3)


def keys(result):
    return [p.key() for p in result]


def rq(min_sup=2, **options):
    """A MiningRequest built exactly the way the legacy kwargs path would."""
    return MiningRequest.from_options(min_sup, **options)


# ======================================================================
# The façade vs the legacy entry points
# ======================================================================
class TestFacadeMatchesLegacy:
    def test_closed_default(self, paper_db):
        assert keys(mine(paper_db, 2)) == keys(mine_closed_cliques(paper_db, 2))

    def test_closed_on_seeded_database(self, dense_db):
        assert keys(mine(dense_db, 3)) == keys(mine_closed_cliques(dense_db, 3))

    def test_frequent(self, dense_db):
        assert keys(mine(dense_db, rq(3, task="frequent"))) == keys(
            mine_frequent_cliques(dense_db, 3)
        )

    def test_size_window(self, dense_db):
        assert keys(mine(dense_db, rq(3, min_size=2, max_size=3))) == keys(
            mine_closed_cliques(dense_db, 3, min_size=2, max_size=3)
        )

    def test_maximal(self, dense_db):
        assert keys(mine(dense_db, rq(3, task="maximal"))) == keys(
            mine_maximal_cliques(dense_db, 3)
        )

    def test_topk(self, dense_db):
        assert keys(mine(dense_db, rq(3, task="topk", k=4))) == keys(
            mine_top_k_closed_cliques(dense_db, 3, k=4)
        )

    def test_quasi(self, paper_db):
        assert keys(mine(paper_db, rq(2, task="quasi", gamma=0.8, max_size=5))) == keys(
            bruteforce_quasi_cliques(paper_db, 2, gamma=0.8, min_size=2, max_size=5)
        )

    def test_parallel_pool(self, dense_db):
        assert keys(mine(dense_db, rq(3, processes=2))) == keys(
            mine_closed_cliques(dense_db, 3)
        )

    def test_session_engine_same_result(self, dense_db):
        plain = mine(dense_db, 3)
        via_session = mine(dense_db, 3, sinks=(RingBufferSink(),))
        assert keys(via_session) == keys(plain)
        assert not via_session.truncated

    def test_unknown_task_rejected(self, paper_db):
        with pytest.raises(MiningError, match="unknown task"):
            mine(paper_db, rq(2, task="closedish"))

    def test_topk_requires_k(self, paper_db):
        with pytest.raises(MiningError, match="requires k"):
            mine(paper_db, rq(2, task="topk"))

    def test_quasi_requires_max_size(self, paper_db):
        with pytest.raises(MiningError, match="max_size"):
            mine(paper_db, rq(2, task="quasi"))

    def test_session_options_work_for_engine_tasks(self, paper_db, dense_db):
        # Budgets/pools are engine-wide now: maximal and top-k run
        # through the same session/executor stack as closed.
        relaxed = mine(paper_db, rq(2, task="maximal", deadline=60.0))
        assert keys(relaxed) == keys(mine_maximal_cliques(paper_db, 2))
        pooled = mine(dense_db, rq(3, task="topk", k=4, processes=2))
        assert keys(pooled) == keys(mine_top_k_closed_cliques(dense_db, 3, k=4))

    def test_engine_options_work_for_quasi(self, paper_db):
        # Quasi is a full engine task now: kernels, worker pools, and
        # budgets all apply, and every path agrees with plain serial.
        plain = mine(paper_db, rq(2, task="quasi", gamma=0.8, max_size=4))
        pooled = mine(
            paper_db, rq(2, task="quasi", gamma=0.8, max_size=4, processes=2)
        )
        bitset = mine(
            paper_db, rq(2, task="quasi", gamma=0.8, max_size=4, kernel="bitset")
        )
        budgeted = mine(
            paper_db, rq(2, task="quasi", gamma=0.8, max_size=4, deadline=60.0)
        )
        assert keys(pooled) == keys(plain)
        assert keys(bitset) == keys(plain)
        assert keys(budgeted) == keys(plain)
        assert not budgeted.truncated

    def test_quasi_rejects_out_of_range_gamma(self, paper_db):
        with pytest.raises(MiningError, match="gamma"):
            mine(paper_db, rq(2, task="quasi", gamma=0.2, max_size=4))

    def test_maximal_rejects_max_size(self, paper_db):
        with pytest.raises(MiningError, match="look maximal"):
            mine(paper_db, rq(2, task="maximal", max_size=3))

    def test_budget_and_shorthand_mutually_exclusive(self, paper_db):
        with pytest.raises(MiningError, match="not both"):
            mine(paper_db, rq(2, budget=MiningBudget(max_patterns=5), deadline=1.0))

    def test_stream_returns_unstarted_session(self, paper_db):
        session = mine(paper_db, 2, stream=True)
        assert isinstance(session, MiningSession)
        assert keys(session.run()) == keys(mine_closed_cliques(paper_db, 2))


# ======================================================================
# Events: stream shape, round-trips, serial == parallel
# ======================================================================
class TestEventStream:
    def test_stream_shape(self, paper_db):
        events = list(iter_session_events(paper_db, 2))
        assert events[0].kind == "search_started"
        assert events[-1].kind == "search_finished"
        roots = events[0].pending_roots
        assert [e.root for e in events if e.kind == "root_started"] == list(roots)
        assert [e.root for e in events if e.kind == "root_finished"] == list(roots)
        emitted = [e for e in events if e.kind == "pattern_emitted"]
        assert sorted(f"{''.join(e.form)}:{e.support}" for e in emitted) == [
            "abcd:2",
            "bde:2",
        ]
        assert events[-1].patterns == 2
        assert events[-1].truncated is False
        assert events[-1].reason is None

    def test_per_root_statistics_sum_to_total(self, dense_db):
        ring = RingBufferSink(capacity=None)
        result = MiningSession(dense_db, 3, sinks=(ring,)).run()
        per_root = ring.of_kind("root_finished")
        total = sum(e.statistics["prefixes_visited"] for e in per_root)
        assert total == result.statistics.prefixes_visited
        assert sum(e.patterns for e in per_root) == len(result)

    def test_serial_and_parallel_streams_identical(self, dense_db):
        serial, parallel = RingBufferSink(capacity=None), RingBufferSink(capacity=None)
        r1 = MiningSession(dense_db, 3, sinks=(serial,), sample_every=7).run()
        r2 = MiningSession(
            dense_db, 3, sinks=(parallel,), sample_every=7, processes=2
        ).run()
        assert keys(r1) == keys(r2)
        assert list(serial.events) == list(parallel.events)
        assert [event_to_dict(e) for e in serial.events] == [
            event_to_dict(e) for e in parallel.events
        ]

    def test_static_scheduler_stream_identical_to_serial(self, dense_db):
        serial, static = RingBufferSink(capacity=None), RingBufferSink(capacity=None)
        r1 = MiningSession(dense_db, 3, sinks=(serial,), sample_every=7).run()
        r2 = MiningSession(
            dense_db,
            3,
            sinks=(static,),
            sample_every=7,
            processes=2,
            scheduler="static",
        ).run()
        assert keys(r1) == keys(r2)
        assert list(serial.events) == list(static.events)

    def test_forced_split_stream_identical_to_serial(self, dense_db):
        # split_factor=0 makes the executor split every splittable root
        # into its level-2 subtasks — the adversarial schedule for the
        # substream replay that rebuilds the serial sampling.
        serial, split = RingBufferSink(capacity=None), RingBufferSink(capacity=None)
        r1 = MiningSession(dense_db, 3, sinks=(serial,), sample_every=7).run()
        r2 = MiningSession(
            dense_db,
            3,
            sinks=(split,),
            sample_every=7,
            processes=2,
            split_factor=0.0,
        ).run()
        assert keys(r1) == keys(r2)
        assert list(serial.events) == list(split.events)
        assert r1.statistics.snapshot() == r2.statistics.snapshot()

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_stealing_streams_identical_on_random_databases(self, seed):
        db = make_random_database(seed)
        serial, stolen = RingBufferSink(capacity=None), RingBufferSink(capacity=None)
        r1 = MiningSession(db, 2, sinks=(serial,), sample_every=3).run()
        r2 = MiningSession(
            db, 2, sinks=(stolen,), sample_every=3, processes=2, split_factor=0.0
        ).run()
        assert keys(r1) == keys(r2)
        assert list(serial.events) == list(stolen.events)
        assert r1.statistics.snapshot() == r2.statistics.snapshot()

    @pytest.mark.parametrize("processes", [1, 2])
    def test_statistics_match_serial_engine(self, processes):
        # SM-0.95 at 85% has infrequent root labels, which the serial
        # engine counts outside every root; sessions must too.
        market = stock_market_database(0.95, scale="tiny")
        base = ClanMiner(market).mine("85%")
        result = MiningSession(market, "85%", processes=processes).run()
        assert keys(result) == keys(base)
        assert result.statistics.snapshot() == base.statistics.snapshot()

    def test_warm_pool_session_builds_no_index(self, monkeypatch):
        market = stock_market_database(0.95, scale="tiny")
        cache = MiningCache()
        MiningSession(market, "85%", processes=2, cache=cache).run()
        calls = []
        prepare = MiningEngine.prepare

        def counting(engine):
            calls.append(engine)
            return prepare(engine)

        monkeypatch.setattr(MiningEngine, "prepare", counting)
        warm = MiningSession(market, "85%", processes=2, cache=cache).run()
        assert calls == []
        assert warm.statistics.cache_misses == 0
        assert keys(warm) == keys(ClanMiner(market).mine("85%"))

    def test_sampled_prefix_events(self, dense_db):
        ring = RingBufferSink(capacity=None)
        MiningSession(dense_db, 3, sinks=(ring,), sample_every=5).run()
        sampled = ring.of_kind("prefix_visited")
        assert sampled
        assert all(e.ordinal % 5 == 0 for e in sampled)
        assert all(e.depth == len(e.form) for e in sampled)

    def test_event_dict_round_trip(self, dense_db):
        ring = RingBufferSink(capacity=None)
        MiningSession(dense_db, 3, sinks=(ring,), sample_every=9).run()
        for event in ring.events:
            payload = json.loads(json.dumps(event_to_dict(event)))
            assert event_from_dict(payload) == event

    def test_event_from_dict_rejects_garbage(self):
        with pytest.raises(MiningError, match="unknown event"):
            event_from_dict({"event": "nope"})
        with pytest.raises(MiningError, match="missing field"):
            event_from_dict({"event": "root_started", "root": "a"})

    def test_jsonl_trace_round_trip(self, paper_db, tmp_path):
        trace = tmp_path / "trace.jsonl"
        ring = RingBufferSink(capacity=None)
        MiningSession(
            paper_db, 2, sinks=(JsonlTraceSink(trace), ring), sample_every=3
        ).run()
        assert open_trace(trace) == list(ring.events)

    def test_open_trace_reports_bad_line(self, tmp_path):
        trace = tmp_path / "broken.jsonl"
        trace.write_text('{"event": "search_finished"}\n')
        with pytest.raises(FormatError, match="trace"):
            open_trace(trace)

    def test_callback_sink(self, paper_db):
        seen = []
        MiningSession(paper_db, 2, sinks=(CallbackSink(seen.append),)).run()
        assert seen[0].kind == "search_started"
        assert seen[-1].kind == "search_finished"

    def test_ring_buffer_capacity(self, dense_db):
        ring = RingBufferSink(capacity=4)
        MiningSession(dense_db, 3, sinks=(ring,)).run()
        assert len(ring.events) == 4
        assert ring.events[-1].kind == "search_finished"


# ======================================================================
# Budgets, cancellation, and the truncation exactness guarantee
# ======================================================================
class TestBudgets:
    def test_prefix_budget_partial_equals_root_restricted_mine(self, dense_db):
        session = MiningSession(
            dense_db, 3, budget=MiningBudget(max_expanded_prefixes=5)
        )
        partial = session.run()
        assert partial.truncated
        full = ClanMiner(dense_db).mine(3)
        assert len(partial) < len(full)
        reference = ClanMiner(dense_db).mine(3, root_labels=partial.completed_roots)
        assert keys(partial) == keys(reference)

    def test_pattern_budget(self, dense_db):
        session = MiningSession(dense_db, 3, budget=MiningBudget(max_patterns=3))
        partial = session.run()
        assert partial.truncated
        reference = ClanMiner(dense_db).mine(3, root_labels=partial.completed_roots)
        assert keys(partial) == keys(reference)

    def test_deadline_budget(self, dense_db):
        ring = RingBufferSink(capacity=None)
        partial = MiningSession(
            dense_db, 3, budget=MiningBudget(deadline_seconds=1e-9), sinks=(ring,)
        ).run()
        assert partial.truncated
        assert len(partial) == 0
        finished = ring.of_kind("search_finished")[0]
        assert finished.reason == "deadline"

    def test_generous_budget_not_truncated(self, dense_db):
        result = MiningSession(
            dense_db, 3, budget=MiningBudget(max_expanded_prefixes=10**9)
        ).run()
        assert not result.truncated
        assert keys(result) == keys(ClanMiner(dense_db).mine(3))

    def test_cancel_before_run_yields_empty_partial(self, dense_db):
        session = MiningSession(dense_db, 3)
        session.cancel()
        partial = session.run()
        assert partial.truncated
        assert partial.completed_roots == ()
        assert len(partial) == 0

    def test_cancel_mid_run_from_callback(self, dense_db):
        session = MiningSession(dense_db, 3)

        def stop_after_first_root(event):
            if isinstance(event, RootFinished):
                session.cancel()

        session.sinks = (CallbackSink(stop_after_first_root),)
        partial = session.run()
        assert partial.truncated
        assert len(partial.completed_roots) >= 1
        reference = ClanMiner(dense_db).mine(3, root_labels=partial.completed_roots)
        assert keys(partial) == keys(reference)

    def test_cancel_on_the_last_root_is_not_truncated(self, dense_db):
        # Pool root boundaries stop by the inline rule: a run that
        # completed every root is never truncated, so the canonical
        # envelopes of the serial and the pooled session are identical.
        request = MiningRequest(min_sup=3)
        envelopes = []
        for processes in (1, 2):
            session = MiningSession.from_request(
                dense_db, dataclasses.replace(request, processes=processes)
            )

            def cancel_on_last_root(event, session=session):
                if isinstance(event, RootFinished) and event.index + 1 == event.n_pending:
                    session.cancel()

            session.sinks = (CallbackSink(cancel_on_last_root),)
            result = session.run()
            assert not result.truncated
            assert session._executor.last_report.pool_started == (processes > 1)
            envelopes.append(
                MiningResultEnvelope.from_result(request, result).canonical_json()
            )
        assert envelopes[0] == envelopes[1]

    def test_parallel_budget_acts_at_root_granularity(self, dense_db):
        partial = MiningSession(
            dense_db, 3, budget=MiningBudget(max_patterns=2), processes=2
        ).run()
        assert partial.truncated
        reference = ClanMiner(dense_db).mine(3, root_labels=partial.completed_roots)
        assert keys(partial) == keys(reference)

    def test_cancel_mid_split_keeps_root_exactness(self, dense_db):
        # Cancelling while the stealing executor has roots split into
        # in-flight subtasks must still truncate at a root boundary:
        # the partial equals a root-restricted mine of exactly the
        # completed roots, never a half-merged split.
        session = MiningSession(dense_db, 3, processes=2, split_factor=0.0)

        def stop_after_first_root(event):
            if isinstance(event, RootFinished):
                session.cancel()

        session.sinks = (CallbackSink(stop_after_first_root),)
        partial = session.run()
        assert partial.truncated
        assert len(partial.completed_roots) >= 1
        reference = ClanMiner(dense_db).mine(3, root_labels=partial.completed_roots)
        assert keys(partial) == keys(reference)

    def test_budget_mid_split_keeps_root_exactness(self, dense_db):
        partial = MiningSession(
            dense_db,
            3,
            budget=MiningBudget(max_expanded_prefixes=5),
            processes=2,
            split_factor=0.0,
        ).run()
        assert partial.truncated
        reference = ClanMiner(dense_db).mine(3, root_labels=partial.completed_roots)
        assert keys(partial) == keys(reference)

    def test_budget_validation(self):
        with pytest.raises(MiningError, match="positive"):
            MiningBudget(max_patterns=0)
        with pytest.raises(MiningError, match="positive"):
            MiningBudget(deadline_seconds=-1.0)
        assert MiningBudget().unbounded

    def test_facade_budget_shorthand(self, dense_db):
        partial = mine(dense_db, rq(3, max_expanded_prefixes=5))
        assert partial.truncated
        reference = mine(dense_db, 3, root_labels=partial.completed_roots)
        assert keys(partial) == keys(reference)

    def test_session_is_single_use(self, paper_db):
        session = MiningSession(paper_db, 2)
        session.run()
        with pytest.raises(MiningError, match="runs once"):
            session.run()


# ======================================================================
# Checkpoint / resume
# ======================================================================
class TestCheckpointResume:
    def test_resume_completes_to_identical_union(self, dense_db):
        truncated = MiningSession(
            dense_db, 3, budget=MiningBudget(max_expanded_prefixes=5)
        )
        partial = truncated.run()
        assert partial.truncated
        checkpoint = truncated.checkpoint()
        resumed = MiningSession(dense_db, 3, resume_from=checkpoint)
        final = resumed.run()
        assert not final.truncated
        assert keys(final) == keys(ClanMiner(dense_db).mine(3))

    def test_resume_skips_completed_roots(self, dense_db):
        truncated = MiningSession(
            dense_db, 3, budget=MiningBudget(max_expanded_prefixes=5)
        )
        truncated.run()
        checkpoint = truncated.checkpoint()
        ring = RingBufferSink(capacity=None)
        MiningSession(dense_db, 3, resume_from=checkpoint, sinks=(ring,)).run()
        started = ring.of_kind("search_started")[0]
        assert set(started.resumed_roots) == set(checkpoint.completed_roots)
        mined_again = {e.root for e in ring.of_kind("root_started")}
        assert mined_again.isdisjoint(checkpoint.completed_roots)

    def test_resume_with_stealing_splits_completes_to_identical_union(
        self, dense_db
    ):
        truncated = MiningSession(
            dense_db,
            3,
            budget=MiningBudget(max_expanded_prefixes=5),
            processes=2,
            split_factor=0.0,
        )
        partial = truncated.run()
        assert partial.truncated
        final = MiningSession(
            dense_db,
            3,
            resume_from=truncated.checkpoint(),
            processes=2,
            split_factor=0.0,
        ).run()
        assert not final.truncated
        assert keys(final) == keys(ClanMiner(dense_db).mine(3))

    def test_serial_checkpoint_resumes_in_parallel(self, dense_db):
        # processes/scheduler are execution-layer knobs, deliberately
        # outside the checkpoint's config fingerprint.
        truncated = MiningSession(
            dense_db, 3, budget=MiningBudget(max_expanded_prefixes=5)
        )
        truncated.run()
        final = MiningSession(
            dense_db, 3, resume_from=truncated.checkpoint(), processes=2
        ).run()
        assert keys(final) == keys(ClanMiner(dense_db).mine(3))

    def test_checkpoint_file_round_trip(self, dense_db, tmp_path):
        session = MiningSession(dense_db, 3, budget=MiningBudget(max_patterns=2))
        session.run()
        path = tmp_path / "ckpt.json"
        save_checkpoint(session.checkpoint(), path)
        loaded = open_checkpoint(path)
        assert loaded == session.checkpoint()
        final = MiningSession(dense_db, 3, resume_from=loaded).run()
        assert keys(final) == keys(ClanMiner(dense_db).mine(3))

    def test_checkpoint_of_complete_run_resumes_to_noop(self, paper_db):
        session = MiningSession(paper_db, 2)
        done = session.run()
        resumed = MiningSession(paper_db, 2, resume_from=session.checkpoint())
        assert keys(resumed.run()) == keys(done)

    def test_resume_rejects_wrong_database(self, dense_db):
        session = MiningSession(dense_db, 3, budget=MiningBudget(max_patterns=2))
        session.run()
        checkpoint = session.checkpoint()
        other = random_database(12, 14, 0.45, 6, seed=4)
        with pytest.raises(MiningError, match="fingerprint"):
            MiningSession(other, 3, resume_from=checkpoint)

    def test_resume_rejects_wrong_support(self, dense_db):
        session = MiningSession(dense_db, 3, budget=MiningBudget(max_patterns=2))
        session.run()
        with pytest.raises(MiningError, match="min_sup"):
            MiningSession(dense_db, 4, resume_from=session.checkpoint())

    def test_resume_rejects_wrong_config(self, dense_db):
        session = MiningSession(dense_db, 3, budget=MiningBudget(max_patterns=2))
        session.run()
        with pytest.raises(MiningError, match="MinerConfig"):
            MiningSession(
                dense_db,
                3,
                config=MinerConfig(min_size=2),
                resume_from=session.checkpoint(),
            )

    def test_failed_checkpoint_write_keeps_the_previous_file(
        self, paper_db, tmp_path, monkeypatch
    ):
        # A reader (a restarted service) must never see a torn file.
        session = MiningSession(paper_db, 2)
        session.run()
        path = tmp_path / "ckpt.json"
        save_checkpoint(session.checkpoint(), path)
        before = path.read_text()

        def torn_dump(payload, stream, **kwargs):
            stream.write('{"kind": "mining-check')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(OSError):
            save_checkpoint(session.checkpoint(), path)
        monkeypatch.undo()
        assert path.read_text() == before

    def test_bitset_checkpoint_resumes_under_the_default_kernel(self, tmp_path):
        # A job checkpointed under the former default kernel resumes
        # under the slab default: the kernel changes no pattern.
        from repro.core.api import MiningResultEnvelope

        market = stock_market_database(0.95, scale="tiny")
        request = MiningRequest(min_sup="85%")
        bitset = dataclasses.replace(request, kernel="bitset")
        truncated = MiningSession.from_request(
            market, bitset, budget=MiningBudget(max_expanded_prefixes=20)
        )
        assert truncated.run().truncated
        path = tmp_path / "ckpt.json"
        save_checkpoint(truncated.checkpoint(), path)
        assert open_checkpoint(path).config["kernel"] == "bitset"
        resumed = MiningSession.from_request(
            market, request, resume_from=open_checkpoint(path)
        )
        assert resumed.config.kernel == "slab"

        def envelope(result):
            return json.dumps(
                MiningResultEnvelope.from_result(request, result).canonical_dict(),
                sort_keys=True,
            )

        assert envelope(resumed.run()) == envelope(mine(market, request))

    def test_resume_rejects_wrong_task(self, dense_db):
        session = MiningSession(dense_db, 3, budget=MiningBudget(max_patterns=2))
        session.run()
        with pytest.raises(MiningError, match="task"):
            MiningSession(
                dense_db, 3, task="frequent", resume_from=session.checkpoint()
            )

    def test_checkpoint_payload_rejects_other_kinds(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.json"
        path.write_text(json.dumps({"kind": "run-record"}))
        with pytest.raises((FormatError, MiningError)):
            open_checkpoint(path)


# ======================================================================
# Session construction guards
# ======================================================================
class TestSessionGuards:
    def test_all_engine_tasks_accepted(self, paper_db):
        session = MiningSession(paper_db, 2, task="maximal")
        assert keys(session.run()) == keys(mine_maximal_cliques(paper_db, 2))
        quasi = MiningSession(
            paper_db,
            2,
            task="quasi",
            gamma=0.8,
            config=MinerConfig(min_size=2, max_size=5),
        )
        assert keys(quasi.run()) == keys(
            mine(paper_db, rq(2, task="quasi", gamma=0.8, max_size=5))
        )

    def test_quasi_session_requires_gamma_and_max_size(self, paper_db):
        with pytest.raises(MiningError, match="requires gamma"):
            MiningSession(
                paper_db, 2, task="quasi", config=MinerConfig(max_size=5)
            )
        with pytest.raises(MiningError, match="max_size"):
            MiningSession(paper_db, 2, task="quasi", gamma=0.8)

    def test_topk_session_requires_k(self, paper_db):
        with pytest.raises(MiningError, match="requires k"):
            MiningSession(paper_db, 2, task="topk")

    def test_config_must_match_task(self, paper_db):
        with pytest.raises(MiningError, match="closed_only"):
            MiningSession(paper_db, 2, task="frequent", config=MinerConfig())

    def test_structural_pruning_required(self, paper_db):
        import dataclasses

        loose = dataclasses.replace(
            MinerConfig(),
            structural_redundancy_pruning=False,
            nonclosed_prefix_pruning=False,
        )
        with pytest.raises(MiningError, match="structural redundancy"):
            MiningSession(paper_db, 2, config=loose)

    def test_unknown_scheduler_rejected(self, paper_db):
        with pytest.raises(MiningError, match="scheduler"):
            MiningSession(paper_db, 2, scheduler="fifo")
        with pytest.raises(MiningError, match="scheduler"):
            mine(paper_db, rq(2, scheduler="fifo"))

    def test_root_labels_incompatible_with_session_options(self, paper_db):
        with pytest.raises(MiningError, match="root_labels"):
            mine(paper_db, rq(2, deadline=5.0), root_labels=("a",))

    def test_truncated_repr_and_fields(self, dense_db):
        partial = MiningSession(
            dense_db, 3, budget=MiningBudget(max_expanded_prefixes=5)
        ).run()
        assert "truncated" in repr(partial)
        assert partial.completed_roots == tuple(sorted(partial.completed_roots))
