"""Sessions mine on the engine's root sweep, root for root like ``mine``.

``MiningExecutor.iter_roots`` mines every run of uncached roots in one
:meth:`MiningEngine.mine_roots` sweep, with or without live hooks, and
the session publishes each root's heartbeat at the sweep's root
boundary.  The contract checked here: whatever cached roots cut the
sweep into runs, whatever the sampling, and wherever a budget trips,
the session's event stream, envelope, ``completed_roots`` and
checkpoint equal a reference that mines one root per
``engine.mine(root_labels=(root,), hooks=...)`` call — and a serial
session makes exactly one ``_search`` call per run of uncached roots.
"""

import contextlib
import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core import MiningCache, MiningSession, RingBufferSink
from repro.core.api import MiningRequest, MiningResultEnvelope
from repro.core.cache import CachedRoot
from repro.core.engine import MiningEngine, engine_digest, engine_for_task, finalize_patterns
from repro.core.results import MiningResult
from repro.core.session import (
    CallbackSink,
    CancellationToken,
    MiningBudget,
    MiningCheckpoint,
    RootFinished,
    RootStarted,
    SearchAborted,
    SearchFinished,
    SearchHooks,
    SearchStarted,
)
from repro.core.statistics import MinerStatistics
from repro.io.json_format import result_to_dict
from repro.io.runlog import database_fingerprint
from tests.strategies import aligned_databases, graph_databases

TASKS = (
    ("closed", {}),
    ("maximal", {}),
    ("topk", {"k": 2}),
    ("quasi", {"gamma": 0.8}),
)


def make_request(task_index, kernel, min_sup, sample_every, budget):
    task, options = TASKS[task_index]
    return MiningRequest(
        min_sup=min_sup,
        task=task,
        kernel=kernel,
        max_size=4 if task == "quasi" else None,
        sample_every=sample_every,
        budget=budget,
        **options,
    )


def recorded_root(engine, abs_sup, root, sample_every):
    """One root mined alone under private hooks: (part, its substream)."""
    sink = RingBufferSink(capacity=None)
    hooks = SearchHooks(sinks=(sink,), sample_every=sample_every)
    hooks.begin_root(root)
    part = engine.mine(abs_sup, root_labels=(root,), hooks=hooks)
    return part, tuple(sink.events)


def warm_cache(database, request, roots):
    """A cache holding exact entries (statistics and events) for ``roots``."""
    config = request.resolved_config()
    engine = engine_for_task(database, config, request.task, request.k, request.gamma)
    engine.prepare()
    abs_sup = database.absolute_support(request.min_sup)
    cache = MiningCache()
    keys = (
        database_fingerprint(database),
        engine_digest(request.task, config, request.k, request.gamma),
    )
    for root in roots:
        part, events = recorded_root(engine, abs_sup, root, request.sample_every)
        cache.store(
            *keys,
            CachedRoot(
                root=root,
                abs_sup=abs_sup,
                patterns=tuple(part),
                statistics=part.statistics.snapshot(),
                events=events,
                events_sample_every=request.sample_every,
            ),
        )
    return cache


def reference_run(database, request, cached_roots):
    """The session protocol with one ``engine.mine`` call per root.

    Cached roots are mined under private hooks and their substreams
    replayed into the live ones, exactly as a cache entry would be.
    Returns (events, result, completed patterns by root).
    """
    config = request.resolved_config()
    engine = engine_for_task(database, config, request.task, request.k, request.gamma)
    engine.prepare()
    abs_sup = database.absolute_support(request.min_sup)
    roots = tuple(database.frequent_labels(abs_sup))
    ring = RingBufferSink(capacity=None)
    ring.emit(
        SearchStarted(
            task=request.task,
            min_sup=abs_sup,
            n_transactions=len(database),
            roots=roots,
            pending_roots=roots,
            resumed_roots=(),
        )
    )
    hooks = SearchHooks(
        sinks=(ring,),
        budget=request.budget,
        token=CancellationToken(),
        sample_every=request.sample_every,
    )
    completed = {}
    statistics = MinerStatistics()
    reason = None
    try:
        for index, root in enumerate(roots):
            ring.emit(RootStarted(root=root, index=index, n_pending=len(roots)))
            hooks.begin_root(root)
            if root in cached_roots:
                part, events = recorded_root(engine, abs_sup, root, request.sample_every)
                hooks.replay(events, len(part), part.statistics.prefixes_visited)
            else:
                part = engine.mine(abs_sup, root_labels=(root,), hooks=hooks)
            completed[root] = list(part)
            statistics.merge(part.statistics)
            ring.emit(
                RootFinished(
                    root=root,
                    index=index,
                    n_pending=len(roots),
                    patterns=len(part),
                    statistics=part.statistics.snapshot(),
                )
            )
    except SearchAborted as stop:
        reason = stop.reason
    # The launcher's root scan and skipped infrequent labels.
    statistics.database_scans += 1
    statistics.infrequent_extensions += len(database.label_supports()) - len(roots)
    result = MiningResult(
        min_sup=abs_sup,
        closed_only=config.closed_only,
        statistics=statistics,
        truncated=reason is not None,
        completed_roots=tuple(sorted(completed)),
    )
    collected = [pattern for patterns in completed.values() for pattern in patterns]
    for pattern in finalize_patterns(request.task, collected, request.k):
        result.add(pattern)
    ring.emit(
        SearchFinished(
            patterns=len(result),
            truncated=result.truncated,
            reason=reason,
            completed_roots=result.completed_roots,
        )
    )
    return list(ring.events), result, completed


def reference_checkpoint(database, request, completed):
    config = request.resolved_config()
    interim = MiningResult(
        min_sup=database.absolute_support(request.min_sup),
        closed_only=config.closed_only,
    )
    collected = [pattern for patterns in completed.values() for pattern in patterns]
    for pattern in sorted(collected, key=lambda p: p.form.labels):
        interim.add(pattern)
    return MiningCheckpoint(
        task=request.task,
        min_sup=interim.min_sup,
        config=config.to_dict(),
        database_fingerprint=database_fingerprint(database),
        n_transactions=len(database),
        completed_roots=tuple(sorted(completed)),
        result=result_to_dict(interim),
        k=request.k,
        gamma=request.gamma,
    )


def envelope(request, result):
    return MiningResultEnvelope.from_result(request, result).canonical_dict()


def entries(cache):
    return sorted(json.dumps(entry, sort_keys=True) for entry in cache.to_dict()["entries"])


def uncached_runs(roots, cached, n_completed):
    """The maximal runs of uncached roots a serial session starts.

    Roots complete in order, so a truncated run stopped in the root
    after its ``n_completed`` finished ones; a run that started before
    that root is mined by one sweep over all of it.
    """
    stop = len(roots) if n_completed == len(roots) else n_completed + 1
    runs, run = [], []
    for index, root in enumerate(roots):
        if root in cached:
            if run:
                runs.append(tuple(run))
            run = []
        elif run or index < stop:
            run.append(root)
    if run:
        runs.append(tuple(run))
    return runs


@contextlib.contextmanager
def counting_searches():
    """The roots of every ``MiningEngine._search`` call made in the block."""
    calls = []
    search = MiningEngine._search

    def counted(self, abs_sup, result, stats, hooks, roots, *args, **kwargs):
        calls.append(tuple(roots))
        return search(self, abs_sup, result, stats, hooks, roots, *args, **kwargs)

    MiningEngine._search = counted
    try:
        yield calls
    finally:
        MiningEngine._search = search


budgets = st.one_of(
    st.none(),
    st.builds(MiningBudget, max_expanded_prefixes=st.integers(1, 30)),
    st.builds(MiningBudget, max_patterns=st.integers(1, 8)),
)


class TestSessionOnTheSweep:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        database=st.one_of(
            graph_databases(min_graphs=2, max_graphs=6),
            aligned_databases(min_graphs=2, max_graphs=6),
        ),
        task_index=st.integers(0, len(TASKS) - 1),
        kernel=st.sampled_from(["bitset", "slab"]),
        sample_every=st.sampled_from([0, 1, 3]),
        budget=budgets,
    )
    def test_equals_per_root_reference(
        self, data, database, task_index, kernel, sample_every, budget
    ):
        min_sup = data.draw(st.integers(1, 2))
        request = make_request(task_index, kernel, min_sup, sample_every, budget)
        roots = tuple(database.frequent_labels(database.absolute_support(min_sup)))
        # About a third of the roots cached, cutting the sweep into runs.
        flags = data.draw(
            st.lists(
                st.sampled_from((False, False, True)),
                min_size=len(roots),
                max_size=len(roots),
            )
        )
        cached = frozenset(root for root, flag in zip(roots, flags) if flag)
        events, reference, completed = reference_run(database, request, cached)

        cache = warm_cache(database, request, cached)
        ring = RingBufferSink(capacity=None)
        with counting_searches() as calls:
            session = MiningSession(
                database,
                min_sup,
                task=request.task,
                config=request.resolved_config(),
                budget=budget,
                sinks=(ring,),
                sample_every=sample_every,
                cache=cache,
                k=request.k,
                gamma=request.gamma,
            )
            result = session.run()

        assert list(ring.events) == events
        assert envelope(request, result) == envelope(request, reference)
        assert result.statistics.snapshot() == reference.statistics.snapshot()
        assert result.completed_roots == reference.completed_roots
        assert session.checkpoint() == reference_checkpoint(database, request, completed)
        # One sweep per run of uncached roots, each over the whole run.
        assert calls == uncached_runs(roots, cached, len(result.completed_roots))
        event(f"truncated={result.truncated}")
        event(f"sweeps={min(len(calls), 3)}")
        # Every root the session mined was stored with its own substream.
        expected = warm_cache(database, request, cached | set(result.completed_roots))
        assert entries(cache) == entries(expected)

    def test_cold_serial_session_is_one_sweep(self, paper_db):
        ring = RingBufferSink(capacity=None)
        with counting_searches() as calls:
            result = MiningSession(paper_db, 2, sinks=(ring,), sample_every=1).run()
        assert calls == [tuple(paper_db.frequent_labels(2))]
        finished = [event for event in ring.events if event.kind == "root_finished"]
        assert [event.root for event in finished] == list(paper_db.frequent_labels(2))
        assert sorted(p.key() for p in result) == ["abcd:2", "bde:2"]

    def test_cancel_at_a_heartbeat_stops_before_the_next_root(self, paper_db):
        # The sweep is paused at the root boundary while the session
        # publishes RootFinished: a cancel from that sink lands before
        # the next root expands a single prefix.
        def cancel_on_heartbeat(event):
            if isinstance(event, RootFinished):
                session.cancel()

        ring = RingBufferSink(capacity=None)
        sinks = (CallbackSink(cancel_on_heartbeat), ring)
        session = MiningSession(paper_db, 2, sinks=sinks, sample_every=1)
        result = session.run()
        assert result.truncated
        assert result.completed_roots == tuple(paper_db.frequent_labels(2)[:1])
        kinds = [event.kind for event in ring.events]
        assert kinds[kinds.index("root_finished") :] == [
            "root_finished",
            "root_started",
            "search_finished",
        ]


class TestServiceJobSink:
    def test_a_flushed_batch_is_one_post(self, paper_db, tmp_path):
        from repro.core.session import event_to_dict
        from repro.io.runlog import open_checkpoint
        from repro.service.jobs import MiningJob
        from repro.service.server import MiningService, _JobSink

        service = MiningService(paper_db, tmp_path)
        service._checkpoint_path("job").parent.mkdir(parents=True)
        posts = []

        def post(callback, *args):
            posts.append(len(args[1]))
            callback(*args)

        service._post = post
        job = MiningJob(job_id="job", tenant="t", request=MiningRequest(min_sup=2))
        ring = RingBufferSink(capacity=None)
        sinks = (_JobSink(service, job), ring)
        job.session = MiningSession(paper_db, 2, sinks=sinks, sample_every=1)
        result = job.session.run()

        assert job.events == [event_to_dict(event) for event in ring.events]
        # The session publishes its own events one by one; each root's
        # search events (fewer than a batch here) arrive in one post.
        search_kinds = ("prefix_visited", "pattern_emitted", "subtree_pruned")
        expected, previous = [], None
        for event in ring.events:
            if event.kind in search_kinds and previous in search_kinds:
                expected[-1] += 1
            else:
                expected.append(1)
            previous = event.kind
        assert posts == expected
        assert len(posts) < len(ring.events)
        checkpoint = open_checkpoint(service._checkpoint_path("job"))
        assert checkpoint.completed_roots == result.completed_roots
