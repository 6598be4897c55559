"""End-to-end tests of the mining service control plane.

These run a real :class:`repro.service.MiningService` — its asyncio
loop in a daemon thread, plain ``http.client`` on the other side — and
pin the contracts the service README promises:

* every task's HTTP result is canonically byte-identical to an
  in-process :func:`repro.mine` of the same request;
* the trace endpoint streams the session's events as JSONL;
* cancellation works both queued and mid-run;
* a killed server resumes interrupted jobs from their checkpoints and
  still converges to the same canonical bytes;
* the per-tenant queue is fair (a second tenant's first job is not
  starved by the first tenant's backlog);
* the shared cache warms across tenants.
"""

import http.client
import json
import time

import pytest

from repro import MiningRequest, MiningResultEnvelope, mine
from repro.graphdb import paper_example_database
from repro.graphdb.generators import random_database
from repro.service import DEFAULT_TENANT, FairJobQueue, MiningService

#: A database slow enough (~0.8 s) that we can observe a job *running*
#: — submit more work behind it, cancel it, or kill the server mid-root.
SLOW_DB_ARGS = (44, 28, 0.7, 10)
SLOW_DB_SEED = 7


def slow_database():
    return random_database(*SLOW_DB_ARGS, seed=SLOW_DB_SEED)


def http_json(addr, method, path, body=None, headers=None):
    """One request/response against the service; returns (status, payload)."""
    conn = http.client.HTTPConnection(*addr, timeout=60)
    try:
        conn.request(method, path, body, headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def submit(addr, request, tenant=None):
    headers = {"X-Clan-Tenant": tenant} if tenant else {}
    status, payload = http_json(
        addr, "POST", "/v1/jobs", request.to_json(), headers
    )
    assert status == 202, payload
    return payload["id"]


def wait_result(addr, job_id, timeout=120):
    status, payload = http_json(
        addr, "GET", f"/v1/jobs/{job_id}/result?wait=1&timeout={timeout}"
    )
    assert status == 200, payload
    return payload


def wait_state(addr, job_id, states, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = http_json(addr, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if payload["state"] in states:
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {states}")


def envelope_of(payload):
    """Rebuild the wire payload (sans the job echo) into an envelope."""
    body = {key: value for key, value in payload.items() if key != "job"}
    return MiningResultEnvelope.from_dict(body)


@pytest.fixture
def service_factory(tmp_path):
    """Start services on distinct state dirs; stop the survivors."""
    started = []

    def factory(database, state=None, **kwargs):
        state_dir = tmp_path / (state or f"state-{len(started)}")
        svc = MiningService(database, state_dir, **kwargs)
        addr = svc.start_in_thread()
        started.append(svc)
        return svc, addr

    yield factory
    for svc in started:
        try:
            svc.stop_in_thread()
        except Exception:
            pass


ALL_TASK_REQUESTS = [
    MiningRequest(min_sup=2),
    MiningRequest(min_sup=2, task="frequent", min_size=2),
    MiningRequest(min_sup=2, task="maximal"),
    MiningRequest(min_sup=2, task="topk", k=3),
    MiningRequest(min_sup=2, task="quasi", gamma=0.8, min_size=2, max_size=4),
]


class TestServiceContract:
    def test_healthz_and_stats(self, service_factory):
        svc, addr = service_factory(paper_example_database())
        status, payload = http_json(addr, "GET", "/v1/healthz")
        assert status == 200 and payload["status"] == "ok"
        status, payload = http_json(addr, "GET", "/v1/stats")
        assert status == 200
        assert payload["max_concurrency"] == 2

    def test_every_task_byte_identical_to_in_process(self, service_factory):
        """The acceptance contract: HTTP result == in-process mine()."""
        database = paper_example_database()
        svc, addr = service_factory(database)
        for request in ALL_TASK_REQUESTS:
            job_id = submit(addr, request)
            served = envelope_of(wait_result(addr, job_id))
            local = MiningResultEnvelope.from_result(
                request, mine(database, request)
            )
            assert served.canonical_json() == local.canonical_json(), request.task

    def test_unknown_job_is_404_and_bad_request_is_400(self, service_factory):
        svc, addr = service_factory(paper_example_database())
        status, _ = http_json(addr, "GET", "/v1/jobs/job-999999")
        assert status == 404
        status, payload = http_json(
            addr, "POST", "/v1/jobs", json.dumps({"kind": "nonsense"})
        )
        assert status == 400
        assert "error" in payload

    def test_trace_streams_session_events_as_jsonl(self, service_factory):
        svc, addr = service_factory(paper_example_database())
        job_id = submit(addr, MiningRequest(min_sup=2))
        wait_result(addr, job_id)
        conn = http.client.HTTPConnection(*addr, timeout=30)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/trace")
            response = conn.getresponse()
            assert response.status == 200
            events = [json.loads(line) for line in response.read().splitlines()]
        finally:
            conn.close()
        kinds = [event["event"] for event in events]
        assert kinds[0] == "search_started"
        assert kinds[-1] == "search_finished"
        assert "root_finished" in kinds

    def test_events_endpoint_is_sse_framed(self, service_factory):
        svc, addr = service_factory(paper_example_database())
        job_id = submit(addr, MiningRequest(min_sup=2))
        wait_result(addr, job_id)
        conn = http.client.HTTPConnection(*addr, timeout=30)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/event-stream"
            )
            body = response.read().decode("utf-8")
        finally:
            conn.close()
        assert body.startswith("data: ")
        assert "event: done" in body

    def test_sweep_fans_out_one_job_per_threshold(self, service_factory):
        database = paper_example_database()
        svc, addr = service_factory(database)
        template = MiningRequest(min_sup=2)
        status, payload = http_json(
            addr,
            "POST",
            "/v1/sweeps",
            json.dumps({"min_sups": [2, 1], "request": template.to_dict()}),
        )
        assert status == 202
        assert len(payload["jobs"]) == 2
        for job, min_sup in zip(payload["jobs"], (2, 1)):
            request = MiningRequest(min_sup=min_sup)
            served = envelope_of(wait_result(addr, job["id"]))
            local = MiningResultEnvelope.from_result(
                request, mine(database, request)
            )
            assert served.canonical_json() == local.canonical_json()


class TestCancellation:
    def test_cancel_running_job(self, service_factory):
        svc, addr = service_factory(slow_database())
        job_id = submit(addr, MiningRequest(min_sup=2))
        wait_state(addr, job_id, {"running"})
        status, _ = http_json(addr, "POST", f"/v1/jobs/{job_id}/cancel")
        assert status == 202
        payload = wait_state(addr, job_id, {"cancelled"})
        assert payload["state"] == "cancelled"
        # Cancellation keeps the partial output: the result is served,
        # marked truncated, with the completed roots recorded.
        status, payload = http_json(addr, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 200
        assert payload["result"]["truncated"] is True

    def test_cancel_queued_job_never_runs(self, service_factory):
        svc, addr = service_factory(slow_database(), max_concurrency=1)
        blocker = submit(addr, MiningRequest(min_sup=2))
        wait_state(addr, blocker, {"running"})
        queued = submit(addr, MiningRequest(min_sup=2, task="maximal"))
        status, _ = http_json(addr, "POST", f"/v1/jobs/{queued}/cancel")
        assert status == 202
        payload = wait_state(addr, queued, {"cancelled"})
        assert payload["state"] == "cancelled"
        wait_result(addr, blocker)
        assert queued not in svc.execution_order

    def test_cancel_finished_job_conflicts(self, service_factory):
        svc, addr = service_factory(paper_example_database())
        job_id = submit(addr, MiningRequest(min_sup=2))
        wait_result(addr, job_id)
        status, _ = http_json(addr, "POST", f"/v1/jobs/{job_id}/cancel")
        assert status == 409


class TestKillAndResume:
    def test_killed_server_resumes_from_checkpoint(self, service_factory):
        """Crash drill: kill mid-job, restart on the same state dir.

        The interrupted job must come back queued, resume from its
        checkpoint rather than restarting, and produce the same
        canonical bytes an uninterrupted in-process run produces.
        """
        database = slow_database()
        request = MiningRequest(min_sup=2)
        svc1, addr = service_factory(database, state="shared")
        job_id = submit(addr, request)

        # Stream the live trace until two roots completed, then pull
        # the plug while the mining thread is mid-search.
        conn = http.client.HTTPConnection(*addr, timeout=60)
        roots_done = 0
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/trace")
            response = conn.getresponse()
            while roots_done < 2:
                line = response.fp.readline()
                assert line, "trace ended before two roots finished"
                if json.loads(line)["event"] == "root_finished":
                    roots_done += 1
        finally:
            conn.close()
        svc1.kill_in_thread()

        state_dir = svc1.state_dir
        record = json.loads((state_dir / "jobs" / f"{job_id}.json").read_text())
        assert record["state"] == "running"  # crash: no graceful demotion
        assert (state_dir / "checkpoints" / f"{job_id}.json").exists()
        assert not (state_dir / "results" / f"{job_id}.json").exists()

        svc2, addr2 = service_factory(database, state="shared")
        served = envelope_of(wait_result(addr2, job_id))
        local = MiningResultEnvelope.from_result(request, mine(database, request))
        assert served.canonical_json() == local.canonical_json()
        # The resumed run really did reuse the checkpoint: its own
        # statistics cover fewer roots than the cold run expanded.
        resumed = served.result.statistics.snapshot()["prefixes_visited"]
        cold = local.result.statistics.snapshot()["prefixes_visited"]
        assert resumed < cold


    def test_kill_waits_for_an_inflight_checkpoint_save(self, tmp_path, monkeypatch):
        """After ``kill`` returns, no checkpoint save is running or starts.

        A save still running when a restarted service reads the file
        would hand it a torn checkpoint.
        """
        import threading
        from types import SimpleNamespace

        from repro.core.session import RootFinished
        from repro.service import server

        order = []
        started, release = threading.Event(), threading.Event()

        def slow_save(checkpoint, path):
            started.set()
            assert release.wait(30)
            order.append("saved")

        monkeypatch.setattr(server, "save_checkpoint", slow_save)
        svc = MiningService(paper_example_database(), tmp_path / "state")
        job = SimpleNamespace(job_id="job-000001", session=SimpleNamespace(checkpoint=dict))
        sink = server._JobSink(svc, job)
        event = RootFinished(root="a", index=0, n_pending=1, patterns=0, statistics={})

        def kill():
            svc.kill()
            order.append("killed")

        saver = threading.Thread(target=sink.emit, args=(event,))
        saver.start()
        assert started.wait(30)
        killer = threading.Thread(target=kill)
        killer.start()
        killer.join(0.5)  # a kill that does not wait for the save ends here
        release.set()
        for thread in (saver, killer):
            thread.join(30)
            assert not thread.is_alive()
        sink.emit(event)
        assert order == ["saved", "killed"]


class TestFairness:
    def test_round_robin_queue_interleaves_tenants(self):
        queue = FairJobQueue()
        queue.push("alice", "a1")
        queue.push("alice", "a2")
        queue.push("alice", "a3")
        queue.push("bob", "b1")
        queue.push("bob", "b2")
        order = [queue.pop_next()[1] for _ in range(len(queue))]
        assert order == ["a1", "b1", "a2", "b2", "a3"]

    def test_second_tenant_not_starved(self, service_factory):
        """bob's first job runs before alice's backlog drains."""
        svc, addr = service_factory(slow_database(), max_concurrency=1)
        blocker = submit(addr, MiningRequest(min_sup=2), tenant="alice")
        wait_state(addr, blocker, {"running"})
        a1 = submit(addr, MiningRequest(min_sup=2, task="maximal"), tenant="alice")
        a2 = submit(addr, MiningRequest(min_sup=2, task="topk", k=2), tenant="alice")
        b1 = submit(addr, MiningRequest(min_sup=2, task="maximal"), tenant="bob")
        for job_id in (blocker, a1, a2, b1):
            wait_result(addr, job_id)
        order = svc.execution_order
        assert order[0] == blocker
        assert order.index(b1) < order.index(a2)

    def test_tenant_accounting_in_stats(self, service_factory):
        svc, addr = service_factory(paper_example_database())
        submit(addr, MiningRequest(min_sup=2), tenant="alice")
        b = submit(addr, MiningRequest(min_sup=2), tenant="bob")
        wait_result(addr, b)
        status, payload = http_json(addr, "GET", "/v1/stats")
        assert status == 200
        assert {"alice", "bob"} <= set(payload["tenants"])
        assert payload["tenants"]["bob"]["submitted"] == 1
        status, payload = http_json(addr, "GET", "/v1/jobs?tenant=bob")
        assert status == 200
        assert all(job["tenant"] == "bob" for job in payload["jobs"])


class TestSharedCache:
    def test_second_tenant_served_from_cache(self, service_factory):
        """One cache across tenants: bob's identical request is warm."""
        database = paper_example_database()
        svc, addr = service_factory(database)
        request = MiningRequest(min_sup=2)
        cold = submit(addr, request, tenant="alice")
        cold_payload = wait_result(addr, cold)
        assert cold_payload["search"]["cache"]["roots_from_cache"] == 0

        warm = submit(addr, request, tenant="bob")
        warm_payload = wait_result(addr, warm)
        assert warm_payload["search"]["cache"]["roots_from_cache"] > 0
        assert envelope_of(warm_payload).canonical_json() == envelope_of(
            cold_payload
        ).canonical_json()

    def test_cache_persists_across_restart(self, service_factory):
        database = paper_example_database()
        request = MiningRequest(min_sup=2)
        svc1, addr1 = service_factory(database, state="shared")
        wait_result(addr1, submit(addr1, request))
        svc1.stop_in_thread()

        svc2, addr2 = service_factory(database, state="shared")
        payload = wait_result(addr2, submit(addr2, request))
        assert payload["search"]["cache"]["roots_from_cache"] > 0

    def test_use_cache_false_forces_cold_mine(self, service_factory):
        database = paper_example_database()
        svc, addr = service_factory(database)
        wait_result(addr, submit(addr, MiningRequest(min_sup=2)))
        payload = wait_result(
            addr, submit(addr, MiningRequest(min_sup=2, use_cache=False))
        )
        assert payload["search"]["cache"]["roots_from_cache"] == 0


class TestRecovery:
    def test_finished_jobs_survive_restart(self, service_factory):
        database = paper_example_database()
        request = MiningRequest(min_sup=2)
        svc1, addr1 = service_factory(database, state="shared")
        job_id = submit(addr1, request)
        wait_result(addr1, job_id)
        svc1.stop_in_thread()

        svc2, addr2 = service_factory(database, state="shared")
        status, payload = http_json(addr2, "GET", f"/v1/jobs/{job_id}")
        assert status == 200 and payload["state"] == "done"
        served = envelope_of(wait_result(addr2, job_id))
        local = MiningResultEnvelope.from_result(request, mine(database, request))
        assert served.canonical_json() == local.canonical_json()
