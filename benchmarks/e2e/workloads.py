"""The four end-to-end workloads: inputs, ops, and cross-path checks.

Every input is derived from ``--seed`` alone.  The market simulator and
the chem generator run at the repository's reference seeds (7 and 11,
the panels the paper-figure benchmarks use), and ``--seed`` then draws
the transaction order of every database plus, for the service, the
phase of the request mix.  Reordering transactions leaves the search
unchanged, so each seed mines the same amount of work while producing
different transaction ids, digests and request orders.  Re-seeding the
simulator instead moves the fig6a sweep cost by 31% (quartile spread
over ten seeds), and permuting vertex ids moves it by 4%: both wider
than the regression bounds can absorb.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import http.client
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import repro
from repro.chem import ca_like_database
from repro.core.api import MiningRequest, MiningResultEnvelope, execute_request
from repro.core.cache import MiningCache
from repro.core.session import MiningSession
from repro.core.sharding import mine_sharded
from repro.graphdb import GraphDatabase, import_graphs, open_source
from repro.io import gspan_format
from repro.io.runlog import save_cache
from repro.stockmarket.datasets import (
    PAPER_THETAS,
    clear_cache,
    stock_market_database,
    stock_market_series,
)

HERE = Path(__file__).resolve().parent
MARKET_SEED = 7
CHEM_SEED = 11
SUPPORTS = ("100%", "95%", "90%", "85%")


def digests(request: MiningRequest, result: Any) -> Tuple[str, str]:
    """SHA-256 of the canonical envelope, and of its ``result`` section."""
    canonical = MiningResultEnvelope.from_result(request, result).canonical_dict()
    return _sha(canonical), _sha(canonical["result"])


def _sha(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class BatchOp:
    """One timed call: ``call()`` returns ``(request, result)``."""

    key: str
    call: Callable[[], Tuple[MiningRequest, Any]]


@dataclass
class BatchState:
    ops: List[BatchOp]
    #: Values the per-layer report needs that spans cannot give.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Reference results for the cross-path check, by op key.
    reference: Dict[str, Callable[[], Tuple[MiningRequest, Any]]] = field(
        default_factory=dict
    )


def shuffled(database: GraphDatabase, seed: int, name: str) -> GraphDatabase:
    """The database's transactions in a seeded order (fresh copies)."""
    graphs = list(database)
    random.Random(seed).shuffle(graphs)
    return GraphDatabase(
        (graph.copy(graph_id=tid) for tid, graph in enumerate(graphs)), name=name
    )


def _mine(database: GraphDatabase, request: MiningRequest):
    return request, repro.mine(database, request)


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
class _Batch:
    #: Op keys whose median latency ratio is ``executor.speedup``.
    speedup: Optional[Tuple[str, str]] = None

    def expected(self, seed: int, work: Path) -> Dict[str, str]:
        """Canonical digest of every op, each run once."""
        return {op.key: digests(*op.call())[0] for op in self.setup(seed, work).ops}

    def cross_check(self, state: BatchState, results: Dict[str, set]) -> List[str]:
        """Op keys whose result digests disagree with another path."""
        return []


class Fig6aSweep(_Batch):
    """Paper Fig. 6(a): six market databases x four supports."""

    name = "fig6a-sweep"

    def setup(self, seed: int, work: Path) -> BatchState:
        clear_cache()
        bases = stock_market_series(PAPER_THETAS, scale="small", seed=MARKET_SEED)
        ops = []
        for index, (theta, base) in enumerate(zip(PAPER_THETAS, bases)):
            database = shuffled(base, seed * 100 + index, f"SM-{theta:.2f}")
            for support in SUPPORTS:
                ops.append(
                    BatchOp(
                        f"SM-{theta:.2f}@{support}",
                        functools.partial(_mine, database, MiningRequest(min_sup=support)),
                    )
                )
        return BatchState(ops)


class Fig7bReplicated(_Batch):
    """Paper Fig. 7(b): SM-0.95 replicated, serial and on a 2-worker pool."""

    name = "fig7b-replicated"
    factors = (8, 16, 32, 64)
    speedup = ("x64-serial", "x64-pool")

    def setup(self, seed: int, work: Path) -> BatchState:
        clear_cache()
        base = shuffled(
            stock_market_database(0.95, scale="small", seed=MARKET_SEED), seed, "SM-0.95"
        )
        serial = MiningRequest(min_sup="85%")
        ops = []
        for factor in self.factors:
            database = base.replicate(factor)
            ops.append(BatchOp(f"x{factor}-serial", functools.partial(_mine, database, serial)))
        pooled = MiningRequest(min_sup="85%", processes=2)
        ops.append(BatchOp("x64-pool", functools.partial(_mine, database, pooled)))
        return BatchState(ops)

    def cross_check(self, state: BatchState, results: Dict[str, set]) -> List[str]:
        # The pool echoes processes=2 in its request, so compare results.
        if results["x64-pool"] != results["x64-serial"]:
            return ["x64-pool"]
        return []


class SqliteSharded(_Batch):
    """``clan mine --db --shards 4`` over a 44-transaction SQLite store."""

    name = "sqlite-sharded"
    replication = 4
    shards = 4

    def __init__(self) -> None:
        self._stores = 0

    def setup(self, seed: int, work: Path) -> BatchState:
        clear_cache()
        tiny = shuffled(
            stock_market_database(0.95, scale="tiny", seed=MARKET_SEED), seed, "SM-0.95-tiny"
        )
        replica = tiny.replicate(self.replication)
        self._stores += 1
        path = work / f"store-{self._stores}.sqlite"
        import_graphs(path, iter(replica), name=replica.name).close()
        ops, reference = [], {}
        for support in SUPPORTS:
            request = MiningRequest(min_sup=support)
            key = f"shards{self.shards}@{support}"
            ops.append(BatchOp(key, functools.partial(self._mine_store, path, request)))
            reference[key] = functools.partial(_mine, replica, request)
        extra = {
            "_store_tx": float(len(replica)),
            "storage.bytes_per_tx": os.path.getsize(path) / len(replica),
        }
        return BatchState(ops, extra, reference)

    def _mine_store(self, path: Path, request: MiningRequest):
        # The way `clan mine --db` opens a store for each invocation.
        database = GraphDatabase(source=open_source(path))
        try:
            return request, mine_sharded(database, request, shards=self.shards)
        finally:
            database.source.close()

    def cross_check(self, state: BatchState, results: Dict[str, set]) -> List[str]:
        failed = []
        for key, call in state.reference.items():
            if results[key] != {digests(*call())[1]}:
                failed.append(key)
        return failed


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------
_TASKS = (
    ("closed", {}),
    ("frequent", {}),
    ("maximal", {}),
    ("topk", {"k": 10}),
    ("quasi", {"gamma": 0.8, "max_size": 4}),
)
#: Zipf rank order: rank 1 is the first entry.
TEMPLATES: Tuple[Tuple[str, MiningRequest], ...] = tuple(
    (f"{task}@{support}", MiningRequest(min_sup=support, task=task, **options))
    for support in ("30%", "20%", "10%", "5%")
    for task, options in _TASKS
)
ZIPF_S = 1.1
CLIENTS = 2
_ANNOUNCE = re.compile(r"http://([^:\s]+):(\d+)")


def job_sequence(seed: int, length: int = 1000) -> List[int]:
    """Template indices of the service run: Zipf(1.1) over the ranks.

    Draws are quasi-random (a golden-ratio sequence whose phase the seed
    sets), so every prefix of the run holds the Zipf shares and seeds
    differ in order only; independent draws make the mix of a 40-job
    run, and with it every service metric, vary by seed.
    """
    weights = [1.0 / rank**ZIPF_S for rank in range(1, len(TEMPLATES) + 1)]
    total, cdf = sum(weights), []
    for weight in weights:
        cdf.append((cdf[-1] if cdf else 0.0) + weight / total)
    step = (math.sqrt(5.0) - 1.0) / 2.0
    phase = random.Random(seed).random()
    return [
        min(bisect.bisect_right(cdf, (phase + j * step) % 1.0), len(TEMPLATES) - 1)
        for j in range(length)
    ]


@dataclass
class Job:
    client: int
    template: int
    job_id: str = ""
    seconds: float = 0.0
    digest: str = ""
    error: str = ""

    @property
    def key(self) -> str:
        return TEMPLATES[self.template][0]


class ServiceState:
    """One running ``clan serve`` subprocess over the chem database."""

    def __init__(self, process: subprocess.Popen, host: str, port: int, tve: Path):
        self.process = process
        self.host = host
        self.port = port
        self.tve = tve

    def call(self, method: str, path: str, body: Optional[bytes] = None,
             headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=170)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGINT (a clean `clan serve` exit), then wait for the process."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stderr.close()


class ServiceMixed:
    """Two closed-loop clients against `clan serve` over chem."""

    name = "service-mixed"

    def __init__(self) -> None:
        self._starts = 0

    def write_chem(self, seed: int, work: Path) -> Path:
        """The chem database, as the `.tve` file the server loads."""
        chem = shuffled(ca_like_database(422, seed=CHEM_SEED), seed, "CA-synthetic")
        tve = work / "chem.tve"
        gspan_format.save_database(chem, tve)
        return tve

    def setup(self, seed: int, work: Path, spans_path: Optional[Path] = None) -> ServiceState:
        """Write chem, warm the shared cache, start `clan serve` on it.

        Each template is mined once in-process into the state directory's
        ``clan-cache.json``, which the server loads at start.  Without it
        every job rewrites a cache that grows for the whole run, so job
        latency ramps up and a run's numbers depend on how far it got.
        """
        tve = self.write_chem(seed, work)
        self._starts += 1
        state_dir = work / f"state-{self._starts}"
        state_dir.mkdir(parents=True)
        database = gspan_format.open_database(tve)
        cache = MiningCache()
        for _, request in TEMPLATES:
            MiningSession.from_request(database, request, cache=cache).run()
        save_cache(cache, state_dir)
        argv = ["serve", str(tve), "--state", str(state_dir), "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       "--spans", str(spans_path), *argv]
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
            text=True,
        )
        lines = []
        for line in process.stderr:
            match = _ANNOUNCE.search(line)
            if match is not None:
                return ServiceState(process, match.group(1), int(match.group(2)), tve)
            lines.append(line)
        process.wait()
        raise RuntimeError(f"clan serve did not start: {''.join(lines)[-2000:]}")

    def measure(self, state: ServiceState, seed: int, seconds: float,
                max_jobs: Optional[int]) -> Tuple[List[Job], float]:
        """Run the clients; returns the jobs and the wall seconds."""
        sequence = job_sequence(seed)
        jobs: List[Job] = []
        lock = threading.Lock()
        started = time.perf_counter()

        def client(index: int) -> None:
            position = index
            while True:
                if max_jobs is not None:
                    if position >= max_jobs:
                        return
                elif time.perf_counter() - started >= seconds:
                    return
                job = Job(index, sequence[position % len(sequence)])
                position += CLIENTS
                self._run_job(state, job)
                with lock:
                    jobs.append(job)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return jobs, time.perf_counter() - started

    def _run_job(self, state: ServiceState, job: Job) -> None:
        request = TEMPLATES[job.template][1]
        headers = {"X-Clan-Tenant": f"tenant-{job.client}",
                   "Content-Type": "application/json"}
        began = time.perf_counter()
        try:
            status, body = state.call("POST", "/v1/jobs", request.to_json().encode(), headers)
            if status != 202:
                job.error = f"submit returned {status}"
                return
            job.job_id = json.loads(body)["id"]
            status, body = state.call(
                "GET", f"/v1/jobs/{job.job_id}/result?wait=1&timeout=160"
            )
            job.seconds = time.perf_counter() - began
            if status != 200:
                job.error = f"result returned {status}"
                return
            payload = json.loads(body)
            if payload.get("job", {}).get("state") != "done":
                job.error = f"job ended {payload.get('job', {}).get('state')}"
                return
            job.digest = digests(*_envelope_parts(payload))[0]
        except (OSError, ValueError, KeyError, http.client.HTTPException) as exc:
            job.error = f"{type(exc).__name__}: {exc}"

    def cache_hit_ratio(self, state: ServiceState) -> float:
        status, body = state.call("GET", "/v1/stats")
        cache = json.loads(body)["cache"] if status == 200 else {}
        looked = cache.get("hits", 0) + cache.get("misses", 0)
        return cache.get("hits", 0) / looked if looked else 0.0

    def reference_digests(self, tve: Path, keys: Iterable[str]) -> Dict[str, str]:
        """In-process `execute_request` on the file the server loads."""
        database = gspan_format.open_database(tve)
        requests = dict(TEMPLATES)
        return {
            key: digests(requests[key], execute_request(database, requests[key]))[0]
            for key in sorted(keys)
        }

    def expected(self, seed: int, work: Path) -> Dict[str, str]:
        return self.reference_digests(self.write_chem(seed, work), dict(TEMPLATES))


def _envelope_parts(payload: Dict[str, Any]):
    envelope = MiningResultEnvelope.from_dict(payload)
    return envelope.request, envelope.result


_CLASSES = (Fig6aSweep, Fig7bReplicated, SqliteSharded, ServiceMixed)
NAMES = tuple(cls.name for cls in _CLASSES)
SERVICE_NAME = ServiceMixed.name


def make(name: str):
    """A fresh workload object by name."""
    return {cls.name: cls for cls in _CLASSES}[name]()
