"""The end-to-end benchmark: four workloads, five user-visible metrics.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 7                       # every workload
    python3 benchmarks/e2e/run.py --workload fig6a-sweep --seed 7
    python3 benchmarks/e2e/run.py --workload sqlite-sharded --trace 1

Each workload runs in a fresh process for BENCHMARK.json's
``run_seconds``.  The runner prints every metric as ``workload  name
value  unit``, checks every op's output, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: BENCHMARK.json's
end-to-end metrics untraced, or its per-layer metrics with ``--trace
1``.  It exits non-zero when any check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".e2e_work" / "trace"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Service jobs in a ``--quick`` run.
QUICK_JOBS = 10

E2E_UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
#: The per-layer metrics the final JSON line carries (run.py prints more).
JUDGED_LAYERS = {metric["name"] for metric in BENCHMARK["per_layer"]}


def _import_repro() -> None:
    """Import the checkout's own ``src/repro`` or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no src/repro under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"run.py: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


# ----------------------------------------------------------------------
# Outcome bookkeeping
# ----------------------------------------------------------------------
class Outcome:
    """Timed ops of one measurement phase and the checks on them."""

    def __init__(self) -> None:
        self.walls: Dict[str, float] = {}  # op id -> seconds (ops that returned)
        self.keys: Dict[str, str] = {}  # op id -> op key
        self.errors: Dict[str, str] = {}  # op id -> why it failed
        self.full: Dict[str, set] = {}  # op key -> canonical digests seen
        self.result: Dict[str, set] = {}  # op key -> result-section digests seen
        self.elapsed = 0.0  # wall seconds of the phase (service throughput)

    @property
    def attempted(self) -> int:
        return len(self.keys)

    def fail_key(self, key: str, why: str) -> None:
        for op_id, op_key in self.keys.items():
            if op_key == key:
                self.errors.setdefault(op_id, why)

    def check_digests(self, expected: Dict[str, str]) -> None:
        """One digest per op key, equal to the committed one if any."""
        for key, seen in self.full.items():
            if len(seen) > 1:
                self.fail_key(key, "digest changed between passes")
            elif key in expected and seen != {expected[key]}:
                self.fail_key(key, "digest differs from expected.json")

    def latency_metrics(self, throughput: Optional[float] = None) -> Dict[str, float]:
        """``ops_per_s`` (timed ops / op seconds, unless given) and p50/p90.

        Batch numbers are taken over op *types*: each key's latency is
        its median over the run's passes, weighted by how many ops of
        that key ran (nearest rank for the percentiles; op seconds for
        ``ops_per_s``).  A burst of machine noise then moves a number
        only if it slows most ops of one type, not a tenth of the run.
        Service jobs (``throughput`` given) share no passes and are
        ranked one by one.
        """
        by_key: Dict[str, List[float]] = {}
        for op, seconds in self.walls.items():
            if op not in self.errors:
                key = self.keys[op] if throughput is None else op
                by_key.setdefault(key, []).append(seconds)
        if not by_key:
            return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_p90_ms": 0.0}
        typical = sorted((statistics.median(v), len(v)) for v in by_key.values())
        n_ops = sum(count for _, count in typical)

        def percentile(share: float) -> float:
            rank = math.ceil(share * n_ops)
            for seconds, count in typical:
                rank -= count
                if rank <= 0:
                    return 1000.0 * seconds
            return 1000.0 * typical[-1][0]

        if throughput is None:
            throughput = n_ops / sum(seconds * count for seconds, count in typical)
        return {
            "ops_per_s": throughput,
            "op_p50_ms": percentile(0.5),
            "op_p90_ms": percentile(0.9),
        }


def peak_rss_mib() -> float:
    """Largest ru_maxrss of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def run_pass(state, outcome: Outcome, pass_index: int, recorder=None) -> None:
    from workloads import digests

    for op in state.ops:
        op_id = f"{op.key}#{pass_index}"
        outcome.keys[op_id] = op.key
        scope = recorder.op(op_id) if recorder is not None else contextlib.nullcontext()
        with scope:
            began = time.perf_counter()
            try:
                request, result = op.call()
            except Exception as exc:  # an op that raises is a failed op
                outcome.errors[op_id] = f"{type(exc).__name__}: {exc}"
                continue
            outcome.walls[op_id] = time.perf_counter() - began
        full, section = digests(request, result)
        outcome.full.setdefault(op.key, set()).add(full)
        outcome.result.setdefault(op.key, set()).add(section)
        del result


def measure_batch(state, seconds: float, quick: bool, recorder=None) -> Outcome:
    # The runner holds every input database and index of the workload at
    # once.  Freezing them out of the cyclic collector keeps the gen-2
    # collections inside an op as cheap as in a process that mines one
    # database, and the same from pass to pass.
    gc.collect()
    gc.freeze()
    outcome = Outcome()
    started = time.perf_counter()
    pass_index = 0
    while True:
        run_pass(state, outcome, pass_index, recorder)
        pass_index += 1
        if quick or time.perf_counter() - started >= seconds:
            break
    outcome.elapsed = time.perf_counter() - started
    return outcome


def setup_batch(workload, seed: int, work: Path):
    """Inputs plus one untimed warm-up pass; returns (state, warm-up outcome)."""
    state = workload.setup(seed, work)
    warm = Outcome()
    run_pass(state, warm, -1)
    return state, warm


def verify_batch(workload, state, outcome: Outcome, warm: Outcome,
                 expected: Dict[str, str]) -> None:
    for key, seen in warm.full.items():
        outcome.full.setdefault(key, set()).update(seen)
    for key, seen in warm.result.items():
        outcome.result.setdefault(key, set()).update(seen)
    for op_id, why in warm.errors.items():
        outcome.fail_key(warm.keys[op_id], f"warm-up: {why}")
    outcome.check_digests(expected)
    for key in workload.cross_check(state, outcome.result):
        outcome.fail_key(key, "cross-path check failed")


def batch_e2e(workload, seed: int, seconds: float, quick: bool, work: Path,
              expected: Dict[str, str], setups: int) -> Tuple[Dict[str, float], Outcome]:
    setup_times = []
    state = warm = None
    for _ in range(setups):
        state = warm = None
        gc.collect()
        began = time.perf_counter()
        state, warm = setup_batch(workload, seed, work)
        setup_times.append(time.perf_counter() - began)
    outcome = measure_batch(state, seconds, quick)
    metrics = {"setup_s": statistics.median(setup_times), **outcome.latency_metrics()}
    metrics["peak_rss_mib"] = peak_rss_mib()
    verify_batch(workload, state, outcome, warm, expected)
    return metrics, outcome


def batch_traced(workload, seed: int, seconds: float, quick: bool, work: Path,
                 expected: Dict[str, str]):
    import spans

    recorder = spans.Recorder().install()
    try:
        with recorder.op(spans.SETUP_OP):
            state, warm = setup_batch(workload, seed, work)
        outcome = measure_batch(state, seconds, quick, recorder)
    finally:
        recorder.uninstall()
    recorder.write_jsonl(str(TRACE_DIR / f"{workload.name}.jsonl"))
    verify_batch(workload, state, outcome, warm, expected)
    extra = dict(state.extra)
    if workload.speedup is not None:
        extra["executor.speedup"] = _median_ratio(outcome, *workload.speedup)
    ok_walls = {op: s for op, s in outcome.walls.items() if op not in outcome.errors}
    layers = spans.layer_metrics(recorder.spans, recorder.calls, ok_walls, extra)
    return layers, outcome, recorder.absent


def _median_ratio(outcome: Outcome, numerator: str, denominator: str) -> float:
    def median_of(key: str) -> float:
        return statistics.median(
            s for op, s in outcome.walls.items() if outcome.keys[op] == key
        )

    return median_of(numerator) / median_of(denominator)


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------
def service_measure(workload, state, seed: int, seconds: float, quick: bool) -> Outcome:
    jobs, elapsed = workload.measure(state, seed, seconds, QUICK_JOBS if quick else None)
    outcome = Outcome()
    outcome.elapsed = elapsed
    for number, job in enumerate(jobs):
        op_id = job.job_id or f"unsubmitted-{number}"
        outcome.keys[op_id] = job.key
        if job.error:
            outcome.errors[op_id] = job.error
            continue
        outcome.walls[op_id] = job.seconds
        outcome.full.setdefault(job.key, set()).add(job.digest)
    return outcome


def service_verify(workload, state, outcome: Outcome, expected: Dict[str, str]) -> None:
    outcome.check_digests(expected)
    for key, digest in workload.reference_digests(state.tve, outcome.full).items():
        if outcome.full[key] != {digest}:
            outcome.fail_key(key, "service envelope != in-process execute_request")


def service_e2e(workload, seed: int, seconds: float, quick: bool, work: Path,
                expected: Dict[str, str], setups: int) -> Tuple[Dict[str, float], Outcome]:
    setup_times = []
    state = None
    try:
        for _ in range(setups):
            if state is not None:
                state.stop()
                state = None
            began = time.perf_counter()
            state = workload.setup(seed, work)
            setup_times.append(time.perf_counter() - began)
        outcome = service_measure(workload, state, seed, seconds, quick)
    finally:
        if state is not None:
            state.stop()
    metrics = {"setup_s": statistics.median(setup_times)}
    metrics.update(outcome.latency_metrics(throughput=_throughput(outcome)))
    metrics["peak_rss_mib"] = peak_rss_mib()
    service_verify(workload, state, outcome, expected)
    return metrics, outcome


def service_traced(workload, seed: int, seconds: float, quick: bool, work: Path,
                   expected: Dict[str, str]):
    import spans

    spans_path = TRACE_DIR / f"{workload.name}-server.jsonl"
    state = workload.setup(seed, work, spans_path=spans_path)
    try:
        outcome = service_measure(workload, state, seed, seconds, quick)
        hit_ratio = workload.cache_hit_ratio(state)
    finally:
        state.stop()
    service_verify(workload, state, outcome, expected)
    recorded, calls, absent = spans.read_jsonl(str(spans_path))
    ok_walls = {op: s for op, s in outcome.walls.items() if op not in outcome.errors}
    layers = spans.layer_metrics(recorded, calls, ok_walls, {"cache.hit_ratio": hit_ratio})
    return layers, outcome, absent


def _throughput(outcome: Outcome) -> float:
    done = sum(1 for op in outcome.walls if op not in outcome.errors)
    return done / outcome.elapsed if outcome.elapsed else 0.0


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def run_workload(name: str, args: argparse.Namespace) -> int:
    import workloads

    workload = workloads.make(name)
    expected = _expected(args.expected, args.seed, name)
    work = ROOT / ".e2e_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    is_service = name == workloads.SERVICE_NAME
    e2e = service_e2e if is_service else batch_e2e
    try:
        if not args.trace:
            setups = 1 if args.quick else SETUP_REPEATS
            metrics, outcome = e2e(
                workload, args.seed, args.seconds, args.quick, work, expected, setups
            )
            outcomes = [outcome]
            report = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
        else:
            import spans

            TRACE_DIR.mkdir(parents=True, exist_ok=True)
            half = args.seconds / 2.0
            base, untraced = e2e(workload, args.seed, half, args.quick, work, expected, 1)
            traced = service_traced if is_service else batch_traced
            layers, outcome, absent = traced(
                workload, args.seed, half, args.quick, work, expected
            )
            outcomes = [untraced, outcome]
            traced_ops = (
                _throughput(outcome) if is_service
                else outcome.latency_metrics()["ops_per_s"]
            )
            if base["ops_per_s"]:
                layers["trace.overhead"] = 1.0 - traced_ops / base["ops_per_s"]
            for seam in absent:
                print(f"# trace: seam absent: {seam}")
            for key, value in base.items():
                print(f"{name:<18} {key:<26} {value:>14.6f} {E2E_UNITS[key]}")
            report = {k: (v, spans.LAYER_METRICS[k]) for k, v in layers.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(len(o.errors) for o in outcomes)
    for outcome in outcomes:
        for op_id, why in sorted(outcome.errors.items()):
            print(f"# FAILED {name} {op_id}: {why}")
    print(f"{name:<18} {'error_rate':<26} {failed / max(attempted, 1):>14.6f} fraction")
    print(f"{name:<18} {'timed_ops':<26} {attempted:>14d} count")
    for key, (value, unit) in report.items():
        print(f"{name:<18} {key:<26} {value:>14.6f} {unit}")
    every = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}
    judged = JUDGED_LAYERS if args.trace else E2E_UNITS
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: metric for k, metric in every.items() if k in judged},
    }
    if args.out:
        _save_record(Path(args.out), name, args, {**summary, "metrics": every})
    print(json.dumps(summary, sort_keys=True))
    return 0 if failed == 0 else 1


def record_expected(path: Path, seed: int) -> int:
    """Write every op's canonical digest at ``seed`` into ``path``."""
    import workloads

    work = ROOT / ".e2e_work" / f"expected-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        entry = {name: workloads.make(name).expected(seed, work) for name in workloads.NAMES}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    data = json.loads(path.read_text()) if path.exists() else {}
    data[str(seed)] = entry
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"# {sum(map(len, entry.values()))} digests for seed {seed} written to {path}")
    return 0


def _expected(path: str, seed: int, name: str) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream).get(str(seed), {}).get(name, {})


def _save_record(out: Path, name: str, args: argparse.Namespace, summary: Dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {"workload": name, "seed": args.seed, "kind": kind,
              "seconds": args.seconds, "quick": args.quick, **summary}
    target = out / f"{name}-{kind}-seed{args.seed}-{stamp}-{os.getpid()}.json"
    target.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Every workload, each in a fresh process
# ----------------------------------------------------------------------
def run_all(argv: List[str], names: List[str]) -> int:
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, *argv],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = child.stdout.rstrip("\n").split("\n")
        for line in lines[:-1]:
            print(line)
        try:
            summary = json.loads(lines[-1])
        except ValueError:
            print(f"# {name}: no result (exit {child.returncode})")
            combined["correct"] = False
            status = child.returncode or 1
            continue
        combined["correct"] = combined["correct"] and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        combined["metrics"][name] = summary["metrics"]
        status = status or child.returncode
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced, write spans to .e2e_work/trace/ "
                        "and report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help=f"one set-up and one pass ({QUICK_JOBS} service jobs)")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="committed digests per seed")
    parser.add_argument("--out", help="also write a JSON record per run here, with every "
                        "printed metric (compare.py input)")
    parser.add_argument("--record-expected", action="store_true",
                        help="run every op once and store its digests for --seed in --expected")
    args = parser.parse_args(argv)
    _import_repro()
    import workloads

    if args.record_expected:
        return record_expected(Path(args.expected), args.seed)
    if args.workload is None:
        return run_all(argv, list(workloads.NAMES))
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    return run_workload(args.workload, args)


if __name__ == "__main__":
    sys.exit(main())
