"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py A/ B/ [--claim METRIC[@WORKLOAD] ...]

``A/`` (the parent) and ``B/`` (the change) hold the JSON records that
``run.py --out DIR`` writes, one per run.  For every (metric, workload)
row the report gives each side's median and quartiles, the change of
the medians, and a verdict against the bound stored in BENCHMARK.json:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``REGRESSION`` — it is worse by more than the bound;
* ``unresolved`` — A's own spread (quartile distance over median) is
  wider than the bound, unless every run of B beats every run of A;
* ``-`` — a per-layer metric, which has no bound.

``wins`` is the share of (A, B) pairs B wins, runs paired in seed order
with ties counting for neither.  A claimed metric is a gain only when B
wins at least 9 of 10 pairs and the medians differ by more than A's own
quartile distance.  The exit code is 1 when any row is a regression,
and 2 when the records cannot be paired: a ``--quick`` record, or runs
of different lengths (``--seconds``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
GAIN_WINS = 0.9


def load_runs(directory: Path) -> Tuple[Dict[Tuple[str, str], List[Tuple[int, float]]], set]:
    """(workload, metric) -> [(seed, value)] in seed order, and the set
    of run lengths (measured seconds) the records were made with.

    A ``--quick`` record is refused: it is one pass, not a measurement.
    """
    rows: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    lengths = set()
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("quick", True):
            print(f"compare.py: {path} is a --quick run (or has no run length)",
                  file=sys.stderr)
            raise SystemExit(2)
        lengths.add(record["seconds"])
        for metric, entry in record["metrics"].items():
            rows.setdefault((record["workload"], metric), []).append(
                (record["seed"], entry["value"])
            )
    for values in rows.values():
        values.sort(key=lambda pair: pair[0])
    return rows, lengths


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def compare(parent: Dict, change: Dict, claims: List[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    header = (
        f"{'workload':<18} {'metric':<26} {'A q1/med/q3':>32} {'B q1/med/q3':>32} "
        f"{'change':>8} {'wins':>5}  verdict"
    )
    print(header)
    regressions = 0
    for workload, name in sorted(set(parent) & set(change)):
        spec = metrics.get(name)
        if spec is None:
            continue
        a = [value for _, value in parent[(workload, name)]]
        b = [value for _, value in change[(workload, name)]]
        a_low, a_med, a_high = quartiles(a)
        b_low, b_med, b_high = quartiles(b)
        sign = 1.0 if spec["better"] == "lower" else -1.0
        change_share = (b_med - a_med) / a_med if a_med else 0.0
        worse = sign * change_share
        pairs = list(zip(a, b))
        wins = sum(1 for x, y in pairs if sign * (x - y) > 0) / len(pairs)
        bound = spec.get("bound")
        if bound is None:
            verdict = "-"
        elif a_med and (a_high - a_low) / a_med > bound and not _dominates(a, b, sign):
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
            regressions += 1
        else:
            verdict = "ok"
        if _claimed(claims, name, workload):
            gain = wins >= GAIN_WINS and sign * (a_med - b_med) > a_high - a_low
            verdict += "; claim holds" if gain else "; claim NOT met"
        print(
            f"{workload:<18} {name:<26} "
            f"{a_low:>10.4g}/{a_med:>10.4g}/{a_high:>10.4g} "
            f"{b_low:>10.4g}/{b_med:>10.4g}/{b_high:>10.4g} "
            f"{change_share:>+8.1%} {wins:>5.0%}  {verdict}"
        )
    return 1 if regressions else 0


def _dominates(parent: List[float], change: List[float], sign: float) -> bool:
    """Every change run reads better than every parent run."""
    if sign > 0:
        return max(change) < min(parent)
    return min(change) > max(parent)


def _claimed(claims: List[str], name: str, workload: str) -> bool:
    return any(claim in (name, f"{name}@{workload}") for claim in claims)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of run.py --out records")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", action="append", default=[],
                        help="METRIC or METRIC@WORKLOAD the change claims to improve")
    args = parser.parse_args(argv)
    parent, parent_lengths = load_runs(args.parent)
    change, change_lengths = load_runs(args.change)
    if len(parent_lengths | change_lengths) > 1:
        print(f"compare.py: runs of different lengths ({sorted(parent_lengths)} s vs "
              f"{sorted(change_lengths)} s) are not comparable", file=sys.stderr)
        return 2
    return compare(parent, change, args.claim)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
