"""Partition-parallel mining over transaction-range shards.

Out-of-core counterpart of the serial engine: the database is split
into contiguous transaction ranges, each shard is mined independently
for *candidate* forms at a shard-local threshold, and a counting pass
over the full database then assigns every candidate its exact global
support, transactions, and witnesses before the task's merge rule
decides what is reported.  The counting pass is root-major, not one
streaming scan: it builds one embedding-store chain per candidate
root, and each chain reads every transaction holding that root's label,
so a store larger than its decode cache is decoded about once per
candidate root.  The result is
byte-identical to the serial engine's patterns (see
``tests/test_sharded.py`` and the exactness note in
``docs/ALGORITHM.md``) while no stage ever needs more than one shard
of transactions resident — which is what makes mining directly from a
:class:`~repro.graphdb.storage.SqliteGraphSource` practical.

The exactness argument is the Savasere–Omiecinski–Navathe partition
argument specialised to label-multiset clique patterns:

* *Candidate recall.*  Shard ``i`` holding ``n_i`` of the ``N``
  transactions is mined at the local threshold ``s_i = max(1,
  (S * n_i) // N)`` where ``S`` is the absolute global threshold.  If a
  form had local support below ``s_i`` in *every* shard, its global
  support would be at most ``Σ_i (s_i - 1) < S`` (pigeonhole over the
  floor division), so every globally frequent form is locally frequent
  somewhere and therefore appears in the candidate union.
* *Exact merge.*  Clique supports are determined by the canonical
  label multiset alone, so the counting pass recovers the exact global
  support of each candidate; closure ("no equal-support superset") and
  maximality ("no frequent superset") are then decided on the merged
  counts, one superset level up — the same level the serial engine's
  extension plan consults.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import MiningError
from ..graphdb.database import GraphDatabase
from ..graphdb.graph import Label
from .api import MiningRequest
from .config import MinerConfig
from .embeddings import EmbeddingStore
from .engine import MiningEngine, engine_for_task, finalize_patterns
from .pattern import CliquePattern, make_pattern
from .quasiclique import QuasiEmbeddingStore, QuasiTaskStrategy
from .results import MiningResult
from .statistics import MinerStatistics
from .support import parse_support

#: Default transactions per shard when the caller names neither a shard
#: count nor a shard size.
DEFAULT_SHARD_SIZE = 1024

Form = Tuple[Label, ...]
_Counted = Tuple[int, Tuple[int, ...], Dict[int, Tuple[int, ...]]]


# ----------------------------------------------------------------------
# Shard geometry
# ----------------------------------------------------------------------
def shard_bounds(
    n_transactions: int,
    *,
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Split ``[0, n_transactions)`` into contiguous ``(lo, hi)`` ranges.

    Exactly one of ``shards`` (a target shard count) and ``shard_size``
    (a target transactions-per-shard) may be given; neither defaults to
    :data:`DEFAULT_SHARD_SIZE`-sized shards.  Every returned range is
    non-empty and the ranges concatenate to the full id space, so
    shard-local transaction ids are global ids minus ``lo``.
    """
    if shards is not None and shard_size is not None:
        raise MiningError("give either shards or shard_size, not both")
    if n_transactions < 0:
        raise MiningError(f"negative transaction count {n_transactions}")
    if not n_transactions:
        return []
    if shards is None:
        size = DEFAULT_SHARD_SIZE if shard_size is None else shard_size
        if size < 1:
            raise MiningError(f"shard_size must be >= 1, got {size}")
        return [
            (lo, min(lo + size, n_transactions))
            for lo in range(0, n_transactions, size)
        ]
    if shards < 1:
        raise MiningError(f"shards must be >= 1, got {shards}")
    shards = min(shards, n_transactions)
    base, extra = divmod(n_transactions, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def shard_database(
    database: GraphDatabase,
    *,
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
) -> Iterator[Tuple[int, int, GraphDatabase]]:
    """Yield ``(lo, hi, shard)`` views over contiguous transaction ranges.

    Each shard is a :class:`GraphDatabase` sharing the parent's
    :class:`Graph` objects (in-memory parent) or decoding just its own
    range (out-of-core parent) — consume shards one at a time to keep
    at most one range resident.
    """
    for lo, hi in shard_bounds(len(database), shards=shards, shard_size=shard_size):
        yield lo, hi, database.subset(
            range(lo, hi), name=f"{database.name}[{lo}:{hi}]"
        )


def local_threshold(global_sup: int, shard_size: int, n_transactions: int) -> int:
    """The shard-local candidate threshold ``max(1, (S * n_i) // N)``.

    The floor keeps the pigeonhole recall bound (see the module
    docstring) while never demanding more support than the global
    threshold scaled to the shard's share of the database.
    """
    if not 1 <= global_sup <= n_transactions:
        raise MiningError(
            f"global support {global_sup} out of range for {n_transactions} "
            f"transactions"
        )
    return max(1, (global_sup * shard_size) // n_transactions)


# ----------------------------------------------------------------------
# Phase A: per-shard candidate forms
# ----------------------------------------------------------------------
def _candidate_config(resolved: MinerConfig, task: str) -> MinerConfig:
    """The all-frequent config shard candidate mining runs under.

    Closed-style pruning must be off — a shard-locally non-closed form
    can be globally closed — and the size ceiling is raised one level
    for the tasks whose merge consults size+1 supersets: the serial
    engine decides closure (equal-support tie) and maximality (any
    frequent extension) at size ``max_size`` by looking at extensions
    of size ``max_size + 1``, so the merge needs those supports too.
    """
    if task in ("closed", "maximal", "topk"):
        cand_max = None if resolved.max_size is None else resolved.max_size + 1
    else:
        cand_max = resolved.max_size
    return MinerConfig.all_frequent(
        min_size=resolved.min_size,
        max_size=cand_max,
        kernel=resolved.kernel,
        collect_witnesses=False,
        low_degree_pruning=resolved.low_degree_pruning,
        embedding_strategy=resolved.embedding_strategy,
        max_embeddings=resolved.max_embeddings,
    )


def _shard_candidates(
    database: GraphDatabase,
    lo: int,
    hi: int,
    local_sup: int,
    task: str,
    config: MinerConfig,
    gamma: Optional[float],
) -> Tuple[Tuple[Form, ...], MinerStatistics]:
    """Mine one shard's candidate forms (module-level: pool-picklable)."""
    shard = database.subset(range(lo, hi), name=f"{database.name}[{lo}:{hi}]")
    if task == "quasi":
        engine = MiningEngine(
            shard, config, strategy=QuasiTaskStrategy(gamma, closed=False)
        )
    else:
        engine = engine_for_task(shard, config, "frequent")
    result = engine.mine(local_sup)
    return tuple(pattern.form.labels for pattern in result), result.statistics


def _collect_candidates(
    database: GraphDatabase,
    bounds: Sequence[Tuple[int, int]],
    global_sup: int,
    task: str,
    config: MinerConfig,
    gamma: Optional[float],
    processes: int,
) -> Tuple[set, MinerStatistics]:
    n_transactions = len(database)
    jobs = [
        (lo, hi, local_threshold(global_sup, hi - lo, n_transactions))
        for lo, hi in bounds
    ]
    stats = MinerStatistics()
    forms: set = set()
    if processes > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(processes, len(jobs))) as pool:
            futures = [
                pool.submit(
                    _shard_candidates, database, lo, hi, sup, task, config, gamma
                )
                for lo, hi, sup in jobs
            ]
            for future in futures:
                shard_forms, shard_stats = future.result()
                forms.update(shard_forms)
                stats.merge(shard_stats)
    else:
        for lo, hi, sup in jobs:
            shard_forms, shard_stats = _shard_candidates(
                database, lo, hi, sup, task, config, gamma
            )
            forms.update(shard_forms)
            stats.merge(shard_stats)
            # Decoded transactions and engine state form reference
            # cycles; waiting for the cyclic collector would let
            # several shards' worth pile up, defeating the bounded
            # residency this path exists for.
            gc.collect()
    return forms, stats


# ----------------------------------------------------------------------
# Phase B: exact global counts via canonical store chains
# ----------------------------------------------------------------------
def _form_trie(forms: set) -> Dict:
    trie: Dict = {}
    for labels in forms:
        node = trie
        for label in labels:
            node = node.setdefault(label, {})
    return trie


def _count_candidates(
    database: GraphDatabase,
    forms: set,
    resolved: MinerConfig,
    task: str,
    gamma: Optional[float],
    report_max: Optional[int],
) -> Dict[Form, _Counted]:
    """Exact global (support, transactions, witnesses) per candidate.

    Candidates are organised into a prefix trie and counted by chaining
    embedding stores along canonical prefixes — each shared prefix's
    store is built exactly once, and each store is the one the serial
    engine would hold at the same prefix, so supports, transactions,
    and witness tuples are byte-identical to a serial mine.  Witnesses
    are only materialised for forms inside the reporting window
    (helper candidates one level above ``max_size`` never need them).
    """
    counted: Dict[Form, _Counted] = {}
    if not forms:
        return counted
    trie = _form_trie(forms)
    collect = resolved.collect_witnesses

    def record(labels: Form, store) -> None:
        if task == "quasi":
            tids = store.quasi_transactions()
            support = len(tids)
            witnesses = store.quasi_witnesses() if collect and support else {}
        else:
            support = store.support
            tids = store.transactions()
            witnesses = {}
            if collect and support and (report_max is None or len(labels) <= report_max):
                witnesses = store.witnesses()
        counted[labels] = (support, tids, witnesses)

    def descend(labels: Form, store, node: Dict) -> None:
        if labels in forms:
            record(labels, store)
        last = labels[-1]
        for label in sorted(node):
            child = store.extend(label, last)
            # Feasible-embedding emptiness is inherited by every
            # extension, so the subtree below an empty store counts 0.
            if child.embedding_count:
                descend(labels + (label,), child, node[label])

    context: Dict = {}
    for root in sorted(trie):
        if task == "quasi":
            store = QuasiEmbeddingStore.for_label(
                database,
                root,
                kernel=resolved.kernel,
                gamma=gamma,
                min_size=resolved.min_size,
                max_size=resolved.max_size,
            )
        else:
            store = EmbeddingStore.for_label(
                database,
                None,
                root,
                resolved.embedding_strategy,
                resolved.kernel,
                context,
            )
        if store.embedding_count or (root,) in forms:
            descend((root,), store, trie[root])
    return counted


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _merge_candidates(
    counted: Dict[Form, _Counted],
    global_sup: int,
    resolved: MinerConfig,
    task: str,
    k: Optional[int],
) -> List[CliquePattern]:
    frequent = {
        form: data for form, data in counted.items() if data[0] >= global_sup
    }
    # One superset level up suffices (module docstring): mark each
    # frequent form that has a frequent size+1 superset, and whether
    # some such superset ties its support.
    has_frequent_superset: set = set()
    has_equal_superset: set = set()
    if task in ("closed", "maximal", "topk"):
        for sup_form, (sup_support, _, _) in frequent.items():
            if len(sup_form) < 2:
                continue
            for index in range(len(sup_form)):
                if index and sup_form[index] == sup_form[index - 1]:
                    continue  # removing either copy gives the same sub-multiset
                sub = sup_form[:index] + sup_form[index + 1:]
                data = frequent.get(sub)
                if data is None:
                    continue
                has_frequent_superset.add(sub)
                if data[0] == sup_support:
                    has_equal_superset.add(sub)

    def in_window(form: Form) -> bool:
        if len(form) < resolved.min_size:
            return False
        return resolved.max_size is None or len(form) <= resolved.max_size

    if task == "frequent" or task == "quasi":
        kept = [form for form in frequent if in_window(form)]
    elif task == "maximal":
        kept = [
            form
            for form in frequent
            if in_window(form) and form not in has_frequent_superset
        ]
    else:  # closed, topk
        kept = [
            form
            for form in frequent
            if in_window(form) and form not in has_equal_superset
        ]
    patterns = [
        make_pattern(form, frequent[form][0], frequent[form][1], frequent[form][2])
        for form in kept
    ]
    return finalize_patterns(task, patterns, k=k)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def mine_sharded(
    database: GraphDatabase,
    request: MiningRequest,
    *,
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
) -> MiningResult:
    """Mine a request shard-by-shard; exact for every engine task.

    Produces the same patterns (supports, transactions, witnesses —
    byte-identical after envelope serialisation) as
    :func:`repro.core.api.execute_request` on the same request, while
    holding at most one shard of transactions plus the candidate
    embeddings resident.  Statistics are honest *aggregates* of the
    per-shard candidate mines, not a replay of the serial counters.

    ``request.processes > 1`` mines shard candidates on a process
    pool.  The counting pass runs in the calling process either way,
    and builds one store chain per candidate root, so it reads the
    database once per root rather than in a single scan.
    """
    if request.budget is not None or request.sample_every:
        raise MiningError(
            "sharded mining does not support budgets or sampling; "
            "use execute_request for session features"
        )
    started = time.perf_counter()
    resolved = request.resolved_config()
    task = request.task
    global_sup = database.absolute_support(parse_support(request.min_sup))
    bounds = shard_bounds(len(database), shards=shards, shard_size=shard_size)
    forms, stats = _collect_candidates(
        database,
        bounds,
        global_sup,
        task,
        _candidate_config(resolved, task),
        request.gamma,
        request.processes,
    )
    counted = _count_candidates(
        database, forms, resolved, task, request.gamma, resolved.max_size
    )
    patterns = _merge_candidates(counted, global_sup, resolved, task, request.k)
    result = MiningResult(
        min_sup=global_sup,
        closed_only=resolved.closed_only,
        statistics=stats,
        elapsed_seconds=time.perf_counter() - started,
    )
    for pattern in patterns:
        result.add(pattern)
    return result
