"""Partition-parallel mining over transaction-range shards.

Out-of-core counterpart of the serial engine: the database is split
into contiguous transaction ranges and read in two shard-major passes,
each of which decodes every transaction once.  The *candidate* pass
mines each shard independently for candidate forms at a shard-local
threshold.  The *counting* pass walks the candidate trie over each
shard again and sums the per-shard supports, transactions, and
witnesses into exact global ones before the task's merge rule decides
what is reported.  Both passes run on a process pool when
``processes > 1``.  The result is byte-identical to the serial
engine's patterns (see ``tests/test_sharded.py`` and the exactness
note in ``docs/ALGORITHM.md``) while no stage ever needs more than one
shard of transactions resident — which is what makes mining directly
from a :class:`~repro.graphdb.storage.SqliteGraphSource` practical.
Databases the slab index can hold whole skip both passes and mine on
the serial engine (:func:`mine_sharded`).

The exactness argument is the Savasere–Omiecinski–Navathe partition
argument specialised to label-multiset clique patterns:

* *Candidate recall.*  Shard ``i`` holding ``n_i`` of the ``N``
  transactions is mined at the local threshold ``s_i = max(1,
  (S * n_i) // N)`` where ``S`` is the absolute global threshold.  If a
  form had local support below ``s_i`` in *every* shard, its global
  support would be at most ``Σ_i (s_i - 1) < S`` (pigeonhole over the
  floor division), so every globally frequent form is locally frequent
  somewhere and therefore appears in the candidate union.
* *Exact counts.*  Support, transaction membership, witnesses, and
  quasi feasibility are per-transaction predicates of the canonical
  label multiset, so they add up over any partition: summing the
  per-shard counts recovers the exact global ones.
* *Exact merge.*  With exact global supports in hand, closure ("no
  equal-support superset") and maximality ("no frequent superset") are
  decided on the merged counts, one superset level up — the same level
  the serial engine's extension plan consults.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import MiningError
from ..graphdb.database import GraphDatabase
from ..graphdb.graph import Label
from .api import MiningRequest, execute_request
from .config import MinerConfig
from .embeddings import CACHED, SLAB, EmbeddingStore
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
        yield lo, hi, _shard(database, lo, hi)


def _shard(database: GraphDatabase, lo: int, hi: int) -> GraphDatabase:
    return database.subset(range(lo, hi), name=f"{database.name}[{lo}:{hi}]")


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


def _map_shards(fn, jobs: Sequence[tuple], processes: int) -> Iterator:
    """``fn(*job)`` for every job, yielded in job order.

    Runs on a process pool when ``processes > 1`` and there is more
    than one job (``fn`` must be module-level to be picklable);
    otherwise serially, in the calling process.
    """
    if processes > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(processes, len(jobs))) as pool:
            futures = [pool.submit(fn, *job) for job in jobs]
            for future in futures:
                yield future.result()
        return
    for job in jobs:
        yield fn(*job)


def _shard_candidates(
    database: GraphDatabase,
    lo: int,
    hi: int,
    local_sup: int,
    task: str,
    config: MinerConfig,
    gamma: Optional[float],
) -> Tuple[Tuple[Form, ...], MinerStatistics]:
    """Mine one shard's candidate forms."""
    shard = _shard(database, lo, hi)
    if task == "quasi":
        engine = MiningEngine(
            shard, config, strategy=QuasiTaskStrategy(gamma, closed=False)
        )
    else:
        engine = engine_for_task(shard, config, "frequent")
    result = engine.mine(local_sup)
    del shard, engine
    # Engine state forms reference cycles; waiting for the cyclic
    # collector would let several shards' worth pile up (here or in a
    # pool worker), defeating the bounded residency this path exists
    # for.  The counting pass frees its shards by reference counting.
    gc.collect()
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
        (
            database,
            lo,
            hi,
            local_threshold(global_sup, hi - lo, n_transactions),
            task,
            config,
            gamma,
        )
        for lo, hi in bounds
    ]
    stats = MinerStatistics()
    forms: set = set()
    for shard_forms, shard_stats in _map_shards(_shard_candidates, jobs, processes):
        forms.update(shard_forms)
        stats.merge(shard_stats)
    return forms, stats


# ----------------------------------------------------------------------
# Phase B: exact global counts, summed over shards
# ----------------------------------------------------------------------
def _form_trie(forms: set) -> Dict:
    trie: Dict = {}
    for labels in forms:
        node = trie
        for label in labels:
            node = node.setdefault(label, {})
    return trie


def _descend(labels: Form, store, node: Dict, forms: set, record) -> None:
    """``record`` every candidate at or below ``labels`` in the trie.

    Module-level, not a closure: a recursive closure is a reference
    cycle, which would keep each shard's counts alive until the cyclic
    collector ran.
    """
    if labels in forms:
        record(labels, store)
    last = labels[-1]
    for label in sorted(node):
        child = store.extend(label, last)
        # Feasible-embedding emptiness is inherited by every extension,
        # so the subtree below an empty store counts 0.
        if child.embedding_count:
            _descend(labels + (label,), child, node[label], forms, record)


def _shard_counts(
    database: GraphDatabase,
    lo: int,
    hi: int,
    forms: set,
    resolved: MinerConfig,
    task: str,
    gamma: Optional[float],
) -> Dict[Form, _Counted]:
    """One shard's (support, transactions, witnesses) per candidate.

    Candidates are organised into a prefix trie and counted by chaining
    embedding stores along canonical prefixes over the in-memory shard
    — each shared prefix's store is built exactly once, and each store
    is the one the serial engine would hold at the same prefix, so
    supports, transactions, and witness tuples match a serial mine of
    the shard.  Transaction ids are returned global (offset by ``lo``).
    Witnesses are only materialised for forms inside the reporting
    window (helper candidates one level above ``max_size`` never need
    them).  Candidates whose prefix has no embedding in the shard are
    absent: they count 0 here.
    """
    shard = _shard(database, lo, hi)
    trie = _form_trie(forms)
    collect = resolved.collect_witnesses
    report_max = resolved.max_size
    # One int object per transaction, shared by every candidate's tuple
    # and witness dict (``lo + tid`` would allocate one per entry).
    global_ids = list(range(lo, hi))
    counted: Dict[Form, _Counted] = {}

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
        counted[labels] = (
            support,
            tuple([global_ids[tid] for tid in tids]),
            {global_ids[tid]: vertices for tid, vertices in witnesses.items()},
        )

    context: Dict = {}
    for root in sorted(trie):
        if task == "quasi":
            store = QuasiEmbeddingStore.for_label(
                shard,
                root,
                gamma=gamma,
                min_size=resolved.min_size,
                max_size=resolved.max_size,
            )
        else:
            store = EmbeddingStore.for_label(
                shard,
                None,
                root,
                resolved.embedding_strategy,
                context,
                slab=resolved.kernel == SLAB,
            )
        if store.embedding_count or (root,) in forms:
            _descend((root,), store, trie[root], forms, record)
    return counted


def _count_candidates(
    database: GraphDatabase,
    bounds: Sequence[Tuple[int, int]],
    forms: set,
    resolved: MinerConfig,
    task: str,
    gamma: Optional[float],
    processes: int,
) -> Dict[Form, _Counted]:
    """Exact global (support, transactions, witnesses) per candidate.

    Each shard is counted on its own (:func:`_shard_counts`) and the
    results are merged in shard order: supports are summed, transaction
    tuples concatenated, and witness dicts unioned.  All three are
    per-transaction predicates, so the sums are exact over any
    partition, and each transaction is decoded once.
    """
    counted: Dict[Form, _Counted] = {}
    if not forms:
        return counted
    jobs = [(database, lo, hi, forms, resolved, task, gamma) for lo, hi in bounds]
    for shard_counted in _map_shards(_shard_counts, jobs, processes):
        for labels, (support, tids, witnesses) in shard_counted.items():
            known = counted.get(labels)
            if known is None:
                counted[labels] = (support, tids, witnesses)
            else:
                known[2].update(witnesses)
                counted[labels] = (known[0] + support, known[1] + tids, known[2])
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
    :func:`repro.core.api.execute_request` on the same request.

    Where the serial engine would mine on the slab index — kernel
    ``slab``, ``cached`` embeddings, any task but ``quasi``, and a
    database whose :meth:`~GraphDatabase.slab_space` is not ``None`` —
    this *is* :func:`~repro.core.api.execute_request`: the slab holds
    an aligned database whole (an aligned SQLite store feeds it each
    row once, parsed without building a graph), so there is
    nothing to shard, and the result carries the serial engine's full
    statistics snapshot.

    Elsewhere two passes read the database shard by shard, each
    decoding every transaction once, while at most one shard of
    transactions plus the candidate embeddings is resident: the
    candidate pass mines each shard for candidate forms, and the
    counting pass counts every candidate in each shard and sums the
    per-shard counts.  Statistics are then honest *aggregates* of the
    per-shard candidate mines, not a replay of the serial counters.
    ``request.processes > 1`` runs both passes on a process pool.
    """
    if request.budget is not None or request.sample_every:
        raise MiningError(
            "sharded mining does not support budgets or sampling; "
            "use execute_request for session features"
        )
    resolved = request.resolved_config()
    task = request.task
    global_sup = database.absolute_support(parse_support(request.min_sup))
    bounds = shard_bounds(len(database), shards=shards, shard_size=shard_size)
    if (
        resolved.kernel == SLAB
        and resolved.embedding_strategy == CACHED
        and task != "quasi"
        and database.slab_space() is not None
    ):
        return execute_request(database, request)
    started = time.perf_counter()
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
        database, bounds, forms, resolved, task, request.gamma, request.processes
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
