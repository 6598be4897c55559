"""CLAN core: canonical forms, the miner, closure machinery, results.

The public surface of the paper's contribution.  Typical use::

    from repro.core import mine_closed_cliques
    result = mine_closed_cliques(database, min_sup=0.85, min_size=3)
    for pattern in result.maximum_patterns():
        print(pattern.key())
"""

from .api import (
    MINING_TASKS,
    MiningRequest,
    MiningResultEnvelope,
    execute_request,
    mine,
)
from .cache import CachedRoot, MiningCache, mine_with_cache, sweep
from .canonical import (
    CanonicalForm,
    Label,
    canonical_label_sequence,
    is_canonical_sequence,
    is_submultiset,
)
from .closure import (
    HistoryClosureIndex,
    blocking_extension_labels,
    is_closed,
    split_extension_labels,
)
from .config import SET, MinerConfig
from .constraints import (
    CliqueConstraints,
    ConstrainedMiner,
    mine_with_constraints,
    project_database,
)
from .embeddings import (
    BITSET,
    CACHED,
    RESCAN,
    SLAB,
    EmbeddingStore,
    warm_kernel_indexes,
)
from .engine import (
    ENGINE_TASKS,
    MiningEngine,
    TaskStrategy,
    engine_for_task,
    finalize_patterns,
    make_strategy,
)
from .executor import (
    STATIC,
    STEALING,
    ExecutorReport,
    MiningExecutor,
    MiningTask,
    estimate_root_costs,
    mine_closed_cliques_parallel,
    partition_roots,
)
from .incremental import IncrementalMiner
from .lattice import CliqueLattice
from .maximal import maximal_subset, mine_maximal_cliques
from .miner import ClanMiner, mine_closed_cliques, mine_frequent_cliques
from .occurrences import (
    embedding_store_for,
    embeddings_in_graph,
    iter_embeddings,
    occurrence_counts,
    occurrence_report,
    total_occurrences,
    transaction_support,
)
from .pattern import CliquePattern, make_pattern
from .topk import mine_top_k_closed_cliques
from .quasiclique import (
    QuasiEmbeddingStore,
    QuasiTaskStrategy,
    is_quasi_clique,
    quasi_cliques_in_graph,
    required_degree,
)
from .results import MiningResult
from .sharding import (
    DEFAULT_SHARD_SIZE,
    local_threshold,
    mine_sharded,
    shard_bounds,
    shard_database,
)
from .session import (
    CallbackSink,
    CancellationToken,
    EventSink,
    JsonlTraceSink,
    MiningBudget,
    MiningCheckpoint,
    MiningEvent,
    MiningSession,
    PatternEmitted,
    PrefixVisited,
    ProgressSink,
    RingBufferSink,
    RootFinished,
    RootStarted,
    SearchFinished,
    SearchHooks,
    SearchStarted,
    SubtreePruned,
    event_from_dict,
    event_to_dict,
    iter_session_events,
)
from .statistics import MinerStatistics
from .support import parse_support

__all__ = [
    "BITSET",
    "CACHED",
    "CallbackSink",
    "CancellationToken",
    "EventSink",
    "JsonlTraceSink",
    "MINING_TASKS",
    "MiningBudget",
    "MiningCheckpoint",
    "MiningEvent",
    "MiningSession",
    "PatternEmitted",
    "PrefixVisited",
    "ProgressSink",
    "QuasiEmbeddingStore",
    "QuasiTaskStrategy",
    "RingBufferSink",
    "RootFinished",
    "RootStarted",
    "SET",
    "SLAB",
    "STATIC",
    "STEALING",
    "SearchFinished",
    "SearchHooks",
    "SearchStarted",
    "SubtreePruned",
    "CachedRoot",
    "CanonicalForm",
    "ClanMiner",
    "ENGINE_TASKS",
    "MiningEngine",
    "TaskStrategy",
    "engine_for_task",
    "finalize_patterns",
    "make_strategy",
    "CliqueConstraints",
    "CliqueLattice",
    "CliquePattern",
    "ConstrainedMiner",
    "EmbeddingStore",
    "ExecutorReport",
    "HistoryClosureIndex",
    "IncrementalMiner",
    "Label",
    "MinerConfig",
    "MinerStatistics",
    "MiningCache",
    "MiningExecutor",
    "MiningRequest",
    "MiningResult",
    "MiningResultEnvelope",
    "MiningTask",
    "execute_request",
    "RESCAN",
    "blocking_extension_labels",
    "canonical_label_sequence",
    "embedding_store_for",
    "estimate_root_costs",
    "embeddings_in_graph",
    "is_canonical_sequence",
    "is_closed",
    "is_quasi_clique",
    "is_submultiset",
    "iter_embeddings",
    "iter_session_events",
    "event_from_dict",
    "event_to_dict",
    "make_pattern",
    "mine",
    "parse_support",
    "maximal_subset",
    "mine_closed_cliques",
    "mine_maximal_cliques",
    "mine_closed_cliques_parallel",
    "mine_frequent_cliques",
    "partition_roots",
    "mine_top_k_closed_cliques",
    "mine_with_cache",
    "mine_with_constraints",
    "DEFAULT_SHARD_SIZE",
    "local_threshold",
    "mine_sharded",
    "shard_bounds",
    "shard_database",
    "sweep",
    "occurrence_counts",
    "occurrence_report",
    "project_database",
    "quasi_cliques_in_graph",
    "required_degree",
    "split_extension_labels",
    "total_occurrences",
    "transaction_support",
    "warm_kernel_indexes",
]
