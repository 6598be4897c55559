"""CLAN: mining frequent closed cliques from large dense graph databases.

A from-scratch reproduction of Wang, Zeng & Zhou, ICDE 2006.  The
top-level package re-exports the everyday API; see the subpackages for
the full surface:

* :mod:`repro.core` — the CLAN miner, canonical forms, results.
* :mod:`repro.graphdb` — graph transactions, databases, clique tools.
* :mod:`repro.baselines` — brute force, gSpan-style complete miner.
* :mod:`repro.stockmarket` — the Section 5.1 market-graph pipeline.
* :mod:`repro.chem` — the CA-like chemical database generator.
* :mod:`repro.io` — text / matrix / JSON formats.
* :mod:`repro.bench` — benchmark harness and experiment registry.

Quickstart::

    from repro import mine, paper_example_database
    result = mine(paper_example_database(), min_sup=2)
    print([p.key() for p in result])          # ['abcd:2', 'bde:2']

``repro.mine`` is the unified entry point — ``task=`` selects closed /
frequent / maximal / top-k / quasi mining, and budgets, event sinks,
checkpoints, and ``stream=True`` sessions hang off the same call (see
:mod:`repro.core.session`).  The older per-task functions remain
supported as thin wrappers.
"""

from .core import (
    CanonicalForm,
    ClanMiner,
    CliqueLattice,
    CliquePattern,
    MinerConfig,
    MiningBudget,
    MiningCache,
    MiningExecutor,
    MiningRequest,
    MiningResult,
    MiningResultEnvelope,
    MiningSession,
    mine,
    mine_closed_cliques,
    mine_frequent_cliques,
    mine_sharded,
    parse_support,
    sweep,
)
from .exceptions import ReproError
from .graphdb import Graph, GraphDatabase, paper_example_database

__version__ = "1.4.0"

__all__ = [
    "CanonicalForm",
    "ClanMiner",
    "CliqueLattice",
    "CliquePattern",
    "Graph",
    "GraphDatabase",
    "MinerConfig",
    "MiningBudget",
    "MiningCache",
    "MiningExecutor",
    "MiningRequest",
    "MiningResult",
    "MiningResultEnvelope",
    "MiningSession",
    "ReproError",
    "__version__",
    "mine",
    "mine_closed_cliques",
    "mine_frequent_cliques",
    "mine_sharded",
    "paper_example_database",
    "parse_support",
    "sweep",
]
