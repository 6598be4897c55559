"""Top-k closed clique mining.

A common downstream ask (and the spirit of the paper's Figure 5, which
reports only the maximum clique): return the k *largest* frequent
closed cliques rather than all of them.  Rather than mining everything
and truncating, the search carries a branch-and-bound cut:

    a prefix clique C can only grow by vertices whose labels are
    frequent valid extensions, so

        size(C) + (# frequent valid extension labels, counted with
                   per-transaction multiplicity bounds)

    upper-bounds the size of any clique in C's subtree.  Subtrees whose
    bound cannot beat the current k-th best size are skipped.

The bound uses label multiplicities: an extension label β can
contribute at most ``min over supporting transactions of the largest
number of β-vertices simultaneously adjacent to one embedding`` — we
use the cheaper safe bound of the per-transaction candidate counts.

Results are identical to "mine everything, keep the k largest" (tested
by the property suite); the bound only prunes work.

Since the engine refactor this module is a thin wrapper: the search
itself is :class:`repro.core.engine.MiningEngine` running
:class:`repro.core.engine.TopKStrategy` (which hosts the heap and the
bound), so top-k mining inherits the bitset kernels, sessions, and the
cache's exact-replay tier through :func:`repro.mine`.  The bound's
bookkeeping is kept *per DFS root* and the global k best are selected
at merge time (:func:`repro.core.engine.finalize_patterns`), which is
what keeps serial and warm-cache runs byte-identical.
"""

from __future__ import annotations

from ..graphdb.database import GraphDatabase
from .engine import _TopKHeap  # noqa: F401 - soft-legacy re-export
from .results import MiningResult


def mine_top_k_closed_cliques(
    database: GraphDatabase,
    min_sup: float,
    k: int,
    min_size: int = 1,
) -> MiningResult:
    """Mine the k largest frequent closed cliques.

    Ties at the k-th size are broken deterministically by canonical
    form; the result is sorted largest first.  ``min_size`` additionally
    floors the sizes considered.  Soft-legacy: a thin wrapper over
    :func:`repro.mine` with ``task="topk"``.
    """
    from .api import MiningRequest, mine

    return mine(
        database,
        MiningRequest.from_options(min_sup, task="topk", k=k, min_size=min_size),
    )
