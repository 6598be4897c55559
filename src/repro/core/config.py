"""Miner configuration and ablation switches.

Every pruning technique of Section 4 can be toggled independently so
the ablation benchmarks can attribute speedups, and so property tests
can assert that no pruning changes the mined result set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from ..exceptions import MiningError
from .embeddings import BITSET, CACHED, RESCAN, SLAB

#: The retired hashed-``set`` kernel's name.  Deprecated: still
#: accepted, it warns and runs :data:`BITSET` (identical results).
SET = "set"


@dataclass(frozen=True)
class MinerConfig:
    """Configuration of :class:`~repro.core.miner.ClanMiner`.

    Attributes
    ----------
    closed_only:
        Mine only closed cliques (the paper's default task).  When
        False, every frequent clique is reported and the closure-based
        prunings are disabled (they would be unsound for that output).
    structural_redundancy_pruning:
        Grow a prefix only with labels ≥ its last label (Section 4.2).
        Disabling it enumerates each pattern up to ``size!`` times and
        is only useful to measure what the pruning saves; the duplicate
        results are collapsed before reporting.
    low_degree_pruning:
        Pseudo low-degree vertex pruning (Observation 4.1): consult the
        per-level core-number index when scanning for extension
        vertices.  Only consequential under the ``rescan`` embedding
        strategy, which re-scans vertex lists the way the paper does.
    nonclosed_prefix_pruning:
        The Lemma 4.4 subtree pruning.  Requires ``closed_only``.
    min_size / max_size:
        Report only cliques within this size range (the paper reports
        stock cliques of size ≥ 3).  The search itself always starts
        from single labels; ``max_size`` also truncates the search.
    embedding_strategy:
        ``"cached"`` (incremental common-neighbour sets, default) or
        ``"rescan"`` (paper-literal database scans).
    kernel:
        ``"slab"`` (default) keeps candidate-extension sets in numpy
        unsigned-word slab arrays with vectorized popcount, transposed over
        transactions; it needs unique per-vertex labels, the ``cached``
        strategy and ``structural_redundancy_pruning``, and otherwise
        runs on the ``"bitset"`` int masks.  ``"bitset"`` intersects candidate-extension sets as
        arbitrary-precision integer bitmasks — one ``&`` per
        intersection.  Both kernels produce identical results under
        every strategy and pruning combination.  ``"set"`` (the retired
        hashed-``set`` kernel) is deprecated: it emits a
        ``DeprecationWarning`` and the field becomes ``"bitset"``.
    collect_witnesses:
        Record one witness embedding per supporting transaction in each
        reported pattern.
    max_embeddings:
        Optional safety valve: abort with :class:`MiningError` if the
        live embedding count for a single prefix exceeds this bound.

    Notes
    -----
    Execution-layer knobs — ``processes`` and the parallel
    ``scheduler`` (``"stealing"`` work queue with cost-guided root
    splitting vs ``"static"`` one task per root in canonical order) —
    are deliberately *not* config fields: they cannot change the mined
    result, only wall-clock, so they live on the call sites instead
    (:func:`repro.mine`, :class:`~repro.core.session.MiningSession`,
    :class:`~repro.core.executor.MiningExecutor`, ``clan mine
    --processes/--scheduler``) and stay out of checkpoints' config
    fingerprints — a checkpoint written serially resumes in parallel
    and vice versa.
    """

    closed_only: bool = True
    structural_redundancy_pruning: bool = True
    low_degree_pruning: bool = True
    nonclosed_prefix_pruning: bool = True
    min_size: int = 1
    max_size: Optional[int] = None
    embedding_strategy: str = CACHED
    kernel: str = SLAB
    collect_witnesses: bool = True
    max_embeddings: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_size < 1:
            raise MiningError(f"min_size must be >= 1, got {self.min_size}")
        if self.max_size is not None and self.max_size < self.min_size:
            raise MiningError(
                f"max_size {self.max_size} is smaller than min_size {self.min_size}"
            )
        if self.embedding_strategy not in (CACHED, RESCAN):
            raise MiningError(
                f"embedding_strategy must be {CACHED!r} or {RESCAN!r}, "
                f"got {self.embedding_strategy!r}"
            )
        if self.kernel == SET:
            warnings.warn(
                "kernel='set' is deprecated; use kernel='bitset' (identical "
                "results)",
                DeprecationWarning,
                stacklevel=3,
            )
            object.__setattr__(self, "kernel", BITSET)
        if self.kernel not in (BITSET, SLAB):
            raise MiningError(
                f"kernel must be {BITSET!r} or {SLAB!r}, got {self.kernel!r}"
            )
        if self.nonclosed_prefix_pruning and not self.closed_only:
            raise MiningError(
                "nonclosed_prefix_pruning requires closed_only: pruning a prefix "
                "discards frequent (non-closed) cliques below it"
            )
        if self.nonclosed_prefix_pruning and not self.structural_redundancy_pruning:
            raise MiningError(
                "nonclosed_prefix_pruning is only sound under structural redundancy "
                "pruning (Lemma 4.4's proof assumes canonical-prefix growth)"
            )
        if self.max_embeddings is not None and self.max_embeddings < 1:
            raise MiningError("max_embeddings must be positive when set")

    # Convenience constructors -----------------------------------------
    @classmethod
    def paper_defaults(cls) -> "MinerConfig":
        """The configuration the paper evaluates: all prunings on."""
        return cls()

    @classmethod
    def all_frequent(cls, **overrides: object) -> "MinerConfig":
        """Mine all frequent cliques (Figure 4's full lattice contents)."""
        return cls(closed_only=False, nonclosed_prefix_pruning=False, **overrides)  # type: ignore[arg-type]

    @classmethod
    def for_task(
        cls,
        task: str,
        config: Optional["MinerConfig"] = None,
        min_size: int = 1,
        max_size: Optional[int] = None,
        kernel: Optional[str] = None,
        collect_witnesses: Optional[bool] = None,
    ) -> "MinerConfig":
        """Build/merge the config for an engine-task run.

        The one resolution rule shared by :func:`repro.mine`, the CLI,
        :class:`~repro.core.api.MiningRequest`, and
        :func:`repro.core.cache.sweep`.  Maximal, top-k, and quasi mine
        closed-style (``closed_only=True``, subtree pruning on); their
        emission rules live in the task strategies, not the config.
        ``task="maximal"`` rejects a size ceiling: capping the search
        makes subcliques of capped cliques look maximal.
        """
        closed = task != "frequent"
        if task == "maximal" and max_size is not None:
            raise MiningError(
                "task='maximal' cannot be combined with max_size; a size "
                "ceiling makes subcliques of capped cliques look maximal"
            )
        if config is None:
            resolved = cls(
                closed_only=closed,
                nonclosed_prefix_pruning=closed,
                min_size=min_size,
                max_size=max_size,
            )
        else:
            if config.closed_only != closed:
                raise MiningError(
                    f"config.closed_only={config.closed_only} contradicts task {task!r}"
                )
            if task == "maximal" and config.max_size is not None:
                raise MiningError(
                    "task='maximal' cannot be combined with max_size; a size "
                    "ceiling makes subcliques of capped cliques look maximal"
                )
            resolved = config.with_window(min_size=min_size, max_size=max_size)
        if kernel is not None:
            resolved = resolved.with_kernel(kernel)
        if (
            collect_witnesses is not None
            and collect_witnesses != resolved.collect_witnesses
        ):
            from dataclasses import replace

            resolved = replace(resolved, collect_witnesses=collect_witnesses)
        return resolved

    def with_kernel(self, kernel: str) -> "MinerConfig":
        """Return a copy running on the named kernel (for ablations)."""
        from dataclasses import replace

        return replace(self, kernel=kernel)

    def with_window(
        self, min_size: int = 1, max_size: Optional[int] = None
    ) -> "MinerConfig":
        """Merge an explicitly requested size window into this config.

        Used by the entry points that accept both a ``config`` and bare
        ``min_size``/``max_size`` arguments.  Default window arguments
        (``min_size=1``, ``max_size=None``) defer to the config; a
        non-default argument that *contradicts* a non-default config
        field raises :class:`MiningError` instead of silently picking a
        winner (the historical behaviour was to silently ignore the
        arguments — see ``tests/test_miner.py``).
        """
        from dataclasses import replace

        overrides = {}
        if min_size != 1:
            if self.min_size != 1 and self.min_size != min_size:
                raise MiningError(
                    f"conflicting min_size: argument {min_size} vs "
                    f"config.min_size {self.min_size}"
                )
            overrides["min_size"] = min_size
        if max_size is not None:
            if self.max_size is not None and self.max_size != max_size:
                raise MiningError(
                    f"conflicting max_size: argument {max_size} vs "
                    f"config.max_size {self.max_size}"
                )
            overrides["max_size"] = max_size
        return replace(self, **overrides) if overrides else self

    def digest(self) -> str:
        """A stable SHA-256 over :meth:`to_dict` (cache/checkpoint keys).

        Two configs share a digest iff every field matches.  The digest
        deliberately covers execution-irrelevant fields too (``kernel``,
        ``embedding_strategy``): they cannot change the mined patterns,
        but they do change search *statistics*, and cached statistics
        are replayed verbatim — keying on the full config keeps that
        replay exact at the cost of a conservative miss.
        """
        import hashlib
        import json

        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        """A JSON-ready dict of every field (run records, checkpoints)."""
        return {
            "closed_only": self.closed_only,
            "structural_redundancy_pruning": self.structural_redundancy_pruning,
            "low_degree_pruning": self.low_degree_pruning,
            "nonclosed_prefix_pruning": self.nonclosed_prefix_pruning,
            "min_size": self.min_size,
            "max_size": self.max_size,
            "embedding_strategy": self.embedding_strategy,
            "kernel": self.kernel,
            "collect_witnesses": self.collect_witnesses,
            "max_embeddings": self.max_embeddings,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MinerConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected (typo safety); missing keys fall back
        to the defaults, so configs recorded by older versions load.
        """
        known = {
            "closed_only",
            "structural_redundancy_pruning",
            "low_degree_pruning",
            "nonclosed_prefix_pruning",
            "min_size",
            "max_size",
            "embedding_strategy",
            "kernel",
            "collect_witnesses",
            "max_embeddings",
        }
        unknown = set(payload) - known
        if unknown:
            raise MiningError(f"unknown MinerConfig fields: {sorted(unknown)}")
        return cls(**payload)

    def without(self, pruning: str) -> "MinerConfig":
        """Return a copy with one named pruning disabled (for ablations)."""
        flags = {
            "structural_redundancy": "structural_redundancy_pruning",
            "low_degree": "low_degree_pruning",
            "nonclosed_prefix": "nonclosed_prefix_pruning",
        }
        if pruning not in flags:
            raise MiningError(
                f"unknown pruning {pruning!r}; expected one of {sorted(flags)}"
            )
        from dataclasses import replace

        overrides = {flags[pruning]: False}
        if pruning == "structural_redundancy":
            # Lemma 4.4 is only sound under canonical-prefix growth.
            overrides["nonclosed_prefix_pruning"] = False
        return replace(self, **overrides)
