"""Cross-run mining cache: sweep reuse and per-root memoization.

Threshold sweeps — the Figure 6(a)/7(b) reproductions, and every real
caller tuning ``min_sup`` — re-mine the same database from scratch at
each support value, yet almost all of that work is shared:

* **Support is threshold-independent**, and by Lemma 4.3 so is
  closedness: a clique is closed iff some superclique ties its support,
  and that superclique is frequent whenever the clique is.  The closed
  (or all-frequent) set at ``min_sup = s`` therefore equals the set at
  any ``s' ≤ s`` filtered to ``support ≥ s``
  (:meth:`~repro.core.results.MiningResult.filter_support`) — exactly,
  pattern for pattern, witness for witness.
* **DFS roots partition the output** under structural redundancy
  pruning (the property PRs 2–3 built checkpointing and work stealing
  on), so the unit of reuse can be one root's subtree: a call that
  overlaps a previous run re-mines only the roots the cache lacks.

:class:`MiningCache` memoizes per-root results across calls, keyed by
``(database fingerprint, engine digest, absolute support, root
label)`` — the engine digest (:func:`repro.core.engine.engine_digest`)
is the ``MinerConfig`` digest scoped by task (and by ``k`` for top-k),
so different tasks sharing one cache never collide — with three reuse
tiers:

1. **exact hits** — same key: the stored patterns, per-root statistics
   snapshot, and (when recorded) event substream are replayed verbatim,
   so even session event streams stay byte-identical to a cold run;
2. **sweep hits** — no exact entry, but an entry at a lower threshold
   exists: its patterns are filtered to ``support ≥ s`` (exact by the
   argument above) and the derived entry is memoized.  Derived entries
   carry no statistics or events, so sessions, which must replay
   those, use the exact tier only; batch mines
   (:meth:`MiningExecutor.mine`, :func:`mine_with_cache`,
   ``repro.mine(..., cache=...)``) accept them.  Maximal / top-k /
   quasi runs never consult this tier at all (their outputs are not
   support-filterable across thresholds);
3. **persistence** — :func:`repro.io.runlog.save_cache` /
   :func:`repro.io.runlog.open_cache` round-trip the whole cache as
   JSON, so a CLI sweep or a restarted service warms from disk.

Outside the append engine, one place reads and writes entries:
:meth:`MiningExecutor.iter_roots
<repro.core.executor.MiningExecutor.iter_roots>`, the root runner that
sessions, :func:`mine_with_cache`, and pooled or cached
:func:`repro.mine` calls all drive.

Invalidation is structural: the database fingerprint covers every
vertex, label, and edge, so any change misses cleanly.  Appends are
cheaper than that: :meth:`MiningCache.rekey_database` migrates the
entries of roots the new transaction cannot touch to the new
fingerprint (the byte-stability lemma of :mod:`repro.core.incremental`),
which is how :class:`~repro.core.incremental.IncrementalMiner` keeps
its per-root cache warm across appends.  Threshold changes never
invalidate anything — they are what the sweep tier feeds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..exceptions import MiningError
from ..graphdb.database import GraphDatabase
from .canonical import Label
from .config import MinerConfig
from .pattern import CliquePattern
from .results import MiningResult
from .session import MiningEvent, event_from_dict, event_to_dict
from .statistics import MinerStatistics

__all__ = [
    "CACHE_VERSION",
    "CachedRoot",
    "MiningCache",
    "mine_with_cache",
    "sweep",
]

CACHE_VERSION = 1

#: Cache keys: (database fingerprint, config digest, absolute support,
#: root label).
CacheKey = Tuple[str, str, int, Label]


@dataclass(frozen=True)
class CachedRoot:
    """One DFS root's memoized mining result.

    ``patterns``
        The root subtree's patterns in canonical (DFS) order.
    ``statistics``
        The root's :meth:`MinerStatistics.snapshot`, or ``None`` for
        sweep-derived entries (a filter reconstructs patterns exactly,
        but not the search counters of a hypothetical re-mine).
    ``events`` / ``events_sample_every``
        The root's session event substream (``PrefixVisited`` /
        ``PatternEmitted`` / ``SubtreePruned``), recorded at the given
        sampling granularity, or ``None`` when the producing run did
        not stream events.  Replay requires the same ``sample_every``.
    ``derived_from``
        The absolute support of the source entry when this entry was
        produced by the sweep tier, else ``None``.
    """

    root: Label
    abs_sup: int
    patterns: Tuple[CliquePattern, ...]
    statistics: Optional[Mapping[str, Any]] = None
    events: Optional[Tuple[MiningEvent, ...]] = None
    events_sample_every: int = 0
    derived_from: Optional[int] = None

    def result(self, closed_only: bool) -> MiningResult:
        """Rehydrate this entry as a per-root :class:`MiningResult`."""
        stats = (
            MinerStatistics.from_snapshot(dict(self.statistics))
            if self.statistics is not None
            else MinerStatistics()
        )
        part = MiningResult(
            min_sup=self.abs_sup, closed_only=closed_only, statistics=stats
        )
        for pattern in self.patterns:
            part.add(pattern)
        return part


class MiningCache:
    """Memoizes per-root mining work across calls (and across processes
    via :func:`repro.io.runlog.save_cache`).

    Examples
    --------
    >>> from repro.graphdb import paper_example_database
    >>> cache = MiningCache()
    >>> db = paper_example_database()
    >>> [p.key() for p in mine_with_cache(db, 2, cache=cache)]
    ['abcd:2', 'bde:2']
    >>> mine_with_cache(db, 2, cache=cache).statistics.roots_from_cache
    5
    """

    def __init__(self) -> None:
        self._entries: Dict[CacheKey, CachedRoot] = {}
        #: (fingerprint, digest, root) -> the thresholds cached for it;
        #: the sweep tier's index.
        self._supports: Dict[Tuple[str, str, Label], Set[int]] = {}
        #: Lifetime counters (process-local; not persisted).
        self.hits = 0
        self.misses = 0
        self.sweep_hits = 0
        self.stores = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def lookup(
        self,
        fingerprint: str,
        config_digest: str,
        abs_sup: int,
        root: Label,
        *,
        need_statistics: bool = False,
        need_events: bool = False,
        sample_every: int = 0,
        allow_sweep: bool = True,
        record: bool = True,
    ) -> Optional[CachedRoot]:
        """Find an entry answering one root at one threshold, or ``None``.

        ``need_statistics`` restricts the answer to entries carrying a
        statistics snapshot (excludes sweep-derived entries);
        ``need_events`` additionally requires an event substream
        recorded at exactly ``sample_every``.  ``allow_sweep`` enables
        the sweep tier — deriving a patterns-only entry from a cached
        lower threshold — and is only consulted when neither statistics
        nor events are required.  ``record=False`` makes the probe
        silent (no hit/miss counter updates) for introspection like
        :meth:`IncrementalMiner.result`.
        """
        entry = self._entries.get((fingerprint, config_digest, abs_sup, root))
        if entry is not None and self._usable(
            entry, need_statistics, need_events, sample_every
        ):
            if record:
                self.hits += 1
            return entry
        if allow_sweep and not need_statistics and not need_events:
            derived = self._derive(fingerprint, config_digest, abs_sup, root)
            if derived is not None:
                if record:
                    self.hits += 1
                    self.sweep_hits += 1
                return derived
        if record:
            self.misses += 1
        return None

    def store(self, fingerprint: str, config_digest: str, entry: CachedRoot) -> None:
        """Insert (or overwrite) one root's entry."""
        self._put(fingerprint, config_digest, entry)
        self.stores += 1

    def _put(self, fingerprint: str, config_digest: str, entry: CachedRoot) -> None:
        self._entries[(fingerprint, config_digest, entry.abs_sup, entry.root)] = entry
        self._supports.setdefault(
            (fingerprint, config_digest, entry.root), set()
        ).add(entry.abs_sup)

    @staticmethod
    def _usable(
        entry: CachedRoot, need_statistics: bool, need_events: bool, sample_every: int
    ) -> bool:
        if need_statistics and entry.statistics is None:
            return False
        if need_events and (
            entry.events is None or entry.events_sample_every != sample_every
        ):
            return False
        return True

    def _derive(
        self, fingerprint: str, config_digest: str, abs_sup: int, root: Label
    ) -> Optional[CachedRoot]:
        """The sweep tier: filter the closest lower-threshold entry.

        Exact by threshold-independence (module docstring): the root's
        pattern set at ``s`` is its set at any ``s' < s`` filtered to
        ``support ≥ s``.  The closest (largest) ``s'`` filters the
        fewest patterns; derived entries are themselves valid sources,
        since filtering composes.  The derived entry is memoized so
        repeated sweeps pay the filter once.
        """
        cached_sups = self._supports.get((fingerprint, config_digest, root))
        if not cached_sups:
            return None
        lower = [sup for sup in cached_sups if sup < abs_sup]
        if not lower:
            return None
        source = self._entries[(fingerprint, config_digest, max(lower), root)]
        derived = CachedRoot(
            root=root,
            abs_sup=abs_sup,
            patterns=tuple(p for p in source.patterns if p.support >= abs_sup),
            statistics=None,
            derived_from=source.abs_sup,
        )
        self._put(fingerprint, config_digest, derived)
        return derived

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_roots(self, fingerprint: str, roots: Sequence[Label]) -> int:
        """Drop every entry of the given roots (all configs/thresholds)."""
        wanted = set(roots)
        dropped = 0
        for key in list(self._entries):
            fp, digest, sup, root = key
            if fp == fingerprint and root in wanted:
                self._discard(key)
                dropped += 1
        return dropped

    def invalidate_database(self, fingerprint: str) -> int:
        """Drop every entry of one database fingerprint."""
        dropped = 0
        for key in list(self._entries):
            if key[0] == fingerprint:
                self._discard(key)
                dropped += 1
        return dropped

    def rekey_database(
        self, old_fingerprint: str, new_fingerprint: str, drop_roots: Sequence[Label] = ()
    ) -> Tuple[int, int]:
        """Migrate entries between fingerprints; ``(moved, dropped)``.

        The transaction-append primitive: appending ``T`` leaves every
        subtree rooted at a label absent from ``T`` byte-for-byte
        stable (:mod:`repro.core.incremental`), so those entries stay
        valid under the grown database's fingerprint.  ``drop_roots``
        names the labels ``T`` touches; their entries are discarded at
        every threshold.
        """
        wanted_drop = set(drop_roots)
        moved = dropped = 0
        for key in list(self._entries):
            fp, digest, sup, root = key
            if fp != old_fingerprint:
                continue
            entry = self._entries[key]
            self._discard(key)
            if root in wanted_drop:
                dropped += 1
                continue
            self._put(new_fingerprint, digest, entry)
            moved += 1
        return moved, dropped

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()
        self._supports.clear()

    def _discard(self, key: CacheKey) -> None:
        del self._entries[key]
        fp, digest, sup, root = key
        index = self._supports.get((fp, digest, root))
        if index is not None:
            index.discard(sup)
            if not index:
                del self._supports[(fp, digest, root)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def roots_cached(
        self, fingerprint: str, config_digest: str, abs_sup: int
    ) -> Tuple[Label, ...]:
        """Roots with an exact-threshold entry, in canonical order."""
        return tuple(
            sorted(
                root
                for (fp, digest, sup, root) in self._entries
                if fp == fingerprint and digest == config_digest and sup == abs_sup
            )
        )

    @property
    def hit_rate(self) -> float:
        """Lifetime ``hits / (hits + misses)`` (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<MiningCache {len(self._entries)} entries "
            f"hits={self.hits} misses={self.misses} sweep={self.sweep_hits}>"
        )

    # ------------------------------------------------------------------
    # Serialisation (persistence lives in repro.io.runlog)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict of every entry (counters are not state)."""
        from ..io.json_format import pattern_to_dict

        entries = []
        for (fp, digest, sup, root), entry in sorted(self._entries.items()):
            payload: Dict[str, Any] = {
                "fingerprint": fp,
                "config_digest": digest,
                "abs_sup": sup,
                "root": root,
                "patterns": [pattern_to_dict(p) for p in entry.patterns],
                "statistics": dict(entry.statistics)
                if entry.statistics is not None
                else None,
                "events": [event_to_dict(e) for e in entry.events]
                if entry.events is not None
                else None,
                "events_sample_every": entry.events_sample_every,
                "derived_from": entry.derived_from,
            }
            entries.append(payload)
        return {"kind": "mining-cache", "version": CACHE_VERSION, "entries": entries}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MiningCache":
        """Rebuild a cache from :meth:`to_dict` output."""
        from ..io.json_format import pattern_from_dict

        if payload.get("kind") != "mining-cache":
            raise MiningError(
                f"expected kind 'mining-cache', got {payload.get('kind')!r}"
            )
        cache = cls()
        for raw in payload.get("entries", ()):
            patterns = tuple(pattern_from_dict(entry) for entry in raw["patterns"])
            events = raw.get("events")
            cache._put(
                raw["fingerprint"],
                raw["config_digest"],
                CachedRoot(
                    root=raw["root"],
                    abs_sup=int(raw["abs_sup"]),
                    patterns=patterns,
                    statistics=raw.get("statistics"),
                    events=tuple(event_from_dict(e) for e in events)
                    if events is not None
                    else None,
                    events_sample_every=int(raw.get("events_sample_every", 0)),
                    derived_from=raw.get("derived_from"),
                ),
            )
        return cache


# ----------------------------------------------------------------------
# Cached mining
# ----------------------------------------------------------------------
def mine_with_cache(
    database: GraphDatabase,
    min_sup: Union[int, float, str],
    *,
    cache: MiningCache,
    config: Optional[MinerConfig] = None,
    processes: int = 1,
    scheduler: Optional[str] = None,
    fingerprint: Optional[str] = None,
    task: str = "closed",
    k: Optional[int] = None,
    gamma: Optional[float] = None,
) -> MiningResult:
    """Mine an engine task, reusing (and feeding) a cache.

    Any engine task (``closed``, ``frequent``, ``maximal``, ``topk``,
    ``quasi``) runs here; entries are keyed by
    :func:`~repro.core.engine.engine_digest`, so tasks never collide
    in a shared cache (and closed/frequent keys stay byte-compatible
    with caches persisted before the engine refactor).  One
    :meth:`MiningExecutor.mine <repro.core.executor.MiningExecutor.mine>`
    call does the work: cached roots replay their stored patterns,
    missing roots are mined fresh — inline with ``processes=1``, on the
    executor's pool otherwise — and stored.  The pattern set and,
    for exact-tier hits, the statistics are byte-identical to an
    uncached serial :meth:`MiningEngine.mine`.  Sweep-derived roots
    contribute patterns but no search counters, so after a sweep hit
    the statistics describe only the roots actually mined or replayed
    exactly.  The sweep tier itself only serves closed and frequent
    runs: maximal, top-k, and quasi outputs are not support-filterable
    across thresholds, so those tasks use the exact-replay tier alone.
    ``statistics.roots_from_cache`` / ``cache_hits`` / ``cache_misses``
    report the reuse (kept out of the deterministic snapshot, like
    ``cpu_seconds``).  ``scheduler`` applies only with ``processes >
    1``.

    ``fingerprint`` lets a caller that already computed
    :func:`~repro.io.runlog.database_fingerprint` for *this exact
    database* skip re-hashing it (:func:`sweep` hits this path once per
    threshold).  Passing a fingerprint of a different database serves
    stale patterns — leave it ``None`` unless the provenance is certain.
    """
    if scheduler is not None and processes <= 1:
        raise MiningError("scheduler only applies when processes > 1")
    from .executor import STEALING, MiningExecutor

    with MiningExecutor(
        database,
        config,
        processes=processes,
        scheduler=scheduler if scheduler is not None else STEALING,
        cache=cache,
        task=task,
        k=k,
        gamma=gamma,
    ) as executor:
        executor._fingerprint = fingerprint
        return executor.mine(min_sup)


def sweep(
    database: GraphDatabase,
    supports: Sequence[Union[int, float, str]],
    *,
    task: str = "closed",
    cache: Optional[MiningCache] = None,
    config: Optional[MinerConfig] = None,
    min_size: int = 1,
    max_size: Optional[int] = None,
    kernel: Optional[str] = None,
    processes: int = 1,
    scheduler: Optional[str] = None,
) -> Dict[Union[int, float, str], MiningResult]:
    """Mine one database at several support thresholds, sharing work.

    Mines once at the *lowest* absolute threshold (warming ``cache``),
    then answers every other threshold from the sweep tier — a filter
    to ``support ≥ s``, exact by threshold-independence — instead of
    re-mining.  Each returned result's pattern set is byte-identical
    to a fresh mine at its threshold.

    Returns ``{support_spec: MiningResult}`` preserving the order the
    specs were given in.  ``cache`` may be shared with other calls (and
    persisted via :func:`repro.io.runlog.save_cache`); when ``None`` a
    private cache spanning just this sweep is used.  ``task``,
    ``min_size``/``max_size``, ``kernel``, and ``config`` follow
    :func:`repro.mine`.
    """
    if not supports:
        raise MiningError("sweep needs at least one support threshold")
    if task not in ("closed", "frequent"):
        raise MiningError(
            f"sweep supports tasks 'closed' and 'frequent', got {task!r}; "
            f"maximal and top-k outputs are not support-filterable across "
            f"thresholds (use repro.mine(task=..., cache=...) per threshold "
            f"for exact-replay reuse)"
        )
    resolved = MinerConfig.for_task(task, config, min_size, max_size, kernel, None)
    if cache is None:
        cache = MiningCache()
    by_abs = [(spec, database.absolute_support(spec)) for spec in supports]
    seen: Set[Union[int, float, str]] = set()
    for spec, _abs in by_abs:
        if spec in seen:
            raise MiningError(f"duplicate support threshold {spec!r} in sweep")
        seen.add(spec)
    from ..io.runlog import database_fingerprint

    # One structural hash serves the whole sweep (the database cannot
    # change between thresholds of a single call).
    fingerprint = database_fingerprint(database)
    # Warm the cache bottom-up: the lowest threshold's mine is the one
    # real search; every other threshold filters it.
    base = min(abs_sup for _spec, abs_sup in by_abs)
    base_result = mine_with_cache(
        database,
        base,
        cache=cache,
        config=resolved,
        processes=processes,
        scheduler=scheduler,
        fingerprint=fingerprint,
        task=task,
    )
    results: Dict[Union[int, float, str], MiningResult] = {}
    for spec, abs_sup in by_abs:
        if abs_sup == base:
            results[spec] = base_result
            continue
        results[spec] = mine_with_cache(
            database,
            abs_sup,
            cache=cache,
            config=resolved,
            processes=processes,
            scheduler=scheduler,
            fingerprint=fingerprint,
            task=task,
        )
    return results
