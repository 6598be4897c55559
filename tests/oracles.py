"""Independent references the kernel differential suites compare against.

Beside the exhaustive brute-force miners of
:mod:`repro.baselines.bruteforce`, two references live here:

* :class:`SetCliqueStore` — the prefix-embedding store of Algorithm 1
  written with hashed Python ``set`` objects: every embedding carries
  its extension-vertex set ``V_i`` (the common neighbourhood of its
  vertices, Section 4.3) and each extension is one set intersection.
  It shares no code with the int-mask or slab kernels, so those
  kernels are held to a second implementation of the same three
  scans, down to the embedding counts the statistics record.
* :func:`reference_mine` — a recursive, eagerly materialising
  Algorithm 1 over any store class with the engine-facing surface
  (``for_label``, ``support``, ``embedding_count``, ``transactions``,
  ``witnesses``, ``extension_plan``, ``nonclosed_extension_label``,
  ``extend``, ``extend_unordered``).  Byte-equality of its result and
  statistics snapshot with the iterative engine pins the engine's lazy
  loop as pure mechanism.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.canonical import CanonicalForm, Label
from repro.core.pattern import CliquePattern
from repro.core.results import MiningResult
from repro.core.statistics import MinerStatistics
from repro.graphdb.core_index import PseudoDatabase

#: One embedding: its vertex tuple and its extension-vertex set.
SetRecord = Tuple[Tuple[int, ...], Set[int]]


def fully_connected_old_labels(
    candidates: Set[int],
    adjacency: Mapping[int, Set[int]],
    label_of: Mapping[int, Label],
    last_label: Label,
    allowed: Optional[Set[Label]] = None,
) -> Set[Label]:
    """Old labels of extension vertices adjacent to every other one.

    The per-embedding ingredient of Lemma 4.4: a label β < ``last_label``
    qualifies when some candidate vertex carrying β is connected to all
    other candidates of this embedding.  ``allowed`` (when given) is the
    running cross-embedding intersection — labels outside it cannot
    survive, so their connectivity check is skipped.
    """
    qualifying: Set[Label] = set()
    target = len(candidates) - 1
    for vertex in candidates:
        label = label_of[vertex]
        if label >= last_label:
            continue
        if allowed is not None and label not in allowed:
            continue
        if label in qualifying:
            continue
        if len(candidates & adjacency[vertex]) == target:
            qualifying.add(label)
    return qualifying


class SetCliqueStore:
    """Embeddings of one prefix clique, with hashed-``set`` candidates.

    Only the ``cached`` strategy exists here: no observable depends on
    the strategy, so one representation serves as the reference for
    both.  Embeddings are enumerated as the engine's kernels enumerate
    them — ascending vertex id inside each label group — so embedding
    counts, and with them every statistic, must match exactly.
    """

    def __init__(self, database, by_transaction: Dict[int, List[SetRecord]]) -> None:
        self.database = database
        self.by_transaction = by_transaction

    @classmethod
    def for_label(cls, database, pseudo, label: Label, strategy: str = "cached"):
        """Embeddings of the 1-clique ``label``.

        ``pseudo`` and ``strategy`` mirror ``EmbeddingStore.for_label``
        and are ignored: the cached sets already hold exactly the
        vertices a rescan would find.
        """
        by_transaction: Dict[int, List[SetRecord]] = {}
        for tid, graph in enumerate(database):
            records = [
                ((vertex,), set(graph.neighbors(vertex)))
                for vertex in sorted(graph.vertices_with_label(label))
            ]
            if records:
                by_transaction[tid] = records
        return cls(database, by_transaction)

    @property
    def support(self) -> int:
        return len(self.by_transaction)

    @property
    def embedding_count(self) -> int:
        return sum(map(len, self.by_transaction.values()))

    def transactions(self) -> Tuple[int, ...]:
        return tuple(sorted(self.by_transaction))

    def witnesses(self) -> Dict[int, Tuple[int, ...]]:
        """The lexicographically smallest sorted embedding per transaction."""
        return {
            tid: min(tuple(sorted(vertices)) for vertices, _ in records)
            for tid, records in self.by_transaction.items()
        }

    def extension_supports(self) -> Dict[Label, int]:
        """Support of ``C ◇ β`` for every (old or new) extension label β."""
        supports: Dict[Label, int] = {}
        for tid, records in self.by_transaction.items():
            label_of = self.database[tid].label_map()
            seen = {label_of[vertex] for _, candidates in records for vertex in candidates}
            for label in seen:
                supports[label] = supports.get(label, 0) + 1
        return supports

    def extension_plan(self, abs_sup: int):
        """``(frequent, n_infrequent, blocking)`` as the engine consumes it."""
        supports = self.extension_supports()
        frequent = [(label, supports[label]) for label in sorted(supports)
                    if supports[label] >= abs_sup]
        blocking = any(count == self.support for count in supports.values())
        return frequent, len(supports) - len(frequent), blocking

    def nonclosed_extension_label(self, last_label: Label) -> Optional[Label]:
        """The smallest Lemma 4.4 blocking label, or ``None``."""
        common: Optional[Set[Label]] = None
        for tid, records in self.by_transaction.items():
            graph = self.database[tid]
            adjacency, label_of = graph.adjacency_map(), graph.label_map()
            for _, candidates in records:
                qualifying = fully_connected_old_labels(
                    candidates, adjacency, label_of, last_label, common
                )
                common = qualifying if common is None else common & qualifying
                if not common:
                    return None
        return min(common) if common else None

    def extend(self, label: Label, last_label: Optional[Label]):
        """Embeddings of ``C ◇ label``; a repeated last label only takes
        vertices above the previous same-label vertex."""
        by_transaction: Dict[int, List[SetRecord]] = {}
        for tid, records in self.by_transaction.items():
            graph = self.database[tid]
            label_of, adjacency = graph.label_map(), graph.adjacency_map()
            extended = []
            for vertices, candidates in records:
                floor = vertices[-1] if label == last_label else None
                for vertex in sorted(candidates):
                    if label_of[vertex] != label:
                        continue
                    if floor is not None and vertex <= floor:
                        continue
                    extended.append((vertices + (vertex,), candidates & adjacency[vertex]))
            if extended:
                by_transaction[tid] = extended
        return SetCliqueStore(self.database, by_transaction)

    def extend_unordered(self, label: Label):
        """Extension without the canonical ordering discipline; duplicate
        vertex sets collapse per transaction."""
        by_transaction: Dict[int, List[SetRecord]] = {}
        for tid, records in self.by_transaction.items():
            graph = self.database[tid]
            seen: Set[frozenset] = set()
            extended = []
            for vertices, candidates in records:
                for vertex in sorted(candidates):
                    if graph.label(vertex) != label:
                        continue
                    key = frozenset(vertices) | {vertex}
                    if key not in seen:
                        seen.add(key)
                        extended.append(
                            (vertices + (vertex,), candidates & graph.neighbors(vertex))
                        )
            if extended:
                by_transaction[tid] = extended
        return SetCliqueStore(self.database, by_transaction)


def reference_mine(database, min_sup, config, task="closed", store_cls=SetCliqueStore):
    """Recursive Algorithm 1 with eager materialisation.

    The pre-iterative engine in miniature: a :class:`CanonicalForm`
    exists at every node, patterns are built through the same emission
    rules the strategies encode, and the statistics object is updated
    through its per-event recorders at each step instead of a boundary
    flush.  Supports the three stateless tasks (closed / frequent /
    maximal).  ``store_cls`` builds the root stores through
    ``store_cls.for_label(database, pseudo, label, strategy)``.
    """
    abs_sup = database.absolute_support(min_sup)
    stats = MinerStatistics()
    result = MiningResult(
        min_sup=abs_sup, closed_only=config.closed_only, statistics=stats
    )
    pseudo = PseudoDatabase(database) if config.low_degree_pruning else None
    label_supports = database.label_supports()
    stats.database_scans += 1
    seen = set()
    redundancy = config.structural_redundancy_pruning

    def emit(form, store):
        size = len(form.labels)
        if size < config.min_size:
            return
        if config.max_size is not None and size > config.max_size:
            return
        pattern = CliquePattern(
            form=form,
            support=store.support,
            transactions=store.transactions(),
            witnesses=store.witnesses() if config.collect_witnesses else {},
        )
        result.add(pattern)
        if config.closed_only:
            stats.closed_cliques += 1

    def recurse(form, store):
        labels = form.labels
        if not redundancy:
            if labels in seen:
                stats.duplicates_collapsed += 1
                return
            seen.add(labels)
        stats.record_node(len(labels), store.embedding_count)
        stats.record_frequent(len(labels))
        frequent_extensions, n_infrequent, blocked = store.extension_plan(abs_sup)
        stats.database_scans += 1
        if (
            config.nonclosed_prefix_pruning
            and store.nonclosed_extension_label(labels[-1]) is not None
        ):
            stats.nonclosed_prefix_prunes += 1
            return
        if task == "closed":
            if not blocked:
                emit(form, store)
            else:
                stats.closure_rejections += 1
        elif task == "frequent":
            emit(form, store)
        elif task == "maximal":
            if not frequent_extensions:
                emit(form, store)
            else:
                stats.closure_rejections += 1
        if config.max_size is not None and len(labels) >= config.max_size:
            return
        stats.infrequent_extensions += n_infrequent
        for label, ext_support in frequent_extensions:
            if redundancy:
                if label < labels[-1]:
                    stats.redundancy_skips += 1
                    continue
                child_store = store.extend(label, labels[-1])
                child_form = CanonicalForm(labels + (label,))
            else:
                child_store = store.extend_unordered(label)
                child_form = CanonicalForm(tuple(sorted(labels + (label,))))
            assert child_store.support == ext_support
            recurse(child_form, child_store)

    for label in sorted(label_supports):
        if label_supports[label] < abs_sup:
            stats.infrequent_extensions += 1
            continue
        store = store_cls.for_label(database, pseudo, label, config.embedding_strategy)
        recurse(CanonicalForm((label,)), store)
    return result
