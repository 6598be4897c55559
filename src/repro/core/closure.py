"""Clique closure checking (paper Section 4.3, Lemma 4.3).

A prefix clique C is closed iff no single extension label β — *new*
(β ≥ last label of C) or *old* (β < last label) — yields a superclique
``C ◇ β`` with the same support.  The scan-based check simply compares
the extension-label supports against ``sup(C)``.

The paper also notes (via Lemma 4.1) an alternative route for the
old-extension half: look up the already-mined cliques for a proper
superclique with equal support, using a hash structure over canonical
forms.  :class:`HistoryClosureIndex` implements that structure; the
naive baseline and the post-filtering pipeline use it, and tests assert
the two routes agree.

This module also owns the per-embedding half of the Lemma 4.4
non-closed prefix test — "which old labels are carried by an extension
vertex fully connected to all other extension vertices" — on per-graph
masks: :func:`fully_connected_old_labels_mask` checks connectivity with
one bitmask AND per candidate vertex.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..graphdb.graph import Graph
from .canonical import CanonicalForm, Label
from .pattern import CliquePattern


def blocking_extension_labels(
    support: int, extension_supports: Mapping[Label, int]
) -> List[Label]:
    """Labels whose one-vertex extension has the same support as the prefix.

    Any non-empty result proves the prefix non-closed (Lemma 4.3).
    """
    return sorted(
        label for label, ext_support in extension_supports.items() if ext_support == support
    )


def is_closed(support: int, extension_supports: Mapping[Label, int]) -> bool:
    """The Lemma 4.3 closure test from precomputed extension supports."""
    return all(ext_support < support for ext_support in extension_supports.values())


def split_extension_labels(
    extension_supports: Mapping[Label, int], last_label: Optional[Label]
) -> Tuple[Dict[Label, int], Dict[Label, int]]:
    """Split extension supports into (old, new) relative to the last label.

    With ``last_label=None`` (the empty prefix) everything is new.
    """
    old: Dict[Label, int] = {}
    new: Dict[Label, int] = {}
    for label, ext_support in extension_supports.items():
        if last_label is not None and label < last_label:
            old[label] = ext_support
        else:
            new[label] = ext_support
    return old, new


def fully_connected_old_labels_mask(
    candidates_mask: int,
    graph: Graph,
    last_label: Label,
    allowed: Optional[Set[Label]] = None,
) -> Set[Label]:
    """Old labels of extension vertices adjacent to every other one.

    The per-embedding ingredient of Lemma 4.4: a label β < ``last_label``
    qualifies when some candidate vertex carrying β is connected to all
    other candidates of this embedding.  ``allowed`` (when given) is the
    running cross-embedding intersection — labels outside it cannot
    survive, so their connectivity check is skipped.

    The scan is first restricted to the mask of vertices carrying an
    eligible old label (the union of the relevant per-label masks), so
    candidates that cannot qualify are never visited.  A candidate
    ``v`` is fully connected to the other candidates iff the
    candidates outside ``v``'s neighbourhood are exactly ``{v}``, i.e.
    ``(candidates ^ bit(v)) & ~neighbor_mask(v) == 0``; once a label
    qualifies, its remaining vertices are masked out of the scan.
    """
    index = graph.bit_index()
    label_masks = index.label_masks
    if allowed is None:
        old_mask = index.mask_below(last_label)
    else:
        old_mask = 0
        for label in allowed:
            old_mask |= label_masks.get(label, 0)
    scan = candidates_mask & old_mask
    if not scan:
        return set()
    order = index.order
    labels_by_bit = index.labels_by_bit
    neighbor_masks = index.neighbor_masks
    qualifying: Set[Label] = set()
    while scan:
        top = scan.bit_length() - 1
        bit = 1 << top
        scan ^= bit
        if (candidates_mask ^ bit) & ~neighbor_masks[order[top]] == 0:
            label = labels_by_bit[top]
            qualifying.add(label)
            scan &= ~label_masks[label]
    return qualifying


class HistoryClosureIndex:
    """Hash structure over already-mined cliques (Section 4.3).

    Mined canonical forms are bucketed by support; a query for pattern
    C with support s runs the Lemma 4.1 substring test against the
    bucket for s only.  Inside a bucket, forms are additionally grouped
    by size so the proper-superclique constraint (strictly larger) cuts
    the candidate list before any substring test runs.
    """

    __slots__ = ("_by_support",)

    def __init__(self, patterns: Iterable[CliquePattern] = ()) -> None:
        # support -> size -> list of canonical forms
        self._by_support: Dict[int, Dict[int, List[CanonicalForm]]] = {}
        for pattern in patterns:
            self.add(pattern)

    def add(self, pattern: CliquePattern) -> None:
        """Register a mined pattern."""
        bucket = self._by_support.setdefault(pattern.support, {})
        bucket.setdefault(pattern.size, []).append(pattern.form)

    def add_form(self, form: CanonicalForm, support: int) -> None:
        """Register a mined canonical form with its support."""
        self._by_support.setdefault(support, {}).setdefault(form.size, []).append(form)

    def has_superclique_with_support(self, form: CanonicalForm, support: int) -> bool:
        """Return whether a mined proper superclique of ``form`` has ``support``.

        True implies ``form`` is not closed (there exists at least one
        old or new extension vertex; see the Lemma 4.1 discussion).
        """
        bucket = self._by_support.get(support)
        if not bucket:
            return False
        for size, forms in bucket.items():
            if size <= form.size:
                continue
            for candidate in forms:
                if form.is_subclique_of(candidate):
                    return True
        return False

    def __len__(self) -> int:
        return sum(len(forms) for bucket in self._by_support.values() for forms in bucket.values())
