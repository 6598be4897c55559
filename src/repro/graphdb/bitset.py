"""Bitset primitives for the mining hot path.

CLAN's inner loop — growing a k-clique by one fully-connected vertex
and re-checking closure over every embedding — is dominated by
neighbour-set intersections.  Python's arbitrary-precision ``int`` is a
packed bit vector with hardware-speed ``&``/``|`` implemented in C, so
representing vertex sets as masks (one bit per vertex) turns each
intersection into a handful of word operations instead of a hashed
set walk.  This module owns the primitives; :class:`GraphBitIndex`
is the per-transaction mask index that
:meth:`repro.graphdb.graph.Graph.neighbor_mask` lazily builds.

Bit positions are assigned by **sorted vertex id**, not insertion
order.  That makes the vertex-id → bit mapping a pure function of the
graph's vertex set: two structurally equal graphs (same ids, labels,
edges) always agree on the mapping regardless of construction order,
and the per-label ascending-vertex-id discipline of the embedding
store translates to plain ascending bit order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

Label = str

def popcount(mask: int) -> int:
    """Number of set bits in ``mask`` (``int.bit_count``, Python >= 3.10)."""
    return mask.bit_count()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order.

    Isolating the lowest set bit with ``mask & -mask`` keeps each step
    a couple of bigint operations; the loop is linear in the number of
    *set* bits, not in the width of the mask.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_from_bits(bits: Iterable[int]) -> int:
    """Build a mask with the given bit positions set."""
    mask = 0
    for bit in bits:
        mask |= 1 << bit
    return mask


def lowest_bit(mask: int) -> int:
    """Position of the lowest set bit (-1 for the empty mask)."""
    return (mask & -mask).bit_length() - 1


class GraphBitIndex:
    """Mask representation of one graph transaction.

    Built once (lazily) per :class:`~repro.graphdb.graph.Graph` and
    invalidated on mutation.  Holds, with bit ``i`` standing for the
    ``i``-th smallest vertex id:

    * ``order`` — bit position → vertex id,
    * ``bit`` — vertex id → bit position,
    * ``labels_by_bit`` — bit position → label (the hot-loop companion
      of ``order``: extension scans read labels straight off bit
      positions without a vertex-id hop),
    * ``neighbor_masks`` — vertex id → mask of its neighbours,
    * ``label_masks`` — label → mask of the vertices carrying it,
    * ``unique_labels`` — whether no label repeats inside this graph
      (true for vertex-identity alphabets like stock tickers; lets
      per-transaction label deduplication be skipped),
    * ``all_mask`` — every vertex bit set.
    """

    __slots__ = (
        "order",
        "bit",
        "labels_by_bit",
        "neighbor_masks",
        "label_masks",
        "unique_labels",
        "all_mask",
        "_sorted_labels",
        "_prefix_masks",
    )

    def __init__(
        self,
        labels: Mapping[int, Label],
        adjacency: Mapping[int, Set[int]],
    ) -> None:
        self.order: Tuple[int, ...] = tuple(sorted(labels))
        self.bit: Dict[int, int] = {v: i for i, v in enumerate(self.order)}
        bit = self.bit
        self.labels_by_bit: Tuple[Label, ...] = tuple(labels[v] for v in self.order)
        self.neighbor_masks: Dict[int, int] = {}
        for vertex, neighbors in adjacency.items():
            mask = 0
            for neighbor in neighbors:
                mask |= 1 << bit[neighbor]
            self.neighbor_masks[vertex] = mask
        self.label_masks: Dict[Label, int] = {}
        for vertex, label in labels.items():
            self.label_masks[label] = self.label_masks.get(label, 0) | (1 << bit[vertex])
        self.unique_labels = len(self.label_masks) == len(self.order)
        self.all_mask = (1 << len(self.order)) - 1
        self._sorted_labels: Optional[List[Label]] = None
        self._prefix_masks: Optional[List[int]] = None

    def mask_below(self, label: Label) -> int:
        """Mask of every vertex whose label sorts strictly below ``label``.

        Backed by a lazily-built prefix-union over the sorted label
        alphabet, so the Lemma 4.4 old-label restriction is a binary
        search plus one lookup instead of a per-label union.
        """
        labels = self._sorted_labels
        if labels is None:
            labels = self._sorted_labels = sorted(self.label_masks)
            running = 0
            prefix = [0]
            for known in labels:
                running |= self.label_masks[known]
                prefix.append(running)
            self._prefix_masks = prefix
        return self._prefix_masks[bisect_left(labels, label)]  # type: ignore[index]

    def mask_of(self, vertices: Iterable[int]) -> int:
        """Mask with the bits of the given vertex ids set."""
        bit = self.bit
        mask = 0
        for vertex in vertices:
            mask |= 1 << bit[vertex]
        return mask

    def vertices_of(self, mask: int) -> List[int]:
        """Vertex ids of the set bits, ascending."""
        order = self.order
        return [order[i] for i in iter_bits(mask)]

    def __repr__(self) -> str:
        return f"<GraphBitIndex |V|={len(self.order)}>"
