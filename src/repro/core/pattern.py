"""Clique patterns: a canonical form together with its support evidence.

A :class:`CliquePattern` is what the miner reports: the canonical form
(Definition 4.1), the absolute support ``sup^D(C)`` (Section 2), the
ids of the supporting transactions, and optionally one witness
embedding per transaction so results can be traced back to concrete
vertices (as Figure 5 does for the 12-stock clique).

Witnesses are any read-only ``Mapping`` from transaction id to vertex
tuple.  The bitset kernel emits plain dicts; the slab kernel, which
holds exactly one embedding per transaction, emits
:class:`WitnessRows` — the pattern's transaction tuple beside one
``int32[support, size]`` row array — so emission builds no per-
transaction tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import ItemsView
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

from ..exceptions import PatternError
from ..graphdb.database import GraphDatabase
from .canonical import CanonicalForm, Label


class WitnessRows(Mapping):
    """Read-only ``{tid: vertex tuple}`` map over one row array.

    ``transactions`` is the ascending tid tuple (shared with the
    pattern, not copied) and ``rows`` an ``int32[len(transactions),
    size]`` array whose row ``i`` is transaction ``i``'s witness,
    vertex-sorted.  The array is owned by the map and frozen read-only.
    Tuples are built only when the map is read; it compares equal to
    any mapping with the same items, prints as the equivalent dict, and
    pickles as ``(transactions, rows)``.
    """

    __slots__ = ("transactions", "rows")

    def __init__(self, transactions: Tuple[int, ...], rows: np.ndarray) -> None:
        rows.flags.writeable = False
        self.transactions = transactions
        self.rows = rows

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[int]:
        return iter(self.transactions)

    def __getitem__(self, tid: Any) -> Tuple[int, ...]:
        tids = self.transactions
        try:
            index = bisect_left(tids, tid)
        except TypeError:
            raise KeyError(tid) from None
        if index == len(tids) or tids[index] != tid:
            raise KeyError(tid)
        return tuple(self.rows[index].tolist())

    def items(self) -> "_RowItems":
        return _RowItems(self)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, WitnessRows):
            return self.transactions == other.transactions and np.array_equal(
                self.rows, other.rows
            )
        return super().__eq__(other)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def __reduce__(self):
        return (WitnessRows, (self.transactions, self.rows))


class _RowItems(ItemsView):
    """``items()`` of a :class:`WitnessRows`: one ``tolist`` per pass."""

    __slots__ = ()

    def __iter__(self):
        rows = self._mapping
        return zip(rows.transactions, map(tuple, rows.rows.tolist()))


@dataclass(frozen=True, slots=True)
class CliquePattern:
    """A frequent (possibly closed) clique pattern.

    Attributes
    ----------
    form:
        The canonical form (sorted label sequence).
    support:
        Absolute support — the number of supporting transactions.
    transactions:
        Sorted tuple of supporting transaction ids.
    witnesses:
        Optional read-only map from transaction id to one embedding (a
        sorted vertex-id tuple) witnessing the pattern in that
        transaction — a ``dict`` or a :class:`WitnessRows`.
    """

    form: CanonicalForm
    support: int
    transactions: Tuple[int, ...] = ()
    witnesses: Mapping[int, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.support < 0:
            raise PatternError(f"support must be non-negative, got {self.support}")
        if self.transactions and len(self.transactions) != self.support:
            raise PatternError(
                f"support {self.support} disagrees with "
                f"{len(self.transactions)} listed transactions"
            )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Clique size (number of vertices)."""
        return self.form.size

    @property
    def labels(self) -> Tuple[Label, ...]:
        """The sorted label tuple of the canonical form."""
        return self.form.labels

    def relative_support(self, database_size: int) -> float:
        """Support as a fraction of the database size."""
        if database_size <= 0:
            raise PatternError("database size must be positive")
        return self.support / database_size

    def key(self) -> str:
        """The paper's ``canonical form:support`` node label (Figure 4)."""
        return f"{self.form}:{self.support}"

    # ------------------------------------------------------------------
    # Relationships
    # ------------------------------------------------------------------
    def is_subpattern_of(self, other: "CliquePattern") -> bool:
        """Subclique relationship on the canonical forms (Lemma 4.1)."""
        return self.form.is_subclique_of(other.form)

    def makes_nonclosed(self, other: "CliquePattern") -> bool:
        """Return whether ``other`` proves this pattern non-closed.

        True iff ``other`` is a proper superclique with the same
        support (the definition of closedness in Section 2).
        """
        return (
            other.support == self.support
            and self.form.is_proper_subclique_of(other.form)
        )

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self, database: GraphDatabase) -> None:
        """Re-check every witness embedding against the database.

        Raises :class:`PatternError` on the first inconsistency; a
        no-op for patterns without witnesses.  Used by tests and by
        result post-processing as an end-to-end sanity net.
        """
        for tid in self.transactions:
            witness = self.witnesses.get(tid)
            if witness is None:
                continue
            graph = database[tid]
            if len(witness) != self.size:
                raise PatternError(
                    f"witness {witness!r} in transaction {tid} has wrong size "
                    f"for pattern {self.key()}"
                )
            if len(set(witness)) != len(witness):
                raise PatternError(f"witness {witness!r} repeats vertices")
            if graph.label_multiset(witness) != self.labels:
                raise PatternError(
                    f"witness {witness!r} in transaction {tid} has labels "
                    f"{graph.label_multiset(witness)!r}, expected {self.labels!r}"
                )
            if not graph.is_clique(witness):
                raise PatternError(
                    f"witness {witness!r} in transaction {tid} is not a clique"
                )

    def __str__(self) -> str:
        return self.key()


def make_pattern(
    labels: Iterable[Label],
    support: int,
    transactions: Iterable[int] = (),
    witnesses: Optional[Dict[int, Tuple[int, ...]]] = None,
) -> CliquePattern:
    """Convenience constructor sorting labels and transactions."""
    return CliquePattern(
        form=CanonicalForm.from_labels(labels),
        support=support,
        transactions=tuple(sorted(transactions)),
        witnesses=dict(witnesses or {}),
    )
