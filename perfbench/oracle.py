"""The correctness oracle: a centralized scan of what each store holds.

Every event a store acknowledged is appended here; a query's expected
answer is the scan of those events with the closed-bounds predicate of
``RangeQuery.matches``, vectorized so checking thousands of answers stays
cheap next to the work being measured.  Answers are compared by event
identity, so a store that returned an equal-valued copy, a duplicate or
a stale event fails the check.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np


class Oracle:
    """Every event one store has acknowledged, scannable by range."""

    def __init__(self, dimensions: int) -> None:
        self.events: list[Any] = []
        self._position: dict[int, int] = {}
        self._values = np.empty((1024, dimensions))
        self._memo: dict[tuple[int, int], np.ndarray] = {}

    def add(self, event: Any) -> None:
        index = len(self.events)
        if index == len(self._values):
            self._values = np.concatenate([self._values, np.empty_like(self._values)])
        self._values[index] = event.values
        self._position[id(event)] = index
        self.events.append(event)

    def matching(self, query: Any) -> np.ndarray:
        """Indices of the stored events ``query`` matches, ascending.

        Memoized per (query object, store size): stores only grow, so an
        unchanged size means unchanged contents.
        """
        key = (id(query), len(self.events))
        hit = self._memo.get(key)
        if hit is None:
            values = self._values[: len(self.events)]
            lo = np.asarray(query.lowers)
            hi = np.asarray(query.uppers)
            hit = np.flatnonzero(((values >= lo) & (values <= hi)).all(axis=1))
            self._memo[key] = hit
        return hit

    def count(self, query: Any) -> int:
        return len(self.matching(query))

    def agrees(self, query: Any, events: Sequence[Any]) -> bool:
        """Whether ``events`` is exactly the scan's answer to ``query``."""
        expected = self.matching(query)
        if len(events) != len(expected):
            return False
        try:
            got = sorted(self._position[id(event)] for event in events)
        except KeyError:
            return False  # an event this store never acknowledged
        return got == expected.tolist()
