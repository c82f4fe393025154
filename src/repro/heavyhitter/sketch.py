"""Count-min sketch for approximate per-flow byte counting.

AFQ (Sharma et al., NSDI '18) — the calendar-queue fair-queuing
approximation Cebinae is compared against — tracks every active flow's
bytes in a count-min sketch.  The sketch *over*-estimates under hash
collisions, which is exactly the failure mode the paper's "never make
unfairness worse" principle forbids for Cebinae (an over-estimated flow
gets unfairly delayed); keeping both data structures in the repository
makes that design contrast testable.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from ..analysis.invariants import unwrap
from .hashpipe import key_bytes, salted_hash


class CountMinSketch:
    """A standard count-min sketch over byte counts."""

    def __init__(self, rows: int = 2, columns: int = 2048,
                 seed: int = 1) -> None:
        if rows < 1 or columns < 1:
            raise ValueError("sketch dimensions must be positive")
        self.rows = rows
        self.columns = columns
        self._salts = [seed * 0x9E3779B1 + row * 0xC2B2AE35
                       for row in range(rows)]
        self.reset()
        self.updates = 0

    def _indexes(self, key: Hashable) -> List[int]:
        data = key_bytes(key)
        return [salted_hash(data, salt) % self.columns
                for salt in self._salts]

    def update(self, key: Hashable, amount: int) -> int:
        """Add ``amount`` for ``key``; returns the new estimate."""
        self.updates += 1
        estimate: Optional[int] = None
        for row, index in enumerate(self._indexes(key)):
            self._counts[row][index] += amount
            value = self._counts[row][index]
            estimate = value if estimate is None else min(estimate,
                                                          value)
        return unwrap(estimate, "sketch has no rows")

    def estimate(self, key: Hashable) -> int:
        """The (never under-) estimated byte count for ``key``."""
        return min(self._counts[row][index]
                   for row, index in enumerate(self._indexes(key)))

    def reset(self) -> None:
        self._counts: List[List[int]] = [[0] * self.columns
                                         for _ in range(self.rows)]

    @property
    def total_added(self) -> int:
        """Total bytes added (row 0 carries every update once)."""
        return sum(self._counts[0])
