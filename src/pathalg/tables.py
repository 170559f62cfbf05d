"""Shared result containers: bigraded dimension tables and check reports.

Both the rewriting side and the homology side produce values of these
types, so the comparison layer can stay agnostic about where a table
came from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class BigradedDimTable:
    """Dimension per (degree, level) cell, degrees 0..degree_bound.

    Zero cells are omitted from entries; dim() returns 0 for them.
    """

    entries: tuple[tuple[tuple[int, int], int], ...]
    degree_bound: int

    @classmethod
    def from_dict(cls, entries: dict[tuple[int, int], int],
                  degree_bound: int) -> "BigradedDimTable":
        items = tuple(sorted((k, v) for k, v in entries.items() if v))
        return cls(entries=items, degree_bound=degree_bound)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def dim(self, degree: int, level: int) -> int:
        return self._cells.get((degree, level), 0)

    def degree_totals(self) -> Counter[int]:
        """Sum over levels per degree, in one pass over the cells."""
        totals: Counter[int] = Counter()
        for (d, _), v in self.entries:
            totals[d] += v
        return totals

    @cached_property
    def _cells(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def levels(self) -> tuple[int, ...]:
        return tuple(sorted({l for (_, l), _ in self.entries}))


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    title: str
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def lines(self) -> list[str]:
        out = [f"{self.title}: {'pass' if self.passed else 'FAIL'}"]
        for item in self.items:
            mark = "ok " if item.passed else "BAD"
            detail = f" ({item.detail})" if item.detail else ""
            out.append(f"  [{mark}] {item.name}{detail}")
        return out
