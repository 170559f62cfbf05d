"""Shared result containers: bigraded tables and check reports.

A BigradedTable holds one value per (degree, level) cell, whatever the
value is: a mod-2 dimension (the rewriting side's Hilbert counts and
the homology side's F2 tables), an integral AbelianGroup, or a tuple
of generator names.  A value that tests false is the zero of its kind
and is not stored.  Graded tables are plain tuples, one value per
degree.  Both routes produce these types, so the comparison layer can
stay agnostic about where a table came from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter


@dataclass(frozen=True)
class BigradedTable:
    """Value per (degree, level) cell, degrees 0..degree_bound.

    Zero cells are omitted from entries; get() returns the caller's
    zero for them.
    """

    entries: tuple[tuple[tuple[int, int], object], ...]
    degree_bound: int

    @classmethod
    def from_dict(cls, entries: dict, degree_bound: int) -> "BigradedTable":
        items = tuple(sorted(filter(itemgetter(1), entries.items()),
                             key=itemgetter(0)))
        return cls(entries=items, degree_bound=degree_bound)

    def get(self, degree: int, level: int, zero=0):
        return self.cells.get((degree, level), zero)

    @cached_property
    def degree_totals(self) -> Counter[int]:
        """Sum of dimensions over levels per degree, in one pass, once."""
        totals: Counter[int] = Counter()
        for (d, _), v in self.entries:
            totals[d] = totals.get(d, 0) + v
        return totals

    @cached_property
    def cells(self) -> dict:
        """The nonzero cells as a dict, built once; read only."""
        return dict(self.entries)


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
