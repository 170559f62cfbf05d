"""Shared result containers: bigraded tables and series, and check
reports.

A BigradedTable holds one value per (degree, level) cell of a finite
table, whatever the value is: a mod-2 dimension (a series expanded to
a degree bound, such as the rewriting side's Hilbert counts) or a
tuple of generator names.  A value that tests false is the zero of its
kind and is not stored.  Graded tables are plain tuples, one value per
degree, and the assembled homology is a stream of its nonzero cells.
A BigradedSeries holds the mod-2 dimensions of every degree in closed
form.  Both routes produce it, so the comparison layer can stay
agnostic about where a series came from.
"""

from __future__ import annotations

import itertools
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
    def cells(self) -> dict:
        """The nonzero cells as a dict, built once; read only."""
        return dict(self.entries)


@dataclass(frozen=True)
class BigradedSeries:
    """The series numerator / (1 - x^period y), x counting degree and
    y level: the coefficient of x^d y^l is the value of cell (d, l).
    numerator holds its nonzero terms ((degree, level), coefficient),
    sorted, so two series are equal exactly when their fields are."""

    numerator: tuple[tuple[tuple[int, int], int], ...]
    period: int

    @classmethod
    def from_terms(cls, terms, period: int) -> "BigradedSeries":
        """The series whose numerator is the sum of the
        ((degree, level), coefficient) terms."""
        acc = {}
        for cell, c in terms:
            acc[cell] = acc.get(cell, 0) + c
        return cls(tuple(sorted(filter(itemgetter(1), acc.items()))), period)

    def expand(self, degree_bound: int) -> BigradedTable:
        """The cells of degrees 0..degree_bound: term (d, l) adds its
        coefficient to the cells (d + k*period, l + k), k >= 0."""
        if degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        cells = {}
        for (d, l), c in self.numerator:
            for cell in zip(range(d, degree_bound + 1, self.period),
                            itertools.count(l)):
                cells[cell] = cells.get(cell, 0) + c
        return BigradedTable.from_dict(cells, degree_bound)


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
