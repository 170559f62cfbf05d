"""Independently assembled homology tables for the verification target.

Everything here is closed-form: homology of real projective space with
its three coefficient systems, homology of its unit tangent bundle via
the two-row Gysin spectral sequence of the sphere bundle, and the
assembly of the path-space table from one projective-space block plus
one shifted unit-tangent block per filtration level, as a table up to
a degree bound or, mod 2, as a series in every degree.  No rewriting code
is consulted; agreement with the presented algebras is established by
the comparison layer on top.

Degrees are homological and tables are finite.  A graded table is a
tuple with one value per degree 0..top, the zero of its kind beyond:
an int (an F2 dimension) or an AbelianGroup.  Bigraded tables, the
assembled homology in either coefficient ring and the named generator
cells, are tables.BigradedTable.

>>> real_proj_homology(3, COEFF_Z)[1].render()
'Z/2'
>>> unit_tangent_homology(2, COEFF_Z)[1].render()
'Z/4'
>>> uct_f2(unit_tangent_homology(2, COEFF_Z))
(1, 1, 1, 1)
>>> path_space_homology(2, COEFF_Z, 3).get(2, 1, ZERO_GROUP).render()
'Z/4'
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .tables import BigradedSeries, BigradedTable, CheckItem, CheckReport

COEFF_Z = "Z-trivial"
COEFF_TWISTED = "Z-twisted-o"
COEFF_PULLBACK = "Z-pullback-pi*o"
COEFF_F2 = "F2"


class CoefficientError(ValueError):
    """Unsupported coefficient system for the requested space."""


class GysinError(RuntimeError):
    """A cell of unit_tangent_homology's E2 page that even n corrects
    does not hold the value that _GYSIN corrects it from: the rows'
    closed forms and the correction disagree."""


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant form: free rank
    plus cyclic torsion orders in ascending order."""

    rank: int = 0
    torsion: tuple[int, ...] = ()
    # two_torsion's count, made once per group, as tables repeat groups
    _two: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion orders must be >= 2")
        if tuple(sorted(self.torsion)) != self.torsion:
            raise ValueError("torsion orders must be ascending")
        object.__setattr__(self, "_two",
                           sum(1 for t in self.torsion if t % 2 == 0))

    def __bool__(self) -> bool:
        """True unless trivial, as a dimension is true unless zero."""
        return self.rank > 0 or bool(self.torsion)

    def __add__(self, other: "AbelianGroup") -> "AbelianGroup":
        if not self or not other:
            return other or self
        return AbelianGroup(rank=self.rank + other.rank,
                            torsion=tuple(sorted(self.torsion + other.torsion)))

    def two_torsion(self) -> int:
        """Number of cyclic summands of even order; a Z/4 counts once."""
        return self._two

    def render(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = AbelianGroup()
Z = AbelianGroup(rank=1)
Z2 = AbelianGroup(torsion=(2,))
Z4 = AbelianGroup(torsion=(4,))


# ---------------------------------------------------------------------------
# Real projective space


def real_proj_homology(n: int, coeff: str) -> tuple:
    """Homology of n-dimensional real projective space, one dimension
    (COEFF_F2) or AbelianGroup per degree 0..n.

    Coefficients: COEFF_Z, COEFF_TWISTED (the orientation system, which
    is trivial for odd n), or COEFF_F2.  The groups are read off the
    cellular complex with one cell in each degree 0..n (Hatcher,
    section 2.2): the boundary map out of the d-cell, 0 < d <= n,
    multiplies by 2 for even d and by 0 for odd d, with the two parities
    swapped for the twisted system of an even n.  So H_d = ker / im is
    0 where the map out of the d-cell doubles, else Z modulo the image
    of the map into it: Z/2 or Z.  Mod 2 every map vanishes.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if coeff == COEFF_F2:
        return (1,) * (n + 1)
    if coeff not in (COEFF_Z, COEFF_TWISTED):
        raise CoefficientError(
            f"projective space supports {COEFF_Z}, {COEFF_TWISTED}, "
            f"{COEFF_F2}; got {coeff!r}")
    twisted = coeff == COEFF_TWISTED and n % 2 == 0
    # whether the boundary map out of the d-cell doubles, d = 0..n + 1
    doubles = [0 < d <= n and d % 2 == twisted for d in range(n + 2)]
    return tuple(ZERO_GROUP if out else Z2 if into else Z
                 for out, into in zip(doubles, doubles[1:]))


# ---------------------------------------------------------------------------
# Unit tangent bundle


def _shift_sum(row0: tuple, row1: tuple, shift: int, top: int) -> list:
    zero = type(row0[0])()  # 0 or the zero group
    return [a + b for a, b in zip(row0 + (zero,) * (top + 1 - len(row0)),
                                  (zero,) * shift + row1)]


# unit_tangent_homology's Gysin assembly over each coefficient system:
# the systems of the two rows, then each cell that even n corrects, as
# (degree - (n - 1), E2 value, homology)
_GYSIN = {
    COEFF_Z: ((COEFF_Z, COEFF_TWISTED), ((0, Z2 + Z2, Z4),)),
    COEFF_PULLBACK: ((COEFF_TWISTED, COEFF_Z),
                     ((0, Z, ZERO_GROUP), (1, Z + Z2, Z2))),
    COEFF_F2: ((COEFF_F2, COEFF_F2), ((0, 2, 1), (1, 2, 1))),
}


def unit_tangent_homology(n: int, coeff: str) -> tuple:
    """Homology of the unit tangent bundle of n-dimensional real
    projective space, a sphere bundle with (n-1)-dimensional fiber,
    one dimension (COEFF_F2) or AbelianGroup per degree 0..2n-1.

    Coefficients: COEFF_Z, COEFF_PULLBACK (the pullback of the
    orientation system of the base), or COEFF_F2.

    The Gysin sequence has two rows, the base homology and the base
    homology shifted up by n-1.  The fiber sphere is oriented by the
    orientation system of the base, so over COEFF_Z the rows carry the
    trivial and the twisted system, over COEFF_PULLBACK the twisted and
    the trivial one, and over F2 both carry F2.  The only possibly
    nonzero differential is capping with the Euler class of the tangent
    bundle.  The rows' direct sum is the E2 page; _GYSIN holds the rows'
    systems and the cells that the cases below change.

    Odd n: the Euler class vanishes (Euler number 0) and the rows
    split, for both supported integral systems (the orientation system
    is trivial then) and for F2.  At n = 1, a circle base with 0-sphere
    fiber, this gives two disjoint circles.

    Even n, trivial coefficients: the differential vanishes because its
    source H_n of the base is zero, but the rows glue: in degree n-1
    the two Z/2 summands extend to Z/4.

    Even n, pullback coefficients: the Euler number of the base is 1,
    so the differential is an isomorphism from the top twisted group of
    row 0 onto the bottom free group of row 1; degree n-1 empties out
    and degree n retains Z/2.

    Even n, F2: the mod-2 Euler class is nonzero, killing one F2 in
    each of degrees n-1 and n; every remaining degree 0..2n-1 carries
    dimension 1.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if coeff not in (COEFF_Z, COEFF_PULLBACK, COEFF_F2):
        raise CoefficientError(
            f"unit tangent bundle supports {COEFF_Z}, {COEFF_PULLBACK}, "
            f"{COEFF_F2}; got {coeff!r}")
    (sys0, sys1), corrected = _GYSIN[coeff]
    groups = _shift_sum(real_proj_homology(n, sys0),
                        real_proj_homology(n, sys1), n - 1, 2 * n - 1)
    if n % 2 == 0:
        for d, e2, value in corrected:
            if groups[n - 1 + d] != e2:
                raise GysinError(f"E2 cell of degree {n - 1 + d} over "
                                 f"{coeff} is {groups[n - 1 + d]!r}, "
                                 f"not {e2!r} (n={n})")
            groups[n - 1 + d] = value
    return tuple(groups)


# ---------------------------------------------------------------------------
# Path-space assembly


def block_local_system(n: int, k: int) -> str:
    """Coefficient system carried by filtration block k >= 1.

    The block is a copy of the unit tangent bundle twisted by the
    orientation character of the negative bundle of its critical
    submanifold; that character is nontrivial exactly when both n and
    the iteration count k are even.
    """
    if k < 1:
        raise ValueError("blocks are indexed from 1")
    if n % 2 == 0 and k % 2 == 0:
        return COEFF_PULLBACK
    return COEFF_Z


def block_shift(n: int, k: int) -> int:
    """Degree offset of block k in the assembled table."""
    return 1 + (k - 1) * n


def block_systems(n: int, coeff: str) -> tuple[str, ...]:
    """Coefficient systems of the unit tangent blocks of the assembly
    over coeff; block k carries entry (k - 1) % len.  For COEFF_Z these
    are read off block_local_system at k = 1 and 2, since it depends
    only on the parity of k; COEFF_F2 has the one system."""
    if coeff == COEFF_F2:
        return (COEFF_F2,)
    if coeff != COEFF_Z:
        raise CoefficientError(
            f"path-space assembly supports {COEFF_Z} and {COEFF_F2}; "
            f"got {coeff!r}")
    return tuple(dict.fromkeys(block_local_system(n, k) for k in (1, 2)))


def path_space_homology(n: int, coeff: str,
                        degree_bound: int) -> BigradedTable:
    """Assembled homology table of the space of paths with endpoints on
    the real locus, bigraded by (degree, filtration level).

    Level 0 is the base projective space; level k >= 1 contributes the
    unit tangent bundle with its block coefficient system, shifted up
    by block_shift(n, k).  Supported coefficients: COEFF_Z (each block
    keeps its own integral system, cells hold AbelianGroups) and
    COEFF_F2 (cells hold dimensions).
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    blocks = [unit_tangent_homology(n, c) for c in block_systems(n, coeff)]
    base = real_proj_homology(n, coeff)[:degree_bound + 1]
    cells = {(d, 0): v for d, v in enumerate(base)}
    for k in itertools.count(1):
        s = block_shift(n, k)
        if s > degree_bound:
            break
        cells.update(((s + d, k), v) for d, v in enumerate(
            blocks[(k - 1) % len(blocks)][:degree_bound - s + 1]))
    return BigradedTable.from_dict(cells, degree_bound)


def path_space_series(n: int) -> BigradedSeries:
    """The mod-2 path_space_homology in every degree, as a series with
    period n: block_shift(n, k + 1) = block_shift(n, k) + n, so the
    levels k >= 1 sum to x^block_shift(n, 1) y P_UT(x) / (1 - x^n y),
    and level 0 adds P_RP(x) = P_RP(x) (1 - x^n y) / (1 - x^n y), with
    P the mod-2 Poincare polynomials of real projective space and of
    its unit tangent bundle."""
    rp, s = real_proj_homology(n, COEFF_F2), block_shift(n, 1)
    ut = unit_tangent_homology(n, COEFF_F2)
    return BigradedSeries.from_terms(
        [((d, 0), v) for d, v in enumerate(rp)]
        + [((d + n, 1), -v) for d, v in enumerate(rp)]
        + [((s + d, 1), v) for d, v in enumerate(ut)], n)


# ---------------------------------------------------------------------------
# Mod-2 comparison and internal consistency


def uct_f2(table):
    """Mod-2 dimensions determined by an integral table, graded (a
    tuple) or bigraded.

    dim H_d(-; F2) = rank H_d + t(H_d) + t(H_{d-1}) where t counts
    cyclic summands of even order.  The formula also holds for the
    twisted systems used here because they reduce mod 2 to the trivial
    one.
    """
    if isinstance(table, tuple):
        # H_d beside H_(d-1), one degree past each end
        dims = [g.rank + g.two_torsion() + below.two_torsion()
                for g, below in zip(table + (ZERO_GROUP,),
                                    (ZERO_GROUP,) + table)]
        while dims and dims[-1] == 0:
            dims.pop()
        return tuple(dims)
    cells: dict[tuple[int, int], int] = {}
    for (d, l), g in table.entries:
        t = g.two_torsion()
        cells[d, l] = cells.get((d, l), 0) + g.rank + t
        if t and d < table.degree_bound:
            cells[d + 1, l] = cells.get((d + 1, l), 0) + t
    return BigradedTable.from_dict(cells, table.degree_bound)


def stable_ranks(degree: int) -> int:
    """Mod-2 dimension in the range where the table no longer depends
    on n: a single class in degree 0, two in every positive degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return 1 if degree == 0 else 2


def consistency_checks(n: int) -> CheckReport:
    """Internal cross-checks of the homology tables for one n.

    Mod-2 reduction of every integral table (projective space over
    both of its systems, the unit tangent bundle over each block
    system) must reproduce the F2 table; the unit tangent tables must
    satisfy closed-manifold symmetry and have zero Euler
    characteristic; the assembled table, in degrees 0..4n + 2, must
    restrict correctly to levels and match the stable range near the
    bottom.
    """
    D = 4 * n + 2
    items = []

    f2_st = unit_tangent_homology(n, COEFF_F2)
    for space, homology, f2, systems in (
            ("projective space", real_proj_homology,
             real_proj_homology(n, COEFF_F2), (COEFF_Z, COEFF_TWISTED)),
            ("unit tangent", unit_tangent_homology, f2_st,
             block_systems(n, COEFF_Z))):
        for tag in systems:
            got = uct_f2(homology(n, tag))
            items.append(CheckItem(
                name=f"{space} mod-2 reduction [{tag}]",
                passed=got == f2,
                detail=f"{got} vs {f2}"))

    items.append(CheckItem(
        name="unit tangent mod-2 palindrome",
        passed=f2_st == f2_st[::-1],
        detail=f"{f2_st}"))
    chi = sum((-1) ** d * v for d, v in enumerate(f2_st))
    items.append(CheckItem(
        name="unit tangent Euler characteristic zero",
        passed=chi == 0,
        detail=f"chi = {chi}"))

    zt = path_space_homology(n, COEFF_Z, D)
    f2t = path_space_homology(n, COEFF_F2, D)
    items.append(CheckItem(
        name=f"assembled mod-2 reduction, cell by cell, degrees 0..{D}",
        passed=uct_f2(zt) == f2t,
        detail=""))

    low = [sum(f2t.get(d, l) for l in (0, 1)) for d in range(n)]
    want = [stable_ranks(d) for d in range(n)]
    items.append(CheckItem(
        name="stable range at levels 0..1",
        passed=low == want,
        detail=f"{low} vs {want}"))

    return CheckReport(title=f"homology consistency (n={n})",
                       items=tuple(items))


# ---------------------------------------------------------------------------
# Named generating cells


def _power(letter: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return letter
    return f"{letter}^{e}"


def _cell_name(h: int, mid: str, y: int) -> str:
    name = _power("H", h) + mid + _power("Y", y)
    return name if name else "U"


def _alternating(start: str, length: int) -> str:
    other = "Sb" if start == "S" else "S"
    return "".join(start if i % 2 == 0 else other for i in range(length))


def generator_table(n: int, max_level: int) -> BigradedTable:
    """Named basis cells of the assembled table, levels 0..max_level:
    each cell holds its tuple of names, degrees run to the top cell.

    Level 0 lists the unit in degree n and the powers of the
    degree-lowering generator below it.  For n >= 2 each level k >= 1
    lists one family H^j X Y^(k-1) through the middle generator X and
    one family H^j Y^k of pure k-th powers, j < width; every cell is
    one-dimensional.  Parity picks X, width and the degree of X:
    S, n + 1 and 1 for odd n; T, n and 0 for even n.  For n = 1 the two
    middle generators alternate and each cell is two-dimensional.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    cellmap: dict[tuple[int, int], list[str]] = {}

    def put(degree: int, level: int, name: str) -> None:
        cellmap.setdefault((degree, level), []).append(name)

    put(n, 0, "U")
    for j in range(1, n + 1):
        put(n - j, 0, _power("H", j))

    mid, width, offset = ("S", n + 1, 1) if n % 2 == 1 else ("T", n, 0)
    for k in range(1, max_level + 1):
        if n == 1:
            for start in ("S", "Sb"):
                put(k + 1, k, _alternating(start, k))
                put(k, k, "H" + _alternating(start, k))
            continue
        for j in range(width):
            put(offset + k * n - j, k, _cell_name(j, mid, k - 1))
        for j in range(width):
            put((k + 1) * n - j, k, _cell_name(j, "", k))

    # insertion order inside a cell lists the middle-generator family
    # before the pure-power family
    return BigradedTable.from_dict(
        {key: tuple(names) for key, names in cellmap.items()},
        max(d for d, _ in cellmap))
