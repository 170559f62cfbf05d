"""Independently assembled homology tables for the verification target.

Real projective space, with its three coefficient systems, and its unit
tangent bundle are read off one cellular chain complex (_cellular):
one row of cells for the base, a second row n - 1 degrees up for the
sphere bundle, the rows carrying a local system l and l o (o the
orientation system), and one boundary between them weighted by the
Euler number of the base.  The path-space cells are read off one
projective-space block plus one shifted unit-tangent block per
filtration level, in (degree, level) order, up to a degree bound or,
mod 2, as a series in every degree.  No rewriting code is consulted;
agreement with the presented algebras is established by the comparison
layer on top.

Degrees are homological and tables are finite.  A graded table is a
tuple with one value per degree 0..top, the zero of its kind beyond:
an int (an F2 dimension) or an AbelianGroup.  The assembled homology,
in either coefficient ring, is a stream of its nonzero cells
((degree, level), value), read as it is consumed; the named generator
cells are a tables.BigradedTable.

>>> real_proj_homology(3, COEFF_Z)[1].render()
'Z/2'
>>> unit_tangent_homology(2, COEFF_Z)[1].render()
'Z/4'
>>> uct_f2(unit_tangent_homology(2, COEFF_Z))
(1, 1, 1, 1)
>>> [(cell, g.render()) for cell, g in path_space_homology(2, COEFF_Z, 2)]
[((0, 0), 'Z'), ((1, 0), 'Z/2'), ((1, 1), 'Z'), ((2, 1), 'Z/4')]
"""

from __future__ import annotations

from math import gcd
from dataclasses import dataclass, field

from .tables import BigradedSeries, BigradedTable, CheckItem, CheckReport

COEFF_Z = "Z-trivial"
COEFF_TWISTED = "Z-twisted-o"
COEFF_PULLBACK = "Z-pullback-pi*o"
COEFF_F2 = "F2"


class CoefficientError(ValueError):
    """Unsupported coefficient system for the requested space."""


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
        return bool(self.rank or self.torsion)

    def __add__(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup(self.rank + other.rank,
                            tuple(sorted(self.torsion + other.torsion)))

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
# Cellular homology of real projective space and its unit tangent bundle


def _cellular(n, systems, euler, mod2):
    """Homology over Z, or over F2 if mod2, of a cellular chain complex
    over n-dimensional real projective space with one or two rows of
    cells, one AbelianGroup or dimension per degree.  Row r carries the
    rank-one local system of monodromy systems[r] = +-1 and sits r(n - 1)
    degrees up; euler, 0 or 1, is the boundary that crosses the rows.

    The boundary.  RP^n has one cell e^i for each i = 0..n, attached by
    the double cover S^(i-1) -> RP^(i-1).  With coefficients in a local
    system of monodromy l around the generator of the fundamental group
    (Hatcher, Algebraic Topology, section 3.H), the incidence number of
    e^i on e^(i-1) sums over the two sheets of that cover.  They differ
    by the antipodal map of S^(i-1), of degree (-1)^i, and by the deck
    transformation, which acts on the coefficients by l.  So
    d e^i = (1 + (-1)^i l) e^(i-1) for i >= 1, and d e^0 = 0: 2 or 0 by
    the parity of i.  The antipodal map of S^n has degree (-1)^(n+1), so
    RP^n has the orientation system o = (-1)^(n+1).

    The unit tangent bundle has fibre S^(n-1) = e^0 u e^(n-1) and is
    trivial over each cell, so it has the cells e^i x e^0 (row 0, degree
    i) and e^i x e^(n-1) (row 1, degree i + n - 1).  Row 0 is the image
    of a section, which exists over the (n - 1)-skeleton as the fibre is
    (n - 2)-connected, and carries l.  A cell of row 1 carries the
    fibre's fundamental class, on which the generator of the fundamental
    group acts by the orientation character of the tangent bundle, o:
    row 1 carries l o.  A boundary out of row 1 lies over the base's
    (i - 1)-skeleton, where row 0 has no cell of its degree i + n - 2 (at
    n = 1 the fibre is two points, and euler = 0).  A boundary out of
    row 0 lands in degree i - 1 <= n - 1, where row 1 has a cell only
    for i = n: the one cross term is d(e^n x e^0) = ... + e (e^0 x
    e^(n-1)).  The section extends over the top cell but for one point,
    and e (e^0 x e^(n-1)) is the fibre sphere round that point counted
    with the index there: the obstruction to extending it, that is the
    Euler class (Milnor and Stasheff, Characteristic Classes), and by
    Poincare-Hopf e = chi(RP^n) = (1 + (-1)^n)/2.  Its sign depends on
    orientations and changes no group below.

    Reading the groups.  For a complex of free modules, H_d is Z to the
    number of cells of degree d less the ranks of the boundaries out of
    degrees d and d + 1, plus Z/f for each invariant factor f > 1 of the
    second.  Each degree holds at most two cells, so the boundary out of
    a degree is [[a, 0], [x, b]], rows 0 and 1 of the target by rows 0
    and 1 of the source, with invariant factors d1 = gcd(a, x, b) and
    d2 = |ab| / d1.  Over F2 the entries are read mod 2: the rows'
    coefficients 1 + l and 1 - l are even and vanish, every factor is 0
    or 1, and H_d is a dimension.  One row reads b = x = 0.  A cell is
    alone in its degree except at degrees n - 1 and n of two rows, and
    next to those the other row adds only a zero row or column to a
    boundary, which moves no rank or factor.  So each row is read alone,
    its cells 1..n - 1 one group per parity, and degrees n - 1 and n are
    read from the 2x2 block.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    groups = {(g.rank, g.torsion): g for g in (ZERO_GROUP, Z, Z2, Z4)}

    def read(a, a1, cells=1, b1=0, x1=0, b=0, x=0):
        # the group of a degree of cells cells whose boundary is
        # [[a, 0], [x, b]], with [[a1, 0], [x1, b1]] out of the degree
        # above; each group but the named ones is built once per call
        d = gcd(a1, b1, x1)
        free = cells - bool(a + b + x) - bool(a * b) - bool(d) - bool(a1 * b1)
        if mod2:
            return free
        key = free, tuple(f for f in (d, d and a1 * b1 // d) if f > 1)
        return groups[key] if key in groups else groups.setdefault(
            key, AbelianGroup(*key))

    table = ()
    for l in systems:
        # the boundary coefficients 1 + l and 1 - l of the row's even and
        # odd cells (cell 0 has none), both even
        even, odd = pair = (0, 0) if mod2 else (1 + l, 1 - l)
        row = (read(0, odd), *((read(odd, even), read(even, odd)) * n)[:n - 1],
               read(pair[n % 2], 0))
        # a second row shares degrees n - 1 and n with the first, whose
        # cells n - 1 and n meet its cells 0 and 1 (it has no cell 2 at n = 1)
        table = table[:n - 1] + (
            read(n > 1 and first[1 - n % 2], first[n % 2], 2, odd, euler),
            read(first[n % 2], 0, 2, n > 1 and even, 0, odd, euler)
        ) + row[2:] if table else row
        first = pair
    return table


def real_proj_homology(n: int, coeff: str) -> tuple:
    """Homology of n-dimensional real projective space, one dimension
    (COEFF_F2) or AbelianGroup per degree 0..n: the one-row case of
    _cellular.

    Coefficients: COEFF_Z, COEFF_TWISTED (the orientation system o,
    which is trivial for odd n), or COEFF_F2.
    """
    # _cellular refuses n < 1 before any coefficient system
    if n > 0 and coeff not in (COEFF_Z, COEFF_TWISTED, COEFF_F2):
        raise CoefficientError(
            f"projective space supports {COEFF_Z}, {COEFF_TWISTED}, "
            f"{COEFF_F2}; got {coeff!r}")
    return _cellular(n, ((-1) ** (n + 1) if coeff == COEFF_TWISTED else 1,),
                     0, coeff == COEFF_F2)


def unit_tangent_homology(n: int, coeff: str) -> tuple:
    """Homology of the unit tangent bundle of n-dimensional real
    projective space, a sphere bundle with (n-1)-dimensional fiber,
    one dimension (COEFF_F2) or AbelianGroup per degree 0..2n-1: the
    two-row case of _cellular, with cross term chi(RP^n).

    Coefficients: COEFF_Z, COEFF_PULLBACK (the pullback of the
    orientation system o of the base, so l = o), or COEFF_F2.  Odd n
    has chi = 0 and o = 1, so the rows split; at n = 1 they give two
    disjoint circles.  Even n has chi = 1: over Z the cross term glues
    the Z/2 of each row in degree n - 1 into Z/4, over the pullback
    system it cancels the free group of degree n - 1 against that of
    degree n, and mod 2 it kills one class in each of those degrees.
    """
    if n > 0 and coeff not in (COEFF_Z, COEFF_PULLBACK, COEFF_F2):
        raise CoefficientError(
            f"unit tangent bundle supports {COEFF_Z}, {COEFF_PULLBACK}, "
            f"{COEFF_F2}; got {coeff!r}")
    o = (-1) ** (n + 1)
    return _cellular(n, (o, 1) if coeff == COEFF_PULLBACK else (1, o),
                     1 - n % 2, coeff == COEFF_F2)


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


def path_space_homology(n: int, coeff: str, degree_bound: int):
    """Assembled homology of the space of paths with endpoints on the
    real locus up to degree_bound: its nonzero cells
    ((degree, level), value), yielded in (degree, level) order as they
    are read.

    Level 0 is the base projective space; level k >= 1 contributes the
    unit tangent bundle with its block coefficient system, shifted up
    by block_shift(n, k).  Supported coefficients: COEFF_Z (each block
    keeps its own integral system, cells hold AbelianGroups) and
    COEFF_F2 (cells hold dimensions).  Both refusals, a negative bound
    and an unsupported system, fire at the call.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    blocks = [unit_tangent_homology(n, c) for c in block_systems(n, coeff)]
    return _assembly(n, real_proj_homology(n, coeff), blocks,
                     block_shift(n, 1), degree_bound)


def _assembly(n, base, blocks, s, degree_bound):
    # block k, of 2n degrees, starts at s + (k - 1) n, so degree d lies
    # in the blocks of levels max(1, q) to q + 1, q = (d - s) // n, and
    # in level 0 while d <= n
    for d in range(degree_bound + 1):
        if d <= n and base[d]:
            yield (d, 0), base[d]
        q = (d - s) // n
        for k in range(max(q, 1), q + 2):
            v = blocks[(k - 1) % len(blocks)][d - s - (k - 1) * n]
            if v:
                yield (d, k), v


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


def uct_f2(table: tuple) -> tuple:
    """Mod-2 dimensions determined by a graded integral table.

    dim H_d(-; F2) = rank H_d + t(H_d) + t(H_{d-1}) where t counts
    cyclic summands of even order.  The formula also holds for the
    twisted systems used here because they reduce mod 2 to the trivial
    one.
    """
    # H_d beside H_(d-1), one degree past each end
    dims = [g.rank + g._two + below._two
            for g, below in zip(table + (ZERO_GROUP,), (ZERO_GROUP,) + table)]
    while dims and dims[-1] == 0:
        dims.pop()
    return tuple(dims)


def stable_ranks(degree: int) -> int:
    """Mod-2 dimension in the range where the table no longer depends
    on n: a single class in degree 0, two in every positive degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return 1 if degree == 0 else 2


def consistency_checks(n: int) -> CheckReport:
    """Internal cross-checks of the homology tables for one n.

    Each integral table (projective space over its trivial system, and
    its twisted one for even n; the unit tangent bundle over each block
    system) must reduce mod 2 to the F2 table, the mod-2 unit tangent
    table must be a palindrome, and the F2 assembly must give the stable
    range below degree n.  The palindrome, of even length 2n, implies a
    zero Euler characteristic.  Reducing the assembly would repeat the
    tables' reductions, as path_space_homology places them in both rings.
    For odd n the twisted system is trivial, and its reduction a repeat.
    """
    items = []

    f2_st = unit_tangent_homology(n, COEFF_F2)
    for space, homology, f2, systems in (
            ("projective space", real_proj_homology,
             real_proj_homology(n, COEFF_F2),
             (COEFF_Z, COEFF_TWISTED) if n % 2 == 0 else (COEFF_Z,)),
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

    low = [0] * n
    for (d, _), v in path_space_homology(n, COEFF_F2, n - 1):
        low[d] += v
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
