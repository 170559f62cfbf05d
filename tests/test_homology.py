"""Cellular homology tables and the bigraded assembly.

The expected groups below are classical values, frozen by hand as
oracles: projective spaces from their cellular complex, unit tangent
bundles from the two-row Gysin sequence and its known extension.
"""

import itertools
import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pathalg import homology
from pathalg.algebra import signature, unshifted_degree, word_level
from pathalg.cli import main
from pathalg.homology import (
    COEFF_F2,
    COEFF_PULLBACK,
    COEFF_TWISTED,
    COEFF_Z,
    AbelianGroup,
    CoefficientError,
    Z,
    Z2,
    Z4,
    ZERO_GROUP,
    block_local_system,
    block_shift,
    consistency_checks,
    generator_table,
    path_space_homology,
    path_space_series,
    real_proj_homology,
    stable_ranks,
    uct_f2,
    unit_tangent_homology,
)
from pathalg.tables import BigradedTable

Z_Z2 = Z + Z2
ZZ = AbelianGroup(rank=2)
# one factor of a generator name: a letter (Sb before S) and its power
NAME_POWER = re.compile(r"(Sb|[HSTY])(?:\^(\d+))?")
# the names of consistency_checks' items
P_Z = "projective space mod-2 reduction [Z-trivial]"
P_TWISTED = "projective space mod-2 reduction [Z-twisted-o]"
UT_Z = "unit tangent mod-2 reduction [Z-trivial]"
UT_PULLBACK = "unit tangent mod-2 reduction [Z-pullback-pi*o]"
PALINDROME = "unit tangent mod-2 palindrome"
STABLE = "stable range at levels 0..1"


def assembled(n: int, coeff: str, degree_bound: int) -> BigradedTable:
    """The cells of path_space_homology, read from this module's name,
    as the finite table they make."""
    return BigradedTable(tuple(path_space_homology(n, coeff, degree_bound)),
                         degree_bound)


def reference_assembly(n: int, coeff: str, degree_bound: int) -> tuple:
    """The assembled cells built as a dict of every cell, level by level
    while the block's shift is within the bound, then sorted."""
    blocks = [unit_tangent_homology(n, c)
              for c in homology.block_systems(n, coeff)]
    base = real_proj_homology(n, coeff)[:degree_bound + 1]
    cells = {(d, 0): v for d, v in enumerate(base)}
    for k in itertools.count(1):
        s = block_shift(n, k)
        if s > degree_bound:
            break
        cells.update(((s + d, k), v) for d, v in enumerate(
            blocks[(k - 1) % len(blocks)][:degree_bound - s + 1]))
    return BigradedTable.from_dict(cells, degree_bound).entries


class TestAbelianGroup:
    def test_invariant_form(self):
        with pytest.raises(ValueError):
            AbelianGroup(torsion=(4, 2))
        with pytest.raises(ValueError):
            AbelianGroup(torsion=(1,))
        with pytest.raises(ValueError):
            AbelianGroup(rank=-1)

    def test_render(self):
        assert ZERO_GROUP.render() == "0"
        assert Z.render() == "Z"
        assert ZZ.render() == "Z^2"
        assert Z_Z2.render() == "Z + Z/2"
        assert Z4.render() == "Z/4"

    def test_two_torsion_counts_summands_not_order(self):
        assert Z4.two_torsion() == 1
        assert (Z2 + Z2).two_torsion() == 2
        assert AbelianGroup(torsion=(3,)).two_torsion() == 0


class TestProjectiveSpace:
    def test_trivial_coefficients(self):
        assert real_proj_homology(1, COEFF_Z) == (Z, Z)
        assert real_proj_homology(2, COEFF_Z) == (Z, Z2, ZERO_GROUP)
        assert real_proj_homology(3, COEFF_Z) == (Z, Z2, ZERO_GROUP, Z)
        assert real_proj_homology(4, COEFF_Z) == \
            (Z, Z2, ZERO_GROUP, Z2, ZERO_GROUP)
        assert real_proj_homology(5, COEFF_Z) == \
            (Z, Z2, ZERO_GROUP, Z2, ZERO_GROUP, Z)

    def test_twisted_coefficients_even(self):
        assert real_proj_homology(2, COEFF_TWISTED) == \
            (Z2, ZERO_GROUP, Z)
        assert real_proj_homology(4, COEFF_TWISTED) == \
            (Z2, ZERO_GROUP, Z2, ZERO_GROUP, Z)

    def test_twisted_is_trivial_for_odd_n(self):
        for n in (1, 3, 5):
            assert real_proj_homology(n, COEFF_TWISTED) == \
                real_proj_homology(n, COEFF_Z)

    def test_mod_two(self):
        assert real_proj_homology(4, COEFF_F2) == (1, 1, 1, 1, 1)

    def test_rejects(self):
        with pytest.raises(ValueError):
            real_proj_homology(0, COEFF_Z)
        with pytest.raises(CoefficientError):
            real_proj_homology(2, COEFF_PULLBACK)


class TestUnitTangent:
    def test_circle_case_is_two_circles(self):
        assert unit_tangent_homology(1, COEFF_Z) == (ZZ, ZZ)
        assert unit_tangent_homology(1, COEFF_F2) == (2, 2)

    def test_even_trivial_has_the_extension(self):
        assert unit_tangent_homology(2, COEFF_Z) == \
            (Z, Z4, ZERO_GROUP, Z)
        assert unit_tangent_homology(4, COEFF_Z) == \
            (Z, Z2, ZERO_GROUP, Z4, ZERO_GROUP, Z2, ZERO_GROUP, Z)

    def test_even_pullback_kills_one_pair(self):
        assert unit_tangent_homology(2, COEFF_PULLBACK) == \
            (Z2, ZERO_GROUP, Z2, ZERO_GROUP)
        assert unit_tangent_homology(4, COEFF_PULLBACK) == \
            (Z2, ZERO_GROUP, Z2, ZERO_GROUP, Z2, ZERO_GROUP, Z2, ZERO_GROUP)

    def test_odd_splits(self):
        assert unit_tangent_homology(3, COEFF_Z) == \
            (Z, Z2, Z, Z_Z2, ZERO_GROUP, Z)
        assert unit_tangent_homology(5, COEFF_Z) == \
            (Z, Z2, ZERO_GROUP, Z2, Z, Z_Z2, ZERO_GROUP, Z2, ZERO_GROUP, Z)

    def test_mod_two_tables(self):
        assert unit_tangent_homology(2, COEFF_F2) == (1, 1, 1, 1)
        assert unit_tangent_homology(3, COEFF_F2) == (1, 1, 2, 2, 1, 1)
        assert unit_tangent_homology(4, COEFF_F2) == (1,) * 8

    def test_first_homology_values(self):
        # the extension is visible exactly once, at n = 2
        assert unit_tangent_homology(2, COEFF_Z)[1] == Z4
        for n in range(3, 7):
            assert unit_tangent_homology(n, COEFF_Z)[1] == Z2

    def test_euler_characteristic_and_palindrome(self):
        for n in range(2, 7):
            dims = unit_tangent_homology(n, COEFF_F2)
            assert sum((-1) ** d * v for d, v in enumerate(dims)) == 0
            assert dims == dims[::-1]

    def test_rejects_twisted_tag(self):
        with pytest.raises(CoefficientError):
            unit_tangent_homology(2, COEFF_TWISTED)


class TestCellularModel:
    """The chain complex behind both tables, read with chosen inputs."""

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_no_euler_term_gives_the_e2_page(self, n):
        # without the cross term the rows split into the projective
        # tables of l = 1 and of l o = -1, row 1 n - 1 degrees up: the E2
        # page of the Gysin sequence, Z/2 + Z/2 where the bundle has Z/4
        low = real_proj_homology(n, COEFF_Z) + (ZERO_GROUP,) * (n - 1)
        high = (ZERO_GROUP,) * (n - 1) + real_proj_homology(n, COEFF_TWISTED)
        e2 = homology._cellular(n, (1, -1), 0, False)
        assert e2 == tuple(a + b for a, b in zip(low, high))
        assert e2[n - 1] == Z2 + Z2
        f2 = homology._cellular(n, (1, -1), 0, True)
        assert (f2[n - 1], f2[n]) == (2, 2)
        assert sum(f2) == 2 * n + 2

    @pytest.mark.parametrize("n", range(1, 13))
    def test_flipping_o_in_row_one_changes_the_integral_table(self, n):
        # mod 2 every row's boundaries vanish, so the flip cannot show
        o, euler = (-1) ** (n + 1), 1 - n % 2
        for l in (1, o):
            for mod2 in (False, True):
                tables = [homology._cellular(n, (l, l * s * o), euler, mod2)
                          for s in (1, -1)]
                assert (tables[0] == tables[1]) is mod2, (n, l)


def _group(rank: int, torsion) -> AbelianGroup:
    return AbelianGroup(rank=rank, torsion=tuple(sorted(torsion)))


def kunneth(hx: tuple, hy: tuple) -> tuple:
    """Integral homology of a product X x Y from graded tables of X and
    Y, by the Künneth theorem: H_d(X x Y) is the sum of
    H_i(X) (x) H_j(Y) over i + j = d and of Tor(H_i(X), H_j(Y)) over
    i + j = d - 1.  Over Z, Z (x) G = G, Tor(Z, G) = 0, and
    Z/s (x) Z/t = Tor(Z/s, Z/t) = Z/gcd(s, t)."""
    def tensor(g, h):
        return _group(g.rank * h.rank,
                      [t for t in h.torsion for _ in range(g.rank)]
                      + [t for t in g.torsion for _ in range(h.rank)]
                      + list(tor(g, h).torsion))

    def tor(g, h):
        return _group(0, [math.gcd(s, t) for s in g.torsion
                          for t in h.torsion if math.gcd(s, t) > 1])

    out = []
    for d in range(len(hx) + len(hy)):
        total = ZERO_GROUP
        for i, g in enumerate(hx):
            if 0 <= d - i < len(hy):
                total += tensor(g, hy[d - i])
            if 0 <= d - 1 - i < len(hy):
                total += tor(g, hy[d - 1 - i])
        out.append(total)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def sphere_homology(m: int) -> tuple:
    """H_*(S^m; Z): Z in degrees 0 and m; S^0 is two points."""
    if m == 0:
        return (ZZ,)
    return (Z,) + (ZERO_GROUP,) * (m - 1) + (Z,)


def lens_space_homology(p: int) -> tuple:
    """H_*(L(p, q); Z) = Z, Z/p, 0, Z for every q: the lens space is
    the quotient of S^3 by a free Z/p action, so H_1 is that group."""
    return (Z, _group(0, (p,)), ZERO_GROUP, Z)


def kunneth_anchor(n: int, table: tuple) -> bool:
    """RP^n is parallelizable for n = 1, 3 and 7, so its unit tangent
    bundle is RP^n x S^(n-1), and its table is their Künneth product."""
    return table == kunneth(real_proj_homology(n, COEFF_Z),
                            sphere_homology(n - 1))


def lens_space_anchor(table: tuple) -> bool:
    """The unit tangent bundle of RP^2 is L(4, 1): H_1 is Z/4, not
    Z/2 + Z/2, which pins the extension the Gysin sequence leaves."""
    return table == lens_space_homology(4)


def duality_anchor(m: int, table: tuple, dual: tuple) -> bool:
    """Poincaré duality with the universal coefficient theorem on a
    closed m-manifold M: table is H_*(M; L) and dual is H_*(M; L (x) o),
    o the orientation system of M, L of fiber Z and monodromy +-1 (so
    its own dual).  Duality gives H^i(M; L) = H_(m-i)(M; L (x) o), and
    the UCT puts the rank of H_i(M; L) and the torsion of H_(i-1)(M; L)
    into H^i(M; L).  So the rank of table in degree i is dual's in
    degree m - i, and its torsion is dual's in degree m - i - 1."""
    def at(groups, d):
        return groups[d] if 0 <= d < len(groups) else ZERO_GROUP
    return all(at(table, i).rank == at(dual, m - i).rank
               and at(table, i).torsion == at(dual, m - i - 1).torsion
               for i in range(-1, m + 1))


def transfer_anchor(n: int, trivial: tuple, pullback: tuple) -> bool:
    """For even n the unit tangent bundle of S^n, the Stiefel manifold
    V_2(R^(n+1)), is the double cover of that of RP^n given by the
    pullback system, so by the transfer its rational homology is the sum
    of the two tables': Q in degrees 0 and 2n - 1, as V_2(R^(n+1)) is a
    rational (2n - 1)-sphere for even n."""
    return [a.rank + b.rank for a, b in zip(trivial, pullback)] == \
        [1] + [0] * (2 * n - 2) + [1]


class TestAnchors:
    """Known theorems as a second route to the integral unit tangent
    tables, which the closed forms and the golden data share."""

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_parallelizable_cases_are_products(self, n):
        assert kunneth_anchor(n, unit_tangent_homology(n, COEFF_Z))

    def test_kunneth_of_rp3(self):
        assert kunneth(real_proj_homology(3, COEFF_Z), sphere_homology(2)) \
            == (Z, Z2, Z, Z_Z2, ZERO_GROUP, Z)

    def test_unit_tangent_of_rp2_is_a_lens_space(self):
        assert lens_space_anchor(unit_tangent_homology(2, COEFF_Z))

    def test_projective_space_is_dual_to_its_orientation_system(self):
        # o is trivial for odd n, where RP^n is orientable
        for n in range(1, 41):
            orientation = COEFF_Z if n % 2 else COEFF_TWISTED
            assert duality_anchor(n, real_proj_homology(n, COEFF_Z),
                                  real_proj_homology(n, orientation)), n

    @pytest.mark.parametrize("coeff", [COEFF_Z, COEFF_PULLBACK])
    def test_unit_tangent_bundle_is_self_dual(self, coeff):
        # the unit sphere bundle bounds the disc bundle, an orientable
        # 2n-manifold, so it is an orientable (2n - 1)-manifold: o is
        # trivial and L (x) o = L
        for n in range(1, 41):
            table = unit_tangent_homology(n, coeff)
            assert duality_anchor(2 * n - 1, table, table), n

    def test_transfer_to_the_sphere_bundle(self):
        for n in range(2, 41, 2):
            assert transfer_anchor(n, unit_tangent_homology(n, COEFF_Z),
                                   unit_tangent_homology(n, COEFF_PULLBACK)), n

    def test_transfer_fails_with_l_one_on_the_pullback_block(self):
        # the pullback table replaced by the trivial one: l = 1 for the
        # pullback block, which the consistency suite cannot see
        for n in range(2, 41, 2):
            table = unit_tangent_homology(n, COEFF_Z)
            assert not transfer_anchor(n, table, table), n

    def test_duality_fails_on_a_damaged_table(self):
        # the Z/2 of degree 3 at n = 3 lost: degree 1 keeps its Z/2
        table = list(unit_tangent_homology(3, COEFF_Z))
        table[3] = Z
        assert not duality_anchor(5, tuple(table), tuple(table))

    def test_only_the_lens_space_anchor_sees_the_extension(self):
        # Z/2 + Z/2 in place of Z/4 is self-dual as well
        table = list(unit_tangent_homology(2, COEFF_Z))
        table[1] = Z2 + Z2
        assert duality_anchor(3, tuple(table), tuple(table))
        assert not lens_space_anchor(tuple(table))

    @pytest.mark.parametrize("anchor, n, degree, damage", [
        (lens_space_anchor, 2, 1, Z2 + Z2),
        (kunneth_anchor, 1, 0, Z),
        (kunneth_anchor, 3, 3, Z),
        (kunneth_anchor, 7, 6, Z4),
    ])
    def test_each_anchor_fails_on_a_damaged_table(self, anchor, n, degree,
                                                  damage):
        table = list(unit_tangent_homology(n, COEFF_Z))
        assert table[degree] != damage
        table[degree] = damage
        args = (tuple(table),) if anchor is lens_space_anchor \
            else (n, tuple(table))
        assert not anchor(*args)


class TestUct:
    def test_even_order_counts_once(self):
        st2 = unit_tangent_homology(2, COEFF_Z)
        assert uct_f2(st2) == (1, 1, 1, 1)

    def test_agrees_with_mod_two_everywhere(self):
        for n in range(1, 7):
            want = unit_tangent_homology(n, COEFF_F2)
            assert uct_f2(unit_tangent_homology(n, COEFF_Z)) == want
            if n % 2 == 0:
                got = uct_f2(unit_tangent_homology(n, COEFF_PULLBACK))
                assert got == want


class TestAssembly:
    def test_block_data(self):
        assert block_shift(2, 1) == 1
        assert block_shift(2, 3) == 5
        assert block_shift(3, 2) == 4
        assert block_local_system(2, 1) == COEFF_Z
        assert block_local_system(2, 2) == COEFF_PULLBACK
        assert block_local_system(3, 2) == COEFF_Z
        assert block_local_system(4, 4) == COEFF_PULLBACK
        with pytest.raises(ValueError):
            block_local_system(2, 0)

    def test_integral_cells_for_n2(self):
        table = assembled(2, COEFF_Z, 6)
        assert table.get(0, 0, ZERO_GROUP) == Z
        assert table.get(1, 0, ZERO_GROUP) == Z2
        assert table.get(1, 1, ZERO_GROUP) == Z
        assert table.get(2, 1, ZERO_GROUP) == Z4
        assert table.get(3, 2, ZERO_GROUP) == Z2
        assert table.get(5, 2, ZERO_GROUP) == Z2
        assert table.get(5, 3, ZERO_GROUP) == Z
        assert table.get(6, 3, ZERO_GROUP) == Z4
        assert table.get(2, 2, ZERO_GROUP) == ZERO_GROUP

    def test_mod_two_assembly_matches_uct(self):
        # each level of the integral assembly is a graded table, reduced
        # mod 2 on its own and cut at the bound
        for n in range(1, 42):
            D = 4 * n + 2
            zt, f2 = assembled(n, COEFF_Z, D), assembled(n, COEFF_F2, D)
            for level in {l for (_, l), _ in zt.entries + f2.entries}:
                graded = tuple(zt.get(d, level, ZERO_GROUP)
                               for d in range(D + 1))
                got = {(d, level): v
                       for d, v in enumerate(uct_f2(graded)[:D + 1]) if v}
                assert got == {cell: v for cell, v in f2.entries
                               if cell[1] == level}, (n, level)

    @pytest.mark.parametrize("coeff", [COEFF_Z, COEFF_F2])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_cells_are_the_dict_built_assembly(self, n, coeff):
        for D in (0, 1, n, 3 * n + 1, 97):
            assert tuple(path_space_homology(n, coeff, D)) \
                == reference_assembly(n, coeff, D), D

    @pytest.mark.parametrize("coeff, degree_bound, error", [
        (COEFF_Z, -1, ValueError), (COEFF_F2, -1, ValueError),
        (COEFF_TWISTED, 10, CoefficientError),
        (COEFF_PULLBACK, 10, CoefficientError)])
    def test_refusals_fire_at_the_call(self, coeff, degree_bound, error):
        # a negative bound or a system the assembly does not support:
        # the call raises, before any cell of the stream is asked for
        with pytest.raises(error):
            path_space_homology(2, coeff, degree_bound)

    def test_reading_the_cells_holds_no_table(self):
        # read a cell at a time, the assembly's peak does not grow with
        # the bound, where a dict of every cell takes 3.6 MB at D = 10^4
        # and 41 MB at D = 10^5
        peaks = []
        tracemalloc.start()
        try:
            for D in (10 ** 4, 10 ** 5):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                for _ in path_space_homology(3, COEFF_Z, D):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1024, peaks

    def test_stable_range(self):
        assert [stable_ranks(d) for d in range(4)] == [1, 2, 2, 2]
        table = assembled(10, COEFF_F2, 8)
        for d in range(9):
            total = sum(v for (e, _), v in table.entries if e == d)
            assert total == stable_ranks(d)
            assert table.get(d, 0) == 1
            assert table.get(d, 1) == (1 if d >= 1 else 0)

    @pytest.mark.parametrize("n, D", [*((n, 40) for n in range(1, 13)),
                                      *((n, 840) for n in range(1, 7))])
    def test_series_expands_to_the_mod_two_table(self, n, D):
        assert path_space_series(n).expand(D) == assembled(n, COEFF_F2, D)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 200))
    def test_series_expands_to_the_mod_two_table_drawn(self, n, D):
        assert path_space_series(n).expand(D) == assembled(n, COEFF_F2, D)

    def test_every_level_reads_block_shift(self, monkeypatch, capsys):
        # one level-offset formula: moving every block up one degree
        # moves both tables and the series alike, and verify sees it
        before = {n: (assembled(n, COEFF_F2, 40),
                      path_space_series(n)) for n in (2, 3)}
        monkeypatch.setattr(homology, "block_shift",
                            lambda n, k: 2 + (k - 1) * n)
        for n, (table, series) in before.items():
            moved = assembled(n, COEFF_F2, 40)
            assert moved != table and path_space_series(n) != series
            assert path_space_series(n).expand(40) == moved
            assert (moved.get(1, 1), moved.get(2, 1)) == (0, 1)
        integral = assembled(2, COEFF_Z, 10)
        assert integral.get(1, 1, ZERO_GROUP) == ZERO_GROUP
        assert integral.get(2, 1, ZERO_GROUP) == Z
        assert main(["verify", "--n", "3"]) == 1
        assert "dimension tables disagree" in capsys.readouterr().out

    @pytest.mark.parametrize("n", range(1, 42))
    def test_consistency_suite(self, n):
        report = consistency_checks(n)
        assert report.passed, "\n".join(report.lines())

    def test_consistency_suite_items(self):
        # the twisted and pullback systems are trivial for odd n
        odd = [P_Z, UT_Z, PALINDROME, STABLE]
        even = [P_Z, P_TWISTED, UT_Z, UT_PULLBACK, PALINDROME, STABLE]
        assert {n: [item.name for item in consistency_checks(n).items]
                for n in range(1, 5)} == {1: odd, 2: even, 3: odd, 4: even}

    def test_consistency_suite_assembles_only_below_degree_n(
            self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return path_space_homology(*args)

        monkeypatch.setattr(homology, "path_space_homology", spy)
        for n in (1, 2, 3, 8):
            calls.clear()
            assert consistency_checks(n).passed
            assert calls == [(n, COEFF_F2, n - 1)]


def _f2_only(change):
    """A mutant of unit_tangent_homology that changes only F2 tables."""
    return lambda f: lambda n, c: change(f(n, c)) if c == COEFF_F2 else f(n, c)


def _bump(table: tuple, *degrees: int) -> tuple:
    """table with one class more in each of degrees."""
    out = list(table)
    for d in degrees:
        out[d] += 1
    return tuple(out)


def _integral_levels_up(f):
    """A mutant of path_space_homology with a branch for COEFF_Z that
    moves every level k >= 1 up one degree; F2 is left alone."""
    def mutant(n, coeff, degree_bound):
        cells = f(n, coeff, degree_bound)
        if coeff != COEFF_Z:
            return cells
        return BigradedTable.from_dict(
            {(d + (l > 0), l): v for (d, l), v in cells
             if d + (l > 0) <= degree_bound}, degree_bound).entries
    return mutant


def _row_one_higher(f):
    """A mutant of homology._cellular that reads its rows alone and sets
    row 1 n degrees up, not n - 1: the rows no longer share a degree,
    and the cross term has nowhere to go."""
    def mutant(n, systems, euler, mod2):
        if len(systems) == 1:
            return f(n, systems, euler, mod2)
        low, high = (f(n, (l,), 0, mod2) for l in systems)
        zero = (0 if mod2 else ZERO_GROUP,) * n
        return tuple(a + b for a, b in zip(low + zero, zero + high))
    return mutant


def _z4_for_z2(f):
    """A mutant of real_proj_homology with Z/4 wherever Z/2 was."""
    return lambda n, c: tuple(Z4 if g == Z2 else g for g in f(n, c))


def _unit_tangent_reductions(n: int) -> set:
    return {UT_Z, UT_PULLBACK} if n % 2 == 0 else {UT_Z}


# name -> (the name of pathalg.homology it replaces, the mutant as a
# function of the original, and per n the failing consistency items).
# The stable range reads degrees 0..n - 1, so it sees unit-tangent
# degree d, at level 1, only when d + 1 < n.
CONSISTENCY_MUTANTS = {
    # every table, and the F2 one it is reduced against, is the direct
    # sum of the rows, a palindrome of 2n + 1 degrees; the self-duality
    # anchor catches it
    "row 1 of the unit tangent complex one degree higher": (
        "_cellular", _row_one_higher, lambda n: set()),
    "integral unit tangent table without its top group": (
        "unit_tangent_homology",
        lambda f: lambda n, c: f(n, c)[:-1] if c == COEFF_Z else f(n, c),
        lambda n: {UT_Z}),
    "F2 unit tangent table with a class more in degree 1": (
        "unit_tangent_homology", _f2_only(lambda t: _bump(t, 1)),
        lambda n: _unit_tangent_reductions(n) | {PALINDROME}
        | ({STABLE} if n >= 3 else set())),
    "F2 unit tangent table with a class more at each end": (
        "unit_tangent_homology", _f2_only(lambda t: _bump(t, 0, -1)),
        lambda n: _unit_tangent_reductions(n)
        | ({STABLE} if n >= 2 else set())),
    "block_shift one degree higher": (
        "block_shift", lambda f: lambda n, k: f(n, k) + 1,
        lambda n: {STABLE} if n >= 2 else set()),
    # mod 2 cannot tell Z/4 from Z/2, and the unit tangent tables do not
    # read the projective ones; TestProjectiveSpace catches it
    "projective space with Z/4 for Z/2": (
        "real_proj_homology", _z4_for_z2, lambda n: set()),
    # which block carries which system: ROADMAP item 7
    "block systems reversed": (
        "block_systems", lambda f: lambda n, c: f(n, c)[::-1],
        lambda n: set()),
    # the suite assembles only over F2; TestAssembly catches this one
    "integral levels >= 1 one degree higher": (
        "path_space_homology", _integral_levels_up, lambda n: set()),
}


class TestConsistencyMutants:
    """What consistency_checks tells apart, pinned for n = 1..12."""

    @pytest.mark.parametrize("mutant", sorted(CONSISTENCY_MUTANTS))
    def test_failing_items(self, monkeypatch, mutant):
        attr, make, want = CONSISTENCY_MUTANTS[mutant]
        monkeypatch.setattr(homology, attr, make(getattr(homology, attr)))
        for n in range(1, 13):
            report = consistency_checks(n)
            assert {item.name for item in report.items
                    if not item.passed} == want(n), n

    def test_the_integral_only_mutant_fails_the_assembly_tests(
            self, monkeypatch):
        # TestAssembly reads path_space_homology from this module
        monkeypatch.setitem(globals(), "path_space_homology",
                            _integral_levels_up(path_space_homology))
        with pytest.raises(AssertionError):
            TestAssembly().test_integral_cells_for_n2()

    def test_the_row_shift_mutant_fails_self_duality(self, monkeypatch):
        monkeypatch.setattr(homology, "_cellular",
                            _row_one_higher(homology._cellular))
        with pytest.raises(AssertionError):
            TestAnchors().test_unit_tangent_bundle_is_self_dual(COEFF_Z)

    def test_the_z4_mutant_fails_the_projective_tables(self, monkeypatch):
        # TestProjectiveSpace reads real_proj_homology from this module.
        # The duality anchor stays blind: both of its tables carry Z/4
        # where Z/2 was, in dual degrees
        mutant = _z4_for_z2(real_proj_homology)
        monkeypatch.setitem(globals(), "real_proj_homology", mutant)
        with pytest.raises(AssertionError):
            TestProjectiveSpace().test_trivial_coefficients()
        TestAnchors().test_projective_space_is_dual_to_its_orientation_system()


class TestGeneratorTable:
    def test_name_counts_match_mod_two_dimensions(self):
        for n in range(1, 5):
            levels = 3 if n == 1 else 2
            table = generator_table(n, levels - 1)
            hom = assembled(n, COEFF_F2, table.degree_bound)
            for (d, l), names in table.entries:
                assert len(names) == hom.get(d, l), (n, d, l, names)

    def test_shared_cells_list_middle_family_first(self):
        table = generator_table(3, 1).cells
        assert table[(4, 1)] == ("S", "H^2Y")
        assert table[(3, 1)] == ("HS", "H^3Y")

    def test_unit_and_powers(self):
        table = generator_table(4, 1).cells
        assert table[(4, 0)] == ("U",)
        assert table[(0, 0)] == ("H^4",)
        assert table[(8, 1)] == ("Y",)

    def test_circle_case_alternates(self):
        table = generator_table(1, 2).cells
        assert table[(2, 1)] == ("S", "Sb")
        assert table[(3, 2)] == ("SSb", "SbS")
        assert table[(2, 2)] == ("HSSb", "HSbS")

    @pytest.mark.parametrize("n", range(1, 13))
    def test_names_carry_their_cells_gradings(self, n):
        # each name, spelled out as a word of the presentation, has its
        # cell's degree and level: the closed form's degree offsets are
        # checked against the signature's letter degrees.  At n = 1, Sb
        # has the degree (1) and level (1) of Y, so it reads as Y
        sig = signature(n)
        cells = generator_table(n, 6).entries
        assert max(l for (_, l), _ in cells) == 6
        for (d, l), names in cells:
            for name in names:
                assert name == "U" or not NAME_POWER.sub("", name), name
                word = "" if name == "U" else "".join(
                    ("Y" if letter == "Sb" else letter) * int(e or 1)
                    for letter, e in NAME_POWER.findall(name))
                assert (unshifted_degree(word, sig), word_level(word)) \
                    == (d, l), (n, name, word)


@pytest.mark.parametrize("call, error, message", [
    (lambda: unit_tangent_homology(0, COEFF_F2), ValueError,
     "dimension must be >= 1"),
    (lambda: path_space_homology(2, COEFF_F2, -1), ValueError,
     "degree bound must be nonnegative"),
    (lambda: stable_ranks(-1), ValueError, "degree must be nonnegative"),
    (lambda: generator_table(0, 1), ValueError, "dimension must be >= 1"),
    (lambda: generator_table(2, -1), ValueError, "max_level must be >= 0"),
])
def test_refusals_keep_their_types_and_messages(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
