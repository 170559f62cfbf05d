"""Closed-form homology tables and the bigraded assembly.

The expected groups below are classical values, frozen by hand as
oracles: projective spaces from the two-term cellular complex, unit
tangent bundles from the two-row Gysin sequence.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pathalg
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
    GysinError,
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

Z_Z2 = Z + Z2
ZZ = AbelianGroup(rank=2)
# one factor of a generator name: a letter (Sb before S) and its power
NAME_POWER = re.compile(r"(Sb|[HSTY])(?:\^(\d+))?")


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

    def test_a_wrong_e2_value_is_a_typed_error(self, monkeypatch):
        # the F2 correction in degree n - 1 starts from 3, not 2: the
        # guard must raise in process and under python -O, which strips
        # asserts
        rows, cells = homology._GYSIN[COEFF_F2]
        wrong = (rows, ((0, 3, 1),) + cells[1:])
        monkeypatch.setitem(homology._GYSIN, COEFF_F2, wrong)
        message = "E2 cell of degree 1 over F2 is 2, not 3 (n=2)"
        with pytest.raises(GysinError, match=re.escape(message)):
            unit_tangent_homology(2, COEFF_F2)
        code = ("import sys\n"
                "from pathalg import homology\n"
                f"homology._GYSIN['F2'] = {wrong!r}\n"
                "try:\n"
                "    homology.unit_tangent_homology(2, 'F2')\n"
                "except homology.GysinError as exc:\n"
                "    print(sys.flags.optimize, exc)\n")
        src = str(Path(pathalg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, f"1 {message}\n"), \
            done.stderr


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
        table = path_space_homology(2, COEFF_Z, 6)
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
        for n in range(1, 7):
            zt = path_space_homology(n, COEFF_Z, 3 * n + 2)
            f2 = path_space_homology(n, COEFF_F2, 3 * n + 2)
            assert uct_f2(zt).cells == f2.cells

    def test_stable_range(self):
        assert [stable_ranks(d) for d in range(4)] == [1, 2, 2, 2]
        table = path_space_homology(10, COEFF_F2, 8)
        for d in range(9):
            total = sum(v for (e, _), v in table.entries if e == d)
            assert total == stable_ranks(d)
            assert table.get(d, 0) == 1
            assert table.get(d, 1) == (1 if d >= 1 else 0)

    def test_rejects_unsupported_coefficients(self):
        with pytest.raises(CoefficientError):
            path_space_homology(2, COEFF_TWISTED, 10)

    @pytest.mark.parametrize("n, D", [*((n, 40) for n in range(1, 13)),
                                      *((n, 840) for n in range(1, 7))])
    def test_series_expands_to_the_mod_two_table(self, n, D):
        assert path_space_series(n).expand(D) == \
            path_space_homology(n, COEFF_F2, D)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 200))
    def test_series_expands_to_the_mod_two_table_drawn(self, n, D):
        assert path_space_series(n).expand(D) == \
            path_space_homology(n, COEFF_F2, D)

    def test_every_level_reads_block_shift(self, monkeypatch, capsys):
        # one level-offset formula: moving every block up one degree
        # moves both tables and the series alike, and verify sees it
        before = {n: (path_space_homology(n, COEFF_F2, 40),
                      path_space_series(n)) for n in (2, 3)}
        monkeypatch.setattr(homology, "block_shift",
                            lambda n, k: 2 + (k - 1) * n)
        for n, (table, series) in before.items():
            moved = path_space_homology(n, COEFF_F2, 40)
            assert moved != table and path_space_series(n) != series
            assert path_space_series(n).expand(40) == moved
            assert (moved.get(1, 1), moved.get(2, 1)) == (0, 1)
        integral = path_space_homology(2, COEFF_Z, 10)
        assert integral.get(1, 1, ZERO_GROUP) == ZERO_GROUP
        assert integral.get(2, 1, ZERO_GROUP) == Z
        assert main(["verify", "--n", "3"]) == 1
        assert "dimension tables disagree" in capsys.readouterr().out

    @pytest.mark.parametrize("n", range(1, 7))
    def test_consistency_suite(self, n):
        report = consistency_checks(n)
        assert report.passed, "\n".join(report.lines())


class TestGeneratorTable:
    def test_name_counts_match_mod_two_dimensions(self):
        for n in range(1, 5):
            levels = 3 if n == 1 else 2
            table = generator_table(n, levels - 1)
            hom = path_space_homology(n, COEFF_F2, table.degree_bound)
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
