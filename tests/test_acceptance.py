"""Acceptance gate: one test per acceptance criterion, each printing a
single machine-readable pass/fail line.

Pinned tolerances:
  exact combinatorial equality for criteria 1-7 and 11;
  1e-9 for concatenation additivity/associativity and norm bounds;
  1e-8 for the critical-configuration gradient precondition;
  1e-9 pairing defect for point-equality checks (the squared-chord
  measure; an arccos-based distance amplifies 1e-16 roundoff to ~3e-8
  and cannot meet 1e-9 even for algebraically equal points);
  1e-10 for the orthonormal-triple Gram matrix.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from pathalg import cli, geometry
from pathalg.algebra import poly, signature
from pathalg.homology import (
    COEFF_F2,
    COEFF_PULLBACK,
    COEFF_Z,
    Z,
    Z2,
    Z4,
    ZERO_GROUP,
    path_space_homology,
    path_space_series,
    uct_f2,
    unit_tangent_homology,
)
from pathalg.rewriting import (
    _degree_words,
    anti_automorphism_check,
    compare,
    complete,
    filtration_check,
    hilbert_series,
    normal_form,
    orient,
    repair_search,
)

DEGREE_BOUND = 40


@contextmanager
def criterion(number: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {label}")
        raise
    dt = time.perf_counter() - t0
    print(f"[PASS] criterion {number:02d}: {label} ({dt:.2f}s)")


def completed(n: int):
    return complete(orient(signature(n)))


def pairing_defect(p, q) -> float:
    return 1.0 - abs(np.vdot(p.rep, q.rep))


def test_criterion_01_odd_case_theorem():
    t0 = time.perf_counter()
    with criterion(1, "odd-case presentations match homology to degree 40"):
        for n in (1, 3, 5, 7):
            rs = completed(n)
            report = compare(hilbert_series(rs), path_space_series(n),
                             DEGREE_BOUND)
            assert report.is_match, (n, report.lines())
        assert time.perf_counter() - t0 < 30.0


def test_criterion_02_golden_tables(capsys):
    with criterion(2, "named generator tables match the golden fixtures"):
        for n in (1, 2, 3, 4):
            assert cli.main(["table", "--n", str(n), "--golden"]) == 0
        capsys.readouterr()


def test_criterion_03_even_case_diagnosis_and_repair():
    with criterion(3, "even-case discrepancy located and repaired"):
        for n in (2, 4):
            rs = completed(n)
            hom = path_space_series(n)
            report = compare(hilbert_series(rs), hom, DEGREE_BOUND)
            assert not report.is_match
            # first surplus at unshifted degree 0, one extra class
            assert report.total_mismatches[0][0] == 0
            mismatch_degrees = {d for d, _, _ in report.total_mismatches}
            assert n in mismatch_degrees
            cells = set(report.cell_mismatches)
            assert (0, 1, 1, 0) in cells
            assert (n, 1, 2, 1) in cells
            # the surplus classes are the expected irreducible words
            surplus_zero = [w for w, l in _degree_words(rs, 0) if l == 1]
            assert surplus_zero == ["H" * n + "T"]
            shadow = [w for w, l in _degree_words(rs, n) if l == 1]
            assert "H" * n + "Y" in shadow
            found = repair_search(rs, hom)
            assert found
            renders = {a.render() for a in found}
            killer = "{" + "H" * n + "T -> 0, " + "H" * n + "Y -> 0}"
            assert killer in renders
            # each repair matches in every degree, so up to any bound
            for aug in found:
                assert hilbert_series(aug.system) == hom
                again = compare(hilbert_series(aug.system), hom,
                                DEGREE_BOUND)
                assert again.is_match


def test_criterion_04_integral_tables_reduce_correctly():
    with criterion(4, "integral tables and their mod-2 reductions"):
        assert unit_tangent_homology(2, COEFF_Z) == \
            (Z, Z4, ZERO_GROUP, Z)
        for n in range(2, 7):
            want = unit_tangent_homology(n, COEFF_F2)
            for tag in (COEFF_Z, COEFF_PULLBACK):
                got = uct_f2(unit_tangent_homology(n, tag))
                assert got == want, (n, tag)


def test_criterion_05_consistency_suite():
    with criterion(5, "Euler characteristic, duality, first homology"):
        for n in range(2, 7):
            dims = unit_tangent_homology(n, COEFF_F2)
            assert sum((-1) ** d * v for d, v in enumerate(dims)) == 0
            assert dims == dims[::-1]
            h1 = unit_tangent_homology(n, COEFF_Z)[1]
            assert h1 == (Z4 if n == 2 else Z2)


def test_criterion_06_filtration():
    with criterion(6, "every completed rule respects the level filtration"):
        for n in range(1, 8):
            assert filtration_check(completed(n)).passed
        for n in (2, 4):
            found = repair_search(completed(n), path_space_series(n))
            assert found
            for aug in found:
                assert filtration_check(aug.system).passed


def test_criterion_07_reversal_and_transport_identities():
    with criterion(7, "reversal stability and transport identities"):
        for n in range(1, 8):
            rs = completed(n)
            assert anti_automorphism_check(rs).passed
        for n in (3, 5):
            rs = completed(n)
            assert normal_form("HHSYH", rs) == \
                normal_form(poly("HHHSY", "HHY"), rs)
            assert normal_form("HYHHS", rs) == normal_form("HHHSY", rs)


def test_criterion_08_concatenation_calculus():
    t0 = time.perf_counter()
    with criterion(8, "1000-trial concatenation additivity/associativity"):
        worst_add = worst_assoc = 0.0
        for i in range(1000):
            rng = np.random.default_rng([0, i])
            n = int(rng.integers(1, 4))
            x = geometry.random_real_point(n, rng)
            parts = []
            for _ in range(3):
                u = geometry.random_real_tangent(x, rng)
                arc = geometry.half_circle(
                    x, u, float(rng.uniform(0.05, 0.5 * math.pi)), samples=12)
                parts.append(arc)
                x = arc.end()
            a, b, c = parts
            ab = geometry.concat_min(a, b)
            worst_add = max(worst_add, abs(
                geometry.path_norm(ab) - geometry.path_norm(a)
                - geometry.path_norm(b)))
            left = geometry.concat_min(ab, c)
            right = geometry.concat_min(a, geometry.concat_min(b, c))
            worst_assoc = max(worst_assoc, float(
                np.max(np.abs(left.params - right.params))))
        assert worst_add < 1e-9, worst_add
        assert worst_assoc < 1e-9, worst_assoc
        assert time.perf_counter() - t0 < 10.0


def test_criterion_09_morse_indices():
    t0 = time.perf_counter()
    with criterion(9, "second-variation index and nullity at criticals"):
        grid = [(n, k) for n in (1, 2, 3) for k in range(6)] + [(5, 4)]
        for n, k in grid:
            res = geometry.critical_index(n, k, rng=np.random.default_rng(0))
            assert res.gradient_norm < 1e-8
            want = (0, n) if k == 0 else (1 + (k - 1) * n, 2 * n - 1)
            assert (res.index, res.nullity) == want, \
                (n, k, res.index, res.nullity)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_10_geometry_invariants():
    with criterion(10, "geodesic, half-circle, and sampler invariants"):
        # period-pi geodesics and quarter-period antipode pattern
        for i in range(200):
            rng = np.random.default_rng([1, i])
            n = int(rng.integers(1, 4))
            x = geometry.random_real_point(n, rng)
            u = geometry.random_real_tangent(x, rng)
            v = geometry.TangentVector(base=geometry.ProjPoint(x.rep),
                                       vec=1j * u.vec)
            s = float(rng.uniform(0.0, math.pi))
            assert pairing_defect(geometry.geodesic(x, v, s),
                                  geometry.geodesic(x, v, s + math.pi)) < 1e-9
            for k in range(5):
                q = geometry.geodesic(x, v, k * math.pi / 2)
                if k % 2 == 0:
                    assert pairing_defect(x, q) < 1e-9
                else:
                    assert abs(geometry.fs_distance(x, q) - math.pi / 2) \
                        < 1e-9
        # half-circle endpoint against the geodesic construction, norm cap
        for i in range(200):
            rng = np.random.default_rng([2, i])
            n = int(rng.integers(1, 4))
            x = geometry.random_real_point(n, rng)
            u = geometry.random_real_tangent(x, rng)
            theta = float(rng.uniform(-math.pi, math.pi))
            hc = geometry.half_circle(x, u, theta, samples=24)
            ep = geometry.half_circle_endpoint(x, u, theta)
            assert pairing_defect(hc.end(), ep) < 1e-9
            aligned = hc.samples[-1] * np.exp(
                -1j * np.angle(np.vdot(ep.rep, hc.samples[-1])))
            assert float(np.max(np.abs(aligned - ep.rep))) < 1e-9
            assert geometry.path_norm(hc) <= math.pi / 2 + 1e-9
        # k-fold sampler norm cap
        for i in range(200):
            rng = np.random.default_rng([3, i])
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            p = geometry.sample_yk(n, k, rng, samples_per_arc=12)
            assert geometry.path_norm(p) <= k * math.pi / 2 + 1e-9
        # orthonormal-triple Gram matrices
        for i in range(200):
            rng = np.random.default_rng([4, i])
            x = geometry.random_real_point(3, rng)
            triple = np.vstack([geometry.hopf_vector(x, w).vec.real
                                for w in ("J1", "J2", "J3")])
            assert np.max(np.abs(triple @ triple.T - np.eye(3))) < 1e-10


def test_criterion_11_stable_ranks():
    with criterion(11, "stable low-degree ranks for n = 10"):
        cells = dict(path_space_homology(10, COEFF_F2, 8))
        for d in range(9):
            active = {l for (e, l) in cells if e == d}
            assert active <= {0, 1}
            total = sum(cells.get((d, l), 0) for l in (0, 1))
            assert total == (1 if d == 0 else 2)
