"""Numerical geometry: projective points, discrete paths, half-circles,
second-variation indices."""

import inspect
import math

import numpy as np
import pytest

from pathalg.geometry import (
    DiscretePath,
    GradientCheckError,
    ParityError,
    ProjPoint,
    TangentVector,
    _critical_configuration,
    concat_check,
    concat_min,
    constant_path,
    critical_index,
    expected_index,
    fs_distance,
    geodesic,
    half_circle,
    half_circle_endpoint,
    half_circle_norm,
    halfcircle_check,
    hopf_vector,
    index_check,
    path_energy,
    path_length,
    path_norm,
    proj_point,
    random_real_point,
    random_real_tangent,
    real_point,
    sample_yk,
    yk_check,
    yk_parameter_count,
)

RNG = np.random.default_rng(20240814)

# (n, k) pairs of the second-variation tests: n = 1..3 up to k = 5,
# and the dimension-200 case n = 5, k = 4
INDEX_GRID = [(n, k) for n in (1, 2, 3) for k in range(6)] + [(5, 4)]


def defect(p: ProjPoint, q: ProjPoint) -> float:
    """Pairing defect 1 - |<p, q>|; zero exactly on equal points and
    numerically robust where arccos is not."""
    return 1.0 - abs(np.vdot(p.rep, q.rep))


class TestPoints:
    def test_unit_enforced(self):
        with pytest.raises(ValueError):
            ProjPoint(np.array([1.0, 1.0]))
        assert proj_point([3.0, 4.0]).ambient_dim == 2

    def test_phase_invariance(self):
        p = proj_point([1.0, 1.0j])
        q = ProjPoint(p.rep * np.exp(0.7j))
        assert p.equals(q)
        assert fs_distance(p, q) < 1e-7

    def test_real_locus_detection(self):
        p = ProjPoint(np.exp(0.3j) * real_point([1.0, 2.0, 2.0]).rep)
        assert p.is_real()
        r = p.real_representative()
        assert r.dtype.kind == "f"
        assert np.allclose(np.abs(r) * 3.0, [1.0, 2.0, 2.0])
        mixed = proj_point([1.0, 1.0j])
        assert not mixed.is_real()
        with pytest.raises(ValueError):
            mixed.real_representative()

    def test_distance_range(self):
        p = real_point([1.0, 0.0])
        q = proj_point([0.0, 1.0])
        assert fs_distance(p, q) == pytest.approx(math.pi / 2)
        assert fs_distance(p, p) == 0.0


class TestTangents:
    def test_n1_tangents_pass_the_tangency_check(self):
        # at n = 1 a draw close to the base point used to leave a
        # component along it past the 1e-12 tangency tolerance, about
        # once in 10^4 draws
        rng = np.random.default_rng(1)
        for _ in range(20000):
            random_real_tangent(random_real_point(1, rng), rng)


class TestGeodesics:
    def test_period_and_antipodes(self):
        x = random_real_point(3, RNG)
        u = random_real_tangent(x, RNG)
        v = TangentVector(base=ProjPoint(x.rep), vec=1j * u.vec)
        assert defect(geodesic(x, v, 0.4 + math.pi), geodesic(x, v, 0.4)) \
            < 1e-12
        assert abs(np.vdot(x.rep, geodesic(x, v, math.pi / 2).rep)) < 1e-12
        assert defect(geodesic(x, v, math.pi), x) < 1e-12

    def test_requires_unit_vector(self):
        x = random_real_point(2, RNG)
        u = random_real_tangent(x, RNG)
        with pytest.raises(ValueError):
            geodesic(x, TangentVector(base=x, vec=2.0 * u.vec), 0.1)

    def test_tangent_orthogonality_enforced(self):
        x = real_point([1.0, 0.0])
        with pytest.raises(ValueError):
            TangentVector(base=x, vec=np.array([1.0, 1.0]))


class TestPaths:
    def test_validation(self):
        good = constant_path(real_point([1.0, 0.0]), 3)
        assert good.num_samples == 3
        with pytest.raises(ValueError):
            DiscretePath(samples=good.samples,
                         params=np.array([0.0, 0.4, 0.9]))
        with pytest.raises(ValueError):
            DiscretePath(samples=good.samples * 2.0,
                         params=good.params)
        with pytest.raises(ValueError):
            DiscretePath(samples=np.array([[1.0, 1.0j], [0.0, 1.0]])
                         / math.sqrt(2),
                         params=np.array([0.0, 1.0]))

    def test_norm_of_sampled_geodesic_is_its_length(self):
        x = random_real_point(2, RNG)
        u = random_real_tangent(x, RNG)
        theta = 0.9
        t = np.linspace(0.0, 1.0, 17)
        pts = np.array([geodesic(x, u, theta * ti).rep for ti in t])
        path = DiscretePath(samples=pts, params=t)
        assert path_norm(path) == pytest.approx(theta, abs=1e-12)
        assert path_length(path) == pytest.approx(theta, abs=1e-12)
        assert path_energy(path) == pytest.approx(theta * theta, abs=1e-12)

    def test_reversal_preserves_norm(self):
        p = sample_yk(2, 2, np.random.default_rng(5))
        assert path_norm(p.reversed()) == pytest.approx(path_norm(p),
                                                        abs=1e-12)


class TestConcat:
    def test_additivity_and_associativity(self):
        rng = np.random.default_rng(11)
        worst_add = worst_assoc = 0.0
        for _ in range(50):
            n = int(rng.integers(1, 4))
            x = random_real_point(n, rng)
            parts = []
            for _ in range(3):
                u = random_real_tangent(x, rng)
                arc = half_circle(x, u, float(rng.uniform(0.1, 1.4)),
                                  samples=10)
                parts.append(arc)
                x = arc.end()
            a, b, c = parts
            ab = concat_min(a, b)
            worst_add = max(worst_add, abs(
                path_norm(ab) - path_norm(a) - path_norm(b)))
            left, right = concat_min(ab, c), concat_min(a, concat_min(b, c))
            worst_assoc = max(worst_assoc, float(
                np.max(np.abs(left.params - right.params))))
            assert np.allclose(left.samples, right.samples, atol=1e-12)
        assert worst_add < 1e-12
        assert worst_assoc < 1e-12

    def test_junction_mismatch_rejected(self):
        a = constant_path(real_point([1.0, 0.0, 0.0]))
        b = constant_path(real_point([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            concat_min(a, b)

    def test_degenerate_junction_flag(self):
        a = constant_path(real_point([1.0, 0.0]))
        both = concat_min(a, a)
        assert both.degenerate_junction
        assert path_norm(both) == 0.0


class TestHalfCircle:
    def test_zero_angle_is_constant(self):
        x = random_real_point(2, RNG)
        u = random_real_tangent(x, RNG)
        hc = half_circle(x, u, 0.0, samples=6)
        assert path_norm(hc) == 0.0

    def test_endpoint_agrees_with_geodesic_flow(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            x = random_real_point(n, rng)
            u = random_real_tangent(x, rng)
            theta = float(rng.uniform(-math.pi, math.pi))
            hc = half_circle(x, u, theta, samples=24)
            assert defect(hc.end(), half_circle_endpoint(x, u, theta)) < 1e-12
            assert defect(hc.start(), x) < 1e-12

    def test_norm_bound_and_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = random_real_point(2, rng)
            u = random_real_tangent(x, rng)
            theta = float(rng.uniform(-math.pi, math.pi))
            got = path_norm(half_circle(x, u, theta, samples=64))
            want = half_circle_norm(theta)
            assert got <= math.pi / 2 + 1e-9
            # discrete chords undershoot the smooth arc by O(1/samples^2)
            assert want - 2e-4 < got <= want + 1e-12

    def test_right_angle_norm_is_exact(self):
        x = random_real_point(3, RNG)
        u = random_real_tangent(x, RNG)
        hc = half_circle(x, u, math.pi / 2, samples=16)
        assert path_norm(hc) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_angle_normalization_mod_pi(self):
        x = random_real_point(2, RNG)
        u = random_real_tangent(x, RNG)
        a = half_circle(x, u, 0.7, samples=12)
        b = half_circle(x, u, 0.7 + math.pi, samples=12)
        assert np.allclose(a.samples, b.samples, atol=1e-12)

    def test_matches_the_per_sample_reference(self):
        rng = np.random.default_rng(5)
        for theta in [math.pi / 2, -math.pi / 2, 1e-6, 3.0] + \
                list(rng.uniform(-math.pi, math.pi, 20)):
            x = random_real_point(int(rng.integers(1, 4)), rng)
            u = random_real_tangent(x, rng)
            got = half_circle(x, u, float(theta), samples=17)
            want = half_circle_reference(x, u, float(theta), samples=17)
            assert np.max(np.abs(got.samples - want)) < 1e-14

    def test_rejects_complex_direction(self):
        x = random_real_point(2, RNG)
        u = random_real_tangent(x, RNG)
        v = TangentVector(base=ProjPoint(x.rep), vec=1j * u.vec)
        with pytest.raises(ValueError):
            half_circle(x, v, 0.5)


class TestYkFamily:
    def test_parameter_count(self):
        assert yk_parameter_count(3, 2) == 9
        assert yk_parameter_count(1, 1) == 2
        with pytest.raises(ValueError):
            yk_parameter_count(2, 0)

    def test_norm_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            p = sample_yk(n, k, rng, samples_per_arc=16)
            assert path_norm(p) <= k * math.pi / 2 + 1e-9

    def test_right_angles_reach_the_bound(self):
        p = sample_yk(2, 3, np.random.default_rng(9),
                      thetas=[math.pi / 2] * 3)
        assert path_norm(p) == pytest.approx(3 * math.pi / 2, abs=1e-9)

    def test_endpoints_are_real(self):
        p = sample_yk(3, 2, np.random.default_rng(4))
        assert p.start().is_real() and p.end().is_real()

    def test_start_point(self):
        rng = np.random.default_rng(6)
        a = sample_yk(2, 2, rng)
        b = sample_yk(2, 1, rng, start=a.end())
        assert defect(b.start(), a.end()) < 1e-12
        ab = concat_min(a, b)
        assert ab.num_samples == a.num_samples + b.num_samples - 1
        with pytest.raises(ValueError):
            sample_yk(3, 1, rng, start=a.end())


class TestHopfVectors:
    def test_pairwise_rotation_is_tangent_and_unit(self):
        for n in (1, 3, 5):
            x = random_real_point(n, RNG)
            j = hopf_vector(x, "J")
            assert j.is_unit
            assert abs(np.dot(j.vec.real, x.real_representative())) < 1e-12

    def test_quaternionic_triple_is_orthonormal(self):
        x = random_real_point(3, RNG)
        triple = np.vstack([hopf_vector(x, w).vec.real
                            for w in ("J1", "J2", "J3")])
        gram = triple @ triple.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10

    def test_parity_requirements(self):
        with pytest.raises(ParityError):
            hopf_vector(random_real_point(2, RNG), "J")
        with pytest.raises(ParityError):
            hopf_vector(random_real_point(1, RNG), "J2")
        with pytest.raises(ValueError):
            hopf_vector(random_real_point(3, RNG), "J9")


class TestCriticalIndex:
    def test_constant_configuration(self):
        res = critical_index(2, 0, 8, rng=np.random.default_rng(0))
        assert (res.index, res.nullity) == (0, 2)
        assert res.gradient_norm < 1e-8

    def test_first_closed_configuration(self):
        res = critical_index(1, 1, 8, rng=np.random.default_rng(0))
        assert (res.index, res.nullity) == (1, 1)

    def test_segment_precondition(self):
        with pytest.raises(ValueError):
            critical_index(1, 1, 2)

    def test_gradient_guard_rejects_noncritical_setups(self):
        with pytest.raises(GradientCheckError):
            critical_index(2, 1, 12, grad_tol=1e-18)
        with pytest.raises(GradientCheckError):
            critical_index(2, 1, 12, grad_tol=math.nan)

    @pytest.mark.parametrize("h, ztol", [
        (0.0, 1e-3), (-1e-4, 1e-3), (math.nan, 1e-3), (math.inf, 1e-3),
        (1e-4, 0.0), (1e-4, 1.0), (1e-4, math.nan)])
    def test_step_and_zero_threshold_are_checked(self, h, ztol):
        with pytest.raises(ValueError):
            critical_index(1, 1, 8, h=h, ztol=ztol)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_banded_hessian_matches_dense_reference(self, n, k):
        segments = max(8, 4 * k + 4)
        base, frames = _critical_configuration(
            n, k, segments, np.random.default_rng(0))
        want = np.linalg.eigvalsh(dense_hessian(base, frames))
        got = critical_index(n, k, segments,
                             rng=np.random.default_rng(0)).eigenvalues
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-6 * scale

    def test_ztol_sits_between_method_error_and_geometry(self):
        ztol = inspect.signature(critical_index).parameters["ztol"].default
        for n, k in INDEX_GRID:
            res = critical_index(n, k, max(8, 4 * k + 4),
                                 rng=np.random.default_rng(0))
            mags = np.sort(np.abs(res.eigenvalues))
            scale = mags[-1]
            nullity = n if k == 0 else 2 * n - 1
            assert mags[nullity - 1] <= 1e-6 * scale, (n, k)
            assert mags[nullity] >= 2 * ztol * scale, (n, k)


def dense_hessian(base: np.ndarray, frames: list, h: float = 1e-4
                  ) -> np.ndarray:
    """Reference second variation: every entry, band or not, from the
    energy of the whole path under the same stencils critical_index
    uses."""
    segments = base.shape[0] - 1
    offsets = np.concatenate([[0], np.cumsum([f.shape[1] for f in frames])])
    dim = int(offsets[-1])

    def energy(xi: np.ndarray) -> float:
        pts = base.copy()
        for j in range(segments + 1):
            block = xi[offsets[j]:offsets[j + 1]]
            if np.any(block):
                v = pts[j] + frames[j] @ block
                pts[j] = v / np.linalg.norm(v)
        inner = np.abs(np.einsum("ij,ij->i", pts[:-1], pts[1:].conj()))
        d = np.arccos(np.clip(inner, 0.0, 1.0))
        return float(segments * np.sum(d * d))

    def at(*coords: tuple[int, float]) -> float:
        xi = np.zeros(dim)
        for a, step in coords:
            xi[a] = step
        return energy(xi)

    e0 = energy(np.zeros(dim))
    singles = np.array([(at((a, h)), at((a, -h))) for a in range(dim)])
    hess = np.diag((singles[:, 0] - 2.0 * e0 + singles[:, 1]) / (h * h))
    for a in range(dim):
        for b in range(a + 1, dim):
            epp = at((a, h), (b, h))
            emm = at((a, -h), (b, -h))
            hess[a, b] = hess[b, a] = \
                (epp + emm + 2.0 * e0 - singles[a].sum()
                 - singles[b].sum()) / (2.0 * h * h)
    return hess


def half_circle_reference(x: ProjPoint, u: TangentVector, theta: float,
                          samples: int) -> np.ndarray:
    """Samples of the half-circle built one point at a time: each point
    of the arc on the radius-1/2 sphere is lifted to a*r + c*u with a
    real >= 0, or to u at the south pole, and normalized."""
    r = x.real_representative()
    ur = u.vec.real
    theta = math.remainder(theta, math.pi)
    a = np.array([0.0, 0.5, 0.0])
    b = np.array([0.5 * math.sin(2 * theta), 0.5 * math.cos(2 * theta), 0.0])
    mid = (a + b) / 2.0
    rho = 0.5 * abs(math.sin(theta))
    e1 = (a - mid) / rho
    e2 = np.array([0.0, 0.0, 1.0])
    pts = []
    for ti in np.linspace(0.0, 1.0, samples):
        phi = math.pi * ti
        p = mid + rho * (math.cos(phi) * e1 + math.sin(phi) * e2)
        a2 = 0.5 + p[1]
        if a2 <= 1e-15:
            z = ur.astype(complex)
        else:
            z = math.sqrt(a2) * r + (p[0] + 1j * p[2]) / math.sqrt(a2) * ur
        pts.append(z / np.linalg.norm(z))
    return np.array(pts)


class TestCheckSuites:
    def test_expected_index(self):
        assert expected_index(3, 0) == (0, 3)
        assert expected_index(2, 2) == (3, 3)
        assert expected_index(1, 4) == (4, 1)

    def test_index_check_reports_the_pair(self):
        report = index_check(2, 2, 12)
        assert report.passed
        assert "index=3 nullity=3" in report.items[0].name

    @pytest.mark.parametrize("suite", [concat_check, halfcircle_check,
                                       yk_check])
    def test_sampling_suites(self, suite):
        assert suite(10, seed=1).passed
        with pytest.raises(ValueError):
            suite(0)

    def test_concat_check_fails_below_roundoff(self):
        report = concat_check(10, seed=1, tol=1e-20)
        assert [item.passed for item in report.items] == [False, False]

    def test_halfcircle_peak_sits_at_a_quarter_turn(self):
        # both grid ends tie; roundoff decides which one is reported
        peak = halfcircle_check(4, seed=833820).items[-1]
        assert "norm peaks at theta" in peak.name
        assert peak.passed
