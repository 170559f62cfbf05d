"""Numerical geometry: projective points, discrete paths, half-circles,
second-variation indices."""

import cmath
import dataclasses
import functools
import json
import math
import re
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathalg import geometry
from pathalg.geometry import (
    DiscretePath,
    GradientCheckError,
    ParityError,
    ProjPoint,
    TangentVector,
    _arc_grid,
    _bands,
    _critical_configuration,
    _hessian_matrix,
    _segment_count,
    _segment_slopes,
    concat_check,
    concat_min,
    constant_path,
    critical_index,
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
# high levels, where the first non-null eigenvalue is small: it shrinks
# like 1 / segments^2
HIGH_GRID = [(n, k) for n in (1, 2, 3, 4) for k in (12, 30)]


def qr_frame(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Hermitian-orthonormal frame of the complement of z, from the QR
    factorization of z next to random complex columns."""
    m = z.shape[0]
    mat = np.column_stack(
        [z, rng.standard_normal((m, m - 1))
         + 1j * rng.standard_normal((m, m - 1))])
    q, _ = np.linalg.qr(mat)
    return q[:, 1:]


def move_interior_sample(base, frames, rng):
    """Move the middle sample of a critical configuration off its
    geodesic, rebuilding its frame, [f, i f], there."""
    j = len(base) // 2
    p = base[j] + 1e-3 * frames[j][:, 0]
    base[j] = p / np.linalg.norm(p)
    wf = qr_frame(base[j], rng)
    frames[j] = np.column_stack([wf, 1j * wf])


def spoil_interior_sample(base, frames, rng):
    """Make the middle sample of a critical configuration not a number."""
    base[len(base) // 2] = math.nan


@functools.lru_cache(maxsize=None)
def index_at(n: int, k: int):
    """critical_index at seed 0."""
    return critical_index(n, k, rng=np.random.default_rng(0))


def kept_frames(frames: np.ndarray) -> list[np.ndarray]:
    """Each sample's frame in the Hessian's coordinates: an endpoint
    keeps its first n columns, its real frame of the real locus."""
    n, last = frames.shape[2] // 2, len(frames) - 1
    return [f[:, :n] if j in (0, last) else f for j, f in enumerate(frames)]


def loop_hessian(base: np.ndarray, frames: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Reference gradient and Hessian, assembled one segment at a time
    from the closed-form segment derivatives critical_index documents;
    each segment adds its blocks at its two ends."""
    segments = base.shape[0] - 1
    frames = kept_frames(frames)
    offsets = np.concatenate([[0], np.cumsum([f.shape[1] for f in frames])])
    dim = int(offsets[-1])
    grad = np.zeros(dim)
    hess = np.zeros((dim, dim))
    for j in range(segments):
        p, q, F, G = base[j], base[j + 1], frames[j], frames[j + 1]
        a = np.vdot(q, p)
        beta = F.T @ q.conj()
        gamma = G.conj().T @ p
        a2 = abs(a) ** 2
        cs = 2.0 * (a.conjugate() * beta).real
        ct = 2.0 * (a.conjugate() * gamma).real
        css = 2.0 * (np.outer(beta, beta.conj()).real
                     - a2 * np.eye(F.shape[1]))
        ctt = 2.0 * (np.outer(gamma, gamma.conj()).real
                     - a2 * np.eye(G.shape[1]))
        cst = 2.0 * (np.outer(beta, gamma.conj())
                     + a.conjugate() * (F.T @ G.conj())).real
        d1, d2 = (float(d) for d in _segment_slopes(max(0.0, 1.0 - a2)))
        s = slice(offsets[j], offsets[j + 1])
        t = slice(offsets[j + 1], offsets[j + 2])
        grad[s] -= segments * d1 * cs
        grad[t] -= segments * d1 * ct
        hess[s, s] += segments * (d2 * np.outer(cs, cs) - d1 * css)
        hess[t, t] += segments * (d2 * np.outer(ct, ct) - d1 * ctt)
        hess[s, t] = segments * (d2 * np.outer(cs, ct) - d1 * cst)
        hess[t, s] = hess[s, t].T
    return grad, hess


def pair_of(eig: np.ndarray) -> tuple[int, int]:
    """(index, nullity) under critical_index's threshold tau."""
    tau = 64.0 * len(eig) * np.finfo(float).eps * np.max(np.abs(eig))
    return int(np.sum(eig < -tau)), int(np.sum(np.abs(eig) <= tau))


def assert_matches_the_loop(n: int, k: int, seed: int) -> None:
    """The batched gradient and Hessian equal the segment loop's entry
    by entry within 1e-13 * scale, and give critical_index's pair."""
    base, frames = _critical_configuration(n, k, np.random.default_rng(seed))
    grad, diag, off = _bands(base, frames)
    hess = _hessian_matrix(diag, off)
    want_grad, want_hess = loop_hessian(base, frames)
    scale = float(np.max(np.abs(want_hess)))
    assert hess.shape == want_hess.shape == (2 * n * _segment_count(k),) * 2
    assert np.max(np.abs(hess - want_hess)) <= 1e-13 * scale
    assert np.max(np.abs(grad - want_grad)) <= 1e-13 * scale
    res = critical_index(n, k, rng=np.random.default_rng(seed))
    assert (res.index, res.nullity) == pair_of(np.linalg.eigvalsh(want_hess))
    assert (res.index, res.nullity) == morse_pair(n, k)


def morse_pair(n: int, k: int) -> tuple[int, int]:
    """(index, nullity) of the level-k critical geodesics."""
    return (0, n) if k == 0 else (1 + (k - 1) * n, 2 * n - 1)


def defect(p: ProjPoint, q: ProjPoint) -> float:
    """Pairing defect 1 - |<p, q>|; zero exactly on equal points and
    numerically robust where arccos is not."""
    return 1.0 - abs(np.vdot(p.rep, q.rep))


# how DiscretePath rejects a changed copy of a good path: the change
# to (samples, params), and the message
REJECTIONS = [
    (lambda s, t: (s[:1], t[:1]), "path needs at least two samples"),
    (lambda s, t: (s[0], t), "path needs at least two samples"),
    (lambda s, t: (s, t[:-1]), "one breakpoint per sample required"),
    (lambda s, t: (s, t + 1e-11), "breakpoints must run from 0 to 1"),
    (lambda s, t: (s, t * 0.999), "breakpoints must run from 0 to 1"),
    (lambda s, t: (s, t[[0, 2, 1, 3, 4]]),
     "breakpoints must be strictly increasing"),
    (lambda s, t: (s, np.array([0.0, 0.2, 0.2, 0.6, 1.0])),
     "breakpoints must be strictly increasing"),
    (lambda s, t: (scaled(s, 2, 1.0 + 1e-8), t),
     "samples must be unit vectors"),
    # the interior check runs over every row before the endpoint
    # checks
    (lambda s, t: (scaled(scaled(s, 2, 1.0 + 1e-8), 0, 1.0 + 1e-10), t),
     "samples must be unit vectors"),
    # endpoints off by between 1e-12 and 1e-9: the interior tolerance
    # passes them, ProjPoint's unit check does not
    (lambda s, t: (scaled(s, 0, 1.0 + 1e-10), t),
     "representative must be a unit vector"),
    (lambda s, t: (scaled(s, -1, 1.0 - 5e-11), t),
     "representative must be a unit vector"),
    (lambda s, t: (phased(s, 0), t),
     "path endpoints must lie on the real locus"),
    (lambda s, t: (phased(s, -1), t),
     "path endpoints must lie on the real locus"),
    # the start is checked in full before the end
    (lambda s, t: (scaled(phased(s, 0), -1, 1.0 + 1e-10), t),
     "path endpoints must lie on the real locus"),
    (lambda s, t: (phased(scaled(s, 0, 1.0 + 1e-10), -1), t),
     "representative must be a unit vector"),
]


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


class TestComparisons:
    def test_equality_is_identity_and_equals_is_projective(self):
        # the generated __eq__ compared the numpy fields with ==, whose
        # array of results has no truth value
        p, q = proj_point([1, 0]), proj_point([1, 0])
        assert (p == p, p == q, p != q, p in [q], p in [q, p]) \
            == (True, False, True, False, True)
        assert len({p, q, p}) == 2
        assert p.equals(q) and q.equals(ProjPoint(1j * p.rep))
        x, u = real_pair(2, 3)
        v = TangentVector(base=x, vec=u.vec)
        assert (u == u, u == v, u in [v]) == (True, False, False)
        assert len({u, v}) == 2
        # eigenvalues take no part: the other fields decide
        one, two = (critical_index(1, 1, np.random.default_rng(0))
                    for _ in range(2))
        other = critical_index(1, 1, np.random.default_rng(1))
        assert one == two and one is not two
        assert (one == other) is (one.gradient_norm == other.gradient_norm)


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

    @pytest.mark.parametrize("change, message", REJECTIONS)
    def test_rejections_keep_their_messages(self, change, message):
        good = half_circle(*real_pair(2, 3), 1.1, samples=5)
        samples, params = change(np.array(good.samples),
                                 np.array(good.params))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DiscretePath(samples=samples, params=params)

    def test_values_inside_the_tolerances_pass(self):
        s = np.array(half_circle(*real_pair(2, 3), 1.1, samples=5).samples)
        t = np.linspace(0.0, 1.0, 5)
        DiscretePath(samples=scaled(s, 0, 1.0 + 5e-13), params=t)
        DiscretePath(samples=scaled(s, 2, 1.0 + 5e-10), params=t)
        # a phase of 5e-5 on one coordinate lowers |sum z_j^2| by at most
        # (5e-5)^2 / 2, inside the 1e-8 endpoint tolerance
        DiscretePath(samples=phased(s, 0, 5e-5), params=t)

    def test_paths_are_immutable(self):
        samples = np.array(constant_path(real_point([1.0, 0.0]), 3).samples)
        params = np.linspace(0.0, 1.0, 3)
        path = DiscretePath(samples=samples, params=params)
        for name, value in (("samples", samples), ("params", params)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(path, name, value)
        with pytest.raises(ValueError, match="read-only"):
            path.samples[1, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            path.params[1] = 0.25
        # the path keeps copies: the caller's arrays stay writable and
        # writing into them changes nothing
        samples[1] = [0.0, 1.0]
        params[1] = 0.25
        assert path.samples[1, 0] == 1.0 and path.params[1] == 0.5
        # half_circle's shared breakpoint grid cannot be written either
        assert not any(a.flags.writeable for a in _arc_grid(5))

    def test_energy_matches_the_reference_formula(self):
        def check(path: DiscretePath) -> None:
            assert path_energy(path) == reference_energy(path)
            assert path_norm(path) == math.sqrt(reference_energy(path))

        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            a = sample_yk(n, int(rng.integers(1, 4)), rng,
                          samples_per_arc=12)
            check(a)
            b = sample_yk(n, 1, rng, samples_per_arc=12, start=a.end())
            check(b)
            check(a.reversed())
            check(concat_min(a, b))
            check(concat_min(b.reversed(), a.reversed()))

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
        with pytest.raises(ValueError,
                           match="^paths do not share the junction point$"):
            concat_min(a, b)
        # a start 1e-4 away pairs to 1 - 5e-9, inside the junction
        # tolerance 1e-8; one 3e-4 away pairs to 1 - 4.5e-8, outside it
        near = constant_path(real_point([1.0, 1e-4, 0.0]))
        concat_min(a, near)
        off = constant_path(real_point([1.0, 3e-4, 0.0]))
        with pytest.raises(ValueError,
                           match="^paths do not share the junction point$"):
            concat_min(a, off)

    def test_phase_of_the_second_factor_is_aligned(self):
        x, u = real_pair(2, 4)
        arc = half_circle(x, u, 0.9, samples=8)
        a = DiscretePath(samples=arc.samples * np.exp(0.7j),
                         params=arc.params)
        y = arc.end()
        b = half_circle(y, random_real_tangent(y, np.random.default_rng(1)),
                        0.6, samples=8)
        ab = concat_min(a, b)
        assert np.array_equal(ab.samples[:8], a.samples)
        # after the junction ab is b times one phase, the one that
        # carries b's first row onto a's last
        c = np.vdot(b.samples[1], ab.samples[8])
        assert abs(abs(c) - 1.0) < 1e-12
        assert np.allclose(ab.samples[8:], c * b.samples[1:], atol=1e-12)
        assert np.allclose(c * b.samples[0], a.samples[-1], atol=1e-12)
        assert not np.allclose(b.samples[0], a.samples[-1], atol=1e-3)

    def test_two_constant_factors_join_at_one_half(self):
        # no energy fixes the junction, so the convention s = 1/2 does
        a = constant_path(real_point([1.0, 0.0]))
        both = concat_min(a, constant_path(real_point([1.0, 0.0]), 3))
        assert both.params.tolist() == [0.0, 0.5, 0.75, 1.0]
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
        res = critical_index(2, 0, rng=np.random.default_rng(0))
        assert (res.index, res.nullity) == (0, 2)
        assert res.gradient_norm < 1e-8

    def test_first_closed_configuration(self):
        res = critical_index(1, 1, rng=np.random.default_rng(0))
        assert (res.index, res.nullity) == (1, 1)

    @pytest.mark.parametrize("n, k", [(1, 0), (1, 3), (2, 2), (3, 1),
                                      (4, 5)])
    def test_frames_are_read_off_the_geodesic(self, n, k):
        rng = np.random.default_rng(5)
        base, frames = _critical_configuration(n, k, rng)
        # the configuration draws the base point and the direction only
        fresh = np.random.default_rng(5)
        random_real_tangent(random_real_point(n, fresh), fresh)
        assert rng.bit_generator.state == fresh.bit_generator.state
        segments = _segment_count(k)
        assert base.shape == (segments + 1, n + 1)
        assert frames.shape == (segments + 1, n + 1, 2 * n)
        for j, (p, frame) in enumerate(zip(base, frames)):
            # [f, E] and i times it, each column of unit length and
            # real-orthogonal to the others and to the sample
            assert np.array_equal(frame[:, n:], 1j * frame[:, :n])
            gram = (frame.conj().T @ frame).real
            assert np.max(np.abs(gram - np.eye(2 * n))) < 1e-14
            assert np.max(np.abs((frame.conj().T @ p).real)) < 1e-14
            if j in (0, segments):
                # the real half is a frame of the real locus at p
                assert not np.any(frame[:, :n].imag) and not np.any(p.imag)

    @pytest.mark.parametrize("damage", [move_interior_sample,
                                        spoil_interior_sample])
    def test_gradient_guard_rejects_noncritical_setups(self, monkeypatch,
                                                       damage):
        def damaged(n, k, rng):
            base, frames = _critical_configuration(n, k, rng)
            damage(base, frames, rng)
            return base, frames

        monkeypatch.setattr(geometry, "_critical_configuration", damaged)
        with pytest.raises(GradientCheckError,
                           match="configuration is not critical"):
            critical_index(2, 1)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_banded_hessian_matches_dense_reference(self, n, k):
        # finite differences of the whole path's energy
        base, frames = _critical_configuration(n, k, np.random.default_rng(0))
        want = np.linalg.eigvalsh(dense_hessian(base, frames))
        got = critical_index(n, k, rng=np.random.default_rng(0)).eigenvalues
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-6 * scale

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, k", INDEX_GRID + HIGH_GRID)
    def test_batched_assembly_matches_the_segment_loop(self, n, k, seed):
        assert_matches_the_loop(n, k, seed)

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (3, 0)])
    def test_batched_assembly_matches_the_loop_off_the_critical_point(
            self, n, k):
        # on the geodesic the interior coupling blocks are symmetric up
        # to rounding; a moved sample with a random frame makes them
        # generic, so each block must sit the right way round
        base, frames = _critical_configuration(n, k, np.random.default_rng(0))
        move_interior_sample(base, frames, np.random.default_rng(1))
        grad, diag, off = _bands(base, frames)
        want_grad, want_hess = loop_hessian(base, frames)
        scale = float(np.max(np.abs(want_hess)))
        inner = off[1:-1]
        assert np.max(np.abs(inner - inner.swapaxes(1, 2))) > 1e-3 * scale
        hess = _hessian_matrix(diag, off)
        assert np.max(np.abs(hess - want_hess)) <= 1e-13 * scale
        assert np.max(np.abs(grad - want_grad)) <= 1e-13 * scale

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
    def test_batched_assembly_matches_the_loop_at_drawn_seeds(self, n, k,
                                                              seed):
        assert_matches_the_loop(n, k, seed)

    @pytest.mark.parametrize("n, k", HIGH_GRID)
    def test_high_levels(self, n, k):
        # the first non-null eigenvalue falls below 1e-3 * scale from
        # k = 12 on, and to 1.6e-4 * scale at k = 30
        res = index_at(n, k)
        assert (res.index, res.nullity) == morse_pair(n, k)
        assert res.gradient_norm < 1e-10

    def test_null_threshold_sits_between_rounding_and_geometry(self):
        # tau = 64 * dim * eps * scale, the threshold critical_index
        # derives from the float error of the eigensolver
        for n, k in INDEX_GRID + HIGH_GRID:
            mags = np.sort(np.abs(index_at(n, k).eigenvalues))
            tau = 64 * len(mags) * np.finfo(float).eps * mags[-1]
            nullity = morse_pair(n, k)[1]
            assert mags[nullity - 1] <= tau / 100, (n, k)
            assert mags[nullity] >= 100 * tau, (n, k)

    @pytest.mark.parametrize("u", [0.0, 1e-6, 1e-5, 1e-3, 0.15, 0.5, 0.9])
    def test_segment_slopes_are_the_derivatives_of_arcsin_squared(self, u):
        def g(v: float) -> float:
            return math.asin(math.sqrt(v)) ** 2

        def g1(v: float) -> float:
            return _segment_slopes(v)[0]

        d1, d2 = _segment_slopes(u)
        if u == 0.0:
            assert (d1, d2) == (1.0, 2.0 / 3.0)
            return
        step = 1e-3 * min(u, 1.0 - u)
        assert d1 == pytest.approx((g(u + step) - g(u - step)) / (2 * step),
                                   rel=1e-5)
        assert d2 == pytest.approx((g1(u + step) - g1(u - step)) / (2 * step),
                                   rel=1e-5)

    def test_segment_slopes_are_continuous_at_the_series_switch(self):
        below = _segment_slopes(np.nextafter(1e-6, 0.0))
        above = _segment_slopes(1e-6)
        assert below == pytest.approx(above, rel=1e-9, abs=0.0)


def real_pair(n: int, seed: int) -> tuple[ProjPoint, TangentVector]:
    rng = np.random.default_rng(seed)
    x = random_real_point(n, rng)
    return x, random_real_tangent(x, rng)


def scaled(samples: np.ndarray, row: int, factor: float) -> np.ndarray:
    out = np.array(samples)
    out[row] *= factor
    return out


def phased(samples: np.ndarray, row: int, angle: float = 0.3) -> np.ndarray:
    """Rotate one coordinate of one row by a phase: still a unit row,
    no longer a real point unless the angle is small."""
    out = np.array(samples)
    out[row, 0] *= np.exp(1j * angle)
    return out


def reference_energy(path: DiscretePath) -> float:
    """The energy formula written with np.clip, np.diff and np.sum, which
    path_energy replaces by cheaper calls with the same arithmetic."""
    inner = np.abs(np.einsum("ij,ij->i",
                             path.samples[:-1], path.samples[1:].conj()))
    d = np.arccos(np.clip(inner, 0.0, 1.0))
    return float(np.sum(d * d / np.diff(path.params)))


def dense_hessian(base: np.ndarray, frames: np.ndarray, h: float = 1e-4
                  ) -> np.ndarray:
    """Reference second variation: every entry, band or not, from the
    energy of the whole path under the same stencils critical_index
    uses."""
    segments = base.shape[0] - 1
    frames = kept_frames(frames)
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
    def test_index_check_reports_the_pair(self):
        report = index_check(2, 2)
        assert report.passed
        assert "index=3 nullity=3" in report.items[0].name

    @pytest.mark.parametrize("n, k", [(1, 0), (4, 0), (1, 3), (2, 2),
                                      (3, 1), (4, 5)])
    def test_index_check_expects_the_homology_inputs(self, n, k):
        # the expected pair comes from the homology assembly: block
        # shift and top degree of the critical manifold
        name = index_check(n, k).items[0].name
        assert name.endswith(f"expected {morse_pair(n, k)}")

    @pytest.mark.parametrize("suite", [concat_check, halfcircle_check,
                                       yk_check])
    def test_sampling_suites(self, suite):
        assert suite(10, seed=1).passed
        with pytest.raises(ValueError):
            suite(0)

    def test_concat_check_fails_below_roundoff(self, monkeypatch):
        monkeypatch.setattr(geometry, "_CHECK_TOL", 1e-20)
        report = concat_check(10, seed=1)
        assert [item.passed for item in report.items] == [False, False]

    def test_halfcircle_peak_sits_at_a_quarter_turn(self):
        # both grid ends tie; roundoff decides which one is reported
        peak = halfcircle_check(4, seed=833820).items[-1]
        assert "norm peaks at theta" in peak.name
        assert peak.passed


# ---------------------------------------------------------------------------
# Batched kernels and the trial axis of the sampling suites


def scalar_normalize(vec) -> np.ndarray:
    """normalize as it was written for one vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return v / np.linalg.norm(v)


def scalar_real_representative(point: ProjPoint) -> np.ndarray:
    """ProjPoint.real_representative as it was written for one point."""
    s = complex(np.add.reduce(point.rep * point.rep))
    z = point.rep * cmath.exp(-0.5j * cmath.phase(s))
    re = np.ascontiguousarray(z.real)
    return re / math.sqrt(np.vdot(re, re).real)


def scalar_random_real_point(n: int, rng) -> ProjPoint:
    return ProjPoint(scalar_normalize(rng.standard_normal(n + 1)))


def scalar_random_real_tangent(x: ProjPoint, rng) -> TangentVector:
    """random_real_tangent as it was written for one point."""
    r = scalar_real_representative(x)
    while True:
        v = rng.standard_normal(r.shape[0])
        v = v - np.dot(v, r) * r
        norm = math.sqrt(np.vdot(v, v).real)
        if norm > 1e-6:
            v = v / norm
            v = v - np.dot(v, r) * r
            return TangentVector(base=ProjPoint(r.astype(complex)),
                                 vec=scalar_normalize(v))


def use_scalar_sampling(monkeypatch) -> None:
    monkeypatch.setattr(ProjPoint, "real_representative",
                        scalar_real_representative)
    monkeypatch.setattr(geometry, "random_real_point",
                        scalar_random_real_point)
    monkeypatch.setattr(geometry, "random_real_tangent",
                        scalar_random_real_tangent)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def batch_inputs(n: int, rows: int, seed: int):
    """Complex points, their real representatives and real unit
    tangents there, one row each, drawn through the kernels."""
    rngs = [np.random.default_rng([seed, i]) for i in range(rows)]
    x = geometry._real_points(rngs, n)
    r = geometry._real_reps(x)
    return x, r, geometry._tangents(r, rngs)


class TestBatchKernels:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_row_rounds_as_its_batch_of_one(self, n):
        x, r, u = batch_inputs(n, 7, n)
        phases = np.exp(1j * np.linspace(-2.0, 2.0, 7))[:, None]
        thetas = np.array([0.0, math.pi / 2, -math.pi / 2, 0.3, 2.9,
                           -1.2, 1e-6])
        arcs = geometry._half_circles(r, u, thetas, 17)
        chains = geometry._chains(
            [np.random.default_rng([9, i]) for i in range(7)], n,
            np.full((7, 2), 0.7), 9, arcs[0][:, -1])[0][1]
        arclengths = [0.0, 0.3, math.pi / 2, 2.0]
        cases = [
            (geometry._unit_rows, (x * 3.0 - 1j,)),
            (geometry._real_reps, (x * phases,)),
            (geometry._geodesics, (x[:, None], 1j * u[:, None], arclengths)),
            (geometry._geodesics, (x, u, thetas)),
            (lambda *a: geometry._half_circles(*a, 17)[0], (r, u, thetas)),
            (geometry._energies, arcs[:2]),
            (lambda *a: geometry._concat(a[:2], a[2:])[0],
             arcs + chains),
            (lambda *a: geometry._concat(a[:2], a[2:])[1],
             arcs + chains),
        ]
        if n % 2:
            cases.append((lambda a: geometry._skew(a, "J"), (r,)))
        for kernel, args in cases:
            batch = kernel(*args)
            for i in range(7):
                alone = kernel(*(a[i:i + 1] if isinstance(a, np.ndarray)
                                 else a for a in args))
                assert same_bits(batch[i:i + 1], alone)

    def test_tangents_draw_each_row_from_its_generator(self):
        _, r, _ = batch_inputs(2, 5, 4)
        batch = geometry._tangents(
            r, [np.random.default_rng([1, i]) for i in range(5)])
        for i in range(5):
            alone = geometry._tangents(r[i:i + 1],
                                       [np.random.default_rng([1, i])])
            assert same_bits(batch[i:i + 1], alone)

    # the changes that keep the shapes, so the bad path stacks with good
    # ones
    @pytest.mark.parametrize("change, message", [
        case for case in REJECTIONS if case[1] not in (
            "path needs at least two samples",
            "one breakpoint per sample required")])
    def test_one_bad_row_rejects_the_batch_as_discrete_path_does(
            self, change, message):
        good = half_circle(*real_pair(2, 3), 1.1, samples=5)
        bad = change(np.array(good.samples), np.array(good.params))
        samples = np.stack([good.samples, bad[0], good.samples])
        params = np.stack([good.params, bad[1], good.params])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            geometry._check_paths(samples, params)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DiscretePath(samples=bad[0], params=bad[1])


def refusals():
    """(call, exception type, message) of the geometry layer's input
    refusals."""
    x, u = real_pair(2, 3)
    y = real_point([0.0, 0.0, 1.0])
    r, v = batch_inputs(2, 3, 4)[1:]
    return [
        (lambda: TangentVector(base=x, vec=np.zeros(2)), ValueError,
         "tangent vector has wrong ambient dimension"),
        (lambda: geodesic(y, u, 0.1), ValueError,
         "tangent vector is not based at x"),
        (lambda: half_circle(y, u, 0.5), ValueError,
         "tangent vector is not based at x"),
        (lambda: geometry._half_circles(r, v, np.full(3, 0.5), 1),
         ValueError, "need at least two samples"),
        (lambda: sample_yk(2, 0, RNG), ValueError, "k must be >= 1"),
        (lambda: sample_yk(2, 2, RNG, thetas=[0.5, 0.5, 0.5]), ValueError,
         "need exactly 2 angles"),
        (lambda: critical_index(0, 1), ValueError,
         "need n >= 1 and k >= 0"),
        (lambda: critical_index(2, -1), ValueError,
         "need n >= 1 and k >= 0"),
    ]


@pytest.mark.parametrize("call, error, message", refusals())
def test_refusals_keep_their_types_and_messages(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error


# report lines of the three sampling suites at the benchmark's trial
# counts (60, 20, 100) and at the command-line defaults (1000, 200, 200),
# seeds 0-9, written by the per-trial implementation the trial axis
# replaced; keys are "suite trials seed"
SAMPLING_REPORTS = json.loads(
    (Path(__file__).parent / "sampling_reports.json").read_text())
# printed worst errors, with the word that precedes them
WORST = re.compile(r"^(?:worst(?: error| excess)?|error) (\S+?)(?:;|$)")


def verdict(line: str) -> str:
    """A report line up to its item name.  The peak's sign is dropped:
    both grid ends tie up to roundoff, so the platform picks one."""
    head = re.sub(r" \((?:worst|error|within) .*\)$", "", line)
    return head.replace("theta = -", "theta = +")


def record_trials(monkeypatch) -> tuple[list, dict, dict]:
    """Capture the suites' trial generators in trial order, and per
    generator the angles of each _chains call and the (base, direction)
    rows of each _tangents call, as bytes.  Every generator seen is kept
    alive, so no two share an id."""
    gens, angles, tangents = [], defaultdict(list), defaultdict(list)
    seen = []
    trial_rngs, chains, draw = (geometry._trial_rngs, geometry._chains,
                                geometry._tangents)

    def recording_rngs(trials, seed):
        for rng in trial_rngs(trials, seed):
            gens.append(rng)
            yield rng

    def recording_chains(rngs, n, thetas, *rest):
        seen.extend(rngs)
        for rng, row in zip(rngs, thetas):
            angles[id(rng)].append(row[~np.isnan(row)].tobytes())
        return chains(rngs, n, thetas, *rest)

    def recording_tangents(r, rngs):
        u = draw(r, rngs)
        seen.extend(rngs)
        for rng, base, direction in zip(rngs, r, u):
            tangents[id(rng)].append((base.tobytes(), direction.tobytes()))
        return u

    monkeypatch.setattr(geometry, "_trial_rngs", recording_rngs)
    monkeypatch.setattr(geometry, "_chains", recording_chains)
    monkeypatch.setattr(geometry, "_tangents", recording_tangents)
    return gens, angles, tangents


def concat_trial(rng) -> None:
    """One trial of concat_check, drawn through sample_yk."""
    n, arcs = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    a = sample_yk(n, arcs, rng, rng.uniform(0.05, math.pi / 2, arcs), 12)
    b = sample_yk(n, 1, rng, rng.uniform(0.05, math.pi / 2, 1), 12,
                  start=a.end())
    sample_yk(n, 1, rng, rng.uniform(0.05, math.pi / 2, 1), 12,
              start=b.end())


def halfcircle_trial(rng) -> None:
    """One trial of halfcircle_check, drawn through the point API."""
    x = random_real_point(int(rng.integers(1, 4)), rng)
    random_real_tangent(x, rng)
    rng.uniform(-math.pi, math.pi)


def yk_trial(rng) -> None:
    """One trial of yk_check, drawn through sample_yk."""
    n, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    sample_yk(n, k, rng, samples_per_arc=16)


class TestTrialAxis:
    @pytest.mark.parametrize("suite, trial", [
        (concat_check, concat_trial), (halfcircle_check, halfcircle_trial),
        (yk_check, yk_trial)])
    def test_suites_draw_what_one_trial_at_a_time_draws(
            self, monkeypatch, suite, trial):
        # blocks of 16 put trials 0-39 in three blocks
        monkeypatch.setattr(geometry, "_TRIAL_BLOCK", 16)
        gens, angles, tangents = record_trials(monkeypatch)
        suite(40, seed=5)
        assert len(gens) == 40
        for i, rng in enumerate(gens):
            alone = np.random.default_rng([5, i])
            trial(alone)
            # n, the arc count, the angles, every arc's base point and
            # direction, and no draw more or less
            assert angles[id(rng)] == angles[id(alone)]
            assert tangents[id(rng)] == tangents[id(alone)]
            assert len(tangents[id(rng)]) >= 1
            assert rng.bit_generator.state == alone.bit_generator.state

    @pytest.mark.parametrize("key", sorted(SAMPLING_REPORTS))
    def test_verdicts_match_the_per_trial_reports(self, key):
        name, trials, seed = key.split()
        lines = getattr(geometry, name)(int(trials), seed=int(seed)).lines()
        want = SAMPLING_REPORTS[key]
        assert [verdict(line) for line in lines] == \
            [verdict(line) for line in want]
        for line in lines[1:]:
            detail = re.search(r" \((.*)\)$", line)
            worst = WORST.match(detail.group(1)) if detail else None
            if worst:
                assert float(worst.group(1)) < geometry._CHECK_TOL

    def test_index_reports_keep_the_per_point_arithmetic(self, monkeypatch):
        # critical_index draws its configuration through
        # random_real_point and random_real_tangent, which the sampling
        # kernels now serve
        grid = [(n, k) for n in (1, 2, 3) for k in range(6)] + [(5, 4)]
        use_scalar_sampling(monkeypatch)
        want = [index_check(n, k).lines() for n, k in grid]
        monkeypatch.undo()
        assert [index_check(n, k).lines() for n, k in grid] == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_point_draws_keep_the_per_point_arithmetic(self, n):
        kernels, scalar = (np.random.default_rng([n, 1]) for _ in range(2))
        for _ in range(200):
            x = random_real_point(n, kernels)
            y = scalar_random_real_point(n, scalar)
            assert same_bits(x.rep, y.rep)
            turned = ProjPoint(x.rep * np.exp(0.4j))
            assert same_bits(turned.real_representative(),
                             scalar_real_representative(turned))
            assert same_bits(random_real_tangent(x, kernels).vec,
                             scalar_random_real_tangent(y, scalar).vec)

    def test_blocks_bound_the_memory_of_a_suite(self):
        block = geometry._TRIAL_BLOCK
        concat_check(block, seed=3)

        def peak(trials: int) -> int:
            tracemalloc.start()
            try:
                concat_check(trials, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * block) <= 1.5 * peak(block)
