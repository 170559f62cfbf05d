"""Numerical geometry: projective points, discrete paths, half-circles,
second-variation indices."""

import cmath
import dataclasses
import functools
import math
import re
import tracemalloc
from collections import defaultdict

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
    keeps its real columns, its real frame of the real locus."""
    last = len(frames) - 1
    return [f[:, ~np.any(f.imag, axis=0)] if j in (0, last) else f
            for j, f in enumerate(frames)]


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


def critical_setup(n: int, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """_critical_configuration at a real point and direction drawn from
    rng as critical_index draws them, through the per-point draws."""
    x = random_real_point(n, rng)
    return _critical_configuration(
        x.rep.real, random_real_tangent(x, rng).vec.real, k)


def assert_matches_the_loop(n: int, k: int, seed: int) -> None:
    """The batched gradient and Hessian equal the segment loop's entry
    by entry within 1e-13 * scale, and give critical_index's pair."""
    base, frames = critical_setup(n, k, np.random.default_rng(seed))
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
    pytest.param(lambda s, t: (s[:1], t[:1]),
                 "path needs at least two samples", id="one-sample"),
    pytest.param(lambda s, t: (s[0], t),
                 "path needs at least two samples", id="samples-one-row"),
    pytest.param(lambda s, t: (s, t[:-1]),
                 "one breakpoint per sample required", id="breakpoint-short"),
    pytest.param(lambda s, t: (s, t + 1e-11),
                 "breakpoints must run from 0 to 1", id="breakpoints-raised"),
    pytest.param(lambda s, t: (s, t * 0.999),
                 "breakpoints must run from 0 to 1", id="breakpoints-shrunk"),
    # the ends are compared with 0 and 1 exactly
    pytest.param(lambda s, t: (s, t - 1e-13),
                 "breakpoints must run from 0 to 1", id="breakpoints-lowered"),
    pytest.param(lambda s, t: (s, t[[0, 2, 1, 3, 4]]),
                 "breakpoints must be strictly increasing",
                 id="breakpoints-swapped"),
    pytest.param(lambda s, t: (s, np.array([0.0, 0.2, 0.2, 0.6, 1.0])),
                 "breakpoints must be strictly increasing",
                 id="breakpoints-repeated"),
    # every sample, interior or end, has ProjPoint's unit check
    pytest.param(lambda s, t: (scaled(s, 2, 1.0 + 1e-8), t),
                 "representative must be a unit vector",
                 id="interior-scaled"),
    pytest.param(
        lambda s, t: (scaled(scaled(s, 2, 1.0 + 1e-8), 0, 1.0 + 1e-10), t),
        "representative must be a unit vector",
        id="interior-and-start-scaled"),
    pytest.param(lambda s, t: (scaled(s, 0, 1.0 + 1e-10), t),
                 "representative must be a unit vector", id="start-scaled"),
    pytest.param(lambda s, t: (scaled(s, -1, 1.0 - 5e-11), t),
                 "representative must be a unit vector", id="end-shrunk"),
    pytest.param(lambda s, t: (phased(s, 0), t),
                 "path endpoints must lie on the real locus",
                 id="start-phased"),
    pytest.param(lambda s, t: (phased(s, -1), t),
                 "path endpoints must lie on the real locus",
                 id="end-phased"),
    # the unit check runs over every sample before the ends' real-locus
    # check
    pytest.param(lambda s, t: (scaled(phased(s, 0), -1, 1.0 + 1e-10), t),
                 "representative must be a unit vector",
                 id="start-phased-end-scaled"),
    pytest.param(lambda s, t: (phased(scaled(s, 0, 1.0 + 1e-10), -1), t),
                 "representative must be a unit vector",
                 id="start-scaled-end-phased"),
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
        DiscretePath(samples=scaled(s, 2, 1.0 + 5e-13), params=t)
        # an interior sample has the ends' unit bound, _UNIT_TOL
        with pytest.raises(
                ValueError, match="^representative must be a unit vector$"):
            DiscretePath(samples=scaled(s, 2, 1.0 + 5e-10), params=t)
        # a phase of 2e-5 on one coordinate lowers |sum z_j^2| by at most
        # (2e-5)^2 / 2, inside _REAL_TOL; one of 5e-5 lowers it by 1.2e-9
        # here, past it, where is_real calls the endpoint not real
        DiscretePath(samples=phased(s, 0, 2e-5), params=t)
        with pytest.raises(
                ValueError,
                match="^path endpoints must lie on the real locus$"):
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
        # nor can the breakpoints the half-circle kernel returns
        r, u = batch_inputs(2, 3, 4)[1:]
        grid = geometry._half_circles(r, u, np.full(3, 0.5), 5)[1]
        assert not grid.flags.writeable

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
        # a start 1e-6 away pairs to 1 - 5e-13, the same point by
        # ProjPoint.equals (above 1 - _UNIT_TOL); one 1e-4 away pairs to
        # 1 - 5e-9 and one 3e-4 away to 1 - 4.5e-8, neither the same
        near = constant_path(real_point([1.0, 1e-6, 0.0]))
        concat_min(a, near)
        apart = constant_path(real_point([1.0, 1e-4, 0.0]))
        with pytest.raises(ValueError,
                           match="^paths do not share the junction point$"):
            concat_min(a, apart)
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
            got = half_circle(x, u, float(theta), samples=17).samples
            want = half_circle_reference(x, u, float(theta), samples=17)
            # the reference lifts each sample with a real >= 0, a phase
            # the path does not fix: turn each sample onto its reference
            z = np.einsum("ij,ij->i", got.conj(), want)
            assert np.max(np.abs(got * (z / np.abs(z))[:, None] - want)) \
                < 1e-14
            # the rotation itself, one scalar sample at a time
            want = half_circle_rotation(x, u, float(theta), samples=17)
            assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("theta", [
        0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 3 * math.pi,
        101 * math.pi, 1e-300, 1e-14])
    def test_angles_near_zero_mod_pi_stay_at_x(self, n, theta):
        rng = np.random.default_rng(n)
        x = random_real_point(n, rng)
        u = random_real_tangent(x, rng)
        hc = half_circle(x, u, theta, samples=9)
        assert all(ProjPoint(p).equals(x) for p in hc.samples)
        if theta in (0.0, math.pi, -math.pi):
            assert (hc.samples == x.real_representative()).all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2])
    def test_right_angle_ends_at_the_direction(self, n, theta):
        rng = np.random.default_rng(n)
        x = random_real_point(n, rng)
        u = random_real_tangent(x, rng)
        hc = half_circle(x, u, theta, samples=9)
        assert hc.end().equals(ProjPoint(u.vec))
        assert np.max(np.abs(np.linalg.norm(hc.samples, axis=1) - 1.0)) \
            < 1e-15
        basis = np.stack([x.real_representative(), u.vec.real])
        off = hc.samples - hc.samples @ basis.T @ basis
        assert np.max(np.abs(off)) < 2e-15

    def test_ties_mod_pi_go_to_the_even_quotient(self):
        # odd multiples of pi/2 are exact floats, ties of the reduction
        # mod pi, which IEEE remainder rounds to the even quotient: 1.5 pi
        # and 3.5 pi reduce to -pi/2, 2.5 pi and -1.5 pi to +pi/2, each
        # bit for bit, where fmod would put 1.5 pi on the other hemisphere
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            x = random_real_point(n, rng)
            u = random_real_tangent(x, rng)
            for quarter, ties in ((-0.5, (1.5, 3.5)), (0.5, (2.5, -1.5))):
                want = half_circle(x, u, quarter * math.pi, samples=9).samples
                # each quarter turn runs on its own hemisphere
                assert np.max(np.abs(want - half_circle_rotation(
                    x, u, quarter * math.pi, samples=9))) < 1e-14
                for tie in ties:
                    got = half_circle(x, u, tie * math.pi, samples=9).samples
                    assert same_bits(got, want)

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
        start = random_real_point(n, rng)
        x = start.rep.real
        u = random_real_tangent(start, rng).vec.real
        base, frames = _critical_configuration(x, u, k)
        # the geodesic leaves x
        assert np.max(np.abs(base[0] - x)) < 1e-15
        segments = _segment_count(k)
        # inside, the samples and each frame's first column are the points
        # of one geodesic, bit for bit: from x along i u, and its velocity
        arclengths = np.linspace(0.0, 0.5 * math.pi * k, segments + 1)
        assert same_bits(base[1:-1],
                         geometry._geodesics(x, 1j * u, arclengths)[1:-1])
        assert same_bits(frames[1:-1, :, 0],
                         geometry._geodesics(1j * u, -x, arclengths)[1:-1])
        assert base.shape == (segments + 1, n + 1)
        assert frames.shape == (segments + 1, n + 1, 2 * n)
        for j, (p, frame) in enumerate(zip(base, frames)):
            # [f, E] and i times it, the halves swapped at the first
            # sample, each column of unit length and real-orthogonal to
            # the others and to the sample
            real, imag = frame[:, :n], frame[:, n:]
            if j == 0:
                real, imag = imag, real
            assert np.array_equal(imag, 1j * real)
            gram = (frame.conj().T @ frame).real
            assert np.max(np.abs(gram - np.eye(2 * n))) < 1e-14
            assert np.max(np.abs((frame.conj().T @ p).real)) < 1e-14
            if j in (0, segments):
                # the real half is a frame of the real locus at p
                assert not np.any(real.imag) and not np.any(p.imag)

    @pytest.mark.parametrize("damage", [move_interior_sample,
                                        spoil_interior_sample])
    def test_gradient_guard_rejects_noncritical_setups(self, monkeypatch,
                                                       damage):
        def damaged(x, u, k):
            base, frames = _critical_configuration(x, u, k)
            damage(base, frames, np.random.default_rng(1))
            return base, frames

        monkeypatch.setattr(geometry, "_critical_configuration", damaged)
        # also at the top of the range for n = 1, where the guard's bound
        # is 65 536 times that at (2, 1)
        for n, k in ((2, 1), (1, 511)):
            with pytest.raises(GradientCheckError,
                               match="configuration is not critical"):
                critical_index(n, k)

    def test_gradient_guard_passes_the_top_of_the_range(self, monkeypatch):
        # n = 1, k = 471..511 end the documented range (k = 511: dimension
        # 4096); there |grad E| is rounding error of up to about
        # 13 eps segments^2 (1.2e-8 at k = 511, seed 0).  Each
        # configuration must reach the Hessian assembly, which is stopped
        # before the dense matrix is allocated
        class Assembled(Exception):
            pass

        def assembled(diag, off):
            raise Assembled

        monkeypatch.setattr(geometry, "_hessian_matrix", assembled)
        for k in range(471, 512):
            for seed in range(3):
                with pytest.raises(Assembled):
                    critical_index(1, k, rng=np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_banded_hessian_matches_dense_reference(self, n, k, seed):
        # finite differences of the whole path's energy; the worst of
        # these 18 cases reads 5.9e-8 * scale (n = 2, k = 0, seed 2)
        base, frames = critical_setup(n, k, np.random.default_rng(seed))
        want = np.linalg.eigvalsh(dense_hessian(base, frames))
        got = critical_index(n, k, rng=np.random.default_rng(seed)).eigenvalues
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-7 * scale

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
        base, frames = critical_setup(n, k, np.random.default_rng(0))
        move_interior_sample(base, frames, np.random.default_rng(1))
        grad, diag, off = _bands(base, frames)
        want_grad, want_hess = loop_hessian(base, frames)
        scale = float(np.max(np.abs(want_hess)))
        inner = off[1:-1]
        assert np.max(np.abs(inner - inner.swapaxes(1, 2))) > 1e-3 * scale
        hess = _hessian_matrix(diag, off)
        assert np.max(np.abs(hess - want_hess)) <= 1e-13 * scale
        assert np.max(np.abs(grad - want_grad)) <= 1e-13 * scale

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, k", INDEX_GRID + HIGH_GRID)
    def test_band_symmetries(self, n, k, seed):
        # the isometries that fix x and u move the frame columns j and
        # n + j, of class j mod n, as one and act alike on every E_j,
        # and the geodesic is an orbit that carries the frames along
        # (ROADMAP items 6, 12 and 20).  Spreads are in units of
        # eps * scale, scale the Hessian's spectral radius, each with
        # its measured worst (n, k, seed) and its bound
        base, frames = critical_setup(n, k, np.random.default_rng(seed))
        _, diag, off = _bands(base, frames)
        unit = np.finfo(float).eps * np.max(np.abs(np.linalg.eigvalsh(
            _hessian_matrix(diag, off))))

        def spread(got, want) -> float:
            return max(np.max(np.abs(g - w), initial=0.0)
                       for g, w in zip(got, want)) / unit

        def band(j: int) -> list:
            ix = [j, n + j]
            return [b[:, ix][:, :, ix] for b in (diag, off)]

        classes = np.arange(2 * n) % n
        couples = classes[:, None] != classes
        # no entry couples two classes: 0.40 at (5, 4, 1), bound 4
        assert spread([diag[:, couples], off[:, couples]], [0.0, 0.0]) <= 4
        for j in range(n):
            # class band j is the band of the frames cut to its columns:
            # 0.80 at (5, 4, 1), bound 4
            assert spread(band(j), _bands(base, frames[:, :, [j, n + j]])[1:]
                          ) <= 4
            # the E_j bands agree: 0.77 at (4, 30, 0), bound 4
            if j > 1:
                assert spread(band(j), band(1)) <= 4
        # the interior blocks are constant along the geodesic: 13.9 at
        # (3, 30, 1), bound 64
        assert spread([diag[1:-1], off[1:-1]], [diag[1], off[1]]) <= 64

    @pytest.mark.parametrize("n, k", [(4, 30), (2, 60)])
    def test_dense_path_holds_one_square(self, n, k):
        # _hessian_matrix writes one square over every sample's 2n
        # coordinates and the eigensolver reads its [n:-n] view, so the
        # traced peak is that square: 1.018 of it at (4, 30) and 1.010
        # at (2, 60), where a copying cut reads about 2
        critical_index(n, k)
        tracemalloc.start()
        try:
            critical_index(n, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 8 * ((_segment_count(k) + 1) * 2 * n) ** 2

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


def half_circle_rotation(x: ProjPoint, u: TangentVector, theta: float,
                         samples: int) -> np.ndarray:
    """Samples of the half-circle as the orbit of x's real
    representative r under the unitary that fixes the geodesic midpoint
    m = c r + s u and multiplies m' = -s r + c u by w: since r = c m -
    s m', the sample is c m - s w m', one scalar w = e^(-i pi t) at a
    time (conjugated for theta < 0)."""
    r = x.real_representative()
    half = 0.5 * math.remainder(theta, math.pi)
    c, s = math.cos(half), math.sin(half)
    m, m_perp = c * r + s * u.vec.real, -s * r + c * u.vec.real
    pts = []
    for ti in np.linspace(0.0, 1.0, samples).tolist():
        w = cmath.exp(-1j * math.copysign(math.pi * ti, half))
        pts.append(c * m - s * w * m_perp)
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


def dot(a: np.ndarray, b: np.ndarray):
    """The sum of the products of two vectors, as one einsum."""
    return np.einsum("i,i->", a, b)


def scalar_real_representative(point: ProjPoint) -> np.ndarray:
    """ProjPoint.real_representative as it was written for one point."""
    s = complex(dot(point.rep, point.rep))
    re = (point.rep * np.sqrt(s.conjugate())).real
    return re / math.sqrt(dot(re, re))


def scalar_unit_real(v: np.ndarray) -> np.ndarray:
    """A real vector over its norm, cast to complex."""
    return (v / math.sqrt(dot(v, v))).astype(complex)


def scalar_random_real_point(n: int, rng) -> ProjPoint:
    return ProjPoint(scalar_unit_real(rng.standard_normal(n + 1)))


def scalar_random_real_tangent(x: ProjPoint, rng) -> TangentVector:
    """random_real_tangent as it was written for one point."""
    r = scalar_real_representative(x)
    while True:
        v = rng.standard_normal(r.shape[0])
        v = v - dot(v, r) * r
        norm = math.sqrt(dot(v, v))
        if norm > 1e-6:
            v = v / norm
            v = v - dot(v, r) * r
            return TangentVector(base=ProjPoint(r.astype(complex)),
                                 vec=scalar_unit_real(v))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def batch_inputs(n: int, rows: int, seed: int):
    """Complex points, their real representatives and real unit
    tangents there, one row each, drawn through the kernels."""
    rng = np.random.default_rng(seed)
    x = geometry._points(rng, np.full(rows, n))
    r = geometry._real_reps(x)
    return x, r, geometry._tangents(r, rng)


class Recorded:
    """A generator that hands on each draw of rng and keeps a copy, as
    (method, array), in draws: the caller may change the array."""

    def __init__(self, rng) -> None:
        self.rng, self.draws = rng, []

    def __getattr__(self, name):
        def draw(*args):
            out = getattr(self.rng, name)(*args)
            self.draws.append((name, np.copy(out)))
            return out
        return draw


class Replayed:
    """A generator that returns a copy of each given (method, values)
    draw in order, in the shape asked for, and refuses any other draw;
    the caller may change the copy."""

    def __init__(self, draws) -> None:
        self.draws = iter(draws)

    def __getattr__(self, name):
        def draw(*args):
            want, values = next(self.draws)
            assert name == want
            return np.reshape(np.copy(values), args[-1])
        return draw


def row_draws(draws, groups) -> dict:
    """Each row's share of a block's recorded draws: the k-th draw
    holds one entry per row of groups[k], in that order."""
    assert len(draws) == len(groups)
    rows = defaultdict(list)
    for (name, out), group in zip(draws, groups):
        assert len(out) == len(group)
        for i, values in zip(group, out):
            rows[i].append((name, values))
    return rows


def width_runs(ns: np.ndarray, live) -> list:
    """The rows of each run of equal n among the live rows, n
    ascending: the rows of one standard_normal call of _gaussians."""
    return [np.flatnonzero(live & (ns == n)) for n in sorted(set(ns[live]))]


class TestBatchKernels:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_row_rounds_as_its_batch_of_one(self, n):
        x, r, u = batch_inputs(n, 7, n)
        phases = np.exp(1j * np.linspace(-2.0, 2.0, 7))[:, None]
        thetas = np.array([0.0, math.pi / 2, -math.pi / 2, 0.3, 2.9,
                           -1.2, 1e-6])
        arcs = geometry._half_circles(r, u, thetas, 17)
        chains = geometry._chains(
            np.random.default_rng(9), [n] * 7, np.full(14, 0.7), [2] * 7,
            9, arcs[0][:, -1])[0][2]
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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tangents_redraw_only_the_short_rows(self, n):
        # rows 1 and 3 first draw along their point, so their projections
        # are 0; row 3 does so again on the redraw.  Each pass draws one
        # array for the rows left, and each row keeps the bits it has
        # alone on its own share of the draws
        _, r, _ = batch_inputs(n, 5, 40 + n)
        rng = np.random.default_rng(n)
        first, second, third = (rng.standard_normal((rows, n + 1))
                                for rows in (5, 2, 1))
        first[[1, 3]] = 2.5 * r[[1, 3]]
        second[1] = -r[3]
        shares = {0: [first[0]], 1: [first[1], second[0]], 2: [first[2]],
                  3: [first[3], second[1], third[0]], 4: [first[4]]}
        block = Replayed(("standard_normal", a) for a in (first, second,
                                                          third))
        batch = geometry._tangents(r, block)
        assert next(block.draws, None) is None
        for i, share in shares.items():
            alone = Replayed(("standard_normal", a) for a in share)
            assert same_bits(batch[i:i + 1],
                             geometry._tangents(r[i:i + 1], alone))
            assert next(alone.draws, None) is None

    def test_tangents_of_a_mixed_block_redraw_after_every_width(self):
        # every width draws once before any row is drawn again; rows 1, 5
        # and 6 first draw along their point, so the redraw has no row of
        # n = 2, and row 6 again on the redraw.  Row 6 is (1, 0, 0, 0) at
        # n = 3, so its width is not that of its nonzero coordinates.
        # Each row keeps the bits it has alone on its share of the draws
        ns = np.array([1, 1, 2, 2, 2, 3, 3])
        r = np.concatenate([zero_padded(batch_inputs(n, m, 60 + n)[1])
                            for n, m in ((1, 2), (2, 3), (3, 2))])
        r[6] = [1.0, 0.0, 0.0, 0.0]
        rng = np.random.default_rng(12)
        draws, shares = [], defaultdict(list)
        for rows, along in (([0, 1, 2, 3, 4, 5, 6], {1, 5, 6}),
                            ([1, 5, 6], {6}), ([6], set())):
            for n in sorted(set(ns[rows].tolist())):
                run = [i for i in rows if ns[i] == n]
                out = rng.standard_normal((len(run), n + 1))
                for k, i in enumerate(run):
                    if i in along:
                        out[k] = -2.5 * r[i, :n + 1]
                    shares[i].append(("standard_normal", out[k]))
                draws.append(("standard_normal", out))
        block = Replayed(draws)
        batch = geometry._tangents(r, block, ns)
        assert next(block.draws, None) is None
        for i, n in enumerate(ns.tolist()):
            alone = Replayed(shares[i])
            assert same_bits(batch[i:i + 1, :n + 1],
                             geometry._tangents(r[i:i + 1, :n + 1], alone))
            assert next(alone.draws, None) is None
            assert not batch[i, n + 1:].any()

    # the changes that keep the shapes, so the bad path stacks with good
    # ones
    @pytest.mark.parametrize("change, message", [
        case for case in REJECTIONS if case.values[1] not in (
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


def zero_padded(a: np.ndarray, width: int = 4) -> np.ndarray:
    """a with its last axis filled out to width columns of zeros."""
    out = np.zeros(a.shape[:-1] + (width,), a.dtype)
    out[..., :a.shape[-1]] = a
    return out


class TestPaddedBlocks:
    """The premise of the sampling suites' one array per block: a row of
    dimension n in zero-padded columns rounds as the row alone, every
    sum over the coordinates one _dots over the padded width, whatever
    its operands' strides, for every value that reaches a report."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_elementwise_and_sums_keep_their_bits(self, n):
        for seed in range(40):
            x, r, u = batch_inputs(n, 8, 100 + seed)
            theta = np.random.default_rng(seed).uniform(-3.0, 3.0, 8)
            pts, t = geometry._half_circles(r, u, theta, 9)
            padded = zero_padded(pts)
            assert same_bits(geometry._row_norms(padded),
                             geometry._row_norms(pts))
            assert same_bits(geometry._energies(padded, t),
                             geometry._energies(pts, t))
            for a in (x, pts):
                b = zero_padded(a)
                assert same_bits(geometry._dots(b, b), geometry._dots(a, a))
            # the guards over padded rows: the real locus and the norms
            # of the rows and of their .imag, and _half_circles' bound on
            # the pairing of r and u
            for a in (x, u, pts, pts[:, -1]):
                b = zero_padded(a)
                assert same_bits(geometry._real_locus(b)[0],
                                 geometry._real_locus(a)[0])
                for part in (lambda c: c, lambda c: c.imag):
                    assert same_bits(geometry._row_norms(part(b)),
                                     geometry._row_norms(part(a)))
            assert same_bits(
                geometry._dots(zero_padded(r), zero_padded(u).real),
                geometry._dots(r, u.real))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_contractions_over_the_padded_width_keep_their_bits(self, n):
        # rows of width n + 1 between rows of widths 2 and 4, as in a
        # block; the operands of each kind of dot whose value reaches a
        # report, taken of the padded arrays as the suites take them, and
        # strided .real and .imag views of complex rows, which a padded
        # block contracts as the row alone too
        def operands(x, r, u, gamma, delta, g):
            return ((r, r), (u.conj(), u),
                    (delta[:, 0].conj(), gamma[:, -1]),
                    (x.conj()[:, None], g),
                    (u.real, r), (x.real, x.imag), (u.imag, u.imag))

        def off_line(h, b):
            return np.max(np.abs(h @ b.conj().transpose(0, 2, 1) @ b - h),
                          axis=(1, 2))

        arclengths = [0.0, 0.3, math.pi / 2, 2.0, math.pi]
        for seed in range(40):
            groups = []
            for m, rows in ((1, 3), (n, 8), (3, 3)):
                x, r, u = batch_inputs(m, rows, 200 + seed)
                theta = np.random.default_rng([seed, m]).uniform(
                    -3.0, 3.0, rows)
                groups.append((
                    x, r, u,
                    geometry._half_circles(r, u, theta, 9)[0],
                    geometry._half_circles(r, -u, 0.5 * theta, 9)[0],
                    geometry._geodesics(x[:, None], 1j * u[:, None],
                                        arclengths)))
            block = [np.concatenate([zero_padded(a[i]) for a in groups])
                     for i in range(6)]
            for i, (a, b) in enumerate(operands(*block)):
                assert same_bits(geometry._dots(a, b), np.concatenate(
                    [geometry._dots(*operands(*arrays)[i])
                     for arrays in groups]))
            basis = [np.stack([a[1].astype(complex), a[2]], axis=1)
                     for a in [block] + groups]
            assert same_bits(off_line(block[3], basis[0]), np.concatenate(
                [off_line(a[3], b) for a, b in zip(groups, basis[1:])]))

    @pytest.mark.parametrize("start", [False, True])
    def test_a_mixed_block_of_chains_keeps_each_rows_bits(self, start):
        # each row is replayed alone on the draws the block gave it: its
        # base point unless a start is given, then one direction an arc
        ns = np.array([1, 1, 1, 2, 2, 3, 3, 3])
        thetas = [np.full(3, 1.3), np.full(2, 0.4), np.full(1, 0.9),
                  np.full(2, 1.1), np.full(1, 0.2),
                  np.full(3, 0.6), np.full(3, 1.5), np.full(1, 0.8)]
        counts = np.array([len(row) for row in thetas])
        starts = [batch_inputs(n, 1, 7 * i)[0] for i, n in enumerate(ns)]
        rng = Recorded(np.random.default_rng(31))
        block = geometry._chains(
            rng, ns, np.concatenate(thetas), counts, 7, np.concatenate(
                [zero_padded(x) for x in starts]) if start else None)
        draws = row_draws(rng.draws, [
            *([] if start else width_runs(ns, ns > 0)),
            *(run for j in range(3) for run in width_runs(ns, counts > j))])
        assert sorted(i for _, rows, _ in block for i in rows) == \
            list(range(len(ns)))
        for k, rows, (pts, t) in block:
            for j, i in enumerate(rows.tolist()):
                [(k_alone, _, (want_pts, want_t))] = geometry._chains(
                    Replayed(draws[i]), [ns[i]], thetas[i], [counts[i]],
                    7, starts[i] if start else None)
                assert k == k_alone == len(thetas[i])
                assert same_bits(pts[j, :, :ns[i] + 1], want_pts[0])
                assert not pts[j, :, ns[i] + 1:].any()
                assert same_bits(t[j], want_t[0])

    def test_a_mixed_block_of_half_circles_keeps_each_rows_bits(
            self, monkeypatch):
        # halfcircle_check's path on one block: the real representatives,
        # the half-circles, both geodesic calls and the five measured
        # errors of each row are those of the row run alone on the draws
        # the block gave it
        ns = np.array([1, 1, 2, 2, 2, 3, 3, 3])
        calls = []
        for name in ("_real_reps", "_half_circles", "_geodesics"):
            def record(*args, kernel=getattr(geometry, name), name=name):
                out = kernel(*args)
                calls.append((name, out[0] if name == "_half_circles"
                              else out))
                return out
            monkeypatch.setattr(geometry, name, record)
        for seed in range(10):
            calls.clear()
            rng = Recorded(np.random.default_rng(seed))
            block = geometry._halfcircle_rows(ns, rng)
            seen = calls[:]
            assert [name for name, _ in seen] == [
                "_real_reps", "_half_circles", "_geodesics", "_geodesics"]
            # the points and the directions a width at a time, then the
            # angles of the whole block
            draws = row_draws(rng.draws, [*width_runs(ns, ns > 0) * 2,
                                          np.arange(len(ns))])
            for i, n in enumerate(ns.tolist()):
                calls.clear()
                alone = geometry._halfcircle_rows(np.array([n]),
                                                  Replayed(draws[i]))
                for (name, got), (_, want) in zip(seen, calls, strict=True):
                    assert same_bits(got[i:i + 1, ..., :n + 1], want), name
                    assert not got[i, ..., n + 1:].any(), name
                for got, want in zip(block, alone, strict=True):
                    assert same_bits(got[i:i + 1], want)


def refusal(call):
    """The message of the ValueError that call raises, or None."""
    try:
        call()
    except ValueError as error:
        return str(error)
    return None


def near_real_rows(n: int) -> tuple[np.ndarray, list]:
    """A real unit row p and 81 rows of a phase times z = cos a p +
    i sin a q, q real orthonormal to p: z sits on the sphere with
    |sum z_j^2| = cos 2a, which passes 1 - _REAL_TOL at
    a = sqrt(_REAL_TOL / 2), the middle row."""
    p, q = np.linalg.qr(np.random.default_rng(n).standard_normal(
        (n + 1, 2)))[0].T
    edge = math.sqrt(geometry._REAL_TOL / 2)
    return p, [np.exp(-1.1j) * (math.cos(a) * p + 1j * math.sin(a) * q)
               for a in np.linspace(0.9, 1.1, 81) * edge]


class TestGuardAgreement:
    """Each per-object check and the kernel guard that serves the same
    rows accept and refuse the same rows, up to the edge of the
    tolerance and past it."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_check_is_the_path_endpoint_check(self, n):
        x = batch_inputs(n, 1, 50 + n)[0][0] * np.exp(0.7j)
        seen = set()
        for d in np.linspace(-2.0, 2.0, 81) * geometry._UNIT_TOL:
            row = x * (1.0 + d)
            want = refusal(lambda: ProjPoint(row))
            seen.add(want)
            for samples in ([row, x], [x, row]):
                assert refusal(lambda: DiscretePath(
                    samples=samples, params=[0.0, 1.0])) == want
        assert seen == {None, "representative must be a unit vector"}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_check_is_the_path_sample_check(self, n):
        # the row as the middle sample of a path whose ends are x
        x = batch_inputs(n, 1, 50 + n)[0][0] * np.exp(0.7j)
        seen = set()
        for d in np.linspace(-2.0, 2.0, 81) * geometry._UNIT_TOL:
            row = x * (1.0 + d)
            want = refusal(lambda: ProjPoint(row))
            seen.add(want)
            assert refusal(lambda: DiscretePath(
                samples=[x, row, x], params=[0.0, 0.5, 1.0])) == want
        assert seen == {None, "representative must be a unit vector"}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_real_locus_test_is_the_real_representative_guard(self, n):
        seen = set()
        for row in near_real_rows(n)[1]:
            point = ProjPoint(row)
            got = refusal(lambda: geometry._real_reps(point.rep[None]))
            assert point.is_real() == (got is None)
            seen.add(got)
        assert seen == {None, "point has no real representative"}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_real_locus_test_is_the_path_endpoint_check(self, n):
        # each row as either end of a two-sample path whose other end is
        # the real point p
        p, rows = near_real_rows(n)
        seen = set()
        for row in rows:
            want = (None if ProjPoint(row).is_real()
                    else "path endpoints must lie on the real locus")
            seen.add(want)
            for samples in ([row, p], [p, row]):
                assert refusal(lambda: DiscretePath(
                    samples=samples, params=[0.0, 1.0])) == want
        assert seen == {None, "path endpoints must lie on the real locus"}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_is_the_junction_check(self, n):
        # cos b r + sin b w, w a real unit tangent at the real point r,
        # pairs with r to cos b, which passes 1 - _UNIT_TOL at
        # b = sqrt(2 _UNIT_TOL)
        _, r, w = batch_inputs(n, 1, 70 + n)
        a = constant_path(ProjPoint(r[0]))
        edge = math.sqrt(2 * geometry._UNIT_TOL)
        seen = set()
        for b in np.linspace(0.9, 1.1, 81) * edge:
            start = ProjPoint(math.cos(b) * r[0] + math.sin(b) * w[0])
            want = (None if a.end().equals(start)
                    else "paths do not share the junction point")
            seen.add(want)
            assert refusal(lambda: concat_min(a, constant_path(start))) \
                == want
        assert seen == {None, "paths do not share the junction point"}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tangent_check_is_the_tangent_draw_check(self, monkeypatch, n):
        # _tangents' last unit rows are tilted by d along the point, so
        # |<r, u>| runs through _UNIT_TOL
        r = batch_inputs(n, 1, 60 + n)[1]
        unit_rows, drawn, seen = geometry._unit_rows, [], set()
        for d in np.linspace(-2.0, 2.0, 81) * geometry._UNIT_TOL:
            def tilted(v, d=d):
                drawn.append(unit_rows(v) + d * r)
                return drawn[-1]

            monkeypatch.setattr(geometry, "_unit_rows", tilted)
            got = refusal(lambda: geometry._tangents(
                r, np.random.default_rng(n)))
            assert refusal(lambda: TangentVector(
                base=ProjPoint(r[0]), vec=drawn[-1][0])) == got
            seen.add(got)
        assert seen == {None, "tangent vector must be orthogonal to the base"}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tangent_check_is_the_half_circle_direction_check(self, n):
        # the real unit tangent u tilted by d along the real point r, so
        # |<r, u>| runs through _UNIT_TOL
        _, r, u = batch_inputs(n, 1, 80 + n)
        seen = set()
        for d in np.linspace(-2.0, 2.0, 81) * geometry._UNIT_TOL:
            v = u + d * r
            want = refusal(lambda: TangentVector(base=ProjPoint(r[0]),
                                                 vec=v[0]))
            seen.add(want)
            assert refusal(lambda: geometry._half_circles(
                r, v, np.array([1.1]), 5)) == want
        assert seen == {None, "tangent vector must be orthogonal to the base"}


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
        # in a space of one coordinate every projection off the point
        # is 0, so a tangent draw would never end
        (lambda: sample_yk(0, 1, RNG), ValueError, "n must be >= 1"),
        (lambda: random_real_point(0, RNG), ValueError, "n must be >= 1"),
        (lambda: random_real_point(-1, RNG), ValueError, "n must be >= 1"),
        (lambda: yk_parameter_count(0, 1), ValueError, "n must be >= 1"),
        (lambda: random_real_tangent(real_point([1.0]), RNG), ValueError,
         "a point with fewer than two coordinates has no tangent"),
        (lambda: geometry._tangents(np.ones((3, 1)), RNG), ValueError,
         "a point with fewer than two coordinates has no tangent"),
        (lambda: sample_yk(2, 2, RNG, thetas=[0.5, 0.5, 0.5]), ValueError,
         "need exactly 2 angles"),
        *((lambda t=t: sample_yk(2, 2, RNG, thetas=t), ValueError,
           "angles must be finite")
          for t in ([0.5, math.nan], [math.nan, 0.5], [math.nan, math.nan])),
        *((lambda t=t: half_circle(x, u, t), ValueError,
           "angles must be finite")
          for t in (math.inf, -math.inf, math.nan)),
        # every arc's angle is read off the one array of angles, the
        # later arcs' too
        *((lambda t=t: sample_yk(2, 3, RNG, thetas=t), ValueError,
           "angles must be finite")
          for t in ([math.inf, 0.5, 0.5], [0.5, -math.inf, 0.5],
                    [0.5, 0.5, math.inf], [0.5, 0.5, math.nan])),
        (lambda: real_point(np.array([0.5j, 1.0])), ValueError,
         "coordinates must be real"),
        (lambda: critical_index(0, 1), ValueError,
         "need n >= 1 and k >= 0"),
        (lambda: critical_index(2, -1), ValueError,
         "need n >= 1 and k >= 0"),
        *((lambda suite=suite: suite(0), ValueError, "need trials >= 1")
          for suite in (concat_check, halfcircle_check, yk_check)),
    ]


@pytest.mark.parametrize("call, error, message", refusals())
def test_refusals_keep_their_types_and_messages(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error


# the report items of the three sampling suites up to their printed
# numbers, as a per-trial implementation that gave each trial its own
# generator wrote them at the benchmark's trial counts (60, 20, 100) and
# at the command-line defaults (1000, 200, 200), seeds 0-9: every run of
# a suite gave the same items.  The suites draw each block from one
# generator, so only the verdicts are compared; every printed worst
# value must stay below _CHECK_TOL
SAMPLING_VERDICTS = {
    "concat_check": ("concatenation", (60, 1000), (
        "norm is additive", "associativity breakpoints agree")),
    "halfcircle_check": ("half-circles", (20, 200), (
        "endpoint matches the geodesic construction",
        "norm never exceeds a quarter circumference",
        "samples stay on the spanned line",
        "quarter-period antipode distances", "period-pi recurrence",
        "norm peaks at theta = +1.5708")),
    "yk_check": ("iterated half-circles", (100, 200), (
        "norm stays below k quarter-turns",
        "right-angle sample n=1 k=2 reaches the critical norm",
        "right-angle sample n=2 k=2 reaches the critical norm",
        "right-angle sample n=3 k=3 reaches the critical norm",
        "skew-pairing triple is orthonormal and tangent (n=3)")),
}
# printed worst errors, with the word that precedes them
WORST = re.compile(r"^(?:worst(?: error| excess)?|error) (\S+?)(?:;|$)")


def verdict(line: str) -> str:
    """A report line up to its item name.  The peak's sign is dropped:
    both grid ends tie up to roundoff, so the platform picks one."""
    head = re.sub(r" \((?:worst|error|within) .*\)$", "", line)
    return head.replace("theta = -", "theta = +")


class TestTrialAxis:
    @pytest.mark.parametrize("seed", [5, 2**32 + 5, 2**64 + 5])
    @pytest.mark.parametrize("suite, arcs", [
        (concat_check, 2), (halfcircle_check, 0), (yk_check, 3)])
    def test_each_block_draws_from_its_own_generator(
            self, monkeypatch, suite, arcs, seed):
        # blocks of 16 put trials 0-39 in three blocks; block b draws
        # from default_rng([0, b, seed]) its dimensions, then its arc
        # counts, and lists its trials by n, count (most first), trial
        blocks, made = [], []
        trial_blocks = geometry._trial_blocks
        default_rng = np.random.default_rng

        def recording_blocks(*args, **kwargs):
            for ns, counts, rng in trial_blocks(*args, **kwargs):
                blocks.append((ns, counts, rng, rng.bit_generator.state))
                yield ns, counts, rng

        def recording_rng(*args):
            made.append(default_rng(*args))
            return made[-1]

        monkeypatch.setattr(geometry, "_TRIAL_BLOCK", 16)
        monkeypatch.setattr(geometry, "_trial_blocks", recording_blocks)
        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        suite(40, seed=seed)
        monkeypatch.undo()
        assert [len(ns) for ns, *_ in blocks] == [16, 16, 8]
        for b, (ns, counts, rng, state) in enumerate(blocks):
            assert rng is made[b]
            alone = np.random.default_rng([0, b, seed])
            want_ns = alone.integers(1, 4, len(ns))
            want_counts = (alone.integers(1, arcs + 1, len(ns)) if arcs
                           else np.zeros(len(ns), int))
            order = sorted(range(len(ns)), key=lambda i: (
                want_ns[i], -want_counts[i], i))
            assert ns.tolist() == want_ns[order].tolist()
            assert counts.tolist() == want_counts[order].tolist()
            assert state == alone.bit_generator.state

    def test_seeds_past_one_word_repeat_no_block(self, monkeypatch):
        # numpy splits a seed into 32-bit words and drops trailing zero
        # words, so with the seed before the block index, seed
        # 5 + 3 * 2**32 drew block 0 from the stream of seed 5, block 3
        monkeypatch.setattr(geometry, "_TRIAL_BLOCK", 1)

        def states(seed):
            return [repr(rng.bit_generator.state)
                    for *_, rng in geometry._trial_blocks(4, seed)]

        far, near = states(5 + 3 * 2**32), states(5)
        assert far[0] != near[3]
        assert len(set(far + near)) == 8

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 7])
    @pytest.mark.parametrize("suite, streams", [
        (concat_check, 0), (halfcircle_check, 1), (yk_check, 2)])
    def test_every_stream_of_a_suite_has_its_own_key(
            self, monkeypatch, suite, streams, seed):
        # blocks draw from [0, b, seed], the suite's other streams, in
        # the order it opens them, from [1, j, seed]
        keys, default_rng = [], np.random.default_rng

        def recording_rng(key):
            keys.append(key)
            return default_rng(key)

        monkeypatch.setattr(geometry, "_TRIAL_BLOCK", 16)
        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        suite(40, seed=seed)
        monkeypatch.undo()
        assert keys == ([[0, b, seed] for b in range(3)]
                        + [[1, j, seed] for j in range(streams)])
        states = {repr(default_rng(key).bit_generator.state) for key in keys}
        assert len(states) == len(keys)

    @pytest.mark.parametrize("suite", [concat_check, halfcircle_check,
                                       yk_check])
    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (1.5, TypeError), (2**64 + 3, None),
        (10**30, None)])
    def test_suites_take_the_seeds_default_rng_takes(self, suite, seed,
                                                     error):
        if error is None:
            assert suite(5, seed=seed).passed
        else:
            with pytest.raises(error):
                suite(5, seed=seed)

    @pytest.mark.parametrize("key", sorted(
        f"{name} {trials} {seed}"
        for name, (_, counts, _) in SAMPLING_VERDICTS.items()
        for trials in counts for seed in range(10)))
    def test_verdicts_match_the_per_trial_reports(self, key):
        name, trials, seed = key.split()
        lines = getattr(geometry, name)(int(trials), seed=int(seed)).lines()
        title, _, items = SAMPLING_VERDICTS[name]
        assert [verdict(line) for line in lines] == (
            [f"{title} ({trials} trials, tolerance 1.0e-09): pass"]
            + [f"  [ok ] {item}" for item in items])
        for line in lines[1:]:
            detail = re.search(r" \((.*)\)$", line)
            worst = WORST.match(detail.group(1)) if detail else None
            if worst:
                assert float(worst.group(1)) < geometry._CHECK_TOL

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_index_draws_keep_the_per_point_arithmetic(self, monkeypatch, n):
        # critical_index draws its real point and direction through the
        # sampling kernels: each has the bits of the per-point draw on
        # the same stream, which is left where the per-point draw leaves
        # it
        drawn, configuration = [], _critical_configuration

        def recording(x, u, k):
            drawn.append((x, u))
            return configuration(x, u, k)

        monkeypatch.setattr(geometry, "_critical_configuration", recording)
        for seed in range(20):
            rng, scalar = (np.random.default_rng([seed, n]) for _ in range(2))
            critical_index(n, seed % 3, rng=rng)
            y = scalar_random_real_point(n, scalar)
            v = scalar_random_real_tangent(y, scalar)
            [(x, u)] = drawn
            drawn.clear()
            assert same_bits(x, y.rep.real)
            assert same_bits(u, v.vec.real)
            assert rng.bit_generator.state == scalar.bit_generator.state

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
