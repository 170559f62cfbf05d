"""Numerical model of the metric side: complex projective space with
the metric normalized so complex lines are round 2-spheres of curvature
4, the real locus of points with a real representative, vertical
half-circle paths, minimum-energy concatenation, and the discrete
second-variation computation at the critical geodesics.

Conventions.  Points are unit vectors in complex (n+1)-space up to
phase; the Hermitian product of two unit representatives determines the
distance arccos|<z, w>| in [0, pi/2].  Tangent vectors are Hermitian
orthogonal to the base representative (horizontal lifts).  Discrete
paths are sample matrices with strictly increasing breakpoints in
[0, 1] and both endpoints on the real locus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .tables import CheckItem, CheckReport

_UNIT_TOL = 1e-12
_REAL_TOL = 1e-9
_ENDPOINT_TOL = 1e-8


class ParityError(ValueError):
    """Construction requires a parity the dimension does not have."""


class GradientCheckError(RuntimeError):
    """The configuration handed to the second-variation computation is
    not numerically critical."""


def _as_complex(vec) -> np.ndarray:
    return np.asarray(vec, dtype=complex).reshape(-1)


def normalize(vec) -> np.ndarray:
    v = _as_complex(vec)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


@dataclass
class ProjPoint:
    """A point of complex projective space: unit representative, equal
    to another point when the representatives differ by a phase."""

    rep: np.ndarray

    def __post_init__(self) -> None:
        self.rep = _as_complex(self.rep)
        if abs(np.linalg.norm(self.rep) - 1.0) > _UNIT_TOL:
            raise ValueError("representative must be a unit vector")

    @property
    def ambient_dim(self) -> int:
        return self.rep.shape[0]

    def equals(self, other: "ProjPoint", tol: float = _UNIT_TOL) -> bool:
        return abs(np.vdot(self.rep, other.rep)) > 1.0 - tol

    def is_real(self, tol: float = _REAL_TOL) -> bool:
        """Whether some representative has all coordinates real; the
        squared-sum modulus |sum z_j^2| equals 1 exactly on such
        points and drops below 1 away from them."""
        return abs(np.sum(self.rep * self.rep)) >= 1.0 - tol

    def real_representative(self, tol: float = _REAL_TOL) -> np.ndarray:
        s = np.sum(self.rep * self.rep)
        if abs(s) < 1.0 - tol:
            raise ValueError("point has no real representative")
        z = self.rep * np.exp(-0.5j * np.angle(s))
        if np.linalg.norm(z.imag) > math.sqrt(tol):
            raise ValueError("point has no real representative")
        re = z.real
        return re / np.linalg.norm(re)


def proj_point(vec) -> ProjPoint:
    return ProjPoint(rep=normalize(vec))


def real_point(coords) -> ProjPoint:
    v = np.asarray(coords, dtype=float).reshape(-1)
    return ProjPoint(rep=normalize(v).astype(complex))


@dataclass
class TangentVector:
    """Horizontal tangent vector: Hermitian-orthogonal to the base."""

    base: ProjPoint
    vec: np.ndarray

    def __post_init__(self) -> None:
        self.vec = _as_complex(self.vec)
        if self.vec.shape != self.base.rep.shape:
            raise ValueError("tangent vector has wrong ambient dimension")
        if abs(np.vdot(self.base.rep, self.vec)) > _UNIT_TOL:
            raise ValueError("tangent vector must be orthogonal to the base")

    @property
    def is_unit(self) -> bool:
        return abs(np.linalg.norm(self.vec) - 1.0) <= _UNIT_TOL


def fs_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Distance in [0, pi/2]: arccos of the clamped pairing modulus."""
    c = abs(np.vdot(p.rep, q.rep))
    return math.acos(min(1.0, max(0.0, c)))


def geodesic(x: ProjPoint, v: TangentVector, s: float) -> ProjPoint:
    """Point at arclength s on the geodesic leaving x with velocity v;
    periodic with period pi."""
    if not v.is_unit:
        raise ValueError("geodesic requires a unit tangent vector")
    if not v.base.equals(x):
        raise ValueError("tangent vector is not based at x")
    return ProjPoint(rep=math.cos(s) * x.rep + math.sin(s) * v.vec)


# ---------------------------------------------------------------------------
# Discrete paths, energy, concatenation


@dataclass
class DiscretePath:
    """Piecewise-geodesic path: one unit sample row per breakpoint.

    Breakpoints are strictly increasing from 0 to 1; both endpoints lie
    on the real locus.  degenerate_junction records that some
    concatenation along the way had two constant factors, where the
    junction placement is a convention rather than an energy minimizer.
    """

    samples: np.ndarray
    params: np.ndarray
    degenerate_junction: bool = False

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=complex)
        self.params = np.asarray(self.params, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[0] < 2:
            raise ValueError("path needs at least two samples")
        if self.params.shape != (self.samples.shape[0],):
            raise ValueError("one breakpoint per sample required")
        if abs(self.params[0]) > 1e-12 or abs(self.params[-1] - 1.0) > 1e-12:
            raise ValueError("breakpoints must run from 0 to 1")
        if np.any(np.diff(self.params) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        norms = np.linalg.norm(self.samples, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("samples must be unit vectors")
        for idx in (0, -1):
            if not ProjPoint(self.samples[idx]).is_real(tol=_ENDPOINT_TOL):
                raise ValueError("path endpoints must lie on the real locus")

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    def start(self) -> ProjPoint:
        return ProjPoint(self.samples[0])

    def end(self) -> ProjPoint:
        return ProjPoint(self.samples[-1])

    def reversed(self) -> "DiscretePath":
        return DiscretePath(samples=self.samples[::-1].copy(),
                            params=(1.0 - self.params[::-1]).copy(),
                            degenerate_junction=self.degenerate_junction)


def constant_path(x: ProjPoint, samples: int = 2) -> DiscretePath:
    pts = np.repeat(x.rep[None, :], samples, axis=0)
    return DiscretePath(samples=pts, params=np.linspace(0.0, 1.0, samples))


def _segment_distances(path: DiscretePath) -> np.ndarray:
    inner = np.abs(np.einsum("ij,ij->i",
                             path.samples[:-1], path.samples[1:].conj()))
    return np.arccos(np.clip(inner, 0.0, 1.0))


def path_energy(path: DiscretePath) -> float:
    """Energy of the piecewise-geodesic path with its parametrization:
    sum of squared segment distances over segment durations."""
    d = _segment_distances(path)
    dt = np.diff(path.params)
    return float(np.sum(d * d / dt))


def path_norm(path: DiscretePath) -> float:
    """Square root of the energy; at least the total length, with
    equality exactly at proportional-to-arclength parametrizations."""
    return math.sqrt(path_energy(path))


def path_length(path: DiscretePath) -> float:
    return float(np.sum(_segment_distances(path)))


def concat_min(gamma: DiscretePath, delta: DiscretePath,
               tol: float = _ENDPOINT_TOL) -> DiscretePath:
    """Minimum-energy concatenation: the junction sits at
    s = F(gamma) / (F(gamma) + F(delta)), which makes the norm exactly
    additive.  Two constant factors leave the junction undetermined;
    the convention s = 1/2 is used and the result is flagged."""
    if not gamma.end().equals(delta.start(), tol=tol):
        raise ValueError("paths do not share the junction point")
    f1, f2 = path_norm(gamma), path_norm(delta)
    degenerate = gamma.degenerate_junction or delta.degenerate_junction
    if f1 + f2 == 0.0:
        s = 0.5
        degenerate = True
    else:
        s = f1 / (f1 + f2)
        s = min(max(s, 1e-12), 1.0 - 1e-12)
    # align the phase of the second factor so the junction sample is
    # shared exactly
    z = np.vdot(delta.samples[0], gamma.samples[-1])
    second = delta.samples * (z / abs(z)) if abs(z) > 0.5 else delta.samples
    pts = np.vstack([gamma.samples, second[1:]])
    t = np.concatenate([gamma.params * s, s + delta.params[1:] * (1.0 - s)])
    t[-1] = 1.0
    return DiscretePath(samples=pts, params=t, degenerate_junction=degenerate)


# ---------------------------------------------------------------------------
# Vertical half-circles


def half_circle(x: ProjPoint, u: TangentVector, theta: float,
                samples: int = 48) -> DiscretePath:
    """Vertical half-circle from x to exp_x(theta * u), traversed at
    constant speed.

    The complex line spanned by the real point x and the real unit
    tangent u is a round sphere of radius 1/2 under
    a*r + c*u -> (Re(conj(a) c), (|a|^2 - |c|^2)/2, Im(conj(a) c));
    the real locus of the line lands on the equator.  The half-circle
    is the arc through the upper half-space whose chord joins the
    images of the two endpoints; its norm is (pi/2) sin|theta|.
    theta is normalized modulo pi into [-pi/2, pi/2]; theta = 0 gives
    the constant path.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    r = x.real_representative()
    ur = u.vec
    if np.linalg.norm(ur.imag) > _REAL_TOL or not u.is_unit:
        raise ValueError("half-circle direction must be a real unit tangent")
    if not u.base.equals(x):
        raise ValueError("tangent vector is not based at x")
    ur = ur.real
    if abs(float(np.dot(r, ur))) > _REAL_TOL:
        raise ValueError("direction must be orthogonal to the real base")
    theta = math.remainder(theta, math.pi)
    t = np.linspace(0.0, 1.0, samples)
    if abs(math.sin(theta)) < 1e-13:
        return constant_path(ProjPoint(r.astype(complex)), samples)
    p0 = np.array([0.0, 0.5, 0.0])
    p1 = np.array([0.5 * math.sin(2 * theta), 0.5 * math.cos(2 * theta), 0.0])
    mid = (p0 + p1) / 2.0
    rho = 0.5 * abs(math.sin(theta))
    e1 = (p0 - mid) / rho
    e2 = np.array([0.0, 0.0, 1.0])
    phi = math.pi * t
    p = mid + rho * (np.outer(np.cos(phi), e1) + np.outer(np.sin(phi), e2))
    # invert the sphere map: p lifts to a*r + c*u with a real >= 0; at
    # the south pole (a = 0) the lift is u itself
    a2 = 0.5 + p[:, 1]
    south = a2 <= 1e-15
    a = np.sqrt(np.where(south, 1.0, a2))
    c = (p[:, 0] + 1j * p[:, 2]) / a
    pts = np.outer(a, r) + np.outer(c, ur)
    pts[south] = ur
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return DiscretePath(samples=pts, params=t)


def half_circle_norm(theta: float) -> float:
    """Closed form (pi/2) sin|theta| for the norm of the half-circle."""
    return 0.5 * math.pi * abs(math.sin(math.remainder(theta, math.pi)))


def half_circle_endpoint(x: ProjPoint, u: TangentVector, theta: float
                         ) -> ProjPoint:
    """Endpoint computed independently through the geodesic flow."""
    theta = math.remainder(theta, math.pi)
    return geodesic(x, u, theta)


# ---------------------------------------------------------------------------
# Random sampling


def random_real_point(n: int, rng: np.random.Generator) -> ProjPoint:
    return real_point(rng.standard_normal(n + 1))


def random_real_tangent(x: ProjPoint, rng: np.random.Generator
                        ) -> TangentVector:
    r = x.real_representative()
    while True:
        v = rng.standard_normal(r.shape[0])
        v = v - np.dot(v, r) * r
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            # the rounding left along r by one projection grows by
            # 1/norm when normalizing, which can pass the tangency
            # tolerance when the draw lay close to r; a second
            # projection of the unit vector removes it
            v = v / norm
            v = v - np.dot(v, r) * r
            return TangentVector(base=ProjPoint(r.astype(complex)),
                                 vec=normalize(v))


def yk_parameter_count(n: int, k: int) -> int:
    """Dimension of the k-fold half-circle family: n for the base point
    plus n per half-circle (n-1 for the direction, 1 for the angle)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return (k + 1) * n


def sample_yk(n: int, k: int, rng: np.random.Generator,
              thetas=None, samples_per_arc: int = 40,
              start: Optional[ProjPoint] = None) -> DiscretePath:
    """Random k-fold concatenation of vertical half-circles.

    Draws a real base point (or starts at the real point start), then
    repeatedly a real unit direction and an angle, concatenating with
    concat_min.  The norm never exceeds k pi/2, with equality when
    every angle is pi/2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if start is not None and start.ambient_dim != n + 1:
        raise ValueError(f"start point does not lie in dimension n={n}")
    if thetas is None:
        thetas = rng.uniform(0.0, 0.5 * math.pi, size=k)
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    if thetas.shape != (k,):
        raise ValueError(f"need exactly {k} angles")
    x = random_real_point(n, rng) if start is None else start
    path: Optional[DiscretePath] = None
    for j in range(k):
        u = random_real_tangent(x, rng)
        arc = half_circle(x, u, float(thetas[j]), samples=samples_per_arc)
        path = arc if path is None else concat_min(path, arc)
        x = arc.end()
        if x.is_real():
            x = ProjPoint(x.real_representative().astype(complex))
    assert path is not None
    return path


def hopf_vector(x: ProjPoint, which: str = "J") -> TangentVector:
    """Real unit tangent given by a skew-orthogonal pairing of the real
    coordinates; the corresponding normal section is i times it.

    which = "J" or "J1" pairs coordinates two at a time and needs odd
    n; "J2" and "J3" act on blocks of four and need n = 3 mod 4.  The
    three quaternionic outputs are mutually orthonormal.
    """
    r = x.real_representative()
    m = r.shape[0]
    if which in ("J", "J1"):
        if m % 2 != 0:
            raise ParityError("pairwise rotation needs odd n")
        out = np.empty(m)
        out[0::2] = -r[1::2]
        out[1::2] = r[0::2]
    elif which in ("J2", "J3"):
        if m % 4 != 0:
            raise ParityError("quaternionic rotations need n = 3 mod 4")
        out = np.empty(m)
        a, b, c, d = r[0::4], r[1::4], r[2::4], r[3::4]
        if which == "J2":
            out[0::4], out[1::4], out[2::4], out[3::4] = -c, d, a, -b
        else:
            out[0::4], out[1::4], out[2::4], out[3::4] = -d, -c, b, a
    else:
        raise ValueError(f"unknown pairing {which!r}")
    return TangentVector(base=ProjPoint(r.astype(complex)),
                         vec=out.astype(complex))


# ---------------------------------------------------------------------------
# Discrete second variation at the critical geodesics


@dataclass
class IndexResult:
    index: int
    nullity: int
    gradient_norm: float
    eigenvalues: np.ndarray = field(repr=False)


def _real_frame(r: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Real orthonormal frame of the orthogonal complement of r."""
    m = r.shape[0]
    mat = np.column_stack([r, rng.standard_normal((m, m - 1))])
    q, _ = np.linalg.qr(mat)
    q = q * np.sign(np.dot(q[:, 0], r))
    return q[:, 1:]


def _complex_frame(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Hermitian-orthonormal frame of the complement of z."""
    m = z.shape[0]
    mat = np.column_stack(
        [z, rng.standard_normal((m, m - 1))
         + 1j * rng.standard_normal((m, m - 1))])
    q, _ = np.linalg.qr(mat)
    return q[:, 1:]


def _critical_configuration(n: int, k: int, segments: int,
                            rng: np.random.Generator
                            ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Base samples and coordinate frames of the level-k critical
    configuration.

    The samples lie on the geodesic that leaves a random real point in
    a purely imaginary direction, evenly spaced over arclength
    k pi / 2.  The two endpoints get real frames of the real locus
    (n columns); interior samples get frames of the full tangent space
    (2n real columns: a complex frame and i times it).
    """
    x = random_real_point(n, rng)
    u = random_real_tangent(x, rng)
    w = 1j * u.vec
    s_vals = np.linspace(0.0, 0.5 * math.pi * k, segments + 1)
    base_pts = [math.cos(s) * x.rep + math.sin(s) * w for s in s_vals]

    frames = []
    for j, p in enumerate(base_pts):
        if j == 0 or j == segments:
            r = ProjPoint(p).real_representative()
            base_pts[j] = r.astype(complex)
            frames.append(_real_frame(r, rng).astype(complex))
        else:
            wf = _complex_frame(p, rng)
            frames.append(np.column_stack([wf, 1j * wf]))
    return np.array(base_pts), frames


def critical_index(n: int, k: int, segments: int,
                   h: float = 1e-4, ztol: float = 1e-3,
                   grad_tol: float = 1e-8,
                   rng: Optional[np.random.Generator] = None) -> IndexResult:
    """Index and nullity of the discrete energy at a level-k critical
    configuration.

    The path space is modeled by broken geodesics on segments+1 sample
    points; the endpoints move along the real locus (n chart
    coordinates each) and the interior points move in the ambient
    projective space (2n each).  The base configuration samples the
    geodesic that leaves a real point in a purely imaginary direction
    and returns to the real locus every quarter period; the discrete
    energy is exactly critical there, which is verified to grad_tol
    before differentiating twice.

    The energy is a sum of per-segment terms, so moving sample j
    changes only the segments on either side of it, and the Hessian is
    block tridiagonal in the samples: blocks of samples two or more
    apart are exactly zero.  Every derivative is a central difference
    (fourth order for the gradient, second order for the Hessian) of
    the energy of just the segments its perturbation touches, and one
    numpy pass per sample builds all of its perturbed points.  The cost
    is O(segments * w^2) segment evaluations for frame width w <= 2n,
    where a dense Hessian of full-path energies needs O(dim^2) path
    evaluations of segments terms each.

    Eigenvalues below -ztol * spectral_radius count toward the index,
    those within ztol * spectral_radius of zero toward the nullity.
    Expected: (0, n) for k = 0 and (1 + (k-1)n, 2n - 1) for k >= 1.
    The default ztol = 1e-3 sits between method error and geometry:
    measured over n = 1..3 with k = 0..5, and n = 5 with k = 4 (seeds
    0 to 3), the null eigenvalues stay below 3e-8 * spectral_radius
    (finite-difference error at h = 1e-4), while the smallest non-null
    eigenvalue, which shrinks as k grows, is 4.3e-3 * spectral_radius
    at k = 5.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if segments < max(2, 4 * k):
        raise ValueError("need segments >= max(2, 4k) so each segment "
                         "stays below an eighth turn")
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    if not 0.0 < ztol < 1.0:
        raise ValueError(f"ztol must lie strictly between 0 and 1, got {ztol}")
    if k > 0:
        assert 0.5 * math.pi * k / segments <= math.pi / 8 + 1e-12
    rng = rng if rng is not None else np.random.default_rng(0)

    base, frames = _critical_configuration(n, k, segments, rng)
    offsets = np.concatenate([[0], np.cumsum([f.shape[1] for f in frames])])
    dim = int(offsets[-1])

    def seg_energy(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Energy of the segment from each row of p to the matching
        row of q (broadcast), at uniform duration 1/segments."""
        inner = np.abs(np.sum(p * q.conj(), axis=-1))
        d = np.arccos(np.clip(inner, 0.0, 1.0))
        return segments * d * d

    def moved(j: int, dirs: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Sample j moved by each step along each column of dirs and
        renormalized: shape (len(steps), dirs.shape[1], n + 1)."""
        v = base[j] + np.multiply.outer(steps, dirs.T)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def sides(pts: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Energies of the segments before and after sample j with pts
        in its place; zero where the path ends."""
        none = np.zeros(pts.shape[:-1])
        before = seg_energy(pts, base[j - 1]) if j > 0 else none
        after = seg_energy(pts, base[j + 1]) if j < segments else none
        return before, after

    # fourth-order central differences keep the truncation error of the
    # gradient check well below the tolerance; the +-h points and their
    # segment energies are kept for the Hessian
    grad = np.empty(dim)
    singles = []
    for j, frame in enumerate(frames):
        pts = moved(j, frame, np.array([h, -h, 2 * h, -2 * h]))
        before, after = sides(pts, j)
        e = before + after
        grad[offsets[j]:offsets[j + 1]] = \
            (8.0 * (e[0] - e[1]) - (e[2] - e[3])) / (12 * h)
        singles.append((pts[:2], before[:2], after[:2]))
    gnorm = float(np.linalg.norm(grad))
    if not gnorm < grad_tol:
        raise GradientCheckError(
            f"configuration is not critical: |grad E| = {gnorm:.3e}")

    seg0 = seg_energy(base[:-1], base[1:])
    hess = np.zeros((dim, dim))
    for j, frame in enumerate(frames):
        pts, before, after = singles[j]
        e0 = (seg0[j - 1] if j > 0 else 0.0) + \
            (seg0[j] if j < segments else 0.0)
        ep, em = before + after
        a, b = np.triu_indices(frame.shape[1], 1)
        epp, emm = np.add(*sides(moved(j, frame[:, a] + frame[:, b],
                                       np.array([h, -h])), j))
        block = np.diag((ep - 2.0 * e0 + em) / (h * h))
        block[a, b] = block[b, a] = \
            (epp + emm + 2.0 * e0 - ep[a] - em[a] - ep[b] - em[b]) \
            / (2.0 * h * h)
        lo, mid = offsets[j], offsets[j + 1]
        hess[lo:mid, lo:mid] = block
        if j == segments:
            break
        # moving samples j and j+1 together touches segments j-1, j and
        # j+1, but the stencil cancels j-1 and j+1 exactly: only the
        # shared segment j enters the cross block
        nxt, nxt_before, _ = singles[j + 1]
        cross = (seg_energy(pts[0][:, None], nxt[0][None])
                 + seg_energy(pts[1][:, None], nxt[1][None])
                 + 2.0 * seg0[j]
                 - (after[0] + after[1])[:, None]
                 - (nxt_before[0] + nxt_before[1])[None, :]) / (2.0 * h * h)
        hi = offsets[j + 2]
        hess[lo:mid, mid:hi] = cross
        hess[mid:hi, lo:mid] = cross.T
    eig = np.linalg.eigvalsh(hess)
    scale = float(np.max(np.abs(eig)))
    if scale == 0.0:
        raise GradientCheckError("second variation vanished identically")
    index = int(np.sum(eig < -ztol * scale))
    nullity = int(np.sum(np.abs(eig) <= ztol * scale))
    return IndexResult(index=index, nullity=nullity, gradient_norm=gnorm,
                       eigenvalues=eig)


# ---------------------------------------------------------------------------
# Check suites


def _trial_rngs(trials: int, seed: int):
    """One generator per trial, seeded with [seed, i], so a suite's
    report depends only on its arguments."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    return (np.random.default_rng([seed, i]) for i in range(trials))


def expected_index(n: int, k: int) -> tuple[int, int]:
    """(index, nullity) at the level-k critical geodesics: (0, n) for
    the constant paths, (1 + (k-1)n, 2n - 1) for k >= 1."""
    if k == 0:
        return (0, n)
    return (1 + (k - 1) * n, 2 * n - 1)


def index_check(n: int, k: int, segments: Optional[int] = None,
                seed: int = 0, h: float = 1e-4, ztol: float = 1e-3,
                grad_tol: float = 1e-8) -> CheckReport:
    """critical_index against expected_index; segments defaults to
    max(8, 4k + 4)."""
    if segments is None:
        segments = max(8, 4 * k + 4)
    res = critical_index(n, k, segments, h=h, ztol=ztol, grad_tol=grad_tol,
                         rng=np.random.default_rng(seed))
    want = expected_index(n, k)
    got = (res.index, res.nullity)
    item = CheckItem(f"index={got[0]} nullity={got[1]}, expected {want}",
                     got == want, f"|grad|={res.gradient_norm:.2e}")
    return CheckReport(f"discrete index (n={n} k={k} segments={segments})",
                       (item,))


def concat_check(trials: int, seed: int = 0, tol: float = 1e-9
                 ) -> CheckReport:
    """Norm additivity and associativity of concat_min on chains of
    half-circles: a of one or two arcs, b and c of one arc each, each
    starting where the previous one ends."""
    # angles stay above 0.05 because the concatenation error grows like
    # 3e-15 / (smallest factor norm): arccos distances lose precision on
    # short segments.  Measured: with sample_yk's default uniform(0,
    # pi/2) angles, 30 000 trials gave a worst error of 1.7e-12 at factor
    # norm 7.2e-4; a factor at angle 1e-6 gives 2.4e-9, past the default
    # 1e-9 tolerance.  With the floor, seeds 0-149 at 200 trials give a
    # worst of 1.3e-13.
    lo, hi = 0.05, 0.5 * math.pi
    worst_add = worst_assoc = 0.0
    for rng in _trial_rngs(trials, seed):
        n = int(rng.integers(1, 4))
        arcs = int(rng.integers(1, 3))
        a = sample_yk(n, arcs, rng, rng.uniform(lo, hi, arcs), 12)
        b = sample_yk(n, 1, rng, rng.uniform(lo, hi, 1), 12, start=a.end())
        c = sample_yk(n, 1, rng, rng.uniform(lo, hi, 1), 12, start=b.end())
        ab = concat_min(a, b)
        worst_add = max(worst_add, abs(path_norm(ab) - path_norm(a)
                                       - path_norm(b)))
        left = concat_min(ab, c)
        right = concat_min(a, concat_min(b, c))
        worst_assoc = max(worst_assoc,
                          float(np.max(np.abs(left.params - right.params))))
    return CheckReport(
        f"concatenation ({trials} trials, tolerance {tol:.1e})",
        (CheckItem("norm is additive", worst_add < tol,
                   f"worst error {worst_add:.3e}"),
         CheckItem("associativity breakpoints agree", worst_assoc < tol,
                   f"worst error {worst_assoc:.3e}")))


def halfcircle_check(trials: int, seed: int = 0, tol: float = 1e-9
                     ) -> CheckReport:
    """Invariants of half_circle and of the geodesic leaving the real
    locus in a normal direction, plus where the norm peaks over a grid
    of angles."""
    rows = []
    for rng in _trial_rngs(trials, seed):
        n = int(rng.integers(1, 4))
        x = random_real_point(n, rng)
        u = random_real_tangent(x, rng)
        theta = float(rng.uniform(-math.pi, math.pi))
        hc = half_circle(x, u, theta, samples=48)
        ep = half_circle_endpoint(x, u, theta)
        pairing_defect = 1.0 - abs(np.vdot(hc.samples[-1], ep.rep))
        norm_slack = path_norm(hc) - 0.5 * math.pi
        basis = np.vstack([x.real_representative().astype(complex), u.vec])
        coeff = hc.samples @ basis.conj().T
        span_err = float(np.max(np.abs(coeff @ basis - hc.samples)))
        # the geodesic leaving in the normal direction returns to the
        # real locus every quarter period, alternating the two points;
        # compare pairings, not arccos distances, which amplify roundoff
        v = TangentVector(base=ProjPoint(x.rep), vec=1j * u.vec)
        anti_err = 0.0
        for k in range(5):
            c = abs(np.vdot(x.rep, geodesic(x, v, k * math.pi / 2).rep))
            anti_err = max(anti_err, 1.0 - c if k % 2 == 0 else c)
        period_defect = 1.0 - abs(np.vdot(geodesic(x, v, 0.3).rep,
                                          geodesic(x, v, 0.3 + math.pi).rep))
        rows.append((pairing_defect, norm_slack, span_err, anti_err,
                     period_defect))
    names = ("endpoint matches the geodesic construction",
             "norm never exceeds a quarter circumference",
             "samples stay on the spanned line",
             "quarter-period antipode distances",
             "period-pi recurrence")
    items = [CheckItem(name, bool(w < tol), f"worst {w:.3e}")
             for name, w in zip(names, np.max(rows, axis=0))]
    # the closed form (pi/2) sin|theta| peaks at both ends of the grid,
    # which tie up to roundoff; the nearest other grid point is about
    # 7.7e-4 lower
    grid = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 101)
    rng = np.random.default_rng(seed)
    x = random_real_point(2, rng)
    u = random_real_tangent(x, rng)
    norms = [path_norm(half_circle(x, u, float(t), 48))
             if abs(t) > 1e-9 else 0.0 for t in grid]
    peak = float(grid[int(np.argmax(norms))])
    step = float(grid[1] - grid[0])
    items.append(CheckItem(
        f"norm peaks at theta = {peak:+.4f}",
        abs(abs(peak) - 0.5 * math.pi) <= step,
        f"within a grid step of the quarter turn {0.5 * math.pi:.4f}"))
    return CheckReport(f"half-circles ({trials} trials, tolerance {tol:.1e})",
                       tuple(items))


def yk_check(trials: int, seed: int = 0, tol: float = 1e-9) -> CheckReport:
    """Norm bound of the k-fold half-circle family, its right-angle
    samples at the critical norm, and the skew-pairing triple at n = 3."""
    worst = -math.inf
    for rng in _trial_rngs(trials, seed):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        p = sample_yk(n, k, rng, samples_per_arc=16)
        worst = max(worst, path_norm(p) - k * 0.5 * math.pi)
    items = [CheckItem("norm stays below k quarter-turns", worst < tol,
                       f"worst excess {worst:.3e}")]
    for (n, k) in ((1, 2), (2, 2), (3, 3)):
        rng = np.random.default_rng([seed, 10_000 + n, k])
        p = sample_yk(n, k, rng, thetas=[0.5 * math.pi] * k)
        err = abs(path_norm(p) - k * 0.5 * math.pi)
        items.append(CheckItem(
            f"right-angle sample n={n} k={k} reaches the critical norm",
            err < 1e-6, f"error {err:.3e}; family dimension (k+1)n = "
            f"{yk_parameter_count(n, k)}"))
    gram_ok = True
    rng = np.random.default_rng(seed)
    for _ in range(20):
        x = random_real_point(3, rng)
        triple = np.vstack([hopf_vector(x, w).vec.real
                            for w in ("J1", "J2", "J3")])
        gram = triple @ triple.T
        gram_ok = gram_ok and bool(
            np.max(np.abs(gram - np.eye(3))) < 1e-10
            and np.max(np.abs(triple @ x.real_representative())) < 1e-10)
    items.append(CheckItem(
        "skew-pairing triple is orthonormal and tangent (n=3)", gram_ok))
    return CheckReport(
        f"iterated half-circles ({trials} trials, tolerance {tol:.1e})",
        tuple(items))
