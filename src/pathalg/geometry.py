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

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import homology
from .tables import CheckItem, CheckReport

_UNIT_TOL = 1e-12
_REAL_TOL = 1e-9
_ENDPOINT_TOL = 1e-8
# worst cases below are measured over the four suites at their default
# sizes, seeds 0-9 (index at (n, k) = (1, 1), (2, 2), (3, 1), (4, 3),
# (1, 12)).  DiscretePath's bounds on its end breakpoints' distance
# from 0 and 1 (every constructor sets both exactly: worst 0.0) and on
# the unit defect of a sample (worst 2.2e-16)
_PARAM_END_TOL = 1e-12
_SAMPLE_UNIT_TOL = 1e-9
# concat_min keeps the junction breakpoint s this far inside (0, 1), so
# the breakpoints stay increasing after a zero-norm factor; the smallest
# min(s, 1 - s) of two nonzero factors is 1.3e-4
_JUNCTION_CLAMP = 1e-12
# half_circle returns the constant path when |sin theta| < _FLAT_SIN
# (theta = 0 reduced mod pi leaves at most 2.2e-16; the smallest other
# value is 2.4e-4), and lifts a sample to u itself when a^2 <= _SOUTH_A2
# (exactly 0.0 at the south pole; the smallest elsewhere is 4.5e-10)
_FLAT_SIN = 1e-13
_SOUTH_A2 = 1e-15
# random_real_tangent redraws a projection shorter than this; the
# shortest drawn is 5.5e-5, so none was redrawn
_TANGENT_REDRAW = 1e-6
# yk_check's bound on the Gram and tangency defects of the skew-pairing
# triple: worst 4.4e-16
_GRAM_TOL = 1e-10
# critical_index's bound on |grad E|: the largest measured at n = 1..5,
# k = 0..6, 12 and 30, seeds 0-2, is 7.5e-12, about 1300 times below
_GRAD_TOL = 1e-8
# pass bound of the sampling suites: their worst measured error at the
# default trials, seeds 0-9, is 7.1e-14, about 14 000 times below
_CHECK_TOL = 1e-9


class ParityError(ValueError):
    """Construction requires a parity the dimension does not have."""


class GradientCheckError(RuntimeError):
    """The configuration handed to the second-variation computation is
    not numerically critical."""


def _as_complex(vec) -> np.ndarray:
    return np.asarray(vec, dtype=complex).reshape(-1)


def _norm(vec: np.ndarray) -> float:
    """Euclidean norm of a real or complex vector: one vdot, one sqrt.
    On a contiguous real vector this is np.linalg.norm's arithmetic."""
    return math.sqrt(np.vdot(vec, vec).real)


def _row_norms(mat: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; the arithmetic of
    np.linalg.norm(mat, axis=1) without its argument handling."""
    return np.sqrt(np.add.reduce((mat.conj() * mat).real, axis=1))


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
        if abs(_norm(self.rep) - 1.0) > _UNIT_TOL:
            raise ValueError("representative must be a unit vector")

    @property
    def ambient_dim(self) -> int:
        return self.rep.shape[0]

    def equals(self, other: "ProjPoint") -> bool:
        return abs(np.vdot(self.rep, other.rep)) > 1.0 - _UNIT_TOL

    def is_real(self) -> bool:
        """Whether some representative has all coordinates real; the
        squared-sum modulus |sum z_j^2| equals 1 exactly on such
        points and drops below 1 away from them."""
        return abs(np.add.reduce(self.rep * self.rep)) >= 1.0 - _REAL_TOL

    def real_representative(self) -> np.ndarray:
        s = complex(np.add.reduce(self.rep * self.rep))
        if abs(s) < 1.0 - _REAL_TOL:
            raise ValueError("point has no real representative")
        z = self.rep * cmath.exp(-0.5j * cmath.phase(s))
        if _norm(z.imag) > math.sqrt(_REAL_TOL):
            raise ValueError("point has no real representative")
        # a strided view would round differently from np.linalg.norm
        re = np.ascontiguousarray(z.real)
        return re / _norm(re)


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
        return abs(_norm(self.vec) - 1.0) <= _UNIT_TOL


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


@dataclass(frozen=True, eq=False)
class DiscretePath:
    """Piecewise-geodesic path: one unit sample row per breakpoint.

    Breakpoints are strictly increasing from 0 to 1; both endpoints lie
    on the real locus.  degenerate_junction records that some
    concatenation along the way had two constant factors, where the
    junction placement is a convention rather than an energy minimizer.

    A path is immutable: its fields cannot be reassigned, and samples
    and params are read-only copies of the arrays passed in, so nothing
    the caller still holds can change them.  It is validated once, in
    one vectorized pass.  Two paths are equal only when they are the
    same object.
    """

    samples: np.ndarray
    params: np.ndarray
    degenerate_junction: bool = False

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=complex, order="C")
        params = np.array(self.params, dtype=float)
        samples.flags.writeable = False
        params.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "params", params)
        if samples.ndim != 2 or samples.shape[0] < 2:
            raise ValueError("path needs at least two samples")
        if params.shape != (samples.shape[0],):
            raise ValueError("one breakpoint per sample required")
        if (abs(params[0]) > _PARAM_END_TOL
                or abs(params[-1] - 1.0) > _PARAM_END_TOL):
            raise ValueError("breakpoints must run from 0 to 1")
        if np.count_nonzero(params[1:] <= params[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        defect = np.abs(_row_norms(samples) - 1.0)
        if defect.max() > _SAMPLE_UNIT_TOL:
            raise ValueError("samples must be unit vectors")
        # each endpoint must also pass ProjPoint's unit check and lie
        # on the real locus within _ENDPOINT_TOL
        for idx in (0, -1):
            if defect[idx] > _UNIT_TOL:
                raise ValueError("representative must be a unit vector")
            end = samples[idx]
            if not abs(np.add.reduce(end * end)) >= 1.0 - _ENDPOINT_TOL:
                raise ValueError("path endpoints must lie on the real locus")

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    def start(self) -> ProjPoint:
        return ProjPoint(self.samples[0])

    def end(self) -> ProjPoint:
        return ProjPoint(self.samples[-1])

    def reversed(self) -> "DiscretePath":
        return DiscretePath(samples=self.samples[::-1],
                            params=1.0 - self.params[::-1],
                            degenerate_junction=self.degenerate_junction)


def constant_path(x: ProjPoint, samples: int = 2) -> DiscretePath:
    pts = np.repeat(x.rep[None, :], samples, axis=0)
    return DiscretePath(samples=pts, params=np.linspace(0.0, 1.0, samples))


def _segment_distances(samples: np.ndarray) -> np.ndarray:
    inner = np.abs(np.einsum("ij,ij->i", samples[:-1], samples[1:].conj()))
    # inner >= 0, so this is the clip of inner to [0, 1]
    return np.arccos(np.minimum(inner, 1.0))


def path_energy(path: DiscretePath) -> float:
    """Energy of the piecewise-geodesic path with its parametrization:
    sum of squared segment distances over segment durations."""
    d = _segment_distances(path.samples)
    dt = path.params[1:] - path.params[:-1]
    return float(np.add.reduce(d * d / dt))


def path_norm(path: DiscretePath) -> float:
    """Square root of the energy; at least the total length, with
    equality exactly at proportional-to-arclength parametrizations."""
    return math.sqrt(path_energy(path))


def path_length(path: DiscretePath) -> float:
    return float(np.sum(_segment_distances(path.samples)))


def concat_min(gamma: DiscretePath, delta: DiscretePath) -> DiscretePath:
    """Minimum-energy concatenation: the junction sits at
    s = F(gamma) / (F(gamma) + F(delta)), which makes the norm exactly
    additive; the junction rows must pair to more than 1 - _ENDPOINT_TOL.
    Two constant factors leave the junction undetermined; the
    convention s = 1/2 is used and the result is flagged."""
    # both junction rows passed the unit check when their paths were
    # built, and paths cannot change: one pairing decides whether they
    # are the same point and aligns the phase of the second factor
    z = np.vdot(delta.samples[0], gamma.samples[-1])
    pairing = abs(z)
    if not pairing > 1.0 - _ENDPOINT_TOL:
        raise ValueError("paths do not share the junction point")
    f1, f2 = path_norm(gamma), path_norm(delta)
    degenerate = gamma.degenerate_junction or delta.degenerate_junction
    if f1 + f2 == 0.0:
        s = 0.5
        degenerate = True
    else:
        s = f1 / (f1 + f2)
        s = min(max(s, _JUNCTION_CLAMP), 1.0 - _JUNCTION_CLAMP)
    second = delta.samples[1:]
    if pairing > 0.5:
        second = second * (z / pairing)
    pts = np.concatenate([gamma.samples, second])
    t = np.concatenate([gamma.params * s, s + delta.params[1:] * (1.0 - s)])
    t[-1] = 1.0
    return DiscretePath(samples=pts, params=t, degenerate_junction=degenerate)


# ---------------------------------------------------------------------------
# Vertical half-circles


@functools.lru_cache(maxsize=64)
def _arc_grid(samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breakpoints t of a half-circle with the given sample count, with
    cos(pi t) and sin(pi t); read-only, since every call shares them."""
    t = np.linspace(0.0, 1.0, samples)
    phi = math.pi * t
    grid = (t, np.cos(phi), np.sin(phi))
    for arr in grid:
        arr.flags.writeable = False
    return grid


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
    if _norm(ur.imag) > _REAL_TOL or not u.is_unit:
        raise ValueError("half-circle direction must be a real unit tangent")
    if not u.base.equals(x):
        raise ValueError("tangent vector is not based at x")
    ur = ur.real
    if abs(float(np.dot(r, ur))) > _REAL_TOL:
        raise ValueError("direction must be orthogonal to the real base")
    theta = math.remainder(theta, math.pi)
    if abs(math.sin(theta)) < _FLAT_SIN:
        return constant_path(ProjPoint(r.astype(complex)), samples)
    t, cos_phi, sin_phi = _arc_grid(samples)
    # the chord runs from x's image (0, 1/2, 0) to the endpoint's image
    # (sin 2theta, cos 2theta, 0) / 2; the arc is centred at its
    # midpoint (mx, my, 0), has radius rho, and starts along the unit
    # vector (ex, ey, 0), bending towards (0, 0, 1)
    mx = 0.25 * math.sin(2 * theta)
    my = 0.25 + 0.25 * math.cos(2 * theta)
    rho = 0.5 * abs(math.sin(theta))
    ex, ey = -mx / rho, (0.5 - my) / rho
    px = mx + rho * (cos_phi * ex)
    py = my + rho * (cos_phi * ey)
    pz = rho * sin_phi
    # invert the sphere map: p lifts to a*r + c*u with a real >= 0; at
    # the south pole (a = 0) the lift is u itself
    a2 = 0.5 + py
    south = a2 <= _SOUTH_A2
    a = np.sqrt(np.where(south, 1.0, a2))
    c = (px + 1j * pz) / a
    pts = a[:, None] * r + c[:, None] * ur
    pts[south] = ur
    pts /= _row_norms(pts)[:, None]
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
        norm = _norm(v)
        if norm > _TANGENT_REDRAW:
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


def _segment_count(k: int) -> int:
    """Subdivision of the level-k critical geodesic: max(8, 4k + 4)
    segments, each shorter than an eighth turn."""
    return max(8, 4 * k + 4)


def _critical_configuration(n: int, k: int, rng: np.random.Generator
                            ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Base samples and coordinate frames of the level-k critical
    configuration.

    The samples lie on the geodesic p(s) = cos s x + i sin s u that
    leaves a random real point x in the purely imaginary direction i u,
    evenly spaced over arclength k pi / 2.  The geodesic stays in the
    complex line of x and u, so one real orthonormal basis E of the
    complement of that line is normal to it everywhere.  Interior
    samples get the complex frame [p'(s), E] and i times it (2n real
    columns); each endpoint r gets the real frame [w, E] of the real
    locus (n columns), w the unit vector of span(x, u) orthogonal to r.
    The generator draws x and u only.
    """
    start = random_real_point(n, rng)
    u = random_real_tangent(start, rng).vec.real
    x = start.rep.real
    q, _ = np.linalg.qr(np.column_stack([x, u, np.eye(n + 1)]))
    normal = q[:, 2:]
    segments = _segment_count(k)
    s_vals = np.linspace(0.0, 0.5 * math.pi * k, segments + 1)
    base = np.cos(s_vals)[:, None] * x + 1j * np.sin(s_vals)[:, None] * u
    tangent = -np.sin(s_vals)[:, None] * x + 1j * np.cos(s_vals)[:, None] * u

    frames = []
    for j in range(segments + 1):
        if j == 0 or j == segments:
            r = ProjPoint(base[j]).real_representative()
            base[j] = r
            # r = a x + b u, so w = b x - a u completes it in the plane
            w = np.dot(u, r) * x - np.dot(x, r) * u
            frames.append(np.column_stack([w, normal]).astype(complex))
        else:
            wf = np.column_stack([tangent[j], normal])
            frames.append(np.column_stack([wf, 1j * wf]))
    return base, frames


def _segment_slopes(u: float) -> tuple[float, float]:
    """g'(u) and g''(u) for g(u) = arcsin^2(sqrt u), the squared length
    of a segment whose endpoints pair to modulus sqrt(1 - u).

    With theta = arcsin(sqrt u), g' = 2 theta / sin 2theta and
    g'' = (2 sin 2theta - 4 theta cos 2theta) / sin^3 2theta.  Below
    u = 1e-6 the closed forms cancel and their series take over; the
    dropped terms are below 1e-17 there.
    """
    if u < 1e-6:
        return (1.0 + u * (2.0 / 3.0 + u * 8.0 / 15.0),
                2.0 / 3.0 + u * (16.0 / 15.0 + u * 48.0 / 35.0))
    theta = math.asin(math.sqrt(u))
    s2, c2 = math.sin(2.0 * theta), math.cos(2.0 * theta)
    return (2.0 * theta / s2,
            (2.0 * s2 - 4.0 * theta * c2) / s2 ** 3)


def critical_index(n: int, k: int,
                   rng: Optional[np.random.Generator] = None) -> IndexResult:
    """Index and nullity of the discrete energy at a level-k critical
    configuration.

    The path space is modeled by broken geodesics on segments+1 sample
    points, segments = max(8, 4k + 4); the endpoints move along the
    real locus (n chart coordinates each) and the interior points move
    in the ambient projective space (2n each).  The base configuration
    samples the geodesic that leaves a real point in a purely imaginary
    direction and returns to the real locus every quarter period; the
    discrete energy is exactly critical there, which is verified
    (|grad E| below _GRAD_TOL, else GradientCheckError) before the
    Hessian is used.  rng draws the real point and the direction; the
    frames are read off the geodesic (_critical_configuration), and any
    other orthonormal frames give an orthogonally congruent Hessian.

    Sample p moves to (p + F s) / |p + F s| along the real coordinates
    s of its frame F.  Every frame column is orthonormal and real-
    orthogonal to its sample, so |p + F s|^2 = 1 + |s|^2, and the
    segment from p to q has energy N g(1 - c) with N = segments,
    g(u) = arcsin^2(sqrt u) and

        c = |<p + F s, q + G t>|^2 / ((1 + |s|^2)(1 + |t|^2)).

    At s = t = 0, with a = <p, q>, beta = F^T conj(q),
    gamma = G^H p and D = F^T conj(G):

        grad c   = 2 Re(conj(a) beta), 2 Re(conj(a) gamma)
        c_ss     = 2 Re(beta beta^H) - 2 |a|^2 I  (c_tt alike, gamma)
        c_st     = 2 Re(beta gamma^H + conj(a) D)

    and the chain rule gives grad = -N g' grad c and
    Hessian = N (g'' grad c grad c^T - g' Hess c), with g' and g'' from
    _segment_slopes.  Each segment adds its blocks to the samples at
    its two ends, so the Hessian is block tridiagonal; every entry is
    exact up to rounding.

    Eigenvalues below -tau count toward the index, those within tau of
    zero toward the nullity, where tau = 64 * dim * eps * scale and
    scale is the spectral radius: a multiple of the backward error of
    the symmetric eigensolver, which dominates the few roundings of
    each assembled entry.  Expected: (0, n) for k = 0 and
    (1 + (k-1)n, 2n - 1) for k >= 1.  Measured over n = 1..3 with
    k = 0..5, n = 5 with k = 4, and n = 1..4 with k = 12 and 30 (seeds
    0 to 2), the null eigenvalues stay below 6.2e-16 * scale, at most
    1.1e-3 * tau, and the smallest non-null eigenvalue, about
    2.47 * scale / segments^2 for k >= 1, stays above 1.1e7 * tau
    (1.6e-4 * scale at k = 30, n = 4).  The eigenvalues agree within
    2.9e-8 * scale with those of a finite-difference Hessian at step
    1e-4 (n <= 2, k <= 2, seeds 0 to 2).
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    rng = rng if rng is not None else np.random.default_rng(0)

    base, frames = _critical_configuration(n, k, rng)
    segments = _segment_count(k)
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
        d1, d2 = _segment_slopes(max(0.0, 1.0 - a2))
        s = slice(offsets[j], offsets[j + 1])
        t = slice(offsets[j + 1], offsets[j + 2])
        grad[s] -= segments * d1 * cs
        grad[t] -= segments * d1 * ct
        hess[s, s] += segments * (d2 * np.outer(cs, cs) - d1 * css)
        hess[t, t] += segments * (d2 * np.outer(ct, ct) - d1 * ctt)
        hess[s, t] = segments * (d2 * np.outer(cs, ct) - d1 * cst)
        hess[t, s] = hess[s, t].T
    gnorm = float(np.linalg.norm(grad))
    if not gnorm < _GRAD_TOL:
        raise GradientCheckError(
            f"configuration is not critical: |grad E| = {gnorm:.3e}")

    eig = np.linalg.eigvalsh(hess)
    scale = float(np.max(np.abs(eig)))
    if scale == 0.0:
        raise GradientCheckError("second variation vanished identically")
    tau = 64.0 * dim * np.finfo(float).eps * scale
    index = int(np.sum(eig < -tau))
    nullity = int(np.sum(np.abs(eig) <= tau))
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


def index_check(n: int, k: int, seed: int = 0) -> CheckReport:
    """critical_index against the inputs of the homology assembly: the
    index is the block shift 1 + (k-1)n (0 at k = 0), the nullity the
    top degree of the critical manifold's mod-2 homology (the real
    locus at k = 0, its unit tangent bundle for k >= 1).  The title
    names the subdivision, max(8, 4k + 4) segments.  A configuration
    that fails the gradient guard raises GradientCheckError."""
    res = critical_index(n, k, rng=np.random.default_rng(seed))
    if k == 0:
        critical = homology.real_proj_homology(n, homology.COEFF_F2)
        want = (0, len(critical) - 1)
    else:
        critical = homology.unit_tangent_homology(n, homology.COEFF_F2)
        want = (homology.block_shift(n, k), len(critical) - 1)
    got = (res.index, res.nullity)
    item = CheckItem(f"index={got[0]} nullity={got[1]}, expected {want}",
                     got == want, f"|grad|={res.gradient_norm:.2e}")
    return CheckReport(
        f"discrete index (n={n} k={k} segments={_segment_count(k)})",
        (item,))


def concat_check(trials: int, seed: int = 0) -> CheckReport:
    """Norm additivity and associativity of concat_min on chains of
    half-circles: a of one or two arcs, b and c of one arc each, each
    starting where the previous one ends."""
    # angles stay above 0.05 because the concatenation error grows like
    # 3e-15 / (smallest factor norm): arccos distances lose precision on
    # short segments.  Measured: with sample_yk's default uniform(0,
    # pi/2) angles, 30 000 trials gave a worst error of 1.7e-12 at factor
    # norm 7.2e-4; a factor at angle 1e-6 gives 2.4e-9, past _CHECK_TOL.
    # With the floor, seeds 0-149 at 200 trials give a worst of 1.3e-13.
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
        f"concatenation ({trials} trials, tolerance {_CHECK_TOL:.1e})",
        (CheckItem("norm is additive", worst_add < _CHECK_TOL,
                   f"worst error {worst_add:.3e}"),
         CheckItem("associativity breakpoints agree", worst_assoc < _CHECK_TOL,
                   f"worst error {worst_assoc:.3e}")))


def halfcircle_check(trials: int, seed: int = 0) -> CheckReport:
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
    items = [CheckItem(name, bool(w < _CHECK_TOL), f"worst {w:.3e}")
             for name, w in zip(names, np.max(rows, axis=0))]
    # the closed form (pi/2) sin|theta| peaks at both ends of the grid,
    # which tie up to roundoff; the nearest other grid point is about
    # 7.7e-4 lower
    grid = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 101)
    rng = np.random.default_rng(seed)
    x = random_real_point(2, rng)
    u = random_real_tangent(x, rng)
    norms = [path_norm(half_circle(x, u, float(t), 48)) for t in grid]
    peak = float(grid[int(np.argmax(norms))])
    step = float(grid[1] - grid[0])
    items.append(CheckItem(
        f"norm peaks at theta = {peak:+.4f}",
        abs(abs(peak) - 0.5 * math.pi) <= step,
        f"within a grid step of the quarter turn {0.5 * math.pi:.4f}"))
    return CheckReport(
        f"half-circles ({trials} trials, tolerance {_CHECK_TOL:.1e})",
        tuple(items))


def yk_check(trials: int, seed: int = 0) -> CheckReport:
    """Norm bound of the k-fold half-circle family, its right-angle
    samples at the critical norm, and the skew-pairing triple at n = 3."""
    worst = -math.inf
    for rng in _trial_rngs(trials, seed):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        p = sample_yk(n, k, rng, samples_per_arc=16)
        worst = max(worst, path_norm(p) - k * 0.5 * math.pi)
    items = [CheckItem("norm stays below k quarter-turns", worst < _CHECK_TOL,
                       f"worst excess {worst:.3e}")]
    # right-angle samples: the worst error over seeds 0-199 is 5.0e-13
    for (n, k) in ((1, 2), (2, 2), (3, 3)):
        rng = np.random.default_rng([seed, 10_000 + n, k])
        p = sample_yk(n, k, rng, thetas=[0.5 * math.pi] * k)
        err = abs(path_norm(p) - k * 0.5 * math.pi)
        items.append(CheckItem(
            f"right-angle sample n={n} k={k} reaches the critical norm",
            err < _CHECK_TOL, f"error {err:.3e}; family dimension (k+1)n = "
            f"{yk_parameter_count(n, k)}"))
    gram_ok = True
    rng = np.random.default_rng(seed)
    for _ in range(20):
        x = random_real_point(3, rng)
        triple = np.vstack([hopf_vector(x, w).vec.real
                            for w in ("J1", "J2", "J3")])
        gram = triple @ triple.T
        gram_ok = gram_ok and bool(
            np.max(np.abs(gram - np.eye(3))) < _GRAM_TOL
            and np.max(np.abs(triple @ x.real_representative())) < _GRAM_TOL)
    items.append(CheckItem(
        "skew-pairing triple is orthonormal and tangent (n=3)", gram_ok))
    return CheckReport(
        f"iterated half-circles ({trials} trials, tolerance {_CHECK_TOL:.1e})",
        tuple(items))
