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

Batches.  The kernels (underscored) take rows on leading axes and
round each row as a call on that row alone: one BLAS dot per row, the
math module for scalar trigonometry.  The per-object functions are
their batch-of-one case; the sampling suites run trials on the axis.
"""

from __future__ import annotations

import cmath
import functools
import itertools
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
# critical_index refuses a Hessian dimension 2n * max(8, 4k + 4) past
# this: the dense matrix takes dim^2 memory and eigvalsh dim^3 time, and
# n = 10, k = 50 (dim 4080) takes about 4.3 s and 295 MB on a 2-core VM
_MAX_HESSIAN_DIM = 4096
# pass bound of the sampling suites: their worst measured error at the
# default trials, seeds 0-9, is 7.1e-14, about 14 000 times below
_CHECK_TOL = 1e-9
# the sampling suites take their trials this many at a time: a block
# splits by n into groups of about 85 trials, enough to share each numpy
# call, and concat_check's traced peak stays near 1.4 MB (1.6 MB at four
# blocks) where one array per trial would grow without bound
_TRIAL_BLOCK = 256


class ParityError(ValueError):
    """Construction requires a parity the dimension does not have."""


class HessianSizeError(ValueError):
    """The dense second variation would pass _MAX_HESSIAN_DIM."""


class GradientCheckError(RuntimeError):
    """The configuration handed to the second-variation computation is
    not numerically critical."""


def _require(ok, message: str) -> None:
    if not ok.all():
        raise ValueError(message)


def _as_complex(vec) -> np.ndarray:
    return np.asarray(vec, dtype=complex).reshape(-1)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows (last axis), one BLAS dot per row
    with the strides np.dot would pass it, so each rounds as np.dot of
    its two rows; a.conj() in place of a gives np.vdot."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _row_norms(mat: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; the arithmetic of
    np.linalg.norm(mat, axis=-1) without its argument handling."""
    return np.sqrt(np.add.reduce((mat.conj() * mat).real, axis=-1))


def _unit_defect(v: np.ndarray) -> np.ndarray:
    """||v| - 1| of each row, |v| from np.vdot's one BLAS dot."""
    return np.abs(np.sqrt(_dots(v.conj(), v).real) - 1.0)


def _moduli(z: np.ndarray) -> np.ndarray:
    """|z| rounded as abs() of one complex scalar; np.abs on an array
    may round differently."""
    return np.hypot(z.real, z.imag)


def _each(fn, values) -> np.ndarray:
    """fn of each entry of values, one Python call each: the math
    module's rounding, which numpy's vector loops need not share."""
    return np.reshape([fn(v) for v in np.ravel(values).tolist()],
                      np.shape(values))


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Complex rows over their norms, each norm with np.linalg.norm's
    arithmetic: the dots of the real and of the imaginary parts."""
    norm = np.sqrt(_dots(v.real, v.real) + _dots(v.imag, v.imag))
    _require(norm != 0, "cannot normalize the zero vector")
    return v / norm[..., None]


def normalize(vec) -> np.ndarray:
    return _unit_rows(_as_complex(vec))


def _real_reps(reps: np.ndarray) -> np.ndarray:
    """Real unit representative of each row on the real locus: the
    squared-sum modulus |sum z_j^2| equals 1 exactly on such points and
    drops below 1 away from them; half its phase turns the row real."""
    s = np.add.reduce(reps * reps, axis=-1)
    _require(_moduli(s) >= 1.0 - _REAL_TOL, "point has no real representative")
    z = reps * _each(lambda w: cmath.exp(-0.5j * cmath.phase(w)), s)[..., None]
    _require(np.sqrt(_dots(z.imag, z.imag)) <= math.sqrt(_REAL_TOL),
             "point has no real representative")
    re = np.ascontiguousarray(z.real)
    return re / np.sqrt(_dots(re, re))[..., None]


@dataclass(eq=False)
class ProjPoint:
    """A point of complex projective space: unit representative, the
    same point as another (equals) when the representatives differ by a
    phase.  == and hashing go by identity."""

    rep: np.ndarray

    def __post_init__(self) -> None:
        self.rep = _as_complex(self.rep)
        if _unit_defect(self.rep) > _UNIT_TOL:
            raise ValueError("representative must be a unit vector")

    @property
    def ambient_dim(self) -> int:
        return self.rep.shape[0]

    def equals(self, other: "ProjPoint") -> bool:
        return abs(np.vdot(self.rep, other.rep)) > 1.0 - _UNIT_TOL

    def is_real(self) -> bool:
        """Whether some representative has all coordinates real."""
        return abs(np.add.reduce(self.rep * self.rep)) >= 1.0 - _REAL_TOL

    def real_representative(self) -> np.ndarray:
        return _real_reps(self.rep)


def proj_point(vec) -> ProjPoint:
    return ProjPoint(rep=normalize(vec))


def real_point(coords) -> ProjPoint:
    v = np.asarray(coords, dtype=float).reshape(-1)
    return ProjPoint(rep=normalize(v).astype(complex))


@dataclass(eq=False)
class TangentVector:
    """Horizontal tangent vector: Hermitian-orthogonal to the base.
    == and hashing go by identity."""

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
        return bool(_unit_defect(self.vec) <= _UNIT_TOL)


def fs_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Distance in [0, pi/2]: arccos of the clamped pairing modulus."""
    c = abs(np.vdot(p.rep, q.rep))
    return math.acos(min(1.0, max(0.0, c)))


def _geodesics(x: np.ndarray, v: np.ndarray, s) -> np.ndarray:
    """Points at the arclengths s on the geodesics leaving the rows of x
    with the unit velocities v; s broadcasts against the leading axes."""
    _require(_unit_defect(v) <= _UNIT_TOL,
             "geodesic requires a unit tangent vector")
    pts = _each(math.cos, s)[..., None] * x + _each(math.sin, s)[..., None] * v
    _require(_unit_defect(pts) <= _UNIT_TOL,
             "representative must be a unit vector")
    return pts


def geodesic(x: ProjPoint, v: TangentVector, s: float) -> ProjPoint:
    """Point at arclength s on the geodesic leaving x with velocity v;
    periodic with period pi."""
    if not v.base.equals(x):
        raise ValueError("tangent vector is not based at x")
    return ProjPoint(rep=_geodesics(x.rep, v.vec, s))


# ---------------------------------------------------------------------------
# Discrete paths, energy, concatenation


def _check_paths(samples: np.ndarray, params: np.ndarray) -> None:
    """DiscretePath's value checks, in its order, on paths stacked on
    leading axes; params may also be one grid that all paths share."""
    _require(np.abs(params[..., [0, -1]] - [0.0, 1.0]) <= _PARAM_END_TOL,
             "breakpoints must run from 0 to 1")
    _require(params[..., 1:] > params[..., :-1],
             "breakpoints must be strictly increasing")
    defect = np.abs(_row_norms(samples) - 1.0)
    _require(defect <= _SAMPLE_UNIT_TOL, "samples must be unit vectors")
    # each endpoint must also pass ProjPoint's unit check and lie on the
    # real locus within _ENDPOINT_TOL
    for idx in (0, -1):
        _require(defect[..., idx] <= _UNIT_TOL,
                 "representative must be a unit vector")
        end = samples[..., idx, :]
        _require(np.abs(np.add.reduce(end * end, axis=-1))
                 >= 1.0 - _ENDPOINT_TOL,
                 "path endpoints must lie on the real locus")


@dataclass(frozen=True, eq=False)
class DiscretePath:
    """Piecewise-geodesic path: one unit sample row per breakpoint.

    A path is its samples and breakpoints.  Breakpoints are strictly
    increasing from 0 to 1; both endpoints lie on the real locus.

    A path is immutable: its fields cannot be reassigned, and samples
    and params are read-only copies of the arrays passed in, so nothing
    the caller still holds can change them.  It is validated once, in
    one vectorized pass.  Two paths are equal only when they are the
    same object.
    """

    samples: np.ndarray
    params: np.ndarray

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
        _check_paths(samples, params)

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    def start(self) -> ProjPoint:
        return ProjPoint(self.samples[0])

    def end(self) -> ProjPoint:
        return ProjPoint(self.samples[-1])

    def reversed(self) -> "DiscretePath":
        return DiscretePath(samples=self.samples[::-1],
                            params=1.0 - self.params[::-1])


def constant_path(x: ProjPoint, samples: int = 2) -> DiscretePath:
    pts = np.repeat(x.rep[None, :], samples, axis=0)
    return DiscretePath(samples=pts, params=np.linspace(0.0, 1.0, samples))


def _segment_distances(samples: np.ndarray) -> np.ndarray:
    inner = np.abs(np.einsum("...ij,...ij->...i", samples[..., :-1, :],
                             samples[..., 1:, :].conj()))
    # inner >= 0, so this is the clip of inner to [0, 1]
    return np.arccos(np.minimum(inner, 1.0))


def _energies(samples: np.ndarray, params: np.ndarray) -> np.ndarray:
    d = _segment_distances(samples)
    return np.add.reduce(d * d / (params[..., 1:] - params[..., :-1]),
                         axis=-1)


def path_energy(path: DiscretePath) -> float:
    """Energy of the piecewise-geodesic path with its parametrization:
    sum of squared segment distances over segment durations."""
    return float(_energies(path.samples, path.params))


def path_norm(path: DiscretePath) -> float:
    """Square root of the energy; at least the total length, with
    equality exactly at proportional-to-arclength parametrizations."""
    return math.sqrt(path_energy(path))


def path_length(path: DiscretePath) -> float:
    return float(np.sum(_segment_distances(path.samples)))


def _concat(gamma: tuple, delta: tuple) -> tuple:
    """concat_min of matching rows of two batches of paths, each batch
    (samples, params) with one leading axis; returns the same pair.
    Two constant factors get the junction s = 1/2."""
    # the junction check passes only pairings above 1/2, so the phase of
    # the second factor can always be aligned
    z = _dots(delta[0][:, 0].conj(), gamma[0][:, -1])
    pairing = _moduli(z)
    _require(pairing > 1.0 - _ENDPOINT_TOL,
             "paths do not share the junction point")
    f1, f2 = np.sqrt(_energies(*gamma)), np.sqrt(_energies(*delta))
    constant = f1 + f2 == 0.0
    s = np.where(constant, 0.5, np.minimum(np.maximum(
        f1 / np.where(constant, 1.0, f1 + f2), _JUNCTION_CLAMP),
        1.0 - _JUNCTION_CLAMP))[:, None]
    pts = np.concatenate(
        [gamma[0], delta[0][:, 1:] * (z / pairing)[:, None, None]], axis=1)
    t = np.concatenate([gamma[1] * s, s + delta[1][:, 1:] * (1.0 - s)], axis=1)
    t[:, -1] = 1.0
    _check_paths(pts, t)
    return pts, t


def concat_min(gamma: DiscretePath, delta: DiscretePath) -> DiscretePath:
    """Minimum-energy concatenation: the junction sits at
    s = F(gamma) / (F(gamma) + F(delta)), which makes the norm exactly
    additive; the junction rows must pair to more than 1 - _ENDPOINT_TOL,
    and the second factor is turned by the phase of that pairing.
    Two constant factors leave the junction undetermined; the
    convention s = 1/2 is used."""
    pts, t = _concat(*((p.samples[None], p.params[None])
                       for p in (gamma, delta)))
    return DiscretePath(samples=pts[0], params=t[0])


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


def _half_circles(r: np.ndarray, u: np.ndarray, theta: np.ndarray,
                  samples: int) -> tuple:
    """half_circle from each real unit row of r along the matching row
    of u by the matching angle: (samples, params), samples on axis 1."""
    if samples < 2:
        raise ValueError("need at least two samples")
    _require((np.sqrt(_dots(u.imag, u.imag)) <= _REAL_TOL)
             & (_unit_defect(u) <= _UNIT_TOL),
             "half-circle direction must be a real unit tangent")
    ur = u.real[:, None]
    _require(np.abs(_dots(r, u.real)) <= _REAL_TOL,
             "direction must be orthogonal to the real base")
    # sin theta, sin 2theta and cos 2theta of theta reduced mod pi, each
    # a column
    sin, sin2, cos2 = np.array(
        [(math.sin(a), math.sin(2 * a), math.cos(2 * a))
         for a in (math.remainder(b, math.pi) for b in theta.tolist())]
    ).reshape(-1, 3).T[..., None]
    flat = np.abs(sin[:, 0]) < _FLAT_SIN
    t, cos_phi, sin_phi = _arc_grid(samples)
    # the chord runs from x's image (0, 1/2, 0) to the endpoint's image
    # (sin 2theta, cos 2theta, 0) / 2; the arc is centred at its
    # midpoint (mx, my, 0), has radius rho, and starts along the unit
    # vector (-mx, 1/2 - my, 0) / rho, bending towards (0, 0, 1)
    mx, my = 0.25 * sin2, 0.25 + 0.25 * cos2
    rho = np.where(flat[:, None], 1.0, 0.5 * np.abs(sin))
    px = mx + rho * (cos_phi * (-mx / rho))
    py = my + rho * (cos_phi * ((0.5 - my) / rho))
    # invert the sphere map: p lifts to a*r + c*u with a real >= 0; at
    # the south pole (a = 0) the lift is u itself
    south = (0.5 + py <= _SOUTH_A2)[..., None]
    a = np.sqrt(np.where(south, 1.0, (0.5 + py)[..., None]))
    c = (px + 1j * (rho * sin_phi))[..., None] / a
    pts = np.where(south, ur, a * r[:, None] + c * ur)
    pts /= _row_norms(pts)[..., None]
    # theta = 0 (mod pi) gives the constant path at x
    pts[flat] = r[flat, None]
    _check_paths(pts, t)
    return pts, np.broadcast_to(t, pts.shape[:2])


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
    r = x.real_representative()
    if not u.base.equals(x):
        raise ValueError("tangent vector is not based at x")
    pts, t = _half_circles(r[None], u.vec[None], np.array([theta]), samples)
    return DiscretePath(samples=pts[0], params=t[0])


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


def _real_points(rngs: list, n: int) -> np.ndarray:
    """random_real_point's draw from each generator, as complex rows."""
    return _unit_rows(np.array([rng.standard_normal(n + 1) for rng in rngs],
                               dtype=complex))


def random_real_point(n: int, rng: np.random.Generator) -> ProjPoint:
    return ProjPoint(_real_points([rng], n)[0])


def _tangents(r: np.ndarray, rngs: list) -> np.ndarray:
    """A random real unit tangent at each real unit row of r, row i
    drawn from rngs[i]: a normal draw projected off r, drawn again
    while the projection is shorter than _TANGENT_REDRAW."""
    v, norm = np.empty_like(r), np.empty(len(r))
    redraw = np.arange(len(r))
    while redraw.size:
        w = np.array([rngs[i].standard_normal(r.shape[1]) for i in redraw])
        w -= _dots(w, r[redraw])[:, None] * r[redraw]
        v[redraw], norm[redraw] = w, np.sqrt(_dots(w, w))
        redraw = redraw[~(norm[redraw] > _TANGENT_REDRAW)]
    # the rounding left along r by one projection grows by 1/norm when
    # normalizing, which can pass the tangency tolerance when the draw
    # lay close to r; a second projection of the unit vector removes it
    v /= norm[:, None]
    v -= _dots(v, r)[:, None] * r
    u = _unit_rows(v.astype(complex))
    _require(_moduli(_dots(r, u)) <= _UNIT_TOL,
             "tangent vector must be orthogonal to the base")
    return u


def random_real_tangent(x: ProjPoint, rng: np.random.Generator
                        ) -> TangentVector:
    r = x.real_representative()
    return TangentVector(base=ProjPoint(r.astype(complex)),
                         vec=_tangents(r[None], [rng])[0])


def yk_parameter_count(n: int, k: int) -> int:
    """Dimension of the k-fold half-circle family: n for the base point
    plus n per half-circle (n-1 for the direction, 1 for the angle)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return (k + 1) * n


def _chains(rngs: list, n: int, thetas: np.ndarray, samples: int,
            start: Optional[np.ndarray] = None) -> tuple:
    """sample_yk on a batch, with the arcs in lockstep: row i draws from
    rngs[i] what sample_yk draws with the angles thetas[i] (NaN past its
    last; rows with more angles first) and the start row start[i], in
    the same order, and gets the same path.  Returns (arc count, paths)
    pairs in row order."""
    counts = np.count_nonzero(~np.isnan(thetas), axis=1)
    x = _real_points(rngs, n) if start is None else start
    done, path = [], None
    for j, theta in enumerate(thetas.T):
        live = int(np.count_nonzero(counts > j))
        if path is not None:
            # the next arc leaves the real representative of this end
            x = _real_reps(arc[0][:live, -1]).astype(complex)
            done.insert(0, (j, tuple(a[live:] for a in path)))
            path = tuple(a[:live] for a in path)
        r = _real_reps(x)
        arc = _half_circles(r, _tangents(r, rngs[:live]), theta[:live],
                            samples)
        path = arc if path is None else _concat(path, arc)
    return [(len(thetas.T), path)] + [p for p in done if len(p[1][0])]


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
    [(_, (pts, t))] = _chains(
        [rng], n, thetas[None], samples_per_arc,
        None if start is None else start.rep[None])
    return DiscretePath(samples=pts[0], params=t[0])


# hopf_vector's pairings: block width, then coordinate i of each block
# is sign * coordinate source of the real representative's block
_PAIRINGS = {"J": (2, ((-1, 1), (1, 0))), "J1": (2, ((-1, 1), (1, 0))),
             "J2": (4, ((-1, 2), (1, 3), (1, 0), (-1, 1))),
             "J3": (4, ((-1, 3), (-1, 2), (1, 1), (1, 0)))}


def _skew(r: np.ndarray, which: str) -> np.ndarray:
    """hopf_vector's skew pairing applied to the real rows r."""
    if which not in _PAIRINGS:
        raise ValueError(f"unknown pairing {which!r}")
    width, images = _PAIRINGS[which]
    if r.shape[-1] % width != 0:
        raise ParityError("pairwise rotation needs odd n" if width == 2
                          else "quaternionic rotations need n = 3 mod 4")
    out = np.empty_like(r)
    for i, (sign, source) in enumerate(images):
        out[..., i::width] = sign * r[..., source::width]
    return out


def hopf_vector(x: ProjPoint, which: str = "J") -> TangentVector:
    """Real unit tangent given by a skew-orthogonal pairing of the real
    coordinates; the corresponding normal section is i times it.

    which = "J" or "J1" pairs coordinates two at a time and needs odd
    n; "J2" and "J3" act on blocks of four and need n = 3 mod 4.  The
    three quaternionic outputs are mutually orthonormal.
    """
    r = x.real_representative()
    return TangentVector(base=ProjPoint(r.astype(complex)),
                         vec=_skew(r, which).astype(complex))


# ---------------------------------------------------------------------------
# Discrete second variation at the critical geodesics


@dataclass
class IndexResult:
    index: int
    nullity: int
    gradient_norm: float
    eigenvalues: np.ndarray = field(repr=False, compare=False)


def _segment_count(k: int) -> int:
    """Subdivision of the level-k critical geodesic: max(8, 4k + 4)
    segments, each shorter than an eighth turn."""
    return max(8, 4 * k + 4)


def _critical_configuration(n: int, k: int, rng: np.random.Generator
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Base samples (segments+1, n+1) and frames (segments+1, n+1, 2n)
    of the level-k critical configuration.

    The samples lie on the geodesic p(s) = cos s x + i sin s u that
    leaves a random real point x in the purely imaginary direction i u,
    evenly spaced over arclength k pi / 2.  The geodesic stays in the
    complex line of x and u, so one real orthonormal basis E of the
    complement of that line is normal to it everywhere.  Each frame is
    [f, E] and i times it, with f = p'(s) inside and, at the two
    endpoints r (made real by one _real_reps call), the unit vector w of
    span(x, u) orthogonal to r: their first n columns are the real frame
    [w, E] of the real locus.  The generator draws x and u only.
    """
    start = random_real_point(n, rng)
    u = random_real_tangent(start, rng).vec.real
    x = start.rep.real
    q, _ = np.linalg.qr(np.column_stack([x, u, np.eye(n + 1)]))
    segments = _segment_count(k)
    s_vals = np.linspace(0.0, 0.5 * math.pi * k, segments + 1)[:, None]
    base = np.cos(s_vals) * x + 1j * np.sin(s_vals) * u
    frames = np.empty((segments + 1, n + 1, 2 * n), complex)
    frames[:, :, 0] = -np.sin(s_vals) * x + 1j * np.cos(s_vals) * u
    frames[:, :, 1:n] = q[:, 2:]
    base[[0, -1]] = r = _real_reps(base[[0, -1]])
    # r = a x + b u, so w = b x - a u completes it in the plane
    frames[[0, -1], :, 0] = _dots(r, u)[:, None] * x - _dots(r, x)[:, None] * u
    np.multiply(frames[:, :, :n], 1j, out=frames[:, :, n:])
    return base, frames


def _segment_slopes(u):
    """g'(u) and g''(u) for g(u) = arcsin^2(sqrt u), the squared length
    of a segment whose endpoints pair to modulus sqrt(1 - u), for a
    number u or each entry of an array.

    With theta = arcsin(sqrt u), g' = 2 theta / sin 2theta and
    g'' = (2 sin 2theta - 4 theta cos 2theta) / sin^3 2theta.  Below
    u = 1e-6 the closed forms cancel and their series take over; the
    dropped terms are below 1e-17 there.
    """
    series = np.less(u, 1e-6)
    theta = np.arcsin(np.sqrt(np.where(series, 0.5, u)))
    s2, c2 = np.sin(2.0 * theta), np.cos(2.0 * theta)
    # [()] makes the 0-d results of a number numbers
    return (np.where(series, 1.0 + u * (2.0 / 3.0 + u * 8.0 / 15.0),
                     2.0 * theta / s2)[()],
            np.where(series, 2.0 / 3.0 + u * (16.0 / 15.0 + u * 48.0 / 35.0),
                     (2.0 * s2 - 4.0 * theta * c2) / s2 ** 3)[()])


def _bands(base: np.ndarray, frames: np.ndarray) -> tuple:
    """Gradient and band of the second variation, every segment at once
    on a leading axis: diagonal blocks (segments+1, 2n, 2n) and
    off-diagonal blocks (segments, 2n, 2n).  The gradient keeps each
    endpoint's first n coordinates, as _hessian_matrix does."""
    segments, n = len(base) - 1, frames.shape[2] // 2
    p, q = base[:-1], base[1:]
    ft, gh = frames[:-1].swapaxes(1, 2), frames[1:].conj().swapaxes(1, 2)
    a = _dots(q.conj(), p)
    beta = (ft @ q.conj()[..., None])[..., 0]
    gamma = (gh @ p[..., None])[..., 0]
    a2, ac = _moduli(a) ** 2, a.conj()[:, None]
    cs, ct = 2.0 * (ac * beta).real, 2.0 * (ac * gamma).real
    d1, d2 = _segment_slopes(np.maximum(0.0, 1.0 - a2))
    grad = np.zeros((segments + 1, 2 * n))
    grad[:-1] -= segments * d1[:, None] * cs
    grad[1:] -= segments * d1[:, None] * ct
    d1, d2 = d1[:, None, None], d2[:, None, None]
    eye = a2[:, None, None] * np.eye(2 * n)
    diag = np.zeros((segments + 1, 2 * n, 2 * n))
    for rows, c, z in ((slice(-1), cs, beta), (slice(1, None), ct, gamma)):
        czz = 2.0 * ((z[..., None] * z.conj()[:, None]).real - eye)
        diag[rows] += segments * (d2 * (c[..., None] * c[:, None]) - d1 * czz)
    cst = 2.0 * (beta[..., None] * gamma.conj()[:, None]
                 + ac[..., None] * (ft @ gh.swapaxes(1, 2))).real
    off = segments * (d2 * (cs[..., None] * ct[:, None]) - d1 * cst)
    return (np.concatenate([grad[0, :n], grad[1:-1].ravel(), grad[-1, :n]]),
            diag, off)


def _hessian_matrix(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The dim x dim Hessian, dim = 2n * segments, written from the band
    in place: each endpoint keeps its first n coordinates (the real
    locus), and the interior samples fill the square between them
    through a view as (segments-1) x (segments-1) blocks of 2n."""
    segments, n = len(off), diag.shape[1] // 2
    hess = np.zeros((2 * n * segments,) * 2)
    inner = hess[n:-n, n:-n].reshape(segments - 1, 2 * n, -1, 2 * n)
    j = np.arange(segments - 1)
    inner[j, :, j] = diag[1:-1]
    inner[j[:-1], :, j[1:]] = off[1:-1]
    inner[j[1:], :, j[:-1]] = off[1:-1].swapaxes(1, 2)
    hess[:n, :n], hess[-n:, -n:] = diag[0, :n, :n], diag[-1, :n, :n]
    hess[:n, n:3 * n], hess[-3 * n:-n, -n:] = off[0, :n], off[-1, :, :n]
    hess[n:3 * n, :n], hess[-n:, -3 * n:-n] = off[0, :n].T, off[-1, :, :n].T
    return hess


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
    _segment_slopes.  _bands evaluates these for every segment at once
    on a leading axis; each segment adds its blocks to the samples at
    its two ends, so the Hessian is block tridiagonal, and
    _hessian_matrix writes the band straight into the dense matrix,
    keeping only each endpoint's real frame [w, E].  Every entry is
    exact up to rounding.  A matrix past _MAX_HESSIAN_DIM raises
    HessianSizeError before anything of its size is allocated.

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
    dim = 2 * n * _segment_count(k)
    if dim > _MAX_HESSIAN_DIM:
        raise HessianSizeError(
            f"the second variation at n={n} k={k} has dimension {dim}, "
            f"past the dense limit {_MAX_HESSIAN_DIM}")
    rng = rng if rng is not None else np.random.default_rng(0)
    grad, diag, off = _bands(*_critical_configuration(n, k, rng))
    gnorm = float(np.linalg.norm(grad))
    if not gnorm < _GRAD_TOL:
        raise GradientCheckError(
            f"configuration is not critical: |grad E| = {gnorm:.3e}")

    hess = _hessian_matrix(diag, off)
    # only the matrix stays alive while the eigensolver copies it
    del diag, off
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


def _trial_groups(trials: int, seed: int):
    """The trial generators, _TRIAL_BLOCK at a time, each block split by
    every suite's first draw, the dimension n in 1..3, into (n,
    generators) groups whose arrays share their shapes."""
    rngs = _trial_rngs(trials, seed)
    while True:
        groups: dict = {}
        for rng in itertools.islice(rngs, _TRIAL_BLOCK):
            groups.setdefault(int(rng.integers(1, 4)), []).append(rng)
        if not groups:
            return
        yield from groups.items()


def _angles(rngs: list, counts: list, lo: float, hi: float) -> tuple:
    """The generators ordered by count, most first, and the count angles
    each draws uniformly from [lo, hi), NaN past its count."""
    order = sorted(range(len(rngs)), key=lambda i: -counts[i])
    thetas = np.full((len(rngs), max(counts)), np.nan)
    for row, i in zip(thetas, order):
        row[:counts[i]] = rngs[i].uniform(lo, hi, counts[i])
    return [rngs[i] for i in order], thetas


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
    for n, rngs in _trial_groups(trials, seed):
        rngs, thetas = _angles(rngs, [int(rng.integers(1, 3)) for rng in rngs],
                               lo, hi)
        parts = [a for _, a in _chains(rngs, n, thetas, 12)]
        ones = [1] * len(rngs)
        [(_, b)] = _chains(rngs, n, _angles(rngs, ones, lo, hi)[1], 12,
                           np.concatenate([a[0][:, -1] for a in parts]))
        [(_, c)] = _chains(rngs, n, _angles(rngs, ones, lo, hi)[1], 12,
                           b[0][:, -1])
        bc, first = _concat(b, c), 0
        for a in parts:
            rows = slice(first, first + len(a[0]))
            first = rows.stop
            b_, c_, bc_ = (tuple(x[rows] for x in p) for p in (b, c, bc))
            ab = _concat(a, b_)
            fa, fb, fab = (np.sqrt(_energies(*p)) for p in (a, b_, ab))
            worst_add = max(worst_add, float(np.max(np.abs(fab - fa - fb))))
            left, right = _concat(ab, c_), _concat(a, bc_)
            worst_assoc = max(worst_assoc,
                              float(np.max(np.abs(left[1] - right[1]))))
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
    # the geodesic leaving in the normal direction i u returns to the
    # real locus every quarter period (arclengths 0..4), alternating the
    # two points, and recurs after pi (0.3 against 0.3 + pi); compare
    # pairings, not arccos distances, which amplify roundoff
    arclengths = [k * math.pi / 2 for k in range(5)] + [0.3, 0.3 + math.pi]
    worst = np.full(5, -math.inf)
    for n, rngs in _trial_groups(trials, seed):
        x = _real_points(rngs, n)
        r = _real_reps(x)
        u = _tangents(r, rngs)
        theta = np.array([rng.uniform(-math.pi, math.pi) for rng in rngs])
        hc, t = _half_circles(r, u, theta, 48)
        end = _geodesics(x, u, _each(lambda a: math.remainder(a, math.pi),
                                     theta))
        basis = np.stack([r.astype(complex), u], axis=1)
        coeff = hc @ basis.conj().transpose(0, 2, 1)
        # i u is tangent at x: |<x, i u>| = |<x, u>|, bounded by _tangents
        g = _geodesics(x[:, None], 1j * u[:, None], arclengths)
        c = _moduli(_dots(x.conj()[:, None], g[:, :5]))
        rows = (1.0 - _moduli(_dots(hc[:, -1].conj(), end)),
                np.sqrt(_energies(hc, t)) - 0.5 * math.pi,
                np.max(np.abs(coeff @ basis - hc), axis=(1, 2)),
                np.maximum(0.0, np.maximum(np.max(1.0 - c[:, 0::2], axis=1),
                                           np.max(c[:, 1::2], axis=1))),
                1.0 - _moduli(_dots(g[:, 5].conj(), g[:, 6])))
        worst = np.maximum(worst, [np.max(w) for w in rows])
    names = ("endpoint matches the geodesic construction",
             "norm never exceeds a quarter circumference",
             "samples stay on the spanned line",
             "quarter-period antipode distances",
             "period-pi recurrence")
    items = [CheckItem(name, bool(w < _CHECK_TOL), f"worst {w:.3e}")
             for name, w in zip(names, worst)]
    # the closed form (pi/2) sin|theta| peaks at both ends of the grid,
    # which tie up to roundoff; the nearest other grid point is about
    # 7.7e-4 lower
    grid = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 101)
    rng = np.random.default_rng(seed)
    r = _real_reps(_real_points([rng], 2))
    u = _tangents(r, [rng])
    arcs, t = _half_circles(np.repeat(r, grid.size, axis=0),
                            np.repeat(u, grid.size, axis=0), grid, 48)
    peak = float(grid[int(np.argmax(np.sqrt(_energies(arcs, t))))])
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
    for n, rngs in _trial_groups(trials, seed):
        rngs, thetas = _angles(rngs, [int(rng.integers(1, 4)) for rng in rngs],
                               0.0, 0.5 * math.pi)
        for k, (pts, t) in _chains(rngs, n, thetas, 16):
            worst = max(worst, float(np.max(np.sqrt(_energies(pts, t))
                                            - k * 0.5 * math.pi)))
    items = [CheckItem("norm stays below k quarter-turns", worst < _CHECK_TOL,
                       f"worst excess {worst:.3e}")]
    # right-angle samples: the worst error over seeds 0-199 is 5.0e-13
    for (n, k) in ((1, 2), (2, 2), (3, 3)):
        rng = np.random.default_rng([seed, 10_000 + n, k])
        [(_, (pts, t))] = _chains([rng], n, np.full((1, k), 0.5 * math.pi),
                                  40)
        err = abs(float(np.sqrt(_energies(pts, t))[0]) - k * 0.5 * math.pi)
        items.append(CheckItem(
            f"right-angle sample n={n} k={k} reaches the critical norm",
            err < _CHECK_TOL, f"error {err:.3e}; family dimension (k+1)n = "
            f"{yk_parameter_count(n, k)}"))
    r = _real_reps(_real_points([np.random.default_rng(seed)] * 20, 3))
    triple = np.stack([_skew(r, w) for w in ("J1", "J2", "J3")], axis=1)
    gram = triple @ triple.transpose(0, 2, 1)
    gram_ok = bool(np.max(np.abs(gram - np.eye(3))) < _GRAM_TOL
                   and np.max(np.abs(triple @ r[:, :, None])) < _GRAM_TOL)
    items.append(CheckItem(
        "skew-pairing triple is orthonormal and tangent (n=3)", gram_ok))
    return CheckReport(
        f"iterated half-circles ({trials} trials, tolerance {_CHECK_TOL:.1e})",
        tuple(items))
