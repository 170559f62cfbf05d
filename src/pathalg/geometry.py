"""Numerical model of the metric side: complex projective space with
the metric normalized so complex lines are round 2-spheres of curvature
4, the real locus of points with a real representative, vertical
half-circle paths (each the orbit of a real point under one rotation of
its complex line), minimum-energy concatenation, and the discrete
second-variation computation at the critical geodesics.

Conventions.  Points are unit vectors in complex (n+1)-space up to
phase; the Hermitian product of two unit representatives determines the
distance arccos|<z, w>| in [0, pi/2].  Tangent vectors are Hermitian
orthogonal to the base representative (horizontal lifts).  Discrete
paths are sample matrices with strictly increasing breakpoints in
[0, 1] and both endpoints on the real locus.

Batches.  The kernels (underscored) take rows on leading axes and round
each row as a call on that row alone: each sum over the coordinates is
one einsum (_dots) but two matmuls, where einsum was slower: _bands'
unpadded pairing matrix and _halfcircle_rows' padded off-line product,
its bits pinned by a test.  Every other operation is a numpy ufunc, and
the one scalar call is math.remainder (_half_circles).  Each check and
draw is defined once among them; the per-object functions are their
batch-of-one case.  The sampling suites run each block of trials as one
array whatever the trials' n: a row fills its first n + 1 columns and
the rest are exact zeros, which no elementwise operation rounds and no
_dots sum changes, whatever its operands' strides, so every value and
guard keeps its row's bits.  Only a draw's standard_normal calls run a
width at a time (_gaussians); all else runs once on the block.  Block b
of a suite draws all its inputs as arrays from one generator,
default_rng([0, b, seed]), and the suite's j-th stream outside its
blocks is default_rng([1, j, seed]): two one-word prefixes before the
seed, whose words may be many, so no two streams share a key.
concat_check chains its arcs b and c once per block, whatever a's arc
count, and takes each path's norm once: _concat takes the factors'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import homology
from .tables import CheckItem, CheckReport

# worst cases below are measured over the four suites at their default
# sizes, seeds 0-9 (index at (n, k) = (1, 1), (2, 2), (3, 1), (4, 3),
# (1, 12)), the sampling streams keyed [0, b, seed] and [1, j, seed],
# unless they say otherwise.
# each property has one bound, wherever it is tested.  _UNIT_TOL bounds
# a unit defect (points, path samples), the pairing defect 1 - |<p, q>|
# of the same point (ProjPoint.equals, concat_min's junction) and a
# frame's Gram and tangency defects (tangent vectors, half-circle
# directions, yk_check's skew triple); _REAL_TOL bounds 1 - |sum z_j^2|
# on the real locus (is_real, _real_reps, path endpoints).  Over the
# sampling suites at (60, 20, 100) and at the default trials, seeds
# 0-39, the worst junction pairing defect is 5.6e-16, the triple's Gram
# defect 4.4e-16 and its tangency defect 0.0, a path sample's unit
# defect 4.4e-16 and a path endpoint's real-locus defect 7.8e-16.  Path
# breakpoints end exactly at 0 and 1, as every constructor sets them
_UNIT_TOL = 1e-12
_REAL_TOL = 1e-9
# concat_min keeps the junction breakpoint s this far inside (0, 1), so
# the breakpoints stay increasing after a zero-norm factor; the smallest
# min(s, 1 - s) of two nonzero factors is 5.0e-4
_JUNCTION_CLAMP = 1e-12
# random_real_tangent redraws a projection shorter than this; the
# shortest drawn is 9.2e-5, so none was redrawn
_TANGENT_REDRAW = 1e-6
# critical_index's bound on |grad E| is _GRAD_TOL * eps * segments^2,
# the order of its rounding; over the whole documented range (every
# (n, k) with 2n * segments <= _MAX_HESSIAN_DIM, seeds 0-2) the largest
# |grad E| / (eps * segments^2) is 13.4 (n = 1, k = 504), 3.1 at n <= 20
# with k <= 30, and 9.2 at k <= 1 (n up to 256)
_GRAD_TOL = 1000.0
# critical_index refuses a Hessian dimension 2n * max(8, 4k + 4) past
# this: the dense matrix takes dim^2 memory and eigvalsh dim^3 time, and
# n = 10, k = 50 (dim 4080) takes about 4.3 s and 295 MB on a 2-core VM
_MAX_HESSIAN_DIM = 4096
# pass bound of the sampling suites: their worst measured error at the
# default trials, seeds 0-9, is 5.7e-14 on the drawn trials, about
# 17 000 times below, and 4.2e-13 on yk_check's right-angle samples
_CHECK_TOL = 1e-9
# the sampling suites take their trials this many at a time, as one
# array, enough to share each numpy call; concat_check's traced peak
# (seed 3, numpy 2.4) is 3.72 MB at one block and at four, where one
# array per trial would grow without bound
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
    """Sums of products of matching rows (last axis), one einsum over
    the axis, so a row's sum keeps its bits past zero padding whatever
    the operands' strides; a.conj() in place of a gives np.vdot."""
    return np.einsum("...i,...i->...", a, b)


def _row_norms(mat: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: the root of its _dots with its
    conjugate."""
    return np.sqrt(_dots(mat.conj(), mat).real)


def _norm_defects(v: np.ndarray, norm: float = 1.0) -> np.ndarray:
    """||row| - norm| of each row by _row_norms (norm 0: size of .imag)."""
    return np.abs(_row_norms(v) - norm)


def _real_locus(z: np.ndarray) -> tuple:
    """s = sum z_j^2 of each unit row z, and whether |s| >= 1 - _REAL_TOL:
    |s| is 1 exactly on the real locus and drops below 1 away from it."""
    s = _dots(z, z)
    return s, np.abs(s) >= 1.0 - _REAL_TOL


def _require_tangent(base: np.ndarray, vec: np.ndarray) -> None:
    """Refuse rows vec not Hermitian-orthogonal to the matching base."""
    _require(np.abs(_dots(base.conj(), vec)) <= _UNIT_TOL,
             "tangent vector must be orthogonal to the base")


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Rows over their norms (_row_norms); a zero row is refused."""
    norm = _row_norms(v)
    _require(norm != 0, "cannot normalize the zero vector")
    return v / norm[..., None]


def normalize(vec) -> np.ndarray:
    return _unit_rows(_as_complex(vec))


def _real_reps(reps: np.ndarray) -> np.ndarray:
    """Real unit representative of each row on the real locus: times the
    principal root sqrt(conj(s)), s its squared sum (_real_locus), the row
    is real up to an imaginary part of squared norm at most (1 - |s|) / 2
    <= _REAL_TOL / 2; _unit_rows takes off the root's modulus |s|^(1/2)."""
    s, real = _real_locus(reps)
    _require(real, "point has no real representative")
    return _unit_rows((reps * np.sqrt(s.conj())[..., None]).real)


@dataclass(eq=False)
class ProjPoint:
    """A point of complex projective space: unit representative, the
    same point as another (equals) when the representatives differ by a
    phase.  == and hashing go by identity."""

    rep: np.ndarray

    def __post_init__(self) -> None:
        self.rep = _as_complex(self.rep)
        _require(_norm_defects(self.rep) <= _UNIT_TOL,
                 "representative must be a unit vector")

    @property
    def ambient_dim(self) -> int:
        return self.rep.shape[0]

    def equals(self, other: "ProjPoint") -> bool:
        return np.abs(_dots(self.rep.conj(), other.rep)) > 1.0 - _UNIT_TOL

    def is_real(self) -> bool:
        """Whether some representative has all coordinates real."""
        return _real_locus(self.rep)[1]

    def real_representative(self) -> np.ndarray:
        return _real_reps(self.rep)


def proj_point(vec) -> ProjPoint:
    return ProjPoint(rep=normalize(vec))


def real_point(coords) -> ProjPoint:
    v = np.asarray(coords).reshape(-1)
    _require(np.imag(v) == 0, "coordinates must be real")
    return ProjPoint(rep=normalize(np.real(v)))


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
        _require_tangent(self.base.rep, self.vec)

    @property
    def is_unit(self) -> bool:
        return bool(_norm_defects(self.vec) <= _UNIT_TOL)


def fs_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Distance in [0, pi/2]: arccos of the clamped pairing modulus."""
    return float(_segment_distances(np.stack([p.rep, q.rep]))[0])


def _geodesics(x: np.ndarray, v: np.ndarray, s) -> np.ndarray:
    """Points at the arclengths s on the geodesics leaving the rows of x
    with the unit velocities v; s broadcasts against the leading axes."""
    _require(_norm_defects(v) <= _UNIT_TOL,
             "geodesic requires a unit tangent vector")
    pts = np.cos(s)[..., None] * x + np.sin(s)[..., None] * v
    _require(_norm_defects(pts) <= _UNIT_TOL,
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
    _require(params[..., [0, -1]] == [0.0, 1.0],
             "breakpoints must run from 0 to 1")
    _require(params[..., 1:] > params[..., :-1],
             "breakpoints must be strictly increasing")
    # every sample passes ProjPoint's unit check, both ends is_real
    _require(_norm_defects(samples) <= _UNIT_TOL,
             "representative must be a unit vector")
    _require(_real_locus(samples[..., [0, -1], :])[1],
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
    """arccos of the pairing modulus of each two consecutive samples.
    arccos loses precision near 1: a pairing rounded to 1 - k eps reads
    sqrt(2k eps), so two equal unit samples can read up to about 3e-8
    apart, and a 48-sample constant_path has path_norm up to 1.6e-6, not
    0 (489 of 1400 random real points at n = 1..7 read nonzero)."""
    inner = np.abs(_dots(samples[..., :-1, :], samples[..., 1:, :].conj()))
    # inner >= 0, so this is the clip of inner to [0, 1]
    return np.arccos(np.minimum(inner, 1.0))


def _energies(samples: np.ndarray, params: np.ndarray) -> np.ndarray:
    d = _segment_distances(samples)
    return np.add.reduce(d * d / (params[..., 1:] - params[..., :-1]),
                         axis=-1)


def _path_norms(path: tuple) -> np.ndarray:
    """Norm, the square root of the energy, of each path of a batch
    (samples, params)."""
    return np.sqrt(_energies(*path))


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


def _concat(gamma: tuple, delta: tuple, norms: Optional[tuple] = None
            ) -> tuple:
    """concat_min of matching rows of two batches of paths, each batch
    (samples, params) with one leading axis; returns the same pair.
    norms, when given, holds the factors' _path_norms, which the caller
    already has.  Two constant factors get the junction s = 1/2."""
    # the junction rows must be the same point, as ProjPoint.equals
    # tests, so the phase of the second factor can always be aligned
    z = _dots(delta[0][:, 0].conj(), gamma[0][:, -1])
    pairing = np.abs(z)
    _require(pairing > 1.0 - _UNIT_TOL,
             "paths do not share the junction point")
    f1, f2 = norms or (_path_norms(gamma), _path_norms(delta))
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
    additive; the junction rows must be the same point (equals), and
    the second factor is turned by the phase of their pairing.
    Two constant factors leave the junction undetermined; the
    convention s = 1/2 is used."""
    pts, t = _concat(*((p.samples[None], p.params[None])
                       for p in (gamma, delta)))
    return DiscretePath(samples=pts[0], params=t[0])


# ---------------------------------------------------------------------------
# Vertical half-circles


def _half_circles(r: np.ndarray, u: np.ndarray, theta: np.ndarray,
                  samples: int) -> tuple:
    """half_circle from each real unit row of r along the matching row
    of u by the matching angle: (samples, params), samples on axis 1;
    params is one read-only row of breakpoints broadcast to every path.
    A non-finite angle is refused before any arithmetic."""
    if samples < 2:
        raise ValueError("need at least two samples")
    _require(np.isfinite(theta), "angles must be finite")
    _require((_norm_defects(u.imag, 0.0) <= _REAL_TOL)
             & (_norm_defects(u) <= _UNIT_TOL),
             "half-circle direction must be a real unit tangent")
    _require_tangent(r, u)
    # c and s: cos and sin of half of theta reduced mod pi, each a column;
    # math.remainder, the IEEE remainder numpy lacks, reduces pi to exactly
    # 0 and sends a tie (an odd multiple of pi/2) to the even quotient
    half = 0.5 * np.array([math.remainder(a, math.pi)
                           for a in theta.tolist()])[:, None]
    c, s = np.cos(half), np.sin(half)
    t = np.linspace(0.0, 1.0, samples)
    # w = e^(-i pi t), conjugated where theta < 0: the turn by w about the
    # midpoint c r + s u bends every arc towards Im(conj(a) b) >= 0
    w = np.cos(math.pi * t) - 1j * np.copysign(1.0, half) * np.sin(math.pi * t)
    pts = ((c * c + s * s * w)[..., None] * r[:, None]
           + (c * s * (1.0 - w))[..., None] * u.real[:, None])
    _check_paths(pts, t)
    return pts, np.broadcast_to(t, pts.shape[:2])


def half_circle(x: ProjPoint, u: TangentVector, theta: float,
                samples: int = 48) -> DiscretePath:
    """Vertical half-circle from x to exp_x(theta * u), traversed at
    constant speed.

    The complex line spanned by the real representative r of x and the
    real unit tangent u is a round sphere of radius 1/2.  With theta
    reduced modulo pi into [-pi/2, pi/2], c = cos(theta/2) and
    s = sin(theta/2), the unitary of the line that fixes the geodesic
    midpoint m = c r + s u and multiplies -s r + c u by a phase w turns
    the sphere by arg w about m.  The path is the orbit of x under
    w = e^(-i pi t) (conjugated for theta < 0), the sample at t being

        (c^2 + s^2 w) r + c s (1 - w) u:

    half a turn about m, along the circle whose diameter is the chord
    from x to cos(theta) r + sin(theta) u, through the half of the
    sphere where Im(conj(a) b) >= 0 for the coefficients a of r and b
    of u.  Its norm is (pi/2) sin|theta|.  Nothing is divided, so no
    angle needs its own case: theta = 0 (mod pi) gives the constant
    path at r, and a non-finite theta raises ValueError.
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
    return geodesic(x, u, math.remainder(theta, math.pi))


# ---------------------------------------------------------------------------
# Random sampling


def _gaussians(rng: np.random.Generator, ns: np.ndarray, width: int
               ) -> np.ndarray:
    """A standard normal row of n + 1 entries for each n of the sorted
    ns, zero-padded to width: one draw for each run of equal n, n
    ascending."""
    g = np.zeros((len(ns), width))
    lo, hi = int(ns[0]), int(ns[-1]) + 1
    bounds = np.searchsorted(ns, np.arange(lo, hi + 1)).tolist()
    for n, start, stop in zip(range(lo, hi), bounds, bounds[1:]):
        if stop > start:
            g[start:stop, :n + 1] = rng.standard_normal((stop - start, n + 1))
    return g


def _points(rng: np.random.Generator, ns: np.ndarray) -> np.ndarray:
    """Random real points of the sorted dimensions ns as complex unit
    rows, zero-padded to the widest (_gaussians); one row is
    random_real_point's draw."""
    return _unit_rows(_gaussians(rng, ns, ns[-1] + 1)).astype(complex)


def random_real_point(n: int, rng: np.random.Generator) -> ProjPoint:
    if n < 1:
        raise ValueError("n must be >= 1")
    return ProjPoint(_points(rng, np.array([n]))[0])


def _tangents(r: np.ndarray, rng: np.random.Generator,
              ns: Optional[np.ndarray] = None) -> np.ndarray:
    """A random real unit tangent at each real unit row of r, of the
    sorted dimensions ns (every row's width less one unless given; the
    rest is zero padding): a normal draw (_gaussians) projected off r,
    drawn again while the projection is shorter than _TANGENT_REDRAW,
    one block of draws for the rows left each pass.  A row of one
    coordinate has no tangent, and every projection would be 0, so it
    is refused before any draw."""
    ns = np.full(len(r), r.shape[1] - 1) if ns is None else ns
    if (ns < 1).any():
        raise ValueError("a point with fewer than two coordinates has "
                         "no tangent")
    v, norm = np.empty_like(r), np.empty(len(r))
    redraw = np.arange(len(r))
    while redraw.size:
        w = _gaussians(rng, ns[redraw], r.shape[1])
        w -= _dots(w, r[redraw])[:, None] * r[redraw]
        v[redraw], norm[redraw] = w, _row_norms(w)
        redraw = redraw[~(norm[redraw] > _TANGENT_REDRAW)]
    # the rounding left along r by one projection grows by 1/norm when
    # normalizing, which can pass the tangency tolerance when the draw
    # lay close to r; a second projection of the unit vector removes it
    v /= norm[:, None]
    v -= _dots(v, r)[:, None] * r
    u = _unit_rows(v).astype(complex)
    _require_tangent(r, u)
    return u


def _draws(rng: np.random.Generator, ns: np.ndarray, x=None) -> tuple:
    """(x, r, u): real points x of the sorted dimensions ns, zero-padded
    to the widest (drawn unless given), their real representatives r
    and random real unit tangents u there (_tangents)."""
    x = _points(rng, ns) if x is None else x
    r = _real_reps(x)
    return x, r, _tangents(r, rng, ns)


def random_real_tangent(x: ProjPoint, rng: np.random.Generator
                        ) -> TangentVector:
    r = x.real_representative()
    return TangentVector(base=ProjPoint(r), vec=_tangents(r[None], rng)[0])


def yk_parameter_count(n: int, k: int) -> int:
    """Dimension of the k-fold half-circle family: n for the base point
    plus n per half-circle (n-1 for the direction, 1 for the angle)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return (k + 1) * n


def _chains(rng: np.random.Generator, ns, thetas, counts, samples: int,
            start: Optional[np.ndarray] = None) -> list:
    """sample_yk on a batch, with the arcs in lockstep: row i takes
    n = ns[i] (ascending), counts[i] angles (more first among equal n)
    and the start row start[i], and gets the path sample_yk makes of the
    same draws, zero-padded to the widest row.  thetas is one array of
    every row's angles, row by row.  The base points, then each arc's
    directions, are drawn from rng (_draws).  Arc j runs on the rows
    with more than j angles.  Returns (arc count, rows, paths) by count,
    rows the paths' indices."""
    ns, counts = np.asarray(ns), np.asarray(counts)
    first = np.cumsum(counts) - counts
    rows, parts, path, x = np.arange(len(ns)), [], None, start
    for j in range(counts.max()):
        if path is not None:
            live = counts[rows] > j
            parts.append((j, rows[~live], tuple(a[~live] for a in path)))
            path, rows = tuple(a[live] for a in path), rows[live]
            # the next arc leaves this end (_draws takes its real
            # representative)
            x = arc[0][live, -1]
        _, r, u = _draws(rng, ns[rows], x)
        arc = _half_circles(r, u, thetas[first[rows] + j], samples)
        path = arc if path is None else _concat(path, arc)
    return [p for p in parts if len(p[1])] + [(j + 1, rows, path)]


def sample_yk(n: int, k: int, rng: np.random.Generator,
              thetas=None, samples_per_arc: int = 40,
              start: Optional[ProjPoint] = None) -> DiscretePath:
    """Random k-fold concatenation of vertical half-circles.

    Draws a real base point (or starts at the real point start), then
    repeatedly a real unit direction and an angle, concatenating with
    concat_min.  The norm never exceeds k pi/2, with equality when
    every angle is pi/2.  thetas, when given, holds the k angles; a
    non-finite one raises ValueError.
    """
    # the family's range of n and k, which yk_parameter_count checks
    yk_parameter_count(n, k)
    if start is not None and start.ambient_dim != n + 1:
        raise ValueError(f"start point does not lie in dimension n={n}")
    if thetas is None:
        thetas = rng.uniform(0.0, 0.5 * math.pi, size=k)
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    if thetas.shape != (k,):
        raise ValueError(f"need exactly {k} angles")
    [(_, _, (pts, t))] = _chains(
        rng, [n], thetas, [k], samples_per_arc,
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
    return TangentVector(base=ProjPoint(r), vec=_skew(r, which))


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


def _critical_configuration(x: np.ndarray, u: np.ndarray, k: int
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Base samples (segments+1, n+1) and frames (segments+1, n+1, 2n)
    of the level-k critical configuration at x and u, real arrays.

    The samples lie on the geodesic p(s) = cos s x + i sin s u that
    leaves the real point x in the purely imaginary direction i u (u a
    real unit tangent at x), evenly spaced over arclength k pi / 2.
    The geodesic stays in the complex line of x and u, so one real
    orthonormal basis E of the complement of that line is normal to it
    everywhere.  Each frame is [f, E] and i times it, with f = p'(s)
    inside and, at the two endpoints r (made real by one _real_reps
    call), the unit vector w of span(x, u) orthogonal to r; [w, E] is
    the real frame of the real locus, listed second in the first frame.
    """
    n = len(x) - 1
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
    frames[0] = np.concatenate([frames[0, :, n:], frames[0, :, :n]], axis=1)
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
    off-diagonal blocks (segments, 2n, 2n).  The gradient is cut to the
    real locus by the view [n:-n], as _hessian_matrix cuts the matrix."""
    segments, n = len(base) - 1, frames.shape[2] // 2
    pf = np.concatenate([base[..., None], frames], axis=2)
    m = pf[:-1].swapaxes(1, 2) @ pf[1:].conj()
    a, beta, gamma = m[:, 0, 0], m[:, 1:, 0], m[:, 0, 1:]
    a2, ac = np.abs(a) ** 2, a.conj()[:, None]
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
                 + ac[..., None] * m[:, 1:, 1:]).real
    off = segments * (d2 * (cs[..., None] * ct[:, None]) - d1 * cst)
    return grad.ravel()[n:-n], diag, off


def _hessian_matrix(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The dim x dim Hessian, dim = 2n * segments: the band written as
    blocks of the square over every sample's 2n coordinates, then cut
    to the real locus by the view [n:-n, n:-n]."""
    samples, width = diag.shape[:2]
    blocks = np.zeros((samples, width) * 2)
    j = np.arange(samples)
    blocks[j, :, j] = diag
    blocks[j[:-1], :, j[1:]] = off
    blocks[j[1:], :, j[:-1]] = off.swapaxes(1, 2)
    n = width // 2
    return blocks.reshape(samples * width, -1)[n:-n, n:-n]


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
    discrete energy is exactly critical there, which is verified before
    the Hessian is used (else GradientCheckError).  There |grad E| is
    rounding error: sample j sits at arclength j k pi / (2 segments),
    below segments, whose rounding moves it by up to eps * segments,
    and a sample's displacement enters the gradient times segments; so
    the guard bounds |grad E| by _GRAD_TOL * eps * segments^2.  rng
    draws the real point and the direction; the frames are read off the
    geodesic (_critical_configuration), and any other orthonormal
    frames give an orthogonally congruent Hessian.

    Sample p moves to (p + F s) / |p + F s| along the real coordinates
    s of its frame F.  Every frame column is orthonormal and real-
    orthogonal to its sample, so |p + F s|^2 = 1 + |s|^2, and the
    segment from p to q has energy N g(1 - c) with N = segments,
    g(u) = arcsin^2(sqrt u) and, with v = (1, s) and w = (1, t),

        c = |v^T m w|^2 / (|v|^2 |w|^2),  m = [p F]^T conj([q G]).

    At s = t = 0, m's blocks are a = <p, q> = m_00, beta = F^T conj(q)
    below it, gamma = G^H p beside it and D = F^T conj(G):

        grad c   = 2 Re(conj(a) beta), 2 Re(conj(a) gamma)
        c_ss     = 2 Re(beta beta^H) - 2 |a|^2 I  (c_tt alike, gamma)
        c_st     = 2 Re(beta gamma^H + conj(a) D)

    and the chain rule gives grad = -N g' grad c and
    Hessian = N (g'' grad c grad c^T - g' Hess c), with g' and g'' from
    _segment_slopes.  _bands evaluates these for every segment at once
    on a leading axis, m in one batched product; each segment adds its
    blocks to the samples at its two ends, so the Hessian is block
    tridiagonal, and _hessian_matrix writes the band straight into the
    dense matrix.  The first frame lists i [w, E] before [w, E], so the
    slice [n:-n] keeps each endpoint's real frame.  Every entry is
    exact up to rounding.  A matrix past _MAX_HESSIAN_DIM raises
    HessianSizeError before anything of its size is allocated.

    Eigenvalues below -tau count toward the index, those within tau of
    zero toward the nullity, where tau = 64 * dim * eps * scale and
    scale is the spectral radius: a multiple of the backward error of
    the symmetric eigensolver, which dominates the few roundings of
    each assembled entry.  Expected: (0, n) for k = 0 and
    (1 + (k-1)n, 2n - 1) for k >= 1.  Measured over n = 1..3 with
    k = 0..5, n = 5 with k = 4, and n = 1..4 with k = 12 and 30 (seeds
    0 to 2), the null eigenvalues stay below 8.0e-16 * scale, at most
    1.1e-3 * tau, and the smallest non-null eigenvalue, 2.3 to
    2.5 * scale / segments^2 for k >= 1, stays above 1.1e7 * tau
    (1.6e-4 * scale at k = 30, n = 4).  Over n <= 2, k <= 2 and seeds
    0 to 2 the eigenvalues agree within 5.9e-8 * scale (n = 2, k = 0,
    seed 2) with a finite-difference Hessian of the energy at step
    h = 1e-4: (E(h) - 2 E0 + E(-h)) / h^2 on the diagonal and, off it,
    (E(h,h) + E(-h,-h) + 2 E0 - the four single steps) / (2 h^2).
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    segments = _segment_count(k)
    dim = 2 * n * segments
    if dim > _MAX_HESSIAN_DIM:
        raise HessianSizeError(
            f"the second variation at n={n} k={k} has dimension {dim}, "
            f"past the dense limit {_MAX_HESSIAN_DIM}")
    x, _, u = _draws(rng or np.random.default_rng(0), np.array([n]))
    grad, diag, off = _bands(*_critical_configuration(x[0].real, u[0].real, k))
    gnorm = float(np.linalg.norm(grad))
    if not gnorm < _GRAD_TOL * np.finfo(float).eps * segments ** 2:
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


def _trial_blocks(trials: int, seed: int, arcs: int = 0):
    """The trials _TRIAL_BLOCK at a time, as (ns, counts, rng): block b
    draws all its inputs as arrays from rng = default_rng([0, b, seed]),
    first the dimensions n in 1..3, then for a chain suite (arcs > 0)
    the arc counts in 1..arcs, else 0s.  A block lists its trials by n,
    then by count, most first, in trial order among equal pairs, as
    _chains takes them."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    for b, start in enumerate(range(0, trials, _TRIAL_BLOCK)):
        rng = np.random.default_rng([0, b, seed])
        size = min(_TRIAL_BLOCK, trials - start)
        ns = rng.integers(1, 4, size)
        counts = (rng.integers(1, arcs + 1, size) if arcs
                  else np.zeros(size, int))
        order = np.lexsort((-counts, ns))
        yield ns[order], counts[order], rng


def _block_items(trials, seed, arcs, errors, checks) -> list:
    """A CheckItem per (name, detail) of checks: its largest error in the
    arrays errors(ns, counts, rng) yields per block, against _CHECK_TOL."""
    worst = -math.inf
    for block in _trial_blocks(trials, seed, arcs):
        for part in errors(*block):
            worst = np.maximum(worst, [np.max(e) for e in part])
    return [CheckItem(name, w < _CHECK_TOL, f"{detail} {w:.3e}")
            for (name, detail), w in zip(checks, worst.tolist())]


def _report(name, trials, items) -> CheckReport:
    """A sampling suite's report, titled with its trials and _CHECK_TOL."""
    return CheckReport(
        f"{name} ({trials} trials, tolerance {_CHECK_TOL:.1e})", tuple(items))


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


def _concat_errors(ns, counts, rng):
    """concat_check's two errors of a block, a part at a time."""
    # angles stay above 0.05 because the concatenation error grows like
    # 3e-15 / (smallest factor norm): arccos distances lose precision on
    # short segments.  Measured: with sample_yk's default uniform(0,
    # pi/2) angles, 30 000 trials (seed 0) gave a worst error of 4.8e-10
    # at factor norm 5.1e-6; with b at angle 1e-6, 300 trials (seed 0)
    # give up to 3.1e-9, past _CHECK_TOL.  With the floor, seeds 0-149 at
    # 200 trials give a worst of 5.5e-14.
    lo, hi = 0.05, 0.5 * math.pi
    parts = _chains(rng, ns, rng.uniform(lo, hi, counts.sum()), counts, 12)
    end = np.empty((len(ns), ns[-1] + 1), complex)
    for _, rows, a in parts:
        end[rows] = a[0][:, -1]
    # b, then c, on the whole block, each with its norms
    bc, one = [], np.ones(len(ns), int)
    for _ in range(2):
        [(_, _, path)] = _chains(rng, ns, rng.uniform(lo, hi, len(ns)), one,
                                 12, end)
        bc.append((path, _path_norms(path)))
        end = path[0][:, -1]
    # each row rounds alone, so b.c is built once and sliced per part
    (b, fb), (c, fc) = bc
    b_c = _concat(b, c, (fb, fc))
    bc.append((b_c, _path_norms(b_c)))
    for _, rows, a in parts:
        (b, fb), (c, fc), (b_c, fbc) = (
            (tuple(x[rows] for x in p), f[rows]) for p, f in bc)
        fa = _path_norms(a)
        ab = _concat(a, b, (fa, fb))
        fab = _path_norms(ab)
        left = _concat(ab, c, (fab, fc))
        right = _concat(a, b_c, (fa, fbc))
        yield np.abs(fab - fa - fb), np.abs(left[1] - right[1])


def concat_check(trials: int, seed: int = 0) -> CheckReport:
    """Norm additivity and associativity of concat_min on chains of
    half-circles: a of one or two arcs, b and c of one arc each, each
    starting where the previous one ends.  A block chains a once, which
    yields a part per arc count, then b and c once each on every row,
    from a's end rows in block order; each part's rows of b and c are
    concatenated with its a.  A block draws the angles of every a,
    then the a chains, then b's angles and chains, then c's."""
    return _report("concatenation", trials, _block_items(
        trials, seed, 2, _concat_errors,
        [("norm is additive", "worst error"),
         ("associativity breakpoints agree", "worst error")]))


def _halfcircle_rows(ns: np.ndarray, rng: np.random.Generator) -> tuple:
    """halfcircle_check's five measured errors of each trial of a block,
    its dimensions ns and generator as _trial_blocks yields them."""
    # the geodesic leaving in the normal direction i u returns to the
    # real locus every quarter period (arclengths 0..4), alternating the
    # two points, and recurs after pi (0.3 against 0.3 + pi); compare
    # pairings, not arccos distances, which amplify roundoff
    arclengths = [k * math.pi / 2 for k in range(5)] + [0.3, 0.3 + math.pi]
    x, r, u = _draws(rng, ns)
    theta = rng.uniform(-math.pi, math.pi, len(ns))
    hc, t = _half_circles(r, u, theta, 48)
    # geodesics have period pi, and a pairing modulus ignores the sign
    end = _geodesics(x, u, theta)
    basis = np.stack([r.astype(complex), u], axis=1)
    # each sample's distance from the line
    off_line = np.max(np.abs(hc @ basis.conj().transpose(0, 2, 1) @ basis
                             - hc), axis=(1, 2))
    # i u is tangent at x: |<x, i u>| = |<x, u>|, bounded by _tangents
    g = _geodesics(x[:, None], 1j * u[:, None], arclengths)
    c = np.abs(_dots(x.conj()[:, None], g[:, :5]))
    return (1.0 - np.abs(_dots(hc[:, -1].conj(), end)),
            _path_norms((hc, t)) - 0.5 * math.pi,
            off_line,
            np.maximum(0.0, np.maximum(np.max(1.0 - c[:, 0::2], axis=1),
                                       np.max(c[:, 1::2], axis=1))),
            1.0 - np.abs(_dots(g[:, 5].conj(), g[:, 6])))


def halfcircle_check(trials: int, seed: int = 0) -> CheckReport:
    """Invariants of half_circle and of the geodesic leaving the real
    locus in a normal direction, plus where the norm peaks over a grid
    of angles."""
    items = _block_items(
        trials, seed, 0, lambda ns, _, rng: [_halfcircle_rows(ns, rng)],
        [(name, "worst") for name in (
            "endpoint matches the geodesic construction",
            "norm never exceeds a quarter circumference",
            "samples stay on the spanned line",
            "quarter-period antipode distances",
            "period-pi recurrence")])
    # the closed form (pi/2) sin|theta| peaks at both ends of the grid,
    # which tie up to roundoff; the nearest other grid point is about
    # 7.7e-4 lower
    grid = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 101)
    _, r, u = _draws(np.random.default_rng([1, 0, seed]), np.array([2]))
    arcs, t = _half_circles(np.repeat(r, grid.size, axis=0),
                            np.repeat(u, grid.size, axis=0), grid, 48)
    peak = float(grid[int(np.argmax(_path_norms((arcs, t))))])
    step = float(grid[1] - grid[0])
    items.append(CheckItem(
        f"norm peaks at theta = {peak:+.4f}",
        abs(abs(peak) - 0.5 * math.pi) <= step,
        f"within a grid step of the quarter turn {0.5 * math.pi:.4f}"))
    return _report("half-circles", trials, items)


def yk_check(trials: int, seed: int = 0) -> CheckReport:
    """Norm bound of the k-fold half-circle family, its right-angle
    samples at the critical norm, and the skew-pairing triple at n = 3."""
    items = _block_items(trials, seed, 3, lambda ns, counts, rng: (
        (_path_norms(path) - k * 0.5 * math.pi,)
        for k, _, path in _chains(
            rng, ns, rng.uniform(0.0, 0.5 * math.pi, counts.sum()), counts,
            16)),
        [("norm stays below k quarter-turns", "worst excess")])
    # right-angle samples, rows n = 1, 2, 3 of one chain drawn from one
    # generator, whose paths come in that order: the worst error over
    # seeds 0-199 is 6.8e-13
    for k, rows, path in _chains(
            np.random.default_rng([1, 0, seed]), [1, 2, 3],
            np.full(7, 0.5 * math.pi), [2, 2, 3], 40):
        for n, norm in zip(rows + 1, _path_norms(path).tolist()):
            err = abs(norm - k * 0.5 * math.pi)
            items.append(CheckItem(
                f"right-angle sample n={n} k={k} reaches the critical norm",
                err < _CHECK_TOL, f"error {err:.3e}; family dimension "
                f"(k+1)n = {yk_parameter_count(n, k)}"))
    r = _real_reps(_points(np.random.default_rng([1, 1, seed]),
                           np.full(20, 3)))
    triple = np.stack([_skew(r, w) for w in ("J1", "J2", "J3")], axis=1)
    gram = _dots(triple[:, :, None], triple[:, None])
    gram_ok = bool(np.max(np.abs(gram - np.eye(3))) < _UNIT_TOL
                   and np.max(np.abs(_dots(triple, r[:, None]))) < _UNIT_TOL)
    items.append(CheckItem(
        "skew-pairing triple is orthonormal and tangent (n=3)", gram_ok))
    return _report("iterated half-circles", trials, items)
