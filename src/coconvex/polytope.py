"""Vertex-first exact polyhedra: hulls, Minkowski sums, volumes, clipping.

A Polyhedron is conv(vertices) + cone(rays) in canonical form: vertices are
exactly the extreme points, sorted lexicographically; rays are primitive
integer generators of the recession cone.  Conversion to and from facet
form goes through the homogenization cone in one extra dimension, so both
directions are the same double description computation.

Volume runs on integers.  The vertices are scaled once by L, the lcm of
their coordinate denominators, which makes P a lattice polytope LP; the
recursion then computes the normalized volume N_k = k! * vol_k of lattice
polytopes and the result is the single rational N_d / (d! * L^d).  Each
level is the facet-pyramid decomposition from the first vertex: for a
facet {a . x = b} with a primitive integer normal, projecting out a
coordinate j with a_j != 0 scales (k-1)-volume by |a_j| / |a|, which
cancels the |a| in the apex distance, so the pyramid over the facet has

    N_k(pyramid) = |b - a . apex| * N_{k-1}(projected facet) / |a_j|.

Every term is an exact integer: the pyramid and the projected facet are
lattice polytopes, and a lattice polytope's normalized volume is an
integer because it triangulates into lattice simplices, whose normalized
volumes are determinants of integer matrices.  The base cases are twice
the shoelace area of the planar hull and the length max - min of a
segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, lcm

from .dd import _gauss_jordan, cone_extreme_rays
from .errors import (
    CoconvexError,
    DimensionMismatch,
    EmptyInput,
    NotPointed,
    UnboundedPolyhedron,
)
from .linalg import dot, primitive_integer, vadd
from .rational import Rat, ZERO


@dataclass(frozen=True)
class Halfspace:
    """The region {x : normal . x <= bound}, scaled to coprime integers."""

    normal: tuple[int, ...]
    bound: int

    @classmethod
    def make(cls, normal, bound) -> "Halfspace":
        combined = primitive_integer(tuple(normal) + (bound,))
        if all(c == 0 for c in combined[:-1]):
            raise CoconvexError("halfspace normal must be nonzero")
        return cls(combined[:-1], combined[-1])

    def value(self, point):
        return dot(self.normal, point)

    def holds(self, point) -> bool:
        return self.value(point) <= self.bound


@dataclass(frozen=True)
class Polyhedron:
    """Canonical V-form polyhedron; build through the factory functions."""

    dim: int
    vertices: tuple[tuple, ...]
    rays: tuple[tuple[int, ...], ...]

    @classmethod
    def empty(cls, dim: int) -> "Polyhedron":
        return cls(dim, (), ())

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def is_bounded(self) -> bool:
        return not self.rays

    def translate(self, vec) -> "Polyhedron":
        vec = tuple(Rat(x) for x in vec)
        if len(vec) != self.dim:
            raise DimensionMismatch("translation vector has wrong length")
        return Polyhedron(self.dim, tuple(vadd(v, vec) for v in self.vertices), self.rays)

    def scale(self, factor) -> "Polyhedron":
        factor = Rat(factor)
        if factor <= 0:
            raise CoconvexError("scale factor must be positive")
        verts = tuple(tuple(factor * x for x in v) for v in self.vertices)
        return Polyhedron(self.dim, verts, self.rays)


def _as_rat_points(points, dim):
    out = []
    for p in points:
        if len(p) != dim:
            raise DimensionMismatch("point of wrong length")
        out.append(tuple(Rat(x) for x in p))
    return out


def _lattice_scaled(points):
    """(L, points scaled by L): L is the lcm of the coordinate denominators,
    so the scaled points are integer tuples.  Builds no Rat."""
    L = lcm(*(int(x.denominator) for p in points for x in p))
    return L, [tuple(int(x.numerator) * (L // int(x.denominator)) for x in p) for p in points]


def _affine_rank(points, rays, dim) -> int:
    """Dimension of the affine hull of integer points plus integer rays, by
    fraction-free elimination."""
    base = points[0]
    rows = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    rows.extend(rays)
    return len(_gauss_jordan(rows, dim)[0])


def affine_dimension(P: Polyhedron) -> int:
    """Dimension of the affine hull; -1 for the empty polyhedron."""
    if P.is_empty:
        return -1
    return _affine_rank(_lattice_scaled(P.vertices)[1], P.rays, P.dim)


def _canonical_from_generators(points, rays, dim) -> Polyhedron:
    gens = [(Rat(1),) + p for p in points]
    gens.extend((Rat(0),) + tuple(r) for r in rays)
    dual_rays, dual_lin = cone_extreme_rays(gens, dim + 1)
    rows = list(dual_rays)
    for z in dual_lin:
        rows.append(z)
        rows.append(tuple(-x for x in z))
    prim_rays, prim_lin = cone_extreme_rays(rows, dim + 1)
    if prim_lin:
        raise NotPointed("polyhedron contains a line")
    verts, rec = [], []
    for ray in prim_rays:
        if ray[0] > 0:
            verts.append(tuple(Rat(x, ray[0]) for x in ray[1:]))
        else:
            rec.append(ray[1:])
    return Polyhedron(dim, tuple(sorted(verts)), tuple(sorted(rec)))


def convex_hull(points, rays=()) -> Polyhedron:
    """Canonical hull of a point set plus optional recession generators."""
    points = list(points)
    if not points:
        raise EmptyInput("convex hull needs at least one point")
    dim = len(points[0])
    if dim < 1:
        raise DimensionMismatch("ambient dimension must be at least 1")
    pts = _as_rat_points(points, dim)
    rs = []
    for r in rays:
        if len(r) != dim:
            raise DimensionMismatch("ray of wrong length")
        p = primitive_integer(r)
        if all(c == 0 for c in p):
            raise CoconvexError("zero vector is not a ray")
        rs.append(p)
    return _canonical_from_generators(set(pts), set(rs), dim)


def _facets_of_point_set(verts, dim):
    """Facets (normal, bound) in <= form of a full-dimensional conv(verts);
    integer points give integer facets."""
    gens = [(1,) + tuple(v) for v in verts]
    dual_rays, dual_lin = cone_extreme_rays(gens, dim + 1)
    if dual_lin:
        raise AssertionError("facet scan on a degenerate point set")
    facets = []
    for y in dual_rays:
        normal = tuple(-c for c in y[1:])
        if all(c == 0 for c in normal):
            continue
        facets.append((normal, y[0]))
    return facets


def dd_convert(P: Polyhedron) -> tuple[Halfspace, ...]:
    """Irredundant facet description; lower-dimensional input yields paired
    opposite halfspaces for each affine-hull equation."""
    if P.is_empty:
        raise EmptyInput("no facet form for the empty polyhedron")
    gens = [(Rat(1),) + v for v in P.vertices]
    gens.extend((Rat(0),) + r for r in P.rays)
    dual_rays, dual_lin = cone_extreme_rays(gens, P.dim + 1)
    halfspaces = []
    for y in dual_rays:
        normal = tuple(-c for c in y[1:])
        if all(c == 0 for c in normal):
            continue
        halfspaces.append(Halfspace(normal, y[0]))
    for z in dual_lin:
        normal = tuple(-c for c in z[1:])
        halfspaces.append(Halfspace(normal, z[0]))
        halfspaces.append(Halfspace(tuple(-c for c in normal), -z[0]))
    return tuple(sorted(halfspaces, key=lambda h: (h.normal, h.bound)))


@lru_cache(maxsize=None)
def _facets_cached(P: Polyhedron) -> tuple[Halfspace, ...]:
    return dd_convert(P)


def dd_convert_back(halfspaces, dim: int) -> Polyhedron:
    """Vertex form of an intersection of halfspaces; empty input set of
    constraints gives the whole space, which is rejected as unpointed."""
    rows = [(h.bound,) + tuple(-c for c in h.normal) for h in halfspaces]
    rows.append((1,) + (0,) * dim)
    rays, lineality = cone_extreme_rays(rows, dim + 1)
    # the height row pins lineality to height zero, so a line survives the
    # homogenization only if the feasible set itself contains one
    feasible = any(r[0] > 0 for r in rays)
    if not feasible:
        return Polyhedron.empty(dim)
    if lineality:
        raise NotPointed("halfspace intersection contains a line")
    verts, rec = [], []
    for ray in rays:
        if ray[0] > 0:
            verts.append(tuple(Rat(x, ray[0]) for x in ray[1:]))
        else:
            rec.append(ray[1:])
    if not verts:
        return Polyhedron.empty(dim)
    return Polyhedron(dim, tuple(sorted(verts)), tuple(sorted(rec)))


def minkowski_sum(P: Polyhedron, Q: Polyhedron) -> Polyhedron:
    if P.dim != Q.dim:
        raise DimensionMismatch("summands live in different dimensions")
    if P.is_empty or Q.is_empty:
        return Polyhedron.empty(P.dim)
    candidates = {vadd(p, q) for p in P.vertices for q in Q.vertices}
    rays = set(P.rays) | set(Q.rays)
    return _canonical_from_generators(candidates, rays, P.dim)


def clip(P: Polyhedron, halfspace: Halfspace) -> Polyhedron:
    if len(halfspace.normal) != P.dim:
        raise DimensionMismatch("halfspace of wrong dimension")
    if P.is_empty:
        return P
    return dd_convert_back(_facets_cached(P) + (halfspace,), P.dim)


def contains(P: Polyhedron, Q: Polyhedron) -> bool:
    """Whether P contains Q, both canonical, exactly."""
    if P.dim != Q.dim:
        raise DimensionMismatch("containment needs equal dimensions")
    if Q.is_empty:
        return True
    if P.is_empty:
        return False
    for h in _facets_cached(P):
        if any(h.value(v) > h.bound for v in Q.vertices):
            return False
        if any(h.value(r) > 0 for r in Q.rays):
            return False
    return True


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _twice_polygon_area(points) -> int:
    """Twice the area of the hull of planar integer points: the shoelace sum
    over the monotone-chain hull."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return 0
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    twice = 0
    for i in range(len(hull)):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % len(hull)]
        twice += x0 * y1 - x1 * y0
    return abs(twice)


def _normalized_volume(verts, k) -> int:
    """k! times the k-volume of the full-dimensional hull of integer points."""
    if k == 1:
        coords = [v[0] for v in verts]
        return max(coords) - min(coords)
    if k == 2:
        return _twice_polygon_area(verts)
    apex = verts[0]
    total = 0
    for normal, bound in _facets_of_point_set(verts, k):
        height = bound - dot(normal, apex)
        if height == 0:
            continue
        j = next(i for i, c in enumerate(normal) if c != 0)
        fverts = tuple(
            v[:j] + v[j + 1 :] for v in verts if dot(normal, v) == bound
        )
        term, rest = divmod(abs(height) * _normalized_volume(fverts, k - 1), abs(normal[j]))
        if rest:
            raise AssertionError("lattice pyramid with a fractional normalized volume")
        total += term
    return total


@lru_cache(maxsize=None)
def volume(P: Polyhedron):
    """Exact d-dimensional volume of a bounded polyhedron.

    Degenerate (lower-dimensional) input has volume zero; recession rays
    are an error.
    """
    if not P.is_bounded:
        raise UnboundedPolyhedron("volume needs a bounded polyhedron")
    if P.is_empty:
        return ZERO
    L, points = _lattice_scaled(P.vertices)
    d = P.dim
    if _affine_rank(points, (), d) < d:
        return ZERO
    return Rat(_normalized_volume(points, d), factorial(d) * L**d)


def translate(P: Polyhedron, vec) -> Polyhedron:
    return P.translate(vec)


def scale(P: Polyhedron, factor) -> Polyhedron:
    return P.scale(factor)
