"""Vertex-first exact polyhedra: hulls, Minkowski sums, volumes, clipping.

A Polyhedron is conv(vertices) + cone(rays) in canonical form: vertices are
exactly the extreme points, sorted lexicographically; rays are primitive
integer generators of the recession cone.  Conversion to and from facet
form goes through the homogenization cone C = cone{(1, p), (0, r)} in one
extra dimension and the double description (DD) routine of `dd`.

A hull takes one DD pass, generators to facets.  DD returns the extreme
rays of the dual cone C* inside the span V of the generators, one per
facet of C, a basis of V's orthogonal complement, one equation per basis
vector, and each generator's incidence: the set of returned rays it
vanishes on, which the DD kernel tracks as it runs.  Which generators are
extreme follows from incidence alone (the duality of Fukuda-Prodon,
"Double description method revisited", 1996).  The generators have
distinct directions, so a generator spans an extreme ray of C exactly when
no other generator lies on a strict superset of the facets through it:
faces of a pointed cone are cut out by their facets, and a face of
dimension two or more is generated by generators lying on more facets than
its relative interior does.  A generator on every facet lies in the
lineality space of C, so the polyhedron contains a line.  The facets of
that same pass ride on the body (`Polyhedron.facets`, outside equality and
hashing).  Every non-empty body carries its facets, so `dd_convert`,
`clip`, `contains`, `affine_dimension` and `volume` read them and never
run DD for them.  `scale` and `translate` map the facets of
a full-dimensional body.  A lower-dimensional body's facet normals lie in
the span of its homogenized generators, which moves with the body, so
there they run one DD pass on the moved generators instead.

Halfspaces to vertices (`dd_convert_back`, and so every `clip`) is the
dual pass.  The rows are the input halfspaces and the height row x_0 >= 0;
DD returns the extreme rays of the homogenization cone, which give the
vertices and recession rays, and each row's set of returned rays it
vanishes on.  When the body is full-dimensional, a row defines a facet
exactly when its set is maximal among all rows' sets: every facet of the
cone appears among the rows, and any other face lies on a strict subset of
a facet's rays.  Those rows, less the height row, are the facets the body
carries, so a clipped body's volume, a second `clip` of it and
`cones.make_coconvex` on it run no DD of their own.  A row that vanishes on
every ray is an implicit equation; such a lower-dimensional body gets its
facets from one more DD pass, on its vertices and rays.  In a facet tuple
an equation is an opposite pair of halfspaces, one per dimension the
affine hull lacks, which is how `affine_dimension` and `volume` tell a
lower-dimensional body.

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
volumes are determinants of integer matrices.  The term does not change
when (a, b) is scaled, so the top level can take a carried facet with its
bound times L, whose normal alone need not be primitive.  Lower levels
run no DD either: for k >= 3 the facets of a facet F are the ridges where
it meets the facets G whose shared vertex set with F is maximal, read off
the vertex-facet incidence (Bueler-Enge-Fukuda, "Exact volume computation
for polytopes", 2000), each G's row with x_j eliminated through F's
equation.  The base cases are twice the shoelace area of the planar hull
and the length max - min of a segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, lcm

from .dd import cone_extreme_rays
from .errors import (
    CoconvexError,
    DimensionMismatch,
    EmptyInput,
    NotPointed,
    UnboundedPolyhedron,
)
from .linalg import dot, primitive_integer, vadd
from .rational import Rat, ZERO, rat

# Entries kept by the bounded `volume` cache, so that memory stays flat over
# long runs such as `suite`.
CACHE_MAXSIZE = 128


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


def _sorted_halfspaces(halfspaces) -> tuple[Halfspace, ...]:
    return tuple(sorted(halfspaces, key=lambda h: (h.normal, h.bound)))


def _halfspaces(dual_rays, dual_lin) -> tuple[Halfspace, ...]:
    """Facet form from the dual cone: one halfspace per dual ray with a
    nonzero normal and an opposite pair per lineality (equation) vector."""
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
    return _sorted_halfspaces(halfspaces)


def _equations(facets) -> int:
    """How many affine-hull equations a facet tuple holds: its opposite
    pairs."""
    keys = {(h.normal, h.bound) for h in facets}
    return sum((tuple(-c for c in h.normal), -h.bound) in keys for h in facets) // 2


def _moved(P, verts, new_bound) -> "Polyhedron":
    """P's rays over new vertices, under a translation or a positive scaling,
    which keep every facet normal and move each bound to new_bound(h).

    A lower-dimensional body's facet normals lie in the span of its
    homogenized generators, which moves with the body, so it gets its
    facets from one DD pass instead.
    """
    if _equations(P.facets):
        return _hull(verts, P.rays, P.dim)
    facets = _sorted_halfspaces(Halfspace.make(h.normal, new_bound(h)) for h in P.facets)
    return Polyhedron(P.dim, verts, P.rays, facets)


@dataclass(frozen=True)
class Polyhedron:
    """Canonical V-form polyhedron; build through the factory functions."""

    dim: int
    vertices: tuple[tuple, ...]
    rays: tuple[tuple[int, ...], ...]
    # The canonical facet form, which every factory supplies: () for the
    # empty body, and for a lower-dimensional one an opposite pair per
    # affine-hull equation.  Equality, hashing and repr ignore it.
    facets: tuple[Halfspace, ...] = field(compare=False, repr=False)

    @classmethod
    def empty(cls, dim: int) -> "Polyhedron":
        return cls(dim, (), (), ())

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def is_bounded(self) -> bool:
        return not self.rays

    def translate(self, vec) -> "Polyhedron":
        vec = tuple(rat(x) for x in vec)
        if len(vec) != self.dim:
            raise DimensionMismatch("translation vector has wrong length")
        verts = tuple(vadd(v, vec) for v in self.vertices)
        # a . x <= b becomes a . x <= b + a . vec
        return _moved(self, verts, lambda h: h.bound + dot(h.normal, vec))

    def scale(self, factor) -> "Polyhedron":
        factor = rat(factor)
        if factor <= 0:
            raise CoconvexError("scale factor must be positive")
        verts = tuple(tuple(factor * x for x in v) for v in self.vertices)
        # a . x <= b becomes a . x <= factor * b
        return _moved(self, verts, lambda h: factor * h.bound)


def _as_rat_points(points, dim):
    out = []
    for p in points:
        if len(p) != dim:
            raise DimensionMismatch("point of wrong length")
        out.append(tuple(rat(x) for x in p))
    return out


def _lattice_scaled(points):
    """(L, points scaled by L): L is the lcm of the coordinate denominators,
    so the scaled points are integer tuples.  Builds no Rat."""
    L = lcm(*(int(x.denominator) for p in points for x in p))
    return L, [tuple(int(x.numerator) * (L // int(x.denominator)) for x in p) for p in points]


def affine_dimension(P: Polyhedron) -> int:
    """Dimension of the affine hull; -1 for the empty polyhedron."""
    if P.is_empty:
        return -1
    return P.dim - _equations(P.facets)


def _maximal_masks(masks) -> set[int]:
    """The masks that no other mask strictly contains."""
    distinct = set(masks)
    return {m for m in distinct if not any(o != m and m & ~o == 0 for o in distinct)}


def _canonical_from_generators(L, points, rays, dim) -> Polyhedron:
    """Canonical conv(points / L) + cone(rays), with its facets, from one DD
    pass on the homogenized generators (L, p) and (0, r).

    Points are distinct integer tuples (the points scaled by L); rays are
    distinct, nonzero and primitive.  So no two generators share a direction.
    """
    points, rays = list(points), list(rays)
    gens = [(L,) + p for p in points]
    gens.extend((0,) + r for r in rays)
    dual_rays, dual_lin, masks = cone_extreme_rays(gens, dim + 1)
    if (1 << len(dual_rays)) - 1 in masks:
        raise NotPointed("polyhedron contains a line")
    maximal = _maximal_masks(masks)
    # scaling by L > 0 keeps the lexicographic order
    verts = sorted(p for p, m in zip(points, masks) if m in maximal)
    rec = sorted(r for r, m in zip(rays, masks[len(points):]) if m in maximal)
    return Polyhedron(
        dim,
        tuple(tuple(Rat(x, L) for x in p) for p in verts),
        tuple(rec),
        _halfspaces(dual_rays, dual_lin),
    )


def _hull(points, rays, dim) -> Polyhedron:
    """Canonical conv(points) + cone(rays), with its facets, from one DD
    pass; the points are rational, the rays primitive integer tuples."""
    L, scaled = _lattice_scaled(points)
    return _canonical_from_generators(L, set(scaled), set(rays), dim)


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
    return _hull(pts, rs, dim)


def dd_convert(P: Polyhedron) -> tuple[Halfspace, ...]:
    """Irredundant facet description, the one the body carries;
    lower-dimensional input yields paired opposite halfspaces for each
    affine-hull equation."""
    if P.is_empty:
        raise EmptyInput("no facet form for the empty polyhedron")
    return P.facets


def dd_convert_back(halfspaces, dim: int) -> Polyhedron:
    """Vertex form of an intersection of halfspaces, with its facets; empty
    input set of constraints gives the whole space, which is rejected as
    unpointed."""
    rows = [(h.bound,) + tuple(-c for c in h.normal) for h in halfspaces]
    rows.append((1,) + (0,) * dim)
    rays, lineality, masks = cone_extreme_rays(rows, dim + 1)
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
    # A row on every ray is an implicit equation: the body is
    # lower-dimensional, and its facets take a DD pass of their own.
    if (1 << len(rays)) - 1 in masks:
        return _hull(verts, rec, dim)
    maximal = _maximal_masks(masks)
    facets = _halfspaces({row for row, m in zip(rows, masks) if m in maximal}, ())
    return Polyhedron(dim, tuple(sorted(verts)), tuple(sorted(rec)), facets)


def minkowski_sum(P: Polyhedron, Q: Polyhedron) -> Polyhedron:
    if P.dim != Q.dim:
        raise DimensionMismatch("summands live in different dimensions")
    if P.is_empty or Q.is_empty:
        return Polyhedron.empty(P.dim)
    LP, ps = _lattice_scaled(P.vertices)
    LQ, qs = _lattice_scaled(Q.vertices)
    L = lcm(LP, LQ)
    ps = [tuple(x * (L // LP) for x in p) for p in ps]
    qs = [tuple(x * (L // LQ) for x in q) for q in qs]
    candidates = {vadd(p, q) for p in ps for q in qs}
    rays = set(P.rays) | set(Q.rays)
    return _canonical_from_generators(L, candidates, rays, P.dim)


def clip(P: Polyhedron, halfspace: Halfspace) -> Polyhedron:
    if len(halfspace.normal) != P.dim:
        raise DimensionMismatch("halfspace of wrong dimension")
    if P.is_empty:
        return P
    return dd_convert_back(P.facets + (halfspace,), P.dim)


def contains(P: Polyhedron, Q: Polyhedron) -> bool:
    """Whether P contains Q, both canonical, exactly."""
    if P.dim != Q.dim:
        raise DimensionMismatch("containment needs equal dimensions")
    if Q.is_empty:
        return True
    if P.is_empty:
        return False
    for h in P.facets:
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


def _ridges(facets, masks, i, j):
    """The facets of F = facets[i] in its coordinates without x_j: for each
    maximal shared vertex mask, the other facet's row with x_j eliminated
    through F's equation, times the sign of F's a_j, made primitive."""
    a, b = facets[i]
    s = 1 if a[j] > 0 else -1
    shared = {masks[i] & m: g for g, m in enumerate(masks) if g != i}
    ridges = []
    for m in _maximal_masks(shared):
        n, c = facets[shared[m]]
        row = primitive_integer([s * (a[j] * x - n[j] * y) for x, y in zip(n + (c,), a + (b,))])
        ridges.append((row[:j] + row[j + 1 : -1], row[-1]))
    return ridges


def _normalized_volume(verts, k, facets) -> int:
    """k! times the k-volume of the full-dimensional hull of integer points,
    whose facets are the (normal, bound) pairs `facets`."""
    if k == 1:
        coords = [v[0] for v in verts]
        return max(coords) - min(coords)
    if k == 2:
        return _twice_polygon_area(verts)
    apex = verts[0]
    if k > 3:
        masks = [
            sum(1 << n for n, v in enumerate(verts) if dot(normal, v) == bound)
            for normal, bound in facets
        ]
    total = 0
    for i, (normal, bound) in enumerate(facets):
        height = bound - dot(normal, apex)
        if height == 0:
            continue
        j = next(t for t, c in enumerate(normal) if c != 0)
        fverts = tuple(
            v[:j] + v[j + 1 :] for v in verts if dot(normal, v) == bound
        )
        ridges = _ridges(facets, masks, i, j) if k > 3 else ()
        term, rest = divmod(abs(height) * _normalized_volume(fverts, k - 1, ridges), abs(normal[j]))
        if rest:
            raise AssertionError("lattice pyramid with a fractional normalized volume")
        total += term
    return total


@lru_cache(maxsize=CACHE_MAXSIZE)
def volume(P: Polyhedron):
    """Exact d-dimensional volume of a bounded polyhedron.

    Degenerate (lower-dimensional) input has volume zero; recession rays
    are an error.
    """
    if not P.is_bounded:
        raise UnboundedPolyhedron("volume needs a bounded polyhedron")
    if P.is_empty or _equations(P.facets):
        return ZERO
    L, points = _lattice_scaled(P.vertices)
    d = P.dim
    # LP has the carried facets at bounds L * b
    facets = [(h.normal, L * h.bound) for h in P.facets]
    return Rat(_normalized_volume(points, d, facets), factorial(d) * L**d)
