"""Strictly convex cones and the coconvex bodies carved out of them.

A coconvex body is the closure of C minus K, where C is a full-dimensional
strictly convex polyhedral cone and K is a convex set inside C whose
recession cone is all of C.  The body itself is never materialized as a
single convex object; it is carried as the (cone, complement) pair and
measured through one truncation by a level set of the cone's certificate
xi: co_volume(A) = vol(C cut at level t) minus vol(K cut at level t), with
t one past the largest xi-value over K's vertices.  The cone sector cut at
level 1 has volume sector_constant(C), and at level t, c * t^d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dd import cone_extreme_rays
from .errors import (
    ComplementNotCompact,
    ComplementNotInCone,
    ConeMismatch,
    DimensionMismatch,
    EmptyInterior,
    InvalidTruncation,
    NotFullDimensional,
    NotStrictlyConvex,
)
from .linalg import dot, primitive_integer
from .polytope import (
    Halfspace,
    Polyhedron,
    _lattice_scaled,
    _maximal_masks,
    _sorted_halfspaces,
    clip,
    contains,
    dd_convert,
    minkowski_sum,
    volume,
)
from .rational import Rat, ZERO


@dataclass(frozen=True)
class Cone:
    """Full-dimensional strictly convex cone with a positivity certificate.

    xi is an integer functional with xi . r > 0 for every ray, which
    witnesses strict convexity and makes every truncation {xi <= t} bounded.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    xi: tuple[int, ...]
    # Extreme rays of the dual cone, primitive and sorted, as `make_cone`
    # found them; outside equality, hashing and repr.
    duals: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)


@dataclass(frozen=True)
class CoconvexBody:
    """closure(cone minus complement), stored as the pair itself."""

    cone: Cone
    complement: Polyhedron


def make_cone(rays) -> Cone:
    """Validate and canonicalize a cone from ray generators, in one DD pass.

    The pass takes the generators as constraint rows and returns the
    extreme rays of the dual cone, which the cone carries (`Cone.duals`).
    The certificate functional is their sum, which is interior to the dual
    exactly when the cone is strictly convex and full-dimensional.  The
    canonical rays are then read off incidence, the dual of
    `polytope.convex_hull`: the pass also returns each generator's set of
    dual rays vanishing on it, and a distinct primitive generator spans an
    extreme ray exactly when no other generator's set strictly contains
    its own.
    """
    rays = list(rays)
    if not rays:
        raise NotFullDimensional("a cone needs at least one ray")
    dim = len(rays[0])
    prim = []
    for r in rays:
        if len(r) != dim:
            raise DimensionMismatch("ray of wrong length")
        p = primitive_integer(r)
        if all(c == 0 for c in p):
            raise NotStrictlyConvex("zero vector is not a ray")
        prim.append(p)
    dual_rays, dual_lin, incidence = cone_extreme_rays(prim, dim)
    xi = [0] * dim
    for y in dual_rays:
        for j in range(dim):
            xi[j] += y[j]
    xi = primitive_integer(xi)
    if any(dot(xi, r) <= 0 for r in prim):
        raise NotStrictlyConvex("cone contains a line")
    if dual_lin:
        raise NotFullDimensional("rays do not span the ambient space")
    # equal generators share one mask
    masks = dict(zip(prim, incidence))
    maximal = _maximal_masks(masks.values())
    canonical = [r for r in sorted(masks) if masks[r] in maximal]
    return Cone(dim, tuple(canonical), xi, tuple(dual_rays))


def cone_polyhedron(cone: Cone) -> Polyhedron:
    """The cone as a V-form polyhedron with apex at the origin, carrying its
    facets -y . x <= 0, one per extreme ray y of the dual cone."""
    facets = _sorted_halfspaces(Halfspace(tuple(-c for c in y), 0) for y in cone.duals)
    return Polyhedron(cone.dim, ((ZERO,) * cone.dim,), cone.rays, facets)


def truncation_threshold(complement: Polyhedron, xi) -> Rat:
    """Largest xi-value over the complement's vertices.

    Every point of the carved-out region has xi-value at most this level,
    so any strictly larger cutoff captures the whole region.  Scaled onto
    the lattice, the vertices give integer dot products and one Rat.
    """
    L, scaled = _lattice_scaled(complement.vertices)
    return Rat(max(dot(xi, v) for v in scaled), L)


def _check_cutoff(complement: Polyhedron, xi, t) -> None:
    """t clears the complement's vertices, so the cut keeps the whole
    carved-out region."""
    if t <= truncation_threshold(complement, xi):
        raise InvalidTruncation("cutoff does not clear the complement's vertices")


def make_coconvex(cone: Cone, complement: Polyhedron) -> CoconvexBody:
    """Validate the (cone, complement) pair as a genuine coconvex body.

    Checks, in order: the complement sits inside the cone; its recession
    cone is the whole cone; every cone ray eventually enters the
    complement, which certifies the carved-out region is bounded; and the
    region has positive volume.  With the first two, K = conv(V) + C, so
    C minus K is empty exactly when K = C and is otherwise a non-empty
    relatively open part of the full-dimensional C.
    """
    if complement.dim != cone.dim:
        raise DimensionMismatch("cone and complement dimensions differ")
    if not contains(cone_polyhedron(cone), complement):
        raise ComplementNotInCone("complement is not contained in the cone")
    if complement.rays != cone.rays:
        raise ComplementNotCompact("recession cone of the complement differs from the cone")
    for h in dd_convert(complement):
        for r in cone.rays:
            pairing = dot(h.normal, r)
            if pairing > 0 or (pairing == 0 and h.bound < 0):
                raise ComplementNotCompact(
                    "a cone ray never enters the complement; the region is unbounded"
                )
    if complement == cone_polyhedron(cone):
        raise EmptyInterior("region between cone and complement has volume zero")
    return CoconvexBody(cone, complement)


def sector_constant(cone: Cone):
    """Volume of the cone sector at level 1; homogeneity gives c * t^d."""
    return volume(clip(cone_polyhedron(cone), Halfspace.make(cone.xi, 1)))


def co_volume(body: CoconvexBody):
    """Exact volume of the carved-out region: the cone sector minus the
    complement, both cut at one past the complement's threshold."""
    xi = body.cone.xi
    cut = Halfspace.make(xi, truncation_threshold(body.complement, xi) + 1)
    return volume(clip(cone_polyhedron(body.cone), cut)) - volume(clip(body.complement, cut))


def co_scale(factor, body: CoconvexBody) -> CoconvexBody:
    """Dilate by a positive rational; the cone is unchanged and validity
    is preserved, so the scaled pair is assembled directly."""
    return CoconvexBody(body.cone, body.complement.scale(factor))


def co_sum(a: CoconvexBody, b: CoconvexBody) -> CoconvexBody:
    """Coconvex addition: Minkowski-add the complements over a shared cone.
    Only the cone is checked: the summands were validated by make_coconvex
    when built, and a sum of coconvex bodies over one cone is coconvex."""
    if a.cone != b.cone:
        raise ConeMismatch("coconvex addition needs one shared cone")
    return CoconvexBody(a.cone, minkowski_sum(a.complement, b.complement))
