"""The two-pass hull and the facet scan from vertices, kept as test oracles.

`_canonical_from_generators` is the hull that the one-pass hull in
`coconvex.polytope` replaced: a double description pass from generators to
facets, then a second pass from those facets back to the extreme rays of
the homogenization cone.  It reads the vertices and rays off the second
pass instead of off incidence, and carries the facets of its first pass.
Differential tests require both to return the identical polyhedron with
the same facets, or the same `NotPointed`.

`facets` is the conversion from vertices and rays to facets that
`polytope.dd_convert` ran for a body that carried none, before every body
carried its own: one DD pass on the homogenized generators.  Differential
tests require every body a factory builds to carry exactly these facets.
"""

from __future__ import annotations

from coconvex.dd import cone_extreme_rays
from coconvex.errors import NotPointed
from coconvex.linalg import primitive_integer, vadd
from coconvex.polytope import Polyhedron, _halfspaces, _lattice_scaled
from coconvex.rational import Rat


def _canonical_from_generators(points, rays, dim) -> Polyhedron:
    gens = [(Rat(1),) + p for p in points]
    gens.extend((Rat(0),) + tuple(r) for r in rays)
    dual_rays, dual_lin, _ = cone_extreme_rays(gens, dim + 1)
    facets = _halfspaces(dual_rays, dual_lin)
    rows = list(dual_rays)
    for z in dual_lin:
        rows.append(z)
        rows.append(tuple(-x for x in z))
    prim_rays, prim_lin, _ = cone_extreme_rays(rows, dim + 1)
    if prim_lin:
        raise NotPointed("polyhedron contains a line")
    verts, rec = [], []
    for ray in prim_rays:
        if ray[0] > 0:
            verts.append(tuple(Rat(x, ray[0]) for x in ray[1:]))
        else:
            rec.append(ray[1:])
    return Polyhedron(dim, tuple(sorted(verts)), tuple(sorted(rec)), facets)


def facets(P):
    """Irredundant facet description of a non-empty body, from its vertices
    and rays alone; lower-dimensional input yields paired opposite
    halfspaces for each affine-hull equation."""
    L, points = _lattice_scaled(P.vertices)
    gens = [(L,) + p for p in points]
    gens.extend((0,) + r for r in P.rays)
    dual_rays, dual_lin, _ = cone_extreme_rays(gens, P.dim + 1)
    return _halfspaces(dual_rays, dual_lin)


def convex_hull(points, rays=()) -> Polyhedron:
    """`polytope.convex_hull` for valid input, on the two-pass hull."""
    dim = len(points[0])
    pts = {tuple(Rat(x) for x in p) for p in points}
    return _canonical_from_generators(pts, {primitive_integer(r) for r in rays}, dim)


def minkowski_sum(P, Q) -> Polyhedron:
    """`polytope.minkowski_sum` for nonempty summands, on the two-pass hull."""
    candidates = {vadd(p, q) for p in P.vertices for q in Q.vertices}
    return _canonical_from_generators(candidates, set(P.rays) | set(Q.rays), P.dim)
