"""The rational facet-pyramid volume, kept as a test oracle.

This is the `Fraction`-based volume path that the integer normalized-volume
kernel in `coconvex.polytope` replaced: `affine_dimension` through the
rational `linalg.rank`, the recursion `_volume_full_dim` and the planar base
case `_convex_polygon_area`, all on `Rat` coordinates.  It scans every
level's facets with the double description kernel.  The code it checks
runs no DD pass: it reads the body's carried facets at the top level and
derives each lower level's from vertex-facet incidence, so the two share
DD only through the hull that built the body.  Differential tests require
both to return the identical `Rat`.
"""

from __future__ import annotations

from coconvex.dd import cone_extreme_rays
from coconvex.errors import UnboundedPolyhedron
from coconvex.linalg import dot, rank
from coconvex.rational import Rat, ZERO


def affine_dimension(P) -> int:
    """Dimension of the affine hull; -1 for the empty polyhedron."""
    if P.is_empty:
        return -1
    base = P.vertices[0]
    diffs = [tuple(a - b for a, b in zip(v, base)) for v in P.vertices[1:]]
    diffs.extend(P.rays)
    if not diffs:
        return 0
    return rank(diffs, P.dim)


def _facets_of_point_set(verts, dim):
    """Facets (normal, bound) in <= form of a full-dimensional conv(verts)."""
    gens = [(Rat(1),) + tuple(v) for v in verts]
    dual_rays, dual_lin, _ = cone_extreme_rays(gens, dim + 1)
    if dual_lin:
        raise AssertionError("facet scan on a degenerate point set")
    facets = []
    for y in dual_rays:
        normal = tuple(-c for c in y[1:])
        if all(c == 0 for c in normal):
            continue
        facets.append((normal, y[0]))
    return facets


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_polygon_area(points):
    pts = sorted(set(points))
    if len(pts) < 3:
        return ZERO
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
    twice = ZERO
    for i in range(len(hull)):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % len(hull)]
        twice += x0 * y1 - x1 * y0
    return abs(twice) / 2


def _volume_full_dim(verts, k):
    if k == 1:
        coords = [v[0] for v in verts]
        return Rat(max(coords) - min(coords))
    if k == 2:
        return _convex_polygon_area(verts)
    apex = verts[0]
    total = ZERO
    for normal, bound in _facets_of_point_set(verts, k):
        height = bound - dot(normal, apex)
        if height == 0:
            continue
        j = next(i for i, c in enumerate(normal) if c != 0)
        fverts = tuple(
            v[:j] + v[j + 1 :] for v in verts if dot(normal, v) == bound
        )
        total += abs(Rat(height)) * _volume_full_dim(fverts, k - 1) / abs(normal[j])
    return total / k


def volume(P):
    """Exact d-dimensional volume of a bounded polyhedron.

    Degenerate (lower-dimensional) input has volume zero; recession rays
    are an error.
    """
    if not P.is_bounded:
        raise UnboundedPolyhedron("volume needs a bounded polyhedron")
    if P.is_empty or affine_dimension(P) < P.dim:
        return ZERO
    return _volume_full_dim(P.vertices, P.dim)
