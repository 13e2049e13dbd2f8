"""The two-pass `make_cone`, kept as a test oracle.

This is the `make_cone` that the one-pass version in `coconvex.cones`
replaced: a double description pass from the generators to the dual
cone's extreme rays, then a second pass from those dual rays back to the
cone's extreme rays.  It reads the canonical rays off the second pass
instead of off incidence.  The only edits are the last line, which passes
the first pass's dual rays to the `Cone` constructor, whose `duals` field
is required, and the unpacking of the kernel's third return value.  Differential tests require both to return equal cones, or
to raise the same exception class.
"""

from __future__ import annotations

from coconvex.cones import Cone
from coconvex.dd import cone_extreme_rays
from coconvex.errors import DimensionMismatch, NotFullDimensional, NotStrictlyConvex
from coconvex.linalg import dot, primitive_integer


def make_cone(rays) -> Cone:
    """Validate and canonicalize a cone from ray generators.

    The certificate functional is the sum of the dual cone's extreme ray
    generators, which is interior to the dual exactly when the cone is
    strictly convex and full-dimensional.
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
    dual_rays, dual_lin, _ = cone_extreme_rays(prim, dim)
    xi = [0] * dim
    for y in dual_rays:
        for j in range(dim):
            xi[j] += y[j]
    xi = primitive_integer(xi)
    if any(dot(xi, r) <= 0 for r in prim):
        raise NotStrictlyConvex("cone contains a line")
    if dual_lin:
        raise NotFullDimensional("rays do not span the ambient space")
    rows = list(dual_rays)
    canonical, lin, _ = cone_extreme_rays(rows, dim)
    if lin:
        raise AssertionError("dual of a full-dimensional pointed cone degenerated")
    return Cone(dim, tuple(canonical), xi, tuple(dual_rays))
