"""Replaced cone code, kept as test oracles: the two-pass `make_cone` and
the interpolated `co_volume_polynomial`.

This is the `make_cone` that the one-pass version in `coconvex.cones`
replaced: a double description pass from the generators to the dual
cone's extreme rays, then a second pass from those dual rays back to the
cone's extreme rays.  It reads the canonical rays off the second pass
instead of off incidence.  The only edits are the last line, which passes
the first pass's dual rays to the `Cone` constructor, whose `duals` field
is required, and the unpacking of the kernel's third return value.  Differential tests require both to return equal cones, or
to raise the same exception class.

`co_volume_polynomial` is the interpolated route that `coconvex.forms`
replaced with the Cayley polynomial of the cut family, verbatim: an exact
fit of `co_volume` over coconvex combinations on an integer grid.
Differential tests require both routes to return equal polynomials.
"""

from __future__ import annotations

from coconvex.cones import Cone, co_volume
from coconvex.dd import cone_extreme_rays
from coconvex.errors import DimensionMismatch, NotFullDimensional, NotStrictlyConvex
from coconvex.forms import CoconvexFamily, co_combination_body
from coconvex.linalg import dot, primitive_integer
from coconvex.polynomial import HomogeneousPolynomial, default_grid, fit_homogeneous


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


def co_volume_polynomial(fam: CoconvexFamily) -> HomogeneousPolynomial:
    """Degree-d polynomial matching the carved-out volume of every positive
    combination, recovered by exact interpolation on an integer grid.

    The lift machinery recovers the same polynomial from truncated convex
    volumes; the verification layer asserts the two routes agree.
    """
    n = len(fam.generators)
    return fit_homogeneous(
        n,
        fam.dim,
        default_grid(n, fam.dim),
        lambda p: co_volume(co_combination_body(fam, p)),
    )
