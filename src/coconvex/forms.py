"""Volume polynomials, mixed volumes, and the bilinear forms built from them.

A convex family is a finite list of generator bodies; the positive orthant of
coefficient vectors maps to Minkowski combinations.  A coconvex family does
the same with complements added inside one shared cone.  Both give a
homogeneous degree-d volume polynomial, and applying directional derivatives
for the family's marked coefficient vectors (all but two of the d slots)
leaves a quadratic whose matrix is the object of every inequality here.

The convex volume polynomial has three independent routes, kept apart so
each checks the others: `volume_polynomial` reads every coefficient off one
regular triangulation of the Cayley polytope (one DD pass, no Minkowski sum
and no volume), `mixed_volume` polarizes one monomial through Minkowski
subset sums, and `volume_polynomial_interpolated` fits combination volumes
on an integer grid.

Matrix conventions, fixed once: with chain = the marked-derivative cascade of
the volume polynomial,

    B = (1/d!) * hessian(chain)      so B[i][j] pairs basis directions,
    Q = (2/d!) * hessian(chain)      the quadratic form's matrix, Q = 2B,

and the form value at u is u^T B u, which equals the chain polynomial at u
rescaled by 2/d!.  Signatures of B and Q agree since they differ by a
positive factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import islice, product
from math import comb, factorial, prod

from .cones import Cone, CoconvexBody, co_volume
from .dd import cone_extreme_rays, greedy_inverse
from .errors import (
    CoconvexError,
    ConeMismatch,
    DimensionMismatch,
    EmptyInput,
    UnboundedPolyhedron,
)
from .polynomial import (
    HomogeneousPolynomial,
    default_grid,
    fit_homogeneous,
    hessian_matrix,
)
from .polytope import Polyhedron, _lattice_scaled, affine_dimension, minkowski_sum, volume
from .rational import Rat, SplitMix64, ZERO, rat


@dataclass(frozen=True)
class ConvexFamily:
    """Generator bodies plus marked coefficient vectors (one per derivative slot)."""

    dim: int
    generators: tuple[Polyhedron, ...]
    marked: tuple[tuple, ...]


@dataclass(frozen=True)
class CoconvexFamily:
    cone: Cone
    generators: tuple[CoconvexBody, ...]
    marked: tuple[tuple, ...]
    # co_combination_body's memo, keyed by coerced lam: not an argument, and
    # outside equality, hashing and repr
    complements: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.cone.dim


def _checked_marked(marked, n: int, d: int):
    if d < 2:
        raise DimensionMismatch("families need ambient dimension at least 2")
    if marked is None:
        marked = [(1,) * n] * (d - 2)
    marked = tuple(tuple(rat(x) for x in v) for v in marked)
    if len(marked) != d - 2:
        raise DimensionMismatch(f"need exactly {d - 2} marked vectors, got {len(marked)}")
    for v in marked:
        if len(v) != n:
            raise DimensionMismatch("marked vector length differs from generator count")
        if any(x <= 0 for x in v):
            raise CoconvexError("marked vectors must have strictly positive entries")
    return marked


def make_convex_family(generators, marked=None) -> ConvexFamily:
    generators = tuple(generators)
    if not generators:
        raise EmptyInput("family needs at least one generator")
    d = generators[0].dim
    for P in generators:
        if P.dim != d:
            raise DimensionMismatch("generators of mixed ambient dimension")
        if P.rays:
            raise UnboundedPolyhedron("generators must be bounded")
        if affine_dimension(P) != d:
            raise DimensionMismatch("generators must be full-dimensional")
    return ConvexFamily(d, generators, _checked_marked(marked, len(generators), d))


def make_coconvex_family(generators, marked=None) -> CoconvexFamily:
    generators = tuple(generators)
    if not generators:
        raise EmptyInput("family needs at least one generator")
    cone = generators[0].cone
    for A in generators:
        if A.cone != cone:
            raise ConeMismatch("all generators must share one cone")
    return CoconvexFamily(cone, generators, _checked_marked(marked, len(generators), cone.dim))


def mixed_volume(bodies):
    """Fully polarized volume of d bodies in dimension d.

    Inclusion-exclusion over Minkowski subset sums.  A subset sum depends
    only on how many copies of each distinct body it takes, so a table local
    to this call maps that multiplicity key to (body, volume), and each key
    is built and measured once: a single body taken c times is its dilate
    by c (c * P = P + ... + P for convex P), whose volume is c**d times the
    body's by homogeneity, and any other key is one minkowski_sum onto the
    key with one copy fewer of its last body.  Each key's volume is
    weighted by the number of position subsets with that key.
    """
    bodies = tuple(bodies)
    if not bodies:
        raise EmptyInput("mixed volume of nothing")
    d = bodies[0].dim
    if len(bodies) != d:
        raise DimensionMismatch(f"need exactly {d} bodies in dimension {d}")
    for P in bodies:
        if P.dim != d:
            raise DimensionMismatch("body of wrong ambient dimension")
        if P.rays:
            raise UnboundedPolyhedron("mixed volume needs bounded bodies")
        if P.is_empty:
            raise EmptyInput("mixed volume of an empty body")
    distinct = list(dict.fromkeys(bodies))
    if len(distinct) == 1:
        return volume(distinct[0])
    counts = [bodies.count(P) for P in distinct]
    sums = {}

    def measured(key):
        # lexicographic order has already tabled the key this one extends
        used = [i for i, c in enumerate(key) if c]
        last = used[-1]
        P, c = distinct[last], key[last]
        if len(used) > 1:
            fewer = key[:last] + (c - 1,) + key[last + 1 :]
            body = minkowski_sum(sums[fewer][0], P)
            return body, volume(body)
        if c == 1:
            return P, volume(P)
        unit = tuple(int(i == last) for i in range(len(key)))
        return P.scale(c), c**d * sums[unit][1]

    total = ZERO
    for key in product(*(range(c + 1) for c in counts)):
        k = sum(key)
        if k:
            sums[key] = measured(key)
            term = prod(map(comb, counts, key)) * sums[key][1]
            total = total - term if (d - k) % 2 else total + term
    return total / factorial(d)


def _combination(bodies, lam) -> Polyhedron:
    """Minkowski sum of the lam-scaled bodies, zero coefficients skipped.
    Trusted: callers have checked lam against their own coefficient rule."""
    return reduce(minkowski_sum, [P.scale(x) for P, x in zip(bodies, lam) if x != 0])


def combination_body(fam: ConvexFamily, lam) -> Polyhedron:
    """Minkowski combination with nonnegative coefficients (zeros skip)."""
    lam = [rat(x) for x in lam]
    if len(lam) != len(fam.generators):
        raise DimensionMismatch("coefficient vector length differs from generator count")
    if any(x < 0 for x in lam) or all(x == 0 for x in lam):
        raise CoconvexError("coefficients must be nonnegative with at least one positive")
    return _combination(fam.generators, lam)


# volume_polynomial's lifting heights: each call draws them below
# _HEIGHT_RANGE from a fresh SplitMix64(_HEIGHT_SEED) stream, one vector per
# attempt, and gives up after _LIFT_ATTEMPTS draws.
_HEIGHT_SEED = 0xCA71E7
_HEIGHT_RANGE = 1 << 16
_LIFT_ATTEMPTS = 8


def _height_draws(count):
    """Endless height vectors of the given length from one fresh stream."""
    rng = SplitMix64(_HEIGHT_SEED)
    while True:
        yield [rng.below(_HEIGHT_RANGE) for _ in range(count)]


def volume_polynomial(fam: ConvexFamily) -> HomogeneousPolynomial:
    """Degree-d homogeneous polynomial whose value at positive lam is the
    volume of the lam-combination, from one regular triangulation of the
    Cayley polytope (the Cayley trick).

    Each generator P_i's vertices, scaled by L (the lcm of every vertex
    denominator) to integers, become the points (e_i, L v) of R^(n-1) x R^d
    with e_1 = 0 and e_i a unit vector.  Each point gets a lifting height w,
    and one DD pass runs on the upward ray (0, ..., 0, 1) and the rows
    (1, e_i, L v, w), which span the cone over the lifted Cayley polytope.
    The dual rays whose last entry is positive are the lower facets, and the
    incidence lists the points on each.  With generic heights every lower
    facet is a simplex with k_i + 1 points from P_i, sum k_i = d, and is the
    cell sum lam_i F_i of a fine mixed subdivision of every positive
    combination (Huber-Rambau-Santos, JEMS 2000), whose volume is
    lam^k |det E| / prod k_i! for E the edge vectors v - v_0 inside each
    F_i (Huber-Sturmfels, Math. Comp. 1995).  So the coefficient of lam^k is
    the sum of |det E| / (prod k_i! L^d) over the cells of type k; |det E|
    is the last pivot of `dd.greedy_inverse`.  A lower facet that is not a
    simplex redraws every height from the same stream; ArithmeticError
    after _LIFT_ATTEMPTS draws.
    """
    n, d = len(fam.generators), fam.dim
    owner = [i for i, P in enumerate(fam.generators) for _ in P.vertices]
    L, points = _lattice_scaled([v for P in fam.generators for v in P.vertices])
    unit = [tuple(int(j == i - 1) for j in range(n - 1)) for i in range(n)]
    for heights in islice(_height_draws(len(points)), _LIFT_ATTEMPTS):
        # the upward ray first, then the points by height, lowest first: on
        # seeded families DD ran 20-45% faster than on the points in vertex
        # order followed by the ray
        lifted = sorted(zip(heights, owner, points))
        rows = [(0,) * (n + d) + (1,)] + [(1, *unit[i], *p, w) for w, i, p in lifted]
        rays, _, incidence = cone_extreme_rays(rows, n + d + 1)
        cells = [
            [lifted[j] for j, mask in enumerate(incidence[1:]) if mask >> k & 1]
            for k, y in enumerate(rays)
            if y[-1] > 0
        ]
        if all(len(cell) == n + d for cell in cells):
            break
    else:
        raise ArithmeticError(f"no simplicial Cayley lifting in {_LIFT_ATTEMPTS} draws")
    totals = {}
    for cell in cells:
        groups = [[] for _ in range(n)]
        for _, i, p in cell:
            groups[i].append(p)
        edges = [[a - b for a, b in zip(v, g[0])] for g in groups for v in g[1:]]
        k = tuple(len(g) - 1 for g in groups)
        totals[k] = totals.get(k, 0) + abs(greedy_inverse(edges, d)[3])
    return HomogeneousPolynomial(
        n, d, {k: Rat(t, prod(map(factorial, k)) * L**d) for k, t in totals.items()}
    )


def volume_polynomial_interpolated(fam: ConvexFamily) -> HomogeneousPolynomial:
    """Same polynomial, independent route: exact fit of combination volumes
    on an integer grid.  Kept separate from the Cayley route on purpose so
    the two can be compared."""
    n = len(fam.generators)
    return fit_homogeneous(
        n, fam.dim, default_grid(n, fam.dim), lambda p: volume(combination_body(fam, p))
    )


def co_combination_body(fam: CoconvexFamily, lam) -> CoconvexBody:
    """Coconvex combination with strictly positive coefficients.  Only lam is
    checked: the generators were validated by make_coconvex when built, and
    such a combination over one cone is coconvex.  Built once per lam."""
    lam = tuple(rat(x) for x in lam)
    if len(lam) != len(fam.generators):
        raise DimensionMismatch("coefficient vector length differs from generator count")
    if any(x <= 0 for x in lam):
        raise CoconvexError("coconvex combinations need strictly positive coefficients")
    if lam not in fam.complements:
        fam.complements[lam] = _combination([g.complement for g in fam.generators], lam)
    return CoconvexBody(fam.cone, fam.complements[lam])


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


def derivative_chain(P: HomogeneousPolynomial, directions) -> HomogeneousPolynomial:
    for v in directions:
        P = P.directional(v)
    return P


def polynomial_af_forms(P: HomogeneousPolynomial, marked):
    """(B, Q) matrices of a degree-d volume polynomial with d-2 marked vectors."""
    marked = tuple(tuple(rat(x) for x in v) for v in marked)
    if len(marked) != P.degree - 2:
        raise DimensionMismatch(f"need exactly {P.degree - 2} marked vectors")
    for v in marked:
        if len(v) != P.nvars:
            raise DimensionMismatch("marked vector length differs from variable count")
    chain = derivative_chain(P, marked)
    hess = hessian_matrix(chain)
    unit = Rat(1, factorial(P.degree))
    b = tuple(tuple(h * unit for h in row) for row in hess)
    q = tuple(tuple(h * 2 * unit for h in row) for row in hess)
    return b, q


def af_form(fam: ConvexFamily):
    """(B, Q) of a convex family: derivative cascade for the marked vectors,
    then the hessian of the leftover quadratic, scaled by 1/d! and 2/d!."""
    return polynomial_af_forms(volume_polynomial(fam), fam.marked)


def co_af_form(fam: CoconvexFamily):
    """(B, Q) of a coconvex family, same cascade over the carved-out volume."""
    return polynomial_af_forms(co_volume_polynomial(fam), fam.marked)


def form_apply(matrix, u, v):
    """Bilinear pairing u^T M v with exact rationals (M, u, v all coerced)."""
    n = len(matrix)
    if len(u) != n or len(v) != n:
        raise DimensionMismatch("vector length differs from matrix size")
    matrix = [[rat(m) for m in row] for row in matrix]
    u = [rat(x) for x in u]
    v = [rat(x) for x in v]
    total = ZERO
    for ui, row in zip(u, matrix):
        if ui == 0:
            continue
        for vj, m in zip(v, row):
            if vj != 0:
                total = total + ui * m * vj
    return total


def cs_check(B, u, v) -> bool:
    """B(u,v)^2 <= B(u,u) B(v,v), the direction nonnegative forms satisfy."""
    return form_apply(B, u, v) ** 2 <= form_apply(B, u, u) * form_apply(B, v, v)


def reversed_cs_check(B, u, v) -> bool:
    """B(u,v)^2 >= B(u,u) B(v,v); needs B(v,v) > 0, the signature-(1,l) setting."""
    qv = form_apply(B, v, v)
    if qv <= 0:
        raise CoconvexError("reversed comparison needs a vector with positive form value")
    return form_apply(B, u, v) ** 2 >= form_apply(B, u, u) * qv


def reversed_bm_check(P: HomogeneousPolynomial, u, v, t) -> bool:
    """Convexity of the d-th root of the carved-out volume along [u, v] at
    parameter t, decided by exact root-sum comparison."""
    from .rational import compare_root_sum

    t = rat(t)
    if t < 0 or t > 1:
        raise CoconvexError("interpolation parameter must lie in [0, 1]")
    u = tuple(rat(x) for x in u)
    v = tuple(rat(x) for x in v)
    mid = tuple(t * a + (1 - t) * b for a, b in zip(u, v))
    terms = [(t, P.evaluate(u)), (1 - t, P.evaluate(v)), (Rat(-1), P.evaluate(mid))]
    return compare_root_sum(terms, P.degree) >= 0


def generalized_rbm_check(P: HomogeneousPolynomial, directions, u, v) -> bool:
    """Midpoint convexity of the (d-k)-th root of a k-fold derivative cascade.

    A negative cascade value at a sampled point counts as a failure: the
    claimed convex root function would not even be real there.
    """
    from .rational import compare_root_sum

    W = derivative_chain(P, directions)
    deg = W.degree
    if deg < 1:
        raise DimensionMismatch("cascade went below degree one")
    u = tuple(rat(x) for x in u)
    v = tuple(rat(x) for x in v)
    mid = tuple((a + b) / 2 for a, b in zip(u, v))
    wu, wv, wm = W.evaluate(u), W.evaluate(v), W.evaluate(mid)
    if wu < 0 or wv < 0 or wm < 0:
        return False
    if deg == 1:
        return 2 * wm <= wu + wv
    half = Rat(1, 2)
    return compare_root_sum([(half, wu), (half, wv), (Rat(-1), wm)], deg) >= 0


def mink1_check(P: HomogeneousPolynomial, u, v) -> bool:
    """((1/d!) L_u L_v^(d-1) P)^d <= P(u) P(v)^(d-1), all rational."""
    d = P.degree
    chain = derivative_chain(P, (u,) + (v,) * (d - 1))
    val = chain.constant() / factorial(d)
    return val**d <= P.evaluate(u) * P.evaluate(v) ** (d - 1)


def mink2_check(P: HomogeneousPolynomial, u, v) -> bool:
    """With every marked vector set to u: B(u,v)^2 <= P(u) B(v,v)."""
    B, _ = polynomial_af_forms(P, (tuple(u),) * (P.degree - 2))
    return form_apply(B, u, v) ** 2 <= P.evaluate(u) * form_apply(B, v, v)
