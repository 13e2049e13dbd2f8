import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cone_reference
import hull_reference
import volume_reference
from coconvex import cones, polytope
from coconvex.cones import (
    co_scale,
    co_sum,
    co_volume,
    cone_polyhedron,
    make_coconvex,
    make_cone,
    truncation_threshold,
)
from coconvex.dd import cone_extreme_rays
from coconvex.errors import (
    CoconvexError,
    ComplementNotCompact,
    ComplementNotInCone,
    ConeMismatch,
    DimensionMismatch,
    EmptyInterior,
    InvalidTruncation,
    NotFullDimensional,
    NotStrictlyConvex,
)
from coconvex.forms import (
    co_combination_body,
    combination_body,
    cs_check,
    form_apply,
    generalized_rbm_check,
    make_coconvex_family,
    make_convex_family,
    mink1_check,
    mink2_check,
    polynomial_af_forms,
    reversed_bm_check,
    reversed_cs_check,
)
from coconvex.lift import lift, lifted_body, lifted_body_materialized, verify_identity_V
from coconvex.linalg import dot
from coconvex.polynomial import HomogeneousPolynomial, fit_homogeneous, signature
from coconvex.polytope import Halfspace, clip, convex_hull, volume
from coconvex.rational import Rat


def test_make_cone_canonicalizes(quadrant):
    assert quadrant.dim == 2
    assert quadrant.rays == ((0, 1), (1, 0))
    assert all(sum(x * r for x, r in zip(quadrant.xi, ray)) > 0 for ray in quadrant.rays)


def test_make_cone_drops_redundant_rays():
    cone = make_cone([(1, 0), (1, 1), (0, 1), (2, 2)])
    assert cone.rays == ((0, 1), (1, 0))


def test_make_cone_scales_rational_rays(quadrant):
    assert make_cone([(Rat(1, 2), 0), (0, 3)]) == quadrant


def test_make_cone_rejects_bad_input():
    with pytest.raises(NotFullDimensional):
        make_cone([])
    with pytest.raises(NotFullDimensional):
        make_cone([(1, 2)])  # spans a line, not the plane
    with pytest.raises(NotStrictlyConvex):
        make_cone([(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(NotStrictlyConvex):
        make_cone([(0, 0), (1, 0)])
    with pytest.raises(DimensionMismatch):
        make_cone([(1, 0), (0, 1, 0)])


def test_cone_polyhedron(quadrant):
    P = cone_polyhedron(quadrant)
    assert P.vertices == ((0, 0),)
    assert P.rays == quadrant.rays


def test_corner_triangle_volume(corner_triangle):
    assert co_volume(corner_triangle) == Rat(1, 2)


def _truncation_difference(body, xi, t):
    """vol(C cut at {xi <= t}) - vol(K cut there): co_volume at any level t
    that clears K's vertices, for any xi positive on the cone's rays."""
    cut = Halfspace.make(xi, t)
    return volume(clip(cone_polyhedron(body.cone), cut)) - volume(clip(body.complement, cut))


def test_co_volume_is_truncation_independent(corner_triangle):
    for t in (3, 5, 100, Rat(3, 2)):
        got = _truncation_difference(corner_triangle, corner_triangle.cone.xi, t)
        assert got == co_volume(corner_triangle) == Rat(1, 2)


def test_co_volume_accepts_other_functionals(corner_triangle):
    got = _truncation_difference(corner_triangle, (3, 1), 9)
    assert got == co_volume(corner_triangle) == Rat(1, 2)


def test_truncation_threshold(corner_triangle):
    assert truncation_threshold(corner_triangle.complement, (1, 1)) == 1


@st.composite
def rational_points(draw):
    """A functional and a point set with rational coordinates, in dims 2-3."""
    dim = draw(st.integers(2, 3))
    coord = st.builds(Rat, st.integers(-9, 9), st.integers(1, 6))
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=6))
    return draw(st.tuples(*[st.integers(-4, 4)] * dim)), points


@settings(derandomize=True, max_examples=20, deadline=None)
@given(rational_points())
def test_truncation_threshold_matches_rational_dot_products(case):
    xi, points = case
    K = convex_hull(points)
    want = max(Rat(dot(xi, v)) for v in K.vertices)
    got = truncation_threshold(K, xi)
    assert got == want and type(got) is type(want)


def test_truncation_validation(corner_triangle):
    with pytest.raises(InvalidTruncation):
        cones._check_cutoff(corner_triangle.complement, (1, 1), 1)  # at the threshold
    cones._check_cutoff(corner_triangle.complement, (1, 1), Rat(3, 2))


@pytest.mark.parametrize(
    "build",
    [
        lambda square, body: square.translate((0.1, 0)),
        lambda square, body: square.scale(0.1),
        lambda square, body: square.scale(True),
        lambda square, body: Halfspace.make((0.1, 1), 1),
        lambda square, body: make_cone([(0.5, 1), (1, 0)]),
        lambda square, body: make_cone([(True, 1), (1, 0)]),
        lambda square, body: make_convex_family([_tetrahedron()] * 2, marked=[(0.1, 1)]),
        lambda square, body: combination_body(make_convex_family([square] * 2), (0.5, True)),
        lambda square, body: combination_body(make_convex_family([square] * 2), (1, True)),
        lambda square, body: co_combination_body(make_coconvex_family([body] * 2), (0.5, 1)),
        lambda square, body: lifted_body(_lifted(body), (1.5,), 100),
        lambda square, body: lifted_body(_lifted(body), (1,), 100.5),
        lambda square, body: lifted_body_materialized(_lifted(body), (1,), 100.5),
        lambda square, body: verify_identity_V(
            _lifted(body, 2), HomogeneousPolynomial(2, 2, {}), samples=[((1, 1), 100.5)]
        ),
        lambda square, body: HomogeneousPolynomial(2, 2, {(2, 0): 0.1}),
        lambda square, body: _QUADRATIC.evaluate((0.1, 1)),
        lambda square, body: _QUADRATIC.directional((True, 0)),
        lambda square, body: _QUADRATIC.scale(0.1),
        lambda square, body: signature(((0.1, 0), (0, 1))),
        lambda square, body: form_apply(_IDENTITY, (0.1, 1), (1, 1)),
        lambda square, body: form_apply(((0.5, 0), (0, 1)), (1, 0), (1, 0)),
        lambda square, body: form_apply(((True, 0), (0, 1)), (1, 0), (1, 0)),
        lambda square, body: cs_check(((0.1, 0), (0, 1)), (1, 1), (1, 0)),
        lambda square, body: cs_check(_IDENTITY, (True, 1), (1, 1)),
        lambda square, body: reversed_cs_check(((1, 0), (0, -1)), (1, 0.5), (1, 0)),
        lambda square, body: polynomial_af_forms(_CUBIC, [(0.5, 1)]),
        lambda square, body: reversed_bm_check(_QUADRATIC, (1, 1), (1, 2), 0.5),
        lambda square, body: generalized_rbm_check(_CUBIC, [(0.5, 1)], (1, 1), (1, 2)),
        lambda square, body: generalized_rbm_check(_CUBIC, [(1, 1)], (True, 1), (1, 2)),
        lambda square, body: mink1_check(_QUADRATIC, (0.5, 1), (1, 2)),
        lambda square, body: mink2_check(_QUADRATIC, (1, 1), (True, 2)),
        lambda square, body: fit_homogeneous(1, 1, [(1,), (2,)], lambda p: 0.5),
    ],
    ids=[
        "translate_float",
        "scale_float",
        "scale_bool",
        "halfspace_float",
        "cone_float_ray",
        "cone_bool_ray",
        "marked_float",
        "combination_float",
        "combination_bool",
        "co_combination_float",
        "lifted_body_float_lam",
        "lifted_body_float_t",
        "materialized_float_t",
        "identity_V_float_t",
        "polynomial_float_coeff",
        "evaluate_float",
        "directional_bool",
        "polynomial_scale_float",
        "signature_float",
        "form_apply_float",
        "form_apply_float_matrix",
        "form_apply_bool_matrix",
        "cs_check_float_matrix",
        "cs_check_bool",
        "reversed_cs_check_float",
        "af_forms_float_marked",
        "rbm_float_t",
        "grbm_float_direction",
        "grbm_bool_u",
        "mink1_float_u",
        "mink2_bool_v",
        "fit_float_value",
    ],
)
def test_constructors_refuse_floats_and_bools(unit_square, corner_triangle, build):
    # 0.1 would enter as its binary expansion, (0.5, 1) would become the ray
    # (1, 2), and True would be read as 1.  Each input is otherwise valid,
    # so the refusal is rational.rat's plain ValueError, not a domain error.
    with pytest.raises(ValueError) as err:
        build(unit_square, corner_triangle)
    assert not isinstance(err.value, CoconvexError)


_IDENTITY = ((1, 0), (0, 1))
_QUADRATIC = HomogeneousPolynomial(2, 2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
_CUBIC = HomogeneousPolynomial(2, 3, {(3, 0): 1, (2, 1): 1, (0, 3): 1})


def _tetrahedron():
    return convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def _lifted(body, n=1):
    return lift(make_coconvex_family([body] * n))


def test_corner_simplex_volume(corner_simplex):
    assert co_volume(corner_simplex) == Rat(1, 6)


def test_square_base_pyramid_region():
    cone = make_cone([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])
    K = convex_hull(
        [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], rays=cone.rays
    )
    body = make_coconvex(cone, K)
    assert co_volume(body) == Rat(2, 3)


def test_slanted_cone_body():
    cone = make_cone([(1, 0), (1, 2)])
    K = convex_hull([(1, 0), (1, 2)], rays=cone.rays)
    body = make_coconvex(cone, K)
    assert co_volume(body) == 1


def test_facet_parallel_to_cone_boundary_is_rejected():
    # the halfspace 2x - y >= 1 runs parallel to the ray (1, 2), leaving an
    # unbounded sliver between the cut and the cone boundary
    cone = make_cone([(1, 0), (1, 2)])
    K = convex_hull([(1, 0), (1, 1)], rays=cone.rays)
    with pytest.raises(ComplementNotCompact):
        make_coconvex(cone, K)


def test_complement_outside_cone_is_rejected(quadrant):
    K = convex_hull([(-1, 0), (0, 1)], rays=quadrant.rays)
    with pytest.raises(ComplementNotInCone):
        make_coconvex(quadrant, K)


def test_wrong_recession_cone_is_rejected(quadrant):
    K = convex_hull([(1, 1)], rays=[(1, 0)])
    with pytest.raises(ComplementNotCompact):
        make_coconvex(quadrant, K)


def test_zero_region_is_rejected(quadrant):
    with pytest.raises(EmptyInterior):
        make_coconvex(quadrant, cone_polyhedron(quadrant))


def test_volume_and_make_coconvex_run_no_dd_pass(monkeypatch, octant):
    # volume reads every level's facets off the carried ones, and
    # make_coconvex checks the pair with dot products and one comparison:
    # neither runs DD or clips, at any dimension.
    bodies = [
        convex_hull([(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 1), (0, 0, 2, 0),
                     (1, 0, 0, 2), (1, 1, 1, 1)]),
        convex_hull([(0, 0, 0, 0, 0), (1, 0, 0, 0, Rat(1, 2)), (0, Rat(2, 3), 0, 1, 0),
                     (Rat(-1, 2), 0, 1, 0, 0), (0, 0, Rat(1, 3), 1, 1),
                     (1, 1, 0, Rat(-1, 4), 0), (1, 1, 1, 1, 1)]),
    ]
    wants = [volume_reference.volume(P) for P in bodies]
    K = convex_hull([(1, 0, 0), (0, 2, 0), (0, 0, 1)], rays=octant.rays)
    whole = convex_hull([(0, 0, 0)], rays=octant.rays)

    def forbidden(*args):
        raise AssertionError("ran a DD pass or a clip")

    for module in (polytope, cones):
        monkeypatch.setattr(module, "cone_extreme_rays", forbidden)
        monkeypatch.setattr(module, "clip", forbidden)
    for P, want in zip(bodies, wants):
        assert volume.__wrapped__(P) == want > 0
    assert make_coconvex(octant, K).complement is K
    with pytest.raises(EmptyInterior):
        make_coconvex(octant, whole)


def test_dimension_mismatch_is_rejected(quadrant):
    K = convex_hull([(1, 0, 0)], rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(DimensionMismatch):
        make_coconvex(quadrant, K)


def test_co_scale_homogeneity(corner_triangle):
    assert co_volume(co_scale(2, corner_triangle)) == 2
    assert co_volume(co_scale(Rat(1, 2), corner_triangle)) == Rat(1, 8)


def test_co_scale_requires_positive_factor(corner_triangle):
    with pytest.raises(Exception):
        co_scale(0, corner_triangle)


def test_co_sum_doubles_the_triangle(corner_triangle):
    double = co_sum(corner_triangle, corner_triangle)
    assert set(double.complement.vertices) == {(0, 2), (2, 0)}
    assert co_volume(double) == 2
    assert co_volume(double) == co_volume(co_scale(2, corner_triangle))


def test_co_sum_in_three_dimensions(corner_simplex):
    double = co_sum(corner_simplex, corner_simplex)
    assert co_volume(double) == Rat(8, 6)


def test_co_sum_requires_shared_cone(corner_triangle):
    other_cone = make_cone([(1, 0), (1, 1)])
    K = convex_hull([(1, 0), (2, 2)], rays=other_cone.rays)
    other = make_coconvex(other_cone, K)
    with pytest.raises(ConeMismatch):
        co_sum(corner_triangle, other)


def test_region_volume_matches_direct_difference(corner_triangle):
    # same value through an unrelated slicing of the region: the region is
    # the standard unit triangle, so integrate its horizontal slices
    slices = sum(Rat(1 - Rat(k, 100), 1) for k in range(100)) / 100
    # Riemann sums bracket 1/2; the exact co_volume must sit between them
    upper = slices
    lower = slices - Rat(1, 100)
    assert lower < co_volume(corner_triangle) < upper


small = st.integers(-3, 3)


@st.composite
def ray_sets(draw):
    """Ray generators in dims 2-4.  "pointed" rays all have a positive last
    coordinate, so they span a strictly convex cone; "redundant" adds sums
    of pairs of them, "duplicate" adds rescaled copies, "rational" divides
    each by a denominator, "flat" zeroes the last coordinate (a cone that
    does not span the space) and "plain" draws any nonzero rays, whose cone
    is usually not strictly convex."""
    dim = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["pointed", "redundant", "duplicate", "rational", "flat", "plain"]))
    last = small if kind == "plain" else st.integers(1, 3)
    ray = st.tuples(*[small] * (dim - 1), last).filter(any)
    rays = draw(st.lists(ray, min_size=1, max_size=dim + 4))
    if kind == "redundant":
        rays += [tuple(a + b for a, b in zip(p, q)) for p, q in zip(rays, rays[1:])]
    elif kind == "duplicate":
        rays += [tuple(2 * c for c in r) for r in rays] + rays[:1]
    elif kind == "rational":
        rays = [tuple(Rat(c, draw(st.integers(1, 6))) for c in r) for r in rays]
    elif kind == "flat":
        rays = [r[:-1] + (0,) for r in rays if any(r[:-1])] or [(1,) + (0,) * (dim - 1)]
    return draw(st.permutations(rays))


def _cone_or_error(build, rays):
    try:
        return build(rays)
    except (NotStrictlyConvex, NotFullDimensional) as exc:
        return type(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ray_sets())
@example([(1, 0), (1, 1), (0, 1), (2, 2)])  # redundant and duplicate rays
@example([(1, 0), (-1, 0), (0, 1)])  # a half-plane: not strictly convex
@example([(1, 2), (2, 4)])  # a half-line in the plane: not full-dimensional
@example([(1, 0, 0), (-1, 0, 0)])  # a line that does not span: line wins
@example([(0, 0), (1, 0)])  # the zero vector
def test_make_cone_matches_two_pass_reference(rays):
    want = _cone_or_error(cone_reference.make_cone, rays)
    got = _cone_or_error(make_cone, rays)
    if isinstance(want, type):
        assert got is want
        return
    assert got == want and repr(got) == repr(want)
    assert got.duals == want.duals == tuple(cone_extreme_rays(got.rays, got.dim)[0])
    # the sum of the dual rays is strictly positive on the cone, which is
    # what gen_coconvex_body's cut functionals rely on
    xi = [sum(column) for column in zip(*got.duals)]
    assert all(sum(a * b for a, b in zip(xi, ray)) > 0 for ray in got.rays)
    P = cone_polyhedron(got)
    hull = convex_hull([(0,) * got.dim], rays=got.rays)
    assert P == hull and repr(P) == repr(hull)
    assert P.facets == hull_reference.facets(P) == hull.facets


def test_cones_run_one_dd_pass(monkeypatch):
    # make_cone makes one DD pass; the cone's polyhedron and its dual rays
    # are read off that pass, with none of their own.
    calls = []

    def counted(*args):
        calls.append(args)
        return cone_extreme_rays(*args)

    def forbidden(*args):
        raise AssertionError("a DD pass ran")

    monkeypatch.setattr(cones, "cone_extreme_rays", counted)
    cone = make_cone([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (0, 0, 1)])
    assert len(calls) == 1
    assert cone.rays == ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1))
    monkeypatch.setattr(cones, "cone_extreme_rays", forbidden)
    monkeypatch.setattr(polytope, "cone_extreme_rays", forbidden)
    P = cone_polyhedron(cone)
    assert P.facets is not None and len(P.facets) == 4
    assert cone.duals == ((-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1))
