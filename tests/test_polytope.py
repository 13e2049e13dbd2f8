from itertools import product
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hull_reference
import volume_reference
from coconvex import linalg, polytope
from coconvex.errors import CoconvexError, DimensionMismatch, NotPointed, UnboundedPolyhedron
from coconvex.polytope import (
    Halfspace,
    Polyhedron,
    affine_dimension,
    clip,
    contains,
    convex_hull,
    dd_convert,
    dd_convert_back,
    minkowski_sum,
    translate,
    volume,
)
from coconvex.rational import Rat


def fan_area(vertices):
    """Area of a convex polygon by fanning triangles from the first vertex.

    Independent of the library's facet-pyramid recursion; used to pin the
    planar volumes below before they were frozen.
    """
    if len(vertices) < 3:
        return Rat(0)
    pts = sorted(vertices)
    base = pts[0]
    rest = sorted(pts[1:], key=lambda p: (Rat(p[1] - base[1]) / (p[0] - base[0]) if p[0] != base[0] else Rat(10**9), p))
    total = Rat(0)
    for a, b in zip(rest, rest[1:]):
        det = (a[0] - base[0]) * (b[1] - base[1]) - (a[1] - base[1]) * (b[0] - base[0])
        total += abs(Rat(det, 2))
    return total


def test_hull_drops_interior_and_duplicate_points():
    P = convex_hull([(0, 0), (2, 0), (0, 2), (1, 1), (0, 0), (Rat(1, 2), Rat(1, 2))])
    assert set(P.vertices) == {(0, 0), (2, 0), (0, 2)}
    assert P.rays == ()


def test_hull_requires_consistent_dimension():
    with pytest.raises(DimensionMismatch):
        convex_hull([(0, 0), (1, 2, 3)])


def test_hull_refuses_floats_and_bools():
    # 0.1 would enter as its binary expansion (a volume of
    # 32425917317067571/72057594037927936, not 9/20) and True as 1
    for points, rays in [
        ([(0.1, 0), (1, 0), (0, 1)], ()),
        ([(True, 0), (1, 0), (0, 1)], ()),
        ([(0, 0)], [(0.5, 1)]),
        ([(0, 0)], [(True, 1)]),
    ]:
        with pytest.raises(ValueError):
            convex_hull(points, rays)
    assert volume(convex_hull([("1/10", 0), (1, 0), (0, 1)])) == Rat(9, 20)


def test_polyhedron_requires_facets():
    with pytest.raises(TypeError):
        Polyhedron(2, ((Rat(0), Rat(0)),), ())


def test_empty_polyhedron():
    E = Polyhedron.empty(2)
    assert E.is_empty and E.is_bounded
    assert volume(E) == 0


def test_volume_square(unit_square):
    assert volume(unit_square) == 1
    assert volume(unit_square) == fan_area(unit_square.vertices)


def test_volume_triangle():
    T = convex_hull([(0, 0), (1, 0), (0, 1)])
    assert volume(T) == Rat(1, 2)
    assert fan_area(T.vertices) == Rat(1, 2)


def test_volume_irregular_polygon():
    verts = [(0, 0), (3, 0), (4, 2), (1, 3), (-1, 1)]
    P = convex_hull(verts)
    assert volume(P) == fan_area(P.vertices)


def test_volume_cube_and_simplex():
    cube = convex_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert volume(cube) == 1
    simplex = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert volume(simplex) == Rat(1, 6)


def test_volume_box_product_rule():
    box = convex_hull([(x, y, z) for x in (0, 2) for y in (0, 3) for z in (0, Rat(1, 2))])
    assert volume(box) == 3


def test_volume_lower_dimensional_is_zero():
    seg = convex_hull([(0, 0), (1, 1)])
    assert volume(seg) == 0
    assert affine_dimension(seg) == 1


def test_volume_unbounded_raises():
    P = convex_hull([(0, 0)], rays=[(1, 0)])
    with pytest.raises(UnboundedPolyhedron):
        volume(P)


def test_translate_and_scale(unit_square):
    moved = translate(unit_square, (Rat(5, 2), -3))
    assert volume(moved) == 1
    assert (Rat(5, 2), -3) in moved.vertices
    doubled = unit_square.scale(2)
    assert volume(doubled) == 4
    with pytest.raises(CoconvexError):
        unit_square.scale(0)


def test_dd_round_trip(unit_square):
    facets = dd_convert(unit_square)
    assert len(facets) == 4
    assert dd_convert_back(facets, 2) == unit_square


def test_dd_round_trip_unbounded():
    P = convex_hull([(1, 0), (0, 1)], rays=[(1, 0), (0, 1)])
    assert dd_convert_back(dd_convert(P), 2) == P


def test_dd_convert_back_empty():
    # x <= 0 and x >= 1 cannot both hold
    hs = [Halfspace.make((1, 0), 0), Halfspace.make((-1, 0), -1)]
    assert dd_convert_back(hs, 2).is_empty


def test_minkowski_sum_of_squares(unit_square):
    S = minkowski_sum(unit_square, unit_square)
    assert S == unit_square.scale(2)
    assert volume(S) == 4


def test_minkowski_sum_square_plus_segment(unit_square):
    seg = convex_hull([(0, 0), (1, 1)])
    S = minkowski_sum(unit_square, seg)
    # swept square: 1 from the square itself plus 2 from the parallelogram sides
    assert volume(S) == 3
    assert minkowski_sum(seg, unit_square) == S


def test_minkowski_sum_keeps_rays(unit_square):
    ray_piece = convex_hull([(0, 0)], rays=[(1, 0)])
    S = minkowski_sum(unit_square, ray_piece)
    assert S.rays == ((1, 0),)
    assert set(S.vertices) == {(0, 0), (0, 1)}


def test_clip_and_containment(unit_square):
    piece = clip(unit_square, Halfspace.make((1, 1), 1))
    assert volume(piece) == Rat(1, 2)
    assert contains(unit_square, piece)
    assert not contains(piece, unit_square)


def test_clip_to_empty(unit_square):
    assert clip(unit_square, Halfspace.make((1, 0), -1)).is_empty


def test_contains_with_rays():
    big = convex_hull([(0, 0)], rays=[(1, 0), (0, 1)])
    small = convex_hull([(1, 1)], rays=[(1, 1)])
    assert contains(big, small)
    assert not contains(small, big)


def test_halfspace_is_primitive():
    h = Halfspace.make((Rat(1, 2), Rat(1, 2)), Rat(3, 2))
    assert h.normal == (1, 1) and h.bound == 3
    with pytest.raises(CoconvexError):
        Halfspace.make((0, 0), 1)


coord = st.integers(-6, 6)
point2 = st.tuples(coord, coord)


@given(st.lists(point2, min_size=3, max_size=8))
@settings(deadline=None)
def test_volume_matches_fan_oracle(points):
    P = convex_hull(points)
    assert volume(P) == fan_area(P.vertices)


@given(st.lists(point2, min_size=3, max_size=6), st.lists(point2, min_size=3, max_size=6))
@settings(deadline=None)
def test_minkowski_volume_superadditive(ps, qs):
    P, Q = convex_hull(ps), convex_hull(qs)
    assert volume(minkowski_sum(P, Q)) >= volume(P) + volume(Q)


@given(st.lists(point2, min_size=3, max_size=8), point2)
@settings(deadline=None)
def test_volume_translation_invariant(points, shift):
    P = convex_hull(points)
    assert volume(translate(P, shift)) == volume(P)


rational_coord = st.one_of(coord, st.builds(Rat, coord, st.integers(1, 6)))


@st.composite
def point_sets(draw):
    """Point sets in dims 1-4 with mixed denominators, plus duplicated
    points or a flattening onto an affine hyperplane (degenerate input)."""
    dim = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[rational_coord] * dim), min_size=dim + 1, max_size=dim + 5))
    kind = draw(st.sampled_from(["plain", "plain", "duplicate", "flat"]))
    if kind == "duplicate":
        pts = pts + pts[: draw(st.integers(1, len(pts)))]
    elif kind == "flat":
        pts = [p[:-1] + (2 * p[0] - Rat(1, 3),) for p in pts]
    return draw(st.permutations(pts)), dim


@settings(derandomize=True, max_examples=300, deadline=None)
@given(point_sets())
@example(([(0,)], 1))  # a point
@example(([(Rat(1, 2),), (Rat(-2, 3),)], 1))  # a segment
@example(([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], 3))  # a flat square
@example(([(0, 0, 0, 0), (Rat(1, 2), 0, 0, 0), (0, Rat(1, 3), 0, 0),
           (0, 0, Rat(1, 5), 0), (0, 0, 0, Rat(1, 7)), (1, 1, 1, 1)], 4))
# d = 5: the ridges of a facet's ridges are derived from derived rows
@example((list(product((0, 1), repeat=5)), 5))  # the 5-cube
# a rational 5-simplex
@example(([(0, 0, 0, 0, 0), (1, 0, 0, 0, Rat(1, 2)), (0, Rat(2, 3), 0, 1, 0),
           (Rat(-1, 2), 0, 1, 0, 0), (0, 0, Rat(1, 3), 1, 1), (1, 1, 0, Rat(-1, 4), 0)], 5))
def test_volume_matches_rational_recursion(case):
    # The canonical hull gives the exact Rat of the Fraction-based
    # recursion, and so does the integer kernel on the lattice-scaled
    # vertices with the hull's facets at bounds L * b.
    pts, dim = case
    hull = convex_hull(pts)
    got = volume.__wrapped__(hull)
    want = volume_reference.volume(hull)
    assert got == want
    assert isinstance(got, Rat)
    assert affine_dimension(hull) == volume_reference.affine_dimension(hull)
    if affine_dimension(hull) < dim:
        return
    L, scaled = polytope._lattice_scaled(hull.vertices)
    facets = [(h.normal, L * h.bound) for h in hull.facets]
    normalized = polytope._normalized_volume(scaled, dim, facets)
    assert type(normalized) is int
    assert Rat(normalized, factorial(dim) * L**dim) == want


def test_volume_kernel_builds_no_rationals(monkeypatch):
    # Scaling, ridge rows and the recursion stay in int; the only Rat built
    # is the final N_d / (d! * L^d).
    rational_simplex = convex_hull(
        [(0, 0, 0), (Rat(1, 2), 0, 0), (0, Rat(2, 3), 0), (0, 0, Rat(3, 4))]
    )
    lattice_cube = convex_hull(list(product((0, 2), repeat=4)))
    built = []

    def recording(*args):
        built.append(args)
        return Rat(*args)

    def forbidden(*args):
        raise AssertionError("the double description kernel built a Rat")

    monkeypatch.setattr(polytope, "Rat", recording)
    monkeypatch.setattr(linalg, "Rat", forbidden)
    assert volume.__wrapped__(lattice_cube) == 16
    assert built == [(4 * 3 * 2 * 16, 4 * 3 * 2)]
    built.clear()
    assert volume.__wrapped__(rational_simplex) == Rat(1, 24)
    # L = 12: the scaled simplex has legs 6, 8, 9, so N_3 = 432
    assert built == [(432, 6 * 12**3)]
    L, scaled = polytope._lattice_scaled(lattice_cube.vertices)
    facets = [(h.normal, L * h.bound) for h in lattice_cube.facets]
    assert type(polytope._normalized_volume(scaled, 4, facets)) is int


small = st.integers(-3, 3)


@st.composite
def generator_sets(draw, dim=None):
    """Points and rays in dims 1-4: plain, with duplicated points and
    (rescaled) rays, with interior points, flattened onto an affine
    hyperplane, or with a ray and its negative (a line)."""
    if dim is None:
        dim = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[rational_coord] * dim), min_size=1, max_size=dim + 4))
    rays = draw(st.lists(st.tuples(*[small] * dim).filter(any), max_size=3))
    kind = draw(st.sampled_from(["plain", "duplicate", "interior", "flat", "line"]))
    if kind == "duplicate":
        pts = pts + pts[: draw(st.integers(1, len(pts)))]
        rays = rays + [tuple(2 * c for c in r) for r in rays]
    elif kind == "interior":
        centroid = tuple(sum(Rat(p[j]) for p in pts) / len(pts) for j in range(dim))
        pts = pts + [centroid] + [tuple((Rat(a) + b) / 2 for a, b in zip(pts[0], p)) for p in pts]
    elif kind == "flat" and dim > 1:
        pts = [p[:-1] + (2 * p[0] - Rat(1, 3),) for p in pts]
        rays = [r[:-1] + (2 * r[0],) for r in rays if any(r[:-1])]
    elif kind == "line":
        r = draw(st.tuples(*[small] * dim).filter(any))
        rays = rays + [r, tuple(-c for c in r)]
    return draw(st.permutations(pts)), draw(st.permutations(rays)), dim


@st.composite
def generator_pairs(draw):
    dim = draw(st.integers(1, 4))
    return draw(generator_sets(dim)), draw(generator_sets(dim))


def _hull_or_not_pointed(hull, pts, rays):
    try:
        return hull(pts, rays)
    except NotPointed:
        return NotPointed


def _same_body(got, want):
    # equal, and byte-identical down to the type of every coordinate
    assert got == want
    assert repr(got) == repr(want)
    assert got.facets == want.facets


@settings(derandomize=True, max_examples=250, deadline=None)
@given(generator_sets())
@example(([(0,)], [(1,), (-1,)], 1))  # the whole line
@example(([(0, 0), (1, 0)], [(1, 0)], 2))  # a half-line in the plane
@example(([(0, 0, 0)], [(1, 0, 0), (0, 1, 0), (-1, -1, 0)], 3))  # a plane
@example(([(1, 2, 3, 4)], [], 4))  # a point
def test_hull_matches_two_pass_reference(case):
    pts, rays, dim = case
    want = _hull_or_not_pointed(hull_reference.convex_hull, pts, rays)
    if want is NotPointed:
        with pytest.raises(NotPointed):
            convex_hull(pts, rays)
        return
    _same_body(convex_hull(pts, rays), want)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(generator_pairs())
@example(((([(0, 0)], [(1, 0)], 2)), (([(1, 1)], [(-1, 0)], 2))))  # opposite rays
def test_minkowski_sum_matches_two_pass_reference(case):
    (p1, r1, _), (p2, r2, _) = case
    P = _hull_or_not_pointed(convex_hull, p1, r1)
    Q = _hull_or_not_pointed(convex_hull, p2, r2)
    if P is NotPointed or Q is NotPointed:
        return
    try:
        want = hull_reference.minkowski_sum(P, Q)
    except NotPointed:
        with pytest.raises(NotPointed):
            minkowski_sum(P, Q)
        return
    _same_body(minkowski_sum(P, Q), want)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    generator_pairs(),
    st.builds(Rat, st.integers(1, 7), st.integers(1, 5)),
    st.tuples(*[rational_coord] * 4),
)
@example(((([(0, 0)], [], 2)), (([(1, 1)], [], 2))), Rat(3, 2), (Rat(1, 3),) * 4)  # segment
def test_carried_facets_match_dd_convert(case, factor, shift):
    # Every body a factory builds carries exactly the facets that a DD pass
    # on its vertices and rays alone finds, lower-dimensional ones included,
    # and its affine dimension reads off their equation pairs.
    (p1, r1, dim), (p2, r2, _) = case
    P = _hull_or_not_pointed(convex_hull, p1, r1)
    Q = _hull_or_not_pointed(convex_hull, p2, r2)
    if P is NotPointed or Q is NotPointed:
        return
    S = _hull_or_not_pointed(minkowski_sum, P, Q)
    shift = shift[:dim]
    bodies = [P, Q, P.scale(factor), P.translate(shift), translate(Q.scale(factor), shift)]
    if S is not NotPointed:
        bodies += [S, S.scale(factor).translate(shift)]
    for body in bodies:
        assert body.facets == hull_reference.facets(body)
        assert affine_dimension(body) == volume_reference.affine_dimension(body)
        if body.is_bounded:
            assert volume.__wrapped__(body) == volume_reference.volume(body)


def _with_facets(P, facets):
    return Polyhedron(P.dim, P.vertices, P.rays, facets)


def test_carried_facets_stay_out_of_equality_and_hashing(unit_square):
    other = _with_facets(unit_square, ())
    assert unit_square == other and hash(unit_square) == hash(other)
    assert repr(unit_square) == repr(other)
    assert {unit_square: 1}[other] == 1
    assert dd_convert(unit_square) is unit_square.facets
    assert unit_square.facets == hull_reference.facets(unit_square)
    flat = convex_hull([(0, 0, 0), (1, 2, 0), (3, 1, 0)], rays=[(1, 1, 0)])
    assert flat == _with_facets(flat, ()) and hash(flat) == hash(_with_facets(flat, ()))
    assert dd_convert(flat) == hull_reference.facets(flat)
    assert affine_dimension(flat) == 2


def test_carried_facets_spare_dd_passes(monkeypatch):
    # A flat hull's carried facets hold its equation pair, so its affine
    # dimension and its zero volume take no DD pass; in d = 3 a scaled
    # body's volume needs none, because its mapped facets serve the top
    # level.  dd_convert and contains read the carried facets too.
    flat = convex_hull([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    simplex = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]).scale(2)

    def forbidden(*args):
        raise AssertionError("volume ran a DD pass")

    monkeypatch.setattr(polytope, "cone_extreme_rays", forbidden)
    assert affine_dimension(flat) == 2 and affine_dimension(simplex) == 3
    assert volume.__wrapped__(flat) == 0
    assert volume.__wrapped__(simplex) == Rat(8, 6)
    assert dd_convert(simplex) is simplex.facets
    assert contains(simplex, simplex) and not contains(flat, simplex)


@st.composite
def clip_cases(draw):
    """A hull in dims 1-4 (see `generator_sets`) and two cuts in a row.

    Each cut has a small nonzero integer normal a and a kind: "random"
    takes the drawn bound; "face" takes min a . v over the current body's
    vertices, which leaves a face of a bounded body (lower-dimensional);
    "below" takes one less than that, which empties a bounded body.
    """
    pts, rays, dim = draw(generator_sets())
    cuts = [
        (
            draw(st.tuples(*[small] * dim).filter(any)),
            draw(st.sampled_from(["random", "random", "random", "face", "below"])),
            draw(rational_coord),
        )
        for _ in range(2)
    ]
    return pts, rays, dim, cuts


@settings(derandomize=True, max_examples=200, deadline=None)
@given(clip_cases())
@example(([(0, 0), (1, 0), (0, 1), (1, 1)], [], 2, [((1, 1), "random", 1)] * 2))  # bounded
@example(([(0, 0), (1, 0), (0, 1), (1, 1)], [], 2, [((1, 0), "face", 0)] * 2))  # an edge
@example(([(0, 0), (1, 0), (0, 1)], [], 2, [((1, 0), "below", 0)] * 2))  # empty
@example(([(0, 0)], [(1, 0), (0, 1)], 2, [((0, 1), "random", 1)] * 2))  # a half-strip
@example(([(0, 0, 1), (1, 0, 1), (0, 1, 1)], [(1, 1, 0)], 3, [((1, 1, 1), "random", 3)] * 2))
def test_clip_results_carry_dd_convert_facets(case):
    # Every clip result, of a hull or of an earlier clip, carries the facets
    # that a DD pass on its vertices and rays alone finds, lower-dimensional
    # ones ("face" cuts) included, or none because it is empty; its affine
    # dimension reads off their equation pairs.
    pts, rays, dim, cuts = case
    body = _hull_or_not_pointed(convex_hull, pts, rays)
    if body is NotPointed:
        return
    for normal, kind, bound in cuts:
        if body.is_empty:
            return
        low = min(linalg.dot(normal, v) for v in body.vertices)
        bound = {"random": bound, "face": low, "below": low - 1}[kind]
        body = clip(body, Halfspace.make(normal, bound))
        assert affine_dimension(body) == volume_reference.affine_dimension(body)
        if body.is_empty:
            assert body.facets == ()
        else:
            assert body.facets == hull_reference.facets(body)
        if body.is_bounded:
            assert volume.__wrapped__(body) == volume_reference.volume(body)


def test_clipped_bodies_spare_dd_passes(monkeypatch):
    # A clipped d = 3 body carries its facets: its volume runs no DD pass,
    # and clipping it again runs exactly one.
    cube = convex_hull(list(product((0, 2), repeat=3)))
    cut = clip(cube, Halfspace.make((1, 1, 1), 3))
    assert cut.facets is not None
    calls = []
    real = polytope.cone_extreme_rays

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytope, "cone_extreme_rays", counted)
    assert volume.__wrapped__(cut) == 4
    assert calls == []
    again = clip(cut, Halfspace.make((1, 0, 0), 1))
    assert len(calls) == 1
    assert again.facets is not None
    assert volume.__wrapped__(again) == volume_reference.volume(again)
    assert len(calls) == 1
