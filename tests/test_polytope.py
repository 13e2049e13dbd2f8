from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import volume_reference
from coconvex import linalg, polytope
from coconvex.errors import CoconvexError, DimensionMismatch, UnboundedPolyhedron
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
def test_volume_matches_rational_recursion(case):
    # Both the canonical hull and the raw point list (duplicates, interior
    # points and all) give the exact Rat of the Fraction-based recursion.
    pts, dim = case
    hull = convex_hull(pts)
    raw = Polyhedron(dim, tuple(tuple(Rat(x) for x in p) for p in pts), ())
    for P in (hull, raw):
        got = volume.__wrapped__(P)
        assert got == volume_reference.volume(P)
        assert isinstance(got, Rat)
        assert affine_dimension(P) == volume_reference.affine_dimension(P)


def test_volume_kernel_builds_no_rationals(monkeypatch):
    # Scaling, facet scans and the recursion stay in int; the only Rat built
    # is the final N_d / (d! * L^d).
    rational_simplex = convex_hull(
        [(0, 0, 0), (Rat(1, 2), 0, 0), (0, Rat(2, 3), 0), (0, 0, Rat(3, 4))]
    )
    lattice_cube = Polyhedron(4, tuple(product((0, 2), repeat=4)), ())
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
    assert type(polytope._normalized_volume(list(product((0, 2), repeat=4)), 4)) is int
