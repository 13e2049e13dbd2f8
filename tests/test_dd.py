"""The cone converter is the single engine under every representation
change, so its edge cases get direct coverage here."""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coconvex import dd, linalg
from coconvex.dd import cone_extreme_rays
from coconvex.rational import Rat
from dd_reference import _incidence_masks
from dd_reference import cone_extreme_rays as reference_cone_extreme_rays


def test_orthant_from_inequalities():
    rays, lin, _ = cone_extreme_rays([(1, 0), (0, 1)], 2)
    assert rays == [(0, 1), (1, 0)]
    assert lin == []


def test_redundant_rows_ignored():
    rays, lin, _ = cone_extreme_rays([(1, 0), (0, 1), (1, 1), (2, 0)], 2)
    assert rays == [(0, 1), (1, 0)]
    assert lin == []


def test_halfplane_has_lineality():
    rays, lin, _ = cone_extreme_rays([(1, 0)], 2)
    assert lin == [(0, 1)]
    assert rays == [(1, 0)]


def test_no_constraints_is_all_of_space():
    rays, lin, _ = cone_extreme_rays([], 2)
    assert rays == []
    assert len(lin) == 2


def test_pointed_three_dim_cone():
    # {x >= 0, y >= 0, z >= 0, x + y >= z} has four extreme rays
    rays, lin, _ = cone_extreme_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    assert lin == []
    assert set(rays) == {(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_opposite_constraints_give_equality_lineality():
    rays, lin, _ = cone_extreme_rays([(1, 1), (-1, -1)], 2)
    # the cone is the line x + y = 0
    assert rays == []
    assert lin == [(1, -1)]


def test_infeasible_direction_collapses_to_origin():
    rays, lin, _ = cone_extreme_rays([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert rays == []
    assert lin == []


def test_duality_round_trip():
    # dual of the dual returns the original pointed cone
    primal = [(2, 1), (1, 3)]
    dual, lin, _ = cone_extreme_rays(primal, 2)
    assert lin == []
    back, lin2, _ = cone_extreme_rays(dual, 2)
    assert lin2 == []
    assert set(back) == {(2, 1), (1, 3)}


def test_rational_rows_are_scaled():
    rays, lin, _ = cone_extreme_rays([(Rat(1, 2), 0), (0, Rat(1, 3))], 2)
    assert rays == [(0, 1), (1, 0)]
    assert lin == []


def test_kernel_builds_no_rationals(monkeypatch):
    # Integer rows never reach the Rat coercion in primitive_integer, and
    # nothing after it builds one.
    def forbidden(*args):
        raise AssertionError("the double description kernel built a Rat")

    monkeypatch.setattr(linalg, "Rat", forbidden)
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, -1, 0), (2, 2, -2, 0), (0, 0, 0, 0)]
    rays, lin, _ = cone_extreme_rays(rows, 4)
    assert lin == [(0, 0, 0, 1)]
    assert set(rays) == {(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)}


# Seven rows of rank 2 in dim 4: a, b, a + b, a again, -a, 2a - b and 2b.
RANK_TWO_SEVEN_ROWS = (
    [(1, 0, 2, -1), (0, 1, 1, 1), (1, 1, 3, 0), (1, 0, 2, -1), (-1, 0, -2, 1),
     (2, -1, 3, -3), (0, 2, 2, 2)],
    4,
)
# The homogenized vertices (1, x, y, 0) of a planar quadrilateral: rank 3
# in dim 4, so the last coordinate spans the lineality space.
QUADRILATERAL_VERTICES = ([(1, 0, 0, 0), (1, 2, 0, 0), (1, 3, 2, 0), (1, 0, 1, 0)], 4)
# Seven rows of full rank 5.
FULL_RANK_SEVEN_ROWS = (
    [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
     (0, 0, 0, 0, 1), (1, 1, 1, 1, -1), (1, -1, 1, -1, 1)],
    5,
)

entry = st.one_of(
    st.integers(-4, 4),
    st.builds(Rat, st.integers(-4, 4), st.integers(1, 4)),
)


@st.composite
def cone_inputs(draw):
    """Constraint rows in dims 1-5 with ints and Rats mixed, plus duplicate,
    scaled, negated (lineality), summed (redundant) and zero rows."""
    dim = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[entry] * dim), max_size=7))
    extra = []
    for row in rows:
        kind = draw(st.sampled_from(["none", "duplicate", "scaled", "negated"]))
        if kind == "duplicate":
            extra.append(row)
        elif kind == "scaled":
            extra.append(tuple(Rat(3, 2) * x for x in row))
        elif kind == "negated":
            extra.append(tuple(-x for x in row))
    if len(rows) >= 2 and draw(st.booleans()):
        extra.append(tuple(a + b for a, b in zip(rows[0], rows[1])))
    if draw(st.booleans()):
        extra.append((0,) * dim)
    return draw(st.permutations(rows + extra)), dim


def test_singular_start_is_an_invariant_failure(monkeypatch):
    # A lineality basis that overlapped the row space would leave the
    # stacked start singular; the kernel says so instead of inverting it.
    monkeypatch.setattr(dd, "sign_normalized", lambda vec: (1, 0))
    with pytest.raises(AssertionError, match="dependent"):
        cone_extreme_rays([(1, 0)], 2)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cone_inputs())
@example(([], 3))  # no rows
@example(([(0, 0), (0, 0)], 2))  # only zero rows: full lineality, r == 0
@example(([(1, 0, 0), (Rat(-1, 2), 0, 0), (0, 1, 1)], 3))  # 0 < r < dim
@example(([(1, 0), (-1, 0), (0, 1), (0, -1)], 2))  # only the origin
@example(([(1, 1, 0), (0, 1, 1), (1, 0, 1), (-2, -2, -2)], 3))  # only the origin
@example(FULL_RANK_SEVEN_ROWS)
@example(RANK_TWO_SEVEN_ROWS)
@example(QUADRILATERAL_VERTICES)
def test_matches_rational_kernel(case):
    rows, dim = case
    assert cone_extreme_rays(rows, dim)[:2] == reference_cone_extreme_rays(rows, dim)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cone_inputs(), st.integers(0, 2**32))
@example(([], 3), 0)  # no rows
@example(([(0, 0), (0, 0)], 2), 0)  # only zero rows: full lineality, r == 0
@example(([(1, 0, 0), (Rat(-1, 2), 0, 0), (0, 1, 1), (0, 0, 0)], 3), 1)  # 0 < r < dim
@example(([(1, 0), (-1, 0), (0, 1), (0, -1)], 2), 2)  # only the origin
@example(([(1, 1, 0), (0, 1, 1), (1, 0, 1), (-2, -2, -2)], 3), 3)  # only the origin
@example(([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (2, 2, -2), (0, 0, 0)], 3), 4)
@example(([(1, 0), (0, 1), (2, 0), (0, 0)], 2), 5)  # incidence [0b01, 0b10, 0b01, 0b11]
@example(RANK_TWO_SEVEN_ROWS, 6)
@example(QUADRILATERAL_VERTICES, 7)
def test_incidence_matches_dot_products(case, seed):
    # The kernel's incidence is the oracle's per-row dot-product masks on
    # the returned rays, and it follows the rows through a permutation
    # that leaves rays and lineality as they are.
    rows, dim = case
    rays, lin, incidence = cone_extreme_rays(rows, dim)
    assert incidence == _incidence_masks(rows, rays)
    every = (1 << len(rays)) - 1
    assert all(mask == every for row, mask in zip(rows, incidence) if not any(row))
    order = list(range(len(rows)))
    Random(seed).shuffle(order)
    assert cone_extreme_rays([rows[i] for i in order], dim) == (
        rays, lin, [incidence[i] for i in order]
    )


@st.composite
def greedy_inputs(draw):
    """Up to 8 integer rows of length n in 1-5 with entries in [-4, 4],
    plus duplicated and scaled copies, in a drawn order."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), max_size=8))
    extra = []
    for row in rows:
        kind = draw(st.sampled_from(["none", "duplicate", "scaled"]))
        if kind == "duplicate":
            extra.append(row)
        elif kind == "scaled":
            factor = draw(st.sampled_from([-2, 2, 3]))
            extra.append(tuple(factor * x for x in row))
    return draw(st.permutations(rows + extra)), n


@settings(derandomize=True, max_examples=200, deadline=None)
@given(greedy_inputs())
@example(([], 3))  # no rows: the lineality basis is the identity
@example(([(0, 0), (0, 0)], 2))  # only zero rows
@example(([(1, 2), (2, 4), (0, 1), (5, 5)], 2))  # a dependent row, then a full pick
@example(RANK_TWO_SEVEN_ROWS)
@example(FULL_RANK_SEVEN_ROWS)
def test_greedy_inverse_matches_rational_oracles(case):
    # One fraction-free pass picks what greedy rational elimination picks,
    # reads off the rational nullspace basis, vector for vector, and inverts
    # the picks stacked over it; no row past the n-th pick is drawn.
    rows, n = case
    picks = linalg.independent_row_indices(rows, n, limit=n)
    last = picks[-1] if len(picks) == n else len(rows) - 1

    def drawn_lazily():
        for i, row in enumerate(rows):
            if i > last:
                raise AssertionError("a row past the n-th pick was drawn")
            yield row

    picked, lineality, inverse, d = dd.greedy_inverse(drawn_lazily(), n)
    assert picked == picks
    assert lineality == linalg.nullspace_basis(rows, n)
    stacked = [rows[i] for i in picked] + lineality
    assert [tuple(Rat(x, d) for x in row) for row in inverse] == linalg.invert_matrix(stacked)


def test_kernel_eliminates_at_most_dim_rows(monkeypatch):
    # The kernel runs one elimination, over its primitive input rows, and
    # picks at most dim of them; the rays the insertion builds never enter it.
    calls = []
    eliminate = dd.greedy_inverse

    def recording(rows, n):
        rows = list(rows)
        out = eliminate(rows, n)
        calls.append((rows, out))
        return out

    monkeypatch.setattr(dd, "greedy_inverse", recording)
    for rows, dim in (FULL_RANK_SEVEN_ROWS, RANK_TWO_SEVEN_ROWS):
        calls.clear()
        assert cone_extreme_rays(rows, dim)[:2] == reference_cone_extreme_rays(rows, dim)
        [(seen, (picked, lineality, inverse, _))] = calls
        assert set(seen) == {linalg.primitive_integer(row) for row in rows}
        assert len(picked) <= dim and len(picked) + len(lineality) == len(inverse) == dim
