import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coconvex.linalg import (
    dot,
    independent_row_indices,
    invert_matrix,
    nullspace_basis,
    over_common_denominator,
    primitive_integer,
    rank,
    rref,
    sign_normalized,
    solve_square,
    vadd,
)
from coconvex.rational import Rat
from dd_reference import primitive_integer as reference_primitive_integer


def test_vector_helpers():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert vadd((1, 2), (3, 4)) == (4, 6)


def test_primitive_integer_clears_denominators_and_content():
    assert primitive_integer((Rat(1, 2), Rat(1, 3))) == (3, 2)
    assert primitive_integer((4, -6)) == (2, -3)
    assert primitive_integer((0, 0)) == (0, 0)
    assert primitive_integer((0, -5)) == (0, -1)


mixed_entry = st.one_of(
    st.integers(-12, 12),
    st.builds(Rat, st.integers(-12, 12), st.integers(1, 12)),
)


@settings(derandomize=True, max_examples=200)
@given(st.lists(mixed_entry, max_size=6))
@example([])
@example([0, 0, 0])
@example([-4, 6, 0])
@example([Rat(-1, 2), Rat(0), Rat(3, 4)])
@example([Rat(2), -6, Rat(-4, 1)])
def test_primitive_integer_matches_rational_formula(vec):
    for v in (vec, tuple(vec)):
        got = primitive_integer(v)
        assert got == reference_primitive_integer(v)
        assert all(type(x) is int for x in got)


@settings(derandomize=True, max_examples=200)
@given(st.lists(mixed_entry, max_size=6))
@example([])
@example([Rat(1, 2), Rat(-1, 3), 5])
def test_over_common_denominator(vec):
    nums, den = over_common_denominator(vec)
    assert all(type(x) is int for x in nums) and type(den) is int
    assert den == math.lcm(*(int(Rat(x).denominator) for x in vec))
    assert [Rat(n, den) for n in nums] == [Rat(x) for x in vec]


def test_sign_normalized():
    assert sign_normalized((-1, 2)) == (1, -2)
    assert sign_normalized((0, -3)) == (0, 3)
    assert sign_normalized((0, 0)) == (0, 0)


def test_rref_identifies_pivots():
    reduced, pivots = rref([(1, 2, 3), (2, 4, 6), (0, 0, 1)], 3)
    assert pivots == [0, 2]
    assert reduced == [(1, 2, 0), (0, 0, 1)]


def test_rank():
    assert rank([(1, 0), (0, 1)], 2) == 2
    assert rank([(1, 2), (2, 4)], 2) == 1
    assert rank([], 3) == 0


def test_nullspace_basis_is_primitive_and_orthogonal():
    basis = nullspace_basis([(1, 1, 1)], 3)
    assert len(basis) == 2
    for vec in basis:
        assert dot((1, 1, 1), vec) == 0
        assert all(isinstance(x, int) for x in vec)


def test_independent_row_indices_greedy_order():
    rows = [(1, 1), (2, 2), (0, 1), (1, 0)]
    assert independent_row_indices(rows, 2) == [0, 2]
    assert independent_row_indices(rows, 2, limit=1) == [0]


def test_invert_matrix_known():
    inv = invert_matrix([(2, 0), (0, 4)])
    assert inv == [(Rat(1, 2), 0), (0, Rat(1, 4))]
    with pytest.raises(ValueError):
        invert_matrix([(1, 2), (2, 4)])


def test_solve_square():
    assert solve_square([(1, 1), (1, -1)], (3, 1)) == (2, 1)


small_entry = st.integers(-5, 5)


@given(st.lists(st.tuples(small_entry, small_entry, small_entry), min_size=1, max_size=5))
def test_nullspace_vectors_annihilate_rows(rows):
    for vec in nullspace_basis(rows, 3):
        assert all(dot(row, vec) == 0 for row in rows)


@given(
    st.tuples(small_entry, small_entry),
    st.tuples(small_entry, small_entry),
    st.tuples(small_entry, small_entry),
)
def test_solve_square_solves(r1, r2, rhs):
    det = r1[0] * r2[1] - r1[1] * r2[0]
    if det == 0:
        return
    x = solve_square([r1, r2], rhs)
    assert dot(r1, x) == rhs[0] and dot(r2, x) == rhs[1]
