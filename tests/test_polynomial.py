import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fit_reference
import polynomial_reference
from coconvex.errors import DimensionMismatch
from coconvex.forms import polynomial_af_forms
from coconvex.polynomial import (
    HomogeneousPolynomial,
    Signature,
    default_grid,
    fit_homogeneous,
    hessian_matrix,
    monomial_exponents,
    multinomial,
    signature,
    tensor_grid,
)
from coconvex.rational import Rat


def test_monomial_exponents_count_and_order():
    exps = list(monomial_exponents(2, 3))
    assert exps == [(3, 0), (2, 1), (1, 2), (0, 3)]
    # stars and bars count for three variables
    assert len(list(monomial_exponents(3, 4))) == math.comb(6, 2)
    assert all(sum(e) == 4 for e in monomial_exponents(3, 4))


def test_multinomial():
    assert multinomial((3, 0)) == 1
    assert multinomial((2, 1)) == 3
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((2, 2)) == 6


@pytest.fixture
def quadratic():
    # x^2 + 5xy + 6y^2 = (x + 2y)(x + 3y)
    return HomogeneousPolynomial(2, 2, {(2, 0): 1, (1, 1): 5, (0, 2): 6})


def test_evaluate(quadratic):
    assert quadratic.evaluate((1, 0)) == 1
    assert quadratic.evaluate((1, 1)) == 12
    assert quadratic.evaluate((Rat(1, 2), Rat(1, 3))) == Rat(1, 4) + Rat(5, 6) + Rat(6, 9)


@pytest.mark.parametrize("exps", [(1.0, 1.0), (1.5, 0.5), (True, 1)])
def test_exponents_must_be_ints(exps):
    # each tuple sums to the degree; (1.5, 0.5) would evaluate as a root
    with pytest.raises(DimensionMismatch):
        HomogeneousPolynomial(2, 2, {exps: 1})


@pytest.mark.parametrize(
    "coeffs",
    [{(1.5, 0.5): 0}, {(-1, 3): 0}, {(5, 0): 0, (1, 1): 1}],
    ids=["float_exps", "negative_exp", "wrong_degree"],
)
def test_zero_coefficient_does_not_hide_a_bad_exponent_tuple(coeffs):
    # the shape is checked before a zero coefficient is dropped
    with pytest.raises(DimensionMismatch):
        HomogeneousPolynomial(2, 2, coeffs)


def test_zero_coefficients_are_dropped():
    P = HomogeneousPolynomial(2, 2, {(2, 0): 0, (1, 1): 1})
    assert (2, 0) not in P.coeffs
    assert P.coeffs
    assert HomogeneousPolynomial(2, 2).coeffs == {}


def test_partial_derivatives(quadratic):
    px = quadratic.partial(0)
    assert px.coeffs == {(1, 0): Rat(2), (0, 1): Rat(5)}
    py = quadratic.partial(1)
    assert py.coeffs == {(1, 0): Rat(5), (0, 1): Rat(12)}
    assert px.partial(0).constant() == 2


def test_partial_to_degree_zero():
    lin = HomogeneousPolynomial(2, 1, {(1, 0): 3, (0, 1): 4})
    assert lin.partial(0).constant() == 3
    assert lin.partial(0).partial(1).coeffs == {}


def test_directional_derivative(quadratic):
    d = quadratic.directional((1, 1))
    # (d/dx + d/dy) applied once
    assert d.coeffs == {(1, 0): Rat(7), (0, 1): Rat(17)}


def test_arithmetic(quadratic):
    s = quadratic + quadratic
    assert s.coeffs[(1, 1)] == 10
    assert (s - quadratic) == quadratic
    assert (-quadratic).coeffs[(0, 2)] == -6
    assert quadratic.scale(Rat(1, 2)).coeffs[(1, 1)] == Rat(5, 2)


def test_euler_identity(quadratic):
    # sum x_i dP/dx_i = deg * P for homogeneous P, checked at sample points
    for point in ((1, 2), (3, -1), (Rat(1, 3), Rat(2, 5))):
        lhs = sum(point[i] * quadratic.partial(i).evaluate(point) for i in range(2))
        assert lhs == 2 * quadratic.evaluate(point)


def test_tensor_and_default_grids():
    assert tensor_grid([[1, 2], [5]]) == [(1, 5), (2, 5)]
    grid = default_grid(2, 2)
    assert len(grid) == 9
    assert grid[0] == (1, 1)


def test_fit_recovers_known_polynomial(quadratic):
    fitted = fit_homogeneous(2, 2, default_grid(2, 2), quadratic.evaluate)
    assert fitted == quadratic


def test_fit_three_variables():
    target = HomogeneousPolynomial(3, 3, {(1, 1, 1): 6, (3, 0, 0): 1, (0, 2, 1): -2})
    fitted = fit_homogeneous(3, 3, default_grid(3, 3), target.evaluate)
    assert fitted == target


def test_fit_needs_enough_points():
    def value(point):
        raise AssertionError("value_fn called on a degenerate grid")

    # Points on one line through the origin give proportional quadratic
    # rows, and points on the plane z = x + y cannot fix a linear form.
    # The error comes before any evaluation.
    with pytest.raises(ArithmeticError):
        fit_homogeneous(2, 2, [(1, 1), (2, 2)], value)
    with pytest.raises(ArithmeticError):
        fit_homogeneous(2, 2, [(1, 1), (2, 2), (Rat(1, 2), Rat(1, 2)), (3, 3)], value)
    with pytest.raises(ArithmeticError):
        fit_homogeneous(3, 1, [(1, 0, 1), (0, 1, 1), (1, 1, 2), (2, 3, 5)], value)
    with pytest.raises(ArithmeticError):
        fit_homogeneous(1, 2, [], value)


def _fit_run(fit, nvars, degree, grid, value_fn):
    """The fitted polynomial, or the exception type raised, and the points
    value_fn saw, in order."""
    seen = []

    def value(point):
        seen.append(point)
        return value_fn(point)

    try:
        return fit(nvars, degree, grid, value), seen
    except (ArithmeticError, DimensionMismatch) as exc:
        return type(exc), seen


small_rat = st.builds(Rat, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def fit_cases(draw):
    """(nvars, degree, grid): a default grid with a shifted start, an
    integer tensor grid, a tensor grid with a rational last axis (the lifted
    t-axis), or scattered rational points.  Axis values may repeat, so some
    grids are degenerate."""
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["default", "tensor", "rational_axis", "scattered"]))
    if kind == "default":
        s = draw(st.integers(-1, 2))
        return nvars, degree, tensor_grid([range(s, s + degree + 1)] * nvars)
    if kind == "scattered":
        m = len(list(monomial_exponents(nvars, degree)))
        coord = st.one_of(st.integers(-3, 3), small_rat)
        point = st.tuples(*[coord] * nvars)
        return nvars, degree, draw(st.lists(point, min_size=m - 1, max_size=m + 3))
    axis = st.lists(st.integers(-3, 5), min_size=degree + 1, max_size=degree + 1)
    axes = [draw(axis) for _ in range(nvars)]
    if kind == "rational_axis":
        axes[-1] = draw(st.lists(small_rat, min_size=degree + 1, max_size=degree + 1))
    return nvars, degree, tensor_grid(axes)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fit_cases(), st.data())
@example((1, 3, default_grid(1, 3)), None)
@example((1, 0, [(Rat(5, 2),)]), None)
@example((3, 0, default_grid(3, 0)), None)
@example((2, 0, [(0, 0), (1, 2)]), None)
@example((2, 2, [(Rat(1, 2), Rat(1, 3)), (1, 0), (0, Rat(5, 4))]), None)
def test_fit_matches_rational_oracle(case, data):
    nvars, degree, grid = case
    monomials = list(monomial_exponents(nvars, degree))
    if data is None:
        coeffs = {exps: Rat(k + 1, 3) for k, exps in enumerate(monomials)}
    else:
        coeffs = data.draw(st.fixed_dictionaries({exps: small_rat for exps in monomials}))
    target = HomogeneousPolynomial(nvars, degree, coeffs)
    got = _fit_run(fit_homogeneous, nvars, degree, grid, target.evaluate)
    assert got == _fit_run(fit_reference.fit_homogeneous, nvars, degree, grid, target.evaluate)
    if got[0] is not ArithmeticError:
        assert got[0] == target
    else:
        assert got[1] == []


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fit_cases(), st.data())
def test_fit_of_arbitrary_values_matches_rational_oracle(case, data):
    # Values that no polynomial of this degree need match: the fit depends
    # on exactly which rows were picked and on every step of the solve.
    nvars, degree, grid = case
    values = data.draw(st.lists(small_rat, min_size=len(grid), max_size=len(grid)))
    table = dict(zip(grid, values))
    got = _fit_run(fit_homogeneous, nvars, degree, grid, table.__getitem__)
    assert got == _fit_run(fit_reference.fit_homogeneous, nvars, degree, grid, table.__getitem__)


def test_fit_checks_every_point_length():
    # The first three points already determine the quadratic; the short
    # point after them must still be rejected, before any evaluation.
    seen = []
    grid = [(1, 0), (0, 1), (1, 1), (2, 3), (4,)]
    with pytest.raises(DimensionMismatch):
        fit_homogeneous(2, 2, grid, seen.append)
    assert seen == []
    with pytest.raises(DimensionMismatch):
        fit_homogeneous(2, 2, grid[:3] + [(1, 2, 3)], seen.append)
    assert seen == []


def test_fit_picks_points_in_greedy_order():
    # (2, 2) depends on (1, 1) for a linear form, so the points fitted are
    # (1, 1) and (3, 5); (0, 7) is never evaluated.
    target = HomogeneousPolynomial(2, 1, {(1, 0): 2, (0, 1): -1})
    seen = []

    def value(point):
        seen.append(point)
        return target.evaluate(point)

    assert fit_homogeneous(2, 1, [(1, 1), (2, 2), (3, 5), (0, 7)], value) == target
    assert seen == [(1, 1), (3, 5)]


def test_hessian(quadratic):
    H = hessian_matrix(quadratic)
    assert H == ((Rat(2), Rat(5)), (Rat(5), Rat(12)))


def test_hessian_rejects_wrong_degree():
    cubic = HomogeneousPolynomial(1, 3, {(3,): 1})
    with pytest.raises(ValueError):
        hessian_matrix(cubic)


def test_signature_known_matrices():
    assert signature(((1, 0), (0, -1))).astuple() == (1, 1, 0)
    assert signature(((0, 1), (1, 0))).astuple() == (1, 1, 0)
    assert signature(((0, 0), (0, 0))).astuple() == (0, 0, 2)
    assert signature(((2, 4), (4, 8))).astuple() == (1, 0, 1)
    assert signature(((2, 0, 0), (0, 0, 3), (0, 3, 0))).astuple() == (2, 1, 0)
    # zero pivots: swap, fold, fold then a null square, and a null variable
    # ahead of live ones
    assert signature(((0, 1), (1, 1))).astuple() == (1, 1, 0)
    assert signature(((0, 1, 0), (1, 0, 0), (0, 0, 0))).astuple() == (1, 1, 1)
    assert signature(((0, 0, 0), (0, 0, 1), (0, 1, 0))).astuple() == (1, 1, 1)


def test_signature_rational_entries():
    M = ((Rat(1, 2), Rat(1, 3)), (Rat(1, 3), Rat(1, 4)))
    # det = 1/8 - 1/9 > 0 and trace > 0, so positive definite
    assert signature(M).astuple() == (2, 0, 0)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        signature(((1, 2), (3, 4)))


def test_signature_dataclass():
    s = Signature(1, 2, 3)
    assert s.astuple() == (1, 2, 3)


entry = st.integers(-4, 4)


@st.composite
def symmetric3(draw):
    a, b, c = draw(entry), draw(entry), draw(entry)
    d, e, f = draw(entry), draw(entry), draw(entry)
    return ((a, b, c), (b, d, e), (c, e, f))


def _det3(rows):
    return (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )


@given(symmetric3(), st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(deadline=None, max_examples=60)
def test_signature_is_congruence_invariant(M, S):
    # inertia is preserved under M -> S^T M S for invertible S
    assume(_det3(S) != 0)
    n = 3
    SM = [[sum(S[k][i] * M[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    SMS = tuple(
        tuple(sum(SM[i][k] * S[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )
    assert signature(SMS).astuple() == signature(M).astuple()


@given(symmetric3())
@settings(deadline=None, max_examples=60)
def test_signature_counts_sum_to_dimension(M):
    s = signature(M)
    assert s.pos + s.neg + s.zero == 3


@st.composite
def polynomials(draw, degrees=st.integers(0, 4)):
    """A polynomial with nvars <= 4, degree <= 4 and at most six terms with
    rational coefficients, any of which may be zero."""
    nvars, degree = draw(st.integers(1, 4)), draw(degrees)
    monomials = list(monomial_exponents(nvars, degree))
    coeffs = draw(st.dictionaries(st.sampled_from(monomials), small_rat, max_size=6))
    return HomogeneousPolynomial(nvars, degree, coeffs)


def _shape(P):
    return P.nvars, P.degree, P.coeffs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(polynomials(), st.data())
@example(HomogeneousPolynomial(2, 0, {(0, 0): 3}), None)
def test_derivatives_match_reference(P, data):
    # Directions mix zeros, small integers and rationals, so some partials
    # drop out of the directional derivative and some terms cancel.
    coord = st.one_of(st.just(0), st.integers(-3, 3), small_rat)
    if data is None:
        v = (0,) * P.nvars
    else:
        v = data.draw(st.tuples(*[coord] * P.nvars))
    assert _shape(P.directional(v)) == _shape(polynomial_reference.directional(P, v))
    for i in range(P.nvars):
        assert _shape(P.partial(i)) == _shape(polynomial_reference.partial(P, i))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(polynomials(degrees=st.just(2)))
def test_hessian_matches_reference(P):
    assert hessian_matrix(P) == polynomial_reference.hessian_matrix(P)


@st.composite
def symmetric_matrices(draw):
    """An n x n symmetric matrix, n <= 6: a sum of w v v^T over few vectors
    (so often low rank), the same with its diagonal zeroed, or a sparse
    matrix with a zero diagonal."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["low_rank", "zero_diagonal", "sparse"]))
    if kind == "sparse":
        m = [[Rat(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i] = draw(st.sampled_from([Rat(0)] * 3 + [Rat(1), Rat(-2)]))
        return m
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(small_rat, vec), max_size=n))
    m = [[sum((w * v[i] * v[j] for w, v in terms), Rat(0)) for j in range(n)] for i in range(n)]
    if kind == "zero_diagonal":
        for i in range(n):
            m[i][i] = Rat(0)
    return m


@settings(derandomize=True, max_examples=200, deadline=None)
@given(symmetric_matrices())
@example(((0, 1), (1, 1)))  # zero pivot, nonzero diagonal below: swap
@example(((0, 1), (1, 0)))  # zero pivot, zero diagonal below: fold
@example(((0, 1, 0), (1, 0, 0), (0, 0, 0)))  # fold, then a null square
def test_signature_matches_reference(M):
    # Compared as tuples: a Signature from a second copy of the module never
    # compares equal to one from the first.
    assert signature(M).astuple() == polynomial_reference.signature(M).astuple()


@pytest.mark.parametrize("degree, nvars", [(3, 2), (3, 3), (4, 2)])
def test_form_pipeline_builds_no_throwaway_polynomials(monkeypatch, degree, nvars):
    # Each directional derivative in the marked chain builds its result and
    # nothing else; the Hessian is read off the quadratic without building
    # any polynomial.
    monomials = monomial_exponents(nvars, degree)
    P = HomogeneousPolynomial(nvars, degree, {e: k + 1 for k, e in enumerate(monomials)})
    quadratic = HomogeneousPolynomial(nvars, 2, {e: 1 for e in monomial_exponents(nvars, 2)})
    marked = [tuple(range(1, nvars + 1))] * (degree - 2)
    built = []
    init = HomogeneousPolynomial.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HomogeneousPolynomial, "__init__", counting_init)
    polynomial_af_forms(P, marked)
    assert len(built) == degree - 2
    built.clear()
    hessian_matrix(quadratic)
    assert built == []
