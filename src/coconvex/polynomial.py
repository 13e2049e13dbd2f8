"""Homogeneous polynomials with exact coefficients, plus quadratic-form tools.

Everything here is exact.  Interpolation is fraction-free: grid points
are scaled to integers, and one pass of the DD kernel's integer
elimination (`dd.greedy_inverse`) picks the rows and inverts the system;
each coefficient is built as one rational at the end.  The inertia of a
symmetric matrix comes from congruence reduction, so signatures carry no
numerical error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial, prod
from operator import mul

from .dd import greedy_inverse
from .errors import DimensionMismatch, EmptyInput
from .linalg import over_common_denominator
from .rational import Rat, ZERO, rat


def monomial_exponents(nvars: int, degree: int):
    """Exponent tuples of the given total degree, in lexicographic order."""
    if nvars <= 0:
        raise EmptyInput("need at least one variable")
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomial_exponents(nvars - 1, degree - first):
            yield (first,) + rest


def multinomial(exponents) -> int:
    out = factorial(sum(exponents))
    for e in exponents:
        out //= factorial(e)
    return out


class HomogeneousPolynomial:
    """Polynomial whose monomials all share one total degree.

    Coefficients live in a dict keyed by exponent tuple; zero coefficients
    are dropped on construction so equality is plain dict equality.
    """

    def __init__(self, nvars: int, degree: int, coeffs=None):
        if nvars <= 0 or degree < 0:
            raise EmptyInput("need nvars >= 1 and degree >= 0")
        self.nvars = nvars
        self.degree = degree
        clean = {}
        for exps, c in (coeffs or {}).items():
            exps = tuple(exps)
            if (len(exps) != nvars or any(type(e) is not int or e < 0 for e in exps)
                    or sum(exps) != degree):
                raise DimensionMismatch(f"exponent tuple {exps} does not fit")
            c = rat(c)
            if c != 0:
                clean[exps] = c
        self.coeffs = clean

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousPolynomial)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        terms = ", ".join(f"{exps}: {c}" for exps, c in sorted(self.coeffs.items(), reverse=True))
        return f"HomogeneousPolynomial({self.nvars}, {self.degree}, {{{terms}}})"

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise DimensionMismatch("point has the wrong number of coordinates")
        pt = [rat(x) for x in point]
        total = ZERO
        for exps, c in self.coeffs.items():
            term = c
            for x, e in zip(pt, exps):
                if e:
                    term = term * x**e
            total = total + term
        return total

    def partial(self, index: int) -> "HomogeneousPolynomial":
        """Partial derivative in one variable: `directional` along e_index."""
        if not 0 <= index < self.nvars:
            raise DimensionMismatch("no such variable")
        return self.directional([int(k == index) for k in range(self.nvars)])

    def directional(self, vector) -> "HomogeneousPolynomial":
        """Derivative along a constant direction in the variable space, in one
        pass: each term c x^e adds c e_i v_i to x^(e - e_i).  Degree drops by
        one (a constant's derivative is the zero constant)."""
        if len(vector) != self.nvars:
            raise DimensionMismatch("direction has the wrong number of coordinates")
        vector = [rat(v) for v in vector]
        out = {}
        for exps, c in self.coeffs.items():
            for i, (e, v) in enumerate(zip(exps, vector)):
                if e and v:
                    dropped = exps[:i] + (e - 1,) + exps[i + 1 :]
                    out[dropped] = out.get(dropped, ZERO) + c * e * v
        return HomogeneousPolynomial(self.nvars, max(self.degree - 1, 0), out)

    def constant(self):
        """The value of a degree-zero polynomial."""
        if self.degree != 0:
            raise DimensionMismatch("polynomial is not constant")
        return self.coeffs.get((0,) * self.nvars, ZERO)

    def scale(self, factor) -> "HomogeneousPolynomial":
        factor = rat(factor)
        return HomogeneousPolynomial(
            self.nvars, self.degree, {e: c * factor for e, c in self.coeffs.items()}
        )

    def __add__(self, other):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise DimensionMismatch("cannot add polynomials of different shape")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, ZERO) + c
        return HomogeneousPolynomial(self.nvars, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)


def tensor_grid(axes):
    """Cartesian product of per-variable value lists, in axis order."""
    return [tuple(p) for p in product(*axes)]


def default_grid(nvars: int, degree: int, start: int = 1):
    """Grid with degree+1 consecutive integer values on every axis, which
    pins down any polynomial of per-variable degree at most `degree`."""
    return tensor_grid([range(start, start + degree + 1)] * nvars)


def fit_homogeneous(nvars: int, degree: int, points, value_fn) -> HomogeneousPolynomial:
    """Recover the homogeneous polynomial matching value_fn on a grid.

    The solve is integer-only.  Each point is scaled by L, the lcm of its
    coordinate denominators, so its monomial row is an integer row, L**degree
    times the rational one; the value at that point is scaled by L**degree
    to match.  Rows are built lazily, in point order, and `dd.greedy_inverse`
    picks them until there are as many independent rows B as monomials: the
    same points, in the same order, that greedy rational elimination would
    pick.  value_fn runs only at those points, which matters when each
    evaluation is a full volume computation.  The same pass gives
    M = d * B^-1; with the scaled values written as n_k / D over one common
    denominator D, coefficient j is the single rational
    (sum_k M_jk n_k) / (d * D).

    Raises DimensionMismatch if any point has the wrong length, and
    ArithmeticError, before value_fn is called, if the points cannot
    determine the polynomial.
    """
    monomials = list(monomial_exponents(nvars, degree))
    points = list(points)
    if any(len(p) != nvars for p in points):
        raise DimensionMismatch("grid point has the wrong number of coordinates")
    scales = []

    def integer_rows():
        for p in points:
            scaled, L = over_common_denominator(p)
            scales.append(L**degree)
            yield [prod(map(pow, scaled, exps)) for exps in monomials]

    picked, lineality, inverse, d = greedy_inverse(integer_rows(), len(monomials))
    if lineality:
        raise ArithmeticError("candidate points cannot determine the polynomial")
    nums, den = over_common_denominator([rat(value_fn(points[i])) * scales[i] for i in picked])
    den *= d
    return HomogeneousPolynomial(
        nvars,
        degree,
        {exps: Rat(sum(map(mul, row, nums)), den) for exps, row in zip(monomials, inverse)},
    )


def hessian_matrix(poly: HomogeneousPolynomial):
    """Matrix of second partials of a quadratic, read off its coefficients:
    H[i][j] is the coefficient of x_i x_j, and H[i][i] twice that of x_i^2."""
    if poly.degree != 2:
        raise DimensionMismatch("hessian needs a quadratic")
    n = poly.nvars

    def entry(i, j):
        c = poly.coeffs.get(tuple((k == i) + (k == j) for k in range(n)), ZERO)
        return 2 * c if i == j else c

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class Signature:
    """Inertia of a symmetric form: positive, negative, and null counts."""

    pos: int
    neg: int
    zero: int

    def astuple(self):
        return (self.pos, self.neg, self.zero)


def signature(matrix) -> Signature:
    """Inertia of a symmetric rational matrix by congruence reduction.

    Diagonalizes M as S M S^T with exact row and column operations, so the
    counts are those guaranteed by Sylvester's law, free of rounding.  A zero
    pivot m[k][k] looks down column k only: if that column is zero, variable
    k is a null square; otherwise the first row i with m[i][k] != 0 is
    swapped in when m[i][i] != 0, or else folded into k.
    """
    n = len(matrix)
    m = [[rat(x) for x in row] for row in matrix]
    for row in m:
        if len(row) != n:
            raise DimensionMismatch("matrix is not square")
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise DimensionMismatch("matrix is not symmetric")

    pos = neg = zero = 0
    for k in range(n):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if i is None:
                zero += 1
                continue
            if m[i][i] != 0:
                m[k], m[i] = m[i], m[k]
                for row in m:
                    row[k], row[i] = row[i], row[k]
            else:
                # fold variable i into k; the diagonal entry becomes 2 m[i][k]
                for col in range(n):
                    m[k][col] = m[k][col] + m[i][col]
                for row in m:
                    row[k] = row[k] + row[i]
        p = m[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if m[i][k] == 0:
                continue
            f = m[i][k] / p
            for col in range(n):
                m[i][col] = m[i][col] - f * m[k][col]
            for row in m:
                row[i] = row[i] - f * row[k]
    return Signature(pos, neg, zero)
