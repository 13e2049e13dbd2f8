"""The rational interpolation solve, kept as a test oracle.

This is the `Fraction`-based `fit_homogeneous` that the fraction-free solve
in `coconvex.polynomial` replaced, moved here verbatim.  It builds every
monomial row in `Rat`, picks rows with `linalg.independent_row_indices` and
solves with `linalg.solve_square`, so it is slow but independent of the
integer code it checks.  Differential tests require both to return
identical polynomials and to call value_fn at the same points, in the same
order.
"""

from __future__ import annotations

from coconvex.errors import DimensionMismatch
from coconvex.linalg import independent_row_indices, solve_square
from coconvex.polynomial import HomogeneousPolynomial, monomial_exponents
from coconvex.rational import Rat


def fit_homogeneous(nvars: int, degree: int, points, value_fn) -> HomogeneousPolynomial:
    """Recover the homogeneous polynomial matching value_fn on a grid.

    Rows of the monomial evaluation matrix are selected greedily until it
    is invertible; value_fn runs only at the selected points, which matters
    when each evaluation is a full volume computation.
    """
    monomials = list(monomial_exponents(nvars, degree))
    points = list(points)
    rows = []
    for p in points:
        if len(p) != nvars:
            raise DimensionMismatch("grid point has the wrong number of coordinates")
        pt = [Rat(x) for x in p]
        row = []
        for exps in monomials:
            term = Rat(1)
            for x, e in zip(pt, exps):
                if e:
                    term = term * x**e
            row.append(term)
        rows.append(row)
    idx = independent_row_indices(rows, len(monomials), limit=len(monomials))
    if len(idx) < len(monomials):
        raise ArithmeticError("candidate points cannot determine the polynomial")
    matrix = [rows[i] for i in idx]
    rhs = [Rat(value_fn(points[i])) for i in idx]
    sol = solve_square(matrix, rhs)
    return HomogeneousPolynomial(nvars, degree, dict(zip(monomials, sol)))

