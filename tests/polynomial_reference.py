"""The multi-pass derivatives and the two-level signature, kept as oracles.

These are the `HomogeneousPolynomial.partial`, `.directional`,
`hessian_matrix` and `signature` that the one-pass derivative, the Hessian
read off the quadratic's coefficients and the column-k pivot search in
`coconvex.polynomial` replaced.  The methods are module functions here:
`self` is renamed `poly`, and `directional` calls this module's `partial`.
Otherwise they are moved verbatim.  `directional` sums one scaled partial
per nonzero coordinate; `hessian_matrix` takes two partials and reads the
constant; `signature` first looks for a nonzero diagonal entry, then over
the whole trailing block for a nonzero off-diagonal one, and counts every
remaining variable as null when there is none.  Differential tests require
equal coefficients, degrees, Hessians and inertia tuples.
"""

from __future__ import annotations

from coconvex.errors import DimensionMismatch
from coconvex.polynomial import HomogeneousPolynomial, Signature
from coconvex.rational import ZERO, rat


def partial(poly: HomogeneousPolynomial, index: int) -> HomogeneousPolynomial:
    """Partial derivative in one variable; degree drops by one."""
    if not 0 <= index < poly.nvars:
        raise DimensionMismatch("no such variable")
    if poly.degree == 0:
        return HomogeneousPolynomial(poly.nvars, 0)
    out = {}
    for exps, c in poly.coeffs.items():
        e = exps[index]
        if e == 0:
            continue
        dropped = exps[:index] + (e - 1,) + exps[index + 1 :]
        out[dropped] = out.get(dropped, ZERO) + c * e
    return HomogeneousPolynomial(poly.nvars, poly.degree - 1, out)


def directional(poly: HomogeneousPolynomial, vector) -> HomogeneousPolynomial:
    """Derivative along a constant direction in the variable space."""
    if len(vector) != poly.nvars:
        raise DimensionMismatch("direction has the wrong number of coordinates")
    out = HomogeneousPolynomial(poly.nvars, max(poly.degree - 1, 0))
    for i, v in enumerate(vector):
        v = rat(v)
        if v != 0:
            out = out + partial(poly, i).scale(v)
    return out


def hessian_matrix(poly: HomogeneousPolynomial):
    """Matrix of second partials of a quadratic; entries are rationals."""
    if poly.degree != 2:
        raise DimensionMismatch("hessian needs a quadratic")
    n = poly.nvars
    firsts = [partial(poly, i) for i in range(n)]
    return tuple(tuple(partial(firsts[i], j).constant() for j in range(n)) for i in range(n))


def signature(matrix) -> Signature:
    """Inertia of a symmetric rational matrix by congruence reduction.

    Diagonalizes M as S M S^T with exact row and column operations, so the
    counts are those guaranteed by Sylvester's law, free of rounding.
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

    def swap(a, b):
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]

    pos = neg = zero = 0
    for k in range(n):
        if m[k][k] == 0:
            diag = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if diag is not None:
                swap(k, diag)
            else:
                spot = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if m[i][j] != 0
                    ),
                    None,
                )
                if spot is None:
                    zero += n - k
                    break
                i, j = spot
                # fold variable j into i; the diagonal entry becomes 2 m[i][j]
                for col in range(n):
                    m[i][col] = m[i][col] + m[j][col]
                for row in m:
                    row[i] = row[i] + row[j]
                if i != k:
                    swap(k, i)
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
