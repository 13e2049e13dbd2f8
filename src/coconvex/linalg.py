"""Exact linear algebra over rationals, sized for desk-scale geometry.

Vectors are plain tuples whose entries are ints or Rat; every routine that
divides coerces through Rat first so no float can appear.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .rational import Rat, ZERO, rat


def dot(u, v):
    return sum(map(mul, u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def over_common_denominator(vec) -> tuple[list[int], int]:
    """(numerators, D) with vec[i] = numerators[i] / D, where D is the lcm
    of the entries' denominators.

    int and Rat entries are read through their numerator and denominator;
    any other entry is coerced through `rational.rat`, which refuses floats
    and bools.
    """
    fracs = [x if type(x) is int or isinstance(x, Rat) else rat(x) for x in vec]
    den = lcm(*(int(q.denominator) for q in fracs))
    return [int(q.numerator) * (den // int(q.denominator)) for q in fracs], den


def primitive_integer(vec) -> tuple[int, ...]:
    """Scale by a positive rational so entries become coprime integers.

    Direction is preserved; the zero vector maps to itself.  int entries
    are used as they are and any other entry through
    `over_common_denominator`.
    """
    if not all(type(x) is int for x in vec):
        vec, _ = over_common_denominator(vec)
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def sign_normalized(vec):
    """Flip sign so the first nonzero entry is positive (for basis vectors)."""
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-y for y in vec)
    return vec


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Pivoting is the
    first nonzero entry in column order, so the result is deterministic.
    """
    mat = [[Rat(x) for x in row] for row in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return [tuple(r) for r in mat[:rank]], pivots


def rank(rows, ncols) -> int:
    return len(rref(rows, ncols)[0])


def nullspace_basis(rows, ncols):
    """Primitive, sign-normalized basis of {x : row . x = 0 for all rows}."""
    reduced, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = Rat(1)
        for r, pc in zip(reduced, pivots):
            vec[pc] = -r[fc]
        basis.append(sign_normalized(primitive_integer(vec)))
    return basis


def independent_row_indices(rows, ncols, limit=None):
    """Indices of a maximal (or size-limit) independent subset, greedily in order."""
    mat = []
    chosen = []
    for idx, row in enumerate(rows):
        work = [Rat(x) for x in row]
        for pivot_col, pivot_row in mat:
            f = work[pivot_col]
            if f != 0:
                work = [a - f * b for a, b in zip(work, pivot_row)]
        pivot = next((c for c in range(ncols) if work[c] != 0), None)
        if pivot is None:
            continue
        pv = work[pivot]
        work = [x / pv for x in work]
        mat.append((pivot, work))
        chosen.append(idx)
        if limit is not None and len(chosen) == limit:
            break
    return chosen


def invert_matrix(rows):
    """Inverse of a square rational matrix as a list of row tuples."""
    n = len(rows)
    aug = [[Rat(x) for x in row] + [Rat(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot_row is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [tuple(row[n:]) for row in aug]


def solve_square(rows, rhs):
    """Unique solution of A x = b for square invertible A."""
    inv = invert_matrix(rows)
    return tuple(dot(r, rhs) for r in inv)
