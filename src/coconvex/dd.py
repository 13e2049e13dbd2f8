"""Double description: generator form of a cone given by inequalities.

cone_extreme_rays converts {x : a . x >= 0 for each row a} into its extreme
rays plus a lineality basis, and returns with them the row-ray incidence:
one bitmask per input row, whose bit k is set when the row vanishes on the
k-th ray of the sorted output.  Both directions of the polytope conversions
(vertices to facets and back) reduce to this one routine applied to
homogenized data, which keeps the exact-arithmetic core small.

The kernel is integer-only.  Input rows are first scaled to primitive
integer vectors; from then on every quantity is a Python int and no
rational is ever built.  Elimination is fraction-free Gauss-Jordan in the
style of Bareiss (1968), as in cddlib's exact mode and Fukuda-Prodon,
"Double description method revisited" (1996): a step with pivot p and
previous pivot q replaces every other row by (p * row - row[col] * pivot
row) / q.  Every entry is then, up to sign, a minor of the input matrix,
so the division is exact and the entries stay as small as those minors.
Because only the direction of each vector matters and every output is
made primitive, the results are exactly those of rational elimination:
the same lineality vectors and rays, bit for bit.

The kernel works in its input coordinates.  It picks the first
independent rows greedily, stacks them over a lineality basis and
inverts; the inverse's columns for the picked rows are the starting rays.
Each is orthogonal to the lineality space, so it lies in the row space,
where the cone is pointed, and so does every positive combination of
rays that the insertion builds: no change of basis is needed.

The incremental insertion keeps, at every step, exactly the extreme rays of
the cone cut out by the constraints processed so far, starting from an
invertible subsystem so the combinatorial adjacency test is sound.  Each
ray carries the bitmask of processed rows it vanishes on; the adjacency
test reads these masks, and once every row is processed they are the
incidence, transposed to one mask per row.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .linalg import primitive_integer, sign_normalized


def _gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan elimination on the first ncols columns.

    Pivoting follows `linalg.rref`: columns in order, first row with a
    nonzero entry.  Returns (pivot rows, pivot columns, d).  Every pivot row
    holds d at its own pivot column and 0 at the others: it is d times the
    matching row of the reduced row echelon form.  Columns past ncols are
    carried along, so eliminating [B | I] for an invertible B leaves
    [d I | d B^-1] whatever rows were swapped.
    """
    mat = [list(r) for r in rows]
    pivots = []
    prev = 1
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        prow = mat[rank]
        p = prow[col]
        for i, row in enumerate(mat):
            if i != rank:
                f = row[col]
                mat[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        prev = p
        pivots.append(col)
        rank += 1
        # Rows reduced to zero stay zero; drop them.
        mat = mat[:rank] + [row for row in mat[rank:] if any(row)]
        if rank == len(mat):
            break
    return mat[:rank], pivots, prev


def _lineality(rows, dim):
    """Sign-normalized basis of {x : row . x = 0 for every row}: one vector
    per free column of the reduced row echelon form, made primitive."""
    reduced, pivots, d = _gauss_jordan(rows, dim)
    lineality = []
    for fc in range(dim):
        if fc in pivots:
            continue
        vec = [0] * dim
        vec[fc] = d
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        lineality.append(sign_normalized(primitive_integer(vec)))
    return lineality


def independent_rows(rows, r):
    """The first r rows of an iterable of integer rows that are linearly
    independent, picked greedily in order, as (index, row) pairs.

    Fewer come back when the rows run out.  The echelon is fraction-free;
    independence does not depend on how it is eliminated, so the choice is
    that of rational greedy elimination.  No row past the r-th pick is
    drawn from the iterable, so rows may be built lazily.
    """
    picked, echelon = [], []
    for idx, row in enumerate(rows):
        work = row
        for pc, prow in echelon:
            f = work[pc]
            if f:
                p = prow[pc]
                work = [p * a - f * b for a, b in zip(work, prow)]
        pivot = next((c for c, x in enumerate(work) if x), None)
        if pivot is None:
            continue
        echelon.append((pivot, primitive_integer(work)))
        picked.append((idx, row))
        if len(picked) == r:
            break
    return picked


def scaled_inverse(square):
    """(M, d) with M = d * B^-1 for an invertible integer matrix B.

    Fraction-free Gauss-Jordan on [B | I]; d is the last pivot, which is
    det B up to sign, and M is returned as a list of integer rows.
    """
    n = len(square)
    aug = [list(row) + [int(j == k) for j in range(n)] for k, row in enumerate(square)]
    reduced, _, d = _gauss_jordan(aug, n)
    return [row[n:] for row in reduced], d


def _starting_basis(rows, dim):
    """The first independent rows (greedily, in order), the lineality basis
    and the extreme rays of the pointed cone the chosen rows cut out.

    Ray k is column k of the inverse of the chosen rows stacked over the
    lineality basis, made primitive: it meets chosen row k positively and
    the other chosen rows and the lineality space in zero.
    """
    picked = independent_rows(rows, dim)
    chosen = [row for _, row in picked]
    lineality = _lineality(chosen, dim) if len(chosen) < dim else []
    inverse, d = scaled_inverse(chosen + lineality)
    if len(inverse) < dim:
        raise AssertionError("chosen rows and lineality basis are dependent")
    sign = 1 if d > 0 else -1
    rays = [primitive_integer([sign * row[k] for row in inverse]) for k in range(len(chosen))]
    return [idx for idx, _ in picked], rays, lineality


def cone_extreme_rays(rows, dim):
    """Extreme rays, lineality basis and row-ray incidence of
    {x in R^dim : r . x >= 0}.

    Rows may be redundant or duplicated; entries may be ints or rationals.
    Returns (rays, lineality, incidence).  Rays and lineality vectors are
    primitive integer tuples, rays sorted lexicographically; the cone
    equals nonnegative combinations of the rays plus arbitrary combinations
    of the lineality vectors.  incidence holds one int per input row, in
    input order: bit k is set when the row vanishes on rays[k].  A row and
    its positive multiples share one mask, and a zero row has every bit.
    """
    cleaned = []
    position = {}
    # per input row: its index in cleaned, or -1 for a zero row
    slots = []
    for row in rows:
        p = primitive_integer(row)
        if not any(p):
            slots.append(-1)
            continue
        j = position.get(p)
        if j is None:
            j = position[p] = len(cleaned)
            cleaned.append(p)
        slots.append(j)
    if not cleaned:
        identity = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        return [], identity, [0] * len(slots)

    basis_idx, rays, lineality = _starting_basis(cleaned, dim)
    r = len(rays)
    basis_bits = 0
    for i in basis_idx:
        basis_bits |= 1 << i
    masks = [basis_bits & ~(1 << basis_idx[k]) for k in range(r)]

    # masks[k] is exactly the set of processed rows that vanish on rays[k]:
    # a starting ray meets its own row positively and the other chosen rows
    # in zero, a kept ray gains the new row's bit when it vanishes on it,
    # and a ray combined from p and q with positive coefficients vanishes
    # on a processed row exactly when both of them do.
    basis_set = set(basis_idx)
    need = r - 2
    for idx, m in enumerate(cleaned):
        if idx in basis_set or not rays:
            continue
        bit = 1 << idx
        vals = [sum(map(mul, m, ray)) for ray in rays]
        if min(vals) >= 0:
            masks = [mask | bit if v == 0 else mask for mask, v in zip(masks, vals)]
            continue
        keep_rays, keep_masks = [], []
        plus, minus = [], []
        for entry in zip(masks, rays, vals):
            mask, ray, v = entry
            if v > 0:
                plus.append(entry)
                keep_rays.append(ray)
                keep_masks.append(mask)
            elif v == 0:
                keep_rays.append(ray)
                keep_masks.append(mask | bit)
            else:
                minus.append(entry)
        for p_mask, p_ray, p_val in plus:
            for q_mask, q_ray, q_val in minus:
                common = p_mask & q_mask
                if common.bit_count() < need:
                    continue
                # Adjacent unless a third ray vanishes on every row that p
                # and q share; p and q themselves always do.
                on_common = 0
                for mask in masks:
                    if mask & common == common:
                        on_common += 1
                        if on_common > 2:
                            break
                else:
                    # a positive combination of two independent integer
                    # rays: integer and never zero
                    combined = tuple(p_val * b - q_val * a for a, b in zip(p_ray, q_ray))
                    g = gcd(*combined)
                    keep_rays.append(tuple(x // g for x in combined) if g > 1 else combined)
                    keep_masks.append(common | bit)
        rays, masks = keep_rays, keep_masks

    # Transposed, the masks give each cleaned row the set of sorted rays it
    # vanishes on.
    result = sorted(zip(rays, masks))
    by_row = [0] * len(cleaned)
    for k, (_, mask) in enumerate(result):
        bit = 1 << k
        while mask:
            low = mask & -mask
            by_row[low.bit_length() - 1] |= bit
            mask ^= low
    every = (1 << len(result)) - 1
    incidence = [by_row[j] if j >= 0 else every for j in slots]
    return [ray for ray, _ in result], sorted(lineality), incidence
