"""Double description: generator form of a cone given by inequalities.

cone_extreme_rays converts {x : a . x >= 0 for each row a} into its extreme
rays plus a lineality basis, and returns with them the row-ray incidence:
one bitmask per input row, whose bit k is set when the row vanishes on the
k-th ray of the sorted output.  Both directions of the polytope conversions
(vertices to facets and back) reduce to this one routine applied to
homogenized data, which keeps the exact-arithmetic core small.

The kernel is integer-only.  Input rows are first scaled to primitive
integer vectors; from then on every quantity is a Python int and no
rational is ever built.  Its one elimination, `greedy_inverse`, is
fraction-free Gauss-Jordan in the style of Bareiss (1968), as in cddlib's
exact mode and Fukuda-Prodon, "Double description method revisited"
(1996), run incrementally: the pivot rows are always d times the reduced
row echelon rows of the rows taken so far, with d their last pivot, so
every entry is, up to sign, a minor of the input matrix, each division is
exact and the entries stay as small as those minors.  Because only the
direction of each vector matters and every output is made primitive, the
results are exactly those of rational elimination: the same lineality
vectors and rays, bit for bit.

The kernel works in its input coordinates.  One pass picks the first
independent rows greedily, reads the lineality basis off their echelon and
completes the inverse of the picks stacked over that basis; the inverse's
columns for the picked rows are the starting rays.  Each is orthogonal to
the lineality space, so it lies in the row space, where the cone is
pointed, and so does every positive combination of rays that the
insertion builds: no change of basis is needed.

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


def greedy_inverse(rows, n):
    """(picked, lineality, M, d) from one fraction-free pass over [S | I].

    rows is an iterable of integer rows of length n.  picked holds the
    indices of the first rows independent of those before them, greedily in
    order, as rational elimination picks them; no row past the n-th pick is
    drawn, so rows may be built lazily.  lineality is the basis of the space
    orthogonal to the picks that `linalg.nullspace_basis` returns: one
    vector per free column of their reduced row echelon form, made
    primitive and sign-normalized.  M, a list of integer rows, is d * S^-1
    for S the picks stacked over the lineality basis.

    Each row x taken, carried with the unit row of its place in S, becomes
    x' = d x - sum x[c] M_c over the pivot rows M_c and their pivot columns
    c; a row with x' zero in its first n entries is dependent.  Otherwise
    the first nonzero column j of x' is a new pivot, every pivot row becomes
    (x'[j] M_c - M_c[j] x') / d, an exact division, and d becomes x'[j].
    The pivot rows are then still d times reduced row echelon rows, zero
    left of their pivots, so the pivot set is that of the echelon form.
    """
    pivots = {}
    d = 1

    def take(x, place):
        nonlocal d
        work = [d * a for a in x] + [d if j == place else 0 for j in range(n)]
        for c, prow in pivots.items():
            f = x[c]
            if f:
                work = [a - f * b for a, b in zip(work, prow)]
        col = next((j for j in range(n) if work[j]), None)
        if col is None:
            return False
        p = work[col]
        for c, prow in pivots.items():
            f = prow[col]
            pivots[c] = [(p * a - f * b) // d for a, b in zip(prow, work)]
        pivots[col] = work
        d = p
        return True

    picked = []
    for idx, row in enumerate(rows):
        if take(row, len(picked)):
            picked.append(idx)
            if len(picked) == n:
                break
    lineality = []
    for fc in range(n):
        if fc not in pivots:
            vec = [0] * n
            vec[fc] = d
            for c, prow in pivots.items():
                vec[c] = -prow[fc]
            lineality.append(sign_normalized(primitive_integer(vec)))
    for place, vec in enumerate(lineality, len(picked)):
        if not take(vec, place):
            raise AssertionError("picked rows and lineality basis are dependent")
    return picked, lineality, [prow[n:] for _, prow in sorted(pivots.items())], d


def _starting_basis(rows, dim):
    """The first independent rows (greedily, in order), the lineality basis
    and the extreme rays of the pointed cone the chosen rows cut out.

    Ray k is column k of the inverse of the chosen rows stacked over the
    lineality basis, made primitive: it meets chosen row k positively and
    the other chosen rows and the lineality space in zero.
    """
    picked, lineality, inverse, d = greedy_inverse(rows, dim)
    sign = 1 if d > 0 else -1
    rays = [primitive_integer([sign * row[k] for row in inverse]) for k in range(len(picked))]
    return picked, rays, lineality


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
