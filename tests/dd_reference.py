"""The rational double description kernel, kept as a test oracle.

This is the `Fraction`-based `cone_extreme_rays` (and the `primitive_integer`
it used) that the fraction-free kernel in `coconvex.dd` replaced.  It runs
every elimination through `Rat` via the rational `linalg` routines, so it is
slow but independent of the integer code it checks.  Differential tests
require both kernels to return identical `(rays, lineality)`.

`_incidence_masks` is the per-row dot-product incidence that
`coconvex.polytope` computed before the kernel returned its own; it is the
oracle for the kernel's third return value.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from coconvex.linalg import (
    dot,
    independent_row_indices,
    invert_matrix,
    nullspace_basis,
    rref,
    sign_normalized,
)
from coconvex.rational import Rat


def primitive_integer(vec) -> tuple[int, ...]:
    """Scale by a positive rational so entries become coprime integers.

    Direction is preserved; the zero vector maps to itself.
    """
    den = 1
    for x in vec:
        den = lcm(den, int(Rat(x).denominator))
    ints = [int(Rat(x) * den) for x in vec]
    g = 0
    for i in ints:
        g = gcd(g, abs(i))
    if g > 1:
        ints = [i // g for i in ints]
    return tuple(ints)


def cone_extreme_rays(rows, dim):
    """Extreme rays and lineality basis of {x in R^dim : r . x >= 0}.

    Rows may be redundant or duplicated; entries may be ints or rationals.
    Returns (rays, lineality) as primitive integer tuples, rays sorted
    lexicographically.  The cone equals nonnegative combinations of the
    rays plus arbitrary combinations of the lineality vectors.
    """
    cleaned = []
    seen = set()
    for row in rows:
        p = primitive_integer(row)
        if all(c == 0 for c in p) or p in seen:
            continue
        seen.add(p)
        cleaned.append(p)
    if not cleaned:
        identity = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        return [], identity

    lineality = nullspace_basis(cleaned, dim)
    r = dim - len(lineality)
    if r == 0:
        return [], sorted(lineality)

    # Work in coordinates on the row space: x = sum_j u_j * W_j.  The
    # reduced cone {u : M u >= 0} is pointed because W spans the row space.
    w_basis = [primitive_integer(w) for w in rref(cleaned, dim)[0]]
    m_rows = [tuple(dot(a, w) for w in w_basis) for a in cleaned]

    basis_idx = independent_row_indices(m_rows, r, limit=r)
    if len(basis_idx) < r:
        raise AssertionError("rank drop in reduced constraint system")
    inverse = invert_matrix([m_rows[i] for i in basis_idx])
    rays = [primitive_integer(tuple(inverse[i][k] for i in range(r))) for k in range(r)]
    basis_bits = 0
    for i in basis_idx:
        basis_bits |= 1 << i
    masks = [basis_bits & ~(1 << basis_idx[k]) for k in range(r)]

    basis_set = set(basis_idx)
    for idx, m in enumerate(m_rows):
        if idx in basis_set or not rays:
            continue
        bit = 1 << idx
        vals = [dot(m, ray) for ray in rays]
        if all(v >= 0 for v in vals):
            masks = [mask | bit if v == 0 else mask for mask, v in zip(masks, vals)]
            continue
        keep_rays, keep_masks = [], []
        plus, minus = [], []
        for k, v in enumerate(vals):
            if v > 0:
                plus.append(k)
                keep_rays.append(rays[k])
                keep_masks.append(masks[k])
            elif v == 0:
                keep_rays.append(rays[k])
                keep_masks.append(masks[k] | bit)
            else:
                minus.append(k)
        for p in plus:
            for q in minus:
                common = masks[p] & masks[q]
                if common.bit_count() < r - 2:
                    continue
                if any(
                    k not in (p, q) and common & ~masks[k] == 0
                    for k in range(len(rays))
                ):
                    continue
                combined = tuple(
                    vals[p] * b - vals[q] * a for a, b in zip(rays[p], rays[q])
                )
                keep_rays.append(primitive_integer(combined))
                keep_masks.append(common | bit)
        rays, masks = keep_rays, keep_masks

    mapped = []
    for ray in rays:
        vec = [0] * dim
        for coeff, w in zip(ray, w_basis):
            for j in range(dim):
                vec[j] += coeff * w[j]
        mapped.append(primitive_integer(vec))
    return sorted(mapped), sorted(sign_normalized(v) for v in lineality)


def _incidence_masks(vectors, rays) -> list[int]:
    """One bitmask per integer vector: bit i is set when the vector vanishes
    on ray i."""
    masks = []
    for g in vectors:
        mask = 0
        for i, y in enumerate(rays):
            if not sum(map(mul, g, y)):
                mask |= 1 << i
        masks.append(mask)
    return masks
