"""Lifting a coconvex family to a convex one, and the bridge identities.

For a coconvex family over cone C with positivity functional xi, each
combination body leaves a bounded region between the cone and its
complement.  Cutting the cone at level t and removing that region gives a
genuine convex polytope: the lifted body at (lam, t).  Lifted bodies form a
convex family in one extra variable, and two exact identities tie the two
families together:

    (V)  vol(lifted body at (lam, t)) = c * t^d - covol(lam)
    (Q)  lifted quadratic matrix      = blockdiag(-base quadratic, 2 c')

with c the volume of the unit cone sector and c' = c times the product of
the marked levels, both computed once, in `lift`.  The verifiers compare
exactly the two sides, which the caller computes once through independent
code paths: the lifted polynomial with lifted_volume_polynomial, the base
one with forms.co_volume_polynomial, the blocks with quadratic_blocks.
The signature bookkeeping that turns (Q) into nonnegativity of the base
form is checked last.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import _check_cutoff, cone_polyhedron, sector_constant, truncation_threshold
from .errors import CoconvexError
from .forms import CoconvexFamily, co_combination_body, polynomial_af_forms
from .polynomial import (
    HomogeneousPolynomial,
    Signature,
    fit_homogeneous,
    signature,
    tensor_grid,
)
from .polytope import Halfspace, Polyhedron, clip, dd_convert, dd_convert_back, volume
from .rational import Rat, rat, rat_str


@dataclass(frozen=True)
class LiftedFamily:
    """Coconvex base plus the cutoff data that makes lifted bodies convex:
    each generator's complement threshold, c, c' and the marked levels, one
    past the largest threshold.  Cuts are level sets of base.cone.xi, and
    each (lam, t) is checked against its own combination's threshold."""

    base: CoconvexFamily
    thresholds: tuple
    c: Rat
    c_prime: Rat
    lifted_marked: tuple


def lift(fam: CoconvexFamily) -> LiftedFamily:
    """Build the lifted family, cut by the cone's xi (positive on every ray)."""
    thresholds = tuple(truncation_threshold(g.complement, fam.cone.xi) for g in fam.generators)
    s, c = max(thresholds) + 1, sector_constant(fam.cone)
    marked = tuple((v, s) for v in fam.marked)
    return LiftedFamily(fam, thresholds, c, c * s ** len(marked), marked)


def lifted_body(lf: LiftedFamily, lam, t) -> Polyhedron:
    """The convex body at (lam, t): combination complement cut at level t,
    once t clears its vertices."""
    t = rat(t)
    K = co_combination_body(lf.base, lam).complement
    _check_cutoff(K, lf.base.cone.xi, t)
    return clip(K, Halfspace.make(lf.base.cone.xi, t))


def lifted_body_materialized(lf: LiftedFamily, lam, t) -> Polyhedron:
    """Independent construction of the same body by facet intersection.

    Joins the facet systems of the cone sector and of the combination
    complement and converts back to vertices.  Agreement with lifted_body
    doubles as a convexity certificate for the region the cut leaves behind.
    """
    t = rat(t)
    K = co_combination_body(lf.base, lam).complement
    _check_cutoff(K, lf.base.cone.xi, t)
    sector = clip(cone_polyhedron(lf.base.cone), Halfspace.make(lf.base.cone.xi, t))
    halfspaces = sorted(set(dd_convert(sector)) | set(dd_convert(K)),
                        key=lambda h: (h.normal, h.bound))
    return dd_convert_back(tuple(halfspaces), lf.base.cone.dim)


def lifted_volume_polynomial(lf: LiftedFamily) -> HomogeneousPolynomial:
    """Volume of the lifted body as a homogeneous degree-d polynomial in
    (lam_1..lam_n, t), recovered by exact interpolation.

    The t-axis of the grid starts above every threshold reachable with
    lam-coordinates up to d+1, so all evaluations are valid bodies.
    """
    n = len(lf.base.generators)
    d = lf.base.dim
    floor_t = 1 + (d + 1) * sum(lf.thresholds)
    axes = [range(1, d + 2)] * n + [[floor_t + k for k in range(d + 1)]]

    def value(point):
        K = co_combination_body(lf.base, point[:n]).complement
        return volume(clip(K, Halfspace.make(lf.base.cone.xi, point[n])))

    return fit_homogeneous(n + 1, d, tensor_grid(axes), value)


def recovered_base_polynomial(
    lf: LiftedFamily, lifted_poly: HomogeneousPolynomial
) -> HomogeneousPolynomial:
    """Read the base volume polynomial off the lifted one.

    The lifted polynomial must be exactly c * t^d minus a t-free part; any
    other shape falsifies identity (V) and raises.
    """
    n = len(lf.base.generators)
    d = lf.base.dim
    out = {}
    seen_pure = False
    for exps, coef in lifted_poly.coeffs.items():
        base_exps, te = exps[:-1], exps[-1]
        if te == 0:
            out[base_exps] = -coef
        elif te == d:
            seen_pure = True
            if coef != lf.c:
                raise CoconvexError(
                    f"pure cutoff term has coefficient {coef}, sector constant is {lf.c}"
                )
        else:
            raise CoconvexError(f"mixed term {exps} should not appear in a lifted volume")
    if not seen_pure and lf.c != 0:
        raise CoconvexError("pure cutoff term missing from the lifted volume")
    return HomogeneousPolynomial(n, d, out)


def _default_samples(lf: LiftedFamily, count: int):
    """(lam, t) per default sample, t one or two past lam's own threshold."""
    n = len(lf.base.generators)
    out = []
    for j in range(count):
        lam = [1] * n
        if j:
            lam[(j - 1) % n] += 1 + (j - 1) // n
        K = co_combination_body(lf.base, lam).complement
        out.append((tuple(lam), truncation_threshold(K, lf.base.cone.xi) + 1 + (j % 2)))
    return out


def verify_identity_V(lf: LiftedFamily, base_poly, samples=None) -> dict:
    """Check vol(lifted body) = c * t^d - covol(lam) at every sample.

    The left side is a direct polytope volume; the right side evaluates
    base_poly, the base polynomial (co_volume_polynomial of lf.base, which
    measures its own sector constant).  First mismatch is reported in full.
    """
    d = lf.base.dim
    if samples is None:
        samples = _default_samples(lf, 5)
    checked = 0
    counterexample = None
    for lam, t in samples:
        lam, t = tuple(map(rat, lam)), rat(t)
        lhs = volume(lifted_body(lf, lam, t))
        rhs = lf.c * t**d - base_poly.evaluate(lam)
        checked += 1
        if lhs != rhs:
            counterexample = {
                "lam": [rat_str(x) for x in lam],
                "t": rat_str(t),
                "lifted_volume": rat_str(lhs),
                "cutoff_minus_covolume": rat_str(rhs),
            }
            break
    return {
        "identity": "V",
        "status": "fail" if counterexample else "ok",
        "samples": checked,
        "counterexample": counterexample,
    }


def quadratic_blocks(lf: LiftedFamily, lifted_poly, base_poly):
    """(q_lift, q_base): the quadratic matrices of the lifted and base
    polynomials at their marked vectors, built once for both verifiers."""
    vectors = [tuple(v) + (s,) for v, s in lf.lifted_marked]
    _, q_lift = polynomial_af_forms(lifted_poly, vectors)
    _, q_base = polynomial_af_forms(base_poly, lf.base.marked)
    return q_lift, q_base


def verify_identity_Q(lf: LiftedFamily, q_lift, q_base) -> dict:
    """Entry-wise check of the block shape of the lifted quadratic matrix:
    the base block is the negated base quadratic, the cutoff block is 2c',
    and the two never mix."""
    n = len(lf.base.generators)
    mismatches = []
    for i in range(n + 1):
        for j in range(n + 1):
            if i < n and j < n:
                want = -q_base[i][j]
            elif i == n and j == n:
                want = 2 * lf.c_prime
            else:
                want = Rat(0)
            got = q_lift[i][j]
            if got != want:
                mismatches.append(
                    {"row": i, "col": j, "got": rat_str(got), "expected": rat_str(want)}
                )
    return {
        "identity": "Q",
        "status": "fail" if mismatches else "ok",
        "samples": (n + 1) ** 2,
        "counterexample": {"entries": mismatches} if mismatches else None,
    }


def _combine(a: Signature, b: Signature) -> Signature:
    return Signature(a.pos + b.pos, a.neg + b.neg, a.zero + b.zero)


def verify_signature_argument(lf: LiftedFamily, q_lift, q_base) -> dict:
    """Signature bookkeeping: the lifted form has exactly one positive
    square, the cutoff block contributes (1,0), the rest is the negated base
    form, and additivity over the disjoint variable split forces the base
    form to have no negative squares."""
    sig_lift = signature(q_lift)
    sig_sector = signature(((2 * lf.c_prime,),))
    sig_negated = signature(tuple(tuple(-x for x in row) for row in q_base))
    sig_base = signature(q_base)
    relations = [
        ("lifted_form_one_positive", sig_lift.pos == 1),
        ("sector_block_positive", sig_sector.astuple() == (1, 0, 0)),
        ("additivity", sig_lift == _combine(sig_sector, sig_negated)),
        ("base_form_nonnegative", sig_base.neg == 0),
    ]
    failed = [name for name, ok in relations if not ok]
    counterexample = None
    if failed:
        counterexample = {
            "failed": failed,
            "lifted": list(sig_lift.astuple()),
            "sector": list(sig_sector.astuple()),
            "base_negated": list(sig_negated.astuple()),
            "base": list(sig_base.astuple()),
        }
    return {
        "identity": "signature",
        "status": "fail" if failed else "ok",
        "samples": len(relations),
        "counterexample": counterexample,
    }
