"""Acceptance gate.

Each numbered requirement below runs at full population size with exact
arithmetic and zero tolerance, and emits one visible PASS/FAIL line, even
under captured output.
"""

import time

import pytest

from coconvex.cones import make_coconvex, make_cone
from coconvex.forms import (
    co_af_form,
    co_volume_polynomial,
    cs_check,
    generalized_rbm_check,
    make_coconvex_family,
    mink1_check,
    mink2_check,
    af_form,
    make_convex_family,
    polynomial_af_forms,
    reversed_bm_check,
    reversed_cs_check,
    volume_polynomial,
    volume_polynomial_interpolated,
)
from coconvex.harness import (
    ExperimentConfig,
    SplitMix64,
    gen_coconvex_family,
    gen_convex_body,
    gen_convex_family,
    gen_positive_vector,
    gen_vector,
    run_suite,
)
from coconvex.jsonio import dump_json
from coconvex.lift import (
    lift,
    lifted_body,
    lifted_volume_polynomial,
    quadratic_blocks,
    sector_constant,
    verify_identity_Q,
    verify_identity_V,
    verify_signature_argument,
)
from coconvex.polynomial import HomogeneousPolynomial, signature
from coconvex.polytope import convex_hull, volume
from coconvex.rational import Rat


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    # verdict lines must reach the terminal even under captured output
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _verdict(index: int, label: str, ok: bool) -> None:
    line = f"criterion {index} ({label}): {'PASS' if ok else 'FAIL'}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(f"\n{line}", flush=True)
    else:
        print(f"\n{line}", flush=True)
    assert ok, f"criterion {index} ({label}) failed"


GRID = [(d, n) for d in (2, 3) for n in (2, 3)]


@pytest.fixture(scope="module")
def convex_population():
    """100 seeded convex families, 25 per (dimension, generator count) cell,
    with their quadratic forms computed once."""
    out = []
    for d, n in GRID:
        for k in range(25):
            rng = SplitMix64(202).derive(f"convex:{d}:{n}:{k}")
            fam = gen_convex_family(rng, d, n, 3)
            B, Q = af_form(fam)
            out.append((fam, B, Q))
    return out


@pytest.fixture(scope="module")
def coconvex_population():
    """100 seeded coconvex families with volume polynomial and forms."""
    out = []
    for d, n in GRID:
        for k in range(25):
            rng = SplitMix64(204).derive(f"coconvex:{d}:{n}:{k}")
            fam = gen_coconvex_family(rng, d, n, 3)
            P = co_volume_polynomial(fam)
            B, Q = polynomial_af_forms(P, fam.marked)
            out.append((fam, P, B, Q))
    return out


def test_criterion_1_two_route_volume_polynomial():
    start = time.monotonic()
    checked = 0
    ok = True
    for d in (2, 3):
        for k in range(100):
            rng = SplitMix64(201).derive(f"pair:{d}:{k}")
            fam = make_convex_family(
                [gen_convex_body(rng, d, 3), gen_convex_body(rng, d, 3)]
            )
            if volume_polynomial(fam) != volume_polynomial_interpolated(fam):
                ok = False
                break
            checked += 1
    elapsed = time.monotonic() - start
    ok = ok and checked == 200 and elapsed < 60
    _verdict(1, "volume polynomial, two independent routes, 200 pairs", ok)


def test_criterion_2_convex_cross_term_inequality(convex_population):
    ok = len(convex_population) == 100
    for idx, (fam, B, _) in enumerate(convex_population):
        rng = SplitMix64(203).derive(f"samples:{idx}")
        n = len(fam.generators)
        for _ in range(10):
            u1 = gen_vector(rng, n)
            u2 = gen_positive_vector(rng, n)
            if not reversed_cs_check(B, u1, u2):
                ok = False
    _verdict(2, "cross-term inequality on 100 convex families x 10 pairs", ok)


def test_criterion_3_convex_signature(convex_population):
    ok = len(convex_population) == 100
    for _, _, Q in convex_population:
        if signature(Q).pos != 1:
            ok = False
    _verdict(3, "convex quadratic form has exactly one positive square", ok)


def test_criterion_4_coconvex_form_nonnegative(coconvex_population):
    ok = len(coconvex_population) == 100
    for idx, (fam, _, B, Q) in enumerate(coconvex_population):
        if signature(Q).neg != 0:
            ok = False
        rng = SplitMix64(205).derive(f"samples:{idx}")
        n = len(fam.generators)
        for _ in range(10):
            if not cs_check(B, gen_vector(rng, n), gen_vector(rng, n)):
                ok = False
    _verdict(4, "coconvex form nonnegative, direct inequality on 10 pairs each", ok)


def test_criterion_5_lifting_identities():
    ok = True
    count = 0
    for d in (2, 3):
        for k in range(25):
            rng = SplitMix64(206).derive(f"lift:{d}:{k}")
            fam = gen_coconvex_family(rng, d, 1 + k % 2, 2)
            lf = lift(fam)
            base = co_volume_polynomial(fam)
            q_lift, q_base = quadratic_blocks(lf, lifted_volume_polynomial(lf), base)
            rv = verify_identity_V(lf, base)
            rq = verify_identity_Q(lf, q_lift, q_base)
            rs = verify_signature_argument(lf, q_lift, q_base)
            if rv["samples"] < 5:
                ok = False
            if any(r["status"] != "ok" for r in (rv, rq, rs)):
                ok = False
            count += 1
    ok = ok and count == 50
    _verdict(5, "lifting identities and signature chain on 50 families", ok)


def test_criterion_6_derived_inequalities(coconvex_population):
    ok = len(coconvex_population) == 100
    steps = (Rat(0), Rat(1, 4), Rat(1, 2), Rat(3, 4), Rat(1))
    for idx, (fam, P, _, _) in enumerate(coconvex_population):
        rng = SplitMix64(207).derive(f"samples:{idx}")
        n = len(fam.generators)
        d = fam.dim
        u = gen_positive_vector(rng, n)
        v = gen_positive_vector(rng, n)
        if not all(reversed_bm_check(P, u, v, t) for t in steps):
            ok = False
        for k in sorted({1, d - 2} & set(range(1, d))):
            dirs = [gen_positive_vector(rng, n) for _ in range(k)]
            if not generalized_rbm_check(P, dirs, u, v):
                ok = False
        if not mink1_check(P, u, v):
            ok = False
        if not mink2_check(P, u, gen_vector(rng, n)):
            ok = False
    _verdict(6, "root convexity and power inequalities on the population", ok)


def test_criterion_7_worked_example():
    cone = make_cone([(1, 0), (0, 1)])
    K = convex_hull([(1, 0), (0, 1)], rays=cone.rays)
    fam = make_coconvex_family([make_coconvex(cone, K)])
    ok = co_volume_polynomial(fam) == HomogeneousPolynomial(1, 2, {(2,): Rat(1, 2)})
    _, Q = co_af_form(fam)
    ok = ok and Q == ((Rat(1),),)
    lf = lift(fam)
    c = sector_constant(fam.cone)
    ok = ok and c == lf.c == Rat(1, 2)
    cp = c
    for _, s in lf.lifted_marked:
        cp = cp * s
    ok = ok and cp == lf.c_prime == Rat(1, 2)
    trapezoid = lifted_body(lf, (1,), 3)
    ok = ok and volume(trapezoid) == 4
    ok = ok and c * Rat(9) - Rat(1, 2) == 4
    _verdict(7, "worked corner-triangle example, all frozen values", ok)


def test_criterion_8_reproducible_suite():
    cfg = ExperimentConfig(seed=7)
    rep1 = run_suite(cfg)
    rep2 = run_suite(cfg)
    j1, j2 = rep1.to_json(), rep2.to_json()
    j1.pop("wall_time"), j2.pop("wall_time")
    ok = dump_json(j1) == dump_json(j2)
    ok = ok and rep1.all_passed()
    _verdict(8, "seed-7 suite byte-identical modulo wall time", ok)
