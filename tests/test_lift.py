from importlib import import_module

import pytest

from coconvex import cli
from coconvex.cones import make_coconvex, make_cone
from coconvex.errors import CoconvexError, DimensionMismatch, InvalidTruncation
from coconvex.forms import co_volume_polynomial, make_coconvex_family
from coconvex.harness import SplitMix64, gen_coconvex_family
from coconvex.jsonio import coconvex_family_to_json, dump_json
from coconvex.lift import (
    lift,
    lifted_body,
    lifted_body_materialized,
    lifted_volume_polynomial,
    quadratic_blocks,
    sector_constant,
    verify_identity_Q,
    verify_identity_V,
    verify_signature_argument,
)
from coconvex.polynomial import HomogeneousPolynomial
from coconvex.polytope import convex_hull, minkowski_sum, volume
from coconvex.rational import Rat


def _blocks(lf):
    """(q_lift, q_base) from the lifted and base volume polynomials, each
    from its own route."""
    return quadratic_blocks(lf, lifted_volume_polynomial(lf), co_volume_polynomial(lf.base))


@pytest.fixture
def triangle_lift(corner_triangle):
    return lift(make_coconvex_family([corner_triangle]))


@pytest.fixture
def pair_lift(corner_triangle):
    double = make_coconvex(corner_triangle.cone, corner_triangle.complement.scale(2))
    return lift(make_coconvex_family([corner_triangle, double]))


@pytest.fixture
def simplex_lift(corner_simplex):
    return lift(make_coconvex_family([corner_simplex]))


def test_lift_window_and_marked(triangle_lift, pair_lift):
    assert triangle_lift.thresholds == (1,)
    assert pair_lift.thresholds == (1, 2)
    assert triangle_lift.lifted_marked == ()
    # no marked levels: c' is c
    assert triangle_lift.c_prime == triangle_lift.c


def test_lift_marked_levels(simplex_lift):
    # base marked vector (1,) paired with the mid-window level 2
    assert simplex_lift.lifted_marked == (((1,), 2),)
    assert simplex_lift.c_prime == Rat(1, 6) * 2


def test_sector_constant(triangle_lift, simplex_lift):
    for lf, c in ((triangle_lift, Rat(1, 2)), (simplex_lift, Rat(1, 6))):
        assert sector_constant(lf.base.cone) == lf.c == c


def test_lifted_body_is_the_trapezoid(triangle_lift):
    body = lifted_body(triangle_lift, (1,), 3)
    assert set(body.vertices) == {(0, 1), (0, 3), (1, 0), (3, 0)}
    assert volume(body) == 4


def test_lifted_body_checks_cutoff(triangle_lift):
    with pytest.raises(InvalidTruncation):
        lifted_body(triangle_lift, (1,), 1)
    with pytest.raises(InvalidTruncation):
        lifted_body(triangle_lift, (3,), 3)  # threshold scales with lam
    with pytest.raises(CoconvexError):
        lifted_body(triangle_lift, (0,), 3)


def test_lift_rejects_coefficients_of_wrong_length(pair_lift):
    # the same message and error type as the forms raise for a wrong-length lam
    for lam in [(1,), (1, 1, 1)]:
        with pytest.raises(DimensionMismatch):
            lifted_body(pair_lift, lam, 3)


def test_materialized_route_agrees(triangle_lift, pair_lift):
    for lf, lam, t in (
        (triangle_lift, (1,), 3),
        (triangle_lift, (2,), Rat(7, 2)),
        (pair_lift, (1, 1), 4),
        (pair_lift, (1, 2), 8),
    ):
        assert lifted_body_materialized(lf, lam, t) == lifted_body(lf, lam, t)


def test_lifted_volume_polynomial_triangle(triangle_lift):
    P = lifted_volume_polynomial(triangle_lift)
    assert P.coeffs == {(0, 2): Rat(1, 2), (2, 0): Rat(-1, 2)}


def test_lifted_volume_polynomial_pair(pair_lift):
    P = lifted_volume_polynomial(pair_lift)
    # cutoff volume minus the base polynomial at the sample used in the report
    assert P.evaluate((1, 1, 4)) == Rat(8) - Rat(9, 2)


def test_recovered_base_polynomial(triangle_lift, pair_lift, simplex_lift):
    # the lifted polynomial is exactly c * t^d minus the base one, with no
    # mixed term
    for lf in (triangle_lift, pair_lift, simplex_lift):
        base = co_volume_polynomial(lf.base)
        n, d = base.nvars, base.degree
        expected = {(0,) * n + (d,): lf.c}
        expected.update({k + (0,): -v for k, v in base.coeffs.items()})
        assert lifted_volume_polynomial(lf) == HomogeneousPolynomial(n + 1, d, expected)


def test_identity_V(triangle_lift, pair_lift, simplex_lift):
    for lf in (triangle_lift, pair_lift, simplex_lift):
        report = verify_identity_V(lf, co_volume_polynomial(lf.base))
        assert report == {
            "identity": "V",
            "status": "ok",
            "samples": report["samples"],
            "counterexample": None,
        }
        assert report["samples"] >= 5


def test_routes_build_each_complement_once(monkeypatch):
    # d = 3, n = 2: each complement is one sum, and the lifted grid and the
    # five default V samples ask six distinct lam between them; the base
    # route cuts the generators and builds no combination.
    fam = gen_coconvex_family(SplitMix64(5), 3, 2, 3)
    calls = []

    def counting(P, Q):
        calls.append((P, Q))
        return minkowski_sum(P, Q)

    monkeypatch.setattr(import_module("coconvex.forms"), "minkowski_sum", counting)
    lf = lift(fam)
    base = co_volume_polynomial(fam)
    lifted_volume_polynomial(lf)
    report = verify_identity_V(lf, base)
    assert report["status"] == "ok" and report["samples"] == 5
    assert len(calls) == len(fam.complements) == 6


def test_identity_V_detects_wrong_base(triangle_lift):
    wrong = HomogeneousPolynomial(1, 2, {(2,): Rat(1, 3)})
    report = verify_identity_V(triangle_lift, wrong)
    assert report["status"] == "fail"
    ce = report["counterexample"]
    assert set(ce) == {"lam", "t", "lifted_volume", "cutoff_minus_covolume"}


def test_identity_Q(triangle_lift, pair_lift, simplex_lift):
    for lf in (triangle_lift, pair_lift, simplex_lift):
        report = verify_identity_Q(lf, *_blocks(lf))
        assert report["status"] == "ok"
        assert report["counterexample"] is None


def test_identity_Q_detects_tampering(triangle_lift):
    tampered = HomogeneousPolynomial(2, 2, {(0, 2): Rat(1, 2), (2, 0): Rat(1, 2)})
    base = co_volume_polynomial(triangle_lift.base)
    report = verify_identity_Q(triangle_lift, *quadratic_blocks(triangle_lift, tampered, base))
    assert report["status"] == "fail"
    entries = report["counterexample"]["entries"]
    assert entries and all(set(e) == {"row", "col", "got", "expected"} for e in entries)


def test_signature_argument(triangle_lift, pair_lift, simplex_lift):
    for lf in (triangle_lift, pair_lift, simplex_lift):
        report = verify_signature_argument(lf, *_blocks(lf))
        assert report["status"] == "ok"
        assert report["samples"] == 4


def test_signature_argument_detects_tampering(pair_lift):
    # flip only the base block so the lifted form gains a positive square
    good = lifted_volume_polynomial(pair_lift)
    flipped = {e: (-c if e[-1] == 0 else c) for e, c in good.coeffs.items()}
    tampered = HomogeneousPolynomial(good.nvars, good.degree, flipped)
    base = co_volume_polynomial(pair_lift.base)
    report = verify_signature_argument(pair_lift, *quadratic_blocks(pair_lift, tampered, base))
    assert report["status"] == "fail"
    assert "lifted_form_one_positive" in report["counterexample"]["failed"]


def test_lift_on_slanted_cone():
    cone = make_cone([(1, 0), (1, 2)])
    K = convex_hull([(1, 0), (1, 2)], rays=cone.rays)
    fam = make_coconvex_family([make_coconvex(cone, K)])
    lf = lift(fam)
    q_lift, q_base = _blocks(lf)
    for name, report in (
        ("V", verify_identity_V(lf, co_volume_polynomial(fam))),
        ("Q", verify_identity_Q(lf, q_lift, q_base)),
        ("sig", verify_signature_argument(lf, q_lift, q_base)),
    ):
        assert report["status"] == "ok", name


def test_lift_verify_derives_each_intermediate_once(monkeypatch, tmp_path):
    # d = 3, n = 2: one quadratic form per polynomial, shared by the Q and
    # signature verifiers, and one sector constant in lift plus one in the
    # base polynomial.  The base route measures its own sector on purpose:
    # reading lift's c would tie the two sides of identity V to one value,
    # so a wrong c could no longer show as a failed sample.
    fam = gen_coconvex_family(SplitMix64(5), 3, 2, 3)
    path = tmp_path / "family.json"
    path.write_text(dump_json(coconvex_family_to_json(fam)), encoding="utf-8")
    calls = {
        ("lift", "sector_constant"): 0,
        ("lift", "polynomial_af_forms"): 0,
        ("forms", "sector_constant"): 0,
    }

    def counting(key):
        real = getattr(import_module(f"coconvex.{key[0]}"), key[1])

        def wrapper(*args):
            calls[key] += 1
            return real(*args)

        return wrapper

    for key in calls:
        monkeypatch.setattr(import_module(f"coconvex.{key[0]}"), key[1], counting(key))
    assert cli.main(["lift-verify", str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert calls == {
        ("lift", "sector_constant"): 1,
        ("lift", "polynomial_af_forms"): 2,
        ("forms", "sector_constant"): 1,
    }
