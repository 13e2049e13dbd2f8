from functools import reduce
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cone_reference
from coconvex import cli, cones, forms, polytope
from coconvex.dd import cone_extreme_rays
from coconvex.cones import co_sum, co_volume, make_coconvex, make_cone
from coconvex.errors import (
    CoconvexError,
    ConeMismatch,
    DimensionMismatch,
    EmptyInput,
    UnboundedPolyhedron,
)
from coconvex.forms import (
    CoconvexFamily,
    af_form,
    co_af_form,
    co_combination_body,
    co_volume_polynomial,
    combination_body,
    cs_check,
    derivative_chain,
    form_apply,
    make_coconvex_family,
    make_convex_family,
    mink1_check,
    mink2_check,
    mixed_volume,
    polynomial_af_forms,
    reversed_bm_check,
    reversed_cs_check,
    volume_polynomial,
    volume_polynomial_interpolated,
)
from coconvex.harness import (
    SplitMix64,
    gen_coconvex_family,
    gen_convex_family,
    gen_positive_vector,
)
from coconvex.jsonio import convex_family_to_json, dump_json
from coconvex.polynomial import (
    HomogeneousPolynomial,
    monomial_exponents,
    multinomial,
    signature,
)
from coconvex.polytope import convex_hull, minkowski_sum, volume
from coconvex.rational import Rat


def axis_box(sides):
    """Box [0, s_1] x ... x [0, s_d]."""
    d = len(sides)
    corners = []
    for mask in range(1 << d):
        corners.append(tuple(sides[j] if mask >> j & 1 else 0 for j in range(d)))
    return convex_hull(corners)


def box_mixed_volume(side_vectors):
    """Permanent formula for boxes: the only oracle needed to pin down the
    polarization, since volumes of box sums factor into linear forms."""
    d = len(side_vectors)
    total = Rat(0)
    for perm in permutations(range(d)):
        prod = Rat(1)
        for j, i in enumerate(perm):
            prod *= side_vectors[i][j]
        total += prod
    return total / factorial(d)


@pytest.fixture
def square_and_box(unit_square):
    return unit_square, axis_box((3, 2))


@pytest.fixture
def homothetic_squares(unit_square):
    return make_convex_family([unit_square, unit_square.scale(2)])


def test_mixed_volume_of_equal_bodies_is_volume(unit_square):
    assert mixed_volume([unit_square, unit_square]) == 1
    cube = axis_box((1, 1, 1))
    assert mixed_volume([cube, cube, cube]) == 1


def test_mixed_volume_square_and_box(square_and_box):
    sq, box = square_and_box
    assert mixed_volume([sq, box]) == box_mixed_volume([(1, 1), (3, 2)])
    assert mixed_volume([sq, box]) == Rat(5, 2)


def test_mixed_volume_three_boxes():
    sides = [(1, 2, 1), (2, 1, 3), (1, 1, 2)]
    bodies = [axis_box(s) for s in sides]
    assert mixed_volume(bodies) == box_mixed_volume(sides)


def test_mixed_volume_symmetry(square_and_box):
    sq, box = square_and_box
    assert mixed_volume([sq, box]) == mixed_volume([box, sq])


def test_mixed_volume_is_multilinear(square_and_box):
    sq, box = square_and_box
    assert mixed_volume([sq.scale(3), box]) == 3 * mixed_volume([sq, box])


def test_mixed_volume_translation_invariant(square_and_box):
    sq, box = square_and_box
    from coconvex.polytope import translate

    moved = translate(box, (Rat(-7, 3), 5))
    assert mixed_volume([sq, moved]) == mixed_volume([sq, box])


def plain_mixed_volume(bodies):
    """Inclusion-exclusion over all 2^d - 1 position subsets, each subset
    sum built from scratch."""
    d = len(bodies)
    total = Rat(0)
    for mask in range(1, 1 << d):
        picked = [P for i, P in enumerate(bodies) if mask >> i & 1]
        sign = -1 if (d - len(picked)) % 2 else 1
        total += sign * volume(reduce(minkowski_sum, picked))
    return total / factorial(d)


@pytest.mark.parametrize(
    "pattern",
    ["AB", "AA", "ABC", "AAB", "ABA", "BAA", "AAA", "ABCD", "ABCB", "AABB", "AAAB"],
)
def test_mixed_volume_matches_plain_inclusion_exclusion(pattern):
    # Each body is a corner simplex with rational legs plus one more point.
    d = len(pattern)
    rng = SplitMix64(len(pattern) * 100 + sum(map(ord, pattern)))
    pool = {}
    for name in sorted(set(pattern)):
        legs = [
            tuple(Rat(rng.int_between(1, 3), rng.int_between(1, 2)) * (i == j) for j in range(d))
            for i in range(d)
        ]
        extra = tuple(Rat(rng.int_between(-3, 3), rng.int_between(1, 2)) for _ in range(d))
        pool[name] = convex_hull([(0,) * d, extra, *legs])
    bodies = [pool[name] for name in pattern]
    assert mixed_volume(bodies) == plain_mixed_volume(bodies)


def test_mixed_volume_builds_each_multiset_sum_once(monkeypatch):
    # (A, A, B): A+A is the dilate 2A, and A+B, 2A+B are one sum each; the
    # position-subset route summed A+A, A+B twice and A+A+B.
    A = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    B = axis_box((1, 2, Rat(1, 2)))
    calls = []

    def counting(P, Q):
        calls.append((P, Q))
        return minkowski_sum(P, Q)

    monkeypatch.setattr(forms, "minkowski_sum", counting)
    assert mixed_volume([A, A, B]) == plain_mixed_volume([A, A, B])
    assert len(calls) == 2


def test_mixed_volume_runs_one_dd_pass_per_sum(monkeypatch):
    # In d = 3 each Minkowski sum is one DD pass, and volume reads the facets
    # every summand, dilate and sum carries, so it runs none.
    A = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    B = axis_box((1, 2, Rat(1, 2)))
    want = plain_mixed_volume([A, A, B])
    volume.cache_clear()
    sums, dd_calls = [], []

    def counting_sum(P, Q):
        sums.append((P, Q))
        return minkowski_sum(P, Q)

    def counting_dd(rows, dim):
        dd_calls.append(len(sums))
        return cone_extreme_rays(rows, dim)

    monkeypatch.setattr(forms, "minkowski_sum", counting_sum)
    monkeypatch.setattr(polytope, "cone_extreme_rays", counting_dd)
    assert mixed_volume([A, A, B]) == want
    assert len(sums) == 2
    assert dd_calls == [1, 2]


def test_mixed_volume_of_segments():
    s1 = convex_hull([(0, 0), (1, 0)])
    s2 = convex_hull([(0, 0), (0, 1)])
    assert mixed_volume([s1, s2]) == Rat(1, 2)
    assert mixed_volume([s1, s1]) == 0


def test_mixed_volume_input_validation(unit_square):
    with pytest.raises(EmptyInput):
        mixed_volume([])
    with pytest.raises(CoconvexError):
        mixed_volume([unit_square])  # needs exactly dim bodies
    unbounded = convex_hull([(0, 0)], rays=[(1, 0)])
    with pytest.raises(UnboundedPolyhedron):
        mixed_volume([unit_square, unbounded])


def test_volume_polynomial_square_and_box(square_and_box):
    fam = make_convex_family(list(square_and_box))
    P = volume_polynomial(fam)
    want = HomogeneousPolynomial(2, 2, {(2, 0): 1, (1, 1): 5, (0, 2): 6})
    assert P == want
    # evaluating at a combination equals the volume of the combination
    lam = (2, 3)
    assert P.evaluate(lam) == volume(combination_body(fam, lam))


def test_volume_polynomial_interpolation_agrees(square_and_box):
    fam = make_convex_family(list(square_and_box))
    assert volume_polynomial(fam) == volume_polynomial_interpolated(fam)


def test_volume_polynomial_interpolation_agrees_3d():
    bodies = [axis_box((1, 2, 1)), convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])]
    fam = make_convex_family(bodies)
    assert volume_polynomial(fam) == volume_polynomial_interpolated(fam)


def _per_monomial_polynomial(fam):
    """Oracle: each coefficient from its own position-subset mixed volume."""
    n, d = len(fam.generators), fam.dim
    coeffs = {}
    for exps in monomial_exponents(n, d):
        picked = [P for P, e in zip(fam.generators, exps) for _ in range(e)]
        coeffs[exps] = multinomial(exps) * plain_mixed_volume(picked)
    return HomogeneousPolynomial(n, d, coeffs)


@given(st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.integers(0, 2**32))
@settings(deadline=None, max_examples=25)
def test_cayley_polynomial_matches_per_monomial_oracle(d, n, seed):
    fam = gen_convex_family(SplitMix64(seed), d, n, 3)
    assert volume_polynomial(fam) == _per_monomial_polynomial(fam)


@given(st.sampled_from([1, 2]), st.integers(0, 2**32))
@settings(derandomize=True, deadline=None, max_examples=10)
def test_cayley_polynomial_matches_interpolation_in_dim_4(n, seed):
    fam = gen_convex_family(SplitMix64(seed), 4, n, 3)
    assert volume_polynomial(fam) == volume_polynomial_interpolated(fam)


def test_cayley_polynomial_evaluates_to_combination_volumes_at_4_3():
    # no full oracle at (d, n) = (4, 3): the polynomial's values at two
    # coefficient vectors against the volumes of those combinations
    fam = gen_convex_family(SplitMix64(43), 4, 3, 3)
    P = volume_polynomial(fam)
    for lam in ((1, 1, 1), (2, Rat(1, 2), 3)):
        assert P.evaluate(lam) == volume(combination_body(fam, lam))


@pytest.mark.parametrize("d, n", [(3, 3), (4, 2)])
def test_cayley_polynomial_is_independent_of_the_heights(monkeypatch, d, n):
    # every call draws the same heights from a fresh stream, and another
    # seed lifts differently but gives the same polynomial
    fam = gen_convex_family(SplitMix64(17), d, n, 3)
    lifts = []

    def recording(rows, dim):
        lifts.append(rows)
        return cone_extreme_rays(rows, dim)

    monkeypatch.setattr(forms, "cone_extreme_rays", recording)
    want = volume_polynomial(fam)
    assert volume_polynomial(fam) == want and lifts[1] == lifts[0]
    for seed in (1, 2**40 + 5):
        monkeypatch.setattr(forms, "_HEIGHT_SEED", seed)
        assert volume_polynomial(fam) == want
    assert len(lifts) == 4 and len({tuple(rows) for rows in lifts}) == 3


def _counting_dd(monkeypatch):
    """Route every DD call of forms, polytope and cones through a counter."""
    calls = []

    def counting(rows, dim):
        calls.append(dim)
        return cone_extreme_rays(rows, dim)

    for module in (forms, polytope, cones):
        monkeypatch.setattr(module, "cone_extreme_rays", counting)
    return calls


@pytest.mark.parametrize("n", [2, 3])
def test_volume_polynomial_runs_one_dd_pass(monkeypatch, n):
    # one lower hull of the lifted Cayley polytope in dimension n + d + 1,
    # and no Minkowski sum or volume at all
    fam = gen_convex_family(SplitMix64(11), 3, n, 3)
    want = volume_polynomial_interpolated(fam)
    others = []

    def counted(name, fn):
        def wrapper(*args):
            others.append(name)
            return fn(*args)

        return wrapper

    dd_calls = _counting_dd(monkeypatch)
    monkeypatch.setattr(forms, "minkowski_sum", counted("minkowski_sum", minkowski_sum))
    monkeypatch.setattr(forms, "volume", counted("volume", volume))
    assert volume_polynomial(fam) == want
    assert dd_calls == [n + 4]
    assert others == []


def test_non_simplicial_lifting_redraws_the_heights(monkeypatch):
    # equal heights put every point on one lower facet, which is no simplex
    fam = gen_convex_family(SplitMix64(11), 3, 2, 3)
    want = volume_polynomial(fam)
    real = forms._height_draws
    draws = []

    def zeros_first(count):
        draws.append("zeros")
        yield [0] * count
        for heights in real(count):
            draws.append("drawn")
            yield heights

    monkeypatch.setattr(forms, "_height_draws", zeros_first)
    dd_calls = _counting_dd(monkeypatch)
    assert volume_polynomial(fam) == want
    assert draws == ["zeros", "drawn"] and len(dd_calls) == 2


def test_flat_liftings_give_up_with_exit_3(monkeypatch, tmp_path, capsys):
    def flat(count):
        while True:
            yield [0] * count

    fam = gen_convex_family(SplitMix64(11), 3, 2, 3)
    path = tmp_path / "fam.json"
    path.write_text(dump_json(convex_family_to_json(fam)), encoding="utf-8")
    monkeypatch.setattr(forms, "_height_draws", flat)
    dd_calls = _counting_dd(monkeypatch)
    with pytest.raises(ArithmeticError):
        volume_polynomial(fam)
    assert len(dd_calls) == forms._LIFT_ATTEMPTS
    assert cli.main(["volpoly", str(path)]) == 3
    assert capsys.readouterr().out == ""


def _pool_4d():
    return {
        "A": convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
        "B": axis_box((1, 2, 1, Rat(1, 2))),
        "C": convex_hull([(0, 0, 0, 0), (2, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 2), (1, 0, 0, 2)]),
    }


@pytest.mark.parametrize("pattern, want_sums", [("AABB", 4), ("ABBC", 7)])
def test_mixed_volume_builds_and_measures_each_sum_once(monkeypatch, pattern, want_sums):
    # The table is keyed by multiplicity.  For AABB the sums are A+B, A+2B,
    # 2A+B and 2A+2B; for ABBC they are the 7 keys with at least two
    # bodies.  Dilates (2A, 2B) get their volume by homogeneity, so only
    # the bodies and the true sums are measured, each once.  The Cayley
    # coefficient over the multinomial is the oracle.
    pool = _pool_4d()
    names = sorted(set(pattern))
    exps = tuple(pattern.count(name) for name in names)
    fam = make_convex_family([pool[name] for name in names])
    want = volume_polynomial(fam).coeffs.get(exps, 0) / multinomial(exps)
    sums, measured = [], []

    def counting_sum(P, Q):
        sums.append(minkowski_sum(P, Q))
        return sums[-1]

    def counting_volume(P):
        measured.append(P)
        return volume(P)

    monkeypatch.setattr(forms, "minkowski_sum", counting_sum)
    monkeypatch.setattr(forms, "volume", counting_volume)
    assert mixed_volume([pool[name] for name in pattern]) == want
    assert len(sums) == want_sums
    assert [id(P) for P in measured] == list(dict.fromkeys(id(P) for P in measured))
    assert {id(P) for P in measured} == {id(P) for P in (*fam.generators, *sums)}


def test_combination_body_rules(square_and_box):
    fam = make_convex_family(list(square_and_box))
    assert combination_body(fam, (1, 0)) == fam.generators[0]
    assert combination_body(fam, (0, 2)) == fam.generators[1].scale(2)
    with pytest.raises(CoconvexError):
        combination_body(fam, (0, 0))
    with pytest.raises(CoconvexError):
        combination_body(fam, (-1, 1))
    with pytest.raises(DimensionMismatch):
        combination_body(fam, (1, 1, 1))


def test_family_validation(unit_square):
    with pytest.raises(EmptyInput):
        make_convex_family([])
    with pytest.raises(UnboundedPolyhedron):
        make_convex_family([convex_hull([(0, 0)], rays=[(1, 0)])])
    with pytest.raises(CoconvexError):
        make_convex_family([convex_hull([(0, 0), (1, 1)])])  # not full-dimensional
    with pytest.raises(DimensionMismatch):
        make_convex_family([unit_square, axis_box((1, 1, 1))])


def test_marked_vector_validation(unit_square):
    cube = axis_box((1, 1, 1))
    fam = make_convex_family([cube, cube.scale(2)], [(1, 2)])
    assert fam.marked == ((1, 2),)
    with pytest.raises(CoconvexError):
        make_convex_family([cube], [(1,), (1,)])  # d - 2 = 1 vector expected
    with pytest.raises(CoconvexError):
        make_convex_family([cube], [(0,)])  # must be strictly positive
    with pytest.raises(CoconvexError):
        make_convex_family([unit_square, unit_square], [(1, 1)])  # d = 2 takes none


def test_af_form_homothetic(homothetic_squares):
    B, Q = af_form(homothetic_squares)
    assert B == ((1, 2), (2, 4))
    assert Q == ((2, 4), (4, 8))
    # scaling a body by 2 scales every pairing linearly, hence the rank drop
    assert signature(Q).astuple() == (1, 0, 1)


def test_af_form_values_are_mixed_volumes(square_and_box):
    sq, box = square_and_box
    fam = make_convex_family([sq, box])
    B, _ = af_form(fam)
    assert form_apply(B, (1, 0), (0, 1)) == mixed_volume([sq, box])
    assert form_apply(B, (1, 0), (1, 0)) == volume(sq)
    assert form_apply(B, (0, 1), (0, 1)) == volume(box)


def test_af_inequality_on_general_pair(square_and_box):
    fam = make_convex_family(list(square_and_box))
    B, Q = af_form(fam)
    assert reversed_cs_check(B, (1, 0), (0, 1))
    assert signature(Q).astuple() == (1, 1, 0)


def test_af_equality_case(homothetic_squares):
    B, _ = af_form(homothetic_squares)
    u, v = (1, 0), (0, 1)
    assert form_apply(B, u, v) ** 2 == form_apply(B, u, u) * form_apply(B, v, v)


def test_af_form_3d_uses_marked_vector():
    cube = axis_box((1, 1, 1))
    box = axis_box((2, 1, 1))
    fam = make_convex_family([cube, box], [(1, 1)])
    B, Q = af_form(fam)
    # entries are mixed volumes of (u slot, v slot, marked combination)
    comb = combination_body(fam, (1, 1))
    assert form_apply(B, (1, 0), (0, 1)) == mixed_volume([cube, box, comb])
    assert signature(Q).pos == 1


def test_form_apply_skips_zero_weights():
    B = ((Rat(1), Rat(2)), (Rat(2), Rat(4)))
    assert form_apply(B, (1, 0), (0, 0)) == 0
    assert form_apply(B, (2, 1), (1, 1)) == 2 + 4 + 2 + 4


def test_cs_and_reversed_cs():
    B = ((Rat(2), Rat(1)), (Rat(1), Rat(2)))  # positive definite
    assert cs_check(B, (1, 0), (0, 1))  # 1 <= 4
    assert not reversed_cs_check(B, (1, 0), (0, 1))
    R = ((Rat(1), Rat(2)), (Rat(2), Rat(1)))
    assert reversed_cs_check(R, (1, 0), (0, 1))  # 4 >= 1
    with pytest.raises(CoconvexError):
        reversed_cs_check(((Rat(0),),), (1,), (0,))  # needs B(v, v) > 0


# coconvex families


@pytest.fixture
def triangle_family(corner_triangle):
    return make_coconvex_family([corner_triangle])


@pytest.fixture
def homothetic_triangles(corner_triangle):
    from coconvex.cones import co_scale

    return make_coconvex_family([corner_triangle, co_scale(2, corner_triangle)])


@pytest.fixture
def skew_pair(quadrant, corner_triangle):
    """Corner triangle next to a genuinely non-homothetic partner."""
    K = convex_hull([(0, 2), (Rat(2, 3), Rat(2, 3)), (2, 0)], rays=quadrant.rays)
    other = make_coconvex(quadrant, K)
    return make_coconvex_family([corner_triangle, other])


def test_co_volume_polynomial_single(triangle_family):
    P = co_volume_polynomial(triangle_family)
    assert P == HomogeneousPolynomial(1, 2, {(2,): Rat(1, 2)})


def test_co_volume_polynomial_homothetic(homothetic_triangles):
    P = co_volume_polynomial(homothetic_triangles)
    # region of lam1 A + lam2 (2A) is (lam1 + 2 lam2) A
    want = {(2, 0): Rat(1, 2), (1, 1): Rat(2), (0, 2): Rat(2)}
    assert P.coeffs == want


def test_co_volume_polynomial_matches_combinations(skew_pair):
    P = co_volume_polynomial(skew_pair)
    assert P.evaluate((1, 0)) == Rat(1, 2)
    assert P.evaluate((0, 1)) == Rat(4, 3)
    for lam in ((1, 1), (2, 1), (1, 3)):
        assert P.evaluate(lam) == co_volume(co_combination_body(skew_pair, lam))


@given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]),
       st.integers(0, 2**32))
@settings(derandomize=True, deadline=None, max_examples=10)
def test_co_volume_polynomial_matches_interpolated_oracle(shape, seed):
    d, n = shape
    fam = gen_coconvex_family(SplitMix64(seed), d, n, 3)
    assert co_volume_polynomial(fam) == cone_reference.co_volume_polynomial(fam)


def test_co_volume_polynomial_evaluates_to_co_volumes_at_4_3():
    # the family `gen coconvex-family --dim 4 --n 3 --seed 10` writes; no
    # full oracle here, only the polynomial's values at two coefficient
    # vectors against the co-volumes of those combinations
    fam = gen_coconvex_family(SplitMix64(10).derive("gen:coconvex-family"), 4, 3, 4)
    P = co_volume_polynomial(fam)
    for lam in ((1, 1, 1), (2, Rat(1, 2), 3)):
        assert P.evaluate(lam) == co_volume(co_combination_body(fam, lam))


def test_co_volume_polynomial_is_one_cayley_polynomial(monkeypatch):
    # one Cayley polynomial of the cut complements: no combination body,
    # no co-volume and no interpolation
    fam = gen_coconvex_family(SplitMix64(5), 3, 2, 3)
    want = cone_reference.co_volume_polynomial(fam)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for module, name in (
        (forms, "volume_polynomial"),
        (forms, "co_volume"),
        (cones, "co_volume"),
        (forms, "fit_homogeneous"),
        (forms, "co_combination_body"),
    ):
        real = getattr(module, name, None)
        monkeypatch.setattr(module, name, counted(name, real), raising=False)
    assert co_volume_polynomial(fam) == want
    assert calls == ["volume_polynomial"]


def test_co_combination_requires_positive_weights(skew_pair):
    with pytest.raises(CoconvexError):
        co_combination_body(skew_pair, (1, 0))
    with pytest.raises(CoconvexError):
        co_combination_body(skew_pair, (0, 0))


def test_family_memo_is_not_a_field(corner_triangle):
    fam = make_coconvex_family([corner_triangle] * 2)
    with pytest.raises(TypeError):
        CoconvexFamily(fam.cone, fam.generators, fam.marked, complements={})
    twin = CoconvexFamily(fam.cone, fam.generators, fam.marked)
    # the memo is keyed by the coerced lam, so "2" and 2 share one entry
    body = co_combination_body(fam, (1, 2))
    assert co_combination_body(fam, (Rat(1), "2")).complement is body.complement
    assert list(fam.complements) == [(1, 2)] and twin.complements == {}
    assert fam == twin and hash(fam) == hash(twin) and repr(fam) == repr(twin)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_trusted_combinations_stay_coconvex(d, n):
    # co_combination_body and co_sum assemble their result without
    # make_coconvex; the full validation here keeps that shortcut honest
    rng = SplitMix64(31).derive(f"trusted:{d}:{n}")
    fam = gen_coconvex_family(rng, d, n, 3)
    for _ in range(2):
        body = co_combination_body(fam, gen_positive_vector(rng, n))
        assert make_coconvex(fam.cone, body.complement) == body
        assert co_volume(body) > 0
        total = co_sum(body, fam.generators[-1])
        assert make_coconvex(fam.cone, total.complement) == total


def test_coconvex_family_needs_shared_cone(corner_triangle):
    other_cone = make_cone([(1, 0), (1, 1)])
    K = convex_hull([(1, 0), (2, 2)], rays=other_cone.rays)
    from coconvex.cones import make_coconvex as mk

    with pytest.raises(ConeMismatch):
        make_coconvex_family([corner_triangle, mk(other_cone, K)])


def test_co_af_form_single(triangle_family):
    B, Q = co_af_form(triangle_family)
    assert Q == ((Rat(1),),)
    assert B == ((Rat(1, 2),),)
    assert signature(Q).astuple() == (1, 0, 0)


def test_co_af_form_homothetic(homothetic_triangles):
    B, Q = co_af_form(homothetic_triangles)
    assert B == ((Rat(1, 2), 1), (1, 2))
    assert Q == ((1, 2), (2, 4))
    sig = signature(Q)
    assert sig.neg == 0


def test_co_af_cauchy_schwartz(skew_pair):
    B, Q = co_af_form(skew_pair)
    assert signature(Q).neg == 0
    for u, v in (((1, 0), (0, 1)), ((1, 2), (3, 1)), ((1, -1), (2, 5))):
        assert cs_check(B, u, v)


def test_derivative_chain(homothetic_triangles):
    P = co_volume_polynomial(homothetic_triangles)
    assert derivative_chain(P, []) == P
    first = derivative_chain(P, [(1, 0)])
    assert first.coeffs == {(1, 0): Rat(1), (0, 1): Rat(2)}
    second = derivative_chain(P, [(1, 0), (0, 1)])
    assert second.constant() == 2


def test_polynomial_af_forms_validates_marked():
    P = HomogeneousPolynomial(1, 3, {(3,): 1})
    with pytest.raises(CoconvexError):
        polynomial_af_forms(P, [])  # needs d - 2 = 1 marked vectors


def test_reversed_bm_endpoint_and_midpoint(skew_pair):
    P = co_volume_polynomial(skew_pair)
    u, v = (1, 0), (0, 1)
    for t in (Rat(0), Rat(1, 4), Rat(1, 2), Rat(3, 4), Rat(1)):
        assert reversed_bm_check(P, u, v, t)
    with pytest.raises(CoconvexError):
        reversed_bm_check(P, u, v, Rat(3, 2))


def test_reversed_bm_equality_for_homothetic(homothetic_triangles):
    P = co_volume_polynomial(homothetic_triangles)
    # along a homothetic segment the root function is affine, so the
    # reversed inequality holds with equality; both directions pass
    assert reversed_bm_check(P, (1, 0), (0, 1), Rat(1, 2))
    assert reversed_bm_check(P, (0, 1), (1, 0), Rat(1, 2))


def test_mink_inequalities(skew_pair):
    P = co_volume_polynomial(skew_pair)
    assert mink1_check(P, (1, 0), (0, 1))
    assert mink1_check(P, (2, 1), (1, 3))
    assert mink2_check(P, (1, 0), (0, 1))
    assert mink2_check(P, (1, 1), (1, -1))


def test_mink_equality_for_homothetic(homothetic_triangles):
    P = co_volume_polynomial(homothetic_triangles)
    assert mink1_check(P, (1, 0), (0, 1))
    assert mink2_check(P, (1, 0), (0, 1))


side = st.integers(1, 4)


@given(
    st.tuples(side, side, side),
    st.tuples(side, side, side),
    st.tuples(side, side, side),
)
@settings(deadline=None, max_examples=40)
def test_mixed_volume_matches_box_oracle(a, b, c):
    assert mixed_volume([axis_box(a), axis_box(b), axis_box(c)]) == box_mixed_volume([a, b, c])


coord = st.integers(-4, 4)
point2 = st.tuples(coord, coord)


@given(st.lists(point2, min_size=3, max_size=6), st.lists(point2, min_size=3, max_size=6))
@settings(deadline=None, max_examples=30)
def test_planar_mixed_volume_via_sum_formula(ps, qs):
    from coconvex.polytope import minkowski_sum

    P, Q = convex_hull(ps), convex_hull(qs)
    both = mixed_volume([P, Q])
    assert 2 * both == volume(minkowski_sum(P, Q)) - volume(P) - volume(Q)
