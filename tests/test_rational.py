import pytest
from hypothesis import given
from hypothesis import strategies as st

from coconvex.rational import (
    Rat,
    compare_root_sum,
    exact_root,
    integer_root_floor,
    rat,
    rat_str,
    rational_root_floor,
)


def test_rat_parses_integers_and_fractions():
    assert rat("3") == Rat(3)
    assert rat("-7/2") == Rat(-7, 2)
    assert rat(5) == Rat(5)
    assert rat(Rat(1, 3)) == Rat(1, 3)


@pytest.mark.parametrize(
    "bad", ["", "1.5", "1/0", "1/-2", "x", "2/", "/3", 0.1, 2.0, True, False, None, [1]]
)
def test_rat_rejects_non_literals(bad):
    # a float would bring its binary expansion, a bool its truth value
    with pytest.raises(ValueError):
        rat(bad)


def test_rat_str_is_canonical():
    assert rat_str(Rat(4, 2)) == "2"
    assert rat_str(Rat(-3, 6)) == "-1/2"
    assert rat_str(Rat(0)) == "0"


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rat_str_round_trips(p, q):
    x = Rat(p, q)
    assert rat(rat_str(x)) == x


@given(st.integers(0, 10**12), st.integers(1, 6))
def test_integer_root_floor_brackets(m, d):
    r = integer_root_floor(m, d)
    assert r**d <= m < (r + 1) ** d


def test_integer_root_floor_rejects_bad_input():
    with pytest.raises(ValueError):
        integer_root_floor(-1, 2)
    with pytest.raises(ValueError):
        integer_root_floor(4, 0)


@given(st.integers(0, 10**6), st.integers(1, 10**3), st.integers(2, 4))
def test_rational_root_floor_brackets(p, q, d):
    z = Rat(p, q)
    scale = 1 << 16
    k = rational_root_floor(z, d, scale)
    assert Rat(k, scale) ** d <= z
    assert Rat(k + 1, scale) ** d > z


def test_exact_root_detects_perfect_powers():
    assert exact_root(Rat(8, 27), 3) == Rat(2, 3)
    assert exact_root(4, 2) == 2
    assert exact_root(2, 2) is None
    assert exact_root(Rat(4, 3), 2) is None


# sqrt(2) + sqrt(3) vs sqrt(10): squares are 5 + 2*sqrt(6) vs 10, and
# sqrt(6) < 5/2 since 6 < 25/4, so the left side is smaller.
def test_compare_root_sum_strict_inequality():
    assert compare_root_sum([(1, 2), (1, 3), (-1, 10)], 2) == -1
    assert compare_root_sum([(1, 10), (-1, 2), (-1, 3)], 2) == 1


def test_compare_root_sum_folds_equivalent_surds():
    # 2*sqrt(2) == sqrt(8): radicands differ by the square 4
    assert compare_root_sum([(2, 2), (-1, 8)], 2) == 0
    # 3*cbrt(2) - cbrt(54) == 0 since 54 = 27 * 2
    assert compare_root_sum([(3, 2), (-1, 54)], 3) == 0


def test_compare_root_sum_rational_only():
    assert compare_root_sum([(Rat(1, 2), 4), (-1, 1)], 2) == 0
    assert compare_root_sum([(1, Rat(1, 4)), (-1, Rat(1, 4))], 2) == 0
    assert compare_root_sum([], 5) == 0


def test_compare_root_sum_mixed_rational_and_surd():
    # 1 + sqrt(2) > sqrt(5): 3 + 2*sqrt(2) > 5 since sqrt(2) > 1
    assert compare_root_sum([(1, 1), (1, 2), (-1, 5)], 2) == 1


@given(st.integers(1, 50), st.integers(1, 50))
def test_compare_root_sum_orders_square_roots(a, b):
    expected = (a > b) - (a < b)
    assert compare_root_sum([(1, a), (-1, b)], 2) == expected
