from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpower.series import series_from_rationals
from invpower.transforms import binomial_convolve

from _oracles import comb0, sequential_closed_form, sequential_transform, transform_k, trim

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
rational_lists = st.lists(rationals, min_size=1, max_size=20)


def cs(*items):
    return trim(items)


# ---------------------------------------------------------------------------
# single transformation (the oracle ladder that binomial_convolve collapses)
# ---------------------------------------------------------------------------


def test_transform_basic():
    assert transform_k(cs(1, 2, 3), 1) == cs(1, 2, 5, 3)


def test_transform_single_element_unchanged():
    for k in (1, 2, 5):
        assert transform_k(cs(9), k) == cs(9)


def test_transform_signed_binomial_column():
    # entries (-1)^i * C(i+2, 2), order-2 transform: index 4 folds
    # C(6,2) - C(5,2) = 15 - 10
    source = cs(*[(-1) ** i * comb0(i + 2, 2) for i in range(8)])
    out = transform_k(source, 2)
    assert out[4] == 5


@given(rational_lists, st.integers(min_value=1, max_value=8))
def test_transform_grows_support_by_at_most_one(values, k):
    source = trim(values)
    out = transform_k(source, k)
    assert len(out) <= len(source) + 1


def test_trailing_zeros_trimmed():
    assert len(cs(1, 2, 0, 0)) == 2
    assert len(cs(0, 0)) == 0


# ---------------------------------------------------------------------------
# pattern laws for single transforms
# ---------------------------------------------------------------------------


def _prefix_pattern(c: list[Fraction], k: int, length: int) -> list[Fraction]:
    """Binomial-convolution shape with row cap k-1 beyond index k."""
    def cval(i):
        return c[i] if 0 <= i < len(c) else Fraction(0)
    out = [cval(0)]
    for i in range(1, length):
        cap = i - 1 if i <= k else k - 1
        out.append(sum((Fraction(comb0(cap, s)) * cval(i - s) for s in range(cap + 1)),
                       Fraction(0)))
    return out


@settings(max_examples=40)
@given(rational_lists, st.integers(min_value=1, max_value=12))
def test_transform_advances_convolution_cap(c, k):
    """Order-k transform turns the cap-(k-1) convolution pattern into the
    cap-k pattern, elementwise."""
    length = len(c) + k + 3
    source = trim(_prefix_pattern(c, k, length))
    expected = _prefix_pattern(c, k + 1, length)
    assert transform_k(source, k) == trim(expected)


@pytest.mark.parametrize("j", range(0, 11))
@pytest.mark.parametrize("k", range(1, 11))
def test_transform_on_signed_binomial_tails(j, k):
    """Order-k transform lowers the column index of signed binomial-tail
    sequences by one, checked elementwise up to index 25."""
    top = 25
    source = cs(*[
        (-1) ** i * (comb0(j, j - i) if i <= k else comb0(i + j - k, j - k))
        for i in range(top + 1)
    ])
    out = transform_k(source, k)
    expected = [(-1) ** i * (comb0(j, j - i) if i <= k + 1 else comb0(i + j - k - 1, j - k - 1))
                for i in range(top + 1)]
    assert trim(out[:top + 1]) == trim(expected)


# ---------------------------------------------------------------------------
# sequential transformation
# ---------------------------------------------------------------------------


def test_sequential_first_order_on_ones():
    assert sequential_transform(cs(1, 1, 1, 1), 1) == cs(1, 1, 2, 2, 1)


@settings(max_examples=60)
@given(rational_lists, st.integers(min_value=1, max_value=15))
def test_sequential_iterative_equals_closed_form(values, m):
    source = trim(values)
    assert sequential_transform(source, m) == sequential_closed_form(source, m)


@pytest.mark.parametrize("j", range(1, 9))
@pytest.mark.parametrize("m", range(1, 9))
def test_sequential_on_signed_binomial_columns(j, m):
    """Order-m sequential transform of (-1)^i C(i+j-1, j-1), checked
    against its closed pattern up to index 25."""
    top = 25
    source = cs(*[(-1) ** i * comb0(i + j - 1, j - 1) for i in range(top + m + 2)])
    out = sequential_transform(source, m)
    expected = [(-1) ** i * (comb0(j, j - i) if i <= m + 1 else comb0(i + j - m - 1, j - m - 1))
                for i in range(top + 1)]
    assert trim(out[:top + 1]) == trim(expected)


@settings(max_examples=40)
@given(rational_lists, rational_lists, st.integers(min_value=1, max_value=10))
def test_sequential_is_additive(u, v, m):
    def add(a, b):
        return trim(x + y for x, y in zip_longest(a, b, fillvalue=0))

    a, b = trim(u), trim(v)
    assert sequential_transform(add(a, b), m) == add(sequential_transform(a, m),
                                                     sequential_transform(b, m))


# ---------------------------------------------------------------------------
# binomial convolution of Taylor coefficients
# ---------------------------------------------------------------------------


def test_convolve_constant_series():
    s = series_from_rationals(1, [5, 0, 0, 0])
    conv = binomial_convolve(s, 3)
    assert [x.as_fraction() for x in conv] == [5, 0, 0, 0]


@given(rationals, rationals, rationals)
def test_convolve_order_two_shape(c0, c1, c2):
    s = series_from_rationals(0, [c0, c1, c2])
    conv = binomial_convolve(s, 2)
    assert conv[0].as_fraction() == c0
    assert conv[1].as_fraction() == c1
    assert conv[2].as_fraction() == c2 + c1


def test_convolve_alternating_geometric():
    # expansion of a pure reciprocal about 5/4: c_n = (-1)^n (4/5)^(n+1)
    coeffs = [(-1) ** n * Fraction(4, 5) ** (n + 1) for n in range(4)]
    assert coeffs[0] == Fraction(4, 5)
    s = series_from_rationals(Fraction(5, 4), coeffs)
    conv = binomial_convolve(s, 3)
    assert [x.as_fraction() for x in conv] == [
        Fraction(4, 5), Fraction(-16, 25), Fraction(-16, 125), Fraction(-16, 625)]


def test_convolve_requires_enough_coefficients():
    s = series_from_rationals(0, [1, 2])
    with pytest.raises(ValueError):
        binomial_convolve(s, 2)


@settings(max_examples=40)
@given(st.lists(rationals, min_size=4, max_size=12))
def test_convolve_prefix_stable(coeffs):
    s = series_from_rationals(0, coeffs)
    m = len(coeffs) - 2
    small = binomial_convolve(s, m)
    large = binomial_convolve(s, m + 1)
    assert small == large[: m + 1]


@settings(max_examples=40)
@given(st.lists(rationals, min_size=2, max_size=10))
def test_convolve_matches_sequential_transform(coeffs):
    """The convolution is exactly what the sequential transform ladder
    does to the coefficient sequence."""
    m = len(coeffs) - 1
    s = series_from_rationals(0, coeffs)
    conv = binomial_convolve(s, m)
    ladder = sequential_transform(trim(coeffs), m)
    assert trim(x.as_fraction() for x in conv) == trim(ladder[:m + 1])
