import random
import re
import warnings
from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpower import approximant, asymptotics
from invpower.approximant import coeffs_closed_form, float_dots
from invpower.asymptotics import (
    ConvergenceTable,
    convergence_table,
    estimate_limits,
)
from invpower.corpus import mobius, shifted_reciprocal, taylor_coeffs
from invpower.errors import PoleError
from invpower.scalar import CancellationWarning, Scalar, significand_bits
from invpower.series import TaylorSeries, series_from_rationals

from _oracles import (
    asymptotic_residual_scan,
    brute_q0,
    brute_q1,
    center_invariance_check,
    float_closed_form_q,
    float_dot,
    float_table,
    tail_coeffs,
    tail_rows,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=16)


def sc(x):
    return Scalar.rational(x)


def table_for(offset, weight, shift, x0, m_max, precision=None):
    coeffs = tail_coeffs(Fraction(offset), Fraction(weight), Fraction(shift),
                         Fraction(x0), m_max + 1)
    series = series_from_rationals(Fraction(x0), coeffs)
    if precision is not None:
        series = series.to_inexact(precision)
    return convergence_table(series, m_max), coeffs


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_pure_reciprocal_about_one_is_exact_immediately():
    """1/x about 1: alternating rows collapse, q0 = 0 and q1 = 1 from the
    first dimension on.  Brute-force summation confirms row by row."""
    table, coeffs = table_for(0, 1, 0, 1, 12)
    for row in table.rows:
        assert row.q0.as_fraction() == brute_q0(coeffs, row.m)
        if row.m >= 1:
            assert row.q0.as_fraction() == 0
            assert row.q1.as_fraction() == brute_q1(coeffs, row.m) == 1


def test_reciprocal_quarter_geometric_rows():
    table, coeffs = table_for(0, 1, Fraction(1, 4), 1, 20)
    for row in table.rows:
        assert row.q0.as_fraction() == brute_q0(coeffs, row.m) == Fraction(4, 5 ** (row.m + 1))
        if row.m >= 1:
            assert row.q1.as_fraction() == brute_q1(coeffs, row.m) \
                == 1 - Fraction(4 * row.m + 5, 5 ** (row.m + 1))


def test_constant_series_rows():
    table = convergence_table(series_from_rationals(1, [7, 0, 0, 0, 0]), 4)
    for row in table.rows:
        assert row.q0.as_fraction() == 7
        if row.m >= 1:
            assert row.q1.as_fraction() == 0


@given(st.lists(rationals, min_size=2, max_size=6))
def test_first_q1_row_is_negated_first_coefficient(coeffs):
    table = convergence_table(series_from_rationals(0, coeffs), 1)
    assert table.rows[1].q1 == -Scalar.rational(coeffs[1])


def test_deltas_recomputable_from_neighbors():
    table, _ = table_for(1, -1, 1, 1, 10)
    for m in range(1, 11):
        row, prev = table.rows[m], table.rows[m - 1]
        assert row.delta0 == abs(row.q0 - prev.q0)
        if m >= 2:
            assert row.delta1 == abs(row.q1 - prev.q1)
    assert table.rows[0].delta0 is None
    assert table.rows[0].q1 is None
    assert table.rows[1].delta1 is None


def assert_rows(table, expected):
    """Every row equals the expected (q0, q1) pairs, deltas included."""
    assert len(table.rows) == len(expected) == table.m_max + 1
    for row, (q0, q1) in zip(table.rows, expected):
        assert row.q0.exact and row.q0.as_fraction() == q0
        if row.m == 0:
            assert row.q1 is None and row.delta0 is None and row.delta1 is None
            continue
        prev0, prev1 = expected[row.m - 1]
        assert row.q1.as_fraction() == q1
        assert row.delta0.as_fraction() == abs(q0 - prev0)
        if row.m == 1:
            assert row.delta1 is None
        else:
            assert row.delta1.as_fraction() == abs(q1 - prev1)


@st.composite
def coefficient_prefixes(draw):
    coeffs = draw(st.lists(st.fractions(max_denominator=10 ** 6), min_size=1, max_size=16))
    return coeffs, draw(st.integers(0, min(12, len(coeffs) - 1)))


@given(coefficient_prefixes())
def test_exact_rows_match_brute_force_sums(case):
    """Arbitrary rationals, longer series than the table needs included."""
    coeffs, m_max = case
    table = convergence_table(series_from_rationals(0, coeffs), m_max)
    assert_rows(table, [(brute_q0(coeffs, m), brute_q1(coeffs, m) if m else None)
                        for m in range(m_max + 1)])


@settings(max_examples=60, deadline=None)
@given(coefficient_prefixes())
def test_exact_rows_are_leading_approximant_coefficients(case):
    """Row m holds q_0 and q_1 of the dimension-m approximant, and its
    deltas are the steps of those between dimensions m-1 and m."""
    coeffs, m_max = case
    s = series_from_rationals(Fraction(-2, 3), coeffs)
    expected = []
    for m in range(m_max + 1):
        q = [x.as_fraction() for x in coeffs_closed_form(s, m).coeffs[:2]]
        expected.append((q[0], q[1] if m else None))
    assert_rows(convergence_table(s, m_max), expected)


small = st.fractions(min_value=-8, max_value=8, max_denominator=12)
# b = x0 + shift: r = 1 - 1/b is -1 at b = 1/2, |r| > 1 below it
bases = st.one_of(
    st.just(Fraction(1, 2)),
    st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 100), max_denominator=100),
    st.fractions(min_value=-4, max_value=Fraction(-1, 8), max_denominator=16),
    st.fractions(min_value=Fraction(51, 100), max_value=10, max_denominator=100),
)


@settings(deadline=None)
@given(st.lists(st.tuples(small, small, bases), min_size=1, max_size=3), small,
       st.integers(0, 60))
def test_exact_rows_of_tail_sums_match_closed_forms(terms, x0, m_max):
    """Rows are linear in the coefficients, so a sum of shifted
    reciprocals has the sum of the per-term closed forms as its rows,
    convergent (b > 1/2), oscillating (b = 1/2) and divergent alike."""
    per_term = [(offset, weight, b - x0) for offset, weight, b in terms]
    coeffs = [sum(col) for col in zip(*(tail_coeffs(o, w, s, x0, m_max + 1)
                                        for o, w, s in per_term))]
    expected = []
    for m in range(m_max + 1):
        rows = [tail_rows(o, w, s, x0, m) for o, w, s in per_term]
        expected.append((sum(r[0] for r in rows), sum(r[1] for r in rows) if m else None))
    assert_rows(convergence_table(series_from_rationals(x0, coeffs), m_max), expected)


def test_exact_rows_at_dimension_one_thousand():
    """(2x+3)/(x+2) = 2 - 1/(x+2) about 1, every row to m = 1000."""
    m_max = 1000
    table = convergence_table(taylor_coeffs(mobius(2, 3, 1, 2), sc(1), m_max + 1), m_max)
    expected = []
    for m in range(m_max + 1):
        q0, q1 = tail_rows(Fraction(2), Fraction(-1), Fraction(2), Fraction(1), m)
        expected.append((q0, q1 if m else None))
    assert_rows(table, expected)


def test_table_requires_enough_coefficients():
    with pytest.raises(ValueError):
        convergence_table(series_from_rationals(1, [1, 2]), 2)


def test_table_rerun_is_bit_identical():
    t1, _ = table_for(0, 1, Fraction(1, 4), 1, 15)
    t2, _ = table_for(0, 1, Fraction(1, 4), 1, 15)
    assert t1 == t2


def test_float_table_warns_at_hazardous_dimension():
    coeffs = tail_coeffs(Fraction(1), Fraction(-1), Fraction(1), Fraction(1), 61)
    series = series_from_rationals(1, coeffs).to_inexact(64)
    with pytest.warns(CancellationWarning):
        convergence_table(series, 60)


def same_float(x, y):
    """Bit-for-bit equality of two float Scalars, or both None."""
    if x is None or y is None:
        return x is y
    return not x.exact and x.value == y.value and x.precision == y.precision


def float_rows_equal(table, expected):
    assert len(table.rows) == len(expected)
    for row, (m, *values) in zip(table.rows, expected):
        assert row.m == m
        assert all(same_float(x, y) for x, y in
                   zip((row.q0, row.q1, row.delta0, row.delta1), values))


@st.composite
def float_cases(draw):
    """Series rounded to 64/80/128/256 bits with zeros and negatives, and
    a dimension m <= 40 that reaches the 64-bit hazard (m >= 35)."""
    m = draw(st.integers(0, 40) | st.sampled_from([35, 36, 40]))
    entries = st.just(Fraction(0)) | st.fractions(
        min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)
    coeffs = draw(st.lists(entries, min_size=m + 1, max_size=m + 3))
    width = draw(st.sampled_from([64, 80, 128, 256]))
    return series_from_rationals(Fraction(-2, 5), coeffs).to_inexact(width), m


@settings(max_examples=50, deadline=None)
@given(float_cases())
def test_float_rows_and_coefficients_match_literal_sums_bit_for_bit(case):
    series, m = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        table = convergence_table(series, m)
        q = coeffs_closed_form(series, m).coeffs
    float_rows_equal(table, float_table(list(series.coeffs), m))
    assert all(same_float(x, y) for x, y in
               zip(q, float_closed_form_q(list(series.coeffs), m), strict=True))


@pytest.mark.parametrize("width", [64, 128])
def test_float_rows_and_coefficients_match_literal_sums_past_the_hazard(width):
    """Weights far wider than the significand, on random data: the table
    to m_max = 120 and the approximant at m = 70."""
    rng = random.Random(width)
    coeffs = [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
              for _ in range(121)]
    series = series_from_rationals(Fraction(5, 4), coeffs).to_inexact(width)
    with pytest.warns(CancellationWarning):
        table = convergence_table(series, 120)
    with pytest.warns(CancellationWarning):
        q = coeffs_closed_form(series, 70).coeffs
    float_rows_equal(table, float_table(list(series.coeffs), 120))
    assert all(same_float(x, y) for x, y in
               zip(q, float_closed_form_q(list(series.coeffs), 70), strict=True))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 50, 106, 300])
def test_float_kernel_callers_bound_every_weight_they_pass(monkeypatch, m):
    """``convergence_table`` and ``coeffs_closed_form`` tell ``float_dots``
    a bound on their weights' bit lengths, and a weight under
    2**significand is then never read for its width: every weight of
    every row they pass is within the bound they give."""
    seen = []

    def spy(raw, rows, bits, weight_bits):
        rows = list(rows)
        seen.append((rows, weight_bits))
        return float_dots(raw, rows, bits, weight_bits)

    monkeypatch.setattr(approximant, "float_dots", spy)
    monkeypatch.setattr(asymptotics, "float_dots", spy)
    series = series_from_rationals(1, [1] * (m + 1)).to_inexact(128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        convergence_table(series, m)
        coeffs_closed_form(series, m)
    assert len(seen) == 2
    for rows, bound in seen:
        assert max(abs(w) for row in rows for w in row).bit_length() <= bound


def test_float_weight_rows_are_the_literal_binomial_weights():
    """The float table's weight rows, up to m = 300: C(m, s) for q0(m)
    and, from m = 1 (row 0 has no q1), the literal C(m, s+1) - m*C(m, s)
    for q1(m), which the rows read as -s*C(m+1, s+1) off the next row of
    Pascal's triangle."""
    rows = list(asymptotics._float_weights(300))
    assert len(rows) == 601
    for m in range(301):
        assert rows[max(2 * m - 1, 0)] == [comb(m, s) for s in range(m + 1)]
        if m:
            assert rows[2 * m] == [comb(m, s + 1) - m * comb(m, s) for s in range(m + 1)]


RULE = ": a series takes den exactly when its center is exact"
ONE, ONE64 = Scalar.rational(1), Scalar.approx(1, 64)


@pytest.mark.parametrize("center,values,den,message", [
    # an exact center over float values
    (ONE, (Scalar.approx(1, 128).value, Scalar.approx(2, 128).value), None,
     "den=None about an exact center" + RULE),
    # a float center over exact values
    (ONE64, (1, 2), 1, "den=1 about a 64-bit float center" + RULE),
], ids=["exact-center", "exact-coefficient"])
def test_mixed_series_rejected_naming_the_entry(center, values, den, message):
    """A series is exact or of one float width, fixed by its center: a
    ``den`` is taken exactly when the center is exact, and the error
    names it and the center's kind."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TaylorSeries(center, values, den=den)


@pytest.mark.parametrize("center,values,den,message", [
    (ONE, (), 1, "a Taylor series needs at least one coefficient"),
    (ONE, (1, 2), 0, "den must be a positive int, got 0"),
    (ONE, (1, 2), -3, "den must be a positive int, got -3"),
    (ONE, (1, 2), 2.0, "den must be a positive int, got 2.0"),
    (ONE, (1, 2), True, "den must be a positive int, got True"),
    (ONE, (1, Fraction(1, 2)), 1, "values[1] must be an int numerator, got Fraction(1, 2)"),
    (ONE, (1, 2, True), 1, "values[2] must be an int numerator, got True"),
    (ONE64, (ONE64.value, ONE64), None,
     "values[1] must be a raw mpmath tuple (sign, man, exp, bc), got Scalar"),
    (ONE64, (mpmath.mpf(1),), None,
     "values[0] must be a raw mpmath tuple (sign, man, exp, bc), got mpf"),
    (ONE64, ((0, 1, 0),), None,
     "values[0] must be a raw mpmath tuple (sign, man, exp, bc), got tuple"),
    (ONE64, (ONE64.value, Scalar.approx(Fraction(1, 3), 128).value), None,
     "values[1] has a 113-bit significand, wider than the 53 bits of a 64-bit float"),
    (ONE64, ((0, 2**300, 0, 1),), None,
     "values[0] has a 301-bit significand, wider than the 53 bits of a 64-bit float"),
], ids=["empty", "den-zero", "den-negative", "den-float", "den-bool", "value-fraction",
        "value-bool", "value-scalar", "value-mpf", "value-short-tuple", "value-too-wide",
        "value-too-wide-bc-understated"])
def test_invalid_series_rejected_naming_the_field(center, values, den, message):
    """Exact ``values`` are ints over a positive int ``den``, and float
    ``values`` raw mpmath tuples whose mantissa is no wider than the
    center's significand, whatever their ``bc`` says (the float kernel's
    bound on its rounding steps rests on it): anything else is rejected
    when the series is built, naming the field."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TaylorSeries(center, values, den=den)


def test_exact_series_brings_den_to_lowest_terms():
    """Numerators over a denominator that is not the least are brought
    down by their common gcd when the series is built, and ``coeffs``
    reads the same rationals."""
    series = TaylorSeries(ONE, (6, -4, 0, 10), den=8)
    assert (series.values, series.den) == ((3, -2, 0, 5), 4)
    assert [c.as_fraction() for c in series.coeffs] == [Fraction(3, 4), Fraction(-1, 2), 0,
                                                        Fraction(5, 4)]
    assert TaylorSeries(ONE, (0, 0), den=7).den == 1
    assert series == TaylorSeries(ONE, (3, -2, 0, 5), den=4)


@pytest.mark.parametrize("width,other", [(64, 128), (128, 64), (256, 128)])
def test_to_inexact_keeps_a_float_series_at_its_width(width, other):
    """``to_inexact`` at a float series' own width returns the same
    values; at another width it rejects the series, naming both widths."""
    series = series_from_rationals(Fraction(1, 3), [1, Fraction(-2, 7), Fraction(5, 3)])
    floats = series.to_inexact(width)
    same = floats.to_inexact(width)
    assert same.center is floats.center
    assert all(a is b for a, b in zip(same.coeffs, floats.coeffs, strict=True))
    message = f"a {width}-bit float cannot be rounded to {other} bits: a float keeps its width"
    with pytest.raises(ValueError, match=f"^{message}$"):
        floats.to_inexact(other)


def assert_literal_sums(c, m):
    """The float table to m and the float approximant at m of the series
    with coefficients c equal the ``Scalar`` literal sums bit for bit;
    returns the table."""
    series = TaylorSeries(Scalar.approx(1, c[0].precision), tuple(x.value for x in c))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        table = convergence_table(series, m)
        q = coeffs_closed_form(series, m).coeffs
    float_rows_equal(table, float_table(c, m))
    assert all(same_float(x, y) for x, y in zip(q, float_closed_form_q(c, m), strict=True))
    return table


def f64(x):
    """x as a 64-bit float; exact for the values used here."""
    return Scalar.approx(x, 64)


@st.composite
def wide_exponent_cases(draw):
    """Like ``float_cases``, but each coefficient is mantissa * 2**e with
    e within 2000 of zero (or within 120 for near neighbours), so partial
    sums and terms often lie more than 2*bits + 2 binary places apart."""
    m = draw(st.integers(0, 40))
    entry = st.builds(lambda man, e: Fraction(man) * Fraction(2) ** e,
                      st.integers(-2 ** 300, 2 ** 300),
                      st.integers(-2000, 2000) | st.integers(-120, 120))
    coeffs = draw(st.lists(st.just(Fraction(0)) | entry, min_size=m + 1, max_size=m + 3))
    width = draw(st.sampled_from([64, 80, 128, 256]))
    return series_from_rationals(Fraction(-2, 5), coeffs).to_inexact(width), m


@settings(max_examples=50, deadline=None)
@given(wide_exponent_cases())
def test_float_rows_and_coefficients_match_literal_sums_at_wide_exponents(case):
    series, m = case
    assert_literal_sums(list(series.coeffs), m)


@pytest.mark.parametrize("c,m,value,expected", [
    # q0(1) = c0 + c1: 2**53 + 1 ties and rounds down to the even 2**53
    ([2 ** 53, 1], 1, "q0", 2 ** 53),
    # 2**53 + 3 ties and rounds up to the even 2**53 + 4
    ([2 ** 53 + 2, 1], 1, "q0", 2 ** 53 + 4),
    # q1(2) = -3*c1 - 2*c2: the product 3*(2**52 + 1) ties and rounds up
    ([0, 2 ** 52 + 1, 0], 2, "q1", -(3 * 2 ** 52 + 4)),
    # 3*(2**52 + 3) ties and rounds down
    ([0, 2 ** 52 + 3, 0], 2, "q1", -(3 * 2 ** 52 + 8)),
    # (2**53 - 1) + 1/2 ties, rounds up and carries the mantissa to 2**53
    ([2 ** 53 - 1, Fraction(1, 2)], 1, "q0", 2 ** 53),
    # the partial sum 3 + 2*(-3/2) cancels to zero before the last term
    ([3, Fraction(-3, 2), 5], 2, "q0", 5),
    # and at the end of the sum
    ([3, -3], 1, "q0", 0),
    # zero coefficients among the terms
    ([0, 0, 7, 0, Fraction(-1, 8), 0], 5, "q0", 70 - Fraction(5, 8)),
])
def test_float_rounding_edge_cases_match_literal_sums(c, m, value, expected):
    table = assert_literal_sums([f64(x) for x in c], m)
    assert getattr(table.rows[m], value).as_fraction() == expected


@pytest.mark.parametrize("width", [64, 128])
def test_float_terms_far_from_the_partial_sum_match_literal_sums(width):
    """c0 + c1 and the approximant of (c0, c1) with c1 from 40 to 3000
    binary places below c0 and c0 as far below c1, across the gap of
    2*bits + 2 where the kernel stops aligning: powers of two, odd and
    all-ones mantissas, both signs, and the ties next to a power of two."""
    bits = significand_bits(width)
    big = [1, -1, 1 + Fraction(1, 2 ** (bits - 1)), -(1 - Fraction(1, 2 ** bits))]
    for k in [*range(bits - 2, 2 * bits + 8), 40, 3 * bits, 3000]:
        for small in (Fraction(1, 2 ** k), -Fraction(1, 2 ** k), Fraction(-3, 2 ** k),
                      Fraction(2 ** bits - 1, 2 ** (k + bits))):
            for x in big:
                a, b = Scalar.approx(x, width), Scalar.approx(small, width)
                assert_literal_sums([a, b], 1)
                assert_literal_sums([b, a], 1)


@pytest.mark.parametrize("weights,c,expected", [
    # weights wider than the significand are rounded first: ties to even
    ([2 ** 53 + 1], 1, 2 ** 53),
    ([2 ** 53 + 3], 1, 2 ** 53 + 4),
    # a weight that rounds up to the next power of two
    ([2 ** 60 - 1], 1, 2 ** 60),
    # a product (2**27 - 1)(2**27 + 1) = 2**54 - 1 that ties up to 2**54
    ([2 ** 27 - 1], 2 ** 27 + 1, 2 ** 54),
    ([comb(100, 50), -comb(100, 49)], Fraction(-7, 3), None),
])
def test_float_kernel_rounds_wide_weights_as_literal_sums(weights, c, expected):
    coeffs = [Scalar.approx(c, 64)] * len(weights)
    (got,) = float_dots([x.value for x in coeffs], [weights], significand_bits(64),
                        max(abs(w) for w in weights).bit_length())
    assert got == float_dot(coeffs, weights).value
    if expected is not None:
        assert Scalar(got, 64).as_fraction() == expected


@pytest.mark.parametrize("bad", [mpmath.inf, -mpmath.inf, mpmath.nan])
def test_float_table_rejects_non_finite_coefficients(bad):
    """An infinity or NaN is rejected when the series is built, before any
    table reads it."""
    with pytest.raises(ValueError, match=r"coeffs\[2\] must be finite"):
        TaylorSeries(f64(1), (f64(1).value, f64(2).value, bad._mpf_))
    with pytest.raises(ValueError, match=r"^center must be finite"):
        TaylorSeries(Scalar(bad._mpf_, 64), (f64(1).value,))


# ---------------------------------------------------------------------------
# limit estimation
# ---------------------------------------------------------------------------


def test_estimate_pure_reciprocal_converges_fast():
    table, _ = table_for(0, 1, 0, 1, 3)
    est = estimate_limits(table, sc(Fraction(1, 10 ** 12)))
    assert est.q0.as_fraction() == 0
    assert est.q1.as_fraction() == 1
    assert est.q0_converged and est.q1_converged
    assert est.m_used == 3


def test_estimate_reports_last_deltas_as_indicators():
    table, _ = table_for(0, 1, Fraction(1, 4), 1, 8)
    est = estimate_limits(table, sc(Fraction(1, 10 ** 12)))
    assert est.error_indicator_q0 == table.rows[8].delta0
    assert est.error_indicator_q1 == table.rows[8].delta1


@pytest.mark.parametrize("m_max", [0, 1])
def test_estimate_on_short_tables_reports_last_row_unconverged(m_max):
    table, _ = table_for(0, 1, Fraction(1, 4), 1, m_max)
    # every delta is far inside this tolerance; two deltas are still needed
    est = estimate_limits(table, sc(10 ** 6))
    last = table.rows[-1]
    assert (est.q0, est.q1) == (last.q0, last.q1)
    assert (est.error_indicator_q0, est.error_indicator_q1) == (last.delta0, last.delta1)
    assert est.error_indicator_q1 is None
    assert (est.error_indicator_q0 is None) == (m_max == 0)
    assert not est.q0_converged and not est.q1_converged
    assert est.m_used == m_max


_LAZY_SERIES = {
    "quarter": (0, 1, Fraction(1, 4), 1),        # rows decay geometrically
    "x-over-x-plus-1": (1, -1, 1, 1),
    "reciprocal-at-one": (0, 1, 0, 1),            # every delta from m = 2 on is 0
    "two-pole": (2, -1, 2, Fraction(1, 3)),
}


# every series as an exact table, then as 64- and 128-bit float tables
_TABLE_KINDS = [(name, p) for p in (None, 64, 128) for name in _LAZY_SERIES]


@pytest.mark.filterwarnings("ignore::invpower.scalar.CancellationWarning")
@pytest.mark.parametrize("m_max", [*range(7), 60])
@pytest.mark.parametrize("name,precision", _TABLE_KINDS,
                         ids=[n if p is None else f"{n}-float{p}" for n, p in _TABLE_KINDS])
def test_exact_table_reads_as_the_table_built_from_its_rows(name, precision, m_max):
    """A table keeps its kernel's values (integers over ``den`` when
    exact, raw mpmath tuples in float mode) and builds rows when read:
    every row, the last one by negative index, and the estimate at
    tolerances on either side of the last two deltas equal those of a
    table built by hand from its rows (numerators over 3*den, which is
    not the least denominator, or the rows' raw tuples)."""
    table, _ = table_for(*_LAZY_SERIES[name], m_max, precision)
    assert (table.den is not None) == (precision is None)
    assert table.precision == precision
    den = None if table.den is None else 3 * table.den

    def held(v):
        if v is None:
            return None
        if den is None:
            return v.value
        assert den % v.value.denominator == 0
        return v.value.numerator * (den // v.value.denominator)

    by_hand = ConvergenceTable([tuple(map(held, r[1:])) for r in table.rows], den=den,
                               precision=precision)
    assert by_hand.values != table.values or den is None
    assert by_hand == table
    for m in range(-1, m_max + 1):
        assert table.row(m) == table.rows[m] == by_hand.row(m)
    tail = table.rows[-2:]
    deltas = [d.as_fraction() for r in tail for d in (r.delta0, r.delta1) if d is not None]
    eps = Fraction(1, 10 ** 80)
    tols = {0, *(d + s for d in deltas for s in (-eps, 0, eps))}
    flags = set()
    for tol in map(sc, sorted(tols)):
        est = estimate_limits(table, tol)
        assert est == estimate_limits(by_hand, tol)
        flags.add((est.q0_converged, est.q1_converged))
        if m_max >= 2:
            assert est.q0_converged == all(r.delta0 <= tol for r in tail)
        if m_max >= 3:
            assert est.q1_converged == all(r.delta1 <= tol for r in tail)
    if m_max >= 3 and any(deltas):
        assert {(False, False), (True, True)} <= flags


def test_center_invariance_needs_a_q1_row():
    with pytest.raises(ValueError):
        center_invariance_check(shifted_reciprocal(0, 1, 0), sc(1), sc(2), 0, sc(1))


def hand_tables(values):
    """Two tables built by hand whose rows are q0(m) = q1(m) = values[m]
    with their deltas |values[m] - values[m-1]| (delta1 from m = 2 on):
    an exact one of numerators over den = 3, and a 64-bit float one of
    raw tuples."""
    rows = [(v, v if m else None, abs(v - p) if m else None, abs(v - p) if m >= 2 else None)
            for m, (v, p) in enumerate(zip(values, [None, *values]))]
    exact = ConvergenceTable([tuple(None if v is None else 3 * v for v in r) for r in rows], den=3)
    raw = [tuple(None if v is None else Scalar.approx(v, 64).value for v in r) for r in rows]
    return exact, ConvergenceTable(raw, precision=64)


def test_oscillating_deltas_do_not_converge():
    for table in hand_tables([0, 1, 0, 1, 0]):
        assert [r.delta0 for r in table.rows] == [None, 1, 1, 1, 1]
        est = estimate_limits(table, sc(Fraction(1, 1000)))
        assert not est.q0_converged and not est.q1_converged
        assert est.q0.as_fraction() == 0  # estimate still reported
        assert est == estimate_limits(table, sc(Fraction(1, 1000)))


def test_single_step_agreement_is_not_convergence():
    # last delta tiny, second-to-last large: the two-delta rule holds out
    for table in hand_tables([0, 10, 20, 20]):
        assert [r.delta0 for r in table.rows] == [None, 10, 10, 0]
        assert not estimate_limits(table, sc(Fraction(1, 2))).q0_converged
        # with one more agreeing step both of the last two deltas are 0
        longer = ConvergenceTable([*table.values, table.values[-1]], table.den, table.precision)
        assert [r.delta0 for r in longer.rows][-2:] == [0, 0]
        assert estimate_limits(longer, sc(Fraction(1, 2))).q0_converged


def test_a_table_holds_one_form():
    for den, precision in ((None, None), (3, 64)):
        with pytest.raises(ValueError, match="a table takes den exactly when it has no float"):
            ConvergenceTable([(0, None, None, None)], den, precision)


def test_never_converged_when_final_delta_exceeds_tol():
    table, _ = table_for(1, -1, 1, 1, 10)
    tol = sc(Fraction(1, 10 ** 9))
    est = estimate_limits(table, tol)
    if est.q0_converged:
        assert est.error_indicator_q0 <= tol
    if est.q1_converged:
        assert est.error_indicator_q1 <= tol
    # at m_max = 10 the deltas are ~2^-11: definitely not converged
    assert not est.q0_converged


def test_x_over_x_plus_one_converges_by_forty():
    table, coeffs = table_for(1, -1, 1, 1, 40)
    for row in table.rows:
        assert row.q0.as_fraction() == 1 - Fraction(1, 2 ** (row.m + 1))
    est = estimate_limits(table, sc(Fraction(1, 10 ** 9)))
    assert est.q0_converged and est.q1_converged
    assert abs(est.q0.as_fraction() - 1) <= Fraction(1, 10 ** 9)
    assert abs(est.q1.as_fraction() + 1) <= Fraction(1, 10 ** 9)


def test_eventually_decreasing_deltas_for_well_behaved_inputs():
    for offset, weight, shift in [(0, 1, Fraction(1, 4)), (1, -1, 1), (2, -1, 2)]:
        table, _ = table_for(offset, weight, shift, 1, 40)
        deltas = [r.delta0.as_fraction() for r in table.rows if r.delta0 is not None]
        tail = deltas[3:]
        assert all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))


# ---------------------------------------------------------------------------
# center invariance
# ---------------------------------------------------------------------------


def test_center_invariance_pure_reciprocal():
    report = center_invariance_check(
        shifted_reciprocal(0, 1, 0), sc(1), sc(Fraction(5, 4)), 30, sc(Fraction(1, 10 ** 6)))
    assert report.agrees
    # about x0 = 1 the rows are exact from the start
    for row in report.table_a.rows[1:]:
        assert row.q0.as_fraction() == 0
        assert row.q1.as_fraction() == 1
    # about x0 = 5/4 they decay geometrically
    for row in report.table_b.rows:
        assert row.q0.as_fraction() == Fraction(4, 5 ** (row.m + 1))


def test_center_invariance_constant():
    report = center_invariance_check(
        shifted_reciprocal(7, 0, 0), sc(2), sc(-3), 5, sc(0))
    assert report.agrees
    assert report.q0_difference.as_fraction() == 0
    assert report.q1_difference.as_fraction() == 0


def test_center_invariance_mobius_both_estimates_approach_truth():
    f = mobius(2, 3, 1, 2)
    report = center_invariance_check(f, sc(1), sc(Fraction(3, 2)), 40, sc(Fraction(1, 10 ** 4)))
    for est in (report.estimate_a, report.estimate_b):
        assert abs(est.q0.as_fraction() - 2) < Fraction(1, 10 ** 4)
        assert abs(est.q1.as_fraction() + 1) < Fraction(1, 10 ** 3)
    assert report.q0_agrees


def test_center_invariance_propagates_pole_errors():
    with pytest.raises(PoleError):
        center_invariance_check(shifted_reciprocal(0, 1, 0), sc(0), sc(1), 5, sc(1))


# ---------------------------------------------------------------------------
# residual scan
# ---------------------------------------------------------------------------


def dyadic_grid(lo=4, hi=20):
    return tuple(sc(2 ** e) for e in range(lo, hi + 1))


def test_residual_scan_exact_two_term_function():
    report = asymptotic_residual_scan(shifted_reciprocal(0, 1, 0), sc(0), sc(1), dyadic_grid())
    assert all(p.residual.as_fraction() == 0 for p in report.points)
    assert not report.growth_flagged


def test_residual_scan_bounded_for_true_asymptote():
    f = mobius(1, 0, 1, 1)  # x/(x+1): scaled remainder x/(x+1) -> 1
    report = asymptotic_residual_scan(f, sc(1), sc(-1), dyadic_grid())
    assert not report.growth_flagged
    for p in report.points:
        assert p.residual.as_fraction() < 1


def test_residual_scan_approaches_next_coefficient():
    # 2 - 1/(x+2) = 2 - 1/x + 2/x^2 - ...: scaled remainder tends to 2
    f = mobius(2, 3, 1, 2)
    report = asymptotic_residual_scan(f, sc(2), sc(-1), dyadic_grid())
    assert not report.growth_flagged
    last = report.points[-1].residual.as_fraction()
    assert abs(last - 2) < Fraction(1, 10 ** 4)


def test_residual_scan_flags_wrong_limits():
    f = mobius(1, 0, 1, 1)
    wrong_q1 = asymptotic_residual_scan(f, sc(1), sc(Fraction(-9, 10)), dyadic_grid())
    assert wrong_q1.growth_flagged
    wrong_q0 = asymptotic_residual_scan(f, sc(Fraction(99, 100)), sc(-1), dyadic_grid())
    assert wrong_q0.growth_flagged


def test_residual_scan_rejects_poles_and_zero():
    with pytest.raises(ValueError):
        asymptotic_residual_scan(shifted_reciprocal(0, 1, 0), sc(0), sc(1), (sc(0),))
    with pytest.raises(PoleError):
        asymptotic_residual_scan(mobius(1, 0, 1, 1), sc(1), sc(-1), (sc(-1), sc(4)))
