import functools
import inspect
import json
import random
import re
import tempfile
from fractions import Fraction
from math import comb, lcm, ldexp
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from invpower import approximant
from invpower.approximant import (
    InversePowerApproximant,
    _rounded_dot,
    _weight_rows,
    coeffs_closed_form,
    coeffs_via_matrix,
    evaluate,
    exact_convolution,
    float_dots,
    rounded_distance,
    signed_binomial_matrix,
)
from invpower.corpus import load_coefficient_file
from invpower.errors import PoleError
from invpower.scalar import CancellationWarning, Scalar, binom, raw_value, significand_bits
from invpower.series import TaylorSeries, series_from_rationals
from invpower.transforms import binomial_convolve

from _oracles import (
    brute_q0,
    brute_q1,
    closed_form_q,
    comb0,
    determinant,
    evaluate_literal,
    evaluate_scalar_loop,
    expand_to_taylor,
    float_dot,
    guard_bit_rounded_dot,
    matmul,
    oracle_solve,
    tail_coeffs,
    tail_rows,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=24)


def series_strategy(min_len=1, max_len=13):
    return st.lists(rationals, min_size=min_len, max_size=max_len).map(
        lambda cs: series_from_rationals(1, cs))


def fracs(scalars):
    return [x.as_fraction() for x in scalars]


def exact_approximant(x0, q) -> InversePowerApproximant:
    """The exact approximant about x0 with coefficients q (``Fraction``s)."""
    den = lcm(*(v.denominator for v in q))
    return InversePowerApproximant(Scalar.rational(x0),
                                   tuple(v.numerator * (den // v.denominator) for v in q), den=den)


# ---------------------------------------------------------------------------
# the signed binomial matrix
# ---------------------------------------------------------------------------


def test_matrix_dimension_zero():
    assert signed_binomial_matrix(0) == ((1,),)


def test_matrix_order_two_rows():
    m = signed_binomial_matrix(2)
    assert m == ((1, 1, 1), (0, -1, -2), (0, 0, 1))


def test_matrix_row_patterns():
    m = signed_binomial_matrix(6)
    assert m[0] == (1,) * 7
    assert m[1] == tuple(-j for j in range(7))
    assert m[2][4] == 6
    # upper triangular with alternating unit diagonal
    for i in range(7):
        assert m[i][i] == (-1) ** i
        for j in range(i):
            assert m[i][j] == 0


@pytest.mark.parametrize("dim", list(range(0, 21)))
def test_matrix_is_involutory(dim):
    m = signed_binomial_matrix(dim)
    product = matmul(m, m)
    for i in range(dim + 1):
        for j in range(dim + 1):
            assert product[i][j] == (1 if i == j else 0)


def test_matrix_determinant_is_alternating_sign_product():
    for dim in range(31):
        det = determinant(signed_binomial_matrix(dim))
        expected = 1
        for i in range(dim + 1):
            expected *= (-1) ** i
        assert det == expected
        assert det in (1, -1)


# ---------------------------------------------------------------------------
# closed-form construction, checked against literal summation
# ---------------------------------------------------------------------------


def test_constant_approximant():
    s = series_from_rationals(1, [Fraction(5, 3)])
    for build in (coeffs_closed_form, coeffs_via_matrix):
        approx = build(s, 0)
        assert approx.dimension == 0
        assert approx.coeffs[0].as_fraction() == Fraction(5, 3)
    assert oracle_solve([Fraction(5, 3)], 0) == [Fraction(5, 3)]


def test_closed_form_reciprocal_quarter_leading_coefficients():
    """Shifted reciprocal 1/(x + 1/4) about 1: brute-force summation first,
    then the geometric closed forms q0 = 4/5^(m+1), q1 = 1-(4m+5)/5^(m+1)."""
    coeffs = tail_coeffs(Fraction(0), Fraction(1), Fraction(1, 4), Fraction(1), 25)
    s = series_from_rationals(1, coeffs)
    for m in range(0, 21):
        approx = coeffs_closed_form(s, m)
        q0 = brute_q0(coeffs, m)
        assert approx.coeffs[0].as_fraction() == q0
        assert q0 == Fraction(4, 5 ** (m + 1))
        if m >= 1:
            q1 = brute_q1(coeffs, m)
            assert approx.coeffs[1].as_fraction() == q1
            assert q1 == 1 - Fraction(4 * m + 5, 5 ** (m + 1))


def test_via_matrix_hand_case():
    # c = (0, 1, 0): convolved vector (0, 1, 1) -> q = (2, -3, 1)
    s = series_from_rationals(1, [0, 1, 0])
    approx = coeffs_via_matrix(s, 2)
    assert [q.as_fraction() for q in approx.coeffs] == [2, -3, 1]
    assert coeffs_closed_form(s, 2).coeffs == approx.coeffs
    assert oracle_solve([0, 1, 0], 2) == fracs(approx.coeffs)


@settings(max_examples=50)
@given(series_strategy(min_len=7, max_len=7))
def test_three_paths_agree_order_six(s):
    a = coeffs_closed_form(s, 6)
    b = coeffs_via_matrix(s, 6)
    assert a.coeffs == b.coeffs
    assert fracs(a.coeffs) == oracle_solve(fracs(s.coeffs), 6) == closed_form_q(fracs(s.coeffs), 6)


def test_three_paths_agree_all_dimensions():
    rng = random.Random(20260810)
    for m in range(13):
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(m + 1)]
            s = series_from_rationals(Fraction(1, 2), coeffs)
            a = coeffs_closed_form(s, m)
            b = coeffs_via_matrix(s, m)
            assert a.coeffs == b.coeffs
            assert fracs(a.coeffs) == oracle_solve(coeffs, m) == closed_form_q(coeffs, m)


@settings(max_examples=60)
@given(st.lists(rationals, min_size=1, max_size=13).flatmap(
    lambda cs: st.tuples(st.just(cs), st.integers(0, len(cs) - 1))))
def test_kernel_matches_literal_sums_and_solver(coeffs_and_m):
    """The integer kernel behind the exact closed form equals the literal
    double sums and the elimination oracle, also when the series carries
    more coefficients than the dimension uses."""
    coeffs, m = coeffs_and_m
    s = series_from_rationals(Fraction(-2, 3), coeffs)
    approx = coeffs_closed_form(s, m)
    assert fracs(approx.coeffs) == closed_form_q(coeffs, m) == oracle_solve(coeffs, m)


@settings(max_examples=60)
@given(st.lists(st.fractions(max_denominator=10 ** 6), min_size=1, max_size=16).flatmap(
    lambda cs: st.tuples(st.just(cs), st.integers(0, min(12, len(cs) - 1)))))
def test_exact_convolution_is_binomial_convolve_over_common_denominator(coeffs_and_m):
    """The integer kernel's D*d_0..D*d_m divided by D are the entries of
    ``binomial_convolve``, with D the least common denominator of
    c_0..c_m, also when the series carries more coefficients."""
    coeffs, m = coeffs_and_m
    s = series_from_rationals(0, coeffs)
    d, den = exact_convolution(s, m)
    assert den == lcm(*(c.denominator for c in coeffs[:m + 1]))
    assert all(type(x) is int for x in d)
    assert [Fraction(x, den) for x in d] == fracs(binomial_convolve(s, m))


@settings(max_examples=60)
@given(st.lists(st.tuples(st.fractions(max_denominator=10 ** 4), st.integers(1, 12)),
                min_size=2, max_size=16).flatmap(
    lambda cs: st.tuples(st.just(cs), st.integers(0, len(cs) - 2))))
def test_exact_convolution_of_a_file_series_is_the_lcm_route_over_its_prefix(entries_and_m):
    """A file series with spare coefficients and unreduced entries
    ("k*p/k*q") holds its numerators over the least common denominator
    of all its entries; the kernel's convolution at m equals the lcm
    route over c_0..c_m alone: D = lcm of their denominators,
    a_n = D*c_n, and D*d_N = sum_j C(N-1, j) a_{j+1}."""
    entries, m = entries_and_m
    coeffs = [c for c, _ in entries]
    payload = {"center": "1", "exact": True,
               "coeffs": [f"{c.numerator * k}/{c.denominator * k}" for c, k in entries]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(payload))
        series = load_coefficient_file(str(path))
    assert series.den == lcm(*(c.denominator for c in coeffs))
    den = lcm(*(c.denominator for c in coeffs[:m + 1]))
    a = [c.numerator * (den // c.denominator) for c in coeffs[:m + 1]]
    expected = [a[0], *(sum(comb(n - 1, j) * a[j + 1] for j in range(n)) for n in range(1, m + 1))]
    assert exact_convolution(series, m) == (expected, den)


def test_kernel_dimension_200_on_tail_sum():
    """1 + 2/(x + 1/4) - 3/(x + 1/2) + 1/2 + (5/4)/(x + 3) about 1 at
    dimension 200: the re-expansion reproduces c_0..c_200 and the leading
    pair equals the summed closed-form rows."""
    m, x0 = 200, Fraction(1)
    terms = ((Fraction(1), Fraction(2), Fraction(1, 4)),
             (Fraction(0), Fraction(-3), Fraction(1, 2)),
             (Fraction(1, 2), Fraction(5, 4), Fraction(3)))
    cols = [tail_coeffs(o, w, sh, x0, m + 1) for o, w, sh in terms]
    s = series_from_rationals(x0, [sum(col) for col in zip(*cols)])
    approx = coeffs_closed_form(s, m)
    assert expand_to_taylor(fracs(approx.coeffs), m + 1) == fracs(s.coeffs)
    rows = [tail_rows(o, w, sh, x0, m) for o, w, sh in terms]
    assert approx.coeffs[0].as_fraction() == sum(r[0] for r in rows)
    assert approx.coeffs[1].as_fraction() == sum(r[1] for r in rows)


def test_insufficient_coefficients_rejected():
    s = series_from_rationals(1, [1, 2])
    for build in (coeffs_closed_form, coeffs_via_matrix):
        with pytest.raises(ValueError):
            build(s, 2)


def test_negative_dimension_rejected():
    s = series_from_rationals(1, [1])
    with pytest.raises(ValueError):
        coeffs_closed_form(s, -1)


@settings(max_examples=30)
@given(series_strategy(min_len=5, max_len=11), series_strategy(min_len=5, max_len=11))
def test_construction_is_linear_in_coefficients(s, t):
    m = min(len(s.coeffs) - 1, len(t.coeffs) - 1, 10)
    merged = series_from_rationals(
        1, [s.coeffs[i].as_fraction() + t.coeffs[i].as_fraction() for i in range(m + 1)])
    qs = coeffs_closed_form(s, m).coeffs
    qt = coeffs_closed_form(t, m).coeffs
    qm = coeffs_closed_form(merged, m).coeffs
    for k in range(m + 1):
        assert qm[k] == qs[k] + qt[k]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_constant():
    approx = coeffs_closed_form(series_from_rationals(1, [7]), 0)
    for x in (0, 2, 100):
        assert evaluate(approx, x, 1) == (7, 1)


def test_evaluate_two_terms():
    approx = InversePowerApproximant(Scalar.rational(1), (1, -1), den=1)
    assert Fraction(*evaluate(approx, 2, 1)) == Fraction(1, 2)


def test_evaluate_at_pole_raises():
    approx = coeffs_closed_form(series_from_rationals(1, [1, 2]), 1)
    with pytest.raises(PoleError, match="^approximant has a pole at x = 0$"):
        evaluate(approx, 0, 1)


def test_evaluate_tracks_source_function():
    """x/(x+1) about 1 at dimension 8: the exact residual at x = 10 is set
    by the leading-coefficient gap 2^-9 and stays below 2^-8."""
    coeffs = tail_coeffs(Fraction(1), Fraction(-1), Fraction(1), Fraction(1), 12)
    s = series_from_rationals(1, coeffs)
    approx = coeffs_closed_form(s, 8)
    residual = Fraction(10, 11) - Fraction(*evaluate(approx, 10, 1))
    assert abs(residual) <= Fraction(1, 2 ** 8)
    assert residual == Fraction(387420489, 563200000000)  # frozen from the exact build


big_rationals = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))
eval_rationals = st.one_of(rationals, big_rationals)
_BIG = Fraction(123456789012345678901234567890123, 987654321098765432109876543210987)


@settings(max_examples=200)
@given(st.lists(st.one_of(st.just(Fraction(0)), eval_rationals), min_size=1, max_size=14),
       eval_rationals, st.one_of(st.just(Fraction(0)), eval_rationals))
@example([Fraction(3)], Fraction(1), Fraction(0))
@example([Fraction(1), Fraction(-2)], Fraction(1), Fraction(0))
@example([Fraction(5, 2), Fraction(-2, 3)], Fraction(-4), Fraction(-7, 3))
@example([Fraction(1, 2), Fraction(0), Fraction(-3, 7), Fraction(0)], Fraction(2), Fraction(-5, 3))
@example([Fraction(0)] * 5 + [Fraction(9, 4)], Fraction(1, 3), -_BIG)
@example([_BIG, Fraction(1), -_BIG, Fraction(2, 3)], _BIG, 1 / _BIG)
def test_exact_evaluate_matches_literal_sum(q, x0, base):
    """Exact ``evaluate`` at x = x0 - 1 + base equals the literal sum
    sum_k q_k/base**k over ``Fraction``, for negative and 40-digit
    bases, m = 0 and 1 and zero coefficients; at base 0 a dimension
    m >= 1 approximant raises ``PoleError`` and a constant is itself."""
    approx = exact_approximant(x0, q)
    x = x0 - 1 + base
    if base == 0 and len(q) > 1:
        message = f"approximant has a pole at x = {Scalar.rational(x0 - 1)}"
        with pytest.raises(PoleError, match=f"^{re.escape(message)}$"):
            evaluate(approx, *x.as_integer_ratio())
        return
    num, den = evaluate(approx, *x.as_integer_ratio())
    assert type(num) is type(den) is int and den > 0
    assert Fraction(num, den) == evaluate_literal(q, x0, x)


@pytest.mark.parametrize("precision", [64, 128])
def test_float_evaluate_keeps_scalar_loop_rounding(precision):
    """A float approximant at an exact point rounds as the term-by-term
    ``Scalar`` loop rounds, bit for bit."""
    coeffs = tail_coeffs(Fraction(1), Fraction(-1), Fraction(1), Fraction(1), 31)
    floats = series_from_rationals(1, coeffs).to_inexact(precision)
    points = [Fraction(1, 3), Fraction(-7, 3), Fraction(-40), Fraction(10 ** 6), _BIG, -_BIG]
    for m in (0, 1, 2, 7, 30):
        approx = coeffs_closed_form(floats, m)
        for x in points:
            got = evaluate(approx, *x.as_integer_ratio())
            want = evaluate_scalar_loop(approx, Scalar.rational(x))
            if m == 0:
                assert got is approx.values[0] and want is approx.coeffs[0]
                continue
            assert want.precision == precision and got == want.value


_WIDTHS = (64, 128, 256)
near_pole = st.one_of(
    st.builds(lambda sign, k: sign * Fraction(1, 2 ** k), st.sampled_from((1, -1)),
              st.integers(1, 300)),
    st.sampled_from((1 / _BIG, -1 / _BIG)))


@pytest.mark.parametrize("precision", _WIDTHS)
@settings(max_examples=120, deadline=None)
@given(st.lists(st.one_of(st.just(Fraction(0)), eval_rationals), min_size=1, max_size=12),
       eval_rationals, st.one_of(near_pole, eval_rationals.filter(bool)))
@example([Fraction(1, 3), Fraction(-2, 7), Fraction(5)], Fraction(1), Fraction(1, 2 ** 200))
@example([_BIG, Fraction(1), -_BIG], _BIG, -1 / _BIG)
@example([Fraction(5, 2), Fraction(-2, 3), Fraction(0), Fraction(9, 4)], Fraction(-4),
         -Fraction(1, 2 ** 60))
@example([Fraction(1), Fraction(-1), Fraction(1, 3)], Fraction(7, 3), Fraction(-1, 2))
def test_float_evaluate_equals_scalar_loop(precision, q, x0, base):
    """The raw-value float loop equals ``evaluate_scalar_loop`` bit for
    bit: float q_k about a float center of their width, at exact points
    also next to the pole (+-2**-k, +-1/_BIG).  A base x - x0 + 1 that
    rounds to zero is the pole, named by x0 - 1 at the center's width."""
    center = Scalar.approx(x0, precision)
    approx = InversePowerApproximant(center, tuple(Scalar.approx(v, precision).value for v in q))
    point = Scalar.rational(x0 - 1 + base)
    pair = point.as_fraction().as_integer_ratio()
    if (point - center + 1).is_zero and len(q) > 1:
        message = f"approximant has a pole at x = {center - 1}"
        with pytest.raises(PoleError, match=f"^{re.escape(message)}$"):
            evaluate(approx, *pair)
        return
    got, want = evaluate(approx, *pair), evaluate_scalar_loop(approx, point)
    assert want.precision == precision and got == want.value


@pytest.mark.parametrize("den", [0, -3, True, 2.0, Fraction(2)], ids=repr)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_evaluate_rejects_a_den_that_is_not_a_positive_int(exact, den):
    """A point is a pair (num, den): ``evaluate`` rejects a ``den`` that
    is not a positive int by name, as an approximant rejects its own."""
    series = series_from_rationals(1, [1, 2, 3])
    approx = coeffs_closed_form(series if exact else series.to_inexact(128), 2)
    with pytest.raises(ValueError, match=f"^den must be a positive int, got {re.escape(repr(den))}$"):
        evaluate(approx, 1, den)


@pytest.mark.parametrize("center,den,message", [
    (Scalar.approx(1, 128), 3, "den=3 about a 128-bit float center"),
    (Scalar.rational(1), None, "den=None about an exact center"),
], ids=["den-about-float", "no-den-about-exact"])
def test_approximant_takes_den_exactly_about_an_exact_center(center, den, message):
    """The center fixes an approximant's exactness and width: ``den`` is
    given about an exact center and about no other, and the error names
    it and the center's width."""
    rule = ": an approximant takes den exactly when its center is exact"
    with pytest.raises(ValueError, match=f"^{re.escape(message + rule)}$"):
        InversePowerApproximant(center, (Scalar.approx(1, 128).value,), den=den)


@pytest.mark.parametrize("center,values,den,message", [
    (Scalar.rational(1), ("x", 2.5), 0, "den must be a positive int, got 0"),
    (Scalar.rational(1), (1, 2), 0, "den must be a positive int, got 0"),
    (Scalar.rational(1), (1, 2), True, "den must be a positive int, got True"),
    (Scalar.rational(1), ("x", 2.5), 1, "values[0] must be an int numerator, got 'x'"),
    (Scalar.rational(1), (1, 2, 2.5), 3, "values[2] must be an int numerator, got 2.5"),
    (Scalar.approx(1, 64), ((0, 1, 0, 1), 1), None,
     "values[1] must be a raw mpmath tuple (sign, man, exp, bc), got int"),
    (Scalar.approx(1, 64), ((0, 1, 0),), None,
     "values[0] must be a raw mpmath tuple (sign, man, exp, bc), got tuple"),
], ids=["text-den-zero", "den-zero", "den-bool", "text-values", "float-value", "int-raw",
        "short-raw"])
def test_approximant_rejects_values_and_den_a_series_rejects(center, values, den, message):
    """An approximant is checked as a series is: int numerators over a
    positive int ``den``, or raw 4-tuples, and the error names the field.
    Neither (1, 2) over den=0, which ``evaluate`` would divide by, nor
    text over den=0 builds."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        InversePowerApproximant(center, values, den=den)


def test_float_approximant_takes_its_centers_width():
    """A float approximant has no width of its own: its coefficients are
    read at the center's."""
    assert "precision" not in inspect.signature(InversePowerApproximant).parameters
    approx = coeffs_closed_form(series_from_rationals(1, [1, 2, 3]).to_inexact(256), 2)
    assert not approx.is_exact
    assert {q.precision for q in approx.coeffs} == {approx.center.precision} == {256}


def test_evaluate_makes_no_scalar_arithmetic(monkeypatch):
    """Both branches work on ints and raw values: no ``Scalar`` operation
    runs, whatever the dimension, also at the pole."""
    calls = []
    binary = Scalar._binary
    monkeypatch.setattr(Scalar, "_binary", lambda *a: calls.append(1) or binary(*a))
    for m in (3, 40):
        exact = InversePowerApproximant(Scalar.rational(1, 2), tuple(range(1, m + 2)), den=7)
        center = Scalar.approx(Fraction(1, 2), 128)
        floats = InversePowerApproximant(center, tuple(Scalar.approx(k, 128).value
                                                       for k in range(1, m + 2)))
        for approx in (exact, floats):
            evaluate(approx, -9, 4)
            with pytest.raises(PoleError):
                evaluate(approx, -1, 2)
    assert calls == []


# ---------------------------------------------------------------------------
# re-expansion / round trip
# ---------------------------------------------------------------------------


def test_expand_constant():
    approx = coeffs_closed_form(series_from_rationals(1, [Fraction(5, 2)]), 0)
    assert expand_to_taylor(fracs(approx.coeffs), 4) == [Fraction(5, 2), 0, 0, 0]


def test_expand_pure_reciprocal():
    # q = (0, 1) about 1 is exactly 1/x; its expansion alternates signs
    assert expand_to_taylor([Fraction(0), Fraction(1)], 3) == [1, -1, 1]


@settings(max_examples=60)
@given(series_strategy())
def test_round_trip_reproduces_input(s):
    m = len(s.coeffs) - 1
    coeffs = fracs(s.coeffs)
    for q in (fracs(coeffs_closed_form(s, m).coeffs), fracs(coeffs_via_matrix(s, m).coeffs),
              oracle_solve(coeffs, m)):
        assert expand_to_taylor(q, m + 1) == coeffs


def test_expansion_matches_matching_system():
    """Re-expansion coefficients are literally the matching equations:
    c_n = (-1)^n sum_k q_k C(k+n-1, n)."""
    q = oracle_solve([3, -2, Fraction(1, 2), 5], 3)
    out = expand_to_taylor(q, 7)
    for n in range(7):
        if n == 0:
            expected = sum(q)
        else:
            expected = (-1) ** n * sum(q[k] * binom(k + n - 1, n) for k in range(1, 4))
        assert out[n] == expected


# ---------------------------------------------------------------------------
# float-mode hazard reporting
# ---------------------------------------------------------------------------


def test_float_mode_flags_and_warns():
    coeffs = tail_coeffs(Fraction(1), Fraction(-1), Fraction(1), Fraction(1), 61)
    s = series_from_rationals(1, coeffs).to_inexact(64)
    with pytest.warns(CancellationWarning):
        approx = coeffs_closed_form(s, 60)
    assert not approx.is_exact


def test_float_mode_no_warning_at_small_dimension():
    import warnings
    s = series_from_rationals(1, [1, 2, 3]).to_inexact(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        approx = coeffs_via_matrix(s, 2)
    assert not approx.is_exact


@pytest.mark.parametrize("bad", [mpmath.inf, -mpmath.inf, mpmath.nan])
def test_float_approximant_rejects_non_finite_coefficients(bad):
    """An infinity or NaN never reaches either construction: the series
    that would hold it is rejected when it is built."""
    values = (Scalar.approx(1, 64).value, bad._mpf_, Scalar.approx(2, 64).value)
    with pytest.raises(ValueError, match=r"^coefficient coeffs\[1\] must be finite"):
        TaylorSeries(Scalar.approx(1, 64), values)


# ---------------------------------------------------------------------------
# float mode: the weights of the literal sums
# ---------------------------------------------------------------------------


def test_weight_recurrence_matches_alternating_inner_sums():
    """Row k is (-1)**k W(k, s), W the alternating inner sum of the
    literal formula: q_k = sum_s row[s] c_s."""
    for m in range(30):
        rows = list(_weight_rows(m))
        assert len(rows) == m + 1
        assert rows[0] == [comb0(m, s) for s in range(m + 1)]
        for k in range(1, m + 1):
            assert rows[k] == [0] + [
                (-1) ** k * sum((-1) ** n * comb0(m - n, k - n) * comb0(m, s + n)
                                for n in range(k + 1))
                for s in range(1, m + 1)]


# ---------------------------------------------------------------------------
# float mode: the binary64 route of the float kernel at 53 bits
# ---------------------------------------------------------------------------

_MANTISSAS = st.integers(1, 2 ** 53 - 1)


def _coeff(man: int, e: int) -> tuple[int, int]:
    """The signed 53-bit coefficient man * 2**(e - bit length of man), as
    (man, exp), with 2**(e-1) <= |coefficient| < 2**e."""
    return man, e - abs(man).bit_length()


# significand widths of 64-, 128-, 256- and 1600-bit floats
_DISTANCE_BITS = [significand_bits(w) for w in (64, 128, 256, 1600)]


@st.composite
def distance_operands(draw):
    """A significand width and two raw values of at most that many bits,
    by kind: random, a zero operand, equal values, a difference that
    cancels all but a few bits exactly, a difference that is a tie at the
    width, and exponents far - 4 .. far + 2 apart either way, far = 2*bits
    + 2 the kernel's rule (the smaller operand can change the result up
    to a gap of 2*bits), the larger operand's mantissa narrow or full."""
    bits = draw(st.sampled_from(_DISTANCE_BITS))
    full = st.integers(1 - 2 ** bits, 2 ** bits - 1)
    exp = st.integers(-5000, 5000)
    kind = draw(st.sampled_from(["random", "zero", "equal", "cancel", "tie", "far"]))
    xm, xe = draw(full), draw(exp)
    x = raw_value(xm, xe)
    if kind == "random":
        y = raw_value(draw(full), draw(exp))
    elif kind == "zero":
        y = raw_value(0, 0)
        x = draw(st.sampled_from([x, y]))
    elif kind == "equal":
        y = x
    elif kind == "cancel":
        y = raw_value(xm + draw(st.integers(-3, 3)), xe)
        assume(abs(y[1]).bit_length() <= bits)
    elif kind == "tie":
        # x of a full mantissa M: x -/+ 2**(e-1) odd is (2M -/+ odd) 2**(e-1),
        # bits + 1 bits wide and odd
        xm = draw(st.sampled_from([-1, 1])) * draw(st.integers(2 ** (bits - 1) + 8, 2 ** bits - 1))
        x = raw_value(xm, xe)
        y = raw_value(draw(st.sampled_from([-1, 1, -3, 3, -5, 5])), xe - 1)
    else:
        # odd mantissas keep the exponents as drawn
        xm = 2 * draw(st.integers(0, 3) | st.integers(2 ** (bits - 2), 2 ** (bits - 1) - 1)) + 1
        ym = 2 * draw(st.integers(0, 2 ** (bits - 1) - 1)) + 1
        gap = 2 * bits + 2 + draw(st.integers(-4, 2))
        x = raw_value(draw(st.sampled_from([-1, 1])) * xm, xe)
        y = raw_value(draw(st.sampled_from([-1, 1])) * ym, xe - gap)
    if draw(st.booleans()):
        x, y = y, x
    return bits, x, y


@settings(max_examples=1500, deadline=None)
@given(distance_operands())
@example((53, raw_value(1, 0), raw_value(2 ** 53 - 1, -106)))    # gap far - 2: y counts
@example((53, raw_value(1, 0), raw_value(2 ** 53 - 1, -107)))    # gap far - 1: y does not
@example((53, raw_value(-1, 0), raw_value(2 ** 53 - 1, -110)))   # gap far + 2: x is the result
@example((53, raw_value(2 ** 53 - 1, -110), raw_value(1, 0)))
@example((113, raw_value(2 ** 112 + 1, 0), raw_value(1, -1)))    # tie, down to even
@example((113, raw_value(2 ** 112 + 3, 0), raw_value(-1, -1)))   # tie, up to even
@example((237, raw_value(0, 0), raw_value(-5, 9)))
@example((1570, raw_value(-7, 3), raw_value(-7, 3)))
def test_rounded_distance_is_mpmaths_rounded_abs_difference(case):
    """|x - y| on integers is mpmath's correctly rounded |x - y| bit for
    bit, at 53, 113, 237 and 1,570 bits."""
    bits, x, y = case
    expected = mpmath.libmp.mpf_abs(mpmath.libmp.mpf_sub(x, y, bits, "n"))
    assert rounded_distance(x, y, bits) == expected


def _raw(c: list[tuple[int, int]]) -> list[tuple]:
    return [mpmath.libmp.from_man_exp(man, exp) for man, exp in c]


def _widest(row: list[int]) -> int:
    """The bit length of the row's widest weight, the bound ``float_dots``
    takes."""
    return max((abs(w) for w in row), default=0).bit_length()


def _integer_route(row: list[int], c: list[tuple[int, int]]) -> tuple:
    return mpmath.libmp.from_man_exp(*_rounded_dot(row, c, 53, False))


@functools.cache
def _approximant_rows(m: int) -> list[list[int]]:
    return list(_weight_rows(m))


def _weight_slice(draw) -> list[int]:
    """Up to 12 consecutive weights of a q0 or q1 table row (C(m, s) and
    C(m, s+1) - m*C(m, s), whose largest pass 2**1023 from m = 1029 and
    1019 on) or of an approximant row W(k, s), from s = j on; j is drawn
    near the middle of the row, where the weights are largest, or
    anywhere."""
    kind = draw(st.sampled_from(["q0", "q1", "approximant"]))
    m = draw(st.integers(1, 60) if kind == "approximant" else
             st.integers(1, 200) | st.integers(1015, 1040))
    j = draw(st.integers(0, m) | st.integers(max(0, m // 2 - 20), m // 2))
    s = range(j, min(j + 12, m + 1))
    if kind == "approximant":
        return _approximant_rows(m)[draw(st.integers(0, m))][j:s.stop]
    if kind == "q0":
        return [comb(m, i) for i in s]
    return [comb(m, i + 1) - m * comb(m, i) if i else 0 for i in s]


@st.composite
def binary64_rows(draw):
    """A weight row and 53-bit coefficients (as (man, exp)) for the float
    kernel, built term by term: random terms with weights from a
    production row or free (wider than 53 bits too), zero terms, product
    ties, sum ties, and a term that cancels the partial sum to exactly
    zero, mid-row or at the end.  The coefficient magnitudes 2**(e-1)
    come from one band: across the smallest normal binary64 number, near
    1, or across the largest."""
    band = draw(st.sampled_from([st.integers(-1030, -1008), st.integers(-70, 70),
                                 st.integers(990, 1026)]))
    weights = iter(_weight_slice(draw) if draw(st.booleans()) else [])
    free = st.integers(-2 ** 60, 2 ** 60) | st.integers(1020, 1026).flatmap(
        lambda k: st.integers(-2 ** k, 2 ** k))
    row, c = [], []
    for kind in draw(st.lists(st.sampled_from(["term", "term", "zero", "product tie",
                                                "sum tie", "cancel"]), min_size=1, max_size=12)):
        sign = draw(st.sampled_from([1, -1]))
        if kind == "term":
            w = next(weights, None)
            row.append(draw(free) if w is None else w)
            c.append(_coeff(sign * draw(_MANTISSAS), draw(band)))
        elif kind == "zero":
            row.append(draw(free | st.just(0)))
            c.append((0, 0))
        elif kind == "product tie":
            # an odd weight times an odd mantissa, 53 or 54 bits long: a 54-bit
            # odd product lies halfway between two 53-bit values
            w = draw(st.integers(1, 2 ** 27)) * 2 + 1
            man = draw(st.integers(2 ** (53 - w.bit_length()), 2 ** (54 - w.bit_length()) - 1))
            row.append(w)
            c.append(_coeff(sign * (man | 1), draw(band)))
        else:
            s_man, s_exp = _rounded_dot(row, c, 53, False)
            if not s_man:
                continue
            row.append(1)
            if kind == "cancel":
                c.append((-s_man, s_exp))
            else:
                # an odd multiple of half the partial sum's 53-bit ulp: a tie
                ulp = s_exp + abs(s_man).bit_length() - 53
                c.append((sign * (2 * draw(st.integers(0, 3)) + 1), ulp - 1))
    assume(row)
    return row, c


@settings(max_examples=400, deadline=None)
@given(binary64_rows())
@example(([1, 1, 3], [(1, 0), (-1, 0), (5, -2)]))         # cancels mid-row
@example(([7, 7], [(3, 10), (-3, 10)]))                   # cancels at the end
@example(([2 ** 27 - 1], [(2 ** 27 + 1, 0)]))             # product tie, rounds up
@example(([1, 1], [(1, 0), (1, -53)]))                    # sum tie, rounds to even
@example(([1], [_coeff(1, -1021)]))                       # smallest normal product
@example(([1], [_coeff(2 ** 53 - 1, -1022)]))             # ... just below it
@example(([1], [_coeff(2 ** 53 - 1, 1022)]))              # largest one-term sum
@example(([1], [_coeff(2 ** 53 - 1, 1023)]))              # ... just above it
@example(([1, 1], [_coeff(2 ** 53 - 1, 1021)] * 2))       # largest two-term sum
@example(([1, 1], [_coeff(2 ** 53 - 1, 1023)] * 2))       # overflows binary64
@example(([2 ** 1023 - 1], [_coeff(1, -999)]))            # weight near 2**1023
@example(([2 ** 1024 - 1], [_coeff(1, -999)]))            # float(w) would overflow
def test_binary64_route_equals_integer_route(case):
    row, c = case
    assert float_dots(_raw(c), [row], 53, _widest(row)) == [_integer_route(row, c)]


@st.composite
def binary64_row_sets(draw):
    """53-bit coefficients (man, exp) from one band, near the smallest
    normal binary64 number, near 1 or below it, sometimes with one entry
    outside the normal range, and two to five weight rows of up to as
    many weights, each row's weights under 2**60 or near 2**1023 on
    either side, so that a set of rows straddles 2**1023."""
    band = draw(st.sampled_from([st.integers(-1021, -990), st.integers(-70, 70),
                                 st.integers(-40, -2)]))
    c = [_coeff(draw(st.sampled_from([1, -1])) * draw(_MANTISSAS), draw(band))
         for _ in range(draw(st.integers(1, 8)))]
    if draw(st.booleans()):
        c[draw(st.integers(0, len(c) - 1))] = _coeff(
            draw(_MANTISSAS), draw(st.integers(-1100, -1022) | st.integers(1025, 1100)))
    rows = []
    for _ in range(draw(st.integers(2, 5))):
        k = draw(st.integers(1, 60) | st.integers(1018, 1026))
        rows.append(draw(st.lists(st.integers(-2 ** k, 2 ** k), min_size=1, max_size=len(c))))
    return rows, c


@settings(max_examples=300, deadline=None)
@given(binary64_row_sets())
@example(([[1, 1], [2 ** 1023, 1]], [(1, -30), (1, -40)]))      # weights straddle 2**1023
@example(([[3], [1, 1]], [(1, 0), _coeff(1, -1030)]))          # a subnormal past row 0's end
@example(([[3], [5, 1]], [(1, 0), _coeff(1, 1030)]))           # ... or a value past 2**1024
@example(([[2 ** 1022], [1, 1]], [(1, 0), (1, 0)]))            # b + T + bit length n > 1024
@example(([[2 ** 1020, 1], [7, 1]], [(1, -30), (3, -8)]))      # every row in binary64
def test_float_dots_picks_one_route_per_call(case):
    """At 53 bits the kernel sums every row in binary64 or every row on
    integers, and either way each row equals the integer route's sum."""
    rows, c = case
    calls = []

    def counted(*args):
        calls.append(args)
        return _rounded_dot(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(approximant, "_rounded_dot", counted)
        got = float_dots(_raw(c), rows, 53, max(map(_widest, rows)))
    assert got == [_integer_route(row, c) for row in rows]
    assert len(calls) in (0, len(rows))


# ---------------------------------------------------------------------------
# float mode: the integer kernel's rounding at 113 and 237 bits
# ---------------------------------------------------------------------------


def _literal_sum(width: int, row: list[int], c: list[tuple[int, int]]) -> tuple:
    """The ``Scalar`` literal sum of one weight row over the coefficients
    man * 2**exp, as a raw value: the oracle, not the kernel."""
    return float_dot([Scalar(x, width) for x in _raw(c)], row).value


@st.composite
def wide_rows(draw):
    """A width of 128 or 256 bits (113 or 237 significand bits), a weight
    row and coefficients (man, exp) at that width, built term by term as
    ``binary64_rows`` builds them: random terms of either sign, with
    weights from a production row or free and up to three times wider
    than the significand, zero terms, weight ties, product ties, sum
    ties, and a term that cancels the partial sum to exactly zero.  The
    partial sums that place the ties and cancellations are the
    ``Scalar`` literal sums."""
    width = draw(st.sampled_from([128, 256]))
    bits = significand_bits(width)
    exps = st.integers(-3 * bits, 3 * bits) | st.integers(-1200, 1200)
    weights = iter(_weight_slice(draw) if draw(st.booleans()) else [])
    free = st.integers(-2 ** 60, 2 ** 60) | st.integers(bits - 2, 3 * bits).flatmap(
        lambda k: st.integers(-2 ** k, 2 ** k))
    mantissas = st.integers(-(2 ** bits) + 1, 2 ** bits - 1).filter(bool)
    row, c = [], []
    for kind in draw(st.lists(st.sampled_from(["term", "term", "zero", "weight tie",
                                                "product tie", "sum tie", "cancel"]),
                              min_size=1, max_size=12)):
        sign = draw(st.sampled_from([1, -1]))
        if kind == "term":
            w = next(weights, None)
            row.append(draw(free) if w is None else w)
            c.append((draw(mantissas), draw(exps)))
        elif kind == "weight tie":
            # bits + 1 significant bits ending in a one, shifted left: the
            # rounding drops exactly a half
            odd = draw(st.integers(2 ** bits, 2 ** (bits + 1) - 1)) | 1
            row.append(sign * odd << draw(st.integers(0, bits)))
            c.append((draw(mantissas), draw(exps)))
        elif kind == "zero":
            row.append(draw(free | st.just(0)))
            c.append((0, 0))
        elif kind == "product tie":
            # an odd weight times an odd mantissa, bits or bits + 1 long: an
            # odd product of bits + 1 bits lies halfway between two values
            w = draw(st.integers(1, 2 ** (bits // 2))) * 2 + 1
            man = draw(st.integers(2 ** (bits - w.bit_length()),
                                   2 ** (bits + 1 - w.bit_length()) - 1))
            row.append(sign * w)
            c.append((man | 1, draw(exps)))
        elif row:
            s_sign, s_man, s_exp, s_bc = _literal_sum(width, row, c)
            if not s_man:
                continue
            row.append(1)
            if kind == "cancel":
                c.append((s_man if s_sign else -s_man, s_exp))
            else:
                # an odd multiple of half the partial sum's ulp: a tie
                c.append((sign * (2 * draw(st.integers(0, 3)) + 1), s_exp + s_bc - bits - 1))
    assume(row)
    return width, row, c


@settings(max_examples=300, deadline=None)
@given(wide_rows())
@example((128, [2 ** 113 + 1], [(1, 0)]))                  # weight tie, rounds to even
@example((128, [2 ** 113 + 3], [(1, 0)]))                  # weight tie, rounds up to even
@example((256, [-(2 ** 237 + 3)], [(3, 5)]))               # negative weight tie, away from 0
@example((256, [-(2 ** 237 + 1) << 9], [(-3, 5)]))         # negative weight tie, toward 0
@example((128, [2 ** 56 + 1], [(2 ** 57 - 1, -9)]))        # product tie
@example((256, [1, 1], [(-1, 0), (-1, -237)]))             # negative sum tie, to even
@example((256, [1, 1], [(1 - 2 ** 237, 0), (-1, -1)]))     # negative sum tie, away from 0
@example((128, [3, -3, 1], [(5, 400), (5, 400), (-1, -900)]))  # cancels, then a far term
def test_integer_kernel_rounds_wide_rows_as_literal_sums(case):
    width, row, c = case
    got = mpmath.libmp.from_man_exp(*_rounded_dot(row, c, significand_bits(width), False))
    assert got == _literal_sum(width, row, c)


# significand widths of 64-, 80-, 128-, 256-, 1600- and 2200-bit floats: the
# last two above 1,500 bits, where a table of fixed size would run out
_KERNEL_BITS = [significand_bits(w) for w in (64, 80, 128, 256, 1600, 2200)]


@st.composite
def kernel_rows(draw):
    """A significand width, a weight row and coefficients (man, exp) for
    the float kernel, built term by term on the guard-bit kernel's
    partial sums: random terms of either sign with weights narrow or
    2**bits and wider, zero weights and coefficients, weight ties,
    product ties, sum ties, a term that cancels the partial sum to
    exactly zero, and a term whose exponent is 2*bits + 2 (``far``) from
    the partial sum's, give or take two, on either side: within ``far``
    both operands are added and rounded, beyond it the smaller one is
    dropped."""
    bits = draw(st.sampled_from(_KERNEL_BITS))
    far = 2 * bits + 2
    exps = st.integers(-3 * bits, 3 * bits)
    weights = st.integers(-2 ** 60, 2 ** 60) | st.integers(bits, 3 * bits).flatmap(
        lambda k: st.integers(-2 ** k, 2 ** k))
    mantissas = st.integers(-(2 ** bits) + 1, 2 ** bits - 1).filter(bool)
    row, c = [], []
    for kind in draw(st.lists(st.sampled_from(["term", "term", "zero", "weight tie",
                                                "product tie", "sum tie", "cancel", "far"]),
                              min_size=1, max_size=10)):
        sign = draw(st.sampled_from([1, -1]))
        if kind == "term":
            row.append(draw(weights))
            c.append((draw(mantissas), draw(exps)))
        elif kind == "zero":
            row.append(draw(weights | st.just(0)))
            c.append((0, 0) if row[-1] else (draw(mantissas), draw(exps)))
        elif kind == "weight tie":
            odd = draw(st.integers(2 ** bits, 2 ** (bits + 1) - 1)) | 1
            row.append(sign * odd << draw(st.integers(0, 8)))
            c.append((draw(mantissas), draw(exps)))
        elif kind == "product tie":
            w = draw(st.integers(1, 2 ** (bits // 2))) * 2 + 1
            man = draw(st.integers(2 ** (bits - w.bit_length()),
                                   2 ** (bits + 1 - w.bit_length()) - 1))
            row.append(sign * w)
            c.append((man | 1, draw(exps)))
        else:
            s_man, s_exp = guard_bit_rounded_dot(row, c, bits)
            if not s_man:
                continue
            row.append(1)
            if kind == "cancel":
                c.append((-s_man, s_exp))
            elif kind == "sum tie":
                ulp = s_exp + abs(s_man).bit_length() - bits
                c.append((sign * (2 * draw(st.integers(0, 3)) + 1), ulp - 1))
            else:
                gap = draw(st.sampled_from([1, -1])) * (far + draw(st.integers(-2, 2)))
                c.append((draw(mantissas), s_exp - gap))
    assume(row)
    return bits, row, c


@settings(max_examples=400, deadline=None)
@given(kernel_rows())
@example((53, [1, 1], [(2 ** 53 - 1, 0), (1, -108)]))          # gap just inside far
@example((53, [1, 1], [(2 ** 53 - 1, 0), (1, -109)]))          # ... just outside
@example((53, [1, 1], [(1, 0), (-(2 ** 53) + 1, 108)]))        # far larger term, inside
@example((53, [1, 1], [(1, 0), (-(2 ** 53) + 1, 109)]))        # ... outside
@example((113, [3, -3, 1], [(5, 400), (5, 400), (-1, -900)]))  # cancels, then a far term
@example((1570, [2 ** 1570 + 1, 1], [(1, 0), (-(2 ** 1570) + 3, -3142)]))
@example((2169, [-(2 ** 6000) - 1, 7], [(2 ** 2169 - 1, -5), (1, 0)]))
def test_table_kernel_equals_the_guard_bit_kernel(case):
    """The float kernel's table rounding gives the guard-bit kernel's
    (man, exp), bit for bit, at 53 bits (the integer route of 64-bit
    floats) and at every other width, however wide, and so does a row
    summed as ``narrow`` when no weight reaches 2**bits."""
    bits, row, c = case
    expected = guard_bit_rounded_dot(row, c, bits)
    assert _rounded_dot(row, c, bits, False) == expected
    if all(abs(w) < 2 ** bits for w in row):
        assert _rounded_dot(row, c, bits, True) == expected


def _counting_integer_route(monkeypatch) -> list:
    """Make the float kernel record each row it sums on integers."""
    calls = []

    def counted(row, c, bits, narrow):
        calls.append(row)
        return _rounded_dot(row, c, bits, narrow)

    monkeypatch.setattr(approximant, "_rounded_dot", counted)
    return calls


# (row, coefficients as (man, e) with 2**(e-1) <= |c| < 2**e) on each side
# of each guard edge: the first of a pair takes the binary64 route, the
# second the integer route, and the second is a row where plain binary64
# arithmetic goes wrong
_GUARD_EDGES = {
    "smallest normal product": (
        ([1], [(2 ** 53 - 1, -1021)]),
        ([1], [(2 ** 53 - 1, -1022)])),
    "smallest normal coefficient, large weight": (
        ([2 ** 60], [(2 ** 53 - 1, -1021)]),
        ([2 ** 60], [(2 ** 53 - 1, -1030)])),
    "largest partial sum": (
        ([1, 1], [(2 ** 53 - 1, 1021)] * 2),
        ([1, 1], [(2 ** 53 - 1, 1024)] * 2)),
    "weight near 2**1023 with tiny coefficients": (
        ([2 ** 1023 - 1], [(1, -1000)]),
        ([2 ** 1024 - 1], [(1, -1000)])),
}


@pytest.mark.parametrize("inside,outside", _GUARD_EDGES.values(), ids=_GUARD_EDGES)
def test_binary64_guard_edges(monkeypatch, inside, outside):
    calls = _counting_integer_route(monkeypatch)
    for row, ce in (inside, outside):
        c = [_coeff(man, e) for man, e in ce]
        assert float_dots(_raw(c), [row], 53, _widest(row)) == [_integer_route(row, c)]
    assert calls == [outside[0]]

    def plain(row, c):
        # binary64 arithmetic with no guard
        try:
            acc = 0.0
            for w, (man, exp) in zip(row, c):
                acc += float(w) * ldexp(man, exp)
            return mpmath.libmp.from_float(acc)
        except OverflowError:
            return None

    row, ce = outside
    c = [_coeff(man, e) for man, e in ce]
    assert plain(row, c) != _integer_route(row, c)


def test_other_widths_take_the_integer_route(monkeypatch):
    calls = _counting_integer_route(monkeypatch)
    c = [_coeff(3, 1), _coeff(-5, 2)]
    for bits in (113, 237):
        assert float_dots(_raw(c), [[1, 2]], bits, 2) == [
            mpmath.libmp.from_man_exp(*_rounded_dot([1, 2], c, bits, True))]
    assert len(calls) == 2
