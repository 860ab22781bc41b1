import itertools
import math
import operator
import os
import re
from decimal import Decimal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import finf, fnan, fninf, from_man_exp, from_rational, to_str

from invpower.scalar import (
    MIN_PRECISION,
    Scalar,
    binom,
    cancellation_hazard,
    decimal_renderer,
    float_renderer,
    parse_ratio,
    ratio_text,
    raw_value,
    round_rational,
    significand_bits,
)

from _oracles import RawFrac

SRC = str(Path(__file__).resolve().parent.parent / "src")

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=200)


# ---------------------------------------------------------------------------
# binomial coefficients
# ---------------------------------------------------------------------------


def test_binom_small_row():
    assert binom(4, 2) == 6


def test_binom_zero_convention():
    assert binom(7, -1) == 0
    assert binom(5, 6) == 0
    assert binom(0, 0) == 1


def test_binom_midrange_value():
    # cross-checked against the Pascal recurrence below and math.comb
    assert binom(30, 15) == 155117520
    assert binom(30, 15) == math.comb(30, 15)


def test_binom_negative_upper_index_rejected():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_pascal_identity_and_symmetry_up_to_200():
    """Rows built by the additive recurrence alone, a second route to the
    numbers ``binom`` computes."""
    rows = [(1,)]
    for a in range(1, 201):
        prev = rows[-1]
        rows.append((1, *(prev[b - 1] + prev[b] for b in range(1, a)), 1))
        assert rows[a] == rows[a][::-1]
    for a in range(0, 201, 7):
        for b in range(-1, a + 2):
            assert binom(a, b) == (rows[a][b] if 0 <= b <= a else 0)


def test_row_sums_are_powers_of_two():
    for a in range(65):
        assert sum(binom(a, b) for b in range(a + 1)) == 2 ** a


# ---------------------------------------------------------------------------
# exact arithmetic
# ---------------------------------------------------------------------------


def test_exact_addition():
    assert Scalar.rational(1, 3) + Scalar.rational(1, 6) == Scalar.rational(1, 2)


def test_lowest_terms_positive_denominator():
    s = Scalar.rational(-4, -6)
    assert s.as_fraction() == Fraction(2, 3)
    assert s.as_fraction().denominator > 0


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar.rational(1) / Scalar.rational(0)


def test_non_integer_exponent_rejected():
    with pytest.raises(TypeError):
        Scalar.rational(2) ** 0.5  # type: ignore[operator]


@given(rationals, rationals)
def test_field_ops_match_fraction(a, b):
    x, y = Scalar.rational(a), Scalar.rational(b)
    assert (x + y).as_fraction() == a + b
    assert (x - y).as_fraction() == a - b
    assert (x * y).as_fraction() == a * b
    if b != 0:
        assert (x / y).as_fraction() == a / b
    assert (-x).as_fraction() == -a
    assert abs(x).as_fraction() == abs(a)
    assert (x == y) == (a == b)
    assert (x < y) == (a < b)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from("+-*/"), rationals), min_size=1, max_size=12),
       rationals)
def test_exactness_vs_unnormalized_fraction_path(ops, start):
    """Composite exact expressions agree with a second rational
    implementation that never reduces to lowest terms."""
    lib = Scalar.rational(start)
    raw = RawFrac(start.numerator, start.denominator)
    for op, value in ops:
        other_lib = Scalar.rational(value)
        other_raw = RawFrac(value.numerator, value.denominator)
        if op == "+":
            lib, raw = lib + other_lib, raw + other_raw
        elif op == "-":
            lib, raw = lib - other_lib, raw - other_raw
        elif op == "*":
            lib, raw = lib * other_lib, raw * other_raw
        elif value != 0:
            lib, raw = lib / other_lib, raw / other_raw
        assert lib.exact
        assert raw.equals(lib.as_fraction())


# ---------------------------------------------------------------------------
# float mode and exactness propagation
# ---------------------------------------------------------------------------


def test_mixing_clears_exact_flag():
    mixed = Scalar.rational(1, 3) + Scalar.approx(Fraction(1, 2), 64)
    assert not mixed.exact
    assert mixed.precision == 64


def test_exact_plus_exact_stays_exact():
    assert (Scalar.rational(1, 3) * Scalar.rational(3)).exact


def test_mixed_precision_rejected_naming_both_widths():
    """Arithmetic on floats of two widths is rejected, naming both: a
    float keeps its width.  An exact operand takes the float's width, and
    comparisons stay exact."""
    a = Scalar.approx(Fraction(1, 3), 128)
    b = Scalar.approx(Fraction(1, 7), 64)
    for op, (x, y) in itertools.product(
            (operator.add, operator.sub, operator.mul, operator.truediv), ((a, b), (b, a))):
        message = (f"cannot combine a {x.precision}-bit float with a {y.precision}-bit float: "
                   "a float keeps its width")
        with pytest.raises(ValueError, match=f"^{message}$"):
            op(x, y)
    assert (a + Fraction(1, 7)).precision == 128 and (1 - b).precision == 64
    assert b < a


def test_precision_floor_enforced():
    with pytest.raises(ValueError):
        Scalar.approx(Fraction(1, 3), 32)


def test_significand_widths_follow_ieee_rule():
    assert significand_bits(64) == 53
    assert significand_bits(128) == 113
    assert significand_bits(256) == 237


def test_float_mode_result_is_nearest_double():
    # at width 64 the significand is 53 bits, exactly a hardware double
    third = Scalar.approx(Fraction(1), 64) / Scalar.rational(3)
    assert third.as_fraction() == Fraction(1 / 3)


def test_correct_rounding_of_conversion():
    x = Scalar.approx(Fraction(1, 10), 64)
    assert x.as_fraction() == Fraction(0.1)


def test_cancellation_hazard_threshold():
    assert cancellation_hazard(60, 64)
    assert not cancellation_hazard(10, 64)


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text,expected", [
    ("0.25", Fraction(1, 4)),
    ("0.2", Fraction(1, 5)),
    ("4/5", Fraction(4, 5)),
    ("-1/3", Fraction(-1, 3)),
    ("7", Fraction(7)),
    ("1e-12", Fraction(1, 10 ** 12)),
])
def test_parse_exact(text, expected):
    s = Scalar.parse(text)
    assert s.exact
    assert s.as_fraction() == expected


def test_parse_garbage_rejected():
    with pytest.raises(ValueError):
        Scalar.parse("not-a-number")
    with pytest.raises(ValueError):
        Scalar.parse("1/0")


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("text", ["3/-4", "-1/-2", "1 / 2", "1/ 2", "1 /2", "+-1/2", "1/+2",
                                  "1/2/3", "1.5/2", "1e3/2", "/2", "1/"])
def test_ratio_outside_the_exact_ratio_form_rejected_in_both_modes(text, exact):
    """A text with a slash is read in either mode only as
    ``[+-]digits/digits``, the form ``Fraction`` reads."""
    with pytest.raises(ValueError, match="^Invalid literal for Fraction"):
        Fraction(text)
    kind = "an exact rational" if exact else "a float"
    with pytest.raises(ValueError, match=f"^cannot parse {re.escape(repr(text))} as {kind}: "):
        Scalar.parse(text, exact=exact)


@pytest.mark.parametrize("text,expected", [
    ("+3/4", Fraction(3, 4)), ("-6/8", Fraction(-3, 4)), (" 007/2 ", Fraction(7, 2)),
    ("0/5", Fraction(0)), ("-0/5", Fraction(0)), ("1/3", Fraction(1, 3))])
def test_float_ratio_is_the_rounded_exact_ratio(text, expected):
    assert Scalar.parse(text, exact=False) == Scalar.approx(expected)
    assert Scalar.parse(text).as_fraction() == expected


def test_float_zero_denominator_message_unchanged():
    with pytest.raises(ValueError, match=r"^cannot parse '1/0' as a float: \Z"):
        Scalar.parse("1/0", exact=False)


def test_parse_exact_exponent_limit():
    # the limit is the int-string digit limit; at it the value is still built
    assert Scalar.parse("1e4300").as_fraction() == 10 ** 4300
    assert Scalar.parse("2.5E-4300").as_fraction() == Fraction(25, 10 ** 4301)
    for text in ("1e4301", "1E-4301", "-3.5e+999999999", "1e1_000_000"):
        with pytest.raises(ValueError, match="decimal exponent beyond"):
            Scalar.parse(text)
    # a float parse never builds the power of ten, so it keeps the exponent
    assert Scalar.parse("1e999999999", exact=False) > 10 ** 4300


@settings(max_examples=300)
@given(st.from_regex(r"\s{0,2}-?[0-9]{1,40}(/[0-9]{1,40})?\s{0,2}", fullmatch=True))
@example("1/0")
@example("-00/000")
@example("-0")
@example("0012/0018")
def test_plain_ratio_branch_equals_fraction(text):
    """A plain ``[-]digits[/digits]`` text, with surrounding whitespace,
    reads to ints equal to ``Fraction(text)``, and a zero denominator is
    rejected with ``Fraction``'s own message."""
    try:
        expected = Fraction(text)
    except ZeroDivisionError as exc:
        message = f"cannot parse {text.strip()!r} as an exact rational: {exc}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_ratio(text)
        return
    num, den = parse_ratio(text)
    assert type(num) is int and type(den) is int and den > 0
    assert Fraction(num, den) == expected
    assert Scalar.parse(text).value == expected


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("text", ["1_0", "1_000", "\u0661\u0662", "1/1_0", "\u0661/2", "1e1_0",
                                  "1e\u0663", "2.5_0"])
def test_parse_rejects_separators_and_non_ascii(text, exact):
    kind = "an exact rational" if exact else "a float"
    message = f"cannot parse {text!r} as {kind}: only ASCII characters and no '_' separators"
    with pytest.raises(ValueError, match=re.escape(message)):
        Scalar.parse(text, exact=exact)


@example(Fraction(1, 3), Fraction(1, 3), 64, 0, True)
@example(Fraction(-1, 4), Fraction(-1, 4), 128, 0, False)
@given(rationals, rationals, st.sampled_from([64, 128]), st.integers(-2000, 2000), st.booleans())
def test_float_comparisons_match_dyadic_values(a, b, precision, scale, both_float):
    """Comparisons with a float are exact: they order the dyadic rational
    the float holds, however far its exponent reaches."""
    x = Scalar.approx(a * Fraction(2) ** scale, precision)
    y = Scalar.approx(b, precision) if both_float else Scalar.rational(b)
    for s, t in ((x, y), (y, x)):
        fs, ft = s.as_fraction(), t.as_fraction()
        assert (s < t, s <= t, s == t, s != t, s > t, s >= t) == (
            fs < ft, fs <= ft, fs == ft, fs != ft, fs > ft, fs >= ft)


def _width_message(source, target):
    return f"a {source}-bit float cannot be rounded to {target} bits: a float keeps its width"


@pytest.mark.parametrize("source,target", [(64, 128), (128, 64), (256, 80)])
def test_approx_keeps_a_float_at_its_width(source, target):
    """A float is rounded once: ``approx`` at its own width returns it as it
    is, and at another width rejects it, naming both widths."""
    x = Scalar.approx(Fraction(1, 3), source)
    assert Scalar.approx(x, source) is x
    with pytest.raises(ValueError, match=f"^{_width_message(source, target)}$"):
        Scalar.approx(x, target)


def test_width_rejection_never_reads_the_mantissa():
    """A parsed 1e-99999999 holds a 2**-332 million exponent; rejecting it
    at another width, from ``approx`` and from ``to_inexact``, spells out
    no ``Fraction`` (which would run for over a minute)."""
    probe = ("from invpower.scalar import Scalar\n"
             "from invpower.series import TaylorSeries\n"
             "x = Scalar.parse('1e-99999999', exact=False, precision=64)\n"
             "for reround in (lambda: Scalar.approx(x, 128),\n"
             "                lambda: TaylorSeries(x, (x.value,)).to_inexact(128)):\n"
             "    try:\n"
             "        reround()\n"
             "    except ValueError as exc:\n"
             "        print(exc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [_width_message(64, 128)] * 2


def test_float_and_is_zero_read_raw_values():
    """``float()`` gives the nearest double at every width, and a float is
    zero only when its raw value is mpmath's zero: an infinity and NaN
    have mantissa 0 too, but are not zero."""
    for precision in (128, 256):
        assert float(Scalar.approx(Fraction(1, 10), precision)) == 0.1
    for precision in (64, 128, 256):
        zero = Scalar.approx(0, precision)
        assert zero.is_zero and not zero
    for special in (finf, fninf, fnan):
        assert not Scalar(special, 64).is_zero


@pytest.mark.parametrize("value, precision, error, message", [
    (0.5, None, TypeError, "exact Scalar requires a Fraction value"),
    (mpmath.mpf(1), 64, TypeError, r"raw mpmath value tuple \(sign, man, exp, bc\), got mpf"),
    (0.5, 128, TypeError, r"raw mpmath value tuple \(sign, man, exp, bc\), got float"),
    (from_rational(1, 2, 53, "n"), 63, ValueError, "requires precision >= 64"),
    (Fraction(1), True, TypeError, r"width must be an int .* got True; .* Scalar\(fraction\)"),
    (Fraction(1), False, TypeError, "width must be an int number of bits or None, got False"),
])
def test_constructor_checks_the_value_form(value, precision, error, message):
    """An exact value must be a Fraction, a float value the raw tuple
    (not an ``mpf`` or a Python float), and a float width an int (not a
    bool, as an old-style ``Scalar(fraction, True)`` passes) of at least 64."""
    with pytest.raises(error, match=message):
        Scalar(value, precision)


def test_parse_float_mode():
    s = Scalar.parse("1/3", exact=False, precision=64)
    assert not s.exact
    assert s.as_fraction() == Fraction(1 / 3)


def test_render_ratio():
    assert Scalar.rational(4, 5).render_ratio() == "4/5"
    assert Scalar.rational(7).render_ratio() == "7"
    assert Scalar.rational(-3, 9).render_ratio() == "-1/3"


def test_render_decimal_budget():
    assert Scalar.rational(1, 3).render_decimal(10) == "0.3333333333"
    assert Scalar.rational(7).render_decimal(30) == "7"
    assert Scalar.rational(1, 4).render_decimal(30) == "0.25"


def _dps(precision: int) -> int:
    return int(significand_bits(precision) * 0.30103) + 2


def _nstr_text(raw: tuple, precision: int, digits: int | None) -> str:
    """Float text as ``Scalar`` wrote it before ``float_renderer``:
    ``mpmath.nstr`` to the width's decimal digits, or fewer ``digits``."""
    dps = _dps(precision)
    return mpmath.nstr(mpmath.mp.make_mpf(raw), dps if digits is None else min(digits, dps))


@st.composite
def raw_floats(draw):
    """(width, raw value at that width, digit budget or None): either
    sign, exponents near 1, across the binary64 range and far beyond it,
    and budgets of 1, the width's digits, more, or anything between."""
    precision = draw(st.sampled_from([64, 80, 128, 256]))
    bits, dps = significand_bits(precision), _dps(precision)
    man = draw(st.integers(-(2 ** bits) + 1, 2 ** bits - 1))
    exp = draw(st.integers(-bits - 8, 8) | st.integers(-1400, 1100)
               | st.integers(-10 ** 8, 10 ** 8))
    digits = draw(st.sampled_from([None, 1, dps, dps + 1, 3 * dps]) | st.integers(1, 3 * dps))
    return precision, from_man_exp(man, exp), digits


def _parsed(text: str, precision: int) -> tuple:
    return Scalar.parse(text, exact=False, precision=precision).value


@settings(max_examples=400)
@given(raw_floats())
@example((64, from_man_exp(0, 0), None))
@example((256, from_man_exp(0, 0), 1))
@example((64, _parsed("1e-400", 64), 17))
@example((64, _parsed("-1e-400", 64), None))
@example((80, _parsed("1e300", 80), 1))
@example((128, _parsed("-1e300", 128), 100))
@example((256, _parsed("-1/3", 256), None))
@example((64, _parsed("7e99999999", 64), 30))
def test_float_renderer_writes_the_nstr_text(case):
    """``float_renderer`` and the float text of ``Scalar`` match the
    ``mpmath.nstr`` text they replace, for every width and budget."""
    precision, raw, digits = case
    expected = _nstr_text(raw, precision, digits)
    assert float_renderer(precision, digits)(raw) == expected
    value = Scalar(raw, precision)
    assert (str(value) if digits is None else value.render_decimal(digits)) == expected


_ORACLE_WIDTHS = [64, 80, 128, 256, 4096]
_DIGITS_4301 = 10 ** 4300 + 1  # a 4,301-digit numerator


@st.composite
def rationals_to_round(draw):
    """(num, den, bits): either sign on either part, zero, small and
    4,301-digit numerators, power-of-two and odd denominators, and exact
    ties, odd multiples of half an ulp at ``bits``, whose floor is odd
    (rounds away from zero) or even (rounds toward it)."""
    bits = significand_bits(draw(st.sampled_from(_ORACLE_WIDTHS)))
    sign = draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["random", "power of two", "tie", "huge", "zero"]))
    if kind == "tie":
        floor = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
        num, den = 2 * floor + 1, 2 ** draw(st.integers(0, 2 * bits))
        shift = draw(st.integers(0, 40))
        return sign * num << shift, den << shift, bits
    if kind == "zero":
        return 0, sign * draw(st.integers(1, 10 ** 30)), bits
    num = {"huge": st.just(_DIGITS_4301) | st.integers(10 ** 4300, 10 ** 4301 - 1),
           "random": st.integers(1, 2 ** 700), "power of two": st.integers(1, 2 ** 700)}[kind]
    den = (st.integers(0, 3000).map(lambda k: 2 ** k) if kind == "power of two"
           else st.integers(1, 2 ** 700) | st.integers(1, 10 ** 4301))
    return sign * draw(num), draw(st.sampled_from([1, -1])) * draw(den), bits


@settings(max_examples=500, deadline=None)
@given(rationals_to_round())
@example((1, 3, 53))
@example((2 ** 53 + 1, 2, 53))                         # 2**52 + 1/2: a tie, down to even
@example((2 ** 53 + 3, 2, 53))                         # 2**52 + 3/2: a tie, up to even
@example((-(2 ** 53) - 1, 2, 53))                      # negative tie, toward zero
@example((-(2 ** 53) - 3, 2, 53))                      # negative tie, away from zero
@example((2 ** 237 - 1, 1, 237))                       # fits exactly
@example((2 ** 238 - 1, 1, 237))                       # rounds up to 2**238
@example((0, -7, 113))
@example((_DIGITS_4301, 3, 4061))
@example((-1, _DIGITS_4301, 4061))
def test_round_rational_is_from_rational(case):
    """``round_rational`` gives mpmath's correctly rounded raw tuple."""
    num, den, bits = case
    assert round_rational(num, den, bits) == from_rational(num, den, bits, "n")


@given(st.integers(-2 ** 3000, 2 ** 3000), st.integers(-10 ** 6, 10 ** 6))
def test_raw_value_is_from_man_exp(man, exp):
    """``raw_value`` normalises (man, exp) as ``from_man_exp`` does: the
    sign apart, trailing zeros stripped into the exponent, mpmath's zero."""
    assert raw_value(man, exp) == from_man_exp(man, exp)


def test_round_rational_zero_denominator_is_mpmath_error():
    for num in (0, 1, -5):
        with pytest.raises(ZeroDivisionError) as caught:
            round_rational(num, 0, 53)
        with pytest.raises(ZeroDivisionError) as expected:
            from_rational(num, 0, 53, "n")
        assert str(caught.value) == str(expected.value) == ""


@st.composite
def raws_to_render(draw):
    """(width, raw value at that width): either sign, near 1, near the
    edges of the fixed layout (10**e with e at min_fixed or at dps, give
    or take two, and just below them, where the head carries 9...9 to
    10...0), with |exp + bc| at 3500 give or take one, or anywhere, and
    zero and the non-finite values."""
    precision = draw(st.sampled_from(_ORACLE_WIDTHS))
    bits, dps = significand_bits(precision), _dps(precision)
    sign = draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["random", "power of ten", "below a power of ten",
                                 "3500", "special"]))
    if kind == "special":
        return precision, draw(st.sampled_from([from_man_exp(0, 0), finf, fninf, fnan]))
    if kind == "3500":
        man = draw(st.integers(1, 2 ** bits - 1))
        top = draw(st.sampled_from([1, -1])) * draw(st.integers(3499, 3501))
        return precision, from_man_exp(sign * man, top - man.bit_length())
    if kind == "random":
        man = draw(st.integers(1, 2 ** bits - 1))
        return precision, from_man_exp(sign * man, draw(st.integers(-bits - 40, 40)
                                                        | st.integers(-3600, 3600)))
    e = draw(st.sampled_from([min(-(dps // 3), -5), 0, dps, dps - 1]) | st.integers(-40, 40))
    e += draw(st.integers(-2, 2))
    num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
    if kind == "below a power of ten":
        # 10**e less a few units in the last of 2*dps digits: rounds up to it
        scale = 10 ** (2 * dps)
        num, den = num * scale - draw(st.integers(1, 5)), den * scale
    return precision, round_rational(sign * num, den, bits)


@settings(max_examples=150, deadline=None)
@given(raws_to_render())
@example((64, round_rational(-9999999999999999999, 10 ** 19, 53)))
@example((4096, round_rational(10 ** 1300 - 1, 10 ** 1300, significand_bits(4096))))
@example((128, from_man_exp(3, 3500 - 2)))
@example((128, from_man_exp(3, 3501 - 2)))
@example((256, from_man_exp(-3, -3500 - 2)))
@example((256, from_man_exp(-3, -3501 - 2)))
def test_float_renderer_is_to_str_at_every_digit_budget(case):
    """``float_renderer`` gives ``libmp.to_str``'s text at each budget
    from 1 digit to 5 past the width's digits (which it caps at those)."""
    precision, raw = case
    dps = _dps(precision)
    for digits in range(1, dps + 6):
        assert float_renderer(precision, digits)(raw) == to_str(raw, min(digits, dps)), digits
    assert float_renderer(precision)(raw) == to_str(raw, dps)


def test_narrow_widths_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="must be >= 64"):
            significand_bits(63)
        with pytest.raises(ValueError, match="must be >= 64"):
            float_renderer(32)


_HUGE = 10 ** 4400 + 1  # past the 4,300-digit limit of str(int)


@settings(max_examples=300)
@given(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 30), st.integers(1, 10 ** 20),
       st.integers(1, 60))
@example(0, 7, 3, 1)
@example(-_HUGE, 3, 12, 60)
@example(_HUGE * 7, 1, 5, 30)
def test_int_renderers_match_the_reduced_fraction(num, den, k, digits):
    """The CLI renders an exact table's unreduced numerator k*num over k*den:
    the decimal equals the reduced value's ``render_decimal`` and is
    correctly rounded, and the ratio equals ``str(Fraction(num, den))``."""
    value = Fraction(num, den)
    text = decimal_renderer(k * den, digits)(k * num)
    assert text == Scalar(value).render_decimal(digits)
    rendered = Decimal(text)
    assert len(rendered.as_tuple().digits) <= digits
    assert abs(Fraction(rendered) - value) <= 5 * Fraction(10) ** (rendered.adjusted() - digits)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit to lift
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        expected = str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert ratio_text(k * num, k * den) == expected


def test_min_precision_constant():
    assert MIN_PRECISION == 64
