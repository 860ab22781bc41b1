"""Exact-rational / high-precision-float scalars and big-integer binomials.

Everything else in the package is built on two primitives:

* :class:`Scalar` -- an immutable number that is either an exact big
  rational (the default) or a binary float of declared precision: a
  ``Fraction`` with no precision, or a raw mpmath value tuple
  ``(sign, man, exp, bc)`` rounded to its width.  Exactness is read off
  the precision and propagates through arithmetic: any operation touching
  an inexact operand produces an inexact result of its width, and floats
  of two widths are never combined.

* :func:`binom` -- big-integer binomial coefficients (``math.comb``)
  under the convention ``binom(a, b) == 0`` for ``b < 0`` or ``b > a``.
  The binomial sums used throughout the package rely on that convention
  to kill out-of-range terms.

Exact mode is the default because the binomial weights in the coefficient
sums reach ``binom(m, m//2)`` (roughly ``2**m``), which makes fixed
precision summation cancel catastrophically; float mode is opt-in and the
rest of the package attaches a :class:`CancellationWarning` when it is
pushed past the safe range.

Float precision is declared as an IEEE-equivalent storage width in bits
(64 = double, 128 = quad, ...); the significand actually carried follows
the IEEE binary interchange rule, so ``precision=64`` rounds to the 53
significand bits of a hardware double.  The exponent is mpmath's, which
is unbounded: a 64-bit value has a double's significand but not its
exponent range, so ``1e-400`` and ``1e400`` stay finite and nonzero, and
no value is subnormal.  The minimum accepted width is 64.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Union

# mpmath carries float mode only, so it is imported by the first float value
# (``_bind_mpmath``) and a run that stays exact never loads it
libmp = None


def _bind_mpmath() -> None:
    """Bind ``libmp``, once: the float constructors and
    ``Scalar.__init__`` call it before a float value is used."""
    global libmp
    import mpmath.libmp as libmp


MIN_PRECISION = 64

# Largest decimal exponent an exact parse accepts: the digit limit Python
# already puts on int strings, so "1e999999999" cannot make Fraction build
# a billion-digit power of ten.
MAX_EXACT_EXPONENT = getattr(sys.int_info, "default_max_str_digits", 4300)
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\Z", re.IGNORECASE)
# an exact text that needs no Fraction, and the one form of a float ratio
_PLAIN_RATIO = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?\Z")


class CancellationWarning(UserWarning):
    """Raised via ``warnings.warn`` when a float-mode binomial sum is
    expected to lose most of its significand to cancellation."""


@lru_cache(maxsize=None)
def significand_bits(precision: int) -> int:
    """Significand width of an IEEE-style binary float of total width
    ``precision`` (64 -> 53, 128 -> 113, 256 -> 237)."""
    if precision < MIN_PRECISION:
        raise ValueError(f"float precision must be >= {MIN_PRECISION} bits, got {precision}")
    return precision - round(4 * math.log2(precision)) + 13


def binom(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) by ``math.comb``.

    Returns 0 when ``b < 0`` or ``b > a``.  A negative upper index is a
    domain error: no computation in this package ever needs one.
    """
    if a < 0:
        raise ValueError(f"binom: negative upper index a={a}")
    if b < 0:
        return 0
    return math.comb(a, b)


def _int_text(n: int) -> str:
    """Decimal digits of n, also past Python's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return format(Decimal(n), "f")


def ratio_text(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms as "p/q", or bare "p" when the
    denominator reduces to 1."""
    g = math.gcd(num, den)
    return _int_text(num // g) if g == den else f"{_int_text(num // g)}/{_int_text(den // g)}"


def decimal_renderer(den: int, digits: int) -> Callable[[int], str]:
    """n -> n/den (den > 0) to ``digits`` significant digits, correctly
    rounded, so reducing n/den first does not change the text."""
    divide, d = Context(prec=digits).divide, Decimal(den)
    return lambda n: str(divide(Decimal(n), d))


def round_rational(num: int, den: int, bits: int) -> tuple:
    """num/den (den != 0) correctly rounded to ``bits`` significant bits,
    half to even, as a raw mpmath value ``(sign, man, exp, bc)``: the
    tuple ``libmp.from_rational(num, den, bits, "n")`` returns.

    One ``divmod`` of |num| * 2**shift by |den| gives a quotient q of
    bits + 2 or bits + 3 bits, n more than ``bits``; the remainder is
    a sticky bit, or-ed into bit 0 of q, which lies below the rounding
    half since n >= 2.  Then (q + 2**(n-1) - 1 + bit n of q) >> n
    rounds q / 2**n half to even, and so rounds num/den: the correctly
    rounded result is unique, so it is mpmath's bit for bit.  A
    mantissa that rounds up to 2**bits and every other even one lose
    their trailing zeros, as mpmath normalises them.  A zero
    denominator raises ``ZeroDivisionError`` with mpmath's empty
    message, and num = 0 gives mpmath's zero.
    """
    if not den:
        raise ZeroDivisionError
    if not num:
        return 0, 0, 0, 0
    sign = 1 if (num < 0) != (den < 0) else 0
    num, den = abs(num), abs(den)
    shift = bits + 2 + den.bit_length() - num.bit_length()
    q, r = divmod(num << shift, den) if shift >= 0 else divmod(num, den << -shift)
    n = q.bit_length() - bits
    if r:
        q |= 1
    q = (q + (1 << n - 1) - 1 + (q >> n & 1)) >> n
    zeros = (q & -q).bit_length() - 1
    q >>= zeros
    return sign, q, n - shift + zeros, q.bit_length()


def raw_value(man: int, exp: int) -> tuple:
    """man * 2**exp as ``libmp.from_man_exp(man, exp)`` makes it: a raw
    value (sign, man, exp, bc) with an odd mantissa, or mpmath's zero."""
    if not man:
        return 0, 0, 0, 0
    sign = 0
    if man < 0:
        sign, man = 1, -man
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


_LOG2_10 = math.log(10, 2)


def float_renderer(precision: int, digits: int | None = None) -> Callable[[tuple], str]:
    """raw -> ``mpmath.nstr`` of a raw mpmath value of width ``precision``:
    to the width's decimal digits, or to ``digits`` when that is fewer.

    The text is ``libmp.to_str(raw, dps)``'s, made by its own integer
    steps with the constants of one dps bound once: the value as a
    fixed-point integer of ``fixprec`` fractional bits, times
    10**fixdps (cached per ``fixprec``) shifted right by ``fixprec``,
    gives the digits that ``to_str`` reads (dps + 3 of them, floored);
    digit dps + 1 of 5 or more rounds the first dps up, a 9...9 head
    carrying to 10...0 and one more in the exponent; then the fixed or
    exponent layout and the stripped trailing zeros.  Every step is an
    integer or string operation, so the bytes are ``to_str``'s.  Zero,
    an infinity and NaN, a dps below 1, a value with |exp + bc| > 3500
    (where ``to_str`` first scales by a power of ten in mpf arithmetic) and a
    dps whose digits would pass Python's int-to-str digit limit go to
    ``libmp.to_str`` itself.
    """
    n = int(significand_bits(precision) * 0.30103) + 2
    if libmp is None:
        _bind_mpmath()
    dps = n if digits is None else min(digits, n)
    generic = partial(libmp.to_str, dps=dps)
    # the digits read have at most dps + 7 digits, or 1,054 (2**3500) when
    # the value needs no fractional bits; 0 means no limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if dps < 1 or limit and max(dps + 7, 1054) > limit:
        return generic
    bitprec = int((dps + 3) * _LOG2_10) + 10
    min_fixed = min(-(dps // 3), -5)
    scales = {}  # fixprec -> (fixdps, 10**fixdps)

    def render(raw: tuple) -> str:
        sign, man, exp, bc = raw
        top = exp + bc
        if not man or top > 3500 or top < -3500:
            return generic(raw)
        fixprec = bitprec - top if top < bitprec else 0
        scale = scales.get(fixprec)
        if scale is None:
            fixdps = int(fixprec / _LOG2_10 + 0.5)
            scale = scales[fixprec] = fixdps, 10 ** fixdps
        fixdps, ten = scale
        shift = exp + fixprec
        text = str((man << shift if shift >= 0 else man >> -shift) * ten >> fixprec)
        exponent = len(text) - fixdps - 1
        head = text[:dps]
        if len(text) > dps and text[dps] >= "5":
            head = str(int(head) + 1)
            if len(head) > dps:  # 9...9 carried to 10...0
                head = head[:dps]
                exponent += 1
        if min_fixed < exponent < dps:
            if exponent < 0:
                text = "0." + "0" * (-exponent - 1) + head
            else:
                text = head[:exponent + 1] + "." + head[exponent + 1:]
            suffix = ""
        else:
            text = head[:1] + "." + head[1:]
            suffix = f"e+{exponent}" if exponent >= 0 else f"e{exponent}"
        text = text.rstrip("0")
        if text[-1] == ".":
            text += "0"
        return ("-" if sign else "") + text + suffix

    return render


def held_reader(den: int | None, precision: int | None) -> Callable[[int | tuple], Scalar]:
    """held value -> its ``Scalar``.  A series, an approximant and a table
    hold their values as integer numerators over one denominator ``den``,
    or as raw mpmath tuples of the width ``precision`` (``den`` None)."""
    if den is not None:
        return lambda n: Scalar(Fraction(n, den))
    return partial(Scalar, precision=precision)


def held_renderer(den: int | None, precision: int | None,
                  digits: int | None = None) -> Callable[[int | tuple], str]:
    """held value -> the text of its ``Scalar`` (:func:`held_reader`),
    made without building it: ``str`` when ``digits`` is None, else
    ``render_decimal(digits)``."""
    if den is None:
        return float_renderer(precision, digits)
    if digits is None:
        return lambda n: ratio_text(n, den)
    return decimal_renderer(den, digits)


def require_exact(name: str, value: Scalar) -> Fraction:
    """The value of an exact ``value``; an inexact one is rejected by name."""
    if not value.exact:
        raise ValueError(f"{name} must be exact, got {value}")
    return value.value


def require_den(den: int) -> None:
    """Reject, by name, a denominator that is not a positive int."""
    if type(den) is not int or den < 1:
        raise ValueError(f"den must be a positive int, got {den!r}")


def _require_plain(text: str) -> None:
    if not text.isascii() or "_" in text:
        raise ValueError("only ASCII characters and no '_' separators are allowed")


def parse_ratio(text: str) -> tuple[int, int]:
    """The exact rational ``text`` as (num, den) with den > 0, not
    necessarily in lowest terms: the exact grammar of :meth:`Scalar.parse`.

    ``[+-]digits[/digits]`` with a nonzero denominator is read straight to
    ints; every other text is read by ``Fraction`` after the exponent and
    character checks, and a zero denominator gets ``Fraction``'s message.
    """
    text = text.strip()
    try:
        plain = _PLAIN_RATIO.match(text)
        if plain:
            num, den = int(plain[1]), int(plain[2] or 1)
            if den:
                return num, den
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1])) > MAX_EXACT_EXPONENT:
            raise ValueError(f"decimal exponent beyond +/-{MAX_EXACT_EXPONENT}")
        _require_plain(text)
        return Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as an exact rational: {exc}") from None


def read_only(self, name: str, value=None) -> None:
    """``__setattr__`` and ``__delattr__`` of the package's immutable
    classes, whose ``__init__`` sets each field once."""
    raise AttributeError(f"cannot assign to or delete {name!r}: "
                         f"a {type(self).__name__} is immutable")


class Fields:
    """``==`` and ``repr`` field by field over the attributes named in
    ``_fields``, in order; a value equals only a value of its own class."""

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"


class Scalar:
    """An immutable number: a value and the width it is rounded to.

    ``precision`` is ``None`` for an exact value, a ``Fraction`` (in
    lowest terms with positive denominator by construction).  A float has
    the declared IEEE-equivalent width ``precision >= 64`` and a raw
    mpmath value tuple ``(sign, man, exp, bc)`` already rounded to that
    width's significand.  ``exact`` is derived: ``precision is None``.
    """

    __slots__ = ("value", "precision")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rational(numerator: int | Fraction, denominator: int = 1) -> "Scalar":
        return Scalar(Fraction(numerator, denominator))

    @staticmethod
    def parse(text: str, exact: bool = True, precision: int = MIN_PRECISION) -> "Scalar":
        """Parse ``"p/q"``, plain decimal, or scientific notation.

        In exact mode (:func:`parse_ratio`) decimal strings become exact
        rationals ("0.25" -> 1/4) and a decimal exponent beyond
        ``MAX_EXACT_EXPONENT`` in magnitude is rejected; in float mode the
        value is correctly rounded to the significand implied by
        ``precision``, NaN or an infinity is rejected, and a ratio has the
        exact grammar's form ``[+-]digits/digits``.  Only ASCII
        characters are read, and no ``_`` digit separators, which
        ``Fraction`` and ``int`` would otherwise accept.
        """
        if exact:
            return Scalar(Fraction(*parse_ratio(text)))
        text = text.strip()
        if libmp is None:
            _bind_mpmath()
        bits = significand_bits(precision)
        try:
            _require_plain(text)
            if "/" in text:
                ratio = _PLAIN_RATIO.match(text)
                if not ratio:
                    raise ValueError("a ratio must be [+-]digits/digits")
                raw = round_rational(int(ratio[1]), int(ratio[2]), bits)
            else:
                raw = libmp.from_str(text, bits, "n")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {text!r} as a float: {exc}") from None
        if raw in (libmp.fnan, libmp.finf, libmp.fninf):
            raise ValueError(f"cannot parse {text!r} as a float: not a finite number")
        return Scalar(raw, precision)

    @staticmethod
    def approx(value: Union[int, Fraction, "Scalar"], precision: int = MIN_PRECISION) -> "Scalar":
        """Round an exact value to float mode at the given IEEE-equivalent width.

        A float is rounded once, to the width it keeps: one of
        ``precision`` is returned as it is, and one of another width is
        rejected, naming both widths.
        """
        if isinstance(value, Scalar):
            if not value.exact:
                if value.precision != precision:
                    raise ValueError(f"a {value.precision}-bit float cannot be rounded to "
                                     f"{precision} bits: a float keeps its width")
                return value
            value = value.value
        if libmp is None:
            _bind_mpmath()
        f = Fraction(value)
        return Scalar(round_rational(f.numerator, f.denominator, significand_bits(precision)),
                      precision)

    def __init__(self, value: Union[Fraction, tuple], precision: int | None = None) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "precision", precision)
        if precision is None:
            if not isinstance(value, Fraction):
                raise TypeError("exact Scalar requires a Fraction value")
            return
        if isinstance(precision, bool):
            raise TypeError("Scalar width must be an int number of bits or None, got "
                            f"{precision}; an exact Scalar is Scalar(fraction)")
        if precision < MIN_PRECISION:
            raise ValueError(f"inexact Scalar requires precision >= {MIN_PRECISION}")
        if not isinstance(value, tuple):
            raise TypeError("inexact Scalar requires a raw mpmath value tuple "
                            f"(sign, man, exp, bc), got {type(value).__name__}")
        if libmp is None:  # a float built directly from a raw value
            _bind_mpmath()

    __setattr__ = __delattr__ = read_only

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as the slots cannot be set
        return Scalar, (self.value, self.precision)

    # -- views ----------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.precision is None

    def as_fraction(self) -> Fraction:
        """The exact value; for float mode, the (dyadic) rational the
        float represents exactly."""
        if self.exact:
            return self.value
        p, q = libmp.to_rational(self.value)
        return Fraction(int(p), int(q))

    @property
    def is_zero(self) -> bool:
        # an infinity and NaN have mantissa 0 too, so a float compares whole
        return self.value == 0 if self.exact else self.value == libmp.fzero

    def __float__(self) -> float:
        # nearest double, as float(mpf) gives; to_float's default rounds down
        return float(self.value) if self.exact else libmp.to_float(self.value, rnd="n")

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        if self.exact:
            return f"Scalar({self.value})"
        return f"Scalar({libmp.to_str(self.value, 17)}, prec={self.precision})"

    def render_ratio(self) -> str:
        """Render as "p/q" (bare "p" for integers); exact mode only."""
        return ratio_text(*self.as_fraction().as_integer_ratio())

    def render_decimal(self, digits: int = 30) -> str:
        """Decimal rendering with a significant-digit budget."""
        if digits < 1:
            raise ValueError("digit budget must be positive")
        return self.__str__(digits)

    def __str__(self, digits: int | None = None) -> str:
        """The text of ``str``, or with ``digits`` that of ``render_decimal``."""
        if self.exact:
            return held_renderer(self.value.denominator, None, digits)(self.value.numerator)
        return held_renderer(None, self.precision, digits)(self.value)

    # -- arithmetic -----------------------------------------------------

    def _pair(self, other: "Scalar"):
        """Both values in a common representation, and the result's
        precision: None for two exact operands, else the float width.
        Two floats of different widths are rejected, naming both: a float
        keeps its width."""
        if self.exact and other.exact:
            return self.value, other.value, None
        prec = self.precision if other.exact else other.precision
        if not self.exact and self.precision != prec:
            raise ValueError(f"cannot combine a {self.precision}-bit float with a {prec}-bit "
                             "float: a float keeps its width")
        bits = significand_bits(prec)
        x = self.value if not self.exact else round_rational(*self.value.as_integer_ratio(), bits)
        y = other.value if not other.exact else round_rational(*other.value.as_integer_ratio(),
                                                               bits)
        return x, y, prec

    @staticmethod
    def _coerce(other) -> "Scalar":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(Fraction(other))
        return NotImplemented

    def _binary(self, other, exact_op, mpf_name: str):
        """``exact_op`` on two exact operands, else ``libmp.<mpf_name>``:
        exact runs never bind ``libmp``, so the float op is looked up by name."""
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y, prec = self._pair(other)
        if prec is None:
            return Scalar(exact_op(x, y))
        mpf_op = getattr(libmp, mpf_name)
        return Scalar(mpf_op(x, y, significand_bits(prec), "n"), prec)

    def __add__(self, other):
        return self._binary(other, operator.add, "mpf_add")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, operator.sub, "mpf_sub")

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        return self._binary(other, operator.mul, "mpf_mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        return self._binary(other, operator.truediv, "mpf_div")

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self) -> "Scalar":
        if self.exact:
            return Scalar(-self.value)
        return Scalar(libmp.mpf_neg(self.value), self.precision)

    def __abs__(self) -> "Scalar":
        if self.exact:
            return Scalar(abs(self.value))
        return Scalar(libmp.mpf_abs(self.value), self.precision)

    # -- comparisons (exact, via the dyadic value of floats) ------------

    def _ratio(self) -> tuple[tuple, int]:
        """The value as an exact raw mpmath numerator over a positive int."""
        if self.exact:
            return libmp.from_int(self.value.numerator), self.value.denominator
        return self.value, 1

    def _cmp(self, other) -> int:
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.exact and other.exact:
            a, b = self.value, other.value
            return (a > b) - (a < b)
        # a/p against b/q as a*q against b*p: exact mpmath products keep a
        # float's binary exponent apart, where its Fraction would spell out
        # 2**exponent (a 400 MB int for a parsed "1e-999999999")
        (a, p), (b, q) = self._ratio(), other._ratio()
        return libmp.mpf_cmp(libmp.mpf_mul(a, libmp.from_int(q)),
                             libmp.mpf_mul(b, libmp.from_int(p)))

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    __hash__ = None  # type: ignore[assignment]  # mutable-free but numeric eq


ZERO = Scalar.rational(0)


def cancellation_bits(m: int) -> int:
    """Bits of significand a dimension-m binomial sum can cancel away:
    the bit length of the central coefficient binom(m, m//2)."""
    return binom(m, m // 2).bit_length()


def cancellation_hazard(m: int, precision: int) -> bool:
    """True when more than half the declared float width would be
    consumed by the central binomial weight at dimension ``m``."""
    return cancellation_bits(m) > precision // 2
