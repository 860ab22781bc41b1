"""Taylor series data: an expansion center plus ordered coefficients.

The series is the only input the whole pipeline needs -- the function
behind it never has to be known.  It holds c_0..c_{n-1} as the kernels
read them, and the center fixes its width when it is built:

* about an exact center, ``values`` are the integer numerators of the
  coefficients over their least common denominator ``den``; a
  denominator that is not the least is brought down once, when the
  series is built, by one gcd with the numerators;
* about a float center, ``values`` are finite raw mpmath tuples
  ``(sign, man, exp, bc)`` of the center's width and ``den`` is None
  (:meth:`TaylorSeries.to_inexact` rounds an exact series to one).

``coeffs`` makes the ``Scalar``s only when it is read.  ``radius_hint``
optionally records the analyticity radius of the inverse-variable
transplant of the source function (see :mod:`invpower.corpus`); it is
metadata for reporting, exempt from the width rule, and is never
enforced.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .scalar import Scalar, read_only, round_rational, significand_bits


class TaylorSeries:
    def __init__(self, center: Scalar, values: tuple, den: int | None = None,
                 radius_hint: Scalar | None = None) -> None:
        vars(self).update(center=center, values=values, den=den, radius_hint=radius_hint)
        if not values:
            raise ValueError("a Taylor series needs at least one coefficient")
        if (den is None) == center.exact:
            kind = "an exact" if center.exact else f"a {center.precision}-bit float"
            raise ValueError(f"den={den} about {kind} center: a series takes den exactly "
                             "when its center is exact")
        if den is not None:
            if type(den) is not int or den < 1:
                raise ValueError(f"den must be a positive int, got {den!r}")
            for i, v in enumerate(values):
                if type(v) is not int:
                    raise ValueError(f"values[{i}] must be an int numerator, got {v!r}")
            g = gcd(den, *values)
            if g > 1:
                vars(self).update(values=tuple(v // g for v in values), den=den // g)
            return
        from mpmath.libmp import finf, fnan, fninf  # loaded already by the float center
        non_finite = (finf, fninf, fnan)
        if center.value in non_finite:
            raise ValueError(f"center must be finite, got {center}")
        bits = significand_bits(center.precision)
        for i, v in enumerate(values):
            if not isinstance(v, tuple) or len(v) != 4:
                raise ValueError(f"values[{i}] must be a raw mpmath tuple (sign, man, exp, bc), "
                                 f"got {type(v).__name__}")
            if v in non_finite:
                raise ValueError(f"coefficient coeffs[{i}] must be finite, "
                                 f"got {Scalar(v, center.precision)}")
            if v[1].bit_length() > bits:
                raise ValueError(f"values[{i}] has a {v[1].bit_length()}-bit significand, wider "
                                 f"than the {bits} bits of a {center.precision}-bit float")

    __setattr__ = __delattr__ = read_only

    def _key(self) -> tuple:
        return self.center, self.values, self.den, self.radius_hint

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return ("TaylorSeries(center={!r}, values={!r}, den={!r}, radius_hint={!r})"
                .format(*self._key()))

    @cached_property
    def coeffs(self) -> tuple[Scalar, ...]:
        if self.den is not None:
            return tuple(Scalar(Fraction(n, self.den)) for n in self.values)
        return tuple(Scalar(v, self.center.precision) for v in self.values)

    @property
    def is_exact(self) -> bool:
        return self.den is not None

    @property
    def float_precision(self) -> int | None:
        """The width of every entry, or None when the series is exact."""
        return self.center.precision

    def require_coefficients(self, count: int) -> None:
        """Check that the series holds ``count`` coefficients."""
        if len(self.values) < count:
            raise ValueError(
                f"need {count} coefficients, series has only {len(self.values)}")

    def to_inexact(self, precision: int = 64) -> "TaylorSeries":
        """Round an exact series to float mode at the given width, each
        numerator over ``den`` correctly rounded; a float series of that
        width is returned as it is, and one of another width is rejected
        (a float keeps its width)."""
        center = Scalar.approx(self.center, precision)
        if self.den is None:
            return self
        bits, den = significand_bits(precision), self.den
        return TaylorSeries(center, tuple(round_rational(n, den, bits) for n in self.values),
                            radius_hint=self.radius_hint)


def over_common_denominator(ratios: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """Pairs (num, den > 0) as numerators over the lcm of the dens, and
    that lcm: the ``values`` and ``den`` of an exact series."""
    ratios = list(ratios)
    den = lcm(*(d for _, d in ratios))
    return tuple(n * (den // d) for n, d in ratios), den


def series_from_rationals(center, coeffs, radius_hint=None) -> TaylorSeries:
    """Convenience builder from ints / Fractions."""
    values, den = over_common_denominator(Fraction(c).as_integer_ratio() for c in coeffs)
    return TaylorSeries(Scalar.rational(center), values, den=den,
                        radius_hint=None if radius_hint is None else Scalar.rational(radius_hint))
