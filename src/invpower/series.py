"""Taylor series data: an expansion center plus ordered coefficients.

The series is the only input the whole pipeline needs -- the function
behind it never has to be known.  It holds c_0..c_{n-1} as the kernels
read them, and the center fixes its width when it is built.  That
held-vector form, its checks (int numerators over a positive int
``den``, or raw 4-tuples), ``coeffs``, ``is_exact`` and field-wise
``==`` and ``repr`` come from :class:`HeldVector`, the base it shares with
:class:`~invpower.approximant.InversePowerApproximant`:

* about an exact center, ``values`` are the integer numerators of the
  coefficients over their least common denominator ``den``; a
  denominator that is not the least is brought down once, when the
  series is built, by one gcd with the numerators;
* about a float center, ``values`` are finite raw mpmath tuples
  ``(sign, man, exp, bc)`` of the center's width and ``den`` is None
  (:meth:`TaylorSeries.to_inexact` rounds an exact series to one).

``coeffs`` makes the ``Scalar``s only when it is read
(:func:`~invpower.scalar.held_reader`).  ``radius_hint``
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

from .scalar import (Fields, Scalar, held_reader, read_only, require_den, round_rational,
                     significand_bits)


class HeldVector(Fields):
    """A center and values held in the form it fixes
    (:func:`~invpower.scalar.held_reader`): numerators over ``den`` about
    an exact center, raw tuples of its width about a float one.
    A subclass names its ``_fields`` and, in ``_names``, itself as its
    error texts do, in full and short."""

    def __init__(self, center: Scalar, values: tuple, den: int | None = None, **fields) -> None:
        vars(self).update(center=center, values=values, den=den, **fields)
        if not values:
            raise ValueError(f"{self._names[0]} needs at least one coefficient")
        if (den is None) == center.exact:
            kind = "an exact" if center.exact else f"a {center.precision}-bit float"
            raise ValueError(f"den={den} about {kind} center: {self._names[1]} takes den "
                             "exactly when its center is exact")
        # one C-level scan of the value types; the bad index is sought if it fails
        if den is not None:
            require_den(den)
            if set(map(type, values)) != {int}:
                i, v = next((i, v) for i, v in enumerate(values) if type(v) is not int)
                raise ValueError(f"values[{i}] must be an int numerator, got {v!r}")
        elif set(map(type, values)) != {tuple} or set(map(len, values)) != {4}:
            for i, v in enumerate(values):
                if not isinstance(v, tuple) or len(v) != 4:
                    raise ValueError(f"values[{i}] must be a raw mpmath tuple "
                                     f"(sign, man, exp, bc), got {type(v).__name__}")

    __setattr__ = __delattr__ = read_only

    @cached_property
    def coeffs(self) -> tuple[Scalar, ...]:
        return tuple(map(held_reader(self.den, self.float_precision), self.values))

    @property
    def is_exact(self) -> bool:
        return self.den is not None

    @property
    def float_precision(self) -> int | None:
        """The width of every entry, or None when the vector is exact."""
        return self.center.precision


class TaylorSeries(HeldVector):
    _fields = ("center", "values", "den", "radius_hint")
    _names = ("a Taylor series", "a series")

    def __init__(self, center: Scalar, values: tuple, den: int | None = None,
                 radius_hint: Scalar | None = None) -> None:
        super().__init__(center, values, den, radius_hint=radius_hint)
        if den is not None:
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
            if v in non_finite:
                raise ValueError(f"coefficient coeffs[{i}] must be finite, "
                                 f"got {Scalar(v, center.precision)}")
            if v[1].bit_length() > bits:
                raise ValueError(f"values[{i}] has a {v[1].bit_length()}-bit significand, wider "
                                 f"than the {bits} bits of a {center.precision}-bit float")

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
