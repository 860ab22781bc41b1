"""Taylor series data: an expansion center plus ordered coefficients.

The series is the only input the whole pipeline needs -- the function
behind it never has to be known.  Its width is fixed when it is built:
the center and every coefficient are exact, or all are finite floats of
one width (:meth:`TaylorSeries.to_inexact` rounds a series to one).
``radius_hint`` optionally records the analyticity radius of the
inverse-variable transplant of the source function (see
:mod:`invpower.corpus`); it is metadata for reporting, exempt from the
width rule, and is never enforced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalar import Scalar


def _width(s: Scalar) -> str:
    return "is exact" if s.exact else f"has width {s.precision}"


@dataclass(frozen=True)
class TaylorSeries:
    center: Scalar
    coeffs: tuple[Scalar, ...]
    radius_hint: Scalar | None = None

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("a Taylor series needs at least one coefficient")
        non_finite = ()
        if not self.center.exact:
            from mpmath.libmp import finf, fnan, fninf  # loaded already by the float values
            non_finite = (finf, fninf, fnan)
            if self.center.value in non_finite:
                raise ValueError(f"center must be finite, got {self.center}")
        for i, c in enumerate(self.coeffs):
            if c.precision != self.center.precision:
                raise ValueError(f"coeffs[{i}] {_width(c)} but the center {_width(self.center)}: "
                                 "a series is exact or of one float width (see to_inexact)")
            if c.value in non_finite:
                raise ValueError(f"coefficient coeffs[{i}] must be finite, got {c}")

    @property
    def is_exact(self) -> bool:
        return self.center.exact

    @property
    def float_precision(self) -> int | None:
        """The width of every entry, or None when the series is exact."""
        return self.center.precision

    def require_coefficients(self, count: int) -> None:
        """Check that the series holds ``count`` coefficients."""
        if len(self.coeffs) < count:
            raise ValueError(
                f"need {count} coefficients, series has only {len(self.coeffs)}")

    def to_inexact(self, precision: int = 64) -> "TaylorSeries":
        """Round every entry of an exact series to float mode at the given
        width; a float series of that width is returned with the same
        values, and one of another width is rejected (a float keeps its
        width)."""
        return TaylorSeries(
            Scalar.approx(self.center, precision),
            tuple(Scalar.approx(c, precision) for c in self.coeffs),
            self.radius_hint,
        )


def series_from_rationals(center, coeffs, radius_hint=None) -> TaylorSeries:
    """Convenience builder from ints / Fractions."""
    return TaylorSeries(
        Scalar.rational(center),
        tuple(Scalar.rational(c) for c in coeffs),
        None if radius_hint is None else Scalar.rational(radius_hint),
    )
