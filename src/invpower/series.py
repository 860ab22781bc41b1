"""Taylor series data: an expansion center plus ordered coefficients.

The series is the only input the whole pipeline needs -- the function
behind it never has to be known.  ``radius_hint`` optionally records the
analyticity radius of the inverse-variable transplant of the source
function (see :mod:`invpower.corpus`); it is metadata for reporting and is
never enforced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalar import Scalar


@dataclass(frozen=True)
class TaylorSeries:
    center: Scalar
    coeffs: tuple[Scalar, ...]
    radius_hint: Scalar | None = None

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("a Taylor series needs at least one coefficient")

    @property
    def is_exact(self) -> bool:
        return self.center.exact and all(c.exact for c in self.coeffs)

    @property
    def float_precision(self) -> int | None:
        """Smallest declared precision among inexact entries, or None when
        the series is fully exact."""
        precs = [s.precision for s in (self.center, *self.coeffs) if not s.exact]
        return min(precs) if precs else None

    def require_coefficients(self, count: int) -> None:
        """Check that the series holds ``count`` coefficients and that none
        of them is an infinity or NaN, which a float ``TaylorSeries``
        built through the Python API can hold."""
        if len(self.coeffs) < count:
            raise ValueError(
                f"need {count} coefficients, series has only {len(self.coeffs)}")
        inexact = [(i, c) for i, c in enumerate(self.coeffs[:count]) if not c.exact]
        if inexact:
            from mpmath.libmp import finf, fnan, fninf  # loaded already by the float values
            for i, c in inexact:
                if c.value in (finf, fninf, fnan):
                    raise ValueError(f"coefficient coeffs[{i}] must be finite, got {c}")

    def to_inexact(self, precision: int = 64) -> "TaylorSeries":
        """Round every entry to float mode at the given width."""
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
