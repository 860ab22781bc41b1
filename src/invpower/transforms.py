"""Binomial convolution of Taylor coefficients.

``binomial_convolve`` maps c_0..c_m to d_0 = c_0 and
d_n = sum_s C(n-1, s) c_{n-s}, the intermediate vector from which
:func:`invpower.approximant.coeffs_via_matrix` reads the approximant
coefficients.  Entry n depends only on c_1..c_n, so growing the order
never changes earlier entries.  It is the m-fold composition of the
elementary row transforms that triangularize the coefficient system;
that ladder is kept in the tests as its oracle.
"""

from __future__ import annotations

from .scalar import ZERO, Scalar, binom
from .series import TaylorSeries


def binomial_convolve(series: TaylorSeries, m: int) -> tuple[Scalar, ...]:
    """Convolve the first m+1 coefficients with binomial rows."""
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    series.require_coefficients(m + 1)
    c = series.coeffs
    values = [c[0]]
    for n in range(1, m + 1):
        acc = ZERO
        for s in range(n):
            acc = acc + binom(n - 1, s) * c[n - s]
        values.append(acc)
    return tuple(values)
