"""Row transformations on finitely supported sequences.

The coefficient system that defines an inverse-power approximant is
triangularized by a ladder of elementary row operations:

* ``transform_k`` keeps entries 0..k and replaces every later entry by the
  sum of itself and its predecessor.

* ``sequential_transform`` composes ``transform_1 .. transform_m``.  Its
  effect collapses into a binomial convolution, implemented independently
  in :func:`sequential_closed_form`; the two routes are each other's
  oracle in the test suite.

* ``binomial_convolve`` applies that same convolution directly to Taylor
  coefficients, producing the intermediate vector from which approximant
  coefficients are read off.  Entry n depends only on c_1..c_n, so
  growing the order never changes earlier entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .scalar import ZERO, Scalar, binom
from .series import TaylorSeries


@dataclass(frozen=True)
class CountableSet:
    """A 0-indexed sequence with finitely many nonzero entries.

    Trailing zeros are trimmed on construction, so ``effective_length``
    is just the length of the stored tuple; indexing past it reads zero.
    """

    values: tuple[Scalar, ...]

    @staticmethod
    def of(*items) -> "CountableSet":
        return CountableSet.from_iterable(items)

    @staticmethod
    def from_iterable(items: Iterable) -> "CountableSet":
        coerced = tuple(x if isinstance(x, Scalar) else Scalar.rational(x) for x in items)
        end = len(coerced)
        while end > 0 and coerced[end - 1].is_zero:
            end -= 1
        return CountableSet(coerced[:end])

    @property
    def effective_length(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Scalar:
        if i < 0:
            raise IndexError("countable sets are 0-indexed")
        return self.values[i] if i < len(self.values) else ZERO

    def __add__(self, other: "CountableSet") -> "CountableSet":
        n = max(self.effective_length, other.effective_length)
        return CountableSet.from_iterable(self[i] + other[i] for i in range(n))


def transform_k(s: CountableSet, k: int) -> CountableSet:
    """Keep entries 0..k, then fold each later entry with its predecessor."""
    if k < 1:
        raise ValueError(f"transform order must be >= 1, got {k}")
    n = s.effective_length
    out = [s[i] for i in range(min(k + 1, n + 1))]
    for i in range(k + 1, n + 1):
        out.append(s[i] + s[i - 1])
    return CountableSet.from_iterable(out)


def sequential_transform(s: CountableSet, m: int) -> CountableSet:
    """Compose transform_1 .. transform_m, in that order."""
    if m < 1:
        raise ValueError(f"sequential transform order must be >= 1, got {m}")
    for k in range(1, m + 1):
        s = transform_k(s, k)
    return s


def sequential_closed_form(s: CountableSet, m: int) -> CountableSet:
    """The same map as :func:`sequential_transform`, via its collapsed
    binomial-convolution form.  Kept deliberately independent of the
    iterative route."""
    if m < 1:
        raise ValueError(f"sequential transform order must be >= 1, got {m}")
    n = s.effective_length
    out = [s[0]]
    for i in range(1, n + m + 1):
        if i <= m + 1:
            acc = ZERO
            for t in range(i):
                acc = acc + binom(i - 1, t) * s[i - t]
        else:
            acc = ZERO
            for t in range(m + 1):
                acc = acc + binom(m, t) * s[i - t]
        out.append(acc)
    return CountableSet.from_iterable(out)


@dataclass(frozen=True)
class BinomialConvolvedCoefficients:
    """Binomial convolution of Taylor coefficients, orders 0..m.

    ``values[0]`` equals c_0 exactly and ``values[n]`` mixes c_1..c_n with
    row n-1 of Pascal's triangle; the entries are independent of m.
    """

    values: tuple[Scalar, ...]

    def __getitem__(self, n: int) -> Scalar:
        return self.values[n]


def binomial_convolve(series: TaylorSeries, m: int) -> BinomialConvolvedCoefficients:
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
    return BinomialConvolvedCoefficients(tuple(values))
