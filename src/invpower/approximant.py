"""Inverse-power approximants matched to a Taylor series.

Given coefficients c_0..c_m of f about a finite center x0, the dimension-m
approximant is

    R(x) = q_0 + sum_{k=1..m} q_k / (x - x0 + 1)**k,

the unique function of that shape whose own expansion about x0 reproduces
c_0..c_m.  With the binomial convolution d_0 = c_0 and
d_N = sum_j C(N-1, j) c_{j+1} for N >= 1, its coefficients are

    q_k = (-1)**k * sum_{N=k..m} C(N, k) d_N,

and the hockey-stick identity sum_{N<=m} C(N-1, j) = C(m, j+1) collapses
the first two into the explicit sums q_0 = sum_s C(m,s) c_s and
q_1 = sum_s (C(m,s+1) - m*C(m,s)) c_s.  Two independent constructions
are provided and must agree bit-for-bit in exact mode:

* :func:`coeffs_closed_form`   -- the explicit sums.  Exact series go
  through one integer kernel, :func:`exact_convolution`: over the common
  denominator D of c_0..c_m the coefficients become integers a_n = D*c_n,
  and D*d_N is s[0] after N-1 passes of adjacent additions
  s[i] + s[i+1] over a_1..a_m.  Horner in (1+y),
  p <- p*(1+y) + D*d_N for N = m down to 0, then leaves
  p[k] = sum_N C(N, k) D*d_N, so q_k = (-1)**k p[k]/D (and q_0, q_1
  are the running sums sum_N d_N and -sum_N N*d_N, which is how
  :mod:`invpower.asymptotics` reads its rows).  That is O(m**2)
  big-integer additions with no binomial and no rational in the loop;
  values become ``Scalar`` only at the end.  Float series keep the
  rounding of the literal sums and the cancellation warning: each q_k
  is sum_s W(k, s) c_s summed in order, with the integer weights W from
  a recurrence, by one kernel, :func:`float_dots`: integer steps, or
  binary64 steps for a 64-bit row that stays in the double range (its
  docstring says why either gives the ``Scalar`` literal sums).  A
  raw mpmath value, and then a ``Scalar``, is built once per q_k.  A
  series that mixes exact and inexact entries or float widths is first
  rounded to its narrowest width (:func:`float_coefficients`);
* :func:`coeffs_via_matrix`    -- binomial convolution of c followed by a
  product with the signed-binomial matrix (-1)**i C(j, i), which is
  its own inverse.

The tests check both against a fraction-free elimination of the raw
matching system and against re-expansion of R(x) (``tests/_oracles.py``).

:func:`evaluate` sums R(x) for an exact approximant at an exact point in
one integer Horner pass over the common denominator of q_0..q_m and
builds one ``Fraction``; float approximants or points keep the
term-by-term ``Scalar`` loop and its rounding.

Only q_0 and q_1 stabilize to center-independent limits as m grows; the
entries q_k for k >= 2 are reported but depend on the chosen center and
must not be read as asymptotic-expansion coefficients.
"""

from __future__ import annotations

import operator
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm, ldexp

from .errors import PoleError
from .scalar import (
    ZERO,
    CancellationWarning,
    Scalar,
    binom,
    cancellation_bits,
    cancellation_hazard,
    significand_bits,
)
from .series import TaylorSeries
from .transforms import binomial_convolve


@dataclass(frozen=True)
class InversePowerApproximant:
    """Dimension m, expansion center, and coefficients q_0..q_m."""

    dimension: int
    center: Scalar
    coeffs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.dimension + 1:
            raise ValueError(
                f"dimension {self.dimension} approximant needs exactly "
                f"{self.dimension + 1} coefficients, got {len(self.coeffs)}")

    @property
    def is_exact(self) -> bool:
        return self.center.exact and all(q.exact for q in self.coeffs)

    @property
    def pole(self) -> Scalar:
        """The one point where R(x) is undefined: x = x0 - 1."""
        return self.center - 1


def signed_binomial_matrix(m: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the upper-triangular (m+1) x (m+1) matrix (-1)**i C(j, i)."""
    if m < 0:
        raise ValueError(f"dimension must be >= 0, got {m}")
    return tuple(tuple((-1) ** i * binom(j, i) for j in range(m + 1)) for i in range(m + 1))


def _check_input(series: TaylorSeries, m: int) -> None:
    if m < 0:
        raise ValueError(f"dimension must be >= 0, got {m}")
    series.require_coefficients(m + 1)


def _warn_if_cancelling(series: TaylorSeries, m: int) -> None:
    prec = series.float_precision
    if prec is not None and cancellation_hazard(m, prec):
        warnings.warn(CancellationWarning(
            f"dimension {m} binomial sums consume ~{cancellation_bits(m)} of "
            f"{prec} float bits; expect catastrophic cancellation, use exact mode"))


def float_coefficients(series: TaylorSeries, count: int) -> tuple[list[tuple], int, int]:
    """The first ``count`` coefficients of a float series as raw mpmath
    values, each read through ``Scalar.approx(c, float_precision)``, with
    that precision and its significand width.

    On a series of one width (all the CLI, float files and ``to_inexact``
    build) this reads the values as they are.  A mixed series, with exact
    and inexact entries or several widths, is rounded to its narrowest
    width first.  :func:`float_dots` works on finite mantissas only; the
    callers' ``series.require_coefficients`` has rejected an infinity or
    NaN.
    """
    prec = series.float_precision
    coeffs = series.coeffs[:count]
    return [Scalar.approx(c, prec).value._mpf_ for c in coeffs], prec, significand_bits(prec)


def _weight_rows(m: int):
    """Integer weights W(k, s), s = 0..m, for k = 0, 1, ..., m in turn:
    q_k = (-1)**k sum_s W(k, s) c_s.

    W(0, s) = C(m, s); for k >= 1, W(k, 0) = 0 and
    W(k, s) = sum_{N=1..m} C(N, k) C(N-1, s-1), which equals the
    alternating inner sum sum_n (-1)**n C(m-n, k-n) C(m, s+n) of the
    literal formula.  Its generating function G = sum_N (1+x)**N
    (1+y)**(N-1) obeys (x + y + xy) G = (1+x)((1+x)**m (1+y)**m - 1), and
    comparing coefficients gives
    W(k, s) = C(m+1, k) C(m, s) - W(k-1, s+1) - W(k-1, s): one
    multiplication per weight in place of an O(k) binomial sum.  C(m, s)
    and C(m+1, k) are walked by the exact ratio steps
    C(m, s+1) = C(m, s)·(m−s)/(s+1) and C(m+1, k) = C(m+1, k−1)·(m+2−k)/k.
    """
    row = [1]
    for s in range(m):
        row.append(row[-1] * (m - s) // (s + 1))
    w = row
    yield w
    top = 1
    for k in range(1, m + 1):
        top = top * (m + 2 - k) // k
        w = [0, *(top * b - u - v for b, u, v in zip(row[1:], w[1:], [*w[2:], 0]))]
        yield w


def _rounded_dot(row: list[int], c: list[tuple[int, int]], bits: int) -> tuple[int, int]:
    """sum_s row[s]*c_s of coefficients c_s = man * 2**exp, given as
    (signed man, exp), summed in order from s = 0 and rounded as
    ``Scalar`` arithmetic rounds it, as (man, exp) of the result.

    A weight wider than ``bits`` is rounded, then its product with c_s,
    then every partial sum: each step is exact on signed int mantissas
    and then rounded to nearest-even at ``bits`` by
    x <- (x + 2**(n-1) - 1 + bit n of x) >> n, n the excess width.  That
    is the one correctly rounded result, so it equals the rounded
    conversion, product and sum of ``Scalar`` (mpmath) bit for bit; a
    mantissa rounded up to 2**bits is exact and needs no renormalising.
    When the exponents of the partial sum and the next term are more
    than 2*bits + 2 apart, the smaller operand is below a quarter of the
    larger one's ulp, so it could act only as a sticky bit, which never
    changes a round-to-nearest result: the larger operand is the rounded
    sum.  That keeps every shift within 2*bits + 2, whatever the
    exponents.  A zero term leaves the partial sum as it is, and one
    that cancels exactly is zero until the next nonzero term.
    """
    far = 2 * bits + 2
    am = ae = 0
    for w, (cm, ce) in zip(row, c):
        if not w or not cm:
            continue
        pe = ce
        n = w.bit_length() - bits
        if n > 0:
            w = (w + (1 << (n - 1)) - 1 + (w >> n & 1)) >> n
            pe += n
        pm = cm * w
        n = pm.bit_length() - bits
        if n > 0:
            pm = (pm + (1 << (n - 1)) - 1 + (pm >> n & 1)) >> n
            pe += n
        if not am:
            am, ae = pm, pe
            continue
        gap = ae - pe
        if gap > far:
            continue
        if gap < -far:
            am, ae = pm, pe
            continue
        if gap >= 0:
            am = (am << gap) + pm
            ae = pe
        else:
            am += pm << -gap
        n = am.bit_length() - bits
        if n > 0:
            am = (am + (1 << (n - 1)) - 1 + (am >> n & 1)) >> n
            ae += n
    return am, ae


def float_dots(raw: list[tuple], rows: Iterable[list[int]], bits: int) -> list[tuple]:
    """For each row of integer weights w, the literal sum
    sum_s w[s]*c_s of raw float coefficients c_s, summed in order from
    s = 0 and rounded as ``Scalar`` arithmetic rounds it, as a raw value.

    A row is summed on integers by :func:`_rounded_dot`, whose docstring
    says why its bits equal ``Scalar``'s, except at 53 bits
    (``precision=64``), where a row that provably stays in the binary64
    range is summed in Python floats.  Python floats are IEEE 754
    binary64: float(w) is the correctly rounded weight, and each
    product and partial sum is one round-to-nearest-even step at 53
    bits, the result :func:`_rounded_dot` computes, unless it overflows
    or falls below 2**-1022, where binary64 keeps fewer than 53 bits.
    With e_s = exp + bit length of the mantissa of c_s (so
    2**(e_s-1) <= |c_s| < 2**e_s), a row of n = min(len(w), len(c))
    terms takes the float route when
    * every nonzero c_s, s < n, has -1021 <= e_s <= 1024: it is a
      normal binary64 number, which ``math.ldexp`` builds exactly;
    * every |w[s]| < 2**b with b <= 1023, so float(w[s]) <= 2**b is
      finite, however small the coefficients are;
    * b + T + bit length of n <= 1024, with T the largest such e_s.
    Then no step overflows: each rounded product is at most
    P = 2**(b+T), and, rounding being monotone and k*P a binary64
    number, the k-th partial sum is at most k*P < 2**1024.  A nonzero
    product is at least |c_s| >= 2**-1022, so it is normal.  A partial
    sum may cancel below 2**-1022, but there both sums are exact: the
    operands are multiples of 2**-1074, so the result has fewer than 53
    significant bits.  Every other row (a coefficient such as 1e-400 or
    1e400, which a 64-bit ``Scalar`` keeps, or a weight of 2**1023 or
    more) and every other width takes :func:`_rounded_dot`.
    """
    # float mode only: exact runs never load mpmath
    from mpmath.libmp import from_float, from_man_exp

    c = [(-man if sign else man, exp) for sign, man, exp, _ in raw]
    if bits != 53:
        return [from_man_exp(*_rounded_dot(row, c, bits)) for row in rows]
    cf = []  # the leading coefficients that are normal binary64 numbers
    top = [-1021]  # |c_s| < 2**top[n] for every s < n
    for cm, ce in c:
        e = ce + cm.bit_length()
        if cm and not -1021 <= e <= 1024:
            break
        cf.append(ldexp(cm, ce))
        top.append(max(top[-1], e) if cm else top[-1])
    out = []
    for row in rows:
        n = min(len(row), len(c))
        b = max(max(row).bit_length(), min(row).bit_length())
        if n <= len(cf) and b <= 1023 and b + top[n] + n.bit_length() <= 1024:
            x = reduce(operator.add, map(operator.mul, map(float, row), cf), 0.0)
            out.append(from_float(x))
        else:
            out.append(from_man_exp(*_rounded_dot(row, c, bits)))
    return out


def exact_convolution(c: tuple[Scalar, ...], m: int) -> tuple[list[int], int]:
    """The binomial convolution d_0..d_m of exact c_0..c_m over the least
    common denominator D of c_0..c_m: ([D*d_0, ..., D*d_m], D).  Entry N
    depends only on c_0..c_N."""
    fracs = [x.value for x in c[:m + 1]]
    den = lcm(*(f.denominator for f in fracs))
    a = [f.numerator * (den // f.denominator) for f in fracs]
    d = [a[0]]
    s = a[1:]
    while s:
        d.append(s[0])
        s = list(map(operator.add, s, s[1:]))
    return d, den


def _exact_coeffs(c: tuple[Scalar, ...], m: int) -> tuple[Scalar, ...]:
    """q_0..q_m of an exact series: Horner in (1+y) over its convolution."""
    d, den = exact_convolution(c, m)
    p = [d[m]]
    for dn in reversed(d[:m]):
        p = [p[0] + dn, *map(operator.add, p[1:], p), p[-1]]
    return tuple(Scalar(Fraction(-pk if k % 2 else pk, den), True)
                 for k, pk in enumerate(p))


def coeffs_closed_form(series: TaylorSeries, m: int) -> InversePowerApproximant:
    """Approximant coefficients by the explicit binomial-sum formulas:
    the integer kernel for exact series, the rounded literal sums of
    :func:`float_dots` over the weights W(k, s) (and the cancellation
    warning) for float series; rounding to nearest is symmetric, so
    negating the sum for odd k equals summing negated weights."""
    _check_input(series, m)
    if series.is_exact:
        return InversePowerApproximant(m, series.center, _exact_coeffs(series.coeffs, m))
    from mpmath.libmp import mpf_neg  # float mode only: exact runs never load mpmath

    _warn_if_cancelling(series, m)
    raw, prec, bits = float_coefficients(series, m + 1)
    sums = float_dots(raw, _weight_rows(m), bits)
    q = tuple(Scalar.from_raw(mpf_neg(x) if k % 2 else x, prec) for k, x in enumerate(sums))
    return InversePowerApproximant(m, series.center, q)


def coeffs_via_matrix(series: TaylorSeries, m: int) -> InversePowerApproximant:
    """Approximant coefficients via binomial convolution followed by the
    signed-binomial matrix; each q_i sums its row's nonzero terms in
    column order from an exact zero."""
    _check_input(series, m)
    _warn_if_cancelling(series, m)
    d = binomial_convolve(series, m)
    q = []
    for row in signed_binomial_matrix(m):
        acc = ZERO
        for e, dj in zip(row, d):
            if e:
                acc = acc + e * dj
        q.append(acc)
    return InversePowerApproximant(m, series.center, tuple(q))


def _exact_value(q: tuple[Scalar, ...], base: Fraction) -> Scalar:
    """sum_k q_k / base**k for exact q_0..q_m, in one integer Horner pass.

    With 1/base = a/b and q_k = n_k/D over the least common denominator
    D, the sum is N/(D*b**m) with N = sum_k n_k a**k b**(m-k), and
    N <- N*a + n_k*b**(m-k) for k = m down to 0 builds N; the one
    ``Fraction`` reduces it with a single gcd.
    """
    fracs = [x.value for x in q]
    den = lcm(*(f.denominator for f in fracs))
    nums = [f.numerator * (den // f.denominator) for f in fracs]
    a, b = base.denominator, base.numerator
    num, bp = nums[-1], 1
    for n in reversed(nums[:-1]):
        bp *= b
        num = num * a + n * bp
    return Scalar(Fraction(num, den * bp), True)


def evaluate(approx: InversePowerApproximant, x: Scalar) -> Scalar:
    """Evaluate R(x); raises :class:`PoleError` at x = x0 - 1.

    A dimension-0 approximant is a constant with no pole at all.  An
    exact approximant at an exact point is summed on integers
    (:func:`_exact_value`); a float approximant or point term by term in
    ``Scalar`` arithmetic, with its rounding.
    """
    base = x - approx.center + 1
    if base.is_zero and approx.dimension >= 1:
        raise PoleError(f"approximant has a pole at x = {approx.pole}")
    result = approx.coeffs[0]
    if approx.dimension == 0:
        return result
    if base.exact and approx.is_exact:
        return _exact_value(approx.coeffs, base.value)
    inv = 1 / base
    power = inv
    for k in range(1, approx.dimension + 1):
        result = result + approx.coeffs[k] * power
        power = power * inv
    return result

