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
  is sum_s (-1)**k W(k, s) c_s summed in order, with the integer weights
  W from a recurrence, by one kernel, :func:`float_dots`, which picks
  one route per call: binary64 steps when every row of a 64-bit series
  stays in the double range, integer steps otherwise (its docstring
  says why either gives the ``Scalar`` literal sums);
* :func:`coeffs_via_matrix`    -- binomial convolution of c followed by a
  product with the signed-binomial matrix (-1)**i C(j, i), which is
  its own inverse.

The tests check both against a fraction-free elimination of the raw
matching system and against re-expansion of R(x) (``tests/_oracles.py``).

An :class:`InversePowerApproximant` holds q_0..q_m as its kernel left
them, in the held-vector form it shares with a series
(:class:`~invpower.series.HeldVector`): integer numerators over D for an
exact series, raw mpmath tuples of the center's width for a float one;
``Scalar``s are made only when ``coeffs`` is read.  :func:`evaluate`
takes a point as an integer pair (num, den > 0) and returns R(x) in the
same held format: an exact approximant's as an integer pair, from one
Horner pass over its numerators, a float one's as a raw value of its
center's width, summed term by term with each step rounded as the
``Scalar`` loop rounds it (``tests/_oracles.py`` keeps that loop as the
oracle).

Only q_0 and q_1 stabilize to center-independent limits as m grows; the
entries q_k for k >= 2 are reported but depend on the chosen center and
must not be read as asymptotic-expansion coefficients.
"""

from __future__ import annotations

import operator
import warnings
from collections.abc import Iterable
from functools import reduce
from math import gcd, ldexp

from .errors import PoleError
from .scalar import (
    ZERO,
    CancellationWarning,
    binom,
    cancellation_bits,
    cancellation_hazard,
    float_renderer,
    ratio_text,
    raw_value,
    require_den,
    round_rational,
    significand_bits,
)
from .series import HeldVector, TaylorSeries, over_common_denominator
from .transforms import binomial_convolve


class InversePowerApproximant(HeldVector):
    """q_0..q_m of the dimension-m approximant about ``center``, held as
    its kernel computed them (:class:`~invpower.series.HeldVector`):
    signed numerators over ``den`` about an exact center, raw mpmath
    tuples of the center's width about a float one."""

    _fields = ("center", "values", "den")
    _names = ("an approximant", "an approximant")

    @property
    def dimension(self) -> int:
        return len(self.values) - 1


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


def _weight_rows(m: int):
    """Signed integer weights (-1)**k W(k, s), s = 0..m, for
    k = 0, 1, ..., m in turn: q_k = sum_s (-1)**k W(k, s) c_s.

    W(0, s) = C(m, s); for k >= 1, W(k, 0) = 0 and
    W(k, s) = sum_{N=1..m} C(N, k) C(N-1, s-1), which equals the
    alternating inner sum sum_n (-1)**n C(m-n, k-n) C(m, s+n) of the
    literal formula.  Its generating function G = sum_N (1+x)**N
    (1+y)**(N-1) obeys (x + y + xy) G = (1+x)((1+x)**m (1+y)**m - 1), and
    comparing coefficients gives
    W(k, s) = C(m+1, k) C(m, s) - W(k-1, s+1) - W(k-1, s): one
    multiplication per weight in place of an O(k) binomial sum; signed,
    S(k, s) = T_k C(m, s) + S(k-1, s+1) + S(k-1, s) for S = (-1)**k W
    and T_k = (-1)**k C(m+1, k).  C(m, s) and T_k are walked by the exact
    ratio steps C(m, s+1) = C(m, s)·(m−s)/(s+1) and T_k = −T_{k−1}·(m+2−k)/k.
    No weight has more than 2m + 1 bits: C(m, s) <= 2**m, and
    W(k, s) <= sum_N 2**N 2**(N-1) < 4**m.
    """
    row = [1]
    for s in range(m):
        row.append(row[-1] * (m - s) // (s + 1))
    w = row
    yield w
    top = 1
    for k in range(1, m + 1):
        top = -top * (m + 2 - k) // k
        w = [0, *(top * b + u + v for b, u, v in zip(row[1:], w[1:], [*w[2:], 0]))]
        yield w


# H[n] = 2**(n-1) - 1, the rounding step of :func:`_rounded_dot` for an
# excess width n, made when a row first needs it and kept: it starts
# empty, and no width needs n above 2*bits + 4 (the kernel's docstring)
_HALVES: dict[int, int] = {}


def _rounded_dot(row: list[int], c: list[tuple[int, int]], bits: int,
                 narrow: bool) -> tuple[int, int]:
    """sum_s row[s]*c_s of coefficients c_s = man * 2**exp, given as
    (signed man, exp), summed in order from s = 0 and rounded as
    ``Scalar`` arithmetic rounds it, as (man, exp) of the result.

    A weight wider than ``bits`` is rounded, then its product with c_s,
    then every partial sum: each step is exact on signed int mantissas
    and then rounded to nearest-even at ``bits``, n the excess width.
    ``>>`` floors for either sign, and a product or sum is rounded by
    x = (x + H[n] + bit n of x) >> n with H[n] = 2**(n-1) - 1: bit n of
    x is the parity of the floor of x/2**n, and with f the n low bits of
    x, f + H[n] + parity reaches 2**n exactly when f is over a half, or
    a half over an odd floor, so x/2**n is rounded half to even.  A
    weight, whose n has no bound, is shifted first and keeps one guard
    bit: y = w >> (n-1), plus 2 when that bit (bit 0 of y) is set and so
    is bit 1 or a bit below it (y << (n-1) != w), then w = y >> 1, the
    same rounding on the narrower y.  Each is the one correctly rounded
    result, so it equals the rounded conversion, product and sum of
    ``Scalar`` (mpmath) bit for bit; a mantissa rounded up to 2**bits is
    exact and needs no renormalising.  When the exponents of the partial
    sum and the next term are more than 2*bits + 2 apart, the smaller
    operand is below a quarter of the larger one's ulp, so it could act
    only as a sticky bit, which never changes a round-to-nearest result:
    the larger operand is the rounded sum.  That bounds n: a coefficient
    has at most ``bits`` bits (a ``TaylorSeries`` holds none wider) and a
    rounded weight, product or sum at most bits + 1, so a product has at
    most 2*bits + 1, and a sum of two operands, one shifted by up to
    2*bits + 2, at most 3*bits + 4: n <= 2*bits + 4 in ``_HALVES``.
    Reading H[n] there is faster than making 2**(n-1) - 1 at each step.
    ``narrow`` is the caller's promise that every weight is below
    2**bits: then no weight's width is read.  A zero product leaves the
    partial sum as it is, and one that cancels exactly is zero until the
    next nonzero term.
    """
    far = 2 * bits + 2
    am = ae = 0
    for w, (cm, ce) in zip(row, c):
        if not narrow:
            n = w.bit_length() - bits
            if n > 0:
                y = w >> (n - 1)
                w = (y + 2 if y & 1 and (y & 2 or y << (n - 1) != w) else y) >> 1
                ce += n
        pm = cm * w
        if not pm:
            continue
        n = pm.bit_length() - bits
        if n > 0:
            try:
                half = _HALVES[n]
            except KeyError:
                half = _HALVES[n] = (1 << n - 1) - 1
            pm = (pm + half + (pm >> n & 1)) >> n
            ce += n
        if not am:
            am, ae = pm, ce
            continue
        gap = ae - ce
        if gap > far:
            continue
        if gap < -far:
            am, ae = pm, ce
            continue
        if gap >= 0:
            am = (am << gap) + pm
            ae = ce
        else:
            am += pm << -gap
        n = am.bit_length() - bits
        if n > 0:
            try:
                half = _HALVES[n]
            except KeyError:
                half = _HALVES[n] = (1 << n - 1) - 1
            am = (am + half + (am >> n & 1)) >> n
            ae += n
    return am, ae


def float_dots(raw: list[tuple], rows: Iterable[list[int]], bits: int,
               weight_bits: int) -> list[tuple]:
    """For each row of integer weights w, the literal sum
    sum_s w[s]*c_s of finite raw float coefficients c_s (a
    ``TaylorSeries`` holds no infinity or NaN), summed in order from
    s = 0 and rounded as ``Scalar`` arithmetic rounds it, as a raw value.

    One route serves the whole call.  At 53 bits (``precision=64``), when
    every row provably stays in the binary64 range, every row is summed
    in Python floats; otherwise every row is summed on integers by
    :func:`_rounded_dot`, whose docstring says why its bits equal
    ``Scalar``'s.  Python floats are IEEE 754 binary64: float(w) is the
    correctly rounded weight, and each product and partial sum is one
    round-to-nearest-even step at 53 bits, the result :func:`_rounded_dot`
    computes, unless it overflows or falls below 2**-1022, where binary64
    keeps fewer than 53 bits.  With e_s = exp + bit length of the
    mantissa of c_s (so 2**(e_s-1) <= |c_s| < 2**e_s) and
    b = ``weight_bits``, which bounds every weight's bit length, the
    float route is taken when
    * every nonzero c_s has -1021 <= e_s <= 1024: it is a normal
      binary64 number, which ``math.ldexp`` builds exactly;
    * b <= 1023, so float(w[s]) <= 2**b is finite, however small the
      coefficients are;
    * b + T + bit length of len(c) <= 1024, with T the largest e_s.
    Then no step overflows: each rounded product is at most
    P = 2**(b+T), and, rounding being monotone and k*P a binary64
    number, the k-th partial sum is at most k*P < 2**1024.  A nonzero
    product is at least |c_s| >= 2**-1022, so it is normal.  A partial
    sum may cancel below 2**-1022, but there both sums are exact: the
    operands are multiples of 2**-1074, so the result has fewer than 53
    significant bits.  One coefficient such as 1e-400 or 1e400, which a
    64-bit ``Scalar`` keeps, or b >= 1024 sends every row to
    :func:`_rounded_dot`, which reads no weight's width when b <= ``bits``.
    Either route's (man, exp), a float's read off
    ``float.as_integer_ratio``, becomes a raw value by
    :func:`~invpower.scalar.raw_value`.
    """
    c = [(-man if sign else man, exp) for sign, man, exp, _ in raw]
    e = [cm.bit_length() + ce for cm, ce in c if cm]
    if (bits == 53 and weight_bits <= 1023 and all(-1021 <= x <= 1024 for x in e)
            and weight_bits + max(e, default=-1021) + len(c).bit_length() <= 1024):
        cf = [ldexp(cm, ce) for cm, ce in c]
        sums = (reduce(operator.add, map(operator.mul, map(float, row), cf), 0.0) for row in rows)
        return [raw_value(man, 1 - den.bit_length())
                for man, den in map(float.as_integer_ratio, sums)]
    narrow = weight_bits <= bits
    return [raw_value(*_rounded_dot(row, c, bits, narrow)) for row in rows]


def rounded_distance(x: tuple, y: tuple, bits: int) -> tuple:
    """``libmp.mpf_abs(libmp.mpf_sub(x, y, bits, "n"))`` of finite raw
    values of at most ``bits`` bits: one exact integer subtraction, then
    :func:`_rounded_dot`'s rounding step and its rule that an operand
    more than 2*bits + 2 below the other in exponent, or zero, leaves the
    other as the result (rounding is symmetric, so |.| may come first)."""
    xm = -x[1] if x[0] else x[1]
    ym = y[1] if y[0] else -y[1]
    gap, far = x[2] - y[2], 2 * bits + 2
    if not ym or xm and gap > far:
        return 0, *x[1:]
    if not xm or gap < -far:
        return 0, *y[1:]
    man = abs((xm << gap) + ym if gap >= 0 else xm + (ym << -gap))
    exp = min(x[2], y[2])
    n = man.bit_length() - bits
    if n > 0:
        try:
            half = _HALVES[n]
        except KeyError:
            half = _HALVES[n] = (1 << n - 1) - 1
        man = (man + half + (man >> n & 1)) >> n
        exp += n
    return raw_value(man, exp)


def exact_convolution(series: TaylorSeries, m: int) -> tuple[list[int], int]:
    """The binomial convolution d_0..d_m of an exact series' c_0..c_m over
    the least common denominator D of c_0..c_m: ([D*d_0, ..., D*d_m], D).
    The series holds its numerators over the least common denominator of
    all its coefficients, which one gcd with the first m+1 numerators
    brings down to D.  Entry N depends only on c_0..c_N."""
    a = series.values[:m + 1]
    g = gcd(series.den, *a)
    den = series.den // g
    if g > 1:
        a = [x // g for x in a]
    d = [a[0]]
    s = a[1:]
    while s:
        d.append(s[0])
        s = list(map(operator.add, s, s[1:]))
    return d, den


def _exact_coeffs(series: TaylorSeries, m: int) -> tuple[tuple[int, ...], int]:
    """q_0..q_m of an exact series as signed numerators over the common
    denominator D: Horner in (1+y) over its convolution."""
    d, den = exact_convolution(series, m)
    p = [d[m]]
    for dn in reversed(d[:m]):
        p = [p[0] + dn, *map(operator.add, p[1:], p), p[-1]]
    p[1::2] = map(operator.neg, p[1::2])
    return tuple(p), den


def coeffs_closed_form(series: TaylorSeries, m: int) -> InversePowerApproximant:
    """Approximant coefficients by the explicit binomial-sum formulas:
    the integer kernel for exact series, the rounded literal sums of
    :func:`float_dots` over the signed weights (-1)**k W(k, s) (and the
    cancellation warning) for float series; rounding to nearest is
    symmetric, so summing negated weights equals negating the sum."""
    _check_input(series, m)
    if series.is_exact:
        nums, den = _exact_coeffs(series, m)
        return InversePowerApproximant(series.center, nums, den=den)
    _warn_if_cancelling(series, m)
    sums = float_dots(series.values[:m + 1], _weight_rows(m),
                      significand_bits(series.float_precision), 2 * m + 1)
    return InversePowerApproximant(series.center, tuple(sums))


def coeffs_via_matrix(series: TaylorSeries, m: int) -> InversePowerApproximant:
    """Approximant coefficients via binomial convolution followed by the
    signed-binomial matrix; each q_i sums its row's nonzero terms in
    column order from an exact zero, so a float series gives q_i of its
    own width."""
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
    if not series.is_exact:
        return InversePowerApproximant(series.center, tuple(x.value for x in q))
    values, den = over_common_denominator(x.value.as_integer_ratio() for x in q)
    return InversePowerApproximant(series.center, values, den=den)


def evaluate(approx: InversePowerApproximant, num: int, den: int) -> tuple:
    """R(x) at x = num/den, den a positive int, in the approximant's held
    format; :class:`PoleError` at x0 - 1 when m >= 1 (a dimension-0
    approximant is a constant with no pole).

    Exact: an integer pair (p, q), q > 0, not in lowest terms.  With the
    base x - x0 + 1 = b/a reduced, b > 0, and q_k = n_k/D,
    R(x) = N/(D*b**m) for N = sum_k n_k a**k b**(m-k), which the Horner
    pass N <- N*a + n_k*b**(m-k), k = m down to 0, builds.

    Float: a raw value of the center's width, rounded as the ``Scalar``
    loop rounds it (``tests/_oracles.py`` keeps that loop): x rounded to
    the width, then x - x0 and + 1, 1/base and each further power a
    rounded division and product, then q_0 plus q_k * base**-k for
    k = 1..m in order, every step rounded to nearest.  A base that rounds
    to zero is the pole."""
    require_den(den)
    q = approx.values
    if approx.den is not None:
        cn, cd = approx.center.value.as_integer_ratio()
        a, b = den * cd, num * cd - (cn - cd) * den
        if len(q) > 1:
            if not b:
                raise PoleError(f"approximant has a pole at x = {ratio_text(cn - cd, cd)}")
            g = gcd(a, b) if b > 0 else -gcd(a, b)
            a, b = a // g, b // g
        p, bp = q[-1], 1
        for n in reversed(q[:-1]):
            bp *= b
            p = p * a + n * bp
        return p, approx.den * bp
    if len(q) == 1:
        return q[0]
    from mpmath.libmp import fone, fzero, mpf_add, mpf_div, mpf_mul, mpf_sub

    precision, center = approx.float_precision, approx.center.value
    bits = significand_bits(precision)
    base = mpf_add(mpf_sub(round_rational(num, den, bits), center, bits, "n"), fone, bits, "n")
    if base == fzero:
        pole = mpf_sub(center, fone, bits, "n")
        raise PoleError(f"approximant has a pole at x = {float_renderer(precision)(pole)}")
    result = q[0]
    inv = power = mpf_div(fone, base, bits, "n")
    for qk in q[1:]:
        result = mpf_add(result, mpf_mul(qk, power, bits, "n"), bits, "n")
        power = mpf_mul(power, inv, bits, "n")
    return result
