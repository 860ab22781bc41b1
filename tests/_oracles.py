"""Independent brute-force implementations and closed forms used as
oracles by the tests.

Everything here is deliberately written against the standard library
(``math.comb``, ``fractions.Fraction``) instead of the package under
test, so closed forms in the package are checked by structurally
different code.  The float oracles are the one exception: float mode
promises the rounding of the literal sums done in ``Scalar`` arithmetic,
one rounded operation per term, so they are those literal sums.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from invpower.scalar import Scalar


def comb0(a: int, b: int) -> int:
    """math.comb with the out-of-range-lower-index-is-zero convention."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def brute_q0(coeffs: list[Fraction], m: int) -> Fraction:
    """Leading coefficient at dimension m by literal summation."""
    return sum((Fraction(comb(m, n)) * coeffs[n] for n in range(m + 1)), Fraction(0))


def brute_q1(coeffs: list[Fraction], m: int) -> Fraction:
    """Second coefficient at dimension m by literal summation."""
    return sum(
        ((Fraction(comb0(m, n + 1)) - m * Fraction(comb(m, n))) * coeffs[n]
         for n in range(1, m + 1)),
        Fraction(0),
    )


def closed_form_q(coeffs: list[Fraction], m: int) -> list[Fraction]:
    """Approximant coefficients q_0..q_m by the explicit double sums

        q_0 = sum_{s=0..m} C(m,s) c_s
        q_1 = -sum_{s=1..m} (m C(m,s) - C(m,s+1)) c_s               (m >= 1)
        q_k = (-1)**k sum_{s=1..m} c_s sum_{n=0..k} (-1)**n C(m-n,k-n) C(m,s+n)

    term by term, O(m**4) binomials: the literal formula, kept as an
    oracle for the package's integer kernel.
    """
    q = [sum((comb(m, s) * coeffs[s] for s in range(m + 1)), Fraction(0))]
    if m >= 1:
        q.append(-sum(((m * comb(m, s) - comb0(m, s + 1)) * coeffs[s]
                       for s in range(1, m + 1)), Fraction(0)))
    for k in range(2, m + 1):
        acc = Fraction(0)
        for s in range(1, m + 1):
            inner = sum((-1) ** n * comb0(m - n, k - n) * comb0(m, s + n)
                        for n in range(k + 1))
            acc += inner * coeffs[s]
        q.append((-1) ** k * acc)
    return q


def float_q0_row(c: list[Scalar], m: int) -> Scalar:
    """Float q_0 at dimension m by its literal binomial sum in ``Scalar``
    arithmetic, starting from an exact zero."""
    acc = Scalar.rational(0)
    for n in range(m + 1):
        acc = acc + comb(m, n) * c[n]
    return acc


def float_q1_row(c: list[Scalar], m: int) -> Scalar:
    """Float q_1 at dimension m >= 1 by its literal binomial sum."""
    acc = Scalar.rational(0)
    for n in range(1, m + 1):
        acc = acc + (comb0(m, n + 1) - m * comb(m, n)) * c[n]
    return acc


def float_table(c: list[Scalar], m_max: int) -> list[tuple]:
    """Rows (m, q0, q1, delta0, delta1) of a float convergence table by
    the literal row sums, with deltas |q(m) - q(m-1)| in ``Scalar``
    arithmetic."""
    rows = []
    prev0 = prev1 = None
    for m in range(m_max + 1):
        q0 = float_q0_row(c, m)
        q1 = float_q1_row(c, m) if m >= 1 else None
        delta0 = abs(q0 - prev0) if prev0 is not None else None
        delta1 = abs(q1 - prev1) if (q1 is not None and prev1 is not None) else None
        rows.append((m, q0, q1, delta0, delta1))
        prev0, prev1 = q0, q1
    return rows


def float_closed_form_q(c: list[Scalar], m: int) -> list[Scalar]:
    """Float q_0..q_m by the literal double sums of :func:`closed_form_q`
    in ``Scalar`` arithmetic: each integer weight times c_s, summed in
    order from an exact zero, then times (-1)**k."""
    q = [float_q0_row(c, m)]
    if m >= 1:
        q.append(float_q1_row(c, m))
    for k in range(2, m + 1):
        acc = Scalar.rational(0)
        for s in range(1, m + 1):
            inner = 0
            for n in range(k + 1):
                inner += (-1) ** n * comb0(m - n, k - n) * comb0(m, s + n)
            acc = acc + inner * c[s]
        q.append((-1) ** k * acc)
    return q


def tail_coeffs(offset: Fraction, weight: Fraction, shift: Fraction,
                x0: Fraction, n: int) -> list[Fraction]:
    """Expansion of offset + weight/(x + shift) about x0, first n terms."""
    out = [offset]
    if weight == 0:
        return out + [Fraction(0)] * (n - 1)
    u = x0 + shift
    out[0] += weight / u
    for k in range(1, n):
        out.append(weight * Fraction(-1) ** k / u ** (k + 1))
    return out


def tail_rows(offset: Fraction, weight: Fraction, shift: Fraction,
              x0: Fraction, m: int) -> tuple[Fraction, Fraction]:
    """Closed-form (q0(m), q1(m)) of offset + weight/(x + shift) about x0.

    With b = x0 + shift and r = 1 - 1/b the coefficients are
    c_0 = offset + weight/b and c_n = weight*(-1)**n / b**(n+1), and the
    binomial theorem collapses the two row sums to

        q0(m) = offset + (weight/b) * r**m
        q1(m) = weight - weight * (1 + m/b) * r**m

    (q1(0) = 0 is the empty sum).  Exact for every m, so it checks a
    convergence table row by row, not just at its last row.
    """
    b = x0 + shift
    r = 1 - 1 / b
    return (offset + weight / b * r ** m,
            weight - weight * (1 + m / b) * r ** m)


class RawFrac:
    """Rationals without normalization: a second arithmetic path.

    Numerator/denominator are never reduced; equality is by cross
    multiplication.  Used to confirm that normalized exact arithmetic
    computes the same values.
    """

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            raise ZeroDivisionError
        self.num = num
        self.den = den

    def __add__(self, other: "RawFrac") -> "RawFrac":
        return RawFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RawFrac") -> "RawFrac":
        return RawFrac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RawFrac") -> "RawFrac":
        return RawFrac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RawFrac") -> "RawFrac":
        if other.num == 0:
            raise ZeroDivisionError
        return RawFrac(self.num * other.den, self.den * other.num)

    def __neg__(self) -> "RawFrac":
        return RawFrac(-self.num, self.den)

    def equals(self, other: Fraction) -> bool:
        return self.num * other.denominator == other.numerator * self.den
