"""Independent brute-force implementations and closed forms used as
oracles by the tests.

Everything here is deliberately written against the standard library
(``math.comb``, ``fractions.Fraction``) instead of the package under
test, so closed forms in the package are checked by structurally
different code.  The float oracles are one exception: float mode
promises the rounding of the literal sums done in ``Scalar`` arithmetic,
one rounded operation per term, so they are those literal sums.  The
claim checks at the end are the other: they run the package's pipeline
to test the paper's claims about its output (the limits do not depend
on the expansion center; the scaled remainder stays bounded), and
``scripts/run_convergence_study.py`` loads them from this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from invpower.asymptotics import (AsymptoticEstimate, ConvergenceTable, convergence_table,
                                  estimate_limits)
from invpower.corpus import CorpusFunction, evaluate_at, taylor_coeffs
from invpower.scalar import Scalar, significand_bits


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


# ---------------------------------------------------------------------------
# the row-transform ladder, the matching system and re-expansion
# ---------------------------------------------------------------------------


def trim(values) -> tuple:
    """A finitely supported sequence as the tuple of its entries up to
    the last nonzero one; entries past the end read as zero."""
    values = tuple(values)
    end = len(values)
    while end and not values[end - 1]:
        end -= 1
    return values[:end]


def transform_k(s: tuple, k: int) -> tuple:
    """Keep entries 0..k of a trimmed sequence, then fold each later
    entry, up to one past the end, with its predecessor."""
    p = [*s, 0]
    return trim([*p[:k + 1], *(p[i] + p[i - 1] for i in range(k + 1, len(p)))])


def sequential_transform(s: tuple, m: int) -> tuple:
    """transform_1 .. transform_m, in that order."""
    for k in range(1, m + 1):
        s = transform_k(s, k)
    return s


def sequential_closed_form(s: tuple, m: int) -> tuple:
    """The map of :func:`sequential_transform` as one binomial
    convolution: entry i >= 1 is sum_t C(cap, t) s[i - t] with
    cap = min(i - 1, m)."""
    p = [*s, *[0] * (m + 1)]
    return trim([p[0], *(sum(comb(min(i - 1, m), t) * p[i - t] for t in range(min(i, m + 1)))
                         for i in range(1, len(s) + m + 1))])


def bareiss(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Fraction-free Bareiss elimination of the first n columns of an
    integer matrix with n rows (first nonzero pivot, no magnitude
    heuristics): the echelon rows and the sign of the row permutation,
    0 when a column has no pivot.  Sign times the last pivot of a square
    matrix is its determinant."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return a, 0
        if pivot != col:
            a[col], a[pivot], sign = a[pivot], a[col], -sign
        for r in range(col + 1, n):
            a[r] = [0] * (col + 1) + [(a[r][c] * a[col][col] - a[r][col] * a[col][c]) // prev
                                      for c in range(col + 1, len(a[r]))]
        prev = a[col][col]
    return a, sign


def determinant(rows: list[list[int]]) -> int:
    a, sign = bareiss(rows)
    return sign * a[-1][-1]


def matmul(a, b) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def oracle_solve(c: list[Fraction], m: int) -> list[Fraction]:
    """q_0..q_m from the raw matching system sum_k q_k = c_0 and
    (-1)**n sum_{k>=1} C(k+n-1, n) q_k = c_n for n = 1..m, by
    :func:`bareiss` on integer rows (right side scaled by the lcm of its
    denominators) and back substitution over ``Fraction``."""
    n = m + 1
    scale = lcm(*(Fraction(x).denominator for x in c[:n]))
    rows = [[1 if i == 0 else (-1) ** i * comb0(k + i - 1, i) for k in range(n)]
            + [int(c[i] * scale)] for i in range(n)]
    a, _ = bareiss(rows)
    q = [Fraction(0)] * n
    for i in reversed(range(n)):
        q[i] = (a[i][n] - sum(a[i][j] * q[j] for j in range(i + 1, n))) / Fraction(a[i][i])
    return [x / scale for x in q]


def expand_to_taylor(q: list[Fraction], n_terms: int) -> list[Fraction]:
    """c_0..c_{n_terms-1} of R(x) = sum_k q_k/(x - x0 + 1)**k about x0:
    c_0 = sum_k q_k and c_n = (-1)**n sum_{k>=1} C(k+n-1, n) q_k."""
    return [sum(q, Fraction(0)), *((-1) ** n * sum((comb(k + n - 1, n) * qk
                                                    for k, qk in enumerate(q[1:], 1)), Fraction(0))
                                   for n in range(1, n_terms))]


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


def float_dot(c: list[Scalar], weights: list[int]) -> Scalar:
    """sum_s weights[s]*c_s in ``Scalar`` arithmetic, in order from an
    exact zero: the literal sum behind any one float weight row."""
    acc = Scalar.rational(0)
    for w, x in zip(weights, c):
        acc = acc + w * x
    return acc


def guard_bit_rounded_dot(row: list[int], c: list[tuple[int, int]], bits: int) -> tuple[int, int]:
    """The float kernel as it rounded before its lookup table, kept as the
    oracle of ``invpower.approximant._rounded_dot``, which must give the
    same (man, exp) step for step.

    sum_s row[s]*c_s of coefficients c_s = man * 2**exp, given as
    (signed man, exp), summed in order from s = 0 and rounded as
    ``Scalar`` arithmetic rounds it, as (man, exp) of the result.

    A weight wider than ``bits`` is rounded, then its product with c_s,
    then every partial sum: each step is exact on signed int mantissas
    and then rounded to nearest-even at ``bits``, n the excess width,
    by a floor shift that keeps one guard bit: y = x >> (n-1), plus 2
    when that bit (bit 0 of y) is set and so is bit 1 or a bit below it
    (y << (n-1) != x), then x = y >> 1.  ``>>`` floors for either sign,
    so this rounds x/2**n up exactly when its fraction above the floor
    is over a half, or a half over an odd floor: round-half-even.  It is
    the one correctly rounded result, so it equals the rounded
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
            y = w >> (n - 1)
            w = (y + 2 if y & 1 and (y & 2 or y << (n - 1) != w) else y) >> 1
            pe += n
        pm = cm * w
        n = pm.bit_length() - bits
        if n > 0:
            y = pm >> (n - 1)
            pm = (y + 2 if y & 1 and (y & 2 or y << (n - 1) != pm) else y) >> 1
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
            y = am >> (n - 1)
            am = (y + 2 if y & 1 and (y & 2 or y << (n - 1) != am) else y) >> 1
            ae += n
    return am, ae


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


def evaluate_literal(q: list[Fraction], x0: Fraction, x: Fraction) -> Fraction:
    """R(x) = sum_k q_k / (x - x0 + 1)**k term by term over ``Fraction``;
    ZeroDivisionError at the pole x = x0 - 1 when m >= 1."""
    base = x - x0 + 1
    return q[0] + sum((qk / base ** k for k, qk in enumerate(q[1:], 1)), Fraction(0))


def horner_value(q: list[Fraction], x0: Fraction, x: Fraction) -> Fraction:
    """R(x) by Horner in 1/(x - x0 + 1) over ``Fraction``: q_0 when
    m = 0, else ZeroDivisionError at the pole x = x0 - 1."""
    if len(q) == 1:
        return q[0]
    inv, acc = 1 / (x - x0 + 1), Fraction(0)
    for qk in reversed(q):
        acc = acc * inv + qk
    return acc


def tail_value(terms: list[tuple[Fraction, Fraction, Fraction]], x: Fraction) -> Fraction:
    """f(x) of a sum of offset + weight/(x + shift) terms over
    ``Fraction``; ZeroDivisionError at a pole of a weighted term."""
    return sum((offset + (weight / (x + shift) if weight else 0)
                for offset, weight, shift in terms), Fraction(0))


def evaluate_scalar_loop(approx, x: Scalar) -> Scalar:
    """R(x) by the term-by-term ``Scalar`` loop, whose rounding
    ``evaluate`` keeps on raw values for a float approximant at an exact
    point: powers of 1/base at the center's width, each term added in
    order from q_0, every step rounded."""
    result = approx.coeffs[0]
    if approx.dimension == 0:
        return result
    inv = 1 / (x - approx.center + 1)
    power = inv
    for k in range(1, approx.dimension + 1):
        result = result + approx.coeffs[k] * power
        power = power * inv
    return result


def float_evaluation(terms: list[tuple[Fraction, Fraction, Fraction]], approx,
                     x: Fraction) -> tuple:
    """(value, residual, error) of a float approximant's ``approximate``
    cell at an exact x, about a source of offset + weight/(x + shift)
    terms, as raw values: R(x) by :func:`evaluate_scalar_loop`, f(x) by
    :func:`tail_value` correctly rounded to the approximant's width by
    ``libmp.from_rational``, and f(x) - R(x) by ``libmp.mpf_sub``, each
    rounded to nearest.  The error is "pole" where the loop divides by a
    base that rounds to zero, "source pole" where ``tail_value`` divides
    by zero."""
    from mpmath import libmp

    try:
        value = evaluate_scalar_loop(approx, Scalar.rational(x))
    except ZeroDivisionError:
        return None, None, "pole"
    try:
        fx = tail_value(terms, x)
    except ZeroDivisionError:
        return value.value, None, "source pole"
    bits = significand_bits(value.precision)
    exact = libmp.from_rational(fx.numerator, fx.denominator, bits, "n")
    return value.value, libmp.mpf_sub(exact, value.value, bits, "n"), None


# ---------------------------------------------------------------------------
# binomial identities: both sides of every family by literal sums
# ---------------------------------------------------------------------------


def factorial_dominance_sides(m: int, k: int, n: int) -> tuple[int, int]:
    return factorial(m + 1) * comb0(k, m + 1), comb0(k + n - 1, n)


def alternating_row_prefix_sides(m: int, k: int) -> tuple[int, int]:
    lhs = sum((-1) ** n * comb0(m, n) for n in range(k + 1))
    return lhs, (-1) ** k * comb0(m - 1, k)


def alternating_convolution_lhs(m: int, k: int) -> int:
    return sum((-1) ** n * comb0(m, n) * comb0(k + n - 1, n) for n in range(m + 1))


def convolution_shift_sides(m: int, k: int, a: int) -> tuple[int, int]:
    rhs = sum((-1) ** (r - 1) * comb0(k + r - 2, r - 1 + a) * comb0(m - a, r - 1)
              for r in range(1, m + 2 - a))
    return alternating_convolution_lhs(m, k), (-1) ** a * rhs


def alternating_convolution_sides(m: int, k: int) -> tuple[int, int]:
    return alternating_convolution_lhs(m, k), (-1) ** m * comb0(k - 1, m)


def hockey_stick_sides(k: int, m: int) -> tuple[int, int]:
    return sum(comb0(k + z - 2, k - 2) for z in range(m)), comb0(k + m - 2, k - 1)


def weighted_shift_sides(m: int, k: int, a: int) -> tuple[int, int]:
    lhs = sum((-1) ** n * comb0(m, n + 1) * comb0(k + n - 1, k - 1) for n in range(1, m))
    shifted = sum((-1) ** n * comb0(m - a, n + 1) * comb0(k + n - 1, k - 1 - a)
                  for n in range(1, m - a))
    correction = sum((-1) ** r * (m - r) * comb0(k, r) for r in range(1, a + 1))
    return lhs, (-1) ** a * shifted + correction


def weighted_convolution_sides(m: int, k: int) -> tuple[int, int]:
    lhs = sum((comb0(m, n + 1) - m * comb0(m, n)) * (-1) ** n * comb0(k + n - 1, n)
              for n in range(1, m + 1))
    return lhs, (-1) ** (m - 1) * (m * comb0(k - 1, m) + comb0(k - 2, m - 1))


def identity_cases(m: int, k: int) -> tuple[list[tuple], int]:
    """Every admissible identity tuple at one (m, k), in the suite's order,
    as (identity_id, params, lhs, rhs, passed) by the literal sums, plus
    the number of families skipped at this (m, k)."""
    cases = []
    skipped = 0

    def add(identity_id, params, sides, holds=lambda lhs, rhs: lhs == rhs):
        lhs, rhs = sides
        cases.append((identity_id, params, lhs, rhs, holds(lhs, rhs)))

    if m >= 0 and k > m + 1:
        for n in range(m + 1):
            add("FACTORIAL_DOMINANCE", {"m": m, "k": k, "n": n},
                factorial_dominance_sides(m, k, n), lambda lhs, rhs: lhs > rhs)
    else:
        skipped += 1
    if 0 <= k <= m - 1:
        add("ALTERNATING_ROW_PREFIX", {"m": m, "k": k}, alternating_row_prefix_sides(m, k))
    else:
        skipped += 1
    if m >= 0 and k >= 1:
        for a in range(m + 1):
            add("CONVOLUTION_SHIFT_FAMILY", {"m": m, "k": k, "a": a},
                convolution_shift_sides(m, k, a))
        add("ALTERNATING_CONVOLUTION_CLOSED", {"m": m, "k": k},
            alternating_convolution_sides(m, k))
    else:
        skipped += 2
    if k >= 2 and m >= 1:
        add("HOCKEY_STICK", {"k": k, "m": m}, hockey_stick_sides(k, m))
    else:
        skipped += 1
    if m >= 3 and k >= 2:
        for a in range(1, m - 1):
            add("WEIGHTED_SHIFT_FAMILY", {"m": m, "k": k, "a": a},
                weighted_shift_sides(m, k, a))
    else:
        skipped += 1
    if m >= 1 and k >= 2:
        add("WEIGHTED_CONVOLUTION_CLOSED", {"m": m, "k": k}, weighted_convolution_sides(m, k))
    else:
        skipped += 1
    return cases, skipped


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


def fraction_walk_taylor(terms: list[tuple[Fraction, Fraction, Fraction]], x0: Fraction,
                         n: int) -> list[Fraction]:
    """c_0..c_{n-1} of a sum of offset + weight/(x + shift) terms about
    x0 by the per-coefficient ``Fraction`` walk the corpus expansion once
    ran: with weight u/v and base x0 + shift = alpha/beta, the numerator
    and denominator of each term's c_k are walked by *(-beta) and *alpha,
    and c_k is added as one ``Fraction``.  A zero base with a nonzero
    weight raises ``ZeroDivisionError``."""
    coeffs = [Fraction(0)] * n
    for offset, weight, shift in terms:
        coeffs[0] += offset
        if not weight:
            continue
        base = x0 + shift
        alpha, beta = base.numerator, base.denominator
        num, den = weight.numerator * beta, weight.denominator * alpha
        coeffs[0] += Fraction(num, den)
        for k in range(1, n):
            num *= -beta
            den *= alpha
            coeffs[k] += Fraction(num, den)
    return coeffs


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


# ---------------------------------------------------------------------------
# the paper's claims: center invariance and the scaled remainder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CenterInvarianceReport:
    """Two tables of the same function at different centers, compared."""

    center_a: Scalar
    center_b: Scalar
    table_a: ConvergenceTable
    table_b: ConvergenceTable
    estimate_a: AsymptoticEstimate
    estimate_b: AsymptoticEstimate
    q0_difference: Scalar
    q1_difference: Scalar
    q0_agrees: bool
    q1_agrees: bool

    @property
    def agrees(self) -> bool:
        return self.q0_agrees and self.q1_agrees


def center_invariance_check(
    f: CorpusFunction,
    x0_a: Scalar,
    x0_b: Scalar,
    m_max: int,
    tol: Scalar,
) -> CenterInvarianceReport:
    """Expand f at two centers and compare the limit estimates.

    The two leading coefficients do not depend on the expansion center;
    higher ones do.  Both full tables are reported so disagreement can be
    inspected row by row.
    """
    if m_max < 1:
        raise ValueError(f"comparing q1 needs m_max >= 1, got {m_max}")
    series_a = taylor_coeffs(f, x0_a, m_max + 1)
    series_b = taylor_coeffs(f, x0_b, m_max + 1)
    table_a = convergence_table(series_a, m_max)
    table_b = convergence_table(series_b, m_max)
    est_a = estimate_limits(table_a, tol)
    est_b = estimate_limits(table_b, tol)
    d0 = abs(est_a.q0 - est_b.q0)
    d1 = abs(est_a.q1 - est_b.q1)
    return CenterInvarianceReport(
        center_a=x0_a,
        center_b=x0_b,
        table_a=table_a,
        table_b=table_b,
        estimate_a=est_a,
        estimate_b=est_b,
        q0_difference=d0,
        q1_difference=d1,
        q0_agrees=d0 <= tol,
        q1_agrees=d1 <= tol,
    )


@dataclass(frozen=True)
class ResidualPoint:
    x: Scalar
    residual: Scalar


@dataclass(frozen=True)
class ResidualScanReport:
    """Scaled remainders r(x) = x**2 * |f(x) - q0 - q1/x| over a grid.

    If (q0, q1) really are the leading terms, r stays bounded (it tends
    to the next expansion coefficient); a wrong q0 makes it grow like
    x**2, a wrong q1 like x.  ``growth_flagged`` compares the top decade
    of the grid: failure when r at the largest point exceeds
    ``growth_factor`` times r at the start of the decade.
    """

    points: tuple[ResidualPoint, ...]
    growth_flagged: bool
    growth_factor: int


def asymptotic_residual_scan(
    f: CorpusFunction,
    q0: Scalar,
    q1: Scalar,
    grid: tuple[Scalar, ...],
    growth_factor: int = 4,
) -> ResidualScanReport:
    if not grid:
        raise ValueError("empty residual grid")
    points = []
    for x in grid:
        if x.is_zero:
            raise ValueError("residual scan grid must avoid x = 0")
        fx = Scalar(Fraction(*evaluate_at(f, *x.as_fraction().as_integer_ratio())))
        r = abs(fx - q0 - q1 / x) * x * x
        points.append(ResidualPoint(x, r))
    points.sort(key=lambda p: p.x.as_fraction())
    x_max = points[-1].x
    decade = [p for p in points if 10 * p.x >= x_max]
    first, last = decade[0].residual, decade[-1].residual
    flagged = last > growth_factor * first if not first.is_zero else not last.is_zero
    return ResidualScanReport(tuple(points), flagged, growth_factor)
