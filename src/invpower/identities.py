"""Executable checks for the binomial identities behind the convergence
argument.

Each identity is checked one (m, k) pair at a time by a family kernel
that returns both sides for every inner parameter (n or a) at once.  The
two sides are computed by structurally different code:

* the **literal** side is the term-by-term sum (or product) written in
  ``math.comb``, evaluated once per (m, k) and compared against every
  inner parameter;
* the **walked** side never calls ``math.comb``: its Pascal factors
  start from 1 and move by exact ratio recurrences such as
  C(N+1, K+1) = C(N, K)·(N+1)/(K+1) or C(M, r+1) = C(M, r)·(M−r)/(r+1),
  each an exact integer division, and its signs by toggling.  ``binom``
  is kept only where a lower index can be negative, because the
  ``binom(a, b) == 0`` convention is load bearing (several right sides
  vanish only because of it).

Neither side reads a value the other computed.  All arithmetic is over
Python big integers.

The identity families, with the walked side named:

* FACTORIAL_DOMINANCE          (m+1)! * C(k, m+1)  >  C(k+n-1, n)
                               for k > m+1, 0 <= n <= m.  Walked: the
                               right side, over n.
* ALTERNATING_ROW_PREFIX       sum_{n<=k} (-1)^n C(m,n) = (-1)^k C(m-1,k)
                               for m >= 1, 0 <= k <= m-1.  Walked: the
                               right side, along row m-1.
* CONVOLUTION_SHIFT_FAMILY     the alternating binomial convolution equals
                               an a-shifted re-indexed sum, 0 <= a <= m.
                               Walked: the shifted sums, over a and over
                               their summation index.
* ALTERNATING_CONVOLUTION_CLOSED  its endpoint: the convolution collapses
                               to (-1)^m C(k-1, m).  Walked: the right
                               side, along row k-1.
* HOCKEY_STICK                 column partial sums of the triangle.
                               Walked: the right side C(k+m-2, k-1).
* WEIGHTED_SHIFT_FAMILY        the weighted convolution equals an a-shifted
                               sum plus a correction, 1 <= a <= m-2.
                               Walked: the shifted sums and the correction
                               sum_{r<=a} (-1)^r (m-r) C(k,r), a running
                               sum over a.
* WEIGHTED_CONVOLUTION_CLOSED  its endpoint:
                               (-1)^(m-1) { m C(k-1,m) + C(k-2,m-1) }.
                               Walked: the right side, along rows k-1
                               and k-2.

The ``check_*`` functions do one tuple's share of a family kernel: the
shift families' right sides are computed over a range of a, and a
single tuple asks for the range a..a.
``run_suite`` enumerates every admissible tuple over rectangular m/k
ranges and reports pass/fail counts plus the failing tuples (there should
never be any: these are theorems, so a failure is an implementation bug).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Callable, Sequence

from .scalar import binom

FACTORIAL_DOMINANCE = "FACTORIAL_DOMINANCE"
ALTERNATING_ROW_PREFIX = "ALTERNATING_ROW_PREFIX"
CONVOLUTION_SHIFT_FAMILY = "CONVOLUTION_SHIFT_FAMILY"
ALTERNATING_CONVOLUTION_CLOSED = "ALTERNATING_CONVOLUTION_CLOSED"
HOCKEY_STICK = "HOCKEY_STICK"
WEIGHTED_SHIFT_FAMILY = "WEIGHTED_SHIFT_FAMILY"
WEIGHTED_CONVOLUTION_CLOSED = "WEIGHTED_CONVOLUTION_CLOSED"

IDENTITY_IDS = (
    FACTORIAL_DOMINANCE,
    ALTERNATING_ROW_PREFIX,
    CONVOLUTION_SHIFT_FAMILY,
    ALTERNATING_CONVOLUTION_CLOSED,
    HOCKEY_STICK,
    WEIGHTED_SHIFT_FAMILY,
    WEIGHTED_CONVOLUTION_CLOSED,
)


@dataclass(frozen=True)
class IdentityCase:
    identity_id: str
    params: dict[str, int]
    lhs: int
    rhs: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "params": dict(self.params),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# family kernels: (literal lhs, [walked rhs per inner parameter]) at one (m, k)
# ---------------------------------------------------------------------------


def _factorial_dominance(m: int, k: int) -> tuple[int, list[int]]:
    """(m+1)! C(k, m+1) and C(k+n-1, n) for n = 0..m (k >= 1)."""
    lhs = factorial(m + 1) * comb(k, m + 1)
    rhs = []
    c = 1
    for n in range(m + 1):
        rhs.append(c)
        c = c * (k + n) // (n + 1)
    return lhs, rhs


def _alternating_row_prefix(m: int, k: int) -> tuple[int, list[int]]:
    """sum_{n<=k} (-1)^n C(m, n) and (-1)^k C(m-1, k) (m >= 1)."""
    lhs = sum(comb(m, n) * (-1) ** n for n in range(k + 1))
    c = 1
    for r in range(k):
        c = c * (m - 1 - r) // (r + 1)
    return lhs, [-c if k % 2 else c]


def _convolution_lhs(m: int, k: int) -> int:
    """The alternating convolution sum_n (-1)^n C(m,n) C(k+n-1,n)."""
    return sum(comb(m, n) * comb(k + n - 1, n) * (-1) ** n for n in range(m + 1))


def _convolution_shifts(m: int, k: int, first: int, last: int) -> tuple[list[int], int]:
    """The shift family's right sides

        (-1)^a sum_{j=0..m-a} (-1)^j C(k-1+j, j+a) C(m-a, j)

    for a = first..last (0 <= first <= last <= m, k >= 1), and
    (-1)^last C(k-1, last), which at last = m is the closed form.
    C(k-1, a) is walked over a from a = 0, and both factors over j; a
    single tuple is the range a..a."""
    rhs = []
    start = 1                               # C(k-1, a)
    sign = 1                                # (-1)^a
    for a in range(last + 1):
        if a >= first:
            total = 0
            if start:                       # else every term has the factor 0
                t, u, s = start, 1, sign    # C(k-1+j, j+a), C(m-a, j), sign
                for j in range(m - a + 1):
                    total += s * t * u
                    t = t * (k + j) // (j + a + 1)
                    u = u * (m - a - j) // (j + 1)
                    s = -s
            rhs.append(total)
        if a < last:
            start = start * (k - 1 - a) // (a + 1)
            sign = -sign
    return rhs, sign * start


def _convolution(m: int, k: int) -> tuple[int, list[int]]:
    """The alternating convolution, and the right sides of the shift
    family for a = 0..m followed by the closed form (-1)^m C(k-1, m)
    (k >= 1)."""
    rhs, closed = _convolution_shifts(m, k, 0, m)
    return _convolution_lhs(m, k), [*rhs, closed]


def _hockey_stick(k: int, m: int) -> tuple[int, list[int]]:
    """sum_{z<m} C(k+z-2, k-2) and C(k+m-2, k-1) (k >= 2)."""
    lhs = sum(comb(k + z - 2, k - 2) for z in range(m))
    c = 1                                   # C(k-1+j, k-1)
    for j in range(m - 1):
        c = c * (k + j) // (j + 1)
    return lhs, [c]


def _weighted_lhs(m: int, k: int) -> int:
    """The weighted convolution sum_{n=1..m-1} (-1)^n C(m,n+1) C(k+n-1,k-1)."""
    return sum(comb(m, n + 1) * comb(k + n - 1, k - 1) * (-1) ** n for n in range(1, m))


def _weighted_shifts(m: int, k: int, first: int, last: int) -> list[int]:
    """The weighted family's right sides for a = first..last
    (1 <= first <= last <= m-2, k >= 2):

        (-1)^a sum_{n=1..m-a-1} (-1)^n C(m-a, n+1) C(k+n-1, k-1-a)
        + sum_{r=1..a} (-1)^r (m-r) C(k, r).

    The correction is a running sum over a from a = 1 with C(k, r)
    walked over r; C(k+n-1, k-1-a) starts from binom(k, k-1-a), whose
    lower index is negative once a >= k, and is walked over n like
    C(m-a, n+1).  A single tuple is the range a..a.
    """
    rhs = []
    correction = 0
    ck = 1                                  # C(k, r)
    sign = 1                                # (-1)^a
    for a in range(1, last + 1):
        ck = ck * (k - a + 1) // a
        sign = -sign
        correction += sign * (m - a) * ck
        if a < first:
            continue
        shifted = 0
        v = binom(k, k - 1 - a)             # C(k+n-1, k-1-a) at n = 1
        if v:
            w = (m - a) * (m - a - 1) // 2  # C(m-a, n+1) at n = 1
            s = -sign
            for n in range(1, m - a):
                shifted += s * w * v
                v = v * (k + n) // (n + 1 + a)
                w = w * (m - a - n - 1) // (n + 2)
                s = -s
        rhs.append(shifted + correction)
    return rhs


def _weighted_shift(m: int, k: int) -> tuple[int, list[int]]:
    """The weighted convolution and its right sides for a = 1..m-2
    (k >= 2)."""
    return _weighted_lhs(m, k), _weighted_shifts(m, k, 1, m - 2)


def _weighted_convolution(m: int, k: int) -> tuple[int, list[int]]:
    """sum_{n=1..m} {C(m,n+1) - m C(m,n)} (-1)^n C(k+n-1,n) and
    (-1)^(m-1) {m C(k-1,m) + C(k-2,m-1)} (m >= 1, k >= 2)."""
    lhs = sum((comb(m, n + 1) - m * comb(m, n)) * comb(k + n - 1, n) * (-1) ** n
              for n in range(1, m + 1))
    c1 = c2 = 1                             # C(k-1, r), C(k-2, r)
    for r in range(m - 1):
        c1 = c1 * (k - 1 - r) // (r + 1)
        c2 = c2 * (k - 2 - r) // (r + 1)
    c1 = c1 * (k - m) // m
    value = m * c1 + c2
    return lhs, [value if m % 2 else -value]


# ---------------------------------------------------------------------------
# single tuples
# ---------------------------------------------------------------------------


def _case(identity_id: str, params: dict[str, int], lhs: int, rhs: int,
          holds: Callable[[int, int], bool] = operator.eq) -> IdentityCase:
    return IdentityCase(identity_id, params, lhs, rhs, holds(lhs, rhs))


def check_factorial_dominance(m: int, k: int, n: int) -> IdentityCase:
    """Strict inequality (m+1)! * C(k, m+1) > C(k+n-1, n)."""
    if m < 0 or n < 0 or k <= m + 1 or n > m:
        raise ValueError(f"need k > m+1 >= 1 and 0 <= n <= m, got m={m} k={k} n={n}")
    lhs, rhs = _factorial_dominance(m, k)
    return _case(FACTORIAL_DOMINANCE, {"m": m, "k": k, "n": n}, lhs, rhs[n], operator.gt)


def check_alternating_row_prefix(m: int, k: int) -> IdentityCase:
    """Partial alternating row sum against the signed previous-row value."""
    if m < 1 or k < 0 or k > m - 1:
        raise ValueError(f"need m >= 1 and 0 <= k <= m-1, got m={m} k={k}")
    lhs, rhs = _alternating_row_prefix(m, k)
    return _case(ALTERNATING_ROW_PREFIX, {"m": m, "k": k}, lhs, rhs[0])


def check_convolution_shift(m: int, k: int, a: int) -> IdentityCase:
    """Alternating binomial convolution vs its a-fold re-indexed form.

    The right side is independent of a; a = m collapses it to the closed
    form checked by :func:`check_alternating_convolution`.
    """
    if m < 0 or k < 1 or a < 0 or a > m:
        raise ValueError(f"need m >= 0, k >= 1, 0 <= a <= m, got m={m} k={k} a={a}")
    (rhs,), _ = _convolution_shifts(m, k, a, a)
    return _case(CONVOLUTION_SHIFT_FAMILY, {"m": m, "k": k, "a": a}, _convolution_lhs(m, k), rhs)


def check_alternating_convolution(m: int, k: int) -> IdentityCase:
    """sum (-1)^n C(m,n) C(k+n-1,n) == (-1)^m C(k-1, m)."""
    if m < 0 or k < 1:
        raise ValueError(f"need m >= 0 and k >= 1, got m={m} k={k}")
    _, closed = _convolution_shifts(m, k, m, m)
    return _case(ALTERNATING_CONVOLUTION_CLOSED, {"m": m, "k": k}, _convolution_lhs(m, k), closed)


def check_hockey_stick(k: int, m: int) -> IdentityCase:
    """Column partial sum: sum_{z<m} C(k+z-2, k-2) == C(k+m-2, k-1)."""
    if k < 2 or m < 1:
        raise ValueError(f"need k >= 2 and m >= 1, got k={k} m={m}")
    lhs, rhs = _hockey_stick(k, m)
    return _case(HOCKEY_STICK, {"k": k, "m": m}, lhs, rhs[0])


def check_weighted_shift(m: int, k: int, a: int) -> IdentityCase:
    """Weighted convolution vs its a-fold shifted form plus correction."""
    if m <= 1 or k < 2 or a < 1 or a > m - 2:
        raise ValueError(f"need m > 1, k >= 2, 1 <= a <= m-2, got m={m} k={k} a={a}")
    (rhs,) = _weighted_shifts(m, k, a, a)
    return _case(WEIGHTED_SHIFT_FAMILY, {"m": m, "k": k, "a": a}, _weighted_lhs(m, k), rhs)


def check_weighted_convolution(m: int, k: int) -> IdentityCase:
    """sum { C(m,n+1) - m C(m,n) } (-1)^n C(k+n-1,n)
    == (-1)^(m-1) { m C(k-1,m) + C(k-2,m-1) }."""
    if m < 1 or k < 2:
        raise ValueError(f"need m >= 1 and k >= 2, got m={m} k={k}")
    lhs, rhs = _weighted_convolution(m, k)
    return _case(WEIGHTED_CONVOLUTION_CLOSED, {"m": m, "k": k}, lhs, rhs[0])


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteRanges:
    """Rectangular m/k enumeration ranges; inner parameters (n, a) always
    run over their full admissible span for each (m, k)."""

    m_values: Sequence[int] = tuple(range(0, 26))
    k_values: Sequence[int] = tuple(range(0, 26))


@dataclass
class SuiteReport:
    total: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list[IdentityCase] = field(default_factory=list)

    def tally(self, identity_id: str, params: dict[str, int], lhs: int,
              rhs_values: Sequence[int], inner: str | None = None, start: int = 0,
              holds: Callable[[int, int], bool] = operator.eq) -> None:
        """Count one case per right side against the shared left side.

        The i-th right side belongs to the inner parameter ``inner`` =
        ``start + i``.  An :class:`IdentityCase` is built only for a
        failure.
        """
        self.total += len(rhs_values)
        for i, rhs in enumerate(rhs_values, start):
            if holds(lhs, rhs):
                self.passed += 1
            else:
                self.failed += 1
                case_params = params if inner is None else {**params, inner: i}
                self.failures.append(IdentityCase(identity_id, case_params, lhs, rhs, False))

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "failures": [c.to_json_dict() for c in self.failures],
        }


def run_suite(ranges: SuiteRanges = SuiteRanges()) -> SuiteReport:
    """Exhaustively check every identity over all admissible tuples.

    (m, k) pairs outside an identity's precondition are counted as
    skipped for that identity; admissible pairs expand to all admissible
    inner parameters.  Each family kernel runs once per admissible (m, k).
    """
    report = SuiteReport()
    for m in ranges.m_values:
        for k in ranges.k_values:
            mk = {"m": m, "k": k}
            # factorial dominance: k > m+1, all 0 <= n <= m
            if m >= 0 and k > m + 1:
                lhs, rhs = _factorial_dominance(m, k)
                report.tally(FACTORIAL_DOMINANCE, mk, lhs, rhs, inner="n", holds=operator.gt)
            else:
                report.skipped += 1
            # alternating prefix: uses k as the prefix length
            if m >= 1 and 0 <= k <= m - 1:
                report.tally(ALTERNATING_ROW_PREFIX, mk, *_alternating_row_prefix(m, k))
            else:
                report.skipped += 1
            # shift family and its closed endpoint share the left side
            if m >= 0 and k >= 1:
                lhs, rhs = _convolution(m, k)
                report.tally(CONVOLUTION_SHIFT_FAMILY, mk, lhs, rhs[:-1], inner="a")
                report.tally(ALTERNATING_CONVOLUTION_CLOSED, mk, lhs, rhs[-1:])
            else:
                report.skipped += 2
            # hockey stick
            if k >= 2 and m >= 1:
                report.tally(HOCKEY_STICK, {"k": k, "m": m}, *_hockey_stick(k, m))
            else:
                report.skipped += 1
            # weighted family and its closed endpoint
            if m > 1 and k >= 2 and m - 2 >= 1:
                lhs, rhs = _weighted_shift(m, k)
                report.tally(WEIGHTED_SHIFT_FAMILY, mk, lhs, rhs, inner="a", start=1)
            else:
                report.skipped += 1
            if m >= 1 and k >= 2:
                report.tally(WEIGHTED_CONVOLUTION_CLOSED, mk, *_weighted_convolution(m, k))
            else:
                report.skipped += 1
    return report
