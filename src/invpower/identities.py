"""Executable checks for the binomial identities behind the convergence
argument.

Each identity is checked one (m, k) pair at a time by a family kernel
that returns both sides for every inner parameter (n or a) at once.  The
two sides are computed by structurally different code:

* the **literal** side is the term-by-term sum (or product) written in
  ``math.comb``, evaluated once per (m, k) and compared against every
  inner parameter.  Its terms run through C-level ``map`` calls, and the
  signed row (-1)^n comb(m, n) is built once per m, by the first family
  that reads it;
* the **walked** side never calls ``math.comb`` or ``binom``.  It reads
  one Pascal band per suite call, D[c][e] = C(c+e, e) for c up to the
  largest k and e up to the largest m: row 0 is all ones and row c holds
  the prefix sums of row c-1 (the hockey stick).  The shift families also
  read, per m, the signed rows (-1)^(a+j) C(m-a, j): row a = 0 is walked
  by the exact ratio C(m, j+1) = C(m, j)·(m-j)/(j+1), and row a+1 is the
  negated prefix sums of row a.  A right side is then one band entry or a
  C-level sum of products of a band slice and a signed row.  A factor
  whose lower index is negative or exceeds its upper one is 0; the code
  drops it rather than reading an index that would wrap.

Neither side reads a value the other computed.  All arithmetic is over
Python big integers.

The identity families, with the walked side named:

* FACTORIAL_DOMINANCE          (m+1)! * C(k, m+1)  >  C(k+n-1, n)
                               for k > m+1, 0 <= n <= m.  Walked: the
                               right side, D[k-1][n].
* ALTERNATING_ROW_PREFIX       sum_{n<=k} (-1)^n C(m,n) = (-1)^k C(m-1,k)
                               for m >= 1, 0 <= k <= m-1.  Walked: the
                               right side, D[k][m-1-k].
* CONVOLUTION_SHIFT_FAMILY     the alternating binomial convolution equals
                               an a-shifted re-indexed sum, 0 <= a <= m.
                               Walked: the shifted sums, band row k-1-a
                               against signed row a.
* ALTERNATING_CONVOLUTION_CLOSED  its endpoint: the convolution collapses
                               to (-1)^m C(k-1, m).  Walked: the right
                               side, D[k-1-m][m].
* HOCKEY_STICK                 column partial sums of the triangle.
                               Walked: the right side C(k+m-2, k-1),
                               D[k-1][m-1].
* WEIGHTED_SHIFT_FAMILY        the weighted convolution equals an a-shifted
                               sum plus a correction, 1 <= a <= m-2.
                               Walked: the shifted sums, band row k-1-a
                               against signed row a, and the correction
                               sum_{r<=a} (-1)^r (m-r) C(k,r), a running
                               sum over a of C(k, r) = D[k-r][r].
* WEIGHTED_CONVOLUTION_CLOSED  its endpoint:
                               (-1)^(m-1) { m C(k-1,m) + C(k-2,m-1) }.
                               Walked: the right side, from D[k-1-m].

``run_suite`` enumerates every admissible tuple over rectangular m/k
ranges and reports pass/fail counts plus the failing tuples (there
should never be any: these are theorems, so a failure is an
implementation bug).
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, cycle, repeat
from math import comb, factorial
from operator import mul, neg, sub
from typing import NamedTuple, Sequence

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

_SIGNS = (1, -1)


class IdentityCase(NamedTuple):
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
# what the kernels read: the walked band and rows, the literal comb row
# ---------------------------------------------------------------------------


def _band(k_top: int, m_top: int) -> list[list[int]]:
    """The walked Pascal band D[c][e] = C(c+e, e) for 0 <= c <= k_top and
    0 <= e <= m_top: row 0 is all ones, and row c is the prefix sums of
    row c-1, since sum_{i<=e} C(c-1+i, i) = C(c+e, e)."""
    band = [[1] * (m_top + 1)]
    for _ in range(k_top):
        band.append(list(accumulate(band[-1])))
    return band


def _signed_row(m: int) -> list[int]:
    """The walked signed row (-1)^j C(m, j) for j = 0..m, by the exact
    ratio C(m, j+1) = C(m, j)·(m-j)/(j+1)."""
    row = [1]
    for j in range(m):
        row.append(-row[-1] * (m - j) // (j + 1))
    return row


class _Shared:
    """What the kernels at one m read, each part built by the first kernel
    that needs it and kept for the rest of that m: the band, the walked
    signed rows, and on the literal side the row (-1)^n comb(m, n)."""

    def __init__(self, band: list[list[int]], m: int):
        self.band = band
        self.m = m
        self._rows: list[list[int]] = []

    def rows(self, depth: int) -> list[list[int]]:
        """Walked rows with rows[a][j] = (-1)^(a+j) C(m-a, j), for at least
        a = 0..depth: row a+1 is the negated prefix sums of row a, since
        sum_{i<=j} (-1)^i C(n, i) = (-1)^j C(n-1, j)."""
        rows = self._rows
        if not rows:
            rows.append(_signed_row(self.m))
        while len(rows) <= depth:
            rows.append(list(map(neg, accumulate(rows[-1][:-1]))))
        return rows

    @cached_property
    def signed_comb(self) -> list[int]:
        """Literal (-1)^n comb(m, n) for n = 0..m."""
        m = self.m
        return list(map(mul, map(comb, repeat(m), range(m + 1)), cycle(_SIGNS)))

    @cached_property
    def closed_weights(self) -> list[int]:
        """Literal (-1)^n { comb(m, n+1) - m comb(m, n) } for n = 1..m."""
        s = self.signed_comb
        return list(map(sub, map(mul, repeat(-self.m), s[1:]), s[2:] + [0]))


# ---------------------------------------------------------------------------
# family kernels: (literal lhs, [walked rhs per inner parameter]) at one (m, k)
# ---------------------------------------------------------------------------


def _factorial_dominance(m: int, k: int, at: _Shared) -> tuple[int, list[int]]:
    """(m+1)! C(k, m+1) and C(k+n-1, n) for n = 0..m (k > m+1)."""
    return factorial(m + 1) * comb(k, m + 1), at.band[k - 1][:m + 1]


def _alternating_row_prefix(m: int, k: int, at: _Shared) -> tuple[int, list[int]]:
    """sum_{n<=k} (-1)^n C(m, n) and (-1)^k C(m-1, k) (0 <= k <= m-1).
    The left side reads only its k+1 terms, so a run with k = 0 builds no
    row of m+1 terms."""
    lhs = sum(map(mul, map(comb, repeat(m), range(k + 1)), cycle(_SIGNS)))
    c = at.band[k][m - 1 - k]
    return lhs, [-c if k % 2 else c]


def _convolution(m: int, k: int, at: _Shared) -> tuple[int, list[int]]:
    """The alternating convolution sum_n (-1)^n C(m,n) C(k+n-1,n), and the
    shift family's right sides for a = 0..m,

        (-1)^a sum_{j=0..m-a} (-1)^j C(k-1+j, j+a) C(m-a, j),

    followed by the closed form (-1)^m C(k-1, m) (k >= 1).  For a <= k-1
    the first factor is D[k-1-a][j+a]; for a > k-1 it is 0, and so is the
    right side."""
    lhs = sum(map(mul, at.signed_comb, map(comb, range(k - 1, k + m), range(m + 1))))
    band, top = at.band, min(m, k - 1)
    rows = at.rows(top)
    rhs = [sum(map(mul, band[k - 1 - a][a:m + 1], rows[a])) for a in range(top + 1)]
    rhs += [0] * (m - top)
    closed = band[k - 1 - m][m] if m <= k - 1 else 0
    return lhs, [*rhs, -closed if m % 2 else closed]


def _hockey_stick(k: int, m: int, at: _Shared) -> tuple[int, list[int]]:
    """sum_{z<m} C(k+z-2, k-2) and C(k+m-2, k-1) (k >= 2, m >= 1)."""
    lhs = sum(map(comb, range(k - 2, k + m - 2), repeat(k - 2)))
    return lhs, [at.band[k - 1][m - 1]]


def _weighted_shift(m: int, k: int, at: _Shared) -> tuple[int, list[int]]:
    """The weighted convolution sum_{n=1..m-1} (-1)^n C(m,n+1) C(k+n-1,k-1)
    and its right sides for a = 1..m-2 (k >= 2):

        (-1)^a sum_{n=1..m-a-1} (-1)^n C(m-a, n+1) C(k+n-1, k-1-a)
        + sum_{r=1..a} (-1)^r (m-r) C(k, r).

    For a <= k-1, C(k+n-1, k-1-a) = D[k-1-a][n+a]; for a > k-1 it is 0.
    The correction is a running sum over a, with C(k, r) = D[k-r][r] for
    r <= k and 0 beyond."""
    lhs = -sum(map(mul, at.signed_comb[2:], map(comb, range(k, k + m - 1), repeat(k - 1))))
    band = at.band
    rows = at.rows(min(m - 2, k - 1))
    rhs = []
    correction = 0
    for a in range(1, m - 1):
        if a <= k:
            term = (m - a) * band[k - a][a]
            correction += -term if a % 2 else term
        shifted = -sum(map(mul, band[k - 1 - a][a + 1:m], rows[a][2:])) if a < k else 0
        rhs.append(shifted + correction)
    return lhs, rhs


def _weighted_convolution(m: int, k: int, at: _Shared) -> tuple[int, list[int]]:
    """sum_{n=1..m} {C(m,n+1) - m C(m,n)} (-1)^n C(k+n-1,n) and
    (-1)^(m-1) {m C(k-1,m) + C(k-2,m-1)} (m >= 1, k >= 2).  Both binomials
    of the right side are 0 when m > k-1."""
    lhs = sum(map(mul, at.closed_weights, map(comb, range(k, k + m), range(1, m + 1))))
    c = k - 1 - m
    value = m * at.band[c][m] + at.band[c][m - 1] if c >= 0 else 0
    return lhs, [value if m % 2 else -value]


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


class SuiteRanges(NamedTuple):
    """Rectangular m/k enumeration ranges; inner parameters (n, a) always
    run over their full admissible span for each (m, k)."""

    m_values: Sequence[int] = tuple(range(0, 26))
    k_values: Sequence[int] = tuple(range(0, 26))


class SuiteReport:
    def __init__(self, total: int = 0, passed: int = 0, failed: int = 0, skipped: int = 0,
                 failures: list[IdentityCase] | None = None) -> None:
        self.total, self.passed, self.failed, self.skipped = total, passed, failed, skipped
        self.failures = [] if failures is None else failures

    def _key(self) -> tuple:
        return self.total, self.passed, self.failed, self.skipped, self.failures

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return ("SuiteReport(total={!r}, passed={!r}, failed={!r}, skipped={!r}, failures={!r})"
                .format(*self._key()))

    def tally(self, identity_id: str, params: dict[str, int], lhs: int,
              rhs_values: Sequence[int], inner: str | None = None, start: int = 0,
              strict: bool = False) -> None:
        """Count one case per right side against the shared left side:
        each must equal it, or with ``strict`` lie below it.

        The i-th right side belongs to the inner parameter ``inner`` =
        ``start + i``.  An :class:`IdentityCase` is built only for a
        failure, in the order of the right sides.
        """
        count = len(rhs_values)
        self.total += count
        if strict:
            all_hold = not rhs_values or lhs > max(rhs_values)
        else:
            all_hold = rhs_values.count(lhs) == count
        if all_hold:
            self.passed += count
            return
        for i, rhs in enumerate(rhs_values, start):
            if lhs > rhs if strict else lhs == rhs:
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
    inner parameters.  Each family kernel runs once per admissible (m, k),
    on one band built for the whole call.
    """
    report = SuiteReport()
    band = _band(max(ranges.k_values, default=0), max(ranges.m_values, default=0))
    for m in ranges.m_values:
        at = _Shared(band, m)
        for k in ranges.k_values:
            mk = {"m": m, "k": k}
            # factorial dominance: k > m+1, all 0 <= n <= m
            if m >= 0 and k > m + 1:
                lhs, rhs = _factorial_dominance(m, k, at)
                report.tally(FACTORIAL_DOMINANCE, mk, lhs, rhs, inner="n", strict=True)
            else:
                report.skipped += 1
            # alternating prefix: uses k as the prefix length
            if m >= 1 and 0 <= k <= m - 1:
                report.tally(ALTERNATING_ROW_PREFIX, mk, *_alternating_row_prefix(m, k, at))
            else:
                report.skipped += 1
            # shift family and its closed endpoint share the left side
            if m >= 0 and k >= 1:
                lhs, rhs = _convolution(m, k, at)
                report.tally(CONVOLUTION_SHIFT_FAMILY, mk, lhs, rhs[:-1], inner="a")
                report.tally(ALTERNATING_CONVOLUTION_CLOSED, mk, lhs, rhs[-1:])
            else:
                report.skipped += 2
            # hockey stick
            if k >= 2 and m >= 1:
                report.tally(HOCKEY_STICK, {"k": k, "m": m}, *_hockey_stick(k, m, at))
            else:
                report.skipped += 1
            # weighted family and its closed endpoint
            if m > 1 and k >= 2 and m - 2 >= 1:
                lhs, rhs = _weighted_shift(m, k, at)
                report.tally(WEIGHTED_SHIFT_FAMILY, mk, lhs, rhs, inner="a", start=1)
            else:
                report.skipped += 1
            if m >= 1 and k >= 2:
                report.tally(WEIGHTED_CONVOLUTION_CLOSED, mk, *_weighted_convolution(m, k, at))
            else:
                report.skipped += 1
    return report
