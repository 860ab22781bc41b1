"""Executable checks for the binomial identities behind the convergence
argument.

The suite runs one m at a time.  At each m a family kernel returns both
sides for every admissible k of the range at once, as vectors over k:
one left side, and one right side per inner parameter (n or a).  The two
sides are computed by structurally different code:

* the **literal** side is the term-by-term sum written in ``math.comb``.
  It reads one table built per suite call, T[k][n] = comb(k-1+n, n) for
  k >= 1, which holds every left-side binomial of the convolution,
  weighted and hockey-stick families, and per m the literal row (-1)^n
  comb(m, n), built only when some k >= 1 is in the range;
* the **walked** side never calls ``math.comb`` or ``binom``.  It reads
  one Pascal band per suite call, D[c][e] = C(c+e, e) for c up to the
  largest k and e up to the largest m: row 0 is all ones and row c holds
  the prefix sums of row c-1 (the hockey stick).  The shift families also
  read, per m, the signed rows (-1)^(a+j) C(m-a, j): row a = 0 is walked
  by the exact ratio C(m, j+1) = C(m, j)·(m-j)/(j+1), and row a+1 is the
  negated prefix sums of row a.  The right sides at one (m, inner
  parameter) are one band entry per k, or the band rows' slices against
  one signed row, summed for every k in one C-level pass.  A factor
  whose lower index is negative or exceeds its upper one is 0; the code
  drops it rather than reading an index that would wrap.

The row prefix family, which has at most m cases at one m, runs one k at
a time over the m values instead.  Neither side reads a value the other
computed, and all arithmetic is over Python big integers.  Every case is
compared on its own: a vector of cases is counted with one
``sum(map(eq, ...))`` (``gt`` for the strict family), and an
:class:`IdentityCase` is built only for a failing one.

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
                               vector over k across a, with C(k, r) =
                               D[k-r][r].
* WEIGHTED_CONVOLUTION_CLOSED  its endpoint:
                               (-1)^(m-1) { m C(k-1,m) + C(k-2,m-1) }.
                               Walked: the right side, from D[k-1-m].

``run_suite`` enumerates every admissible tuple over rectangular m/k
ranges and reports pass/fail counts plus the failing tuples (there
should never be any: these are theorems, so a failure is an
implementation bug).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, cycle, islice, repeat
from math import comb, factorial
from operator import add, eq, getitem, gt, itemgetter, mul, neg, sub
from typing import NamedTuple, Sequence

from .scalar import Fields

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
# what the kernels read: the walked band and rows, the literal table and row
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


def _table(k_top: int, m_top: int) -> list[list[int]]:
    """The literal table T[k][n] = comb(k-1+n, n) for 1 <= k <= k_top and
    0 <= n <= m_top; no left side reads a row k = 0, so T[0] is empty."""
    return [[], *(list(map(comb, range(k - 1, k + m_top), range(m_top + 1)))
                  for k in range(1, k_top + 1))]


class _Shared(NamedTuple):
    """What the kernels at one m read: the band and the walked rows
    rows[a][j] = (-1)^(a+j) C(m-a, j) on the walked side, the table and
    the literal row (-1)^n comb(m, n) on the literal side."""

    band: list[list[int]]
    rows: list[list[int]]
    table: list[list[int]]
    literal: list[int]


def _shared(m: int, k_top: int, band: list[list[int]], table: list[list[int]]) -> _Shared:
    """The kernels' values at m >= 0 for a k range that tops out at
    k_top >= 1: the literal row to n = m, and the walked rows to a =
    min(m, k_top-1), past which every band row k-1-a is negative.  Row
    a+1 is the negated prefix sums of row a, since sum_{i<=j} (-1)^i
    C(n, i) = (-1)^j C(n-1, j)."""
    rows = [_signed_row(m)]
    for _ in range(min(m, k_top - 1)):
        rows.append(list(map(neg, accumulate(rows[-1][:-1]))))
    literal = list(map(mul, map(comb, repeat(m), range(m + 1)), cycle(_SIGNS)))
    return _Shared(band, rows, table, literal)


def _gather(rows: list, ks: Sequence[int], shift: int):
    """rows[k - shift] for each k of ks, lazily."""
    return map(rows.__getitem__, map(sub, ks, repeat(shift)))


def _dots(rows, weights: Sequence[int], start: int = 0):
    """sum_j rows[i][start + j] * weights[j] for each row i, lazily, in one
    C-level pass; each sum stops at the shorter of the two."""
    if start:
        rows = map(getitem, rows, repeat(slice(start, start + len(weights))))
    return map(sum, map(map, repeat(mul), rows, repeat(weights)))


# ---------------------------------------------------------------------------
# family kernels: (literal lhs over k, [walked rhs over k per inner parameter])
# at one m for its sorted admissible k values ks; the row prefix swaps m and k
# ---------------------------------------------------------------------------

_Sides = tuple[list[int], list[Sequence[int]]]


def _factorial_dominance(m: int, ks: Sequence[int], at: _Shared) -> _Sides:
    """(m+1)! C(k, m+1) and, for n = 0..m, C(k+n-1, n) (k > m+1)."""
    lhs = list(map(mul, repeat(factorial(m + 1)), map(comb, ks, repeat(m + 1))))
    return lhs, list(islice(zip(*_gather(at.band, ks, 1)), m + 1))


def _alternating_row_prefix(k: int, ms: Sequence[int], band: list[list[int]]) -> _Sides:
    """For each m of ms (m > k >= 0), sum_{n<=k} (-1)^n C(m, n) and
    (-1)^k C(m-1, k) = (-1)^k D[k][m-1-k]: this family runs one k at a
    time, over the m values above it."""
    lhs = [0] * len(ms)
    for n in range(k + 1):
        lhs = list(map(sub if n % 2 else add, lhs, map(comb, ms, repeat(n))))
    rhs = map(band[k].__getitem__, map(sub, ms, repeat(k + 1)))
    return lhs, [list(map(neg, rhs) if k % 2 else rhs)]


def _convolution(m: int, ks: Sequence[int], at: _Shared) -> _Sides:
    """The alternating convolution sum_n (-1)^n C(m,n) C(k+n-1,n), and the
    shift family's right sides for a = 0..m,

        (-1)^a sum_{j=0..m-a} (-1)^j C(k-1+j, j+a) C(m-a, j),

    followed by the closed form (-1)^m C(k-1, m) (k >= 1).  For a <= k-1
    the first factor is D[k-1-a][j+a]; for a > k-1 it is 0, and so is the
    right side."""
    lhs = list(_dots(_gather(at.table, ks, 0), at.literal))
    band, width = at.band, len(ks)
    rhs = []
    for a, row in enumerate(at.rows):
        lo = bisect_right(ks, a)
        rhs.append([*repeat(0, lo), *_dots(_gather(band, ks[lo:], a + 1), row, a)])
    rhs += ([0] * width for _ in range(m + 1 - len(rhs)))
    lo = bisect_right(ks, m)
    closed = map(itemgetter(m), _gather(band, ks[lo:], m + 1))
    rhs.append([*repeat(0, lo), *(map(neg, closed) if m % 2 else closed)])
    return lhs, rhs


def _hockey_stick(m: int, ks: Sequence[int], at: _Shared) -> _Sides:
    """sum_{z<m} C(k+z-2, k-2) and C(k+m-2, k-1) (k >= 2, m >= 1)."""
    lhs = list(map(sum, map(islice, _gather(at.table, ks, 1), repeat(m))))
    return lhs, [list(map(itemgetter(m - 1), _gather(at.band, ks, 1)))]


def _weighted_shift(m: int, ks: Sequence[int], at: _Shared) -> _Sides:
    """The weighted convolution sum_{n=1..m-1} (-1)^n C(m,n+1) C(k+n-1,k-1)
    and its right sides for a = 1..m-2 (k >= 2):

        (-1)^a sum_{n=1..m-a-1} (-1)^n C(m-a, n+1) C(k+n-1, k-1-a)
        + sum_{r=1..a} (-1)^r (m-r) C(k, r).

    For a <= k-1, C(k+n-1, k-1-a) = D[k-1-a][n+a]; for a > k-1 it is 0.
    The correction is a running vector over k across a, with C(k, r) =
    D[k-r][r] for r <= k and 0 beyond."""
    lhs = list(_dots(_gather(at.table, ks, 0), [0, *map(neg, at.literal[2:])]))
    band, width = at.band, len(ks)
    correction = [0] * width
    rhs = []
    for a in range(1, m - 1):
        lo = bisect_left(ks, a)
        terms = map(itemgetter(a), _gather(band, ks[lo:], a))
        weight = a - m if a % 2 else m - a
        correction[lo:] = map(add, correction[lo:], map(mul, repeat(weight), terms))
        lo = bisect_right(ks, a)
        shifted = _dots(_gather(band, ks[lo:], a + 1), [*map(neg, at.rows[a][2:])], a + 1) \
            if lo < width else ()
        rhs.append([*correction[:lo], *map(add, shifted, correction[lo:])])
    return lhs, rhs


def _weighted_convolution(m: int, ks: Sequence[int], at: _Shared) -> _Sides:
    """sum_{n=1..m} {C(m,n+1) - m C(m,n)} (-1)^n C(k+n-1,n) and
    (-1)^(m-1) {m C(k-1,m) + C(k-2,m-1)} (m >= 1, k >= 2).  Both binomials
    of the right side are 0 when m > k-1."""
    s = at.literal
    weights = [0, *map(sub, map(mul, repeat(-m), s[1:]), [*s[2:], 0])]
    lhs = list(_dots(_gather(at.table, ks, 0), weights))
    lo = bisect_right(ks, m)
    closed = _dots(_gather(at.band, ks[lo:], m + 1), (1, m), m - 1)
    return lhs, [[*repeat(0, lo), *(closed if m % 2 else map(neg, closed))]]


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


class SuiteRanges(NamedTuple):
    """Rectangular m/k enumeration ranges; inner parameters (n, a) always
    run over their full admissible span for each (m, k)."""

    m_values: Sequence[int] = tuple(range(0, 26))
    k_values: Sequence[int] = tuple(range(0, 26))


class SuiteReport(Fields):
    _fields = ("total", "passed", "failed", "skipped", "failures")

    def __init__(self, total: int = 0, passed: int = 0, failed: int = 0, skipped: int = 0,
                 failures: list[IdentityCase] | None = None) -> None:
        self.total, self.passed, self.failed, self.skipped = total, passed, failed, skipped
        self.failures = [] if failures is None else failures

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
    inner parameters.  Each family kernel runs once per m, over the k
    values sorted so that its admissible ones are one slice, on one band
    and one table built for the whole call.  The row prefix, whose cases
    at one m are at most m, runs once per k over the sorted m values
    instead.  Failures are reported in (m, k, family, inner parameter)
    order, m and k in range order.
    """
    m_values, k_values = ranges.m_values, ranges.k_values
    # every (identity, m, k) is skipped until a family kernel tallies it
    report = SuiteReport(skipped=len(IDENTITY_IDS) * len(m_values) * len(k_values))
    m_order = sorted(range(len(m_values)), key=m_values.__getitem__)
    k_order = sorted(range(len(k_values)), key=k_values.__getitem__)
    ms, ks = [m_values[i] for i in m_order], [k_values[i] for i in k_order]
    width = len(ks)
    k_top, m_top = max(ks, default=0), max(ms, default=0)
    band, table = _band(k_top, m_top), _table(k_top, m_top)
    zero, one, two = bisect_left(ks, 0), bisect_left(ks, 1), bisect_left(ks, 2)
    failures = []  # (m position, k position, family, inner parameter, case)

    def tally(identity_id, sides, m_places, k_places, inner=None, start=0, holds=eq):
        """Count the cases of one family's side vectors: the i-th entry is
        at the i-th positions of ``m_places`` and ``k_places`` in the m and
        k ranges, and the j-th right side at the inner parameter start + j."""
        lhs, rhs_rows = sides
        report.skipped -= len(lhs)
        cases = len(lhs) * len(rhs_rows)
        passed = sum(map(sum, map(map, repeat(holds), repeat(lhs), rhs_rows)))
        report.total += cases
        report.passed += passed
        if passed == cases:
            return
        report.failed += cases - passed
        family, places = IDENTITY_IDS.index(identity_id), list(zip(m_places, k_places))
        for value, rhs in enumerate(rhs_rows, start):
            for (m_pos, k_pos), left, right in zip(places, lhs, rhs):
                if not holds(left, right):
                    m, k = m_values[m_pos], k_values[k_pos]
                    params = {"k": k, "m": m} if identity_id == HOCKEY_STICK else {"m": m, "k": k}
                    if inner:
                        params[inner] = value
                    case = IdentityCase(identity_id, params, left, right, False)
                    failures.append((m_pos, k_pos, family, value, case))

    ks1, pos1, ks2, pos2 = ks[one:], k_order[one:], ks[two:], k_order[two:]
    for m_pos, m in enumerate(m_values):
        if m < 0 or one == width:
            continue
        at, here = _shared(m, k_top, band, table), repeat(m_pos)
        # factorial dominance: k > m+1, all 0 <= n <= m
        lo = bisect_left(ks, m + 2)
        if lo < width:
            tally(FACTORIAL_DOMINANCE, _factorial_dominance(m, ks[lo:], at), here, k_order[lo:],
                  "n", holds=gt)
        # shift family and its closed endpoint share the left side: k >= 1
        lhs, rhs = _convolution(m, ks1, at)
        tally(CONVOLUTION_SHIFT_FAMILY, (lhs, rhs[:-1]), here, pos1, "a")
        tally(ALTERNATING_CONVOLUTION_CLOSED, (lhs, rhs[-1:]), here, pos1)
        # hockey stick, the weighted family and its closed endpoint: k >= 2
        if ks2 and m >= 1:
            tally(HOCKEY_STICK, _hockey_stick(m, ks2, at), here, pos2)
            if m >= 3:
                tally(WEIGHTED_SHIFT_FAMILY, _weighted_shift(m, ks2, at), here, pos2, "a", 1)
            tally(WEIGHTED_CONVOLUTION_CLOSED, _weighted_convolution(m, ks2, at), here, pos2)
    # alternating prefix: uses k as the prefix length, 0 <= k <= m-1
    for k_pos, k in zip(k_order[zero:], ks[zero:]):
        lo = bisect_right(ms, k)
        if lo < len(ms):
            tally(ALTERNATING_ROW_PREFIX, _alternating_row_prefix(k, ms[lo:], band),
                  m_order[lo:], repeat(k_pos))
    failures.sort(key=itemgetter(0, 1, 2, 3))
    report.failures = list(map(itemgetter(4), failures))
    return report
