"""Executable checks for the binomial identities behind the convergence
argument.

The suite runs one m at a time.  At each m a family kernel returns both
sides for every k of the range at once, each side as one packed integer
(below), one left side and one right side per inner parameter (n or a).
The two sides are computed by structurally different code:

* the **literal** side is the term-by-term sum written in ``math.comb``.
  It reads one table built per suite call, T[k][n] = comb(k-1+n, n) for
  k >= 1, which holds every left-side binomial of the convolution,
  weighted, hockey-stick and factorial families (C(k, m+1) =
  T[k-m][m+1]), and per m the literal row (-1)^n comb(m, n), built only
  when some k >= 1 is in the range;
* the **walked** side never calls ``math.comb`` or ``binom``.  It reads
  one Pascal band per suite call, D[c][e] = C(c+e, e) for c up to the
  largest k and e up to the largest m: row 0 is all ones and row c holds
  the prefix sums of row c-1 (the hockey stick).  The shift families also
  read, per m, the signed rows (-1)^(a+j) C(m-a, j): row a = 0 is walked
  by the exact ratio C(m, j+1) = C(m, j)·(m-j)/(j+1), and row a+1 is the
  negated prefix sums of row a.  A factor whose lower index is negative
  or exceeds its upper one is 0; the code drops it rather than reading
  an index that would wrap.

The row prefix family, which has at most m cases at one m, runs one k at
a time over the m values instead, and reads ``math.comb`` for its left
side and band row k for its right.  Neither side reads a value the other
computed, and all arithmetic is over Python big integers.

**Packed sides.**  A vector v over k is held as the one integer
sum_k v[k] 2^(kW): slot k holds v[k] in W bits (W a whole number of
bytes), for k = 0..K, the largest k.  The band's and the table's columns
are packed over k once per suite call, D[.][e] and T[.][n] into slot k,
so that a shift by s slots re-indexes k -> k+s, and a right side at one
(m, inner parameter) is one C-level ``sum(map(mul, row, columns))``
shifted into place; a left side is one such sum against the literal
row.  The row prefix packs over m instead: one slot for each m of the
range above its least k >= 0, in increasing order, so a sparse m range
pays for its values, not for its span (a repeated m repeats its slot,
and a failure there is decoded at the highest failing one).

A family at one m is checked by whole-integer arithmetic.  With OFF
holding 2^(W-1) in every slot, ONES holding 1, and MASK all ones in the
slots of the family's admissible k (k >= 1, k >= 2 or k > m+1; m > k for
the row prefix),

    equality:   ((L - R + OFF) & MASK) == OFF & MASK,
    L > R:      ((L - R - ONES + OFF) & OFF & MASK) == OFF & MASK.

A comparison that holds counts every case of the range positions it
covers, so unordered, duplicate and negative ranges (a negative value has
no slot and is never admissible) run the same code; a slot whose value is
not in the range has no position to count.  Slots are decoded only when
a comparison fails, to report its failing cases with both sides.

**The slot width.**  Every slot value of a side is a sum of products
w·e of a weight (a signed or literal row entry, the factorial, a small
integer) and an entry (of the band or of the table), so
|v| <= sum |w| · max |e| = S, and |v| < 2^b for b = bitlen(S).  W is
the smallest whole number of bytes with W >= b + 2, S the largest such
bound over both sides of every family at one m, taken from the
magnitudes of the rows and entries actually read, never from what they
should be: a wrong band, row or table entry widens W instead of carrying
into a neighbouring slot.  Then |l - r| <= 2^(b+1) - 2 and
|l - r - 1| <= 2^(b+1) - 1, so l - r + 2^(W-1) and l - r - 1 + 2^(W-1)
lie in [0, 2^W): adding OFF to L - R (or to L - R - ONES) makes every
slot's digit exactly that value, with no borrow or carry across a slot
boundary.  The digit equals 2^(W-1) iff l = r, and its top bit is set iff
l - r - 1 >= 0, i.e. l > r.  Slots above K, where a shifted side may
spill, lie above every masked bit and change none of them.  The width at
one m grows with m, so ``run_suite`` takes the m values from the largest
down and packs the columns once; a wider slot needed at a smaller m
(only a wrong value can ask for one) packs them again.  Factorial
dominance, whose left sides (m+1)! C(k, m+1) outgrow every other side,
runs after the other families, on the columns packed again at its own
width when that is wider, so that the shift families' products are not
taken at its width (which about doubles the main width at m, k = 200).

The identity families, with the walked side named:

* FACTORIAL_DOMINANCE          (m+1)! * C(k, m+1)  >  C(k+n-1, n)
                               for k > m+1, 0 <= n <= m.  Walked: the
                               right side, D[k-1][n].
* ALTERNATING_ROW_PREFIX       sum_{n<=k} (-1)^n C(m,n) = (-1)^k C(m-1,k)
                               for m >= 1, 0 <= k <= m-1.  Walked: the
                               right side, D[k][m-1-k].
* CONVOLUTION_SHIFT_FAMILY     the alternating binomial convolution equals
                               an a-shifted re-indexed sum, 0 <= a <= m.
                               Walked: the shifted sums, band columns a..m
                               against signed row a, shifted a+1 slots.
* ALTERNATING_CONVOLUTION_CLOSED  its endpoint: the convolution collapses
                               to (-1)^m C(k-1, m).  Walked: the right
                               side, D[k-1-m][m].
* HOCKEY_STICK                 column partial sums of the triangle.
                               Walked: the right side C(k+m-2, k-1),
                               D[k-1][m-1].
* WEIGHTED_SHIFT_FAMILY        the weighted convolution equals an a-shifted
                               sum plus a correction, 1 <= a <= m-2.
                               Walked: the shifted sums, band columns
                               a+1..m-1 against signed row a, and the
                               correction sum_{r<=a} (-1)^r (m-r) C(k,r),
                               a running sum across a, with C(k, r) =
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
from io import BytesIO
from itertools import accumulate, cycle, islice, repeat
from math import comb, factorial
from operator import add, itemgetter, mul, neg, sub
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
# packed vectors: slot i of a packed value holds entry i in `width` bits
# ---------------------------------------------------------------------------


def _magnitude(rows) -> int:
    """The largest |entry| of some nonempty rows."""
    return max(max(map(max, rows)), -min(map(min, rows)))


def _width(bound: int) -> int:
    """The slot width for entries of magnitude at most ``bound``: the
    smallest whole number of bytes W with W >= bitlen(bound) + 2."""
    return (bound.bit_length() + 9) // 8 * 8


def _every_slot(value: int, width: int, count: int) -> int:
    """0 <= value < 2^width in each of ``count`` slots."""
    return int.from_bytes(value.to_bytes(width // 8, "little") * count, "little")


def _pack(values: Sequence[int], width: int) -> int:
    """sum_i values[i] 2^(i·width) for |values[i]| < 2^(width-1).  Should
    an entry be negative, every entry is biased into [0, 2^width) and the
    bias taken off the sum."""
    try:
        return _unsigned(values, width // 8)
    except OverflowError:
        half = 1 << width - 1
        return (_unsigned([*map(add, values, repeat(half))], width // 8)
                - _every_slot(half, width, len(values)))


def _unsigned(values: Sequence[int], size: int) -> int:
    """The entries 0 <= values[i] < 2^(8·size), each written as ``size``
    big-endian bytes, last first, in one C-level pass that frees each
    piece once written, read back as one integer."""
    buffer = BytesIO()
    buffer.writelines(map(int.to_bytes, reversed(values), repeat(size), repeat("big")))
    return int.from_bytes(buffer.getvalue(), "big")


def _slot(value: int, i: int, width: int) -> int:
    """Entry i of a packed value whose entries up to i are below
    2^(width-1) in magnitude: rounding value / 2^(i·width) to the nearest
    integer drops the entries below slot i, and the low slot of what is
    left, read as signed, is entry i."""
    shift, half = i * width, 1 << width - 1
    return ((value + (1 << shift >> 1) >> shift) + half & (half << 1) - 1) - half


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


class _Columns:
    """The band's and the table's columns over k, as read at every m of
    one suite call: their magnitudes, and the columns packed at the
    widest slot asked for so far (``band[e]`` holds D[k][e] and
    ``table[n]`` holds T[k][n] in slot k, slot 0 empty), with ``ones``,
    1 in each slot."""

    def __init__(self, band: list[list[int]], table: list[list[int]]) -> None:
        self.bands, self.tables = list(zip(*band)), list(zip(*table[1:]))
        self.band_size = _magnitude(self.bands)
        self.table_sizes = [_magnitude([column]) for column in self.tables]
        self.least, self.width = _width(max(self.band_size, *self.table_sizes)), 0

    def widen(self, width: int) -> None:
        """Pack the columns at ``width``, or at the least width that holds
        every entry, unless they are packed that wide already."""
        width = max(width, self.least)
        if width > self.width:
            self.width, self.ones = width, _every_slot(1, width, len(self.bands[0]))
            self.band = [*map(_pack, self.bands, repeat(width))]
            self.table = [_pack(column, width) << width for column in self.tables]


class _Shared(NamedTuple):
    """What the kernels at one m read: the slot width, 1 in every slot and
    the k of each slot, the packed band and table columns, the walked rows
    rows[a][j] = (-1)^(a+j) C(m-a, j) and the literal row (-1)^n comb(m, n)."""

    width: int
    ones: int
    values: Sequence[int]
    band: list[int]
    table: list[int]
    rows: list[list[int]]
    literal: list[int]


def _shared(m: int, k_top: int, columns: _Columns) -> _Shared:
    """The kernels' values at m >= 0 for a k range that tops out at
    k_top >= 1: the literal row to n = m, the walked rows to a =
    min(m, k_top-1), past which every band row k-1-a is negative, and the
    columns packed at a width that holds every side at m (module
    docstring).  Row a+1 is the negated prefix sums of row a, since
    sum_{i<=j} (-1)^i C(n, i) = (-1)^j C(n-1, j)."""
    rows = [_signed_row(m)]
    for _ in range(min(m, k_top - 1)):
        rows.append(list(map(neg, accumulate(rows[-1][:-1]))))
    literal = list(map(mul, map(comb, repeat(m), range(m + 1)), cycle(_SIGNS)))
    # the weights of one walked slot sum to at most the largest signed row's
    # plus (m+1)^2 (the correction, the closed forms); of one literal slot,
    # over table columns n <= m, to (m+1) times the literal row's plus 1
    # each (the weighted closed form, the hockey stick's m ones)
    walked = max(map(sum, map(map, repeat(abs), rows))) + (m + 1) ** 2
    literal_sum = (m + 1) * (sum(map(abs, literal)) + 1)
    columns.widen(_width(max(walked * columns.band_size,
                             literal_sum * max(columns.table_sizes[:m + 1]))))
    return _Shared(columns.width, columns.ones, range(k_top + 1), columns.band, columns.table, rows, literal)


def _dominance(m: int, k_top: int, columns: _Columns) -> _Shared:
    """What the factorial dominance kernel reads at m, for a k range with
    some k > m+1: the columns packed at a width that also holds its left
    sides (m+1)! T[k-m][m+1], k <= k_top, which outgrow every other side
    (its right sides are band entries, which every width holds)."""
    columns.widen(_width(factorial(m + 1) * _magnitude([columns.tables[m + 1][:k_top - m]])))
    return _Shared(columns.width, columns.ones, range(k_top + 1), columns.band, columns.table, [], [])


# ---------------------------------------------------------------------------
# family kernels: (packed lhs, [packed rhs per inner parameter]) over the k
# slots at one m; the row prefix swaps m and k
# ---------------------------------------------------------------------------

_Sides = tuple[int, list[int]]


def _factorial_dominance(m: int, at: _Shared) -> _Sides:
    """(m+1)! C(k, m+1), with C(k, m+1) = T[k-m][m+1], and, for n = 0..m,
    C(k+n-1, n) (k > m+1)."""
    w = at.width
    return factorial(m + 1) * at.table[m + 1] << m * w, [c << w for c in at.band[:m + 1]]


class _Prefix(NamedTuple):
    """What the row prefix reads, packed over the m values ``values`` in
    slots of ``width`` (1 in each is ``ones``): the left sides ``sums[k]``
    and the band rows ``band[k]``, D[k][m-1-k] in the slot of each m > k."""

    width: int
    ones: int
    values: Sequence[int]
    sums: list[int]
    band: list[int]


def _prefix(k_last: int, values: list[int], band: list[list[int]]) -> _Prefix:
    """The row prefix's sides over the slots of ``values``, m >= 1 in
    increasing order (repeats allowed), for every k <= k_last: the left
    sides sum_{n<=k} (-1)^n comb(m, n) as running sums, at most k_last+1
    terms of comb values, and the band rows they are checked against, one
    entry each (module docstring)."""
    combs = [list(map(comb, values, repeat(n))) for n in range(k_last + 1)]
    # D[k][m-1-k] for each m > k: entry m of band row k behind k+1 zeros
    rows = [[*map(([0] * (k + 1) + row).__getitem__, islice(values, bisect_right(values, k), None))]
            for k, row in enumerate(band[:k_last + 1])]
    width = _width((k_last + 1) * max(_magnitude(combs), _magnitude(rows)))
    sums = list(accumulate(map(mul, map(_pack, combs, repeat(width)), cycle(_SIGNS))))
    return _Prefix(width, _every_slot(1, width, len(values)), values, sums,
                   [*map(_pack, rows, repeat(width))])


def _alternating_row_prefix(k: int, at: _Prefix) -> _Sides:
    """sum_{n<=k} (-1)^n C(m, n) and (-1)^k C(m-1, k) = (-1)^k D[k][m-1-k]
    over the m slots (m > k >= 0): this family runs one k at a time."""
    rhs = at.band[k] << bisect_right(at.values, k) * at.width
    return at.sums[k], [-rhs if k % 2 else rhs]


def _convolution(m: int, at: _Shared) -> _Sides:
    """The alternating convolution sum_n (-1)^n C(m,n) C(k+n-1,n), and the
    shift family's right sides for a = 0..m,

        (-1)^a sum_{j=0..m-a} (-1)^j C(k-1+j, j+a) C(m-a, j),

    followed by the closed form (-1)^m C(k-1, m) (k >= 1).  For a <= k-1
    the first factor is D[k-1-a][j+a]; for a > k-1 it is 0, and so is the
    right side: slot k of band column j+a shifted a+1 slots."""
    w, band = at.width, at.band
    lhs = sum(map(mul, at.literal, at.table))
    rhs = [sum(map(mul, row, band[a:m + 1])) << (a + 1) * w for a, row in enumerate(at.rows)]
    rhs += repeat(0, m + 1 - len(rhs))
    closed = band[m] << (m + 1) * w
    rhs.append(-closed if m % 2 else closed)
    return lhs, rhs


def _hockey_stick(m: int, at: _Shared) -> _Sides:
    """sum_{z<m} C(k+z-2, k-2) and C(k+m-2, k-1) (k >= 2, m >= 1)."""
    w = at.width
    return sum(at.table[:m]) << w, [at.band[m - 1] << w]


def _weighted_shift(m: int, at: _Shared) -> _Sides:
    """The weighted convolution sum_{n=1..m-1} (-1)^n C(m,n+1) C(k+n-1,k-1)
    and its right sides for a = 1..m-2 (k >= 2):

        (-1)^a sum_{n=1..m-a-1} (-1)^n C(m-a, n+1) C(k+n-1, k-1-a)
        + sum_{r=1..a} (-1)^r (m-r) C(k, r).

    For a <= k-1, C(k+n-1, k-1-a) = D[k-1-a][n+a]; for a > k-1 it is 0.
    The correction is a running sum across a, with C(k, r) = D[k-r][r],
    band column r shifted r slots (0 for k < r)."""
    w, band, rows = at.width, at.band, at.rows
    lhs = -sum(map(mul, at.literal[2:], at.table[1:]))
    correction, rhs = 0, []
    for a in range(1, m - 1):
        correction += (a - m if a % 2 else m - a) * band[a] << a * w
        shifted = sum(map(mul, rows[a][2:], band[a + 1:m])) << (a + 1) * w \
            if a < len(rows) else 0
        rhs.append(correction - shifted)
    return lhs, rhs


def _weighted_convolution(m: int, at: _Shared) -> _Sides:
    """sum_{n=1..m} {C(m,n+1) - m C(m,n)} (-1)^n C(k+n-1,n) and
    (-1)^(m-1) {m C(k-1,m) + C(k-2,m-1)} (m >= 1, k >= 2).  Both binomials
    of the right side are 0 when m > k-1."""
    s = at.literal
    weights = [0, *map(sub, map(mul, repeat(-m), s[1:]), [*s[2:], 0])]
    lhs = sum(map(mul, weights, at.table))
    closed = at.band[m - 1] + m * at.band[m] << (m + 1) * at.width
    return lhs, [closed if m % 2 else -closed]


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
    inner parameters.  Each family kernel runs once per distinct m, from
    the largest down, and returns its sides packed over the k slots (the
    module docstring gives the layout and the slot width); one band and
    one table are built for the whole call and their columns packed once,
    and again for factorial dominance where its sides need wider slots.
    Each right side is compared with its left side by one masked
    big-integer test over every admissible k slot, whatever the order and
    the duplicates of the range, and a test that holds counts all the
    range positions it covers.  The row prefix, whose cases at one m are
    at most m, runs once per distinct k instead, over one slot for each
    m of the range.  Slots are decoded only for a failing test;
    failures are reported in (m, k, family, inner parameter) order, m and
    k in range order.
    """
    m_values, k_values = ranges.m_values, ranges.k_values
    # every (identity, m, k) is skipped until a family kernel tallies it
    report = SuiteReport(skipped=len(IDENTITY_IDS) * len(m_values) * len(k_values))
    ms, ks = sorted(m_values), sorted(k_values)
    k_top, m_top = max(ks, default=0), max(ms, default=0)
    band = _band(k_top, m_top)
    failures = []  # (m position, k position, family, inner parameter, case)

    def tally(identity_id, sides, at, outer, lo, inner=None, start=0):
        """Count one family's cases at one outer value (m, or k for the row
        prefix) over the slots of ``at`` whose value (k, or m) is lo or
        more: the j-th right side is at the inner parameter start + j."""
        lhs, rhs_sides = sides
        prefix = identity_id == ALTERNATING_ROW_PREFIX
        (outer_sorted, outer_range), (slot_sorted, slot_range) = \
            ((ks, k_values), (ms, m_values)) if prefix else ((ms, m_values), (ks, k_values))
        cases = (bisect_right(outer_sorted, outer) - bisect_left(outer_sorted, outer)) \
            * (len(slot_sorted) - bisect_left(slot_sorted, lo))
        report.skipped -= cases
        report.total += cases * len(rhs_sides)
        report.passed += cases * len(rhs_sides)
        w, ones, values = at.width, at.ones, at.values
        first = bisect_left(values, lo)
        off, keep = ones << w - 1, (ones << w) - ones >> first * w << first * w
        want = off & keep
        if identity_id == FACTORIAL_DOMINANCE:  # l > r: the top bit of l - r - 1 + 2^(W-1)
            biased, test = lhs + off - ones, want
        else:
            biased, test = lhs + off, keep
        for value, rhs in enumerate(rhs_sides, start):
            bad = (biased - rhs) & test ^ want  # nonzero in each failing slot
            last = None
            while bad:
                slot = (bad.bit_length() - 1) // w
                bad &= (1 << slot * w) - 1
                point = values[slot]
                if point == last:
                    continue  # a repeated m of the row prefix, reported at one slot
                last = point
                here = [i for i, v in enumerate(outer_range) if v == outer]
                there = [j for j, v in enumerate(slot_range) if v == point]
                report.passed -= len(here) * len(there)
                report.failed += len(here) * len(there)
                m, k = (point, outer) if prefix else (outer, point)
                params = {"k": k, "m": m} if identity_id == HOCKEY_STICK else {"m": m, "k": k}
                if inner:
                    params[inner] = value
                case = IdentityCase(identity_id, params, _slot(lhs, slot, w), _slot(rhs, slot, w),
                                    False)
                family = IDENTITY_IDS.index(identity_id)
                for i in here:
                    for j in there:
                        failures.append((j, i, family, value, case) if prefix
                                        else (i, j, family, value, case))

    if k_top >= 1 and m_top >= 0:
        columns = _Columns(band, _table(k_top, m_top + 1))
        m_run = sorted(set(ms[bisect_left(ms, 0):]), reverse=True)
        for m in m_run:
            at = _shared(m, k_top, columns)
            # shift family and its closed endpoint share the left side: k >= 1
            lhs, rhs = _convolution(m, at)
            tally(CONVOLUTION_SHIFT_FAMILY, (lhs, rhs[:-1]), at, m, 1, "a")
            tally(ALTERNATING_CONVOLUTION_CLOSED, (lhs, rhs[-1:]), at, m, 1)
            # hockey stick, the weighted family and its closed endpoint: k >= 2
            if k_top >= 2 and m >= 1:
                tally(HOCKEY_STICK, _hockey_stick(m, at), at, m, 2)
                if m >= 3:
                    tally(WEIGHTED_SHIFT_FAMILY, _weighted_shift(m, at), at, m, 2, "a", 1)
                tally(WEIGHTED_CONVOLUTION_CLOSED, _weighted_convolution(m, at), at, m, 2)
        # factorial dominance, k > m+1 and all 0 <= n <= m, once the other
        # families are done: its left sides ask for the widest slots
        for m in m_run:
            if m + 2 > k_top:
                continue
            at = _dominance(m, k_top, columns)
            tally(FACTORIAL_DOMINANCE, _factorial_dominance(m, at), at, m, m + 2, "n")
    # alternating prefix: uses k as the prefix length, 0 <= k <= m-1
    zero, end = bisect_left(ks, 0), bisect_left(ks, m_top)
    if zero < end:
        at = _prefix(ks[end - 1], ms[bisect_right(ms, ks[zero]):], band)
        for k in sorted(set(ks[zero:end])):
            tally(ALTERNATING_ROW_PREFIX, _alternating_row_prefix(k, at), at, k, k + 1)
    failures.sort(key=itemgetter(0, 1, 2, 3))
    report.failures = list(map(itemgetter(4), failures))
    return report
