"""Convergence tables and limit estimation for the two leading terms.

For each dimension m the leading approximant coefficients are

    q0(m) = sum_{n=0..m} C(m,n) c_n
    q1(m) = sum_{n=1..m} ( C(m,n+1) - m*C(m,n) ) c_n            (m >= 1)

and, for a function with the right large-x behaviour, q0(m) -> q0 and
q1(m) -> q1 with f(x) = q0 + q1/x + O(1/x**2).  Only these two rows are
evaluated here; the checks of the paper's claims about them (center
invariance, bounded scaled remainder) are test oracles, not package code.

Exact series read both rows off the approximant's one integer kernel,
:func:`~invpower.approximant.exact_convolution` (derived in
:mod:`invpower.approximant`): with the binomial convolution d_N,
q0(m) = sum_{N<=m} d_N and q1(m) = -sum_{N<=m} N*d_N, so the deltas are
|d_m| and m*|d_m|, and the whole table costs one O(M**2) convolution.

Float series keep the literal per-row sums of m+1 binomial-weighted
terms, all rows in one pass of the approximant's float kernel,
:func:`~invpower.approximant.float_dots`, whose docstring says why its
bits equal the ``Scalar`` literal sums; every delta is one correctly
rounded subtraction, and the cancellation warning is that of the
formulas.  The weights C(m, s) come from row m-1 of Pascal's triangle by
adjacent additions, and the q1 weights from row m+1 by one product.
Either table keeps its kernel's values (integers over D, or raw mpmath
tuples: :func:`~invpower.scalar.held_reader`) until a row is read.

No convergence rate is known in general, so estimation is deliberately
plain: the estimate is the last row and the error indicator is the last
step-to-step delta.  The convergence flag demands the last TWO deltas
below tolerance, which guards against a single accidental agreement of an
oscillating sequence; it is a heuristic, not a bound.  No extrapolation
(Aitken, Richardson, ...) is applied -- users who want acceleration can
run it on the emitted table.
"""

from __future__ import annotations

import operator
import warnings
from itertools import accumulate
from typing import NamedTuple

from .approximant import exact_convolution, float_dots, rounded_distance
from .scalar import (
    CancellationWarning,
    Scalar,
    cancellation_bits,
    cancellation_hazard,
    held_reader,
    significand_bits,
)
from .series import TaylorSeries


class ConvergenceRow(NamedTuple):
    m: int
    q0: Scalar
    q1: Scalar | None
    delta0: Scalar | None
    delta1: Scalar | None


class ConvergenceTable:
    """Rows m = 0..m_max of the two leading coefficients with deltas.

    ``values[m]`` is row m's (q0, q1, delta0, delta1), None where the row
    has none, held as :func:`~invpower.scalar.held_reader` reads it: a
    numerator over ``den`` in an exact table, a raw mpmath tuple of width
    ``precision`` in a float one.  Rows are made when read."""

    def __init__(self, values: list[tuple], den: int | None = None,
                 precision: int | None = None) -> None:
        if (den is None) == (precision is None):
            raise ValueError(f"den={den}, precision={precision}: a table takes den exactly "
                             "when it has no float precision")
        self.values, self.den, self.precision = values, den, precision

    @property
    def m_max(self) -> int:
        return len(self.values) - 1

    def row(self, m: int) -> ConvergenceRow:
        m = range(len(self.values))[m]
        read = held_reader(self.den, self.precision)
        return ConvergenceRow(m, *(v if v is None else read(v) for v in self.values[m]))

    @property
    def rows(self) -> tuple[ConvergenceRow, ...]:
        return tuple(map(self.row, range(len(self.values))))

    def __eq__(self, other):
        if not isinstance(other, ConvergenceTable):
            return NotImplemented
        return self.rows == other.rows


class AsymptoticEstimate(NamedTuple):
    q0: Scalar
    q1: Scalar | None
    error_indicator_q0: Scalar | None
    error_indicator_q1: Scalar | None
    q0_converged: bool
    q1_converged: bool
    m_used: int


def _float_weights(m_max: int):
    """The float table's weight rows in order: C(m, s) for q0(m), and for
    m >= 1 then C(m, s+1) - m*C(m, s) for q1(m), which is
    -s*C(m+1, s+1) (zero at s = 0), as (m - s)*C(m, s) = (s+1)*C(m, s+1):
    one C-level product of row m+1 of Pascal's triangle, which comes
    from row m by adjacent additions.  No weight has more than
    m_max + bit length of m_max + 1 bits: C(m, s) <= 2**m, and
    |C(m, s+1) - m*C(m, s)| <= m * 2**m."""
    row = [1]
    for m in range(m_max + 1):
        yield row
        row = [1, *map(operator.add, row, row[1:]), 1]
        if m:
            yield list(map(operator.mul, range(0, -m - 1, -1), row[1:]))


def _float_values(series: TaylorSeries, m_max: int) -> list[tuple]:
    """Raw mpmath rows of a float series by the rounded literal row sums,
    in one kernel pass; each delta is one rounded integer subtraction."""
    bits = significand_bits(series.float_precision)
    sums = float_dots(series.values[:m_max + 1], _float_weights(m_max), bits,
                      m_max + m_max.bit_length() + 1)
    q = list(zip([sums[0], *sums[1::2]], [None, *sums[2::2]]))

    def delta(x: tuple | None, prev: tuple | None) -> tuple | None:
        return None if prev is None else rounded_distance(x, prev, bits)

    return [(q0, q1, delta(q0, p0), delta(q1, p1))
            for (q0, q1), (p0, p1) in zip(q, [(None, None), *q])]


def convergence_table(series: TaylorSeries, m_max: int) -> ConvergenceTable:
    """Rows m = 0..m_max of the two leading coefficients with deltas."""
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    series.require_coefficients(m_max + 1)
    prec = series.float_precision
    if prec is None:
        d, den = exact_convolution(series, m_max)
        n0, n1 = accumulate(d), accumulate(-m * dm for m, dm in enumerate(d))
        values = [(a, b if m else None, abs(dm) if m else None, abs(m * dm) if m >= 2 else None)
                  for m, (dm, a, b) in enumerate(zip(d, n0, n1))]
        return ConvergenceTable(values, den)
    if cancellation_hazard(m_max, prec):
        warnings.warn(CancellationWarning(
            f"convergence table to dimension {m_max} at {prec}-bit floats: "
            f"binomial weights consume ~{cancellation_bits(m_max)} bits and "
            f"cancellation will dominate; use exact mode"))
    return ConvergenceTable(_float_values(series, m_max), precision=prec)


def estimate_limits(table: ConvergenceTable, tol: Scalar) -> AsymptoticEstimate:
    """Read limits off the table: last row value, last delta as indicator.

    A component is flagged converged only when the deltas of the last two
    rows are both within tolerance, so only those two rows are read; a
    single row can never claim convergence.  A table too short for that
    (under three rows) is read all the same: the last row, its deltas
    (``None`` where a row has none) and both flags false.
    """
    last = table.row(-1)
    tail = [table.row(-2), last] if table.m_max else []
    return AsymptoticEstimate(
        q0=last.q0,
        q1=last.q1,
        error_indicator_q0=last.delta0,
        error_indicator_q1=last.delta1,
        q0_converged=bool(tail) and all(r.delta0 is not None and r.delta0 <= tol for r in tail),
        q1_converged=bool(tail) and all(r.delta1 is not None and r.delta1 <= tol for r in tail),
        m_used=table.m_max,
    )
