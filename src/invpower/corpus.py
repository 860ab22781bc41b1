"""Test functions with analytically known large-x behaviour.

Every corpus function is a finite sum of shifted reciprocals

    f(x) = offset + sum_i  weight_i / (x + shift_i),

which keeps three things computable in closed form: exact Taylor
coefficients at any non-pole center, the true limits (q0, q1) at
infinity, and the analyticity radius of the transplanted function
v(t) = f(1/t + x0 - 1).  Parameters and points are exact: a term
rejects an inexact parameter when it is built, the expansion and the
radius reject an inexact center, each naming the field, and the
evaluation takes its point as an integer pair (num, den > 0).  So all
of them compute exactly: the radius on ``Fraction``s, the evaluation
on that pair to another, the expansion on integer numerators over one
denominator, which become the exact series' ``values`` and ``den``;
float mode rounds the exact coefficients.  That radius is the
sufficient condition the convergence theory asks for (radius > 2); it
is reported, never enforced, because the coefficient formulas
demonstrably converge for some functions that violate it (x/(x+1)
expanded at 1 being the shipped example).

Mobius quotients (a*x + b)/(c*x + d) with c != 0 are accepted and
normalized to that shape when they are built.

Coefficient files are JSON with every scalar carried as a string
("p/q" or decimal), so exact values survive a save/load round trip
bit for bit.  An exact file's entries are read to integer pairs by
:func:`~invpower.scalar.parse_ratio`, with no ``Fraction`` for a plain
"p/q" or integer, and become numerators over their common denominator.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import partial
from math import lcm
from typing import NamedTuple, Union

from .errors import CoefficientFileError, PoleError
from .scalar import (Scalar, held_renderer, parse_ratio, ratio_text, require_exact,
                     require_point)
from .series import TaylorSeries, over_common_denominator

# Most entries a coefficient file may hold; the count is checked before any
# entry is parsed, so an oversized file costs no parsing.
MAX_FILE_COEFFS = 100_000


def _scalar(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar.rational(x)


class ShiftedReciprocal(NamedTuple("ShiftedReciprocal",
                                   [("offset", Scalar), ("weight", Scalar), ("shift", Scalar)])):
    """f(x) = offset + weight / (x + shift), every parameter exact."""

    __slots__ = ()

    def __new__(cls, offset: Scalar, weight: Scalar, shift: Scalar):
        for field, value in zip(cls._fields, (offset, weight, shift)):
            require_exact(field, value)
        return super().__new__(cls, offset, weight, shift)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


class TailSum(NamedTuple("TailSum", [("terms", tuple)])):
    """A finite sum of shifted-reciprocal terms."""

    __slots__ = ()

    def __new__(cls, terms: tuple[ShiftedReciprocal, ...]):
        if not terms:
            raise ValueError("tail sum needs at least one term")
        return super().__new__(cls, terms)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


CorpusFunction = Union[ShiftedReciprocal, TailSum]


def shifted_reciprocal(offset, weight, shift) -> ShiftedReciprocal:
    return ShiftedReciprocal(_scalar(offset), _scalar(weight), _scalar(shift))


def mobius(a, b, c, d) -> ShiftedReciprocal:
    """(a*x + b) / (c*x + d) with c != 0, as a/c + ((b*c - a*d)/c**2) / (x + d/c)."""
    a, b, c, d = (require_exact(name, _scalar(v)) for name, v in zip("abcd", (a, b, c, d)))
    if not c:
        raise ValueError("mobius quotient needs a degree-1 denominator (c != 0)")
    return ShiftedReciprocal(Scalar(a / c), Scalar((b * c - a * d) / (c * c)), Scalar(d / c))


def tail_sum(*terms: ShiftedReciprocal) -> TailSum:
    return TailSum(tuple(terms))


def as_tail_terms(f: CorpusFunction) -> tuple[ShiftedReciprocal, ...]:
    """Normal form: every corpus function as a sum of shifted reciprocals."""
    if isinstance(f, ShiftedReciprocal):
        return (f,)
    if isinstance(f, TailSum):
        return f.terms
    raise TypeError(f"not a corpus function: {f!r}")


def evaluate_at(f: CorpusFunction, num: int, den: int) -> tuple[int, int]:
    """f(x) at x = num/den, num an int and den a positive int (else
    rejected by name), as an integer pair (p, q), q > 0, not in lowest
    terms; raises :class:`PoleError` at a pole.  A
    term u/v + (w/z)/(x + r/s) is (u*z*b + w*den*s*v)/(v*z*b) for
    b = num*s + r*den, added to the sum by one cross-multiplication."""
    require_point(num, den)
    p, q = 0, 1
    for t in as_tail_terms(f):
        (u, v), (w, z), (r, s) = (c.value.as_integer_ratio() for c in t)
        if w:
            b = num * s + r * den
            if not b:
                raise PoleError(f"pole at x = {ratio_text(num, den)}")
            u, v = u * z * b + w * den * s * v, v * z * b
        p, q = p * v + u * q, q * v
    return (p, q) if q > 0 else (-p, -q)


def known_asymptote(f: CorpusFunction) -> tuple[Scalar, Scalar]:
    """The exact limit at infinity and the exact 1/x coefficient."""
    terms = as_tail_terms(f)
    return Scalar(sum(t.offset.value for t in terms)), Scalar(sum(t.weight.value for t in terms))


def hypothesis_radius(f: CorpusFunction, x0: Scalar) -> Scalar | None:
    """Analyticity radius of v(t) = f(1/t + x0 - 1) about t = 0, for an
    exact x0.

    Each weighted term puts a pole of v at t = -1/(shift + x0 - 1); the
    radius is the distance to the nearest one, 1 over the largest
    |shift + x0 - 1|.  ``None`` means no finite pole, i.e. unbounded
    radius.
    """
    x0v = require_exact("x0", x0)
    largest = max((abs(t.shift.value + x0v - 1) for t in as_tail_terms(f) if t.weight.value),
                  default=0)
    return Scalar(1 / largest) if largest else None


class HypothesisReport(NamedTuple):
    """Radius of the transplanted function (``None``: unbounded) and
    whether it clears the sufficient bound (> 2).  Informational only."""

    radius: Scalar | None

    @property
    def satisfied(self) -> bool:
        return self.radius is None or self.radius > 2

    @property
    def radius_text(self) -> str:
        return "unbounded" if self.radius is None else str(self.radius)


def _exact_taylor(terms: tuple[ShiftedReciprocal, ...], x0: Scalar,
                  n: int) -> tuple[list[int], int]:
    """c_0..c_{n-1} of exact terms about an exact x0, as integer
    numerators over a common denominator D.  With weight u/v and base
    x0 + shift = alpha/beta, alpha = s*a (a > 0, s = +-1), a term's
    c_k = (-1)**k u beta**(k+1) / (v alpha**(k+1)) is the numerator
    u s beta (-s beta)**k a**(n-1-k) over T = v a**n.  D is the lcm of
    every T and every offset's denominator, and a term's numerators over
    D are a walk by *(-s beta) from (D/T) u s beta, times the powers of
    a from a**(n-1) down: all on ints, with no ``Fraction`` per k."""
    bases = []
    for t in terms:
        if t.weight.is_zero:
            continue
        base = x0.value + t.shift.value
        if not base:
            raise PoleError(f"expansion center x0 = {x0} is a pole")
        bases.append((t.weight.value, base))
    den = lcm(*(t.offset.value.denominator for t in terms),
              *(u.denominator * abs(b.numerator) ** n for u, b in bases))
    nums = [0] * n
    for t in terms:
        nums[0] += t.offset.value.numerator * (den // t.offset.value.denominator)
    for u, b in bases:
        a, sb = abs(b.numerator), b.denominator if b > 0 else -b.denominator
        powers = [1]
        for _ in range(n - 1):
            powers.append(powers[-1] * a)
        p = den // (u.denominator * powers[-1] * a) * u.numerator * sb
        for k, power in enumerate(reversed(powers)):
            nums[k] += p * power
            p *= -sb
    return nums, den


def taylor_coeffs(f: CorpusFunction, x0: Scalar, n: int) -> TaylorSeries:
    """Coefficients c_0..c_{n-1} of f about x0.

    Per term, c_0 = offset + weight/(x0+shift) and
    c_k = weight * (-1)**k / (x0+shift)**(k+1), computed exactly as
    integer numerators over one denominator by :func:`_exact_taylor`.
    An inexact x0 (only the Python API builds one) is rejected by name;
    float mode rounds the exact series (:meth:`TaylorSeries.to_inexact`).
    """
    if n < 1:
        raise ValueError(f"need at least one coefficient, got n={n}")
    require_exact("x0", x0)
    nums, den = _exact_taylor(as_tail_terms(f), x0, n)
    return TaylorSeries(x0, tuple(nums), den=den, radius_hint=hypothesis_radius(f, x0))


def describe(f: CorpusFunction) -> str:
    parts = []
    for t in as_tail_terms(f):
        if not t.offset.is_zero or t.weight.is_zero:
            parts.append(str(t.offset))
        if not t.weight.is_zero:
            denom = "x" if t.shift.is_zero else f"x + {t.shift}"
            parts.append(f"({t.weight})/({denom})")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# shipped corpus and selector grammar
# ---------------------------------------------------------------------------

NAMED_FUNCTIONS: dict[str, CorpusFunction] = {
    "one-over-x": shifted_reciprocal(0, 1, 0),
    "reciprocal-quarter": shifted_reciprocal(0, 1, Fraction(1, 4)),
    "x-over-x-plus-1": mobius(1, 0, 1, 1),
}


class CorpusEntry(NamedTuple):
    name: str
    function: CorpusFunction
    center: Scalar


SHIPPED_CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("one-over-x", NAMED_FUNCTIONS["one-over-x"], Scalar.rational(1)),
    CorpusEntry("one-over-x", NAMED_FUNCTIONS["one-over-x"], Scalar.rational(5, 4)),
    CorpusEntry("reciprocal-quarter", NAMED_FUNCTIONS["reciprocal-quarter"], Scalar.rational(1)),
    CorpusEntry("x-over-x-plus-1", NAMED_FUNCTIONS["x-over-x-plus-1"], Scalar.rational(1)),
    CorpusEntry("mobius-2-3-1-2", mobius(2, 3, 1, 2), Scalar.rational(1)),
    CorpusEntry("mobius-2-3-1-2", mobius(2, 3, 1, 2), Scalar.rational(3, 2)),
)


# family name -> (constructor, its parameters as ``--params`` lists them)
_FAMILIES = {"mobius": (mobius, "a,b,c,d"),
             "shifted-reciprocal": (ShiftedReciprocal, "offset,weight,shift")}


def _build(make, entries: list, flag: str) -> CorpusFunction:
    try:
        return make(*entries)
    except ValueError as exc:  # a mobius quotient with c = 0
        raise ValueError(f"bad {flag}: {exc}") from None


def resolve_function(selector: str, params: str | None = None,
                     flag: str = "--corpus") -> CorpusFunction:
    """Turn a CLI selector into a corpus function.

    Accepted forms: a registered name ("one-over-x"), a dashed mobius
    pattern of four nonnegative ASCII integers ("mobius-2-3-1-2"), or a
    family name plus explicit parameters ("mobius" with "2,3,1,2";
    "shifted-reciprocal" with "c,a,b", rationals allowed).  Errors in the
    parameters name --params, and errors in a family name or a mobius
    pattern name ``flag``, the CLI flag the selector came from.
    """
    family = _FAMILIES.get(selector)
    if params is not None:
        try:
            values = [Scalar.parse(p) for p in params.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad --params: {exc}") from None
        if family is None:
            raise ValueError(f"--params is only valid with 'mobius' or 'shifted-reciprocal', got {selector!r}")
        make, names = family
        arity = names.count(",") + 1
        if len(values) != arity:
            raise ValueError(f"bad --params: {selector} takes {arity} parameters: {names}")
        return _build(make, values, "--params")
    if family is not None:
        raise ValueError(f"bad {flag}: {selector} needs --params {family[1]}")
    if selector in NAMED_FUNCTIONS:
        return NAMED_FUNCTIONS[selector]
    if selector.startswith("mobius-"):
        pieces = selector.split("-")[1:]
        if len(pieces) == 4 and all(p.isdigit() for p in pieces):
            pattern = f"bad {flag}: mobius-<a>-<b>-<c>-<d> entries"
            if not selector.isascii():
                raise ValueError(f"{pattern} take ASCII digits only, got {selector!r}")
            try:
                entries = [int(p) for p in pieces]
            except ValueError:  # more digits than int() converts from a string
                raise ValueError(f"{pattern} take at most {sys.get_int_max_str_digits()} "
                                 "digits") from None
            return _build(mobius, entries, flag)
    raise ValueError(
        f"unknown corpus function {selector!r}; known names: "
        + ", ".join(sorted(NAMED_FUNCTIONS)) + ", mobius-<a>-<b>-<c>-<d>")


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------


def coefficient_file_payload(series: TaylorSeries, description: str = "") -> dict:
    """The JSON object a coefficient file holds, scalars as strings."""
    radius = series.radius_hint
    return {
        "center": str(series.center),
        "coeffs": list(map(held_renderer(series.den, series.float_precision), series.values)),
        "exact": series.is_exact,
        "meta": {
            "hypothesis_radius": str(radius) if radius is not None else None,
            "description": description,
        },
    }


def save_coefficient_file(series: TaylorSeries, path: str, description: str = "") -> None:
    """Write a series as JSON; all scalars as strings, LF line endings."""
    payload = coefficient_file_payload(series, description)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _float_parses(text: str, precision: int) -> bool:
    """Whether a float file could hold ``text``: the exact-parse error
    suggests float mode only then."""
    try:
        Scalar.parse(text, exact=False, precision=precision)
    except ValueError:
        return False
    return True


def load_coefficient_file(path: str, precision: int = 64,
                          count: int | None = None) -> TaylorSeries:
    """Read a coefficient file; exact files parse to exact rationals.

    ``precision`` applies only when the file declares ``"exact": false``.
    Every entry is parsed and checked, but with ``count`` the series
    keeps only the first ``count`` coefficients: an exact series holds
    every numerator over the common denominator of all it keeps, and
    spare entries such as 1/k for k up to 20,000 would make that
    denominator 29,000 bits wide.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CoefficientFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except OSError as exc:
        raise CoefficientFileError(f"{path}: {exc}") from None

    if not isinstance(raw, dict):
        raise CoefficientFileError(f"{path}: top level must be an object")
    for field in ("center", "coeffs"):
        if field not in raw:
            raise CoefficientFileError(f"{path}: missing field {field!r}")
    exact = raw.get("exact", True)
    if not isinstance(exact, bool):
        raise CoefficientFileError(f"{path}: field 'exact' must be true or false")
    if not isinstance(raw["coeffs"], list) or not raw["coeffs"]:
        raise CoefficientFileError(f"{path}: field 'coeffs' must be a nonempty list")
    if len(raw["coeffs"]) > MAX_FILE_COEFFS:
        raise CoefficientFileError(
            f"{path}: field 'coeffs' has {len(raw['coeffs'])} entries, "
            f"more than the limit of {MAX_FILE_COEFFS}")

    scalar = partial(Scalar.parse, exact=exact, precision=precision)

    def parse(field: str, text, read=scalar):
        if not isinstance(text, str):
            raise CoefficientFileError(
                f"{path}: field {field}: scalars must be strings, got {type(text).__name__}")
        try:
            return read(text)
        except ValueError as exc:
            hint = "; declare \"exact\": false to load as floats" if exact and _float_parses(
                text, precision) else ""
            raise CoefficientFileError(f"{path}: field {field}: {exc}{hint}") from None

    center = parse("'center'", raw["center"])
    # an exact file's entries as integer pairs, by the exact grammar of Scalar.parse
    entries = [parse(f"'coeffs'[{i}]", t, parse_ratio if exact else scalar)
               for i, t in enumerate(raw["coeffs"])][:count]
    if exact:
        values, den = over_common_denominator(entries)
    else:
        values, den = tuple(x.value for x in entries), None
    meta = raw.get("meta", {})
    if not isinstance(meta, dict):
        raise CoefficientFileError(f"{path}: field 'meta' must be an object")
    if not isinstance(meta.get("description", ""), str):
        raise CoefficientFileError(f"{path}: field 'meta.description' must be a string")
    radius = None
    if meta.get("hypothesis_radius") is not None:
        radius = parse("'meta.hypothesis_radius'", meta["hypothesis_radius"])
        if radius <= 0:
            raise CoefficientFileError(f"{path}: field 'meta.hypothesis_radius' must be "
                                       f"positive, got {meta['hypothesis_radius']!r}")
    return TaylorSeries(center, values, den=den, radius_hint=radius)
