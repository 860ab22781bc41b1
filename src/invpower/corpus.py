"""Test functions with analytically known large-x behaviour.

Every corpus function is a finite sum of shifted reciprocals

    f(x) = offset + sum_i  weight_i / (x + shift_i),

which keeps three things computable in closed form: exact Taylor
coefficients at any non-pole center, the true limits (q0, q1) at
infinity, and the analyticity radius of the transplanted function
v(t) = f(1/t + x0 - 1).  The expansion takes exact parameters and an
exact center only; float mode rounds the exact coefficients.  That
radius is the sufficient condition the convergence theory asks for
(radius > 2); it is reported, never enforced, because the coefficient
formulas demonstrably converge for some functions that violate it
(x/(x+1) expanded at 1 being the shipped example).

Mobius quotients (a*x + b)/(c*x + d) with c != 0 are accepted and
normalized to that shape when they are built.

Coefficient files are JSON with every scalar carried as a string
("p/q" or decimal), so exact values survive a save/load round trip
bit for bit.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import CoefficientFileError, PoleError
from .scalar import Scalar
from .series import TaylorSeries

# Most entries a coefficient file may hold; the count is checked before any
# entry is parsed, so an oversized file costs no parsing.
MAX_FILE_COEFFS = 100_000


def _scalar(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar.rational(x)


@dataclass(frozen=True)
class ShiftedReciprocal:
    """f(x) = offset + weight / (x + shift)."""

    offset: Scalar
    weight: Scalar
    shift: Scalar


@dataclass(frozen=True)
class TailSum:
    """A finite sum of shifted-reciprocal terms."""

    terms: tuple[ShiftedReciprocal, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("tail sum needs at least one term")


CorpusFunction = Union[ShiftedReciprocal, TailSum]


def shifted_reciprocal(offset, weight, shift) -> ShiftedReciprocal:
    return ShiftedReciprocal(_scalar(offset), _scalar(weight), _scalar(shift))


def mobius(a, b, c, d) -> ShiftedReciprocal:
    """(a*x + b) / (c*x + d) with c != 0, as a/c + ((b*c - a*d)/c**2) / (x + d/c)."""
    a, b, c, d = map(_scalar, (a, b, c, d))
    if c.is_zero:
        raise ValueError("mobius quotient needs a degree-1 denominator (c != 0)")
    return ShiftedReciprocal(a / c, (b * c - a * d) / (c * c), d / c)


def tail_sum(*terms: ShiftedReciprocal) -> TailSum:
    return TailSum(tuple(terms))


def as_tail_terms(f: CorpusFunction) -> tuple[ShiftedReciprocal, ...]:
    """Normal form: every corpus function as a sum of shifted reciprocals."""
    if isinstance(f, ShiftedReciprocal):
        return (f,)
    if isinstance(f, TailSum):
        return f.terms
    raise TypeError(f"not a corpus function: {f!r}")


def evaluate_at(f: CorpusFunction, x: Scalar) -> Scalar:
    result = Scalar.rational(0)
    for t in as_tail_terms(f):
        result = result + t.offset
        if not t.weight.is_zero:
            base = x + t.shift
            if base.is_zero:
                raise PoleError(f"pole at x = {x}")
            result = result + t.weight / base
    return result


def known_asymptote(f: CorpusFunction) -> tuple[Scalar, Scalar]:
    """The exact limit at infinity and the exact 1/x coefficient."""
    q0 = Scalar.rational(0)
    q1 = Scalar.rational(0)
    for t in as_tail_terms(f):
        q0 = q0 + t.offset
        q1 = q1 + t.weight
    return q0, q1


def hypothesis_radius(f: CorpusFunction, x0: Scalar) -> Scalar | None:
    """Analyticity radius of v(t) = f(1/t + x0 - 1) about t = 0.

    Each weighted term puts a pole of v at t = -1/(shift + x0 - 1); the
    radius is the distance to the nearest one.  ``None`` means no finite
    pole, i.e. unbounded radius.
    """
    radius: Scalar | None = None
    for t in as_tail_terms(f):
        if t.weight.is_zero:
            continue
        offset = t.shift + x0 - 1
        if offset.is_zero:
            continue
        candidate = 1 / abs(offset)
        if radius is None or candidate < radius:
            radius = candidate
    return radius


@dataclass(frozen=True)
class HypothesisReport:
    """Radius of the transplanted function (``None``: unbounded) and
    whether it clears the sufficient bound (> 2).  Informational only."""

    radius: Scalar | None

    @property
    def satisfied(self) -> bool:
        return self.radius is None or self.radius > 2

    @property
    def radius_text(self) -> str:
        return "unbounded" if self.radius is None else str(self.radius)


def _exact_taylor(terms: tuple[ShiftedReciprocal, ...], x0: Scalar, n: int) -> tuple[Scalar, ...]:
    """c_0..c_{n-1} of exact terms about an exact x0.  With weight u/v and
    base x0 + shift = alpha/beta, c_k = (-1)**k u beta**(k+1) / (v alpha**(k+1)):
    the numerator and denominator are walked on ints by *(-beta) and
    *alpha, and each term's c_k is one ``Fraction``."""
    coeffs = [Fraction(0)] * n
    for t in terms:
        coeffs[0] += t.offset.value
        if t.weight.is_zero:
            continue
        base = x0.value + t.shift.value
        if not base:
            raise PoleError(f"expansion center x0 = {x0} is a pole")
        alpha, beta = base.numerator, base.denominator
        num = t.weight.value.numerator * beta
        den = t.weight.value.denominator * alpha
        coeffs[0] += Fraction(num, den)
        for k in range(1, n):
            num *= -beta
            den *= alpha
            coeffs[k] += Fraction(num, den)
    return tuple(Scalar(c, True) for c in coeffs)


def taylor_coeffs(f: CorpusFunction, x0: Scalar, n: int) -> TaylorSeries:
    """Coefficients c_0..c_{n-1} of f about x0.

    Per term, c_0 = offset + weight/(x0+shift) and
    c_k = weight * (-1)**k / (x0+shift)**(k+1), computed exactly by
    :func:`_exact_taylor`.  An inexact x0, offset, weight or shift (only
    the Python API builds one) is rejected, naming the field; float mode
    rounds the exact series (:meth:`TaylorSeries.to_inexact`).
    """
    if n < 1:
        raise ValueError(f"need at least one coefficient, got n={n}")
    terms = as_tail_terms(f)
    for name, value in (("x0", x0), *((field, getattr(t, field)) for t in terms
                                       for field in ("offset", "weight", "shift"))):
        if not value.exact:
            raise ValueError(f"{name} must be exact, got {value}")
    return TaylorSeries(x0, _exact_taylor(terms, x0, n), radius_hint=hypothesis_radius(f, x0))


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


@dataclass(frozen=True)
class CorpusEntry:
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
        "coeffs": [str(c) for c in series.coeffs],
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


def load_coefficient_file(path: str, precision: int = 64) -> TaylorSeries:
    """Read a coefficient file; exact files parse to exact rationals.

    ``precision`` applies only when the file declares ``"exact": false``.
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

    def parse(field: str, text) -> Scalar:
        if not isinstance(text, str):
            raise CoefficientFileError(
                f"{path}: field {field}: scalars must be strings, got {type(text).__name__}")
        try:
            return Scalar.parse(text, exact=exact, precision=precision)
        except ValueError as exc:
            hint = "; declare \"exact\": false to load as floats" if exact and _float_parses(
                text, precision) else ""
            raise CoefficientFileError(f"{path}: field {field}: {exc}{hint}") from None

    center = parse("'center'", raw["center"])
    coeffs = tuple(parse(f"'coeffs'[{i}]", t) for i, t in enumerate(raw["coeffs"]))
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
    return TaylorSeries(center, coeffs, radius_hint=radius)
