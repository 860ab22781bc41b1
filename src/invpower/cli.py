"""Command-line interface.

Four subcommands:

* ``estimate``           -- convergence table of the two leading
                            coefficients plus a limit summary;
* ``approximate``        -- one approximant: coefficients, evaluations,
                            and (for corpus sources) exact residuals;
* ``verify-identities``  -- exhaustive binomial identity suite;
* ``corpus``             -- write coefficient files for shipped or
                            parametric test functions.

Output is UTF-8 with LF line endings, CSV (header row, '#' summary
comments at the end) or JSON.  Exact rationals render as "p/q" in JSON
and as budgeted decimals in CSV.  Exit codes: 0 success, 1 operational
failure (bad flags, I/O, parse), 2 convergence-policy failure under
``--require-converged``.  In exact mode identical invocations produce
byte-identical output.

``main`` parses through one full parser, built on its first call and
reused.  An exact run imports neither mpmath nor the identity suite.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import warnings
from typing import Callable, Sequence

from .approximant import coeffs_closed_form, evaluate
from .asymptotics import convergence_table, estimate_limits
from .corpus import (
    MAX_FILE_COEFFS,
    CorpusFunction,
    HypothesisReport,
    coefficient_file_payload,
    describe,
    evaluate_at,
    load_coefficient_file,
    resolve_function,
    taylor_coeffs,
)
from .errors import CoefficientFileError, PoleError
from .scalar import MIN_PRECISION, Scalar, held_renderer
from .series import TaylorSeries

K_GE_2_NOTE = (
    "coefficients q[k] for k >= 2 depend on the expansion center; "
    "only q[0] and q[1] estimate the large-x behaviour"
)


class CliError(Exception):
    """Operational failure; message goes to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # a value such as -3/7, -1e-3 or -1,2 is read as a negative number,
        # not an option: argparse's own pattern knows only -N and -N.N, and
        # no option of this CLI starts with a digit
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with status 2 on bad flags; this CLI reserves 2 for
    # the convergence policy, so route usage errors through CliError.
    def error(self, message):
        raise CliError(f"{self.prog}: {message}\n{self.format_usage()}".rstrip())


# ---------------------------------------------------------------------------
# rendering: each command builds its result once, as a JSON-shaped dict of
# named values written by the chosen format's cell renderer, and lays out
# the CSV lines from that same dict
# ---------------------------------------------------------------------------


def _json_cell(v):
    return str(v) if isinstance(v, Scalar) else v


def _csv_cell(digits: int, v):
    if isinstance(v, Scalar):
        return v.render_decimal(digits)
    if v is None:
        return ""
    return str(v).lower() if isinstance(v, bool) else str(v)


def _cell(args) -> Callable:
    """How one value is written: in JSON a Scalar as its str ("p/q" when
    exact), the rest as is; in CSV a Scalar as a decimal of ``--digits``
    significant digits, a flag as true/false, a missing value as ""."""
    if args.format == "json":
        return _json_cell
    return functools.partial(_csv_cell, args.digits)


def _held_cell(args, den: int | None, precision: int | None) -> Callable:
    """``_cell`` of a held value's ``Scalar`` (``scalar.held_reader``),
    without building it."""
    json_out = args.format == "json"
    text = held_renderer(den, precision, None if json_out else args.digits)
    missing = None if json_out else ""
    return lambda v: missing if v is None else text(v)


def _csv_table(fields: tuple[str, ...], records: list[dict]) -> list[str]:
    return [",".join(fields), *(",".join(r.values()) for r in records)]


def _csv_comments(record: dict, prefix: str = "") -> list[str]:
    return [f"# {prefix}{k}={v}" for k, v in record.items()]


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write(args, doc: dict, csv_lines: Callable[[], list[str]]) -> None:
    """``doc`` as JSON, or the CSV lines ``csv_lines()`` lays out from it."""
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = "\n".join(csv_lines()) + "\n"
    _emit(text, args.out)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


class _Size(argparse.Action):
    """Integer flag checked while the arguments are parsed.  A value above
    ``MAX_FILE_COEFFS``, the limit coefficient files have, is rejected by
    name before anything of that size is built or read at that width; a
    value below ``const``, when one is set, is a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if self.const is not None and value < self.const:
            parser.error(f"argument {option_string}: must be >= {self.const}, got {value}")
        if value > MAX_FILE_COEFFS:
            raise CliError(f"{option_string} must be <= {MAX_FILE_COEFFS}, got {value}")
        setattr(namespace, self.dest, value)


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--corpus", metavar="NAME", help="corpus function selector")
    src.add_argument("--coeffs", metavar="PATH", help="coefficient file (JSON)")
    p.add_argument("--params", metavar="LIST",
                   help="comma-separated parameters for parametric selectors")
    p.add_argument("--x0", metavar="RAT", default="1",
                   help="expansion center for corpus sources (default 1)")


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--precision", type=int, default=MIN_PRECISION, action=_Size,
                   help=f"float width in bits, >= {MIN_PRECISION} (default {MIN_PRECISION}): "
                        "float mode's width, and the width at which any mode reads a "
                        "float --coeffs file")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    p.add_argument("--digits", type=int, default=30, action=_Size, const=1,
                   help="significant digits for CSV rendering, >= 1 (default 30)")


def _add_estimate_flags(p: argparse.ArgumentParser) -> None:
    _add_source_flags(p)
    p.add_argument("--m-max", type=int, required=True, dest="m_max", action=_Size)
    p.add_argument("--tol", default="1e-9", help="convergence tolerance (default 1e-9)")
    _add_mode_flags(p)
    _add_output_flags(p)
    p.add_argument("--require-converged", action="store_true", dest="require_converged",
                   help="exit 2 unless every requested component converged")


def _add_approximate_flags(p: argparse.ArgumentParser) -> None:
    _add_source_flags(p)
    p.add_argument("--m", type=int, required=True, action=_Size, help="approximant dimension")
    p.add_argument("--eval", action="append", default=[], metavar="X", dest="eval_points",
                   help="evaluation point (repeatable; commas allowed)")
    _add_mode_flags(p)
    _add_output_flags(p)


def _add_verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m-max", type=int, default=25, dest="m_max", action=_Size)
    p.add_argument("--k-max", type=int, default=25, dest="k_max", action=_Size)
    _add_output_flags(p)


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fn", required=True, metavar="NAME", help="corpus function selector")
    p.add_argument("--params", metavar="LIST")
    p.add_argument("--x0", metavar="RAT", default="1")
    p.add_argument("--n", type=int, required=True, action=_Size,
                   help="number of coefficients")
    p.add_argument("--out", metavar="PATH", help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand, built from ``_SUBCOMMANDS``."""
    parser = _Parser(prog="invpower",
                     description="Estimate f(x) ~ q0 + q1/x from Taylor coefficients.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, add_flags, _) in _SUBCOMMANDS.items():
        add_flags(sub.add_parser(name, help=help_text))
    return parser


# ``main``'s parser, built on its first call and reused: parsing leaves no
# state in a parser, and ``build_parser()`` still returns a fresh one
_parser = functools.cache(build_parser)


def _parse_rational(text: str, what: str) -> Scalar:
    try:
        return Scalar.parse(text, exact=True)
    except ValueError as exc:
        raise CliError(f"bad {what}: {exc}") from None


def _corpus_series(selector: str, params: str | None, x0_text: str, n: int,
                   flag: str = "--corpus") -> tuple[TaylorSeries, CorpusFunction]:
    """The first n coefficients of a corpus function, and the function."""
    try:
        f = resolve_function(selector, params, flag)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if n < 1:  # only ``corpus --n`` can ask for none; a bad selector is reported first
        raise CliError("--n must be >= 1")
    x0 = _parse_rational(x0_text, "--x0")
    try:
        return taylor_coeffs(f, x0, n), f
    except PoleError as exc:
        raise CliError(str(exc)) from None


def _resolve_series(args, n_coeffs: int) -> tuple[TaylorSeries, CorpusFunction | None]:
    """Series from corpus selector or coefficient file, plus the source
    function when there is one (for residuals)."""
    if args.corpus is not None:
        return _corpus_series(args.corpus, args.params, args.x0, n_coeffs)
    try:
        # precision applies only to files declaring "exact": false, so an
        # exact file ignores it; a too-narrow width is the flag's fault
        series = load_coefficient_file(args.coeffs, precision=max(args.precision, MIN_PRECISION),
                                       count=n_coeffs)
    except CoefficientFileError as exc:
        raise CliError(str(exc)) from None
    if not series.is_exact:
        _check_precision(args)
    if len(series.values) < n_coeffs:
        raise CliError(
            f"{args.coeffs}: need {n_coeffs} coefficients, file has {len(series.values)}")
    return series, None


def _check_precision(args) -> None:
    if args.precision < MIN_PRECISION:
        raise CliError(f"--precision must be >= {MIN_PRECISION}, got {args.precision}")


def _maybe_float(series: TaylorSeries, args) -> TaylorSeries:
    if args.mode == "exact":
        return series
    _check_precision(args)
    return series.to_inexact(args.precision)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

_ROW_FIELDS = ("m", "q0", "q1", "delta0", "delta1")


def cmd_estimate(args) -> int:
    if args.m_max < 0:
        raise CliError("--m-max must be >= 0")
    tol = _parse_rational(args.tol, "--tol")
    if tol < 0:
        raise CliError(f"--tol must be >= 0, got {args.tol}")
    series, source = _resolve_series(args, args.m_max + 1)
    cell = _cell(args)
    # radius metadata, never enforced.  A corpus source always has a radius
    # (None: unbounded); in a file null may also mean none was recorded, so
    # nothing is reported for it
    report = HypothesisReport(series.radius_hint)
    hypothesis = ({} if source is None and report.radius is None
                  else {"radius": report.radius_text, "satisfied": cell(report.satisfied)})
    series = _maybe_float(series, args)
    table = convergence_table(series, args.m_max)
    est = estimate_limits(table, tol)
    value = _held_cell(args, table.den, table.precision)
    rows = [dict(zip(_ROW_FIELDS, (cell(m), *map(value, vs)))) for m, vs in enumerate(table.values)]
    summary = {k: cell(v) for k, v in {
        "q0": est.q0,
        "q1": est.q1,
        "q0_converged": est.q0_converged,
        "q1_converged": est.q1_converged,
        "q0_error_indicator": est.error_indicator_q0,
        "q1_error_indicator": est.error_indicator_q1,
        "m_used": est.m_used,
    }.items()}
    doc = {
        "command": "estimate",
        "mode": args.mode,
        "center": cell(series.center),
        "m_max": args.m_max,
        "tol": cell(tol),
        "rows": rows,
        "summary": summary,
    }
    if hypothesis:
        doc["hypothesis"] = hypothesis
    _write(args, doc, lambda: [*_csv_table(_ROW_FIELDS, rows), *_csv_comments(summary),
                               *_csv_comments(hypothesis, "hypothesis_")])

    if args.require_converged and not (est.q0_converged and est.q1_converged):
        return 2
    return 0


# ---------------------------------------------------------------------------
# approximate
# ---------------------------------------------------------------------------

_EVAL_FIELDS = ("x", "value", "residual", "error")


def _parse_eval_points(raw: list[str]) -> list[Scalar]:
    points = []
    for chunk in raw:
        for piece in chunk.split(","):
            piece = piece.strip()
            if piece:
                points.append(_parse_rational(piece, "--eval"))
    return points


def _evaluation(approx, source: CorpusFunction | None, x: Scalar) -> tuple:
    """(x, value, residual, error); a pole is reported there, not raised."""
    try:
        value = evaluate(approx, x)
    except PoleError:
        return x, None, None, "pole"
    residual = error = None
    if source is not None:
        try:
            residual = evaluate_at(source, x) - value
        except PoleError:
            error = "source pole"
    return x, value, residual, error


def cmd_approximate(args) -> int:
    if args.m < 0:
        raise CliError("--m must be >= 0")
    series, source = _resolve_series(args, args.m + 1)
    series = _maybe_float(series, args)
    approx = coeffs_closed_form(series, args.m)
    points = _parse_eval_points(args.eval_points)
    results = [_evaluation(approx, source, x) for x in points]

    cell = _cell(args)
    value = _held_cell(args, approx.den, approx.float_precision)
    coeffs = list(map(value, approx.values))
    evaluations = [dict(zip(_EVAL_FIELDS, map(cell, e))) for e in results]
    doc = {
        "command": "approximate",
        "mode": args.mode,
        "center": cell(series.center),
        "m": args.m,
        "coeffs": coeffs,
        "note": K_GE_2_NOTE,
        "evaluations": evaluations,
    }
    _write(args, doc, lambda: [
        *_csv_comments({"m": args.m, "center": doc["center"],
                        **{f"q[{k}]": q for k, q in enumerate(coeffs)}, "note": K_GE_2_NOTE}),
        *_csv_table(_EVAL_FIELDS, evaluations)])

    if points and all(e[3] == "pole" for e in results):
        return 1
    return 0


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------


def cmd_verify_identities(args) -> int:
    if args.m_max < 0 or args.k_max < 0:
        raise CliError("--m-max and --k-max must be >= 0")
    from . import identities  # only this command loads the identity suite

    ranges = identities.SuiteRanges(tuple(range(args.m_max + 1)), tuple(range(args.k_max + 1)))
    report = identities.run_suite(ranges)
    doc = {"command": "verify-identities", **report.to_json_dict()}

    def csv_lines() -> list[str]:
        lines = ["identity_id,params,lhs,rhs,pass"]
        for case in report.failures:
            params = ";".join(f"{k}={v}" for k, v in case.params.items())
            lines.append(f"{case.identity_id},{params},{case.lhs},{case.rhs},false")
        return lines + _csv_comments({k: doc[k] for k in ("total", "passed", "failed", "skipped")})

    _write(args, doc, csv_lines)
    return 0 if report.failed == 0 else 1


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def cmd_corpus(args) -> int:
    series, f = _corpus_series(args.fn, args.params, args.x0, args.n, "--fn")
    report = HypothesisReport(series.radius_hint)
    description = (
        f"{describe(f)} about x0 = {series.center}; "
        f"transplant radius {report.radius_text}, "
        f"sufficient condition {'met' if report.satisfied else 'NOT met'}"
    )
    _emit(json.dumps(coefficient_file_payload(series, description), indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# name -> (help, add_flags(parser), command): the one declaration of each
# subcommand, read by ``build_parser`` and ``main``
_SUBCOMMANDS = {
    "estimate": ("convergence table and limit estimates", _add_estimate_flags, cmd_estimate),
    "approximate": ("build and evaluate one approximant", _add_approximate_flags,
                    cmd_approximate),
    "verify-identities": ("run the binomial identity suite", _add_verify_flags,
                          cmd_verify_identities),
    "corpus": ("write a coefficient file for a test function", _add_corpus_flags, cmd_corpus),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _SUBCOMMANDS[args.command][2](args)
        for w in caught:
            sys.stderr.write(f"warning: {w.message}\n")
        return code
    except (CliError, OSError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
