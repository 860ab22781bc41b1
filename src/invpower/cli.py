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
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Sequence

from .approximant import coeffs_closed_form, evaluate
from .asymptotics import ConvergenceTable, convergence_table, estimate_limits
from .corpus import (
    CorpusFunction,
    coefficient_file_payload,
    describe,
    evaluate_at,
    hypothesis_report,
    load_coefficient_file,
    resolve_function,
    save_coefficient_file,
    taylor_coeffs,
)
from .errors import CoefficientFileError, PoleError
from .identities import SuiteRanges, run_suite
from .scalar import MIN_PRECISION, Scalar
from .series import TaylorSeries

K_GE_2_NOTE = (
    "coefficients q[k] for k >= 2 depend on the expansion center; "
    "only q[0] and q[1] estimate the large-x behaviour"
)


class CliError(Exception):
    """Operational failure; message goes to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this CLI reserves 2 for
    # the convergence policy, so route usage errors through CliError.
    def error(self, message):
        raise CliError(f"{self.prog}: {message}\n{self.format_usage()}".rstrip())


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_json(s: Scalar | None) -> str | None:
    if s is None:
        return None
    return s.render_ratio() if s.exact else str(s)


def _render_csv(s: Scalar | None, digits: int) -> str:
    if s is None:
        return ""
    return s.render_decimal(digits)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


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
    p.add_argument("--precision", type=int, default=MIN_PRECISION,
                   help=f"float width in bits, >= {MIN_PRECISION} (float mode only)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    p.add_argument("--digits", type=int, default=30,
                   help="significant digits for CSV rendering (default 30)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="invpower",
                     description="Estimate f(x) ~ q0 + q1/x from Taylor coefficients.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_est = sub.add_parser("estimate", help="convergence table and limit estimates")
    _add_source_flags(p_est)
    p_est.add_argument("--m-max", type=int, required=True, dest="m_max")
    p_est.add_argument("--tol", default="1e-9", help="convergence tolerance (default 1e-9)")
    _add_mode_flags(p_est)
    _add_output_flags(p_est)
    p_est.add_argument("--require-converged", action="store_true", dest="require_converged",
                       help="exit 2 unless every requested component converged")

    p_app = sub.add_parser("approximate", help="build and evaluate one approximant")
    _add_source_flags(p_app)
    p_app.add_argument("--m", type=int, required=True, help="approximant dimension")
    p_app.add_argument("--eval", action="append", default=[], metavar="X", dest="eval_points",
                       help="evaluation point (repeatable; commas allowed)")
    _add_mode_flags(p_app)
    _add_output_flags(p_app)

    p_ver = sub.add_parser("verify-identities", help="run the binomial identity suite")
    p_ver.add_argument("--m-max", type=int, default=25, dest="m_max")
    p_ver.add_argument("--k-max", type=int, default=25, dest="k_max")
    _add_output_flags(p_ver)

    p_cor = sub.add_parser("corpus", help="write a coefficient file for a test function")
    p_cor.add_argument("--fn", required=True, metavar="NAME", help="corpus function selector")
    p_cor.add_argument("--params", metavar="LIST")
    p_cor.add_argument("--x0", metavar="RAT", default="1")
    p_cor.add_argument("--n", type=int, required=True, help="number of coefficients")
    p_cor.add_argument("--out", metavar="PATH", help="output file (default stdout)")

    return parser


def _parse_rational(text: str, what: str) -> Scalar:
    try:
        return Scalar.parse(text, exact=True)
    except ValueError as exc:
        raise CliError(f"bad {what}: {exc}") from None


def _resolve_series(args, n_coeffs: int) -> tuple[TaylorSeries, CorpusFunction | None]:
    """Series from corpus selector or coefficient file, plus the source
    function when there is one (for residuals)."""
    if args.corpus is not None:
        try:
            f = resolve_function(args.corpus, args.params)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        x0 = _parse_rational(args.x0, "--x0")
        try:
            series = taylor_coeffs(f, x0, n_coeffs)
        except PoleError as exc:
            raise CliError(str(exc)) from None
        return series, f
    try:
        # precision only matters for files declaring "exact": false; the
        # parser validates it there, so exact files really do ignore it
        series = load_coefficient_file(args.coeffs,
                                       precision=getattr(args, "precision", MIN_PRECISION))
    except CoefficientFileError as exc:
        raise CliError(str(exc)) from None
    if len(series.coeffs) < n_coeffs:
        raise CliError(
            f"{args.coeffs}: need {n_coeffs} coefficients, file has {len(series.coeffs)}")
    return series, None


def args_precision(args) -> int:
    prec = getattr(args, "precision", MIN_PRECISION)
    if prec < MIN_PRECISION:
        raise CliError(f"--precision must be >= {MIN_PRECISION}, got {prec}")
    return prec


def _maybe_float(series: TaylorSeries, args) -> TaylorSeries:
    if getattr(args, "mode", "exact") == "float":
        return series.to_inexact(args_precision(args))
    return series


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _summarize(table: ConvergenceTable, tol: Scalar) -> dict:
    """Summary dict; tables too short for two-delta confirmation are
    reported unconverged rather than rejected."""
    last = table.rows[-1]
    if len(table.rows) >= 3:
        est = estimate_limits(table, tol)
        return {
            "q0": est.q0,
            "q1": est.q1,
            "q0_converged": est.q0_converged,
            "q1_converged": est.q1_converged,
            "q0_error_indicator": est.error_indicator_q0,
            "q1_error_indicator": est.error_indicator_q1,
            "m_used": est.m_used,
        }
    return {
        "q0": last.q0,
        "q1": last.q1,
        "q0_converged": False,
        "q1_converged": False,
        "q0_error_indicator": last.delta0,
        "q1_error_indicator": last.delta1,
        "m_used": table.m_max,
    }


def _hypothesis_summary(series: TaylorSeries, f: CorpusFunction | None) -> dict | None:
    """Radius metadata for the report: from the source function when there
    is one, else from the file's radius hint.  Never enforced."""
    if f is not None:
        report = hypothesis_report(f, series.center)
        radius = "unbounded" if report.radius is None else report.radius.render_ratio()
        return {"radius": radius, "satisfied": report.satisfied}
    if series.radius_hint is not None:
        radius = series.radius_hint
        return {"radius": radius.render_ratio(), "satisfied": bool(radius > 2)}
    return None


def cmd_estimate(args) -> int:
    if args.m_max < 0:
        raise CliError("--m-max must be >= 0")
    tol = _parse_rational(args.tol, "--tol")
    if tol < 0:
        raise CliError(f"--tol must be >= 0, got {args.tol}")
    series, source = _resolve_series(args, args.m_max + 1)
    hypothesis = _hypothesis_summary(series, source)
    series = _maybe_float(series, args)
    table = convergence_table(series, args.m_max)
    summary = _summarize(table, tol)

    if args.format == "json":
        payload = {
            "command": "estimate",
            "mode": args.mode,
            "center": _render_json(series.center),
            "m_max": args.m_max,
            "tol": _render_json(tol),
            "rows": [
                {
                    "m": r.m,
                    "q0": _render_json(r.q0),
                    "q1": _render_json(r.q1),
                    "delta0": _render_json(r.delta0),
                    "delta1": _render_json(r.delta1),
                }
                for r in table.rows
            ],
            "summary": {
                "q0": _render_json(summary["q0"]),
                "q1": _render_json(summary["q1"]),
                "q0_converged": summary["q0_converged"],
                "q1_converged": summary["q1_converged"],
                "q0_error_indicator": _render_json(summary["q0_error_indicator"]),
                "q1_error_indicator": _render_json(summary["q1_error_indicator"]),
                "m_used": summary["m_used"],
            },
        }
        if hypothesis is not None:
            payload["hypothesis"] = hypothesis
        _emit(_json_dumps(payload), args.out)
    else:
        lines = ["m,q0,q1,delta0,delta1"]
        for r in table.rows:
            lines.append(",".join([
                str(r.m),
                _render_csv(r.q0, args.digits),
                _render_csv(r.q1, args.digits),
                _render_csv(r.delta0, args.digits),
                _render_csv(r.delta1, args.digits),
            ]))
        lines.append(f"# q0={_render_csv(summary['q0'], args.digits)}")
        lines.append(f"# q1={_render_csv(summary['q1'], args.digits)}")
        lines.append(f"# q0_converged={str(summary['q0_converged']).lower()}")
        lines.append(f"# q1_converged={str(summary['q1_converged']).lower()}")
        lines.append(f"# q0_error_indicator={_render_csv(summary['q0_error_indicator'], args.digits)}")
        lines.append(f"# q1_error_indicator={_render_csv(summary['q1_error_indicator'], args.digits)}")
        lines.append(f"# m_used={summary['m_used']}")
        if hypothesis is not None:
            lines.append(f"# hypothesis_radius={hypothesis['radius']}")
            lines.append(f"# hypothesis_satisfied={str(hypothesis['satisfied']).lower()}")
        _emit("\n".join(lines) + "\n", args.out)

    if args.require_converged:
        wanted = [summary["q0_converged"]]
        if args.m_max >= 1:
            wanted.append(summary["q1_converged"])
        if not all(wanted):
            return 2
    return 0


# ---------------------------------------------------------------------------
# approximate
# ---------------------------------------------------------------------------


def _parse_eval_points(raw: list[str]) -> list[Scalar]:
    points = []
    for chunk in raw:
        for piece in chunk.split(","):
            piece = piece.strip()
            if piece:
                points.append(_parse_rational(piece, "--eval"))
    return points


def cmd_approximate(args) -> int:
    if args.m < 0:
        raise CliError("--m must be >= 0")
    series, source = _resolve_series(args, args.m + 1)
    series = _maybe_float(series, args)
    approx = coeffs_closed_form(series, args.m)
    points = _parse_eval_points(args.eval_points)

    evaluations = []
    failures = 0
    for x in points:
        entry: dict = {"x": x}
        try:
            value = evaluate(approx, x)
        except PoleError:
            entry["value"] = None
            entry["residual"] = None
            entry["error"] = "pole"
            failures += 1
            evaluations.append(entry)
            continue
        entry["value"] = value
        entry["residual"] = None
        entry["error"] = None
        if source is not None:
            try:
                entry["residual"] = evaluate_at(source, x) - value
            except PoleError:
                entry["error"] = "source pole"
        evaluations.append(entry)

    if args.format == "json":
        payload = {
            "command": "approximate",
            "mode": args.mode,
            "center": _render_json(series.center),
            "m": args.m,
            "coeffs": [_render_json(q) for q in approx.coeffs],
            "note": K_GE_2_NOTE,
            "evaluations": [
                {
                    "x": _render_json(e["x"]),
                    "value": _render_json(e["value"]),
                    "residual": _render_json(e["residual"]),
                    "error": e["error"],
                }
                for e in evaluations
            ],
        }
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [f"# m={args.m}", f"# center={_render_csv(series.center, args.digits)}"]
        for k, q in enumerate(approx.coeffs):
            lines.append(f"# q[{k}]={_render_csv(q, args.digits)}")
        lines.append(f"# note={K_GE_2_NOTE}")
        lines.append("x,value,residual,error")
        for e in evaluations:
            lines.append(",".join([
                _render_csv(e["x"], args.digits),
                _render_csv(e["value"], args.digits),
                _render_csv(e["residual"], args.digits),
                e["error"] or "",
            ]))
        _emit("\n".join(lines) + "\n", args.out)

    if points and failures == len(points):
        return 1
    return 0


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------


def cmd_verify_identities(args) -> int:
    if args.m_max < 0 or args.k_max < 0:
        raise CliError("--m-max and --k-max must be >= 0")
    ranges = SuiteRanges(tuple(range(args.m_max + 1)), tuple(range(args.k_max + 1)))
    report = run_suite(ranges)

    if args.format == "json":
        payload = {"command": "verify-identities", **report.to_json_dict()}
        _emit(_json_dumps(payload), args.out)
    else:
        lines = ["identity_id,params,lhs,rhs,pass"]
        for case in report.failures:
            params = ";".join(f"{k}={v}" for k, v in case.params.items())
            lines.append(f"{case.identity_id},{params},{case.lhs},{case.rhs},false")
        lines.append(f"# total={report.total}")
        lines.append(f"# passed={report.passed}")
        lines.append(f"# failed={report.failed}")
        lines.append(f"# skipped={report.skipped}")
        _emit("\n".join(lines) + "\n", args.out)

    return 0 if report.failed == 0 else 1


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def cmd_corpus(args) -> int:
    try:
        f = resolve_function(args.fn, args.params)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.n < 1:
        raise CliError("--n must be >= 1")
    x0 = _parse_rational(args.x0, "--x0")
    try:
        series = taylor_coeffs(f, x0, args.n)
    except PoleError as exc:
        raise CliError(str(exc)) from None
    report = hypothesis_report(f, x0)
    description = (
        f"{describe(f)} about x0 = {x0.render_ratio()}; "
        f"transplant radius {'unbounded' if report.radius is None else report.radius.render_ratio()}, "
        f"sufficient condition {'met' if report.satisfied else 'NOT met'}"
    )
    if args.out is None:
        sys.stdout.write(_json_dumps(coefficient_file_payload(series, description)))
    else:
        save_coefficient_file(series, args.out, description=description)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "estimate": cmd_estimate,
    "approximate": cmd_approximate,
    "verify-identities": cmd_verify_identities,
    "corpus": cmd_corpus,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _COMMANDS[args.command](args)
        for w in caught:
            sys.stderr.write(f"warning: {w.message}\n")
        return code
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (OSError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
