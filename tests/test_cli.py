import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invpower import cli, identities
from invpower.approximant import coeffs_closed_form, evaluate
from invpower.cli import main
from invpower.corpus import (
    MAX_FILE_COEFFS,
    coefficient_file_payload,
    load_coefficient_file,
    mobius,
    shifted_reciprocal,
    tail_sum,
    taylor_coeffs,
)
from invpower.scalar import Scalar

from _oracles import (closed_form_q, float_evaluation, float_table, fraction_walk_taylor,
                      horner_value, tail_coeffs, tail_value)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_reciprocal_quarter_csv(capsys):
    code, out, err = run(capsys, "estimate", "--corpus", "reciprocal-quarter",
                         "--m-max", "20", "--tol", "1e-12", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,q0,q1,delta0,delta1"
    last_row = lines[21].split(",")
    assert last_row[0] == "20"
    assert Decimal(last_row[1]) == Decimal(4) / Decimal(5 ** 21)
    assert "# q0_converged=true" in lines
    # q1's second-to-last delta is 304/5^20 ~ 3.2e-12: the two-delta rule
    # holds out until m_max 21
    assert "# q1_converged=false" in lines


def test_estimate_json_summary(capsys):
    code, out, _ = run(capsys, "estimate", "--corpus", "reciprocal-quarter",
                       "--m-max", "21", "--tol", "1e-12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][20]["q0"] == f"4/{5 ** 21}"
    assert payload["summary"]["q0_converged"] is True
    assert payload["summary"]["q1_converged"] is True
    assert payload["summary"]["m_used"] == 21
    q1 = Fraction(payload["summary"]["q1"])
    assert abs(q1 - 1) <= Fraction(1, 10 ** 12)


def test_estimate_csv_and_json_carry_same_values(capsys):
    args = ("estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "8", "--digits", "30")
    _, csv_out, _ = run(capsys, *args, "--format", "csv")
    _, json_out, _ = run(capsys, *args, "--format", "json")
    payload = json.loads(json_out)
    csv_rows = [l.split(",") for l in csv_out.strip().split("\n")[1:9 + 1]]
    for row, jrow in zip(csv_rows, payload["rows"]):
        assert int(row[0]) == jrow["m"]
        exact = Fraction(jrow["q0"])
        budget = Decimal(row[1])
        assert abs(Fraction(str(budget)) - exact) <= Fraction(1, 10 ** 25) * max(1, abs(exact))


def test_estimate_degenerate_dimension(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["5/3"], "exact": True}))
    code, out, _ = run(capsys, "estimate", "--coeffs", str(path), "--m-max", "0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [{"m": 0, "q0": "5/3", "q1": None, "delta0": None, "delta1": None}]
    assert payload["summary"]["q0_converged"] is False


def test_estimate_require_converged_policy(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["5/3"], "exact": True}))
    code, _, _ = run(capsys, "estimate", "--coeffs", str(path), "--m-max", "0",
                     "--require-converged")
    assert code == 2
    code, _, _ = run(capsys, "estimate", "--corpus", "one-over-x", "--m-max", "5",
                     "--tol", "1e-12", "--require-converged")
    assert code == 0


def test_estimate_mobius_summary_near_truth(capsys):
    code, out, _ = run(capsys, "estimate", "--corpus", "mobius-2-3-1-2",
                       "--m-max", "40", "--format", "json")
    assert code == 0
    summary = json.loads(out)["summary"]
    assert abs(Fraction(summary["q0"]) - 2) < Fraction(1, 10 ** 6)
    assert abs(Fraction(summary["q1"]) + 1) < Fraction(1, 10 ** 4)


def test_estimate_coeffs_file_too_short(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1", "2"], "exact": True}))
    code, _, err = run(capsys, "estimate", "--coeffs", str(path), "--m-max", "5")
    assert code == 1
    assert "coefficients" in err


def test_estimate_missing_file(capsys):
    code, _, err = run(capsys, "estimate", "--coeffs", "/no/such/file.json", "--m-max", "3")
    assert code == 1
    assert "error:" in err


def test_estimate_float_mode_emits_cancellation_warning(capsys):
    code, out, err = run(capsys, "estimate", "--corpus", "x-over-x-plus-1",
                         "--m-max", "60", "--mode", "float", "--precision", "64")
    assert code == 0
    assert "warning:" in err and "cancellation" in err and "exact mode" in err
    assert out.startswith("m,q0,q1")


def test_estimate_deterministic_output(capsys, tmp_path):
    args = ("estimate", "--corpus", "reciprocal-quarter", "--m-max", "15",
            "--tol", "1e-9", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(list(args) + ["--out", str(out_a)]) == 0
    assert main(list(args) + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert b"\r" not in out_a.read_bytes()


def test_estimate_file_output_matches_stdout(capsys, tmp_path):
    args = ("estimate", "--corpus", "one-over-x", "--m-max", "6")
    _, stdout_text, _ = run(capsys, *args)
    path = tmp_path / "t.csv"
    main(list(args) + ["--out", str(path)])
    assert path.read_text() == stdout_text


# ---------------------------------------------------------------------------
# approximate
# ---------------------------------------------------------------------------


def test_approximate_pure_reciprocal(capsys):
    code, out, _ = run(capsys, "approximate", "--corpus", "one-over-x", "--m", "1",
                       "--eval", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["0", "1"]
    assert payload["evaluations"][0] == {
        "x": "10", "value": "1/10", "residual": "0", "error": None}
    assert "q[k] for k >= 2" in payload["note"]


def test_approximate_residual_decays_with_dimension(capsys):
    """x/(x+1) at x = 100: the frozen exact residual at dimension 5, and
    the 1e-4 bound reached by dimension 14."""
    code, out, _ = run(capsys, "approximate", "--corpus", "x-over-x-plus-1",
                       "--m", "5", "--eval", "100", "--format", "json")
    assert code == 0
    res5 = Fraction(json.loads(out)["evaluations"][0]["residual"])
    assert res5 == Fraction(941480149401, 64640000000000)
    code, out, _ = run(capsys, "approximate", "--corpus", "x-over-x-plus-1",
                       "--m", "14", "--eval", "100", "--format", "json")
    assert code == 0
    res14 = Fraction(json.loads(out)["evaluations"][0]["residual"])
    assert abs(res14) < Fraction(1, 10 ** 4) < abs(res5)


def test_approximate_pole_point_is_per_point_error(capsys):
    # center 1 puts the pole at x = 0; the good point still comes through
    code, out, _ = run(capsys, "approximate", "--corpus", "one-over-x", "--m", "2",
                       "--eval", "0", "--eval", "10", "--format", "json")
    assert code == 0
    evals = json.loads(out)["evaluations"]
    assert evals[0]["error"] == "pole"
    assert evals[1]["error"] is None


def test_approximate_all_points_failing_is_nonzero_exit(capsys):
    code, _, _ = run(capsys, "approximate", "--corpus", "one-over-x", "--m", "2",
                     "--eval", "0")
    assert code == 1


def test_approximate_csv_layout(capsys):
    code, out, _ = run(capsys, "approximate", "--corpus", "one-over-x", "--m", "1",
                       "--eval", "10,100", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert "# q[0]=0" in lines
    assert "# q[1]=1" in lines
    assert lines[-2] == "10,0.1,0,"
    assert lines[-1] == "100,0.01,0,"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exact_approximate_makes_no_scalar_or_fraction_per_coefficient(monkeypatch, fmt):
    """Building an exact approximant and evaluating it, and then the
    whole ``approximate`` command with its coefficients rendered, make as
    many ``Scalar``s and ``Fraction``s at m = 40 as at m = 3, and the
    command as many with eight ``p/q`` points, each with a residual, as
    with one: the series is built before the count starts, and every
    later step works on the kernel's integers and the points' pairs."""
    source, made = mobius(2, 3, 1, 2), []
    init, new = Scalar.__init__, Fraction.__new__
    monkeypatch.setattr(Scalar, "__init__", lambda self, *a: made.append(1) or init(self, *a))
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda cls, *a, **k: made.append(1) or new(cls, *a, **k)))

    def count(m: int, points: str) -> tuple[int, int]:
        series = taylor_coeffs(source, Scalar.rational(1), m + 1)
        monkeypatch.setattr(cli, "_resolve_series", lambda args, n: (series, source))
        made.clear()
        evaluate(coeffs_closed_form(series, m), -9, 4)
        built = len(made)
        made.clear()
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["approximate", "--corpus", "mobius-2-3-1-2", "--m", str(m),
                         "--eval", points, "--format", fmt]) == 0
        assert "pole" not in out.getvalue()
        return built, len(made)

    eight = "1/2,3/1,-1/4,7/3,-9/2,100/7,5/8,-3/7"
    assert count(3, eight) == count(40, eight)
    assert count(40, "1/2") == count(40, eight)


_SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _eval_texts(draw):
    """An ``--eval`` text: an unreduced p/q, a decimal or a scientific literal."""
    form = draw(st.sampled_from(["ratio", "decimal", "scientific"]))
    k = draw(st.integers(-2000, 2000))
    if form == "ratio":
        return f"{k}/{draw(st.integers(1, 12))}"
    if form == "decimal":
        return str(Decimal(k).scaleb(-draw(st.integers(0, 3))))
    return f"{k // 20}e{draw(st.integers(-3, 3))}"


@settings(max_examples=80, deadline=None)
@given(x0=_SMALL, terms=st.lists(st.tuples(_SMALL, _SMALL, _SMALL), min_size=1, max_size=2),
       m=st.integers(0, 6), use_file=st.booleans(), digits=st.integers(1, 60), data=st.data())
def test_exact_evaluations_match_fraction_oracle(x0, terms, m, use_file, digits, data):
    """Every cell of an exact ``approximate`` run, about a corpus source
    (one term, with residuals) or a coefficient file (one or two terms),
    equals the ``Fraction`` Horner and f(x) of ``_oracles``: in lowest
    terms in JSON, as the ``Decimal`` quotient at ``--digits`` in CSV.
    The points include the pole x0 - 1, a negative base x0 - 2 and a
    pole of the source."""
    assume(all(x0 + shift for _, weight, shift in terms if weight))
    if not use_file:
        terms = terms[:1]
    special = [x0 - 1, x0 - 2, *(-shift for _, weight, shift in terms if weight)]
    texts = data.draw(st.permutations(data.draw(st.lists(_eval_texts(), max_size=4))
                                      + [str(x) for x in special]))
    q = closed_form_q(fraction_walk_taylor(terms, x0, m + 1), m)
    rows = []
    for x in map(Fraction, texts):
        if m >= 1 and x == x0 - 1:
            rows.append((x, None, None, "pole"))
            continue
        value = horner_value(q, x0, x)
        try:
            residual = None if use_file else tail_value(terms, x) - value
        except ZeroDivisionError:
            rows.append((x, value, None, "source pole"))
            continue
        rows.append((x, value, residual, None))
    want_code = 1 if all(r[3] == "pole" for r in rows) else 0

    with tempfile.TemporaryDirectory() as tmp:
        if use_file:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps({"center": str(x0), "exact": True, "coeffs": [
                str(c) for c in fraction_walk_taylor(terms, x0, m + 1)]}))
            source = ["--coeffs", str(path)]
        else:
            source = ["--corpus", "shifted-reciprocal", f"--x0={x0}",
                      "--params=" + ",".join(map(str, terms[0]))]
        argv = ["approximate", *source, "--m", str(m), "--eval=" + ",".join(texts)]
        with redirect_stdout(io.StringIO()) as out:
            assert main([*argv, "--format", "json"]) == want_code
        assert json.loads(out.getvalue())["evaluations"] == [
            dict(zip(("x", "value", "residual", "error"),
                     (*(None if v is None else str(v) for v in r[:3]), r[3]))) for r in rows]
        with redirect_stdout(io.StringIO()) as out:
            assert main([*argv, f"--digits={digits}"]) == want_code

    def decimal(v) -> str:
        return "" if v is None else str(Context(prec=digits).divide(Decimal(v.numerator),
                                                                    Decimal(v.denominator)))

    table = out.getvalue().split("x,value,residual,error\n")[1].splitlines()
    assert table == [",".join([*map(decimal, r[:3]), r[3] or ""]) for r in rows]


@pytest.mark.parametrize("precision", [64, 128, 256])
@settings(max_examples=60, deadline=None)
@given(x0=_SMALL, terms=st.lists(st.tuples(_SMALL, _SMALL, _SMALL), min_size=1, max_size=2),
       m=st.integers(0, 8), data=st.data())
def test_float_evaluation_cells_match_libmp_oracle(precision, x0, terms, m, data):
    """Every cell of a float ``approximate`` evaluation about a corpus
    source, value, residual and error, equals ``float_evaluation`` of
    ``_oracles`` bit for bit: at the pole x0 - 1, at points 2**-k either
    side of it, at the source's poles and elsewhere."""
    assume(all(x0 + shift for _, weight, shift in terms if weight))
    f = tail_sum(*(shifted_reciprocal(*t) for t in terms))
    series = taylor_coeffs(f, Scalar.rational(x0), m + 1).to_inexact(precision)
    approx = coeffs_closed_form(series, m)
    near_pole = st.builds(lambda sign, k: x0 - 1 + sign * Fraction(1, 2 ** k),
                          st.sampled_from((1, -1)), st.integers(1, 300))
    poles = [x0 - 1, *(-shift for _, weight, shift in terms if weight)]
    x = data.draw(st.one_of(near_pole, st.sampled_from(poles), _SMALL,
                            st.fractions(max_denominator=10 ** 30)))
    got = cli._evaluation(approx, f, x.as_integer_ratio())
    assert got == (x.as_integer_ratio(), *float_evaluation(terms, approx, x))


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------


def test_verify_identities_small(capsys):
    code, out, _ = run(capsys, "verify-identities", "--m-max", "3", "--k-max", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["failures"] == []
    assert payload["total"] > 0


def test_verify_identities_csv_summary(capsys):
    code, out, _ = run(capsys, "verify-identities", "--m-max", "4", "--k-max", "4")
    assert code == 0
    assert "# failed=0" in out


def test_verify_identities_reports_a_failing_case(capsys, monkeypatch):
    """One wrong right side from a family kernel reaches both formats and
    the exit code."""
    original = identities._convolution

    def broken(m, ks, at):
        lhs, rhs = original(m, ks, at)
        return lhs, [[r + 1 if (m, k, a) == (2, 3, 1) else r for k, r in zip(ks, row)]
                     for a, row in enumerate(rhs)]

    monkeypatch.setattr(identities, "_convolution", broken)
    code, out, err = run(capsys, "verify-identities", "--m-max", "3", "--k-max", "3")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[:2] == ["identity_id,params,lhs,rhs,pass",
                         "CONVOLUTION_SHIFT_FAMILY,m=2;k=3;a=1,1,2,false"]
    assert lines[4] == "# failed=1"
    code, out, err = run(capsys, "verify-identities", "--m-max", "3", "--k-max", "3",
                         "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["failed"] == 1 and payload["passed"] == payload["total"] - 1
    assert payload["failures"] == [{"identity_id": "CONVOLUTION_SHIFT_FAMILY",
                                    "params": {"m": 2, "k": 3, "a": 1},
                                    "lhs": "1", "rhs": "2", "pass": False}]


@pytest.mark.parametrize("m_max,k_max,total,skipped", [
    (100000, 0, 100000, 600007),
    (2, 20000, 379985, 160028),
])
def test_verify_identities_lopsided_ranges_cpu_bound(capsys, m_max, k_max, total, skipped):
    """A long range on one axis and a short one on the other costs what
    the families that run there read: with k = 0 no family builds a row
    of m+1 terms, and with m <= 2 the band is three columns wide."""
    start = time.process_time()
    code, out, err = run(capsys, "verify-identities", "--m-max", str(m_max),
                         "--k-max", str(k_max))
    cpu = time.process_time() - start
    assert (code, err) == (0, "")
    assert out.splitlines() == ["identity_id,params,lhs,rhs,pass", f"# total={total}",
                                f"# passed={total}", "# failed=0", f"# skipped={skipped}"]
    assert cpu < 5


def test_verify_identities_bad_range(capsys):
    code, _, err = run(capsys, "verify-identities", "--m-max", "-2")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def test_corpus_writes_coefficient_file(capsys, tmp_path):
    path = tmp_path / "c.json"
    code, _, _ = run(capsys, "corpus", "--fn", "reciprocal-quarter", "--x0", "1",
                     "--n", "50", "--out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["exact"] is True
    assert payload["meta"]["hypothesis_radius"] == "4"
    assert len(payload["coeffs"]) == 50
    assert payload["coeffs"][0] == "4/5"


def test_corpus_stdout(capsys):
    code, out, _ = run(capsys, "corpus", "--fn", "one-over-x", "--x0", "1", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["1", "-1", "1", "-1"]
    assert payload["meta"]["hypothesis_radius"] is None


def test_corpus_pole_center_fails(capsys):
    code, _, err = run(capsys, "corpus", "--fn", "mobius", "--params", "1,0,1,1",
                       "--x0", "-1", "--n", "5")
    assert code == 1
    assert "pole" in err


def test_corpus_file_feeds_estimate(capsys, tmp_path):
    path = tmp_path / "c.json"
    assert main(["corpus", "--fn", "mobius-2-3-1-2", "--x0", "1", "--n", "21",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "estimate", "--coeffs", str(path), "--m-max", "20",
                       "--format", "json")
    assert code == 0
    summary = json.loads(out)["summary"]
    assert abs(Fraction(summary["q0"]) - 2) < Fraction(1, 10 ** 3)


# ---------------------------------------------------------------------------
# flag handling
# ---------------------------------------------------------------------------


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``; help exits through
    ``SystemExit`` as argparse raises it."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_EST = ["estimate", "--corpus", "one-over-x", "--m-max", "3"]


_PARSE_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["-x"],
    ["nope"],
    ["est"],
    ["--", *_EST],
    *([name, "-h"] for name in ("estimate", "approximate", "verify-identities", "corpus")),
    ["estimate", "--he"],
    ["estimate", "--corpus", "one-over-x"],
    ["approximate", "--corpus", "one-over-x", "--m", "zz"],
    [*_EST, "--mode", "fast"],
    [*_EST, "--digits", "0"],
    ["estimate", "--corpus", "one-over-x", "--coeffs", "c.json", "--m-max", "3"],
    ["approximate", "--corpus", "one-over-x", "--m", "2", "--bogus"],
    ["corpus", "--fn", "one-over-x", "--n", "3", "stray"],
    [*_EST, "--", "stray"],
    [*_EST, "--format", "json"],
    ["approximate", "--corpus", "one-over-x", "--m", "2", "--eval", "3"],
    ["verify-identities", "--m-max", "2", "--k-max", "2"],
    ["corpus", "--fn", "one-over-x", "--n", "3"],
]


@pytest.mark.parametrize("argv", _PARSE_ARGVS)
def test_subcommand_parser_matches_full_parser(capsys, argv):
    """``main`` reuses one parser; after it has served every other argv it
    gives this one the exit code, stdout and stderr of a freshly built
    parser, for help, usage errors, leftovers and successful runs."""
    cli._parser.cache_clear()
    fresh = _outcome(capsys, argv)
    for other in _PARSE_ARGVS:
        if other != argv:
            _outcome(capsys, other)
    assert _outcome(capsys, argv) == fresh


def test_reused_parser_keeps_no_argument_state(capsys):
    """A flag given to one call is not seen by the next: ``--eval`` appends
    to its default list, which must stay empty, and ``--digits`` is stored
    by the size action, which must leave its default alone."""
    argv = ["approximate", "--corpus", "one-over-x", "--m", "2", "--format", "json"]
    for points, xs in ((["--eval", "3"], ["3"]), ([], []), (["--eval", "5"], ["5"]), ([], [])):
        code, out, err = run(capsys, *argv, *points)
        assert (code, err) == (0, "")
        assert [e["x"] for e in json.loads(out)["evaluations"]] == xs
    argv = ["estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "3"]
    cli._parser.cache_clear()
    fresh = _outcome(capsys, argv)
    _outcome(capsys, [*argv, "--digits", "5"])
    assert _outcome(capsys, argv) == fresh


_APPROX = ["approximate", "--corpus", "one-over-x", "--m", "2"]


@pytest.mark.parametrize("argv,flag,value,code", [
    (_EST, "--x0", "-3/7", 0),
    (["corpus", "--fn", "one-over-x", "--n", "3"], "--x0", "-3/7", 0),
    (_APPROX, "--eval", "-1/2", 0),
    (_APPROX, "--eval", "-1e-3", 0),
    (_EST, "--tol", "-1e-9", 1),
    (["estimate", "--corpus", "mobius", "--m-max", "3"], "--params", "-1,2,1,3", 0),
])
def test_negative_flag_value_reads_as_with_equals(capsys, argv, flag, value, code):
    """A value that starts with '-' and a digit is the flag's value, not an
    option: ``FLAG VALUE`` gives the exit code, stdout and stderr of
    ``FLAG=VALUE``."""
    spaced = _outcome(capsys, [*argv, flag, value])
    assert spaced == _outcome(capsys, [*argv, f"{flag}={value}"])
    assert spaced[0] == code
    assert "expected one argument" not in spaced[2]


def test_malformed_flags_exit_one(capsys):
    code, _, err = run(capsys, "estimate", "--corpus", "one-over-x")
    assert code == 1
    assert "usage" in err
    code, _, err = run(capsys, "estimate", "--corpus", "one-over-x", "--m-max", "zz")
    assert code == 1


def test_unknown_corpus_name(capsys):
    code, _, err = run(capsys, "estimate", "--corpus", "nope", "--m-max", "3")
    assert code == 1
    assert "known names" in err


def test_bad_precision(capsys):
    code, _, err = run(capsys, "estimate", "--corpus", "one-over-x", "--m-max", "3",
                       "--mode", "float", "--precision", "16")
    assert code == 1
    assert "precision" in err


def test_exact_mode_ignores_precision(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1", "-1", "1", "-1"],
                                "exact": True}))
    code, _, _ = run(capsys, "estimate", "--coeffs", str(path), "--m-max", "3",
                     "--precision", "7")
    assert code == 0


@pytest.mark.parametrize("command,size", [("estimate", "--m-max"), ("approximate", "--m")])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_float_file_blames_precision_flag(capsys, tmp_path, command, size, mode):
    """A float file read below the minimum width is the flag's fault, not the file's."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["0.5", "0.25", "0.125"],
                                "exact": False}))
    code, out, err = run(capsys, command, "--coeffs", str(path), size, "2",
                         "--mode", mode, "--precision", "16")
    assert (code, out) == (1, "")
    assert err == "error: --precision must be >= 64, got 16\n"


def test_float_file_radius_rendered_as_written(capsys, tmp_path):
    """A float file's radius prints as a decimal, the text a coefficient
    file records for it, not as its dyadic ratio."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1", "-1", "1"], "exact": False,
                                "meta": {"hypothesis_radius": "0.1"}}))
    written = coefficient_file_payload(load_coefficient_file(str(path)))
    radius = written["meta"]["hypothesis_radius"]
    assert radius == "0.10000000000000001"
    code, out, _ = run(capsys, "estimate", "--coeffs", str(path), "--m-max", "2")
    assert code == 0
    assert f"# hypothesis_radius={radius}" in out.split("\n")
    code, out, _ = run(capsys, "estimate", "--coeffs", str(path), "--m-max", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["hypothesis"] == {"radius": radius, "satisfied": False}


def test_float_file_rejects_non_finite_coefficient(capsys, tmp_path):
    for bad in ("nan", "inf", "-inf"):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"center": "1", "coeffs": ["1", bad, "1/4"],
                                    "exact": False}))
        code, out, err = run(capsys, "estimate", "--coeffs", str(path), "--m-max", "2",
                             "--mode", "float")
        assert code == 1
        assert out == ""
        assert "field 'coeffs'[1]" in err and "not a finite number" in err


def test_file_with_too_many_coefficients_rejected(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1"] * (MAX_FILE_COEFFS + 1)}))
    code, out, err = run(capsys, "estimate", "--coeffs", str(path), "--m-max", "2")
    assert code == 1
    assert out == ""
    assert (f"field 'coeffs' has {MAX_FILE_COEFFS + 1} entries, "
            f"more than the limit of {MAX_FILE_COEFFS}") in err


@pytest.mark.parametrize("argv,flag", [
    (["corpus", "--fn", "one-over-x", "--n"], "--n"),
    (["estimate", "--corpus", "one-over-x", "--m-max"], "--m-max"),
    (["approximate", "--corpus", "one-over-x", "--eval", "2", "--m"], "--m"),
    (["verify-identities", "--k-max", "1", "--m-max"], "--m-max"),
    (["verify-identities", "--m-max", "1", "--k-max"], "--k-max"),
    (["estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "3", "--digits"], "--digits"),
    (["approximate", "--corpus", "one-over-x", "--m", "2", "--eval", "3", "--digits"],
     "--digits"),
    (["estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "3", "--mode", "float",
      "--precision"], "--precision"),
    (["approximate", "--corpus", "one-over-x", "--m", "2", "--eval", "3", "--mode", "float",
      "--precision"], "--precision"),
])
@pytest.mark.parametrize("value", [MAX_FILE_COEFFS + 1, 10 ** 9])
def test_size_flags_capped_at_the_file_limit(capsys, argv, flag, value):
    """A size flag past the coefficient-file limit is rejected by name
    before a list of that length is built."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, str(value))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be <= {MAX_FILE_COEFFS}, got {value}\n"
    assert peak < 1 << 20


def test_file_with_nonpositive_radius_rejected(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1", "-1"],
                                "meta": {"hypothesis_radius": "-3"}}))
    code, out, err = run(capsys, "estimate", "--coeffs", str(path), "--m-max", "1")
    assert code == 1 and out == ""
    assert err == f"error: {path}: field 'meta.hypothesis_radius' must be positive, got '-3'\n"


@pytest.mark.parametrize("argv", [
    ["estimate", "--corpus", "one-over-x", "--m-max", "3", "--digits", "0"],
    ["estimate", "--corpus", "one-over-x", "--m-max", "3", "--format", "json", "--digits", "0"],
    ["approximate", "--corpus", "one-over-x", "--m", "2", "--eval", "3", "--digits=-5"],
    ["verify-identities", "--m-max", "1", "--k-max", "1", "--digits", "0"],
])
def test_digits_below_one_rejected_at_argument_time(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    value = argv[-1].split("=")[-1]
    assert err.startswith(f"error: invpower {argv[0]}: argument --digits: "
                          f"must be >= 1, got {value}\nusage: ")
    code, out, _ = run(capsys, *argv[:-1 if "=" in argv[-1] else -2], "--digits", "1")
    assert code == 0 and out


@pytest.mark.parametrize("bad", ["1e999999999", "-2e-999999999", "1e4301"])
def test_exact_file_rejects_huge_exponent(capsys, tmp_path, bad):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1", bad, "1/4"], "exact": True}))
    code, out, err = run(capsys, "approximate", "--coeffs", str(path), "--m", "2")
    assert code == 1
    assert out == ""
    assert "field 'coeffs'[1]" in err and "decimal exponent beyond +/-4300" in err


def test_json_renders_values_past_int_string_digit_limit(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["9e4300", "9e4300"]}))
    code, out, err = run(capsys, "approximate", "--coeffs", str(path), "--m", "1",
                         "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["coeffs"] == ["18" + "0" * 4300, "-9" + "0" * 4300]


@pytest.mark.parametrize("argv,field", [
    (["approximate", "--corpus", "one-over-x", "--m", "1", "--eval", "1e999999999"],
     "bad --eval"),
    (["approximate", "--corpus", "one-over-x", "--m", "1", "--x0", "1e-5000"], "bad --x0"),
    (["estimate", "--corpus", "one-over-x", "--m-max", "3", "--tol", "1e-999999999"],
     "bad --tol"),
])
def test_flags_reject_huge_exponent(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field}: ") and "decimal exponent beyond" in err


@pytest.mark.parametrize("argv,field", [
    (["estimate", "--corpus", "one-over-x", "--m-max", "3", "--x0", "1_0"], "bad --x0"),
    (["approximate", "--corpus", "one-over-x", "--m", "1", "--eval", "\u0661\u0662"], "bad --eval"),
    (["estimate", "--corpus", "one-over-x", "--m-max", "3", "--tol", "1e-1_0"], "bad --tol"),
])
def test_flags_reject_separators_and_non_ascii(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: {field}: cannot parse {argv[-1]!r} as an exact rational: "
                   "only ASCII characters and no '_' separators are allowed\n")


_MOBIUS_ENTRIES = "mobius-<a>-<b>-<c>-<d> entries take"
_DEGREE_ONE = "mobius quotient needs a degree-1 denominator (c != 0)"


@pytest.mark.parametrize("argv,message", [
    (["estimate", "--corpus", "mobius-\u0662-3-1-2", "--m-max", "3"],
     f"bad --corpus: {_MOBIUS_ENTRIES} ASCII digits only, got 'mobius-\u0662-3-1-2'"),
    (["estimate", "--corpus", "mobius-\u00b2-3-1-2", "--m-max", "3"],
     f"bad --corpus: {_MOBIUS_ENTRIES} ASCII digits only, got 'mobius-\u00b2-3-1-2'"),
    (["corpus", "--fn", "mobius-\u00b2-3-1-2", "--n", "2"],
     f"bad --fn: {_MOBIUS_ENTRIES} ASCII digits only, got 'mobius-\u00b2-3-1-2'"),
    (["estimate", "--corpus", f"mobius-{'9' * 5000}-3-1-2", "--m-max", "3"],
     f"bad --corpus: {_MOBIUS_ENTRIES} at most {sys.get_int_max_str_digits()} digits"),
    (["estimate", "--corpus", "mobius", "--params", "1,0,x,1", "--m-max", "3"],
     "bad --params: cannot parse 'x' as an exact rational: Invalid literal for Fraction: 'x'"),
    (["estimate", "--corpus", "mobius", "--params", "1,0,1", "--m-max", "3"],
     "bad --params: mobius takes 4 parameters: a,b,c,d"),
    (["estimate", "--corpus", "shifted-reciprocal", "--params", "1,2", "--m-max", "3"],
     "bad --params: shifted-reciprocal takes 3 parameters: offset,weight,shift"),
    (["estimate", "--corpus", "mobius", "--params", "1,0,0,1", "--m-max", "3"],
     f"bad --params: {_DEGREE_ONE}"),
    (["estimate", "--corpus", "mobius-1-0-0-1", "--m-max", "3"], f"bad --corpus: {_DEGREE_ONE}"),
    (["corpus", "--fn", "mobius-1-0-0-1", "--n", "3"], f"bad --fn: {_DEGREE_ONE}"),
    (["estimate", "--corpus", "mobius", "--m-max", "3"],
     "bad --corpus: mobius needs --params a,b,c,d"),
    (["estimate", "--corpus", "shifted-reciprocal", "--m-max", "3"],
     "bad --corpus: shifted-reciprocal needs --params offset,weight,shift"),
    (["corpus", "--fn", "mobius", "--n", "3"], "bad --fn: mobius needs --params a,b,c,d"),
], ids=["arabic-indic-digit", "superscript-digit", "corpus-fn", "5000-digits", "params",
        "params-count", "params-count-shifted", "params-c0", "corpus-c0", "fn-c0",
        "family-without-params", "shifted-without-params", "fn-family-without-params"])
def test_corpus_selector_errors_name_the_flag(capsys, argv, message):
    """A mobius pattern takes ASCII digits only (``str.isdigit`` alone
    passes other scripts' digits, which ``int`` reads or rejects), and
    each malformed selector or parameter is one error line naming its
    flag."""
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


# scalar strings the grammar accepts (some only in float mode), and ones it
# does not: digit separators, non-ASCII digits, malformed rationals
_GOOD_TEXT = st.sampled_from(["1", "-3/4", "0.25", "7/3", "2.5E-4300", "9e4300", "1e-999999999",
                              "-1e999999999"])
_BAD_TEXT = st.sampled_from(["1e4301", "1e1_000_000", "1_0", "\u0661\u0662", "1/0", "0/0", "1//2",
                             "", "nan", "-inf", "0x10", "1e", "\u00bd", "3/-4"]) | st.text(
    alphabet="0123456789/._-+eE \u0663", max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _BAD_TEXT,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=3)
# where one edit lands: nowhere, a field, an entry, or the whole document
_EDITS = (None, ("center",), ("coeffs",), ("coeffs", 1), ("exact",), ("meta",),
          ("meta", "hypothesis_radius"), ("meta", "description"), ())


@st.composite
def _payloads(draw):
    """A well-formed coefficient file, then at most one edit: a field
    dropped, or a value (or the whole document) replaced by any JSON
    value or scalar text."""
    payload = {"center": draw(_GOOD_TEXT), "coeffs": draw(st.lists(_GOOD_TEXT, min_size=2, max_size=4)),
               "exact": draw(st.booleans()),
               "meta": {"hypothesis_radius": draw(_GOOD_TEXT | st.none()),
                        "description": draw(st.text(max_size=3))}}
    edit = draw(st.sampled_from(_EDITS))
    if edit is None:
        return payload
    if not edit:
        return draw(_JSON)
    *parents, key = edit
    owner = payload
    for parent in parents:
        owner = owner[parent]
    if isinstance(key, str) and draw(st.booleans()):
        del owner[key]
    else:
        owner[key] = draw(_GOOD_TEXT | _BAD_TEXT | _JSON)
    return payload


@settings(max_examples=150, deadline=None)
@given(_payloads(), st.sampled_from(["estimate", "approximate"]), st.sampled_from(["exact", "float"]),
       st.sampled_from(["csv", "json"]))
def test_any_file_payload_ends_in_output_or_one_error_line(payload, command, mode, fmt):
    """Whatever JSON a coefficient file holds, a run exits 0 with output or
    exits 1 with one ``error: <path>: ...`` line; nothing escapes as a
    traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(payload))
        size = ["--m-max", "1"] if command == "estimate" else ["--m", "1"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--coeffs", str(path), *size, "--mode", mode, "--format", fmt])
    if code == 0:
        assert out.getvalue()
        assert all(line.startswith("warning: ") for line in err.getvalue().splitlines())
    else:
        assert (code, out.getvalue()) == (1, "")
        assert re.fullmatch(f"error: {re.escape(str(path))}: [^\n]+\n", err.getvalue())


@pytest.mark.parametrize("flag", ["--tol=-1e-9", "--tol=-1/2"])
def test_estimate_rejects_negative_tol(capsys, flag):
    code, out, err = run(capsys, "estimate", "--corpus", "one-over-x", "--m-max", "5", flag)
    assert code == 1
    assert out == ""
    assert err == f"error: --tol must be >= 0, got {flag[6:]}\n"


def test_estimate_zero_tol_converges_on_exact_rows(capsys):
    # 1/x about 1 has q0 = 0 and q1 = 1 from m = 1 on, so its deltas are exactly 0
    code, out, _ = run(capsys, "estimate", "--corpus", "one-over-x", "--m-max", "5",
                       "--tol", "0", "--require-converged")
    assert code == 0
    assert "# q0_converged=true" in out and "# q1_converged=true" in out


def test_estimate_reports_hypothesis_metadata(capsys):
    code, out, _ = run(capsys, "estimate", "--corpus", "x-over-x-plus-1", "--m-max", "5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["hypothesis"] == {"radius": "1", "satisfied": False}
    code, out, _ = run(capsys, "estimate", "--corpus", "one-over-x", "--m-max", "5")
    assert "# hypothesis_radius=unbounded" in out
    assert "# hypothesis_satisfied=true" in out


# ---------------------------------------------------------------------------
# exact-mode byte identity
# ---------------------------------------------------------------------------

def _tail3_coeffs(n):
    """1 + 2/x - 3/(x + 1/2) + 1/2 + (5/4)/(x + 3) about x0 = 1."""
    terms = ((1, 2, 0), (0, -3, Fraction(1, 2)), (Fraction(1, 2), Fraction(5, 4), 3))
    cols = [tail_coeffs(Fraction(o), Fraction(w), Fraction(s), Fraction(1), n)
            for o, w, s in terms]
    return [sum(col) for col in zip(*cols)]


_HASH_FILES = {
    "three": {"center": "1/2", "coeffs": ["1/3", "-2/5", "7/11"], "exact": True},
    "tail3": {"center": "1",
              "coeffs": [str(c) for c in _tail3_coeffs(126)],
              "exact": True,
              "meta": {"hypothesis_radius": "3/2"}},
    "mixed": {"center": "-3/7",
              "coeffs": [f"{(-1) ** n * (n + 1)}/{n * n + 3}" for n in range(24)]
              + ["0.125", "-2.5e-3"],
              "exact": True},
    # (1/2)(-2/5)**n as decimal strings, read as floats at --precision
    # 1/x about 1 as ``invpower corpus`` writes it: unbounded radius stored as null
    "nullradius": {"center": "1", "coeffs": ["1", "-1", "1", "-1", "1", "-1", "1"],
                   "exact": True,
                   "meta": {"hypothesis_radius": None, "description": "1/x about 1"}},
    "floatdec": {"center": "1",
                 "coeffs": ["0.5"] + [f"{'-' if n % 2 else ''}{2 ** (2 * n - 1)}e-{n}"
                                      for n in range(1, 141)],
                 "exact": False},
    # 1 + 2/(x + 1/4) - 3/(x - 5/2) + 1/2 about 1, as ``taylor_coeffs``
    # expands it: one term with a negative base x0 + shift and one of
    # weight zero
    "tailsum3": coefficient_file_payload(taylor_coeffs(tail_sum(
        shifted_reciprocal(1, 2, Fraction(1, 4)),
        shifted_reciprocal(0, -3, Fraction(-5, 2)),
        shifted_reciprocal(Fraction(1, 2), 0, 3)), Scalar.rational(1), 121)),
}

# SHA-256 of stdout, recorded with the O(m^3) binom-sum convergence table
# that preceded the integer kernel, and the exit code.  A mismatch means
# exact-mode output bytes changed.  The ``--require-converged`` cases on
# tables of one and two rows, and the file whose radius is null, were
# recorded with the CLI's own short-table summary that preceded the
# shared renderer.
_ESTIMATE_HASHES = [
    ("mobius-m25-csv", ["--corpus", "mobius-2-3-1-2", "--m-max", "25"],
     "cac3e1b851f722e784ebfe10811edcdc90d3fcf31b2153fac477274ae6433a77", 0),
    ("mobius-x0-m125-json", ["--corpus", "mobius-2-3-1-2", "--x0", "3/2",
                             "--m-max", "125", "--format", "json"],
     "bf9fba6df65550c7a8d0d34e828e1cd697871c1cc5d9d9e64a48c69475f86e9b", 0),
    ("mobius-m125-csv45", ["--corpus", "mobius-2-3-1-2", "--m-max", "125",
                           "--digits", "45"],
     "accc16d6e3ba5749c4e1ef35513bdf1b1bf1584e0d6a87a78af447077bace3d0", 0),
    ("x-over-m25-csv12", ["--corpus", "x-over-x-plus-1", "--m-max", "25",
                          "--digits", "12", "--tol", "1e-6"],
     "749103792a9e4f64282145a5458873774d885e86dcb7c44c85017d238e3e4ebe", 0),
    ("quarter-m0-json", ["--corpus", "reciprocal-quarter", "--m-max", "0",
                         "--format", "json"],
     "32eaaf60265d721ace1fdc1f719d8153ce0d7fe42d94b0e36d26430cfacf49d0", 0),
    ("one-over-x-m2-tol0", ["--corpus", "one-over-x", "--x0", "5/4", "--m-max", "2",
                            "--digits", "12", "--tol", "0"],
     "08b0addacba8d1904ccfd02216d8561d4d6c875046a9defac7058430bdb39052", 0),
    ("shifted-m25-json", ["--corpus", "shifted-reciprocal", "--params", "1/3,-2,1/2",
                          "--m-max", "25", "--format", "json"],
     "c152dd49c348745fd24b48f430947967f6a95907e330982f2a8dffbdeabb6a96", 0),
    ("divergent-m25-json", ["--corpus", "shifted-reciprocal", "--params", "0,1,-3/4",
                            "--m-max", "25", "--format", "json"],
     "b055ed16de0f65b3002fcd58037fa2be35ac1e3065cf13da092dcc2f6c29cc55", 0),
    ("three-m2-csv12", ["--coeffs", "{three}", "--m-max", "2", "--digits", "12"],
     "fcdbbee3c92ca0224519d91ebd657d445e3c2a620bf3319fae26cd9ff6e26e59", 0),
    ("three-m1-json", ["--coeffs", "{three}", "--m-max", "1", "--format", "json"],
     "978eabd055862484924c537180d0f001868d42bdf0f7793c8958fe42b4be5444", 0),
    ("three-m0-csv45", ["--coeffs", "{three}", "--m-max", "0", "--digits", "45"],
     "c2c201203e3127cb2f9015de57bff81958a5cd88a9bff8e7a894323d4d83d862", 0),
    ("tail3-m125-csv45", ["--coeffs", "{tail3}", "--m-max", "125", "--digits", "45"],
     "9b87c8ddf76d2b4b717451f30dfb0c3fdd0bf1aaa6ab8bda5b28c1d41507b5de", 0),
    ("tail3-m25-json", ["--coeffs", "{tail3}", "--m-max", "25", "--format", "json"],
     "9be8167fabd26e65abfbb89a3a1ac63e9b12109ed5936228a079b644bb26c4ec", 0),
    ("mixed-m25-csv", ["--coeffs", "{mixed}", "--m-max", "25", "--tol", "1/1000"],
     "522d5ddd6947f39b56c3287d7729fb925e3ef04cc45a1f139889263a3f0f4805", 0),
    ("require-m0-csv", ["--corpus", "mobius-2-3-1-2", "--m-max", "0", "--require-converged"],
     "07a8176466e7d855c80d234d6f4f2b4152c44bd8f9c4e29d763403089e055af3", 2),
    ("require-m0-json", ["--corpus", "mobius-2-3-1-2", "--m-max", "0", "--require-converged",
                         "--format", "json"],
     "8059a6ffd09abe9cce374bd2ee4d1abd7c75740d8b3271c048aa12fd669d9cb1", 2),
    ("require-three-m1-csv12", ["--coeffs", "{three}", "--m-max", "1", "--require-converged",
                                "--digits", "12"],
     "82cd424884f4ab8ad266b9e4ba8025c96151f1eddaa432eb64fd06685820eac0", 2),
    ("require-x-over-m1-json", ["--corpus", "x-over-x-plus-1", "--m-max", "1",
                                "--require-converged", "--format", "json"],
     "5a9b9ef74cdeb1f691e8b6f3e7379d5db25bc259c868c84f8e529dcd12a08a7b", 2),
    ("nullradius-m6-json", ["--coeffs", "{nullradius}", "--m-max", "6", "--format", "json"],
     "f2b143e6a5f648b0e79c795d84a259f93d71c86ff85371632d7aed0d61b51180", 0),
    ("nullradius-m6-csv12", ["--coeffs", "{nullradius}", "--m-max", "6", "--digits", "12"],
     "d6f4b4f44cad99956ecb9bf6491bbd66ba7295e8e795d212c7b7a9ad5d0c027f", 0),
]


def _with_hash_files(tmp_path, argv):
    """Write the ``_HASH_FILES`` payloads and substitute their paths."""
    paths = {}
    for name, payload in _HASH_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    return [a.format(**paths) for a in argv]


@pytest.mark.parametrize("argv,digest,expected_code", [c[1:] for c in _ESTIMATE_HASHES],
                         ids=[c[0] for c in _ESTIMATE_HASHES])
def test_estimate_exact_output_bytes_unchanged(capsys, tmp_path, argv, digest, expected_code):
    code, out, err = run(capsys, "estimate", *_with_hash_files(tmp_path, argv))
    assert code == expected_code and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _table_warning(m, prec, bits):
    return (f"warning: convergence table to dimension {m} at {prec}-bit floats: "
            f"binomial weights consume ~{bits} bits and cancellation will dominate; "
            f"use exact mode\n")


# SHA-256 of stdout and the exact stderr, recorded with the literal
# Scalar row sums that preceded the raw-mpf float loop.  The warning line
# sits between m = 34 and 35 at 64 bits, 67 and 68 at 128, 131 and 132 at
# 256.
_ESTIMATE_FLOAT_HASHES = [
    ("f64-mobius-m0-json", ["--corpus", "mobius-2-3-1-2", "--m-max", "0", "--mode", "float",
                            "--format", "json"],
     "",
     "3414715d4636fa2961eb60fff0c8c625573fd79c0f2c28c39d9d76dfb76a051a"),
    ("f64-x-over-m1-csv12", ["--corpus", "x-over-x-plus-1", "--m-max", "1", "--mode", "float",
                             "--digits", "12"],
     "",
     "cd7d4d5cdb65dad4eaee443c118f4c0a9a5b573517ed795ae28653c37b47e58c"),
    ("f128-floatdec-m2-json", ["--coeffs", "{floatdec}", "--m-max", "2", "--precision", "128",
                               "--format", "json"],
     "",
     "83649e19b15df9304310529a5460239ee5bb93a8274136b5f139e3e802b48662"),
    ("f64-mobius-m34-csv12", ["--corpus", "mobius-2-3-1-2", "--m-max", "34", "--mode", "float",
                              "--digits", "12"],
     "",
     "bf2641d4f9c65251358b76b4413ef3bc06b5217b0f21cceb1f107b0040c38253"),
    ("f64-floatdec-m40-csv45", ["--coeffs", "{floatdec}", "--m-max", "40", "--digits", "45"],
     _table_warning(40, 64, 38),
     "6d3d3d29ca7ef21e9385eced2dbca93a95cb5dc46224cf930e051d7a1cdbd757"),
    ("f128-tail3-m40-json", ["--coeffs", "{tail3}", "--m-max", "40", "--mode", "float",
                             "--precision", "128", "--format", "json"],
     "",
     "5e9e8a6097968aa842eb7f4ee702ee0756a01fa0ff8a667545173bdce8bdb927"),
    ("f128-tail3-m67-csv", ["--coeffs", "{tail3}", "--m-max", "67", "--mode", "float",
                            "--precision", "128"],
     "",
     "d28e4fe6d385ceca95e669c0baeff3f77e63f6bac9c30048469edc85fb1eb21b"),
    ("f128-mobius-x0-m70-csv45", ["--corpus", "mobius-2-3-1-2", "--x0", "3/2", "--m-max", "70",
                                  "--mode", "float", "--precision", "128", "--digits", "45"],
     _table_warning(70, 128, 67),
     "edbc1a60a30863cff71a95ac54c77b01e20f31843de10098a4f552ccc28526f4"),
    ("f256-tail3-m125-json", ["--coeffs", "{tail3}", "--m-max", "125", "--mode", "float",
                              "--precision", "256", "--format", "json"],
     "",
     "65d777fc6bfb7e2ab81d396e4e70a0b8f9645f87773f6d66cc132b0649faaa3b"),
    ("f256-floatdec-m140-csv45", ["--coeffs", "{floatdec}", "--m-max", "140",
                                  "--mode", "float", "--precision", "256", "--digits", "45"],
     _table_warning(140, 256, 137),
     "7d991319a20e6ba2a12e5d9b9ebfc20cb02dfba045abe3a8cdfd66b9a0043f0d"),
]


@pytest.mark.parametrize("argv,expected_err,digest", [c[1:] for c in _ESTIMATE_FLOAT_HASHES],
                         ids=[c[0] for c in _ESTIMATE_FLOAT_HASHES])
def test_estimate_float_output_bytes_unchanged(capsys, tmp_path, argv, expected_err, digest):
    code, out, err = run(capsys, "estimate", *_with_hash_files(tmp_path, argv))
    assert code == 0 and err == expected_err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Entries +-k * 10**(+-100000000): the q0 and q1 partial sums meet terms
# about 664 million binary places above or below them.  SHA-256 of stdout
# and the exact stderr recorded with the raw-mpf float loop that preceded
# the integer float kernel (0.42 CPU seconds there).  An addition that
# aligned such operands bit by bit would take minutes.
_WIDE_EXPONENTS = [f"{'-' if n % 3 == 1 else ''}{n % 7 + 1}e{'-' if n % 2 else ''}100000000"
                   for n in range(41)]


def test_estimate_float_wide_exponents_output_and_cpu_bound(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"center": "1", "coeffs": _WIDE_EXPONENTS, "exact": False}))
    start = time.process_time()
    code, out, err = run(capsys, "estimate", "--coeffs", str(path), "--mode", "float",
                         "--precision", "64", "--m-max", "40")
    cpu = time.process_time() - start
    assert code == 0 and err == _table_warning(40, 64, 38)
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "10039b0f524855abe682ef8349319135d15f94dbd61a4d5c4049bd22b70d95cd")
    assert cpu < 5


# A 64-bit float file whose entries 1e-400 and -1e-400 lie below the
# binary64 range and 1e300 near its top: rows up to m = 9 stay within
# binary64, the later ones do not.  SHA-256 of stdout recorded with the
# integer float kernel alone, before 64-bit rows were summed in binary64.
_EDGE_FLOATS = ["1", "-0.5", "0.3", "2.5", "-7", "0.125", "1e-5", "3", "-2", "0.7",
                "1e-400", "-3", "0.2", "1e300", "4", "-1e-400"]


@pytest.mark.parametrize("argv,digest", [
    (["estimate", "--m-max", "15", "--digits", "17"],
     "f5a9e51607e905ab0d0eaf19344da2dd02666407a7567f573d9a04e1afb43949"),
    (["approximate", "--m", "9", "--eval", "1/2,3", "--format", "json"],
     "bdab3995ad50947313ded849d31ce60d15040f80ec129d62a9684ba1209ca285"),
    (["approximate", "--m", "15", "--eval", "1/2,3", "--format", "json"],
     "900287b0a3a44f3a1c59413bcafa0ec1db2f4f82bbea23685a6b2bc379dbc5ec"),
], ids=["estimate-m15", "approximate-m9", "approximate-m15"])
def test_float64_file_beyond_binary64_range_output_bytes(capsys, tmp_path, argv, digest):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"center": "1", "coeffs": _EDGE_FLOATS, "exact": False}))
    code, out, err = run(capsys, *argv, "--coeffs", str(path), "--mode", "float")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("fmt", [["--digits", "3"], ["--format", "json"]], ids=["csv3", "json"])
@pytest.mark.parametrize("source,precision", [
    ("mobius", 64), ("mobius", 80), ("mobius", 128), ("mobius", 256), ("edge", 64),
])
def test_float_estimate_rows_are_the_scalar_texts(capsys, tmp_path, fmt, source, precision):
    """Each cell of a float table is the text of the ``Scalar`` of the
    literal row sum: ``render_decimal(--digits)`` in CSV, ``str`` in
    JSON, and "" or null where the row has no value."""
    if source == "edge":
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"center": "1", "coeffs": _EDGE_FLOATS, "exact": False}))
        argv = ["--coeffs", str(path)]
        coeffs = load_coefficient_file(str(path), precision=precision).coeffs
    else:
        argv = ["--corpus", "mobius-2-3-1-2"]
        exact = taylor_coeffs(mobius(2, 3, 1, 2), Scalar.rational(1), 13)
        coeffs = exact.to_inexact(precision).coeffs
    code, out, err = run(capsys, "estimate", *argv, "--m-max", "12", "--mode", "float",
                         "--precision", str(precision), *fmt)
    assert code == 0 and err == ""
    if fmt[0] == "--format":
        expected = [{"m": m, **{k: None if v is None else str(v) for k, v in zip(
            ("q0", "q1", "delta0", "delta1"), vs)}} for m, *vs in float_table(list(coeffs), 12)]
        assert json.loads(out)["rows"] == expected
    else:
        expected = [",".join([str(m), *("" if v is None else v.render_decimal(3) for v in vs)])
                    for m, *vs in float_table(list(coeffs), 12)]
        assert out.splitlines()[1:14] == expected


_CANCEL_64_M60 = ("warning: dimension 60 binomial sums consume ~57 of 64 float bits; "
                  "expect catastrophic cancellation, use exact mode\n")

# SHA-256 of stdout and the exact stderr, recorded with the O(m^4)
# binomial double sums that preceded the integer approximant kernel.
# x0 - 1 is the approximant's pole; -2, -1, -1/4 and 0 are source poles
# of mobius-2-3-1-2, x-over-x-plus-1, reciprocal-quarter and one-over-x.
_APPROXIMATE_HASHES = [
    ("mobius-m10-csv", ["--corpus", "mobius-2-3-1-2", "--m", "10",
                        "--eval", "0,5,1/3", "--eval=-2"],
     "",
     "077982fd73e9391bb5cad7f02ff63463d405c0b8eeed49f020d78f5fc47ab2aa"),
    ("mobius-m50-json", ["--corpus", "mobius-2-3-1-2", "--m", "50", "--format", "json",
                         "--eval=-2,0,7/2,1000"],
     "",
     "e5060c7151cc744cebe7ec5e3c45f5c22b94f48b4675a193f0f0e30d11f2949b"),
    ("mobius-x0-m50-csv45", ["--corpus", "mobius-2-3-1-2", "--x0", "3/2", "--m", "50",
                             "--digits", "45", "--eval", "1/2,-2,10"],
     "",
     "32a72a46d86b3e284fbd3373b19d9035b6fee8e00380ccfa7f11a556e84cd4d8"),
    ("x-over-m2-csv12", ["--corpus", "x-over-x-plus-1", "--m", "2", "--digits", "12",
                         "--eval=-1,0,100"],
     "",
     "dd95ada60c0b44f093cae06ce144af7694069795424dff8c061bf7a884eb52eb"),
    ("quarter-m0-json", ["--corpus", "reciprocal-quarter", "--m", "0", "--format", "json",
                         "--eval=-1/4,0,3"],
     "",
     "cd22e497f48d945f4e1452b17ad9d9e73b76efda18d153cea8e51aec7dcd324e"),
    ("one-over-x-m1-csv30", ["--corpus", "one-over-x", "--x0", "5/4", "--m", "1",
                             "--eval", "1/4,0,3"],
     "",
     "e8b73fe25a41d20c747be2e7b9345b441a5fee54346078e8198e1f3d3d18c5dc"),
    ("shifted-m10-json", ["--corpus", "shifted-reciprocal", "--params", "1/3,-2,1/2",
                          "--m", "10", "--format", "json", "--eval=-1/2,0,2/3"],
     "",
     "ff8bf82bc60fdc19e96da1671bad9b586f78ad2789dec66be58fd5d48b79f3ee"),
    ("three-m2-csv12", ["--coeffs", "{three}", "--m", "2", "--digits", "12",
                        "--eval=-1/2,1,7"],
     "",
     "8877cf838edc775ebc8bdbd46ef90af0a3e25ddf38c1ab20434134a04db689c5"),
    ("three-m1-json", ["--coeffs", "{three}", "--m", "1", "--format", "json",
                       "--eval=-1/2,5/3"],
     "",
     "5e6e63e9d60d00db402001dd39c1395feea14c0c0002d289837cf6a7229967e7"),
    ("tail3-m50-csv45", ["--coeffs", "{tail3}", "--m", "50", "--digits", "45",
                         "--eval", "0,2,-1/2,25"],
     "",
     "02f679cef55865dc788bfb62a60ab7aaa5b98021ca4e8840a84506ecab075880"),
    ("mixed-m25-json", ["--coeffs", "{mixed}", "--m", "25", "--format", "json",
                        "--eval=-10/7,1,3/5"],
     "",
     "e1eb4c4eff4bbd07e32ceb362794bbe1f759ad15c0c494bffe660c4b5d869025"),
    ("float64-mobius-m10-csv", ["--corpus", "mobius-2-3-1-2", "--m", "10",
                                "--mode", "float", "--precision", "64",
                                "--eval", "0,5,1/3"],
     "",
     "255571d638d1f8f78b17e13dc47fd1aa0e47de97a11e4936c8ba907e64d72a6b"),
    ("float128-tail3-m30-json", ["--coeffs", "{tail3}", "--m", "30", "--mode", "float",
                                 "--precision", "128", "--format", "json",
                                 "--eval", "0,2,25"],
     "",
     "74862c179b4a5e0f91589784a4e6d773520ee8058d207721273d170351bc2ea0"),
    ("float64-x-over-m60-json", ["--corpus", "x-over-x-plus-1", "--m", "60",
                                 "--mode", "float", "--precision", "64",
                                 "--format", "json", "--eval=-1,0,100"],
     _CANCEL_64_M60,
     "74b8d6ef1d635a50e6e4dff8f174706757bc36447ada7822f089134b7b69c034"),
    # Recorded with the term-by-term ``Scalar`` loops of ``evaluate`` and
    # ``taylor_coeffs`` that preceded their integer kernels: eval points
    # below the pole (base x - x0 + 1 < 0), m = 0 with points, a
    # three-term tail sum expanded by ``taylor_coeffs``, bases with
    # numerators and denominators of 30 and more digits, m = 120.
    ("mobius-m30-negbase-csv", ["--corpus", "mobius-2-3-1-2", "--m", "30",
                                "--eval=-7/3,-5,-1000,-3/2"],
     "",
     "c2d74a1a7cf0806ba85f346d1c46d872d37ea0506ccdce7b6d828a6efe86e061"),
    ("mobius-x0-m40-negbase-json", ["--corpus", "mobius-2-3-1-2", "--x0", "3/2", "--m", "40",
                                    "--format", "json", "--eval=-9/4,-1/3,-40"],
     "",
     "9810d85f414b7caddabad54700298c2a651f6a2a701545b2e6ecf0749d85b78d"),
    ("x-over-m0-csv45", ["--corpus", "x-over-x-plus-1", "--m", "0", "--digits", "45",
                         "--eval=-3,0,1/7,1000"],
     "",
     "cec12743d1d46beffef1d919c49b36ba0ffb5436ada8cbb40538f996384aa2c7"),
    ("tailsum3-m60-csv45", ["--coeffs", "{tailsum3}", "--m", "60", "--digits", "45",
                            "--eval=-4,-1/4,5/2,0,9"],
     "",
     "5a8578edbc2c9f60a640109bdf8cfc1970de5023128f24899bf567ee9198f034"),
    ("tailsum3-m120-json", ["--coeffs", "{tailsum3}", "--m", "120", "--format", "json",
                            "--eval=-7,1/3,123456789012345678901234567890123/987654321098765432109876543210987"],
     "",
     "55875488ce1b43af6a9d25ee740af38cc41d91d3fdebf0b315a03ff593d9dac8"),
    ("mobius-m120-bigbase-csv", ["--corpus", "mobius-2-3-1-2", "--m", "120",
                                 "--eval=123456789012345678901234567890123/987654321098765432109876543210987,-123456789012345678901234567890123/987654321098765432109876543210987",
                                 "--eval=31415926535897932384626433832795/2718281828459045235360287471352"],
     "",
     "2441658dc61d97b172940456212e9a2f8ca2118d6896c6d73a7520062560676f"),
    ("shifted-m25-bigbase-json", ["--corpus", "shifted-reciprocal", "--params", "1/3,-2,1/2",
                                  "--m", "25", "--format", "json",
                                  "--eval=-123456789012345678901234567890123/987654321098765432109876543210987,10000000000000000000000000000001/3"],
     "",
     "8bbc07ad2306756e021babe6f4f3af1c500d3958bf56e629950f9db1f4797054"),
    ("float128-mobius-m20-negbase-csv", ["--corpus", "mobius-2-3-1-2", "--m", "20",
                                         "--mode", "float", "--precision", "128",
                                         "--eval=-7/3,-40,123456789012345678901234567890123/987654321098765432109876543210987"],
     "",
     "ca918b10a02f663673ab217e8d50435a4859947c452c07563aa92031a28d5b13"),
    # Recorded with the float ``evaluate`` that also took an exact base and
    # an approximant width apart from its center's: 256-bit runs, and
    # 64-bit points 2**-60 either side of the pole x = 0, where the base
    # x - x0 + 1 rounds to zero at 64 bits and not at 256.
    ("float256-mobius-m20-nearpole-csv", ["--corpus", "mobius-2-3-1-2", "--m", "20",
                                          "--mode", "float", "--precision", "256",
                                          f"--eval=0,5,1/3,-7/3,1/{2 ** 60},-1/{2 ** 60}"],
     "",
     "7922ccc74d7b5b89de9d64e22dc47ea82221e2b513695273aa12226a612c5deb"),
    ("float256-tailsum3-m30-json", ["--coeffs", "{tailsum3}", "--m", "30", "--mode", "float",
                                    "--precision", "256", "--format", "json",
                                    "--eval=-4,-1/4,5/2,0,9"],
     "",
     "d29551eb7fe0d04162c76f7973e4a84465c729b97873ef10fd3341c65f664577"),
    ("float64-mobius-m10-nearpole-csv", ["--corpus", "mobius-2-3-1-2", "--m", "10",
                                         "--mode", "float", "--precision", "64",
                                         f"--eval=1/{2 ** 60},-1/{2 ** 60},1/3"],
     "",
     "a15d85fa0aed2737e12360eea45eadfcc32b755c6565716af7f7bd99195c8c90"),
    # Recorded with the ``Scalar`` base, ``Fraction`` source sum and
    # ``Scalar`` residual that preceded the integer-pair evaluation: decimal
    # and scientific points with a source pole, and an exact-mode run on a
    # float coefficient file, whose approximant is a float one.
    ("mobius-m30-decimal-csv20", ["--corpus", "mobius-2-3-1-2", "--m", "30", "--digits", "20",
                                  "--eval=930.29,-6.81,1e-3,1000000,-2"],
     "",
     "cd306f908ba21efc74842b9ae808e8d748b9a5c246d78a4cc94e987edd934427"),
    ("mobius-m30-decimal-json", ["--corpus", "mobius-2-3-1-2", "--m", "30", "--format", "json",
                                 "--eval=930.29,-6.81,1e-3,1000000,-2"],
     "",
     "2f1f597a04744f3f9ef8902709fe9e90b04a0c45c991d7ed0133c01732a2dd56"),
    ("shifted-x0-m12-decimal-csv20", ["--corpus", "shifted-reciprocal", "--params", "1/3,-2,1/2",
                                      "--x0", "3/2", "--m", "12", "--digits", "20",
                                      "--eval=930.29,-6.81", "--eval=1e-3,1000000,-1/2,1/2"],
     "",
     "789c78168c9d2c9ed15cc93c9f9c49e972caf29de4bd4869d93d62ed71f2a460"),
    ("floatdec-exact-m20-csv", ["--coeffs", "{floatdec}", "--m", "20",
                                "--eval=0,5,1/3,-7/3,930.29,1e-3"],
     "",
     "4d201c4dc2013efedd22c498d6e2176afc1f45a694928165665c4e196c962286"),
    ("floatdec-exact-m20-json", ["--coeffs", "{floatdec}", "--m", "20", "--format", "json",
                                 "--eval=0,5,1/3,-7/3,930.29,1e-3"],
     "",
     "44075cadda4b600ba11639cd8d6bda9a29cdc06241686a6a8084e744ef786125"),
    # Recorded with the ``Scalar`` base x - x0 + 1 and the ``Scalar``
    # residual that preceded the raw-value float evaluation: float runs on
    # a corpus source with decimal and scientific points and the source
    # pole -2, and an exact-mode run on a float file with points 2**-60
    # either side of the pole x = 0, where the base rounds to zero.
    *((f"float{p}-mobius-m12-decimal-{fmt}", [
        "--corpus", "mobius-2-3-1-2", "--m", "12", "--mode", "float", "--precision", str(p),
        *(["--format", "json"] if fmt == "json" else ["--digits", "25"]),
        "--eval=930.29,-6.81,1e-3,-2,1/3"], "", digest) for p, fmt, digest in (
        (64, "csv25", "7e58cb760a88cf3fdcc4a70259ec27adacd313cc974abcf91084e6229504a506"),
        (64, "json", "d4bc5f6350d90038d091944e53e612d683e844546938380f025468b768961eef"),
        (128, "csv25", "1d691e42de1e66beb3428e43b028c39f699494b7d98bee7dc98b22445df3c0ab"),
        (128, "json", "ac415e5aa2ccdaf45aec82c8d0bb89adba5b77cec4c7b43b7ec09fc3358e6df1"))),
    ("floatdec-exact-m20-nearpole-csv", ["--coeffs", "{floatdec}", "--m", "20",
                                         f"--eval=1/{2 ** 60},-1/{2 ** 60},0,5"],
     "",
     "988bafc16fd9580be9f723f1e8d7465a843a0bff1ed7a780ceaa9eb29b5dfe7b"),
    ("floatdec-exact-m20-nearpole-json", ["--coeffs", "{floatdec}", "--m", "20", "--format",
                                          "json", f"--eval=1/{2 ** 60},-1/{2 ** 60},0,5"],
     "",
     "649086f82defffcfae48247c33e17b83aca3fc7bb3282f28304c6c0429284882"),
]


@pytest.mark.parametrize("argv,expected_err,digest", [c[1:] for c in _APPROXIMATE_HASHES],
                         ids=[c[0] for c in _APPROXIMATE_HASHES])
def test_approximate_output_bytes_unchanged(capsys, tmp_path, argv, expected_err, digest):
    code, out, err = run(capsys, "approximate", *_with_hash_files(tmp_path, argv))
    assert code == 0 and err == expected_err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


_SCALAR_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__neg__", "__abs__")
# poles of mobius-2-3-1-2 about 1 and of the files about 1: x = 0 and the
# points 2**-60 either side of it, which round to it at 64 bits; -2 is the
# corpus source's pole
_GUARD_POINTS = f"--eval=0,1/{2 ** 60},-1/{2 ** 60},-2,930.29,1e-3,1/3"
_GUARDED_RUNS = [
    *((f"{command}-{source}-{mode}-{fmt}",
       [command, *source_argv, *size, *mode_argv, *fmt_argv])
      for command, size in (("estimate", ["--m-max", "20"]),
                            ("approximate", ["--m", "12", _GUARD_POINTS]))
      for source, source_argv in (("corpus", ["--corpus", "mobius-2-3-1-2"]),
                                  ("file", ["--coeffs", "{tailsum3}"]),
                                  ("floatfile", ["--coeffs", "{floatdec}"]))
      for mode, mode_argv in (("exact", []), ("float64", ["--mode", "float"]),
                              ("float128", ["--mode", "float", "--precision", "128"]))
      for fmt, fmt_argv in (("csv", []), ("json", ["--format", "json"]))),
    ("estimate-cancelling", ["estimate", "--corpus", "x-over-x-plus-1", "--m-max", "60",
                             "--mode", "float"]),
    ("estimate-unconverged", ["estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "1",
                              "--require-converged"]),
    ("approximate-every-point-a-pole", ["approximate", "--corpus", "mobius-2-3-1-2", "--m", "3",
                                        "--mode", "float", f"--eval=0,1/{2 ** 60}"]),
    ("verify-identities-csv", ["verify-identities", "--m-max", "6", "--k-max", "6"]),
    ("verify-identities-json", ["verify-identities", "--m-max", "6", "--k-max", "6",
                                "--format", "json"]),
    ("corpus", ["corpus", "--fn", "mobius", "--params", "2,3,1,2", "--x0", "3/2", "--n", "8"]),
    ("corpus-pole-center", ["corpus", "--fn", "one-over-x", "--x0", "0", "--n", "3"]),
]


class _ScalarArithmetic(Exception):
    """Raised by a patched ``Scalar`` operator; no handler in the CLI catches it."""


@pytest.mark.parametrize("argv", [c[1] for c in _GUARDED_RUNS], ids=[c[0] for c in _GUARDED_RUNS])
def test_no_command_calls_scalar_arithmetic(capsys, tmp_path, monkeypatch, argv):
    """Every command, in exact and float mode, in CSV and JSON, about a
    corpus source, an exact file and a float file, with poles and source
    poles, gives the same stdout, stderr and exit code when each
    arithmetic operator of ``Scalar`` raises: no CLI path reaches them."""
    argv = _with_hash_files(tmp_path, argv)
    want = run(capsys, *argv)

    def refuse(*args):
        raise _ScalarArithmetic("a Scalar arithmetic operator was called")

    for op in _SCALAR_OPERATORS:
        monkeypatch.setattr(Scalar, op, refuse)
    assert run(capsys, *argv) == want


# SHA-256 of stdout and the exit code of ``verify-identities``, recorded with
# the per-tuple check functions that preceded the per-(m, k) family kernels.
_VERIFY_HASHES = [
    ("m0-k0-csv", 0, 0, "csv",
     "3d2a3f48d3dc2c5c8745278308d1c72f9196661af755949bdbe98ec9c58b57e6"),
    ("m0-k0-json", 0, 0, "json",
     "0433a74a993b3ee95d43574743480e1bb8f63521113f39bcd911e12f042bf1a7"),
    ("m1-k5-csv", 1, 5, "csv",
     "347504c97e2e5423abe4c5e666de0cdcd9fc26efdb197859079152117cd4fc03"),
    ("m1-k5-json", 1, 5, "json",
     "b76f4be3016eb7f44f81c8d8226a84e1cb6dc672815e260d0da70e8e7aa70a1a"),
    ("m3-k3-csv", 3, 3, "csv",
     "6faa6f91c932aac28f436a5441c6f8377724de8dee5d2d1ae87460f0f62adce0"),
    ("m3-k3-json", 3, 3, "json",
     "91d8d9d23f01f3e28d5a9a7342292fa52ca469ab6bbb422532bb8b8515a7eef2"),
    ("m6-k10-csv", 6, 10, "csv",
     "77a0324c832abd5b3d9cc821be313e7000524600fdb4f800fe0a4d0b406a8f14"),
    ("m6-k10-json", 6, 10, "json",
     "478f87f0e794c1dda1e5ecd25992c4650525a0cfa951a29c9b217b37fb74139b"),
    ("m16-k30-csv", 16, 30, "csv",
     "94342005810740f0f0805a88f03e61ef8106a5b922275e5dd5fcc2b998d60c43"),
    ("m16-k30-json", 16, 30, "json",
     "511093e189c28b6905e4eee118c017f210c386743d7de24117759f1a4f6872e5"),
    ("m25-k25-csv", 25, 25, "csv",
     "4ed1ab40160b25d3969c994b3b380b363679005cfe0e1a1919913144f2f150f1"),
    ("m25-k25-json", 25, 25, "json",
     "5fba1ef150d3c31b8d0ceff491e2e336a1786618838f8af09fd5875e03bc7e53"),
]


@pytest.mark.parametrize("m_max,k_max,fmt,digest", [c[1:] for c in _VERIFY_HASHES],
                         ids=[c[0] for c in _VERIFY_HASHES])
def test_verify_identities_output_bytes_unchanged(capsys, m_max, k_max, fmt, digest):
    code, out, err = run(capsys, "verify-identities", "--m-max", str(m_max),
                         "--k-max", str(k_max), "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


_UNKNOWN_FN = ("error: unknown corpus function 'no-such-fn'; known names: one-over-x, "
               "reciprocal-quarter, x-over-x-plus-1, mobius-<a>-<b>-<c>-<d>\n")
_EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# SHA-256 of stdout, the exit code and the exact stderr of ``corpus``,
# recorded with the corpus branch the command kept apart from the one
# ``estimate`` and ``approximate`` resolve their series through.  The two
# unknown-name cases pin that the selector is reported before ``--n``.
_CORPUS_HASHES = [
    ("mobius-x0-1", ["--fn", "mobius-2-3-1-2", "--x0", "1", "--n", "6"], 0, "",
     "375b2ab65bac9e2aaac33a9bd4a185186d83c7f4a9631853ce3c240370e12f92"),
    ("one-over-x-unbounded", ["--fn", "one-over-x", "--x0", "1", "--n", "5"], 0, "",
     "5597ea364192d0764923006bb07ee35fb50be6251deb0de1d96221240a81f6c4"),
    ("x-over-x0-3", ["--fn", "x-over-x-plus-1", "--x0", "3", "--n", "8"], 0, "",
     "ea654024cbb6b4ebf4ff3ac6cd6eb337588518f04e8765a265cd203c42263b17"),
    ("shifted-zero-weight", ["--fn", "shifted-reciprocal", "--params", "0,0,1", "--n", "4"], 0, "",
     "28e7919d077b343aa84905a32c7aab270d34a6243c2946652f97b8a0cf0364e7"),
    ("mobius-params-x0-2", ["--fn", "mobius", "--params", "1,2,3,4", "--x0", "2", "--n", "6"],
     0, "", "3ec824c3f53c13752e1a0bd66f5c6cfd37be2897e7a4824c9bb7f766f143e6e5"),
    ("pole-center", ["--fn", "reciprocal-quarter", "--x0=-1/4", "--n", "3"], 1,
     "error: expansion center x0 = -1/4 is a pole\n", _EMPTY_SHA),
    ("unknown-name", ["--fn", "no-such-fn", "--n", "3"], 1, _UNKNOWN_FN, _EMPTY_SHA),
    ("unknown-name-n0", ["--fn", "no-such-fn", "--n", "0"], 1, _UNKNOWN_FN, _EMPTY_SHA),
    ("n0-bad-x0", ["--fn", "one-over-x", "--n", "0", "--x0", "bad"], 1,
     "error: --n must be >= 1\n", _EMPTY_SHA),
    ("bad-x0", ["--fn", "one-over-x", "--n", "2", "--x0", "bad"], 1,
     "error: bad --x0: cannot parse 'bad' as an exact rational: "
     "Invalid literal for Fraction: 'bad'\n", _EMPTY_SHA),
]


@pytest.mark.parametrize("argv,expected_code,expected_err,digest",
                         [c[1:] for c in _CORPUS_HASHES], ids=[c[0] for c in _CORPUS_HASHES])
def test_corpus_output_bytes_unchanged(capsys, argv, expected_code, expected_err, digest):
    code, out, err = run(capsys, "corpus", *argv)
    assert code == expected_code and err == expected_err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# SHA-256 of the stdout and of the stderr, and the exit code, of
# ``estimate --coeffs c.json --m-max 2 --format json`` on an exact file
# whose 'coeffs'[1] is the entry.  They pin the exact grammar's accepted
# texts and error messages on both sides of its split: the plain p/q
# branch read to ints, and the ``Fraction`` route for every other text.
_FILE_ENTRY_HASHES = [
    ("zero-den", "1/0", 1, _EMPTY_SHA,
     "0de2fbd40d946b0f0346a9235b2c7c5b75b221fa6c0f3113e90875d20617c99e"),
    ("zero-den-00", "2/00", 1, _EMPTY_SHA,
     "762fa67dab355635cbb36d1825f2c132457299390ad35a8e8cf3b1ddca7ac678"),
    ("plus", "+3", 0, "873ef3b8533240ac8d465709f1e7747beaa4a0f53a0dee0245a41e3c3134de17",
     _EMPTY_SHA),
    ("spaces", " 4 ", 0, "ad47865f36916918ea75376556ada12ad4b60cfbab1dc03b2bfb501422b5e8b9",
     _EMPTY_SHA),
    ("decimal", "0.25", 0, "bdd3aaadbe6aade9a6a659b2cb2fbba8ea5e504712e09785fbd57a609071ca6b",
     _EMPTY_SHA),
    ("sci", "1e5", 0, "9376f13e6ae13b8996361feefda18c58c6fe3d5533f6335245bf7f72ea9cbe4f",
     _EMPTY_SHA),
    ("huge-exp", "1e99999", 1, _EMPTY_SHA,
     "eb80d15ec2f4702589672d00fb1d3fcbf0153b9cb02bff463043dd3000a35ea7"),
    ("arabic-digit", "\u0663", 1, _EMPTY_SHA,
     "a6d633dcb80857140b47b194d0aa4f8941846c67080ebdcd31aedf5110bb24ef"),
    ("underscore", "1_0", 1, _EMPTY_SHA,
     "e904bc849e7c3fe0cc569b87e5a1cf90ad742d86067f58a0ac9f5e4290862f4b"),
    ("nan", "nan", 1, _EMPTY_SHA,
     "19cd68405f1ace9d0a043f8d97536f52c2b90e0ebdd71d95ef32bd2d9569b0c6"),
    ("numerator-4301-digits", "7" * 4301 + "/3", 1, _EMPTY_SHA,
     "cb6a045ab93a843e637beae9f3d3d109024879d4d6144530dea3c8715ee78c51"),
]


@pytest.mark.parametrize("entry,expected_code,out_digest,err_digest",
                         [c[1:] for c in _FILE_ENTRY_HASHES], ids=[c[0] for c in _FILE_ENTRY_HASHES])
def test_exact_file_entry_output_bytes_unchanged(capsys, monkeypatch, tmp_path, entry,
                                                 expected_code, out_digest, err_digest):
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text(json.dumps({"center": "1", "coeffs": ["1", entry, "1/3"],
                                          "exact": True}))
    code, out, err = run(capsys, "estimate", "--coeffs", "c.json", "--m-max", "2",
                         "--format", "json")
    assert code == expected_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == out_digest
    assert hashlib.sha256(err.encode("utf-8")).hexdigest() == err_digest


# a fresh interpreter imports the CLI and prints the invpower modules that
# loaded, then builds the parser, imports the identity suite and prints
# which of dataclasses and inspect have loaded by then
IMPORT_GUARD = ("import sys\nsys.path.insert(0, sys.argv[1])\nimport invpower.cli\n"
                "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'invpower'))\n"
                "invpower.cli.build_parser()\nimport invpower.identities\n"
                "print(*(m for m in ('dataclasses', 'inspect') if m in sys.modules))")


def test_cli_start_up_imports_no_dataclasses_or_inspect():
    """Every CLI process pays for what ``import invpower.cli`` loads: the
    same nine package modules and neither ``dataclasses`` nor ``inspect``
    (a dozen stdlib modules between them), so the cost can neither come
    back nor move into a lazy import.  ``-S`` keeps ``site`` from loading
    either first."""
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_GUARD, SRC], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    package, heavy = proc.stdout.splitlines()
    assert package.split() == [
        "invpower", "invpower.approximant", "invpower.asymptotics", "invpower.cli",
        "invpower.corpus", "invpower.errors", "invpower.scalar", "invpower.series",
        "invpower.transforms"]
    assert heavy == ""


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------

# text with every character a JSON string escapes or a row split could trip
# on: quotes, backslashes, brackets, the row separator itself, control
# characters and non-ASCII text
_WRITER_TEXT = (st.text(st.sampled_from(['"', "\\", "[", "]", "{", "}", ",", ":", " ", "\n",
                                         "\t", "\x00", "\x1f", "\x7f", "é", "€", "\U0001d11e",
                                         "a", "0"]), max_size=8)
                | st.sampled_from(['"},\n    {"', "},\n  {", "}]", "[{", ""]) | st.text(max_size=8))
_WRITER_SCALAR = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
                  | st.floats() | _WRITER_TEXT)
_WRITER_FLAT = st.dictionaries(_WRITER_TEXT, _WRITER_SCALAR, max_size=5)
_WRITER_VALUES = st.recursive(
    _WRITER_SCALAR | st.lists(_WRITER_FLAT, max_size=4),
    lambda inner: (st.lists(inner, max_size=4) | st.dictionaries(_WRITER_TEXT, inner, max_size=4)
                   | st.lists(_WRITER_FLAT, max_size=4)),
    max_leaves=25)


@settings(max_examples=600, deadline=None)
@given(_WRITER_VALUES)
def test_json_writer_is_json_dumps_indent_two(value):
    """The writer's bytes are ``json.dumps(value, indent=2)``'s for any
    JSON-shaped value: nested and empty containers, lists of flat dicts
    (empty ones too), strings holding the row separator, and every scalar."""
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_json_writer_is_json_dumps_indent_two_on_every_command(monkeypatch, tmp_path):
    """Each command's document, as the command builds it, is written as
    ``json.dumps(doc, indent=2)`` writes it: an exact and a float estimate,
    an approximate run with poles and residuals, a ``corpus`` file and a
    ``verify-identities`` report that lists failures."""
    docs, writer = [], cli._json_text

    def spy(doc):
        docs.append(doc)
        return writer(doc)

    monkeypatch.setattr(cli, "_json_text", spy)
    original = identities._convolution

    def broken(m, ks, at):
        lhs, rhs = original(m, ks, at)
        return lhs, [[r + 1 if (m + a) % 3 == 0 else r for r in row] for a, row in enumerate(rhs)]

    monkeypatch.setattr(identities, "_convolution", broken)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "12",
                     "--format", "json"]) == 0
        assert main(["estimate", "--corpus", "one-over-x", "--m-max", "30", "--mode", "float",
                     "--precision", "128", "--format", "json"]) == 0
        assert main(["approximate", "--corpus", "one-over-x", "--m", "6", "--x0", "2",
                     "--eval", "1/2,1,0,-1", "--format", "json"]) == 0
        assert main(["corpus", "--fn", "mobius-2-3-1-2", "--n", "9"]) == 0
        assert main(["verify-identities", "--m-max", "4", "--k-max", "5", "--format", "json"]) == 1
    assert [doc.get("command") for doc in docs] == [
        "estimate", "estimate", "approximate", None, "verify-identities"]
    assert docs[-1]["failures"] and all(isinstance(f["params"], dict) for f in docs[-1]["failures"])
    assert any(e["error"] == "pole" for e in docs[2]["evaluations"])
    for doc in docs:
        assert writer(doc) == json.dumps(doc, indent=2)
