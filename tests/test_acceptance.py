"""Acceptance gate: every release criterion, one test each, run at its
stated tolerance.  Each test prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).

``test_c7b`` expands (2x+3)/(x+2) at centers 1 and 3/2.  The method
promises equal limits at both centers, not a rate: the rows converge
geometrically with ratios 2/3 and 5/7, so at dimension 30 the exact gaps
are ~1.0e-5 (q0) and ~3.4e-4 (q1), and 1e-6 agreement is first reached
at dimension 49.  The strict check therefore asserts those rows, gaps and
verdicts by exact equality against a closed-form oracle, and that the
check agrees at 49 and not at 48; the companion check agrees at 50.  See
test_c7b's docstring for the numbers.
"""

import random
import time
from fractions import Fraction
from itertools import count

import pytest

from invpower.approximant import coeffs_closed_form, coeffs_via_matrix, signed_binomial_matrix
from invpower.asymptotics import convergence_table, estimate_limits
from invpower.cli import main
from invpower.corpus import SHIPPED_CORPUS, known_asymptote, mobius, shifted_reciprocal
from invpower.identities import SuiteRanges, run_suite
from invpower.scalar import Scalar
from invpower.series import series_from_rationals

from _oracles import (
    asymptotic_residual_scan,
    brute_q0,
    brute_q1,
    center_invariance_check,
    closed_form_q,
    determinant,
    expand_to_taylor,
    matmul,
    oracle_solve,
    tail_coeffs,
    tail_rows,
)


def sc(x):
    return Scalar.rational(x)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_c1_identity_suite_exhaustive_and_fast():
    start = time.perf_counter()
    outcome = run_suite(SuiteRanges(tuple(range(26)), tuple(range(26))))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: identity suite m,k <= 25 exhaustive, zero failures, < 60 s",
        outcome.failed == 0 and outcome.total > 0 and elapsed < 60.0,
        f"{outcome.total} cases, {outcome.failed} failures, {elapsed:.1f}s",
    )


def test_c2_matrix_laws():
    ok = True
    for m in range(51):
        a = signed_binomial_matrix(m)
        product = matmul(a, a)
        ok = ok and all(
            product[i][j] == (1 if i == j else 0)
            for i in range(m + 1) for j in range(m + 1))
    for m in range(31):
        expected = 1
        for i in range(m + 1):
            expected *= (-1) ** i
        det = determinant(signed_binomial_matrix(m))
        ok = ok and det == expected and det in (1, -1)
    report("criterion 2: involution to m = 50 and determinant law to m = 30", ok)


def test_c3_triple_path_agreement():
    rng = random.Random(0xC3)
    ok = True
    for m in range(13):
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
                      for _ in range(m + 1)]
            s = series_from_rationals(Fraction(rng.randint(-3, 3)), coeffs)
            a = coeffs_closed_form(s, m).coeffs
            b = coeffs_via_matrix(s, m).coeffs
            literal = closed_form_q(coeffs, m)
            ok = ok and a == b and [x.as_fraction() for x in a] == oracle_solve(coeffs, m) == literal
    report("criterion 3: closed form = matrix form = exact solve = literal double sums, "
           "100 series per m <= 12", ok)


def test_c4_round_trip():
    rng = random.Random(0xC4)
    ok = True
    for m in range(13):
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 10 ** 3))
                      for _ in range(m + 1)]
            s = series_from_rationals(1, coeffs)
            q = [x.as_fraction() for x in coeffs_closed_form(s, m).coeffs]
            ok = ok and expand_to_taylor(q, m + 1) == coeffs
    report("criterion 4: re-expansion reproduces the first m+1 coefficients, m <= 12", ok)


def test_c5_convergence_with_condition_satisfied():
    """1/(x + 1/4) about 1: brute-force summation first, then the closed
    forms, then the limit error at dimension 20."""
    coeffs = tail_coeffs(Fraction(0), Fraction(1), Fraction(1, 4), Fraction(1), 22)
    series = series_from_rationals(1, coeffs)
    table = convergence_table(series, 20)
    ok = True
    for m in range(21):
        q0 = brute_q0(coeffs, m)
        ok = ok and table.rows[m].q0.as_fraction() == q0 == Fraction(4, 5 ** (m + 1))
        if m >= 1:
            q1 = brute_q1(coeffs, m)
            ok = ok and table.rows[m].q1.as_fraction() == q1 \
                == 1 - Fraction(4 * m + 5, 5 ** (m + 1))
    est = estimate_limits(table, sc(Fraction(1, 10 ** 12)))
    err0 = abs(est.q0.as_fraction())
    err1 = abs(est.q1.as_fraction() - 1)
    ok = ok and err0 <= Fraction(1, 10 ** 12) and err1 <= Fraction(1, 10 ** 12)
    report(
        "criterion 5: condition-satisfied corpus hits (0, 1) within 1e-12 by m = 20",
        ok, f"|q0|={float(err0):.2e}, |q1-1|={float(err1):.2e}")


def test_c6_convergence_with_condition_violated():
    """x/(x+1) about 1 violates the sufficient condition (radius 1) yet
    the rows still converge: exact leading values, q1 within 1e-6 at 30."""
    coeffs = tail_coeffs(Fraction(1), Fraction(-1), Fraction(1), Fraction(1), 32)
    series = series_from_rationals(1, coeffs)
    table = convergence_table(series, 30)
    ok = True
    for m in range(31):
        q0 = brute_q0(coeffs, m)
        ok = ok and table.rows[m].q0.as_fraction() == q0 == 1 - Fraction(1, 2 ** (m + 1))
        if m >= 1:
            ok = ok and table.rows[m].q1.as_fraction() == brute_q1(coeffs, m)
    gap = abs(table.rows[30].q1.as_fraction() + 1)
    ok = ok and gap <= Fraction(1, 10 ** 6)
    report(
        "criterion 6: condition-violated corpus still converges, |q1_30 + 1| <= 1e-6",
        ok, f"gap={float(gap):.2e}")


def test_c7a_center_invariance_pure_reciprocal():
    tol = sc(Fraction(1, 10 ** 6))
    outcome = center_invariance_check(
        shifted_reciprocal(0, 1, 0), sc(1), sc(Fraction(5, 4)), 30, tol)
    ok = outcome.agrees
    for row in outcome.table_a.rows[1:]:
        ok = ok and row.q0.as_fraction() == 0 and row.q1.as_fraction() == 1
    report(
        "criterion 7a: 1/x at centers 1 and 5/4 agrees within 1e-6 at m = 30, "
        "exactly (0, 1) at center 1",
        ok,
        f"|dq0|={float(outcome.q0_difference):.2e}, |dq1|={float(outcome.q1_difference):.2e}")


def test_c7b_center_invariance_mobius_strict():
    """(2x+3)/(x+2) at centers 1 and 3/2, compared exactly at m = 30.

    The method promises the same limits (2, -1) at every admissible
    center, not a rate of convergence.  The rows converge geometrically
    with ratios 2/3 (center 1) and 5/7 (center 3/2), so at dimension 30
    the cross-center gaps are exactly

        |dq0| = 2*5^30/7^31 - 2^30/3^31      ~ 1.007e-5
        |dq1| = 67*5^30/7^31 - 11*2^30/3^30  ~ 3.381e-4

    and no correct program agrees within 1e-6 there.  This check asserts,
    all by exact equality: every row of both tables equals the closed
    form ``tail_rows`` (itself first checked against literal summation),
    the reported gaps equal the two values above, the agreement verdicts
    equal the oracle's own (gap <= 1e-6), and agreement is first reached
    at m* = 49, computed from the closed forms: the check agrees at m* and
    not at m* - 1.  The companion test at m = 50 checks the agreement
    itself once both tables have converged.
    """
    # 2x + 3 = 2(x + 2) - 1, so f = 2 - 1/(x + 2): offset 2, weight -1, shift 2.
    offset, weight, shift = Fraction(2), Fraction(-1), Fraction(2)
    f = mobius(2, 3, 1, 2)
    x0_a, x0_b = Fraction(1), Fraction(3, 2)
    m_max = 30
    tol_q = Fraction(1, 10 ** 6)
    tol = sc(tol_q)

    ok = True
    for x0 in (x0_a, x0_b):
        coeffs = tail_coeffs(offset, weight, shift, x0, m_max + 1)
        for m in range(m_max + 1):
            ok = ok and tail_rows(offset, weight, shift, x0, m) \
                == (brute_q0(coeffs, m), brute_q1(coeffs, m))

    def gaps(m):
        (a0, a1), (b0, b1) = (tail_rows(offset, weight, shift, x0, m) for x0 in (x0_a, x0_b))
        return abs(a0 - b0), abs(a1 - b1)

    outcome = center_invariance_check(f, sc(x0_a), sc(x0_b), m_max, tol)
    for x0, table in ((x0_a, outcome.table_a), (x0_b, outcome.table_b)):
        ok = ok and [row.m for row in table.rows] == list(range(m_max + 1))
        for row in table.rows:
            q0, q1 = tail_rows(offset, weight, shift, x0, row.m)
            ok = ok and row.q0.as_fraction() == q0
            ok = ok and (row.q1 is None if row.m == 0 else row.q1.as_fraction() == q1)

    d0, d1 = gaps(m_max)
    ok = ok and d0 == 2 * Fraction(5 ** 30, 7 ** 31) - Fraction(2 ** 30, 3 ** 31)
    ok = ok and d1 == 67 * Fraction(5 ** 30, 7 ** 31) - 11 * Fraction(2 ** 30, 3 ** 30)
    ok = ok and outcome.q0_difference.as_fraction() == d0
    ok = ok and outcome.q1_difference.as_fraction() == d1
    ok = ok and outcome.q0_agrees == (d0 <= tol_q) and outcome.q1_agrees == (d1 <= tol_q)

    m_star = next(m for m in count(1) if max(gaps(m)) <= tol_q)
    ok = ok and m_star == 49
    ok = ok and center_invariance_check(f, sc(x0_a), sc(x0_b), m_star, tol).agrees
    ok = ok and not center_invariance_check(f, sc(x0_a), sc(x0_b), m_star - 1, tol).agrees
    report(
        "criterion 7b: (2x+3)/(x+2) at centers 1 and 3/2, exact rows and gaps at m = 30, "
        "1e-6 agreement first at m = 49",
        ok,
        f"|dq0|={float(d0):.2e}, |dq1|={float(d1):.2e}, m*={m_star}")


def test_c7b_center_invariance_mobius_eventual():
    """The same pair does agree once the slower center has converged."""
    tol = sc(Fraction(1, 10 ** 6))
    outcome = center_invariance_check(
        mobius(2, 3, 1, 2), sc(1), sc(Fraction(3, 2)), 50, tol)
    report(
        "criterion 7b': (2x+3)/(x+2) centers 1 and 3/2 agree within 1e-6 at m = 50",
        outcome.agrees,
        f"|dq0|={float(outcome.q0_difference):.2e}, |dq1|={float(outcome.q1_difference):.2e}")


def test_c8_residual_bounded_on_dyadic_grid():
    grid = tuple(sc(2 ** e) for e in range(4, 21))
    ok = True
    details = []
    for entry in SHIPPED_CORPUS:
        q0, q1 = known_asymptote(entry.function)
        scan = asymptotic_residual_scan(entry.function, q0, q1, grid)
        by_x = {p.x.as_fraction(): p.residual.as_fraction() for p in scan.points}
        reference = by_x[Fraction(2 ** 10)]
        bounded = all(r <= 4 * reference for r in by_x.values())
        ok = ok and bounded and not scan.growth_flagged
        details.append(f"{entry.name}: max={float(max(by_x.values())):.3g}")
    report(
        "criterion 8: x^2-scaled remainder bounded by 4x its value at 2^10 over 2^4..2^20",
        ok, "; ".join(details))


def test_c9_float_mode_honesty(capsys):
    coeffs = tail_coeffs(Fraction(1), Fraction(-1), Fraction(1), Fraction(1), 61)
    exact_series = series_from_rationals(1, coeffs)
    exact_table = convergence_table(exact_series, 60)
    exact_q0 = exact_table.rows[60].q0.as_fraction()
    exact_delta = exact_table.rows[60].delta0.as_fraction()

    float_series = exact_series.to_inexact(64)
    with pytest.warns(Warning):
        float_table = convergence_table(float_series, 60)
    float_q0 = float_table.rows[60].q0.as_fraction()
    deviation = abs(float_q0 - exact_q0)

    code = main(["estimate", "--corpus", "x-over-x-plus-1", "--m-max", "60",
                 "--mode", "float", "--precision", "64"])
    captured = capsys.readouterr()
    warned = "warning:" in captured.err and "exact mode" in captured.err

    ok = deviation > exact_delta and code == 0 and warned
    report(
        "criterion 9: 64-bit float mode at m = 60 drifts past the exact delta "
        "and the CLI warns",
        ok,
        f"float deviation={float(deviation):.2e} vs exact delta={float(exact_delta):.2e}")


def test_c10_pipeline_determinism(capsys, tmp_path):
    args = ["estimate", "--corpus", "reciprocal-quarter", "--m-max", "20",
            "--tol", "1e-12", "--format", "csv"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    file_a, file_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(file_a)]) == 0
    assert main(args + ["--out", str(file_b)]) == 0
    ok = first == second and file_a.read_bytes() == file_b.read_bytes()
    report("criterion 10: consecutive exact-mode estimate runs are byte-identical", ok)
