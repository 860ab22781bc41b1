"""Independent output oracles for the benchmark.

Nothing here imports ``invpower``: every expected value is derived from
the closed forms of the corpus functions with ``fractions`` and
``math.comb`` only, so a bug in the program cannot hide in its own check.

Every source the benchmark feeds the program is a sum of terms
``offset + w/(x + shift)``.  With ``b = x0 + shift`` and ``r = 1 - 1/b``
the two leading approximant coefficients have the closed forms

    q0(m) = sum(offset) + sum (w/b) r**m
    q1(m) = sum(w)      - sum w (1 + m/b) r**m          (m >= 1)

which is the row oracle for ``estimate`` and for ``approximate`` q[0],
q[1].  The full approximant is checked against an independent O(m**2)
derivation and by re-expanding the emitted q back to c_0..c_m.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import comb

# What the shipped corpus selectors mean, as (offset, weight, shift).
NAMED_TERMS = {
    "one-over-x": ((Fraction(0), Fraction(1), Fraction(0)),),
    "reciprocal-quarter": ((Fraction(0), Fraction(1), Fraction(1, 4)),),
    "x-over-x-plus-1": ((Fraction(1), Fraction(-1), Fraction(1)),),
}


def mobius_terms(a: int, b: int, c: int, d: int) -> tuple:
    """(a x + b)/(c x + d) = a/c + ((b c - a d)/c**2) / (x + d/c)."""
    return ((Fraction(a, c), Fraction(b * c - a * d, c * c), Fraction(d, c)),)


def ratio(x: Fraction) -> str:
    """The program's JSON rendering of an exact rational."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def significand(precision: int) -> int:
    """Significand bits of an IEEE-style binary float of total width
    ``precision``: 64 -> 53, 128 -> 113, 256 -> 237."""
    return {64: 53, 128: 113, 256: 237}[precision]


def is_hazard(m: int, precision: int) -> bool:
    """Float mode must warn exactly when the central binomial weight
    takes more than half the declared width."""
    return comb(m, m // 2).bit_length() > precision // 2


def taylor(terms, x0: Fraction, n: int) -> list[Fraction]:
    """c_0..c_{n-1} of the term sum about x0: c_k = w (-1)**k / b**(k+1)."""
    c = [Fraction(0)] * n
    for offset, w, shift in terms:
        c[0] += offset
        if w == 0:
            continue
        inv = 1 / (x0 + shift)
        power = w * inv
        for k in range(n):
            c[k] += power
            power *= -inv
    return c


def value_at(terms, x: Fraction) -> Fraction | None:
    """f(x), or None at a pole of f."""
    total = Fraction(0)
    for offset, w, shift in terms:
        total += offset
        if w:
            if x + shift == 0:
                return None
            total += w / (x + shift)
    return total


def rows(terms, x0: Fraction, ms) -> list[tuple[Fraction, Fraction | None]]:
    """Analytic (q0(m), q1(m)) for each m in ``ms``; q1(0) is None."""
    out = []
    for m in ms:
        q0 = sum((o for o, _, _ in terms), Fraction(0))
        q1 = sum((w for _, w, _ in terms), Fraction(0))
        for _, w, shift in terms:
            b = x0 + shift
            rm = (1 - 1 / b) ** m
            q0 += w / b * rm
            q1 -= w * (1 + m / b) * rm
        out.append((q0, q1 if m >= 1 else None))
    return out


def deltas(values) -> list[Fraction | None]:
    out = []
    prev = None
    for v in values:
        out.append(abs(v - prev) if (v is not None and prev is not None) else None)
        prev = v
    return out


def converged(ds, tol: Fraction) -> bool:
    """The documented policy: the last two deltas both within tol."""
    known = [d for d in ds if d is not None]
    return len(known) >= 2 and all(d <= tol for d in known[-2:])


def predict_converged(terms, x0: Fraction, m_max: int, tol: Fraction) -> bool:
    """Both components converged at m_max (needs only the last three rows)."""
    q0s, q1s = zip(*rows(terms, x0, range(m_max - 2, m_max + 1)))
    return converged(deltas(q0s), tol) and converged(deltas(q1s), tol)


def hypothesis_radius(terms, x0: Fraction) -> Fraction | None:
    """Distance to the nearest pole of v(t) = f(1/t + x0 - 1); None when
    no weighted term has one."""
    radii = [1 / abs(x0 + shift - 1) for _, w, shift in terms if w and x0 + shift != 1]
    return min(radii) if radii else None


def approximant(c: list[Fraction], m: int) -> list[Fraction]:
    """q_0..q_m matched to c_0..c_m.

    With u = 1/(x - x0 + 1) and s = 1 - u = t/(1+t), t = x - x0, the series
    sum c_n t**n equals sum_N d_N s**N where d_0 = c_0 and
    d_N = sum_{n=1..N} C(N-1, n-1) c_n; expanding (1-u)**N in u gives
    q_k = (-1)**k sum_{N>=k} C(N, k) d_N.
    """
    d = [c[0]] + [sum((comb(big - 1, n - 1) * c[n] for n in range(1, big + 1)), Fraction(0))
                  for big in range(1, m + 1)]
    return [(-1) ** k * sum((comb(big, k) * d[big] for big in range(k, m + 1)), Fraction(0))
            for k in range(m + 1)]


def reexpand(q: list[Fraction], n_terms: int) -> list[Fraction]:
    """Taylor coefficients about x0 of sum_k q_k/(1 + t)**k."""
    out = [sum(q, Fraction(0))]
    for n in range(1, n_terms):
        out.append((-1) ** n * sum((comb(k + n - 1, n) * q[k] for k in range(1, len(q))),
                                   Fraction(0)))
    return out


def horner(q: list[Fraction], u: Fraction) -> Fraction:
    acc = Fraction(0)
    for coeff in reversed(q):
        acc = acc * u + coeff
    return acc


def decimal_close(text: str, exact: Fraction, digits: int) -> bool:
    """A CSV decimal with a budget of ``digits`` significant digits is
    within one unit in its last digit of the exact value."""
    got = Fraction(text)
    if exact == 0:
        return got == 0
    a = abs(exact)
    e = len(str(a.numerator)) - len(str(a.denominator))
    if a < Fraction(10) ** e:
        e -= 1
    return abs(got - exact) <= Fraction(10) ** (e - digits + 1)


class CheckFailure(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


def expect_equal(got, want, what: str) -> None:
    if got != want:
        raise CheckFailure(f"{what}: got {str(got)[:60]!r}, want {str(want)[:60]!r}")


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _expected_hypothesis(spec) -> dict | None:
    radius = hypothesis_radius(spec["terms"], spec["x0"])
    if spec["source"] == "file":
        # the file's meta carries the radius; none means no block
        return None if radius is None else {"radius": ratio(radius), "satisfied": radius > 2}
    return {"radius": "unbounded" if radius is None else ratio(radius),
            "satisfied": radius is None or radius > 2}


def _estimate_exact_expectation(spec):
    q0s, q1s = zip(*rows(spec["terms"], spec["x0"], range(spec["m_max"] + 1)))
    d0s, d1s = deltas(q0s), deltas(q1s)
    ok0, ok1 = converged(d0s, spec["tol"]), converged(d1s, spec["tol"])
    code = 2 if spec["require"] and not (ok0 and ok1) else 0
    return q0s, q1s, d0s, d1s, ok0, ok1, code


def check_estimate_exact(spec, code, out, err) -> dict:
    q0s, q1s, d0s, d1s, ok0, ok1, want_code = _estimate_exact_expectation(spec)
    expect_equal(code, want_code, "exit code")
    expect_equal(err, "", "stderr")
    m_max = spec["m_max"]
    hyp = _expected_hypothesis(spec)
    if spec["format"] == "json":
        doc = json.loads(out)
        keys = {"command", "mode", "center", "m_max", "tol", "rows", "summary"}
        expect_equal(set(doc), keys | ({"hypothesis"} if hyp else set()), "top-level keys")
        expect_equal(doc["command"], "estimate", "command")
        expect_equal(doc["mode"], "exact", "mode")
        expect_equal(doc["center"], ratio(spec["x0"]), "center")
        expect_equal(doc["m_max"], m_max, "m_max")
        expect_equal(doc["tol"], ratio(spec["tol"]), "tol")
        expect_equal(len(doc["rows"]), m_max + 1, "row count")

        def text(x):
            return None if x is None else ratio(x)

        for m, row in enumerate(doc["rows"]):
            expect_equal(set(row), {"m", "q0", "q1", "delta0", "delta1"}, f"row {m} keys")
            expect_equal(row["m"], m, f"row {m} index")
            for key, want in (("q0", q0s[m]), ("q1", q1s[m]), ("delta0", d0s[m]),
                              ("delta1", d1s[m])):
                expect_equal(row[key], text(want), f"row {m} {key}")
        expect_equal(doc["summary"], {
            "q0": text(q0s[-1]), "q1": text(q1s[-1]),
            "q0_converged": ok0, "q1_converged": ok1,
            "q0_error_indicator": text(d0s[-1]), "q1_error_indicator": text(d1s[-1]),
            "m_used": m_max}, "summary")
        if hyp:
            expect_equal(doc["hypothesis"], hyp, "hypothesis")
        return {}

    digits = spec["digits"]

    def close(field: str, want, what: str) -> None:
        if want is None:
            expect_equal(field, "", what)
        else:
            expect(decimal_close(field, want, digits), f"{what}: {field[:40]!r} not within "
                                                       f"one digit of {float(want):.6g}")

    lines = out.split("\n")
    expect_equal(lines[0], "m,q0,q1,delta0,delta1", "header")
    for m in range(m_max + 1):
        fields = lines[1 + m].split(",")
        expect_equal(len(fields), 5, f"row {m} width")
        expect_equal(fields[0], str(m), f"row {m} index")
        close(fields[1], q0s[m], f"row {m} q0")
        close(fields[2], q1s[m], f"row {m} q1")
        close(fields[3], d0s[m], f"row {m} delta0")
        close(fields[4], d1s[m], f"row {m} delta1")
    tail = lines[m_max + 2:]
    want_tail = ["q0", "q1", "q0_converged", "q1_converged",
                 "q0_error_indicator", "q1_error_indicator", "m_used"]
    if hyp:
        want_tail += ["hypothesis_radius", "hypothesis_satisfied"]
    expect_equal(len(tail), len(want_tail) + 1, "summary line count")
    expect_equal(tail[-1], "", "trailing newline")
    got = {}
    for line, key in zip(tail, want_tail):
        expect(line.startswith(f"# {key}="), f"summary line {key}")
        got[key] = line[len(key) + 3:]
    close(got["q0"], q0s[-1], "summary q0")
    close(got["q1"], q1s[-1], "summary q1")
    close(got["q0_error_indicator"], d0s[-1], "summary q0 indicator")
    close(got["q1_error_indicator"], d1s[-1], "summary q1 indicator")
    expect_equal(got["q0_converged"], str(ok0).lower(), "q0_converged")
    expect_equal(got["q1_converged"], str(ok1).lower(), "q1_converged")
    expect_equal(got["m_used"], str(m_max), "m_used")
    if hyp:
        expect_equal(got["hypothesis_radius"], hyp["radius"], "hypothesis radius")
        expect_equal(got["hypothesis_satisfied"], str(hyp["satisfied"]).lower(),
                     "hypothesis satisfied")
    return {}


def float_bounds(c: list[Fraction], m: int) -> tuple[float, float]:
    """A-priori magnitudes S = sum |weight_n c_n| of the q0 and q1 sums."""
    mags = [abs(float(x)) for x in c[:m + 1]]
    s0 = sum(comb(m, n) * mags[n] for n in range(m + 1))
    s1 = sum(abs(comb(m, n + 1) - m * comb(m, n)) * mags[n] for n in range(1, m + 1))
    return s0, s1


def check_estimate_float(spec, code, out, err) -> dict:
    """Every emitted q0/q1 row lies within 2(m+4) 2**-s S of the exact
    row; the cancellation warning appears exactly on hazard requests."""
    m_max, prec = spec["m_max"], spec["precision"]
    hazard = is_hazard(m_max, prec)
    expect_equal(code, 0, "exit code")
    if hazard:
        expect(err.startswith("warning: ") and "cancellation" in err and err.count("\n") == 1,
               "missing cancellation warning on stderr")
    else:
        expect_equal(err, "", "stderr")
    doc = json.loads(out)
    expect_equal(doc["command"], "estimate", "command")
    expect_equal(doc["mode"], "float", "mode")
    expect_equal(doc["m_max"], m_max, "m_max")
    expect_equal(doc["tol"], ratio(spec["tol"]), "tol")
    expect_equal(len(doc["rows"]), m_max + 1, "row count")
    unit = Fraction(1, 2 ** significand(prec))
    c = taylor(spec["terms"], spec["x0"], m_max + 1)
    x0 = spec["x0"]
    expect(abs(Fraction(doc["center"]) - x0) <= 2 * unit * abs(x0), "center")
    exact = rows(spec["terms"], x0, range(m_max + 1))
    worst = None
    for m, row in enumerate(doc["rows"]):
        expect_equal(row["m"], m, f"row {m} index")
        s0, s1 = float_bounds(c, m)
        for key, want, s in (("q0", exact[m][0], s0), ("q1", exact[m][1], s1)):
            if want is None:
                expect_equal(row[key], None, f"row {m} {key}")
                continue
            error = abs(Fraction(row[key]) - want)
            expect(error <= 2 * (m + 4) * unit * Fraction(s),
                   f"row {m} {key}: error {float(error):.3g} beyond a-priori bound")
            if m == m_max and error and s:
                bits = -math.log2(float(error / Fraction(s)))
                worst = bits if worst is None else min(worst, bits)
    last = doc["rows"][-1]
    summary = doc["summary"]
    expect_equal((summary["q0"], summary["q1"]), (last["q0"], last["q1"]), "summary values")
    expect_equal((summary["q0_error_indicator"], summary["q1_error_indicator"]),
                 (last["delta0"], last["delta1"]), "summary indicators")
    expect_equal(summary["m_used"], m_max, "m_used")
    expect(isinstance(summary["q0_converged"], bool) and isinstance(summary["q1_converged"], bool),
           "converged flags")
    return {"accuracy_bits": None if hazard else worst}


# ---------------------------------------------------------------------------
# approximate
# ---------------------------------------------------------------------------


def _evaluations(spec, q):
    """(x, value, residual, error) per evaluation point, and the exit code."""
    x0, terms = spec["x0"], spec["terms"]
    rows = []
    poles = 0
    for x in spec["points"]:
        base = x - x0 + 1
        if base == 0:
            rows.append((x, None, None, "pole"))
            poles += 1
            continue
        value = horner(q, 1 / base)
        if spec["source"] == "file":
            rows.append((x, value, None, None))
            continue
        fx = value_at(terms, x)
        rows.append((x, value, None, "source pole") if fx is None else (x, value, fx - value, None))
    return rows, (1 if rows and poles == len(rows) else 0)


def check_approximate(spec, code, out, err) -> dict:
    m, x0 = spec["m"], spec["x0"]
    c = taylor(spec["terms"], x0, m + 1)
    q = approximant(c, m)
    # the independent derivation must itself satisfy the matching
    # conditions and agree with the analytic leading rows
    expect_equal(reexpand(q, m + 1), c, "oracle approximant re-expansion")
    lead = rows(spec["terms"], x0, [m])[0]
    expect_equal((q[0], q[1]), lead, "oracle approximant leading rows")
    evaluations, want_code = _evaluations(spec, q)
    expect_equal(code, want_code, "exit code")
    expect_equal(err, "", "stderr")

    if spec["format"] == "json":
        doc = json.loads(out)
        expect_equal(set(doc), {"command", "mode", "center", "m", "coeffs", "note", "evaluations"},
                     "top-level keys")
        expect_equal(doc["command"], "approximate", "command")
        expect_equal(doc["mode"], "exact", "mode")
        expect_equal(doc["center"], ratio(x0), "center")
        expect_equal(doc["m"], m, "m")
        expect_equal(len(doc["coeffs"]), m + 1, "coefficient count")
        for k, want in enumerate(q):
            expect_equal(doc["coeffs"][k], ratio(want), f"q[{k}]")
        # matching conditions on what was emitted
        emitted = [Fraction(t) for t in doc["coeffs"]]
        expect_equal(reexpand(emitted, m + 1), c, "emitted q re-expansion")

        def text(x):
            return None if x is None else ratio(x)

        expect_equal(doc["evaluations"],
                     [{"x": ratio(x), "value": text(v), "residual": text(r), "error": e}
                      for x, v, r, e in evaluations], "evaluations")
        return {}

    digits = spec["digits"]

    def close(field: str, want, what: str) -> None:
        if want is None:
            expect_equal(field, "", what)
        else:
            expect(decimal_close(field, want, digits), f"{what}: {field[:40]!r}")

    lines = out.split("\n")
    expect_equal(lines[0], f"# m={m}", "m line")
    expect(lines[1].startswith("# center="), "center line")
    close(lines[1][len("# center="):], x0, "center")
    for k in range(m + 1):
        prefix = f"# q[{k}]="
        expect(lines[2 + k].startswith(prefix), f"q[{k}] line")
        close(lines[2 + k][len(prefix):], q[k], f"q[{k}]")
    expect(lines[m + 3].startswith("# note="), "note line")
    expect_equal(lines[m + 4], "x,value,residual,error", "evaluation header")
    body = lines[m + 5:]
    expect_equal(len(body), len(evaluations) + 1, "evaluation line count")
    expect_equal(body[-1], "", "trailing newline")
    for i, (x, v, r, e) in enumerate(evaluations):
        fields = body[i].split(",")
        expect_equal(len(fields), 4, f"evaluation {i} width")
        close(fields[0], x, f"evaluation {i} x")
        close(fields[1], v, f"evaluation {i} value")
        close(fields[2], r, f"evaluation {i} residual")
        expect_equal(fields[3], e or "", f"evaluation {i} error")
    return {}


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------


def identity_counts(m_max: int, k_max: int) -> tuple[int, int]:
    """(cases, skipped) of the exhaustive suite, enumerated from the
    documented preconditions of the seven identity families."""
    total = skipped = 0
    for m in range(m_max + 1):
        for k in range(k_max + 1):
            families = (
                (k > m + 1, m + 1),             # factorial dominance, n = 0..m
                (1 <= m and k <= m - 1, 1),     # alternating row prefix
                (k >= 1, m + 1),                # convolution shift, a = 0..m
                (k >= 1, 1),                    # alternating convolution closed form
                (k >= 2 and m >= 1, 1),         # hockey stick
                (m >= 3 and k >= 2, m - 2),     # weighted shift, a = 1..m-2
                (m >= 1 and k >= 2, 1),         # weighted convolution closed form
            )
            for admissible, cases in families:
                if admissible:
                    total += cases
                else:
                    skipped += 1
    return total, skipped


def check_verify(spec, code, out, err) -> dict:
    total, skipped = identity_counts(spec["m_max"], spec["k_max"])
    expect_equal(code, 0, "exit code")
    expect_equal(err, "", "stderr")
    want = {"command": "verify-identities", "total": total, "passed": total, "failed": 0,
            "skipped": skipped, "failures": []}
    if spec["format"] == "json":
        doc = json.loads(out)
        expect_equal(set(doc), set(want), "report keys")
        for key, value in want.items():
            expect_equal(doc[key], value, key)
    else:
        lines = out.split("\n")
        expect_equal(lines[0], "identity_id,params,lhs,rhs,pass", "header")
        summary = ("total", "passed", "failed", "skipped")
        expect_equal(len(lines), len(summary) + 2, "line count")
        for line, key in zip(lines[1:], summary):
            expect(line.startswith(f"# {key}="), f"summary line {key}")
            expect_equal(line[len(key) + 3:], str(want[key]), key)
        expect_equal(lines[-1], "", "trailing newline")
    return {"cases": total}


def check(request, code, out: str, err: str) -> tuple[bool, str, dict]:
    """(ok, reason, facts) for one request's exit code, stdout and stderr.

    Malformed output (bad JSON, missing keys, short CSV) is a failure,
    never a crash of the benchmark.
    """
    spec = request.spec
    checker = {
        "estimate": check_estimate_float if spec.get("mode") == "float" else check_estimate_exact,
        "approximate": check_approximate,
        "verify-identities": check_verify,
    }[request.command]
    try:
        facts = checker(spec, code, out, err)
    except CheckFailure as exc:
        return False, str(exc), {}
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return False, f"malformed output: {type(exc).__name__}: {exc}", {}
    return True, "", facts


# ---------------------------------------------------------------------------
# checker self-test
# ---------------------------------------------------------------------------

# the text just before a leading digit whose change no tolerance can
# absorb, and the value a failure must then name: q0 of the m = 0 row of
# estimate (S = |c_0| there), q[0] of approximate, and the case total of
# verify-identities
_DIGIT_ANCHORS = {
    ("estimate", "json"): ('"q0": "', "q0"),
    ("estimate", "csv"): ("\n0,", "q0"),
    ("approximate", "json"): ('"coeffs": [', "q[0]"),
    ("approximate", "csv"): ("# q[0]=", "q[0]"),
    ("verify-identities", "json"): ('"total": ', "total"),
    ("verify-identities", "csv"): ("# total=", "total"),
}


def change_one_digit(request, out: str) -> tuple[str, str]:
    """``out`` with the first digit of one value changed, and the name of
    that value."""
    anchor, value = _DIGIT_ANCHORS[(request.command, request.spec["format"])]
    start = out.index(anchor) + len(anchor)
    i = next(j for j in range(start, len(out)) if out[j].isdigit())
    # 9 becomes 1, not 0: a leading 0 would make a JSON integer malformed
    digit = int(out[i]) + 1 if out[i] != "9" else 1
    return out[:i] + str(digit) + out[i + 1:], value


def names_value(reason: str, value: str) -> bool:
    """Whether a failure reason comes from the check of ``value`` itself
    ("row 0 q0: ...", "q[0]: ...", "total: ..."), not of a key, an index
    or a line prefix."""
    label = reason.split(":", 1)[0].split()
    return bool(label) and label[-1] == value
