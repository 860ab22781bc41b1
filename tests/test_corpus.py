import json
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from invpower.approximant import coeffs_closed_form
from invpower.asymptotics import convergence_table, estimate_limits
from invpower.corpus import (
    MAX_FILE_COEFFS,
    SHIPPED_CORPUS,
    HypothesisReport,
    as_tail_terms,
    coefficient_file_payload,
    evaluate_at,
    hypothesis_radius,
    known_asymptote,
    load_coefficient_file,
    mobius,
    resolve_function,
    save_coefficient_file,
    shifted_reciprocal,
    tail_sum,
    taylor_coeffs,
)
from invpower.errors import CoefficientFileError, PoleError
from invpower.scalar import Scalar

from _oracles import expand_to_taylor, fraction_walk_taylor, oracle_solve, tail_coeffs


def sc(x):
    return Scalar.rational(x)


def fractions_of(series):
    return [c.as_fraction() for c in series.coeffs]


# ---------------------------------------------------------------------------
# coefficient generation
# ---------------------------------------------------------------------------


def test_pure_reciprocal_coefficients():
    f = shifted_reciprocal(0, 1, 0)
    s = taylor_coeffs(f, sc(1), 4)
    assert fractions_of(s) == [1, -1, 1, -1]


def test_reciprocal_quarter_coefficients():
    f = shifted_reciprocal(0, 1, Fraction(1, 4))
    s = taylor_coeffs(f, sc(1), 3)
    assert fractions_of(s) == [Fraction(4, 5), Fraction(-16, 25), Fraction(64, 125)]


def test_mobius_coefficients():
    f = mobius(2, 3, 1, 2)  # equals 2 - 1/(x+2)
    s = taylor_coeffs(f, sc(1), 3)
    assert fractions_of(s) == [Fraction(5, 3), Fraction(1, 9), Fraction(-1, 27)]


def test_tail_sum_coefficients_are_sums():
    f = tail_sum(shifted_reciprocal(1, -1, 1), shifted_reciprocal(0, 1, Fraction(1, 4)))
    s = taylor_coeffs(f, sc(1), 6)
    a = tail_coeffs(Fraction(1), Fraction(-1), Fraction(1), Fraction(1), 6)
    b = tail_coeffs(Fraction(0), Fraction(1), Fraction(1, 4), Fraction(1), 6)
    assert fractions_of(s) == [x + y for x, y in zip(a, b)]


def test_generation_matches_brute_force_expansion():
    for offset, weight, shift in [(0, 1, 0), (1, -1, 1), (2, -1, 2), (0, 1, Fraction(1, 4))]:
        f = shifted_reciprocal(offset, weight, shift)
        s = taylor_coeffs(f, sc(Fraction(3, 2)), 12)
        expected = tail_coeffs(Fraction(offset), Fraction(weight), Fraction(shift),
                               Fraction(3, 2), 12)
        assert fractions_of(s) == expected


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=24)
weights = st.one_of(st.just(Fraction(0)), rationals)


@settings(max_examples=150)
@given(st.lists(st.tuples(rationals, weights, rationals), min_size=1, max_size=3),
       rationals, st.integers(1, 14))
@example([(Fraction(1), Fraction(2), Fraction(-5, 2))], Fraction(1), 1)
@example([(Fraction(0), Fraction(0), Fraction(-1)), (Fraction(1, 2), Fraction(-3), Fraction(1, 4))],
         Fraction(1), 9)
@example([(Fraction(2), Fraction(0), Fraction(0))], Fraction(0), 4)
@example([(Fraction(0), Fraction(7, 3), Fraction(-11, 2)), (Fraction(1), Fraction(-1), Fraction(1)),
          (Fraction(-2), Fraction(5, 4), Fraction(3))], Fraction(3, 2), 12)
def test_taylor_coeffs_are_summed_tail_expansions(terms, x0, n):
    """1-3 term tail sums about x0, with zero weights, negative bases
    x0 + shift and n = 1: the coefficients are the sums of the oracle's
    per-term expansions, or a center on a pole raises ``PoleError``."""
    f = tail_sum(*(shifted_reciprocal(o, w, sh) for o, w, sh in terms))
    if any(w != 0 and x0 + sh == 0 for _, w, sh in terms):
        with pytest.raises(PoleError, match=f"^{re.escape(f'expansion center x0 = {sc(x0)} is a pole')}$"):
            taylor_coeffs(f, sc(x0), n)
        return
    s = taylor_coeffs(f, sc(x0), n)
    cols = [tail_coeffs(o, w, sh, x0, n) for o, w, sh in terms]
    assert s.is_exact and s.center.as_fraction() == x0
    assert fractions_of(s) == [sum(col) for col in zip(*cols)]


@settings(max_examples=200)
@given(st.lists(st.tuples(rationals, weights, rationals), min_size=1, max_size=3),
       st.fractions(min_value=-40, max_value=40, max_denominator=60), st.integers(1, 30))
@example([(Fraction(1, 6), Fraction(4, 9), Fraction(-1, 3))], Fraction(2, 3), 5)
@example([(Fraction(0), Fraction(2, 5), Fraction(-7, 5)), (Fraction(3, 4), Fraction(6), Fraction(1))],
         Fraction(-3, 10), 17)
def test_integer_expansion_equals_the_fraction_walk(terms, x0, n):
    """The expansion on integer numerators equals the per-coefficient
    ``Fraction`` walk, and ``den`` is the least common denominator of
    c_0..c_{n-1}, the numerators being D*c_k."""
    assume(not any(w != 0 and x0 + sh == 0 for _, w, sh in terms))
    s = taylor_coeffs(tail_sum(*(shifted_reciprocal(*t) for t in terms)), sc(x0), n)
    expected = fraction_walk_taylor(terms, x0, n)
    assert s.den == lcm(*(c.denominator for c in expected))
    assert all(type(v) is int for v in s.values)
    assert list(s.values) == [c * s.den for c in expected]
    assert fractions_of(s) == expected


@pytest.mark.parametrize("field", ["x0", "offset", "weight", "shift"])
def test_inexact_parameter_rejected_naming_it(field):
    """The corpus is exact: a float offset, weight or shift is rejected
    when its term is built, and a float center when the expansion is
    asked for, with an error that names it."""
    value = Scalar.approx(Fraction(1, 3), 64)
    params = {"offset": 1, "weight": 2, "shift": Fraction(1, 4), field: value}
    message = f"^{field} must be exact, got {re.escape(str(value))}$"
    x0 = params.pop("x0", None)
    if x0 is None:
        with pytest.raises(ValueError, match=message):
            shifted_reciprocal(**params)
        return
    f = tail_sum(shifted_reciprocal(0, -3, Fraction(-5, 2)), shifted_reciprocal(**params))
    with pytest.raises(ValueError, match=message):
        taylor_coeffs(f, x0, 20)


@pytest.mark.parametrize("name", ["a", "b", "c", "d"])
def test_inexact_mobius_parameter_rejected_naming_it(name):
    params = dict(a=2, b=3, c=1, d=2)
    params[name] = value = Scalar.approx(Fraction(1, 3), 64)
    with pytest.raises(ValueError, match=f"^{name} must be exact, got {re.escape(str(value))}$"):
        mobius(**params)


def test_inexact_point_rejected_naming_it():
    """``hypothesis_radius`` takes an exact center only."""
    f = tail_sum(shifted_reciprocal(1, 2, Fraction(1, 4)), *as_tail_terms(mobius(2, 3, 1, 2)))
    point = Scalar.approx(Fraction(1, 2), 64)
    with pytest.raises(ValueError, match=r"^x0 must be exact, got 0\.5$"):
        hypothesis_radius(f, point)


def test_corpus_makes_no_scalar_arithmetic(monkeypatch):
    """Building, expanding, evaluating and bounding a corpus function
    computes on ``Fraction``s: no ``Scalar`` arithmetic runs."""
    calls = []
    binary = Scalar._binary
    monkeypatch.setattr(Scalar, "_binary", lambda *a: calls.append(1) or binary(*a))
    f = tail_sum(shifted_reciprocal(1, 2, Fraction(1, 4)), *as_tail_terms(mobius(2, 3, 1, 2)))
    x0 = sc(Fraction(5, 3))
    known_asymptote(f)
    hypothesis_radius(f, x0)
    evaluate_at(f, 7, 2)
    taylor_coeffs(f, x0, 40)
    assert calls == []


def test_exact_taylor_coeffs_make_no_scalar_arithmetic_per_coefficient(monkeypatch):
    """The exact expansion works on ints: its ``Scalar`` operations do not
    grow with the number of coefficients."""
    calls = []
    binary = Scalar._binary
    monkeypatch.setattr(Scalar, "_binary", lambda *a: calls.append(1) or binary(*a))
    f = tail_sum(shifted_reciprocal(1, 2, Fraction(1, 4)), *as_tail_terms(mobius(2, 3, 1, 2)))
    counts = []
    for n in (3, 40):
        calls.clear()
        taylor_coeffs(f, sc(Fraction(5, 3)), n)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_pole_center_rejected():
    message = "^expansion center x0 = {} is a pole$"
    with pytest.raises(PoleError, match=message.format(0)):
        taylor_coeffs(shifted_reciprocal(0, 1, 0), sc(0), 3)
    with pytest.raises(PoleError, match=message.format(-1)):
        taylor_coeffs(mobius(1, 0, 1, 1), sc(-1), 3)
    pole_second = tail_sum(shifted_reciprocal(1, 2, 0), shifted_reciprocal(0, -1, Fraction(-3, 2)))
    with pytest.raises(PoleError, match=message.format("3/2")):
        taylor_coeffs(pole_second, sc(Fraction(3, 2)), 5)
    with pytest.raises(ValueError, match=r"^x0 must be exact, got 0\.0$"):
        taylor_coeffs(shifted_reciprocal(0, 1, 0), Scalar.approx(0, 64), 3)


def test_coefficient_count_positive():
    with pytest.raises(ValueError):
        taylor_coeffs(shifted_reciprocal(0, 1, 0), sc(1), 0)


def test_mobius_requires_degree_one_denominator():
    with pytest.raises(ValueError, match=r"^mobius quotient needs a degree-1 denominator \(c != 0\)$"):
        mobius(1, 0, 0, 1)


def test_constant_function_has_no_pole():
    f = shifted_reciprocal(7, 0, 0)
    assert hypothesis_radius(f, sc(0)) is None
    s = taylor_coeffs(f, sc(0), 4)
    assert fractions_of(s) == [7, 0, 0, 0]


# ---------------------------------------------------------------------------
# asymptotes and the sufficient-condition report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("f,q0,q1", [
    (mobius(2, 3, 1, 2), Fraction(2), Fraction(-1)),
    (shifted_reciprocal(0, 1, 0), Fraction(0), Fraction(1)),
    (mobius(1, 0, 1, 1), Fraction(1), Fraction(-1)),
    (tail_sum(shifted_reciprocal(1, -1, 1), shifted_reciprocal(2, 5, 0)),
     Fraction(3), Fraction(4)),
])
def test_known_asymptote(f, q0, q1):
    got0, got1 = known_asymptote(f)
    assert got0.as_fraction() == q0
    assert got1.as_fraction() == q1


def test_evaluate_at_matches_quotient_form():
    f = mobius(2, 3, 1, 2)
    for x in (0, 1, 10, Fraction(7, 3)):
        expected = Fraction(2 * Fraction(x) + 3, Fraction(x) + 2)
        num, den = evaluate_at(f, *Fraction(x).as_integer_ratio())
        assert den > 0 and Fraction(num, den) == expected
    with pytest.raises(PoleError, match="^pole at x = -2$"):
        evaluate_at(f, -4, 2)


@pytest.mark.parametrize("den", [0, -3, True, 2.0, Fraction(2)], ids=repr)
def test_evaluate_at_rejects_a_den_that_is_not_a_positive_int(den):
    """A point is a pair (num, den): ``evaluate_at`` rejects a ``den``
    that is not a positive int by name, as a series rejects its own."""
    with pytest.raises(ValueError, match=f"^den must be a positive int, got {re.escape(repr(den))}$"):
        evaluate_at(mobius(2, 3, 1, 2), 1, den)


@pytest.mark.parametrize("f,x0,radius,satisfied", [
    (shifted_reciprocal(0, 1, Fraction(1, 4)), 1, Fraction(4), True),
    (mobius(1, 0, 1, 1), 1, Fraction(1), False),
    (shifted_reciprocal(0, 1, 0), 1, None, True),
    (mobius(2, 3, 1, 2), 1, Fraction(1, 2), False),
])
def test_hypothesis_report(f, x0, radius, satisfied):
    report = HypothesisReport(hypothesis_radius(f, sc(x0)))
    if radius is None:
        assert report.radius is None
    else:
        assert report.radius.as_fraction() == radius
    assert report.satisfied is satisfied


def test_hypothesis_radius_of_sum_is_nearest_pole():
    f = tail_sum(shifted_reciprocal(0, 1, 3), shifted_reciprocal(0, 1, Fraction(1, 4)))
    assert hypothesis_radius(f, sc(1)).as_fraction() == Fraction(1, 3)


def test_radius_agrees_with_numeric_pole_scan():
    """Scan |v(t)| with v(t) = f(1/t + x0 - 1) on a fine grid; the largest
    magnitude must sit at the grid point nearest the declared radius."""
    f = shifted_reciprocal(0, 1, Fraction(1, 4))
    x0 = sc(1)
    declared = hypothesis_radius(f, x0).as_fraction()
    step = Fraction(1, 64)
    best_t, best_mag = None, Fraction(-1)
    for i in range(1, 640):
        for sign in (1, -1):
            t = sign * i * step
            x = 1 / t + x0.as_fraction() - 1
            try:
                mag = abs(Fraction(*evaluate_at(f, *x.as_integer_ratio())))
            except PoleError:
                best_t, best_mag = t, None
                break
            if best_mag is not None and mag > best_mag:
                best_t, best_mag = t, mag
        if best_mag is None:
            break
    assert abs(abs(Fraction(best_t)) - declared) <= step


# ---------------------------------------------------------------------------
# selectors
# ---------------------------------------------------------------------------


def test_named_selectors_resolve():
    assert resolve_function("one-over-x") == shifted_reciprocal(0, 1, 0)
    assert resolve_function("x-over-x-plus-1") == mobius(1, 0, 1, 1)


def test_dashed_mobius_selector():
    assert resolve_function("mobius-2-3-1-2") == mobius(2, 3, 1, 2)


def test_parametric_selectors():
    assert resolve_function("mobius", "1,0,1,1") == mobius(1, 0, 1, 1)
    assert resolve_function("shifted-reciprocal", "0,1,1/4") == \
        shifted_reciprocal(0, 1, Fraction(1, 4))


def test_unknown_selector_rejected():
    with pytest.raises(ValueError):
        resolve_function("no-such-function")
    with pytest.raises(ValueError):
        resolve_function("mobius", "1,2")


def test_shipped_corpus_covers_both_hypothesis_outcomes():
    satisfied = [HypothesisReport(hypothesis_radius(e.function, e.center)).satisfied
                 for e in SHIPPED_CORPUS]
    assert any(satisfied) and not all(satisfied)


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------


def test_file_round_trip_is_lossless(tmp_path):
    f = shifted_reciprocal(0, 1, Fraction(1, 4))
    series = taylor_coeffs(f, sc(1), 50)
    path = tmp_path / "c.json"
    save_coefficient_file(series, str(path), description="round trip")
    loaded = load_coefficient_file(str(path))
    assert loaded.center == series.center
    assert loaded.coeffs == series.coeffs
    assert loaded.radius_hint == series.radius_hint
    # a second save of the loaded series is byte-identical
    path2 = tmp_path / "c2.json"
    save_coefficient_file(loaded, str(path2), description="round trip")
    assert path.read_bytes() == path2.read_bytes()


def test_file_payload_schema():
    series = taylor_coeffs(shifted_reciprocal(0, 1, Fraction(1, 4)), sc(1), 3)
    payload = coefficient_file_payload(series, "demo")
    assert payload["center"] == "1"
    assert payload["coeffs"] == ["4/5", "-16/25", "64/125"]
    assert payload["exact"] is True
    assert payload["meta"]["hypothesis_radius"] == "4"
    assert payload["meta"]["description"] == "demo"


def test_decimal_strings_parse_exactly(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["0.2", "-1", "1/3"], "exact": True}))
    series = load_coefficient_file(str(path))
    assert fractions_of(series) == [Fraction(1, 5), -1, Fraction(1, 3)]


def test_inexact_file_loads_floats(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["0.5", "0.25"], "exact": False}))
    series = load_coefficient_file(str(path), precision=64)
    assert not series.is_exact
    assert series.coeffs[0].as_fraction() == Fraction(1, 2)


@pytest.mark.parametrize("content,needle", [
    ("{nope", "line 1"),
    (json.dumps([1, 2]), "top level"),
    (json.dumps({"coeffs": ["1"]}), "center"),
    (json.dumps({"center": "1"}), "coeffs"),
    (json.dumps({"center": "1", "coeffs": []}), "nonempty"),
    (json.dumps({"center": "1", "coeffs": [3]}), "strings"),
    (json.dumps({"center": "1", "coeffs": ["1"], "exact": "yes"}), "exact"),
    (json.dumps({"center": "x", "coeffs": ["1"]}), "center"),
    (json.dumps({"center": "1", "coeffs": ["1", "3/0"]}), "coeffs'[1]"),
])
def test_malformed_files_give_field_diagnostics(tmp_path, content, needle):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(CoefficientFileError) as err:
        load_coefficient_file(str(path))
    assert needle in str(err.value)


def test_exact_series_makes_no_fraction_or_scalar_per_coefficient(monkeypatch, tmp_path):
    """Expanding a corpus function and reading its table and approximant,
    and loading an exact file, make as many ``Fraction``s and ``Scalar``s
    for 40 coefficients as for 3: the series holds integer numerators,
    and a file's plain p/q entries are read to ints."""
    f = tail_sum(shifted_reciprocal(1, 2, Fraction(1, 4)), *as_tail_terms(mobius(2, 3, 1, 2)))
    x0, made = sc(Fraction(5, 3)), []
    init, new = Scalar.__init__, Fraction.__new__

    def count(n: int) -> tuple[int, int]:
        path = tmp_path / f"c{n}.json"
        save_coefficient_file(taylor_coeffs(f, x0, n), str(path))
        made.clear()
        series = taylor_coeffs(f, x0, n)
        convergence_table(series, n - 1)
        coeffs_closed_form(series, n - 1)
        expanded = len(made)
        made.clear()
        load_coefficient_file(str(path))
        return expanded, len(made)

    monkeypatch.setattr(Scalar, "__init__", lambda self, *a: made.append(1) or init(self, *a))
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda cls, *a, **k: made.append(1) or new(cls, *a, **k)))
    assert count(3) == count(40)


def test_count_keeps_the_first_coefficients_after_checking_all(tmp_path):
    """With ``count`` a file series keeps its first coefficients, over
    their own least common denominator, and the same rationals as a
    whole load; every entry is still parsed, so a bad spare one is
    reported."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1"] + [f"1/{k}" for k in range(1, 300)]}))
    series = load_coefficient_file(str(path), count=5)
    assert (series.values, series.den) == ((12, 12, 6, 4, 3), 12)
    whole = load_coefficient_file(str(path))
    assert series.coeffs == whole.coeffs[:5]
    assert load_coefficient_file(str(path), count=1000) == whole
    path.write_text(json.dumps({"center": "1", "coeffs": ["1", "2", "1/0"]}))
    with pytest.raises(CoefficientFileError, match=r"field 'coeffs'\[2\]: cannot parse '1/0'"):
        load_coefficient_file(str(path), count=1)


def test_coefficient_count_capped_before_parsing(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1/2"] * MAX_FILE_COEFFS}))
    assert len(load_coefficient_file(str(path)).coeffs) == MAX_FILE_COEFFS
    # one entry more fails on the count, before the unparsable first entry is read
    path.write_text(json.dumps({"center": "1", "coeffs": ["3/0"] * (MAX_FILE_COEFFS + 1)}))
    with pytest.raises(CoefficientFileError) as err:
        load_coefficient_file(str(path))
    assert str(err.value) == (f"{path}: field 'coeffs' has {MAX_FILE_COEFFS + 1} entries, "
                              f"more than the limit of {MAX_FILE_COEFFS}")


@pytest.mark.parametrize("exact,radius", [(True, "0"), (True, "-3"), (True, "-1/2"),
                                          (False, "-0.25")])
def test_nonpositive_radius_hint_rejected(tmp_path, exact, radius):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1"], "exact": exact,
                                "meta": {"hypothesis_radius": radius}}))
    with pytest.raises(CoefficientFileError) as err:
        load_coefficient_file(str(path))
    assert str(err.value) == (f"{path}: field 'meta.hypothesis_radius' must be positive, "
                              f"got {radius!r}")


@pytest.mark.parametrize("payload,field,text", [
    ({"center": "1_0", "coeffs": ["1"]}, "'center'", "1_0"),
    ({"center": "1", "coeffs": ["1", "1_000"]}, "'coeffs'[1]", "1_000"),
    ({"center": "1", "coeffs": ["\u0661\u0662"]}, "'coeffs'[0]", "\u0661\u0662"),
    ({"center": "1", "coeffs": ["1_0"], "exact": False}, "'coeffs'[0]", "1_0"),
])
def test_file_scalars_reject_separators_and_non_ascii(tmp_path, payload, field, text):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CoefficientFileError) as err:
        load_coefficient_file(str(path))
    kind = "an exact rational" if payload.get("exact", True) else "a float"
    assert str(err.value).startswith(
        f"{path}: field {field}: cannot parse {text!r} as {kind}: only ASCII characters")


@pytest.mark.parametrize("meta,field,kind", [
    ("x", "meta", "an object"),
    (None, "meta", "an object"),
    ([{"description": "d"}], "meta", "an object"),
    ({"description": 5}, "meta.description", "a string"),
    ({"description": None, "hypothesis_radius": "3"}, "meta.description", "a string"),
])
def test_meta_is_an_object_with_a_string_description(tmp_path, meta, field, kind):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1"], "meta": meta}))
    with pytest.raises(CoefficientFileError) as err:
        load_coefficient_file(str(path))
    assert str(err.value) == f"{path}: field '{field}' must be {kind}"


def test_undeclared_float_content_points_at_float_mode(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1e999999"], "exact": True}))
    with pytest.raises(CoefficientFileError) as err:
        load_coefficient_file(str(path))
    assert str(err.value).endswith('; declare "exact": false to load as floats')


@pytest.mark.parametrize("text,hinted", [
    ("nan", False),
    ("inf", False),
    ("1/0", False),
    ("1_0", False),
    ("0x1.8p3", False),
    ("3/-4", False),
    ("1 / 2", False),
    ("1e999999", True),
    ("-2.5e-5000", True),
])
def test_float_mode_hint_only_where_a_float_file_would_load(tmp_path, text, hinted):
    """An exact file's parse error suggests ``"exact": false`` only when
    float mode would read the same text."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1", text], "exact": True}))
    with pytest.raises(CoefficientFileError) as err:
        load_coefficient_file(str(path))
    message = str(err.value)
    assert message.startswith(f"{path}: field 'coeffs'[1]: cannot parse {text!r}")
    assert message.endswith('; declare "exact": false to load as floats') == hinted


@pytest.mark.parametrize("text", ["3/-4", "-1/-2", "1 / 2", "1/ 2"])
def test_float_file_rejects_a_ratio_outside_the_exact_form(tmp_path, text):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"center": "1", "coeffs": ["1", text], "exact": False}))
    with pytest.raises(CoefficientFileError) as err:
        load_coefficient_file(str(path))
    assert str(err.value).startswith(f"{path}: field 'coeffs'[1]: cannot parse {text!r} as a float")


# ---------------------------------------------------------------------------
# whole pipeline round trip
# ---------------------------------------------------------------------------


def test_pipeline_round_trip_for_shipped_corpus():
    for entry in SHIPPED_CORPUS:
        for m in (0, 1, 4, 7):
            coeffs = fractions_of(taylor_coeffs(entry.function, entry.center, m + 1))
            assert expand_to_taylor(oracle_solve(coeffs, m), m + 1) == coeffs


def test_estimates_match_known_asymptotes_when_condition_met():
    tol = Fraction(1, 10 ** 6)
    for entry in SHIPPED_CORPUS:
        if not HypothesisReport(hypothesis_radius(entry.function, entry.center)).satisfied:
            continue
        series = taylor_coeffs(entry.function, entry.center, 41)
        est = estimate_limits(convergence_table(series, 40), sc(tol))
        q0, q1 = known_asymptote(entry.function)
        assert abs(est.q0.as_fraction() - q0.as_fraction()) <= tol
        assert abs(est.q1.as_fraction() - q1.as_fraction()) <= tol
