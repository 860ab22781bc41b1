import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpower import cli, identities
from invpower.identities import (
    ALTERNATING_CONVOLUTION_CLOSED,
    ALTERNATING_ROW_PREFIX,
    CONVOLUTION_SHIFT_FAMILY,
    FACTORIAL_DOMINANCE,
    HOCKEY_STICK,
    IDENTITY_IDS,
    WEIGHTED_CONVOLUTION_CLOSED,
    WEIGHTED_SHIFT_FAMILY,
    IdentityCase,
    SuiteRanges,
    run_suite,
)

from _oracles import comb0, identity_cases


def _at(m, k):
    """The per-m kernels' shared values at m, on a band and a table just
    large enough for the pair (m, k), k >= 1."""
    return identities._shared(m, k, identities._band(k, m), identities._table(k, m))


def _run_kernel(name, m, k):
    """A family kernel's sides at one (m, k) alone: the per-m kernels take
    m and the k vector [k], the row prefix takes k and the m vector [m]."""
    kernel = getattr(identities, name)
    if name == "_alternating_row_prefix":
        return kernel(k, [m], identities._band(k, m))
    return kernel(m, [k], _at(m, k))


# identity -> (family kernel name, index of a tuple's right side vector)
_ENTRY = {
    FACTORIAL_DOMINANCE: ("_factorial_dominance", lambda p: p["n"]),
    ALTERNATING_ROW_PREFIX: ("_alternating_row_prefix", lambda p: 0),
    CONVOLUTION_SHIFT_FAMILY: ("_convolution", lambda p: p["a"]),
    ALTERNATING_CONVOLUTION_CLOSED: ("_convolution", lambda p: -1),
    HOCKEY_STICK: ("_hockey_stick", lambda p: 0),
    WEIGHTED_SHIFT_FAMILY: ("_weighted_shift", lambda p: p["a"] - 1),
    WEIGHTED_CONVOLUTION_CLOSED: ("_weighted_convolution", lambda p: 0),
}


def _kernel_case(identity_id, params):
    """One admissible tuple's case, read from its family kernel's vectors
    at the one pair (m, k)."""
    name, entry = _ENTRY[identity_id]
    lhs, rhs = _run_kernel(name, params["m"], params["k"])
    assert len(lhs) == 1 and all(len(row) == 1 for row in rhs)
    lhs, rhs = lhs[0], rhs[entry(params)][0]
    holds = lhs > rhs if identity_id == FACTORIAL_DOMINANCE else lhs == rhs
    return IdentityCase(identity_id, params, lhs, rhs, holds)


def _fields(case):
    return case.identity_id, list(case.params.items()), case.lhs, case.rhs, case.passed


def _case(identity_id, **params):
    """``_kernel_case``, after checking it against the literal oracle's
    case field by field, params in order."""
    case = _kernel_case(identity_id, params)
    oracle = next(IdentityCase(*c) for c in identity_cases(params["m"], params["k"])[0]
                  if c[:2] == (identity_id, params))
    assert _fields(case) == _fields(oracle)
    return case


# ---------------------------------------------------------------------------
# spot values (each side worked out by hand or direct summation)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,k,lhs,rhs", [
    (5, 0, 1, 1),
    (5, 2, 6, 6),        # 1 - 5 + 10
    (3, 1, -2, -2),      # 1 - 3
])
def test_alternating_row_prefix_values(m, k, lhs, rhs):
    case = _case(ALTERNATING_ROW_PREFIX, m=m, k=k)
    assert (case.lhs, case.rhs, case.passed) == (lhs, rhs, True)


@pytest.mark.parametrize("m,k,value", [
    (0, 5, 1),
    (2, 4, 3),           # 1 - 8 + 10
    (5, 3, 0),           # right side vanishes by the zero convention
])
def test_alternating_convolution_values(m, k, value):
    case = _case(ALTERNATING_CONVOLUTION_CLOSED, m=m, k=k)
    assert case.passed and case.lhs == value == case.rhs


@pytest.mark.parametrize("m,k,value", [
    (1, 3, 3),
    (2, 2, 0),
    (3, 2, 0),
])
def test_weighted_convolution_values(m, k, value):
    case = _case(WEIGHTED_CONVOLUTION_CLOSED, m=m, k=k)
    assert case.passed and case.lhs == value == case.rhs


@pytest.mark.parametrize("m,k,n,lhs,rhs", [
    (1, 3, 0, 6, 1),
    (2, 4, 2, 24, 10),
    (0, 2, 0, 2, 1),     # smallest admissible tuple
])
def test_factorial_dominance_values(m, k, n, lhs, rhs):
    case = _case(FACTORIAL_DOMINANCE, m=m, k=k, n=n)
    assert (case.lhs, case.rhs, case.passed) == (lhs, rhs, True)


@pytest.mark.parametrize("m,k,a", [(3, 2, 0), (3, 2, 3), (4, 1, 2)])
def test_convolution_shift_values(m, k, a):
    assert _case(CONVOLUTION_SHIFT_FAMILY, m=m, k=k, a=a).passed


@pytest.mark.parametrize("m,k,a", [(3, 3, 1), (5, 4, 3), (4, 2, 2)])
def test_weighted_shift_values(m, k, a):
    assert _case(WEIGHTED_SHIFT_FAMILY, m=m, k=k, a=a).passed


@pytest.mark.parametrize("k,m,lhs", [
    (2, 4, 4),           # 1+1+1+1 = C(4,1)
    (3, 1, 1),           # single term
    (4, 3, 10),          # 1+3+6 = C(5,3)
])
def test_hockey_stick_values(k, m, lhs):
    case = _case(HOCKEY_STICK, k=k, m=m)
    assert case.passed and case.lhs == lhs


# ---------------------------------------------------------------------------
# cross checks against test-local summation
# ---------------------------------------------------------------------------


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=18), st.integers(min_value=1, max_value=18))
def test_alternating_convolution_against_local_sum(m, k):
    case = _case(ALTERNATING_CONVOLUTION_CLOSED, m=m, k=k)
    local = sum((-1) ** n * comb0(m, n) * comb0(k + n - 1, n) for n in range(m + 1))
    assert case.lhs == local
    assert case.rhs == (-1) ** m * comb0(k - 1, m)
    assert case.passed


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=15), st.integers(min_value=1, max_value=15))
def test_shift_family_right_side_independent_of_a(m, k):
    """Every shift depth gives the same right side; the deepest one is the
    closed form."""
    values = [_case(CONVOLUTION_SHIFT_FAMILY, m=m, k=k, a=a).rhs for a in range(m + 1)]
    assert len(set(values)) == 1
    assert values[0] == _case(ALTERNATING_CONVOLUTION_CLOSED, m=m, k=k).rhs


# ---------------------------------------------------------------------------
# the suite runner
# ---------------------------------------------------------------------------


def test_suite_small_ranges_all_pass():
    report = run_suite(SuiteRanges(tuple(range(11)), tuple(range(11))))
    assert report.failed == 0
    assert report.failures == []
    assert report.passed == report.total
    assert report.total > 0
    assert report.skipped > 0


def test_suite_empty_ranges():
    report = run_suite(SuiteRanges((), ()))
    assert report.total == 0
    assert report.passed == 0
    assert report.failed == 0


def test_suite_inadmissible_tuples_are_skipped_not_failed():
    # every (m, k) in this range is inadmissible for most identities
    report = run_suite(SuiteRanges((0,), (0,)))
    assert report.failed == 0
    assert report.skipped >= 5


def test_suite_report_serializes_with_contract_fields():
    report = run_suite(SuiteRanges(tuple(range(4)), tuple(range(4))))
    payload = report.to_json_dict()
    text = json.dumps(payload)
    assert json.loads(text) == payload
    assert set(payload) == {"total", "passed", "failed", "skipped", "failures"}
    case = _case(ALTERNATING_CONVOLUTION_CLOSED, m=2, k=4).to_json_dict()
    assert set(case) == {"identity_id", "params", "lhs", "rhs", "pass"}
    assert case["identity_id"] == ALTERNATING_CONVOLUTION_CLOSED
    assert case["identity_id"] in IDENTITY_IDS
    assert case["pass"] is True
    assert isinstance(case["lhs"], str)


# ---------------------------------------------------------------------------
# walked kernels against the literal oracle sums
# ---------------------------------------------------------------------------


def _assert_cases_match_oracle(m, k):
    """Every admissible tuple at (m, k), in suite order: the case read from
    its family kernel's row equals the literal sums' case field by field,
    params in order."""
    cases, skipped = identity_cases(m, k)
    for case in cases:
        assert _fields(_kernel_case(*case[:2])) == _fields(IdentityCase(*case)), (m, k)
    return len(cases), skipped


def test_every_tuple_matches_literal_oracle_up_to_m20_k30():
    total = skipped = 0
    for m in range(21):
        for k in range(31):
            cases, skips = _assert_cases_match_oracle(m, k)
            total += cases
            skipped += skips
    report = run_suite(SuiteRanges(tuple(range(21)), tuple(range(31))))
    assert (report.total, report.passed, report.failed, report.skipped) \
        == (total, total, 0, skipped)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=60))
def test_single_pair_matches_literal_oracle(m, k):
    total, skipped = _assert_cases_match_oracle(m, k)
    report = run_suite(SuiteRanges((m,), (k,)))
    assert (report.total, report.passed, report.failed, report.skipped) \
        == (total, total, 0, skipped)


def test_unordered_ranges_with_negatives_match_single_pairs_and_oracle():
    """The band is sized by the largest m and k, not the last, and no
    negative m or k reads a band row or column from the far end."""
    m_values, k_values = (9, 3, -1, 14), (30, 0, 2, -2, 17)
    total = skipped = 0
    for m in m_values:
        for k in k_values:
            cases, skips = identity_cases(m, k)
            single = run_suite(SuiteRanges((m,), (k,)))
            assert (single.total, single.passed, single.skipped) == (len(cases), len(cases), skips)
            total += len(cases)
            skipped += skips
    report = run_suite(SuiteRanges(m_values, k_values))
    assert (report.total, report.passed, report.failed, report.skipped) \
        == (total, total, 0, skipped)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=12), max_size=6),
       st.lists(st.integers(min_value=-3, max_value=20), max_size=6))
def test_arbitrary_ranges_count_as_their_single_pairs_and_oracle(m_values, k_values):
    """Unordered m and k sequences with duplicates and negatives: the
    suite's counts are the sums over the single-pair runs and over the
    literal oracle's tuples, so no k is misread when the k values are
    batched (nor m, for the row prefix)."""
    report = run_suite(SuiteRanges(m_values, k_values))
    singles = [run_suite(SuiteRanges((m,), (k,))) for m in m_values for k in k_values]
    oracle = [identity_cases(m, k) for m in m_values for k in k_values]
    counts = (report.total, report.passed, report.failed, report.skipped)
    single = [(r.total, r.passed, r.failed, r.skipped) for r in singles]
    assert counts == tuple(sum(c[i] for c in single) for i in range(4))
    total = sum(len(cases) for cases, _ in oracle)
    assert counts == (total, total, 0, sum(skipped for _, skipped in oracle))
    assert report.failures == []


# ---------------------------------------------------------------------------
# failure path: a kernel returning one wrong right side
# ---------------------------------------------------------------------------


def _oracle_lhs(identity_id, params):
    return next(c[2] for c in identity_cases(params["m"], params["k"])[0]
                if c[:2] == (identity_id, params))


def _break(monkeypatch, kernel, wrong):
    """Patch one family kernel so that the right side vectors it returns
    for its first argument ``outer`` are edited by ``wrong[outer]``, a list
    of (vector element, right side index) pairs: the entry is set to the
    left side + 1, which fails the equalities and the strict inequality
    alike.  The per-m kernels' first argument is m and their vectors run
    over k; the row prefix's are k and m."""
    original = getattr(identities, kernel)

    def broken(outer, inner_values, at):
        lhs, rhs = original(outer, inner_values, at)
        rhs = [list(row) for row in rhs]
        for value, index in wrong.get(outer, ()):
            if value in inner_values:
                i = list(inner_values).index(value)
                rhs[index][i] = lhs[i] + 1
        return lhs, rhs

    monkeypatch.setattr(identities, kernel, broken)


@pytest.mark.parametrize("kernel,outer,value,index,identity_id,params", [
    ("_factorial_dominance", 2, 5, 1, FACTORIAL_DOMINANCE, {"m": 2, "k": 5, "n": 1}),
    ("_alternating_row_prefix", 2, 4, 0, ALTERNATING_ROW_PREFIX, {"m": 4, "k": 2}),
    ("_convolution", 3, 2, 2, CONVOLUTION_SHIFT_FAMILY, {"m": 3, "k": 2, "a": 2}),
    ("_convolution", 3, 2, -1, ALTERNATING_CONVOLUTION_CLOSED, {"m": 3, "k": 2}),
    ("_hockey_stick", 2, 3, 0, HOCKEY_STICK, {"k": 3, "m": 2}),
    ("_weighted_shift", 5, 4, 2, WEIGHTED_SHIFT_FAMILY, {"m": 5, "k": 4, "a": 3}),
    ("_weighted_convolution", 4, 3, 0, WEIGHTED_CONVOLUTION_CLOSED, {"m": 4, "k": 3}),
])
def test_suite_reports_one_wrong_right_side(monkeypatch, kernel, outer, value, index,
                                             identity_id, params):
    """One wrong entry in one family kernel's right side vectors is one
    failure, with that tuple's params in order and its literal left side."""
    ranges = SuiteRanges(tuple(range(7)), tuple(range(7)))
    clean = run_suite(ranges)
    lhs = _oracle_lhs(identity_id, params)
    _break(monkeypatch, kernel, {outer: [(value, index)]})
    report = run_suite(ranges)
    assert report.failed == 1
    assert report.failures == [IdentityCase(identity_id, params, lhs, lhs + 1, False)]
    assert list(report.failures[0].params) == list(params)
    assert (report.total, report.skipped) == (clean.total, clean.skipped)
    assert report.passed == report.total - 1


# wrong right sides at (m, k) = (3, 2) and (4, 1): the shift family at two
# shift depths each, and the row prefix, which runs one k at a time
_ORDER_BREAKS = {"_convolution": {3: [(2, 3), (2, 1)], 4: [(1, 0), (1, 4)]},
                 "_alternating_row_prefix": {2: [(3, 0)], 1: [(4, 0)]}}
_ORDER_FAILURES = [  # (m, k, family, inner parameter) order
    (ALTERNATING_ROW_PREFIX, {"m": 3, "k": 2}),
    (CONVOLUTION_SHIFT_FAMILY, {"m": 3, "k": 2, "a": 1}),
    (CONVOLUTION_SHIFT_FAMILY, {"m": 3, "k": 2, "a": 3}),
    (ALTERNATING_ROW_PREFIX, {"m": 4, "k": 1}),
    (CONVOLUTION_SHIFT_FAMILY, {"m": 4, "k": 1, "a": 0}),
    (CONVOLUTION_SHIFT_FAMILY, {"m": 4, "k": 1, "a": 4}),
]


def test_failures_come_in_m_k_family_inner_order(monkeypatch, capsys):
    """Failures from two families, at two (m, k) pairs and two inner
    parameters each, come out in (m, k, family, inner) order, m and k in
    range order, whatever order the kernels found them in; in the CLI's
    CSV lines and JSON list alike."""
    for kernel, wrong in _ORDER_BREAKS.items():
        _break(monkeypatch, kernel, wrong)
    expected = [IdentityCase(identity_id, params, lhs, lhs + 1, False)
                for identity_id, params in _ORDER_FAILURES
                for lhs in [_oracle_lhs(identity_id, params)]]
    report = run_suite(SuiteRanges(tuple(range(5)), tuple(range(5))))
    assert report.failures == expected
    assert [list(c.params) for c in report.failures] == [list(p) for _, p in _ORDER_FAILURES]
    # the m and k ranges' own order, not sorted order, is what counts
    backwards = run_suite(SuiteRanges(tuple(range(4, -1, -1)), tuple(range(4, -1, -1))))
    assert backwards.failures == expected[3:] + expected[:3]
    assert cli.main(["verify-identities", "--m-max", "4", "--k-max", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:8] == [
        *(f"{c.identity_id},{';'.join(f'{k}={v}' for k, v in c.params.items())},"
          f"{c.lhs},{c.rhs},false" for c in expected),
        f"# total={report.total}"]
    assert cli.main(["verify-identities", "--m-max", "4", "--k-max", "4",
                     "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == [c.to_json_dict() for c in expected]


# ---------------------------------------------------------------------------
# side independence: a fault in one side's code shows in every family
# ---------------------------------------------------------------------------


def _band_plus_one(original):
    def band(*args):
        return [[value + 1 for value in row] for row in original(*args)]
    return band


def _row_plus_one(original):
    def row(*args):
        return [value + 1 for value in original(*args)]
    return row


@pytest.mark.parametrize("name,perturbed,side,families", [
    ("comb", lambda original: lambda n, k: original(n, k) - 1, "lhs", set(IDENTITY_IDS)),
    ("_band", _band_plus_one, "rhs", set(IDENTITY_IDS)),
    ("_signed_row", _row_plus_one, "rhs", {CONVOLUTION_SHIFT_FAMILY, WEIGHTED_SHIFT_FAMILY}),
], ids=["literal-comb", "walked-band", "walked-row"])
def test_perturbing_one_side_fails_every_family_that_reads_it(monkeypatch, name, perturbed,
                                                              side, families):
    """``comb`` feeds only the left sides and the band and signed rows
    only the right sides: each failure keeps the other side at its oracle
    value, and every family that reads the perturbed code fails."""
    ranges = SuiteRanges(tuple(range(8)), tuple(range(8)))
    monkeypatch.setattr(identities, name, perturbed(getattr(identities, name)))
    report = run_suite(ranges)
    assert {case.identity_id for case in report.failures} == families
    oracle = {(identity_id, tuple(params.items())): (lhs, rhs)
              for m in ranges.m_values for k in ranges.k_values
              for identity_id, params, lhs, rhs, _ in identity_cases(m, k)[0]}
    for case in report.failures:
        lhs, rhs = oracle[case.identity_id, tuple(case.params.items())]
        if side == "lhs":
            assert case.rhs == rhs and case.lhs != lhs
        else:
            assert case.lhs == lhs and case.rhs != rhs
