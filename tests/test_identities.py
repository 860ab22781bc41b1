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


def _at(m, k, shared="_shared"):
    """The per-m kernels' shared values at m, on a band and a table just
    large enough for the pair (m, k), k >= 1: ``_dominance`` for the
    factorial dominance kernel, ``_shared`` for the others."""
    columns = identities._Columns(identities._band(k, m), identities._table(k, m + 1))
    return getattr(identities, shared)(m, k, columns)


def _run_kernel(name, m, k):
    """A family kernel's packed sides at one (m, k) alone, and what it
    read: the per-m kernels take m and pack over the k slots 0..k, the row
    prefix takes k and packs over the m slots 1..m."""
    kernel = getattr(identities, name)
    if name == "_alternating_row_prefix":
        at = identities._prefix(k, list(range(1, m + 1)), identities._band(k, m))
        return kernel(k, at), at
    at = _at(m, k, "_dominance" if name == "_factorial_dominance" else "_shared")
    return kernel(m, at), at


# identity -> (family kernel name, index of a tuple's right side)
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
    """One admissible tuple's case, read from one slot of its family
    kernel's packed sides at the one pair (m, k): the slot of k, or of m
    for the row prefix."""
    name, entry = _ENTRY[identity_id]
    (lhs, rhs), at = _run_kernel(name, params["m"], params["k"])
    slot = at.values.index(params["m"] if identity_id == ALTERNATING_ROW_PREFIX else params["k"])
    lhs, rhs = (identities._slot(side, slot, at.width) for side in (lhs, rhs[entry(params)]))
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
    """Patch one family kernel so that the packed right sides it returns
    for its first argument ``outer`` are edited by ``wrong[outer]``, a list
    of (slot value, right side index) pairs: the slot is set to the left
    side's slot + 1, which fails the equalities and the strict inequality
    alike.  The per-m kernels' first argument is m and their slots hold k;
    the row prefix's are k and m."""
    original = getattr(identities, kernel)

    def broken(outer, at):
        lhs, rhs = original(outer, at)
        rhs = list(rhs)
        for value, index in wrong.get(outer, ()):
            slot = at.values.index(value)
            left, right = (identities._slot(side, slot, at.width) for side in (lhs, rhs[index]))
            rhs[index] += left + 1 - right << slot * at.width
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


# ---------------------------------------------------------------------------
# packed sides: a huge wrong entry, the edge slots, and the slot width
# ---------------------------------------------------------------------------

_HUGE = 2 ** 200


def _reads_band(c, e):
    """Which cases' walked right sides read the band entry D[c][e], each
    with a nonzero weight (the family docstrings give the entries)."""
    return {
        FACTORIAL_DOMINANCE: lambda m, k, p: (k - 1, p["n"]) == (c, e),
        ALTERNATING_ROW_PREFIX: lambda m, k, p: (k, m - 1 - k) == (c, e),
        CONVOLUTION_SHIFT_FAMILY: lambda m, k, p: k - 1 - p["a"] == c and p["a"] <= e <= m,
        ALTERNATING_CONVOLUTION_CLOSED: lambda m, k, p: (k - 1 - m, m) == (c, e),
        HOCKEY_STICK: lambda m, k, p: (k - 1, m - 1) == (c, e),
        # the shifted sum, then the correction's C(k, r) = D[k-r][r], r <= a
        WEIGHTED_SHIFT_FAMILY: lambda m, k, p: (k - 1 - p["a"] == c and p["a"] < e < m
                                                or 1 <= e <= p["a"] and k - e == c),
        WEIGHTED_CONVOLUTION_CLOSED: lambda m, k, p: k - 1 - m == c and e in (m - 1, m),
    }


def _reads_table(k0, n0):
    """Which cases' literal left sides read the table entry T[k0][n0]."""
    return {
        FACTORIAL_DOMINANCE: lambda m, k, p: (k - m, m + 1) == (k0, n0),
        ALTERNATING_ROW_PREFIX: lambda m, k, p: False,
        CONVOLUTION_SHIFT_FAMILY: lambda m, k, p: k == k0 and n0 <= m,
        ALTERNATING_CONVOLUTION_CLOSED: lambda m, k, p: k == k0 and n0 <= m,
        HOCKEY_STICK: lambda m, k, p: k - 1 == k0 and n0 < m,
        WEIGHTED_SHIFT_FAMILY: lambda m, k, p: k == k0 and 1 <= n0 <= m - 1,
        WEIGHTED_CONVOLUTION_CLOSED: lambda m, k, p: k == k0 and 1 <= n0 <= m,
    }


def _reads_row(m0, j0):
    """Which cases read the signed row entry (-1)^j0 C(m0, j0): at m0, row
    a >= 1 is a prefix sum of row a-1, so the entry reaches row a at every
    j in j0..m0-a with weights of one sign; a right side reads row a over
    j = 0..m0-a (the weighted family from j = 2), and only for a <= k-1."""
    return {
        **{identity_id: lambda m, k, p: False for identity_id in IDENTITY_IDS},
        CONVOLUTION_SHIFT_FAMILY: lambda m, k, p: m == m0 and p["a"] <= min(m0 - j0, k - 1),
        WEIGHTED_SHIFT_FAMILY: lambda m, k, p: m == m0 and p["a"] <= min(m0 - max(2, j0), k - 1),
    }


def _plus_huge(name, where, delta):
    """``name``'s function with ``delta`` added to one entry of what it
    returns: ``where`` is (row, column), or (m, j) for ``_signed_row``."""
    original = getattr(identities, name)
    if name == "_signed_row":
        def perturbed(m):
            row = original(m)
            if m == where[0]:
                row[where[1]] += delta
            return row
    else:
        def perturbed(*args):
            rows = original(*args)
            rows[where[0]][where[1]] += delta
            return rows
    return perturbed


@pytest.mark.parametrize("name,where,delta,reads,side,families", [
    ("_band", (3, 2), _HUGE, _reads_band, "rhs", set(IDENTITY_IDS)),
    ("_table", (6, 4), _HUGE, _reads_table, "lhs",
     set(IDENTITY_IDS) - {FACTORIAL_DOMINANCE, ALTERNATING_ROW_PREFIX}),
    ("_table", (2, 3), -_HUGE, _reads_table, "lhs", set(IDENTITY_IDS) - {ALTERNATING_ROW_PREFIX}),
    ("_signed_row", (6, 2), _HUGE, _reads_row, "rhs",
     {CONVOLUTION_SHIFT_FAMILY, WEIGHTED_SHIFT_FAMILY}),
], ids=["band", "table", "table-negative", "signed-row"])
def test_a_huge_wrong_entry_fails_exactly_the_cases_that_read_it(monkeypatch, name, where, delta,
                                                               reads, side, families):
    """2^200 added to one band, table or signed row entry: the slot width
    comes from the values actually read, so the wrong value widens every
    slot instead of carrying into a neighbour.  Exactly the cases that
    read the entry fail, each with the oracle's other side.  (The first
    table entry is one no factorial-dominance case of the range reads: a
    larger left side would still dominate; -2^200 on the second makes a
    negative entry, which is packed biased, and fails that family too.)
    At m = 6 the wrong signed row asks for a wider slot than the larger m
    before it, so the columns are packed again."""
    ranges = SuiteRanges(tuple(range(9)), tuple(range(9)))
    oracle = {(identity_id, tuple(params.items())): (lhs, rhs)
              for m in ranges.m_values for k in ranges.k_values
              for identity_id, params, lhs, rhs, _ in identity_cases(m, k)[0]}
    reading = reads(*where)
    expected = {(identity_id, params) for identity_id, params in oracle
                for p in [dict(params)] if reading[identity_id](p["m"], p["k"], p)}
    assert {identity_id for identity_id, _ in expected} == families
    clean = run_suite(ranges)
    monkeypatch.setattr(identities, name, _plus_huge(name, where, delta))
    report = run_suite(ranges)
    assert {(c.identity_id, tuple(c.params.items())) for c in report.failures} == expected
    assert (report.failed, report.total, report.skipped) == (len(expected), clean.total,
                                                             clean.skipped)
    for case in report.failures:
        lhs, rhs = oracle[case.identity_id, tuple(case.params.items())]
        if side == "lhs":
            assert case.rhs == rhs and case.lhs != lhs
        else:
            assert case.lhs == lhs and case.rhs != rhs


def test_wrong_entries_at_the_edge_slots_of_duplicate_unordered_ranges(monkeypatch):
    """Wrong right sides in the lowest and the highest admissible slot of
    three families, over unordered m and k ranges with duplicates and a
    negative k: each range position's case fails once, in (m, k, family,
    inner) order of the range positions."""
    m_values, k_values = (4, 2, 4), (6, 1, 4, 6, 1, -1, 4)
    ranges = SuiteRanges(m_values, k_values)
    clean = run_suite(ranges)
    # m = 2: shift depth a = 1 at k = 1 and 6, dominance n = 0 at k = 4 and 6;
    # k = 1: the row prefix at m = 2 and 4
    _break(monkeypatch, "_convolution", {2: [(1, 1), (6, 1)]})
    _break(monkeypatch, "_factorial_dominance", {2: [(4, 0), (6, 0)]})
    _break(monkeypatch, "_alternating_row_prefix", {1: [(2, 0), (4, 0)]})
    wrong = [(CONVOLUTION_SHIFT_FAMILY, {"m": 2, "k": 1, "a": 1}),
             (CONVOLUTION_SHIFT_FAMILY, {"m": 2, "k": 6, "a": 1}),
             (FACTORIAL_DOMINANCE, {"m": 2, "k": 4, "n": 0}),
             (FACTORIAL_DOMINANCE, {"m": 2, "k": 6, "n": 0}),
             (ALTERNATING_ROW_PREFIX, {"m": 2, "k": 1}),
             (ALTERNATING_ROW_PREFIX, {"m": 4, "k": 1})]
    expected = sorted(
        ((i, j, IDENTITY_IDS.index(identity_id), [*params.values(), 0][2]),
         IdentityCase(identity_id, params, lhs, lhs + 1, False))
        for identity_id, params in wrong for lhs in [_oracle_lhs(identity_id, params)]
        for i, m in enumerate(m_values) if m == params["m"]
        for j, k in enumerate(k_values) if k == params["k"])
    assert len(expected) == 14
    report = run_suite(ranges)
    assert report.failures == [case for _, case in expected]
    assert (report.failed, report.total, report.skipped) == (14, clean.total, clean.skipped)


def test_the_row_prefix_packs_one_slot_per_m_of_the_range(monkeypatch):
    """A sparse m range gives the row prefix one slot per m of the range
    above the smallest k, not one per m up to the largest; a wrong value
    in either slot of a repeated m is one failure at each of its range
    positions."""
    seen = []
    original = identities._prefix

    def recording(*args):
        at = original(*args)
        seen.append(at.values)
        return at

    monkeypatch.setattr(identities, "_prefix", recording)
    ranges = SuiteRanges((100000, 0, 3, 3), (0,))
    report = run_suite(ranges)
    assert seen == [[3, 3, 100000]]
    assert (report.total, report.passed, report.failed, report.skipped) == (3, 3, 0, 25)
    original_kernel = identities._alternating_row_prefix
    case = IdentityCase(ALTERNATING_ROW_PREFIX, {"m": 3, "k": 0}, 1, 2, False)
    for slots in ([0], [1], [0, 1]):  # the slots of m = 3, one above the left side
        def broken(k, at, slots=slots):
            lhs, (rhs,) = original_kernel(k, at)
            return lhs, [rhs + sum(1 << slot * at.width for slot in slots)]

        monkeypatch.setattr(identities, "_alternating_row_prefix", broken)
        report = run_suite(ranges)
        assert report.failures == [case, case]
        assert (report.passed, report.failed) == (1, 2)


def _widths(m_top, k_top):
    """The slot width of the per-m kernels at m = 0..m_top and of the
    factorial dominance kernel at each m it runs at, each on its own
    columns, and the row prefix's, on a band and table for k <= k_top."""
    band, table = identities._band(k_top, m_top), identities._table(k_top, m_top + 1)

    def width(shared, m):
        return getattr(identities, shared)(m, k_top, identities._Columns(band, table)).width

    per_m = [width("_shared", m) for m in range(m_top + 1)] if k_top >= 1 else []
    dominance = {m: width("_dominance", m) for m in range(min(m_top + 1, k_top - 1))}
    prefix = identities._prefix(min(k_top, m_top - 1), list(range(1, m_top + 1)), band).width
    return per_m, dominance, prefix


@pytest.mark.parametrize("m_top,k_top", [(20, 30), (2, 20000), (100000, 0)],
                         ids=["square", "long-k", "long-m"])
def test_slot_width_bounds_every_oracle_side(m_top, k_top):
    """Every oracle |lhs| and |rhs| is below 2^(W-2) for the width W of its
    kernel (the module docstring's bound), and a lopsided range keeps its
    slots narrow: 48 bits at most for --m-max 2 --k-max 20000, and 8 for
    --m-max 100000 --k-max 0, where no per-m kernel runs."""
    per_m, dominance, prefix = _widths(m_top, k_top)
    need, dominance_need, prefix_need = [0] * len(per_m), dict.fromkeys(dominance, 0), 0
    for m in range(m_top + 1):
        for k in range(k_top + 1):
            for identity_id, _, lhs, rhs, _ in identity_cases(m, k)[0]:
                bits = max(abs(lhs), abs(rhs)).bit_length()
                if identity_id == ALTERNATING_ROW_PREFIX:
                    prefix_need = max(prefix_need, bits)
                elif identity_id == FACTORIAL_DOMINANCE:
                    dominance_need[m] = max(dominance_need[m], bits)
                else:
                    need[m] = max(need[m], bits)
    assert all(bits <= width - 2 for bits, width in zip(need, per_m))
    assert all(dominance_need[m] <= width - 2 for m, width in dominance.items())
    assert prefix_need <= prefix - 2
    if m_top != 20:
        assert (max(per_m, default=0), max(dominance.values(), default=0), prefix) \
            == {2: (48, 48, 8), 100000: (0, 0, 8)}[m_top]
