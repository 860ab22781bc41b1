"""Value semantics of the package's classes: copies and pickles are equal
values, equal fields make equal values, and the frozen classes refuse
assignment."""

import copy
import pickle
from fractions import Fraction

import pytest

from invpower.approximant import InversePowerApproximant, coeffs_closed_form
from invpower.asymptotics import ConvergenceRow, convergence_table, estimate_limits
from invpower.corpus import (
    CorpusEntry,
    HypothesisReport,
    ShiftedReciprocal,
    TailSum,
    mobius,
    shifted_reciprocal,
    tail_sum,
)
from invpower.identities import IdentityCase, SuiteRanges, SuiteReport
from invpower.scalar import Scalar
from invpower.series import TaylorSeries, series_from_rationals


def exact_series():
    return series_from_rationals(Fraction(3, 2), [1, Fraction(1, 3), -2, 5], radius_hint=4)


def float_series():
    return exact_series().to_inexact(128)


def failed_case():
    return IdentityCase("hockey_stick", {"k": 2, "m": 3}, 10, 9, False)


# name -> (a call that builds the instance afresh, a field that is frozen, or
# None for a mutable class)
VALUES = {
    "scalar exact": (lambda: Scalar(Fraction(1, 3)), "value"),
    "scalar float128": (lambda: Scalar.approx(Fraction(1, 3), 128), "precision"),
    "series exact": (exact_series, "values"),
    "series float128": (float_series, "den"),
    "approximant exact": (lambda: coeffs_closed_form(exact_series(), 3), "values"),
    "approximant float128": (lambda: coeffs_closed_form(float_series(), 3), "center"),
    "convergence row": (lambda: convergence_table(exact_series(), 3).row(2), "q0"),
    "estimate": (lambda: estimate_limits(convergence_table(exact_series(), 3),
                                         Scalar.rational(1, 10)), "m_used"),
    "reciprocal": (lambda: mobius(2, 3, 1, 2), "shift"),
    "tail sum": (lambda: tail_sum(mobius(2, 3, 1, 2), shifted_reciprocal(1, 2, 0)), "terms"),
    "hypothesis report": (lambda: HypothesisReport(Scalar.rational(5, 2)), "radius"),
    "corpus entry": (lambda: CorpusEntry("one-over-x", shifted_reciprocal(0, 1, 0),
                                         Scalar.rational(5, 4)), "center"),
    "identity case": (failed_case, "passed"),
    "suite ranges": (lambda: SuiteRanges((0, 1, 2), (3, 4)), "m_values"),
    "suite report": (lambda: SuiteReport(4, 3, 1, 2, [failed_case()]), None),
}


def same(a, b) -> None:
    """a and b are equal values of one class; Scalars of one width too."""
    assert type(a) is type(b)
    assert a == b and not a != b
    if isinstance(a, Scalar):
        assert (a.value, a.precision) == (b.value, b.precision)


@pytest.mark.parametrize("name", VALUES)
def test_copies_and_pickles_are_equal_values(name):
    value = VALUES[name][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        same(twin, value)


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_make_equal_values(name):
    make = VALUES[name][0]
    a, b = make(), make()
    assert a is not b
    same(a, b)


@pytest.mark.parametrize("name", [name for name, (_, field) in VALUES.items() if field])
def test_frozen_values_refuse_assignment(name):
    make, field = VALUES[name]
    value, before = make(), make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(before, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    same(value, before)


@pytest.mark.parametrize("make", [lambda: TaylorSeries(Scalar.rational(1), (1, 2), den=3),
                                  lambda: InversePowerApproximant(Scalar.rational(1), (1, 2),
                                                                  den=3),
                                  lambda: SuiteReport(4, 3, 1, 2, [failed_case()])])
def test_every_field_takes_part_in_equality(make):
    value = make()
    for field, old in vars(value).items():
        other = make()
        vars(other)[field] = None if old is not None else Scalar.rational(7)
        assert value != other, field
    assert value != tuple(vars(value).values())


def test_scalar_is_unhashable_and_not_iterable():
    for value in (Scalar(Fraction(1, 3)), Scalar.approx(1, 128)):
        with pytest.raises(TypeError):
            hash(value)
        with pytest.raises(TypeError):
            iter(value)


def test_replace_runs_the_checks():
    with pytest.raises(ValueError, match="^shift must be exact"):
        mobius(2, 3, 1, 2)._replace(shift=Scalar.approx(2, 64))
    with pytest.raises(ValueError, match="^tail sum needs at least one term$"):
        tail_sum(mobius(2, 3, 1, 2))._replace(terms=())
    assert isinstance(mobius(2, 3, 1, 2)._replace(weight=Scalar.rational(2)), ShiftedReciprocal)
    assert isinstance(TailSum._make([(mobius(2, 3, 1, 2),)]), TailSum)


def test_records_are_named_tuples():
    entry = CorpusEntry("one-over-x", shifted_reciprocal(0, 1, 0), Scalar.rational(1))
    assert entry == tuple(entry) and entry._fields == ("name", "function", "center")
    assert ConvergenceRow._fields == ("m", "q0", "q1", "delta0", "delta1")


def test_repr_names_every_field_in_order():
    assert repr(exact_series()) == (
        "TaylorSeries(center=Scalar(3/2), values=(3, 1, -6, 15), den=3, radius_hint=Scalar(4))")
    assert repr(float_series()) == (
        "TaylorSeries(center=Scalar(1.5, prec=128), values=((0, 1, 0, 1), "
        "(0, 6923062478046436838040661772293461, -114, 113), (1, 1, 1, 1), (0, 5, 0, 3)), "
        "den=None, radius_hint=Scalar(4))")
    assert repr(InversePowerApproximant(Scalar.rational(1), (1, -2), den=3)) == (
        "InversePowerApproximant(center=Scalar(1), values=(1, -2), den=3)")
    assert repr(SuiteReport(4, 3, 1, 2, [failed_case()])) == (
        "SuiteReport(total=4, passed=3, failed=1, skipped=2, failures=[IdentityCase("
        "identity_id='hockey_stick', params={'k': 2, 'm': 3}, lhs=10, rhs=9, passed=False)])")


def test_a_series_never_equals_an_approximant():
    """Equal center, values and den do not make a series equal to an
    approximant: each compares only with its own class."""
    center = Scalar.rational(1)
    series = TaylorSeries(center, (1, -2), den=3)
    approx = InversePowerApproximant(center, (1, -2), den=3)
    assert (series.center, series.values, series.den) == (approx.center, approx.values, approx.den)
    assert series != approx and approx != series
    assert not series == approx and not approx == series
    assert series.__eq__(approx) is NotImplemented and approx.__eq__(series) is NotImplemented
