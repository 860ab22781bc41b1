"""Extract the large-x behaviour f(x) ~ q0 + q1/x of a function from its
Taylor coefficients at a finite center, via inverse-power approximants
with exact closed-form binomial coefficients."""

from .approximant import (
    InversePowerApproximant,
    coeffs_closed_form,
    coeffs_via_matrix,
    evaluate,
    signed_binomial_matrix,
)
from .asymptotics import (
    AsymptoticEstimate,
    ConvergenceRow,
    ConvergenceTable,
    convergence_table,
    estimate_limits,
)
from .corpus import (
    CorpusEntry,
    CorpusFunction,
    SHIPPED_CORPUS,
    ShiftedReciprocal,
    TailSum,
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
from .errors import CoefficientFileError, PoleError
from .scalar import CancellationWarning, Scalar, binom, significand_bits
from .series import TaylorSeries, series_from_rationals
from .transforms import binomial_convolve

__version__ = "0.1.0"

_IDENTITY_NAMES = ("IdentityCase", "SuiteRanges", "SuiteReport", "run_suite")


def __getattr__(name: str):
    # the identity suite loads on first use (PEP 562): only verify-identities needs it
    if name in _IDENTITY_NAMES:
        from . import identities
        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
