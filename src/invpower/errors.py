"""Exception types shared across the package."""

from __future__ import annotations


class PoleError(ZeroDivisionError):
    """A function or approximant was used at one of its poles."""


class CoefficientFileError(ValueError):
    """A coefficient file failed to parse; the message names the field."""
