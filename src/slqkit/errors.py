"""Shared error taxonomy for the toolkit, and the admission rules for scalar
arguments that every entry point and the CLI's config check read.

Every failure mode raised by the library maps to one of the classes below;
the CLI's exit code for each is read from one table, ``slqkit.cli._EXITS``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class SlqError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(SlqError, ValueError):
    """A caller-supplied argument violates a documented precondition."""


def _integer(value, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """``value`` as an ``int`` by the integer rule: a Python or NumPy integer, never
    a bool, at least ``minimum`` and at most ``maximum`` when given; else
    :class:`InvalidArgumentError`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or minimum is not None and value < minimum):
        rule = ("an integer" if minimum is None else "a positive integer" if minimum == 1
                else f"an integer >= {minimum}")
        raise InvalidArgumentError(f"{name} must be {rule}, got {_shown(value)}")
    if maximum is not None and value > maximum:
        raise InvalidArgumentError(f"{name} must be an integer <= {maximum}, got {_shown(value)}")
    return int(value)


def _real(value, name: str, minimum: float | None = None, strict: bool = False) -> float:
    """``value`` as a ``float`` by the finite-real rule: a Python or NumPy real, never a
    bool or a string, finite (an ``int`` too large for a float is refused), ``> minimum``
    if ``strict`` else ``>= minimum`` when given; else :class:`InvalidArgumentError`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int too large for a float
        x = math.inf
    if not math.isfinite(x) or minimum is not None and (x <= minimum if strict else x < minimum):
        bound = "" if minimum is None else f" {'>' if strict else '>='} {minimum:g}"
        raise InvalidArgumentError(f"{name} must be a finite real{bound}, got {_shown(value)}")
    return x


def _shown(value) -> str:
    """``repr(value)``, or an ``int`` too long for Python to print by its digit count."""
    try:
        return repr(value)
    except ValueError:  # beyond sys.get_int_max_str_digits(); Decimal is not bound by it
        import decimal  # here, not at module level, to keep it off the package's import
        return f"an integer of {decimal.Decimal(value).adjusted() + 1} digits"


class FiniteEscapeError(SlqError):
    """A backward Riccati integration blew up before reaching the start time."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


def _finite(what: str, v, time: float | None = None) -> None:
    """Raise :class:`FiniteEscapeError` at ``time`` naming ``what`` and the first path
    (the last axis of ``v``) with a non-finite entry, if one has; the callers
    silence the overflow warnings of what they check."""
    bad = ~np.isfinite(v)
    if bad.any():
        first = int(np.argmax(bad.reshape(-1, bad.shape[-1]).any(axis=0)))
        raise FiniteEscapeError(f"{what} became non-finite, first path {first}", time=time)


class RiccatiSingularError(SlqError):
    """The control-weight operator lost definiteness / range solvability."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class RegressionSingularError(SlqError):
    """A cross-sectional regression design matrix was rank deficient."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class DriverSingularError(SlqError):
    """The regression solver's ``K`` or ``L`` failed the solvability rule at a step."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class SynthesisInfeasibleError(SlqError):
    """Feedback synthesis failed a pointwise solvability condition.

    Attributes
    ----------
    reason : str
        Which condition failed: "range" or "psd".
    offenders : list[tuple[float, int]]
        Up to 100 offending (time, path_id) pairs.
    total_offenders : int
        Total number of offending (time, path) points found.
    """

    def __init__(self, message: str, reason: str, offenders, total_offenders: int):
        super().__init__(message)
        self.reason = reason
        self.offenders = list(offenders)[:100]
        self.total_offenders = int(total_offenders)


class ConfigError(SlqError):
    """An experiment configuration is malformed; names the offending field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
