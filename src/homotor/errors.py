"""Exception hierarchy shared by all homotor modules, and the one integer
rule of their arguments."""

import operator
from typing import NoReturn


class HomotorError(Exception):
    """Base class for all errors raised by this package."""


class InternalError(HomotorError):
    """Base of the checks on what homotor builds for itself: complexes,
    filtrations and pages.  No problem file reaches one, so under the CLI
    one means a bug, and ``cli.main`` exits 3 on it, not 2."""


class LengthMismatch(HomotorError):
    """Multidegrees or generator vectors of incompatible lengths."""


class CompositionNonzero(InternalError):
    """A complex whose differential does not square to zero."""


class EmptyInput(HomotorError):
    """An operation that needs a nonempty family or block received an empty one."""


class UnitIdeal(HomotorError):
    """The unit ideal was passed where a proper ideal is required."""


class BoxTooSmall(HomotorError):
    """A user-supplied degree box does not dominate the stability box."""


class MixedKinds(InternalError):
    """A complex of ideal summands J(-a) where quotient summands R/J(-a)
    are required."""


class FiltrationViolation(InternalError):
    """A differential does not preserve the given filtration."""


class InvariantBroken(InternalError):
    """An identity the engine maintains by construction failed: a bug, not bad input."""


class InvalidKind(HomotorError):
    """Unknown builder / filtration / variant / summand-kind keyword."""


class ParamOutOfRange(HomotorError):
    """Random-instance parameters outside the supported bounds."""


class ParseError(HomotorError):
    """A problem file that cannot be parsed."""


class ValidationError(HomotorError):
    """An input that parses but violates its schema: a problem file, a
    module name, or a complex outside non-negative degrees."""


class UnknownCommand(HomotorError):
    """An unrecognised CLI command."""


class internal:  # a namespace, lower case to read as ``internal.LengthMismatch``
    """The constructor checks of complexes and multicomplexes that raise an
    input class: ``internal.LengthMismatch`` is a ``LengthMismatch`` to a
    library caller and in a diagnostic's ``type``, and an ``InternalError``
    to ``cli.main``."""

    class LengthMismatch(LengthMismatch, InternalError):
        """Summands, positions or factors of another length than the complex."""

    class ValidationError(ValidationError, InternalError):
        """A summand, a position or a map entry that a complex refuses."""


def _refuse(message: str, built: bool) -> NoReturn:
    """Refuse an integer argument: with ``internal.ValidationError`` when
    homotor built the value for itself (an index, a position, an axis or a
    level a constructor of a complex reads), else with ``ValidationError``."""
    if built:
        raise internal.ValidationError(message) from None
    raise ValidationError(message) from None


def as_int(value, what: str, built: bool = False) -> int:
    """value as an int, for an argument that must be one: an exponent, a
    count, an index, a position, a level.  ``operator.index`` takes ints,
    bools and numpy integers as they are; a float or a string is refused
    with ``ValidationError``, never truncated or parsed, and with its
    ``internal`` variant when ``built`` says that homotor built the value,
    so that the CLI exits 3 on it, not 2."""
    try:
        return operator.index(value)
    except TypeError:
        _refuse(f"{what} {value!r} is not an integer", built)


def as_ints(values, what: str, built: bool = False) -> tuple:
    """values, a sequence of integers such as a degree or a position, as a
    tuple of ints by ``as_int``; a value that is not a sequence is refused
    by the same rule.  A tuple of ints is returned as it is."""
    if type(values) is tuple and {*map(type, values)} <= {int}:
        return values
    try:
        items = iter(values)
    except TypeError:
        _refuse(f"{what}s {values!r} are not a sequence", built)
    return tuple(as_int(v, what, built) for v in items)
