"""Exception hierarchy shared across the pipeline."""

import contextlib
import csv


class RelarmError(Exception):
    """Base class for all pipeline errors."""


class ValidationError(RelarmError, ValueError):
    """Bad input: malformed files, out-of-range parameters, shape mismatches."""


class NumericalError(RelarmError, ArithmeticError):
    """Numerical failure, e.g. the eigensolver hit its iteration cap."""


@contextlib.contextmanager
def naming(where):
    """A block whose ``ValidationError``, or ``csv.Error`` from a CSV it
    reads, is raised again as a ``ValidationError`` that starts with
    ``where``: the file, or the section of one, that is at fault; a
    ``NumericalError`` is raised again as one with the same start."""
    try:
        yield
    except (ValidationError, csv.Error) as exc:
        raise ValidationError(f"{where}: {exc}") from None
    except NumericalError as exc:
        raise NumericalError(f"{where}: {exc}") from None


def shown(value) -> str:
    """``repr(value)`` for an error message; past 60 characters, its first
    60, ``…`` and its length, so a huge value still gives a short line."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}… ({len(text)} characters)"


LISTED_MAX = 20  # the elements a message quotes of a list


def listed(values) -> str:
    """The repr of the list ``values``, each element quoted by :func:`shown`;
    past :data:`LISTED_MAX` elements, the first of them and how many more."""
    more = [f"… ({len(values) - LISTED_MAX} more)"] if len(values) > LISTED_MAX else []
    return "[" + ", ".join([*map(shown, values[:LISTED_MAX]), *more]) + "]"
