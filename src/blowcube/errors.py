"""Exception hierarchy.

Every error that can escape the library carries a stable ``exit_code`` so the
command line tool can translate failures into documented process exit codes:

    3  input could not be parsed (map spec / polynomial text / JSON payload /
       a malformed ``BLOWCUBE_*`` environment value)
    4  map-level failure (no inverse strategy applies, degree cap exceeded,
       candidate inverse rejected, non-square or singular matrix)
    5  resolution failure (irrational base locus, tower height cap,
       unsupported point transport)
    6  cube complex validation failure (face closure, orientation,
       duplicate cubes, disconnected input where connectivity is required)
    8  input/output failure (unreadable file, unwritable output path)
"""

from __future__ import annotations


class BlowcubeError(Exception):
    """Base class for all structured errors raised by this package."""

    exit_code = 1


class ParseError(BlowcubeError):
    """Raised when a polynomial or map specification string is malformed."""

    exit_code = 3

    def __init__(self, message: str, text: str | None = None, pos: int | None = None):
        if text is not None and pos is not None:
            message = f"{message} (at position {pos}: {text[max(0, pos - 8):pos + 8]!r})"
        super().__init__(message)
        self.text = text
        self.pos = pos


class MapError(BlowcubeError):
    exit_code = 4


class InverseUnavailable(MapError):
    """No implemented strategy produces a verified inverse for this map."""


class DegreeCapExceeded(MapError):
    """A composite's degree passed the configured cap.

    ``partial`` holds what was finished before the cap hit, so partial
    sequences stay usable: the degrees of the iterates when a degree
    sequence was being built, the base-point counts when ``mu`` was, and
    the pair of contracted-curve count sequences when ``nu1`` was (both
    attach their counts to every soft cap they raise).
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.partial: tuple = ()


class ResolutionError(BlowcubeError):
    exit_code = 5


class IrrationalBaseLocus(ResolutionError):
    """The base locus contains points that are not defined over the rationals."""


class HeightCapExceeded(ResolutionError):
    """An infinitely-near tower climbed past the configured height cap."""


class TransportUnsupported(ResolutionError):
    """Moving a bubble point along a map would require resolving the map
    at that point (the point sits on a contracted curve, or is infinitely
    near); this implementation only transports by direct evaluation."""


class ComplexError(BlowcubeError):
    exit_code = 6


class OutputError(BlowcubeError):
    exit_code = 8
