"""Exception types shared across the package, and the text-file readers
that turn undecodable bytes into one of them."""
from __future__ import annotations

from typing import BinaryIO, Iterator


class EvicredError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeError(EvicredError):
    """Operands have incompatible dimensions; the message names both shapes."""


class ContractError(EvicredError):
    """A caller violated a documented precondition."""


class DegenerateInputError(EvicredError):
    """Input is structurally valid but too empty or too uniform to process."""


class ParseError(EvicredError):
    """A data file could not be read; the message points at the offending spot."""


class UsageError(EvicredError):
    """A caller asked for an option that does not exist."""


def text_lines(path: str) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 text file with its number, counted from 1.

    A line that is not valid UTF-8 raises ParseError naming the file and
    the line.  Lines end at "\\n" and keep their line ending.
    """
    with open(path, "rb") as fh:
        yield from file_lines(fh, path)


def file_lines(fh: BinaryIO, name) -> Iterator[tuple[int, str]]:
    """``text_lines`` over a binary file that is already open, from its
    current position; errors name the file as ``name``."""
    for lineno, raw in enumerate(fh, 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{name}:{lineno}: not UTF-8 text ({e.reason})") from None
        yield lineno, line
