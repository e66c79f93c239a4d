"""Reading JSON input files one element at a time, and naming the line of a
file that is not UTF-8 text.

``JSONStream`` reads one JSON document from a text file as ``json.load``
does, but holds only a window of its text: an array comes out one element
at a time, each decoded whole by the C scanner, so memory grows with the
largest element, not with the file. A syntax error is the
``JSONDecodeError`` that ``json.load`` raises on the whole file, with its
message, line, column and character (tests compare them with json.loads
on documents broken at random); an undecodable byte anywhere in the file
comes before it, as in a whole-file read. ``build_each`` keeps the rest of json.load's order: a
refusal of an element waits until the rest of the file has been read.
"""

from __future__ import annotations

import json
import re
from json.decoder import WHITESPACE

from .errors import DatasetError, EncodingError

# Characters a stream reads at a time. The window holds the text from the
# next unread character; it grows past this only to hold one element, and
# then at least doubles at each read.
WINDOW = 65536

_scan = json.JSONDecoder().scan_once
# The characters that can go on a number: a value followed by only these up
# to the window's end may go on past it.
_NUMBER_RUN = re.compile(r"[-+.eE0-9]*")


class JSONStream:
    """One JSON document of a seekable text file, read through a bounded window.

    ``peek`` gives the next character past white space. At an array
    (``[``) the caller may iterate ``items``, at an object (``{``)
    ``members``, and read each key's value with ``value`` or ``items``;
    ``value`` decodes anything whole. When the document's outermost value
    ends, only white space may follow it ("Extra data").
    """

    def __init__(self, handle):
        self._handle = handle
        self._text, self._at, self._eof = "", 0, False
        # Characters of the file before the window.
        self._offset = 0
        self._depth = 0
        self._more()
        if self._text.startswith("\ufeff"):
            raise self._error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)

    def _more(self) -> bool:
        """Drop the text before the next unread character and read at least
        as much again as is left; False at the end of the file."""
        if self._eof:
            return False
        text, at = self._text, self._at
        self._offset += at
        chunk = self._handle.read(max(WINDOW, len(text) - at))
        self._text, self._at, self._eof = text[at:] + chunk, 0, not chunk
        return not self._eof

    def _error(self, message: str, at: int) -> json.JSONDecodeError:
        """json.load's error for ``message`` at window index ``at``, once the
        rest of the file has decoded; the text before the window is read
        again to place it."""
        while self._handle.read(WINDOW):
            pass
        self._handle.seek(0)
        before = self._handle.read(self._offset)
        return json.JSONDecodeError(message, before + self._text, self._offset + at)

    def peek(self) -> str:
        """The next character past white space, or "" at the end of the file."""
        while True:
            self._at = WHITESPACE.match(self._text, self._at).end()
            if self._at < len(self._text) or not self._more():
                return self._text[self._at:self._at + 1]

    def value(self):
        """The next value, decoded whole."""
        while True:
            text = self._text
            at = self._at = WHITESPACE.match(text, self._at).end()
            try:
                value, end = _scan(text, at)
            except StopIteration as stop:
                failure = ("Expecting value", stop.value)
            except json.JSONDecodeError as exc:
                failure = (exc.msg, exc.pos)
            else:
                if self._eof or _NUMBER_RUN.match(text, end).end() < len(text):
                    self._at = end
                    self._done()
                    return value
                failure = None
            # The window's end may cut the value short, or make it fail: read
            # more and scan again. At the end of the file a failure is real.
            if failure and self._eof:
                raise self._error(*failure)
            self._more()

    def items(self):
        """The elements of the array that opens at the next character."""
        self._at += 1
        self._depth += 1
        if self.peek() == "]":
            self._at += 1
        else:
            yield self.value()
            while not self._after("]"):
                yield self.value()
        self._depth -= 1
        self._done()

    def members(self):
        """The keys of the object that opens at the next character; the
        caller reads each key's value before it asks for the next key."""
        self._at += 1
        self._depth += 1
        if self.peek() == "}":
            self._at += 1
        else:
            yield self._key()
            while not self._after("}"):
                yield self._key()
        self._depth -= 1
        self._done()

    def _key(self) -> str:
        if self.peek() != '"':
            raise self._error("Expecting property name enclosed in double quotes", self._at)
        key = self.value()
        if self.peek() != ":":
            raise self._error("Expecting ':' delimiter", self._at)
        self._at += 1
        return key

    def _after(self, close: str) -> bool:
        """Read the comma after an element (False) or the ``close`` after the last (True)."""
        char = self.peek()
        if char not in (",", close):
            raise self._error("Expecting ',' delimiter", self._at)
        self._at += 1
        return char == close

    def _done(self) -> None:
        """Past the document's outermost value, only white space may follow."""
        if not self._depth and self.peek():
            raise self._error("Extra data", self._at)


def build_each(pairs, build) -> list:
    """``build(*pair)`` of every pair of the iterator ``pairs``, in order. A
    DatasetError from ``build`` is raised once the rest of ``pairs`` is read,
    so a syntax error anywhere in the file comes first, as with json.load."""
    built = []
    for pair in pairs:
        try:
            built.append(build(*pair))
        except DatasetError:
            for _ in pairs:
                pass
            raise
    return built


def not_utf8(path: str, error: UnicodeDecodeError) -> EncodingError:
    """The error for a file that is not UTF-8: its path and the line of its
    first undecodable byte, lines counted as a text-mode read counts them."""
    number = 0
    with open(path, "rb") as handle:
        for chunk in handle:
            for line in chunk.splitlines():
                number += 1
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    return EncodingError(f"{path}: line {number}: not UTF-8: {exc}")
    return EncodingError(f"{path}: not UTF-8: {error}")
