"""OEIS b-file reading, writing and comparison.

A b-file is plain text with one "n value" pair per line, whitespace
separated, indices strictly increasing.  Lines starting with '#' are
comments and blank lines are ignored.
"""

from __future__ import annotations

import os

from .records import Record


class BFileFormatError(ValueError):
    """A malformed b-file line; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class BFile(Record):
    """Parsed b-file: ordered (index, value) pairs plus a source label."""

    __slots__ = ("entries", "source")

    def __init__(self, entries: list[tuple[int, int]], source: str = ""):
        self.entries = entries
        self.source = source

    def values_by_index(self) -> dict[int, int]:
        return dict(self.entries)

    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0


def parse_bfile(text: str, source: str = "") -> BFile:
    entries: list[tuple[int, int]] = []
    previous: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileFormatError(f"expected 'n value', got {line!r}", lineno)
        try:
            n, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise BFileFormatError(f"non-integer field in {line!r}", lineno) from None
        if previous is not None and n <= previous:
            raise BFileFormatError(f"index {n} does not increase past {previous}", lineno)
        previous = n
        entries.append((n, value))
    return BFile(entries=entries, source=source)


def load_bfile(path: str | os.PathLike) -> BFile:
    with open(path, encoding="ascii") as handle:
        return parse_bfile(handle.read(), source=str(path))


def format_bfile(entries: list[tuple[int, int]]) -> str:
    return "".join(f"{n} {value}\n" for n, value in entries)


class BFileDiff(Record):
    """Indices where the file disagrees with the computed sequence."""

    __slots__ = ("differences", "compared")

    def __init__(self, differences: list[tuple[int, int, int]] | None = None,
                 compared: int = 0):
        self.differences = [] if differences is None else differences
        self.compared = compared

    @property
    def clean(self) -> bool:
        return not self.differences


def compare_with_sequence(bfile: BFile, values: list[int], offset: int = 1) -> BFileDiff:
    """Diff file entries against values[0] = a(offset), over the overlap."""
    diff = BFileDiff()
    top = offset + len(values) - 1
    for n, file_value in bfile.entries:
        if offset <= n <= top:
            diff.compared += 1
            computed = values[n - offset]
            if computed != file_value:
                diff.differences.append((n, file_value, computed))
    return diff
