"""Integer compositions and the composition-of-compositions monoid.

A composition is a nonempty sequence of positive integers.  Besides plain
concatenation, compositions carry a second product: the near concatenation,
which glues the touching components together.  Iterating the near
concatenation gives the monoid operation ``compose``, under which the
composition (1) is neutral.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .limits import MAX_PART_DIGITS

Parts = tuple[int, ...]


class CompositionParseError(ValueError):
    """Raised when a composition string cannot be parsed."""


class Composition(tuple):
    """A nonempty tuple of positive integers.

    Instances are immutable, hashable and totally ordered.  The ordering is
    sequence-lexicographic: for equal lengths this is ordinary lexicographic
    comparison; a proper prefix sorts before any extension of it.  The prefix
    rule only matters for container use, every comparison of mathematical
    significance here is between compositions of equal length.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]) -> "Composition":
        self = super().__new__(cls, parts)
        if not self:
            raise ValueError("a composition needs at least one component")
        for p in self:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"components must be positive integers, got {p!r}")
        return self

    @property
    def size(self) -> int:
        """Sum of the components."""
        return sum(self)

    @property
    def length(self) -> int:
        """Number of components."""
        return len(self)

    def reverse(self) -> "Composition":
        return Composition(self[::-1])

    def is_symmetric(self) -> bool:
        return tuple(self) == self[::-1]

    def lex_min_form(self) -> "Composition":
        """The smaller of the composition and its reversal."""
        r = self[::-1]
        return self if tuple(self) <= r else Composition(r)

    def __repr__(self) -> str:
        return f"Composition({tuple(self)!r})"

    def __str__(self) -> str:
        return format_composition(self)


def _trusted_composition(parts: Iterable[int]) -> Composition:
    """A `Composition` of parts already known to be positive ints, such as
    the parts of another composition; skips the per-part check of
    ``Composition(parts)``."""
    return tuple.__new__(Composition, parts)


# --- monoid operations -------------------------------------------------------

def concatenate(alpha: Composition, beta: Composition) -> Composition:
    """Juxtapose the two part sequences."""
    return Composition(tuple(alpha) + tuple(beta))


def near_concatenate(alpha: Composition, beta: Composition) -> Composition:
    """Juxtapose, adding the last part of ``alpha`` to the first of ``beta``."""
    a, b = tuple(alpha), tuple(beta)
    return Composition(a[:-1] + (a[-1] + b[0],) + b[1:])


def _odot_power_raw(parts: Parts, n: int) -> Parts:
    # n-fold near concatenation of parts with itself; n >= 1
    if len(parts) == 1:
        return (parts[0] * n,)
    if n == 1:
        return parts
    bridge = (parts[-1] + parts[0],) + parts[1:-1]
    return parts[:-1] + bridge * (n - 1) + parts[-1:]


def odot_power(alpha: Composition, n: int) -> Composition:
    """The n-fold near concatenation of ``alpha`` with itself."""
    if n < 1:
        raise ValueError("power must be a positive integer")
    return Composition(_odot_power_raw(tuple(alpha), n))


def _compose_raw(a: Parts, b: Parts) -> Parts:
    if b == (1,):
        return a
    out: list[int] = []
    for x in a:
        out.extend(_odot_power_raw(b, x))
    return tuple(out)


def compose(alpha: Composition, beta: Composition) -> Composition:
    """The monoid product: concatenate the a_i-fold near powers of ``beta``.

    Size is multiplicative and the length of the result is
    ``length(alpha) + size(alpha) * (length(beta) - 1)``.
    """
    return Composition(_compose_raw(tuple(alpha), tuple(beta)))


def compare_lex(alpha: Composition, beta: Composition) -> int:
    """-1, 0 or 1 as ``alpha`` sorts before, equal to, or after ``beta``."""
    a, b = tuple(alpha), tuple(beta)
    if a == b:
        return 0
    return -1 if a < b else 1


def lex_min_form(alpha: Composition) -> Composition:
    """The smaller of ``alpha`` and its reversal."""
    a = tuple(alpha)
    return Composition(min(a, a[::-1]))


# --- enumeration -------------------------------------------------------------

# cut-mask bits decoded once into the low-half table of `composition_parts_in_range`
_LOW_BITS = 10


def composition_parts_from_mask(n: int, mask: int) -> Parts:
    """Parts of the composition of ``n`` encoded by a cut-point bitmask.

    Bit ``i`` of ``mask`` (least significant bit is ``i = 0``) set means that
    a new part starts after position ``i + 1``.  Mask 0 is ``(n)`` and mask
    ``2**(n-1) - 1`` is the all-ones composition.  This step-by-step decode
    builds the tables of `composition_parts_in_range`, which enumerates in
    bulk.
    """
    parts: list[int] = []
    prev = 0
    for i in range(n - 1):
        if mask >> i & 1:
            parts.append(i + 1 - prev)
            prev = i + 1
    parts.append(n - prev)
    return tuple(parts)


def composition_parts_in_range(n: int, lo: int, hi: int) -> Iterator[Parts]:
    """Parts of the compositions of ``n`` with cut masks in ``[lo, hi)``, in
    ascending mask order; ``composition_parts_from_mask(n, m)`` for each m.

    The low ``_LOW_BITS`` bits of a mask give the parts of the first
    ``_LOW_BITS + 1`` positions, read from a table of at most 2^_LOW_BITS
    entries.  The next bit is the seam: set, the high bits' parts follow the
    low parts; clear, the first high part is added to the last low part, so
    the tables for clear seams are keyed by that first high part.  Each
    composition then costs one tuple concatenation.
    """
    k = _LOW_BITS
    if n - 1 <= k:
        yield from map(composition_parts_from_mask, [n] * (hi - lo), range(lo, hi))
        return
    block = 1 << k
    low = [composition_parts_from_mask(k + 1, m) for m in range(block)]
    merged: dict[int, list[Parts]] = {}
    for high in range(lo >> k, -(-hi >> k)):
        start = max(lo - (high << k), 0)
        stop = min(hi - (high << k), block)
        rest = composition_parts_from_mask(n - k - 1, high >> 1)
        if high & 1:
            table, tail = low, rest
        else:
            first, tail = rest[0], rest[1:]
            table = merged.get(first)
            if table is None:
                table = merged[first] = [p[:-1] + (p[-1] + first,) for p in low]
        yield from map(tuple.__add__, table[start:stop], [tail] * (stop - start))


def enumerate_compositions(n: int) -> Iterator[Composition]:
    """All ``2**(n-1)`` compositions of ``n``, in ascending cut-mask order."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    yield from map(_trusted_composition, composition_parts_in_range(n, 0, 1 << (n - 1)))


# --- text format ---------------------------------------------------------------

def parse_composition(text: str) -> Composition:
    """Parse "1,2,1" or "(1,2,1)" into a composition.

    Components are ASCII decimal numbers of at most ``MAX_PART_DIGITS``
    digits.  Rejects zeros, negative numbers and empty input; the error
    message names the offending token.
    """
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s.strip():
        raise CompositionParseError("empty composition")
    parts: list[int] = []
    for token in s.split(","):
        tok = token.strip()
        if not (tok.isascii() and tok.isdigit()):
            raise CompositionParseError(f"invalid component {tok!r}")
        if len(tok) > MAX_PART_DIGITS:
            raise CompositionParseError(
                f"component {tok[:12]!r}... has {len(tok)} digits,"
                f" more than {MAX_PART_DIGITS}"
            )
        value = int(tok)
        if value < 1:
            raise CompositionParseError(f"component must be positive: {tok!r}")
        parts.append(value)
    return Composition(parts)


def format_composition(alpha: Iterable[int], parens: bool = False) -> str:
    """Comma-separated component list, optionally parenthesized."""
    body = ",".join(str(p) for p in alpha)
    return f"({body})" if parens else body
