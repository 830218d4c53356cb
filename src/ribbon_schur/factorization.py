"""Splitting, atoms and irreducible factorization in the composition monoid.

Every composition factors uniquely into atoms with no adjacent trivial pair,
and two ribbon Schur functions are equal exactly when the factor lists agree
up to reversing individual factors (Billera, Thomas and van Willigenburg,
Adv. Math. 204, 2006).  That reduces both the equality test and the normal
form to the factorization computed here, which splits off one nontrivial
two-factor product at a time and recurses on both factors.

The split search works on the cuts of ``alpha``, its internal partial sums.
In ``beta o gamma`` with ``|gamma| = q`` and ``|beta| = m``, each block
``[jq, (j+1)q]`` holds the cuts R of ``gamma`` shifted by ``jq``, and the cuts
at multiples of q are those of ``beta`` scaled by q (a concatenation keeps
the junction, a near concatenation merges it away).  So a split with right
factor of size q exists exactly when the cuts off the multiples of q,
reduced mod q, give the same residue set R in every block.  R is read off
the first block, and the check is that all ``m |R|`` shifted copies are cuts
and the remaining cuts are multiples of q.  A right factor of length two or
more needs ``m < length(alpha)``; a single-component right factor is only
ever needed for the gcd of the parts, because adjacent single-component
atoms multiply.  For length l and size n, one split filters the m < l to
divisors of n in C, rejects each in O(1) unless its first and last blocks
both fit, and pays O(l) set lookups only for a divisor that passes: at most
O(l * #{m | n : m < l}), independent of the size of the parts.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, filterfalse, product
from math import gcd

from .compositions import Composition, Parts, _compose_raw
from .records import Record


class Factorization(Record):
    """An ordered list of atoms whose monoid product is the original composition.

    Immutable, and hashable by its factors."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Composition, ...]):
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash((self.factors,))

    def __reduce__(self):
        return Factorization, (self.factors,)

    def product(self) -> Composition:
        return Composition(reduce(_compose_raw, self.factors))

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __getitem__(self, i):
        return self.factors[i]


def is_trivial_pair(beta: Composition, gamma: Composition) -> bool:
    """True for the factorizations that carry no structure: a factor (1),
    two single-component factors, or two all-ones factors."""
    b, g = tuple(beta), tuple(gamma)
    return b == (1,) or g == (1,) or len(b) == len(g) == 1 or max(b) == max(g) == 1


def _gaps(cuts: list[int], total: int) -> Parts:
    # the composition of ``total`` whose internal partial sums are ``cuts``
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def _split(alpha: Parts) -> tuple[Parts, Parts] | None:
    """The first nontrivial (beta, gamma) with beta o gamma == alpha, or None."""
    n, c = sum(alpha), len(alpha) - 1
    if n == c + 1:
        # (1) and the all-ones compositions split only trivially
        return None
    cuts = list(accumulate(alpha[:-1]))
    cut_set = None
    for m in filterfalse(n.__mod__, range(2, c + 1)):
        q, k = n // m, c // m
        # c = m * |R| + (cuts of beta, at most m - 1) forces |R| = k, and R
        # is read off the first block, so exactly k cuts lie below q; the
        # last k cuts are then the first block's, shifted by (m - 1)q
        last = (m - 1) * q
        if (cuts[k - 1] >= q or cuts[k] < q
                or cuts[c - k] != last + cuts[0] or cuts[-1] != last + cuts[k - 1]):
            continue
        if cut_set is None:
            cut_set = set(cuts)
        head = cuts[:k]
        if not all(j + r in cut_set for j in range(q, n, q) for r in head):
            continue
        junctions = [j for j in range(1, m) if j * q in cut_set]
        if len(junctions) + m * k == c:
            return _gaps(junctions, m), _gaps(head, q)
    g = gcd(*alpha)
    if 1 < g < n:
        return tuple(a // g for a in alpha), (g,)
    return None


def is_atom(alpha: Composition) -> bool:
    """True when every two-factor split of ``alpha`` is trivial."""
    return _split(tuple(alpha)) is None


def is_irreducible(alpha: Composition) -> bool:
    """An atom of length > 1 that is not all ones."""
    a = tuple(alpha)
    return len(a) > 1 and max(a) > 1 and _split(a) is None


def _merge_trivial_neighbours(factors: tuple[Parts, ...]) -> tuple[Parts, ...]:
    # adjacent single-component atoms multiply, adjacent all-ones atoms multiply
    out = list(factors)
    i = 0
    while i < len(out) - 1:
        a, b = out[i], out[i + 1]
        if len(a) == 1 and len(b) == 1:
            out[i : i + 2] = [(a[0] * b[0],)]
            i = max(i - 1, 0)
        elif max(a) == 1 and max(b) == 1:
            out[i : i + 2] = [(1,) * (len(a) * len(b))]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(out)


def _factor_parts(alpha: Parts) -> tuple[Parts, ...]:
    split = _split(alpha)
    if split is None:
        return (alpha,)
    beta, gamma = split
    return _merge_trivial_neighbours(_factor_parts(beta) + _factor_parts(gamma))


def irreducible_factorization(alpha: Composition) -> Factorization:
    """The unique factorization into atoms with no adjacent trivial pair.

    A size-1 input factors as itself.
    """
    factors = _factor_parts(tuple(alpha))
    return Factorization(tuple(Composition(f) for f in factors))


def _normal_form(alpha: Parts) -> Parts:
    split = _split(alpha)
    if split is None:
        return min(alpha, alpha[::-1])
    beta, gamma = split
    factors = _merge_trivial_neighbours(_factor_parts(beta) + _factor_parts(gamma))
    return reduce(_compose_raw, [min(f, f[::-1]) for f in factors])


def normalize(alpha: Composition) -> Composition:
    """Recompose with every factor replaced by its lexicographic minimal form.

    The result is the canonical representative of the ribbon Schur function
    of ``alpha``; it is idempotent and invariant under reversal.
    """
    return Composition(_normal_form(tuple(alpha)))


def equivalent(alpha: Composition, beta: Composition) -> bool:
    """Whether the two compositions index the same ribbon Schur function."""
    return _normal_form(tuple(alpha)) == _normal_form(tuple(beta))


def equivalence_class(alpha: Composition) -> set[Composition]:
    """All compositions obtained by reversing any subset of the factors."""
    factors = _factor_parts(tuple(alpha))
    choices = [sorted({f, f[::-1]}) for f in factors]
    out = set()
    for combo in product(*choices):
        out.add(Composition(reduce(_compose_raw, combo)))
    return out


def count_asymmetric_factors(alpha: Composition) -> int:
    """Number of factors that differ from their reversal."""
    return sum(1 for f in _factor_parts(tuple(alpha)) if f != f[::-1])
