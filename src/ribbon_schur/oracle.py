"""Independent ground truth for the counting formulas and the equality test.

Two oracles that share no code with the formula paths:

* exhaustive enumeration, which partitions all 2^(n-1) compositions of n by
  their normal form, and
* a semantic check of that partition against the ribbons themselves.

The exhaustive sweep takes the compositions from
`compositions.composition_parts_in_range`: a table of the compositions given
by the low 10 bits of the cut mask is decoded once, and each composition is
then one tuple concatenation of a table entry with the parts of the high
bits (the two touching parts added when the cut between the halves is
clear).  Each normal form is counted under its parts as a bytes object.
Every part is at most n, so for n <= 255 each part is one byte, and bytes
compare like the tuples they encode (element by element, a prefix first),
so sorting the keys gives the composition order; the keys also hash once
and pickle cheaply on their way back from the worker processes.  Sizes
above 255 are refused with `BudgetError` before any work; no such sweep
(2^254 compositions or more) could finish anyway.

The semantic check evaluates every ribbon at one fixed random point.  A
ribbon is the alternating sum over the coarsenings of its composition of
products of complete homogeneous functions h_k (the expansion of its skew
Jacobi-Trudi determinant).  Sending h_0 to 1 and each h_k to a seeded
residue mod the prime p = 2^61 - 1 is a ring map, so equal ribbons always
get equal values, in exact integer arithmetic.  Comparing the value
partition with the normal-form partition gives the two directions of the
equality theorem with different strength:

* proved outright: when the two partitions are equal, compositions with
  different normal forms have different values, hence different ribbons;
* checked up to a collision chance of n/p per pair (Schwartz-Zippel):
  compositions with equal normal forms have equal ribbons;
* confirmed exactly: a value shared by compositions with different normal
  forms is settled by the full h-basis expansion (`h_fingerprint`) before
  any mismatch is reported, so a collision never shows as a mismatch.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from .compositions import Composition, Parts, _trusted_composition, composition_parts_in_range
from .factorization import _normal_form
from .limits import (  # noqa: F401  (COUNT_BUDGET is re-exported)
    COUNT_BUDGET,
    DEFAULT_CLASS_BUDGET,
    DEFAULT_HISTOGRAM_BUDGET,
    DEFAULT_SEMANTIC_BUDGET,
    MAX_EXHAUSTIVE_N,
    BudgetError,
)
from .lengthpolys import LengthPoly
from .records import Record

_MODULUS = (1 << 61) - 1  # a Mersenne prime
_SEED = 2006

Partition = tuple[int, ...]


class HFingerprint:
    """Signed integer combination of h generators, keyed by partition."""

    __slots__ = ("terms", "_key")

    def __init__(self, terms: dict[Partition, int]):
        self.terms = dict(terms)
        self._key = tuple(sorted(self.terms.items()))

    def coefficient(self, partition: Partition) -> int:
        return self.terms.get(tuple(partition), 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HFingerprint) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"HFingerprint({dict(self._key)!r})"


def _fingerprint_terms(parts: Parts) -> dict[Partition, int]:
    k = len(parts)
    terms: dict[Partition, int] = {}
    for mask in range(1 << (k - 1)):
        # bit i set keeps the boundary after part i; cleared bits merge
        merged = []
        acc = parts[0]
        for i in range(k - 1):
            if mask >> i & 1:
                merged.append(acc)
                acc = parts[i + 1]
            else:
                acc += parts[i + 1]
        merged.append(acc)
        merged.sort(reverse=True)
        key = tuple(merged)
        sign = -1 if (k - 1 - bin(mask).count("1")) & 1 else 1
        v = terms.get(key, 0) + sign
        if v:
            terms[key] = v
        elif key in terms:
            del terms[key]
    return terms


def h_fingerprint(alpha: Composition) -> HFingerprint:
    """Expansion of the ribbon of ``alpha`` over the h basis.

    Sum over the 2^(length-1) coarsenings beta of alpha of
    (-1)^(length(alpha) - length(beta)) h_{sorted(beta)}.
    """
    return HFingerprint(_fingerprint_terms(tuple(alpha)))


def _h_values(n: int) -> list[int]:
    """The evaluation point: h_0 = 1 and h_1..h_n as seeded residues mod p."""
    import random

    rng = random.Random(_SEED)
    return [1] + [rng.randrange(_MODULUS) for _ in range(n)]


def _ribbon_values(n: int) -> Iterator[tuple[Parts, int]]:
    """Every composition of n with the value of its ribbon at `_h_values(n)`.

    With s_0 < s_1 < ... the partial sums, G_0 = 1 and
    G_(i+1) = -sum_(j <= i) G_j h(s_(i+1) - s_j), the ribbon's value is
    (-1)^length G_length.  The walk is depth first over the composition
    tree, so each prefix's G is computed once and shared by its extensions.
    """
    h = _h_values(n)
    # parts[i] is the part tried after the prefix that ends at sums[i]
    sums, signed, parts = [0], [1], [1]
    while True:
        t = sums[-1] + parts[-1]
        if t > n:  # every extension of this prefix is done
            if len(parts) == 1:
                return
            parts.pop()
            sums.pop()
            signed.pop()
            parts[-1] += 1
            continue
        g = -sum(gj * h[t - sj] for gj, sj in zip(signed, sums)) % _MODULUS
        if t < n:
            sums.append(t)
            signed.append(g)
            parts.append(1)
        else:
            yield tuple(parts), (-g if len(parts) & 1 else g) % _MODULUS
            parts[-1] += 1


# --- exhaustive enumeration ------------------------------------------------------

def _normal_form_chunk(args: tuple[int, int, int]) -> Counter:
    n, lo, hi = args
    return Counter(map(bytes, map(_normal_form, composition_parts_in_range(n, lo, hi))))


def _class_counter(n: int, budget: int, jobs: int | None) -> Counter:
    """Class sizes of size n keyed by the normal form's parts as bytes."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > budget:
        raise BudgetError(f"n = {n} exceeds the exhaustive budget {budget}")
    if n > MAX_EXHAUSTIVE_N:
        raise BudgetError(
            f"n = {n} exceeds {MAX_EXHAUSTIVE_N}, the largest size whose parts fit in a byte"
        )
    total = 1 << (n - 1)
    if not jobs or jobs <= 1 or total < (1 << 14):
        return _normal_form_chunk((n, 0, total))
    chunk = -(-total // (jobs * 8))
    ranges = [(n, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    import multiprocessing

    counts: Counter = Counter()
    with multiprocessing.Pool(jobs) as pool:
        for part in pool.imap_unordered(_normal_form_chunk, ranges):
            counts.update(part)
    return counts


def brute_force_classes(
    n: int, budget: int = DEFAULT_CLASS_BUDGET, jobs: int | None = None
) -> list[tuple[Composition, int]]:
    """All equivalence classes of size n, as (normal form, class size) pairs.

    Partitions the full set of 2^(n-1) compositions by their normal form;
    the class sizes therefore sum to 2^(n-1).  Sorted by normal form.
    """
    counts = _class_counter(n, budget, jobs)
    return [(_trusted_composition(key), counts[key]) for key in sorted(counts)]


def brute_force_length_histogram(
    n: int, budget: int = DEFAULT_HISTOGRAM_BUDGET, jobs: int | None = None
) -> LengthPoly:
    """Classes of size n counted by the length of their normal form."""
    by_length = Counter(map(len, _class_counter(n, budget, jobs)))
    coeffs = [0] * (n + 1)
    for length, count in by_length.items():
        coeffs[length] = count
    return LengthPoly(coeffs)


# --- the two-sided comparison -----------------------------------------------------

class CrossValidationReport(Record):
    """Outcome of comparing the semantic and the normal-form partitions."""

    __slots__ = ("n", "fingerprint_classes", "normal_form_classes", "identical", "mismatches")

    def __init__(self, n: int, fingerprint_classes: int, normal_form_classes: int,
                 identical: bool, mismatches: list[str] | None = None):
        self.n = n
        self.fingerprint_classes = fingerprint_classes
        self.normal_form_classes = normal_form_classes
        self.identical = identical
        self.mismatches = [] if mismatches is None else mismatches

    def summary(self) -> str:
        verdict = "identical" if self.identical else "DIFFERENT"
        return (
            f"n={self.n}: {self.normal_form_classes} classes by normal form, "
            f"{self.fingerprint_classes} by fingerprint; partitions {verdict}"
        )


def _fingerprint_groups(group: list[Parts]) -> list[frozenset[Parts]]:
    by_fingerprint: dict[HFingerprint, list[Parts]] = {}
    for parts in group:
        by_fingerprint.setdefault(h_fingerprint(parts), []).append(parts)
    return [frozenset(g) for g in by_fingerprint.values()]


def cross_validate(n: int, budget: int = DEFAULT_SEMANTIC_BUDGET) -> CrossValidationReport:
    """Group all compositions of n by ribbon and by normal form, and check
    that the two partitions coincide.  Mismatches are reported, not raised.

    Compositions are grouped by their ribbon's value at a random point (see
    the module docstring).  A value group that is also a normal-form group
    is accepted: its members share one normal form, so by the easy direction
    of the theorem one ribbon, checked here up to a collision chance of n/p
    per pair; and no composition outside it has the same value, so every
    other normal form gives a different ribbon, which is proved outright.
    Any other value group is split by the exact h-basis expansion, so the
    report lists only confirmed disagreements, never a collision.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > budget:
        raise BudgetError(f"n = {n} exceeds the semantic budget {budget}")
    by_value: dict[int, list[Parts]] = {}
    by_normal_form: dict[Parts, list[Parts]] = {}
    for parts, value in _ribbon_values(n):
        by_value.setdefault(value, []).append(parts)
        by_normal_form.setdefault(_normal_form(parts), []).append(parts)
    syntactic = {frozenset(group) for group in by_normal_form.values()}
    semantic = set()
    for group in by_value.values():
        members = frozenset(group)
        if members in syntactic:
            semantic.add(members)
        else:
            semantic.update(_fingerprint_groups(group))
    mismatches = []
    for group in sorted(semantic ^ syntactic, key=sorted):
        side = "fingerprint" if group in semantic else "normal form"
        members = ", ".join(str(Composition(p)) for p in sorted(group))
        mismatches.append(f"{side}-only group: {{{members}}}")
    return CrossValidationReport(
        n=n,
        fingerprint_classes=len(semantic),
        normal_form_classes=len(syntactic),
        identical=semantic == syntactic,
        mismatches=mismatches,
    )
