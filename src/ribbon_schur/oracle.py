"""Independent ground truth for the counting formulas and the equality test.

Two oracles share no code with the formula paths: exhaustive enumeration
(`brute_force_classes`), which partitions all 2^(n-1) compositions of n by
their normal form, and a semantic check of that partition against the
ribbons themselves (`cross_validate`).

Both take the compositions in cut-mask order from
`compositions.composition_parts_in_range` and key each normal form by its
parts as bytes: for n <= 255 one byte a part, so sorted keys give the
composition order, and keys hash once and pickle cheaply to and from worker
processes.  Larger sizes are refused with `BudgetError` before any work.

The semantic check evaluates every ribbon, the alternating sum of products
of complete homogeneous functions h_k over the coarsenings of its
composition, at one seeded point: h_0 = 1 and each h_k a residue mod the
prime p = 2^61 - 1.  That is a ring map, so equal ribbons get equal values,
in exact integer arithmetic.  The values are built by cut mask from
r(alpha.a) = r(alpha) h_a - r(alpha(.)a), at O(1) per composition.  One pass
computes each normal form once, keeping one value per normal form and the
class sizes.  The value and normal-form partitions are equal exactly when no
normal form meets two values and no value serves two normal forms; this
gives the two directions of the equality theorem with different strength:

* proved outright: when the two partitions are equal, compositions with
  different normal forms have different values, hence different ribbons;
* checked up to a collision chance of n/p per pair (Schwartz-Zippel):
  compositions with equal normal forms have equal ribbons;
* confirmed exactly: when the partitions differ, the compositions are
  grouped again, and a value shared across normal forms is settled by the
  h-basis expansion (`h_fingerprint`), so a collision never shows as a
  mismatch.

With worker processes, worker w takes the compositions whose length is w
modulo the number of workers.  A normal form keeps the length, so the
workers' classes should be disjoint; the parent checks that they are.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Callable, Iterator
from itertools import compress
from operator import lt

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


def _ribbon_row(n: int) -> list[int]:
    """Ribbon values at `_h_values(n)` of the compositions of n, by cut mask.

    A mask with highest bit b gives alpha.a, where the lower bits give alpha,
    of size b + 1, and alpha(.)a; so the block of masks with highest bit b
    comes from the row of size b + 1 and the masks below 2^b."""
    h, p = _h_values(n), _MODULUS
    rows: list[list[int]] = [[]]
    for m in range(1, n + 1):
        row = [h[m]]
        for b in range(m - 1):
            hb = h[m - b - 1]
            row += [(x * hb - y) % p for x, y in zip(rows[b + 1], row)]
        rows.append(row)
    return rows[n]


def _ribbon_values(n: int) -> Iterator[tuple[Parts, int]]:
    """Every composition of n, in cut-mask order, with the value of its ribbon."""
    return zip(composition_parts_in_range(n, 0, 1 << (n - 1)), _ribbon_row(n))


# --- exhaustive enumeration ------------------------------------------------------

def _refuse(n: int, budget: int, kind: str) -> None:
    """Raise, before any work, for a size out of bounds."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > budget:
        raise BudgetError(f"n = {n} exceeds the {kind} budget {budget}")
    if n > MAX_EXHAUSTIVE_N:
        raise BudgetError(
            f"n = {n} exceeds {MAX_EXHAUSTIVE_N}, the largest size whose parts fit in a byte"
        )


def _pool_size(n: int, jobs: int | None) -> int:
    """Worker processes for a sweep of size n: none (1) below 2^14 masks."""
    return jobs if jobs and n >= 15 else 1


def _map(chunk: Callable, tasks: list[tuple[int, int, int]], jobs: int) -> Iterator:
    """``chunk`` of each task, in this process or in ``jobs`` worker processes."""
    if jobs == 1:
        yield from map(chunk, tasks)
        return
    import multiprocessing

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap_unordered(chunk, tasks)


def _normal_form_chunk(args: tuple[int, int, int]) -> Counter:
    n, lo, hi = args
    return Counter(map(bytes, map(_normal_form, composition_parts_in_range(n, lo, hi))))


def _class_counter(n: int, budget: int, jobs: int | None) -> Counter:
    """Class sizes of size n keyed by the normal form's parts as bytes."""
    _refuse(n, budget, "exhaustive")
    jobs, total = _pool_size(n, jobs), 1 << (n - 1)
    step = -(-total // (jobs * 8)) if jobs > 1 else total
    ranges = [(n, lo, min(lo + step, total)) for lo in range(0, total, step)]
    results = _map(_normal_form_chunk, ranges, jobs)
    counts = next(results)
    for part in results:
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


def _pass_chunk(args: tuple[int, int, int]) -> tuple[Counter, array]:
    """Class sizes, keyed by the normal form's parts as bytes, and one value
    per class, over the compositions of n whose length is w mod ``jobs``; a
    normal form met with two values gets the value -1."""
    n, w, jobs = args
    lengths, plus_one = b"\1", bytes([*range(1, 256), 0])  # length of each mask's composition
    for _ in range(n - 1):
        lengths += lengths.translate(plus_one)
    mine = lengths.translate(bytes(i % jobs == w for i in range(256)))
    value_of: dict[bytes, int] = {}
    sizes = Counter()
    for parts, value in compress(_ribbon_values(n), mine):
        key = bytes(_normal_form(parts))
        if value_of.setdefault(key, value) != value:
            value_of[key] = -1
        sizes[key] += 1
    return sizes, array("q", value_of.values())


def _grouped_report(n: int) -> CrossValidationReport:
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
            by_fingerprint: dict[HFingerprint, list[Parts]] = {}
            for parts in group:
                by_fingerprint.setdefault(h_fingerprint(parts), []).append(parts)
            semantic.update(map(frozenset, by_fingerprint.values()))
    mismatches = []
    for group in sorted(semantic ^ syntactic, key=sorted):
        side = "fingerprint" if group in semantic else "normal form"
        members = ", ".join(str(Composition(p)) for p in sorted(group))
        mismatches.append(f"{side}-only group: {{{members}}}")
    return CrossValidationReport(n, len(semantic), len(syntactic), semantic == syntactic, mismatches)


def cross_validate_with_classes(
    n: int, budget: int = DEFAULT_SEMANTIC_BUDGET, jobs: int | None = None
) -> tuple[CrossValidationReport, Counter]:
    """`cross_validate`, and the class sizes of size n keyed by the normal
    form's parts as bytes, from one pass over the compositions (see the
    module docstring).  The compositions are grouped again only when the
    partitions differ."""
    _refuse(n, budget, "semantic")
    jobs = _pool_size(n, jobs)
    results = _map(_pass_chunk, [(n, w, jobs) for w in range(jobs)], jobs)
    sizes, values = next(results)
    for part_sizes, part_values in results:
        sizes.update(part_sizes)
        values += part_values
    ordered = sorted(values)  # a list of ints takes half the memory of a set
    if ordered[0] >= 0 and all(map(lt, ordered, ordered[1:])) and len(values) == len(sizes):
        return CrossValidationReport(n, len(sizes), len(sizes), True, []), sizes
    return _grouped_report(n), sizes


def cross_validate(n: int, budget: int = DEFAULT_SEMANTIC_BUDGET) -> CrossValidationReport:
    """Group all compositions of n by ribbon and by normal form, and check
    that the two partitions coincide.  Mismatches are reported, not raised:
    only disagreements confirmed by `h_fingerprint`, never a collision."""
    return cross_validate_with_classes(n, budget)[0]
