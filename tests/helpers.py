"""Shared brute-force oracles for the test suite.

These deliberately reimplement operations from first principles (straight
from the definitions, with no shared code or clever shortcuts) so that the
library can be checked against an independent path.
"""

from __future__ import annotations

from itertools import product

Parts = tuple[int, ...]


def near_concat(a: Parts, b: Parts) -> Parts:
    return a[:-1] + (a[-1] + b[0],) + b[1:]


def odot_power_by_iteration(a: Parts, n: int) -> Parts:
    acc = a
    for _ in range(n - 1):
        acc = near_concat(acc, a)
    return acc


def compose_by_definition(a: Parts, b: Parts) -> Parts:
    out: Parts = ()
    for part in a:
        out = out + odot_power_by_iteration(b, part)
    return out


def compositions_of(n: int) -> list[Parts]:
    """All compositions of n, by summing over first parts."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            out.append((first,) + rest)
    return out


def compositions_up_to(n: int) -> list[Parts]:
    out = []
    for m in range(1, n + 1):
        out.extend(compositions_of(m))
    return out


def splits_by_exhaustion(alpha: Parts) -> set[tuple[Parts, Parts]]:
    """All (beta, gamma) with beta o gamma == alpha, via trying every pair."""
    n = sum(alpha)
    found = set()
    for q in range(2, n):
        if n % q:
            continue
        for beta, gamma in product(compositions_of(n // q), compositions_of(q)):
            if compose_by_definition(beta, gamma) == alpha:
                found.add((beta, gamma))
    return found


def trivial_by_definition(beta: Parts, gamma: Parts) -> bool:
    """A factor (1), two single-component factors, or two all-ones factors."""
    return (
        beta == (1,)
        or gamma == (1,)
        or len(beta) == len(gamma) == 1
        or set(beta) == set(gamma) == {1}
    )


def factorization_by_exhaustion(alpha: Parts) -> tuple[Parts, ...]:
    """Irreducible factors, recursing on the last nontrivial exhaustive split.

    Adjacent factors that form a trivial pair are multiplied back together,
    which is what makes the factorization unique.
    """
    nontrivial = sorted(
        s for s in splits_by_exhaustion(alpha) if not trivial_by_definition(*s)
    )
    if not nontrivial:
        return (alpha,)
    beta, gamma = nontrivial[-1]
    factors = list(factorization_by_exhaustion(beta) + factorization_by_exhaustion(gamma))
    i = 0
    while i < len(factors) - 1:
        if trivial_by_definition(factors[i], factors[i + 1]):
            factors[i : i + 2] = [compose_by_definition(factors[i], factors[i + 1])]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(factors)
