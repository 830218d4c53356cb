"""Shared brute-force oracles for the test suite.

These deliberately reimplement operations from first principles (straight
from the definitions, with no shared code or clever shortcuts) so that the
library can be checked against an independent path.  The length polynomials
get two such paths: the dense divisor recursions, and their closed solutions
as sums over divisor chains.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import product
from math import comb
from typing import Callable

from ribbon_schur.compositions import Composition
from ribbon_schur.factorization import _normal_form
from ribbon_schur.lengthpolys import (
    InexactDivisionError,
    LengthPoly,
    poly_C,
    poly_Lcross,
    poly_S,
)

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


def parts_by_mask_decode(n: int, mask: int) -> Parts:
    """The composition of n whose cut after position i + 1 is bit i of mask."""
    cuts = [i + 1 for i in range(n - 1) if mask >> i & 1]
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))


def classes_by_mask_decode(n: int) -> list[tuple[Composition, int]]:
    """`brute_force_classes(n)` computed one composition at a time: decode
    each cut mask, count normal forms in a Counter, sort its items and
    wrap each key as a checked Composition."""
    counts = Counter(_normal_form(parts_by_mask_decode(n, m)) for m in range(1 << (n - 1)))
    return [(Composition(p), c) for p, c in sorted(counts.items())]


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


# --- length polynomials by dense recursion ---------------------------------------
#
# The divisor recursions as the library first computed them: dense products,
# substitution x -> x^d as an explicit stretch, and exact division by x^d.
# Polynomials are coefficient tuples without trailing zeros.

Poly = tuple[int, ...]


def _trim(c: list[int]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, tuple(-c for c in b))


def dense_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def stretch(a: Poly, d: int) -> Poly:
    """Substitute x -> x^d."""
    if d == 1 or not a:
        return a
    out = [0] * ((len(a) - 1) * d + 1)
    for e, c in enumerate(a):
        out[e * d] = c
    return tuple(out)


def shift_down(a: Poly, d: int) -> Poly:
    """Exact division by x^d; fails hard on a nonzero remainder."""
    if any(a[:d]):
        raise InexactDivisionError(f"{a} is not divisible by x^{d}")
    return a[d:]


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def dense_C(n: int) -> Poly:
    return _trim([0] + [comb(n - 1, k) for k in range(n)])


def dense_S(n: int) -> Poly:
    acc = (0, 1) if n % 2 else (0, 1, 1)
    for _ in range((n - 1) // 2 if n % 2 else (n - 2) // 2):
        acc = dense_mul(acc, (1, 0, 1))
    return acc


def dense_Lcross(n: int) -> Poly:
    return tuple(c // 2 for c in poly_sub(dense_C(n), dense_S(n)))


@cache
def dense_R1(n: int) -> Poly:
    """Lx_n(x) = sum over d|n of C_d(x) x^-d R1_{n/d}(x^d), solved for R1_n."""
    acc = dense_Lcross(n)
    for d in divisors(n):
        if d > 1:
            acc = poly_sub(acc, shift_down(dense_mul(dense_C(d), stretch(dense_R1(n // d), d)), d))
    return acc


@cache
def dense_R(n: int) -> Poly:
    """R_n(x) = S_n(x) + sum over proper d|n of R_d(x) x^-d R1_{n/d}(x^d)."""
    acc = dense_S(n)
    for d in divisors(n):
        if d < n:
            acc = poly_add(acc, shift_down(dense_mul(dense_R(d), stretch(dense_R1(n // d), d)), d))
    return acc


@cache
def dense_refined_terms(n: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """R_n(x, z) = S_n(x) + z * sum over proper d|n of R_d(x, z) x^-d R1_{n/d}(x^d)."""
    acc = {(e, 0): c for e, c in enumerate(dense_S(n)) if c}
    for d in divisors(n):
        if d == n:
            continue
        inner = {e: c for e, c in enumerate(stretch(dense_R1(n // d), d)) if c}
        for (m, k), cr in dense_refined_terms(d):
            for e, ci in inner.items():
                xexp = m + e - d
                if xexp < 0:
                    raise InexactDivisionError("refined recursion lost a power of x")
                key = (xexp, k + 1)
                v = acc.get(key, 0) + cr * ci
                if v:
                    acc[key] = v
                elif key in acc:
                    del acc[key]
    return tuple(sorted(acc.items()))


# --- length polynomials by divisor-chain sums -------------------------------------
#
# Closed solutions of the two recursions as signed and unsigned sums over
# strict divisor chains.  The chain factors carry x^-d terms that only cancel
# inside full products, so the solver works with sparse Laurent maps
# (exponent -> coefficient, negative exponents allowed).

Laurent = dict[int, int]


def _laurent_mul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def _laurent_add_into(acc: Laurent, term: Laurent, sign: int) -> None:
    for e, c in term.items():
        v = acc.get(e, 0) + sign * c
        if v:
            acc[e] = v
        elif e in acc:
            del acc[e]


def _laurent_stretch(a: Laurent, d: int) -> Laurent:
    if d == 1:
        return dict(a)
    return {e * d: c for e, c in a.items()}


def solve_stretched_family(
    a: Callable[[int], Laurent], b: Callable[[int], Laurent], n: int
) -> Laurent:
    """The C_n with A_n(x) = sum over d|n of B_d(x) C_{n/d}(x^d), given B_1 = 1.

    Evaluates the signed sum over strict divisor chains 1 = d_0 | d_1 | ... |
    d_k | n: each chain contributes (-1)^k A_{n/d_k}(x^{d_k}) times the
    product of B_{d_{i+1}/d_i}(x^{d_i}).
    """
    if b(1) != {0: 1}:
        raise ValueError("the solver requires B_1(x) = 1")
    total: Laurent = {}

    def walk(d: int, k: int, prod: Laurent) -> None:
        _laurent_add_into(total, _laurent_mul(prod, _laurent_stretch(a(n // d), d)), -1 if k & 1 else 1)
        for nxt in divisors(n):
            if nxt > d and nxt % d == 0:
                walk(nxt, k + 1, _laurent_mul(prod, _laurent_stretch(b(nxt // d), d)))

    walk(1, 0, {0: 1})
    return total


def solve_chain_expansion(
    b: Callable[[int], Laurent], c: Callable[[int], Laurent], n: int
) -> Laurent:
    """The A_n with A_n(x) = B_n(x) + sum over proper d|n of A_d(x) C_{n/d}(x^d).

    Evaluates the unsigned sum over strict divisor chains d_1 | ... | d_{k+1}
    = n: each chain contributes B_{d_1}(x) times the product of
    C_{d_{i+1}/d_i}(x^{d_i}).
    """
    total: Laurent = {}

    def walk(d: int, prod: Laurent) -> None:
        if d == n:
            _laurent_add_into(total, prod, 1)
            return
        for nxt in divisors(n):
            if nxt > d and nxt % d == 0:
                walk(nxt, _laurent_mul(prod, _laurent_stretch(c(nxt // d), d)))

    for d1 in divisors(n):
        walk(d1, b(d1))
    return total


def _lcross_family(m: int) -> Laurent:
    return poly_Lcross(m).sparse()


def _c_over_xd_family(m: int) -> Laurent:
    # C_m(x) / x^m as a Laurent map
    return {e - m: c for e, c in poly_C(m).sparse().items()}


@cache
def poly_R1_explicit(n: int) -> LengthPoly:
    """Chain-formula evaluation of R1_n; agrees with the recursion."""
    return LengthPoly.from_sparse(solve_stretched_family(_lcross_family, _c_over_xd_family, n))


def _s_family(m: int) -> Laurent:
    return poly_S(m).sparse()


def _r1_over_x_family(m: int) -> Laurent:
    return {e - 1: c for e, c in poly_R1_explicit(m).sparse().items()}


@cache
def poly_R_explicit(n: int) -> LengthPoly:
    """Chain-formula evaluation of R_n; agrees with the recursion."""
    return LengthPoly.from_sparse(solve_chain_expansion(_s_family, _r1_over_x_family, n))
