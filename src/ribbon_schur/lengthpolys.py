"""Length generating polynomials with exact integer coefficients.

For a fixed size n, these polynomials in x count compositions of n by length;
the bivariate refinement marks the number of asymmetric factors with z.

Size multiplies under composition and length follows
ℓ(β ∘ γ) = ℓ(β) + |β|·(ℓ(γ) − 1), so if A_d counts the outer factors of size
d by length and B_m the inner factors of size m, their products of size n are
counted by the twisted Dirichlet product

    (A ⊛ B)_n(x) = Σ_{d|n} A_d(x) · x^(−d) · B_{n/d}(x^d).

The shift by x^(−d) is exact: no B_m has a constant term (every composition
has a part), so B_m(x^d) is divisible by x^d and the product is a polynomial
of degree at most n.  Every count below is one triangular solve over the
divisors of n built from these products:

    Lx = C ⊛ R1,   R = S + R ⊛ R1,   R(x, z) = Σ_k z^k · S ⊛ R1^(⊛k).

Each call builds what it needs from scratch; nothing is memoized.
"""

from __future__ import annotations

from typing import Iterable

Laurent = dict[int, int]
Coeffs = list[int]  # coefficient of x^e at index e, length size + 1
BivariateTerms = dict[tuple[int, int], int]


class InexactDivisionError(ValueError):
    """A polynomial was asked for with a negative power of x."""


class LengthPoly:
    """A polynomial in x with integer coefficients; x marks length."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs: tuple[int, ...] = tuple(c)

    @classmethod
    def zero(cls) -> "LengthPoly":
        return cls(())

    @classmethod
    def from_sparse(cls, terms: Laurent) -> "LengthPoly":
        if any(e < 0 and c for e, c in terms.items()):
            raise InexactDivisionError(f"negative exponents remain: {terms}")
        degree = max((e for e, c in terms.items() if c), default=-1)
        out = [0] * (degree + 1)
        for e, c in terms.items():
            if c:
                out[e] = c
        return cls(out)

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, exponent: int) -> int:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def sparse(self) -> Laurent:
        return {e: c for e, c in enumerate(self.coeffs) if c}

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LengthPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "LengthPoly") -> "LengthPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return LengthPoly(out)

    def __sub__(self, other: "LengthPoly") -> "LengthPoly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return LengthPoly(out)

    def __mul__(self, other: "LengthPoly") -> "LengthPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LengthPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return LengthPoly(out)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LengthPoly(0)"
        terms = [f"{c}*x^{e}" for e, c in enumerate(self.coeffs) if c]
        return "LengthPoly(" + " + ".join(terms) + ")"


def _divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("n must be positive")
    return [d for d in range(1, n + 1) if n % d == 0]


# --- closed forms ---------------------------------------------------------------

def _binomials(m: int) -> Coeffs:
    """comb(m, 0), ..., comb(m, m), each from the one before it."""
    if m < 0:  # called with n - 1 or (n - 1) // 2
        raise ValueError("n must be positive")
    row = [1]
    for k in range(m):
        row.append(row[-1] * (m - k) // (k + 1))
    return row


def _c_coeffs(n: int) -> Coeffs:
    return [0] + _binomials(n - 1)


def _s_coeffs(n: int) -> Coeffs:
    out = [0] * (n + 1)
    for k, c in enumerate(_binomials((n - 1) // 2)):
        out[2 * k + 1] = c
        if n % 2 == 0:
            out[2 * k + 2] = c
    return out


def _lcross_coeffs(n: int, c: Coeffs, s: Coeffs) -> Coeffs:
    diff = [a - b for a, b in zip(c, s)]
    if any(v % 2 for v in diff):
        raise ArithmeticError(f"C_{n} - S_{n} has an odd coefficient")
    return [v // 2 for v in diff]


def poly_C(n: int) -> LengthPoly:
    """All compositions of n by length: x(1+x)^(n-1)."""
    return LengthPoly(_c_coeffs(n))


def poly_S(n: int) -> LengthPoly:
    """Symmetric compositions of n by length:
    x(1+x)(1+x^2)^((n-2)/2) for even n, x(1+x^2)^((n-1)/2) for odd n."""
    return LengthPoly(_s_coeffs(n))


def poly_Lcross(n: int) -> LengthPoly:
    """Asymmetric lexicographic minimal compositions of n by length: (C - S)/2."""
    return LengthPoly(_lcross_coeffs(n, _c_coeffs(n), _s_coeffs(n)))


# --- the twisted product and the divisor solves ------------------------------------

def _twist_mul_add(out: Coeffs, a: Coeffs, b: Coeffs, d: int, sign: int) -> None:
    """Add sign * a(x) * x^-d * b(x^d) to out, in place.

    Relies on b[0] == 0: each nonzero b_j adds a, scaled, at offset d(j - 1),
    and a zero b_j costs nothing.
    """
    width = len(a)
    for j in range(1, len(b)):
        if b[j]:
            c = sign * b[j]
            lo = d * (j - 1)
            out[lo:lo + width] = [o + c * x for o, x in zip(out[lo:lo + width], a)]


def _star_into(out: Coeffs, a: dict[int, Coeffs], b: dict[int, Coeffs], m: int,
               sign: int = 1) -> Coeffs:
    """Add sign * (A ⊛ B)_m to out and return it, over the d | m with A_d in a
    and B_{m/d} in b."""
    for d, ad in a.items():
        q, r = divmod(m, d)
        if not r and q in b:
            _twist_mul_add(out, ad, b[q], d, sign)
    return out


def _tables(n: int) -> tuple[list[int], dict[int, Coeffs], dict[int, Coeffs]]:
    """The divisors of n, and S_m and R1_m for each divisor m.

    R1 solves Lx = C ⊛ R1 term by term: the d = 1 term is R1_m itself
    (C_1(x)/x = 1), and the d > 1 terms need only R1 at smaller sizes.
    """
    divs = _divisors(n)
    c = {d: _c_coeffs(d) for d in divs}
    s = {d: _s_coeffs(d) for d in divs}
    peeled = {d: c[d] for d in divs[1:]}
    r1: dict[int, Coeffs] = {}
    for m in divs:
        r1[m] = _star_into(_lcross_coeffs(m, c[m], s[m]), peeled, r1, m, -1)
    return divs, s, r1


def poly_R1_recursive(n: int) -> LengthPoly:
    """Normal forms of n whose leading factor is asymmetric, rest symmetric.

    Solves Lx_n(x) = sum over d|n of C_d(x) x^-d R1_{n/d}(x^d) for R1_n,
    peeled off the d = 1 term (C_1(x)/x = 1).
    """
    return LengthPoly(_tables(n)[2][n])


def poly_R_recursive(n: int) -> LengthPoly:
    """Normal forms of n by length:
    R_n(x) = S_n(x) + sum over proper d|n of R_d(x) x^-d R1_{n/d}(x^d)."""
    divs, s, r1 = _tables(n)
    r: dict[int, Coeffs] = {}
    for m in divs:  # r holds R at the proper divisors of m so far
        r[m] = _star_into(s[m], r, r1, m)
    return LengthPoly(r[n])


def poly_R_refined(n: int) -> BivariateTerms:
    """Normal forms of n by length and number of asymmetric factors.

    The coefficient of z^k is (S ⊛ R1^(⊛k))_n.  Returns a sparse map
    (length exponent, asymmetric-factor count) -> count.
    """
    divs, row, r1 = _tables(n)
    terms: BivariateTerms = {}
    k = 0
    while any(any(p) for p in row.values()):
        terms.update(((e, k), c) for e, c in enumerate(row[n]) if c)
        row = {m: _star_into([0] * (m + 1), row, r1, m) for m in divs}
        k += 1
    return dict(sorted(terms.items()))


def refined_specialize(terms: BivariateTerms, z: int) -> LengthPoly:
    """Substitute an integer for z, leaving a polynomial in x."""
    out: Laurent = {}
    for (m, k), c in terms.items():
        out[m] = out.get(m, 0) + c * z**k
    return LengthPoly.from_sparse(out)
