"""Truncated Dirichlet series over the integers, and the counting formulas by size.

A series is stored as its first N coefficients a_1..a_N, all ints; the
product is the Dirichlet convolution (a * b)_n = sum over d|n of a_d b_{n/d}.
Division is one triangular solve (Apostol, *Introduction to Analytic Number
Theory*, ch. 2): x * b = a gives x_n = (a_n - sum over d|n, d < n, of
x_d b_{n/d}) / b_1, and the solve raises ValueError at the first remainder
that is not zero.  The counting formulas divide only by zeta, R and S, whose
first coefficient is 1, and by 2C - z(C - S), whose first coefficient is 2
and whose quotient counts normal forms, so it is integral; (C + S)/2 and
(C - S)/2 are exact halvings.  Each counting series builds one divisor table
for all its products and solves; nothing outlives the call.
"""

from __future__ import annotations

from collections.abc import Iterable

DEFAULT_BOUND = 33

# Internally a series is a list indexed by n, with an unused 0 at index 0.
Padded = list[int]


def _proper_divisors(bound: int) -> list[list[int]]:
    """divisors[k] lists the divisors d < k of k, for k = 0..bound."""
    if bound < 1:
        raise ValueError("a series needs at least the coefficient a_1")
    table: list[list[int]] = [[] for _ in range(bound + 1)]
    for d in range(1, bound // 2 + 1):
        for m in range(2 * d, bound + 1, d):
            table[m].append(d)
    return table


def _mul(a: Padded, b: Padded, divisors: list[list[int]]) -> Padded:
    b1 = b[1]
    return [0] + [sum(a[d] * b[n // d] for d in divisors[n]) + a[n] * b1
                  for n in range(1, len(a))]


def _solve(num: Padded, den: Padded, divisors: list[list[int]]) -> Padded:
    """The x with x * den = num; ValueError unless x is integral."""
    lead = den[1]
    if not lead:
        raise ZeroDivisionError("a series with a_1 = 0 has no convolution inverse")
    x = [0]
    for n in range(1, len(num)):
        value, rest = divmod(num[n] - sum(x[d] * den[n // d] for d in divisors[n]), lead)
        if rest:
            raise ValueError(f"coefficient a_{n} of the quotient is not an integer")
        x.append(value)
    return x


class DirichletSeries:
    """Coefficients a_1..a_N of a truncated Dirichlet series, all ints."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        values = tuple(coeffs)
        self.coeffs: tuple[int, ...] = tuple(map(int, values))
        if self.coeffs != values:
            bad = next(v for v, c in zip(values, self.coeffs) if v != c)
            raise ValueError(f"coefficient {bad!r} is not an integer")
        if not self.coeffs:
            raise ValueError("a series needs at least the coefficient a_1")

    @property
    def bound(self) -> int:
        return len(self.coeffs)

    @classmethod
    def identity(cls, bound: int) -> "DirichletSeries":
        """The convolution identity: 1 at n = 1, zero elsewhere."""
        return cls([1] + [0] * (bound - 1))

    def coefficient(self, n: int) -> int:
        """The coefficient of n^-s (1-indexed)."""
        if not 1 <= n <= self.bound:
            raise IndexError(f"coefficient index {n} outside 1..{self.bound}")
        return self.coeffs[n - 1]

    def _check_bound(self, other: "DirichletSeries") -> None:
        if self.bound != other.bound:
            raise ValueError(f"bound mismatch: {self.bound} != {other.bound}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DirichletSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "DirichletSeries") -> "DirichletSeries":
        self._check_bound(other)
        return DirichletSeries(map(int.__add__, self.coeffs, other.coeffs))

    def __sub__(self, other: "DirichletSeries") -> "DirichletSeries":
        self._check_bound(other)
        return DirichletSeries(map(int.__sub__, self.coeffs, other.coeffs))

    def __mul__(self, other: "DirichletSeries") -> "DirichletSeries":
        """Dirichlet convolution (bounds must agree)."""
        self._check_bound(other)
        product = _mul([0, *self.coeffs], [0, *other.coeffs], _proper_divisors(self.bound))
        return DirichletSeries(product[1:])

    def __truediv__(self, other: "DirichletSeries") -> "DirichletSeries":
        """The x with x * other == self; ValueError unless x is integral."""
        self._check_bound(other)
        x = _solve([0, *self.coeffs], [0, *other.coeffs], _proper_divisors(self.bound))
        return DirichletSeries(x[1:])

    def inverse(self) -> "DirichletSeries":
        """Convolution inverse; ZeroDivisionError when a_1 = 0, ValueError
        when the inverse is not integral."""
        return DirichletSeries.identity(self.bound) / self

    def integer_coefficients(self) -> list[int]:
        """The coefficients a_1..a_N as a list."""
        return list(self.coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.bound > 8 else ""
        return f"DirichletSeries([{shown}{tail}], bound={self.bound})"


# --- the counting series -------------------------------------------------------

def _C(bound: int) -> Padded:
    return [0] + [1 << (n - 1) for n in range(1, bound + 1)]


def _S(bound: int) -> Padded:
    return [0] + [1 << (n // 2) for n in range(1, bound + 1)]


def _half(values: Iterable[int]) -> DirichletSeries:
    halves = [divmod(v, 2) for v in values]
    if any(rest for _, rest in halves):
        raise ValueError("halving a series with an odd coefficient")
    return DirichletSeries(half for half, _ in halves)


def _refined(bound: int, z: int, divisors: list[list[int]]) -> Padded:
    # 2CS / (2C - z(C - S))
    c, s = _C(bound), _S(bound)
    numerator = [2 * v for v in _mul(c, s, divisors)]
    return _solve(numerator, [2 * a - z * (a - b) for a, b in zip(c, s)], divisors)


def _inverse(a: Padded, divisors: list[list[int]]) -> Padded:
    return _solve([0, 1] + [0] * (len(a) - 2), a, divisors)


def _irreducible(inverse: Padded, divisors: list[list[int]]) -> DirichletSeries:
    # 2/zeta - 1 - inverse, for inverse = 1/R or 1/S
    mu = _inverse([0] + [1] * (len(inverse) - 1), divisors)
    return DirichletSeries(2 * mu[n] - (n == 1) - inverse[n] for n in range(1, len(mu)))


def series_zeta(bound: int = DEFAULT_BOUND) -> DirichletSeries:
    """All coefficients 1."""
    return DirichletSeries([1] * bound)


def series_C(bound: int = DEFAULT_BOUND) -> DirichletSeries:
    """Counts all compositions by size: 2^(n-1)."""
    return DirichletSeries(_C(bound)[1:])


def series_S(bound: int = DEFAULT_BOUND) -> DirichletSeries:
    """Counts symmetric compositions by size: 2^floor(n/2)."""
    return DirichletSeries(_S(bound)[1:])


def series_R(bound: int = DEFAULT_BOUND) -> DirichletSeries:
    """Counts distinct ribbon Schur functions by size: 2CS / (C + S)."""
    return series_R_refined(bound, 1)


def series_Lcross(bound: int = DEFAULT_BOUND) -> DirichletSeries:
    """Counts asymmetric lexicographic minimal compositions: (C - S)/2."""
    return _half(map(int.__sub__, _C(bound)[1:], _S(bound)[1:]))


def series_lexmin(bound: int = DEFAULT_BOUND) -> DirichletSeries:
    """Counts lexicographic minimal compositions: (C + S)/2."""
    return _half(map(int.__add__, _C(bound)[1:], _S(bound)[1:]))


def series_P(bound: int = DEFAULT_BOUND) -> DirichletSeries:
    """Counts normalised irreducible compositions: 2/zeta - 1 - 1/R."""
    divisors = _proper_divisors(bound)
    r_inverse = _inverse(_refined(bound, 1, divisors), divisors)
    return _irreducible(r_inverse, divisors)


def series_Pstar(bound: int = DEFAULT_BOUND) -> DirichletSeries:
    """Counts symmetric irreducible compositions: 2/zeta - 1 - 1/S."""
    divisors = _proper_divisors(bound)
    return _irreducible(_inverse(_S(bound), divisors), divisors)


def series_Pcross(bound: int = DEFAULT_BOUND) -> DirichletSeries:
    """Counts asymmetric (normalised) irreducible compositions: 1/S - 1/R."""
    divisors = _proper_divisors(bound)
    s_inverse = _inverse(_S(bound), divisors)
    r_inverse = _inverse(_refined(bound, 1, divisors), divisors)
    return DirichletSeries(map(int.__sub__, s_inverse[1:], r_inverse[1:]))


def series_R_refined(bound: int = DEFAULT_BOUND, z: int = 1) -> DirichletSeries:
    """Normal forms weighted z^(number of asymmetric factors):
    2CS / (2C - z(C - S)).

    The first coefficient of the denominator is 2 for every z, and the
    quotient is integral; z in {0, 1, 2} specializes to S, R and C.
    """
    return DirichletSeries(_refined(bound, z, _proper_divisors(bound))[1:])
