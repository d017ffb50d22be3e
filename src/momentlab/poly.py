"""Dense homogeneous polynomial arithmetic over two coefficient rings.

A degree-d form in n variables is stored as a dense coefficient vector of
length C(n+d-1, d), indexed by the graded-colexicographic rank of its
monomial.  Colex order compares exponent vectors from the last variable
backwards, so X_1^d has rank 0 and X_n^d has the largest rank.  Ranking and
unranking go through the combinatorial number system (no lookup tables
needed), which keeps both operations linear in n + d.

Two coefficient rings are supported:

  QQ     exact rationals (Python int / fractions.Fraction, freely mixed)
  RR     double-precision floats (approximate; rejected where exactness
         is required)

Arithmetic mod p is done on int64 arrays in rank, which also holds the
prime test.

Forms are immutable after construction, and every operation here is a pure
function, so values can be shared freely across threads.

monomial_shifts works on bare coefficient arrays of any dtype instead of
DenseForm: it multiplies a batch of forms by every monomial of a degree
at once, which is all that tangent generators s_k * X^alpha need, and
multiply contracts its result with the second factor's coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Coefficient rings


class Ring:
    """Base class for coefficient rings of DenseForm."""

    exact: bool = True
    zero = 0
    one = 1

    def coerce(self, value):
        raise NotImplementedError

    def div(self, a, b):
        raise NotImplementedError


class RationalRing(Ring):
    """Arbitrary-precision rationals; ints and Fractions interoperate."""

    def coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return value
        if isinstance(value, float):
            raise TypeError("float coefficient not allowed in the rational ring")
        return Fraction(value)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in rational ring")
        return Fraction(a, b) if isinstance(a, int) and isinstance(b, int) else Fraction(a) / Fraction(b)

    def __repr__(self) -> str:
        return "QQ"


class FloatRing(Ring):
    """Double-precision floats.  Approximate: never use where exactness matters."""

    exact = False
    zero = 0.0
    one = 1.0

    def coerce(self, value):
        return float(value)

    def div(self, a, b):
        return a / b

    def __repr__(self) -> str:
        return "RR"


QQ = RationalRing()
RR = FloatRing()


# ---------------------------------------------------------------------------
# Graded-colex monomial indexing


def monomial_count(n: int, d: int) -> int:
    """Number of degree-d monomials in n variables, C(n+d-1, d)."""
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    return comb(n + d - 1, d)


def monomial_rank(exponents: Sequence[int], n: int | None = None, d: int | None = None) -> int:
    """Colex rank of an exponent vector among monomials of its degree.

    Uses the combinatorial number system: with j_1 <= ... <= j_d the sorted
    0-based variable indices of the monomial (each repeated per its
    exponent), the rank is sum_i C(j_i + i - 1, i).
    """
    if n is not None and len(exponents) != n:
        raise ValueError(f"exponent vector has length {len(exponents)}, expected {n}")
    total = 0
    rank = 0
    i = 0
    for var, e in enumerate(exponents):
        if e < 0:
            raise ValueError(f"negative exponent {e} at position {var}")
        for _ in range(e):
            i += 1
            rank += comb(var + i - 1, i)
        total += e
    if d is not None and total != d:
        raise ValueError(f"exponent vector has degree {total}, expected {d}")
    return rank


def monomial_unrank(index: int, n: int, d: int) -> tuple[int, ...]:
    """Inverse of monomial_rank: the exponent vector at a given colex rank."""
    size = monomial_count(n, d)
    if not 0 <= index < size:
        raise IndexError(f"monomial index {index} out of range for n={n}, d={d}")
    e = [0] * n
    r = index
    hi = n + d - 2
    for i in range(d, 0, -1):
        b = hi
        while b >= i and comb(b, i) > r:
            b -= 1
        # b == i-1 means the remainder is exhausted by smaller positions
        r -= comb(b, i) if b >= i else 0
        e[b - i + 1] += 1
        hi = b - 1
    return tuple(e)


@lru_cache(maxsize=None)
def monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All degree-d exponent vectors in colex (rank) order."""
    return tuple(_iter_monomials(n, d))


def _iter_monomials(n: int, d: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (d,)
        return
    for last in range(d + 1):
        for head in _iter_monomials(n - 1, d - last):
            yield head + (last,)


@lru_cache(maxsize=None)
def quadratic_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (j, k), j <= k, in the colex order of degree-2 monomials."""
    pairs = []
    for e in monomials(n, 2):
        support = [i for i, x in enumerate(e) if x]
        pairs.append((support[0], support[-1]))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _shift_table(n: int, e: int, k: int) -> np.ndarray:
    # table[b, a] = rank of monomial_a(e) * monomial_b(k).  monomial_rank's
    # sum, grouped by variable: the s_v copies of variable v that follow c_v
    # lower-variable copies add sum_{i=c_v+1}^{c_v+s_v} C(v+i-1, i)
    # = C(v+c_v+s_v, c_v+s_v) - C(v+c_v, c_v) (hockey stick), read from
    # pascal[v, c] = C(v+c, c), v < n, c <= e+k.  Every entry is at most
    # C(n-1+e+k, e+k), a monomial count, so int64 holds it.
    pascal = np.array([[comb(v + c, c) for c in range(e + k + 1)] for v in range(n)],
                      dtype=np.int64)
    left = np.array(monomials(n, k), dtype=np.int64)
    right = np.array(monomials(n, e), dtype=np.int64)
    table = np.zeros((len(left), len(right)), dtype=np.int64)
    before = np.zeros_like(table)
    for v in range(n):
        s = left[:, v, None] + right[None, :, v]
        table += pascal[v, before + s] - pascal[v, before]
        before += s
    table.flags.writeable = False
    return table


def monomial_shifts(coeffs, n: int, e: int, k: int) -> np.ndarray:
    """Products of degree-e forms with every degree-k monomial.

    coeffs holds degree-e coefficient vectors on its last axis, with any
    leading batch axes; result[..., b, :] is that form times the b-th
    degree-k monomial (colex order), a degree-(e+k) coefficient vector.
    Multiplying by a monomial only moves coefficients, so the result keeps
    the dtype of coeffs: object arrays of ints/Fractions stay exact, int64
    residues stay reduced, float64 stays float64.
    """
    coeffs = np.asarray(coeffs)
    table = _shift_table(n, e, k)
    out = np.zeros(coeffs.shape[:-1] + (table.shape[0], monomial_count(n, e + k)), coeffs.dtype)
    out[..., np.arange(table.shape[0])[:, None], table] = coeffs[..., None, :]
    return out


# ---------------------------------------------------------------------------
# Dense forms


@dataclass(frozen=True)
class DenseForm:
    """A homogeneous degree-d polynomial in n variables, dense coefficients."""

    n: int
    d: int
    ring: Ring
    coeffs: tuple

    def __post_init__(self):
        size = monomial_count(self.n, self.d)
        if len(self.coeffs) != size:
            raise ValueError(
                f"coefficient vector has length {len(self.coeffs)}, "
                f"expected C({self.n + self.d - 1},{self.d}) = {size}"
            )

    @classmethod
    def from_coeffs(cls, n: int, d: int, coeffs: Iterable, ring: Ring = QQ) -> "DenseForm":
        return cls(n, d, ring, tuple(ring.coerce(c) for c in coeffs))

    @classmethod
    def zero(cls, n: int, d: int, ring: Ring = QQ) -> "DenseForm":
        return cls(n, d, ring, (ring.zero,) * monomial_count(n, d))

    @classmethod
    def monomial(cls, n: int, exponents: Sequence[int], coeff=1, ring: Ring = QQ) -> "DenseForm":
        d = sum(exponents)
        c = [ring.zero] * monomial_count(n, d)
        c[monomial_rank(exponents, n=n)] = ring.coerce(coeff)
        return cls(n, d, ring, tuple(c))

    @classmethod
    def variable(cls, n: int, index: int, ring: Ring = QQ) -> "DenseForm":
        e = [0] * n
        e[index] = 1
        return cls.monomial(n, e, ring=ring)

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def coefficient(self, exponents: Sequence[int]):
        return self.coeffs[monomial_rank(exponents, n=self.n, d=self.d)]

    def convert(self, ring: Ring) -> "DenseForm":
        if ring is self.ring:
            return self
        return DenseForm(self.n, self.d, ring, tuple(ring.coerce(c) for c in self.coeffs))

    def scale(self, scalar) -> "DenseForm":
        s = self.ring.coerce(scalar)
        return DenseForm(self.n, self.d, self.ring, tuple(c * s for c in self.coeffs))

    def __add__(self, other: "DenseForm") -> "DenseForm":
        _check_compatible(self, other, same_degree=True)
        return DenseForm(self.n, self.d, self.ring,
                         tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DenseForm") -> "DenseForm":
        _check_compatible(self, other, same_degree=True)
        return DenseForm(self.n, self.d, self.ring,
                         tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DenseForm":
        return DenseForm(self.n, self.d, self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, DenseForm):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __repr__(self) -> str:
        nnz = sum(1 for c in self.coeffs if c)
        return f"DenseForm(n={self.n}, d={self.d}, ring={self.ring!r}, nnz={nnz}/{len(self.coeffs)})"


def _check_compatible(f: DenseForm, g: DenseForm, same_degree: bool = False) -> None:
    if f.n != g.n:
        raise ValueError(f"variable count mismatch: {f.n} vs {g.n}")
    if f.ring != g.ring:
        raise ValueError(f"ring mismatch: {f.ring!r} vs {g.ring!r}")
    if same_degree and f.d != g.d:
        raise ValueError(f"degree mismatch: {f.d} vs {g.d}")


def multiply(f: DenseForm, g: DenseForm) -> DenseForm:
    """Coefficient-exact product of two forms: g's coefficients times the
    products of f with every degree-g.d monomial (monomial_shifts), one
    product over object arrays, so ints, Fractions and floats keep their
    Python types."""
    _check_compatible(f, g)
    shifted = monomial_shifts(np.array(f.coeffs, dtype=object), f.n, f.d, g.d)
    return DenseForm(f.n, f.d + g.d, f.ring, tuple(np.array(g.coeffs, dtype=object) @ shifted))


def evaluate(f: DenseForm, point: Sequence):
    """Evaluate a form at a point (exact if ring and point are exact)."""
    if len(point) != f.n:
        raise ValueError(f"point has length {len(point)}, expected {f.n}")
    total = f.ring.zero
    for e, c in zip(monomials(f.n, f.d), f.coeffs):
        if not c:
            continue
        term = c
        for x, k in zip(point, e):
            if k:
                term = term * x ** k
        total = total + term
    return total
