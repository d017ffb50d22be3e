"""Exact and floating-point matrix rank with a consensus protocol.

Exact ranks are computed over prime fields F_p after reducing integer or
rational entries mod p (rational denominators must be invertible mod p).
A mod-p rank never exceeds the rank over the rationals, and agreement of
two independent random primes is accepted as the exact value: for 31-bit
primes and the matrix sizes in scope the probability that both primes
divide the same nonzero minor is negligible.  The floating-point engine
counts singular values above a relative tolerance and serves as a third,
independent vote.

Elimination mod p is blocked, after FFLAS-FFPACK (Dumas, Giorgi, Pernet,
"Dense linear algebra over word-size prime fields: the FFLAS and FFPACK
packages", ACM TOMS 35(3), 2008), and rank_modp and kernel_basis_modp share
it.  A panel of at most PANEL = 64 columns is eliminated one column at a
time with vectorized int64 updates, leaving the multipliers (L) below the
pivots.  The columns right of the panel then take two products: U12 =
L11^-1 A12 for the panel's pivot rows, with the inverse of the unit lower
L11 formed by repeated squaring, and A22 -= L21 U12 for the rows below.

Both products, and matmul_modp, are exact float64 BLAS matmuls on 16-bit
limbs: the right factor is split as hi 2^16 + lo, each limb product sums at
most 64 terms below (p-1)(2^16-1), and 64 (2^31-2)(2^16-1) < 2^53 keeps
every such sum exactly representable.  The terms are non-negative, so every
partial sum is below the bound too, whatever order or thread split the BLAS
uses.  Each product is converted to int64 and reduced mod p.

Primes are drawn from the 100 largest primes below 2^31, which keeps a
residue times a 16-bit limb below 2^47 and a product of two residues inside
int64 for the panel loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from operator import attrgetter

import numpy as np

from .poly import _is_probable_prime

DEFAULT_PRIME_SEED = 1729
DEFAULT_FLOAT_TOL = 1e-8

# Columns per elimination panel, and the inner dimension of one limb product:
# PANEL products of a residue below 2^31 and a 16-bit limb sum below 2^53, so
# a float64 matmul computes them exactly.
PANEL = 64
assert PANEL * (2**31 - 2) * (2**16 - 1) < 2**53
# Columns per chunk of the trailing update.
CHUNK = 256

_denominator = attrgetter("denominator")


class ConsensusError(RuntimeError):
    """All rank engines disagree; no majority value exists."""


@dataclass(frozen=True)
class EngineRun:
    engine: str       # "modp" or "float"
    parameter: object  # the prime, or the float tolerance
    rank: int


@dataclass(frozen=True)
class RankReport:
    rank: int
    engines: tuple[EngineRun, ...]
    agreed: bool

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "agreed": self.agreed,
            "engines": [
                {"engine": e.engine, "parameter": e.parameter, "rank": e.rank}
                for e in self.engines
            ],
        }


@lru_cache(maxsize=1)
def prime_pool() -> tuple[int, ...]:
    """The 100 largest primes below 2^31, ascending."""
    primes = []
    candidate = 2**31 - 1
    while len(primes) < 100:
        if _is_probable_prime(candidate):
            primes.append(candidate)
        candidate -= 2
    return tuple(reversed(primes))


def draw_primes(seed: int, count: int, exclude: tuple[int, ...] = ()) -> list[int]:
    """Deterministic sample of distinct primes from the pool."""
    pool = [p for p in prime_pool() if p not in exclude]
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in idx]


def reduce_modp(matrix, p: int) -> np.ndarray:
    """An integer or rational matrix as int64 residues in [0, p).

    Rows with rational entries are first scaled by the lcm of their
    denominators, which changes neither the rank nor the right kernel.
    That lcm vanishes mod p exactly when one of the denominators does, and
    then the matrix has no reduction: ValueError.
    """
    a = np.asarray(matrix)
    if a.size == 0:
        return np.zeros(a.shape if a.ndim == 2 else (0, 0), dtype=np.int64)
    if a.dtype == object:
        try:
            scale = [lcm(*set(map(_denominator, row))) for row in a]
        except AttributeError:
            raise TypeError("matrix entries must be int or Fraction") from None
        if any(s % p == 0 for s in scale):
            raise ValueError(f"a denominator of the matrix is divisible by prime {p}")
        if max(scale) > 1:
            a = a * np.array(scale, dtype=object)[:, None]
    elif a.dtype.kind not in "iu":
        raise TypeError(f"matrix entries must be int or Fraction, got {a.dtype}")
    return (a % p).astype(np.int64, copy=False)


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place for int64 x.

    Large arrays use x - (x // p) p: numpy divides int64 by a scalar through
    a precomputed reciprocal, but computes a remainder with one hardware
    division per element, about twice as slow; small arrays take the single
    remainder call.
    """
    if x.size < 1024:
        return np.remainder(x, p, out=x)
    x -= x // p * p
    return x


def _limb_product(af: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for residues a (given as float64 af) and int64 b,
    inner dimension at most PANEL.

    b is split into 16-bit limbs; each limb product is a float64 BLAS matmul
    whose entries stay below PANEL (p-1)(2^16-1) < 2^53, so it is exact.
    """
    x = (af @ (b >> 16).astype(np.float64)).astype(np.int64)
    _mod(x, p)
    x <<= 16
    x += (af @ (b & 0xFFFF).astype(np.float64)).astype(np.int64)
    return _mod(x, p)


def matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 residues in [0, p), p < 2^31.

    The inner dimension is cut into runs of PANEL, each one limb product.
    """
    if p >= 2**31 or a.shape[-1] >= 2**16:
        raise ValueError(
            f"limb products need p < 2^31 and inner dimension < 2^16, "
            f"got p={p}, inner dimension {a.shape[-1]}"
        )
    out = _limb_product(a[..., :PANEL].astype(np.float64), b[:PANEL], p)
    for j in range(PANEL, a.shape[-1], PANEL):
        out += _limb_product(a[..., j:j + PANEL].astype(np.float64), b[j:j + PANEL], p)
        out[out >= p] -= p
    return out


def _unit_lower_inverse(lower: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of the unit lower triangular matrix with the strictly
    lower part of `lower` (its diagonal and upper part are ignored).

    With M = -(strictly lower part), nilpotent, the inverse is the sum of
    the powers of M.  The partial sum S of M^0 .. M^(s-1) doubles to
    S + S M^s while M^s squares; one stacked product [S; M^s] M^s gives both.
    """
    k = len(lower)
    power = -np.tril(lower, -1) % p
    inverse = np.eye(k, dtype=np.int64)
    span = 1
    while span < k:
        both = matmul_modp(np.vstack([inverse, power]), power, p)
        inverse += both[:k]
        inverse[inverse >= p] -= p
        power = both[k:]
        if not power.any():
            break
        span *= 2
    return inverse


def _panel(a: np.ndarray, r: int, c0: int, c1: int, p: int) -> list[int]:
    """Eliminate columns c0..c1-1 below row r in place, one column at a time.

    Works on a transposed copy of the panel so that each update runs along
    rows of a contiguous array; row swaps are applied to all of a.  Pivot
    rows land at r, r+1, ...; below each pivot the eliminated entries are
    replaced by their multipliers (L of the LU factorization).  Columns
    right of the panel are left alone.  Returns the pivot columns.
    """
    m = a.shape[0]
    panel = a[r:, c0:c1].T.copy()
    pivots: list[int] = []
    for j in range(c1 - c0):
        i = len(pivots)
        if r + i == m:
            break
        nz = panel[j, i:].nonzero()[0]
        if not nz.size:
            continue
        piv = i + int(nz[0])
        if piv != i:
            a[[r + i, r + piv]] = a[[r + piv, r + i]]
            panel[:, [i, piv]] = panel[:, [piv, i]]
        factors = panel[j, i + 1:]
        factors *= pow(int(panel[j, i]), -1, p)
        _mod(factors, p)
        pivot_row = panel[j + 1:, i, None]
        live = factors.nonzero()[0]
        if 2 * live.size < factors.size:
            # sparse column: update only the rows with a nonzero multiplier
            cols = live + (i + 1)
            panel[j + 1:, cols] = _mod(panel[j + 1:, cols] - pivot_row * factors[live], p)
        else:
            block = panel[j + 1:, i + 1:]
            block -= pivot_row * factors
            _mod(block, p)
        pivots.append(c0 + j)
    a[r:, c0:c1] = panel.T
    return pivots


def _echelon(a: np.ndarray, p: int) -> list[int]:
    """Blocked row echelon form of the residue matrix a, in place; returns
    the pivot columns, whose count is the rank.

    Panels of PANEL columns are eliminated by _panel.  For the k pivot rows
    of a panel, U12 = L11^-1 A12 is one limb product with the inverse of the
    unit lower L11, and the rows below get A22 -= L21 U12 as a second one,
    chunked by columns so that temporaries stay at rows x CHUNK cells.
    Entries left of each pivot keep multipliers.
    """
    m, n = a.shape
    pivots: list[int] = []
    for c0 in range(0, n, PANEL):
        r = len(pivots)
        if r == m:
            break
        c1 = min(c0 + PANEL, n)
        found = _panel(a, r, c0, c1, p)
        r1 = r + len(found)
        pivots += found
        if not found or c1 == n:
            continue
        l11_inverse = _unit_lower_inverse(a[r:r1, found], p).astype(np.float64)
        l21 = a[r1:, found].astype(np.float64)
        for j in range(c1, n, CHUNK):
            u12 = a[r:r1, j:j + CHUNK]
            u12[...] = _limb_product(l11_inverse, u12, p)
            if r1 < m:
                a22 = a[r1:, j:j + CHUNK]
                a22 -= _limb_product(l21, u12, p)
                a22[a22 < 0] += p
    return pivots


def rank_modp(matrix, p: int) -> int:
    """Rank of an integer/rational matrix reduced mod the odd prime p."""
    _check_prime(p)
    return len(_echelon(reduce_modp(matrix, p), p))


@lru_cache(maxsize=128)
def _check_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or p >= 2**31 or not _is_probable_prime(p):
        raise ValueError(f"modulus must be an odd prime below 2^31, got {p}")


def kernel_basis_modp(matrix, p: int) -> np.ndarray:
    """Basis of the right kernel over F_p, one vector per row.

    The basis has cols - rank vectors, one per non-pivot column f of the
    echelon form: 1 at f, minus column f of the reduced echelon form at the
    pivot columns.  Each satisfies M v = 0 mod p.
    """
    _check_prime(p)
    a = reduce_modp(matrix, p)
    ncols = a.shape[1]
    if ncols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    pivots = _echelon(a, p)
    upper = a[:len(pivots)]
    upper[np.arange(ncols) < np.array(pivots)[:, None]] = 0
    scale = [pow(int(upper[i, c]), -1, p) for i, c in enumerate(pivots)]
    upper = _mod(upper * np.array(scale, dtype=np.int64)[:, None], p)
    # upper[:, pivots] is unit upper triangular; its inverse turns upper into
    # the reduced echelon form
    free = np.setdiff1d(np.arange(ncols), pivots)
    reduced = matmul_modp(_unit_lower_inverse(upper[:, pivots].T, p).T, upper[:, free], p)
    basis = np.zeros((free.size, ncols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -reduced.T % p
    return basis


def rank_float(matrix, tol: float = DEFAULT_FLOAT_TOL) -> int:
    """Singular values above tol * (largest singular value)."""
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tol}")
    a = np.asarray(matrix, dtype=np.float64)
    if a.size == 0:
        return 0
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


def _as_int64(matrix):
    """An object matrix of Python ints as int64, so that each prime reduces
    it with one int64 `%`; any other matrix, or one with an entry of 2^63 or
    more, as an ndarray of its own dtype.  Fractions are never cast: the
    cast would truncate them."""
    a = np.asarray(matrix)
    if a.dtype == object and not set(map(type, a.flat)) - {int}:
        try:
            return a.astype(np.int64)
        except OverflowError:
            pass
    return a


def rank_consensus(
    matrix,
    prime_seed: int = DEFAULT_PRIME_SEED,
    tol: float = DEFAULT_FLOAT_TOL,
) -> RankReport:
    """Rank agreed by two random-prime engines and the float engine.

    On disagreement a third prime is drawn and the majority among the
    exact engines wins, with the report flagged; three distinct exact
    ranks raise ConsensusError.  Primes whose reduction fails (a rational
    denominator vanishes mod p) are redrawn.
    """
    matrix = _as_int64(matrix)
    used: list[int] = []
    runs: list[EngineRun] = []

    def run_prime(offset: int) -> int:
        for attempt in range(10):
            (p,) = draw_primes(prime_seed + offset + 1000003 * attempt, 1, tuple(used))
            try:
                r = rank_modp(matrix, p)
            except ValueError:
                used.append(p)
                continue
            used.append(p)
            runs.append(EngineRun("modp", p, r))
            return r
        raise ConsensusError("could not find a usable prime for this matrix")

    r1 = run_prime(0)
    r2 = run_prime(1)
    rf = rank_float(matrix, tol)
    runs.append(EngineRun("float", tol, rf))
    if r1 == r2 == rf:
        return RankReport(r1, tuple(runs), True)
    r3 = run_prime(2)
    exact = [r1, r2, r3]
    for candidate in exact:
        if exact.count(candidate) >= 2:
            return RankReport(candidate, tuple(runs), False)
    raise ConsensusError(f"irreconcilable rank disagreement: modp ranks {exact}, float {rf}")
