"""Exact and floating-point matrix rank with a consensus protocol.

Exact ranks are computed over prime fields F_p after reducing integer or
rational entries mod p (rational denominators must be invertible mod p).
A mod-p rank never exceeds the rank over the rationals, and agreement of
two independent random primes is accepted as the exact value: for 31-bit
primes and the matrix sizes in scope the probability that both primes
divide the same nonzero minor is negligible.  The floating-point engine
counts singular values above a relative tolerance and serves as a third,
independent vote.

Primes are drawn from the 100 largest primes below 2^31 so that products
of two residues fit in 64-bit intermediates, which keeps the elimination
loops vectorizable with numpy int64 arithmetic.
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


def matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 residues in [0, p), p < 2^31.

    b is split into 16-bit limbs, so each product of a residue and a limb
    is below 2^47 and a sum of fewer than 2^16 of them stays below 2^63.
    """
    if p >= 2**31 or a.shape[-1] >= 2**16:
        raise ValueError(
            f"int64 limb products need p < 2^31 and inner dimension < 2^16, "
            f"got p={p}, inner dimension {a.shape[-1]}"
        )
    low = a @ (b & 0xFFFF) % p
    high = a @ (b >> 16) % p
    return (low + (high << 16) % p) % p


def rank_modp(matrix, p: int) -> int:
    """Rank of an integer/rational matrix reduced mod the odd prime p."""
    _check_prime(p)
    return _echelon_rank(reduce_modp(matrix, p), p)


def _check_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or p >= 2**31 or not _is_probable_prime(p):
        raise ValueError(f"modulus must be an odd prime below 2^31, got {p}")


def _echelon_rank(a: np.ndarray, p: int) -> int:
    """Forward elimination over F_p; vectorized row updates, int64 safe."""
    m, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == m:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        factors = (a[r + 1:, c] * inv) % p
        live = np.nonzero(factors)[0]
        if live.size:
            block = a[r + 1:, c:]
            block[live] = (block[live] - factors[live, None] * a[r, c:]) % p
        r += 1
    return r


def _rref_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p; returns (rref, pivot columns)."""
    a = a % p
    m, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - a[others, c][:, None] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def kernel_basis_modp(matrix, p: int) -> np.ndarray:
    """Basis of the right kernel over F_p, one vector per row.

    The basis has cols - rank vectors; each satisfies M v = 0 mod p.
    """
    _check_prime(p)
    a = reduce_modp(matrix, p)
    m, ncols = a.shape
    if ncols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    rref, pivots = _rref_modp(a, p)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for row_idx, pc in enumerate(pivots):
            basis[i, pc] = (-int(rref[row_idx, fc])) % p
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
