"""Independent oracles for the test suite.

These deliberately avoid the library's own code paths: rank is plain
Fraction-pivot Gaussian elimination, or column-by-column elimination over
F_p for residue matrices, resultants come from numerical root products, and
polynomial curves in t are fitted by solving an exact Vandermonde system.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def rational_rank(matrix) -> int:
    """Rank over the rationals by textbook elimination with exact pivots."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def echelon_rank_modp(a: np.ndarray, p: int) -> int:
    """Rank over F_p of an int64 residue matrix (p < 2^31), by unblocked
    forward elimination one column at a time; a is overwritten."""
    m, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
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


def resultant_by_roots(f_asc: list[int], g_asc: list[int]) -> float:
    """Res(f, g) = lc(f)^deg(g) * prod g(roots of f), numerically."""
    roots = np.roots(list(reversed(f_asc)))
    g_desc = list(reversed(g_asc))
    value = complex(float(f_asc[-1]) ** (len(g_asc) - 1))
    for r in roots:
        value *= complex(np.polyval(g_desc, r))
    return value.real


def fit_t_polynomial(samples: list[tuple[Fraction, tuple]]) -> list[tuple]:
    """Exactly fit coefficient vectors of a polynomial curve t -> v(t).

    samples are (t_i, vector_i) pairs, one more than the degree; returns
    the coefficient vectors [v_0, v_1, ...] with v(t) = sum v_j t^j,
    solved from the Vandermonde system over Fractions.
    """
    k = len(samples)
    ts = [Fraction(t) for t, _ in samples]
    width = len(samples[0][1])
    # augmented elimination on the k x k Vandermonde with vector RHS
    a = [[ts[i] ** j for j in range(k)] for i in range(k)]
    rhs = [[Fraction(x) for x in vec] for _, vec in samples]
    for col in range(k):
        piv = next(i for i in range(col, k) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        rhs[col] = [x / pv for x in rhs[col]]
        for i in range(k):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                rhs[i] = [x - f * y for x, y in zip(rhs[i], rhs[col])]
    return [tuple(rhs[j]) for j in range(k)]


def random_rational_params(rng: np.random.Generator, n: int):
    """Random small-denominator rational (mean, quad) data for n variables."""
    nq = n * (n + 1) // 2
    mean = [
        Fraction(int(a), int(b))
        for a, b in zip(rng.integers(-9, 10, n), rng.integers(1, 5, n))
    ]
    quad = [
        Fraction(int(a), int(b))
        for a, b in zip(rng.integers(-9, 10, nq), rng.integers(1, 5, nq))
    ]
    return mean, quad
