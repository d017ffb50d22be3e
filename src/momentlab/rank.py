"""Exact matrix rank over prime fields, with a rank certificate.

Exact ranks are computed over prime fields F_p after reducing integer or
rational entries mod p (rational denominators must be invertible mod p).
A mod-p rank never exceeds the rank over the rationals, so every mod-p
rank is a proven lower bound.  rank_consensus pairs it with an upper bound
the caller proves by other means (by default the dimension count min(rows,
cols); the degree-4 secant experiments use exact kernel vectors): when one
prime's rank reaches the upper bound, the rank is certified.  A second
prime is drawn only when the first falls short, and a report whose bounds
still differ is labelled uncertified, never rounded to either bound.  A
caller that can build a matrix's residues mod p directly passes
rank_consensus or kernel_modp that function instead of the matrix: the
residues are eliminated in place, so a certificate holds one residue
matrix and the elimination's temporaries at a time.  rank_float, a float
SVD rank, is no part of any certificate.

Elimination mod p is blocked, after FFLAS-FFPACK (Dumas, Giorgi, Pernet,
"Dense linear algebra over word-size prime fields: the FFLAS and FFPACK
packages", ACM TOMS 35(3), 2008), and rank_modp and kernel_modp share
it.  Each panel of PANEL = 64 columns is factored recursively, after
Jeannerod, Pernet, Storjohann ("Rank-profile revealing Gaussian elimination
and the CUP matrix decomposition", J. Symbolic Comput. 56, 2013): a panel of
at least 2 BASE = 32 columns and RECURSE_ROWS rows is halved, and its right
half is updated from its left half's pivots before it is factored in turn.
Smaller panels are eliminated one column at a time with vectorized int64
updates, and their row swaps reach the rest of the matrix as one gather of
the moved rows.  Multipliers (L) are left below the pivots.  After a panel
or a left half, the columns to its right take two products: U12 = L11^-1 A12
for its pivot rows and A22 -= L21 U12 for the rows below.  The inverse of
the unit lower L11 is composed from its halves' inverses as [[A^-1, 0],
[-C^-1 B A^-1, C^-1]], down to a substitution at BASE rows or fewer.  Each
pivot is the first nonzero entry of its column, so the echelon form does
not depend on the blocking.

Every step is bounded by the rows that reach it.  Each row's leading
column (its first nonzero residue) is read once; the rows from reach(c)
on, past the last row that leads left of column c, are zero left of c,
take only zero multipliers from a step left of c and never pivot there.
So a panel's column loop, its halves' updates and its trailing update
work only on the rows from its first pivot row to reach(c1), where c1
ends the panel, and the echelon form is the same as over all rows.  That
holds for any row order, and saves most when the rows are sorted by
leading column: a caller that can choose its row order gains by sorting.

Every product mod p in the package is one function, matmul_modp, under
one rule.  Its inner dimension is cut into runs of PANEL and its right
factor split into 16-bit limbs, hi 2^16 + lo; each limb product is an
exact float64 BLAS matmul, because it sums at most PANEL = 64 terms below
(p-1)(2^16-1) and 64 (2^31-2)(2^16-1) < 2^53.  The terms are non-negative,
so every partial sum is below the bound too, whatever order or thread split
the BLAS uses.  Each limb product is converted to int64, and each run,
(hi product mod p) 2^16 + lo product plus the residues summed so far, stays
below 2^54 and is reduced mod p before the next: the inner dimension has no
limit.  The result is formed, or accumulated into a given residue matrix,
in blocks of BLOCK_ROWS x CHUNK cells: beyond a float64 copy of the left
factor and the limbs of CHUNK columns of the right one, a product holds
three temporaries of one block, whatever its shape.

Primes are drawn from the 100 largest primes below 2^31, which keeps a
residue times a 16-bit limb below 2^47 and a product of two residues inside
int64 for the panel loop.  This module is the package's only modular
arithmetic, and holds its prime test: check_odd_prime refuses any modulus
that is not an odd prime below 2^31, by a Miller-Rabin test with the bases
2, 3, 5 and 7, which is deterministic in that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from operator import attrgetter

import numpy as np

DEFAULT_PRIME_SEED = 1729
DEFAULT_FLOAT_TOL = 1e-8
# The default upper_reason of rank_consensus: upper = min(rows, cols).
DIMENSION_COUNT = "dimension count"

# Columns per elimination panel, and the inner dimension of one limb product:
# PANEL products of a residue below 2^31 and a 16-bit limb sum below 2^53, so
# a float64 matmul computes them exactly.
PANEL = 64
assert PANEL * (2**31 - 2) * (2**16 - 1) < 2**53
# Columns and rows of one block of a matmul_modp result, so that each
# temporary of a product stays at BLOCK_ROWS x CHUNK cells whatever its shape.
CHUNK = 256
BLOCK_ROWS = 512
# A panel of at least 2 BASE columns and RECURSE_ROWS rows is factored in
# halves; a smaller one is eliminated one column at a time.  A unit lower
# inverse of more than BASE rows is composed from halves, a smaller one built
# by substitution.
BASE = 16
RECURSE_ROWS = 64

_denominator = attrgetter("denominator")


@dataclass(frozen=True)
class EngineRun:
    engine: str  # always "modp"
    parameter: int  # the prime
    rank: int


@dataclass(frozen=True)
class RankReport:
    """A rank certificate: rank is the best mod-p rank, a proven lower bound
    reached at lower_prime; upper is a proven upper bound with its source.
    engines holds every prime's run, in the order they were drawn."""

    rank: int
    lower_prime: int
    upper: int
    upper_reason: str
    engines: tuple[EngineRun, ...]

    @property
    def certified(self) -> bool:
        return self.rank == self.upper

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "certified": self.certified,
            "lower_prime": self.lower_prime,
            "upper": self.upper,
            "upper_reason": self.upper_reason,
            "engines": [
                {"engine": e.engine, "parameter": e.parameter, "rank": e.rank}
                for e in self.engines
            ],
        }


@lru_cache(maxsize=128)
def check_odd_prime(p: int) -> None:
    """ValueError unless p is an odd prime below 2^31, the moduli that the
    mod-p engines accept."""
    if p < 3 or p % 2 == 0 or p >= 2**31 or not _is_probable_prime(p):
        raise ValueError(f"modulus must be an odd prime below 2^31, got {p}")


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3,215,031,751, where the bases
    # 2, 3, 5, 7 decide primality (Jaeschke, Math. Comp. 61, 1993); every
    # modulus below 2^31 is in range
    if n >= 3_215_031_751:
        raise ValueError(f"prime test needs n < 3,215,031,751, got {n}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The 100 largest primes below 2^31, ascending: a scan of the odd numbers
# down from 2^31 - 1 with _is_probable_prime gives this list.
_PRIME_POOL = (
    2147481337, 2147481353, 2147481359, 2147481367, 2147481373, 2147481487, 2147481491,
    2147481499, 2147481509, 2147481529, 2147481563, 2147481571, 2147481629, 2147481673,
    2147481793, 2147481797, 2147481811, 2147481827, 2147481863, 2147481883, 2147481893,
    2147481899, 2147481901, 2147481907, 2147481937, 2147481949, 2147481967, 2147481997,
    2147482021, 2147482063, 2147482081, 2147482091, 2147482093, 2147482121, 2147482223,
    2147482231, 2147482237, 2147482273, 2147482291, 2147482327, 2147482343, 2147482349,
    2147482361, 2147482367, 2147482409, 2147482417, 2147482481, 2147482501, 2147482507,
    2147482577, 2147482583, 2147482591, 2147482621, 2147482661, 2147482663, 2147482681,
    2147482693, 2147482697, 2147482739, 2147482763, 2147482801, 2147482811, 2147482817,
    2147482819, 2147482859, 2147482867, 2147482873, 2147482877, 2147482921, 2147482937,
    2147482943, 2147482949, 2147482951, 2147483029, 2147483033, 2147483053, 2147483059,
    2147483069, 2147483077, 2147483123, 2147483137, 2147483171, 2147483179, 2147483237,
    2147483249, 2147483269, 2147483323, 2147483353, 2147483399, 2147483423, 2147483477,
    2147483489, 2147483497, 2147483543, 2147483549, 2147483563, 2147483579, 2147483587,
    2147483629, 2147483647,
)


def prime_pool() -> tuple[int, ...]:
    """The 100 largest primes below 2^31, ascending."""
    return _PRIME_POOL


def draw_primes(seed: int, count: int, exclude: tuple[int, ...] = ()) -> list[int]:
    """Deterministic sample of distinct primes from the pool."""
    pool = [p for p in prime_pool() if p not in exclude]
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in idx]


def exact_array(matrix) -> np.ndarray:
    """An integer or rational matrix as an ndarray, int64 when it can be.

    Anything but an ndarray is read with dtype=object, so Python ints of any
    size stay exact.  An object array of integers below 2^63 in magnitude is
    cast to int64, which each prime then reduces with one int64 `%`; one with
    a Fraction, or an int of 2^63 or more, stays object (a cast would
    truncate or overflow).  Other ndarrays are returned as they are.
    """
    a = matrix if isinstance(matrix, np.ndarray) else np.array(matrix, dtype=object)
    if a.dtype == object and all(
        issubclass(t, (int, np.integer)) for t in set(map(type, a.flat))
    ):
        try:
            return a.astype(np.int64)
        except OverflowError:
            pass
    return a


def within_int64(a: np.ndarray, factor: int) -> np.ndarray:
    """a itself when it is int64 and factor * max|a| < 2^63, so that its
    products with numbers (or sums of products) up to factor cannot
    overflow; a over Python ints otherwise."""
    if a.dtype == np.int64 and (
        not a.size or factor * max(int(a.max()), -int(a.min())) < 2**63
    ):
        return a
    return a.astype(object)


def reduce_modp(matrix, p: int) -> np.ndarray:
    """An integer or rational matrix as int64 residues in [0, p), always
    in a new array.

    Integer matrices that fit int64 take one int64 `%` (see exact_array).
    Otherwise rows with rational entries are first
    scaled by the lcm of their denominators, which changes neither the rank
    nor the right kernel.  That lcm vanishes mod p exactly when one of the
    denominators does, and then the matrix has no reduction: ValueError.
    """
    a = exact_array(matrix)
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


def _mod(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod p for int64 x, in place or into out.

    Large arrays use x - (x // p) p: numpy divides int64 by a scalar through
    a precomputed reciprocal, but computes a remainder with one hardware
    division per element, about twice as slow; small arrays take the single
    remainder call.
    """
    if out is None:
        out = x
    if x.size < 1024:
        return np.remainder(x, p, out=out)
    return np.subtract(x, x // p * p, out=out)


def matmul_modp(a: np.ndarray, b: np.ndarray, p: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Exact (a @ b) mod p for 2-D int64 residues in [0, p), p < 2^31, of
    any inner dimension; with residues out, (out + a @ b) mod p is written
    into out.  Returns the result.

    The inner dimension runs in steps of PANEL against 16-bit limbs of b,
    each step reduced mod p before the next, and the result is formed in
    blocks of BLOCK_ROWS x CHUNK cells, as the module docstring sets out.
    """
    rows, inner = a.shape
    if p >= 2**31:
        raise ValueError(f"limb products need p < 2^31, got p={p}")
    fresh = out is None
    if fresh:
        out = np.zeros((rows, b.shape[1]), dtype=np.int64)
    af = a.astype(np.float64)
    for j in range(0, b.shape[1], CHUNK):
        chunk = b[:, j:j + CHUNK]
        hi = (chunk >> 16).astype(np.float64)
        lo = (chunk & 0xFFFF).astype(np.float64)
        for i in range(0, rows, BLOCK_ROWS):
            block = out[i:i + BLOCK_ROWS, j:j + CHUNK]
            for k in range(0, inner, PANEL):
                ak = af[i:i + BLOCK_ROWS, k:k + PANEL]
                x = (ak @ hi[k:k + PANEL]).astype(np.int64)
                _mod(x, p)
                x <<= 16
                x += (ak @ lo[k:k + PANEL]).astype(np.int64)
                if k or not fresh:  # a fresh block is zero before its first run
                    x += block
                _mod(x, p, block)
    return out


def _unit_lower_inverse(lower: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of the unit lower triangular matrix with the strictly
    lower part of `lower` (its diagonal and upper part are ignored).

    Up to BASE rows the inverse is built by substitution, one column of
    multipliers at a time; a larger one is halved and composed by _compose.
    """
    k = len(lower)
    if k > BASE:
        h = k // 2
        return _compose(_unit_lower_inverse(lower[:h, :h], p), lower[h:, :h],
                        _unit_lower_inverse(lower[h:, h:], p), p)
    inverse = np.eye(k, dtype=np.int64)
    for j in range(k - 1):
        # rows below j take -lower[i, j] times row j, which is final and has
        # entries only in columns up to j; each product is below 2^62
        block = inverse[j + 1:, :j + 1]
        block -= lower[j + 1:, j, None] * inverse[j, :j + 1]
        _mod(block, p)
    return inverse


def _compose(a_inverse: np.ndarray, b: np.ndarray, c_inverse: np.ndarray, p: int) -> np.ndarray:
    """The inverse [[A^-1, 0], [-C^-1 B A^-1, C^-1]] of the unit lower [[A, 0], [B, C]]."""
    k1, k2 = len(a_inverse), len(c_inverse)
    inverse = np.zeros((k1 + k2, k1 + k2), dtype=np.int64)
    inverse[:k1, :k1] = a_inverse
    inverse[k1:, k1:] = c_inverse
    if k1 and k2:
        corner = matmul_modp(c_inverse, matmul_modp(b, a_inverse, p), p)
        inverse[k1:, :k1] = np.where(corner, p - corner, 0)
    return inverse


def _panel(a: np.ndarray, r: int, end: int, c0: int, c1: int, p: int) -> list[int]:
    """Eliminate columns c0..c1-1 in rows r..end-1 in place, one column at a
    time; the rows from `end` on are zero in these columns.

    Works on a transposed copy of the panel so that each update runs along
    rows of a contiguous array.  Pivot rows land at r, r+1, ...; below each
    pivot the eliminated entries are replaced by their multipliers (L of the
    LU factorization).  The row swaps are applied to the rest of a at the
    end, as one gather of the rows they moved; columns right of the panel
    are otherwise left alone.  Returns the pivot columns.
    """
    width = c1 - c0
    panel = a[r:end, c0:c1].T.copy()
    order = np.arange(end - r)
    pivots: list[int] = []
    for j in range(width):
        i = len(pivots)
        if r + i == end:
            break
        column = panel[j]
        if not column[i]:
            nz = column[i:].nonzero()[0]
            if not nz.size:
                continue
            piv = i + int(nz[0])
            order[i], order[piv] = order[piv], order[i]
            swap = panel[:, i].copy()
            panel[:, i] = panel[:, piv]
            panel[:, piv] = swap
        pivots.append(c0 + j)
        factors = column[i + 1:]
        factors *= pow(int(column[i]), -1, p)
        _mod(factors, p)
        if j + 1 == width:
            break
        block = panel[j + 1:, i + 1:]
        block -= panel[j + 1:, i, None] * factors
        _mod(block, p)
    moved = (order != np.arange(end - r)).nonzero()[0]
    if moved.size:
        a[r + moved] = a[r + order[moved]]
    a[r:end, c0:c1] = panel.T
    return pivots


def _update(a: np.ndarray, r: int, end: int, found: list[int], inverse: np.ndarray,
            c0: int, c1: int, p: int) -> None:
    """Columns c0..c1-1 after the pivots `found` at rows r, r+1, ...: the
    pivot rows get U12 = L11^-1 A12 and the rows below them, up to `end`,
    A22 -= L21 U12, as two matmul_modp products.  The rows from `end` on
    have zero multipliers and are left alone."""
    r1 = r + len(found)
    u12 = a[r:r1, c0:c1]
    u12[...] = matmul_modp(inverse, u12, p)
    # -L21 as residues, so that A22 is updated by one addition mod p
    minus_l21 = a[r1:end, found]
    np.subtract(p, minus_l21, out=minus_l21)
    minus_l21[minus_l21 == p] = 0
    matmul_modp(minus_l21, u12, p, out=a[r1:end, c0:c1])


def _factor(a: np.ndarray, r: int, c0: int, c1: int, p: int, reach: np.ndarray,
            want_inverse: bool) -> tuple[list[int], np.ndarray | None]:
    """Eliminate columns c0..c1-1 below row r in place, as _panel does, in
    the rows r..reach[c1]-1 that reach them; returns the pivot columns and,
    when want_inverse, the inverse of the panel's unit lower L11.

    A panel of at least 2 BASE columns and RECURSE_ROWS such rows is halved:
    the left half is factored, the right half takes its U12 and A22 updates
    (_update, in the rows that reach the left half), then is factored
    itself.  The inverse is composed from the halves' inverses; the left one
    is needed for the update anyway, the right one is formed only when the
    caller wants the whole.
    """
    end = int(reach[c1])
    if c1 - c0 < 2 * BASE or end - r < RECURSE_ROWS:
        found = _panel(a, r, end, c0, c1, p)
        if not want_inverse:
            return found, None
        return found, _unit_lower_inverse(a[r:r + len(found), found], p)
    mid = (c0 + c1) // 2
    left, left_inverse = _factor(a, r, c0, mid, p, reach, True)
    r1 = r + len(left)
    if left:
        _update(a, r, int(reach[mid]), left, left_inverse, mid, c1, p)
    right, right_inverse = _factor(a, r1, mid, c1, p, reach, want_inverse)
    if not want_inverse:
        return left + right, None
    b = a[r1:r1 + len(right), left]
    return left + right, _compose(left_inverse, b, right_inverse, p)


def _reach(a: np.ndarray) -> np.ndarray:
    """reach[c] for c = 0..cols: the first row from which every row of a is
    zero left of column c.

    Each row's leading column (its first nonzero entry, cols for a zero row)
    is read once, CHUNK^2 cells of rows at a time; reach is where the suffix
    minimum of the leading columns first reaches c.
    """
    rows, cols = a.shape
    if not a.size:
        return np.zeros(cols + 1, dtype=np.int64)
    lead = np.empty(rows, dtype=np.int64)
    step = max(1, CHUNK * CHUNK // cols)
    for i in range(0, rows, step):
        nonzero = a[i:i + step] != 0
        first = nonzero.argmax(axis=1)
        lead[i:i + step] = np.where(nonzero[np.arange(len(first)), first], first, cols)
    suffix_min = np.minimum.accumulate(lead[::-1])[::-1]
    return np.searchsorted(suffix_min, np.arange(cols + 1))


def _echelon(a: np.ndarray, p: int) -> list[int]:
    """Blocked row echelon form of the residue matrix a, in place; returns
    the pivot columns, whose count is the rank.

    Panels of PANEL columns are factored by _factor, in halves down to
    fewer than 2 BASE columns.  For the k pivot rows of a panel, U12 =
    L11^-1 A12 is one matmul_modp product with the inverse of the unit lower
    L11, and the rows below get A22 -= L21 U12 as a second one, accumulated
    into A22 in place.  Besides U12 (k rows) and -L21 with its float64 copy
    (k columns), both hold temporaries of at most BLOCK_ROWS x CHUNK cells,
    as every matmul_modp product does.  Entries below each pivot keep
    multipliers.  Pivots are the first nonzero entry of each column, so the
    result does not depend on the blocking: it is the unblocked
    elimination's, with multipliers in place of the zeros below the pivots.

    Every step is bounded by the rows that reach it.  The rows from
    reach[c] on (see _reach) are zero left of column c; a step left of c
    gives them zero multipliers, so it never changes them, and never takes
    a pivot among them.  So each panel's column loop, its halves' updates
    and its trailing update work only on rows r..reach[c1]-1, where c1 ends
    the panel (or half) and r is its first pivot row, and the result is
    the same as over all rows.  The pivots left of c come from distinct
    rows above reach[c], so r <= reach[c0] <= reach[c1].  That holds for
    any row order; a caller that can choose its order gains by sorting rows
    by leading column, which makes reach[c1] - r small for the early
    panels.
    """
    n = a.shape[1]
    reach = _reach(a)
    pivots: list[int] = []
    for c0 in range(0, n, PANEL):
        r = len(pivots)
        if r == reach[n]:  # every row from r on is zero
            break
        c1 = min(c0 + PANEL, n)
        found, l11_inverse = _factor(a, r, c0, c1, p, reach, c1 < n)
        pivots += found
        if found and c1 < n:
            _update(a, r, int(reach[c1]), found, l11_inverse, c1, n, p)
    return pivots


def rank_modp(matrix, p: int) -> int:
    """Rank of an integer/rational matrix reduced mod the odd prime p."""
    check_odd_prime(p)
    return len(_echelon(reduce_modp(matrix, p), p))


def kernel_modp(matrix, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The right kernel over F_p in the echelon form's coordinates:
    (pivots, free, reduced).

    pivots are the echelon form's pivot columns and free the others, both
    ascending; reduced is the reduced echelon form at the free columns, of
    rank x len(free) cells.  The kernel has one basis vector per free column
    f = free[v]: 1 at f, -reduced[:, v] at the pivots and 0 elsewhere, so
    that M v = 0 mod p.  reduced is one matmul_modp product, so its
    temporaries stay at BLOCK_ROWS x CHUNK cells, and the residues are
    dropped before it: besides the input, at most two arrays of the
    matrix's size are held at once.  Residues handed over as a function
    residues(p) are eliminated in place and are the first of the two.
    """
    check_odd_prime(p)
    a = matrix(p) if callable(matrix) else reduce_modp(matrix, p)
    pivots = np.array(_echelon(a, p), dtype=np.int64)
    upper = a[:len(pivots)]
    upper[np.arange(a.shape[1]) < pivots[:, None]] = 0
    scale = [pow(int(upper[i, c]), -1, p) for i, c in enumerate(pivots)]
    upper *= np.array(scale, dtype=np.int64)[:, None]
    _mod(upper, p)
    # upper[:, pivots] is unit upper triangular; its inverse turns upper into
    # the reduced echelon form
    is_pivot = np.zeros(a.shape[1], dtype=bool)
    is_pivot[pivots] = True
    free = np.flatnonzero(~is_pivot)
    inverse = _unit_lower_inverse(upper[:, pivots].T, p).T
    right = upper[:, free]
    del a, upper
    return pivots, free, matmul_modp(inverse, right, p)


def kernel_basis_modp(matrix, p: int) -> np.ndarray:
    """kernel_modp's basis written out densely, one vector per row."""
    pivots, free, reduced = kernel_modp(matrix, p)
    basis = np.zeros((free.size, pivots.size + free.size), dtype=np.int64)
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


def rank_consensus(
    matrix,
    prime_seed: int = DEFAULT_PRIME_SEED,
    upper: int | None = None,
    upper_reason: str = DIMENSION_COUNT,
) -> RankReport:
    """Certified rank: mod-p ranks as lower bounds against a proven upper bound.

    upper defaults to min(rows, cols), the dimension count.  One prime is
    eliminated; a second is drawn only when its rank falls short of upper,
    and the report is certified when the best rank reaches it.  Primes whose
    reduction fails (a rational denominator vanishes mod p) are redrawn.  A
    mod-p rank above upper means the upper bound was wrong: ValueError.

    matrix is either a matrix, read once by exact_array and reduced into a
    copy for each prime, or a function residues(p) that returns the
    matrix's int64 residues mod p, freshly built for each prime.  The
    report is the same.  Each prime's residues are eliminated in place, so
    a certificate holds one residue matrix and the elimination's
    temporaries at a time.
    """
    exact = None if callable(matrix) else exact_array(matrix)
    residues = matrix if callable(matrix) else lambda p: reduce_modp(exact, p)
    used: list[int] = []
    runs: list[EngineRun] = []
    rank, lower_prime = -1, 0
    for offset in range(2):
        for attempt in range(10):
            (p,) = draw_primes(prime_seed + offset + 1000003 * attempt, 1, tuple(used))
            used.append(p)
            try:
                a = residues(p)
            except ValueError:
                continue
            break
        else:
            raise ValueError("could not find a usable prime for this matrix")
        if upper is None:
            upper = min(a.shape)
        r = len(_echelon(a, p))
        del a
        runs.append(EngineRun("modp", p, r))
        if r > upper:
            raise ValueError(f"rank {r} mod {p} exceeds the upper bound {upper} ({upper_reason})")
        if r > rank:
            rank, lower_prime = r, p
        if rank == upper:
            break
    return RankReport(rank, lower_prime, upper, upper_reason, tuple(runs))
