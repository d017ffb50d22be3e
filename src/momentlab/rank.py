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
Smaller panels are eliminated one column at a time, by vectorized updates
of an int64 copy, and their row swaps reach the rest of the matrix as one
gather of the moved rows.  Multipliers (L) are left below the pivots.
After a panel or a left half, the columns to its right take two products:
U12 = L11^-1 A12 for its pivot rows, formed in place CHUNK columns at a
time, and A22 -= L21 U12 for the rows below.  The inverse of the unit lower
L11 is composed from its halves' inverses as [[A^-1, 0], [-C^-1 B A^-1,
C^-1]], down to a substitution at BASE rows or fewer.  Each pivot is the
first nonzero entry of its column, so the echelon form does not depend on
the blocking.

Rows are sorted first, and every step is bounded by the rows that reach
it.  Each row's leading column (its first nonzero residue) is read once,
and the rows of a matrix of at least 2 BASE columns are sorted stably by
it, in place: a row order changes no rank, pivot column or kernel vector,
so no caller lays out its rows.  The rows from reach(c) on, past the last
row that leads left of column c, are zero left of c, take only zero
multipliers from a step left of c and never pivot there.  So a panel's
column loop, its halves' updates and its trailing update work only on
the rows from its first pivot row to reach(c1), where c1 ends the panel,
and the echelon form is the same as over all rows.

ranks_modp ranks the column slices of one residue block.  For small
slices _echelon's column loops, a dozen numpy calls a column on small
arrays, cost more in calls than in arithmetic: slices whose rows and widest
slice are both fewer than 2 PANEL are zero-padded into one stack, and
_stacked_ranks eliminates column j of every matrix at once, along the
shorter side (a matrix and its transpose have the same rank).  Each
matrix's pivot is its first nonzero entry v in the column, and every row,
with entry c there, becomes v row - c (pivot row), reduced mod p: no
inverse is taken, and the pivot row becomes zero, so it never pivots
again.  Stacked against one _echelon copy a slice, with one BLAS thread,
13 slices of 70 x 72 ranked in 11 against 32 ms, 9 of 88 x 88 in 14
against 26 ms, but 13 of 132 x 132 in 60 against 48 ms and 11 of 455 x
455 in 2.6 against 0.22 s, as each step updates every row of every matrix.

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

Residues are stored in int32 or int64 and formed into products in int64.
Every residue is below p < 2^31, so it fits int32: a certificate's residue
matrix, eliminated in place, is int32, and so are the rows a panel moves,
-L21 and U12 in a trailing update (p - L21 is at most p <= 2^31 - 1, the
int32 maximum) and the runs of free columns that kernel_modp multiplies by
the coefficients.  A product of two residues, below 2^62, is formed only
in int64: _panel eliminates an int64 copy of its panel and writes the
residues back, the inverses of unit lower L11 are int64, kernel_modp
scales its pivot rows through an int64 copy of their pivot block and
returns int64 vectors, _stacked_ranks eliminates an int64 copy of its stack,
and each matmul_modp block is summed in int64 and then written, reduced,
into a result of either width.
numpy narrows an in-place result to its target's dtype without a warning,
so every in-place product of two residues has an int64 target, asserted
where that target is a copy of stored residues.

Primes are drawn from the 100 largest primes below 2^31, which keeps a
residue inside int32, a residue times a 16-bit limb below 2^47 and a
product of two residues inside int64.  This module is the package's only
modular arithmetic, and holds its prime test: check_odd_prime refuses any
modulus that is not an odd prime below 2^31, by a Miller-Rabin test with
the bases 2, 3, 5 and 7, which is deterministic in that range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
# The dtypes of stored residues; products of two are formed in int64.
RESIDUE_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))

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
    engines holds every prime's run, in the order they were drawn, and
    certified whether rank reaches upper."""

    rank: int
    lower_prime: int
    upper: int
    upper_reason: str
    engines: tuple[EngineRun, ...]
    certified: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "certified", self.rank == self.upper)


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


def _read_matrix(matrix) -> np.ndarray:
    """matrix as a 2-D ndarray.  Anything but an ndarray is read with
    dtype=object, so Python ints of any size and Fractions stay exact.  An
    empty input that is not 2-D reads as the 0 x 0 matrix, and any other
    input that is not 2-D is refused: ValueError."""
    a = matrix if isinstance(matrix, np.ndarray) else np.array(matrix, dtype=object)
    if a.ndim == 2:
        return a
    if a.size:
        raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
    return np.zeros((0, 0), dtype=np.int64)


def reduce_modp(matrix, p: int) -> np.ndarray:
    """An integer or rational matrix as int64 residues in [0, p), always
    in a new array.

    An integer ndarray takes one `%`.  An object matrix, the read of
    anything else (see _read_matrix), is reduced in one pass over its
    entries: each row is scaled by the lcm of its entries' denominators (1
    for an int), which changes neither the rank nor the right kernel, and
    taken mod p.  That lcm vanishes mod p exactly when one of the
    denominators does, and then the matrix has no reduction: ValueError.
    """
    a = _read_matrix(matrix)
    if a.size == 0:
        return np.zeros(a.shape, dtype=np.int64)
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
    """Exact (a @ b) mod p for 2-D int32 or int64 residues in [0, p),
    p < 2^31, of any inner dimension; with residues out, (out + a @ b) mod p
    is written into out.  Returns the result, in b's dtype when it is fresh.

    The inner dimension runs in steps of PANEL against 16-bit limbs of b,
    each step reduced mod p before the next, and the result is formed in
    int64 blocks of BLOCK_ROWS x CHUNK cells, as the module docstring sets
    out, each written reduced into out.
    """
    rows, inner = a.shape
    if p >= 2**31:
        raise ValueError(f"limb products need p < 2^31, got p={p}")
    fresh = out is None
    if fresh:
        out = np.zeros((rows, b.shape[1]), dtype=b.dtype)
    for x in (a, b, out):
        if x.dtype not in RESIDUE_DTYPES:
            raise TypeError(f"residues must be int32 or int64, got {x.dtype}")
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
        # entries only in columns up to j; each product is below 2^62 and
        # formed in int64, as inverse is int64 whatever lower's dtype
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

    Works on a transposed int64 copy of the panel, so that each update runs
    along rows of a contiguous array and forms its products in int64, and
    writes the residues back into a, of either dtype.  Pivot rows land at
    r, r+1, ...; below each pivot the eliminated entries are replaced by
    their multipliers (L of the LU factorization).  The row swaps are applied to the rest of a at the
    end, as one gather of the rows they moved; columns right of the panel
    are otherwise left alone.  Returns the pivot columns.
    """
    width = c1 - c0
    panel = a[r:end, c0:c1].T.astype(np.int64, order="C")
    assert panel.dtype == np.int64  # the column loop's products are in place
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
    pivot rows get U12 = L11^-1 A12, formed in place CHUNK columns at a
    time, and the rows below them, up to `end`, A22 -= L21 U12, as one
    matmul_modp product.  The rows from `end` on have zero multipliers and
    are left alone."""
    r1 = r + len(found)
    for j in range(c0, c1, CHUNK):
        run = a[r:r1, j:min(j + CHUNK, c1)]
        run[...] = matmul_modp(inverse, run, p)
    u12 = a[r:r1, c0:c1]
    # -L21 as residues in a's dtype, so that A22 is updated by one addition
    # mod p: p - L21 is at most p <= 2^31 - 1, which int32 holds
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
    """Sort the rows of a stably by leading column, in place, and return
    reach[c] for c = 0..cols: the first row from which every row of a is
    zero left of column c.

    Each row's leading column (its first nonzero entry, cols for a zero row)
    is read once, CHUNK^2 cells of rows at a time.  The rows move one cycle
    of the sorting permutation at a time, through one row buffer.  A matrix
    of fewer than 2 BASE columns is not sorted: _factor eliminates it in one
    column loop over every row up to its last nonzero one.  reach is where
    the suffix minimum of the leading columns first reaches c.
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
    if cols >= 2 * BASE:
        order = np.argsort(lead, kind="stable")
        lead = lead[order]
        # row i takes row source[i], around each cycle back to its start;
        # source[i] = i marks a row in place
        source = order.tolist()
        buffer = np.empty(cols, dtype=a.dtype)
        for start in np.flatnonzero(order != np.arange(rows)).tolist():
            if source[start] == start:  # moved by an earlier cycle
                continue
            buffer[:] = a[start]
            i = start
            while source[i] != start:
                j = source[i]
                a[i] = a[j]
                source[i] = i
                i = j
            a[i] = buffer
            source[i] = i
    suffix_min = np.minimum.accumulate(lead[::-1])[::-1]
    return np.searchsorted(suffix_min, np.arange(cols + 1))


def _echelon(a: np.ndarray, p: int) -> list[int]:
    """Blocked row echelon form of the residue matrix a, in place, after
    _reach sorts its rows by leading column; returns the pivot columns,
    whose count is the rank.

    Panels of PANEL columns are factored by _factor, in halves down to
    fewer than 2 BASE columns.  For the k pivot rows of a panel, U12 =
    L11^-1 A12 is formed in place by matmul_modp products with the inverse
    of the unit lower L11, CHUNK columns at a time, and the rows below get
    A22 -= L21 U12 as one more product, accumulated into A22 in place.
    Besides one run of U12 (k x CHUNK) and -L21 with its float64 copy (k
    columns), both hold temporaries of at most BLOCK_ROWS x CHUNK cells, as
    every matmul_modp product does.  Entries below each pivot keep
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
    any row order; the sort makes reach[c1] - r small for the early panels.
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


def ranks_modp(block: np.ndarray, columns, p: int) -> tuple[int, ...]:
    """The rank mod the odd prime p of each slice block[:, cols], cols an
    integer index array of `columns`, of a 2-D int32 or int64 residue block,
    which is left unwritten: stacked by _stacked_ranks when block's rows and
    its widest slice are both fewer than 2 PANEL, else each slice copied
    once, row-major, and the copy eliminated in place by _echelon."""
    check_odd_prime(p)
    if block.ndim != 2:
        raise ValueError(f"block must be 2-D, got shape {block.shape}")
    if block.dtype not in RESIDUE_DTYPES:
        raise TypeError(f"residues must be int32 or int64, got {block.dtype}")
    if any(np.asarray(cols).dtype.kind not in "iu" for cols in columns):
        raise TypeError("each slice's columns must be an integer index array")
    width = max(map(len, columns), default=0)
    if max(len(block), width) >= 2 * PANEL:
        return tuple(len(_echelon(block.take(cols, axis=1), p)) for cols in columns)
    stack = np.zeros((len(columns), len(block), width), dtype=block.dtype)
    for matrix, cols in zip(stack, columns):
        matrix[:, :len(cols)] = block.take(cols, axis=1)
    return _stacked_ranks(stack, p)


def _stacked_ranks(stack: np.ndarray, p: int) -> tuple[int, ...]:
    """The rank mod p of each matrix of a k x rows x cols stack of int32 or
    int64 residues in [0, p), in one loop along the shorter side.

    A matrix and its transpose have the same rank, so the loop eliminates
    the columns of the matrices or, when they are wide, of their
    transposes, in an int64 copy: column j of every matrix at once.  Each
    matrix's pivot is the first nonzero entry v of the column, and every
    row, with entry c there, becomes v row - c (pivot row) right of column
    j, reduced mod p: no inverse is taken, as scaling a row by v != 0
    changes no rank.  The pivot row itself becomes v row - v row = 0, so it
    never pivots again, and the rank is the count of nonzero pivot values.
    Both products are below p^2 < 2^62, so their difference fits int64.
    """
    k, rows, cols = stack.shape
    if not stack.size:
        return (0,) * k
    # column j of matrix b (of its transpose when wide) is columns[b, j],
    # and the products are in place
    columns = (stack if rows < cols else stack.transpose(0, 2, 1)).astype(np.int64, order="C")
    assert columns.dtype == np.int64
    pivots = np.empty((columns.shape[1], k), dtype=np.int64)
    matrices = np.arange(k)
    for j in range(len(pivots)):
        column = columns[:, j]
        pivot = (column != 0).argmax(axis=1)
        v = pivots[j] = column[matrices, pivot]
        pivot_rows = columns[matrices, j + 1:, pivot]
        rest = columns[:, j + 1:]
        # a matrix without a pivot has c = 0 at every row: scaled by 1, they stay
        rest *= np.where(v, v, 1)[:, None, None]
        rest -= pivot_rows[:, :, None] * column[:, None, :]
        _mod(rest, p)
    return tuple(np.count_nonzero(pivots, axis=0).tolist())


def kernel_modp(matrix, p: int, coefficients) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right kernel vectors over F_p with the caller's coefficients at the
    free columns: (pivots, free, vectors).

    pivots are the echelon form's pivot columns and free the others, both
    ascending.  coefficients(nullity) gives nullity x k residues c, and
    vectors, int64 of cols x k cells, holds the k kernel vectors that are c
    at the free columns.  With U = D V the echelon form's pivot rows, D
    the diagonal of the pivot entries, their rows at the pivots are
    -(V[:, pivots]^-1 D^-1)(U[:, free] c), and U[:, free] c sums one
    matmul_modp product per CHUNK free columns: no rank x nullity array is
    formed.  matrix is a matrix, reduced into a copy, or a function
    residues(p), whose int32 or int64 residues are eliminated in place,
    their rows sorted first (see _reach): the results do not depend on the
    row order.
    """
    check_odd_prime(p)
    a = matrix(p) if callable(matrix) else reduce_modp(matrix, p)
    pivots = np.array(_echelon(a, p), dtype=np.int64)
    upper = a[:len(pivots)]
    free = np.delete(np.arange(a.shape[1]), pivots)
    c = coefficients(free.size)
    vectors = np.zeros((a.shape[1], c.shape[1]), dtype=np.int64)
    vectors[free] = c
    # left of each pivot, upper holds zeros at the free columns and L's
    # multipliers at the pivot columns, which the inverse ignores: so
    # V[:, pivots] is unit upper triangular, and D^-1 scales the pivot
    # block's rows, then its inverse's columns, both int64 copies
    combined = np.zeros((len(pivots), c.shape[1]), dtype=np.int64)
    for start in range(0, free.size, CHUNK):
        run = slice(start, start + CHUNK)
        matmul_modp(upper[:, free[run]], c[run], p, out=combined)
    scale = np.array([pow(int(upper[i, j]), -1, p) for i, j in enumerate(pivots)],
                     dtype=np.int64)
    unit = upper[:, pivots].astype(np.int64, copy=False)
    assert unit.dtype == np.int64
    del a, upper
    unit *= scale[:, None]
    inverse = _unit_lower_inverse(_mod(unit, p).T, p).T
    assert inverse.dtype == np.int64
    inverse *= scale
    _mod(inverse, p)
    solved = matmul_modp(inverse, combined, p)
    vectors[pivots] = np.where(solved, p - solved, 0)
    return pivots, free, vectors


def kernel_basis_modp(matrix, p: int) -> np.ndarray:
    """A kernel basis, one vector per row: kernel_modp's vectors for the
    identity coefficients, 1 at their own free column and 0 at the others."""
    return kernel_modp(matrix, p, lambda nullity: np.eye(nullity, dtype=np.int64))[2].T


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

    matrix is either a matrix, read once (see _read_matrix, so that a
    matrix that is not 2-D is refused before any prime is drawn) and
    reduced into a copy for each prime by reduce_modp, or a function
    residues(p) that returns the matrix's int32 or int64 residues mod p,
    freshly built for each prime.  The report is the same.  Each prime's
    residues are eliminated in place, so a certificate holds one residue
    matrix and the elimination's temporaries at a time.
    """
    exact = None if callable(matrix) else _read_matrix(matrix)
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
