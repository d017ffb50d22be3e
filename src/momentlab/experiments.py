"""Secant-dimension, defect, variable-splitting and contact-locus experiments.

Each experiment samples deterministic integer parameter points and
measures ranks as certificates, so a record is a pure function of (n, d,
m, seed, prime seed).  Every experiment runs on arrays of its points'
entries, drawn in one call, and holds moment forms only as int64 residues:
each prime runs the recurrence mod p over groups of points
(moments.stacked_moment_forms) and writes each group's generator blocks,
in sample order, into one int32 residue matrix before the next group's
forms.
Every secant and split record takes one path (_certify): a proven upper
bound, the dimension count or at d=4 the Koszul vectors'; then orbit
slices, the column classes of a cyclic grading of the monomials in the
secant matrix of m/r of the points, which certify when their ranks sum to
that bound; the whole matrix (rank.rank_consensus) only when no weight
choice reaches it.  A non-generic sample or an unlucky prime shows as a
rank that is not certified; it is reported, not retried.
The contact check, one point at a time, instead redraws its point and
prime when the tangent block's kernel has the wrong dimension, up to 4
draws per trial, and then raises RuntimeError.  rank.kernel_modp
eliminates the int32 block in place and returns one random combination
of its kernel, dim_forms residues, which gives a square matrix A of the
directions, the only matrix ranked: A's rank bounds the differential's
rank from below.  Three exact checks bound it from above by the number of
directions minus 1: the gauge direction (l, 2q) is nonzero, it moves the
weighted generators of degree e to e s_e (the moment recurrence), and A
kills it.  The trials end at the first kernel dimension of 1.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from math import comb, floor, isqrt

import numpy as np

from .bounds import dim_forms, dim_gm, param_count_bound, splitting_constraints
from .moments import quadratic_weights, stacked_moment_forms
from .poly import monomials
from .rank import (
    CHUNK,
    DEFAULT_PRIME_SEED,
    DIMENSION_COUNT,
    PANEL,
    EngineRun,
    RankReport,
    draw_primes,
    kernel_modp,
    matmul_modp,
    rank_consensus,
    rank_modp,
    ranks_modp,
)
from .tangent import (
    DEFAULT_SEED,
    differential_weights,
    generator_families,
    generator_matrix,
    sample_arrays,
    sample_split_arrays,
)

logger = logging.getLogger(__name__)

CSV_HEADER = ["n", "rank", "secant dimension", "expected dimension"]
KOSZUL_VECTORS = "koszul vectors"


@dataclass(frozen=True)
class OrbitCertificate:
    """The orbit slices that certified a secant record (see
    _orbit_certificate): r, the weights w in Z_r^n and the rank mod p of each
    column class, class c first for c = 0 .. r-1."""

    r: int
    weights: tuple[int, ...]
    slice_ranks: tuple[int, ...]


@dataclass(frozen=True)
class ExperimentRecord:
    n: int
    d: int
    m: int
    seed: int
    secant_dimension: int
    expected_dimension: int
    defect: int
    engine_report: RankReport
    orbit: OrbitCertificate | None

    def csv_row(self) -> list[int]:
        # the "rank" column of the published tables is the number of
        # components m, not a matrix rank
        return [self.n, self.m, self.secant_dimension, self.expected_dimension]


def secant_dimension(
    n: int,
    d: int,
    m: int,
    seed: int = DEFAULT_SEED,
    prime_seed: int = DEFAULT_PRIME_SEED,
) -> ExperimentRecord:
    """Rank of the stacked tangent blocks at m random points of the
    degree-d moment variety, with the parameter-counting comparison,
    certified by _certify against the dimension count min(m*dim_gm,
    dim_forms), or at d=4 the Koszul vectors' bound (_koszul_bound)."""
    if n < 1 or d < 4 or m < 1:
        raise ValueError(f"need n >= 1, d >= 4, m >= 1, got n={n}, d={d}, m={m}")
    expected = min(m * dim_gm(n), dim_forms(n, d))
    mean, sigma = sample_arrays(seed, n, m)
    upper, reason = (_koszul_bound(mean, sigma, expected, prime_seed) if d == 4
                     else (expected, DIMENSION_COUNT))
    report, orbit = _certify(mean, sigma, d, upper, reason, prime_seed)
    return ExperimentRecord(n, d, m, seed, report.rank, expected, expected - report.rank,
                            report, orbit)


def _certify(mean: np.ndarray, sigma: np.ndarray, d: int, upper: int, reason: str,
             prime_seed: int) -> tuple[RankReport, OrbitCertificate | None]:
    """The points' secant rank certified against the proven upper bound
    `upper` (named `reason`), by orbit slices at the first prime that
    rank_consensus draws (_orbit_certificate), else by the whole matrix."""
    (p,) = draw_primes(prime_seed, 1)
    orbit = _orbit_certificate(mean, sigma, d, upper, p)
    if orbit is None:
        return rank_consensus(_assembler(mean, sigma, d), prime_seed, upper, reason), None
    return RankReport(upper, p, upper, reason, (EngineRun("modp", p, upper),)), orbit


def _koszul_bound(mean: np.ndarray, sigma: np.ndarray, expected: int,
                  prime_seed: int) -> tuple[int, str]:
    """secant_dimension's upper bound at d=4 and its reason: rows - rank V,
    V the Koszul vectors, when _koszul_annihilates proves V M == 0
    identically and that bound is at most the dimension count `expected`,
    else `expected`, named as such.

    V has a row for each pair of points i < j, s2_j on point i's quadratic
    generators and -s2_i on point j's, s2 = l^2 + q.  Over any field rank V
    = C(m, 2) - C(m - rank S2, 2), S2 the m x n(n+1)/2 matrix of the s2
    (see the README's notes on exactness), so V is never formed: rank_p S2
    at the first prime, from the recurrence run mod p, gives rank_p V, at
    most its rational rank."""
    m, n = mean.shape
    if not _koszul_annihilates(n):
        return expected, DIMENSION_COUNT
    (p,) = draw_primes(prime_seed, 1)
    second_order = stacked_moment_forms(mean, sigma, 2, p)[2]
    koszul = m * dim_gm(n) - comb(m, 2) + comb(m - rank_modp(second_order, p), 2)
    return (koszul, KOSZUL_VECTORS) if koszul <= expected else (expected, DIMENSION_COUNT)


def _koszul_annihilates(n: int) -> bool:
    """Whether every Koszul combination annihilates the degree-4 secant
    matrix M identically in the parameters, in n variables.

    V's row for the pair i < j puts s2_j on point i's quadratic generator
    rows, s2_i X^g, and -s2_i on point j's, so row (i, j) of V M is
    sum_{g,h} s2_j[g] s2_i[h] (e_T[g,h] - e_T[h,g]), T the quadratic shift
    table of generator_families(n, 4): T[g, h] is the column of X^g X^h.
    The s2 range over all quadratic forms, so this vanishes at every
    parameter point exactly when T is symmetric.
    """
    _, (_, table, _) = generator_families(n, 4)
    return np.array_equal(table, table.T)


def points_per_group(n: int, d: int) -> int:
    """The points whose forms _assembler computes at once: as many as
    keep the recurrence's largest shift tensor, n(n+1)/2 x dim_forms(n, d-1)
    cells a point, within max(2 PANEL, dim_gm) rows of the secant matrix's
    width, the rows that secant_memory_mb counts beside the matrix."""
    rows = max(2 * PANEL, dim_gm(n)) * dim_forms(n, d)
    return max(1, rows // (dim_forms(n, 2) * dim_forms(n, d - 1)))


def secant_memory_mb(n: int, d: int, m: int) -> float:
    """Megabytes that secant_dimension(n, d, m) holds at once, at most."""
    # Each prime runs the moment-form recurrence mod p over groups of
    # points_per_group points, so every form cell is an int64 residue, 8
    # bytes: a group holds s_0 .. s_{d-1} of its points, dim_forms(n + 1,
    # d - 1) cells a point, until its blocks are written.  At d=4 the
    # Koszul bound first runs the recurrence mod p to degree 2 over all m
    # points, at most m (n(n+1)/2)^2 int64 cells, no more bytes than the
    # int32 matrix, and drops them before the matrix is built.  A group's
    # largest shift tensor, s_{d-3} times every degree-2 monomial, fits
    # max(2 PANEL, dim_gm) rows of the matrix's width by the choice of the
    # group.  Each prime writes the secant matrix's residues from each
    # group's forms as int32, 4 bytes a cell (every residue is below p <
    # 2^31), and eliminates them in place.
    # Besides the matrix, at most max(2 PANEL, dim_gm) rows of its width are
    # held at once: that shift tensor, the one row buffer through which
    # rank sorts the rows by leading column before it eliminates them, or
    # while a prime is eliminated the gather of a panel's moved rows (2
    # PANEL): that many more rows, at the 8 bytes a cell of the shift tensor
    # (the buffer and the gather are int32).  The rest is at
    # most four 8-byte arrays of (rows + 2 PANEL) x CHUNK cells: while a
    # prime is eliminated, a panel's int64 transposed copy, or -L21 and its
    # float64 copy (rows x PANEL cells each), the inverse of its L (PANEL x
    # PANEL), one run of CHUNK columns of its U12, formed in place, and, as
    # in every matmul_modp product, three BLOCK_ROWS x CHUNK temporaries and
    # the limbs of CHUNK columns of the right factor.
    block = dim_gm(n)
    rows = m * block
    cols = dim_forms(n, d)
    forms = 8 * min(m, points_per_group(n, d)) * dim_forms(n + 1, d - 1)
    matrices = (4 * rows + 8 * max(2 * PANEL, block)) * cols
    return (forms + matrices + 32 * (rows + 2 * PANEL) * CHUNK) / 1e6


def contact_memory_mb(n: int, d: int) -> float:
    """Megabytes that contact_kernel(n, d) holds at once, at most."""
    # A trial holds one point's tangent block, dim_gm x dim_forms(n, d)
    # int32 residues, 4 bytes a cell, and as much again for the assembly's
    # temporaries; then the generator rows of degree d-1, dim_gm x
    # dim_forms(n, d-1) int32, 4 bytes a cell, their float64 copy as the
    # sketch product's left factor, 8 bytes, and 12 bytes for the rows of
    # degree d-2, their product's copies and the sketch rows.  Before them
    # the recurrence gives s_0 .. s_{d-1}, dim_forms(n + 1, d - 1) cells, as
    # int64 residues and their int32 copies, and fills two caches for every
    # degree up to d, kept for the process: the shift tables by the linear
    # and the quadratic monomials, at most dim_gm int64 cells a form cell,
    # and the dim_forms(n + 1, d) exponent tuples of poly.monomials, each 56
    # + 8n bytes with its slot at most, and n int objects of 32 bytes more
    # once exponents pass the interpreter's small ints (256).
    rows = dim_gm(n)
    exponents = 56 + 8 * n + (32 * n if d > 256 else 0)
    return (8 * rows * dim_forms(n, d) + 24 * rows * dim_forms(n, d - 1)
            + (12 + 8 * rows) * dim_forms(n + 1, d - 1) + exponents * dim_forms(n + 1, d)) / 1e6


def _assembler(mean: np.ndarray, sigma: np.ndarray, d: int):
    """A function residues(p), for rank_consensus, that builds the secant
    matrix mod p of the points with means `mean` and Sigma upper triangles
    `sigma`: for each group of points_per_group points in turn, the
    recurrence run mod p gives the group's forms, and generator_matrix
    writes its blocks, in sample order, into one int32 matrix (every residue
    is below p < 2^31).
    """
    n = mean.shape[1]
    group = points_per_group(n, d)

    def residues(p: int) -> np.ndarray:
        matrix = np.empty((len(mean), dim_gm(n), dim_forms(n, d)), dtype=np.int32)
        for i in range(0, len(mean), group):
            forms = stacked_moment_forms(mean[i:i + group], sigma[i:i + group], d - 1, p)
            generator_matrix(forms, n, d, out=matrix[i:i + group])
        return matrix.reshape(-1, dim_forms(n, d))

    return residues


# Random weight vectors tried for each divisor r of m, in batches of
# WEIGHT_BATCH, after w_j = j mod r; a record ranks the slices of at most
# ORBIT_CANDIDATES weight choices before the whole matrix.
WEIGHT_BATCH = 256
WEIGHT_BATCHES = 16
ORBIT_CANDIDATES = 4


def _class_counts(weights: np.ndarray, d: int, r: int) -> np.ndarray:
    """counts[i, c]: the degree-d monomials X^alpha in n variables with
    weights[i] . alpha = c mod r, for each row of weights (K x n).

    One dynamic program for all rows: adding variable j with weight w, the
    degree-e counts gain the new degree-(e-1) counts moved by w."""
    counts = np.zeros((len(weights), d + 1, r), dtype=np.int64)
    counts[:, 0, 0] = 1
    for w in weights.T:
        moved = (np.arange(r) - w[:, None]) % r
        for e in range(1, d + 1):
            counts[:, e] += np.take_along_axis(counts[:, e - 1], moved, axis=1)
    return counts[:, d]


@lru_cache(maxsize=None)
def orbit_weights(n: int, d: int, m: int, upper: int) -> tuple[int, tuple[int, ...]] | None:
    """(r, w) for the orbit certificate of m points at (n, d) against the
    proven upper bound `upper`: r > 1 divides m, w is in Z_r^n, and the
    classes {alpha : w . alpha = c mod r} of degree-d monomials, each
    ranked in (m / r) dim_gm rows, can reach it: sum_c min(|class c|, (m /
    r) dim_gm) >= upper.  None when the search finds none.

    The divisors are tried largest first, as the slices' elimination costs
    fall with r: first w_j = j mod r at every divisor, then batches of
    seeded random w, at most WEIGHT_BATCHES of WEIGHT_BATCH at each.  The
    first of _weight_candidates, searched once per process.
    """
    return next(_weight_candidates(n, d, m, upper), None)


def _weight_candidates(n: int, d: int, m: int, upper: int):
    """Each (r, w) that orbit_weights accepts, once, in its search order."""
    small = [k for k in range(1, isqrt(m) + 1) if m % k == 0]
    divisors = sorted({r for k in small for r in (k, m // k)} - {1}, reverse=True)
    tried = ((r, np.arange(n)[None] % r) for r in divisors)
    drawn = ((r, rng.integers(0, r, (WEIGHT_BATCH, n))) for r in divisors
             for rng in [np.random.default_rng([n, d, m, r])] for _ in range(WEIGHT_BATCHES))
    seen = set()
    for r, weights in chain(tried, drawn):
        reach = np.minimum(_class_counts(weights, d, r), m // r * dim_gm(n)).sum(axis=1)
        for found in ((r, tuple(w)) for w in weights[reach >= upper].tolist()):
            if found not in seen:
                seen.add(found)
                yield found


def _orbit_certificate(mean: np.ndarray, sigma: np.ndarray, d: int, upper: int,
                       p: int) -> OrbitCertificate | None:
    """The orbit slices whose ranks mod p sum to `upper`, of the weights of
    orbit_weights and, after each short sum, of the next _weight_candidates,
    ORBIT_CANDIDATES in all; else None.

    With (r, w) and t = m / r, D = diag(zeta^{w_j}), zeta a primitive r-th
    root of unity, scales column alpha of the tangent space at x by zeta^{w
    . alpha} to give the one at D x (f_{Dx}(y) = f_x(D y)).  So the span W
    of the tangent spaces at the r t points D^k x_i, x_i the first t
    points, is the direct sum of its projections on the classes (Serre,
    Linear Representations of Finite Groups, 2.6), and the projection of
    D^k T_x on class c is zeta^{kc} times that of T_x: dim W is the sum of
    the class ranks of A, the t points' secant matrix, and no root of unity
    is computed.

    Soundness.  The slice sum is at most the generic rank: a rank mod p is
    at most the rational rank, and dim W, a rank at special points, is at
    most the secant dimension at m generic points (Terracini's lemma,
    lower semicontinuity).  A diagonal D keeps a split point split, so for
    split samples (split_skewness) this holds among split points.  So a
    sum that meets a proven upper bound certifies it: the dimension count,
    or at d=4 rows - rank_p V (_koszul_bound), which bounds the generic
    rank because V M = 0 holds identically in the parameters, as the
    quadratic shift table is symmetric (_koszul_annihilates), and rank_p V
    at the sample is at most rank V at generic points.  A sum above upper
    means the upper bound was wrong: ValueError.
    """
    m, n = mean.shape
    first = orbit_weights(n, d, m, upper)
    if first is None:
        return None
    later = islice(_weight_candidates(n, d, m, upper), 1, ORBIT_CANDIDATES)
    for r, weights in chain([first], later):
        ranks = _slice_ranks(mean[:m // r], sigma[:m // r], d, r, weights, p)
        if sum(ranks) > upper:
            raise ValueError(f"slice ranks {sum(ranks)} mod {p} exceed the upper bound {upper}")
        if sum(ranks) == upper:
            return OrbitCertificate(r, weights, ranks)
    return None


def _slice_ranks(mean: np.ndarray, sigma: np.ndarray, d: int, r: int,
                 weights: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The ranks mod p of the column classes {alpha : weights . alpha = c
    mod r}, c = 0 .. r-1, of the secant matrix of the points with means
    `mean` and Sigma upper triangles `sigma`, its residues built by
    _assembler and each class ranked by rank.ranks_modp."""
    classes = np.array(monomials(mean.shape[1], d), dtype=np.int64) @ np.array(weights) % r
    block = _assembler(mean, sigma, d)(p)
    return ranks_modp(block, [np.flatnonzero(classes == c) for c in range(r)], p)


def max_rank_m(n: int, d: int) -> int:
    """The rank used by the dimension tables: floor(dim forms / dim GM)."""
    return floor(param_count_bound(n, d))


def max_rank_scan(
    ns,
    d: int,
    seed: int = DEFAULT_SEED,
    prime_seed: int = DEFAULT_PRIME_SEED,
) -> list[ExperimentRecord]:
    """Run secant_dimension, which checks n and d, at the parameter-counting
    rank for each n of the iterable ns."""
    return [secant_dimension(n, d, max_rank_m(n, d), seed, prime_seed) for n in ns]


# ---------------------------------------------------------------------------
# Degree-4 defect and its Koszul explanation


@dataclass(frozen=True)
class KoszulReport:
    n: int
    m: int
    defect: int
    koszul_vectors_in_kernel: bool
    matches_choose2: bool
    record: ExperimentRecord


def koszul_defect_check(
    n: int,
    m: int,
    seed: int = DEFAULT_SEED,
    prime_seed: int = DEFAULT_PRIME_SEED,
) -> KoszulReport:
    """Measure the degree-4 secant defect and verify it is carried by the
    explicit pairwise kernel vectors (an identity, not sampled).

    secant_dimension bounds the rank from above by the Koszul vectors only
    after _koszul_annihilates proves V M == 0 identically in the parameters,
    and a certified rank equal to rows - rank V
    means they span the left kernel: the defect is C(m, 2) exactly when
    they are independent as well, that is when rank S2 >= m - 1 (rank V =
    C(m, 2) - C(m - rank S2, 2), see _koszul_bound).
    """
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    if m * dim_gm(n) > dim_forms(n, 4):
        raise ValueError(
            f"filling regime rejected: m*dim_gm = {m * dim_gm(n)} exceeds "
            f"dim forms = {dim_forms(n, 4)}"
        )
    record = secant_dimension(n, 4, m, seed, prime_seed)
    report = record.engine_report
    in_kernel = report.upper_reason == KOSZUL_VECTORS
    matches = in_kernel and report.certified and record.defect == comb(m, 2)
    return KoszulReport(n, m, record.defect, in_kernel, matches, record)


# ---------------------------------------------------------------------------
# Variable-splitting skewness


def split_skewness(
    n1: int,
    n2: int,
    m: int,
    d: int = 6,
    seed: int = DEFAULT_SEED,
    prime_seed: int = DEFAULT_PRIME_SEED,
) -> bool:
    """Do m tangent spaces at split-variable points sum directly?

    Samples quadratic parts generic in the first n1 variables only and
    linear parts generic in the last n2 variables only; True when _certify,
    orbit slices first, certifies the stacked tangent blocks' full rank m *
    n(n+3)/2 against the dimension count.  Degree-6 runs with m above
    either splitting constraint are allowed but logged as informative only.
    """
    if d not in (6, 7, 8):
        raise ValueError(f"supported degrees are 6, 7, 8, got {d}")
    if n1 < 1 or n2 < 1 or m < 1:
        raise ValueError(f"need n1, n2, m >= 1, got n1={n1}, n2={n2}, m={m}")
    if d == 6:
        c1, c2 = splitting_constraints(n1, n2)
        if m > floor(c1) or m > floor(c2):
            logger.warning(
                "m=%d exceeds a splitting constraint (floors %d, %d); informative run",
                m, floor(c1), floor(c2),
            )
    upper = min(m * dim_gm(n1 + n2), dim_forms(n1 + n2, d))
    report, _ = _certify(*sample_split_arrays(seed, n1, n2, m), d, upper, DIMENSION_COUNT,
                         prime_seed)
    return report.certified and report.rank == m * dim_gm(n1 + n2)


# ---------------------------------------------------------------------------
# Tangential contact locus


def contact_kernel(
    n: int,
    d: int,
    trials: int = 3,
    seed: int = DEFAULT_SEED,
    prime_seed: int = DEFAULT_PRIME_SEED,
) -> int:
    """Minimum kernel dimension of the contact-locus differential over at
    most `trials` trials.

    At each random point the tangent block's annihilator K is computed mod
    a random prime; the linear map sends a direction (a, b) to the
    K-projections of the derivatives of every tangent generator, the
    derivative of the degree-(d-1) factor feeding the linear generators and
    that of the degree-(d-2) factor feeding the quadratic ones.  The gauge
    direction (l, 2q) always lies in the kernel, so a kernel dimension of 1
    certifies the contact locus is projectively zero-dimensional at the
    point.  Values above 1 are inconclusive, never a refutation.

    Every trial's gauge direction is checked to be a kernel vector that is
    nonzero mod its prime, so no trial gives less than 1: the trials stop
    at the first one that gives 1, which is then the minimum over all of
    them.

    Degrees below 5 lose the certification meaning (the lowest derivative
    factor degenerates to a constant) and are rejected.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if d < 5:
        raise ValueError(f"certification needs d >= 5, got {d}")
    if trials < 1:
        raise ValueError("need at least one trial")
    best: int | None = None
    for t in range(trials):
        dim = _contact_kernel_once(n, d, seed + t, prime_seed + t)
        best = dim if best is None else min(best, dim)
        if best == 1:
            break
    return best


def _contact_kernel_once(n: int, d: int, seed: int, prime_seed: int) -> int:
    """Kernel dimension of the contact differential dg at one point mod p,
    at least 1 and, above 1, an upper bound on the rational one; raises
    RuntimeError when no point of 4 draws is generic or the gauge direction
    is not proved a nonzero kernel vector of dg.

    dg has one row per (generator, annihilator vector) pair and one column
    per direction.  The derivatives of s_e along the directions are the
    weighted generator rows W_e = D_e G_e of degree e, G_e the int32
    generator rows and D_e the diagonal of differential_weights(n, e), and
    generator X^beta of degree d-e moves them through its shift-table row r,
    so the row of (X^beta, v) is v[r] @ G_e^T D_e.  kernel_modp returns one
    random combination w of the annihilator, its coefficients on the free
    columns drawn by _annihilator_draw, which gives the dim_gm x dim_gm
    matrix A whose row for X^beta is w[r] @ G_e^T D_e: the product, then its
    columns scaled by the weights, so no weighted rows are formed.  A, the
    only matrix ranked, is S dg for a block-diagonal S, so rank A <= rank
    dg, and the point gives dim_gm - rank A.  _assert_gauge_direction proves
    rank dg <= dim_gm - 1, so an A of that rank certifies kernel dimension 1.
    """
    for attempt in range(4):
        point_seed = seed + 7919 * attempt
        mean, sigma = sample_arrays(point_seed, n, 1)
        (p,) = draw_primes(prime_seed + 7919 * attempt, 1)
        residues = [f[0] for f in stacked_moment_forms(mean, sigma, d - 1, p)]
        forms = [s.astype(np.int32) for s in residues]
        _, free, sketch = kernel_modp(lambda p: generator_matrix(forms, n, d), p,
                                      lambda k: _annihilator_draw(k, p, point_seed)[:, None])
        if len(free) != dim_forms(n, d) - dim_gm(n):
            continue  # tangent block degenerate at this point/prime
        generators = {e: generator_matrix(forms, n, e) for e in (d - 1, d - 2)}
        # G_e is the left factor, whose float64 copy is all a product adds
        # to it; a residue below 2^31 times a weight of at most C(e + 1, 2)
        # fits int64
        matrix = np.concatenate([
            (differential_weights(n, e)[:, None]
             * matmul_modp(generators[e], sketch[table, 0].T, p) % p).T
            for e, table, _ in generator_families(n, d)])
        _assert_gauge_direction(_gauge_residue(mean, sigma, p), generators, residues, matrix, n, p)
        return dim_gm(n) - rank_modp(matrix, p)
    raise RuntimeError(
        f"no generic parameter point found for contact check at n={n}, d={d}"
    )


def _annihilator_draw(nullity: int, p: int, seed: int) -> np.ndarray:
    """The coefficients mod p of the random annihilator combination of
    _contact_kernel_once, one per free column, drawn from (seed, p)."""
    return np.random.default_rng([seed, p]).integers(0, p, nullity, dtype=np.int64)


def _assert_gauge_direction(gauge: np.ndarray, generators: dict[int, np.ndarray],
                            residues, matrix: np.ndarray, n: int, p: int) -> None:
    """Prove mod p that the gauge direction (l, 2q) is a nonzero kernel
    vector of the contact differential dg, which bounds rank dg by dim_gm - 1,
    and that the sketch A (`matrix`) is S dg, by three exact checks:

    (i) gauge != 0;
    (ii) the recurrence identity (gauge D_e) @ G_e == e s_e for e = d-1
        and d-2 (G_e = generators[e], D_e the diagonal of
        differential_weights(n, e), s_e = residues[e]): (l, 2q) applied to
        the weighted generators W_e = D_e G_e gives e (l s_{e-1} + (e-1) q
        s_{e-2}).  So the row of (X^beta, v) moves gauge to e v[r] @ s_e,
        e times entry beta of T v, T the tangent block, which is 0 for
        every annihilator vector v: gauge lies in the kernel of dg;
    (iii) A @ gauge == 0.  Given (ii), its entry for X^beta is e times entry
        beta of T w, w the sketch vector, and e < p: w annihilates T, so
        every row of A is a combination of rows of dg.
    """
    if not gauge.any():
        raise RuntimeError("gauge direction vanishes mod p; "
                           "the contact kernel has no proven vector")
    recurrence = all(np.array_equal(
        matmul_modp((gauge * differential_weights(n, e) % p)[None], g, p)[0], e * residues[e] % p)
        for e, g in generators.items())
    if not recurrence or np.any(matmul_modp(matrix, gauge[:, None], p)):
        raise RuntimeError("gauge direction escaped the contact kernel; "
                           "differential assembly is inconsistent")


def _gauge_residue(mean: np.ndarray, sigma: np.ndarray, p: int) -> np.ndarray:
    """The gauge direction (l, 2q) mod p, in the order of the directions, of
    the point with mean `mean` and Sigma upper triangle `sigma` (one row each)."""
    return np.hstack([mean, 2 * sigma * quadratic_weights(mean.shape[1])])[0] % p


# ---------------------------------------------------------------------------
# CSV emission (published-table schema)


def csv_text(records: list[ExperimentRecord]) -> str:
    """Records as CSV with header `n,rank,secant dimension,expected dimension`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rec.csv_row() for rec in records)
    return buffer.getvalue()
