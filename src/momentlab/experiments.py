"""Secant-dimension, defect, variable-splitting and contact-locus experiments.

Each experiment samples deterministic integer parameter points, assembles
the relevant exact matrices, and measures ranks as certificates (see
rank.rank_consensus), so a record is a pure function of (n, d, m, seed,
prime seed).  In a secant record a non-generic sample or an unlucky prime
shows as a rank that is not certified; it is reported, not retried.  The
exact secant matrix is laid out with its rows sorted by leading monomial,
so that the mod-p elimination, which bounds each panel by the rows that
reach it, skips the rows below the staircase; a row order changes no
rank.  The
contact check instead redraws its point and prime when the tangent block's
kernel has the wrong dimension, up to 4 draws per trial, and then raises
RuntimeError.  It keeps the kernel in rank.kernel_modp's echelon
coordinates and builds the differential one generator's rows at a time, in
O(dim_gm dim_forms) cells.  It stops as soon as a lower bound meets the
bound the gauge direction (l, 2q) proves: the differential's rank is read
from samples of its rows once one reaches the number of directions minus 1,
and the trials end at the first kernel dimension of 1.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from itertools import combinations
from math import comb, floor, gcd

import numpy as np

from .bounds import dim_forms, dim_gm, param_count_bound, splitting_constraints
from . import tangent
from .moments import GaussianParams, forms_dtype, moment_forms
from .poly import _shift_table, monomial_shifts
from .rank import (
    DEFAULT_PRIME_SEED,
    DIMENSION_COUNT,
    RankReport,
    draw_primes,
    kernel_modp,
    matmul_modp,
    rank_consensus,
    rank_modp,
    reduce_modp,
    within_int64,
)
from .tangent import (
    differential_weights,
    generator_matrix,
    sample_params,
    sample_split_params,
    secant_matrix,
)

logger = logging.getLogger(__name__)

CSV_HEADER = ["n", "rank", "secant dimension", "expected dimension"]
KOSZUL_VECTORS = "koszul vectors"


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

    def csv_row(self) -> list[int]:
        # the "rank" column of the published tables is the number of
        # components m, not a matrix rank
        return [self.n, self.m, self.secant_dimension, self.expected_dimension]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "m": self.m,
            "seed": self.seed,
            "secant_dimension": self.secant_dimension,
            "expected_dimension": self.expected_dimension,
            "defect": self.defect,
            "engine_report": self.engine_report.to_dict(),
        }


def secant_dimension(
    n: int,
    d: int,
    m: int,
    seed: int = 42,
    prime_seed: int = DEFAULT_PRIME_SEED,
    tol: float | None = None,
) -> ExperimentRecord:
    """Rank of the stacked tangent blocks at m random points of the
    degree-d moment variety, with the parameter-counting comparison.

    The rank is certified against the dimension count min(m*dim_gm,
    dim_forms).  At d=4 the Koszul vectors V, once V @ M == 0 is verified
    over Z, give the tighter upper bound rows - rank V, with the mod-p rank
    of V standing in for its rational rank (never above it).
    """
    if n < 1 or d < 4 or m < 1:
        raise ValueError(f"need n >= 1, d >= 4, m >= 1, got n={n}, d={d}, m={m}")
    params = sample_params(seed, n, m)
    expected = min(m * dim_gm(n), dim_forms(n, d))
    upper, reason = expected, DIMENSION_COUNT
    order = _staircase_order(params, d)
    assemble = _assembler(params, d, order)
    if d == 4:
        matrix = assemble()
        vectors = koszul_kernel_vectors(params)[:, order]
        if _annihilates(vectors, matrix):
            (p,) = draw_primes(prime_seed, 1)
            rows, cols = matrix.shape
            upper, reason = min(rows - rank_modp(vectors, p), cols), KOSZUL_VECTORS
        assemble = _assembler(params, d, order, matrix)
        del matrix
    report = rank_consensus(assemble, prime_seed, tol, upper, reason)
    return ExperimentRecord(n, d, m, seed, report.rank, expected, expected - report.rank, report)


def _staircase_order(params: list[GaussianParams], d: int) -> np.ndarray:
    """The rows of secant_matrix(params, d) sorted stably by leading column:
    row i of the layout is row order[i] of the secant matrix.

    Generator s_k X^beta leads at lead(s_k) X^beta, as multiplying by a
    monomial keeps the colex order, so the order is read off each point's
    leading monomials of s_{d-1} and s_{d-2} and the shift tables.  At a
    generic point both are X_1^k, and the same generator of every point
    has the same leading column: the points are interleaved.  A zero form's
    rows lead at the column count, after all the others.
    """
    n = params[0].n
    cols = dim_forms(n, d)
    leads = []
    for point in params:
        for k, table in zip(_form_leads(point, d), (_shift_table(n, d - 1, 1),
                                                    _shift_table(n, d - 2, 2))):
            leads.append(table[:, k] if k < table.shape[1] else np.full(len(table), cols))
    return np.argsort(np.concatenate(leads), kind="stable")


def _form_leads(point: GaussianParams, d: int) -> tuple[int, int]:
    """The colex ranks of the leading monomials of s_{d-1} and s_{d-2} at
    point, the form's monomial count for a zero form.

    The coefficient of X_1^k in s_k is the univariate moment of (l_1,
    Sigma_11), by the recurrence s_k = l s_{k-1} + (k-1) q s_{k-2}
    restricted to X_1.  It is nonzero at almost every point, and then X_1^k,
    of rank 0, leads; otherwise the forms are computed.
    """
    ell, sigma = point.mean[0], point.quad[0]
    univariate = [1, ell]
    for k in range(2, d):
        univariate.append(ell * univariate[k - 1] + (k - 1) * sigma * univariate[k - 2])
    if univariate[d - 1] and univariate[d - 2]:
        return 0, 0
    forms = moment_forms(point, d - 1)
    return tuple(int(np.argmax(f != 0)) if f.any() else len(f)
                 for f in (forms[d - 1], forms[d - 2]))


def _assembler(params: list[GaussianParams], d: int, order: np.ndarray,
               first: np.ndarray | None = None):
    """A function that assembles the secant matrix of params afresh on every
    call, in the dtype it is given, for rank_consensus to own.  Its first
    exact call returns `first` instead when that is given: a matrix the
    caller assembled already and hands over without keeping it.

    An exact matrix, which the mod-p engines eliminate, is laid out in
    `order` (see _staircase_order): each point's block is assembled by
    tangent.tangent_matrix into a buffer of one block and scattered to its
    rows, so the elimination sees a staircase and bounds each panel by the
    rows that reach it (rank._echelon); a row order changes no rank.  A
    float64 matrix, for the SVD cross-check, is secant_matrix's, in sample
    order: the computed singular values depend on the row order through
    rounding, and in sample order the recorded float rank stays the one
    the cross-check has always reported.
    """
    held = [] if first is None else [first]
    block = dim_gm(params[0].n)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))

    def assemble(dtype=None) -> np.ndarray:
        if dtype is not None:
            return secant_matrix(params, d, dtype).matrix()
        if held:
            return held.pop()
        dtype = np.result_type(*(forms_dtype(p, d - 1) for p in params))
        matrix = np.empty((len(order), dim_forms(params[0].n, d)), dtype)
        buffer = np.empty((block, matrix.shape[1]), dtype)
        for i, point in enumerate(params):
            tangent.tangent_matrix(point, d, buffer)
            matrix[position[i * block:(i + 1) * block]] = buffer
        return matrix

    return assemble


def max_rank_m(n: int, d: int) -> int:
    """The rank used by the dimension tables: floor(dim forms / dim GM)."""
    return floor(param_count_bound(n, d))


def max_rank_scan(
    ns,
    d: int,
    seed: int = 42,
    prime_seed: int = DEFAULT_PRIME_SEED,
    tol: float | None = None,
) -> list[ExperimentRecord]:
    """Run secant_dimension at the parameter-counting rank for each n."""
    if d not in (4, 5, 6, 7, 8):
        raise ValueError(f"supported degrees are 4..8, got {d}")
    if isinstance(ns, int):
        ns = [ns]
    return [secant_dimension(n, d, max_rank_m(n, d), seed, prime_seed, tol) for n in ns]


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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "defect": self.defect,
            "koszul_vectors_in_kernel": self.koszul_vectors_in_kernel,
            "matches_choose2": self.matches_choose2,
            "record": self.record.to_dict(),
        }


def koszul_kernel_vectors(params: list[GaussianParams]) -> np.ndarray:
    """Explicit row dependencies of the degree-4 secant matrix, one per row.

    For each pair i < j the vector sets all linear-generator entries to
    zero and pairs the quadratic generators with p_i = l_j^2 + q_j and
    p_j = -(l_i^2 + q_i), so that the combination is the commutativity
    relation f*g - g*f = 0 of the second-order moment forms.
    """
    n = params[0].n
    block = dim_gm(n)
    second_order = [moment_forms(p, 2)[2] for p in params]
    pairs = list(combinations(range(len(params)), 2))
    dtype = np.result_type(*second_order)
    vectors = np.zeros((len(pairs), block * len(params)), dtype=dtype)
    for row, (i, j) in enumerate(pairs):
        vectors[row, i * block + n:(i + 1) * block] = second_order[j]
        vectors[row, j * block + n:(j + 1) * block] = -second_order[i]
    return vectors


def _annihilates(vectors: np.ndarray, matrix: np.ndarray) -> bool:
    """Whether vectors @ matrix == 0 over Z.

    The product runs in int64 when no sum of products can overflow, that is
    when max|V| max|M| inner_dim < 2^63; otherwise over Python ints.
    """
    if not vectors.size:
        return True
    if vectors.dtype == np.int64:
        peak = max(int(vectors.max()), -int(vectors.min()))
        matrix = within_int64(matrix, peak * vectors.shape[1])
    if matrix.dtype != np.int64:
        vectors, matrix = vectors.astype(object), matrix.astype(object)
    return not np.any(vectors @ matrix)


def koszul_defect_check(
    n: int,
    m: int,
    seed: int = 42,
    prime_seed: int = DEFAULT_PRIME_SEED,
) -> KoszulReport:
    """Measure the degree-4 secant defect and verify it is carried by the
    explicit pairwise kernel vectors (exact integer check, not sampled).

    secant_dimension bounds the rank from above by the Koszul vectors only
    after checking them over Z, and a certified rank equal to rows - rank V
    means they span the left kernel: the defect is C(m, 2) exactly when
    they are independent as well.
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
    seed: int = 42,
    prime_seed: int = DEFAULT_PRIME_SEED,
) -> bool:
    """Do m tangent spaces at split-variable points sum directly?

    Samples quadratic parts generic in the first n1 variables only and
    linear parts generic in the last n2 variables only, then checks the
    stacked tangent blocks for full rank m * n(n+3)/2.  Degree-6 runs with
    m above either splitting constraint are allowed but logged as
    informative only.
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
    n = n1 + n2
    params = sample_split_params(seed, n1, n2, m)
    report = rank_consensus(_assembler(params, d, _staircase_order(params, d)),
                            prime_seed=prime_seed)
    return report.certified and report.rank == m * dim_gm(n)


# ---------------------------------------------------------------------------
# Tangential contact locus


def contact_kernel(
    n: int,
    d: int,
    trials: int = 3,
    seed: int = 42,
    prime_seed: int = DEFAULT_PRIME_SEED,
    allow_low_degree: bool = False,
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
    factor degenerates to a constant) and are rejected unless
    allow_low_degree is set for exploratory output.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if d < 5 and not allow_low_degree:
        raise ValueError(f"certification needs d >= 5, got {d}")
    if d < 4:
        raise ValueError(f"need d >= 4, got {d}")
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
    """Kernel dimension of the contact differential dg at one point, at
    least 1; raises RuntimeError when no point of 4 draws is generic or the
    gauge direction is not a nonzero kernel vector of dg mod p.

    dg has one row per (generator, annihilator vector) pair, generator-major,
    and one column per direction.  Its rows are computed on demand, one
    generator at a time, in kernel_modp's coordinates: the annihilator vector
    of free column f = free[v] is 1 at f and -reduced[:, v] at the pivots, so
    a residue row x has x K^T = x[free] + x[pivots] (-reduced), an inner
    dimension of rank(T) = dim_gm(n) instead of one per column.
    """
    for attempt in range(4):
        params = sample_params(seed + 7919 * attempt, n, 1)[0]
        (p,) = draw_primes(prime_seed + 7919 * attempt, 1)
        forms = moment_forms(params, d - 1)
        pivots, free, reduced = kernel_modp(generator_matrix(forms, n, d), p)
        ndir, nullity, ncols = dim_gm(n), len(free), dim_forms(n, d)
        if nullity != ncols - ndir:
            continue  # tangent block degenerate at this point/prime
        minus_reduced = np.where(reduced, p - reduced, 0)

        def project(x: np.ndarray, vectors) -> np.ndarray:
            # x @ annihilator[vectors].T mod p, for residue rows x
            return matmul_modp(x[:, pivots], minus_reduced[:, vectors], p, out=x[:, free[vectors]])

        # the derivatives of s_{d-1} and s_{d-2} along the unit directions
        # (X_i, 0), then (0, X_j X_k), are weighted generator rows of degree
        # e; generator X^beta of degree d-e moves them through its shift-table row
        degrees = (d - 1, d - 2)
        weighted = [_weighted_generators(forms, n, e, p) for e in degrees]
        shifts = [(w, row) for w, e in zip(weighted, degrees) for row in _shift_table(n, e, d - e)]

        def dg_rows(rows: np.ndarray) -> np.ndarray:
            # one project call per run of equal generators
            generators, vectors = np.divmod(rows, nullity)
            out = np.empty((len(rows), ndir), dtype=np.int64)
            starts = np.flatnonzero(np.diff(generators, prepend=-1))
            for start, end in zip(starts, [*starts[1:], len(rows)]):
                w, row = shifts[generators[start]]
                x = np.zeros((ndir, ncols), dtype=np.int64)
                x[:, row] = w
                out[start:end] = project(x, vectors[start:end]).T
            return out

        gauge = _gauge_residue(params, p)
        # dg @ gauge: the gauge combination of the weighted rows, moved by
        # every generator and projected
        combined = np.concatenate([monomial_shifts(matmul_modp(gauge[None], w, p)[0], n, e, d - e)
                                   for w, e in zip(weighted, degrees)])
        _assert_gauge_direction(gauge, project(combined, slice(None)))
        return ndir - _gauge_bounded_rank(dg_rows, ndir * nullity, nullity, gauge, p)
    raise RuntimeError(
        f"no generic parameter point found for contact check at n={n}, d={d}"
    )


def _gauge_bounded_rank(rows_of, total: int, period: int, gauge: np.ndarray, p: int) -> int:
    """Rank mod p of a matrix dg with `total` rows and len(gauge) columns,
    whose rows `rows_of(indices)` returns, given dg @ gauge == 0 mod p.

    A gauge nonzero mod p is a kernel vector, so rank(dg) <= len(gauge) - 1;
    otherwise the bound is len(gauge).  Strided samples of rows, 4 len(gauge)
    at first and doubling, are eliminated before all of them: a sample's
    rank never exceeds dg's, so one that meets the bound is dg's rank.  The
    stride is coprime to `period`, the rows per generator, so that a sample
    reaches every generator with different annihilator vectors.
    """
    ncols = len(gauge)
    upper = ncols - 1 if gauge.any() else ncols
    count = 4 * ncols
    while count < total:
        stride = total // count
        while gcd(stride, period) != 1:
            stride -= 1
        rank = rank_modp(rows_of(np.arange(count) * stride), p)
        if rank == upper:
            return rank
        count *= 2
    return rank_modp(rows_of(np.arange(total)), p)


def _weighted_generators(forms: list[np.ndarray], n: int, e: int, p: int) -> np.ndarray:
    """The generator rows of degree e times differential_weights(n, e), mod p.

    The rows are reduced before they are weighted: a residue below 2^31
    times a weight of at most C(e + 1, 2) stays inside int64.
    """
    weights = differential_weights(n, e)[:, None]
    return weights * reduce_modp(generator_matrix(forms, n, e), p) % p


def _assert_gauge_direction(gauge: np.ndarray, image: np.ndarray) -> None:
    """The gauge direction (l, 2q) mod p must be nonzero and dg @ gauge, its
    image, zero: then it is a kernel vector of dg and bounds dg's kernel
    dimension below by 1."""
    if not gauge.any():
        raise RuntimeError("gauge direction vanishes mod p; "
                           "the contact kernel has no proven vector")
    if np.any(image):
        raise RuntimeError("gauge direction escaped the contact kernel; "
                           "differential assembly is inconsistent")


def _gauge_residue(params: GaussianParams, p: int) -> np.ndarray:
    """The gauge direction (l, 2q) mod p, in the order of the directions."""
    euler = np.array(
        params.mean + tuple(2 * v for v in params.quadratic_form().coeffs), dtype=object
    )
    return reduce_modp(euler[None, :], p)[0]


# ---------------------------------------------------------------------------
# CSV emission (published-table schema)


def csv_text(records: list[ExperimentRecord]) -> str:
    """Records as CSV with header `n,rank,secant dimension,expected dimension`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rec.csv_row() for rec in records)
    return buffer.getvalue()


def emit_csv(records: list[ExperimentRecord], path) -> None:
    """Write csv_text(records) to path."""
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(records))


def read_csv(path) -> list[dict[str, int]]:
    """Parse a file produced by emit_csv back into integer-valued rows."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise ValueError(f"unexpected header {reader.fieldnames}")
        return [{k: int(v) for k, v in row.items()} for row in reader]
