"""Secant-dimension, defect, variable-splitting and contact-locus experiments.

Each experiment samples deterministic integer parameter points and
measures ranks as certificates (see rank.rank_consensus), so a record is a
pure function of (n, d, m, seed, prime seed).  Every experiment runs on
arrays of its points' entries, drawn in one call, and their moment forms
from one stacked recurrence.  A secant certificate has no step that loops
over the points: each prime reduces each stacked form once and writes all
its generator rows into the residue matrix by one fancy assignment.  Only
the degree-4 Koszul check is exact, one product with each stacked form.
A non-generic sample or an unlucky prime shows as a secant rank that is
not certified; it is reported, not retried.  The secant rows are laid out
sorted by leading monomial, so that the mod-p elimination, which bounds
each panel by the rows that reach it, skips the rows below the staircase.
The contact check, one point at a time, instead redraws its point and
prime when the tangent block's kernel has the wrong dimension, up to 4
draws per trial, and then raises RuntimeError.  rank.kernel_modp
eliminates the block in place and keeps the kernel in its echelon
coordinates: O(dim_gm dim_forms) cells.  The gauge direction (l, 2q)
bounds the differential's rank by the number of directions minus 1; one
random combination of the kernel gives a square matrix of those
directions whose rank is a lower bound, and when it meets the gauge bound
no row of the differential is built.  The trials end at the first kernel
dimension of 1.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from math import comb, floor

import numpy as np

from .bounds import dim_forms, dim_gm, param_count_bound, splitting_constraints
from .moments import quadratic_weights, stacked_moment_forms
from .poly import _shift_table
from .rank import (
    DEFAULT_PRIME_SEED,
    DIMENSION_COUNT,
    PANEL,
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
    generator_families,
    generator_matrix,
    sample_arrays,
    sample_split_arrays,
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
    expected = min(m * dim_gm(n), dim_forms(n, d))
    upper, reason = expected, DIMENSION_COUNT
    forms = _tangent_forms(*sample_arrays(seed, n, m), d)
    if d == 4:
        vectors = koszul_kernel_vectors(forms[2], n)
        if _annihilates(vectors, forms, n, d):
            (p,) = draw_primes(prime_seed, 1)
            upper = min(vectors.shape[1] - rank_modp(vectors, p), expected)
            reason = KOSZUL_VECTORS
    report = rank_consensus(_assembler(forms, n, d), prime_seed, upper, reason)
    return ExperimentRecord(n, d, m, seed, report.rank, expected, expected - report.rank, report)


def points_per_group(n: int, d: int) -> int:
    """The points whose forms _tangent_forms computes at once: as many as
    keep the recurrence's largest shift tensor, n(n+1)/2 x dim_forms(n, d-1)
    cells a point, within max(2 PANEL, dim_gm) rows of the secant matrix's
    width, the rows that cli._scan_memory_mb counts beside the matrix."""
    rows = max(2 * PANEL, dim_gm(n)) * dim_forms(n, d)
    return max(1, rows // (dim_forms(n, 2) * dim_forms(n, d - 1)))


def _tangent_forms(mean: np.ndarray, sigma: np.ndarray, d: int) -> dict[int, np.ndarray]:
    """The forms {k: s_k}, k = d-2, d-1, that the tangent generators shift,
    of the points with means `mean` (m x n) and Sigma upper triangles
    `sigma`, as sample_arrays draws them: s_k is an m x dim_forms(n, k)
    array whose row i is point i's.  Each point's forms are computed once,
    by stacked_moment_forms over groups of points_per_group points; a group
    with a point past the int64 bound is object, and so is then the stack.
    """
    n = mean.shape[1]
    quadratic = sigma * quadratic_weights(n)
    group = points_per_group(n, d)
    kept = [stacked_moment_forms(mean[i:i + group], quadratic[i:i + group], d - 1)[d - 2:]
            for i in range(0, len(mean), group)]
    return {d - 2 + j: np.concatenate([forms[j] for forms in kept]) for j in range(2)}


def _staircase_order(forms: dict[int, np.ndarray], n: int, d: int) -> np.ndarray:
    """The rows of the secant matrix of the points with stacked tangent
    forms `forms` (see _tangent_forms), sorted stably by leading column: row
    i of the layout is row order[i] of the matrix in sample order.

    Generator s_k X^beta leads at lead(s_k) X^beta, as multiplying by a
    monomial keeps the colex order, so every row's lead is read in one pass:
    the first nonzero column of each point's s_{d-1} and s_{d-2}, mapped
    through the two shift tables.  At a generic point both are X_1^k, and
    the same generator of every point has the same leading column: the
    points are interleaved.  A zero form's rows lead at the column count,
    after all the others.
    """
    leads = []
    for k, table, _ in generator_families(n, d):
        nonzero = forms[k] != 0
        lead = table[:, nonzero.argmax(axis=1)].T
        lead[~nonzero.any(axis=1)] = dim_forms(n, d)
        leads.append(lead)
    return np.argsort(np.concatenate(leads, axis=1), axis=None, kind="stable")


def _assembler(forms: dict[int, np.ndarray], n: int, d: int):
    """A function residues(p), for rank_consensus, that builds the secant
    matrix of the points with stacked tangent forms `forms` mod p, in the
    layout of _staircase_order: each stacked form is reduced mod p once, and
    all its generator rows are written into a zeroed matrix at their layout
    positions by one fancy assignment.  The elimination then bounds each
    panel by the rows that reach it (rank._echelon); a row order changes no
    rank.
    """
    order = _staircase_order(forms, n, d)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    position = position.reshape(-1, dim_gm(n))

    def residues(p: int) -> np.ndarray:
        matrix = np.zeros((len(order), dim_forms(n, d)), dtype=np.int64)
        for k, table, rows in generator_families(n, d):
            matrix[position[:, rows, None], table] = reduce_modp(forms[k], p)[:, None]
        return matrix

    return residues


def max_rank_m(n: int, d: int) -> int:
    """The rank used by the dimension tables: floor(dim forms / dim GM)."""
    return floor(param_count_bound(n, d))


def max_rank_scan(
    ns,
    d: int,
    seed: int = 42,
    prime_seed: int = DEFAULT_PRIME_SEED,
) -> list[ExperimentRecord]:
    """Run secant_dimension at the parameter-counting rank for each n."""
    if d not in (4, 5, 6, 7, 8):
        raise ValueError(f"supported degrees are 4..8, got {d}")
    if isinstance(ns, int):
        ns = [ns]
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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "defect": self.defect,
            "koszul_vectors_in_kernel": self.koszul_vectors_in_kernel,
            "matches_choose2": self.matches_choose2,
            "record": self.record.to_dict(),
        }


def koszul_kernel_vectors(second_order: np.ndarray, n: int) -> np.ndarray:
    """Explicit row dependencies of the degree-4 secant matrix, one per row.

    second_order holds each point's s_2 = l^2 + q, stacked (m x n(n+1)/2).
    For each pair i < j the vector sets all linear-generator entries to
    zero and pairs the quadratic generators with p_i = l_j^2 + q_j and
    p_j = -(l_i^2 + q_i), so that the combination is the commutativity
    relation f*g - g*f = 0 of the second-order moment forms.
    """
    m = len(second_order)
    first, second = np.triu_indices(m, 1)
    pairs = np.arange(len(first))
    vectors = np.zeros((len(pairs), m, dim_gm(n)), dtype=second_order.dtype)
    vectors[pairs, first, n:] = second_order[second]
    vectors[pairs, second, n:] = -second_order[first]
    return vectors.reshape(len(pairs), m * dim_gm(n))


def _annihilates(vectors: np.ndarray, forms: dict[int, np.ndarray], n: int, d: int) -> bool:
    """Whether vectors @ M == 0 over Z, for M the secant matrix, in sample
    order, of the points with stacked tangent forms `forms`.

    The vectors' entries for one generator combine its form over the
    points, one product with the stacked form, and the combination is
    added at the generator's shifted columns.  Every partial sum is part of
    an entry of V M, so the products run in int64 when no sum of products
    can overflow, that is when max|V| max|M| inner_dim < 2^63; otherwise
    over Python ints.
    """
    if not vectors.size:
        return True
    weights = vectors.reshape(len(vectors), len(forms[d - 1]), dim_gm(n))
    if vectors.dtype == np.int64:
        factor = max(int(vectors.max()), -int(vectors.min())) * vectors.shape[1]
    products = []
    for k, table, rows in generator_families(n, d):
        columns, form = weights[:, :, rows].transpose(0, 2, 1), forms[k]
        if vectors.dtype == np.int64:
            form = within_int64(form, factor)
        if form.dtype != np.int64:
            columns, form = columns.astype(object), form.astype(object)
        products.append((table, columns @ form))
    total = np.zeros((len(vectors), dim_forms(n, d)),
                     dtype=np.result_type(*(product for _, product in products)))
    for table, product in products:
        np.add.at(total, (slice(None), table), product)
    return not np.any(total)


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
    forms = _tangent_forms(*sample_split_arrays(seed, n1, n2, m), d)
    report = rank_consensus(_assembler(forms, n, d), prime_seed=prime_seed)
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

    dg has one row per (generator, annihilator vector) pair and one column
    per direction.  The derivatives of s_e along the directions are the
    weighted generator rows W_e of degree e, and generator X^beta of degree
    d-e moves them through its shift-table row r, so the row of (X^beta, v)
    is v[r] @ W_e^T.  The annihilator stays in kernel_modp's coordinates:
    the vector of free column f = free[v] is 1 at f and -reduced[:, v] at
    the pivots.  One random combination w of it gives the dim_gm x dim_gm
    matrix A whose row for X^beta is w[r] @ W_e^T.  A = S dg for a
    block-diagonal S, and the gauge direction bounds rank dg by dim_gm - 1,
    so an A of that rank certifies kernel dimension 1; otherwise every row
    of dg is built from the dense annihilator basis and eliminated.
    """
    for attempt in range(4):
        point_seed = seed + 7919 * attempt
        mean, sigma = sample_arrays(point_seed, n, 1)
        quadratic = sigma * quadratic_weights(n)
        (p,) = draw_primes(prime_seed + 7919 * attempt, 1)
        residues = [reduce_modp(f, p)[0] for f in stacked_moment_forms(mean, quadratic, d - 1)]
        pivots, free, reduced = kernel_modp(lambda p: generator_matrix(residues, n, d), p)
        ndir, nullity, ncols = dim_gm(n), len(free), dim_forms(n, d)
        if nullity != ncols - ndir:
            continue  # tangent block degenerate at this point/prime
        np.subtract(p, reduced, out=reduced, where=reduced != 0)  # now -reduced mod p
        degrees = (d - 1, d - 2)
        weighted = [_weighted_generators(residues, n, e, p) for e in degrees]

        def differential(vectors: np.ndarray) -> np.ndarray:
            # the rows of dg, or of A, for the annihilator vectors `vectors`
            return np.concatenate([
                matmul_modp(vectors[:, _shift_table(n, e, d - e)].reshape(-1, w.shape[1]), w.T, p)
                for w, e in zip(weighted, degrees)
            ])

        gauge = _gauge_residue(mean, quadratic, p)
        # dg @ gauge: the gauge combination of the weighted rows, moved by
        # every generator and projected onto the annihilator, PANEL
        # generators at a time
        moved = {e: matmul_modp(gauge[None], w, p)[0] for w, e in zip(weighted, degrees)}
        for start in range(0, ndir, PANEL):
            rows = generator_matrix(moved, n, d, start=start, stop=min(start + PANEL, ndir))
            _assert_gauge_direction(gauge, matmul_modp(rows[:, pivots], reduced, p,
                                                       out=rows[:, free]))
        coefficients = _annihilator_draw(nullity, p, point_seed)
        sketch = np.empty(ncols, dtype=np.int64)
        sketch[free] = coefficients
        sketch[pivots] = matmul_modp(reduced, coefficients[:, None], p)[:, 0]
        if rank_modp(differential(sketch[None]), p) == ndir - 1:
            return 1
        basis = np.zeros((nullity, ncols), dtype=np.int64)
        basis[np.arange(nullity), free] = 1
        basis[:, pivots] = reduced.T
        return ndir - rank_modp(differential(basis), p)
    raise RuntimeError(
        f"no generic parameter point found for contact check at n={n}, d={d}"
    )


def _annihilator_draw(nullity: int, p: int, seed: int) -> np.ndarray:
    """The coefficients mod p of the random annihilator combination of
    _contact_kernel_once, one per basis vector, drawn from (seed, p)."""
    return np.random.default_rng([seed, p]).integers(0, p, nullity, dtype=np.int64)


def _weighted_generators(residues, n: int, e: int, p: int) -> np.ndarray:
    """The generator rows of degree e times differential_weights(n, e), mod
    p, from a point's forms s_k reduced mod p (residues[k]).

    The rows are residues before they are weighted: a residue below 2^31
    times a weight of at most C(e + 1, 2) stays inside int64.
    """
    weights = differential_weights(n, e)[:, None]
    return weights * generator_matrix(residues, n, e) % p


def _assert_gauge_direction(gauge: np.ndarray, image: np.ndarray) -> None:
    """The gauge direction (l, 2q) mod p must be nonzero and dg @ gauge, its
    image, zero (checked a block of generators' rows at a time): then it is
    a kernel vector of dg and bounds dg's kernel dimension below by 1."""
    if not gauge.any():
        raise RuntimeError("gauge direction vanishes mod p; "
                           "the contact kernel has no proven vector")
    if np.any(image):
        raise RuntimeError("gauge direction escaped the contact kernel; "
                           "differential assembly is inconsistent")


def _gauge_residue(mean: np.ndarray, quadratic: np.ndarray, p: int) -> np.ndarray:
    """The gauge direction (l, 2q) mod p, in the order of the directions, of
    the point with mean `mean` and q's coefficients `quadratic` (one row each)."""
    return reduce_modp(np.hstack([mean, 2 * quadratic]), p)[0]


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
