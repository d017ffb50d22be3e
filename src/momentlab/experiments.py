"""Secant-dimension, defect, variable-splitting and contact-locus experiments.

Each experiment samples deterministic integer parameter points, assembles
the relevant exact matrices, and measures ranks through the consensus
engine, so a record is a pure function of (n, d, m, seed, prime seed).
Non-generic samples and unlucky primes surface as consensus failures and
are retried with a fresh seed (three retries, then the error propagates).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from itertools import combinations
from math import comb, floor

import numpy as np

from .bounds import dim_forms, dim_gm, param_count_bound, splitting_constraints
from .moments import GaussianParams, moment_form, moment_forms
from .poly import monomial_shifts
from .rank import (
    DEFAULT_FLOAT_TOL,
    DEFAULT_PRIME_SEED,
    ConsensusError,
    RankReport,
    draw_primes,
    kernel_basis_modp,
    matmul_modp,
    rank_consensus,
    rank_modp,
    reduce_modp,
)
from .tangent import (
    differential_weights,
    generator_matrix,
    gm_dimension,
    sample_params,
    sample_split_params,
    secant_matrix,
)

logger = logging.getLogger(__name__)

CSV_HEADER = ["n", "rank", "secant dimension", "expected dimension"]


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
    tol: float = DEFAULT_FLOAT_TOL,
) -> ExperimentRecord:
    """Rank of the stacked tangent blocks at m random points of the
    degree-d moment variety, with the parameter-counting comparison."""
    if n < 1 or d < 4 or m < 1:
        raise ValueError(f"need n >= 1, d >= 4, m >= 1, got n={n}, d={d}, m={m}")
    return _sampled_secant(n, d, m, seed, prime_seed, tol)[0]


def _sampled_secant(
    n: int, d: int, m: int, seed: int, prime_seed: int, tol: float
) -> tuple[ExperimentRecord, list[GaussianParams], np.ndarray]:
    """secant_dimension's record, with the parameter points and the secant
    matrix it was measured on."""
    last: ConsensusError | None = None
    for attempt in range(4):
        used_seed = seed + 1000003 * attempt
        params = sample_params(used_seed, n, m)
        matrix = secant_matrix(params, d).matrix()
        try:
            report = rank_consensus(matrix, prime_seed=prime_seed, tol=tol)
        except ConsensusError as err:
            logger.warning("consensus failure at seed %d, retrying: %s", used_seed, err)
            last = err
            continue
        expected = min(m * dim_gm(n), dim_forms(n, d))
        record = ExperimentRecord(
            n, d, m, used_seed, report.rank, expected, expected - report.rank, report
        )
        return record, params, matrix
    raise last  # three retries exhausted


def max_rank_m(n: int, d: int) -> int:
    """The rank used by the dimension tables: floor(dim forms / dim GM)."""
    return floor(param_count_bound(n, d))


def max_rank_scan(
    ns,
    d: int,
    seed: int = 42,
    prime_seed: int = DEFAULT_PRIME_SEED,
    tol: float = DEFAULT_FLOAT_TOL,
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
    block = gm_dimension(n)
    second_order = [np.array(moment_form(p, 2).coeffs, dtype=object) for p in params]
    pairs = list(combinations(range(len(params)), 2))
    vectors = np.zeros((len(pairs), block * len(params)), dtype=object)
    for row, (i, j) in enumerate(pairs):
        vectors[row, i * block + n:(i + 1) * block] = second_order[j]
        vectors[row, j * block + n:(j + 1) * block] = -second_order[i]
    return vectors


def koszul_defect_check(
    n: int,
    m: int,
    seed: int = 42,
    prime_seed: int = DEFAULT_PRIME_SEED,
) -> KoszulReport:
    """Measure the degree-4 secant defect and verify it is carried by the
    explicit pairwise kernel vectors (exact integer check, not sampled)."""
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    if m * dim_gm(n) > dim_forms(n, 4):
        raise ValueError(
            f"filling regime rejected: m*dim_gm = {m * dim_gm(n)} exceeds "
            f"dim forms = {dim_forms(n, 4)}"
        )
    record, params, matrix = _sampled_secant(n, 4, m, seed, prime_seed, DEFAULT_FLOAT_TOL)
    vectors = koszul_kernel_vectors(params)
    in_kernel = not np.any(vectors @ matrix)
    independent = (
        not len(vectors)
        or rank_consensus(vectors, prime_seed=prime_seed).rank == len(vectors)
    )
    matches = independent and record.defect == comb(m, 2)
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
    report = rank_consensus(secant_matrix(params, d).matrix(), prime_seed=prime_seed)
    return report.rank == m * gm_dimension(n)


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
    """Minimum kernel dimension of the contact-locus differential over trials.

    At each random point the tangent block's annihilator K is computed mod
    a random prime; the linear map sends a direction (a, b) to the
    K-projections of the derivatives of every tangent generator, the
    derivative of the degree-(d-1) factor feeding the linear generators and
    that of the degree-(d-2) factor feeding the quadratic ones.  The gauge
    direction (l, 2q) always lies in the kernel, so a kernel dimension of 1
    certifies the contact locus is projectively zero-dimensional at the
    point.  Values above 1 are inconclusive, never a refutation.

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
    return best


def _contact_kernel_once(n: int, d: int, seed: int, prime_seed: int) -> int:
    for attempt in range(4):
        params = sample_params(seed + 7919 * attempt, n, 1)[0]
        (p,) = draw_primes(prime_seed + 7919 * attempt, 1)
        forms = moment_forms(params, d - 1)
        tangent = generator_matrix(forms, n, d)
        annihilator = kernel_basis_modp(tangent, p)
        if annihilator.shape[0] != tangent.shape[1] - gm_dimension(n):
            continue  # tangent block degenerate at this point/prime

        # the derivatives of s_{d-1} and s_{d-2} along the unit directions
        # (X_i, 0), then (0, X_j X_k), are weighted generator rows; times the
        # tangent generators' monomials they give products[direction, generator]
        products = np.concatenate([
            monomial_shifts(differential_weights(n, e)[:, None] * generator_matrix(forms, n, e),
                            n, e, d - e)
            for e in (d - 1, d - 2)
        ], axis=1)
        ndir, _, ncols = products.shape
        projected = matmul_modp(reduce_modp(products.reshape(-1, ncols), p), annihilator.T, p)
        # rows (generator, annihilator vector), columns directions
        dg = projected.reshape(ndir, -1).T
        _assert_gauge_direction(dg, params, p)
        return ndir - rank_modp(dg, p)
    raise RuntimeError(
        f"no generic parameter point found for contact check at n={n}, d={d}"
    )


def _assert_gauge_direction(dg: np.ndarray, params: GaussianParams, p: int) -> None:
    # the direction (l, 2q) must be annihilated exactly (mod p)
    euler = np.array(
        params.mean + tuple(2 * v for v in params.quadratic_form().coeffs), dtype=object
    )
    if np.any(matmul_modp(dg, reduce_modp(euler[:, None], p), p)):
        raise RuntimeError("gauge direction escaped the contact kernel; "
                           "differential assembly is inconsistent")


# ---------------------------------------------------------------------------
# CSV emission (published-table schema)


def emit_csv(records: list[ExperimentRecord], path) -> None:
    """Write records with header `n,rank,secant dimension,expected dimension`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.csv_row())


def read_csv(path) -> list[dict[str, int]]:
    """Parse a file produced by emit_csv back into integer-valued rows."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise ValueError(f"unexpected header {reader.fieldnames}")
        return [{k: int(v) for k, v in row.items()} for row in reader]
