"""Tangent-space generator matrices of the Gaussian moment variety.

At a parameter point (l, q) the tangent space of the degree-d moment
variety is spanned by the forms s_{d-1}(l,q) * X_j (one per variable) and
s_{d-2}(l,q) * X_j X_k (one per monomial pair, j <= k), a total of
n + n(n+1)/2 = n(n+3)/2 generators.  A secant matrix stacks the generator
blocks of several points; its rank is the dimension of the sum of the
tangent spaces, hence of the secant variety at a generic point.

Rows live in the dense degree-d coefficient space of length C(n+d-1, d)
and are ndarrays in the dtype of the points' moment forms: for exact
parameters int64 under a proven bound (see moments.stacked_moment_forms),
else object (exact ints/Fractions); float64 for float ones.  A secant
matrix is one generator_matrix scatter of its points' stacked forms, from
one recurrence over all of them, its blocks in sample order.

Parameter points are sampled with integer entries uniform in
[-SAMPLE_BOX, SAMPLE_BOX], from a seed that every experiment and the CLI
default to DEFAULT_SEED.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import dim_gm
from .moments import GaussianParams, moment_forms, point_arrays, stacked_moment_forms
from .poly import DenseForm, _shift_table, monomial_count, quadratic_pairs

SAMPLE_BOX = 10  # bound on the entries of sampled parameter points
DEFAULT_SEED = 42  # the sampling seed of every experiment and command


@dataclass(frozen=True, eq=False)
class TangentBlock:
    """Generator matrix of one tangent space; rows are coefficient vectors."""

    params: GaussianParams
    d: int
    rows: np.ndarray

    @property
    def row_count(self) -> int:
        return self.rows.shape[0]

    @property
    def col_count(self) -> int:
        return self.rows.shape[1]

    def matrix(self) -> np.ndarray:
        return self.rows


@dataclass(frozen=True, eq=False)
class SecantMatrix:
    """The tangent blocks of m parameter points sharing (n, d, ring),
    row-stacked in sample order in one array."""

    rows: np.ndarray

    def matrix(self) -> np.ndarray:
        return self.rows


def generator_families(n: int, d: int) -> tuple:
    """The two families of a point's tangent generators, in generator_matrix's
    layout: (k, table, rows) with table[g] the columns that form s_k moves
    to under generator g, and rows the family's rows of the block, s_{d-1}
    X_j first, then s_{d-2} X_j X_k."""
    return ((d - 1, _shift_table(n, d - 1, 1), slice(0, n)),
            (d - 2, _shift_table(n, d - 2, 2), slice(n, dim_gm(n))))


def generator_matrix(forms, n: int, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """A point's generator block: s_{d-1} X_j, then s_{d-2} X_j X_k in
    quadratic_pairs order.

    forms holds the coefficient arrays s_k, k = d-2 and d-1, of one point
    (the list moment_forms returns, or a dict {k: s_k}), or of a stack of
    points, whose blocks are then stacked the same way; the rows keep their
    dtype, or are written into out, cast to its dtype.
    """
    shape = forms[d - 1].shape[:-1] + (dim_gm(n), monomial_count(n, d))
    if out is None:
        out = np.zeros(shape, forms[d - 1].dtype)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    else:
        out[...] = 0
    at = np.arange(dim_gm(n))
    for k, table, rows in generator_families(n, d):
        out[..., at[rows, None], table] = forms[k][..., None, :]
    return out


def tangent_matrix(params: GaussianParams, d: int) -> TangentBlock:
    """Generator rows {s_{d-1} X_j}_j then {s_{d-2} X_j X_k}_{j<=k}."""
    if d < 3:
        raise ValueError(f"tangent generators need d >= 3, got {d}")
    forms = moment_forms(params, d - 1)
    return TangentBlock(params, d, generator_matrix(forms, params.n, d))


def secant_matrix(samples: list[GaussianParams], d: int) -> SecantMatrix:
    """The tangent blocks of the given parameter points, stacked in sample
    order, from one recurrence over all of them, in the dtype all their
    forms fit (see moments.stacked_moment_forms)."""
    if not samples:
        raise ValueError("need at least one parameter point")
    if d < 3:
        raise ValueError(f"tangent generators need d >= 3, got {d}")
    first = samples[0]
    if any(p.n != first.n or p.ring != first.ring for p in samples):
        raise ValueError("blocks must share variable count, degree and ring")
    forms = stacked_moment_forms(*point_arrays(samples), d - 1)
    rows = generator_matrix(forms, first.n, d)
    return SecantMatrix(rows.reshape(-1, rows.shape[-1]))


def differential_weights(n: int, d: int) -> np.ndarray:
    """Factors d on the linear and d(d-1)/2 on the quadratic generators:
    the derivative of s_d along a unit direction is that factor times the
    direction's generator row."""
    return np.array([d] * n + [d * (d - 1) // 2] * (n * (n + 1) // 2))


def differential(
    params: GaussianParams, d: int, direction: tuple[DenseForm, DenseForm]
) -> DenseForm:
    """Directional derivative of the degree-d moment map at a point.

    For a direction (a, b) with a linear and b quadratic this is
    d * s_{d-1}(l,q) * a  +  d(d-1)/2 * s_{d-2}(l,q) * b, the normalization
    constants coming from shifting the exponential series by one and two
    degrees respectively.
    """
    a, b = direction
    if a.d != 1 or b.d != 2:
        raise ValueError("direction must be a (degree-1, degree-2) pair")
    if a.n != params.n or b.n != params.n:
        raise ValueError("direction variable count mismatch")
    if a.ring != params.ring or b.ring != params.ring:
        raise ValueError("direction ring mismatch")
    if d < 2:
        raise ValueError(f"differential needs d >= 2, got {d}")
    n = params.n
    weights = differential_weights(n, d) * np.array(a.coeffs + b.coeffs, dtype=object)
    coeffs = weights @ generator_matrix(moment_forms(params, d - 1), n, d)
    return DenseForm.from_coeffs(n, d, coeffs, params.ring)


def sample_arrays(seed: int, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of sample_params(seed, n, m) as int64 arrays: the means
    (m x n) and Sigma's upper triangles (m x n(n+1)/2), drawn in one call,
    in the order of the per-point draws (each mean, then its Sigma)."""
    draws = np.random.default_rng(seed).integers(
        -SAMPLE_BOX, SAMPLE_BOX + 1, (m, n + n * (n + 1) // 2))
    return draws[:, :n], draws[:, n:]


def sample_params(seed: int, n: int, m: int) -> list[GaussianParams]:
    """Deterministic integer-entry parameter points, uniform in
    [-SAMPLE_BOX, SAMPLE_BOX].

    The same seed yields a bit-identical sample regardless of how callers
    parallelize downstream work; the draws are those of sample_arrays, mean
    first and Sigma upper triangle second for each component in turn.
    """
    mean, sigma = sample_arrays(seed, n, m)
    return [GaussianParams.make(a.tolist(), s.tolist()) for a, s in zip(mean, sigma)]


def sample_split_arrays(seed: int, n1: int, n2: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Variable-splitting sample: int64 arrays of means and Sigma upper
    triangles in n1 + n2 variables, q_i generic in the first n1 variables
    only and l_i generic in the last n2 variables only.  Each point draws
    its mean in the last n2 variables, then Sigma's upper triangle in the
    first n1, row by row."""
    n = n1 + n2
    pair_index = {pair: idx for idx, pair in enumerate(quadratic_pairs(n))}
    columns = [pair_index[(j, k)] for j in range(n1) for k in range(j, n1)]
    draws = np.random.default_rng(seed).integers(
        -SAMPLE_BOX, SAMPLE_BOX + 1, (m, n2 + len(columns)))
    mean = np.zeros((m, n), dtype=np.int64)
    sigma = np.zeros((m, n * (n + 1) // 2), dtype=np.int64)
    mean[:, n1:] = draws[:, :n2]
    sigma[:, columns] = draws[:, n2:]
    return mean, sigma
