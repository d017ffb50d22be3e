"""Tangent-space generator matrices of the Gaussian moment variety.

At a parameter point (l, q) the tangent space of the degree-d moment
variety is spanned by the forms s_{d-1}(l,q) * X_j (one per variable) and
s_{d-2}(l,q) * X_j X_k (one per monomial pair, j <= k), a total of
n + n(n+1)/2 = n(n+3)/2 generators.  A secant matrix stacks the generator
blocks of several points; its rank is the dimension of the sum of the
tangent spaces, hence of the secant variety at a generic point.

Rows live in the dense degree-d coefficient space of length C(n+d-1, d)
and are ndarrays in the dtype of the point's moment forms: for exact
parameters int64 under a proven bound (see moments.moment_forms), else
object (exact ints/Fractions); float64 for float ones.  A secant matrix is
allocated once, in the dtype all its points' forms fit (known before they
are computed, see moments.forms_dtype), and each point's generator rows
are written straight into their row slice, in sample order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import dim_gm
from .moments import GaussianParams, forms_dtype, moment_forms
from .poly import QQ, DenseForm, Ring, monomial_count, monomial_shifts, quadratic_pairs

SAMPLE_BOX = 10  # default bound on the entries of sampled parameter points


@dataclass(frozen=True, eq=False)
class TangentBlock:
    """Generator matrix of one tangent space; rows are coefficient vectors
    (a view into the secant matrix when secant_matrix assembled it)."""

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
    row-stacked in sample order in the one array secant_matrix fills."""

    rows: np.ndarray

    def matrix(self) -> np.ndarray:
        return self.rows


def generator_matrix(forms: list[np.ndarray], n: int, d: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Rows s_{d-1} X_j, then s_{d-2} X_j X_k in quadratic_pairs order.

    forms holds the coefficient arrays s_0 .. s_k (k >= d-1) of one point,
    as moment_forms returns them; the rows keep their dtype, or are written
    into out, cast to its dtype.
    """
    if out is None:
        out = np.empty((dim_gm(n), monomial_count(n, d)), forms[d - 1].dtype)
    monomial_shifts(forms[d - 1], n, d - 1, 1, out[:n])
    monomial_shifts(forms[d - 2], n, d - 2, 2, out[n:])
    return out


def tangent_matrix(params: GaussianParams, d: int, out: np.ndarray | None = None) -> TangentBlock:
    """Generator rows {s_{d-1} X_j}_j then {s_{d-2} X_j X_k}_{j<=k},
    written into out when it is given (see generator_matrix)."""
    if d < 3:
        raise ValueError(f"tangent generators need d >= 3, got {d}")
    forms = moment_forms(params, d - 1)
    return TangentBlock(params, d, generator_matrix(forms, params.n, d, out))


def secant_matrix(samples: list[GaussianParams], d: int) -> SecantMatrix:
    """The tangent blocks of the given parameter points, stacked in sample
    order, in the dtype every point's forms fit (object if any point's
    are)."""
    if not samples:
        raise ValueError("need at least one parameter point")
    if d < 3:
        raise ValueError(f"tangent generators need d >= 3, got {d}")
    first = samples[0]
    if any(p.n != first.n or p.ring != first.ring for p in samples):
        raise ValueError("blocks must share variable count, degree and ring")
    dtype = np.result_type(*(forms_dtype(p, d - 1) for p in samples))
    block = dim_gm(first.n)
    rows = np.empty((len(samples) * block, monomial_count(first.n, d)), dtype)
    for i, p in enumerate(samples):
        tangent_matrix(p, d, rows[i * block:(i + 1) * block])
    return SecantMatrix(rows)


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


def sample_params(
    seed: int, n: int, m: int, box: int = SAMPLE_BOX, ring: Ring = QQ
) -> list[GaussianParams]:
    """Deterministic integer-entry parameter points, uniform in [-box, box].

    The same seed yields a bit-identical sample regardless of how callers
    parallelize downstream work; draws happen serially here, mean first and
    Sigma upper triangle second for each component in turn.
    """
    if box < 1:
        raise ValueError(f"sampling box must be >= 1, got {box}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(m):
        mean = [int(v) for v in rng.integers(-box, box + 1, n)]
        quad = [int(v) for v in rng.integers(-box, box + 1, n * (n + 1) // 2)]
        out.append(GaussianParams.make(mean, quad, ring=ring))
    return out


def sample_split_params(
    seed: int, n1: int, n2: int, m: int, box: int = SAMPLE_BOX, ring: Ring = QQ
) -> list[GaussianParams]:
    """Variable-splitting sample: q_i generic in the first n1 variables only,
    l_i generic in the last n2 variables only, embedded in n1+n2 variables."""
    if box < 1:
        raise ValueError(f"sampling box must be >= 1, got {box}")
    n = n1 + n2
    rng = np.random.default_rng(seed)
    pair_index = {pair: idx for idx, pair in enumerate(quadratic_pairs(n))}
    out = []
    for _ in range(m):
        mean = [0] * n
        for j, v in enumerate(rng.integers(-box, box + 1, n2)):
            mean[n1 + j] = int(v)
        quad = [0] * (n * (n + 1) // 2)
        for j in range(n1):
            for k in range(j, n1):
                quad[pair_index[(j, k)]] = int(rng.integers(-box, box + 1))
        out.append(GaussianParams.make(mean, quad, ring=ring))
    return out
