"""Independent oracles for the test suite.

These deliberately avoid the library's own code paths: rank is plain
Fraction-pivot Gaussian elimination, or column-by-column elimination over
F_p for residue matrices, resultants come from numerical root products, and
polynomial curves in t are fitted by solving an exact Vandermonde system.
The exceptions are contact_differential_dense and contact_kernel_dense,
references for the contact check that reuse the library's building blocks
and compute every entry the check could skip; residual_by_component and
jacobian_by_component, references for recovery that build each component's
forms and generator rows on its own and sum over the components in a Python
loop; and truncated_exp, the exponential-series construction of the moment
forms, which multiplies with the library's DenseForm arithmetic; and
koszul_kernel_vectors and _annihilates, the degree-4 Koszul vectors V as a
dense matrix and the check V M == 0 over Z from one product per generator
family, references for the Koszul check.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

import numpy as np

from momentlab.bounds import dim_forms, dim_gm
from momentlab.moments import _max_abs, moment_forms
from momentlab.poly import (
    RR, DenseForm, _check_compatible, monomial_rank, monomial_shifts, monomials, multiply,
    quadratic_pairs,
)
from momentlab.rank import draw_primes, kernel_basis_modp, matmul_modp, reduce_modp
from momentlab.tangent import (
    differential_weights, generator_families, generator_matrix, sample_params,
)


def shift_table_by_rank(n: int, e: int, k: int) -> np.ndarray:
    """table[b, a] = monomial_rank of the b-th degree-k monomial times the
    a-th degree-e monomial, one scalar rank per entry."""
    return np.array([
        [monomial_rank([x + y for x, y in zip(a, b)]) for a in monomials(n, e)]
        for b in monomials(n, k)
    ])


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


def echelon_form_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over F_p of an int64 residue matrix (p < 2^31) and
    its pivot columns, by unblocked forward elimination one column at a
    time.  The pivot of each column is its first nonzero entry at or below
    the current row, swapped up into place; entries below a pivot become
    zero.  a is left unchanged."""
    a = a.copy()
    m, ncols = a.shape
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
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
        pivots.append(c)
    return a, pivots


def leading_columns(matrix: np.ndarray) -> np.ndarray:
    """Each row's first nonzero column, the column count for a zero row."""
    nonzero = matrix != 0
    return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), matrix.shape[1])


def staircase(matrix: np.ndarray) -> np.ndarray:
    """The rows of matrix sorted stably by leading column, in a new array."""
    return matrix[np.argsort(leading_columns(matrix), kind="stable")]


def contact_differential_dense(n: int, d: int, seed: int,
                               prime_seed: int) -> tuple[np.ndarray, int]:
    """The contact differential dg of one trial as a dense computation, and
    its prime: the whole annihilator basis projected, one row per (generator,
    annihilator vector), generator-major.  The point and prime are drawn as
    experiments.contact_kernel draws them (up to 4 per trial)."""
    for attempt in range(4):
        params = sample_params(seed + 7919 * attempt, n, 1)[0]
        (p,) = draw_primes(prime_seed + 7919 * attempt, 1)
        forms = moment_forms(params, d - 1)
        tangent = generator_matrix(forms, n, d)
        annihilator = kernel_basis_modp(tangent, p)
        if annihilator.shape[0] == tangent.shape[1] - dim_gm(n):
            break
    else:
        raise RuntimeError("no generic point")
    products = np.concatenate([
        monomial_shifts(differential_weights(n, e)[:, None]
                        * generator_matrix(forms, n, e).astype(object), n, e, d - e)
        for e in (d - 1, d - 2)
    ], axis=1)
    ndir, _, ncols = products.shape
    projected = matmul_modp(reduce_modp(products.reshape(-1, ncols), p), annihilator.T, p)
    dg = projected.reshape(ndir, -1).T
    gauge = np.array(params.mean + tuple(2 * v for v in params.quadratic_form().coeffs),
                     dtype=object)
    if np.any(matmul_modp(dg, reduce_modp(gauge[:, None], p), p)):
        raise RuntimeError("gauge direction escaped")
    return dg, p


def contact_kernel_dense(n: int, d: int, trials: int = 3, seed: int = 42,
                         prime_seed: int = 1729) -> int:
    """The contact check as a dense computation: the rank of every row of
    contact_differential_dense, every trial, and the minimum over the
    trials; the rank is echelon_form_modp's."""
    best = None
    for t in range(trials):
        dg, p = contact_differential_dense(n, d, seed + t, prime_seed + t)
        dim = dg.shape[1] - len(echelon_form_modp(dg, p)[1])
        best = dim if best is None else min(best, dim)
    return best


def koszul_kernel_vectors(second_order: np.ndarray, n: int) -> np.ndarray:
    """Explicit row dependencies of the degree-4 secant matrix, one per pair.

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
    an entry of V M, so the products run in int64 when max|V| inner_dim
    max|s_k| < 2^63 for k = d-2 and d-1; OverflowError otherwise, and when
    V or the forms are not int64.
    """
    if any(a.dtype != np.int64 for a in (vectors, forms[d - 2], forms[d - 1])):
        raise OverflowError(f"the Koszul product runs in int64, got {vectors.dtype} "
                            f"vectors and {forms[d - 1].dtype} forms")
    bound = _max_abs(vectors) * vectors.shape[1] * max(_max_abs(forms[d - 2]),
                                                       _max_abs(forms[d - 1]))
    if bound >= 2**63:
        raise OverflowError(f"the Koszul product needs max|V| inner_dim max|s_k| < 2^63, "
                            f"got {bound}")
    weights = vectors.reshape(len(vectors), len(forms[d - 1]), dim_gm(n))
    total = np.zeros((len(vectors), dim_forms(n, d)), dtype=np.int64)
    for k, table, rows in generator_families(n, d):
        np.add.at(total, (slice(None), table), weights[:, :, rows].transpose(0, 2, 1) @ forms[k])
    return not np.any(total)


def residual_by_component(mix, problem) -> np.ndarray:
    """recovery.residual one component at a time: each component's forms
    from moment_forms, weighted and summed by Python's sum in component
    order, minus the target, degree by degree."""
    mix = mix.convert(RR)
    top = max(problem.degrees)
    forms = [(w, moment_forms(p, top)) for w, p in mix.components]
    return np.concatenate([
        sum(w * f[d] for w, f in forms) - np.array(target.coeffs, dtype=np.float64)
        for d, target in problem.targets
    ])


def jacobian_by_component(mix, problem) -> np.ndarray:
    """recovery.jacobian one component and one degree at a time: each
    component's generator rows from generator_matrix, scaled by the weight,
    the differential weights and 2 at Sigma's off-diagonal entries, then
    transposed, with the degree's form as the weight column when weights
    are free; blocks stacked by degree, then by component."""
    n = mix.n
    off_diagonal = np.array([1] * n + [1 if j == k else 2 for j, k in quadratic_pairs(n)],
                            dtype=object if mix.ring.exact else np.float64)
    top = max(problem.degrees)
    blocks = []
    for weight, p in mix.components:
        forms = moment_forms(p, top)
        rows = []
        for d in problem.degrees:
            scale = weight * differential_weights(n, d) * off_diagonal
            cols = [(generator_matrix(forms, n, d) * scale[:, None]).T]
            if problem.free_weights:
                cols.append(forms[d][:, None])
            rows.append(np.hstack(cols))
        blocks.append(np.vstack(rows))
    return np.hstack(blocks)


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


def truncated_exp(parts: Sequence[DenseForm], d: int) -> DenseForm:
    """Degree-d homogeneous part of exp(sum of the given forms).

    The parts must be homogeneous of positive degree and share an exact
    ring; the result is computed by truncated power-series exponentiation
    exp(F) = sum_k F^k / k!, keeping only components of degree <= d.
    """
    if not parts:
        raise ValueError("need at least one part")
    first = parts[0]
    n, ring = first.n, first.ring
    if not ring.exact:
        raise ValueError("truncated_exp requires an exact ring")
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    by_degree: dict[int, DenseForm] = {}
    for part in parts:
        _check_compatible(first, part)
        if part.d < 1:
            raise ValueError("parts must have degree >= 1")
        if part.d in by_degree:
            by_degree[part.d] = by_degree[part.d] + part
        else:
            by_degree[part.d] = part

    result = DenseForm.zero(n, d, ring)
    if d == 0:
        return DenseForm(n, 0, ring, (ring.one,))
    # power[e] = degree-e component of F^k, truncated to degree <= d
    power: dict[int, DenseForm] = {0: DenseForm(n, 0, ring, (ring.one,))}
    for k in range(1, d + 1):
        nxt: dict[int, DenseForm] = {}
        for e1, comp in power.items():
            if comp.is_zero():
                continue
            for e2, part in by_degree.items():
                e = e1 + e2
                if e > d:
                    continue
                term = multiply(comp, part)
                nxt[e] = nxt[e] + term if e in nxt else term
        power = nxt
        if not power:
            break
        if d in power:
            result = result + power[d].scale(ring.div(ring.one, factorial(k)))
    return result
