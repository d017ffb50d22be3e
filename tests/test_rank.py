"""Rank engines: mod-p elimination, float SVD, consensus protocol."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab.rank import (
    PANEL,
    ConsensusError,
    draw_primes,
    kernel_basis_modp,
    matmul_modp,
    prime_pool,
    rank_consensus,
    rank_float,
    rank_modp,
)

from oracles import echelon_rank_modp, rational_rank

P = 2147482951  # an odd prime < 2^31


def test_prime_pool_shape():
    pool = prime_pool()
    assert len(pool) == 100
    assert all(p < 2**31 for p in pool)
    assert len(set(pool)) == 100


def test_prime_pool_matches_sympy_primerange():
    from sympy import primerange

    assert prime_pool() == tuple(primerange(2**31 - 6000, 2**31))[-100:]


def test_draw_primes_deterministic_and_distinct():
    a = draw_primes(1729, 3)
    assert a == draw_primes(1729, 3)
    assert len(set(a)) == 3
    b = draw_primes(1729, 2, exclude=(a[0],))
    assert a[0] not in b


def test_rank_modp_identity():
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert rank_modp(eye, P) == 5


def test_rank_modp_duplicated_rows():
    rng = np.random.default_rng(61)
    m = rng.integers(-50, 51, (9, 20))
    mat = np.vstack([m, m[:1]])
    assert rank_modp(mat.tolist(), P) <= 9


def test_rank_modp_matches_rational_oracle_two_primes():
    rng = np.random.default_rng(67)
    mat = rng.integers(-9, 10, (50, 80)).tolist()
    # force some dependency
    mat[10] = [3 * a - 2 * b for a, b in zip(mat[0], mat[1])]
    expected = rational_rank(mat)
    p1, p2 = draw_primes(7, 2)
    assert rank_modp(mat, p1) == expected
    assert rank_modp(mat, p2) == expected


def test_rank_modp_rational_entries():
    mat = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    assert rank_modp(mat, P) == 1  # second row is half the first


def test_rank_modp_denominator_divisible_rejected():
    mat = [[Fraction(1, P)]]
    with pytest.raises(ValueError):
        rank_modp(mat, P)


def test_rank_modp_rejects_bad_modulus():
    with pytest.raises(ValueError):
        rank_modp([[1]], 15)


def test_rank_invariance_under_permutation_and_unit_scaling():
    rng = np.random.default_rng(71)
    mat = rng.integers(-9, 10, (12, 15))
    base = rank_modp(mat.tolist(), P)
    perm = mat[rng.permutation(12)][:, rng.permutation(15)]
    assert rank_modp(perm.tolist(), P) == base
    scaled = (mat * 7).tolist()
    assert rank_modp(scaled, P) == base


def test_rank_float_examples():
    eye = np.eye(7).tolist()
    assert rank_float(eye) == 7
    v = np.arange(1, 21, dtype=float)
    outer = np.outer(v, v).tolist()
    assert rank_float(outer) == 1


def test_rank_float_validation():
    with pytest.raises(ValueError):
        rank_float([[1.0]], tol=2.0)
    with pytest.raises(ValueError):
        rank_float([[float("nan")]])


def test_matmul_modp_exact_at_the_overflow_bound():
    # every entry p-1 at the largest inner dimension the limb split allows
    inner = 2**16 - 1
    a = np.full((3, inner), P - 1, dtype=np.int64)
    b = np.full((inner, 2), P - 1, dtype=np.int64)
    expected = (a.astype(object) @ b.astype(object)) % P
    assert np.array_equal(matmul_modp(a, b, P), expected.astype(np.int64))
    with pytest.raises(ValueError):
        matmul_modp(np.ones((1, 2**16), dtype=np.int64), np.ones((2**16, 1), dtype=np.int64), P)


def test_matmul_modp_exact_at_the_float64_limb_bound():
    # one limb product of PANEL terms at its largest: residues p - 1 against
    # a low limb of 2^16 - 1, each float64 sum odd and just below 2^53
    p = prime_pool()[-1]
    b_value = (((p - 1) >> 16) - 1 << 16) | 0xFFFF
    for inner in (PANEL, PANEL + 1):
        a = np.full((2, inner), p - 1, dtype=np.int64)
        a[:, 0] = p - 2
        b = np.full((inner, 3), b_value, dtype=np.int64)
        expected = (a.astype(object) @ b.astype(object)) % p
        assert np.array_equal(matmul_modp(a, b, p), expected.astype(np.int64))


def _residue_matrix(seed, rows, cols, rank, p, zero_cols, fill):
    """rows x cols residues of rank at most `rank`: a random product of
    rows x rank and rank x cols factors, some columns zeroed, or every entry
    p - 1 (rank 1)."""
    if fill == "p-1":
        return np.full((rows, cols), p - 1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    left = rng.integers(0, min(p, 2**15), (rows, rank), dtype=np.int64)
    right = rng.integers(0, min(p, 2**15), (rank, cols), dtype=np.int64)
    a = np.zeros((rows, cols), dtype=np.int64)
    for k in range(rank):  # rank-one terms, each below 2^30: no int64 overflow
        a = (a + np.outer(left[:, k], right[k])) % p
    a[:, rng.choice(cols, size=min(zero_cols, cols), replace=False)] = 0
    return a


# column counts on both sides of one and two panel edges
EDGE_COLS = (1, 2, PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 1)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 2 * PANEL + 12),
    cols=st.sampled_from(EDGE_COLS),
    rank=st.integers(0, 2 * PANEL + 12),
    p=st.sampled_from([3, 5, P]),
    zero_cols=st.sampled_from([0, 0, 3, 40]),
    fill=st.sampled_from(["random", "random", "random", "p-1"]),
)
def test_blocked_engine_matches_unblocked_reference(seed, rows, cols, rank, p, zero_cols, fill):
    a = _residue_matrix(seed, rows, cols, min(rank, rows, cols), p, zero_cols, fill)
    expected = echelon_rank_modp(a.copy(), p)
    assert rank_modp(a, p) == expected
    basis = kernel_basis_modp(a, p)
    assert basis.shape == (cols - expected, cols)
    # a few kernel vectors, checked over Z
    for v in basis[:3]:
        assert not np.any((a.astype(object) @ v.astype(object)) % p)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 24),
    cols=st.sampled_from(EDGE_COLS),
    rank=st.integers(0, 24),
)
def test_blocked_engine_matches_rational_rank(seed, rows, cols, rank):
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    mat = rng.integers(-9, 10, (rows, rank)) @ rng.integers(-9, 10, (rank, cols))
    mat[:, rng.integers(0, cols, 2)] = 0
    assert rank_modp(mat, P) == rational_rank(mat.tolist())


def test_blocked_engine_matches_rational_rank_across_two_panels():
    # rank above PANEL, so the trailing update and a second panel's pivots
    # count: [I | R] with neighbouring rows added (the Fraction oracle stays
    # fast while most pivot columns are sparse), three columns zeroed, two
    # dependent rows appended
    rng = np.random.default_rng(79)
    k = PANEL + 6
    mat = np.hstack([np.eye(k, dtype=np.int64), rng.integers(-9, 10, (k, PANEL + 1))])
    mat[1:] += mat[:-1]
    mat[:, [3, PANEL, 2 * PANEL]] = 0
    mat = np.vstack([mat, mat[:2] - mat[5:7]])
    expected = rational_rank(mat.tolist())
    assert PANEL < expected <= k
    for p in draw_primes(11, 2):
        assert rank_modp(mat, p) == expected


def test_kernel_identity_is_empty():
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert kernel_basis_modp(eye, P).shape == (0, 4)


def test_kernel_one_by_two():
    basis = kernel_basis_modp([[1, 1]], P)
    assert basis.shape == (1, 2)
    v = basis[0]
    assert (v[0] + v[1]) % P == 0
    assert v[0] != 0  # the (1, -1) direction up to scale


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(73)
    mat = rng.integers(-9, 10, (6, 11)).tolist()
    basis = kernel_basis_modp(mat, P)
    assert basis.shape[0] == 11 - rank_modp(mat, P)
    for v in basis:
        prod = [sum(int(a) * int(x) for a, x in zip(row, v)) % P for row in mat]
        assert all(e == 0 for e in prod)


def test_consensus_identity():
    eye = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    report = rank_consensus(eye)
    assert report.rank == 6
    assert report.agreed
    assert [e.engine for e in report.engines] == ["modp", "modp", "float"]


def test_consensus_adversarial_first_prime():
    # entries all divisible by the first prime the engine will draw:
    # rank mod p1 collapses to 0, the majority vote must recover it
    prime_seed = 1729
    (p1,) = draw_primes(prime_seed + 0, 1)
    mat = (p1 * np.eye(4, dtype=object)).tolist()
    report = rank_consensus(mat, prime_seed=prime_seed)
    assert report.rank == 4
    assert not report.agreed
    ranks = [e.rank for e in report.engines if e.engine == "modp"]
    assert sorted(ranks) == [0, 4, 4]


def test_consensus_passes_an_int_matrix_as_int64(monkeypatch):
    seen = []
    real = rank_modp
    monkeypatch.setattr("momentlab.rank.rank_modp", lambda m, p: seen.append(m.dtype) or real(m, p))
    mat = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 5]], dtype=object)
    assert rank_consensus(mat).rank == 2
    assert seen == [np.int64, np.int64]


def test_consensus_keeps_fraction_entries_exact():
    # truncating 1/2 to 0 would give rank 2; the rows are proportional
    half = [[Fraction(1, 2), 1], [1, 2]]
    assert rank_consensus(half).rank == rational_rank(half) == 1
    rng = np.random.default_rng(83)
    mat = [[Fraction(int(a), int(b)) for a, b in zip(row_a, row_b)]
           for row_a, row_b in zip(rng.integers(-9, 10, (8, 12)), rng.integers(1, 7, (8, 12)))]
    mat[5] = [x / 3 - 2 * y for x, y in zip(mat[0], mat[1])]
    report = rank_consensus(mat)
    assert report.rank == rational_rank(mat) == 7
    assert report.agreed


def test_consensus_entries_beyond_int64():
    big = [[2**63, 1, 5], [2**64, 2, 10], [3, 2**70 + 1, 0]]
    assert rank_consensus(big).rank == rational_rank(big) == 2
    # as an object array: numpy turns a list with entries in [2^63, 2^64) into float64
    assert rank_consensus(np.array([[2**63 + 1, 0], [0, 1]], dtype=object)).rank == 2


def test_consensus_irreconcilable_raises(monkeypatch):
    # three distinct exact answers cannot come from an honest matrix;
    # patch the prime engine to force the error path
    answers = iter([1, 2, 3])
    monkeypatch.setattr("momentlab.rank.rank_modp", lambda m, p: next(answers))
    with pytest.raises(ConsensusError):
        rank_consensus([[1, 0], [0, 1]])
