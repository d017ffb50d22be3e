"""Rank engines: mod-p elimination, float SVD, consensus protocol."""

from fractions import Fraction

import numpy as np
import pytest

from momentlab.rank import (
    ConsensusError,
    draw_primes,
    kernel_basis_modp,
    matmul_modp,
    prime_pool,
    rank_consensus,
    rank_float,
    rank_modp,
)

from oracles import rational_rank

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


def test_consensus_irreconcilable_raises(monkeypatch):
    # three distinct exact answers cannot come from an honest matrix;
    # patch the prime engine to force the error path
    answers = iter([1, 2, 3])
    monkeypatch.setattr("momentlab.rank.rank_modp", lambda m, p: next(answers))
    with pytest.raises(ConsensusError):
        rank_consensus([[1, 0], [0, 1]])
