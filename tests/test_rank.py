"""Rank engines: mod-p elimination, float SVD, rank certificates."""

import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import momentlab
import momentlab.rank as rank_module
from momentlab.rank import (
    BASE,
    BLOCK_ROWS,
    CHUNK,
    PANEL,
    RECURSE_ROWS,
    _echelon,
    _is_probable_prime,
    _stacked_ranks,
    _unit_lower_inverse,
    check_odd_prime,
    draw_primes,
    kernel_basis_modp,
    kernel_modp,
    matmul_modp,
    prime_pool,
    rank_consensus,
    rank_float,
    rank_modp,
    ranks_modp,
    reduce_modp,
)

from oracles import echelon_form_modp, rational_rank, staircase

P = 2147482951  # an odd prime < 2^31
P_MAX = 2**31 - 1  # the pool's largest prime, the int32 maximum


def test_prime_pool_shape():
    pool = prime_pool()
    assert len(pool) == 100
    assert all(p < 2**31 for p in pool)
    assert len(set(pool)) == 100


def test_prime_pool_matches_sympy_primerange():
    from sympy import primerange

    assert prime_pool() == tuple(primerange(2**31 - 6000, 2**31))[-100:]


def test_prime_test_matches_sympy_over_the_pool_scan():
    # the pool is the first 100 primes of a scan of odd candidates down
    # from 2^31 - 1; below 3,215,031,751 the test uses the witnesses 2, 3,
    # 5, 7 only
    from sympy import isprime

    for candidate in range(prime_pool()[0], 2**31, 2):
        assert _is_probable_prime(candidate) == isprime(candidate)
    # the least strong pseudoprime to bases 2, 3, 5 and 7 is refused
    with pytest.raises(ValueError, match="3,215,031,751"):
        _is_probable_prime(3_215_031_751)
    assert _is_probable_prime(3_215_031_749) == isprime(3_215_031_749)


def test_check_odd_prime_rejects_composite():
    with pytest.raises(ValueError):
        check_odd_prime(91)


def _coefficients(p, k=4, seed=11):
    """A coefficient draw for kernel_modp: nullity x k residues mod p, the
    same for every call."""
    return lambda nullity: np.random.default_rng(seed).integers(0, p, (nullity, k))


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


def _doctored_residues(rng, p: int, rows: int, cols: int) -> np.ndarray:
    """A rows x cols residue matrix of a random rank, with, where it has the
    rows, a zero row, a repeated row and a row that is a multiple of another."""
    rank = int(rng.integers(0, min(rows, cols) + 1))
    a = matmul_modp(rng.integers(0, p, (rows, rank)), rng.integers(0, p, (rank, cols)), p)
    if rows >= 5:
        i, j, k, l, o = rng.permutation(rows)[:5]
        a[i] = 0
        a[j] = a[k]
        a[l] = int(rng.integers(1, p)) * a[o] % p
    return a


@pytest.mark.parametrize("p", [3, 5, 7, P])
def test_stacked_ranks_equal_rank_modp_matrix_by_matrix(p):
    rng = np.random.default_rng(p % 1000)
    for rows, cols in ((1, 1), (1, 9), (9, 1), (12, 5), (5, 12), (27, 28), (54, 58),
                       (35, 56), (44, 86), (3, 120), (120, 3)):
        stack = np.array([_doctored_residues(rng, p, rows, cols) for _ in range(6)])
        expected = tuple(rank_modp(a, p) for a in stack)
        assert _stacked_ranks(stack, p) == expected, (rows, cols)
        assert _stacked_ranks(stack.astype(np.int32), p) == expected, (rows, cols)
    # full rank: every matrix of a generic stack pivots at every step
    stack = rng.integers(0, p, (3, 8, 8))
    assert _stacked_ranks(stack, p) == tuple(rank_modp(a, p) for a in stack)


def test_stacked_ranks_loop_along_the_shorter_side(monkeypatch):
    # one reduction mod p a step: a stack of 35 x 56 matrices, wide or
    # transposed to tall, takes 35 steps
    rng = np.random.default_rng(35)
    stack = np.array([_doctored_residues(rng, P, 35, 56) for _ in range(3)])
    expected = tuple(rank_modp(a, P) for a in stack)
    steps = []
    real = rank_module._mod
    monkeypatch.setattr(rank_module, "_mod",
                        lambda x, p, out=None: steps.append(x.shape) or real(x, p, out))
    for matrices in (stack, stack.transpose(0, 2, 1)):
        steps.clear()
        assert _stacked_ranks(matrices, P) == expected
        assert len(steps) == 35


def test_stacked_ranks_of_matrices_padded_with_zero_columns():
    # slices of unequal width of one block, which ranks_modp zero-pads to
    # the widest: each ranks as itself, and an all-zero or empty one ranks 0
    rng = np.random.default_rng(71)
    matrices = [_doctored_residues(rng, P, 10, cols) for cols in (0, 3, 7, 12, 12)]
    matrices[3][:] = 0
    starts = np.cumsum([0] + [a.shape[1] for a in matrices])
    columns = [np.arange(a, b) for a, b in zip(starts, starts[1:])]
    ranks = ranks_modp(np.hstack(matrices), columns, P)
    assert ranks == tuple(rank_modp(a, P) for a in matrices)
    assert ranks[0] == ranks[3] == 0 and ranks[4] > 0


def test_stacked_ranks_refuse_what_is_not_a_residue_stack():
    assert ranks_modp(np.zeros((3, 4), dtype=np.int64), [], P) == ()
    assert _stacked_ranks(np.zeros((0, 3, 4), dtype=np.int64), P) == ()
    assert ranks_modp(np.zeros((0, 4), dtype=np.int32), [np.arange(4)] * 2, P) == (0, 0)
    with pytest.raises(ValueError):
        ranks_modp(np.zeros((2, 3, 4), dtype=np.int64), [np.arange(4)], P)
    with pytest.raises(TypeError):
        ranks_modp(np.zeros((3, 4)), [np.arange(4)], P)
    with pytest.raises(TypeError):  # a mask would be read as the columns 0 and 1
        ranks_modp(np.zeros((3, 4), dtype=np.int64), [np.arange(4) < 2], P)
    with pytest.raises(ValueError):
        ranks_modp(np.zeros((3, 4), dtype=np.int64), [np.arange(4)], 9)


@pytest.mark.parametrize("p", [3, P_MAX])
@pytest.mark.parametrize("side", [2 * PANEL - 1, 2 * PANEL])
def test_stacked_ranks_and_blocked_slices_at_the_boundary(monkeypatch, side, p):
    # wide slices of a block of `side` rows, and tall slices of at most
    # side + 1 columns of a block of side + 9 rows: of mixed widths with a
    # zero-width one, and no slice at all, of blocks of rank side - 3 with a
    # zero, a repeated and a multiple column.  Each rank is rank_modp's of
    # its slice, the block is left unwritten, and the slices are stacked
    # exactly when the block's rows and the widest slice are both fewer than
    # 2 PANEL: a set short one way and 2 PANEL or longer the other is not
    rng = np.random.default_rng(side)
    stacked = []
    real = rank_module._stacked_ranks
    monkeypatch.setattr(rank_module, "_stacked_ranks",
                        lambda stack, p: stacked.append(stack.shape) or real(stack, p))
    for rows in (side, side + 9):
        cols = 2 * side + 20
        block = matmul_modp(rng.integers(0, p, (rows, side - 3)),
                            rng.integers(0, p, (side - 3, cols)), p)
        block[:, 0] = 0
        block[:, 1] = block[:, 2]
        block[:, 3] = 2 * block[:, 4] % p
        order = rng.permutation(cols)
        slicings = [[order[:side], order[side:2 * side]],
                    [order[:side + 1], order[side + 1:]],
                    [order[:5], order[5:side - 1], order[:0], order[side - 1:2 * side - 2]],
                    [order[:5], order[5:side + 9], order[:0], order[side + 9:]],
                    []]
        for dtype in (np.int64, np.int32):
            a = block.astype(dtype)
            before = a.copy()
            for columns in slicings:
                stacked.clear()
                expected = tuple(rank_modp(a[:, c], p) for c in columns)
                assert ranks_modp(a, columns, p) == expected
                widest = max(map(len, columns), default=0)
                assert bool(stacked) == (max(rows, widest) < 2 * PANEL)
                assert stacked in ([], [(len(columns), rows, widest)])
            assert a.dtype == dtype and np.array_equal(a, before)
        assert max(rank_modp(block[:, c], p) for c in slicings[1]) == side - 3


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


def _matmul_oracle(a, b, p, out=None):
    product = a.astype(object) @ b.astype(object)
    if out is not None:
        product += out.astype(object)
    return (product % p).astype(np.int64)


def test_matmul_modp_exact_at_the_overflow_bound():
    # every PANEL run is reduced mod p before the next, so any inner
    # dimension is exact: entries p-1, then random residues, at and past 2^16
    rng = np.random.default_rng(65537)
    for inner in (2**16 - 1, 2**16, 2**17 + 1):
        a = np.full((3, inner), P - 1, dtype=np.int64)
        b = np.full((inner, 2), P - 1, dtype=np.int64)
        assert np.array_equal(matmul_modp(a, b, P), _matmul_oracle(a, b, P)), inner
        a, b = rng.integers(0, P, (3, inner)), rng.integers(0, P, (inner, 2))
        assert np.array_equal(matmul_modp(a, b, P), _matmul_oracle(a, b, P)), inner
    with pytest.raises(ValueError):
        matmul_modp(np.ones((1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64), 2**31 + 11)
    # rows and columns just past a block edge, and an accumulated out
    for rows, cols in ((BLOCK_ROWS + 1, 2), (2, CHUNK + 1)):
        a = np.full((rows, PANEL + 1), P - 1, dtype=np.int64)
        b = np.full((PANEL + 1, cols), P - 1, dtype=np.int64)
        out = np.full((rows, cols), P - 1, dtype=np.int64)
        expected = _matmul_oracle(a, b, P, out)
        assert matmul_modp(a, b, P, out=out) is out
        assert np.array_equal(out, expected)


def test_matmul_modp_exact_at_the_float64_limb_bound():
    # one limb product of PANEL terms at its largest: residues p - 1 against
    # a low limb of 2^16 - 1, each float64 sum odd and just below 2^53
    p = prime_pool()[-1]
    b_value = (((p - 1) >> 16) - 1 << 16) | 0xFFFF
    for inner in (PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 1):
        a = np.full((2, inner), p - 1, dtype=np.int64)
        a[:, 0] = p - 2
        b = np.full((inner, 3), b_value, dtype=np.int64)
        assert np.array_equal(matmul_modp(a, b, p), _matmul_oracle(a, b, p))
    # random residues at block edges: rows, columns and inner dimension one
    # short of, at and one past BLOCK_ROWS, CHUNK and PANEL, into out or not
    rng = np.random.default_rng(67)
    shapes = [(rows, 2 * PANEL + 1, 3) for rows in (BLOCK_ROWS - 1, BLOCK_ROWS + 1)]
    shapes += [(3, PANEL + 1, cols) for cols in (CHUNK - 1, CHUNK + 1)]
    shapes += [(5, inner, 7) for inner in (0, 1, PANEL - 1, PANEL + 1, 2 * PANEL + 1)]
    for rows, inner, cols in shapes:
        a = rng.integers(0, p, (rows, inner))
        b = rng.integers(0, p, (inner, cols))
        out = rng.integers(0, p, (rows, cols))
        assert np.array_equal(matmul_modp(a, b, p), _matmul_oracle(a, b, p))
        expected = _matmul_oracle(a, b, p, out)
        matmul_modp(a, b, p, out=out)
        assert np.array_equal(out, expected), (rows, inner, cols)


def test_matmul_modp_takes_int32_residues_and_forms_them_in_int64():
    # int32 and int64 factors and results in any mix, at every edge of a
    # block: each block is summed in int64 and written reduced into out, and
    # a fresh result takes b's dtype; products of p - 1 at p = 2^31 - 1
    # would wrap in int32
    rng = np.random.default_rng(73)
    for fill in ("p-1", "random"):
        for rows, inner, cols in ((BLOCK_ROWS + 1, PANEL + 1, 3), (3, 2 * PANEL + 1, CHUNK + 1)):
            if fill == "p-1":
                a = np.full((rows, inner), P_MAX - 1, dtype=np.int64)
                b = np.full((inner, cols), P_MAX - 1, dtype=np.int64)
                out = np.full((rows, cols), P_MAX - 1, dtype=np.int64)
            else:
                a, b = rng.integers(0, P_MAX, (rows, inner)), rng.integers(0, P_MAX, (inner, cols))
                out = rng.integers(0, P_MAX, (rows, cols))
            product, accumulated = _matmul_oracle(a, b, P_MAX), _matmul_oracle(a, b, P_MAX, out)
            for a_type, b_type in ((np.int32, np.int32), (np.int32, np.int64),
                                   (np.int64, np.int32)):
                got = matmul_modp(a.astype(a_type), b.astype(b_type), P_MAX)
                assert got.dtype == b_type and np.array_equal(got, product)
                into = out.astype(np.int32)
                matmul_modp(a.astype(a_type), b.astype(b_type), P_MAX, out=into)
                assert np.array_equal(into, accumulated)
    with pytest.raises(TypeError, match="int32 or int64"):
        matmul_modp(np.ones((1, 1)), np.ones((1, 1), dtype=np.int32), P)


def test_kernel_modp_int32_matches_int64_near_p():
    # residues within 2^20 of p, some rows dependent on others: the kernel
    # vectors of an int32 copy equal those of the int64 one, array for
    # array, and are int64.  Scaling the pivot rows in place on int32
    # storage would wrap products of up to 2^62 and break the equality.
    rng = np.random.default_rng(101)
    for p in (P, P_MAX):
        a = p - rng.integers(1, 2**20, (70, 300))
        a[50:] = (3 * a[:20] + a[20:40]) % p
        expected = kernel_modp(a, p, _coefficients(p))
        assert len(expected[0]) == 50
        got = kernel_modp(lambda p: a.astype(np.int32), p, _coefficients(p))
        assert got[2].dtype == np.int64
        assert all(np.array_equal(x, y) for x, y in zip(got, expected))
        # and the vectors annihilate a
        assert not np.any(_matmul_oracle(a, got[2], p))


def test_matmul_modp_temporaries_stay_block_sized():
    # beyond its output and the float64 copy of a, a product holds a few
    # BLOCK_ROWS x CHUNK blocks, however large the product is
    rng = np.random.default_rng(71)
    a = rng.integers(0, P, (2048, 200))
    b = rng.integers(0, P, (200, 2048))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = matmul_modp(a, b, P)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    block = BLOCK_ROWS * CHUNK * 8
    assert peak - out.nbytes - a.size * 8 <= 6 * block
    assert np.array_equal(out[:3, :5], _matmul_oracle(a[:3], b[:, :5], P))


def _residue_matrix(seed, rows, cols, rank, p, zero_cols, fill):
    """rows x cols residues of rank at most `rank`: a random product of
    rows x rank and rank x cols factors, some columns zeroed, or every entry
    p - 1 (rank 1).  The "sparse" product has one nonzero per row on the
    left and about 90% zeros on the right, so about 90% of its entries and
    most of the multipliers below each early pivot are zero.  The
    "staircase" is the random product with its rows sorted by leading
    column: each row is zeroed left of a sorted random column and nonzero
    there, so leads spread over all columns, the last panel's included,
    and about one row in nine leads past the last column, a zero row; its
    rank can exceed `rank`."""
    if fill == "p-1":
        return np.full((rows, cols), p - 1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    if fill == "sparse":
        right = rng.integers(1, p, (rank, cols), dtype=np.int64)
        right[rng.random((rank, cols)) < 0.9] = 0
        a = np.zeros((rows, cols), dtype=np.int64)
        if rank:  # row i is a multiple of row k_i of the right factor
            scale = rng.integers(1, p, (rows, 1), dtype=np.int64)
            a = scale * right[rng.integers(0, rank, rows)] % p
    else:
        left = rng.integers(0, min(p, 2**15), (rows, rank), dtype=np.int64)
        right = rng.integers(0, min(p, 2**15), (rank, cols), dtype=np.int64)
        a = np.zeros((rows, cols), dtype=np.int64)
        for k in range(rank):  # rank-one terms, each below 2^30: no int64 overflow
            a = (a + np.outer(left[:, k], right[k])) % p
    a[:, rng.choice(cols, size=min(zero_cols, cols), replace=False)] = 0
    if fill == "staircase":
        leads = np.sort(np.minimum(rng.integers(0, cols + cols // 8 + 2, rows), cols))
        a[np.arange(cols) < leads[:, None]] = 0
        live = np.flatnonzero(leads < cols)
        a[live, leads[live]] = rng.integers(1, p, live.size)
    return a


# column counts on both sides of the recursive panel's base width, of the
# width it starts to halve at, of one and two panel edges, and of a CHUNK
# edge, alone and after a panel, so that a trailing update's product falls
# on each side of it
EDGE_COLS = (1, 2, BASE - 1, BASE, BASE + 1, 2 * BASE - 1, 2 * BASE,
             PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 1,
             CHUNK - 1, CHUNK, CHUNK + 1, PANEL + CHUNK - 1, PANEL + CHUNK, PANEL + CHUNK + 1)
# row counts on both sides of the recursion's row gate
MAX_ROWS = 300
assert RECURSE_ROWS < MAX_ROWS


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.one_of(st.integers(1, RECURSE_ROWS), st.integers(RECURSE_ROWS, MAX_ROWS)),
    cols=st.sampled_from(EDGE_COLS),
    rank=st.integers(0, MAX_ROWS),
    p=st.sampled_from([3, 5, P, P_MAX]),
    zero_cols=st.sampled_from([0, 0, 3, 40]),
    fill=st.sampled_from(["random", "random", "random", "p-1", "sparse", "staircase"]),
    dtype=st.sampled_from([np.int64, np.int32]),
)
# always through the halving panels and their composed inverses, and just
# under the row gate
@example(seed=1, rows=RECURSE_ROWS, cols=2 * PANEL + 1, rank=2 * PANEL + 1, p=P,
         zero_cols=0, fill="random", dtype=np.int64)
@example(seed=2, rows=MAX_ROWS, cols=2 * PANEL + 1, rank=100, p=3, zero_cols=40,
         fill="random", dtype=np.int64)
@example(seed=3, rows=MAX_ROWS, cols=PANEL + 1, rank=1, p=P, zero_cols=0, fill="p-1",
         dtype=np.int64)
@example(seed=4, rows=RECURSE_ROWS - 1, cols=PANEL + 1, rank=PANEL + 1, p=5,
         zero_cols=0, fill="random", dtype=np.int64)
# halving panels whose base columns have mostly zero multipliers (in 59 of
# their 117 column updates fewer than half the multipliers are nonzero)
@example(seed=5, rows=MAX_ROWS, cols=2 * PANEL + 1, rank=200, p=P, zero_cols=3,
         fill="sparse", dtype=np.int64)
# staircases: each panel and half works on the rows that reach it, through
# the halving panels at rank below and above PANEL, and with rows to spare
@example(seed=6, rows=MAX_ROWS, cols=2 * PANEL + 1, rank=200, p=P, zero_cols=3,
         fill="staircase", dtype=np.int64)
@example(seed=7, rows=RECURSE_ROWS + 1, cols=2 * PANEL + 1, rank=3, p=3, zero_cols=40,
         fill="staircase", dtype=np.int64)
@example(seed=8, rows=MAX_ROWS, cols=PANEL + 1, rank=PANEL, p=5, zero_cols=0,
         fill="staircase", dtype=np.int64)
# int32 storage through the halving panels, at the int32 maximum
@example(seed=9, rows=MAX_ROWS, cols=2 * PANEL + 1, rank=200, p=P_MAX, zero_cols=3,
         fill="random", dtype=np.int32)
def test_blocked_engine_matches_unblocked_reference(seed, rows, cols, rank, p, zero_cols, fill,
                                                    dtype):
    _check_blocked_engine(
        _residue_matrix(seed, rows, cols, min(rank, rows, cols), p, zero_cols, fill), p, dtype)


# int32 storage at p = 2^31 - 1, whose residues reach the int32 maximum
# less 1: a trailing update's product on each side of a CHUNK edge, alone
# and after a panel, through the halving panels (a staircase included), and
# every entry p - 1
@pytest.mark.parametrize("cols", [CHUNK - 1, CHUNK, CHUNK + 1,
                                  PANEL + CHUNK - 1, PANEL + CHUNK, PANEL + CHUNK + 1])
@pytest.mark.parametrize("fill, rank", [("random", 2 * PANEL + 3), ("staircase", 200),
                                        ("p-1", 1)])
def test_int32_storage_matches_unblocked_reference(cols, fill, rank):
    _check_blocked_engine(_residue_matrix(cols, MAX_ROWS, cols, rank, P_MAX, 3, fill),
                          P_MAX, np.int32)


def _check_blocked_engine(a, p, dtype):
    """The blocked engine on a's residues stored as dtype against the
    unblocked reference on int64: the echelon form, rank and kernel.  The
    reference eliminates the rows _echelon does: a's, sorted stably by
    leading column when a has 2 BASE columns or more."""
    expected, expected_pivots = echelon_form_modp(a if a.shape[1] < 2 * BASE else staircase(a), p)
    eliminated = a.astype(dtype)
    assert _echelon(eliminated, p) == expected_pivots
    assert eliminated.dtype == dtype
    cols = a.shape[1]
    # entry for entry the unblocked echelon form, except below each pivot,
    # where the blocked engine keeps multipliers and the reference zeros
    multipliers = np.zeros(a.shape, dtype=bool)
    for i, c in enumerate(expected_pivots):
        multipliers[i + 1:, c] = True
    assert np.array_equal(np.where(multipliers, 0, eliminated), expected)
    assert rank_modp(a, p) == len(expected_pivots)
    basis = _assert_kernel_parts(a, p)
    assert basis.shape == (cols - len(expected_pivots), cols)
    if dtype == np.int32:
        stored = kernel_modp(lambda p: a.astype(np.int32), p, _coefficients(p))
        assert all(np.array_equal(x, y)
                   for x, y in zip(stored, kernel_modp(a, p, _coefficients(p))))
    # a few kernel vectors, checked over Z
    for v in basis[:3]:
        assert not np.any((a.astype(object) @ v.astype(object)) % p)


def test_elimination_products_stay_within_the_rows_that_reach_each_panel(monkeypatch):
    # a staircase of 4-row steps 4 columns apart, then PANEL zero rows: the
    # rows from each panel's first pivot row on that are nonzero left of its
    # end are its own PANEL rows, so no product of the elimination, trailing
    # updates and composed inverses included, has more rows than that; over
    # all rows below the pivots the first trailing update alone has 6 PANEL.
    # The same rows shuffled are sorted back into a staircase first
    rng = np.random.default_rng(83)
    steps = 6 * PANEL
    a = np.zeros((steps + PANEL, steps + 5), dtype=np.int64)
    leads = np.arange(steps) // 4 * 4
    a[:steps] = rng.integers(0, P, (steps, a.shape[1]))
    a[:steps][np.arange(a.shape[1]) < leads[:, None]] = 0
    a[np.arange(steps), leads] = rng.integers(1, P, steps)
    product_rows = []
    real = rank_module.matmul_modp
    monkeypatch.setattr(rank_module, "matmul_modp",
                        lambda x, *rest, **kw: product_rows.append(len(x)) or real(x, *rest, **kw))
    for rows in (a, a[rng.permutation(len(a))]):
        expected, expected_pivots = echelon_form_modp(staircase(rows), P)
        product_rows.clear()
        assert _echelon(rows, P) == expected_pivots == list(range(steps))
        assert product_rows and max(product_rows) <= PANEL
        assert np.array_equal(np.triu(rows), expected)


# widths on both sides of 2 BASE, from which _echelon sorts the rows, and
# one past a panel and a CHUNK edge
@pytest.mark.parametrize("cols", [2 * BASE - 1, 2 * BASE, 2 * BASE + 1, PANEL + CHUNK])
def test_row_order_changes_no_rank_or_kernel(cols):
    # rows with distinct leading columns: a shuffle of them gives the same
    # rank, certificate, pivots, free columns and kernel vectors, and is
    # eliminated into the same echelon form, the rows in leading order
    rng = np.random.default_rng(cols)
    rows = min(cols, 200) - 3
    a = rng.integers(0, P, (rows, cols))
    leads = np.sort(rng.choice(cols, rows, replace=False))
    a[np.arange(cols) < leads[:, None]] = 0
    a[np.arange(rows), leads] = rng.integers(1, P, rows)
    shuffled = a[rng.permutation(rows)]
    assert not np.array_equal(shuffled, a)
    assert rank_modp(shuffled, P) == rank_modp(a, P) == rows
    assert rank_consensus(shuffled) == rank_consensus(a)
    for x, y in zip(kernel_modp(shuffled, P, _coefficients(P)), kernel_modp(a, P, _coefficients(P))):
        assert np.array_equal(x, y)
    eliminated = [a.copy(), shuffled]
    assert [_echelon(x, P) for x in eliminated] == [list(leads)] * 2
    assert np.array_equal(eliminated[0], a) and np.array_equal(eliminated[1], a)


def _product_modp(a, b, p):
    """(a @ b) mod p for residues below 2^31 and inner dimension below 2^15,
    by int64 matmuls on 16-bit limbs of b (independent of the engine's
    float64 limb products)."""
    high = (a @ (b >> 16)) % p
    return ((high << 16) + a @ (b & 0xFFFF)) % p


@pytest.mark.parametrize("k", [1, BASE - 1, BASE, BASE + 1, PANEL, 190])
@pytest.mark.parametrize("p", [3, P])
@pytest.mark.parametrize("fill", ["random", "p-1"])
def test_unit_lower_inverse(k, p, fill):
    rng = np.random.default_rng(k)
    if fill == "p-1":
        lower = np.full((k, k), p - 1, dtype=np.int64)
    else:
        lower = rng.integers(0, p, (k, k), dtype=np.int64)
    inverse = _unit_lower_inverse(lower, p)
    # the diagonal and upper part of `lower` are ignored: L is unit lower
    unit_lower = np.tril(lower, -1) + np.eye(k, dtype=np.int64)
    assert np.array_equal(_product_modp(unit_lower, inverse, p), np.eye(k, dtype=np.int64))
    assert np.array_equal(inverse, np.tril(inverse)) and inverse.min() >= 0 and inverse.max() < p


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from momentlab.rank import kernel_basis_modp, rank_modp

p = 2147482951
a = np.random.default_rng(97).integers(0, p, (300, 300), dtype=np.int64)
a[:, 260:] = (3 * a[:, :40] + a[:, 40:80]) % p
basis = kernel_basis_modp(a, p)
print(rank_modp(a, p), basis.shape, hashlib.sha256(basis.tobytes()).hexdigest())
"""


def test_rank_and_kernel_do_not_depend_on_blas_threads():
    # the limb products are exact whatever order or thread split the BLAS
    # sums in, so one and two OpenBLAS threads give the same bytes
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(momentlab.__file__).resolve().parents[1]))
        outputs.append(subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        ).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("260 (40, 300) ")


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


def _assert_kernel_parts(mat, p):
    """kernel_modp's pivots are the unblocked echelon form's, free is their
    complement, and its vectors are the drawn coefficients at the free
    columns and annihilate the matrix, so they are the only such kernel
    vectors.  kernel_basis_modp is the identity at the free columns, and
    the vectors are its rows combined by the coefficients.  Returns the
    basis."""
    a = reduce_modp(mat, p)
    draw = _coefficients(p)
    pivots, free, vectors = kernel_modp(a, p, draw)
    _, expected_pivots = echelon_form_modp(a, p)
    assert list(pivots) == expected_pivots
    assert list(free) == sorted(set(range(a.shape[1])) - set(expected_pivots))
    assert vectors.shape == (a.shape[1], 4) and vectors.dtype == np.int64
    assert np.array_equal(vectors[free], draw(len(free)))
    assert vectors.min(initial=0) >= 0 and vectors.max(initial=0) < p
    assert not np.any(_matmul_oracle(a, vectors, p))
    basis = kernel_basis_modp(mat, p)
    assert basis.shape == (len(free), a.shape[1]) and basis.dtype == np.int64
    assert np.array_equal(basis[:, free], np.eye(len(free), dtype=np.int64))
    assert np.array_equal(matmul_modp(basis.T, draw(len(free)), p), vectors)
    return basis


def test_kernel_basis_is_the_identity_on_its_free_columns():
    # each vector is 1 at its free column and 0 at every other free column
    # (the dense expansion _assert_kernel_parts compares with); zero columns,
    # a zero matrix and a full-rank one are edge cases of the pivot/free split
    rng = np.random.default_rng(5)
    mat = rng.integers(-9, 10, (7, 12))
    mat[:, 3] = mat[:, 1] - mat[:, 0]
    mat[4] = mat[0] + 2 * mat[2]
    full_rank = rng.integers(-9, 10, (4, 6))
    assert rational_rank(full_rank.tolist()) == 4
    for m in (mat, np.zeros((3, 0), dtype=np.int64), np.zeros((3, 4), dtype=np.int64),
              full_rank):
        basis = _assert_kernel_parts(m, P)
        assert not np.any(matmul_modp(reduce_modp(m, P), basis.T, P))


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(73)
    mat = rng.integers(-9, 10, (6, 11)).tolist()
    basis = kernel_basis_modp(mat, P)
    assert basis.shape[0] == 11 - rank_modp(mat, P)
    for v in basis:
        prod = [sum(int(a) * int(x) for a, x in zip(row, v)) % P for row in mat]
        assert all(e == 0 for e in prod)


def test_kernel_modp_holds_two_matrix_sized_arrays():
    # 150 x 20000 residues, 24 MB an array: besides the input the traced
    # peak holds its residue copy, eliminated in place, and the
    # elimination's temporaries, below 1.25 arrays.  U12 is formed CHUNK
    # columns at a time, and so are the products at the free columns, so no
    # 64 x 20000 or 150 x 19850 array is formed as well.  A staircase with
    # its rows shuffled is sorted in place, through one row buffer, so its
    # sort adds no second matrix either
    rng = np.random.default_rng(97)
    mat = rng.integers(0, P, (150, 20000))
    leads = np.sort(rng.choice(20000, 150, replace=False))
    shuffled = np.where(np.arange(20000) < leads[:, None], 0, mat)
    shuffled[np.arange(150), leads] = rng.integers(1, P, 150)
    shuffled = shuffled[rng.permutation(150)]
    for matrix in (mat, shuffled):
        tracemalloc.start()
        try:
            pivots, free, vectors = kernel_modp(matrix, P, _coefficients(P))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(pivots), len(free), vectors.shape) == (150, 19850, (20000, 4))
        assert peak < 1.25 * matrix.nbytes
        # the kernel vectors annihilate the matrix
        assert not np.any(matmul_modp(matrix, vectors, P))


def test_kernel_modp_eliminates_handed_over_residues_in_place():
    # the same 150 x 20000 residues, built by a function for kernel_modp
    # alone: they are eliminated in place, so the traced peak, the residues
    # included, holds them and the elimination's temporaries, below 1.25
    # arrays, where a copy would make two
    mat = np.random.default_rng(97).integers(0, P, (150, 20000))
    expected = kernel_modp(mat, P, _coefficients(P))
    tracemalloc.start()
    try:
        got = kernel_modp(lambda p: np.random.default_rng(97).integers(0, p, (150, 20000)), P,
                          _coefficients(P))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert peak < 1.25 * mat.nbytes


def test_kernel_modp_takes_the_free_columns_a_chunk_at_a_time(monkeypatch):
    # matmul_modp copies its left factor to float64, so the echelon rows at
    # the free columns (30 x 670 here) are never one left factor: each
    # product against the free columns takes at most CHUNK of them, and
    # together they take each free column once
    lefts = []

    def spied(a, b, p, out=None):
        lefts.append((a.shape, b.shape))
        return matmul_modp(a, b, p, out=out)

    monkeypatch.setattr(rank_module, "matmul_modp", spied)
    mat = np.random.default_rng(13).integers(0, P, (30, 700))
    pivots, free, vectors = kernel_modp(mat, P, _coefficients(P, k=3))
    assert (len(pivots), len(free)) == (30, 670)
    # after the elimination, whose products are PANEL columns wide at most,
    # the kernel's products have 30 rows and the 3 coefficient columns: the
    # free columns in runs, then the pivot block's inverse
    kernel = [a for a, b in lefts if a[0] == 30 and b[1] == 3]
    assert kernel[-1] == (30, 30)
    runs = [cols for _, cols in kernel[:-1]]
    assert runs == [min(CHUNK, 670 - start) for start in range(0, 670, CHUNK)]
    assert all(a[1] <= CHUNK for a, _ in lefts)
    assert not np.any(matmul_modp(mat, vectors, P))


def test_consensus_identity():
    eye = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    report = rank_consensus(eye)
    assert report.rank == report.upper == 6
    assert report.certified
    assert report.upper_reason == "dimension count"
    assert [e.engine for e in report.engines] == ["modp"]


def test_certified_full_rank_eliminates_one_prime(monkeypatch):
    calls = 0
    real = _echelon

    def counted_echelon(a, p):
        nonlocal calls
        calls += 1
        return real(a, p)

    monkeypatch.setattr("momentlab.rank._echelon", counted_echelon)
    mat = np.random.default_rng(89).integers(-9, 10, (30, 40))
    report = rank_consensus(mat)
    assert report.certified and report.rank == 30
    assert report.lower_prime == report.engines[0].parameter
    assert calls == 1


def test_consensus_adversarial_first_prime():
    # entries all divisible by the first prime the engine will draw: the
    # rank mod p1 collapses to 0, below the bound, so a second prime is
    # drawn and certifies
    prime_seed = 1729
    (p1,) = draw_primes(prime_seed + 0, 1)
    mat = (p1 * np.eye(4, dtype=object)).tolist()
    report = rank_consensus(mat, prime_seed=prime_seed)
    assert report.rank == 4
    assert report.certified
    assert [e.rank for e in report.engines] == [0, 4]
    (p2,) = draw_primes(prime_seed + 1, 1, (p1,))
    assert report.lower_prime == p2 != p1


def test_consensus_assembles_each_matrix_it_overwrites_afresh():
    # diag(1, p1) has rank 1 mod the first prime drawn, p1, so a second
    # prime runs.  Each prime's residues are eliminated in place, so each
    # prime calls residues(p) for its own; a matrix is reduced into a copy
    # and never overwritten.
    prime_seed = 1729
    (p1,) = draw_primes(prime_seed, 1)
    plain = np.diag([1, p1])
    built = []

    def residues(p):
        built.append((p, reduce_modp(np.diag([1, p1]), p)))
        return built[-1][1]

    report = rank_consensus(residues, prime_seed)
    assert report == rank_consensus(plain, prime_seed)
    assert [e.rank for e in report.engines] == [1, 2]
    assert report.certified
    assert [p for p, _ in built] == [e.parameter for e in report.engines]
    assert np.array_equal(plain, np.diag([1, p1]))
    # the default upper bound is the first residue matrix's min(shape)
    assert rank_consensus(lambda p: np.eye(3, 5, dtype=np.int64)).upper == 3


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
    # rank 7 is below the dimension count 8, so no certificate
    assert [e.rank for e in report.engines] == [7, 7]
    assert not report.certified


def test_consensus_entries_beyond_int64():
    big = [[2**63, 1, 5], [2**64, 2, 10], [3, 2**70 + 1, 0]]
    assert rank_consensus(big).rank == rational_rank(big) == 2
    assert rank_consensus(np.array([[2**63 + 1, 0], [0, 1]], dtype=object)).rank == 2


def test_lists_beyond_int64_are_read_exactly():
    # np.asarray would read this list as float64; it is read as object ints
    assert rank_modp([[2**63 + 1, 0], [0, 1]], P) == 2
    assert reduce_modp([[2**64 + 5, -1]], P).tolist() == [[(2**64 + 5) % P, P - 1]]


@pytest.mark.parametrize("matrix, shape", [
    ([1, 2, 3], "(3,)"),
    (np.ones((2, 2, 2), dtype=np.int64), "(2, 2, 2)"),
    ([[1, 2], [3]], "(2,)"),
])
def test_a_matrix_that_is_not_2d_is_refused_by_its_shape(matrix, shape):
    for read in (lambda: reduce_modp(matrix, P), lambda: rank_modp(matrix, P),
                 lambda: rank_consensus(matrix),
                 lambda: kernel_basis_modp(matrix, P)):
        with pytest.raises(ValueError, match=f"2-D, got shape {re.escape(shape)}"):
            read()
    # an empty input still reads as the 0 x 0 matrix, a 2-D one keeps its shape
    for empty in ([], [[[]]], np.zeros((0, 3, 2), dtype=np.int64)):
        assert reduce_modp(empty, P).shape == (0, 0)
        assert rank_consensus(empty).rank == 0
    assert reduce_modp(np.zeros((0, 3), dtype=np.int64), P).shape == (0, 3)


def test_reduce_modp_casts_int_objects_and_keeps_the_rest_exact():
    # ints, Fractions and ints past int64 reduce in one pass to int64 residues
    ints = np.array([[3, -4], [5, 2**62]], dtype=object)
    assert reduce_modp(ints, P).tolist() == [[3, P - 4], [5, 2**62 % P]]
    assert reduce_modp(ints, P).dtype == np.int64
    mixed = [[Fraction(1, 2), 1], [2**63, Fraction(-3)]]
    assert reduce_modp(mixed, P).tolist() == [[1, 2], [2**63 % P, P - 3]]
    with pytest.raises(TypeError):
        reduce_modp([[1.5, 2]], P)


def test_consensus_rank_deficient_is_not_certified():
    mat = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 5]])
    report = rank_consensus(mat)
    assert (report.rank, report.upper, report.upper_reason) == (2, 3, "dimension count")
    assert not report.certified
    assert [e.engine for e in report.engines] == ["modp", "modp"]
    assert dataclasses.asdict(report)["certified"] is False


def test_consensus_upper_bound_is_respected():
    mat = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 5]])
    report = rank_consensus(mat, upper=2, upper_reason="known kernel")
    assert report.certified and len(report.engines) == 1
    assert dataclasses.asdict(report)["upper_reason"] == "known kernel"
    with pytest.raises(ValueError, match="upper bound"):
        rank_consensus(np.eye(3, dtype=np.int64), upper=2)

