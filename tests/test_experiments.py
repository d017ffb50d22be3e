"""Experiments: secant records, Koszul defects, splitting, contact locus, CSV."""

import dataclasses
import tracemalloc
from itertools import islice
from math import comb

import numpy as np
import pytest

from momentlab import experiments
from momentlab.bounds import dim_forms, dim_gm
from momentlab.cli import DEFAULT_MEMORY_BUDGET_MB
from momentlab.experiments import (
    CSV_HEADER,
    KOSZUL_VECTORS,
    ORBIT_CANDIDATES,
    _assembler,
    _koszul_annihilates,
    _koszul_bound,
    contact_kernel,
    koszul_defect_check,
    max_rank_m,
    max_rank_scan,
    points_per_group,
    secant_dimension,
    secant_memory_mb,
    split_skewness,
)
from momentlab.moments import (
    GaussianParams,
    moment_form,
    moment_forms,
    stacked_moment_forms,
)
from momentlab.poly import monomials, quadratic_pairs
from momentlab.rank import (
    BASE,
    DEFAULT_PRIME_SEED,
    DIMENSION_COUNT,
    PANEL,
    _reach,
    draw_primes,
    matmul_modp,
    prime_pool,
    rank_modp,
    reduce_modp,
)
from momentlab.tangent import (
    differential_weights,
    generator_families,
    generator_matrix,
    sample_arrays,
    sample_params,
    sample_split_arrays,
    secant_matrix,
)

import oracles
from oracles import (
    _annihilates,
    contact_kernel_dense,
    echelon_form_modp,
    koszul_kernel_vectors,
    leading_columns,
    staircase,
)


def test_secant_dimension_record_fields():
    rec = secant_dimension(3, 6, 3)
    assert (rec.secant_dimension, rec.expected_dimension, rec.defect) == (27, 27, 0)
    assert rec.engine_report.certified
    assert rec.n == 3 and rec.d == 6 and rec.m == 3


def test_secant_dimension_deterministic():
    a = secant_dimension(4, 5, 3, seed=9)
    b = secant_dimension(4, 5, 3, seed=9)
    assert a == b


def test_secant_dimension_validation():
    with pytest.raises(ValueError):
        secant_dimension(3, 3, 1)


def test_max_rank_m_values():
    assert max_rank_m(20, 5) == 184
    assert max_rank_m(19, 6) == 644
    assert max_rank_m(4, 6) == 6


def test_max_rank_scan_single_n():
    (rec,) = max_rank_scan([4], 6)
    assert rec.m == 6
    assert rec.expected_dimension == 84  # fills exactly: C(9,6)
    assert rec.defect == 0


# ---------------------------------------------------------------------------
# Degree-4 Koszul defect


def _exact_forms(mean, sigma, d):
    # the exact forms {k: s_k}, k = d-2 and d-1, of the points with means
    # `mean` and Sigma upper triangles `sigma`, from one recurrence
    forms = stacked_moment_forms(mean, sigma, d - 1)
    return {k: forms[k] for k in (d - 2, d - 1)}


def test_koszul_kernel_vector_membership_m2():
    # the pairwise vector is in the left kernel for any n >= 2: exact identity
    for n in (2, 3, 4):
        params = sample_params(5 + n, n, 2)
        matrix = secant_matrix(params, 4).matrix()
        vectors = koszul_kernel_vectors(_exact_forms(*sample_arrays(5 + n, n, 2), 4)[2], n)
        assert len(vectors) == 1
        acc = [0] * len(matrix[0])
        for coeff, row in zip(vectors[0], matrix):
            if coeff:
                acc = [a + coeff * x for a, x in zip(acc, row)]
        assert all(a == 0 for a in acc)


def test_koszul_defect_values():
    rep = koszul_defect_check(4, 2)
    assert rep.defect == 1 and rep.matches_choose2 and rep.koszul_vectors_in_kernel
    rep = koszul_defect_check(5, 3)
    assert rep.defect == 3 == comb(3, 2)
    assert rep.matches_choose2


def test_koszul_check_assembles_each_tangent_block_once(monkeypatch):
    # each point's forms are computed once by the Koszul bound, mod the
    # first prime to degree 2, and once by that prime's residues, to degree
    # d-1, in one stacked recurrence per group of points: the orbit path's
    # for its t = m/r representatives (r=3 at n=6, m=3), the direct path's
    # for every point
    calls = []
    real = experiments.stacked_moment_forms

    def spied(mean, sigma, d, p=None):
        calls.append((mean.copy(), sigma.copy(), d, p))
        return real(mean, sigma, d, p)

    def points(params):
        # each point's mean and Sigma upper triangle, read from its GaussianParams
        return [point.mean for point in params], [point.quad for point in params]

    monkeypatch.setattr(experiments, "stacked_moment_forms", spied)
    for weights, t in ((experiments.orbit_weights, 1), (lambda n, d, m, upper: None, 3)):
        monkeypatch.setattr(experiments, "orbit_weights", weights)
        calls.clear()
        rep = koszul_defect_check(6, 3)
        assert rep.matches_choose2 and rep.koszul_vectors_in_kernel
        assert (rep.record.orbit is None) == (t == 3)
        prime = rep.record.engine_report.lower_prime
        assert [call[2:] for call in calls] == [(2, prime), (3, prime)]
        for call, size in zip(calls, (3, t)):
            for got, want in zip(call, points(sample_params(42, 6, 3))):
                assert np.array_equal(got, want[:size])
    # a direct record past the column count is certified at it by its first
    # prime, whose recurrence runs over the 30 points in groups of
    # points_per_group
    calls.clear()
    assert not split_skewness(2, 2, 30, d=6)
    group = points_per_group(4, 6)
    assert 1 < group < 30
    assert [len(mean) for mean, *_ in calls] == [group] * (30 // group) + [30 % group]
    assert {call[2:] for call in calls} == {(5, draw_primes(DEFAULT_PRIME_SEED, 1)[0])}
    mean, sigma = sample_split_arrays(42, 2, 2, 30)
    for got, want in zip(zip(*calls), (mean, sigma)):
        assert np.array_equal(np.concatenate(got), want)


def test_assembler_writes_each_group_before_the_next_groups_forms(monkeypatch):
    # split (2,2), d=6, m=30 runs in groups of points_per_group points: each
    # group's forms mod p are computed and its blocks written into its rows
    # of the residue matrix before the next group's forms
    calls = []
    forms, blocks = experiments.stacked_moment_forms, experiments.generator_matrix
    monkeypatch.setattr(experiments, "stacked_moment_forms", lambda mean, *rest: (
        calls.append(("forms", len(mean))) or forms(mean, *rest)))
    monkeypatch.setattr(experiments, "generator_matrix", lambda f, n, d, out: (
        calls.append(("blocks", len(out))) or blocks(f, n, d, out=out)))
    mean, sigma = sample_split_arrays(42, 2, 2, 30)
    group = points_per_group(4, 6)
    sizes = [group] * (30 // group) + [30 % group]
    assert len(sizes) == 2 and sizes[-1] > 0
    (p,) = draw_primes(DEFAULT_PRIME_SEED, 1)
    _assembler(mean, sigma, 6)(p)
    assert calls == [(kind, size) for size in sizes for kind in ("forms", "blocks")]


def test_koszul_check_certifies_with_one_elimination(monkeypatch):
    import momentlab.rank as rank

    shapes = []
    for name in ("_echelon", "_stacked_ranks"):
        real = getattr(rank, name)
        monkeypatch.setattr(rank, name, lambda a, p, name=name, real=real: (
            shapes.append((name, a.shape)) or real(a, p)))
    # S2, the 3 points' s2 = l^2 + q, is ranked once; then the orbit path
    # ranks the 3 classes of one representative's 27 x 126 block in one
    # stack, and the direct path the 81-row secant residues once
    for weights, ranked in ((experiments.orbit_weights, ("_stacked_ranks", (3, 27, 42))),
                            (lambda n, d, m, upper: None, ("_echelon", (81, 126)))):
        monkeypatch.setattr(experiments, "orbit_weights", weights)
        shapes.clear()
        rep = koszul_defect_check(6, 3)
        assert rep.matches_choose2 and rep.koszul_vectors_in_kernel
        report = rep.record.engine_report
        assert report.certified and report.upper_reason == "koszul vectors"
        assert (report.upper, rep.defect) == (3 * 27 - 3, 3)
        assert shapes == [("_echelon", (3, 21)), ranked]


def test_koszul_slices_of_86_columns_take_one_stack(monkeypatch):
    # n=8, m=4: the 4 classes of one representative's 44-row block are
    # 80 to 86 columns wide, wider than PANEL but with fewer than 2 PANEL
    # rows, so they are ranked in one stack, and _echelon ranks S2 alone
    import momentlab.rank as rank

    shapes = []
    for name in ("_echelon", "_stacked_ranks"):
        real = getattr(rank, name)
        monkeypatch.setattr(rank, name, lambda a, p, name=name, real=real: (
            shapes.append((name, a.shape)) or real(a, p)))
    rep = koszul_defect_check(8, 4)
    assert rep.record.engine_report.certified and rep.record.orbit is not None
    assert shapes[0] == ("_echelon", (4, 36)) and len(shapes) == 2
    name, (k, rows, widest) = shapes[1]
    assert (name, k, rows) == ("_stacked_ranks", 4, 44) and PANEL < 80 <= widest < 2 * PANEL


def test_koszul_vectors_and_exact_forms_are_released_before_the_first_prime(monkeypatch):
    # d=4, n=12: V is 105 x 1350 int64 (1.1 MB).  When the first prime's
    # residues are built, of the 15 points' whole matrix or of the orbit
    # path's one representative, the Koszul bound's forms mod p are gone,
    # and V was never formed
    n = 12
    m = max_rank_m(n, 4)
    vector_bytes = comb(m, 2) * m * dim_gm(n) * 8
    at_entry = []
    real = experiments._assembler

    def spied(*args, **kwargs):
        at_entry.append(tracemalloc.get_traced_memory()[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "_assembler", spied)
    for weights, sliced in ((experiments.orbit_weights, True),
                            (lambda n, d, m, upper: None, False)):
        monkeypatch.setattr(experiments, "orbit_weights", weights)
        secant_dimension(n, 4, m, seed=1)
        tracemalloc.start()
        try:
            record = secant_dimension(n, 4, m)
        finally:
            tracemalloc.stop()
        assert record.engine_report.upper_reason == KOSZUL_VECTORS
        assert (record.orbit is not None) == sliced
        assert at_entry[-1] < vector_bytes / 10


def test_certificates_never_ask_for_the_forms_dtype(monkeypatch):
    # the secant, Koszul, split and contact certificates run the recurrence
    # mod p alone: every call names a prime, and the dtype of exact forms is
    # never asked for
    import momentlab.moments as moments

    def refuse(*args):
        raise AssertionError("forms_dtype called")

    primes = []
    real = experiments.stacked_moment_forms
    monkeypatch.setattr(experiments, "stacked_moment_forms", lambda mean, sigma, d, p=None: (
        primes.append(p) or real(mean, sigma, d, p)))
    monkeypatch.setattr(moments, "forms_dtype", refuse)
    assert secant_dimension(3, 5, 2).engine_report.certified
    assert secant_dimension(3, 24, 4).engine_report.certified
    assert split_skewness(2, 2, 2, d=6)
    assert contact_kernel(3, 6) == 1
    record = secant_dimension(3, 4, 1)
    assert record.engine_report.certified and record.engine_report.upper_reason == KOSZUL_VECTORS
    assert primes and None not in primes


def _stacked(*points):
    # stacked tangent forms {2: s_2, 3: s_3} at n = 1 from each point's (s_2, s_3)
    return {k: np.array([[point[k - 2]] for point in points]) for k in (2, 3)}


def test_koszul_product_refuses_sums_past_int64():
    # n = 1, d = 4: a point's generator rows are s_3 X and s_2 X^2, one
    # column each.  The product runs in int64 only while max|V| times the
    # inner dimension times max|s_k| stays below 2^63, here max|V| below
    # 2^22: 2^40 * 2^40 would wrap to 0
    big, point = (1, 2**40), (-3, 1)
    for entry in (2**22, 2**40):
        with pytest.raises(OverflowError, match="2\\^63"):
            _annihilates(np.array([[entry, 0]]), _stacked(big), 1, 4)
    assert not _annihilates(np.array([[2**22 - 1, 0]]), _stacked(big), 1, 4)
    with pytest.raises(OverflowError, match="int64"):
        _annihilates(np.array([[3, 1]], dtype=object), _stacked(point), 1, 4)
    assert _annihilates(np.array([[3, 1]]), _stacked(point), 1, 4)
    # the product is summed over the points' blocks
    assert _annihilates(np.array([[3, 0, 0, 1]]), _stacked(point, point), 1, 4)
    assert not _annihilates(np.array([[3, 0, 0, 1]]), _stacked(point, big), 1, 4)


def test_koszul_vectors_take_the_dtype_of_the_forms():
    forms = _exact_forms(*sample_arrays(3, 4, 3), 4)
    vectors = koszul_kernel_vectors(forms[2], 4)
    assert vectors.dtype == forms[3].dtype == np.int64
    assert _annihilates(vectors, forms, 4, 4)
    # a point beyond int64 turns the whole stack to exact Python ints, which
    # the int64 Koszul product refuses; with n = 2 each block has 5 entries,
    # the last 3 pairing the quadratic rows
    (small,) = sample_params(3, 2, 1)
    big = GaussianParams.make([2**40, 1], [3, 2**40, 5])
    mean = np.array([small.mean, big.mean], dtype=object)
    sigma = np.array([small.quad, big.quad], dtype=object)
    forms = _exact_forms(mean, sigma, 4)
    vectors = koszul_kernel_vectors(forms[2], 2)
    assert vectors.dtype == forms[3].dtype == object
    assert vectors.tolist() == [[0, 0, *moment_form(big, 2).coeffs,
                                 0, 0, *(-c for c in moment_form(small, 2).coeffs)]]
    with pytest.raises(OverflowError, match="int64"):
        _annihilates(vectors, forms, 2, 4)


def _assert_rank_sorts(matrix):
    # rank._reach sorts a matrix of 2 BASE columns or more stably by leading
    # column, in place, into a staircase, and leaves a narrower one as it is
    sorted_rows = matrix.copy()
    _reach(sorted_rows)
    if matrix.shape[1] < 2 * BASE:
        assert np.array_equal(sorted_rows, matrix)
    else:
        assert np.array_equal(sorted_rows, staircase(matrix))
        assert np.all(np.diff(leading_columns(sorted_rows)) >= 0)


def _check_residue_layout(mean, sigma, d):
    # every prime's residues are int32 and the reduced secant matrix, each
    # point's generator_matrix in sample order, built from that prime's
    # residue forms, which are the exact forms reduced; rank sorts them
    forms = _exact_forms(mean, sigma, d)
    params = [GaussianParams.make(a.tolist(), s.tolist()) for a, s in zip(mean, sigma)]
    exact = secant_matrix(params, d).matrix()
    residues = _assembler(mean, sigma, d)
    for p in draw_primes(DEFAULT_PRIME_SEED, 2):
        reduced = stacked_moment_forms(mean, sigma, d - 1, p)
        for k in (d - 2, d - 1):
            assert reduced[k].dtype == np.int64
            assert np.array_equal(reduced[k], reduce_modp(forms[k], p))
        matrix = residues(p)
        assert matrix.dtype == np.int32  # every residue is below p < 2^31
        assert np.array_equal(matrix, reduce_modp(exact, p))
        _assert_rank_sorts(matrix)
    return forms, matrix, p


@pytest.mark.parametrize("n, d", [(3, 5), (5, 5), (4, 6), (6, 6)])
def test_secant_layout_is_a_staircase(n, d):
    # seed 42 draws l_1 = 0, where s_5 has no X_1^5 term, at two of the 17
    # points of d=6, n=6; d=5, n=3 has 21 columns, which rank leaves unsorted
    mean, sigma = sample_arrays(42, n, max_rank_m(n, d))
    _check_residue_layout(mean, sigma, d)
    if (n, d) == (6, 6):
        assert np.count_nonzero(mean[:, 0] == 0) == 2


@pytest.mark.parametrize("arrays, d", [
    (sample_arrays(42, 5, 3), 4),
    (sample_arrays(42, 3, max_rank_m(3, 24)), 24),             # exact forms are objects
    (sample_split_arrays(42, 3, 3, 2), 6),                     # l_1 = 0 everywhere
    (sample_split_arrays(7, 2, 2, 5), 7),
    (sample_arrays(42, 6, 30), 6),                             # three groups
], ids=["d4", "d24-object", "split-d6", "split-d7", "d6-groups"])
def test_residue_assembly_matches_the_reduced_secant_matrix(arrays, d):
    if d == 24:
        assert _exact_forms(*arrays, d)[23].dtype == object
    if d == 6 and arrays[0].shape[1] == 6:
        assert 2 * points_per_group(6, 6) < 30
    _check_residue_layout(*arrays, d)


def test_koszul_vectors_annihilate_the_residues():
    # the Koszul vectors and the residues are both in sample order: the
    # vectors annihilate the residues mod p, and over Z they annihilate the
    # sum of the points' blocks, where one doctored entry is caught
    for n, m in ((4, 3), (6, 5)):
        forms, matrix, p = _check_residue_layout(*sample_arrays(7, n, m), 4)
        vectors = koszul_kernel_vectors(forms[2], n)
        assert not np.any(matmul_modp(reduce_modp(vectors, p), matrix, p))
        assert _annihilates(vectors, forms, n, 4)
        doctored = vectors.copy()
        doctored[-1, n] += 1
        assert not _annihilates(doctored, forms, n, 4)
        assert np.any(matmul_modp(reduce_modp(doctored, p), matrix, p))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_koszul_rank_is_read_off_the_second_order_forms(n):
    # over every field rank V = C(m, 2) - C(m - rank S2, 2): a kernel vector
    # of V's rows is an antisymmetric coefficient matrix whose rows are
    # relations of the s2, so the kernel is the wedge square of the
    # relations.  m = 25 passes n(n+1)/2 at every n here, and a last point
    # that repeats the first makes two rows of S2 equal.  The primes: the
    # pool's first, the certificates' first and three small ones
    primes = (prime_pool()[0], draw_primes(DEFAULT_PRIME_SEED, 1)[0], 3, 5, 7)
    for m in (1, 2, 3, 5, 8, 12, 25):
        mean, sigma = sample_arrays(n, n, m)
        samples = [(mean, sigma)]
        if m > 1:
            samples.append((np.concatenate([mean[:-1], mean[:1]]),
                            np.concatenate([sigma[:-1], sigma[:1]])))
        for arrays in samples:
            second_order = _exact_forms(*arrays, 4)[2]
            vectors = koszul_kernel_vectors(second_order, n)
            for p in primes:
                expected = comb(m, 2) - comb(m - rank_modp(second_order, p), 2)
                assert rank_modp(vectors, p) == expected, (n, m, p)


@pytest.mark.parametrize("n, m, upper, reason", [
    (4, 2, 27, KOSZUL_VECTORS),     # below the column count: rows - rank V
    (9, 10, 495, KOSZUL_VECTORS),   # 540 - 45 ties the 495 columns
    (3, 4, 15, DIMENSION_COUNT),    # 36 - 6 = 30 is past the 15 columns
])
def test_koszul_bound_names_the_smaller_bound(n, m, upper, reason):
    mean, sigma = sample_arrays(42, n, m)
    expected = min(m * dim_gm(n), dim_forms(n, 4))
    assert _koszul_bound(mean, sigma, expected, DEFAULT_PRIME_SEED) == (upper, reason)


@pytest.mark.parametrize("n", range(2, 9))
def test_koszul_check_agrees_with_the_dense_product(n, monkeypatch):
    # the shift table's symmetry and the oracle's V M == 0 over Z at sampled
    # points both hold, and both fail once two entries of one row of the
    # quadratic shift table are swapped: M's quadratic rows are then no
    # longer s2 shifted by a monomial
    forms = _exact_forms(*sample_arrays(n, n, 4), 4)
    vectors = koszul_kernel_vectors(forms[2], n)
    assert _koszul_annihilates(n)
    assert _annihilates(vectors, forms, n, 4)
    linear, (k, table, rows) = generator_families(n, 4)
    swapped = table.copy()
    swapped[n, [0, -1]] = table[n, [-1, 0]]
    families = {(n, 4): (linear, (k, swapped, rows))}
    monkeypatch.setattr(experiments, "generator_families", lambda *key: families[key])
    monkeypatch.setattr(oracles, "generator_families", lambda *key: families[key])
    assert not _koszul_annihilates(n)
    assert not _annihilates(vectors, forms, n, 4)


def test_koszul_identity_holds_at_every_n_the_budget_admits():
    # the quadratic shift table is symmetric, X^g X^h = X^h X^g, up to n=48,
    # the largest n the default budget admits at degree 4 (m=1)
    assert secant_memory_mb(48, 4, 1) <= DEFAULT_MEMORY_BUDGET_MB < secant_memory_mb(49, 4, 1)
    assert all(_koszul_annihilates(n) for n in range(1, 49))


def test_koszul_check_holds_a_fraction_of_the_secant_matrix():
    # d=4, n=16 at the table rank: the int32 secant matrix of the 25 points
    # is 3800 x 3876 (58.9 MB); the bound holds the points' forms mod p to
    # degree 2 and their 25 x 136 x 136 int64 shift tensor (3.7 MB)
    n, m = 16, 25
    assert m == max_rank_m(n, 4)
    mean, sigma = sample_arrays(42, n, m)
    expected = m * dim_gm(n)
    _koszul_bound(mean, sigma, expected, DEFAULT_PRIME_SEED)  # fills the index caches
    tracemalloc.start()
    try:
        bound = _koszul_bound(mean, sigma, expected, DEFAULT_PRIME_SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bound == (expected - comb(m, 2), KOSZUL_VECTORS)
    assert peak < 0.25 * 4 * m * dim_gm(n) * dim_forms(n, 4)


def test_koszul_check_past_the_column_count_stays_within_the_estimate():
    # d=4, n=6, m=200: 19900 pairs of 5400 rows, and a 5400 x 126 secant
    # matrix; the bound's 200 x 21 S2 is read from the recurrence mod p
    # before the matrix is built.  The Koszul bound, 5400 - (19900 - C(200
    # - 21, 2)) = 1431, is above the 126 columns, so the record names the
    # dimension count
    secant_dimension(6, 4, 2, seed=1)
    tracemalloc.start()
    try:
        record = secant_dimension(6, 4, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.engine_report.upper_reason == DIMENSION_COUNT
    assert record.engine_report.upper == 126
    assert record.engine_report.certified and record.secant_dimension == dim_forms(6, 4)
    assert peak <= secant_memory_mb(6, 4, 200) * 1e6


@pytest.mark.parametrize("mean, quad", [
    ([3, -2, 1], [2, 1, 4, 0, 1, 5]),     # X_1^k leads s_k
    ([0, -2, 1], [2, 1, 4, 0, 1, 5]),     # l_1 = 0: s_5 and s_3 lose X_1^k
    ([3, 0, 2], [-3, 0, 0, 3, 0, 1]),     # l_1^2 + 3 Sigma_11 = 0: s_3 loses X_1^3
    ([0, 0, 4], [0, 0, 0, 0, 0, 2]),      # only X_3 appears
    ([0, 0, 0], [0, 0, 0, 0, 0, 0]),      # every form of degree >= 1 is zero
])
@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_form_leads_match_the_moment_forms(mean, quad, d):
    # rank reads each row's lead from the residues: the point's rows, alone
    # and among generic points, are the moment forms' generator rows, and
    # rank sorts them into a staircase at d=7 (36 columns) and leaves the
    # narrower ones at d <= 6 as they are
    rows = generator_matrix(moment_forms(GaussianParams.make(mean, quad), d - 1), 3, d)
    _assert_rank_sorts(reduce_modp(rows, draw_primes(DEFAULT_PRIME_SEED, 1)[0]))
    generic_mean, generic_sigma = sample_arrays(5, 3, 2)
    _check_residue_layout(np.concatenate([[mean], generic_mean]),
                          np.concatenate([[quad], generic_sigma]), d)


@pytest.mark.slow
def test_secant_scan_d6_n8_certifies_1716(monkeypatch):
    # a 1716 x 1716 exact matrix: the blocked elimination at a size where the
    # trailing update dominates (about 1.2 s per prime on a 2-core host).
    # With its orbit weights the same record comes from 13 slices of 132 x 132
    for weights, sliced in ((experiments.orbit_weights, True),
                            (lambda n, d, m, upper: None, False)):
        monkeypatch.setattr(experiments, "orbit_weights", weights)
        rec = max_rank_scan([8], 6)[0]
        assert (rec.m, rec.secant_dimension, rec.defect) == (39, 1716, 0)
        assert rec.engine_report.certified and (rec.orbit is not None) == sliced


def test_koszul_filling_regime_rejected():
    # n=3: dim forms = 15, dim gm = 9, m=2 stacks 18 > 15
    with pytest.raises(ValueError):
        koszul_defect_check(3, 2)


# ---------------------------------------------------------------------------
# Variable splitting


def test_split_skewness_within_bounds():
    assert split_skewness(3, 3, 2, d=6)
    # single point: a full-dimensional tangent space of 14 = 4*7/2 rows
    assert split_skewness(2, 2, 1, d=6)


def test_split_skewness_overloaded_rank_fails():
    # m far above the parameter count: rows exceed columns, cannot be full
    assert not split_skewness(2, 2, 30, d=6)


def test_split_skewness_validation():
    with pytest.raises(ValueError):
        split_skewness(3, 3, 2, d=5)


# ---------------------------------------------------------------------------
# Contact locus


def test_contact_kernel_examples():
    assert contact_kernel(2, 6, trials=2) == 1
    assert contact_kernel(3, 6, trials=1) == 1


def test_contact_kernel_low_degree_gate():
    for d in (2, 3, 4):
        with pytest.raises(ValueError, match="d >= 5"):
            contact_kernel(2, d)


def test_contact_kernel_validation():
    with pytest.raises(ValueError):
        contact_kernel(1, 6)


@pytest.mark.parametrize("d, n", [(d, n) for d in (5, 6, 7, 8) for n in (2, 3, 4, 5)] + [(6, 6)])
def test_contact_kernel_matches_dense_oracle(n, d):
    for seed in (1, 42, 777):
        assert contact_kernel(n, d, 3, seed) == contact_kernel_dense(n, d, 3, seed)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_contact_kernel_low_degree_matches_dense_oracle(n):
    # at d=4, which contact_kernel refuses, every kernel is above 1 (5 at
    # n=2, where the tangent block is square, 2 from n=3): no sample meets
    # the gauge bound, and over the oracle's 3 trials the square sketch
    # alone gives the dense oracle's dimension
    for seed in (1, 42):
        dim = min(experiments._contact_kernel_once(n, 4, seed + t, DEFAULT_PRIME_SEED + t)
                  for t in range(3))
        assert dim == contact_kernel_dense(n, 4, 3, seed) > 1


def test_contact_kernel_stops_at_the_first_trial_of_dimension_1(monkeypatch):
    calls = []
    once = experiments._contact_kernel_once

    def counted(*args):
        calls.append(once(*args))
        return calls[-1]

    monkeypatch.setattr(experiments, "_contact_kernel_once", counted)
    assert contact_kernel(3, 6, trials=3) == 1
    assert calls == [1]
    # no trial of dimension 1: every trial runs
    calls.clear()
    monkeypatch.setattr(experiments, "_contact_kernel_once",
                        lambda *args: calls.append(args) or 2)
    assert contact_kernel(3, 6, trials=3, seed=5, prime_seed=9) == 2
    assert calls == [(3, 6, 5 + t, 9 + t) for t in range(3)]


def _spy_rank_modp(monkeypatch) -> list[np.ndarray]:
    matrices = []

    def spied(matrix, p):
        matrices.append(matrix)
        return rank_modp(matrix, p)

    monkeypatch.setattr(experiments, "rank_modp", spied)
    return matrices


@pytest.mark.parametrize("n, d", [(3, 7), (4, 6)])
def test_contact_sketch_is_weighted_after_the_product(monkeypatch, n, d):
    # the sketch A ranked at a point, its generator products scaled by the
    # weights after the product mod p, is the sketch rows times the weighted
    # generator rows D_e G_e, formed exactly from the point's exact forms
    matrices = _spy_rank_modp(monkeypatch)
    kernels = []
    kernel = experiments.kernel_modp
    monkeypatch.setattr(experiments, "kernel_modp",
                        lambda *args: kernels.append(kernel(*args)) or kernels[-1])
    assert experiments._contact_kernel_once(n, d, 42, DEFAULT_PRIME_SEED) == 1
    (p,) = draw_primes(DEFAULT_PRIME_SEED, 1)
    ((_, _, sketch),) = kernels
    mean, sigma = sample_arrays(42, n, 1)
    forms = [f[0].astype(object) for f in stacked_moment_forms(mean, sigma, d - 1)]
    expected = np.concatenate([
        sketch[table, 0].astype(object)
        @ (differential_weights(n, e)[:, None] * generator_matrix(forms, n, e)).T % p
        for e, table, _ in generator_families(n, d)])
    assert [m.tolist() for m in matrices] == [expected.tolist()]


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_certified_contact_point_eliminates_one_square_sketch(monkeypatch, d):
    # one random annihilator combination gives a dim_gm x dim_gm matrix
    # that meets the gauge bound at every point: no row of dg is eliminated
    matrices = _spy_rank_modp(monkeypatch)
    for n in (2, 3, 4, 5):
        for seed in (1, 42, 777):
            matrices.clear()
            assert contact_kernel(n, d, trials=1, seed=seed) == 1
            assert [m.shape for m in matrices] == [(dim_gm(n), dim_gm(n))], (n, seed)


@pytest.mark.parametrize("n", [3, 4])
def test_contact_point_with_a_zero_sketch_gives_every_direction(monkeypatch, n):
    # a zero combination gives a zero sketch: each trial's point gives
    # dim_gm - rank 0, an inconclusive bound, from the one square matrix it
    # ranks, and nothing else is eliminated
    monkeypatch.setattr(experiments, "_annihilator_draw",
                        lambda nullity, p, seed: np.zeros(nullity, dtype=np.int64))
    matrices = _spy_rank_modp(monkeypatch)
    for seed in (1, 42, 777):
        matrices.clear()
        assert contact_kernel(n, 6, 3, seed) == dim_gm(n)
        assert [m.shape for m in matrices] == [(dim_gm(n), dim_gm(n))] * 3
        assert not any(m.any() for m in matrices)


# ---------------------------------------------------------------------------
# End-to-end certification


def test_identifiability_certificate_pipeline():
    # the two experimental inputs of the sufficient-condition report come
    # from the contact check and from nondefectivity one rank higher
    from momentlab.bounds import mm_condition_report

    n, d, m = 3, 6, 2
    not_1twd = contact_kernel(n, d, trials=2) == 1
    next_rank = secant_dimension(n, d, m + 1)
    report = mm_condition_report(n, d, m, next_rank.defect == 0, not_1twd)
    assert report.identifiable
    assert not report.reasons


# ---------------------------------------------------------------------------
# Orbit certificates


def _root_of_unity(r: int, lowest: int) -> tuple[int, int]:
    """(p, zeta): the least prime p = 1 mod r from `lowest` on, and an
    element of F_p of multiplicative order r."""
    p = lowest + (1 - lowest) % r
    while any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        p += r
    for g in range(2, p):
        zeta = pow(g, (p - 1) // r, p)
        if min(k for k in range(1, r + 1) if pow(zeta, k, p) == 1) == r:
            return p, zeta
    raise AssertionError("F_p* is cyclic")


@pytest.mark.parametrize("n, d, r, t, weights", [
    (2, 5, 3, 1, (0, 1)),
    (3, 5, 2, 1, (0, 1, 0)),
    (3, 6, 3, 1, (1, 2, 0)),
    (3, 6, 4, 2, (0, 1, 3)),         # 8 points fill the 28 columns
    (4, 4, 2, 1, (0, 1, 0, 1)),      # degree 4: the Koszul defect 1
    (4, 5, 5, 1, (3, 0, 4, 1)),
    (4, 6, 2, 3, (0, 0, 0, 0)),      # one class: the orbit repeats each point
    (4, 6, 6, 1, (0, 1, 2, 3)),
    # degree 4 at a filling m: 4 points, 36 rows, 15 columns
    pytest.param(3, 4, 4, 1, (0, 1, 2), id="filling-3-4-4-1"),
    # a split sample, (n1, n2) = (3, 2): q in the first 3 variables, l in
    # the last 2
    pytest.param((3, 2), 6, 5, 1, (0, 1, 2, 3, 4), id="split-3-2-6-5-1"),
])
def test_orbit_slice_sum_is_the_rank_of_the_orbit_points(n, d, r, t, weights):
    # over F_p with p = 1 mod r, zeta a primitive r-th root of unity: the r t
    # points D^k x_i, D = diag(zeta^{w_j}), have mean zeta^{k w_j} l_j and
    # Sigma entries zeta^{k (w_j + w_l)} Sigma_jl, so a split point's moved
    # points are split too.  Their whole secant matrix, ranked by the
    # unblocked oracle, has the rank of the sum of the class ranks of the t
    # representatives' matrix
    p, zeta = _root_of_unity(r, 1000)
    if isinstance(n, tuple):
        (n1, n2), n = n, sum(n)
        mean, sigma = sample_split_arrays(5, n1, n2, t)
    else:
        n1 = None
        mean, sigma = sample_arrays(5, n, t)
    pair_weights = [weights[j] + weights[l] for j, l in quadratic_pairs(n)]

    def moved(entries, entry_weights, k):  # entry e times zeta^(k w_e), mod p
        return [pow(zeta, k * w, p) * int(x) % p for w, x in zip(entry_weights, entries)]

    points = [GaussianParams.make(moved(a, weights, k), moved(s, pair_weights, k))
              for k in range(r) for a, s in zip(mean, sigma)]
    if n1 is not None:  # no moved point has a linear part in the first n1
        # variables, or a quadratic one outside them: each is split
        split = [j >= n1 or l >= n1 for j, l in quadratic_pairs(n)]
        assert not any(any(x.mean[:n1]) or any(np.array(x.quad)[split]) for x in points)
    whole = reduce_modp(secant_matrix(points, d).matrix(), p)
    _, pivots = echelon_form_modp(whole, p)
    ranks = experiments._slice_ranks(mean, sigma, d, r, weights, p)
    assert len(ranks) == r and sum(ranks) == len(pivots), (ranks, len(pivots))


def _direct(monkeypatch, n, d, m, **kwargs):
    """secant_dimension with no orbit weights: the whole secant matrix."""
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "orbit_weights", lambda n, d, m, upper: None)
        return secant_dimension(n, d, m, **kwargs)


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_orbit_records_match_the_secant_matrix(monkeypatch, d):
    # for m from 2 to past the table rank, at two seeds: an orbit-certified
    # record is the direct path's, orbit aside, and any other record is the
    # direct path's with orbit None; every slice sum, of the first weights
    # against the record's upper bound or of w_j = j mod m, is at most the
    # certified rank.  Degree 4 and filling m take orbits too
    (p,) = draw_primes(DEFAULT_PRIME_SEED, 1)
    orbits, filling = 0, 0
    for seed in (42, 7):
        for n in range(2, 8):
            table = max_rank_m(n, d)
            for m in sorted({2, 3, 4, 6, table - 1, table, table + 1} - {0, 1}):
                record = secant_dimension(n, d, m, seed)
                direct = _direct(monkeypatch, n, d, m, seed=seed)
                assert direct.orbit is None and direct.engine_report.certified, (n, m)
                assert dataclasses.replace(record, orbit=None) == direct, (n, m)
                if record.orbit is not None:
                    orbits += 1
                    filling += m * dim_gm(n) > dim_forms(n, d)
                    assert sum(record.orbit.slice_ranks) == record.secant_dimension
                upper = direct.engine_report.upper
                r, weights = experiments.orbit_weights(n, d, m, upper) or (
                    m, tuple(j % m for j in range(n)))
                mean, sigma = sample_arrays(seed, n, m)
                sliced = experiments._slice_ranks(mean[:m // r], sigma[:m // r], d, r, weights,
                                                  p)
                assert sum(sliced) <= direct.secant_dimension, (n, m, r)
    assert orbits >= 50 and filling >= 20, (orbits, filling)


@pytest.mark.parametrize("n, d, m", [(3, 5, 2), (6, 6, 17), (5, 5, 6), (3, 24, 36), (8, 7, 27)])
def test_weight_classes_hold_the_representatives(n, d, m):
    # each class of the chosen weights holds at least t dim_gm monomials,
    # counted one by one; d=6, n=6 needs random weights in Z_17
    r, weights = experiments.orbit_weights(n, d, m, m * dim_gm(n))
    assert m % r == 0 and r > 1 and len(weights) == n and all(0 <= w < r for w in weights)
    labels = np.array(monomials(n, d)) @ np.array(weights) % r
    assert np.bincount(labels, minlength=r).min() >= m // r * dim_gm(n)
    counts = experiments._class_counts(np.array([weights]), d, r)
    assert counts.tolist() == [np.bincount(labels, minlength=r).tolist()]
    if (n, d) == (6, 6):
        assert weights != tuple(j % r for j in range(n))


def test_weights_j_mod_r_balance_degree_6():
    # w_j = j mod r serves d=6 at the table rank for n = 7..10, 14, 16, 19
    for n in (7, 8, 9, 10, 14, 16, 19):
        m = max_rank_m(n, 6)
        r, weights = experiments.orbit_weights(n, 6, m, m * dim_gm(n))
        assert weights == tuple(j % r for j in range(n)), n


def test_short_slice_sum_falls_back_to_the_secant_matrix(monkeypatch):
    # each weight choice's slices at d=6, n=6 (r = m = 17) are the classes
    # of one representative's block, ranked in one ranks_modp call.  With
    # every choice's first class short, ORBIT_CANDIDATES choices are ranked
    # and the record is the direct path's, orbit None; with only the first
    # choice short, the record is the second choice's, orbit aside the
    # direct path's
    real, calls = experiments.ranks_modp, []
    choices = list(islice(experiments._weight_candidates(6, 6, 17, 459), ORBIT_CANDIDATES))

    def short(block, columns, p):
        calls.append((block, columns))
        first, *rest = real(block, columns, p)
        return (first - (len(calls) <= shorts), *rest)

    monkeypatch.setattr(experiments, "ranks_modp", short)
    shorts = ORBIT_CANDIDATES
    record = secant_dimension(6, 6, 17)
    assert len(calls) == len(set(choices)) == ORBIT_CANDIDATES
    for (block, columns), (r, weights) in zip(calls, choices):
        # the classes partition the block's columns, and no column of the
        # generic block vanishes
        assert block.shape == (dim_gm(6), dim_forms(6, 6)) and (block != 0).any(axis=0).all()
        assert len(columns) == r == 17
        assert np.array_equal(np.sort(np.concatenate(columns)), np.arange(dim_forms(6, 6)))
        labels = np.array(monomials(6, 6)) @ np.array(weights) % r
        assert all(np.array_equal(np.flatnonzero(labels == c), cols)
                   for c, cols in enumerate(columns))
    direct = _direct(monkeypatch, 6, 6, 17)
    assert record.orbit is None and record == direct and record.engine_report.certified
    calls.clear()
    shorts = 1
    record = secant_dimension(6, 6, 17)
    assert len(calls) == 2 and (record.orbit.r, record.orbit.weights) == choices[1]
    assert dataclasses.replace(record, orbit=None) == direct


@pytest.mark.parametrize("n, d, m, tries", [(5, 7, 15, 2), (7, 6, 19, 4)])
def test_a_short_first_choice_certifies_from_a_later_one(monkeypatch, n, d, m, tries):
    # d=7, n=5, m=15: w_j = j mod 15 has a class of 24 columns whose slice
    # ranks 19 of 20, so the first choice sums to 299 of 300 at every seed;
    # the second, w_j = j mod 5, certifies.  d=6, n=7, m=19 certifies from
    # its fourth choice, the last that ORBIT_CANDIDATES admits.  Either
    # record is the direct path's, orbit aside
    assert tries <= ORBIT_CANDIDATES
    choices = list(islice(experiments._weight_candidates(n, d, m, m * dim_gm(n)), tries))
    real, calls = experiments.ranks_modp, []
    monkeypatch.setattr(experiments, "ranks_modp",
                        lambda *args: calls.append(args) or real(*args))
    for seed in (0, 42):
        calls.clear()
        record = secant_dimension(n, d, m, seed)
        assert len(calls) == tries and (record.orbit.r, record.orbit.weights) == choices[-1]
        assert sum(record.orbit.slice_ranks) == m * dim_gm(n)
        assert dataclasses.replace(record, orbit=None) == _direct(monkeypatch, n, d, m, seed=seed)
    if d == 7:
        assert [r for r, _ in choices] == [15, 5]


@pytest.mark.parametrize("d, ns", [(5, (3, 4, 5, 6, 7, 8, 9)), (6, (3, 5, 6, 7)), (7, (4, 5))])
def test_stacked_ranks_of_the_orbit_slices_equal_the_per_class_ranks(d, ns):
    # every orbit case whose slice rows and widest class are both fewer than
    # 2 PANEL ranks its slices in one stack; each rank is the one rank_modp
    # gives the class
    (p,) = draw_primes(DEFAULT_PRIME_SEED, 1)
    for n in ns:
        m = max_rank_m(n, d)
        r, weights = experiments.orbit_weights(n, d, m, m * dim_gm(n))
        classes = np.array(monomials(n, d)) @ np.array(weights) % r
        assert max(m // r * dim_gm(n), np.bincount(classes).max()) < 2 * PANEL, n
        for seed in (42, 7):
            mean, sigma = sample_arrays(seed, n, m)
            block = _assembler(mean[:m // r], sigma[:m // r], d)(p)
            expected = tuple(rank_modp(block[:, classes == c], p) for c in range(r))
            assert experiments._slice_ranks(mean[:m // r], sigma[:m // r], d, r, weights,
                                            p) == expected, (n, seed)


def test_small_slices_take_one_stacked_rank_and_large_ones_the_blocked_engine(monkeypatch):
    # d=6, n=6: 17 slices of 27 rows, one stack; d=6, n=10: 11 slices of
    # 455 rows, one _echelon call each
    import momentlab.rank as rank

    calls = []
    for name in ("_echelon", "_stacked_ranks"):
        real = getattr(rank, name)
        monkeypatch.setattr(rank, name, lambda a, p, name=name, real=real: (
            calls.append((name, a.shape)) or real(a, p)))
    assert secant_dimension(6, 6, 17).orbit is not None
    assert calls == [("_stacked_ranks", (17, 27, 28))]
    calls.clear()
    record = secant_dimension(10, 6, 77)
    assert record.orbit.r == 11 and record.engine_report.certified
    assert [(name, shape[0]) for name, shape in calls] == [("_echelon", 455)] * 11


def test_large_slices_are_eliminated_in_their_one_copy(monkeypatch):
    # d=6, n=10: each 455-row slice is copied out of the int32 block once
    # and that copy eliminated in place, with no reduction mod p
    import momentlab.rank as rank

    def refuse(matrix, p):
        raise AssertionError("the slices are residues already")

    dtypes, real = [], rank._echelon
    monkeypatch.setattr(rank, "reduce_modp", refuse)
    monkeypatch.setattr(rank, "_echelon", lambda a, p: dtypes.append(a.dtype) or real(a, p))
    record = secant_dimension(10, 6, 77)
    assert record.orbit.r == 11 and record.engine_report.certified
    assert dtypes == [np.dtype(np.int32)] * 11


# ---------------------------------------------------------------------------
# CSV schema


def test_emit_csv_header_and_rows():
    # `csv_text` is the one CSV writer; `--out` writes its text to a file.
    lines = experiments.csv_text([secant_dimension(3, 6, 3)]).splitlines()
    assert lines[0] == "n,rank,secant dimension,expected dimension"
    assert lines[1] == "3,3,27,27"
    records = max_rank_scan([2, 3], 5)
    assert experiments.csv_text(records).splitlines() == [
        lines[0],
        *(f"{r.n},{r.m},{r.secant_dimension},{r.expected_dimension}" for r in records),
    ]


def test_emit_csv_empty():
    assert experiments.csv_text([]) == "n,rank,secant dimension,expected dimension\n"
    assert experiments.csv_text([]) == ",".join(CSV_HEADER) + "\n"
