"""Experiments: secant records, Koszul defects, splitting, contact locus, CSV."""

from math import comb

import numpy as np
import pytest

from momentlab import experiments
from momentlab.bounds import dim_forms, dim_gm
from momentlab.experiments import (
    CSV_HEADER,
    _annihilates,
    _assembler,
    _staircase_order,
    _tangent_forms,
    _weighted_generators,
    contact_kernel,
    emit_csv,
    koszul_defect_check,
    koszul_kernel_vectors,
    max_rank_m,
    max_rank_scan,
    points_per_group,
    read_csv,
    secant_dimension,
    split_skewness,
)
from momentlab.moments import GaussianParams, moment_form, moment_forms
from momentlab.rank import DEFAULT_PRIME_SEED, draw_primes, matmul_modp, rank_modp, reduce_modp
from momentlab.tangent import (
    generator_matrix,
    sample_arrays,
    sample_params,
    sample_split_arrays,
    sample_split_params,
    secant_matrix,
)

from oracles import contact_differential_dense, contact_kernel_dense


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
    (rec,) = max_rank_scan(4, 6)
    assert rec.m == 6
    assert rec.expected_dimension == 84  # fills exactly: C(9,6)
    assert rec.defect == 0


# ---------------------------------------------------------------------------
# Degree-4 Koszul defect


def test_koszul_kernel_vector_membership_m2():
    # the pairwise vector is in the left kernel for any n >= 2: exact identity
    for n in (2, 3, 4):
        params = sample_params(5 + n, n, 2)
        matrix = secant_matrix(params, 4).matrix()
        vectors = koszul_kernel_vectors(_tangent_forms(*sample_arrays(5 + n, n, 2), 4)[2], n)
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
    # each point's forms to degree d-1 are computed once, in one stacked
    # recurrence per group of points, for the Koszul vectors, the check over
    # Z and every prime's residues alike
    calls = []
    real = experiments.stacked_moment_forms

    def spied(mean, quadratic, d):
        calls.append((mean.copy(), quadratic.copy(), d))
        return real(mean, quadratic, d)

    def points(params):
        # each point's mean and q coefficients, read from its GaussianParams
        return ([point.mean for point in params],
                [point.quadratic_form().coeffs for point in params])

    monkeypatch.setattr(experiments, "stacked_moment_forms", spied)
    rep = koszul_defect_check(6, 3)
    assert rep.matches_choose2 and rep.koszul_vectors_in_kernel
    assert [d for *_, d in calls] == [3]
    for got, want in zip(calls[0], points(sample_params(42, 6, 3))):
        assert np.array_equal(got, want)
    # an uncertified record eliminates two primes from the same forms; its
    # 30 points run in groups of points_per_group
    calls.clear()
    assert not split_skewness(2, 2, 30, d=6)
    group = points_per_group(4, 6)
    assert 1 < group < 30
    assert [len(mean) for mean, *_ in calls] == [group] * (30 // group) + [30 % group]
    assert {d for *_, d in calls} == {5}
    for got, want in zip(zip(*calls), points(sample_split_params(42, 2, 2, 30))):
        assert np.array_equal(np.concatenate(got), want)


def test_koszul_check_certifies_with_one_elimination(monkeypatch):
    import momentlab.rank as rank

    shapes = []
    real = rank._echelon
    monkeypatch.setattr(rank, "_echelon", lambda a, p: shapes.append(a.shape) or real(a, p))
    rep = koszul_defect_check(6, 3)
    assert rep.matches_choose2 and rep.koszul_vectors_in_kernel
    report = rep.record.engine_report
    assert report.certified and report.upper_reason == "koszul vectors"
    assert (report.upper, rep.defect) == (3 * 27 - 3, 3)
    # the 3 Koszul vectors once, the 81-row secant residues once
    assert shapes == [(3, 81), (81, 126)]


def _stacked(*points):
    # stacked tangent forms {2: s_2, 3: s_3} at n = 1 from each point's (s_2, s_3)
    return {k: np.array([[point[k - 2]] for point in points]) for k in (2, 3)}


def test_koszul_product_stays_exact_beyond_int64():
    # n = 1, d = 4: a point's generator rows are s_3 X and s_2 X^2, one
    # column each.  2^40 * 2^40 wraps to 0 in int64; the bound check sends
    # the products to Python ints
    big, point = (1, 2**40), (-3, 1)
    assert not _annihilates(np.array([[2**40, 0]]), _stacked(big), 1, 4)
    assert _annihilates(np.array([[3, 1]]), _stacked(point), 1, 4)
    # the product is summed over the points' blocks
    assert _annihilates(np.array([[3, 0, 0, 1]]), _stacked(point, point), 1, 4)
    assert not _annihilates(np.array([[3, 0, 0, 1]]), _stacked(point, big), 1, 4)


def test_koszul_vectors_take_the_dtype_of_the_forms():
    forms = _tangent_forms(*sample_arrays(3, 4, 3), 4)
    vectors = koszul_kernel_vectors(forms[2], 4)
    assert vectors.dtype == forms[3].dtype == np.int64
    assert _annihilates(vectors, forms, 4, 4)
    # a point beyond int64 turns the whole stack to exact Python ints; with
    # n = 2 each block has 5 entries, the last 3 pairing the quadratic rows
    (small,) = sample_params(3, 2, 1)
    big = GaussianParams.make([2**40, 1], [3, 2**40, 5])
    mean = np.array([small.mean, big.mean], dtype=object)
    sigma = np.array([small.quad, big.quad], dtype=object)
    forms = _tangent_forms(mean, sigma, 4)
    vectors = koszul_kernel_vectors(forms[2], 2)
    assert vectors.dtype == forms[3].dtype == object
    assert vectors.tolist() == [[0, 0, *moment_form(big, 2).coeffs,
                                 0, 0, *(-c for c in moment_form(small, 2).coeffs)]]
    assert _annihilates(vectors, forms, 2, 4)


def _leading_columns(matrix):
    nonzero = matrix != 0
    return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), matrix.shape[1])


def _check_residue_layout(mean, sigma, d):
    # every prime's residues are the reduced secant matrix, each point's
    # generator_matrix in sample order, at the layout positions, and the
    # layout is a staircase, exactly and mod p
    n = mean.shape[1]
    forms = _tangent_forms(mean, sigma, d)
    order = _staircase_order(forms, n, d)
    params = [GaussianParams.make(a.tolist(), s.tolist()) for a, s in zip(mean, sigma)]
    exact = secant_matrix(params, d).matrix()
    assert np.all(np.diff(_leading_columns(exact[order])) >= 0)
    residues = _assembler(forms, n, d)
    for p in draw_primes(DEFAULT_PRIME_SEED, 2):
        matrix = residues(p)
        assert matrix.dtype == np.int64
        assert np.array_equal(matrix, reduce_modp(exact, p)[order])
        assert np.all(np.diff(_leading_columns(matrix)) >= 0)
    return forms, order, matrix, p


@pytest.mark.parametrize("n, d", [(3, 5), (5, 5), (4, 6), (6, 6)])
def test_secant_layout_is_a_staircase(n, d):
    # seed 42 draws l_1 = 0, where s_5 has no X_1^5 term, at two of the 17
    # points of d=6, n=6
    mean, sigma = sample_arrays(42, n, max_rank_m(n, d))
    _check_residue_layout(mean, sigma, d)
    if (n, d) == (6, 6):
        assert np.count_nonzero(mean[:, 0] == 0) == 2


@pytest.mark.parametrize("arrays, d", [
    (sample_arrays(42, 5, 3), 4),
    (sample_arrays(42, 3, max_rank_m(3, 24)), 24),             # object forms
    (sample_split_arrays(42, 3, 3, 2), 6),                     # l_1 = 0 everywhere
    (sample_split_arrays(7, 2, 2, 5), 7),
    (sample_arrays(42, 6, 30), 6),                             # three groups
], ids=["d4", "d24-object", "split-d6", "split-d7", "d6-groups"])
def test_residue_assembly_matches_the_reduced_secant_matrix(arrays, d):
    if d == 24:
        assert _tangent_forms(*arrays, d)[23].dtype == object
    if d == 6 and arrays[0].shape[1] == 6:
        assert 2 * points_per_group(6, 6) < 30
    _check_residue_layout(*arrays, d)


def test_reordered_koszul_vectors_annihilate_the_layout():
    # the Koszul vectors hold sample-order columns: reordered like the
    # layout's rows they annihilate its residues, and over Z they annihilate
    # the sum of the points' blocks, where one doctored entry is caught
    for n, m in ((4, 3), (6, 5)):
        forms, order, matrix, p = _check_residue_layout(*sample_arrays(7, n, m), 4)
        vectors = koszul_kernel_vectors(forms[2], n)
        assert not np.any(matmul_modp(reduce_modp(vectors[:, order], p), matrix, p))
        assert _annihilates(vectors, forms, n, 4)
        doctored = vectors.copy()
        doctored[-1, n] += 1
        assert not _annihilates(doctored, forms, n, 4)
        assert not _annihilates(vectors[:, order], forms, n, 4)


@pytest.mark.parametrize("mean, quad", [
    ([3, -2, 1], [2, 1, 4, 0, 1, 5]),     # X_1^k leads s_k
    ([0, -2, 1], [2, 1, 4, 0, 1, 5]),     # l_1 = 0: s_5 and s_3 lose X_1^k
    ([3, 0, 2], [-3, 0, 0, 3, 0, 1]),     # l_1^2 + 3 Sigma_11 = 0: s_3 loses X_1^3
    ([0, 0, 4], [0, 0, 0, 0, 0, 2]),      # only X_3 appears
    ([0, 0, 0], [0, 0, 0, 0, 0, 0]),      # every form of degree >= 1 is zero
])
@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_form_leads_match_the_moment_forms(mean, quad, d):
    # the layout reads each lead as the form's first nonzero coefficient:
    # the point's rows, alone and among generic points, form a staircase
    point = GaussianParams.make(mean, quad)
    forms = _tangent_forms(np.array([mean]), np.array([quad]), d)
    rows = generator_matrix(moment_forms(point, d - 1), 3, d)
    assert np.all(np.diff(_leading_columns(rows[_staircase_order(forms, 3, d)])) >= 0)
    generic_mean, generic_sigma = sample_arrays(5, 3, 2)
    _check_residue_layout(np.concatenate([[mean], generic_mean]),
                          np.concatenate([[quad], generic_sigma]), d)


@pytest.mark.parametrize("n, d, panel", [(3, 6, 4), (3, 6, 64), (10, 5, 64), (4, 5, 5)])
def test_generator_matrix_row_ranges(n, d, panel):
    # the gauge check builds a range of at most PANEL generators' rows at a
    # time; a range may straddle the linear and the quadratic generators
    rng = np.random.default_rng(n * d)
    forms = {k: rng.integers(0, 2**31 - 1, dim_forms(n, k)) for k in (d - 2, d - 1)}
    full = generator_matrix(forms, n, d)
    for start in range(0, dim_gm(n), panel):
        stop = min(start + panel, dim_gm(n))
        assert np.array_equal(generator_matrix(forms, n, d, start=start, stop=stop),
                              full[start:stop])


def test_weighted_generators_reduce_before_weighting():
    # n = 1, e = 5: rows 5 s_4 X and 10 s_3 X^2, mod p, from the forms
    # reduced once each, as the contact check reduces its stacked forms;
    # 5 * 2^62 would overflow int64 unreduced
    p = 2147482951
    forms = [np.array([[v]], dtype=np.int64) for v in (1, 1, 1, 7, 2**62)]
    for top in (2**62, 2**40):
        forms[4][0, 0] = top
        residues = [reduce_modp(f, p)[0] for f in forms]
        assert residues[4].tolist() == [top % p]
        rows = _weighted_generators(residues, 1, 5, p)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[5 * top % p], [70]]
    # object forms past 2^63 reduce to int64 residues as well
    residue = reduce_modp(np.array([[2**70]], dtype=object), p)[0]
    assert residue.dtype == np.int64 and residue.tolist() == [2**70 % p]


@pytest.mark.slow
def test_secant_scan_d6_n8_certifies_1716():
    # a 1716 x 1716 exact matrix: the blocked elimination at a size where the
    # trailing update dominates (about 1.2 s per prime on a 2-core host)
    rec = max_rank_scan([8], 6)[0]
    assert (rec.m, rec.secant_dimension, rec.defect) == (39, 1716, 0)
    assert rec.engine_report.certified


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
    with pytest.raises(ValueError):
        contact_kernel(2, 4)
    # exploratory mode runs and reports a kernel dimension
    dim = contact_kernel(2, 4, trials=1, allow_low_degree=True)
    assert dim >= 1


def test_contact_kernel_validation():
    with pytest.raises(ValueError):
        contact_kernel(1, 6)


@pytest.mark.parametrize("d, n", [(d, n) for d in (5, 6, 7, 8) for n in (2, 3, 4, 5)] + [(6, 6)])
def test_contact_kernel_matches_dense_oracle(n, d):
    for seed in (1, 42, 777):
        assert contact_kernel(n, d, 3, seed) == contact_kernel_dense(n, d, 3, seed)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_contact_kernel_low_degree_matches_dense_oracle(n):
    # at d=4 every kernel is above 1 (5 at n=2, where the tangent block is
    # square, 2 from n=3): no sample meets the gauge bound, so all rows are
    # eliminated, and every trial runs
    for seed in (1, 42):
        dim = contact_kernel(n, 4, 3, seed, allow_low_degree=True)
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
    calls.clear()
    assert contact_kernel(3, 4, trials=3, allow_low_degree=True) == 2
    assert calls == [2, 2, 2]


def _spy_rank_modp(monkeypatch) -> list[np.ndarray]:
    matrices = []

    def spied(matrix, p):
        matrices.append(matrix)
        return rank_modp(matrix, p)

    monkeypatch.setattr(experiments, "rank_modp", spied)
    return matrices


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
def test_contact_fallback_eliminates_every_row_of_the_differential(monkeypatch, n):
    # a zero combination gives a zero sketch, so every point falls back to
    # all dim_gm * nullity rows of dg, built from the dense annihilator basis
    # (no identity matrix of the nullity's size): the same rows as the dense
    # oracle's, in another order
    d = 6
    monkeypatch.setattr(experiments, "_annihilator_draw",
                        lambda nullity, p, seed: np.zeros(nullity, dtype=np.int64))
    eyes, eye = [], np.eye
    monkeypatch.setattr(np, "eye", lambda k, *args, **kw: eyes.append(k) or eye(k, *args, **kw))
    matrices = _spy_rank_modp(monkeypatch)
    ndir, nullity = dim_gm(n), dim_forms(n, d) - dim_gm(n)
    for seed in (1, 42, 777):
        matrices.clear()
        assert contact_kernel(n, d, 3, seed) == contact_kernel_dense(n, d, 3, seed) == 1
        sketch, rows = matrices
        assert not sketch.any() and sketch.shape == (ndir, ndir)
        dense, _ = contact_differential_dense(n, d, seed, DEFAULT_PRIME_SEED)
        assert rows.shape == dense.shape == (ndir * nullity, ndir)
        assert np.array_equal(rows[np.lexsort(rows.T)], dense[np.lexsort(dense.T)])
    assert max(eyes) < nullity


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
# CSV schema


def test_emit_csv_header_and_rows(tmp_path):
    path = tmp_path / "dims.csv"
    rec = secant_dimension(3, 6, 3)
    emit_csv([rec], path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "n,rank,secant dimension,expected dimension"
    assert lines[1] == "3,3,27,27"


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == "n,rank,secant dimension,expected dimension\n"


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "roundtrip.csv"
    records = max_rank_scan([2, 3], 5)
    emit_csv(records, path)
    rows = read_csv(path)
    assert rows == [
        {
            "n": r.n,
            "rank": r.m,
            "secant dimension": r.secant_dimension,
            "expected dimension": r.expected_dimension,
        }
        for r in records
    ]
    assert list(rows[0].keys()) == CSV_HEADER
