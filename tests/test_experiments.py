"""Experiments: secant records, Koszul defects, splitting, contact locus, CSV."""

from math import comb

import numpy as np
import pytest

from momentlab import experiments
from momentlab.experiments import (
    CSV_HEADER,
    _annihilates,
    _assembler,
    _form_leads,
    _gauge_bounded_rank,
    _staircase_order,
    _weighted_generators,
    contact_kernel,
    emit_csv,
    koszul_defect_check,
    koszul_kernel_vectors,
    max_rank_m,
    max_rank_scan,
    read_csv,
    secant_dimension,
    split_skewness,
)
from momentlab.moments import GaussianParams, moment_form, moment_forms
from momentlab.rank import rank_modp
from momentlab.tangent import sample_params, secant_matrix

from oracles import contact_kernel_dense


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
        vectors = koszul_kernel_vectors(params)
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
    import momentlab.tangent as tangent

    calls = []
    real = tangent.tangent_matrix
    monkeypatch.setattr(tangent, "tangent_matrix", lambda *a: calls.append(a) or real(*a))
    rep = koszul_defect_check(6, 3)
    assert rep.matches_choose2 and rep.koszul_vectors_in_kernel
    assert len(calls) == 3


def test_koszul_check_certifies_with_one_elimination(monkeypatch):
    import momentlab.experiments as experiments
    import momentlab.rank as rank

    shapes = []
    real = rank.rank_modp

    def counted(m, p, **kw):
        shapes.append(m.shape)
        return real(m, p, **kw)

    monkeypatch.setattr(rank, "rank_modp", counted)
    monkeypatch.setattr(experiments, "rank_modp", counted)
    rep = koszul_defect_check(6, 3)
    assert rep.matches_choose2 and rep.koszul_vectors_in_kernel
    report = rep.record.engine_report
    assert report.certified and report.upper_reason == "koszul vectors"
    assert (report.upper, rep.defect) == (3 * 27 - 3, 3)
    # the 3 Koszul vectors once, the 81-row secant matrix once
    assert shapes == [(3, 81), (81, 126)]


def test_koszul_product_stays_exact_beyond_int64():
    # 2^40 * 2^40 wraps to 0 in int64; the bound check sends it to Python ints
    big = np.array([[2**40]], dtype=np.int64)
    assert not _annihilates(big, big)
    assert _annihilates(np.array([[3, 1]]), np.array([[1], [-3]]))


def test_koszul_vectors_take_the_dtype_of_the_forms():
    params = sample_params(3, 4, 3)
    vectors = koszul_kernel_vectors(params)
    matrix = secant_matrix(params, 4).matrix()
    assert vectors.dtype == matrix.dtype == np.int64
    assert _annihilates(vectors, matrix)
    # a point beyond int64 turns the whole array to exact Python ints; with
    # n = 2 each block has 5 entries, the last 3 pairing the quadratic rows
    small = sample_params(3, 2, 1)[0]
    big = GaussianParams.make([2**40, 1], [3, 2**40, 5])
    vectors = koszul_kernel_vectors([small, big])
    assert vectors.dtype == object
    assert vectors.tolist() == [[0, 0, *moment_form(big, 2).coeffs,
                                 0, 0, *(-c for c in moment_form(small, 2).coeffs)]]


def _leading_columns(matrix):
    nonzero = matrix != 0
    return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), matrix.shape[1])


@pytest.mark.parametrize("n, d", [(3, 5), (5, 5), (4, 6), (6, 6)])
def test_secant_layout_is_a_staircase(n, d):
    # the secant matrix's rows, reordered, with nondecreasing leading columns;
    # seed 42 draws l_1 = 0, where s_5 has no X_1^5 term, at two of the 17
    # points of d=6, n=6
    params = sample_params(42, n, max_rank_m(n, d))
    order = _staircase_order(params, d)
    matrix = _assembler(params, d, order)()
    assert np.array_equal(matrix, secant_matrix(params, d).matrix()[order])
    assert np.all(np.diff(_leading_columns(matrix)) >= 0)
    if (n, d) == (6, 6):
        assert sum(point.mean[0] == 0 for point in params) == 2
    # the float64 copy for the SVD cross-check keeps sample order
    floats = _assembler(params, d, order)(np.float64)
    assert np.array_equal(floats, secant_matrix(params, d, np.float64).matrix())


def test_reordered_koszul_vectors_annihilate_the_layout():
    for n, m in ((4, 3), (6, 5)):
        params = sample_params(7, n, m)
        order = _staircase_order(params, 4)
        matrix = _assembler(params, 4, order)()
        assert np.all(np.diff(_leading_columns(matrix)) >= 0)
        assert _annihilates(koszul_kernel_vectors(params)[:, order], matrix)
        assert not _annihilates(koszul_kernel_vectors(params), matrix)


@pytest.mark.parametrize("mean, quad", [
    ([3, -2, 1], [2, 1, 4, 0, 1, 5]),     # X_1^k leads s_k
    ([0, -2, 1], [2, 1, 4, 0, 1, 5]),     # l_1 = 0: s_5 and s_3 lose X_1^k
    ([3, 0, 2], [-3, 0, 0, 3, 0, 1]),     # l_1^2 + 3 Sigma_11 = 0: s_3 loses X_1^3
    ([0, 0, 4], [0, 0, 0, 0, 0, 2]),      # only X_3 appears
    ([0, 0, 0], [0, 0, 0, 0, 0, 0]),      # every form of degree >= 1 is zero
])
@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_form_leads_match_the_moment_forms(mean, quad, d):
    point = GaussianParams.make(mean, quad)
    forms = moment_forms(point, d - 1)
    expected = [int(np.flatnonzero(f)[0]) if f.any() else len(f)
                for f in (forms[d - 1], forms[d - 2])]
    assert list(_form_leads(point, d)) == expected
    # and the layout of a point whose forms vanish is still a staircase
    params = [point, *sample_params(5, 3, 2)]
    matrix = _assembler(params, d, _staircase_order(params, d))()
    assert np.all(np.diff(_leading_columns(matrix)) >= 0)


def test_weighted_generators_reduce_before_weighting():
    # n = 1, e = 5: rows 5 s_4 X and 10 s_3 X^2, mod p; 5 * 2^62 would
    # overflow int64 unreduced
    p = 2147482951
    forms = [np.array([v], dtype=np.int64) for v in (1, 1, 1, 7, 2**62)]
    for top in (2**62, 2**40):
        forms[4][0] = top
        rows = _weighted_generators(forms, 1, 5, p)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[5 * top % p], [70]]


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


def test_gauge_bounded_rank_grows_past_a_short_sample():
    # 40 rows in blocks of 10, orthogonal to the gauge (1, 1, 1): rank 2, but
    # the first sample (every third row) and the second (rows 0..23) see
    # only multiples of (1, -1, 0); row 37, outside both, brings rank 2
    p = 7
    dg = np.zeros((40, 3), dtype=np.int64)
    dg[::3] = [1, p - 1, 0]
    dg[37] = [0, 1, p - 1]
    asked = []

    def rows_of(rows):
        asked.append(len(rows))
        return dg[rows]

    gauge = np.array([1, 1, 1])
    assert _gauge_bounded_rank(rows_of, 40, 10, gauge, p) == 2 == rank_modp(dg, p)
    assert asked == [12, 24, 40]
    asked.clear()
    # a rank-2 first sample meets the bound at once
    dg[3] = [0, 1, p - 1]
    assert _gauge_bounded_rank(rows_of, 40, 10, gauge, p) == 2
    assert asked == [12]


def test_gauge_bounded_rank_without_a_gauge_bound():
    # a gauge vanishing mod p proves nothing: the bound is the column count,
    # so a first sample of rank 2 = columns - 1 does not end the search
    p = 5
    dg = np.zeros((40, 3), dtype=np.int64)
    dg[::3] = [[1, 0, 0], [0, 1, 0]] * 7
    dg[37] = [0, 0, 1]
    assert rank_modp(dg[np.arange(12) * 3], p) == 2
    gauge = np.array([5, 0, 10]) % p
    assert _gauge_bounded_rank(dg.__getitem__, 40, 10, gauge, p) == 3 == rank_modp(dg, p)


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
