"""Experiments: secant records, Koszul defects, splitting, contact locus, CSV."""

from math import comb

import pytest

from momentlab.experiments import (
    CSV_HEADER,
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
from momentlab.tangent import sample_params, secant_matrix


def test_secant_dimension_record_fields():
    rec = secant_dimension(3, 6, 3)
    assert (rec.secant_dimension, rec.expected_dimension, rec.defect) == (27, 27, 0)
    assert rec.engine_report.agreed
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


@pytest.mark.slow
def test_secant_scan_d6_n8_certifies_1716():
    # a 1716 x 1716 exact matrix: the blocked elimination at a size where the
    # trailing update dominates (about 1.2 s per prime on a 2-core host)
    rec = max_rank_scan([8], 6)[0]
    assert (rec.m, rec.secant_dimension, rec.defect) == (39, 1716, 0)
    assert rec.engine_report.agreed


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
