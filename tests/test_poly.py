"""Polynomial core: monomial indexing, ring arithmetic, truncated exp."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab.poly import (
    QQ,
    RR,
    DenseForm,
    _shift_table,
    evaluate,
    monomial_count,
    monomial_rank,
    monomial_shifts,
    monomial_unrank,
    monomials,
    multiply,
)

from oracles import shift_table_by_rank, truncated_exp


def random_form(rng, n, d, denom=4):
    coeffs = [
        Fraction(int(a), int(b))
        for a, b in zip(
            rng.integers(-9, 10, monomial_count(n, d)),
            rng.integers(1, denom + 1, monomial_count(n, d)),
        )
    ]
    return DenseForm.from_coeffs(n, d, coeffs)


# ---------------------------------------------------------------------------
# Monomial indexing


def test_monomial_count_examples():
    assert monomial_count(3, 6) == 28
    assert monomial_count(1, 5) == 1
    assert monomial_count(4, 0) == 1


def test_rank_of_first_variable_power_is_zero():
    for n in range(1, 7):
        for d in range(0, 7):
            e = (d,) + (0,) * (n - 1)
            assert monomial_rank(e) == 0


def test_rank_unrank_roundtrip_random():
    rng = np.random.default_rng(5)
    n, d = 5, 6
    for _ in range(1000):
        cuts = rng.integers(0, n, d)
        e = [0] * n
        for c in cuts:
            e[c] += 1
        r = monomial_rank(e)
        assert monomial_unrank(r, n, d) == tuple(e)


def test_rank_enumeration_matches_colex_iteration():
    # exhaustive over a block of small shapes, plus a few wide/deep ones
    shapes = [(n, d) for n in range(1, 7) for d in range(0, 7)]
    shapes += [(8, 4), (12, 3), (3, 12)]
    for n, d in shapes:
        for idx, e in enumerate(monomials(n, d)):
            assert monomial_rank(e) == idx
            assert monomial_unrank(idx, n, d) == e


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 6),
    d=st.integers(0, 7),
    data=st.data(),
)
def test_rank_unrank_bijection_property(n, d, data):
    idx = data.draw(st.integers(0, monomial_count(n, d) - 1))
    e = monomial_unrank(idx, n, d)
    assert sum(e) == d and len(e) == n
    assert monomial_rank(e) == idx


def test_rank_validation_errors():
    with pytest.raises(ValueError):
        monomial_rank((1, 2), n=3)
    with pytest.raises(ValueError):
        monomial_rank((1, 2, 0), d=4)
    with pytest.raises(IndexError):
        monomial_unrank(monomial_count(3, 4), 3, 4)


# ---------------------------------------------------------------------------
# Multiplication


def test_x1_times_x1():
    x1 = DenseForm.variable(2, 0)
    sq = multiply(x1, x1)
    assert sq.coefficient((2, 0)) == 1
    assert sum(1 for c in sq.coeffs if c) == 1


def test_multiply_commutes_on_random_rationals():
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = random_form(rng, 4, 2)
        g = random_form(rng, 4, 4)
        assert multiply(f, g) == multiply(g, f)


def test_multiply_distributes():
    rng = np.random.default_rng(11)
    f = random_form(rng, 3, 2)
    g = random_form(rng, 3, 2)
    h = random_form(rng, 3, 3)
    assert multiply(f + g, h) == multiply(f, h) + multiply(g, h)


def test_multiply_agrees_with_evaluation():
    rng = np.random.default_rng(13)
    f = random_form(rng, 3, 2)
    g = random_form(rng, 3, 3)
    point = [Fraction(2), Fraction(-1, 3), Fraction(5, 2)]
    constant = DenseForm.from_coeffs(3, 0, [Fraction(-7, 2)])
    zero = DenseForm.zero(3, 2)
    for a, b in [(f, g), (constant, g), (f, constant), (constant, constant),
                 (zero, g), (f, zero)]:
        product = multiply(a, b)
        assert product.d == a.d + b.d
        assert evaluate(product, point) == evaluate(a, point) * evaluate(b, point)
    assert multiply(zero, g).is_zero()
    # over RR on integer inputs the product is the exact one, as Python floats
    ints = [DenseForm.from_coeffs(3, k, rng.integers(-9, 10, monomial_count(3, k)).tolist())
            for k in (0, 2, 3)]
    for a, b in [(ints[1], ints[2]), (ints[0], ints[2]), (ints[1], ints[0])]:
        floats = multiply(a.convert(RR), b.convert(RR))
        assert floats == multiply(a, b).convert(RR)
        assert all(type(c) is float for c in floats.coeffs)


def test_degree6_tangent_identity_expands():
    # l*(l^5 + 10 q l^3 + 15 q^2 l) + 5 q*(l^4 + 6 q l^2 + 3 q^2)
    #   == l^6 + 15 q l^4 + 45 q^2 l^2 + 15 q^3
    rng = np.random.default_rng(17)
    for _ in range(3):
        ell = random_form(rng, 3, 1)
        q = random_form(rng, 3, 2)
        def pw(f, k):
            out = DenseForm.from_coeffs(f.n, 0, [1])
            for _ in range(k):
                out = multiply(out, f)
            return out
        lhs = multiply(ell, pw(ell, 5) + multiply(q, pw(ell, 3)).scale(10)
                       + multiply(pw(q, 2), ell).scale(15))
        lhs = lhs + multiply(q.scale(5), pw(ell, 4) + multiply(q, pw(ell, 2)).scale(6)
                             + pw(q, 2).scale(3))
        rhs = pw(ell, 6) + multiply(q, pw(ell, 4)).scale(15) \
            + multiply(pw(q, 2), pw(ell, 2)).scale(45) + pw(q, 3).scale(15)
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    e=st.integers(0, 4),
    k=st.integers(0, 3),
    ring_name=st.sampled_from(["QQ", "int64", "RR"]),
    data=st.data(),
)
def test_monomial_shifts_match_multiply(n, e, k, ring_name, data):
    size = monomial_count(n, e)
    if ring_name == "QQ":
        ring, dtype = QQ, object
        values = st.fractions(min_value=-50, max_value=50, max_denominator=7)
    elif ring_name == "int64":
        ring, dtype = QQ, np.int64
        values = st.integers(-2**31, 2**31)
    else:
        ring, dtype = RR, np.float64
        values = st.floats(-1e6, 1e6)
    batch = data.draw(st.lists(st.lists(values, min_size=size, max_size=size),
                               min_size=1, max_size=3))
    shifted = monomial_shifts(np.array(batch, dtype=dtype), n, e, k)
    assert shifted.dtype == dtype
    assert shifted.shape == (len(batch), monomial_count(n, k), monomial_count(n, e + k))
    for coeffs, rows in zip(batch, shifted):
        f = DenseForm.from_coeffs(n, e, coeffs, ring)
        for mono, row in zip(monomials(n, k), rows):
            assert tuple(row) == multiply(f, DenseForm.monomial(n, mono, ring=ring)).coeffs


@pytest.mark.parametrize("n", range(1, 7))
def test_shift_table_matches_scalar_ranks(n):
    for e in range(10):
        for k in range(10 - e):
            table = _shift_table(n, e, k)
            assert np.issubdtype(table.dtype, np.integer)
            assert not table.flags.writeable
            np.testing.assert_array_equal(table, shift_table_by_rank(n, e, k))


def test_shift_table_reads_no_binomial_past_the_monomial_count():
    # at n=2, e+k=70 the middle binomials up to C(71, 35) pass 2^63, but
    # every entry the table reads is at most the monomial count 71
    np.testing.assert_array_equal(_shift_table(2, 40, 30), shift_table_by_rank(2, 40, 30))


def test_ring_mismatch_rejected():
    f = DenseForm.from_coeffs(2, 1, [1, 2])
    g = DenseForm.from_coeffs(2, 1, [1, 2], ring=RR)
    with pytest.raises(ValueError):
        multiply(f, g)


# ---------------------------------------------------------------------------
# Truncated exponential


def test_truncated_exp_single_linear_part():
    ell = DenseForm.from_coeffs(2, 1, [1, 2])
    cubed = truncated_exp([ell], 3)
    expected = multiply(multiply(ell, ell), ell).scale(Fraction(1, 6))
    assert cubed == expected


def test_truncated_exp_of_zero_part():
    z = DenseForm.zero(3, 1)
    for d in (1, 2, 5):
        assert truncated_exp([z], d).is_zero()


def test_truncated_exp_rejects_float_ring():
    ell = DenseForm.from_coeffs(2, 1, [1.0, 2.0], ring=RR)
    with pytest.raises(ValueError):
        truncated_exp([ell], 3)


def test_truncated_exp_merges_equal_degrees():
    a = DenseForm.from_coeffs(2, 1, [1, 0])
    b = DenseForm.from_coeffs(2, 1, [0, 1])
    assert truncated_exp([a, b], 2) == truncated_exp([a + b], 2)


def test_truncated_exp_degree_zero_part_rejected():
    const = DenseForm.from_coeffs(2, 0, [1])
    with pytest.raises(ValueError):
        truncated_exp([const], 2)
