"""Tangent blocks, secant stacking, differentials, parameter sampling."""

from fractions import Fraction

import numpy as np
import pytest

from momentlab.bounds import dim_gm
from momentlab.moments import GaussianParams, moment_form
from momentlab.poly import RR, DenseForm, multiply, quadratic_pairs
from momentlab.rank import rank_consensus
from momentlab.tangent import (
    differential,
    sample_params,
    sample_split_arrays,
    secant_matrix,
    tangent_matrix,
)

from oracles import fit_t_polynomial, random_rational_params, rational_rank


def test_tangent_univariate_example():
    # l = X, Sigma = 1: rows (1+10+15) X^6 and (1+6+3) X^6
    block = tangent_matrix(GaussianParams.make([1], [1]), 6)
    assert np.array_equal(block.rows, [[26], [10]])
    assert rational_rank(block.matrix()) == 1


def test_tangent_rank_n2_d6():
    block = tangent_matrix(sample_params(1, 2, 1)[0], 6)
    assert rational_rank(block.matrix()) == 5
    assert rank_consensus(block.matrix()).rank == 5


def test_tangent_rank_n3_d4():
    block = tangent_matrix(sample_params(2, 3, 1)[0], 4)
    assert rational_rank(block.matrix()) == 9


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("d", [4, 5, 6])
def test_tangent_generic_rank_is_gm_dimension(n, d):
    block = tangent_matrix(sample_params(100 + n, n, 1)[0], d)
    assert rank_consensus(block.matrix()).rank == dim_gm(n)


def test_tangent_rejects_low_degree():
    with pytest.raises(ValueError):
        tangent_matrix(sample_params(0, 2, 1)[0], 2)


def test_secant_matrix_is_int64_at_d6_n6():
    sec = secant_matrix(sample_params(42, 6, 17), 6)
    assert sec.matrix().dtype == np.int64
    assert sec.matrix().shape == (459, 462)


def test_secant_single_block_reduces_to_tangent():
    p = sample_params(3, 3, 1)
    sec = secant_matrix(p, 6)
    assert np.array_equal(sec.matrix(), tangent_matrix(p[0], 6).matrix())


def test_secant_rank_examples():
    params = sample_params(42, 3, 3)
    assert rank_consensus(secant_matrix(params, 6).matrix()).rank == 27
    params = sample_params(42, 4, 6)
    assert rank_consensus(secant_matrix(params, 6).matrix()).rank == 84


def test_secant_rank_invariant_under_block_permutation_and_gauge():
    params = sample_params(5, 3, 3)
    base = rank_consensus(secant_matrix(params, 5).matrix()).rank
    permuted = [params[2], params[0], params[1]]
    assert rank_consensus(secant_matrix(permuted, 5).matrix()).rank == base
    rescaled = [p.scale_gauge(Fraction(-7, 3)) for p in params]
    assert rank_consensus(secant_matrix(rescaled, 5).matrix()).rank == base


def test_secant_rejects_mixed_rings():
    a = sample_params(1, 3, 1)[0]
    b = sample_params(2, 3, 1)[0].convert(RR)
    with pytest.raises(ValueError):
        secant_matrix([a, b], 5)


# ---------------------------------------------------------------------------
# Differential


def test_differential_degree2():
    rng = np.random.default_rng(43)
    mean, quad = random_rational_params(rng, 3)
    p = GaussianParams.make(mean, quad)
    a = DenseForm.from_coeffs(3, 1, [1, 2, -1])
    b = DenseForm.from_coeffs(3, 2, [1, 0, 3, -2, 0, 1])
    got = differential(p, 2, (a, b))
    assert got == multiply(p.linear_form(), a).scale(2) + b


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
def test_differential_matches_exact_t_expansion(d):
    # fit s_d(l + t a, q + t b) as a polynomial in t over exact rationals;
    # the linear coefficient must equal the differential
    rng = np.random.default_rng(47 + d)
    n = 3
    mean, quad = random_rational_params(rng, n)
    p = GaussianParams.make(mean, quad)
    am, aq = random_rational_params(rng, n)
    a = DenseForm.from_coeffs(n, 1, am)
    b = GaussianParams.make([0] * n, aq).quadratic_form()
    samples = []
    for t in range(d + 1):
        t = Fraction(t)
        shifted = GaussianParams.from_forms(
            p.linear_form() + a.scale(t), p.quadratic_form() + b.scale(t)
        )
        samples.append((t, moment_form(shifted, d).coeffs))
    fitted = fit_t_polynomial(samples)
    assert fitted[0] == moment_form(p, d).coeffs
    assert fitted[1] == differential(p, d, (a, b)).coeffs


def test_differential_fraction_direction_at_an_int64_point_stays_exact():
    # the point's forms are int64, the direction rational: the result must
    # be d s_{d-1} a + d(d-1)/2 s_{d-2} b over Q, not a rounded float
    n, d = 3, 6
    p = GaussianParams.make([3, -7, 10], [-10, 4, 9, 10, -6, 8])
    a = DenseForm.from_coeffs(n, 1, [Fraction(1, 3), Fraction(-5, 7), 2])
    b = DenseForm.from_coeffs(n, 2, [Fraction(1, 11), 0, 3, Fraction(-2, 9), 0, 1])
    got = differential(p, d, (a, b))
    assert all(isinstance(c, (int, Fraction)) for c in got.coeffs)
    expected = multiply(moment_form(p, d - 1), a).scale(d) \
        + multiply(moment_form(p, d - 2), b).scale(d * (d - 1) // 2)
    assert got == expected


def test_differential_euler_gauge_direction():
    rng = np.random.default_rng(53)
    mean, quad = random_rational_params(rng, 3)
    p = GaussianParams.make(mean, quad)
    for d in (4, 5, 6):
        got = differential(p, d, (p.linear_form(), p.quadratic_form().scale(2)))
        assert got == moment_form(p, d).scale(d)


def test_differential_zero_and_linearity():
    rng = np.random.default_rng(59)
    mean, quad = random_rational_params(rng, 3)
    p = GaussianParams.make(mean, quad)
    zero_a = DenseForm.zero(3, 1)
    zero_b = DenseForm.zero(3, 2)
    assert differential(p, 5, (zero_a, zero_b)).is_zero()
    a1m, b1q = random_rational_params(rng, 3)
    a2m, b2q = random_rational_params(rng, 3)
    a1 = DenseForm.from_coeffs(3, 1, a1m)
    a2 = DenseForm.from_coeffs(3, 1, a2m)
    b1 = DenseForm.from_coeffs(3, 2, [Fraction(x) for x in range(6)])
    b2 = DenseForm.from_coeffs(3, 2, b2q[:6])
    lhs = differential(p, 5, (a1 + a2, b1 + b2))
    rhs = differential(p, 5, (a1, b1)) + differential(p, 5, (a2, b2))
    assert lhs == rhs


def test_differential_validates_direction():
    p = sample_params(1, 3, 1)[0]
    a = DenseForm.zero(3, 1)
    with pytest.raises(ValueError):
        differential(p, 5, (a, DenseForm.zero(3, 1)))
    with pytest.raises(ValueError):
        differential(p, 5, (DenseForm.zero(2, 1), DenseForm.zero(2, 2)))


# ---------------------------------------------------------------------------
# Sampling


def test_sample_params_deterministic():
    assert sample_params(42, 4, 3) == sample_params(42, 4, 3)
    assert sample_params(42, 4, 3) != sample_params(43, 4, 3)


def test_sample_params_bounded():
    for p in sample_params(7, 5, 10):
        assert all(-10 <= v <= 10 for v in p.mean)
        assert all(-10 <= v <= 10 for v in p.quad)


def test_sample_split_arrays_structure():
    n1, n2 = 3, 2
    mean, sigma = sample_split_arrays(11, n1, n2, 4)
    assert mean.shape == (4, n1 + n2) and sigma.shape == (4, dim_gm(n1 + n2) - n1 - n2)
    # linear part lives in the last n2 variables
    assert not mean[:, :n1].any() and mean[:, n1:].any()
    # quadratic part involves only the first n1 variables
    outside = [i for i, (j, k) in enumerate(quadratic_pairs(n1 + n2)) if j >= n1 or k >= n1]
    assert not sigma[:, outside].any() and sigma.any()
