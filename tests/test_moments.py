"""Moment forms: combinatorics, identities, resultants, sampling."""

from fractions import Fraction


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab.moments import (
    BivariateMomentPoly,
    GaussianParams,
    MixtureParams,
    bivariate_coeffs,
    common_root_check,
    duonomial,
    eisenstein_check,
    euler_recurrence_check,
    mixture_moment,
    moment_form,
    moment_forms,
    moment_l1_bound,
    monomial_moments,
    monte_carlo_check,
    point_arrays,
    rescale_to_uniform,
    stacked_moment_forms,
    sylvester_resultant,
)
from momentlab.poly import QQ, RR, DenseForm, multiply

from oracles import random_rational_params, resultant_by_roots


def test_duonomial_values():
    assert duonomial(6, 2) == 180
    for d in range(0, 10):
        assert duonomial(d, 0) == 1
    assert Fraction(duonomial(6, 3), 2**3) == 15
    with pytest.raises(ValueError):
        duonomial(5, 3)


def test_bivariate_coeffs_match_duonomial_normalization():
    for d in range(1, 9):
        cs = bivariate_coeffs(d)
        assert cs[0] == 1  # coefficient of l^d
        for k, c in enumerate(cs):
            assert c == Fraction(duonomial(d, k), 2**k)


def test_bivariate_render():
    assert BivariateMomentPoly.of_degree(6).render() == \
        "l^6 + 15 q l^4 + 45 q^2 l^2 + 15 q^3"
    assert BivariateMomentPoly.of_degree(2).render() == "l^2 + q"
    assert BivariateMomentPoly.of_degree(1).render() == "l"


def test_moment_form_degree6_expansion():
    rng = np.random.default_rng(23)
    mean, quad = random_rational_params(rng, 3)
    p = GaussianParams.make(mean, quad)
    ell, q = p.linear_form(), p.quadratic_form()

    def pw(f, k):
        out = DenseForm.from_coeffs(f.n, 0, [1])
        for _ in range(k):
            out = multiply(out, f)
        return out

    expected = pw(ell, 6) + multiply(q, pw(ell, 4)).scale(15) \
        + multiply(pw(q, 2), pw(ell, 2)).scale(45) + pw(q, 3).scale(15)
    assert moment_form(p, 6) == expected


def test_moment_form_degree1_is_linear_part():
    p = GaussianParams.make([3, -2], [1, 0, 4])
    assert moment_form(p, 1) == p.linear_form()


def test_moment_form_univariate_substitution():
    # l = X, Sigma = 1, d = 4: (1 + 6 + 3) X^4
    p = GaussianParams.make([1], [1])
    assert moment_form(p, 4).coeffs == (10,)


def test_moment_form_leading_normalization():
    # with q = 0 the form collapses to l^d
    for d in range(1, 9):
        p = GaussianParams.make([1, 0], [0, 0, 0])
        form = moment_form(p, d)
        assert form.coefficient((d, 0)) == 1
        assert sum(1 for c in form.coeffs if c) == 1


def test_quad_storage_roundtrip():
    p = GaussianParams.make([1, 2, 3], [Fraction(1, 2), 3, -1, 0, 5, 7])
    back = GaussianParams.from_forms(p.linear_form(), p.quadratic_form())
    assert back == p


def test_bihomogeneity():
    rng = np.random.default_rng(29)
    mean, quad = random_rational_params(rng, 3)
    p = GaussianParams.make(mean, quad)
    t = Fraction(3, 2)
    for d in (4, 5, 6):
        assert moment_form(p.scale_gauge(t), d) == moment_form(p, d).scale(t**d)


def test_mixture_single_component_and_linearity():
    rng = np.random.default_rng(31)
    mean, quad = random_rational_params(rng, 3)
    p = GaussianParams.make(mean, quad)
    one = MixtureParams.make([1], [p])
    assert mixture_moment(one, 6) == moment_form(p, 6)
    halves = MixtureParams.make([Fraction(1, 2), Fraction(1, 2)], [p, p])
    assert mixture_moment(halves, 6) == moment_form(p, 6)


def test_mixture_requires_components():
    with pytest.raises(ValueError):
        MixtureParams(())


def test_rescale_uniform_input_unchanged():
    params = [GaussianParams.make([1, 2], [1, 0, 1]),
              GaussianParams.make([0, 1], [2, 1, 1])]
    mix = MixtureParams.uniform(params)
    out = rescale_to_uniform(mix, 6)
    assert out == mix


def test_rescale_exact_rational_roots_preserve_moments():
    # weights picked so that m * w_i is a perfect 6th power: 2 * (2^6/2) = 2^6
    params = [GaussianParams.make([1, -2], [1, 1, 0]),
              GaussianParams.make([3, 1], [0, 1, 2])]
    mix = MixtureParams.make([Fraction(2**6, 2), Fraction(3**6, 2)], params)
    out = rescale_to_uniform(mix, 6)
    assert all(w == Fraction(1, 2) for w, _ in out.components)
    assert mixture_moment(out, 6) == mixture_moment(mix, 6)
    assert out.ring is QQ  # roots existed: stayed exact


def test_rescale_float_fallback_matches_to_tolerance():
    rng = np.random.default_rng(37)
    params = []
    for _ in range(3):
        mean, quad = random_rational_params(rng, 3)
        params.append(GaussianParams.make(mean, quad))
    mix = MixtureParams.make([Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)], params)
    out = rescale_to_uniform(mix, 6)
    assert out.ring is RR
    a = mixture_moment(mix.convert(RR), 6).coeffs
    b = mixture_moment(out, 6).coeffs
    scale = max(abs(x) for x in a)
    assert all(abs(x - y) <= 1e-12 * scale for x, y in zip(a, b))


def test_rational_root_helper_handles_big_powers():
    from momentlab.moments import _rational_root

    big = Fraction(12345**6, 7**12)
    assert _rational_root(big, 6) == Fraction(12345, 49)
    assert _rational_root(big + 1, 6) is None
    assert _rational_root(Fraction(1), 6) == 1


def test_rescale_rejects_nonpositive_weight():
    p = GaussianParams.make([1], [1])
    mix = MixtureParams.make([Fraction(3, 2), Fraction(-1, 2)], [p, p])
    with pytest.raises(ValueError):
        rescale_to_uniform(mix, 6)


def test_euler_recurrence():
    assert euler_recurrence_check(2, trials=2)
    assert euler_recurrence_check(6, trials=2)
    assert euler_recurrence_check(8, trials=2)


# ---------------------------------------------------------------------------
# The dtype of the recurrence


def _fraction_copy(p: GaussianParams) -> GaussianParams:
    return GaussianParams.make([Fraction(v) for v in p.mean], [Fraction(v) for v in p.quad])


def _l1_bound(p: GaussianParams, d: int) -> int:
    return moment_l1_bound(sum(map(abs, p.mean)),
                           sum(map(abs, p.quadratic_form().coeffs)), d)


def _closed_form(p: GaussianParams, d: int) -> DenseForm:
    # sum_k c_k q^k l^(d-2k) by generic dense multiplication
    ell, q = p.linear_form(), p.quadratic_form()
    ell_pows = [DenseForm.from_coeffs(p.n, 0, [1])]
    for _ in range(d):
        ell_pows.append(multiply(ell_pows[-1], ell))
    q_pow = ell_pows[0]
    out = DenseForm.zero(p.n, d)
    for k, c in enumerate(bivariate_coeffs(d)):
        if k:
            q_pow = multiply(q_pow, q)
        out = out + multiply(q_pow, ell_pows[d - 2 * k]).scale(c)
    return out


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 5),
    d=st.integers(0, 8),
    data=st.data(),
)
def test_int64_forms_equal_object_forms(n, d, data):
    entry = st.integers(-10**3, 10**3)
    mean = data.draw(st.lists(entry, min_size=n, max_size=n))
    quad = data.draw(st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    p = GaussianParams.make(mean, quad)
    forms = moment_forms(p, d)
    exact = moment_forms(_fraction_copy(p), d)
    expected_dtype = np.int64 if _l1_bound(p, d) < 2**63 else object
    assert all(f.dtype == expected_dtype for f in forms)
    assert all(e.dtype == object for e in exact)
    assert [f.tolist() for f in forms] == [e.tolist() for e in exact]


def test_l1_bound_small_cases():
    # b_0 = 1, b_1 = L, b_2 = L^2 + Q, b_3 = L^3 + 3 L Q
    assert [moment_l1_bound(2, 3, d) for d in range(4)] == [1, 2, 7, 26]
    # with L = 0 the odd b_k vanish and the maximum comes from an even one
    assert moment_l1_bound(0, 5, 3) == 5
    assert moment_l1_bound(0, 0, 6) == 1


def test_point_beyond_int64_takes_the_object_path():
    p = GaussianParams.make([10**6, -3 * 10**6, 7], [10**6, 2, -5, 10**6, 1, -10**6])
    assert _l1_bound(p, 6) >= 2**63
    forms = moment_forms(p, 6)
    assert all(f.dtype == object for f in forms)
    assert max(abs(c) for c in forms[6]) >= 2**63
    assert moment_form(p, 6) == _closed_form(p, 6)


def test_int64_moment_form_matches_the_closed_form():
    p = GaussianParams.make([3, -7, 10], [-10, 4, 9, 10, -6, 8])
    assert moment_forms(p, 6)[6].dtype == np.int64
    assert moment_form(p, 6) == _closed_form(p, 6)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 6), d=st.integers(0, 8), data=st.data())
def test_stacked_forms_equal_each_points_forms(n, m, d, data):
    # one recurrence over an int64 batch gives every point's moment_forms
    entry = st.integers(-10, 10)
    mean = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                       min_size=m, max_size=m)), dtype=np.int64)
    sigma = np.array(data.draw(st.lists(
        st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2),
        min_size=m, max_size=m)), dtype=np.int64)
    points = [GaussianParams.make(a.tolist(), s.tolist()) for a, s in zip(mean, sigma)]
    stacked = stacked_moment_forms(*point_arrays(points), d)
    assert len(stacked) == d + 1
    for i, point in enumerate(points):
        forms = moment_forms(point, d)
        assert [f.dtype for f in forms] == [f.dtype for f in stacked]
        assert [f.tolist() for f in forms] == [f[i].tolist() for f in stacked]


def test_stacked_forms_of_a_mixed_batch_are_object():
    # the corner of the sampling box has object forms from degree 12 at
    # n = 3; batched with a point whose forms fit int64, both are object
    small = GaussianParams.make([1, -2, 3], [2, 0, 1, -1, 3, 2])
    corner = GaussianParams.make([10] * 3, [10] * 6)
    assert moment_forms(small, 12)[12].dtype == np.int64
    assert moment_forms(corner, 12)[12].dtype == object
    stacked = stacked_moment_forms(*point_arrays([small, corner]), 12)
    assert all(f.dtype == object for f in stacked)
    for i, point in enumerate((small, corner)):
        assert [f.tolist() for f in moment_forms(point, 12)] == [f[i].tolist() for f in stacked]
        assert all(type(c) is int for c in stacked[12][i])
    # the int64 entries of a sample give the same forms as their Python ints
    mean, sigma = point_arrays([small, corner])
    as_int64 = stacked_moment_forms(mean.astype(np.int64), sigma.astype(np.int64), 12)
    assert [f.tolist() for f in as_int64] == [f.tolist() for f in stacked]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 3), d=st.integers(0, 14),
       p=st.sampled_from([3, 2147483059, 2**31 - 1]), data=st.data())
def test_residue_forms_equal_the_exact_forms_mod_p(n, m, d, p, data):
    # the recurrence run mod p gives the exact forms reduced mod p, whether
    # the exact forms are int64 or, past the l1 bound, objects; entries of
    # up to 2^20 stay inside the overflow bound for every p < 2^31
    entry = st.one_of(st.integers(-10, 10), st.integers(-2**20, 2**20))
    mean = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                       min_size=m, max_size=m)), dtype=np.int64)
    sigma = np.array(data.draw(st.lists(
        st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2),
        min_size=m, max_size=m)), dtype=np.int64)
    exact = stacked_moment_forms(mean, sigma, d)
    residues = stacked_moment_forms(mean, sigma, d, p)
    assert len(residues) == d + 1
    assert all(form.dtype == np.int64 for form in residues)
    assert [form.tolist() for form in residues] == [(form % p).tolist() for form in exact]


@pytest.mark.parametrize("p", [3, 2**31 - 1])
def test_residue_forms_of_the_sampling_box_corner(p):
    # the corner of the sampling box, at n = 3, has forms past 2^63 from
    # degree 12; mod p they are int64 residues at every degree
    mean = np.full((2, 3), 10)
    mean[1] = -10
    sigma = np.full((2, 6), 10)
    exact = stacked_moment_forms(mean, sigma, 24)
    assert exact[12].dtype == object and max(abs(c) for c in exact[24][0]) >= 2**63
    residues = stacked_moment_forms(mean, sigma, 24, p)
    assert all(form.dtype == np.int64 for form in residues)
    assert [form.tolist() for form in residues] == [(form % p).tolist() for form in exact]


def test_residue_forms_refuse_a_point_past_the_overflow_bound():
    # (n max|l| + (d-1) n(n+1)/2 max|q|) p must stay below 2^63: with
    # p = 2^31 - 1 the bracket may reach 2^32 + 2 and no more.  At n = 1,
    # q's one coefficient is Sigma's one entry
    p = 2**31 - 1
    for ell, q, d in ((2**32 + 2, 0, 4), (0, 2**31 + 1, 3), (2, 2**31, 3)):
        mean, sigma = np.array([[ell]]), np.array([[q]])
        exact = stacked_moment_forms(mean, sigma, d)
        assert [f.tolist() for f in stacked_moment_forms(mean, sigma, d, p)] == [
            (f % p).tolist() for f in exact]
        with pytest.raises(OverflowError):
            stacked_moment_forms(mean + 1, sigma, d, p)
        with pytest.raises(OverflowError):
            stacked_moment_forms(-1 - mean, sigma, d, p)
    # at n = 2, l = 0 and d = 3 the bracket is 6 max|q|, and q's X_1 X_2
    # coefficient is 2 Sigma_12: Sigma_11 may reach (2^32 + 2) / 6, Sigma_12
    # half of it
    limit = (2**32 + 2) // 6
    mean = np.zeros((1, 2), dtype=np.int64)
    for sigma in ([limit, 0, 0], [0, limit // 2, 0]):
        stacked_moment_forms(mean, np.array([sigma]), 3, p)
    for sigma in ([limit + 1, 0, 0], [0, limit // 2 + 1, 0]):
        with pytest.raises(OverflowError):
            stacked_moment_forms(mean, np.array([sigma]), 3, p)
    zero = np.zeros((1, 1), dtype=np.int64)
    with pytest.raises(TypeError):
        stacked_moment_forms(zero.astype(np.float64), zero, 2, p)


def test_sigma_doubled_past_int64_is_refused_mod_p_and_exact_without_a_prime():
    # q's X_1 X_2 coefficient 2 Sigma_12 = 2^64 - 2 is past int64: it must
    # neither wrap to -2 under the overflow bound nor in the exact forms
    mean = np.zeros((1, 2), dtype=np.int64)
    sigma = np.array([[0, 2**63 - 1, 0]], dtype=np.int64)
    with pytest.raises(OverflowError):
        stacked_moment_forms(mean, sigma, 4, 2**31 - 1)
    exact = stacked_moment_forms(mean, sigma, 4)
    assert [f.tolist() for f in exact] == [
        f.tolist() for f in stacked_moment_forms(mean, sigma.astype(object), 4)]
    assert exact[2].tolist() == [[0, 2**64 - 2, 0]]


def test_moment_form_coeffs_are_python_ints():
    p = GaussianParams.make([3, -7, 10], [-10, 4, 9, 10, -6, 8])
    for d in range(7):
        assert all(type(c) is int for c in moment_form(p, d).coeffs)


# ---------------------------------------------------------------------------
# Resultants and Eisenstein witnesses


def test_sylvester_resultant_frozen_degree6():
    # u5 = 15t^2 + 10t + 1, u4 = 3t^2 + 6t + 1 (ascending input)
    assert sylvester_resultant([1, 10, 15], [1, 6, 3]) == -96


def test_common_root_check_matches_float_oracle():
    for d in range(4, 10):
        report = common_root_check(d)
        u1 = list(bivariate_coeffs(d - 1))
        u2 = list(bivariate_coeffs(d - 2))
        approx = resultant_by_roots(u1, u2)
        assert not report.shares_root
        assert report.resultant != 0
        assert abs(approx - report.resultant) <= 1e-6 * max(1.0, abs(report.resultant))


def test_common_root_range_validation():
    with pytest.raises(ValueError):
        common_root_check(3)
    with pytest.raises(ValueError):
        common_root_check(10)


def test_eisenstein_witnesses():
    assert [eisenstein_check(k) for k in range(3, 9)] == [3, 3, 5, 5, 7, 7]


# ---------------------------------------------------------------------------
# Raw moments and Monte Carlo


def test_monomial_moments_against_mgf_oracle():
    # independent oracle: differentiate exp(mu.x + x'Sigma x/2) symbolically
    import sympy

    p = GaussianParams.make([1, 2], [2, 1, 3])
    x1, x2 = sympy.symbols("x1 x2")
    mgf = sympy.exp(1 * x1 + 2 * x2 + sympy.Rational(1, 2) * (2 * x1**2 + 2 * x1 * x2 + 3 * x2**2))
    for alpha, value in monomial_moments(p, 4).items():
        deriv = sympy.diff(mgf, x1, alpha[0], x2, alpha[1])
        expected = deriv.subs({x1: 0, x2: 0})
        assert sympy.Rational(value.numerator, value.denominator) == expected


def test_monte_carlo_single_gaussian():
    p = GaussianParams.make([1, 2], [2, 1, 3])
    err = monte_carlo_check(p, 4, size=200_000, seed=99)
    assert err < 0.05
