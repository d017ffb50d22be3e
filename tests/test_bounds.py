"""Bound calculators: parameter counts, splitting, condition reports."""

from fractions import Fraction
from math import comb, floor

import pytest

from momentlab.bounds import (
    ah_expected,
    bound_report,
    dim_forms,
    dim_gm,
    generic_rank_bounds,
    mm_condition_report,
    nenashev_bounds,
    param_count_bound,
    param_count_quartic_deg6,
    printed_c1_quartic,
    printed_c2_quintic,
    splitting_constraints,
    splitting_optimizer,
)


def test_param_count_bound_examples():
    assert param_count_bound(1, 6) == Fraction(1, 2)
    assert param_count_bound(19, 6) == 644
    with pytest.raises(ValueError):
        param_count_bound(0, 6)


def test_param_count_quartic_identity():
    for n in range(1, 51):
        assert param_count_bound(n, 6) == param_count_quartic_deg6(n)


def test_param_count_times_dim_recovers_binomial():
    for n in range(1, 51):
        assert param_count_bound(n, 6) * dim_gm(n) == comb(n + 5, 6)


def test_dim_gm_closed_form():
    for n in range(1, 30):
        assert dim_gm(n) == n * (n + 3) // 2 == comb(n + 1, 2) + n


def test_bound_report_fields():
    rep = bound_report(3, 6, m=2)
    assert rep.dim_forms == 28 and rep.dim_gm == 9
    assert rep.param_count_max_m_floor == 3
    assert rep.mm_margin is True  # 18 <= 19
    rep = bound_report(3, 6, m=3)
    assert rep.mm_margin is False  # 27 > 19


def test_nenashev_example_and_order():
    lower, upper = nenashev_bounds(10, 4, 2)
    assert (lower, upper) == (36, 146)
    for n in (3, 6, 12):
        for a in (2, 4):
            for h in (1, 2, 3):
                lo, hi = nenashev_bounds(n, a, h)
                assert lo < hi


def test_nenashev_matches_splitting_first_constraint():
    # degree-6 skewness uses (a, h) = (4, 2) on the quadratic block
    for n1 in range(2, 25):
        lower, _ = nenashev_bounds(n1, 4, 2)
        c1, _ = splitting_constraints(n1, 1)
        assert lower == c1


def test_ah_exceptions():
    assert ah_expected(3, 4, 5).is_exception
    assert ah_expected(5, 3, 7).is_exception
    assert ah_expected(4, 4, 9).is_exception
    assert ah_expected(5, 4, 14).is_exception
    assert ah_expected(6, 2, 4).is_exception  # d=2 family, 2 <= m <= n-1
    assert not ah_expected(4, 6, 3).is_exception
    assert ah_expected(4, 6, 3).expected_dim == min(12, comb(9, 6))


def test_splitting_constraints_examples():
    c1, _ = splitting_constraints(10, 1)
    assert c1 == 91 - 55 == 36
    _, c2 = splitting_constraints(1, 10)
    assert c2 == Fraction(5005, 10) - 10 == Fraction(981, 2)


def test_printed_c2_quintic_agrees():
    for n in range(1, 31):
        _, c2 = splitting_constraints(1, n)
        assert printed_c2_quintic(n) == c2


def test_printed_c1_quartic_disagrees():
    # the published closed form flips two signs; it must NOT match the
    # binomial expression (the binomial form is canonical here)
    mismatches = 0
    for n in range(1, 31):
        c1, _ = splitting_constraints(n, 1)
        if printed_c1_quartic(n) != c1:
            mismatches += 1
        # the corrected polynomial (negated quadratic and linear terms) matches
        n_ = Fraction(n)
        corrected = (n_**4 / 360 + 7 * n_**3 / 180 - 109 * n_**2 / 360
                     - 13 * n_ / 180 + Fraction(1, 3))
        assert corrected == c1
    assert mismatches > 25


def test_splitting_report_flags_printed_c1():
    from momentlab.bounds import splitting_report

    rep = splitting_report(13, 7)
    assert rep["c1_floor"] == 113
    assert rep["c2_printed_form_matches"] is True
    assert rep["c1_printed_form_matches"] is False
    assert "c1_printed_form" in rep  # both values surfaced side by side


def test_splitting_optimizer_n20():
    choice = splitting_optimizer(20)
    assert (choice.n1, choice.n2, choice.m) == (13, 7, 113)


def test_splitting_optimizer_matches_bruteforce_oracle():
    for n in (4, 10, 17):
        best = None
        for n1 in range(1, n):
            c1 = Fraction(comb(n1 + 5, 6), comb(n1 + 1, 2)) - comb(n1 + 1, 2)
            n2 = n - n1
            c2 = Fraction(comb(n2 + 5, 6), n2) - n2
            m = min(floor(c1), floor(c2))
            best = m if best is None else max(best, m)
        assert splitting_optimizer(n).m == best


def test_splitting_optimizer_quartic_growth():
    for n in (15, 20, 25, 30):
        ratio = splitting_optimizer(2 * n).m / splitting_optimizer(n).m
        assert 16 * 0.75 <= ratio <= 16 * 1.25


def test_generic_rank_bounds_examples():
    assert generic_rank_bounds(19, 6)[0] == 644
    assert generic_rank_bounds(3, 6) == (4, 11)
    for d in (5, 6, 7, 8):
        for n in range(1, 51):
            lo, hi = generic_rank_bounds(n, d)
            assert lo <= hi
    with pytest.raises(ValueError):
        generic_rank_bounds(4, 4)


def test_mm_condition_report_examples():
    assert mm_condition_report(3, 6, 2, True, True).identifiable
    assert mm_condition_report(20, 5, 183, True, True).identifiable
    assert mm_condition_report(19, 6, 643, True, True).identifiable
    rep = mm_condition_report(3, 6, 3, True, True)
    assert not rep.identifiable and not rep.parameter_margin
    rep = mm_condition_report(3, 6, 2, True, False)
    assert not rep.identifiable
    assert any("contact" in r for r in rep.reasons)


def test_mm_condition_monotone_in_m():
    # a certificate at m implies one at m-1 when fed the matching inputs
    for n, d in ((5, 6), (8, 5)):
        for m in range(2, 12):
            high = mm_condition_report(n, d, m, True, True)
            low = mm_condition_report(n, d, m - 1, True, True)
            if high.identifiable:
                assert low.identifiable
