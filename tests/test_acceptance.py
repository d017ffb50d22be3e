"""Acceptance suite: one test per criterion, each printed as PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.  Every tolerance and runtime budget is enforced
here, not deferred to configuration.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial, floor, log

import numpy as np

import momentlab as ml
from momentlab.recovery import (
    GAUGE_KERNEL,
    RecoveryProblem,
    gauge_directions,
    jacobian,
)

from oracles import random_rational_params, truncated_exp


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s budget"
    print(f"criterion {number:2d} PASS  {description}  ({elapsed:.2f}s)")


def test_criterion_01_moment_form_table():
    with criterion(1, "moment-form coefficients d=1..8", 1.0):
        for d in range(1, 9):
            cs = ml.bivariate_coeffs(d)
            for k, c in enumerate(cs):
                assert c == Fraction(ml.duonomial(d, k), 2**k)
        assert ml.bivariate_coeffs(6) == (1, 15, 45, 15)
        assert ml.BivariateMomentPoly.of_degree(6).render() == \
            "l^6 + 15 q l^4 + 45 q^2 l^2 + 15 q^3"


def test_criterion_02_series_vs_duonomial_construction():
    with criterion(2, "d! * truncated_exp([l, q/2], d) == moment_form", 30.0):
        rng = np.random.default_rng(1234)
        cases = [(n, d) for n in range(1, 5) for d in range(1, 9)]
        rng.shuffle(cases)
        for n, d in cases[:20]:
            mean, quad = random_rational_params(rng, n)
            p = ml.GaussianParams.make(mean, quad)
            series = truncated_exp(
                [p.linear_form(), p.quadratic_form().scale(Fraction(1, 2))], d
            )
            assert series.scale(factorial(d)) == ml.moment_form(p, d)


def test_criterion_03_secant_nondefectivity_desk_scale():
    with criterion(3, "defect 0 at floor rank: d=5 n=2..8 and d=6 n=2..6", 600.0):
        for rec in ml.max_rank_scan(range(2, 9), 5):
            assert rec.defect == 0, f"d=5 n={rec.n}: defect {rec.defect}"
            assert rec.engine_report.certified
        for rec in ml.max_rank_scan(range(2, 7), 6):
            assert rec.defect == 0, f"d=6 n={rec.n}: defect {rec.defect}"
            assert rec.engine_report.certified


def test_criterion_04_degree4_defect_is_choose2():
    with criterion(4, "degree-4 defect = C(m,2) with exact Koszul vectors", 120.0):
        for n, m in [(3, 1), (4, 2), (5, 2), (5, 3), (6, 2), (6, 3)]:
            rep = ml.koszul_defect_check(n, m)
            assert rep.defect == comb(m, 2), f"(n={n}, m={m}): defect {rep.defect}"
            assert rep.koszul_vectors_in_kernel
            assert rep.matches_choose2


def test_criterion_05_contact_locus_certification():
    with criterion(5, "contact kernel dim 1: (n=2, d=5..8) and (n=3, d=6)", 120.0):
        for d in (5, 6, 7, 8):
            assert ml.contact_kernel(2, d) == 1, f"(n=2, d={d})"
        assert ml.contact_kernel(3, 6) == 1


def test_criterion_06_eisenstein_witnesses():
    with criterion(6, "Eisenstein witnesses k=3..8 are 3,3,5,5,7,7", 1.0):
        assert [ml.eisenstein_check(k) for k in range(3, 9)] == [3, 3, 5, 5, 7, 7]


def test_criterion_07_threshold_arithmetic():
    with criterion(7, "rank thresholds 644/184 and certified 643/183", 1.0):
        assert ml.param_count_bound(19, 6) == 644
        assert floor(ml.param_count_bound(20, 5)) == 184
        assert ml.max_rank_m(19, 6) == 644
        assert ml.max_rank_m(20, 5) == 184
        # strictness: the certified rank sits one below the table value.  The
        # True inputs at n=19 and n=20 are assumed, not certified: the
        # secant certificates there need the orbit-graded certificates of
        # ROADMAP item 3, and these calls should then read them
        assert ml.mm_condition_report(19, 6, 643, True, True).identifiable
        assert ml.mm_condition_report(20, 5, 183, True, True).identifiable
        assert not ml.mm_condition_report(19, 6, 644, True, True).parameter_margin
        assert not ml.mm_condition_report(20, 5, 184, True, True).parameter_margin
        # degree-6 parameter-count bound as a polynomial identity
        from momentlab.bounds import param_count_quartic_deg6

        for n in range(1, 51):
            assert ml.param_count_bound(n, 6) == param_count_quartic_deg6(n)


def test_criterion_08_splitting_optimizer():
    with criterion(8, "splitting optimizer: m(20) = 113 and ~n^4 growth", 5.0):
        choice = ml.splitting_optimizer(20)
        assert choice.m == 113 and (choice.n1, choice.n2) == (13, 7)
        # independent enumeration oracle for n = 20
        best = max(
            min(
                floor(Fraction(comb(n1 + 5, 6), comb(n1 + 1, 2)) - comb(n1 + 1, 2)),
                floor(Fraction(comb(20 - n1 + 5, 6), 20 - n1) - (20 - n1)),
            )
            for n1 in range(1, 20)
        )
        assert best == 113
        # the doubling ratio settles at 2^4 = 16 (within 25%)
        for n in (15, 20, 25, 30):
            ratio = ml.splitting_optimizer(2 * n).m / ml.splitting_optimizer(n).m
            assert 12.0 <= ratio <= 20.0, f"ratio at n={n}: {ratio:.2f}"
        # log-log slope across the whole 10..60 span stays near 4
        slope = log(ml.splitting_optimizer(60).m / ml.splitting_optimizer(10).m) / log(6)
        assert 3.0 <= slope <= 5.0


def test_criterion_09_gauge_structure_of_jacobian():
    with criterion(9, "free-weight Jacobian kernel: m at degree 6, 0 with 4+6", 60.0):
        for n, m in ((3, 2), (4, 3)):
            mix = ml.MixtureParams.uniform(ml.sample_params(21 + n, n, m))
            single = RecoveryProblem.make(
                {6: ml.mixture_moment(mix, 6)}, m, free_weights=True
            )
            jac = jacobian(mix, single)
            assert not np.any(jac @ gauge_directions(mix, 6))
            cols = len(jac[0])
            report = ml.rank_consensus(jac, upper=cols - m, upper_reason=GAUGE_KERNEL)
            assert report.certified and len(report.engines) == 1
            assert cols - report.rank == m
            both = RecoveryProblem.make(
                {4: ml.mixture_moment(mix, 4), 6: ml.mixture_moment(mix, 6)},
                m, free_weights=True,
            )
            jac2 = jacobian(mix, both)
            assert ml.rank_consensus(jac2).rank == len(jac2[0])


def test_criterion_10_local_recovery():
    with criterion(10, "recovery from exact degree-6 moments (n=3, m=2)", 30.0):
        result, _truth = ml.run_recovery_demo(
            n=3, m=2, degrees=(6,), free_weights=False,
            seed=42, perturb=1e-3,
        )
        assert result.converged
        assert result.iterations <= 50
        assert result.matched_error <= 1e-8


def test_criterion_11_monte_carlo_sanity():
    with criterion(11, "empirical degree-4 moments within 5% (n=2, N=1e6)", 60.0):
        p = ml.GaussianParams.make([1, 2], [2, 1, 3])
        err = ml.monte_carlo_check(p, 4, size=1_000_000, seed=2023)
        assert err < 0.05, f"max relative error {err:.4f}"
