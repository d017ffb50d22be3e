"""Recovery: residuals, Jacobians, refinement, matching."""

from fractions import Fraction

import numpy as np
import pytest

from momentlab.moments import GaussianParams, MixtureParams, mixture_moment, moment_form
from momentlab.poly import QQ, RR, DenseForm, monomial_count
from momentlab.rank import rank_consensus
from momentlab.recovery import (
    GAUGE_KERNEL,
    DivergenceError,
    RecoveryProblem,
    jacobian,
    match_components,
    refine,
    residual,
    run_recovery_demo,
    _mixture,
    _pack,
    _split,
    gauge_directions,
)
from momentlab.tangent import sample_params
from oracles import jacobian_by_component, random_rational_params, residual_by_component


def make_problem(n, m, degrees, free_weights=False, seed=3):
    params = sample_params(seed, n, m)
    truth = MixtureParams.uniform(params)
    targets = {d: mixture_moment(truth, d).convert(RR) for d in degrees}
    return truth, RecoveryProblem.make(targets, m, free_weights)


def test_residual_zero_at_truth():
    truth, problem = make_problem(3, 2, (6,))
    assert np.allclose(residual(truth, problem), 0.0)


def test_residual_gauge_invariance_single_degree():
    truth, problem = make_problem(3, 2, (6,))
    scaled = []
    for i, (w, p) in enumerate(truth.components):
        if i == 0:
            t = Fraction(3, 2)
            # weight times t^-6 against parameters scaled by the gauge
            scaled.append((Fraction(w) / t**6, p.scale_gauge(t)))
        else:
            scaled.append((w, p))
    gauge = MixtureParams(tuple(scaled))
    assert np.allclose(residual(gauge, problem), 0.0, atol=1e-9)

    # with both degrees 4 and 6 the same scaling leaves a real residual
    truth2, problem2 = make_problem(3, 2, (4, 6))
    gauge2 = MixtureParams(tuple(
        (Fraction(w) / Fraction(3, 2) ** 6, p.scale_gauge(Fraction(3, 2)))
        if i == 0 else (w, p)
        for i, (w, p) in enumerate(truth2.components)
    ))
    assert np.linalg.norm(residual(gauge2, problem2)) > 1.0


def _random_mixture(rng, n, m, exact):
    # small rationals with denominators up to 4, or floats with full mantissas
    comps = []
    for _ in range(m):
        if exact:
            mean, quad = random_rational_params(rng, n)
            weight = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            comps.append((weight, GaussianParams.make(mean, quad, QQ)))
        else:
            mean, quad = rng.standard_normal(n), rng.standard_normal(n * (n + 1) // 2)
            comps.append((float(rng.random()), GaussianParams.make(mean, quad, RR)))
    return MixtureParams(tuple(comps))


def _random_target(rng, n, d, exact):
    size = monomial_count(n, d)
    if exact:
        coeffs = [Fraction(int(a), int(b))
                  for a, b in zip(rng.integers(-99, 100, size), rng.integers(1, 7, size))]
        return DenseForm(n, d, QQ, tuple(coeffs))
    return DenseForm(n, d, RR, tuple(rng.standard_normal(size).tolist()))


@pytest.mark.parametrize("exact", [True, False], ids=["QQ", "RR"])
def test_stacked_residual_and_jacobian_match_the_per_component_references(exact):
    # the stacked evaluation against the per-component loops it replaced:
    # the same residual bytes (each component's product, summed in component
    # order), and the same Jacobian, exactly over QQ and byte for byte, in
    # the same memory layout, over RR
    rng = np.random.default_rng(17)
    for n in range(1, 5):
        for m in range(1, 5):
            mix = _random_mixture(rng, n, m, exact)
            for degrees in ((6,), (4, 6), (3, 5)):
                targets = {d: _random_target(rng, n, d, exact) for d in degrees}
                for free_weights in (False, True):
                    problem = RecoveryProblem.make(targets, m, free_weights)
                    case = (n, m, degrees, free_weights)
                    got, want = residual(mix, problem), residual_by_component(mix, problem)
                    assert got.tobytes() == want.tobytes(), case
                    got, want = jacobian(mix, problem), jacobian_by_component(mix, problem)
                    layout = [(a.dtype, a.shape, a.flags.c_contiguous, a.flags.f_contiguous)
                              for a in (got, want)]
                    assert layout[0] == layout[1], case
                    if exact:
                        assert got.dtype == object and np.array_equal(got, want), case
                    else:
                        assert got.tobytes() == want.tobytes(), case


def test_refine_evaluates_from_the_packed_vector(monkeypatch):
    # each trial computes the forms of all components by one stacked
    # recurrence, the Jacobian reuses the forms of the accepted point, and
    # one MixtureParams is built, at the end
    import momentlab.recovery as recovery

    truth, problem = make_problem(3, 4, (4, 6), free_weights=True, seed=8)
    calls = []
    real = recovery.stacked_moment_forms
    monkeypatch.setattr(recovery, "stacked_moment_forms",
                        lambda mean, *rest: calls.append(len(mean)) or real(mean, *rest))
    x = _pack(truth.convert(RR), True)
    weights = np.full(4, 0.25)
    init = _mixture(*_split(x + 1e-4 * np.random.default_rng(8).standard_normal(x.shape), 3,
                            weights, True))
    mixtures = []
    monkeypatch.setattr(recovery, "_mixture", lambda *args: mixtures.append(1) or _mixture(*args))
    result = refine(init, problem, truth=truth.convert(RR))
    assert result.converged and result.iterations > 1
    assert calls == [4] * (result.iterations + 1)
    assert mixtures == [1]


def test_jacobian_matches_central_differences():
    truth, problem = make_problem(3, 2, (6,), seed=11)
    mix = truth.convert(RR)
    jac = np.array(jacobian(mix, problem), dtype=float)
    x0 = _pack(mix, problem.free_weights)
    weights = np.array([w for w, _ in mix.components])
    h = 1e-7
    worst = 0.0
    for col in range(x0.size):
        xp = x0.copy()
        xp[col] += h
        xm = x0.copy()
        xm[col] -= h
        rp = residual(_mixture(*_split(xp, 3, weights, False)), problem)
        rm = residual(_mixture(*_split(xm, 3, weights, False)), problem)
        fd = (rp - rm) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(jac[:, col]))))
        worst = max(worst, float(np.max(np.abs(fd - jac[:, col]))) / scale)
    assert worst <= 1e-6


def test_jacobian_uniform_weights_full_column_rank():
    # with weights fixed, degree-6 alone pins the parameters locally
    for n, m in ((3, 2), (4, 3), (3, 3)):
        mix = ml_uniform_mixture(31 + n + m, n, m)
        problem = RecoveryProblem.make(
            {6: mixture_moment(mix, 6)}, m, free_weights=False
        )
        jac = jacobian(mix, problem)
        assert rank_consensus(jac).rank == len(jac[0])


def ml_uniform_mixture(seed, n, m):
    return MixtureParams.uniform(sample_params(seed, n, m))


def test_jacobian_gauge_kernel_dimension():
    for n, m in ((3, 2), (4, 3)):
        params = sample_params(21 + n, n, m)
        mix = MixtureParams.uniform(params)
        single = RecoveryProblem.make(
            {6: mixture_moment(mix, 6)}, m, free_weights=True
        )
        jac = jacobian(mix, single)
        # the gauge directions span an m-dimensional kernel over Q, so the
        # rank is at most cols - m, and one prime reaches that bound
        directions = gauge_directions(mix, 6)
        assert not np.any(jac @ directions)
        cols = len(jac[0])
        report = rank_consensus(jac, upper=cols - m, upper_reason=GAUGE_KERNEL)
        assert report.certified and len(report.engines) == 1
        assert cols - report.rank == m
        both = RecoveryProblem.make(
            {4: mixture_moment(mix, 4), 6: mixture_moment(mix, 6)}, m, free_weights=True
        )
        jac2 = jacobian(mix, both)
        assert rank_consensus(jac2).rank == len(jac2[0])


def test_refine_from_truth_is_instant():
    truth, problem = make_problem(3, 2, (6,))
    result = refine(truth, problem, truth=truth.convert(RR))
    assert result.converged
    assert result.iterations <= 1
    assert result.matched_error <= 1e-9


def test_refine_from_perturbation():
    result, truth = run_recovery_demo(n=3, m=2, degrees=(6,), seed=42, perturb=1e-3)
    assert result.converged
    assert result.iterations <= 50
    assert result.matched_error <= 1e-8
    assert result.residual_norm <= 1e-6


def test_refine_two_degrees_free_weights_stops_at_the_truth():
    # with one global residual scale the degree-6 norm hid the degree-4
    # residual, and seeds 12, 15, 16, 17 and 22 stopped as converged with a
    # matched error above 1e-8
    for seed in range(1, 31):
        result, _ = run_recovery_demo(
            n=4, m=3, degrees=(4, 6), free_weights=True, seed=seed
        )
        assert result.converged, seed
        assert result.matched_error <= 1e-8, seed


def test_refine_free_weights_single_degree_reaches_gauge_orbit():
    # the iteration may drift along the gauge, but the weighted component
    # forms w_i * s_6 must reproduce the truth's, up to permutation
    result, truth = run_recovery_demo(
        n=3, m=2, degrees=(6,), free_weights=True, seed=4, perturb=1e-4
    )
    assert result.converged
    found_forms = [
        np.array([float(w) * float(c) for c in moment_form(p, 6).coeffs])
        for w, p in result.mixture.components
    ]
    truth_forms = [
        np.array([float(w) * float(c) for c in moment_form(p, 6).coeffs])
        for w, p in truth.components
    ]
    for tf in truth_forms:
        dist = min(np.max(np.abs(tf - ff)) for ff in found_forms)
        assert dist <= 1e-5 * max(1.0, float(np.max(np.abs(tf))))


def test_refine_divergence_detected():
    # an unreachable target for a single component forces a residual floor
    truth, _ = make_problem(3, 1, (6,), seed=13)
    other = MixtureParams.uniform(sample_params(14, 3, 2))
    unreachable = RecoveryProblem.make(
        {6: mixture_moment(other, 6).convert(RR)}, 1, free_weights=False
    )
    with pytest.raises(DivergenceError):
        refine(truth, unreachable)


def test_match_components_identity_swap_noise():
    truth, _ = make_problem(3, 2, (6,))
    truth_f = truth.convert(RR)
    res = match_components(truth_f, truth_f)
    assert res.permutation == (0, 1) and res.max_error == 0.0
    swapped = MixtureParams(tuple(reversed(truth_f.components)))
    res = match_components(swapped, truth_f)
    assert res.permutation == (1, 0) and res.max_error == 0.0
    noisy = MixtureParams(tuple(
        (w, p.__class__(p.n, p.ring,
                        tuple(v + 1e-6 for v in p.mean), p.quad))
        for w, p in truth_f.components
    ))
    res = match_components(noisy, truth_f)
    assert res.permutation == (0, 1)
    assert res.max_error == pytest.approx(1e-6, rel=1e-3)
    # a NaN parameter is a NaN error, not a perfect match
    lost = MixtureParams(tuple(
        (w, p.__class__(p.n, p.ring, (float("nan"),) + p.mean[1:], p.quad))
        for w, p in truth_f.components
    ))
    assert np.isnan(match_components(lost, truth_f).max_error)


def test_recovery_demo_refuses_a_repeated_degree():
    # the targets are keyed by degree, so a repeat would otherwise fold into
    # one target and recover as (6,) does
    for degrees, repeated in (((6, 6), 6), ((4, 6, 4), 4), ((6, 4, 6, 4), 4)):
        with pytest.raises(ValueError, match=f"target degree {repeated} is repeated"):
            run_recovery_demo(2, 1, degrees)


def test_problem_validation():
    truth, problem = make_problem(3, 2, (6,))
    with pytest.raises(ValueError):
        RecoveryProblem.make({}, 2)
    with pytest.raises(ValueError):
        RecoveryProblem.make({5: mixture_moment(truth, 6)}, 2)
    bad = MixtureParams.uniform(sample_params(1, 2, 2))
    with pytest.raises(ValueError):
        residual(bad, problem)
