"""Parameter recovery from exact moment forms.

Recovery is local: a damped Gauss-Newton iteration refines an
initialization near the truth, driving the coefficient residual of the
target moment forms to zero.  The analytic Jacobian comes from the
directional derivatives of the moment map; with free mixing weights and a
single target degree it is rank-deficient by exactly one gauge direction
per component (the rescaling that trades weight against parameter scale),
which is why weighted recovery needs two target degrees.

Every evaluation runs on stacked arrays of the components, with no loop
over them: one stacked_moment_forms recurrence gives all their forms, and
the Jacobian is one scatter of them by tangent.generator_matrix.  refine
iterates on the packed parameter vector; the demo's targets are the
truth's integer forms summed exactly with the weights, rounded once.

Covariance iterates stay symmetric because only the upper triangle is
parametrized; positive-definiteness is deliberately not enforced, since
degenerate and complex-like covariances are legitimate points of the
moment variety.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import dim_gm
from .moments import (
    GaussianParams, MixtureParams, point_arrays, quadratic_weights, stacked_moment_forms,
)
from .poly import RR, DenseForm, monomial_count
from .tangent import differential_weights, generator_matrix, sample_arrays

WEIGHTS_UNIFORM = "uniform-fixed"
WEIGHTS_FREE = "free"
# The upper_reason of a free-weight Jacobian rank bounded by gauge_directions.
GAUGE_KERNEL = "gauge kernel"


class DivergenceError(RuntimeError):
    """The residual grew for ten consecutive trial steps."""


@dataclass(frozen=True)
class RecoveryProblem:
    """Targets (one DenseForm per degree) plus the component count."""

    n: int
    m: int
    targets: tuple[tuple[int, DenseForm], ...]  # sorted by degree
    weights_mode: str = WEIGHTS_UNIFORM

    def __post_init__(self):
        if not self.targets:
            raise ValueError("need at least one target degree")
        degrees = [d for d, _ in self.targets]
        if len(set(degrees)) != len(degrees):
            raise ValueError("target degrees must be distinct")
        if min(degrees) < 2:
            raise ValueError(f"target degrees must be at least 2, got {min(degrees)}")
        for d, form in self.targets:
            if form.n != self.n:
                raise ValueError("target variable count mismatch")
            if form.d != d:
                raise ValueError(f"target keyed {d} has degree {form.d}")
        if self.weights_mode not in (WEIGHTS_UNIFORM, WEIGHTS_FREE):
            raise ValueError(f"unknown weights mode {self.weights_mode!r}")

    @classmethod
    def make(
        cls, targets: dict[int, DenseForm], m: int, weights_mode: str = WEIGHTS_UNIFORM
    ) -> "RecoveryProblem":
        items = sorted(targets.items())  # none: __post_init__ refuses them
        return cls(items[0][1].n if items else 0, m, tuple(items), weights_mode)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.targets)

    @property
    def free_weights(self) -> bool:
        return self.weights_mode == WEIGHTS_FREE


@dataclass(frozen=True)
class RecoveryResult:
    mixture: MixtureParams
    residual_norm: float
    iterations: int
    converged: bool
    matched_error: float

    def to_dict(self) -> dict:
        comps = [{"weight": float(w), "mean": [float(v) for v in p.mean],
                  "sigma_upper": [float(v) for v in p.quad]} for w, p in self.mixture.components]
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "matched_error": self.matched_error,
            "components": comps,
        }


def _point(mix: MixtureParams, problem: RecoveryProblem) -> tuple[np.ndarray, list]:
    """The components' weights and forms s_0 .. s_top, stacked (see point_arrays)."""
    if mix.n != problem.n or mix.m != problem.m:
        raise ValueError("mixture shape does not match the problem")
    mean, quadratic = point_arrays([p for _, p in mix.components])
    weights = np.array([w for w, _ in mix.components], dtype=mean.dtype)
    return weights, stacked_moment_forms(mean, quadratic, max(problem.degrees))


def _residual(weights: np.ndarray, forms: list, problem: RecoveryProblem) -> np.ndarray:
    # w_i s_d summed in component order (accumulate, unlike sum, never pairs terms)
    return np.concatenate([
        np.add.accumulate(weights[:, None] * forms[d])[-1] - np.array(t.coeffs, dtype=np.float64)
        for d, t in problem.targets
    ])


def _jacobian(weights: np.ndarray, forms: list, problem: RecoveryProblem) -> np.ndarray:
    """jacobian from the components' weights and stacked forms, in the
    weights' dtype.  Its layout picks the BLAS kernels of refine, and so the
    iterates' last bits: F-ordered, but C-ordered with one variable."""
    n, m = problem.n, problem.m
    generators = dim_gm(n)
    per = generators + int(problem.free_weights)
    # Sigma[j,k] enters q as 2 X_j X_k off the diagonal
    off_diagonal = np.concatenate([np.ones(n, dtype=np.int64), quadratic_weights(n)])
    sizes = [monomial_count(n, d) for d in problem.degrees]
    columns = np.empty((m, per, sum(sizes)), weights.dtype)
    for d, stop in zip(problem.degrees, np.cumsum(sizes)):
        block = columns[:, :, stop - monomial_count(n, d):stop]
        generator_matrix(forms, n, d, out=block[:, :generators])
        block[:, :generators] *= (weights[:, None] * differential_weights(n, d)
                                  * off_diagonal)[:, :, None]
        if problem.free_weights:
            block[:, generators] = forms[d]
    jac = columns.reshape(m * per, -1).T
    return np.ascontiguousarray(jac) if n == 1 else jac


def residual(mix: MixtureParams, problem: RecoveryProblem) -> np.ndarray:
    """Float coefficient residuals, target degrees concatenated in order."""
    return _residual(*_point(mix.convert(RR), problem), problem)


def jacobian(mix: MixtureParams, problem: RecoveryProblem) -> np.ndarray:
    """Analytic Jacobian of the residual in the ring of the mixture.

    Rows run over target degrees then monomials; columns per component are
    the mean entries, the Sigma upper triangle, then the weight when free.
    The Sigma columns are the quadratic generator rows times d(d-1)/2, and
    twice that off the diagonal, where Sigma[j,k] enters q as 2 X_j X_k.
    Passing an exact mixture yields an exact (object) matrix suitable for
    the consensus rank engine, whatever the dtype of its moment forms; a
    float mixture yields float64.
    """
    return _jacobian(*_point(mix, problem), problem)


def gauge_directions(mix: MixtureParams, d: int) -> np.ndarray:
    """The m gauge directions that the free-weight Jacobian at the single
    degree d sends to zero, as the columns of a matrix.

    s_d(t l, t^2 Sigma) = t^d s_d(l, Sigma), so scaling component i as
    (t l_i, t^2 Sigma_i, t^-d w_i) leaves its w_i s_d unchanged: the
    direction (l_i, 2 Sigma_i, -d w_i) in its column block of jacobian
    (mean, Sigma upper triangle, weight).  The blocks are disjoint and each
    direction has weight entry -d w_i, so the m columns are independent
    whenever no weight is zero.
    """
    n = mix.n
    per = n + n * (n + 1) // 2 + 1
    directions = np.zeros((mix.m * per, mix.m), dtype=object if mix.ring.exact else np.float64)
    for i, (w, p) in enumerate(mix.components):
        directions[i * per:(i + 1) * per, i] = [*p.mean, *(2 * s for s in p.quad), -d * w]
    return directions


# ---------------------------------------------------------------------------
# Packing between parameter vectors and mixtures


def _pack(mix: MixtureParams, free_weights: bool) -> np.ndarray:
    # per component: the mean, Sigma's upper triangle, then the weight when free
    rows = [[*p.mean, *p.quad] + ([w] if free_weights else []) for w, p in mix.components]
    return np.array(rows, dtype=np.float64).ravel()


def _split(x: np.ndarray, n: int, weights: np.ndarray, free_weights: bool) -> tuple:
    # the weights (those given, unless free), means and Sigma upper triangles
    block = x.reshape(len(weights), -1)
    return block[:, -1] if free_weights else weights, block[:, :n], block[:, n:dim_gm(n)]


def _mixture(weights: np.ndarray, mean: np.ndarray, sigma: np.ndarray) -> MixtureParams:
    rows = zip(weights.tolist(), mean.tolist(), sigma.tolist())
    return MixtureParams(tuple((w, GaussianParams(len(a), RR, tuple(a), tuple(s)))
                               for w, a, s in rows))


# ---------------------------------------------------------------------------
# Damped Gauss-Newton refinement


def refine(
    init: MixtureParams,
    problem: RecoveryProblem,
    truth: MixtureParams | None = None,
    max_iterations: int = 200,
    rel_tol: float = 1e-12,
    damping: float = 1e-3,
) -> RecoveryResult:
    """Levenberg-damped Gauss-Newton from an initialization near the truth.

    Each target degree's residual rows are divided by that degree's target
    coefficient norm (at least 1), in the Gauss-Newton system and in the
    stopping test alike, so a large degree cannot hide the residual of a
    small one.  Stops when that scaled residual norm falls below rel_tol,
    or after max_iterations trial steps.  The damping factor halves after
    an accepted step and quadruples after a rejected one; ten consecutive
    rejections raise DivergenceError.  The result reports the unscaled
    residual norm.  Each trial's forms give its residual and, once the
    trial is accepted, the next Jacobian.
    """
    if init.n != problem.n or init.m != problem.m:
        raise ValueError("initialization shape does not match the problem")
    n, free = problem.n, problem.free_weights
    init = init.convert(RR)
    fixed = np.array([w for w, _ in init.components])
    row_scale = np.concatenate([
        np.full(len(t.coeffs), 1.0 / max(1.0, float(np.linalg.norm(np.array(t.coeffs, float)))))
        for _, t in problem.targets
    ])

    def evaluate(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        weights, mean, sigma = _split(x, n, fixed, free)
        forms = stacked_moment_forms(mean, sigma * quadratic_weights(n), max(problem.degrees))
        return weights, forms, _residual(weights, forms, problem)

    x = _pack(init, free)
    weights, forms, r = evaluate(x)
    rnorm = float(np.linalg.norm(row_scale * r))
    lam = damping
    iterations = 0
    rejections = 0
    while rnorm > rel_tol and iterations < max_iterations:
        jac = _jacobian(weights, forms, problem)
        jac *= row_scale[:, None]
        jtj = jac.T @ jac
        grad = jac.T @ (row_scale * r)
        del jac  # the damped system and its solve hold three copies of jtj
        diag = np.clip(np.diag(jtj), 1e-12, None)
        iterations += 1
        try:
            step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
        except np.linalg.LinAlgError:
            lam *= 4.0
            continue
        trial_x = x + step
        trial = evaluate(trial_x)
        trial_norm = float(np.linalg.norm(row_scale * trial[2]))
        if trial_norm < rnorm:
            x, (weights, forms, r), rnorm = trial_x, trial, trial_norm
            lam = max(lam * 0.5, 1e-15)
            rejections = 0
        else:
            lam *= 4.0
            rejections += 1
            if rejections >= 10:
                raise DivergenceError(
                    f"relative residual stuck at {rnorm:.3e} after 10 rejected steps"
                )
    mix = _mixture(*_split(x, n, fixed, free))
    matched = float("nan")
    if truth is not None:
        matched = match_components(mix, truth).max_error
    return RecoveryResult(mix, float(np.linalg.norm(r)), iterations, rnorm <= rel_tol, matched)


# ---------------------------------------------------------------------------
# Component matching


@dataclass(frozen=True)
class MatchResult:
    permutation: tuple[int, ...]  # permutation[i] = truth index matched to found i
    max_error: float


def match_components(found: MixtureParams, truth: MixtureParams) -> MatchResult:
    """Greedy nearest-neighbour matching on (weight, mean, Sigma) vectors."""
    if found.m != truth.m:
        raise ValueError("component counts differ")
    fv, tv = (np.array([[w, *p.mean, *p.quad] for w, p in mix.components], dtype=np.float64)
              for mix in (found, truth))
    m = len(fv)
    dists = sorted(
        ((float(np.linalg.norm(fv[i] - tv[j])), i, j) for i in range(m) for j in range(m))
    )
    perm: dict[int, int] = {}
    for _, i, j in dists:
        if i not in perm and j not in perm.values():
            perm[i] = j
    # np.max, unlike max, keeps a NaN error
    max_err = float(np.max([np.abs(fv[i] - tv[j]) for i, j in perm.items()], initial=0.0))
    return MatchResult(tuple(perm[i] for i in range(m)), max_err)


# ---------------------------------------------------------------------------
# End-to-end demo used by the CLI and the acceptance suite


def run_recovery_demo(
    n: int = 3,
    m: int = 2,
    degrees: tuple[int, ...] = (6,),
    weights_mode: str = WEIGHTS_UNIFORM,
    seed: int = 42,
    perturb: float = 1e-3,
) -> tuple[RecoveryResult, MixtureParams]:
    """Recover a random integer-parameter mixture from its exact moments.

    Builds the ground truth with the shared integer sampler, forms exact
    targets, perturbs the truth by Gaussian noise of the given size, and
    refines.  Returns the result plus the truth for inspection.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if not np.isfinite(perturb):
        raise ValueError(f"perturbation must be finite, got {perturb}")
    mean, sigma = sample_arrays(seed, n, m)
    rng = np.random.default_rng(seed + 1)
    # the weights raw_i / sum(raw)
    raw = rng.integers(1, 6, m) if weights_mode == WEIGHTS_FREE else np.ones(m, dtype=np.int64)
    # the exact forms sum_i raw_i s_d(i) / sum(raw), each rounded to float
    # once: int / int is correctly rounded, as float(Fraction) is
    forms = stacked_moment_forms(mean, sigma * quadratic_weights(n), max(degrees, default=0))
    targets = {d: DenseForm(n, d, RR, tuple(
        (raw.astype(object) @ forms[d].astype(object) / int(raw.sum())).tolist()))
        for d in degrees}
    problem = RecoveryProblem.make(targets, m, weights_mode)
    weights = raw / raw.sum()
    truth = _mixture(weights, mean.astype(np.float64), sigma.astype(np.float64))
    x = _pack(truth, problem.free_weights)
    x = x + perturb * rng.standard_normal(x.shape)
    result = refine(_mixture(*_split(x, n, weights, problem.free_weights)), problem, truth=truth)
    return result, truth
