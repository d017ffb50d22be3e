"""Parameter recovery from exact moment forms.

Recovery is local: a damped Gauss-Newton iteration refines an
initialization near the truth, driving the coefficient residual of the
target moment forms to zero.  The analytic Jacobian comes from the
directional derivatives of the moment map; with free mixing weights and a
single target degree it is rank-deficient by exactly one gauge direction
per component (the rescaling that trades weight against parameter scale),
which is why weighted recovery needs two target degrees.

Covariance iterates stay symmetric because only the upper triangle is
parametrized; positive-definiteness is deliberately not enforced, since
degenerate and complex-like covariances are legitimate points of the
moment variety.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .moments import GaussianParams, MixtureParams, mixture_moment, moment_forms
from .poly import RR, DenseForm, quadratic_pairs
from .tangent import differential_weights, generator_matrix, sample_params

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
        if not targets:
            raise ValueError("need at least one target degree")
        items = sorted(targets.items())
        return cls(items[0][1].n, m, tuple(items), weights_mode)

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
        comps = []
        for w, p in self.mixture.components:
            comps.append({
                "weight": float(w),
                "mean": [float(v) for v in p.mean],
                "sigma_upper": [float(v) for v in p.quad],
            })
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "matched_error": self.matched_error,
            "components": comps,
        }


def residual(mix: MixtureParams, problem: RecoveryProblem) -> np.ndarray:
    """Float coefficient residuals, target degrees concatenated in order."""
    if mix.n != problem.n or mix.m != problem.m:
        raise ValueError("mixture shape does not match the problem")
    mix = mix.convert(RR)
    top = max(problem.degrees)
    forms = [(w, moment_forms(p, top)) for w, p in mix.components]
    return np.concatenate([
        sum(w * f[d] for w, f in forms) - np.array(target.coeffs, dtype=np.float64)
        for d, target in problem.targets
    ])


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
    if mix.n != problem.n or mix.m != problem.m:
        raise ValueError("mixture shape does not match the problem")
    n = mix.n
    off_diagonal = np.array([1] * n + [1 if j == k else 2 for j, k in quadratic_pairs(n)],
                            dtype=object if mix.ring.exact else np.float64)
    top = max(problem.degrees)
    blocks = []
    for weight, p in mix.components:
        forms = moment_forms(p, top)
        rows = []
        for d in problem.degrees:
            scale = weight * differential_weights(n, d) * off_diagonal
            cols = [(generator_matrix(forms, n, d) * scale[:, None]).T]
            if problem.free_weights:
                cols.append(forms[d][:, None])
            rows.append(np.hstack(cols))
        blocks.append(np.vstack(rows))
    return np.hstack(blocks)


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
    out = []
    for w, p in mix.components:
        out.extend(float(v) for v in p.mean)
        out.extend(float(v) for v in p.quad)
        if free_weights:
            out.append(float(w))
    return np.array(out)


def _unpack(
    x: np.ndarray, n: int, m: int, free_weights: bool, fixed_weights: list[float]
) -> MixtureParams:
    per = n + n * (n + 1) // 2 + (1 if free_weights else 0)
    comps = []
    for i in range(m):
        chunk = x[i * per:(i + 1) * per]
        mean = tuple(float(v) for v in chunk[:n])
        quad = tuple(float(v) for v in chunk[n:n + n * (n + 1) // 2])
        w = float(chunk[-1]) if free_weights else fixed_weights[i]
        comps.append((w, GaussianParams(n, RR, mean, quad)))
    return MixtureParams(tuple(comps))


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
    residual norm.
    """
    if init.n != problem.n or init.m != problem.m:
        raise ValueError("initialization shape does not match the problem")
    free = problem.free_weights
    mix = init.convert(RR)
    fixed_weights = [float(w) for w, _ in mix.components]
    x = _pack(mix, free)
    row_scale = np.concatenate([
        np.full(len(t.coeffs), 1.0 / max(1.0, float(np.linalg.norm(np.array(t.coeffs, float)))))
        for _, t in problem.targets
    ])
    r = residual(mix, problem)
    rnorm = float(np.linalg.norm(row_scale * r))
    lam = damping
    iterations = 0
    rejections = 0
    while rnorm > rel_tol and iterations < max_iterations:
        jac = row_scale[:, None] * jacobian(mix, problem)
        jtj = jac.T @ jac
        grad = jac.T @ (row_scale * r)
        diag = np.clip(np.diag(jtj), 1e-12, None)
        iterations += 1
        try:
            step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
        except np.linalg.LinAlgError:
            lam *= 4.0
            continue
        trial_x = x + step
        trial_mix = _unpack(trial_x, problem.n, problem.m, free, fixed_weights)
        trial_r = residual(trial_mix, problem)
        trial_norm = float(np.linalg.norm(row_scale * trial_r))
        if trial_norm < rnorm:
            x, mix, r, rnorm = trial_x, trial_mix, trial_r, trial_norm
            lam = max(lam * 0.5, 1e-15)
            rejections = 0
        else:
            lam *= 4.0
            rejections += 1
            if rejections >= 10:
                raise DivergenceError(
                    f"relative residual stuck at {rnorm:.3e} after 10 rejected steps"
                )
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


def _component_vector(weight, params: GaussianParams) -> np.ndarray:
    return np.array(
        [float(weight)]
        + [float(v) for v in params.mean]
        + [float(v) for v in params.quad]
    )


def match_components(found: MixtureParams, truth: MixtureParams) -> MatchResult:
    """Greedy nearest-neighbour matching on (weight, mean, Sigma) vectors."""
    if found.m != truth.m:
        raise ValueError("component counts differ")
    fv = [_component_vector(w, p) for w, p in found.components]
    tv = [_component_vector(w, p) for w, p in truth.components]
    m = len(fv)
    dists = sorted(
        ((float(np.linalg.norm(fv[i] - tv[j])), i, j) for i in range(m) for j in range(m))
    )
    perm: dict[int, int] = {}
    used_truth: set[int] = set()
    for _, i, j in dists:
        if i in perm or j in used_truth:
            continue
        perm[i] = j
        used_truth.add(j)
        if len(perm) == m:
            break
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
    params = sample_params(seed, n, m)
    rng = np.random.default_rng(seed + 1)
    if weights_mode == WEIGHTS_FREE:
        raw = [int(v) for v in rng.integers(1, 6, m)]
        weights = [Fraction(v, sum(raw)) for v in raw]
        truth = MixtureParams.make(weights, params)
    else:
        truth = MixtureParams.uniform(params)
    targets = {d: mixture_moment(truth, d).convert(RR) for d in degrees}
    problem = RecoveryProblem.make(targets, m, weights_mode)
    truth_f = truth.convert(RR)
    x = _pack(truth_f, problem.free_weights)
    x = x + perturb * rng.standard_normal(x.shape)
    fixed = [float(w) for w, _ in truth_f.components]
    init = _unpack(x, n, m, problem.free_weights, fixed)
    result = refine(init, problem, truth=truth_f)
    return result, truth_f
