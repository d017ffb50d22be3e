"""Gaussian moment forms and their structural identities.

The degree-d moment form of a Gaussian with linear part l = <mean, X> and
quadratic part q = X^T Sigma X is

    sum_{k=0..d//2}  c_k(d) * q^k * l^(d-2k),      c_k(d) = d! / (2^k k! (d-2k)!)

scaled so the coefficient of l^d is 1.  The d-homogeneous part of the
moment generating function exp(l + q/2) equals this form divided by d!;
all APIs here return the undivided normalization and tests carry the d!
factor explicitly where the two constructions are compared.

The forms s_0 .. s_d of a point come from the recurrence s_k = l s_{k-1}
+ (k-1) q s_{k-2}, run once over a stack of points (stacked_moment_forms);
moment_forms is its one-point case.  The recurrence runs exactly (the
public API and recovery), or mod a prime for every certificate, which
then holds only int64 residues: with l and q kept as their small signed
integers and every step reduced, no partial sum leaves int64.

Quadratic data is stored Sigma-centric: the upper triangle of the symmetric
matrix, in the colex order of degree-2 monomials.  The monomial X_j X_k
(j < k) of q carries coefficient 2*Sigma[j,k]; diagonal entries map onto
the X_j^2 coefficients unchanged.  The stacked forms take Sigma as sampled
and form q's coefficients themselves (quadratic_weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt
from typing import Sequence

import numpy as np

from .poly import (
    QQ,
    RR,
    DenseForm,
    Ring,
    monomial_shifts,
    monomials,
    multiply,
    quadratic_pairs,
)


def duonomial(d: int, k: int) -> int:
    """d! / (k! (d-2k)!), the coefficient combinatorics of the moment forms."""
    if k < 0 or 2 * k > d:
        raise ValueError(f"need 0 <= 2k <= d, got d={d}, k={k}")
    return factorial(d) // (factorial(k) * factorial(d - 2 * k))


def bivariate_coeffs(d: int) -> tuple[int, ...]:
    """Coefficients c_k = 2^{-k} * duonomial(d, k) for k = 0..d//2.

    Each c_k counts the ways to pick k disjoint pairs from d items, so the
    division is always exact.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    out = []
    for k in range(d // 2 + 1):
        num = duonomial(d, k)
        den = 2**k
        if num % den:
            raise ArithmeticError(f"2^{k} does not divide duonomial({d},{k})")
        out.append(num // den)
    return tuple(out)


@dataclass(frozen=True)
class BivariateMomentPoly:
    """The degree-d moment form viewed as a polynomial in (l, q)."""

    d: int
    coeffs: tuple[int, ...]

    @classmethod
    def of_degree(cls, d: int) -> "BivariateMomentPoly":
        return cls(d, bivariate_coeffs(d))

    def render(self) -> str:
        """Human-readable expansion, e.g. 'l^6 + 15 q l^4 + 45 q^2 l^2 + 15 q^3'."""
        terms = []
        for k, c in enumerate(self.coeffs):
            le = self.d - 2 * k
            factors = []
            if c != 1 or (le == 0 and k == 0):
                factors.append(str(c))
            if k:
                factors.append("q" if k == 1 else f"q^{k}")
            if le:
                factors.append("l" if le == 1 else f"l^{le}")
            terms.append(" ".join(factors) if factors else "1")
        return " + ".join(terms)


# ---------------------------------------------------------------------------
# Parameter points


@dataclass(frozen=True)
class GaussianParams:
    """A parameter point (mean, Sigma) of the degree-d moment map.

    mean: n scalars, the coefficients of the linear part l.
    quad: n(n+1)/2 scalars, the upper triangle of Sigma in the colex order
          of degree-2 monomials (see quadratic_pairs).
    """

    n: int
    ring: Ring
    mean: tuple
    quad: tuple

    def __post_init__(self):
        if len(self.mean) != self.n:
            raise ValueError(f"mean has length {len(self.mean)}, expected {self.n}")
        expected = self.n * (self.n + 1) // 2
        if len(self.quad) != expected:
            raise ValueError(f"quad has length {len(self.quad)}, expected {expected}")

    @classmethod
    def make(cls, mean: Sequence, quad: Sequence, ring: Ring = QQ) -> "GaussianParams":
        return cls(
            len(mean), ring,
            tuple(ring.coerce(v) for v in mean),
            tuple(ring.coerce(v) for v in quad),
        )

    @classmethod
    def from_forms(cls, linear: DenseForm, quadratic: DenseForm) -> "GaussianParams":
        """Recover (mean, Sigma) from the forms l and q = X^T Sigma X."""
        if linear.d != 1 or quadratic.d != 2:
            raise ValueError("need a degree-1 and a degree-2 form")
        if linear.n != quadratic.n or linear.ring != quadratic.ring:
            raise ValueError("forms must share variables and ring")
        ring = linear.ring
        quad = []
        for (j, k), c in zip(quadratic_pairs(linear.n), quadratic.coeffs):
            quad.append(c if j == k else ring.div(c, 2))
        return cls(linear.n, ring, tuple(linear.coeffs), tuple(quad))

    def linear_form(self) -> DenseForm:
        return DenseForm(self.n, 1, self.ring, self.mean)

    def quadratic_form(self) -> DenseForm:
        pairs = quadratic_pairs(self.n)
        return DenseForm(self.n, 2, self.ring,
                         tuple(s if j == k else s + s for (j, k), s in zip(pairs, self.quad)))

    def sigma_matrix(self) -> list[list]:
        out = [[self.ring.zero] * self.n for _ in range(self.n)]
        for (j, k), s in zip(quadratic_pairs(self.n), self.quad):
            out[j][k] = s
            out[k][j] = s
        return out

    def convert(self, ring: Ring) -> "GaussianParams":
        if ring is self.ring:
            return self
        return GaussianParams(
            self.n, ring,
            tuple(ring.coerce(v) for v in self.mean),
            tuple(ring.coerce(v) for v in self.quad),
        )

    def scale_gauge(self, t) -> "GaussianParams":
        """Apply the rescaling (l, Sigma) -> (t*l, t^2*Sigma)."""
        ring = self.ring
        t = ring.coerce(t)
        t2 = t * t
        return GaussianParams(
            self.n, ring,
            tuple(v * t for v in self.mean),
            tuple(v * t2 for v in self.quad),
        )


@dataclass(frozen=True)
class MixtureParams:
    """Weighted list of Gaussian parameter points sharing n and ring."""

    components: tuple  # of (weight, GaussianParams)

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture must have at least one component")
        first = self.components[0][1]
        for _, p in self.components:
            if p.n != first.n or p.ring != first.ring:
                raise ValueError("components must share variable count and ring")

    @classmethod
    def make(cls, weights: Sequence, params: Sequence[GaussianParams]) -> "MixtureParams":
        if len(weights) != len(params):
            raise ValueError("one weight per component required")
        ring = params[0].ring
        return cls(tuple((ring.coerce(w), p) for w, p in zip(weights, params)))

    @classmethod
    def uniform(cls, params: Sequence[GaussianParams]) -> "MixtureParams":
        ring = params[0].ring
        w = ring.div(ring.one, len(params))
        return cls(tuple((w, p) for p in params))

    @property
    def n(self) -> int:
        return self.components[0][1].n

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def ring(self) -> Ring:
        return self.components[0][1].ring

    def convert(self, ring: Ring) -> "MixtureParams":
        if ring is self.ring:
            return self
        return MixtureParams(
            tuple((ring.coerce(w), p.convert(ring)) for w, p in self.components)
        )


# ---------------------------------------------------------------------------
# Moment forms


def moment_l1_bound(linear_l1: int, quadratic_l1: int, d: int) -> int:
    """A bound on every coefficient the moment-form recurrence computes up
    to degree d, given L = sum |l_i| and Q = sum |q_i| (q's coefficients).

    The l1 norm of coefficients is submultiplicative, so by the recurrence
    s_k = l s_{k-1} + (k-1) q s_{k-2} the norms of s_k are at most
    b_0 = 1, b_1 = L, b_k = L b_{k-1} + (k-1) Q b_{k-2}.  Any partial sum of
    the products l_i * c and (k-1) q_i * c' forming a coefficient of s_k is
    at most b_k in magnitude as well.  Returns max(b_0, .., b_d).
    """
    bounds = [1, linear_l1]
    for k in range(2, d + 1):
        bounds.append(linear_l1 * bounds[k - 1] + (k - 1) * quadratic_l1 * bounds[k - 2])
    return max(bounds[:d + 1])


# moment_l1_bound point by point, over object arrays of the norms
_moment_l1_bounds = np.frompyfunc(moment_l1_bound, 3, 1)


def point_arrays(params: Sequence[GaussianParams]) -> tuple[np.ndarray, np.ndarray]:
    """The means and Sigma upper triangles of points sharing n and ring,
    stacked: m x n and m x n(n+1)/2 arrays, float64 for the float ring and
    object (the points' ints and Fractions) for the rational one."""
    dtype = object if params[0].ring.exact else np.float64
    return (np.array([p.mean for p in params], dtype=dtype),
            np.array([p.quad for p in params], dtype=dtype))


@lru_cache(maxsize=None)
def quadratic_weights(n: int) -> np.ndarray:
    """1 on the diagonal pairs and 2 off it: q's coefficients are Sigma's
    upper triangle times these (see GaussianParams)."""
    weights = np.array([1 if j == k else 2 for j, k in quadratic_pairs(n)], dtype=np.int64)
    weights.flags.writeable = False
    return weights


def forms_dtype(mean: np.ndarray, sigma: np.ndarray, d: int) -> np.dtype:
    """The dtype of stacked_moment_forms(mean, sigma, d), known before they
    are computed: float64 for float points; int64 when every entry is an
    integer and moment_l1_bound, at the l1 norms of l and q, stays below
    2^63 at every point; object otherwise."""
    if mean.dtype.kind == "f":
        return np.dtype(np.float64)
    if mean.dtype == object or sigma.dtype == object:
        if not all(isinstance(v, int) for a in (mean, sigma) for v in a.flat):
            return np.dtype(object)
    linear_l1 = np.abs(mean.astype(object)).sum(axis=1)
    quadratic_l1 = (np.abs(sigma.astype(object)) * quadratic_weights(mean.shape[1])).sum(axis=1)
    bounds = _moment_l1_bounds(linear_l1, quadratic_l1, d)
    return np.dtype(np.int64 if bounds.max() < 2**63 else object)


def stacked_moment_forms(mean: np.ndarray, sigma: np.ndarray, d: int,
                         p: int | None = None) -> list[np.ndarray]:
    """Coefficient arrays of s_0 .. s_d at m points at once: form k is an
    m x dim_forms(n, k) array, row i that of the point with mean mean[i]
    (m x n) and Sigma upper triangle sigma[i] (m x n(n+1)/2, the colex
    order of degree-2 monomials), whose q has the coefficients sigma[i]
    times quadratic_weights(n).

    Runs the recurrence s_k = l*s_{k-1} + (k-1)*q*s_{k-2} (s_0 = 1, s_1 = l)
    once over all points, each product a batched contraction with
    monomial_shifts.  The largest temporary is the shift tensor of s_{d-2}:
    m x n(n+1)/2 x dim_forms(n, d) cells.

    Without a prime the forms are exact, in the dtype forms_dtype gives the
    batch: float64 for float points, int64 when every point's entries are
    integers and moment_l1_bound keeps every value and partial sum below
    2^63, exact object arrays of ints/Fractions otherwise.

    With a prime p the points' entries must be integer arrays, and every
    step is reduced mod p: the forms are int64 residues in [0, p).  l and q
    keep their signed entries, so a step's partial sums, at most n max|l|
    + (k-1) n(n+1)/2 max|q| products of a residue with an entry, stay below
    (n max|l| + (d-1) n(n+1)/2 max|q|) p, which must be below 2^63:
    OverflowError otherwise.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    m, n = mean.shape
    if p is not None and (mean.dtype.kind != "i" or sigma.dtype.kind != "i"):
        raise TypeError(f"residue forms need integer points, got {mean.dtype}, {sigma.dtype}")
    if sigma.dtype.kind == "i" and _max_abs(sigma) >= 2**62:
        sigma = sigma.astype(object)  # q's doubled entries would wrap in int64
    quadratic = sigma * quadratic_weights(n)
    if p is not None:
        bound = n * _max_abs(mean) + (d - 1) * quadratic.shape[1] * _max_abs(quadratic)
        if bound * p >= 2**63:
            raise OverflowError(f"residue forms mod {p} need (n max|l| + (d-1) "
                                f"n(n+1)/2 max|q|) p < 2^63, got {bound} p")
    dtype = forms_dtype(mean, sigma, d) if p is None else np.dtype(np.int64)
    ell = mean.astype(dtype)[:, None, :]
    q = quadratic.astype(dtype)[:, None, :]
    forms = [np.ones((m, 1), dtype=dtype), ell[:, 0] if p is None else ell[:, 0] % p]
    for k in range(2, d + 1):
        form = ((ell @ monomial_shifts(forms[k - 1], n, k - 1, 1))[:, 0]
                + (k - 1) * (q @ monomial_shifts(forms[k - 2], n, k - 2, 2))[:, 0])
        forms.append(form if p is None else form % p)
    return forms[:d + 1]


def _max_abs(a: np.ndarray) -> int:
    """max |a| over an integer array, as a Python int (0 when a is empty)."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def moment_forms(params: GaussianParams, d: int) -> list[np.ndarray]:
    """Coefficient arrays of s_0 .. s_d at a parameter point: the one-point
    case of stacked_moment_forms.  The float ring gives float64 arrays; the
    rational ring gives int64 arrays when the mean and the coefficients of
    q are Python ints under the l1 bound, and object arrays of
    ints/Fractions otherwise."""
    return [f[0] for f in stacked_moment_forms(*point_arrays([params]), d)]


def moment_form(params: GaussianParams, d: int) -> DenseForm:
    """The degree-d moment form sum_k c_k q^k l^(d-2k) at a parameter point."""
    coeffs = moment_forms(params, d)[d].tolist()
    return DenseForm.from_coeffs(params.n, d, coeffs, params.ring)


def mixture_moment(mix: MixtureParams, d: int) -> DenseForm:
    """Weighted sum of the component moment forms."""
    total = DenseForm.zero(mix.n, d, mix.ring)
    for w, p in mix.components:
        total = total + moment_form(p, d).scale(w)
    return total


def _rational_root(value: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a positive rational, or None if irrational."""
    value = Fraction(value)
    if value <= 0:
        return None

    def iroot(a: int) -> int | None:
        if k == 1:
            return a
        if k == 2:
            r = isqrt(a)
            return r if r * r == a else None
        # integer Newton iteration; safe for arbitrarily large a
        r = 1 << (-(-a.bit_length() // k))
        while True:
            nxt = ((k - 1) * r + a // r ** (k - 1)) // k
            if nxt >= r:
                break
            r = nxt
        for c in (r - 1, r, r + 1):
            if c >= 1 and c**k == a:
                return c
        return None

    num = iroot(value.numerator)
    den = iroot(value.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def rescale_to_uniform(mix: MixtureParams, d: int) -> MixtureParams:
    """Fold the mixing weights into the parameters, preserving degree-d moments.

    Each component (w, mean, Sigma) becomes (1/m, (mw)^(1/d) mean,
    (mw)^(2/d) Sigma).  Over the rational ring the required roots must
    exist exactly; otherwise the mixture is converted to float mode.
    """
    m = mix.m
    ring = mix.ring
    for w, _ in mix.components:
        if not (w > 0):
            raise ValueError(f"weights must be positive, got {w}")
    if ring.exact:
        roots = [_rational_root(Fraction(w) * m, d) for w, _ in mix.components]
        if all(r is not None for r in roots):
            uniform = ring.div(ring.one, m)
            return MixtureParams(
                tuple(
                    (uniform, p.scale_gauge(r))
                    for r, (_, p) in zip(roots, mix.components)
                )
            )
        mix = mix.convert(RR)
    scaled = []
    for w, p in mix.components:
        t = (float(w) * m) ** (1.0 / d)
        scaled.append((1.0 / m, p.scale_gauge(t)))
    return MixtureParams(tuple(scaled))


# ---------------------------------------------------------------------------
# Structural checks


def euler_recurrence_check(d: int, trials: int = 3, n: int = 3, seed: int = 0) -> bool:
    """Verify that moment_form, which runs s_d = l*s_{d-1} + (d-1)*q*s_{d-2},
    equals the closed form sum_k c_k q^k l^(d-2k) on random exact instances."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        mean = [Fraction(int(a), int(b)) for a, b in
                zip(rng.integers(-9, 10, n), rng.integers(1, 5, n))]
        quad = [Fraction(int(a), int(b)) for a, b in
                zip(rng.integers(-9, 10, n * (n + 1) // 2), rng.integers(1, 5, n * (n + 1) // 2))]
        p = GaussianParams.make(mean, quad)
        ell, q = p.linear_form(), p.quadratic_form()
        ell_pows = [DenseForm(n, 0, QQ, (1,))]
        for _ in range(d):
            ell_pows.append(multiply(ell_pows[-1], ell))
        q_pow = ell_pows[0]
        closed = DenseForm.zero(n, d)
        for k, c in enumerate(bivariate_coeffs(d)):
            if k:
                q_pow = multiply(q_pow, q)
            closed = closed + multiply(q_pow, ell_pows[d - 2 * k]).scale(c)
        if moment_form(p, d) != closed:
            return False
    return True


def sylvester_resultant(f: Sequence, g: Sequence):
    """Resultant of two univariate polynomials given by ascending coefficients.

    Exact over ints/Fractions: builds the Sylvester matrix and evaluates its
    determinant by fraction-free (Bareiss) elimination.
    """
    f = list(f)
    g = list(g)
    while f and not f[-1]:
        f.pop()
    while g and not g[-1]:
        g.pop()
    if not f or not g:
        raise ValueError("resultant of the zero polynomial is undefined")
    df, dg = len(f) - 1, len(g) - 1
    size = df + dg
    if size == 0:
        return 1
    rows = []
    fd = f[::-1]  # descending
    gd = g[::-1]
    for i in range(dg):
        rows.append([0] * i + fd + [0] * (size - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + gd + [0] * (size - dg - 1 - i))
    return _bareiss_det(rows)


def _bareiss_det(rows: list[list]):
    a = [list(map(Fraction, r)) for r in rows]
    size = len(a)
    sign = 1
    prev = Fraction(1)
    for k in range(size - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, size) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    det = sign * a[size - 1][size - 1]
    return int(det) if det.denominator == 1 else det


@dataclass(frozen=True)
class CommonRootReport:
    d: int
    resultant: int
    shares_root: bool


def common_root_check(d: int) -> CommonRootReport:
    """Resultant test: can the degree-(d-1) and degree-(d-2) moment forms
    vanish simultaneously at nonzero (l, q)?

    Works on the dehomogenizations u_{d-1}, u_{d-2} (substitute l=1, q=t
    after stripping one factor of l from odd degrees).  A nonzero resultant
    certifies the two have no common root, hence no simultaneous vanishing.
    """
    if not 4 <= d <= 9:
        raise ValueError(f"supported degree range is 4..9, got {d}")
    # u_k(t) = shat_k(1, t): shat_k strips one factor of l from the odd-degree
    # form, and l = 1, q = t leaves the t^j coefficient c_j(k)
    res = sylvester_resultant(bivariate_coeffs(d - 1), bivariate_coeffs(d - 2))
    return CommonRootReport(d, res, res == 0)


def eisenstein_check(k: int) -> int | None:
    """Largest prime witnessing Eisenstein irreducibility of shat_k(L, 1).

    shat_k(L, 1) has leading coefficient 1 and lower coefficients c_1..c_j
    (j = k//2 for even k, (k-1)//2 for odd).  A witness p divides every
    lower coefficient while p^2 does not divide the constant term.  Returns
    None if no prime witnesses.
    """
    if not 3 <= k <= 8:
        raise ValueError(f"supported range is 3..8, got {k}")
    lower = list(bivariate_coeffs(k))[1:]  # leading c_0 = 1 excluded
    constant = lower[-1]
    g = gcd(*lower)
    witnesses = [p for p in _prime_factors(g) if constant % (p * p) != 0]
    return max(witnesses) if witnesses else None


def _prime_factors(n: int) -> list[int]:
    out = []
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Monomial moments and Monte Carlo validation


def monomial_moments(params: GaussianParams, d: int) -> dict[tuple[int, ...], Fraction]:
    """Raw moments E[Y^alpha] for |alpha| = d, from the moment form.

    The degree-d part of the moment generating function has X^alpha
    coefficient E[Y^alpha] / alpha!, so E[Y^alpha] equals the moment-form
    coefficient times alpha! / d!.
    """
    form = moment_form(params, d)
    out = {}
    for alpha, c in zip(monomials(params.n, d), form.coeffs):
        fact = 1
        for e in alpha:
            fact *= factorial(e)
        out[alpha] = Fraction(c) * fact / factorial(d)
    return out


def sample_gaussian(params: GaussianParams, size: int, seed: int) -> np.ndarray:
    """Draw samples via Cholesky of Sigma (requires positive definite Sigma)."""
    mean = np.array([float(v) for v in params.mean])
    sigma = np.array([[float(v) for v in row] for row in params.sigma_matrix()])
    chol = np.linalg.cholesky(sigma)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((size, params.n))
    return mean + z @ chol.T


def monte_carlo_check(
    params: GaussianParams, d: int, size: int = 1_000_000, seed: int = 2023
) -> float:
    """Largest relative error between empirical and analytic degree-d moments."""
    samples = sample_gaussian(params, size, seed)
    worst = 0.0
    for alpha, expected in monomial_moments(params, d).items():
        vals = np.ones(size)
        for j, e in enumerate(alpha):
            if e:
                vals = vals * samples[:, j] ** e
        emp = float(vals.mean())
        ref = float(expected)
        denom = abs(ref) if ref else 1.0
        worst = max(worst, abs(emp - ref) / denom)
    return worst
