"""Closed-form bound and threshold calculators.

Everything here is exact rational arithmetic; floors and ceilings are taken
once, at the reporting boundary.  Two different divisors both occur and are
deliberately kept apart: the parameter-counting bound divides the dimension
of the degree-d forms by dim GM = C(n+1,2) + n, while the generic-rank
upper bound divides by C(n+1,2) alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import ceil, comb, floor


def dim_forms(n: int, d: int) -> int:
    """Dimension C(n+d-1, d) of the space of degree-d forms in n variables."""
    return comb(n + d - 1, d)


def dim_gm(n: int) -> int:
    """Dimension C(n+1,2) + n = n(n+3)/2 of the moment variety (d >= 4)."""
    return comb(n + 1, 2) + n


def param_count_bound(n: int, d: int) -> Fraction:
    """Rank ceiling from counting parameters: dim forms / dim GM."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return Fraction(dim_forms(n, d), dim_gm(n))


def param_count_quartic_deg6(n: int) -> Fraction:
    """The printed degree-6 closed form n^4/360 + n^3/30 + 49n^2/360 + 13n/60 + 1/9."""
    n = Fraction(n)
    return n**4 / 360 + n**3 / 30 + 49 * n**2 / 360 + 13 * n / 60 + Fraction(1, 9)


@dataclass(frozen=True)
class BoundReport:
    n: int
    d: int
    dim_forms: int
    dim_gm: int
    param_count_max_m: Fraction
    param_count_max_m_floor: int
    m: int | None = None
    mm_margin: bool | None = None
    generic_rank_lower: int | None = None
    generic_rank_upper: int | None = None

    def to_dict(self) -> dict:
        # an unset optional field is left out
        return ({k: v for k, v in asdict(self).items() if v is not None}
                | {"param_count_max_m": str(self.param_count_max_m)})


def bound_report(n: int, d: int, m: int | None = None) -> BoundReport:
    """The counting bound at (n, d); with m, the parameter margin at m
    components; at d >= 5, the generic rank window of generic_rank_bounds."""
    bound = param_count_bound(n, d)
    margin = None
    if m is not None:
        if m < 1:
            raise ValueError(f"need m >= 1, got m={m}")
        margin = m * dim_gm(n) <= dim_forms(n, d) - dim_gm(n)
    generic = generic_rank_bounds(n, d) if d >= 5 else (None, None)
    return BoundReport(n, d, dim_forms(n, d), dim_gm(n), bound, floor(bound), m, margin, *generic)


def nenashev_bounds(n: int, a: int, h: int) -> tuple[Fraction, Fraction]:
    """Rank windows for ideals of generic degree-a forms in degree a+h.

    Below the lower value the degree-(a+h) components of the ideals sum
    directly; above the upper value they fill the whole space.
    """
    if a < 1 or h < 1:
        raise ValueError(f"need a, h >= 1, got a={a}, h={h}")
    ratio = Fraction(dim_forms(n, a + h), dim_forms(n, h))
    return ratio - dim_forms(n, h), ratio + dim_forms(n, h)


_AH_EXCEPTIONS = {(3, 4, 5), (4, 4, 9), (5, 3, 7), (5, 4, 14)}


@dataclass(frozen=True)
class AHReport:
    expected_dim: int
    is_exception: bool


def ah_expected(n: int, d: int, m: int) -> AHReport:
    """Expected degree-d dimension min(mn, C(n+d-1, d)) of an ideal of m
    generic (d-1)-th powers of linear forms, with the classical exception list."""
    if n < 2 or d < 2 or m < 2:
        raise ValueError(f"need n, d, m >= 2, got n={n}, d={d}, m={m}")
    exception = (d == 2 and 2 <= m <= n - 1) or (n, d, m) in _AH_EXCEPTIONS
    return AHReport(min(m * n, dim_forms(n, d)), exception)


def splitting_constraints(n1: int, n2: int) -> tuple[Fraction, Fraction]:
    """The two rank ceilings of the degree-6 variable-splitting argument.

    c1 constrains the block carrying the quadratic forms (n1 variables),
    c2 the block carrying the linear forms (n2 variables).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"need n1, n2 >= 1, got n1={n1}, n2={n2}")
    c1 = Fraction(comb(n1 + 5, 6), comb(n1 + 1, 2)) - comb(n1 + 1, 2)
    c2 = Fraction(comb(n2 + 5, 6), n2) - n2
    return c1, c2


def printed_c1_quartic(n: int) -> Fraction:
    """The published closed form for c1; disagrees with the binomial
    expression in the signs of the quadratic and linear terms, so it is
    housed only for flagging, never used in computations."""
    n = Fraction(n)
    return n**4 / 360 + 7 * n**3 / 180 + 109 * n**2 / 360 + 13 * n / 180 + Fraction(1, 3)


def printed_c2_quintic(n: int) -> Fraction:
    """The published closed form for c2 (agrees with the binomial expression)."""
    n = Fraction(n)
    return (
        n**5 / 720 + n**4 / 48 + 17 * n**3 / 144 + 5 * n**2 / 16
        - 223 * n / 360 + Fraction(1, 6)
    )


def splitting_report(n1: int, n2: int) -> dict:
    """Constraint values plus the published closed forms, flagged on mismatch.

    The binomial expressions are canonical; the published c1 polynomial
    disagrees with them, so both numbers are reported side by side rather
    than silently reconciled.
    """
    c1, c2 = splitting_constraints(n1, n2)
    p1, p2 = printed_c1_quartic(n1), printed_c2_quintic(n2)
    out = {
        "n1": n1,
        "n2": n2,
        "c1": str(c1),
        "c1_floor": floor(c1),
        "c2": str(c2),
        "c2_floor": floor(c2),
        "c1_printed_form_matches": p1 == c1,
        "c2_printed_form_matches": p2 == c2,
    }
    if p1 != c1:
        out["c1_printed_form"] = str(p1)
    if p2 != c2:
        out["c2_printed_form"] = str(p2)
    return out


@dataclass(frozen=True)
class SplitChoice:
    n1: int
    n2: int
    m: int


def splitting_optimizer(n: int) -> SplitChoice:
    """Best split n = n1 + n2 maximizing min(floor(c1), floor(c2))."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    best: SplitChoice | None = None
    for n1 in range(1, n):
        c1, c2 = splitting_constraints(n1, n - n1)
        m = min(floor(c1), floor(c2))
        if best is None or m > best.m:
            best = SplitChoice(n1, n - n1, m)
    return best


def generic_rank_bounds(n: int, d: int) -> tuple[int, int]:
    """Window for the generic rank: every degree-d form is a sum of at most
    `upper` moment forms, and almost none is a sum of fewer than `lower`."""
    if d < 5:
        raise ValueError(f"generic rank bounds need d >= 5, got {d}")
    lower = ceil(Fraction(dim_forms(n, d), dim_gm(n)))
    upper = ceil(Fraction(dim_forms(n, d), comb(n + 1, 2)) + comb(n + 1, 2))
    return lower, upper


@dataclass(frozen=True)
class MMConditionReport:
    n: int
    d: int
    m: int
    parameter_margin: bool
    not_1twd: bool
    nondefective_m_plus_1: bool
    identifiable: bool
    reasons: tuple[str, ...]


def mm_condition_report(
    n: int, d: int, m: int, nondefective_m_plus_1: bool, not_1twd: bool
) -> MMConditionReport:
    """Certify m-identifiability from the three sufficient conditions:
    the parameter margin m*dim <= N - dim, a zero-dimensional tangential
    contact locus, and (m+1)-nondefectivity.  The two experimental inputs
    come from the contact-kernel and secant-dimension runs."""
    margin = m * dim_gm(n) <= dim_forms(n, d) - dim_gm(n)
    reasons = []
    if not margin:
        reasons.append("parameter margin m*dim_gm <= dim_forms - dim_gm fails")
    if not not_1twd:
        reasons.append("contact locus not certified zero-dimensional")
    if not nondefective_m_plus_1:
        reasons.append("(m+1)-nondefectivity not established")
    return MMConditionReport(
        n, d, m, margin, not_1twd, nondefective_m_plus_1,
        margin and not_1twd and nondefective_m_plus_1,
        tuple(reasons),
    )
