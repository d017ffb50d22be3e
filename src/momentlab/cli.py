"""Command-line workbench: moment tables, dimension scans, certificates.

Every subcommand is deterministic for a fixed configuration (seeds
included): records are computed in grid order, CSV output uses the
published table schema byte-for-byte, and JSON output is key-sorted.
Exit codes are a stable contract: 0 success, 1 check failure, 2 usage
error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import bounds as bounds_mod
from . import experiments, recovery
from .moments import BivariateMomentPoly
from .rank import CHUNK, DEFAULT_PRIME_SEED, PANEL

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

DEFAULT_SEED = 42
DEFAULT_MEMORY_BUDGET_MB = 4096


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _error_json(message: str, code: int) -> int:
    sys.stderr.write(_json_line({"error": message, "exit_code": code}))
    return code


def _parse_range(flag: str, text: str) -> list[int]:
    """Accept '5', '2..8', or '2,4,6' as the value of flag, if it gives a value."""
    lo, _, hi = text.partition("..")
    try:
        values = [*range(int(lo), int(hi) + 1)] if hi else [int(v) for v in text.split(",") if v]
    except ValueError:
        raise ValueError(f"{flag} takes N, A..B or A,B,..., got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} {text!r} gives no value")
    return values


# ---------------------------------------------------------------------------
# Subcommands


def cmd_moment_table(args) -> int:
    if not 1 <= args.max_d <= 9:
        return _error_json(f"--max-d must be between 1 and 9, got {args.max_d}", EXIT_USAGE)
    lines = []
    for d in range(1, args.max_d + 1):
        lines.append(f"{d}\t{BivariateMomentPoly.of_degree(d).render()}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_moment_form(args) -> int:
    if not 1 <= args.degree <= 9:
        return _error_json(f"--degree must be between 1 and 9, got {args.degree}", EXIT_USAGE)
    _emit(BivariateMomentPoly.of_degree(args.degree).render() + "\n", args.out)
    return EXIT_OK


def _scan_memory_mb(n: int, d: int, m: int) -> float:
    # Each point keeps its forms s_{d-2} and s_{d-1}.  The recurrence runs
    # over groups of experiments.points_per_group points, and a group being
    # computed holds s_0 .. s_{d-1} of its points, dim_forms(n + 1, d - 1)
    # cells a point.  A form cell is counted at 96 bytes whatever its dtype:
    # it may hold a pointer to its own int of up to 40 bytes, and reducing a
    # form mod p adds an object array of residues (8 + 32) and its int64 copy.
    # A group's largest shift tensor, s_{d-3} times every degree-2 monomial,
    # fits max(2 PANEL, dim_gm) rows of the matrix's width by the choice of
    # the group, 8 bytes a cell for every dtype.  Each prime writes the
    # secant matrix's int64 residues from the reduced forms and eliminates
    # them in place.  Besides the matrix, at most max(2 PANEL, dim_gm) rows of
    # its width are held at once: that shift tensor, or while a prime is
    # eliminated a panel's U12 (PANEL rows) or the gather of its moved rows
    # (2 PANEL): 8 bytes per cell of that many more rows.  The rest is at
    # most four 8-byte arrays of (rows + 2 PANEL) x CHUNK cells: while a prime
    # is eliminated, a panel's transposed copy, or -L21 and its float64 copy
    # (rows x PANEL cells each), the inverse of its L (PANEL x PANEL) and, as
    # in every matmul_modp product, three BLOCK_ROWS x CHUNK temporaries and
    # the limbs of CHUNK columns of the right factor.
    block = bounds_mod.dim_gm(n)
    rows = m * block
    cols = bounds_mod.dim_forms(n, d)
    kept = bounds_mod.dim_forms(n, d - 2) + bounds_mod.dim_forms(n, d - 1)
    group = min(m, experiments.points_per_group(n, d))
    forms = 96 * (m * kept + group * bounds_mod.dim_forms(n + 1, d - 1))
    matrices = 8 * (rows + max(2 * PANEL, block)) * cols
    return (forms + matrices + 32 * (rows + 2 * PANEL) * CHUNK) / 1e6


def cmd_secant_scan(args) -> int:
    n_flag = "--n-range" if args.n_range else "--n"
    ns = _parse_range(n_flag, args.n_range) if args.n_range else [args.n]
    if None in ns:
        return _error_json("provide --n or --n-range", EXIT_USAGE)
    if args.d < 4:
        return _error_json(f"--d must be at least 4, got {args.d}", EXIT_USAGE)
    if min(ns) < 1:
        return _error_json(f"{n_flag} must give n >= 1, got n={min(ns)}", EXIT_USAGE)
    grid = [(n, experiments.max_rank_m(n, args.d) if args.m is None else args.m) for n in ns]
    # the whole grid is checked before any point is computed
    for n, m in grid:
        if m < 1:
            flag = n_flag if args.m is None else "--m"
            return _error_json(f"{flag} gives m={m} at n={n}, need m >= 1", EXIT_USAGE)
        need = _scan_memory_mb(n, args.d, m)
        if need > args.memory_budget_mb:
            return _error_json(
                f"n={n}, d={args.d}, m={m} needs ~{need:.0f} MB, "
                f"over the {args.memory_budget_mb} MB budget",
                EXIT_RESOURCE,
            )

    done = [
        experiments.secant_dimension(n, args.d, m, args.seed, args.prime_seed)
        for n, m in grid
    ]

    if args.format == "csv":
        text = experiments.csv_text(done)
    else:
        text = "".join(_json_line(rec.to_dict()) for rec in done)
    _emit(text, args.out)
    uncertified = [rec for rec in done if not rec.engine_report.certified]
    for rec in uncertified:
        report = rec.engine_report
        sys.stderr.write(_json_line({"not_certified": (
            f"n={rec.n}: rank {report.rank} mod {report.lower_prime}, "
            f"upper bound {report.upper} ({report.upper_reason})"
        )}))
    return EXIT_CHECK_FAILURE if uncertified else EXIT_OK


def cmd_contact(args) -> int:
    ds = _parse_range("--d-range", args.d_range) if args.d_range else [args.d]
    if None in ds:
        return _error_json("provide --d or --d-range", EXIT_USAGE)
    if args.n < 2:
        return _error_json(f"--n must be at least 2, got {args.n}", EXIT_USAGE)
    if args.trials < 1:
        return _error_json(f"--trials must be at least 1, got {args.trials}", EXIT_USAGE)
    records = []
    for d in ds:
        try:
            dim = experiments.contact_kernel(args.n, d, args.trials, args.seed, args.prime_seed)
        except RuntimeError as err:
            return _error_json(str(err), EXIT_CHECK_FAILURE)
        records.append({"n": args.n, "d": d, "kernel_dim": dim, "certified": dim == 1})
    _emit("".join(map(_json_line, records)), args.out)
    return EXIT_OK if all(r["certified"] for r in records) else EXIT_CHECK_FAILURE


def cmd_bounds(args) -> int:
    if args.n < 1:
        return _error_json(f"--n must be at least 1, got {args.n}", EXIT_USAGE)
    report = bounds_mod.bound_report(args.n, args.d, args.m)
    payload = report.to_dict()
    if args.d >= 5:
        lower, upper = bounds_mod.generic_rank_bounds(args.n, args.d)
        payload["generic_rank_lower"] = lower
        payload["generic_rank_upper"] = upper
    _emit(_json_line(payload), args.out)
    return EXIT_OK


def cmd_koszul(args) -> int:
    if args.n < 2:
        return _error_json(f"--n must be at least 2, got {args.n}", EXIT_USAGE)
    if args.m < 1:
        return _error_json(f"--m must be at least 1, got {args.m}", EXIT_USAGE)
    try:
        report = experiments.koszul_defect_check(args.n, args.m, args.seed, args.prime_seed)
    except ValueError as err:
        return _error_json(str(err), EXIT_USAGE)
    _emit(_json_line(report.to_dict()), args.out)
    ok = report.koszul_vectors_in_kernel and report.matches_choose2
    return EXIT_OK if ok else EXIT_CHECK_FAILURE


def cmd_recover(args) -> int:
    degrees = tuple(_parse_range("--degrees", args.degrees))
    mode = recovery.WEIGHTS_FREE if args.weights == "free" else recovery.WEIGHTS_UNIFORM
    try:
        result, _truth = recovery.run_recovery_demo(
            args.n, args.m, degrees, mode, args.seed, args.perturb
        )
    except recovery.DivergenceError as err:
        return _error_json(str(err), EXIT_CHECK_FAILURE)
    _emit(_json_line(result.to_dict()), args.out)
    return EXIT_OK if result.converged else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# Parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--prime-seed", type=int, default=DEFAULT_PRIME_SEED)
    parser.add_argument("--out", type=str, default=None)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it as it
    is and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="momentlab",
        description="Gaussian moment-form workbench: tables, secant scans, certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment-table", help="print the bivariate moment forms")
    p.add_argument("--max-d", type=int, default=8)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_moment_table)

    p = sub.add_parser("moment-form", help="print one bivariate moment form")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_moment_form)

    p = sub.add_parser("secant-scan", help="secant dimensions over an n grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-range", type=str, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--memory-budget-mb", type=int, default=DEFAULT_MEMORY_BUDGET_MB)
    _add_common(p)
    p.set_defaults(func=cmd_secant_scan)

    p = sub.add_parser("contact", help="contact-locus kernel certification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--d-range", type=str, default=None)
    p.add_argument("--trials", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_contact)

    p = sub.add_parser("bounds", help="closed-form bound report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("koszul", help="degree-4 defect and Koszul kernel check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_koszul)

    p = sub.add_parser("recover", help="moment-based parameter recovery demo")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--degrees", type=str, default="6")
    p.add_argument("--weights", choices=("uniform", "free"), default="uniform")
    p.add_argument("--perturb", type=float, default=1e-3)
    _add_common(p)
    p.set_defaults(func=cmd_recover)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag in ("--seed", "--prime-seed"):
        value = getattr(args, flag[2:].replace("-", "_"), 0)
        if value < 0:
            return _error_json(f"{flag} must be non-negative, got {value}", EXIT_USAGE)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        return _error_json(str(err), EXIT_USAGE)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
