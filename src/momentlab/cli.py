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
import os
import sys

from . import bounds as bounds_mod
from . import experiments, recovery
from .moments import BivariateMomentPoly
from .rank import CHUNK, DEFAULT_FLOAT_TOL, DEFAULT_PRIME_SEED, PANEL, ConsensusError

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


def _parse_range(text: str) -> list[int]:
    """Accept '5', '2..8', or '2,4,6'."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part]


def _resolve_seed(args) -> int:
    env = os.environ.get("MOMENTLAB_SEED")
    if env is not None:
        return int(env)
    return args.seed


# ---------------------------------------------------------------------------
# Subcommands


def cmd_moment_table(args) -> int:
    if args.max_d > 9:
        return _error_json("moment table supports degrees up to 9", EXIT_USAGE)
    lines = []
    for d in range(1, args.max_d + 1):
        lines.append(f"{d}\t{BivariateMomentPoly.of_degree(d).render()}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_moment_form(args) -> int:
    if args.degree > 9 or args.degree < 1:
        return _error_json("degree must be between 1 and 9", EXIT_USAGE)
    _emit(BivariateMomentPoly.of_degree(args.degree).render() + "\n", args.out)
    return EXIT_OK


def _scan_memory_mb(n: int, d: int, m: int) -> float:
    # a scan holds at once the exact object matrix (an 8-byte pointer and at
    # most one 32-byte int per cell, entries below 2^60), its int64 copy, the
    # working copy that one prime's elimination reduces in place and the
    # float64 copy: 64 bytes per cell.  The elimination adds temporaries of at
    # most four 8-byte arrays of (rows + 2 PANEL) x CHUNK cells: the panel,
    # the limb products of the trailing update and the inverse of a panel's L.
    rows = m * bounds_mod.dim_gm(n)
    cols = bounds_mod.dim_forms(n, d)
    return (rows * cols * 64 + 32 * (rows + 2 * PANEL) * CHUNK) / 1e6


def cmd_secant_scan(args) -> int:
    ns = _parse_range(args.n_range) if args.n_range else [args.n]
    if any(v is None for v in ns) or not ns:
        return _error_json("provide --n or --n-range", EXIT_USAGE)
    seed = _resolve_seed(args)
    grid = [(n, args.m if args.m else experiments.max_rank_m(n, args.d)) for n in ns]
    for n, m in grid:
        need = _scan_memory_mb(n, args.d, m)
        if need > args.memory_budget_mb:
            return _error_json(
                f"n={n}, d={args.d}, m={m} needs ~{need:.0f} MB, "
                f"over the {args.memory_budget_mb} MB budget",
                EXIT_RESOURCE,
            )

    failures: list[str] = []
    done = []
    for n, m in grid:
        try:
            done.append(
                experiments.secant_dimension(n, args.d, m, seed, args.prime_seed, args.tol)
            )
        except ConsensusError as err:
            failures.append(f"n={n}: {err}")

    if args.format == "csv":
        if args.out:
            experiments.emit_csv(done, args.out)
        else:
            sys.stdout.write(",".join(experiments.CSV_HEADER) + "\n")
            for rec in done:
                sys.stdout.write(",".join(str(v) for v in rec.csv_row()) + "\n")
    else:
        text = "".join(_json_line(rec.to_dict()) for rec in done)
        _emit(text, args.out)
    for message in failures:
        sys.stderr.write(_json_line({"consensus_failure": message}))
    return EXIT_CHECK_FAILURE if failures else EXIT_OK


def cmd_contact(args) -> int:
    ds = _parse_range(args.d_range) if args.d_range else [args.d]
    if not ds or any(v is None for v in ds):
        return _error_json("provide --d or --d-range", EXIT_USAGE)
    seed = _resolve_seed(args)
    lines = []
    all_certified = True
    for d in ds:
        dim = experiments.contact_kernel(args.n, d, args.trials, seed, args.prime_seed)
        certified = dim == 1
        all_certified = all_certified and certified
        lines.append(_json_line(
            {"n": args.n, "d": d, "kernel_dim": dim, "certified": certified}
        ))
    _emit("".join(lines), args.out)
    return EXIT_OK if all_certified else EXIT_CHECK_FAILURE


def cmd_bounds(args) -> int:
    report = bounds_mod.bound_report(args.n, args.d, args.m)
    payload = report.to_dict()
    if args.d >= 5:
        lower, upper = bounds_mod.generic_rank_bounds(args.n, args.d)
        payload["generic_rank_lower"] = lower
        payload["generic_rank_upper"] = upper
    _emit(_json_line(payload), args.out)
    return EXIT_OK


def cmd_koszul(args) -> int:
    seed = _resolve_seed(args)
    try:
        report = experiments.koszul_defect_check(args.n, args.m, seed, args.prime_seed)
    except ValueError as err:
        return _error_json(str(err), EXIT_USAGE)
    _emit(_json_line(report.to_dict()), args.out)
    ok = report.koszul_vectors_in_kernel and report.matches_choose2
    return EXIT_OK if ok else EXIT_CHECK_FAILURE


def cmd_recover(args) -> int:
    seed = _resolve_seed(args)
    degrees = tuple(_parse_range(args.degrees))
    mode = recovery.WEIGHTS_FREE if args.weights == "free" else recovery.WEIGHTS_UNIFORM
    try:
        result, _truth = recovery.run_recovery_demo(
            args.n, args.m, degrees, mode, seed, args.perturb
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
    parser.add_argument("--tol", type=float, default=DEFAULT_FLOAT_TOL)
    parser.add_argument("--out", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConsensusError as err:
        return _error_json(str(err), EXIT_CHECK_FAILURE)
    except (ValueError, OSError) as err:
        return _error_json(str(err), EXIT_USAGE)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
