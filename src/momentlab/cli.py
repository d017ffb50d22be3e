"""Command-line workbench: moment tables, dimension scans, certificates.

Every subcommand is deterministic for a fixed configuration (seeds
included): records are computed in grid order, CSV output uses the
published table schema byte-for-byte, and JSON output is key-sorted.
Exit codes are a stable contract: 0 success, 1 check failure, 2 usage
error, 3 resource limit.  A usage error, argparse's own included, writes
one JSON line to stderr, whose error starts with its flag where it has one.
Exit 1 always writes JSON to stderr: one line per failed record, or the
single error that stopped the command (a ValueError or RuntimeError raised
while it computes, such as a certificate whose bounds contradict each
other).  Commands return their text and failed checks; main alone writes
them and picks the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import lru_cache

from . import bounds as bounds_mod
from . import experiments, recovery
from .moments import BivariateMomentPoly
from .rank import DEFAULT_PRIME_SEED
from .tangent import DEFAULT_SEED

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

DEFAULT_MEMORY_BUDGET_MB = 4096


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _error_json(message: str, code: int) -> int:
    sys.stderr.write(_json_line({"error": message, "exit_code": code}))
    return code


class UsageError(Exception):
    """A flag or combination of flags refused, which main writes as the
    usage-error line (exit 2)."""


class OverBudget(MemoryError):
    """A certificate refused before it starts, which main writes as the
    resource-limit line (exit 3), as it does a MemoryError."""


# ---------------------------------------------------------------------------
# Subcommands: build_parser has checked every flag on its own, so a command
# checks only what combines flags or needs computation.  Each returns its
# output text and a list of failed checks, one JSON object each


def cmd_moment_table(args) -> tuple[str, list]:
    return "".join(f"{d}\t{BivariateMomentPoly.of_degree(d).render()}\n"
                   for d in range(1, args.max_d + 1)), []


def cmd_moment_form(args) -> tuple[str, list]:
    return BivariateMomentPoly.of_degree(args.degree).render() + "\n", []


def _refuse_over_budget(point: str, need: float, budget_mb: int) -> None:
    """OverBudget when the certificate at `point` ("n=.., d=..") needs
    `need` MB, by experiments.secant_memory_mb or contact_memory_mb, more
    than budget_mb."""
    if need > budget_mb:
        raise OverBudget(f"{point} needs ~{need:.0f} MB, over the {budget_mb} MB budget")


def cmd_secant_scan(args) -> tuple[str, list]:
    def grid():
        return ((n, experiments.max_rank_m(n, args.d) if args.m is None else args.m)
                for n in args.n_range or [args.n])

    # every point is checked before any is computed, one at a time, so a
    # long range stops at its first refusal
    for n, m in grid():
        if m < 1:
            n_flag = "--n-range" if args.n_range else "--n"
            raise UsageError(f"{n_flag} gives m={m} at n={n}, need m >= 1")
        _refuse_over_budget(f"n={n}, d={args.d}, m={m}",
                            experiments.secant_memory_mb(n, args.d, m), args.memory_budget_mb)

    done = [
        experiments.secant_dimension(n, args.d, m, args.seed, args.prime_seed)
        for n, m in grid()
    ]

    if args.format == "csv":
        text = experiments.csv_text(done)
    else:
        text = "".join(_json_line(asdict(rec)) for rec in done)
    reports = [(rec.n, rec.engine_report) for rec in done]
    return text, [{"not_certified": f"n={n}: rank {r.rank} mod {r.lower_prime}, "
                                    f"upper bound {r.upper} ({r.upper_reason})"}
                  for n, r in reports if not r.certified]


def cmd_contact(args) -> tuple[str, list]:
    # every degree is checked before any is computed
    for d in args.d_range or [args.d]:
        _refuse_over_budget(f"n={args.n}, d={d}", experiments.contact_memory_mb(args.n, d),
                            DEFAULT_MEMORY_BUDGET_MB)
    records = []
    for d in args.d_range or [args.d]:
        dim = experiments.contact_kernel(args.n, d, args.trials, args.seed, args.prime_seed)
        records.append({"n": args.n, "d": d, "kernel_dim": dim, "certified": dim == 1})
    return "".join(map(_json_line, records)), [
        {"not_certified": f"n={r['n']}, d={r['d']}: kernel_dim {r['kernel_dim']} "
                          f"after {args.trials} trials, need 1"}
        for r in records if not r["certified"]]


def cmd_bounds(args) -> tuple[str, list]:
    return _json_line(bounds_mod.bound_report(args.n, args.d, args.m).to_dict()), []


def cmd_koszul(args) -> tuple[str, list]:
    rows, cols = args.m * bounds_mod.dim_gm(args.n), bounds_mod.dim_forms(args.n, 4)
    if rows > cols:
        raise UsageError(f"--m gives m*dim_gm = {rows} over dim forms = {cols}, "
                         f"the filling regime; need m*dim_gm <= dim forms")
    _refuse_over_budget(f"n={args.n}, d=4, m={args.m}",
                        experiments.secant_memory_mb(args.n, 4, args.m), DEFAULT_MEMORY_BUDGET_MB)
    report = experiments.koszul_defect_check(args.n, args.m, args.seed, args.prime_seed)
    failures = [] if report.koszul_vectors_in_kernel and report.matches_choose2 else [
        {"not_certified": f"n={report.n}, m={report.m}: defect {report.defect}, "
                          f"koszul_vectors_in_kernel {report.koszul_vectors_in_kernel}, "
                          f"matches_choose2 {report.matches_choose2}"}]
    return _json_line(asdict(report)), failures


def cmd_recover(args) -> tuple[str, list]:
    result, _truth = recovery.run_recovery_demo(
        args.n, args.m, args.degrees, args.weights == "free", args.seed, args.perturb
    )
    failures = [] if result.converged else [{"not_converged": (
        f"residual norm {result.residual_norm} after {result.iterations} iterations")}]
    return _json_line(result.to_dict()), failures


# ---------------------------------------------------------------------------
# Parser: each flag's type= checks its own range, and every parse error
# becomes the usage-error line of main


def _flag_type(parse, holds, rule: str):
    """A type= converter to parse(text), for a text that parses to a value
    of which holds(value) is true; any other gives "<flag> <rule>, got <text>"."""
    def convert(text: str):
        try:
            value = parse(text)
            ok = holds(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return convert


def _ints(low: int, high: float = math.inf):
    bound = f"of at least {low}" if high == math.inf else f"from {low} to {high}"
    return _flag_type(int, lambda v: low <= v <= high, f"must be an integer {bound}")


def _range(text: str) -> range | tuple[int, ...]:
    """The integers that 'N', 'A..B' or 'A,B,...' gives, at least one; a
    range for 'A..B', whose values are not built."""
    first, _, last = text.partition("..")
    values = range(int(first), int(last) + 1) if last else (
        *(int(v) for v in text.split(",") if v),)
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} gives no value")
    return values


def _int_list(low: int, distinct: bool = False):
    def holds(values):
        if isinstance(values, range):  # ascending, each value once
            return values[0] >= low
        return min(values) >= low and not (distinct and len(set(values)) < len(values))
    rule = f"must give N, A..B or A,B,..., each at least {low}"
    return _flag_type(_range, holds, rule + ", none repeated" * distinct)


# argparse's errors that name their flags last, and what they say of them
_FLAGS_LAST = {"the following arguments are required": "missing",
               "unrecognized arguments": "unrecognized"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Raise UsageError with the flag first: "argument --d: what"
        becomes "--d what"."""
        head, _, tail = message.partition(": ")
        if head.startswith("argument -"):
            message = f"{head.removeprefix('argument ')} {tail}"
        elif head in _FLAGS_LAST:
            message = f"{tail} {_FLAGS_LAST[head]}"
        raise UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    # the flags of the commands that certify ranks mod primes
    parser.add_argument("--seed", type=_ints(0), default=DEFAULT_SEED)
    parser.add_argument("--prime-seed", type=_ints(0), default=DEFAULT_PRIME_SEED)
    parser.add_argument("--out", type=str, default=None)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it as it
    is and returns a fresh namespace on every call."""
    parser = _Parser(
        prog="momentlab",
        description="Gaussian moment-form workbench: tables, secant scans, certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment-table", help="print the bivariate moment forms")
    p.add_argument("--max-d", type=_ints(1, 9), default=8)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_moment_table)

    p = sub.add_parser("moment-form", help="print one bivariate moment form")
    p.add_argument("--degree", type=_ints(1, 9), required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_moment_form)

    p = sub.add_parser("secant-scan", help="secant dimensions over an n grid")
    p.add_argument("--d", type=_ints(4), required=True)
    ns = p.add_mutually_exclusive_group(required=True)
    ns.add_argument("--n", type=_ints(1))
    ns.add_argument("--n-range", type=_int_list(1))
    p.add_argument("--m", type=_ints(1), default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--memory-budget-mb", type=_ints(1), default=DEFAULT_MEMORY_BUDGET_MB)
    _add_common(p)
    p.set_defaults(func=cmd_secant_scan)

    p = sub.add_parser("contact", help="contact-locus kernel certification")
    p.add_argument("--n", type=_ints(2), required=True)
    # below degree 5 the lowest derivative factor is a constant: no certificate
    ds = p.add_mutually_exclusive_group(required=True)
    ds.add_argument("--d", type=_ints(5))
    ds.add_argument("--d-range", type=_int_list(5))
    p.add_argument("--trials", type=_ints(1), default=3)
    _add_common(p)
    p.set_defaults(func=cmd_contact)

    p = sub.add_parser("bounds", help="closed-form bound report")
    p.add_argument("--n", type=_ints(1), required=True)
    p.add_argument("--d", type=_ints(0), required=True)
    p.add_argument("--m", type=_ints(1), default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("koszul", help="degree-4 defect and Koszul kernel check")
    p.add_argument("--n", type=_ints(2), required=True)
    p.add_argument("--m", type=_ints(1), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_koszul)

    p = sub.add_parser("recover", help="moment-based parameter recovery demo")
    p.add_argument("--n", type=_ints(1), default=3)
    p.add_argument("--m", type=_ints(1), default=2)
    p.add_argument("--degrees", type=_int_list(2, distinct=True), default=(6,))
    p.add_argument("--weights", choices=("uniform", "free"), default="uniform")
    p.add_argument("--perturb", type=_flag_type(float, math.isfinite, "must be finite"),
                   default=1e-3)
    p.add_argument("--seed", type=_ints(0), default=DEFAULT_SEED)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_recover)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text, failures = args.func(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (UsageError, OSError) as err:  # OSError: an --out path that cannot be written
        return _error_json(str(err), EXIT_USAGE)
    except (ValueError, RuntimeError) as err:  # raised while computing: a broken check
        return _error_json(str(err), EXIT_CHECK_FAILURE)
    except MemoryError as err:  # OverBudget included
        return _error_json(str(err) or "out of memory", EXIT_RESOURCE)
    for failure in failures:
        sys.stderr.write(_json_line(failure))
    return EXIT_CHECK_FAILURE if failures else EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
