"""The benchmark's workloads: each is a fixed list of CLI commands (one pass).

A run repeats the pass a fixed number of times, and every pass draws fresh
`--seed` values from the workload seed, so a run covers several parameter
points while every commit measures the same amount of work.  Nothing here
imports momentlab; the commands are what a CLI user would type.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Pass time measured on a 2-core host when the benchmark was defined.  It
    # only fixes how many passes a run of --seconds makes, so that the work
    # per run (and which order statistic op_tail_s is) stays the same on
    # every commit; it is never compared against.
    nominal_pass_s: float
    commands: Callable[[random.Random], list[list[str]]]
    smoke_commands: Callable[[random.Random], list[list[str]]]


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


SECANT_OPS_PER_PASS = 3


def _secant(rng: random.Random) -> list[list[str]]:
    # m defaults to the table rank floor(C(11,6) / 27) = 17: one exact
    # 462 x 459 matrix per command, eliminated mod two primes, plus a float SVD.
    return [["secant-scan", "--d", "6", "--n", "6", "--format", "json", "--seed", _seed(rng)]
            for _ in range(SECANT_OPS_PER_PASS)]


def _secant_smoke(rng: random.Random) -> list[list[str]]:
    return [["secant-scan", "--d", "5", "--n", "3", "--format", "json", "--seed", _seed(rng)]]


RECOVER_OPS_PER_PASS = 20


def _recover(rng: random.Random) -> list[list[str]]:
    return [
        ["recover", "--n", "4", "--m", "3", "--degrees", "4,6", "--weights", "free",
         "--seed", _seed(rng)]
        for _ in range(RECOVER_OPS_PER_PASS)
    ]


def _recover_smoke(rng: random.Random) -> list[list[str]]:
    # the recovery point the acceptance suite pins (criterion 10)
    return [["recover", "--n", "3", "--m", "2", "--degrees", "6", "--weights", "uniform",
             "--seed", "42"]]


def _certify(rng: random.Random) -> list[list[str]]:
    return [
        [*argv, "--seed", _seed(rng)]
        for argv in (
            ["contact", "--n", "2", "--d-range", "5..8"],
            ["contact", "--n", "3", "--d-range", "5..8"],
            ["contact", "--n", "4", "--d-range", "5..7"],
            ["contact", "--n", "5", "--d", "6"],
            ["koszul", "--n", "6", "--m", "3"],
            ["koszul", "--n", "7", "--m", "4"],
            ["koszul", "--n", "8", "--m", "4"],
        )
    ]


def _certify_smoke(rng: random.Random) -> list[list[str]]:
    return [
        ["contact", "--n", "2", "--d", "5", "--seed", _seed(rng)],
        ["koszul", "--n", "4", "--m", "2", "--seed", _seed(rng)],
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "secant-d6n6",
            ("exact 462x459 secant certificates at d=6 n=6 m=17, rank-bound; d=6 n=7 and n=8 fit "
             "9 and 1-2 commands in a run, d=6 n=10 and n=12 take about 600 s a record"),
            4.0, _secant, _secant_smoke,
        ),
        Workload(
            "recover-batch",
            "many small Gauss-Newton recoveries: poly/moments/recovery bound, no rank calls",
            4.0, _recover, _recover_smoke,
        ),
        Workload(
            "certify-small",
            "small contact and Koszul certificates: many small mod-p kernels, experiments-bound",
            6.5, _certify, _certify_smoke,
        ),
    )
}

# The workloads BENCHMARK.json names, which `--workload all` runs.
# recover-batch stays out until refinement is fixed: it stops on a relative
# residual of 1e-12, which leaves matched_error above the checked 1e-8 on
# 1% to 16% of seeds (depending on n, m and the weights), so no run of it
# can be correct.  It remains runnable by name.
GATED = ("secant-d6n6", "certify-small")


def plan(name: str, seed: int, passes: int, smoke: bool) -> list[list[list[str]]]:
    """The commands of each pass; the same (name, seed, passes) gives the same plan."""
    workload = WORKLOADS[name]
    make = workload.smoke_commands if smoke else workload.commands
    rng = random.Random(f"{name}:{seed}")
    return [make(rng) for _ in range(passes)]


def pass_count(name: str, seconds: int, smoke: bool) -> int:
    if smoke:
        return 1
    return max(1, round(seconds / WORKLOADS[name].nominal_pass_s))
