"""Field-level checks of one CLI command's output against seed-independent references.

Each check parses the command's JSON lines and tests the fields that carry
the certificate, never the bytes, so records may gain fields without
failing.  The expected values come from (n, d, m) alone:

  secant-scan  secant_dimension == expected_dimension
               == min(m * n(n+3)/2, C(n+d-1, d)), and defect == 0
  contact      one record per requested d, kernel_dim == 1 and certified
  koszul       defect == C(m, 2), koszul_vectors_in_kernel, matches_choose2
  recover      converged and matched_error <= 1e-8

Run this file to self-test the checker on good and doctored records.
"""

from __future__ import annotations

import json
import math

RECOVERY_TOL = 1e-8


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _ints(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def _check_secant(flags: dict[str, str], records: list[dict]) -> str | None:
    d = int(flags["d"])
    ns = _ints(flags["n-range"]) if "n-range" in flags else [int(flags["n"])]
    if [r.get("n") for r in records] != ns:
        return f"expected records for n={ns}, got {[r.get('n') for r in records]}"
    for r in records:
        n = r["n"]
        dim_gm = n * (n + 3) // 2
        dim_forms = math.comb(n + d - 1, d)
        m = int(flags["m"]) if "m" in flags else dim_forms // dim_gm
        expected = min(m * dim_gm, dim_forms)
        got = (r.get("d"), r.get("m"), r.get("expected_dimension"),
               r.get("secant_dimension"), r.get("defect"))
        if got != (d, m, expected, expected, 0):
            return (f"n={n}: (d, m, expected, secant dimension, defect) = {got}, "
                    f"want {(d, m, expected, expected, 0)}")
    return None


def _check_contact(flags: dict[str, str], records: list[dict]) -> str | None:
    n = int(flags["n"])
    ds = _ints(flags["d-range"]) if "d-range" in flags else [int(flags["d"])]
    if [(r.get("n"), r.get("d")) for r in records] != [(n, d) for d in ds]:
        return f"expected records for n={n}, d={ds}"
    for r in records:
        if r.get("kernel_dim") != 1 or r.get("certified") is not True:
            return f"d={r['d']}: kernel_dim={r.get('kernel_dim')}, certified={r.get('certified')}"
    return None


def _check_koszul(flags: dict[str, str], records: list[dict]) -> str | None:
    n, m = int(flags["n"]), int(flags["m"])
    if len(records) != 1:
        return f"expected one record, got {len(records)}"
    (r,) = records
    got = (r.get("n"), r.get("m"), r.get("defect"),
           r.get("koszul_vectors_in_kernel"), r.get("matches_choose2"))
    want = (n, m, math.comb(m, 2), True, True)
    if got != want:
        return f"(n, m, defect, vectors in kernel, matches C(m,2)) = {got}, want {want}"
    return None


def _check_recover(flags: dict[str, str], records: list[dict]) -> str | None:
    if len(records) != 1:
        return f"expected one record, got {len(records)}"
    (r,) = records
    err = r.get("matched_error")
    if r.get("converged") is not True:
        return "not converged"
    if not isinstance(err, (int, float)) or not err <= RECOVERY_TOL:
        return f"matched_error {err} above {RECOVERY_TOL}"
    return None


CHECKS = {
    "secant-scan": _check_secant,
    "contact": _check_contact,
    "koszul": _check_koszul,
    "recover": _check_recover,
}


def check(argv: list[str], returncode: int, stdout: str) -> tuple[str | None, list[dict]]:
    """(None, records) when the output is correct, else (reason, records)."""
    if returncode != 0:
        return f"exit code {returncode}", []
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as err:
        return f"unparsable output: {err}", []
    if not records or not all(isinstance(r, dict) for r in records):
        return "expected JSON object lines", records
    return CHECKS[argv[0]](_flags(argv), records), records


def self_test() -> None:
    """Good records pass, each doctored field is rejected, extra fields are allowed."""
    def line(obj):
        return json.dumps(obj) + "\n"

    secant = {"n": 8, "d": 6, "m": 39, "seed": 1, "secant_dimension": 1716,
              "expected_dimension": 1716, "defect": 0, "engine_report": {}}
    contact = [{"n": 3, "d": d, "kernel_dim": 1, "certified": True} for d in (5, 6)]
    koszul = {"n": 6, "m": 3, "defect": 3, "koszul_vectors_in_kernel": True,
              "matches_choose2": True, "record": {}}
    recover = {"converged": True, "iterations": 9, "matched_error": 3e-9,
               "residual_norm": 1e-9, "components": []}
    cases = [
        (["secant-scan", "--d", "6", "--n", "8", "--format", "json"], [secant],
         [("defect", 1), ("secant_dimension", 1715), ("expected_dimension", 1715), ("m", 38)]),
        (["contact", "--n", "3", "--d-range", "5..6"], contact,
         [("kernel_dim", 2), ("certified", False), ("d", 7)]),
        (["koszul", "--n", "6", "--m", "3"], [koszul],
         [("defect", 2), ("koszul_vectors_in_kernel", False), ("matches_choose2", False)]),
        (["recover", "--n", "4", "--m", "3"], [recover],
         [("converged", False), ("matched_error", 2e-8), ("matched_error", float("nan"))]),
    ]
    for argv, records, doctored in cases:
        good = "".join(line(r) for r in records)
        reason, _ = check(argv, 0, good)
        assert reason is None, (argv, reason)
        extended = "".join(line({**r, "certificate": {"lower": 1}}) for r in records)
        assert check(argv, 0, extended)[0] is None, argv
        assert check(argv, 1, good)[0] is not None, argv
        assert check(argv, 0, "")[0] is not None, argv
        assert check(argv, 0, good[:-3])[0] is not None, argv
        for key, value in doctored:
            bad = "".join(line({**r, key: value}) for r in records)
            assert check(argv, 0, bad)[0] is not None, (argv, key, value)
            missing = "".join(line({k: v for k, v in r.items() if k != key}) for r in records)
            assert check(argv, 0, missing)[0] is not None, (argv, key)
    assert check(cases[1][0], 0, line(contact[0]))[0] is not None  # a record missing


if __name__ == "__main__":
    self_test()
    print("checker self-test passed")
