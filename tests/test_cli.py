"""CLI contract: output formats, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import momentlab
from momentlab import bounds, experiments, recovery
from momentlab.bounds import dim_forms, dim_gm
from momentlab.cli import DEFAULT_MEMORY_BUDGET_MB, main
from momentlab.experiments import max_rank_m, max_rank_scan, secant_dimension, secant_memory_mb
from momentlab.moments import GaussianParams, moment_forms, stacked_moment_forms
from momentlab.rank import DEFAULT_PRIME_SEED, draw_primes, rank_consensus
from momentlab.tangent import sample_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_COMMAND_NAMES = ("moment-table", "moment-form", "secant-scan", "contact", "bounds", "koszul",
                  "recover")


def usage_error(capsys, *argv) -> str:
    """The error of argv's usage error: exit 2, no stdout and one JSON line."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "", argv
    (line,) = err.splitlines()
    error = json.loads(line)
    assert error["exit_code"] == 2, argv
    return error["error"]


def test_moment_table_rows(capsys):
    code, out, _ = run_cli(capsys, "moment-table", "--max-d", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[5] == "6\tl^6 + 15 q l^4 + 45 q^2 l^2 + 15 q^3"
    assert lines[1] == "2\tl^2 + q"
    # degree-8 coefficients 1, 28, 210, 420, 105
    assert lines[7] == "8\tl^8 + 28 q l^6 + 210 q^2 l^4 + 420 q^3 l^2 + 105 q^4"


def test_moment_table_degree_cap(capsys):
    assert usage_error(capsys, "moment-table", "--max-d", "10").startswith("--max-d ")


def test_moment_form_single(capsys):
    code, out, _ = run_cli(capsys, "moment-form", "--degree", "6")
    assert code == 0
    assert out.strip() == "l^6 + 15 q l^4 + 45 q^2 l^2 + 15 q^3"


def test_secant_scan_csv_header_and_determinism(capsys):
    # n starts at 4: for n=3 two blocks already overfill the 15-dim space,
    # so the Koszul defect is only visible from n=4 on
    args = ("secant-scan", "--d", "4", "--n-range", "4..6", "--m", "2")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out1.splitlines()
    assert lines[0] == "n,rank,secant dimension,expected dimension"
    for line in lines[1:]:
        n, m, sd, ed = (int(v) for v in line.split(","))
        assert m == 2 and ed - sd == 1
    assert out1 == (
        "n,rank,secant dimension,expected dimension\n4,2,27,28\n5,2,39,40\n6,2,53,54\n"
    )
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


_ONE_OF_EACH = (
    ["moment-table", "--max-d", "8"],
    ["moment-form", "--degree", "6"],
    ["secant-scan", "--d", "5", "--n-range", "2..4"],
    ["contact", "--n", "2", "--d", "5"],
    ["bounds", "--n", "3", "--d", "6"],
    ["koszul", "--n", "4", "--m", "2"],
    ["recover", "--n", "2", "--m", "1"],
)


@pytest.mark.parametrize("argv", _ONE_OF_EACH, ids=lambda argv: argv[0])
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    assert [a[0] for a in _ONE_OF_EACH] == list(_COMMAND_NAMES)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    path = tmp_path / "out"
    code, out_with_file, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out_with_file, err) == (0, "", "")
    assert path.read_bytes() == out.encode()


def test_secant_scan_d4_is_certified_by_koszul_vectors(capsys):
    code, out, err = run_cli(capsys, "secant-scan", "--d", "4", "--n-range", "4..6",
                             "--m", "2", "--format", "json")
    assert code == 0 and not err
    for line in out.splitlines():
        report = json.loads(line)["engine_report"]
        assert report["certified"] is True
        assert report["upper_reason"] == "koszul vectors"
        assert report["rank"] == report["upper"]
        assert [e["engine"] for e in report["engines"]] == ["modp"]


def test_secant_scan_json_format(capsys):
    code, out, _ = run_cli(capsys, "secant-scan", "--d", "5", "--n", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert payload["defect"] == 0
    report = payload["engine_report"]
    assert report["certified"] is True
    assert report["upper_reason"] == "dimension count"
    assert report["lower_prime"] == report["engines"][0]["parameter"]
    assert [e["engine"] for e in report["engines"]] == ["modp"]
    assert "seed" in payload


def test_secant_scan_uncertified_record_exits_1(capsys, monkeypatch):
    import momentlab.rank as rank

    # the two 9-row slices are ranked in one stack, the direct path's
    # whole matrix by _echelon: both fall one short
    real, sliced = rank._echelon, experiments.ranks_modp
    monkeypatch.setattr(rank, "_echelon", lambda a, p: real(a, p)[:-1])
    monkeypatch.setattr(experiments, "ranks_modp", lambda block, columns, p: tuple(
        r - (c == 0) for c, r in enumerate(sliced(block, columns, p))))
    code, out, err = run_cli(capsys, "secant-scan", "--d", "5", "--n", "3",
                             "--format", "json")
    assert code == 1
    record = json.loads(out)
    assert record["secant_dimension"] == 17 and record["defect"] == 1
    assert record["engine_report"]["certified"] is False
    assert len(record["engine_report"]["engines"]) == 2
    (line,) = err.splitlines()
    assert "not_certified" in json.loads(line)


def test_secant_scan_memory_budget(capsys):
    code, _, err = run_cli(capsys, "secant-scan", "--d", "6", "--n", "19",
                           "--memory-budget-mb", "100")
    assert code == 3
    assert "budget" in json.loads(err.splitlines()[0])["error"]


def test_secant_scan_memory_estimate_covers_traced_peak(monkeypatch):
    # a first scan imports lazily loaded modules and fills the index caches,
    # which a process pays once; the estimate covers what each scan holds.
    # At d=5, n=5 the 6 points' forms run in one group, at d=6, n=6 the 17
    # points' in two.  Without orbit weights the whole matrix is eliminated
    monkeypatch.setattr(experiments, "orbit_weights", lambda n, d, m, upper: None)
    for n, d, groups in ((5, 5, 1), (6, 6, 2)):
        m = max_rank_m(n, d)
        assert -(-m // experiments.points_per_group(n, d)) == groups
        secant_dimension(n, d, m, seed=1)
        tracemalloc.start()
        try:
            secant_dimension(n, d, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= secant_memory_mb(n, d, m) * 1e6, (n, d)


def test_secant_certificate_traced_peak_stays_below_two_matrices(monkeypatch):
    # d=6, n=7: 910 x 924 int64; d=4, n=12: 1350 x 1365, with the Koszul
    # bound's S2 mod p.  Each prime builds the residue matrix from the reduced
    # forms and eliminates it in place, and each limb product's temporaries
    # cover at most BLOCK_ROWS x CHUNK cells: the traced peak stays below 15
    # bytes per cell, where a second copy of the matrix alone would make 16.
    # Without orbit weights d=6 eliminates the whole matrix too
    monkeypatch.setattr(experiments, "orbit_weights", lambda n, d, m, upper: None)
    secant_dimension(5, 5, max_rank_m(5, 5), seed=1)
    for n, d in ((7, 6), (12, 4)):
        m = max_rank_m(n, d)
        tracemalloc.start()
        try:
            secant_dimension(n, d, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15 * m * dim_gm(n) * dim_forms(n, d), (n, d)


def test_scan_estimate_counts_the_forms_at_8_bytes_a_cell():
    # a certificate's forms are int64 residues, also where the exact forms
    # are objects: the corner of the sampling box has object forms from
    # degree 12 at n=3.  All forms of the group being computed are counted
    # at 8 bytes a cell, besides 4 bytes a cell of the int32 residue matrix,
    # 8 of its extra rows and the elimination's temporaries
    corner = GaussianParams.make([10] * 3, [10] * 6)
    assert moment_forms(corner, 11)[11].dtype == np.int64
    assert moment_forms(corner, 12)[12].dtype == object
    (p,) = draw_primes(DEFAULT_PRIME_SEED, 1)
    for n, d in ((3, 13), (3, 24), (6, 14), (8, 10), (13, 6)):
        m = max_rank_m(n, d)
        if n == 3:
            box = np.full((m, 3), 10), np.full((m, 6), 10)
            residues = stacked_moment_forms(*box, d - 1, p)
            assert all(form.dtype == np.int64 for form in residues)
        group = min(m, experiments.points_per_group(n, d))
        forms = 8 * group * dim_forms(n + 1, d - 1)
        rows, cols = m * dim_gm(n), dim_forms(n, d)
        matrix = 4 * rows * cols
        rest = 8 * max(128, dim_gm(n)) * cols + 32 * (rows + 128) * 256
        assert forms + matrix <= secant_memory_mb(n, d, m) * 1e6 <= forms + matrix + rest, (n, d)
    # d=14, n=6 (430 points of 27 rows by 11628 columns) and d=10, n=8
    # (19448 x 19448) fit the budget
    for n, d in ((6, 14), (8, 10)):
        assert secant_memory_mb(n, d, max_rank_m(n, d)) <= DEFAULT_MEMORY_BUDGET_MB, (n, d)


_PEAK_RSS_SCRIPT = """
import sys
from momentlab import experiments
from momentlab.experiments import max_rank_m, secant_dimension

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))

n, d, path = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
if path == "direct":  # no orbit weights: the whole secant matrix is eliminated
    experiments.orbit_weights = lambda n, d, m, upper: None
secant_dimension(5, 5, max_rank_m(5, 5), seed=1)
before = status("VmRSS")
record = secant_dimension(n, d, max_rank_m(n, d))
assert record.engine_report.certified and (record.orbit is None) == (path == "direct")
print(status("VmHWM") - before)
"""


def _peak_rss_growth(n: int, d: int, path: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(momentlab.__file__).resolve().parents[1]))
    return int(subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, str(n), str(d), path],
        env=env, capture_output=True, text=True, check=True,
    ).stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
@pytest.mark.parametrize("n, d", [
    (7, 6), (3, 24), pytest.param(10, 6, marks=pytest.mark.slow),
])
def test_secant_scan_memory_estimate_covers_peak_rss(n, d):
    # In a fresh process, after one warm-up scan, the peak resident set's
    # growth over the resident set before the scan bounds what the scan
    # holds at once, allocations that tracemalloc does not see included.
    # The per-cell term is the larger part of the estimate at every size:
    # d=6, n=7 (910 x 924), d=6, n=10 (5005 x 5005) and d=24, n=3 (324 x
    # 325), where every point's exact forms would be objects and the scan
    # holds their residues.  Each of them has orbit weights, so the script
    # takes them away: the estimate is measured on the direct path, which a
    # short slice sum still runs.
    m = max_rank_m(n, d)
    if d == 24:
        assert all(moment_forms(p, d - 1)[-1].dtype == object for p in sample_params(42, n, m))
    assert experiments.orbit_weights(n, d, m, m * dim_gm(n)) is not None
    assert _peak_rss_growth(n, d, "direct") <= secant_memory_mb(n, d, m) * 1e6


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
def test_orbit_certificate_peak_rss_stays_under_the_direct_estimate():
    # d=6, n=7 certifies from r=13 slices of the 2 representatives' 70 x 924
    # block; the guard's estimate, sized for the direct fallback, covers it
    m = max_rank_m(7, 6)
    assert experiments.orbit_weights(7, 6, m, m * dim_gm(7))[0] == 13
    assert _peak_rss_growth(7, 6, "orbit") <= secant_memory_mb(7, 6, m) * 1e6


def test_memory_guard_admits_d6_n14_and_refuses_n15(capsys):
    # with the residue matrix at 4 bytes a cell, d=6, n=13 (18512 x 18564)
    # is about 1.6 GB and n=14 (27132 x 27132) about 3.2 GB; n=15 (38745 x
    # 38760) is over 6 GB, residue matrix and forms together.
    m13, m14, m15 = max_rank_m(13, 6), max_rank_m(14, 6), max_rank_m(15, 6)
    assert (m13 * dim_gm(13), dim_forms(13, 6)) == (18512, 18564)
    assert (m14 * dim_gm(14), dim_forms(14, 6)) == (27132, 27132)
    assert (m15 * dim_gm(15), dim_forms(15, 6)) == (38745, 38760)
    assert secant_memory_mb(13, 6, m13) <= DEFAULT_MEMORY_BUDGET_MB
    assert 3000 < secant_memory_mb(14, 6, m14) <= DEFAULT_MEMORY_BUDGET_MB
    assert secant_memory_mb(15, 6, m15) > 6000
    code, out, err = run_cli(capsys, "secant-scan", "--d", "6", "--n", "15")
    assert code == 3 and out == "" and "budget" in json.loads(err)["error"]


def test_long_n_range_stops_at_its_first_refusal(capsys, monkeypatch):
    # 2..2000000 is refused at n=15, as 2..20 is, after checking the 14
    # points n=2..15 and without building the rest
    counted = []
    max_rank = experiments.max_rank_m
    monkeypatch.setattr(experiments, "max_rank_m",
                        lambda n, d: counted.append(n) or max_rank(n, d))
    lines = []
    for grid in ("2..20", "2..2000000"):
        counted.clear()
        code, out, err = run_cli(capsys, "secant-scan", "--d", "6", "--n-range", grid)
        assert code == 3 and out == "" and len(counted) <= 14
        lines.append(err)
    assert lines[0] == lines[1]
    assert "n=15" in json.loads(lines[1])["error"]


def test_contact_over_the_memory_budget_is_refused_before_any_work(capsys, monkeypatch):
    # d=6, n=40: the 860 x 8145060 int32 tangent block alone is 28 GB.  At
    # n=2, d=8000 the block is 5 x 8001, but the caches of the recurrence's
    # 32 million exponent tuples and shift tables take about 5.6 GB.  A
    # range is checked whole first: n=19 fits at d=5, not at d=8
    def refuse(*args):
        raise AssertionError("contact_kernel called")

    monkeypatch.setattr(experiments, "contact_kernel", refuse)
    assert experiments.contact_memory_mb(40, 6) > 4 * dim_gm(40) * dim_forms(40, 6) / 1e6
    assert experiments.contact_memory_mb(19, 5) <= DEFAULT_MEMORY_BUDGET_MB
    assert experiments.contact_memory_mb(2, 8000) > DEFAULT_MEMORY_BUDGET_MB
    for argv in (["--n", "40", "--d", "6"], ["--n", "2", "--d", "8000"],
                 ["--n", "19", "--d-range", "5..8"]):
        code, out, err = run_cli(capsys, "contact", *argv)
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["exit_code"] == 3 and "budget" in error["error"], argv


_CONTACT_GROWTH_SCRIPT = """
import sys
from momentlab import experiments

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))

n, d = int(sys.argv[1]), int(sys.argv[2])
experiments.contact_kernel(3, 6)
before = status("VmRSS")
assert experiments.contact_kernel(n, d) == 1
print(status("VmHWM") - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
@pytest.mark.parametrize("n, d", [pytest.param(10, 6, id="10"), pytest.param(14, 6, id="14"),
                                  pytest.param(2, 1000, id="2-d1000")])
def test_contact_memory_estimate_covers_peak_rss(n, d):
    # in a fresh process, after a warm-up check at n=3, d=6, the peak
    # resident set's growth bounds what one contact check holds at once
    # (about 4.0 and 28 MB at d=6, n=10 and n=14, against estimates of 8.4
    # and 68 MB).  At n=2, d=1000 it is the recurrence's caches, filled for
    # every degree up to d: about 83 MB, against an estimate of 94 MB
    env = dict(os.environ, PYTHONPATH=str(Path(momentlab.__file__).resolve().parents[1]))
    growth = int(subprocess.run(
        [sys.executable, "-c", _CONTACT_GROWTH_SCRIPT, str(n), str(d)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout)
    assert growth <= experiments.contact_memory_mb(n, d) * 1e6


def test_koszul_over_the_memory_budget_is_refused_before_any_work(capsys, monkeypatch):
    # n=60, m=3: 5670 x 595665, about 36 GB by the scan estimate
    def refuse(*args):
        raise AssertionError("koszul_defect_check called")

    monkeypatch.setattr(experiments, "koszul_defect_check", refuse)
    assert secant_memory_mb(60, 4, 3) > DEFAULT_MEMORY_BUDGET_MB
    code, out, err = run_cli(capsys, "koszul", "--n", "60", "--m", "3")
    assert code == 3 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)
    assert error["exit_code"] == 3 and "budget" in error["error"]
    monkeypatch.undo()
    # a request in the filling regime stays a usage error at any size
    assert "filling regime" in usage_error(capsys, "koszul", "--n", "60", "--m", "400")


def test_value_error_while_computing_is_a_check_failure(capsys, monkeypatch):
    # a rank above its proven upper bound is a broken certificate, found
    # after the flags were accepted: exit 1 with one JSON line, not a usage
    # error
    def broken(*args):
        return rank_consensus(np.eye(3, dtype=np.int64), upper=2)

    monkeypatch.setattr(experiments, "secant_dimension", broken)
    code, out, err = run_cli(capsys, "secant-scan", "--d", "6", "--n", "3")
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)
    assert error["exit_code"] == 1 and "exceeds the upper bound" in error["error"]


def test_memory_error_is_a_resource_exit(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 36.0 GiB")

    monkeypatch.setattr(experiments, "koszul_defect_check", exhausted)
    code, out, err = run_cli(capsys, "koszul", "--n", "4", "--m", "2")
    assert code == 3 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": "Unable to allocate 36.0 GiB", "exit_code": 3}


def test_secant_scan_d6_n12_fits_the_default_budget():
    assert secant_memory_mb(12, 6, max_rank_m(12, 6)) <= DEFAULT_MEMORY_BUDGET_MB


def test_max_rank_scan_matches_the_cli_past_degree_8(capsys):
    # max_rank_scan takes any d >= 4, as secant-scan does
    code, out, _ = run_cli(capsys, "secant-scan", "--d", "24", "--n", "3", "--format", "json")
    (record,) = max_rank_scan([3], 24)
    assert (code, out) == (0, _json_line(dataclasses.asdict(record)))
    assert record.engine_report.certified and record.orbit is not None


@pytest.mark.parametrize("argv", [
    ["koszul", "--n", "4", "--m", "2"],
    ["contact", "--n", "2", "--d", "5"],
    ["recover", "--n", "3", "--m", "2"],
    ["secant-scan", "--d", "5", "--n", "3"],
])
def test_tol_is_a_usage_error(capsys, argv):
    assert usage_error(capsys, *argv, "--tol", "1e-8").startswith("--tol ")


def test_contact_command(capsys):
    code, out, _ = run_cli(capsys, "contact", "--n", "2", "--d-range", "5..6",
                           "--trials", "1")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["d"] for r in records] == [5, 6]
    assert all(r["kernel_dim"] == 1 and r["certified"] for r in records)


@pytest.mark.parametrize("argv, last", [
    (["secant-scan", "--d", "66", "--n", "2"], "2,13,65,65"),
    (["secant-scan", "--d", "70", "--n", "3"], "3,284,2556,2556"),
    (["contact", "--n", "2", "--d", "70"], '{"certified":true,"d":70,"kernel_dim":1,"n":2}'),
])
def test_degrees_past_int64_binomials_certify(capsys, argv, last):
    # the shift tables at these degrees span binomials up to C(71, 35) >
    # 2^63, none of which an entry reads
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out.splitlines()[-1]) == (0, last)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_contact_command_certifies_d6_up_to_n8(capsys, n):
    code, out, _ = run_cli(capsys, "contact", "--n", str(n), "--d", "6")
    assert code == 0
    assert json.loads(out) == {"n": n, "d": 6, "kernel_dim": 1, "certified": True}


_CONTACT_PEAK_SCRIPT = """
import sys
from momentlab.cli import main

code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) // 1024)
sys.exit(code)
"""


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
@pytest.mark.parametrize("n, peak_limit_mb", [(12, 500), (14, 500), (19, 400)])
def test_contact_command_certifies_d6_at_scale(n, peak_limit_mb):
    # In a fresh process the whole command peaks below 500 MB up to n=14 and
    # below 400 MB at n=19 (dim_gm 209, dim_forms 134596): the check holds
    # the tangent block, eliminated in place, one annihilator combination of
    # dim_forms residues and the two int32 generator blocks, each
    # O(dim_gm dim_forms) cells; the only rows it eliminates besides the
    # tangent block are the square sketch, one dim_gm x dim_gm matrix.
    env = dict(os.environ, PYTHONPATH=str(Path(momentlab.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _CONTACT_PEAK_SCRIPT, "contact", "--n", str(n), "--d", "6"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    record, peak_mb = out.splitlines()
    assert json.loads(record) == {"n": n, "d": 6, "kernel_dim": 1, "certified": True}
    assert int(peak_mb) < peak_limit_mb


def _no_generic_point(monkeypatch):
    # every tangent block looks degenerate: its annihilator has no vector
    empty = np.zeros(0, dtype=np.int64)
    monkeypatch.setattr(experiments, "kernel_modp", lambda matrix, p, coefficients: (
        empty, empty, np.zeros((0, 1), dtype=np.int64)))


def _gauge_escapes(monkeypatch):
    residue = experiments._gauge_residue
    monkeypatch.setattr(experiments, "_gauge_residue", lambda *args: residue(*args) + 1)


def _annihilator_fault(monkeypatch):
    # one pivot entry of the annihilator combination is off by 1: it no
    # longer annihilates the tangent block
    kernel = experiments.kernel_modp

    def faulty(matrix, p, coefficients):
        pivots, free, vectors = kernel(matrix, p, coefficients)
        vectors[pivots[0], 0] = (vectors[pivots[0], 0] + 1) % p
        return pivots, free, vectors

    monkeypatch.setattr(experiments, "kernel_modp", faulty)


@pytest.mark.parametrize("breakage, message", [
    (_no_generic_point, "no generic parameter point"),
    (_gauge_escapes, "gauge direction escaped"),
    (_annihilator_fault, "gauge direction escaped"),
])
def test_contact_check_failure_is_one_json_error_line(capsys, monkeypatch, breakage, message):
    breakage(monkeypatch)
    code, out, err = run_cli(capsys, "contact", "--n", "3", "--d", "6")
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    payload = json.loads(line)
    assert payload["exit_code"] == 1 and message in payload["error"]


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _contact_kernel_2_at_d6(monkeypatch):
    kernel = experiments.contact_kernel
    monkeypatch.setattr(experiments, "contact_kernel",
                        lambda n, d, *args: 2 if d == 6 else kernel(n, d, *args))
    return ["contact", "--n", "3", "--d-range", "5..7"], "".join(
        _json_line({"n": 3, "d": d, "kernel_dim": 1 + (d == 6), "certified": d != 6})
        for d in (5, 6, 7))


def _koszul_mismatch(monkeypatch):
    report = dataclasses.replace(experiments.koszul_defect_check(4, 2), matches_choose2=False)
    monkeypatch.setattr(experiments, "koszul_defect_check", lambda *args: report)
    return ["koszul", "--n", "4", "--m", "2"], _json_line(dataclasses.asdict(report))


def _recovery_unconverged(monkeypatch):
    result, truth = recovery.run_recovery_demo(2, 1, (6,), False, 0, 1e-3)
    result = dataclasses.replace(result, converged=False)
    monkeypatch.setattr(recovery, "run_recovery_demo", lambda *args: (result, truth))
    return ["recover", "--n", "2", "--m", "1"], _json_line(result.to_dict())


@pytest.mark.parametrize("breakage, key", [
    (_contact_kernel_2_at_d6, "not_certified"),
    (_koszul_mismatch, "not_certified"),
    (_recovery_unconverged, "not_converged"),
])
def test_failed_check_prints_its_record_and_one_stderr_line(capsys, monkeypatch, breakage,
                                                            key):
    # a check that fails prints its records as a passing one does, exits 1
    # and says why on stderr: one JSON line per failed record
    argv, stdout = breakage(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, stdout)
    (line,) = err.splitlines()
    assert list(json.loads(line)) == [key]


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "19", "--d", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["generic_rank_lower"] == 644
    assert payload["param_count_max_m_floor"] == 644
    assert payload["dim_gm"] == 209


def test_koszul_command(capsys):
    code, out, _ = run_cli(capsys, "koszul", "--n", "4", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] == 1
    assert payload["matches_choose2"] is True


def test_koszul_filling_regime_usage_error(capsys):
    assert "filling" in usage_error(capsys, "koszul", "--n", "3", "--m", "2")


def test_recover_weights_flag_prints_the_demo_with_those_weights(capsys):
    # --weights free draws the mixing weights and refines them, uniform
    # fixes them: each prints the demo's result at the CLI's defaults
    lines = []
    for weights in ("free", "uniform"):
        code, out, _ = run_cli(capsys, "recover", "--degrees", "4,6", "--weights", weights)
        result, _ = recovery.run_recovery_demo(3, 2, (4, 6), weights == "free")
        assert (code, out) == (0, _json_line(result.to_dict())), weights
        assert result.converged
        lines.append(out)
    assert lines[0] != lines[1]


def test_recover_command(capsys):
    code, out, _ = run_cli(capsys, "recover")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["matched_error"] <= 1e-8


@pytest.mark.parametrize("argv", [
    ("--perturb", "1e300"), ("--n", "2", "--m", "1", "--perturb", "1e200"), ("--perturb", "1e308"),
])
def test_recover_from_a_start_that_overflows_is_one_error_line(capsys, argv):
    # a start whose residual overflows is a divergence: exit 1, no record,
    # and one JSON line on stderr, with no numpy warning (an error here)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "recover", *argv)
    (line,) = err.splitlines()
    assert (code, out) == (1, "") and "not finite" in json.loads(line)["error"]


@pytest.mark.slow
def test_recover_n10_m75_converges(capsys):
    # one below the largest m the parameter count allows at n=10, d=6 (76):
    # a 5005 x 4875 Jacobian, about 55 s and 660 MB on a 2-core host
    code, out, _ = run_cli(capsys, "recover", "--n", "10", "--m", "75", "--degrees", "6")
    payload = json.loads(out)
    assert code == 0 and payload["converged"] is True
    assert payload["matched_error"] <= 1e-8


def test_usage_error_exit_code(capsys):
    assert usage_error(capsys, "secant-scan").startswith("--d ")  # missing required --d


def test_secant_scan_m_zero_is_a_usage_error(capsys, monkeypatch):
    # n = 0 and m = 0, like every other out-of-range value or range that
    # does not parse, are usage errors in every command that takes them,
    # refused before any work runs by an error naming the flag
    def work(name):
        def computed(*args):
            raise AssertionError(f"{name}{args} ran")
        return computed

    for module, name in ((experiments, "secant_dimension"), (experiments, "contact_kernel"),
                         (experiments, "koszul_defect_check"),
                         (recovery, "run_recovery_demo")):
        monkeypatch.setattr(module, name, work(name))
    for argv, flag in ((["secant-scan", "--d", "6", "--n", "0"], "--n"),
                       (["bounds", "--n", "2", "--d", "6", "--m", "0"], "--m"),
                       (["recover", "--m", "0"], "--m"),
                       (["recover", "--n", "0"], "--n"),
                       (["recover", "--degrees", "1"], "--degrees"),
                       (["recover", "--degrees", "0"], "--degrees"),
                       (["recover", "--perturb", "inf"], "--perturb"),
                       (["recover", "--perturb", "nan"], "--perturb"),
                       (["contact", "--n", "3", "--d", "3"], "--d"),
                       (["contact", "--n", "3", "--d", "4"], "--d"),
                       (["contact", "--n", "3", "--d-range", "3..6"], "--d-range"),
                       (["koszul", "--n", "3", "--m", "50"], "--m"),
                       (["secant-scan", "--d", "6", "--n-range", "7,1"], "--n-range"),
                       (["secant-scan", "--d", "6", "--n-range", "1..3"], "--n-range"),
                       (["secant-scan", "--d", "5", "--n", "3", "--m", "0"], "--m"),
                       (["secant-scan", "--d", "5", "--n-range", "3,0", "--m", "2"], "--n-range"),
                       (["secant-scan", "--d", "5", "--n-range", "a..b"], "--n-range"),
                       (["contact", "--n", "3", "--d-range", "x"], "--d-range"),
                       (["recover", "--degrees", "4,x"], "--degrees"),
                       (["moment-form", "--degree", "0"], "--degree"),
                       (["contact", "--n", "1", "--d", "6"], "--n"),
                       (["contact", "--n", "3", "--d", "6", "--trials", "0"], "--trials"),
                       (["koszul", "--n", "1", "--m", "2"], "--n"),
                       (["koszul", "--n", "4", "--m", "0"], "--m"),
                       (["bounds", "--n", "0", "--d", "6"], "--n"),
                       (["bounds", "--n", "3", "--d", "-2"], "--d"),
                       (["secant-scan", "--d", "6", "--n", "3", "--memory-budget-mb", "0"],
                        "--memory-budget-mb"),
                       (["secant-scan", "--d", "6", "--n", "3", "--memory-budget-mb", "-5"],
                        "--memory-budget-mb")):
        assert usage_error(capsys, *argv).startswith(flag + " "), argv
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "secant-scan", "--d", "5", "--n", "1", "--m", "1")
    assert (code, out) == (0, "n,rank,secant dimension,expected dimension\n1,1,1,1\n")
    # a value repeated in a grid is run again, as every value is
    code, out, _ = run_cli(capsys, "secant-scan", "--d", "5", "--n-range", "3,3")
    assert (code, out.splitlines()[1:]) == (0, ["3,2,18,18"] * 2)
    code, out, _ = run_cli(capsys, "contact", "--n", "2", "--d-range", "5,5")
    assert (code, len(out.splitlines())) == (0, 2)


def test_out_of_range_degrees_are_usage_errors_naming_the_flag(capsys):
    for argv, flag in ((["secant-scan", "--d", "0", "--n", "2"], "--d"),
                       (["secant-scan", "--d", "-1", "--n", "2"], "--d"),
                       (["secant-scan", "--d", "3", "--n-range", "2..3"], "--d"),
                       (["moment-table", "--max-d", "0"], "--max-d"),
                       (["moment-table", "--max-d", "-3"], "--max-d"),
                       (["moment-table", "--max-d", "10"], "--max-d")):
        assert usage_error(capsys, *argv).startswith(flag + " "), argv


_SEEDED = (
    ["secant-scan", "--d", "5", "--n", "3"],
    ["contact", "--n", "2", "--d", "5"],
    ["koszul", "--n", "4", "--m", "2"],
    ["recover", "--n", "2", "--m", "1"],
)


# recover draws no prime: it takes --seed alone
@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, flag, id=f"argv{i}-{flag}")
    for i, argv in enumerate(_SEEDED) for flag in ("--seed", "--prime-seed")
    if argv[0] != "recover" or flag == "--seed"
])
def test_negative_seeds_are_usage_errors_naming_the_flag(capsys, argv, flag):
    assert usage_error(capsys, *argv, flag, "-1").startswith(flag + " ")


@pytest.mark.parametrize("argv", [
    ["secant-scan", "--d", "6", "--n-range", "6..2"],
    ["contact", "--n", "3", "--d-range", "8..5"],
    ["recover", "--degrees", "6..4"],
])
def test_reversed_ranges_are_usage_errors_naming_the_flag(capsys, argv):
    flag, value = argv[-2:]
    assert usage_error(capsys, *argv) == f"{flag} {value!r} gives no value"


@pytest.mark.parametrize("argv, flag", [
    (["secant-scan", "--d", "6", "--n", "3", "--n-range", "2..4"], "--n-range"),
    (["contact", "--n", "3", "--d", "6", "--d-range", "5..8"], "--d-range"),
    (["recover", "--n", "3", "--m", "2", "--degrees", "6,6"], "--degrees"),
])
def test_colliding_flags_are_usage_errors_naming_the_flag(capsys, argv, flag):
    # a value that another flag would override, or a repeated degree, is
    # refused before any work
    assert usage_error(capsys, *argv).startswith(flag + " ")


def test_recover_takes_no_prime_seed(capsys):
    error = usage_error(capsys, "recover", "--n", "2", "--m", "1", "--prime-seed", "5")
    assert error.startswith("--prime-seed ")


@pytest.mark.parametrize("argv, flag", [
    (["secant-scan", "--d", "x", "--n", "3"], "--d"),  # not an integer
    (["koszul", "--n", "4"], "--m"),  # a missing required flag
    (["bounds", "--n", "2", "--d", "6", "--k", "3"], "--k"),  # an unknown flag
    (["contact", "--n", "3", "--d", "6", "--d-range", "5..8"], "--d-range"),  # both of a pair
    (["secant-scan", "--d", "5", "--n", "3", "--format", "xml"], "--format"),
    (["contact", "--n", "3", "--d"], "--d"),  # a flag without its value
    (["secant-scan", "--d", "5"], None),  # neither of a required pair
    (["no-such-command"], None),
    ([], None),
])
def test_argparse_errors_are_one_json_line(capsys, argv, flag):
    # the errors that argparse finds itself take the usage-error path of
    # every other flag: exit 2, no stdout, one JSON line and no usage text
    error = usage_error(capsys, *argv)
    assert flag is None or error.startswith(flag + " "), error


@pytest.mark.parametrize("command", [[], *([c] for c in _COMMAND_NAMES)])
def test_help_exits_0_with_the_help_on_stdout(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "-h"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith(" ".join(["usage: momentlab", *command]))


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_examples_run(capsys):
    # every `momentlab` line of the README's CLI block, without its comment
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["momentlab"]]
    assert len(commands) == 8
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out, argv


GOLDEN = Path(__file__).with_name("golden_stdout.json")


@pytest.mark.parametrize("case", json.loads(GOLDEN.read_text()),
                         ids=lambda case: " ".join(case["argv"]))
def test_stdout_and_exit_code_match_the_recorded_ones(capsys, case):
    # golden_stdout.json holds each command's stdout and exit code as
    # `python -m momentlab.cli ARGV` printed them, recorded before the
    # row-bounded elimination and the staircase layout; the three `contact`
    # cases after `bounds --n 19 --d 6` were recorded before the contact
    # check certified from one random annihilator combination, and the last
    # two, both `bounds`, before each record printed its dataclass fields.
    # The JSON cases of `secant-scan` and `koszul` were re-recorded when
    # secant records gained `orbit`, with every other key's value unchanged.
    # Of the last three, d=5, n=8 and d=6, n=10 (slices past the stack's
    # bounds) were recorded before `rank.ranks_modp` took the slices, and
    # d=4, n=3, m=4 after a filling degree-4 record named its upper bound's
    # source.  The three degree-4 cases were re-recorded when degree-4
    # records took orbit slices: only `orbit` changed, from null
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["exit_code"], case["stdout"])


def _fields(value):
    """A dataclass as {field: _fields(its value)}, a tuple as the list of
    its items' _fields, anything else as None."""
    if dataclasses.is_dataclass(value):
        return {f.name: _fields(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return [_fields(v) for v in value] if isinstance(value, tuple) else None


def _keys(value):
    """Parsed JSON as _fields reads a dataclass: objects by key, lists by item."""
    if isinstance(value, dict):
        return {k: _keys(v) for k, v in value.items()}
    return [_keys(v) for v in value] if isinstance(value, list) else None


def test_printed_keys_are_the_record_fields(capsys):
    # a key is printed exactly when it is a field of its record, nested
    # records included: five records print as dataclasses.asdict, and
    # BoundReport leaves out an unset optional field
    record = secant_dimension(3, 5, 2)
    koszul = experiments.koszul_defect_check(4, 2)
    assert record.orbit is not None and record.engine_report.certified
    printed = [(record, ["secant-scan", "--d", "5", "--n", "3", "--m", "2", "--format", "json"]),
               (koszul, ["koszul", "--n", "4", "--m", "2"]),
               (record.engine_report, None),
               (bounds.splitting_optimizer(6), None),
               (bounds.mm_condition_report(3, 6, 2, True, False), None)]
    for rec, argv in printed:
        line = _json_line(dataclasses.asdict(rec))
        if argv:
            assert run_cli(capsys, *argv)[:2] == (0, line)
        assert _keys(json.loads(line)) == _fields(rec), type(rec)
    assert json.loads(_json_line(dataclasses.asdict(record)))["engine_report"]["certified"]
    unset = {"m", "mm_margin", "generic_rank_lower", "generic_rank_upper"}
    for rec, dropped in [(bounds.bound_report(3, 6, 2), set()), (bounds.bound_report(5, 4), unset)]:
        assert set(rec.to_dict()) == set(_fields(rec)) - dropped
    assert len({type(rec) for rec, _ in printed} | {bounds.BoundReport}) == 6


_COMMANDS = (
    ["contact", "--n", "3", "--d", "6"],
    ["koszul", "--n", "5", "--m", "2"],
    ["secant-scan", "--d", "5", "--n", "3", "--format", "json"],
)

_ONE_PROCESS_SCRIPT = """
import contextlib, io, json, sys
from momentlab.cli import main
commands = json.loads(sys.argv[1])
outputs, usage_codes = [], []
for argv in commands:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    outputs.append([code, buffer.getvalue()])
    with contextlib.redirect_stderr(io.StringIO()):
        usage_codes.append(main(["koszul", "--n", "4"]))  # missing --m
print(json.dumps({"outputs": outputs, "usage_codes": usage_codes,
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_commands_in_one_process_match_fresh_processes():
    # one process serves several commands: the parser is built once and
    # reused across a usage error, and no command imports numpy.ma
    env = dict(os.environ, PYTHONPATH=str(Path(momentlab.__file__).resolve().parents[1]))
    shared = json.loads(subprocess.run(
        [sys.executable, "-c", _ONE_PROCESS_SCRIPT, json.dumps(_COMMANDS)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout)
    assert shared["numpy.ma"] is False
    assert shared["usage_codes"] == [2] * len(_COMMANDS)
    for argv, (code, out) in zip(_COMMANDS, shared["outputs"]):
        alone = subprocess.run([sys.executable, "-m", "momentlab.cli", *argv],
                               env=env, capture_output=True, text=True)
        assert (code, out) == (alone.returncode, alone.stdout)
        assert code == 0 and out
