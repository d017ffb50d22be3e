"""CLI contract: output formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import momentlab
from momentlab import experiments
from momentlab.bounds import dim_forms, dim_gm
from momentlab.cli import DEFAULT_MEMORY_BUDGET_MB, _scan_memory_mb, main
from momentlab.experiments import max_rank_m, secant_dimension
from momentlab.moments import GaussianParams, moment_forms
from momentlab.tangent import sample_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moment_table_rows(capsys):
    code, out, _ = run_cli(capsys, "moment-table", "--max-d", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[5] == "6\tl^6 + 15 q l^4 + 45 q^2 l^2 + 15 q^3"
    assert lines[1] == "2\tl^2 + q"
    # degree-8 coefficients 1, 28, 210, 420, 105
    assert lines[7] == "8\tl^8 + 28 q l^6 + 210 q^2 l^4 + 420 q^3 l^2 + 105 q^4"


def test_moment_table_degree_cap(capsys):
    code, _, err = run_cli(capsys, "moment-table", "--max-d", "10")
    assert code == 2
    assert "error" in err


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


def test_secant_scan_out_file_holds_the_stdout_bytes(capsys, tmp_path):
    args = ("secant-scan", "--d", "5", "--n-range", "2..4")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    path = tmp_path / "scan.csv"
    code, out_with_file, _ = run_cli(capsys, *args, "--out", str(path))
    assert code == 0 and out_with_file == ""
    assert path.read_bytes() == out.encode()
    assert out.startswith("n,rank,secant dimension,expected dimension\n2,")


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

    real = rank._echelon
    monkeypatch.setattr(rank, "_echelon", lambda a, p: real(a, p)[:-1])
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


def test_secant_scan_memory_estimate_covers_traced_peak():
    # a first scan imports lazily loaded modules and fills the index caches,
    # which a process pays once; the estimate covers what each scan holds.
    # At d=5, n=5 the 6 points' forms run in one group, at d=6, n=6 the 17
    # points' in two
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
        assert peak <= _scan_memory_mb(n, d, m) * 1e6, (n, d)


def test_secant_certificate_traced_peak_stays_below_two_matrices():
    # d=6, n=7: 910 x 924 int64; d=4, n=12: 1350 x 1365, with the Koszul
    # check over Z.  Each prime builds the residue matrix from the reduced
    # forms and eliminates it in place, and each limb product's temporaries
    # cover at most BLOCK_ROWS x CHUNK cells: the traced peak stays below 15
    # bytes per cell, where a second copy of the matrix alone would make 16.
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


def test_scan_estimate_counts_the_forms_at_96_bytes_a_cell():
    # the forms each point keeps, s_{d-2} and s_{d-1}, and all forms of the
    # point being computed are counted at 96 bytes a cell whatever their
    # dtype, besides 8 bytes a cell of the residue matrix.  The corner of
    # the sampling box has object forms from degree 12 at n=3.
    corner = GaussianParams.make([10] * 3, [10] * 6)
    assert moment_forms(corner, 11)[11].dtype == np.int64
    assert moment_forms(corner, 12)[12].dtype == object
    for n, d in ((3, 13), (3, 24), (6, 14), (8, 10), (13, 6)):
        m = max_rank_m(n, d)
        kept = dim_forms(n, d - 2) + dim_forms(n, d - 1)
        forms = 96 * (m * kept + dim_forms(n + 1, d - 1))
        matrix = 8 * m * dim_gm(n) * dim_forms(n, d)
        assert _scan_memory_mb(n, d, m) * 1e6 >= forms + matrix, (n, d)
    # d=14, n=6 (430 points of 27 rows by 11628 columns, object forms) now
    # fits the budget, and d=10, n=8 (19448 x 19448, int64 forms) still does
    for n, d in ((6, 14), (8, 10)):
        assert _scan_memory_mb(n, d, max_rank_m(n, d)) <= DEFAULT_MEMORY_BUDGET_MB, (n, d)


_PEAK_RSS_SCRIPT = """
import sys
from momentlab.experiments import max_rank_m, secant_dimension

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))

n, d = int(sys.argv[1]), int(sys.argv[2])
secant_dimension(5, 5, max_rank_m(5, 5), seed=1)
before = status("VmRSS")
secant_dimension(n, d, max_rank_m(n, d))
print(status("VmHWM") - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
@pytest.mark.parametrize("n, d", [
    (7, 6), (3, 24), pytest.param(10, 6, marks=pytest.mark.slow),
])
def test_secant_scan_memory_estimate_covers_peak_rss(n, d):
    # In a fresh process, after one warm-up scan, the peak resident set's
    # growth over the resident set before the scan bounds what the scan
    # holds at once, allocations that tracemalloc does not see included.
    # The per-cell term is the larger part of the estimate at every size:
    # d=6, n=7 (910 x 924) and d=6, n=10 (5005 x 5005) are int64, d=24, n=3
    # (324 x 325) has object forms at every point.
    m = max_rank_m(n, d)
    if d == 24:
        assert all(moment_forms(p, d - 1)[-1].dtype == object for p in sample_params(42, n, m))
    env = dict(os.environ, PYTHONPATH=str(Path(momentlab.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, str(n), str(d)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert int(out) <= _scan_memory_mb(n, d, m) * 1e6


def test_memory_guard_admits_d6_n13_and_refuses_n14(capsys):
    # d=6, n=13 (18512 x 18564) is about 3.1 GB; n=14 (27132 x 27132) is
    # about 6.4 GB, residue matrix and forms together.
    m13, m14 = max_rank_m(13, 6), max_rank_m(14, 6)
    assert (m13 * dim_gm(13), dim_forms(13, 6)) == (18512, 18564)
    assert _scan_memory_mb(13, 6, m13) <= DEFAULT_MEMORY_BUDGET_MB
    assert _scan_memory_mb(14, 6, m14) > DEFAULT_MEMORY_BUDGET_MB
    code, out, err = run_cli(capsys, "secant-scan", "--d", "6", "--n", "14")
    assert code == 3 and out == "" and "budget" in json.loads(err)["error"]


def test_secant_scan_d6_n12_fits_the_default_budget():
    assert _scan_memory_mb(12, 6, max_rank_m(12, 6)) <= DEFAULT_MEMORY_BUDGET_MB


@pytest.mark.parametrize("argv", [
    ["koszul", "--n", "4", "--m", "2"],
    ["contact", "--n", "2", "--d", "5"],
    ["recover", "--n", "3", "--m", "2"],
    ["secant-scan", "--d", "5", "--n", "3"],
])
def test_tol_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-8"])
    assert exc.value.code == 2


def test_contact_command(capsys):
    code, out, _ = run_cli(capsys, "contact", "--n", "2", "--d-range", "5..6",
                           "--trials", "1")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["d"] for r in records] == [5, 6]
    assert all(r["kernel_dim"] == 1 and r["certified"] for r in records)


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
@pytest.mark.parametrize("n, peak_limit_mb", [(12, 500), (14, 500), (19, 1000)])
def test_contact_command_certifies_d6_at_scale(n, peak_limit_mb):
    # In a fresh process the whole command peaks below 500 MB up to n=14 and
    # below 1 GB at n=19 (dim_gm 209, dim_forms 134596): the check holds the
    # tangent block, its kernel in echelon coordinates, the two weighted
    # generator blocks and the gauge check's generator rows, each
    # O(dim_gm dim_forms) cells; the rows it eliminates are one
    # dim_gm x dim_gm matrix.
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
    monkeypatch.setattr(experiments, "kernel_modp",
                        lambda matrix, p: (empty, empty, np.zeros((0, 0), dtype=np.int64)))


def _gauge_escapes(monkeypatch):
    residue = experiments._gauge_residue
    monkeypatch.setattr(experiments, "_gauge_residue", lambda *args: residue(*args) + 1)


@pytest.mark.parametrize("breakage, message", [
    (_no_generic_point, "no generic parameter point"),
    (_gauge_escapes, "gauge direction escaped"),
])
def test_contact_check_failure_is_one_json_error_line(capsys, monkeypatch, breakage, message):
    breakage(monkeypatch)
    code, out, err = run_cli(capsys, "contact", "--n", "3", "--d", "6")
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    payload = json.loads(line)
    assert payload["exit_code"] == 1 and message in payload["error"]


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
    code, _, err = run_cli(capsys, "koszul", "--n", "3", "--m", "2")
    assert code == 2
    assert "filling" in json.loads(err.splitlines()[0])["error"]


def test_recover_command(capsys):
    code, out, _ = run_cli(capsys, "recover")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["matched_error"] <= 1e-8


@pytest.mark.slow
def test_recover_n10_m75_converges(capsys):
    # one below the largest m the parameter count allows at n=10, d=6 (76):
    # a 5005 x 4875 Jacobian, about 55 s and 660 MB on a 2-core host
    code, out, _ = run_cli(capsys, "recover", "--n", "10", "--m", "75", "--degrees", "6")
    payload = json.loads(out)
    assert code == 0 and payload["converged"] is True
    assert payload["matched_error"] <= 1e-8


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["secant-scan"])  # missing required --d
    assert exc.value.code == 2


def test_secant_scan_m_zero_is_a_usage_error(capsys, monkeypatch):
    # n = 0 and m = 0 are usage errors in every command that takes them
    for argv in (["secant-scan", "--d", "6", "--n", "0"],
                 ["bounds", "--n", "0", "--d", "6"],
                 ["bounds", "--n", "2", "--d", "6", "--m", "0"],
                 ["recover", "--m", "0"],
                 ["recover", "--n", "0"],
                 ["recover", "--degrees", "1"],
                 ["recover", "--degrees", "0"],
                 ["recover", "--perturb", "inf"],
                 ["recover", "--perturb", "nan"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["exit_code"] == 2
    # a grid point with no components, or a range that does not parse, is
    # refused before any point is computed, by an error naming the flag
    def computed(*args):
        raise AssertionError(f"secant_dimension{args} ran")

    monkeypatch.setattr(experiments, "secant_dimension", computed)
    for argv, flag in ((["secant-scan", "--d", "6", "--n-range", "7,1"], "--n-range"),
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
                       (["bounds", "--n", "0", "--d", "6"], "--n")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["exit_code"] == 2 and error["error"].startswith(flag + " "), argv
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "secant-scan", "--d", "5", "--n", "1", "--m", "1")
    assert (code, out) == (0, "n,rank,secant dimension,expected dimension\n1,1,1,1\n")


def test_out_of_range_degrees_are_usage_errors_naming_the_flag(capsys):
    for argv, flag in ((["secant-scan", "--d", "0", "--n", "2"], "--d"),
                       (["secant-scan", "--d", "-1", "--n", "2"], "--d"),
                       (["secant-scan", "--d", "3", "--n-range", "2..3"], "--d"),
                       (["moment-table", "--max-d", "0"], "--max-d"),
                       (["moment-table", "--max-d", "-3"], "--max-d"),
                       (["moment-table", "--max-d", "10"], "--max-d")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["exit_code"] == 2 and error["error"].startswith(flag + " "), argv


@pytest.mark.parametrize("flag", ["--seed", "--prime-seed"])
@pytest.mark.parametrize("argv", [
    ["secant-scan", "--d", "5", "--n", "3"],
    ["contact", "--n", "2", "--d", "5"],
    ["koszul", "--n", "4", "--m", "2"],
    ["recover", "--n", "2", "--m", "1"],
])
def test_negative_seeds_are_usage_errors_naming_the_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv, flag, "-1")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)
    assert error["exit_code"] == 2 and error["error"].startswith(flag + " ")


@pytest.mark.parametrize("argv", [
    ["secant-scan", "--d", "6", "--n-range", "6..2"],
    ["contact", "--n", "3", "--d-range", "8..5"],
    ["recover", "--degrees", "6..4"],
])
def test_reversed_ranges_are_usage_errors_naming_the_flag(capsys, argv):
    flag, value = argv[-2:]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)
    assert error["exit_code"] == 2 and error["error"] == f"{flag} {value!r} gives no value"


GOLDEN = Path(__file__).with_name("golden_stdout.json")


@pytest.mark.parametrize("case", json.loads(GOLDEN.read_text()),
                         ids=lambda case: " ".join(case["argv"]))
def test_stdout_and_exit_code_match_the_recorded_ones(capsys, case):
    # golden_stdout.json holds each command's stdout and exit code as
    # `python -m momentlab.cli ARGV` printed them, recorded before the
    # row-bounded elimination and the staircase layout; its last three
    # cases, all `contact`, were recorded before the contact check certified
    # from one random annihilator combination
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["exit_code"], case["stdout"])


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
    try:
        main(["koszul", "--n", "4"])  # missing --m
    except SystemExit as exc:
        usage_codes.append(exc.code)
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
