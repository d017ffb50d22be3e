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
from momentlab.moments import GaussianParams, moment_forms, moment_l1_bound
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


def test_secant_scan_tol_adds_the_float_cross_check(capsys):
    code, out, _ = run_cli(capsys, "secant-scan", "--d", "5", "--n", "3",
                           "--format", "json", "--tol", "1e-8")
    assert code == 0
    engines = json.loads(out)["engine_report"]["engines"]
    assert [e["engine"] for e in engines] == ["modp", "float"]
    assert engines[1] == {"engine": "float", "parameter": 1e-8, "rank": 18}


def test_secant_scan_tol_reads_the_integer_matrix(capsys):
    # at d=4 the float rank shows the Koszul defect as well: C(3, 2) = 3
    # below the 3 x dim_gm rows, like the certified rank.  The residues that
    # the first prime leaves in the matrix it eliminates read otherwise.
    code, out, _ = run_cli(capsys, "secant-scan", "--d", "4", "--n-range", "5..7", "--m", "3",
                           "--format", "json", "--tol", "1e-8")
    assert code == 0
    reports = [json.loads(line)["engine_report"] for line in out.splitlines()]
    assert [[e["rank"] for e in r["engines"]] for r in reports] == [
        [57, 57], [78, 78], [102, 102]
    ]


def test_secant_scan_uncertified_record_exits_1(capsys, monkeypatch):
    import momentlab.rank as rank

    real = rank.rank_modp
    monkeypatch.setattr(rank, "rank_modp", lambda m, p, **kw: real(m, p, **kw) - 1)
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
    # which a process pays once; the estimate covers what each scan holds
    n, d = 5, 5
    m = max_rank_m(n, d)
    secant_dimension(n, d, m, seed=1)
    tracemalloc.start()
    try:
        secant_dimension(n, d, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _scan_memory_mb(n, d, m) * 1e6


def test_secant_scan_memory_estimate_covers_traced_peak_with_tol():
    # --tol adds the float64 copy and the SVD after the elimination
    n, d = 5, 5
    m = max_rank_m(n, d)
    secant_dimension(n, d, m, seed=1, tol=1e-8)
    tracemalloc.start()
    try:
        secant_dimension(n, d, m, tol=1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _scan_memory_mb(n, d, m) * 1e6


def test_secant_certificate_traced_peak_stays_below_two_matrices():
    # d=6, n=7: 910 x 924 int64.  The matrix is assembled in place, then
    # reduced and eliminated in place, and each limb product's temporaries
    # cover at most BLOCK_ROWS x CHUNK cells: the traced peak stays below
    # 15 bytes per cell, where a second copy of the matrix alone would make 16.
    n, d = 7, 6
    m = max_rank_m(n, d)
    secant_dimension(5, 5, max_rank_m(5, 5), seed=1)
    tracemalloc.start()
    try:
        secant_dimension(n, d, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 15 * m * dim_gm(n) * dim_forms(n, d)


def test_every_admitted_scan_has_int64_moment_forms():
    # sample_params draws |l_i|, |Sigma_jk| <= 10, so L <= 10 n and
    # Q <= 10 n + 2 * 10 * n(n-1)/2 = 10 n^2; m = 1 admits the largest n.
    # A degree-d scan runs the recurrence to d-1; the bound at d covers it.
    box = 10
    for d in range(4, 9):
        n = 1
        while _scan_memory_mb(n, d, 1) <= DEFAULT_MEMORY_BUDGET_MB:
            assert moment_l1_bound(box * n, box * n * n, d) < 2**63, (n, d)
            n += 1
        assert n > 12
    assert moment_l1_bound(120, 1440, 5) < 2**36
    assert all(moment_l1_bound(10 * n, 10 * n * n, 5) < 2**60 for n in range(1, 31))


def test_scan_estimate_counts_object_forms_past_the_int64_bound():
    # the corner of the sampling box reaches the worst-case bound: at n = 3
    # its forms to degree 11 are int64, to degree 12 past 2^63
    corner = GaussianParams.make([10] * 3, [10] * 6)
    assert moment_forms(corner, 11)[11].dtype == np.int64
    assert moment_forms(corner, 12)[12].dtype == object
    # d = 14, n = 6: 430 x 27 rows by 11628 columns of object forms
    assert _scan_memory_mb(6, 14, max_rank_m(6, 14)) > DEFAULT_MEMORY_BUDGET_MB
    # at every degree, each scan the budget admits whose worst-case forms
    # can reach 2^63 is counted at 96 bytes per cell
    for d in range(4, 31):
        n = 1
        while _scan_memory_mb(n, d, 1) <= DEFAULT_MEMORY_BUDGET_MB:
            if moment_l1_bound(10 * n, 10 * n * n, d - 1) >= 2**63:
                assert _scan_memory_mb(n, d, 1) * 1e6 >= 96 * dim_gm(n) * dim_forms(n, d)
            n += 1


_PEAK_RSS_SCRIPT = """
import sys
from momentlab.experiments import max_rank_m, secant_dimension

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))

n, d = int(sys.argv[1]), int(sys.argv[2])
tol = float(sys.argv[3]) if sys.argv[3] != "none" else None
secant_dimension(5, 5, max_rank_m(5, 5), seed=1, tol=tol)
before = status("VmRSS")
secant_dimension(n, d, max_rank_m(n, d), tol=tol)
print(status("VmHWM") - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
@pytest.mark.parametrize("n, d, tol", [
    (7, 6, None), (7, 6, 1e-8), (3, 24, None),
    pytest.param(10, 6, None, marks=pytest.mark.slow),
    pytest.param(10, 6, 1e-8, marks=pytest.mark.slow),
])
def test_secant_scan_memory_estimate_covers_peak_rss(n, d, tol):
    # In a fresh process, after one warm-up scan, the peak resident set's
    # growth over the resident set before the scan bounds what the scan
    # holds at once, the copy LAPACK's SVD makes for --tol included (which
    # tracemalloc does not see).  The per-cell term is the larger part of
    # the estimate at both sizes: d=6, n=7 (910 x 924) is int64, d=24, n=3
    # (324 x 325) has object forms at every point.
    m = max_rank_m(n, d)
    if d == 24:
        assert all(moment_forms(p, d - 1)[-1].dtype == object for p in sample_params(42, n, m))
    env = dict(os.environ, PYTHONPATH=str(Path(momentlab.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, str(n), str(d), str(tol).lower()],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert int(out) <= _scan_memory_mb(n, d, m) * 1e6


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
@pytest.mark.parametrize("n, d", [(7, 6), pytest.param(10, 6, marks=pytest.mark.slow)])
def test_secant_scan_memory_estimate_without_tol_covers_peak_rss(n, d):
    # without --tol no float64 copy is made, and the estimate counts 8
    # bytes per cell; d=6, n=7 is 910 x 924, d=6, n=10 is 5005 x 5005
    m = max_rank_m(n, d)
    env = dict(os.environ, PYTHONPATH=str(Path(momentlab.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, str(n), str(d), "none"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert int(out) <= _scan_memory_mb(n, d, m, float_copy=False) * 1e6


def test_memory_guard_counts_the_float_copy_only_under_tol(capsys):
    # d=6, n=13 (18512 x 18564) is about 2.9 GB without --tol, 5.7 GB with
    # it; n=14 (27132 x 27132) is about 5.9 GB even without
    m13, m14 = max_rank_m(13, 6), max_rank_m(14, 6)
    assert (m13 * dim_gm(13), dim_forms(13, 6)) == (18512, 18564)
    assert _scan_memory_mb(13, 6, m13, float_copy=False) <= DEFAULT_MEMORY_BUDGET_MB
    assert _scan_memory_mb(13, 6, m13) > DEFAULT_MEMORY_BUDGET_MB
    assert _scan_memory_mb(14, 6, m14, float_copy=False) > DEFAULT_MEMORY_BUDGET_MB
    code, _, err = run_cli(capsys, "secant-scan", "--d", "6", "--n", "14")
    assert code == 3 and "budget" in json.loads(err)["error"]
    code, _, err = run_cli(capsys, "secant-scan", "--d", "6", "--n", "13", "--tol", "1e-8")
    assert code == 3 and "budget" in json.loads(err)["error"]
    # every scan the no-float-copy estimate admits has int64 moment forms too
    for d in range(4, 9):
        n = 1
        while _scan_memory_mb(n, d, 1, float_copy=False) <= DEFAULT_MEMORY_BUDGET_MB:
            assert moment_l1_bound(10 * n, 10 * n * n, d) < 2**63, (n, d)
            n += 1


def test_secant_scan_d6_n12_fits_the_default_budget():
    assert _scan_memory_mb(12, 6, max_rank_m(12, 6)) <= DEFAULT_MEMORY_BUDGET_MB


@pytest.mark.parametrize("argv", [
    ["koszul", "--n", "4", "--m", "2"],
    ["contact", "--n", "2", "--d", "5"],
    ["recover", "--n", "3", "--m", "2"],
])
def test_tol_is_a_usage_error_outside_secant_scan(argv):
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
@pytest.mark.parametrize("n", [12, 14])
def test_contact_command_certifies_d6_at_scale(n):
    # In a fresh process the whole command peaks below 500 MB: the check
    # holds the tangent block, its kernel in echelon coordinates and one
    # generator's residue rows, each O(dim_gm dim_forms) cells.
    env = dict(os.environ, PYTHONPATH=str(Path(momentlab.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _CONTACT_PEAK_SCRIPT, "contact", "--n", str(n), "--d", "6"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    record, peak_mb = out.splitlines()
    assert json.loads(record) == {"n": n, "d": 6, "kernel_dim": 1, "certified": True}
    assert int(peak_mb) < 500


def _no_generic_point(monkeypatch):
    # every tangent block looks degenerate: its annihilator has no vector
    empty = np.zeros(0, dtype=np.int64)
    monkeypatch.setattr(experiments, "kernel_modp",
                        lambda matrix, p: (empty, empty, np.zeros((0, 0), dtype=np.int64)))


def _gauge_escapes(monkeypatch):
    residue = experiments._gauge_residue
    monkeypatch.setattr(experiments, "_gauge_residue", lambda params, p: residue(params, p) + 1)


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


def test_env_seed_override(capsys, monkeypatch):
    _, base, _ = run_cli(capsys, "secant-scan", "--d", "5", "--n", "3",
                         "--format", "json")
    monkeypatch.setenv("MOMENTLAB_SEED", "42")
    _, env_forced, _ = run_cli(capsys, "secant-scan", "--d", "5", "--n", "3",
                               "--seed", "777", "--format", "json")
    # env var wins over the flag; default seed is also 42
    assert env_forced == base


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["secant-scan"])  # missing required --d
    assert exc.value.code == 2


def test_secant_scan_m_zero_is_a_usage_error(capsys):
    # n = 0 and m = 0 are usage errors in every command that takes them
    for argv in (["secant-scan", "--d", "5", "--n", "3", "--m", "0"],
                 ["secant-scan", "--d", "6", "--n", "0"],
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


GOLDEN = Path(__file__).with_name("golden_stdout.json")


@pytest.mark.parametrize("case", json.loads(GOLDEN.read_text()),
                         ids=lambda case: " ".join(case["argv"]))
def test_stdout_and_exit_code_match_the_recorded_ones(capsys, monkeypatch, case):
    # golden_stdout.json holds each command's stdout and exit code as
    # `python -m momentlab.cli ARGV` printed them with MOMENTLAB_SEED unset,
    # recorded before the row-bounded elimination and the staircase layout
    monkeypatch.delenv("MOMENTLAB_SEED", raising=False)
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
    env.pop("MOMENTLAB_SEED", None)
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
