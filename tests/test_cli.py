"""CLI contract: output formats, determinism, exit codes."""

import json
import tracemalloc

import pytest

from momentlab.cli import _scan_memory_mb, main
from momentlab.experiments import max_rank_m, secant_dimension


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


def test_secant_scan_uncertified_record_exits_1(capsys, monkeypatch):
    import momentlab.rank as rank

    real = rank.rank_modp
    monkeypatch.setattr(rank, "rank_modp", lambda m, p: real(m, p) - 1)
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


def test_contact_command(capsys):
    code, out, _ = run_cli(capsys, "contact", "--n", "2", "--d-range", "5..6",
                           "--trials", "1")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["d"] for r in records] == [5, 6]
    assert all(r["kernel_dim"] == 1 and r["certified"] for r in records)


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
