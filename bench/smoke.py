"""Fast self-test of the benchmark (tiny sizes, a few seconds).

    python3 bench/smoke.py

Checks that the output checker rejects doctored records, that
BENCHMARK.json names the gated workloads and the per-layer metrics this
code produces, that every workload prints every metric with its unit and no
failed operation, traced and untraced, and that the benchmark refuses to
run without the momentlab sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import check
from tracing import PER_LAYER
from workloads import GATED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    check.self_test()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: WORKLOADS[name].why for name in GATED}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in PER_LAYER]

    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
                "\n".join(lines[:-1]))
            assert set(result["metrics"]) == {m["name"] for m in wanted}, result["metrics"]
            for m in wanted:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), got
                assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                           for line in lines[:-1]), f"{m['name']} not printed with its unit"
            assert any(line.split()[:3] == ["failed_ops", "0", "fraction"] for line in lines)
            print(f"ok  {workload:<14} trace={trace}  {result['attempted']} operations")

    bare = BENCH / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, next(iter(WORKLOADS)), 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without src/momentlab")
    return 0


if __name__ == "__main__":
    sys.exit(main())
