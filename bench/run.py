"""Run one momentlab benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from a source checkout; nothing is installed.  Every child process
imports momentlab from `src/` of this checkout.  One closed-loop client
issues `momentlab.cli.main(argv)` calls one after another in a fresh child
process per run, so set-up time and peak memory are per run.

--trace 0 prints the end-to-end metrics:
  setup_s      median over 5 fresh processes of spawn -> `import momentlab.cli`
               done and `rank.prime_pool()` built (after one warm-up process)
  run_s        mean time of one pass over the workload's command list
  op_p50_s     median time of one command
  op_tail_s    the highest percentile with at least ten samples beyond it
               (the maximum when a run has ten samples or fewer)
  peak_rss_mb  ru_maxrss of the workload's child process
The host's speed drifts by a third over minutes, so every time is a wall
time scaled to a reference host speed: each set-up and each command is
bracketed by runs of a fixed calibration kernel (worker.calibrate), and its
wall time is multiplied by CALIBRATION_REF_S over the mean of the two
calibrations.  The raw wall times are printed beside the metrics and saved.
Failed operations (non-zero exit or a wrong checked field) are counted in
the result's `failed` field and printed as failed_ops.

--trace 1 runs one untraced and one traced pass, each in its own child,
checks that both give identical outputs, and prints the per-layer metrics.

The last line of stdout is the result JSON.  Details, per-operation records,
the environment and the spans go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import DIAGNOSTIC, LAYERS, PER_LAYER
from worker import calibrate
from workloads import GATED, WORKLOADS, pass_count

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5
# The calibration's typical time on the 2-vCPU host where the benchmark was
# defined; scaled times read as seconds on that host at that speed.
CALIBRATION_REF_S = 0.0025
DEADLINE_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "workload_seed": seed,
        "loadavg_start": list(os.getloadavg()),
        "calibration_ms_start": calibrate() * 1000,
        "platform": platform.platform(),
    }


def cpu_ticks() -> list[int] | None:
    """Aggregate CPU tick counters of the host (Linux /proc/stat), or None."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time stolen by the hypervisor between two cpu_ticks() readings."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run bench/worker.py; return (seconds from spawn to "ready", result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        stdout=subprocess.PIPE, cwd=ROOT, env=env,
    )
    try:
        out, ready_at = b"", None
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError(f"worker {args} passed the {DEADLINE_S} s deadline")
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready_at is None and b"\n" in out:
                ready_at = time.perf_counter()
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = out.decode().splitlines()
    if code != 0 or not lines or lines[0] != "ready":
        raise BenchError(f"worker {args} exited with {code}")
    result = json.loads(lines[1]) if len(lines) > 1 else None
    if result is not None and not Path(result["module"]).is_relative_to(ROOT / "src"):
        raise BenchError(f"measured {result['module']}, not this checkout's src/")
    return ready_at - start, result


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples): nearest-rank percentile leaving >= 10 beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, n
    q = 100 * (n - 10) // n
    return ordered[math.ceil(q * n / 100) - 1], q, n


def timed(workload: str, seed: int, passes: int, smoke: bool, deadline: float):
    spawn(["--setup-only"], deadline)  # warm-up: bytecode and page cache
    setups, setup_calibs = [], []
    calib = calibrate()
    for _ in range(1 if smoke else SETUP_SAMPLES):
        setups.append(spawn(["--setup-only"], deadline)[0])
        calib_before, calib = calib, calibrate()
        setup_calibs.append((calib_before + calib) / 2)
    args = ["--workload", workload, "--seed", str(seed), "--passes", str(passes)]
    _, result = spawn(args + (["--smoke"] if smoke else []), deadline)
    ops = result["ops"]
    for op in ops:
        op["scaled_s"] = op["seconds"] * CALIBRATION_REF_S / op["calib_s"]
    scaled_setups = [t * CALIBRATION_REF_S / c for t, c in zip(setups, setup_calibs)]
    value, q, n = tail([op["scaled_s"] for op in ops])
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "run_s": (sum(op["scaled_s"] for op in ops) / passes, "s"),
        "op_p50_s": (statistics.median(op["scaled_s"] for op in ops), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    wall_tail = tail([op["seconds"] for op in ops])[0]
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes; wall "
                   f"{statistics.median(setups):.4g} s",
        "run_s": f"mean of {passes} passes; wall {sum(result['passes_s']) / passes:.4g} s",
        "op_p50_s": f"median of {n} operations; wall "
                    f"{statistics.median(op['seconds'] for op in ops):.4g} s",
        "op_tail_s": f"p{q} of {n} operations, {n - math.ceil(q * n / 100)} beyond; wall "
                     f"{wall_tail:.4g} s",
        "peak_rss_mb": "ru_maxrss of the workload child",
    }
    details = {"setups_s": setups, "setup_calibs_s": setup_calibs, "passes_s": result["passes_s"],
               "tail_percentile": q, "tail_samples": n, "ops": ops}
    return metrics, notes, None, details


def traced(workload: str, seed: int, smoke: bool, deadline: float):
    args = ["--workload", workload, "--seed", str(seed), "--passes", "1"]
    args += ["--smoke"] if smoke else []
    spans_path = RESULTS / f"{workload}-seed{seed}.spans.jsonl.gz"
    _, plain = spawn(args, deadline)
    _, traced_run = spawn(args + ["--trace", "1", "--spans", str(spans_path)], deadline)
    layers = traced_run["layers"]
    layers["cli.cpu_s"] = statistics.mean(op["cpu_s"] for op in plain["ops"])
    layers["trace.overhead_s"] = traced_run["passes_s"][0] - plain["passes_s"][0]
    metrics = {name: (layers[name], unit) for name, unit, *_ in PER_LAYER}
    notes = {name: f"-> {moves} [{source}]" for name, _, _, moves, source in PER_LAYER}
    diagnostics = {name: (layers[name], unit, f"-> {moves} [{source}]")
                   for name, unit, _, moves, source in DIAGNOSTIC}

    def fingerprint(run):
        return [(op["argv"], op["rc"], op["output_sha256"]) for op in run["ops"]]

    error = traced_run["trace_error"]
    if fingerprint(plain) != fingerprint(traced_run):
        error = "outputs differ between the traced and the untraced pass"
    pass_s = traced_run["passes_s"][0]
    table = [f"  {'layer':<12} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        s = layers[f"{layer}.self_s"]
        table.append(f"  {layer:<12} {s:>10.4f} {s / pass_s:>7.1%}")
    table.append(f"  {'(unwrapped)':<12} {layers['trace.unwrapped_s']:>10.4f} "
                 f"{layers['trace.unwrapped_s'] / pass_s:>7.1%}")
    table.append(f"  traced run_s {pass_s:.4f} s, untraced run_s {plain['passes_s'][0]:.4f} s, "
                 f"{traced_run['span_count']} spans in {spans_path.relative_to(ROOT)}")
    details = {"untraced_run_s": plain["passes_s"][0], "traced_run_s": pass_s,
               "span_count": traced_run["span_count"], "layer_table": table,
               "diagnostics": diagnostics, "ops": plain["ops"] + traced_run["ops"]}
    return metrics, notes, error, details


def run_workload(workload: str, args) -> dict:
    """Run one workload, print its report, save its details; return the result object."""
    deadline = time.perf_counter() + DEADLINE_S
    env = environment(args.seed)
    ticks = cpu_ticks()
    if args.trace:
        metrics, notes, error, details = traced(workload, args.seed, args.smoke, deadline)
    else:
        passes = pass_count(workload, args.seconds, args.smoke)
        metrics, notes, error, details = timed(workload, args.seed, passes, args.smoke, deadline)
    env["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
    env["calibration_ms_end"] = calibrate() * 1000

    ops = details["ops"]
    failures = [op for op in ops if op["failure"] is not None]
    print(f"momentlab benchmark: workload={workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in details.get("layer_table", ()):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {notes[name]}")
    for name, (value, unit, note) in details.get("diagnostics", {}).items():
        print(f"  ({name:<26}) {value:>14.6g} {unit:<6} {note}, not in BENCHMARK.json")
    print(f"  {'failed_ops':<28} {len(failures) / len(ops):>14.6g} {'fraction':<6} "
          f"{len(failures)} of {len(ops)} operations")
    for op in failures:
        print(f"  FAILED {' '.join(op['argv'])}: {op['failure']}")
    if error:
        print(f"  TRACE CHECK FAILED: {error}")

    result = {
        "correct": not failures and error is None,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"environment": env, "workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              **result, "trace_error": error, **details}
    out = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for bench/smoke.py")
    args = ap.parse_args()
    if not (ROOT / "src" / "momentlab" / "cli.py").is_file():
        print(f"momentlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("--seconds must be at least 1 and --seed nonnegative", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    workloads = list(GATED) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args) for w in workloads}
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    # every workload's metrics, named <workload>.<metric>
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
