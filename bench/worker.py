"""One benchmark child process: set up momentlab, then run a closed loop of CLI commands.

Protocol on stdout: the line "ready" once `momentlab.cli` is imported and
the prime pool is built (the parent times set-up from spawn to this line),
then one JSON line with per-operation results.  The commands' own output
is captured in memory and checked after each operation's clock stops.
With --trace 1 the public functions are wrapped (see tracing.py) before the
prime pool is built, and the spans are written to --spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def calibrate() -> float:
    """Seconds of a fixed piece of work like momentlab's: an interpreter loop
    plus int64 mod-p updates of a 64k vector, the median of three runs so
    that one interrupt does not count.  It measures how fast the host runs
    right now; run.py scales every timing by it (see CALIBRATION_REF_S)."""
    import numpy as np

    times = []
    for _ in range(3):
        a = np.arange(1 << 16, dtype=np.int64)
        t0 = time.perf_counter()
        total = 0
        for i in range(15_000):
            total += i * i
        for _ in range(2):
            a = (a * 2147483059 + 7) % 2147482417
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def run_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    t1 = time.perf_counter()
    cpu = _cpu_seconds() - cpu0
    return {"argv": argv, "rc": rc, "start": t0, "seconds": t1 - t0, "cpu_s": cpu,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--passes", type=int)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()
    proto = sys.stdout

    import momentlab.cli as cli
    from momentlab import rank

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    rank.prime_pool()
    proto.write("ready\n")
    proto.flush()
    if args.setup_only:
        return 0

    from check import check
    from workloads import plan

    # A pass is timed as the sum of its commands' times, so neither the
    # checks nor the calibrations between commands count.  Each command's
    # calibration is the mean of the ones just before and just after it.
    passes, ops = [], []
    calib = calibrate()
    for pass_index, commands in enumerate(plan(args.workload, args.seed, args.passes, args.smoke)):
        pass_ops = []
        for op_index, argv in enumerate(commands):
            if tracer is not None:
                tracer.op = f"{pass_index}.{op_index}"
            op = run_op(cli, argv)
            calib_before, calib = calib, calibrate()
            op["calib_s"] = (calib_before + calib) / 2
            reason, records = check(argv, op["rc"], op["stdout"])
            stdout = op.pop("stdout")
            op.update({
                "pass": pass_index,
                "failure": reason,
                "iterations": sum(r.get("iterations", 0) for r in records),
                "output_bytes": len(stdout.encode()),
                "output_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            })
            if reason is None:
                op.pop("stderr")
            pass_ops.append(op)
        passes.append(sum(op["seconds"] for op in pass_ops))
        ops += pass_ops

    result = {
        "module": cli.__file__,
        "passes_s": passes,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from tracing import check_spans, layer_metrics, write_spans

        metrics = layer_metrics(
            tracer.spans, passes[0], sum(op["iterations"] for op in ops),
            sum(op["output_bytes"] for op in ops),
        )
        result["layers"] = metrics
        result["span_count"] = len(tracer.spans)
        result["trace_error"] = check_spans(tracer.spans, metrics, passes[0])
        write_spans(tracer.spans, args.spans)
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
