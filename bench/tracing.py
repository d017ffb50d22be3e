"""Span tracing of momentlab's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
`momentlab` module namespace that binds it (modules import functions by
name, e.g. `experiments` binds `rank_modp`), so internal calls are traced
too.  Each call records a span: name, layer, start, end, parent span and
operation id.  Spans stay in memory until the run ends.  A layer's self
time is its spans' duration minus the time covered by their child spans.

Counts marked "computed" are derived from call arguments and results
(matrix shapes, ranks), not counted by the program.  Nothing here queues
or waits: there is one thread of control plus BLAS, so no wait metrics.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("poly", "moments", "tangent", "rank", "bounds", "experiments", "recovery", "cli")

TRACED = {
    "poly": ("multiply",),
    "moments": ("moment_form", "mixture_moment"),
    "tangent": ("sample_params", "tangent_matrix", "secant_matrix", "differential",
                "SecantMatrix.matrix"),
    "rank": ("rank_modp", "rank_float", "kernel_basis_modp", "rank_consensus",
             "draw_primes", "prime_pool"),
    "bounds": (),  # empty: every public function the module defines
    "experiments": ("secant_dimension", "contact_kernel", "koszul_defect_check"),
    "recovery": ("residual", "jacobian", "refine"),
    "cli": ("main",),
}

# (name, unit, better, what it should move, source): the per-layer metrics
# BENCHMARK.json names.  Each reads a measured, nonzero time on every gated
# workload, or is a count.
PER_LAYER = (
    ("poly.self_s", "s", "lower", "op_p50_s on secant-d6n6, certify-small", "span"),
    ("poly.multiply_calls", "count", "lower", "op_p50_s on secant-d6n6, certify-small", "span"),
    ("moments.self_s", "s", "lower", "op_p50_s on secant-d6n6, certify-small", "span"),
    ("moments.moment_form_calls", "count", "lower", "op_p50_s on secant-d6n6, certify-small",
     "span"),
    ("tangent.self_s", "s", "lower", "op_p50_s, peak_rss_mb on secant-d6n6", "span"),
    ("tangent.rows", "count", "lower", "op_p50_s, peak_rss_mb on secant-d6n6", "computed"),
    ("tangent.cells", "count", "lower", "op_p50_s, peak_rss_mb on secant-d6n6", "computed"),
    ("rank.self_s", "s", "lower", "op_p50_s, run_s on secant-d6n6", "span"),
    ("rank.modp_s", "s", "lower", "op_p50_s, run_s on secant-d6n6", "span"),
    ("rank.modp_runs", "count", "lower", "op_p50_s, run_s on secant-d6n6", "span"),
    ("rank.modp_cells", "count", "lower", "op_p50_s, run_s on secant-d6n6", "computed"),
    ("rank.elim_ops_computed", "count", "lower", "op_p50_s, run_s on secant-d6n6", "computed"),
    ("rank.float_s", "s", "lower", "op_p50_s, peak_rss_mb on secant-d6n6", "span"),
    ("rank.float_runs", "count", "lower", "op_p50_s, peak_rss_mb on secant-d6n6", "span"),
    ("rank.kernel_runs", "count", "lower", "op_p50_s on certify-small", "span"),
    ("rank.prime_draw_s", "s", "lower", "setup_s on every workload", "span"),
    ("rank.engine_runs_per_result", "ratio", "lower", "op_p50_s on secant-d6n6", "span"),
    ("experiments.self_s", "s", "lower", "op_p50_s, op_tail_s on certify-small", "span"),
    ("experiments.records", "count", "higher", "op_p50_s, op_tail_s on certify-small", "span"),
    ("experiments.seed_retries", "count", "lower", "op_p50_s, op_tail_s on certify-small",
     "computed"),
    ("cli.self_s", "s", "lower", "diagnostic: argument parsing and emission", "span"),
    ("cli.cpu_s", "s", "lower", "diagnostic: process CPU per operation (untraced pass)",
     "getrusage"),
    ("cli.output_bytes", "B", "lower", "diagnostic: stdout bytes of the pass", "output"),
    ("trace.overhead_s", "s", "lower", "diagnostic: traced minus untraced run_s", "clock"),
    ("trace.unwrapped_s", "s", "lower", "diagnostic: pass time outside any span", "span"),
)

# Printed by every traced run but left out of BENCHMARK.json: on a gated
# workload each is a time that reads 0 on every run, or a layer no gated
# workload reaches or stresses.
DIAGNOSTIC = (
    ("rank.kernel_s", "s", "lower", "op_p50_s on certify-small (0 on secant-d6n6)", "span"),
    ("recovery.self_s", "s", "lower", "op_p50_s, op_tail_s on recover-batch", "span"),
    ("recovery.iterations", "count", "lower", "op_p50_s, op_tail_s on recover-batch",
     "result JSON"),
    ("recovery.jacobian_s", "s", "lower", "op_p50_s, op_tail_s on recover-batch", "span"),
    ("recovery.jacobian_calls", "count", "lower", "op_p50_s, op_tail_s on recover-batch", "span"),
    ("recovery.residual_s", "s", "lower", "op_p50_s, op_tail_s on recover-batch", "span"),
    ("recovery.residual_calls", "count", "lower", "op_p50_s, op_tail_s on recover-batch", "span"),
    ("bounds.self_s", "s", "lower", "nothing: closed-form arithmetic, no workload stresses it",
     "span"),
)


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    layer: str
    start: float = 0.0
    end: float = 0.0
    fields: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _shape(matrix) -> tuple[int, int]:
    rows = len(matrix)
    return rows, (len(matrix[0]) if rows else 0)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _note_rank(fn, args, kwargs, result) -> dict:
    rows, cols = _shape(args[0] if args else kwargs["matrix"])
    return {"rows": rows, "cols": cols, "rank": result}


def _note_kernel(fn, args, kwargs, result) -> dict:
    rows, cols = _shape(args[0] if args else kwargs["matrix"])
    return {"rows": rows, "cols": cols, "nullity": int(result.shape[0])}


def _note_tangent(fn, args, kwargs, result) -> dict:
    return {"rows": result.row_count, "cols": result.col_count}


def _note_secant_dimension(fn, args, kwargs, result) -> dict:
    # a consensus failure retries at seed + 1000003 * attempt
    return {"retries": (result.seed - _bound(fn, args, kwargs)["seed"]) // 1000003}


def _note_contact(fn, args, kwargs, result) -> dict:
    return {"trials": _bound(fn, args, kwargs)["trials"]}


NOTES = {
    "rank_modp": _note_rank,
    "rank_float": _note_rank,
    "kernel_basis_modp": _note_kernel,
    "tangent_matrix": _note_tangent,
    "secant_dimension": _note_secant_dimension,
    "contact_kernel": _note_contact,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, self.op, name, layer)
            spans.append(span)
            stack.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.fields = note(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a momentlab module binds it."""
        modules = [m for k, m in sys.modules.items() if k == "momentlab" or k.startswith("momentlab.")]
        for layer, owner, attr, original in _targets():
            if owner is not None:  # a method: patch the class
                setattr(owner, attr, self.wrap(layer, f"{owner.__name__}.{attr}", original))
                continue
            wrapper = self.wrap(layer, attr, original)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        setattr(module, key, wrapper)


def _targets():
    for layer in LAYERS:
        module = sys.modules[f"momentlab.{layer}"]
        names = TRACED[layer] or tuple(
            k for k, v in vars(module).items()
            if inspect.isfunction(v) and v.__module__ == module.__name__ and not k.startswith("_")
        )
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                owner = getattr(module, cls_name)
                yield layer, owner, attr, vars(owner)[attr]
            else:
                yield layer, None, name, getattr(module, name)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def _elim_ops(rows: int, cols: int, rank: int) -> int:
    # multiply-adds of forward elimination when pivot k clears rows-k-1
    # rows over cols-k columns (pivots in leading columns)
    return sum((rows - k - 1) * (cols - k) for k in range(rank))


def layer_metrics(spans: list[Span], pass_s: float, iterations: int, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (spans of operation 'setup' are
    counted only in rank.prime_draw_s, whose pool build happens in set-up)."""
    own = self_seconds(spans)
    in_pass = [s for s in spans if s.op != "setup"]
    by_name: dict[str, list[Span]] = {}
    for s in in_pass:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in in_pass:
        layer_self[s.layer] += own[s.id]
    roots = sum(s.seconds for s in in_pass if s.parent is None)
    modp = by_name.get("rank_modp", [])
    consensus_ids = {s.id for s in by_name.get("rank_consensus", ())}
    engine_runs = sum(
        1 for s in modp + by_name.get("rank_float", []) if s.parent in consensus_ids
    )
    draw_names = ("draw_primes", "prime_pool")
    prime_draw = sum(
        s.seconds for s in spans
        if s.name in draw_names and (s.parent is None or spans[s.parent].name not in draw_names)
    )
    kernel_by_parent: dict[int, int] = {}
    for s in by_name.get("kernel_basis_modp", ()):
        kernel_by_parent[s.parent] = kernel_by_parent.get(s.parent, 0) + 1
    retries = sum(s.fields["retries"] for s in by_name.get("secant_dimension", ()))
    retries += sum(
        kernel_by_parent.get(s.id, 0) - s.fields["trials"] for s in by_name.get("contact_kernel", ())
    )
    experiment_names = ("secant_dimension", "contact_kernel", "koszul_defect_check")
    records = sum(
        1 for s in in_pass
        if s.name in experiment_names
        and (s.parent is None or spans[s.parent].layer != "experiments")
    )

    metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    metrics.update({
        "poly.multiply_calls": calls("multiply"),
        "moments.moment_form_calls": calls("moment_form"),
        "tangent.rows": sum(s.fields["rows"] for s in by_name.get("tangent_matrix", ())),
        "tangent.cells": sum(
            s.fields["rows"] * s.fields["cols"] for s in by_name.get("tangent_matrix", ())
        ),
        "rank.modp_s": total("rank_modp"),
        "rank.modp_runs": len(modp),
        "rank.modp_cells": sum(s.fields["rows"] * s.fields["cols"] for s in modp),
        "rank.elim_ops_computed": sum(
            _elim_ops(s.fields["rows"], s.fields["cols"], s.fields["rank"]) for s in modp
        ),
        "rank.float_s": total("rank_float"),
        "rank.float_runs": calls("rank_float"),
        "rank.kernel_s": total("kernel_basis_modp"),
        "rank.kernel_runs": calls("kernel_basis_modp"),
        "rank.prime_draw_s": prime_draw,
        "rank.engine_runs_per_result": engine_runs / len(consensus_ids) if consensus_ids else 0.0,
        "experiments.records": records,
        "experiments.seed_retries": retries,
        "recovery.iterations": iterations,
        "recovery.jacobian_s": total("jacobian"),
        "recovery.jacobian_calls": calls("jacobian"),
        "recovery.residual_s": total("residual"),
        "recovery.residual_calls": calls("residual"),
        "cli.output_bytes": output_bytes,
        "trace.unwrapped_s": pass_s - roots,
    })
    return metrics


def check_spans(spans: list[Span], metrics: dict, pass_s: float) -> str | None:
    """Spans nest, and layer self times plus the unwrapped remainder sum to the pass time."""
    own = self_seconds(spans)
    for s in spans:
        if s.end < s.start or own[s.id] < -1e-6:
            return f"span {s.id} ({s.name}) does not nest its children"
    for s in spans:
        if s.op != "setup" and s.parent is None and s.name != "main":
            return f"span {s.id} ({s.name}) has no cli.main root"
    covered = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["trace.unwrapped_s"]
    if abs(covered - pass_s) > 1e-6 * max(1.0, pass_s):
        return f"layer self times plus remainder = {covered:.6f} s, pass = {pass_s:.6f} s"
    return None


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span, gzip-compressed."""
    with gzip.open(path, "wt") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                "layer": s.layer, "start": s.start, "end": s.end, **s.fields,
            }, separators=(",", ":")) + "\n")
