"""The benchmark tracer wraps momentlab functions by name and reads fields of
their results; each name and field must exist."""

import importlib.util
import sys
from pathlib import Path

# the package imports every layer but cli, which the tracer wraps too
import momentlab.cli  # noqa: F401
from momentlab.experiments import contact_kernel, secant_dimension
from momentlab.rank import draw_primes, kernel_basis_modp, rank_modp
from momentlab.tangent import SecantMatrix, sample_params, secant_matrix, tangent_matrix

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    # loaded by path without writing a bytecode cache next to the file
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    missing = []
    for layer, names in tracing.TRACED.items():
        module = sys.modules[f"momentlab.{layer}"]
        for name in names:
            owner, _, attr = name.rpartition(".")
            target = vars(module).get(owner) if owner else module
            if not callable(getattr(target, attr, None)):
                missing.append(f"momentlab.{layer}.{name}")
    assert not missing
    assert len(list(tracing._targets())) >= sum(map(len, tracing.TRACED.values()))


def test_tracer_notes_read_real_results(monkeypatch):
    # every NOTES entry, and the per-layer metrics built from them, on real
    # calls at d=5, n=3 (9 generators per point in 21 coefficients)
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.op = "0"

    def traced(layer, name, fn, *args, **kwargs):
        result = tracer.wrap(layer, name, fn)(*args, **kwargs)
        return result, tracer.spans[-1].fields

    (point,) = sample_params(42, 3, 1)
    block, fields = traced("tangent", "tangent_matrix", tangent_matrix, point, 5)
    assert fields == {"rows": 9, "cols": 21}
    secant = secant_matrix(sample_params(42, 3, 2), 5)
    matrix, _ = traced("tangent", "SecantMatrix.matrix", SecantMatrix.matrix, secant)
    (p,) = draw_primes(1729, 1)
    _, fields = traced("rank", "rank_modp", rank_modp, matrix, p)
    assert fields == {"rows": 18, "cols": 21, "rank": 18}
    _, fields = traced("rank", "kernel_basis_modp", kernel_basis_modp, block.matrix(), p)
    assert fields == {"rows": 9, "cols": 21, "nullity": 12}
    record, fields = traced("experiments", "secant_dimension", secant_dimension, 3, 5, 2,
                            seed=42)
    assert record.secant_dimension == 18 and fields == {"retries": 0}
    _, fields = traced("experiments", "contact_kernel", contact_kernel, 3, 5, trials=2)
    assert fields == {"trials": 2}

    metrics = tracing.layer_metrics(tracer.spans, 1.0, 0, 0)
    assert metrics["tangent.rows"] == 9 and metrics["tangent.cells"] == 9 * 21
    assert metrics["rank.modp_runs"] == 1 and metrics["rank.modp_cells"] == 18 * 21
    assert metrics["rank.kernel_runs"] == 1
    assert metrics["experiments.records"] == 2
