"""The benchmark's traced run (``perfbench/tracer.py``) hooks the package's
layers by their module-level names; a renamed layer, or a search that calls
one other than by its name, leaves the per-layer metrics reading zero."""

import importlib
import importlib.util
from pathlib import Path

from missdag import ecdemo
from missdag.data import ampute
from missdag.discovery import ALGORITHMS, KnowledgeBase, evaluate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_traced_evaluate_records_every_layer():
    importlib.import_module("missdag.cli")  # the tracer hooks cli.main too
    d = ampute(ecdemo.ec_demo_dataset(n=150, seed=763), ecdemo.ec_mnar_amputation(seed=11))
    kb = KnowledgeBase.from_json(ecdemo.ec_knowledge_json())
    tracer = _tracer()
    tracer.install()
    try:
        evaluate(list(ALGORITHMS), d, kb, B=1, seed=11, threads=1)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    metrics = tracer.layer_metrics()
    for layer in ("discovery.structural_em", "discovery.hill_climb", "estimation.em_fit",
                  "stats.g_test", "graphs.classify_mechanism"):
        assert metrics[f"{layer}.calls"] > 0, layer
    # the tracer reads the trace at index 1 of em_fit's result
    assert metrics["estimation.em_fit.iterations"] > 0
    assert metrics["estimation.em_fit.converged_ratio"] > 0
    # EM runs each of its E-steps through expand_completions, so the E-step
    # layer sees at least one call per EM iteration
    assert metrics["estimation.expand_completions.calls"] >= \
        metrics["estimation.em_fit.iterations"]
