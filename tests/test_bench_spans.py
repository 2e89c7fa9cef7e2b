"""The benchmark's traced spans and span hooks name callables that exist
in acx, so that deleting one fails here rather than in
``perfbench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # leave perfbench/ as it is
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = before
    return mod


def test_every_layer_metric_span_is_traced():
    run, tracer = _load("run"), _load("tracer")
    t = tracer.Tracer(run.TRACE_HOOKS)
    try:
        t.install(run.load_acx())
        names = set(t.names)
    finally:
        t.uninstall()
    assert not t.patched
    spans = {span for span, _, _ in run.LAYER_METRICS.values()}
    spans |= set(run.TRACE_HOOKS)
    assert spans <= names, sorted(spans - names)
