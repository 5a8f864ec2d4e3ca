"""The names perfbench's tracer wraps or rebinds must exist in ygraph.

perfbench/tracing.py replaces these module globals by name; a rename in
ygraph would otherwise surface only when the traced benchmark run raises.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# module globals the tracer rebinds besides its TRACED spans
REBOUND = [("graphsim", "splu"), ("fracops", "fftconvolve"),
           ("forcing", "fftconvolve"), ("cli", "_stamp")]


def _resolves(layer, name):
    obj = importlib.import_module(f"ygraph.{layer}")
    for attr in name.split("."):
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(layer, func) for layer, funcs in tracing.TRACED.items()
             for func in funcs] + REBOUND
    assert len(names) > len(REBOUND)
    missing = [f"{layer}.{name}" for layer, name in names
               if not _resolves(layer, name)]
    assert not missing
