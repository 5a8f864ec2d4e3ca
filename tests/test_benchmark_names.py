"""The names perfbench's tracer wraps or rebinds must exist in ygraph.

perfbench/tracing.py replaces these module globals by name; a rename in
ygraph would otherwise surface only when the traced benchmark run raises.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import ygraph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# module globals the tracer rebinds besides its TRACED spans
REBOUND = [("graphsim", "splu"), ("fracops", "fftconvolve"),
           ("forcing", "fftconvolve"), ("cli", "_stamp")]
# names the workloads' checks call directly: construct's oracle reads
# imag_residual, which is 0.0 on every real construction
CALLED = [("vertex", "LinearSolution.imag_residual")]


def _resolves(layer, name):
    obj = importlib.import_module(f"ygraph.{layer}")
    for attr in name.split("."):
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_no_unused_imports():
    # a deletion can leave an import behind; a REBOUND name stays imported
    # where the tracer rebinds it
    unused = []
    for path in sorted(Path(ygraph.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                unused += [f"{path.stem}.{name}" for name in
                           ((a.asname or a.name).split(".")[0] for a in node.names)
                           if name not in used and (path.stem, name) not in REBOUND]
    assert not unused


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(layer, func) for layer, funcs in tracing.TRACED.items()
             for func in funcs] + REBOUND + CALLED
    assert len(names) > len(REBOUND) + len(CALLED)
    missing = [f"{layer}.{name}" for layer, name in names
               if not _resolves(layer, name)]
    assert not missing


# Run in a fresh interpreter: install the tracer, then list every place in
# ygraph that still holds an unwrapped fftconvolve or product_weights, or
# holds trace_phases, fftconvolve or product_weights in a default argument
# or inside an object built at import (a partial, a container, an instance).
GUARD = """
import functools, json, sys, types
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
tracer = Tracer()
tracer.install()
import ygraph.fracops as fracops, ygraph.linops as linops
wrapped = {fracops.fftconvolve.__wrapped__, fracops.product_weights.__wrapped__}
held = wrapped | {linops.trace_phases}

def inside(val):
    if isinstance(val, functools.partial):
        yield val.func
        yield from val.args
        yield from val.keywords.values()
    elif isinstance(val, dict):
        yield from val.values()
    elif isinstance(val, (tuple, list, set, frozenset)):
        yield from val
    elif not isinstance(val, (type, types.ModuleType, types.FunctionType,
                              types.BuiltinFunctionType)):
        yield from getattr(val, "__dict__", {}).values()

def functions(val):
    if isinstance(val, types.FunctionType):
        yield getattr(val, "__wrapped__", val)
    elif isinstance(val, type):
        for f in vars(val).values():
            f = getattr(f, "__func__", f)
            if isinstance(f, types.FunctionType):
                yield getattr(f, "__wrapped__", f)

found = list(tracer.stale_bindings())
for name, mod in sorted(sys.modules.items()):
    if not name.startswith("ygraph"):
        continue
    for attr, val in vars(mod).items():
        where = f"{name}.{attr}"
        if any(val is w for w in wrapped):
            found.append(where)
        if any(v is h for v in inside(val) for h in held):
            found.append(f"{where} (built at import)")
        for f in functions(val):
            defaults = (f.__defaults__ or ()) + tuple((f.__kwdefaults__ or {}).values())
            if any(d is h for d in defaults for h in held):
                found.append(f"{where}: {f.__qualname__} default")
print(json.dumps(found))
"""


def test_tracer_leaves_no_stale_bindings():
    src = Path(ygraph.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, str(TRACING.parent)], capture_output=True,
        text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert json.loads(proc.stdout.splitlines()[-1]) == []


# Run in a fresh interpreter: install the tracer, run the tiny construct and
# picard workloads once each, and list every name of their expected_spans
# that recorded no call in that solve.
SPANS = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
tracer = Tracer()
tracer.install()
from workloads import WORKLOADS

def calls():
    return {name: s["calls"] for name, s in tracer.span_stats()[0].items()}

missing = {}
for name in ("construct", "picard"):
    wl, before = WORKLOADS[name]("tiny"), calls()
    with tempfile.TemporaryDirectory() as tmp:
        wl.solve(wl.prepare(wl.draw(0.5, 0), tmp))
    after = calls()
    missing[name] = [s for s in wl.expected_spans
                     if after.get(s, 0) <= before.get(s, 0)]
print(json.dumps(missing))
"""


def test_traced_chain_records_every_expected_span():
    # a refactor that routes the chain around a traced entry fails here in
    # seconds, not only in the perfbench self-tests
    src = Path(ygraph.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", SPANS, str(TRACING.parent)], capture_output=True,
        text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert json.loads(proc.stdout.splitlines()[-1]) == {"construct": [], "picard": []}
