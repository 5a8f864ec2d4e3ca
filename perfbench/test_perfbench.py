"""Self-tests of the benchmark, at tiny problem sizes.

Run from the repository root:

    python3 -m pytest perfbench -q

They run every workload through ``run.py`` in both modes and check that
every metric BENCHMARK.json names is printed with its unit, that a
corrupted output is counted as a failed solve, that the tracer's
aggregation is right, and that the benchmark refuses to run without the
program's source tree.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 3 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def _scale_vertex_value(workdir):
    """Perturb the x = 0 value of every written forcing level by 10%."""
    for f in os.listdir(workdir):
        if f.startswith("field_t") and f.endswith(".csv"):
            path = os.path.join(workdir, f)
            with open(path) as fh:
                header, *rows = fh.read().splitlines()
            i0 = min(range(len(rows)), key=lambda i: abs(float(rows[i].split(",")[0])))
            cols = rows[i0].split(",")
            rows[i0] = ",".join([cols[0]] + [repr(1.1 * float(c)) for c in cols[1:]])
            with open(path, "w") as fh:
                fh.write("\n".join([header, *rows]) + "\n")


def _grow_distances(workdir):
    """Rewrite the Picard history so the last iterate moved away."""
    path = os.path.join(workdir, "out", "picard_history.csv")
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    rows[-1] = rows[-1].split(",")[0] + ",1.0"
    with open(path, "w") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("name, corrupt", [
    ("forcing_quadrature", _scale_vertex_value),
    ("picard", _grow_distances),
])
def test_corrupted_output_counts_as_failed(tmp_path, name, corrupt):
    wl = workloads.WORKLOADS[name]("tiny")
    records = worker.run_solves(wl, np.random.default_rng(0), 0.0, str(tmp_path),
                                after_solve=corrupt)
    assert len(records) == 1 + len(worker.CORNERS)
    assert all(r["error"] and "oracle deviation" in r["error"] for r in records)


def test_clean_outputs_pass(tmp_path):
    wl = workloads.WORKLOADS["forcing_quadrature"]("tiny")
    records = worker.run_solves(wl, np.random.default_rng(0), 0.0, str(tmp_path))
    assert [r["error"] for r in records] == [None] * len(records)


def test_self_and_busy_time_of_nested_spans():
    tr = tracing.Tracer()
    inner = tr.span("b.inner", "b", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tr.span("a.outer", "a", outer_body)
    nested = tr.span("a.nested", "a", outer)
    nested()
    stats, busy, self_s = tr.span_stats()
    assert stats["b.inner"]["calls"] == 2
    assert busy["a"] == pytest.approx(stats["a.nested"]["busy_s"])
    assert busy["b"] == pytest.approx(stats["b.inner"]["busy_s"])
    assert self_s["a"] == pytest.approx(busy["a"] - busy["b"])
    assert self_s["a"] >= 0.01 and busy["b"] >= 0.04


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "simulate", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:        50 |         50 |       _stdlib_under_numpy
import time:       400 |        450 |     numpy
import time:        70 |         70 |         scipy.sparse
import time:        30 |         30 |         _stdlib_under_signal
import time:       200 |        300 |       scipy.signal
import time:        10 |         10 |       ygraph.fracops
import time:        20 |        330 |     ygraph.forcing
import time:         5 |        785 |   ygraph.cli
"""


def test_import_stages_charge_each_package():
    import run
    got = run.import_stages(IMPORTTIME)
    assert got == pytest.approx({"numpy": 450e-6, "scipy_other": 70e-6,
                                 "scipy_signal": 230e-6, "ygraph": 35e-6})
    without_signal = "\n".join(line for line in IMPORTTIME.splitlines()
                               if "signal" not in line)
    assert run.import_stages(without_signal)["scipy_signal"] == 0
