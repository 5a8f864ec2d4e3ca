"""ygraph benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 16 --trace 0

Workloads: simulate, construct, picard, forcing_quadrature (see
perfbench/README.md for why each exists and what it should show).

``--trace 0`` measures the end-to-end metrics: one worker process that
solves for ``--seconds``, one worker before it and more after it that make
only the cold first solve.  Set-up and first-solve times are the medians
over all of them.  ``--trace 1`` measures the per-layer metrics: import stages from
fresh ``python -X importtime`` probes, then an untraced and a traced
worker that share the time; the difference of their median solve times is
the tracing overhead.  Every solve is checked against the paper's oracle.
The last line of standard output is the result object, with each metric's
unit taken from BENCHMARK.json:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workers are capped at THREAD_CAP BLAS/OpenMP threads.  The benchmark reads
and writes only below the working directory, in ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from worker import CORNERS

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_CAP = 1            # at most nproc; one worker process at a time
# --trace 0 starts cold-start workers until there are MIN_COLD_STARTS cold
# first solves (the timed worker's included) and the cold-start workers have
# run for COLD_SECONDS: a short solve gets more samples, a long one fewer
MIN_COLD_STARTS = 3
COLD_SECONDS = 10.0
IMPORT_PROBES = 3         # -X importtime probes per --trace 1 run
RUN_LIMIT_S = 170.0       # every process must have ended by then
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "YGRAPH_THREADS")

# an import probe: a fresh interpreter that imports what a CLI user imports
PROBE = "import ygraph.cli; print(ygraph.cli.__file__)"

# the setup.import_<stage>_s metrics, one per package group
STAGES = ("numpy", "scipy_other", "scipy_signal", "ygraph")


def _stage_of(name):
    top = name.split(".")[0]
    if name == "scipy.signal" or name.startswith("scipy.signal."):
        return "scipy_signal"
    return {"numpy": "numpy", "scipy": "scipy_other", "ygraph": "ygraph"}.get(top)


def import_stages(report):
    """Seconds per import stage, from the stderr of ``python -X importtime``.

    A module of numpy, scipy or ygraph is charged to its own package's
    stage (``scipy.signal`` and its submodules to ``scipy_signal``, the
    rest of scipy to ``scipy_other``); any other module to the stage of the
    nearest such module it was imported under.  Modules imported outside
    all four (the interpreter's own start) are not counted.  A package
    ygraph no longer imports shows as 0 s.
    """
    nodes = []   # (depth, name, self us, children); children print first
    for line in report.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, _, name = line[len("import time:"):].split("|", 2)
        depth = len(name) - len(name.lstrip())
        node = (depth, name.strip(), int(own), [])
        while nodes and nodes[-1][0] > depth:
            node[3].append(nodes.pop())
        nodes.append(node)
    totals = dict.fromkeys(STAGES, 0)

    def charge(node, outer):
        _, name, own, children = node
        stage = _stage_of(name) or outer
        if stage is not None:
            totals[stage] += own
        for child in children:
            charge(child, stage)

    for node in nodes:
        charge(node, None)
    return {k: v / 1e6 for k, v in totals.items()}


def _git_sha(root):
    """HEAD of a git checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_VARS:
        env[var] = str(THREAD_CAP)
    return env


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its time limit")
        return left


def _python(args, root, env, deadline):
    """Run the interpreter to completion; return (stdout, stderr)."""
    proc = subprocess.run([sys.executable, *args], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return proc.stdout, proc.stderr


def import_probes(root, env, deadline, count):
    """Median import stages of ``count`` fresh ``python -X importtime`` probes."""
    src = os.path.realpath(os.path.join(root, "src"))
    stages = []
    for _ in range(count):
        out, err = _python(["-X", "importtime", "-c", PROBE], root, env, deadline)
        if not os.path.realpath(out.strip()).startswith(src + os.sep):
            raise RuntimeError("import probe imported ygraph from outside ./src")
        stages.append(import_stages(err))
    return {k: statistics.median(s[k] for s in stages) for k in STAGES}


def run_worker(root, env, deadline, args, seconds, trace, tag, cold=False):
    """One worker process.

    Its record gains ``setup_s``, from spawning it to the end of its
    ``import ygraph.cli``, and ``wall_s``, from spawning it to its exit.
    """
    workdir = os.path.join(root, ".bench_build", "perfbench",
                           f"{args.workload}-{args.seed}-{os.getpid()}-{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    argv = [os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--trace", str(trace),
            "--size", args.size, "--workdir", workdir] + ["--cold"] * cold
    try:
        # time.monotonic is CLOCK_MONOTONIC, one clock for every process
        spawned = time.monotonic()
        out, _ = _python(argv, root, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rec = json.loads(out.strip().splitlines()[-1])
    rec["setup_s"] = rec["imported_at"] - spawned
    rec["wall_s"] = time.monotonic() - spawned
    return rec


def solve_stats(rec):
    timed = [r["seconds"] for r in rec["records"][1:]]
    return {"p50": statistics.median(timed), "timed": timed,
            "passed_timed": sum(r["error"] is None for r in rec["records"][1:])}


def failures(*runs):
    return [r for run in runs for r in run["records"] if r["error"] is not None]


def worst_ratio(records):
    ratios = [r["ratio"] for r in records]
    return sys.float_info.max if None in ratios else max(ratios)


def end_to_end(timed, runs):
    """``timed`` is the worker that solved for --seconds, one of ``runs``."""
    st = solve_stats(timed)
    attempted = sum(len(run["records"]) for run in runs)
    return {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "first_solve_s": statistics.median(run["records"][0]["seconds"]
                                           for run in runs),
        "solve_s_p50": st["p50"],
        "solves_per_s": st["passed_timed"] / sum(st["timed"]),
        "peak_rss_mb": timed["peak_rss_mb"],
        "pass_rate": 1.0 - len(failures(*runs)) / attempted,
        "oracle_err_ratio": worst_ratio(timed["records"][:1 + len(CORNERS)]),
    }


def per_layer(plain, traced, stages):
    recs = plain["records"] + traced["records"]
    m = dict(traced["layers"])
    for stage in STAGES:
        m[f"setup.import_{stage}_s"] = stages[stage]
    m["error_rate"] = len(failures(plain, traced)) / len(recs)
    m["oracle.worst_ratio"] = max(
        (r["ratio"] for r in recs if r["ratio"] is not None),
        default=sys.float_info.max)
    m["trace.overhead_s"] = solve_stats(traced)["p50"] - solve_stats(plain)["p50"]
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("simulate", "construct", "picard", "forcing_quadrature"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: shrunken problems for the self-tests")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ygraph", "cli.py")):
        print("perfbench: ./src/ygraph not found; run from the ygraph "
              "repository root", file=sys.stderr)
        return 2
    deadline = Deadline(RUN_LIMIT_S)
    env = _env(root)
    # warm the bytecode cache so set-up time measures imports, not compiles
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    spec = spec["per_layer" if args.trace else "end_to_end"]

    if args.trace:
        stages = import_probes(root, env, deadline,
                               IMPORT_PROBES if args.size == "full" else 1)
        plain = run_worker(root, env, deadline, args, args.seconds / 2, 0, "plain")
        traced = run_worker(root, env, deadline, args, args.seconds / 2, 1, "traced")
        metrics = per_layer(plain, traced, stages)
        runs = (plain, traced)
        problems = traced["trace_problems"]
    else:
        # cold starts before and after the timed worker sample the machine
        # at several moments of the run
        cold_budget = COLD_SECONDS if args.size == "full" else 0.0
        runs = [run_worker(root, env, deadline, args, 0, 0, "cold0", cold=True)]
        timed = run_worker(root, env, deadline, args, args.seconds, 0, "timed")
        runs.append(timed)
        while (len(runs) < MIN_COLD_STARTS
               or sum(r["wall_s"] for r in runs if r is not timed) < cold_budget):
            runs.append(run_worker(root, env, deadline, args, 0, 0,
                                   f"cold{len(runs)}", cold=True))
        metrics = end_to_end(timed, runs)
        problems = []

    records = [r for run in runs for r in run["records"]]
    failed = [r for r in records if r["error"] is not None]
    env_record = {"git_sha": _git_sha(root), "numpy": runs[0]["numpy"],
                  "scipy": runs[0]["scipy"], "python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
                  "workload": args.workload, "trace": args.trace,
                  "thread_cap": THREAD_CAP, "thread_vars": list(THREAD_VARS)}
    print("env " + json.dumps(env_record))
    for run in runs:
        print(f"worker: set-up {run['setup_s']:.4f} s; wall s per solve, the "
              "first cold: " + json.dumps([r["seconds"] for r in run["records"]]))
    for r in failed:
        print(f"failed solve {r['index']}: {r['error']}", file=sys.stderr)
    for msg in problems:
        print(f"trace check: {msg}", file=sys.stderr)
    if set(metrics) != {m["name"] for m in spec}:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in spec})}")
    result = {"correct": not failed and not problems,
              "attempted": len(records), "failed": len(failed),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in spec}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
