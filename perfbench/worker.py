"""Run one workload in this fresh process and print its raw record as JSON.

Started by ``run.py`` from the repository root with ``PYTHONPATH=src``:

    python3 perfbench/worker.py --workload simulate --seed 1 --seconds 16 \
        --trace 0 --workdir .bench_build/perfbench/w

The worker's first heavy import is ``ygraph.cli``, and it reports the
moment that import ended, so the caller can time the set-up a CLI user
pays.  The first solve runs on the workload's reference inputs (the
midpoint of every range) in a cold process; with ``--cold`` it is the only
one.  The timed solves follow: the first two on the low and the high
corner of the ranges, the rest on inputs drawn from ``--seed``, until
``--seconds`` would be exceeded.  Every solve is checked against its
oracle; a solve that raises, exits non-zero or misses its oracle is
counted as failed, never retried or dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

REFERENCE = 0.5        # the first solve: every range at its midpoint
CORNERS = (0.0, 1.0)   # the first timed solves: every range at its low/high end


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_solves(wl, rng, seconds, workdir, before_solve=None, after_solve=None,
               cold=False):
    """Solve the reference inputs, then the corners and seeded draws.

    The timed solves go on for ``seconds``, and always include the corners;
    with ``cold`` there are none.

    ``before_solve()`` runs just before each solve (the tracer marks solve
    boundaries with it).  ``after_solve(workdir)`` runs between a solve and
    its check; the self-tests use it to corrupt an output.  Returns one
    record per solve.
    """
    records = []

    def one(index, draw):
        sub = os.path.join(workdir, f"solve{index}")
        os.makedirs(sub)
        inputs = wl.prepare(draw, sub)
        input_bytes = _dir_bytes(sub)
        error, ratio, result = None, None, None
        if before_solve is not None:
            before_solve()
        start = time.perf_counter()
        try:
            result = wl.solve(inputs)
        except Exception as exc:  # a failed solve is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        written = _dir_bytes(sub) - input_bytes
        if error is None:
            if after_solve is not None:
                after_solve(sub)
            try:
                ratio = float(wl.check(draw, sub, result))
            except Exception as exc:  # unreadable output fails the solve
                error = f"oracle: {type(exc).__name__}: {exc}"
        if error is None and not ratio <= 1.0:
            error = f"oracle deviation {ratio:.3g} x tolerance"
        records.append({"index": index, "seconds": elapsed, "ratio": ratio,
                        "error": error, "bytes": written})
        shutil.rmtree(sub)

    import statistics  # not before ygraph.cli (see the module docstring)

    one(0, wl.draw(REFERENCE, 0))
    if cold:
        return records
    loop_start = time.perf_counter()
    index = 1
    while True:
        timed = [r["seconds"] for r in records[1:]]
        if len(timed) >= len(CORNERS) and (time.perf_counter() - loop_start
                                           + statistics.median(timed) > seconds):
            break
        source = CORNERS[index - 1] if index <= len(CORNERS) else rng
        one(index, wl.draw(source, index))
        index += 1
    return records


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--cold", action="store_true",
                   help="only the reference solve, as a cold-start sample")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import ygraph.cli  # the import a CLI user pays; nothing heavy before it
    imported_at = time.monotonic()
    import resource

    import numpy as np
    import scipy
    import ygraph

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(ygraph.__file__).startswith(src + os.sep):
        sys.exit(f"worker: ygraph imported from {ygraph.__file__}, not {src}")

    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.size)
    rng = np.random.default_rng(args.seed)
    records = run_solves(wl, rng, args.seconds, args.workdir,
                         before_solve=tracer and tracer.begin_solve, cold=args.cold)

    out = {"records": records, "imported_at": imported_at,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "numpy": np.__version__, "scipy": scipy.__version__}
    if tracer is not None:
        layers, calls = tracer.layer_metrics(sum(r["bytes"] for r in records))
        problems = [f"{name} recorded no calls" for name in wl.expected_spans
                    if not calls.get(name)]
        if args.workload != "forcing_quadrature" and layers["specfun.calls"]:
            problems.append("specfun recorded calls outside forcing_quadrature")
        out.update(layers=layers, calls=calls, trace_problems=problems)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
