"""Spans around the calls into each ygraph layer, recorded from outside.

The benchmark does not change ygraph.  It replaces each traced public
function with a wrapper that records a span (name, layer, start, end,
parent) and rebinds the wrapper everywhere the original was bound: the
defining module and every ``from .x import f`` copy in the other ygraph
modules.  Layers are the package's modules:

    specfun fracops linops forcing vertex graphsim cli

FFT calls (``numpy.fft.fft``/``ifft``) and ``fftconvolve`` calls are
counted and charged to the layer of the innermost open span.  Spans stay
in memory; :meth:`Tracer.layer_metrics` turns them into per-solve numbers
when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("specfun", "fracops", "linops", "forcing", "vertex", "graphsim", "cli")

# (layer, function) pairs wrapped as spans; "Class.method" names a method.
TRACED = {
    "specfun": ("airy_scaled", "airy_scaled_deriv", "airy_scaled_with_deriv"),
    "fracops": ("riemann_liouville", "fractional_integral_samples",
                "product_weights", "sampled_derivative"),
    "linops": ("airy_group", "group_multi", "group_trace_history",
               "duhamel_inhomog", "trace_at_zero"),
    "forcing": ("forcing_class", "spectral_forcing_field", "duhamel_forcing",
                "duhamel_forcing_deriv", "one_sided_limits"),
    "vertex": ("build_matrix", "solve_gamma", "assemble_linear_solution",
               "verify_vertex_conditions"),
    "graphsim": ("evolve", "GraphSystem.__init__", "GraphSystem.nonlinear_term",
                 "picard_iterate", "whole_line_extension", "energy_report"),
    "cli": ("main", "parse_config", "read_trace_csv", "read_field_csv",
            "write_trace_csv", "write_field_csv", "_write_diagnostics",
            "RunManifest.write"),
}

# span names whose busy time makes up cli.write_s
CLI_WRITERS = ("cli.write_trace_csv", "cli.write_field_csv",
               "cli._write_diagnostics", "cli.RunManifest.write")


# span names that differ from "<layer>.<function>"
SPAN_NAMES = {"GraphSystem.__init__": "graphsim.GraphSystem",   # factorization
              "GraphSystem.nonlinear_term": "graphsim.nonlinear_term"}


def _span_name(layer, func):
    return SPAN_NAMES.get(func, f"{layer}.{func}")


def _points(x, *args, **kwargs):
    import numpy as np
    return int(np.size(x))


def _rl_samples(f, *args, **kwargs):
    return len(f)


def _weights_key(alpha, n):
    return (float(alpha), int(n))


def _ladder_key(phi, times, *args, **kwargs):
    """Phase-matrix identity: grid size, spacing and time ladder."""
    import numpy as np
    t = np.asarray(times, dtype=float)
    return (len(phi), float(phi.spacing), t.size, float(t[0]), float(t[-1]))


# span name -> function of the call arguments whose values are recorded
ARG_KEYS = {
    "specfun.airy_scaled": _points,
    "specfun.airy_scaled_deriv": _points,
    "specfun.airy_scaled_with_deriv": _points,
    "fracops.riemann_liouville": _rl_samples,
    "fracops.product_weights": _weights_key,
    "linops.group_trace_history": _ladder_key,
}


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans = []            # [name, layer, start, end, parent]
        self.stack = []            # indices of open spans
        self.counters = defaultdict(int)   # (layer, counter) -> count
        self.args = defaultdict(list)      # span name -> recorded arg keys
        self.wrapped = {}          # id(original) -> (original, wrapper)
        self.solve_marks = []      # per solve: span name -> len(args[name])

    def begin_solve(self):
        """Mark where one solve's recorded arguments start."""
        self.solve_marks.append({k: len(v) for k, v in self.args.items()})

    def current_layer(self):
        return self.spans[self.stack[-1]][1] if self.stack else "none"

    def span(self, name, layer, fn, key=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, 0.0, 0.0, stack[-1] if stack else -1])
            if key is not None:
                self.args[name].append(key(*args, **kwargs))
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][2] = start
                spans[idx][3] = end

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def counter(self, what, fn, size=False):
        """Wrap ``fn`` to count calls (and input points) per open layer."""
        import numpy as np

        def counted(*args, **kwargs):
            layer = self.current_layer()
            self.counters[(layer, what + "_calls")] += 1
            if size:
                self.counters[(layer, what + "_points")] += int(np.size(args[0]))
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -------------------------------------------------------

    def _wrap_layer(self, layer):
        mod = importlib.import_module(f"ygraph.{layer}")
        for func in TRACED[layer]:
            name = _span_name(layer, func)
            owner, attr = mod, func
            if "." in func:
                cls, attr = func.split(".")
                owner = getattr(mod, cls)
            orig = getattr(owner, attr)
            wrapper = self.span(name, layer, orig, key=ARG_KEYS.get(name))
            setattr(owner, attr, wrapper)
            self.wrapped[id(orig)] = (orig, wrapper)

    def install(self):
        """Wrap every traced function; call before ygraph is imported.

        specfun is wrapped before forcing is imported because
        ``forcing._sigma_field`` binds ``kernel=airy_scaled`` as a default
        argument at import time.
        """
        if "ygraph.forcing" in sys.modules:
            raise RuntimeError("tracing must be installed before ygraph.forcing "
                               "is imported")
        import numpy.fft

        numpy.fft.fft = self.counter("fft", numpy.fft.fft, size=True)
        numpy.fft.ifft = self.counter("fft", numpy.fft.ifft, size=True)

        self._wrap_layer("specfun")
        importlib.import_module("ygraph.cli")
        for layer in LAYERS[1:]:
            self._wrap_layer(layer)

        import ygraph.graphsim as graphsim
        splu = graphsim.splu
        solve_span = self.span

        class TimedLU:
            """The factorization, with ``.solve`` recorded as a span."""

            def __init__(self, lu):
                self._lu = lu
                self.solve = solve_span("graphsim.lu_solve", "graphsim", lu.solve)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        graphsim.splu = lambda *a, **k: TimedLU(splu(*a, **k))
        for modname in ("ygraph.fracops", "ygraph.forcing"):
            mod = sys.modules[modname]
            mod.fftconvolve = self.counter("fftconvolve", mod.fftconvolve)
        self._rebind()

    def _ygraph_modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if n == "ygraph" or n.startswith("ygraph.")]

    def _rebind(self):
        """Point every ``from .x import f`` copy at the wrapper."""
        for mod in self._ygraph_modules():
            for attr, val in list(vars(mod).items()):
                hit = self.wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        stale = self.stale_bindings()
        if stale:
            raise RuntimeError(f"untraced bindings remain: {stale}")

    def stale_bindings(self):
        """Module globals or default arguments still holding an original."""
        import types

        def _is_original(obj):
            hit = self.wrapped.get(id(obj))
            return hit is not None and hit[0] is obj

        found = []
        for mod in self._ygraph_modules():
            for attr, val in vars(mod).items():
                if _is_original(val):
                    found.append(f"{mod.__name__}.{attr}")
                funcs = [val] if isinstance(val, types.FunctionType) else []
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    funcs += [f for f in vars(val).values()
                              if isinstance(f, types.FunctionType)]
                for f in funcs:
                    f = getattr(f, "__wrapped__", f)
                    for default in f.__defaults__ or ():
                        if _is_original(default):
                            found.append(f"{mod.__name__}.{f.__qualname__} default")
        return found

    # -- aggregation --------------------------------------------------------

    def span_stats(self):
        """Per span name: calls, busy (outermost) and self seconds."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        layer_busy = defaultdict(float)
        layer_self = defaultdict(float)
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            dur = end - start
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += dur - child[i]
            layer_self[layer] += dur - child[i]
            same_name = same_layer = False
            p = parent
            while p >= 0 and not (same_name and same_layer):
                same_name |= self.spans[p][0] == name
                same_layer |= self.spans[p][1] == layer
                p = self.spans[p][4]
            if not same_name:
                s["busy_s"] += dur
            if not same_layer:
                layer_busy[layer] += dur
        return stats, layer_busy, layer_self

    def calls_under(self, name, ancestor):
        """Calls of span ``name`` made (at any depth) inside span ``ancestor``."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[4]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][4]
            count += p >= 0
        return count

    def layer_metrics(self, bytes_written):
        """Per-layer metrics, per solve unless BENCHMARK.json's unit says not."""
        stats, layer_busy, layer_self = self.span_stats()
        n = max(len(self.solve_marks), 1)

        def total(name, what):
            return stats[name][what] if name in stats else 0

        def busy(name):
            return total(name, "busy_s") / n

        def calls(name):
            return total(name, "calls") / n

        def count(layer, what):
            return self.counters.get((layer, what), 0) / n

        def distinct_ratio(name):
            """Distinct argument keys within each solve, over all calls."""
            keys = self.args.get(name, [])
            if not keys:
                return 0.0
            cuts = sorted({0, len(keys)} | {m.get(name, 0) for m in self.solve_marks})
            return sum(len(set(keys[a:b])) for a, b in zip(cuts, cuts[1:])) / len(keys)

        m = {}
        for layer in LAYERS:
            m[f"{layer}.busy_s"] = layer_busy.get(layer, 0.0) / n
            m[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / n

        airy = ("specfun.airy_scaled", "specfun.airy_scaled_deriv",
                "specfun.airy_scaled_with_deriv")
        points = sum(sum(self.args.get(a, [])) for a in airy)
        m["specfun.calls"] = sum(calls(a) for a in airy)
        m["specfun.points"] = points / n
        m["specfun.points_per_s"] = \
            points / layer_busy["specfun"] if layer_busy.get("specfun") else 0.0

        m["fracops.riemann_liouville.calls"] = calls("fracops.riemann_liouville")
        m["fracops.riemann_liouville.busy_s"] = busy("fracops.riemann_liouville")
        m["fracops.samples"] = sum(self.args.get("fracops.riemann_liouville", [])) / n
        m["fracops.product_weights.distinct_ratio"] = \
            distinct_ratio("fracops.product_weights")
        m["fracops.sampled_derivative.busy_s"] = busy("fracops.sampled_derivative")

        for f in ("group_trace_history", "duhamel_inhomog"):
            m[f"linops.{f}.calls"] = calls(f"linops.{f}")
            m[f"linops.{f}.busy_s"] = busy(f"linops.{f}")
        m["linops.group_trace_history.distinct_ratio"] = \
            distinct_ratio("linops.group_trace_history")
        m["linops.group_multi.busy_s"] = busy("linops.group_multi")
        m["linops.fft_calls"] = count("linops", "fft_calls")
        m["linops.fft_points"] = count("linops", "fft_points")

        m["forcing.forcing_class.calls"] = calls("forcing.forcing_class")
        m["forcing.forcing_class.busy_s"] = busy("forcing.forcing_class")
        m["forcing.spectral_forcing_field.busy_s"] = \
            busy("forcing.spectral_forcing_field")
        m["forcing.fftconvolve_calls"] = count("forcing", "fftconvolve_calls")
        m["forcing.fft_calls"] = count("forcing", "fft_calls")

        for f in ("assemble_linear_solution", "verify_vertex_conditions"):
            m[f"vertex.{f}.busy_s"] = busy(f"vertex.{f}")
        m["vertex.solve_gamma.calls"] = calls("vertex.solve_gamma")
        m["vertex.solve_gamma.busy_s"] = busy("vertex.solve_gamma")
        m["vertex.fft_calls"] = count("vertex", "fft_calls")

        steps = total("graphsim.lu_solve", "calls")
        m["graphsim.factorize_s"] = busy("graphsim.GraphSystem")
        m["graphsim.steps"] = steps / n
        m["graphsim.lu_solve_s"] = busy("graphsim.lu_solve")
        m["graphsim.nonlinear_term_s"] = busy("graphsim.nonlinear_term")
        m["graphsim.step_overhead_s"] = \
            total("graphsim.evolve", "self_s") / steps if steps else 0.0
        m["graphsim.picard_iterate.busy_s"] = busy("graphsim.picard_iterate")
        # picard_iterate solves the vertex system once per iteration
        m["graphsim.picard_iterations"] = \
            self.calls_under("vertex.solve_gamma", "graphsim.picard_iterate") / n

        m["cli.parse_config_s"] = busy("cli.parse_config")
        m["cli.write_s"] = sum(busy(w) for w in CLI_WRITERS)
        m["cli.bytes_written"] = bytes_written / n
        return m, {name: s["calls"] for name, s in stats.items()}
