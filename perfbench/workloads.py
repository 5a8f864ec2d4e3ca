"""The four benchmark workloads: seeded inputs, one timed solve, one oracle.

Each workload is one computation a ygraph user runs.  ``draw`` turns the
run's random generator into the inputs of one solve; given a number f
instead, it puts every range at the fraction f of its length (0.5 gives
the reference inputs, 0 and 1 the two corners).  ``prepare`` writes them
where the program reads them, ``solve`` runs the program (the only timed
part), and ``check`` compares the outputs with the paper's own oracle at
the tolerance the acceptance suite uses.  ``check`` returns the oracle
deviation divided by its tolerance, so a value above 1 is a failed solve.

The draws stay inside the region the acceptance suite validates, so every
failure counted is the program's.  ``size="tiny"`` shrinks each problem for
the benchmark's self-tests; the timed runs always use ``size="full"``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

# Tolerances copied from src/ygraph/acceptance.py and tests/test_cli.py.
SOLITON_TOL = 1e-2            # criterion 8: relative L2 error of the soliton
COUPLING_RESIDUAL_TOL = 1e-10  # tests/test_cli.py: max_coupling_residual
VERTEX_RESIDUAL_TOL = 2e-2    # criterion 6: worst relative vertex residual
IMAG_RESIDUAL_TOL = 1e-6      # criterion 6 companion: imaginary residual
CONTRACTION_TOL = 0.5         # criterion 10: Picard contraction ratio
TRACE_LAW_TOL = 5e-3          # criterion 3: minus / plus vertex trace laws


def _uniform(source, lo, hi):
    """One draw from [lo, hi], or the point at a fixed fraction of it."""
    if isinstance(source, float):
        return lo + source * (hi - lo)
    return float(source.uniform(lo, hi))


def _cli(argv):
    """Run ``ygraph.cli.main`` in-process with its console output captured."""
    from ygraph import cli

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"ygraph {argv[0]} exited {rc}: {err.getvalue().strip()}")


def _write_config(path, **sections):
    """Write a ygraph scenario file, one ``[section]`` per keyword."""
    with open(path, "w") as fh:
        for name, items in sections.items():
            fh.write(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items()))


def _gauss(amplitude, center, width):
    return f"gaussian amplitude={amplitude!r} center={center!r} width={width!r}"


def _read_csv(path):
    """Columns of a CSV written by ygraph, by header name."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {n: data[:, i] for i, n in enumerate(names)}


# ---------------------------------------------------------------------------
# simulate: `ygraph simulate`, nonlinear, soliton plus two Gaussians
# ---------------------------------------------------------------------------

class Simulate:
    name = "simulate"
    # spans the traced run must see at least once per run
    expected_spans = ("cli.main", "cli.parse_config", "cli.write_field_csv",
                      "graphsim.evolve", "graphsim.GraphSystem",
                      "graphsim.lu_solve", "graphsim.nonlinear_term")

    def __init__(self, size="full"):
        self.T = 1.0 if size == "full" else 0.05

    def draw(self, source, index):
        return {"type": 1 + index % 2,
                "c": _uniform(source, 3.0, 4.5),
                "x0": _uniform(source, -30.0, -20.0),
                "v": (_uniform(source, 0.2, 0.6), _uniform(source, 6.0, 9.0)),
                "w": (_uniform(source, 0.2, 0.6), _uniform(source, 6.0, 9.0)),
                "b2": _uniform(source, 0.0, 0.5),
                "b3": _uniform(source, 0.0, 0.5)}

    def prepare(self, d, workdir):
        cfg = os.path.join(workdir, "scenario.cfg")
        _write_config(
            cfg, grid={"L": 50, "h": 0.05},
            time={"dt": 1e-3, "T": self.T, "mode": "nonlinear"},
            coupling={"type": d["type"], "a2": 1.0, "a3": 1.0, "b2": d["b2"],
                      "b3": d["b3"], "c2": 1.0, "c3": 1.0},
            initial={"u": f"soliton c={d['c']!r} x0={d['x0']!r}",
                     "v": _gauss(*d["v"], 0.9), "w": _gauss(*d["w"], 0.9)})
        return ["simulate", "--config", cfg, "--out", os.path.join(workdir, "out")]

    solve = staticmethod(_cli)

    def check(self, d, workdir, result):
        from ygraph.cli import _stamp

        out = os.path.join(workdir, "out")
        u = _read_csv(os.path.join(out, f"edge_u_t{_stamp(self.T)}.csv"))
        x = u["x"]
        keep = x <= -10.0
        arg = 0.5 * math.sqrt(d["c"]) * (x[keep] - d["c"] * self.T - d["x0"])
        ref = 3.0 * d["c"] / np.cosh(arg) ** 2
        err = float(np.linalg.norm(u["value"][keep] - ref) / np.linalg.norm(ref))
        with open(os.path.join(out, "summary.json")) as fh:
            cres = json.load(fh)["metrics"]["max_coupling_residual"]
        return max(err / SOLITON_TOL, cres / COUPLING_RESIDUAL_TOL)


# ---------------------------------------------------------------------------
# construct: criterion-6 linear assembly through the public API
# ---------------------------------------------------------------------------

class Construct:
    """``assemble_linear_solution`` followed by ``verify_vertex_conditions``.

    Not run through ``ygraph vertex construct``: that command takes h from
    ``np.linspace`` instead of ``--h``, so with L >= 30 and --h 0.00625 it
    fails "x = 0 does not fall on a grid node" after ~4 s (known defect).
    """

    name = "construct"
    expected_spans = ("vertex.assemble_linear_solution",
                      "vertex.verify_vertex_conditions", "vertex.solve_gamma",
                      "linops.group_trace_history", "linops.group_multi",
                      "fracops.riemann_liouville", "fracops.product_weights",
                      "forcing.forcing_class", "forcing.spectral_forcing_field")

    def __init__(self, size="full"):
        if size == "full":
            self.L, self.h, self.T, self.levels = 40.0, 0.00625, 0.5, 26
        else:
            # the residual oracle needs h = 0.00625; shrink the domain only
            self.L, self.h, self.T, self.levels = 20.0, 0.00625, 0.5, 26

    def draw(self, source, index):
        return {"type": 1 + index % 2,
                "amp": [_uniform(source, 0.5, 1.0) for _ in range(3)],
                "center": [_uniform(source, c - 1.0, c + 1.0)
                           for c in (-8.0, 7.0, 9.0)]}

    def prepare(self, d, workdir):
        from ygraph.linops import GridFunction
        from ygraph.vertex import LambdaVector, VertexCoupling

        make = (VertexCoupling.special_type1 if d["type"] == 1
                else VertexCoupling.special_type2)
        gx = np.arange(-self.L, self.L, self.h)
        data = [GridFunction(gx[0], self.h,
                             a * np.exp(-((gx - c) ** 2) / (2 * wd ** 2)))
                for a, c, wd in zip(d["amp"], d["center"], (1.2, 1.1, 1.3))]
        return (*data, make(1.0, 1.0, 0.0, 0.0),
                LambdaVector(0.05, 0.3, 0.05, 0.05, s=0.0))

    def solve(self, args):
        from ygraph.vertex import assemble_linear_solution, verify_vertex_conditions

        u0, v0, w0, coupling, lam = args
        sol = assemble_linear_solution(u0, v0, w0, coupling, lam, T=self.T,
                                       n_levels=self.levels, trace_dt=1e-3)
        return sol, verify_vertex_conditions(sol)

    def check(self, d, workdir, result):
        sol, rep = result
        startup = int(np.searchsorted(sol.times, 0.1))
        worst = rep.worst_relative(startup)
        return max(worst / VERTEX_RESIDUAL_TOL,
                   sol.imag_residual() / IMAG_RESIDUAL_TOL)


# ---------------------------------------------------------------------------
# picard: `ygraph picard --iters 5`
# ---------------------------------------------------------------------------

class Picard:
    name = "picard"
    expected_spans = ("cli.main", "cli.parse_config", "graphsim.picard_iterate",
                      "linops.duhamel_inhomog", "linops.group_trace_history",
                      "fracops.riemann_liouville", "fracops.sampled_derivative",
                      "vertex.solve_gamma", "forcing.forcing_class")

    def __init__(self, size="full"):
        if size == "full":
            self.h, self.T, self.iters = 0.05, 0.5, 5
        else:
            self.h, self.T, self.iters = 0.1, 0.1, 3

    def draw(self, source, index):
        return {"type": 1 + index % 2,
                "amp": [_uniform(source, 0.02, 0.06) for _ in range(3)],
                "center": [_uniform(source, -7.5, -6.5), _uniform(source, 6.5, 7.5),
                           _uniform(source, 7.0, 8.0)]}

    def prepare(self, d, workdir):
        cfg = os.path.join(workdir, "scenario.cfg")
        (au, av, aw), (cu, cv, cw) = d["amp"], d["center"]
        _write_config(
            cfg, grid={"L": 25, "h": self.h},
            time={"dt": 1e-3, "T": self.T, "mode": "nonlinear"},
            coupling={"type": d["type"], "a2": 1.0, "a3": 1.0, "b2": 0.0,
                      "b3": 0.0, "c2": 1.0, "c3": 1.0},
            initial={"u": _gauss(au, cu, 1.0), "v": _gauss(av, cv, 1.0),
                     "w": _gauss(aw, cw, 1.0)})
        return ["picard", "--config", cfg, "--iters", str(self.iters),
                "--out", os.path.join(workdir, "out")]

    solve = staticmethod(_cli)

    def check(self, d, workdir, result):
        hist = _read_csv(os.path.join(workdir, "out", "picard_history.csv"))
        dist = hist["distance"]
        if not np.all(np.isfinite(dist)) or len(dist) < 2:
            return math.inf
        ratios = dist[1:min(4, len(dist))] / dist[:min(3, len(dist) - 1)]
        diverged = dist[-1] > dist[-2] and dist[-1] > 1e-12
        return math.inf if diverged else float(ratios.max()) / CONTRACTION_TOL


# ---------------------------------------------------------------------------
# forcing_quadrature: `ygraph forcing --method simpson`
# ---------------------------------------------------------------------------

class ForcingQuadrature:
    name = "forcing_quadrature"
    expected_spans = ("cli.main", "cli.read_trace_csv", "cli.write_field_csv",
                      "forcing.forcing_class", "fracops.riemann_liouville",
                      "specfun.airy_scaled")

    def __init__(self, size="full"):
        if size == "full":
            self.L, self.T = 30.0, 1.0
        else:
            self.L, self.T = 10.0, 0.3
        self.times = np.round(np.arange(0.0, self.T + 1e-4, 0.1), 10)

    def draw(self, source, index):
        return {"sign": "minus" if index % 2 == 0 else "plus",
                "lam": _uniform(source, 0.05, 0.45),
                "a": _uniform(source, 0.5, 2.0)}

    def prepare(self, d, workdir):
        t = 1e-3 * np.arange(int(round(self.T / 1e-3)) + 1)
        gpath = os.path.join(workdir, "g.csv")
        np.savetxt(gpath, np.column_stack([t, t ** 2 * np.exp(-d["a"] * t)]),
                   delimiter=",", header="t,value", comments="", fmt="%.17g")
        return ["forcing", "--method", "simpson", "--lambda", repr(d["lam"]),
                "--sign", d["sign"], "--g", gpath, "--grid", f"{self.L!r},0.05",
                "--times", ",".join(f"{t:g}" for t in self.times),
                "--out", os.path.join(workdir, "field.csv")]

    solve = staticmethod(_cli)

    def check(self, d, workdir, result):
        from ygraph.cli import _stamp

        lam = d["lam"]
        levels = [t for t in self.times if t >= 0.1]
        g = np.array([t ** 2 * math.exp(-d["a"] * t) for t in levels])
        if d["sign"] == "minus":
            ref = 2.0 * math.sin(math.pi * lam / 3.0 + math.pi / 6.0) * g
            scale = np.abs(ref).max()
        else:
            ref = complex(math.cos(math.pi * lam), math.sin(math.pi * lam)) * g
            scale = np.abs(g).max()
        got = []
        for t in levels:
            col = _read_csv(os.path.join(workdir, f"field_t{_stamp(t)}.csv"))
            i0 = int(np.argmin(np.abs(col["x"])))
            got.append(col["value"][i0] if "value" in col
                       else complex(col["re"][i0], col["im"][i0]))
        err = float(np.abs(np.asarray(got) - ref).max() / scale)
        return err / TRACE_LAW_TOL


WORKLOADS = {w.name: w for w in (Simulate, Construct, Picard, ForcingQuadrature)}
