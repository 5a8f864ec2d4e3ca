"""Command-line front door.

Subcommands expose each layer of the toolkit: kernel evaluation, fractional
integration, the linear group, boundary forcing fields, vertex matrix work,
the direct graph solver, the fixed-point iteration, the scaling-symmetry
check and the acceptance suite.  Outputs are plain CSV plus a JSON run
manifest; exit codes are 0 (success), 1 (numerical failure), 2 (usage).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from .errors import ConfigError, ContractError, YGraphError
from .specfun import airy_scaled_with_deriv
from .fracops import TimeTrace, riemann_liouville
from .linops import GridFunction, airy_group
from .forcing import _check_times, forcing_class
from .vertex import (VertexCoupling, CouplingKind, LambdaVector, build_matrix,
                     det_m, is_invertible, admissible_scan, anchor_lambda,
                     assemble_linear_solution, time_ladder,
                     verify_vertex_conditions)
from .graphsim import (MAX_PICARD_ITERS, InitialProfile, ScenarioConfig, evolve,
                       energy_report, picard_iterate, scaling_check,
                       whole_line_data, whole_steps)


@dataclass
class RunManifest:
    command: str
    config_echo: dict
    versions: str = f"ygraph {__version__}"
    outputs: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def write(self, path):
        self.outputs.append(str(path))
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, default=_json_default)
            fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return str(obj)


# ---------------------------------------------------------------------------
# scenario config files
# ---------------------------------------------------------------------------

_DEFAULTS = {
    ("grid", "l"): "50", ("grid", "h"): "0.05",
    ("time", "dt"): "1e-3", ("time", "t"): "1.0", ("time", "mode"): "linear",
    ("sponge", "fraction"): "0.0", ("sponge", "strength"): "0.0",
    ("initial", "u"): "zero", ("initial", "v"): "zero", ("initial", "w"): "zero",
}

_KNOWN_KEYS = {
    "grid": {"l", "h"},
    "time": {"dt", "t", "mode"},
    "coupling": {"type", "a2", "a3", "b2", "b3", "c2", "c3"},
    "initial": {"u", "v", "w"},
    "sponge": {"fraction", "strength"},
}


def _parse_profile(text, where, problems):
    parts = text.split()
    kind = parts[0].lower() if parts else ""
    params = {}
    for tok in parts[1:]:
        if "=" not in tok:
            problems.append(f"{where}: malformed profile parameter {tok!r}")
            return None
        k, _, v = tok.partition("=")
        try:
            params[k.strip().lower()] = float(v)
        except ValueError:
            problems.append(f"{where}: non-numeric profile parameter {tok!r}")
            return None
    try:
        if kind == "zero":
            return InitialProfile("zero")
        if kind == "gaussian":
            return InitialProfile("gaussian",
                                  amplitude=params.pop("amplitude", 1.0),
                                  center=params.pop("center", 0.0),
                                  width=params.pop("width", 1.0))
        if kind == "soliton":
            return InitialProfile("soliton", c=params.pop("c", 1.0),
                                  center=params.pop("x0", 0.0))
    except ContractError as exc:
        problems.append(f"{where}: {exc}")
        return None
    finally:
        if params:
            problems.append(f"{where}: unknown profile parameters {sorted(params)}")
    problems.append(f"{where}: unknown profile kind {kind!r}")
    return None


def parse_config(path) -> ScenarioConfig:
    """Read a sectioned key = value scenario file.

    All problems (unknown keys, bad numbers, violated invariants including
    the type-1 compatibility condition) are collected into one ConfigError
    with line numbers.
    """
    problems = []
    raw = {}
    section = None
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"])
    for ln, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip().lower()
            if section not in _KNOWN_KEYS:
                problems.append(f"line {ln}: unknown section [{section}]")
                section = None
            continue
        if "=" not in text:
            problems.append(f"line {ln}: expected key = value, got {text!r}")
            continue
        if section is None:
            problems.append(f"line {ln}: key outside any section")
            continue
        key, _, val = text.partition("=")
        key = key.strip().lower()
        if key not in _KNOWN_KEYS[section]:
            problems.append(f"line {ln}: unknown key {key!r} in [{section}]")
            continue
        raw[(section, key)] = (val.strip(), ln)

    def get(section, key, cast=float):
        item = raw.get((section, key))
        if item is None:
            default = _DEFAULTS.get((section, key))
            if default is None:
                problems.append(f"missing required key {key!r} in [{section}]")
                return None
            return cast(default) if cast is not float else float(default)
        val, ln = item
        try:
            return cast(val) if cast is not float else float(val)
        except ValueError:
            problems.append(f"line {ln}: cannot parse {key} = {val!r}")
            return None

    L = get("grid", "l")
    h = get("grid", "h")
    dt = get("time", "dt")
    T = get("time", "t")
    mode = get("time", "mode", str)
    ctype = get("coupling", "type", str)
    coeffs = {k: get("coupling", k) for k in ("a2", "a3", "b2", "b3", "c2", "c3")}
    profiles = {}
    for name in ("u", "v", "w"):
        item = raw.get(("initial", name))
        if item is None:
            profiles[name] = InitialProfile("zero")
        else:
            profiles[name] = _parse_profile(item[0], f"line {item[1]}", problems)
    frac = get("sponge", "fraction")
    strength = get("sponge", "strength")

    coupling = None
    if ctype is not None and None not in coeffs.values():
        if str(ctype).strip() in ("1", "type1"):
            kind = CouplingKind.TYPE1
        elif str(ctype).strip() in ("2", "type2"):
            kind = CouplingKind.TYPE2
        else:
            problems.append(f"coupling type must be 1 or 2, got {ctype!r}")
            kind = None
        if kind is not None:
            coupling = VertexCoupling(kind, **coeffs)

    if problems:
        raise ConfigError(problems)
    try:
        return ScenarioConfig(L=L, h=h, dt=dt, T=T, coupling=coupling,
                              mode=str(mode).strip(),
                              initial_u=profiles["u"], initial_v=profiles["v"],
                              initial_w=profiles["w"], sponge_fraction=frac,
                              sponge_strength=strength)
    except YGraphError as exc:
        raise ConfigError(str(exc).split("; "))


def _config_echo(cfg: ScenarioConfig) -> dict:
    d = asdict(cfg)
    d["coupling"]["kind"] = cfg.coupling.kind.name
    return d


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def _read_csv(path, axis):
    """(axis column, its uniform step, values) of an axis,value or
    axis,re,im CSV file."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    names = data.dtype.names
    a = np.atleast_1d(data[axis])
    if "value" in names:
        vals = np.atleast_1d(data["value"])
    elif "re" in names and "im" in names:
        vals = np.atleast_1d(data["re"]) + 1j * np.atleast_1d(data["im"])
    else:
        raise YGraphError(f"{path}: expected columns {axis},value or {axis},re,im")
    bad = np.flatnonzero(~(np.isfinite(a) & np.isfinite(vals)))
    if bad.size:
        raise YGraphError(f"{path}: data row {bad[0] + 1} is not finite")
    if len(a) < 2:
        raise YGraphError(f"{path}: need at least two samples")
    step = a[1] - a[0]
    if not np.allclose(np.diff(a), step, rtol=1e-9, atol=1e-12):
        raise YGraphError(f"{path}: {axis} column must be uniform")
    return a, float(step), vals


def _write_csv(path, axis, coords, samples):
    with open(path, "w") as fh:
        if samples.dtype.kind == "c":
            fh.write(f"{axis},re,im\n")
            for c, v in zip(coords, samples):
                fh.write(f"{c:.12g},{v.real:.17g},{v.imag:.17g}\n")
        else:
            fh.write(f"{axis},value\n")
            for c, v in zip(coords, samples):
                fh.write(f"{c:.12g},{v:.17g}\n")


def read_trace_csv(path) -> TimeTrace:
    t, dt, vals = _read_csv(path, "t")
    return TimeTrace(dt, vals, causal=bool(abs(t[0]) < 1e-12))


def write_trace_csv(path, trace: TimeTrace):
    _write_csv(path, "t", trace.times, trace.samples)


def read_field_csv(path) -> GridFunction:
    x, hx, vals = _read_csv(path, "x")
    return GridFunction(float(x[0]), hx, vals)


def write_field_csv(path, grid: GridFunction):
    _write_csv(path, "x", grid.x, grid.samples)


def _stamp(t: float) -> str:
    return f"{t:.6f}".rstrip("0").rstrip(".").replace(".", "p").replace("-", "m")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_airy(args):
    if args.table:
        a, b, n = args.table
        if not (1 <= n < math.inf and n == int(n)):
            raise ConfigError([f"--table N must be a whole number >= 1, got {n:g}"])
        xs = np.linspace(a, b, int(n))
        va, vp = airy_scaled_with_deriv(xs)
        with (contextlib.nullcontext(sys.stdout) if args.out is None
              else open(args.out, "w")) as out:
            out.write("x,A,Aprime\n")
            for x, y, yp in zip(xs, va, vp):
                out.write(f"{x:.12g},{y:.17g},{yp:.17g}\n")
        if args.out is not None:
            print(f"wrote {args.out}")
    elif args.x is not None:
        a, ap = airy_scaled_with_deriv(args.x)
        print(f"A({args.x:g}) = {a:.12g}")
        print(f"A'({args.x:g}) = {ap:.12g}")
    else:
        raise SystemExit(2)
    return 0


def _cmd_fracint(args):
    trace = read_trace_csv(args.infile)
    out = riemann_liouville(trace, args.alpha)
    write_trace_csv(args.out, out)
    man = RunManifest(command="fracint",
                      config_echo={"alpha": args.alpha, "in": args.infile},
                      metrics={"n_samples": len(out)})
    man.outputs.append(args.out)
    man.write(args.out + ".manifest.json")
    print(f"wrote {args.out}")
    return 0


def _cmd_group(args):
    fieldin = read_field_csv(args.infile)
    out = airy_group(fieldin, args.t)
    write_field_csv(args.out, out)
    man = RunManifest(command="group",
                      config_echo={"t": args.t, "in": args.infile},
                      metrics={"n_samples": len(out)})
    man.outputs.append(args.out)
    man.write(args.out + ".manifest.json")
    print(f"wrote {args.out}")
    return 0


def _cmd_forcing(args):
    g = read_trace_csv(args.g)
    if not (len(args.grid) == 2 and all(0.0 < v < math.inf for v in args.grid)
            and whole_steps(*args.grid)):
        raise ConfigError(["--grid must be L,h with L and h positive and finite "
                           "and L/h a whole number, got "
                           + ",".join(f"{v:g}" for v in args.grid)])
    L, h = args.grid
    grid = GridFunction(-L, h, np.zeros(int(round(2 * L / h)) + 1))
    times = np.asarray(args.times, dtype=float)
    try:
        _check_times(times, g.dt, len(g))
    except YGraphError as exc:
        raise ConfigError([f"--times: {exc}"])
    fld = forcing_class(args.lam, args.sign, g, grid, times, method=args.method)
    stem, dot, suffix = args.out.rpartition(".")
    if not dot:
        stem, suffix = args.out, "csv"
    outputs = []
    for m, t in enumerate(times):
        path = f"{stem}_t{_stamp(t)}.{suffix}" if len(times) > 1 else args.out
        write_field_csv(path, fld.level(m))
        outputs.append(path)
    man = RunManifest(command="forcing",
                      config_echo={"lambda": args.lam, "sign": args.sign,
                                   "grid": [L, h], "times": list(times),
                                   "method": args.method},
                      metrics={"levels": len(times)})
    man.outputs.extend(outputs)
    man.write(f"{stem}.manifest.json")
    print("\n".join(f"wrote {p}" for p in outputs))
    return 0


def _parse_coupling(args) -> VertexCoupling:
    a2, a3, b2, b3, c2, c3 = args.coeffs
    kind = CouplingKind.TYPE1 if args.type == 1 else CouplingKind.TYPE2
    return VertexCoupling(kind, a2, a3, b2, b3, c2, c3)


def _cmd_vertex_det(args):
    coupling = _parse_coupling(args)
    lam = LambdaVector(*args.lam)
    m = build_matrix(coupling, lam)
    d = det_m(m)
    print(f"det M = {d.real:.12g} {d.imag:+.12g}i")
    print(f"|det M| = {abs(d):.12g}")
    print(f"invertible: {'yes' if is_invertible(m) else 'no'}")
    return 0


def _cmd_vertex_scan(args):
    if args.resolution < 1:
        raise ConfigError([f"--resolution must be >= 1, got {args.resolution}"])
    coupling = _parse_coupling(args)
    rep = admissible_scan(args.s, coupling, resolution=args.resolution,
                          eps=args.eps)
    with open(args.out, "w") as fh:
        fh.write("lambda,lambda2,absdet,threshold,invertible\n")
        for r in rep.rows:
            fh.write(f"{r.lam:.12g},{r.lam2:.12g},{r.absdet:.17g},"
                     f"{r.threshold:.17g},{int(r.invertible)}\n")
    man = RunManifest(command="vertex scan",
                      config_echo={"s": args.s, "eps": args.eps,
                                   "resolution": args.resolution,
                                   "window": list(rep.window),
                                   "branch": rep.branch},
                      metrics={"rows": len(rep.rows),
                               "any_invertible": rep.any_invertible})
    man.outputs.append(args.out)
    man.write(args.out + ".manifest.json")
    print(f"window ({rep.window[0]:g}, {rep.window[1]:g}), "
          f"{sum(r.invertible for r in rep.rows)}/{len(rep.rows)} invertible")
    print(f"wrote {args.out}")
    return 0


def _cmd_vertex_construct(args):
    cfg = parse_config(args.config)
    h = args.h
    if not (0.0 < h < math.inf and whole_steps(cfg.L, h)):
        raise ConfigError([f"--h must be positive, finite and divide L = {cfg.L:g} "
                           f"into whole steps, got {h:g}"])
    try:
        time_ladder(cfg.T, cfg.dt, args.levels)
    except ContractError:
        raise ConfigError([f"--levels must be >= 2 with --levels - 1 dividing "
                           f"the {cfg.n_steps} time steps, got {args.levels}"])
    os.makedirs(args.out, exist_ok=True)
    lam = LambdaVector(*args.lam) if args.lam else \
        LambdaVector(0.05, 0.3, 0.05, 0.05, s=0.0)
    grid = GridFunction(-cfg.L, h, np.zeros(int(round(2 * cfg.L / h)) + 1))
    u0, v0, w0 = whole_line_data(cfg, h, grid)
    sol = assemble_linear_solution(u0, v0, w0, cfg.coupling, lam, T=cfg.T,
                                   n_levels=args.levels, trace_dt=cfg.dt)
    rep = verify_vertex_conditions(sol)
    outputs = []
    for name, fld in (("u", sol.u), ("v", sol.v), ("w", sol.w)):
        path = os.path.join(args.out, f"edge_{name}_t{_stamp(float(sol.times[-1]))}.csv")
        write_field_csv(path, fld.level(fld.n_levels - 1))
        outputs.append(path)
    respath = os.path.join(args.out, "vertex_residuals.csv")
    with open(respath, "w") as fh:
        labels = list(rep.residuals)
        fh.write("t," + ",".join(labels) + "\n")
        for i, t in enumerate(rep.times):
            fh.write(f"{t:.12g}," + ",".join(f"{rep.residuals[k][i]:.17g}"
                                             for k in labels) + "\n")
    outputs.append(respath)
    man = RunManifest(command="vertex construct",
                      config_echo=_config_echo(cfg),
                      metrics={"worst_relative_residual": rep.worst_relative(),
                               "imag_residual": sol.imag_residual(),
                               "det": abs(det_m(sol.matrix))})
    man.outputs.extend(outputs)
    man.write(os.path.join(args.out, "manifest.json"))
    print(f"worst relative vertex residual: {rep.worst_relative():.3e}")
    return 0


def _write_diagnostics(path, diag):
    keys = ["t", "mass_u", "mass_v", "mass_w", "u0", "v0", "w0", "ux", "vx",
            "wx", "uxx", "vxx", "wxx", "flux", "flux_integrand",
            "coupling_residual"]
    with open(path, "w") as fh:
        fh.write("step," + ",".join(keys) + "\n")
        for i in range(len(diag["t"])):
            fh.write(str(i) + "," + ",".join(f"{diag[k][i]:.17g}"
                                             for k in keys) + "\n")


def _cmd_simulate(args):
    cfg = parse_config(args.config)
    if args.snapshots < 1:
        raise ConfigError([f"--snapshots must be >= 1, got {args.snapshots}"])
    os.makedirs(args.out, exist_ok=True)
    wall = time.perf_counter()
    store = max(1, cfg.n_steps // args.snapshots)
    traj = evolve(cfg, store_every=store)
    outputs = []
    for st in traj.states:
        for name, g in (("u", st.u), ("v", st.v), ("w", st.w)):
            path = os.path.join(args.out, f"edge_{name}_t{_stamp(st.t)}.csv")
            write_field_csv(path, g)
            outputs.append(path)
    diagpath = os.path.join(args.out, "diagnostics.csv")
    _write_diagnostics(diagpath, traj.diagnostics)
    outputs.append(diagpath)
    rep = energy_report(traj)
    residual = traj.diagnostics["coupling_residual"]   # row 0 is the data
    man = RunManifest(command="simulate", config_echo=_config_echo(cfg),
                      metrics={
                          "final_total_mass": float(traj.diagnostics["mass_u"][-1]
                                                    + traj.diagnostics["mass_v"][-1]
                                                    + traj.diagnostics["mass_w"][-1]),
                          "energy_mismatch": rep.worst_mismatch(),
                          "max_coupling_residual": float(residual[1:].max()),
                          "data_coupling_residual": float(residual[0]),
                          "condition_estimate": traj.diagnostics["condition_estimate"],
                          "wall_time": time.perf_counter() - wall,
                          "nonlinear_warning": rep.nonlinear_warning,
                      })
    man.outputs.extend(outputs)
    man.write(os.path.join(args.out, "summary.json"))
    print(f"simulated {cfg.n_steps} steps; outputs in {args.out}")
    return 0


def _cmd_picard(args):
    cfg = parse_config(args.config)
    if not 1 <= args.iters <= MAX_PICARD_ITERS:
        raise ConfigError([f"--iters must lie in 1..{MAX_PICARD_ITERS}, "
                           f"got {args.iters}"])
    os.makedirs(args.out, exist_ok=True)
    lam = LambdaVector(*args.lam) if args.lam else \
        LambdaVector(0.05, 0.3, 0.05, 0.05, s=0.0)
    res = picard_iterate(cfg, lam, n_iter=args.iters)
    hist = os.path.join(args.out, "picard_history.csv")
    with open(hist, "w") as fh:
        fh.write("iterate,distance\n")
        for i, d in enumerate(res.distances, 1):
            fh.write(f"{i},{d:.17g}\n")
    outputs = [hist]
    names = ("u", "v", "w")
    for name, fld in zip(names, res.final):
        path = os.path.join(args.out, f"edge_{name}_t{_stamp(float(res.times[-1]))}.csv")
        lev = fld.level(fld.n_levels - 1)
        write_field_csv(path, lev.with_samples(np.real(lev.samples)))
        outputs.append(path)
    man = RunManifest(command="picard", config_echo=_config_echo(cfg),
                      metrics={"iterations": len(res.distances),
                               "final_distance": float(res.distances[-1]),
                               "diverged": res.diverged})
    man.outputs.extend(outputs)
    man.write(os.path.join(args.out, "manifest.json"))
    print("distances:", " ".join(f"{d:.3e}" for d in res.distances))
    if res.diverged:
        print("warning: iteration diverged", file=sys.stderr)
        return 1
    return 0


def _cmd_scaling(args):
    cfg = parse_config(args.config)
    rep = scaling_check(cfg, args.lam)
    print(f"lam = {args.lam:g}")
    print(f"discrepancy u: {rep.discrepancy_u:.6e}")
    print(f"discrepancy v: {rep.discrepancy_v:.6e}")
    print(f"discrepancy w: {rep.discrepancy_w:.6e}")
    if args.out:
        man = RunManifest(command="scaling-check", config_echo=_config_echo(cfg),
                          metrics={"lam": args.lam, "worst": rep.worst,
                                   "u": rep.discrepancy_u,
                                   "v": rep.discrepancy_v,
                                   "w": rep.discrepancy_w})
        man.write(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_accept(args):
    from .acceptance import run_all
    results = run_all(quick=args.quick)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"[{mark}] {r.name:<{width}}  {r.detail}  ({r.seconds:.1f}s)")
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _floats(text):
    return [float(tok) for tok in text.split(",")]


def build_parser():
    p = argparse.ArgumentParser(prog="ygraph",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command")

    pa = sub.add_parser("airy", help="evaluate the scaled Airy kernel")
    pa.add_argument("--x", type=float)
    pa.add_argument("--table", nargs=3, type=float, metavar=("A", "B", "N"))
    pa.add_argument("--out")
    pa.set_defaults(func=_cmd_airy)

    pf = sub.add_parser("fracint", help="Riemann-Liouville fractional integral")
    pf.add_argument("--alpha", type=float, required=True)
    pf.add_argument("--in", dest="infile", required=True)
    pf.add_argument("--out", required=True)
    pf.set_defaults(func=_cmd_fracint)

    pg = sub.add_parser("group", help="apply the linear group at time t")
    pg.add_argument("--t", type=float, required=True)
    pg.add_argument("--in", dest="infile", required=True)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=_cmd_group)

    pfo = sub.add_parser("forcing", help="evaluate a boundary forcing class field")
    pfo.add_argument("--lambda", dest="lam", type=float, required=True)
    pfo.add_argument("--sign", choices=("minus", "plus"), required=True)
    pfo.add_argument("--g", required=True, help="causal trace CSV")
    pfo.add_argument("--grid", type=_floats, required=True, metavar="L,h")
    pfo.add_argument("--times", type=_floats, required=True)
    pfo.add_argument("--method", choices=("spectral", "simpson"),
                     default="spectral")
    pfo.add_argument("--out", required=True)
    pfo.set_defaults(func=_cmd_forcing)

    pv = sub.add_parser("vertex", help="vertex matrix operations")
    vsub = pv.add_subparsers(dest="vertex_command")
    pvd = vsub.add_parser("det", help="determinant at one order vector")
    pvd.add_argument("--type", type=int, choices=(1, 2), required=True)
    pvd.add_argument("--coeffs", type=_floats, required=True,
                     metavar="a2,a3,b2,b3,c2,c3")
    pvd.add_argument("--lambda", dest="lam", type=_floats, required=True,
                     metavar="l1,l2,l3,l4")
    pvd.set_defaults(func=_cmd_vertex_det)
    pvs = vsub.add_parser("scan", help="invertibility scan over the order window")
    pvs.add_argument("--s", type=float, required=True)
    pvs.add_argument("--type", type=int, choices=(1, 2), required=True)
    pvs.add_argument("--coeffs", type=_floats, required=True)
    pvs.add_argument("--eps", type=float, default=0.1)
    pvs.add_argument("--resolution", type=int, default=101)
    pvs.add_argument("--out", required=True)
    pvs.set_defaults(func=_cmd_vertex_scan)
    pvc = vsub.add_parser("construct", help="assemble the linear graph solution")
    pvc.add_argument("--config", required=True)
    pvc.add_argument("--lambda", dest="lam", type=_floats)
    pvc.add_argument("--h", type=float, default=0.0125)
    pvc.add_argument("--levels", type=int, default=26)
    pvc.add_argument("--out", required=True)
    pvc.set_defaults(func=_cmd_vertex_construct)

    ps = sub.add_parser("simulate", help="run the direct graph solver")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--snapshots", type=int, default=10)
    ps.set_defaults(func=_cmd_simulate)

    pp = sub.add_parser("picard", help="fixed-point iteration of the integral map")
    pp.add_argument("--config", required=True)
    pp.add_argument("--iters", type=int, default=6)
    pp.add_argument("--lambda", dest="lam", type=_floats)
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=_cmd_picard)

    psc = sub.add_parser("scaling-check", help="scaling-symmetry discrepancy")
    psc.add_argument("--config", required=True)
    psc.add_argument("--lam", type=float, required=True)
    psc.add_argument("--out")
    psc.set_defaults(func=_cmd_scaling)

    pac = sub.add_parser("accept", help="run the acceptance suite")
    pac.add_argument("--quick", action="store_true",
                     help="only the sub-minute criteria")
    pac.set_defaults(func=_cmd_accept)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print("configuration errors:", file=sys.stderr)
        for prob in exc.problems:
            print(f"  {prob}", file=sys.stderr)
        return 2
    except YGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:    # last resort: one line, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
