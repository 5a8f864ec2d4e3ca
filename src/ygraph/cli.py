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
import functools
import itertools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from .errors import ConfigError, ContractError, DomainError, YGraphError
from .specfun import airy_scaled_with_deriv
from .fracops import TimeTrace, check_order, riemann_liouville
from .linops import GridFunction, Ladder, airy_group, whole_steps
from .forcing import check_class_order, forcing_class
from .vertex import (VertexCoupling, CouplingKind, LambdaVector, build_matrix,
                     det_m, is_invertible, admissible_scan,
                     assemble_linear_solution, verify_vertex_conditions,
                     STARTUP_WINDOW, VERTEX_RESIDUAL_TOL)
from .graphsim import (MAX_PICARD_ITERS, InitialProfile, ScenarioConfig, evolve,
                       check_scale, energy_report, picard_iterate,
                       scaling_check, whole_line_data)


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

# (section, key) -> the ScenarioConfig field it sets, parsed as the type of
# that field's default.  A key the file omits takes the ScenarioConfig
# default.  [coupling] keys build the VertexCoupling, which has no default,
# and [initial] keys are edge profiles.
_FIELDS = {
    ("grid", "l"): "L", ("grid", "h"): "h",
    ("time", "dt"): "dt", ("time", "t"): "T", ("time", "mode"): "mode",
    ("sponge", "fraction"): "sponge_fraction",
    ("sponge", "strength"): "sponge_strength",
}
_COEFFS = ("a2", "a3", "b2", "b3", "c2", "c3")
_KNOWN_KEYS = {sec: {k for s, k in _FIELDS if s == sec} for sec, _ in _FIELDS}
_KNOWN_KEYS.update(coupling={"type", *_COEFFS}, initial={"u", "v", "w"})
_COUPLING_KINDS = {"1": CouplingKind.TYPE1, "type1": CouplingKind.TYPE1,
                   "2": CouplingKind.TYPE2, "type2": CouplingKind.TYPE2}


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

    def parse(section, key, cast=float):
        if (section, key) not in raw:
            problems.append(f"missing required key {key!r} in [{section}]")
            return None
        val, ln = raw[(section, key)]
        try:
            return cast(val)
        except ValueError:
            problems.append(f"line {ln}: cannot parse {key} = {val!r}")
            return None

    values = {name: parse(*sk, type(getattr(ScenarioConfig, name)))
              for sk, name in _FIELDS.items() if sk in raw}
    ctype = parse("coupling", "type", str)
    coeffs = {key: parse("coupling", key) for key in _COEFFS}
    if ctype is not None and ctype not in _COUPLING_KINDS:
        problems.append(f"coupling type must be 1 or 2, got {ctype!r}")
    for (sec, edge), (text, ln) in raw.items():
        if sec == "initial":
            values[f"initial_{edge}"] = _parse_profile(text, f"line {ln}", problems)

    if problems:
        raise ConfigError(problems)
    try:
        return ScenarioConfig(
            coupling=VertexCoupling(_COUPLING_KINDS[ctype], **coeffs), **values)
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


# row formats: axis columns (x, t, lambda, lambda2) carry 12 significant
# digits, values 17 so that they parse back bit-exactly
_AXIS, _VALUE = "%.12g", "%.17g"


# Rows formatted per ``%`` in _write_table.  One ``%`` over a whole table
# raised simulate's peak RSS by ~1 MB; blocks of this many rows do not.
_ROWS_PER_FORMAT = 256


def _write_table(out, columns, formats):
    """A header of the column names, then one row per entry of the columns,
    formatted by one ``%`` per block of rows over their values in row order."""
    out.write(",".join(columns) + "\n")
    row = ",".join(formats) + "\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns.values()))
    while block := list(itertools.islice(rows, _ROWS_PER_FORMAT)):
        out.write((row * len(block)) % tuple(itertools.chain.from_iterable(block)))


def _write_csv(path, axis, coords, samples):
    values = ({"re": samples.real, "im": samples.imag} if samples.dtype.kind == "c"
              else {"value": samples})
    with open(path, "w") as fh:
        _write_table(fh, {axis: coords, **values}, (_AXIS,) + (_VALUE,) * len(values))


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


def _write_edges(outdir, t, u, v, w):
    """edge_{u,v,w}_t<stamp>.csv snapshots at time t; returns their paths."""
    paths = [os.path.join(outdir, f"edge_{e}_t{_stamp(t)}.csv") for e in "uvw"]
    for path, g in zip(paths, (u, v, w)):
        write_field_csv(path, g)
    return paths


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _in_domain(option, fn, value):
    """``fn(value)``, with a DomainError reported against ``option``."""
    try:
        return fn(value)
    except DomainError as exc:
        raise ConfigError([f"{option}: {exc}"])


def _cmd_airy(args):
    if args.table:
        a, b, n = args.table
        if not (1 <= n < math.inf and n == int(n)):
            raise ConfigError([f"--table N must be a whole number >= 1, got {n:g}"])
        xs = np.linspace(a, b, int(n))
        va, vp = _in_domain("--table", airy_scaled_with_deriv, xs)
    else:
        xs = np.array([args.x])
        va, vp = _in_domain("--x", airy_scaled_with_deriv, xs)
        if args.out is None:
            print(f"A({args.x:g}) = {va[0]:.12g}")
            print(f"A'({args.x:g}) = {vp[0]:.12g}")
            return 0
    with (contextlib.nullcontext(sys.stdout) if args.out is None
          else open(args.out, "w")) as out:
        _write_table(out, {"x": xs, "A": va, "Aprime": vp}, (_AXIS, _VALUE, _VALUE))
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


def _cmd_fracint(args):
    _in_domain("--alpha", check_order, args.alpha)
    out = riemann_liouville(read_trace_csv(args.infile), args.alpha)
    write_trace_csv(args.out, out)
    man = RunManifest(command="fracint",
                      config_echo={"alpha": args.alpha, "in": args.infile},
                      outputs=[args.out], metrics={"n_samples": len(out)})
    man.write(args.out + ".manifest.json")
    print(f"wrote {args.out}")
    return 0


def _cmd_group(args):
    out = airy_group(read_field_csv(args.infile), args.t)
    write_field_csv(args.out, out)
    man = RunManifest(command="group",
                      config_echo={"t": args.t, "in": args.infile},
                      outputs=[args.out], metrics={"n_samples": len(out)})
    man.write(args.out + ".manifest.json")
    print(f"wrote {args.out}")
    return 0


def _cmd_forcing(args):
    _in_domain("--lambda", check_class_order, args.lam)
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
        ladder = Ladder(grid, times, g.dt, len(g))
    except YGraphError as exc:
        raise ConfigError([f"--times: {exc}"])
    fld = forcing_class(args.lam, args.sign, g, grid, times, method=args.method,
                        ladder=ladder)
    stem, suffix = os.path.splitext(args.out)
    outputs = [f"{stem}_t{_stamp(t)}{suffix or '.csv'}" for t in times]
    for m, path in enumerate(outputs):
        write_field_csv(path, fld.level(m))
    man = RunManifest(command="forcing",
                      config_echo={"lambda": args.lam, "sign": args.sign,
                                   "grid": [L, h], "times": list(times),
                                   "method": args.method},
                      outputs=list(outputs), metrics={"levels": len(times)})
    man.write(f"{stem}.manifest.json")
    print("\n".join(f"wrote {p}" for p in outputs))
    return 0


def _parse_coupling(args) -> VertexCoupling:
    return VertexCoupling(_COUPLING_KINDS[str(args.type)], *args.coeffs)


def _cmd_vertex_det(args):
    m = build_matrix(_parse_coupling(args), LambdaVector(*args.lam))
    d = det_m(m)
    print(f"det M = {d.real:.12g} {d.imag:+.12g}i")
    print(f"|det M| = {abs(d):.12g}")
    print(f"invertible: {'yes' if is_invertible(m) else 'no'}")
    return 0


def _cmd_vertex_scan(args):
    if args.resolution < 1:
        raise ConfigError([f"--resolution must be >= 1, got {args.resolution}"])
    rep = admissible_scan(args.s, _parse_coupling(args),
                          resolution=args.resolution, eps=args.eps)
    columns = {"lambda": "lam", "lambda2": "lam2", "absdet": "absdet",
               "threshold": "threshold", "invertible": "invertible"}
    with open(args.out, "w") as fh:
        _write_table(fh, {c: [getattr(r, f) for r in rep.rows]
                          for c, f in columns.items()},
                     (_AXIS, _AXIS, _VALUE, _VALUE, "%d"))
    man = RunManifest(command="vertex scan",
                      config_echo={"s": args.s, "eps": args.eps,
                                   "resolution": args.resolution,
                                   "window": list(rep.window),
                                   "branch": rep.branch},
                      outputs=[args.out],
                      metrics={"rows": len(rep.rows),
                               "any_invertible": rep.any_invertible})
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
    grid = GridFunction(-cfg.L, h, np.zeros(int(round(2 * cfg.L / h)) + 1))
    try:
        ladder = Ladder.over(grid, cfg.T, cfg.dt, args.levels)
    except ContractError:
        raise ConfigError([f"--levels must be >= 2 with --levels - 1 dividing "
                           f"the {cfg.n_steps} time steps, got {args.levels}"])
    os.makedirs(args.out, exist_ok=True)
    u0, v0, w0 = whole_line_data(cfg, h, grid)
    sol = assemble_linear_solution(u0, v0, w0, cfg.coupling, LambdaVector(*args.lam),
                                   ladder=ladder)
    rep = verify_vertex_conditions(sol)
    outputs = _write_edges(args.out, float(sol.times[-1]),
                           *(f.level(-1) for f in (sol.u, sol.v, sol.w)))
    respath = os.path.join(args.out, "vertex_residuals.csv")
    with open(respath, "w") as fh:
        _write_table(fh, {"t": rep.times, **rep.residuals},
                     (_AXIS,) + (_VALUE,) * len(rep.residuals))
    outputs.append(respath)
    checked = rep.times[-1] >= STARTUP_WINDOW
    worst = rep.worst_relative() if checked else None
    man = RunManifest(command="vertex construct",
                      config_echo=_config_echo(cfg), outputs=outputs,
                      metrics={"worst_relative_residual": worst,
                               "imag_residual": sol.imag_residual(),
                               "det": abs(det_m(sol.matrix))})
    man.write(os.path.join(args.out, "manifest.json"))
    if not checked:
        print(f"no level at t >= {STARTUP_WINDOW:g}: vertex residual not checked")
        return 0
    print(f"worst relative vertex residual on t >= {STARTUP_WINDOW:g}: {worst:.3e}")
    if worst > VERTEX_RESIDUAL_TOL:
        print(f"error: worst relative vertex residual {worst:.3e} exceeds the "
              f"tolerance {VERTEX_RESIDUAL_TOL:g}", file=sys.stderr)
        return 1
    return 0


def _write_diagnostics(path, diag):
    keys = ["t", "mass_u", "mass_v", "mass_w", "u0", "v0", "w0", "ux", "vx",
            "wx", "uxx", "vxx", "wxx", "flux", "flux_integrand",
            "coupling_residual"]
    with open(path, "w") as fh:
        _write_table(fh, {"step": range(len(diag["t"])),
                          **{k: diag[k] for k in keys}},
                     ("%d",) + (_VALUE,) * len(keys))


def _cmd_simulate(args):
    cfg = parse_config(args.config)
    if args.snapshots < 1:
        raise ConfigError([f"--snapshots must be >= 1, got {args.snapshots}"])
    os.makedirs(args.out, exist_ok=True)
    wall = time.perf_counter()
    traj = evolve(cfg, store_every=max(1, cfg.n_steps // args.snapshots))
    outputs = []
    for st in traj.states:
        outputs += _write_edges(args.out, st.t, st.u, st.v, st.w)
    diagpath = os.path.join(args.out, "diagnostics.csv")
    _write_diagnostics(diagpath, traj.diagnostics)
    outputs.append(diagpath)
    rep = energy_report(traj)
    diag = traj.diagnostics
    residual = diag["coupling_residual"]   # row 0 is the data
    man = RunManifest(command="simulate", config_echo=_config_echo(cfg),
                      outputs=outputs, metrics={
                          "final_total_mass": float(sum(diag[f"mass_{e}"][-1]
                                                        for e in "uvw")),
                          "energy_mismatch": rep.worst_mismatch(),
                          "max_coupling_residual": float(residual[1:].max()),
                          "data_coupling_residual": float(residual[0]),
                          "condition_estimate": diag["condition_estimate"],
                          "wall_time": time.perf_counter() - wall,
                          "nonlinear_warning": rep.nonlinear_warning,
                      })
    man.write(os.path.join(args.out, "summary.json"))
    print(f"simulated {cfg.n_steps} steps; outputs in {args.out}")
    return 0


def _cmd_picard(args):
    cfg = parse_config(args.config)
    if not 1 <= args.iters <= MAX_PICARD_ITERS:
        raise ConfigError([f"--iters must lie in 1..{MAX_PICARD_ITERS}, "
                           f"got {args.iters}"])
    os.makedirs(args.out, exist_ok=True)
    res = picard_iterate(cfg, LambdaVector(*args.lam), n_iter=args.iters)
    hist = os.path.join(args.out, "picard_history.csv")
    with open(hist, "w") as fh:
        _write_table(fh, {"iterate": range(1, len(res.distances) + 1),
                          "distance": res.distances}, ("%d", _VALUE))
    outputs = [hist] + _write_edges(args.out, float(res.times[-1]),
                                    *(f.level(-1) for f in res.final))
    man = RunManifest(command="picard", config_echo=_config_echo(cfg),
                      outputs=outputs,
                      metrics={"iterations": len(res.distances),
                               "final_distance": float(res.distances[-1]),
                               "diverged": res.diverged})
    man.write(os.path.join(args.out, "manifest.json"))
    print("distances:", " ".join(f"{d:.3e}" for d in res.distances))
    if res.diverged:
        print("warning: iteration diverged", file=sys.stderr)
        return 1
    return 0


def _cmd_scaling(args):
    _in_domain("--lam", check_scale, args.lam)
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
    failed = sum(not r.passed for r in results)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name:<{width}}  {r.detail}  "
              f"({r.seconds:.1f}s)")
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _floats(text):
    return [float(tok) for tok in text.split(",")]


class _Numbers(argparse.Action):
    """A finite number, or with ``count`` a comma list of that many; a bad
    value raises ConfigError during parsing, before any handler runs."""

    def __init__(self, *args, count=None, **kwargs):
        super().__init__(*args, type=_floats if count else float, **kwargs)
        self.count = count

    def __call__(self, parser, namespace, values, option_string=None):
        nums = values if self.count else [values]
        if len(nums) != (self.count or 1) or not all(map(math.isfinite, nums)):
            want = f"{self.count} finite numbers" if self.count else "finite"
            raise ConfigError([f"{option_string} must be {want}, got "
                               + ",".join(f"{v:g}" for v in nums)])
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    # "-1e11", "-1e-3", "-inf" and "-nan" are values, not options (argparse
    # < 3.13 took only "-12" and "-1.5"); subparsers inherit
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf(inity)?$|nan$)",
                                                   re.IGNORECASE)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves no state
    in it, and building it costs ~12 ms of a short solve."""
    p = _Parser(prog="ygraph", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command")

    pa = sub.add_parser("airy", help="evaluate the scaled Airy kernel")
    where = pa.add_mutually_exclusive_group(required=True)
    where.add_argument("--x", type=float)
    where.add_argument("--table", nargs=3, type=float, metavar=("A", "B", "N"))
    pa.add_argument("--out")
    pa.set_defaults(func=_cmd_airy)

    pf = sub.add_parser("fracint", help="Riemann-Liouville fractional integral")
    pf.add_argument("--alpha", action=_Numbers, required=True)
    pf.add_argument("--in", dest="infile", required=True)
    pf.add_argument("--out", required=True)
    pf.set_defaults(func=_cmd_fracint)

    pg = sub.add_parser("group", help="apply the linear group at time t")
    pg.add_argument("--t", action=_Numbers, required=True)
    pg.add_argument("--in", dest="infile", required=True)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=_cmd_group)

    pfo = sub.add_parser("forcing", help="evaluate a boundary forcing class field")
    pfo.add_argument("--lambda", dest="lam", action=_Numbers, required=True)
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
    coeffs = dict(action=_Numbers, count=6, required=True,
                  metavar="a2,a3,b2,b3,c2,c3")
    orders = dict(dest="lam", action=_Numbers, count=4, metavar="l1,l2,l3,l4")
    # the class orders of the linear assembly and of the Picard map
    default_orders = dict(orders, default=(0.05, 0.3, 0.05, 0.05))
    pvd.add_argument("--coeffs", **coeffs)
    pvd.add_argument("--lambda", required=True, **orders)
    pvd.set_defaults(func=_cmd_vertex_det)
    pvs = vsub.add_parser("scan", help="invertibility scan over the order window")
    pvs.add_argument("--s", action=_Numbers, required=True)
    pvs.add_argument("--type", type=int, choices=(1, 2), required=True)
    pvs.add_argument("--coeffs", **coeffs)
    pvs.add_argument("--eps", action=_Numbers, default=0.1)
    pvs.add_argument("--resolution", type=int, default=101)
    pvs.add_argument("--out", required=True)
    pvs.set_defaults(func=_cmd_vertex_scan)
    pvc = vsub.add_parser("construct", help="assemble the linear graph solution")
    pvc.add_argument("--config", required=True)
    pvc.add_argument("--lambda", **default_orders)
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
    pp.add_argument("--lambda", **default_orders)
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=_cmd_picard)

    psc = sub.add_parser("scaling-check", help="scaling-symmetry discrepancy")
    psc.add_argument("--config", required=True)
    psc.add_argument("--lam", action=_Numbers, required=True)
    psc.add_argument("--out")
    psc.set_defaults(func=_cmd_scaling)

    pac = sub.add_parser("accept", help="run the acceptance suite")
    pac.add_argument("--quick", action="store_true",
                     help="only the sub-minute criteria")
    pac.set_defaults(func=_cmd_accept)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return 2
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
