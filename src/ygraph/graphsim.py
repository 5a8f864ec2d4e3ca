"""Direct time-domain solver for KdV on the truncated Y-junction.

Three edges meet at x = 0: the incoming edge lives on [-L, 0], the two
outgoing edges on [0, L].  Interior nodes advance with Crank-Nicolson on the
centered third-derivative stencil; the four stencil deficiencies at the
vertex (two on the incoming edge, one on each outgoing edge, matching the
half-line boundary-condition count) are closed by the coupling relations in
a bordered linear system, so the discrete vertex conditions hold exactly at
every step.  The nonlinearity enters in conservative form d/dx(u^2/2) with
two-step Adams-Bashforth extrapolation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ContractError, DomainError, YGraphError
from .fracops import STENCILS, sampled_derivative, stencil_sum, vertex_limit
from .forcing import filon_tables
from .linops import GridFunction, Ladder, SpaceTimeField, duhamel_inhomog, \
    free_vertex_traces, group_multi, whole_steps
from .vertex import (COMPATIBILITY_TOL, VertexCoupling, CouplingKind,
                     LambdaVector, compatibility_deviation, solve_vertex)

BLOWUP_LIMIT = 1e6
MAX_PICARD_ITERS = 10
PICARD_TAPER_FRACTION = 0.15   # of the domain, at each end: picard_iterate


# ---------------------------------------------------------------------------
# initial profiles and scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialProfile:
    """Named analytic initial datum for one edge."""

    kind: str                  # zero | gaussian | soliton
    amplitude: float = 0.0
    center: float = 0.0
    width: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.center, self.width,
                                       self.c))):
            raise ContractError(f"profile parameters must be finite: {self}")
        if not self.width > 0:
            raise ContractError(f"profile width must be positive, got {self.width}")
        if self.kind == "soliton" and not self.c > 0:
            raise ContractError(f"soliton speed c must be positive, got {self.c}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "gaussian":
            return self.amplitude * np.exp(-((x - self.center) ** 2)
                                           / (2.0 * self.width ** 2))
        if self.kind == "soliton":
            arg = 0.5 * math.sqrt(self.c) * (x - self.center)
            return 3.0 * self.c / np.cosh(arg) ** 2
        raise DomainError(f"unknown profile kind {self.kind!r}")

    def scaled(self, lam: float) -> "InitialProfile":
        """Profile x -> lam^2 * f(lam x), exact for the supported kinds."""
        if self.kind == "zero":
            return self
        if self.kind == "gaussian":
            return InitialProfile("gaussian", amplitude=lam ** 2 * self.amplitude,
                                  center=self.center / lam, width=self.width / lam)
        raise DomainError(f"profile kind {self.kind!r} has no exact scaling")


ZERO_PROFILE = InitialProfile("zero")


@dataclass(frozen=True)
class ScenarioConfig:
    L: float = 50.0
    h: float = 0.05
    dt: float = 1e-3
    T: float = 1.0
    coupling: VertexCoupling = None
    mode: str = "linear"
    initial_u: InitialProfile = ZERO_PROFILE
    initial_v: InitialProfile = ZERO_PROFILE
    initial_w: InitialProfile = ZERO_PROFILE
    sponge_fraction: float = 0.0
    sponge_strength: float = 0.0

    def __post_init__(self):
        problems = self.validate()
        if problems:
            raise ContractError("; ".join(problems))

    def validate(self):
        problems = []
        if self.coupling is None:
            problems.append("coupling is required")
        ok = {}
        for name in ("L", "h", "dt", "T"):
            ok[name] = 0.0 < getattr(self, name) < math.inf
            if not ok[name]:
                problems.append(f"{name} must be positive and finite, "
                                f"got {getattr(self, name)}")
        if ok["L"] and ok["h"] and self.h > self.L / 100.0:
            problems.append(f"h must be <= L/100 = {self.L / 100.0:g}, got {self.h}")
        if ok["h"] and ok["dt"] and self.dt > self.h:
            problems.append(f"dt must be <= h = {self.h:g}, got {self.dt}")
        # the grid must end at L and the last step at T: no silent rounding
        for num, den in (("L", "h"), ("T", "dt")):
            if ok[num] and ok[den] and \
                    not whole_steps(getattr(self, num), getattr(self, den)):
                r = getattr(self, num) / getattr(self, den)
                problems.append(f"{num}/{den} = {r:.12g} must be a whole number")
        if self.mode not in ("linear", "nonlinear"):
            problems.append(f"mode must be linear|nonlinear, got {self.mode!r}")
        if not 0.0 <= self.sponge_fraction <= 0.3:
            problems.append("sponge_fraction must lie in [0, 0.3]")
        if not 0.0 <= self.sponge_strength < math.inf:
            problems.append("sponge_strength must be finite and >= 0")
        if self.coupling is not None:
            dev = compatibility_deviation(
                self.coupling, float(self.initial_u(0.0)),
                float(self.initial_v(0.0)), float(self.initial_w(0.0)))
            law = ("u0(0) = a2 v0(0) = a3 w0(0)" if self.coupling.kind is CouplingKind.TYPE1
                   else "u0(0) = a2 v0(0) + a3 w0(0)")
            if not dev <= COMPATIBILITY_TOL:
                problems.append(
                    f"type-{self.coupling.kind.value} initial data violate {law} "
                    f"by {dev:.2e} (tolerance {COMPATIBILITY_TOL:.0e})")
        return problems

    @property
    def n_edge(self) -> int:
        return int(round(self.L / self.h))

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


# ---------------------------------------------------------------------------
# state and trajectory containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphState:
    """Fields on the three edges at one time."""

    t: float
    u: GridFunction = field(repr=False)
    v: GridFunction = field(repr=False)
    w: GridFunction = field(repr=False)


def edge_mass(g: GridFunction) -> float:
    """Trapezoid integral of the squared field over the edge."""
    return float(np.trapezoid(np.abs(g.samples) ** 2, dx=g.spacing))


@dataclass(frozen=True)
class Trajectory:
    config: ScenarioConfig
    states: list = field(repr=False)
    diagnostics: dict = field(repr=False)

    def final(self) -> GraphState:
        return self.states[-1]


# ---------------------------------------------------------------------------
# solver assembly
# ---------------------------------------------------------------------------

def _edge_operators(n: int, h: float, dt: float, sigma: np.ndarray):
    """Crank-Nicolson triplets (rows, cols, A values, B values) of one edge.

    Rows 1..n-3 advance (1 + dt sigma/2 + dt/2 D3) u_new =
    (1 - dt sigma/2 - dt/2 D3) u_old, with the left-skewed second-order
    d^3/dx^3 stencil ``STENCILS["d3_near"]`` at node 1 and the centered
    ``"d3"`` elsewhere.  Node 0 and nodes n-2, n-1 are closed by boundary or
    vertex relations: one condition at the left (outflow) end of an edge, two
    at the right (inflow) end, matching the characteristic count of the
    third-order operator.
    """
    (oc, wc, cc), (o1, w1, c1) = STENCILS["d3"], STENCILS["d3_near"]
    pde = np.arange(1, n - 2)
    inner = np.arange(2, n - 2)
    rows = np.concatenate([pde, np.repeat(inner, len(oc)), np.full(len(o1), 1)])
    cols = np.concatenate([pde, (inner[:, None] + oc).ravel(), np.add(1, o1)])
    d3 = np.concatenate([np.tile(np.divide(wc, cc), inner.size),
                         np.divide(w1, c1)]) * (1.0 / h ** 3)
    a = np.concatenate([1.0 + 0.5 * dt * sigma[pde], 0.5 * dt * d3])
    b = np.concatenate([1.0 - 0.5 * dt * sigma[pde], -0.5 * dt * d3])
    return rows, cols, a, b


class GraphSystem:
    """Factorized Crank-Nicolson system for one scenario."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        n = config.n_edge + 1          # nodes per edge
        self.n = n
        h, dt = config.h, config.dt
        size = 3 * n
        off_u, off_v, off_w = 0, n, 2 * n
        self.offsets = (off_u, off_v, off_w)

        sigma = np.zeros(size)
        if config.sponge_strength > 0 and config.sponge_fraction > 0:
            width = config.sponge_fraction * config.L
            xu = -config.L + h * np.arange(n)
            ramp_u = np.clip((-(xu + config.L) + width) / width, 0.0, 1.0)
            sigma[off_u: off_u + n] = config.sponge_strength * ramp_u ** 3
            xv = h * np.arange(n)
            ramp_v = np.clip((xv - (config.L - width)) / width, 0.0, 1.0)
            for off in (off_v, off_w):
                sigma[off: off + n] = config.sponge_strength * ramp_v ** 3

        edges = [_edge_operators(n, h, dt, sigma[off: off + n])
                 for off in self.offsets]
        rows = np.concatenate([off + e[0] for off, e in zip(self.offsets, edges)])
        cols = np.concatenate([off + e[1] for off, e in zip(self.offsets, edges)])
        self.b = sp.coo_matrix((np.concatenate([e[3] for e in edges]),
                                (rows, cols)), shape=(size, size)).tocsr()

        # the vertex probe: row 3j + f holds the STENCILS entry d0, d1_end2
        # or d2_end (j = 0, 1, 2) of field f (u, v, w) at its vertex node, the
        # weights over the divisor, counted inward (towards -x on u); the
        # trace is that sum times trace_sign, over trace_h.  Rows 9..12
        # combine the scaled stencils into the coupling relations.
        firsts = ((off_u + n - 1, -1), (off_v, 1), (off_w, 1))
        probe = [(first + step * np.array(o), np.divide(w, c))
                 for o, w, c in map(STENCILS.get, ("d0", "d1_end2", "d2_end"))
                 for first, step in firsts]
        self.trace_sign = np.array([step ** j for j in range(3)
                                    for _, step in firsts])
        self.trace_h = np.array([h ** j for j in range(3) for _ in firsts])
        for _, j, coefs in config.coupling.relations():
            terms = [(pc, c * (pv * (step ** j / h ** j)))
                     for c, (pc, pv), (_, step) in zip(coefs, probe[3 * j:], firsts)
                     if c is not None]
            probe.append(tuple(np.concatenate(t) for t in zip(*terms)))
        sizes = [pc.size for pc, _ in probe]
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        p_cols = np.concatenate([pc for pc, _ in probe])
        p_vals = np.concatenate([pv for _, pv in probe])
        # built from index pointers, so each row sums in stencil order
        self.probe = sp.csr_matrix((p_vals, p_cols, indptr),
                                   shape=(len(probe), size))
        self.constraint_norms = np.array([np.linalg.norm(pv)
                                          for _, pv in probe[9:]])

        # outer ends: one condition at the outflow (left) end of the
        # incoming edge, value and slope at the inflow (right) ends; the
        # coupling relations close the four vertex rows
        ends = [off_u, off_v + n - 2, off_v + n - 1, off_w + n - 2, off_w + n - 1]
        vertex_rows = np.repeat([off_u + n - 2, off_u + n - 1, off_v, off_w],
                                sizes[9:])
        coupled = np.s_[indptr[9]:]
        a = sp.coo_matrix(
            (np.concatenate([e[2] for e in edges]
                            + [np.ones(len(ends)), p_vals[coupled]]),
             (np.concatenate([rows, ends, vertex_rows]),
              np.concatenate([cols, ends, p_cols[coupled]]))),
            shape=(size, size)).tocsc()
        try:
            self.lu = splu(a)
        except RuntimeError as exc:
            raise YGraphError(f"vertex-coupled system is singular: {exc}") from exc
        # condition estimate from the factorization diagonal
        diag = np.abs(self.lu.U.diagonal())
        self.condition_estimate = float(diag.max() / max(diag.min(), 1e-300))

    def nonlinear_term(self, x: np.ndarray) -> np.ndarray:
        """Conservative-form flux derivative d/dx(u^2/2), per edge.

        Filled on the Crank-Nicolson rows 1..n-3 only.  Fourth-order centered
        differences (``STENCILS["d1_4"]``) on interior nodes keep the
        nonlinear truncation error below the dispersive stencil's.
        """
        q, h, n = 0.5 * x.reshape(3, self.n) ** 2, self.config.h, self.n
        d = np.zeros_like(q)
        d[:, 2:-2] = stencil_sum("d1_4", q, 2, n - 2) / (STENCILS["d1_4"][2] * h)
        d[:, 1] = stencil_sum("d1", q, 1) / (STENCILS["d1"][2] * h)
        return d.ravel()


def _initial_samples(config: ScenarioConfig, h: float):
    """The u, v, w initial data at spacing h: u on [-L, 0], v and w on [0, L]."""
    xv = h * np.arange(int(round(config.L / h)) + 1)
    return (config.initial_u(-config.L + xv), config.initial_v(xv),
            config.initial_w(xv))


TRACE_KEYS = ("u0", "v0", "w0", "ux", "vx", "wx", "uxx", "vxx", "wxx")


def _flux_integrand(tr):
    """Right side density of the mass balance identity, one value per row
    of vertex traces in probe order."""
    u0, v0, w0, ux, vx, wx, uxx, vxx, wxx = tr.T
    return (ux ** 2 - vx ** 2 - wx ** 2 - 2.0 * u0 * uxx + 2.0 * v0 * vxx
            + 2.0 * w0 * wxx)


def evolve(config: ScenarioConfig, store_every: int = 1) -> Trajectory:
    """Advance the coupled edge fields to T; diagnostics every step, a
    state every ``store_every`` steps and at T."""
    if not store_every >= 1:
        raise DomainError(f"store_every must be >= 1, got {store_every}")
    system = GraphSystem(config)
    n, h, dt = system.n, config.h, config.dt
    x = np.concatenate(_initial_samples(config, h))
    n_steps = config.n_steps
    probes = np.empty((n_steps + 1, system.probe.shape[0]))
    masses = np.empty((n_steps + 1, 3))
    norms = np.empty(n_steps + 1)
    states = []

    def record(step, x):
        fields = x.reshape(3, n)
        probes[step] = system.probe @ x
        masses[step] = np.trapezoid(fields ** 2, dx=h, axis=1)
        norms[step] = np.linalg.norm(x)
        if step % store_every == 0 or step == n_steps:
            u, v, w = fields.copy()
            states.append(GraphState(t=step * dt, u=GridFunction(-config.L, h, u),
                                     v=GridFunction(0.0, h, v),
                                     w=GridFunction(0.0, h, w)))

    wall0 = time.perf_counter()
    record(0, x)
    nl_prev = None
    for step in range(1, n_steps + 1):
        rhs = system.b @ x
        if config.mode == "nonlinear":
            nl = system.nonlinear_term(x)
            rhs -= dt * (nl if nl_prev is None else 1.5 * nl - 0.5 * nl_prev)
            nl_prev = nl
        x = system.lu.solve(rhs)
        if not np.abs(x).max() <= BLOWUP_LIMIT:      # also catches NaN
            raise YGraphError(
                f"field blow-up at step {step} (t={step * dt:g}); "
                f"condition estimate {system.condition_estimate:.2e}")
        record(step, x)

    # the traces are linear in the state, so the mid-step traces of the
    # flux quadrature are the means of the end-of-step ones; the coupling
    # residual is the backward error |row . x| / (||row|| ||x||) of each
    # constraint row, independent of the trace magnitudes
    tr = probes[:, :9] * system.trace_sign / system.trace_h
    diag = {"t": dt * np.arange(n_steps + 1), "mass_u": masses[:, 0],
            "mass_v": masses[:, 1], "mass_w": masses[:, 2]}
    diag.update(zip(TRACE_KEYS, tr.T))
    diag["flux"] = np.concatenate(
        [[0.0], np.cumsum(dt * _flux_integrand(0.5 * (tr[:-1] + tr[1:])))])
    diag["flux_integrand"] = _flux_integrand(tr)
    diag["coupling_residual"] = (np.abs(probes[:, 9:]) / (
        system.constraint_norms * np.maximum(norms, 1e-300)[:, None])).max(axis=1)
    diag["wall_time"] = time.perf_counter() - wall0
    diag["condition_estimate"] = system.condition_estimate
    return Trajectory(config=config, states=states, diagnostics=diag)


# ---------------------------------------------------------------------------
# references and reports
# ---------------------------------------------------------------------------

def soliton_exact(c: float, x0: float, t: float, grid: GridFunction) -> GridFunction:
    """Traveling-wave reference 3c sech^2(sqrt(c)/2 (x - c t - x0))."""
    if not c > 0:
        raise DomainError("soliton speed c must be positive")
    arg = 0.5 * math.sqrt(c) * (grid.x - c * t - x0)
    return grid.with_samples(3.0 * c / np.cosh(arg) ** 2)


@dataclass(frozen=True)
class EnergyReport:
    times: np.ndarray
    mass_change: np.ndarray      # mass(t) - mass(0)
    flux: np.ndarray             # accumulated boundary flux
    flux_integrand: np.ndarray
    nonlinear_warning: bool

    @property
    def mismatch(self) -> np.ndarray:
        return self.mass_change - self.flux

    def worst_mismatch(self) -> float:
        return float(np.abs(self.mismatch).max())


def energy_report(traj: Trajectory) -> EnergyReport:
    """Discrete mass-balance bookkeeping for a linear-mode run.

    Nonlinear input only raises a warning flag; the identity is derived for
    the linear system.
    """
    d = traj.diagnostics
    total = d["mass_u"] + d["mass_v"] + d["mass_w"]
    return EnergyReport(times=d["t"], mass_change=total - total[0],
                        flux=d["flux"], flux_integrand=d["flux_integrand"],
                        nonlinear_warning=(traj.config.mode == "nonlinear"))


# ---------------------------------------------------------------------------
# scaling symmetry check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingReport:
    lam: float
    discrepancy_u: float
    discrepancy_v: float
    discrepancy_w: float

    @property
    def worst(self) -> float:
        return max(self.discrepancy_u, self.discrepancy_v, self.discrepancy_w)


def check_scale(lam: float):
    """Raise DomainError unless lam is a scale :func:`scaling_check` takes."""
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"lam must lie in (0, 1], got {lam}")


def scaling_check(config: ScenarioConfig, lam: float) -> ScalingReport:
    """Compare a run against its rescaled twin.

    Data x -> lam^2 u0(lam x) evolved to T/lam^3 on the grid stretched by
    1/lam (same per-feature resolution, exactly aligned nodes) must unscale
    onto the base run; the vertex relations are scale-invariant so the
    coupling passes through unchanged.
    """
    check_scale(lam)
    if lam == 1.0:
        evolve(config, store_every=max(config.n_steps, 1))
        return ScalingReport(lam=lam, discrepancy_u=0.0, discrepancy_v=0.0,
                             discrepancy_w=0.0)
    scaled_cfg = replace(
        config,
        L=config.L / lam, h=config.h / lam, T=config.T / lam ** 3,
        initial_u=config.initial_u.scaled(lam),
        initial_v=config.initial_v.scaled(lam),
        initial_w=config.initial_w.scaled(lam))
    base = evolve(config, store_every=max(config.n_steps, 1))
    scaled = evolve(scaled_cfg, store_every=max(scaled_cfg.n_steps, 1))

    fin_b = base.final()
    fin_s = scaled.final()

    def rel(a, b_):
        scale = max(float(np.linalg.norm(b_)), 1e-300)
        return float(np.linalg.norm(a - b_) / scale)

    out = []
    for eb, es in ((fin_b.u, fin_s.u), (fin_b.v, fin_s.v), (fin_b.w, fin_s.w)):
        out.append(rel(es.samples / lam ** 2, eb.samples))
    return ScalingReport(lam=lam, discrepancy_u=out[0], discrepancy_v=out[1],
                         discrepancy_w=out[2])


# ---------------------------------------------------------------------------
# Picard iteration of the integral-equation map
# ---------------------------------------------------------------------------

def whole_line_extension(edge: GridFunction, side: str,
                         grid: GridFunction) -> GridFunction:
    """Whole-line extension of a half-line datum.

    The datum continues by its second-order one-sided Taylor polynomial at
    the vertex under the taper exp(-x^4): C^2 matching, supported near the
    vertex, no spurious mass.  (A reflection such as Hestenes'
    6 f(-x) - 8 f(-2x) + 3 f(-3x) matches to the same order but plants
    amplitude-6..8 images of the datum that radiate, wrap around the
    periodized domain and excite spurious early vertex traces.)
    """
    x = grid.x
    vals = np.interp(x, edge.x, edge.samples, left=0.0, right=0.0)
    mask = (x > 0) if side == "left" else (x < 0)
    xm = x[mask]

    # one-sided value, slope and curvature at the vertex end: the last node
    # of a datum on [-L, 0], read by the mirrored STENCILS entries
    end, h = (-1 if side == "left" else 0), edge.spacing
    f0, f1, f2 = (stencil_sum(name, edge.samples, end, mirror=end < 0)
                  / (STENCILS[name][2] * h ** j)
                  for j, name in enumerate(("d0", "d1_end2", "d2_end")))
    poly = f0 + f1 * xm + 0.5 * f2 * xm ** 2
    vals[mask] = poly * np.exp(-(xm ** 2) ** 2)
    return grid.with_samples(vals)


def whole_line_data(config: ScenarioConfig, h: float,
                    grid: GridFunction) -> list:
    """Taylor whole-line extensions of the u, v, w initial data onto ``grid``,
    each edge sampled at spacing h."""
    u, v, w = _initial_samples(config, h)
    return [whole_line_extension(GridFunction(-config.L, h, u), "left", grid),
            whole_line_extension(GridFunction(0.0, h, v), "right", grid),
            whole_line_extension(GridFunction(0.0, h, w), "right", grid)]


def _spline_matrix(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(len(points), len(nodes)) matrix of not-a-knot cubic interpolation
    from ``nodes`` to ``points``: the spline scipy's CubicSpline builds, with
    its line for two nodes and its parabola for three, applied to each unit
    vector of node values."""
    x = np.asarray(nodes, dtype=float)
    n = x.size
    dx = np.diff(x)
    col = dx[:, None]
    slope = np.diff(np.eye(n), axis=0) / col
    if n == 2:
        s = np.vstack([slope, slope])
    else:
        # node slopes s from a s = b: C^2 at the inner nodes, plus end rows
        a = np.zeros((n, n))
        b = np.empty((n, n))
        i = np.arange(1, n - 1)
        a[i, i - 1], a[i, i], a[i, i + 1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
        b[1:-1] = 3.0 * (col[1:] * slope[:-1] + col[:-1] * slope[1:])
        if n == 3:          # both end conditions coincide: the parabola
            a[0, :2] = a[2, 1:] = 1.0
            b[0], b[2] = 2.0 * slope
        else:               # one cubic over the first two and the last two intervals
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            a[0, :2] = dx[1], d0
            a[-1, -2:] = d1, dx[-2]
            b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
            b[-1] = (dx[-1] ** 2 * slope[-2]
                     + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        s = np.linalg.solve(a, b)
    # Hermite coefficients per interval, in powers of (t - x_k)
    t = (s[:-1] + s[1:] - 2.0 * slope) / col
    c3, c2, c1, c0 = t / col, (slope - s[:-1]) / col - t, s[:-1], np.eye(n)[:-1]
    pts = np.asarray(points, dtype=float)
    k = np.clip(np.searchsorted(x, pts, side="right") - 1, 0, n - 2)
    z = (pts - x[k])[:, None]
    return ((c3[k] * z + c2[k]) * z + c1[k]) * z + c0[k]


@dataclass(frozen=True)
class PicardResult:
    distances: np.ndarray        # sup distance between consecutive iterates
    diverged: bool
    final: tuple                 # (u, v, w) SpaceTimeFields on the whole line
    times: np.ndarray


def picard_iterate(config: ScenarioConfig, lam: LambdaVector,
                   n_iter: int = 6) -> PicardResult:
    """Iterate the integral-equation map on whole-line fields.

    Each pass recomputes the inhomogeneous Duhamel term from the previous
    iterate's nonlinearity, re-solves the vertex system for the boundary
    traces and re-assembles the forcing superposition.  The output ladder is
    :meth:`linops.Ladder.over`'s default.  Vertex traces are
    sampled every config.dt: the Duhamel term's traces move from the output
    ladder to that trace ladder by one not-a-knot cubic interpolation
    matrix.  It and the :class:`linops.Ladder`'s Filon tables are built once
    per call, the free flows' output phases and the Filon powers from one
    trace phase pair; the Duhamel term integrates each output step exactly
    for the flux linear in time (:func:`linops.duhamel_inhomog`), the cell
    rule of the Filon tables at the output step.  The nonlinear input to
    the group is tapered over the outer :data:`PICARD_TAPER_FRACTION` of the
    domain so the construction's slow polynomial tails cannot seed wrap-around.
    """
    if not 1 <= n_iter <= MAX_PICARD_ITERS:
        raise DomainError(f"n_iter must lie in 1..{MAX_PICARD_ITERS}, got {n_iter}")
    if config.T > 0.5 + 1e-12:
        raise DomainError("the iteration map is built for T <= 0.5")
    h = config.h
    L = config.L
    grid = GridFunction(-L, h, np.zeros(2 * config.n_edge + 1))
    ladder = Ladder.over(grid, config.T, config.dt)
    ladder.pair = ladder.phase_pair()
    ladder.filon = filon_tables(ladder)

    spline = _spline_matrix(ladder.times, ladder.trace)
    exts = whole_line_data(config, h, grid)
    free_fields = [group_multi(e, ladder.times, 1e-5, ladder).levels for e in exts]
    free_tr = free_vertex_traces(exts, ladder)
    ladder.pair = None

    taper = np.ones(len(grid))
    wlen = int(PICARD_TAPER_FRACTION * len(grid))      # >= 30: h <= L/100
    ramp = 0.5 * (1.0 - np.cos(math.pi * np.arange(wlen) / wlen))
    taper[:wlen] = ramp
    taper[-wlen:] = ramp[::-1]

    # the physical edges, each including the vertex node
    i0 = grid.index_of_zero()
    edges = (np.s_[:, :i0 + 1], np.s_[:, i0:], np.s_[:, i0:])
    nonlinear = config.mode == "nonlinear"
    current = free_fields
    distances = []

    for _ in range(n_iter):
        base, traces = free_fields, free_tr
        if nonlinear:
            base, k_tr = [], [[], [], []]
            for lvls, free in zip(current, free_fields):
                flux = lvls * sampled_derivative(lvls, h, 1)
                flux *= taper
                wfield = SpaceTimeField(-L, h, ladder.out_dt, flux)
                kf = -duhamel_inhomog(wfield, decay_tol=1e-3).levels
                base.append(free + kf)
                for j in range(3):
                    vals = vertex_limit(kf, i0, h, "centered", j)
                    k_tr[j].append(spline @ vals)
            del flux, wfield, kf    # not held through the vertex solve
            traces = [[f + k for f, k in zip(fj, kj)] for fj, kj in zip(free_tr, k_tr)]

        _, _, new = solve_vertex(config.coupling, lam, traces, base, ladder)

        # contraction metric on the physical edges
        d = max(np.abs(nw - cur)[edge].max()
                for nw, cur, edge in zip(new, current, edges))
        distances.append(d)
        current = new
        diverged = bool(len(distances) >= 2 and distances[-1] > distances[-2]
                        and distances[-1] > 1e-12)
        if diverged:
            break

    final = tuple(SpaceTimeField(-L, h, ladder.out_dt, lv) for lv in current)
    return PicardResult(distances=np.asarray(distances), diverged=diverged,
                        final=final, times=ladder.times)
