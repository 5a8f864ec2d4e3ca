"""Acceptance suite: one callable per criterion, shared by pytest and the CLI.

Each criterion pins its tolerance up front and reports the measured number
so a failure is immediately diagnosable.  Everything runs at desk scale;
the full suite takes well under its per-criterion runtime budgets.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .specfun import airy_scaled, airy_scaled_deriv, gamma_fn
from .fracops import TimeTrace, riemann_liouville
from .linops import GridFunction
from .forcing import (SMOOTH_FIT_WINDOW, duhamel_forcing, forcing_class,
                      minus_trace_factor, plus_trace_factor,
                      spectral_forcing_field, one_sided_limits)
from .vertex import (VertexCoupling, LambdaVector, build_matrix,
                     det_m, closed_form_det, anchor_lambda,
                     assemble_linear_solution, verify_vertex_conditions,
                     STARTUP_WINDOW, VERTEX_RESIDUAL_TOL)
from .graphsim import (ScenarioConfig, InitialProfile, evolve, soliton_exact,
                       energy_report, picard_iterate, scaling_check,
                       edge_mass)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0
    metrics: dict = field(default_factory=dict)
    skipped: bool = False


def _result(name, passed, detail, t0, **metrics):
    return CriterionResult(name=name, passed=bool(passed), detail=detail,
                           seconds=time.perf_counter() - t0, metrics=metrics)


def _test_trace(dt=1e-3, T=1.0):
    t = dt * np.arange(int(round(T / dt)) + 1)
    return TimeTrace(dt, t ** 2 * np.exp(-t))


# -- 1 ----------------------------------------------------------------------

def criterion_airy_anchors():
    t0 = time.perf_counter()
    a0 = 1.0 / (3.0 * gamma_fn(2.0 / 3.0))
    ap0 = -1.0 / (3.0 * gamma_fn(1.0 / 3.0))
    ea = abs(airy_scaled(0.0) - a0)
    eap = abs(airy_scaled_deriv(0.0) - ap0)
    ok = ea <= 1e-9 and eap <= 1e-9
    return _result("1 kernel anchor values", ok,
                   f"|A(0) err|={ea:.2e}, |A'(0) err|={eap:.2e} (tol 1e-9)",
                   t0, a_err=ea, ap_err=eap)


# -- 2 ----------------------------------------------------------------------

def criterion_fractional_semigroup():
    t0 = time.perf_counter()
    f = _test_trace()
    lhs = riemann_liouville(riemann_liouville(f, 2.0 / 3.0), 1.0 / 3.0)
    rhs = riemann_liouville(f, 1.0)
    err = float(np.abs(lhs.samples - rhs.samples).max()
                / np.abs(f.samples).max())
    ok = err <= 1e-5
    return _result("2 fractional semigroup", ok,
                   f"sup|I13 I23 f - I1 f|/sup|f| = {err:.2e} (tol 1e-5)",
                   t0, err=err)


# -- 3 ----------------------------------------------------------------------

def criterion_forcing_trace_laws():
    t0 = time.perf_counter()
    g = _test_trace()
    t = g.times
    h = 0.05
    grid = GridFunction(-30.0, h, np.zeros(int(round(45.0 / h)) + 1))
    times = np.round(np.arange(0.0, 1.0001, 0.1), 10)
    mask = times >= 0.1
    gt = np.interp(times, t, g.samples)
    i0 = grid.index_of_zero()

    v = duhamel_forcing(g, grid, times, method="simpson")
    err_v = float(np.abs(v.levels[mask, i0] - gt[mask]).max()
                  / np.abs(gt[mask]).max())

    worst_minus = worst_plus = 0.0
    for lam in (0.1, 0.25, 0.4):
        fm = forcing_class(lam, "minus", g, grid, times)
        fp = forcing_class(lam, "plus", g, grid, times)
        ref_m = minus_trace_factor(lam) * gt[mask]
        ref_p = plus_trace_factor(lam) * gt[mask]
        worst_minus = max(worst_minus, float(
            np.abs(fm.levels[mask, i0] - ref_m).max() / np.abs(ref_m).max()))
        worst_plus = max(worst_plus, float(
            np.abs(fp.levels[mask, i0] - ref_p).max() / np.abs(gt[mask]).max()))
    ok = err_v <= 1e-3 and worst_minus <= 5e-3 and worst_plus <= 5e-3
    return _result("3 forcing trace laws", ok,
                   f"Vg {err_v:.2e} (tol 1e-3); minus {worst_minus:.2e}, "
                   f"plus {worst_plus:.2e} (tol 5e-3)",
                   t0, base=err_v, minus=worst_minus, plus=worst_plus)


# -- 4 ----------------------------------------------------------------------

def criterion_jump_sizes():
    t0 = time.perf_counter()
    g = _test_trace()
    t = g.times
    i13 = riemann_liouville(g, -1.0 / 3.0)
    h = 0.0125
    grid = GridFunction(-20.0, h, np.zeros(int(round(30.0 / h)) + 1))
    times = np.round(np.arange(0.0, 1.0001, 0.1), 10)
    # d/dx of the companion operator = second derivative of V I_{1/3} g
    fld = spectral_forcing_field(i13, grid, times, deriv=2, window="smooth")
    worst_l = worst_r = 0.0
    for tev in (0.3, 0.5, 0.8):
        ref = np.interp(tev, t, i13.samples)
        left, right = one_sided_limits(fld, tev, fit_window=SMOOTH_FIT_WINDOW)
        worst_l = max(worst_l, abs(left + 2.0 * ref) / abs(2.0 * ref))
        worst_r = max(worst_r, abs(right - ref) / abs(ref))
    ok = worst_l <= 2e-2 and worst_r <= 2e-2
    return _result("4 companion-operator jump", ok,
                   f"left-limit rel {worst_l:.2e}, right-limit rel "
                   f"{worst_r:.2e} (tol 2e-2)", t0, left=worst_l, right=worst_r)


# -- 5 ----------------------------------------------------------------------

def criterion_determinant_anchors():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(50):
        a2, a3 = rng.uniform(0.5, 3.0, 2)
        b2, b3 = rng.uniform(-2.0, 2.0, 2)
        eps = rng.uniform(0.02, 0.45)
        for branch in ("low", "high"):
            lam = anchor_lambda(branch, eps)
            for make in (VertexCoupling.special_type1,
                         VertexCoupling.special_type2):
                d = det_m(build_matrix(make(a2, a3, b2, b3), lam))
                ref = closed_form_det(a2, a3, b2, b3, eps, branch)
                worst = max(worst, abs(d - ref) / max(abs(ref), 1e-30))
    # excluded-hypothesis boundary: factor 1 + 1/a2^2 + 1/a3^2 + b3/a3 + b2/a2 = 0
    degen = VertexCoupling.special_type1(1.0, 1.0, -1.5, -1.5)
    dz = abs(det_m(build_matrix(degen, anchor_lambda("low", 0.1))))
    ok = worst <= 1e-10 and dz <= 1e-10
    return _result("5 determinant anchors", ok,
                   f"worst rel dev {worst:.2e} over 200 draws (tol 1e-10); "
                   f"degenerate |det| {dz:.2e}", t0, worst=worst, degenerate=dz)


# -- 6 ----------------------------------------------------------------------

def criterion_linear_construction():
    t0 = time.perf_counter()
    c1 = VertexCoupling.special_type1(1.0, 1.0, 0.0, 0.0)
    lam = LambdaVector(0.05, 0.3, 0.05, 0.05, s=0.0)
    h = 0.00625
    gx = np.arange(-40.0, 40.0, h)
    u0 = GridFunction(gx[0], h, 1.0 * np.exp(-((gx + 8.0) ** 2) / (2 * 1.2 ** 2)))
    v0 = GridFunction(gx[0], h, 0.7 * np.exp(-((gx - 7.0) ** 2) / (2 * 1.1 ** 2)))
    w0 = GridFunction(gx[0], h, 0.5 * np.exp(-((gx - 9.0) ** 2) / (2 * 1.3 ** 2)))
    sol = assemble_linear_solution(u0, v0, w0, c1, lam, T=0.5, n_levels=26,
                                   trace_dt=1e-3)
    rep = verify_vertex_conditions(sol)
    worst = rep.worst_relative()
    ok = worst <= VERTEX_RESIDUAL_TOL
    return _result("6 construction meets vertex conditions", ok,
                   f"worst relative residual {worst:.2e} on t in "
                   f"[{STARTUP_WINDOW:g},0.5] (tol 2e-2)", t0, worst=worst,
                   imag=sol.imag_residual())


# -- 7 ----------------------------------------------------------------------

def criterion_energy_identity():
    t0 = time.perf_counter()
    beta = VertexCoupling.special_type1(1.0, 1.0, 0.5, 0.5)
    cfg = ScenarioConfig(L=50.0, h=0.05, dt=1e-3, T=1.0, coupling=beta,
                         mode="linear",
                         initial_v=InitialProfile("gaussian", amplitude=1.0,
                                                  center=6.0, width=0.9),
                         initial_w=InitialProfile("gaussian", amplitude=0.6,
                                                  center=8.0, width=1.0))
    traj = evolve(cfg, store_every=cfg.n_steps)
    d = traj.diagnostics
    total = d["mass_u"] + d["mass_v"] + d["mass_w"]
    rep = energy_report(traj)
    mismatch = rep.worst_mismatch() / total[0]
    drift = float(np.diff(total).max() / total[0])

    zero_beta = VertexCoupling.special_type1(1.0, 1.0, 0.0, 0.0)
    cfg0 = ScenarioConfig(L=50.0, h=0.05, dt=1e-3, T=1.0, coupling=zero_beta,
                          mode="linear",
                          initial_v=InitialProfile("gaussian", amplitude=1.0,
                                                   center=6.0, width=0.9))
    traj0 = evolve(cfg0, store_every=cfg0.n_steps)
    flux_max = float(traj0.diagnostics["flux_integrand"].max())
    ok = mismatch <= 5e-3 and drift <= 1e-6 and flux_max <= 1e-12
    return _result("7 energy identity and dissipativity", ok,
                   f"balance {mismatch:.2e} (tol 5e-3); worst step mass "
                   f"increase {drift:.1e} (tol 1e-6); beta=0 max flux "
                   f"{flux_max:.1e} (<= 0 required)", t0,
                   mismatch=mismatch, drift=drift, flux_max=flux_max)


# -- 8 ----------------------------------------------------------------------

def _soliton_error(h, dt):
    cb = VertexCoupling.special_type1(1.0, 1.0, 0.0, 0.0)
    cfg = ScenarioConfig(L=50.0, h=h, dt=dt, T=1.0, coupling=cb,
                         mode="nonlinear",
                         initial_u=InitialProfile("soliton", center=-25.0, c=4.0))
    traj = evolve(cfg, store_every=cfg.n_steps)
    fin = traj.final()
    ref = soliton_exact(4.0, -25.0, 1.0, fin.u)
    return float(np.linalg.norm(fin.u.samples - ref.samples)
                 / np.linalg.norm(ref.samples))


def criterion_soliton_benchmark():
    t0 = time.perf_counter()
    e_default = _soliton_error(0.05, 1e-3)
    e_half = _soliton_error(0.025, 5e-4)
    ratio = e_default / e_half
    ok = e_default <= 1e-2 and ratio >= 3.0
    return _result("8 soliton benchmark", ok,
                   f"rel L2 err {e_default:.2e} (tol 1e-2); halved-grid "
                   f"improvement {ratio:.2f}x (need >= 3)", t0,
                   err=e_default, ratio=ratio)


# -- 9 ----------------------------------------------------------------------

def criterion_scaling_symmetry():
    t0 = time.perf_counter()
    cb = VertexCoupling.special_type1(1.0, 1.0, 0.0, 0.0)
    lin = ScenarioConfig(L=25.0, h=0.05, dt=1e-3, T=0.4, coupling=cb,
                         mode="linear",
                         initial_v=InitialProfile("gaussian", amplitude=0.5,
                                                  center=5.0, width=0.8))
    rep_l = scaling_check(lin, 0.5)
    nl = ScenarioConfig(L=25.0, h=0.05, dt=1e-3, T=0.4, coupling=cb,
                        mode="nonlinear",
                        initial_u=InitialProfile("gaussian", amplitude=0.8,
                                                 center=-6.0, width=0.9))
    rep_n = scaling_check(nl, 0.5)
    ok = rep_l.worst <= 1e-2 and rep_n.worst <= 3e-2
    return _result("9 scaling symmetry", ok,
                   f"linear {rep_l.worst:.2e} (tol 1e-2), nonlinear "
                   f"{rep_n.worst:.2e} (tol 3e-2) at lam=0.5", t0,
                   linear=rep_l.worst, nonlinear=rep_n.worst)


# -- 10 ---------------------------------------------------------------------

def _picard_config():
    cb = VertexCoupling.special_type1(1.0, 1.0, 0.0, 0.0)
    return ScenarioConfig(
        L=25.0, h=0.05, dt=1e-3, T=0.5, coupling=cb, mode="nonlinear",
        initial_u=InitialProfile("gaussian", amplitude=0.05, center=-6.0, width=1.0),
        initial_v=InitialProfile("gaussian", amplitude=0.05, center=6.0, width=1.0),
        initial_w=InitialProfile("gaussian", amplitude=0.04, center=7.0, width=1.0))


def criterion_picard_contraction():
    t0 = time.perf_counter()
    cfg = _picard_config()
    lam = LambdaVector(0.05, 0.3, 0.05, 0.05, s=0.0)
    res = picard_iterate(cfg, lam, n_iter=5)
    ratios = [res.distances[i + 1] / res.distances[i]
              for i in range(min(3, len(res.distances) - 1))]
    worst_ratio = max(ratios)
    traj = evolve(cfg, store_every=cfg.n_steps)
    fin = traj.final()
    u_f, v_f, w_f = res.final
    x = u_f.x
    iu, iv = x <= 0, x >= 0
    tot = math.sqrt(sum(np.linalg.norm(g.samples) ** 2
                        for g in (fin.u, fin.v, fin.w)))
    dev = max(
        float(np.linalg.norm(u_f.levels[-1][iu] - fin.u.samples)) / tot,
        float(np.linalg.norm(v_f.levels[-1][iv] - fin.v.samples)) / tot,
        float(np.linalg.norm(w_f.levels[-1][iv] - fin.w.samples)) / tot)
    ok = worst_ratio <= 0.5 and dev <= 5e-2 and not res.diverged
    return _result("10 fixed-point contraction", ok,
                   f"worst contraction ratio {worst_ratio:.3f} (tol 0.5); "
                   f"fixed point vs direct solver {dev:.2e} (tol 5e-2)", t0,
                   ratio=worst_ratio, deviation=dev)


# -- 11 ---------------------------------------------------------------------

def criterion_lipschitz_probe():
    t0 = time.perf_counter()
    cfg = _picard_config()
    bump = InitialProfile("gaussian", amplitude=1.0, center=5.0, width=0.8)
    xv = cfg.h * np.arange(cfg.n_edge + 1)
    bump_vals = bump(xv)
    bump_l2 = math.sqrt(float(np.trapezoid(bump_vals ** 2, dx=cfg.h)))

    base = evolve(cfg, store_every=cfg.n_steps).final()

    def solution_distance(delta):
        # perturb the v edge by a fixed-shape bump scaled to data-distance delta
        scale = delta / bump_l2
        pert = replace(cfg, initial_v=lambda x: cfg.initial_v(x) + scale * bump(x))
        fin = evolve(pert, store_every=pert.n_steps).final()
        return math.sqrt(
            edge_mass(fin.u.with_samples(fin.u.samples - base.u.samples))
            + edge_mass(fin.v.with_samples(fin.v.samples - base.v.samples))
            + edge_mass(fin.w.with_samples(fin.w.samples - base.w.samples)))

    ratios = []
    for delta in (1e-2, 1e-3):
        ratios.append(solution_distance(delta) / delta)
    spread = max(ratios) / min(ratios)
    ok = spread <= 2.0
    return _result("11 Lipschitz data-to-solution probe", ok,
                   f"distance ratios {ratios[0]:.3f}, {ratios[1]:.3f}; "
                   f"spread {spread:.2f}x (tol 2x)", t0,
                   ratios=ratios, spread=spread)


# ---------------------------------------------------------------------------

ALL_CRITERIA = [
    ("1 kernel anchor values", criterion_airy_anchors),
    ("2 fractional semigroup", criterion_fractional_semigroup),
    ("3 forcing trace laws", criterion_forcing_trace_laws),
    ("4 companion-operator jump", criterion_jump_sizes),
    ("5 determinant anchors", criterion_determinant_anchors),
    ("6 construction meets vertex conditions", criterion_linear_construction),
    ("7 energy identity and dissipativity", criterion_energy_identity),
    ("8 soliton benchmark", criterion_soliton_benchmark),
    ("9 scaling symmetry", criterion_scaling_symmetry),
    ("10 fixed-point contraction", criterion_picard_contraction),
    ("11 Lipschitz data-to-solution probe", criterion_lipschitz_probe),
]

QUICK_SKIP = {"6 construction meets vertex conditions",
              "10 fixed-point contraction",
              "11 Lipschitz data-to-solution probe"}


def run_all(quick: bool = False):
    results = []
    for name, fn in ALL_CRITERIA:
        if quick and name in QUICK_SKIP:
            results.append(CriterionResult(name=name, passed=True,
                                           detail="skipped (--quick)",
                                           skipped=True))
        else:
            results.append(fn())
    return results
