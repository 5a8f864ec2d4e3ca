"""Direct graph solver: stability, coupling, mass accounting, references."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline   # the reference only

from ygraph import forcing, graphsim, linops
from ygraph.errors import ContractError, DomainError, YGraphError
from ygraph.fracops import STENCILS, stencil_sum
from ygraph.linops import GridFunction, Ladder, group_multi
from ygraph.vertex import (CouplingKind, LambdaVector, VertexCoupling,
                           assemble_linear_solution, verify_vertex_conditions)
from ygraph.graphsim import (InitialProfile, ScenarioConfig, _spline_matrix,
                             edge_mass, energy_report, evolve, picard_iterate,
                             scaling_check, soliton_exact, whole_line_data,
                             whole_line_extension)

CB0 = VertexCoupling.special_type1(1.0, 1.0, 0.0, 0.0)
CB2 = VertexCoupling.special_type2(1.0, 1.0, 0.5, 0.5)


def small_config(**kw):
    base = dict(L=20.0, h=0.1, dt=0.05, T=0.5, coupling=CB0, mode="linear")
    base.update(kw)
    return ScenarioConfig(**base)


class TestConfig:
    def test_defaults_and_counts(self):
        cfg = ScenarioConfig(coupling=CB0)
        assert (cfg.L, cfg.h, cfg.dt, cfg.T) == (50.0, 0.05, 1e-3, 1.0)
        assert cfg.n_edge == 1000
        assert cfg.n_steps == 1000

    @pytest.mark.parametrize("kw,frag", [
        (dict(h=1.0), "L/100"),
        (dict(dt=0.2, h=0.1), "dt must be <= h"),
        (dict(mode="implicit"), "mode"),
        (dict(sponge_fraction=0.5), "sponge_fraction"),
        (dict(sponge_strength=-1.0), "sponge_strength"),
        (dict(L=math.inf), "L must be positive and finite"),
        (dict(h=math.nan), "h must be positive and finite"),
        (dict(dt=math.inf), "dt must be positive and finite"),
        (dict(T=math.nan), "T must be positive and finite"),
        (dict(sponge_strength=math.inf), "sponge_strength"),
        (dict(sponge_strength=math.nan), "sponge_strength"),
        (dict(L=20.01), "L/h"),
        (dict(T=0.1, dt=0.03), "T/dt"),
    ])
    def test_invariant_violations(self, kw, frag):
        with pytest.raises(ContractError, match=frag):
            small_config(**kw)

    def test_type1_compatibility_gate(self):
        with pytest.raises(ContractError, match="a2 v0"):
            small_config(initial_u=InitialProfile("gaussian", amplitude=1.0,
                                                  center=0.0, width=2.0))

    def test_type2_compatibility_gate(self):
        # u0(0) = 0.5 e^{-4.5} against v0(0) + w0(0) = 0: off by 5.6e-3
        with pytest.raises(ContractError, match=r"type-2 .* u0\(0\) = a2 v0\(0\) \+ a3 w0\(0\)"):
            small_config(coupling=CB2, initial_u=InitialProfile(
                "gaussian", amplitude=0.5, center=-3.0, width=1.0))
        # the same u with a mirrored v meets it, and so does nearly-zero data
        small_config(coupling=CB2,
                     initial_u=InitialProfile("gaussian", amplitude=0.5, center=-3.0),
                     initial_v=InitialProfile("gaussian", amplitude=0.5, center=3.0))
        small_config(coupling=CB2,
                     initial_u=InitialProfile("gaussian", amplitude=0.5, center=-6.0))

    def test_profile_kinds(self):
        x = np.array([-1.0, 0.0, 1.0])
        assert np.all(InitialProfile("zero")(x) == 0.0)
        sol = InitialProfile("soliton", center=0.0, c=4.0)
        assert sol(np.array([0.0]))[0] == pytest.approx(12.0)
        with pytest.raises(DomainError):
            InitialProfile("spike")(x)

    @pytest.mark.parametrize("kw,frag", [
        (dict(kind="gaussian", amplitude=math.inf), "finite"),
        (dict(kind="gaussian", center=math.nan), "finite"),
        (dict(kind="gaussian", width=-math.inf), "finite"),
        (dict(kind="soliton", c=math.inf), "finite"),
        (dict(kind="gaussian", width=0.0), "width must be positive"),
        (dict(kind="gaussian", width=-1.0), "width must be positive"),
        (dict(kind="soliton", c=0.0), "c must be positive"),
        (dict(kind="soliton", c=-1.0), "c must be positive"),
    ])
    def test_profile_parameter_limits(self, kw, frag):
        with pytest.raises(ContractError, match=frag):
            InitialProfile(**kw)


def test_zero_data_zero_trajectory():
    traj = evolve(small_config(), store_every=5)
    assert all(edge_mass(st.u) + edge_mass(st.v) + edge_mass(st.w) == 0.0
               for st in traj.states)


@pytest.mark.parametrize("store_every", [0, -1])
def test_store_every_must_be_positive(store_every):
    with pytest.raises(DomainError, match="store_every"):
        evolve(small_config(), store_every=store_every)


def _vertex_traces(u, v, w, h):
    """u0, v0, w0, ux, vx, wx, uxx, vxx, wxx of edge samples by the one-sided
    stencils d0, d1_end2 and d2_end at each edge's vertex node (mirrored on
    u, whose vertex is its last node)."""
    ends = [(u, -1, True), (v, 0, False), (w, 0, False)]
    return [stencil_sum(name, f, i, mirror=m) / (STENCILS[name][2] * h ** j)
            for j, name in enumerate(("d0", "d1_end2", "d2_end")) for f, i, m in ends]


def _flux_density(tr):
    u0, v0, w0, ux, vx, wx, uxx, vxx, wxx = np.asarray(tr).T
    return ux ** 2 - vx ** 2 - wx ** 2 - 2 * u0 * uxx + 2 * v0 * vxx + 2 * w0 * wxx


@pytest.mark.parametrize("store_every", [1, 7])
def test_step_diagnostics_match_stored_states(store_every):
    cfg = ScenarioConfig(
        L=20.0, h=0.1, dt=0.01, T=0.5, coupling=CB2, mode="nonlinear",
        sponge_fraction=0.2, sponge_strength=3.0,
        # type-2 data must meet u0(0) = v0(0) + w0(0): u and v mirror each other
        initial_u=InitialProfile("gaussian", amplitude=0.5, center=-3.0, width=1.0),
        initial_v=InitialProfile("gaussian", amplitude=0.5, center=3.0, width=1.0),
        initial_w=InitialProfile("gaussian", amplitude=0.3, center=7.0, width=1.0))
    traj = evolve(cfg, store_every=store_every)
    d = traj.diagnostics
    # stored at every store_every-th step and at T: 50 % 7 != 0 adds step 50
    steps = sorted(set(range(0, cfg.n_steps + 1, store_every)) | {cfg.n_steps})
    assert [st.t for st in traj.states] == [k * cfg.dt for k in steps]
    assert traj.states[-1].t == pytest.approx(cfg.T, rel=1e-15)
    assert d["t"].shape == (cfg.n_steps + 1,)

    samples = np.array([[st.u.samples, st.v.samples, st.w.samples]
                        for st in traj.states])
    want = np.array([_vertex_traces(*s, cfg.h) for s in samples])
    keys = ("u0", "v0", "w0", "ux", "vx", "wx", "uxx", "vxx", "wxx")
    got = np.stack([d[k][steps] for k in keys], axis=1)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=0))
    if store_every == 1:
        # the flux is the step sum of dt * F at the mid-step state
        mid = [_vertex_traces(*(0.5 * (a + b)), cfg.h)
               for a, b in zip(samples[:-1], samples[1:])]
        flux = np.concatenate([[0.0], np.cumsum(cfg.dt * _flux_density(mid))])
        assert np.abs(d["flux"] - flux).max() <= 1e-12 * np.abs(flux).max()
        assert np.abs(d["flux_integrand"] - _flux_density(want)).max() <= \
            1e-12 * np.abs(_flux_density(want)).max()
    assert d["coupling_residual"][1:].max() <= 1e-10


@pytest.fixture(scope="module")
def linear_run():
    beta = VertexCoupling.special_type1(1.0, 1.0, 0.5, 0.5)
    cfg = ScenarioConfig(L=50.0, h=0.05, dt=1e-3, T=1.0, coupling=beta,
                         mode="linear",
                         initial_v=InitialProfile("gaussian", amplitude=1.0,
                                                  center=6.0, width=0.9),
                         initial_w=InitialProfile("gaussian", amplitude=0.6,
                                                  center=8.0, width=1.0))
    return evolve(cfg, store_every=cfg.n_steps)


class TestLinearRun:
    def test_mass_never_increases(self, linear_run):
        d = linear_run.diagnostics
        total = d["mass_u"] + d["mass_v"] + d["mass_w"]
        assert np.diff(total).max() <= 1e-6 * total[0]

    def test_energy_identity(self, linear_run):
        rep = energy_report(linear_run)
        st0 = linear_run.states[0]
        total0 = edge_mass(st0.u) + edge_mass(st0.v) + edge_mass(st0.w)
        assert rep.worst_mismatch() <= 5e-3 * total0
        assert not rep.nonlinear_warning

    def test_coupling_residual(self, linear_run):
        assert linear_run.diagnostics["coupling_residual"].max() <= 1e-10

    def test_flux_sign_with_zero_beta(self):
        cfg = ScenarioConfig(L=50.0, h=0.05, dt=1e-3, T=0.5, coupling=CB0,
                             mode="linear",
                             initial_v=InitialProfile("gaussian", amplitude=1.0,
                                                      center=6.0, width=0.9))
        traj = evolve(cfg, store_every=cfg.n_steps)
        assert traj.diagnostics["flux_integrand"].max() <= 1e-12

    def test_nonlinear_energy_report_flags(self):
        cfg = ScenarioConfig(L=20.0, h=0.1, dt=0.05, T=0.25, coupling=CB0,
                             mode="nonlinear",
                             initial_u=InitialProfile("gaussian", amplitude=0.1,
                                                      center=-10.0, width=1.0))
        rep = energy_report(evolve(cfg, store_every=5))
        assert rep.nonlinear_warning


class TestSoliton:
    def test_peak_amplitude(self):
        h = 0.05
        grid = GridFunction(-50.0, h, np.zeros(1001))
        prof = soliton_exact(4.0, -25.0, 0.0, grid)
        assert prof.samples.max() == pytest.approx(12.0, rel=1e-6)

    def test_translation_identity(self):
        h = 0.05
        grid = GridFunction(-50.0, h, np.zeros(2001))
        a = soliton_exact(2.0, -20.0, 0.7, grid)
        b = soliton_exact(2.0, -20.0 + 2.0 * 0.3, 0.4, grid)
        assert np.abs(a.samples - b.samples).max() <= 1e-12

    def test_mass_invariance(self):
        h = 0.02
        grid = GridFunction(-80.0, h, np.zeros(int(160 / h) + 1))
        masses = [edge_mass(soliton_exact(1.5, -30.0, t, grid))
                  for t in (0.0, 1.0, 2.0)]
        assert max(masses) - min(masses) <= 1e-10

    def test_pde_residual_of_ansatz(self):
        # symbolic derivatives of 3c sech^2(kappa (x - c t)) cancel exactly
        c = 2.0
        kappa = 0.5 * math.sqrt(c)
        x = np.arange(-15.0, 15.0, 0.05)
        s = 1.0 / np.cosh(kappa * x)
        tau = np.tanh(kappa * x)
        u = 3.0 * c * s ** 2
        ux = 3.0 * c * kappa * (-2.0 * s ** 2 * tau)
        ut = -c * ux
        uxxx = 3.0 * c * kappa ** 3 * (24.0 * s ** 4 - 8.0 * s ** 2) * tau
        res = ut + uxxx + u * ux
        assert np.abs(res).max() <= 1e-10

    def test_domain(self):
        grid = GridFunction(-1.0, 0.1, np.zeros(21))
        with pytest.raises(DomainError):
            soliton_exact(-1.0, 0.0, 0.0, grid)


def test_far_field_inertness():
    cfg = ScenarioConfig(L=50.0, h=0.05, dt=1e-3, T=1.0, coupling=CB0,
                         mode="linear",
                         initial_v=InitialProfile("gaussian", amplitude=1.0,
                                                  center=25.0, width=2.0))
    traj = evolve(cfg, store_every=cfg.n_steps)
    fin = traj.final()
    ends = max(np.abs(fin.v.samples[-3:]).max(), np.abs(fin.w.samples[-3:]).max(),
               np.abs(fin.u.samples[:3]).max())
    assert ends <= 1e-6


def test_blowup_guard():
    cfg = ScenarioConfig(L=20.0, h=0.1, dt=0.05, T=0.5, coupling=CB0,
                         mode="nonlinear",
                         initial_u=InitialProfile("gaussian", amplitude=2e6,
                                                  center=-10.0, width=1.0))
    with pytest.raises(YGraphError, match="blow-up"):
        evolve(cfg)


def test_whole_line_passthrough():
    # pass-through coupling with w decoupled: u-v reproduce whole-line KdV
    cpass = VertexCoupling(CouplingKind.TYPE1, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0)
    prof = InitialProfile("soliton", center=-3.0, c=4.0)
    cfg = ScenarioConfig(L=50.0, h=0.05, dt=1e-3, T=1.0, coupling=cpass,
                         mode="nonlinear", initial_u=prof, initial_v=prof,
                         initial_w=prof)
    fin = evolve(cfg, store_every=cfg.n_steps).final()
    exact_u, exact_v = (soliton_exact(4.0, -3.0, 1.0, e).samples
                        for e in (fin.u, fin.v))
    # relative to the whole line's norm; the run is off by 2.0e-3 (u), 2.5e-3 (v)
    scale = np.linalg.norm(np.concatenate([exact_u, exact_v[1:]]))
    assert np.linalg.norm(fin.u.samples - exact_u) / scale <= 1e-2
    assert np.linalg.norm(fin.v.samples - exact_v) / scale <= 1e-2


def test_sponge_damps_outer_region():
    mk = lambda s: ScenarioConfig(
        L=20.0, h=0.1, dt=0.02, T=2.0, coupling=CB0, mode="linear",
        initial_v=InitialProfile("gaussian", amplitude=1.0, center=10.0,
                                 width=1.5),
        sponge_fraction=0.25, sponge_strength=s)
    free_end = np.abs(evolve(mk(0.0), store_every=100).final().u.samples[:40]).max()
    damped_end = np.abs(evolve(mk(5.0), store_every=100).final().u.samples[:40]).max()
    assert damped_end < free_end


class TestScaling:
    def test_identity_at_lam_one(self):
        cfg = ScenarioConfig(L=25.0, h=0.05, dt=1e-3, T=0.2, coupling=CB0,
                             mode="linear",
                             initial_v=InitialProfile("gaussian", amplitude=0.5,
                                                      center=5.0, width=0.8))
        rep = scaling_check(cfg, 1.0)
        assert rep.worst <= 1e-12

    def test_domain(self):
        cfg = ScenarioConfig(L=25.0, h=0.05, dt=1e-3, T=0.2, coupling=CB0)
        with pytest.raises(DomainError):
            scaling_check(cfg, 1.5)

    def test_profile_scaling_exactness(self):
        prof = InitialProfile("gaussian", amplitude=0.8, center=-6.0, width=0.9)
        lam = 0.5
        scaled = prof.scaled(lam)
        x = np.linspace(-30.0, 10.0, 101)
        assert np.allclose(scaled(x), lam ** 2 * prof(x * lam), atol=1e-15)


class TestExtension:
    def test_taylor_matches_c2(self):
        # value, slope and curvature agree across the joint at x = 0
        h = 0.02
        xe = -10.0 + h * np.arange(int(10.0 / h) + 1)
        edge = GridFunction(-10.0, h, np.exp(xe) * (1.0 + xe) ** 2)
        x = np.arange(-10.0, 10.0, h)
        grid = GridFunction(-10.0, h, np.zeros(x.size))
        ext = whole_line_extension(edge, "left", grid)
        i0 = ext.index_of_zero()
        v = ext.samples
        left_d1 = (3 * v[i0] - 4 * v[i0 - 1] + v[i0 - 2]) / (2 * h)
        right_d1 = (-3 * v[i0] + 4 * v[i0 + 1] - v[i0 + 2]) / (2 * h)
        left_d2 = (2 * v[i0] - 5 * v[i0 - 1] + 4 * v[i0 - 2] - v[i0 - 3]) / h ** 2
        right_d2 = (2 * v[i0] - 5 * v[i0 + 1] + 4 * v[i0 + 2] - v[i0 + 3]) / h ** 2
        # the two sides agree through second order (the joint is C^2); the
        # absolute values track exp(x)(1+x)^2 at 0 up to the stencil error
        assert v[i0] == pytest.approx(1.0, abs=1e-6)
        assert right_d1 == pytest.approx(left_d1, abs=1e-4)
        assert right_d2 == pytest.approx(left_d2, abs=3e-2)
        assert left_d1 == pytest.approx(3.0, abs=5e-3)
        assert left_d2 == pytest.approx(7.0, abs=5e-2)


PICARD_LAM = LambdaVector(0.05, 0.3, 0.05, 0.05)


def _count_tables(monkeypatch):
    """Record the times of each phase pair and each Filon base's (size, dt)
    as they are built, by the Filon tables (``forcing``) and by the Duhamel
    integral (``linops``) alike."""
    built, bases = [], []
    pairs, base = linops.ladder_phases, linops._filon_base

    def counting_pairs(n, spacing, times):
        built.append(np.array(times))
        return pairs(n, spacing, times)

    def counting_base(omega, dt):
        bases.append((omega.size, dt))
        return base(omega, dt)
    monkeypatch.setattr(linops, "ladder_phases", counting_pairs)
    for module in (linops, forcing):
        monkeypatch.setattr(module, "_filon_base", counting_base)
    return built, bases


def _linear_picard_config(coupling, L, h):
    return ScenarioConfig(
        L=L, h=h, dt=2e-3, T=0.1, coupling=coupling, mode="linear",
        initial_v=InitialProfile("gaussian", amplitude=0.05, center=6.0, width=1.0),
        initial_w=InitialProfile("gaussian", amplitude=0.04, center=7.0, width=1.0))


class TestPicard:
    @pytest.mark.parametrize("coupling", [CB0, CB2], ids=["type1", "type2"])
    def test_linear_first_iterate_is_the_construction(self, coupling):
        cfg = _linear_picard_config(coupling, 20.0, 0.1)
        res = picard_iterate(cfg, PICARD_LAM, n_iter=1)
        grid = GridFunction(-cfg.L, cfg.h, np.zeros(2 * cfg.n_edge + 1))
        u0, v0, w0 = whole_line_data(cfg, cfg.h, grid)
        sol = assemble_linear_solution(u0, v0, w0, coupling, PICARD_LAM, T=cfg.T,
                                       n_levels=26, trace_dt=cfg.dt)
        for got, want in zip(res.final, (sol.u, sol.v, sol.w)):
            assert np.array_equal(got.levels, want.levels)

    def test_distance_counts_the_vertex_node(self):
        # with L = 50, h = 0.05 the node at x = 0 sits at -2.8e-12 in
        # np.arange(-L, L + h/2, h); every edge must still include it
        cfg = _linear_picard_config(CB0, 50.0, 0.05)
        res = picard_iterate(cfg, PICARD_LAM, n_iter=1)
        grid = GridFunction(-cfg.L, cfg.h, np.zeros(2 * cfg.n_edge + 1))
        i0 = grid.index_of_zero()
        free = [group_multi(e, res.times, decay_tol=1e-5).levels
                for e in whole_line_data(cfg, cfg.h, grid)]
        edges = (np.s_[:, :i0 + 1], np.s_[:, i0:], np.s_[:, i0:])
        want = max(np.abs(np.real(it.levels) - np.real(f))[e].max()
                   for it, f, e in zip(res.final, free, edges))
        assert res.distances[0] == want

    def test_zero_data_fixed_at_first_iterate(self):
        cfg = ScenarioConfig(L=20.0, h=0.1, dt=2e-3, T=0.25, coupling=CB0,
                             mode="nonlinear")
        lam = LambdaVector(0.05, 0.3, 0.05, 0.05)
        res = picard_iterate(cfg, lam, n_iter=2)
        assert res.distances[0] == 0.0
        assert not res.diverged

    def test_linear_mode_affine(self):
        cfg = ScenarioConfig(L=20.0, h=0.1, dt=2e-3, T=0.25, coupling=CB0,
                             mode="linear",
                             initial_v=InitialProfile("gaussian", amplitude=0.05,
                                                      center=6.0, width=1.0))
        lam = LambdaVector(0.05, 0.3, 0.05, 0.05)
        res = picard_iterate(cfg, lam, n_iter=3)
        assert res.distances[1] <= 1e-6

    def test_tables_are_built_once_per_solve(self, monkeypatch):
        # five nonlinear iterations force 20 classes and 15 Duhamel integrals
        # on one grid and ladder; the trace phase pair (which gives the output
        # phases and the Filon powers) and the Filon tables at the trace step
        # are each built once for all of them.  Each Duhamel integral takes
        # its one cell at the output step, a single row and no table
        built, bases = _count_tables(monkeypatch)
        cfg = dataclasses.replace(_linear_picard_config(CB0, 20.0, 0.1),
                                  mode="nonlinear")
        res = picard_iterate(cfg, PICARD_LAM, n_iter=5)
        assert len(res.distances) == 5
        assert len(built) == 1
        assert np.array_equal(built[0], cfg.dt * np.arange(round(cfg.T / cfg.dt) + 1))
        half = (2 * cfg.n_edge + 1) // 2 + 1
        out_dt = res.times[1] - res.times[0]
        assert bases == [(half, cfg.dt)] + [(half, out_dt)] * 15

    def test_construct_frees_its_tables_early(self, monkeypatch):
        # the construct workload's chain on a 1,600-point grid, 26 levels
        # every 20 of 501 trace steps: one phase pair over the trace gives the
        # free traces, the free flows' output phases and the Filon powers and
        # is freed before the classes, the four classes share one set of
        # Filon tables, and the ladder holds no table on return.  The traced
        # peak, in rows of 1,600 complex values, was 234.8 for the parent
        # design (four Filon table sets, out-of-place class convolution, six
        # inverse transforms in the check; 240.0 on a process's first call),
        # ~210 with complex classes, ~163 with real classes, and is ~150 now
        # that the phase pair and Filon tables hold the half spectrum only
        built, bases = _count_tables(monkeypatch)
        L, h = 20.0, 0.025
        x = -L + h * np.arange(int(round(2 * L / h)))
        data = [GridFunction(-L, h, InitialProfile("gaussian", 0.75, c, w)(x))
                for c, w in ((-8.0, 1.2), (7.0, 1.1), (9.0, 1.3))]
        ladder = Ladder.over(data[0], 0.5, 1e-3, 26)
        tracemalloc.start()
        try:
            sol = assemble_linear_solution(*data, CB0, PICARD_LAM, ladder=ladder)
            verify_vertex_conditions(sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(built) == 1 and np.array_equal(built[0], ladder.trace)
        assert bases == [(x.size // 2 + 1, 1e-3)]
        assert ladder.pair is None and ladder.filon is None
        assert peak / (x.size * np.dtype(complex).itemsize) <= 234.8

    @pytest.mark.parametrize("n_iter", [0, -1, 11])
    def test_iteration_count_range(self, n_iter):
        cfg = _linear_picard_config(CB0, 20.0, 0.1)
        with pytest.raises(DomainError, match="n_iter"):
            picard_iterate(cfg, PICARD_LAM, n_iter=n_iter)

    def test_soliton_contraction_holds_under_refinement(self):
        # the c = 1 soliton (amplitude 3) meets a Gaussian of the same vertex
        # value over T = 0.1.  The phase of the nonlinear Duhamel term turns
        # xi^3 dt ~ 7.9e3 rad per output step at Nyquist for h = 0.025; a
        # rule that samples it lost contraction as h was refined (worst
        # ratio 0.21, then 0.56 and divergence at h = 0.025).  Integrated
        # exactly per cell, the ratio holds at ~0.21 and the gap to
        # Crank-Nicolson falls with h (4.7e-3, 3.2e-3)
        u0 = InitialProfile("soliton", c=1.0, center=-3.0)
        g = InitialProfile("gaussian", amplitude=float(u0(0.0)), center=0.0, width=1.0)
        gaps = []
        for h in (0.05, 0.025):
            cfg = ScenarioConfig(L=25.0, h=h, dt=h / 50, T=0.1, coupling=CB0,
                                 mode="nonlinear", initial_u=u0, initial_v=g,
                                 initial_w=g)
            res = picard_iterate(cfg, PICARD_LAM, n_iter=8)
            d = res.distances
            assert not res.diverged and len(d) == 8
            assert max(d[1:4] / d[:3]) <= 0.25
            fin = evolve(cfg, store_every=cfg.n_steps).final()
            i0 = res.final[0].index_of_zero()
            pairs = ((res.final[0].levels[-1, :i0 + 1], fin.u.samples),
                     (res.final[1].levels[-1, i0:], fin.v.samples),
                     (res.final[2].levels[-1, i0:], fin.w.samples))
            gap = sum(np.sum((p - c) ** 2) for p, c in pairs)
            gaps.append(math.sqrt(gap / sum(np.sum(c ** 2) for _, c in pairs)))
        assert gaps[1] < gaps[0]

    def test_time_horizon_guard(self):
        cfg = ScenarioConfig(L=20.0, h=0.1, dt=2e-3, T=0.8, coupling=CB0,
                             mode="nonlinear")
        with pytest.raises(DomainError):
            picard_iterate(cfg, LambdaVector(0.05, 0.3, 0.05, 0.05))


@pytest.mark.parametrize("n", [2, 3, 4, 26, 101])
def test_spline_matrix_matches_cubic_spline(n):
    # picard_iterate's output-ladder to trace-ladder interpolation
    rng = np.random.default_rng(n)
    nodes = np.linspace(0.0, 0.5, n)
    points = np.linspace(0.0, 0.5, 501)
    spline = _spline_matrix(nodes, points)
    assert spline.shape == (points.size, n)
    for _ in range(5):
        vals = rng.standard_normal(n)
        want = CubicSpline(nodes, vals)(points)
        assert np.abs(spline @ vals - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(_spline_matrix(nodes, nodes) - np.eye(n)).max() <= 1e-14
    # not-a-knot reproduces cubics; two nodes give the line, three the parabola
    poly = np.array([2.0, -1.0, 3.0, -5.0])[:min(n, 4)]
    want = np.polynomial.polynomial.polyval(points, poly)
    got = spline @ np.polynomial.polynomial.polyval(nodes, poly)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
