"""Direct graph solver: stability, coupling, mass accounting, references."""

import math

import numpy as np
import pytest

from ygraph.errors import ContractError, DomainError, YGraphError
from ygraph.fracops import ONE_SIDED_CURVATURE, ONE_SIDED_SLOPE, one_sided
from ygraph.linops import GridFunction, group_multi
from ygraph.vertex import (CouplingKind, LambdaVector, VertexCoupling,
                           assemble_linear_solution)
from ygraph.graphsim import (InitialProfile, ScenarioConfig, edge_mass,
                             energy_report, evolve, picard_iterate,
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
    assert all(st.total_mass() == 0.0 for st in traj.states)


@pytest.mark.parametrize("store_every", [0, -1])
def test_store_every_must_be_positive(store_every):
    with pytest.raises(DomainError, match="store_every"):
        evolve(small_config(), store_every=store_every)


def _vertex_traces(u, v, w, h):
    """u0, v0, w0, ux, vx, wx, uxx, vxx, wxx of edge samples by the one-sided
    stencils from each edge's vertex node (u's nodes counted towards -x)."""
    ends = [(u[::-1][:4], -1), (v[:4], 1), (w[:4], 1)]
    return ([nodes[0] for nodes, _ in ends]
            + [sign * one_sided(ONE_SIDED_SLOPE, nodes) / h for nodes, sign in ends]
            + [one_sided(ONE_SIDED_CURVATURE, nodes) / h ** 2 for nodes, _ in ends])


def _flux_density(tr):
    u0, v0, w0, ux, vx, wx, uxx, vxx, wxx = np.asarray(tr).T
    return ux ** 2 - vx ** 2 - wx ** 2 - 2 * u0 * uxx + 2 * v0 * vxx + 2 * w0 * wxx


@pytest.mark.parametrize("store_every", [1, 7])
def test_step_diagnostics_match_stored_states(store_every):
    cfg = ScenarioConfig(
        L=20.0, h=0.1, dt=0.01, T=0.5, coupling=CB2, mode="nonlinear",
        sponge_fraction=0.2, sponge_strength=3.0,
        initial_u=InitialProfile("gaussian", amplitude=0.5, center=-3.0, width=1.0),
        initial_v=InitialProfile("gaussian", amplitude=0.4, center=4.0, width=1.0),
        initial_w=InitialProfile("gaussian", amplitude=0.3, center=5.0, width=1.0))
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
        total0 = linear_run.states[0].total_mass()
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


def _linear_picard_config(coupling, L, h):
    return ScenarioConfig(
        L=L, h=h, dt=2e-3, T=0.1, coupling=coupling, mode="linear",
        initial_v=InitialProfile("gaussian", amplitude=0.05, center=6.0, width=1.0),
        initial_w=InitialProfile("gaussian", amplitude=0.04, center=7.0, width=1.0))


class TestPicard:
    @pytest.mark.parametrize("coupling", [CB0, CB2], ids=["type1", "type2"])
    def test_linear_first_iterate_is_the_construction(self, coupling):
        cfg = _linear_picard_config(coupling, 20.0, 0.1)
        res = picard_iterate(cfg, PICARD_LAM, n_iter=1, n_levels=26)
        grid = GridFunction(-cfg.L, cfg.h, np.zeros(2 * cfg.n_edge + 1))
        u0, v0, w0 = whole_line_data(cfg, cfg.h, grid)
        sol = assemble_linear_solution(u0, v0, w0, coupling, PICARD_LAM, T=cfg.T,
                                       n_levels=26, trace_dt=cfg.dt)
        for got, want in zip(res.iterates[0], (sol.u, sol.v, sol.w)):
            assert np.array_equal(got, want.levels)

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
        want = max(np.abs(np.real(it) - np.real(f))[e].max()
                   for it, f, e in zip(res.iterates[0], free, edges))
        assert res.distances[0] == want

    def test_zero_data_fixed_at_first_iterate(self):
        cfg = ScenarioConfig(L=20.0, h=0.1, dt=2e-3, T=0.25, coupling=CB0,
                             mode="nonlinear")
        lam = LambdaVector(0.05, 0.3, 0.05, 0.05)
        res = picard_iterate(cfg, lam, n_iter=2, n_levels=26)
        assert res.distances[0] == 0.0
        assert not res.diverged

    def test_linear_mode_affine(self):
        cfg = ScenarioConfig(L=20.0, h=0.1, dt=2e-3, T=0.25, coupling=CB0,
                             mode="linear",
                             initial_v=InitialProfile("gaussian", amplitude=0.05,
                                                      center=6.0, width=1.0))
        lam = LambdaVector(0.05, 0.3, 0.05, 0.05)
        res = picard_iterate(cfg, lam, n_iter=3, n_levels=26)
        assert res.distances[1] <= 1e-6

    @pytest.mark.parametrize("n_iter", [0, -1, 11])
    def test_iteration_count_range(self, n_iter):
        cfg = _linear_picard_config(CB0, 20.0, 0.1)
        with pytest.raises(DomainError, match="n_iter"):
            picard_iterate(cfg, PICARD_LAM, n_iter=n_iter)

    def test_time_horizon_guard(self):
        cfg = ScenarioConfig(L=20.0, h=0.1, dt=2e-3, T=0.8, coupling=CB0,
                             mode="nonlinear")
        with pytest.raises(DomainError):
            picard_iterate(cfg, LambdaVector(0.05, 0.3, 0.05, 0.05))
