"""Boundary forcing operators: trace laws, jumps, decay, constructions.

Where two evaluation routes exist (explicit kernel quadrature vs per-
frequency exact integration) the tests cross-check them on the kernel's
decaying side; the oscillatory side of the sigma-route carries node-
incoherent quadrature noise and is exercised only at the trace level.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ygraph.errors import ContractError, DomainError
from ygraph.fracops import TimeTrace, riemann_liouville
from ygraph.linops import GridFunction, SpaceTimeField, frequencies, \
    trace_at_zero
from ygraph.forcing import (HALFLINE_LEFT_MATRIX, SMOOTH_FIT_WINDOW,
                            _filon_base, _filon_field, duhamel_forcing,
                            duhamel_forcing_deriv, field_spatial_derivative,
                            forcing_class, minus_trace_factor,
                            one_sided_limits, plus_trace_factor,
                            smooth_window, spectral_forcing_field,
                            halfline_construct_left, halfline_construct_right)

DT = 1e-3
T = 1.0
TIMES = np.round(np.arange(0.0, 1.0001, 0.1), 10)
MASK = TIMES >= 0.1


@pytest.fixture(scope="module")
def g():
    t = DT * np.arange(int(T / DT) + 1)
    return TimeTrace(DT, t ** 2 * np.exp(-t))


@pytest.fixture(scope="module")
def grid():
    h = 0.05
    return GridFunction(-30.0, h, np.zeros(int(round(45.0 / h)) + 1))


@pytest.fixture(scope="module")
def fine_grid():
    h = 0.0125
    return GridFunction(-20.0, h, np.zeros(int(round(30.0 / h)) + 1))


def g_at(g, times):
    return np.interp(times, g.times, g.samples)


def test_zero_trace_gives_zero_field(grid):
    zero = TimeTrace(DT, np.zeros(101))
    out = duhamel_forcing(zero, grid, np.array([0.0, 0.05, 0.1]))
    assert np.abs(out.levels).max() == 0.0


def test_initial_level_is_zero(g, grid):
    out = duhamel_forcing(g, grid, TIMES, method="simpson")
    assert np.abs(out.levels[0]).max() == 0.0


def test_dirichlet_trace_law_sigma(g, grid):
    out = duhamel_forcing(g, grid, TIMES, method="simpson")
    i0 = grid.index_of_zero()
    ref = g_at(g, TIMES)[MASK]
    err = np.abs(out.levels[MASK, i0] - ref).max() / np.abs(ref).max()
    assert err <= 1e-3


def test_dirichlet_trace_law_spectral(g, grid):
    out = duhamel_forcing(g, grid, TIMES, method="spectral")
    i0 = grid.index_of_zero()
    ref = g_at(g, TIMES)[MASK]
    err = np.abs(out.levels[MASK, i0] - ref).max() / np.abs(ref).max()
    assert err <= 1e-3


def test_neumann_trace_law(g, grid):
    # dx V g(0, t) = -I_{-1/3} g(t); read one-sidedly from the decaying side
    out = duhamel_forcing(g, grid, TIMES, method="simpson")
    i13 = riemann_liouville(g, -1.0 / 3.0)
    ref = -np.interp(TIMES[MASK], g.times, i13.samples)
    got = np.array([trace_at_zero(out.level_at(t), 1, side="right")
                    for t in TIMES[MASK]])
    assert np.abs(got - ref).max() / np.abs(ref).max() <= 5e-3


def test_companion_trace_value(g, grid):
    # V^{-1} g(0, t) = -g(t)
    out = duhamel_forcing(riemann_liouville(g, 1.0 / 3.0), grid, TIMES,
                          method="simpson")
    ref = -g_at(g, TIMES)[MASK]
    got = np.array([trace_at_zero(out.level_at(t), 1, side="right")
                    for t in TIMES[MASK]])
    assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-3


def test_forcing_pde_residual(g, grid):
    # (d_t + d_x^3) V g = 0 away from the vertex source
    times = np.round(np.arange(0.0, 1.0001, 0.01), 10)
    smoothed = riemann_liouville(g, -2.0 / 3.0)
    fld = spectral_forcing_field(smoothed, grid, times)
    lv = fld.levels
    dvdt = np.gradient(lv, 0.01, axis=0, edge_order=2)
    xi = frequencies(lv.shape[1], grid.spacing)
    d3 = np.fft.ifft((1j * xi) ** 3 * np.fft.fft(lv, axis=1), axis=1).real
    res = np.abs(dvdt + d3)
    x = fld.x
    m = (np.abs(x) > 2 * grid.spacing) & (np.abs(x) < 25.0)
    tmask = (times >= 0.1) & (times <= 0.95)
    assert res[tmask][:, m].max() <= 5e-3 * np.abs(lv).max()


@pytest.mark.parametrize("lam", [0.1, 0.25, 0.4])
def test_class_trace_laws(g, grid, lam):
    i0 = grid.index_of_zero()
    ref = g_at(g, TIMES)[MASK]
    fm = forcing_class(lam, "minus", g, grid, TIMES)
    fp = forcing_class(lam, "plus", g, grid, TIMES)
    em = np.abs(fm.levels[MASK, i0] - minus_trace_factor(lam) * ref).max() \
        / np.abs(minus_trace_factor(lam) * ref).max()
    ep = np.abs(fp.levels[MASK, i0] - plus_trace_factor(lam) * ref).max() \
        / np.abs(ref).max()
    assert em <= 5e-3
    assert ep <= 5e-3
    assert np.iscomplexobj(fp.levels)


def test_class_order_zero_reduces_to_base(g, grid):
    base = duhamel_forcing(g, grid, TIMES, method="simpson")
    fe = forcing_class(0.0, "minus", g, grid, TIMES, method="simpson")
    assert np.array_equal(fe.levels, base.levels)


def test_class_negative_one_is_companion(g, grid):
    spec = duhamel_forcing_deriv(g, grid, TIMES, method="spectral")
    fe = forcing_class(-1.0, "minus", g, grid, TIMES, method="spectral")
    assert np.array_equal(fe.levels, spec.levels)
    # the power-kernel multiplier |xi| e^{i pi/2 sign(xi)} is i xi up to
    # the rounding of cos(pi/2)
    deriv = spectral_forcing_field(riemann_liouville(g, -1.0 / 3.0), grid,
                                   TIMES, deriv=1)
    assert np.abs(fe.levels - deriv.levels).max() <= \
        1e-15 * np.abs(fe.levels).max()
    # both power-kernel multipliers reduce to i xi at lam = -1
    fp = forcing_class(-1.0, "plus", g, grid, TIMES, method="spectral")
    assert np.abs(fp.levels - fe.levels).max() <= \
        1e-12 * np.abs(fe.levels).max()
    # against the independent kernel-quadrature route, on the decaying side
    simp = duhamel_forcing_deriv(g, grid, TIMES, method="simpson")
    side = grid.x > 0.5
    dev = np.abs(spec.levels[:, side] - simp.levels[:, side]).max()
    assert dev <= 5e-3 * np.abs(spec.levels).max()


@pytest.mark.parametrize("lam, sign", [(0.3, "minus"), (0.6, "minus"),
                                       (0.3, "plus"), (0.6, "plus")],
                         ids=["0.3", "0.6", "0.3-plus", "0.6-plus"])
def test_reduction_chain(g, grid, lam, sign):
    # V^{lam-1} g = d/dx V^{lam} (I_{1/3} g); sup distance on |x| <= 5
    lhs = forcing_class(lam - 1.0, sign, g, grid, TIMES)
    base = forcing_class(lam, sign, riemann_liouville(g, 1.0 / 3.0),
                         grid, TIMES)
    rhs = field_spatial_derivative(base, 1)
    m = np.abs(lhs.x) <= 5.0
    dev = np.abs(lhs.levels[:, m] - rhs.levels[:, m]).max()
    assert dev <= 1e-2


def test_right_tail_exponent(g):
    h = 0.05
    gd = GridFunction(-45.0, h, np.zeros(int(round(90.0 / h)) + 1))
    for lam in (0.25, 0.4):
        fe = forcing_class(lam, "minus", g, gd, TIMES)
        lev = np.abs(fe.level_at(0.5).samples)
        x = fe.x
        m = (x >= 5.0) & (x <= 40.0)
        slope = np.polyfit(np.log(x[m]), np.log(lev[m] + 1e-300), 1)[0]
        assert abs(slope - (lam - 1.0)) <= 0.15


def test_left_tail_rapid_decay(g):
    h = 0.05
    gd = GridFunction(-45.0, h, np.zeros(int(round(90.0 / h)) + 1))
    fe = forcing_class(0.25, "minus", g, gd, TIMES)
    lev = np.abs(fe.level_at(0.5).samples)
    x = fe.x
    m = (x <= -5.0) & (x >= -40.0)
    slope = np.polyfit(np.log(-x[m]), np.log(lev[m] + 1e-300), 1)[0]
    # faster than any fixed power in principle; resolved here beyond x^-3
    assert slope <= -3.0
    c4 = (lev[m] * (1.0 + np.abs(x[m])) ** 4).max()
    assert c4 <= 200.0 * lev.max()


def test_plus_class_mirrored_decay(g):
    h = 0.05
    gd = GridFunction(-45.0, h, np.zeros(int(round(90.0 / h)) + 1))
    fe = forcing_class(0.25, "plus", g, gd, TIMES)
    lev = np.abs(fe.level_at(0.5).samples)
    x = fe.x
    mneg = (x <= -5.0) & (x >= -40.0)
    slope = np.polyfit(np.log(-x[mneg]), np.log(lev[mneg] + 1e-300), 1)[0]
    assert abs(slope - (0.25 - 1.0)) <= 0.15


def test_continuity_across_vertex(g, grid):
    for lam, sign in ((0.25, "minus"), (0.25, "plus")):
        fe = forcing_class(lam, sign, g, grid, TIMES)
        left, right = one_sided_limits(fe, 0.5)
        scale = np.abs(fe.level_at(0.5).samples).max()
        assert abs(right - left) / scale <= 5e-3


def test_continuity_negative_order(g):
    h = 0.01
    gd = GridFunction(-15.0, h, np.zeros(int(round(30.0 / h)) + 1))
    fe = forcing_class(-0.5, "minus", g, gd, TIMES)
    left, right = one_sided_limits(fe, 0.6)
    scale = np.abs(fe.level_at(0.6).samples).max()
    assert abs(right - left) / scale <= 5e-3


class TestJumps:
    def test_unit_step(self):
        h = 0.05
        x = np.arange(-2.0, 2.0, h)
        lv = np.tile((x > 0).astype(float), (2, 1))
        fld = SpaceTimeField(x[0], h, 0.1, lv)
        left, right = one_sided_limits(fld, 0.1)
        assert right - left == pytest.approx(1.0, abs=1e-12)

    def test_piecewise_cubic_limits_exact(self):
        # a sampled cubic on each side, jumping at 0: the default limits
        # are the two cubics' values at 0, whatever the vertex node holds
        h = 0.01
        x = np.arange(-1.0, 1.0 + h / 2, h)
        left_c = (0.7, -1.3, 2.1, 0.9)
        right_c = (-0.4, 0.8, -3.2, 1.7)
        poly = np.polynomial.polynomial.polyval
        lv = np.where(x < 0, poly(x, left_c), poly(x, right_c))
        lv[np.argmin(np.abs(x))] = 123.0
        fld = SpaceTimeField(x[0], h, 0.1, np.tile(lv, (2, 1)))
        left, right = one_sided_limits(fld, 0.1)
        assert abs(left - left_c[0]) <= 1e-12
        assert abs(right - right_c[0]) <= 1e-12

    def test_second_derivative_jump(self, g, fine_grid):
        # dxx V g jumps by 3 I_{-2/3} g(t) at the vertex
        i23 = riemann_liouville(g, -2.0 / 3.0)
        fld = spectral_forcing_field(i23, fine_grid, TIMES, deriv=2,
                                     window="smooth")
        ref = 3.0 * np.interp(0.5, g.times, i23.samples)
        left, right = one_sided_limits(fld, 0.5, fit_window=SMOOTH_FIT_WINDOW)
        assert abs((right - left) - ref) / abs(ref) <= 2e-2

    def test_companion_derivative_limits(self, g, fine_grid):
        # dx V^{-1} g: left limit -2 I_{-1/3} g, right limit + I_{-1/3} g
        i13 = riemann_liouville(g, -1.0 / 3.0)
        fld = spectral_forcing_field(i13, fine_grid, TIMES, deriv=2,
                                     window="smooth")
        ref = np.interp(0.5, g.times, i13.samples)
        left, right = one_sided_limits(fld, 0.5, fit_window=SMOOTH_FIT_WINDOW)
        assert abs(left + 2.0 * ref) / abs(2.0 * ref) <= 2e-2
        assert abs(right - ref) / abs(ref) <= 2e-2
        assert abs((right - left) - 3.0 * ref) / abs(3.0 * ref) <= 2e-2

    def test_too_few_nodes(self):
        h = 0.05
        x = np.arange(-0.1, 2.0, h)
        fld = SpaceTimeField(x[0], h, 0.1, np.zeros((2, x.size)))
        with pytest.raises(DomainError):
            one_sided_limits(fld, 0.1)
        x = np.arange(-2.0, 2.0, h)
        fld = SpaceTimeField(x[0], h, 0.1, np.zeros((2, x.size)))
        with pytest.raises(DomainError):       # window reaches past the grid
            one_sided_limits(fld, 0.1, fit_window=(12, 50))
        with pytest.raises(DomainError):       # fewer than five nodes
            one_sided_limits(fld, 0.1, fit_window=(12, 15))


class TestHalflineRight:
    def test_zero_inputs(self, grid):
        zero_g = TimeTrace(DT, np.zeros(201))
        phi = grid.with_samples(np.zeros(len(grid)))
        out = halfline_construct_right(phi, zero_g, np.array([0.0, 0.05, 0.1]))
        assert np.abs(out.levels).max() == 0.0

    def test_free_flow_needs_no_correction(self, grid):
        from ygraph.linops import group_trace_history, group_multi
        x = grid.x
        phi = grid.with_samples(np.exp(-(x - 5.0) ** 2 / 2.0))
        gg = TimeTrace(DT, group_trace_history(phi, DT * np.arange(501)))
        times = np.round(np.arange(0.0, 0.5001, 0.05), 10)
        out = halfline_construct_right(phi, gg, times)
        free = group_multi(phi, times)
        assert np.abs(out.levels - free.levels).max() <= 1e-8

    def test_dirichlet_trace(self, grid):
        t = DT * np.arange(1001)
        gg = TimeTrace(DT, t ** 2 * np.exp(-t))
        phi = grid.with_samples(np.zeros(len(grid)))
        out = halfline_construct_right(phi, gg, TIMES)
        got = np.array([trace_at_zero(out.level_at(s), 0, side="right")
                        for s in TIMES[MASK]])
        ref = np.interp(TIMES[MASK], t, gg.samples)
        assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-2


class TestHalflineLeft:
    def test_zero_inputs(self, grid):
        zero = TimeTrace(DT, np.zeros(201))
        phi = grid.with_samples(np.zeros(len(grid)))
        out = halfline_construct_left(phi, zero, zero, np.array([0.0, 0.05, 0.1]))
        assert np.abs(out.levels).max() == 0.0

    def test_weight_matrix_algebra(self):
        # the 2x2 weights reproduce the displayed trace identities exactly
        rng = np.random.default_rng(7)
        for _ in range(10):
            alpha, beta = rng.standard_normal(2)
            h1, h2 = HALFLINE_LEFT_MATRIX @ np.array([alpha, beta])
            assert h1 - h2 == pytest.approx(alpha, abs=1e-10)
            assert -h1 - 2.0 * h2 == pytest.approx(beta, abs=1e-10)

    def test_dirichlet_and_neumann_traces(self):
        h = 0.025
        grid = GridFunction(-30.0, h, np.zeros(int(round(45.0 / h)) + 1))
        t = DT * np.arange(1001)
        gg = TimeTrace(DT, np.sin(t) * t ** 2)
        hh = TimeTrace(DT, np.zeros(t.size))
        phi = grid.with_samples(np.zeros(len(grid)))
        out = halfline_construct_left(phi, gg, hh, TIMES)
        got = np.array([trace_at_zero(out.level_at(s), 0, side="left")
                        for s in TIMES[MASK]])
        ref = np.interp(TIMES[MASK], t, gg.samples)
        assert np.abs(got - ref).max() / np.abs(ref).max() <= 2e-2
        # left Neumann trace vanishes; assemble the derivative field
        # spectrally so the vertex step is windowed before extraction
        alpha = gg.samples
        beta = riemann_liouville(TimeTrace(DT, hh.samples, True), 1.0 / 3.0).samples
        h1 = TimeTrace(DT, (2.0 * alpha - beta) / 3.0, True)
        h2 = TimeTrace(DT, (-alpha - beta) / 3.0, True)
        vx = spectral_forcing_field(riemann_liouville(h1, -2.0 / 3.0), grid,
                                    TIMES, deriv=1, window="smooth").levels \
            + spectral_forcing_field(riemann_liouville(h2, -1.0 / 3.0), grid,
                                     TIMES, deriv=2, window="smooth").levels

        vxf = SpaceTimeField(grid.origin, h, TIMES[1] - TIMES[0], vx)
        neu = np.array([one_sided_limits(vxf, s, fit_window=(10, 26))[0]
                        for s in TIMES[MASK]])
        assert np.abs(neu).max() <= 2e-2 * np.abs(out.levels).max()


class TestContracts:
    def test_non_causal_rejected(self, grid):
        bad = TimeTrace(DT, np.ones(50), causal=False)
        with pytest.raises(ContractError):
            duhamel_forcing(bad, grid, np.array([0.0, 0.01]))
        with pytest.raises(ContractError):
            forcing_class(0.3, "minus", bad, grid, np.array([0.0, 0.01]))

    def test_lambda_domain(self, g, grid):
        for lam in (-2.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                forcing_class(lam, "minus", g, grid, TIMES)
        with pytest.raises(DomainError):
            forcing_class(0.3, "sideways", g, grid, TIMES)

    def test_grid_must_contain_zero(self, g):
        h = 0.05
        x = np.arange(1.0, 5.0, h)
        off = GridFunction(x[0], h, np.zeros(x.size))
        with pytest.raises(DomainError):
            duhamel_forcing(g, off, TIMES)

    @pytest.mark.parametrize("method", ["spectral", "simpson"])
    @pytest.mark.parametrize("origin", [1.0, -2.02], ids=["no-zero", "off-node"])
    def test_class_grid_must_have_node_at_zero(self, g, method, origin):
        h = 0.05
        grid = GridFunction(origin, h, np.zeros(200))
        with pytest.raises(DomainError):
            forcing_class(0.3, "minus", g, grid, TIMES, method=method)

    def test_times_must_align(self, g, grid):
        with pytest.raises(ContractError):
            duhamel_forcing(g, grid, np.array([0.0, 0.05, 0.2]))
        with pytest.raises(ContractError):
            duhamel_forcing(g, grid, np.array([0.1, 0.2]))
        with pytest.raises(ContractError, match="finite"):
            forcing_class(0.3, "minus", g, grid, np.array([0.0, np.nan]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stride=st.integers(1, 40), n_out=st.integers(2, 8),
       extra=st.integers(0, 5), complex_trace=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_level_stride_filon_matches_per_step_recurrence(stride, n_out, extra,
                                                         complex_trace, seed):
    # the field advances in blocks of ~sqrt(M) cells, with a shorter last
    # block in a stride that q does not divide; the reference takes one
    # trace step at a time and keeps every stride-th state.  Phases xi^3 dt
    # reach ~30 on this grid, so both Filon branches are exercised.
    rng = np.random.default_rng(seed)
    n, h, dt = 128, 0.1, 1e-3
    n_steps = stride * (n_out - 1)
    f = rng.standard_normal(n_steps + 1 + extra)
    if complex_trace:
        f = f + 1j * rng.standard_normal(f.size)
    grid = GridFunction(-6.4, h, np.zeros(n))
    mult = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    times = stride * dt * np.arange(n_out)
    got = _filon_field(TimeTrace(dt, f), grid, times, mult, not complex_trace)

    p, e0, e1 = _filon_base(frequencies(n, h) ** 3, dt)
    phi = np.zeros(n, dtype=complex)
    want = np.zeros((n_out, n), dtype=complex)
    for m in range(n_steps):
        phi = phi * p + f[m + 1] * e0 - (f[m + 1] - f[m]) * e1 / dt
        if (m + 1) % stride == 0:
            want[(m + 1) // stride] = np.fft.ifft(3.0 * phi * mult)
    if not complex_trace:
        want = want.real
    assert np.iscomplexobj(got.levels) == complex_trace
    assert np.abs(got.levels - want).max() <= 1e-12 * np.abs(want).max()


def _filon_peak_rows(times):
    """tracemalloc peak of a spectral forcing field on 2,048 points, in grid
    rows of complex, for a 1,001-sample trace and the output ``times``."""
    n, h, dt = 2048, 0.05, 1e-3
    grid = GridFunction(-h * n / 2, h, np.zeros(n))
    f = TimeTrace(dt, np.sin(3.0 * dt * np.arange(1001)), True)
    tracemalloc.start()
    try:
        fld = spectral_forcing_field(f, grid, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fld.n_levels == len(times)
    return peak / (n * np.dtype(complex).itemsize)


def test_filon_tables_stay_small_for_long_strides():
    # two output levels 1000 trace steps apart: blocks of ~sqrt(M) cells keep
    # the peak to ~160 grid rows, where one 1000-cell block takes ~4000
    assert _filon_peak_rows(np.array([0.0, 1.0])) <= 300


def test_filon_transform_holds_few_copies_of_the_level_stack():
    # 101 output levels: the gain tables are freed and the stack is scaled in
    # place before the batched transform, so the peak is ~340 grid rows;
    # ~544 when the scaling made two temporary stacks
    assert _filon_peak_rows(np.linspace(0.0, 1.0, 101)) <= 400
