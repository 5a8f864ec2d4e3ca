"""Linear group, Duhamel operator, trace extraction and Sobolev norms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from ygraph import forcing, linops, vertex
from ygraph.errors import ContractError, DomainError
from ygraph.graphsim import InitialProfile
from ygraph.linops import (GridFunction, Ladder, SpaceTimeField, airy_group,
                           duhamel_inhomog, frequencies, group_multi,
                           group_trace_history, ladder_phases, sobolev_norm,
                           trace_at_zero, trace_phases)
from ygraph.specfun import airy_scaled, airy_scaled_deriv


@pytest.fixture
def gaussian_grid():
    h = 0.05
    x = np.arange(-200.0, 200.0, h)
    return GridFunction(x[0], h, np.exp(-x ** 2 / 2.0))


def test_group_identity_at_zero(gaussian_grid):
    out = airy_group(gaussian_grid, 0.0)
    assert np.abs(out.samples - gaussian_grid.samples).max() <= 1e-12


def test_group_unitarity(gaussian_grid):
    out = airy_group(gaussian_grid, 0.7)
    n0 = np.linalg.norm(gaussian_grid.samples)
    assert abs(np.linalg.norm(out.samples) - n0) / n0 <= 1e-10


def test_group_property(gaussian_grid):
    two = airy_group(airy_group(gaussian_grid, 0.2), 0.1)
    one = airy_group(gaussian_grid, 0.3)
    assert np.abs(two.samples - one.samples).max() <= 1e-10


def test_group_commutes_with_derivative(gaussian_grid):
    from ygraph.linops import frequencies
    xi = frequencies(len(gaussian_grid), gaussian_grid.spacing)
    dphi = gaussian_grid.with_samples(
        np.fft.ifft(1j * xi * np.fft.fft(gaussian_grid.samples)).real)
    lhs = airy_group(dphi, 0.4).samples
    evolved = airy_group(gaussian_grid, 0.4)
    rhs = np.fft.ifft(1j * xi * np.fft.fft(evolved.samples)).real
    assert np.abs(lhs - rhs).max() <= 1e-8


def test_group_decay_contract():
    h = 0.1
    x = np.arange(-5.0, 5.0, h)
    bad = GridFunction(x[0], h, np.exp(-x ** 2 / 2.0))   # ends ~ 4e-6
    with pytest.raises(ContractError, match="endpoint"):
        airy_group(bad, 0.1)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_grid_function_rejected(bad):
    h = 0.1
    x = np.arange(-5.0, 5.0, h)
    vals = np.exp(-x ** 2)
    vals[30] = bad
    with pytest.raises(ContractError, match="finite"):
        GridFunction(x[0], h, vals)


def test_ragged_grid_function_rejected():
    with pytest.raises(ContractError, match="rectangular"):
        GridFunction(0.0, 0.1, [1.0, [2.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_field_level_rejected(bad):
    # one bad sample at level 2 of 5 would turn every level of the batched
    # Duhamel product into NaN, the levels before it included
    h = 0.05
    x = -5.0 + h * np.arange(200)
    lv = np.tile(InitialProfile("gaussian", 1.0, 0.0, 0.5)(x), (5, 1))
    lv[2, 100] = bad
    with pytest.raises(ContractError, match="finite"):
        SpaceTimeField(x[0], h, 0.05, lv)
    with pytest.raises(ContractError, match="finite"):
        SpaceTimeField(x[0], h, 0.05, lv * (1.0 + 1.0j))


def test_fundamental_solution_profile():
    # narrow Gaussian (width parameter 1e-2 in exp(-x^2/w)) approximating a
    # point mass: its evolution at t = 1 lands on the kernel profile A(x)
    w = 1e-2
    h = 0.05
    x = np.arange(-8000.0, 8000.0, h)
    prof = np.exp(-x ** 2 / w) / math.sqrt(math.pi * w)
    out = airy_group(GridFunction(x[0], h, prof), 1.0)
    window = np.abs(out.x) <= 4.0
    err = np.abs(out.samples[window] - airy_scaled(out.x[window]))
    assert err.max() <= 1e-3


def test_duhamel_zero_forcing():
    h = 0.1
    x = np.arange(-30.0, 30.0, h)
    w = SpaceTimeField(x[0], h, 0.05, np.zeros((11, x.size)))
    out = duhamel_inhomog(w)
    assert out.levels.shape == w.levels.shape
    assert np.abs(out.level_at(0.5).samples).max() == 0.0
    assert np.abs(out.level_at(0.0).samples).max() == 0.0


def test_duhamel_time_domain_error():
    h = 0.1
    x = np.arange(-30.0, 30.0, h)
    w = SpaceTimeField(x[0], h, 0.05, np.zeros((11, x.size)))
    with pytest.raises(DomainError):
        duhamel_inhomog(w).level_at(0.9)


def test_duhamel_linearity():
    h = 0.05
    x = np.arange(-100.0, 100.0, h)
    nt = 11
    dt = 0.02
    t = dt * np.arange(nt)
    w1 = np.array([np.exp(-x ** 2 / 3.0) * np.sin(2 * s + 0.2) for s in t])
    w2 = np.array([np.exp(-(x - 1.0) ** 2 / 2.0) * np.cos(s) for s in t])
    f1 = SpaceTimeField(x[0], h, dt, w1)
    f2 = SpaceTimeField(x[0], h, dt, w2)
    combo = SpaceTimeField(x[0], h, dt, 0.3 * w1 - 1.7 * w2)
    lhs = duhamel_inhomog(combo).levels
    rhs = 0.3 * duhamel_inhomog(f1).levels - 1.7 * duhamel_inhomog(f2).levels
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_duhamel_pde_residual():
    h = 0.05
    x = np.arange(-150.0, 150.0, h)
    nt = 41
    dt = 0.5 / (nt - 1)
    t = dt * np.arange(nt)
    wlv = np.array([np.exp(-x ** 2 / (2 * 1.5 ** 2)) * np.sin(2 * s + 0.3)
                    for s in t])
    wf = SpaceTimeField(x[0], h, dt, wlv)
    k = duhamel_inhomog(wf).levels
    dk_dt = np.gradient(k, dt, axis=0, edge_order=2)
    d3 = np.zeros_like(k)
    d3[:, 2:-2] = (-k[:, :-4] + 2 * k[:, 1:-3] - 2 * k[:, 3:-1] + k[:, 4:]) \
        / (2 * h ** 3)
    res = dk_dt + d3 - wlv
    interior = np.abs(x) < 100.0
    rel = np.abs(res[1:-1][:, interior]).max() / np.abs(wlv).max()
    assert rel <= 5e-3


def _duhamel_one_level(w, m):
    """Level m of the Duhamel integral, one FFT pair per earlier level: the
    sum over cells j < m of exp(i (t_m - t_{j+1}) xi^3) (b F_j + a F_{j+1}),
    each cell exact for the linear interpolant in time, on the full
    spectrum."""
    xi = frequencies(w.levels.shape[1], w.spacing)
    _, e0, e1 = linops._filon_base(xi ** 3, w.dt)
    b = e1 / w.dt
    acc = np.zeros(w.levels.shape[1], dtype=complex)
    for j in range(m):
        tau = (m - j - 1) * w.dt
        acc += np.fft.ifft(np.exp(1j * tau * xi ** 3) * (
            b * np.fft.fft(w.levels[j]) + (e0 - b) * np.fft.fft(w.levels[j + 1])))
    return acc


@pytest.mark.parametrize("n_levels", [2, 3, 4, 6, 26])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_duhamel_ladder_matches_per_level_loop(kind, n_levels):
    h = 0.05
    x = np.arange(-40.0, 40.0, h)
    dt = 0.02
    rng = np.random.default_rng(n_levels)
    lv = np.array([InitialProfile("gaussian", 1.0, rng.uniform(-2.0, 2.0), 1.3)(x)
                   * np.cos(3.0 * m * dt + rng.uniform(0.0, 1.0))
                   for m in range(n_levels)])
    if kind == "complex":
        lv = lv * np.exp(0.6j * x)
    w = SpaceTimeField(x[0], h, dt, lv)
    want = np.array([_duhamel_one_level(w, m) for m in range(n_levels)])
    if kind == "real":
        got, want = duhamel_inhomog(w).levels, want.real
    else:   # the operator is real: a complex forcing runs as its two parts
        with pytest.raises(ContractError, match="duhamel_inhomog"):
            duhamel_inhomog(w)
        re, im = (duhamel_inhomog(SpaceTimeField(x[0], h, dt, part)).levels
                  for part in (lv.real, lv.imag))
        got = re + 1j * im
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _linear_in_time_duhamel(omega, t, alpha, beta):
    """int_0^t exp(i (t - s) omega) (alpha + beta s) ds per frequency:
    (alpha + beta t) E0 - beta E1 with E0 = int_0^t e^{i omega u} du and
    E1 = int_0^t u e^{i omega u} du, in closed form where |omega t| >= 1 and
    from 30 terms of their power series below (the closed forms cancel)."""
    z = 1j * omega * t
    e0, e1 = np.empty_like(z), np.empty_like(z)
    big = np.abs(z) >= 1.0
    e0[big] = (np.exp(z[big]) - 1.0) / (1j * omega[big])
    e1[big] = (t * np.exp(z[big]) - e0[big]) / (1j * omega[big])
    term, s0, s1 = np.ones(np.count_nonzero(~big), dtype=complex), 0.0, 0.0
    for k in range(30):     # term = z^k / k!
        s0, s1 = s0 + term / (k + 1), s1 + term / (k + 2)
        term = term * z[~big] / (k + 1)
    e0[~big], e1[~big] = t * s0, t ** 2 * s1
    return (alpha + beta * t) * e0 - beta * e1


def test_duhamel_is_exact_for_forcing_linear_in_time():
    # (alpha + beta s) phi(x) on picard's grid and output step: h = 0.05,
    # dt = 0.02, so the phase turns xi^3 dt ~ 5e3 rad per step at Nyquist.
    # Sampling that phase (composite Simpson over the levels) misses the
    # integral by orders of magnitude more than rounding; integrating it
    # exactly per cell against the linear interpolant matches the closed
    # form.  Windowed noise keeps every frequency, Nyquist included, in play
    h, dt, n_levels = 0.05, 0.02, 26
    n = 1001
    rng = np.random.default_rng(11)
    phi = np.hanning(n) * rng.standard_normal(n)
    alpha, beta = 0.7, -2.3
    t = dt * np.arange(n_levels)
    w = SpaceTimeField(-25.0, h, dt, np.outer(alpha + beta * t, phi))
    got = duhamel_inhomog(w).levels
    omega = frequencies(n, h)[:n // 2 + 1] ** 3
    assert abs(omega[-1]) * dt > 4e3
    spec = np.fft.rfft(phi)
    want = np.array([np.fft.irfft(_linear_in_time_duhamel(omega, tm, alpha, beta) * spec, n)
                     for tm in t])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_duhamel_decay_contract_first_failing_level():
    h = 0.1
    x = np.arange(-30.0, 30.0, h)
    lv = np.array([InitialProfile("gaussian", 1.0, 0.0, 1.0)(x) for _ in range(11)])
    lv[5] += InitialProfile("gaussian", 1.0, 29.5, 1.0)(x)   # level 5 reaches the right end
    with pytest.raises(ContractError, match="right endpoint"):
        duhamel_inhomog(SpaceTimeField(x[0], h, 0.05, lv))
    # a larger failure at a later level does not mask the first one
    lv[8] += InitialProfile("gaussian", 5.0, -29.5, 1.0)(x)
    with pytest.raises(ContractError, match="right endpoint"):
        duhamel_inhomog(SpaceTimeField(x[0], h, 0.05, lv))


class TestTraceAtZero:
    def test_polynomial_second_derivative(self):
        h = 1e-3
        x = np.arange(-1.0, 1.0 + h / 2, h)
        f = GridFunction(x[0], h, x ** 2)
        assert abs(trace_at_zero(f, 2) - 2.0) <= 1e-6

    def test_kernel_slope(self):
        h = 1e-3
        x = np.arange(-1.0, 1.0 + h / 2, h)
        f = GridFunction(x[0], h, airy_scaled(x))
        assert abs(trace_at_zero(f, 1) - airy_scaled_deriv(0.0)) <= 1e-6

    def test_step_side_selection(self):
        h = 1e-3
        x = np.arange(-1.0, 1.0 + h / 2, h)
        f = GridFunction(x[0], h, (x > 0).astype(float))
        assert trace_at_zero(f, 0, side="left") == pytest.approx(0.0, abs=1e-12)
        assert trace_at_zero(f, 0, side="right") == pytest.approx(1.0, abs=1e-12)

    def test_field_input_returns_trace(self):
        h = 0.05
        x = np.arange(-3.0, 3.0, h)
        levels = np.array([c * x ** 2 for c in (1.0, 2.0, 3.0)])
        fld = SpaceTimeField(x[0], h, 0.1, levels)
        tr = trace_at_zero(fld, 2)
        assert np.allclose(tr.samples, [2.0, 4.0, 6.0], atol=1e-8)

    def test_errors(self):
        h = 0.1
        x = np.arange(0.05, 3.0, h)   # zero not on a node
        f = GridFunction(x[0], h, np.zeros(x.size))
        with pytest.raises(DomainError):
            trace_at_zero(f, 0)
        x2 = np.arange(-0.2, 3.0, h)  # too few nodes on the left
        f2 = GridFunction(x2[0], h, np.zeros(x2.size))
        with pytest.raises(DomainError):
            trace_at_zero(f2, 0, side="left")
        with pytest.raises(DomainError):
            trace_at_zero(f2, 3)


class TestSobolev:
    def test_parseval(self):
        h = 0.02
        x = np.arange(-40.0, 40.0, h)
        g = GridFunction(x[0], h, np.exp(-x ** 2 / 2.0))
        l2 = math.sqrt(np.sum(g.samples ** 2) * h)
        assert abs(sobolev_norm(g, 0.0) - l2) / l2 <= 1e-8

    def test_monotone_in_s(self):
        h = 0.02
        x = np.arange(-40.0, 40.0, h)
        g = GridFunction(x[0], h, np.exp(-x ** 2 / 2.0))
        assert sobolev_norm(g, 1.0) >= sobolev_norm(g, 0.0)

    def test_closed_form_weighted_norm(self):
        # for exp(-x^2/2): norm^2 = int (1+|xi|)^2 exp(-xi^2) dxi
        h = 0.02
        x = np.arange(-1280.0, 1280.0, h)
        g = GridFunction(x[0], h, np.exp(-x ** 2 / 2.0))
        oracle = quad(lambda xi: (1 + abs(xi)) ** 2 * math.exp(-xi ** 2),
                      -np.inf, np.inf, limit=200)[0]
        closed = math.sqrt(1.5 * math.sqrt(math.pi) + 2.0)
        assert math.sqrt(oracle) == pytest.approx(closed, abs=1e-10)
        assert abs(sobolev_norm(g, 1.0) - closed) <= 1e-6

    def test_domain(self):
        h = 0.02
        x = np.arange(-40.0, 40.0, h)
        g = GridFunction(x[0], h, np.exp(-x ** 2 / 2.0))
        with pytest.raises(DomainError):
            sobolev_norm(g, 2.5)

    def test_complex_samples_rejected(self):
        h = 0.02
        x = np.arange(-40.0, 40.0, h)
        g = GridFunction(x[0], h, np.exp(-x ** 2 / 2.0) * (1.0 + 0.5j))
        with pytest.raises(ContractError, match="sobolev_norm"):
            sobolev_norm(g, 1.0)


def test_group_trace_history_matches_field():
    h = 0.05
    x = np.arange(-120.0, 120.0, h)
    phi = GridFunction(x[0], h, InitialProfile("gaussian", 1.0, 3.0, 1.2)(x))
    times = np.array([0.0, 0.1, 0.2, 0.3])
    fld = group_multi(phi, times)
    i0 = fld.index_of_zero()
    tr = group_trace_history(phi, times)
    assert np.abs(tr - fld.levels[:, i0]).max() <= 1e-10


TRACE_LADDER_ENTRIES = {
    "trace_d0": lambda phi, times, **kw: group_trace_history(phi, times, 0, **kw),
    "trace_d1": lambda phi, times, **kw: group_trace_history(phi, times, 1, **kw),
    "trace_d2": lambda phi, times, **kw: group_trace_history(phi, times, 2, **kw),
    "group": lambda phi, times, **kw: group_multi(phi, times, **kw).levels,
}


@pytest.mark.parametrize("entry", TRACE_LADDER_ENTRIES)
def test_trace_ladder_gives_the_output_times(entry):
    # a ladder whose output times are every 20th of 501 trace times: each
    # entry returns its values at the output times, as it does given no
    # ladder; the two phase pairs (over the trace, over the output times)
    # round differently, far below the bound
    h = 0.05
    x = np.arange(-20.0, 20.0 + h / 2, h)
    phi = GridFunction(x[0], h, InitialProfile("gaussian", 1.0, 3.0, 1.2)(x))
    ladder = Ladder.over(phi, 0.5, 1e-3, 26)
    call = TRACE_LADDER_ENTRIES[entry]
    want = call(phi, ladder.times)
    got = call(phi, ladder.times, ladder=ladder)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _other_ladders(phi, times):
    """Ladders on phi's grid and ladder but for one of the grid size, spacing
    or origin, the time step or the number of times."""
    n, h, x0 = len(phi), phi.spacing, phi.origin
    return [Ladder(GridFunction(x0, h, np.zeros(n - 1)), times),
            Ladder(GridFunction(x0, h / 2, np.zeros(n)), times),
            Ladder(GridFunction(x0 + h, h, np.zeros(n)), times),
            Ladder(phi, 2 * times), Ladder(phi, times[:-1])]


EPS = np.finfo(float).eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(8, 300), h=st.floats(0.01, 0.5), dt=st.floats(1e-4, 1e-2),
       stride=st.integers(1, 40), n_out=st.integers(2, 30), extra=st.integers(0, 7))
@example(n=64, h=0.1, dt=1e-3, stride=100, n_out=3, extra=0)   # q = s: p^q is coarse row 1
def test_pair_rows_are_the_trace_phases(n, h, dt, stride, n_out, extra):
    # output row m is coarse[k // s] * fine[k % s], k = stride m, and the
    # Filon powers p^j are trace rows j, all n // 2 + 1 wide.  Each form
    # rounds its phase t xi^3 to its own ulp, so they agree to a few ulps of
    # the phase
    grid = GridFunction(-h * (n // 2), h, np.zeros(n))
    ladder = Ladder(grid, dt * (stride * np.arange(n_out)), dt,
                    stride * (n_out - 1) + 1 + extra)
    xi3 = np.abs(frequencies(n, h)[:n // 2 + 1]) ** 3

    def agree(got, t):
        bound = 4 * EPS * (1.0 + np.outer(t, xi3))
        assert np.all(np.abs(got - trace_phases(n, h, t)) <= bound)

    agree(ladder.output_phases(), ladder.times)
    q = min(stride, math.isqrt(stride * (n_out - 1)) + 1)
    agree(ladder.trace_rows(np.arange(q + 1)), dt * np.arange(q + 1))
    (pq, pr), _ = forcing.filon_tables(ladder)
    agree(np.vstack([pq, pr]), dt * np.array([q, stride % q]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(16, 400), h=st.floats(0.02, 0.5), dt=st.floats(1e-4, 1e-2),
       stride=st.integers(1, 20), m=st.integers(2, 12), deriv=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=64, h=0.1, dt=1e-3, stride=5, m=11, deriv=1, seed=0)
@example(n=65, h=0.1, dt=1e-3, stride=5, m=11, deriv=1, seed=0)
def test_half_spectrum_matches_full_spectrum(n, h, dt, stride, m, deriv, seed):
    # real data: traces over the trace and free flows at the output times
    # from the half spectrum (weight 2 on 0 < xi < Nyquist) against the
    # full-spectrum route on a full-width pair of the same ladder, in the
    # exp form (the bits of the half-width tables, test_equals_exp_form).
    # Windowed noise keeps the Nyquist bin of even n in play.  The routes
    # differ by FFT and summation rounding (n ulps of the data scale) and
    # because cos and sin of large phases are not exactly even and odd: the
    # full route's conjugate bins differ by a few ulps of the phase t xi^3
    rng = np.random.default_rng(seed)
    i0 = int(rng.integers(1, n - 1))
    phi = GridFunction(-h * i0, h, np.hanning(n) * rng.standard_normal(n))
    ladder = Ladder(phi, dt * (stride * np.arange(m)), dt, stride * (m - 1) + 1)
    ladder.pair = ladder.phase_pair()
    over = Ladder(phi, ladder.trace)
    over.pair = ladder.pair
    xi, spec = frequencies(n, h), np.fft.fft(phi.samples)
    s = math.isqrt(ladder.n_trace - 1) + 1
    coarse, fine = (np.exp(1j * np.outer(t, xi ** 3))
                    for t in (ladder.trace[::s], ladder.trace[:s]))
    full = spec / n * np.exp(-1j * xi * phi.origin) * (1j * xi) ** deriv
    want = ((coarse * full) @ fine.T).reshape(-1)[:ladder.n_trace].real
    got = group_trace_history(phi, ladder.trace, deriv, over)
    phase_ulps = 4 * EPS * (1.0 + np.outer(ladder.trace, np.abs(xi) ** 3))
    bound = (EPS * np.abs(spec).sum() * max(1.0, np.abs(xi).max()) ** deriv
             + phase_ulps @ np.abs(full))
    assert not np.iscomplexobj(got)
    assert np.all(np.abs(got - want) <= bound)
    k = stride * np.arange(m)
    want = np.fft.ifft(coarse[k // s] * fine[k % s] * spec, axis=1).real
    got = group_multi(phi, ladder.times, ladder=ladder).levels
    phase_ulps = 4 * EPS * (1.0 + np.outer(ladder.times, np.abs(xi) ** 3))
    bound = n * EPS * np.linalg.norm(phi.samples) + phase_ulps @ np.abs(spec) / n
    assert got.shape == want.shape and not np.iscomplexobj(got)
    assert np.all(np.abs(got - want).max(axis=1) <= bound)


class TestTracePhases:
    def test_equals_exp_form(self):
        # spacing 0.01 puts t xi^3 up to ~1.6e7: the large-argument range
        # of cos and sin as well as the small one near t = 0
        n, h = 2048, 0.01
        times = 5e-3 * np.arange(101)
        want = np.exp(1j * np.outer(times, frequencies(n, h)[:n // 2 + 1] ** 3))
        assert np.array_equal(trace_phases(n, h, times), want)

    @pytest.mark.parametrize("m", [2, 3, 4, 26, 101, 501])
    def test_ladder_pair_reproduces_trace_phases(self, m):
        # row js + r of the full matrix is coarse row j times fine row r.
        # Both forms round the phase t xi^3 to its own ulp, so they agree to
        # 1e-13 where |t xi^3| stays below ~100 (h = 0.5) and to a few ulps
        # of the phase on a fine grid (h = 0.01, phases up to 1.5e7)
        times = 1e-3 * np.arange(m)
        s = math.ceil(math.sqrt(m))
        for n, h, tol in ((64, 0.5, 1e-13), (2048, 0.01, None)):
            coarse, fine = ladder_phases(n, h, times)
            half = n // 2 + 1
            assert coarse.shape == (math.ceil(m / s), half) and fine.shape == (s, half)
            full = (coarse[:, None, :] * fine[None, :, :]).reshape(-1, half)[:m]
            err = np.abs(full - trace_phases(n, h, times))
            if tol is None:
                phase = np.abs(np.outer(times, frequencies(n, h)[:half] ** 3))
                tol = 4 * np.finfo(float).eps * (1.0 + phase)
            assert np.all(err <= tol)

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_prebuilt_matrix_gives_the_same_history(self, kind, deriv):
        h = 0.05
        x = np.arange(-60.0, 60.0, h)
        prof = InitialProfile("gaussian", 1.0, 3.0, 1.2)(x)
        if kind == "complex":
            prof = prof * np.exp(0.7j * x)
        times = 1e-3 * np.arange(201)
        ladder = Ladder(GridFunction(x[0], h, prof.real), times)
        ladder.pair = ladder.phase_pair()
        # the history is real: complex data run as their two real parts
        got = []
        for part in (prof.real, prof.imag) if kind == "complex" else (prof,):
            phi = GridFunction(x[0], h, part)
            got.append(group_trace_history(phi, times, deriv, ladder))
            assert np.array_equal(got[-1], group_trace_history(phi, times, deriv))
            assert not np.iscomplexobj(got[-1])
        got = got[0] + 1j * got[1] if kind == "complex" else got[0]
        # the factorized history is the full phase-matrix product
        spec = np.fft.fft(prof) / x.size
        xi = frequencies(x.size, h)
        spec = spec * np.exp(-1j * xi * x[0]) * (1j * xi) ** deriv
        want = np.exp(1j * np.outer(times, xi ** 3)) @ spec
        want = want if kind == "complex" else want.real
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_prebuilt_pair_gives_the_same_group(self, kind):
        # one ladder's phase pair for several calls, as the free flows of
        # picard_iterate and assemble_linear_solution hold it
        h = 0.05
        x = np.arange(-30.0, 30.0, h)
        prof = InitialProfile("gaussian", 1.0, 3.0, 1.2)(x)
        if kind == "complex":
            prof = prof * np.exp(0.7j * x)
        times = 0.02 * np.arange(11)
        ladder = Ladder(GridFunction(x[0], h, prof.real), times)
        ladder.pair = ladder.phase_pair()
        # the group is real: complex data run as their two real parts
        parts = (prof.real, prof.imag) if kind == "complex" else (prof,)
        for p in parts * 2:
            phi = GridFunction(x[0], h, p)
            got = group_multi(phi, times, ladder=ladder).levels
            assert np.array_equal(got, group_multi(phi, times).levels)
            assert not np.iscomplexobj(got)

    def test_mismatched_output_table_rejected(self):
        h = 0.05
        x = np.arange(-30.0, 30.0, h)
        phi = GridFunction(x[0], h, InitialProfile("gaussian", 1.0, 3.0, 1.2)(x))
        times = 0.02 * np.arange(11)
        for bad in _other_ladders(phi, times):
            bad.pair = bad.phase_pair()
            with pytest.raises(ContractError, match="ladder was built"):
                group_multi(phi, times, ladder=bad)

    def test_mismatched_matrix_rejected(self):
        h = 0.05
        x = np.arange(-60.0, 60.0, h)
        phi = GridFunction(x[0], h, InitialProfile("gaussian", 1.0, 3.0, 1.2)(x))
        times = 1e-3 * np.arange(11)
        for bad in _other_ladders(phi, times):
            bad.pair = bad.phase_pair()
            with pytest.raises(ContractError, match="ladder was built"):
                group_trace_history(phi, times, 0, bad)

    @pytest.mark.parametrize("deriv", [-1, 1.5, 2.0, "1"])
    def test_derivative_order_must_be_a_whole_number(self, deriv):
        # unchecked, -1 gives nan with a RuntimeWarning and 1.5 a fractional
        # derivative no caller asks for
        h = 0.05
        x = np.arange(-60.0, 60.0, h)
        phi = GridFunction(x[0], h, InitialProfile("gaussian", 1.0, 3.0, 1.2)(x))
        with pytest.raises(DomainError, match="deriv"):
            group_trace_history(phi, 1e-3 * np.arange(11), deriv)

    @pytest.mark.parametrize("times", [1e-3 * np.arange(1, 12),
                                       1e-3 * np.arange(11) ** 1.5,
                                       np.array([0.0])],
                             ids=["late-start", "non-uniform", "single"])
    def test_ladder_must_be_uniform_from_zero(self, times):
        h = 0.05
        x = np.arange(-60.0, 60.0, h)
        phi = GridFunction(x[0], h, InitialProfile("gaussian", 1.0, 3.0, 1.2)(x))
        with pytest.raises(ContractError):
            Ladder(phi, times)
        with pytest.raises(ContractError):
            group_trace_history(phi, times)
        if times.size > 1:
            ladder = Ladder(phi, 1e-3 * np.arange(times.size))
            ladder.pair = ladder.phase_pair()
            with pytest.raises(ContractError):
                group_trace_history(phi, times, 0, ladder)

    def test_assembly_builds_one_matrix(self, monkeypatch):
        # one ladder pair for all nine trace histories, and no phase table
        # anywhere in the assembly with more than 2 ceil(sqrt(M)) rows
        built = []

        def counting(*args):
            built.append(args)
            return trace_phases(*args)

        monkeypatch.setattr(linops, "trace_phases", counting)
        ladders, pairs = [], linops.ladder_phases

        def counting_pairs(*args):
            ladders.append(args)
            return pairs(*args)

        monkeypatch.setattr(linops, "ladder_phases", counting_pairs)
        h = 0.05
        gx = np.arange(-20.0, 20.0, h)
        u0 = GridFunction(gx[0], h, InitialProfile("gaussian", 0.5, -8.0, 1.2)(gx))
        v0 = GridFunction(gx[0], h, InitialProfile("gaussian", 0.4, 7.0, 1.1)(gx))
        w0 = GridFunction(gx[0], h, InitialProfile("gaussian", 0.3, 9.0, 1.3)(gx))
        vertex.assemble_linear_solution(
            u0, v0, w0, vertex.VertexCoupling.special_type1(1.0, 1.0, 0.0, 0.0),
            vertex.LambdaVector(0.05, 0.3, 0.05, 0.05), T=0.05, n_levels=11,
            trace_dt=1e-3)
        tt = Ladder.over(u0, 0.05, 1e-3, 11).trace
        assert len(ladders) == 1
        assert ladders[0][:2] == (len(u0), h)
        assert np.array_equal(ladders[0][2], tt)
        assert max(len(b[2]) for b in built) <= 2 * math.ceil(math.sqrt(tt.size))
