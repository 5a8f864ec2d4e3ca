"""Duhamel boundary forcing operators for the linear KdV flow.

The base operator turns a causal boundary trace g into a whole-line field
whose vertex value reproduces g,

    V g(x, t) = 3 * integral_0^t A(x / (t-t')^{1/3})
                  * I_{-2/3} g(t') / (t-t')^{1/3} dt'.

Two evaluation routes are provided and cross-checked by the test suite:

* ``simpson`` -- the explicit kernel formula after the substitution
  t - t' = sigma^3 (which removes the singular factor), with composite
  Simpson in sigma.  Accurate for vertex traces and on the decaying side,
  but its quadrature error in the Airy-oscillation region x << 0 is not
  smooth from node to node, so spatial derivatives of the field amplify it.
* ``spectral`` -- per-frequency exact (Filon) integration of the Duhamel
  integral for a piecewise-linear trace, inverted by FFT.  The error is a
  smooth function of x, which keeps finite-difference derivatives, jump
  extraction and residual checks meaningful.

The generalized classes convolve V output with one-sided power kernels
x_+^{lambda-1}/Gamma(lambda) (minus class) or their reflected complex
counterparts (plus class) by product integration, reusing the fractional
integration weights.  :func:`forcing_class` is the one entry point: V is
the lambda = 0 minus class and its companion V^{-1} the lambda = -1 minus
class.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.signal import fftconvolve

from .errors import ContractError, DomainError
from .fracops import (TimeTrace, riemann_liouville, product_weights,
                      _first_sample_correction, sampled_derivative,
                      vertex_limit)
from .linops import GridFunction, SpaceTimeField, frequencies, group_multi, \
    group_trace_history, ladder_phases
from .specfun import airy_scaled

DEFAULT_PANELS = 200


def _require_causal(g: TimeTrace, who: str):
    if not g.causal:
        raise ContractError(f"{who} requires a causal trace")


def _check_times(times, dt_trace, n_trace):
    """Output times must sit on the trace grid and start at 0."""
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ContractError("need at least two output times")
    if not np.isfinite(times).all():
        raise ContractError("output times must be finite")
    idx = np.round(times / dt_trace).astype(int)
    if times[0] != 0.0 or not np.allclose(idx * dt_trace, times,
                                          rtol=1e-9, atol=1e-12):
        raise ContractError("output times must start at 0 and sit on the trace grid")
    if idx.max() >= n_trace:
        raise DomainError("output times exceed the trace length")
    steps = np.diff(idx)
    if not np.all(steps == steps[0]) or steps[0] <= 0:
        raise ContractError("output times must be uniformly spaced")
    return idx


# ---------------------------------------------------------------------------
# sigma-substitution Simpson route
# ---------------------------------------------------------------------------

def _sigma_field(smoothed: TimeTrace, grid: GridFunction, times):
    """9 * int_0^{t^{1/3}} A(x/s) s f(t - s^3) ds per output time."""
    idx = _check_times(times, smoothed.dt, len(smoothed))
    times = np.asarray(times, dtype=float)
    x = grid.x
    tf = smoothed.times
    fs = smoothed.samples
    is_c = smoothed.is_complex
    levels = np.zeros((times.size, x.size), dtype=complex if is_c else float)
    for m, t in enumerate(times):
        if t == 0.0:
            continue
        top = t ** (1.0 / 3.0)
        n_nodes = 2 * DEFAULT_PANELS + 1
        sig = np.linspace(0.0, top, n_nodes)
        w = np.empty(n_nodes)
        hstep = top / (2 * DEFAULT_PANELS)
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= hstep / 3.0
        fvals = np.interp(t - sig[1:] ** 3, tf, fs.real)
        if is_c:
            fvals = fvals + 1j * np.interp(t - sig[1:] ** 3, tf, fs.imag)
        kmat = airy_scaled(x[:, None] / sig[None, 1:])
        levels[m] = 9.0 * (kmat * (sig[1:] * w[1:] * fvals)).sum(axis=1)
    dt_out = times[1] - times[0]
    return SpaceTimeField(grid.origin, grid.spacing, dt_out, levels)


# ---------------------------------------------------------------------------
# spectral (Filon) route
# ---------------------------------------------------------------------------

def _filon_base(omega, dt):
    """E0 = int_0^dt e^{i w tau} dtau and E1 = int_0^dt tau e^{i w tau} dtau."""
    wd = omega * dt
    small = np.abs(wd) < 1e-2
    iw = 1j * omega
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.exp(1j * wd)
        e0 = (p - 1.0) / iw
        e1 = dt * p / iw - e0 / iw
    z = 1j * wd
    s0 = dt * (1 + z / 2 + z ** 2 / 6 + z ** 3 / 24 + z ** 4 / 120)
    s1 = dt ** 2 * (0.5 + z / 3 + z ** 2 / 8 + z ** 3 / 30 + z ** 4 / 144)
    e0 = np.where(small, s0, e0)
    e1 = np.where(small, s1, e1)
    return p, e0, e1


SMOOTH_PASSBAND, SMOOTH_ROLL = 0.35, 0.2   # of the band edge: smooth_window


def smooth_window(n: int, spacing: float) -> np.ndarray:
    """Flat passband with a Gaussian roll-off above it.

    The Gaussian transition has no side lobes, so a windowed step settles to
    its one-sided values within a dozen nodes instead of ringing like the
    raw band-limited (Gibbs) step.  Content below ``SMOOTH_PASSBAND`` of the
    band edge is untouched.
    """
    xi = np.abs(frequencies(n, spacing))
    cut = SMOOTH_PASSBAND * xi.max()
    width = SMOOTH_ROLL * xi.max()
    out = np.ones(n)
    hi = xi > cut
    out[hi] = np.exp(-(((xi[hi] - cut) / width) ** 2))
    return out


# nodes from the vertex, on either side, that clear the smooth_window
# transition: limits of windowed derivative fields are read from a fit here
SMOOTH_FIT_WINDOW = (12, 28)


def _filon_field(smoothed: TimeTrace, grid: GridFunction, times, mult,
                 real: bool) -> SpaceTimeField:
    """Filon recurrence shared by the spectral routes.

    phi(t) = int_0^t exp(i (t-t') xi^3) f(t') dt' advances exactly per cell
    for the piecewise-linear interpolant of f: phi <- p phi + b f_m + a f_{m+1}
    (b = e1/dt, a = e0 - b); over c cells from node k, phi <- p^c phi +
    sum_i p^{c-1-i} (b f_{k+i} + a f_{k+i+1}).  Each output stride is nb blocks
    of q ~ sqrt(M) of the M cells and one of the r left: one product per block length
    and a loop over blocks, with tables of q rows whatever the stride.  Each
    level is ifft(3 phi mult), ``mult`` holding the frequency filter with the
    grid phase and 1/spacing.  ``real`` keeps the real part.
    """
    idx = _check_times(times, smoothed.dt, len(smoothed))
    n, s = len(grid), int(idx[1])
    q = min(s, math.isqrt(int(idx[-1])) + 1)
    (nb, r), first = divmod(s, q), s * np.arange(idx.size - 1)
    p, e0, e1 = _filon_base(frequencies(n, grid.spacing) ** 3, smoothed.dt)
    pw = np.cumprod(np.vstack([np.ones(n), np.broadcast_to(p, (q, n))]), axis=0)
    rb = pw[q - 1::-1] * (e1 / smoothed.dt)          # rows p^{q-1} b .. b
    ra = pw[q - 1::-1] * (e0 - e1 / smoothed.dt)     # rows p^{q-1} a .. a

    def gain(c, k):   # the sum over c cells from each node k, in one product
        coef = np.vstack([rb[q - c:], np.zeros(n)])
        coef[1:] += ra[q - c:]
        return np.lib.stride_tricks.sliding_window_view(smoothed.samples, c + 1)[k] @ coef
    blocks = (first[:, None] + q * np.arange(nb)).ravel()
    full, rest = gain(q, blocks).reshape(-1, nb, n), gain(r, first + nb * q)
    levels = np.zeros((idx.size, n), dtype=complex)   # level 0 (t = 0) stays zero
    for k in range(idx.size - 1):
        phi = levels[k]
        for g in full[k]:
            phi = pw[q] * phi + g
        levels[k + 1] = pw[r] * phi + rest[k] if r else phi
    del full, rest     # and scale in place: the transform adds only its output
    levels *= 3.0
    levels *= mult
    levels = np.fft.ifft(levels, axis=1)
    if real:
        levels = levels.real
    dt_out = float(times[1] - times[0])
    return SpaceTimeField(grid.origin, grid.spacing, dt_out, levels)


def spectral_forcing_field(smoothed: TimeTrace, grid: GridFunction, times,
                           deriv: int = 0,
                           window: str | None = None) -> SpaceTimeField:
    """Field of 3 * int_0^t exp(-(t-t') dx^3) delta_0 f(t') dt'.

    ``smoothed`` is the already fractionally-smoothed trace f (for V g it is
    I_{-2/3} g).  The time integral is exact per cell for the piecewise-
    linear interpolant of f; ``deriv`` applies (i xi)^j in frequency space.
    window="smooth" applies :func:`smooth_window`, which derivative fields
    with vertex steps need before any polynomial limit extraction.
    """
    n = len(grid)
    xi = frequencies(n, grid.spacing)
    mult = (1j * xi) ** deriv * np.exp(1j * xi * grid.origin) / grid.spacing
    if window == "smooth":
        mult = mult * smooth_window(n, grid.spacing)
    elif window is not None:
        raise DomainError(f"unknown window {window!r}")
    return _filon_field(smoothed, grid, times, mult, not smoothed.is_complex)


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------

def duhamel_forcing(g: TimeTrace, grid: GridFunction, times,
                    method: str = "simpson") -> SpaceTimeField:
    """V g, the order-0 minus class; V g(0, t) = g(t)."""
    return forcing_class(0.0, "minus", g, grid, times, method=method)


def duhamel_forcing_deriv(g: TimeTrace, grid: GridFunction, times,
                          method: str = "spectral") -> SpaceTimeField:
    """The companion V^{-1} g = d/dx V I_{1/3} g, the order -1 minus class.

    Its vertex value is -g(t).  The spectral default keeps the x-derivative
    noise-free; "simpson" differentiates the sigma-route field of I_{1/3} g.
    """
    return forcing_class(-1.0, "minus", g, grid, times, method=method)


def field_spatial_derivative(fld: SpaceTimeField, order: int) -> SpaceTimeField:
    """Differentiate each level in x with single-pass stencils."""
    out = sampled_derivative(fld.levels, fld.spacing, order)
    return SpaceTimeField(fld.origin, fld.spacing, fld.dt, out)


def _one_sided_convolve(levels: np.ndarray, spacing: float, lam: float,
                        from_left: bool) -> np.ndarray:
    """Product integration of x_+^{lam-1}/Gamma(lam) against each level.

    from_left=True computes int_0^inf y^{lam-1} W(x - y) dy (minus class);
    otherwise int_0^inf y^{lam-1} W(x + y) dy.  The field is assumed
    negligible beyond the grid on the side the tail points to, which holds
    for V output by its rapid two-sided decay.
    """
    n = levels.shape[1]
    c = product_weights(lam, n)
    corr = _first_sample_correction(lam, n)
    work = levels if from_left else levels[:, ::-1]
    conv = fftconvolve(work, c[None, :], axes=1)[:, :n]
    conv = conv + np.outer(work[:, 0], corr)
    if not from_left:
        conv = conv[:, ::-1]
    return (spacing ** lam / math.gamma(lam + 2.0)) * conv


def forcing_class(lam: float, sign: str, g: TimeTrace, grid: GridFunction,
                  times, method: str = "spectral") -> SpaceTimeField:
    """The field of the generalized forcing operator of order lam.

    lam in (-2, 1).  Order 0 is V; negative orders follow the reduction
    d^k/dx^k of the order lam+k class applied to I_{k/3} g, so order -1 of
    the minus class is the companion V^{-1}.  The plus class carries the
    complex phase e^{i pi lam}.  The grid must have an interior node at 0.
    """
    if sign not in ("minus", "plus"):
        raise DomainError(f"sign must be 'minus' or 'plus', got {sign!r}")
    if not -2.0 < lam < 1.0:
        raise DomainError(f"lambda must lie in (-2, 1), got {lam}")
    if method not in ("spectral", "simpson"):
        raise DomainError(f"unknown method {method!r}")
    _require_causal(g, "forcing_class")
    grid.index_of_zero()

    # single fractional call; the semigroup law collapses the class
    # smoothing chain into I_{-(2+lam)/3} g
    smoothed = riemann_liouville(g, -(2.0 + lam) / 3.0)

    if method == "spectral":
        if lam < 0.0:
            # the one-sided power kernel acts as the Fourier multiplier
            # (i xi)^{-lam}; for negative orders it vanishes at xi = 0 and
            # the class field decays on both sides, so the multiplier route
            # is exact where the x-space convolution would have to
            # differentiate through the vertex
            return _spectral_class_negative(smoothed, grid, times, lam, sign)
        return _convolved_class(spectral_forcing_field(smoothed, grid, times),
                                grid, lam, sign)
    base = _sigma_field(smoothed, grid, times)
    if lam < 0.0:
        k = int(math.ceil(-lam))
        return field_spatial_derivative(
            _convolved_class(base, grid, lam + k, sign), k)
    return _convolved_class(base, grid, lam, sign)


def _convolved_class(base: SpaceTimeField, grid: GridFunction, lam: float,
                     sign: str) -> SpaceTimeField:
    """Class field of order lam >= 0 from the base field; order 0 is V."""
    levels = base.levels.astype(complex) if sign == "plus" else base.levels
    if lam > 0.0:
        levels = _one_sided_convolve(levels, grid.spacing, lam,
                                     from_left=(sign == "minus"))
        if sign == "plus":
            levels = cmath.exp(1j * math.pi * lam) * levels
    return SpaceTimeField(base.origin, base.spacing, base.dt, levels)


def _spectral_class_negative(smoothed: TimeTrace, grid: GridFunction, times,
                             lam: float, sign: str) -> SpaceTimeField:
    """Negative-order class via the power-kernel Fourier multiplier.

    x_+^{lam-1}/Gamma(lam) has transform (i xi)^{-lam}; the reflected
    complex kernel of the plus class contributes e^{i pi lam} (-i xi)^{-lam}.
    At lam = -1 both reduce to the plain derivative multiplier i xi.
    """
    n = len(grid)
    xi = frequencies(n, grid.spacing)
    mag = np.abs(xi) ** (-lam)
    if sign == "minus":
        kernel_mult = mag * np.exp(-1j * lam * 0.5 * math.pi * np.sign(xi))
    else:
        kernel_mult = cmath.exp(1j * math.pi * lam) * mag * \
            np.exp(1j * lam * 0.5 * math.pi * np.sign(xi))
    kernel_mult[xi == 0.0] = 0.0
    mult = kernel_mult * np.exp(1j * xi * grid.origin) / grid.spacing
    if lam < -1.0:
        mult = mult * smooth_window(n, grid.spacing)
    return _filon_field(smoothed, grid, times, mult,
                        sign == "minus" and not smoothed.is_complex)


def minus_trace_factor(lam: float) -> float:
    """Vertex value multiplier of the minus class: 2 sin(pi lam/3 + pi/6)."""
    return 2.0 * math.sin(math.pi * lam / 3.0 + math.pi / 6.0)


def plus_trace_factor(lam: float) -> complex:
    """Vertex value multiplier of the plus class: e^{i pi lam}."""
    return cmath.exp(1j * math.pi * lam)


def one_sided_limits(fld: SpaceTimeField, t: float,
                     fit_window: tuple[int, int] | None = None):
    """(left, right) limits at x = 0 of one level.

    Default: the cubic through the first four nodes on each side, exact for
    sampled piecewise cubics (and the unit step).  ``fit_window=(j0, j1)``
    reads the least-squares quadratic over nodes j0..j1 instead, the right
    tool for smooth-windowed spectral derivative fields whose transition
    occupies the first dozen nodes (:data:`SMOOTH_FIT_WINDOW`).
    """
    lev = fld.level_at(t)
    i0 = lev.index_of_zero()
    window = None if fit_window is None else tuple(fit_window)
    return tuple(vertex_limit(lev.samples, i0, lev.spacing, side, 0, window)
                 for side in ("left", "right"))


def halfline_construct_right(phi: GridFunction, g: TimeTrace,
                             times) -> SpaceTimeField:
    """Solution of the right half-line linear problem with Dirichlet datum g.

    v = exp(-t dx^3) phi + V(g - trace of the free flow at 0).
    """
    _require_causal(g, "halfline_construct_right")
    free = group_multi(phi, times)
    free_trace = group_trace_history(phi, g.times)
    corr = TimeTrace(g.dt, g.samples - free_trace, True)
    forced = duhamel_forcing(corr, phi, times)
    return SpaceTimeField(free.origin, free.spacing, free.dt,
                          free.levels + forced.levels)


HALFLINE_LEFT_MATRIX = np.array([[2.0, -1.0], [-1.0, -1.0]]) / 3.0


def halfline_construct_left(phi: GridFunction, g: TimeTrace, h: TimeTrace,
                            times) -> SpaceTimeField:
    """Left half-line linear problem with Dirichlet g and left Neumann h.

    The boundary forcers are V h1 + V^{-1} h2 with (h1, h2) given by the
    2x2 weight matrix applied to (g - free trace, I_{1/3}(h - free Neumann
    trace)).
    """
    _require_causal(g, "halfline_construct_left")
    _require_causal(h, "halfline_construct_left")
    if g.dt != h.dt or len(g) != len(h):
        raise ContractError("g and h must share one time grid")
    free = group_multi(phi, times)
    phases = ladder_phases(len(phi), phi.spacing, g.times)
    tr0, tr1 = (group_trace_history(phi, g.times, j, phases) for j in (0, 1))
    alpha = g.samples - tr0
    beta = riemann_liouville(TimeTrace(g.dt, h.samples - tr1, True), 1.0 / 3.0).samples
    h1, h2 = (TimeTrace(g.dt, row[0] * alpha + row[1] * beta, True)
              for row in HALFLINE_LEFT_MATRIX)
    v1 = duhamel_forcing(h1, free.level(0), times, method="spectral")
    v2 = duhamel_forcing_deriv(h2, free.level(0), times)
    return SpaceTimeField(free.origin, free.spacing, free.dt,
                          free.levels + v1.levels + v2.levels)
