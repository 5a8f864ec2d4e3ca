"""Duhamel boundary forcing operators for the linear KdV flow.

The base operator turns a causal boundary trace g into a whole-line field
whose vertex value reproduces g,

    V g(x, t) = 3 * integral_0^t A(x / (t-t')^{1/3})
                  * I_{-2/3} g(t') / (t-t')^{1/3} dt'.

Two evaluation routes are provided and cross-checked by the test suite:

* ``simpson`` -- the explicit kernel formula after the substitution
  t - t' = sigma^3 (which removes the singular factor), with composite
  Simpson in sigma.  Arguments are measured from the zero node, so the
  kernel at node offset k and Simpson node j is A(k h / sigma_j), a function
  of the ratio k/j alone: each level evaluates A once per reduced pair
  (k/g, j/g), g = gcd(k, j), at ascending arguments, and reads every other
  entry from it.  Accurate for vertex traces and on the decaying side,
  but its quadrature error in the Airy-oscillation region x << 0 is not
  smooth from node to node, so spatial derivatives of the field amplify it.
* ``spectral`` -- per-frequency exact (Filon) integration of the Duhamel
  integral for a piecewise-linear trace, inverted by FFT.  The error is a
  smooth function of x, which keeps finite-difference derivatives, jump
  extraction and residual checks meaningful.

The generalized classes convolve V output with one-sided power kernels
x_+^{lambda-1}/Gamma(lambda) (minus class) or their reflections (plus class)
by product integration, reusing the fractional integration weights.  Each
class is built by one phase-free core, :func:`phase_free_class`: every
operator in it is real, so it takes a real trace and runs the half spectrum
and the real convolution (ContractError on a complex trace).
:func:`forcing_class` is the one public class: the core for the minus
class, the core times the phase e^{i pi lambda} (:func:`plus_trace_factor`)
for the plus class.  It is the one entry that takes a complex trace: every
class is linear in g, so it runs the real and imaginary parts as two real
classes.  V is the lambda = 0 minus class and its companion V^{-1} the
lambda = -1 minus class.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ContractError, DomainError
from .fracops import (TimeTrace, riemann_liouville, product_weights,
                      _first_sample_correction, fftconvolve, real_only,
                      sampled_derivative, vertex_limit)
from .linops import (GridFunction, Ladder, SpaceTimeField, _filon_base, frequencies,
                     half_frequencies)
from .specfun import airy_scaled

DEFAULT_PANELS = 200
_SIMPSON_ROWS = 32    # kernel-matrix rows gathered per Simpson sum


# ---------------------------------------------------------------------------
# sigma-substitution Simpson route
# ---------------------------------------------------------------------------

def _ratio_table(n, i0, n_sig):
    """Reduced pairs of the (n, n_sig) kernel matrix of the sigma route.

    Entry (i, j - 1) is A(k h / sigma_j) with k = i - i0 and j = 1..n_sig,
    which equals the entry of the reduced pair (k/g, j/g), g = gcd(k, j).
    Returns the coprime pairs (p, q) in ascending order of p/q and, for
    every entry, the slot of its reduced pair among them; q and the slots
    are ``np.intp``, the index type gathers are fastest with.
    """
    itype = np.int32 if n * n_sig < 2 ** 31 else np.int64
    k = np.arange(-i0, n - i0, dtype=itype)[:, None]
    j = np.arange(1, n_sig + 1, dtype=itype)
    g = np.gcd(k, j)
    reduced = (k // g + i0) * n_sig + (j // g - 1)   # flat entry of the reduced pair
    coprime = g == 1
    p, q = (np.broadcast_to(a, g.shape)[coprime] for a in (k, j))
    order = np.argsort(p / q)
    p, q = p[order], q[order]
    slot = np.empty(n * n_sig, dtype=np.intp)
    slot[(p + i0) * n_sig + (q - 1)] = np.arange(p.size)
    return p, q.astype(np.intp), slot[reduced]


def _sigma_field(smoothed: TimeTrace, grid: GridFunction, times):
    """9 * int_0^{t^{1/3}} A(x/s) s f(t - s^3) ds per output time.

    Composite Simpson in s on 2 * DEFAULT_PANELS panels, s_j = j top / (2P).
    x is measured from the zero node, x = k h, so the kernel matrix entry
    A(k h / s_j) depends on k/j alone.  The reuse rule: each level makes one
    call of ``airy_scaled`` at (p h) / s_q for the coprime pairs (p, q) of
    :func:`_ratio_table`, which are ascending because s > 0.  The Simpson
    sum runs ``_SIMPSON_ROWS`` rows at a time, each block of the (n, 2P)
    matrix gathered by slot; a row's sum does not depend on its block, so
    the whole matrix is never built.  The caller checks ``times``.
    """
    n_nodes = 2 * DEFAULT_PANELS + 1
    p, q, slot = _ratio_table(len(grid), grid.index_of_zero(), n_nodes - 1)
    ph = p * grid.spacing
    tf = smoothed.times
    fs = real_only(smoothed.samples, "_sigma_field")
    levels = np.zeros((times.size, len(grid)))
    for m, t in enumerate(times):
        if t == 0.0:
            continue
        top = t ** (1.0 / 3.0)
        sig = np.linspace(0.0, top, n_nodes)
        w = np.empty(n_nodes)
        hstep = top / (2 * DEFAULT_PANELS)
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= hstep / 3.0
        fvals = np.interp(t - sig[1:] ** 3, tf, fs)
        kernel = airy_scaled(ph / sig[q])
        vec = sig[1:] * w[1:] * fvals
        for first in range(0, len(grid), _SIMPSON_ROWS):
            rows = slice(first, first + _SIMPSON_ROWS)
            levels[m, rows] = 9.0 * (kernel[slot[rows]] * vec).sum(axis=1)
    dt_out = times[1] - times[0]
    return SpaceTimeField(grid.origin, grid.spacing, dt_out, levels)


# ---------------------------------------------------------------------------
# spectral (Filon) route
# ---------------------------------------------------------------------------

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


def filon_tables(ladder: Ladder):
    """The part of :func:`_filon_field` that the grid, the trace step dt and the
    output times of ``ladder`` fix: the powers p^q and p^r (r = s mod q, s the
    output stride) and the gain coefficients of q and r cells, over the
    half spectrum."""
    s = ladder.stride
    q = min(s, math.isqrt(s * (ladder.times.size - 1)) + 1)
    _, e0, e1 = _filon_base(half_frequencies(ladder.n, ladder.spacing) ** 3, ladder.dt)
    pw = ladder.trace_rows(np.arange(q + 1))         # p^j = exp(i j dt xi^3)
    coefs = []
    for c in (q, s % q):    # row i weighs sample k + i of c cells
        rev, coef = pw[:c][::-1], np.zeros((c + 1, e0.size), dtype=complex)
        coef[:c] = rev * (e1 / ladder.dt)           # rows p^{c-1} b .. b
        coef[1:] += rev * (e0 - e1 / ladder.dt)     # rows p^{c-1} a .. a
        coefs.append(coef)
    return (pw[q].copy(), pw[s % q].copy()), tuple(coefs)


def _filon_field(smoothed: TimeTrace, ladder: Ladder, symbol,
                 window: bool) -> SpaceTimeField:
    """The one Filon recurrence of the spectral routes.

    phi(t) = int_0^t exp(i (t-t') xi^3) f(t') dt' advances exactly per cell
    for the piecewise-linear interpolant of f: phi <- p phi + b f_m + a f_{m+1}
    (b = e1/dt, a = e0 - b); over c cells from node k, phi <- p^c phi +
    sum_i p^{c-1-i} (b f_{k+i} + a f_{k+i+1}).  Each output stride is nb blocks
    of q ~ sqrt(M) of the M cells and one of the r left: one product per block length
    and a loop over blocks, with tables of q rows whatever the stride.  Each
    level is ifft(3 phi mult), mult = symbol(xi) e^{i xi origin} / spacing,
    times :func:`smooth_window` if ``window``; ``symbol`` is called only after
    the tables are built (unless ``ladder`` holds them), the allocation order
    construct's peak RSS was measured with.  Every symbol of the chain is
    Hermitian and the trace is real, so the field is real: it runs on the
    half spectrum, and ``irfft`` returns a float64 stack that owns its data.
    """
    real_only(smoothed.samples, "_filon_field")
    times, n, s = ladder.times, ladder.n, ladder.stride
    (pq, pr), (cq, cr) = filon_tables(ladder) if ladder.filon is None else ladder.filon
    xi = half_frequencies(n, ladder.spacing)
    mult = symbol(xi) * np.exp(1j * xi * ladder.origin) / ladder.spacing
    if window:
        mult = mult * smooth_window(n, ladder.spacing)[:xi.size]
    q = len(cq) - 1
    (nb, r), first = divmod(s, q), s * np.arange(len(times) - 1)
    cells = np.lib.stride_tricks.sliding_window_view   # c + 1 samples from each node
    blocks = (first[:, None] + q * np.arange(nb)).ravel()
    full = (cells(smoothed.samples, q + 1)[blocks] @ cq).reshape(-1, nb, mult.size)
    rest = cells(smoothed.samples, r + 1)[first + nb * q] @ cr if r else None
    levels = np.zeros((len(times), mult.size), dtype=complex)   # level 0 (t = 0) stays zero
    for k in range(len(times) - 1):
        phi = levels[k]
        for g in full[k]:
            phi = pq * phi + g
        levels[k + 1] = pr * phi + rest[k] if r else phi
    del full, rest     # then scale in place and transform
    levels *= 3.0
    levels *= mult
    return SpaceTimeField(ladder.origin, ladder.spacing, ladder.out_dt,
                          np.fft.irfft(levels, n, axis=1))


def spectral_forcing_field(smoothed: TimeTrace, grid: GridFunction, times,
                           deriv: int = 0, window: str | None = None,
                           ladder=None) -> SpaceTimeField:
    """Field of 3 * int_0^t exp(-(t-t') dx^3) delta_0 f(t') dt'.

    ``smoothed`` is the already fractionally-smoothed trace f (for V g it is
    I_{-2/3} g).  The time integral is exact per cell for the piecewise-
    linear interpolant of f; ``deriv`` applies (i xi)^j in frequency space.
    window="smooth" applies :func:`smooth_window`, which derivative fields
    with vertex steps need before any polynomial limit extraction.
    ``ladder`` may hold the Filon tables (:meth:`linops.Ladder.fit`).
    """
    if window not in (None, "smooth"):
        raise DomainError(f"unknown window {window!r}")
    ladder = Ladder(grid, times, smoothed.dt, len(smoothed)).fit(ladder)
    return _filon_field(smoothed, ladder, lambda xi: (1j * xi) ** deriv,
                        window == "smooth")


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


def _one_sided_convolve(levels: np.ndarray, spacing: float, lam: float,
                        from_left: bool) -> np.ndarray:
    """Product integration of x_+^{lam-1}/Gamma(lam) against each level,
    written over ``levels`` (the pass holds one transform buffer besides).

    from_left=True computes int_0^inf y^{lam-1} W(x - y) dy (minus class);
    otherwise int_0^inf y^{lam-1} W(x + y) dy.  The field is assumed
    negligible beyond the grid on the side the tail points to, which holds
    for V output by its rapid two-sided decay.
    """
    n = levels.shape[1]
    corr = _first_sample_correction(lam, n)
    work = levels if from_left else levels[:, ::-1]
    conv = fftconvolve(work, product_weights(lam, n))[:, :n]   # a view of the buffer
    for row, first in zip(conv, work[:, 0]):
        row += first * corr
    np.multiply(spacing ** lam / math.gamma(lam + 2.0), conv, out=work)
    return levels


def check_class_order(lam: float):
    """Raise DomainError unless lam is an order :func:`forcing_class` takes."""
    if not -2.0 < lam < 1.0:
        raise DomainError(f"lambda must lie in (-2, 1), got {lam}")


def forcing_class(lam: float, sign: str, g: TimeTrace, grid: GridFunction,
                  times, method: str = "spectral", ladder=None) -> SpaceTimeField:
    """The field of the generalized forcing operator of order lam.

    lam in (-2, 1).  Order 0 is V; negative orders follow the reduction
    d^k/dx^k of the order lam+k class applied to I_{k/3} g, so order -1 of
    the minus class is the companion V^{-1}.  The minus class is
    :func:`phase_free_class`; the plus class is that field times its complex
    phase :func:`plus_trace_factor` (lam).  A complex trace runs its real
    and imaginary parts as two real classes, since the class is linear in g.
    The grid must have an interior node at 0.  ``ladder`` may hold the Filon
    tables (:meth:`linops.Ladder.fit`).
    """
    if g.samples.dtype.kind == "c":
        re, im = (forcing_class(lam, sign, TimeTrace(g.dt, part, g.causal), grid, times,
                                method, ladder) for part in (g.samples.real, g.samples.imag))
        return SpaceTimeField(re.origin, re.spacing, re.dt, re.levels + 1j * im.levels)
    fld = phase_free_class(lam, sign, g, grid, times, method, ladder)
    if sign == "minus":
        return fld
    return SpaceTimeField(fld.origin, fld.spacing, fld.dt,
                          plus_trace_factor(lam) * fld.levels)


def phase_free_class(lam: float, sign: str, g: TimeTrace, grid: GridFunction,
                     times, method: str = "spectral", ladder=None) -> SpaceTimeField:
    """:func:`forcing_class` without the plus-class phase e^{i pi lam}.

    Every operator here is real -- the fractional smoothing, the Filon field
    of a Hermitian symbol, the one-sided convolution and the x-derivatives --
    so it takes a real trace (ContractError on a complex one), runs the half
    spectrum and the real convolution and gives a float64 field.  Its plus-class
    vertex value is g(t) itself; :func:`vertex.solve_vertex` solves for
    e^{i pi lam} gamma and forces the plus edges through this field.
    """
    if sign not in ("minus", "plus"):
        raise DomainError(f"sign must be 'minus' or 'plus', got {sign!r}")
    check_class_order(lam)
    if method not in ("spectral", "simpson"):
        raise DomainError(f"unknown method {method!r}")
    if not g.causal:
        raise ContractError("forcing_class requires a causal trace")
    real_only(g.samples, "phase_free_class")
    grid.index_of_zero()
    ladder = Ladder(grid, times, g.dt, len(g)).fit(ladder)

    # single fractional call; the semigroup law collapses the class
    # smoothing chain into I_{-(2+lam)/3} g
    smoothed = riemann_liouville(g, -(2.0 + lam) / 3.0)

    if method == "spectral" and lam < 0.0:
        # the one-sided power kernel acts as the Fourier multiplier
        # (i xi)^{-lam}; for negative orders it vanishes at xi = 0 and the
        # class field decays on both sides, so the multiplier route is exact
        # where the x-space convolution would have to differentiate through
        # the vertex
        return _filon_field(smoothed, ladder, _class_symbol(lam, sign), lam < -1.0)
    if method == "spectral":
        base = spectral_forcing_field(smoothed, grid, times, ladder=ladder)
    else:
        base = _sigma_field(smoothed, grid, ladder.times)
    return _convolved_class(base, lam, sign)


def _convolved_class(base: SpaceTimeField, lam: float, sign: str) -> SpaceTimeField:
    """Phase-free class field of order lam from the base field V: the power
    kernel at order lam + k, k = max(0, ceil(-lam)), then k x-derivatives,
    negated for the plus class when k is odd (its phase e^{i pi (lam + k)}
    is e^{i pi lam} (-1)^k).  The convolution overwrites the levels of
    ``base``, the caller's temporary."""
    k = max(0, math.ceil(-lam))
    levels = base.levels
    if lam + k > 0.0:
        levels = _one_sided_convolve(levels, base.spacing, lam + k,
                                     from_left=(sign == "minus"))
    if k:
        levels = sampled_derivative(levels, base.spacing, k)
        if sign == "plus" and k % 2:
            np.negative(levels, out=levels)
    return SpaceTimeField(base.origin, base.spacing, base.dt, levels)


def _class_symbol(lam: float, sign: str):
    """Fourier symbol of the power kernel of a negative-order class.

    x_+^{lam-1}/Gamma(lam) has transform (i xi)^{-lam}; the reflected kernel
    of the plus class, without its phase e^{i pi lam}, has (-i xi)^{-lam}.
    Both are Hermitian.  At lam = -1 they are i xi and -i xi.
    """
    turn = -1j if sign == "minus" else 1j
    return lambda xi: np.abs(xi) ** (-lam) * np.exp(turn * lam * 0.5 * math.pi * np.sign(xi))


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

