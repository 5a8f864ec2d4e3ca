"""Linear KdV machinery: the group exp(-t d^3/dx^3), the inhomogeneous
Duhamel operator, vertex trace extraction and discrete Sobolev norms.

The group is a Fourier multiplier exp(i t xi^3) applied on the periodized
grid; inputs must decay at both ends so periodization is harmless.  Data
are real, so every transform is real (``rfft``/``irfft``) and every phase
table holds the half spectrum, the first n // 2 + 1 DFT frequencies; the
kernels raise ContractError on complex samples.  The group over a time
ladder is one batched pass over all levels (one FFT, one phase matrix, one
inverse FFT), not a loop over times.  Every phase table is rows of one
coarse x fine pair of ~2 sqrt(M) rows over a trace of M times
(:meth:`Ladder.trace_rows`).  The chain has one time rule: every time
integral of exp(i (t - t') xi^3) against samples, the Duhamel integral of a
field and the forcing classes alike, advances exactly per cell for the
linear interpolant of the samples (:func:`_filon_base`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError
from .fracops import TimeTrace, checked_samples, real_only, vertex_limit

DECAY_TOL = 1e-8


@dataclass(frozen=True)
class GridFunction:
    """Uniform samples of a function on one interval."""

    origin: float
    spacing: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = checked_samples(self.samples, 1, "GridFunction samples")
        if not (self.spacing > 0):
            raise ContractError(f"GridFunction spacing must be positive, got {self.spacing}")
        object.__setattr__(self, "samples", arr)

    def __len__(self):
        return self.samples.size

    @property
    def x(self):
        return self.origin + self.spacing * np.arange(self.samples.size)

    def with_samples(self, samples):
        return GridFunction(self.origin, self.spacing, samples)

    def index_of_zero(self) -> int:
        """Index of the node at x = 0; the node must exist and be interior."""
        i = int(round(-self.origin / self.spacing))
        if i <= 0 or i >= len(self) - 1:
            raise DomainError("x = 0 is not strictly inside the grid")
        if abs(self.origin + i * self.spacing) > 1e-9 * self.spacing:
            raise DomainError("x = 0 does not fall on a grid node")
        return i


@dataclass(frozen=True)
class SpaceTimeField:
    """Time-indexed stack of grid functions sharing one layout.

    levels[m] holds the samples at time m * dt; level 0 is t = 0.
    """

    origin: float
    spacing: float
    dt: float
    levels: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = checked_samples(self.levels, 2, "SpaceTimeField levels (time, space)")
        if not (self.dt > 0 and self.spacing > 0):
            raise ContractError("SpaceTimeField needs positive dt and spacing")
        object.__setattr__(self, "levels", arr)

    @property
    def times(self):
        return self.dt * np.arange(self.levels.shape[0])

    @property
    def x(self):
        return self.origin + self.spacing * np.arange(self.levels.shape[1])

    @property
    def n_levels(self):
        return self.levels.shape[0]

    def level(self, m: int) -> GridFunction:
        return GridFunction(self.origin, self.spacing, self.levels[m])

    def level_at(self, t: float) -> GridFunction:
        m = int(round(t / self.dt))
        if m < 0 or m >= self.n_levels or abs(t - m * self.dt) > 1e-9 * max(self.dt, 1.0):
            raise DomainError(f"t={t} is not a stored level time")
        return self.level(m)

    def index_of_zero(self) -> int:
        return self.level(0).index_of_zero()


def _check_decay(phi: GridFunction, tol: float):
    lo, hi = abs(phi.samples[0]), abs(phi.samples[-1])
    if max(lo, hi) > tol:
        end = "left" if lo >= hi else "right"
        mag = max(lo, hi)
        raise ContractError(
            f"grid data must decay at both ends for periodization: "
            f"{end} endpoint magnitude {mag:.3e} exceeds {tol:.1e}")


def frequencies(n: int, spacing: float) -> np.ndarray:
    """Angular DFT frequencies of the periodized grid."""
    return 2.0 * math.pi * np.fft.fftfreq(n, d=spacing)


def half_frequencies(n: int, spacing: float) -> np.ndarray:
    """The first n // 2 + 1 :func:`frequencies`, the bins of ``rfft``; for
    even n the last one is the negative Nyquist frequency, as in the full
    spectrum (``rfftfreq`` would give it the other sign)."""
    return frequencies(n, spacing)[:n // 2 + 1]


def airy_group(phi: GridFunction, t: float) -> GridFunction:
    """Apply the linear group at time t via the multiplier exp(i t xi^3)."""
    if not math.isfinite(t):
        raise DomainError("airy_group requires finite t")
    real_only(phi.samples, "airy_group")
    _check_decay(phi, DECAY_TOL)
    xi = half_frequencies(len(phi), phi.spacing)
    return phi.with_samples(np.fft.irfft(np.exp(1j * t * xi ** 3) * np.fft.rfft(phi.samples),
                                         len(phi)))


def group_multi(phi: GridFunction, times, decay_tol: float = DECAY_TOL,
                ladder=None) -> SpaceTimeField:
    """Group applied at a uniform ladder of times starting at 0, with the
    output phases of ``ladder`` (:meth:`Ladder.fit`)."""
    real_only(phi.samples, "group_multi")
    ladder = Ladder(phi, times).fit(ladder)
    _check_decay(phi, decay_tol)
    levels = np.fft.irfft(ladder.output_phases() * np.fft.rfft(phi.samples), len(phi), axis=1)
    return SpaceTimeField(phi.origin, phi.spacing, ladder.out_dt, levels)


def whole_steps(length: float, step: float) -> bool:
    """Whether length / step is a whole number to 1e-9 relative, so a grid
    of that step ends exactly at length; step must be positive."""
    r = length / step
    return math.isfinite(r) and abs(r - round(r)) <= 1e-9 * r


class Ladder:
    """One grid and one time ladder, validated once, and tables built on them.

    ``grid`` gives the geometry ``n``, ``spacing`` and ``origin``; ``times``
    is the output ladder, uniform from 0.  Given ``dt``, the output times sit
    on the ``trace`` dt * (0 .. n_trace - 1), every ``stride``-th sample
    (without dt, the trace is the output ladder).  The tables start as None:
    ``pair`` (:func:`ladder_phases` of the trace, whose rows give the output
    phases) and ``filon`` (:func:`forcing.filon_tables`, its powers trace
    rows too).  The owner of a loop sets those it holds and may drop one
    early; a consumer that finds one None builds it for that call only.
    """

    def __init__(self, grid: GridFunction, times, dt: float = None,
                 n_trace: int = None):
        times = np.asarray(times, dtype=float)
        if times.size < 2 or not np.isfinite(times).all():
            raise ContractError("need at least two output times, all finite")
        step = times[1] - times[0] if dt is None else dt
        if not step > 0:
            raise ContractError("output times must increase from 0")
        idx = np.round(times / step).astype(int)
        strides = np.diff(idx)
        if times[0] != 0.0 or not np.allclose(idx * step, times, rtol=1e-9, atol=1e-12) \
                or strides[0] <= 0 or np.any(strides != strides[0]):
            raise ContractError("output times must be uniform, start at 0 and "
                                "sit on the trace grid")
        if dt is not None and idx[-1] >= n_trace:
            raise DomainError("output times exceed the trace length")
        self.grid, self.times, self.dt, self.n_trace = grid, times, dt, n_trace
        self.n, self.spacing, self.origin = len(grid), grid.spacing, grid.origin
        self.out_dt, self.stride = float(times[1] - times[0]), int(strides[0])
        self.trace = times if dt is None else dt * np.arange(n_trace)
        self.pair = self.filon = None

    @classmethod
    def over(cls, grid: GridFunction, T: float, trace_dt: float, n_levels: int = None):
        """The trace on [0, T] at step trace_dt and n_levels output times on
        it, every k-th trace time: n_levels - 1 must divide the trace step
        count, and None picks the largest level count up to 26 that does.
        T / trace_dt must be a whole number."""
        if not (trace_dt > 0 and whole_steps(T, trace_dt)):
            raise ContractError(f"T = {T:g} must be a whole number of positive "
                                f"trace steps, got trace_dt = {trace_dt:g}")
        n_tr = int(round(T / trace_dt)) + 1
        if n_levels is None:
            n_levels = next((k + 1 for k in range(25, 1, -1) if (n_tr - 1) % k == 0), 2)
        if n_tr < 2 or n_levels < 2 or (n_tr - 1) % (n_levels - 1):
            raise ContractError(
                f"n_levels - 1 must be a positive divisor of the trace step count "
                f"and T must span at least one trace step; got n_levels={n_levels} "
                f"and {n_tr - 1} trace steps")
        tt = trace_dt * np.arange(n_tr)
        return cls(grid, tt[:: (n_tr - 1) // (n_levels - 1)], trace_dt, n_tr)

    def fit(self, ladder):
        """``ladder`` if it was built for this grid and output ladder, and for
        this trace where this one has one (ContractError if not), else this
        ladder.  Callers build ``self`` from their own arguments."""
        keys = [(lad.n, lad.spacing, lad.origin, lad.times.size, lad.out_dt, lad.dt,
                 lad.n_trace) for lad in (self, ladder or self)]
        if any(a is not None and a != b for a, b in zip(*keys)):
            raise ContractError("the ladder was built for another grid, trace step "
                                "or time ladder")
        return ladder or self

    def phase_pair(self):
        return ladder_phases(self.n, self.spacing, self.trace) \
            if self.pair is None else self.pair

    def trace_rows(self, k) -> np.ndarray:
        """Rows exp(i t_k xi^3), trace indices k: pair rows k // s times k % s."""
        coarse, fine = self.phase_pair()
        rows = coarse[k // len(fine)]
        return np.multiply(rows, fine[k % len(fine)], out=rows)

    def output_phases(self) -> np.ndarray:
        return self.trace_rows(self.stride * np.arange(self.times.size))


def trace_phases(n: int, spacing: float, times) -> np.ndarray:
    """Phase matrix exp(i t_m xi_k^3) over a time ladder and the
    :func:`half_frequencies` of an n-point grid of the given spacing.

    cos and sin are written into the real and imaginary parts of one array:
    the same bits as np.exp(1j * np.outer(times, xi**3)) (a test checks
    this) without its two full-size complex temporaries.
    """
    arg = np.outer(np.asarray(times, dtype=float), half_frequencies(n, spacing) ** 3)
    phases = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=phases.real)
    np.sin(arg, out=phases.imag)
    return phases


def ladder_phases(n: int, spacing: float, times):
    """Coarse (t_0, t_s, t_2s, ...) and fine (t_0 .. t_{s-1}) rows of :func:`trace_phases`
    for a uniform ladder of M times from 0, s = ceil(sqrt(M)): exp(i t_{js+r} xi^3) =
    exp(i t_{js} xi^3) exp(i t_r xi^3), so ~2 sqrt(M) rows stand for all M."""
    s = math.isqrt(len(times) - 1) + 1
    return trace_phases(n, spacing, times[::s]), trace_phases(n, spacing, times[:s])


def group_trace_history(phi: GridFunction, times, deriv: int = 0,
                        ladder=None) -> np.ndarray:
    """Trace of d^j/dx^j exp(-t d^3/dx^3) phi at x = 0 for each time.

    Evaluated directly in frequency space; exact up to the periodization
    already inherent in the grid representation.  Trace time t_{js+r} of
    the ladder is entry (j, r) of one small product of the
    :func:`ladder_phases` pair, which depends only on the grid and the
    ladder, and the output times are every ``stride``-th trace time:
    callers tracing several functions on one grid and ladder hold it in
    one ``ladder`` (:meth:`Ladder.fit`).
    """
    real_only(phi.samples, "group_trace_history")
    ladder = Ladder(phi, times).fit(ladder)
    if not (isinstance(deriv, (int, np.integer)) and deriv >= 0):
        raise DomainError(f"deriv must be a non-negative integer, got {deriv!r}")
    coarse, fine = ladder.phase_pair()
    n, xi = len(phi), half_frequencies(len(phi), phi.spacing)
    spec = np.fft.rfft(phi.samples) / n
    spec[1:(n + 1) // 2] *= 2.0     # the weight of the conjugate half
    spec = spec * np.exp(-1j * xi * phi.origin) * (1j * xi) ** deriv
    s = ladder.stride
    return ((coarse * spec) @ fine.T).reshape(-1)[:s * ladder.times.size:s].real


def free_vertex_traces(data, ladder: Ladder):
    """Vertex traces over the trace of ``ladder`` of the free flow of each
    datum and of its first two x-derivatives: ``[[trace of d^j/dx^j exp(-t dx^3)
    d for d in data] for j in (0, 1, 2)]``, the ``traces`` layout of
    :func:`vertex.solve_vertex`.  The data share the ladder's grid, so its
    one phase pair serves all the histories.
    """
    over = Ladder(ladder.grid, ladder.trace)
    over.pair = ladder.phase_pair()
    return [[group_trace_history(d, over.times, j, over) for d in data]
            for j in (0, 1, 2)]


def _filon_base(omega, dt):
    """p = e^{i w dt}, E0 = int_0^dt e^{i w tau} dtau and
    E1 = int_0^dt tau e^{i w tau} dtau: over one cell of length dt,
    int exp(i w (t_{m+1} - t')) f(t') dt' = b f_m + a f_{m+1} for the linear
    interpolant of f, b = E1/dt, a = E0 - b."""
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


def duhamel_inhomog(w: SpaceTimeField, decay_tol: float = DECAY_TOL) -> SpaceTimeField:
    """Inhomogeneous Duhamel integral of a forcing field at every stored level.

    Level m is int_0^{t_m} exp(i (t_m - t') xi^3) F(t') dt', exact per cell
    for the linear interpolant of the levels in time:
    acc_{m+1} = p acc_m + b F_m + a F_{m+1} (:func:`_filon_base` at the
    level step), so the phase turning xi^3 dt per step is integrated, not
    sampled.  One batched FFT and one batched inverse FFT serve all levels,
    on the half spectrum.
    """
    levels = real_only(w.levels, "duhamel_inhomog")
    ends = np.maximum(np.abs(levels[:, 0]), np.abs(levels[:, -1]))
    bad = np.flatnonzero(ends > decay_tol)
    if bad.size:
        _check_decay(w.level(int(bad[0])), decay_tol)
    n = levels.shape[1]
    p, e0, e1 = _filon_base(half_frequencies(n, w.spacing) ** 3, w.dt)
    b = e1 / w.dt
    spec = np.fft.rfft(levels, axis=1)
    gain = b * spec[:-1] + (e0 - b) * spec[1:]
    acc = np.zeros_like(spec)      # level 0 (t = 0) stays zero
    for m, g in enumerate(gain):
        acc[m + 1] = p * acc[m] + g
    return SpaceTimeField(w.origin, w.spacing, w.dt, np.fft.irfft(acc, n, axis=1))


def trace_at_zero(f, deriv: int = 0, side: str = "centered"):
    """Trace of d^j/dx^j at x = 0, j in {0, 1, 2}.

    side selects the limit for fields with a vertex discontinuity: "left"
    and "right" use only nodes strictly on that side, "centered" uses
    symmetric stencils through the node (:func:`fracops.vertex_limit`).
    SpaceTimeField input returns a TimeTrace of the per-level trace, read
    from all levels at once.
    """
    if isinstance(f, SpaceTimeField):
        return TimeTrace(f.dt, vertex_limit(f.levels, f.index_of_zero(),
                                            f.spacing, side, deriv), True)
    if not isinstance(f, GridFunction):
        raise DomainError("trace_at_zero expects a GridFunction or SpaceTimeField")
    return vertex_limit(f.samples, f.index_of_zero(), f.spacing, side, deriv)


def sobolev_norm(f: GridFunction, s: float) -> float:
    """Discrete H^s norm of the supplied whole-line extension.

    Uses (1/2pi) sum <xi>^{2s} |fhat|^2 dxi with <xi> = 1 + |xi|; at s = 0
    this reduces to the L2 norm by Parseval.  The samples are real, so the
    sum runs over the half spectrum, with weight 2 on 0 < xi < Nyquist.
    """
    if not -1.0 <= s <= 2.0:
        raise DomainError("s must lie in [-1, 2]")
    real_only(f.samples, "sobolev_norm")
    _check_decay(f, DECAY_TOL)
    n = len(f)
    xi = half_frequencies(n, f.spacing)
    fhat = f.spacing * np.fft.rfft(f.samples)
    dxi = 2.0 * math.pi / (n * f.spacing)
    weight = (1.0 + np.abs(xi)) ** (2.0 * s)
    weight[1:(n + 1) // 2] *= 2.0     # the conjugate half
    total = np.sum(weight * np.abs(fhat) ** 2) * dxi / (2.0 * math.pi)
    return float(math.sqrt(total))
