"""Linear KdV machinery: the group exp(-t d^3/dx^3), the inhomogeneous
Duhamel operator, vertex trace extraction and discrete Sobolev norms.

The group is a Fourier multiplier exp(i t xi^3) applied on the periodized
grid; inputs must decay at both ends so periodization is harmless.  The
group over a time ladder and the Duhamel integral at every level of a
field are each one batched pass over all levels (one FFT, one phase
matrix, one inverse FFT), not a loop over times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError
from .fracops import TimeTrace, checked_samples, vertex_limit

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

    @property
    def is_complex(self):
        return self.samples.dtype.kind == "c"

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


def gaussian_profile(x, amplitude=1.0, center=0.0, width=1.0):
    return amplitude * np.exp(-((x - center) ** 2) / (2.0 * width ** 2))


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


def airy_group(phi: GridFunction, t: float) -> GridFunction:
    """Apply the linear group at time t via the multiplier exp(i t xi^3)."""
    if not math.isfinite(t):
        raise DomainError("airy_group requires finite t")
    _check_decay(phi, DECAY_TOL)
    xi = frequencies(len(phi), phi.spacing)
    out = np.fft.ifft(np.exp(1j * t * xi ** 3) * np.fft.fft(phi.samples))
    return phi.with_samples(out if phi.is_complex else out.real)


def group_multi(phi: GridFunction, times,
                decay_tol: float = DECAY_TOL) -> SpaceTimeField:
    """Group applied at a uniform ladder of times starting at 0."""
    times = np.asarray(times, dtype=float)
    dt = _uniform_dt(times)
    _check_decay(phi, decay_tol)
    spec = np.fft.fft(phi.samples)
    levels = np.fft.ifft(trace_phases(len(phi), phi.spacing, times) * spec, axis=1)
    return SpaceTimeField(phi.origin, phi.spacing, dt,
                          levels if phi.is_complex else levels.real.copy())


def _uniform_dt(times: np.ndarray) -> float:
    if times.size < 2:
        raise ContractError("need at least two time levels")
    steps = np.diff(times)
    dt = steps[0]
    if times[0] != 0.0 or not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise ContractError("time levels must be uniform and start at 0")
    return float(dt)


def trace_phases(n: int, spacing: float, times) -> np.ndarray:
    """Phase matrix exp(i t_m xi_k^3) over a time ladder and the DFT
    frequencies of an n-point grid of the given spacing.

    cos and sin are written into the real and imaginary parts of one array:
    the same bits as np.exp(1j * np.outer(times, xi**3)) (a test checks
    this) without its two full-size complex temporaries.
    """
    arg = np.outer(np.asarray(times, dtype=float), frequencies(n, spacing) ** 3)
    phases = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=phases.real)
    np.sin(arg, out=phases.imag)
    return phases


def group_trace_history(phi: GridFunction, times, deriv: int = 0,
                        phases: np.ndarray = None) -> np.ndarray:
    """Trace of d^j/dx^j exp(-t d^3/dx^3) phi at x = 0 for each time.

    Evaluated directly in frequency space; exact up to the periodization
    already inherent in the grid representation.  The phase matrix
    ``trace_phases(len(phi), phi.spacing, times)`` depends only on the grid
    and the time ladder, not on the data or ``deriv``: callers tracing
    several functions on one grid and ladder build it once and pass it as
    ``phases``; without it the call builds its own.
    """
    times = np.asarray(times, dtype=float)
    if phases is None:
        phases = trace_phases(len(phi), phi.spacing, times)
    elif phases.shape != (times.size, len(phi)):
        raise ContractError(
            f"phase matrix shape {phases.shape} does not match "
            f"{times.size} times x {len(phi)} grid points")
    xi = frequencies(len(phi), phi.spacing)
    spec = np.fft.fft(phi.samples) / len(phi)
    spec = spec * np.exp(-1j * xi * phi.origin) * (1j * xi) ** deriv
    out = phases @ spec
    if not phi.is_complex:
        out = out.real
    return out


def duhamel_inhomog(w: SpaceTimeField, decay_tol: float = DECAY_TOL) -> SpaceTimeField:
    """Inhomogeneous Duhamel integral of a forcing field at every stored level.

    Level m is sum_j W_mj exp(i (t_m - t_j) xi^3) F_j: composite Simpson
    in t' over levels 0..m (3/8 closure for an odd interval count), with
    the phase split as exp(i t_m xi^3) exp(-i t_j xi^3).  One batched FFT,
    one phase matrix, one lower-triangular (M x M) @ (M x n) product and
    one batched inverse FFT serve all levels.
    """
    levels = w.levels
    n_t, n = levels.shape
    if n_t > 1:
        ends = np.maximum(np.abs(levels[:, 0]), np.abs(levels[:, -1]))
        bad = np.flatnonzero(ends > decay_tol)
        if bad.size:
            _check_decay(w.level(int(bad[0])), decay_tol)
    phases = trace_phases(n, w.spacing, w.times)
    spec = _ladder_weights(n_t, w.dt) @ (phases.conj() * np.fft.fft(levels, axis=1))
    acc = np.fft.ifft(phases * spec, axis=1)
    return SpaceTimeField(w.origin, w.spacing, w.dt,
                          acc if levels.dtype.kind == "c" else acc.real)


def _ladder_weights(n_t: int, dt: float) -> np.ndarray:
    """Row m: quadrature weights over nodes 0..m for int_0^{m dt}; row 0
    is zero."""
    wts = np.zeros((n_t, n_t))
    for m in range(1, n_t):
        row = wts[m]
        if m == 1:
            row[:2] = 0.5
            continue
        # Simpson on [0, k], 3/8 rule on the last three intervals if m is odd
        k = m if m % 2 == 0 else m - 3
        if k > 0:
            row[0] = row[k] = 1.0 / 3.0
            row[1:k:2] = 4.0 / 3.0
            row[2:k:2] = 2.0 / 3.0
        if k < m:
            row[k:m + 1] += (3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0)
    return wts * dt


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
    this reduces to the L2 norm by Parseval.
    """
    if not -1.0 <= s <= 2.0:
        raise DomainError("s must lie in [-1, 2]")
    _check_decay(f, DECAY_TOL)
    n = len(f)
    xi = frequencies(n, f.spacing)
    fhat = f.spacing * np.fft.fft(f.samples)
    dxi = 2.0 * math.pi / (n * f.spacing)
    weight = (1.0 + np.abs(xi)) ** (2.0 * s)
    total = np.sum(weight * np.abs(fhat) ** 2) * dxi / (2.0 * math.pi)
    return float(math.sqrt(total))
