"""Riemann-Liouville fractional integration on uniformly sampled causal traces.

The operator is convolution with ``t_+**(alpha-1) / Gamma(alpha)``.  Positive
orders are computed by product integration: the kernel is integrated exactly
against a piecewise-linear interpolant of the data, which keeps second-order
accuracy through the weak kernel singularity.  Non-positive orders follow the
definition by differentiation, ``I_alpha = (d/dt)^k I_{alpha+k}`` with the
smallest integer k making alpha + k positive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve

from .errors import ContractError, DomainError

MAX_ORDER = 3.0


def checked_samples(samples, ndim: int, what: str) -> np.ndarray:
    """``samples`` as a float (or complex) array of rank ``ndim``, non-empty
    and finite; ``what`` names them in the ContractError otherwise."""
    arr = np.asarray(samples)
    if arr.dtype.kind not in "fc":
        arr = arr.astype(float)
    if arr.ndim != ndim or arr.size == 0:
        raise ContractError(f"{what} must be a non-empty {ndim}-d array")
    if not np.isfinite(arr).all():
        raise ContractError(f"{what} must be finite")
    return arr


@dataclass(frozen=True)
class TimeTrace:
    """Uniform samples of a function of t >= 0.

    ``causal`` asserts that samples[0] sits at t = 0 and the implied
    extension to t < 0 is identically zero.
    """

    dt: float
    samples: np.ndarray = field(repr=False)
    causal: bool = True

    def __post_init__(self):
        arr = checked_samples(self.samples, 1, "TimeTrace samples")
        if not (self.dt > 0):
            raise ContractError(f"TimeTrace dt must be positive, got {self.dt}")
        object.__setattr__(self, "samples", arr)

    def __len__(self):
        return self.samples.size

    @property
    def times(self):
        return self.dt * np.arange(self.samples.size)

    @property
    def is_complex(self):
        return self.samples.dtype.kind == "c"


def trace_from_function(fn, dt, n):
    """The causal trace of ``fn`` sampled at 0, dt, ..., (n-1) dt."""
    t = dt * np.arange(n)
    return TimeTrace(dt, np.asarray(fn(t)))


def product_weights(alpha: float, n: int) -> np.ndarray:
    """Stationary product-integration weights c_0..c_{n-1} for order alpha > 0.

    With ``I_m = dt^alpha / Gamma(alpha+2) * (sum_k c_{m-k} f_k + corr_m f_0)``
    the convolution reproduces the exact integral of the kernel against the
    piecewise-linear interpolant.  ``c_0 = 1``.
    """
    if alpha <= 0:
        raise DomainError("product_weights requires alpha > 0")
    k = np.arange(n, dtype=float)
    a1 = alpha + 1.0
    c = np.empty(n)
    c[0] = 1.0
    if n > 1:
        km = k[1:]
        c[1:] = (km + 1.0) ** a1 - 2.0 * km ** a1 + (km - 1.0) ** a1
    return c


def _first_sample_correction(alpha: float, n: int) -> np.ndarray:
    """Replace the convolution's f_0 coefficient by the exact edge weight."""
    k = np.arange(n, dtype=float)
    a1 = alpha + 1.0
    corr = np.zeros(n)
    if n > 1:
        km = k[1:]
        corr[1:] = km ** a1 + a1 * km ** alpha - (km + 1.0) ** a1
    return corr


def fractional_integral_samples(values: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """Product-integration I_alpha on raw samples, alpha > 0."""
    n = values.size
    c = product_weights(alpha, n)
    conv = fftconvolve(values, c)[:n]
    conv = conv + _first_sample_correction(alpha, n) * values[0]
    out = (dt ** alpha / math.gamma(alpha + 2.0)) * conv
    out[0] = 0.0
    return out


def boundary_layer_width(alpha: float) -> int:
    """Samples near t = 0 that carry the kernel singularity after
    differentiation; accuracy assertions should skip them."""
    return int(math.ceil(3.0 + abs(alpha)))


# One-sided stencils at the end of a sample row, coefficients for nodes
# 0, 1, 2, ... counted inward from the end: second-order h * slope and
# h^2 * curvature at the end node.  The solver's vertex constraints and
# traces and the Taylor extension take their coefficients here.
ONE_SIDED_SLOPE = (-1.5, 2.0, -0.5)              # (-3, 4, -1) / 2
ONE_SIDED_CURVATURE = (2.0, -5.0, 4.0, -1.0)


# Limits at x = 0 of a row with the vertex at node i0.  Each is one fixed
# functional h**-deriv * sum_k weights[k] * v[i0 + offsets[k]], applied to all
# levels at once.  Centred: nodes -1, 0, 1.  One-sided: the value and slope at
# 0 of the cubic through nodes 1..4; the curvature through the second
# differences at their own stations (nodes 1..6), composed into one vector.
# Fit window (j0, j1): the least-squares quadratic over nodes j0..j1,
# whatever h is.  A left limit mirrors the offsets and carries (-1)**deriv.
_CENTRED = ((0.0, 1.0, 0.0), (-0.5, 0.0, 0.5), (1.0, -2.0, 1.0))
_ONE_SIDED = ((4.0, -6.0, 4.0, -1.0),
              (-26 / 6, 57 / 6, -42 / 6, 11 / 6),
              (10.0, -40.0, 65.0, -54.0, 23.0, -4.0))      # (10, -20, 15, -4) * (1, -2, 1)


@functools.lru_cache(maxsize=None)
def limit_weights(side: str, deriv: int = 0,
                  fit_window: tuple[int, int] | None = None):
    """(offsets, weights): the table entry for d^deriv/dx^deriv at x = 0
    from ``side`` ("left", "right" or "centered"), deriv in {0, 1, 2}."""
    if deriv not in (0, 1, 2) or side not in ("left", "right", "centered"):
        raise DomainError(f"no vertex limit of order {deriv!r} from side {side!r}")
    if side == "centered":
        offsets, weights = np.arange(-1, 2), np.array(_CENTRED[deriv])
    elif fit_window is None:
        weights = np.array(_ONE_SIDED[deriv])
        offsets = np.arange(1, weights.size + 1)
    else:
        j0, j1 = fit_window
        if j0 < 0 or j1 - j0 < 4:
            raise DomainError(f"fit window {fit_window} needs 0 <= j0 and five nodes")
        offsets = np.arange(j0, j1 + 1)
        weights = math.factorial(deriv) * np.linalg.pinv(
            np.vander(offsets, 3, increasing=True).astype(float))[deriv]
    if side == "left":
        offsets, weights = -offsets, (-1.0) ** deriv * weights
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets, weights


def vertex_limit(rows: np.ndarray, i0: int, h: float, side: str,
                 deriv: int = 0, fit_window: tuple[int, int] | None = None):
    """The :func:`limit_weights` entry applied along the last axis of
    ``rows`` with the vertex at node i0, for every leading row at once."""
    offsets, weights = limit_weights(side, deriv, fit_window)
    cols = i0 + offsets
    if cols.min() < 0 or cols.max() >= rows.shape[-1]:
        raise DomainError(f"not enough nodes around x = 0: the limit reads "
                          f"{offsets.min():+d}..{offsets.max():+d}")
    out = rows[..., cols] @ weights
    return out / h ** deriv if deriv else out


def one_sided(coef, nodes):
    """sum_j coef[j] * nodes[j], accumulated in node order.

    ``nodes`` is indexed by node first: a list of floats or an array whose
    leading axis runs inward from the end.
    """
    acc = coef[0] * nodes[0]
    for c, v in zip(coef[1:], nodes[1:]):
        acc = acc + c * v
    return acc


def sampled_derivative(vals: np.ndarray, dt: float, k: int) -> np.ndarray:
    """k-th derivative along the last axis in a single pass, k in {1, 2, 3}.

    Single-pass stencils avoid the error-constant mismatch that repeated
    first-derivative passes amplify at the ends by powers of 1/dt.
    """
    out = np.empty_like(vals)
    v = vals
    if k == 1:
        out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * dt)
        out[..., 0] = (-11 * v[..., 0] + 18 * v[..., 1] - 9 * v[..., 2] + 2 * v[..., 3]) / (6 * dt)
        out[..., -1] = (11 * v[..., -1] - 18 * v[..., -2] + 9 * v[..., -3] - 2 * v[..., -4]) / (6 * dt)
    elif k == 2:
        out[..., 1:-1] = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / dt ** 2
        nodes = np.moveaxis(v, -1, 0)
        out[..., 0] = one_sided(ONE_SIDED_CURVATURE, nodes) / dt ** 2
        out[..., -1] = one_sided(ONE_SIDED_CURVATURE, nodes[::-1]) / dt ** 2
    elif k == 3:
        h3 = dt ** 3
        out[..., 2:-2] = (-v[..., :-4] + 2 * v[..., 1:-3] - 2 * v[..., 3:-1] + v[..., 4:]) / (2 * h3)
        out[..., 0] = (-2.5 * v[..., 0] + 9 * v[..., 1] - 12 * v[..., 2]
                       + 7 * v[..., 3] - 1.5 * v[..., 4]) / h3
        out[..., 1] = (-3 * v[..., 0] + 10 * v[..., 1] - 12 * v[..., 2]
                       + 6 * v[..., 3] - v[..., 4]) / (2 * h3)
        out[..., -2] = (3 * v[..., -1] - 10 * v[..., -2] + 12 * v[..., -3]
                        - 6 * v[..., -4] + v[..., -5]) / (2 * h3)
        out[..., -1] = (2.5 * v[..., -1] - 9 * v[..., -2] + 12 * v[..., -3]
                        - 7 * v[..., -4] + 1.5 * v[..., -5]) / h3
    else:
        raise DomainError(f"derivative order {k} not supported")
    return out


def riemann_liouville(f: TimeTrace, alpha: float) -> TimeTrace:
    """Apply I_alpha to a causal trace.

    Positive orders use product integration; alpha = 0 is the identity;
    negative orders differentiate I_{alpha+k} with centered differences
    (one-sided at the ends).
    """
    if not f.causal:
        raise ContractError("riemann_liouville requires a causal trace")
    if abs(alpha) > MAX_ORDER:
        raise DomainError(f"|alpha| <= {MAX_ORDER} required, got {alpha}")
    if alpha == 0.0:
        return TimeTrace(f.dt, f.samples.copy(), True)

    if alpha > 0:
        out = fractional_integral_samples(f.samples.astype(
            complex if f.is_complex else float), f.dt, alpha)
        return TimeTrace(f.dt, out, True)

    k = int(math.floor(-alpha)) + 1          # smallest k with alpha + k > 0
    shifted = alpha + k
    vals = fractional_integral_samples(f.samples.astype(
        complex if f.is_complex else float), f.dt, shifted)
    if len(vals) < 5:
        raise ContractError("negative orders need at least 5 samples")
    vals = sampled_derivative(vals, f.dt, k)
    return TimeTrace(f.dt, vals, True)
