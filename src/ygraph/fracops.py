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

from .errors import ContractError, DomainError

MAX_ORDER = 3.0


def checked_samples(samples, ndim: int, what: str) -> np.ndarray:
    """``samples`` as a float (or complex) array of rank ``ndim``, non-empty
    and finite; ``what`` names them in the ContractError otherwise."""
    try:
        arr = np.asarray(samples)
        arr = arr if arr.dtype.kind in "fc" else arr.astype(float)
    except (TypeError, ValueError):      # ragged nesting, text
        raise ContractError(f"{what} must be a rectangular array of numbers") from None
    if arr.ndim != ndim or arr.size == 0:
        raise ContractError(f"{what} must be a non-empty {ndim}-d array")
    if not np.isfinite(arr).all():
        raise ContractError(f"{what} must be finite")
    return arr


def real_only(samples: np.ndarray, entry: str) -> np.ndarray:
    """``samples`` unless complex; ContractError naming ``entry`` if so.
    The numeric kernels run real transforms only."""
    if samples.dtype.kind == "c":
        raise ContractError(f"{entry} takes real samples, got {samples.dtype}")
    return samples


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


@functools.lru_cache(maxsize=None)
def _fast_length(n: int) -> int:
    """The smallest 5-smooth m >= n: 2**k times an odd 3**i 5**j < 2 n."""
    odd = (3 ** i * 5 ** j for i in range(n.bit_length()) for j in range(n.bit_length()))
    return min(m << (-(-n // m) - 1).bit_length() for m in odd if m < 2 * n)


def fftconvolve(a, b) -> np.ndarray:
    """Full linear convolution of real ``a`` and ``b`` along the last axis,
    the leading axes broadcast: bitwise scipy.signal.fftconvolve(a, b,
    axes=-1), whose 5-smooth transform lengths it uses, without importing
    scipy.signal.  The product overwrites the spectrum of ``a`` where it has
    the broadcast shape.  A length-1 operand is a plain product."""
    a, b = (real_only(np.asarray(x), "fftconvolve") for x in (a, b))
    if a.shape[-1] == 1 or b.shape[-1] == 1:
        return a * b
    n = a.shape[-1] + b.shape[-1] - 1
    size = _fast_length(n)
    sa, sb = np.fft.rfft(a, size), np.fft.rfft(b, size)
    prod = np.multiply(sa, sb, out=sa if sa.shape == np.broadcast_shapes(sa.shape, sb.shape)
                       else None)
    return np.fft.irfft(prod, size)[..., :n]


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


# Every finite-difference stencil, name -> (offsets, weights, divisor), taps
# in summation order: dK... is h**K d^K/dx^K at node i as sum_k weights[k] *
# v[i + offsets[k]] / divisor.  The mirror (a row's right end, a limit from the
# left) negates the offsets and multiplies the weights by (-1)**K.  The _ext
# entries skip node i: the cubic through nodes 1..4, and for d2 the cubic
# through the second differences at their own stations, as one vector.
STENCILS = {
    "d0": ((0,), (1,), 1),
    "d1": ((1, -1), (1, -1), 2),
    "d1_4": ((-2, -1, 1, 2), (1, -8, 8, -1), 12),
    "d1_end": ((0, 1, 2, 3), (-11, 18, -9, 2), 6),
    "d1_end2": ((0, 1, 2), (-3, 4, -1), 2),
    "d2": ((-1, 0, 1), (1, -2, 1), 1),
    "d2_end": ((0, 1, 2, 3), (2, -5, 4, -1), 1),
    "d3": ((-2, -1, 1, 2), (-1, 2, -2, 1), 2),
    "d3_near": ((-1, 0, 1, 2, 3), (-3, 10, -12, 6, -1), 2),
    "d3_end": ((0, 1, 2, 3, 4), (-5, 18, -24, 14, -3), 2),
    "d0_ext": ((1, 2, 3, 4), (4, -6, 4, -1), 1),
    "d1_ext": ((1, 2, 3, 4), (-26, 57, -42, 11), 6),
    "d2_ext": ((1, 2, 3, 4, 5, 6), (10, -40, 65, -54, 23, -4), 1),
}


def stencil_sum(name: str, v, lo: int, hi: int | None = None, mirror: bool = False):
    """sum_k weights[k] * v[..., i + offsets[k]], without the divisor, in
    tap order, at the nodes lo <= i < hi of the last axis, or at node lo
    alone (negative lo counts from the end) when hi is None.  A tap of
    weight +-1 is added or subtracted, not multiplied."""
    offsets, weights, _ = STENCILS[name]
    if mirror:
        sign = (-1) ** int(name[1])
        offsets, weights = [-o for o in offsets], [sign * w for w in weights]
    acc = None
    for o, w in zip(offsets, weights):
        x = v[..., lo + o] if hi is None else v[..., lo + o:hi + o]
        if acc is None:
            acc = x if w == 1 else -x if w == -1 else w * x
        else:
            acc = acc + x if w == 1 else acc - x if w == -1 else acc + w * x
    return acc


@functools.lru_cache(maxsize=None)
def limit_weights(side: str, deriv: int = 0,
                  fit_window: tuple[int, int] | None = None):
    """(offsets, weights) of d^deriv/dx^deriv at x = 0 from ``side`` ("left",
    "right" or "centered"), deriv in {0, 1, 2}: the ``STENCILS`` entry dK or
    dK_ext over its divisor, or with ``fit_window=(j0, j1)`` the least-squares
    quadratic over nodes j0..j1, whatever h is.  Left is the mirror."""
    if deriv not in (0, 1, 2) or side not in ("left", "right", "centered"):
        raise DomainError(f"no vertex limit of order {deriv!r} from side {side!r}")
    if fit_window is None:
        offsets, weights, divisor = STENCILS[
            f"d{deriv}" if side == "centered" else f"d{deriv}_ext"]
        offsets, weights = np.array(offsets), np.divide(weights, divisor)
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


def sampled_derivative(vals: np.ndarray, dt: float, k: int) -> np.ndarray:
    """k-th derivative along the last axis in a single pass, k in {1, 2, 3}:
    the centred ``STENCILS`` entry dK inside, its end entries (mirrored at
    the right end) on the nodes it cannot reach.

    Single-pass stencils avoid the error-constant mismatch that repeated
    first-derivative passes amplify at the ends by powers of 1/dt.
    """
    names = {1: ("d1", "d1_end"), 2: ("d2", "d2_end"), 3: ("d3", "d3_end", "d3_near")}
    if k not in names:
        raise DomainError(f"derivative order {k} not supported")
    (inner, *ends), n, hk = names[k], vals.shape[-1], dt ** k
    out, r = np.empty_like(vals), len(ends)
    out[..., r:n - r] = stencil_sum(inner, vals, r, n - r) / (STENCILS[inner][2] * hk)
    for i, name in enumerate(ends):
        scale = STENCILS[name][2] * hk
        out[..., i] = stencil_sum(name, vals, i) / scale
        out[..., -1 - i] = stencil_sum(name, vals, -1 - i, mirror=True) / scale
    return out


def check_order(alpha: float):
    """Raise DomainError unless alpha lies in (-MAX_ORDER, MAX_ORDER]."""
    if not -MAX_ORDER < alpha <= MAX_ORDER:
        raise DomainError(f"alpha must lie in ({-MAX_ORDER:g}, {MAX_ORDER:g}], "
                          f"got {alpha}")


def riemann_liouville(f: TimeTrace, alpha: float) -> TimeTrace:
    """Apply I_alpha to a real causal trace.

    Orders lie in (-MAX_ORDER, MAX_ORDER]; alpha = 0 is the identity.  Every
    other order integrates at alpha + k by product integration, k = 0 for
    alpha > 0, and differentiates k times with centered differences
    (one-sided at the ends).
    """
    if not f.causal:
        raise ContractError("riemann_liouville requires a causal trace")
    real_only(f.samples, "riemann_liouville")
    check_order(alpha)
    if alpha == 0.0:
        return TimeTrace(f.dt, f.samples.copy(), True)

    k = max(0, math.floor(-alpha) + 1)      # smallest k >= 0 with alpha + k > 0
    if k and len(f) < 5:
        raise ContractError("negative orders need at least 5 samples")
    vals = fractional_integral_samples(f.samples.astype(float), f.dt, alpha + k)
    if k:
        vals = sampled_derivative(vals, f.dt, k)
    return TimeTrace(f.dt, vals, True)
