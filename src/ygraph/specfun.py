"""High-accuracy evaluation of the scaled Airy kernel and the Gamma function.

The kernel here is the fundamental-solution profile of ``d/dt + d^3/dx^3``,

    A(x) = (1/2pi) * integral exp(i x xi + i xi^3) dxi,

normalized so that A(0) = 1/(3*Gamma(2/3)).  It relates to the standard
Airy function by A(x) = 3**(-1/3) * Ai(3**(-1/3) * x); everything below is
evaluated through that rescaling with a Maclaurin series on a central
interval and asymptotic expansions outside it.  No library Airy routine is
used, so independent implementations can serve as test oracles.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_CBRT3 = 3.0 ** (1.0 / 3.0)
_SQRT_PI = math.sqrt(math.pi)

# Ai(0) and -Ai'(0)
_C1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_C2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)

# Series / asymptotic switchover in standard Airy argument units.  Chosen so
# the truncated Maclaurin sum (Kahan-compensated) and the 16-term asymptotic
# series both stay below ~1e-11 absolute error at the seam.
_Z_SWITCH = 6.7
_N_SERIES = 48
_N_ASYMP = 16


def _asymptotic_u_v(n):
    u = np.empty(n + 1)
    v = np.empty(n + 1)
    u[0] = v[0] = 1.0
    for k in range(1, n + 1):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        v[k] = (6 * k + 1) / (1.0 - 6 * k) * u[k]
    return u, v


_U_COEF, _V_COEF = _asymptotic_u_v(_N_ASYMP)


def _kahan_add(total, comp, term):
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _ai_series(z):
    """Maclaurin evaluation of Ai and Ai' for |z| <= _Z_SWITCH."""
    z = np.asarray(z, dtype=float)
    z3 = z * z * z

    f = np.ones_like(z)
    g = z.copy()
    df = np.zeros_like(z)
    dg = np.ones_like(z)
    cf = np.zeros_like(z)
    cg = np.zeros_like(z)
    cdf = np.zeros_like(z)
    cdg = np.zeros_like(z)

    t = np.ones_like(z)       # k-th term of f, starting at k = 0
    s = z.copy()              # of g
    q = np.ones_like(z)       # of g'
    p = 0.5 * z * z           # of f', starting at k = 1

    for k in range(1, _N_SERIES + 1):
        t = t * z3 / ((3 * k - 1) * (3 * k))
        s = s * z3 / ((3 * k) * (3 * k + 1))
        q = q * z3 / ((3 * k - 2) * (3 * k))
        if k >= 2:
            p = p * k / (k - 1) * z3 / ((3 * k - 1) * (3 * k))
        f, cf = _kahan_add(f, cf, t)
        g, cg = _kahan_add(g, cg, s)
        dg, cdg = _kahan_add(dg, cdg, q)
        df, cdf = _kahan_add(df, cdf, p)

    ai = _C1 * f - _C2 * g
    aip = _C1 * df - _C2 * dg
    return ai, aip


def _ai_asymp_pos(z):
    """Asymptotic Ai, Ai' on the decaying side z > _Z_SWITCH."""
    zeta = (2.0 / 3.0) * z ** 1.5
    inv = 1.0 / zeta
    su = np.zeros_like(z)
    sv = np.zeros_like(z)
    pw = np.ones_like(z)
    for k in range(_N_ASYMP + 1):
        sign = -1.0 if k % 2 else 1.0
        su += sign * _U_COEF[k] * pw
        sv += sign * _V_COEF[k] * pw
        pw = pw * inv
    pref = np.exp(-zeta) / (2.0 * _SQRT_PI * z ** 0.25)
    ai = pref * su
    aip = -(z ** 0.25) * np.exp(-zeta) / (2.0 * _SQRT_PI) * sv
    return ai, aip


def _ai_asymp_neg(z):
    """Asymptotic Ai, Ai' on the oscillatory side z < -_Z_SWITCH."""
    w = -z
    zeta = (2.0 / 3.0) * w ** 1.5
    inv2 = 1.0 / (zeta * zeta)

    p = np.zeros_like(w)
    q = np.zeros_like(w)
    r = np.zeros_like(w)
    s = np.zeros_like(w)
    pw = np.ones_like(w)
    for k in range(_N_ASYMP // 2 + 1):
        sign = -1.0 if k % 2 else 1.0
        p += sign * _U_COEF[2 * k] * pw
        r += sign * _V_COEF[2 * k] * pw
        if 2 * k + 1 <= _N_ASYMP:
            q += sign * _U_COEF[2 * k + 1] * pw / zeta
            s += sign * _V_COEF[2 * k + 1] * pw / zeta
        pw = pw * inv2

    phase = zeta + 0.25 * math.pi
    sn, cs = np.sin(phase), np.cos(phase)
    ai = (sn * p - cs * q) / (_SQRT_PI * w ** 0.25)
    aip = -(w ** 0.25) / _SQRT_PI * (cs * r + sn * s)
    return ai, aip


def _ai_both(z):
    z = np.asarray(z, dtype=float)
    ai = np.empty_like(z)
    aip = np.empty_like(z)

    mid = np.abs(z) <= _Z_SWITCH
    pos = z > _Z_SWITCH
    neg = z < -_Z_SWITCH
    if mid.any():
        ai[mid], aip[mid] = _ai_series(z[mid])
    if pos.any():
        ai[pos], aip[pos] = _ai_asymp_pos(z[pos])
    if neg.any():
        ai[neg], aip[neg] = _ai_asymp_neg(z[neg])
    return ai, aip


def _check_finite(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("airy kernel requires finite arguments")
    return arr


def airy_scaled(x):
    """Evaluate A(x), the scaled Airy kernel.

    Accepts a scalar or ndarray; returns the same shape.  Absolute error is
    below 1e-10 for |x| <= 30.
    """
    arr = _check_finite(x)
    ai, _ = _ai_both(arr / _CBRT3)
    out = ai / _CBRT3
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def airy_scaled_deriv(x):
    """Evaluate A'(x).  Absolute error below 1e-9 for |x| <= 30."""
    arr = _check_finite(x)
    _, aip = _ai_both(arr / _CBRT3)
    out = aip / _CBRT3 ** 2
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def airy_scaled_with_deriv(x):
    """Evaluate (A(x), A'(x)) in one pass; cheaper than two calls."""
    arr = _check_finite(x)
    ai, aip = _ai_both(arr / _CBRT3)
    a = ai / _CBRT3
    ap = aip / _CBRT3 ** 2
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(a), float(ap)
    return a, ap


def gamma_fn(z: float) -> float:
    """Gamma function on the real line, poles excluded.

    Relative error is at the few-ulp level of the platform ``tgamma`` for
    z in [-10, 30], far inside the 1e-12 budget the kernels need.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError("gamma_fn requires a finite argument")
    if z <= 0.0 and z == math.floor(z):
        raise DomainError(f"gamma_fn pole at non-positive integer z={z:g}")
    return math.gamma(z)
