"""High-accuracy evaluation of the scaled Airy kernel and the Gamma function.

The kernel here is the fundamental-solution profile of ``d/dt + d^3/dx^3``,

    A(x) = (1/2pi) * integral exp(i x xi + i xi^3) dxi,

normalized so that A(0) = 1/(3*Gamma(2/3)).  It relates to the standard
Airy function by A(x) = 3**(-1/3) * Ai(3**(-1/3) * x); everything below is
evaluated through that rescaling, z = x / 3**(1/3), in bands of z:

* |z| <= 6.7: a table of degree-14 Taylor polynomials about the centres
  k/4, each used on its own cell |z - k/4| <= 1/8 and evaluated by Horner's
  rule.  The coefficients follow from the Airy equation Ai'' = z Ai,
  a_{k+2} = (c a_k + a_{k-1}) / ((k+1)(k+2)) about the centre c, seeded
  with Ai(c) and Ai'(c) from a 48-term Kahan-compensated Maclaurin series.
  The series runs only once, at import; Ai' comes from the same table.
* |z| > 6.7: the asymptotic expansions in the phase
  zeta = (2/3)|z|**1.5.  The number of terms is set per band of zeta
  (bands start at powers of two) as the fewest whose first omitted term is
  below 2**-56 of the leading one, capped at 16; 16 terms stay below
  ~1e-11 absolute at the seam.  On the decaying side Ai is an exact 0 wherever
  exp(-zeta) underflows, with no sum.  On the oscillatory side a phase of
  2**53 or more carries no digits, so arguments x below ``X_MIN``
  (about -8.2e10) raise ``DomainError``, as do arguments that are not real.

The evaluator works on ascending arguments: the oscillatory, Taylor and
decaying regions are consecutive slices, found by ``searchsorted``, and each
band of zeta is a contiguous run within its region.  Unordered input is
argsorted once and the values are scattered back; every element takes the
same operations wherever it sits, so its value does not depend on the order
or shape of the input.  Each region is evaluated in consecutive blocks of
``_BLOCK`` arguments, so the dozen temporaries of a pass stay in a 2 MB L2
cache instead of streaming from L3.  A block is itself ascending, so its
band cuts are found by ``searchsorted`` within it; by the rule above, the
block length changes no value, bitwise.

Against mpmath over |x| <= 30 the worst absolute errors are ~3e-12 for A
and ~6e-12 for A', both near z = 6.6, where the Maclaurin seeds cancel.  No
library Airy routine is used, so independent implementations can serve as
test oracles.
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

# Taylor table / asymptotic switchover in standard Airy argument units.
_Z_SWITCH = 6.7
_N_SERIES = 48
_N_ASYMP = 16
_TAYLOR_DEGREE = 14
_CELLS_PER_UNIT = 4                       # centres k/4, cells of half-width 1/8
_N_CELLS = math.ceil(_Z_SWITCH * _CELLS_PER_UNIT)

# The oscillation phase zeta = (2/3)|z|**1.5 carries no digits from 2**53 on.
_ZETA_MAX = 2.0 ** 53
X_MIN = -_CBRT3 * (1.5 * _ZETA_MAX) ** (2.0 / 3.0)
# Arguments per block: each region is evaluated in consecutive blocks of this
# many, so the temporaries of one pass stay in a 2 MB L2 cache (chosen by a
# sweep of 4,096 to 65,536 on the forcing_quadrature arguments).
_BLOCK = 16384
# exp(-zeta) underflows to 0 from zeta ~ 745.1 (z ~ 107.7) on; arguments are
# clipped here before zeta is formed so that it never overflows.
_Z_DEAD = 1e3


def _asymptotic_u_v(n):
    u = np.empty(n + 1)
    v = np.empty(n + 1)
    u[0] = v[0] = 1.0
    for k in range(1, n + 1):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        v[k] = (6 * k + 1) / (1.0 - 6 * k) * u[k]
    return u, v


_U_COEF, _V_COEF = _asymptotic_u_v(_N_ASYMP)


def _band_terms():
    """Lower zeta edge of each band and the asymptotic term count there."""
    zeta_switch = (2.0 / 3.0) * _Z_SWITCH ** 1.5
    coef = np.maximum(np.abs(_U_COEF), np.abs(_V_COEF))[1:]
    edges, counts = [0.0], [_N_ASYMP]
    for b in range(math.ceil(math.log2(zeta_switch)), 53):
        lo = 2.0 ** b
        small = coef / lo ** np.arange(1, _N_ASYMP + 1) < 2.0 ** -56
        n = int(np.argmax(small)) if small.any() else _N_ASYMP
        if n < counts[-1]:
            edges.append(lo)
            counts.append(n)
    return np.array(edges), counts


_BAND_ZETA, _BAND_TERMS = _band_terms()


def _kahan_add(total, comp, term):
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _ai_series(z):
    """Maclaurin evaluation of Ai and Ai'; seeds the Taylor table."""
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


def _taylor_table():
    """Rows k = 0.._TAYLOR_DEGREE of Taylor coefficients, one column per centre."""
    centres = np.arange(-_N_CELLS, _N_CELLS + 1) / _CELLS_PER_UNIT
    a = np.zeros((_TAYLOR_DEGREE + 1, centres.size))
    a[0], a[1] = _ai_series(centres)
    for k in range(_TAYLOR_DEGREE - 1):
        prev = a[k - 1] if k else 0.0
        a[k + 2] = (centres * a[k] + prev) / ((k + 1) * (k + 2))
    return a


_TAYLOR = _taylor_table()
_TAYLOR_D = _TAYLOR[1:] * np.arange(1, _TAYLOR_DEGREE + 1)[:, None]


def _horner(rows, t, cols=None):
    """sum_k rows[k] t**k, gathering one coefficient row per step if cols is given."""
    acc = np.full_like(t, rows[-1]) if cols is None else rows[-1][cols]
    for row in rows[-2::-1]:
        acc *= t
        acc += row if cols is None else row[cols]
    return acc


def _ai_taylor(z, deriv):
    """Ai and, if deriv, Ai' from the Taylor table for |z| <= _Z_SWITCH."""
    r = np.rint(z * _CELLS_PER_UNIT)
    t = z - r / _CELLS_PER_UNIT           # exact: the centre is within 1/8 of z
    cols = r.astype(np.intp) + _N_CELLS
    return _horner(_TAYLOR, t, cols), (_horner(_TAYLOR_D, t, cols) if deriv else None)


def _tail_sums(zeta, step, series):
    """sum_k c_k step**k for each (coef, start, stride) in series.

    ``zeta`` is ascending, so each band of zeta is one contiguous run of it,
    found by ``searchsorted``.  A point whose band has term count n sums the
    terms c = coef[start:n + 1:stride]; the points of one band share one
    slice of step.
    """
    cuts = [0, *np.searchsorted(zeta, _BAND_ZETA[1:]), zeta.size]
    sums = [np.empty_like(step) for _ in series]
    for n, lo, hi in zip(_BAND_TERMS, cuts[:-1], cuts[1:]):
        if hi > lo:
            s = step[lo:hi]
            for out, (coef, start, stride) in zip(sums, series):
                out[lo:hi] = _horner(coef[start:n + 1:stride], s)
    return sums


def _ai_decaying(z, deriv):
    """Asymptotic Ai (and Ai') on the decaying side z > _Z_SWITCH, z ascending."""
    ai = np.zeros_like(z)
    aip = np.zeros_like(z) if deriv else None
    zeta = (2.0 / 3.0) * np.minimum(z, _Z_DEAD) ** 1.5
    e = np.exp(-zeta)
    live = np.count_nonzero(e)     # e falls as z rises: its zeros are a suffix
    z, zeta, e = z[:live], zeta[:live], e[:live]
    sums = _tail_sums(zeta, -1.0 / zeta, [(_U_COEF, 0, 1), (_V_COEF, 0, 1)][:1 + deriv])
    ai[:live] = e / (2.0 * _SQRT_PI * z ** 0.25) * sums[0]
    if deriv:
        aip[:live] = -(z ** 0.25) * e / (2.0 * _SQRT_PI) * sums[1]
    return ai, aip


def _ai_oscillatory(z, deriv):
    """Asymptotic Ai (and Ai') on the oscillatory side z < -_Z_SWITCH, z ascending."""
    w = -z[::-1]                   # ascending, so zeta is too
    zeta = (2.0 / 3.0) * w ** 1.5
    series = [(_U_COEF, 0, 2), (_U_COEF, 1, 2), (_V_COEF, 0, 2), (_V_COEF, 1, 2)]
    sums = _tail_sums(zeta, -1.0 / (zeta * zeta), series[:2 + 2 * deriv])
    phase = zeta + 0.25 * math.pi
    sn, cs = np.sin(phase), np.cos(phase)
    ai = (sn * sums[0] - cs * sums[1] / zeta) / (_SQRT_PI * w ** 0.25)
    if not deriv:
        return ai[::-1], None
    aip = -(w ** 0.25) / _SQRT_PI * (cs * sums[2] + sn * sums[3] / zeta)
    return ai[::-1], aip[::-1]


def _ai(z, deriv):
    """Ai(z) and, if deriv, Ai'(z) (else None) on an array of finite z >= X_MIN / 3**(1/3).

    The oscillatory, Taylor and decaying regions are consecutive slices of
    the ascending arguments, each evaluated ``_BLOCK`` arguments at a time;
    unordered input is argsorted once and its values are scattered back, so
    each value is the same whatever its position.
    """
    flat = z.reshape(-1)
    order = None
    if not np.all(flat[:-1] <= flat[1:]):
        order = np.argsort(flat)
        flat = flat[order]
    lo = np.searchsorted(flat, -_Z_SWITCH, side="left")
    hi = np.searchsorted(flat, _Z_SWITCH, side="right")
    ai = np.empty_like(flat)
    aip = np.empty_like(flat) if deriv else None
    for part, start, stop in ((_ai_oscillatory, 0, lo), (_ai_taylor, lo, hi),
                              (_ai_decaying, hi, flat.size)):
        for first in range(start, stop, _BLOCK):
            cut = slice(first, min(first + _BLOCK, stop))
            at = cut if order is None else order[cut]
            a, ap = part(flat[cut], deriv)
            ai[at] = a
            if deriv:
                aip[at] = ap
    return ai.reshape(z.shape), (aip.reshape(z.shape) if deriv else None)


def _checked(x):
    """x as a float array; DomainError unless it holds finite reals >= X_MIN."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError):      # ragged nesting
        raise DomainError("airy kernel arguments must be a rectangular array") from None
    if arr.dtype.kind == "O":
        try:
            arr = arr.astype(float)          # float() of each element
        except (TypeError, ValueError):
            pass
    if arr.dtype.kind not in "biuf":
        raise DomainError(f"airy kernel arguments must be real numbers, "
                          f"got {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise DomainError("airy kernel requires finite arguments")
    if arr.size and arr.min() < X_MIN:
        raise DomainError(f"airy kernel argument x = {arr.min():g} lies below "
                          f"{X_MIN:.4g}, where the oscillation phase reaches "
                          f"2**53 and carries no digits")
    return arr


def _shaped(x, out):
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def airy_scaled(x):
    """Evaluate A(x), the scaled Airy kernel.

    Accepts a scalar or ndarray; returns the same shape.  Absolute error is
    below 1e-10 for |x| <= 30.  Raises ``DomainError`` for non-finite x and
    for x < ``X_MIN``.
    """
    ai, _ = _ai(_checked(x) / _CBRT3, deriv=False)
    return _shaped(x, ai / _CBRT3)


def airy_scaled_deriv(x):
    """Evaluate A'(x).  Absolute error below 1e-9 for |x| <= 30."""
    _, aip = _ai(_checked(x) / _CBRT3, deriv=True)
    return _shaped(x, aip / _CBRT3 ** 2)


def airy_scaled_with_deriv(x):
    """Evaluate (A(x), A'(x)) in one pass; cheaper than two calls."""
    ai, aip = _ai(_checked(x) / _CBRT3, deriv=True)
    return _shaped(x, ai / _CBRT3), _shaped(x, aip / _CBRT3 ** 2)


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
