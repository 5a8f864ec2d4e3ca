"""Riemann-Liouville operator against closed-form fractional integrals."""

import math

import numpy as np
import pytest
import scipy.signal          # the reference only; ygraph does not import it
from hypothesis import given, settings, strategies as st

from ygraph.errors import ContractError, DomainError
from ygraph.fracops import (STENCILS, TimeTrace, fftconvolve,
                            fractional_integral_samples, product_weights,
                            riemann_liouville, sampled_derivative, stencil_sum,
                            limit_weights, vertex_limit)


@pytest.fixture
def ramp():
    dt = 1e-3
    t = dt * np.arange(1001)
    return t, TimeTrace(dt, t.copy())


def test_identity_order_zero(ramp):
    t, tr = ramp
    out = riemann_liouville(tr, 0.0)
    assert np.array_equal(out.samples, tr.samples)
    assert out.samples is not tr.samples


def test_order_one_of_constant():
    dt = 1e-3
    tr = TimeTrace(dt, np.ones(1001))
    out = riemann_liouville(tr, 1.0)
    t = tr.times
    assert np.abs(out.samples - t).max() <= 1e-10


def test_half_order_of_ramp(ramp):
    t, tr = ramp
    out = riemann_liouville(tr, 0.5)
    exact = math.gamma(2.0) / math.gamma(2.5) * t ** 1.5
    m = t >= 0.1
    assert (np.abs(out.samples - exact)[m] / exact[m]).max() <= 1e-6
    # sanity: the prefactor is 4/(3 sqrt(pi))
    assert math.gamma(2.0) / math.gamma(2.5) == pytest.approx(
        4.0 / (3.0 * math.sqrt(math.pi)), rel=1e-14)


def test_negative_one_is_derivative():
    dt = 1e-3
    t = dt * np.arange(1001)
    out = riemann_liouville(TimeTrace(dt, t ** 2), -1.0)
    m = t >= 0.1
    assert np.abs(out.samples - 2.0 * t)[m].max() <= 1e-6


@pytest.mark.parametrize("a,b", [(1 / 3, 2 / 3), (1 / 3, -1 / 3), (2 / 3, -2 / 3)])
def test_semigroup_law(a, b):
    t = 1e-3 * np.arange(1001)
    f = TimeTrace(1e-3, t ** 2 * np.exp(-t))
    lhs = riemann_liouville(riemann_liouville(f, b), a)
    rhs = riemann_liouville(f, a + b)
    bound = 1e-5 * np.abs(f.samples).max()
    assert np.abs(lhs.samples - rhs.samples).max() <= bound


def test_fractional_monomial_identity():
    # I_alpha t^nu = Gamma(nu+1)/Gamma(nu+alpha+1) t^(nu+alpha); the
    # piecewise-linear product rule is second order for curved data
    dt = 1e-3
    t = dt * np.arange(1001)
    for alpha, nu in ((1 / 3, 2.0), (2 / 3, 3.0)):
        out = riemann_liouville(TimeTrace(dt, t ** nu), alpha)
        exact = math.gamma(nu + 1) / math.gamma(nu + alpha + 1) * t ** (nu + alpha)
        m = t >= 0.1
        assert (np.abs(out.samples - exact)[m] / exact[m]).max() <= 2e-4


def test_support_preservation_positive_order():
    dt = 1e-3
    vals = np.zeros(1000)
    j = 300
    t = dt * np.arange(1000)
    vals[j:] = (t[j:] - t[j]) ** 2
    out = riemann_liouville(TimeTrace(dt, vals), 0.5)
    assert np.abs(out.samples[:j + 1]).max() <= 1e-12


def test_support_preservation_negative_order():
    dt = 1e-3
    vals = np.zeros(1000)
    j = 300
    t = dt * np.arange(1000)
    vals[j:] = (t[j:] - t[j]) ** 3
    out = riemann_liouville(TimeTrace(dt, vals), -0.5)
    stencil = 2   # single-pass derivative reads two nodes ahead
    assert np.abs(out.samples[:j - stencil]).max() <= 1e-12


def test_linearity_complex():
    # the operator is real: a complex combination is refused, and runs as
    # its real and imaginary parts
    dt = 1e-3
    t = dt * np.arange(600)
    f = TimeTrace(dt, t ** 2)
    g = TimeTrace(dt, np.sin(3 * t) * t ** 2)
    a, b = 0.7, -1.3 + 0.4j
    combo = a * f.samples + b * g.samples
    with pytest.raises(ContractError, match="riemann_liouville"):
        riemann_liouville(TimeTrace(dt, combo), 0.5)
    lhs = riemann_liouville(TimeTrace(dt, combo.real), 0.5).samples \
        + 1j * riemann_liouville(TimeTrace(dt, combo.imag), 0.5).samples
    rhs = a * riemann_liouville(f, 0.5).samples + b * riemann_liouville(g, 0.5).samples
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_product_weights_match_trapezoid_at_order_one():
    c = product_weights(1.0, 6)
    assert c[0] == pytest.approx(1.0)
    assert np.allclose(c[1:], 2.0)
    vals = fractional_integral_samples(np.ones(11), 0.1, 1.0)
    assert np.abs(vals - 0.1 * np.arange(11)).max() <= 1e-14


@pytest.mark.parametrize("alpha", [-3.0, -3.5, 3.5, math.nan, math.inf, -math.inf])
def test_order_outside_range(ramp, alpha):
    # -3 would need a fourth derivative; NaN fails every comparison
    with pytest.raises(DomainError, match=r"alpha must lie in \(-3, 3\]"):
        riemann_liouville(ramp[1], alpha)


@pytest.mark.parametrize("alpha", [-2.999, 3.0])
def test_order_range_ends(ramp, alpha):
    assert np.isfinite(riemann_liouville(ramp[1], alpha).samples).all()


def test_contract_errors():
    tr = TimeTrace(1e-3, np.ones(10), causal=False)
    with pytest.raises(ContractError):
        riemann_liouville(tr, 0.5)
    with pytest.raises(DomainError):
        riemann_liouville(TimeTrace(1e-3, np.ones(10)), 3.5)
    with pytest.raises(ContractError):
        TimeTrace(0.0, np.ones(4))
    with pytest.raises(ContractError):
        TimeTrace(1e-3, np.array([]))


@pytest.mark.parametrize("bad", [[1.0, [2.0, 3.0]], ["a", "b"]],
                         ids=["ragged", "text"])
def test_ragged_or_text_trace_rejected(bad):
    with pytest.raises(ContractError, match="rectangular array of numbers"):
        TimeTrace(0.1, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_trace_rejected(bad):
    vals = np.ones(10)
    vals[4] = bad
    with pytest.raises(ContractError, match="finite"):
        TimeTrace(1e-3, vals)
    with pytest.raises(ContractError, match="finite"):
        TimeTrace(1e-3, vals * (1.0 + 1.0j))


# -- the vertex-limit table --------------------------------------------------

COEF = st.floats(-1.0, 1.0)
SPACING = st.floats(1e-3, 1e-1)
# on a cubic c3 (x/h)^3 the slope entries read c3/h times these factors on
# top of the exact slope: the one-sided entries are exact for cubics, the
# centred one is second order
SLOPE_ERROR = {"left": 0.0, "right": 0.0, "centered": 1.0}


def _sampled_polynomial(coefs, reach):
    """p(x) = sum c_k (x/h)^k at the nodes -reach..reach (any h); the
    vertex is the middle node."""
    return np.polynomial.polynomial.polyval(np.arange(-reach, reach + 1.0), coefs)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(coefs=st.lists(COEF, min_size=4, max_size=4), h=SPACING,
       side=st.sampled_from(["left", "right", "centered"]),
       deriv=st.sampled_from([0, 1, 2]))
def test_vertex_limits_reproduce_cubics(coefs, h, side, deriv):
    # value, slope and curvature at 0 of a sampled cubic, from either side,
    # in units of h**-deriv
    got = vertex_limit(_sampled_polynomial(coefs, 8), 8, h, side, deriv)
    want = math.factorial(deriv) * coefs[deriv]
    if deriv == 1:
        want += SLOPE_ERROR[side] * coefs[3]
    assert abs(got * h ** deriv - want) <= 1e-9 * max(1.0, *map(abs, coefs))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coefs=st.lists(COEF, min_size=3, max_size=3), h=SPACING,
       side=st.sampled_from(["left", "right"]), deriv=st.sampled_from([0, 1, 2]),
       j0=st.integers(0, 16), width=st.integers(4, 20))
def test_fit_window_limits_reproduce_quadratics(coefs, h, side, deriv, j0, width):
    got = vertex_limit(_sampled_polynomial(coefs, 40), 40, h, side, deriv,
                       (j0, j0 + width))
    want = math.factorial(deriv) * coefs[deriv]
    assert abs(got * h ** deriv - want) <= 1e-9 * max(1.0, *map(abs, coefs))


def _lstsq_at_zero(xs, ys):
    """Value at 0 of the least-squares quadratic through (xs, ys)."""
    a = np.vander(xs, 3, increasing=True)
    re = np.linalg.lstsq(a, ys.real, rcond=None)[0][0]
    im = np.linalg.lstsq(a, ys.imag, rcond=None)[0][0]
    return re + 1j * im


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), h=SPACING,
       j0=st.integers(0, 16), width=st.integers(4, 20))
def test_fit_window_weights_match_lstsq(seed, h, j0, width):
    # The reference fits against the node offset: the value at 0 of the fit
    # does not depend on h, and lstsq on the abscissae h * j loses up to
    # ~1e-13 to the column scaling of its Vandermonde matrix.  The bound is
    # relative to sum |w_k v_k|, the rounding scale of the functional, which
    # grows for short windows far from the vertex.
    rng = np.random.default_rng(seed)
    row = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    j = np.arange(j0, j0 + width + 1)
    for side, sgn in (("left", -1), ("right", 1)):
        got = vertex_limit(row, 40, h, side, 0, (j0, j0 + width))
        vals = row[40 + sgn * j]
        want = _lstsq_at_zero(sgn * j.astype(float), vals)
        scale = np.abs(limit_weights(side, 0, (j0, j0 + width))[1] * vals).sum()
        assert abs(got - want) <= 1e-14 * scale


# the highest polynomial degree each STENCILS entry differentiates exactly
# (d0 reads the node itself: any degree)
STENCIL_DEGREE = {"d0": 6, "d1": 2, "d1_4": 4, "d1_end": 3, "d1_end2": 2,
                  "d2": 3, "d2_end": 3, "d3": 4, "d3_near": 4, "d3_end": 4,
                  "d0_ext": 3, "d1_ext": 3, "d2_ext": 3}


def _polynomial_rows(coefs, x0, h, n):
    """p and its rounding scale sum |c_j| |x|^j at the nodes x0 + h * (0..n-1)."""
    p = np.polynomial.Polynomial(coefs)
    x = x0 + h * np.arange(n)
    return p, x, np.polynomial.Polynomial(np.abs(coefs))(np.abs(x))


def test_stencil_degrees_cover_the_table():
    assert set(STENCIL_DEGREE) == set(STENCILS)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(STENCILS)),
       coefs=st.lists(COEF, min_size=7, max_size=7),
       h=st.floats(1e-2, 1.0), x0=st.floats(-1.0, 1.0))
def test_stencils_exact_for_their_degree(name, coefs, h, x0):
    # every node a stencil reaches, plain and mirrored; the end nodes also
    # alone, the right one counted from the end
    offsets, weights, divisor = STENCILS[name]
    k, n = int(name[1]), 16
    p, x, size = _polynomial_rows(coefs[:STENCIL_DEGREE[name] + 1], x0, h, n)
    v, want, unit = p(x), p.deriv(k)(x), divisor * h ** k
    for mirror, sgn in ((False, 1), (True, -1)):
        off = [sgn * o for o in offsets]
        lo, hi = max(0, -min(off)), n - max(0, max(off))
        got = stencil_sum(name, v, lo, hi, mirror) / unit
        scale = sum(abs(w) * size[lo + o:hi + o] for o, w in zip(off, weights)) / unit
        assert np.all(np.abs(got - want[lo:hi]) <= 1e-12 * (scale + np.abs(want[lo:hi])))
        end = hi - 1 - n if mirror else lo
        assert stencil_sum(name, v, end, mirror=mirror) / unit == got[-1 if mirror else 0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.sampled_from([1, 2, 3]), coefs=st.lists(COEF, min_size=5, max_size=5),
       h=st.floats(1e-2, 1.0), x0=st.floats(-1.0, 1.0), n=st.integers(5, 24))
def test_sampled_derivative_exact_to_degree_k_plus_one(k, coefs, h, x0, n):
    p, x, size = _polynomial_rows(coefs[:k + 2], x0, h, n)
    got = sampled_derivative(p(x), h, k)
    assert np.all(np.abs(got - p.deriv(k)(x)) <= 1e-12 * size.max() / h ** k)


def test_vertex_limit_domain():
    row = np.zeros(9)
    with pytest.raises(DomainError):
        limit_weights("right", 3)
    with pytest.raises(DomainError):
        limit_weights("middle", 0)
    with pytest.raises(DomainError):
        limit_weights("right", 0, (3, 6))        # fewer than five nodes
    with pytest.raises(DomainError):              # needs nodes +1..+6
        vertex_limit(row, 4, 0.1, "right", 2)
    assert vertex_limit(row, 4, 0.1, "left") == 0.0


@pytest.mark.parametrize("shape_a,n_b", [
    ((501,), 501), ((12800,), 12800), ((26, 12800), 12800), ((37,), 100),
    ((1,), 40), ((40,), 1), ((1,), 1), ((26, 1), 7)],
    ids=["501", "12800", "stack-26x12800", "unequal", "a-length-1",
         "b-length-1", "both-length-1", "stack-length-1"])
@pytest.mark.parametrize("kind", ["real", "complex-a", "complex-b", "complex"])
def test_fftconvolve_matches_scipy(shape_a, n_b, kind):
    rng = np.random.default_rng(n_b)
    a, b = rng.standard_normal(shape_a), rng.standard_normal(n_b)
    if kind in ("complex-a", "complex"):
        a = a + 1j * rng.standard_normal(shape_a)
    if kind in ("complex-b", "complex"):
        b = b + 1j * rng.standard_normal(n_b)
    want = scipy.signal.fftconvolve(a, b[None, :], axes=1) if a.ndim == 2 \
        else scipy.signal.fftconvolve(a, b)
    if kind == "real":
        got = fftconvolve(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        # scipy's transform lengths and spectra: bitwise, so the forcing
        # classes stay bitwise what they were with scipy.signal
        assert np.array_equal(got, want)
        return
    # complex operands are refused; their convolution is that of the parts
    with pytest.raises(ContractError, match="fftconvolve"):
        fftconvolve(a, b)
    got = fftconvolve(a.real, b.real) - fftconvolve(a.imag, b.imag) \
        + 1j * (fftconvolve(a.real, b.imag) + fftconvolve(a.imag, b.real))
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
