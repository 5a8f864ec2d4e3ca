"""Riemann-Liouville operator against closed-form fractional integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ygraph.errors import ContractError, DomainError
from ygraph.fracops import (TimeTrace, boundary_layer_width,
                            fractional_integral_samples, product_weights,
                            riemann_liouville, trace_from_function,
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
    f = trace_from_function(lambda t: t ** 2 * np.exp(-t), 1e-3, 1001)
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
    dt = 1e-3
    t = dt * np.arange(600)
    f = TimeTrace(dt, t ** 2)
    g = TimeTrace(dt, np.sin(3 * t) * t ** 2)
    a, b = 0.7, -1.3 + 0.4j
    combo = TimeTrace(dt, a * f.samples + b * g.samples)
    lhs = riemann_liouville(combo, 0.5).samples
    rhs = a * riemann_liouville(f, 0.5).samples + b * riemann_liouville(g, 0.5).samples
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_product_weights_match_trapezoid_at_order_one():
    c = product_weights(1.0, 6)
    assert c[0] == pytest.approx(1.0)
    assert np.allclose(c[1:], 2.0)
    vals = fractional_integral_samples(np.ones(11), 0.1, 1.0)
    assert np.abs(vals - 0.1 * np.arange(11)).max() <= 1e-14


def test_boundary_layer_width():
    assert boundary_layer_width(-1.0) == 4
    assert boundary_layer_width(0.5) == 4
    assert boundary_layer_width(-2.5) == 6


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
