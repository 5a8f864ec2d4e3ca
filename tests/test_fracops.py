"""Riemann-Liouville operator against closed-form fractional integrals."""

import math

import numpy as np
import pytest

from ygraph.errors import ContractError, DomainError
from ygraph.fracops import (TimeTrace, boundary_layer_width,
                            fractional_integral_samples, product_weights,
                            riemann_liouville, trace_from_function)


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
