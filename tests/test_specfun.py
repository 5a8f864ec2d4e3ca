"""Kernel and Gamma evaluation against independent oracles.

The implementation uses its own series/asymptotic evaluation; scipy's AMOS-
backed Airy routines and mpmath serve as the oracles.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from ygraph.errors import DomainError
from ygraph.specfun import (airy_scaled, airy_scaled_deriv,
                            airy_scaled_with_deriv, gamma_fn)

CBRT3 = 3.0 ** (1.0 / 3.0)


def oracle_a(x):
    ai, _, _, _ = special.airy(np.asarray(x) / CBRT3)
    return ai / CBRT3


def oracle_ap(x):
    _, aip, _, _ = special.airy(np.asarray(x) / CBRT3)
    return aip / CBRT3 ** 2


def test_anchor_values():
    assert airy_scaled(0.0) == pytest.approx(1.0 / (3.0 * math.gamma(2.0 / 3.0)),
                                             abs=1e-12)
    assert airy_scaled_deriv(0.0) == pytest.approx(-1.0 / (3.0 * math.gamma(1.0 / 3.0)),
                                                   abs=1e-12)


def test_scaling_relation_against_oracle():
    x = np.linspace(-10.0, 10.0, 100)
    assert np.abs(airy_scaled(x) - oracle_a(x)).max() <= 1e-9


def test_derivative_scaling_relation():
    assert abs(airy_scaled_deriv(5.0) - float(oracle_ap(5.0))) <= 1e-9


def test_absolute_accuracy_window():
    x = np.linspace(-30.0, 30.0, 6001)
    assert np.abs(airy_scaled(x) - oracle_a(x)).max() <= 1e-10
    assert np.abs(airy_scaled_deriv(x) - oracle_ap(x)).max() <= 1e-9


def test_finite_difference_consistency():
    h = 1e-4
    fd = (airy_scaled(h) - airy_scaled(-h)) / (2.0 * h)
    assert abs(fd - airy_scaled_deriv(0.0)) <= 1e-7


def test_ode_residual():
    x = np.linspace(-8.0, 8.0, 200)
    h = 1e-3
    stencil = np.array([-1, 16, -30, 16, -1]) / (12.0 * h * h)
    second = sum(c * airy_scaled(x + k * h)
                 for k, c in zip((-2, -1, 0, 1, 2), stencil))
    assert np.abs(second - x / 3.0 * airy_scaled(x)).max() <= 1e-6


def test_positive_halfline_integral():
    val, err = quad(airy_scaled, 0.0, np.inf, limit=200)
    assert abs(val - 1.0 / 3.0) <= 1e-8


def test_full_line_normalization():
    pos, _ = quad(airy_scaled, 0.0, np.inf, limit=200)
    # oscillatory side: lobes between consecutive kernel zeros form an
    # alternating series; iterated averaging (Euler transform) accelerates it
    zeros = -CBRT3 * special.ai_zeros(80)[0]
    bounds = np.concatenate([[0.0], zeros])
    lobes = [quad(lambda y: airy_scaled(-y), bounds[k], bounds[k + 1],
                  limit=60)[0] for k in range(len(bounds) - 1)]
    partial = np.cumsum(lobes)
    for _ in range(6):
        partial = 0.5 * (partial[:-1] + partial[1:])
    neg = partial[-1]
    assert abs(neg - 2.0 / 3.0) <= 1e-7
    assert abs(pos + neg - 1.0) <= 1e-6


def test_positive_axis_decay_invariants():
    x = np.linspace(0.0, 30.0, 400)
    a = airy_scaled(x)
    assert np.all(np.abs(a) <= airy_scaled(0.0) + 0.1)
    tail = airy_scaled(np.linspace(1.0, 30.0, 300))
    assert np.all(np.diff(tail) < 0)


def test_no_reflection_symmetry():
    assert airy_scaled(-1.0) != pytest.approx(airy_scaled(1.0), abs=1e-3)


def test_vectorized_and_joint():
    x = np.array([-2.0, 0.5, 7.5])
    a, ap = airy_scaled_with_deriv(x)
    assert np.allclose(a, airy_scaled(x))
    assert np.allclose(ap, airy_scaled_deriv(x))
    a1, ap1 = airy_scaled_with_deriv(1.25)
    assert isinstance(a1, float) and isinstance(ap1, float)
    assert a1 == pytest.approx(airy_scaled(1.25))
    assert ap1 == pytest.approx(airy_scaled_deriv(1.25))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_domain_errors(bad):
    with pytest.raises(DomainError):
        airy_scaled(bad)
    with pytest.raises(DomainError):
        airy_scaled_deriv(bad)


class TestGamma:
    def test_classical_values(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_extended_precision_oracle(self):
        mpmath.mp.dps = 30
        for z in (2.0 / 3.0, 1.0 / 3.0, 5.5, -0.5, -9.5, 29.0):
            ref = float(mpmath.gamma(z))
            assert abs(gamma_fn(z) - ref) / abs(ref) <= 1e-12

    def test_two_thirds_frozen(self):
        assert gamma_fn(2.0 / 3.0) == pytest.approx(1.3541179394264005, rel=1e-12)

    @pytest.mark.parametrize("pole", [0.0, -1.0, -7.0])
    def test_poles(self, pole):
        with pytest.raises(DomainError, match="pole"):
            gamma_fn(pole)

    def test_non_finite(self):
        with pytest.raises(DomainError):
            gamma_fn(float("nan"))
