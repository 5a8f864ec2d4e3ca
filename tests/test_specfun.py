"""Kernel and Gamma evaluation against independent oracles.

The implementation uses its own series/asymptotic evaluation; scipy's AMOS-
backed Airy routines and mpmath serve as the oracles.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import quad

from ygraph import specfun
from ygraph.errors import DomainError
from ygraph.specfun import (X_MIN, airy_scaled, airy_scaled_deriv,
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


class TestSeams:
    """Ai and Ai' against mpmath on both sides of every switch in specfun."""

    @staticmethod
    def mp_pair(x):
        with mpmath.workdps(30):
            z = mpmath.mpf(float(x)) / mpmath.cbrt(3)
            return (float(mpmath.airyai(z) / mpmath.cbrt(3)),
                    float(mpmath.airyai(z, derivative=1) / mpmath.cbrt(3) ** 2))

    @staticmethod
    def around(edges_z, seed):
        """x at each seam z = edge and at seeded random offsets below and above it."""
        rng = np.random.default_rng(seed)
        edges_z = np.asarray(edges_z, dtype=float)
        off = rng.uniform(1e-9, 1e-4, (edges_z.size, 2)) * [-1.0, 1.0]
        z = np.concatenate([edges_z, (edges_z[:, None] * (1.0 + off)).ravel()])
        return CBRT3 * z

    def check(self, x, slack_a=0.0, slack_ap=0.0):
        a, ap = airy_scaled_with_deriv(x)
        ref = np.array([self.mp_pair(v) for v in x])
        assert np.all(np.abs(a - ref[:, 0]) <= 1e-10 + slack_a)
        assert np.all(np.abs(ap - ref[:, 1]) <= 1e-9 + slack_ap)

    def test_taylor_cell_edges(self):
        k = np.arange(-specfun._N_CELLS, specfun._N_CELLS + 1)
        centres = k / specfun._CELLS_PER_UNIT
        half = 0.5 / specfun._CELLS_PER_UNIT
        edges = np.concatenate([centres - half, centres + half])
        edges = np.unique(edges[np.abs(edges) <= specfun._Z_SWITCH])
        self.check(self.around(edges, seed=91))

    def test_series_switch(self):
        self.check(self.around([-specfun._Z_SWITCH, specfun._Z_SWITCH], seed=92))

    def test_term_count_band_edges(self):
        # beyond |x| = 30 the phase zeta = (2/3)|z|**1.5 is itself rounded:
        # allow that rounding times the amplitude, zeta * 2**-51 * |z|**(-+1/4)
        zeta = specfun._BAND_ZETA[1:]
        z = (1.5 * zeta) ** (2.0 / 3.0)
        x = self.around(np.concatenate([-z, z[zeta < 745.0]]), seed=93)
        w = np.abs(x) / CBRT3
        slack = (2.0 / 3.0) * w ** 1.5 * 2.0 ** -51 / math.sqrt(math.pi)
        self.check(x, slack_a=slack * w ** -0.25, slack_ap=slack * w ** 0.25)

    def test_value_alone_is_the_joint_value(self):
        edges = self.around((1.5 * specfun._BAND_ZETA[1:]) ** (2.0 / 3.0), 94)
        x = np.concatenate([np.linspace(-300.0, 300.0, 20001), -edges, edges,
                            [X_MIN, 1e300]])
        assert np.array_equal(airy_scaled(x), airy_scaled_with_deriv(x)[0])
        for v in (-7.5, 0.0, 3.0, 9.2):
            assert airy_scaled(v) == airy_scaled_with_deriv(v)[0]


class TestArgumentRange:
    def test_phase_without_digits_raises(self):
        with pytest.raises(DomainError, match="-1e[+]200"):
            airy_scaled(-1e200)
        with pytest.raises(DomainError, match="2[*][*]53"):
            airy_scaled_with_deriv(np.array([0.0, np.nextafter(X_MIN, -np.inf)]))
        with pytest.raises(DomainError):
            airy_scaled_deriv(-1e11)

    def test_bound_is_far_beyond_the_simpson_route(self):
        assert X_MIN < -1e10
        a, ap = airy_scaled_with_deriv(X_MIN)
        assert math.isfinite(a) and math.isfinite(ap) and abs(a) < 0.1

    @pytest.mark.parametrize("bad", [np.array([1.0 + 2.0j]), 1.0 + 2.0j, "x", "1.5"],
                             ids=["complex-array", "complex", "string", "numeric-string"])
    def test_non_real_arguments_raise(self, bad):
        for f in (airy_scaled, airy_scaled_deriv, airy_scaled_with_deriv):
            with pytest.raises(DomainError, match="must be real numbers"):
                f(bad)

    def test_ragged_arguments_raise(self):
        for f in (airy_scaled, airy_scaled_deriv, airy_scaled_with_deriv):
            with pytest.raises(DomainError, match="rectangular array"):
                f([1.0, [2.0, 3.0]])

    def test_decaying_side_underflows_to_exact_zero(self):
        x = CBRT3 * np.array([100.0, 110.0, 1e3, 1e300])
        a, ap = airy_scaled_with_deriv(x)
        assert a[0] > 0.0 and ap[0] < 0.0
        assert np.all(a[1:] == 0.0) and np.all(ap[1:] == 0.0)
        assert airy_scaled(np.finfo(float).max) == 0.0


def _seam_values():
    """x on and one ulp either side of every seam of the evaluator: the
    Taylor cell edges, the series switch, each zeta-band edge, the zone where
    exp(-zeta) underflows, the clip _Z_DEAD, and X_MIN."""
    k = np.arange(-specfun._N_CELLS, specfun._N_CELLS + 1) / specfun._CELLS_PER_UNIT
    half = 0.5 / specfun._CELLS_PER_UNIT
    cells = np.concatenate([k - half, k + half, [-specfun._Z_SWITCH, specfun._Z_SWITCH]])
    cells = cells[np.abs(cells) <= specfun._Z_SWITCH]
    bands = (1.5 * specfun._BAND_ZETA[1:]) ** (2.0 / 3.0)
    underflow = (1.5 * np.array([700.0, 745.0, 745.13, 745.2, 760.0])) ** (2.0 / 3.0)
    z = np.concatenate([cells, -bands, bands, underflow, [specfun._Z_DEAD]])
    x = CBRT3 * z
    x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                        [X_MIN, np.nextafter(X_MIN, np.inf), 0.0, -0.0, 1e300]])
    return np.unique(x[x >= X_MIN])


SEAMS = _seam_values()
KERNELS = (airy_scaled, airy_scaled_deriv, airy_scaled_with_deriv)


def _outputs(f, arg):
    out = f(arg)
    return out if f is airy_scaled_with_deriv else (out,)


def _layouts(x, rng):
    """Arrangements of x, each with the index into x of every element."""
    n = x.size
    perm = rng.permutation(n)
    strided = np.empty(2 * n)
    strided[::2] = x
    return [(x[perm], perm), (x[::-1], np.arange(n)[::-1]),
            (np.stack([x, x[perm]]), np.stack([np.arange(n), perm])),
            (strided[::2], np.arange(n)), (x[perm][::-1], perm[::-1])]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=st.lists(st.one_of(st.sampled_from(list(SEAMS)),
                                 st.floats(-60.0, 60.0),
                                 st.floats(X_MIN, 1e300)),
                       max_size=80),
       seed=st.integers(0, 2 ** 32 - 1))
def test_value_of_an_element_does_not_depend_on_its_position(values, seed):
    # sorted input is evaluated in place, any other order through one
    # argsort; every element must come out bitwise the same either way
    x = np.sort(np.array(values, dtype=float))
    rng = np.random.default_rng(seed)
    for f in KERNELS:
        ref = _outputs(f, x)
        for arr, at in _layouts(x, rng):
            for got, r in zip(_outputs(f, arr), ref):
                assert got.shape == arr.shape
                assert got.tobytes() == r[at].tobytes()
        for i in range(min(3, x.size)):
            for arg in (float(x[i]), np.array(x[i])):
                for got, r in zip(_outputs(f, arg), ref):
                    assert type(got) is float
                    assert np.float64(got).tobytes() == r[i].tobytes()
        for empty in (np.empty(0), np.empty((0, 3))):
            for got in _outputs(f, empty):
                assert got.shape == empty.shape


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


@settings(max_examples=15, deadline=None, derandomize=True)
@given(values=st.lists(st.one_of(st.sampled_from(list(SEAMS)),
                                 st.floats(-60.0, 60.0),
                                 st.floats(X_MIN, 1e300)),
                       max_size=40),
       block=st.sampled_from([1, 3, 7]), seed=st.integers(0, 2 ** 32 - 1))
def test_blocks_do_not_change_any_value(values, block, seed):
    # each region is evaluated in blocks of specfun._BLOCK ascending
    # arguments; every block length must give the one-block values bitwise,
    # on input that crosses the seams and all three regions, in any order
    # and shape
    rng = np.random.default_rng(seed)
    x = np.concatenate([values, [-30.0, 0.0, 30.0],
                        rng.choice(SEAMS, 9 + -len(values) % 3)])
    for arg in (x, np.sort(x), x.reshape(3, -1), np.sort(x).reshape(-1, 3).T):
        for f in KERNELS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(specfun, "_BLOCK", arg.size)
                whole = _outputs(f, arg)
                mp.setattr(specfun, "_BLOCK", block)
                blocked = _outputs(f, arg)
            for got, want in zip(blocked, whole):
                assert got.shape == arg.shape
                assert got.tobytes() == want.tobytes()
