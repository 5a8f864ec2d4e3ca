"""Vertex matrices, closed-form determinants and the linear construction."""

import cmath
import math

import numpy as np
import pytest

from ygraph.errors import ContractError, DomainError, SingularMatrixError
from ygraph.fracops import TimeTrace
from ygraph.linops import GridFunction, gaussian_profile, group_multi
from ygraph.vertex import (BoundaryMatrix, CouplingKind, LambdaVector,
                           VertexCoupling, admissible_scan, admissible_window,
                           anchor_lambda, assemble_linear_solution,
                           build_matrix, closed_form_det, compatibility_deviation,
                           det_m, is_invertible, solve_gamma, time_ladder,
                           verify_vertex_conditions, LinearSolution)

C_UNIT = VertexCoupling.special_type1(1.0, 1.0, 0.0, 0.0)


class TestMatrix:
    def test_row_one_at_zero_orders(self):
        cp = VertexCoupling(CouplingKind.TYPE1, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
        m = build_matrix(cp, LambdaVector(0.0, 0.0, 0.0, 0.0))
        assert np.allclose(m.entries[0], [1.0, -1.0, 0.0, 1.0], atol=1e-14)

    def test_identical_columns_when_orders_match(self):
        m = build_matrix(C_UNIT, LambdaVector(0.2, 0.2, 0.1, 0.3))
        assert np.allclose(m.entries[:, 0], m.entries[:, 3])
        assert abs(det_m(m)) <= 1e-12

    def test_type2_last_row_unit_phase(self):
        cp = VertexCoupling(CouplingKind.TYPE2, 1.0, 1.0, 0.0, 0.0, 1.0, 2.0)
        m = build_matrix(cp, LambdaVector(0.1, 0.2, 0.3, 0.0))
        assert m.entries[3, 2] == pytest.approx(-2.0, abs=1e-14)

    def test_column_swap_symmetry(self):
        a = build_matrix(C_UNIT, LambdaVector(0.1, 0.3, 0.2, 0.25))
        b = build_matrix(C_UNIT, LambdaVector(0.3, 0.1, 0.2, 0.25))
        assert abs(abs(det_m(a)) - abs(det_m(b))) <= 1e-12


class TestDeterminant:
    def test_low_anchor_value(self):
        m = build_matrix(C_UNIT, anchor_lambda("low", 0.1))
        ref = 2.0 * math.sqrt(3.0) * math.sin(0.1) * 3.0
        assert det_m(m) == pytest.approx(ref, rel=1e-12)
        assert ref == pytest.approx(1.0374992995529935, rel=1e-12)

    def test_high_anchor_same_value(self):
        m = build_matrix(C_UNIT, anchor_lambda("high", 0.1))
        assert det_m(m) == pytest.approx(closed_form_det(1, 1, 0, 0, 0.1, "high"),
                                         rel=1e-12, abs=1e-14)

    def test_degenerate_factor_zero(self):
        cp = VertexCoupling.special_type1(1.0, 1.0, -1.5, -1.5)
        m = build_matrix(cp, anchor_lambda("low", 0.1))
        assert abs(det_m(m)) <= 1e-10

    def test_random_anchor_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a2, a3 = rng.uniform(0.5, 3.0, 2)
            b2, b3 = rng.uniform(-2.0, 2.0, 2)
            eps = rng.uniform(0.02, 0.45)
            for branch in ("low", "high"):
                for make in (VertexCoupling.special_type1,
                             VertexCoupling.special_type2):
                    d = det_m(build_matrix(make(a2, a3, b2, b3),
                                           anchor_lambda(branch, eps)))
                    ref = closed_form_det(a2, a3, b2, b3, eps, branch)
                    assert abs(d - ref) <= 1e-10 * abs(ref)

    def test_continuity_along_family(self):
        delta = 1e-3
        base = anchor_lambda("low", 0.1)
        d0 = det_m(build_matrix(C_UNIT, base))
        shifted = LambdaVector(base.l1 + delta, base.l2, base.l3 + delta,
                               base.l4 + delta)
        d1 = det_m(build_matrix(C_UNIT, shifted))
        assert abs(d1 - d0) <= 50.0 * delta


class TestClosedForm:
    def test_zero_eps(self):
        assert closed_form_det(1.0, 1.0, 0.0, 0.0, 0.0) == 0.0

    def test_arithmetic_example(self):
        val = closed_form_det(2.0, 1.0, 1.0, 0.0, 0.2)
        factor = 1.0 + 0.25 + 1.0 + 0.0 + 0.5
        assert val == pytest.approx(2.0 * math.sqrt(3.0) * 2.0 * math.sin(0.2)
                                    * factor, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            closed_form_det(0.0, 1.0, 0.0, 0.0, 0.1)
        with pytest.raises(DomainError):
            closed_form_det(1.0, 1.0, 0.0, 0.0, 0.6)
        with pytest.raises(DomainError):
            closed_form_det(1.0, 1.0, 0.0, 0.0, 0.1, "middle")


class TestScan:
    def test_window_formula(self):
        assert admissible_window(0.0) == (0.0, 0.5)
        assert admissible_window(1.2) == (pytest.approx(0.2), 0.5)

    def test_standard_scan_finds_invertible_region(self):
        rep = admissible_scan(0.0, C_UNIT, resolution=41)
        assert rep.window == (0.0, 0.5)
        assert rep.branch == "low"
        assert rep.any_invertible
        assert len(rep.rows) == 41

    def test_degenerate_coupling_near_anchor(self):
        cp = VertexCoupling.special_type1(1.0, 1.0, -1.5, -1.5)
        rep = admissible_scan(0.0, cp, resolution=41)
        # determinant vanishes at the anchor; the smallest orders sit below
        # the invertibility threshold
        assert not rep.rows[0].invertible

    def test_high_branch(self):
        rep = admissible_scan(1.2, C_UNIT, resolution=21)
        assert rep.branch == "high"
        assert rep.window[0] == pytest.approx(0.2)

    def test_domain(self):
        with pytest.raises(DomainError):
            admissible_scan(0.5, C_UNIT)
        with pytest.raises(DomainError):
            admissible_scan(1.7, C_UNIT)
        for resolution in (0, -3):
            with pytest.raises(DomainError, match="resolution"):
                admissible_scan(0.0, C_UNIT, resolution=resolution)

    def test_batched_scan_matches_single_matrices(self):
        # one batched determinant per scan; LAPACK's batched and single
        # calls may round differently in the last bit
        for s, beta in ((0.0, 0.0), (0.0, -1.5), (1.2, 0.0)):
            cp = VertexCoupling.special_type1(1.0, 1.0, beta, beta)
            rep = admissible_scan(s, cp, resolution=101)
            for r in rep.rows:
                m = build_matrix(cp, LambdaVector(r.lam, r.lam2, r.lam, r.lam, s))
                assert r.invertible == is_invertible(m)
                assert r.threshold == pytest.approx(
                    1e-8 * m.row_norm_product(), rel=1e-14)
                assert r.absdet == pytest.approx(abs(det_m(m)), rel=1e-14)


class TestSolveGamma:
    def _matrix(self):
        return build_matrix(C_UNIT, LambdaVector(0.05, 0.3, 0.05, 0.05))

    def test_zero_rhs(self):
        m = self._matrix()
        rhs = [TimeTrace(1e-2, np.zeros(50)) for _ in range(4)]
        out = solve_gamma(m, rhs)
        assert all(np.abs(g.samples).max() == 0.0 for g in out)

    def test_round_trip(self):
        m = self._matrix()
        dt = 1e-3
        t = dt * np.arange(401)
        gams = [np.sin((k + 1) * t) * t ** 2 for k in range(4)]
        paper_order = np.stack([gams[0], gams[2], gams[3], gams[1]])
        f = m.entries @ paper_order.astype(complex)
        rhs = [TimeTrace(dt, f[i]) for i in range(4)]
        g1, g2, g3, g4 = solve_gamma(m, rhs)
        for got, want in zip((g1, g2, g3, g4), gams):
            assert np.abs(got.samples - want).max() <= 1e-10

    def test_singular_matrix(self):
        m = build_matrix(C_UNIT, LambdaVector(0.2, 0.2, 0.1, 0.1))
        rhs = [TimeTrace(1e-2, np.ones(10)) for _ in range(4)]
        with pytest.raises(SingularMatrixError) as exc:
            solve_gamma(m, rhs)
        assert exc.value.det is not None

    def test_mismatched_grids(self):
        m = self._matrix()
        rhs = [TimeTrace(1e-2, np.ones(10)) for _ in range(3)]
        rhs.append(TimeTrace(1e-2, np.ones(11)))
        with pytest.raises(ContractError):
            solve_gamma(m, rhs)


@pytest.fixture(scope="module")
def assembled():
    h = 0.025
    gx = np.arange(-40.0, 40.0, h)
    u0 = GridFunction(gx[0], h, gaussian_profile(gx, 1.0, -8.0, 1.2))
    v0 = GridFunction(gx[0], h, gaussian_profile(gx, 0.7, 7.0, 1.1))
    w0 = GridFunction(gx[0], h, gaussian_profile(gx, 0.5, 9.0, 1.3))
    lam = LambdaVector(0.05, 0.3, 0.05, 0.05, s=0.0)
    sol = assemble_linear_solution(u0, v0, w0, C_UNIT, lam, T=0.5,
                                   n_levels=26, trace_dt=1e-3)
    return sol


class TestAssemble:
    def test_zero_data(self):
        h = 0.05
        gx = np.arange(-20.0, 20.0, h)
        z = GridFunction(gx[0], h, np.zeros(gx.size))
        lam = LambdaVector(0.05, 0.3, 0.05, 0.05)
        sol = assemble_linear_solution(z, z, z, C_UNIT, lam, T=0.2,
                                       n_levels=11, trace_dt=1e-3)
        assert max(np.abs(f.levels).max() for f in (sol.u, sol.v, sol.w)) == 0.0

    def test_remote_data_stays_free(self):
        # nothing reaches the vertex: boundary traces stay tiny and the
        # solution matches the free evolution
        h = 0.025
        gx = np.arange(-40.0, 40.0, h)
        u0 = GridFunction(gx[0], h, gaussian_profile(gx, 1.0, -15.0, 1.0))
        z = GridFunction(gx[0], h, np.zeros(gx.size))
        lam = LambdaVector(0.05, 0.3, 0.05, 0.05)
        sol = assemble_linear_solution(u0, z, z, C_UNIT, lam, T=0.5,
                                       n_levels=26, trace_dt=1e-3)
        gmax = max(np.abs(g.samples).max() for g in sol.gammas)
        assert gmax <= 1e-4
        free = group_multi(u0, sol.times)
        dev = np.abs(np.real(sol.u.levels) - free.levels).max()
        assert dev <= 1e-3

    def test_dirichlet_and_neumann_residuals(self, assembled):
        rep = verify_vertex_conditions(assembled)
        startup = int(np.searchsorted(assembled.times, 0.1))
        d1 = rep.residuals["dirichlet:u-a2v"][startup:].max() / rep.scales[0]
        d2 = rep.residuals["dirichlet:u-a3w"][startup:].max() / rep.scales[0]
        nn = rep.residuals["neumann:u-b2v-b3w"][startup:].max() / rep.scales[1]
        assert d1 <= 2e-2 and d2 <= 2e-2
        assert nn <= 6e-2          # full 2e-2 bar needs the finer acceptance grid

    def test_imaginary_residual_small(self, assembled):
        assert assembled.imag_residual() <= 1e-6

    def test_gammas_causal(self, assembled):
        assert all(abs(g.samples[0]) <= 1e-8 for g in assembled.gammas)

    def test_detection_of_uncoupled_fields(self, assembled):
        # free evolutions glued with no boundary forcing violate coupling
        h = 0.025
        gx = np.arange(-40.0, 40.0, h)
        u0 = GridFunction(gx[0], h, gaussian_profile(gx, 1.0, -8.0, 1.2))
        v0 = GridFunction(gx[0], h, gaussian_profile(gx, 0.7, 7.0, 1.1))
        times = assembled.times
        fake = LinearSolution(
            u=group_multi(u0, times), v=group_multi(v0, times),
            w=group_multi(GridFunction(gx[0], h, np.zeros(gx.size)), times),
            gammas=None, matrix=assembled.matrix, coupling=C_UNIT)
        rep = verify_vertex_conditions(fake)
        assert rep.worst_relative() > 0.2

    def test_compatibility_gate(self):
        h = 0.05
        gx = np.arange(-20.0, 20.0, h)
        u0 = GridFunction(gx[0], h, gaussian_profile(gx, 1.0, 0.0, 2.0))
        u_vertex = u0.samples[u0.index_of_zero()]
        assert compatibility_deviation(C_UNIT, u_vertex, 0.0, 0.0) == \
            pytest.approx(1.0)
        assert compatibility_deviation(C_UNIT, u_vertex, u_vertex, u_vertex) == 0.0
        c2 = VertexCoupling(CouplingKind.TYPE2, 2.0, 3.0, 0.0, 0.0, 1.0, 1.0)
        assert compatibility_deviation(c2, 5.0, 1.0, 1.0) == 0.0

    def test_nan_vertex_value_violates_compatibility(self):
        h = 0.05
        gx = np.arange(-20.0, 20.0, h)
        z = GridFunction(gx[0], h, np.zeros(gx.size))
        nan_at_vertex = np.where(np.abs(gx) < h / 2, np.nan, 0.0)
        with pytest.raises(ContractError, match="finite"):
            GridFunction(gx[0], h, nan_at_vertex)
        # a NaN written into the buffer after construction still fails
        w0 = GridFunction(gx[0], h, np.zeros(gx.size))
        w0.samples[:] = nan_at_vertex
        i0 = w0.index_of_zero()
        assert math.isnan(compatibility_deviation(
            C_UNIT, z.samples[i0], z.samples[i0], w0.samples[i0]))
        lam = LambdaVector(0.05, 0.3, 0.05, 0.05)
        with pytest.raises(ContractError, match="finite"):
            assemble_linear_solution(z, z, w0, C_UNIT, lam, T=0.2,
                                     n_levels=11, trace_dt=1e-3)

    @pytest.mark.parametrize("T,n_levels", [(0.2, 1), (1e-4, 11), (0.2, 12),
                                            (0.2005, 11), (0.1003, None),
                                            (math.inf, 11), (math.nan, None)])
    def test_time_ladder_contract(self, T, n_levels):
        h = 0.05
        gx = np.arange(-20.0, 20.0, h)
        z = GridFunction(gx[0], h, np.zeros(gx.size))
        lam = LambdaVector(0.05, 0.3, 0.05, 0.05)
        with pytest.raises(ContractError, match="trace step"):
            assemble_linear_solution(z, z, z, C_UNIT, lam, T=T,
                                     n_levels=n_levels, trace_dt=1e-3)

    @pytest.mark.parametrize("trace_dt", [0.0, math.nan])
    def test_time_ladder_needs_a_positive_step(self, trace_dt):
        with pytest.raises(ContractError, match="trace step"):
            time_ladder(0.2, trace_dt)

    def test_residuals_do_not_depend_on_the_output_ladder(self):
        # 4 and 7 levels over T = 0.3 share t = 0, 0.1, 0.2, 0.3.  Fields and
        # absolute residuals agree there to rounding; the relative residual
        # still differs, because VertexResidualReport.scales is a max over
        # the stored levels (curvature scale 0.0097 against 0.031 here).
        h = 0.0125
        gx = np.arange(-20.0, 20.0, h)
        data = [GridFunction(gx[0], h, gaussian_profile(gx, a, c, wd))
                for a, c, wd in ((1.0, -8.0, 1.2), (0.7, 7.0, 1.1), (0.5, 9.0, 1.3))]
        lam = LambdaVector(0.05, 0.3, 0.05, 0.05)
        sols = [assemble_linear_solution(*data, C_UNIT, lam, T=0.3, n_levels=n,
                                         trace_dt=1e-3) for n in (4, 7)]
        reps = [verify_vertex_conditions(sol) for sol in sols]
        assert np.allclose(reps[0].times, reps[1].times[::2], rtol=0, atol=1e-15)
        for name in "uvw":
            a, b = (getattr(sol, name).levels for sol in sols)
            assert np.abs(a - b[::2]).max() <= 1e-13 * np.abs(a).max()
        for label, j, _ in C_UNIT.relations():
            a, b = reps[0].residuals[label], reps[1].residuals[label][::2]
            assert np.abs(a - b).max() <= 1e-9 * reps[0].scales[j]

    def test_grid_mismatch(self):
        h = 0.05
        gx = np.arange(-20.0, 20.0, h)
        z = GridFunction(gx[0], h, np.zeros(gx.size))
        z2 = GridFunction(gx[0] + 1.0, h, np.zeros(gx.size))
        lam = LambdaVector(0.05, 0.3, 0.05, 0.05)
        with pytest.raises(ContractError):
            assemble_linear_solution(z, z2, z, C_UNIT, lam, T=0.2,
                                     n_levels=11, trace_dt=1e-3)


def test_lambda_vector_admissibility():
    lam = LambdaVector(0.1, 0.3, 0.1, 0.1, s=0.0)
    assert lam.admissible()
    assert not LambdaVector(0.6, 0.3, 0.1, 0.1, s=0.0).admissible()


def test_special_couplings_require_nonzero_alpha():
    with pytest.raises(DomainError):
        VertexCoupling.special_type1(0.0, 1.0, 0.0, 0.0)
    cp = VertexCoupling.special_type2(2.0, 4.0, 0.1, 0.2)
    assert cp.a2 == pytest.approx(0.5)
    assert cp.c2 == pytest.approx(2.0)
