"""Vertex coupling matrices for the Y-junction and the linear solution built
from boundary forcing classes.

The 4x4 matrix collects the vertex trace coefficients of the four forcing
terms (columns ordered gamma_1, gamma_3, gamma_4, gamma_2); inverting it
against the free-evolution trace data yields the boundary forcers that make
the assembled field satisfy the coupling relations.  The only complex number
in it is the plus-class phase e^{i pi lambda}; the solve folds it into the
plus unknowns, so the system, the traces and the assembled fields are real.
The data must be real: the kernels raise ContractError on complex samples.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ContractError, DomainError, SingularMatrixError
from .fracops import TimeTrace, real_only, riemann_liouville, vertex_limit
from .linops import GridFunction, Ladder, SpaceTimeField, half_frequencies, \
    free_vertex_traces, group_multi
from .forcing import (SMOOTH_FIT_WINDOW, filon_tables, forcing_class,
                      minus_trace_factor, phase_free_class, plus_trace_factor,
                      smooth_window)

DET_THRESHOLD = 1e-8
COMPATIBILITY_TOL = 1e-8
# The constructed fields settle into the vertex relations over a start-up
# window; residuals are judged from STARTUP_WINDOW on against VERTEX_RESIDUAL_TOL.
STARTUP_WINDOW = 0.1
VERTEX_RESIDUAL_TOL = 2e-2


class CouplingKind(Enum):
    TYPE1 = 1
    TYPE2 = 2


@dataclass(frozen=True)
class VertexCoupling:
    """Vertex relation coefficients.

    TYPE1 ties the Dirichlet traces pairwise (u = a2 v = a3 w) and mixes the
    derivative traces; TYPE2 ties the second-derivative traces pairwise.
    """

    kind: CouplingKind
    a2: float
    a3: float
    b2: float
    b3: float
    c2: float
    c3: float

    def __post_init__(self):
        vals = (self.a2, self.a3, self.b2, self.b3, self.c2, self.c3)
        if not all(math.isfinite(v) for v in vals):
            raise ContractError("coupling coefficients must be finite")

    @classmethod
    def special_type1(cls, alpha2, alpha3, beta2, beta3):
        """The dissipativity-friendly family: a = alpha, b = beta, c = 1/alpha."""
        if alpha2 == 0 or alpha3 == 0:
            raise DomainError("special couplings need nonzero alpha")
        return cls(CouplingKind.TYPE1, alpha2, alpha3, beta2, beta3,
                   1.0 / alpha2, 1.0 / alpha3)

    @classmethod
    def special_type2(cls, alpha2, alpha3, beta2, beta3):
        """Mirror family with reciprocal Dirichlet and direct c coefficients."""
        if alpha2 == 0 or alpha3 == 0:
            raise DomainError("special couplings need nonzero alpha")
        return cls(CouplingKind.TYPE2, 1.0 / alpha2, 1.0 / alpha3,
                   beta2, beta3, alpha2, alpha3)

    def relations(self):
        """The four vertex relations, each ``(label, j, (cu, cv, cw))``.

        A relation reads cu d^j u(0-) + cv d^j v(0+) + cw d^j w(0+) = 0;
        a coefficient of None marks a field that does not enter it.  This
        is the one statement of the type-1 and type-2 conditions: the
        vertex matrix, its right-hand side, the compatibility check, the
        residual report and the direct solver's constraint rows read it.
        """
        neumann = ("neumann:u-b2v-b3w", 1, (1.0, -self.b2, -self.b3))
        if self.kind is CouplingKind.TYPE1:
            return (("dirichlet:u-a2v", 0, (1.0, -self.a2, None)),
                    ("dirichlet:u-a3w", 0, (1.0, None, -self.a3)),
                    neumann,
                    ("second:u-c2v-c3w", 2, (1.0, -self.c2, -self.c3)))
        return (("dirichlet:u-a2v-a3w", 0, (1.0, -self.a2, -self.a3)),
                neumann,
                ("second:u-c2v", 2, (1.0, -self.c2, None)),
                ("second:u-c3w", 2, (1.0, None, -self.c3)))


def _combine(coefs, values):
    """Left side of one relation: the sum of c * value over the fields in it."""
    return functools.reduce(operator.add, (c * val for c, val in zip(coefs, values)
                                           if c is not None))


@dataclass(frozen=True)
class LambdaVector:
    """Forcing-class orders with the target regularity they serve."""

    l1: float
    l2: float
    l3: float
    l4: float
    s: float = 0.0

    def as_tuple(self):
        return (self.l1, self.l2, self.l3, self.l4)

    def admissible(self) -> bool:
        lo, hi = admissible_window(self.s)
        return all(lo < l < hi for l in self.as_tuple())


def admissible_window(s: float):
    """Open interval the class orders must lie in for regularity s."""
    return max(s - 1.0, 0.0), min(s + 0.5, 0.5)


@dataclass(frozen=True)
class BoundaryMatrix:
    entries: np.ndarray = field(repr=False)
    lam: LambdaVector = None
    coupling: VertexCoupling = None

    def row_norm_product(self) -> float:
        return float(np.prod(np.linalg.norm(self.entries, axis=1)))


def build_matrix(coupling: VertexCoupling, lam: LambdaVector) -> BoundaryMatrix:
    """Populate the 4x4 vertex matrix, one row per coupling relation,
    columns (g1, g3, g4, g2).

    The minus classes g1, g2 act on u with trace factors
    :func:`forcing.minus_trace_factor` (lam - j); the plus classes g3, g4 act
    on v and w with :func:`forcing.plus_trace_factor` (lam - j).
    """
    l1, l2, l3, l4 = lam.as_tuple()

    def plus(c, lam_k, j):
        return 0.0 if c is None else c * plus_trace_factor(lam_k - j)

    m = np.array([[cu * minus_trace_factor(l1 - j), plus(cv, l3, j), plus(cw, l4, j),
                   cu * minus_trace_factor(l2 - j)]
                  for _, j, (cu, cv, cw) in coupling.relations()], dtype=complex)
    return BoundaryMatrix(entries=m, lam=lam, coupling=coupling)


def det_m(m: BoundaryMatrix) -> complex:
    """Determinant via LU with partial pivoting (numpy)."""
    return complex(np.linalg.det(m.entries))


def is_invertible(m: BoundaryMatrix) -> bool:
    return abs(det_m(m)) > DET_THRESHOLD * m.row_norm_product()


def closed_form_det(alpha2: float, alpha3: float, beta2: float, beta3: float,
                    eps: float, branch: str = "low") -> complex:
    """Determinant of the special-coupling matrix at the anchor orders.

    Both anchor families (orders near 0 and orders near 1/2) share the value
    2 sqrt(3) a2 a3 sin(eps) (1 + 1/a2^2 + 1/a3^2 + b3/a3 + b2/a2).
    """
    if alpha2 == 0 or alpha3 == 0:
        raise DomainError("alpha coefficients must be nonzero")
    if not 0.0 <= eps < 0.5:
        raise DomainError("eps must lie in [0, 0.5)")
    if branch not in ("low", "high"):
        raise DomainError(f"branch must be 'low' or 'high', got {branch!r}")
    factor = (1.0 + 1.0 / alpha2 ** 2 + 1.0 / alpha3 ** 2
              + beta3 / alpha3 + beta2 / alpha2)
    return complex(2.0 * math.sqrt(3.0) * alpha2 * alpha3 * math.sin(eps) * factor)


def anchor_lambda(branch: str, eps: float, s: float = 0.0) -> LambdaVector:
    """Anchor order vectors of the two one-parameter determinant families."""
    if branch == "low":
        return LambdaVector(0.0, 3.0 * eps / math.pi, 0.0, 0.0, s)
    if branch == "high":
        return LambdaVector(0.5, 0.5 - 3.0 * eps / math.pi, 0.5, 0.5, s)
    raise DomainError(f"branch must be 'low' or 'high', got {branch!r}")


@dataclass(frozen=True)
class ScanRow:
    lam: float
    lam2: float
    absdet: float
    threshold: float
    invertible: bool


@dataclass(frozen=True)
class ScanReport:
    s: float
    window: tuple
    eps: float
    branch: str
    rows: list

    @property
    def any_invertible(self):
        return any(r.invertible for r in self.rows)


def admissible_scan(s: float, coupling: VertexCoupling, resolution: int = 101,
                    eps: float = 0.1) -> ScanReport:
    """Scan the one-parameter family (lam, lam2, lam, lam) over the window.

    lam2 is pinned to the anchor value of the branch matching s (3 eps/pi
    below regularity 1, its reflection about 1/2 above).  Each sample
    records |det| and the scale-invariant invertibility verdict of
    :func:`is_invertible`; all samples go through one batched determinant.
    """
    if not -0.5 < s < 1.5 or s == 0.5:
        raise DomainError("s must lie in (-1/2, 3/2) excluding 1/2")
    if resolution < 1:
        raise DomainError(f"resolution must be >= 1, got {resolution}")
    lo, hi = admissible_window(s)
    branch = "low" if s < 1.0 else "high"
    lam2 = anchor_lambda(branch, eps, s).l2
    grid = np.linspace(lo, hi, resolution + 2)[1:-1]
    mats = np.array([build_matrix(coupling,
                                  LambdaVector(lam, lam2, lam, lam, s)).entries
                     for lam in grid])
    absdet = np.abs(np.linalg.det(mats))
    thr = DET_THRESHOLD * np.prod(np.linalg.norm(mats, axis=2), axis=1)
    rows = [ScanRow(lam=float(lam), lam2=float(lam2), absdet=float(d),
                    threshold=float(t), invertible=bool(d > t))
            for lam, d, t in zip(grid, absdet, thr)]
    return ScanReport(s=s, window=(lo, hi), eps=eps, branch=branch, rows=rows)


def solve_gamma(m: BoundaryMatrix, rhs) -> tuple:
    """Solve M gamma = F per time sample.

    ``rhs`` is the four right-hand-side TimeTraces in row order; returns the
    four boundary traces in physical order (gamma_1, gamma_2, gamma_3,
    gamma_4), undoing the paper-ordered solution columns.  The solve runs in
    the dtype of the matrix and the right-hand side: real for both real, as
    :func:`solve_vertex` passes them.
    """
    r1, r2, r3, r4 = rhs
    if not (len(r1) == len(r2) == len(r3) == len(r4)) or \
            not (r1.dt == r2.dt == r3.dt == r4.dt):
        raise ContractError("rhs traces must share one time grid")
    d = det_m(m)
    if not is_invertible(m):
        raise SingularMatrixError(
            f"vertex matrix numerically singular, |det| = {abs(d):.3e}", det=d)
    stacked = np.stack([r1.samples, r2.samples, r3.samples, r4.samples])
    sol = np.linalg.solve(m.entries, stacked)
    resid = np.abs(m.entries @ sol - stacked).max()
    scale = max(np.abs(stacked).max(), 1e-300)
    if resid > 1e-9 * scale:
        raise SingularMatrixError(
            f"vertex solve residual {resid:.3e} exceeds tolerance", det=d)
    dt = r1.dt
    g1, g3, g4, g2 = (TimeTrace(dt, sol[i], True) for i in range(4))
    return g1, g2, g3, g4


@dataclass(frozen=True)
class LinearSolution:
    """Whole-line assembled fields with their boundary traces.

    u lives on the incoming edge (restrict to x <= 0), v and w on the
    outgoing edges (x >= 0); the stored fields cover the full grid so
    one-sided vertex traces stay extractable.
    """

    u: SpaceTimeField = field(repr=False)
    v: SpaceTimeField = field(repr=False)
    w: SpaceTimeField = field(repr=False)
    gammas: tuple = field(repr=False, default=None)
    matrix: BoundaryMatrix = None
    coupling: VertexCoupling = None

    @property
    def times(self):
        return self.u.times

    def imag_residual(self) -> float:
        """Largest imaginary part across the assembled fields: exactly 0.0,
        as the plus-class phase is folded into the boundary traces and the
        data are real, so the fields are float64."""
        return float(max(np.abs(np.imag(f.levels)).max() for f in (self.u, self.v, self.w)))


def _build_rhs(coupling, f0, d0, s0):
    """Right-hand side rows, one per coupling relation (sign included).

    f0, d0 and s0 hold the u, v, w trace rows of the value, slope and
    curvature relations.
    """
    rows = (f0, d0, s0)
    return [-_combine(coefs, rows[j]) for _, j, coefs in coupling.relations()]


def compatibility_deviation(coupling: VertexCoupling, u, v, w) -> float:
    """Worst absolute mismatch of the vertex values u, v, w in the Dirichlet
    relations (u = a2 v = a3 w for type 1, u = a2 v + a3 w for type 2).

    A non-finite value gives nan or inf, which no tolerance accepts:
    callers test ``not dev <= tol``.
    """
    devs = [_combine(coefs, (u, v, w))
            for _, j, coefs in coupling.relations() if j == 0]
    return float(np.max(np.abs(devs)))


def _fold_plus_phases(m: BoundaryMatrix) -> BoundaryMatrix:
    """``m`` for the unknowns (g1, e^{i pi lam_3} g3, e^{i pi lam_4} g4, g2):
    the plus columns divided by :func:`forcing.plus_trace_factor` of their
    orders.  Their entries become c plus_trace_factor(lam - j) /
    plus_trace_factor(lam) = c (-1)^j, so the matrix is real; the division
    leaves |det| and the row norms as they were."""
    unit = np.array([1.0, plus_trace_factor(m.lam.l3), plus_trace_factor(m.lam.l4), 1.0])
    return BoundaryMatrix(entries=(m.entries / unit).real, lam=m.lam, coupling=m.coupling)


def solve_vertex(coupling: VertexCoupling, lam: LambdaVector, traces, base,
                 ladder: Ladder):
    """Solve for the boundary traces and add their forcing classes to ``base``.

    ``traces[j]`` holds the u, v, w vertex traces of the j-th spatial
    derivative of the fields the forcing corrects, sampled on the trace of
    ``ladder``; the slope and curvature rows enter through Riemann-Liouville
    integrals of order 1/3 and 2/3.  ``base`` holds the u, v, w levels at its
    output times.  The plus-class phase e^{i pi lam_k} is folded into the
    unknown, p_k = e^{i pi lam_k} gamma_k (:func:`_fold_plus_phases`), so the
    plus edges take the phase-free class of p_k
    (:func:`forcing.phase_free_class`) and every step is real: the traces
    give real boundary traces and float64 fields.  Returns
    the matrix of :func:`build_matrix`, the physical traces (gamma_1, ...,
    gamma_4), gamma_k = p_k e^{-i pi lam_k} on the plus edges, and the three
    superposed level stacks.
    """
    f0, d_raw, s_raw = traces
    d0 = [riemann_liouville(TimeTrace(ladder.dt, d, True), 1.0 / 3.0).samples
          for d in d_raw]
    s0 = [riemann_liouville(TimeTrace(ladder.dt, q, True), 2.0 / 3.0).samples
          for q in s_raw]
    rhs = [TimeTrace(ladder.dt, r, True) for r in _build_rhs(coupling, f0, d0, s0)]
    m = build_matrix(coupling, lam)
    g1, g2, p3, p4 = solve_gamma(_fold_plus_phases(m), rhs)

    def fc(cls, lam_k, sign, g):
        return cls(lam_k, sign, g, ladder.grid, ladder.times, ladder=ladder).levels

    fields = [base[0] + fc(forcing_class, lam.l1, "minus", g1)
              + fc(forcing_class, lam.l2, "minus", g2),
              base[1] + fc(phase_free_class, lam.l3, "plus", p3),
              base[2] + fc(phase_free_class, lam.l4, "plus", p4)]
    gammas = (g1, g2, *(TimeTrace(p.dt, p.samples / plus_trace_factor(lam_k), True)
                        for p, lam_k in ((p3, lam.l3), (p4, lam.l4))))
    return m, gammas, fields


def assemble_linear_solution(u0: GridFunction, v0: GridFunction,
                             w0: GridFunction, coupling: VertexCoupling,
                             lam: LambdaVector, T: float = None,
                             n_levels: int = 26,
                             trace_dt: float = 1e-3, ladder=None) -> LinearSolution:
    """Build the linear graph solution from whole-line extensions.

    The three data extensions share one grid.  Free-evolution vertex traces
    feed the matrix system; the solved boundary traces drive the four
    forcing-class fields, and the superpositions restrict to the edges.
    The time ladder is ``ladder`` or ``Ladder.over(u0, T, trace_dt, n_levels)``.
    One phase pair over its trace gives the free traces, the output phases
    of the free flows and the Filon powers; the four classes share one set
    of Filon tables, and the ladder holds no table on return.
    """
    if ladder is None:
        ladder = Ladder.over(u0, T, trace_dt, n_levels)
    data = (u0, v0, w0)
    ladder.pair = ladder.phase_pair()
    traces = free_vertex_traces(data, ladder)
    free = [group_multi(d, ladder.times, ladder=ladder).levels for d in data]
    ladder.filon, ladder.pair = filon_tables(ladder), None   # the tables copy their rows
    m, gammas, fields = solve_vertex(coupling, lam, traces, free, ladder)
    ladder.filon = None

    fld_u, fld_v, fld_w = (SpaceTimeField(u0.origin, u0.spacing, ladder.out_dt, lv)
                           for lv in fields)
    return LinearSolution(u=fld_u, v=fld_v, w=fld_w, gammas=gammas, matrix=m,
                          coupling=coupling)


@dataclass(frozen=True)
class VertexResidualReport:
    times: np.ndarray
    residuals: dict          # relation label -> per-time absolute residual
    scales: dict             # derivative order -> trace magnitude scale

    def worst_relative(self, skip_startup: int | None = None) -> float:
        """Worst residual over its order's trace scale, from level skip_startup
        on (default: the first level at t >= STARTUP_WINDOW); 0.0 when no
        level is left."""
        if skip_startup is None:
            skip_startup = int(np.searchsorted(self.times, STARTUP_WINDOW))
        worst = 0.0
        for label, res in self.residuals.items():
            order = {"dirichlet": 0, "neumann": 1, "second": 2}[
                label.split(":")[0]]
            scale = max(self.scales[order], 1e-300)
            worst = max(worst, float(np.max(res[skip_startup:], initial=0.0) / scale))
        return worst


def verify_vertex_conditions(sol: LinearSolution) -> VertexResidualReport:
    """Per-time residuals of the vertex relations from one-sided traces.

    u contributes its limit from the incoming side (x -> 0-), v and w from
    the outgoing side (x -> 0+).  Values are the one-sided cubic
    extrapolation.  Derivatives are spectral, with a smooth frequency window
    (the fields carry integrable vertex singularities whose raw band-limited
    derivatives ring), read by the least-squares fit outside the window
    transition: a real field filtered by mult is the field times the real
    circulant g[(y - x) mod n] of g = irfft(mult), so each limit is the field
    times the fit of that circulant, over all levels at once and with no
    transform.  The fields must be real (ContractError otherwise): ``irfft``
    drops the imaginary part of the Nyquist bin of an even n, which for a
    real field touches only the imaginary part of the filtered field.
    """
    i0, h, n = sol.u.index_of_zero(), sol.u.spacing, sol.u.levels.shape[1]
    xi = half_frequencies(n, h)
    taps = [np.fft.irfft((1j * xi) ** j * smooth_window(n, h)[:xi.size], n) for j in (1, 2)]
    circulants = [np.lib.stride_tricks.sliding_window_view(np.tile(g, 2), n)[n:0:-1]
                  for g in taps]
    tr = [[], [], []]
    for fld, side in ((sol.u, "left"), (sol.v, "right"), (sol.w, "right")):
        real_only(fld.levels, "verify_vertex_conditions")
        tr[0].append(vertex_limit(fld.levels, i0, h, side))
        for j, circ in enumerate(circulants, 1):
            tr[j].append(fld.levels @ vertex_limit(circ, i0, h, side, 0, SMOOTH_FIT_WINDOW))
    scales = {j: max(np.abs(t).max() for t in tr[j]) for j in (0, 1, 2)}
    res = {label: np.abs(_combine(coefs, tr[j]))
           for label, j, coefs in sol.coupling.relations()}
    return VertexResidualReport(times=sol.times, residuals=res, scales=scales)
