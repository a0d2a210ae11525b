"""Reconstruction of the potentials from spectral data.

At every grid node the infinite linear equation of the spectral-mapping
method collapses to a finite complex system because the data coincide with
the background outside a finite set of indices: those tail terms cancel
pairwise.  Per node we solve

    (I - P(x)) v(x) = s(x),            P[(n,i),(k,j)] = (-1)^j  Ptilde_(n,i;k,j)(x),

then reuse the same matrix for the x-derivative, (I - P) v_x = s_x + P_x v,
so no finite differences enter the series that feed the recovery formulas.
Both matrices and the series are built from per-entry chain combinations:
the row chains S_nu, S'_nu and the column sums sum_p M_p S_(p-nu) of every
unknown.  P_x needs no kernel table (dD/dx is a product of two S), and P
takes the quotient form for simple pairs at least ``COALESCE_GAP`` apart;
only pairs that touch a multiplicity group, and closer simple pairs (the
diagonal among them), go through ``d_table``.
Four auxiliary series built from v then produce the first potential via a
pointwise formula and the antiderivative of the zeroth one via quadrature of
terms that never differentiate a series numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np
from scipy.integrate import cumulative_simpson

from . import zindex
from .errors import (
    DegenerateSeriesError,
    OrderTooHighError,
    SingularSystemError,
    ValidationError,
)
from .model import COALESCE_GAP, P_MAX, BackgroundProblem
from .spectral_data import SpectralDataSet

DEFAULT_N_GRID = 200
COND_LIMIT = 1e10
ACTIVE_TOL = 1e-11


@dataclass(frozen=True)
class SideEntry:
    """One active index on one side: its group offset and group coefficients."""

    n: int
    nu: int
    lam: complex
    Ms: tuple[complex, ...]   # full Laurent list of the containing group
    m: int                    # group size
    group_start: int


@dataclass(frozen=True)
class ActiveLayout:
    """Active index window and per-side group structure, x-independent."""

    indices: tuple[int, ...]
    side0: tuple[SideEntry, ...]
    side1: tuple[SideEntry, ...]

    @property
    def dim(self) -> int:
        return 2 * len(self.indices)

    def rows(self):
        """Unknown order: all (n, i=0) first, then all (n, i=1)."""
        return [(e, 0) for e in self.side0] + [(e, 1) for e in self.side1]


def _side_entry(dataset: SpectralDataSet, n: int) -> SideEntry:
    g = dataset.group_for(n)
    Ms = tuple(dataset.group_coefficients(g))
    return SideEntry(n=n, nu=zindex.offset(g.start, n), lam=g.lam, Ms=Ms,
                     m=g.size, group_start=g.start)


def active_layout(data: SpectralDataSet, model: BackgroundProblem,
                  min_window: int = 0, tol: float = ACTIVE_TOL) -> ActiveLayout:
    """Indices where the data differ from the background, closed under groups."""
    width = max(data.max_abs_index, min_window)
    model_set = model.spectral_data(max(width, 1))
    active: set[int] = set(zindex.window(min_window))
    for n in zindex.window(width):
        de = data.entry(n)
        me = model_set.entry(n)
        if de.M is None:
            raise ValidationError(f"entry {n} has no residue coefficient")
        if abs(de.lam - me.lam) > tol * max(1.0, abs(me.lam)) \
                or abs(de.M - me.M) > tol * max(1.0, abs(me.M)):
            active.add(n)
    # close under multiplicity groups on both sides
    changed = True
    while changed:
        changed = False
        for ds in (data, model_set):
            for n in list(active):
                g = ds.group_for(n)
                for m in g.members:
                    if m not in active:
                        active.add(m)
                        changed = True
    indices = tuple(sorted(active))
    side0 = tuple(_side_entry(data, n) for n in indices)
    side1 = tuple(_side_entry(model_set, n) for n in indices)
    for e in side0 + side1:
        if e.m - 1 > P_MAX:
            raise OrderTooHighError(f"group size {e.m} at {e.group_start} exceeds p_max")
    return ActiveLayout(indices=indices, side0=side0, side1=side1)


def _group_sum(ec: SideEntry, nu_r: int, T: np.ndarray) -> np.ndarray:
    """Contraction sum_p M_p T[nu_r, p - nu] over the column's group coefficients."""
    acc = np.zeros(T.shape[2:], dtype=complex)
    for p in range(ec.nu, ec.m):
        acc += ec.Ms[p] * T[nu_r, p - ec.nu]
    return acc


@dataclass
class MainEquationSystem:
    """Per-node dense system; arrays are stacked over the grid nodes.

    ``b`` and ``b_x`` are the signed column combinations
    (-1)^j sum_p M_p S_(p-nu) and the same over S'.
    """

    x: np.ndarray                 # (nx,)
    layout: ActiveLayout
    model: BackgroundProblem
    P: np.ndarray                 # (nx, dim, dim)
    P_x: np.ndarray               # (nx, dim, dim)
    rhs: np.ndarray               # (nx, dim)
    rhs_x: np.ndarray             # (nx, dim)
    b: np.ndarray                 # (dim, nx)
    b_x: np.ndarray               # (dim, nx)


def assemble_system(data: SpectralDataSet, model: BackgroundProblem, x,
                    min_window: int = 0,
                    layout: ActiveLayout | None = None) -> MainEquationSystem:
    """Build the per-node matrices from per-entry chain combinations.

    Every unknown (entry, side j) contributes its row chains a = S_nu,
    a' = S'_nu, a_ = S_(nu-1) and its column combinations b, b' and
    b_ = (-1)^j sum_(p>nu) M_p S_(p-nu-1).  Leibniz on
    dD/dx = (lam + mu - 2 q1) S(lam) S(mu) gives P_x = (lam_r + lam_c - 2 q1)
    a_r b_c + a_r b_c_ + a_r_ b_c for every pair.  P takes the quotient form
    for simple pairs at least ``COALESCE_GAP`` apart and the kernel tables
    otherwise.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if layout is None:
        layout = active_layout(data, model, min_window=min_window)
    rows = layout.rows()
    dim = layout.dim
    nx = x.size
    order: dict[complex, int] = {}
    for e, _ in rows:
        order[e.lam] = max(order.get(e.lam, 0), e.m - 1)
    chains = {lam: (model.s_chain(x, lam, k), model.sx_chain(x, lam, k))
              for lam, k in order.items()}

    a, a_x, a_lo, b, b_x, b_lo = np.zeros((6, dim, nx), dtype=complex)
    sgn = np.array([-1.0 if j == 1 else 1.0 for _, j in rows])
    for k, (e, _) in enumerate(rows):
        sch, cch = chains[e.lam]
        a[k], a_x[k] = sch[e.nu], cch[e.nu]
        if e.nu:
            a_lo[k] = sch[e.nu - 1]
        for p in range(e.nu, e.m):
            b[k] += e.Ms[p] * sch[p - e.nu]
            b_x[k] += e.Ms[p] * cch[p - e.nu]
            if p > e.nu:
                b_lo[k] += e.Ms[p] * sch[p - e.nu - 1]
    b, b_x, b_lo = sgn[:, None] * b, sgn[:, None] * b_x, sgn[:, None] * b_lo

    P = np.zeros((dim, dim, nx), dtype=complex)
    Px = np.zeros((dim, dim, nx), dtype=complex)
    lams = np.array([e.lam for e, _ in rows], dtype=complex)
    two_q1 = 2.0 * model.q1_values(x)
    simple = np.array([e.m == 1 for e, _ in rows])
    quotient = simple[:, None] & simple & (np.abs(lams[:, None] - lams) >= COALESCE_GAP)
    coef = np.array([sgn[c] * e.Ms[0] for c, (e, _) in enumerate(rows)])[:, None]
    for r, (er, _) in enumerate(rows):
        Px[r] = (er.lam + lams[:, None] - two_q1) * a[r] * b + a[r] * b_lo + a_lo[r] * b
        cols = np.flatnonzero(quotient[r])
        # scalar division as in _quotient_table: numpy's complex division and
        # Python's can differ in the last bit
        inv = np.array([1.0 / (er.lam - rows[c][0].lam) for c in cols], dtype=complex)
        D = (a[r] * a_x[cols] - a_x[r] * a[cols]) * inv[:, None]
        P[r, cols] = coef[cols] * D
    for r, c in zip(*np.nonzero(~quotient)):
        er, ec = rows[r][0], rows[c][0]
        T = model.d_table(x, er.lam, ec.lam, er.nu, ec.m - 1 - ec.nu)
        P[r, c] = sgn[c] * _group_sum(ec, er.nu, T)

    return MainEquationSystem(x=x, layout=layout, model=model,
                              P=P.transpose(2, 0, 1), P_x=Px.transpose(2, 0, 1),
                              rhs=a.T, rhs_x=a_x.T, b=b, b_x=b_x)


def solve_main(system: MainEquationSystem, cond_limit: float = COND_LIMIT
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Solve (I - P) v = s and (I - P) v_x = s_x + P_x v at every node.

    Returns ``(v, v_x, cond, residual)``: v and v_x of shape (dim, nx), the
    per-node condition numbers of (I - P), and the max-norm residual of
    (I - P) v - s over all nodes.  A condition estimate above ``cond_limit``
    at any node raises ``SingularSystemError`` (the bounded invertibility
    assumption fails) rather than returning garbage.
    """
    dim = system.layout.dim
    A = np.eye(dim)[None, :, :] - system.P
    cond = np.linalg.cond(A)
    worst = int(np.argmax(cond))
    if not np.all(np.isfinite(cond)) or cond[worst] > cond_limit:
        raise SingularSystemError(
            f"main equation numerically singular at x={system.x[worst]:.6f} "
            f"(cond={cond[worst]:.3e})", x=float(system.x[worst]),
            cond=float(cond[worst]))
    v = np.linalg.solve(A, system.rhs[:, :, None])[:, :, 0]
    residual = float(np.max(np.abs(np.einsum("nij,nj->ni", A, v) - system.rhs)))
    rhs2 = system.rhs_x + np.einsum("nij,nj->ni", system.P_x, v)
    vx = np.linalg.solve(A, rhs2[:, :, None])[:, :, 0]
    return v.T, vx.T, cond, residual


@dataclass
class EpsilonFields:
    """Auxiliary series on the grid and the derived branch-tracked factors."""

    x: np.ndarray
    eps1: np.ndarray
    eps1_prime: np.ndarray
    eps2: np.ndarray
    eps3: np.ndarray
    eps4: np.ndarray
    theta: np.ndarray | None = None
    lambda_: np.ndarray | None = None
    b: np.ndarray | None = None


def compute_epsilons(system: MainEquationSystem, v: np.ndarray,
                     v_x: np.ndarray) -> EpsilonFields:
    """Evaluate the four series from the solved v-fields.

    Sums run over the active indices only: outside them the data equal the
    background, so the two sides of each term cancel exactly.  The series
    derivative is assembled term-wise from v_x, never by differencing.
    """
    x, b, b_x = system.x, system.b, system.b_x
    rows = system.layout.rows()
    lams = np.array([e.lam for e, _ in rows], dtype=complex)

    eps1 = (b * v).sum(axis=0)
    eps1p = (b_x * v + b * v_x).sum(axis=0)
    eps2 = (lams[:, None] * b * v).sum(axis=0)
    eps3 = (b_x * v).sum(axis=0)

    # members of a group are consecutive rows; visit each group from nu = 0
    eps4 = np.zeros(x.size, dtype=complex)
    for k, (e, _) in enumerate(rows):
        if e.nu == 0:
            for nu in range(e.m - 1):
                eps4 += b[k + nu + 1] * v[k + nu]

    return EpsilonFields(x=x, eps1=eps1, eps1_prime=eps1p, eps2=eps2,
                         eps3=eps3, eps4=eps4)


def recover_theta(eps: EpsilonFields,
                  degenerate_tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Branch-tracked square root: theta = +-(1 + eps1^2)^(-1/2), theta(0) = 1.

    The companion factor is lambda_ = eps1 * theta; together they satisfy
    theta^2 (1 + eps1^2) = 1 and theta^2 + lambda_^2 = 1 exactly as built.
    """
    w2 = 1.0 + eps.eps1 ** 2
    bad = np.abs(w2) < degenerate_tol
    if bad.any():
        k = int(np.argmax(bad))
        raise DegenerateSeriesError(
            f"1 + eps1^2 vanishes at x={eps.x[k]:.6f}; the square-root "
            "recovery degenerates there")
    w = 1.0 / np.sqrt(w2)
    theta = np.empty_like(w)
    s = 1.0
    theta[0] = s * w[0]
    for k in range(1, w.size):
        if abs(s * w[k] - theta[k - 1]) > abs(-s * w[k] - theta[k - 1]):
            s = -s
        theta[k] = s * w[k]
    lam = eps.eps1 * theta
    eps.theta = theta
    eps.lambda_ = lam
    return theta, lam


def recover_q1(eps: EpsilonFields, model: BackgroundProblem) -> np.ndarray:
    """Pointwise update of the first potential from the series derivative."""
    q1t = model.q1_values(eps.x)
    q1 = q1t + eps.eps1_prime / (1.0 + eps.eps1 ** 2)
    eps.b = 2.0 * (q1t - q1) * eps.eps1
    return q1


def _cumulative(y, x):
    return cumulative_simpson(y.real, x=x, initial=0.0) \
        + 1j * cumulative_simpson(y.imag, x=x, initial=0.0)


def recover_q0_antiderivative(eps: EpsilonFields, q1: np.ndarray,
                              model: BackgroundProblem) -> np.ndarray:
    """Antiderivative of the zeroth-potential difference, in integrated form.

    The exact-derivative terms contribute endpoint differences; the remaining
    continuous terms go through composite Simpson.  The background derivative
    q1t' is eliminated by integration by parts, so nothing is differentiated
    numerically.
    """
    x = eps.x
    q1t = model.q1_values(x)
    b = eps.b if eps.b is not None else 2.0 * (q1t - q1) * eps.eps1

    def jump(f):
        return f - f[0]

    integrand = (-2.0 * q1t * eps.eps1_prime
                 + 2.0 * (q1t - q1) * eps.eps3
                 + b * (eps.eps2 - 2.0 * q1t * eps.eps1 + eps.eps4)
                 + 0.25 * b * b)
    return (2.0 * jump(eps.eps2) + 2.0 * jump(eps.eps4) + 0.5 * jump(b)
            - 2.0 * jump(q1t * eps.eps1) + _cumulative(integrand, x))


@dataclass
class RecoveredPotentials:
    """Result of the reconstruction on a grid."""

    x: np.ndarray
    q1: np.ndarray
    q0_antideriv: np.ndarray     # integral from 0 to x of (q0 - q0_background)
    background: BackgroundProblem
    eps: EpsilonFields | None = None
    cond: np.ndarray | None = None
    residual: float = 0.0

    def as_potentials(self):
        """Full (q1, sigma) pair, absorbing the background antiderivative."""
        from .forward import PotentialPair

        sigma = self.background.sigma_values(self.x) + self.q0_antideriv
        return PotentialPair(x=self.x, q1=np.asarray(self.q1),
                             sigma=np.asarray(sigma))


def default_grid(n_grid: int = DEFAULT_N_GRID) -> np.ndarray:
    return np.linspace(0.0, pi, n_grid + 1)


def run_reconstruction(data: SpectralDataSet, model: BackgroundProblem,
                       grid=None, min_window: int = 0,
                       cond_limit: float = COND_LIMIT,
                       omega0_tol: float = 1e-6) -> RecoveredPotentials:
    """Full pipeline: assemble, solve, series, branch tracking, recovery.

    Requires the data's mean eigenvalue shift to match the background's.
    Per-node systems are independent; only the square-root branch tracking is
    a sequential pass over the node results.
    """
    if abs(complex(data.omega0) - complex(model.omega0)) > omega0_tol:
        raise ValidationError(
            f"data omega0={data.omega0} incompatible with background "
            f"omega0={model.omega0}")
    if data.tail is not None and data.tail is not model \
            and not (data.tail.kind == "zero" and model.kind == "zero"):
        raise ValidationError("data tail must coincide with the reconstruction background")

    x = default_grid() if grid is None else np.atleast_1d(np.asarray(grid, dtype=float))
    layout = active_layout(data, model, min_window=min_window)
    if not layout.indices:
        nx = x.size
        zero = np.zeros(nx, dtype=complex)
        eps = EpsilonFields(x=x, eps1=zero, eps1_prime=zero.copy(),
                            eps2=zero.copy(), eps3=zero.copy(), eps4=zero.copy(),
                            theta=np.ones(nx, dtype=complex),
                            lambda_=zero.copy(), b=zero.copy())
        return RecoveredPotentials(x=x, q1=model.q1_values(x) + 0j,
                                   q0_antideriv=zero.copy(), background=model,
                                   eps=eps, cond=np.ones(nx), residual=0.0)

    system = assemble_system(data, model, x, layout=layout)
    v, v_x, cond, residual = solve_main(system, cond_limit=cond_limit)
    eps = compute_epsilons(system, v, v_x)
    recover_theta(eps)
    q1 = recover_q1(eps, model)
    q0ad = recover_q0_antiderivative(eps, q1, model)
    return RecoveredPotentials(x=x, q1=q1, q0_antideriv=q0ad, background=model,
                               eps=eps, cond=cond, residual=residual)
