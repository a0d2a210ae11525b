"""Reconstruction of the potentials from spectral data.

At every grid node the infinite linear equation of the spectral-mapping
method collapses to a finite complex system because the data coincide with
the background outside a finite set of indices: those tail terms cancel
pairwise.  Per node we solve

    (I - P(x)) v(x) = s(x),            P[(n,i),(k,j)] = (-1)^j  Ptilde_(n,i;k,j)(x),

then reuse the same matrix for the x-derivative, (I - P) v_x = s_x + P' v,
so no finite differences enter the series that feed the recovery formulas.
P' = dP/dx has rank two at every node (dD/dx is a product of two S) and is
applied through its two factors.  The matrix, the factors and the series are
built from per-entry chain combinations: the row chains S_nu, S'_nu and the
column sums sum_p M_p S_(p-nu) of every unknown, all from one chain call over
the distinct eigenvalues.  P takes the quotient form for simple pairs at
least ``COALESCE_GAP`` apart; only pairs that touch a multiplicity group, and
closer simple pairs (the diagonal among them), go through ``d_table``, in one
call per derivative-order key.
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
from .model import COALESCE_GAP, P_MAX, BackgroundProblem, d_table, same_background
from .spectral_data import SpectralDataSet

DEFAULT_N_GRID = 200
COND_LIMIT = 1e10
SOLVE_CHUNK_ENTRIES = 1 << 16   # matrices inverted at once, counted as nodes x dim^2
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
                  min_window: int = 0) -> ActiveLayout:
    """Indices where the data differ from the background, closed under groups."""
    width = max(data.max_abs_index, min_window)
    model_set = model.spectral_data(max(width, 1))
    active: set[int] = set(zindex.window(min_window))
    for n in zindex.window(width):
        de = data.entry(n)
        me = model_set.entry(n)
        if de.M is None:
            raise ValidationError(f"entry {n} has no residue coefficient")
        if abs(de.lam - me.lam) > ACTIVE_TOL * max(1.0, abs(me.lam)) \
                or abs(de.M - me.M) > ACTIVE_TOL * max(1.0, abs(me.M)):
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


@dataclass
class MainEquationSystem:
    """Per-node dense system; arrays are stacked over the grid nodes.

    ``b`` and ``b_x`` are the signed column combinations
    (-1)^j sum_p M_p S_(p-nu) and the same over S', ``b_lo`` the same with
    S_(p-nu-1) over p > nu.  dP/dx = ``px_u @ px_w`` at every node.
    """

    x: np.ndarray                 # (nx,)
    layout: ActiveLayout
    model: BackgroundProblem
    P: np.ndarray                 # (nx, dim, dim)
    px_u: np.ndarray              # (nx, dim, 2)
    px_w: np.ndarray              # (nx, 2, dim)
    rhs: np.ndarray               # (nx, dim)
    rhs_x: np.ndarray             # (nx, dim)
    b: np.ndarray                 # (dim, nx)
    b_x: np.ndarray               # (dim, nx)
    b_lo: np.ndarray              # (dim, nx)


def assemble_system(data: SpectralDataSet, model: BackgroundProblem, x,
                    min_window: int = 0,
                    layout: ActiveLayout | None = None) -> MainEquationSystem:
    """Build the per-node matrices from per-entry chain combinations.

    Every unknown (entry, side j) contributes its row chains a = S_nu,
    a' = S'_nu, a_ = S_(nu-1) and its column combinations b, b' and
    b_ = (-1)^j sum_(p>nu) M_p S_(p-nu-1).  Leibniz on
    dD/dx = (lam + mu - 2 q1) S(lam) S(mu) gives dP/dx = u_r b_c + a_r w_c
    with u = (lam - 2 q1) a + a_ and w = lam b + b_.  P takes the quotient
    form for simple pairs at least ``COALESCE_GAP`` apart and the kernel
    tables otherwise, one ``d_table`` call for all pairs that share the
    derivative orders (row nu, column m - 1 - nu).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if layout is None:
        layout = active_layout(data, model, min_window=min_window)
    rows = layout.rows()
    dim = layout.dim
    lams = np.array([e.lam for e, _ in rows], dtype=complex)
    nu = np.array([e.nu for e, _ in rows])
    m = np.array([e.m for e, _ in rows])
    sgn = np.array([-1.0 if j == 1 else 1.0 for _, j in rows])
    top = int(m.max()) - 1
    Ms = np.zeros((dim, top + 1), dtype=complex)   # zero past each group
    for k, (e, _) in enumerate(rows):
        Ms[k, :e.m] = e.Ms

    # one chain call over the distinct lam, at the largest order
    distinct, which = np.unique(lams, return_inverse=True)
    S, C = model.s_chain(x, distinct, top), model.sx_chain(x, distinct, top)
    a, a_x, a_lo, b, b_x, b_lo = np.zeros((6, dim, x.size), dtype=complex)
    for k, (e, _) in enumerate(rows):
        sch, cch = S[:, which[k]], C[:, which[k]]
        a[k], a_x[k] = sch[e.nu], cch[e.nu]
        if e.nu:
            a_lo[k] = sch[e.nu - 1]
        for p in range(e.nu, e.m):
            b[k] += e.Ms[p] * sch[p - e.nu]
            b_x[k] += e.Ms[p] * cch[p - e.nu]
            if p > e.nu:
                b_lo[k] += e.Ms[p] * sch[p - e.nu - 1]
    b, b_x, b_lo = sgn[:, None] * b, sgn[:, None] * b_x, sgn[:, None] * b_lo

    simple = m == 1
    quotient = simple[:, None] & simple & (np.abs(lams[:, None] - lams) >= COALESCE_GAP)
    scale = np.divide(sgn * Ms[:, 0], lams[:, None] - lams,
                      out=np.zeros((dim, dim), dtype=complex), where=quotient)
    P = a[:, None] * a_x
    for k in range(dim):     # row by row: no second (dim, dim, nx) array
        P[k] -= a_x[k] * a
    P *= scale[:, :, None]
    # the other pairs: one kernel table call per derivative-order key
    r, c = np.nonzero(~quotient)
    tkey, skey = nu[r], m[c] - 1 - nu[c]
    for t, s in sorted(set(zip(tkey.tolist(), skey.tolist()))):
        sel = (tkey == t) & (skey == s)
        rs, cs = r[sel], c[sel]
        T = d_table(model, x, lams[rs], lams[cs], t, s)[:, t]
        acc = Ms[cs, nu[cs]][:, None] * T[:, 0]
        for d in range(1, s + 1):
            acc += Ms[cs, nu[cs] + d][:, None] * T[:, d]
        P[rs, cs] = sgn[cs][:, None] * acc

    u = (lams[:, None] - 2.0 * model.q1_values(x)) * a + a_lo
    return MainEquationSystem(x=x, layout=layout, model=model, P=P.transpose(2, 0, 1),
                              px_u=np.stack((u.T, a.T), axis=2),
                              px_w=np.stack((b.T, (lams[:, None] * b + b_lo).T), axis=1),
                              rhs=a.T, rhs_x=a_x.T, b=b, b_x=b_x, b_lo=b_lo)


def solve_main(system: MainEquationSystem, cond_limit: float = COND_LIMIT
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Solve (I - P) v = s and (I - P) v_x = s_x + (dP/dx) v at every node.

    Returns ``(v, v_x, cond, residual)``: v and v_x of shape (dim, nx), the
    per-node exact 1-norm condition ||A||_1 ||A^-1||_1 of A = I - P, and the
    max-norm residual of A v - s over all nodes.  Each A is inverted once, in
    batches of ``SOLVE_CHUNK_ENTRIES`` matrix entries, and serves both
    right-hand sides.  A non-finite or exactly singular A, or a condition
    above ``cond_limit`` (1e10; the CLI profiles use 1e8 strict, 1e12 loose)
    at the worst node, raises ``SingularSystemError`` (the bounded
    invertibility assumption fails) rather than returning garbage.
    """
    x, P = system.x, system.P
    s, s_x = system.rhs[:, :, None], system.rhs_x[:, :, None]    # column stacks
    nx, dim = system.rhs.shape
    eye = np.eye(dim)
    v, vx = np.empty((2, nx, dim, 1), dtype=complex)
    cond = np.empty(nx)
    residual = 0.0
    chunk = max(1, SOLVE_CHUNK_ENTRIES // (dim * dim))
    for lo in range(0, nx, chunk):
        sl = slice(lo, lo + chunk)
        A = eye - P[sl]
        try:
            Ainv = np.linalg.inv(A)
        except np.linalg.LinAlgError:      # an exactly singular node
            raise _singular(x[lo + int(np.argmax(np.linalg.cond(A, 1)))], np.inf) from None
        cond[sl] = np.abs(A).sum(axis=1).max(axis=1) * np.abs(Ainv).sum(axis=1).max(axis=1)
        finite = np.isfinite(cond[sl])     # NaN/inf in A, or an overflowing inverse
        if not finite.all():
            raise _singular(x[lo + int(np.argmin(finite))], np.inf)
        v[sl] = Ainv @ s[sl]
        residual = max(residual, float(np.max(np.abs(A @ v[sl] - s[sl]))))
        vx[sl] = Ainv @ (s_x[sl] + system.px_u[sl] @ (system.px_w[sl] @ v[sl]))
    worst = int(np.argmax(cond))
    if cond[worst] > cond_limit:
        raise _singular(x[worst], cond[worst])
    return v[:, :, 0].T, vx[:, :, 0].T, cond, residual


def _singular(x: float, cond: float) -> SingularSystemError:
    return SingularSystemError(
        f"main equation numerically singular at x={x:.6f} (cond={cond:.3e})",
        x=float(x), cond=float(cond))


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
    # group members are consecutive rows, so b_lo of member nu is b of nu + 1
    eps4 = (system.b_lo * v).sum(axis=0)
    return EpsilonFields(x=x, eps1=eps1, eps1_prime=eps1p, eps2=eps2,
                         eps3=eps3, eps4=eps4)


def recover_theta(eps: EpsilonFields) -> tuple[np.ndarray, np.ndarray]:
    """Branch-tracked square root: theta = +-(1 + eps1^2)^(-1/2), theta(0) = 1.

    The companion factor is lambda_ = eps1 * theta; together they satisfy
    theta^2 (1 + eps1^2) = 1 and theta^2 + lambda_^2 = 1 exactly as built.
    Where |1 + eps1^2| < 1e-8 the recovery degenerates and raises
    ``DegenerateSeriesError``.
    """
    w2 = 1.0 + eps.eps1 ** 2
    bad = np.abs(w2) < 1e-8
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
    return model.q1_values(eps.x) + eps.eps1_prime / (1.0 + eps.eps1 ** 2)


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
    b = 2.0 * (q1t - q1) * eps.eps1

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
                       cond_limit: float = COND_LIMIT) -> RecoveredPotentials:
    """Full pipeline: assemble, solve, series, branch tracking, recovery.

    Requires the data's mean eigenvalue shift to match the background's
    within 1e-6, and the data's tail to be the same background.
    Per-node systems are independent; only the square-root branch tracking is
    a sequential pass over the node results.
    """
    if abs(complex(data.omega0) - complex(model.omega0)) > 1e-6:
        raise ValidationError(
            f"data omega0={data.omega0} incompatible with background "
            f"omega0={model.omega0}")
    if data.tail is not None and not same_background(data.tail, model):
        raise ValidationError("data tail must coincide with the reconstruction background")

    x = default_grid() if grid is None else np.atleast_1d(np.asarray(grid, dtype=float))
    layout = active_layout(data, model, min_window=min_window)
    if not layout.indices:
        nx = x.size
        zero = np.zeros(nx, dtype=complex)
        eps = EpsilonFields(x=x, eps1=zero, eps1_prime=zero.copy(),
                            eps2=zero.copy(), eps3=zero.copy(), eps4=zero.copy(),
                            theta=np.ones(nx, dtype=complex),
                            lambda_=zero.copy())
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
