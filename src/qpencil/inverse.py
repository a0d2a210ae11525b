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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
from math import pi

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

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
SOLVE_CHUNK_ENTRIES = 1 << 16   # matrices formed at once, counted as nodes x dim^2
LU_MIN_DIM = 16                 # from this dim on, factor node by node by getrf
POOL_MAX_ENTRIES = 10_000       # below this dim^2, LU chunks go to two threads
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
    while True:     # close under multiplicity groups on both sides
        closed = {m for ds in (data, model_set) for n in active for m in ds.group_for(n).members}
        if closed <= active:
            break
        active |= closed
    indices = tuple(sorted(active))
    side0 = tuple(_side_entry(data, n) for n in indices)
    side1 = tuple(_side_entry(model_set, n) for n in indices)
    for e in side0 + side1:
        if e.m - 1 > P_MAX:
            raise OrderTooHighError(f"group size {e.m} at {e.group_start} exceeds p_max")
    return ActiveLayout(indices=indices, side0=side0, side1=side1)


@dataclass
class MainEquationSystem:
    """Per-node dense system in factored form; arrays are stacked over the nodes.

    P = (a_r a'_c - a'_r a_c) ``scale``_rc with the row chains a = ``rhs``,
    a' = ``rhs_x``, except at the pairs (``table_rows``, ``table_cols``) with
    per-node values ``table_vals``.  P is not stored: ``form_P`` forms it per slice.
    ``b`` and ``b_x`` are the signed column combinations (-1)^j sum_p M_p S_(p-nu)
    and the same over S', ``b_lo`` the same with S_(p-nu-1) over p > nu.
    dP/dx = ``px_u @ px_w`` at every node.
    """

    x: np.ndarray                 # (nx,)
    layout: ActiveLayout
    model: BackgroundProblem
    scale: np.ndarray             # (dim, dim), zero at the tabled pairs
    table_rows: np.ndarray        # (pairs,)
    table_cols: np.ndarray        # (pairs,)
    table_vals: np.ndarray        # (nx, pairs)
    px_u: np.ndarray              # (nx, dim, 2)
    px_w: np.ndarray              # (nx, 2, dim)
    rhs: np.ndarray               # (nx, dim)
    rhs_x: np.ndarray             # (nx, dim)
    b: np.ndarray                 # (dim, nx)
    b_x: np.ndarray               # (dim, nx)
    b_lo: np.ndarray              # (dim, nx)

    def form_P(self, nodes: slice = slice(None)) -> np.ndarray:
        """P at a slice of nodes, (nodes, dim, dim), a new array the caller may overwrite.
        Complex products do not commute bitwise, so a' a^T is its own product."""
        a, a_x = self.rhs[nodes], self.rhs_x[nodes]
        P = (a[:, :, None] * a_x[:, None, :] - a_x[:, :, None] * a[:, None, :]) * self.scale
        P[:, self.table_rows, self.table_cols] = self.table_vals[nodes]
        return P


def assemble_system(data: SpectralDataSet, model: BackgroundProblem, x,
                    min_window: int = 0,
                    layout: ActiveLayout | None = None) -> MainEquationSystem:
    """Build the factors of the per-node matrices from per-entry chain combinations.

    Every unknown (entry, side j) contributes its row chains a = S_nu,
    a' = S'_nu, a_ = S_(nu-1) and its column combinations b, b' and
    b_ = (-1)^j sum_(p>nu) M_p S_(p-nu-1).  Leibniz on
    dD/dx = (lam + mu - 2 q1) S(lam) S(mu) gives dP/dx = u_r b_c + a_r w_c
    with u = (lam - 2 q1) a + a_ and w = lam b + b_.  P takes the quotient
    form for simple pairs at least ``COALESCE_GAP`` apart, kept as a, a' and
    ``scale``, and the kernel tables otherwise, one ``d_table`` call for all
    pairs that share the derivative orders (row nu, column m - 1 - nu).
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
    # the other pairs: one kernel table call per derivative-order key
    r, c = np.nonzero(~quotient)
    vals = np.empty((x.size, r.size), dtype=complex)
    tkey, skey = nu[r], m[c] - 1 - nu[c]
    for t, s in sorted(set(zip(tkey.tolist(), skey.tolist()))):
        sel = (tkey == t) & (skey == s)
        rs, cs = r[sel], c[sel]
        T = d_table(model, x, lams[rs], lams[cs], t, s)[:, t]
        acc = Ms[cs, nu[cs]][:, None] * T[:, 0]
        for d in range(1, s + 1):
            acc += Ms[cs, nu[cs] + d][:, None] * T[:, d]
        vals[:, sel] = (sgn[cs][:, None] * acc).T

    u = (lams[:, None] - 2.0 * model.q1_values(x)) * a + a_lo
    return MainEquationSystem(x=x, layout=layout, model=model, scale=scale,
                              table_rows=r, table_cols=c, table_vals=vals,
                              px_u=np.stack((u.T, a.T), axis=2),
                              px_w=np.stack((b.T, (lams[:, None] * b + b_lo).T), axis=1),
                              rhs=a.T.copy(), rhs_x=a_x.T.copy(), b=b, b_x=b_x, b_lo=b_lo)


def solve_main(system: MainEquationSystem, cond_limit: float = COND_LIMIT
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Solve (I - P) v = s and (I - P) v_x = s_x + (dP/dx) v at every node.

    Returns ``(v, v_x, cond, residual)``: v and v_x of shape (dim, nx), the
    per-node 1-norm condition ||A||_1 ||A^-1||_1 of A = I - P, and the max-norm
    residual of A v - s.  A is formed in place in chunks of
    ``SOLVE_CHUNK_ENTRIES`` matrix entries.  Below ``LU_MIN_DIM`` a batched
    ``np.linalg.inv`` serves both solves and gives the exact condition.  From
    it on, each node is factored once by LAPACK getrf: v and v_x are getrs
    solves and ||A^-1||_1 is gecon's Hager-Higham estimate, a lower bound, all
    on that LU.  While dim^2 < ``POOL_MAX_ENTRIES`` (OpenBLAS threads larger
    getrf calls) and there is more than one chunk, two threads (one on one CPU)
    take chunks sharing the budget; outputs and failures stay the serial loop's.
    The products are einsums, off numpy's BLAS pool.  A non-finite or exactly
    singular A, or a condition above ``cond_limit`` (1e10; the CLI profiles use
    1e8 strict, 1e12 loose) at the worst node, raises ``SingularSystemError``
    (the bounded invertibility assumption fails) rather than returning garbage.
    """
    x, (nx, dim) = system.x, system.rhs.shape
    mv = partial(np.einsum, "nij,nj->ni")    # a product per node, through no BLAS
    v, vx = np.empty((2, nx, dim), dtype=complex)
    cond = np.empty(nx)
    pooled = LU_MIN_DIM <= dim and dim * dim < POOL_MAX_ENTRIES
    workers = min(2, _cpus()) if pooled else 1   # more than two: no gain measured
    chunk = max(1, SOLVE_CHUNK_ENTRIES // (workers * dim * dim))

    def solve_chunk(lo: int) -> float:      # the chunk's nodes; returns their residual
        sl = slice(lo, lo + chunk)
        A = system.form_P(sl)
        np.subtract(0.0, A, out=A)       # bitwise eye - P, without its temporary
        A[:, range(dim), range(dim)] += 1.0
        norm = np.abs(A).sum(axis=1).max(axis=1)
        if dim < LU_MIN_DIM:
            try:
                Ainv = np.linalg.inv(A)
            except np.linalg.LinAlgError:      # an exactly singular node
                raise _singular(x[lo + int(np.argmax(np.linalg.cond(A, 1)))], np.inf) from None
            cond[sl] = norm * np.abs(Ainv).sum(axis=1).max(axis=1)
            solve = partial(mv, Ainv)
        else:
            lu, piv = A.copy(), np.empty((len(A), dim), dtype=np.int32)
            for k, f in enumerate(lu):   # in place on the Fortran-ordered f.T = A_k^T
                _, piv[k], info = zgetrf(f.T, overwrite_a=1)
                if info > 0:
                    raise _singular(x[lo + k], np.inf)
                rcond, info = zgecon(f.T, norm[k], norm="I")   # kappa_inf(A_k^T) = kappa_1(A_k)
                cond[lo + k] = 1.0 / rcond if info == 0 and rcond > 0 else np.inf

            def solve(b):    # A_k y = b_k is the transposed solve on A_k^T's LU
                return [zgetrs(f.T, p, bk, trans=1)[0] for f, p, bk in zip(lu, piv, b)]
        finite = np.isfinite(cond[sl])     # NaN/inf in A, or an overflowing inverse
        if not finite.all():
            raise _singular(x[lo + int(np.argmin(finite))], np.inf)
        v[sl] = solve(system.rhs[sl])
        vx[sl] = solve(system.rhs_x[sl] + mv(system.px_u[sl], mv(system.px_w[sl], v[sl])))
        return float(np.max(np.abs(mv(A, v[sl]) - system.rhs[sl])))

    run = _executor(os.getpid(), workers).map if workers > 1 and nx > chunk else map
    residual = max(run(solve_chunk, range(0, nx, chunk)))
    worst = int(np.argmax(cond))
    if cond[worst] > cond_limit:
        raise _singular(x[worst], cond[worst])
    return v.T, vx.T, cond, residual


def _cpus() -> int:     # the CPUs this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@cache     # per process: a forked child has none of its parent's threads
def _executor(pid: int, workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="qpencil-solve")


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
    lams = np.array([e.lam for e, _ in system.layout.rows()], dtype=complex)

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
    # theta_(k-1) = s w_(k-1) with s = +-1, so the flip test
    # |s w_k - theta_(k-1)| > |-s w_k - theta_(k-1)| does not depend on s
    flips = np.cumsum(np.abs(w[1:] - w[:-1]) > np.abs(w[1:] + w[:-1]))
    theta = w * np.concatenate(([1.0], np.where(flips % 2, -1.0, 1.0)))
    eps.theta, eps.lambda_ = theta, eps.eps1 * theta
    return eps.theta, eps.lambda_


def recover_q1(eps: EpsilonFields, model: BackgroundProblem) -> np.ndarray:
    """Pointwise update of the first potential from the series derivative."""
    return model.q1_values(eps.x) + eps.eps1_prime / (1.0 + eps.eps1 ** 2)


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
            - 2.0 * jump(q1t * eps.eps1) + cumulative_simpson(integrand, x=x, initial=0.0))


@dataclass
class RecoveredPotentials:
    """Result of the reconstruction on a grid.

    ``cond`` is the per-node 1-norm condition of I - P: exact below
    ``LU_MIN_DIM``, LAPACK's gecon estimate (a lower bound) from it on.
    """

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
    if not layout.indices:      # the data are the background's
        zero = np.zeros((7, x.size), dtype=complex)    # five series, lambda_, q0_antideriv
        eps = EpsilonFields(x, *zero[:5], theta=np.ones(x.size, dtype=complex), lambda_=zero[5])
        return RecoveredPotentials(x=x, q1=model.q1_values(x) + 0j, q0_antideriv=zero[6],
                                   background=model, eps=eps, cond=np.ones(x.size), residual=0.0)

    system = assemble_system(data, model, x, layout=layout)
    v, v_x, cond, residual = solve_main(system, cond_limit=cond_limit)
    eps = compute_epsilons(system, v, v_x)
    recover_theta(eps)
    q1 = recover_q1(eps, model)
    q0ad = recover_q0_antiderivative(eps, q1, model)
    return RecoveredPotentials(x=x, q1=q1, q0_antideriv=q0ad, background=model,
                               eps=eps, cond=cond, residual=residual)
