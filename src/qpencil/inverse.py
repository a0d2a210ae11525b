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

from . import zindex
from .errors import (
    DegenerateSeriesError,
    OrderTooHighError,
    QPencilError,
    SingularSystemError,
    ValidationError,
)
from .model import COALESCE_GAP, P_MAX, BackgroundProblem, d_table, same_background
from .simpson import cumulative_simpson
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


def active_layout(data: SpectralDataSet, model_set: SpectralDataSet,
                  min_window: int = 0) -> ActiveLayout:
    """Indices where the data differ from the background's ``model_set``, closed under groups.

    ``model_set`` is the background's own spectral data, at least as wide as the set
    and ``min_window``; every index |n| <= ``min_window`` is active.
    """
    width = max(data.max_abs_index, min_window)
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
    """Per-node dense systems in factored form; node s * nx + k is node k of set s.

    P = (a_r a'_c - a'_r a_c) ``scale``_rc with the row chains a = ``rhs``,
    a' = ``rhs_x``, except at the pairs (``table_rows``, ``table_cols``) a set
    tables, with per-node values ``table_vals``; ``form_A`` forms A = I - P per slice.
    ``b`` and ``b_x`` are the signed column combinations (-1)^j sum_p M_p S_(p-nu)
    and the same over S', ``b_lo`` the same with S_(p-nu-1) over p > nu.
    dP/dx = ``px_u @ px_w`` at every node.
    """

    x: np.ndarray                 # (nx,), the grid of every set
    layouts: tuple[ActiveLayout, ...]
    scale: np.ndarray             # (sets, dim, dim), zero at the tabled pairs
    table_rows: np.ndarray        # (pairs,), tabled by some set
    table_cols: np.ndarray        # (pairs,)
    tabled: np.ndarray            # (sets, pairs), whether the set tables the pair
    table_vals: np.ndarray        # (nodes, pairs)
    px_u: np.ndarray              # (nodes, dim, 2)
    px_w: np.ndarray              # (nodes, 2, dim)
    rhs: np.ndarray               # (nodes, dim)
    rhs_x: np.ndarray             # (nodes, dim)
    b: np.ndarray                 # (dim, nodes)
    b_x: np.ndarray               # (dim, nodes)
    b_lo: np.ndarray              # (dim, nodes)

    @property
    def layout(self) -> ActiveLayout:     # the first set's; the sets share its dim
        return self.layouts[0]

    def form_A(self, nodes: slice = slice(None)) -> np.ndarray:
        """A = I - P at a slice of nodes in one set or of whole sets, a new array."""
        (lo, hi, _), nx, dim = nodes.indices(len(self.rhs)), self.x.size, self.rhs.shape[1]
        first, k = lo // nx, max(1, (hi - lo) // nx)     # the first set, the number of sets
        a, a_x = (f[nodes].reshape(k, -1, dim) for f in (self.rhs, self.rhs_x))
        A = a_x[..., None] * a[..., None, :]
        A -= a[..., None] * a_x[..., None, :]
        A *= self.scale[first:first + k, None]
        for p, tv, t in zip(A, np.split(self.table_vals[nodes], k), self.tabled[first:]):
            p[:, self.table_rows[t], self.table_cols[t]] = 0.0 - tv[:, t]
        A[..., range(dim), range(dim)] += 1.0
        return A.reshape(-1, dim, dim)


def assemble_system(layouts, model: BackgroundProblem, x) -> MainEquationSystem:
    """Build the factors of the per-node matrices from per-entry chain combinations.

    ``layouts`` holds one ``active_layout`` per set, all of one dim, to stack.  Every
    unknown (entry, side j) contributes its row chains a = S_nu, a' = S'_nu,
    a_ = S_(nu-1) and its column combinations b, b' and
    b_ = (-1)^j sum_(p>nu) M_p S_(p-nu-1).  Leibniz on dD/dx = (lam + mu - 2 q1)
    S(lam) S(mu) gives dP/dx = u_r b_c + a_r w_c with u = (lam - 2 q1) a + a_ and
    w = lam b + b_.  P takes the quotient form for simple pairs at least
    ``COALESCE_GAP`` apart, kept as a, a' and ``scale``, and the kernel tables
    otherwise: one chain call for the distinct lam of all sets, one ``d_table``
    call per derivative-order key (row nu, column m - 1 - nu) for all their pairs.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    layouts = tuple(layouts)
    rows = [row for lay in layouts for row in lay.rows()]
    n_sets, dim, nx = len(layouts), layouts[0].dim, x.size
    lams = np.array([e.lam for e, _ in rows], dtype=complex)
    nu, m = np.array([(e.nu, e.m) for e, _ in rows]).T
    sgn = np.array([-1.0 if j == 1 else 1.0 for _, j in rows])
    top = int(m.max()) - 1
    Ms = np.array([e.Ms + (0,) * (top + 1 - e.m) for e, _ in rows], dtype=complex)

    # one chain call over the distinct lam, at the largest order
    distinct, which = np.unique(lams, return_inverse=True)
    S, C = model.s_chain(x, distinct, top), model.sx_chain(x, distinct, top)
    a, a_x = S[nu, which], C[nu, which]
    a_lo = np.where((nu > 0)[:, None], S[nu - 1, which], 0.0)
    b, b_x, b_lo = np.zeros((3, len(rows), nx), dtype=complex)
    for d in range(top + 1):       # the group's terms p = nu + d
        k = nu + d < m
        M = Ms[k, nu[k] + d][:, None]
        b[k] += M * S[d, which[k]]
        b_x[k] += M * C[d, which[k]]
        if d:
            b_lo[k] += M * S[d - 1, which[k]]
    b, b_x, b_lo = sgn[:, None] * b, sgn[:, None] * b_x, sgn[:, None] * b_lo

    simple, per_set = (m == 1).reshape(n_sets, dim), lams.reshape(n_sets, dim)
    gap = per_set[:, :, None] - per_set[:, None, :]
    quotient = simple[:, :, None] & simple[:, None, :] & (np.abs(gap) >= COALESCE_GAP)
    scale = np.divide((sgn * Ms[:, 0]).reshape(n_sets, 1, dim), gap,
                      out=np.zeros(gap.shape, dtype=complex), where=quotient)
    # the pairs some set tables: one kernel table call per derivative-order key
    r, c = np.nonzero(~quotient.all(axis=0))
    tabled = ~quotient[:, r, c]
    sets, pair = np.nonzero(tabled)
    rr, cc = sets * dim + r[pair], sets * dim + c[pair]
    vals = np.zeros((n_sets, nx, r.size), dtype=complex)
    tkey, skey = nu[rr], m[cc] - 1 - nu[cc]
    for t, s in sorted(set(zip(tkey.tolist(), skey.tolist()))):
        sel = (tkey == t) & (skey == s)
        rs, cs = rr[sel], cc[sel]
        T = d_table(model, x, lams[rs], lams[cs], t, s)[:, t]
        acc = sum(Ms[cs, nu[cs] + d][:, None] * T[:, d] for d in range(s + 1))
        vals[sets[sel], :, pair[sel]] = sgn[cs][:, None] * acc

    def by_node(f):     # (sets * dim, nx) -> (nodes, dim), C-ordered
        return np.ascontiguousarray(f.reshape(n_sets, dim, nx).swapaxes(1, 2)).reshape(-1, dim)
    u = (lams[:, None] - 2.0 * model.q1_values(x)) * a + a_lo
    px_u, px_w = np.stack((by_node(u), by_node(a)), axis=2), \
        np.stack((by_node(b), by_node(lams[:, None] * b + b_lo)), axis=1)
    b, b_x, b_lo = (f.reshape(n_sets, dim, nx).swapaxes(0, 1).reshape(dim, -1)
                    for f in (b, b_x, b_lo))
    return MainEquationSystem(x=x, layouts=layouts, scale=scale, table_rows=r,
                              table_cols=c, tabled=tabled, table_vals=vals.reshape(-1, r.size),
                              px_u=px_u, px_w=px_w, rhs=by_node(a), rhs_x=by_node(a_x),
                              b=b, b_x=b_x, b_lo=b_lo)


def solve_main(system: MainEquationSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve (I - P) v = s and (I - P) v_x = s_x + (dP/dx) v at every node.

    Returns ``(v, v_x, cond, residual)``: v and v_x of shape (dim, nodes), the
    per-node 1-norm condition ||A||_1 ||A^-1||_1 of A = I - P, and the per-node
    max-norm residual of A v - s.  The solve factors A as ``form_A`` returns it, in chunks
    of ``SOLVE_CHUNK_ENTRIES`` matrix entries, in one set or of whole sets.  Below
    ``LU_MIN_DIM`` a batched ``np.linalg.inv`` serves both solves and gives the exact
    condition; from it on one LAPACK getrf per node serves two getrs solves and gecon's
    Hager-Higham estimate (a lower bound).  While dim^2 < ``POOL_MAX_ENTRIES`` (OpenBLAS
    threads larger getrf calls), several chunks go to two threads (one on one CPU) that
    share the budget.  The products are einsums, off numpy's BLAS pool.  A failed node
    (non-finite or exactly singular A, overflowing inverse) gets cond = inf and NaN
    solutions, and the loop goes on.
    """
    nx, (nodes, dim) = system.x.size, system.rhs.shape
    mv = partial(np.einsum, "nij,nj->ni")    # a product per node, through no BLAS
    v, vx = np.empty((2, nodes, dim), dtype=complex)
    cond, residual = np.empty((2, nodes))
    if dim >= LU_MIN_DIM:    # here, not at import: loading scipy's LAPACK takes about 0.25 s
        from scipy.linalg.lapack import zgecon, zgetrf, zgetrs
    pooled = LU_MIN_DIM <= dim and dim * dim < POOL_MAX_ENTRIES
    workers = min(2, _cpus()) if pooled else 1   # more than two: no gain measured
    chunk = max(1, SOLVE_CHUNK_ENTRIES // (workers * dim * dim))
    span = max(1, chunk // nx) * nx      # whole sets to a chunk, or one set in chunks
    chunks = [slice(lo + k, min(lo + k + chunk, lo + span)) for lo in range(0, nodes, span)
              for k in range(0, nx, chunk)]

    def solve_chunk(sl: slice) -> None:
        A = system.form_A(sl)
        norm = np.abs(A).sum(axis=1).max(axis=1)
        if dim < LU_MIN_DIM:
            try:
                Ainv = np.linalg.inv(A)
            except np.linalg.LinAlgError:      # exactly singular nodes (a zero pivot): NaN there
                singular = np.linalg.slogdet(A)[1] == -np.inf
                Ainv = np.linalg.inv(np.where(singular[:, None, None], np.nan, A))
            cond[sl] = norm * np.abs(Ainv).sum(axis=1).max(axis=1)
            solve = partial(mv, Ainv)
        else:
            lu, piv = A.copy(), np.empty((len(A), dim), dtype=np.int32)
            for k, f in enumerate(lu):   # in place on the Fortran-ordered f.T = A_k^T
                piv[k] = zgetrf(f.T, overwrite_a=1)[1]   # rcond = 0 on an exactly singular A_k
                rcond, info = zgecon(f.T, norm[k], norm="I")   # kappa_inf(A_k^T) = kappa_1(A_k)
                cond[sl.start + k] = 1.0 / rcond if info == 0 and rcond > 0 else np.inf

            def solve(b):    # A_k y = b_k is the transposed solve on A_k^T's LU
                return [zgetrs(f.T, p, bk, trans=1)[0] for f, p, bk in zip(lu, piv, b)]
        cond[sl][~np.isfinite(cond[sl])] = np.inf    # NaN/inf in A, or an overflowing inverse
        v[sl] = solve(system.rhs[sl])
        v[sl][np.isinf(cond[sl])] = np.nan            # and so v_x there
        vx[sl] = solve(system.rhs_x[sl] + mv(system.px_u[sl], mv(system.px_w[sl], v[sl])))
        residual[sl] = np.abs(mv(A, v[sl]) - system.rhs[sl]).max(axis=1)

    run = _executor(os.getpid(), workers).map if workers > 1 and len(chunks) > 1 else map
    list(run(solve_chunk, chunks))
    return v.T, vx.T, cond, residual


def _guard(x: np.ndarray, cond: np.ndarray, cond_limit: float) -> SingularSystemError | None:
    """One set's failure at its worst node, the lowest failed one (cond = inf) if any."""
    k = int(np.argmax(cond))
    if not (np.isfinite(cond[k]) and cond[k] <= cond_limit):
        return SingularSystemError(f"main equation numerically singular at x={x[k]:.6f} "
                                   f"(cond={cond[k]:.3e})", x=float(x[k]), cond=float(cond[k]))


def _cpus() -> int:     # the CPUs this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@cache     # per process: a forked child has none of its parent's threads
def _executor(pid: int, workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="qpencil-solve")


@dataclass
class EpsilonFields:
    """The auxiliary series on the grid, from which the ``recover_*`` steps read the potentials."""

    x: np.ndarray
    eps1: np.ndarray
    eps1_prime: np.ndarray
    eps2: np.ndarray
    eps3: np.ndarray
    eps4: np.ndarray


def compute_epsilons(system: MainEquationSystem, v: np.ndarray,
                     v_x: np.ndarray) -> EpsilonFields:
    """Evaluate the four series from the solved v-fields.

    Sums run over the active indices only: outside them the data equal the
    background, so the two sides of each term cancel exactly.  The series
    derivative is assembled term-wise from v_x, never by differencing.
    """
    x, b, b_x, per_set = system.x, system.b, system.b_x, (-1, len(system.layouts), system.x.size)
    lams = np.array([[e.lam for e, _ in lay.rows()] for lay in system.layouts], dtype=complex)

    eps1 = (b * v).sum(axis=0)
    eps1p = (b_x * v + b * v_x).sum(axis=0)
    eps2 = (lams.T[:, :, None] * b.reshape(per_set) * v.reshape(per_set)).sum(axis=0).reshape(-1)
    eps3 = (b_x * v).sum(axis=0)
    # group members are consecutive rows, so b_lo of member nu is b of nu + 1
    eps4 = (system.b_lo * v).sum(axis=0)
    return EpsilonFields(x=x, eps1=eps1, eps1_prime=eps1p, eps2=eps2,
                         eps3=eps3, eps4=eps4)


def _degenerate(x: np.ndarray, eps1: np.ndarray) -> DegenerateSeriesError | None:
    """The failure at the first node, of the first row, where |1 + eps1^2| < 1e-8."""
    bad = np.flatnonzero(np.abs(1.0 + eps1 ** 2) < 1e-8)
    return DegenerateSeriesError(f"1 + eps1^2 vanishes at x={x[bad[0] % x.size]:.6f}, where "
                                 "the q1 recovery divides by it") if bad.size else None


def recover_q1(eps: EpsilonFields, model: BackgroundProblem) -> np.ndarray:
    """Pointwise update of the first potential from the series derivative."""
    return model.q1_values(eps.x) + eps.eps1_prime / (1.0 + eps.eps1 ** 2)


def recover_q0_antiderivative(eps: EpsilonFields, q1: np.ndarray,
                              model: BackgroundProblem) -> np.ndarray:
    """Antiderivative of the zeroth-potential difference, in integrated form.

    The exact-derivative terms contribute endpoint differences; the remaining
    continuous terms go through composite Simpson, along the last axis.  The
    background derivative q1t' is eliminated by integration by parts, so
    nothing is differentiated numerically.
    """
    x = eps.x
    q1t = model.q1_values(x)
    b = 2.0 * (q1t - q1) * eps.eps1

    def jump(f):
        return f - f[..., :1]

    integrand = (-2.0 * q1t * eps.eps1_prime
                 + 2.0 * (q1t - q1) * eps.eps3
                 + b * (eps.eps2 - 2.0 * q1t * eps.eps1 + eps.eps4)
                 + 0.25 * b * b)
    return (2.0 * jump(eps.eps2) + 2.0 * jump(eps.eps4) + 0.5 * jump(b)
            - 2.0 * jump(q1t * eps.eps1) + cumulative_simpson(integrand, x))


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
    cond: np.ndarray
    residual: float

    def as_potentials(self):
        """Full (q1, sigma) pair, absorbing the background antiderivative."""
        from .forward import PotentialPair

        sigma = self.background.sigma_values(self.x) + self.q0_antideriv
        return PotentialPair(x=self.x, q1=np.asarray(self.q1),
                             sigma=np.asarray(sigma))


def default_grid(n_grid: int = DEFAULT_N_GRID) -> np.ndarray:
    return np.linspace(0.0, pi, n_grid + 1)


def run_reconstruction(data: SpectralDataSet, model: BackgroundProblem, grid=None,
                       min_window: int = 0, cond_limit: float = COND_LIMIT) -> RecoveredPotentials:
    """Reconstruct one set: ``run_reconstructions`` on a stack of one, raising its error."""
    (rec,) = run_reconstructions([data], model, grid, min_window, cond_limit)
    if isinstance(rec, QPencilError):
        raise rec
    return rec


def run_reconstructions(datasets: list[SpectralDataSet], model: BackgroundProblem, grid=None,
                        min_window: int = 0, cond_limit: float = COND_LIMIT) -> list:
    """Full pipeline on a stack of sets: ``active_layout`` per set, then per dim
    ``assemble_system``, ``solve_main``, ``compute_epsilons`` and the ``recover_*`` steps.

    Returns, per set, its ``RecoveredPotentials`` or the ``QPencilError`` it raises;
    an error that no single set causes raises.
    A set's mean eigenvalue shift must match the background's within 1e-6, and its
    tail must be that background.  Sets of one dim share one ``assemble_system`` and
    one solve.  The guards and the quadrature restart at each set, so a set's outputs
    are bitwise those of its reconstruction alone.  A set fails at its lowest failed
    node (cond = inf) or else its worst above ``cond_limit`` (1e10; the CLI profiles
    use 1e8 strict, 1e12 loose), then where |1 + eps1^2| < 1e-8.
    """
    x = default_grid() if grid is None else np.atleast_1d(np.asarray(grid, dtype=float))
    model_set = model.spectral_data(max([min_window, 1] + [d.max_abs_index for d in datasets]))
    out: list = []
    for data in datasets:
        try:
            if abs(complex(data.omega0) - complex(model.omega0)) > 1e-6:
                raise ValidationError(f"data omega0={data.omega0} incompatible with background "
                                      f"omega0={model.omega0}")
            if data.tail is not None and not same_background(data.tail, model):
                raise ValidationError("data tail must coincide with the reconstruction background")
            out.append(active_layout(data, model_set, min_window))
        except QPencilError as err:
            out.append(err)
    for dim in {lay.dim for lay in out if isinstance(lay, ActiveLayout)}:
        stack = [i for i, e in enumerate(out) if isinstance(e, ActiveLayout) and e.dim == dim]
        series = np.zeros((5, len(stack), x.size), dtype=complex)   # the background's own data
        cond, residual = np.ones(series.shape[1:]), [0.0] * len(stack)
        if dim:
            system = assemble_system([out[i] for i in stack], model, x)
            v, v_x, cond, residual = solve_main(system)
            eps = compute_epsilons(system, v, v_x)
            series.reshape(5, -1)[:] = [eps.eps1, eps.eps1_prime, eps.eps2, eps.eps3, eps.eps4]
            cond, residual = cond.reshape(len(stack), -1), residual.reshape(len(stack), -1).max(1)
        for i, c, e1 in zip(stack, cond, series[0]):
            out[i] = _guard(x, c, cond_limit) or _degenerate(x, e1)
        ok = [s for s, i in enumerate(stack) if out[i] is None]
        eps = EpsilonFields(x, *series[:, ok])
        q1 = recover_q1(eps, model)
        q0ad = recover_q0_antiderivative(eps, q1, model)
        for j, s in enumerate(ok):
            out[stack[s]] = RecoveredPotentials(x, q1[j], q0ad[j], model, cond[s],
                                                float(residual[s]))
    return out
