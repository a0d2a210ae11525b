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
from .model import COALESCE_GAP, P_MAX, ZeroBackground, d_table
from .simpson import cumulative_simpson
from .spectral_data import SpectralDataSet

DEFAULT_N_GRID = 200
COND_LIMIT = 1e10
SOLVE_CHUNK_ENTRIES = 3 << 14   # A's entries a solve forms at once; A and work buffer fit L2
LU_MIN_DIM = 16                 # from this dim on, factor node by node by getrf
POOL_MAX_ENTRIES = 10_000       # below this dim^2, x-ranges go to two threads
ACTIVE_TOL = 1e-11


@dataclass(frozen=True)
class ActiveLayout:
    """The unknowns of one set, x-independent, one row each: every active n on side 0
    (the data), then every active n on side 1 (the background's data)."""

    indices: tuple[int, ...]
    lam: np.ndarray     # (dim,), the eigenvalue of the row's group
    nu: np.ndarray      # (dim,), the row's offset in its group
    m: np.ndarray       # (dim,), the group's size
    Ms: np.ndarray      # (dim, P_MAX + 1), the group's Laurent coefficients, zero-padded

    @property
    def dim(self) -> int:
        return 2 * len(self.indices)


def active_layout(data: SpectralDataSet, model_set: SpectralDataSet) -> ActiveLayout:
    """Indices where the data differ from the background's ``model_set``, closed under groups.

    ``model_set`` is the background's own spectral data, at least as wide as the set.
    """
    active: set[int] = set()
    for n in zindex.window(data.max_abs_index):
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
    rows = [(ds, n, ds.group_for(n)) for ds in (data, model_set) for n in indices]
    Ms = np.zeros((len(rows), P_MAX + 1), dtype=complex)
    for k, (ds, _, g) in enumerate(rows):
        if g.size - 1 > P_MAX:
            raise OrderTooHighError(f"group size {g.size} at {g.start} exceeds p_max")
        Ms[k, :g.size] = ds.group_coefficients(g)
    return ActiveLayout(indices=indices, lam=np.array([g.lam for _, _, g in rows], dtype=complex),
                        nu=np.array([zindex.offset(g.start, n) for _, n, g in rows], dtype=int),
                        m=np.array([g.size for _, _, g in rows], dtype=int), Ms=Ms)


@dataclass
class MainEquationSystem:
    """Per-node dense systems in factored form; node s * nx + k is node k of set s.

    P = (a_r a'_c - a'_r a_c) ``scale``_rc + ``table_vals`` with the row chains a = ``rhs``,
    a' = ``rhs_x``; ``scale`` is zero at the pairs (``table_rows``, ``table_cols``) a set
    tables, ``table_vals`` zero at the others; ``form_A`` forms A = I - P per slice.
    ``b`` and ``b_x`` are the signed column combinations (-1)^j sum_p M_p S_(p-nu)
    and the same over S', ``b_lo`` the same with S_(p-nu-1) over p > nu.
    dP/dx = ``px_u @ px_w`` at every node.
    """

    x: np.ndarray                 # (nx,), the grid of every set
    layouts: tuple[ActiveLayout, ...]
    scale: np.ndarray             # (sets, dim, dim), zero at the tabled pairs
    table_rows: np.ndarray        # (pairs,), tabled by some set
    table_cols: np.ndarray        # (pairs,)
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

    def form_A(self, nodes: slice = slice(None), out=None, work=None) -> np.ndarray:
        """A = I - P at a slice of nodes in one set or of whole sets, in a new array or in
        ``out``, C-contiguous; ``work``, if given, of A's shape, holds the temporary."""
        (lo, hi, _), nx, dim = nodes.indices(len(self.rhs)), self.x.size, self.rhs.shape[1]
        first, k = lo // nx, max(1, (hi - lo) // nx)     # the first set, the number of sets
        a, a_x = (f[nodes].reshape(k, -1, dim) for f in (self.rhs, self.rhs_x))
        A, W = (f if f is None else f.reshape(a.shape + (dim,)) for f in (out, work))
        A = np.multiply(a_x[..., None], a[..., None, :], out=A)
        A -= np.multiply(a[..., None], a_x[..., None, :], out=W)
        A *= self.scale[first:first + k, None]
        A.reshape(-1, dim, dim)[:, self.table_rows, self.table_cols] -= self.table_vals[nodes]
        A.reshape(k, -1, dim * dim)[..., ::dim + 1] += 1.0
        return A.reshape(-1, dim, dim)


def assemble_system(layouts, model: ZeroBackground, x) -> MainEquationSystem:
    """Build the factors of the per-node matrices from per-entry chain combinations.

    ``layouts`` holds one ``active_layout`` per set, all of one dim, to stack.  Every
    unknown (n, side j) contributes its row chains a = S_nu, a' = S'_nu,
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
    n_sets, dim, nx = len(layouts), layouts[0].dim, x.size
    lams, nu, m, Ms = (np.concatenate(f) for f in
                       zip(*[(lay.lam, lay.nu, lay.m, lay.Ms) for lay in layouts]))
    sgn = np.tile(np.repeat([1.0, -1.0], dim // 2), n_sets)    # (-1)^j, side j by row order
    top = int(m.max()) - 1

    # one chain call over the distinct lam, at the largest order
    distinct, which = np.unique(lams, return_inverse=True)
    S, C = model.s_chain(x, distinct, top), model.sx_chain(x, distinct, top)
    a, a_x = S[nu, which], C[nu, which]
    a_lo = np.where((nu > 0)[:, None], S[nu - 1, which], 0.0)
    b, b_x, b_lo = np.zeros((3, lams.size, nx), dtype=complex)
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
                              table_cols=c, table_vals=vals.reshape(-1, r.size),
                              px_u=px_u, px_w=px_w, rhs=by_node(a), rhs_x=by_node(a_x),
                              b=b, b_x=b_x, b_lo=b_lo)


def solve_main(system: MainEquationSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve (I - P) v = s and (I - P) v_x = s_x + (dP/dx) v at every node.

    Returns ``(v, v_x, cond, residual)``: v and v_x of shape (dim, nodes), the
    per-node 1-norm condition ||A||_1 ||A^-1||_1 of A = I - P, and the per-node
    max-norm residual of A v - s.  The solve forms A by ``form_A`` in chunks of
    ``SOLVE_CHUNK_ENTRIES`` matrix entries, in one set or of whole sets, into a buffer
    allocated once per call, next to a work buffer for form_A's temporary, |A| and the LU.
    Below ``LU_MIN_DIM`` a batched ``np.linalg.inv`` serves both solves and gives the exact
    condition; from it on one getrf per node serves gecon's Hager-Higham estimate (a lower
    bound) and two getrs solves, in place in v and v_x.  The products are einsums, off
    numpy's BLAS pool.  A failed node (non-finite or exactly singular A, overflowing
    inverse) gets cond = inf and NaN solutions, and the loop goes on.
    """
    nx, (nodes, dim) = system.x.size, system.rhs.shape
    mv = partial(np.einsum, "nij,nj->ni")    # a product per node, through no BLAS
    v, vx = np.empty((2, nodes, dim), dtype=complex)
    cond, residual = np.empty((2, nodes))
    chunk = max(1, SOLVE_CHUNK_ENTRIES // (dim * dim))
    span = max(1, chunk // nx) * nx      # whole sets to a chunk, or one set in chunks
    buf, work = np.empty((2, min(chunk, nodes), dim, dim), dtype=complex)
    for sl in (slice(lo + k, min(lo + k + chunk, lo + span, nodes)) for lo in range(0, nodes, span)
               for k in range(0, nx, chunk)):
        n = sl.stop - sl.start
        A = system.form_A(sl, out=buf[:n], work=work[:n])
        norm = np.abs(A, out=work[:n].view(float)[..., :dim]).sum(axis=1).max(axis=1)
        if dim < LU_MIN_DIM:
            try:
                Ainv = np.linalg.inv(A)
            except np.linalg.LinAlgError:      # exactly singular nodes (a zero pivot): NaN there
                singular = np.linalg.slogdet(A)[1] == -np.inf
                Ainv = np.linalg.inv(np.where(singular[:, None, None], np.nan, A))
            cond[sl] = norm * np.abs(Ainv).sum(axis=1).max(axis=1)
            solve = partial(mv, Ainv)
        else:    # here, not at import: loading scipy's LAPACK takes about 0.25 s
            from scipy.linalg.lapack import zgecon, zgetrf, zgetrs
            piv, lu = np.empty((n, dim), dtype=np.int32), work[:n].transpose(0, 2, 1)
            np.copyto(lu, A.transpose(0, 2, 1))      # lu[k] = A_k^T, Fortran-ordered, in place
            for k, f in enumerate(lu):
                piv[k] = zgetrf(f, 1)[1]     # rcond = 0 on an exactly singular A_k
                rcond, info = zgecon(f, norm[k], "I")   # kappa_inf(A_k^T) = kappa_1(A_k)
                cond[sl.start + k] = 1.0 / rcond if info == 0 and rcond > 0 else np.inf

            def solve(b, out):    # A_k y = b_k is the transposed solve on A_k^T's LU, in out
                out[:] = b
                for f, p, y in zip(lu, piv, out):
                    zgetrs(f, p, y, 1, 1)
        cond[sl][~np.isfinite(cond[sl])] = np.inf    # NaN/inf in A, or an overflowing inverse
        solve(system.rhs[sl], out=v[sl])
        v[sl][np.isinf(cond[sl])] = np.nan            # and so v_x there
        solve(system.rhs_x[sl] + mv(system.px_u[sl], mv(system.px_w[sl], v[sl])), out=vx[sl])
        residual[sl] = np.abs(mv(A, v[sl]) - system.rhs[sl]).max(axis=1)
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
def _executor(pid: int) -> ThreadPoolExecutor:     # one worker, next to the calling thread
    return ThreadPoolExecutor(1, thread_name_prefix="qpencil-solve")


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
    lams = np.array([lay.lam for lay in system.layouts])

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


def recover_q1(eps: EpsilonFields, model: ZeroBackground) -> np.ndarray:
    """Pointwise update of the first potential from the series derivative."""
    return model.q1_values(eps.x) + eps.eps1_prime / (1.0 + eps.eps1 ** 2)


def recover_q0_antiderivative(eps: EpsilonFields, q1: np.ndarray,
                              model: ZeroBackground) -> np.ndarray:
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
    background: ZeroBackground
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


def run_reconstruction(data: SpectralDataSet, model: ZeroBackground, grid=None,
                       cond_limit: float = COND_LIMIT) -> RecoveredPotentials:
    """Reconstruct one set: ``run_reconstructions`` on a stack of one, raising its error."""
    (rec,) = run_reconstructions([data], model, grid, cond_limit)
    if isinstance(rec, QPencilError):
        raise rec
    return rec


def run_reconstructions(datasets: list[SpectralDataSet], model: ZeroBackground, grid=None,
                        cond_limit: float = COND_LIMIT) -> list:
    """Full pipeline on a stack of sets: ``active_layout`` per set, then per dim
    ``assemble_system``, ``solve_main``, ``compute_epsilons`` and the ``recover_*`` steps.

    Returns, per set, its ``RecoveredPotentials`` or the ``QPencilError`` it raises;
    an error that no single set causes raises.
    A set's mean eigenvalue shift must match the background's within 1e-6, and its
    tail must be that background.  Sets of one dim share one ``assemble_system`` and
    one solve, on two x-ranges at dims 16 to 99 with two CPUs and two chunks (the later
    on a worker thread), bit for bit.  The guards and the quadrature restart at each
    set, so a set's outputs are bitwise those of its reconstruction alone.  A set fails at
    its lowest failed node (cond = inf) or else its worst above ``cond_limit`` (1e10; the
    CLI profiles use 1e8 strict, 1e12 loose), then where |1 + eps1^2| < 1e-8.
    """
    x = default_grid() if grid is None else np.atleast_1d(np.asarray(grid, dtype=float))
    model_set = model.spectral_data(max([1] + [d.max_abs_index for d in datasets]))
    out: list = []
    for data in datasets:
        try:
            if abs(complex(data.omega0) - complex(model.omega0)) > 1e-6:
                raise ValidationError(f"data omega0={data.omega0} incompatible with background "
                                      f"omega0={model.omega0}")
            if data.tail is not None and data.tail != model:
                raise ValidationError("data tail must coincide with the reconstruction background")
            out.append(active_layout(data, model_set))
        except QPencilError as err:
            out.append(err)
    for dim in {lay.dim for lay in out if isinstance(lay, ActiveLayout)}:
        stack = [i for i, e in enumerate(out) if isinstance(e, ActiveLayout) and e.dim == dim]
        series = np.zeros((5, len(stack), x.size), dtype=complex)   # the background's own data
        cond, residual = np.ones(series.shape[1:]), np.zeros(series.shape[1:])
        if dim:     # two x-ranges on two threads where the solve takes more than one chunk
            cut = x.size // 2
            pooled = LU_MIN_DIM <= dim and dim * dim < POOL_MAX_ENTRIES and cut > 0 \
                and len(stack) * x.size > SOLVE_CHUNK_ENTRIES // (dim * dim) and _cpus() > 1
            job = partial(_reconstruct_range, [out[i] for i in stack], model)
            later = [_executor(os.getpid()).submit(job, x[cut:])] if pooled else []
            parts = [job(x[:cut] if pooled else x)] + [f.result() for f in later]
            series, cond, residual = (np.concatenate(f, axis=-1) for f in zip(*parts))
        for i, c, e1 in zip(stack, cond, series[0]):
            out[i] = _guard(x, c, cond_limit) or _degenerate(x, e1)
        ok = [s for s, i in enumerate(stack) if out[i] is None]
        eps = EpsilonFields(x, *series[:, ok])
        q1 = recover_q1(eps, model)
        q0ad = recover_q0_antiderivative(eps, q1, model)
        for j, s in enumerate(ok):
            out[stack[s]] = RecoveredPotentials(x, q1[j], q0ad[j], model, cond[s],
                                                float(residual[s].max()))
    return out


def _reconstruct_range(layouts, model: ZeroBackground, x: np.ndarray):
    """Assembly, solve and series on one x-range: (5, sets, nodes) series, cond, residual."""
    system, per_set = assemble_system(layouts, model, x), (len(layouts), x.size)
    v, v_x, cond, residual = solve_main(system)
    eps = compute_epsilons(system, v, v_x)
    return (np.reshape([eps.eps1, eps.eps1_prime, eps.eps2, eps.eps3, eps.eps4], (5,) + per_set),
            cond.reshape(per_set), residual.reshape(per_set))
