"""Direct spectral problem: shooting, root location, residues, weight numbers.

The pencil equation is the linear first-order system Y' = A(x, lam) Y in the
quasi-derivative variables Y = (y, y1), y1 = y' - sigma y,

    A = [[sigma, 1], [G, -sigma]],    G = 2 lam q1 - lam^2 - sigma^2,

which only ever samples sigma (the antiderivative of the rough potential) and
never differentiates it.  Because the system is linear, one RK4 step of width
h from x_i is a 2x2 transfer matrix

    T_i = I + h/6 (K1 + 2 K2 + 2 K3 + K4),    K1 = A(x_i),
    K2 = A(x_m) (I + h/2 K1),  K3 = A(x_m) (I + h/2 K2),  K4 = A(x_(i+1)) (I + h K3),

with x_m the step's midpoint, and the solution at pi is the product
T_(M-1) ... T_0 applied to the initial values.  Parameter derivatives of the
Dirichlet solution are the normalized variational chains
S_k = (1/k!) d^k S / d lam^k: the eps^k coefficients of the same product taken
at lam + eps, where A(lam + eps) = A0 + eps A1 + eps^2 A2 with
A1 = [[0, 0], [2 q1 - 2 lam, 0]] and A2 = [[0, 0], [-1, 0]].  Every transfer
matrix is therefore handled as a truncated eps-series of 2x2 matrices.

Only G depends on lam, so each entry of T_i - I is a polynomial of degree at
most 4 in lam with a lam-independent coefficient table.  Adjacent steps
multiply in that coefficient space, (I + X_1)(I + X_0) - I = X_1 + X_0 + X_1 X_0,
so a block of BLOCK_STEPS = 4 steps is tabled as degree-16 polynomials.  The
eps^k term of T(lam + eps) - I is a table times the powers comb(d, k) lam^(d-k)
(zero for k > d): a (steps, 5) @ (5, L) or (blocks, 17) @ (17, L) matrix product
per order and entry, to which I is added afterwards, so the small terms are not
summed against 1.  Both tables depend on the potentials and the refinement
alone: each is built once and kept on the (read-only) ``PotentialPair``; the
block table serves every call but traces, which need each node.

Roots inside |lam - c| = r are counted and located from Delta = S(pi) alone: with N
of them, sum_j (lam_j - c)^p = -p r^p g_(-p) for the periodic g = log Delta - i N theta.
"""

from __future__ import annotations

import csv as _csv
from dataclasses import dataclass, field
from math import ceil, comb, pi

import numpy as np

from . import zindex
from .errors import (
    NonFiniteInputError,
    PoleTooCloseError,
    RootNotConvergedError,
    ValidationError,
    WindingAmbiguousError,
)
from .simpson import simpson
from .spectral_data import Group, SpectralDataSet, SpectralEntry, clusters

DEFAULT_REFINE = 10   # integrator steps per interval of the potentials' grid
STEP_TOL = 1e-8       # largest RK4 error in lam that ``_refine``'s step count allows
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
CIRCLE_NODES = (16, 32, 64, 128, 256, 512, 1024)    # the levels of a circle sample
MOMENT_TOL = 1e-10       # accepted change N -> 2N of a moment, per its integrand's size
CONTOUR_RADIUS_CAP = 0.2
PHASE_STEP_MAX = pi / 2  # largest arg Delta step between neighbouring circle nodes
CHUNK_ENTRIES = 8192     # block (or step) matrices built at once, counted as matrices x lambdas
BLOCK_STEPS = 4          # steps per block of the untraced integrator, a power of 2
POTENTIALS_HEADER = ["x", "re_q1", "im_q1", "re_sigma", "im_sigma"]


def write_csv(path, header: list[str], rows) -> None:
    """A header line, then rows of floats at 17 significant digits (bit-exact)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = _csv.writer(f)
        w.writerow(header)
        w.writerows([f"{v:.17g}" for v in row] for row in rows)


def read_csv(path, header: list[str]) -> list[list[float]]:
    """Float rows of a file written by ``write_csv``; ValidationError otherwise."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            r = _csv.reader(f.readlines())
        got, lines = next(r, None), [(r.line_num, row) for row in r]
    except UnicodeDecodeError as err:       # unreadable, like a missing file
        raise OSError(f"cannot read {path} as UTF-8: {err}") from None
    except _csv.Error as err:               # a field over the csv module's size limit, say
        raise ValidationError(f"bad CSV row {r.line_num}: {err}") from None
    if got != header:
        raise ValidationError(f"unexpected CSV header: {got}")
    rows = []
    for line_num, row in lines:
        if len(row) != len(header):
            raise ValidationError(f"bad CSV row {line_num}: {len(row)} fields, "
                                  f"expected {len(header)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as err:
            raise ValidationError(f"bad CSV row {line_num}: {err}") from None
    return rows


@dataclass(frozen=True)
class PotentialPair:
    """Grid representation of (q1, sigma) on uniform nodes of [0, pi].

    ``sigma`` is the antiderivative of the zeroth-order potential with sigma(0) = 0; both
    are read as cubics between the nodes (``_cubic``).  Singular potentials (delta functions)
    are out of scope: sigma must be continuous.  The arrays are read-only copies, so the
    integrator tables and Newton's residue record cached on them never go stale.
    """

    x: np.ndarray
    q1: np.ndarray
    sigma: np.ndarray
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        q1 = np.array(self.q1, dtype=complex)
        sigma = np.array(self.sigma, dtype=complex)
        if not (len(x) == len(q1) == len(sigma)):
            raise ValidationError("grid and potential arrays must have equal length")
        if len(x) < 2 or abs(x[0]) > 1e-12 or abs(x[-1] - pi) > 1e-12:
            raise ValidationError("grid must span [0, pi]")
        steps = np.diff(x)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValidationError("grid must be uniform")
        if not (np.all(np.isfinite(q1)) and np.all(np.isfinite(sigma))):
            raise NonFiniteInputError("potential values must be finite")
        for name, arr in (("x", x), ("q1", q1), ("sigma", sigma)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_grid(self) -> int:
        return len(self.x) - 1

    @staticmethod
    def from_functions(q1_fun, sigma_fun, n_grid: int = 200) -> "PotentialPair":
        x = np.linspace(0.0, pi, n_grid + 1)
        q1 = np.asarray([q1_fun(t) for t in x], dtype=complex)
        sigma = np.asarray([sigma_fun(t) for t in x], dtype=complex)
        return PotentialPair(x=x, q1=q1, sigma=sigma)

    def omega0(self) -> complex:
        """Mean of q1 over the interval: (1/pi) integral of q1."""
        with np.errstate(over="ignore", invalid="ignore"):
            mean = complex(simpson(self.q1, self.x) / pi)
        if not np.isfinite(mean):
            raise NonFiniteInputError(f"the mean of q1 is not finite ({mean}): q1 overflows")
        return mean

    def to_csv(self, path) -> None:
        write_csv(path, POTENTIALS_HEADER, zip(self.x, self.q1.real, self.q1.imag,
                                               self.sigma.real, self.sigma.imag))

    @staticmethod
    def from_csv(path) -> "PotentialPair":
        rows = read_csv(path, POTENTIALS_HEADER)
        return PotentialPair(x=np.array([r[0] for r in rows]),
                             q1=np.array([complex(r[1], r[2]) for r in rows]),
                             sigma=np.array([complex(r[3], r[4]) for r in rows]))


@dataclass(frozen=True)
class ShootingResult:
    """Endpoint values (and optional trace) of the integrated chains."""

    lams: np.ndarray            # (L,)
    s: np.ndarray               # (n_derivs+1, L): S_k(pi)
    c: np.ndarray | None        # (L,)
    trace: np.ndarray | None    # (n_nodes+1, n_chain, 2, L)
    x_refined: np.ndarray | None    # (n_nodes+1,), traced calls only


def _step_polynomials(h, s_n, s_m, q_n, q_m):
    """Coefficients of T_i - I as polynomials in lam: (5 degrees, 4 entries, steps).

    A is traceless, so A_m^2 = w I with w = G_m + sigma_m^2 = 2 q1_m lam - lam^2,
    and the RK4 step of the module docstring expands to

        T = I + h/6 (A_a + 4 A_m + A_b) + h^2/6 (A_m A_a + A_b A_m)
              + w (h^2/6 I + h^3/12 (A_a + A_b) + h^4/24 A_b A_a)

    for A_a, A_m, A_b at the step's start, midpoint and end.  With
    G_x = -lam^2 + 2 q1_x lam - sigma_x^2 every entry has degree at most 4;
    entry (r, c) is column 2 r + c.  T_11 is T_00 with start and end swapped
    and the signs of the odd powers of h turned.
    """
    a, b, qa, qb = s_n[:-1], s_n[1:], q_n[:-1], q_n[1:]
    c1, c2, c3, c4 = h / 6.0, h ** 2 / 6.0, h ** 3 / 12.0, h ** 4 / 24.0
    sq = s_n * s_n
    aa, bb, mm, ab_sq, ab_q = sq[:-1], sq[1:], s_m * s_m, sq[:-1] + sq[1:], qa + qb
    s_sum, dif = a + b, b - a
    mix = s_m * s_sum - mm
    odd = c1 * (s_sum + 4.0 * s_m)
    c3s, c4d, c2d, qm2 = c3 * s_sum, c4 * dif, c2 * dif, 2.0 * q_m
    c4a, c4b, qm4 = c4d * a, c4d * b, (4.0 * c4) * q_m
    T = np.empty((5, 4, s_m.size), dtype=complex)
    np.add(odd, c2 * (mix - aa), out=T[0, 0])
    np.subtract(c2 * (mix - bb), odd, out=T[0, 3])
    np.add((2.0 * c2) * qa, qm2 * ((2.0 * c2) + c3s + c4a), out=T[1, 0])
    np.add((2.0 * c2) * qb, qm2 * ((2.0 * c2) - c3s - c4b), out=T[1, 3])
    np.subtract(qm4 * qa - c4a, c3s + 3.0 * c2, out=T[2, 0])
    np.add(qm4 * qb + c4b, c3s - 3.0 * c2, out=T[2, 3])
    np.multiply(-2.0 * c4, qa + q_m, out=T[3, 0])
    np.multiply(-2.0 * c4, qb + q_m, out=T[3, 3])
    T[4, ::3] = c4
    # T_01 = h + h^2/6 (s_b - s_a) + w X_01, X_01 = h^3/6 + h^4/24 (s_b - s_a)
    x = 2.0 * c3 + c4d
    np.add(h, c2d, out=T[0, 1])
    np.multiply(qm2, x, out=T[1, 1])
    np.negative(x, out=T[2, 1])
    T[3:, 1] = 0.0
    # T_10 = h/6 (G_a + 4 G_m + G_b) + h^2/6 (..) + w H, with H = H2 lam^2 + H1 lam + H0
    H0 = -c3 * ab_sq - c4a * b
    H1 = (2.0 * c3) * ab_q + (2.0 * c4) * (a * qb - b * qa)
    np.subtract(-c1 * (ab_sq + 4.0 * mm), c2d * mix, out=T[0, 2])
    np.add((2.0 * c1) * (ab_q + 2.0 * qm2) + (2.0 * c2) * (s_m * (qb - qa) - dif * q_m),
           qm2 * H0, out=T[1, 2])
    np.subtract(c2d - h + qm2 * H1, H0, out=T[2, 2])
    np.subtract(qm2 * (c4d - 2.0 * c3), H1, out=T[3, 2])
    np.subtract(2.0 * c3, c4d, out=T[4, 2])
    return T


def _pair_steps(X):
    """Adjacent steps of a (degrees, 4, even) table: (I + X1)(I + X0) - I = X1 + X0 + X1 X0."""
    d, n = X.shape[0], X.shape[2] // 2
    X = X.reshape(d, 2, 2, n, 2)        # the last axis is the step's parity
    X0, X1 = X[..., 0], X[..., 1]
    P = np.zeros((2 * d - 1, 2, 2, n), dtype=complex)
    for i in range(d):                  # lam^i of X1 times every power of X0
        P[i:i + d] += X1[i, :, 0, None] * X0[:, None, 0] + X1[i, :, 1, None] * X0[:, None, 1]
    P[:d] += X0 + X1
    return P.reshape(2 * d - 1, 4, n)


def _cubic(values, sub):
    """4-point Lagrange interpolant of uniform node values at ``sub`` points per interval and the
    last node; ghost nodes on the cubic through the end nodes (2, 3 nodes: line, parabola)."""
    p = min(4, len(values))
    ext = np.array([(-1) ** k * comb(p, k + 1) for k in range(p)])   # the next node out
    f = np.concatenate([[ext @ values[:p]], values, [ext @ values[:-p - 1:-1]]])
    s = np.arange(sub) / sub
    w = np.array([-s * (s - 1) * (s - 2) / 6, (s + 1) * (s - 1) * (s - 2) / 2,
                  -(s + 1) * s * (s - 2) / 2, (s + 1) * s * (s - 1) / 6])
    return np.append(np.lib.stride_tricks.sliding_window_view(f, 4) @ w, values[-1])


def _coefficients(potentials, refine, per_step):
    """The table of T - I per step or per block, built once per (potentials, refine).

    Identity steps (X = 0) fill the last block of a step count not divisible by BLOCK_STEPS.
    """
    key = (refine, per_step)
    if key not in potentials._tables:
        if per_step:
            m_steps = potentials.n_grid * refine
            sig, q1 = (_cubic(v, 2 * refine) for v in (potentials.sigma, potentials.q1))
            X = _step_polynomials(pi / m_steps, sig[::2], sig[1::2], q1[::2], q1[1::2])
        else:
            X = _coefficients(potentials, refine, True)
            if pad := -X.shape[2] % BLOCK_STEPS:
                X = np.concatenate([X, np.zeros(X.shape[:2] + (pad,))], axis=2)
            for _ in range(BLOCK_STEPS.bit_length() - 1):
                X = _pair_steps(X)
        potentials._tables[key] = X
    return potentials._tables[key]


def _mul(A, B):
    """Truncated series product (A B)_k = sum_j A_j B_(k-j), k < len(B).

    A holds 2x2 matrices, B 2 x c matrices: (terms, rows, cols, steps, L).
    """
    n = len(B)
    out = A[0, :, 0, None] * B[:, None, 0] + A[0, :, 1, None] * B[:, None, 1]
    for j in range(1, min(len(A), n)):
        out[j:] += A[j, :, 0, None] * B[:n - j, None, 0] + A[j, :, 1, None] * B[:n - j, None, 1]
    return out


def _tree_product(T):
    """T_(m-1) ... T_0 by a pairwise product tree over the step axis."""
    while T.shape[3] > 1:
        m = T.shape[3]
        P = _mul(T[:, :, :, 1::2], T[:, :, :, 0:m - 1:2])
        if m % 2:
            P[:, :, :, -1:] = _mul(T[:, :, :, -1:], P[:, :, :, -1:])
        T = P
    return T


def _prefix_products(T):
    """All T_t ... T_0, t < m, in place by a log-depth (Hillis-Steele) scan."""
    d = 1
    while d < T.shape[3]:
        T[:, :, :, d:] = _mul(T[:, :, :, d:], T[:, :, :, :-d])
        d *= 2
    return T


def _refine(potentials, lam_max, refine=None, count=False):
    """``refine`` if given, else the fewest RK4 steps per grid interval, at least 1 and at most
    ``max(DEFAULT_REFINE, ceil(2000 / n_grid))``, whose error (h lam)^4 lam / 120 at |lam| =
    lam_max stays under the tolerance: STEP_TOL for a ``count``, and for values also D / (2 lam^2).
    D = max |v[i-1] - 2 v[i] + v[i+1]| / 8 over q1 and sigma is how far a line misreads them
    between nodes; on smooth potentials it moved eigenvalues by ~D / lam^2, so potentials that
    a line reads exactly (D = 0) keep the cap."""
    if refine is not None:
        return refine
    with np.errstate(all="ignore"):
        D = abs(np.diff([potentials.q1, potentials.sigma], 2)).max(initial=0.0) / 8
        tol = STEP_TOL if count else min(STEP_TOL, D / (2 * lam_max * lam_max))
        rk4 = np.power(pi * lam_max / (5 * potentials.n_grid), 4) * lam_max / 120   # at refine 5
        fewest = 5 * np.power(rk4 / tol, 0.25)      # the error scales as refine^-4
    return max(1, ceil(min(max(DEFAULT_REFINE, ceil(2000 / potentials.n_grid)), fewest)))


def _window_refine(potentials, n_max, omega0, refine=None):
    """``_refine`` for the indices |n| <= n_max, within |lam| <= n_max + |omega0| + 1/2."""
    return _refine(potentials, n_max + abs(omega0) + 0.5, refine)


def _chains(Y):
    """State (terms, 2, cols, m, L) -> chain values (m, chains, 2, L): S_k, then C."""
    cols = Y[:, :, 0] if Y.shape[2] == 1 else np.concatenate([Y[:, :, 0], Y[:1, :, 1]])
    return cols.transpose(2, 0, 1, 3)


@np.errstate(over="ignore", invalid="ignore")    # overflow shows as non-finite output
def integrate(potentials: PotentialPair, lams, n_derivs: int = 0,
              with_c: bool = False, refine: int = DEFAULT_REFINE,
              with_trace: bool = False) -> ShootingResult:
    """Fixed-step RK4 over the refined grid for a batch of spectral parameters.

    The potentials are read at refined nodes and midpoints by ``_cubic``, so the
    solution converges at fourth order in both their grid and the step (``refine``).

    The matrices T(lam + eps) of blocks of BLOCK_STEPS steps (module
    docstring), truncated after the eps^n_derivs term, are evaluated from the
    block table and the powers comb(d, k) lam^(d-k), gathered per order k from
    one broadcast power table, over chunks of at most ``CHUNK_ENTRIES`` blocks x
    lambdas.
    Each chunk is reduced by a pairwise product tree and applied to the state:
    S = 0, S^[1] = 1 (and C = 1, C^[1] = 0 for ``with_c``; C carries no
    chains) times all earlier blocks.  ``with_trace`` evaluates the per-step
    table instead and keeps every node, and its ``x_refined``, from the chunks'
    prefix products.  The tables (0.6 MB at 200 intervals x refine 5, 1.2 MB at
    refine 10) are kept for later calls.
    """
    for name, val, low in (("refine", refine, 1), ("n_derivs", n_derivs, 0)):
        if not isinstance(val, (int, np.integer)) or val < low:
            raise ValidationError(f"{name} must be an integer >= {low}, got {val!r}")
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    if not np.all(np.isfinite(lams)):
        raise NonFiniteInputError("spectral parameters must be finite")
    L = lams.size
    n_s = n_derivs + 1
    nch = n_s + (1 if with_c else 0)

    m_steps = potentials.n_grid * refine
    coef = _coefficients(potentials, refine, per_step=with_trace)
    # eps^k coefficient of (lam + eps)^d is comb(d, k) lam^(d-k): zero for k > d
    deg = np.arange(len(coef))
    lam_pow = lams ** deg[:, None]      # one broadcast power, gathered per order
    powers = [np.array([[comb(d, k)] for d in deg]) * lam_pow[np.maximum(deg - k, 0)]
              for k in range(n_s)]

    Y = np.zeros((n_s, 2, nch - n_s + 1, 1, L), dtype=complex)
    Y[0, 1, 0] = 1.0         # S(0) = 0, S^[1](0) = 1
    if with_c:
        Y[0, 0, 1] = 1.0     # C(0) = 1, C^[1](0) = 0
    trace = x_refined = None
    if with_trace:
        trace = np.empty((m_steps + 1, nch, 2, L), dtype=complex)
        trace[0] = _chains(Y)[0]
        x_refined = np.linspace(0.0, pi, 2 * m_steps + 1)[::2]

    chunk = max(1, CHUNK_ENTRIES // max(L, 1))
    for a in range(0, coef.shape[2], chunk):
        b = min(a + chunk, coef.shape[2])
        T = np.empty((n_s, 4, b - a, L), dtype=complex)
        # one (blocks, 17) @ (17, L) product per order and entry (steps and 5
        # for traces) keeps every BLAS call at 17 CHUNK_ENTRIES multiply-adds or fewer
        for k, P in enumerate(powers):
            for e in range(4):
                np.matmul(coef[:, e, a:b].T, P, out=T[k, e])
        T = T.reshape(n_s, 2, 2, b - a, L)
        T[0, 0, 0] += 1.0    # I after the sum, not rounded into it
        T[0, 1, 1] += 1.0
        if with_trace:
            states = _mul(_prefix_products(T), Y)
            trace[a + 1:b + 1] = _chains(states)
            Y = states[:, :, :, -1:]
        else:
            Y = _mul(_tree_product(T), Y)

    end = _chains(Y)[0]
    return ShootingResult(lams=lams, s=end[:n_s, 0], c=end[n_s, 0] if with_c else None,
                          trace=trace, x_refined=x_refined)


# ---------------------------------------------------------------------------
# root location

def _newton_batch(potentials, starts, refine, max_iter=NEWTON_MAX_ITER, ns=None):
    """Newton steps on a batch of starts; returns the iterates and a failure mask.

    With indices ``ns`` the starts are the slot centres n + omega0: an iterate
    that leaves its slot |lam - start| < 1/2 fails, and so does every start with
    |n'| <= |n|; those stop iterating at once.  Each step also integrates C: every
    iterate accepted with |S| < NEWTON_TOL is recorded on the potentials, by its
    exact bits and the refine, with its residue -C/S' for ``weyl_residues``.
    """
    starts = np.asarray(starts, dtype=complex)
    lam = starts.copy()
    active = np.ones(lam.shape, dtype=bool)
    failed = np.zeros(lam.shape, dtype=bool)
    record = potentials._tables.setdefault(("residues", refine), {})
    for _ in range(max_iter):
        res = integrate(potentials, lam[active], n_derivs=1, with_c=True, refine=refine)
        conv = np.abs(res.s[0]) < NEWTON_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(conv, 0.0, res.s[0] / res.s[1])
            record.update((z.tobytes(), m) for z, m in zip(res.lams[conv],
                                                          -res.c[conv] / res.s[1, conv]))
        lam[active] -= np.where(np.isfinite(step), step, 0.0)
        active[active] = ~conv
        if ns is not None:
            failed |= np.abs(lam - starts) >= 0.5
            failed |= np.abs(ns) <= np.abs(ns[failed]).max(initial=0)
            active &= ~failed
        if not active.any():
            break
    return lam, failed | active     # still-active entries did not converge


def circle_nodes(center: complex, radius: float, n_nodes: int) -> np.ndarray:
    """Trapezoid nodes center + radius exp(2 pi i k / N), k = 0..N-1."""
    return center + radius * np.exp(2j * pi * np.arange(n_nodes) / n_nodes)


@dataclass(frozen=True)
class CircleSample:
    """Delta (and C) on the N nodes of |lam - c| = r with ``count`` roots inside: at node
    angles theta, g = ln|Delta| + i (phase - count theta) is periodic, and expanding
    log(lam - lam_j) gives the centred sums sum_j (lam_j - c)^p = -p r^p g_(-p), aliased by
    the roots outside; a known one mu is deflated out of g by log(1 - (lam - c)/(mu - c)),
    analytic inside.  Node means of f (z - c) are trapezoid sums for (1/2 pi i) oint f dz."""

    zs: np.ndarray
    dz: np.ndarray
    delta: np.ndarray
    c: np.ndarray | None
    count: int
    phase: np.ndarray           # arg Delta, unwrapped from node to node

    def integrands(self, sums: int, laurent: int, outer=()) -> np.ndarray:
        """(sums + laurent, N) node values whose means are ``moments(sums, laurent, outer)``."""
        p, nu = np.arange(1, sums + 1)[:, None], np.arange(1, laurent + 1)[:, None]
        theta = 2 * pi * np.arange(self.zs.size) / self.zs.size
        g = np.log(np.abs(self.delta)) + 1j * (self.phase - self.count * theta) if sums else 0
        g = g - sum(np.log1p(self.dz / (self.zs - self.dz - mu)) for mu in outer)  # deflation
        return np.concatenate([self.count * self.zs ** p - p * self.zs ** (p - 1) * g * self.dz,
                               self.dz ** nu * (-self.c / self.delta if laurent else 0)])

    def moments(self, sums: int, laurent: int = 0, outer=()) -> np.ndarray:
        """Sums of lam^p inside, p = 1..sums (the centred sums, binomially shifted under the
        mean, the known roots ``outer`` deflated), then the coefficients of (lam - c)^-(nu+1)
        in -C/Delta, nu < laurent (need C)."""
        return self.integrands(sums, laurent, outer).mean(axis=1)


def _winding(delta):
    """arg Delta unwrapped node to node around the loop (N + 1 values), and its winding count."""
    phase = np.unwrap(np.angle(np.append(delta, delta[0])))
    return phase, int(round((phase[-1] - phase[0]) / (2 * pi)))


def sample_circle(potentials: PotentialPair, center: complex, radius: float,
                  sums: int = 0, laurent: int = 0, refine: int | None = None,
                  check_halving: bool = False) -> CircleSample:
    """Integrate Delta on |lam - center| = radius by nested doubling; count the roots inside.

    The count is the phase change of Delta around the loop, unwrapped node to node.
    A level is accepted when no arg Delta step exceeds ``PHASE_STEP_MAX``, its count
    is the level before's, and its requested ``moments(sums, laurent)`` moved by at
    most MOMENT_TOL times their integrand's largest node value.  The first level has
    no level before, so one call integrates the second's nodes, the first's the even
    ones; each later level integrates only its odd nodes.  ``check_halving`` also
    requires the count on half the radius.  The default refine is ``_refine``'s.
    """
    refine = _refine(potentials, abs(center) + radius, refine)
    vals = last = None
    for n_nodes in CIRCLE_NODES[1:]:
        zs = circle_nodes(center, radius, n_nodes)
        shot = integrate(potentials, zs if vals is None else zs[1::2],
                         with_c=laurent > 0, refine=refine)
        if not np.all(np.isfinite(shot.s[0])):
            raise WindingAmbiguousError(f"Delta is not finite on |lam-{center}|={radius}")
        new = np.vstack([shot.s[0], shot.c]) if laurent else shot.s[:1]
        if vals is None:
            vals, last = new, _winding(new[0, ::2])[1]
        else:
            vals = np.stack([vals, new], axis=2).reshape(len(new), -1)
        phase, count = _winding(vals[0])
        sample = CircleSample(zs=zs, dz=zs - center, delta=vals[0], c=vals[-1] if laurent else None,
                              count=count, phase=phase[:-1])
        f = sample.integrands(sums, laurent)
        moved = np.abs(f.mean(axis=1) - f[:, ::2].mean(axis=1)) <= MOMENT_TOL * abs(f).max(axis=1)
        resolved = np.abs(np.diff(phase)).max() <= PHASE_STEP_MAX
        if resolved and count == last and moved.all():
            break
        last = count
    else:
        raise WindingAmbiguousError(f"winding unresolved on |lam-{center}|={radius}")
    if check_halving and (half := sample_circle(potentials, center, radius / 2,
                                                refine=refine).count) != count:
        raise WindingAmbiguousError(f"winding {count} at radius {radius} vs {half} at half radius")
    return sample


def winding_number(potentials: PotentialPair, center: complex, radius: float,
                   refine: int | None = None) -> int:
    """Argument-principle winding of the characteristic function on a circle.  The default
    refine is ``_refine``'s for a count: the fewest steps that keep RK4 under STEP_TOL."""
    refine = _refine(potentials, abs(center) + radius, refine, count=True)
    return sample_circle(potentials, center, radius, refine=refine).count


def _poly_from_power_sums(ps):
    """Monic polynomial with given root power sums, via Newton's identities."""
    e = [1.0 + 0j]
    for k in range(1, len(ps) + 1):
        e.append(sum(((-1.0) ** (j - 1)) * e[k - j] * ps[j - 1] for j in range(1, k + 1)) / k)
    return np.array([((-1.0) ** k) * ek for k, ek in enumerate(e)], dtype=complex)


def _cluster_search(potentials, center, radius, refine, outer=()):
    """Locate all roots inside a disc, a multiple root repeated per multiplicity.

    One sample of the disc boundary gives the root count and power sums, with the
    known roots ``outer`` outside the disc deflated; Newton's identities turn them
    into a monic polynomial whose roots seed a Newton polish.  A polish that does
    not converge, or that converges outside the disc, raises RootNotConvergedError.
    Candidates that land within 1e-4 of each other are one multiple root: a
    small-circle sample (count checked under radius halving) gives its
    multiplicity and, from the first moment, its location, which stays accurate
    where Newton is only linear.
    """
    disc = sample_circle(potentials, center, radius, refine=refine)
    if disc.count == 0:
        return []
    cands = np.roots(_poly_from_power_sums(disc.moments(disc.count, outer=outer)))
    polished, failed = _newton_batch(potentials, cands, refine, max_iter=25)
    if failed.any() or np.any(np.abs(polished - center) >= radius):
        raise RootNotConvergedError(
            f"polished roots of |lam-{center:.6g}|={radius:.6g} did not converge inside it")

    scale = max(1.0, abs(center))
    roots: list[complex] = []
    for members in clusters(polished, 1e-4 * scale):
        cl = polished[members]
        if len(cl) == 1:
            roots.append(complex(cl[0]))
            continue
        cen = complex(np.mean(cl))
        spread = float(np.abs(cl - cen).max())
        r_loc = max(3.0 * spread, 1e-3 * scale)
        loc = sample_circle(potentials, cen, r_loc, sums=1, refine=refine, check_halving=True)
        roots.extend([complex(loc.moments(1)[0]) / loc.count] * loc.count)
    roots.sort(key=lambda z: (z.real, z.imag))
    return roots


def find_eigenvalues(potentials: PotentialPair, n_max: int, omega0: complex,
                     refine: int | None = None) -> SpectralDataSet:
    """Locate eigenvalues for 1 <= |n| <= n_max, with multiplicities.

    Newton from n + omega0 keeps the root of index n only inside its slot
    |lam - n - omega0| < 1/2.  With n_star the largest failed |n|, the roots of
    |n| <= n_star, which may be non-real or multiple, are searched inside the disc
    |lam - omega0| < n_star + 1/2.  The slots are pairwise disjoint and lie outside
    the disc, so no located root is counted twice, and their roots are deflated out
    of the disc's power sums.  The disc is accepted when its polished roots converge
    inside it and number 2 n_star with multiplicities; otherwise n_star grows, and
    beyond n_max RootNotConvergedError is raised.  M is left unset, but the Newton steps
    record it on the potentials for ``weyl_residues``.  Default refine: ``_window_refine``.
    """
    refine = _window_refine(potentials, n_max, omega0, refine)
    ns = np.array(zindex.window(n_max), dtype=int)
    lam, failed = _newton_batch(potentials, ns + omega0, refine, ns=ns)
    n_fail = int(np.abs(ns[failed]).max(initial=0))
    for n_star in range(n_fail, n_max + 1):
        try:
            low = _cluster_search(potentials, complex(omega0), n_star + 0.5, refine,
                                  lam[np.abs(ns) > n_star]) if n_star else []
        except (RootNotConvergedError, WindingAmbiguousError):
            continue
        if len(low) == 2 * n_star:
            break
    else:
        raise RootNotConvergedError(
            f"no disc |lam-{omega0:.6g}| < n + 1/2 with {n_fail} <= n <= {n_max} "
            f"holds 2n converged roots")
    entries = [SpectralEntry(n=n, lam=v) for n, v in zip(zindex.window(n_star), low)]
    entries += [SpectralEntry(n=int(n), lam=complex(v))
                for n, v in zip(ns, lam) if abs(n) > n_star]
    return SpectralDataSet.from_entries(entries, tail=None, omega0=omega0)


# ---------------------------------------------------------------------------
# residues and weight numbers

def group_radius(data: SpectralDataSet, g: Group) -> float:
    """min(CONTOUR_RADIUS_CAP, gap/2), the gap running from the group to the nearest eigenvalue
    the set resolves outside it: in its window and, with a tail, at |n| <= max_abs_index + 1."""
    gap = min((abs(g.lam - data.entry(n).lam) for n in data.resolved_indices()
               if n not in g.members), default=np.inf)
    if gap < 2e-8:
        raise PoleTooCloseError(f"cannot separate the group at {g.start} (gap {gap:.2e})")
    return min(CONTOUR_RADIUS_CAP, 0.5 * gap)


def weyl_residues(potentials: PotentialPair, eigenvalues: SpectralDataSet,
                  refine: int | None = None) -> SpectralDataSet:
    """Laurent coefficients of the Weyl function at the located eigenvalues.

    The Weyl function is -C(pi, lam)/Delta(lam).  Simple eigenvalues use the
    derivative formula -C/Delta', taken from the Newton step that accepted them
    on these potentials at this refine (``_newton_batch``), else integrated
    afresh; M values of the input set are ignored.  A multiplicity group uses
    trapezoid quadrature of (lam - lam_n)^nu M(lam) on a circle separating the
    group, whose root count must equal the group size.  Default refine: ``_window_refine``.
    """
    refine = _window_refine(potentials, eigenvalues.max_abs_index, eigenvalues.omega0, refine)
    record = potentials._tables.get(("residues", refine), {})
    Ms = {g.start: complex(record[k]) for g in eigenvalues.groups
          if g.size == 1 and (k := np.complex128(g.lam).tobytes()) in record}
    fresh = [g for g in eigenvalues.groups if g.size == 1 and g.start not in Ms]
    if fresh:
        res = integrate(potentials, [g.lam for g in fresh], n_derivs=1, with_c=True, refine=refine)
        Ms.update(zip((g.start for g in fresh), map(complex, -res.c / res.s[1])))

    for g in eigenvalues.groups:
        if g.size == 1:
            continue
        radius = group_radius(eigenvalues, g)
        sample = sample_circle(potentials, g.lam, radius, laurent=g.size, refine=refine)
        if sample.count != g.size:
            raise RootNotConvergedError(
                f"circle |lam-{g.lam:.6g}|={radius:.3g} holds {sample.count} roots, "
                f"the group at index {g.start} has {g.size}")
        Ms.update(zip(g.members, map(complex, sample.moments(0, g.size))))

    entries = [SpectralEntry(n=n, lam=eigenvalues.entries[n].lam, M=Ms[n])
               for n in eigenvalues.window_indices()]
    return SpectralDataSet.from_entries(entries, tail=eigenvalues.tail,
                                        omega0=eigenvalues.omega0)


def weight_numbers(potentials: PotentialPair, eigenvalues: SpectralDataSet,
                   refine: int | None = None) -> dict[int, complex]:
    """Generalized weight numbers by grid quadrature.

    For a group of size m at lam with chains S_0..S_(m-1),
    alpha_(g+nu) = int (2(lam - q1) S_(m-1) + S_(m-2)) S_nu dx
                 + int S_(m-1) S_(nu-1) dx,  with S_(-1) = 0.
    The groups of one size share one traced integration.  Default refine: ``_window_refine``.
    """
    refine = _window_refine(potentials, eigenvalues.max_abs_index, eigenvalues.omega0, refine)
    by_size: dict[int, list] = {}
    for g in eigenvalues.groups:
        by_size.setdefault(g.size, []).append(g)
    out: dict[int, complex] = {}
    for m, groups in by_size.items():
        lams = np.array([g.lam for g in groups])
        res = integrate(potentials, lams, n_derivs=m - 1, refine=refine, with_trace=True)
        q1r = _cubic(potentials.q1, refine)[:, None]
        S = res.trace[:, :, 0].transpose(1, 0, 2)      # (m, nodes+1, groups)
        lead = 2.0 * (lams - q1r) * S[m - 1] + (S[m - 2] if m >= 2 else 0.0)
        for nu in range(m):
            val = simpson(lead * S[nu], res.x_refined, axis=0)
            if nu >= 1:
                val = val + simpson(S[m - 1] * S[nu - 1], res.x_refined, axis=0)
            out.update((g.members[nu], complex(v)) for g, v in zip(groups, val))
    return out

