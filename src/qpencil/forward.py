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
"""

from __future__ import annotations

import csv as _csv
from dataclasses import dataclass
from math import pi

import numpy as np
from scipy.integrate import simpson

from . import zindex
from .errors import (
    NonFiniteInputError,
    PoleTooCloseError,
    RootNotConvergedError,
    ValidationError,
    WindingAmbiguousError,
)
from .model import DEFAULT_REFINE
from .spectral_data import SpectralDataSet, SpectralEntry

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
RESIDUE_NODES = 256
CONTOUR_RADIUS_CAP = 0.2
CHUNK_ENTRIES = 8192     # step matrices built at once, counted as steps x lambdas
POTENTIALS_HEADER = ["x", "re_q1", "im_q1", "re_sigma", "im_sigma"]


def write_csv(path, header: list[str], rows) -> None:
    """A header line, then rows of floats at 17 significant digits (bit-exact)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = _csv.writer(f)
        w.writerow(header)
        w.writerows([f"{v:.17g}" for v in row] for row in rows)


def read_csv(path, header: list[str]) -> list[list[float]]:
    """Float rows of a file written by ``write_csv``; ValidationError otherwise."""
    with open(path, newline="", encoding="utf-8") as f:
        r = _csv.reader(f)
        got = next(r, None)
        if got != header:
            raise ValidationError(f"unexpected CSV header: {got}")
        try:
            return [[float(row[k]) for k in range(len(header))] for row in r]
        except (IndexError, ValueError) as err:
            raise ValidationError(f"bad CSV row {r.line_num}: {err}") from None


@dataclass(frozen=True)
class PotentialPair:
    """Grid representation of (q1, sigma) on uniform nodes of [0, pi].

    ``sigma`` is the antiderivative of the zeroth-order potential with
    sigma(0) = 0; both arrays are interpreted as piecewise-linear functions
    of x.  Genuinely singular potentials (delta functions) are out of scope:
    sigma must be continuous, i.e. representable by its node values.
    """

    x: np.ndarray
    q1: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        q1 = np.asarray(self.q1, dtype=complex)
        sigma = np.asarray(self.sigma, dtype=complex)
        if not (len(x) == len(q1) == len(sigma)):
            raise ValidationError("grid and potential arrays must have equal length")
        if len(x) < 2 or abs(x[0]) > 1e-12 or abs(x[-1] - pi) > 1e-12:
            raise ValidationError("grid must span [0, pi]")
        steps = np.diff(x)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValidationError("grid must be uniform")
        if not (np.all(np.isfinite(q1)) and np.all(np.isfinite(sigma))):
            raise NonFiniteInputError("potential values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_grid(self) -> int:
        return len(self.x) - 1

    @staticmethod
    def zeros(n_grid: int = 200) -> "PotentialPair":
        x = np.linspace(0.0, pi, n_grid + 1)
        z = np.zeros(n_grid + 1, dtype=complex)
        return PotentialPair(x=x, q1=z, sigma=z.copy())

    @staticmethod
    def from_functions(q1_fun, sigma_fun, n_grid: int = 200) -> "PotentialPair":
        x = np.linspace(0.0, pi, n_grid + 1)
        q1 = np.asarray([q1_fun(t) for t in x], dtype=complex)
        sigma = np.asarray([sigma_fun(t) for t in x], dtype=complex)
        return PotentialPair(x=x, q1=q1, sigma=sigma)

    def omega0(self) -> complex:
        """Mean of q1 over the interval: (1/pi) integral of q1."""
        return complex(simpson(self.q1, x=self.x) / pi)

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
    x_refined: np.ndarray

    def wronskian_defect(self) -> np.ndarray:
        """max over nodes of |S C1 - S1 C + 1| (needs with_c and with_trace)."""
        if self.trace is None or self.c is None:
            raise ValidationError("wronskian check needs with_c and with_trace")
        S = self.trace[:, 0, 0]
        S1 = self.trace[:, 0, 1]
        C = self.trace[:, -1, 0]
        C1 = self.trace[:, -1, 1]
        return np.max(np.abs(S * C1 - S1 * C + 1.0), axis=0)


def _interp_complex(xg, vals, pts):
    return np.interp(pts, xg, vals.real) + 1j * np.interp(pts, xg, vals.imag)


def _g_series(lams, q1, sig, n):
    """The first min(n, 3) eps-coefficients of G(lam + eps), shape (., nodes, L).

    ``q1`` and ``sig`` are node columns; G has no terms beyond eps^2.
    """
    G = np.empty((min(n, 3), q1.shape[0], lams.size), dtype=complex)
    G[0] = lams * (2.0 * q1 - lams) - sig * sig
    if n > 1:
        G[1] = 2.0 * (q1 - lams)
    if n > 2:
        G[2] = -1.0
    return G


def _step_matrices(h, s_n, s_m, G_n, G_m, n):
    """RK4 transfer matrices T_i(lam + eps) to order eps^(n-1): (n, 2, 2, steps, L).

    A is traceless, so A_m^2 = w I with w = G_m + sigma_m^2, and the RK4 step
    of the module docstring expands to

        T = I + h/6 (A_a + 4 A_m + A_b) + h^2/6 (A_m A_a + A_b A_m)
              + w (h^2/6 I + h^3/12 (A_a + A_b) + h^4/24 A_b A_a)

    for A_a, A_m, A_b at the step's start, midpoint and end.  Only the G
    entries carry eps, so every entry is a node coefficient times G terms;
    the zero entries of A1 and A2 are never multiplied.
    """
    s_a, s_b = s_n[:-1], s_n[1:]
    G_a, G_b = G_n[:, :-1], G_n[:, 1:]
    ng, m, L = G_m.shape
    c1, c2, c3, c4 = h / 6.0, h ** 2 / 6.0, h ** 3 / 12.0, h ** 4 / 24.0
    s_sum, s_prod = s_a + s_b, s_a * s_b
    diag = c1 * (s_sum + 4.0 * s_m)
    T = np.zeros((n, 2, 2, m, L), dtype=complex)
    T[0, 0, 0] = 1.0 + diag + c2 * s_m * s_sum
    T[0, 0, 1] = h + c2 * (s_b - s_a)
    T[0, 1, 1] = 1.0 - diag + c2 * s_m * s_sum
    T[:ng, 0, 0] += c2 * (G_a + G_m)
    T[:ng, 1, 1] += c2 * (G_m + G_b)
    T[:ng, 1, 0] = ((c1 - c2 * s_m) * G_a + (c1 + c2 * s_m) * G_b
                    + (4.0 * c1 + c2 * (s_a - s_b)) * G_m)
    X = np.zeros((ng, 2, 2, m, L), dtype=complex)
    X[0, 0, 0] = c2 + c3 * s_sum + c4 * s_prod
    X[0, 0, 1] = 2.0 * c3 + c4 * (s_b - s_a)
    X[0, 1, 1] = c2 - c3 * s_sum + c4 * s_prod
    X[:, 0, 0] += c4 * G_a
    X[:, 1, 1] += c4 * G_b
    X[:, 1, 0] = (c3 - c4 * s_b) * G_a + (c3 + c4 * s_a) * G_b
    w = G_m.copy()
    w[0] += s_m * s_m
    for j in range(min(ng, n)):          # T += w X, truncated after n terms
        k = min(ng, n - j)
        T[j:j + k] += w[j, None, None] * X[:k]
    return T


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


def _chains(Y):
    """State (terms, 2, cols, m, L) -> chain values (m, chains, 2, L): S_k, then C."""
    cols = Y[:, :, 0] if Y.shape[2] == 1 else np.concatenate([Y[:, :, 0], Y[:1, :, 1]])
    return cols.transpose(2, 0, 1, 3)


def integrate(potentials: PotentialPair, lams, n_derivs: int = 0,
              with_c: bool = False, refine: int = DEFAULT_REFINE,
              with_trace: bool = False) -> ShootingResult:
    """Fixed-step RK4 over the refined grid for a batch of spectral parameters.

    The potentials are sampled at refined nodes and midpoints of their
    piecewise-linear interpolants, so step halving (larger ``refine``)
    converges at fourth order to the piecewise-linear problem.

    The step matrices T_i(lam + eps) (module docstring), truncated after the
    eps^n_derivs term, are built vectorised over chunks of at most
    ``CHUNK_ENTRIES`` steps x lambdas.  Each chunk is reduced by a pairwise
    product tree and applied to the state, the product of all earlier steps
    applied to the initial values S = 0, S^[1] = 1 (and C = 1, C^[1] = 0 for
    ``with_c``; C carries no chains).  ``with_trace`` keeps the state at every
    node from the prefix products of each chunk.
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
    xr = np.linspace(0.0, pi, m_steps + 1)
    h = pi / m_steps
    xm = xr[:-1] + 0.5 * h
    xg = potentials.x
    sig_n = _interp_complex(xg, potentials.sigma, xr)[:, None]
    q1_n = _interp_complex(xg, potentials.q1, xr)[:, None]
    sig_m = _interp_complex(xg, potentials.sigma, xm)[:, None]
    q1_m = _interp_complex(xg, potentials.q1, xm)[:, None]

    Y = np.zeros((n_s, 2, nch - n_s + 1, 1, L), dtype=complex)
    Y[0, 1, 0] = 1.0         # S(0) = 0, S^[1](0) = 1
    if with_c:
        Y[0, 0, 1] = 1.0     # C(0) = 1, C^[1](0) = 0
    trace = None
    if with_trace:
        trace = np.empty((m_steps + 1, nch, 2, L), dtype=complex)
        trace[0] = _chains(Y)[0]

    chunk = max(1, CHUNK_ENTRIES // max(L, 1))
    for a in range(0, m_steps, chunk):
        b = min(a + chunk, m_steps)
        T = _step_matrices(h, sig_n[a:b + 1], sig_m[a:b],
                           _g_series(lams, q1_n[a:b + 1], sig_n[a:b + 1], n_s),
                           _g_series(lams, q1_m[a:b], sig_m[a:b], n_s), n_s)
        if with_trace:
            states = _mul(_prefix_products(T), Y)
            trace[a + 1:b + 1] = _chains(states)
            Y = states[:, :, :, -1:]
        else:
            Y = _mul(_tree_product(T), Y)

    end = _chains(Y)[0]
    return ShootingResult(lams=lams, s=end[:n_s, 0], c=end[n_s, 0] if with_c else None,
                          trace=trace, x_refined=xr)


# ---------------------------------------------------------------------------
# root location

def _newton_batch(potentials, starts, refine, max_iter=NEWTON_MAX_ITER, ns=None):
    """Newton steps on a batch of starts; returns the iterates and a failure mask.

    With indices ``ns`` the starts are the slot centres n + omega0: an iterate
    that leaves its slot |lam - start| < 1/2 fails, and so does every start with
    |n'| <= |n|; those stop iterating at once.
    """
    starts = np.asarray(starts, dtype=complex)
    lam = starts.copy()
    active = np.ones(lam.shape, dtype=bool)
    failed = np.zeros(lam.shape, dtype=bool)
    for _ in range(max_iter):
        res = integrate(potentials, lam[active], n_derivs=1, refine=refine)
        conv = np.abs(res.s[0]) < NEWTON_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(conv, 0.0, res.s[0] / res.s[1])
        lam[active] -= np.where(np.isfinite(step), step, 0.0)
        active[active] = ~conv
        if ns is not None:
            failed |= np.abs(lam - starts) >= 0.5
            failed |= np.abs(ns) <= np.abs(ns[failed]).max(initial=0)
            active &= ~failed
        if not active.any():
            break
    return lam, failed | active     # still-active entries did not converge


def circle_nodes(center: complex, radius: float, n_nodes: int = RESIDUE_NODES) -> np.ndarray:
    """Trapezoid nodes center + radius exp(2 pi i k / N), k = 0..N-1."""
    return center + radius * np.exp(2j * pi * np.arange(n_nodes) / n_nodes)


@dataclass(frozen=True)
class CircleSample:
    """One integrator batch on a circle, with the root count of Delta inside."""

    zs: np.ndarray
    dz: np.ndarray
    shot: ShootingResult
    count: int

    def power_sums(self, p_max: int) -> list:
        """Sums of lam^p over the roots inside, p = 1..p_max (needs n_derivs >= 1)."""
        logd = self.shot.s[1] / self.shot.s[0]
        return [np.mean(self.zs ** p * logd * self.dz) for p in range(1, p_max + 1)]

    def laurent(self, m: int) -> list[complex]:
        """Coefficients of (lam - center)^-(nu+1) in -C/Delta, nu < m (needs with_c)."""
        mvals = -self.shot.c / self.shot.s[0]
        return [complex(np.mean(self.dz ** (nu + 1) * mvals)) for nu in range(m)]


def sample_circle(potentials: PotentialPair, center: complex, radius: float, n_derivs: int = 0,
                  with_c: bool = False, refine: int = DEFAULT_REFINE,
                  check_halving: bool = False) -> CircleSample:
    """Integrate on the nodes of |lam - center| = radius and count the roots inside.

    The count is the phase change of Delta around the closed loop if that lies
    within 0.15 of an integer; otherwise the circle is sampled once more at 4x
    the nodes.  ``check_halving`` also requires the count on half the radius.
    Node means of f (z - center) are trapezoid sums for (1/2 pi i) oint f dz.
    """
    for n_nodes in (RESIDUE_NODES, 4 * RESIDUE_NODES):
        zs = circle_nodes(center, radius, n_nodes)
        shot = integrate(potentials, zs, n_derivs=n_derivs, with_c=with_c, refine=refine)
        phase = np.unwrap(np.angle(np.append(shot.s[0], shot.s[0, 0])))
        w = (phase[-1] - phase[0]) / (2 * pi)
        if abs(w - round(w)) <= 0.15:
            break
    else:
        raise WindingAmbiguousError(f"winding unresolved on |lam-{center}|={radius}")
    count = int(round(w))
    if check_halving:
        w_half = sample_circle(potentials, center, radius / 2, refine=refine).count
        if w_half != count:
            raise WindingAmbiguousError(
                f"winding {count} at radius {radius} vs {w_half} at half radius")
    return CircleSample(zs=zs, dz=zs - center, shot=shot, count=count)


def winding_number(potentials: PotentialPair, center: complex, radius: float,
                   refine: int = DEFAULT_REFINE) -> int:
    """Argument-principle winding of the characteristic function on a circle."""
    return sample_circle(potentials, center, radius, refine=refine).count


def _poly_from_power_sums(ps):
    """Monic polynomial with given root power sums, via Newton's identities."""
    m = len(ps)
    e = [1.0 + 0j]
    for k in range(1, m + 1):
        acc = 0.0 + 0j
        for j in range(1, k + 1):
            acc += ((-1.0) ** (j - 1)) * e[k - j] * ps[j - 1]
        e.append(acc / k)
    return np.array([((-1.0) ** k) * e[k] for k in range(m + 1)], dtype=complex)


def _cluster_search(potentials, center, radius, refine):
    """Locate all roots inside a disc, a multiple root repeated per multiplicity.

    One sample of the disc boundary gives the root count and power sums;
    Newton's identities turn them into a monic polynomial whose roots seed a
    Newton polish.  A polish that does not converge, or that converges
    outside the disc, raises RootNotConvergedError.  Candidates that land
    within 1e-4 of each other are one multiple root: a small-circle sample
    (count checked under radius halving) gives its multiplicity and, from the
    first moment, its location, which stays accurate where Newton is only
    linear.
    """
    disc = sample_circle(potentials, center, radius, n_derivs=1, refine=refine)
    if disc.count == 0:
        return []
    cands = np.roots(_poly_from_power_sums(disc.power_sums(disc.count)))
    polished, failed = _newton_batch(potentials, cands, refine, max_iter=25)
    if failed.any() or np.any(np.abs(polished - center) >= radius):
        raise RootNotConvergedError(
            f"polished roots of |lam-{center:.6g}|={radius:.6g} did not converge inside it")

    scale = max(1.0, abs(center))
    clusters: list[list[complex]] = []
    for z in polished:
        for cl in clusters:
            if abs(z - np.mean(cl)) < 1e-4 * scale:
                cl.append(z)
                break
        else:
            clusters.append([complex(z)])
    roots: list[complex] = []
    for cl in clusters:
        if len(cl) == 1:
            roots.append(complex(cl[0]))
            continue
        cen = complex(np.mean(cl))
        spread = max(abs(z - cen) for z in cl)
        r_loc = max(3.0 * spread, 1e-3 * scale)
        loc = sample_circle(potentials, cen, r_loc, n_derivs=1, refine=refine,
                            check_halving=True)
        roots.extend([complex(loc.power_sums(1)[0]) / loc.count] * loc.count)
    roots.sort(key=lambda z: (z.real, z.imag))
    return roots


def find_eigenvalues(potentials: PotentialPair, n_max: int, omega0: complex,
                     refine: int = DEFAULT_REFINE) -> SpectralDataSet:
    """Locate eigenvalues for 1 <= |n| <= n_max, with multiplicities.

    Newton from n + omega0 keeps the root of index n only inside its slot
    |lam - n - omega0| < 1/2.  With n_star the largest failed |n|, the roots
    of |n| <= n_star, which may be non-real or multiple, are searched inside
    the disc |lam - omega0| < n_star + 1/2.  The slots are pairwise disjoint
    and lie outside the disc, so no located root is counted twice.  The disc
    is accepted when its polished roots converge inside it and number
    2 n_star with multiplicities; otherwise n_star grows, and beyond n_max
    RootNotConvergedError is raised.  Residue coefficients are left unset
    (see ``weyl_residues``).
    """
    ns = np.array(zindex.window(n_max), dtype=int)
    lam, failed = _newton_batch(potentials, ns + omega0, refine, ns=ns)
    n_fail = int(np.abs(ns[failed]).max(initial=0))
    for n_star in range(n_fail, n_max + 1):
        try:
            low = _cluster_search(potentials, complex(omega0), n_star + 0.5,
                                  refine) if n_star else []
        except (RootNotConvergedError, WindingAmbiguousError):
            continue
        if len(low) == 2 * n_star:
            break
    else:
        raise RootNotConvergedError(
            f"no disc |lam-{omega0:.6g}| < n + 1/2 with {n_fail} <= n <= {n_max} "
            f"holds 2n converged roots", index=n_fail)
    entries = [SpectralEntry(n=n, lam=v) for n, v in zip(zindex.window(n_star), low)]
    entries += [SpectralEntry(n=int(n), lam=complex(v))
                for n, v in zip(ns, lam) if abs(n) > n_star]
    return SpectralDataSet.from_entries(entries, tail=None, omega0=omega0)


# ---------------------------------------------------------------------------
# residues and weight numbers

def weyl_residues(potentials: PotentialPair, eigenvalues: SpectralDataSet,
                  refine: int = DEFAULT_REFINE) -> SpectralDataSet:
    """Laurent coefficients of the Weyl function at the located eigenvalues.

    The Weyl function is -C(pi, lam)/Delta(lam).  Simple eigenvalues use the
    derivative formula -C/Delta'; a multiplicity group uses trapezoid
    quadrature of (lam - lam_n)^nu M(lam) on a circle separating the group,
    whose root count must equal the group size.
    """
    Ms: dict[int, complex] = {}
    simple = [g for g in eigenvalues.groups if g.size == 1]
    if simple:
        lams = np.array([g.lam for g in simple])
        res = integrate(potentials, lams, n_derivs=1, with_c=True, refine=refine)
        vals = -res.c / res.s[1]
        for g, v in zip(simple, vals):
            Ms[g.start] = complex(v)

    for g in eigenvalues.groups:
        if g.size == 1:
            continue
        dists = [abs(g.lam - og.lam) for og in eigenvalues.groups if og is not g]
        gap = min(dists) if dists else 2 * CONTOUR_RADIUS_CAP
        radius = min(CONTOUR_RADIUS_CAP, 0.5 * gap)
        if radius < 1e-8:
            raise PoleTooCloseError(
                f"cannot separate the group at {g.start} (gap {gap:.2e})")
        sample = sample_circle(potentials, g.lam, radius, with_c=True, refine=refine)
        if sample.count != g.size:
            raise RootNotConvergedError(
                f"circle |lam-{g.lam:.6g}|={radius:.3g} holds {sample.count} roots, "
                f"the group at index {g.start} has {g.size}", index=g.start, last=g.lam)
        Ms.update(zip(g.members, sample.laurent(g.size)))

    entries = [SpectralEntry(n=n, lam=eigenvalues.entries[n].lam, M=Ms[n])
               for n in eigenvalues.window_indices()]
    return SpectralDataSet.from_entries(entries, tail=eigenvalues.tail,
                                        omega0=eigenvalues.omega0)


def weight_numbers(potentials: PotentialPair, eigenvalues: SpectralDataSet,
                   refine: int = DEFAULT_REFINE) -> dict[int, complex]:
    """Generalized weight numbers by grid quadrature.

    For a group of size m at lam with chains S_0..S_(m-1),
    alpha_(g+nu) = int (2(lam - q1) S_(m-1) + S_(m-2)) S_nu dx
                 + int S_(m-1) S_(nu-1) dx,  with S_(-1) = 0.
    """
    out: dict[int, complex] = {}
    for g in eigenvalues.groups:
        m = g.size
        res = integrate(potentials, np.array([g.lam]), n_derivs=m - 1,
                        refine=refine, with_trace=True)
        xr = res.x_refined
        q1r = _interp_complex(potentials.x, potentials.q1, xr)
        S = res.trace[:, :, 0, 0].T      # (m, nodes+1)
        Sm1 = S[m - 1]
        Sm2 = S[m - 2] if m >= 2 else 0.0
        lead = 2.0 * (g.lam - q1r) * Sm1 + Sm2
        for nu, member in enumerate(g.members):
            val = simpson(lead * S[nu], x=xr)
            if nu >= 1:
                val = val + simpson(Sm1 * S[nu - 1], x=xr)
            out[member] = complex(val)
    return out


def coefficients_from_weights(alphas: list[complex]) -> list[complex]:
    """Solve the triangular duality relation of one group for the M's."""
    m = len(alphas)
    Ms: list[complex | None] = [None] * m
    for nu in range(m):
        acc = 0.0 + 0j
        for j in range(nu):
            acc += alphas[nu - j] * Ms[m - 1 - j]
        rhs = (-1.0 if nu == 0 else 0.0) - acc
        Ms[m - 1 - nu] = rhs / alphas[0]
    return [complex(v) for v in Ms]


def weights_from_coefficients(Ms: list[complex]) -> list[complex]:
    """Inverse of ``coefficients_from_weights``."""
    m = len(Ms)
    alphas: list[complex | None] = [None] * m
    alphas[0] = -1.0 / Ms[m - 1]
    for nu in range(1, m):
        acc = 0.0 + 0j
        for j in range(1, nu + 1):
            acc += alphas[nu - j] * Ms[m - 1 - j]
        alphas[nu] = -acc / Ms[m - 1]
    return [complex(v) for v in alphas]
