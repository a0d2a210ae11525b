"""Direct spectral problem: shooting, root location, residues, weight numbers.

The pencil equation is integrated as a first-order system in the
quasi-derivative variables (y, y1), y1 = y' - sigma y,

    y'  = y1 + sigma y,
    y1' = -sigma y1 + (2 lam q1 - lam^2 - sigma^2) y,

which only ever samples sigma (the antiderivative of the rough potential) and
never differentiates it.  Parameter derivatives of the Dirichlet solution are
carried along as variational chains: the normalized chain S_k =
(1/k!) d^k S / d lam^k satisfies the same system with source terms
(2 q1 - 2 lam) S_(k-1) - S_(k-2).
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
from .spectral_data import SpectralDataSet, SpectralEntry

DEFAULT_REFINE = 10
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
RESIDUE_NODES = 256
CONTOUR_RADIUS_CAP = 0.2


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
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = _csv.writer(f)
            w.writerow(["x", "re_q1", "im_q1", "re_sigma", "im_sigma"])
            for xi, q, s in zip(self.x, self.q1, self.sigma):
                w.writerow([f"{xi:.17g}", f"{q.real:.17g}", f"{q.imag:.17g}",
                            f"{s.real:.17g}", f"{s.imag:.17g}"])

    @staticmethod
    def from_csv(path) -> "PotentialPair":
        xs, q1s, sigmas = [], [], []
        with open(path, newline="", encoding="utf-8") as f:
            r = _csv.reader(f)
            header = next(r)
            if header != ["x", "re_q1", "im_q1", "re_sigma", "im_sigma"]:
                raise ValidationError(f"unexpected potentials CSV header: {header}")
            for row in r:
                try:
                    xs.append(float(row[0]))
                    q1s.append(complex(float(row[1]), float(row[2])))
                    sigmas.append(complex(float(row[3]), float(row[4])))
                except (IndexError, ValueError) as err:
                    raise ValidationError(
                        f"bad potentials CSV row {r.line_num}: {err}") from None
        return PotentialPair(x=np.array(xs), q1=np.array(q1s), sigma=np.array(sigmas))


@dataclass(frozen=True)
class ShootingResult:
    """Endpoint values (and optional trace) of the integrated chains."""

    lams: np.ndarray            # (L,)
    s: np.ndarray               # (n_derivs+1, L): S_k(pi)
    s_quasi: np.ndarray         # (n_derivs+1, L)
    c: np.ndarray | None        # (L,)
    c_quasi: np.ndarray | None
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


def integrate(potentials: PotentialPair, lams, n_derivs: int = 0,
              with_c: bool = False, refine: int = DEFAULT_REFINE,
              with_trace: bool = False) -> ShootingResult:
    """Fixed-step RK4 over the refined grid for a batch of spectral parameters.

    Coefficients are sampled at refined nodes and midpoints from the
    piecewise-linear potentials, so step halving (larger ``refine``) converges
    at fourth order to the piecewise-linear problem.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    if not np.all(np.isfinite(lams)):
        raise NonFiniteInputError("spectral parameters must be finite")
    L = lams.size
    n_s = n_derivs + 1
    nch = n_s + (1 if with_c else 0)

    m_steps = potentials.n_grid * refine
    xr = np.linspace(0.0, pi, m_steps + 1)
    h = pi / m_steps
    xg = potentials.x
    sig_n = _interp_complex(xg, potentials.sigma, xr)
    q1_n = _interp_complex(xg, potentials.q1, xr)
    xm = xr[:-1] + 0.5 * h
    sig_m = _interp_complex(xg, potentials.sigma, xm)
    q1_m = _interp_complex(xg, potentials.q1, xm)

    Y = np.zeros((nch, 2, L), dtype=complex)
    Y[0, 1] = 1.0            # S(0) = 0, S^[1](0) = 1
    if with_c:
        Y[n_s, 0] = 1.0      # C(0) = 1, C^[1](0) = 0

    lam2 = lams * lams

    def rhs(Yc, sig, q1v):
        g = 2.0 * lams * q1v - lam2 - sig * sig
        dY = np.empty_like(Yc)
        dY[:, 0] = Yc[:, 1] + sig * Yc[:, 0]
        dY[:, 1] = -sig * Yc[:, 1] + g * Yc[:, 0]
        if n_s > 1:
            g1 = 2.0 * q1v - 2.0 * lams
            dY[1:n_s, 1] += g1 * Yc[0:n_s - 1, 0]
            if n_s > 2:
                dY[2:n_s, 1] -= Yc[0:n_s - 2, 0]
        return dY

    trace = None
    if with_trace:
        trace = np.empty((m_steps + 1, nch, 2, L), dtype=complex)
        trace[0] = Y

    for i in range(m_steps):
        k1 = rhs(Y, sig_n[i], q1_n[i])
        k2 = rhs(Y + 0.5 * h * k1, sig_m[i], q1_m[i])
        k3 = rhs(Y + 0.5 * h * k2, sig_m[i], q1_m[i])
        k4 = rhs(Y + h * k3, sig_n[i + 1], q1_n[i + 1])
        Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if with_trace:
            trace[i + 1] = Y

    return ShootingResult(
        lams=lams, s=Y[:n_s, 0], s_quasi=Y[:n_s, 1],
        c=Y[n_s, 0] if with_c else None,
        c_quasi=Y[n_s, 1] if with_c else None,
        trace=trace, x_refined=xr)


def char_delta(potentials: PotentialPair, lam, refine: int = DEFAULT_REFINE):
    """Characteristic function: the Dirichlet solution at the right endpoint."""
    res = integrate(potentials, lam, refine=refine)
    return complex(res.s[0, 0]) if np.ndim(lam) == 0 else res.s[0]


# ---------------------------------------------------------------------------
# root location

def _newton_batch(potentials, starts, refine, tol=NEWTON_TOL,
                  max_iter=NEWTON_MAX_ITER):
    lam = np.asarray(starts, dtype=complex).copy()
    active = np.ones(lam.shape, dtype=bool)
    for _ in range(max_iter):
        res = integrate(potentials, lam[active], n_derivs=1, refine=refine)
        delta = res.s[0]
        ddelta = res.s[1]
        conv = np.abs(delta) < tol
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(conv, 0.0, delta / ddelta)
        step = np.where(np.isfinite(step), step, 0.0)
        lam[active] = lam[active] - step
        sub = active.copy()
        sub[active] = ~conv
        active = sub
        if not active.any():
            return lam, np.zeros(lam.shape, dtype=bool)
    return lam, active     # still-active entries did not converge


def _muller(potentials, z0, refine, tol=NEWTON_TOL, max_iter=60):
    """Derivative-free fallback; three-point quadratic interpolation."""
    h = 1e-3 * max(1.0, abs(z0))
    zs = [z0 - h, z0, z0 + h]
    fs = [complex(char_delta(potentials, z, refine=refine)) for z in zs]
    for _ in range(max_iter):
        z0_, z1, z2 = zs
        f0, f1, f2 = fs
        q = (z2 - z1) / (z1 - z0_)
        a = q * f2 - q * (1 + q) * f1 + q * q * f0
        b = (2 * q + 1) * f2 - (1 + q) ** 2 * f1 + q * q * f0
        c = (1 + q) * f2
        disc = np.sqrt(complex(b * b - 4 * a * c))
        den = b + disc if abs(b + disc) > abs(b - disc) else b - disc
        if den == 0:
            break
        z3 = z2 - (z2 - z1) * 2 * c / den
        f3 = complex(char_delta(potentials, z3, refine=refine))
        zs = [z1, z2, z3]
        fs = [f1, f2, f3]
        if abs(f3) < tol:
            return z3
    raise RootNotConvergedError("muller fallback failed", last=zs[-1])


def winding_number(potentials: PotentialPair, center: complex, radius: float,
                   n_nodes: int = RESIDUE_NODES, refine: int = DEFAULT_REFINE,
                   check_halving: bool = False) -> int:
    """Argument-principle winding of the characteristic function on a circle."""
    def count(r, nn):
        zs = center + r * np.exp(2j * pi * np.arange(nn + 1) / nn)
        vals = integrate(potentials, zs, refine=refine).s[0]
        phase = np.unwrap(np.angle(vals))
        w = (phase[-1] - phase[0]) / (2 * pi)
        if abs(w - round(w)) > 0.15:
            return None
        return int(round(w))

    w = count(radius, n_nodes)
    if w is None:
        w = count(radius, 4 * n_nodes)
    if w is None:
        raise WindingAmbiguousError(f"winding unresolved on |lam-{center}|={radius}")
    if check_halving:
        w_half = count(radius / 2, n_nodes)
        if w_half is None:
            w_half = count(radius / 2, 4 * n_nodes)
        if w_half != w:
            raise WindingAmbiguousError(
                f"winding {w} at radius {radius} vs {w_half} at half radius")
    return w


def _contour_moments(potentials, center, radius, p_max, n_nodes, refine):
    zs = center + radius * np.exp(2j * pi * np.arange(n_nodes) / n_nodes)
    res = integrate(potentials, zs, n_derivs=1, refine=refine)
    logd = res.s[1] / res.s[0]
    return [np.mean(zs ** p * logd * (zs - center)) for p in range(p_max + 1)]


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
    """Locate all roots (with multiplicity) inside a disc.

    Contour moments of Delta'/Delta give the root power sums; Newton's
    identities turn them into a monic polynomial whose roots seed a Newton
    polish.  Candidates that land within 1e-4 of each other are treated as
    one multiple root: its multiplicity comes from a small-circle winding
    count (checked under radius halving) and its location from the local
    first moment, which stays accurate where Newton is only linear.
    """
    s = _contour_moments(potentials, center, radius, 0, RESIDUE_NODES, refine)
    m = int(round(s[0].real))
    if abs(s[0] - m) > 0.1:
        s = _contour_moments(potentials, center, radius, 0, 4 * RESIDUE_NODES, refine)
        m = int(round(s[0].real))
        if abs(s[0] - m) > 0.1:
            raise WindingAmbiguousError(f"root count unresolved inside |lam-{center}|={radius}")
    if m == 0:
        return []
    ps = _contour_moments(potentials, center, radius, m, RESIDUE_NODES, refine)[1:]
    coeffs = _poly_from_power_sums(ps)
    cands = np.roots(coeffs)
    polished, _ = _newton_batch(potentials, cands, refine, max_iter=25)

    scale = max(1.0, abs(center))
    clusters: list[list[complex]] = []
    for z in polished:
        for cl in clusters:
            if abs(z - np.mean(cl)) < 1e-4 * scale:
                cl.append(z)
                break
        else:
            clusters.append([complex(z)])
    roots: list[tuple[complex, int]] = []
    for cl in clusters:
        if len(cl) == 1:
            roots.append((complex(cl[0]), 1))
            continue
        cen = complex(np.mean(cl))
        spread = max(abs(z - cen) for z in cl)
        r_loc = max(3.0 * spread, 1e-3 * scale)
        mult = winding_number(potentials, cen, r_loc, refine=refine, check_halving=True)
        loc = _contour_moments(potentials, cen, r_loc, 1, RESIDUE_NODES, refine)
        roots.append((complex(loc[1] / mult), mult))
    roots.sort(key=lambda t: (t[0].real, t[0].imag))
    return roots


def find_eigenvalues(potentials: PotentialPair, n_max: int, omega0: complex,
                     cluster: tuple[complex, float, int] | None = None,
                     refine: int = DEFAULT_REFINE) -> SpectralDataSet:
    """Locate eigenvalues for 1 <= |n| <= n_max, with multiplicities.

    Tail roots start Newton at n + omega0.  Low-index roots that may be
    non-real or multiple are searched inside the caller-supplied disc
    ``cluster = (center, radius, n_star)``; no default search region is
    guessed.  Residue coefficients are left unset (see ``weyl_residues``).
    """
    n_star = 0
    entries: list[SpectralEntry] = []
    if cluster is not None:
        center, radius, n_star = cluster
        found = _cluster_search(potentials, complex(center), float(radius), refine)
        slots = zindex.window(n_star)
        total = sum(mult for _, mult in found)
        if total != len(slots):
            raise RootNotConvergedError(
                f"found {total} roots inside the cluster disc, expected {len(slots)}")
        flat: list[complex] = []
        for lam, mult in found:
            flat.extend([lam] * mult)
        entries.extend(SpectralEntry(n=s, lam=v) for s, v in zip(slots, flat))

    tail_ns = [n for n in zindex.window(n_max) if abs(n) > n_star]
    if tail_ns:
        starts = [n + omega0 for n in tail_ns]
        lam, failed = _newton_batch(potentials, starts, refine)
        for k, n in enumerate(tail_ns):
            val = lam[k]
            if failed[k]:
                try:
                    val = _muller(potentials, complex(starts[k]), refine)
                except RootNotConvergedError as err:
                    raise RootNotConvergedError(
                        f"root search failed at index {n}", index=n,
                        last=err.last) from None
            entries.append(SpectralEntry(n=n, lam=complex(val)))
    return SpectralDataSet.from_entries(entries, tail=None, omega0=omega0)


# ---------------------------------------------------------------------------
# residues and weight numbers

def weyl_residues(potentials: PotentialPair, eigenvalues: SpectralDataSet,
                  refine: int = DEFAULT_REFINE) -> SpectralDataSet:
    """Laurent coefficients of the Weyl function at the located eigenvalues.

    The Weyl function is -C(pi, lam)/Delta(lam).  Simple eigenvalues use the
    derivative formula -C/Delta'; a multiplicity group uses trapezoid
    quadrature of (lam - lam_n)^nu M(lam) on a circle separating the group
    (spectrally accurate on circles).
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
        zs = g.lam + radius * np.exp(2j * pi * np.arange(RESIDUE_NODES) / RESIDUE_NODES)
        res = integrate(potentials, zs, with_c=True, refine=refine)
        mvals = -res.c / res.s[0]
        for nu, member in enumerate(g.members):
            Ms[member] = complex(np.mean((zs - g.lam) ** (nu + 1) * mvals))

    entries = [SpectralEntry(n=n, lam=eigenvalues.entries[n].lam, M=Ms[n])
               for n in eigenvalues.window_indices()]
    return SpectralDataSet.from_entries(entries, tail=eigenvalues.tail,
                                        omega0=eigenvalues.omega0)


def weight_numbers(potentials: PotentialPair, eigenvalues: SpectralDataSet,
                   refine: int = DEFAULT_REFINE) -> dict[int, complex]:
    """Generalized weight numbers by grid quadrature.

    For a group of size m at lam with chains S_0..S_(m-1),
    alpha_(g+nu) = int (2(lam - q1) S_(m-1) - S_(m-2)) S_nu dx
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
        lead = 2.0 * (g.lam - q1r) * Sm1 - Sm2
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
