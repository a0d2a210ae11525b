"""Background (model) problem: closed-form spectral quantities.

The reference problem with zero potentials has the Dirichlet solution
``S(x, lam) = sin(lam x)/lam`` (entire in lam), eigenvalues at the nonzero
integers and residue coefficients ``-n/pi``.  Everything the reconstruction
needs from the background reduces to

* normalized parameter-derivative chains of S and of S' = dS/dx,
* the divided-difference kernel
  ``D(x, lam, mu) = (S(x,lam) S'(x,mu) - S'(x,lam) S(x,mu)) / (lam - mu)``
  together with its normalized mixed (lam, mu)-derivatives, and
* the x-derivative of D, which is ``(lam + mu - 2 q1(x)) S(x,lam) S(x,mu)``.

A numeric background delegates the chains to the shooting integrator.  Both
backgrounds share one kernel algebra (``d_table``, ``dx_table`` and, for
order 0 against many columns at once, ``kernel_row``) and differ only in
their chains and in the coalescent branch used when lam and mu are too close
for the quotient form.
"""

from __future__ import annotations

from math import comb, factorial, pi
from typing import TYPE_CHECKING

import numpy as np
from scipy.integrate import cumulative_simpson

from . import zindex
from .errors import GridMismatchError, OrderTooHighError

if TYPE_CHECKING:
    from .forward import PotentialPair
    from .spectral_data import SpectralDataSet

# Highest supported derivative order (covers eigenvalue multiplicities up to 3).
P_MAX = 4

# Separation |lam - mu| below which the divided difference switches to the
# background's coalescent branch.  The quotient form loses roughly
# |lam-mu|^-(order+1) digits to cancellation, while the truncation error of the
# fixed-degree midpoint series grows with the absolute gap, so the switch is
# absolute whatever the size of lam and mu.
COALESCE_GAP = 0.05

# |lam| below which sin(lam x)/lam chains use the power series in lam.
SMALL_LAMBDA = 0.5

_SERIES_EXTRA = 16  # extra Taylor degrees kept beyond the requested order


def s_chain(x, lam: complex, order: int) -> np.ndarray:
    """Normalized lam-derivatives of sin(lam x)/lam, shape (order+1,) + x.shape.

    Entry nu is (1/nu!) d^nu/dlam^nu [sin(lam x)/lam]; the removable
    singularity at lam = 0 is handled by the power series in lam.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((order + 1,) + x.shape, dtype=complex)
    if abs(lam) >= SMALL_LAMBDA:
        lx = lam * x
        quarter = (np.sin(lx), np.cos(lx), -np.sin(lx), -np.cos(lx))
        # x^j d^j/d(lam x)^j sin(lam x) / j!, shared by every nu
        terms = []
        xpow = np.ones_like(x)
        jfac = 1.0
        for j in range(order + 1):
            if j:
                jfac *= j
            terms.append(xpow * quarter[j % 4] / jfac)
            xpow = xpow * x
        for nu in range(order + 1):
            acc = np.zeros_like(x, dtype=complex)
            for j in range(nu + 1):
                acc += terms[j] * ((-1.0) ** (nu - j)) * lam ** (-(nu - j + 1))
            out[nu] = acc
    else:
        for nu in range(order + 1):
            acc = np.zeros_like(x, dtype=complex)
            m0 = (nu + 1) // 2
            for m in range(m0, m0 + 30):
                acc += ((-1.0) ** m) * comb(2 * m, nu) * lam ** (2 * m - nu) \
                    * x ** (2 * m + 1) / factorial(2 * m + 1)
            out[nu] = acc
    return out


def sx_chain(x, lam: complex, order: int) -> np.ndarray:
    """Normalized lam-derivatives of cos(lam x): x^nu cos(lam x + nu pi/2)/nu!."""
    x = np.asarray(x, dtype=float)
    lx = lam * x
    quarter = (np.cos(lx), -np.sin(lx), -np.cos(lx), np.sin(lx))
    out = np.zeros((order + 1,) + x.shape, dtype=complex)
    xpow = np.ones_like(x)
    for nu in range(order + 1):
        out[nu] = xpow * quarter[nu % 4] / factorial(nu)
        xpow = xpow * x
    return out


def _quotient_table(f, lam, mu, tmax, smax, shape):
    """Mixed derivatives of F/(lam-mu) from a table f[a,b] of F's coefficients."""
    T = np.zeros((tmax + 1, smax + 1) + shape, dtype=complex)
    inv = 1.0 / (lam - mu)
    for t in range(tmax + 1):
        for s in range(smax + 1):
            acc = np.zeros(shape, dtype=complex)
            for a in range(t + 1):
                for b in range(s + 1):
                    k = (t - a) + (s - b)
                    acc += f[a][b] * ((-1.0) ** (t - a)) * comb(k, t - a) * inv ** (k + 1)
            T[t, s] = acc
    return T


def _series_table(sc, cc, u0, w0, tmax, smax, shape):
    """Divided-difference derivatives from chains at the midpoint c=(lam+mu)/2.

    F(c+u, c+w) has antisymmetric coefficients f[a,b]; dividing the pair
    contribution u^a w^b - u^b w^a by (u - w) reorganizes the expansion into
    coefficients d[p, r] that are exact term-by-term (no cancellation), then
    the table is re-expanded at (u0, w0) = (+-(lam-mu)/2).
    """
    dmax = tmax + smax + _SERIES_EXTRA
    d = np.zeros((dmax + 1, dmax + 1) + shape, dtype=complex)
    for a in range(1, dmax + 2):
        for b in range(a):
            if a + b - 1 > dmax:
                break
            f = sc[a] * cc[b] - cc[a] * sc[b]
            for q in range(a - b):
                d[b + q, a - 1 - q] += f
    T = np.zeros((tmax + 1, smax + 1) + shape, dtype=complex)
    if u0 == 0.0 and w0 == 0.0:
        T[:, :] = d[: tmax + 1, : smax + 1]
        return T
    for t in range(tmax + 1):
        for s in range(smax + 1):
            acc = np.zeros(shape, dtype=complex)
            for p in range(t, dmax + 1):
                for r in range(s, dmax - p + 1):   # d[p, r] complete for p+r <= dmax
                    acc += d[p, r] * comb(p, t) * comb(r, s) * u0 ** (p - t) * w0 ** (r - s)
            T[t, s] = acc
    return T


def d_table(background: "BackgroundProblem", x, lam: complex, mu: complex,
            tmax: int, smax: int) -> np.ndarray:
    """T[t, s] = (1/t! s!) d^t_lam d^s_mu D(x, lam, mu) for ``background``.

    The quotient form is built from the background's own chains; pairs closer
    than ``COALESCE_GAP`` go to its coalescent branch instead.
    """
    if tmax > P_MAX or smax > P_MAX:
        raise OrderTooHighError(f"derivative order ({tmax}, {smax}) exceeds p_max={P_MAX}")
    x = np.asarray(x, dtype=float)
    if abs(lam - mu) < COALESCE_GAP:
        return background._coalescent_table(x, lam, mu, tmax, smax)
    sa = background.s_chain(x, lam, tmax)
    ca = background.sx_chain(x, lam, tmax)
    sb = background.s_chain(x, mu, smax)
    cb = background.sx_chain(x, mu, smax)
    f = [[sa[a] * cb[b] - ca[a] * sb[b] for b in range(smax + 1)] for a in range(tmax + 1)]
    return _quotient_table(f, lam, mu, tmax, smax, x.shape)


def dx_table(background: "BackgroundProblem", x, lam: complex, mu: complex,
             tmax: int, smax: int) -> np.ndarray:
    """Mixed derivatives of dD/dx = (lam + mu - 2 q1(x)) S(x,lam) S(x,mu)."""
    x = np.asarray(x, dtype=float)
    sa = background.s_chain(x, lam, tmax)
    sb = background.s_chain(x, mu, smax)
    w = lam + mu - 2.0 * background.q1_values(x)
    X = np.zeros((tmax + 1, smax + 1) + x.shape, dtype=complex)
    for t in range(tmax + 1):
        for s in range(smax + 1):
            acc = w * sa[t] * sb[s]
            if s >= 1:
                acc = acc + sa[t] * sb[s - 1]
            if t >= 1:
                acc = acc + sa[t - 1] * sb[s]
            X[t, s] = acc
    return X


def kernel_row(lam: complex, s, sx, mus, S, Sx, two_q1):
    """Order-0 D and dD/dx of one row against stacked columns, from chains.

    ``s``, ``sx`` are S(x, lam), S'(x, lam); rows of ``S``, ``Sx`` the same at
    the column eigenvalues ``mus``; ``two_q1`` is 2 q1(x).  Returns
    ``(far, D, DX)``: D on the columns ``far`` from lam by at least
    COALESCE_GAP (the others need ``d_table``'s coalescent branch), dD/dx on
    every column, both equal to the (0, 0) entries of ``d_table``/``dx_table``.
    """
    gaps = [lam - mu for mu in mus]
    far = np.array([abs(g) >= COALESCE_GAP for g in gaps], dtype=bool)
    # scalar division as in _quotient_table: numpy's complex division and
    # Python's can differ in the last bit
    inv = np.array([1.0 / g for g, f in zip(gaps, far) if f], dtype=complex)
    D = (s * Sx[far] - sx * S[far]) * inv[:, None]
    DX = ((lam + np.asarray(mus, dtype=complex))[:, None] - two_q1) * s * S
    return far, D, DX


# ---------------------------------------------------------------------------
# public single-point operations (zero background)

def s_model(x, lam: complex) -> complex:
    """sin(lam x)/lam with the lam -> 0 limit handled by series."""
    val = s_chain(x, lam, 0)[0]
    return complex(val) if np.ndim(x) == 0 else val


def s_model_x(x, lam: complex) -> complex:
    """d/dx of s_model: cos(lam x)."""
    val = sx_chain(x, lam, 0)[0]
    return complex(val) if np.ndim(x) == 0 else val


def d_model(x, lam: complex, mu: complex) -> complex:
    val = d_table(_ZERO, x, lam, mu, 0, 0)[0, 0]
    return complex(val) if np.ndim(x) == 0 else val


def d_model_mu_deriv(x, lam: complex, mu: complex, p: int) -> complex:
    """Unnormalized p-th mu-derivative of d_model."""
    val = factorial(p) * d_table(_ZERO, x, lam, mu, 0, p)[0, p]
    return complex(val) if np.ndim(x) == 0 else val


def d_model_x_deriv(x, lam: complex, mu: complex) -> complex:
    val = dx_table(_ZERO, x, lam, mu, 0, 0)[0, 0]
    return complex(val) if np.ndim(x) == 0 else val


# ---------------------------------------------------------------------------
# background problems

class BackgroundProblem:
    """Interface consumed by the reconstruction pipeline.

    A background supplies its chains, its first potential and the coalescent
    branch of the kernel; the kernel tables themselves are shared.
    """

    kind: str
    omega0: complex

    def q1_values(self, x) -> np.ndarray:
        raise NotImplementedError

    def sigma_values(self, x) -> np.ndarray:
        raise NotImplementedError

    def s_chain(self, x, lam, order) -> np.ndarray:
        raise NotImplementedError

    def sx_chain(self, x, lam, order) -> np.ndarray:
        raise NotImplementedError

    def _coalescent_table(self, x, lam, mu, tmax, smax) -> np.ndarray:
        """Kernel table for |lam - mu| < COALESCE_GAP, free of the 1/(lam - mu)."""
        raise NotImplementedError

    def d_table(self, x, lam, mu, tmax, smax) -> np.ndarray:
        return d_table(self, x, lam, mu, tmax, smax)

    def dx_table(self, x, lam, mu, tmax, smax) -> np.ndarray:
        return dx_table(self, x, lam, mu, tmax, smax)

    def spectral_entry(self, n: int) -> tuple[complex, complex]:
        """Eigenvalue and residue coefficient of the background at index n."""
        raise NotImplementedError

    def spectral_data(self, n_max: int) -> "SpectralDataSet":
        from .spectral_data import SpectralDataSet, SpectralEntry

        entries = []
        for n in zindex.window(n_max):
            lam, M = self.spectral_entry(n)
            entries.append(SpectralEntry(n=n, lam=lam, M=M))
        return SpectralDataSet.from_entries(entries, tail=self, omega0=self.omega0)


class ZeroBackground(BackgroundProblem):
    """The problem with both potentials identically zero."""

    kind = "zero"
    omega0 = 0.0 + 0.0j

    def q1_values(self, x):
        return np.zeros(np.shape(x), dtype=complex)

    def sigma_values(self, x):
        return np.zeros(np.shape(x), dtype=complex)

    def s_chain(self, x, lam, order):
        return s_chain(x, lam, order)

    def sx_chain(self, x, lam, order):
        return sx_chain(x, lam, order)

    def _coalescent_table(self, x, lam, mu, tmax, smax):
        # Taylor series at the midpoint, re-expanded at the two arguments
        c = 0.5 * (lam + mu)
        order = tmax + smax + _SERIES_EXTRA + 1
        return _series_table(s_chain(x, c, order), sx_chain(x, c, order),
                             lam - c, mu - c, tmax, smax, x.shape)

    def spectral_entry(self, n):
        if n == 0:
            raise ValueError("index 0 is not in Z0")
        return complex(n), complex(-n / pi)

    def __repr__(self):
        return "ZeroBackground()"


_ZERO = ZeroBackground()


def model_spectral_data(n_max: int) -> "SpectralDataSet":
    """Spectral data of the zero background for 1 <= |n| <= n_max (all simple)."""
    return ZeroBackground().spectral_data(n_max)


class NumericBackground(BackgroundProblem):
    """Background given by potential grids; chains come from the integrator.

    The evaluation grid must coincide with (a subset of) the refined
    integration grid so traces can be read off without interpolation.
    """

    kind = "numeric"

    def __init__(self, potentials: "PotentialPair", refine: int = 10):
        self.potentials = potentials
        self.refine = refine
        self._trace_cache: dict[complex, tuple[int, np.ndarray]] = {}
        self._entry_cache: dict[int, tuple[complex, complex]] = {}
        from scipy.integrate import simpson

        self.omega0 = complex(simpson(np.asarray(potentials.q1), x=potentials.x) / pi)

    # -- trace plumbing ----------------------------------------------------

    def _refined_x(self):
        n = (len(self.potentials.x) - 1) * self.refine
        return np.linspace(0.0, pi, n + 1)

    def _trace(self, lam: complex, order: int) -> np.ndarray:
        """(order+1, 2, n_refined+1): values and quasi-derivatives of the chain."""
        cached = self._trace_cache.get(lam)
        if cached is not None and cached[0] >= order:
            return cached[1][: order + 1]
        from .forward import integrate

        res = integrate(self.potentials, np.array([lam]), n_derivs=order,
                        refine=self.refine, with_trace=True)
        tr = res.trace[:, :, :, 0].transpose(1, 2, 0)  # (order+1, 2, nodes)
        self._trace_cache[lam] = (order, tr)
        return tr

    def _node_index(self, x):
        xr = self._refined_x()
        idx = np.rint(np.asarray(x) / (xr[1] - xr[0])).astype(int)
        if not np.allclose(xr[idx], x, atol=1e-10):
            raise GridMismatchError("evaluation points must lie on the refined grid")
        return idx

    # -- interface ----------------------------------------------------------

    def q1_values(self, x):
        q = self.potentials.q1
        xg = self.potentials.x
        return np.interp(x, xg, q.real) + 1j * np.interp(x, xg, q.imag)

    def sigma_values(self, x):
        s = self.potentials.sigma
        xg = self.potentials.x
        return np.interp(x, xg, s.real) + 1j * np.interp(x, xg, s.imag)

    def s_chain(self, x, lam, order):
        idx = self._node_index(x)
        return self._trace(lam, order)[:, 0, idx]

    def sx_chain(self, x, lam, order):
        idx = self._node_index(x)
        tr = self._trace(lam, order)
        sig = self.sigma_values(np.asarray(x))
        return tr[:, 1, idx] + sig * tr[:, 0, idx]

    def _coalescent_table(self, x, lam, mu, tmax, smax):
        # D(0, ., .) = 0, so D is the running integral of dD/dx on the refined grid
        xr = self._refined_x()
        X = dx_table(self, xr, lam, mu, tmax, smax)
        cum = cumulative_simpson(X.real, x=xr, initial=0.0) \
            + 1j * cumulative_simpson(X.imag, x=xr, initial=0.0)
        return cum[..., self._node_index(x)]

    def spectral_entry(self, n):
        if n == 0:
            raise ValueError("index 0 is not in Z0")
        if n not in self._entry_cache:
            self._compute_entries(max(2, abs(n)))
        return self._entry_cache[n]

    def _compute_entries(self, n_max):
        from .forward import find_eigenvalues, weyl_residues

        eigs = find_eigenvalues(self.potentials, n_max, self.omega0, refine=self.refine)
        full = weyl_residues(self.potentials, eigs, refine=self.refine)
        for n in zindex.window(n_max):
            e = full.entry(n)
            self._entry_cache[n] = (e.lam, e.M)

    def __repr__(self):
        return f"NumericBackground(n_grid={len(self.potentials.x) - 1})"
