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
backgrounds share one kernel algebra (``d_table``, ``dx_table``) and differ
only in their chains and in the coalescent branch used when |lam - mu| is
below ``COALESCE_GAP``, where the quotient form would cancel.  For the zero
background that branch is the closed form
``D = (1/lam + 1/mu)/2 [s(x, lam-mu) - s(x, lam+mu)]`` with s(x, g) =
sin(g x)/g (a power series when lam or mu is small); for a numeric one it is
the running integral of dD/dx.
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
# background's coalescent branch.  The gap guards only the quotient form, which
# loses roughly |lam-mu|^-(order+1) digits to cancellation whatever the size of
# lam and mu; the coalescent branches have no 1/(lam - mu) and hold at any gap.
COALESCE_GAP = 0.05

# |lam| below which sin(lam x)/lam chains, and the zero background's
# coalescent kernel, use power series in lam.
SMALL_LAMBDA = 0.5


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


# ---------------------------------------------------------------------------
# background problems

class BackgroundProblem:
    """Interface consumed by the reconstruction pipeline.

    A background supplies its chains, its first potential and the coalescent
    branch of the kernel; the kernel tables themselves are shared.
    """

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
        xf = x.reshape(-1)
        if min(abs(lam), abs(mu)) < SMALL_LAMBDA:
            # D = (lam + mu) E, E = sum (-1)^N lam^2m mu^2k x^(2N+3)
            #     / ((2m+1)! (2k+1)! (2N+3)) over total degree N = m + k < 20
            def even_chain(z, order):  # (1/nu!) d^nu/dz^nu z^2m/(2m+1)!, columns m
                return np.array([[comb(2 * m, nu) * z ** (2 * m - nu) / factorial(2 * m + 1)
                                  if 2 * m >= nu else 0.0 for m in range(20)]
                                 for nu in range(order + 1)], dtype=complex)

            a, b = even_chain(lam, tmax), even_chain(mu, smax)
            N = np.arange(20)[:, None]
            g = (-1.0) ** N * xf ** (2 * N + 3) / (2 * N + 3)
            K = np.stack([a[:, :n + 1] @ b[:, n::-1].T for n in range(20)], axis=-1)
            E = K @ g
            T = (lam + mu) * E
            T[1:] += E[:-1]
            T[:, 1:] += E[:, :-1]
        else:
            # D = (1/lam + 1/mu)/2 [s(lam - mu) - s(lam + mu)], s(g) = sin(g x)/g
            t = np.arange(tmax + 1)[:, None]
            s = np.arange(smax + 1)[None, :]
            sm = s_chain(xf, lam - mu, tmax + smax)
            sp = s_chain(xf, lam + mu, tmax + smax)
            binom = np.array([[comb(i + j, i) for j in range(smax + 1)]
                              for i in range(tmax + 1)], dtype=float)
            G = (binom * (-1.0) ** s)[..., None] * sm[t + s] - binom[..., None] * sp[t + s]

            def inverse_chain(z, order):  # L[t, a] = (-1)^(t-a) / z^(t-a+1) for t >= a
                k = np.arange(order + 1)
                d = k[:, None] - k[None, :]
                return np.where(d >= 0, (-1.0) ** d / z ** (np.abs(d) + 1), 0.0)

            T = 0.5 * (np.einsum("ta,asn->tsn", inverse_chain(lam, tmax), G)
                       + np.einsum("sb,tbn->tsn", inverse_chain(mu, smax), G))
        return T.reshape((tmax + 1, smax + 1) + x.shape)

    def spectral_entry(self, n):
        if n == 0:
            raise ValueError("index 0 is not in Z0")
        return complex(n), complex(-n / pi)

    def __repr__(self):
        return "ZeroBackground()"


def same_background(a: BackgroundProblem | None, b: BackgroundProblem | None) -> bool:
    """Whether two backgrounds are one problem: the same object, or both zero."""
    return a is not None and (
        a is b or (isinstance(a, ZeroBackground) and isinstance(b, ZeroBackground)))


class NumericBackground(BackgroundProblem):
    """Background given by potential grids; chains come from the integrator.

    The evaluation grid must coincide with (a subset of) the refined
    integration grid so traces can be read off without interpolation.
    """

    def __init__(self, potentials: "PotentialPair", refine: int = 10):
        self.potentials = potentials
        self.refine = refine
        self._trace_cache: dict[complex, tuple[int, np.ndarray]] = {}
        self._entry_cache: dict[int, tuple[complex, complex]] = {}
        self.omega0 = potentials.omega0()

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
