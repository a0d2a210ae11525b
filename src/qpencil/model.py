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

The kernel table ``d_table`` builds D from the background's chains by the
quotient form, except where |lam - mu| is below ``COALESCE_GAP`` and the
quotient would cancel; there it takes the background's coalescent branch.
For the zero background that branch is the closed form
``D = (1/lam + 1/mu)/2 [s(x, lam-mu) - s(x, lam+mu)]`` with s(x, g) =
sin(g x)/g (a power series when lam or mu is small).

The chains take arrays of lam and the tables arrays of (lam, mu) pairs, and
pick their branch per element by mask, so a caller needs one call per
derivative order however many parameters it has.
"""

from __future__ import annotations

from math import comb, factorial, pi
from typing import TYPE_CHECKING

import numpy as np

from . import zindex
from .errors import OrderTooHighError

if TYPE_CHECKING:
    from .spectral_data import SpectralDataSet

# Highest supported derivative order: groups of up to P_MAX + 1 = 5 equal eigenvalues
# assemble, larger ones raise OrderTooHighError.  Reconstruction is checked up to size 3.
P_MAX = 4

# Separation |lam - mu| below which the divided difference switches to the
# background's coalescent branch.  The gap guards only the quotient form, which
# loses roughly |lam-mu|^-(order+1) digits to cancellation whatever the size of
# lam and mu; the coalescent branches have no 1/(lam - mu) and hold at any gap.
COALESCE_GAP = 0.05

# |lam| below which sin(lam x)/lam chains, and the zero background's
# coalescent kernel, use power series in lam.
SMALL_LAMBDA = 0.5


def s_chain(x, lam, order: int) -> np.ndarray:
    """Normalized lam-derivatives of sin(lam x)/lam, shape (order+1,) + lam.shape + x.shape.

    Entry nu is (1/nu!) d^nu/dlam^nu [sin(lam x)/lam].  Each lam below
    ``SMALL_LAMBDA`` takes the power series in lam, which also handles the
    removable singularity at lam = 0, up to the first term that its own
    max|lam x| bounds below 2^-56 of the leading one, so a value does not
    depend on the other lam of the call; the others take the closed form.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=complex)
    z = lam.reshape((-1,) + (1,) * x.ndim)     # one lam per leading entry
    small = np.abs(lam.reshape(-1)) < SMALL_LAMBDA
    if order == 0 and not small.any():   # the closed form's one term, zeros made +0.0 as below
        return (np.sin(z * x) * np.reciprocal(z) + 0.0).reshape((1,) + lam.shape + x.shape)
    out = np.empty((order + 1, z.shape[0]) + x.shape, dtype=complex)
    if not small.all():
        zb = z[~small]
        lx = zb * x
        sin, cos = np.sin(lx), np.cos(lx)
        quarter = (sin, cos, -sin, -cos)
        # x^j d^j/d(lam x)^j sin(lam x) / j!, shared by every nu
        terms = []
        xpow = np.ones_like(x)
        jfac = 1.0
        for j in range(order + 1):
            if j:
                jfac *= j
            terms.append(xpow * quarter[j % 4] / jfac)
            xpow = xpow * x
        # np.power, not **, whose squaring shortcut rounds differently; 1/z^k
        # as the reciprocal of z^k, since np.power divides naively for k < 0
        inv = [np.reciprocal(np.power(zb, k)) for k in range(1, order + 2)]
        for nu in range(order + 1):
            acc = np.zeros(lx.shape, dtype=complex)
            for j in range(nu + 1):
                acc += terms[j] * ((-1.0) ** (nu - j)) * inv[nu - j]
            out[nu, ~small] = acc
    if small.any():
        which = np.flatnonzero(small)[np.argsort(-np.abs(z[small].reshape(-1)), kind="stable")]
        zs = z[which]
        r = np.abs(zs.reshape(-1)) * np.abs(x).max(initial=0.0)     # bounds |lam x|, per lam
        for nu in range(order + 1):
            acc = np.zeros(zs.shape[:1] + x.shape, dtype=complex)
            m0 = m = (nu + 1) // 2
            live = r.size       # the lam with a term m, a prefix as |lam| falls
            while live:
                acc[:live] += ((-1.0) ** m) * comb(2 * m, nu) * np.power(zs[:live], 2 * m - nu) \
                    * x ** (2 * m + 1) / factorial(2 * m + 1)
                m += 1
                live = min(live, np.count_nonzero(
                    comb(2 * m, nu) * r ** (2 * (m - m0)) * factorial(2 * m0 + 1)
                    >= 2.0 ** -56 * comb(2 * m0, nu) * factorial(2 * m + 1)))
            out[nu, which] = acc
    return out.reshape((order + 1,) + lam.shape + x.shape)


def sx_chain(x, lam, order: int) -> np.ndarray:
    """Normalized lam-derivatives of cos(lam x): x^nu cos(lam x + nu pi/2)/nu!.

    Shape (order+1,) + lam.shape + x.shape, as for ``s_chain``.
    """
    x = np.asarray(x, dtype=float)
    lx = np.multiply.outer(np.asarray(lam, dtype=complex), x)
    if order == 0:
        return (np.cos(lx) + 0.0)[None]   # zeros made +0.0, as the loop below does
    sin, cos = np.sin(lx), np.cos(lx)
    quarter = (cos, -sin, -cos, sin)
    out = np.empty((order + 1,) + lx.shape, dtype=complex)
    xpow = np.ones_like(x)
    for nu in range(order + 1):
        out[nu] = xpow * quarter[nu % 4] / factorial(nu)
        xpow = xpow * x
    return out


def _quotient_table(f, lam, mu, tmax, smax, shape):
    """Mixed derivatives of F/(lam-mu) from a table f[a,b] of F's coefficients."""
    T = np.zeros((tmax + 1, smax + 1) + shape, dtype=complex)
    inv = np.reciprocal(lam - mu)
    for t in range(tmax + 1):
        for s in range(smax + 1):
            acc = np.zeros(shape, dtype=complex)
            for a in range(t + 1):
                for b in range(s + 1):
                    k = (t - a) + (s - b)
                    acc += f[a][b] * ((-1.0) ** (t - a)) * comb(k, t - a) * np.power(inv, k + 1)
            T[t, s] = acc
    return T


def _pairs(lam, mu):
    """The common shape of ``lam`` and ``mu``, and both flattened to 1-D."""
    lam, mu = np.broadcast_arrays(np.asarray(lam, dtype=complex), np.asarray(mu, dtype=complex))
    return lam.shape, lam.reshape(-1), mu.reshape(-1)


def d_table(background: "BackgroundProblem", x, lam, mu,
            tmax: int, smax: int) -> np.ndarray:
    """T[..., t, s] = (1/t! s!) d^t_lam d^s_mu D(x, lam, mu) for ``background``.

    The shape of the broadcast (lam, mu) pairs leads the result.  Pairs at
    least ``COALESCE_GAP`` apart take the quotient form, built from the
    background's own chains; closer ones take its coalescent branch.
    """
    if tmax > P_MAX or smax > P_MAX:
        raise OrderTooHighError(f"derivative order ({tmax}, {smax}) exceeds p_max={P_MAX}")
    x = np.asarray(x, dtype=float)
    shape, lam, mu = _pairs(lam, mu)
    T = np.empty(lam.shape + (tmax + 1, smax + 1) + x.shape, dtype=complex)
    near = np.abs(lam - mu) < COALESCE_GAP
    if near.any():
        T[near] = background._coalescent_table(x, lam[near], mu[near], tmax, smax)
    if not near.all():
        la, mb = lam[~near], mu[~near]
        sa, ca = background.s_chain(x, la, tmax), background.sx_chain(x, la, tmax)
        sb, cb = background.s_chain(x, mb, smax), background.sx_chain(x, mb, smax)
        f = [[sa[a] * cb[b] - ca[a] * sb[b] for b in range(smax + 1)] for a in range(tmax + 1)]
        col = (-1,) + (1,) * x.ndim
        T[~near] = np.moveaxis(
            _quotient_table(f, la.reshape(col), mb.reshape(col), tmax, smax, sa.shape[1:]), 2, 0)
    return T.reshape(shape + T.shape[1:])


def _series_coalescent(x, lam, mu, tmax, smax):
    """Zero-background ``_coalescent_table`` when lam or mu is below SMALL_LAMBDA.

    D = (lam + mu) E, E = sum (-1)^N lam^2m mu^2k x^(2N+3) / ((2m+1)! (2k+1)! (2N+3))
    over total degree N = m + k < 20.
    """
    m = np.arange(20)

    def even_chain(z, order):  # (1/nu!) d^nu/dz^nu z^2m/(2m+1)!, shape (pairs, nu, m)
        nu = np.arange(order + 1)[:, None]
        binom = np.array([[comb(2 * j, k) for j in m] for k in range(order + 1)], dtype=float)
        c = (binom * (2 * m >= nu)) * np.power(z[:, None, None], np.maximum(2 * m - nu, 0))
        # divide re and im by the real (2m+1)!: numpy's complex / real would
        # multiply by its reciprocal instead
        fac = np.repeat([float(factorial(2 * j + 1)) for j in m], 2)
        return (c.view(float) / fac).view(complex)

    a, b = even_chain(lam, tmax), even_chain(mu, smax)
    K = np.stack([a[..., :n + 1] @ b[..., n::-1].swapaxes(1, 2) for n in m], axis=-1)
    g = (-1.0) ** m[:, None] * x.reshape(-1) ** (2 * m[:, None] + 3) / (2 * m[:, None] + 3)
    E = K @ g
    T = (lam + mu)[:, None, None, None] * E
    T[:, 1:] += E[:, :-1]
    T[:, :, 1:] += E[:, :, :-1]
    return T.reshape(T.shape[:3] + x.shape)


def _closed_coalescent(x, lam, mu, tmax, smax):
    """Zero-background ``_coalescent_table``: (1/lam + 1/mu)/2 [s(lam - mu) - s(lam + mu)].

    s(g) = sin(g x)/g; needs |lam|, |mu| >= SMALL_LAMBDA.
    """
    t = np.arange(tmax + 1)[:, None]
    s = np.arange(smax + 1)[None, :]
    sm = np.moveaxis(s_chain(x, lam - mu, tmax + smax), 1, 0)
    sp = np.moveaxis(s_chain(x, lam + mu, tmax + smax), 1, 0)
    flat = (lam.size, tmax + 1, smax + 1, -1)
    binom = np.array([[comb(i + j, i) for j in range(smax + 1)]
                      for i in range(tmax + 1)], dtype=float)[..., None]
    G = (binom * (-1.0) ** s[..., None]) * sm[:, t + s].reshape(flat) \
        - binom * sp[:, t + s].reshape(flat)

    def inverse_chain(z, order):  # L[t, a] = (-1)^(t-a) / z^(t-a+1) for t >= a
        k = np.arange(order + 1)
        d = k[:, None] - k[None, :]
        return np.where(d >= 0, (-1.0) ** d / np.power(z[:, None, None], np.abs(d) + 1), 0.0)

    T = 0.5 * (np.einsum("pta,pasn->ptsn", inverse_chain(lam, tmax), G)
               + np.einsum("psb,ptbn->ptsn", inverse_chain(mu, smax), G))
    return T.reshape(T.shape[:3] + x.shape)


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
        """Kernel tables, free of the 1/(lam - mu), of the 1-D pair arrays (lam, mu).

        Used for pairs closer than COALESCE_GAP; shape (pairs, tmax+1, smax+1) + x.shape.
        """
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
        T = np.empty(lam.shape + (tmax + 1, smax + 1) + x.shape, dtype=complex)
        small = np.minimum(np.abs(lam), np.abs(mu)) < SMALL_LAMBDA
        if small.any():
            T[small] = _series_coalescent(x, lam[small], mu[small], tmax, smax)
        if not small.all():
            T[~small] = _closed_coalescent(x, lam[~small], mu[~small], tmax, smax)
        return T

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
