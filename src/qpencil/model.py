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
quotient form, except where |lam - mu| is below a switch gap that widens with
the order and the quotient would cancel; there it takes the background's
coalescent branch.  For the zero background that branch is the closed form
``D = (1/lam + 1/mu)/2 [s(x, lam-mu) - s(x, lam+mu)]`` with s(x, g) =
sin(g x)/g (a power series when lam or mu is small).  Each quotient, by lam,
by lam - mu or by mu, takes its derivatives from one recurrence, ``_divide``.

The chains take arrays of lam and the tables arrays of (lam, mu) pairs, and
pick their branch per element by mask, so a caller needs one call per
derivative order however many parameters it has.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# background's coalescent branch, up to total order t + s = 2; ``d_table``
# widens it 4 times at order 3 and 16 times from 4 on.  The gap guards only the
# quotient form, which loses roughly a factor |lam-mu|^-(t+s+1) to cancellation
# whatever the size of lam and mu; the coalescent branches have no 1/(lam - mu)
# and hold at any gap.  The widest gap, 0.8, keeps the series pairs at
# |lam|, |mu| below about 1.3, where their 20 terms converge.
COALESCE_GAP = 0.05

# |lam| below which sin(lam x)/lam chains, and the zero background's
# coalescent kernel, use power series in lam.
SMALL_LAMBDA = 0.5


def s_chain(x, lam, order: int) -> np.ndarray:
    """Normalized lam-derivatives of sin(lam x)/lam, shape (order+1,) + lam.shape + x.shape.

    Entry nu is (1/nu!) d^nu/dlam^nu [sin(lam x)/lam].  Each lam below
    ``SMALL_LAMBDA`` takes the power series in lam, which also handles the
    removable singularity at lam = 0, up to the first term that |lam| max(pi, max|x|)
    bounds below 2^-56 of the leading one, so a value depends on neither the other lam
    nor the other x in [-pi, pi] of the call; the others take the closed form.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=complex)
    z = lam.reshape((-1,) + (1,) * x.ndim)     # one lam per leading entry
    small = np.abs(lam.reshape(-1)) < SMALL_LAMBDA
    if order == 0 and not small.any():   # the closed form's one term, zeros made +0.0 as below
        return (np.sin(z * x) * np.reciprocal(z) + 0.0).reshape((1,) + lam.shape + x.shape)
    out = np.empty((order + 1, z.shape[0]) + x.shape, dtype=complex)
    if not small.all():
        # Leibniz on lam q = sin(lam x)
        out[:, ~small] = _divide(_trig_terms(x, lam.reshape(-1)[~small], order, 0)[:, None],
                                 z[~small], 1, 0)[:, 0]
    if small.any():
        which = np.flatnonzero(small)[np.argsort(-np.abs(z[small].reshape(-1)), kind="stable")]
        zs = z[which]
        r = np.abs(zs.reshape(-1)) * max(pi, np.abs(x).max(initial=0.0))   # bounds |lam x|, per lam
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
    lam = np.asarray(lam, dtype=complex)
    if order == 0:      # zeros made +0.0, as _trig_terms does
        return (np.cos(np.multiply.outer(lam, x)) + 0.0)[None]
    return _trig_terms(x, lam, order, 1)


def _trig_terms(x, lam, order: int, shift: int) -> np.ndarray:
    """x^j f^(j)(lam x)/j!, shape (order+1,) + lam.shape + x.shape; f = sin (shift 0) or cos (1)."""
    lx = np.multiply.outer(lam, x)
    sin, cos = np.sin(lx), np.cos(lx)
    quarter = (sin, cos, -sin, -cos)
    out = np.empty((order + 1,) + lx.shape, dtype=complex)
    xpow = np.ones_like(x)
    for j in range(order + 1):
        out[j] = xpow * quarter[(j + shift) % 4] / factorial(j)
        xpow = xpow * x
    return out


def _divide(f, z, dl, dm) -> np.ndarray:
    """Normalized mixed derivatives q[t, s] of F/z from those of F, f[t, s].

    z is linear, with dz/dlam = dl and dz/dmu = dm, so Leibniz on z q = F reads
    z q_ts + dl q_(t-1)s + dm q_t(s-1) = f_ts, solved upward in t and s.
    """
    inv = np.reciprocal(z)
    q = np.empty(f.shape, dtype=complex)
    for t in range(f.shape[0]):
        for s in range(f.shape[1]):
            acc = f[t, s]
            if t and dl:
                acc = acc - dl * q[t - 1, s]
            if s and dm:
                acc = acc - dm * q[t, s - 1]
            q[t, s] = acc * inv
    return q


def _pairs(lam, mu):
    """The common shape of ``lam`` and ``mu``, and both flattened to 1-D."""
    lam, mu = np.broadcast_arrays(np.asarray(lam, dtype=complex), np.asarray(mu, dtype=complex))
    return lam.shape, lam.reshape(-1), mu.reshape(-1)


def d_table(background: ZeroBackground, x, lam, mu,
            tmax: int, smax: int) -> np.ndarray:
    """T[..., t, s] = (1/t! s!) d^t_lam d^s_mu D(x, lam, mu) for ``background``.

    The shape of the broadcast (lam, mu) pairs leads the result.  Pairs at
    least the order's switch gap (``COALESCE_GAP``) apart take the quotient
    form, built from the background's own chains; closer ones take its
    coalescent branch.
    """
    if tmax > P_MAX or smax > P_MAX:
        raise OrderTooHighError(f"derivative order ({tmax}, {smax}) exceeds p_max={P_MAX}")
    x = np.asarray(x, dtype=float)
    shape, lam, mu = _pairs(lam, mu)
    T = np.empty(lam.shape + (tmax + 1, smax + 1) + x.shape, dtype=complex)
    near = np.abs(lam - mu) < COALESCE_GAP * 4.0 ** min(2, max(0, tmax + smax - 2))
    if near.any():
        T[near] = background._coalescent_table(x, lam[near], mu[near], tmax, smax)
    if not near.all():
        la, mb = lam[~near], mu[~near]
        sa, ca = background.s_chain(x, la, tmax), background.sx_chain(x, la, tmax)
        sb, cb = background.s_chain(x, mb, smax), background.sx_chain(x, mb, smax)
        f = sa[:, None] * cb[None] - ca[:, None] * sb[None]
        T[~near] = np.moveaxis(_divide(f, (la - mb).reshape((-1,) + (1,) * x.ndim), 1, -1), 2, 0)
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
    E = np.einsum("...n,nx->...x", K, g)    # not BLAS: each x its own sum, whatever the threads
    T = (lam + mu)[:, None, None, None] * E
    T[:, 1:] += E[:, :-1]
    T[:, :, 1:] += E[:, :, :-1]
    return T.reshape(T.shape[:3] + x.shape)


def _closed_coalescent(x, lam, mu, tmax, smax):
    """Zero-background ``_coalescent_table``: (1/lam + 1/mu)/2 [s(lam - mu) - s(lam + mu)].

    s(g) = sin(g x)/g; needs |lam|, |mu| >= SMALL_LAMBDA.
    """
    t, s = np.ogrid[:tmax + 1, :smax + 1]
    sm = s_chain(x.reshape(-1), lam - mu, tmax + smax)
    sp = s_chain(x.reshape(-1), lam + mu, tmax + smax)
    binom = np.array([[comb(i + j, i) for j in range(smax + 1)]
                      for i in range(tmax + 1)], dtype=float)[..., None, None]
    G = (binom * (-1.0) ** s[..., None, None]) * sm[t + s] - binom * sp[t + s]
    T = 0.5 * (_divide(G, lam[:, None], 1, 0) + _divide(G, mu[:, None], 0, 1))
    return np.moveaxis(T, 2, 0).reshape((lam.size, tmax + 1, smax + 1) + x.shape)


# ---------------------------------------------------------------------------
# the zero background

@dataclass(frozen=True)
class ZeroBackground:
    """The problem with both potentials identically zero; ``d_table`` calls its methods by name."""

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
        """Kernel tables, free of the 1/(lam - mu), of the 1-D pair arrays (lam, mu).

        Used for pairs closer than ``d_table``'s switch gap; shape
        (pairs, tmax+1, smax+1) + x.shape.
        """
        T = np.empty(lam.shape + (tmax + 1, smax + 1) + x.shape, dtype=complex)
        small = np.minimum(np.abs(lam), np.abs(mu)) < SMALL_LAMBDA
        if small.any():
            T[small] = _series_coalescent(x, lam[small], mu[small], tmax, smax)
        if not small.all():
            T[~small] = _closed_coalescent(x, lam[~small], mu[~small], tmax, smax)
        return T

    def spectral_entry(self, n):
        """Eigenvalue and residue coefficient of the background at index n."""
        if n == 0:
            raise ValueError("index 0 is not in Z0")
        return complex(n), complex(-n / pi)

    def spectral_data(self, n_max: int) -> "SpectralDataSet":
        """The background's own entries at |n| <= n_max, with itself as the tail."""
        from .spectral_data import SpectralDataSet, SpectralEntry

        return SpectralDataSet.from_entries(
            [SpectralEntry(n, *self.spectral_entry(n)) for n in zindex.window(n_max)], tail=self)
