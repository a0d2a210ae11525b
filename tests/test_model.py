"""Background kernels: chains, divided differences, derivative tables."""

from math import factorial, pi

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpencil import (
    OrderTooHighError,
    ZeroBackground,
)
from qpencil.model import (
    P_MAX,
    BackgroundProblem,
    _pairs,
    d_table,
    s_chain,
    sx_chain,
)
from test_forward import coefficients_from_weights

finite_complex = st.complex_numbers(max_magnitude=8.0, allow_nan=False,
                                    allow_infinity=False)

ZERO = ZeroBackground()


def d_zero(x, lam, mu):
    """The zero background's kernel D(x, lam, mu) at a scalar x."""
    return complex(d_table(ZERO, x, lam, mu, 0, 0)[0, 0])


def test_s_model_basics():
    assert complex(s_chain(pi, 1.0, 0)[0]) == pytest.approx(0.0, abs=1e-14)
    assert complex(s_chain(pi / 2, 1.0, 0)[0]) == pytest.approx(1.0, rel=1e-14)
    # removable singularity: series oracle sin(z)/z = 1 - z^2/6 + ...
    assert complex(s_chain(pi, 1e-9, 0)[0]) == pytest.approx(pi, abs=1e-13)
    assert complex(s_chain(pi, 0.0, 0)[0]) == pytest.approx(pi, abs=1e-15)
    assert complex(sx_chain(pi, 1.0, 0)[0]) == pytest.approx(-1.0, rel=1e-14)


def test_s_chain_matches_finite_difference():
    h = 1e-6
    lam = 1.7 + 0.3j
    x = np.array([0.7, 2.9])
    chain = s_chain(x, lam, 2)
    fd1 = (s_chain(x, lam + h, 0)[0] - s_chain(x, lam - h, 0)[0]) / (2 * h)
    assert np.allclose(chain[1], fd1, atol=1e-8)
    fd2 = (s_chain(x, lam + h, 0)[0] - 2 * chain[0] + s_chain(x, lam - h, 0)[0]) / h**2
    assert np.allclose(2 * chain[2], fd2, atol=1e-3)


def test_s_chain_branches_agree():
    # value continuity across the small-|lam| series switch
    x = np.linspace(0.1, pi, 7)
    for lam in (0.499, 0.501, 0.499 + 0.02j):
        a = s_chain(x, lam, 3)
        lam2 = lam + 0.002  # other side of the switch for the real cases
        b = s_chain(x, lam2, 3)
        assert np.all(np.abs(a - b) < 0.05)  # smooth in lam, no branch jump
    near = s_chain(np.array([1.0]), 0.4999999, 2)
    far = s_chain(np.array([1.0]), 0.5000001, 2)
    assert np.allclose(near, far, atol=1e-5)


def test_d_model_reference_values():
    assert d_zero(pi, 1.0, 2.0) == pytest.approx(0.0, abs=1e-13)
    assert d_zero(pi, 1.0, 1.0) == pytest.approx(pi, rel=1e-13)
    # quadrature oracle (scipy.integrate.quad of 2*lam*S^2): 6.283185307179586
    assert d_zero(pi, 0.5, 0.5) == pytest.approx(2 * pi, rel=1e-13)


def test_d_model_vanishes_at_integer_pairs():
    for n in (1, 2, -3):
        for k in (2, -1, 4):
            if n != k:
                assert abs(d_zero(pi, n, k)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(finite_complex, finite_complex, st.floats(min_value=0.0, max_value=pi))
@example(0j, 0.03 + 0.01j, 2.0)   # lam = 0: small-|lam| coalescent series
@example(0.02 - 0.01j, 0j, 2.0)   # mu = 0
@example(0j, 0j, 2.0)             # both 0
def test_d_model_symmetric(lam, mu, x):
    a = d_zero(x, lam, mu)
    b = d_zero(x, mu, lam)
    assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


def test_d_model_mu_deriv_order_zero_is_d():
    # the order-0 table is the divided difference of the chains themselves
    sa, ca = s_chain(1.3, 2.0, 0)[0], sx_chain(1.3, 2.0, 0)[0]
    sb, cb = s_chain(1.3, 0.7, 0)[0], sx_chain(1.3, 0.7, 0)[0]
    quotient = complex((sa * cb - ca * sb) / (2.0 - 0.7))
    assert d_zero(1.3, 2.0, 0.7) == pytest.approx(quotient)


def test_d_model_mu_deriv_against_finite_difference():
    h = 1e-5
    fd = (d_zero(pi, 2.0, 0.5 + h) - d_zero(pi, 2.0, 0.5 - h)) / (2 * h)
    val = factorial(1) * d_table(ZERO, pi, 2.0, 0.5, 0, 1)[0, 1]
    assert val == pytest.approx(fd, rel=1e-8)
    # exact value from symbolic differentiation: 16/9
    assert val == pytest.approx(16.0 / 9.0, rel=1e-12)


def test_d_model_mu_deriv_at_coalescence():
    # symbolic limits of the mu-derivative at mu -> lam
    assert factorial(1) * d_table(ZERO, pi, 0.5, 0.5, 0, 1)[0, 1] == pytest.approx(0.0, abs=1e-13)
    val = factorial(1) * d_table(ZERO, 1.0, 0.7 + 0.1j, 0.7 + 0.1j, 0, 1)[0, 1]
    assert val == pytest.approx(0.24382504632008352 - 0.023959060673686884j, rel=1e-12)


def _branch_gap(lam, x):
    mu = lam + 1e-6 * max(1.0, abs(lam))
    sa, ca = s_chain(x, lam, 0), sx_chain(x, lam, 0)
    sb, cb = s_chain(x, mu, 0), sx_chain(x, mu, 0)
    generic = (sa[0] * cb[0] - ca[0] * sb[0]) / (lam - mu)
    coalescent = ZERO._coalescent_table(x, np.array([lam]), np.array([mu]), 0, 0)[0, 0, 0]
    return np.max(np.abs(generic - coalescent)) / np.max(np.abs(coalescent))


def test_d_model_branch_continuity_at_documented_threshold():
    # quotient and coalescent branches agree to 10 digits at |lam-mu| = 1e-6 max(1,|lam|)
    x = np.array([1.0, 2.5, pi])
    assert _branch_gap(1.3, x) < 1e-10
    assert _branch_gap(0.5, x) < 1e-10
    # cancellation in the quotient grows with the chain scale e^{|Im lam| x}
    assert _branch_gap(1.3 + 0.4j, x) < 1e-9


def _d_oracle(x, lam, mu, t, s):
    """(1/t! s!) d^t_lam d^s_mu D(x, lam, mu) from the quotient form at 80 digits.

    The arguments are moved apart by 1e-35 so that lam = mu and lam = 0 are
    defined; that moves the result by about 1e-35.
    """
    with mp.workdps(80):
        off = mp.mpf("1e-35")

        def D(a, b):
            a, b = a + off, b - off
            return (mp.sin(a * x) / a * mp.cos(b * x) - mp.cos(a * x) * mp.sin(b * x) / b) / (a - b)

        d = mp.diff(D, (mp.mpmathify(lam), mp.mpmathify(mu)), (t, s))
        return complex(d / (mp.factorial(t) * mp.factorial(s)))


@pytest.mark.parametrize("lam, mu, t, s", [
    (45.0, 47.0, 0, 0),                 # quotient side, large index
    (100.0, 103.0, 0, 0),               # quotient side, larger index
    (2.0, 2.04, 0, 0),                  # closed-form coalescent side
    (1.3 + 0.4j, 1.33 + 0.38j, 1, 1),   # complex, closed-form side
    (2.5 + 0.3j, 2.4 + 0.35j, 1, 1),    # complex, quotient side near the switch
    (0.7, 0.7, 0, 0),                   # exact coalescence
    (50.0, 50.03, 2, 2),                # closed form, large index
    (100.0, 100.01, 3, 3),              # closed form, larger index
    (-0.5, -0.5, 4, 4),                 # closed form at the SMALL_LAMBDA switch
    (0.0, 0.01, 1, 1),                  # lam = 0: small-|lam| series
    (1e-8, 0.0, 2, 1),                  # mu = 0, lam tiny
    (0.49, 0.51, 2, 2),                 # series just below the switch
    (0.3 + 0.2j, 0.31 + 0.2j, 3, 3),    # complex, series
    (0.45 + 0.2j, 0.48 + 0.19j, 4, 4),  # complex, series, highest order
    (0.6, 0.65, 4, 4),                  # closed form at order 8, past 0.05
    (0.3, 0.38, 2, 2),                  # series at order 4, past 0.05
    (20.0, 20.1, 2, 1),                 # closed form at order 3, past 0.05
])
def test_d_table_against_mpmath_oracle(lam, mu, t, s):
    x = np.linspace(0.1, pi, 9)
    got = d_table(ZeroBackground(), x, lam, mu, t, s)[t, s]
    ref = np.array([_d_oracle(mp.mpf(float(xi)), lam, mu, t, s) for xi in x])
    assert np.max(np.abs(got - ref)) < 1e-11 * np.max(np.abs(ref))


def test_d_table_batch_against_mpmath_oracle():
    # one call over quotient, closed-form coalescent and small-|lam| series
    # pairs, equal pairs among them; each pair is checked at every order
    pairs = [(45.0, 47.0), (3.0 + 0.2j, 2.0 - 0.1j), (0.3, 1.2),          # quotient
             (2.0, 2.04), (1.3 + 0.4j, 1.33 + 0.38j), (0.7, 0.7), (-0.5, -0.5),  # closed form
             (0.0, 0.01), (0.3 + 0.2j, 0.31 + 0.2j), (0.2 - 0.1j, 0.2 - 0.1j)]   # series
    lam, mu = np.array(pairs).T
    x = np.linspace(0.1, pi, 5)
    got = d_table(ZERO, x, lam, mu, 2, 2)
    assert got.shape == (len(pairs), 3, 3, x.size)
    for i, (a, b) in enumerate(pairs):
        one = d_table(ZERO, x, a, b, 2, 2)
        assert np.max(np.abs(got[i] - one)) <= 1e-15 * np.max(np.abs(one))
        for t in range(3):
            for s in range(3):
                ref = np.array([_d_oracle(mp.mpf(float(xi)), a, b, t, s) for xi in x])
                err = np.max(np.abs(got[i, t, s] - ref))
                assert err < 1e-11 * np.max(np.abs(ref)), (a, b, t, s)


def test_s_chain_batch_equals_elementwise():
    lams = np.array([[0.0, 0.3, 0.4999, 0.5], [0.5001, 0.5 + 0.3j, 0.49j, 20.0]])
    x = np.linspace(0.0, pi, 7)
    got = s_chain(x, lams, 2 * P_MAX)
    gotx = sx_chain(x, lams, 2 * P_MAX)
    assert got.shape == gotx.shape == (2 * P_MAX + 1,) + lams.shape + x.shape
    for idx in np.ndindex(lams.shape):
        assert np.array_equal(got[(slice(None),) + idx], s_chain(x, lams[idx], 2 * P_MAX))
        assert np.array_equal(gotx[(slice(None),) + idx], sx_chain(x, lams[idx], 2 * P_MAX))


@pytest.mark.parametrize("order", range(P_MAX + 1))
def test_s_chain_small_lambda_sums_its_own_terms(order):
    # each lam below SMALL_LAMBDA stops its series by its own |lam| max|x|, so a
    # larger lam' in the same call adds no term to it, and a smaller none either.
    # The first pair is lambda_- of the split data at delta = 0.005 and 0.0002.
    x = np.linspace(0.0, pi, 201)
    for lam, other in [(0.4292893218813453 - 0.02j, 0.48585786437626904 - 0.0008j),
                       (0.4552786404500042 - 0.008j, 0.49j), (0.01, 0.45),
                       (0.3 - 0.1j, 0.02j), (0.0, 0.4), (0.2, -0.2)]:
        alone = s_chain(x, [lam], order)[:, 0]
        for pair in ([lam, other], [other, lam]):
            column = s_chain(x, pair, order)[:, pair.index(lam)]
            assert np.array_equal(column.view(np.uint64), alone.view(np.uint64)), (lam, other)


def _closed_chains(x, lam, order):
    """The closed-form s_chain and the sx_chain at every order, as the general
    sums over derivative terms (the reference for the order-0 shortcuts)."""
    lx = np.multiply.outer(lam, x)
    sin, cos = np.sin(lx), np.cos(lx)
    z = lam[:, None]
    terms, xpow, jfac = [], np.ones_like(x), 1.0
    for j in range(order + 1):
        if j:
            jfac *= j
        terms.append(xpow * (sin, cos, -sin, -cos)[j % 4] / jfac)
        xpow = xpow * x
    inv = [np.reciprocal(np.power(z, k)) for k in range(1, order + 2)]
    S = np.empty((order + 1,) + lx.shape, dtype=complex)
    for nu in range(order + 1):
        acc = np.zeros(lx.shape, dtype=complex)
        for j in range(nu + 1):
            acc += terms[j] * ((-1.0) ** (nu - j)) * inv[nu - j]
        S[nu] = acc
    C = np.empty_like(S)
    xpow = np.ones_like(x)
    for nu in range(order + 1):
        C[nu] = xpow * (cos, -sin, -cos, sin)[nu % 4] / factorial(nu)
        xpow = xpow * x
    return S, C


@pytest.mark.parametrize("order", range(P_MAX + 1))
def test_closed_chains_match_the_general_sums_bitwise(order):
    rng = np.random.default_rng(18)
    n = np.concatenate((np.arange(-32, 0), np.arange(1, 33)))
    wide = n + 0.05 * (rng.uniform(-1, 1, n.size) + 1j * rng.uniform(-1, 1, n.size)) / np.abs(n)
    # every sign of both parts and |lam| from SMALL_LAMBDA to 40; 2 wide stands
    # for lam + mu of the coalescent pairs
    z = rng.uniform(0.5, 40.0, 64) * np.exp(2j * pi * rng.random(64))
    lams = np.concatenate((wide, 2 * wide, z, [1.0, -1.0, 2j, -2j]))
    x = np.linspace(0.0, pi, 201)
    S, C = _closed_chains(x, lams, order)
    got = sx_chain(x, lams, order)
    assert np.array_equal(got.view(np.uint64), C.view(np.uint64))
    # the s_chain recurrence rounds unlike the double sum, except at order 0
    got = s_chain(x, lams, order)
    if order == 0:
        assert np.array_equal(got.view(np.uint64), S.view(np.uint64))
    for nu in range(order + 1):
        assert np.max(np.abs(got[nu] - S[nu])) <= 1e-15 * np.max(np.abs(S[nu]))


@pytest.mark.parametrize("lam", [0.05, 0.3, 0.4999, 0.5001, 0.5 + 0.3j, 0.7, 1.2 + 0.5j,
                                 3.0, 20.0])
def test_s_chain_against_mpmath_oracle(lam):
    # every order the coalescent kernel uses, on both sides of SMALL_LAMBDA
    # (lam = 0 is left out: its odd orders are exactly 0)
    order = 2 * P_MAX
    x = np.linspace(0.1, pi, 9)
    got = s_chain(x, lam, order)
    with mp.workdps(50):
        ref = np.array([[complex(c) for c in mp.taylor(lambda z: mp.sin(z * xi) / z, lam, order)]
                        for xi in x]).T
    for nu in range(order + 1):
        assert np.max(np.abs(got[nu] - ref[nu])) < 1e-10 * np.max(np.abs(ref[nu]))


def dx_table(background: BackgroundProblem, x, lam, mu,
             tmax: int, smax: int) -> np.ndarray:
    """Mixed derivatives of dD/dx = (lam + mu - 2 q1(x)) S(x,lam) S(x,mu), as ``d_table``.

    The reference for the factored dP/dx of the main equation.
    """
    x = np.asarray(x, dtype=float)
    shape, lam, mu = _pairs(lam, mu)
    sa = background.s_chain(x, lam, tmax)
    sb = background.s_chain(x, mu, smax)
    w = (lam + mu).reshape((-1,) + (1,) * x.ndim) - 2.0 * background.q1_values(x)
    X = np.zeros(lam.shape + (tmax + 1, smax + 1) + x.shape, dtype=complex)
    for t in range(tmax + 1):
        for s in range(smax + 1):
            acc = w * sa[t] * sb[s]
            if s >= 1:
                acc = acc + sa[t] * sb[s - 1]
            if t >= 1:
                acc = acc + sa[t - 1] * sb[s]
            X[:, t, s] = acc
    return X.reshape(shape + X.shape[1:])


def test_d_model_x_deriv_values():
    assert dx_table(ZERO, 0.0, 1.3, 0.7, 0, 0)[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert dx_table(ZERO, pi / 2, 1.0, 1.0, 0, 0)[0, 0] == pytest.approx(2.0, rel=1e-13)


def test_d_model_x_deriv_matches_numeric_derivative():
    h = 1e-6
    lam, mu = 1.3, 0.7 + 0.2j
    fd = (d_zero(1.0 + h, lam, mu) - d_zero(1.0 - h, lam, mu)) / (2 * h)
    assert dx_table(ZERO, 1.0, lam, mu, 0, 0)[0, 0] == pytest.approx(fd, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=pi - 0.05), finite_complex, finite_complex)
@example(1.0, 0j, 0.03 + 0.01j)   # lam = 0: small-|lam| coalescent series
@example(1.0, 0.02 - 0.01j, 0j)   # mu = 0
@example(1.0, 0j, 0j)             # both 0
def test_d_model_x_deriv_property(x, lam, mu):
    h = 1e-6
    fd = (d_zero(x + h, lam, mu) - d_zero(x - h, lam, mu)) / (2 * h)
    val = dx_table(ZERO, x, lam, mu, 0, 0)[0, 0]
    assert val == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_order_too_high():
    with pytest.raises(OrderTooHighError):
        d_table(ZERO, 1.0, 1.0, 2.0, 0, 5)


def test_model_spectral_data_small():
    ds = ZERO.spectral_data(1)
    assert ds.entry(1).lam == 1.0 and ds.entry(1).M == pytest.approx(-1 / pi)
    assert ds.entry(-1).lam == -1.0 and ds.entry(-1).M == pytest.approx(1 / pi)
    ds3 = ZERO.spectral_data(3)
    assert len(ds3.entries) == 6


def test_model_weight_numbers_via_duality():
    # alpha_n = -1/M_n = pi/n for the simple background data
    for n in (1, 2, -3):
        (alpha,) = coefficients_from_weights([pi / n])
        assert alpha == pytest.approx(-n / pi)
