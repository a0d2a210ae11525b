"""Shooting integrator, root search, residues, weight numbers."""

import tracemalloc
from functools import lru_cache
from math import ceil, cos, pi, sin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpencil import (
    NonFiniteInputError,
    PotentialPair,
    ValidationError,
    WindingAmbiguousError,
    ZeroBackground,
    find_eigenvalues,
    integrate,
    make_split_data,
    run_reconstruction,
    weight_numbers,
    weyl_residues,
    winding_number,
)
from qpencil.forward import DEFAULT_REFINE, STEP_TOL, circle_nodes, sample_circle
from qpencil.zindex import window
from conftest import zero_pair

RNG = np.random.default_rng(20240817)


def smooth_pair(amp=0.5, n_grid=200):
    """A fixed smooth complex potential pair bounded by ~amp."""
    q1 = lambda t: amp * (np.sin(2 * t) + 0.3j * np.cos(t))
    sig = lambda t: amp * (0.4 * (1 - np.cos(t)) - 0.2j * np.sin(t) ** 2)
    return PotentialPair.from_functions(q1, sig, n_grid)


def wronskian_defect(res):
    """max over nodes of |S C1 - S1 C + 1| (needs with_c and with_trace)."""
    S, S1 = res.trace[:, 0, 0], res.trace[:, 0, 1]
    C, C1 = res.trace[:, -1, 0], res.trace[:, -1, 1]
    return np.max(np.abs(S * C1 - S1 * C + 1.0), axis=0)


def coefficients_from_weights(alphas):
    """Solve the triangular duality relation of one group for the M's."""
    m = len(alphas)
    Ms = [None] * m
    for nu in range(m):
        acc = sum(alphas[nu - j] * Ms[m - 1 - j] for j in range(nu))
        Ms[m - 1 - nu] = ((-1.0 if nu == 0 else 0.0) - acc) / alphas[0]
    return [complex(v) for v in Ms]


def weights_from_coefficients(Ms):
    """Inverse of ``coefficients_from_weights``."""
    m = len(Ms)
    alphas = [-1.0 / Ms[m - 1]]
    for nu in range(1, m):
        acc = sum(alphas[nu - j] * Ms[m - 1 - j] for j in range(1, nu + 1))
        alphas.append(-acc / Ms[m - 1])
    return [complex(v) for v in alphas]


def reference_integrate(pot, lams, n_derivs, refine, dtype=complex):
    """The per-step RK4 loop on the chains S_0..S_n and C, with the full trace.

    Each step evaluates the right-hand side four times on the stacked state
    (chains, 2, L); the chain S_k has the sources (2 q1 - 2 lam) S_(k-1) - S_(k-2).
    The potentials are read at nodes and midpoints through ``integrate``'s
    cubic interpolant.  Returns (s, c, trace) shaped like ShootingResult with
    with_c=True.  With ``dtype=np.clongdouble`` the same steps run in extended
    precision on the same double-precision inputs.
    """
    import qpencil.forward as fw

    lams = np.atleast_1d(np.asarray(lams, dtype=complex)).astype(dtype)
    n_s = n_derivs + 1
    m_steps = pot.n_grid * refine
    h = np.finfo(dtype).dtype.type(pi / m_steps)
    sig, q1 = (fw._cubic(vals, 2 * refine).astype(dtype) for vals in (pot.sigma, pot.q1))
    sig_n, q1_n, sig_m, q1_m = sig[::2], q1[::2], sig[1::2], q1[1::2]

    def rhs(Y, sig, q1v):
        g = 2.0 * lams * q1v - lams * lams - sig * sig
        dY = np.empty_like(Y)
        dY[:, 0] = Y[:, 1] + sig * Y[:, 0]
        dY[:, 1] = -sig * Y[:, 1] + g * Y[:, 0]
        if n_s > 1:
            dY[1:n_s, 1] += (2.0 * q1v - 2.0 * lams) * Y[0:n_s - 1, 0]
        if n_s > 2:
            dY[2:n_s, 1] -= Y[0:n_s - 2, 0]
        return dY

    Y = np.zeros((n_s + 1, 2, lams.size), dtype=dtype)
    Y[0, 1] = 1.0            # S(0) = 0, S^[1](0) = 1
    Y[n_s, 0] = 1.0          # C(0) = 1, C^[1](0) = 0
    trace = np.empty((m_steps + 1,) + Y.shape, dtype=dtype)
    trace[0] = Y
    for i in range(m_steps):
        k1 = rhs(Y, sig_n[i], q1_n[i])
        k2 = rhs(Y + 0.5 * h * k1, sig_m[i], q1_m[i])
        k3 = rhs(Y + 0.5 * h * k2, sig_m[i], q1_m[i])
        k4 = rhs(Y + h * k3, sig_n[i + 1], q1_n[i + 1])
        Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trace[i + 1] = Y
    return Y[:n_s, 0], Y[n_s, 0], trace


def assert_close(got, want, rtol=1e-12):
    """Entrywise relative agreement, with a floor at rtol times the largest entry."""
    assert got.shape == want.shape
    floor = rtol * np.max(np.abs(want), initial=0.0)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=floor)


@pytest.mark.parametrize("refine", [3, 10])
@pytest.mark.parametrize("n_derivs", [0, 1, 3])
@pytest.mark.parametrize("n_lams", [0, 1, 7, 300])
def test_integrate_matches_per_step_loop(n_lams, n_derivs, refine):
    # 200 intervals: 600 and 2,000 steps, chunk remainders; 101 intervals at
    # refine 3: 303 steps, so the last block of four holds three
    pots = [smooth_pair()] + ([smooth_pair(n_grid=101)] if refine == 3 else [])
    rng = np.random.default_rng(n_lams + 10 * n_derivs + refine)
    lams = rng.uniform(-6.0, 6.0, n_lams) + 1j * rng.uniform(-1.0, 1.0, n_lams)
    # the L=300 trace at refine 10 would hold ~100 MB per copy
    with_trace_cases = (False, True) if n_lams < 300 or refine == 3 else (False,)
    for pot in pots:
        s, c, trace = reference_integrate(pot, lams, n_derivs, refine)
        for with_c in (False, True):
            for with_trace in with_trace_cases:
                res = integrate(pot, lams, n_derivs=n_derivs, with_c=with_c,
                                refine=refine, with_trace=with_trace)
                assert res.s.shape == (n_derivs + 1, n_lams)
                for k in range(n_derivs + 1):
                    assert_close(res.s[k], s[k])
                if with_c:
                    assert_close(res.c, c)
                else:
                    assert res.c is None
                if with_trace:
                    chains = list(range(n_derivs + 1)) + ([n_derivs + 1] if with_c else [])
                    assert res.trace.shape == (pot.n_grid * refine + 1, len(chains), 2, n_lams)
                    for j, k in enumerate(chains):
                        assert_close(res.trace[:, j], trace[:, k])
                else:
                    assert res.trace is None


def rough_pair(seed=5, n_grid=200):
    """q1 = sign(sin 3x) + 0.5i and sigma a seeded complex random walk from 0."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, pi, n_grid + 1)
    steps = np.array([1.0, 1j]) @ rng.normal(scale=0.1, size=(2, n_grid))
    return PotentialPair(x=x, q1=np.sign(np.sin(3 * x)) + 0.5j,
                         sigma=np.concatenate([[0.0], np.cumsum(steps)]))


@pytest.mark.parametrize("n_lams, radius", [(64, 3.5), (16, 20.0), (16, 50.0)])
def test_integrate_against_extended_precision_loop(n_lams, radius):
    # the block matrices evaluated as degree-16 polynomials in lam, with I
    # added after the sum, keep double-precision accuracy on a rough potential
    pot = rough_pair()
    lams = circle_nodes(0.5, radius, n_lams)
    s, c, _ = reference_integrate(pot, lams, 1, DEFAULT_REFINE, dtype=np.clongdouble)
    res = integrate(pot, lams, n_derivs=1, with_c=True)
    for got, want in list(zip(res.s, s)) + [(res.c, c)]:
        want = want.astype(complex)
        assert np.max(np.abs(got - want)) <= 3e-14 * np.max(np.abs(want))


def test_integrate_memory_is_bounded_by_the_chunk():
    pot = smooth_pair()
    zs = circle_nodes(0.0, 2.5, 1025)
    tracemalloc.start()
    try:
        integrate(pot, zs, n_derivs=1, with_c=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (steps, L) array of 2x2 series would be 2,000 x 1,025 x 128 B = 262 MB
    assert peak < 8e6


def test_coefficient_tables_are_built_once_per_refine(monkeypatch):
    import qpencil.forward as fw

    calls = []
    inner = fw._step_polynomials

    def counting(h, *args):
        calls.append(round(pi / h))
        return inner(h, *args)

    monkeypatch.setattr(fw, "_step_polynomials", counting)
    pot = smooth_pair(n_grid=50)
    lams = np.array([1.5 + 0.2j, -2.0])
    first = integrate(pot, lams, n_derivs=1, refine=4)
    again = integrate(pot, lams, n_derivs=1, refine=4)
    assert calls == [200]
    assert np.array_equal(first.s, again.s)
    integrate(pot, lams, refine=6)
    integrate(pot, lams, with_c=True, refine=6)
    assert calls == [200, 300]
    # a traced call reads the per-step table that the block table was paired from
    integrate(pot, lams, refine=4, with_trace=True)
    assert calls == [200, 300]
    fresh = smooth_pair(n_grid=50)
    integrate(fresh, lams, refine=4, with_trace=True)
    integrate(fresh, lams, refine=4)
    assert calls == [200, 300, 200]


def stride_two_pairing(X):
    """Adjacent steps paired from stride-2 views, in a fixed association order.

    The oracle of ``_pair_steps``: any change to how the block table is paired
    must keep its bits.
    """
    d, n = X.shape[0], X.shape[2] // 2
    X = X.reshape(d, 2, 2, n, 2)        # the last axis is the step's parity
    X0, X1 = X[..., 0], X[..., 1]
    P = np.zeros((2 * d - 1, 2, 2, n), dtype=complex)
    for i in range(d):                  # lam^i of X1 times every power of X0
        P[i:i + d] += X1[i, :, 0, None] * X0[:, None, 0] + X1[i, :, 1, None] * X0[:, None, 1]
    P[:d] += X0 + X1
    return P.reshape(2 * d - 1, 4, n)


@pytest.mark.parametrize("n_grid, refine", [(200, 10), (101, 3)])
def test_block_table_matches_the_stride_two_pairing(n_grid, refine):
    # 101 intervals at refine 3: 303 steps, so the last block is padded; any
    # change of the pairing's association order changes the table's bits
    import qpencil.forward as fw

    pot = smooth_pair(n_grid=n_grid)
    X = fw._coefficients(pot, refine, per_step=True)
    X = np.concatenate([X, np.zeros(X.shape[:2] + (-X.shape[2] % fw.BLOCK_STEPS,))], axis=2)
    for _ in range(fw.BLOCK_STEPS.bit_length() - 1):
        X = stride_two_pairing(X)
    assert np.array_equal(fw._coefficients(pot, refine, per_step=False), X)


@pytest.mark.parametrize("n_nodes", [2, 3, 4, 5, 201])
def test_cubic_reading_is_the_four_point_lagrange_interpolant(n_nodes):
    # interval i reads nodes i-1..i+2, shifted inwards at the ends; 2 and 3 nodes
    # give the line and the parabola through them
    import qpencil.forward as fw

    p, n, sub = min(4, n_nodes), n_nodes - 1, 7
    x = np.linspace(0.0, pi, n_nodes)
    values = np.exp(1j * x) + x ** 3
    got = fw._cubic(values, sub)
    j = np.arange(n * sub + 1)
    start = np.clip(np.minimum(j // sub, n - 1) - 1, 0, n + 1 - p)
    s = (j - start * sub) / sub
    want = sum(np.prod([(s - m) / (k - m) for m in range(p) if m != k], axis=0) * values[start + k]
               for k in range(p))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(values))
    assert np.array_equal(got[::sub], values)
    xs = np.linspace(0.0, pi, n * sub + 1)
    assert np.max(np.abs(fw._cubic(x ** (p - 1) + 0j, sub) - xs ** (p - 1))) <= 1e-13


@lru_cache(maxsize=None)
def cubic_reading_spectrum(n_grid, refine):
    """|n| <= 8 entries of smooth potentials on n_grid intervals (refine None: the rule's)."""
    q1 = lambda t: 0.1 + 0.2 * np.cos(t) + 0.1j * np.sin(2 * t)
    sig = lambda t: 0.3 * np.sin(t) ** 2 + 0.15j * t
    pot = PotentialPair.from_functions(q1, sig, n_grid)
    eigs = find_eigenvalues(pot, 8, pot.omega0(), refine=refine)
    data = weyl_residues(pot, eigs, refine=refine)
    return [data.entry(n) for n in window(8)]


def test_cubic_reading_converges_at_fourth_order():
    # q1 and sigma read as cubics: at |n| <= 8 the eigenvalues and residues on 201
    # nodes agree with those on 3,201 nodes to 1e-8 and 1e-7 (the piecewise-linear
    # reading gave 3.5e-6 and 3.3e-5)
    got, want = cubic_reading_spectrum(200, 10), cubic_reading_spectrum(3200, 10)
    assert max(abs(g.lam - w.lam) for g, w in zip(got, want)) <= 1e-8
    assert max(abs(g.M / w.M - 1.0) for g, w in zip(got, want)) <= 1e-7


def test_default_refine_keeps_the_cubic_reading_accuracy():
    # the rule's refine (7 for |lam| <= 8.6 on 200 intervals) against the 3,200-interval
    # refine-10 solve: 7.0e-9 in lam and 5.1e-9 in M, where refine 10 reads 1.7e-9 and 5.0e-9
    got, want = cubic_reading_spectrum(200, None), cubic_reading_spectrum(3200, 10)
    assert max(abs(g.lam - w.lam) for g, w in zip(got, want)) <= 1e-8
    assert max(abs(g.M / w.M - 1.0) for g, w in zip(got, want)) <= 1e-7


def old_refine(potentials, lam_max, count):
    """The rule this one replaced: refine 5 under both tolerances, else the cap."""
    D = abs(np.diff([potentials.q1, potentials.sigma], 2)).max(initial=0.0) / 8
    rk4 = (pi * lam_max / (5 * potentials.n_grid)) ** 4 * lam_max / 120
    halve = rk4 <= STEP_TOL and 2 * rk4 * lam_max * lam_max <= D
    steps = 5 if halve else max(DEFAULT_REFINE, ceil(2000 / potentials.n_grid))
    return max(1, ceil(min(steps, 5 * (rk4 / STEP_TOL) ** 0.25))) if count else steps


_amp = st.floats(min_value=0.0, max_value=2.0)


@settings(max_examples=60, deadline=None)
@given(st.tuples(_amp, _amp, _amp, _amp), st.integers(1, 4), st.sampled_from([50, 200, 800]),
       st.floats(min_value=0.1, max_value=30.0))
def test_refine_is_the_fewest_steps_under_its_tolerance(amps, k, n_grid, lam_max):
    import qpencil.forward as fw

    a, b, c, d = amps
    pot = PotentialPair.from_functions(lambda t: a * np.cos(k * t) + 1j * b * np.sin(t),
                                       lambda t: c * np.sin(t) ** 2 + 1j * d * np.sin(k * t),
                                       n_grid)
    D = abs(np.diff([pot.q1, pot.sigma], 2)).max(initial=0.0) / 8
    cap = max(DEFAULT_REFINE, ceil(2000 / n_grid))
    rk4 = lambda r: (pi * lam_max / (r * n_grid)) ** 4 * lam_max / 120
    refines = {}
    for count, tol in ((True, STEP_TOL), (False, min(STEP_TOL, D / (2 * lam_max ** 2)))):
        r = refines[count] = fw._refine(pot, lam_max, count=count)
        assert 1 <= r <= cap
        assert r == cap or rk4(r) <= tol * (1 + 1e-12)
        assert r == 1 or rk4(r - 1) > tol * (1 - 1e-12)     # no fewer steps would do
        assert r <= old_refine(pot, lam_max, count)
    assert refines[True] <= refines[False]


@pytest.mark.parametrize("n_grid, n_max, refine", [(200, 6, 5), (200, 7, 6), (50, 1, 4),
                                                   (50, 2, 6), (800, 16, 5), (800, 17, 6)])
def test_default_refine_is_the_fewest_steps_under_the_tolerance(n_grid, n_max, refine):
    # |lam| <= n_max + |omega0| + 1/2 with omega0 ~ 0.  The fewest steps whose RK4 error
    # stays under STEP_TOL (refine 5 up to |lam| = 6.57 on 200 intervals, 2.17 on 50) and
    # under D / (2 lam^2) (refine 5 up to 17.1 on 800); just past each cut, 6
    import qpencil.forward as fw

    pot = smooth_pair(amp=0.35, n_grid=n_grid)
    eigs = find_eigenvalues(pot, n_max, pot.omega0())
    assert [k[1] for k in pot._tables if k[0] == "residues"] == [refine]
    weight_numbers(pot, eigs)
    assert (refine, True) in pot._tables
    assert fw._window_refine(pot, n_max, pot.omega0(), refine=7) == 7


def test_potentials_that_a_line_reads_exactly_keep_refine_10():
    # constant q1 and linear sigma: the cubic reading gains nothing, so halving the
    # steps would only add RK4 error
    pot = PotentialPair.from_functions(lambda t: 0.2 + 0.1j, lambda t: 0.3 * t)
    find_eigenvalues(pot, 1, pot.omega0())
    assert [k[1] for k in pot._tables if k[0] == "residues"] == [DEFAULT_REFINE]


def test_the_sweep_count_takes_one_call_at_refine_1(circle_batches):
    # the sweep's circle |lam - 0.5| = 0.2 (``group_radius``): |lam| <= 0.7 on 200 intervals,
    # where RK4's error (h lam)^4 lam / 120 is 8.5e-11 at refine 1, under STEP_TOL (and
    # under D / (2 lam^2), so the moment rule takes 1 too)
    pot = run_reconstruction(make_split_data(0.0), ZeroBackground()).as_potentials()
    assert winding_number(pot, 0.5, 0.2) == 2
    assert circle_batches == [(32, 0)]
    assert pot.n_grid == 200 and {k[0] for k in pot._tables} == {1}


@pytest.mark.parametrize("center, refine", [(3.0, 3), (20.0, DEFAULT_REFINE)])
def test_a_count_takes_the_fewest_steps_under_step_tol(center, refine):
    # Delta = sin(pi lam)/lam, one root inside.  A line reads the zero potentials exactly,
    # so the moment rule takes refine 10 (the D term) where a count takes 3 at |lam| = 3.3;
    # at 20.3 STEP_TOL would ask for 21, and the count keeps the rule's 10
    pot = zero_pair(200)
    assert winding_number(pot, center, 0.3) == 1
    assert {k[0] for k in pot._tables} == {refine}
    assert sample_circle(pot, center, 0.3, sums=1).count == 1
    assert {k[0] for k in pot._tables} == {refine, DEFAULT_REFINE}


def test_potentials_are_read_only_copies():
    q1 = np.linspace(0.0, 1.0, 11) + 0.5j
    pot = PotentialPair(x=np.linspace(0.0, pi, 11), q1=q1, sigma=np.zeros(11))
    for arr in (pot.q1, pot.sigma):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    q1[0] = 2.0           # the caller's array stays writeable, the copy does not follow
    assert pot.q1[0] == 0.5j


def test_cached_tables_stay_small():
    pot = smooth_pair()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        integrate(pot, [1.0 + 0.5j], n_derivs=1)
        integrate(pot, [1.0 + 0.5j], with_trace=True)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # per-step table 5 x 4 x 2,000 and block table 17 x 4 x 500 complex: 1.18 MB
    assert retained < 1.5e6


@pytest.mark.parametrize("kwargs", [{"refine": 0}, {"n_derivs": -1}, {"refine": 2.5}])
def test_integrate_rejects_bad_counts(kwargs):
    with pytest.raises(ValidationError):
        integrate(zero_pair(10), [1.0], **kwargs)


def test_zero_potentials_explicit_solution():
    pot = zero_pair(200)
    res = integrate(pot, np.array([1.0, 0.5, 2.0]), with_c=True)
    assert abs(res.s[0, 0] - sin(pi)) < 1e-10
    assert abs(res.s[0, 1] - 2.0) < 1e-10          # sin(pi/2)/0.5
    assert abs(res.c[0] - cos(pi)) < 1e-10
    assert abs(res.c[2] - cos(2 * pi)) < 1e-9


def test_char_delta_zeros_at_integers():
    pot = zero_pair(200)
    for n in (1, 2, 3, -2):
        assert abs(integrate(pot, float(n)).s[0, 0]) < 1e-10
    assert complex(integrate(pot, 0.5).s[0, 0]) == pytest.approx(2.0, abs=1e-10)


def test_wronskian_constant_along_trace():
    pot = smooth_pair()
    res = integrate(pot, np.array([2.0 + 1.0j, 0.3 - 0.7j]), with_c=True,
                    with_trace=True)
    assert np.max(wronskian_defect(res)) < 1e-9


def test_step_halving_fourth_order():
    pot = smooth_pair()
    lam = 2.0 + 1.0j
    d = [complex(integrate(pot, lam, refine=r).s[0, 0]) for r in (2, 4, 8)]
    e1 = abs(d[0] - d[1])
    e2 = abs(d[1] - d[2])
    assert 11.0 < e1 / e2 < 21.0   # ~16 for a 4th-order scheme


def test_find_eigenvalues_zero_potentials():
    pot = zero_pair(200)
    eigs = find_eigenvalues(pot, 5, 0.0)
    for n in window(5):
        assert abs(eigs.entry(n).lam - n) < 1e-8
    assert all(g.size == 1 for g in eigs.groups)


def test_weyl_residues_zero_potentials():
    pot = zero_pair(200)
    eigs = find_eigenvalues(pot, 5, 0.0)
    full = weyl_residues(pot, eigs)
    for n in window(5):
        assert abs(full.entry(n).M - (-n / pi)) < 1e-6


def test_weight_numbers_zero_potentials():
    pot = zero_pair(200)
    eigs = find_eigenvalues(pot, 4, 0.0)
    alphas = weight_numbers(pot, eigs)
    for n in window(4):
        assert abs(alphas[n] - pi / n) < 1e-6


def test_weight_residue_duality_random_smooth():
    pot = smooth_pair(amp=0.35)
    omega0 = pot.omega0()
    eigs = find_eigenvalues(pot, 5, omega0)
    full = weyl_residues(pot, eigs)
    alphas = weight_numbers(pot, eigs)
    for n in window(5):
        assert abs(alphas[n] * full.entry(n).M + 1.0) < 1e-5


def test_weight_numbers_batch_the_groups_of_one_size(monkeypatch):
    import qpencil.forward as fw

    pot = smooth_pair(amp=0.35)
    eigs = find_eigenvalues(pot, 8, pot.omega0())
    batched = weight_numbers(pot, eigs)
    inner, calls = fw.integrate, []

    def one_at_a_time(potentials, lams, n_derivs=0, **kwargs):
        calls.append(np.size(lams))
        parts = [inner(potentials, [lam], n_derivs, **kwargs) for lam in lams]
        return fw.ShootingResult(lams=np.asarray(lams), s=None, c=None,
                                 trace=np.concatenate([p.trace for p in parts], axis=3),
                                 x_refined=parts[0].x_refined)

    monkeypatch.setattr(fw, "integrate", one_at_a_time)
    single = weight_numbers(pot, eigs)
    assert calls == [16]          # 16 simple roots, one traced call
    for n in window(8):
        assert abs(batched[n] - single[n]) <= 1e-13 * abs(single[n])


def counting_integrate(monkeypatch):
    """Patch ``forward.integrate`` to record the lambdas and with_c of each call."""
    import qpencil.forward as fw

    inner, calls = fw.integrate, []

    def counting(potentials, lams, *args, **kwargs):
        calls.append((np.array(lams, dtype=complex), kwargs.get("with_c", False)))
        return inner(potentials, lams, *args, **kwargs)

    monkeypatch.setattr(fw, "integrate", counting)
    return calls


def test_weyl_residues_take_simple_roots_from_newton(monkeypatch):
    import qpencil.forward as fw

    pot = smooth_pair(amp=0.35)
    eigs = find_eigenvalues(pot, 5, pot.omega0())
    assert all(g.size == 1 for g in eigs.groups)
    calls = counting_integrate(monkeypatch)
    full = weyl_residues(pot, eigs)
    monkeypatch.undo()
    assert calls == []
    # both took the rule's refine for the window |n| <= 5
    refine = fw._window_refine(pot, 5, pot.omega0())
    assert refine == 4 and list(pot._tables[("residues", refine)])
    lams = np.array([eigs.entry(n).lam for n in window(5)])
    res = integrate(pot, lams, n_derivs=1, with_c=True, refine=refine)
    got = np.array([full.entry(n).M for n in window(5)])
    assert np.max(np.abs(got / (-res.c / res.s[1]) - 1.0)) <= 1e-13


@pytest.mark.parametrize("case", ["equal arrays", "one ulp off", "foreign M", "another refine"])
def test_weyl_residues_integrate_what_newton_did_not_accept(monkeypatch, case):
    import qpencil.forward as fw

    pot = smooth_pair(amp=0.35)
    eigs = find_eigenvalues(pot, 5, pot.omega0())
    # Newton took the rule's refine, 4 for this window
    refine = DEFAULT_REFINE if case == "another refine" else fw._window_refine(pot, 5, pot.omega0())
    data, fresh = eigs, window(5)
    if case == "equal arrays":          # another PotentialPair holds no record
        pot = PotentialPair(x=pot.x, q1=pot.q1, sigma=pot.sigma)
    elif case == "one ulp off":
        lam = eigs.entry(2).lam
        data, fresh = eigs.replace_entry(2, lam=complex(np.nextafter(lam.real, 9.0), lam.imag)), [2]
    elif case == "foreign M":           # the eigenvalues and M of another potential
        other = smooth_pair(amp=0.3)
        data = weyl_residues(other, find_eigenvalues(other, 5, other.omega0()))
    calls = counting_integrate(monkeypatch)
    full = weyl_residues(pot, data, refine=refine)
    monkeypatch.undo()
    [(lams, with_c)] = calls
    assert with_c and len(lams) == len(fresh)
    assert set(lams.tolist()) == {data.entry(n).lam for n in fresh}
    res = integrate(pot, lams, n_derivs=1, with_c=True, refine=refine)
    want = dict(zip(lams.tolist(), -res.c / res.s[1]))
    for n in fresh:
        assert full.entry(n).M == want[data.entry(n).lam]
        assert full.entry(n).M != data.entry(n).M


def test_duality_triangular_system_multiplicity_two():
    Ms = [-1 / pi, -1j / (2 * pi)]
    alphas = weights_from_coefficients(Ms)
    back = coefficients_from_weights(alphas)
    assert back[0] == pytest.approx(Ms[0], rel=1e-12)
    assert back[1] == pytest.approx(Ms[1], rel=1e-12)
    # nu = 0 relation: alpha_g M_(g+m-1) = -1
    assert alphas[0] * Ms[1] == pytest.approx(-1.0, rel=1e-12)


def double_eigenvalue_pair(case):
    """Potentials on 201 nodes whose eigenvalues of index -1 and 1 coincide.

    "constant": q1 = i, sigma = 0.  Then Delta = sin(k pi)/k with
    k^2 = (lam - i)^2 + 1, the eigenvalues are i +- sqrt(n^2 - 1), and n = 1
    gives a double one at i, where the Weyl function -k cot(k pi) has the
    Laurent pair (0, -2/pi).  "varying": non-constant q1 and complex sigma,
    with the constant c of q1 from a Newton solve of Delta = Delta' = 0 in
    (lam, c) at refine 5 (the rule takes 4 for |n| <= 3); the double eigenvalue
    sits near -0.02271 + 0.99435i.
    """
    if case == "constant":
        return PotentialPair.from_functions(lambda t: 1j, lambda t: 0.0)
    c = -0.060451775486695516 + 1.0134947651969257j
    return PotentialPair.from_functions(
        lambda t: c + 0.3 * np.cos(t) + 0.2j * np.sin(2 * t),
        lambda t: 0.25 * np.sin(t) ** 2 + 0.1j * t)


def test_double_eigenvalue_forward_path():
    pot = double_eigenvalue_pair("constant")
    eigs = find_eigenvalues(pot, 3, pot.omega0())
    groups = [g for g in eigs.groups if g.size > 1]
    assert [g.members for g in groups] == [(-1, 1)]
    assert abs(groups[0].lam - 1j) < 1e-9
    for n in (-3, -2, 2, 3):
        assert abs(eigs.entry(n).lam - (1j + np.sign(n) * np.sqrt(n * n - 1))) < 1e-9
    M = weyl_residues(pot, eigs).group_coefficients(groups[0])
    assert abs(M[0]) < 1e-9
    assert abs(M[1] + 2 / pi) < 1e-9


@pytest.mark.parametrize("case", ["constant", "varying"])
def test_weight_residue_duality_double_eigenvalue(case):
    pot = double_eigenvalue_pair(case)
    eigs = find_eigenvalues(pot, 3, pot.omega0())
    (g,) = [g for g in eigs.groups if g.size > 1]
    want = np.array(weyl_residues(pot, eigs).group_coefficients(g))
    alphas = weight_numbers(pot, eigs)
    got = np.array(coefficients_from_weights([alphas[m] for m in g.members]))
    assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


def test_eigenvalue_shift_decays_for_smooth_potentials():
    pot = smooth_pair(amp=0.3)
    omega0 = pot.omega0()
    eigs = find_eigenvalues(pot, 12, omega0)
    shifts = {n: abs(eigs.entry(n).lam - n - omega0) for n in window(12)}
    low = np.sqrt(sum(shifts[n] ** 2 for n in window(6)))
    high = np.sqrt(sum(shifts[n] ** 2 for n in window(12) if abs(n) > 6))
    assert high < low


def test_winding_zero_potentials():
    pot = zero_pair(200)
    assert winding_number(pot, 1.0, 0.3) == 1
    assert winding_number(pot, 1.5, 0.2) == 0
    # sin(lam pi)/lam has zeros at +-1, +-2 inside |lam| < 2.5; lam = 0 is removable
    assert winding_number(pot, 0.0, 2.5) == 4


def test_cluster_disc_search_on_shifted_problem():
    from qpencil.forward import _cluster_search

    pot = smooth_pair(amp=0.3)
    omega0 = pot.omega0()
    direct = find_eigenvalues(pot, 3, omega0)
    # the disc |lam - omega0| < 3/2 holds the roots of -1 and 1, sorted by real part
    in_disc = _cluster_search(pot, omega0, 1.5, DEFAULT_REFINE)
    assert len(in_disc) == 2
    for n, lam in zip((-1, 1), in_disc):
        assert abs(direct.entry(n).lam - lam) < 1e-8


def test_residue_contour_rejects_unseparable_group():
    from qpencil import PoleTooCloseError
    from qpencil.spectral_data import SpectralDataSet, SpectralEntry

    entries = [SpectralEntry(n=-1, lam=0.5, M=None),
               SpectralEntry(n=1, lam=0.5, M=None),
               SpectralEntry(n=2, lam=0.5 + 5e-9, M=None)]
    eigs = SpectralDataSet.from_entries(entries, omega0=0.0)
    assert eigs.groups[0].size == 2
    with pytest.raises(PoleTooCloseError):
        weyl_residues(zero_pair(50), eigs)


def test_group_radius_sees_the_tail():
    from qpencil import PoleTooCloseError
    from qpencil.forward import group_radius
    from qpencil.spectral_data import SpectralDataSet, SpectralEntry

    def double(lam, tail, *more):
        return SpectralDataSet.from_entries([SpectralEntry(n=-1, lam=lam, M=1.0),
                                             SpectralEntry(n=1, lam=lam, M=2.0), *more],
                                            tail=tail, omega0=0.0)

    # a double group at 1.85 in the window +-1: the zero tail's lam = 2 at n = 2 lies
    # 0.15 away, so the circle is 0.075; the window alone leaves the cap 0.2
    for tail, radius in ((ZeroBackground(), 0.075), (None, 0.2)):
        ds = double(1.85, tail)
        assert group_radius(ds, ds.groups[0]) == pytest.approx(radius, rel=1e-12)
    # a gap under 2e-8, to the tail or to another window entry, cannot be separated
    for ds in (double(2 - 1.5e-8, ZeroBackground()),
               double(1.85, None, SpectralEntry(n=2, lam=1.85 + 1.5e-8, M=1.0))):
        with pytest.raises(PoleTooCloseError, match="cannot separate the group at -1"):
            group_radius(ds, ds.groups[0])
    ds = double(1.85, None, SpectralEntry(n=2, lam=1.85 + 3e-8, M=1.0))
    assert group_radius(ds, ds.groups[0]) == pytest.approx(1.5e-8, rel=1e-6)


def test_cluster_count_mismatch_raises(monkeypatch):
    import qpencil.forward as fw
    from qpencil import RootNotConvergedError

    # every disc search comes back one root short, up to the disc of index n_max
    inner = fw._cluster_search
    discs = []

    def short(potentials, center, radius, refine, outer):
        discs.append(radius)
        return inner(potentials, center, radius, refine, outer)[1:]

    monkeypatch.setattr(fw, "_cluster_search", short)
    pot = _random_pair(0)
    with pytest.raises(RootNotConvergedError, match="no disc"):
        find_eigenvalues(pot, 3, pot.omega0())
    assert discs[-1] == 3.5


def test_rejected_disc_grows(monkeypatch, circle_batches):
    import qpencil.forward as fw

    pot = _random_pair(0)
    omega0 = pot.omega0()
    want = find_eigenvalues(pot, 6, omega0)
    first = len(circle_batches)
    # the first disc comes back one root short; the next larger disc is accepted
    inner = fw._cluster_search
    calls = []

    def short_once(potentials, center, radius, refine, outer):
        calls.append(radius)
        found = inner(potentials, center, radius, refine, outer)
        return found[1:] if len(calls) == 1 else found

    monkeypatch.setattr(fw, "_cluster_search", short_once)
    got = find_eigenvalues(pot, 6, omega0)
    assert calls == [calls[0], calls[0] + 1]
    # each disc is sampled once, doubling from 16 nodes to 128 and to 64
    assert circle_batches[first:] == [(32, 0), (32, 0), (64, 0), (32, 0), (32, 0)]
    for n in window(6):
        assert abs(got.entry(n).lam - want.entry(n).lam) < 1e-8


def split_disc_polish(monkeypatch, delta):
    """(seeds, polished roots, integrate calls) of each disc polish that finds the
    eigenvalues of the split data's recovered potentials, as ``roundtrip_check`` does."""
    import qpencil.forward as fw

    data = make_split_data(delta)
    pot = run_reconstruction(data, ZeroBackground()).as_potentials()
    newton, inner, polishes, calls = fw._newton_batch, fw.integrate, [], []

    def counting(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    def polish(potentials, starts, refine, max_iter=fw.NEWTON_MAX_ITER, ns=None):
        if ns is not None:              # the tail batch
            return newton(potentials, starts, refine, max_iter, ns)
        calls.clear()
        lam, failed = newton(potentials, starts, refine, max_iter, ns)
        polishes.append((np.array(starts), lam, len(calls)))
        return lam, failed

    monkeypatch.setattr(fw, "integrate", counting)
    monkeypatch.setattr(fw, "_newton_batch", polish)
    find_eigenvalues(pot, 3, data.omega0)
    return polishes


@pytest.mark.parametrize("delta", [0.05, 0.01, 1e-3, 1e-4])
def test_deflated_disc_seeds_land_on_the_roots(monkeypatch, delta):
    # undeflated, the roots at +-2 alias into the power sums: seeds 5e-5 or more off
    [(seeds, roots, _)] = split_disc_polish(monkeypatch, delta)
    assert seeds.size == 2
    assert np.max(np.abs(seeds - roots)) <= 1e-10


@pytest.mark.parametrize("delta", [0.01, 1e-3, 1e-4])
def test_deflated_disc_polish_takes_one_integrate_call(monkeypatch, delta):
    # undeflated, the polish took 3 or 4 calls
    [(_, _, calls)] = split_disc_polish(monkeypatch, delta)
    assert calls == 1


@pytest.mark.parametrize("fault", ["unconverged", "outside"])
def test_cluster_search_rejects_a_bad_polish(monkeypatch, fault):
    import qpencil.forward as fw
    from qpencil import RootNotConvergedError

    inner = fw._newton_batch

    def faulty(*args, **kwargs):
        lam, failed = inner(*args, **kwargs)
        if fault == "unconverged":
            failed[0] = True
        else:
            lam[0] = args[0].omega0() + 1.6    # just outside the disc
        return lam, failed

    monkeypatch.setattr(fw, "_newton_batch", faulty)
    pot = smooth_pair(amp=0.3)
    with pytest.raises(RootNotConvergedError, match="inside"):
        fw._cluster_search(pot, pot.omega0(), 1.5, DEFAULT_REFINE)


def test_potentials_csv_roundtrip(tmp_path):
    pot = smooth_pair(n_grid=50)
    path = tmp_path / "pot.csv"
    pot.to_csv(path)
    back = PotentialPair.from_csv(path)
    assert np.array_equal(back.x, pot.x)
    assert np.array_equal(back.q1, pot.q1)
    assert np.array_equal(back.sigma, pot.sigma)


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteInputError):
        PotentialPair(x=np.linspace(0, pi, 3),
                      q1=np.array([0.0, np.nan, 0.0]),
                      sigma=np.zeros(3))
    pot = zero_pair(10)
    with pytest.raises(NonFiniteInputError):
        integrate(pot, np.array([np.inf]))


def test_circle_sample_counts_and_moments():
    pot = zero_pair(200)
    # Delta = sin(lam pi)/lam: one root at 1, Weyl residue -1/pi
    s = sample_circle(pot, 1.0, 0.3, sums=1, laurent=1)
    assert s.count == 1
    assert s.zs.size == 64
    ps, lau = s.moments(1, 1)
    assert abs(ps - 1.0) < 1e-8
    assert abs(lau + 1 / pi) < 1e-6
    # roots +-1, +-2 inside |lam| < 2.5: power sums 0 and 1 + 1 + 4 + 4
    s = sample_circle(pot, 0.0, 2.5, sums=2)
    assert s.zs.size == 256
    ps = s.moments(2)
    assert abs(ps[0]) < 1e-6 and abs(ps[1] - 10) < 1e-6


def test_cluster_search_samples_the_disc_once(circle_batches):
    pot = smooth_pair(amp=0.3)
    find_eigenvalues(pot, 3, pot.omega0())
    assert circle_batches == []        # every root stays in its slot: no disc
    pot = _random_pair(0)
    find_eigenvalues(pot, 6, pot.omega0())
    # one accepted disc, sampled once by doubling to 128 nodes, no chains
    assert circle_batches == [(32, 0), (32, 0), (64, 0)]


def test_multiple_root_circles_take_no_chains(circle_batches):
    # q1 = i, sigma = 0: lam^2 - 2i lam = n^2 has the double root i at n = +-1
    pot = PotentialPair.from_functions(lambda t: 1j, lambda t: 0.0)
    eigs = find_eigenvalues(pot, 2, pot.omega0())
    assert abs(eigs.entry(1).lam - 1j) < 1e-9 and eigs.entry(-1).lam == eigs.entry(1).lam
    # the disc, the cluster's local circle and its half-radius check, each one call of 32 nodes
    assert circle_batches == [(32, 0)] * 3


def test_power_sums_match_the_constant_potential_oracle():
    # q1 = a, sigma = 0: Delta vanishes where lam^2 - 2 a lam = n^2
    a = 0.3 + 0.2j
    pot = PotentialPair.from_functions(lambda t: a, lambda t: 0.0)
    n = np.arange(1, 4)
    roots = np.concatenate([a + np.sqrt(a * a + n * n), a - np.sqrt(a * a + n * n)])
    inside = roots[np.abs(roots - 0.1) < 2.5]
    s = sample_circle(pot, 0.1, 2.5, sums=4)
    assert s.count == len(inside) == 4
    for p, ps in enumerate(s.moments(4), start=1):
        assert abs(ps - np.sum(inside ** p)) < 1e-9


def test_winding_resamples_a_phase_step_near_pi(circle_batches):
    # Delta = sin(pi lam)/lam has the 60 roots +-1..+-30 inside |lam| < 30.5.  On
    # 16 nodes arg Delta steps by at most 1.53 rad but winds 0 times; on 256 it
    # steps by up to 2.3 rad and winds 60 times; 512 nodes resolve the phase
    s = sample_circle(zero_pair(200), 0.0, 30.5)
    assert circle_batches == [(32, 0), (32, 0), (64, 0), (128, 0), (256, 0)]
    assert s.count == 60 and s.zs.size == 512


@pytest.mark.parametrize("factor", [1.05, 0.95, 1.001])
@pytest.mark.parametrize("radius, phi", [(0.3, 0.0), (0.3, pi / 32), (0.3, 0.3), (2.0, 0.3)])
def test_a_root_near_the_circle_is_counted_right_or_refused(factor, radius, phi):
    # Delta = sin(pi lam)/lam; the root 3 lies factor * radius from the centre, on
    # the ray of a 16-node (phi = 0), between two 32-nodes (pi / 32) or off both
    center = 3.0 - factor * radius * np.exp(1j * phi)
    want = sum(abs(k - center) < radius for k in range(-10, 11) if k)
    try:
        count = sample_circle(zero_pair(200), center, radius).count
    except WindingAmbiguousError:
        assert factor == 1.001      # 5% off the circle, the phase resolves
        return
    assert count == want


@pytest.mark.parametrize("case", ["split", "constant"])
def test_requested_moments_match_a_1024_node_sample(monkeypatch, case):
    import qpencil.forward as fw

    if case == "split":     # the sweep's delta = 0 recovered potentials
        pot = run_reconstruction(make_split_data(0.0), ZeroBackground()).as_potentials()
        center, radius = 0.5, 0.05
    else:
        pot, center, radius = double_eigenvalue_pair("constant"), 1j, 0.2
    got = sample_circle(pot, center, radius, sums=1, laurent=2)
    monkeypatch.setattr(fw, "CIRCLE_NODES", (512, 1024))
    want = sample_circle(pot, center, radius, sums=1, laurent=2)
    assert got.zs.size < want.zs.size == 1024
    assert got.count == want.count == 2
    err = np.abs(got.moments(1, 2) - want.moments(1, 2))
    assert np.max(err) <= 1e-10 * np.max(np.abs(want.moments(1, 2)))


def _random_pair(seed):
    rng = np.random.default_rng(seed)
    k = np.arange(1, 4)
    x = np.linspace(0, pi, 101)
    coef = np.exp(2j * pi * rng.random((4, 3))) / k
    q1 = coef[0] @ np.cos(np.outer(k, x)) + coef[1] @ np.sin(np.outer(k, x))
    sigma = coef[2] @ np.sin(np.outer(k, x)) + coef[3] @ (1 - np.cos(np.outer(k, x)))
    return PotentialPair(x=x, q1=q1, sigma=sigma)


@pytest.mark.parametrize("seed, pair", [(0, "1 and 2"), (8, "-1 and 4")])
def test_coinciding_tail_roots_are_not_a_multiple_eigenvalue(seed, pair):
    pot = _random_pair(seed)
    omega0 = pot.omega0()
    # Newton from n + omega0 alone lands two indices on one simple root: seed 0
    # collapses 1, 2, 3; seed 8 puts 4 on the root of -1 (opposite signs).
    # Those iterates leave their slots, and the disc search separates the roots.
    eigs = find_eigenvalues(pot, 6, omega0)
    a, b = (int(k) for k in pair.split(" and "))
    assert abs(eigs.entry(a).lam - eigs.entry(b).lam) > 0.1
    lams = np.array([eigs.entry(n).lam for n in window(6)])
    gaps = np.abs(lams[:, None] - lams[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > 0.1
    assert all(g.size == 1 for g in eigs.groups)
    # the roots hold up on a 4x finer integration grid, and none is missing
    res = integrate(pot, lams, n_derivs=1, refine=40)
    assert np.max(np.abs(res.s[0] / res.s[1])) < 1e-8
    assert winding_number(pot, omega0, 6.5) == 12


def test_weyl_residues_certifies_group_count():
    from qpencil import RootNotConvergedError
    from qpencil.spectral_data import SpectralDataSet, SpectralEntry

    # no root of the zero problem lies near 0.5, so the "double" group is wrong
    entries = [SpectralEntry(n=-1, lam=0.5), SpectralEntry(n=1, lam=0.5),
               SpectralEntry(n=2, lam=2.0)]
    eigs = SpectralDataSet.from_entries(entries, omega0=0.0)
    with pytest.raises(RootNotConvergedError, match="holds 0 roots"):
        weyl_residues(zero_pair(200), eigs)
