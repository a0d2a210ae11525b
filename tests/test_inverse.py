"""Main-equation assembly, solve, series evaluation, and recovery formulas."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from math import ceil, pi
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.integrate import cumulative_simpson

from qpencil import (
    DegenerateSeriesError,
    SingularSystemError,
    SpectralDataSet,
    SpectralEntry,
    ValidationError,
    ZeroBackground,
    assemble_system,
    compute_epsilons,
    make_split_data,
    recover_q0_antiderivative,
    recover_q1,
    run_reconstruction,
    run_reconstructions,
    solve_main,
)
import qpencil
import qpencil.inverse as qinv
from qpencil.experiments import REFERENCE_DELTAS
from qpencil.inverse import (
    LU_MIN_DIM,
    SOLVE_CHUNK_ENTRIES,
    EpsilonFields,
    active_layout,
    default_grid,
)
from qpencil.model import COALESCE_GAP, P_MAX, SMALL_LAMBDA, d_table
from qpencil.zindex import offset, shift, window
from conftest import forced_layout, group_at_1_3, layout_of, row_names, system_of
from test_model import dx_table


@pytest.fixture(scope="module")
def zero_model():
    return ZeroBackground()


def test_identity_data_recovers_model_solution(zero_model):
    # with identity rows forced in the solve is non-trivial but must return the
    # background solution values at every row
    data = ZeroBackground().spectral_data(2)
    x = default_grid(60)
    system = assemble_system([forced_layout(data, zero_model, 2)], zero_model, x)
    v, v_x, _, _ = solve_main(system)
    for ridx, (lam, nu) in enumerate(zip(system.layout.lam, system.layout.nu)):
        expected = zero_model.s_chain(x, lam, nu)[nu]
        assert np.max(np.abs(v[ridx] - expected)) < 1e-12
        expected_x = zero_model.sx_chain(x, lam, nu)[nu]
        assert np.max(np.abs(v_x[ridx] - expected_x)) < 1e-11


def test_solver_residual_small(zero_model):
    data = make_split_data(0.01)
    system = system_of(data, zero_model, default_grid(200))
    v, _, _, residual = solve_main(system)
    direct = np.max(np.abs(np.einsum("nij,jn->ni", system.form_A(), v) - system.rhs))
    assert residual.shape == (system.x.size,)
    assert residual.max() == pytest.approx(direct, rel=1e-6)
    assert residual.max() < 1e-12


def test_active_layout_is_four_by_four_for_split_data(zero_model):
    data = make_split_data(0.02)
    layout = layout_of(data, zero_model)
    assert layout.indices == (-1, 1)
    assert layout.dim == 4
    data0 = make_split_data(0.0)
    layout0 = layout_of(data0, zero_model)
    assert layout0.dim == 4
    assert layout0.m.tolist() == [2, 2, 1, 1]     # the data's rows, then the background's


def test_active_layout_closes_over_a_data_group(zero_model):
    # index 1 carries the background's own pair (1, -1/pi); only its group
    # partner at index 2 differs, so index 1 is active through the closure alone
    data = SpectralDataSet.from_entries(
        [SpectralEntry(n=1, lam=1.0, M=-1 / pi), SpectralEntry(n=2, lam=1.0, M=-0.1)],
        tail=zero_model, omega0=0.0)
    assert layout_of(data, zero_model).indices == (1, 2)
    rec = run_reconstruction(data, zero_model, default_grid(100))
    assert np.all(np.isfinite(rec.q1)) and np.all(np.isfinite(rec.q0_antideriv))


@pytest.mark.parametrize("case", ["double", "triple", "size-5", "split", "dim-64"])
def test_layout_rows_are_the_groups_of_their_n_and_side(case, zero_model):
    data = {"double": make_split_data(0.0), "triple": group_at_1_3(3),
            "size-5": group_at_1_3(P_MAX + 1), "split": make_split_data(0.01),
            "dim-64": _wide_data(16, 16)}[case]
    model_set = zero_model.spectral_data(max(data.max_abs_index, 1))
    layout = active_layout(data, model_set)
    assert layout.Ms.shape == (layout.dim, P_MAX + 1)
    for k, (n, side) in enumerate(row_names(layout)):
        ds = (data, model_set)[side]
        g = ds.group_for(n)
        assert (layout.lam[k], layout.nu[k], layout.m[k]) == (g.lam, offset(g.start, n), g.size)
        assert layout.Ms[k].tolist() == ds.group_coefficients(g) + [0j] * (P_MAX + 1 - g.size)


def test_submatrix_invertible_at_right_end(zero_model):
    # the model-row/data-column block at x = pi must be invertible
    data = make_split_data(0.01)
    x = np.array([pi])
    system = system_of(data, zero_model, x)
    A = system.form_A()[0]
    dim_half = system.layout.dim // 2
    block = A[dim_half:, :dim_half]     # -P there: I has no entry off its diagonal
    assert abs(np.linalg.det(block)) > 1e-6


def test_vx_matches_finite_difference_at_second_order(zero_model):
    data = make_split_data(0.01)

    def fd_error(n_grid):
        x = default_grid(n_grid)
        system = system_of(data, zero_model, x)
        v, v_x, _, _ = solve_main(system)
        fd = (v[:, 2:] - v[:, :-2]) / (2 * (x[1] - x[0]))
        return np.max(np.abs(v_x[:, 1:-1] - fd))

    e_coarse = fd_error(100)
    e_fine = fd_error(200)
    assert e_fine < e_coarse
    assert 2.5 < e_coarse / e_fine < 6.0    # ~4 for O(h^2)


def test_epsilons_vanish_for_identity(zero_model):
    data = ZeroBackground().spectral_data(2)
    system = assemble_system([forced_layout(data, zero_model, 2)], zero_model, default_grid(50))
    v, v_x, _, _ = solve_main(system)
    eps = compute_epsilons(system, v, v_x)
    for arr in (eps.eps1, eps.eps1_prime, eps.eps2, eps.eps3, eps.eps4):
        assert np.max(np.abs(arr)) < 1e-12


def test_epsilons_structure_for_split_data(zero_model):
    x = default_grid(80)
    sys_pos = system_of(make_split_data(0.01), zero_model, x)
    eps_pos = compute_epsilons(sys_pos, *solve_main(sys_pos)[:2])
    assert abs(eps_pos.eps1[0]) < 1e-14            # every term carries S(0, .) = 0
    assert np.max(np.abs(eps_pos.eps4)) == 0.0     # all simple for delta > 0

    sys_dbl = system_of(make_split_data(0.0), zero_model, x)
    eps_dbl = compute_epsilons(sys_dbl, *solve_main(sys_dbl)[:2])
    assert np.max(np.abs(eps_dbl.eps4)) > 1e-3     # multiplicity term switches on


def test_recovery_zero_for_zero_series(zero_model):
    x = default_grid(20)
    zero = np.zeros(x.size, dtype=complex)
    eps = EpsilonFields(x=x, eps1=zero, eps1_prime=zero, eps2=zero,
                        eps3=zero, eps4=zero)
    q1 = recover_q1(eps, zero_model)
    q0ad = recover_q0_antiderivative(eps, q1, zero_model)
    assert np.max(np.abs(q1)) == 0.0
    assert np.max(np.abs(q0ad)) == 0.0


def test_full_pipeline_identity(zero_model):
    rec = run_reconstruction(ZeroBackground().spectral_data(3), zero_model, default_grid(100))
    assert np.max(np.abs(rec.q1)) < 1e-10
    assert np.max(np.abs(rec.q0_antideriv)) < 1e-10
    assert rec.q0_antideriv[0] == 0.0


def test_pipeline_rejects_mismatched_mean_shift(zero_model):
    data = ZeroBackground().spectral_data(3)
    shifted = [SpectralEntry(n, data.entry(n).lam + 0.4, data.entry(n).M)
               for n in data.window_indices()]
    bad = SpectralDataSet.from_entries(shifted, tail=ZeroBackground(), omega0=0.4)
    with pytest.raises(ValidationError, match="incompatible"):
        run_reconstruction(bad, zero_model)


def test_condition_guard_raises(zero_model):
    data, x = make_split_data(0.01), default_grid(30)
    cond = solve_main(system_of(data, zero_model, x))[2]
    with pytest.raises(SingularSystemError) as exc:
        run_reconstruction(data, zero_model, x, cond_limit=1.0)
    assert exc.value.cond == cond.max() and exc.value.x == x[np.argmax(cond)]


def test_pipeline_reports_condition_and_residual(zero_model):
    rec = run_reconstruction(make_split_data(0.05), zero_model, default_grid(100))
    assert rec.cond is not None and np.all(np.isfinite(rec.cond))
    assert rec.residual < 1e-11


def test_layout_rejects_oversized_groups(zero_model):
    from qpencil import OrderTooHighError

    raw = [SpectralEntry(n, 0.4, 1.0) for n in (-3, -2, -1, 1, 2, 3)]   # one group of six
    data = SpectralDataSet.from_entries(raw, tail=ZeroBackground(), omega0=0.0)
    with pytest.raises(OrderTooHighError):
        layout_of(data, zero_model)


def _wide_data(width, seed):
    """Data off the zero background at every |n| <= width, all eigenvalues simple."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, (2, 2 * width, 2)) @ np.array([1.0, 1j])
    entries = [SpectralEntry(n=n, lam=n + 0.05 * z[0, i] / abs(n),
                             M=-n / pi * (1.0 + 0.05 * z[1, i] / abs(n)))
               for i, n in enumerate(window(width))]
    return SpectralDataSet.from_entries(entries, tail=ZeroBackground(), omega0=0.0)


def _tabulated(system, model):
    """P and dP/dx built entry by entry from the kernel tables (reference loop)."""
    x, lay = system.x, system.layout
    P = np.zeros((x.size, lay.dim, lay.dim), dtype=complex)
    Px = np.zeros_like(P)
    for r in range(lay.dim):
        for c, (_, j) in enumerate(row_names(lay)):
            smax = lay.m[c] - 1 - lay.nu[c]
            T = d_table(model, x, lay.lam[r], lay.lam[c], lay.nu[r], smax)
            X = dx_table(model, x, lay.lam[r], lay.lam[c], lay.nu[r], smax)
            sgn = -1.0 if j == 1 else 1.0
            for p in range(lay.nu[c], lay.m[c]):
                P[:, r, c] += sgn * lay.Ms[c, p] * T[lay.nu[r], p - lay.nu[c]]
                Px[:, r, c] += sgn * lay.Ms[c, p] * X[lay.nu[r], p - lay.nu[c]]
    return P, Px


def _column_sums(system, model):
    """b and b' written out as (-1)^j sum_p M_p S_(p-nu) and the same over S'."""
    x, lay = system.x, system.layout
    B = np.zeros_like(system.b)
    Bx = np.zeros_like(system.b_x)
    for c, (_, j) in enumerate(row_names(lay)):
        sch = model.s_chain(x, lay.lam[c], lay.m[c] - 1 - lay.nu[c])
        cch = model.sx_chain(x, lay.lam[c], lay.m[c] - 1 - lay.nu[c])
        sgn = -1.0 if j == 1 else 1.0
        for p in range(lay.nu[c], lay.m[c]):
            B[c] += sgn * lay.Ms[c, p] * sch[p - lay.nu[c]]
            Bx[c] += sgn * lay.Ms[c, p] * cch[p - lay.nu[c]]
    return B, Bx


@pytest.mark.parametrize("case", ["wide", "double-group", "small-lambda"])
def test_assembly_matches_per_entry_tables(case, zero_model):
    data = {"wide": _wide_data(6, 7), "double-group": make_split_data(0.0),
            "small-lambda": make_split_data(0.01)}[case]
    system = system_of(data, zero_model, default_grid(50))
    lam = system.layout.lam
    if case == "wide":
        assert np.any((0 < abs(lam[:, None] - lam)) & (abs(lam[:, None] - lam) < COALESCE_GAP))
    if case == "double-group":
        assert np.any(system.layout.m > 1)
    if case == "small-lambda":
        assert np.any(abs(lam) < SMALL_LAMBDA)
    P, Px = _tabulated(system, zero_model)
    B, Bx = _column_sums(system, zero_model)
    # _reference_P is tied to form_A bit for bit by the slicing test below
    for got, want in ((_reference_P(system, slice(None)), P), (system.b, B), (system.b_x, Bx)):
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    # the factored dP/dx adds lam_r a b and lam_c a b apart, so entries where
    # lam_r + lam_c - 2 q1 nearly cancels keep their absolute digits only
    err = np.abs(system.px_u @ system.px_w - Px).max(axis=(1, 2))
    assert np.all(err <= 1e-13 * np.abs(Px).max(axis=(1, 2)))


def _reference_P(system, nodes):
    """P at a slice of nodes by its own formula: the reference ``form_A`` negates and shifts."""
    (lo, hi, _), nx, dim = nodes.indices(len(system.rhs)), system.x.size, system.rhs.shape[1]
    first, k = lo // nx, max(1, (hi - lo) // nx)     # the first set, the number of sets
    a, a_x, r, c = system.rhs[nodes], system.rhs_x[nodes], system.table_rows, system.table_cols
    P = (a[:, :, None] * a_x[:, None, :] - a_x[:, :, None] * a[:, None, :]).reshape(
        k, -1, dim, dim) * system.scale[first:first + k, None]
    P = P.reshape(-1, dim, dim)
    P[:, r, c] += system.table_vals[nodes]     # zero where a set's scale is not
    return P


@pytest.mark.parametrize("case", ["wide-dim64", "sweep", "double-group"])
def test_form_A_is_identity_minus_P_at_every_slicing(case, zero_model, monkeypatch):
    sets = {"wide-dim64": [_wide_data(16, 903)],
            "sweep": [make_split_data(d) for d in (0.0,) + REFERENCE_DELTAS],
            "double-group": [make_split_data(0.0)]}[case]
    system = assemble_system([layout_of(data, zero_model) for data in sets], zero_model,
                             default_grid(200))
    nx, (nodes, dim) = system.x.size, system.rhs.shape
    inner, seen = qinv.MainEquationSystem.form_A, []

    def checked(self, sl=slice(None), out=None, work=None):
        A = inner(self, sl, out, work)
        assert np.array_equal(A, 0.0 - _reference_P(self, sl) + np.eye(dim)), sl
        assert out is None or np.shares_memory(A, out)
        seen.append(sl)
        return A

    monkeypatch.setattr(qinv.MainEquationSystem, "form_A", checked)
    # the slices solve_main forms: within one set, one set, and whole sets
    for chunk in (1, 7, nx - 1, nx, 2 * nx + 3, nodes):
        monkeypatch.setattr(qinv, "SOLVE_CHUNK_ENTRIES", chunk * dim * dim)
        seen.clear()
        solve_main(system)
        assert sorted(k for sl in seen for k in range(*sl.indices(nodes))) == list(range(nodes))
    checked(system)


def test_assembly_tables_only_coalescent_pairs(zero_model, table_calls):
    system = system_of(_wide_data(16, 101), zero_model, default_grid(20))
    lam = system.layout.lam
    close = np.count_nonzero(abs(lam[:, None] - lam) < COALESCE_GAP)
    assert system.layout.dim == 64
    assert close < 2 * system.layout.dim     # the diagonal and same-index pairs
    # all simple: every pair has the order key (0, 0), so one call takes them all
    assert table_calls == {"d_table": 1, "d_table pairs": close}


def test_assembly_tables_group_pairs(zero_model, table_calls):
    system = system_of(make_split_data(0.0), zero_model, default_grid(20))
    lam, nu, m = system.layout.lam, system.layout.nu, system.layout.m
    tabled = [(r, c) for r in range(lam.size) for c in range(lam.size)
              if m[r] > 1 or m[c] > 1 or abs(lam[r] - lam[c]) < COALESCE_GAP]
    grouped = sum(m[r] > 1 or m[c] > 1 for r, c in tabled)
    close = len(tabled) - grouped
    keys = {(nu[r], m[c] - 1 - nu[c]) for r, c in tabled}
    assert (grouped, close, len(keys)) == (12, 2, 4)
    assert table_calls == {"d_table": len(keys), "d_table pairs": grouped + close}


@pytest.mark.parametrize("case", ["wide", "wide-128", "double-group"])
def test_solve_matches_per_node_oracle(case, zero_model):
    # dim 128 is large enough for getrf to use its threads
    data = {"wide": _wide_data(16, 903), "wide-128": _wide_data(32, 905),
            "double-group": make_split_data(0.0)}[case]
    system = system_of(data, zero_model, default_grid(40))
    v, v_x, cond, residual = solve_main(system)
    _, Px = _tabulated(system, zero_model)
    for k, A in enumerate(system.form_A()):
        want_v = np.linalg.solve(A, system.rhs[k])
        want_vx = np.linalg.solve(A, system.rhs_x[k] + Px[k] @ want_v)
        exact = np.linalg.cond(A, 1)
        if system.layout.dim < LU_MIN_DIM:
            assert cond[k] == pytest.approx(exact, rel=1e-12)
        else:       # gecon's estimate: a lower bound, within a factor 3 here
            assert exact / 3 <= cond[k] <= exact * (1 + 1e-12)
        assert np.max(np.abs(v[:, k] - want_v)) <= 1e-12 * np.max(np.abs(want_v))
        assert np.max(np.abs(v_x[:, k] - want_vx)) <= 1e-12 * np.max(np.abs(want_vx))
    assert residual.max() < 1e-12


@pytest.mark.parametrize("case", ["double-group", "triple-group"])
def test_eps4_matches_the_group_sum(case, zero_model):
    data = make_split_data(0.0) if case == "double-group" else group_at_1_3(3)
    system = system_of(data, zero_model, default_grid(30))
    nu = system.layout.nu
    assert system.layout.m.max() == (2 if case == "double-group" else 3)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(system.b.shape + (2,)) @ np.array([1.0, 1j])
    # eps4 = sum over groups of sum_(nu < m-1) b_(nu+1) v_nu, written out per group:
    # the member after (n, j) is (shift(n, 1), j) when its offset is one more
    row_of = {name: k for k, name in enumerate(row_names(system.layout))}
    want = np.zeros(system.x.size, dtype=complex)
    for (n, j), k in row_of.items():
        after = row_of.get((shift(n, 1), j))
        if after is not None and nu[after] == nu[k] + 1:
            want += system.b[after] * v[k]
    eps = compute_epsilons(system, v, v)
    assert np.any(want != 0)
    assert np.array_equal(eps.eps4, want)


def test_assembly_keeps_no_dense_matrix(zero_model):
    data = _wide_data(16, 903)
    tracemalloc.start()
    try:
        system = system_of(data, zero_model, default_grid(200))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.layout.dim == 64
    # one (201, 64, 64) complex P would be 13.2 MB.  Kept are eleven (201, 64)
    # arrays of 0.2 MB (a, a', b, b', b_ and the four dP/dx factors count as
    # such) and the values of the 126 tabled pairs, 0.4 MB.
    assert retained < 3e6


def _replace_nodes(monkeypatch, values, x):
    """Make ``form_A`` return ``values[k]`` at node k = s * x.size + j, node j of set s on
    the grid ``x``, in a system on all of ``x`` or on one x-range of it."""
    inner = qinv.MainEquationSystem.form_A

    def form_A(self, nodes=slice(None), out=None, work=None):
        A, lo = inner(self, nodes, out, work), nodes.indices(len(self.rhs))[0]
        nx, first = self.x.size, int(np.searchsorted(x, self.x[0]))
        for k, value in values.items():
            s, j = divmod(k, x.size)
            if 0 <= j - first < nx and 0 <= s * nx + j - first - lo < len(A):
                A[s * nx + j - first - lo] = value
        return A

    monkeypatch.setattr(qinv.MainEquationSystem, "form_A", form_A)


@pytest.mark.parametrize("fill, width", [
    pytest.param("identity", 4, id="identity"),       # dim 16: LU node by node
    pytest.param("nan", 4, id="nan"),
    pytest.param("identity", 1, id="identity-dim4"),  # dim 4: batched inverse
    pytest.param("nan", 1, id="nan-dim4"),
])
def test_singular_or_non_finite_node_raises(fill, width, zero_model, monkeypatch):
    data, x = _wide_data(width, 5), default_grid(40)
    dim = layout_of(data, zero_model).dim
    assert (dim >= LU_MIN_DIM) == (width == 4)
    k = 23                                   # not the first node of its chunk
    # P = I: A = I - P is exactly singular
    _replace_nodes(monkeypatch, {k: np.zeros((dim, dim)) if fill == "identity" else np.nan}, x)
    v, v_x, cond, _ = solve_main(system_of(data, zero_model, x))
    assert np.flatnonzero(np.isinf(cond)).tolist() == [k]
    assert np.isnan(v[:, k]).all() and np.isnan(v_x[:, k]).all()
    with pytest.raises(SingularSystemError) as exc:
        run_reconstruction(data, zero_model, x)
    assert exc.value.x == x[k]
    assert exc.value.cond == np.inf


@pytest.mark.parametrize("width", [
    pytest.param(16, id="dim64"),      # two x-ranges on the thread pool when CPUs > 1
    pytest.param(4, id="dim16"),       # LU node by node: the gecon estimate
    pytest.param(1, id="dim4"),        # batched inverse: the exact condition
])
def test_near_singular_node_trips_the_guard(width, zero_model, monkeypatch):
    data, x = _wide_data(width, 5), default_grid(40)
    system = system_of(data, zero_model, x)
    k = 23
    U, sv, Vh = np.linalg.svd(system.form_A()[k])
    A = (U * np.append(sv[:-1], 1e-12 * sv[0])) @ Vh     # kappa_2 = 1e12
    exact = np.linalg.cond(A, 1)
    assert 1e11 < exact < 1e13
    _replace_nodes(monkeypatch, {k: A}, x)
    cond = solve_main(system)[2]
    assert np.argmax(cond) == k and np.isfinite(cond[k])
    with pytest.raises(SingularSystemError) as exc:
        run_reconstruction(data, zero_model, x)
    assert exc.value.x == x[k] and exc.value.cond == cond[k]
    # at kappa 1e12 any computed inverse, the exact one too, keeps about 4 digits
    assert exact / 3 <= exc.value.cond <= exact * (1 + 1e-3)


@pytest.mark.parametrize("width", [1, 16])
def test_solve_factors_each_node_once(width, zero_model, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve path must not call svd, solve or getri")

    home = sys.modules[np.linalg.cond.__module__]     # cond reaches svd there
    for name in ("svd", "solve"):
        monkeypatch.setattr(np.linalg, name, forbidden)
        monkeypatch.setattr(home, name, forbidden)
    # nor invert by getri, through the module's names or scipy's
    assert not hasattr(qinv, "zgetri")
    monkeypatch.setattr(scipy.linalg.lapack, "zgetri", forbidden)
    lapack = ("zgetrf", "zgecon", "zgetrs")
    calls = {name: [] for name in ("inv",) + lapack}

    def counted(name, inner):
        def counting(a, *args, **kwargs):
            calls[name].append(a.shape[0] if name == "inv" else 1)
            return inner(a, *args, **kwargs)
        return counting

    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    for name in lapack:
        inner = getattr(scipy.linalg.lapack, name)     # looked up there at the first LU solve
        monkeypatch.setattr(scipy.linalg.lapack, name, counted(name, inner))
    x = default_grid(200)
    rec = run_reconstruction(_wide_data(width, 904), zero_model, x)
    dim = 4 * width
    if dim < LU_MIN_DIM:
        assert len(calls["inv"]) == ceil(x.size / (SOLVE_CHUNK_ENTRIES // dim**2))
        assert sum(calls["inv"]) == x.size
        assert all(calls[name] == [] for name in lapack)
    else:
        assert calls["inv"] == []
        assert len(calls["zgetrf"]) == len(calls["zgecon"]) == x.size
        assert len(calls["zgetrs"]) == 2 * x.size
    assert rec.residual < 1e-12


def test_solve_memory_is_bounded_by_the_chunk(zero_model):
    system = system_of(_wide_data(16, 903), zero_model, default_grid(200))
    assert system.layout.dim == 64
    tracemalloc.start()
    try:
        solve_main(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (201, 64, 64) complex array is 13.2 MB
    assert peak < 6e6


def _solve_threads(monkeypatch):
    """Names of the threads that factor nodes, gathered from ``zgetrf`` calls."""
    names = set()
    inner = scipy.linalg.lapack.zgetrf

    def recording(*args, **kwargs):
        names.add(threading.current_thread().name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "zgetrf", recording)
    return names


def test_pool_shares_the_chunk_budget(zero_model, monkeypatch):
    data, x = _wide_data(16, 903), default_grid(200)
    run_reconstruction(data, zero_model, x)     # scipy's LAPACK loaded before tracing
    threads = _solve_threads(monkeypatch)
    peaks = {}
    for cpus in (1, 2, 64):
        monkeypatch.setattr(qinv, "_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            run_reconstruction(data, zero_model, x)
            peaks[cpus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # each range holds its own A and work chunk buffers, 1.5 MB at dim 64, next to the
    # other range's assembly; the serial peak is the whole grid's assembly.  Two
    # ranges, this thread's and one worker's, whatever the CPU count.
    assert peaks[2] <= 1.25 * peaks[1] and peaks[64] <= 1.25 * peaks[1], peaks
    assert len(threads - {threading.current_thread().name}) == 1


def _stacked_wide(width):
    return {"dim16": [_wide_data(4, 906)], "dim64": [_wide_data(16, 906)],
            "dim96": [_wide_data(24, 906)],
            "stacked-dim64": [_wide_data(16, 906), _wide_data(16, 907)],
            # the kernel's series branch at (0.3, 0.3), which contracts over x
            "small-lam-dim64": [_wide_data(16, 906).replace_entry(1, lam=0.3)]}[width]


@pytest.mark.parametrize("width", ["dim16", "dim64", "dim96", "stacked-dim64", "small-lam-dim64"])
def test_pool_changes_no_bit_of_the_solve(width, zero_model, monkeypatch):
    sets, x = _stacked_wide(width), default_grid(200)
    assert layout_of(sets[0], zero_model).dim ** 2 < qinv.POOL_MAX_ENTRIES
    threads = _solve_threads(monkeypatch)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # two threads, switching often
    try:
        for cpus in (2, 1, 64):
            monkeypatch.setattr(qinv, "_cpus", lambda: cpus)
            threads.clear()
            runs[cpus] = run_reconstructions(sets, zero_model, x)
            assert threads == ({threading.current_thread().name, "qpencil-solve_0"} if cpus > 1
                               else {threading.current_thread().name})
    finally:
        sys.setswitchinterval(interval)
    for cpus in (2, 64):
        for got, want in zip(runs[cpus], runs[1]):
            _same_reconstruction(got, want)


@pytest.mark.parametrize("width, n_grid", [
    pytest.param(25, 20, id="dim100"),     # dim^2 = 1e4: OpenBLAS threads each getrf itself
    pytest.param(4, 40, id="dim16-one-chunk"),     # 41 nodes, 192 to a chunk
    pytest.param(16, 7, id="dim64-one-chunk"),     # 8 nodes, 12 to a chunk
])
def test_pool_is_left_out(width, n_grid, zero_model, monkeypatch):
    data = _wide_data(width, 907)
    assert layout_of(data, zero_model).dim == 4 * width
    monkeypatch.setattr(qinv, "_cpus", lambda: 2)
    threads = _solve_threads(monkeypatch)
    run_reconstruction(data, zero_model, default_grid(n_grid))
    assert threads == {threading.current_thread().name}


@pytest.mark.parametrize("fills", [("nan", "identity"), ("identity", "nan"), ("identity", "identity")],
                         ids="-".join)
def test_parallel_solve_reports_the_lowest_failing_node(fills, zero_model, monkeypatch):
    monkeypatch.setattr(qinv, "_cpus", lambda: 2)
    data, x = _wide_data(16, 5), default_grid(200)
    dim = layout_of(data, zero_model).dim
    # the last node of the first x-range and the first of the second: the later
    # range, on the worker, may meet its failure first
    nodes = (x.size // 2 - 1, x.size // 2)
    _replace_nodes(monkeypatch, {k: np.zeros((dim, dim)) if fill == "identity" else np.nan
                                 for k, fill in zip(nodes, fills)}, x)    # P = I: A = 0
    threads = _solve_threads(monkeypatch)
    with pytest.raises(SingularSystemError) as exc:
        run_reconstruction(data, zero_model, x)
    assert exc.value.x == x[nodes[0]]
    assert exc.value.cond == np.inf
    assert threads == {threading.current_thread().name, "qpencil-solve_0"}


def test_solve_starts_threads_only_for_the_pool():
    script = """
import threading
before = threading.active_count()
from math import pi
import qpencil
import qpencil.inverse as qinv
from qpencil import (SpectralDataSet, SpectralEntry, ZeroBackground, assemble_system,
                     default_grid, make_split_data, run_reconstruction)
run_reconstruction(make_split_data(0.0), ZeroBackground(), default_grid(200))
assert threading.active_count() == before, (before, threading.active_count())
qinv._cpus = lambda: 64
model = ZeroBackground()     # data off the background at every |n| <= 16
data = SpectralDataSet.from_entries([SpectralEntry(n=n, lam=n + 0.01 / n, M=-1.01 * n / pi)
                                     for n in range(-16, 17) if n], tail=model)
layout = qinv.active_layout(data, model.spectral_data(16))
system = assemble_system([layout], model, default_grid(200))
assert system.layout.dim == 64
qinv.solve_main(system)
assert threading.active_count() == before, (before, threading.active_count())
run_reconstruction(data, model, default_grid(200))
pooled = threading.active_count()
assert pooled == before + 1, (before, pooled)
run_reconstruction(data, model, default_grid(200))
assert threading.active_count() == pooled
"""
    env = {**os.environ, "PYTHONPATH": str(Path(qpencil.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_small_lambda_reconstruction_ignores_the_blas_thread_count():
    # the kernel series of the pairs at lam near 1/2 contracts over x; a BLAS product there
    # blocks x by its thread count, and from about 251 nodes on the last bits move with it
    script = """
import sys
from qpencil import ZeroBackground, default_grid, make_split_data, run_reconstruction
rec = run_reconstruction(make_split_data(1e-4), ZeroBackground(), default_grid(250))
sys.stdout.buffer.write(rec.q1.tobytes() + rec.q0_antideriv.tobytes())
"""
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(qpencil.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
def test_forked_child_solves_after_a_parallel_solve(zero_model, monkeypatch):
    monkeypatch.setattr(qinv, "_cpus", lambda: 2)
    data, x = _wide_data(16, 903), default_grid(40)
    want = run_reconstruction(data, zero_model, x)
    pid = os.fork()
    if pid == 0:        # the child inherits the pool object, not its threads
        code = 1
        try:
            got = run_reconstruction(data, zero_model, x)
            code = 0 if all(np.array_equal(getattr(got, f), getattr(want, f))
                            for f in ("q1", "q0_antideriv", "cond")) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its reconstruction in 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.parametrize("case", ["split-0", "split-0.01", "split-0.0001"])
def test_complex_simpson_is_its_real_and_imaginary_parts(case, zero_model, monkeypatch):
    data, x = make_split_data(float(case[6:])), default_grid(200)
    got = run_reconstruction(data, zero_model, x)
    calls = []

    def by_parts(y, x):
        calls.append(y.shape)
        return cumulative_simpson(y.real, x=x, initial=0.0) \
            + 1j * cumulative_simpson(y.imag, x=x, initial=0.0)

    monkeypatch.setattr(qinv, "cumulative_simpson", by_parts)
    want = run_reconstruction(data, zero_model, x)
    assert len(calls) >= 1
    for name in ("q1", "q0_antideriv", "cond"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.residual == want.residual


def _same_reconstruction(got, want):
    for name in ("q1", "q0_antideriv", "cond"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.residual == want.residual


@pytest.mark.parametrize("case", ["sweep", "wide-dim16", "wide-dim64"])
def test_stacked_reconstructions_are_the_separate_ones(case, zero_model, table_calls):
    if case == "sweep":
        sets = [make_split_data(d) for d in (0.0,) + REFERENCE_DELTAS]
    else:
        width = 4 if case == "wide-dim16" else 16
        sets = [_wide_data(width, 31), _wide_data(width, 32)]
    x = default_grid(200)
    stacked = run_reconstructions(sets, zero_model, x)
    # one kernel table call per derivative-order key and x-range: the double
    # eigenvalue's four keys cover the simple sets' (0, 0) pairs too; the wide
    # stacks take two ranges where the process may use two CPUs
    ranges = 1 if case == "sweep" or qinv._cpus() == 1 else 2
    assert table_calls["d_table"] == (4 if case == "sweep" else 1) * ranges
    assert len(stacked) == len(sets)
    for got, data in zip(stacked, sets):
        _same_reconstruction(got, run_reconstruction(data, zero_model, x))


def test_a_failing_set_leaves_the_stack_alone(zero_model):
    x = default_grid(200)
    sets = [make_split_data(d) for d in (1e-12, 0.01, 0.05)]
    stacked = run_reconstructions(sets, zero_model, x)
    with pytest.raises(SingularSystemError) as exc:
        run_reconstruction(sets[0], zero_model, x)
    assert isinstance(stacked[0], SingularSystemError)
    assert str(stacked[0]) == str(exc.value) \
        == "main equation numerically singular at x=2.199115 (cond=1.986e+12)"
    for got, data in zip(stacked[1:], sets[1:]):
        _same_reconstruction(got, run_reconstruction(data, zero_model, x))


@pytest.mark.parametrize("width", [
    pytest.param(1, id="dim4"),        # batched inverse, then node by node
    pytest.param(4, id="dim16"),       # LU node by node
])
def test_an_exactly_singular_node_fails_only_its_set(width, zero_model, monkeypatch):
    x = default_grid(40)
    sets = [_wide_data(width, seed) for seed in (41, 42, 43)]
    want = [run_reconstruction(data, zero_model, x) for data in sets]
    _replace_nodes(monkeypatch, {x.size + 23: np.zeros((4 * width,) * 2)}, x)   # node 23 of set 2
    got = run_reconstructions(sets, zero_model, x)
    assert isinstance(got[1], SingularSystemError)
    assert got[1].x == x[23] and got[1].cond == np.inf
    _same_reconstruction(got[0], want[0])
    _same_reconstruction(got[2], want[2])


def test_stack_groups_sets_by_dim_and_keeps_their_order(zero_model):
    x = default_grid(40)
    bad_shift = SpectralDataSet.from_entries(list(make_split_data(0.01).entries.values()),
                                             tail=ZeroBackground(), omega0=0.4)
    # dim 16, dim 4, a mean-shift mismatch, the background's own data, dim 4
    sets = [_wide_data(4, 44), make_split_data(0.01), bad_shift, ZeroBackground().spectral_data(2),
            make_split_data(0.02)]
    got = run_reconstructions(sets, zero_model, x)
    assert isinstance(got[2], qpencil.ValidationError)
    for k in (0, 1, 3, 4):
        _same_reconstruction(got[k], run_reconstruction(sets[k], zero_model, x))


def test_a_degenerate_set_leaves_the_stack_alone(zero_model, monkeypatch):
    x, k = default_grid(200), 57
    sets = [make_split_data(d) for d in (0.0, 0.01, 1e-4)]
    want = [run_reconstruction(data, zero_model, x) for data in sets]
    inner = qinv.compute_epsilons

    def degenerate(system, v, v_x):      # eps1 = 1j at node k of the second set: 1 + eps1^2 = 0
        eps = inner(system, v, v_x)
        eps.eps1[x.size + k] = 1j
        return eps

    monkeypatch.setattr(qinv, "compute_epsilons", degenerate)
    got = run_reconstructions(sets, zero_model, x)
    assert isinstance(got[1], DegenerateSeriesError)
    assert str(got[1]) == f"1 + eps1^2 vanishes at x={x[k]:.6f}, where the q1 recovery divides by it"
    _same_reconstruction(got[0], want[0])
    _same_reconstruction(got[2], want[2])


def test_the_pipeline_calls_each_public_stage(zero_model, monkeypatch):
    stages = ("active_layout", "assemble_system", "solve_main", "compute_epsilons",
              "recover_q1", "recover_q0_antiderivative")
    calls = []

    def counted(name, inner):
        def counting(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return counting

    for name in stages:
        monkeypatch.setattr(qinv, name, counted(name, getattr(qinv, name)))
    sets = [make_split_data(d) for d in (0.0, 0.01, 1e-4)]
    got = run_reconstructions(sets, zero_model, default_grid(100))
    assert all(isinstance(rec, qpencil.RecoveredPotentials) for rec in got)
    # the layout once per set, every other stage once for the stack
    assert calls == ["active_layout"] * len(sets) + list(stages[1:])
