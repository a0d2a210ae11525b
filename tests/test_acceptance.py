"""Acceptance suite: one check per shipped guarantee, with pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Reference metrics for the splitting sweep are frozen below; the d1
columns must reproduce within 2% relative and the d0 columns within 3%.
"""

import time
from math import pi

import numpy as np

from qpencil import (
    PotentialPair,
    ZeroBackground,
    find_eigenvalues,
    integrate,
    make_split_data,
    roundtrip_check,
    run_reconstruction,
    run_table,
    weight_numbers,
    weyl_residues,
)
from qpencil.experiments import SplitExperimentConfig, _separated_pole_parts
from qpencil.forward import circle_nodes, sample_circle
from qpencil.inverse import default_grid, solve_main
from qpencil.zindex import window
from conftest import layout_of, row_names, system_of, zero_pair
from test_forward import wronskian_defect

# frozen sweep targets: delta -> (d1, d0)
REFERENCE_METRICS = {
    0.05: (0.4157, 1.1131),
    0.02: (0.1881, 0.4805),
    0.01: (0.0982, 0.2463),
    0.005: (0.0501, 0.1242),
    0.002: (0.0202, 0.0498),
    0.001: (0.0101, 0.0248),
    0.0005: (0.0051, 0.0124),
    0.0002: (0.0020, 0.0049),
    0.0001: (0.0010, 0.0024),
}

# frozen sweep spectral columns: delta -> (lam_+, lam_-, M_+, M_-)
REFERENCE_SPECTRAL = {
    0.05: (0.724, 0.276 - 0.200j, -0.318 - 0.356j, 0.356j),
    0.02: (0.641, 0.359 - 0.080j, -0.318 - 0.563j, 0.563j),
    0.01: (0.600, 0.400 - 0.040j, -0.318 - 0.796j, 0.796j),
    0.005: (0.571, 0.429 - 0.020j, -0.318 - 1.125j, 1.125j),
    0.002: (0.545, 0.455 - 0.008j, -0.318 - 1.779j, 1.779j),
    0.001: (0.532, 0.468 - 0.004j, -0.318 - 2.516j, 2.516j),
    0.0005: (0.522, 0.478 - 0.002j, -0.318 - 3.559j, 3.559j),
    0.0002: (0.514, 0.486 - 0.0008j, -0.318 - 5.627j, 5.627j),
    0.0001: (0.510, 0.490 - 0.0004j, -0.318 - 7.958j, 7.958j),
}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_split_table_reproduction():
    t0 = time.perf_counter()
    config = SplitExperimentConfig(delta_list=tuple(REFERENCE_METRICS))
    rows = run_table(config, verify_multiplicity=False)
    elapsed = time.perf_counter() - t0
    worst_d1 = worst_d0 = 0.0
    for row in rows:
        want_d1, want_d0 = REFERENCE_METRICS[row.delta]
        worst_d1 = max(worst_d1, abs(row.d1 - want_d1) / want_d1)
        worst_d0 = max(worst_d0, abs(row.d0 - want_d0) / want_d0)
    ok = worst_d1 <= 0.02 and worst_d0 <= 0.03 and elapsed < 30.0
    _report("criterion 1 (sweep reproduction)", ok,
            f"max d1 dev {worst_d1:.3%}, max d0 dev {worst_d0:.3%}, "
            f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_2_split_data_algebra():
    worst = 0.0
    for delta, (lp, lm, mp, mm) in REFERENCE_SPECTRAL.items():
        data = make_split_data(delta)
        worst = max(worst,
                    abs(data.entry(1).lam - lp), abs(data.entry(-1).lam - lm),
                    abs(data.entry(1).M - mp), abs(data.entry(-1).M - mm))
    ok = worst < 6e-4   # all columns printed to 3-4 decimals
    _report("criterion 2 (split-data algebra)", ok,
            f"max deviation from printed columns {worst:.2e}")


def test_criterion_3_forward_baseline():
    t0 = time.perf_counter()
    pot = zero_pair(200)
    eigs = find_eigenvalues(pot, 10, 0.0)
    full = weyl_residues(pot, eigs)
    lam_err = max(abs(full.entry(n).lam - n) for n in window(10))
    m_err = max(abs(full.entry(n).M + n / pi) for n in window(10))
    elapsed = time.perf_counter() - t0
    ok = lam_err < 1e-8 and m_err < 1e-6 and elapsed < 5.0
    _report("criterion 3 (forward baseline)", ok,
            f"lam err {lam_err:.2e} (<1e-8), M err {m_err:.2e} (<1e-6), "
            f"runtime {elapsed:.1f}s (< 5s)")


def test_criterion_4_weight_residue_duality():
    pot = PotentialPair.from_functions(
        lambda t: 0.6 * np.sin(2 * t) + 0.4j * np.cos(3 * t),
        lambda t: 0.5 * (1 - np.cos(t)) - 0.3j * np.sin(t) ** 2,
        n_grid=200)
    eigs = find_eigenvalues(pot, 5, pot.omega0())
    full = weyl_residues(pot, eigs)
    alphas = weight_numbers(pot, eigs)
    worst = max(abs(alphas[n] * full.entry(n).M + 1.0) for n in window(5))
    ok = worst < 1e-5
    _report("criterion 4 (duality cross-check)", ok,
            f"max |alpha*M + 1| = {worst:.2e} (< 1e-5)")


def test_criterion_5_identity_reconstruction():
    rec = run_reconstruction(ZeroBackground().spectral_data(3), ZeroBackground(),
                             min_window=2)
    q1_max = float(np.max(np.abs(rec.q1)))
    q0_max = float(np.max(np.abs(rec.q0_antideriv)))
    ok = q1_max < 1e-10 and q0_max < 1e-10
    _report("criterion 5 (uniqueness/identity)", ok,
            f"max|q1| = {q1_max:.2e}, max|q0 antideriv| = {q0_max:.2e} (< 1e-10)")


def test_criterion_6_roundtrip():
    data = make_split_data(0.01)
    report = roundtrip_check(data, ZeroBackground(), 3)
    lam_err = report.max_lam_err
    m_err = max(r.M_rel_err for r in report.rows if abs(r.n) == 1)
    ok = lam_err < 1e-3 and m_err < 0.01
    _report("criterion 6 (roundtrip)", ok,
            f"max lam err {lam_err:.2e} (< 1e-3), "
            f"cluster M rel err {m_err:.2e} (< 1%)")


def test_criterion_7_multiplicity_handling():
    data = make_split_data(0.0)
    rec = run_reconstruction(data, ZeroBackground())
    pot = rec.as_potentials()
    w = sample_circle(pot, 0.5, 0.05, check_halving=True).count
    # Laurent coefficients on the same circle
    zs = 0.5 + 0.05 * np.exp(2j * pi * np.arange(256) / 256)
    res = integrate(pot, zs, with_c=True)
    mvals = -res.c / res.s[0]
    m0 = np.mean((zs - 0.5) ** 1 * mvals)
    m1 = np.mean((zs - 0.5) ** 2 * mvals)
    err0 = abs(m0 - data.entry(-1).M) / abs(data.entry(-1).M)
    err1 = abs(m1 - data.entry(1).M) / abs(data.entry(1).M)
    ok = w == 2 and err0 < 0.01 and err1 < 0.01
    _report("criterion 7 (multiplicity handling)", ok,
            f"winding {w} (=2), Laurent rel errs {err0:.2e}, {err1:.2e} (< 1%)")


def solve_contour_equation(data, model, x, contour_radius, n_star):
    """Solve the contour form of the main equation and evaluate at the poles.

    Discretizes v(x, lam) = S(x, lam) + (1/2 pi i) oint D(x, lam, mu)
    (pole-part difference)(mu) v(x, mu) d mu by the Nystrom rule on 256
    trapezoid nodes of the circle |mu| = contour_radius (spectrally accurate
    there), then evaluates the continuation at the active eigenvalues of both
    sides.  Returns values keyed by (index, side), comparable with the
    sequence-space solve.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    model_set = model.spectral_data(max(data.max_abs_index, n_star))
    f_data, f_model = _separated_pole_parts(
        (data, model_set), n_star, contour_radius, max(data.max_abs_index, n_star + 2))
    zs = circle_nodes(0.0, contour_radius, 256)
    weights = zs / zs.size    # (1/2 pi i) oint f dmu -> sum f(z) z / N
    mhat = f_data(zs) - f_model(zs)

    # chains on the contour: S and S' at every node, for all grid points
    s0, c0 = model.s_chain(x, zs, 1), model.sx_chain(x, zs, 1)   # (2, N, nx)

    out = {}
    layout = layout_of(data, model)
    # evaluation points: active eigenvalues on both sides (simple only)
    targets = [(n, side, lam) for (n, side), lam in zip(row_names(layout), layout.lam)]
    assert all(abs(lam - z) >= 1e-9 for _, _, lam in targets for z in zs)

    lams = np.array([lam for _, _, lam in targets], dtype=complex)
    st, ct = model.s_chain(x, lams, 0)[0], model.sx_chain(x, lams, 0)[0]
    for k in range(x.size):
        sv, sd, s1, c1 = s0[0, :, k], c0[0, :, k], s0[1, :, k], c0[1, :, k]
        dz = zs[:, None] - zs[None, :]
        num = sv[:, None] * sd[None, :] - sd[:, None] * sv[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            D = num / dz
        np.fill_diagonal(D, s1 * sd - c1 * sv)   # coalescent value on the diagonal
        K = D * (weights * mhat)[None, :]
        vg = np.linalg.solve(np.eye(zs.size) - K, sv)
        for i, (n, side, lam) in enumerate(targets):
            Drow = (st[i, k] * sd - ct[i, k] * sv) / (lam - zs)
            val = st[i, k] + np.sum(Drow * weights * mhat * vg)
            out.setdefault((n, side), np.zeros(x.size, dtype=complex))[k] = val
    return out


def test_criterion_8_formulation_equivalence():
    data = make_split_data(0.01)
    model = ZeroBackground()
    xs = np.array([0.3, 0.9, pi / 2, 2.2, 2.9])
    system = system_of(data, model, xs)
    v = solve_main(system)[0]
    v_seq = dict(zip(row_names(system.layout), v))
    v_cont = solve_contour_equation(data, model, xs, contour_radius=1.5, n_star=1)
    worst = max(float(np.max(np.abs(v_seq[key] - v_cont[key]))) for key in v_seq)
    ok = worst < 1e-6
    _report("criterion 8 (formulation equivalence)", ok,
            f"max |v_seq - v_contour| = {worst:.2e} (< 1e-6) at 5 nodes")


def test_criterion_9_numerical_properties():
    t0 = time.perf_counter()
    pot = PotentialPair.from_functions(
        lambda t: 0.5 * np.sin(2 * t) + 0.2j * np.cos(t),
        lambda t: 0.3 * (1 - np.cos(t)) + 0.1j * np.sin(t),
        n_grid=200)
    res = integrate(pot, np.array([2.0 + 1.0j]), with_c=True, with_trace=True)
    wdef = float(np.max(wronskian_defect(res)))

    d = [complex(integrate(pot, np.array([2.0 + 1.0j]), refine=r).s[0, 0])
         for r in (2, 4, 8)]
    ratio = abs(d[0] - d[1]) / abs(d[1] - d[2])

    data = make_split_data(0.01)
    model = ZeroBackground()

    def fd_err(n):
        x = default_grid(n)
        system = system_of(data, model, x)
        v, v_x, _, _ = solve_main(system)
        fd = (v[:, 2:] - v[:, :-2]) / (2 * (x[1] - x[0]))
        return np.max(np.abs(v_x[:, 1:-1] - fd))

    e100, e200 = fd_err(100), fd_err(200)
    fd_order = e100 / e200
    elapsed = time.perf_counter() - t0

    ok = wdef < 1e-9 and 11.0 < ratio < 21.0 and 2.5 < fd_order < 6.5 and elapsed < 60.0
    _report("criterion 9 (numerical properties)", ok,
            f"wronskian {wdef:.1e} (<1e-9), step-halving ratio {ratio:.1f} (~16), "
            f"v_x FD order {fd_order:.1f} (~4), runtime {elapsed:.1f}s (< 60s)")
