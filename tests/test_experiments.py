"""Split-data construction, metrics, sweep harness, roundtrip report."""

from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpencil import (
    ContourTouchesPoleError,
    GridMismatchError,
    NegativeDeltaError,
    SplitExperimentConfig,
    ValidationError,
    ZeroBackground,
    compute_d_metrics,
    compute_split_delta_metric,
    expected_weyl,
    integrate,
    make_split_data,
    roundtrip_check,
    run_reconstruction,
    run_table,
)
from qpencil.experiments import SPLIT_M0, SPLIT_M1, TABLE_HEADER, write_table_csv
from qpencil.forward import read_csv
from qpencil.inverse import default_grid

# reference spectral columns of the splitting sweep (printed to 3-4 decimals)
SPECTRAL_COLUMNS = {
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


@pytest.mark.parametrize("delta", sorted(SPECTRAL_COLUMNS))
def test_split_data_matches_printed_columns(delta):
    data = make_split_data(delta)
    lam_p, lam_m, m_p, m_m = SPECTRAL_COLUMNS[delta]
    assert abs(data.entry(1).lam - lam_p) < 6e-4
    assert abs(data.entry(-1).lam - lam_m) < 6e-4
    assert abs(data.entry(1).M - m_p) < 6e-4
    assert abs(data.entry(-1).M - m_m) < 6e-4


def test_split_data_double_limit():
    # at 1e-19 the roots lie 6.3e-10 apart with residues +-2.5e8 i; they merge into
    # one group whose Laurent coefficients are their moments, the double eigenvalue's
    for delta, lam_tol in ((0.0, 0.0), (1e-19, 1e-7)):
        data = make_split_data(delta)
        g = data.groups[0]
        assert (g.start, g.size) == (-1, 2) and abs(g.lam - 0.5) <= lam_tol
        assert data.entry(-1).M == pytest.approx(-1 / pi)
        assert data.entry(1).M == pytest.approx(-1j / (2 * pi))


def test_split_data_negative_rejected():
    with pytest.raises(NegativeDeltaError):
        make_split_data(-0.01)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-8, max_value=0.1))
def test_split_data_moment_conservation(delta):
    # exact algebra of the construction: pole-part moments 0 and 1 are kept
    data = make_split_data(delta)
    a = SPLIT_M1 / 2.0
    c = SPLIT_M0 / a
    lam_sum = data.entry(1).lam + data.entry(-1).lam
    assert lam_sum == pytest.approx(1.0 + c * delta, rel=1e-12)
    m_sum = data.entry(1).M + data.entry(-1).M
    assert m_sum == pytest.approx(SPLIT_M0, rel=1e-12)


def test_d_metrics_trivial_and_mismatch():
    model = ZeroBackground()
    rec = run_reconstruction(make_split_data(0.01), model, default_grid(100))
    assert compute_d_metrics(rec, rec) == (0.0, 0.0)
    other = run_reconstruction(make_split_data(0.01), model, default_grid(50))
    with pytest.raises(GridMismatchError):
        compute_d_metrics(rec, other)
    # data equal to the background reconstruct the background's own potentials
    background = run_reconstruction(model.spectral_data(1), model, default_grid(100))
    d1, d0 = compute_d_metrics(rec, background)
    assert d1 > 0.5        # vs the raw background the recovered pencil is O(1) away
    assert d0 > 0.5


def test_contour_metric_zero_for_identical_data():
    ref = make_split_data(0.0)
    assert compute_split_delta_metric(ref, ref, 1, 0.85) == 0.0


def test_contour_metric_is_linear_in_delta():
    ref = make_split_data(0.0)
    m1 = compute_split_delta_metric(make_split_data(0.01), ref, 1, 0.85)
    m2 = compute_split_delta_metric(make_split_data(0.001), ref, 1, 0.85)
    assert 7.0 < m1 / m2 < 13.0     # the sqrt(delta) pole terms cancel to O(delta)


def test_contour_metric_tail_branch():
    ref = make_split_data(0.0)
    moved = make_split_data(0.01).replace_entry(2, lam=2.1)
    metric = compute_split_delta_metric(moved, ref, 1, 0.85)
    assert metric >= 2 * 0.1 - 1e-12      # (n xi_n) with n = 2, shift 0.1


def test_contour_touching_pole_rejected():
    ref = make_split_data(0.0)
    data = make_split_data(0.01)
    with pytest.raises(ContourTouchesPoleError):
        compute_split_delta_metric(data, ref, 1, abs(data.entry(1).lam))


def test_config_validates_contour():
    # the metric checks its contour: r = 2.5 holds the tail's eigenvalues +-2
    with pytest.raises(ValidationError, match="inside the contour"):
        compute_split_delta_metric(make_split_data(0.05), make_split_data(0.0), 1, 2.5)
    with pytest.raises(ValidationError, match="outside the contour"):
        compute_split_delta_metric(make_split_data(0.05), make_split_data(0.0), 1, float("nan"))
    with pytest.raises(NegativeDeltaError):
        SplitExperimentConfig(delta_list=(-0.1,))


def test_run_table_small_sweep(tmp_path):
    config = SplitExperimentConfig(delta_list=(0.05, 0.01), n_grid=200)
    rows = run_table(config, out_dir=tmp_path)
    assert [r.delta for r in rows] == [0.05, 0.01]
    assert rows[0].d1 == pytest.approx(0.4157, rel=0.02)
    assert rows[1].d0 == pytest.approx(0.2463, rel=0.03)
    assert (tmp_path / "table.csv").exists()
    assert (tmp_path / "potentials_delta=0.05.csv").exists()
    back = read_csv(tmp_path / "table.csv", TABLE_HEADER)
    assert [v[0] for v in back] == [0.05, 0.01]


def test_table_csv_roundtrip_bit_exact(tmp_path):
    config = SplitExperimentConfig(delta_list=(0.02,), n_grid=100)
    rows = run_table(config, out_dir=None)
    path = tmp_path / "t.csv"
    write_table_csv(rows, path)
    back = read_csv(path, TABLE_HEADER)
    r0, v = rows[0], back[0]
    assert (r0.delta, r0.d1, r0.d0) == (v[0], v[1], v[2])
    assert r0.lambda_plus == complex(v[3], v[4])
    assert r0.M_minus == complex(v[9], v[10])


def test_empty_delta_list_is_fine(tmp_path):
    config = SplitExperimentConfig(delta_list=(), n_grid=100)
    rows = run_table(config, out_dir=tmp_path)
    assert rows == []
    assert (tmp_path / "table.csv").exists()


def test_expected_weyl_matches_forward_solution():
    # the analytic Weyl function of the split data must match -C/Delta of the
    # reconstructed pencil away from the poles
    model = ZeroBackground()
    data = make_split_data(0.01)
    rec = run_reconstruction(data, model)
    pot = rec.as_potentials()
    for lam in (0.3 + 0.4j, 1.6 + 0.2j, -0.7 + 0.5j):
        res = integrate(pot, np.array([lam]), with_c=True)
        direct = -res.c[0] / res.s[0, 0]
        analytic = complex(expected_weyl(data, lam))
        assert abs(direct - analytic) < 5e-3 * max(1.0, abs(analytic))


def test_expected_weyl_reduces_to_background():
    data = ZeroBackground().spectral_data(2)
    lam = 0.4 + 0.3j
    val = complex(expected_weyl(data, lam))
    base = -lam * np.cos(lam * pi) / np.sin(lam * pi)
    assert val == pytest.approx(base, rel=1e-12)


def test_roundtrip_on_model_data_is_clean():
    report = roundtrip_check(ZeroBackground().spectral_data(3), ZeroBackground(), 3)
    assert report.max_lam_err < 1e-6
    assert report.max_m_rel_err < 1e-5
    assert report.windings == {}


def test_roundtrip_double_eigenvalue_uses_stable_quantities():
    report = roundtrip_check(make_split_data(0.0), ZeroBackground(), 2)
    assert report.windings == {-1: (2, 2)}
    cluster_rows = [r for r in report.rows if abs(r.n) == 1]
    # grid discretization splits the double root at the sqrt scale, but the
    # contour-extracted location and Laurent coefficients stay accurate
    assert all(r.lam_err < 1e-3 for r in cluster_rows)
    assert all(r.M_rel_err < 1e-2 for r in cluster_rows)


def test_roundtrip_group_takes_one_circle_sample(circle_batches):
    roundtrip_check(make_split_data(0.0), ZeroBackground(), 2)
    # group circle, its half-radius check, and the cluster disc, each one call
    # of 32 nodes, none with chains
    assert circle_batches == [(32, 0)] * 3
