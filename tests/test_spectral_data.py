"""Ordering, grouping, diagnostics, truncation, and splitting-condition checks."""

from math import pi

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpencil import (
    DuplicateIndexError,
    SignConflictError,
    SpectralDataSet,
    SpectralEntry,
    ValidationError,
    ZeroBackground,
    compute_diagnostics,
    eta_weight,
    make_split_data,
    normalize_ordering,
    truncate_hybrid,
    validate_splitting_conditions,
)
from qpencil.spectral_data import Group
from qpencil.zindex import offset, shift, window


def test_zindex_skips_zero():
    assert shift(-1, 1) == 1
    assert shift(-2, 1) == -1
    assert shift(-1, 2) == 2
    assert shift(1, -1) == -1
    assert offset(-1, 1) == 1
    assert offset(-3, 2) == 4
    assert window(2) == [-2, -1, 1, 2]


def test_group_for_matches_a_scan_over_the_groups():
    lams = {-3: -3.0, -2: -2.0, -1: 0.5, 1: 0.5, 2: 3.1, 3: 3.1, 4: 3.1}
    ds = SpectralDataSet.from_entries(
        [SpectralEntry(n=n, lam=lam, M=-1.0) for n, lam in lams.items()],
        tail=ZeroBackground(), omega0=0.0)
    assert sorted(g.size for g in ds.groups) == [1, 1, 2, 3]
    for n in window(8):
        want = next((g for g in ds.groups if n in g.members), None)
        if want is None:
            want = Group(start=n, size=1, lam=ds.entry(n).lam)
        assert ds.group_for(n) == want


def test_entries_store_complex_values():
    e = SpectralEntry(n=1, lam=0.5, M=-1)
    assert type(e.lam) is complex and type(e.M) is complex
    assert SpectralEntry(n=1, lam=0.5).M is None


def test_double_eigenvalue_pair_groups_across_gap():
    raw = [(1, 0.5, -1j / (2 * pi)), (-1, 0.5, -1 / pi)]
    ds = normalize_ordering(raw, tail=ZeroBackground(), omega0=0.0)
    assert len(ds.groups) == 1
    g = ds.groups[0]
    assert g.start == -1 and g.size == 2
    assert g.members == (-1, 1)
    assert ds.entries[-1].M == pytest.approx(-1 / pi)
    assert ds.entries[1].M == pytest.approx(-1j / (2 * pi))


def test_model_like_data_stays_singletons():
    raw = [(n, n, -n / pi) for n in window(3)]
    ds = normalize_ordering(raw, tail=ZeroBackground())
    assert len(ds.groups) == 6
    assert all(g.size == 1 for g in ds.groups)
    assert [g.start for g in ds.groups] == window(3)


def test_grouping_tolerance_collapses_close_eigenvalues():
    raw = [(1, 1 + 1e-15, 1.0), (2, 1.0, 2.0)]
    ds = normalize_ordering(raw)
    assert len(ds.groups) == 1
    assert ds.groups[0].start == 1 and ds.groups[0].size == 2
    # both entries carry literally the same eigenvalue after collapse
    assert ds.entries[1].lam == ds.entries[2].lam


def test_duplicate_index_rejected():
    with pytest.raises(DuplicateIndexError):
        normalize_ordering([(1, 1.0, 1.0), (1, 2.0, 1.0)])


def test_sign_conflict_rejected():
    # equal eigenvalues at -2 and 2 with distinct values in between cannot
    # be regrouped without crossing the sign of n
    raw = [(-2, 7.0, 1.0), (-1, -1.0, 1.0), (1, 1.0, 1.0), (2, 7.0, 1.0)]
    with pytest.raises(SignConflictError):
        normalize_ordering(raw)


def test_same_sign_regrouping_moves_values():
    raw = [(1, 5.0, 10.0), (2, 3.0, 20.0), (3, 5.0, 30.0)]
    ds = normalize_ordering(raw)
    assert [g.size for g in ds.groups] == [2, 1]
    assert ds.entries[1].M == 10.0
    assert ds.entries[2].M == 30.0   # second member of the 5.0 group
    assert ds.entries[3].M == 20.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
def test_normalize_is_idempotent(lams):
    n_side = len(lams)
    raw = [(k + 1, lams[k], float(k)) for k in range(n_side)]
    ds = normalize_ordering(raw)
    again = normalize_ordering(
        [(n, ds.entries[n].lam, ds.entries[n].M) for n in ds.window_indices()])
    assert ds.entries == again.entries
    assert ds.groups == again.groups


def test_diagnostics_identical_data():
    model = ZeroBackground().spectral_data(4)
    d = compute_diagnostics(model, model, 2)
    assert all(v == 0.0 for v in d.xi.values())
    assert d.omega == 0.0
    assert all(d.chi[n] * d.theta[n] in (0.0, 1.0) for n in d.theta)


def test_diagnostics_single_perturbed_eigenvalue():
    model = ZeroBackground().spectral_data(3)
    data = model.replace_entry(2, lam=2.1)
    d = compute_diagnostics(data, model, 1)
    assert d.xi[2] == pytest.approx(0.1, abs=1e-14)
    assert d.omega == pytest.approx(0.2, abs=1e-13)
    assert d.chi[2] * d.theta[2] == pytest.approx(1.0)


def test_diagnostics_split_data_tail_untouched():
    data = make_split_data(0.01)
    model = ZeroBackground().spectral_data(3)
    d = compute_diagnostics(data, model, 1)
    assert d.tail_norm(1) == 0.0
    assert d.omega_n == 0.0


def test_diagnostics_group_mismatch_gives_unit_xi():
    data = make_split_data(0.0)     # double eigenvalue at 1/2
    model = ZeroBackground().spectral_data(2)  # simple everywhere
    d = compute_diagnostics(data, model, 1)
    assert d.xi[-1] == 1.0
    assert d.xi[1] == 1.0


def test_tail_norm_nonincreasing():
    model = ZeroBackground().spectral_data(6)
    data = model.replace_entry(2, lam=2.05).replace_entry(5, lam=5.2)
    d = compute_diagnostics(data, model, 1)
    values = [d.tail_norm(n) for n in range(0, 7)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    assert d.tail_norm(0) == pytest.approx(d.omega)


def test_truncate_hybrid_levels():
    model = ZeroBackground().spectral_data(4)
    data = make_split_data(0.01)
    full = truncate_hybrid(data, model, 4)
    assert full.entry(1).lam == data.entry(1).lam
    nothing = truncate_hybrid(data, model, 0)
    for n in window(4):
        assert nothing.entry(n).lam == model.entry(n).lam
    same = truncate_hybrid(data, model, 1)
    for n in window(4):
        assert same.entry(n).lam == pytest.approx(
            data.entry(n).lam if abs(n) <= 1 else model.entry(n).lam)
    with pytest.raises(ValidationError, match="negative"):
        truncate_hybrid(data, model, -1)


def test_truncate_hybrid_outside_is_model_elementwise():
    model = ZeroBackground().spectral_data(5)
    data = make_split_data(0.02)
    out = truncate_hybrid(data, model, 1)
    for n in window(5):
        if abs(n) > 1:
            assert out.entry(n).lam == model.entry(n).lam
            assert out.entry(n).M == model.entry(n).M


def test_splitting_conditions_reference_data():
    model = make_split_data(0.0)
    for delta in (0.05, 0.01, 0.001):
        data = make_split_data(delta)
        report = validate_splitting_conditions(data, model, 1, delta, slack=1.5)
        assert report.all_passed, [c.name for c in report.violated()]


def test_splitting_conditions_identity():
    model = ZeroBackground().spectral_data(3)
    report = validate_splitting_conditions(model, model, 1, 0.01)
    assert report.all_passed
    moments = [c for c in report.checks if c.name.startswith("moment")]
    assert all(c.measured == 0.0 for c in moments)


def test_splitting_conditions_detect_duplicate():
    model = ZeroBackground().spectral_data(3)
    data = model.replace_entry(2, lam=1.0)  # collides with lam_1
    report = validate_splitting_conditions(data, model, 1, 0.01)
    names = [c.name for c in report.violated()]
    assert "pairwise-distinct" in names


def test_json_roundtrip(tmp_path):
    data = make_split_data(0.005)
    path = tmp_path / "data.json"
    data.save_json(path)
    back = SpectralDataSet.load_json(path)
    assert back.window_indices() == data.window_indices()
    for n in data.window_indices():
        assert back.entries[n].lam == data.entries[n].lam
        assert back.entries[n].M == data.entries[n].M
    assert back.omega0 == data.omega0


def test_json_defaults_outside_entries_to_model():
    data = make_split_data(0.01)
    assert data.entry(7).lam == 7.0
    assert data.entry(-4).M == pytest.approx(4 / pi)


def test_omega0_estimate_from_largest_indices():
    shiftv = 0.3 + 0.1j
    raw = [(n, n + shiftv, -n / pi) for n in window(6)]
    ds = normalize_ordering(raw)
    assert ds.omega0 == pytest.approx(shiftv)


def test_eta_weight_decays():
    vals = [eta_weight(k) for k in (1, 4, 16, 64)]
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[-1]


def test_entries_immutable():
    e = SpectralEntry(n=1, lam=1.0, M=2.0)
    with pytest.raises(AttributeError):
        e.lam = 3.0
