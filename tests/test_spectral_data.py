"""Ordering, grouping and truncation."""

import itertools
import json
import re
from math import pi

import numpy as np
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
    default_grid,
    make_split_data,
    run_reconstruction,
    truncate_hybrid,
)
from qpencil.spectral_data import GROUPING_TOL, Group, clusters
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
    raw = [SpectralEntry(1, 0.5, -1j / (2 * pi)), SpectralEntry(-1, 0.5, -1 / pi)]
    ds = SpectralDataSet.from_entries(raw, tail=ZeroBackground(), omega0=0.0)
    assert len(ds.groups) == 1
    g = ds.groups[0]
    assert g.start == -1 and g.size == 2
    assert g.members == (-1, 1)
    assert ds.entries[-1].M == pytest.approx(-1 / pi)
    assert ds.entries[1].M == pytest.approx(-1j / (2 * pi))


def test_model_like_data_stays_singletons():
    raw = [SpectralEntry(n, n, -n / pi) for n in window(3)]
    ds = SpectralDataSet.from_entries(raw, tail=ZeroBackground())
    assert len(ds.groups) == 6
    assert all(g.size == 1 for g in ds.groups)
    assert [g.start for g in ds.groups] == window(3)


def test_grouping_tolerance_collapses_close_eigenvalues():
    raw = [SpectralEntry(1, 1 + 1e-15, 1.0), SpectralEntry(2, 1.0, 2.0)]
    ds = SpectralDataSet.from_entries(raw)
    assert len(ds.groups) == 1
    assert ds.groups[0].start == 1 and ds.groups[0].size == 2
    # both entries carry literally the same eigenvalue after collapse
    assert ds.entries[1].lam == ds.entries[2].lam


def test_close_eigenvalues_keep_their_meaning_or_raise():
    # equal bits: the coefficients already are the group's Laurent coefficients
    equal = SpectralDataSet.from_entries([SpectralEntry(1, 1.0, 1.0), SpectralEntry(2, 1.0, 2.0)])
    assert [equal.entries[n].M for n in (1, 2)] == [1.0, 2.0]
    # without coefficients only the eigenvalues collapse
    bare = SpectralDataSet.from_entries([SpectralEntry(1, 1.0), SpectralEntry(2, 1 + 1e-12)])
    assert bare.entries[1].lam == bare.entries[2].lam and bare.groups[0].size == 2
    assert [bare.entries[n].M for n in (1, 2)] == [None, None]
    # two equal and one distinct: neither Laurent coefficients nor residues
    raw = [SpectralEntry(n, lam, 1.0) for n, lam in ((1, 1.0), (2, 1.0), (3, 1 + 1e-12))]
    with pytest.raises(ValidationError, match="mix equal and distinct"):
        SpectralDataSet.from_entries(raw)
    # a chain merges as a whole: 1 + 0.9e-9 links 1 and 1 + 1.2e-9 into one group of
    # three about c = 1 + 0.7e-9, whose moments sum_k (lam_k - c)^nu are 3, 0 and 7.8e-19;
    # across the sign gap the link runs through the member at 2, not the first value at 1
    for ns in ((1, 2, 3), (1, 2, -1)):
        chain = [SpectralEntry(n, lam, 1.0) for n, lam in zip(ns, (1.0, 1 + 0.9e-9, 1 + 1.2e-9))]
        chain_json = {"entries": [{"n": e.n, "lambda": [e.lam.real, e.lam.imag], "M": [1.0, 0.0]}
                                  for e in chain]}
        ds = SpectralDataSet.from_entries(chain)
        first = min(ns)
        assert [(g.start, g.size) for g in ds.groups] == [(first, 3)]
        assert ds.groups[0].lam == pytest.approx(1 + 0.7e-9, abs=1e-15)
        Ms = [ds.entries[n].M for n in ds.groups[0].members]
        assert Ms[0] == 3.0 and abs(Ms[1]) < 1e-24 and Ms[2] == pytest.approx(7.8e-19, rel=1e-3)
        # it rebuilds identically: from its own entries, through JSON, and from the raw JSON
        for again in (SpectralDataSet.from_entries(ds.entries.values()),
                      SpectralDataSet.from_json_dict(json.loads(json.dumps(ds.to_json_dict()))),
                      SpectralDataSet.from_json_dict(chain_json)):
            assert again.entries == ds.entries and again.groups == ds.groups


def test_equal_eigenvalues_are_regrouped_by_every_constructor():
    # lambda_1 = lambda_3 = 1.2 with lambda_2 = 2 between them
    lams = {-3: -3.0, -2: -2.0, -1: -1.0, 1: 1.2, 2: 2.0, 3: 1.2}
    built = SpectralDataSet.from_entries(
        [SpectralEntry(n, lam, -n / pi) for n, lam in lams.items()],
        tail=ZeroBackground(), omega0=0.0)
    replaced = ZeroBackground().spectral_data(3).replace_entry(1, lam=1.2) \
        .replace_entry(3, lam=1.2)
    recs = []
    for ds in (built, replaced):
        assert [(g.start, g.size) for g in ds.groups] == \
            [(-3, 1), (-2, 1), (-1, 1), (1, 2), (3, 1)]
        assert [ds.entries[n].lam for n in (1, 2, 3)] == [1.2, 1.2, 2.0]
        assert [ds.entries[n].M for n in (1, 2, 3)] == [-1 / pi, -3 / pi, -2 / pi]
        recs.append(run_reconstruction(ds, ZeroBackground(), default_grid(100)))
    assert np.array_equal(recs[0].q1, recs[1].q1)
    assert np.array_equal(recs[0].q0_antideriv, recs[1].q0_antideriv)
    assert np.all(np.isfinite(recs[0].q1))

    # eigenvalues within GROUPING_TOL come out as one value, in the group too, and
    # their residues as the moments sum_k R_k (lam_k - c)^nu about the mean c
    close = SpectralDataSet.from_entries([SpectralEntry(1, 1 + 1e-12, 1.0),
                                          SpectralEntry(2, 1.0, 2.0)])
    close_replaced = SpectralDataSet.from_entries(
        [SpectralEntry(1, 1.0, 1.0), SpectralEntry(2, 3.0, 2.0)]).replace_entry(2, lam=1 + 1e-12)
    # lam_k - c = +-5e-13, so m_1 = 1.0 (+-5e-13) + 2.0 (-+5e-13)
    for ds, m1 in ((close, -5e-13), (close_replaced, 5e-13)):
        assert ds.entries[1].lam == ds.entries[2].lam == ds.groups[0].lam
        assert [(g.start, g.size) for g in ds.groups] == [(1, 2)]
        assert ds.entries[1].M == 3.0
        assert ds.entries[2].M == pytest.approx(m1, rel=1e-3)


def test_duplicate_index_rejected():
    with pytest.raises(DuplicateIndexError):
        SpectralDataSet.from_entries([SpectralEntry(1, 1.0, 1.0), SpectralEntry(1, 2.0, 1.0)])


def test_sign_conflict_rejected():
    # equal eigenvalues at -2 and 2 with distinct values in between cannot
    # be regrouped without crossing the sign of n
    raw = [SpectralEntry(-2, 7.0, 1.0), SpectralEntry(-1, -1.0, 1.0),
           SpectralEntry(1, 1.0, 1.0), SpectralEntry(2, 7.0, 1.0)]
    with pytest.raises(SignConflictError):
        SpectralDataSet.from_entries(raw)


def test_same_sign_regrouping_moves_values():
    raw = [SpectralEntry(1, 5.0, 10.0), SpectralEntry(2, 3.0, 20.0), SpectralEntry(3, 5.0, 30.0)]
    ds = SpectralDataSet.from_entries(raw)
    assert [g.size for g in ds.groups] == [2, 1]
    assert ds.entries[1].M == 10.0
    assert ds.entries[2].M == 30.0   # second member of the 5.0 group
    assert ds.entries[3].M == 20.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 0.9e-9, 1.0 + 1.2e-9, 1j]),
                          st.complex_numbers(max_magnitude=3, allow_nan=False,
                                             allow_infinity=False)), max_size=12),
       st.one_of(st.sampled_from([0.0, GROUPING_TOL, 0.5]), st.floats(0.0, 2.0)))
def test_clusters_are_single_linkage(values, tol):
    found = clusters(values, tol)
    linked = lambda i, j: abs(values[i] - values[j]) <= tol
    assert sorted(i for cl in found for i in cl) == list(range(len(values)))
    assert [cl[0] for cl in found] == sorted(cl[0] for cl in found)
    for cl in found:
        assert cl == sorted(cl)
        # every member is reached from the first by steps <= tol inside the cluster
        reached = {cl[0]}
        while more := {j for j in cl if j not in reached and any(linked(i, j) for i in reached)}:
            reached |= more
        assert reached == set(cl)
    for a, b in itertools.combinations(found, 2):
        assert not any(linked(i, j) for i in a for j in b)


# values that recur, so draws put equal eigenvalues on both signs of n
_LAMS = st.one_of(st.sampled_from([0.5, 1.0, 1.0 + 1e-12, 1.0 + 0.9e-9, 1.0 + 1.2e-9, 2j]),
                  st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))


@settings(max_examples=50, deadline=None)
@given(st.lists(_LAMS, min_size=1, max_size=6), st.integers(0, 6))
def test_normalize_is_idempotent(lams, n_neg):
    n_neg = min(n_neg, len(lams))
    ns = list(range(-n_neg, 0)) + list(range(1, len(lams) - n_neg + 1))
    raw = [SpectralEntry(n, lam, float(k)) for k, (n, lam) in enumerate(zip(ns, lams))]
    raw_json = {"entries": [{"n": e.n, "lambda": [e.lam.real, e.lam.imag],
                             "M": [e.M.real, e.M.imag]} for e in raw]}
    try:
        ds = SpectralDataSet.from_entries(raw, tail=ZeroBackground())
    except ValidationError as err:
        assert isinstance(err, SignConflictError) or "mix equal and distinct" in str(err) \
            or "chain across two clusters" in str(err)
        with pytest.raises(type(err), match=re.escape(str(err))):
            SpectralDataSet.from_json_dict(raw_json)
        return
    again = SpectralDataSet.from_entries(
        [SpectralEntry(n, ds.entries[n].lam, ds.entries[n].M) for n in ds.window_indices()])
    assert ds.entries == again.entries
    assert ds.groups == again.groups
    via_json = SpectralDataSet.from_json_dict(raw_json)
    assert via_json.entries == ds.entries
    assert via_json.groups == ds.groups
    assert via_json.omega0 == ds.omega0


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


def test_omega0_is_given_or_the_tails():
    # the entries' own shift lam_n - n = 0.3 + 0.1i does not set omega0
    raw = [SpectralEntry(n, n + 0.3 + 0.1j, -n / pi) for n in window(6)]

    class Shifted(ZeroBackground):
        omega0 = 0.5 + 0.0j

    assert SpectralDataSet.from_entries(raw).omega0 == 0
    assert SpectralDataSet.from_entries(raw, tail=ZeroBackground()).omega0 == 0
    assert SpectralDataSet.from_entries(raw, tail=Shifted()).omega0 == 0.5
    assert SpectralDataSet.from_entries(raw, tail=Shifted(), omega0=0.3 + 0.1j).omega0 == 0.3 + 0.1j


def test_entries_immutable():
    e = SpectralEntry(n=1, lam=1.0, M=2.0)
    with pytest.raises(AttributeError):
        e.lam = 3.0
