"""Command-line surface: verbs, file formats, exit codes."""

import json
import os
import subprocess
import sys
from math import pi
from pathlib import Path

import numpy as np
import pytest

import qpencil
from qpencil import (PotentialPair, SpectralDataSet, ZeroBackground, default_grid,
                     make_split_data, run_reconstruction)
from qpencil import cli
from qpencil.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from qpencil.forward import POTENTIALS_HEADER, write_csv
from qpencil.model import P_MAX
from conftest import group_at_1_3, system_of, zero_pair


def test_forward_zero_potentials(tmp_path, capsys):
    pot_path = tmp_path / "pot.csv"
    zero_pair(200).to_csv(pot_path)
    out = tmp_path / "spec.json"
    code = main(["forward", "--potentials", str(pot_path), "--n-max", "3",
                 "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    # written by the one spectral JSON writer
    assert text == json.dumps(SpectralDataSet.load_json(out).to_json_dict(), indent=2)
    payload = json.loads(text)
    assert payload["model"] == "dirichlet-zero"
    entries = {e["n"]: e for e in payload["entries"]}
    assert entries[2]["lambda"][0] == pytest.approx(2.0, abs=1e-8)
    assert entries[2]["M"][0] == pytest.approx(-2 / pi, abs=1e-6)


def test_forward_separates_roots_without_flags(tmp_path):
    from test_forward import _random_pair

    # Newton from n + omega0 alone puts indices 1, 2 and 3 on one root here
    pot_path = tmp_path / "pot.csv"
    _random_pair(0).to_csv(pot_path)
    out = tmp_path / "spec.json"
    code = main(["forward", "--potentials", str(pot_path), "--n-max", "6",
                 "--out", str(out)])
    assert code == EXIT_OK
    lams = {complex(*e["lambda"]) for e in json.loads(out.read_text())["entries"]}
    assert len(lams) == 12
    assert min(abs(a - b) for a in lams for b in lams if a != b) > 0.1


def test_inverse_on_split_data(tmp_path, capsys):
    data_path = tmp_path / "split.json"
    make_split_data(0.01).save_json(data_path)
    out = tmp_path / "rec.csv"
    code = main(["inverse", "--data", str(data_path), "--grid-n", "200",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert "max 1-norm condition" in capsys.readouterr().out
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,re_q1,im_q1,re_sigma,im_sigma"
    assert len(rows) == 202
    last = [float(v) for v in rows[-1].split(",")]
    assert last[0] == pytest.approx(pi, abs=1e-12)


def test_inverse_writes_what_forward_reads(tmp_path):
    data = make_split_data(0.01)
    data_path, rec_path, spec_path = (tmp_path / f for f in ("split.json", "rec.csv", "s.json"))
    data.save_json(data_path)
    assert main(["inverse", "--data", str(data_path), "--out", str(rec_path)]) == EXIT_OK
    got = PotentialPair.from_csv(rec_path)
    want = run_reconstruction(data, ZeroBackground(), default_grid(200)).as_potentials()
    for name in ("x", "q1", "sigma"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert main(["forward", "--potentials", str(rec_path), "--n-max", "3",
                 "--out", str(spec_path)]) == EXIT_OK
    lams = [e.lam for e in SpectralDataSet.load_json(spec_path).entries.values()]
    assert len(lams) == 6
    for lam in (0.6, 0.4 - 0.04j):      # the split pair, 1/2 + 1/10 and 1/2 - 1/10 + c delta
        assert min(abs(lam - mu) for mu in lams) < 1e-6, lam


def test_json_without_omega0_means_the_tails(tmp_path):
    # lambda_1 = lambda_3 = 1.2: lambda_n - n over the largest |n| averages -0.36 here,
    # yet the tail, like every JSON's, defines omega0 = 0
    lams = {-3: -3.0, -2: -2.0, -1: -1.0, 1: 1.2, 2: 2.0, 3: 1.2}
    entries = [{"n": n, "lambda": [lam, 0.0], "M": [-n / pi, 0.0]} for n, lam in lams.items()]
    written = []
    for name, head in (("without", {}), ("with", {"omega0": [0, 0]})):
        data_path, rec_path = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        data_path.write_text(json.dumps({**head, "model": "dirichlet-zero", "entries": entries}))
        assert SpectralDataSet.load_json(data_path).omega0 == 0
        assert main(["inverse", "--data", str(data_path), "--out", str(rec_path)]) == EXIT_OK
        written.append(rec_path.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("grid_n", ["1", "2"])
@pytest.mark.parametrize("command", ["inverse", "roundtrip", "split-table"])
def test_coarsest_grids_keep_the_exit_contract(tmp_path, command, grid_n):
    # on 2 nodes the running Simpson integral is the trapezoid, as in scipy
    data_path = tmp_path / "split.json"
    make_split_data(0.01).save_json(data_path)
    inputs = {"inverse": ["--data", str(data_path), "--out", str(tmp_path / "rec.csv")],
              "roundtrip": ["--data", str(data_path)],
              "split-table": ["--deltas", "0,0.01", "--out-dir", str(tmp_path / "table")]}
    code = main([command] + inputs[command] + ["--grid-n", grid_n])
    assert code in {EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL, EXIT_IO}


def test_inverse_missing_file_is_io_error(tmp_path):
    code = main(["inverse", "--data", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_IO


def test_inverse_bad_model_tag_is_validation_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": "unknown", "entries": []}))
    code = main(["inverse", "--data", str(path), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_VALIDATION


def _entry_without_m(tmp_path):
    path = tmp_path / "noM.json"
    path.write_text(json.dumps({"entries": [{"n": 1, "lambda": [1.0, 0.0]}]}))
    return ["inverse", "--data", str(path), "--out", str(tmp_path / "o.csv")]


def _non_numeric_csv(tmp_path):
    path = tmp_path / "pot.csv"
    path.write_text("x,re_q1,im_q1,re_sigma,im_sigma\n0.0,abc,0,0,0\n")
    return ["forward", "--potentials", str(path), "--out", str(tmp_path / "s.json")]


def _extra_field_csv(tmp_path):
    path = tmp_path / "pot.csv"
    write_csv(path, POTENTIALS_HEADER, [[x, 0, 0, 0, 0, 7] for x in (0, pi / 2, pi)])
    return ["forward", "--potentials", str(path), "--out", str(tmp_path / "s.json")]


def _short_row_csv(tmp_path):
    path = tmp_path / "pot.csv"
    write_csv(path, POTENTIALS_HEADER, [[0, 0, 0, 0, 0], [pi / 2, 0, 0, 0], [pi, 0, 0, 0, 0]])
    return ["forward", "--potentials", str(path), "--out", str(tmp_path / "s.json")]


def _oversized_csv_field(tmp_path):
    path = tmp_path / "pot.csv"    # 200,000 digits: over the csv module's field limit
    path.write_text(f"x,re_q1,im_q1,re_sigma,im_sigma\n0,0,0,0,0\n1.5,{'1' * 200_000},0,0,0\n")
    return ["forward", "--potentials", str(path), "--out", str(tmp_path / "s.json")]


def _bad_delta(tmp_path):
    return ["split-table", "--deltas", "0.01,abc", "--out-dir", str(tmp_path), "--no-verify"]


def _inverse_on_json(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    return ["inverse", "--data", str(path), "--out", str(tmp_path / "o.csv")]


_ENTRY = {"n": 1, "lambda": [1.0, 0.0], "M": [-1 / pi, 0.0]}


def _top_level_list(tmp_path):
    return _inverse_on_json(tmp_path, [])


def _scalar_omega0(tmp_path):
    return _inverse_on_json(tmp_path, {"omega0": 5, "entries": [_ENTRY]})


def _short_omega0(tmp_path):
    return _inverse_on_json(tmp_path, {"omega0": [1], "entries": [_ENTRY]})


def _text_omega0(tmp_path):
    return _inverse_on_json(tmp_path, {"omega0": ["x", 0], "entries": [_ENTRY]})


def _huge_json_index(tmp_path):    # no list of indices up to 10**30 is built
    return _inverse_on_json(tmp_path, {"entries": [_ENTRY, dict(_ENTRY, n=10**30)]})


def _huge_negative_json_index(tmp_path):
    argv = _inverse_on_json(tmp_path, {"entries": [_ENTRY, dict(_ENTRY, n=-10**30)]})
    return ["roundtrip", *argv[1:3]]


_HUGE = 10**400      # an integer that complex() cannot convert to a float


def _huge_json_lambda(tmp_path):
    return _inverse_on_json(tmp_path, {"entries": [dict(_ENTRY, **{"lambda": [_HUGE, 0]})]})


def _huge_json_m(tmp_path):
    return _inverse_on_json(tmp_path, {"entries": [dict(_ENTRY, M=[0, -_HUGE])]})


def _huge_json_omega0(tmp_path):
    argv = _inverse_on_json(tmp_path, {"omega0": [_HUGE, 0], "entries": [_ENTRY]})
    return ["roundtrip", *argv[1:3]]


@pytest.mark.parametrize("argv_for", [_entry_without_m, _non_numeric_csv, _extra_field_csv,
                                      _short_row_csv, _bad_delta, _top_level_list,
                                      _scalar_omega0, _short_omega0, _text_omega0,
                                      _oversized_csv_field, _huge_json_index,
                                      _huge_negative_json_index, _huge_json_lambda,
                                      _huge_json_m, _huge_json_omega0])
def test_malformed_input_is_validation_error(tmp_path, argv_for):
    assert main(argv_for(tmp_path)) == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["inverse", "roundtrip"])
@pytest.mark.parametrize("omega0", [[float("nan"), 0], [0, float("inf")]])
def test_non_finite_omega0_is_validation_error(tmp_path, capsys, command, omega0):
    path = tmp_path / "omega0.json"
    path.write_text(json.dumps({"omega0": omega0, "entries": [_ENTRY]}))   # NaN, Infinity
    out = tmp_path / "o.csv"
    argv = [command, "--data", str(path)] + (["--out", str(out)] if command == "inverse" else [])
    assert main(argv) == EXIT_VALIDATION
    assert "omega0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("index", [1.5, True, "3"])
def test_non_integer_json_index_is_validation_error(tmp_path, capsys, index):
    # int() would read these as indices 1, 1 and 3
    argv = _inverse_on_json(tmp_path, {"entries": [dict(_ENTRY, n=index)]})
    assert main(argv) == EXIT_VALIDATION
    assert "index must be a JSON integer" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("field, value", [("lambda", [True, 0]), ("lambda", [1.0, 0.0, 0.0]),
                                          ("M", [1, 2, 3]), ("M", [-0.3, False]),
                                          ("omega0", [False, 0]), ("omega0", [0, 0, 1])])
def test_json_pair_must_be_two_numbers(tmp_path, capsys, field, value):
    # complex(v[0], v[1]) would read [True, 0] as 1 and drop a third component
    payload = {"omega0": [0.0, 0.0], "entries": [_ENTRY]}
    if field == "omega0":
        payload["omega0"] = value
    else:
        payload["entries"] = [dict(_ENTRY, **{field: value})]
    assert main(_inverse_on_json(tmp_path, payload)) == EXIT_VALIDATION
    assert f"{field} must be a JSON pair" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def _undecodable_csv(tmp_path):
    path = tmp_path / "pot.csv"
    path.write_bytes(b"x,re_q1,im_q1,re_sigma,im_sigma\n0,0,0,0,0\n\xff,0,0,0,0\n")
    return ["forward", "--potentials", str(path), "--out", str(tmp_path / "s.json")]


def _on_json_bytes(command, data):
    def argv_for(tmp_path):
        path = tmp_path / "data.json"
        path.write_bytes(data)
        out = ["--out", str(tmp_path / "o.csv")] if command == "inverse" else []
        return [command, "--data", str(path)] + out
    return argv_for


@pytest.mark.parametrize("argv_for", [
    pytest.param(_undecodable_csv, id="forward-not-utf8"),
    pytest.param(_on_json_bytes("inverse", b'{"entries": [], "model": "\xff"}'),
                 id="inverse-not-utf8"),
    pytest.param(_on_json_bytes("roundtrip", b"\xff"), id="roundtrip-not-utf8"),
    pytest.param(_on_json_bytes("inverse", b'{"entries": ['), id="inverse-not-json"),
    # an integer beyond the interpreter's 4300-digit conversion limit
    pytest.param(_on_json_bytes("inverse", b'{"entries": [{"n": ' + b"1" * 5000 + b"}]}"),
                 id="inverse-long-integer"),
    # the decoder raises RecursionError
    pytest.param(_on_json_bytes("inverse", b"[" * 100000), id="inverse-deep"),
    pytest.param(_on_json_bytes("roundtrip", b"[" * 100000), id="roundtrip-deep"),
])
def test_unreadable_input_is_io_error(tmp_path, capsys, argv_for):
    assert main(argv_for(tmp_path)) == EXIT_IO
    assert "i/o error: cannot read" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists() and not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("delta", ["inf", "nan"])
def test_non_finite_delta_is_validation_error(tmp_path, capsys, delta):
    argv = ["split-table", "--deltas", f"0.01,{delta}", "--out-dir", str(tmp_path), "--no-verify"]
    assert main(argv) == EXIT_VALIDATION
    assert "splitting parameters must be finite" in capsys.readouterr().err


def test_forward_has_no_grid_n():
    with pytest.raises(SystemExit) as exc:    # argparse rejects the unknown flag
        main(["forward", "--potentials", "p.csv", "--out", "s.json", "--grid-n", "50"])
    assert exc.value.code == EXIT_VALIDATION


def test_split_table_has_no_tolerance_profile():
    with pytest.raises(SystemExit) as exc:    # the sweep has no tolerances to pick
        main(["split-table", "--deltas", "0.05", "--tolerance-profile", "strict"])
    assert exc.value.code == EXIT_VALIDATION


def test_split_table_writes_outputs(tmp_path, capsys):
    code = main(["split-table", "--deltas", "0.05,0.01", "--out-dir",
                 str(tmp_path), "--no-verify"])
    assert code == EXIT_OK
    assert (tmp_path / "table.csv").exists()
    assert (tmp_path / "potentials_delta=0.01.csv").exists()
    printed = capsys.readouterr().out
    assert "0.4157" in printed or "0.416" in printed


def test_inverse_on_json_matches_split_table(tmp_path):
    # the same split data through JSON and through the API, alone and stacked
    rec = {}
    for delta in (0.0, 0.01):
        data_path = tmp_path / f"split{delta:g}.json"
        make_split_data(delta).save_json(data_path)
        rec[delta] = tmp_path / f"rec{delta:g}.csv"
        assert main(["inverse", "--data", str(data_path), "--out", str(rec[delta])]) == EXIT_OK
    assert main(["split-table", "--deltas", "0", "--no-verify",
                 "--out-dir", str(tmp_path / "table")]) == EXIT_OK
    assert rec[0.0].read_bytes() == (tmp_path / "table" / "potentials_delta=0.csv").read_bytes()
    assert main(["split-table", "--deltas", "0,0.01,0.05", "--no-verify",
                 "--out-dir", str(tmp_path / "stack")]) == EXIT_OK
    for delta in (0.0, 0.01):
        stacked = tmp_path / "stack" / f"potentials_delta={delta:g}.csv"
        assert rec[delta].read_bytes() == stacked.read_bytes(), delta


def test_inverse_on_split_below_the_grouping_tolerance(tmp_path):
    # read as the double eigenvalue's data, not as residues relabelled Laurent
    # coefficients, which reconstruct 228 away in q1
    data_path, rec_path = tmp_path / "split1e-19.json", tmp_path / "rec.csv"
    make_split_data(1e-19).save_json(data_path)
    assert main(["inverse", "--data", str(data_path), "--out", str(rec_path)]) == EXIT_OK
    got = PotentialPair.from_csv(rec_path)
    want = run_reconstruction(make_split_data(0.0), ZeroBackground(), default_grid(200))
    want = want.as_potentials()
    assert np.max(np.abs(got.q1 - want.q1)) <= 1e-6
    assert np.max(np.abs(got.sigma - want.sigma)) <= 1e-6


def test_groups_of_up_to_p_max_plus_one_assemble(tmp_path, capsys):
    # a group of size m needs derivative order m - 1: size 5 = P_MAX + 1 assembles, size 6
    # is a validation error.  Reconstruction is checked only for sizes up to 3.
    system = system_of(group_at_1_3(P_MAX + 1), ZeroBackground(), default_grid(30))
    assert system.layout.m.max() == P_MAX + 1
    data_path = tmp_path / "six.json"
    group_at_1_3(P_MAX + 2).save_json(data_path)
    code = main(["inverse", "--data", str(data_path), "--out", str(tmp_path / "rec.csv")])
    assert code == EXIT_VALIDATION
    assert "group size 6" in capsys.readouterr().err


def test_split_table_bad_contour_is_validation_error(tmp_path, capsys):
    # r = 2.5 encloses the tail's eigenvalues +-2: exit 2 before the sweep runs
    code = main(["split-table", "--deltas", "0.05", "--contour-r", "2.5", "--metrics",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().out == "" and list(tmp_path.iterdir()) == []
    # r = 1.5 separates the cluster at +-1 from +-2
    code = main(["split-table", "--deltas", "0.05", "--contour-r", "1.5", "--metrics",
                 "--no-verify"])
    assert code == EXIT_OK
    assert "delta=0.05     metric=" in capsys.readouterr().out


def test_roundtrip_on_model_data(tmp_path, capsys):
    data_path = tmp_path / "model.json"
    ZeroBackground().spectral_data(2).save_json(data_path)
    code = main(["roundtrip", "--data", str(data_path), "--n-check", "2"])
    assert code == EXIT_OK
    assert "lam_in" in capsys.readouterr().out


def test_roundtrip_separates_a_triple_group_on_a_coarse_grid(tmp_path, capsys):
    # on 100 intervals the grid splits the triple root at 1.3 by 0.06-0.09; the group's
    # circle is group_radius's 0.2 (the nearest other eigenvalue, the tail's -1, lies 2.3
    # away), which holds all three, where a circle of 0.05 held none
    data_path = tmp_path / "triple.json"
    group_at_1_3(3).save_json(data_path)
    code = main(["roundtrip", "--data", str(data_path), "--n-check", "3", "--grid-n", "100"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "group at 1: winding expected 3, measured 3" in out
    rows = {int(n): (float(lam), float(M)) for n, lam, M in
            (line.split() for line in out.splitlines()[1:7])}
    assert sorted(rows) == [-3, -2, -1, 1, 2, 3]
    assert max(lam for lam, _ in rows.values()) <= 1e-3
    assert max(M for _, M in rows.values()) <= 1e-3


def test_roundtrip_winding_mismatch_is_numerical_error(tmp_path, monkeypatch, capsys):
    data_path = tmp_path / "split0.json"
    make_split_data(0.0).save_json(data_path)
    inner = cli.roundtrip_check

    def one_root_short(*args, **kwargs):
        report = inner(*args, **kwargs)
        report.windings = {start: (want, want - 1) for start, (want, _) in report.windings.items()}
        return report

    monkeypatch.setattr(cli, "roundtrip_check", one_root_short)
    assert main(["roundtrip", "--data", str(data_path)]) == EXIT_NUMERICAL
    assert "group at -1: winding expected 2, measured 1" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["inverse", "roundtrip"])
def test_profile_cond_limit_is_honoured(tmp_path, monkeypatch, command):
    data_path = tmp_path / "split.json"
    make_split_data(0.01).save_json(data_path)
    monkeypatch.setitem(cli.PROFILES["default"], "cond_limit", 1.0)
    argv = [command, "--data", str(data_path)]
    if command == "inverse":
        argv += ["--out", str(tmp_path / "rec.csv")]
    assert main(argv) == EXIT_NUMERICAL


@pytest.mark.parametrize("command", ["inverse", "roundtrip"])
def test_overflowing_data_is_numerical_error(tmp_path, command):
    # sin(lam x) overflows for lam = 1 + 200i and P holds inf/NaN; a
    # subprocess keeps the overflow RuntimeWarning a warning, as a user sees it
    payload = make_split_data(0.01).to_json_dict()
    payload["entries"][1]["lambda"] = [1.0, 200.0]
    data_path = tmp_path / "overflow.json"
    data_path.write_text(json.dumps(payload))
    argv = [command, "--data", str(data_path)]
    if command == "inverse":
        argv += ["--out", str(tmp_path / "rec.csv")]
    env = {**os.environ, "PYTHONPATH": str(Path(qpencil.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "qpencil"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_NUMERICAL, proc.stderr
    assert "numerically singular" in proc.stderr


@pytest.mark.parametrize("column, value, codes", [
    (3, 1e200, {EXIT_NUMERICAL}),                   # sigma(pi/2): Delta is not finite
    (1, 1e308, {EXIT_VALIDATION, EXIT_NUMERICAL}),  # q1: its mean overflows
], ids=["sigma", "q1"])
def test_forward_overflow_keeps_the_exit_contract(tmp_path, column, value, codes):
    # in process, where the suite turns an overflow RuntimeWarning into an error
    rows = [[x, 0.0, 0.0, 0.0, 0.0] for x in (0.0, pi / 2, pi)]
    for row in rows if column == 1 else rows[1:2]:
        row[column] = value
    pot_path = tmp_path / "pot.csv"
    write_csv(pot_path, POTENTIALS_HEADER, rows)
    argv = ["forward", "--potentials", str(pot_path), "--out", str(tmp_path / "s.json")]
    assert main(argv) in codes


def test_forward_names_the_overflowing_mean_of_q1(tmp_path, capsys):
    pot_path = tmp_path / "pot.csv"
    write_csv(pot_path, POTENTIALS_HEADER, [[x, 1e308, 0.0, 0.0, 0.0] for x in (0.0, pi / 2, pi)])
    argv = ["forward", "--potentials", str(pot_path), "--out", str(tmp_path / "s.json")]
    assert main(argv) == EXIT_VALIDATION
    assert "the mean of q1 is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("forward", ["--n-max", "0"]),
    ("forward", ["--n-max", "-2"]),
    ("inverse", ["--grid-n", "-3"]),
    ("inverse", ["--grid-n", "0"]),
    ("roundtrip", ["--grid-n", "-3"]),
    ("split-table", ["--grid-n", "-3"]),
    ("roundtrip", ["--n-check", "0"]),
    ("roundtrip", ["--n-check", "-1"]),
    ("inverse", ["--trunc-n", "-1"]),
    ("inverse", ["--min-window", "-5"]),
    ("roundtrip", ["--trunc-n", "-1"]),
], ids=lambda v: v if isinstance(v, str) else " ".join(v[:2]))  # the bad flag first
def test_bad_numeric_flag_is_validation_error(tmp_path, command, flags):
    pot_path = tmp_path / "pot.csv"
    zero_pair(200).to_csv(pot_path)
    data_path = tmp_path / "split.json"
    make_split_data(0.01).save_json(data_path)
    inputs = {
        "forward": ["--potentials", str(pot_path), "--out", str(tmp_path / "s.json")],
        "inverse": ["--data", str(data_path), "--out", str(tmp_path / "rec.csv")],
        "roundtrip": ["--data", str(data_path)],
        "split-table": ["--deltas", "0.05", "--out-dir", str(tmp_path), "--no-verify"],
    }
    with pytest.raises(SystemExit) as exc:    # argparse rejects the value
        main([command] + inputs[command] + flags)
    assert exc.value.code == EXIT_VALIDATION
