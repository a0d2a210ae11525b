"""Self-test of the benchmark at reduced sizes: python3 -m pytest benchmarks -q"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_qpencil()

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_output(name):
    wl = WORKLOADS[name]
    inp = next(wl.inputs(run._rng(3), small=True))
    return wl, inp, wl.op(inp)


def test_spec_declares_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        for m in SPEC[kind]:
            assert m["unit"] and m["better"] in ("higher", "lower")


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_emits_every_metric(name, trace):
    result, context, extra = run.run(name, seed=3, seconds=0.0, trace=trace, small=True,
                                     setup=name == "sweep")
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], extra["failures"]
    measured = {n: v for n, v in result["metrics"].items() if n != "setup_s" or name == "sweep"}
    assert all(math.isfinite(v) for v in measured.values())
    assert {"nproc", "cpu", "python", "numpy", "scipy", "blas_threads", "commit", "seed",
            "seconds"} <= set(context)
    if trace:
        # layer spans account for the op time, so the self times are complete
        assert result["metrics"]["trace.covered_share"] >= 0.9
        assert "per-layer self time" in extra["layer_table"]


def test_planted_double_root_fails_forward_check():
    wl, inp, (full, alphas) = small_output("forward")
    assert wl.check(inp, (full, alphas)).ok
    planted = full.replace_entry(2, lam=full.entry(1).lam + 1e-13)
    got = wl.check(inp, (planted, alphas))
    assert not got.ok and "one root" in got.why


def test_planted_sweep_row_fails_check():
    wl, deltas, (rows, metric) = small_output("sweep")
    assert wl.check(deltas, (rows, metric)).ok
    bad = [replace(r, d1=r.d1 * 1.05) if r.delta == 0.01 else r for r in rows]
    got = wl.check(deltas, (bad, metric))
    assert not got.ok and "d1 off" in got.why


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
