"""qpencil benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``qpencil`` from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics (half the time untraced,
then the same inputs again with every layer traced).  The last line of
standard output is the JSON result; a copy with the run's context, and the
spans of a traced run, go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROCESSES = 3

# A shared 2-CPU virtual machine was seen to change speed by up to 2x over
# periods of seconds to minutes, with no steal time visible to the process.
# Reference passes of a fixed task that does not use qpencil are therefore
# interleaved with the ops, and times are reported at reference speed:
# wall-clock seconds * REF_PASS_S / (median pass time next to the interval).
# REF_PASS_S is about the pass time on that machine in its fast state.
REF_PASS_S = 0.010
REF_DUTY = 0.15         # reference time after each op, as a share of the op

# Cap BLAS/OpenMP pools at the CPUs this process may use, before numpy loads;
# the set-up probes inherit the cap through the environment.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def import_qpencil():
    """Import the package from this checkout's sources, never from elsewhere."""
    if not (SRC / "qpencil" / "__init__.py").is_file():
        fail(f"no qpencil sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qpencil

    if Path(qpencil.__file__).resolve().parent != SRC / "qpencil":
        fail(f"imported qpencil from {qpencil.__file__}, not from {SRC}")


def probe(workload):
    """Set-up probe, run in a fresh process: the small op twice."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    inp = next(wl.inputs(_rng(0), small=True))
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        wl.op(inp)
        times.append(time.perf_counter() - t0)
    print(json.dumps({"first": times[0], "second": times[1]}))


@functools.cache
def _reference_data():
    import numpy as np

    rng = np.random.default_rng(0)
    mats = np.eye(32) + 0.1 * (rng.standard_normal((60, 32, 32))
                              + 1j * rng.standard_normal((60, 32, 32)))
    return (np.linspace(0.0, 3.0, 201), np.linspace(0.0, 1.0, 16) + 0.5j,
            mats, np.ones((60, 32, 1), dtype=complex), np.ones((32, 32, 201), dtype=complex))


def reference_passes(budget):
    """Times of passes of a fixed numpy task that does not use qpencil.

    Runs at least three passes and keeps going until ``budget`` seconds
    have passed.  A pass mixes what the workloads do: arithmetic on 16
    lambdas and on 201 grid nodes in a Python loop, a batch of small dense
    solves, and one sweep over a 3 MB array.
    """
    import numpy as np

    x, a, mats, rhs, big = _reference_data()
    times = []
    end = time.perf_counter() + budget
    while len(times) < 3 or time.perf_counter() < end:
        y = np.ones((2, 2, 16), dtype=complex)
        t0 = time.perf_counter()
        for _ in range(200):
            k = a * y[:, 0] - 0.5 * y[:, 1]
            y = y + 1e-3 * np.stack([k, -k], axis=1)
            np.sin((2.5 + 0.1j) * x) * np.cos((1.5 - 0.2j) * x)
        np.linalg.solve(mats, rhs)
        (big * 1.0001).sum()
        times.append(time.perf_counter() - t0)
    return times


def local_speed(budget):
    """Median reference pass time over ``budget`` seconds (at least 3 passes)."""
    return statistics.median(reference_passes(budget))


def measure_setup(workload):
    """Median over fresh processes of start + import + first-op excess.

    A probe's wall time minus twice its second (warm) op leaves interpreter
    start, ``import qpencil``, exit, and what the first op paid on top of the
    warm one.  Returns (seconds at reference speed, wall-clock seconds).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", workload]
    ref = local_speed(0.1)
    cal, raw = [], []
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(wall - 2.0 * got["second"])
        ref_after = local_speed(REF_DUTY * wall)
        cal.append(raw[-1] * REF_PASS_S / (0.5 * (ref + ref_after)))
        ref = ref_after
    return statistics.median(cal), statistics.median(raw)


def _rng(seed):
    import numpy as np

    return np.random.default_rng(seed)


@dataclass
class Op:
    inp: object
    out: object           # None when the op raised
    error: str
    raw_s: float          # wall-clock seconds
    scale: float          # wall-clock to reference-speed factor around the op

    @property
    def seconds(self):
        return self.raw_s * self.scale


def timed_loop(wl, inputs, seconds, min_ops, tracer=None):
    """Closed loop: issue the next op when the previous one returned.

    Stops issuing once ``seconds`` of wall time have passed and ``min_ops``
    ops were made.  Reference passes run for 0.1 s before the first op and
    for REF_DUTY of each op's time after it; an op's scale comes from the
    passes on both sides of it.
    """
    from qpencil import QPencilError

    def call(inp, i):
        try:
            if tracer is None:
                return wl.op(inp), ""
            with tracer.span(i):
                return wl.op(inp), ""
        except (QPencilError, ArithmeticError, ValueError) as exc:
            return None, f"{type(exc).__name__}: {exc}"

    ops = []
    start = time.perf_counter()
    ref = local_speed(0.1)
    for inp in inputs:
        if ops and time.perf_counter() - start >= seconds and len(ops) >= min_ops:
            break
        t0 = time.perf_counter()
        out, err = call(inp, len(ops))
        raw = time.perf_counter() - t0
        ref_after = local_speed(REF_DUTY * raw)
        ops.append(Op(inp, out, err, raw, REF_PASS_S / (0.5 * (ref + ref_after))))
        ref = ref_after
    return ops


def check_all(wl, ops):
    """Check every output; an op that raised or failed its check is failed."""
    checked, reasons = [], []
    for op in ops:
        if op.out is None:
            reasons.append(op.error)
            continue
        c = wl.check(op.inp, op.out)
        checked.append(c)
        if not c.ok:
            reasons.append(c.why)
    return checked, reasons


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run(workload, seed, seconds, trace, small=False, setup=True):
    """One benchmark run; returns (result dict, context dict, extra dict)."""
    import numpy as np
    import scipy
    from spans import Tracer, format_table, layer_metrics
    from workloads import ACCURACY_METRICS, WORKLOADS, aggregate_errs

    wl = WORKLOADS[workload]
    # set-up time is an end-to-end metric; a traced run does not report it
    setup_s, setup_raw = (measure_setup(workload) if setup and not trace
                          else (float("nan"), float("nan")))
    wl.op(next(wl.inputs(_rng(0), small=True)))     # warm-up, untimed

    inputs = wl.inputs(_rng(seed), small)
    extra = {}
    if not trace:
        ops = timed_loop(wl, inputs, seconds, wl.min_ops(small))
    else:
        ops = timed_loop(wl, inputs, seconds / 2.0, 1)
        tracer = Tracer()
        with tracer.installed(sys.modules[type(wl).__module__]):
            traced = timed_loop(wl, (op.inp for op in ops), 0.0, len(ops), tracer)
        scales = [op.scale for op in traced]
        layer = layer_metrics(tracer.spans, scales)
        layer["trace.overhead_ratio"] = (sum(op.seconds for op in traced)
                                         / sum(op.seconds for op in ops))
        extra["layer_table"] = format_table(tracer.spans, scales, f"{workload}, seed {seed}")
        extra["tracer"] = tracer
    checked, reasons = check_all(wl, ops)
    times = [op.seconds for op in ops]
    raw = [op.raw_s for op in ops]
    attempted, failed = len(ops), len(reasons)
    extra.update({
        "failed_ratio": failed / attempted, "op_s.p90": percentile(times, 0.9),
        "failures": reasons, "op_s": times, "raw_op_s": raw,
        "scale": [op.scale for op in ops],
        "raw": {"ops_per_s": attempted / sum(raw), "op_s.p50": statistics.median(raw),
                "setup_s": setup_raw},
    })

    if trace:
        metrics = layer
    else:
        metrics = {
            "ops_per_s": attempted / sum(times),
            "op_s.p50": statistics.median(times),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        # accuracy metrics a workload does not exercise read 1.0 (see README)
        metrics.update(dict.fromkeys(ACCURACY_METRICS, 1.0))
        metrics.update(aggregate_errs(wl, checked))
    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": NPROC, "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(), "ops": attempted, "ref_pass_s": REF_PASS_S,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, context, extra


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = load_spec()
    import_qpencil()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.probe:
        probe(args.probe)
        return 0
    if args.workload not in WORKLOADS:
        fail(f"--workload must be one of {sorted(WORKLOADS)}")

    result, context, extra = run(args.workload, args.seed, args.seconds, bool(args.trace))
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[kind]}
    if set(declared) != set(result["metrics"]):
        fail(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {kind}")
    result["metrics"] = {n: {"value": float(result["metrics"][n]), "unit": m["unit"]}
                         for n, m in declared.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        extra.pop("tracer").write(OUT / f"{stem}.spans.jsonl")
        print(extra.pop("layer_table"))
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"context": context, "result": result, "extra": extra}, f, indent=1)
    print(f"context {json.dumps(context)}")
    for n, m in declared.items():
        print(f"  {n:<48} {result['metrics'][n]['value']:<14.6g} {m['unit']:<8} "
              f"{m['better']} is better")
    print(f"  failed_ratio {extra['failed_ratio']:.4f}   op_s.p90 {extra['op_s.p90']:.4f} s   "
          f"({result['attempted']} ops)")
    raw = extra["raw"]
    print(f"  wall clock: ops_per_s {raw['ops_per_s']:.4g}  op_s.p50 {raw['op_s.p50']:.4g} s  "
          f"setup_s {raw['setup_s']:.4g} s  "
          f"(median reference scale {statistics.median(extra['scale']):.3f})")
    for why in extra["failures"]:
        print(f"  failed: {why}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
