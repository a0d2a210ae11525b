"""Span tracing of qpencil's layers from outside the package.

``Tracer.installed()`` wraps every public function of the layer modules and
rebinds each wrapped name in every ``qpencil`` module that holds it (for
example ``experiments`` imports ``integrate`` by name), so calls between
modules and within a module both pass through the wrapper.  Spans are kept
in memory as ``[name, start, end, parent, op, attrs]`` and recorded only
while an operation is open; ``layer_metrics`` turns them into per-op numbers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("forward", "model", "inverse", "experiments", "spectral_data")

NAME, START, END, PARENT, OP, ATTRS = range(6)
ROOT_SPAN = "op"     # the span around one whole operation


def _integrate_attrs(args, result):
    pot, lams = args["potentials"], result.lams
    return {"batch": int(lams.size),
            "steps": int(pot.n_grid * args["refine"]),
            "trace": bool(args["with_trace"])}


# attributes recorded per call, from the bound arguments and the result
ATTRS_OF = {
    "forward.integrate": _integrate_attrs,
    "forward.find_eigenvalues": lambda a, r: {"roots": len(r.entries)},
    "inverse.assemble_system": lambda a, r: {"dim": r.layout.dim},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def wrap(self, name, fn):
        attrs_of = ATTRS_OF.get(name)
        sig = inspect.signature(fn) if attrs_of else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if attrs_of:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    rec[ATTRS] = attrs_of(bound.arguments, result)
                return result
            finally:
                rec[END] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, op):
        """Open the root span of one operation."""
        self.op = op
        rec = [ROOT_SPAN, time.perf_counter(), 0.0, -1, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            self.op = None

    @contextlib.contextmanager
    def installed(self, caller):
        """Wrap the layers' public functions for the duration of the block.

        ``caller`` is the benchmark module that calls the API; its imported
        names are rebound too.
        """
        import qpencil
        from qpencil.spectral_data import SpectralDataSet

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qpencil" or n.startswith("qpencil."))]
        modules.append(caller)
        originals = {}
        for layer in LAYERS:
            mod = getattr(qpencil, layer)
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and not attr.startswith("_") \
                        and fn.__module__ == mod.__name__:
                    originals[fn] = self.wrap(f"{layer}.{attr}", fn)
        restore = []
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in originals:
                    restore.append((mod, attr, val))
                    setattr(mod, attr, originals[val])
        from_entries = SpectralDataSet.__dict__["from_entries"]
        SpectralDataSet.from_entries = staticmethod(
            self.wrap("spectral_data.from_entries", from_entries.__func__))
        try:
            yield
        finally:
            for mod, attr, val in restore:
                setattr(mod, attr, val)
            SpectralDataSet.from_entries = from_entries

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "op": op, "attrs": attrs}) + "\n")


def self_times(spans, scales):
    """Per-span duration minus that of its direct children.

    ``scales[op]`` converts the wall-clock seconds of op ``op`` to seconds
    at reference speed.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return [t * scales[s[OP]] for s, t in zip(spans, own)]


def _ancestors(spans, i):
    p = spans[i][PARENT]
    while p >= 0:
        yield spans[p][NAME]
        p = spans[p][PARENT]


def layer_table(spans, scales):
    """name -> (calls per op, self seconds per op), every traced name."""
    n_ops = len(scales)
    own = self_times(spans, scales)
    calls, selfs = defaultdict(int), defaultdict(float)
    for s, t in zip(spans, own):
        calls[s[NAME]] += 1
        selfs[s[NAME]] += t
    return {n: (calls[n] / n_ops, selfs[n] / n_ops) for n in calls}


def layer_metrics(spans, scales):
    """The per-layer metrics of BENCHMARK.json, averaged per operation."""
    n_ops = len(scales)
    own = self_times(spans, scales)
    table = layer_table(spans, scales)

    def calls(name):
        return table.get(name, (0.0, 0.0))[0]

    def self_s(name):
        return table.get(name, (0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    # only calls that returned carry attributes
    integ = [(i, s) for i, s in enumerate(spans)
             if s[NAME] == "forward.integrate" and s[ATTRS]]
    lam_steps = sum(s[ATTRS]["batch"] * s[ATTRS]["steps"] for _, s in integ)
    m["forward.integrate.calls"] = calls("forward.integrate")
    m["forward.integrate.self_s"] = self_s("forward.integrate")
    m["forward.integrate.lam_steps"] = lam_steps / n_ops
    m["forward.integrate.ns_per_lam_step"] = ratio(
        1e9 * sum(own[i] for i, _ in integ), lam_steps)
    kinds = {"small": 0.0, "large": 0.0, "trace": 0.0}
    for i, s in integ:
        a = s[ATTRS]
        kinds["trace" if a["trace"] else "small" if a["batch"] <= 16 else "large"] += own[i]
    for k, v in kinds.items():
        m[f"forward.integrate.{k}.self_s"] = v / n_ops

    under = defaultdict(lambda: [0, 0])     # ancestor name -> [integrate calls, lambdas]
    for i, s in integ:
        for anc in set(_ancestors(spans, i)):
            under[anc][0] += 1
            under[anc][1] += s[ATTRS]["batch"]
    roots = sum(s[ATTRS]["roots"] for s in spans
                if s[NAME] == "forward.find_eigenvalues" and s[ATTRS])
    m["forward.find_eigenvalues.self_s"] = self_s("forward.find_eigenvalues")
    m["forward.find_eigenvalues.integrate_calls"] = under["forward.find_eigenvalues"][0] / n_ops
    m["forward.find_eigenvalues.lam_evals_per_root"] = ratio(
        under["forward.find_eigenvalues"][1], roots)
    m["forward.char_delta.calls"] = calls("forward.char_delta")
    m["forward.winding_number.calls"] = calls("forward.winding_number")
    m["forward.winding_number.lam_evals"] = under["forward.winding_number"][1] / n_ops
    m["forward.weyl_residues.self_s"] = self_s("forward.weyl_residues")
    m["forward.weight_numbers.self_s"] = self_s("forward.weight_numbers")

    for fn in ("s_chain", "sx_chain", "d_table", "dx_table"):
        m[f"model.{fn}.calls"] = calls(f"model.{fn}")
        m[f"model.{fn}.self_s"] = self_s(f"model.{fn}")

    dims = [s[ATTRS]["dim"] for s in spans if s[NAME] == "inverse.assemble_system" and s[ATTRS]]
    tables = sum(1 for i, s in enumerate(spans) if s[NAME] == "model.d_table"
                 and "inverse.assemble_system" in _ancestors(spans, i))
    m["inverse.assemble_system.self_s"] = self_s("inverse.assemble_system")
    m["inverse.assemble_system.dim"] = ratio(sum(dims), len(dims))
    m["inverse.assemble_system.table_calls_per_entry"] = ratio(tables, sum(d * d for d in dims))
    for fn in ("solve_main", "system_condition", "solve_residual", "active_layout",
               "compute_epsilons"):
        m[f"inverse.{fn}.self_s"] = self_s(f"inverse.{fn}")
    m["inverse.recover.self_s"] = sum(
        self_s(f"inverse.{fn}")
        for fn in ("recover_theta", "recover_q1", "recover_q0_antiderivative"))
    m["inverse.run_reconstruction.calls"] = calls("inverse.run_reconstruction")

    for fn in ("run_table", "roundtrip_check", "compute_split_delta_metric"):
        m[f"experiments.{fn}.self_s"] = self_s(f"experiments.{fn}")
    m["spectral_data.from_entries.calls"] = calls("spectral_data.from_entries")
    m["spectral_data.from_entries.self_s"] = self_s("spectral_data.from_entries")
    m["spectral_data.compute_diagnostics.self_s"] = self_s("spectral_data.compute_diagnostics")

    op_total = sum((s[END] - s[START]) * scales[s[OP]] for s in spans if s[NAME] == ROOT_SPAN)
    m["trace.covered_share"] = ratio(op_total - self_s(ROOT_SPAN) * n_ops, op_total)
    return m


def format_table(spans, scales, title):
    """Per-layer table sorted by self time, for quoting in perf issues."""
    n_ops = len(scales)
    table = layer_table(spans, scales)
    total = sum(t for _, t in table.values())
    lines = [f"per-layer self time, {title}, {n_ops} traced ops",
             f"{'span':<44} {'calls/op':>10} {'self_s/op':>11} {'share':>7}"]
    for name, (c, t) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<44} {c:>10.1f} {t:>11.4f} {t / total:>7.1%}")
    return "\n".join(lines)
