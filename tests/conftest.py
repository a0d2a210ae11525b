"""Shared fixtures and helpers."""

from math import pi

import numpy as np
import pytest

from qpencil import PotentialPair, SpectralDataSet, SpectralEntry, ZeroBackground, assemble_system
from qpencil.inverse import ActiveLayout, active_layout
from qpencil.model import P_MAX
from qpencil.zindex import offset, window


def layout_of(data, model):
    """One set's ``active_layout`` against the background's data at its width."""
    return active_layout(data, model.spectral_data(max(data.max_abs_index, 1)))


def forced_layout(data, model, width):
    """A layout with a row for every |n| <= width on both sides, as ``active_layout``
    builds its rows, whether or not the data differ from the background there."""
    indices = tuple(window(width))
    rows = [(ds, n, ds.group_for(n)) for ds in (data, model.spectral_data(width)) for n in indices]
    Ms = np.zeros((len(rows), P_MAX + 1), dtype=complex)
    for k, (ds, _, g) in enumerate(rows):
        Ms[k, :g.size] = ds.group_coefficients(g)
    return ActiveLayout(indices=indices, lam=np.array([g.lam for _, _, g in rows], dtype=complex),
                        nu=np.array([offset(g.start, n) for _, n, g in rows], dtype=int),
                        m=np.array([g.size for _, _, g in rows], dtype=int), Ms=Ms)


def row_names(layout):
    """The (n, side) of every row of a layout: (n, 0) for each active n, then (n, 1)."""
    return [(n, side) for side in (0, 1) for n in layout.indices]


def system_of(data, model, x):
    """The main-equation system of one set."""
    return assemble_system([layout_of(data, model)], model, x)


def group_at_1_3(m):
    """lam = 1.3 at n = 1 .. m against the zero background."""
    Ms = [-1 / pi, 0.3 + 0.1j, -0.2, 0.05j, 0.01, -0.01j][:m]
    entries = [SpectralEntry(n=n, lam=1.3, M=M) for n, M in enumerate(Ms, start=1)]
    return SpectralDataSet.from_entries(entries, tail=ZeroBackground(), omega0=0.0)


def zero_pair(n_grid: int = 200) -> PotentialPair:
    """q1 = sigma = 0 on n_grid intervals: the zero background's potentials."""
    return PotentialPair.from_functions(lambda t: 0.0, lambda t: 0.0, n_grid)


@pytest.fixture
def circle_batches(monkeypatch):
    """(size, n_derivs) of the integrator batches that sample a circle, in call order."""
    import sys

    import qpencil.forward as fw

    batches = []
    inner, sampler = fw.integrate, fw.sample_circle.__code__

    def counting(potentials, lams, n_derivs=0, *args, **kwargs):
        if sys._getframe(1).f_code is sampler:
            batches.append((np.size(lams), n_derivs))
        return inner(potentials, lams, n_derivs, *args, **kwargs)

    monkeypatch.setattr(fw, "integrate", counting)
    return batches


@pytest.fixture
def table_calls(monkeypatch):
    """Calls of the kernel table ``model.d_table``.

    ``counts["d_table"]`` is the number of calls and ``counts["d_table pairs"]``
    the number of (lam, mu) pairs they received.  The name is patched in the
    module that defines it and in the one that imported it.
    """
    import qpencil.inverse as inv
    import qpencil.model as md

    counts = {"d_table": 0, "d_table pairs": 0}
    inner = md.d_table

    def counting(background, x, lam, mu, *args, **kwargs):
        counts["d_table"] += 1
        counts["d_table pairs"] += np.broadcast(lam, mu).size
        return inner(background, x, lam, mu, *args, **kwargs)

    for mod in (md, inv):
        monkeypatch.setattr(mod, "d_table", counting)
    return counts
