"""Shared fixtures and helpers."""

import numpy as np
import pytest

from qpencil import PotentialPair, assemble_system
from qpencil.inverse import active_layout


def layout_of(data, model, min_window: int = 0):
    """One set's ``active_layout`` against the background's data at its width."""
    return active_layout(data, model.spectral_data(max(data.max_abs_index, min_window, 1)),
                         min_window)


def system_of(data, model, x, min_window: int = 0):
    """The main-equation system of one set."""
    return assemble_system([layout_of(data, model, min_window)], model, x)


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
