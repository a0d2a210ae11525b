"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def large_batches(monkeypatch):
    """Sizes of the integrator batches of 256 or more nodes, in call order."""
    import qpencil.forward as fw

    sizes = []
    inner = fw.integrate

    def counting(potentials, lams, *args, **kwargs):
        if np.size(lams) >= 256:
            sizes.append(np.size(lams))
        return inner(potentials, lams, *args, **kwargs)

    monkeypatch.setattr(fw, "integrate", counting)
    return sizes


@pytest.fixture
def table_calls(monkeypatch):
    """Calls of the kernel tables ``model.d_table`` and ``model.dx_table``.

    ``counts[name]`` is the number of calls and ``counts[name + " pairs"]`` the
    number of (lam, mu) pairs they received.  Both names are patched wherever
    a module imported them.
    """
    import qpencil.inverse as inv
    import qpencil.model as md

    names = ("d_table", "dx_table")
    counts = {key: 0 for name in names for key in (name, name + " pairs")}

    def counted(name):
        inner = getattr(md, name)

        def counting(background, x, lam, mu, *args, **kwargs):
            counts[name] += 1
            counts[name + " pairs"] += np.broadcast(lam, mu).size
            return inner(background, x, lam, mu, *args, **kwargs)

        return counting

    for name in names:
        wrapper = counted(name)
        for mod in (md, inv):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)
    return counts
