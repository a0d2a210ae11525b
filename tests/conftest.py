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
    """Number of calls of the kernel tables ``model.d_table`` and ``model.dx_table``.

    Both names are patched wherever a module imported them.
    """
    import qpencil.inverse as inv
    import qpencil.model as md

    counts = {"d_table": 0, "dx_table": 0}

    def counted(name):
        inner = getattr(md, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        return counting

    for name in counts:
        wrapper = counted(name)
        for mod in (md, inv):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)
    return counts
