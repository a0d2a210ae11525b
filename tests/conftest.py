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
