"""The numpy Simpson rules against scipy's, which stay the reference: equal to the bit."""

import itertools

import numpy as np
import pytest
from scipy import integrate

from qpencil.simpson import cumulative_simpson, simpson


def _grid(kind, n, rng):
    if kind == "linspace":
        return np.linspace(0.0, np.pi, n)
    return np.cumsum(rng.uniform(0.01, 1.0, n)) - 0.5


def _samples(shape, rng):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


SHAPES = [pytest.param(lambda n: (n,), -1, id="1d"),
          pytest.param(lambda n: (n, 3), 0, id="axis0"),
          pytest.param(lambda n: (2, n), -1, id="axis-1"),
          pytest.param(lambda n: (2, n, 3), 1, id="middle")]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 201, 2002])
@pytest.mark.parametrize("kind", ["linspace", "random"])
@pytest.mark.parametrize("shape, axis", SHAPES)
def test_simpson_is_scipys(n, kind, shape, axis):
    rng = np.random.default_rng(n)
    x, y = _grid(kind, n, rng), _samples(shape(n), rng)
    for values in (y, y.real):
        want = integrate.simpson(values, x=x, axis=axis)
        got = simpson(values, x, axis=axis)
        assert np.shape(got) == np.shape(want) and np.result_type(got) == np.result_type(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 201, 2002])    # under 3 nodes scipy's trapezoid
@pytest.mark.parametrize("kind", ["linspace", "random"])
@pytest.mark.parametrize("shape, axis", SHAPES)
def test_cumulative_simpson_is_scipys(n, kind, shape, axis):
    rng = np.random.default_rng(n)
    x, y = _grid(kind, n, rng), _samples(shape(n), rng)
    for values in (y, y.real):
        want = integrate.cumulative_simpson(values, x=x, axis=axis, initial=0.0)
        got = cumulative_simpson(values, x, axis=axis)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


def _both_rules(y, x):
    """(ours, scipy's) for both rules."""
    return [(simpson(y, x), integrate.simpson(y, x=x)),
            (cumulative_simpson(y, x), integrate.cumulative_simpson(y, x=x, initial=0.0))]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_signs_of_zero_are_scipys(n):
    x = np.linspace(0.0, np.pi, n)
    zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    for values in itertools.product(zeros, repeat=n):
        y = np.array(values)
        for got, want in _both_rules(y, x) + _both_rules(y.real, x):
            assert np.array_equal(np.signbit(np.real(got)), np.signbit(np.real(want))), values
            assert np.array_equal(np.signbit(np.imag(got)), np.signbit(np.imag(want))), values


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_underflowing_width_products_are_scipys(n):
    # widths of 1e-200: their products underflow to 0, where scipy's quotients give 0
    rng = np.random.default_rng(n)
    x, y = np.cumsum(rng.uniform(1.0, 2.0, n)) * 1e-200, _samples((n,), rng)
    for got, want in _both_rules(y, x):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0], [3.0, 2.0, 1.0, 0.0]],
                         ids=["repeated", "step-back", "decreasing"])
def test_x_must_increase_strictly(x):
    y = np.ones(4, dtype=complex)
    with pytest.raises(ValueError, match="Input x must be strictly increasing") as want:
        integrate.cumulative_simpson(y, x=np.array(x), initial=0.0)
    for rule in (simpson, cumulative_simpson):
        with pytest.raises(ValueError) as got:
            rule(y, np.array(x))
        assert str(got.value) == str(want.value)
