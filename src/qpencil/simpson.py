"""scipy 1.17.1's ``simpson`` and ``cumulative_simpson`` (``initial=0.0``) for a strictly increasing
1-D x, ported to numpy op for op, so bit-identical: scipy.integrate takes 0.2 s to import."""

import numpy as np


def _widths(x):
    if np.any((h := np.diff(np.asarray(x, dtype=float))) <= 0):
        raise ValueError("Input x must be strictly increasing.")
    return h


def simpson(y, x, axis=-1):
    """Integral of y(x) along ``axis``; for even N Cartwright's last interval (N = 2: trapezoid)."""
    y = np.asarray(y)
    n, ax = y.shape[axis], axis % y.ndim
    h = _widths(x).reshape([-1 if d == ax else 1 for d in range(y.ndim)])
    on = (slice(None),) * ax       # indexes along the axis follow

    def div(a, b):      # scipy's guarded quotient: 0 where b is 0, as width products can underflow
        return np.true_divide(a, b, out=np.zeros_like(b), where=b != 0)
    if n == 2:
        return 0.0 + 0.5 * h[on + (-1,)] * (y[on + (-1,)] + y[on + (-2,)])
    stop = n - 2 if n % 2 else n - 3
    s0, s1, s2 = (on + (slice(k, stop + k, 2),) for k in range(3))
    h0, h1 = h[s0], h[s1]
    hsum, h0divh1 = h0 + h1, div(h0, h1)
    result = np.sum(hsum / 6.0 * (y[s0] * (2.0 - div(1.0, h0divh1))
                                  + y[s1] * (hsum * div(hsum, h0 * h1)) + y[s2] * (2.0 - h0divh1)),
                    axis=axis)
    if n % 2 == 0:      # Cartwright's last interval; scipy's trailing + 0.0 turns -0.0 into 0.0
        h0 = np.squeeze(h[on + (slice(-2, -1),)], axis)
        h1 = np.squeeze(h[on + (slice(-1, None),)], axis)
        alpha = div(2 * h1 ** 2 + 3 * h0 * h1, 6 * (h1 + h0))
        beta = div(h1 ** 2 + 3.0 * h0 * h1, 6 * h0)
        eta = div(1 * h1 ** 3, 6 * h0 * (h0 + h1))
        result += alpha * y[on + (-1,)] + beta * y[on + (-2,)] - eta * y[on + (-3,)] + 0.0
    return result


def cumulative_simpson(y, x, axis=-1):
    """Running integral of y(x) along ``axis`` from 0 at x[0]: Simpson's rule per interval
    (under 3 nodes, as in scipy, the trapezoid)."""
    y, dx = np.swapaxes(np.asarray(y), axis, -1), _widths(x)

    def h1_integrals(y, dx):    # each interval from the parabola through it and the next node
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * y[..., :-2] + (3 + x21x21_x31x32 + x21_x31) * y[..., 1:-1]
                          + -x21x21_x31x32 * y[..., 2:])

    if y.shape[-1] < 3:     # scipy's cumulative_trapezoid
        parts = dx * (y[..., 1:] + y[..., :-1]) / 2.0
    else:
        backward = np.flip(h1_integrals(np.flip(y, axis=-1), np.flip(dx)), axis=-1)
        parts = np.empty(y.shape[:-1] + (y.shape[-1] - 1,), dtype=np.result_type(y, dx))
        parts[..., :-1:2] = h1_integrals(y, dx)[..., ::2]
        parts[..., 1::2] = backward[..., ::2]
        parts[..., -1] = backward[..., -1]
    res = np.cumsum(parts, axis=-1) + 0.0     # scipy adds initial = 0.0: -0.0 becomes 0.0
    return np.swapaxes(np.concatenate((np.zeros(y.shape[:-1] + (1,)), res), axis=-1), -1, axis)
