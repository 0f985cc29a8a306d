"""Independent oracles used across the test suite.

Everything here is deliberately written the slow, obvious way (nested
loops, scalar accumulation) so it shares no code path with the library
implementations it checks.
"""

import numpy as np


def loop_conv2d(x, w, stride=(1, 1), padding=(0, 0), dilation=(1, 1), bias=None):
    """Six-nested-loop convolution over zero-padded channels-last input."""
    h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    xp = np.zeros((h + 2 * ph, wd + 2 * pw, cin))
    xp[ph : ph + h, pw : pw + wd] = x
    effh = (kh - 1) * dh + 1
    effw = (kw - 1) * dw + 1
    ho = (h + 2 * ph - effh) // sh + 1
    wo = (wd + 2 * pw - effw) // sw + 1
    out = np.zeros((ho, wo, cout))
    for i in range(ho):
        for j in range(wo):
            for co in range(cout):
                acc = 0.0
                for a in range(kh):
                    for b in range(kw):
                        for ci in range(cin):
                            acc += xp[i * sh + a * dh, j * sw + b * dw, ci] * w[a, b, ci, co]
                out[i, j, co] = acc
    return out


def tap_conv2d(x, w, stride=(1, 1), padding=(0, 0), dilation=(1, 1)):
    """A batched convolution as one 2-D product per tap: the sum, over taps
    in row-major (a, b) order and starting from the first tap's product, of
    the tap's C-order (N*Ho*Wo, C_in) rows of the zero-padded input times
    ``w[a, b]``."""
    n, h, wd, c = x.shape
    kh, kw, _, cout = w.shape
    (sh, sw), (ph, pw), (dh, dw) = stride, padding, dilation
    xp = np.zeros((n, h + 2 * ph, wd + 2 * pw, c))
    xp[:, ph : ph + h, pw : pw + wd] = x
    ho = (h + 2 * ph - (kh - 1) * dh - 1) // sh + 1
    wo = (wd + 2 * pw - (kw - 1) * dw - 1) // sw + 1
    out = None
    for a in range(kh):
        for b in range(kw):
            tap = xp[:, a * dh : a * dh + (ho - 1) * sh + 1 : sh, b * dw : b * dw + (wo - 1) * sw + 1 : sw]
            product = np.ascontiguousarray(tap).reshape(-1, c) @ w[a, b]
            out = product if out is None else out + product
    return out.reshape(n, ho, wo, cout)


def scatter_pool_cells_backward(win, slots, mode, pooled, grad, shape, size, stride, padding):
    """The pooling adjoint as a scatter, with ``ops.pool_cells_backward``'s
    arguments: each slot's share is added through every tap's window
    positions of a zero-padded gradient, slot by slot, tap by tap. Max mode
    sends the gradient to the first tap that equals the pooled maximum."""
    n, h, w, c = shape
    (kh, kw), (sh, sw), (ph, pw) = size, stride, padding
    ho, wo = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
    grad_xp = np.zeros((n, h + 2 * ph, w + 2 * pw, c))
    for k, taps in enumerate(slots):
        if len(taps) == 0:
            continue
        gk = grad[:, :, :, k]
        if mode == "max" and len(taps) > 1:
            open_ = np.ones(gk.shape, dtype=bool)  # no earlier tap has taken the gradient
            shares = []
            for a, b in taps:
                hit = (win[:, :, :, a, b] == pooled[:, :, :, k]) & open_
                open_ ^= hit
                shares.append(gk * hit)
        else:
            shares = [gk / len(taps) if mode == "mean" else gk] * len(taps)
        for (a, b), share in zip(taps, shares):
            grad_xp[:, a : a + (ho - 1) * sh + 1 : sh, b : b + (wo - 1) * sw + 1 : sw] += share
    return grad_xp[:, ph : ph + h, pw : pw + w]


def scatter_conv2d_backward(x, w, g, stride=(1, 1), padding=(0, 0), dilation=(1, 1)):
    """The input gradient of a non-1x1 ``conv2d_raw`` as a scatter, the
    form ``conv2d_raw_backward`` had before it gathered: each tap's product
    ``g_rows @ w[a, b].T`` is added through that tap's window positions of a
    zero-padded gradient, tap by tap in row-major order."""
    n, h, wd, c = x.shape
    kh, kw, _, cout = w.shape
    (sh, sw), (ph, pw), (dh, dw) = stride, padding, dilation
    ho, wo = g.shape[1:3]
    g_rows = np.ascontiguousarray(g.reshape(-1, cout))
    grad_xp = np.zeros((n, h + 2 * ph, wd + 2 * pw, c))
    for a in range(kh):
        for b in range(kw):
            rows, cols = a * dh, b * dw
            grad_xp[:, rows : rows + (ho - 1) * sh + 1 : sh, cols : cols + (wo - 1) * sw + 1 : sw] += (
                g_rows @ w[a, b].T).reshape(n, ho, wo, c)
    return grad_xp[:, ph : ph + h, pw : pw + wd]


def finite_difference(f, x, eps=1e-5):
    """Central finite differences of scalar f with respect to array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return grad


def max_rel_error(got, want):
    """max |got - want| scaled by the magnitude of the reference."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(float(np.max(np.abs(want))) if want.size else 0.0, 1e-300)
    return float(np.max(np.abs(got - want))) / scale if got.size else 0.0
