"""Bit-exactness of the tap-loop im2col/col2im against index-tensor kernels.

The reference kernels below are the executable specification: im2col
gathers through (channel, row, column) index tensors and col2im scatters
back with ``np.add.at``.  ``np.add.at`` applies repeated indices in order,
so every input position sums its contributions in column-row order
``c*KH*KW + kh*KW + kw`` onto zeros.  The tap loop adds in that same
(kh, kw) ascending order, which makes the two results equal bit for bit,
not just to a tolerance.  The grid data spans
six decades of magnitude so a change of summation order shows up as a
different rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F


def _reference_indices(channels, height, width, kernel_h, kernel_w, stride, padding):
    out_h = F.conv_output_size(height, kernel_h, stride, padding)
    out_w = F.conv_output_size(width, kernel_w, stride, padding)
    i0 = np.tile(np.repeat(np.arange(kernel_h), kernel_w), channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w), kernel_h * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    return k, i, j


def reference_im2col(x, kernel_h, kernel_w, stride=1, padding=0):
    pad_width = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    x_padded = np.pad(x, pad_width, mode="constant") if padding > 0 else x
    k, i, j = _reference_indices(*x.shape[1:], kernel_h, kernel_w, stride, padding)
    cols = x_padded[:, k, i, j]
    return cols.transpose(1, 2, 0).reshape(kernel_h * kernel_w * x.shape[1], -1)


def reference_col2im(cols, in_shape, kernel_h, kernel_w, stride=1, padding=0):
    batch, channels, height, width = in_shape
    x_padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    k, i, j = _reference_indices(channels, height, width, kernel_h, kernel_w, stride, padding)
    cols_reshaped = cols.reshape(channels * kernel_h * kernel_w, -1, batch)
    np.add.at(x_padded, (slice(None), k, i, j), cols_reshaped.transpose(2, 0, 1))
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


# (batch, channels, height, width, kernel_h, kernel_w, stride, padding)
GEOMETRIES = {
    "3x3-s1-p1": (2, 3, 8, 8, 3, 3, 1, 1),
    "3x3-s2-p1-odd": (3, 2, 9, 9, 3, 3, 2, 1),
    "5x5-s1-p2": (2, 2, 8, 8, 5, 5, 1, 2),
    "1x1-s2": (2, 4, 8, 8, 1, 1, 2, 0),
    "pool-2x2-s2": (6, 1, 8, 8, 2, 2, 2, 0),
    "pool-3x3-s3": (4, 1, 9, 9, 3, 3, 3, 0),
    "non-square-input": (2, 3, 7, 10, 3, 3, 1, 1),
    "non-square-kernel": (2, 2, 6, 9, 2, 3, 1, 0),
    "batch-1": (1, 3, 8, 8, 3, 3, 1, 1),
    "11x11-s4-p5": (2, 3, 32, 32, 11, 11, 4, 5),
}


def _wide_range(rng, shape, dtype=np.float64):
    """Normal values scaled across six decades, so rounding depends on order."""
    return (rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)).astype(dtype)


@pytest.fixture(params=list(GEOMETRIES), ids=list(GEOMETRIES))
def geometry(request):
    return GEOMETRIES[request.param]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestTapLoopMatchesReference:
    def test_im2col(self, geometry, dtype):
        batch, channels, height, width, kh, kw, stride, padding = geometry
        x = _wide_range(np.random.default_rng(7), (batch, channels, height, width), dtype)
        got = F.im2col(x, kh, kw, stride, padding)
        expected = reference_im2col(x, kh, kw, stride, padding)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    def test_col2im(self, geometry, dtype):
        batch, channels, height, width, kh, kw, stride, padding = geometry
        in_shape = (batch, channels, height, width)
        out_h = F.conv_output_size(height, kh, stride, padding)
        out_w = F.conv_output_size(width, kw, stride, padding)
        cols = _wide_range(
            np.random.default_rng(11), (channels * kh * kw, out_h * out_w * batch), dtype
        )
        got = F.col2im(cols, in_shape, kh, kw, stride, padding)
        expected = reference_col2im(cols, in_shape, kh, kw, stride, padding)
        assert got.shape == in_shape and got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def test_grid_data_detects_a_different_summation_order():
    """Guard for the test data itself: scattering the overlapping taps in
    reverse row order must change some bits, or the exactness tests above
    could not tell the orders apart."""
    batch, channels, height, width, kh, kw, stride, padding = GEOMETRIES["3x3-s1-p1"]
    in_shape = (batch, channels, height, width)
    cols = _wide_range(np.random.default_rng(11), (channels * kh * kw, height * width * batch))
    forward = reference_col2im(cols, in_shape, kh, kw, stride, padding)
    k, i, j = _reference_indices(channels, height, width, kh, kw, stride, padding)
    reverse = np.zeros((batch, channels, height + 2, width + 2))
    values = cols.reshape(channels * kh * kw, -1, batch).transpose(2, 0, 1)
    np.add.at(reverse, (slice(None), k[::-1], i[::-1], j[::-1]), values[:, ::-1])
    reverse = reverse[:, :, 1:-1, 1:-1]
    np.testing.assert_allclose(reverse, forward, rtol=1e-9, atol=1e-9)
    assert not np.array_equal(reverse, forward)


def _with_reference_kernels(monkeypatch, func):
    """Run ``func`` with the module's im2col/col2im swapped for the references."""
    with monkeypatch.context() as patch:
        patch.setattr(F, "im2col", reference_im2col)
        patch.setattr(F, "col2im", reference_col2im)
        return func()


class TestEndToEnd:
    @pytest.mark.parametrize("groups", [2, 4])
    def test_grouped_conv2d_forward_and_backward(self, monkeypatch, groups):
        rng = np.random.default_rng(3)
        x = _wide_range(rng, (2, 4, 9, 9))
        weight = _wide_range(rng, (8, 4 // groups, 3, 3))
        bias = rng.normal(size=8)
        grad_out = _wide_range(rng, (2, 8, 5, 5))

        def run():
            out, cols = F.conv2d_forward(x, weight, bias, 2, 1, groups)
            grads = F.conv2d_backward(grad_out, x.shape, cols, weight, 2, 1, True, groups)
            return (out, *grads)

        expected = _with_reference_kernels(monkeypatch, run)
        for got, want in zip(run(), expected):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2)])
    def test_maxpool2d_forward_and_backward(self, monkeypatch, kernel, stride):
        rng = np.random.default_rng(5)
        x = _wide_range(rng, (2, 3, 9, 9))
        out_size = F.conv_output_size(9, kernel, stride, 0)
        grad_out = _wide_range(rng, (2, 3, out_size, out_size))

        def run():
            out, argmax = F.maxpool2d_forward(x, kernel, stride)
            return out, F.maxpool2d_backward(grad_out, x.shape, argmax, kernel, stride)

        expected = _with_reference_kernels(monkeypatch, run)
        for got, want in zip(run(), expected):
            np.testing.assert_array_equal(got, want)
