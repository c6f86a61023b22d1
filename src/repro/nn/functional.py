"""Functional numpy kernels for CNN training.

These are the computational primitives used by the layer classes in
:mod:`repro.nn.layers`.  Convolutions are implemented with an im2col
transformation so both the forward pass and the two backward products (the
GTA product ``dI = dO * W+`` and the GTW product ``dW = dO * I`` from the
paper's Section II) reduce to dense matrix multiplications — fast enough in
numpy to actually train the reduced models used for the Table II experiments.

Shape conventions follow the paper: activations are ``(N, C, H, W)`` tensors
(batch, channels, height, width) and convolution weights are
``(F, C, K, K)`` tensors (output channels, input channels, kernel height,
kernel width).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_group_split


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------

def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size} kernel={kernel} "
            f"stride={stride} padding={padding} gives non-positive output {out}"
        )
    return out


def _tap(kernel_offset: int, out_size: int, stride: int) -> slice:
    """Padded-buffer positions that kernel tap ``kernel_offset`` reads, one
    per output position along a dimension."""
    return slice(kernel_offset, kernel_offset + stride * (out_size - 1) + 1, stride)


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Unfold ``x`` of shape (N, C, H, W) into columns.

    Returns an array of shape ``(C*KH*KW, OH*OW*N)`` where each column holds
    the receptive field of one output position (batch index innermost).  The
    input is copied once into a zero-padded ``(C, H+2p, W+2p, N)`` buffer, so
    each of the KH*KW kernel taps is a single strided slice copy.
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    padded = np.zeros(
        (channels, height + 2 * padding, width + 2 * padding, batch), dtype=x.dtype
    )
    padded[:, padding : padding + height, padding : padding + width] = x.transpose(
        1, 2, 3, 0
    )
    cols = np.empty((channels, kernel_h, kernel_w, out_h, out_w, batch), dtype=x.dtype)
    for kh in range(kernel_h):
        rows = _tap(kh, out_h, stride)
        for kw in range(kernel_w):
            cols[:, kh, kw] = padded[:, rows, _tap(kw, out_w, stride)]
    return cols.reshape(channels * kernel_h * kernel_w, -1)


def col2im(
    cols: np.ndarray,
    in_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold columns back into an (N, C, H, W) tensor, accumulating overlaps.

    This is the adjoint of :func:`im2col` and is used to compute the gradient
    with respect to the convolution input (the paper's GTA step).  Each kernel
    tap is one strided slice add into a zero ``(C, H+2p, W+2p, N)`` buffer.
    The taps run in ``(kh, kw)`` ascending order, which is the column row
    order, so every input position sums its contributions in the same
    sequence as a sequential scatter-add over the rows would.
    """
    batch, channels, height, width = in_shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    taps = cols.reshape(channels, kernel_h, kernel_w, out_h, out_w, batch)
    padded = np.zeros(
        (channels, height + 2 * padding, width + 2 * padding, batch), dtype=cols.dtype
    )
    for kh in range(kernel_h):
        rows = _tap(kh, out_h, stride)
        for kw in range(kernel_w):
            padded[:, rows, _tap(kw, out_w, stride)] += taps[:, kh, kw]
    inner = padded[:, padding : padding + height, padding : padding + width]
    return np.ascontiguousarray(inner.transpose(3, 0, 1, 2))


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward 2-D convolution, optionally grouped.

    ``weight`` has shape ``(F, C/groups, KH, KW)``; output channel ``f`` only
    convolves the input-channel slice of its group (``groups == C == F`` is a
    depthwise convolution).  Returns ``(output, x_cols)`` where ``x_cols`` is
    the im2col buffer cached for the backward pass — a single 2-D buffer for
    ``groups == 1``, a tuple of per-group buffers otherwise.
    """
    if groups > 1:
        return _grouped_conv2d_forward(x, weight, bias, stride, padding, groups)
    batch = x.shape[0]
    out_channels, _, kernel_h, kernel_w = weight.shape
    out_h = conv_output_size(x.shape[2], kernel_h, stride, padding)
    out_w = conv_output_size(x.shape[3], kernel_w, stride, padding)

    x_cols = im2col(x, kernel_h, kernel_w, stride, padding)
    w_rows = weight.reshape(out_channels, -1)
    out = w_rows @ x_cols
    if bias is not None:
        out += bias.reshape(-1, 1)
    out = out.reshape(out_channels, out_h, out_w, batch).transpose(3, 0, 1, 2)
    return np.ascontiguousarray(out), x_cols


def _grouped_conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    groups: int,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Grouped forward pass: one im2col convolution per channel group.

    The per-group col buffers are returned as a tuple (not stacked into one
    array): the backward pass only ever consumes them group by group, so
    stacking would copy the whole im2col memory for nothing.
    """
    out_channels, group_in, _, _ = weight.shape
    if x.shape[1] != group_in * groups:
        raise ValueError(
            f"input has {x.shape[1]} channels; weight {weight.shape} with "
            f"groups={groups} expects {group_in * groups}"
        )
    _, group_out = check_group_split(x.shape[1], out_channels, groups)
    outputs, col_buffers = [], []
    for g in range(groups):
        x_g = x[:, g * group_in : (g + 1) * group_in]
        w_g = weight[g * group_out : (g + 1) * group_out]
        b_g = bias[g * group_out : (g + 1) * group_out] if bias is not None else None
        out_g, cols_g = conv2d_forward(x_g, w_g, b_g, stride, padding)
        outputs.append(out_g)
        col_buffers.append(cols_g)
    return np.concatenate(outputs, axis=1), tuple(col_buffers)


def conv2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    x_cols: np.ndarray | tuple[np.ndarray, ...],
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    need_input_grad: bool = True,
    groups: int = 1,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Backward 2-D convolution, optionally grouped.

    Implements both backward products from the paper:

    * GTA — gradient to input activations ``dI = sum_i dO_i * W+_{i,j}``.
    * GTW — gradient to weights ``dW_{i,j} = dO_i * I_j``.

    ``x_cols`` is the buffer returned by :func:`conv2d_forward` (a tuple of
    per-group buffers when ``groups > 1``).  Returns ``(grad_input, grad_weight,
    grad_bias)``; ``grad_input`` is ``None`` when ``need_input_grad`` is
    ``False`` (first layer of a network).
    """
    if groups > 1:
        return _grouped_conv2d_backward(
            grad_out, x_shape, x_cols, weight, stride, padding, need_input_grad, groups
        )
    out_channels, _, kernel_h, kernel_w = weight.shape
    grad_out_rows = grad_out.transpose(1, 2, 3, 0).reshape(out_channels, -1)

    grad_bias = grad_out.sum(axis=(0, 2, 3))
    grad_weight = (grad_out_rows @ x_cols.T).reshape(weight.shape)

    grad_input = None
    if need_input_grad:
        w_rows = weight.reshape(out_channels, -1)
        grad_cols = w_rows.T @ grad_out_rows
        grad_input = col2im(grad_cols, x_shape, kernel_h, kernel_w, stride, padding)
    return grad_input, grad_weight, grad_bias


def _grouped_conv2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    x_cols: tuple[np.ndarray, ...],
    weight: np.ndarray,
    stride: int,
    padding: int,
    need_input_grad: bool,
    groups: int,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Grouped backward pass: run the dense backward per channel group."""
    batch, channels, height, width = x_shape
    out_channels = weight.shape[0]
    group_in, group_out = check_group_split(channels, out_channels, groups)
    if len(x_cols) != groups:
        raise ValueError(
            f"x_cols has {len(x_cols)} group buffers, expected {groups}"
        )
    grad_inputs, grad_weights, grad_biases = [], [], []
    for g in range(groups):
        grad_out_g = grad_out[:, g * group_out : (g + 1) * group_out]
        weight_g = weight[g * group_out : (g + 1) * group_out]
        grad_input_g, grad_weight_g, grad_bias_g = conv2d_backward(
            grad_out_g,
            (batch, group_in, height, width),
            x_cols[g],
            weight_g,
            stride,
            padding,
            need_input_grad=need_input_grad,
        )
        grad_inputs.append(grad_input_g)
        grad_weights.append(grad_weight_g)
        grad_biases.append(grad_bias_g)
    grad_input = np.concatenate(grad_inputs, axis=1) if need_input_grad else None
    return grad_input, np.concatenate(grad_weights), np.concatenate(grad_biases)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def maxpool2d_forward(
    x: np.ndarray, kernel: int, stride: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Forward max pooling.

    Returns ``(output, argmax)`` where ``argmax`` stores, for every output
    element, the flat index of the winning element inside its window.  This is
    the "mask recorded in the forward stage" that the paper's GTA step reuses.
    """
    stride = kernel if stride is None else stride
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)

    x_reshaped = x.reshape(batch * channels, 1, height, width)
    cols = im2col(x_reshaped, kernel, kernel, stride, 0)
    argmax = np.argmax(cols, axis=0)
    out = cols[argmax, np.arange(cols.shape[1])]
    out = out.reshape(out_h, out_w, batch, channels).transpose(2, 3, 0, 1)
    return np.ascontiguousarray(out), argmax


def maxpool2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    argmax: np.ndarray,
    kernel: int,
    stride: int | None = None,
) -> np.ndarray:
    """Backward max pooling: route gradients to the argmax positions."""
    stride = kernel if stride is None else stride
    batch, channels, height, width = x_shape
    grad_flat = grad_out.transpose(2, 3, 0, 1).reshape(-1)
    cols = np.zeros((kernel * kernel, grad_flat.size), dtype=grad_out.dtype)
    cols[argmax, np.arange(grad_flat.size)] = grad_flat
    grad_x = col2im(
        cols, (batch * channels, 1, height, width), kernel, kernel, stride, 0
    )
    return grad_x.reshape(x_shape)


def avgpool2d_forward(x: np.ndarray, kernel: int, stride: int | None = None) -> np.ndarray:
    """Forward average pooling over non-overlapping or strided windows."""
    stride = kernel if stride is None else stride
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)
    x_reshaped = x.reshape(batch * channels, 1, height, width)
    cols = im2col(x_reshaped, kernel, kernel, stride, 0)
    out = cols.mean(axis=0)
    out = out.reshape(out_h, out_w, batch, channels).transpose(2, 3, 0, 1)
    return np.ascontiguousarray(out)


def avgpool2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int | None = None,
) -> np.ndarray:
    """Backward average pooling: spread gradients uniformly over each window."""
    stride = kernel if stride is None else stride
    batch, channels, height, width = x_shape
    grad_flat = grad_out.transpose(2, 3, 0, 1).reshape(-1)
    cols = np.tile(grad_flat / (kernel * kernel), (kernel * kernel, 1))
    grad_x = col2im(
        cols, (batch * channels, 1, height, width), kernel, kernel, stride, 0
    )
    return grad_x.reshape(x_shape)


# ---------------------------------------------------------------------------
# Activations and normalisation
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU forward; returns ``(output, mask)`` with the non-zero mask."""
    mask = x > 0
    return x * mask, mask


def relu_backward(grad_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """ReLU backward using the mask recorded in the forward pass."""
    return grad_out * mask


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
    eps: float,
    training: bool,
    axes: tuple[int, ...],
) -> tuple[np.ndarray, dict]:
    """Batch normalisation forward over ``axes`` (e.g. ``(0, 2, 3)`` for NCHW).

    Running statistics are updated in place when ``training`` is true.
    Returns ``(output, cache)`` where ``cache`` feeds the backward pass.
    """
    shape = [1] * x.ndim
    for axis in range(x.ndim):
        if axis not in axes:
            shape[axis] = x.shape[axis]

    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        count = x.size / mean.size
        # Unbiased variance for the running estimate, biased for normalisation
        # (matches the convention used by mainstream frameworks).
        unbiased = var * count / max(count - 1, 1)
        running_mean *= 1 - momentum
        running_mean += momentum * mean
        running_var *= 1 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    mean_b = mean.reshape(shape)
    var_b = var.reshape(shape)
    inv_std = 1.0 / np.sqrt(var_b + eps)
    x_hat = (x - mean_b) * inv_std
    out = gamma.reshape(shape) * x_hat + beta.reshape(shape)
    cache = {
        "x_hat": x_hat,
        "inv_std": inv_std,
        "gamma": gamma,
        "shape": shape,
        "axes": axes,
    }
    return out, cache


def batchnorm_backward(
    grad_out: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch normalisation backward; returns ``(dx, dgamma, dbeta)``."""
    x_hat = cache["x_hat"]
    inv_std = cache["inv_std"]
    gamma = cache["gamma"]
    shape = cache["shape"]
    axes = cache["axes"]

    count = grad_out.size / gamma.size
    dbeta = grad_out.sum(axis=axes)
    dgamma = (grad_out * x_hat).sum(axis=axes)

    gamma_b = gamma.reshape(shape)
    dx_hat = grad_out * gamma_b
    mean_dx_hat = dx_hat.mean(axis=axes).reshape(shape)
    mean_dx_hat_xhat = (dx_hat * x_hat).mean(axis=axes).reshape(shape)
    dx = inv_std * (dx_hat - mean_dx_hat - x_hat * mean_dx_hat_xhat)
    # The training-mode backward divides by the per-feature count implicitly
    # through the two means above, so no further scaling by ``count`` needed.
    del count
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# Linear / classifier head
# ---------------------------------------------------------------------------

def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
) -> np.ndarray:
    """Affine transform ``y = x @ W.T + b`` for ``x`` of shape (N, in)."""
    out = x @ weight.T
    if bias is not None:
        out += bias
    return out


def linear_backward(
    grad_out: np.ndarray, x: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward affine transform; returns ``(dx, dW, db)``."""
    grad_input = grad_out @ weight
    grad_weight = grad_out.T @ x
    grad_bias = grad_out.sum(axis=0)
    return grad_input, grad_weight, grad_bias


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy_loss(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy loss and its gradient with respect to the logits.

    ``labels`` are integer class indices of shape (N,).
    """
    batch = logits.shape[0]
    probs = softmax(logits)
    eps = np.finfo(probs.dtype).tiny
    loss = -np.log(probs[np.arange(batch), labels] + eps).mean()
    grad = probs.copy()
    grad[np.arange(batch), labels] -= 1.0
    grad /= batch
    return float(loss), grad
