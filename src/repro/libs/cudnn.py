"""Simulated cuDNN v2: convolution and pooling primitives (§6.1).

All three deep-learning stacks the paper compares (Caffe, Torch,
MAPS-Multi) call the same cuDNN v2 routines — which is why their
single-GPU throughputs coincide in Fig. 11. Functional convolution
bodies use numpy sliding windows; 2x2 pooling reduces over the four
stride-2 views of its input, with no tile copy. Convolution costs are
FLOP counts over the calibrated ``cudnn_conv_efficiency`` fraction of
FMA peak; pooling costs are bytes moved at stream bandwidth.

Layouts are NCHW throughout, filters KCRS, 'valid' convolution (LeNet
uses no padding).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.hardware.calibration import GpuCalibration
from repro.hardware.specs import GPUSpec


# -- functional primitives -----------------------------------------------------
def conv2d_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid cross-correlation: (B,C,H,W) x (K,C,R,S) -> (B,K,H',W')."""
    windows = sliding_window_view(x, w.shape[2:], axis=(2, 3))
    return np.einsum("bchwrs,kcrs->bkhw", windows, w, optimize=True)


def conv2d_backward_data(dy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the input: full correlation with flipped filters."""
    r, s = w.shape[2:]
    dy_p = np.pad(dy, ((0, 0), (0, 0), (r - 1, r - 1), (s - 1, s - 1)))
    windows = sliding_window_view(dy_p, (r, s), axis=(2, 3))
    w_flip = w[:, :, ::-1, ::-1]
    return np.einsum("bkhwrs,kcrs->bchw", windows, w_flip, optimize=True)


def conv2d_backward_filter(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the filters: correlate inputs with output grads.

    ``dw[k,c,r,s] = sum_{b,h,w} x[b,c,h+r,w+s] * dy[b,k,h,w]`` — sliding
    dy-sized windows over x, one per (r,s) filter offset.
    """
    windows = sliding_window_view(x, dy.shape[2:], axis=(2, 3))
    # windows: (B, C, R, S, H', W')
    return np.einsum("bcrshw,bkhw->kcrs", windows, dy, optimize=True)


# Stride-2 quadrant offsets of a 2x2 window, in row-major order: the index
# ``k`` into this tuple is the argmax code the forward pass records.
_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _check_pool_input(shape: tuple[int, ...]) -> None:
    if len(shape) != 4 or shape[2] % 2 or shape[3] % 2:
        raise ValueError(
            f"2x2 pooling needs an NCHW input with even extents, got {shape}"
        )


def maxpool2x2_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2/stride-2 max pooling. Returns (pooled, int8 argmax code 0..3).

    Reduces over the four stride-2 quadrant views without copying tiles.
    The left-to-right ``maximum`` chain keeps ``ndarray.max``'s choice
    between equal signed zeros, and the code is the first quadrant that
    attains the max (or, where the window holds a NaN, the first NaN),
    exactly as ``argmax`` picks it.
    """
    _check_pool_input(x.shape)
    q0, q1, q2, q3 = (x[..., i::2, j::2] for i, j in _QUADRANTS)
    pooled = np.maximum(np.maximum(np.maximum(q0, q1), q2), q3)
    hit = [q == pooled for q in (q0, q1, q2)]
    if np.isnan(pooled).any():
        hit = [h | np.isnan(q) for h, q in zip(hit, (q0, q1, q2))]
    arg = np.where(
        hit[0], np.int8(0),
        np.where(hit[1], np.int8(1), np.where(hit[2], np.int8(2), np.int8(3))),
    )
    return pooled, arg


def maxpool2x2_backward(
    dy: np.ndarray, arg: np.ndarray, in_shape: tuple[int, ...]
) -> np.ndarray:
    """Route gradients to each pooling window's argmax element."""
    in_shape = tuple(in_shape)
    _check_pool_input(in_shape)
    b, c, h, w = in_shape
    if dy.shape != (b, c, h // 2, w // 2) or arg.shape != dy.shape:
        raise ValueError(
            f"dy {dy.shape} and arg {arg.shape} must be the pooled shape "
            f"of {in_shape}"
        )
    dx = np.zeros(in_shape, dy.dtype)
    for k, (i, j) in enumerate(_QUADRANTS):
        dx[..., i::2, j::2] = np.where(arg == k, dy, 0)
    return dx


# -- cost models ----------------------------------------------------------------
def conv_flops(
    batch: int, in_ch: int, out_ch: int, out_h: int, out_w: int,
    r: int, s: int,
) -> float:
    return 2.0 * batch * out_ch * in_ch * out_h * out_w * r * s


def conv_time(
    spec: GPUSpec, calib: GpuCalibration, flops: float
) -> float:
    """cuDNN kernel time at the calibrated conv efficiency."""
    return flops / (spec.peak_sp_gflops * 1e9 * calib.cudnn_conv_efficiency)


def pool_time(spec: GPUSpec, calib: GpuCalibration, elems: int,
              itemsize: int = 4) -> float:
    """Pooling is memory bound: one read of the input, one write of the
    (4x smaller) output."""
    nbytes = elems * itemsize * 1.25
    return nbytes / (spec.mem_bandwidth * calib.stream_efficiency)
