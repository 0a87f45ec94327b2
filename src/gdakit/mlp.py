"""Small dense multilayer perceptron on flat float64 parameter vectors.

The parameter vector concatenates, per layer, the weight matrix in row-major
order followed by the bias: layer l maps fan_in -> fan_out with
W of shape (fan_in, fan_out) and b of shape (fan_out,). Hidden layers apply
the activation; the output layer is linear.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DimensionError, ParameterError, RngStream

_ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class MlpArch:
    """Layer sizes plus hidden activation. relu is supported but nonsmooth,
    so gradient-based theory checks should prefer tanh."""

    layer_sizes: tuple[int, ...]
    activation: str = "tanh"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ParameterError(f"MlpArch: need input and output sizes, got {sizes}")
        if any(s < 1 for s in sizes):
            raise ParameterError(f"MlpArch: layer sizes must be >= 1, got {sizes}")
        if self.activation not in _ACTIVATIONS:
            raise ParameterError(
                f"MlpArch: unknown activation {self.activation!r}, pick from {_ACTIVATIONS}"
            )

    @property
    def n_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_out(self) -> int:
        return self.layer_sizes[-1]

    @cached_property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


# floats in one layer's activations (the gathered input included) of a
# stacked call from the MLP-backed problems' oracles: they split a stack of
# rows into blocks below it (row_blocks), which bounds a call's memory
# whatever the number of rows. 512 KB per array stays cache-resident: on a
# 2-vCPU x86 machine the oracle audit of both problems ran about 20% faster
# than at 1 << 20
STACK_FLOATS = 1 << 16


def row_blocks(arch: MlpArch, rows: int, batch: int, slices_per_row: int = 1) -> list[slice]:
    """Consecutive blocks of range(rows) whose stacked calls, slices_per_row
    slices of batch inputs per row, keep every layer within STACK_FLOATS
    floats (one row per block at least)."""
    step = max(1, STACK_FLOATS // (slices_per_row * batch * max(arch.layer_sizes)))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _unpack(arch: MlpArch, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W, b) views of params (..., n_params): W (..., fan_in,
    fan_out) and b (..., fan_out), with params' leading axes."""
    lead = params.shape[:-1]
    layers, off = [], 0
    sizes = arch.layer_sizes
    for i in range(len(sizes) - 1):
        fi, fo = sizes[i], sizes[i + 1]
        w = params[..., off : off + fi * fo].reshape(lead + (fi, fo))
        off += fi * fo
        b = params[..., off : off + fo]
        off += fo
        layers.append((w, b))
    return layers


def init_params(arch: MlpArch, rng: RngStream, scale: float = 1.0) -> np.ndarray:
    """Weights ~ N(0, scale^2 / fan_in), biases zero."""
    if scale < 0:
        raise ParameterError(f"init_params: scale must be >= 0, got {scale}")
    sizes = arch.layer_sizes
    chunks = []
    for i in range(len(sizes) - 1):
        fi, fo = sizes[i], sizes[i + 1]
        chunks.append(rng.gauss(fi * fo, std=scale / np.sqrt(fi)))
        chunks.append(np.zeros(fo))
    return np.concatenate(chunks)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.tanh(z) if kind == "tanh" else np.maximum(z, 0.0)


def _act_deriv(a: np.ndarray, kind: str) -> np.ndarray:
    """Activation derivative from the activations a = _act(z) themselves."""
    if kind == "tanh":
        sq = a * a
        return np.subtract(1.0, sq, out=sq)
    return (a > 0.0).astype(np.float64)


def _stacked(
    arch: MlpArch, params, inputs, out_grads=None
) -> tuple[bool, np.ndarray, np.ndarray, np.ndarray | None]:
    """Validated (stacked, params, inputs, out_grads) as a stack of slices.

    params (P,) with inputs (B, n_in) and out_grads (B, n_out) is the
    un-stacked call; it becomes the one-slice stack (1, P), (1, B, n_in),
    (1, B, n_out). A stack params (K, P), inputs (K, B, n_in), out_grads
    (K, B, n_out) passes through.
    """
    p = np.asarray(params, dtype=np.float64)
    x = np.asarray(inputs, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] != arch.n_params:
        raise DimensionError(
            f"params: expected length {arch.n_params} or a stack (K, {arch.n_params}), "
            f"got shape {p.shape}"
        )
    stacked = p.ndim == 2
    if x.ndim != p.ndim + 1 or x.shape[:-2] != p.shape[:-1] or x.shape[-1] != arch.n_in:
        batch = f"({len(p)}, batch, " if stacked else "(batch, "
        raise DimensionError(f"inputs: expected {batch}{arch.n_in}), got {x.shape}")
    g = None
    if out_grads is not None:
        g = np.asarray(out_grads, dtype=np.float64)
        if g.shape != x.shape[:-1] + (arch.n_out,):
            raise DimensionError(
                f"out_grads: expected {x.shape[:-1] + (arch.n_out,)}, got {g.shape}"
            )
    if not stacked:
        p, x, g = p[None], x[None], None if g is None else g[None]
    return stacked, p, x, g


def _hidden(arch: MlpArch, layers, x: np.ndarray) -> list[np.ndarray]:
    """Inputs and hidden activations [x, a_1, ..., a_{L-1}] of a stack."""
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(_act(acts[-1] @ w + b[:, None], arch.activation))
    return acts


def forward_batch(arch: MlpArch, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Outputs for a batch of rows: inputs (batch, n_in) -> (batch, n_out).

    Stacked: params (K, P) and inputs (K, batch, n_in) give (K, batch,
    n_out), slice k run with params[k]. np.matmul runs one product per
    slice, so each slice is bit-identical to the un-stacked call on it.
    """
    stacked, p, x, _ = _stacked(arch, params, inputs)
    layers = _unpack(arch, p)
    w, b = layers[-1]
    out = _hidden(arch, layers, x)[-1] @ w + b[:, None]
    return out if stacked else out[0]


def backward_batch(
    arch: MlpArch,
    params: np.ndarray,
    inputs: np.ndarray,
    out_grads: np.ndarray,
    *,
    grad_params: bool = True,
    grad_inputs: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Gradient of sum_r <out_grads[r], forward(inputs[r])>.

    Returns (param_grad, input_grads): param_grad is the flat parameter
    gradient accumulated over the batch, input_grads has the shape of inputs.
    Stacked like forward_batch: params (K, P), inputs (K, batch, n_in) and
    out_grads (K, batch, n_out) give param_grad (K, P), each slice
    bit-identical to the un-stacked call on it.

    grad_params=False or grad_inputs=False skips that part: it comes back
    as None, and the part that is computed keeps the bits of the full call.
    """
    stacked, p, x, delta = _stacked(arch, params, inputs, out_grads)
    layers = _unpack(arch, p)
    acts = _hidden(arch, layers, x)

    # per layer, last first: db (K, fan_out), then dW (K, fan_in * fan_out)
    grads = []
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        if grad_params:
            dw = acts[li].swapaxes(-1, -2) @ delta
            grads += [delta.sum(axis=-2), dw.reshape(len(p), -1)]
        if li == 0 and not grad_inputs:
            delta = None
            break
        delta = delta @ w.swapaxes(-1, -2)
        if li > 0:
            delta *= _act_deriv(acts[li], arch.activation)

    flat = np.concatenate(grads[::-1], axis=-1) if grad_params else None
    if stacked:
        return flat, delta
    return (None if flat is None else flat[0]), (None if delta is None else delta[0])
