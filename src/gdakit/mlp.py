"""Small dense multilayer perceptron on flat float64 parameter vectors.

The parameter vector concatenates, per layer, the weight matrix in row-major
order followed by the bias: layer l maps fan_in -> fan_out with
W of shape (fan_in, fan_out) and b of shape (fan_out,). Hidden layers apply
the activation; the output layer is linear.
"""
from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


def _unpack(arch: MlpArch, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (arch.n_params,):
        raise DimensionError(
            f"params: expected length {arch.n_params}, got shape {params.shape}"
        )
    layers, off = [], 0
    sizes = arch.layer_sizes
    for i in range(len(sizes) - 1):
        fi, fo = sizes[i], sizes[i + 1]
        w = params[off : off + fi * fo].reshape(fi, fo)
        off += fi * fo
        b = params[off : off + fo]
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


def _act_deriv(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return (z > 0.0).astype(np.float64)


def forward_batch(arch: MlpArch, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Outputs for a batch of rows; inputs shape (batch, n_in) -> (batch, n_out)."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.n_in:
        raise DimensionError(f"inputs: expected (batch, {arch.n_in}), got {x.shape}")
    layers = _unpack(arch, params)
    a = x
    for w, b in layers[:-1]:
        a = _act(a @ w + b, arch.activation)
    w, b = layers[-1]
    return a @ w + b


def backward_batch(
    arch: MlpArch, params: np.ndarray, inputs: np.ndarray, out_grads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of sum_r <out_grads[r], forward(inputs[r])>.

    Returns (param_grad, input_grads): param_grad is the flat parameter
    gradient accumulated over the batch, input_grads has the shape of inputs.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.n_in:
        raise DimensionError(f"inputs: expected (batch, {arch.n_in}), got {x.shape}")
    g_out = np.asarray(out_grads, dtype=np.float64)
    if g_out.shape != (x.shape[0], arch.n_out):
        raise DimensionError(
            f"out_grads: expected {(x.shape[0], arch.n_out)}, got {g_out.shape}"
        )
    layers = _unpack(arch, params)

    # forward pass, keeping pre-activations
    acts = [x]
    pre = []
    a = x
    for w, b in layers[:-1]:
        z = a @ w + b
        pre.append(z)
        a = _act(z, arch.activation)
        acts.append(a)

    grads = [None] * len(layers)
    delta = g_out
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        dw = acts[li].T @ delta
        db = delta.sum(axis=0)
        grads[li] = (dw, db)
        delta = delta @ w.T
        if li > 0:
            delta = delta * _act_deriv(pre[li - 1], arch.activation)

    flat = np.concatenate([np.concatenate([dw.ravel(), db]) for dw, db in grads])
    return flat, delta


def forward(arch: MlpArch, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Single-input forward pass; x shape (n_in,) -> (n_out,)."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape != (arch.n_in,):
        raise DimensionError(f"input: expected shape ({arch.n_in},), got {xv.shape}")
    return forward_batch(arch, params, xv[None, :])[0]


def backward(
    arch: MlpArch, params: np.ndarray, x: np.ndarray, out_grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of <out_grad, forward(x)> w.r.t. (params, x)."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape != (arch.n_in,):
        raise DimensionError(f"input: expected shape ({arch.n_in},), got {xv.shape}")
    gv = np.atleast_1d(np.asarray(out_grad, dtype=np.float64))
    if gv.shape != (arch.n_out,):
        raise DimensionError(f"out_grad: expected shape ({arch.n_out},), got {gv.shape}")
    pg, ig = backward_batch(arch, params, xv[None, :], gv[None, :])
    return pg, ig[0]

