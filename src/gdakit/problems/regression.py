"""Distributionally robust regression with per-sample adversarial targets.

Given data (x_i, t_i), an MLP f_w, and lambda > 1, the adversary perturbs
each target through a quadratic penalty:

    F(w, y) = (1/n) sum_i [ (1/2)(f_w(x_i) - y_i)^2 - (lambda/2)(y_i - t_i)^2 ]

The inner problem is strictly concave per sample with closed maximizer
y_i* = (lambda t_i - f_w(x_i)) / (lambda - 1), which gives the closed primal

    phi(w) = lambda / (2 (lambda - 1)) * mean((f_w(x_i) - t_i)^2),

i.e. a rescaled MSE. Minibatches are drawn with replacement so both gradient
blocks stay unbiased.
"""
from __future__ import annotations

import csv

import numpy as np

from .. import mlp
from ..core import DimensionError, ParameterError, RngStream
from .base import JointPoint, Problem, ProblemConstants


class _RobustRegression(Problem):
    def __init__(
        self,
        x_data: np.ndarray,
        targets: np.ndarray,
        arch: mlp.MlpArch,
        lam: float,
        batch: int,
        rng_seed: int,
        constants: ProblemConstants,
        init_scale: float,
    ):
        n_samples, d = x_data.shape
        if targets.shape != (n_samples,):
            raise DimensionError(
                f"robust_regression: targets must be ({n_samples},), got {targets.shape}"
            )
        if arch.n_in != d or arch.n_out != 1:
            raise DimensionError(
                f"robust_regression: net must map {d} -> 1, got {arch.layer_sizes}"
            )
        if lam <= 1:
            raise ParameterError(f"robust_regression: lambda must be > 1, got {lam}")
        if not (1 <= batch <= n_samples):
            raise ParameterError(
                f"robust_regression: batch must be in [1, {n_samples}], got {batch}"
            )
        self.x_data = x_data
        self.targets = targets
        self.arch = arch
        self.lam = float(lam)
        self.batch = int(batch)
        self.rng_seed = int(rng_seed)
        self.init_scale = float(init_scale)
        self.m = arch.n_params
        self.n = n_samples
        self.constants = constants
        self.name = "robust_regression"
        self.metadata = {"mlp_backed": True, "d": d, "batch": self.batch}

    def _fw(self, x_rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        return mlp.forward_batch(self.arch, w, x_rows)[..., 0]

    def _dataset_blocks(self, x: np.ndarray):
        """(block, the dataset as a broadcast (rows, N, d) view, f_w at it
        (rows, N)) for each block of rows of x (mlp.row_blocks)."""
        for blk in mlp.row_blocks(self.arch, len(x), self.n):
            xs = np.broadcast_to(self.x_data, (blk.stop - blk.start,) + self.x_data.shape)
            yield blk, xs, self._fw(xs, x[blk])

    def value_batch(self, x, y):
        v = np.empty(len(x))
        for blk, _, f in self._dataset_blocks(x):
            r = f - y[blk]
            pen = y[blk] - self.targets
            v[blk] = np.mean(0.5 * r * r - 0.5 * self.lam * pen * pen, axis=-1)
        return v

    def exact_grad_batch(self, x, y, need="xy"):
        gx = np.empty(x.shape) if "x" in need else None
        gy = np.empty(y.shape) if "y" in need else None
        for blk, xs, f in self._dataset_blocks(x):
            if gx is not None:
                gx[blk] = self._grad_w(x[blk], xs, (f - y[blk]) / self.n)
            if gy is not None:
                gy[blk] = (y[blk] - f - self.lam * (y[blk] - self.targets)) / self.n
        return gx, gy

    def _grad_w(self, w, xs, col):
        """The weight gradient of sum_j col[.., j] f_w(xs[.., j]) at each
        row of w: the backward pass, without the input gradient."""
        return mlp.backward_batch(self.arch, w, xs, col[..., None], grad_inputs=False)[0]

    def draw_samples(self, rng: RngStream, k: int):
        """k minibatch index vectors, drawn with replacement, as one (k, B)
        block of integers in row order."""
        return rng.integers(0, self.n, size=(k, self.batch))

    def draw_rows(self, rngs: list[RngStream]):
        return np.concatenate([self.draw_samples(rng, 1) for rng in rngs])

    def grad_with_sample_batch(self, x, y, samples, need="xy"):
        """One stacked forward pass per block of rows (mlp.row_blocks), then
        a backward pass for the x-gradients and one np.add.at for the
        y-gradients, each only when need asks for that block."""
        idx_all = np.asarray(samples)
        gx = np.empty(x.shape) if "x" in need else None
        gy = np.zeros(y.shape) if "y" in need else None
        for blk in mlp.row_blocks(self.arch, len(x), idx_all.shape[1]):
            w, idx = x[blk], idx_all[blk]
            rows = np.arange(blk.start, blk.stop)[:, None]
            xs = self.x_data[idx]
            f = self._fw(xs, w)
            ys = y[rows, idx]
            if gx is not None:
                gx[blk] = self._grad_w(w, xs, (f - ys) / self.batch)
            if gy is not None:
                # (row, index) pairs in row-major order: each row's entries
                # add up in sample order
                np.add.at(
                    gy, (rows, idx), (ys - f - self.lam * (ys - self.targets[idx])) / self.batch
                )
        return gx, gy

    def closed_phi_batch(self, x):
        phi = np.empty(len(x))
        y_star = np.empty((len(x), self.n))
        for blk, _, f in self._dataset_blocks(x):
            y_star[blk] = (self.lam * self.targets - f) / (self.lam - 1.0)
            res = f - self.targets
            phi[blk] = self.lam / (2.0 * (self.lam - 1.0)) * np.mean(res * res, axis=-1)
        return phi, y_star

    def default_init(self, seed: int | None = None) -> JointPoint:
        """Fresh net; adversarial targets start at the true targets."""
        rng = RngStream(self.rng_seed if seed is None else seed, stream_id=78)
        w0 = mlp.init_params(self.arch, rng, scale=self.init_scale)
        return JointPoint(w0, self.targets.copy())


def save_dataset(path, x_data: np.ndarray, targets: np.ndarray) -> None:
    """CSV with header x0..x{d-1},target, one sample per line."""
    x_data = np.asarray(x_data, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"x{j}" for j in range(x_data.shape[1])] + ["target"])
        for row, t in zip(x_data, targets):
            wr.writerow([repr(float(v)) for v in row] + [repr(float(t))])


def load_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if not header or header[-1] != "target":
            raise ParameterError(f"dataset {path}: last column must be 'target'")
        rows = [[float(v) for v in row] for row in rd if row]
    arr = np.asarray(rows, dtype=np.float64)
    return arr[:, :-1], arr[:, -1]


def make_robust_regression(
    n: int = 1000,
    d: int = 500,
    reg_arch: list[int] | None = None,
    lam: float = 2.0,
    rng_seed: int = 0,
    batch: int = 100,
    noise_std: float = 0.1,
    data: tuple[np.ndarray, np.ndarray] | None = None,
    l1: float = 1.5,
    mu: float | None = None,
    sigma: float = 6.0,
    init_scale: float = 1.0,
) -> Problem:
    """Robust regression instance.

    By default features are standard normal and targets come from a random
    linear model plus N(0, noise_std^2) noise, all drawn from rng_seed; pass
    data=(X, targets) (e.g. from load_dataset) to reuse a dumped dataset.
    mu defaults to the derived joint inner-concavity modulus (lambda-1)/n;
    l1 and sigma are supplied estimates for the MLP objective with roughly
    2x headroom over values measured at probe points and default
    initializations of the shipped configuration.
    """
    if data is not None:
        x_data, targets = data
        x_data = np.asarray(x_data, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        n, d = x_data.shape
    else:
        rng = RngStream(rng_seed, stream_id=79)
        x_data = rng.standard_normal((n, d))
        beta = rng.standard_normal(d) / np.sqrt(d)
        targets = x_data @ beta + noise_std * rng.standard_normal(n)
    if reg_arch is None:
        reg_arch = (d, 4, 1)
    arch = mlp.MlpArch(tuple(reg_arch))
    if mu is None:
        mu = (lam - 1.0) / n
    constants = ProblemConstants(l1=l1, mu=mu, sigma=sigma, provenance="estimate")
    return _RobustRegression(
        x_data, targets, arch, lam, batch, rng_seed, constants, init_scale
    )
