"""Toy WGAN: fit a 2-d diagonal Gaussian with an affine generator.

Data x ~ N(mu_star, diag(sigma_star)^2). Generator g_theta(z) = theta_mu +
theta_sigma * z with z ~ N(0, I_2), so theta = (theta_mu, theta_sigma) in R^4
and theta = (mu_star, sigma_star) reproduces the data distribution exactly.
An MLP discriminator f_w plays the inner maximizer of

    F(theta, w) = E_x[f_w(x)] - E_z[f_w(g_theta(z))],

the minimizer is theta. Minibatch gradients are unbiased; "exact" values and
gradients integrate the two Gaussian expectations with tensor-product
Gauss-Hermite quadrature, which is what makes oracle audits well-defined
here. Quadrature resolution is finite: the default 150-node grid holds
gradient errors below ~1e-3 for fan-in-scaled discriminators (the family
random_point and init_params produce) but degrades for weight vectors with
O(1) entries per coordinate, whose integrand varies faster than any
affordable node spacing.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .. import mlp
from ..core import DimensionError, ParameterError, RngStream, row_dot
from .base import JointPoint, Problem, ProblemConstants


def _gauss_grid_2d(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature grid for E[f(xi)] with xi ~ N(0, I_2)."""
    # hermegauss weight recurrence overflows somewhere above ~350 nodes
    if not (10 <= nodes <= 300):
        raise ParameterError(f"quad_nodes must lie in [10, 300], got {nodes}")
    pts, wts = hermegauss(nodes)
    wts = wts / np.sqrt(2.0 * np.pi)
    xi = np.stack(
        [np.repeat(pts, nodes), np.tile(pts, nodes)], axis=1
    )  # (nodes^2, 2)
    w2 = np.repeat(wts, nodes) * np.tile(wts, nodes)
    return xi, w2


class _GaussianWgan(Problem):
    def __init__(
        self,
        mu_star,
        sigma_star,
        disc_arch,
        batch: int,
        rng_seed: int,
        constants: ProblemConstants,
        quad_nodes: int,
        init_scale: float,
    ):
        mu = np.asarray(mu_star, dtype=np.float64)
        sg = np.asarray(sigma_star, dtype=np.float64)
        if mu.shape != (2,) or sg.shape != (2,):
            raise DimensionError("gaussian_wgan: mu_star and sigma_star must be length 2")
        if np.any(sg <= 0):
            raise ParameterError("gaussian_wgan: sigma_star entries must be > 0")
        if batch < 1:
            raise ParameterError("gaussian_wgan: batch must be >= 1")
        arch = mlp.MlpArch(tuple(disc_arch))
        if arch.n_in != 2 or arch.n_out != 1:
            raise DimensionError(
                f"gaussian_wgan: discriminator must map 2 -> 1, got {arch.layer_sizes}"
            )
        self.mu_star = mu
        self.sigma_star = sg
        self.arch = arch
        self.batch = int(batch)
        self.rng_seed = int(rng_seed)
        self.init_scale = float(init_scale)
        self.m = 4
        self.n = arch.n_params
        self.sample_shape = (2, self.batch, 2)
        self.constants = constants
        self.name = "gaussian_wgan"
        self.metadata = {"mlp_backed": True, "batch": self.batch}
        xi, w2 = _gauss_grid_2d(quad_nodes)
        self._xi = xi
        self._w2 = w2
        self._x_nodes = mu + sg * xi  # data-side quadrature points, fixed

    # -- oracle -------------------------------------------------------------
    def value_batch(self, x, y):
        """Quadrature value: one stacked forward pass over the data nodes
        and one over the generated nodes per block of rows."""
        v = np.empty(len(x))
        nodes = len(self._w2)
        for blk in mlp.row_blocks(self.arch, len(x), nodes, slices_per_row=2):
            shape = (blk.stop - blk.start, nodes)
            u = x[blk, None, :2] + x[blk, None, 2:] * self._xi
            f_real = mlp.forward_batch(
                self.arch, y[blk], np.broadcast_to(self._x_nodes, shape + (2,))
            )[..., 0]
            f_fake = mlp.forward_batch(self.arch, y[blk], u)[..., 0]
            w2 = np.broadcast_to(self._w2, shape)
            v[blk] = row_dot(w2, f_real) - row_dot(w2, f_fake)
        return v

    def exact_grad_batch(self, x, y, need="xy"):
        """Quadrature gradient: _grad_stack with every row's data and
        generator inputs at the node grid, weighted by the quadrature."""
        shape = (len(x),) + self._xi.shape
        nodes = np.broadcast_to(self._x_nodes, shape)
        return self._grad_stack(x, y, nodes, np.broadcast_to(self._xi, shape), self._w2, need)

    def _map_normals(self, z):
        """A sample (2, B, 2) is a data minibatch, then the generator's
        normals: only the data half leaves N(0, I)."""
        data = z[:, 0]
        data *= self.sigma_star
        data += self.mu_star

    def grad_with_sample_batch(self, x, y, samples, need="xy"):
        """Minibatch gradients: _grad_stack with row i's data and z from
        samples[i], each input weighted 1/B."""
        xz = np.asarray(samples)  # (S, 2, B, 2)
        return self._grad_stack(x, y, xz[:, 0], xz[:, 1], 1.0 / xz.shape[2], need)

    def _grad_stack(self, x, y, data, z, wts, need):
        """Gradients at the rows of x (S, m), y (S, n): row i's is
        sum_j wts[j] grad f(data[i, j]) minus the same over its generated
        inputs theta_mu + theta_sigma * z[i, j], with row i's critic
        weights; data and z are (S, B, 2), and wts (B,) sums to one (a
        scalar weights every input alike). A non-finite row gets non-finite
        gradients, not an error.

        One backward pass per block of rows (mlp.row_blocks). The y block
        needs the parameter gradients of 2S slices: slice i is the data
        pass, slice S + i the generator pass. The x block needs only the
        generator slices' input gradients, so without the y block the pass
        runs on those S slices alone."""
        want_x, want_y = "x" in need, "y" in need
        gx = np.empty(x.shape) if want_x else None
        gy = np.empty(y.shape) if want_y else None
        for blk in mlp.row_blocks(self.arch, len(x), z.shape[1], slices_per_row=2):
            s, zb = blk.stop - blk.start, z[blk]
            u = x[blk, None, :2] + x[blk, None, 2:] * zb
            if want_y:
                inputs, params = np.concatenate([data[blk], u]), np.concatenate([y[blk], y[blk]])
            else:
                inputs, params = u, y[blk]
            col = np.empty(inputs.shape[:2] + (1,))
            col[..., 0] = wts
            np.negative(col[-s:], out=col[-s:])
            pg, ig = mlp.backward_batch(
                self.arch, params, inputs, col, grad_params=want_y, grad_inputs=want_x
            )
            if want_x:
                gu = ig[-s:]  # rows already carry -wts[j] * df/du
                gx[blk, :2] = gu.sum(axis=1)
                gx[blk, 2:] = (gu * zb).sum(axis=1)
            if want_y:
                gy[blk] = pg[:s] + pg[s:]
        return gx, gy

    # -- extras -------------------------------------------------------------
    def dist_to_opt_batch(self, x, y):
        """Distance of each generator row to (mu_star, sigma_star)."""
        d = x - np.concatenate([self.mu_star, self.sigma_star])
        return np.sqrt(row_dot(d, d))

    def default_init(self, seed: int | None = None) -> JointPoint:
        """Generator at (0, 0, 1, 1); discriminator freshly initialized."""
        rng = RngStream(self.rng_seed if seed is None else seed, stream_id=77)
        theta0 = np.array([0.0, 0.0, 1.0, 1.0])
        w0 = mlp.init_params(self.arch, rng, scale=self.init_scale)
        return JointPoint(theta0, w0)

    def random_point(self, rng: RngStream, scale: float = 1.0) -> JointPoint:
        """Probe points with fan-in-scaled discriminator weights.

        The quadrature reference integrates the discriminator exactly only
        while its preactivations vary on the unit scale the node grid
        resolves; raw N(0, scale) weights on every coordinate would put
        probe points far outside that family (and outside anything the
        initializer or a feasible run produces).
        """
        theta = rng.gauss(self.m, scale)
        # small dense perturbation so biases (zero at init) are also generic
        w = mlp.init_params(self.arch, rng, scale=scale) + rng.gauss(self.n, 0.05 * scale)
        return JointPoint(theta, w)

    def random_points(self, rng: RngStream, k: int, scale: float = 1.0):
        """k probe points stacked, drawn one random_point at a time."""
        pts = [self.random_point(rng, scale) for _ in range(k)]
        return np.array([p.x for p in pts]), np.array([p.y for p in pts])


def make_gaussian_wgan(
    mu_star: tuple[float, float] = (0.5, -1.5),
    sigma_star: tuple[float, float] = (0.1, 0.3),
    disc_arch: list[int] = (2, 16, 16, 1),
    batch: int = 100,
    rng_seed: int = 0,
    l1: float = 4.0,
    mu: float = 1.0,
    sigma: float = 1.0,
    quad_nodes: int = 150,
    init_scale: float = 1.0,
) -> Problem:
    """Build the toy WGAN. l1/mu/sigma are supplied estimates (no closed
    curvature constants exist for an MLP discriminator); the defaults give
    roughly 2x headroom over the worst gradient-Lipschitz ratio and noise
    second moment measured at probe points and default initializations of
    the shipped configuration."""
    constants = ProblemConstants(l1=l1, mu=mu, sigma=sigma, provenance="estimate")
    return _GaussianWgan(
        mu_star, sigma_star, disc_arch, batch, rng_seed, constants, quad_nodes, init_scale
    )
