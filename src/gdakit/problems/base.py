"""Shared problem interface for stochastic minimax objectives.

A problem is min over x of max over y of F(x, y) = E_z[f(x, y; z)] with a
first-order stochastic oracle. Problems expose exact gradients (closed form
or quadrature), an unbiased sampled gradient, smoothness/curvature constants,
and, where available, the closed-form inner maximum phi(x) = max_y F(x, y).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core import (
    CapabilityError,
    DimensionError,
    OracleViolation,
    ParameterError,
    RngStream,
    as_vec,
    row_dot,
)


@dataclass(frozen=True)
class JointPoint:
    """Immutable (x, y) pair of float64 vectors."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = as_vec(self.x, what="JointPoint.x").copy()
        y = as_vec(self.y, what="JointPoint.y").copy()
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def joined(self) -> np.ndarray:
        return np.concatenate([self.x, self.y])


@dataclass(frozen=True)
class GradSample:
    """One (possibly stochastic) gradient pair (d/dx, d/dy) of F."""

    gx: np.ndarray
    gy: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gx", as_vec(self.gx, what="GradSample.gx"))
        object.__setattr__(self, "gy", as_vec(self.gy, what="GradSample.gy"))


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness l1, inner curvature mu, and oracle noise level sigma.

    mu is the quadratic-growth/gradient-domination constant of the inner
    maximization; kappa = l1/mu and l2 = l1*(1 + kappa/2) is the induced
    smoothness bound for phi. provenance records whether the values are
    derived from the instance data or supplied estimates.
    """

    l1: float
    mu: float
    sigma: float
    provenance: str = "derived"

    def __post_init__(self):
        for name in ("l1", "mu", "sigma"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ParameterError(f"ProblemConstants.{name}: non-finite")
        if self.l1 <= 0 or self.mu <= 0:
            raise ParameterError("ProblemConstants: l1 and mu must be positive")
        if self.mu > self.l1:
            raise ParameterError(
                f"ProblemConstants: mu={self.mu} exceeds l1={self.l1}"
            )
        if self.sigma < 0:
            raise ParameterError("ProblemConstants: sigma must be >= 0")

    @property
    def kappa(self) -> float:
        return self.l1 / self.mu

    @property
    def l2(self) -> float:
        return self.l1 * (1.0 + 0.5 * self.kappa)


class Problem:
    """Base class; concrete factories live in the sibling modules.

    A subclass implements the stacked oracle only: value_batch,
    exact_grad_batch and grad_with_sample_batch at a stack of points (row i
    of x (S, m) and y (S, n)), closed_phi_batch where phi has a closed form
    and dist_to_opt_batch where the optimum is known. value, exact_grad,
    grad_with_sample, closed_phi and dist_to_opt are their S = 1 views,
    written once here; random_points stacks random_point.

    The two gradient forms take need, the blocks the caller applies: "x",
    "y" or "xy" (the default). A block that need leaves out comes back as
    None and is not computed; a block that is returned has exactly the bits
    of that block from the "xy" call.

    Samples are standard normals under an elementwise map: a subclass
    declares sample_shape, the shape of one sample's normals (None when the
    oracle is noiseless: every sample is None and nothing is drawn), and
    _map_normals, which turns a stack of them into samples in place, each
    row on its own. draw_samples, draw_rows and draw_sample are written
    once from those two; a problem with other samples overrides
    draw_samples and draw_rows.

    closed_phi_batch / nash_point / dist_to_opt_batch stay None when the
    problem cannot support them. pl_condition is False for problems
    (bilinear coupling) whose inner maximization has no curvature, so
    phi-based diagnostics refuse them.
    """

    name: str = "problem"
    m: int = 0
    n: int = 0
    constants: ProblemConstants | None = None
    pl_condition: bool = True
    sample_shape: tuple[int, ...] | None = None
    # x (S, m) -> (phi (S,), y*(x) (S, n)), a method where a closed form exists
    closed_phi_batch = None
    # (x (S, m), y (S, n)) -> distance of each row to the optimum (S,), a
    # method where the optimum is known
    dist_to_opt_batch = None
    nash_point: JointPoint | None = None
    metadata: dict = {}

    def value_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """F at each row of x (S, m) and y (S, n); shape (S,)."""
        raise NotImplementedError

    def exact_grad_batch(
        self, x: np.ndarray, y: np.ndarray, need: str = "xy"
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Exact gradients (gx (S, m), gy (S, n)) at each row of x and y;
        the block need leaves out is None."""
        raise NotImplementedError

    def grad_with_sample_batch(
        self, x: np.ndarray, y: np.ndarray, samples, need: str = "xy"
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Sampled gradients at each row of x (S, m) and y (S, n), row i
        with samples[i]; returns (gx (S, m), gy (S, n)), the block need
        leaves out None.

        Like every stacked form, it does not validate the rows: a row that
        has diverged gets non-finite gradients, not an error, since the
        caller's finiteness check on the iterates reports it.
        """
        raise NotImplementedError

    def _map_normals(self, z: np.ndarray) -> None:
        """Turn z, a stack (k, *sample_shape) of standard normals, into k
        samples in place, each row independently of the others."""
        raise NotImplementedError

    def draw_samples(self, rng: RngStream, k: int):
        """k fresh samples from one stream, item i the i-th drawn: one
        (k, *sample_shape) block of normals, filled in row order."""
        if self.sample_shape is None:
            return [None] * k
        z = rng.standard_normal((k, *self.sample_shape))
        self._map_normals(z)
        return z

    def draw_rows(self, rngs: list[RngStream]):
        """One fresh sample per stream, item i from rngs[i], each stream
        left where draw_sample leaves it: each stream fills its own row of
        one block, and the map runs once on the whole block."""
        if self.sample_shape is None:
            return [None] * len(rngs)
        z = np.empty((len(rngs), *self.sample_shape))
        for rng, row in zip(rngs, z):
            rng.standard_normal(out=row)
        self._map_normals(z)
        return z

    def draw_sample(self, rng: RngStream) -> Any:
        """One fresh sample: the k = 1 view of draw_samples."""
        return self.draw_samples(rng, 1)[0]

    def _one(self, point: JointPoint) -> tuple[np.ndarray, np.ndarray]:
        """point as the one-row stacks of an S = 1 view."""
        self.check_point(point)
        return point.x[None], point.y[None]

    def value(self, point: JointPoint) -> float:
        return float(self.value_batch(*self._one(point))[0])

    def exact_grad(self, point: JointPoint) -> GradSample:
        gx, gy = self.exact_grad_batch(*self._one(point))
        return GradSample(gx[0], gy[0])

    def grad_with_sample(self, point: JointPoint, sample: Any) -> GradSample:
        gx, gy = self.grad_with_sample_batch(*self._one(point), [sample])
        return GradSample(gx[0], gy[0])

    def closed_phi(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(phi(x), y*(x)) at one x (m,)."""
        if self.closed_phi_batch is None:
            raise CapabilityError(f"{self.name}: no closed-form inner maximum")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.m,):
            raise DimensionError(f"{self.name}: x has shape {x.shape}, expected ({self.m},)")
        phi, y_star = self.closed_phi_batch(x[None])
        return float(phi[0]), y_star[0]

    def dist_to_opt(self, point: JointPoint) -> float:
        """Distance of one point to the problem's optimum."""
        if self.dist_to_opt_batch is None:
            raise CapabilityError(f"{self.name}: no known optimum")
        return float(self.dist_to_opt_batch(*self._one(point))[0])

    def stoch_grad(self, point: JointPoint, rng: RngStream) -> GradSample:
        """Unbiased gradient sample: one fresh draw, evaluated at point."""
        return self.grad_with_sample(point, self.draw_sample(rng))

    def check_point(self, point: JointPoint) -> JointPoint:
        if point.m != self.m or point.n != self.n:
            raise DimensionError(
                f"{self.name}: point dims ({point.m},{point.n}) "
                f"do not match problem dims ({self.m},{self.n})"
            )
        return point

    def random_point(self, rng: RngStream, scale: float = 1.0) -> JointPoint:
        return JointPoint(rng.gauss(self.m, scale), rng.gauss(self.n, scale))

    def random_points(
        self, rng: RngStream, k: int, scale: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """k random points as stacks x (k, m), y (k, n); row i is the i-th
        of k random_point calls on the same stream. random_point draws
        gauss(m) then gauss(n), so the k points are one (k, m+n) block split
        per row. A subclass overriding random_point overrides this too."""
        z = rng.gauss(k * (self.m + self.n), scale).reshape(k, self.m + self.n)
        if not np.all(np.isfinite(z)):
            raise ParameterError("random_points: non-finite entries")
        return z[:, : self.m], z[:, self.m :]


@dataclass(frozen=True)
class OracleReport:
    """Per-point worst cases from check_oracle (all passing thresholds)."""

    points: int
    trials_per_point: int
    max_mean_deviation: float  # ||MC mean - exact|| in units of 4*SE (<= 1)
    max_noise_ratio: float  # E||noise||^2 / sigma^2 cap ratio (<= 1)
    max_fd_rel_err: float
    fd_threshold: float
    details: dict = field(default_factory=dict)


def require_fd_step(h: float, who: str, key: str = "h") -> None:
    """A central-difference step must be > 0 (NaN is refused too)."""
    if not h > 0:
        raise ParameterError(f"{who}: {key} must be > 0, got {h}", key=key)


def fd_rel_err(
    problem: Problem,
    point: JointPoint,
    grad: GradSample,
    coords_x,
    coords_y,
    h: float,
) -> float:
    """Max relative error of grad against central differences of value()
    at the selected coordinates of point.

    The error at coordinate i is |fd_i - g_i| / max(|g_i|, 1e-8); NaN when
    a difference is non-finite, 0.0 when no coordinate is selected. All
    2 * (coordinates) shifted points go through one value_batch call.
    """
    cx = np.asarray(coords_x, dtype=np.intp)
    cy = np.asarray(coords_y, dtype=np.intp)
    k = len(cx) + len(cy)
    x = np.tile(point.x, (2 * k, 1))
    y = np.tile(point.y, (2 * k, 1))
    # row j < k shifts coordinate j by +h, row k + j shifts it by -h
    ix, iy = np.arange(len(cx)), np.arange(len(cx), k)
    for shift, first in ((h, 0), (-h, k)):
        x[first + ix, cx] += shift
        y[first + iy, cy] += shift
    v = problem.value_batch(x, y)
    fd = (v[:k] - v[k:]) / (2 * h)
    g = np.concatenate([grad.gx[cx], grad.gy[cy]])
    rel = np.abs(fd - g) / np.maximum(np.abs(g), 1e-8)
    return float(rel.max()) if rel.size else 0.0


# draws per stacked oracle call in check_oracle: bounds the audit's memory
# at O(chunk * dim) whatever the draw budget
_AUDIT_CHUNK = 1024


def check_oracle(
    problem: Problem,
    trials: int,
    rng: RngStream,
    *,
    points: int = 10,
    point_scale: float = 1.0,
    fd_step: float = 1e-5,
    fd_threshold: float | None = None,
    fd_coords: int | None = None,
    noise_slack: float = 0.1,
) -> OracleReport:
    """Consistency audit of a problem's stochastic oracle.

    At `points` random points, verifies that
      (a) the Monte-Carlo mean of stoch_grad over trials/points draws matches
          exact_grad within 4 aggregate standard errors,
      (b) the empirical second moment of the gradient noise stays below
          sigma^2 * (1 + noise_slack) plus four standard errors of the
          second-moment estimate itself,
      (c) exact_grad matches central finite differences of value().
    Raises OracleViolation naming the failed check; returns worst-case
    margins otherwise.

    The draws go through the batched oracle the optimizers use
    (draw_samples, then grad_with_sample_batch on the probe point repeated
    per row), in chunks of _AUDIT_CHUNK. Every sampled gradient must be
    finite, and the first row at each point must equal the S = 1 view
    grad_with_sample on that sample exactly, so a row's gradient does not
    depend on the rows stacked with it. Moments are
    summed in draw order, so every reported number is the one a loop over
    single draws gives.

    trials is the total draw budget, split evenly across points. fd_coords,
    when set, limits (c) to a random coordinate subset per side, which keeps
    wide parameter spaces inside a time budget. Every argument is checked
    once, here; a refused one raises ParameterError naming it (key).
    """
    for key, got, ok, want in (
        ("trials", trials, trials >= 100, ">= 100"),
        ("points", points, points >= 1, ">= 1"),
        ("point_scale", point_scale, 0 <= point_scale < math.inf, "finite and >= 0"),
        ("fd_threshold", fd_threshold, fd_threshold is None or fd_threshold > 0, "> 0"),
        ("fd_coords", fd_coords, fd_coords is None or fd_coords >= 1, ">= 1"),
        ("noise_slack", noise_slack, noise_slack >= 0, ">= 0"),
    ):
        if not ok:
            raise ParameterError(f"check_oracle: {key} must be {want}, got {got}", key=key)
    require_fd_step(fd_step, "check_oracle", "fd_step")
    per_point = max(trials // points, 1)
    if fd_threshold is None:
        fd_threshold = 1e-5 if problem.metadata.get("mlp_backed") else 1e-6
    sigma = problem.constants.sigma if problem.constants else 0.0

    worst_dev = 0.0
    worst_noise = 0.0
    worst_fd = 0.0
    for pt_idx in range(points):
        point = problem.random_point(rng, point_scale)
        exact = problem.exact_grad(point)
        exact_flat = np.concatenate([exact.gx, exact.gy])
        dim = exact_flat.shape[0]

        # (a)+(b): MC moments, one stacked draw per chunk; the running sums
        # enter each chunk's sum as its row 0, and axis-0 reductions and
        # cumsum add in row order
        s1 = np.zeros(dim)
        s2 = np.zeros(dim)
        q1 = 0.0
        q2 = 0.0
        for start in range(0, per_point, _AUDIT_CHUNK):
            k = min(_AUDIT_CHUNK, per_point - start)
            samples = problem.draw_samples(rng, k)
            gx, gy = problem.grad_with_sample_batch(
                np.broadcast_to(point.x, (k, problem.m)),
                np.broadcast_to(point.y, (k, problem.n)),
                samples,
            )
            flat = np.concatenate([gx, gy], axis=1)
            finite = np.isfinite(flat).all(axis=1)
            if not finite.all():
                raise OracleViolation(
                    f"{problem.name}: non-finite sampled gradient at probe point "
                    f"{pt_idx} (draw {start + int(np.argmin(finite))})"
                )
            if start == 0:
                g0 = problem.grad_with_sample(point, samples[0])
                if not (np.array_equal(g0.gx, gx[0]) and np.array_equal(g0.gy, gy[0])):
                    raise OracleViolation(
                        f"{problem.name}: batched oracle disagrees with "
                        f"grad_with_sample at probe point {pt_idx} (draw 0)"
                    )
            s1 = np.add.reduce(np.concatenate([s1[None], flat]), axis=0)
            s2 = np.add.reduce(np.concatenate([s2[None], flat * flat]), axis=0)
            d = flat - exact_flat
            ns = row_dot(d, d)
            q1 = float(np.cumsum(np.concatenate([[q1], ns]))[-1])
            q2 = float(np.cumsum(np.concatenate([[q2], ns * ns]))[-1])
        mean = s1 / per_point
        var = np.maximum(s2 / per_point - mean * mean, 0.0)

        err = float(np.linalg.norm(mean - exact_flat))
        se_agg = float(np.sqrt(var.sum() / per_point))
        allowed = 4.0 * se_agg + 1e-12 * (1.0 + float(np.linalg.norm(exact_flat)))
        if err > allowed:
            raise OracleViolation(
                f"{problem.name}: unbiasedness check failed at probe point "
                f"{pt_idx}: ||MC mean - exact|| = {err:.3e} > 4*SE = {allowed:.3e} "
                f"({per_point} draws)"
            )
        worst_dev = max(worst_dev, err / allowed)

        noise_sq = q1 / per_point
        se_noise = math.sqrt(max(q2 / per_point - noise_sq * noise_sq, 0.0) / per_point)
        cap = sigma * sigma * (1.0 + noise_slack) + 4.0 * se_noise + 1e-12
        if noise_sq > cap:
            raise OracleViolation(
                f"{problem.name}: noise-bound check failed at probe point {pt_idx}: "
                f"E||noise||^2 = {noise_sq:.3e} > sigma^2*(1+{noise_slack}) + 4*SE "
                f"= {cap:.3e}"
            )
        worst_noise = max(worst_noise, noise_sq / cap)

        # (c) finite differences, possibly on a coordinate subset
        if fd_coords is None or fd_coords >= problem.m:
            coords_x = np.arange(problem.m)
        else:
            coords_x = rng.integers(0, problem.m, size=fd_coords)
        if fd_coords is None or fd_coords >= problem.n:
            coords_y = np.arange(problem.n)
        else:
            coords_y = rng.integers(0, problem.n, size=fd_coords)
        fd_err = fd_rel_err(problem, point, exact, coords_x, coords_y, fd_step)
        if not fd_err <= fd_threshold:
            raise OracleViolation(
                f"{problem.name}: finite-difference check failed at probe point "
                f"{pt_idx}: max relative error {fd_err:.3e} > {fd_threshold:.1e}"
            )
        worst_fd = max(worst_fd, fd_err)

    return OracleReport(
        points=points,
        trials_per_point=per_point,
        max_mean_deviation=worst_dev,
        max_noise_ratio=worst_noise,
        max_fd_rel_err=worst_fd,
        fd_threshold=fd_threshold,
    )


def require_phi(problem: Problem) -> None:
    """Guard for diagnostics that need the inner maximum to exist."""
    if not problem.pl_condition:
        raise CapabilityError(
            f"{problem.name}: inner maximization has no curvature certificate; "
            "phi-based diagnostics are not defined for it"
        )
