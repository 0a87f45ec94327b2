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

    @classmethod
    def _view(cls, x: np.ndarray, y: np.ndarray) -> "JointPoint":
        """A point on the caller's 1-d float64 arrays of the right lengths,
        without the copy and the finiteness check: for loops that check
        their iterates themselves and do not write to these arrays."""
        point = object.__new__(cls)
        object.__setattr__(point, "x", x)
        object.__setattr__(point, "y", y)
        return point

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

    Subclasses must implement value, exact_grad, draw_sample and
    grad_with_sample, and may override grad_with_sample_batch with a
    vectorized form whose rows match the per-point oracle. closed_phi /
    nash_point / dist_to_opt stay None when the problem cannot support
    them. pl_condition is False for problems (bilinear coupling) whose
    inner maximization has no curvature, so phi-based diagnostics refuse
    them.
    """

    name: str = "problem"
    m: int = 0
    n: int = 0
    constants: ProblemConstants | None = None
    pl_condition: bool = True
    closed_phi = None  # overridden as a method where a closed form exists
    nash_point: JointPoint | None = None
    metadata: dict = {}

    def value(self, point: JointPoint) -> float:
        raise NotImplementedError

    def exact_grad(self, point: JointPoint) -> GradSample:
        raise NotImplementedError

    def draw_sample(self, rng: RngStream) -> Any:
        raise NotImplementedError

    def grad_with_sample(self, point: JointPoint, sample: Any) -> GradSample:
        raise NotImplementedError

    def stoch_grad(self, point: JointPoint, rng: RngStream) -> GradSample:
        """Unbiased gradient sample: one fresh draw, evaluated at point."""
        return self.grad_with_sample(point, self.draw_sample(rng))

    def grad_with_sample_batch(
        self, x: np.ndarray, y: np.ndarray, samples: list
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sampled gradients at a stack of points: row i of x (S, m) and
        y (S, n) with samples[i]. Returns (gx (S, m), gy (S, n)), each row
        bit-identical to grad_with_sample on that point alone.

        This default loops over the rows without validating them: a row
        that has diverged must not stop the loop, since the caller's
        finiteness check on the iterates reports it. A row whose gradient is
        non-finite gets NaN gradients.
        """
        gx = np.empty(x.shape)
        gy = np.empty(y.shape)
        for i, sample in enumerate(samples):
            try:
                g = self.grad_with_sample(JointPoint._view(x[i], y[i]), sample)
            except ParameterError:  # GradSample found non-finite entries
                gx[i], gy[i] = np.nan, np.nan
                continue
            gx[i], gy[i] = g.gx, g.gy
        return gx, gy

    dist_to_opt = None  # optional callable point -> float

    def check_point(self, point: JointPoint) -> JointPoint:
        if point.m != self.m or point.n != self.n:
            raise DimensionError(
                f"{self.name}: point dims ({point.m},{point.n}) "
                f"do not match problem dims ({self.m},{self.n})"
            )
        return point

    def random_point(self, rng: RngStream, scale: float = 1.0) -> JointPoint:
        return JointPoint(rng.gauss(self.m, scale), rng.gauss(self.n, scale))


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


def _fd_value_grad(problem: Problem, point: JointPoint, coords_x, coords_y, h: float):
    """Central finite differences of value() at selected coordinates."""
    fx = np.empty(len(coords_x))
    for j, i in enumerate(coords_x):
        xp = point.x.copy()
        xm = point.x.copy()
        xp[i] += h
        xm[i] -= h
        fx[j] = (
            problem.value(JointPoint(xp, point.y))
            - problem.value(JointPoint(xm, point.y))
        ) / (2 * h)
    fy = np.empty(len(coords_y))
    for j, i in enumerate(coords_y):
        yp = point.y.copy()
        ym = point.y.copy()
        yp[i] += h
        ym[i] -= h
        fy[j] = (
            problem.value(JointPoint(point.x, yp))
            - problem.value(JointPoint(point.x, ym))
        ) / (2 * h)
    return fx, fy


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

    trials is the total draw budget, split evenly across points (pre:
    trials >= 100). fd_coords, when set, limits (c) to a random coordinate
    subset per side, which keeps wide parameter spaces inside a time budget.
    """
    if trials < 100:
        raise ParameterError(f"check_oracle: trials must be >= 100, got {trials}")
    if points < 1:
        raise ParameterError("check_oracle: points must be >= 1")
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

        # (a)+(b): accumulate MC moments without storing draws
        s1 = np.zeros(dim)
        s2 = np.zeros(dim)
        q1 = 0.0
        q2 = 0.0
        for _ in range(per_point):
            g = problem.grad_with_sample(point, problem.draw_sample(rng))
            flat = np.concatenate([g.gx, g.gy])
            s1 += flat
            s2 += flat * flat
            d = flat - exact_flat
            ns = float(d @ d)
            q1 += ns
            q2 += ns * ns
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
        fdx, fdy = _fd_value_grad(problem, point, coords_x, coords_y, fd_step)
        gx, gy = exact.gx[coords_x], exact.gy[coords_y]
        denom = np.maximum(np.abs(np.concatenate([gx, gy])), 1e-8)
        rel = np.abs(np.concatenate([fdx, fdy]) - np.concatenate([gx, gy])) / denom
        fd_err = float(rel.max()) if rel.size else 0.0
        if fd_err > fd_threshold:
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
