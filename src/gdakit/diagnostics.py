"""Convergence diagnostics turning the library's guarantees into checks.

Central quantities, for a problem with constants (l1, mu, sigma), kappa =
l1/mu, and inner maximum phi(x) = max_y F(x, y):

  efficiency metric   h(x,y) = (1/4)|grad phi(x)|^2
                             + (1/20) kappa^2 |grad_y F(x,y)|^2
                             + (11/40)|grad_x F(x,y)|^2
  merit function      V(x,y) = phi(x) + C (phi(x) - F(x,y)),  C = 1/10

One randomized alternating step from (x, y) moves to (x - alpha*grad_x F, y)
with probability p and to (x, y + eta*grad_y F) with probability 1-p. Its
exact one-step conditional expectation over the branch coin is a two-point
average, which converts in-expectation statements into deterministic,
per-point assertions:

  contraction_check   E|next - u*|^2 <= rho |u - u*|^2 on strongly
                      convex-concave problems, rho = 1 - 2 p mu alpha
                      + alpha^2 (1-p) l1^2 (valid at p = 1/2 for any
                      admissible alpha; see the check's docstring)
  descent_check       V - E[V_next] >= p * alpha * h at sigma = 0 under the
                      step constraints from gdakit.schedules
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    CapabilityError,
    ConstraintError,
    GdakitError,
    InsufficientDataError,
    ParameterError,
    row_dot,
)
from .problems import JointPoint, Problem, ProblemConstants, fd_rel_err, require_phi
from .schedules import step_constraints

LYAPUNOV_C = 0.1
H_WEIGHTS = (0.25, 1.0 / 20.0, 11.0 / 40.0)


class CertificateViolation(GdakitError):
    """A per-point theorem check failed; message carries both sides."""


@dataclass(frozen=True)
class TraceRecord:
    """One logged optimizer step; optional fields stay None when disabled.

    The field order is the trace CSV's column order, and the fields with a
    None default are the logged metrics (METRIC_KEYS)."""

    k: int
    branch: str  # 'x', 'y', or 'both'
    alpha: float
    eta: float
    p: float
    grad_x_norm: float | None = None
    grad_y_norm: float | None = None
    h: float | None = None
    v: float | None = field(default=None, metadata={"column": "V"})
    dist: float | None = None
    loss: float | None = None


METRIC_KEYS = tuple(f.name for f in fields(TraceRecord) if f.default is None)


def inner_ascent(
    problem: Problem, x: np.ndarray, y: np.ndarray, tol: float, max_iters: int
) -> tuple[np.ndarray, bool, int]:
    """Exact gradient ascent in y from (x, y) with step 1/l1 until the inner
    gap max_y F(x, .) - F(x, y) is certified <= tol; returns (y, certified,
    ascent steps).

    The certificate is phi(x) - F(x, y) when a closed phi exists (phi is
    computed once), else |grad_y F|^2 / (2 mu), which bounds the gap under
    gradient domination and comes from the gradient the step uses. The
    iterate reached at the budget is checked too; certified=False flags
    budget exhaustion.
    """
    step = 1.0 / problem.constants.l1
    two_mu = 2.0 * problem.constants.mu
    phi = None if problem.closed_phi is None else problem.closed_phi(x)[0]
    steps = 0
    while True:
        point = JointPoint(x, y)
        if phi is None:
            gy = problem.exact_grad(point).gy
            gap = float(gy @ gy) / two_mu
        else:
            gap = phi - problem.value(point)
        if gap <= tol:
            return y, True, steps
        if steps >= max_iters:
            return y, False, steps
        if phi is not None:
            gy = problem.exact_grad(point).gy
        y = y + step * gy
        steps += 1


@dataclass(frozen=True)
class PhiEstimate:
    phi: float
    y_hat: np.ndarray
    converged: bool
    iters: int


def phi_inner(
    problem: Problem,
    x: np.ndarray,
    y0: np.ndarray,
    tol: float,
    max_iters: int = 10_000,
) -> PhiEstimate:
    """Estimate phi(x) as F(x, y_hat) at the end point y_hat of
    inner_ascent from y0. converged=False flags budget exhaustion (the
    estimate is then a lower bound of uncertified accuracy)."""
    require_phi(problem)
    if tol <= 0:
        raise ParameterError(f"phi_inner: tol must be > 0, got {tol}")
    y0 = np.array(y0, dtype=np.float64)
    y, converged, iters = inner_ascent(problem, x, y0, tol, max_iters)
    return PhiEstimate(problem.value(JointPoint(x, y)), y, converged, iters)


def phi_rows(
    problem: Problem,
    x: np.ndarray,
    y: np.ndarray,
    inner_tol: float | None,
    inner_budget: int,
    f: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(phi (S,), y*(x) (S, n)) at each row of x (S, m), y (S, n): one
    closed_phi_batch call, or else a certified inner ascent per row from
    that row's y. The ascent's default tolerance is relative,
    1e-8 * max(1, |F(x, y)|), which keeps the certificate meaningful across
    scales; f, when given, holds the rows' values F(x, y) for it."""
    require_phi(problem)
    if problem.closed_phi is not None:
        return problem.closed_phi_batch(x)
    if inner_tol is None and f is None:
        f = problem.value_batch(x, y)
    ests = [
        phi_inner(
            problem,
            x[i],
            y[i],
            1e-8 * max(1.0, abs(float(f[i]))) if inner_tol is None else inner_tol,
            inner_budget,
        )
        for i in range(len(x))
    ]
    return np.array([e.phi for e in ests]), np.stack([e.y_hat for e in ests])


def h_rows(
    constants: ProblemConstants, gx: np.ndarray, gy: np.ndarray, g_star: np.ndarray
) -> np.ndarray:
    """h per row from the exact gradient (gx, gy) at each point and
    g_star = grad_x F(x, y*(x)), all stacked by row; see the module
    docstring for the weights."""
    w_phi, w_gy, w_gx = H_WEIGHTS
    return (
        w_phi * row_dot(g_star, g_star)
        + w_gy * constants.kappa**2 * row_dot(gy, gy)
        + w_gx * row_dot(gx, gx)
    )


def merit_rows(phi: np.ndarray, f: np.ndarray, c: float) -> np.ndarray:
    """V = phi + c (phi - F) per row."""
    return phi + c * (phi - f)


def h_metric(
    problem: Problem,
    point: JointPoint,
    *,
    inner_tol: float | None = None,
    inner_budget: int = 10_000,
) -> float:
    """Efficiency metric h(x, y); see module docstring for the weights.

    grad phi(x) is evaluated as grad_x F(x, y*(x)) at the closed-form or
    ascent-certified inner maximizer. This is the one-point use of the
    stacked formula h_rows.
    """
    problem.check_point(point)
    x, y = point.x[None], point.y[None]
    _, y_star = phi_rows(problem, x, y, inner_tol, inner_budget)
    gx, gy = problem.exact_grad_batch(x, y)
    g_star = problem.exact_grad_batch(x, y_star)[0]
    return float(h_rows(problem.constants, gx, gy, g_star)[0])


def lyapunov(
    problem: Problem,
    point: JointPoint,
    c: float = LYAPUNOV_C,
    *,
    inner_tol: float | None = None,
    inner_budget: int = 10_000,
) -> float:
    """Merit value V(x,y) = phi(x) + c*(phi(x) - F(x,y)); the one-point use
    of the stacked formula merit_rows."""
    if c < 0:
        raise ParameterError(f"lyapunov: c must be >= 0, got {c}")
    problem.check_point(point)
    x, y = point.x[None], point.y[None]
    f = problem.value_batch(x, y)
    phi, _ = phi_rows(problem, x, y, inner_tol, inner_budget, f)
    return float(merit_rows(phi, f, c)[0])


class ContractionReport(NamedTuple):
    measured_ratio: float
    rho: float


def contraction_alpha_cap(constants: ProblemConstants, p: float) -> float:
    """Upper end 2 p mu / ((1-p) l1^2) of the alpha range the contraction
    bound is proved on (open interval); infinite at p = 1."""
    if p >= 1.0:
        return math.inf
    return 2.0 * p * constants.mu / ((1.0 - p) * constants.l1**2)


def contraction_rho(constants: ProblemConstants, alpha: float, p: float) -> float:
    """rho = 1 - 2 p mu alpha + alpha^2 (1-p) l1^2."""
    return 1.0 - 2.0 * p * constants.mu * alpha + alpha**2 * (1.0 - p) * constants.l1**2


def _stacks(points) -> tuple[np.ndarray, np.ndarray]:
    """x (S, m), y (S, n) from a sequence of JointPoints or an (x, y) pair
    of stacks; S >= 1."""
    if isinstance(points, tuple) and len(points) == 2 and isinstance(points[0], np.ndarray):
        x, y = points
    else:
        x = np.array([pt.x for pt in points])
        y = np.array([pt.y for pt in points])
    if len(x) < 1:
        raise ParameterError("sweep: points must be >= 1")
    return x, y


def _two_branch_ratios(problem: Problem, x: np.ndarray, y: np.ndarray, alpha: float, p: float):
    """Two-branch expected squared distance to the Nash point over the
    current one, per row of x (S, m), y (S, n)."""
    u_star = problem.nash_point.joined()
    d = np.concatenate([x, y], axis=1) - u_star
    base = row_dot(d, d)
    if not base.all():
        raise ParameterError(
            "contraction_check: point coincides with the Nash point "
            f"(point {int(np.argmin(base != 0.0))})"
        )
    gx, gy = problem.exact_grad_batch(x, y)
    dx = np.concatenate([x - alpha * gx, y], axis=1) - u_star
    dy = np.concatenate([x, y + alpha * gy], axis=1) - u_star
    return (p * row_dot(dx, dx) + (1.0 - p) * row_dot(dy, dy)) / base


def contraction_check(
    problem: Problem, point: JointPoint, alpha: float, p: float
) -> ContractionReport:
    """Exact two-branch contraction test at one point of an SCSC problem.

    measured = [p |(x - a gx, y) - u*|^2 + (1-p) |(x, y + a gy) - u*|^2]
               / |(x,y) - u*|^2 must not exceed rho = 1 - 2 p mu alpha
               + alpha^2 (1-p) l1^2 (tolerance 1e-12).

    Preconditions: the problem exposes its Nash point and alpha <
    2 p mu / ((1-p) l1^2). The rho formula is provable pointwise at p = 1/2
    (and for uncoupled problems at any p <= 1/2); away from that regime
    coupled instances admit genuine violations at small alpha, which this
    check will faithfully report as CertificateViolation. This is the
    one-point use of contraction_sweep's arithmetic.
    """
    if problem.nash_point is None:
        raise CapabilityError(f"{problem.name}: no Nash point exposed")
    if not (0 < p <= 1):
        raise ParameterError(f"contraction_check: p must lie in (0, 1], got {p}")
    c = problem.constants
    if p < 1.0:
        alpha_bound = contraction_alpha_cap(c, p)
        if not (0 < alpha < alpha_bound):
            raise ConstraintError(
                f"contraction_check: alpha={alpha} outside (0, "
                f"2*p*mu/((1-p)*l1^2) = {alpha_bound})"
            )
    elif alpha <= 0:
        raise ParameterError("contraction_check: alpha must be > 0")
    problem.check_point(point)
    measured = float(_two_branch_ratios(problem, point.x[None], point.y[None], alpha, p)[0])
    rho = contraction_rho(c, alpha, p)
    if measured > rho + 1e-12:
        raise CertificateViolation(
            f"contraction_check: measured ratio {measured!r} exceeds "
            f"rho {rho!r} + 1e-12 (alpha={alpha}, p={p})"
        )
    return ContractionReport(measured, rho)


@dataclass(frozen=True)
class SweepReport:
    count: int
    worst_margin: float  # max over points of measured - rho (or -residual)
    worst_index: int


def _worst(margins: np.ndarray) -> SweepReport:
    """The largest margin and its first index, failing closed: a
    non-finite margin is the worst one, the first such index reported."""
    bad = ~np.isfinite(margins)
    i = int(np.argmax(bad)) if bad.any() else int(np.argmax(margins))
    return SweepReport(count=len(margins), worst_margin=float(margins[i]), worst_index=i)


def contraction_sweep(problem: Problem, points, alpha: float, p: float) -> SweepReport:
    """Non-raising bulk version of contraction_check over a sequence of
    JointPoints or an (x (S, m), y (S, n)) pair of stacks; returns the worst
    measured-minus-rho margin (negative means all pass). One batched exact
    gradient covers every point. A non-finite margin (overflow at huge
    points) is reported as the worst, so the sweep cannot pass on it."""
    if problem.nash_point is None:
        raise CapabilityError(f"{problem.name}: no Nash point exposed")
    x, y = _stacks(points)
    with np.errstate(over="ignore", invalid="ignore"):
        margins = _two_branch_ratios(problem, x, y, alpha, p) - contraction_rho(
            problem.constants, alpha, p
        )
    return _worst(margins)


@dataclass(frozen=True)
class DescentReport:
    lhs: float  # V(x,y) - E[V after one randomized step]
    rhs: float  # p * alpha * h(x,y)
    residual: float  # lhs - rhs; >= 0 up to roundoff when constraints hold


def _descent_terms(problem, x, y, alpha, eta, p, c):
    """(lhs, rhs) of the descent inequality per row of x (S, m), y (S, n),
    from the stacked h and V formulas on a closed phi."""
    gx, gy = problem.exact_grad_batch(x, y)
    phi, y_star = problem.closed_phi_batch(x)
    v_here = merit_rows(phi, problem.value_batch(x, y), c)
    x_step = x - alpha * gx
    phi_x, _ = problem.closed_phi_batch(x_step)
    v_x = merit_rows(phi_x, problem.value_batch(x_step, y), c)
    v_y = merit_rows(phi, problem.value_batch(x, y + eta * gy), c)
    lhs = v_here - (p * v_x + (1.0 - p) * v_y)
    h = h_rows(problem.constants, gx, gy, problem.exact_grad_batch(x, y_star)[0])
    return lhs, p * alpha * h


def _descent_ready(problem: Problem, alpha: float, eta: float, p: float) -> None:
    if problem.closed_phi is None:
        raise CapabilityError(
            f"{problem.name}: descent_check needs a closed-form inner maximum"
        )
    bad = step_constraints(problem.constants, p).check(alpha, eta)
    if bad:
        raise ConstraintError("descent_check: " + "; ".join(bad))


def descent_check(
    problem: Problem,
    point: JointPoint,
    alpha: float,
    eta: float,
    p: float,
    c: float = LYAPUNOV_C,
) -> DescentReport:
    """One-step merit decrease against p*alpha*h at a single point.

    Exact gradients, no noise term: the expected next merit value is the
    exact two-point average over the branch coin. Requires closed-form phi
    and refuses step sizes that violate the feasibility constraints (the
    inequality is only a theorem inside them). This is the one-point use of
    descent_sweep's arithmetic.
    """
    problem.check_point(point)
    _descent_ready(problem, alpha, eta, p)
    lhs, rhs = _descent_terms(problem, point.x[None], point.y[None], alpha, eta, p, c)
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return DescentReport(lhs=lhs, rhs=rhs, residual=lhs - rhs)


def descent_sweep(
    problem: Problem,
    points,
    alpha: float,
    eta: float,
    p: float,
    c: float = LYAPUNOV_C,
) -> SweepReport:
    """Non-raising bulk version of descent_check over a sequence of
    JointPoints or an (x (S, m), y (S, n)) pair of stacks. The step sizes
    are validated once; worst_margin is the largest -residual (so
    -worst_margin is the smallest residual), a non-finite residual counting
    as the worst."""
    _descent_ready(problem, alpha, eta, p)
    x, y = _stacks(points)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs = _descent_terms(problem, x, y, alpha, eta, p, c)
        return _worst(-(lhs - rhs))


def fd_gradient_check(
    problem: Problem,
    point: JointPoint,
    h: float = 1e-5,
    *,
    coords_x: Sequence[int] | None = None,
    coords_y: Sequence[int] | None = None,
) -> float:
    """Max relative error of exact_grad vs central differences of value().

    Relative error uses denominator max(|g_i|, 1e-8) per coordinate. Pass
    coordinate subsets to keep wide MLP parameter spaces cheap.
    """
    if h <= 0:
        raise ParameterError(f"fd_gradient_check: h must be > 0, got {h}")
    problem.check_point(point)
    cx = range(problem.m) if coords_x is None else coords_x
    cy = range(problem.n) if coords_y is None else coords_y
    return fd_rel_err(problem, point, problem.exact_grad(point), cx, cy, h)


@dataclass(frozen=True)
class RateSummary:
    exponent: float
    n_points: int
    final_min_h: float
    meets_rate_target: bool | None  # exponent <= -0.8; only judged at sigma=0


def rate_summary(trace: Sequence[TraceRecord], sigma: float | None = None) -> RateSummary:
    """Decay exponent of the running-min of h against the iteration index.

    Least-squares slope of log(running min h) vs log(k) over logged records
    with k >= 1 and h present. An exact-gradient run of the randomized
    alternating method should show exponent <= -0.8 (the 1/k envelope with
    fitting headroom); that judgment is only meaningful without gradient
    noise, so meets_rate_target is None unless sigma == 0 is passed.
    """
    ks, hs = [], []
    for rec in trace:
        if rec.h is not None and rec.k >= 1:
            ks.append(rec.k)
            hs.append(rec.h)
    if len(hs) < 10:
        raise InsufficientDataError(
            f"rate_summary: need >= 10 logged h values with k >= 1, got {len(hs)}"
        )
    run_min = np.minimum.accumulate(np.asarray(hs, dtype=np.float64))
    run_min = np.maximum(run_min, 1e-300)  # guard log of an exact zero
    slope = float(np.polyfit(np.log(ks), np.log(run_min), 1)[0])
    meets = (slope <= -0.8) if sigma == 0 else None
    return RateSummary(
        exponent=slope,
        n_points=len(hs),
        final_min_h=float(run_min[-1]),
        meets_rate_target=meets,
    )
