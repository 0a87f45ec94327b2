"""Step-size plans, feasibility constraints, and update-probability selection.

The stochastic single-sample alternating method (see optimizers.rsgda_step)
has a convergence certificate under

    alpha_k <= 1/(2*l2),
    18 * kappa^2 * (p/(1-p)) * alpha_k <= eta_k <= 1/l1,

with l2 = l1*(1 + kappa/2) and kappa = l1/mu. The eta window is nonempty for
every alpha <= 1/(2*l2) exactly when p <= l2/(9*l1*kappa^2 + l2); that
boundary value is also the variance-free optimal update probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import ConstraintError, ParameterError
from .problems import ProblemConstants


@dataclass(frozen=True)
class StepConstraints:
    """Feasible step-size region for a given problem and fixed p."""

    alpha_max: float
    eta_hi: float
    p: float
    kappa: float
    p_max: float  # p_max(constants): the boundary p of the feasible region

    def eta_lo(self, alpha: float) -> float:
        if self.p >= 1.0:
            return 0.0  # no ascent steps are taken at p = 1
        lo = 18.0 * self.kappa**2 * (self.p / (1.0 - self.p)) * alpha
        if self.p <= self.p_max and alpha <= self.alpha_max:
            # lo <= eta_hi holds exactly here; rounding can leave the
            # product an ulp above it at the boundary p = p_max
            return min(lo, self.eta_hi)
        return lo

    @property
    def feasible(self) -> bool:
        """True when some (alpha, eta) with alpha = alpha_max satisfies both
        eta bounds (smaller alpha only widens the window): exactly when
        p <= p_max, or at p = 1, where no ascent steps are taken."""
        return self.p >= 1.0 or self.p <= self.p_max

    def check(self, alpha: float, eta: float) -> list[str]:
        """List of violated bounds (empty when the pair is admissible)."""
        bad = []
        if not (0 < alpha <= self.alpha_max):
            bad.append(f"alpha={alpha} outside (0, 1/(2*l2)={self.alpha_max}]")
        lo = self.eta_lo(alpha)
        if eta < lo:
            bad.append(f"eta={eta} < 18*kappa^2*(p/(1-p))*alpha = {lo}")
        if eta > self.eta_hi:
            bad.append(f"eta={eta} > 1/l1 = {self.eta_hi}")
        return bad


def p_max(constants: ProblemConstants) -> float:
    """Largest p keeping the eta window nonempty at alpha = 1/(2*l2)."""
    l2 = constants.l2
    return l2 / (9.0 * constants.l1 * constants.kappa**2 + l2)


def step_constraints(constants: ProblemConstants, p: float) -> StepConstraints:
    if not (0 < p <= 1):
        raise ParameterError(f"step_constraints: p must lie in (0, 1], got {p}", key="p")
    return StepConstraints(
        alpha_max=1.0 / (2.0 * constants.l2),
        eta_hi=1.0 / constants.l1,
        p=p,
        kappa=constants.kappa,
        p_max=p_max(constants),
    )


@dataclass(frozen=True)
class AdaPSchedule:
    """Update probability that decays as 1/j after a warmup.

    p(n) = p0 for n < n1; afterwards q = 1/(floor((n - n1)/n2) + 1), clamped
    to min(p0, q) unless clamp_to_p0 is disabled.
    """

    p0: float
    n1: int
    n2: int
    clamp_to_p0: bool = True

    def __post_init__(self):
        if not (0 < self.p0 <= 1):
            raise ParameterError(f"AdaPSchedule: p0 must lie in (0, 1], got {self.p0}")
        if self.n1 < 0 or self.n2 < 1:
            raise ParameterError("AdaPSchedule: need n1 >= 0 and n2 >= 1")

    def __call__(self, n: int) -> float:
        return adaptive_p(self, n)


def adaptive_p(sched: AdaPSchedule, n: int) -> float:
    if n < 0:
        raise ParameterError(f"adaptive_p: n must be >= 0, got {n}")
    if n < sched.n1:
        return sched.p0
    q = 1.0 / (math.floor((n - sched.n1) / sched.n2) + 1.0)
    return min(sched.p0, q) if sched.clamp_to_p0 else q


@dataclass(frozen=True)
class StepPlan:
    """Per-iteration step sizes and update probability.

    alpha/eta/p map the iteration index k >= 0 to the values used by that
    step. kind is a short tag for summaries and config hashing.
    """

    alpha: Callable[[int], float]
    eta: Callable[[int], float]
    p: Callable[[int], float]
    kind: str = "custom"


def constant_plan(alpha: float, eta: float, p: float | AdaPSchedule = 0.5) -> StepPlan:
    for key, val in (("alpha", alpha), ("eta", eta)):
        if val <= 0:
            raise ParameterError(f"constant_plan: {key} must be > 0, got {val}", key=key)
    p_fn = p if isinstance(p, AdaPSchedule) else _const_p(p)
    kind = "constant+ada_p" if isinstance(p, AdaPSchedule) else "constant"
    return StepPlan(lambda k: alpha, lambda k: eta, p_fn, kind=kind)


def _const_p(p: float) -> Callable[[int], float]:
    if not (0 < p <= 1):
        raise ParameterError(f"plan: p must lie in (0, 1], got {p}", key="p")
    return lambda k: p


def polynomial_schedule(
    alpha0: float,
    epsilon: float,
    *,
    constants: ProblemConstants | None = None,
    p: float | AdaPSchedule = 0.5,
    eta_ratio: float = 1.0,
) -> StepPlan:
    """Square-summable-but-not-summable decay alpha(j) = alpha0 * j^(-1/2-eps).

    alpha(0) = alpha0. With problem constants available, eta(k) is clipped
    into its admissible window [eta_lo(alpha(k)), 1/l1] around the requested
    eta_ratio * alpha(k); without constants it is just eta_ratio * alpha(k).
    epsilon must lie in (0, 1/2) so that sum(alpha^2) < inf while
    sum(alpha) = inf.
    """
    if alpha0 <= 0:
        raise ParameterError(f"polynomial_schedule: alpha0 must be > 0, got {alpha0}")
    if not (0 < epsilon < 0.5):
        raise ParameterError(
            f"polynomial_schedule: epsilon must lie in (0, 0.5), got {epsilon}"
        )
    if eta_ratio <= 0:
        raise ParameterError("polynomial_schedule: eta_ratio must be > 0")
    p_fn = p if isinstance(p, AdaPSchedule) else _const_p(p)
    expo = -(0.5 + epsilon)

    def alpha(k: int) -> float:
        return alpha0 if k == 0 else alpha0 * float(k) ** expo

    if constants is None:
        def eta(k: int) -> float:
            return eta_ratio * alpha(k)
    else:
        eta_hi = 1.0 / constants.l1
        kap2 = constants.kappa**2

        def eta(k: int) -> float:
            a = alpha(k)
            pk = p_fn(k)
            lo = 0.0 if pk >= 1.0 else 18.0 * kap2 * (pk / (1.0 - pk)) * a
            return min(eta_hi, max(lo, eta_ratio * a))

    return StepPlan(alpha, eta, p_fn, kind="polynomial")


def plan_violations(
    plan: StepPlan, constants: ProblemConstants, ks: tuple[int, ...] = (0,)
) -> list[str]:
    """Constraint violations of the plan at the sampled iteration indices."""
    bad: list[str] = []
    for k in ks:
        pk = plan.p(k)
        if not (0 < pk <= 1):
            bad.append(f"k={k}: p={pk} outside (0, 1]")
            continue
        sc = step_constraints(constants, pk)
        for msg in sc.check(plan.alpha(k), plan.eta(k)):
            bad.append(f"k={k}: {msg}")
    return bad


def require_feasible(
    plan: StepPlan, constants: ProblemConstants, ks: tuple[int, ...] = (0,)
) -> None:
    bad = plan_violations(plan, constants, ks)
    if bad:
        raise ConstraintError(
            "step plan violates convergence constraints: " + "; ".join(bad)
        )


def optimal_p(
    constants: ProblemConstants, delta: float, alpha: float, n: int
) -> float:
    """Update probability minimizing the n-step bound for initial gap delta.

    Returns min(p1, p2) with p2 = l2/(9*l1*kappa^2 + l2) and, writing
    c = alpha^2 * kappa^4 * l1 * sigma^2,

        p1 = 2*delta / (delta + sqrt(delta^2 + 648*c*n*delta)),

    algebraically equal to (sqrt(delta)*sqrt(delta + 648*c*n) - delta) /
    (324*c*n) but stable as sigma -> 0, where it tends to 1 and the minimum
    returns p2 exactly.
    """
    if delta <= 0:
        raise ParameterError(f"optimal_p: delta must be > 0, got {delta}")
    if alpha <= 0:
        raise ParameterError(f"optimal_p: alpha must be > 0, got {alpha}")
    if n < 1:
        raise ParameterError(f"optimal_p: n must be >= 1, got {n}")
    p2 = p_max(constants)
    if constants.sigma == 0.0:
        return p2
    c = alpha**2 * constants.kappa**4 * constants.l1 * constants.sigma**2
    p1 = 2.0 * delta / (delta + math.sqrt(delta * delta + 648.0 * c * n * delta))
    return min(p1, p2)
