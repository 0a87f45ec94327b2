"""Stochastic alternating first-order methods for minimax problems.

All methods sample unbiased gradients and alternate ascent in y with descent
in x; they differ in how much inner ascent buys each descent step:

  sgda_step    one ascent step, then one descent step at the updated y
               (two fresh samples per step; a strict mode reuses the first
               sample at the new point instead)
  sgdmax_step  ascend y until the inner gap is certified below delta, then
               one stochastic descent step
  esgda_step   m chained stochastic ascent steps, then one descent step
  rsgda_step   one sample and one coin: descent step with probability p,
               ascent step otherwise (single gradient evaluation per step)

Counters track gradient evaluations so runs can be compared at equal oracle
cost: sgda costs 2 per step, esgda m+1, rsgda 1, sgdmax inner+1.

Each kind's dataclass owns one batched step that advances S independent
chains held as (S, m)/(S, n) arrays; run_chains drives it, and run and the
*_step functions are its single-chain uses. Every update asks the oracle
only for the gradient block it applies (need="x" for a descent step, "y"
for an ascent step); an rsgda step whose chains' coins disagree is the one
that asks for both.

A run's logged rows are columns (diagnostics.TraceColumns) from the stacked
metric pass to the trace writer.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, NamedTuple, Union

import numpy as np

from .core import DivergenceError, ParameterError, RngStream, row_dot
from .diagnostics import (
    LYAPUNOV_C,
    METRIC_KEYS,
    TraceColumns,
    h_rows,
    inner_ascent,
    merit_rows,
    phi_rows,
)

# the one-point metrics stay bound here by name: bench/tracer.py wraps
# optimizers.h_metric and optimizers.lyapunov
from .diagnostics import h_metric, lyapunov  # noqa: F401
from .problems import JointPoint, Problem
from .schedules import StepPlan, require_feasible


class ChainStep(NamedTuple):
    """One step of S chains: the new (S, m)/(S, n) iterates, each chain's x-
    and y-update counts (an int shared by every chain, or an (S,) array),
    the branch the chains took, and (chain index, message) warnings.
    Every block update costs one gradient evaluation, so a chain's
    evaluations are its x plus y updates. branch is a label every chain
    shares, or an (S,) bool array that is True where a chain updated x;
    label(i) is chain i's label, made only for the rows that are used.

    A step returns a block no chain updated as the very array it was given
    (run_chains then skips its finiteness check), and no step writes into
    its x or y in place: run_chains buffers the ChainSteps of logged steps,
    so the arrays of one step are still read after the next one."""

    x: np.ndarray
    y: np.ndarray
    x_steps: int | np.ndarray
    y_steps: int | np.ndarray
    branch: str | np.ndarray
    warnings: tuple[tuple[int, str], ...] = ()

    def label(self, i: int) -> str:
        if isinstance(self.branch, str):
            return self.branch
        return "x" if self.branch[i] else "y"


@dataclass(frozen=True)
class Sgda:
    """Unless strict_sample_reuse is set, the descent step draws a fresh
    sample at (x_k, y_{k+1}); strict mode reuses the ascent sample there."""

    strict_sample_reuse: bool = False
    tag: ClassVar[str] = "sgda"
    evals_per_step: ClassVar[int] = 2
    randomized: ClassVar[bool] = False

    def step(self, problem, x, y, rngs, alpha, eta, p, k) -> ChainStep:
        """Ascent at (x, y), then descent at (x, y_new)."""
        samples = problem.draw_rows(rngs)
        y_new = y + eta * problem.grad_with_sample_batch(x, y, samples, "y")[1]
        if not self.strict_sample_reuse:
            samples = problem.draw_rows(rngs)
        x_new = x - alpha * problem.grad_with_sample_batch(x, y_new, samples, "x")[0]
        return ChainStep(x_new, y_new, 1, 1, "both")


@dataclass(frozen=True)
class SgdMax:
    delta: float = 1e-6
    inner_max_iters: int = 1000
    tag: ClassVar[str] = "sgdmax"
    evals_per_step: ClassVar[int | None] = None  # inner ascent length varies
    randomized: ClassVar[bool] = False

    def __post_init__(self):
        if self.delta <= 0:
            raise ParameterError(f"SgdMax: delta must be > 0, got {self.delta}")
        if self.inner_max_iters < 1:
            raise ParameterError("SgdMax: inner_max_iters must be >= 1")

    def step(self, problem, x, y, rngs, alpha, eta, p, k) -> ChainStep:
        """One stacked certified inner ascent (diagnostics.inner_ascent),
        each chain stopping after its own number of steps, then one
        stochastic descent step for all."""
        y_new, certified, inner = inner_ascent(problem, x, y, self.delta, self.inner_max_iters)
        gx = problem.grad_with_sample_batch(x, y_new, problem.draw_rows(rngs), "x")[0]
        msg = f"sgdmax: inner budget {self.inner_max_iters} exhausted at k={k}"
        warn = tuple((i, msg) for i in np.flatnonzero(~certified).tolist())
        return ChainStep(x - alpha * gx, y_new, 1, inner, "both", warn)


@dataclass(frozen=True)
class Esgda:
    m: int = 1
    tag: ClassVar[str] = "esgda"
    randomized: ClassVar[bool] = False

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError(f"Esgda: m must be >= 1, got {self.m}")

    @property
    def evals_per_step(self) -> int:
        return self.m + 1

    def step(self, problem, x, y, rngs, alpha, eta, p, k) -> ChainStep:
        """m chained stochastic ascent steps, then one descent step; every
        update draws a fresh sample."""
        for _ in range(self.m):
            y = y + eta * problem.grad_with_sample_batch(x, y, problem.draw_rows(rngs), "y")[1]
        gx = problem.grad_with_sample_batch(x, y, problem.draw_rows(rngs), "x")[0]
        return ChainStep(x - alpha * gx, y, 1, self.m, "both")


@dataclass(frozen=True)
class Rsgda:
    """The randomized single-sample method. It is the only kind whose plan
    carries a convergence certificate (validated by run_chains) and whose
    steps use, and log, the plan's update probability p."""

    tag: ClassVar[str] = "rsgda"
    evals_per_step: ClassVar[int] = 1
    randomized: ClassVar[bool] = True

    def step(self, problem, x, y, rngs, alpha, eta, p, k) -> ChainStep:
        """Each chain draws its sample before its coin, so its stream use
        does not depend on the branch. When every coin agrees (always at
        S = 1), one block is computed and the other returned as it came;
        otherwise both are, and each row keeps its branch's update."""
        if not (0 < p <= 1):
            raise ParameterError(f"rsgda: p must lie in (0, 1], got {p}")
        samples = problem.draw_rows(rngs)
        # the coin of RngStream.bernoulli(p), whose check p has passed above
        take_x = np.array([rng.uniform() for rng in rngs]) < p
        n_x = np.count_nonzero(take_x)
        if n_x == len(rngs):
            x_new = x - alpha * problem.grad_with_sample_batch(x, y, samples, "x")[0]
            y_new = y
        elif n_x == 0:
            x_new = x
            y_new = y + eta * problem.grad_with_sample_batch(x, y, samples, "y")[1]
        else:
            gx, gy = problem.grad_with_sample_batch(x, y, samples)
            col = take_x[:, None]
            x_new = np.where(col, x - alpha * gx, x)
            y_new = np.where(col, y, y + eta * gy)
        return ChainStep(x_new, y_new, take_x, ~take_x, take_x)


OptKind = Union[Sgda, SgdMax, Esgda, Rsgda]


@dataclass(frozen=True)
class OptState:
    """Iterate plus stream and oracle-cost counters; steps return new states."""

    point: JointPoint
    rng: RngStream
    k: int = 0
    x_steps: int = 0
    y_steps: int = 0
    grad_evals: int = 0
    last_branch: str = ""
    warnings: tuple[str, ...] = ()


def init_state(point: JointPoint, rng: RngStream) -> OptState:
    return OptState(point=point, rng=rng)


def _first(count: int | np.ndarray) -> int:
    """The first chain's value of a ChainStep count (a shared int or per chain)."""
    return count if isinstance(count, int) else int(count[0])


def _single_step(
    kind: OptKind, problem: Problem, state: OptState, alpha, eta, p=None
) -> OptState:
    """One step of one chain: the kind's batched step at S = 1."""
    pt = problem.check_point(state.point)
    with np.errstate(over="ignore", invalid="ignore"):
        out = kind.step(problem, pt.x[None], pt.y[None], [state.rng], alpha, eta, p, state.k)
    dx, dy = _first(out.x_steps), _first(out.y_steps)
    return replace(
        state,
        point=JointPoint(out.x[0], out.y[0]),
        k=state.k + 1,
        x_steps=state.x_steps + dx,
        y_steps=state.y_steps + dy,
        grad_evals=state.grad_evals + dx + dy,
        last_branch=out.label(0),
        warnings=state.warnings + tuple(msg for _, msg in out.warnings),
    )


def sgda_step(
    problem: Problem,
    state: OptState,
    alpha: float,
    eta: float,
    *,
    strict_sample_reuse: bool = False,
) -> OptState:
    """Ascent at (x, y), then descent at (x, y_new). Two gradient evaluations."""
    return _single_step(Sgda(strict_sample_reuse), problem, state, alpha, eta)


def sgdmax_step(
    problem: Problem,
    state: OptState,
    alpha: float,
    delta: float,
    inner_max_iters: int = 1000,
) -> OptState:
    """Exact ascent until the inner gap is certified <= delta
    (diagnostics.inner_ascent), then one stochastic descent step. Budget
    exhaustion sets a warning on the state instead of failing."""
    return _single_step(SgdMax(delta, inner_max_iters), problem, state, alpha, None)


def esgda_step(
    problem: Problem, state: OptState, alpha: float, eta: float, m: int
) -> OptState:
    """m chained stochastic ascent steps, then one stochastic descent step.
    Every update draws a fresh sample; m+1 gradient evaluations."""
    return _single_step(Esgda(m), problem, state, alpha, eta)


def rsgda_step(
    problem: Problem, state: OptState, alpha: float, eta: float, p: float
) -> OptState:
    """One sample, one coin: descent in x with probability p, else ascent in
    y. Single gradient evaluation; the sample is drawn before the coin so
    stream consumption does not depend on the branch."""
    return _single_step(Rsgda(), problem, state, alpha, eta, p)


@dataclass(frozen=True)
class DiagConfig:
    """What to log and how often. h and v need phi (closed form or inner
    ascent budget) and are skipped for problems without it."""

    interval: int = 1
    grad_norms: bool = True
    h: bool = False
    v: bool = False
    dist: bool = True
    loss: bool = False
    inner_tol: float | None = None
    inner_budget: int = 10_000

    def __post_init__(self):
        for key, ok, want in (
            ("interval", self.interval >= 1, ">= 1"),
            ("inner_tol", self.inner_tol is None or self.inner_tol > 0, "> 0"),
            ("inner_budget", self.inner_budget >= 0, ">= 0"),
        ):
            if not ok:
                got = getattr(self, key)
                raise ParameterError(f"DiagConfig: {key} must be {want}, got {got}", key=key)


@dataclass(frozen=True)
class RunResult:
    """One chain's run: its logged rows as columns (trace), its final
    iterate, summary and provenance."""

    trace: TraceColumns
    final: JointPoint
    summary: dict
    provenance: dict = field(default_factory=dict)


# logged rows per stacked metric pass in run_chains: bounds the buffered
# iterates at O(block * dim) whatever the run length
_LOG_BLOCK = 1024


def _trace_metrics(
    problem: Problem, x: np.ndarray, y: np.ndarray, diag: DiagConfig
) -> list[list | None]:
    """The logged metrics of the rows of x (S, m), y (S, n): one column per
    metric key, in METRIC_KEYS order, a list of S floats (None for a metric
    that is off).

    One stacked pass: each exact gradient, phi and F is computed once for
    all rows and shared between the metrics that use it, and every row
    equals h_metric, lyapunov, the norm of exact_grad and value at that
    point alone. Problems without a closed phi run one stacked certified
    inner ascent (diagnostics.phi_rows) over all rows."""
    out: dict = dict.fromkeys(METRIC_KEYS)
    can_phi = problem.pl_condition and (
        problem.closed_phi_batch is not None or diag.inner_budget > 0
    )
    want_h, want_v = diag.h and can_phi, diag.v and can_phi
    if diag.grad_norms or want_h:
        gx, gy = problem.exact_grad_batch(x, y)
    if diag.grad_norms:
        # np.linalg.norm(v) is sqrt(v.dot(v)), which row_dot matches per row
        out["grad_x_norm"] = np.sqrt(row_dot(gx, gx)).tolist()
        out["grad_y_norm"] = np.sqrt(row_dot(gy, gy)).tolist()
    f = problem.value_batch(x, y) if want_v or diag.loss else None
    if want_h or want_v:
        phi, y_star = phi_rows(problem, x, y, diag.inner_tol, diag.inner_budget, f)
    if want_h:
        g_star = problem.exact_grad_batch(x, y_star, "x")[0]
        out["h"] = h_rows(problem.constants, gx, gy, g_star).tolist()
    if want_v:
        out["v"] = merit_rows(phi, f, LYAPUNOV_C).tolist()
    if diag.dist and problem.dist_to_opt_batch is not None:
        out["dist"] = problem.dist_to_opt_batch(x, y).tolist()
    if diag.loss:
        out["loss"] = f.tolist()
    return [out[key] for key in METRIC_KEYS]


def _flush(problem: Problem, diag: DiagConfig, pending: list, traces: list) -> None:
    """Compute the metrics of every buffered logged step in one stacked
    pass over their rows, extend each chain's trace columns in step order,
    and empty the buffer."""
    if not pending:
        return
    s = len(traces)
    steps, ks, *plan = zip(*pending)
    metrics = _trace_metrics(
        problem,
        np.concatenate([out.x for out in steps]),
        np.concatenate([out.y for out in steps]),
        diag,
    )
    off = [None] * len(steps)
    for i, trace in enumerate(traces):
        # the pass's rows are step-major, so chain i's rows are i, i + s, ...
        labels = [out.label(i) for out in steps]
        logged = (ks, labels, *plan, *(off if m is None else m[i::s] for m in metrics))
        for col, vals in zip(trace.columns, logged):
            col.extend(vals)
    pending.clear()


def run_chains(
    problem: Problem,
    kind: OptKind,
    plan: StepPlan,
    inits: list[JointPoint],
    iters: int,
    rngs: list[RngStream],
    diag: DiagConfig = DiagConfig(),
    *,
    waive_constraints: bool = False,
    provenances: list[dict | None] | None = None,
) -> list[RunResult]:
    """Run `kind` for `iters` steps on S independent chains, chain i from
    inits[i] with its own stream rngs[i]; one RunResult per chain.

    The chains step together as (S, m)/(S, n) arrays. Each chain draws only
    from its own stream, in the same order as the single-chain step
    functions, and each row of a batched gradient equals that point's
    gradient alone, so a chain's result does not depend on which chains run
    beside it: run_chains([a, b, c])[1] equals run(b).

    Each chain logs a trace row after every diag.interval-th step and
    always after the last one, into the columns of its RunResult.trace. A
    row carries the post-step iterate's metrics, the branch taken by the
    step that produced it, and that step's plan values, so summary
    statistics (min h, final metrics) are recomputable from the trace
    alone. The logged iterates are buffered and
    their metrics computed in one stacked pass per _LOG_BLOCK rows, after
    the last step and before a DivergenceError; each row's values equal
    h_metric, lyapunov, value and the norms of exact_grad at that point.
    For the randomized single-sample method the plan is validated against
    the step-size constraints unless waive_constraints is set; other kinds
    carry no such certificate and only need positive steps.

    Inputs are validated once, here; inside the loop the iterates are raw
    arrays with one finiteness check per step, of each block the step
    changed, and numpy overflow warnings are off (a metric that overflows
    is logged as inf). A step that leaves any chain's iterate non-finite
    raises DivergenceError naming the lowest such seed, the step k, its
    branch and plan values, and carrying the trace that seed logged
    before k.
    """
    if iters < 0:
        raise ParameterError(f"run: iters must be >= 0, got {iters}")
    provenances = [None] * len(inits) if provenances is None else provenances
    if not inits or len(rngs) != len(inits) or len(provenances) != len(inits):
        raise ParameterError(
            f"run_chains: need one stream and provenance per initial point, got "
            f"{len(inits)} points, {len(rngs)} streams, {len(provenances)} provenances"
        )
    for init in inits:
        problem.check_point(init)
    if kind.randomized and not waive_constraints and iters > 0:
        ks = tuple(sorted({0, iters // 2, iters - 1}))
        require_feasible(plan, problem.constants, ks)

    s = len(inits)
    x = np.stack([init.x for init in inits])
    y = np.stack([init.y for init in inits])
    x_steps = np.zeros(s, dtype=np.int64)
    y_steps = np.zeros(s, dtype=np.int64)
    warnings: list[list[str]] = [[] for _ in range(s)]
    traces = [TraceColumns() for _ in range(s)]
    # logged steps whose metrics are not computed yet: (ChainStep, k, alpha,
    # eta, p), flushed as one stacked pass per _LOG_BLOCK rows
    pending: list[tuple] = []
    # overflow surfaces as the non-finite iterate the check below reports,
    # or as an inf metric of a huge but finite iterate, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iters):
            alpha, eta = plan.alpha(k), plan.eta(k)
            p = plan.p(k) if kind.randomized else None
            out = kind.step(problem, x, y, rngs, alpha, eta, p, k)
            # a block the step returned as it came is finite already
            ok = (out.x is x or np.isfinite(out.x).all()) and (
                out.y is y or np.isfinite(out.y).all()
            )
            x, y = out.x, out.y
            if not ok:
                _flush(problem, diag, pending, traces)
                finite = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
                i = min(np.flatnonzero(~finite), key=lambda j: rngs[j].base_seed)
                seed = rngs[i].base_seed
                raise DivergenceError(
                    f"{kind.tag} on {problem.name}: seed {seed} diverged at step "
                    f"k={k + 1} (branch {out.label(i)}, alpha={alpha}, eta={eta}, "
                    f"p={p}): non-finite iterate",
                    seed=seed,
                    k=k + 1,
                    trace=traces[i],
                )
            x_steps += out.x_steps
            y_steps += out.y_steps
            for i, msg in out.warnings:
                warnings[i].append(msg)
            if (k + 1) % diag.interval == 0 or k + 1 == iters:
                pending.append((out, k + 1, alpha, eta, p))
                if len(pending) * s >= _LOG_BLOCK:
                    _flush(problem, diag, pending, traces)
        _flush(problem, diag, pending, traces)
        # no step logged (iters == 0): the summary reports the initial points
        initial = None if iters else _trace_metrics(problem, x, y, diag)

    results = []
    for i, trace in enumerate(traces):
        if trace:
            final_metrics = [trace[key][-1] for key in METRIC_KEYS]
        else:
            final_metrics = [None if col is None else col[i] for col in initial]
        logged_h = [h for h in trace["h"] if h is not None]
        summary = {
            "kind": kind.tag,
            "plan": plan.kind,
            "iters": iters,
            "grad_evals": int(x_steps[i] + y_steps[i]),
            "x_steps": int(x_steps[i]),
            "y_steps": int(y_steps[i]),
            "min_h": min(logged_h) if logged_h else None,
            **{f"final_{key}": v for key, v in zip(METRIC_KEYS, final_metrics)},
            "warnings": len(warnings[i]),
        }
        prov = dict(provenances[i] or {})
        prov.setdefault("base_seed", rngs[i].base_seed)
        prov.setdefault("stream_id", rngs[i].stream_id)
        results.append(RunResult(trace, JointPoint(x[i], y[i]), summary, prov))
    return results


def run(
    problem: Problem,
    kind: OptKind,
    plan: StepPlan,
    init: JointPoint,
    iters: int,
    rng: RngStream,
    diag: DiagConfig = DiagConfig(),
    *,
    waive_constraints: bool = False,
    provenance: dict | None = None,
) -> RunResult:
    """run_chains on the single chain (init, rng); see there."""
    return run_chains(
        problem,
        kind,
        plan,
        [init],
        iters,
        [rng],
        diag,
        waive_constraints=waive_constraints,
        provenances=[provenance],
    )[0]
