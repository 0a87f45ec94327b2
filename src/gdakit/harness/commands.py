"""The four harness commands: run, compare, pselect, check.

Each takes an already-loaded config dict plus an output directory, writes
its artifacts there (every file carries the canonical config hash), and
returns the summary payload it wrote. The seeds of a command step together
as one batch of chains (optimizers.run_chains), each on its own stream, so
a seed's outputs do not depend on which other seeds share the command.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from inspect import signature
from pathlib import Path

import numpy as np

from gdakit import __version__, diagnostics
from gdakit.core import DivergenceError, GdakitError, ParameterError, RngStream
from gdakit.diagnostics import LYAPUNOV_C, METRIC_KEYS, TraceColumns, contraction_alpha_cap
from gdakit.optimizers import DiagConfig, Rsgda

# bound as `run`: bench/tracer.py times the run loop by wrapping commands.run
from gdakit.optimizers import run_chains as run
from gdakit.problems import check_oracle, require_phi
from gdakit.schedules import AdaPSchedule, constant_plan, optimal_p, p_max, step_constraints
from gdakit.harness.config import (
    SERIES_SCHEMA,
    ConfigError,
    build_diag,
    build_init,
    build_optimizer,
    build_plan,
    build_problem,
    check_value,
    config_hash,
    parse_iters,
    parse_seeds,
    read_block,
)
from gdakit.harness.io import (
    write_json,
    write_params,
    write_table_csv,
    write_trace_csv,
)

DIVERGENCE_CAP = 1e12

_AGG_KEYS = (*(f"final_{m}" for m in METRIC_KEYS), "min_h", "grad_evals")


def _top_level(*keys: str) -> dict:
    """A command's top-level schema in read_block's dict form: the keys the
    command reads, each checked by its own reader, plus out_dir, which the
    CLI reads."""
    return dict.fromkeys((*keys, "out_dir"), "any")


RUN_SCHEMA = _top_level(
    "problem", "optimizer", "plan", "iters", "seeds", "diag", "waive_constraints", "init"
)
COMPARE_SCHEMA = _top_level(
    "problem", "series", "plan", "seeds", "waive_constraints", "eval_budget", "metrics",
    "checkpoints", "diag", "init",
)
PSELECT_SCHEMA = _top_level("problem", "alpha", "n_grid", "probe", "delta", "init")
CHECK_SCHEMA = _top_level("problem", "seed", "oracle", "sweeps")


@contextmanager
def _config_keys(block: str):
    """Report a ParameterError that names its argument as a ConfigError
    naming the config key block.<key> (exit 2)."""
    try:
        yield
    except ParameterError as exc:
        if exc.key is None:
            raise
        raise ConfigError(f"{block}.{exc.key}: {exc}") from exc


def _aggregate(summaries: list[dict], keys=_AGG_KEYS) -> dict:
    agg: dict = {}
    for key in keys:
        vals = [s[key] for s in summaries if s.get(key) is not None]
        if vals:
            agg[key + "_mean"] = float(np.mean(vals))
            agg[key + "_std"] = float(np.std(vals))
    return agg


def cmd_run(cfg: dict, out_dir, *, seeds_override: list[int] | None = None) -> dict:
    """Seeded runs of one optimizer on one problem; one trace per seed."""
    read_block(cfg, "config", RUN_SCHEMA)
    problem = build_problem(cfg.get("problem"))
    kind = build_optimizer(cfg.get("optimizer"))
    plan = build_plan(cfg.get("plan"), problem.constants)
    iters = parse_iters(cfg)
    seeds = parse_seeds(cfg, seeds_override)
    diag = build_diag(cfg.get("diag"))
    waive = check_value(cfg.get("waive_constraints", False), "bool", "waive_constraints")
    chash = config_hash(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        results = run(
            problem,
            kind,
            plan,
            [build_init(cfg.get("init"), problem, seed) for seed in seeds],
            iters,
            [RngStream(seed, stream_id=0) for seed in seeds],
            diag,
            waive_constraints=waive,
        )
    except DivergenceError as exc:
        # the partial trace shows how far the diverged seed got
        write_trace_csv(out_dir / f"trace_seed{exc.seed}.csv", exc.trace, config_hash=chash)
        raise

    per_seed = {}
    for seed, res in zip(seeds, results):
        trace = f"trace_seed{seed}.csv"
        write_trace_csv(out_dir / trace, res.trace, config_hash=chash)
        write_params(out_dir / f"final_x_seed{seed}.csv", res.final.x, chash)
        write_params(out_dir / f"final_y_seed{seed}.csv", res.final.y, chash)
        per_seed[str(seed)] = {**res.summary, "trace_file": trace}

    summary = {
        "command": "run",
        "config_hash": chash,
        "version": __version__,
        "problem": cfg["problem"]["name"],
        "optimizer": cfg["optimizer"]["kind"],
        "plan": plan.kind,
        "iters": iters,
        "seeds": seeds,
        "per_seed": per_seed,
        "aggregate": _aggregate([r.summary for r in results]),
    }
    write_json(out_dir / "summary.json", summary)
    return summary


def _compare_series(cfg: dict, constants):
    raw = cfg.get("series")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("'series' must be a non-empty list of optimizer entries")
    series = []
    labels = set()
    for i, entry in enumerate(raw):
        entry = read_block(entry, f"series[{i}]", SERIES_SCHEMA)
        try:
            kind = build_optimizer(entry.get("optimizer"))
            plan = build_plan(entry.get("plan", cfg.get("plan")), constants)
        except ConfigError as exc:
            raise ConfigError(f"series[{i}]: {exc}") from exc
        if kind.evals_per_step is None:
            raise ConfigError(
                "compare aligns series by cumulative gradient evaluations; "
                "sgdmax has no fixed per-step cost, so it cannot be compared "
                "this way (use separate run commands)"
            )
        label = entry.get("label", entry["optimizer"]["kind"])
        if not label or not all(ch.isalnum() or ch in "_-" for ch in label):
            raise ConfigError(
                f"series[{i}]: label must be a nonempty [A-Za-z0-9_-] string"
            )
        if label in labels:
            raise ConfigError(f"duplicate series label '{label}'")
        labels.add(label)
        series.append((label, kind, plan))
    return series


def cmd_compare(cfg: dict, out_dir, *, seeds_override: list[int] | None = None) -> dict:
    """Run several optimizers on one problem and merge their traces on a
    shared grid of cumulative gradient-evaluation counts.

    The grid step is a multiple of lcm(evals per step) over the series, so
    every checkpoint lands exactly on a post-step iterate of every series;
    the eval budget is trimmed down to a whole number of checkpoints.
    """
    read_block(cfg, "config", COMPARE_SCHEMA)
    problem = build_problem(cfg.get("problem"))
    series = _compare_series(cfg, problem.constants)
    seeds = parse_seeds(cfg, seeds_override)
    waive = check_value(cfg.get("waive_constraints", False), "bool", "waive_constraints")
    chash = config_hash(cfg)

    budget = parse_iters(cfg, key="eval_budget")
    metrics = check_value(cfg.get("metrics", ["dist"]), "list[str]", "metrics")
    if any(m not in METRIC_KEYS for m in metrics):
        raise ConfigError(f"metrics: must be a subset of {list(METRIC_KEYS)}, got {metrics}")
    if len(set(metrics)) != len(metrics):
        raise ConfigError(f"metrics: each metric may be listed once, got {metrics}")

    eps = [kind.evals_per_step for _, kind, _ in series]
    lcm = math.lcm(*eps)
    rows_target = check_value(cfg.get("checkpoints", 50), "int", "checkpoints")
    if rows_target < 1:
        raise ConfigError(f"checkpoints: must be >= 1, got {rows_target}")
    ticks = budget // lcm
    if ticks < 1:
        raise ConfigError(
            f"eval_budget={budget} is below one aligned checkpoint "
            f"(lcm of per-step costs is {lcm})"
        )
    stride = max(1, ticks // rows_target) * lcm
    budget_used = (budget // stride) * stride
    n_rows = budget_used // stride

    # metrics picks what is logged and the stride how often; of the diag
    # block only inner_tol and inner_budget apply
    diag = replace(
        build_diag(cfg.get("diag")),
        grad_norms="grad_x_norm" in metrics or "grad_y_norm" in metrics,
        h="h" in metrics,
        v="v" in metrics,
        dist="dist" in metrics,
        loss="loss" in metrics,
    )
    diag_by_series = [replace(diag, interval=stride // e) for e in eps]

    inits = [build_init(cfg.get("init"), problem, seed) for seed in seeds]
    by_series = []
    for (label, kind, plan), e, diag in zip(series, eps, diag_by_series):
        series_results = run(
            problem,
            kind,
            plan,
            inits,
            budget_used // e,
            [RngStream(seed, stream_id=0) for seed in seeds],
            diag,
            waive_constraints=waive,
            provenances=[{"base_seed": seed, "series": label} for seed in seeds],
        )
        for res in series_results:
            if res.summary["grad_evals"] != budget_used:
                raise GdakitError(
                    f"series '{label}': recorded {res.summary['grad_evals']} "
                    f"gradient evals, expected {budget_used}"
                )
            if len(res.trace) != n_rows:
                raise GdakitError(
                    f"series '{label}': {len(res.trace)} checkpoints, "
                    f"expected {n_rows}"
                )
        by_series.append(series_results)
    # per seed, its result of every series
    results = list(zip(*by_series))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["evals"]
    for label, _, _ in series:
        header.append(f"k_{label}")
        header.extend(f"{m}_{label}" for m in metrics)

    per_seed = {}
    for seed, res_list in zip(seeds, results):
        # per series, its k column and then its metric columns
        cols = [res.trace[key] for res in res_list for key in ("k", *metrics)]
        rows = [[(j + 1) * stride, *(col[j] for col in cols)] for j in range(n_rows)]
        fname = f"compare_seed{seed}.csv"
        write_table_csv(out_dir / fname, header, rows, config_hash=chash)
        per_seed[str(seed)] = {
            "table_file": fname,
            "final": {
                label: {m: res.summary[f"final_{m}"] for m in metrics}
                for (label, _, _), res in zip(series, res_list)
            },
        }

    aggregate = {}
    for i, (label, _, _) in enumerate(series):
        summaries = [res_list[i].summary for res_list in results]
        aggregate[label] = _aggregate(
            summaries, keys=tuple(f"final_{m}" for m in metrics)
        )

    summary = {
        "command": "compare",
        "config_hash": chash,
        "version": __version__,
        "problem": cfg["problem"]["name"],
        "series": [label for label, _, _ in series],
        "metrics": metrics,
        "eval_budget": budget_used,
        "checkpoint_stride": stride,
        "rows": n_rows,
        "seeds": seeds,
        "per_seed": per_seed,
        "aggregate": aggregate,
    }
    write_json(out_dir / "summary.json", summary)
    return summary


PROBE_SCHEMA = {
    "iters": "int",
    "seed": "int",
    "p": "float",
    "alpha": "float",
    "eta": "float",
    "inner_tol": "float | None",
    "inner_budget": "int",
}


def cmd_pselect(cfg: dict, out_dir) -> dict:
    """Update-probability selection for the randomized single-sample method.

    Unless delta is given, a short probe estimates the initial optimality
    gap delta as (merit value V after the first step) minus (smallest phi
    seen during the probe, a lower-bound proxy for min phi). The probe is
    one S = 1 engine run at constant steps with waived constraints, logging
    V and F, so phi = (V + c F) / (1 + c); its zero-step run gives them at
    the initial point. The optimal-p formula then maps each horizon n in
    the grid to its best constant p, and the curve is condensed into a
    warmup + 1/j staircase schedule anchored to match the curve at both
    ends of the grid.
    """
    read_block(cfg, "config", PSELECT_SCHEMA)
    problem = build_problem(cfg.get("problem"))
    c = problem.constants
    alpha = check_value(cfg.get("alpha", 1.0 / (2.0 * c.l2)), "float", "alpha")
    if alpha <= 0:
        raise ConfigError(f"alpha: must be > 0, got {alpha}")

    n_grid = check_value(cfg.get("n_grid", [10**j for j in range(2, 9)]), "list[int]", "n_grid")
    if min(n_grid) < 1 or sorted(n_grid) != n_grid:
        raise ConfigError(f"n_grid: must be ascending positive integers, got {n_grid}")

    probe = read_block(cfg.get("probe"), "probe", PROBE_SCHEMA)
    probe_info: dict | None = None
    if "delta" in cfg:
        if "probe" in cfg:
            raise ConfigError("delta and probe: set one; the probe only estimates delta")
        delta = check_value(cfg["delta"], "float", "delta")
        if delta <= 0:
            raise ConfigError(f"delta: must be > 0, got {delta}")
    else:
        probe_iters = probe.get("iters", 100)
        if probe_iters < 1:
            raise ConfigError(f"probe.iters: must be >= 1, got {probe_iters}")
        probe_seed = probe.get("seed", 0)
        p_probe = probe.get("p", p_max(c))
        alpha_probe = probe.get("alpha", alpha)
        eta_probe = probe.get("eta", 1.0 / c.l1)
        inner = {key: val for key, val in probe.items() if key.startswith("inner_")}
        with _config_keys("probe"):
            plan = constant_plan(alpha_probe, eta_probe, p_probe)
            diag = DiagConfig(grad_norms=False, dist=False, v=True, loss=True, **inner)
        if diag.inner_budget == 0 and problem.closed_phi_batch is None:
            raise ConfigError("probe.inner_budget: must be >= 1 on a problem without a closed phi")
        init = build_init(cfg.get("init"), problem, probe_seed)
        require_phi(problem)
        rngs = [RngStream(probe_seed, stream_id=0)]
        probe_run = partial(run, problem, Rsgda(), plan, [init], rngs=rngs, diag=diag,
                            waive_constraints=True)
        # a zero-step run draws nothing and logs V and F at the initial point
        start = probe_run(0)[0].summary
        try:
            trace, k = probe_run(probe_iters)[0].trace, None
        except DivergenceError as exc:
            trace, k = exc.trace, exc.k
        vs = trace["v"]
        bad = (j + 1 for j, v in enumerate(vs) if not math.isfinite(v) or v > DIVERGENCE_CAP)
        k = next(bad, k)
        if k is not None:
            why = f"V={vs[k - 1]!r}" if k <= len(vs) else "non-finite iterate"
            raise DivergenceError(
                f"pselect probe diverged at step {k}: {why} "
                f"(alpha={alpha_probe}, eta={eta_probe}, p={p_probe})",
                seed=probe_seed,
                k=k,
                trace=TraceColumns([col[: k - 1] for col in trace.columns]),
            )
        phi_min = min(
            (v + LYAPUNOV_C * f) / (1.0 + LYAPUNOV_C)
            for v, f in zip([start["final_v"], *vs], [start["final_loss"], *trace["loss"]])
        )
        delta = max(vs[0] - phi_min, 1e-12)
        probe_info = dict(
            iters=probe_iters, seed=probe_seed, alpha=alpha_probe, eta=eta_probe, p=p_probe,
            v_after_first_step=vs[0], phi_lower_bound=phi_min,
        )

    curve = [(n, optimal_p(c, delta, alpha, n)) for n in n_grid]

    p0 = curve[0][1]
    n1 = n_grid[0]
    p_last = curve[-1][1]
    j_last = max(1, round(1.0 / p_last) - 1)
    n2 = max(1, round((n_grid[-1] - n1) / j_last)) if len(n_grid) > 1 else n_grid[0]
    ada = AdaPSchedule(p0=p0, n1=n1, n2=n2)

    chash = config_hash(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table_csv(
        out_dir / "pselect_curve.csv",
        ["n", "p"],
        [[n, p] for n, p in curve],
        config_hash=chash,
    )
    summary = {
        "command": "pselect",
        "config_hash": chash,
        "version": __version__,
        "problem": cfg["problem"]["name"],
        "alpha": alpha,
        "delta": delta,
        "p_cap": p_max(c),
        "probe": probe_info,
        "curve_file": "pselect_curve.csv",
        "curve": [{"n": n, "p": p} for n, p in curve],
        "ada_schedule": {"p0": ada.p0, "n1": ada.n1, "n2": ada.n2},
    }
    write_json(out_dir / "pselect.json", summary)
    return summary


def _sweep(problem, rng, scfg, *, points, scale, sweep, what, ok) -> dict:
    """Run one certificate sweep on the config's points, drawn from rng as
    one stack; returns the sweep's check.json fields.

    Fails closed: fewer than one point, or a non-finite margin or residual,
    fails the sweep with an error naming the cause (and the first such
    point), and no non-finite number is written. The points spread with
    scale, which must be finite and > 0 (ParameterError, key "scale").
    """
    n_pts = scfg.get("points", points)
    out: dict = {"points": n_pts}
    if n_pts < 1:
        return {**out, "passed": False, "error": f"points must be >= 1, got {n_pts}"}
    scale = scfg.get("scale", scale)
    if not 0 < scale < math.inf:
        raise ParameterError(f"sweep: scale must be finite and > 0, got {scale}", key="scale")
    rep = sweep(problem.random_points(rng, n_pts, scale))
    # a descent sweep reports its smallest residual as the largest -residual
    worst = rep.worst_margin if what == "margin" else -rep.worst_margin
    if not math.isfinite(worst):
        return {
            **out,
            "passed": False,
            f"worst_{what}": None,
            "error": f"non-finite {what} at point {rep.worst_index}",
        }
    return {**out, "passed": ok(worst), f"worst_{what}": worst}


# the oracle block is check_oracle's draw budget and its keyword arguments,
# typed as annotated; a sweep block is its point set and step overrides
_ORACLE_KWARGS = signature(check_oracle).parameters.values()
ORACLE_SCHEMA = {
    "trials": "int",
    **{p.name: p.annotation for p in _ORACLE_KWARGS if p.kind is p.KEYWORD_ONLY},
}
_SWEEP = {"points": "int", "scale": "float", "p": "float", "alpha": "float"}
SWEEPS_SCHEMA = {"contraction": _SWEEP, "descent": {**_SWEEP, "eta": "float"}}


def cmd_check(cfg: dict, out_dir) -> dict:
    """Oracle and certificate audit of one problem; writes check.json.

    Always runs the stochastic-oracle consistency checks; optionally sweeps
    the two-branch contraction bound (needs a Nash point) and the one-step
    merit descent bound (needs closed-form phi) over random points. An
    argument the audit or a sweep refuses is a ConfigError naming its key
    (oracle.<key>, sweeps.<name>.<key>); a sweep step size outside the
    window its bound is proved on is a ConstraintError.
    """
    read_block(cfg, "config", CHECK_SCHEMA)
    problem = build_problem(cfg.get("problem"))
    seed = check_value(cfg.get("seed", 0), "int", "seed")
    ocfg = read_block(cfg.get("oracle"), "oracle", ORACLE_SCHEMA)
    sweeps = read_block(cfg.get("sweeps"), "sweeps", SWEEPS_SCHEMA)
    chash = config_hash(cfg)
    report: dict = {
        "command": "check",
        "config_hash": chash,
        "version": __version__,
        "problem": cfg["problem"]["name"],
        "passed": True,
    }

    rng = RngStream(seed, stream_id=5)
    try:
        with _config_keys("oracle"):
            orep = check_oracle(problem, ocfg.pop("trials", 2000), rng, **ocfg)
        report["oracle"] = {
            "passed": True,
            "points": orep.points,
            "trials_per_point": orep.trials_per_point,
            "max_mean_deviation": orep.max_mean_deviation,
            "max_noise_ratio": orep.max_noise_ratio,
            "max_fd_rel_err": orep.max_fd_rel_err,
            "fd_threshold": orep.fd_threshold,
        }
    except ConfigError:
        raise
    except GdakitError as exc:  # a finding of the audit
        report["oracle"] = {"passed": False, "error": str(exc)}
        report["passed"] = False

    if "contraction" in sweeps:
        scfg = sweeps["contraction"]
        if problem.nash_point is None:
            section = {"passed": False, "error": f"{problem.name}: no Nash point exposed"}
        else:
            p = scfg.get("p", 0.5)
            with _config_keys("sweeps.contraction"):
                alpha_cap = contraction_alpha_cap(problem.constants, p)
                alpha = scfg.get("alpha", min(0.5 * alpha_cap, 1.0))
                section = {"alpha": alpha, "p": p}
                section.update(
                    _sweep(
                        problem,
                        RngStream(seed, stream_id=6),
                        scfg,
                        points=50,
                        scale=2.0,
                        sweep=lambda pts: diagnostics.contraction_sweep(problem, pts, alpha, p),
                        what="margin",
                        ok=lambda worst: worst <= 1e-12,
                    )
                )
        report["contraction"] = section
        report["passed"] = report["passed"] and section["passed"]

    if "descent" in sweeps:
        scfg = sweeps["descent"]
        p = scfg.get("p", p_max(problem.constants))
        with _config_keys("sweeps.descent"):
            sc = step_constraints(problem.constants, p)
            alpha = scfg.get("alpha", 0.5 * sc.alpha_max)
            eta = scfg.get("eta", sc.eta_hi)
            section = {"alpha": alpha, "eta": eta, "p": p}
            section.update(
                _sweep(
                    problem,
                    RngStream(seed, stream_id=7),
                    scfg,
                    points=100,
                    scale=1.0,
                    sweep=lambda pts: diagnostics.descent_sweep(problem, pts, alpha, eta, p),
                    what="residual",
                    ok=lambda worst: worst >= -1e-10,
                )
            )
        report["descent"] = section
        report["passed"] = report["passed"] and section["passed"]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "check.json", report)
    return report
