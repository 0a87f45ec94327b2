"""The four harness commands: run, compare, pselect, check.

Each takes an already-loaded config dict plus an output directory, writes
its artifacts there (every file carries the canonical config hash), and
returns the summary payload it wrote. The seeds of a command step together
as one batch of chains (optimizers.run_chains), each on its own stream, so
a seed's outputs do not depend on which other seeds share the command.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from gdakit import __version__, diagnostics
from gdakit.core import DivergenceError, GdakitError, RngStream
from gdakit.diagnostics import LYAPUNOV_C, METRIC_KEYS, contraction_alpha_cap, lyapunov
from gdakit.optimizers import init_state, rsgda_step

# bound as `run`: bench/tracer.py times the run loop by wrapping commands.run
from gdakit.optimizers import run_chains as run
from gdakit.problems import Problem, check_oracle
from gdakit.schedules import AdaPSchedule, optimal_p, p_max, step_constraints
from gdakit.harness.config import (
    ConfigError,
    build_diag,
    build_init,
    build_optimizer,
    build_plan,
    build_problem,
    config_hash,
    parse_iters,
    parse_seeds,
)
from gdakit.harness.io import (
    write_json,
    write_params,
    write_table_csv,
    write_trace_csv,
)

DIVERGENCE_CAP = 1e12

_AGG_KEYS = (*(f"final_{m}" for m in METRIC_KEYS), "min_h", "grad_evals")


def _aggregate(summaries: list[dict], keys=_AGG_KEYS) -> dict:
    agg: dict = {}
    for key in keys:
        vals = [s[key] for s in summaries if s.get(key) is not None]
        if vals:
            agg[key + "_mean"] = float(np.mean(vals))
            agg[key + "_std"] = float(np.std(vals))
    return agg


def cmd_run(
    cfg: dict,
    out_dir,
    *,
    seeds_override: list[int] | None = None,
    waive_override: bool = False,
) -> dict:
    """Seeded runs of one optimizer on one problem; one trace per seed."""
    problem = build_problem(cfg.get("problem"))
    kind = build_optimizer(cfg.get("optimizer"))
    plan = build_plan(cfg.get("plan"), problem.constants)
    iters = parse_iters(cfg)
    seeds = parse_seeds(cfg, seeds_override)
    diag = build_diag(cfg.get("diag"))
    waive = waive_override or bool(cfg.get("waive_constraints", False))
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
        write_trace_csv(out_dir / f"trace_seed{exc.seed}.csv", exc.records, config_hash=chash)
        raise

    per_seed = {}
    for seed, res in zip(seeds, results):
        trace = f"trace_seed{seed}.csv"
        write_trace_csv(out_dir / trace, res.records, config_hash=chash)
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
        if not isinstance(entry, dict):
            raise ConfigError(f"series[{i}] must be an object")
        kind = build_optimizer(entry.get("optimizer"))
        if kind.evals_per_step is None:
            raise ConfigError(
                "compare aligns series by cumulative gradient evaluations; "
                "sgdmax has no fixed per-step cost, so it cannot be compared "
                "this way (use separate run commands)"
            )
        plan_spec = entry.get("plan", cfg.get("plan"))
        plan = build_plan(plan_spec, constants)
        label = entry.get("label", entry["optimizer"].get("kind", f"s{i}"))
        if not isinstance(label, str) or not label or not all(
            ch.isalnum() or ch in "_-" for ch in label
        ):
            raise ConfigError(
                f"series[{i}]: label must be a nonempty [A-Za-z0-9_-] string"
            )
        if label in labels:
            raise ConfigError(f"duplicate series label '{label}'")
        labels.add(label)
        series.append((label, kind, plan))
    return series


def cmd_compare(
    cfg: dict,
    out_dir,
    *,
    seeds_override: list[int] | None = None,
    waive_override: bool = False,
) -> dict:
    """Run several optimizers on one problem and merge their traces on a
    shared grid of cumulative gradient-evaluation counts.

    The grid step is a multiple of lcm(evals per step) over the series, so
    every checkpoint lands exactly on a post-step iterate of every series;
    the eval budget is trimmed down to a whole number of checkpoints.
    """
    problem = build_problem(cfg.get("problem"))
    series = _compare_series(cfg, problem.constants)
    seeds = parse_seeds(cfg, seeds_override)
    waive = waive_override or bool(cfg.get("waive_constraints", False))
    chash = config_hash(cfg)

    budget = parse_iters(cfg, key="eval_budget")
    metrics = cfg.get("metrics", ["dist"])
    if (
        not isinstance(metrics, list)
        or not metrics
        or any(m not in METRIC_KEYS for m in metrics)
    ):
        raise ConfigError(
            f"'metrics' must be a non-empty subset of {list(METRIC_KEYS)}"
        )

    eps = [kind.evals_per_step for _, kind, _ in series]
    lcm = math.lcm(*eps)
    rows_target = cfg.get("checkpoints", 50)
    if not isinstance(rows_target, int) or rows_target < 1:
        raise ConfigError("'checkpoints' must be a positive integer")
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
            if len(res.records) != n_rows:
                raise GdakitError(
                    f"series '{label}': {len(res.records)} checkpoints, "
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
        rows = []
        for j in range(n_rows):
            row: list = [(j + 1) * stride]
            for res in res_list:
                rec = res.records[j]
                row.append(rec.k)
                row.extend(getattr(rec, m) for m in metrics)
            rows.append(row)
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


def _phi_of(problem: Problem, point, inner_tol, inner_budget) -> tuple[float, float]:
    """(V, phi) at a point; phi recovered from V and F without a second
    inner solve."""
    v = lyapunov(problem, point, inner_tol=inner_tol, inner_budget=inner_budget)
    f = problem.value(point)
    phi = (v + LYAPUNOV_C * f) / (1.0 + LYAPUNOV_C)
    return v, phi


def cmd_pselect(cfg: dict, out_dir) -> dict:
    """Update-probability selection for the randomized single-sample method.

    A short probe run estimates the initial optimality gap delta as (merit
    value after the first step) minus (smallest phi value seen during the
    probe, a lower-bound proxy for min phi). The optimal-p formula then maps
    each horizon n in the grid to its best constant p, and the curve is
    condensed into a warmup + 1/j staircase schedule anchored to match the
    curve at both ends of the grid.
    """
    problem = build_problem(cfg.get("problem"))
    c = problem.constants
    alpha = float(cfg.get("alpha", 1.0 / (2.0 * c.l2)))
    if alpha <= 0:
        raise ConfigError(f"'alpha' must be > 0, got {alpha}")

    n_grid = cfg.get("n_grid", [10**j for j in range(2, 9)])
    if (
        not isinstance(n_grid, list)
        or not n_grid
        or any(not isinstance(n, int) or n < 1 for n in n_grid)
        or sorted(n_grid) != n_grid
    ):
        raise ConfigError("'n_grid' must be an ascending list of positive integers")

    probe_cfg = cfg.get("probe", {}) or {}
    probe_info: dict | None = None
    if "delta" in cfg:
        delta = float(cfg["delta"])
        if delta <= 0:
            raise ConfigError(f"'delta' must be > 0, got {delta}")
    else:
        probe_iters = int(probe_cfg.get("iters", 100))
        if probe_iters < 1:
            raise ConfigError("probe.iters must be >= 1")
        probe_seed = int(probe_cfg.get("seed", 0))
        p_probe = float(probe_cfg.get("p", p_max(c)))
        alpha_probe = float(probe_cfg.get("alpha", alpha))
        eta_probe = float(probe_cfg.get("eta", 1.0 / c.l1))
        inner_tol = probe_cfg.get("inner_tol")
        inner_budget = int(probe_cfg.get("inner_budget", 10_000))

        rng = RngStream(probe_seed, stream_id=0)
        state = init_state(build_init(cfg.get("init"), problem, probe_seed), rng)
        _, phi0 = _phi_of(problem, state.point, inner_tol, inner_budget)
        phi_min = phi0
        v1 = math.nan
        for _ in range(probe_iters):
            state = rsgda_step(problem, state, alpha_probe, eta_probe, p_probe)
            v, phi = _phi_of(problem, state.point, inner_tol, inner_budget)
            if not math.isfinite(v) or v > DIVERGENCE_CAP:
                raise DivergenceError(
                    f"pselect probe diverged at step {state.k}: V={v!r} "
                    f"(alpha={alpha_probe}, eta={eta_probe}, p={p_probe})"
                )
            if state.k == 1:
                v1 = v
            phi_min = min(phi_min, phi)
        delta = max(v1 - phi_min, 1e-12)
        probe_info = {
            "iters": probe_iters,
            "seed": probe_seed,
            "alpha": alpha_probe,
            "eta": eta_probe,
            "p": p_probe,
            "v_after_first_step": v1,
            "phi_lower_bound": phi_min,
        }

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
    point), and no non-finite number is written.
    """
    n_pts = int(scfg.get("points", points))
    out: dict = {"points": n_pts}
    if n_pts < 1:
        return {**out, "passed": False, "error": f"points must be >= 1, got {n_pts}"}
    rep = sweep(problem.random_points(rng, n_pts, float(scfg.get("scale", scale))))
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


def cmd_check(cfg: dict, out_dir) -> dict:
    """Oracle and certificate audit of one problem; writes check.json.

    Always runs the stochastic-oracle consistency checks; optionally sweeps
    the two-branch contraction bound (needs a Nash point) and the one-step
    merit descent bound (needs closed-form phi) over random points.
    """
    problem = build_problem(cfg.get("problem"))
    seed = int(cfg.get("seed", 0))
    chash = config_hash(cfg)
    report: dict = {
        "command": "check",
        "config_hash": chash,
        "version": __version__,
        "problem": cfg["problem"]["name"],
        "passed": True,
    }

    ocfg = cfg.get("oracle", {}) or {}
    rng = RngStream(seed, stream_id=5)
    try:
        orep = check_oracle(
            problem,
            int(ocfg.get("trials", 2000)),
            rng,
            points=int(ocfg.get("points", 10)),
            point_scale=float(ocfg.get("point_scale", 1.0)),
            fd_step=float(ocfg.get("fd_step", 1e-5)),
            fd_threshold=ocfg.get("fd_threshold"),
            fd_coords=ocfg.get("fd_coords"),
            noise_slack=float(ocfg.get("noise_slack", 0.1)),
        )
        report["oracle"] = {
            "passed": True,
            "points": orep.points,
            "trials_per_point": orep.trials_per_point,
            "max_mean_deviation": orep.max_mean_deviation,
            "max_noise_ratio": orep.max_noise_ratio,
            "max_fd_rel_err": orep.max_fd_rel_err,
            "fd_threshold": orep.fd_threshold,
        }
    except GdakitError as exc:
        report["oracle"] = {"passed": False, "error": str(exc)}
        report["passed"] = False

    sweeps = cfg.get("sweeps", {}) or {}
    if "contraction" in sweeps:
        scfg = sweeps["contraction"] or {}
        if problem.nash_point is None:
            section = {"passed": False, "error": f"{problem.name}: no Nash point exposed"}
        else:
            p = float(scfg.get("p", 0.5))
            alpha_cap = contraction_alpha_cap(problem.constants, p)
            alpha = float(scfg.get("alpha", min(0.5 * alpha_cap, 1.0)))
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
        scfg = sweeps["descent"] or {}
        p = float(scfg.get("p", p_max(problem.constants)))
        sc = step_constraints(problem.constants, p)
        alpha = float(scfg.get("alpha", 0.5 * sc.alpha_max))
        eta = float(scfg.get("eta", sc.eta_hi))
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
