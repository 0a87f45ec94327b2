"""Workload generators, grad-eval counts and output invariants.

Each workload turns a seed into one harness command and the config it
receives. The config is all the program sees; the seed only shapes it here.
`scale` shrinks the horizon/draw budgets for the smoke test (scale=1 is
the benchmark size every reference value and timing refers to).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # cmd_run / cmd_compare / cmd_check
    summary_file: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scsc-seeds", "cmd_run", "summary.json"),
        Workload("ncpl-traced", "cmd_run", "summary.json"),
        Workload("wgan-compare", "cmd_compare", "summary.json"),
        Workload("scsc-audit", "cmd_check", "check.json"),
    )
}


def _distinct(rng: np.random.Generator, k: int) -> list[int]:
    return sorted(int(s) for s in rng.choice(1_000_000, size=k, replace=False))


def _sized(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


def make_config(name: str, seed: int, scale: float = 1.0) -> dict:
    """The config one command call of workload `name` receives for `seed`."""
    rng = np.random.default_rng([seed, 0x6744])
    if name == "scsc-seeds":
        # shipped configs/run_scsc_rsgda.json problem and plan; 8 seeds on
        # the harness thread pool, logging every 200th step only
        return {
            "problem": {
                "name": "scsc_quadratic",
                "params": {
                    "a": 1.0,
                    "coupling": [[0.4, 0.0], [0.0, 0.4]],
                    "m": 2,
                    "n": 2,
                    "sigma": 0.5,
                },
            },
            "optimizer": {"kind": "rsgda", "params": {}},
            "plan": {
                "kind": "constant",
                "alpha": 0.05,
                "eta": 0.3,
                "p": {"p0": 0.08, "n1": 500, "n2": 500},
            },
            "iters": _sized(600, scale),
            "seeds": _distinct(rng, 8),
            "init": {"kind": "gauss", "scale": 2.0},
            "diag": {"interval": 200},
        }
    if name == "ncpl-traced":
        instance = int(rng.integers(1_000_000))
        alpha, eta, p0 = _ncpl_plan(instance)
        return {
            "problem": {
                "name": "random_ncpl",
                "params": {"seed": instance, "sigma": 0.5},
            },
            "optimizer": {"kind": "rsgda", "params": {}},
            "plan": {
                "kind": "constant",
                "alpha": alpha,
                "eta": eta,
                "p": {"p0": p0, "n1": 100, "n2": 100},
            },
            "iters": _sized(800, scale),
            # one seed: the harness then runs it on the calling thread
            "seeds": _distinct(rng, 1),
            "init": {"kind": "gauss", "scale": 2.0},
            "diag": {"interval": 1, "h": True, "v": True, "loss": True},
        }
    if name == "wgan-compare":
        # configs/compare_wgan.json with one seed, so no thread pool, and a
        # smaller budget (a multiple of lcm(6, 1) * checkpoints, so nothing
        # is trimmed)
        return {
            "problem": {"name": "gaussian_wgan", "params": {"batch": 50}},
            "series": [
                {
                    "label": "multi_ascent",
                    "optimizer": {"kind": "esgda", "params": {"m": 5}},
                    "plan": {"kind": "constant", "alpha": 0.01, "eta": 0.01},
                },
                {
                    "label": "single_sample",
                    "optimizer": {"kind": "rsgda", "params": {}},
                    "plan": {
                        "kind": "constant",
                        "alpha": 0.01,
                        "eta": 0.01,
                        "p": 1.0 / 6.0,
                    },
                },
            ],
            "eval_budget": 120 * _sized(4, scale),
            "checkpoints": 20,
            "metrics": ["dist"],
            "seeds": _distinct(rng, 1),
            "init": {"kind": "problem_default"},
            "waive_constraints": True,
        }
    if name == "scsc-audit":
        # configs/check_scsc.json with the workload seed and smaller budgets
        return {
            "problem": {
                "name": "scsc_quadratic",
                "params": {
                    "a": 1.0,
                    "coupling": [[0.4, 0.0], [0.0, 0.4]],
                    "m": 2,
                    "n": 2,
                    "sigma": 0.3,
                },
            },
            "seed": int(rng.integers(1_000_000)),
            "oracle": {"trials": _sized(6000, scale, floor=100), "points": 5},
            "sweeps": {
                "contraction": {"points": _sized(80, scale), "scale": 2.0},
                "descent": {"points": _sized(80, scale), "scale": 1.5},
            },
        }
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def _ncpl_plan(instance: int) -> tuple[float, float, float]:
    """A feasible (alpha, eta, p0) for random_ncpl_instance(instance):
    p0 = p_max, alpha at half its cap, so eta_lo = eta_hi / 2 and 0.9 *
    eta_hi sits inside the window for every p <= p0 the schedule takes."""
    from gdakit.problems import random_ncpl_instance
    from gdakit.schedules import p_max, step_constraints

    c = random_ncpl_instance(instance, sigma=0.5).constants
    p0 = p_max(c)
    sc = step_constraints(c, p0)
    return 0.5 * sc.alpha_max, 0.9 * sc.eta_hi, p0


def pool_threads(name: str, cfg: dict) -> int:
    """Threads one command call runs its seeds on: the harness fans more
    than one seed out to a pool of min(8, seeds) threads; check runs on the
    calling thread."""
    if WORKLOADS[name].command == "cmd_check" or len(cfg["seeds"]) == 1:
        return 1
    return min(8, len(cfg["seeds"]))


def grad_evals(name: str, cfg: dict, summary: dict) -> int:
    """Gradient evaluations one command call performed, read from its
    summary: run sums per-seed grad_evals; compare has every series spend
    exactly eval_budget per seed; check counts the oracle-audit draws."""
    command = WORKLOADS[name].command
    if command == "cmd_run":
        return sum(int(s["grad_evals"]) for s in summary["per_seed"].values())
    if command == "cmd_compare":
        return int(summary["eval_budget"]) * len(summary["series"]) * len(summary["seeds"])
    oracle = summary["oracle"]
    return int(oracle["points"]) * int(oracle["trials_per_point"])


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def invariant_errors(name: str, cfg: dict, summary: dict) -> list[str]:
    """Seed-independent checks on one call's summary; empty when it passes."""
    errs: list[str] = []
    command = WORKLOADS[name].command
    if command == "cmd_run":
        if summary["seeds"] != cfg["seeds"]:
            errs.append(f"seeds {summary['seeds']} != {cfg['seeds']}")
        for seed, s in summary["per_seed"].items():
            if s["grad_evals"] != cfg["iters"]:
                errs.append(f"seed {seed}: grad_evals {s['grad_evals']} != {cfg['iters']}")
            if s["warnings"] != 0:
                errs.append(f"seed {seed}: {s['warnings']} warnings")
            keys = ["final_dist"] if name == "scsc-seeds" else ["min_h", "final_v"]
            for key in keys:
                if not _finite(s.get(key)):
                    errs.append(f"seed {seed}: {key}={s.get(key)!r} is not finite")
    elif command == "cmd_compare":
        if summary["eval_budget"] != cfg["eval_budget"]:
            errs.append(f"eval_budget {summary['eval_budget']} != {cfg['eval_budget']}")
        for seed, s in summary["per_seed"].items():
            for label, final in s["final"].items():
                if not _finite(final.get("dist")):
                    errs.append(f"seed {seed} {label}: final dist {final.get('dist')!r}")
    else:
        for part in ("oracle", "contraction", "descent"):
            if not summary.get(part, {}).get("passed"):
                errs.append(f"check.{part} did not pass: {summary.get(part)}")
        if not summary.get("passed"):
            errs.append("check.passed is false")
        oracle = summary.get("oracle", {})
        want = cfg["oracle"]["trials"] // cfg["oracle"]["points"]
        if oracle.get("trials_per_point") != want:
            errs.append(f"oracle trials_per_point {oracle.get('trials_per_point')} != {want}")
    return errs


def key_numbers(name: str, summary: dict) -> dict:
    """The numbers the reference file pins for the reference seed."""
    command = WORKLOADS[name].command
    if command == "cmd_run":
        key = "final_dist" if name == "scsc-seeds" else "min_h"
        return {f"{key}[{seed}]": s[key] for seed, s in summary["per_seed"].items()}
    if command == "cmd_compare":
        out: dict = {"eval_budget": summary["eval_budget"]}
        for seed, s in summary["per_seed"].items():
            for label, final in s["final"].items():
                out[f"final_dist[{seed}][{label}]"] = final["dist"]
        return out
    return {
        "passed": summary["passed"],
        "oracle.passed": summary["oracle"]["passed"],
        "oracle.max_mean_deviation": summary["oracle"]["max_mean_deviation"],
        "oracle.max_noise_ratio": summary["oracle"]["max_noise_ratio"],
        "contraction.passed": summary["contraction"]["passed"],
        "contraction.worst_margin": summary["contraction"]["worst_margin"],
        "descent.passed": summary["descent"]["passed"],
        "descent.worst_residual": summary["descent"]["worst_residual"],
    }


def reference_errors(got: dict, want: dict, rel: float = 1e-9) -> list[str]:
    """Mismatches between key numbers and their stored reference values.

    Floats match to `rel` relative error (plus 1e-15 absolute): reruns are
    bit-identical, and the slack only admits summation-order changes a
    behaviour-preserving refactor may bring.
    """
    errs = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            errs.append(f"{key}: present in only one of result/reference")
            continue
        g, w = got[key], want[key]
        if isinstance(w, float) and isinstance(g, (int, float)) and not isinstance(g, bool):
            if not abs(g - w) <= rel * abs(w) + 1e-15:
                errs.append(f"{key}: {g!r} != reference {w!r}")
        elif g != w:
            errs.append(f"{key}: {g!r} != reference {w!r}")
    return errs
