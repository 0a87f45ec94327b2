"""JSON run configurations: loading, validation, builders, canonical hash.

A config is a plain JSON object. The keys each command consumes are
documented in the README ("Config reference"); this module owns the common
pieces: the problem / optimizer / plan / init / diag sub-objects and the
canonical hash embedded in every output file.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from gdakit.core import GdakitError, ParameterError, RngStream
from gdakit.optimizers import DiagConfig, Esgda, OptKind, Rsgda, Sgda, SgdMax
from gdakit.problems import (
    JointPoint,
    Problem,
    make_bilinear,
    make_gaussian_wgan,
    make_ncpl_quadratic,
    make_robust_regression,
    make_scsc_quadratic,
    random_ncpl_instance,
    random_scsc_instance,
)
from gdakit.problems.base import ProblemConstants
from gdakit.schedules import (
    AdaPSchedule,
    StepPlan,
    constant_plan,
    polynomial_schedule,
)


class ConfigError(GdakitError):
    """Malformed or inconsistent run configuration."""


PROBLEM_BUILDERS = {
    "scsc_quadratic": make_scsc_quadratic,
    "bilinear": make_bilinear,
    "ncpl_quadratic": make_ncpl_quadratic,
    "random_scsc": random_scsc_instance,
    "random_ncpl": random_ncpl_instance,
    "gaussian_wgan": make_gaussian_wgan,
    "robust_regression": make_robust_regression,
}

OPTIMIZER_KINDS = {
    "sgda": Sgda,
    "sgdmax": SgdMax,
    "esgda": Esgda,
    "rsgda": Rsgda,
}

PLAN_KINDS = ("constant", "polynomial")


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def canonical_json(cfg: dict) -> str:
    """Key-sorted, whitespace-free dump; the hashing preimage."""
    try:
        return json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config is not JSON-serializable: {exc}") from exc


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return cfg[key]


def build_problem(spec) -> Problem:
    if not isinstance(spec, dict):
        raise ConfigError("'problem' must be an object with 'name' and 'params'")
    name = _require(spec, "name", "problem")
    if name not in PROBLEM_BUILDERS:
        raise ConfigError(
            f"unknown problem '{name}'; valid names: {', '.join(sorted(PROBLEM_BUILDERS))}"
        )
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("problem.params must be an object")
    try:
        return PROBLEM_BUILDERS[name](**params)
    except TypeError as exc:
        raise ConfigError(f"problem '{name}': bad params: {exc}") from exc
    except GdakitError as exc:
        raise ConfigError(f"problem '{name}': {exc}") from exc


def build_optimizer(spec) -> OptKind:
    if not isinstance(spec, dict):
        raise ConfigError("'optimizer' must be an object with 'kind' and 'params'")
    kind = _require(spec, "kind", "optimizer")
    if kind not in OPTIMIZER_KINDS:
        raise ConfigError(
            f"unknown optimizer '{kind}'; valid kinds: {', '.join(sorted(OPTIMIZER_KINDS))}"
        )
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("optimizer.params must be an object")
    try:
        return OPTIMIZER_KINDS[kind](**params)
    except TypeError as exc:
        raise ConfigError(f"optimizer '{kind}': bad params: {exc}") from exc
    except GdakitError as exc:
        raise ConfigError(f"optimizer '{kind}': {exc}") from exc


def _build_p(raw):
    if isinstance(raw, dict):
        try:
            return AdaPSchedule(
                p0=float(_require(raw, "p0", "plan.p")),
                n1=int(_require(raw, "n1", "plan.p")),
                n2=int(_require(raw, "n2", "plan.p")),
                clamp_to_p0=bool(raw.get("clamp_to_p0", True)),
            )
        except GdakitError as exc:
            raise ConfigError(f"plan.p: {exc}") from exc
    return float(raw)


def build_plan(spec, constants: ProblemConstants) -> StepPlan:
    if spec is None:
        raise ConfigError("missing 'plan' object")
    if not isinstance(spec, dict):
        raise ConfigError("'plan' must be an object")
    kind = spec.get("kind", "constant")
    if kind not in PLAN_KINDS:
        raise ConfigError(
            f"unknown plan kind '{kind}'; valid kinds: {', '.join(PLAN_KINDS)}"
        )
    try:
        if kind == "constant":
            return constant_plan(
                alpha=float(_require(spec, "alpha", "plan")),
                eta=float(_require(spec, "eta", "plan")),
                p=_build_p(spec.get("p", 0.5)),
            )
        return polynomial_schedule(
            alpha0=float(_require(spec, "alpha0", "plan")),
            epsilon=float(_require(spec, "epsilon", "plan")),
            constants=constants,
            p=_build_p(spec.get("p", 0.5)),
            eta_ratio=float(spec.get("eta_ratio", 1.0)),
        )
    except GdakitError as exc:
        raise ConfigError(f"plan: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"plan: bad value: {exc}") from exc


def build_init(spec, problem: Problem, seed: int) -> JointPoint:
    """Initial point for one seeded run.

    kinds: problem_default (problems that ship one), gauss (seeded standard
    normal times scale, stream 1), zeros, point (explicit x/y arrays).
    Default: problem_default when available, else gauss with scale 1.
    """
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        raise ConfigError("'init' must be an object")
    default_init = getattr(problem, "default_init", None)
    kind = spec.get("kind", "problem_default" if default_init else "gauss")
    if kind == "problem_default":
        if default_init is None:
            raise ConfigError(
                f"problem '{problem.name}' has no default init; use gauss/zeros/point"
            )
        return default_init(seed=seed)
    if kind == "zeros":
        return JointPoint(np.zeros(problem.m), np.zeros(problem.n))
    if kind == "gauss":
        scale = float(spec.get("scale", 1.0))
        rng = RngStream(seed, stream_id=1)
        return JointPoint(
            scale * rng.standard_normal(problem.m),
            scale * rng.standard_normal(problem.n),
        )
    if kind == "point":
        try:
            x = np.asarray(_require(spec, "x", "init"), dtype=np.float64)
            y = np.asarray(_require(spec, "y", "init"), dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"init: bad point: {exc}") from exc
        try:
            return problem.check_point(JointPoint(x, y))
        except GdakitError as exc:
            raise ConfigError(f"init: {exc}") from exc
    raise ConfigError(
        f"unknown init kind '{kind}'; valid kinds: gauss, point, problem_default, zeros"
    )


def build_diag(spec) -> DiagConfig:
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        raise ConfigError("'diag' must be an object")
    allowed = {
        "interval",
        "grad_norms",
        "h",
        "v",
        "dist",
        "loss",
        "inner_tol",
        "inner_budget",
    }
    bad = set(spec) - allowed
    if bad:
        raise ConfigError(
            f"diag: unknown keys {sorted(bad)}; valid keys: {sorted(allowed)}"
        )
    try:
        return DiagConfig(
            interval=int(spec.get("interval", 1)),
            grad_norms=bool(spec.get("grad_norms", True)),
            h=bool(spec.get("h", False)),
            v=bool(spec.get("v", False)),
            dist=bool(spec.get("dist", True)),
            loss=bool(spec.get("loss", False)),
            inner_tol=None
            if spec.get("inner_tol") is None
            else float(spec["inner_tol"]),
            inner_budget=int(spec.get("inner_budget", 10_000)),
        )
    except ParameterError as exc:
        raise ConfigError(f"diag: {exc}") from exc


def parse_seeds(cfg: dict, override: list[int] | None) -> list[int]:
    seeds = override if override is not None else cfg.get("seeds", [0])
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ConfigError("'seeds' must be a non-empty list of integers")
    out = []
    for s in seeds:
        if isinstance(s, bool) or not isinstance(s, int):
            raise ConfigError(f"'seeds' must all be integers, got {s!r}")
        out.append(int(s))
    if len(set(out)) != len(out):
        raise ConfigError("'seeds' must be distinct")
    return out


def parse_iters(cfg: dict, key: str = "iters") -> int:
    raw = _require(cfg, key, "config")
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 0:
        raise ConfigError(f"'{key}' must be a non-negative integer, got {raw!r}")
    return raw
