"""JSON run configurations: loading, the one reader, builders, canonical hash.

A config is a plain JSON object. Every value in it is read by check_value
and every nested block by read_block (README, "Config reference"); this
module also builds the problem / optimizer / plan / init / diag objects and
computes the canonical hash embedded in every output file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import MISSING, fields

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

OPTIMIZER_KINDS = {kind.tag: kind for kind in (Sgda, SgdMax, Esgda, Rsgda)}

# the problem, optimizer and compare-series objects in read_block's dict
# form; build_problem, build_optimizer and build_plan read params and plan
PROBLEM_SCHEMA = {"name": "str", "params": "any"}
OPTIMIZER_SCHEMA = {"kind": "str", "params": "any"}
SERIES_SCHEMA = {"label": "str", "optimizer": "any", "plan": "any"}

# the plan and init blocks of each kind, in read_block's dict form;
# build_plan reads p
_PLAN = {"kind": "str", "p": "any"}
PLAN_SCHEMAS = {
    "constant": {**_PLAN, "alpha": "float", "eta": "float"},
    "polynomial": {**_PLAN, "alpha0": "float", "epsilon": "float", "eta_ratio": "float"},
}
INIT_SCHEMAS = {
    "problem_default": {"kind": "str"},
    "zeros": {"kind": "str"},
    "gauss": {"kind": "str", "scale": "float"},
    "point": {"kind": "str", "x": "list[float]", "y": "list[float]"},
}


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


def check_value(raw, typ: str, where: str):
    """The one scalar rule: raw as a value of type typ, or a ConfigError
    naming where.

    typ is "int" (a JSON integer, or an integral float such as 1e4), "float"
    (a finite JSON number), "bool" (a JSON boolean) or "str"; "X | None" also
    takes null, "list[X]" takes a non-empty array of X (a matrix's rows of
    one length when X is a list), and "tuple[X, Y]" an
    array of exactly one X and one Y, returned as a tuple. A boolean is never
    a number and a string never a number or a boolean.
    """
    base = typ.removesuffix(" | None")
    if raw is None and base != typ:
        return None
    if base.startswith("list["):
        if isinstance(raw, (list, tuple)) and raw:
            out = [check_value(v, base[5:-1], f"{where}[{i}]") for i, v in enumerate(raw)]
            for i, row in enumerate(out if base.startswith("list[list[") else ()):
                if len(row) != len(out[0]):
                    raise ConfigError(f"{where}[{i}]: expected {len(out[0])} values like row 0")
            return out
        raise ConfigError(f"{where}: expected a non-empty list, got {raw!r}")
    if base.startswith("tuple["):
        items = base[6:-1].split(", ")
        if isinstance(raw, (list, tuple)) and len(raw) == len(items):
            return tuple(
                check_value(v, t, f"{where}[{i}]") for i, (v, t) in enumerate(zip(raw, items))
            )
        raise ConfigError(f"{where}: expected a list of {len(items)} values, got {raw!r}")
    if base in ("bool", "str") and type(raw).__name__ == base:
        return raw
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    if number and base == "int" and (isinstance(raw, int) or raw.is_integer()):
        return int(raw)
    # abs(raw) <= max is False for inf and nan, and compares ints exactly
    if number and base == "float" and abs(raw) <= sys.float_info.max:
        return float(raw)
    raise ConfigError(f"{where}: expected {typ}, got {raw!r}")


def read_block(raw, where: str, schema):
    """The one block rule: raw, a JSON object or null (read as {}), checked
    key by key against schema, or a ConfigError naming where and the key.

    A dataclass schema is its fields' annotated types; every field without
    a default is required, and the block is returned as an instance (whose
    own validation errors become ConfigErrors). Any other schema is a dict
    mapping each key to a check_value type, to a nested schema read the same
    way, or to "any" for a value its consumer reads; the checked keys are
    returned as a dict. A key outside the schema is refused.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {raw!r}")
    is_dataclass = not isinstance(schema, dict)
    types = {f.name: f.type for f in fields(schema)} if is_dataclass else schema
    out = {}
    for key, val in raw.items():
        path = f"{where}.{key}"
        if key not in types:
            valid = ", ".join(sorted(types)) or "none"
            raise ConfigError(f"{path}: unknown key; valid keys: {valid}")
        typ = types[key]
        if isinstance(typ, dict):
            out[key] = read_block(val, path, typ)
        else:
            out[key] = val if typ == "any" else check_value(val, typ, path)
    if not is_dataclass:
        return out
    for f in fields(schema):
        if f.default is MISSING and f.default_factory is MISSING:
            _require(out, f.name, where)
    try:
        return schema(**out)
    except ParameterError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _kind(spec, where: str, valid, key: str = "kind", default=None) -> str:
    """The block's dispatch key (required when default is None), one of valid."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object, got {spec!r}")
    raw = _require(spec, key, where) if default is None else spec.get(key, default)
    kind = check_value(raw, "str", f"{where}.{key}")
    if kind not in valid:
        raise ConfigError(
            f"{where}.{key}: unknown {where} {key} '{kind}'; valid: {', '.join(sorted(valid))}"
        )
    return kind


def build_problem(spec) -> Problem:
    """problem.params are the factory's keyword arguments, read against
    their annotations (a matrix is list[list[float]]), and the factory
    validates them further. An argument without an annotation is no key;
    robust_regression's data= takes arrays in memory and has no JSON form,
    so it is left out too."""
    spec = read_block(spec, "problem", PROBLEM_SCHEMA)
    name = _kind(spec, "problem", PROBLEM_BUILDERS, key="name")
    factory = PROBLEM_BUILDERS[name]
    schema = {k: t for k, t in factory.__annotations__.items() if k not in ("return", "data")}
    params = read_block(spec.get("params"), "problem.params", schema)
    try:
        return factory(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem '{name}': bad params: {exc}") from exc
    except GdakitError as exc:
        raise ConfigError(f"problem '{name}': {exc}") from exc


def build_optimizer(spec) -> OptKind:
    spec = read_block(spec, "optimizer", OPTIMIZER_SCHEMA)
    kind = _kind(spec, "optimizer", OPTIMIZER_KINDS)
    return read_block(spec.get("params"), "optimizer.params", OPTIMIZER_KINDS[kind])


def _build_p(raw):
    """A constant p, or an AdaPSchedule block."""
    if isinstance(raw, dict):
        return read_block(raw, "plan.p", AdaPSchedule)
    return check_value(raw, "float", "plan.p")


def build_plan(spec, constants: ProblemConstants) -> StepPlan:
    kind = _kind(spec, "plan", PLAN_SCHEMAS, default="constant")
    plan = read_block(spec, "plan", PLAN_SCHEMAS[kind])
    p = _build_p(plan.get("p", 0.5))
    try:
        if kind == "constant":
            return constant_plan(_require(plan, "alpha", "plan"), _require(plan, "eta", "plan"), p)
        return polynomial_schedule(
            _require(plan, "alpha0", "plan"),
            _require(plan, "epsilon", "plan"),
            constants=constants,
            p=p,
            eta_ratio=plan.get("eta_ratio", 1.0),
        )
    except ParameterError as exc:
        raise ConfigError(f"plan: {exc}") from exc


def build_init(spec, problem: Problem, seed: int) -> JointPoint:
    """Initial point for one seeded run.

    kinds: problem_default (problems that ship one), gauss (seeded standard
    normal times scale, stream 1), zeros, point (explicit x/y arrays).
    Default: problem_default when available, else gauss with scale 1.
    """
    if spec is None:
        spec = {}
    default_init = getattr(problem, "default_init", None)
    kind = _kind(
        spec, "init", INIT_SCHEMAS, default="problem_default" if default_init else "gauss"
    )
    init = read_block(spec, "init", INIT_SCHEMAS[kind])
    if kind == "problem_default":
        if default_init is None:
            raise ConfigError(
                f"problem '{problem.name}' has no default init; use gauss/zeros/point"
            )
        return default_init(seed=seed)
    if kind == "zeros":
        return JointPoint(np.zeros(problem.m), np.zeros(problem.n))
    if kind == "gauss":
        scale = init.get("scale", 1.0)
        rng = RngStream(seed, stream_id=1)
        return JointPoint(
            scale * rng.standard_normal(problem.m),
            scale * rng.standard_normal(problem.n),
        )
    x = np.array(_require(init, "x", "init"), dtype=np.float64)
    y = np.array(_require(init, "y", "init"), dtype=np.float64)
    try:
        return problem.check_point(JointPoint(x, y))
    except GdakitError as exc:
        raise ConfigError(f"init: {exc}") from exc


def build_diag(spec) -> DiagConfig:
    """The 'diag' block, read against DiagConfig's fields."""
    return read_block(spec, "diag", DiagConfig)


def parse_seeds(cfg: dict, override: list[int] | None) -> list[int]:
    raw = override if override is not None else cfg.get("seeds", [0])
    seeds = check_value(raw, "list[int]", "seeds")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds: must be distinct")
    return seeds


def parse_iters(cfg: dict, key: str = "iters") -> int:
    iters = check_value(_require(cfg, key, "config"), "int", key)
    if iters < 0:
        raise ConfigError(f"{key}: must be >= 0, got {iters}")
    return iters
