"""Config parsing, file formats, the four harness commands, and CLI exit
codes, all against temp directories."""
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from inspect import signature
from pathlib import Path

import numpy as np
import pytest

import gdakit
from gdakit.core import ConstraintError, DivergenceError, RngStream
from gdakit.diagnostics import LYAPUNOV_C, TraceColumns, lyapunov
from gdakit.harness.cli import main
from gdakit.harness.commands import cmd_check, cmd_compare, cmd_pselect, cmd_run
from gdakit.harness.config import (
    PROBLEM_BUILDERS,
    ConfigError,
    build_init,
    build_optimizer,
    build_plan,
    build_problem,
    canonical_json,
    check_value,
    config_hash,
    load_config,
    parse_iters,
    parse_seeds,
)
from gdakit.harness.io import (
    TraceFormatError,
    read_json,
    read_params,
    read_trace_csv,
    write_params,
    write_table_csv,
    write_trace_csv,
)
from gdakit.optimizers import init_state, rsgda_step
from gdakit.problems import make_scsc_quadratic
from gdakit.schedules import p_max


def _run_cfg(**over):
    cfg = {
        "problem": {
            "name": "scsc_quadratic",
            "params": {"a": 1.0, "coupling": None, "m": 1, "n": 1, "sigma": 0.5},
        },
        "optimizer": {"kind": "sgda", "params": {}},
        "plan": {"kind": "constant", "alpha": 0.1, "eta": 0.1},
        "iters": 10,
        "seeds": [0, 1],
        "init": {"kind": "point", "x": [2.0], "y": [1.0]},
    }
    cfg.update(over)
    return cfg


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------- config

def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_canonical_json_rejects_non_serializable():
    with pytest.raises(ConfigError):
        canonical_json({"a": np.float64(1.0) * 1j})


def test_build_problem_rejects_unknown_name_and_bad_params():
    with pytest.raises(ConfigError, match="scsc_quadratic"):
        build_problem({"name": "rosenbrock"})
    with pytest.raises(ConfigError, match=r"problem\.params\.rho: unknown key"):
        build_problem({"name": "bilinear", "params": {"m": 1, "n": 1, "rho": 2}})
    with pytest.raises(ConfigError, match="bad params"):
        build_problem({"name": "bilinear", "params": {"m": 1}})
    # data= takes arrays in memory, which a config cannot hold
    with pytest.raises(ConfigError, match=r"problem\.params\.data: unknown key"):
        build_problem({"name": "robust_regression", "params": {"data": [[1.0]]}})
    with pytest.raises(ConfigError):
        build_problem({"name": "scsc_quadratic", "params": {"a": -1.0, "coupling": None, "m": 1, "n": 1}})
    with pytest.raises(ConfigError):
        build_problem("bilinear")


def test_every_problem_param_is_typed_for_the_config_reader():
    # an unannotated factory argument would have no type to read a config
    # value against; each default must read as its own annotated type
    for name, factory in PROBLEM_BUILDERS.items():
        for p in signature(factory).parameters.values():
            if p.name == "data":  # arrays in memory, not a config key
                continue
            assert isinstance(p.annotation, str), f"{name}.{p.name}"
            if p.default is not p.empty:
                check_value(p.default, p.annotation, f"{name}.{p.name}")


def test_build_optimizer_rejects_unknown_kind_listing_valid_ones():
    with pytest.raises(ConfigError) as err:
        build_optimizer({"kind": "adam"})
    for known in ("esgda", "rsgda", "sgda", "sgdmax"):
        assert known in str(err.value)
    with pytest.raises(ConfigError):
        build_optimizer({"kind": "esgda", "params": {"m": 0}})


def test_build_plan_variants_and_validation():
    c = make_scsc_quadratic(1.0, None, 1, 1).constants
    plan = build_plan({"kind": "constant", "alpha": 0.1, "eta": 0.2, "p": 0.3}, c)
    assert plan.alpha(0) == 0.1 and plan.eta(5) == 0.2 and plan.p(9) == 0.3
    poly = build_plan({"kind": "polynomial", "alpha0": 0.1, "epsilon": 0.25}, c)
    assert poly.alpha(100) == pytest.approx(0.1 * 100 ** -0.75)
    ada = build_plan(
        {"kind": "constant", "alpha": 0.1, "eta": 0.2,
         "p": {"p0": 0.5, "n1": 300, "n2": 300}},
        c,
    )
    assert ada.p(900) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ConfigError, match="alpha"):
        build_plan({"kind": "constant", "eta": 0.2}, c)
    with pytest.raises(ConfigError):
        build_plan({"kind": "cosine", "alpha": 0.1, "eta": 0.2}, c)
    with pytest.raises(ConfigError):
        build_plan(None, c)


def test_build_init_kinds():
    prob = make_scsc_quadratic(1.0, None, 2, 3)
    z = build_init({"kind": "zeros"}, prob, seed=0)
    assert np.array_equal(z.x, np.zeros(2)) and np.array_equal(z.y, np.zeros(3))
    g1 = build_init({"kind": "gauss", "scale": 2.0}, prob, seed=7)
    g2 = build_init({"kind": "gauss", "scale": 2.0}, prob, seed=7)
    assert np.array_equal(g1.x, g2.x) and np.array_equal(g1.y, g2.y)
    g3 = build_init({"kind": "gauss", "scale": 1.0}, prob, seed=7)
    assert np.array_equal(2.0 * g3.x, g1.x)
    pt = build_init({"kind": "point", "x": [1, 2], "y": [3, 4, 5]}, prob, seed=0)
    assert pt.x.dtype == np.float64 and list(pt.y) == [3.0, 4.0, 5.0]
    with pytest.raises(ConfigError):
        build_init({"kind": "point", "x": [1], "y": [3, 4, 5]}, prob, seed=0)
    with pytest.raises(ConfigError, match="no default init"):
        build_init({"kind": "problem_default"}, prob, seed=0)
    with pytest.raises(ConfigError):
        build_init({"kind": "warm"}, prob, seed=0)


def test_parse_seeds_and_iters_validation():
    assert parse_seeds({}, None) == [0]
    assert parse_seeds({"seeds": [3, 1]}, None) == [3, 1]
    assert parse_seeds({"seeds": [3]}, [9, 10]) == [9, 10]
    with pytest.raises(ConfigError):
        parse_seeds({"seeds": []}, None)
    with pytest.raises(ConfigError):
        parse_seeds({"seeds": [1, 1]}, None)
    with pytest.raises(ConfigError):
        parse_seeds({"seeds": [1, True]}, None)
    assert parse_iters({"iters": 5}) == 5
    with pytest.raises(ConfigError):
        parse_iters({})
    with pytest.raises(ConfigError):
        parse_iters({"iters": -1})
    with pytest.raises(ConfigError):
        parse_iters({"iters": 2.5})


@pytest.mark.parametrize(
    "typ,raw,want",
    [
        ("int", 3, 3),
        ("int", 1e4, 10_000),
        ("float", 2, 2.0),
        ("float", 0.5, 0.5),
        ("bool", False, False),
        ("float | None", None, None),
        ("int | None", 4, 4),
        ("list[int]", [3, 1.0], [3, 1]),
        ("list[list[float]] | None", None, None),
        ("list[list[float]] | None", [[1, 2.5]], [[1.0, 2.5]]),
        ("tuple[float, float]", [1, 2.5], (1.0, 2.5)),
    ],
)
def test_check_value_accepts_and_converts(typ, raw, want):
    got = check_value(raw, typ, "block.key")
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize(
    "typ,raw",
    [
        ("int", 2.7),
        ("int", True),
        ("int", "3"),
        ("float", True),
        ("float", "0.1"),
        ("float", float("nan")),
        ("float", float("inf")),
        ("float", 10**400),
        ("float", None),
        ("bool", 1),
        ("bool", "false"),
        ("str", 1),
        ("list[int]", []),
        ("list[int]", [1, True]),
        ("list[list[float]]", None),
        ("list[list[float]]", [[1.0], "x"]),
        ("list[list[float]]", [[0.4, 0.0], [0.0]]),
        ("tuple[float, float]", [1.0]),
        ("tuple[float, float]", [1.0, "x"]),
    ],
)
def test_check_value_refuses_naming_the_key(typ, raw):
    with pytest.raises(ConfigError, match=r"block\.key"):
        check_value(raw, typ, "block.key")


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)


# ---------------------------------------------------------------- io

def _sample_trace():
    # two rows in column order: k, branch, alpha, eta, p, grad_x_norm,
    # grad_y_norm, h, v, dist, loss
    rows = [
        (1, "x", 0.1, 0.2, 0.25, 1.5, None, 0.125, None, 2.0 ** 0.5, -0.3),
        (2, "both", 0.1, 0.2, None, None, None, None, None, None, None),
    ]
    return TraceColumns([list(col) for col in zip(*rows)])


def test_trace_csv_round_trip_exact(tmp_path):
    path = tmp_path / "trace.csv"
    trace = _sample_trace()
    write_trace_csv(path, trace, config_hash="abc123")
    back, chash = read_trace_csv(path)
    assert back == trace
    assert chash == "abc123"
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=abc123"
    assert lines[1].startswith("k,branch,alpha")
    assert len(lines) == 2 + len(trace)


def test_trace_csv_writes_int_step_sizes_as_floats(tmp_path):
    path = tmp_path / "trace.csv"
    trace = TraceColumns([[1], ["x"], [1], [1], [1], [None], [None], [None], [None], [0], [None]])
    write_trace_csv(path, trace)
    assert path.read_text().splitlines()[1] == "1,x,1.0,1.0,1.0,,,,,0.0,"
    back, _ = read_trace_csv(path)
    assert back == trace and type(back["alpha"][0]) is float


def test_trace_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(TraceFormatError, match="header"):
        read_trace_csv(path)


def test_params_round_trip_bit_exact(tmp_path):
    vals = np.array([1.0 / 3.0, -2.718281828459045e10, 5e-324, 0.0])
    path = tmp_path / "params.csv"
    write_params(path, vals, config_hash="deadbeef")
    back = read_params(path)
    assert np.array_equal(back, vals)
    assert path.read_text().startswith("# config_hash=deadbeef\n")


def test_table_csv_layout(tmp_path):
    path = tmp_path / "table.csv"
    write_table_csv(path, ["n", "p"], [[100, 0.5], [1000, None]], config_hash="ff")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=ff"
    assert lines[1] == "n,p"
    assert lines[2] == "100,0.5"
    assert lines[3] == "1000,"


# ---------------------------------------------------------------- cmd_run

def test_cmd_run_writes_traces_finals_and_summary(tmp_path):
    cfg = _run_cfg()
    out = tmp_path / "out"
    summary = cmd_run(cfg, out)
    assert summary["command"] == "run"
    assert summary["seeds"] == [0, 1]
    for seed in (0, 1):
        trace, chash = read_trace_csv(out / f"trace_seed{seed}.csv")
        assert len(trace) == 10
        assert trace["k"] == list(range(1, 11))
        assert chash == config_hash(cfg)
        x = read_params(out / f"final_x_seed{seed}.csv")
        assert x.shape == (1,)
        per = summary["per_seed"][str(seed)]
        assert per["iters"] == 10 and per["grad_evals"] == 20
        assert per["final_dist"] == trace["dist"][-1]
    disk = read_json(out / "summary.json")
    assert disk == summary
    assert "final_dist_mean" in summary["aggregate"]


def test_cmd_run_reruns_byte_identically(tmp_path):
    cfg = _run_cfg()
    cmd_run(cfg, tmp_path / "a")
    cmd_run(cfg, tmp_path / "b")
    for name in ("trace_seed0.csv", "trace_seed1.csv", "final_x_seed0.csv",
                 "final_y_seed1.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cmd_run_seeds_differ(tmp_path):
    cfg = _run_cfg()
    out = tmp_path / "out"
    cmd_run(cfg, out)
    t0, _ = read_trace_csv(out / "trace_seed0.csv")
    t1, _ = read_trace_csv(out / "trace_seed1.csv")
    assert t0["dist"][-1] != t1["dist"][-1]


def test_cmd_run_enforces_rsgda_feasibility(tmp_path):
    bad = _run_cfg(
        optimizer={"kind": "rsgda", "params": {}},
        plan={"kind": "constant", "alpha": 0.01, "eta": 0.1, "p": 0.5},
    )
    with pytest.raises(ConstraintError):
        cmd_run(bad, tmp_path / "x")
    ok = cmd_run({**bad, "waive_constraints": True}, tmp_path / "y")
    assert ok["per_seed"]["0"]["iters"] == 10


def test_cmd_run_seed_outputs_do_not_depend_on_other_seeds(tmp_path):
    cfg = _run_cfg(
        problem={
            "name": "scsc_quadratic",
            "params": {"a": 1.0, "coupling": [[0.4, 0.1], [0.0, 0.4]],
                       "m": 2, "n": 2, "sigma": 0.5},
        },
        optimizer={"kind": "rsgda", "params": {}},
        plan={"kind": "constant", "alpha": 0.05, "eta": 0.3, "p": 0.2},
        iters=60,
        init={"kind": "gauss", "scale": 2.0},
        diag={"interval": 7, "h": True, "v": True, "loss": True},
        waive_constraints=True,
    )
    # seeds_override leaves the config hash, and so every header, unchanged
    cmd_run(cfg, tmp_path / "alone", seeds_override=[7])
    cmd_run(cfg, tmp_path / "shared", seeds_override=[12, 7, 3])
    for name in ("trace_seed7.csv", "final_x_seed7.csv", "final_y_seed7.csv"):
        assert (tmp_path / "alone" / name).read_bytes() == (
            tmp_path / "shared" / name
        ).read_bytes()


# ---------------------------------------------------------------- compare

def _compare_cfg(**over):
    cfg = {
        "problem": {
            "name": "scsc_quadratic",
            "params": {"a": 1.0, "coupling": None, "m": 1, "n": 1, "sigma": 0.2},
        },
        "series": [
            {
                "label": "lazy",
                "optimizer": {"kind": "esgda", "params": {"m": 5}},
                "plan": {"kind": "constant", "alpha": 0.01, "eta": 0.1},
            },
            {
                "label": "coin",
                "optimizer": {"kind": "rsgda", "params": {}},
                "plan": {"kind": "constant", "alpha": 0.01, "eta": 0.1,
                         "p": 1.0 / 6.0},
            },
        ],
        "eval_budget": 600,
        "checkpoints": 10,
        "metrics": ["dist"],
        "seeds": [0],
        "init": {"kind": "point", "x": [2.0], "y": [1.0]},
    }
    cfg.update(over)
    return cfg


def test_cmd_compare_aligns_series_on_shared_eval_grid(tmp_path):
    out = tmp_path / "out"
    summary = cmd_compare(_compare_cfg(), out)
    # lcm of per-step costs (6, 1) is 6: 600 evals = 100 ticks, 10 rows
    assert summary["checkpoint_stride"] == 60
    assert summary["eval_budget"] == 600
    assert summary["rows"] == 10
    lines = (out / "compare_seed0.csv").read_text().splitlines()
    assert lines[1] == "evals,k_lazy,dist_lazy,k_coin,dist_coin"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(r[0]) for r in rows] == [60 * (j + 1) for j in range(10)]
    # checkpoint j holds each series' iterate after the same eval count
    assert [int(r[1]) for r in rows] == [10 * (j + 1) for j in range(10)]
    assert [int(r[3]) for r in rows] == [60 * (j + 1) for j in range(10)]
    assert summary["aggregate"]["lazy"]["final_dist_mean"] > 0


def test_cmd_compare_same_series_twice_gives_identical_columns(tmp_path):
    base = {
        "optimizer": {"kind": "sgda", "params": {}},
        "plan": {"kind": "constant", "alpha": 0.05, "eta": 0.05},
    }
    cfg = _compare_cfg(series=[{**base, "label": "a"}, {**base, "label": "b"}],
                       eval_budget=100, checkpoints=5)
    out = tmp_path / "out"
    cmd_compare(cfg, out)
    lines = (out / "compare_seed0.csv").read_text().splitlines()
    for line in lines[2:]:
        _, k_a, d_a, k_b, d_b = line.split(",")
        assert k_a == k_b and d_a == d_b


def test_cmd_compare_series_without_a_plan_take_the_top_level_one(tmp_path):
    plan = {"kind": "constant", "alpha": 0.05, "eta": 0.05}
    series = {"label": "a", "optimizer": {"kind": "sgda", "params": {}}}
    tables = []
    for name, over in (("top", {"plan": plan}), ("own", {})):
        entry = series if over else {**series, "plan": plan}
        cmd_compare(_compare_cfg(series=[entry], eval_budget=100, **over), tmp_path / name)
        # the first line carries the config hash, which differs
        tables.append((tmp_path / name / "compare_seed0.csv").read_text().splitlines()[1:])
    assert tables[0] == tables[1]


def test_cmd_compare_rejections(tmp_path):
    with pytest.raises(ConfigError, match="sgdmax"):
        cmd_compare(
            _compare_cfg(series=[{"label": "mx", "optimizer": {"kind": "sgdmax"},
                                  "plan": {"kind": "constant", "alpha": 0.01,
                                           "eta": 0.1}}]),
            tmp_path,
        )
    with pytest.raises(ConfigError, match="duplicate"):
        cfg = _compare_cfg()
        cfg["series"][1]["label"] = "lazy"
        cmd_compare(cfg, tmp_path)
    with pytest.raises(ConfigError, match="below one aligned checkpoint"):
        cmd_compare(_compare_cfg(eval_budget=3), tmp_path)
    with pytest.raises(ConfigError, match="metrics"):
        cmd_compare(_compare_cfg(metrics=["entropy"]), tmp_path)
    with pytest.raises(ConfigError, match="label"):
        cfg = _compare_cfg()
        cfg["series"][0]["label"] = "bad label!"
        cmd_compare(cfg, tmp_path)


def _wgan_compare_cfg(diag):
    return _compare_cfg(
        problem={
            "name": "gaussian_wgan",
            "params": {"disc_arch": [2, 3, 1], "batch": 5, "quad_nodes": 10},
        },
        init={"kind": "problem_default"},
        eval_budget=60,
        checkpoints=2,
        metrics=["h"],
        diag=diag,
    )


def test_cmd_compare_rejects_unknown_diag_key(tmp_path):
    with pytest.raises(ConfigError, match="inner_budgett"):
        cmd_compare(_wgan_compare_cfg({"inner_budgett": 5}), tmp_path)


def test_cmd_compare_rejects_string_inner_tol(tmp_path):
    with pytest.raises(ConfigError, match="inner_tol"):
        cmd_compare(_wgan_compare_cfg({"inner_tol": "1e-4"}), tmp_path)


# ---------------------------------------------------------------- pselect

def _pselect_cfg(sigma, **over):
    cfg = {
        "problem": {
            "name": "scsc_quadratic",
            "params": {"a": 1.0, "coupling": None, "m": 1, "n": 1, "sigma": sigma},
        },
        "delta": 1.0,
        "alpha": 0.1,
        "n_grid": [10_000, 1_000_000, 100_000_000],
    }
    cfg.update(over)
    return cfg


def test_cmd_pselect_noise_free_curve_is_flat_at_cap(tmp_path):
    out = tmp_path / "out"
    summary = cmd_pselect(_pselect_cfg(0.0), out)
    cap = p_max(make_scsc_quadratic(1.0, None, 1, 1).constants)
    assert all(row["p"] == cap for row in summary["curve"])
    assert summary["ada_schedule"]["p0"] == cap
    assert summary["ada_schedule"]["n1"] == 10_000
    lines = (out / "pselect_curve.csv").read_text().splitlines()
    assert lines[1] == "n,p"
    assert len(lines) == 5


def test_cmd_pselect_noisy_curve_decays_like_inverse_sqrt_n(tmp_path):
    summary = cmd_pselect(_pselect_cfg(0.5), tmp_path / "out")
    ps = [row["p"] for row in summary["curve"]]
    ns = [row["n"] for row in summary["curve"]]
    assert ps[0] > ps[1] > ps[2]
    scaled = [p * np.sqrt(n) for p, n in zip(ps, ns)]
    assert abs(scaled[2] / scaled[1] - 1.0) < 0.05


def test_cmd_pselect_probe_estimates_gap(tmp_path):
    cfg = _pselect_cfg(0.5, init={"kind": "point", "x": [2.0], "y": [1.0]},
                       probe={"iters": 50, "seed": 3})
    del cfg["delta"]
    summary = cmd_pselect(cfg, tmp_path / "out")
    assert summary["delta"] > 0
    probe = summary["probe"]
    assert probe["iters"] == 50 and probe["seed"] == 3
    assert probe["v_after_first_step"] >= summary["delta"] + probe["phi_lower_bound"] - 1e-12


def test_cmd_pselect_validation(tmp_path):
    with pytest.raises(ConfigError, match="n_grid"):
        cmd_pselect(_pselect_cfg(0.0, n_grid=[100, 10]), tmp_path)
    with pytest.raises(ConfigError, match="alpha"):
        cmd_pselect(_pselect_cfg(0.0, alpha=-0.1), tmp_path)
    with pytest.raises(ConfigError, match="delta"):
        cmd_pselect(_pselect_cfg(0.0, delta=0.0), tmp_path)


def test_cmd_pselect_probe_divergence_is_an_error_not_a_warning(tmp_path):
    # the first step lands where the merit value's matmul overflows
    configs = Path(__file__).resolve().parents[1] / "configs"
    cfg = json.loads((configs / "pselect_ncpl.json").read_text())
    cfg["probe"].update(alpha=1e300, eta=1e300, p=0.5, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="diverged at step 1:") as err:
            cmd_pselect(cfg, tmp_path)
    assert (err.value.seed, err.value.k, len(err.value.trace)) == (4, 1, 0)
    # slower growth: V first passes the cap at step 32, and the error
    # carries the 31 rows logged before it
    cfg["probe"].update(alpha=3.0, eta=3.0, seed=0)
    with pytest.raises(DivergenceError, match="diverged at step 32: V=") as err:
        cmd_pselect(cfg, tmp_path)
    assert (err.value.seed, err.value.k) == (0, 32)
    assert err.value.trace["k"] == list(range(1, 32))
    assert all(v <= 1e12 for v in err.value.trace["v"])
    # the first step overflows the iterate itself, which the engine refuses
    # before any V is logged
    cfg["probe"].update(alpha=1.7e308, eta=1.7e308)
    with pytest.raises(DivergenceError, match="step 1: non-finite iterate") as err:
        cmd_pselect(cfg, tmp_path)
    assert (err.value.seed, err.value.k, len(err.value.trace)) == (0, 1, 0)


def _ref_probe(problem, init, probe):
    """The pselect probe as one chain stepped by hand, one point at a time:
    (V after the first step, the smallest phi over the initial point and
    every step), with phi solved out of V and F at each point."""
    inner = {key: val for key, val in probe.items() if key.startswith("inner_")}

    def phi_of(point):
        v = lyapunov(problem, point, **inner)
        return v, (v + LYAPUNOV_C * problem.value(point)) / (1.0 + LYAPUNOV_C)

    state = init_state(init, RngStream(probe["seed"], stream_id=0))
    phi_min = phi_of(state.point)[1]
    for _ in range(probe["iters"]):
        state = rsgda_step(problem, state, probe["alpha"], probe["eta"], probe["p"])
        v, phi = phi_of(state.point)
        if state.k == 1:
            v1 = v
        phi_min = min(phi_min, phi)
    return v1, phi_min


_SMALL_WGAN = {
    "name": "gaussian_wgan",
    "params": {"disc_arch": [2, 3, 1], "batch": 5, "quad_nodes": 10},
}
_PROBE_CASES = {
    "ncpl_shipped": {},
    "robust_regression": {
        "problem": {"name": "robust_regression",
                    "params": {"n": 30, "d": 4, "rng_seed": 0, "batch": 10}},
        "init": None,
        "probe": {"iters": 40, "seed": 2, "p": 0.5, "alpha": 0.01, "eta": 0.01},
    },
    "gaussian_wgan": {
        "problem": _SMALL_WGAN,
        "init": None,
        "probe": {"iters": 12, "seed": 1, "p": 0.5, "alpha": 0.01, "eta": 0.01,
                  "inner_budget": 40},
    },
    "gaussian_wgan_inner_tol": {
        "problem": _SMALL_WGAN,
        "init": None,
        "probe": {"iters": 12, "seed": 1, "p": 0.5, "alpha": 0.01, "eta": 0.01,
                  "inner_tol": 1e-3, "inner_budget": 150},
    },
}


@pytest.mark.parametrize("case", list(_PROBE_CASES))
def test_cmd_pselect_probe_equals_a_hand_stepped_chain_bit_for_bit(tmp_path, case):
    configs = Path(__file__).resolve().parents[1] / "configs"
    cfg = json.loads((configs / "pselect_ncpl.json").read_text())
    cfg.update(_PROBE_CASES[case])
    cmd_pselect(cfg, tmp_path)
    written = read_json(tmp_path / "pselect.json")
    probe = written["probe"]
    problem = build_problem(cfg["problem"])
    init = build_init(cfg.get("init"), problem, probe["seed"])
    v1, phi_min = _ref_probe(problem, init, {**probe, **cfg["probe"]})
    assert probe["v_after_first_step"].hex() == v1.hex()
    assert probe["phi_lower_bound"].hex() == phi_min.hex()
    assert written["delta"].hex() == max(v1 - phi_min, 1e-12).hex()


# ---------------------------------------------------------------- check

def test_cmd_check_passes_on_well_posed_problem(tmp_path):
    cfg = {
        "problem": {
            "name": "scsc_quadratic",
            "params": {"a": 1.0, "coupling": None, "m": 2, "n": 2, "sigma": 0.3},
        },
        "seed": 0,
        "oracle": {"trials": 4000, "points": 4},
        "sweeps": {"contraction": {"points": 20}, "descent": {"points": 20}},
    }
    out = tmp_path / "out"
    report = cmd_check(cfg, out)
    assert report["passed"] is True
    assert report["oracle"]["passed"] is True
    assert report["contraction"]["worst_margin"] <= 1e-12
    assert report["descent"]["worst_residual"] >= -1e-10
    assert read_json(out / "check.json") == report


def test_cmd_check_reports_missing_nash_point(tmp_path):
    cfg = {
        "problem": {"name": "robust_regression",
                    "params": {"n": 30, "d": 4, "rng_seed": 0, "batch": 10}},
        "sweeps": {"contraction": {}},
        "oracle": {"trials": 800, "points": 2, "fd_coords": 4},
    }
    report = cmd_check(cfg, tmp_path / "out")
    assert report["contraction"]["passed"] is False
    assert report["passed"] is False


# ---------------------------------------------------------------- cli

_SHIPPED = {
    "run": "run_scsc_rsgda.json",
    "compare": "compare_wgan.json",
    "pselect": "pselect_ncpl.json",
    "check": "check_scsc.json",
}

# sha256 of every file the shipped configs write, first recorded when the
# batched-chain engine replaced the per-seed run loop; no change since has
# moved them
_SHIPPED_SHA256 = {
    "check_scsc/check.json": "c1c15315d22f66df03db0c58d8a151b61929c7b1aa08d6b78e4cdbed71738eb7",
    "compare_wgan/compare_seed0.csv": "6affef174553615c979a6010437c411d6b9373e7a2f37801d6b206d81ec2d3b9",
    "compare_wgan/compare_seed1.csv": "f4d8fd04b09f823657e6ca27949c542ee5230b42206c65b390111a720ee5bdd2",
    "compare_wgan/summary.json": "94bf365c34b2c32cbdb2c434100c798b0ea6e3b3c6d6e3b37edbe260d3d86947",
    "pselect_ncpl/pselect.json": "ad442358a4fcc6cf435a8925e59f032e807d06f9e6b6d12e48a628c8320030fb",
    "pselect_ncpl/pselect_curve.csv": "dd936ee20c573b76c666f5ae009a7a6757523a384f0ffbca198689c801524c70",
    "run_scsc_rsgda/final_x_seed0.csv": "8c97c811d899b39cc2ae65647f2713e21487ddfa3cbcd32f8dfbf5215554a873",
    "run_scsc_rsgda/final_x_seed1.csv": "e46dc3c76d8aba4c1a08044b68c75679fc39ef04db71061682aa110dd0576970",
    "run_scsc_rsgda/final_x_seed2.csv": "fbc627103b967df8a4f6c8f4b49fdd9f9743ab35c66d2803b80591490d095893",
    "run_scsc_rsgda/final_y_seed0.csv": "1cafdab1d6314803a954b47be8c12a20d41a3ed7b22d048f4f74eed0f498947d",
    "run_scsc_rsgda/final_y_seed1.csv": "45e2c3fd9c243553fd4d99bb231b78de0db20ffc3cb0b487177f2c4d5c913a44",
    "run_scsc_rsgda/final_y_seed2.csv": "ef8a2b73480eb7005f71b0373e2d4787138c5fba1ed0b89c850dc475156f6185",
    "run_scsc_rsgda/summary.json": "b9b053d7f2c1ec9d372809ce36657b4188491727b2c3e7cb7dd1e1724e044581",
    "run_scsc_rsgda/trace_seed0.csv": "03eafac093a75f6371243322d02ac2fa26ad3a098abedbde0190dc36fb7c4f16",
    "run_scsc_rsgda/trace_seed1.csv": "0d2e57de00b62125ee0030ef16898c01df524ff7472ba6977a7dfd142386d782",
    "run_scsc_rsgda/trace_seed2.csv": "42c5c1e867ea3798e2290d2c49b8b90a5d1d92c4857a5cca9ec59ade08036098",
}


def test_shipped_configs_write_their_pinned_outputs(tmp_path, capsys):
    configs = Path(__file__).resolve().parents[1] / "configs"
    for command, name in _SHIPPED.items():
        out = tmp_path / Path(name).stem
        assert main([command, str(configs / name), "--out", str(out)]) == 0
    got = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    differ = sorted(
        key for key in got.keys() | _SHIPPED_SHA256.keys()
        if got.get(key) != _SHIPPED_SHA256.get(key)
    )
    assert not differ, f"outputs that differ from their pinned sha256: {differ}"


# (command, edits to its shipped config by dotted path, the key the error
# must name); none of these exited 2 while the harness coerced values with
# int()/float()/bool(): most ran, some ended in a traceback
_MALFORMED = [
    ("check", {"oracle.trials": "many"}, "oracle.trials"),
    ("check", {"oracle.trails": 5}, "oracle.trails"),
    ("check", {"sweeps.descnet": {"points": 10}}, "sweeps.descnet"),
    ("check", {"sweeps.descent.points": 2.9}, "sweeps.descent.points"),
    ("check", {"sweeps.contraction.p": "half"}, "sweeps.contraction.p"),
    ("check", {"seed": 1.5}, "seed"),
    ("pselect", {"probe.iters": "x"}, "probe.iters"),
    ("pselect", {"probe.itres": 3}, "probe.itres"),
    ("pselect", {"alpha": "x"}, "alpha"),
    ("run", {"diag.interval": 2.7}, "diag.interval"),
    ("run", {"optimizer.params.tag": "hello"}, "optimizer.params.tag"),
    ("run", {"plan.alpha": "0.1"}, "plan.alpha"),
    ("run", {"plan.p.n1": "300"}, "plan.p.n1"),
    ("run", {"plan.p.n2": 299.9}, "plan.p.n2"),
    ("run", {"init.scale": "big"}, "init.scale"),
    # an infeasible plan, which "false" must not waive
    ("run", {"plan.alpha": 10.0, "waive_constraints": "false"}, "waive_constraints"),
    ("compare", {"series.0.optimizer.params.m": 5.5}, "optimizer.params.m"),
    # misspelt keys of the problem, optimizer and series objects, which
    # were silently ignored
    ("run", {"optimizer.parmas": {"delta": 0.5}}, "optimizer.parmas"),
    ("run", {"problem.parmas": {"sigma": 0.5}}, "problem.parmas"),
    ("compare", {"series.1.plna": {"kind": "constant", "alpha": 0.02}}, "series[1].plna"),
    ("compare", {"checkpoints": True}, "checkpoints"),
    # misspelt top-level keys, which every command silently ignored
    ("run", {"sedes": [9]}, "config.sedes"),
    ("run", {"diag ": {}}, "config.diag "),
    ("compare", {"checkpionts": 3}, "config.checkpionts"),
    ("pselect", {"delta_probe": None}, "config.delta_probe"),
    ("check", {"oracel": {"trials": 200}}, "config.oracel"),
    # problem.params, which only the factory checked: some values were
    # coerced ("0.5" built with sigma 0.5), others failed naming no key
    ("run", {"problem.params.sigma": "0.5"}, "problem.params.sigma"),
    ("run", {"problem.params.a": "1.0"}, "problem.params.a"),
    ("run", {"problem.params.m": 2.5}, "problem.params.m"),
    ("check", {"problem.params.coupling": [[0.4, "0"], [0.0, 0.4]]}, "problem.params.coupling[0][1]"),
    ("pselect", {"problem.params.c": None}, "problem.params.c"),
    # a ragged matrix, which numpy refused naming no key
    ("run", {"problem.params.coupling": [[0.4, 0.0], [0.0]]}, "problem.params.coupling[1]"),
    # inner-ascent settings, which failed only once a metric needed the
    # ascent (inner_tol) or silently turned h and V off (inner_budget)
    ("run", {"diag.inner_tol": 0.0}, "diag: DiagConfig: inner_tol"),
    ("run", {"diag.inner_budget": -1}, "diag: DiagConfig: inner_budget"),
    ("compare", {"problem.params.mu_star": [0.5]}, "problem.params.mu_star"),
    # probe values, which ran (alpha < 0, eta = 0, inner_tol = 0, and
    # inner_budget < 0 as if it were 0) or exited 1 (p outside (0, 1])
    ("pselect", {"probe.alpha": -0.1}, "probe.alpha"),
    ("pselect", {"probe.eta": 0.0}, "probe.eta"),
    ("pselect", {"probe.p": 0.0}, "probe.p: plan: p must lie in (0, 1], got 0.0"),
    ("pselect", {"probe.p": 2.0}, "probe.p: plan: p must lie in (0, 1], got 2.0"),
    ("pselect", {"probe.inner_tol": 0.0}, "probe.inner_tol"),
    ("pselect", {"probe.inner_budget": -3}, "probe.inner_budget"),
    # no closed phi: with no ascent step the engine logs no V to read
    ("pselect", {"problem": _SMALL_WGAN, "init": None, "probe.inner_budget": 0},
     "probe.inner_budget: must be >= 1"),
    # the probe block was read and then ignored
    ("pselect", {"delta": 0.5}, "delta and probe"),
    # a metric listed twice wrote its columns twice
    ("compare", {"metrics": ["dist", "dist"]}, "metrics: each metric may be listed once"),
    # check's own arguments, which skipped the finite-difference check
    # (fd_coords 0), ended in a traceback (fd_coords -1), failed on NaN
    # (fd_step 0), passed (contraction p 0) or exited 1 naming no key
    ("check", {"oracle.fd_coords": 0}, "oracle.fd_coords: check_oracle: fd_coords must be >= 1, got 0"),
    ("check", {"oracle.fd_coords": -1}, "oracle.fd_coords: check_oracle: fd_coords must be >= 1, got -1"),
    ("check", {"oracle.fd_step": 0.0}, "oracle.fd_step: check_oracle: fd_step must be > 0"),
    ("check", {"oracle.trials": 50}, "oracle.trials: check_oracle: trials must be >= 100"),
    ("check", {"oracle.points": 0}, "oracle.points: check_oracle: points must be >= 1"),
    ("check", {"oracle.point_scale": -1.0}, "oracle.point_scale: check_oracle: point_scale must be"),
    ("check", {"sweeps.contraction.scale": -1.0}, "sweeps.contraction.scale: sweep: scale must be"),
    # every point at the origin, the Nash point: exit 1 naming no key
    ("check", {"sweeps.contraction.scale": 0.0}, "sweeps.contraction.scale: sweep: scale must be finite and > 0, got 0.0"),
    ("check", {"sweeps.descent.p": 1.5}, "sweeps.descent.p: step_constraints: p must lie in (0, 1]"),
    ("check", {"sweeps.contraction.p": 0.0}, "sweeps.contraction.p: contraction_check: p must lie in (0, 1], got 0.0"),
    ("check", {"sweeps.contraction.p": 1.5}, "sweeps.contraction.p: contraction_check: p must lie in (0, 1], got 1.5"),
]


@pytest.mark.parametrize(
    "command,edits,key", _MALFORMED, ids=[f"{c}-{k}" for c, _, k in _MALFORMED]
)
def test_cli_exit_two_names_the_malformed_key(tmp_path, capsys, command, edits, key):
    configs = Path(__file__).resolve().parents[1] / "configs"
    cfg = json.loads((configs / _SHIPPED[command]).read_text())
    for path, value in edits.items():
        *parents, last = path.split(".")
        node = cfg
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        node[last] = value
    path = _write_cfg(tmp_path, cfg)
    assert main([command, path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_cli_run_exit_zero_and_seed_override(tmp_path):
    path = _write_cfg(tmp_path, _run_cfg())
    out = tmp_path / "cli_out"
    assert main(["run", path, "--out", str(out), "--seeds", "5"]) == 0
    assert (out / "trace_seed5.csv").exists()
    assert not (out / "trace_seed0.csv").exists()
    summary = read_json(out / "summary.json")
    assert summary["seeds"] == [5]
    # the override is folded into the config before hashing
    assert summary["config_hash"] == config_hash({**_run_cfg(), "seeds": [5]})


def test_cli_exit_two_on_config_errors(tmp_path, capsys):
    bad = _write_cfg(tmp_path, _run_cfg(optimizer={"kind": "adam"}))
    assert main(["run", bad, "--out", str(tmp_path / "o1")]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    no_iters = _run_cfg()
    del no_iters["iters"]
    assert main(["run", _write_cfg(tmp_path, no_iters, "n.json")]) == 2


def test_cli_exit_three_on_constraint_violation(tmp_path, capsys):
    cfg = _run_cfg(
        optimizer={"kind": "rsgda", "params": {}},
        plan={"kind": "constant", "alpha": 0.01, "eta": 0.1, "p": 0.5},
    )
    path = _write_cfg(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
    assert "constraint violation" in capsys.readouterr().err
    assert main(["run", path, "--out", str(tmp_path / "o2"),
                 "--waive-constraints"]) == 0


@pytest.mark.parametrize("alpha", [50.0, 0.0])
def test_cli_check_exit_three_on_contraction_alpha_outside_its_window(tmp_path, capsys, alpha):
    # at p = 1/2 the bound is proved for alpha in (0, 1.02) on this problem;
    # alpha = 50 (rho = 2401) and alpha = 0 (rho = 1) used to pass
    configs = Path(__file__).resolve().parents[1] / "configs"
    cfg = json.loads((configs / "check_scsc.json").read_text())
    cfg["sweeps"]["contraction"]["alpha"] = alpha
    path = _write_cfg(tmp_path, cfg)
    assert main(["check", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "constraint violation" in err and f"alpha={alpha} outside (0, " in err


def test_cli_exit_one_on_runtime_failure(tmp_path):
    # merit-based probe needs an inner maximum; the pure coupling problem
    # has none, which surfaces as a runtime failure, not a config error
    cfg = {
        "problem": {"name": "bilinear", "params": {"m": 1, "n": 1}},
        "alpha": 0.1,
        "n_grid": [100],
    }
    assert main(["pselect", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 1


def test_cli_divergence_names_seed_and_step_and_writes_partial_trace(tmp_path, capsys):
    cfg = {
        "problem": {"name": "bilinear", "params": {"m": 2, "n": 2, "sigma": 0.1}},
        "optimizer": {"kind": "sgda", "params": {}},
        "plan": {"kind": "constant", "alpha": 50.0, "eta": 50.0},
        "iters": 400,
        "seeds": [3, 4],
        "init": {"kind": "gauss"},
        "diag": {"interval": 10},
    }
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "seed 3 diverged at step k=91" in err
    assert "alpha=50.0, eta=50.0" in err
    trace, chash = read_trace_csv(out / "trace_seed3.csv")
    assert trace["k"] == list(range(10, 91, 10))
    assert chash == config_hash(cfg)


def test_cli_out_dir_resolution(tmp_path, monkeypatch):
    cfg_path = _write_cfg(tmp_path, _run_cfg(seeds=[0], iters=2))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GDAKIT_OUT", str(tmp_path / "from_env"))
    assert main(["run", cfg_path]) == 0
    assert (tmp_path / "from_env" / "summary.json").exists()
    cfg2 = _run_cfg(seeds=[0], iters=2, out_dir=str(tmp_path / "from_cfg"))
    assert main(["run", _write_cfg(tmp_path, cfg2, "c2.json")]) == 0
    assert (tmp_path / "from_cfg" / "summary.json").exists()


def test_cli_check_subcommand_reports_pass(tmp_path, capsys):
    cfg = {
        "problem": {
            "name": "scsc_quadratic",
            "params": {"a": 1.0, "coupling": None, "m": 1, "n": 1, "sigma": 0.0},
        },
        "oracle": {"trials": 500, "points": 2},
    }
    assert main(["check", _write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_console_script_installed(tmp_path):
    """Run the `gdakit` console script end to end as a separate process.

    With a `gdakit` executable on PATH, this runs that installed binary.
    Without one (the package is only on PYTHONPATH), it reads the entry
    point that `pyproject.toml` declares under `[project.scripts]`, checks
    that it is `gdakit.harness.cli:main`, and runs that function in a fresh
    interpreter the way the generated script would.
    """
    path = _write_cfg(tmp_path, _run_cfg(seeds=[0], iters=2))
    args = ["run", path, "--out", str(tmp_path / "o")]
    binary = shutil.which("gdakit")
    if binary is not None:
        proc = subprocess.run([binary, *args], capture_output=True,
                              text=True, cwd=tmp_path)
    else:
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["gdakit"]
        assert target == "gdakit.harness.cli:main"
        module, func = target.split(":")
        src = str(Path(gdakit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = f"import sys; from {module} import {func}; sys.exit({func}())"
        proc = subprocess.run([sys.executable, "-c", code, *args],
                              capture_output=True, text=True,
                              cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "wrote 1 trace(s)" in proc.stdout
