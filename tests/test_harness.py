"""Config parsing, file formats, the four harness commands, and CLI exit
codes, all against temp directories."""
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gdakit
from gdakit.core import ConstraintError, RngStream
from gdakit.diagnostics import TraceRecord
from gdakit.harness.cli import main
from gdakit.harness.commands import cmd_check, cmd_compare, cmd_pselect, cmd_run
from gdakit.harness.config import (
    ConfigError,
    build_init,
    build_optimizer,
    build_plan,
    build_problem,
    canonical_json,
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
    with pytest.raises(ConfigError, match="bad params"):
        build_problem({"name": "bilinear", "params": {"m": 1, "n": 1, "rho": 2}})
    with pytest.raises(ConfigError):
        build_problem({"name": "scsc_quadratic", "params": {"a": -1.0, "coupling": None, "m": 1, "n": 1}})
    with pytest.raises(ConfigError):
        build_problem("bilinear")


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

def _sample_records():
    return [
        TraceRecord(k=1, branch="x", alpha=0.1, eta=0.2, p=0.25,
                    grad_x_norm=1.5, grad_y_norm=None, h=0.125, v=None,
                    dist=2.0 ** 0.5, loss=-0.3),
        TraceRecord(k=2, branch="both", alpha=0.1, eta=0.2, p=None,
                    grad_x_norm=None, grad_y_norm=None, h=None, v=None,
                    dist=None, loss=None),
    ]


def test_trace_csv_round_trip_exact(tmp_path):
    path = tmp_path / "trace.csv"
    recs = _sample_records()
    write_trace_csv(path, recs, config_hash="abc123")
    back, chash = read_trace_csv(path)
    assert back == recs
    assert chash == "abc123"
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=abc123"
    assert lines[1].startswith("k,branch,alpha")
    assert len(lines) == 2 + len(recs)


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
        recs, chash = read_trace_csv(out / f"trace_seed{seed}.csv")
        assert len(recs) == 10
        assert [r.k for r in recs] == list(range(1, 11))
        assert chash == config_hash(cfg)
        x = read_params(out / f"final_x_seed{seed}.csv")
        assert x.shape == (1,)
        per = summary["per_seed"][str(seed)]
        assert per["iters"] == 10 and per["grad_evals"] == 20
        assert per["final_dist"] == recs[-1].dist
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
    r0, _ = read_trace_csv(out / "trace_seed0.csv")
    r1, _ = read_trace_csv(out / "trace_seed1.csv")
    assert r0[-1].dist != r1[-1].dist


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


def test_cli_exit_one_on_runtime_failure(tmp_path):
    # merit-based probe needs an inner maximum; the pure coupling problem
    # has none, which surfaces as a runtime failure, not a config error
    cfg = {
        "problem": {"name": "bilinear", "params": {"m": 1, "n": 1}},
        "delta_probe": None,
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
    recs, chash = read_trace_csv(out / "trace_seed3.csv")
    assert [r.k for r in recs] == list(range(10, 91, 10))
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
