"""Step formulas on hand-computed examples, oracle-cost counters, and the
run() driver's logging and determinism guarantees."""
import numpy as np
import pytest

from gdakit.core import ConstraintError, ParameterError, RngStream
from gdakit.optimizers import (
    DiagConfig,
    Esgda,
    OptState,
    Rsgda,
    Sgda,
    SgdMax,
    esgda_step,
    init_state,
    rsgda_step,
    run,
    sgda_step,
    sgdmax_step,
)
from gdakit.problems import JointPoint, make_bilinear, make_ncpl_quadratic, make_scsc_quadratic
from gdakit.schedules import constant_plan


def _state(x, y, seed=0):
    pt = JointPoint(np.atleast_1d(np.asarray(x, dtype=float)),
                    np.atleast_1d(np.asarray(y, dtype=float)))
    return init_state(pt, RngStream(seed, 0))


# ---------------------------------------------------------------- sgda

def test_sgda_bilinear_step_values():
    # F = x y from (1, 1): ascent first, so the descent direction is the
    # updated y, and the squared norm grows past 2.
    prob = make_bilinear(1, 1)
    s1 = sgda_step(prob, _state(1.0, 1.0), 0.1, 0.1)
    assert abs(s1.point.y[0] - 1.1) < 1e-15
    assert abs(s1.point.x[0] - 0.89) < 1e-15
    u_sq = float(s1.point.x @ s1.point.x + s1.point.y @ s1.point.y)
    assert abs(u_sq - 2.0021) < 1e-12
    assert u_sq > 2.0


def test_sgda_bilinear_never_approaches_saddle():
    # the alternating map has unit determinant here, so iterates circulate on
    # a bounded ellipse around the saddle instead of converging to it
    prob = make_bilinear(1, 1)
    state = _state(1.0, 1.0)
    norms = []
    for _ in range(500):
        state = sgda_step(prob, state, 0.1, 0.1)
        norms.append(float(state.point.x @ state.point.x + state.point.y @ state.point.y))
    assert min(norms) > 1.5
    assert max(norms) < 2.5


def test_sgda_scsc_step_values():
    # F = x^2/2 - y^2/2 from (2, 1): both blocks contract by 0.9.
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    s1 = sgda_step(prob, _state(2.0, 1.0), 0.1, 0.1)
    assert abs(s1.point.x[0] - 1.8) < 1e-15
    assert abs(s1.point.y[0] - 0.9) < 1e-15
    assert s1.k == 1 and s1.x_steps == 1 and s1.y_steps == 1 and s1.grad_evals == 2


def test_sgda_zero_eta_is_descent_only():
    prob = make_bilinear(1, 1)
    state = _state(1.0, 1.0)
    for _ in range(3):
        state = sgda_step(prob, state, 0.1, 0.0)
    assert state.point.y[0] == 1.0
    # with y pinned at 1 the x update is x <- x - 0.1 * 1 each step
    assert abs(state.point.x[0] - 0.7) < 1e-15


def test_sgda_strict_reuse_matches_manual_single_sample():
    prob = make_scsc_quadratic(1.0, None, 2, 2, sigma=1.0)
    pt = JointPoint(np.array([1.0, -0.5]), np.array([0.25, 2.0]))

    ref = RngStream(7, 0)
    z = prob.draw_sample(ref)
    gy = prob.grad_with_sample(pt, z).gy
    y_new = pt.y + 0.05 * gy
    gx = prob.grad_with_sample(JointPoint(pt.x, y_new), z).gx
    x_new = pt.x - 0.1 * gx

    state = init_state(pt, RngStream(7, 0))
    out = sgda_step(prob, state, 0.1, 0.05, strict_sample_reuse=True)
    assert np.array_equal(out.point.x, x_new)
    assert np.array_equal(out.point.y, y_new)


def test_sgda_strict_and_fresh_agree_without_noise_only():
    prob0 = make_scsc_quadratic(1.0, None, 2, 2, sigma=0.0)
    pt = JointPoint(np.array([1.0, -0.5]), np.array([0.25, 2.0]))
    a = sgda_step(prob0, init_state(pt, RngStream(3, 0)), 0.1, 0.05)
    b = sgda_step(prob0, init_state(pt, RngStream(3, 0)), 0.1, 0.05,
                  strict_sample_reuse=True)
    assert np.array_equal(a.point.x, b.point.x)
    assert np.array_equal(a.point.y, b.point.y)

    prob1 = make_scsc_quadratic(1.0, None, 2, 2, sigma=1.0)
    a = sgda_step(prob1, init_state(pt, RngStream(3, 0)), 0.1, 0.05)
    b = sgda_step(prob1, init_state(pt, RngStream(3, 0)), 0.1, 0.05,
                  strict_sample_reuse=True)
    assert not np.array_equal(a.point.x, b.point.x)


# ---------------------------------------------------------------- sgdmax

def _inner_max_problem():
    # F(x, y) = x y - y^2/2, so y*(x) = x and phi(x) = x^2/2.
    return make_ncpl_quadratic(np.zeros((1, 1)), 0.0, np.eye(1), np.eye(1))


def test_sgdmax_solves_inner_then_descends():
    prob = _inner_max_problem()
    out = sgdmax_step(prob, _state(1.0, 0.0), 0.1, 1e-12)
    # inner ascent drives y to y*(1) = 1, then x <- 1 - 0.1 * y
    assert abs(out.point.y[0] - 1.0) < 2e-6
    assert abs(out.point.x[0] - 0.9) < 1e-6
    assert out.x_steps == 1 and out.y_steps > 0
    assert out.grad_evals == out.y_steps + 1
    assert out.warnings == ()


def test_sgdmax_huge_delta_skips_inner_loop():
    prob = _inner_max_problem()
    out = sgdmax_step(prob, _state(1.0, 0.0), 0.1, 1e6)
    assert out.point.y[0] == 0.0
    assert out.y_steps == 0 and out.grad_evals == 1
    # grad_x at (1, 0) is y = 0, so x does not move either
    assert out.point.x[0] == 1.0


def test_sgdmax_at_inner_optimum_takes_no_ascent_steps():
    prob = _inner_max_problem()
    out = sgdmax_step(prob, _state(1.0, 1.0), 0.1, 1e-12)
    assert out.point.y[0] == 1.0
    assert out.y_steps == 0
    assert abs(out.point.x[0] - 0.9) < 1e-15


def test_sgdmax_budget_exhaustion_warns_instead_of_failing():
    prob = _inner_max_problem()
    out = sgdmax_step(prob, _state(1.0, 0.0), 0.1, 1e-12, inner_max_iters=1)
    assert len(out.warnings) == 1
    assert "inner budget" in out.warnings[0]
    assert out.y_steps == 1


def test_sgdmax_rejects_bad_delta():
    prob = _inner_max_problem()
    with pytest.raises(ParameterError):
        sgdmax_step(prob, _state(1.0, 0.0), 0.1, 0.0)
    with pytest.raises(ParameterError):
        SgdMax(delta=-1.0)
    with pytest.raises(ParameterError):
        SgdMax(inner_max_iters=0)


# ---------------------------------------------------------------- esgda

def test_esgda_bilinear_two_ascent_steps():
    prob = make_bilinear(1, 1)
    out = esgda_step(prob, _state(1.0, 1.0), 0.1, 0.1, m=2)
    # grad_y = x stays 1 during the inner loop: y goes 1 -> 1.1 -> 1.2
    assert abs(out.point.y[0] - 1.2) < 1e-15
    assert abs(out.point.x[0] - 0.88) < 1e-15
    assert out.y_steps == 2 and out.x_steps == 1 and out.grad_evals == 3


def test_esgda_m1_matches_sgda_when_exact():
    prob = make_scsc_quadratic(1.5, 0.4 * np.eye(2), 2, 2)
    pt = JointPoint(np.array([0.7, -1.1]), np.array([0.2, 0.9]))
    a = sgda_step(prob, init_state(pt, RngStream(5, 0)), 0.08, 0.03)
    b = esgda_step(prob, init_state(pt, RngStream(5, 0)), 0.08, 0.03, m=1)
    assert np.array_equal(a.point.x, b.point.x)
    assert np.array_equal(a.point.y, b.point.y)


def test_esgda_rejects_bad_m():
    prob = make_bilinear(1, 1)
    with pytest.raises(ParameterError):
        esgda_step(prob, _state(1.0, 1.0), 0.1, 0.1, m=0)
    with pytest.raises(ParameterError):
        Esgda(m=0)


# ---------------------------------------------------------------- rsgda

def test_rsgda_p_one_always_descends():
    prob = make_bilinear(1, 1)
    state = _state(1.0, 1.0)
    s1 = rsgda_step(prob, state, 0.1, 0.1, p=1.0)
    assert abs(s1.point.x[0] - 0.9) < 1e-15
    assert s1.point.y[0] == 1.0
    assert s1.last_branch == "x"
    assert s1.x_steps == 1 and s1.y_steps == 0 and s1.grad_evals == 1


def test_rsgda_tiny_p_takes_ascent_branch():
    prob = make_bilinear(1, 1)
    s1 = rsgda_step(prob, _state(1.0, 1.0), 0.1, 0.1, p=1e-15)
    assert s1.point.x[0] == 1.0
    assert abs(s1.point.y[0] - 1.1) < 1e-15
    assert s1.last_branch == "y"
    assert s1.x_steps == 0 and s1.y_steps == 1


def test_rsgda_branch_fraction_matches_p():
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    n = 100_000
    # one chain: the same steps on the same stream as n rsgda_step calls
    # from _state(0.5, 0.5, seed=11)
    res = run(
        prob, Rsgda(), constant_plan(0.01, 0.01, 0.25),
        JointPoint(np.array([0.5]), np.array([0.5])), n, RngStream(11, 0),
        DiagConfig(interval=n, grad_norms=False, dist=False), waive_constraints=True,
    )
    frac = res.summary["x_steps"] / n
    se = np.sqrt(0.25 * 0.75 / n)
    assert abs(frac - 0.25) < 3 * se
    assert res.summary["x_steps"] + res.summary["y_steps"] == n
    assert res.summary["grad_evals"] == n


def test_rsgda_stream_use_is_branch_independent():
    # The sample is drawn before the coin, so the stream position after a
    # step is the same whichever branch fired.
    prob = make_scsc_quadratic(1.0, None, 2, 2, sigma=1.0)
    pt = JointPoint(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    a = rsgda_step(prob, init_state(pt, RngStream(9, 0)), 0.1, 0.1, p=1.0)
    b = rsgda_step(prob, init_state(pt, RngStream(9, 0)), 0.1, 0.1, p=1e-15)
    assert a.last_branch == "x" and b.last_branch == "y"
    assert np.array_equal(a.rng.gauss(4, 1.0), b.rng.gauss(4, 1.0))


def test_rsgda_rejects_bad_p():
    prob = make_bilinear(1, 1)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ParameterError):
            rsgda_step(prob, _state(1.0, 1.0), 0.1, 0.1, p=bad)


# ---------------------------------------------------------------- run()

def test_evals_per_step_table():
    assert Sgda().evals_per_step == 2
    assert Esgda(m=5).evals_per_step == 6
    assert Rsgda().evals_per_step == 1
    assert SgdMax().evals_per_step is None


def test_run_logs_one_record_per_step_at_interval_one():
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    res = run(prob, Sgda(), constant_plan(0.1, 0.1), JointPoint([2.0], [1.0]),
              iters=10, rng=RngStream(0, 0))
    assert res.trace["k"] == list(range(1, 11))
    assert res.summary["iters"] == 10
    assert res.summary["grad_evals"] == 20


def test_run_interval_logging_keeps_final_row():
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    res = run(prob, Sgda(), constant_plan(0.1, 0.1), JointPoint([2.0], [1.0]),
              iters=10, rng=RngStream(0, 0), diag=DiagConfig(interval=3))
    assert res.trace["k"] == [3, 6, 9, 10]


def test_run_zero_iters_gives_empty_trace_and_init_metrics():
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    init = JointPoint([2.0], [1.0])
    res = run(prob, Sgda(), constant_plan(0.1, 0.1), init, iters=0,
              rng=RngStream(0, 0))
    assert len(res.trace) == 0
    assert res.summary["iters"] == 0 and res.summary["grad_evals"] == 0
    assert np.array_equal(res.final.x, init.x)
    assert res.summary["final_dist"] == pytest.approx(np.sqrt(5.0))
    g = prob.exact_grad(init)
    assert res.summary["final_grad_x_norm"] == pytest.approx(np.linalg.norm(g.gx))


def test_run_is_bit_identical_for_fixed_seed():
    prob = make_scsc_quadratic(1.0, 0.4 * np.eye(2), 2, 2, sigma=0.5)
    init = JointPoint([1.0, -1.0], [0.5, 0.5])
    kw = dict(iters=50, diag=DiagConfig(interval=5, loss=True))
    r1 = run(prob, Sgda(), constant_plan(0.05, 0.05), init, rng=RngStream(42, 0), **kw)
    r2 = run(prob, Sgda(), constant_plan(0.05, 0.05), init, rng=RngStream(42, 0), **kw)
    assert np.array_equal(r1.final.x, r2.final.x)
    assert np.array_equal(r1.final.y, r2.final.y)
    assert r1.trace == r2.trace
    assert r1.summary == r2.summary


def test_run_summary_recomputable_from_trace():
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    diag = DiagConfig(interval=2, h=True, v=True, loss=True)
    res = run(prob, Sgda(), constant_plan(0.1, 0.1), JointPoint([2.0], [1.0]),
              iters=20, rng=RngStream(1, 0), diag=diag)
    t = res.trace
    s = res.summary
    assert s["final_h"] == t["h"][-1] and s["final_v"] == t["v"][-1]
    assert s["final_dist"] == t["dist"][-1] and s["final_loss"] == t["loss"][-1]
    assert s["min_h"] == min(t["h"])
    assert s["min_h"] <= s["final_h"]


def test_run_counters_by_kind():
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    init = JointPoint([2.0], [1.0])
    res = run(prob, Esgda(m=3), constant_plan(0.05, 0.05), init, iters=7,
              rng=RngStream(2, 0))
    assert res.summary["grad_evals"] == 7 * 4
    assert res.summary["y_steps"] == 21 and res.summary["x_steps"] == 7
    res = run(prob, Rsgda(), constant_plan(0.05, 0.1, 0.1), init, iters=7,
              rng=RngStream(2, 0))
    assert res.summary["grad_evals"] == 7
    assert res.summary["x_steps"] + res.summary["y_steps"] == 7


def test_run_validates_rsgda_plan_against_constraints():
    # l1 = mu = 1: at alpha = 0.01, p = 0.5 the ascent step must be at least
    # 18 * (p/(1-p)) * alpha = 0.18, so eta = 0.1 is refused.
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    init = JointPoint([2.0], [1.0])
    bad = constant_plan(0.01, 0.1, 0.5)
    with pytest.raises(ConstraintError):
        run(prob, Rsgda(), bad, init, iters=10, rng=RngStream(0, 0))
    res = run(prob, Rsgda(), bad, init, iters=10, rng=RngStream(0, 0),
              waive_constraints=True)
    assert res.summary["iters"] == 10
    ok = constant_plan(0.01, 0.3, 0.5)
    res = run(prob, Rsgda(), ok, init, iters=10, rng=RngStream(0, 0))
    assert res.summary["iters"] == 10


def test_run_only_checks_constraints_for_randomized_kind():
    # the same infeasible step sizes pass through for the two-sample method
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    res = run(prob, Sgda(), constant_plan(0.01, 5.0), JointPoint([2.0], [1.0]),
              iters=3, rng=RngStream(0, 0))
    assert res.summary["iters"] == 3


def test_run_records_plan_p_only_for_randomized_kind():
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    init = JointPoint([2.0], [1.0])
    r_rand = run(prob, Rsgda(), constant_plan(0.01, 0.3, 0.1), init, iters=3,
                 rng=RngStream(0, 0))
    assert all(p == 0.1 for p in r_rand.trace["p"])
    assert all(b in ("x", "y") for b in r_rand.trace["branch"])
    r_two = run(prob, Sgda(), constant_plan(0.01, 0.3), init, iters=3,
                rng=RngStream(0, 0))
    assert all(p is None for p in r_two.trace["p"])
    assert all(b == "both" for b in r_two.trace["branch"])


def test_run_h_logging_skipped_without_inner_concavity():
    prob = make_bilinear(1, 1)
    res = run(prob, Sgda(), constant_plan(0.1, 0.1), JointPoint([1.0], [1.0]),
              iters=5, rng=RngStream(0, 0), diag=DiagConfig(h=True, v=True))
    assert all(v is None for v in res.trace["h"] + res.trace["v"])
    assert res.summary["min_h"] is None


def test_run_rejects_negative_iters_and_bad_interval():
    prob = make_bilinear(1, 1)
    with pytest.raises(ParameterError):
        run(prob, Sgda(), constant_plan(0.1, 0.1), JointPoint([1.0], [1.0]),
            iters=-1, rng=RngStream(0, 0))
    with pytest.raises(ParameterError):
        DiagConfig(interval=0)


def test_run_provenance_carries_stream_identity():
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    res = run(prob, Sgda(), constant_plan(0.1, 0.1), JointPoint([2.0], [1.0]),
              iters=2, rng=RngStream(123, 4), provenance={"note": "demo"})
    assert res.provenance["base_seed"] == 123
    assert res.provenance["stream_id"] == 4
    assert res.provenance["note"] == "demo"


def test_run_sgdmax_counts_inner_work():
    prob = _inner_max_problem()
    res = run(prob, SgdMax(delta=1e-10), constant_plan(0.1, 0.1),
              JointPoint([1.0], [0.0]), iters=3, rng=RngStream(0, 0))
    assert res.summary["x_steps"] == 3
    assert res.summary["grad_evals"] == res.summary["y_steps"] + 3
    assert res.summary["warnings"] == 0
