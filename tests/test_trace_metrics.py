"""Stacked trace metrics: the h, V, loss, dist and gradient norms run_chains
logs for a block of iterates equal, bit for bit, a per-point reference
computed one logged iterate at a time with the single-point oracles."""
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

import gdakit.optimizers as optimizers
from gdakit.core import DivergenceError, RngStream, row_dot
from gdakit.diagnostics import (
    H_WEIGHTS,
    LYAPUNOV_C,
    TraceRecord,
    h_metric,
    lyapunov,
    phi_inner,
)
from gdakit.optimizers import DiagConfig, Rsgda, Sgda, SgdMax, run, run_chains
from gdakit.problems import (
    JointPoint,
    make_bilinear,
    make_gaussian_wgan,
    make_robust_regression,
    make_scsc_quadratic,
    random_ncpl_instance,
)
from gdakit.schedules import constant_plan

_KEYS = ("grad_x_norm", "grad_y_norm", "h", "v", "dist", "loss")


# -- per-point reference ------------------------------------------------------


def _ref_phi(problem, point, diag):
    """(phi, y*) at one point: closed form, or the certified inner ascent
    with its relative default tolerance."""
    if problem.closed_phi is not None:
        return problem.closed_phi(point.x)
    tol = diag.inner_tol
    if tol is None:
        tol = 1e-8 * max(1.0, abs(problem.value(point)))
    est = phi_inner(problem, point.x, point.y, tol, diag.inner_budget)
    return est.phi, est.y_hat


def _ref_h(problem, point, diag):
    _, y_star = _ref_phi(problem, point, diag)
    g_star = problem.exact_grad(JointPoint(point.x, y_star))
    g = problem.exact_grad(point)
    w_phi, w_gy, w_gx = H_WEIGHTS
    kappa2 = problem.constants.kappa**2
    return float(
        w_phi * (g_star.gx @ g_star.gx)
        + w_gy * kappa2 * (g.gy @ g.gy)
        + w_gx * (g.gx @ g.gx)
    )


def _ref_v(problem, point, diag, c=LYAPUNOV_C):
    phi, _ = _ref_phi(problem, point, diag)
    return float(phi + c * (phi - problem.value(point)))


def _metrics(problem, point, diag):
    """The logged metrics of one point, each from its own oracle calls."""
    out = dict.fromkeys(_KEYS)
    if diag.grad_norms:
        g = problem.exact_grad(point)
        out["grad_x_norm"] = float(np.linalg.norm(g.gx))
        out["grad_y_norm"] = float(np.linalg.norm(g.gy))
    can_phi = problem.pl_condition and (
        problem.closed_phi is not None or diag.inner_budget > 0
    )
    if diag.h and can_phi:
        out["h"] = _ref_h(problem, point, diag)
    if diag.v and can_phi:
        out["v"] = _ref_v(problem, point, diag)
    if diag.dist and problem.dist_to_opt is not None:
        out["dist"] = float(problem.dist_to_opt(point))
    if diag.loss:
        out["loss"] = float(problem.value(point))
    return out


@dataclass(frozen=True)
class _Recording:
    """A kind that steps like `inner` and keeps every step's iterates and
    branches, so the reference can log them one point at a time."""

    inner: object
    log: list = field(default_factory=list)

    @property
    def tag(self):
        return self.inner.tag

    @property
    def randomized(self):
        return self.inner.randomized

    def step(self, problem, x, y, rngs, alpha, eta, p, k):
        out = self.inner.step(problem, x, y, rngs, alpha, eta, p, k)
        self.log.append((out.x.copy(), out.y.copy(), list(out.branch)))
        return out


def _reference_records(problem, kind, plan, log, iters, diag):
    """Per chain, the records of the logged steps in `log`, each computed
    point by point; stops before the first non-finite step."""
    s = log[0][0].shape[0]
    records = [[] for _ in range(s)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (x, y, branch) in enumerate(log, start=1):
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                break
            if k % diag.interval and k != iters:
                continue
            p = plan.p(k - 1) if kind.randomized else None
            for i in range(s):
                met = _metrics(problem, JointPoint(x[i], y[i]), diag)
                records[i].append(
                    TraceRecord(k, branch[i], plan.alpha(k - 1), plan.eta(k - 1), p, **met)
                )
    return records


def _hex(v):
    """A float's exact bits (NaN equals NaN, 0.0 differs from -0.0)."""
    return v.hex() if isinstance(v, float) else v


def _bits(records):
    """Records as comparable tuples of exact bits."""
    return [
        (r.k, r.branch, *(_hex(getattr(r, key)) for key in ("alpha", "eta", "p", *_KEYS)))
        for r in records
    ]


# -- problems -----------------------------------------------------------------


def _without_closed_phi(problem):
    problem.closed_phi = None
    return problem


PROBLEMS = {
    "scsc_quadratic": lambda: make_scsc_quadratic(
        1.0, [[0.4, 0.1], [-0.2, 0.4]], 2, 2, sigma=0.5
    ),
    "random_ncpl": lambda: random_ncpl_instance(3, sigma=0.5),
    # no phi: h and v stay None
    "bilinear": lambda: make_bilinear(3, 3, sigma=0.3),
    # per-row closed_phi_batch, value_batch and exact_grad_batch
    "robust_regression": lambda: make_robust_regression(
        n=30, d=4, reg_arch=(4, 3, 1), batch=10, rng_seed=2
    ),
    # no closed phi: h and v through the inner ascent (the tests' budget of
    # 3 steps leaves it uncertified)
    "gaussian_wgan": lambda: make_gaussian_wgan(disc_arch=(2, 3, 1), batch=5, quad_nodes=10),
    # the strongly concave inner problem without its closed phi: the ascent
    # certifies, and at |F| > 1 its relative default tolerance differs by row
    "scsc_inner_ascent": lambda: _without_closed_phi(
        make_scsc_quadratic(1.0, [[0.4, 0.1], [-0.2, 0.4]], 2, 2, sigma=0.5)
    ),
}

DIAGS = {
    "interval1_all": DiagConfig(interval=1, h=True, v=True, loss=True),
    "interval3_no_norms": DiagConfig(interval=3, grad_norms=False, h=True, loss=True),
    "interval4_v_only": DiagConfig(interval=4, grad_norms=False, v=True, dist=False),
    "default": DiagConfig(interval=2),
}


def _run_and_reference(
    prob, diag, seeds, iters, kind=Rsgda(), plan=None, inner_budget=None, scale=0.5
):
    if inner_budget is not None:
        diag = replace(diag, inner_budget=inner_budget)
    plan = plan or constant_plan(0.02, 0.05, 0.3)
    rec = _Recording(kind)
    inits = [prob.random_point(RngStream(seed, 1), scale) for seed in seeds]
    results = run_chains(
        prob, rec, plan, inits, iters, [RngStream(seed, 0) for seed in seeds], diag,
        waive_constraints=True,
    )
    return results, _reference_records(prob, kind, plan, rec.log, iters, diag)


@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("diag_name", DIAGS)
@pytest.mark.parametrize("problem_name", ["scsc_quadratic", "random_ncpl", "bilinear"])
def test_stacked_records_equal_per_point_reference(problem_name, diag_name, block, monkeypatch):
    monkeypatch.setattr(optimizers, "_LOG_BLOCK", block)
    prob = PROBLEMS[problem_name]()
    results, ref = _run_and_reference(prob, DIAGS[diag_name], [11, 5, 8], 23)
    for res, want in zip(results, ref):
        assert want  # the reference logged something to compare against
        assert _bits(res.records) == _bits(want)
    if problem_name == "bilinear":
        assert all(r.h is None and r.v is None for res in results for r in res.records)


@pytest.mark.parametrize("block", [1, 7, 1024])
def test_robust_regression_per_row_defaults_equal_reference(block, monkeypatch):
    monkeypatch.setattr(optimizers, "_LOG_BLOCK", block)
    prob = PROBLEMS["robust_regression"]()
    results, ref = _run_and_reference(prob, DIAGS["interval1_all"], [2, 9, 4], 6)
    for res, want in zip(results, ref):
        assert len(want) == 6
        assert _bits(res.records) == _bits(want)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("inner_tol", [None, 1e-6])
def test_wgan_inner_ascent_metrics_equal_reference(block, inner_tol, monkeypatch):
    monkeypatch.setattr(optimizers, "_LOG_BLOCK", block)
    prob = PROBLEMS["gaussian_wgan"]()
    diag = DiagConfig(interval=2, h=True, v=True, loss=True, inner_tol=inner_tol)
    results, ref = _run_and_reference(
        prob, diag, [1, 6, 3], 4, plan=constant_plan(0.01, 0.01, 0.5), inner_budget=3
    )
    for res, want in zip(results, ref):
        assert len(want) == 2
        assert all(r.h is not None and r.v is not None for r in res.records)
        assert _bits(res.records) == _bits(want)


@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("diag_name", ["interval1_all", "interval3_no_norms", "interval4_v_only"])
def test_certified_inner_ascent_metrics_equal_reference(diag_name, block, monkeypatch):
    monkeypatch.setattr(optimizers, "_LOG_BLOCK", block)
    prob = PROBLEMS["scsc_inner_ascent"]()
    results, ref = _run_and_reference(prob, DIAGS[diag_name], [11, 5, 8], 9, scale=3.0)
    for res, want in zip(results, ref):
        assert want
        assert _bits(res.records) == _bits(want)


def test_rows_do_not_depend_on_block_size(monkeypatch):
    prob = PROBLEMS["random_ncpl"]()
    seeds = [4, 2, 9]
    inits = [prob.random_point(RngStream(seed, 1), 1.0) for seed in seeds]
    diag = DiagConfig(interval=1, h=True, v=True, loss=True)
    outs = []
    for block in (1, 2, 5, 1024):
        monkeypatch.setattr(optimizers, "_LOG_BLOCK", block)
        res = run_chains(
            prob, SgdMax(delta=1e-4, inner_max_iters=5), constant_plan(0.02, 0.05, 0.3),
            inits, 17, [RngStream(seed, 0) for seed in seeds], diag,
        )
        outs.append([(_bits(r.records), r.summary) for r in res])
    assert all(o == outs[0] for o in outs[1:])


@pytest.mark.parametrize("block", [1, 7, 1024])
def test_divergence_mid_block_carries_complete_partial_trace(block, monkeypatch):
    # sgda on the bilinear problem at alpha = eta = 50: seed 3 diverges at
    # k = 91; at block 7 (2 chains, so 4 logged steps per pass) the step
    # k = 90 is still buffered then, at block 1024 all nine logged steps are
    monkeypatch.setattr(optimizers, "_LOG_BLOCK", block)
    prob = make_bilinear(2, 2, sigma=0.1)
    seeds = [3, 4]
    rec = _Recording(Sgda())
    plan = constant_plan(50.0, 50.0)
    diag = DiagConfig(interval=10)
    inits = [prob.random_point(RngStream(seed, 1), 1.0) for seed in seeds]
    with pytest.raises(DivergenceError) as err:
        run_chains(prob, rec, plan, inits, 400, [RngStream(s, 0) for s in seeds], diag)
    exc = err.value
    ref = _reference_records(prob, Sgda(), plan, rec.log, 400, diag)
    i = seeds.index(exc.seed)
    assert (exc.seed, exc.k) == (3, 91)
    assert [r.k for r in exc.records] == list(range(10, 91, 10))
    assert _bits(exc.records) == _bits(ref[i])


def test_zero_iterations_summary_uses_stacked_metrics_of_initial_points():
    prob = PROBLEMS["random_ncpl"]()
    seeds = [7, 1, 3]
    inits = [prob.random_point(RngStream(seed, 1), 1.0) for seed in seeds]
    diag = DiagConfig(h=True, v=True, loss=True)
    results = run_chains(
        prob, Rsgda(), constant_plan(0.02, 0.05, 0.3), inits, 0,
        [RngStream(seed, 0) for seed in seeds], diag,
    )
    for init, res in zip(inits, results):
        assert res.records == []
        want = _metrics(prob, init, diag)
        got = {key: res.summary[f"final_{key}"] for key in _KEYS}
        assert {k: _hex(v) for k, v in got.items()} == {k: _hex(v) for k, v in want.items()}
        assert got["h"] is not None and got["v"] is not None


@pytest.mark.parametrize("problem_name", ["scsc_quadratic", "random_ncpl", "robust_regression"])
def test_h_metric_and_lyapunov_keep_their_bits(problem_name):
    prob = PROBLEMS[problem_name]()
    diag = DiagConfig()
    rng = RngStream(5, 2)
    for _ in range(20):
        pt = prob.random_point(rng, 2.0)
        assert h_metric(prob, pt).hex() == _ref_h(prob, pt, diag).hex()
        assert lyapunov(prob, pt).hex() == _ref_v(prob, pt, diag).hex()
        assert lyapunov(prob, pt, 0.3).hex() == _ref_v(prob, pt, diag, 0.3).hex()


@pytest.mark.parametrize("problem_name", ["gaussian_wgan", "scsc_inner_ascent"])
def test_h_metric_and_lyapunov_keep_their_bits_on_inner_ascent(problem_name):
    prob = PROBLEMS[problem_name]()
    rng = RngStream(8, 2)
    for budget, tol in ((3, None), (50, 1e-7), (200, None)):
        diag = DiagConfig(inner_tol=tol, inner_budget=budget)
        for _ in range(3):
            pt = prob.random_point(rng, 3.0)
            kw = {"inner_tol": tol, "inner_budget": budget}
            assert h_metric(prob, pt, **kw).hex() == _ref_h(prob, pt, diag).hex()
            assert lyapunov(prob, pt, **kw).hex() == _ref_v(prob, pt, diag).hex()


def test_norms_match_np_linalg_norm_bit_for_bit():
    rng = RngStream(12, 0)
    for dim in (1, 2, 3, 5, 8, 17, 33, 100):
        stack = rng.gauss(9 * dim, 3.0).reshape(9, dim) * np.exp(rng.gauss(9, 5.0))[:, None]
        got = np.sqrt(row_dot(stack, stack))
        assert [v.hex() for v in got.tolist()] == [
            float(np.linalg.norm(row)).hex() for row in stack
        ]


@pytest.mark.parametrize(
    "diag", [DiagConfig(), DiagConfig(h=True), DiagConfig(h=True, v=True, loss=True)]
)
def test_finite_iterate_with_overflowing_gradient_logs_inf(diag):
    # the y step lands on y = 1.5e308, where grad_x F = x + 0.4 y overflows
    prob = make_scsc_quadratic(1.0, [[0.4, 0], [0, 0.4]], 2, 2, 0.0)
    plan = constant_plan(1e-3, 35.0, 1e-12)
    init = JointPoint([1.2e308, 0.0], [0.45e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(prob, Rsgda(), plan, init, 1, RngStream(0, 0), diag, waive_constraints=True)
    assert np.isfinite(res.final.x).all() and np.isfinite(res.final.y).all()
    (record,) = res.records
    assert record.branch == "y"
    assert record.grad_x_norm == math.inf
    assert record.dist == math.inf
    if diag.h:
        assert record.h == math.inf
    assert res.summary["final_grad_x_norm"] == math.inf
