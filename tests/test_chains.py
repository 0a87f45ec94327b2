"""The batched-chain engine: the batched gradient oracle's rows match the
per-point oracle bit for bit, and a chain's outputs do not depend on which
other chains step beside it."""
import numpy as np
import pytest

from gdakit.core import RngStream
from gdakit.optimizers import DiagConfig, Esgda, Rsgda, Sgda, SgdMax, run, run_chains
from gdakit.problems import (
    Problem,
    make_bilinear,
    make_robust_regression,
    make_scsc_quadratic,
    random_ncpl_instance,
)
from gdakit.schedules import constant_plan

PROBLEMS = {
    "scsc_2x2": lambda: make_scsc_quadratic(1.0, [[0.4, 0.1], [-0.2, 0.4]], 2, 2, sigma=0.5),
    "random_ncpl_4x5": lambda: random_ncpl_instance(7, sigma=0.5),
    # no batched override: the per-row default of Problem
    "robust_regression": lambda: make_robust_regression(n=40, d=5, batch=8, rng_seed=3),
}

KINDS = {
    "sgda": Sgda(),
    "sgda_strict": Sgda(strict_sample_reuse=True),
    "esgda": Esgda(m=3),
    "rsgda": Rsgda(),
    # small budget: some chains exhaust it, so warnings are compared too
    "sgdmax": SgdMax(delta=1e-4, inner_max_iters=30),
}


@pytest.mark.parametrize("problem_name", PROBLEMS)
@pytest.mark.parametrize("kind_name", KINDS)
def test_chain_outputs_do_not_depend_on_companion_chains(problem_name, kind_name):
    prob = PROBLEMS[problem_name]()
    kind = KINDS[kind_name]
    plan = constant_plan(0.02, 0.05, 0.3)
    diag = DiagConfig(interval=4, h=True, v=True, loss=True)
    seeds = [11, 5, 8]
    inits = [prob.random_point(RngStream(seed, 1), 0.5) for seed in seeds]
    batch = run_chains(
        prob, kind, plan, inits, 25, [RngStream(seed, 0) for seed in seeds], diag,
        waive_constraints=True,
    )
    for seed, init, res in zip(seeds, inits, batch):
        alone = run(prob, kind, plan, init, 25, RngStream(seed, 0), diag,
                    waive_constraints=True)
        assert res.records == alone.records
        assert np.array_equal(res.final.x, alone.final.x)
        assert np.array_equal(res.final.y, alone.final.y)
        assert res.summary == alone.summary
        assert res.provenance == alone.provenance == {"base_seed": seed, "stream_id": 0}


@pytest.mark.parametrize("instance", range(10))
@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_batched_oracle_rows_match_per_point_oracle(instance, sigma):
    rng = RngStream(instance, 3)
    for prob in (
        random_ncpl_instance(instance, sigma=sigma),
        make_scsc_quadratic(0.7, rng.standard_normal((3, 4)), 3, 4, sigma=sigma),
        make_bilinear(3, 3, sigma=sigma),
    ):
        s = 1 + instance % 5
        x = rng.standard_normal((s, prob.m))
        y = rng.standard_normal((s, prob.n))
        samples = [prob.draw_sample(rng) for _ in range(s)]
        gx, gy = prob.grad_with_sample_batch(x, y, samples)
        ref_x, ref_y = Problem.grad_with_sample_batch(prob, x, y, samples)
        assert np.array_equal(gx, ref_x) and np.array_equal(gy, ref_y)


def test_default_batched_oracle_leaves_diverged_rows_to_the_caller():
    # a non-finite row must not raise: run_chains reports it from the iterate
    prob = PROBLEMS["robust_regression"]()
    pts = [prob.random_point(RngStream(i, 1)) for i in range(2)]
    x = np.stack([p.x for p in pts])
    y = np.stack([p.y for p in pts])
    y[0] = np.inf
    samples = [prob.draw_sample(RngStream(i, 0)) for i in range(2)]
    # as run_chains calls it: with numpy overflow warnings off
    with np.errstate(over="ignore", invalid="ignore"):
        gx, gy = prob.grad_with_sample_batch(x, y, samples)
    assert np.isnan(gx[0]).all() and np.isnan(gy[0]).all()
    g1 = prob.grad_with_sample(pts[1], samples[1])
    assert np.array_equal(gx[1], g1.gx) and np.array_equal(gy[1], g1.gy)
