"""The batched-chain engine: the batched gradient oracle's rows match the
per-point oracle bit for bit, and a chain's outputs do not depend on which
other chains step beside it."""
import numpy as np
import pytest

from gdakit import mlp
from gdakit.core import CapabilityError, RngStream
from gdakit.optimizers import DiagConfig, Esgda, Rsgda, Sgda, SgdMax, run, run_chains
from gdakit.problems import (
    JointPoint,
    make_bilinear,
    make_gaussian_wgan,
    make_robust_regression,
    make_scsc_quadratic,
    random_ncpl_instance,
)
from gdakit.schedules import constant_plan

PROBLEMS = {
    "scsc_2x2": lambda: make_scsc_quadratic(1.0, [[0.4, 0.1], [-0.2, 0.4]], 2, 2, sigma=0.5),
    "random_ncpl_4x5": lambda: random_ncpl_instance(7, sigma=0.5),
    "robust_regression": lambda: make_robust_regression(n=40, d=5, batch=8, rng_seed=3),
    "gaussian_wgan": lambda: make_gaussian_wgan(disc_arch=(2, 3, 1), quad_nodes=10),
}

# the toy GAN's inner maximum is unbounded, so it logs dist only
DIAGS = {"gaussian_wgan": DiagConfig(interval=4, grad_norms=False)}

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
    diag = DIAGS.get(problem_name, DiagConfig(interval=4, h=True, v=True, loss=True))
    seeds = [11, 5, 8]
    inits = [prob.random_point(RngStream(seed, 1), 0.5) for seed in seeds]
    batch = run_chains(
        prob, kind, plan, inits, 25, [RngStream(seed, 0) for seed in seeds], diag,
        waive_constraints=True,
    )
    for seed, init, res in zip(seeds, inits, batch):
        alone = run(prob, kind, plan, init, 25, RngStream(seed, 0), diag,
                    waive_constraints=True)
        assert res.trace == alone.trace
        assert np.array_equal(res.final.x, alone.final.x)
        assert np.array_equal(res.final.y, alone.final.y)
        assert res.summary == alone.summary
        assert res.provenance == alone.provenance == {"base_seed": seed, "stream_id": 0}


@pytest.mark.parametrize("instance", range(10))
@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_batched_oracle_rows_match_per_point_oracle(instance, sigma):
    # every stacked form's row i equals its S = 1 view at row i alone
    rng = RngStream(instance, 3)
    for prob in (
        random_ncpl_instance(instance, sigma=sigma),
        make_scsc_quadratic(0.7, rng.standard_normal((3, 4)), 3, 4, sigma=sigma),
        make_bilinear(3, 3, sigma=sigma),
        *(make() for make in MLP_PROBLEMS.values()),
    ):
        s = 1 + instance % 5
        x = rng.standard_normal((s, prob.m))
        y = rng.standard_normal((s, prob.n))
        samples = [prob.draw_sample(rng) for _ in range(s)]
        gx, gy = prob.grad_with_sample_batch(x, y, samples)
        ex, ey = prob.exact_grad_batch(x, y)
        vals = prob.value_batch(x, y)
        has_phi = prob.closed_phi_batch is not None
        if has_phi:
            phi, y_star = prob.closed_phi_batch(x)
        for i in range(s):
            pt = JointPoint(x[i], y[i])
            g = prob.grad_with_sample(pt, samples[i])
            assert np.array_equal(gx[i], g.gx) and np.array_equal(gy[i], g.gy)
            e = prob.exact_grad(pt)
            assert np.array_equal(ex[i], e.gx) and np.array_equal(ey[i], e.gy)
            assert vals[i] == prob.value(pt)
            if has_phi:
                want_phi, want_y = prob.closed_phi(x[i])
                assert phi[i] == want_phi and np.array_equal(y_star[i], want_y)
            else:
                with pytest.raises(CapabilityError):
                    prob.closed_phi(x[i])


def _diverged_rows():
    prob = PROBLEMS["robust_regression"]()
    pts = [prob.random_point(RngStream(i, 1)) for i in range(2)]
    x = np.stack([p.x for p in pts])
    y = np.stack([p.y for p in pts])
    y[0] = np.inf
    samples = [prob.draw_sample(RngStream(i, 0)) for i in range(2)]
    return prob, pts, x, y, samples


def test_stacked_mlp_oracle_leaves_diverged_rows_to_the_caller():
    prob, pts, x, y, samples = _diverged_rows()
    with np.errstate(over="ignore", invalid="ignore"):
        gx, gy = prob.grad_with_sample_batch(x, y, samples)
    assert not np.isfinite(gx[0]).all() and not np.isfinite(gy[0]).all()
    g1 = prob.grad_with_sample(pts[1], samples[1])
    assert np.array_equal(gx[1], g1.gx) and np.array_equal(gy[1], g1.gy)


MLP_PROBLEMS = {
    "wgan_2_3_1": lambda: make_gaussian_wgan(disc_arch=(2, 3, 1), quad_nodes=10, batch=7),
    "wgan_2_8_8_1": lambda: make_gaussian_wgan(disc_arch=(2, 8, 8, 1), quad_nodes=10, batch=1),
    "regression": lambda: make_robust_regression(n=40, d=5, batch=8, rng_seed=3),
    "regression_2_6_5_1": lambda: make_robust_regression(
        n=30, d=3, batch=4, reg_arch=(3, 6, 5, 1), rng_seed=1
    ),
}


@pytest.mark.parametrize("problem_name", MLP_PROBLEMS)
@pytest.mark.parametrize("block_floats", [None, 1], ids=["one_block", "row_per_block"])
def test_stacked_mlp_oracle_rows_match_grad_with_sample(monkeypatch, problem_name, block_floats):
    prob = MLP_PROBLEMS[problem_name]()
    if block_floats is not None:
        monkeypatch.setattr(mlp, "STACK_FLOATS", block_floats)
    rng = RngStream(13, 2)
    for s in (1, 2, 5):
        x, y = prob.random_points(rng, s)
        samples = prob.draw_samples(rng, s)
        gx, gy = prob.grad_with_sample_batch(x, y, samples)
        for i in range(s):
            g = prob.grad_with_sample(JointPoint(x[i], y[i]), samples[i])
            assert np.array_equal(gx[i], g.gx) and np.array_equal(gy[i], g.gy)
