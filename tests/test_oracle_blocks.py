"""The block-wise gradient oracle: need="x" or "y" computes one block, with
the bits of the full call, and each update step asks only for the block it
applies."""
import numpy as np
import pytest

from gdakit.core import DivergenceError, RngStream
from gdakit.diagnostics import inner_ascent
from gdakit.optimizers import DiagConfig, Esgda, Rsgda, Sgda, SgdMax, run
from gdakit.problems import (
    JointPoint,
    Problem,
    make_bilinear,
    make_gaussian_wgan,
    make_ncpl_quadratic,
    make_robust_regression,
    make_scsc_quadratic,
)
from gdakit.schedules import constant_plan

_COUPLING = [[0.4, 0.1, -0.3], [0.2, 0.0, 0.5]]
_NCPL = {
    "q": [[1.0, 0.2], [0.2, -0.5]],
    "c": 0.25,
    "a": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
    "b": [[0.5, 0.1], [0.0, 0.3], [0.0, 0.0]],
}

PROBLEMS = {
    **{
        f"{name}_sigma{sigma}": make
        for sigma in (0.0, 0.5)
        for name, make in (
            ("scsc", lambda s=sigma: make_scsc_quadratic(0.7, _COUPLING, 2, 3, sigma=s)),
            ("bilinear", lambda s=sigma: make_bilinear(3, 3, sigma=s)),
            ("ncpl", lambda s=sigma: make_ncpl_quadratic(**_NCPL, sigma=s)),
        )
    },
    "wgan": lambda: make_gaussian_wgan(disc_arch=(2, 3, 1), batch=5, quad_nodes=10),
    "regression": lambda: make_robust_regression(n=40, d=5, batch=8, rng_seed=3),
}


@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("name", PROBLEMS)
def test_one_block_is_none_elsewhere_and_has_the_full_calls_bits(name, s):
    prob = PROBLEMS[name]()
    rng = RngStream(5, 2)
    x, y = prob.random_points(rng, s)
    samples = prob.draw_samples(rng, s)
    for form in (
        lambda need: prob.exact_grad_batch(x, y, need),
        lambda need: prob.grad_with_sample_batch(x, y, samples, need),
    ):
        full = form("xy")
        assert full[0].shape == (s, prob.m) and full[1].shape == (s, prob.n)
        for need, kept in (("x", 0), ("y", 1)):
            got = form(need)
            assert got[1 - kept] is None
            assert np.array_equal(got[kept], full[kept])


class _Recording(Problem):
    """A problem that hands every call to inner and logs the need of each
    call of either gradient form."""

    def __init__(self, inner):
        self.inner = inner
        self.m, self.n, self.constants = inner.m, inner.n, inner.constants
        self.closed_phi_batch = inner.closed_phi_batch
        self.log = {"exact": [], "sampled": []}

    def draw_rows(self, rngs):
        return self.inner.draw_rows(rngs)

    def value_batch(self, x, y):
        return self.inner.value_batch(x, y)

    def exact_grad_batch(self, x, y, need="xy"):
        self.log["exact"].append(need)
        return self.inner.exact_grad_batch(x, y, need)

    def grad_with_sample_batch(self, x, y, samples, need="xy"):
        self.log["sampled"].append(need)
        return self.inner.grad_with_sample_batch(x, y, samples, need)


def _start(s):
    prob = _Recording(make_scsc_quadratic(1.0, _COUPLING, 2, 3, sigma=0.5))
    x, y = prob.random_points(RngStream(3, 1), s)
    return prob, prob.log, x, y, [RngStream(seed, 0) for seed in range(s)]


@pytest.mark.parametrize(
    "kind,want",
    [(Sgda(), ["y", "x"]), (Sgda(True), ["y", "x"]), (Esgda(m=3), ["y", "y", "y", "x"])],
    ids=["sgda", "sgda_strict", "esgda"],
)
def test_alternating_kinds_ask_for_the_block_each_update_applies(kind, want):
    prob, log, x, y, rngs = _start(2)
    kind.step(prob, x, y, rngs, 0.05, 0.1, None, 0)
    assert log == {"exact": [], "sampled": want}


def test_sgdmax_descends_on_x_and_its_inner_ascent_asks_for_y():
    prob, log, x, y, rngs = _start(2)
    SgdMax(delta=1e-8, inner_max_iters=50).step(prob, x, y, rngs, 0.05, None, None, 0)
    assert log["sampled"] == ["x"]
    assert log["exact"] and set(log["exact"]) == {"y"}
    # without a closed phi, the certificate comes from the y block too
    prob.closed_phi_batch = None
    log["exact"].clear()
    inner_ascent(prob, x[0][None], y[0][None], 1e-8, 50)
    assert log["exact"] and set(log["exact"]) == {"y"}


def test_rsgda_at_one_chain_asks_for_its_branchs_block_only():
    prob, log, x, y, rngs = _start(1)
    branches = []
    for k in range(40):
        out = Rsgda().step(prob, x, y, rngs, 0.05, 0.1, 0.4, k)
        branches.append(out.label(0))
        assert log["sampled"] == [branches[-1]]
        # the block the branch leaves is returned as it came
        assert (out.y is y) if branches[-1] == "x" else (out.x is x)
        log["sampled"].clear()
        x, y = out.x, out.y
    assert set(branches) == {"x", "y"} and log["exact"] == []


def test_rsgda_with_mixed_coins_makes_one_full_call():
    prob, log, x, y, rngs = _start(3)
    mixed = 0
    for k in range(20):
        out = Rsgda().step(prob, x, y, rngs, 0.05, 0.1, 0.5, k)
        labels = {out.label(i) for i in range(3)}
        assert log["sampled"] == ["xy" if len(labels) == 2 else labels.pop()]
        mixed += log["sampled"] == ["xy"]
        log["sampled"].clear()
        x, y = out.x, out.y
    assert 0 < mixed < 20


@pytest.mark.parametrize("branch", ["x", "y"])
def test_run_chains_checks_the_block_a_one_block_step_changed(branch):
    # a step of 3 on a = 1 maps a block v to -2 v, so the first update of
    # the huge block overflows; p picks the branch of every step
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    huge = JointPoint([1e308], [1.0]) if branch == "x" else JointPoint([1.0], [1e308])
    plan = constant_plan(3.0, 3.0, 1.0 if branch == "x" else 1e-12)
    with pytest.raises(DivergenceError) as err:
        run(prob, Rsgda(), plan, huge, 5, RngStream(0, 0), DiagConfig(), waive_constraints=True)
    assert err.value.k == 1 and f"branch {branch}" in str(err.value)
