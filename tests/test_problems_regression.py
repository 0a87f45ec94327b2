"""Adversarial-label regression: inner maximizer, oracle, dataset I/O."""
import numpy as np
import pytest

from gdakit.core import ParameterError, RngStream
from gdakit.problems import (
    JointPoint,
    check_oracle,
    load_dataset,
    make_robust_regression,
    save_dataset,
)


def _scalar_problem(lam=2.0):
    # one sample, one feature, linear net with zero params: f_w(x) = 0
    return make_robust_regression(
        data=(np.array([[1.0]]), np.array([1.0])),
        reg_arch=(1, 1),
        lam=lam,
        batch=1,
    )


def test_default_sizes():
    prob = make_robust_regression()
    assert prob.n == 1000  # adversarial label per sample
    assert prob.metadata["d"] == 500
    assert prob.constants.mu == (2.0 - 1.0) / 1000


def test_perfect_fit_inner_maximizer_is_the_targets():
    # when the net already matches the targets the adversary gains nothing
    prob = _scalar_problem()
    w = np.zeros(2)
    targets = np.array([0.0])
    prob2 = make_robust_regression(
        data=(np.array([[1.0]]), targets), reg_arch=(1, 1), lam=2.0, batch=1
    )
    phi, y_star = prob2.closed_phi(w)
    assert np.array_equal(y_star, targets)
    assert phi == 0.0
    gy = prob2.exact_grad(JointPoint(w, y_star)).gy
    assert np.array_equal(gy, np.zeros(1))


def test_scalar_inner_max_worked_value_and_grid_search():
    # lam = 2, f = 0, target 1: maximizer y' = (2*1 - 0)/(2 - 1) = 2
    prob = _scalar_problem()
    w = np.zeros(2)
    phi, y_star = prob.closed_phi(w)
    assert abs(y_star[0] - 2.0) < 1e-14
    ys = np.linspace(-10.0, 10.0, 200001)
    vals = 0.5 * ys**2 - 1.0 * (ys - 1.0) ** 2
    assert abs(phi - vals.max()) < 1e-8
    assert abs(ys[vals.argmax()] - 2.0) < 1e-3
    gy = prob.exact_grad(JointPoint(w, y_star)).gy
    assert abs(gy[0]) < 1e-14


def test_value_at_maximizer_equals_phi():
    prob = make_robust_regression(n=20, d=3, reg_arch=(3, 4, 1), batch=5)
    rng = RngStream(13, stream_id=0)
    for _ in range(5):
        w = rng.gauss(prob.m, 0.5)
        phi, y_star = prob.closed_phi(w)
        assert abs(prob.value(JointPoint(w, y_star)) - phi) < 1e-10
        gy = prob.exact_grad(JointPoint(w, y_star)).gy
        assert np.linalg.norm(gy) < 1e-10


def test_stoch_grad_unbiased_for_y_block():
    # subsampled y-gradient scatters batch contributions back at 1/batch,
    # matching the full-average exact gradient in expectation
    prob = make_robust_regression(n=12, d=2, reg_arch=(2, 1), batch=4)
    rng = RngStream(14, stream_id=0)
    pt = JointPoint(rng.gauss(prob.m, 0.5), prob.targets + rng.gauss(12, 0.3))
    exact = prob.exact_grad(pt)
    flat_exact = np.concatenate([exact.gx, exact.gy])
    n = 20000
    # n stoch_grad draws as one stacked call; cumsum adds in draw order
    gx, gy = prob.grad_with_sample_batch(
        np.broadcast_to(pt.x, (n, prob.m)), np.broadcast_to(pt.y, (n, prob.n)),
        prob.draw_samples(rng, n),
    )
    flat = np.concatenate([gx, gy], axis=1)
    s1 = np.cumsum(flat, axis=0)[-1]
    s2 = np.cumsum(flat * flat, axis=0)[-1]
    mean = s1 / n
    var = np.maximum(s2 / n - mean * mean, 0.0)
    se = np.sqrt(var.sum() / n)
    assert np.linalg.norm(mean - flat_exact) <= 4 * se


def test_check_oracle_passes():
    prob = make_robust_regression(n=30, d=4, reg_arch=(4, 3, 1), batch=10)
    check_oracle(
        prob, 2000, RngStream(15, stream_id=5), points=4, fd_coords=8, fd_step=1e-5
    )


def test_lambda_must_exceed_one():
    with pytest.raises(ParameterError):
        make_robust_regression(n=10, d=2, reg_arch=(2, 1), lam=1.0)
    with pytest.raises(ParameterError):
        make_robust_regression(n=10, d=2, reg_arch=(2, 1), lam=0.5)


def test_batch_bounds():
    with pytest.raises(ParameterError):
        make_robust_regression(n=10, d=2, reg_arch=(2, 1), batch=11)


def test_dataset_round_trip(tmp_path):
    rng = RngStream(16, stream_id=0)
    x = rng.standard_normal((7, 3))
    t = rng.gauss(7, 1.0)
    path = tmp_path / "data.csv"
    save_dataset(path, x, t)
    x2, t2 = load_dataset(path)
    assert np.array_equal(x, x2)
    assert np.array_equal(t, t2)
    prob = make_robust_regression(data=(x2, t2), reg_arch=(3, 1), batch=3)
    assert prob.n == 7


def test_default_init_starts_at_targets():
    prob = make_robust_regression(n=15, d=2, reg_arch=(2, 1), batch=5)
    init = prob.default_init()
    assert np.array_equal(init.y, prob.targets)
    assert np.array_equal(init.x, prob.default_init().x)
    assert not np.array_equal(init.x, prob.default_init(seed=99).x)
