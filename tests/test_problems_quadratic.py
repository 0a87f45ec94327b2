"""Analytic quadratic families and the stochastic-oracle audit."""
import numpy as np
import pytest

from gdakit.core import (
    ConstructionError,
    DimensionError,
    OracleViolation,
    ParameterError,
    RngStream,
)
from gdakit.problems import (
    GradSample,
    JointPoint,
    check_oracle,
    make_bilinear,
    make_ncpl_quadratic,
    make_scsc_quadratic,
    random_ncpl_instance,
    random_scsc_instance,
)
from gdakit.problems.quadratic import sym_pinv


def test_scsc_exact_grad_worked_values():
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    g = prob.exact_grad(JointPoint(np.array([2.0]), np.array([1.0])))
    assert g.gx[0] == 2.0
    assert g.gy[0] == -1.0


def test_scsc_grad_zero_at_nash():
    prob = random_scsc_instance(3)
    g = prob.exact_grad(prob.nash_point)
    assert np.allclose(g.gx, 0.0) and np.allclose(g.gy, 0.0)


def test_scsc_closed_phi_worked_value():
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    phi, y_star = prob.closed_phi(np.array([2.0]))
    assert phi == 2.0
    assert np.array_equal(y_star, np.zeros(1))


def test_closed_phi_rejects_x_of_the_wrong_length():
    prob = make_scsc_quadratic(1.0, None, 2, 3)
    for x in (np.zeros(3), np.zeros(1), np.zeros((1, 2))):
        with pytest.raises(DimensionError, match=r"x has shape"):
            prob.closed_phi(x)


def test_scsc_closed_phi_matches_grid_max():
    prob = make_scsc_quadratic(1.3, [[0.7]], 1, 1)
    x = np.array([0.8])
    phi, y_star = prob.closed_phi(x)
    ys = np.linspace(-10, 10, 200001)
    vals = 0.5 * 1.3 * 0.64 + 0.8 * 0.7 * ys - 0.5 * 1.3 * ys**2
    assert abs(phi - vals.max()) < 1e-7
    assert abs(y_star[0] - ys[vals.argmax()]) < 1e-3


def test_scsc_constants():
    b = np.array([[0.0, 2.0], [0.0, 0.0]])
    prob = make_scsc_quadratic(0.5, b, 2, 2)
    assert prob.constants.mu == 0.5
    assert prob.constants.l1 == 0.5 + 2.0  # a + ||B||_2
    assert prob.constants.kappa == prob.constants.l1 / 0.5


def test_scsc_rejects_bad_args():
    with pytest.raises(ParameterError):
        make_scsc_quadratic(0.0, None, 1, 1)
    with pytest.raises(DimensionError):
        make_scsc_quadratic(1.0, np.zeros((2, 3)), 2, 2)


def test_bilinear_worked_values():
    prob = make_bilinear(1, 1)
    g = prob.exact_grad(JointPoint(np.ones(1), np.ones(1)))
    assert g.gx[0] == 1.0 and g.gy[0] == 1.0
    g0 = prob.exact_grad(JointPoint(np.zeros(1), np.zeros(1)))
    assert g0.gx[0] == 0.0 and g0.gy[0] == 0.0


def test_bilinear_has_no_inner_curvature_certificate():
    prob = make_bilinear(2, 2)
    assert prob.pl_condition is False
    assert prob.closed_phi_batch is None
    assert prob.constants.provenance == "placeholder"


def test_ncpl_pinv_maximizer_worked_case():
    # A = diag(1, 0), B = [[1],[0]], g = 0: y*(x) = (x, 0), mu = 1
    prob = make_ncpl_quadratic(
        np.zeros((1, 1)), 0.0, np.diag([1.0, 0.0]), np.array([[1.0], [0.0]])
    )
    assert prob.constants.mu == 1.0
    x = np.array([0.7])
    phi, y_star = prob.closed_phi(x)
    assert np.allclose(y_star, [0.7, 0.0])
    # value at the maximizer equals phi
    assert abs(prob.value(JointPoint(x, y_star)) - phi) < 1e-14


def test_ncpl_value_at_maximizer_equals_phi():
    prob = random_ncpl_instance(1)
    rng = RngStream(21, stream_id=0)
    for _ in range(50):
        x = rng.gauss(prob.m, 2.0)
        phi, y_star = prob.closed_phi(x)
        gap = phi - prob.value(JointPoint(x, y_star))
        assert abs(gap) < 1e-10


def test_ncpl_gradient_domination_inequality():
    # |grad_y F|^2 >= 2 mu (max_y F - F) at random points
    for seed in range(3):
        prob = random_ncpl_instance(seed)
        mu = prob.constants.mu
        rng = RngStream(31 + seed, stream_id=0)
        for _ in range(200):
            pt = prob.random_point(rng, 2.0)
            phi, _ = prob.closed_phi(pt.x)
            gap = phi - prob.value(pt)
            gy = prob.exact_grad(pt).gy
            assert float(gy @ gy) >= 2.0 * mu * gap - 1e-9


def test_ncpl_rejects_coupling_outside_range():
    # B's range must sit inside A's range or the inner max is unattained
    with pytest.raises(ConstructionError):
        make_ncpl_quadratic(
            np.zeros((1, 1)), 0.0, np.diag([1.0, 0.0]), np.array([[0.0], [1.0]])
        )


def test_ncpl_rejects_indefinite_a():
    with pytest.raises(ConstructionError):
        make_ncpl_quadratic(
            np.zeros((1, 1)), 0.0, np.diag([1.0, -0.5]), np.array([[1.0], [0.0]])
        )


def test_sym_pinv_small_eigenvalues_zeroed():
    a = np.diag([2.0, 1e-14])
    pinv, vals, _, pos = sym_pinv(a)
    assert pos.tolist() == [False, True]  # eigh sorts ascending
    assert np.allclose(pinv, np.diag([0.5, 0.0]))


def test_random_instances_deterministic():
    a = random_scsc_instance(5)
    b = random_scsc_instance(5)
    assert a.m == b.m and np.array_equal(a.b_mat, b.b_mat)
    c = random_ncpl_instance(5)
    d = random_ncpl_instance(5)
    assert np.array_equal(c.a_mat, d.a_mat) and np.array_equal(c.b_mat, d.b_mat)


def test_random_ncpl_coupling_cap():
    for seed in range(10):
        prob = random_ncpl_instance(seed)
        b_norm = float(np.linalg.norm(prob.b_mat, 2))
        assert b_norm <= 2.0 * prob.constants.mu + 1e-12


def test_noise_second_moment_matches_sigma():
    # sigma^2 is the total noise second moment across the joint dimension
    prob = make_scsc_quadratic(1.0, None, 3, 2, sigma=1.0)
    rng = RngStream(77, stream_id=0)
    pt = JointPoint(np.ones(3), np.ones(2))
    exact = prob.exact_grad(pt)
    n = 10**5
    # n stoch_grad draws as one stacked call; cumsum adds in draw order
    gx, gy = prob.grad_with_sample_batch(
        np.broadcast_to(pt.x, (n, 3)), np.broadcast_to(pt.y, (n, 2)), prob.draw_samples(rng, n)
    )
    s = np.sum((gx - exact.gx) ** 2, axis=1) + np.sum((gy - exact.gy) ** 2, axis=1)
    total = float(np.cumsum(s)[-1])
    total_sq = float(np.cumsum(s * s)[-1])
    mean = total / n
    assert abs(mean - 1.0) < 0.1
    se = np.sqrt(max(total_sq / n - mean**2, 0.0) / n)
    assert abs(mean - 1.0) <= 4 * se


def test_check_oracle_zero_noise_passes():
    prob = make_scsc_quadratic(1.0, [[0.4]], 1, 1, sigma=0.0)
    rep = check_oracle(prob, 500, RngStream(1, stream_id=0))
    # report fields are worst observed/allowed ratios; zero noise leaves
    # only float accumulation error in the mean
    assert rep.max_mean_deviation < 0.01
    assert rep.max_noise_ratio == 0.0
    assert rep.max_fd_rel_err <= 1e-6


def test_check_oracle_noisy_passes():
    prob = make_scsc_quadratic(1.0, 0.4 * np.eye(2), 2, 2, sigma=0.8)
    rep = check_oracle(prob, 4000, RngStream(2, stream_id=0))
    assert rep.max_mean_deviation <= 1.0
    assert rep.max_noise_ratio <= 1.0


def test_check_oracle_catches_biased_gradient():
    prob = make_scsc_quadratic(1.0, 0.4 * np.eye(2), 2, 2, sigma=0.5)
    orig = prob.grad_with_sample

    def biased(point, sample):
        g = orig(point, sample)
        return GradSample(g.gx + 0.5, g.gy)

    prob.grad_with_sample = biased
    with pytest.raises(OracleViolation):
        check_oracle(prob, 4000, RngStream(3, stream_id=0))


def test_check_point_validates_dims_and_finiteness():
    prob = make_scsc_quadratic(1.0, None, 2, 3)
    with pytest.raises(DimensionError):
        prob.check_point(JointPoint(np.zeros(3), np.zeros(3)))
    with pytest.raises(ParameterError):
        prob.check_point(JointPoint(np.array([np.inf, 0.0]), np.zeros(3)))
