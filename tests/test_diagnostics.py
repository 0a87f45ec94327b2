"""Guarantee diagnostics: h, merit value, contraction, descent, rate fits."""
import numpy as np
import pytest

from gdakit.core import (
    CapabilityError,
    ConstraintError,
    InsufficientDataError,
    ParameterError,
    RngStream,
)
from gdakit.diagnostics import (
    CertificateViolation,
    TraceRecord,
    contraction_check,
    contraction_sweep,
    descent_check,
    fd_gradient_check,
    h_metric,
    inner_ascent,
    lyapunov,
    phi_inner,
    rate_summary,
)
from gdakit.optimizers import SgdMax
from gdakit.problems import (
    JointPoint,
    make_bilinear,
    make_ncpl_quadratic,
    make_scsc_quadratic,
    random_ncpl_instance,
    random_scsc_instance,
)
from gdakit.schedules import p_max, step_constraints

# F = x^2/2 - y^2/2: l1 = mu = 1, kappa = 1, closed phi
SADDLE = make_scsc_quadratic(1.0, None, 1, 1)


def _pt(x, y):
    return JointPoint(np.atleast_1d(np.array(x, dtype=float)),
                      np.atleast_1d(np.array(y, dtype=float)))


def test_h_metric_worked_value():
    # (1/4)*4 + (1/20)*1 + (11/40)*4 = 2.15 at (2, 1)
    assert abs(h_metric(SADDLE, _pt(2.0, 1.0)) - 2.15) < 1e-14


def test_h_metric_zero_at_stationary_pair():
    assert h_metric(SADDLE, _pt(0.0, 0.0)) == 0.0


def test_h_dominates_grad_phi_term():
    prob = random_ncpl_instance(2)
    rng = RngStream(41, stream_id=0)
    for _ in range(100):
        pt = prob.random_point(rng, 2.0)
        _, y_star = prob.closed_phi(pt.x)
        gphi = prob.exact_grad(JointPoint(pt.x, y_star)).gx
        assert h_metric(prob, pt) >= 0.25 * float(gphi @ gphi) - 1e-12


def test_lyapunov_worked_value():
    # phi(2) = 2, F(2,1) = 1.5, C = 0.1: V = 2 + 0.1*0.5 = 2.05
    assert abs(lyapunov(SADDLE, _pt(2.0, 1.0)) - 2.05) < 1e-14


def test_lyapunov_c_zero_is_phi():
    assert lyapunov(SADDLE, _pt(2.0, 1.0), c=0.0) == 2.0
    with pytest.raises(ParameterError):
        lyapunov(SADDLE, _pt(2.0, 1.0), c=-0.1)


def test_phi_diagnostics_refuse_problems_without_inner_certificate():
    bil = make_bilinear(1, 1)
    with pytest.raises(CapabilityError):
        h_metric(bil, _pt(1.0, 1.0))
    with pytest.raises(CapabilityError):
        lyapunov(bil, _pt(1.0, 1.0))


def test_contraction_worked_value():
    # two-branch enumeration at (1, 1), alpha = 0.1, p = 0.5
    rep = contraction_check(SADDLE, _pt(1.0, 1.0), 0.1, 0.5)
    assert rep.measured_ratio == 0.905
    assert rep.rho == 0.905


def test_contraction_ratio_tends_to_one():
    rep = contraction_check(SADDLE, _pt(1.0, 1.0), 1e-9, 0.5)
    assert abs(rep.measured_ratio - 1.0) < 1e-8
    assert abs(rep.rho - 1.0) < 1e-8


def test_contraction_holds_at_coupled_instance_p_half():
    prob = random_scsc_instance(7)
    c = prob.constants
    alpha = 0.5 * 2.0 * 0.5 * c.mu / (0.5 * c.l1**2)
    rng = RngStream(51, stream_id=0)
    pts = [prob.random_point(rng, 2.0) for _ in range(1000)]
    rep = contraction_sweep(prob, pts, alpha, 0.5)
    assert rep.worst_margin <= 1e-12  # measured - rho, negative = pass
    contraction_check(prob, pts[rep.worst_index], alpha, 0.5)


def test_contraction_genuinely_fails_for_small_p_with_coupling():
    # the single-step rate formula is not a pointwise bound once p < 1/2
    # meets coupling; the checker must report that honestly
    prob = make_scsc_quadratic(1.0, [[1.0]], 1, 1)
    with pytest.raises(CertificateViolation):
        contraction_check(prob, _pt(1.0, 0.1), 0.01, 0.25)


def test_contraction_rejects_alpha_outside_proof_bound():
    with pytest.raises(ConstraintError):
        contraction_check(SADDLE, _pt(1.0, 1.0), 3.0, 0.5)


def test_contraction_needs_nash_point():
    prob = random_ncpl_instance(0)  # no saddle certificate
    assert prob.nash_point is None
    with pytest.raises(CapabilityError):
        contraction_check(prob, _pt([0.0] * prob.m, [0.0] * prob.n), 0.01, 0.5)


def test_descent_residual_zero_at_stationary_pair():
    prob = make_ncpl_quadratic(np.eye(1), 0.0, np.eye(2), [[0.5], [0.0]])
    pt = JointPoint(np.zeros(1), np.zeros(2))
    p = p_max(prob.constants)
    sc = step_constraints(prob.constants, p)
    alpha = 0.5 * sc.alpha_max
    rep = descent_check(prob, pt, alpha, sc.eta_hi, p)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.residual == 0.0


def test_descent_residual_nonnegative_on_feasible_samples():
    prob = random_ncpl_instance(4)
    p2 = p_max(prob.constants)
    rng = RngStream(61, stream_id=0)
    for _ in range(200):
        pt = prob.random_point(rng, 2.0)
        p = p2 * (0.1 + 0.9 * rng.uniform())
        sc = step_constraints(prob.constants, p)
        alpha = sc.alpha_max * (0.05 + 0.95 * rng.uniform())
        lo = sc.eta_lo(alpha)
        eta = lo + (sc.eta_hi - lo) * rng.uniform()
        rep = descent_check(prob, pt, alpha, eta, p)
        assert rep.residual >= -1e-10


def test_descent_refuses_infeasible_steps():
    prob = random_ncpl_instance(4)
    p = p_max(prob.constants)
    sc = step_constraints(prob.constants, p)
    pt = prob.random_point(RngStream(62, stream_id=0), 1.0)
    with pytest.raises(ConstraintError):
        descent_check(prob, pt, sc.alpha_max, 0.5 * sc.eta_lo(sc.alpha_max), p)


def test_fd_check_tight_on_quadratics():
    for seed in (0, 1):
        prob = random_scsc_instance(seed)
        pt = prob.random_point(RngStream(71 + seed, stream_id=0), 1.0)
        assert fd_gradient_check(prob, pt, 1e-5) <= 1e-8


def test_fd_error_shrinks_quadratically_in_h():
    # the sine term gives a nonzero third derivative, so the central
    # difference error scales as h^2: halving h divides it by about 4
    prob = make_ncpl_quadratic(np.eye(1), 1.0, np.eye(1), [[0.5]])
    pt = _pt(0.9, 0.4)
    e1 = fd_gradient_check(prob, pt, 1e-1)
    e2 = fd_gradient_check(prob, pt, 5e-2)
    assert 3.5 < e1 / e2 < 4.5


def test_fd_check_validates_h():
    with pytest.raises(ParameterError):
        fd_gradient_check(SADDLE, _pt(1.0, 1.0), 0.0)


def test_phi_inner_matches_closed_form():
    prob = random_ncpl_instance(3)
    rng = RngStream(81, stream_id=0)
    x = rng.gauss(prob.m, 1.0)
    y0 = rng.gauss(prob.n, 1.0)
    phi_ref, _ = prob.closed_phi(x)
    est = phi_inner(prob, x, y0, tol=1e-10)
    assert est.converged
    assert abs(est.phi - phi_ref) < 1e-8


def test_phi_inner_zero_steps_at_inner_maximizer():
    prob = random_ncpl_instance(3)
    x = np.full(prob.m, 0.3)
    _, y_star = prob.closed_phi(x)
    est = phi_inner(prob, x, y_star, tol=1e-8)
    assert est.converged and est.iters == 0


def test_phi_inner_tol_certificate():
    prob = random_ncpl_instance(3)
    rng = RngStream(82, stream_id=0)
    x = rng.gauss(prob.m, 1.0)
    y0 = rng.gauss(prob.n, 1.0)
    loose = phi_inner(prob, x, y0, tol=1e-4)
    tight = phi_inner(prob, x, y0, tol=1e-5)
    assert abs(loose.phi - tight.phi) <= 10 * 1e-4


def test_phi_inner_certifies_the_iterate_reached_at_the_budget():
    # F = x y - y^2/2 at x = 1: two 1/l1 = 1/2 steps from y = 0 reach y = 0.75,
    # whose gap 1/32 is under tol
    prob = make_ncpl_quadratic([[0.0]], 0.0, [[1.0]], [[1.0]])
    est = phi_inner(prob, np.array([1.0]), np.array([0.0]), tol=0.1, max_iters=2)
    assert est.converged and est.iters == 2
    assert est.y_hat[0] == 0.75


def test_inner_ascent_is_the_one_phi_inner_and_sgdmax_use():
    # mu < l1 here, so the gradient bound and the closed-phi gap differ
    prob = random_ncpl_instance(0)
    rng = RngStream(5, 0)
    x = rng.gauss(prob.m, 1.0)
    y0 = rng.gauss(prob.n, 1.0)
    y, certified, steps = inner_ascent(prob, x, y0, 1e-4, 1000)
    est = phi_inner(prob, x, y0, 1e-4, 1000)
    out = SgdMax(1e-4, 1000).step(prob, x[None], y0[None], [RngStream(0, 0)], 0.1, None, None, 0)
    assert certified and est.converged and out.warnings == ()
    assert steps == est.iters == out.y_steps[0]
    assert np.array_equal(y, est.y_hat) and np.array_equal(y, out.y[0])


def _trace(hs):
    return [
        TraceRecord(k=k, branch="x", alpha=0.1, eta=0.1, p=0.5, h=h)
        for k, h in enumerate(hs, start=1)
    ]


def test_rate_summary_constant_trace():
    rs = rate_summary(_trace([2.0] * 50))
    assert abs(rs.exponent) < 1e-12
    assert rs.meets_rate_target is None


def test_rate_summary_one_over_k():
    ks = np.arange(1, 201)
    rs = rate_summary(_trace(list(1.0 / ks)), sigma=0.0)
    assert abs(rs.exponent + 1.0) < 0.05
    assert rs.meets_rate_target is True
    assert rs.final_min_h == 1.0 / 200


def test_rate_summary_needs_ten_points():
    with pytest.raises(InsufficientDataError):
        rate_summary(_trace([1.0] * 9))


def test_rate_summary_ignores_records_without_h():
    recs = _trace([1.0] * 12)
    recs += [TraceRecord(k=99, branch="x", alpha=0.1, eta=0.1, p=0.5, h=None)]
    rs = rate_summary(recs)
    assert rs.n_points == 12
