"""Acceptance suite: one test per guaranteed behavior of the library.

Each test pins its configuration (instances, seeds, step sizes) so reruns
are deterministic, checks the stated tolerance, and prints a single line
with the measured margin. Together they cover the contraction bound, the
linear and sublinear convergence rates, the one-step merit descent bound,
oracle consistency, the update-probability formula, the toy-GAN benchmark,
and byte-level reproducibility of the harness.
"""
import math

import numpy as np

from gdakit.core import RngStream
from gdakit.diagnostics import (
    contraction_sweep,
    descent_check,
    lyapunov,
    rate_summary,
)
from gdakit.harness.commands import cmd_run
from gdakit.optimizers import (
    DiagConfig,
    Esgda,
    Rsgda,
    init_state,
    rsgda_step,
    run,
    run_chains,
)
from gdakit.problems import (
    JointPoint,
    check_oracle,
    make_bilinear,
    make_gaussian_wgan,
    make_ncpl_quadratic,
    make_robust_regression,
    make_scsc_quadratic,
    random_ncpl_instance,
    random_scsc_instance,
)
from gdakit.schedules import (
    AdaPSchedule,
    adaptive_p,
    constant_plan,
    optimal_p,
    p_max,
    step_constraints,
)

# Fixed low-conditioning instance used by the two rate criteria. kappa is
# kept small (~3) so the feasible update probability leaves the descent
# branch enough steps inside the iteration budgets.
_NCPL_Q = np.diag([1.0, 1.2, 0.8])
_NCPL_A = np.diag([1.0, 1.0, 0.0])
_NCPL_B = np.array([[0.5, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.0]])


def _fixed_ncpl(sigma: float):
    return make_ncpl_quadratic(_NCPL_Q, 0.25, _NCPL_A, _NCPL_B, sigma=sigma)


def test_two_branch_contraction_bound_holds_everywhere():
    # 5 random strongly-convex-concave instances x 1000 points x 5 step
    # sizes inside the provable range at p = 1/2; the expected one-branch
    # squared distance must contract by rho = 1 - 2*p*mu*alpha
    # + alpha^2*(1-p)*l1^2 at every single point, tolerance 1e-12.
    p = 0.5
    fractions = (0.2, 0.4, 0.6, 0.8, 0.99)
    worst = -math.inf
    n_checked = 0
    for seed in range(5):
        prob = random_scsc_instance(seed)
        c = prob.constants
        prng = RngStream(100 + seed, stream_id=0)
        points = [prob.random_point(prng, 2.0) for _ in range(1000)]
        alpha_cap = 2.0 * p * c.mu / ((1.0 - p) * c.l1**2)
        for frac in fractions:
            rep = contraction_sweep(prob, points, frac * alpha_cap, p)
            worst = max(worst, rep.worst_margin)
            n_checked += rep.count
    assert n_checked == 25_000
    assert worst <= 1e-12
    print(f"contraction bound PASS: worst margin {worst:.3e} <= 1e-12 "
          f"over {n_checked} point evaluations")


def test_randomized_method_attains_linear_rate_on_scsc():
    # a = 1, B = 0, alpha = eta = 0.1, p = 0.5: per-step contraction factor
    # 0.905, so the log of the seed-averaged squared distance must fall
    # with slope <= log(0.905) + 0.02 over 200 steps and 50 seeds.
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    init = JointPoint([2.0], [1.0])
    n_steps, n_seeds = 200, 50
    d2 = np.empty((n_seeds, n_steps + 1))
    for i in range(n_seeds):
        state = init_state(init, RngStream(i, stream_id=0))
        d2[i, 0] = 5.0
        for k in range(1, n_steps + 1):
            state = rsgda_step(prob, state, 0.1, 0.1, p=0.5)
            u = np.concatenate([state.point.x, state.point.y])
            d2[i, k] = float(u @ u)
    slope = float(np.polyfit(np.arange(n_steps + 1), np.log(d2.mean(axis=0)), 1)[0])
    bound = math.log(0.905) + 0.02
    assert slope <= bound
    print(f"linear rate PASS: fitted slope {slope:.5f} <= {bound:.5f} "
          f"(contraction factor 0.905)")


def test_merit_descent_residual_nonnegative_on_feasible_steps():
    # V(u_k) - V(u_{k+1}) >= p*alpha*h(u_k) in expectation for every
    # feasible (alpha, eta, p); with exact gradients the residual must be
    # >= -1e-10 pointwise on 3 instances x 1000 random feasible samples.
    worst = math.inf
    for seed in (0, 1, 2):
        prob = random_ncpl_instance(seed)
        p2 = p_max(prob.constants)
        rng = RngStream(200 + seed, stream_id=0)
        for _ in range(1000):
            pt = prob.random_point(rng, 2.0)
            p = p2 * (0.1 + 0.9 * rng.uniform())
            sc = step_constraints(prob.constants, p)
            alpha = sc.alpha_max * (0.05 + 0.95 * rng.uniform())
            lo = sc.eta_lo(alpha)
            eta = lo + (sc.eta_hi - lo) * rng.uniform()
            worst = min(worst, descent_check(prob, pt, alpha, eta, p).residual)
    assert worst >= -1e-10
    print(f"merit descent PASS: worst residual {worst:.3e} >= -1e-10 "
          f"over 3000 feasible samples")


def test_exact_randomized_run_beats_inverse_k_envelope():
    # Exact gradients with feasible constant steps: the running-min of the
    # efficiency metric h must decay at least as fast as 1/k, i.e. fitted
    # log-log exponent <= -0.8 over 1e4 iterations.
    prob = _fixed_ncpl(sigma=0.0)
    c = prob.constants
    p2 = p_max(c)
    sc = step_constraints(c, p2)
    plan = constant_plan(0.5 * sc.alpha_max, sc.eta_hi, p2)
    init = prob.random_point(RngStream(1001, stream_id=0), 2.0)
    res = run(
        prob,
        Rsgda(),
        plan,
        init,
        10_000,
        RngStream(4, stream_id=0),
        DiagConfig(grad_norms=False, h=True, dist=False),
    )
    rate = rate_summary(res.trace, sigma=0.0)
    assert rate.exponent <= -0.8
    assert rate.meets_rate_target is True
    print(f"exact rate PASS: running-min h exponent {rate.exponent:.3f} <= -0.8 "
          f"(final min h {rate.final_min_h:.3e})")


def test_horizon_tuned_noise_runs_follow_inverse_sqrt_k_trend():
    # sigma = 0.5 on the same instance: tuning alpha to each horizon n via
    # alpha = min(1/(2*l2), sqrt(delta0/((n+1)*M))/sigma) must drive the
    # seed-averaged min-h down by >= 1.6x per 4x horizon increase, the
    # 1/sqrt(k) signature with 20% headroom.
    exact = _fixed_ncpl(sigma=0.0)
    noisy = _fixed_ncpl(sigma=0.5)
    c = noisy.constants
    p2 = p_max(c)

    # frozen gap oracle: 20k exact descent steps on phi pin phi*
    x = np.zeros(3)
    for _ in range(20_000):
        _, y_star = exact.closed_phi(x)
        gx = exact.exact_grad(JointPoint(x, y_star)).gx
        x = x - gx / c.l2
    phi_star, _ = exact.closed_phi(x)
    assert abs(phi_star - (-0.086488)) < 1e-5
    init = exact.random_point(RngStream(1001, stream_id=0), 2.0)
    delta0 = lyapunov(exact, init) - phi_star
    assert abs(delta0 - 3.943679) < 1e-5

    m_const = (
        0.55 * c.l2 * p2
        + p2 * c.l1 / 2.0
        + (18.0**2 * p2**2 / (2.0 * (1.0 - p2))) * c.l1 * c.kappa**4
    )
    assert abs(m_const - 35.202297) < 1e-5

    sc = step_constraints(c, p2)
    means = []
    for n in (1_000, 4_000, 16_000):
        alpha = min(1.0 / (2.0 * c.l2), math.sqrt(delta0 / ((n + 1) * m_const)) / c.sigma)
        plan = constant_plan(alpha, sc.eta_hi, p2)
        diag = DiagConfig(interval=max(1, n // 200), grad_norms=False, h=True,
                          dist=False)
        # the 20 seeds as one batch of chains, each on its own stream
        results = run_chains(noisy, Rsgda(), plan, [init] * 20, n,
                             [RngStream(seed, stream_id=0) for seed in range(20)],
                             diag)
        mins = [r.summary["min_h"] for r in results]
        means.append(float(np.mean(mins)))
    r1 = means[0] / means[1]
    r2 = means[1] / means[2]
    assert r1 >= 1.6 and r2 >= 1.6
    print(f"noise-rate trend PASS: mean min-h {means[0]:.4f} -> {means[1]:.4f} "
          f"-> {means[2]:.4f} (ratios {r1:.2f}, {r2:.2f} >= 1.6)")


def test_every_shipped_oracle_passes_consistency_audit():
    # 1e5 draws per problem: Monte-Carlo mean within 4 aggregate standard
    # errors of the exact gradient, noise second moment within its bound,
    # finite differences within 1e-6 (analytic) or 1e-5 (network-backed).
    cases = [
        ("scsc_quadratic", make_scsc_quadratic(1.0, 0.4 * np.eye(2), 2, 2, sigma=0.5),
         {}, 1e-6),
        ("bilinear", make_bilinear(3, 3, sigma=0.3), {}, 1e-6),
        ("ncpl_quadratic", random_ncpl_instance(3, sigma=0.7), {}, 1e-6),
        ("gaussian_wgan", make_gaussian_wgan(batch=25),
         {"points": 4, "fd_coords": 6}, 1e-5),
        ("robust_regression", make_robust_regression(n=200, d=50, batch=50),
         {"points": 4, "fd_coords": 8}, 1e-5),
    ]
    details = []
    for i, (name, prob, kw, fd_cap) in enumerate(cases):
        rep = check_oracle(prob, 100_000, RngStream(600 + i, stream_id=0), **kw)
        assert rep.fd_threshold == fd_cap
        assert rep.max_fd_rel_err <= fd_cap
        details.append(f"{name} fd={rep.max_fd_rel_err:.1e}")
    print("oracle audit PASS: " + ", ".join(details))


def test_update_probability_formula_worked_values():
    from gdakit.problems.base import ProblemConstants

    exact_c = ProblemConstants(l1=2.0, mu=1.0, sigma=0.0)
    assert optimal_p(exact_c, delta=1.0, alpha=0.125, n=10**4) == p_max(exact_c)

    noisy_c = ProblemConstants(l1=2.0, mu=1.0, sigma=1.0)
    got = optimal_p(noisy_c, delta=1.0, alpha=0.125, n=10**4)
    want = 2.0 / (1.0 + math.sqrt(3240001.0))
    assert abs(got - want) / want < 1e-6
    assert abs(got - 1.1105e-3) < 1e-7

    scaled = {n: optimal_p(noisy_c, 1.0, 0.125, n) * math.sqrt(n)
              for n in (10**6, 10**8)}
    lo, hi = sorted(scaled.values())
    assert (hi - lo) / hi < 0.05
    print(f"update-probability PASS: p1 = {got:.6e} (target 1.1105e-3), "
          f"p*sqrt(n) drift {(hi - lo) / hi:.3%} < 5%")


def test_wgan_toy_methods_agree_at_equal_gradient_budget():
    # batch 100, alpha = eta = 0.01, 2000 gradient evaluations, 5 seeds:
    # the single-sample method at p = 1/(m+1) must land within 20% of the
    # m-ascent method's final generator distance, and both must cut the
    # initial distance at least in half.
    prob = make_gaussian_wgan()
    d0 = float(np.linalg.norm(prob.default_init(seed=19).x
                              - np.array([0.5, -1.5, 0.1, 0.3])))
    assert abs(d0 - 1.9494) < 1e-3
    budget = 2000
    seeds = (19, 20, 21, 22, 23)
    diag = DiagConfig(interval=10**6, grad_norms=False, dist=True)
    lines = []
    for m in (1, 5):
        plan = constant_plan(0.01, 0.01, 1.0 / (m + 1))
        inits = [prob.default_init(seed=seed) for seed in seeds]
        rand = run_chains(prob, Rsgda(), plan, inits, budget,
                          [RngStream(seed, 0) for seed in seeds], diag,
                          waive_constraints=True)
        multi = run_chains(prob, Esgda(m=m), plan, inits, budget // (m + 1),
                           [RngStream(seed, 0) for seed in seeds], diag,
                           waive_constraints=True)
        d_rand = [r.summary["final_dist"] for r in rand]
        d_multi = [e.summary["final_dist"] for e in multi]
        mean_r = float(np.mean(d_rand))
        mean_e = float(np.mean(d_multi))
        rel = abs(mean_r - mean_e) / mean_e
        assert rel <= 0.2
        assert mean_r < 0.5 * d0 and mean_e < 0.5 * d0
        lines.append(f"m={m}: {mean_r:.4f} vs {mean_e:.4f} (rel {rel:.3f})")
    print("toy-GAN consistency PASS: " + "; ".join(lines)
          + f"; both < {0.5 * d0:.4f}")


def test_harness_reruns_byte_identical_and_schedule_worked_values(tmp_path):
    cfg = {
        "problem": {
            "name": "scsc_quadratic",
            "params": {"a": 1.0, "coupling": None, "m": 2, "n": 2, "sigma": 0.5},
        },
        "optimizer": {"kind": "rsgda", "params": {}},
        "plan": {"kind": "constant", "alpha": 0.01, "eta": 0.3,
                 "p": {"p0": 0.5, "n1": 5, "n2": 5}},
        "iters": 20,
        "seeds": [0, 1],
        "init": {"kind": "gauss", "scale": 1.0},
    }
    cmd_run(cfg, tmp_path / "a")
    cmd_run(cfg, tmp_path / "b")
    names = ["summary.json"]
    for s in (0, 1):
        names += [f"trace_seed{s}.csv", f"final_x_seed{s}.csv", f"final_y_seed{s}.csv"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    sched = AdaPSchedule(p0=0.5, n1=300, n2=300)
    assert adaptive_p(sched, 100) == 0.5
    assert adaptive_p(sched, 300) == 0.5
    assert adaptive_p(sched, 900) == 1.0 / 3.0
    print(f"determinism PASS: {len(names)} files byte-identical across reruns; "
          "decay schedule matches worked values (0.5@100, 0.5@300, 1/3@900)")
