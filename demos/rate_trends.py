"""Convergence-rate fingerprints of the randomized method.

Exact gradients: the running minimum of the efficiency metric h should
beat the 1/k envelope (log-log slope well below -0.8). With gradient
noise: tuning the step size to the horizon n recovers the 1/sqrt(n)
complexity signature, visible as the seed-averaged min-h dropping by
about 2x per 4x horizon increase.
"""
import math

import numpy as np

from gdakit.core import RngStream
from gdakit.diagnostics import lyapunov, rate_summary
from gdakit.optimizers import DiagConfig, Rsgda, run
from gdakit.problems import JointPoint, make_ncpl_quadratic
from gdakit.schedules import constant_plan, p_max, step_constraints


def fixed_instance(sigma: float):
    q = np.diag([1.0, 1.2, 0.8])
    a = np.diag([1.0, 1.0, 0.0])
    b = np.array([[0.5, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.0]])
    return make_ncpl_quadratic(q, 0.25, a, b, sigma=sigma)


def exact_rate() -> None:
    prob = fixed_instance(0.0)
    c = prob.constants
    p2 = p_max(c)
    sc = step_constraints(c, p2)
    plan = constant_plan(0.5 * sc.alpha_max, sc.eta_hi, p2)
    init = prob.random_point(RngStream(1001, stream_id=0), 2.0)
    res = run(prob, Rsgda(), plan, init, 5_000, RngStream(4, stream_id=0),
              DiagConfig(grad_norms=False, h=True, dist=False))
    rate = rate_summary(res.trace, sigma=0.0)
    print(f"exact gradients, {res.summary['iters']} steps at p = {p2:.4f}:")
    print(f"  running-min h exponent {rate.exponent:.2f} "
          f"(target <= -0.8), final min h {rate.final_min_h:.2e}\n")


def noisy_trend() -> None:
    prob = fixed_instance(0.5)
    c = prob.constants
    p2 = p_max(c)
    sc = step_constraints(c, p2)
    init = prob.random_point(RngStream(1001, stream_id=0), 2.0)

    # horizon-tuned alpha needs the initial merit gap; estimate it from the
    # merit at the start against the exact minimum of the noise-free twin
    exact = fixed_instance(0.0)
    x = np.zeros(3)
    for _ in range(5_000):
        _, y_star = exact.closed_phi(x)
        x = x - exact.exact_grad(JointPoint(x, y_star)).gx / c.l2
    phi_star, _ = exact.closed_phi(x)
    delta0 = lyapunov(exact, init) - phi_star
    m_const = (0.55 * c.l2 * p2 + p2 * c.l1 / 2.0
               + (18.0**2 * p2**2 / (2.0 * (1.0 - p2))) * c.l1 * c.kappa**4)

    print(f"noise sigma = 0.5, merit gap delta0 = {delta0:.3f}:")
    print(f"{'horizon n':>10} {'alpha':>9} {'mean min-h (8 seeds)':>21}")
    prev = None
    for n in (500, 2_000, 8_000):
        alpha = min(1.0 / (2.0 * c.l2),
                    math.sqrt(delta0 / ((n + 1) * m_const)) / c.sigma)
        plan = constant_plan(alpha, sc.eta_hi, p2)
        diag = DiagConfig(interval=max(1, n // 100), grad_norms=False, h=True,
                          dist=False)
        mins = [run(prob, Rsgda(), plan, init, n, RngStream(seed, 0),
                    diag).summary["min_h"] for seed in range(8)]
        mean = float(np.mean(mins))
        note = "" if prev is None else f"   ({prev / mean:.1f}x down)"
        print(f"{n:>10} {alpha:>9.5f} {mean:>21.5f}{note}")
        prev = mean
    print("dropping at least ~2x per 4x horizon: the 1/sqrt(n) envelope "
          "(early horizons ride the deterministic transient, which helps)")


def main() -> None:
    exact_rate()
    noisy_trend()


if __name__ == "__main__":
    main()
