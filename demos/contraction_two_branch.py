"""Sweep the two-branch contraction factor on random SCSC instances.

One randomized step either descends in x or ascends in y. At update
probability p = 1/2 the expected squared distance to the saddle contracts
by rho = 1 - 2*p*mu*alpha + alpha^2*(1-p)*l1^2 at every point, for every
step size below the provable cap 2*p*mu/((1-p)*l1^2). Below p = 1/2 the
same pointwise form can fail on coupled instances even though the
expectation over a trajectory still behaves; the second half of the demo
hunts for such a pointwise violation.
"""
import numpy as np

from gdakit.core import RngStream
from gdakit.diagnostics import contraction_alpha_cap, contraction_rho, contraction_sweep
from gdakit.problems import make_scsc_quadratic, random_scsc_instance


def sweep_at_half(n_instances: int = 3, n_points: int = 500) -> None:
    print("p = 1/2, alpha swept over the provable range:")
    print(f"{'instance':>9} {'dim':>4} {'alpha/cap':>10} {'rho':>8} {'worst margin':>13}")
    for seed in range(n_instances):
        prob = random_scsc_instance(seed)
        c = prob.constants
        rng = RngStream(100 + seed, stream_id=0)
        points = [prob.random_point(rng, 2.0) for _ in range(n_points)]
        cap = contraction_alpha_cap(c, 0.5)
        for frac in (0.25, 0.5, 0.9):
            rep = contraction_sweep(prob, points, frac * cap, 0.5)
            rho = contraction_rho(c, frac * cap, 0.5)
            print(f"{seed:>9} {prob.m:>4} {frac:>10.2f} {rho:>8.4f} "
                  f"{rep.worst_margin:>13.3e}")
    print("negative margins: the bound holds at every sampled point\n")


def pointwise_failure_below_half() -> None:
    # strong coupling plus a small descent probability: the branch mix no
    # longer cancels the cross term, so single points can sit above rho
    prob = make_scsc_quadratic(1.0, [[1.8]], 1, 1)
    c = prob.constants
    p = 0.25
    alpha = 0.5 * contraction_alpha_cap(c, p)
    rng = RngStream(7, stream_id=0)
    points = [prob.random_point(rng, 2.0) for _ in range(2000)]
    rep = contraction_sweep(prob, points, alpha, p)
    rho = contraction_rho(c, alpha, p)
    print(f"p = {p}, coupled instance, alpha = {alpha:.4f}:")
    print(f"  rho = {rho:.4f}, worst measured-minus-rho margin = "
          f"{rep.worst_margin:+.4f}")
    if rep.worst_margin > 0:
        bad = points[rep.worst_index]
        print(f"  pointwise violation at x = {bad.x}, y = {bad.y}")
        print("  the per-point guarantee is specific to p >= 1/2; smaller p"
              " needs the full step-size constraints and averages over steps")
    else:
        print("  no violation found in this sample")


def main() -> None:
    sweep_at_half()
    pointwise_failure_below_half()


if __name__ == "__main__":
    main()
