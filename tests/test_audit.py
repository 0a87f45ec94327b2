"""Batched oracle audit and certificate sweeps against per-draw / per-point
reference loops: every reported number, index and the stream position
afterwards must match exactly."""
import copy
import json
import math

import numpy as np
import pytest

import gdakit.problems.base as base
from gdakit.core import (
    CapabilityError,
    ConstraintError,
    OracleViolation,
    ParameterError,
    RngStream,
)
from gdakit.diagnostics import (
    LYAPUNOV_C,
    contraction_alpha_cap,
    contraction_check,
    contraction_rho,
    contraction_sweep,
    descent_check,
    descent_sweep,
    fd_gradient_check,
    h_metric,
    lyapunov,
)
from gdakit.harness.commands import cmd_check
from gdakit.problems import (
    JointPoint,
    OracleReport,
    check_oracle,
    make_bilinear,
    make_gaussian_wgan,
    make_robust_regression,
    make_scsc_quadratic,
    random_ncpl_instance,
    random_scsc_instance,
)
from gdakit.schedules import p_max, step_constraints


def reference_check_oracle(
    problem, trials, rng, *, points=10, point_scale=1.0, fd_step=1e-5,
    fd_threshold=None, fd_coords=None, noise_slack=0.1,
):
    """check_oracle as one draw at a time: one sampled gradient and one
    concatenation per draw, moments accumulated in a Python loop."""
    per_point = max(trials // points, 1)
    if fd_threshold is None:
        fd_threshold = 1e-5 if problem.metadata.get("mlp_backed") else 1e-6
    sigma = problem.constants.sigma
    worst_dev = worst_noise = worst_fd = 0.0
    for _ in range(points):
        point = problem.random_point(rng, point_scale)
        exact = problem.exact_grad(point)
        exact_flat = np.concatenate([exact.gx, exact.gy])
        s1 = np.zeros(exact_flat.shape[0])
        s2 = np.zeros(exact_flat.shape[0])
        q1 = q2 = 0.0
        for _ in range(per_point):
            g = problem.grad_with_sample(point, reference_draw(problem, rng))
            flat = np.concatenate([g.gx, g.gy])
            s1 += flat
            s2 += flat * flat
            d = flat - exact_flat
            ns = float(d @ d)
            q1 += ns
            q2 += ns * ns
        mean = s1 / per_point
        var = np.maximum(s2 / per_point - mean * mean, 0.0)
        err = float(np.linalg.norm(mean - exact_flat))
        se_agg = float(np.sqrt(var.sum() / per_point))
        allowed = 4.0 * se_agg + 1e-12 * (1.0 + float(np.linalg.norm(exact_flat)))
        assert err <= allowed
        worst_dev = max(worst_dev, err / allowed)
        noise_sq = q1 / per_point
        se_noise = math.sqrt(max(q2 / per_point - noise_sq * noise_sq, 0.0) / per_point)
        cap = sigma * sigma * (1.0 + noise_slack) + 4.0 * se_noise + 1e-12
        assert noise_sq <= cap
        worst_noise = max(worst_noise, noise_sq / cap)
        if fd_coords is None or fd_coords >= problem.m:
            cx = np.arange(problem.m)
        else:
            cx = rng.integers(0, problem.m, size=fd_coords)
        if fd_coords is None or fd_coords >= problem.n:
            cy = np.arange(problem.n)
        else:
            cy = rng.integers(0, problem.n, size=fd_coords)
        fd = []
        for i in cx:
            xp, xm = point.x.copy(), point.x.copy()
            xp[i] += fd_step
            xm[i] -= fd_step
            fd.append((problem.value(JointPoint(xp, point.y))
                       - problem.value(JointPoint(xm, point.y))) / (2 * fd_step))
        for i in cy:
            yp, ym = point.y.copy(), point.y.copy()
            yp[i] += fd_step
            ym[i] -= fd_step
            fd.append((problem.value(JointPoint(point.x, yp))
                       - problem.value(JointPoint(point.x, ym))) / (2 * fd_step))
        g = np.concatenate([exact.gx[cx], exact.gy[cy]])
        rel = np.abs(np.array(fd) - g) / np.maximum(np.abs(g), 1e-8)
        fd_err = float(rel.max()) if rel.size else 0.0
        assert fd_err <= fd_threshold
        worst_fd = max(worst_fd, fd_err)
    return OracleReport(points, per_point, worst_dev, worst_noise, worst_fd, fd_threshold)


def _small_regression():
    return make_robust_regression(n=30, d=4, reg_arch=(4, 3, 1), batch=10)


# per point: 2 * 1024 + 37 draws, so the last chunk is a partial one
_AUDIT_CASES = [
    ("scsc_sigma0", lambda: make_scsc_quadratic(1.0, 0.4 * np.eye(2), 2, 2), 2 * 2085, {"points": 2}),
    ("scsc", lambda: make_scsc_quadratic(1.0, [[0.4, 0.1]], 1, 2, sigma=0.5), 3 * 2085, {"points": 3}),
    ("ncpl_sigma0", lambda: random_ncpl_instance(3), 2 * 2085, {"points": 2}),
    ("ncpl", lambda: random_ncpl_instance(3, sigma=0.7), 2 * 2085, {"points": 2}),
    ("bilinear_sigma0", lambda: make_bilinear(3, 3), 2085, {"points": 1}),
    ("bilinear", lambda: make_bilinear(1, 1, sigma=0.3), 2 * 2085, {"points": 2}),
    ("regression", _small_regression, 600, {"points": 2, "fd_coords": 5}),
]


@pytest.mark.parametrize("name,make,trials,kw", _AUDIT_CASES, ids=[c[0] for c in _AUDIT_CASES])
def test_batched_audit_equals_per_draw_reference(name, make, trials, kw):
    prob = make()
    rng_ref, rng = RngStream(44, stream_id=5), RngStream(44, stream_id=5)
    want = reference_check_oracle(prob, trials, rng_ref, **kw)
    got = check_oracle(prob, trials, rng, **kw)
    assert got == want
    # the audit leaves the stream where the per-draw loop leaves it
    assert np.array_equal(rng.standard_normal(4), rng_ref.standard_normal(4))


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_batched_audit_is_chunk_independent(monkeypatch, chunk):
    prob = random_ncpl_instance(5, sigma=0.4)
    want = reference_check_oracle(prob, 300, RngStream(9), points=3)
    monkeypatch.setattr(base, "_AUDIT_CHUNK", chunk)
    assert check_oracle(prob, 300, RngStream(9), points=3) == want


def test_audit_rejects_non_finite_sampled_gradient_on_stacked_path():
    prob = make_scsc_quadratic(1.0, None, 2, 2, sigma=0.5)
    draw = prob.draw_samples

    def poisoned(rng, k):
        z = draw(rng, k)
        z[min(5, k - 1), 1] = np.inf
        return z

    prob.draw_samples = poisoned
    with pytest.raises(OracleViolation, match="non-finite sampled gradient at probe point 0"):
        check_oracle(prob, 1000, RngStream(1), points=2)


def test_audit_rejects_batched_oracle_that_disagrees_with_single_point_oracle():
    prob = make_scsc_quadratic(1.0, 0.4 * np.eye(2), 2, 2, sigma=0.5)
    batch = prob.grad_with_sample_batch

    def off_by_an_ulp(x, y, samples):
        # the S = 1 view grad_with_sample calls this too: leave it exact
        gx, gy = batch(x, y, samples)
        return (np.nextafter(gx, np.inf) if len(x) > 1 else gx), gy

    prob.grad_with_sample_batch = off_by_an_ulp
    with pytest.raises(OracleViolation, match="disagrees with grad_with_sample at probe point 0"):
        check_oracle(prob, 1000, RngStream(3), points=2)


def reference_draw(prob, rng):
    """One sample of prob by its per-draw formula, written here
    independently of the Problem draw methods."""
    if prob.name == "robust_regression":
        return rng.integers(0, prob.n, size=prob.batch)
    if prob.name == "gaussian_wgan":
        data = prob.mu_star + prob.sigma_star * rng.standard_normal((prob.batch, 2))
        return np.stack([data, rng.standard_normal((prob.batch, 2))])
    if prob.constants.sigma == 0.0:
        return None
    d = prob.m + prob.n
    return prob.constants.sigma / np.sqrt(d) * rng.standard_normal(d)


def _same_sample(want, got):
    return (want is None and got is None) or np.array_equal(want, got)


_DRAW_PROBLEMS = {
    "scsc": lambda: make_scsc_quadratic(1.0, None, 2, 3, sigma=0.5),
    "sigma0": lambda: make_scsc_quadratic(1.0, None, 2, 3),
    "bilinear": lambda: make_bilinear(2, 2, sigma=0.3),
    "ncpl": lambda: random_ncpl_instance(2, sigma=0.5),
    "regression": _small_regression,
    "wgan": lambda: make_gaussian_wgan(disc_arch=(2, 3, 1), quad_nodes=10, batch=3),
}


@pytest.mark.parametrize("name", _DRAW_PROBLEMS)
def test_draw_samples_match_reference_draws_and_stream_position(name):
    prob = _DRAW_PROBLEMS[name]()
    rng_ref, rng, rng_one = RngStream(8), RngStream(8), RngStream(8)
    want = [reference_draw(prob, rng_ref) for _ in range(9)]
    got = prob.draw_samples(rng, 9)
    assert len(got) == 9
    for w, g in zip(want, got):
        assert _same_sample(w, g)
        assert _same_sample(w, prob.draw_sample(rng_one))
    assert rng.uniform() == rng_one.uniform() == rng_ref.uniform()


@pytest.mark.parametrize("n", [2, 3, 7, 200, 1000, 2**31 - 1])
@pytest.mark.parametrize("batch", [1, 2, 5, 50, 51])
def test_regression_index_block_matches_single_draws(n, batch):
    # numpy does not document that a block of bounded integers equals the
    # same number of single draws; draw_samples and draw_rows only read n
    # and batch, so a copy with those swapped covers datasets too large to
    # build
    prob = copy.copy(_small_regression())
    prob.n, prob.batch = n, batch
    rng_ref, rng = RngStream(5, 1), RngStream(5, 1)
    for k in (1, 2, 7):
        want = [reference_draw(prob, rng_ref) for _ in range(k)]
        assert np.array_equal(prob.draw_samples(rng, k), np.array(want))
        assert rng.uniform() == rng_ref.uniform()
    rngs = [RngStream(5, i) for i in range(3)]
    refs = [RngStream(5, i) for i in range(3)]
    assert np.array_equal(prob.draw_rows(rngs), np.array([reference_draw(prob, r) for r in refs]))
    assert [r.uniform() for r in rngs] == [r.uniform() for r in refs]


@pytest.mark.parametrize("s", [1, 3, 8])
@pytest.mark.parametrize("name", _DRAW_PROBLEMS)
def test_draw_rows_match_reference_draw_per_stream(name, s):
    prob = _DRAW_PROBLEMS[name]()
    rngs = [RngStream(20 + i, 3) for i in range(s)]
    for i, rng in enumerate(rngs):
        # stream i starts i bounded draws in, so the streams' positions
        # (and any buffered half of a 64-bit word) differ
        rng.integers(0, 7, size=i)
    refs = [copy.deepcopy(rng) for rng in rngs]
    got = prob.draw_rows(rngs)
    assert len(got) == s
    for i in range(s):
        assert _same_sample(reference_draw(prob, refs[i]), got[i])
        assert rngs[i].uniform() == refs[i].uniform()


@pytest.mark.parametrize(
    "prob",
    [random_ncpl_instance(1), make_gaussian_wgan(disc_arch=(2, 3, 1), quad_nodes=10)],
    ids=["base", "wgan"],
)
def test_random_points_match_single_points_and_stream_position(prob):
    rng_ref, rng = RngStream(4), RngStream(4)
    want = [prob.random_point(rng_ref, 1.5) for _ in range(6)]
    x, y = prob.random_points(rng, 6, 1.5)
    assert np.array_equal(x, np.array([p.x for p in want]))
    assert np.array_equal(y, np.array([p.y for p in want]))
    assert rng.uniform() == rng_ref.uniform()


@pytest.mark.parametrize(
    "prob",
    [random_scsc_instance(2), random_ncpl_instance(6, m=3, n=4), make_bilinear(3, 3), _small_regression()],
    ids=["scsc", "ncpl", "bilinear", "per_row"],
)
def test_stacked_forms_rows_equal_single_point_forms(prob):
    x, y = prob.random_points(RngStream(12), 17, 1.3)
    gx, gy = prob.exact_grad_batch(x, y)
    vals = prob.value_batch(x, y)
    for i in range(len(x)):
        pt = JointPoint(x[i], y[i])
        g = prob.exact_grad(pt)
        assert np.array_equal(gx[i], g.gx) and np.array_equal(gy[i], g.gy)
        assert vals[i] == prob.value(pt)
    if prob.closed_phi_batch is not None:
        phi, y_star = prob.closed_phi_batch(x)
        for i in range(len(x)):
            want_phi, want_y = prob.closed_phi(x[i])
            assert phi[i] == want_phi and np.array_equal(y_star[i], want_y)


@pytest.mark.parametrize("coords", [(None, None), ([2, 0, 2], [1]), ([], [3, 3, 0])])
def test_fd_gradient_check_equals_per_coordinate_reference(coords):
    prob = random_ncpl_instance(7, m=3, n=4)
    pt = prob.random_point(RngStream(30), 1.0)
    cx = range(prob.m) if coords[0] is None else coords[0]
    cy = range(prob.n) if coords[1] is None else coords[1]
    g = prob.exact_grad(pt)
    want = 0.0
    for block, coords_b, grad in (("x", cx, g.gx), ("y", cy, g.gy)):
        for i in coords_b:
            plus, minus = pt.joined(), pt.joined()
            j = i if block == "x" else prob.m + i
            plus[j] += 1e-4
            minus[j] -= 1e-4
            fd = (prob.value(JointPoint(plus[: prob.m], plus[prob.m:]))
                  - prob.value(JointPoint(minus[: prob.m], minus[prob.m:]))) / (2 * 1e-4)
            want = max(want, abs(fd - grad[i]) / max(abs(grad[i]), 1e-8))
    got = fd_gradient_check(prob, pt, 1e-4, coords_x=coords[0], coords_y=coords[1])
    assert got == want


# ------------------------------------------------------------------ sweeps

def _reference_ratio(prob, pt, alpha, p):
    u_star = prob.nash_point.joined()
    u = pt.joined()
    base_sq = float((u - u_star) @ (u - u_star))
    g = prob.exact_grad(pt)
    xn = np.concatenate([pt.x - alpha * g.gx, pt.y]) - u_star
    yn = np.concatenate([pt.x, pt.y + alpha * g.gy]) - u_star
    return (p * float(xn @ xn) + (1.0 - p) * float(yn @ yn)) / base_sq


def _reference_contraction(prob, pts, alpha, p):
    """(worst measured - rho, its first index) one point at a time."""
    c = prob.constants
    rho = 1.0 - 2.0 * p * c.mu * alpha + alpha**2 * (1.0 - p) * c.l1**2
    worst, worst_i = -math.inf, -1
    for i, pt in enumerate(pts):
        m = _reference_ratio(prob, pt, alpha, p) - rho
        if m > worst:
            worst, worst_i = m, i
    return worst, worst_i


def _reference_residuals(prob, pts, alpha, eta, p, c=LYAPUNOV_C):
    out = []
    for pt in pts:
        g = prob.exact_grad(pt)
        v = lyapunov(prob, pt, c)
        v_x = lyapunov(prob, JointPoint(pt.x - alpha * g.gx, pt.y), c)
        v_y = lyapunov(prob, JointPoint(pt.x, pt.y + eta * g.gy), c)
        lhs = v - (p * v_x + (1.0 - p) * v_y)
        out.append(lhs - p * alpha * h_metric(prob, pt))
    return out


@pytest.mark.parametrize(
    "prob", [random_scsc_instance(s) for s in range(4)] + [make_bilinear(2, 2)],
    ids=["scsc0", "scsc1", "scsc2", "scsc3", "bilinear"],
)
@pytest.mark.parametrize("p", [0.5, 0.3])
def test_contraction_sweep_equals_per_point_reference(prob, p):
    rng = RngStream(21)
    pts = [prob.random_point(rng, 2.0) for _ in range(150)]
    alpha = 0.7 * 2.0 * p * prob.constants.mu / ((1.0 - p) * prob.constants.l1**2)
    worst, worst_i = _reference_contraction(prob, pts, alpha, p)
    rep = contraction_sweep(prob, pts, alpha, p)
    assert (rep.count, rep.worst_margin, rep.worst_index) == (150, worst, worst_i)
    stacked = contraction_sweep(prob, (np.array([q.x for q in pts]), np.array([q.y for q in pts])), alpha, p)
    assert stacked == rep
    if p == 0.5 and prob.pl_condition:  # provable: the check passes everywhere
        for pt in pts[:10] + [pts[worst_i]]:
            rep1 = contraction_check(prob, pt, alpha, p)
            assert rep1.measured_ratio == _reference_ratio(prob, pt, alpha, p)
            assert rep1.rho == contraction_rho(prob.constants, alpha, p)


@pytest.mark.parametrize(
    "prob", [random_scsc_instance(3), random_ncpl_instance(4), random_ncpl_instance(8, m=2, n=3), _small_regression()],
    ids=["scsc", "ncpl4", "ncpl8", "per_row"],
)
def test_descent_sweep_equals_per_point_reference(prob):
    p = 0.8 * p_max(prob.constants)
    sc = step_constraints(prob.constants, p)
    alpha, eta = 0.6 * sc.alpha_max, 0.5 * (sc.eta_lo(0.6 * sc.alpha_max) + sc.eta_hi)
    rng = RngStream(22)
    pts = [prob.random_point(rng, 1.5) for _ in range(60)]
    res = _reference_residuals(prob, pts, alpha, eta, p)
    rep = descent_sweep(prob, pts, alpha, eta, p)
    assert rep.count == 60
    assert -rep.worst_margin == min(res)
    assert rep.worst_index == res.index(min(res))
    for pt, r in zip(pts[:5], res):
        assert descent_check(prob, pt, alpha, eta, p).residual == r


def test_sweeps_fail_closed_on_non_finite_points():
    prob = make_scsc_quadratic(1.0, 0.4 * np.eye(2), 2, 2)
    x, y = prob.random_points(RngStream(5), 4, 1.0)
    x[2, 0] = 1e160  # the squared distance overflows at point 2 only
    rep = contraction_sweep(prob, (x, y), 0.1, 0.5)
    assert rep.worst_index == 2 and not math.isfinite(rep.worst_margin)
    sc = step_constraints(prob.constants, p_max(prob.constants))
    rep = descent_sweep(prob, (x, y), 0.5 * sc.alpha_max, sc.eta_hi, sc.p)
    assert rep.worst_index == 2 and not math.isfinite(rep.worst_margin)


def test_worst_margin_names_the_first_non_finite_point():
    # argmax alone would pass over a -inf margin and name a later NaN
    from gdakit.diagnostics import _worst

    rep = _worst(np.array([0.1, -np.inf, 0.5, np.nan]))
    assert (rep.count, rep.worst_index, rep.worst_margin) == (4, 1, -np.inf)
    rep = _worst(np.array([0.1, 0.5, -0.2]))
    assert (rep.worst_index, rep.worst_margin) == (1, 0.5)


def test_sweeps_refuse_problems_without_the_certificate_they_need():
    prob = random_ncpl_instance(0)  # no Nash point; a closed phi
    with pytest.raises(CapabilityError, match="no Nash point"):
        contraction_sweep(prob, [prob.random_point(RngStream(1))], 0.01, 0.5)
    bil = make_bilinear(1, 1)  # no closed phi
    with pytest.raises(CapabilityError, match="closed-form inner maximum"):
        descent_sweep(bil, [bil.random_point(RngStream(1))], 0.1, 0.5, 0.05)


def test_contraction_sweep_refuses_what_contraction_check_refuses():
    # the sweep used to check only the Nash point: at p = 0 it passed with
    # margin 0, and at alpha = 50 (rho = 2401) with margin -1000
    prob = make_scsc_quadratic(1.0, 0.4 * np.eye(2), 2, 2, sigma=0.3)
    cap = contraction_alpha_cap(prob.constants, 0.5)
    no_nash = random_ncpl_instance(0)
    cases = [
        # (problem, alpha, p, the error both raise, or None)
        (prob, 0.5 * cap, 0.5, None),
        (no_nash, 0.01, 0.5, CapabilityError),
        (no_nash, 50.0, 0.0, CapabilityError),  # the Nash point is checked first
        (prob, 0.1, 0.0, ParameterError),
        (prob, 0.1, -0.5, ParameterError),
        (prob, 0.1, 1.5, ParameterError),
        (prob, 0.1, math.nan, ParameterError),
        (prob, 50.0, 0.0, ParameterError),  # then p, then alpha
        (prob, 0.0, 1.0, ParameterError),
        (prob, 50.0, 0.5, ConstraintError),
        (prob, cap, 0.5, ConstraintError),
        (prob, 0.0, 0.5, ConstraintError),
        (prob, -0.1, 0.5, ConstraintError),
        (prob, math.nan, 0.5, ConstraintError),
    ]
    for problem, alpha, p, error in cases:
        pt = JointPoint(np.ones(problem.m), np.ones(problem.n))
        if error is None:
            contraction_check(problem, pt, alpha, p)
            contraction_sweep(problem, [pt], alpha, p)
            continue
        with pytest.raises(error) as by_check:
            contraction_check(problem, pt, alpha, p)
        with pytest.raises(error) as by_sweep:
            contraction_sweep(problem, [pt], alpha, p)
        assert str(by_sweep.value) == str(by_check.value), (alpha, p)


def test_sweeps_reject_empty_point_sets():
    prob = make_scsc_quadratic(1.0, None, 1, 1)
    with pytest.raises(ParameterError, match="points must be >= 1"):
        contraction_sweep(prob, [], 0.1, 0.5)
    with pytest.raises(ParameterError, match="points must be >= 1"):
        descent_sweep(prob, [], 0.1, 0.5, 0.05)


# ------------------------------------------------------- check command

def _check_cfg(sweeps):
    return {
        "problem": {
            "name": "scsc_quadratic",
            "params": {"a": 1.0, "coupling": [[0.4, 0.0], [0.0, 0.4]], "m": 2, "n": 2, "sigma": 0.3},
        },
        "seed": 3,
        "oracle": {"trials": 400, "points": 2},
        "sweeps": sweeps,
    }


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"non-finite number {token} in {path.name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_check_sweeps_with_no_points_fail_closed(tmp_path):
    report = cmd_check(_check_cfg({"contraction": {"points": 0}, "descent": {"points": 0}}), tmp_path)
    for part in ("contraction", "descent"):
        assert report[part]["passed"] is False
        assert "points must be >= 1" in report[part]["error"]
    assert report["oracle"]["passed"] is True
    assert report["passed"] is False
    assert _strict_json(tmp_path / "check.json") == report


def test_check_sweeps_with_overflowing_points_fail_closed(tmp_path):
    report = cmd_check(
        _check_cfg({"contraction": {"points": 5, "scale": 1e160}, "descent": {"points": 5, "scale": 1e160}}),
        tmp_path,
    )
    assert report["contraction"]["passed"] is False
    assert report["contraction"]["worst_margin"] is None
    assert report["contraction"]["error"] == "non-finite margin at point 0"
    assert report["descent"]["passed"] is False
    assert report["descent"]["worst_residual"] is None
    assert report["descent"]["error"] == "non-finite residual at point 0"
    assert report["passed"] is False
    assert _strict_json(tmp_path / "check.json") == report
