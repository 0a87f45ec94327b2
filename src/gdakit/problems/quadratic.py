"""Analytic quadratic minimax families with additive Gaussian gradient noise.

Three factories:
  make_scsc_quadratic  F(x,y) = (a/2)|x|^2 + x'By - (a/2)|y|^2   (a-strongly
      convex-concave, Nash point at the origin, closed phi)
  make_bilinear        F(x,y) = x'y   (no inner curvature; the classic
      alternating-oscillation example)
  make_ncpl_quadratic  F(x,y) = g(x) + y'Bx - (1/2) y'Ay with A PSD and
      possibly singular, g(x) = (1/2) x'Qx + c*sum(sin(x_i)) nonconvex;
      gradient domination holds in y with constant = smallest positive
      eigenvalue of A, and range(B) within range(A) keeps the inner maximum
      attained for every x.

The stochastic oracle adds a state-independent Gaussian vector with total
variance sigma^2 split across the joint dimension, so the variance bound is
tight and exactly known. Gradients, values and the closed phi are
written once, for one point or for a stack of points (one per row), so
the batched and single-point forms share their arithmetic.
"""
from __future__ import annotations

import numpy as np

from ..core import ConstructionError, DimensionError, ParameterError, RngStream, row_dot
from .base import GradSample, JointPoint, Problem, ProblemConstants

_PINV_CUTOFF = 1e-10
_RANGE_TOL = 1e-10


def sym_pinv(a: np.ndarray, cutoff: float = _PINV_CUTOFF):
    """Pseudoinverse of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues below cutoff * lambda_max are treated as exact zeros.
    Returns (pinv, eigenvalues, eigenvectors, positive_mask).
    """
    vals, vecs = np.linalg.eigh(a)
    lam_max = float(vals.max(initial=0.0))
    pos = vals > cutoff * max(lam_max, 1.0) if lam_max <= 0 else vals > cutoff * lam_max
    inv_vals = np.where(pos, 1.0 / np.where(pos, vals, 1.0), 0.0)
    pinv = (vecs * inv_vals) @ vecs.T
    return pinv, vals, vecs, pos


def _mv(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """mat @ v for one vector v, or for each row of a stack v (S, k).

    Stacked matmul runs one matrix-vector product per row, so each row is
    bit-identical to mat @ row whatever S is; the plain v @ mat.T is one
    matrix product whose summation order changes low-order bits at S >= 2.
    """
    if v.ndim == 1:
        return mat @ v
    return np.matmul(mat, v[..., None])[..., 0]


class _AdditiveNoiseProblem(Problem):
    """Analytic problem whose sampled gradient is exact + Gaussian noise.

    Subclasses define _grads(x, y) -> (gx, gy) and _value(x, y) -> F, and
    where phi has a closed form _phi(x) -> (phi, y*), each on one point
    (1-d x, y) or on stacked rows (2-d), elementwise and through _mv and
    row_dot only, so each row of the stacked form is bit-identical to the
    single-point form.
    """

    def _grads(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _value(self, x: np.ndarray, y: np.ndarray):
        raise NotImplementedError

    def value(self, point: JointPoint) -> float:
        return float(self._value(point.x, point.y))

    def value_batch(self, x, y):
        return self._value(x, y)

    def exact_grad(self, point: JointPoint) -> GradSample:
        return GradSample(*self._grads(point.x, point.y))

    def exact_grad_batch(self, x, y):
        return self._grads(x, y)

    def closed_phi_batch(self, x):
        return self._phi(x)

    def draw_sample(self, rng: RngStream):
        if self.constants.sigma == 0.0:
            return None
        return rng.gauss(self.m + self.n, self._noise_std())

    def draw_samples(self, rng: RngStream, k: int):
        """k noise vectors as one (k, m+n) block: the stream fills it in
        row order, so row i is the i-th of k draw_sample calls."""
        if self.constants.sigma == 0.0:
            return [None] * k
        d = self.m + self.n
        return rng.gauss(k * d, self._noise_std()).reshape(k, d)

    def _noise_std(self) -> float:
        return self.constants.sigma / np.sqrt(self.m + self.n)

    def grad_with_sample(self, point: JointPoint, sample) -> GradSample:
        g = self.exact_grad(point)
        if sample is None:
            return g
        return GradSample(g.gx + sample[: self.m], g.gy + sample[self.m :])

    def grad_with_sample_batch(self, x, y, samples):
        gx, gy = self._grads(x, y)
        if samples[0] is None:  # sigma == 0 draws no noise for any row
            return gx, gy
        z = np.asarray(samples)
        return gx + z[:, : self.m], gy + z[:, self.m :]


class _ScscQuadratic(_AdditiveNoiseProblem):
    def __init__(self, a: float, coupling: np.ndarray, m: int, n: int, sigma: float):
        if a <= 0:
            raise ParameterError(f"scsc_quadratic: a must be > 0, got {a}")
        if m < 1 or n < 1:
            raise ParameterError("scsc_quadratic: dims must be >= 1")
        if coupling is None:
            coupling = np.zeros((m, n))
        b = np.asarray(coupling, dtype=np.float64)
        if b.shape != (m, n):
            raise DimensionError(
                f"scsc_quadratic: coupling must be ({m},{n}), got {b.shape}"
            )
        if not np.all(np.isfinite(b)):
            raise ParameterError("scsc_quadratic: coupling has non-finite entries")
        self.a = float(a)
        self.b_mat = b
        self.m, self.n = int(m), int(n)
        b_norm = float(np.linalg.norm(b, 2)) if b.any() else 0.0
        self.constants = ProblemConstants(l1=self.a + b_norm, mu=self.a, sigma=float(sigma))
        self.name = "scsc_quadratic"
        self.nash_point = JointPoint(np.zeros(m), np.zeros(n))
        self.metadata = {"a": self.a, "coupling_norm": b_norm}

    def _value(self, x, y):
        return (
            0.5 * self.a * row_dot(x, x)
            + row_dot(x, _mv(self.b_mat, y))
            - 0.5 * self.a * row_dot(y, y)
        )

    def _grads(self, x, y):
        return self.a * x + _mv(self.b_mat, y), _mv(self.b_mat.T, x) - self.a * y

    def closed_phi(self, x: np.ndarray):
        """phi(x) = (a/2)|x|^2 + |B'x|^2/(2a), maximizer y*(x) = B'x / a."""
        phi, y_star = self._phi(np.asarray(x, dtype=np.float64))
        return float(phi), y_star

    def _phi(self, x):
        bt_x = _mv(self.b_mat.T, x)
        phi = 0.5 * self.a * row_dot(x, x) + row_dot(bt_x, bt_x) / (2.0 * self.a)
        return phi, bt_x / self.a

    def dist_to_opt(self, point: JointPoint) -> float:
        return float(np.linalg.norm(point.joined()))


class _Bilinear(_AdditiveNoiseProblem):
    pl_condition = False

    def __init__(self, m: int, n: int, sigma: float):
        if m != n:
            raise DimensionError(f"bilinear: needs m == n, got {m} != {n}")
        if m < 1:
            raise ParameterError("bilinear: dims must be >= 1")
        self.m = self.n = int(m)
        # no inner curvature exists; mu is a placeholder so the dataclass
        # validates, and pl_condition=False makes phi-diagnostics refuse it
        self.constants = ProblemConstants(
            l1=1.0, mu=1.0, sigma=float(sigma), provenance="placeholder"
        )
        self.name = "bilinear"
        self.nash_point = JointPoint(np.zeros(m), np.zeros(n))
        self.metadata = {}

    def _value(self, x, y):
        return row_dot(x, y)

    def _grads(self, x, y):
        return y.copy(), x.copy()

    def dist_to_opt(self, point: JointPoint) -> float:
        return float(np.linalg.norm(point.joined()))


class _NcplQuadratic(_AdditiveNoiseProblem):
    def __init__(self, q: np.ndarray, c: float, a: np.ndarray, b: np.ndarray, sigma: float):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"ncpl_quadratic: A must be square, got {a.shape}")
        n = a.shape[0]
        if b.ndim != 2 or b.shape[0] != n:
            raise DimensionError(
                f"ncpl_quadratic: B must be (n={n}, m), got {b.shape}"
            )
        m = b.shape[1]
        if q.shape != (m, m):
            raise DimensionError(f"ncpl_quadratic: Q must be ({m},{m}), got {q.shape}")
        if not np.allclose(a, a.T, atol=1e-12):
            raise ConstructionError("ncpl_quadratic: A must be symmetric")
        if not np.allclose(q, q.T, atol=1e-12):
            raise ConstructionError("ncpl_quadratic: Q must be symmetric")

        pinv, vals, _, pos = sym_pinv(a)
        if vals.min() < -1e-10 * max(float(vals.max()), 1.0):
            raise ConstructionError(
                f"ncpl_quadratic: A has negative eigenvalue {vals.min():.3e}"
            )
        if not pos.any():
            raise ConstructionError("ncpl_quadratic: A has no positive eigenvalue")
        # inner maximum must be attained for every x: B's range inside A's
        resid = b - a @ (pinv @ b)
        if float(np.linalg.norm(resid)) > _RANGE_TOL:
            raise ConstructionError(
                "ncpl_quadratic: range(B) is not contained in range(A) "
                f"(||(I - A A^+) B|| = {np.linalg.norm(resid):.3e} > {_RANGE_TOL})"
            )

        self.q = q
        self.c = float(c)
        self.a_mat = a
        self.b_mat = b
        self.a_pinv = pinv
        self.phi_quad = b.T @ pinv @ b  # phi(x) = g(x) + (1/2) x' (B'A^+B) x
        self.m, self.n = int(m), int(n)
        mu = float(vals[pos].min())
        l1 = (
            float(np.linalg.norm(q, 2))
            + abs(self.c)
            + float(np.linalg.norm(a, 2))
            + float(np.linalg.norm(b, 2))
        )
        self.constants = ProblemConstants(l1=l1, mu=mu, sigma=float(sigma))
        self.name = "ncpl_quadratic"
        self.metadata = {"c": self.c, "rank_a": int(pos.sum())}

    def _g(self, x):
        # 0.5 * x @ v parses as (0.5 * x) @ v (* and @ bind alike); kept so
        # the bits do not move
        return row_dot(0.5 * x, _mv(self.q, x)) + self.c * np.sin(x).sum(axis=-1)

    def _value(self, x, y):
        return (
            self._g(x)
            + row_dot(y, _mv(self.b_mat, x))
            - row_dot(0.5 * y, _mv(self.a_mat, y))
        )

    def _grads(self, x, y):
        gx = _mv(self.q, x) + self.c * np.cos(x) + _mv(self.b_mat.T, y)
        gy = _mv(self.b_mat, x) - _mv(self.a_mat, y)
        return gx, gy

    def closed_phi(self, x: np.ndarray):
        """phi(x) = g(x) + (1/2)(Bx)'A^+(Bx); maximizer y*(x) = A^+ B x."""
        phi, y_star = self._phi(np.asarray(x, dtype=np.float64))
        return float(phi), y_star

    def _phi(self, x):
        phi = self._g(x) + row_dot(0.5 * x, _mv(self.phi_quad, x))
        return phi, _mv(self.a_pinv, _mv(self.b_mat, x))


def make_scsc_quadratic(a: float, coupling, m: int, n: int, sigma: float = 0.0) -> Problem:
    """Strongly-convex-strongly-concave quadratic; coupling may be None for B=0."""
    return _ScscQuadratic(a, coupling, m, n, sigma)


def make_bilinear(m: int, n: int, sigma: float = 0.0) -> Problem:
    return _Bilinear(m, n, sigma)


def make_ncpl_quadratic(q, c: float, a, b, sigma: float = 0.0) -> Problem:
    """Nonconvex in x, gradient-dominated in y. See module docstring."""
    return _NcplQuadratic(q, c, a, b, sigma)


def random_scsc_instance(
    seed: int,
    max_dim: int = 10,
    sigma: float = 0.0,
    a_range: tuple[float, float] = (0.3, 3.0),
    coupling_scale: float = 1.0,
) -> Problem:
    """Random square SCSC instance (m = n <= max_dim) for sweep tests."""
    rng = RngStream(seed, stream_id=90)
    m = int(rng.integers(1, max_dim + 1))
    lo, hi = a_range
    a = lo + (hi - lo) * rng.uniform()
    b = coupling_scale * rng.standard_normal((m, m)) / np.sqrt(m)
    return make_scsc_quadratic(a, b, m, m, sigma)


def random_ncpl_instance(
    seed: int,
    m: int = 4,
    n: int = 5,
    rank: int | None = None,
    c: float = 0.5,
    sigma: float = 0.0,
    coupling_cap: float = 2.0,
    a_eig_range: tuple[float, float] = (0.5, 2.5),
) -> Problem:
    """Random NC-PL quadratic with a rank-deficient A.

    coupling_cap bounds ||B||_2 / mu. Keeping it <= 2 guarantees the induced
    smoothness bound l2 on grad phi really holds for the instance (stronger
    coupling can push the true Lipschitz constant of grad phi past l2, which
    would invalidate descent-style diagnostics).
    """
    rng = RngStream(seed, stream_id=91)
    if rank is None:
        rank = max(1, n - 1)
    if not (1 <= rank <= n):
        raise ParameterError(f"random_ncpl_instance: rank must be in [1, {n}]")
    lo, hi = a_eig_range
    eigs = np.zeros(n)
    eigs[:rank] = lo + (hi - lo) * np.array([rng.uniform() for _ in range(rank)])
    qmat = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (qmat * eigs) @ qmat.T
    a = 0.5 * (a + a.T)
    mu = eigs[:rank].min()
    b = a @ rng.standard_normal((n, m))
    b_norm = float(np.linalg.norm(b, 2))
    if b_norm > 0:
        b *= coupling_cap * mu / b_norm * rng.uniform()
    qx = rng.standard_normal((m, m)) / np.sqrt(m)
    qx = 0.5 * (qx + qx.T)
    return make_ncpl_quadratic(qx, c, a, b, sigma)
