"""Flat-parameter MLP: packing, forward, manual backprop, persistence."""
import numpy as np
import pytest

from gdakit.core import DimensionError, ParameterError, RngStream
from gdakit import mlp


def test_param_count_2_3_1():
    arch = mlp.MlpArch((2, 3, 1))
    assert arch.n_params == (2 * 3 + 3) + (3 * 1 + 1) == 13


def test_arch_validation():
    with pytest.raises(ParameterError):
        mlp.MlpArch((1,))
    with pytest.raises(ParameterError):
        mlp.MlpArch((2, 0, 1))
    with pytest.raises(ParameterError):
        mlp.MlpArch((2, 3, 1), activation="sigmoid")


def test_hidden_free_affine_worked_value():
    # single layer, W=[2], b=[1]: forward(3) = 2*3 + 1 = 7
    arch = mlp.MlpArch((1, 1))
    params = np.array([2.0, 1.0])
    out = mlp.forward(arch, params, np.array([3.0]))
    assert out.shape == (1,)
    assert out[0] == 7.0


def test_identity_linear_layer():
    arch = mlp.MlpArch((3, 3))
    params = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
    x = np.array([0.3, -1.2, 2.0])
    assert np.allclose(mlp.forward(arch, params, x), x)


def test_zero_params_tanh_outputs_zero():
    arch = mlp.MlpArch((2, 4, 1))
    out = mlp.forward(arch, np.zeros(arch.n_params), np.array([5.0, -3.0]))
    assert np.array_equal(out, np.zeros(1))


def test_init_scale_zero_gives_zero_net():
    arch = mlp.MlpArch((2, 4, 1))
    rng = RngStream(0)
    params = mlp.init_params(arch, rng, scale=0.0)
    assert np.array_equal(params, np.zeros(arch.n_params))


def test_init_deterministic():
    arch = mlp.MlpArch((2, 5, 1))
    a = mlp.init_params(arch, RngStream(5, stream_id=2))
    b = mlp.init_params(arch, RngStream(5, stream_id=2))
    assert np.array_equal(a, b)


def test_backward_affine_worked_values():
    # W=[2], b=[1], x=3, out_grad=1: dW = x*1 = 3, db = 1, dx = W = 2
    arch = mlp.MlpArch((1, 1))
    params = np.array([2.0, 1.0])
    pgrad, xgrad = mlp.backward(arch, params, np.array([3.0]), np.array([1.0]))
    assert np.allclose(pgrad, [3.0, 1.0])
    assert np.allclose(xgrad, [2.0])


def test_backward_zero_out_grad():
    arch = mlp.MlpArch((2, 3, 1))
    params = mlp.init_params(arch, RngStream(1))
    pgrad, xgrad = mlp.backward(arch, params, np.array([0.5, -0.5]), np.zeros(1))
    assert np.array_equal(pgrad, np.zeros(arch.n_params))
    assert np.array_equal(xgrad, np.zeros(2))


def _fd_param_grad(arch, params, x, out_grad, h=1e-5):
    g = np.zeros_like(params)
    for i in range(params.size):
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        fu = float(out_grad @ mlp.forward(arch, up, x))
        fd = float(out_grad @ mlp.forward(arch, dn, x))
        g[i] = (fu - fd) / (2 * h)
    return g


@pytest.mark.parametrize("activation,tol", [("tanh", 1e-6), ("relu", 1e-5)])
def test_backward_matches_finite_differences(activation, tol):
    arch = mlp.MlpArch((3, 5, 4, 2), activation=activation)
    rng = RngStream(17, stream_id=3)
    for trial in range(5):
        params = mlp.init_params(arch, rng)
        x = rng.gauss(3, 1.0)
        out_grad = rng.gauss(2, 1.0)
        if activation == "relu":
            # relu kink: skip trials where any preactivation sits near it
            # (margin must exceed the FD step's largest preactivation shift)
            act = x
            ok = True
            for w, bias in mlp._unpack(arch, params):
                z = act @ w + bias
                if np.any(np.abs(z) < 1e-3):
                    ok = False
                    break
                act = np.maximum(z, 0.0)
            if not ok:
                continue
        pgrad, _ = mlp.backward(arch, params, x, out_grad)
        fd = _fd_param_grad(arch, params, x, out_grad)
        denom = np.maximum(np.abs(pgrad), 1e-8)
        assert np.max(np.abs(fd - pgrad) / denom) <= tol


def test_forward_batch_matches_single():
    arch = mlp.MlpArch((2, 4, 3))
    rng = RngStream(2)
    params = mlp.init_params(arch, rng)
    xs = rng.standard_normal((6, 2))
    batch = mlp.forward_batch(arch, params, xs)
    for i in range(6):
        assert np.allclose(batch[i], mlp.forward(arch, params, xs[i]))


def test_backward_batch_sums_per_sample_grads():
    arch = mlp.MlpArch((2, 4, 1))
    rng = RngStream(4)
    params = mlp.init_params(arch, rng)
    xs = rng.standard_normal((5, 2))
    gs = rng.standard_normal((5, 1))
    pg_batch, xg_batch = mlp.backward_batch(arch, params, xs, gs)
    pg_sum = np.zeros(arch.n_params)
    for i in range(5):
        pg_i, xg_i = mlp.backward(arch, params, xs[i], gs[i])
        pg_sum += pg_i
        assert np.allclose(xg_batch[i], xg_i)
    assert np.allclose(pg_batch, pg_sum)


def test_forward_rejects_wrong_input_dim():
    arch = mlp.MlpArch((2, 3, 1))
    params = np.zeros(arch.n_params)
    with pytest.raises(DimensionError):
        mlp.forward(arch, params, np.zeros(3))
    with pytest.raises(DimensionError):
        mlp.forward(arch, np.zeros(5), np.zeros(2))
