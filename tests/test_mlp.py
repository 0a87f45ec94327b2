"""Flat-parameter MLP: packing, forward, manual backprop, stacked calls."""
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
    out = mlp.forward_batch(arch, params, np.array([[3.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 7.0


def test_identity_linear_layer():
    arch = mlp.MlpArch((3, 3))
    params = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
    x = np.array([0.3, -1.2, 2.0])
    assert np.allclose(mlp.forward_batch(arch, params, x[None])[0], x)


def test_zero_params_tanh_outputs_zero():
    arch = mlp.MlpArch((2, 4, 1))
    out = mlp.forward_batch(arch, np.zeros(arch.n_params), np.array([[5.0, -3.0]]))
    assert np.array_equal(out, np.zeros((1, 1)))


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
    pgrad, xgrad = mlp.backward_batch(arch, params, np.array([[3.0]]), np.array([[1.0]]))
    assert np.allclose(pgrad, [3.0, 1.0])
    assert np.allclose(xgrad, [[2.0]])


def test_backward_zero_out_grad():
    arch = mlp.MlpArch((2, 3, 1))
    params = mlp.init_params(arch, RngStream(1))
    pgrad, xgrad = mlp.backward_batch(arch, params, np.array([[0.5, -0.5]]), np.zeros((1, 1)))
    assert np.array_equal(pgrad, np.zeros(arch.n_params))
    assert np.array_equal(xgrad, np.zeros((1, 2)))


def _fd_param_grad(arch, params, x, out_grad, h=1e-5):
    g = np.zeros_like(params)
    for i in range(params.size):
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        fu = float(out_grad @ mlp.forward_batch(arch, up, x[None])[0])
        fd = float(out_grad @ mlp.forward_batch(arch, dn, x[None])[0])
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
        pgrad, _ = mlp.backward_batch(arch, params, x[None], out_grad[None])
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
        assert np.allclose(batch[i], mlp.forward_batch(arch, params, xs[i : i + 1])[0])


def test_backward_batch_sums_per_sample_grads():
    arch = mlp.MlpArch((2, 4, 1))
    rng = RngStream(4)
    params = mlp.init_params(arch, rng)
    xs = rng.standard_normal((5, 2))
    gs = rng.standard_normal((5, 1))
    pg_batch, xg_batch = mlp.backward_batch(arch, params, xs, gs)
    pg_sum = np.zeros(arch.n_params)
    for i in range(5):
        pg_i, xg_i = mlp.backward_batch(arch, params, xs[i : i + 1], gs[i : i + 1])
        pg_sum += pg_i
        assert np.allclose(xg_batch[i], xg_i[0])
    assert np.allclose(pg_batch, pg_sum)


def test_forward_rejects_wrong_input_dim():
    arch = mlp.MlpArch((2, 3, 1))
    params = np.zeros(arch.n_params)
    with pytest.raises(DimensionError):
        mlp.forward_batch(arch, params, np.zeros((1, 3)))
    with pytest.raises(DimensionError):
        mlp.forward_batch(arch, np.zeros(5), np.zeros((1, 2)))


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("sizes", [(2, 4, 1), (3, 5, 4, 2)], ids=["1hidden", "2hidden"])
@pytest.mark.parametrize("batch", [1, 6])
def test_stacked_slices_equal_unstacked_calls(activation, sizes, batch):
    arch = mlp.MlpArch(sizes, activation=activation)
    rng = RngStream(31, stream_id=4)
    k = 3
    params = np.stack([mlp.init_params(arch, rng) + rng.gauss(arch.n_params, 0.1) for _ in range(k)])
    xs = rng.standard_normal((k, batch, arch.n_in))
    gs = rng.standard_normal((k, batch, arch.n_out))
    out = mlp.forward_batch(arch, params, xs)
    pg, xg = mlp.backward_batch(arch, params, xs, gs)
    assert out.shape == (k, batch, arch.n_out)
    assert pg.shape == (k, arch.n_params) and xg.shape == xs.shape
    for i in range(k):
        assert np.array_equal(out[i], mlp.forward_batch(arch, params[i], xs[i]))
        pg_i, xg_i = mlp.backward_batch(arch, params[i], xs[i], gs[i])
        assert np.array_equal(pg[i], pg_i) and np.array_equal(xg[i], xg_i)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("sizes", [(2, 1), (3, 5, 4, 2)], ids=["affine", "2hidden"])
@pytest.mark.parametrize("stacked", [False, True], ids=["unstacked", "stacked"])
def test_backward_with_a_part_skipped_keeps_the_other_parts_bits(activation, sizes, stacked):
    arch = mlp.MlpArch(sizes, activation=activation)
    rng = RngStream(32, stream_id=4)
    params = mlp.init_params(arch, rng) + rng.gauss(arch.n_params, 0.1)
    xs = rng.standard_normal((6, arch.n_in))
    gs = rng.standard_normal((6, arch.n_out))
    if stacked:
        params, xs, gs = np.stack([params, 2 * params]), np.stack([xs, -xs]), np.stack([gs, gs])
    pg, xg = mlp.backward_batch(arch, params, xs, gs)
    pg_only, none_x = mlp.backward_batch(arch, params, xs, gs, grad_inputs=False)
    none_p, xg_only = mlp.backward_batch(arch, params, xs, gs, grad_params=False)
    assert none_x is None and np.array_equal(pg_only, pg)
    assert none_p is None and np.array_equal(xg_only, xg)


def test_stacked_calls_reject_mismatched_shapes():
    arch = mlp.MlpArch((2, 3, 1))
    params = np.zeros((4, arch.n_params))
    with pytest.raises(DimensionError):
        mlp.forward_batch(arch, params, np.zeros((3, 5, 2)))  # 3 slices, 4 param rows
    with pytest.raises(DimensionError):
        mlp.forward_batch(arch, params, np.zeros((5, 2)))  # un-stacked inputs
    with pytest.raises(DimensionError):
        mlp.forward_batch(arch, params[0], np.zeros((4, 5, 2)))  # un-stacked params
    with pytest.raises(DimensionError):
        mlp.backward_batch(arch, params, np.zeros((4, 5, 2)), np.zeros((4, 5)))


@pytest.mark.parametrize("rows", [1, 7, 40])
def test_row_blocks_cover_the_rows_within_the_bound(monkeypatch, rows):
    arch = mlp.MlpArch((3, 8, 1))
    monkeypatch.setattr(mlp, "STACK_FLOATS", 100)
    blocks = mlp.row_blocks(arch, rows, batch=5, slices_per_row=2)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(rows))
    # 2 slices * 5 inputs * 8 wide = 80 floats per row: one row per block
    assert all(b.stop - b.start == 1 for b in blocks)
    monkeypatch.setattr(mlp, "STACK_FLOATS", 250)
    assert all(b.stop - b.start <= 3 for b in mlp.row_blocks(arch, rows, 5, 2))
