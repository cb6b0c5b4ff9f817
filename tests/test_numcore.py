"""Hand-written neural-network core: gradients, optimizers, training loop,
checkpoints."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfpolicy.errors import SchemaMismatchError, TrainingDivergenceError
from cfpolicy.gail import (Discriminator, GailConfig, StochasticPolicy, mean_entropy,
                           policy_update)
from cfpolicy.numcore import (Adam, BatchNorm, Dense, Mlp, MlpSpec, ParamTensor,
                              RecurrentRegressor, Relu, blocked_loss, fit, infer,
                              load_checkpoint,
                              mse_loss, nll_loss, rmse_loss, save_checkpoint, softmax)
from cfpolicy.numcore.layers import BN_EPS, BN_MOMENTUM, Workspace
from cfpolicy.numcore.training import BLOCK
from gradcheck import finite_difference_check


# ---------------------------------------------------------------------------
# losses against independent formulas


def test_softmax_rows_sum_to_one(rng):
    p = softmax(rng.normal(size=(7, 5)) * 10)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p > 0)
    # invariant under per-row shifts
    x = rng.normal(size=(3, 4))
    assert np.allclose(softmax(x), softmax(x + 100.0))


def test_rmse_loss_oracle(rng):
    pred, target = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    loss, grad = rmse_loss(pred, target)
    assert loss == pytest.approx(
        np.sqrt(np.mean(np.sum((pred - target) ** 2, axis=1))), abs=1e-12)
    # exact prediction: zero loss and zero gradient, no division blowup
    loss0, grad0 = rmse_loss(target, target)
    assert loss0 == 0.0 and np.all(grad0 == 0.0)
    assert grad.shape == pred.shape


def test_nll_loss_oracle(rng):
    logits = rng.normal(size=(5, 4))
    labels = np.array([0, 3, 1, 1, 2])
    loss, grad = nll_loss(logits, labels)
    p = softmax(logits)
    expected = -np.mean([np.log(p[i, labels[i]]) for i in range(5)])
    assert loss == pytest.approx(expected, abs=1e-12)
    assert grad.shape == logits.shape


# Reference: the softmax and nll_loss that the in-place forms replaced; the
# current ones must give the same bytes.

def reference_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_nll_loss(logits, labels):
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    p = reference_softmax(logits)
    picked = np.clip(p[np.arange(n), labels], 1e-300, None)
    loss = float(-np.mean(np.log(picked)))
    grad = p.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 80), classes=st.integers(1, 25), log_scale=st.floats(-2, 3.5),
       seed=st.integers(0, 2**32 - 1))
@example(n=3, classes=25, log_scale=3.5, seed=0)  # true classes of probability 0
def test_nll_loss_and_softmax_match_reference_bytes(n, classes, log_scale, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, classes)) * 10.0 ** log_scale
    labels = rng.integers(0, classes, n)
    before = logits.copy()
    loss, grad = nll_loss(logits, labels)
    want_loss, want_grad = reference_nll_loss(logits, labels)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    assert softmax(logits).tobytes() == reference_softmax(logits).tobytes()
    in_place = logits.copy()
    assert softmax(in_place, out=in_place) is in_place
    assert in_place.tobytes() == reference_softmax(logits).tobytes()
    assert softmax(logits[0]).tobytes() == reference_softmax(logits[0]).tobytes()
    assert logits.tobytes() == before.tobytes()  # the input is not written


def test_mse_loss_oracle(rng):
    pred, target = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    loss, grad = mse_loss(pred, target)
    assert loss == pytest.approx(np.mean((pred - target) ** 2), abs=1e-12)
    assert np.allclose(grad, 2 * (pred - target) / pred.size)


# ---------------------------------------------------------------------------
# gradient checks


def _mlp_gradcheck(seed, loss):
    rng = np.random.default_rng(seed)
    spec = MlpSpec(widths=(5, 8, 6, 3), batch_norm=True)
    mlp = Mlp(spec, rng)
    x = rng.normal(size=(9, 5))
    if loss is nll_loss:
        target = rng.integers(0, 3, size=9)
    else:
        target = rng.normal(size=(9, 3))

    def loss_fn():
        out = mlp.forward(x, train=True)
        value, grad = loss(out, target)
        mlp.backward(grad)
        return value

    return finite_difference_check(mlp.params(), loss_fn, h=1e-4)


@pytest.mark.parametrize("seed", range(10))
def test_mlp_gradcheck_regression(seed):
    assert _mlp_gradcheck(seed, rmse_loss) < 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_mlp_gradcheck_classification(seed):
    assert _mlp_gradcheck(seed, nll_loss) < 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_lstm_gradcheck(seed):
    rng = np.random.default_rng(seed)
    net = RecurrentRegressor(4, 6, 3, rng)
    x = rng.normal(size=(5, 3, 4))
    target = rng.normal(size=(5, 3))

    def loss_fn():
        out = net.forward(x, train=True)
        value, grad = mse_loss(out, target)
        net.backward(grad)
        return value

    assert finite_difference_check(net.params(), loss_fn, h=1e-4) < 1e-4


def test_batchnorm_eval_mode_gradcheck(rng):
    spec = MlpSpec(widths=(4, 6, 2), batch_norm=True)
    mlp = Mlp(spec, rng)
    # populate running stats, then check the eval-mode (affine) backward
    mlp.forward(rng.normal(size=(16, 4)), train=True)
    x = rng.normal(size=(7, 4))
    target = rng.normal(size=(7, 2))

    def loss_fn():
        out = mlp.forward(x, train=False)
        value, grad = mse_loss(out, target)
        mlp.backward(grad)
        return value

    assert finite_difference_check(mlp.params(), loss_fn, h=1e-4) < 1e-4


# ---------------------------------------------------------------------------
# layers


def test_batchnorm_running_stats_update(rng):
    bn = BatchNorm(3)
    x = rng.normal(size=(32, 3)) * 2 + 1
    bn.forward(x, train=True)
    assert np.allclose(bn.running_mean, 0.1 * x.mean(axis=0))
    assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0))
    before = bn.running_mean.copy()
    bn.forward(x, train=False)  # eval mode must not move the stats
    assert np.array_equal(bn.running_mean, before)


# Reference: the batch-norm forward and backward that the current ones
# replaced. The forward kept two running arrays, each rebound by its own
# momentum step; the backward was the expanded form through dxhat.

def reference_batchnorm_forward(bn, x, stats, train):
    """The old forward of ``bn``'s parameters on ``x``; ``stats`` is the
    [running_mean, running_var] list it reads and, in train mode, rebinds."""
    if train:
        n = x.shape[0]
        mu = np.add.reduce(x, axis=0) / n
        d = x - mu
        var = np.add.reduce(d * d, axis=0) / n
        stats[0] = BN_MOMENTUM * stats[0] + (1 - BN_MOMENTUM) * mu
        stats[1] = BN_MOMENTUM * stats[1] + (1 - BN_MOMENTUM) * var
    else:
        d = x - stats[0]
        var = stats[1]
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = d * inv_std
    return bn.gamma.value * xhat + bn.beta.value


def reference_batchnorm_backward(bn, dy):
    """The old train-mode backward from ``bn``'s cache: (dx, dgamma, dbeta)."""
    xhat, inv_std, train, n = bn._cache
    assert train
    dxhat = dy * bn.gamma.value
    dx = (inv_std / n) * (
        n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return dx, (dy * xhat).sum(axis=0), dy.sum(axis=0)


def _random_batchnorm(rng, width):
    bn = BatchNorm(width)
    bn.gamma.value = rng.normal(size=width) * 2
    bn.beta.value = rng.normal(size=width)
    return bn


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 80), width=st.integers(1, 64), log_scale=st.floats(-4, 4),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, width=64, log_scale=0.0, seed=0)  # the single row of a ragged last batch
@example(n=2, width=3, log_scale=0.0, seed=0)  # x-hat is +-1: the gradient cancels to ~0
def test_compact_batchnorm_backward_matches_reference(n, width, log_scale, seed):
    rng = np.random.default_rng(seed)
    bn = _random_batchnorm(rng, width)
    x = rng.normal(size=(n, width)) * 10.0 ** log_scale + rng.normal(size=width)
    x[:, 0] = 1.5  # a constant column: zero batch variance
    bn.forward(x, train=True)
    dy = rng.normal(size=(n, width))
    want_dx, want_dgamma, want_dbeta = reference_batchnorm_backward(bn, dy)
    dx = bn.backward(dy)
    assert bn.gamma.grad.tobytes() == want_dgamma.tobytes()
    assert bn.beta.grad.tobytes() == want_dbeta.tobytes()
    # the gradient's scale: the largest magnitude of the three terms summed
    xhat, inv_std, _, _ = bn._cache
    scale = (np.abs(bn.gamma.value * inv_std / n) * (
        n * np.abs(dy) + np.abs(want_dbeta) + np.abs(xhat * want_dgamma))).max()
    assert np.abs(dx - want_dx).max() <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(width=st.integers(1, 64), sizes=st.lists(st.integers(1, 80), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_batchnorm_forward_and_running_stats_match_reference_bytes(width, sizes, seed):
    rng = np.random.default_rng(seed)
    bn = _random_batchnorm(rng, width)
    stats = [np.zeros(width), np.ones(width)]
    for n in sizes:
        x = rng.normal(size=(n, width)) * 3 + 1
        assert bn.forward(x, train=True).tobytes() == \
            reference_batchnorm_forward(bn, x, stats, True).tobytes()
        assert bn.running_mean.tobytes() == stats[0].tobytes()
        assert bn.running_var.tobytes() == stats[1].tobytes()
    x = rng.normal(size=(sizes[0], width))
    assert bn.forward(x, train=False).tobytes() == \
        reference_batchnorm_forward(bn, x, stats, False).tobytes()


# Reference: the Dense, Relu and RecurrentRegressor forward and backward
# that allocated every activation and gradient; the workspace forms must
# give the same bytes.

def reference_dense_forward(layer, x):
    return x @ layer.W.value + layer.b.value


def reference_dense_backward(layer, x, dy, input_grad=True):
    """(dW, db, dx) of the affine layer at input ``x``."""
    return x.T @ dy, dy.sum(axis=0), dy @ layer.W.value.T if input_grad else None


def reference_relu_forward(x):
    """(output, mask)."""
    mask = x > 0
    return x * mask, mask


def reference_relu_backward(mask, dy):
    return dy * mask


def reference_mlp_forward(mlp, x, train):
    """The forward through ``mlp``'s layers: (output, one cache per layer).
    Batch-norm layers run their own code, which the reference does not
    replace."""
    caches, out = [], x
    for layer in mlp.layers:
        if isinstance(layer, Dense):
            caches.append(out)
            out = reference_dense_forward(layer, out)
        elif isinstance(layer, Relu):
            out, mask = reference_relu_forward(out)
            caches.append(mask)
        else:
            out = layer.forward(out, train=train)
            caches.append(None)
    return out, caches


def reference_mlp_backward(mlp, caches, dout):
    """{parameter name: gradient} without the input gradient."""
    grads = {}
    for idx in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[idx]
        if isinstance(layer, Dense):
            dW, db, dout = reference_dense_backward(layer, caches[idx], dout, idx > 0)
            grads[f"layer{idx}.W"], grads[f"layer{idx}.b"] = dW, db
        elif isinstance(layer, Relu):
            dout = reference_relu_backward(caches[idx], dout)
        else:
            dout = layer.backward(dout)
            grads[f"layer{idx}.gamma"] = layer.gamma.grad.copy()
            grads[f"layer{idx}.beta"] = layer.beta.grad.copy()
    return grads


def reference_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_lstm_forward(net, x):
    """(output, cache): the step loop from a zero state, every term computed."""
    B, H = x.shape[0], net.hidden
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    steps = []
    for t in range(net.WINDOW):
        z = x[:, t, :] @ net.Wx.value + h @ net.Wh.value + net.b.value
        i = reference_sigmoid(z[:, :H])
        f = reference_sigmoid(z[:, H:2 * H])
        g = np.tanh(z[:, 2 * H:3 * H])
        o = reference_sigmoid(z[:, 3 * H:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        steps.append((x[:, t, :], h, c, i, f, g, o, tanh_c))
        h, c = h_new, c_new
    return reference_dense_forward(net.head, h), (steps, h)


def reference_lstm_backward(net, cache, dy):
    """{parameter name: gradient}, back through every step to t = 0."""
    steps, h_last = cache
    dW_head, db_head, dh = reference_dense_backward(net.head, h_last, dy)
    dc = np.zeros_like(dh)
    dWx, dWh, db = (np.zeros_like(net.Wx.value), np.zeros_like(net.Wh.value),
                    np.zeros_like(net.b.value))
    for t in range(net.WINDOW - 1, -1, -1):
        x_t, h_prev, c_prev, i, f, g, o, tanh_c = steps[t]
        dc = dc + dh * o * (1.0 - tanh_c ** 2)
        do = dh * tanh_c
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = np.concatenate([di * i * (1 - i), df * f * (1 - f), dg * (1 - g ** 2),
                             do * o * (1 - o)], axis=1)
        dWx += x_t.T @ dz
        dWh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dh = dz @ net.Wh.value.T
        dc = dc * f
    return {"Wx": dWx, "Wh": dWh, "b": db, "head.W": dW_head, "head.b": db_head}


def _check_twins_over_batches(make, forward_ref, backward_ref, row, sizes, seed):
    """Train forwards and backwards of ``make()`` against the reference on a
    twin model, one batch size after another on the same instances: outputs
    and every gradient byte for byte, inputs never written, and earlier
    outputs unchanged by later calls."""
    data = np.random.default_rng(seed)
    model, twin = make(), make()
    kept = []
    for n in sizes:
        x = data.normal(size=(n,) + row) * 2
        x_before = x.copy()
        out = model.forward(x, train=True)
        want, cache = forward_ref(twin, x)
        assert out.tobytes() == want.tobytes()
        dy = data.normal(size=out.shape)
        model.backward(dy)
        grads = backward_ref(twin, cache, dy)
        assert grads.keys() == model.params().keys()
        for name, p in model.params().items():
            assert p.grad.tobytes() == grads[name].tobytes(), (n, name)
        assert x.tobytes() == x_before.tobytes()  # the input is not written
        kept.append((out, out.copy()))
    for out, copy in kept:
        assert out.tobytes() == copy.tobytes()


_BATCHES = dict(small=st.integers(1, 80), last=st.integers(1, 80))


@settings(max_examples=30, deadline=None)
@given(width=st.integers(1, 20), hidden=st.sampled_from([1, 8, 64, 200]),
       depth=st.integers(1, 3), batch_norm=st.booleans(), seed=st.integers(0, 2**32 - 1),
       **_BATCHES)
@example(width=5, hidden=8, depth=2, batch_norm=False, seed=0, small=1, last=1)
def test_mlp_workspaces_match_reference_bytes(width, hidden, depth, batch_norm, seed,
                                              small, last):
    spec = MlpSpec(widths=(width,) + (hidden,) * depth + (7,), batch_norm=batch_norm)

    def make():
        return Mlp(spec, np.random.default_rng(seed))

    def forward_ref(mlp, x):
        return reference_mlp_forward(mlp, x, train=True)

    # 16 -> 256 -> 16 -> a short last minibatch: a stale row would show
    _check_twins_over_batches(make, forward_ref, reference_mlp_backward, (width,),
                              [small, BLOCK, small, min(last, small)], seed)


@settings(max_examples=30, deadline=None)
@given(n_in=st.integers(1, 20), hidden=st.sampled_from([1, 3, 16, 64]),
       n_out=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), **_BATCHES)
@example(n_in=14, hidden=64, n_out=12, seed=0, small=1, last=1)
def test_lstm_workspaces_match_reference_bytes(n_in, hidden, n_out, seed, small, last):
    def make():
        return RecurrentRegressor(n_in, hidden, n_out, np.random.default_rng(seed))

    _check_twins_over_batches(make, reference_lstm_forward, reference_lstm_backward,
                              (3, n_in), [small, BLOCK, small, min(last, small)], seed)


def test_relu_and_dense_match_reference_bytes(rng):
    x = rng.normal(size=(9, 4))
    x[0, 0] = 0.0
    relu = Relu()
    want, mask = reference_relu_forward(x)
    assert relu.forward(x.copy()).tobytes() == want.tobytes()  # -0.0 where x < 0
    dy = rng.normal(size=x.shape)
    assert relu.backward(dy.copy()).tobytes() == reference_relu_backward(mask, dy).tobytes()
    dense = Dense(4, 3, rng)
    y = dense.forward(x)
    assert y.tobytes() == reference_dense_forward(dense, x).tobytes()
    assert np.shares_memory(y, dense.forward(x))  # a hidden layer's workspace
    dy = rng.normal(size=(9, 3))
    dx = dense.backward(dy)
    dW, db, want_dx = reference_dense_backward(dense, x, dy)
    assert (dense.W.grad.tobytes(), dense.b.grad.tobytes(), dx.tobytes()) == \
        (dW.tobytes(), db.tobytes(), want_dx.tobytes())
    head = Dense(4, 3, rng, head=True)
    assert not np.shares_memory(head.forward(x), head.forward(x))


def test_dense_shape_mismatch(rng):
    mlp = Mlp(MlpSpec(widths=(4, 3), batch_norm=False), rng)
    with pytest.raises(SchemaMismatchError):
        mlp.forward(np.zeros((2, 5)))


def test_lstm_rejects_wrong_window(rng):
    net = RecurrentRegressor(4, 3, 2, rng)
    with pytest.raises(SchemaMismatchError):
        net.forward(np.zeros((2, 4, 4)))
    with pytest.raises(SchemaMismatchError):  # one unbatched window
        net.forward(np.zeros((3, 4)))


def _inference_model(kind, n_in, hidden, rng):
    """A BC-style batch-norm MLP with moved running statistics, or a
    dynamics-style LSTM, and the shape of one input row."""
    if kind == "mlp":
        mlp = Mlp(MlpSpec(widths=(n_in, hidden, hidden, 25), batch_norm=True), rng)
        mlp.forward(rng.normal(size=(64, n_in)) * 2 + 1, train=True)
        return mlp, (n_in,)
    return RecurrentRegressor(n_in, hidden, 12, rng), (3, n_in)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["mlp", "lstm"]), n_in=st.sampled_from([5, 14, 36]),
       hidden=st.sampled_from([8, 64]), blocks=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_infer_rows_do_not_depend_on_the_other_rows(kind, n_in, hidden, blocks, seed,
                                                    data):
    rng = np.random.default_rng(seed)
    model, row = _inference_model(kind, n_in, hidden, rng)
    n = data.draw(st.integers((blocks - 1) * BLOCK + 1, blocks * BLOCK), label="rows")
    X = rng.normal(size=(n,) + row)
    ref = infer(model, X)
    assert ref.shape[0] == n
    assert np.allclose(ref, model.forward(X, train=False), rtol=0, atol=1e-12)
    perm = rng.permutation(n)
    assert infer(model, X[perm]).tobytes() == ref[perm].tobytes()
    k = data.draw(st.integers(1, n), label="subset")
    subset = rng.choice(n, k, replace=False)
    assert infer(model, X[subset]).tobytes() == ref[subset].tobytes()


# the outputs and targets each loss takes: (model kind, outputs, targets of n rows)
BLOCKED_LOSSES = {
    "nll": ("mlp", 25, lambda rng, n: rng.integers(0, 25, n)),
    "rmse": ("mlp", 2, lambda rng, n: rng.normal(size=(n, 2))),
    "mse": ("lstm", 12, lambda rng, n: rng.normal(size=(n, 12))),
}


@settings(max_examples=30, deadline=None)
@given(loss=st.sampled_from(sorted(BLOCKED_LOSSES)), blocks=st.integers(0, 3),
       offset=st.sampled_from([-1, 0, 1]), scale=st.sampled_from([1e-3, 1.0, 30.0]),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_loss_equals_the_loss_of_the_whole_inference(loss, blocks, offset, scale,
                                                            seed):
    # validation sizes just below, at and just above a multiple of BLOCK
    n = max(blocks * BLOCK + offset, 1)
    rng = np.random.default_rng(seed)
    kind, n_out, targets = BLOCKED_LOSSES[loss]
    loss_fn = {"nll": nll_loss, "rmse": rmse_loss, "mse": mse_loss}[loss]
    if kind == "mlp":
        model, row = Mlp(MlpSpec(widths=(14, 16, n_out), batch_norm=True), rng), (14,)
    else:
        model, row = _inference_model(kind, 14, 8, rng)
    X, Y = scale * rng.normal(size=(n,) + row), targets(rng, n)
    want, _ = loss_fn(infer(model, X), Y)
    assert np.float64(blocked_loss(model, loss_fn, X, Y)).tobytes() == \
        np.float64(want).tobytes()


@pytest.mark.parametrize("kind", ["mlp", "lstm"])
def test_infer_memory_does_not_grow_with_rows(kind, rng):
    model, row = _inference_model(kind, 36, 64, rng)

    def peak_beyond_output(n):
        X = rng.normal(size=(n,) + row)
        tracemalloc.start()
        try:
            out = infer(model, X)
            return tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()

    small = peak_beyond_output(BLOCK)
    # 256 KiB is a few block-sized arrays; one forward over all 4,096 rows
    # keeps several MB of activations
    assert peak_beyond_output(16 * BLOCK) <= small + 256 * 1024
    workspaces = 0
    for obj in (model.layers if kind == "mlp" else (model, model.head)):
        assert obj._cache is None  # a backward after infer cannot reuse a block
        for array in getattr(obj, "ws", Workspace()).arrays.values():
            assert len(array) <= BLOCK  # workspaces grow to one block, not to n
            workspaces += 1
    assert workspaces > 0


# ---------------------------------------------------------------------------
# optimizers


def test_adam_single_step_oracle():
    p = ParamTensor(np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.1)
    g = np.array([0.5, -3.0])
    p.grad = g.copy()
    opt.step()
    m = 0.1 * g
    v = 0.001 * g * g
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    expected = np.array([1.0, -2.0]) - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(p.value, expected, atol=1e-15)


def test_adam_rejects_nonfinite_gradient():
    p = ParamTensor(np.zeros(2))
    opt = Adam([p], lr=0.1)
    p.grad = np.array([np.nan, 0.0])
    with pytest.raises(TrainingDivergenceError):
        opt.step()


def test_adam_restore_then_step_equals_first_step(rng):
    p = ParamTensor(rng.normal(size=3))
    opt = Adam([p], lr=0.1)
    p.grad = rng.normal(size=3)
    opt.step()  # nonzero moments before the snapshot
    value, snap = p.value.copy(), opt.state()
    g = rng.normal(size=3)
    p.grad = g.copy()
    opt.step()
    first = p.value.copy()
    for _ in range(3):  # move params and moments away from the snapshot
        p.grad = rng.normal(size=3)
        opt.step()
    for _ in range(2):  # a second restore must not see the first one's steps
        p.value = value.copy()
        opt.load_state(snap)
        p.grad = g.copy()
        opt.step()
        assert np.array_equal(p.value, first)
        assert opt.t == 2


def test_adam_lr_override():
    p = ParamTensor(np.array([0.0]))
    opt = Adam([p], lr=1.0)
    p.grad = np.array([1.0])
    opt.step(lr=0.0)
    assert p.value[0] == 0.0  # zero lr moves nothing


class ReferenceAdam:
    """The per-parameter Adam loop: the reference for the flat-buffer step."""

    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise TrainingDivergenceError("non-finite gradient")
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            mhat = m / (1 - self.beta1 ** self.t)
            vhat = v / (1 - self.beta2 ** self.t)
            p.value -= lr * mhat / (np.sqrt(vhat) + self.eps)

    def state(self):
        return {"m": [m.copy() for m in self.m], "v": [v.copy() for v in self.v],
                "t": self.t}

    def load_state(self, state):
        self.m = [m.copy() for m in state["m"]]
        self.v = [v.copy() for v in state["v"]]
        self.t = state["t"]


def _flat(arrays):
    return np.concatenate([np.ravel(a) for a in arrays])


@st.composite
def adam_scripts(draw):
    """Tensor shapes (0-d and 1-element included), a per-step lr override
    (None keeps the constructor's), the step after which a snapshot is
    taken, and a seed for values and gradients."""
    shapes = draw(st.lists(st.lists(st.integers(1, 4), max_size=3).map(tuple),
                           min_size=1, max_size=5))
    lrs = draw(st.lists(st.none() | st.floats(1e-5, 2.0), min_size=1, max_size=8))
    snap_after = draw(st.integers(0, len(lrs) - 1))
    return shapes, lrs, snap_after, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(adam_scripts())
@example(([(), (1,)], [None, 0.5], 0, 0))
def test_flat_adam_matches_reference_bytes(script):
    shapes, lrs, snap_after, seed = script
    rng = np.random.default_rng(seed)
    init = [rng.normal(size=s) for s in shapes]
    grads = [[rng.normal(size=s) * 10.0 ** rng.integers(-6, 4) for s in shapes]
             for _ in lrs]
    flat_params = [ParamTensor(v) for v in init]
    ref_params = [ParamTensor(v) for v in init]
    flat, ref = Adam(flat_params, lr=0.01), ReferenceAdam(ref_params, lr=0.01)

    def run(steps):
        for i in steps:
            for params in (flat_params, ref_params):
                for p, g in zip(params, grads[i]):
                    p.grad = g
            flat.step(lr=lrs[i])
            ref.step(lr=lrs[i])
            assert flat.t == ref.t
            assert flat.value.tobytes() == _flat([p.value for p in ref_params]).tobytes()
            assert flat.m.tobytes() == _flat(ref.m).tobytes()
            assert flat.v.tobytes() == _flat(ref.v).tobytes()

    run(range(snap_after + 1))
    snaps = [(opt.state(), [p.value.copy() for p in params])
             for opt, params in ((flat, flat_params), (ref, ref_params))]
    run(range(snap_after + 1, len(lrs)))
    # restore both to the snapshot and replay the remaining steps
    for (state, values), (opt, params) in zip(snaps, ((flat, flat_params),
                                                       (ref, ref_params))):
        opt.load_state(state)
        for p, v in zip(params, values):
            p.value = v
    run(range(snap_after + 1, len(lrs)))

    bad = int(rng.integers(len(shapes)))
    for params in (flat_params, ref_params):
        g = params[bad].grad.copy()
        g.reshape(-1)[-1] = (np.nan, np.inf, -np.inf)[seed % 3]
        params[bad].grad = g
    for opt in (flat, ref):
        with pytest.raises(TrainingDivergenceError):
            opt.step()


def _assert_bound_and_trains(model, opt, x):
    """Every parameter still lives in the optimizer's buffers, and one step
    moves the model's output."""
    for p in model.params().values():
        assert np.shares_memory(p.value, opt.value)
        assert np.shares_memory(p.grad, opt.grad)
    before = model.forward(x, train=False).copy()
    out = model.forward(x, train=True)
    model.backward(np.ones_like(out))
    opt.step()
    assert not np.array_equal(model.forward(x, train=False), before)


MODELS = ["mlp", "lstm", "policy", "disc"]


def _model(kind, seed):
    """A small network of each kind that shares numcore's state protocol."""
    gen = np.random.default_rng(seed)
    return {"mlp": lambda: Mlp(MlpSpec(widths=(4, 6, 3), batch_norm=True), gen),
            "lstm": lambda: RecurrentRegressor(4, 5, 3, gen),
            "policy": lambda: StochasticPolicy(4, gen, n_actions=3, hidden=(6,)),
            "disc": lambda: Discriminator(4, gen, hidden=(6, 5))}[kind]()


@pytest.mark.parametrize("kind", MODELS)
def test_load_state_keeps_parameters_bound(kind, rng):
    model, other = _model(kind, 1), _model(kind, 2)
    opt = Adam(model.params().values(), lr=0.01)
    model.load_state(other.state())
    x = rng.normal(size=(8, 3, 4) if kind == "lstm" else (8, 4))
    assert np.array_equal(model.forward(x), other.forward(x))
    _assert_bound_and_trains(model, opt, x)


@pytest.mark.parametrize("kind", MODELS)
def test_state_round_trips_and_a_misfit_array_is_rejected(kind):
    model, other = _model(kind, 1), _model(kind, 2)
    model.load_state(other.state())
    want = {k: v.tobytes() for k, v in other.state().items()}
    assert {k: v.tobytes() for k, v in model.state().items()} == want
    state = {k: v.copy() for k, v in model.state().items()}
    bad = []
    for key, value in state.items():
        bad.append((key, {k: v for k, v in state.items() if k != key}, "no array"))
        bad.append((key, {**state, key: np.append(value, 0.0)}, "has shape"))
        for x in (np.nan, np.inf, -np.inf):
            broken = value.copy()
            broken.flat[-1] = x
            bad.append((key, {**state, key: broken}, "not finite"))
    bad.append(("extra", {**state, "extra": np.zeros(1)}, "not one of the model's"))
    for key, arrays, why in bad:
        with pytest.raises(SchemaMismatchError) as err:
            model.load_state(arrays)
        assert repr(key) in str(err.value) and why in str(err.value)
    # a rejected checkpoint leaves the model as it was
    assert {k: v.tobytes() for k, v in model.state().items()} == want


def test_fit_restore_keeps_parameters_bound(rng):
    mlp = Mlp(MlpSpec(widths=(3, 5, 2), batch_norm=True), rng)
    opt = Adam(mlp.params().values(), lr=0.05)
    X, Y = rng.normal(size=(20, 3)), rng.normal(size=(20, 2))
    fit(mlp, opt, mse_loss, X, Y, X[:6], Y[:6], epochs=4, batch=8, rng=rng)
    # the restored running statistics are still the ones a train forward moves
    before = {k: v.copy() for k, v in mlp.state().items()}
    mlp.forward(X, train=True)
    for key in ("layer1.running_mean", "layer1.running_var"):
        assert not np.array_equal(mlp.state()[key], before[key]), key
    _assert_bound_and_trains(mlp, opt, X)


def test_policy_update_backtracking_keeps_parameters_bound(rng):
    cfg = GailConfig(lr=0.05, kl_target=1e-12)  # every attempt overshoots
    pol = StochasticPolicy(4, rng, n_actions=5, hidden=(8,))
    opt = Adam(pol.params().values(), lr=cfg.lr)
    obs = rng.normal(size=(10, 4))
    before, opt_before = opt.value.copy(), opt.state()
    stats, beta = policy_update(pol, obs, rng.integers(0, 5, 10), rng.normal(size=10),
                                cfg, opt, beta=1.0)
    # the step is rejected: policy and optimizer are as they were
    assert stats["kl"] == 0.0 and stats["lr_scale"] == 0.0
    assert beta == 2.0  # adapted from the rejected attempt's KL
    assert opt.value.tobytes() == before.tobytes()
    assert opt.m.tobytes() == opt_before["m"].tobytes() and opt.t == opt_before["t"]
    assert stats["entropy"] == mean_entropy(pol.probs(obs))
    _assert_bound_and_trains(pol, opt, obs)


def test_finite_difference_check_keeps_parameters_bound(rng):
    mlp = Mlp(MlpSpec(widths=(3, 4, 2), batch_norm=False), rng)
    opt = Adam(mlp.params().values(), lr=0.05)
    x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))

    def loss_fn():
        value, grad = mse_loss(mlp.forward(x, train=True), y)
        mlp.backward(grad)
        return value

    assert finite_difference_check(mlp.params(), loss_fn) < 1e-4
    _assert_bound_and_trains(mlp, opt, x)


def test_parameter_assignment_checks_shape_and_single_binding():
    p = ParamTensor(np.zeros((2, 3)))
    with pytest.raises(SchemaMismatchError):
        p.value = np.zeros(3)
    with pytest.raises(SchemaMismatchError):
        p.grad = np.zeros((3, 2))
    opt = Adam([p])
    p.value = np.ones((2, 3))  # copied into the optimizer's buffer
    assert np.array_equal(opt.value, np.ones(6))
    with pytest.raises(ValueError):
        Adam([p])


class _ScriptedModel:
    """Stand-in model whose validation loss follows a fixed script."""

    def __init__(self, val_losses):
        self.val_losses = list(val_losses)
        self.epoch = -1
        self.loaded = None

    def forward(self, x, train=False):
        if train:
            return np.zeros((len(x), 1))
        self.epoch += 1
        return np.full((1, 1), self.val_losses[self.epoch])

    def backward(self, grad):
        pass

    def clear_cache(self):
        pass

    def state(self):
        return {"epoch": np.array(self.epoch)}

    def load_state(self, arrays):
        self.loaded = int(arrays["epoch"])


class _NoOpOptimizer:
    def step(self):
        pass


@pytest.mark.parametrize("patience,epochs_run,best", [(3, 5, 1), (None, 6, 5)])
def test_fit_patience_and_best_snapshot(patience, epochs_run, best):
    model = _ScriptedModel([3.0, 2.0, 2.5, 2.4, 2.6, 1.0])
    X = np.zeros((5, 1))
    # against zero targets, the RMSE of one prediction c > 0 is sqrt(c * c) == c
    history = fit(model, _NoOpOptimizer(), rmse_loss, X, X, X[:1], X[:1], epochs=6, batch=2,
                  rng=np.random.default_rng(0), patience=patience)
    assert [val for _, val in history] == model.val_losses[:epochs_run]
    assert model.loaded == best


def test_fit_rejects_nonfinite_loss():
    model = _ScriptedModel([1.0])
    X = np.zeros((2, 1))
    with pytest.raises(TrainingDivergenceError):
        fit(model, _NoOpOptimizer(), lambda pred, y: (float("nan"), pred * 0),
            X, X, X, X, epochs=1, batch=2, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path, rng):
    arrays = {"W": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
    meta = {"kind": "unit_test", "note": "hello"}
    path = tmp_path / "ck.npz"
    save_checkpoint(path, arrays, meta)
    back_arrays, back_meta = load_checkpoint(path)
    assert back_meta["kind"] == "unit_test" and back_meta["format_version"] == 1
    for k in arrays:
        assert np.array_equal(back_arrays[k], arrays[k])


def test_mlp_state_round_trip(tmp_path, rng):
    mlp = Mlp(MlpSpec(widths=(4, 6, 2), batch_norm=True), rng)
    mlp.forward(rng.normal(size=(8, 4)), train=True)  # move running stats
    x = rng.normal(size=(5, 4))
    ref = mlp.forward(x, train=False)
    path = tmp_path / "mlp.npz"
    save_checkpoint(path, mlp.state(), {"kind": "mlp"})
    arrays, _ = load_checkpoint(path)
    clone = Mlp(MlpSpec(widths=(4, 6, 2), batch_norm=True),
                np.random.default_rng(999))
    clone.load_state(arrays)
    assert np.array_equal(clone.forward(x, train=False), ref)
