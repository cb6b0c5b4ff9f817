"""Hand-written neural-network core: gradients, optimizers, training loop,
checkpoints."""

import numpy as np
import pytest

from cfpolicy.errors import SchemaMismatchError, TrainingDivergenceError
from cfpolicy.numcore import (Adam, BatchNorm, Mlp, MlpSpec, ParamTensor,
                              RecurrentRegressor, finite_difference_check, fit,
                              load_checkpoint, mse_loss, nll_loss, rmse_loss,
                              save_checkpoint, softmax)


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


def test_mse_loss_oracle(rng):
    pred, target = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    loss, grad = mse_loss(pred, target)
    assert loss == pytest.approx(np.mean((pred - target) ** 2), abs=1e-12)
    assert np.allclose(grad, 2 * (pred - target) / pred.size)


# ---------------------------------------------------------------------------
# gradient checks


def _mlp_gradcheck(seed, head, loss):
    rng = np.random.default_rng(seed)
    spec = MlpSpec(widths=(5, 8, 6, 3), batch_norm=True, output_head=head)
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
    assert _mlp_gradcheck(seed, "linear", rmse_loss) < 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_mlp_gradcheck_classification(seed):
    assert _mlp_gradcheck(seed, "softmax", nll_loss) < 1e-4


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
    bn = BatchNorm(3, momentum=0.9)
    x = rng.normal(size=(32, 3)) * 2 + 1
    bn.forward(x, train=True)
    assert np.allclose(bn.running_mean, 0.1 * x.mean(axis=0))
    assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0))
    before = bn.running_mean.copy()
    bn.forward(x, train=False)  # eval mode must not move the stats
    assert np.array_equal(bn.running_mean, before)


def test_dense_shape_mismatch(rng):
    mlp = Mlp(MlpSpec(widths=(4, 3), batch_norm=False), rng)
    with pytest.raises(SchemaMismatchError):
        mlp.forward(np.zeros((2, 5)))


def test_lstm_rejects_wrong_window(rng):
    net = RecurrentRegressor(4, 3, 2, rng)
    with pytest.raises(SchemaMismatchError):
        net.forward(np.zeros((2, 4, 4)))


# ---------------------------------------------------------------------------
# optimizers


def test_adam_single_step_oracle():
    p = ParamTensor(np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
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
    history = fit(model, _NoOpOptimizer(), lambda pred, y: (float(pred[0, 0]), pred * 0),
                  X, X, X[:1], X[:1], epochs=6, batch=2,
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
