"""Transition model: history windows, training, rollout safety, storage."""

import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfpolicy.bc import BcHyperParams, build_dataset, train_bc
from cfpolicy.cohort import (CohortDataset, SubgroupKey, assign_splits, filter_subgroup,
                             load_cohort_dir, save_cohort_dir)
from cfpolicy.dynamics import (STATE_CLIP, WINDOW, DynHyperParams, TransitionModel,
                               _collect_windows, eval_dynamics_mse, load_dynamics,
                               rollout, save_dynamics, state_window, train_dynamics,
                               window_arrays)
from cfpolicy.errors import EmptySubgroupError, RolloutBlowupError
from cfpolicy.numcore import infer, mse_loss
from cfpolicy.preprocess import preprocess_cohort
from cfpolicy.synth import SynthConfig, generate


def reference_window(states, actions, t):
    """One timestep's (3, M) state and (3, 2) action windows, built slot by
    slot: the windowing rule the vectorized routines must reproduce."""
    s = np.empty((WINDOW, states.shape[1]))
    a = np.zeros((WINDOW, 2))
    for k in range(WINDOW):
        idx = t - (WINDOW - 1 - k)
        if idx < 0:
            s[k] = states[0]
        else:
            s[k] = states[idx]
            a[k] = actions[idx]
    return s, a


def split_window(states, actions, t):
    """``window_arrays`` of the states and doses side by side, split back
    into its state and dose windows."""
    w = window_arrays(np.concatenate([states, actions], axis=1), t)
    return w[..., :-2], w[..., -2:]


def test_window_padding_rule(rng):
    states = rng.normal(size=(6, 4))
    actions = rng.normal(size=(6, 2))
    # t=0: earliest state repeated, actions zero except the current slot
    s, a = split_window(states, actions, 0)
    assert np.array_equal(s, np.stack([states[0]] * 3))
    assert np.array_equal(a, np.stack([np.zeros(2), np.zeros(2), actions[0]]))
    # t=1: one pad row
    s, a = split_window(states, actions, 1)
    assert np.array_equal(s, np.stack([states[0], states[0], states[1]]))
    assert np.array_equal(a, np.stack([np.zeros(2), actions[0], actions[1]]))
    # t>=2: plain slice
    s, a = split_window(states, actions, 4)
    assert np.array_equal(s, states[2:5])
    assert np.array_equal(a, actions[2:5])


def test_state_window_matches_window_arrays(rng):
    for T in (1, 2, 5):
        states = rng.normal(size=(T, 3))
        every = state_window(states, np.arange(T))
        assert every.shape == (T, 3, 3)
        for t in range(T):
            s, _ = split_window(states, np.zeros((T, 2)), t)
            assert np.array_equal(state_window(states, t), s)
            assert np.array_equal(every[t], s)


finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def trajectory_arrays(draw):
    T = draw(st.integers(1, 8))
    M = draw(st.integers(1, 4))
    states = np.array(draw(st.lists(finite, min_size=T * M, max_size=T * M))).reshape(T, M)
    # negative actions: padding by multiplying with a 0/1 mask would give
    # -0.0 where the rule asks for +0.0, and tobytes() tells the two apart
    actions = np.array(draw(st.lists(finite, min_size=2 * T, max_size=2 * T))).reshape(T, 2)
    return states, actions


@settings(max_examples=150, deadline=None)
@given(trajectory_arrays())
@example((np.arange(6.0).reshape(3, 2), np.array([[-1.0, -0.0], [2.0, -3.0], [-0.0, 4.0]])))
def test_windows_equal_loop_reference_bytewise(arrays):
    states, actions = arrays
    T = len(states)
    ref = [reference_window(states, actions, t) for t in range(T)]
    for t in range(T):
        s, a = split_window(states, actions, t)
        assert s.tobytes() == ref[t][0].tobytes()
        assert a.tobytes() == ref[t][1].tobytes()
        assert state_window(states, t).tobytes() == ref[t][0].tobytes()
    s, a = split_window(states, actions, np.arange(T))
    assert s.tobytes() == np.stack([r[0] for r in ref]).tobytes()
    assert a.tobytes() == np.stack([r[1] for r in ref]).tobytes()
    assert state_window(states, np.arange(T)).tobytes() == s.tobytes()


def _ragged(cohort, lengths):
    E = len(cohort)
    return replace(cohort, lengths=np.array(lengths, dtype=np.int64),
                   mortality_step=np.full(E, -1), outcome_alive=np.ones(E, bool))


def _assert_gathers(X, ref, rng):
    """Every read ``fit`` and ``infer`` make of a window source (its length
    and shape, ``np.asarray``, slices and int arrays of rows) gives the
    reference rows byte for byte."""
    assert len(X) == len(ref) and X.shape == ref.shape
    assert np.asarray(X).tobytes() == ref.tobytes()
    for _ in range(4):
        lo, hi = sorted(rng.integers(0, len(ref) + 1, 2).tolist())
        step = int(rng.integers(1, 4))
        for key in (slice(lo, hi), slice(lo, hi, step),
                    rng.integers(0, len(ref), int(rng.integers(0, 2 * len(ref) + 1)))):
            got = X[key]
            assert got.shape == ref[key].shape and got.tobytes() == ref[key].tobytes()


def _assert_split_gathers(cohort, tag, rng, seed):
    """The windows and targets of one split, gathered from the cohort's
    block, equal the concatenation of its trajectories' own windows."""
    trajs = cohort.split_of(tag).trajectories
    if not trajs:
        with pytest.raises(EmptySubgroupError, match=repr(tag)):
            build_dataset(cohort, tag, "regression")
        return
    refs = [[reference_window(tr.states, tr.actions, t) for t in range(tr.T)] for tr in trajs]
    ref_x = np.stack([r[0].reshape(-1) for rs in refs for r in rs])
    X, Y = build_dataset(cohort, tag, "regression")
    _assert_gathers(X, ref_x, rng)
    ref_y = np.concatenate([tr.actions for tr in trajs])
    _assert_gathers(Y, ref_y, rng)
    Xc, labels = build_dataset(cohort, tag, "classification")
    _assert_gathers(Xc, ref_x, rng)
    ref_bins = np.concatenate([tr.action_bins for tr in trajs])
    _assert_gathers(labels, ref_bins, rng)
    # a max_windows subset is the rng.choice draw of the same windows and targets
    k = int(rng.integers(1, len(ref_x) + 1))
    keep = (np.random.default_rng(seed).choice(len(ref_x), k, replace=False)
            if k < len(ref_x) else np.arange(len(ref_x)))
    Xs, Ys = build_dataset(cohort, tag, "regression", k, np.random.default_rng(seed))
    _assert_gathers(Xs, ref_x[keep], rng)
    _assert_gathers(Ys, ref_y[keep], rng)
    Xs, labels = build_dataset(cohort, tag, "classification", k, np.random.default_rng(seed))
    _assert_gathers(Xs, ref_x[keep], rng)
    _assert_gathers(labels, ref_bins[keep], rng)

    pairs = [(np.concatenate(rs[t], axis=1), tr.states[t + 1] - tr.states[t])
             for tr, rs in zip(trajs, refs) for t in range(tr.T - 1)]
    if not pairs:
        with pytest.raises(EmptySubgroupError, match=repr(tag)):
            _collect_windows(cohort, tag)
        return
    ref_xd, ref_yd = np.stack([x for x, _ in pairs]), np.stack([y for _, y in pairs])
    Xd, Yd = _collect_windows(cohort, tag)
    _assert_gathers(Xd, ref_xd, rng)
    _assert_gathers(Yd, ref_yd, rng)
    # a max_windows subset is the same rng.choice draw of the same windows
    k = int(rng.integers(1, len(pairs) + 1))
    Xs, Ys = _collect_windows(cohort, tag, k, np.random.default_rng(seed))
    keep = (np.random.default_rng(seed).choice(len(pairs), k, replace=False)
            if k < len(pairs) else np.arange(len(pairs)))
    _assert_gathers(Xs, ref_xd[keep], rng)
    _assert_gathers(Ys, ref_yd[keep], rng)


def _loaded_out_of_order(cohort, seed):
    """``cohort`` written to a cohort directory and loaded back from a CSV
    whose rows were shuffled, with no companion: the load copies the rows
    into (first appearance, timestep) order."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        save_cohort_dir(cohort, out)
        (out / "cohort.csv.npz").unlink()
        header, *rows = (out / "cohort.csv").read_text(encoding="utf-8").splitlines(True)
        order = np.random.default_rng(seed).permutation(len(rows))
        (out / "cohort.csv").write_text(header + "".join(rows[i] for i in order),
                                        encoding="utf-8")
        return load_cohort_dir(out)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=60, max_size=60), st.integers(0, 2**32 - 1))
@example([1] * 60, 0)  # every encounter T=1: no transitions at all
def test_cohort_windows_equal_reference_concatenation(small_cohort, proc_cohort, lengths,
                                                       seed):
    # the cohort paths: views of a preprocessed block with rows left out
    # between encounters; the same trajectories copied (packed into a new
    # block); loaded out of row order; and preprocessed in memory
    ragged = _ragged(proc_cohort, lengths)
    packed = CohortDataset.from_trajectories(ragged.schema, ragged.trajectories,
                                             split=ragged.split)
    assert not np.shares_memory(packed.block, ragged.block)
    raw = _ragged(small_cohort, lengths)
    rng = np.random.default_rng(seed)
    for cohort in (ragged, packed, _loaded_out_of_order(ragged, seed), preprocess_cohort(raw)):
        subgroup = [filter_subgroup(cohort, SubgroupKey("gender", "F"))] if any(
            tr.attributes["gender"] == "F" for tr in cohort.trajectories) else []
        for data in (cohort, *subgroup):
            for tag in ("train", "val", "test"):
                _assert_split_gathers(data, tag, rng, seed)


# Per model: an allowance in bytes for the memory that does not grow with
# the cohort (the model, its optimizer and workspaces, one inference
# block), and a 1-epoch training run.
TRAINING_RUNS = {
    "bc": (3 << 20, lambda c: train_bc(c, None, "regression", BcHyperParams(epochs=1))),
    "dynamics": (7 << 20, lambda c: train_dynamics(
        c, DynHyperParams(epochs=1, max_windows=2000))),
}


@pytest.fixture(scope="module")
def memory_cohort():
    cohort, _ = generate(SynthConfig(n_patients=800, T=72, n_features=12, seed=3))
    return preprocess_cohort(assign_splits(cohort, seed=3))


@pytest.mark.parametrize("model", sorted(TRAINING_RUNS))
def test_training_memory_is_bounded_by_the_split_states(memory_cohort, model):
    # windows are gathered per minibatch and per inference block, so the
    # training and validation splits are held about once, as one state row
    # block, not as three copies in their windows
    split_bytes = sum(tr.states.nbytes for tag in ("train", "val")
                      for tr in memory_cohort.split_of(tag).trajectories)
    allowance, run = TRAINING_RUNS[model]
    tracemalloc.start()
    try:
        run(memory_cohort)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * split_bytes + allowance


def test_bc_training_memory_is_a_fraction_of_the_cohort_block(memory_cohort):
    # windows, labels and the per-block validation loss all read the
    # cohort's float block (112 bytes per row here) by row index, so beside
    # it training holds 16 bytes of indices per train and val row, one
    # epoch's shuffle and memory of fixed size: 2.8 MB at n=800, against a
    # 6.5 MB block. Holding a split's windows and the validation logits
    # with their softmax would take 11.5 MB.
    tracemalloc.start()
    try:
        train_bc(memory_cohort, None, "classification", BcHyperParams(epochs=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * memory_cohort.block.nbytes


@pytest.fixture(scope="module")
def tiny_dyn(proc_cohort):
    hp = DynHyperParams(epochs=4, seed=0, max_windows=1200)
    return train_dynamics(proc_cohort, hp)


def test_training_keeps_best_validation(tiny_dyn):
    vals = [h["val_mse"] for h in tiny_dyn.history]
    assert len(vals) == 4
    assert min(vals) <= vals[0]


def test_eval_returns_model_and_zero_baseline(tiny_dyn, proc_cohort):
    mse_model, mse_zero = eval_dynamics_mse(tiny_dyn, proc_cohort, "test")
    assert mse_model > 0 and mse_zero > 0
    assert mse_model < mse_zero  # even a lightly trained model beats zero
    # the same bits as the losses of the whole split's predictions and deltas
    X, Y = (np.asarray(a) for a in _collect_windows(proc_cohort, "test"))
    assert (mse_model, mse_zero) == (mse_loss(infer(tiny_dyn.net, X), Y)[0],
                                     mse_loss(np.zeros_like(Y), Y)[0])


def test_rollout_structure_and_clipping(tiny_dyn, proc_cohort):
    starts = np.stack([tr.states[0] for tr in proc_cohort.split_of("test").trajectories[:3]])
    init = np.stack([starts] * 3, axis=1)
    seen = []

    def policy(s_win):
        seen.append(s_win.copy())
        return np.zeros((len(s_win), 2))

    states, actions = rollout(tiny_dyn, policy, init, horizon=20)
    assert states.shape == (3, 21, proc_cohort.schema.n_features)
    assert actions.shape == (3, 20, 2) and not actions.any()
    assert np.array_equal(states[:, 0], starts)
    assert np.all(np.isfinite(states))
    assert np.all(np.abs(states[:, 1:]) <= STATE_CLIP)
    # each step's window chains the states the previous steps produced
    assert np.array_equal(seen[0], init)
    for t in range(1, 20):
        assert np.array_equal(seen[t][:, -1], states[:, t])
        assert np.array_equal(seen[t][:, :-1], seen[t - 1][:, 1:])


def test_rollout_episodes_step_independently(tiny_dyn, proc_cohort):
    """A batch of episodes gives each episode's one-episode rollout."""
    starts = np.stack([tr.states[0] for tr in proc_cohort.split_of("test").trajectories[:4]])
    init = np.stack([starts] * 3, axis=1)

    def policy(s_win):
        return np.tanh(s_win[:, -1, :2])

    batch, batch_actions = rollout(tiny_dyn, policy, init, horizon=6)
    for e in range(4):
        one, one_actions = rollout(tiny_dyn, policy, init[e:e + 1], horizon=6)
        assert np.allclose(one[0], batch[e], rtol=0, atol=1e-12)
        assert np.allclose(one_actions[0], batch_actions[e], rtol=0, atol=1e-12)


def test_rollout_validation(tiny_dyn, proc_cohort):
    s0 = proc_cohort.trajectories[0].states[0]
    zero = lambda w: np.zeros((len(w), 2))  # noqa: E731
    with pytest.raises(ValueError):
        rollout(tiny_dyn, zero, np.stack([[s0] * 3]), horizon=0)
    with pytest.raises(ValueError):
        rollout(tiny_dyn, zero, np.stack([[s0] * 2]), horizon=1)
    with pytest.raises(ValueError):
        rollout(tiny_dyn, zero, np.stack([s0] * 3), horizon=1)


def test_rollout_blowup_detection(tiny_dyn, proc_cohort, monkeypatch):
    s0 = proc_cohort.trajectories[0].states[0]
    M = proc_cohort.schema.n_features
    monkeypatch.setattr(TransitionModel, "predict_delta",
                        lambda self, w: np.full((len(w), M), np.nan))
    with pytest.raises(RolloutBlowupError) as exc:
        rollout(tiny_dyn, lambda w: np.zeros((len(w), 2)), np.stack([[s0] * 3]),
                horizon=5)
    assert exc.value.step == 0


def test_dynamics_save_load_round_trip(tmp_path, tiny_dyn, rng):
    path = tmp_path / "dyn.npz"
    save_dynamics(tiny_dyn, path)
    back = load_dynamics(path)
    x = rng.normal(size=(4, 3, tiny_dyn.n_features + 2))
    assert np.array_equal(back.predict_delta(x), tiny_dyn.predict_delta(x))
    assert back.history == tiny_dyn.history
    assert back.norm_stats.to_json() == tiny_dyn.norm_stats.to_json()
    assert back.binning.to_json() == tiny_dyn.binning.to_json()

