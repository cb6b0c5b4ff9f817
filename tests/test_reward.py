"""Clinical reward boundary conventions and discounted returns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpolicy import reward as R
from cfpolicy.cohort import PatientTrajectory
from cfpolicy.reward import step_reward, trajectory_return, trajectory_rewards
from cfpolicy.synth import make_schema


def _r(map_mmhg, sbp=120.0, **kw):
    kw.setdefault("died_now", False)
    kw.setdefault("is_terminal", False)
    kw.setdefault("alive_at_end", True)
    return step_reward(map_mmhg, sbp, **kw)


def reference_step_reward(map_mmhg, sbp_mmhg, died_now, is_terminal, alive_at_end):
    """The per-timestep rule with early-out branches; ``step_reward`` must
    match it bit for bit."""
    r = 0.0
    if map_mmhg < R.MAP_LOW:
        r += R.HYPO_PENALTY
    elif map_mmhg <= R.MAP_HIGH:
        r += R.NORMAL_MAP_BONUS
    if sbp_mmhg > R.SBP_CRISIS:
        r += R.HYPER_PENALTY
    if is_terminal:
        r += R.TERMINAL_SURVIVAL if alive_at_end else R.TERMINAL_DEATH
    elif died_now:
        r += R.INTERMEDIATE_DEATH
    return r


def test_map_band_boundaries_exact():
    assert _r(60.0) == R.NORMAL_MAP_BONUS        # 60 is inside the band
    assert _r(80.0) == R.NORMAL_MAP_BONUS        # 80 is inside the band
    assert _r(np.nextafter(60.0, 0.0)) == R.HYPO_PENALTY  # just below 60
    assert _r(np.nextafter(80.0, 100.0)) == 0.0   # just above 80: no term
    assert _r(40.0) == R.HYPO_PENALTY
    assert _r(70.0) == R.NORMAL_MAP_BONUS


def test_sbp_crisis_strictly_above_180():
    assert _r(70.0, sbp=180.0) == R.NORMAL_MAP_BONUS          # no crisis at 180
    assert _r(70.0, sbp=np.nextafter(180.0, 300.0)) == (
        R.NORMAL_MAP_BONUS + R.HYPER_PENALTY)                 # strict >


def test_overlapping_terms_are_additive():
    # hypotensive MAP plus SBP crisis: both penalties apply, no precedence
    assert _r(50.0, sbp=200.0) == R.HYPO_PENALTY + R.HYPER_PENALTY


def test_terminal_and_intermediate_mortality():
    assert _r(70.0, is_terminal=True, alive_at_end=True) == (
        R.NORMAL_MAP_BONUS + R.TERMINAL_SURVIVAL)
    assert _r(70.0, is_terminal=True, alive_at_end=False) == (
        R.NORMAL_MAP_BONUS + R.TERMINAL_DEATH)
    assert _r(70.0, died_now=True) == R.NORMAL_MAP_BONUS + R.INTERMEDIATE_DEATH


def test_nonfinite_vitals_rejected():
    with pytest.raises(ValueError):
        step_reward(float("nan"), 120.0, False, False, True)
    with pytest.raises(ValueError):
        step_reward(np.array([70.0, 70.0]), np.array([120.0, np.inf]), False, False, True)


# boundary values and their float neighbours, mixed with arbitrary vitals
_EDGES = [v for b in (R.MAP_LOW, R.MAP_HIGH, R.SBP_CRISIS)
          for v in (np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf))]
_VITALS = st.one_of(st.sampled_from(_EDGES), st.floats(0.0, 400.0))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(_VITALS, _VITALS, st.booleans(), st.booleans(), st.booleans()),
                min_size=1, max_size=30))
def test_vectorized_step_reward_matches_reference_bytes(rows):
    m, s, died, term, alive = (np.array(col) for col in zip(*rows))
    expected = np.array([reference_step_reward(*row) for row in rows])
    assert step_reward(m, s, died, term, alive).tobytes() == expected.tobytes()
    for row, want in zip(rows, expected):  # scalars take the same path
        assert np.float64(step_reward(*row)).tobytes() == want.tobytes()


def test_step_reward_broadcasts_flags_over_vitals():
    m = np.array([[40.0], [60.0], [np.nextafter(80.0, 100.0)]])  # (3, 1)
    s = np.array([120.0, 180.0, np.nextafter(180.0, 300.0), 200.0])  # (4,)
    out = step_reward(m, s, died_now=False, is_terminal=True, alive_at_end=False)
    assert out.shape == (3, 4)
    expected = np.array([[reference_step_reward(a, b, False, True, False) for b in s]
                         for a in m[:, 0]])
    assert out.tobytes() == expected.tobytes()


def _make_traj(map_vals, sbp_vals, M):
    T = len(map_vals)
    states = np.zeros((T, M))
    states[:, 0] = map_vals
    states[:, 1] = sbp_vals
    return PatientTrajectory(id="a", attributes={}, states=states,
                             actions=np.zeros((T, 2)))


def test_trajectory_rewards_and_return():
    schema = make_schema(8)
    traj = _make_traj([70.0, 50.0, 190.0], [120.0, 120.0, 185.0], 8)
    rewards = trajectory_rewards(traj, schema)
    # t=2 is terminal, alive: no MAP term (190 > 80), crisis penalty, survival
    expected = [R.NORMAL_MAP_BONUS, R.HYPO_PENALTY,
                R.HYPER_PENALTY + R.TERMINAL_SURVIVAL]
    assert np.allclose(rewards, expected)
    gamma = 0.9
    ret = trajectory_return(traj, gamma, schema)
    assert ret == pytest.approx(sum(gamma**t * r for t, r in enumerate(expected)),
                                abs=1e-12)


def test_trajectory_return_rejects_bad_gamma():
    with pytest.raises(ValueError):
        trajectory_return(_make_traj([70.0], [120.0], 8), 0.0, make_schema(8))
