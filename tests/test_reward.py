"""Clinical reward boundary conventions and discounted returns."""

import numpy as np
import pytest

from cfpolicy.cohort import PatientTrajectory
from cfpolicy.reward import (RewardFn, step_reward, trajectory_return,
                             trajectory_rewards)
from cfpolicy.synth import make_schema

FN = RewardFn()


def _r(map_mmhg, sbp=120.0, **kw):
    kw.setdefault("died_now", False)
    kw.setdefault("is_terminal", False)
    kw.setdefault("alive_at_end", True)
    return step_reward(FN, map_mmhg, sbp, **kw)


def test_map_band_boundaries_exact():
    assert _r(60.0) == FN.normal_map_bonus        # 60 is inside the band
    assert _r(80.0) == FN.normal_map_bonus        # 80 is inside the band
    assert _r(np.nextafter(60.0, 0.0)) == FN.hypo_penalty  # just below 60
    assert _r(np.nextafter(80.0, 100.0)) == 0.0   # just above 80: no term
    assert _r(40.0) == FN.hypo_penalty
    assert _r(70.0) == FN.normal_map_bonus


def test_sbp_crisis_strictly_above_180():
    assert _r(70.0, sbp=180.0) == FN.normal_map_bonus          # no crisis at 180
    assert _r(70.0, sbp=np.nextafter(180.0, 300.0)) == (
        FN.normal_map_bonus + FN.hyper_penalty)                # strict >


def test_overlapping_terms_are_additive():
    # hypotensive MAP plus SBP crisis: both penalties apply, no precedence
    assert _r(50.0, sbp=200.0) == FN.hypo_penalty + FN.hyper_penalty


def test_terminal_and_intermediate_mortality():
    assert _r(70.0, is_terminal=True, alive_at_end=True) == (
        FN.normal_map_bonus + FN.terminal_survival)
    assert _r(70.0, is_terminal=True, alive_at_end=False) == (
        FN.normal_map_bonus + FN.terminal_death)
    assert _r(70.0, died_now=True) == FN.normal_map_bonus + FN.intermediate_death


def test_nonfinite_vitals_rejected():
    with pytest.raises(ValueError):
        step_reward(FN, float("nan"), 120.0, False, False, True)


def test_reward_fn_validation():
    with pytest.raises(ValueError):
        RewardFn(hypo_penalty=0.1)
    with pytest.raises(ValueError):
        RewardFn(map_low=90.0, map_high=80.0)
    back = RewardFn.from_json(FN.to_json())
    assert back == FN


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
    rewards = trajectory_rewards(FN, traj, schema)
    # t=2 is terminal, alive: no MAP term (190 > 80), crisis penalty, survival
    expected = [FN.normal_map_bonus, FN.hypo_penalty,
                FN.hyper_penalty + FN.terminal_survival]
    assert np.allclose(rewards, expected)
    gamma = 0.9
    ret = trajectory_return(FN, traj, gamma, schema)
    assert ret == pytest.approx(sum(gamma**t * r for t, r in enumerate(expected)),
                                abs=1e-12)


def test_trajectory_return_rejects_bad_gamma():
    with pytest.raises(ValueError):
        trajectory_return(FN, _make_traj([70.0], [120.0], 8), 0.0, make_schema(8))
