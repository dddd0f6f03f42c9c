"""Solver unit tests on small hand-evaluated models."""

import json

import pytest

from teamplan import mdp as mdp_module
from teamplan.mdp import (
    Choice,
    DivergenceError,
    Mdp,
    load_model,
    max_reach,
    model_from_dict,
    model_to_dict,
    save_model,
    validate,
)

from exhaustive import evaluate_policy


def make(num_states, initial, actions, table, **kw):
    """table maps state -> list of (action_name, [(succ, p), ...], cost)."""
    index = {a: i for i, a in enumerate(actions)}
    choices = [[] for _ in range(num_states)]
    for s, rows in table.items():
        for entry in rows:
            name, outs = entry[0], entry[1]
            cost = entry[2] if len(entry) > 2 else None
            choices[s].append(Choice(index[name], tuple(outs), cost))
    return Mdp(num_states, initial, actions, choices, **kw)


def absorbing(name="stay"):
    return lambda s: (name, [(s, 1.0)])


# ------------------------------------------------------------------
# max_reach on hand-checked models


def test_one_step_probability():
    # 0 --a--> {1 w.p. 0.9, 2 w.p. 0.1}; 1 is the target, 2 a sink
    m = make(3, 0, ["a", "stay"], {
        0: [("a", [(1, 0.9), (2, 0.1)])],
        1: [("stay", [(1, 1.0)])],
        2: [("stay", [(2, 1.0)])],
    })
    res = max_reach(m, {1})
    assert res.values == pytest.approx([0.9, 1.0, 0.0], abs=1e-12)
    assert res.policy[0] == 0
    assert res.zero == frozenset({2})
    assert res.almost_sure == frozenset({1})


def test_picks_better_action():
    m = make(3, 0, ["a", "b", "stay"], {
        0: [("a", [(1, 0.9), (2, 0.1)]), ("b", [(1, 0.5), (2, 0.5)])],
        1: [("stay", [(1, 1.0)])],
        2: [("stay", [(2, 1.0)])],
    })
    res = max_reach(m, {1})
    assert res.values[0] == pytest.approx(0.9, abs=1e-12)
    assert res.policy[0] == 0


def test_retry_loop_value():
    # 0: a -> {1 w.p. 0.5, 0 w.p. 0.5}. Retrying forever reaches the target
    # almost surely, so the value is exactly 1 via the graph precomputation.
    m = make(2, 0, ["a", "stay"], {
        0: [("a", [(1, 0.5), (0, 0.5)])],
        1: [("stay", [(1, 1.0)])],
    })
    res = max_reach(m, {1})
    assert res.values[0] == 1.0
    assert res.iterations == 0
    assert 0 in res.almost_sure


def test_no_retry_means_half():
    m = make(3, 0, ["a", "stay"], {
        0: [("a", [(1, 0.5), (2, 0.5)])],
        1: [("stay", [(1, 1.0)])],
        2: [("stay", [(2, 1.0)])],
    })
    res = max_reach(m, {1})
    assert res.values[0] == pytest.approx(0.5, abs=1e-12)


def test_policy_avoids_value_preserving_loop():
    # The self-loop at 0 preserves the value 1 but never arrives; the
    # extracted policy must take the direct action despite its higher index.
    m = make(2, 0, ["loop", "go"], {
        0: [("loop", [(0, 1.0)]), ("go", [(1, 1.0)])],
        1: [("go", [(1, 1.0)])],
    })
    res = max_reach(m, {1})
    assert res.values[0] == 1.0
    assert res.policy[0] == 1
    attained = evaluate_policy(m, res.policy, {1})
    assert attained[0] == pytest.approx(1.0, abs=1e-9)


def test_policy_progresses_in_quantitative_region():
    # Both choices at 0 have Q-value 0.5; only "exit" makes progress.
    m = make(3, 0, ["loop", "exit", "stay"], {
        0: [("loop", [(0, 1.0)]), ("exit", [(1, 0.5), (2, 0.5)])],
        1: [("stay", [(1, 1.0)])],
        2: [("stay", [(2, 1.0)])],
    })
    res = max_reach(m, {1})
    assert res.values[0] == pytest.approx(0.5, abs=1e-9)
    assert res.policy[0] == 1
    attained = evaluate_policy(m, res.policy, {1})
    assert attained[0] == pytest.approx(0.5, abs=1e-9)


def test_avoid_states_block_paths():
    # Only route to the target runs through the avoid state.
    m = make(3, 0, ["a", "stay"], {
        0: [("a", [(1, 1.0)])],
        1: [("a", [(2, 1.0)])],
        2: [("stay", [(2, 1.0)])],
    })
    res = max_reach(m, {2}, avoid={1})
    assert res.values == [0.0, 0.0, 1.0]
    assert res.zero >= {0, 1}


def test_avoid_overlap_rejected():
    m = make(2, 0, ["a"], {0: [("a", [(1, 1.0)])], 1: [("a", [(1, 1.0)])]})
    with pytest.raises(ValueError):
        max_reach(m, {1}, avoid={1})
    with pytest.raises(ValueError):
        max_reach(m, {5})


def test_prob1_demands_retry_not_gamble():
    # a retries (almost sure), b risks an absorbing sink.
    m = make(3, 0, ["a", "b", "stay"], {
        0: [("a", [(1, 0.5), (0, 0.5)]), ("b", [(1, 0.5), (2, 0.5)])],
        1: [("stay", [(1, 1.0)])],
        2: [("stay", [(2, 1.0)])],
    })
    res = max_reach(m, {1})
    assert res.values[0] == 1.0
    assert res.policy[0] == 0


def test_monotone_sweeps_from_zero():
    m = make(4, 0, ["a", "stay"], {
        0: [("a", [(1, 0.5), (3, 0.5)])],
        1: [("a", [(2, 0.8), (3, 0.2)])],
        2: [("stay", [(2, 1.0)])],
        3: [("stay", [(3, 1.0)])],
    })
    res = max_reach(m, {2})
    assert res.values[0] == pytest.approx(0.4, abs=1e-9)
    assert res.iterations >= 2
    # iterating from zero approaches every value from below
    assert all(0.0 <= v <= exact for v, exact in zip(res.values, [0.4, 0.8, 1.0, 0.0]))


def test_divergence_error_on_tiny_budget(monkeypatch):
    monkeypatch.setattr(mdp_module, "MAX_SWEEPS", 2)
    m = make(3, 0, ["a", "stay"], {
        0: [("a", [(0, 0.999), (1, 0.0005), (2, 0.0005)])],
        1: [("stay", [(1, 1.0)])],
        2: [("stay", [(2, 1.0)])],
    })
    with pytest.raises(DivergenceError):
        max_reach(m, {1})


def test_prob1_round_drops_a_state_of_the_round_before():
    # 5 reaches {0, 1} surely, and both reach the target 2 with positive
    # probability, so the first prob1 round keeps 5; 1 may fall into the
    # sink 3, and once 1 is dropped, 5's only choice leaves the candidate
    # set: a round reading the candidate set or usable edges of the round
    # before would pin 5 to 1
    m = make(6, 5, ["a", "b", "stay"], {
        0: [("a", [(1, 1.0)]), ("b", [(2, 0.5), (0, 0.5)])],
        1: [("a", [(2, 0.5), (3, 0.5)])],
        2: [("stay", [(2, 1.0)])],
        3: [("stay", [(3, 1.0)])],
        5: [("a", [(0, 0.5), (1, 0.5)])],
    })
    res = max_reach(m, {2}, epsilon=1e-12)
    assert res.zero == frozenset({3, 4})
    assert res.almost_sure == frozenset({0, 2})
    assert res.values[5] == pytest.approx(0.75, abs=1e-9)
    assert res.policy[0] == 1 and res.policy[5] == 0


@pytest.mark.parametrize("epsilon", [0, -1, 0.0, float("inf"), float("nan"), None, "x", True])
def test_epsilon_must_be_positive_and_finite(epsilon, monkeypatch):
    monkeypatch.setattr(mdp_module, "MAX_SWEEPS", 2)  # without the check, fail fast, not after 100,000 sweeps
    m = make(3, 0, ["a", "stay"], {
        0: [("a", [(0, 0.5), (1, 0.25), (2, 0.25)])],
        1: [("stay", [(1, 1.0)])],
        2: [("stay", [(2, 1.0)])],
    })
    with pytest.raises(ValueError, match="epsilon"):
        max_reach(m, {1}, epsilon=epsilon)


# ------------------------------------------------------------------
# validation and files


def test_validate_accepts_well_formed():
    m = make(2, 0, ["a"], {0: [("a", [(1, 1.0)])], 1: [("a", [(1, 1.0)])]})
    assert validate(m) == []


def test_validate_reports_problems():
    bad = Mdp(3, 0, ("a",), [
        [Choice(0, ((1, 0.5), (1, 0.4)), None)],
        [Choice(0, ((5, 1.0),), None), Choice(0, ((1, 1.0),), -2.0)],
        [],
    ], failure_state=1)
    problems = validate(bad)
    text = "\n".join(problems)
    assert "sum to" in text
    assert "out of range" in text
    assert "enabled twice" in text
    assert "negative cost" in text
    assert "not absorbing" in text
    assert "unreachable" not in text  # state 2 is unreachable, which is harmless


def test_validate_flags_bad_initial():
    m = make(2, 0, ["a"], {0: [("a", [(1, 1.0)])], 1: [("a", [(1, 1.0)])]})
    m.initial = 7
    assert validate(m) == ["initial state 7 out of range"]


def test_model_round_trip(tmp_path):
    m = make(3, 0, ["a", "b"], {
        0: [("a", [(1, 0.9), (2, 0.1)], 1.5), ("b", [(2, 1.0)])],
        1: [("a", [(1, 1.0)])],
        2: [("a", [(2, 1.0)])],
    }, atoms=("goal",), labels={1: {"goal"}}, failure_state=2)
    path = tmp_path / "model.json"
    save_model(m, path)
    again = load_model(path)
    assert model_to_dict(again) == model_to_dict(m)
    assert again.label(1) == frozenset({"goal"})
    assert again.label(0) == frozenset()
    assert again.failure_state == 2


def test_model_rejects_unknown_action():
    data = model_to_dict(make(2, 0, ["a"], {0: [("a", [(1, 1.0)])], 1: [("a", [(1, 1.0)])]}))
    data["trans"][0]["action"] = "zz"
    with pytest.raises(ValueError):
        model_from_dict(data)


def test_model_rejects_bad_source():
    data = {
        "states": 1, "initial": 0, "atoms": [], "labels": {},
        "failure_state": None, "actions": ["a"],
        "trans": [{"from": 3, "action": "a", "outcomes": [{"to": 0, "p": 1.0}]}],
    }
    with pytest.raises(ValueError):
        model_from_dict(data)


def test_model_json_shape(tmp_path):
    m = make(2, 0, ["a"], {0: [("a", [(1, 1.0)], 0.5)], 1: [("a", [(1, 1.0)])]})
    path = tmp_path / "m.json"
    save_model(m, path)
    data = json.loads(path.read_text())
    assert set(data) == {"states", "initial", "atoms", "labels", "failure_state", "actions", "trans"}
    assert data["trans"][0] == {
        "from": 0, "action": "a", "outcomes": [{"to": 1, "p": 1.0}], "cost": 0.5,
    }
    assert "cost" not in data["trans"][1]
