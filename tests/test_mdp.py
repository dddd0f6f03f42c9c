"""Solver unit tests on small hand-evaluated models."""

import json

import numpy as np
import pytest

from teamplan import mdp as mdp_module
from teamplan.mdp import (
    Choice,
    DivergenceError,
    load_model,
    max_reach,
    model_from_dict,
    model_to_dict,
    save_model,
    validate,
)

from exhaustive import evaluate_policy
from rows import from_rows, row_validate
from test_mdp_oracle import reference_solve


def make(num_states, initial, actions, table, **kw):
    """table maps state -> list of (action_name, [(succ, p), ...], cost)."""
    index = {a: i for i, a in enumerate(actions)}
    choices = [[] for _ in range(num_states)]
    for s, rows in table.items():
        for entry in rows:
            name, outs = entry[0], entry[1]
            cost = entry[2] if len(entry) > 2 else None
            choices[s].append(Choice(index[name], tuple(outs), cost))
    return from_rows(num_states, initial, actions, choices, **kw)


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


def test_prob1_starts_from_the_positive_region(monkeypatch):
    # 1 is no avoid state and its self-loop stays outside the avoid state
    # 3, but it has value 0: a first round from every non-avoid state
    # would keep 0, whose only choice may fall into 1, and need a round
    # more to drop it; from the positive region {0, 2} one round drops 0
    m = make(4, 0, ["a", "stay"], {
        0: [("a", [(2, 0.5), (1, 0.5)])],
        1: [("stay", [(1, 1.0)])],
        2: [("stay", [(2, 1.0)])],
        3: [("stay", [(3, 1.0)])],
    })
    passes = []
    frontier = mdp_module._frontier
    monkeypatch.setattr(mdp_module, "_frontier", lambda *args: passes.append(args) or frontier(*args))
    res = max_reach(m, {2}, {3})
    assert len(passes) == 3  # prob0, then two prob1 rounds: the second confirms the first
    zero, sure, values, _ = reference_solve(m, {2}, {3}, 1e-6, jacobi=True)
    assert (res.zero, res.almost_sure, res.values) == (zero, sure | {2}, values) == ({1, 3}, {2}, [0.5, 0.0, 1.0, 0.0])
    assert np.array_equal(res.zero_mask, [False, True, False, True])
    assert np.array_equal(res.sure_mask, [False, False, True, False])


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
    bad = from_rows(3, 0, ("a",), [
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


def test_model_from_dict_keeps_file_order_per_state():
    data = {
        "states": 3, "initial": 0, "actions": ["a", "b", "c"],
        "trans": [
            {"from": 1, "action": "c", "outcomes": [{"to": 2, "p": 1.0}]},
            {"from": 0, "action": "b", "outcomes": [{"to": 1, "p": 0.25}, {"to": 2, "p": 0.75}], "cost": 2},
            {"from": 1, "action": "a", "outcomes": [{"to": 0, "p": 1.0}]},
            {"from": 0, "action": "a", "outcomes": [{"to": 2, "p": 1.0}]},
        ],
    }
    m = model_from_dict(data)
    assert m.choices == [
        [Choice(1, ((1, 0.25), (2, 0.75)), 2.0), Choice(0, ((2, 1.0),), None)],
        [Choice(2, ((2, 1.0),), None), Choice(0, ((0, 1.0),), None)],
        [],
    ]
    assert m.arrays.targets.dtype == np.int32
    # a file cost comes back as a float
    assert model_to_dict(m)["trans"][0] == {"from": 0, "action": "b", "cost": 2.0,
                                            "outcomes": [{"to": 1, "p": 0.25}, {"to": 2, "p": 0.75}]}


def faulty_model(rng):
    """A seeded random model over actions a, b, c, with faults injected at
    random choices: an action out of range, a duplicate action, a
    successor out of range, a probability outside (0, 1], a bad sum and a
    negative cost; then, at random, a failure state that is absorbing, is
    not, or is out of range, and an initial state out of range."""
    n = int(rng.integers(2, 6))
    rows = []
    for s in range(n):
        row = []
        for a in rng.permutation(3)[:int(rng.integers(0, 4))].tolist():
            k = int(rng.integers(1, 4))
            p = rng.uniform(0.1, 1.0, k)
            outs = tuple(zip(rng.integers(0, n, k).tolist(), (p / p.sum()).tolist()))
            row.append(Choice(a, outs, float(rng.uniform(0.0, 2.0)) if rng.random() < 0.5 else None))
        rows.append(row)
    spots = [(s, j) for s, row in enumerate(rows) for j in range(len(row))]
    for fault in range(6):
        if not spots or rng.random() < 0.6:
            continue
        s, j = spots[int(rng.integers(len(spots)))]
        c = rows[s][j]
        outs, o = list(c.outcomes), int(rng.integers(len(c.outcomes)))
        if fault == 0:
            c = c._replace(action=int(rng.choice([-1, 3, 7])))
        elif fault == 1:
            c = c._replace(action=rows[s][0].action if j else rows[s][-1].action)
        elif fault == 2:
            outs[o] = (int(rng.choice([-1, n, n + 4])), outs[o][1])
        elif fault == 3:
            outs[o] = (outs[o][0], float(rng.choice([0.0, -0.25, 1.5, np.nan])))
        elif fault == 4:
            outs[o] = (outs[o][0], outs[o][1] * 0.5)
        else:
            c = c._replace(cost=-float(rng.uniform(0.1, 2.0)))
        rows[s][j] = c._replace(outcomes=tuple(outs))
    failure = None
    if rng.random() < 0.5:
        failure = int(rng.integers(-1, n + 1))
        if 0 <= failure < n and rng.random() < 0.5:
            rows[failure] = [Choice(a, ((failure, 1.0),), None) for a in range(int(rng.integers(0, 3)))]
    initial = int(rng.choice([0, 0, 0, 0, 0, 0, 0, 0, -1, n]))
    return from_rows(n, initial, ("a", "b", "c"), rows, failure_state=failure)


def test_validate_matches_row_reference_on_faulty_models():
    """`validate` reads the arrays; its messages, in order, are the row
    loop's, and a model file of the model fails to load with the first
    three of them."""
    rng = np.random.default_rng(20261020)
    seen = dict.fromkeys(["action index", "enabled twice", "successor", "outside (0, 1]", "sum to", "negative cost",
                          "is not absorbing", "failure state -1", "initial state"], 0)
    for i in range(400):
        m = faulty_model(rng)
        problems = row_validate(m)
        assert validate(m) == problems, i
        for key in seen:
            seen[key] += any(key in p for p in problems)
        if ((m.arrays.actions >= 0) & (m.arrays.actions < 3)).all():  # a file names actions, so they are in range
            if problems:
                with pytest.raises(ValueError) as err:
                    model_from_dict(model_to_dict(m))
                assert str(err.value) == "malformed model: " + "; ".join(problems[:3]), i
            else:
                assert model_from_dict(model_to_dict(m)).choices == m.choices, i
    assert min(seen.values()) >= 10, seen


# rows of the row helpers' cases: states 1 and 2 are adjacent empty rows
ROWS = [
    [Choice(0, ((1, 0.5), (2, 0.5)), None), Choice(1, ((0, 1.0),), None)],
    [],
    [],
    [Choice(2, ((3, 1.0),), None)],
    [Choice(0, ((0, 0.25), (3, 0.75)), None)],
]


def rows_of(arrays):
    """The `Choice` rows of `arrays`, their targets as they are."""
    return mdp_module.Mdp(len(arrays.row_start) - 1, 0, ("a", "b", "c", "d"), arrays).choices


@pytest.mark.parametrize("where", [
    [False] * 5,  # no state gets a choice
    [False, True, False, False, False],  # onto a state with no choices, to another
    [False, True, True, False, False],  # two adjacent empty rows: one insert position twice
    [False, False, False, False, True],  # the last row
    [True] * 5,
])
def test_append_choice_matches_rows(where):
    arrays = from_rows(5, 0, ("a", "b", "c", "d"), ROWS).arrays
    targets = np.array([2, 2, 4, 0, 1])
    out = mdp_module._append_choice(arrays, np.array(where), 3, targets)
    assert rows_of(out) == [row + [Choice(3, ((int(targets[s]), 1.0),), None)] * where[s]
                            for s, row in enumerate(ROWS)]
    assert [a.dtype for a in out] == [a.dtype for a in arrays]


@pytest.mark.parametrize("states", [[], [3, 1, 0, 2, 4], [4, 2, 0]])  # [] and lists led by their roots
def test_take_matches_rows(states):
    arrays = from_rows(5, 0, ("a", "b", "c", "d"), ROWS).arrays
    out = mdp_module._take(arrays, np.array(states, np.int64))
    assert rows_of(out) == [ROWS[s] for s in states]
    assert [a.dtype for a in out] == [a.dtype for a in arrays]
