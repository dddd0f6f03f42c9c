"""Product construction semantics and oracle agreement."""

import numpy as np
import pytest

from teamplan.ltl import Mission, parse_formula
from teamplan.mdp import Choice, max_reach
from teamplan.product import ProductError, compile_mission, local_product

from conformance import is_good_prefix
from rows import from_rows


def make(num_states, initial, actions, table, **kw):
    index = {a: i for i, a in enumerate(actions)}
    choices = [[] for _ in range(num_states)]
    for s, rows in table.items():
        for entry in rows:
            name, outs = entry[0], entry[1]
            cost = entry[2] if len(entry) > 2 else None
            choices[s].append(Choice(index[name], tuple(outs), cost))
    return from_rows(num_states, initial, actions, choices, **kw)


def mission(*tasks, safety=None):
    return Mission(
        tasks=tuple(parse_formula(t) for t in tasks),
        safety=parse_formula(safety) if safety else None,
    )


def task_done(pm, i, k):
    return pm.states[i][1][k] in pm.automata.tasks[k].accepting


def test_initial_label_starts_accepting():
    m = make(2, 0, ["a"], {0: [("a", [(1, 1.0)])], 1: [("a", [(1, 1.0)])]},
             atoms=("goal",), labels={0: {"goal"}})
    pm = local_product(m, mission("F goal"))
    assert 0 in pm.accepting
    assert task_done(pm, 0, 0)


def test_corridor_value_passes_through():
    # 0 -> 1 -> 2(goal), first step risky
    m = make(4, 0, ["a", "b"], {
        0: [("a", [(1, 0.9), (3, 0.1)])],
        1: [("b", [(2, 1.0)])],
        2: [],
        3: [],
    }, atoms=("goal",), labels={2: {"goal"}}, failure_state=3)
    pm = local_product(m, mission("F goal"))
    assert pm._explorer.moves is m.arrays  # the explorer walks the robot model's rows, not a copy
    res = max_reach(pm.mdp, pm.accepting, pm.violating)
    assert res.values[0] == pytest.approx(0.9, abs=1e-9)


def test_full_size_counts():
    m = make(4, 0, ["a"], {
        0: [("a", [(1, 0.9), (3, 0.1)])],
        1: [("a", [(2, 1.0)])],
        2: [],
        3: [],
    }, atoms=("p1", "p2", "h"), labels={1: {"p1"}, 2: {"p2"}}, failure_state=3)
    pm = local_product(m, mission("F p1", "F p2"))
    assert pm.full_size() == 3 * 2 * 2
    withsafe = local_product(m, mission("F p1", "F p2", safety="G !h"))
    assert withsafe.full_size() == 3 * 2 * 2 * 2


def test_hazard_trap_absorbs():
    # only route to the goal crosses the hazard
    m = make(3, 0, ["a", "b"], {
        0: [("a", [(1, 1.0)])],
        1: [("b", [(2, 1.0)])],
        2: [],
    }, atoms=("goal", "h"), labels={1: {"h"}, 2: {"goal"}})
    pm = local_product(m, mission("F goal", safety="G !h"))
    res = max_reach(pm.mdp, pm.accepting, pm.violating)
    assert res.values[0] == 0.0
    for i in pm.violating:
        for c in pm.mdp.choices[i]:
            assert c.outcomes == ((i, 1.0),)


def test_accepting_needs_every_task():
    m = make(2, 0, ["a"], {0: [("a", [(1, 1.0)])], 1: []},
             atoms=("p1", "p2"), labels={1: {"p1"}})
    pm = local_product(m, mission("F p1", "F p2"))
    assert pm.accepting == frozenset()
    one = local_product(m, mission("F p1"))
    assert one.accepting


def test_missing_atom_rejected():
    m = make(1, 0, [], {}, atoms=("p",))
    with pytest.raises(ProductError):
        local_product(m, mission("F q"))


def test_shared_automata_give_same_product():
    m = make(2, 0, ["a"], {0: [("a", [(1, 1.0)])], 1: []},
             atoms=("p",), labels={1: {"p"}})
    shared = compile_mission(mission("F p"))
    a = local_product(m, mission("F p"), automata=shared)
    b = local_product(m, mission("F p"))
    assert a.num_states == b.num_states
    assert a.accepting == b.accepting


def _walks(choices, s, depth):
    if depth == 0 or not choices[s]:
        yield (), 1.0
        return
    for c in choices[s]:
        for t, p in c.outcomes:
            for rest, rp in _walks(choices, t, depth - 1):
                yield ((c.action, t),) + rest, p * rp


def test_path_probabilities_preserved():
    m = make(5, 0, ["a", "b"], {
        0: [("a", [(1, 0.6), (2, 0.4)]), ("b", [(3, 1.0)])],
        1: [("a", [(4, 0.5), (0, 0.5)])],
        2: [("b", [(4, 1.0)])],
        3: [("a", [(2, 0.7), (4, 0.3)])],
        4: [],
    }, atoms=("p",), labels={4: {"p"}})
    pm = local_product(m, mission("F p"))
    source = {}
    for walk, p in _walks(m.choices, m.initial, 4):
        source[walk] = source.get(walk, 0.0) + p
    projected = {}
    for walk, p in _walks(pm.mdp.choices, 0, 4):
        key = tuple((a, pm.states[t][0]) for a, t in walk)
        assert key not in projected, "two product paths project to one source path"
        projected[key] = p
    assert projected.keys() == source.keys()
    for k in source:
        assert projected[k] == pytest.approx(source[k], abs=1e-12)


def test_task_progress_is_monotone():
    m = make(5, 0, ["a", "b"], {
        0: [("a", [(1, 0.5), (2, 0.5)])],
        1: [("a", [(3, 1.0)]), ("b", [(0, 1.0)])],
        2: [("b", [(4, 1.0)])],
        3: [("a", [(2, 1.0)])],
        4: [("a", [(4, 1.0)])],
    }, atoms=("p1", "p2"), labels={3: {"p1"}, 4: {"p2"}})
    pm = local_product(m, mission("F p1", "F p2"))
    for i in range(pm.num_states):
        done = {k for k in range(2) if task_done(pm, i, k)}
        for c in pm.mdp.choices[i]:
            for t, _ in c.outcomes:
                after = {k for k in range(2) if task_done(pm, t, k)}
                assert done <= after


def test_monte_carlo_matches_solver_and_trace_oracle():
    # Two tasks, branching routes, absorbing sink; the optimal policy is
    # unique by generic probabilities.
    m = make(4, 0, ["risky", "safe", "move"], {
        0: [("risky", [(1, 0.7), (3, 0.3)]), ("safe", [(2, 0.9), (3, 0.1)])],
        1: [("move", [(2, 0.8), (3, 0.2)])],
        2: [("move", [(1, 0.9), (3, 0.1)])],
        3: [],
    }, atoms=("pa", "pb"), labels={1: {"pa"}, 2: {"pb"}})
    target = mission("F pa", "F pb")
    pm = local_product(m, target)
    res = max_reach(pm.mdp, pm.accepting, pm.violating, epsilon=1e-9)
    value = res.values[0]
    assert 0.0 < value < 1.0

    rng = np.random.default_rng(7)
    runs = 100_000
    hits = 0
    for _ in range(runs):
        cur = 0
        trace = [m.label(m.initial)]
        for _ in range(500):
            if cur in pm.accepting or not pm.mdp.choices[cur]:
                break
            action = res.policy[cur]
            choice = next(c for c in pm.mdp.choices[cur] if c.action == action)
            r = rng.random()
            acc = 0.0
            nxt = choice.outcomes[-1][0]
            for t, p in choice.outcomes:
                acc += p
                if r < acc:
                    nxt = t
                    break
            cur = nxt
            trace.append(m.label(pm.states[cur][0]))
        else:
            pytest.fail("rollout failed to absorb")
        success = cur in pm.accepting
        oracle = all(is_good_prefix(f, trace) for f in target.tasks)
        assert success == oracle
        hits += success
    freq = hits / runs
    sigma = (value * (1.0 - value) / runs) ** 0.5
    assert abs(freq - value) <= 3.0 * sigma
