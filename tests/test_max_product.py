"""The exact max-product solver against value iteration and policy enumeration.

Team models of deterministic-or-fail robots come from the seeded
generators of `instances.py`: initial teams, and replan teams built at
the reallocation points of their synchronized plans (a failed robot,
another start robot and a mid-mission automaton vector).
"""

import math

import numpy as np
import pytest

from teamplan import mdp as mdp_module
from teamplan import team as team_module
from teamplan.ltl import Mission, parse_formula
from teamplan.mdp import Choice, max_product_reach, max_reach
from teamplan.product import local_products
from teamplan.realloc import find_realloc_points, synchronize
from teamplan.team import _walk_success_path, build_team, solve_stapu

from exhaustive import enumerate_best, evaluate_policy
from instances import guarded_tree_instance, random_team_instance
from rows import from_rows

SEED = 20261018
TOL = 1e-9
POLICY_LIMIT = 2000  # largest policy space enumerated per team


def team_models(rng, count, max_nodes, max_tasks):
    """Initial team models, each followed by the replan teams of its
    first two reallocation points."""
    teams = []
    for i in range(count):
        if i % 2:
            model, miss = random_team_instance(rng, max_nodes=max_nodes, max_tasks=max_tasks)
        else:
            model, miss = guarded_tree_instance(rng, max_tasks=max_tasks)
        products = local_products([model] * (3 if i % 3 == 2 else 2), miss)
        team = build_team(products)
        teams.append(team)
        for point in find_realloc_points(synchronize(solve_stapu(team)))[:2]:
            teams.append(build_team(
                products,
                entries=list(point.positions),
                start_robot=point.robot,
                start_q=point.q,
                failed=point.failed,
            ))
    assert any(t.failed for t in teams)
    return teams


@pytest.fixture(scope="module")
def teams():
    teams = team_models(np.random.default_rng(SEED), 40, max_nodes=8, max_tasks=3)
    assert any(t.start_robot != 0 for t in teams)
    return teams


def solve_exact(team):
    res = max_product_reach(team.mdp, team.accepting, team.violating)
    assert res is not None, "team model left the max-product class"
    return res


def test_values_match_value_iteration(teams):
    for i, team in enumerate(teams):
        exact = solve_exact(team)
        vi = max_reach(team.mdp, team.accepting, team.violating, epsilon=1e-12)
        for s in range(team.num_states):
            assert exact.values[s] == pytest.approx(vi.values[s], abs=TOL), f"team {i}, state {s}"
        assert exact.almost_sure == vi.almost_sure
        assert exact.zero == vi.zero


def test_values_match_enumeration():
    small = [
        t for t in team_models(np.random.default_rng(SEED + 1), 40, max_nodes=4, max_tasks=1)
        if math.prod(max(1, len(row)) for row in t.mdp.choices) <= POLICY_LIMIT
    ]
    assert len(small) >= 25 and any(t.failed for t in small)
    for i, team in enumerate(small):
        exact = solve_exact(team)
        best = enumerate_best(team.mdp, team.accepting, team.violating)
        for s in range(team.num_states):
            assert exact.values[s] == pytest.approx(best[s], abs=TOL), f"team {i}, state {s}"


def test_policy_attains_values(teams):
    for i, team in enumerate(teams):
        exact = solve_exact(team)
        attained = evaluate_policy(team.mdp, exact.policy, team.accepting, team.violating)
        for s in range(team.num_states):
            assert attained[s] == pytest.approx(exact.values[s], abs=TOL), f"team {i}, state {s}"


def test_allocations_match_value_iteration(teams):
    for i, team in enumerate(teams):
        sol = solve_stapu(team)
        vi = max_reach(team.mdp, team.accepting, team.violating, epsilon=1e-12)
        expected = _walk_success_path(team, vi.policy)
        got = (sol.allocation, sol.unallocated, sol.segments, sol.switches, sol.programs)
        assert got == expected, f"team {i}"


def test_two_live_outcomes_fall_back_to_value_iteration(monkeypatch):
    # "try" reaches the task node 1 directly w.p. 0.5, the detour node 2
    # w.p. 0.3 and breaks down w.p. 0.2: two live outcomes in one action
    fail = 3
    model = from_rows(4, 0, ("try", "go"), [
        [Choice(0, ((1, 0.5), (2, 0.3), (fail, 0.2)), None)],
        [],
        [Choice(1, ((1, 1.0),), None)],
        [],
    ], atoms=("p1",), labels={1: frozenset({"p1"})}, failure_state=fail)
    team = build_team(local_products([model, model], Mission(tasks=(parse_formula("F p1"),), safety=None)))
    assert max_product_reach(team.mdp, team.accepting, team.violating) is None

    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("epsilon"))
        return max_reach(*args, **kwargs)

    rule = mdp_module._reach_policy
    policies = []

    def counted(*args):
        policies.append(rule(*args))
        return policies[-1]

    monkeypatch.setattr(team_module, "max_reach", spy)
    monkeypatch.setattr(mdp_module, "_reach_policy", counted)
    sol = solve_stapu(team, epsilon=1e-12)
    assert calls == [1e-12]
    assert len(policies) == 1  # the fallback reads its policy
    assert sol.value == pytest.approx(0.8, abs=TOL)
    assert sol.allocation == {0: 0}


@pytest.mark.parametrize("solve", [max_reach, max_product_reach])
@pytest.mark.parametrize("p", [1.0, 0.5])
def test_nearer_layer_then_lowest_action_wins(solve, p):
    # Every action at 0 has the value p * p: "far" (the lowest index)
    # reaches the target 2 in two steps of p through node 1, "near" and
    # "also_near" in one step of p * p. Outcomes not taken break down.
    fail = 3

    def step(t, q):
        return ((t, q), (fail, 1.0 - q)) if q < 1.0 else ((t, 1.0),)

    m = from_rows(4, 0, ("far", "near", "also_near"), [
        [Choice(0, step(1, p), None), Choice(1, step(2, p * p), None), Choice(2, step(2, p * p), None)],
        [Choice(0, step(2, p), None)],
        [],
        [],
    ], failure_state=fail)
    res = solve(m, {2})
    assert res.values[:2] == [p * p, p]
    assert res.policy[0] == 1
    assert res.policy[1] == 0
