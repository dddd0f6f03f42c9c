"""The team model's solve on seeded, mixed-map and hand-built teams.

`solve_stapu` solves the team model (`TeamMdp.mdp`) with
`max_product_reach`, or with `max_reach` when some choice has two live
outcomes. Here its values must match value iteration on the same model,
its policy the reference rule of `test_mdp_oracle`, and its plan the walk
of that rule's policy.
"""

import numpy as np
import pytest

from teamplan.ltl import Mission, parse_formula
from teamplan.mdp import Choice, max_product_reach, max_reach
from teamplan.product import compile_mission, local_product, local_products
from teamplan.team import _walk_success_path, build_team, solve_stapu

from rows import from_rows
from test_max_product import SEED, team_models
from test_mdp_oracle import reference_policy
from test_team import mixed_team_instance


def mixed_teams(rng, count):
    """Teams of robots on maps of their own (one-way edges, hazards), each
    built at the initial entries and once more as a replan from random
    entries, start robot and vector, the start robot failed on half of
    them: switch targets then extend products beyond their initial part."""
    teams = []
    for _ in range(count):
        models, miss = mixed_team_instance(rng)
        shared = compile_mission(miss)
        products = [local_product(m, miss, automata=shared) for m in models]
        teams.append(build_team(products))
        start = int(rng.integers(0, len(models)))
        entries = [int(rng.integers(0, m.num_states - 1)) for m in models]
        failed = {start} if rng.random() < 0.5 else set()
        if failed:
            entries[start] = models[start].failure_state
        start_q = products[start].states[int(rng.integers(0, products[start].num_states))][1]
        teams.append(build_team(products, entries=entries, start_robot=start, start_q=start_q, failed=failed))
    return teams


def assert_matches_oracle(team, label):
    """The solve against value iteration and the reference policy rule.
    Returns whether the solve fell back to value iteration."""
    vi = max_reach(team.mdp, team.accepting, team.violating, epsilon=1e-12)
    res = max_product_reach(team.mdp, team.accepting, team.violating)
    fallback = res is None
    if fallback:
        res = vi
    sol = solve_stapu(team, epsilon=1e-12)
    assert sol.value == res.values[0], label
    for k in range(team.num_states):
        assert res.values[k] == pytest.approx(vi.values[k], abs=1e-9), (label, k)
    assert "choices" not in vars(team.mdp)  # the solvers run over the arrays
    sure = set(res.almost_sure) - team.accepting
    rule = reference_policy(team.mdp, res.values, set(team.accepting), sure)
    assert res.policy == rule, label
    expected = _walk_success_path(team, rule)
    assert (sol.allocation, sol.unallocated, sol.segments, sol.switches, sol.programs) == expected, label
    return fallback


def test_solve_stapu_matches_value_iteration_on_seeded_teams():
    teams = team_models(np.random.default_rng(SEED + 2), 40, max_nodes=8, max_tasks=3)
    assert any(t.failed for t in teams) and any(t.start_robot != 0 for t in teams)
    assert any(t.start_q != t.automata.vectors[t.automata.start([t.products[t.start_robot].source],
                                                                [t.entries[t.start_robot]])] for t in teams)
    for n, team in enumerate(teams):
        assert not assert_matches_oracle(team, f"team {n}")


def test_solve_stapu_matches_value_iteration_on_mixed_maps():
    rng = np.random.default_rng(20261020)
    extended = 0
    for n, team in enumerate(mixed_teams(rng, 60)):
        assert not assert_matches_oracle(team, f"team {n}")
        extended += any(len(p.states) > p.num_states for p in team.products)
    assert extended >= 40, extended


def two_atoms():
    return Mission(tasks=(parse_formula("F p1"), parse_formula("F p2")), safety=None)


def test_value_through_the_switch_of_a_map_sink():
    # Robot 0 can only do p1, by moving into node 1, a dead end that is not
    # its failure state; robot 1 can only do p2 (w.p. 0.8). The sink is
    # absorbing in robot 0's product, but robot 0 hands over there, so its
    # value 0.8 comes through the switch alone.
    fail = 2
    sink = from_rows(3, 0, ("go",), [[Choice(0, ((1, 1.0),), None)], [], []],
                     atoms=("p1", "p2"), labels={1: {"p1"}}, failure_state=fail)
    risky = from_rows(3, 0, ("go",), [[Choice(0, ((1, 0.8), (fail, 0.2)), None)], [], []],
                      atoms=("p1", "p2"), labels={1: {"p2"}}, failure_state=fail)
    team = build_team(local_products([sink, risky], two_atoms()))
    sol = solve_stapu(team)
    assert sol.value == 0.8
    assert sol.allocation == {0: 0, 1: 1}
    assert [(sw["from_robot"], sw["to_robot"], sw["state"]["s"]) for sw in sol.switches] == [(0, 1, 1)]
    assert [step[3] for step in sol.programs[0]] == ["go"]
    assert_matches_oracle(team, "sink")


def test_value_through_the_switch_of_a_looping_sink():
    # As above, but node 1 has a self-loop action, as model files write
    # absorbing states. Live in robot 0's block because robot 0 hands over
    # there, the loop is an edge into the sink itself, which neither
    # raises its value nor picks its action.
    fail = 2
    loop = [Choice(0, ((1, 1.0),), None)]
    sink = from_rows(3, 0, ("go",), [[Choice(0, ((1, 1.0),), None)], loop, []],
                     atoms=("p1", "p2"), labels={1: {"p1"}}, failure_state=fail)
    risky = from_rows(3, 0, ("go",), [[Choice(0, ((1, 0.8), (fail, 0.2)), None)], [], []],
                      atoms=("p1", "p2"), labels={1: {"p2"}}, failure_state=fail)
    team = build_team(local_products([sink, risky], two_atoms()))
    sol = solve_stapu(team)
    assert sol.value == 0.8
    assert sol.allocation == {0: 0, 1: 1}
    assert [(sw["from_robot"], sw["to_robot"], sw["state"]["s"]) for sw in sol.switches] == [(0, 1, 1)]
    assert_matches_oracle(team, "looping sink")


def test_failed_robot_hands_over_from_a_looping_failure_state():
    # Robot 0 failed and sits at its failure state, which has a self-loop:
    # a sink where it hands over, so the task goes to robot 1 (w.p. 0.9).
    fail = 2
    weak = from_rows(3, 0, ("try",),
                     [[Choice(0, ((1, 0.5), (fail, 0.5)), None)], [], [Choice(0, ((fail, 1.0),), None)]],
                     atoms=("p1",), labels={1: {"p1"}}, failure_state=fail)
    strong = from_rows(3, 0, ("try",), [[Choice(0, ((1, 0.9), (fail, 0.1)), None)], [], []],
                       atoms=("p1",), labels={1: {"p1"}}, failure_state=fail)
    miss = Mission(tasks=(parse_formula("F p1"),), safety=None)
    team = build_team(local_products([weak, strong], miss), entries=[fail, 0], failed={0})
    sol = solve_stapu(team)
    assert sol.value == 0.9
    assert sol.allocation == {0: 1}
    assert [(sw["from_robot"], sw["to_robot"], sw["state"]["s"]) for sw in sol.switches] == [(0, 1, fail)]
    assert_matches_oracle(team, "looping failure state")


def test_failure_state_of_a_failed_robot_is_live():
    # Robot 0 failed but sits at node 0, and may hand over from its failure
    # state: its "try" splits between the task node and that live failure
    # state, two live outcomes, so the exact solve must decline and value
    # iteration gives 0.5 + 0.5 * 0.9.
    fail = 2
    weak = from_rows(3, 0, ("try",), [[Choice(0, ((1, 0.5), (fail, 0.5)), None)], [], []],
                     atoms=("p1",), labels={1: {"p1"}}, failure_state=fail)
    strong = from_rows(3, 0, ("try",), [[Choice(0, ((1, 0.9), (fail, 0.1)), None)], [], []],
                       atoms=("p1",), labels={1: {"p1"}}, failure_state=fail)
    miss = Mission(tasks=(parse_formula("F p1"),), safety=None)
    team = build_team(local_products([weak, strong], miss), failed={0})
    assert max_product_reach(team.mdp, team.accepting, team.violating) is None
    assert solve_stapu(team, epsilon=1e-12).value == pytest.approx(0.95, abs=1e-9)
    assert assert_matches_oracle(team, "live failure state")


def test_ties_break_on_team_action_indices():
    # The team numbers actions a, b, c in robot 0's order. Robot 1 lists
    # them as c, b, a; at its entry "b" and "c" both reach the task in one
    # step, "a" does not. The lowest team index wins: "b", where robot 1's
    # own order would pick "c".
    mover = from_rows(2, 0, ("a", "b", "c"), [[Choice(0, ((1, 1.0),), None)], [Choice(1, ((0, 1.0),), None)]],
                      atoms=("p1",))
    tied = from_rows(4, 0, ("c", "b", "a"), [
        [Choice(0, ((1, 1.0),), None), Choice(1, ((2, 1.0),), None), Choice(2, ((3, 1.0),), None)],
        [], [], [Choice(2, ((0, 1.0),), None)],
    ], atoms=("p1",), labels={1: {"p1"}, 2: {"p1"}})
    miss = Mission(tasks=(parse_formula("F p1"),), safety=None)
    team = build_team(local_products([mover, tied], miss))
    assert team.action_map == [[0, 1, 2], [2, 1, 0]]
    sol = solve_stapu(team)
    assert sol.value == 1.0
    assert sol.allocation == {0: 1}
    assert sol.programs[1] == [(0, 2, 0, "b")]
    assert_matches_oracle(team, "ties")
