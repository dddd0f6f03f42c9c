"""Joint-model construction, sizes, and optimality against the planner."""

import copy

import numpy as np
import pytest

from teamplan import mdp as mdp_module
from teamplan.baseline import CeilingExceeded, build_mamdp, solve_mamdp
from teamplan.ltl import Mission, parse_formula
from teamplan.maps import gen_map, map_mission
from teamplan.mdp import Choice, max_reach
from teamplan.product import compile_mission, local_product
from teamplan.realloc import run_stapu_with_realloc

from instances import graph_model, guarded_tree_instance, random_team_instance
from rows import from_rows
from test_explorer import mamdp_cases
from test_golden_workloads import RECIPES
from test_mdp_oracle import reference_policy


def mission(*tasks, safety=None):
    return Mission(
        tasks=tuple(parse_formula(t) for t in tasks),
        safety=parse_formula(safety) if safety else None,
    )


def corridor(pfail=0.1):
    return graph_model(2, [(0, 1)], failpoints={0} if pfail > 0 else set(),
                       pfail=pfail, atom_nodes={"p1": 1})


def test_two_robot_retry_value():
    m = corridor()
    mm = build_mamdp([m, m], mission("F p1"))
    value, _ = solve_mamdp(mm, epsilon=1e-9)
    assert value == pytest.approx(0.99, abs=1e-9)
    assert any(name.startswith("idle|") or name.endswith("|idle") for name in mm.mdp.actions)


def test_policy_is_read_off_on_first_access(monkeypatch):
    rule = mdp_module._reach_policy
    calls = []

    def counted(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(mdp_module, "_reach_policy", counted)
    m = corridor(pfail=0.3)
    mm = build_mamdp([m, m], mission("F p1"))
    value, res = solve_mamdp(mm, epsilon=1e-9)
    again = max_reach(mm.mdp, mm.accepting, mm.violating, epsilon=1e-9)
    assert value == res.values[0] and again.values == res.values
    assert calls == []
    sure = set(again.almost_sure - mm.accepting)
    assert len(again.zero) + len(again.almost_sure) < mm.num_states  # a quantitative region
    policy = again.policy
    assert "choices" not in vars(mm.mdp)  # read over the arrays
    assert policy == reference_policy(mm.mdp, again.values, set(mm.accepting), sure)
    assert again.policy is again.policy
    assert len(calls) == 1


def test_single_robot_reduces_to_local_product():
    rng = np.random.default_rng(20240621)
    for _ in range(6):
        model, miss = random_team_instance(rng)
        mm = build_mamdp([model], miss)
        value, _ = solve_mamdp(mm, epsilon=1e-9)
        pm = local_product(model, miss)
        res = max_reach(pm.mdp, pm.accepting, pm.violating, epsilon=1e-9)
        assert mm.num_states == pm.num_states
        assert value == pytest.approx(res.values[0], abs=1e-12)


def test_full_size_formulas():
    m = corridor()
    mm = build_mamdp([m, m], mission("F p1"))
    # two map nodes per robot (failure state excluded), one 2-state automaton
    assert mm.full_size() == 2 * 2 * 2 == 8
    assert compile_mission(mission("F p1")).unpruned_size([m, m]) == 8

    free = from_rows(2, 0, ("go",), [
        [Choice(0, ((1, 1.0),), None)],
        [],
    ], atoms=("p1",), labels={1: frozenset({"p1"})})
    assert compile_mission(mission("F p1")).unpruned_size([free, free]) == 2 * 2 * 2

    # the 2-state safety automaton is one more factor
    guarded = build_mamdp([m, m], mission("F p1", safety="G !p1"))
    assert guarded.full_size() == 8 * 2


def test_pre_satisfied_mission():
    m = graph_model(2, [(0, 1)], failpoints=set(), pfail=0.0, atom_nodes={"p1": 0})
    value, _ = solve_mamdp(build_mamdp([m, m], mission("F p1")), epsilon=1e-9)
    assert value == 1.0


def test_unreachable_atom():
    m = graph_model(3, [(0, 1)], failpoints=set(), pfail=0.0, atom_nodes={"p1": 2})
    value, _ = solve_mamdp(build_mamdp([m, m], mission("F p1")), epsilon=1e-9)
    assert value == 0.0


def test_ceiling_refusal():
    m = corridor()
    with pytest.raises(CeilingExceeded) as err:
        build_mamdp([m, m, m, m], mission("F p1"), ceiling=10)
    assert err.value.size == 3 ** 4 * 2
    assert "10" in str(err.value)


def test_replanning_matches_joint_optimum_on_guarded_maps():
    rng = np.random.default_rng(20240622)
    for i in range(10):
        model, miss = guarded_tree_instance(rng)
        _, report = run_stapu_with_realloc([model, model], miss, epsilon=1e-9)
        mm = build_mamdp([model, model], miss)
        joint, _ = solve_mamdp(mm, epsilon=1e-9)
        assert report.value == pytest.approx(joint, abs=1e-6), (
            f"instance {i}: replanned {report.value} vs joint {joint}"
        )


def test_joint_value_bounds_replanning_everywhere():
    rng = np.random.default_rng(20240623)
    for i in range(8):
        model, miss = random_team_instance(rng)
        _, report = run_stapu_with_realloc([model, model], miss, epsilon=1e-9)
        joint, _ = solve_mamdp(build_mamdp([model, model], miss), epsilon=1e-9)
        assert report.value <= joint + 1e-6, f"instance {i}"


def shared_model_teams():
    """The `mamdp_cases()` teams in which robots share a model object, and
    each workload recipe's two-robot team on its joint mission."""
    teams = [(models, mission) for models, mission in mamdp_cases() if len({id(m) for m in models}) < len(models)]
    for spec, _, joint_tasks, _, _ in RECIPES.values():
        model, full = gen_map(spec), map_mission(spec)
        teams.append(([model, model], Mission(tasks=full.tasks[:joint_tasks], safety=full.safety)))
    return teams


def test_swap_quotient_solves_as_the_whole_model():
    """A team whose robots share a model is solved up to robot swaps; the
    same team with every robot after the first a copy of its model (a
    distinct object, so nothing is swapped) is the whole joint model. At
    every state of the quotient the values are bit-equal, the sweeps are
    as many, and the quotient's states and transitions weighted by orbit
    size are the whole model's."""
    sizes = set()
    for k, (models, mission) in enumerate(shared_model_teams()):
        unshared = [models[0]] + [copy.copy(m) for m in models[1:]]
        mm, whole = build_mamdp(models, mission), build_mamdp(unshared, mission)
        (_, res), (_, whole_res) = solve_mamdp(mm), solve_mamdp(whole)
        index = {key: i for i, key in enumerate(whole.states)}
        at = [index[key] for key in mm.states]
        assert mm.states[0] == whole.states[0] and mm.num_states < whole.num_states, k
        assert res.values == [whole_res.values[i] for i in at], k
        assert res.iterations == whole_res.iterations, k
        assert mm.unreduced_size() == whole.unreduced_size() == (whole.num_states, whole.mdp.transition_count()), k
        sizes.add(len(models))
    assert k == 19 and sizes == {2, 3}
