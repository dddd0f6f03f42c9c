"""The joint solve sweeps one automaton-vector block at a time.

`solve_mamdp` hands `max_reach` each state's `Automata.ranks` rank and the
quantitative states are swept block by block, lowest rank first (topological
value iteration). It must give exactly what the one-block Jacobi solve
gives, which `test_mdp_oracle.py` pins against pure-Python references.
"""

import numpy as np
import pytest

from teamplan import baseline, mdp
from teamplan.baseline import build_mamdp, solve_mamdp
from teamplan.ltl import Mission, parse_formula
from teamplan.maps import gen_map, map_mission
from teamplan.mdp import Choice, DivergenceError, max_reach

from instances import graph_model
from rows import from_rows
from test_explorer import mamdp_cases
from test_golden_workloads import RECIPES


def recipe_mamdp(name):
    spec, _, joint_tasks, _, _ = RECIPES[name]
    model, mission = gen_map(spec), map_mission(spec)
    return build_mamdp([model, model], Mission(tasks=mission.tasks[:joint_tasks], safety=mission.safety))


def assert_blocked_equals_unblocked(mm, epsilon, label):
    _, blocked = solve_mamdp(mm, epsilon=epsilon)
    whole = max_reach(mm.mdp, mm.accepting, mm.violating, epsilon=epsilon)
    assert blocked.values == whole.values, label
    assert (blocked.almost_sure, blocked.zero) == (whole.almost_sure, whole.zero), label
    assert blocked.policy == whole.policy, label
    return blocked


def quantitative_ranks(mm, res):
    """The distinct ranks of the states of `res` outside its 0 and 1 regions."""
    ranks = mm.automata.ranks()[mm._vectors]
    return set(ranks[~(res.zero_mask | res.sure_mask)].tolist())


def test_blocked_solve_equals_unblocked_solve():
    blocked = 0
    for k, (models, mission) in enumerate(mamdp_cases()):
        mm = build_mamdp(models, mission)
        for epsilon in (1e-6, 1e-12):
            res = assert_blocked_equals_unblocked(mm, epsilon, (k, epsilon))
        blocked += len(quantitative_ranks(mm, res)) > 1
    for name in RECIPES:
        assert_blocked_equals_unblocked(recipe_mamdp(name), 1e-6, name)
    assert blocked >= 5, blocked


def test_max_sweeps_bounds_each_block(monkeypatch):
    mm = recipe_mamdp("joint-baseline")
    whole = max_reach(mm.mdp, mm.accepting, mm.violating)
    monkeypatch.setattr(mdp, "MAX_SWEEPS", 1)
    with pytest.raises(DivergenceError):
        solve_mamdp(mm)
    # no block needs more than 9 sweeps, the one-block solve 14
    monkeypatch.setattr(mdp, "MAX_SWEEPS", 9)
    _, res = solve_mamdp(mm)
    assert res.values == whole.values and res.iterations > whole.iterations > 9
    with pytest.raises(DivergenceError):
        max_reach(mm.mdp, mm.accepting, mm.violating)


def test_blocks_out_of_order_are_refused():
    # 0 moves to the sink 1 or the target 2: an outcome of rank 1 from a
    # quantitative state of rank 0
    m = from_rows(3, 0, ("go",), [[Choice(0, ((1, 0.5), (2, 0.5)), None)], [], []])
    res = max_reach(m, {2}, blocks=np.array([1, 0, 0]))
    assert res.values == max_reach(m, {2}).values == [0.5, 0.0, 1.0]
    with pytest.raises(ValueError, match="higher rank"):
        max_reach(m, {2}, blocks=np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        max_reach(m, {2}, blocks=np.array([0, 0]))


def test_ranks_of_a_cyclic_automaton():
    # F(a & X b) returns to its start on a then !a & !b: a robot stepping
    # from node 1 (a) back to node 0 (unlabelled) takes that cycle
    model = graph_model(3, [(0, 1), (1, 2)], failpoints={1}, pfail=0.3, atom_nodes={"a": 1, "b": 2})
    mm = build_mamdp([model, model], Mission(tasks=(parse_formula("F (a & X b)"),), safety=None))
    automata = mm.automata
    ranks = automata.ranks()
    start = automata.vector_id((automata.dfas[0].initial,))
    seen_a = automata.advance(start, automata.label_id(frozenset({"a"})))
    assert seen_a != start and automata.advance(seen_a, automata.label_id(frozenset())) == start
    assert ranks[start] == ranks[seen_a]
    known = np.argwhere(automata.table[:len(automata.vectors)] >= 0)
    assert len(known) and all(ranks[automata.table[v, label]] <= ranks[v] for v, label in known.tolist())
    # the joint model takes the cycle, and its quantitative states lie on it
    row_start, _, out_start, targets, _ = mm.mdp.arrays
    tails = np.repeat(np.arange(mm.num_states), np.diff(out_start[row_start]))
    assert ((mm._vectors[tails] == seen_a) & (mm._vectors[targets] == start)).any()
    res = assert_blocked_equals_unblocked(mm, 1e-12, "cyclic")
    assert quantitative_ranks(mm, res) == {ranks[start]}


def test_joint_baseline_solve_is_blocked(monkeypatch):
    """A deterministic check that `solve_mamdp` takes the blocked path:
    on the joint-baseline recipe the quantitative states span 7 ranks."""
    calls, solve = [], baseline.max_reach
    monkeypatch.setattr(baseline, "max_reach",
                        lambda m, *args, **kw: calls.append((m, kw.get("blocks"))) or solve(m, *args, **kw))
    mm = recipe_mamdp("joint-baseline")
    _, res = solve_mamdp(mm)
    [(solved, blocks)] = calls
    assert solved is mm.mdp and isinstance(blocks, np.ndarray) and blocks.shape == (mm.num_states,)
    assert len(set(blocks[~(res.zero_mask | res.sure_mask)].tolist())) == 7
