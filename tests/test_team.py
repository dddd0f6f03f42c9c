"""Team construction, switch semantics, allocation, and the allocation oracle."""

import itertools
import json
import math
import sys
import types

import numpy as np
import pytest

from teamplan.baseline import build_mamdp, solve_mamdp
from teamplan.ltl import Mission, parse_formula
from teamplan.maps import MapSpec, gen_map, map_mission
from teamplan.mdp import AVOID, LIVE, TARGET, Choice, Mdp, _frontier, load_model, max_reach, save_model, validate
from teamplan import product
from teamplan.product import ProductMdp, compile_mission, local_product, local_products
from teamplan.realloc import run_stapu_with_realloc
from teamplan.team import (
    SWITCH,
    TeamError,
    TeamMdp,
    build_team,
    check_class,
    solve_stapu,
)

from exhaustive import enumerate_best
from instances import graph_model, random_connected_edges, random_team_instance
from rows import from_rows
from test_golden_workloads import RECIPES


def mission(*tasks, safety=None):
    return Mission(
        tasks=tuple(parse_formula(t) for t in tasks),
        safety=parse_formula(safety) if safety else None,
    )


def corridor(success, atom="p1", extra_atoms=()):
    """0 --go--> 1 (atom) with failure probability 1-success."""
    edges = [(0, 1)]
    model = graph_model(2, edges, failpoints={0} if success < 1.0 else set(),
                        pfail=1.0 - success, atom_nodes={atom: 1})
    if extra_atoms:
        model.atoms = tuple(sorted(set(model.atoms) | set(extra_atoms)))
    return model


def team_for(models, miss, **kw):
    shared = compile_mission(miss)
    products = [local_product(m, miss, automata=shared) for m in models]
    return build_team(products, **kw)


def test_single_task_two_identical_robots():
    m = corridor(0.9)
    team = team_for([m, m], mission("F p1"))
    sol = solve_stapu(team, epsilon=1e-9)
    assert sol.value == pytest.approx(0.9, abs=1e-9)
    assert sol.allocation == {0: 0}
    assert sol.unallocated == ()
    assert sol.switches == []


def test_allocation_prefers_capable_robot():
    weak, strong = corridor(0.5), corridor(0.9)
    sol = solve_stapu(team_for([weak, strong], mission("F p1")), epsilon=1e-9)
    assert sol.value == pytest.approx(0.9, abs=1e-9)
    assert sol.allocation == {0: 1}
    assert len(sol.switches) == 1
    assert sol.switches[0]["from_robot"] == 0 and sol.switches[0]["to_robot"] == 1

    rev = solve_stapu(team_for([strong, weak], mission("F p1")), epsilon=1e-9)
    assert rev.value == pytest.approx(0.9, abs=1e-9)
    assert rev.allocation == {0: 0}
    assert rev.switches == []


def test_two_tasks_split_across_robots():
    a = corridor(1.0, atom="p1", extra_atoms=("p2",))
    b = corridor(1.0, atom="p2", extra_atoms=("p1",))
    sol = solve_stapu(team_for([a, b], mission("F p1", "F p2")), epsilon=1e-9)
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert sol.allocation == {0: 0, 1: 1}
    assert len(sol.switches) == 1


def test_full_size_is_sum_of_products():
    m = graph_model(3, [(0, 1), (1, 2)], failpoints={1}, pfail=0.1,
                    atom_nodes={"p1": 1, "p2": 2})
    team = team_for([m, m], mission("F p1", "F p2"))
    # identical robots: n * |S| * 2^m with the failure state not counted
    assert team.full_size() == 2 * 3 * 2 ** 2 == 24
    assert team.full_size() == sum(p.full_size() for p in team.products)


def team_states(team):
    """(robot, map state, automaton vector) of every team state."""
    return [(robot, *team.products[robot].states[i]) for robot, states in team.blocks for i in states.tolist()]


def test_switch_preserves_vector_and_targets_entry():
    m = graph_model(4, [(0, 1), (1, 2), (2, 3)], failpoints={1}, pfail=0.2,
                    atom_nodes={"p1": 2, "p2": 3})
    team = team_for([m, m], mission("F p1", "F p2"))
    states = team_states(team)
    switch_edges = 0
    for i, row in enumerate(team.mdp.choices):
        robot, s, q = states[i]
        for c in row:
            if c.action != team.switch_action:
                continue
            switch_edges += 1
            assert c.outcomes[0][1] == 1.0
            j = c.outcomes[0][0]
            robot2, s2, q2 = states[j]
            assert robot2 == (robot + 1) % 2
            assert s2 == team.entries[robot2]
            assert q2 == q
    assert switch_edges > 0


def test_switch_blocked_at_failure_state():
    m = corridor(0.5)
    team = team_for([m, m], mission("F p1"))
    hit = [i for i, (_, s, _) in enumerate(team_states(team)) if s == m.failure_state]
    assert hit
    for i in hit:
        assert all(c.action != team.switch_action for c in team.mdp.choices[i])


def test_switch_target_rule():
    m = graph_model(4, [(0, 1), (1, 2), (2, 3)], failpoints={1}, pfail=0.2, atom_nodes={"p1": 2, "p2": 3})
    team = team_for([m, m, m], mission("F (p1 & F p2)"))
    task = team.automata.tasks[0]
    states = team_states(team)
    kinds = set()
    for i, (robot, s, q) in enumerate(states):
        switches = [c.outcomes for c in team.mdp.choices[i] if c.action == team.switch_action]
        if robot == 2:
            kind = "end of ring"  # the next robot is the start robot
        elif s == m.failure_state:
            kind = "failure state"
        elif q[0] != task.initial and q[0] not in task.accepting:
            kind = "mid-task"
        else:
            kind = "switch"
            assert switches == [((switches[0][0][0], 1.0),)], (robot, s, q)
            assert states[switches[0][0][0]] == (robot + 1, team.entries[robot + 1], q)
        kinds.add(kind)
        assert bool(switches) == (kind == "switch"), (robot, s, q)
    assert kinds == {"end of ring", "failure state", "mid-task", "switch"}
    # a robot listed as failed hands its tasks on from its failure state
    fail = m.failure_state
    team = team_for([m, m, m], mission("F (p1 & F p2)"), entries=[fail, 0, 0], failed=(0,))
    states = team_states(team)
    assert states[0][:2] == (0, fail)
    switches = [c.outcomes for c in team.mdp.choices[0] if c.action == team.switch_action]
    assert len(switches) == 1 and states[switches[0][0][0]] == (1, 0, states[0][2])


def test_removing_switches_never_increases_value():
    weak, strong = corridor(0.5), corridor(0.9)
    team = team_for([weak, strong], mission("F p1"))
    full = max_reach(team.mdp, team.accepting, team.violating, epsilon=1e-9).values[0]
    stripped_rows = [[c for c in row if c.action != team.switch_action]
                     for row in team.mdp.choices]
    stripped = from_rows(team.mdp.num_states, 0, team.mdp.actions, stripped_rows)
    alone = max_reach(stripped, team.accepting, team.violating, epsilon=1e-9).values[0]
    assert alone <= full + 1e-9
    assert alone == pytest.approx(0.5, abs=1e-9)
    assert full == pytest.approx(0.9, abs=1e-9)


def test_single_robot_team_matches_local_product():
    m = graph_model(4, [(0, 1), (1, 2), (2, 3)], failpoints={1}, pfail=0.3,
                    atom_nodes={"p1": 3})
    miss = mission("F p1")
    pm = local_product(m, miss)
    local = max_reach(pm.mdp, pm.accepting, pm.violating, epsilon=1e-9).values[0]
    sol = solve_stapu(team_for([m], miss), epsilon=1e-9)
    assert sol.value == pytest.approx(local, abs=1e-9)


def test_check_class():
    ok = graph_model(3, [(0, 1), (1, 2)], failpoints={0}, pfail=0.1, atom_nodes={"p1": 2})
    assert check_class(ok)
    deterministic = graph_model(3, [(0, 1), (1, 2)], failpoints=set(), pfail=0.0, atom_nodes={"p1": 2})
    assert check_class(deterministic)
    bad = from_rows(3, 0, ("a",), [
        [Choice(0, ((1, 0.5), (2, 0.5)), None)],
        [],
        [],
    ], failure_state=None)
    assert not check_class(bad)
    # the failure state moves on to the task node: the team model prices a
    # breakdown as a detour (value 1) that no robot executes
    moving_failure = from_rows(3, 0, ("go",), [
        [Choice(0, ((1, 0.5), (2, 0.5)), None)],
        [],
        [Choice(0, ((1, 1.0),), None)],
    ], atoms=("p1",), labels={1: frozenset({"p1"})}, failure_state=2)
    assert not check_class(moving_failure)
    assert solve_stapu(team_for([moving_failure], mission("F p1"))).value == 1.0


def test_segment_actions_enabled_locally():
    weak, strong = corridor(0.5), corridor(0.9)
    sol = solve_stapu(team_for([weak, strong], mission("F p1")), epsilon=1e-9)
    models = [weak, strong]
    for seg in sol.segments:
        src = models[seg["robot"]]
        for step in seg["choices"]:
            s = step["state"]["s"]
            names = [src.actions[c.action] for c in src.choices[s]]
            assert step["action"] in names


def test_team_build_errors():
    m = corridor(0.9)
    p = local_product(m, mission("F p1"))
    with pytest.raises(TeamError):
        build_team([])
    with pytest.raises(TeamError):
        build_team([p], entries=[0, 1])
    with pytest.raises(TeamError):
        build_team([p], entries=[99])
    other = local_product(corridor(0.9, atom="p1"), mission("F p1", safety="G !p1"))
    with pytest.raises(TeamError):
        build_team([p, other])
    reserved = from_rows(1, 0, ("switch",), [[]], atoms=("x",))
    with pytest.raises(TeamError):
        build_team([local_product(reserved, Mission(tasks=(parse_formula("F x"),), safety=None))])


def test_team_products_share_one_compilation():
    # vector ids number the vectors of one `Automata`: products compiled
    # apart may give one vector two ids, so they cannot form a team
    m, miss = corridor(0.9), mission("F p1")
    with pytest.raises(TeamError, match="robot 1"):
        build_team([local_product(m, miss), local_product(m, miss)])
    shared = compile_mission(miss)
    assert build_team([local_product(m, miss, automata=shared), local_product(m, miss, automata=shared)])


def eq1_best(models, miss, epsilon=1e-9):
    """Brute-force Eq.-style oracle: best over every task-to-robot map of
    the product of independent single-robot solves."""
    m = len(miss.tasks)
    best = 0.0
    for assignment in itertools.product(range(len(models)), repeat=m):
        prob = 1.0
        for r, model in enumerate(models):
            subset = tuple(miss.tasks[k] for k in range(m) if assignment[k] == r)
            if not subset:
                continue
            pm = local_product(model, Mission(tasks=subset, safety=miss.safety))
            prob *= max_reach(pm.mdp, pm.accepting, pm.violating, epsilon=epsilon).values[0]
        best = max(best, prob)
    return best


def test_team_value_matches_allocation_oracle():
    rng = np.random.default_rng(20240618)
    for i in range(12):
        model, miss = random_team_instance(rng)
        sol = solve_stapu(team_for([model, model], miss), epsilon=1e-9)
        expected = eq1_best([model, model], miss)
        assert sol.value == pytest.approx(expected, abs=1e-6), (
            f"instance {i}: team {sol.value} vs allocation oracle {expected}"
        )


def one_way(model):
    """`model` without the moves into its initial state: a robot that
    leaves never comes back, so a team that enters it with tasks already
    done needs product states its own exploration never reached."""
    choices = [[c for c in row if c.outcomes[0][0] != model.initial] for row in model.choices]
    return from_rows(model.num_states, model.initial, model.actions, choices, atoms=model.atoms,
                     labels=model.labels, failure_state=model.failure_state)


def mixed_team_instance(rng):
    """2-3 robots on maps of their own: some one-way, some missing a task
    atom, with a hazard to avoid on half of the missions."""
    tasks = [f"p{k + 1}" for k in range(int(rng.integers(1, 3)))]
    hazard = ["h"] if rng.random() < 0.5 else []
    models = []
    for _ in range(int(rng.integers(2, 4))):
        nodes = int(rng.integers(3, 6))
        edges = random_connected_edges(rng, nodes, extra=int(rng.integers(0, 2)))
        placed = {a: int(rng.integers(1, nodes)) for a in tasks + hazard if rng.random() < 0.8}
        model = graph_model(nodes, edges, failpoints={int(rng.integers(1, nodes))},
                            pfail=float(rng.uniform(0.05, 0.35)), atom_nodes=placed)
        model.atoms = tuple(tasks + hazard)
        models.append(one_way(model) if rng.random() < 0.6 else model)
    return models, mission(*(f"F {a}" for a in tasks), safety="G !h" if hazard else None)


def reference_team(products, entries, start_robot, start_q, failed):
    """States, rows (action names), accepting and violating sets of the
    team model by breadth-first search over (robot, s, q), every vector
    stepped component by component (`Dfa.advance`)."""
    automata = products[0].automata
    states = [(start_robot, entries[start_robot], start_q)]
    index = {states[0]: 0}

    def step(q, label):
        return tuple(d.advance(x, label) for d, x in zip(automata.dfas, q))

    def intern(key):
        if key not in index:
            index[key] = len(states)
            states.append(key)
        return index[key]

    rows = []
    while len(rows) < len(states):
        i = len(rows)
        robot, s, q = states[i]
        src = products[robot].source
        violating = automata.violating(q)
        row = []
        for c in src.choices[s]:
            if violating:
                row.append((src.actions[c.action], ((i, 1.0),), None))
            else:
                outs = tuple((intern((robot, t, step(q, src.label(t)))), p) for t, p in c.outcomes)
                row.append((src.actions[c.action], outs, c.cost))
        nxt = (robot + 1) % len(products)
        if (not violating and nxt != start_robot and (s != src.failure_state or robot in failed)
                and automata.switchable(q)):
            row.append((SWITCH, ((intern((nxt, entries[nxt], q)), 1.0),), None))
        rows.append(row)
    accepting = frozenset(i for i, (_, _, q) in enumerate(states) if automata.accepting(q))
    violating = frozenset(i for i, (_, _, q) in enumerate(states) if automata.violating(q))
    return states, rows, accepting, violating


def rows_by_key(keys, rows):
    """Rows of (action name, outcomes, cost) by the key of their state,
    with each successor named by its key."""
    return {keys[k]: [(a, tuple((keys[t], p) for t, p in outs), cost) for a, outs, cost in row]
            for k, row in enumerate(rows)}


def csr_prefix(arrays, size):
    """The CSR arrays of states 0..size-1, as lists."""
    row_start, actions, out_start, targets, probs = arrays
    k = row_start[size]
    o = out_start[k]
    return [a.tolist() for a in (row_start[:size + 1], actions[:k], out_start[:k + 1], targets[:o], probs[:o])]


def test_team_extends_products_without_changing_them():
    rng = np.random.default_rng(20261019)
    extended = enumerated = 0
    for n in range(60):
        models, miss = mixed_team_instance(rng)
        shared = compile_mission(miss)
        products = [local_product(m, miss, automata=shared) for m in models]
        before = [(pm.num_states, list(pm.states), csr_prefix(pm.arrays, pm.num_states), pm.accepting,
                   pm.violating) for pm in products]
        # a replan: robots mid-map, another start robot (failed on half
        # of them) and a mid-mission automaton vector
        start = int(rng.integers(0, len(models)))
        entries = [int(rng.integers(0, m.num_states - 1)) for m in models]
        failed = {start} if rng.random() < 0.5 else set()
        if failed:
            entries[start] = models[start].failure_state
        start_q = products[start].states[int(rng.integers(0, products[start].num_states))][1]
        builds = [{}, {"entries": entries, "start_robot": start, "start_q": start_q, "failed": failed}]
        for kw in builds:
            team = build_team(products, **kw)
            states, rows, accepting, violating = reference_team(
                products,
                kw.get("entries", [m.initial for m in models]),
                team.start_robot,
                team.start_q,
                team.failed,
            )
            # the same states by (robot, s, q), numbered block after block
            keys = team_states(team)
            assert team.num_states == len(keys) == len(set(keys)) and set(keys) == set(states), f"instance {n}"
            assert keys[0] == states[0], f"instance {n}"
            team_rows = [[(team.mdp.actions[c.action], c.outcomes, c.cost) for c in row] for row in team.mdp.choices]
            assert rows_by_key(keys, team_rows) == rows_by_key(states, rows), f"instance {n}"
            # `choices` reads values only; a wider column would grow every replan's team model
            assert [a.dtype for a in team.mdp.arrays] == [np.int64, np.int32, np.int64, np.int32, np.float64], \
                f"instance {n}"
            assert ({keys[k] for k in team.accepting}, {keys[k] for k in team.violating}) == (
                {states[k] for k in accepting}, {states[k] for k in violating}), f"instance {n}"
            assert [(s, shared.vectors[v]) for s, v in zip(team.map_states.tolist(), team.vector_ids.tolist())] == [
                key[1:] for key in keys], f"instance {n}"
            if math.prod(max(1, len(row)) for row in team.mdp.choices) <= 4000:
                best = enumerate_best(team.mdp, team.accepting, team.violating)
                assert solve_stapu(team).value == pytest.approx(best[0], abs=1e-9), f"instance {n}"
                enumerated += 1
        for pm, (size, keys, prefix, acc, vio) in zip(products, before):
            assert pm.num_states == pm.mdp.num_states == size == len(keys)
            assert pm.states[:size] == keys
            assert len(pm.arrays.row_start) == len(pm.states) + 1
            assert csr_prefix(pm.arrays, size) == prefix
            columns = [(s, shared.vectors[v]) for s, v in zip(pm.map_states.tolist(), pm.vector_ids.tolist())]
            assert columns == pm.states and columns[:size] == keys
            assert pm.classes.tolist() == [AVOID if shared.violating(q) else TARGET if shared.accepting(q) else LIVE
                                           for _, q in pm.states]
            assert csr_prefix(pm.mdp.arrays, size) == prefix
            assert (pm.accepting, pm.violating) == (acc, vio)
            extended += len(pm.states) > size
    assert extended >= 50 and enumerated >= 40, (extended, enumerated)


def fresh_closure(pm, roots):
    """The states reachable from `roots` over the product's current
    arrays: the roots, then each breadth-first layer in state order."""
    row_start, _, out_start, targets, _ = pm.arrays
    reached = np.zeros(len(row_start) - 1, bool)
    reached[list(roots)] = True
    layers = [layer.tolist() for _, layer in _frontier((out_start[row_start], targets), reached)]
    return [*roots, *itertools.chain.from_iterable(layers)]


def test_closure_memo_survives_product_extension():
    rng = np.random.default_rng(20261020)
    extended = checked = 0
    for n in range(40):
        models, miss = mixed_team_instance(rng)
        shared = compile_mission(miss)
        products = [local_product(m, miss, automata=shared) for m in models]
        build_team(products)
        memo = [{key: pm.closure(np.array(key)) for key in pm._closures} for pm in products]
        for model, pm in zip(models, products):
            known = set(pm.states)
            root = next(((s, q) for _, q in pm.states for s in range(model.num_states) if (s, q) not in known), None)
            if root is not None:
                pm.explore(root[0], shared.vector_id(root[1]))
                extended += len(pm.states) > len(known)
        for pm, closures in zip(products, memo):
            for key, states in closures.items():
                assert pm.closure(np.array(key)) is states, f"instance {n}"
                assert not states.flags.writeable
                assert states.tolist() == fresh_closure(pm, key), f"instance {n}"
                checked += 1
    assert extended >= 20 and checked >= 80, (extended, checked)


def test_closure_computed_once_per_product_and_roots(monkeypatch):
    calls, computed = [], []
    closure, compute = ProductMdp.closure, product._closure

    def spy_closure(pm, roots):
        calls.append((id(pm), tuple(roots.tolist())))
        return closure(pm, roots)

    def spy_compute(pm, roots):
        computed.append((id(pm), tuple(roots.tolist())))
        return compute(pm, roots)

    monkeypatch.setattr(ProductMdp, "closure", spy_closure)
    monkeypatch.setattr(product, "_closure", spy_compute)
    spec, robots, _, guarantee, reallocations = RECIPES["realloc-wide"]
    _, report = run_stapu_with_realloc([gen_map(spec)] * robots, map_mission(spec))
    assert (report.value, report.reallocations) == (guarantee, reallocations)
    assert len(computed) == len(set(computed)) and set(computed) == set(calls)
    assert len(calls) > len(computed), (len(calls), len(computed))


def test_planning_builds_no_state_tuples(monkeypatch):
    """Team builds, solves and reallocation read the products' numpy
    columns only, also where a switch or a replan extends a product."""

    def refuse(pm):
        raise AssertionError("planning read ProductMdp.states")

    monkeypatch.setattr(ProductMdp, "states", property(refuse))
    rng = np.random.default_rng(20261019)
    extended = replans = 0
    for _ in range(30):
        models, miss = mixed_team_instance(rng)
        shared = compile_mission(miss)
        products = [local_product(m, miss, automata=shared) for m in models]
        solve_stapu(build_team(products))
        extended += any(len(pm.map_states) > pm.num_states for pm in products)
        replans += run_stapu_with_realloc(models, miss)[1].reallocations
    assert extended >= 15 and replans >= 5, (extended, replans)


def test_vectors_cross_as_ids(monkeypatch):
    """Team and joint builds pass automaton vectors as `Automata` ids:
    no vector tuple is numbered from outside `Automata`, also where a
    switch extends a product, and a replan's team converts its `start_q`
    once."""
    inside, todo = set(), [f.__code__ for f in vars(product.Automata).values() if hasattr(f, "__code__")]
    while todo:  # the methods and the comprehensions in them
        code = todo.pop()
        inside.add(code)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    callers = []
    vector_id = product.Automata.vector_id

    def recording_vector_id(self, qvec):
        callers.append(sys._getframe(1).f_code)
        return vector_id(self, qvec)

    def outside(build, *args, **kwargs):
        callers.clear()
        build(*args, **kwargs)
        return [c for c in callers if c not in inside]

    monkeypatch.setattr(product.Automata, "vector_id", recording_vector_id)
    rng = np.random.default_rng(20261019)
    extended = 0
    for n in range(30):
        models, miss = mixed_team_instance(rng)
        shared = compile_mission(miss)
        products = [local_product(m, miss, automata=shared) for m in models]
        assert outside(build_team, products) == [], n
        extended += any(len(pm.map_states) > pm.num_states for pm in products)
        start = int(rng.integers(0, len(models)))
        entries = [int(rng.integers(0, m.num_states)) for m in models]
        start_q = shared.vectors[int(rng.choice(products[start].vector_ids))]
        assert outside(build_team, products, entries=entries, start_robot=start, start_q=start_q) == [
            TeamMdp.__init__.__code__], n
        assert outside(build_mamdp, models, miss) == [], n
    assert extended >= 15, extended


def test_source_paths_read_no_rows(monkeypatch, tmp_path):
    """Models are generated, loaded, checked, saved, composed, solved
    jointly and planned with reallocation on their arrays, a model file's
    costs included: no path reads the `Mdp.choices` view."""

    def refuse(mdp):
        raise AssertionError("a source path read Mdp.choices")

    monkeypatch.setattr(Mdp, "choices", property(refuse))
    spec = MapSpec(nodes=8, failpoints=3, pfail=0.2, tasks=2, hazards=1, seed=3)
    generated, miss = gen_map(spec), map_mission(spec)
    save_model(generated, tmp_path / "map.json")
    data = json.loads((tmp_path / "map.json").read_text())
    for k, t in enumerate(data["trans"]):
        t["cost"] = k % 3
    (tmp_path / "costly.json").write_text(json.dumps(data))
    costly = load_model(tmp_path / "costly.json")
    assert costly.costs.tolist() == [float(k % 3) for k in range(len(data["trans"]))]
    for model in (generated, load_model(tmp_path / "map.json"), costly):
        assert validate(model) == []
        save_model(model, tmp_path / "again.json")
        assert local_products([model, model], miss)[0].num_states > 0
        assert 0 < solve_mamdp(build_mamdp([model, model], miss))[0] <= 1
        assert run_stapu_with_realloc([model, model], miss)[1].value > 0
    assert json.loads((tmp_path / "again.json").read_text()) == json.loads(json.dumps(data))
