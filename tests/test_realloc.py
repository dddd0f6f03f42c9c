"""Synchronized joint chains, reallocation points, and the anytime guarantee."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from teamplan.ltl import Mission, parse_formula
from teamplan.mdp import Choice
from teamplan.product import compile_mission, local_product, local_products
from teamplan import realloc
from teamplan.realloc import (
    JointChain,
    JointNode,
    ReallocPoint,
    UnsupportedModelError,
    find_realloc_points,
    mission_masses,
    policy_from_dict,
    policy_to_dict,
    run_stapu_with_realloc,
    solve_realloc,
    synchronize,
)
from teamplan.team import build_team, solve_stapu

from instances import graph_model, guarded_tree_instance, random_team_instance
from rows import from_rows


def mission(*tasks, safety=None):
    return Mission(
        tasks=tuple(parse_formula(t) for t in tasks),
        safety=parse_formula(safety) if safety else None,
    )


def corridor(pfail=0.1):
    """0 --go--> 1 (p1), failing with pfail."""
    return graph_model(2, [(0, 1)], failpoints={0} if pfail > 0 else set(),
                       pfail=pfail, atom_nodes={"p1": 1})


def plan(models, miss, epsilon=1e-9):
    shared = compile_mission(miss)
    products = [local_product(m, miss, automata=shared) for m in models]
    return solve_stapu(build_team(products), epsilon=epsilon), products


def test_chain_masses_single_task():
    sol, _ = plan([corridor(), corridor()], mission("F p1"))
    jp = synchronize(sol)
    chain = jp.chains[0]
    assert chain.success_mass == pytest.approx(0.9, abs=1e-12)
    assert len(chain.point_indices) == 1
    point = chain.nodes[chain.point_indices[0]]
    assert point.mass == pytest.approx(0.1, abs=1e-12)
    assert point.fresh == (0,)
    for nd in chain.nodes:
        if nd.kind == "step":
            assert sum(p for p, _ in nd.steps) == pytest.approx(1.0, abs=1e-9)


def test_pre_satisfied_mission_absorbs_at_start():
    m = graph_model(2, [(0, 1)], failpoints=set(), pfail=0.0, atom_nodes={"p1": 0})
    sol, _ = plan([m, m], mission("F p1"))
    jp = synchronize(sol)
    chain = jp.chains[0]
    assert len(chain.nodes) == 1
    assert chain.nodes[0].kind == "success"
    assert chain.success_mass == 1.0


def test_unallocated_robot_idles():
    m = graph_model(3, [(0, 1), (1, 2)], failpoints={0, 1}, pfail=0.1,
                    atom_nodes={"p1": 2})
    solo, _ = plan([m], mission("F p1"))
    pair, _ = plan([m, m], mission("F p1"))
    one = synchronize(solo).chains[0]
    two = synchronize(pair).chains[0]
    assert len(two.nodes) == len(one.nodes)
    assert two.success_mass == pytest.approx(one.success_mass, abs=1e-12)
    for nd in two.nodes:
        if nd.kind == "step":
            assert nd.actions[1] == "idle"
            assert nd.actions[0] != "idle"


def test_points_ordered_by_probability():
    m = from_rows(4, 0, ("a", "b"), [
        [Choice(0, ((1, 0.9), (3, 0.1)), None)],
        [Choice(1, ((2, 0.95), (3, 0.05)), None)],
        [],
        [],
    ], atoms=("p1",), labels={2: frozenset({"p1"})}, failure_state=3)
    sol, _ = plan([m, m], mission("F p1"))
    jp = synchronize(sol)
    points = find_realloc_points(jp)
    assert [round(p.prob, 12) for p in points] == [0.1, pytest.approx(0.045)]
    assert points[0].robot == 0 and points[0].failed == frozenset({0})


def test_no_failure_states_means_no_points():
    m = graph_model(3, [(0, 1), (1, 2)], failpoints=set(), pfail=0.0,
                    atom_nodes={"p1": 2})
    jp, report = run_stapu_with_realloc([m, m], mission("F p1"))
    assert report.reallocations == 0
    assert report.value == pytest.approx(report.initial_value, abs=1e-9)
    assert report.value == pytest.approx(1.0, abs=1e-9)
    assert find_realloc_points(jp) == []


def test_solve_realloc_hands_task_to_survivor():
    models = [corridor(), corridor()]
    sol, products = plan(models, mission("F p1"))
    points = find_realloc_points(synchronize(sol))
    assert len(points) == 1
    sub = solve_realloc(points[0], products, epsilon=1e-9)
    assert sub.value == pytest.approx(0.9, abs=1e-9)
    assert sub.allocation == {0: 1}
    assert points[0].addressed


def fake_point(products, positions, statuses, q):
    node = JointNode(t=0, positions=positions, statuses=statuses, q=q,
                     kind="point", fresh=(0,))
    chain = JointChain([node])
    return ReallocPoint(chain, 0, robot=0, prob=1.0)


def test_solve_realloc_all_robots_down():
    models = [corridor(), corridor()]
    _, products = plan(models, mission("F p1"))
    fail = models[0].failure_state
    q0 = products[0].states[0][1]
    point = fake_point(products, (fail, fail), ("failed", "failed"), q0)
    sub = solve_realloc(point, products, epsilon=1e-9)
    assert sub.value == pytest.approx(0.0, abs=1e-12)
    assert sub.unallocated == (0,)


def test_solve_realloc_task_already_done():
    models = [corridor(), corridor()]
    _, products = plan(models, mission("F p1"))
    fail = models[0].failure_state
    task = products[0].automata.tasks[0]
    accepting_q = (task.advance(task.initial, frozenset({"p1"})),)
    point = fake_point(products, (fail, 0), ("failed", "done"), accepting_q)
    sub = solve_realloc(point, products, epsilon=1e-9)
    assert sub.value == pytest.approx(1.0, abs=1e-12)
    assert all(not seg["choices"] for seg in sub.segments)


def test_budget_example():
    models = [corridor(), corridor()]
    miss = mission("F p1")
    jp, report = run_stapu_with_realloc(models, miss, epsilon=1e-9)
    assert report.value == pytest.approx(0.99, abs=1e-9)
    assert report.initial_value == pytest.approx(0.9, abs=1e-9)
    assert report.reallocations == 1
    assert report.unaddressed == pytest.approx(0.0, abs=1e-12)
    saved = report.to_dict()
    assert list(saved) == ["value", "initial_value", "reallocations", "solves", "unaddressed", "failure", "wall_ms",
                           "log"]
    assert saved["value"] == report.value and saved["solves"] == report.solves
    assert saved["log"] == report.log and len(report.log) == 2
    assert saved["log"] is not report.log and saved["log"][1] is not report.log[1]  # a copy, down to the entries

    _, cut = run_stapu_with_realloc(models, miss, max_realloc=0, epsilon=1e-9)
    assert cut.value == pytest.approx(0.9, abs=1e-9)
    assert cut.reallocations == 0
    assert cut.unaddressed == pytest.approx(0.1, abs=1e-12)

    values = []
    for budget in range(3):
        _, r = run_stapu_with_realloc(models, miss, max_realloc=budget, epsilon=1e-9)
        values.append(r.value)
    assert values == sorted(values)
    assert values[1] == pytest.approx(values[2], abs=1e-12)


def test_zero_time_limit_keeps_the_initial_plan():
    models = [corridor(), corridor()]
    miss = mission("F p1")
    jp, report = run_stapu_with_realloc(models, miss, time_limit=0, epsilon=1e-9)
    initial = mission_masses(synchronize(plan(models, miss)[0]))
    assert report.reallocations == 0 and report.solves == 1
    assert report.value == initial[0] == pytest.approx(0.9, abs=1e-12)
    assert report.unaddressed == initial[2] == pytest.approx(0.1, abs=1e-12)
    assert len(jp.chains) == 1


def test_conservation_and_monotonicity_random():
    rng = np.random.default_rng(20240619)
    for i in range(8):
        model, miss = random_team_instance(rng)
        jp, report = run_stapu_with_realloc([model, model], miss, epsilon=1e-9)
        for entry in report.log:
            total = entry["success"] + entry["failure"] + entry["unaddressed"]
            assert total == pytest.approx(1.0, abs=1e-9), f"instance {i}"
        guarantees = [entry["guarantee"] for entry in report.log]
        assert guarantees == sorted(guarantees), f"instance {i}"
        assert report.log[0]["guarantee"] == pytest.approx(report.initial_value, abs=1e-6)
        assert report.value <= 1.0 + 1e-9
        assert find_realloc_points(jp) == []


def test_union_labels_credit_only_the_planned_robot():
    # the chain advances on the union of all robots' labels, the team model
    # on one robot's at a time; they agree while no robot walks over a task
    # atom the plan gives to another, as on these generators' instances.
    # The first replans, one per point of the initial plan, start at a
    # failed robot that hands its tasks on; their chains must realise their
    # values too.
    rng = np.random.default_rng(20261020)
    replans = 0
    for i in range(60):
        model, miss = (random_team_instance if i % 2 else guarded_tree_instance)(rng)
        products = local_products([model] * (2 + i % 3), miss)
        sol = solve_stapu(build_team(products))
        jp = synchronize(sol)
        assert jp.chains[0].success_mass == pytest.approx(sol.value, abs=1e-12), f"instance {i}"
        for point in find_realloc_points(jp):
            sub = solve_realloc(point, products)
            chain = synchronize(sub, q0=point.q).chains[0]
            assert chain.success_mass == pytest.approx(sub.value, abs=1e-12), f"instance {i}"
            replans += sub.value < 1.0
    assert replans >= 100, replans


def test_mass_conservation_matches_report():
    models = [corridor(0.2), corridor(0.3)]
    jp, report = run_stapu_with_realloc(models, mission("F p1"), epsilon=1e-9)
    success, failure, unaddressed = mission_masses(jp)
    assert success == pytest.approx(report.value, abs=1e-12)
    assert failure == pytest.approx(report.failure, abs=1e-12)
    assert unaddressed == pytest.approx(report.unaddressed, abs=1e-12)


def test_policy_json_round_trip():
    rng = np.random.default_rng(20240620)
    model, miss = random_team_instance(rng)
    jp, report = run_stapu_with_realloc([model, model], miss, epsilon=1e-9)
    blob = json.dumps(policy_to_dict(jp, report))
    back = policy_from_dict(json.loads(blob))
    assert len(back.chains) == len(jp.chains)
    a = mission_masses(jp)
    b = mission_masses(back)
    assert a == pytest.approx(b, abs=1e-15)
    assert json.loads(blob)["report"]["value"] == pytest.approx(report.value)


def test_rejects_models_outside_class():
    bad = from_rows(3, 0, ("gamble",), [
        [Choice(0, ((1, 0.5), (2, 0.5)), None)],
        [],
        [],
    ], atoms=("p1",), labels={1: frozenset({"p1"})})
    with pytest.raises(UnsupportedModelError):
        run_stapu_with_realloc([bad], mission("F p1"))
    # a failure state that moves on: the team model would report 1.0 for a
    # plan whose chain delivers 0.5
    moving_failure = from_rows(3, 0, ("go",), [
        [Choice(0, ((1, 0.5), (2, 0.5)), None)],
        [],
        [Choice(0, ((1, 1.0),), None)],
    ], atoms=("p1",), labels={1: frozenset({"p1"})}, failure_state=2)
    with pytest.raises(UnsupportedModelError, match="absorbing"):
        run_stapu_with_realloc([moving_failure, moving_failure], mission("F p1"))


def reference_realloc(models, miss, max_realloc=None, epsilon=1e-9):
    """The replan loop without the memo: solve and synchronize at every point.

    Returns the joint policy and, per log entry, the point probability, the
    plan value and the (success, failure, unaddressed) masses."""
    products = local_products(models, miss)
    sol = solve_stapu(build_team(products), epsilon=epsilon)
    jp = synchronize(sol)
    log = [(None, sol.value, mission_masses(jp))]
    while max_realloc is None or len(log) - 1 < max_realloc:
        points = find_realloc_points(jp)
        if not points:
            break
        point = points[0]
        sub = solve_realloc(point, products, epsilon=epsilon)
        jp.graft(point, synchronize(sub, q0=point.q))
        log.append((point.prob, sub.value, mission_masses(jp)))
    return jp, log


def repeated_key_instances(count=10, seed=20261018):
    """Seeded 3-5 robot teams. Every robot runs the same model and every
    task sits behind a failure guard, so failures recur at the same
    positions and progress and many points share a replan key."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        model, miss = guarded_tree_instance(rng)
        out.append(([model] * (3 + i % 3), miss))
    return out


def grafted_keys(jp):
    """Replan key of every grafted point, one entry per point."""
    keys = []
    for chain in jp.chains:
        for nd in chain.nodes:
            if nd.child is not None:
                failed = frozenset(r for r, st in enumerate(nd.statuses) if st == realloc.FAILED)
                keys.append((nd.positions, nd.q, min(nd.fresh), failed))
    return keys


def test_memoised_replans_match_solving_every_point():
    repeats = 0
    for i, (models, miss) in enumerate(repeated_key_instances()):
        for cut in (None, 0, 1, 3, 8):
            jp, report = run_stapu_with_realloc(models, miss, max_realloc=cut, epsilon=1e-9)
            ref, log = reference_realloc(models, miss, max_realloc=cut)
            assert policy_to_dict(jp) == policy_to_dict(ref), (i, cut)
            got = [(e["point_probability"], e["value"], (e["success"], e["failure"], e["unaddressed"]))
                   for e in report.log]
            assert got == log, (i, cut)
            assert report.reallocations == len(log) - 1
            assert (report.value, report.failure, report.unaddressed) == log[-1][2]
            if cut is None:
                repeats += report.reallocations - (report.solves - 1)
    assert repeats > 0, "no instance repeats a replan key"


def reference_survey(chain, base, totals, points):
    """Walk `chain`, entered with absolute mass `base`, and every chain
    grafted below it depth first: add its success, failure and unaddressed
    mass to `totals` and its ungrafted points to `points`."""
    mass = [0.0] * len(chain.nodes)
    mass[0] = base
    for i, nd in enumerate(chain.nodes):
        if nd.kind == "step":
            for p, j in nd.steps:
                mass[j] += mass[i] * p
        elif nd.kind == "success":
            totals[0] += mass[i]
        elif nd.kind != "point":
            totals[1] += mass[i]
        elif nd.child is not None:
            reference_survey(nd.child, mass[i], totals, points)
        else:
            totals[2] += mass[i]
            points[id(chain), i] = mass[i]


def test_survey_matches_a_recursive_walk():
    ties = 0
    for i, (models, miss) in enumerate(repeated_key_instances()):
        for cut in (0, 1, 3, 8, None):
            jp, _ = run_stapu_with_realloc(models, miss, max_realloc=cut, epsilon=1e-9)
            totals, expected = [0.0, 0.0, 0.0], {}
            reference_survey(jp.chains[0], 1.0, totals, expected)
            assert mission_masses(jp) == pytest.approx(tuple(totals), abs=1e-12), (i, cut)
            points = find_realloc_points(jp)
            assert {(id(p.chain), p.node_index): p.prob for p in points} == pytest.approx(expected, abs=1e-12)
            order = {id(c): k for k, c in enumerate(jp.chains)}
            keys = [(-p.prob, order[id(p.chain)], p.node_index) for p in points]
            assert keys == sorted(keys), (i, cut)
            ties += sum(a[0] == b[0] for a, b in zip(keys, keys[1:]))
    assert ties > 0, "no two points share a probability"


def survey_reads(jp):
    """`mission_masses` and, most probable first, each ungrafted point as
    (chain index, node index, probability)."""
    index = {id(c): k for k, c in enumerate(jp.chains)}
    return mission_masses(jp), [(index[id(p.chain)], p.node_index, p.prob) for p in find_realloc_points(jp)]


def test_incremental_survey_matches_a_fresh_pass():
    # the reference loop, except that the first graft of each instance
    # takes the least probable point; every read must equal, bit for bit,
    # a survey of the same tree read back from its policy file
    skipped = 0
    for i, (models, miss) in enumerate(repeated_key_instances()):
        products = local_products(models, miss)
        jp = synchronize(solve_stapu(build_team(products), epsilon=1e-9))
        assert survey_reads(jp) == survey_reads(policy_from_dict(policy_to_dict(jp))), i
        step = 0
        while points := find_realloc_points(jp):
            point = points[-1] if step == 0 else points[0]
            skipped += point.prob < points[0].prob
            cont = synchronize(solve_realloc(point, products, epsilon=1e-9), q0=point.q)
            jp.graft(point, cont)
            step += 1
            reads = survey_reads(jp)
            assert reads == survey_reads(policy_from_dict(policy_to_dict(jp))), (i, step)
            chains = len(jp.chains)
            with pytest.raises(ValueError, match="already grafted"):
                jp.graft(point, cont)
            assert survey_reads(jp) == reads and len(jp.chains) == chains, (i, step)
    assert skipped > 0, "no first graft skipped a more probable point"


def test_each_point_is_built_once(monkeypatch):
    built = []

    class Counted(ReallocPoint):
        def __init__(self, *args, **kwargs):
            built.append(args[:2])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(realloc, "ReallocPoint", Counted)
    for i, (models, miss) in enumerate(repeated_key_instances()):
        built.clear()
        jp, report = run_stapu_with_realloc(models, miss, epsilon=1e-9)
        assert report.reallocations > 1, i
        assert len(built) == sum(len(c.point_indices) for c in jp.chains), i


def test_one_solve_per_distinct_replan_key(monkeypatch):
    solved = []
    original = realloc.solve_realloc

    def spy(point, *args, **kwargs):
        solved.append((point.positions, point.q, point.robot, point.failed))
        return original(point, *args, **kwargs)

    monkeypatch.setattr(realloc, "solve_realloc", spy)
    for i, (models, miss) in enumerate(repeated_key_instances()):
        solved.clear()
        jp, report = run_stapu_with_realloc(models, miss, epsilon=1e-9)
        keys = grafted_keys(jp)
        assert len(keys) == report.reallocations
        assert len(solved) == len(set(solved)), i
        assert set(solved) == set(keys), i
        assert report.solves == 1 + len(solved)
        assert policy_to_dict(jp, report)["report"]["solves"] == report.solves


def test_replanning_checks_the_models_once(monkeypatch):
    checked = []
    original = realloc.check_class

    def spy(model):
        checked.append(model)
        return original(model)

    monkeypatch.setattr(realloc, "check_class", spy)
    for models, miss in repeated_key_instances():
        checked.clear()
        _, report = run_stapu_with_realloc(models, miss)
        assert report.solves > 1
        assert checked == list({id(m): m for m in models}.values())


def test_grafted_chains_share_no_nodes():
    for i, (models, miss) in enumerate(repeated_key_instances()):
        jp, report = run_stapu_with_realloc(models, miss, epsilon=1e-9)
        nodes = [id(nd) for chain in jp.chains for nd in chain.nodes]
        assert len(nodes) == len(set(nodes)), i
        steps = [id(nd.steps) for chain in jp.chains for nd in chain.nodes]
        assert len(steps) == len(set(steps)), i


PLAN_PATH_PROBE = """
import sys

import numpy as np

from instances import guarded_tree_instance
from teamplan.baseline import build_mamdp, solve_mamdp
from teamplan.product import local_product
from teamplan.realloc import run_stapu_with_realloc
from teamplan.simulate import simulate

model, miss = guarded_tree_instance(np.random.default_rng(5))
jp, report = run_stapu_with_realloc([model, model], miss)
assert report.solves > 1, report.solves
simulate(jp, runs=2000, seed=1)
solve_mamdp(build_mamdp([model, model], miss))[1].policy
pm = local_product(model, miss)
known = set(pm.states)
root = next((s, q) for _, q in pm.states for s in range(model.num_states) if (s, q) not in known)
pm.explore(root[0], pm.automata.vector_id(root[1]))
assert len(pm.states) > len(known)
print("numpy.ma" in sys.modules)
"""


def test_plan_path_never_imports_numpy_ma():
    # np.unique imports numpy.ma on its first call, which adds 1.5-1.9 MB
    # of peak RSS to the benchmark's plan, rollout and joint solve; the
    # probe also builds and solves a joint model, reads its policy and
    # extends a product from a root outside it
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    done = subprocess.run([sys.executable, "-c", PLAN_PATH_PROBE], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
