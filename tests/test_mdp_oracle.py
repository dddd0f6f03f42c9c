"""Solver agreement with exhaustive policy enumeration on random small models.

Every instance is small enough to enumerate all memoryless policies and
evaluate each induced chain exactly, giving reference values with no shared
machinery or tolerance with the iterative solver under test.
"""

import numpy as np
import pytest

from teamplan.baseline import build_mamdp
from teamplan.maps import MapSpec, gen_map, map_mission
from teamplan.mdp import PROB_ATOL, Choice, Mdp, SolverError, max_product_reach, max_reach, validate
from teamplan.product import local_product

from exhaustive import enumerate_best, evaluate_policy

SEED = 20240613
INSTANCES = 200


def random_mdp(rng):
    n = int(rng.integers(3, 7))
    choices = []
    for s in range(n):
        row = []
        for a in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, min(3, n) + 1))
            succ = rng.choice(n, size=k, replace=False)
            raw = rng.uniform(0.05, 1.0, size=k)
            probs = raw / raw.sum()
            probs[-1] = 1.0 - probs[:-1].sum()
            outs = tuple((int(t), float(p)) for t, p in zip(succ, probs))
            cost = float(rng.uniform(0.1, 2.0))
            row.append(Choice(a, outs, cost))
        choices.append(row)
    m = Mdp(n, 0, tuple(f"a{i}" for i in range(3)), choices)
    targets = {int(t) for t in rng.choice(n, size=int(rng.integers(1, 3)), replace=False)}
    avoid = set()
    if rng.random() < 0.3:
        free = [s for s in range(n) if s not in targets]
        if free:
            avoid = {int(rng.choice(free))}
    return m, targets, avoid


def cases():
    rng = np.random.default_rng(SEED)
    return [random_mdp(rng) for _ in range(INSTANCES)]


@pytest.fixture(scope="module")
def instances():
    return cases()


def test_values_match_enumeration(instances):
    for i, (m, target, avoid) in enumerate(instances):
        expected = enumerate_best(m, target, avoid)
        res = max_reach(m, target, avoid, epsilon=1e-9)
        for s in range(m.num_states):
            assert res.values[s] == pytest.approx(expected[s], abs=1e-6), (
                f"instance {i}, state {s}: solver {res.values[s]} vs enumeration {expected[s]}"
            )
        # the graph precomputation finds exactly the states of value 1 and 0
        assert res.almost_sure == {s for s in range(m.num_states) if expected[s] >= 1 - 1e-9}, f"instance {i}"
        assert res.zero == {s for s in range(m.num_states) if expected[s] <= 1e-12}, f"instance {i}"


def test_extracted_policy_attains_values(instances):
    for i, (m, target, avoid) in enumerate(instances):
        res = max_reach(m, target, avoid, epsilon=1e-9)
        attained = evaluate_policy(m, res.policy, target, avoid)
        for s in range(m.num_states):
            assert attained[s] == pytest.approx(res.values[s], abs=1e-6), (
                f"instance {i}, state {s}: policy attains {attained[s]}, value {res.values[s]}"
            )


def test_generator_yields_valid_models(instances):
    for m, target, avoid in instances:
        assert validate(m) == []
        assert target
        assert not (target & avoid)


def test_rows_survive_the_array_round_trip(instances):
    specs = [MapSpec(nodes=12, failpoints=4, pfail=0.3, tasks=2, hazards=h, seed=h) for h in range(3)]
    maps = [gen_map(spec) for spec in specs]
    products = [local_product(m, map_mission(spec)).mdp for m, spec in zip(maps, specs)]
    for i, m in enumerate([*(m for m, _, _ in instances), *maps, *products]):
        rows = [[c._replace(cost=None) for c in row] for row in m.choices]  # the arrays carry no costs
        from_arrays = Mdp(m.num_states, m.initial, m.actions, arrays=m.arrays)
        assert from_arrays.choices == rows, i
        again = Mdp(m.num_states, m.initial, m.actions, from_arrays.choices).arrays
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(again, m.arrays)), i
        count = sum(len(c.outcomes) for row in rows for c in row)
        assert m.transition_count() == from_arrays.transition_count() == count, i


def predecessors(m):
    pre = [set() for _ in range(m.num_states)]
    for s in range(m.num_states):
        for c in m.choices[s]:
            for t, _ in c.outcomes:
                pre[t].add(s)
    return pre


def reference_prob0(pre, num_states, target, avoid):
    """States from which no scheduler reaches the target with positive
    probability, by a backward search over the predecessor index."""
    reach = set(target)
    stack = list(target)
    while stack:
        for s in pre[stack.pop()]:
            if s not in reach and s not in avoid:
                reach.add(s)
                stack.append(s)
    return set(range(num_states)) - reach


def reference_prob1(m, pre, target, avoid):
    """States with a scheduler reaching the target almost surely: the
    double fixpoint, each round a backward pass from the target."""
    u = set(range(m.num_states)) - avoid
    while True:
        v = set(target)
        stack = list(target)
        while stack:
            for s in pre[stack.pop()]:
                if s in v or s not in u:
                    continue
                if any(all(t in u for t, _ in c.outcomes) and any(t in v for t, _ in c.outcomes)
                       for c in m.choices[s]):
                    v.add(s)
                    stack.append(s)
        if v == u:
            return u
        u = v


def expected(outcomes, values):
    q = 0.0
    for t, p in outcomes:
        q += p * values[t]
    return q


def progress_policy(pre, base, usable, policy):
    """Assign every state of `usable` one of its usable choices, layer by
    layer backwards from `base`: a state joins the layer after the first
    one its usable choices reach, and takes the lowest action among them."""
    assigned = set(base)
    frontier = assigned
    while frontier:
        layer = []
        for s in {s for t in frontier for s in pre[t] if s in usable and s not in assigned}:
            best = None
            for c in usable[s]:
                if (best is None or c.action < best) and any(t in assigned for t, _ in c.outcomes):
                    best = c.action
            if best is not None:
                layer.append((s, best))
        frontier = []
        for s, action in layer:
            policy[s] = action
            assigned.add(s)
            frontier.append(s)
    missing = sorted(s for s in usable if s not in assigned)
    if missing:
        raise SolverError("no progressing optimal action for states " + str(missing[:5]))


def reference_policy(m, values, target, sure):
    """The solvers' policy rule over the rows `m.choices`: certificate
    actions (all outcomes in sure or target) on the almost-sure set `sure`,
    progressing value-optimal actions on the rest of the positive region,
    the first enabled action everywhere else."""
    pre = predecessors(m)
    policy = {s: m.choices[s][0].action for s in sorted(target) if m.choices[s]}
    inside = sure | target
    certificate = {s: [c for c in m.choices[s] if all(t in inside for t, _ in c.outcomes)] for s in sure}
    progress_policy(pre, target, certificate, policy)
    optimal = {}
    for s in range(m.num_states):
        if values[s] > 0.0 and s not in target and s not in sure:
            qs = [expected(c.outcomes, values) for c in m.choices[s]]
            top = max(qs)
            optimal[s] = [c for c, q in zip(m.choices[s], qs) if q >= top - PROB_ATOL]
    progress_policy(pre, target | sure, optimal, policy)
    for s in range(m.num_states):
        if s not in policy and m.choices[s]:
            policy[s] = m.choices[s][0].action
    return policy


def reference_solve(m, target, avoid, epsilon, jacobi):
    """Regions, values and sweep count of value iteration in pure Python,
    each choice's terms added left to right. A Jacobi sweep reads the
    values of the sweep before; a Gauss-Seidel sweep reads each update as
    soon as it is made."""
    pre = predecessors(m)
    zero = reference_prob0(pre, m.num_states, target, avoid)
    sure = reference_prob1(m, pre, target, avoid) - zero - target
    values = [1.0 if s in sure or s in target else 0.0 for s in range(m.num_states)]
    mid = [s for s in range(m.num_states) if s not in zero and s not in sure and s not in target]
    iterations = 0
    if mid:
        for iterations in range(1, 100_001):
            read = list(values) if jacobi else values
            delta = 0.0
            for s in mid:
                best = max(expected(c.outcomes, read) for c in m.choices[s])
                delta = max(delta, best - values[s])
                values[s] = best
            if delta < epsilon:
                break
    return zero, sure, values, iterations


def test_array_solve_equals_python_references(instances):
    spec = MapSpec(nodes=12, failpoints=4, pfail=0.3, tasks=2, hazards=2, seed=2)
    model, mission = gen_map(spec), map_mission(spec)
    mm = build_mamdp([model, model], mission)
    assert mission.safety is not None and mm.violating
    # ten outcomes, the target repeated: left to right the terms add up to
    # 0.826, just short of "b"'s value less PROB_ATOL, where another order
    # of the same terms gives 0.8260000000000001 and makes "a" optimal too
    spread = ((1, 0.174), (1, 0.174), (1, 0.12), (2, 0.065), (2, 0.022), (2, 0.087), (1, 0.098), (1, 0.022),
              (1, 0.022), (1, 0.216))
    wide = Mdp(3, 0, ("a", "b"), [[Choice(0, spread, None), Choice(1, ((1, 0.826000001), (2, 0.173999999)), None)],
                                  [], []])
    assert validate(wide) == []
    cases = [*instances, (mm.mdp, set(mm.accepting), set(mm.violating)), (wide, {1}, set())]
    sweeps = products = 0
    for i, (m, target, avoid) in enumerate(cases):
        for epsilon in (1e-6, 1e-12):
            res = max_reach(m, target, avoid, epsilon=epsilon)
            zero, sure, values, iterations = reference_solve(m, target, avoid, epsilon, jacobi=True)
            assert (res.zero, res.almost_sure, res.iterations) == (zero, sure | target, iterations), (i, epsilon)
            assert max(abs(a - b) for a, b in zip(res.values, values)) <= 1e-15, (i, epsilon)
            assert res.policy == reference_policy(m, values, target, sure), (i, epsilon)
            sweeps += res.iterations
        exact = max_product_reach(m, target, avoid)
        if exact is not None:
            sure = {s for s in range(m.num_states) if exact.values[s] == 1.0} - target
            assert exact.policy == reference_policy(m, exact.values, target, sure), i
            products += 1
        # res is the solve at epsilon 1e-12
        gauss_seidel = reference_solve(m, target, avoid, 1e-12, jacobi=False)[2]
        assert max(abs(a - b) for a, b in zip(res.values, gauss_seidel)) <= 1e-9, i
    assert sweeps > 2 * len(cases) and products >= 10, (sweeps, products)
