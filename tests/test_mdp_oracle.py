"""Solver agreement with exhaustive policy enumeration on random small models.

Every instance is small enough to enumerate all memoryless policies and
evaluate each induced chain exactly, giving reference values with no shared
machinery or tolerance with the iterative solver under test. Pure-Python
references of the solvers' passes (label setting, the graph passes, value
iteration, the policy rule) must agree with them exactly.
"""

from heapq import heapify, heappop, heappush

import numpy as np
import pytest

from teamplan import mdp as mdp_module
from teamplan.baseline import build_mamdp
from teamplan.maps import MapSpec, gen_map, map_mission
from teamplan.mdp import PROB_ATOL, Choice, Mdp, SolverError, max_product_reach, max_reach, validate
from teamplan.product import local_product, local_products
from teamplan.team import build_team

from exhaustive import enumerate_best, evaluate_policy
from instances import guarded_tree_instance, random_team_instance
from rows import from_rows
from test_explorer import mamdp_cases

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
    m = from_rows(n, 0, tuple(f"a{i}" for i in range(3)), choices)
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
        again = from_rows(m.num_states, m.initial, m.actions, from_arrays.choices).arrays
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
    wide = from_rows(3, 0, ("a", "b"),
                     [[Choice(0, spread, None), Choice(1, ((1, 0.826000001), (2, 0.173999999)), None)], [], []])
    assert validate(wide) == []
    # the target 2 and the avoid state 3 have choices back into the
    # quantitative states 0 and 1, edges no pass of the solve may take
    exits = from_rows(5, 0, ("a", "b"),
                      [[Choice(0, ((1, 0.5), (2, 0.3), (3, 0.2)), None), Choice(1, ((4, 0.4), (2, 0.6)), None)],
                       [Choice(0, ((2, 0.5), (4, 0.5)), None), Choice(1, ((0, 1.0),), None)],
                       [Choice(0, ((0, 0.5), (1, 0.5)), None), Choice(1, ((3, 1.0),), None)],
                       [Choice(0, ((1, 1.0),), None), Choice(1, ((0, 0.5), (2, 0.5)), None)], []])
    assert validate(exits) == []
    joint = [build_mamdp(models, mission) for models, mission in mamdp_cases()]
    cases = [*instances, *((m.mdp, set(m.accepting), set(m.violating)) for m in [mm, *joint]), (wide, {1}, set()),
             (exits, {2}, {3})]
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


def reference_label_setting(m, target, avoid):
    """`max_product_reach`'s values over the rows `m.choices`, or None when
    a choice of a live state has two live outcomes. A live outcome is a
    target, or a state that is neither an avoid state nor absorbing (every
    choice a one-outcome self-loop, or none).

    Knuth's generalisation of Dijkstra's algorithm (IPL 1977): p <= 1 never
    raises a label, also in floating point, so a state's value is final
    when it leaves the heap.
    """
    def absorbing(s):
        return all(len(c.outcomes) == 1 and c.outcomes[0][0] == s for c in m.choices[s])

    live = [s not in target and s not in avoid and not absorbing(s) for s in range(m.num_states)]
    pre = [[] for _ in range(m.num_states)]
    for s in range(m.num_states):
        for c in m.choices[s] if live[s] else ():
            outs = [(t, p) for t, p in c.outcomes if live[t] or t in target]
            if len(outs) > 1:
                return None
            for t, p in outs:
                pre[t].append((s, p))
    values = [1.0 if s in target else 0.0 for s in range(m.num_states)]
    heap = [(-1.0, s) for s in target]
    heapify(heap)
    settled = set()
    while heap:
        v, t = heappop(heap)
        if t in settled:
            continue
        settled.add(t)
        for s, p in pre[t]:
            w = p * -v
            if w > values[s]:
                values[s] = w
                heappush(heap, (-w, s))
    return values


def assert_max_product_matches_references(m, target, avoid, label):
    """`max_product_reach` against label setting, its values `==` and its
    policy the reference rule's. False when the solver does not apply."""
    expected = reference_label_setting(m, target, avoid)
    res = max_product_reach(m, target, avoid)
    assert (res is None) == (expected is None), label
    if res is None:
        return False
    assert res.values == expected, label
    sure = {s for s in range(m.num_states) if expected[s] == 1.0} - target
    assert res.almost_sure == sure | target and res.zero == {s for s, v in enumerate(expected) if v == 0.0}, label
    assert res.policy == reference_policy(m, expected, target, sure), label
    return True


def test_max_product_equals_label_setting_on_random_models():
    # the first 40 instances of seeds 0-39: generating all 200 of each
    # takes seconds, and about one in ten is in the max-product class
    applied = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for i in range(40):
            applied += assert_max_product_matches_references(*random_mdp(rng), (seed, i))
    assert applied >= 120, applied


def test_max_product_equals_label_setting_on_teams():
    # every start robot, failed (at its failure state) or not
    rng = np.random.default_rng(SEED + 1)
    teams = solved = 0
    for i in range(12):
        model, mission = (random_team_instance(rng, max_tasks=3) if i % 2 else guarded_tree_instance(rng))
        robots = 3 if i % 4 == 3 else 2
        products = local_products([model] * robots, mission)
        for start in range(robots):
            for failed in ((), {start}):
                entries = [model.failure_state if r in failed else model.initial for r in range(robots)]
                team = build_team(products, entries=entries, start_robot=start, failed=failed)
                teams += 1
                solved += assert_max_product_matches_references(
                    team.mdp, set(team.accepting), set(team.violating), (i, start, failed))
    assert solved == teams == 54, (solved, teams)


def chain(probs, detour=()):
    """States 0..len(probs) in a chain, state i moving to i + 1 with
    probs[i] and breaking down (to the last state) otherwise; `detour`
    adds (state, action, probability) shortcuts straight to the chain's
    end. Action 0 steps along the chain, action k a shortcut."""
    n = len(probs) + 2
    end, fail = n - 2, n - 1

    def step(t, p):
        return ((t, p), (fail, 1.0 - p)) if p < 1.0 else ((t, 1.0),)

    rows = [[Choice(0, step(i + 1, p), None)] for i, p in enumerate(probs)] + [[], []]
    for s, a, p in detour:
        rows[s].append(Choice(a, step(end, p), None))
    return from_rows(n, 0, tuple(f"a{k}" for k in range(1 + len(detour))), rows, failure_state=fail), {end}


def test_longer_path_raises_a_settled_value():
    # 0 reaches the end directly w.p. 0.5 in round one, then through
    # 1, 2 and 3 w.p. 0.9 in round four: its value rises after it has
    # already relaxed its own predecessors
    m, target = chain([1.0, 1.0, 1.0, 0.9], detour=[(0, 1, 0.5)])
    res = max_product_reach(m, target)
    assert res.values[0] == 0.9 and res.policy[0] == 0
    assert assert_max_product_matches_references(m, target, set(), "detour")


def test_long_chain_relaxes_over_many_rounds():
    probs = np.random.default_rng(1).uniform(0.999, 1.0, 1200).tolist()
    m, target = chain(probs, detour=[(s, 1, 0.2) for s in range(0, 1200, 100)])
    assert assert_max_product_matches_references(m, target, set(), "chain")
    assert max_product_reach(m, target).values[0] > 0.2


@pytest.mark.parametrize("solve", [max_reach, max_product_reach])
@pytest.mark.parametrize("p", [1.0, 0.5])
def test_lowest_action_wins_across_heads_of_one_layer(solve, p):
    # 0 reaches the targets 1 and 2, both in the first layer, by the
    # actions 2 and 1 (into 1) and 0 (into 2): the backward index lists
    # the edges into 1 first, yet the lowest action, 0, must win
    fail = 3

    def step(t):
        return ((t, p), (fail, 1.0 - p)) if p < 1.0 else ((t, 1.0),)

    m = from_rows(4, 0, ("a", "b", "c"),
                  [[Choice(2, step(1), None), Choice(1, step(1), None), Choice(0, step(2), None)], [], [], []],
                  failure_state=fail)
    res = solve(m, {1, 2})
    assert res.values[0] == p and res.policy[0] == 0
    assert res.policy == reference_policy(m, res.values, {1, 2}, {0} if p == 1.0 else set())


@pytest.mark.parametrize("pass_", ["certificate", "optimal"])
def test_unassigned_state_raises(pass_):
    # one edge, 0 -> 1 by action 0, that neither pass may use: the target
    # 1 cannot give 0, which the pass must assign, an action
    m = from_rows(2, 0, ("a",), [[Choice(0, ((1, 1.0),), None)], []])
    index = (np.array([0, 0, 1]), np.array([0]), np.array([0]))
    target, need, none = np.array([False, True]), np.array([True, False]), np.zeros(1, bool)
    sure, positive = (need, ~need & ~target) if pass_ == "certificate" else (~need & ~target, need)
    with pytest.raises(SolverError, match=r"no progressing optimal action for states \[0\]"):
        mdp_module._layered_policy(m.arrays, index, none, none, target, sure, positive)
