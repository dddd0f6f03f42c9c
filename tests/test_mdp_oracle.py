"""Solver agreement with exhaustive policy enumeration on random small models.

Every instance is small enough to enumerate all memoryless policies and
evaluate each induced chain exactly, giving reference values with no shared
machinery or tolerance with the iterative solver under test.
"""

import numpy as np
import pytest

from teamplan import mdp as mdp_module
from teamplan.baseline import build_mamdp
from teamplan.maps import MapSpec, gen_map, map_mission
from teamplan.mdp import Choice, Mdp, _predecessors, _prob0, _prob1, max_reach, validate

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
        problems = [p for p in validate(m) if "unreachable" not in p]
        assert problems == []
        assert target
        assert not (target & avoid)


def summed(outcomes, values):
    return sum(p * values[t] for t, p in outcomes)


def sum_reference(m, target, avoid, epsilon, monkeypatch):
    """`max_reach`'s values, policy and sweep count, each choice's expected
    value summed with `sum` over its outcomes."""
    pre = _predecessors(m)
    zero = _prob0(pre, m.num_states, target, avoid)
    sure = _prob1(m, pre, target, avoid) - zero - target
    values = [0.0] * m.num_states
    for s in sure | target:
        values[s] = 1.0
    mid = [s for s in range(m.num_states) if s not in zero and s not in sure and s not in target]
    iterations = 0
    if mid:
        for iterations in range(1, 100_001):
            delta = 0.0
            for s in mid:
                best = 0.0
                for c in m.choices[s]:
                    q = sum(p * values[t] for t, p in c.outcomes)
                    if q > best:
                        best = q
                delta = max(delta, best - values[s])
                values[s] = best
            if delta < epsilon:
                break
    with monkeypatch.context() as patched:
        patched.setattr(mdp_module, "_expected", summed)
        policy = mdp_module._reach_policy(m, pre, values, target, sure)
    return [v.hex() for v in values], policy, iterations


@pytest.mark.skipif(sum([1.0, 1e100, 1.0, -1e100]) != 0.0, reason="this interpreter's sum does not round left to right")
def test_sweeps_equal_sum_reference_bitwise(instances, monkeypatch):
    spec = MapSpec(nodes=12, failpoints=4, pfail=0.3, tasks=2, hazards=2, seed=2)
    model, mission = gen_map(spec), map_mission(spec)
    mm = build_mamdp([model, model], mission)
    assert mission.safety is not None and mm.violating
    cases = [*instances, (mm.mdp, set(mm.accepting), set(mm.violating))]
    sweeps = 0
    for i, (m, target, avoid) in enumerate(cases):
        for epsilon in (1e-6, 1e-12):
            res = max_reach(m, target, avoid, epsilon=epsilon)
            expected = sum_reference(m, target, avoid, epsilon, monkeypatch)
            assert ([v.hex() for v in res.values], res.policy, res.iterations) == expected, (i, epsilon)
            sweeps += res.iterations
    assert sweeps > 2 * len(cases)
