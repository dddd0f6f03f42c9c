"""Seeded map generation: shapes, determinism, and placement rules."""

import pickle

import numpy as np
import pytest

from teamplan.ltl import format_formula
from teamplan.maps import MapError, MapSpec, gen_map, grid_edges, map_mission
from teamplan.mdp import max_reach, model_to_dict, validate
from teamplan.product import local_product
from teamplan.team import check_class


def risky_nodes(model):
    return {
        s
        for s in range(model.num_states)
        for c in model.choices[s]
        if len(c.outcomes) == 2
    }


def test_specs_compare_and_hash_by_fields():
    spec = MapSpec(nodes=12, failpoints=2, tasks=2, seed=5, edges=((0, 1),))
    same = MapSpec(12, 2, 0.1, 2, 0, 5, ((0, 1),), None, None, None)
    assert spec == same and hash(spec) == hash(same)
    assert spec != MapSpec(nodes=12, failpoints=2, tasks=2, seed=6, edges=((0, 1),))
    assert MapSpec() == MapSpec(nodes=30, failpoints=5, pfail=0.1, tasks=3, hazards=0, seed=0)
    assert MapSpec().edges is None and MapSpec().hazard_nodes is None
    with pytest.raises(AttributeError):
        spec.seed = 6
    with pytest.raises(TypeError):
        MapSpec(node=12)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec and hash(clone) == hash(spec)


def test_default_spec_shape():
    model = gen_map(MapSpec())
    assert model.num_states == 31
    assert model.failure_state == 30
    assert model.initial == 0
    assert model.atoms == ("p1", "p2", "p3")
    assert len(risky_nodes(model)) == 5
    assert validate(model) == []
    assert check_class(model)


def test_grid_edges_default_is_five_by_six():
    edges = grid_edges(30)
    assert len(edges) == 5 * 5 + 4 * 6
    degree = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    assert set(degree) == set(range(30))
    assert max(degree.values()) <= 4


def test_same_spec_same_model():
    a = gen_map(MapSpec(seed=7))
    b = gen_map(MapSpec(seed=7))
    assert model_to_dict(a) == model_to_dict(b)
    c = gen_map(MapSpec(seed=8))
    assert model_to_dict(a) != model_to_dict(c)


def test_growing_failpoints_nests_and_keeps_tasks():
    small = gen_map(MapSpec(failpoints=5, seed=3))
    large = gen_map(MapSpec(failpoints=10, seed=3))
    assert risky_nodes(small) < risky_nodes(large)
    assert small.labels == large.labels


def test_zero_failpoints_is_deterministic():
    model = gen_map(MapSpec(failpoints=0))
    assert all(len(c.outcomes) == 1 for row in model.choices for c in row)
    assert model.num_states == 30
    assert model.failure_state is None
    assert validate(model) == []


def test_corridor_through_one_failure_point():
    spec = MapSpec(
        nodes=3,
        edges=((0, 1), (1, 2)),
        failure_nodes=(1,),
        task_nodes=(2,),
        pfail=0.1,
    )
    pm = local_product(gen_map(spec), map_mission(spec))
    res = max_reach(pm.mdp, pm.accepting, pm.violating, epsilon=1e-12)
    assert res.values[0] == pytest.approx(0.9, abs=1e-9)


def test_rejects_bad_graphs():
    with pytest.raises(MapError, match="disconnected"):
        gen_map(MapSpec(nodes=4, edges=((0, 1), (2, 3)), failpoints=0, tasks=1))
    with pytest.raises(MapError, match="out of range"):
        gen_map(MapSpec(nodes=3, edges=((0, 5),), failpoints=0, tasks=1))
    with pytest.raises(MapError, match="self-loop"):
        gen_map(MapSpec(nodes=3, edges=((0, 0), (0, 1), (1, 2)), failpoints=0, tasks=1))
    with pytest.raises(MapError, match="two nodes"):
        gen_map(MapSpec(nodes=1, tasks=0, failpoints=0))


def test_rejects_bad_placement():
    with pytest.raises(MapError, match="outside"):
        gen_map(MapSpec(nodes=4, tasks=1, failpoints=1, pfail=0.0))
    with pytest.raises(MapError, match="outside"):
        gen_map(MapSpec(nodes=4, tasks=1, failpoints=1, pfail=1.0))
    with pytest.raises(MapError, match="need at least"):
        gen_map(MapSpec(nodes=3, tasks=3, failpoints=0))
    with pytest.raises(MapError, match="not enough nodes"):
        gen_map(MapSpec(nodes=5, tasks=2, failpoints=2, hazards=1))
    for field in ("failpoints", "tasks", "hazards"):
        with pytest.raises(MapError, match=f"{field} must not be negative"):
            gen_map(MapSpec(nodes=30, **{"tasks": 1, "failpoints": 1, field: -2}))


def test_hazard_atoms_and_mission():
    spec = MapSpec(nodes=12, failpoints=2, tasks=2, hazards=2, seed=5)
    model = gen_map(spec)
    assert model.atoms == ("p1", "p2", "h")
    hazard_nodes = {s for s, lab in model.labels.items() if "h" in lab}
    task_nodes = {s for s, lab in model.labels.items() if lab - {"h"}}
    assert len(hazard_nodes) == 2
    assert not hazard_nodes & task_nodes
    assert not hazard_nodes & risky_nodes(model)
    assert 0 not in hazard_nodes | task_nodes
    miss = map_mission(spec)
    assert [format_formula(t) for t in miss.tasks] == ["F p1", "F p2"]
    assert format_formula(miss.safety) == "G !h"


def test_mission_needs_tasks():
    model = gen_map(MapSpec(nodes=4, tasks=0, failpoints=1))
    assert model.atoms == ()
    with pytest.raises(MapError, match="task"):
        map_mission(MapSpec(tasks=0))


def sweep_spec(rng):
    """A valid spec: 2-40 nodes, failure points, tasks and hazards drawn to
    fit, `pfail` anywhere in (0, 1) including its ends, and in about half
    the specs explicit edges (a random spanning tree plus extra edges,
    some repeated or reversed) or explicit placements (overlaps allowed)."""
    n = int(rng.integers(2, 41))
    tasks = int(rng.integers(0, n))
    failpoints = int(rng.integers(0, n - tasks))
    hazards = int(rng.integers(0, n - tasks - failpoints))
    pfail = float(rng.choice([1e-12, 1e-6, rng.uniform(0.01, 0.99), 1 - 1e-6, 1 - 1e-12]))
    kw = {}
    if rng.random() < 0.5:
        edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        edges += [tuple(int(x) for x in rng.permutation(n)[:2]) for _ in range(int(rng.integers(0, n)))]
        kw["edges"] = tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in edges)
    if rng.random() < 0.5:
        for name in ("failure_nodes", "task_nodes", "hazard_nodes"):
            kw[name] = tuple(int(v) for v in rng.choice(n, size=int(rng.integers(0, n)), replace=False))
    return MapSpec(nodes=n, failpoints=failpoints, pfail=pfail, tasks=tasks, hazards=hazards,
                   seed=int(rng.integers(0, 1 << 30)), **kw)


def test_generated_models_are_well_formed_and_in_class():
    """`gen_map` does not check its own output: its edge, placement and
    `pfail` checks leave nothing for `validate` or `check_class` to find."""
    rng = np.random.default_rng(20261020)
    risky = explicit = hazards = 0
    for k in range(300):
        spec = sweep_spec(rng)
        model = gen_map(spec)
        assert validate(model) == [], (k, spec)
        assert check_class(model), (k, spec)
        risky += model.failure_state is not None
        explicit += spec.edges is not None and spec.task_nodes is not None
        hazards += "h" in model.atoms
    assert risky >= 150 and explicit >= 50 and hazards >= 100, (risky, explicit, hazards)
