"""Seeded map generation: shapes, determinism, and placement rules."""

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
