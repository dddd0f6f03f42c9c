"""Sweep harness: row contents, determinism, ceilings, failure handling."""

import csv
import json
import logging

import pytest

from teamplan.bench import COLUMNS, bench_sweep, run_cell, write_csv
from teamplan.cli import main
from teamplan.ltl import format_formula
from teamplan.maps import MapSpec, gen_map, map_mission
from teamplan.mdp import save_model
from teamplan.product import local_product

from test_team import reference_team

BASE = {
    "robots": [2],
    "tasks": [1, 2],
    "failpoints": [1],
    "seeds": [0, 1],
    "nodes": 8,
    "pfail": 0.2,
    "reps": 1,
}

TIME_COLUMNS = (COLUMNS.index("stapu_ms"), COLUMNS.index("mamdp_ms"))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def strip_times(rows):
    return [
        [v for i, v in enumerate(row) if i not in TIME_COLUMNS] for row in rows
    ]


def test_sweep_rows_are_complete():
    rows = bench_sweep(dict(BASE))
    assert len(rows) == 4
    for row in rows:
        assert row.team_states > 0
        assert row.team_trans > 0
        assert 0.0 <= row.guarantee <= 1.0
        assert row.mamdp_states is not None
        assert row.guarantee <= row.mamdp_value + 1e-6
        assert len(row.csv_values()) == len(COLUMNS)


def test_sweep_is_deterministic_outside_time_columns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(bench_sweep(dict(BASE)), a)
    write_csv(bench_sweep(dict(BASE)), b)
    assert read_rows(a)[0] == list(COLUMNS)
    assert strip_times(read_rows(a)) == strip_times(read_rows(b))


def test_team_size_doubles_per_task():
    config = dict(BASE, tasks=[1, 3], seeds=[0])
    by_tasks = {row.tasks: row for row in bench_sweep(config)}
    assert by_tasks[3].team_states == 4 * by_tasks[1].team_states


def test_ceiling_blanks_joint_columns(tmp_path):
    rows = bench_sweep(dict(BASE, seeds=[0], ceiling=10))
    for row in rows:
        assert row.mamdp_states is None
        assert row.mamdp_value is None
        assert row.team_states > 0
    out = tmp_path / "c.csv"
    write_csv(rows, out)
    data = read_rows(out)[1]
    assert data[COLUMNS.index("mamdp_states")] == ""
    assert data[COLUMNS.index("mamdp_value")] == ""
    assert data[COLUMNS.index("guarantee")] != ""


def test_failed_cell_is_logged_and_skipped(caplog):
    config = dict(BASE, tasks=[9, 1], seeds=[0])
    with caplog.at_level(logging.ERROR, logger="teamplan.bench"):
        rows = bench_sweep(config)
    assert [row.tasks for row in rows] == [1]
    assert "failed" in caplog.text


def test_config_grids_are_validated(tmp_path, capsys):
    with pytest.raises(ValueError, match="seeds"):
        bench_sweep({"robots": [2], "tasks": [1], "failpoints": [1]})
    with pytest.raises(ValueError, match="tasks"):
        bench_sweep({"robots": [2], "tasks": [], "failpoints": [1], "seeds": [0]})
    config, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    for reps in (0, -2, 1.5):  # each cell would fail on an empty median
        config.write_text(json.dumps(dict(BASE, reps=reps)))
        assert main(["bench", "--config", str(config), "--csv", str(out)]) == 1, reps
        assert "'reps' must be a positive integer" in capsys.readouterr().err, reps
    for key in ("robots", "seeds"):  # JSON booleans are not counts
        with pytest.raises(ValueError, match=f"'{key}' must be a nonempty list of integers"):
            bench_sweep(dict(BASE, **{key: [True]}))
    for key, value in (("robots", 0), ("tasks", 0), ("failpoints", -1), ("seeds", -1)):
        config.write_text(json.dumps(dict(BASE, **{key: [1, value]})))
        assert main(["bench", "--config", str(config), "--csv", str(out)]) == 1, key
        assert f"'{key}' values must be at least {0 if value < 0 else 1}" in capsys.readouterr().err, key
    # each would fail every cell, after 100,000 sweeps per cell for a negative epsilon
    for key, value in (("nodes", "x"), ("nodes", 1), ("nodes", None), ("pfail", "x"), ("pfail", None),
                       ("hazards", -1), ("hazards", 0.5), ("ceiling", -1), ("ceiling", 2.5), ("ceiling", True),
                       ("max_realloc", -1), ("max_realloc", "2"), ("epsilon", -1), ("epsilon", 0),
                       ("epsilon", float("inf")), ("epsilon", float("nan")), ("epsilon", None), ("epsilon", "x")):
        config.write_text(json.dumps(dict(BASE, **{key: value})))
        assert main(["bench", "--config", str(config), "--csv", str(out)]) == 1, (key, value)
        assert f"sweep config '{key}' must be" in capsys.readouterr().err, (key, value)
    for value in ([BASE], "robots", 2, None):  # a config that is not an object
        config.write_text(json.dumps(value))
        assert main(["bench", "--config", str(config), "--csv", str(out)]) == 1, value
        assert "sweep config must be a JSON object" in capsys.readouterr().err, value
    assert not out.exists()
    for key in ("ceiling", "max_realloc"):  # null: no ceiling, no limit on reallocations
        assert len(bench_sweep(dict(BASE, tasks=[1], seeds=[0], **{key: None}))) == 1, key
    single = dict(BASE, robots=2, tasks=[1], seeds=[0])
    assert len(bench_sweep(single)) == 1


def test_run_cell_counts_reallocations():
    row = run_cell(robots=2, tasks=1, failpoints=2, seed=0, nodes=6, pfail=0.3, reps=1)
    assert row.reallocations >= 1
    assert row.guarantee > 0.0


def test_team_transitions_match_the_reference_team():
    """Hazards, one and three robots on a shared product."""
    cells = [dict(robots=3, tasks=2, failpoints=2, seed=1, hazards=1), dict(robots=1, tasks=2, failpoints=0, seed=0),
             dict(robots=2, tasks=3, failpoints=3, seed=4, hazards=1)]
    for cell in cells:
        spec = dict(nodes=8, pfail=0.2, **cell)
        row = run_cell(reps=1, **spec)
        robots = spec.pop("robots")
        spec = MapSpec(**spec)
        model = gen_map(spec)
        products = [local_product(model, map_mission(spec))] * robots
        _, rows, _, _ = reference_team(products, [model.initial] * robots, 0, products[0].states[0][1], ())
        assert row.team_trans == sum(len(outs) for r in rows for _, outs, _ in r), cell


def test_sizes_count_the_safety_automaton(tmp_path, capsys):
    """Unpruned sizes on a hazard map: the 2-state `G !h` automaton is a
    factor of the team size (2 robots x 8 nodes x 2 x 2 task automata),
    the joint size and the `baseline` line."""
    row = run_cell(robots=2, tasks=2, failpoints=1, seed=0, nodes=8, pfail=0.2, hazards=2, reps=1)
    assert (row.team_states, row.mamdp_states) == (128, 512)

    spec = MapSpec(nodes=8, failpoints=1, pfail=0.2, tasks=2, hazards=2, seed=0)
    model, mission = tmp_path / "hazard.json", tmp_path / "mission.json"
    save_model(gen_map(spec), model)
    m = map_mission(spec)
    mission.write_text(json.dumps({"tasks": [format_formula(t) for t in m.tasks], "safety": format_formula(m.safety)}))
    assert main(["baseline", "--models", str(model), str(model), "--mission", str(mission)]) == 0
    assert "122 reachable of 512 joint states" in capsys.readouterr().out
