"""Command line flows: artifact round trips and the exit code contract."""

import inspect
import json

import pytest

from teamplan import baseline, maps, mdp, product
from teamplan.baseline import MamdpModel, build_mamdp, solve_mamdp
from teamplan.bench import run_cell
from teamplan.cli import build_parser, main
from teamplan.dfa import MAX_ATOMS
from teamplan.ltl import load_mission
from teamplan.mdp import BudgetExceeded, SolverError, load_model, max_product_reach, max_reach
from teamplan.product import local_products
from teamplan.realloc import run_stapu_with_realloc, solve_realloc
from teamplan.team import build_team, solve_stapu


def write_mission(path, tasks, safety=None):
    path.write_text(json.dumps({"tasks": tasks, "safety": safety}))
    return str(path)


def test_compile_writes_automaton(tmp_path, capsys):
    out = tmp_path / "task.dfa.json"
    assert main(["compile", "--formula", "F p", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["states"] == [0, 1]
    assert "2 automaton states" in capsys.readouterr().out
    assert main(["compile", "--formula", "G !h", "--out", str(out)]) == 0


def test_pipeline_roundtrip(tmp_path, capsys):
    model = tmp_path / "map.json"
    mission = write_mission(tmp_path / "mission.json", ["F p1"])
    solution = tmp_path / "solution.json"
    policy = tmp_path / "policy.json"

    assert main([
        "genmap", "--nodes", "6", "--failpoints", "1", "--pfail", "0.2",
        "--tasks", "1", "--seed", "3", "--out", str(model),
    ]) == 0
    assert main([
        "solve", "--models", str(model), str(model), "--mission", mission,
        "--epsilon", "1e-9", "--out", str(solution),
    ]) == 0
    value = json.loads(solution.read_text())["value"]
    assert 0.0 < value <= 1.0

    assert main([
        "realloc", "--models", str(model), str(model), "--mission", mission,
        "--out", str(policy),
    ]) == 0
    saved = json.loads(policy.read_text())
    assert saved["report"]["value"] >= value - 1e-9

    assert main(["simulate", "--policy", str(policy), "--runs", "2000", "--seed", "1"]) == 0
    assert main(["baseline", "--models", str(model), str(model), "--mission", mission]) == 0
    out = capsys.readouterr().out
    assert "frequency" in out
    assert "joint value" in out


def test_bench_command(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "robots": [2], "tasks": [1], "failpoints": [1], "seeds": [0],
        "nodes": 6, "reps": 1,
    }))
    out = tmp_path / "rows.csv"
    assert main(["bench", "--config", str(config), "--csv", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header.startswith("robots,tasks,failpoints,seed,team_states")
    assert row.startswith("2,1,1,0,")


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["solve"]) == 1
    assert main(["no-such-command"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_inputs_exit_one(tmp_path, capsys):
    mission = write_mission(tmp_path / "mission.json", ["F p1"])
    missing = str(tmp_path / "nope.json")
    assert main(["solve", "--models", missing, "--mission", mission,
                 "--out", str(tmp_path / "s.json")]) == 1
    assert main(["compile", "--formula", "F (", "--out", str(tmp_path / "d.json")]) == 1
    # formulas nested past the parser's limit, as a formula and as a mission task
    for deep in ("X " * 400 + "p", "(" * 1200 + "p" + ")" * 1200):
        capsys.readouterr()
        assert main(["compile", "--formula", deep, "--out", str(tmp_path / "d.json")]) == 1
        assert "nests deeper" in capsys.readouterr().err
    bad = tmp_path / "broken.json"
    bad.write_text("not json")
    model = tmp_path / "map.json"
    assert main(["genmap", "--nodes", "5", "--failpoints", "1", "--tasks", "1",
                 "--out", str(model)]) == 0
    assert main(["solve", "--models", str(model), "--mission", str(bad),
                 "--out", str(tmp_path / "s.json")]) == 1
    assert main(["genmap", "--nodes", "5", "--failpoints", "1", "--pfail", "2.0",
                 "--tasks", "1", "--out", str(model)]) == 1
    for flag in ("--failpoints", "--tasks"):
        capsys.readouterr()
        assert main(["genmap", "--nodes", "30", flag, "-1", "--out", str(model)]) == 1, flag
        assert f"{flag[2:]} must not be negative" in capsys.readouterr().err, flag
    # a negative seed is refused by the argument parser, which names the flag
    policy = tmp_path / "policy.json"
    assert main(["realloc", "--models", str(model), "--mission", mission, "--out", str(policy)]) == 0
    for argv, seed in ((["genmap", "--nodes", "5", "--tasks", "1", "--out", str(model)], "-3"),
                       (["simulate", "--policy", str(policy), "--runs", "10"], "-1")):
        capsys.readouterr()
        assert main(argv + ["--seed", seed]) == 1, argv[0]
        assert f"argument --seed: '{seed}' is not a non-negative integer" in capsys.readouterr().err, argv[0]
    invariant_as_task = write_mission(tmp_path / "m2.json", ["G !p1"])
    assert main(["solve", "--models", str(model), "--mission", invariant_as_task,
                 "--out", str(tmp_path / "s.json")]) == 1
    assert "error" in capsys.readouterr().err
    for deep in ("X " * 400 + "p1", "(" * 1200 + "F p1" + ")" * 1200):
        deep_task = write_mission(tmp_path / "m3.json", [deep])
        assert main(["solve", "--models", str(model), "--mission", deep_task,
                     "--out", str(tmp_path / "s.json")]) == 1
        assert "nests deeper" in capsys.readouterr().err
    # formulas over the automata's atom cap, as a formula, a mission task and a mission invariant
    atoms = [f"a{k}" for k in range(MAX_ATOMS + 1)]
    wide, invariant = f"F ({' & '.join(atoms)})", f"G ({' | '.join(atoms)})"
    assert main(["compile", "--formula", wide, "--out", str(tmp_path / "d.json")]) == 1
    assert f"has {MAX_ATOMS + 1} atoms" in capsys.readouterr().err
    for tasks, safety in (([wide], None), (["F p1"], invariant)):
        wide_mission = write_mission(tmp_path / "m4.json", tasks, safety)
        assert main(["solve", "--models", str(model), "--mission", wide_mission,
                     "--out", str(tmp_path / "s.json")]) == 1
        assert f"has {MAX_ATOMS + 1} atoms" in capsys.readouterr().err

    # malformed mission files: a task or the safety formula not a string
    for k, data in enumerate([{"tasks": [5]}, {"tasks": ["F p1"], "safety": 3}]):
        broken = tmp_path / f"mission{k}.json"
        broken.write_text(json.dumps(data))
        assert main(["solve", "--models", str(model), "--mission", str(broken),
                     "--out", str(tmp_path / "s.json")]) == 1, k
        assert "malformed mission" in capsys.readouterr().err

    # malformed model files: a successor or the initial state out of range,
    # outcome probabilities that do not sum to 1, fields of the wrong type,
    # labels on a state outside the model or with an undeclared atom, a
    # missing key, a label key that is not an integer and a NaN or infinite
    # cost
    assert main(["genmap", "--nodes", "5", "--failpoints", "1", "--tasks", "1",
                 "--out", str(model)]) == 0
    good = model.read_text()
    (far_successor, huge_successor, far_initial, short_sum, float_successor, text_cost, text_states,
     int_trans, int_outcomes, list_labels, int_actions, int_transition, int_outcome, far_label, unknown_atom,
     no_outcomes, text_label_key, nan_cost, inf_cost) = (json.loads(good) for _ in range(19))
    far_successor["trans"][0]["outcomes"][0]["to"] = 99
    huge_successor["trans"][0]["outcomes"][0]["to"] = 10**12  # beyond int32
    far_initial["initial"] = 50
    short_sum["trans"][0]["outcomes"][0]["p"] = 0.3
    float_successor["trans"][0]["outcomes"][0]["to"] = 1.5
    text_cost["trans"][0]["cost"] = "x"
    text_states["states"] = str(text_states["states"])
    int_trans["trans"] = 5
    int_outcomes["trans"][0]["outcomes"] = 3
    list_labels["labels"] = [1]
    int_actions["actions"] = 4
    int_transition["trans"] = [5]
    int_outcome["trans"][0]["outcomes"] = [3]
    far_label["labels"]["99"] = ["p1"]
    unknown_atom["labels"]["0"] = ["zz"]
    del no_outcomes["trans"][0]["outcomes"]
    text_label_key["labels"]["x"] = ["p1"]
    nan_cost["trans"][0]["cost"] = float("nan")  # written as NaN, which json reads back
    inf_cost["trans"][0]["cost"] = float("inf")  # written as Infinity
    top_array = [json.loads(good)]
    for k, data in enumerate([far_successor, huge_successor, far_initial, short_sum, float_successor, text_cost,
                              text_states, int_trans, int_outcomes, list_labels, int_actions, int_transition,
                              int_outcome, top_array, far_label, unknown_atom, no_outcomes, text_label_key,
                              nan_cost, inf_cost]):
        broken = tmp_path / f"model{k}.json"
        broken.write_text(json.dumps(data))
        for cmd in (["solve", "--out", str(tmp_path / "s.json")],
                    ["realloc", "--out", str(tmp_path / "p.json")],
                    ["baseline"]):
            assert main([*cmd, "--models", str(broken), str(broken), "--mission", mission]) == 1, (k, cmd[0])
        assert "malformed model" in capsys.readouterr().err

    # malformed policy files: a step past the end of its chain, a child
    # chain out of range, step probabilities outside [0, 1] or not summing
    # to 1, a non-numeric probability, a non-integer target, no chains, an
    # unknown node kind, node positions, node steps or the chains not
    # lists, a step or a node not a list or object, a non-integer time, a
    # child chain under a node that is not a reallocation point, a missing
    # key, a robot count that is not a positive integer, positions or
    # statuses not one per robot, a reallocation point naming no fresh
    # robot or one out of range, a chain grafted at two points and one
    # grafted nowhere
    policy = tmp_path / "policy.json"
    risky = tmp_path / "risky.json"  # its plan has a step node with two successors
    assert main(["genmap", "--nodes", "5", "--failpoints", "1", "--tasks", "1", "--seed", "1",
                 "--out", str(risky)]) == 0
    assert main(["realloc", "--models", str(risky), str(risky), "--mission", mission,
                 "--out", str(policy)]) == 0
    good = policy.read_text()
    (past_end, no_chain, outside, short_sum, text_p, float_target, no_chains, odd_kind,
     int_positions, int_steps, object_chains, int_step, int_node, text_t, step_child) = (
        json.loads(good) for _ in range(15))

    def steps(data):
        return next(nd for nd in data["chains"][0]["nodes"] if len(nd["steps"]) == 2)["steps"]

    nodes = past_end["chains"][0]["nodes"]
    next(nd for nd in nodes if nd["steps"])["steps"][0][1] = len(nodes)
    no_chain["chains"][0]["nodes"][0]["child"] = len(no_chain["chains"])
    steps(outside)[0][0], steps(outside)[1][0] = 3.0, -2.0
    steps(short_sum)[0][0] = steps(short_sum)[1][0] / 2
    steps(text_p)[0][0] = "x"
    steps(float_target)[0][1] += 0.5
    no_chains["chains"] = []
    odd_kind["chains"][0]["nodes"][0]["kind"] = "teleport"
    int_positions["chains"][0]["nodes"][0]["positions"] = 5
    int_steps["chains"][0]["nodes"][0]["steps"] = 7
    object_chains["chains"] = {"a": 1}
    int_step["chains"][0]["nodes"][0]["steps"] = [7]
    int_node["chains"][0]["nodes"] = [5]
    text_t["chains"][0]["nodes"][0]["t"] = "x"
    step_child["chains"][0]["nodes"][0]["child"] = 1
    missing = [json.loads(good) for _ in range(3)]
    del missing[0]["robots"], missing[1]["chains"][0]["nodes"][0]["kind"], missing[2]["chains"][0]["nodes"]
    robots = [dict(json.loads(good), robots=n) for n in (-1, 0, True, 1.5)]
    short = [json.loads(good) for _ in range(2)]
    short[0]["chains"][0]["nodes"][0]["positions"].pop()
    short[1]["chains"][0]["nodes"][0]["statuses"].append("idle")
    points = [json.loads(good) for _ in range(3)]
    for data, fresh in zip(points, ([], [2], [-1])):
        next(nd for nd in data["chains"][0]["nodes"] if nd["kind"] == "point")["fresh"] = fresh
    node = {"t": 0, "positions": [0], "statuses": ["executing"], "q": [0]}
    twice_grafted = {"robots": 1, "chains": [
        {"nodes": [dict(node, kind="step", steps=[[0.5, 1], [0.5, 2]]),
                   dict(node, kind="point", steps=[], fresh=[0], child=1),
                   dict(node, kind="point", steps=[], fresh=[0], child=1)]},
        {"nodes": [dict(node, kind="success", steps=[])]}]}
    ungrafted = {"robots": 1, "chains": [{"nodes": [dict(node, kind="success", steps=[])]}] * 2}
    cases = [(past_end, "out of range"), (no_chain, "out of range"), (outside, "not in [0, 1]"),
             (short_sum, "not 1"), (text_p, "not in [0, 1]"), (float_target, "not an integer"),
             (no_chains, "no chains"), (odd_kind, "unknown kind"), (int_positions, "not a list"),
             (int_steps, "not a list"), (object_chains, "not a list"), (int_step, "not a list"),
             (int_node, "not an object"), (text_t, "not an integer"), ([json.loads(good)], "not an object"),
             (step_child, "step node has a child chain"),
             *((data, f"missing key '{key}'") for data, key in zip(missing, ("robots", "kind", "nodes"))),
             *((data, "robots") for data in robots), *((data, "one per robot") for data in short),
             *((data, "fresh robots") for data in points), (twice_grafted, "grafted at two points"),
             (ungrafted, "chain 1 is grafted nowhere")]
    for k, (data, reason) in enumerate(cases):
        broken = tmp_path / f"policy{k}.json"
        broken.write_text(json.dumps(data))
        assert main(["simulate", "--policy", str(broken), "--runs", "10"]) == 1, k
        err = capsys.readouterr().err
        assert "malformed policy" in err and reason in err, (k, err)
    assert main(["simulate", "--policy", str(policy), "--runs", "10"]) == 0

    # a negative or non-finite time limit or tolerance, a zero tolerance and
    # a negative replan budget
    for cmd, flag, value in [("realloc", "--time-limit", v) for v in ("-1", "nan", "inf")] + [
            (cmd, "--epsilon", v) for cmd in ("solve", "realloc", "baseline") for v in ("-1e-6", "nan", "inf", "0")
    ] + [("realloc", "--max-realloc", "-1"), ("baseline", "--ceiling", "-5")]:
        out = [] if cmd == "baseline" else ["--out", str(tmp_path / "out.json")]
        assert main([cmd, "--models", str(model), "--mission", mission, flag, value, *out]) == 1, (cmd, flag, value)
        err = capsys.readouterr().err
        assert "usage error" in err and flag in err, (cmd, flag, value, err)

    # well-formed JSON nested too deep to decode, as a model, a mission, a policy and a sweep config
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    out = ["--out", str(tmp_path / "out.json")]
    for argv in (["solve", "--models", str(deep), "--mission", mission, *out],
                 ["realloc", "--models", str(deep), "--mission", mission, *out],
                 ["baseline", "--models", str(deep), "--mission", mission],
                 ["solve", "--models", str(model), "--mission", str(deep), *out],
                 ["simulate", "--policy", str(deep), "--runs", "10"],
                 ["bench", "--config", str(deep), "--csv", str(tmp_path / "rows.csv")]):
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert f"error: {deep}: JSON nested too deeply" in capsys.readouterr().err, argv


def test_deep_input_message_stays_one_line(tmp_path, capsys):
    """A model file that is a 900-deep array is refused with a one-line
    message that quotes only the start of it, and so are long formulas,
    labels, policy entries, action names and lists of missing atoms."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 900 + "]" * 900)
    mission = write_mission(tmp_path / "mission.json", ["F p1"])
    capsys.readouterr()
    assert main(["solve", "--models", str(deep), "--mission", mission, "--out", str(tmp_path / "s.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model: model [[[") and err.count("\n") == 1 and len(err) < 200, err

    model = tmp_path / "map.json"
    assert main(["genmap", "--nodes", "5", "--failpoints", "1", "--tasks", "1", "--out", str(model)]) == 0
    labelled = json.loads(model.read_text())
    labelled["labels"]["0"] = [f"undeclared_{k}" for k in range(500)]
    (tmp_path / "labelled.json").write_text(json.dumps(labelled))
    named = json.loads(model.read_text())
    named["actions"].append("a" * 3000)
    named["trans"].append({"from": 0, "action": "a" * 3000, "outcomes": [{"to": 1, "p": 0.5}]})
    (tmp_path / "named.json").write_text(json.dumps(named))
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"robots": 1, "chains": [{"nodes": [
        {"t": 0, "positions": [0], "statuses": ["failed"], "q": [0], "kind": "point", "steps": [],
         "fresh": [5] * 1000}]}]}))
    missions = {
        "many G": (["&".join(["G p1"] * 400)], None),
        "long safety": (["F p1"], " & ".join(["F p1"] * 300)),
        "13 atoms": (["F (" + " & ".join(f"a_long_atom_name_{k}" for k in range(MAX_ATOMS + 1)) + ")"], None),
        "long token": (["F p1 " + "q" * 5000], None),
        "12 long missing atoms": ([f"F atom_{k:02d}_" + "m" * 62 for k in range(12)], None),
    }
    out = ["--out", str(tmp_path / "s.json")]
    cases = {name: ["solve", "--models", str(model), "--mission",
                    write_mission(tmp_path / f"{k}.json", tasks, safety), *out]
             for k, (name, (tasks, safety)) in enumerate(missions.items())}
    cases["undeclared atoms"] = ["solve", "--models", str(tmp_path / "labelled.json"), "--mission", mission, *out]
    cases["long action"] = ["solve", "--models", str(tmp_path / "named.json"), "--mission", mission, *out]
    cases["fresh robots"] = ["simulate", "--policy", str(policy), "--runs", "1"]
    for name, argv in cases.items():
        capsys.readouterr()
        assert main(argv) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, (name, err)


def test_realloc_takes_a_step_that_fails_surely(tmp_path, capsys):
    # nothing is labeled p1, so the mission has value 0 and the plan takes
    # state 0's first action, which breaks the robot down for sure
    model = tmp_path / "crash.json"
    model.write_text(json.dumps({
        "states": 2, "initial": 0, "atoms": ["p1"], "labels": {}, "failure_state": 1,
        "actions": ["crash", "wait"],
        "trans": [{"from": 0, "action": "crash", "outcomes": [{"to": 1, "p": 1.0}]},
                  {"from": 0, "action": "wait", "outcomes": [{"to": 0, "p": 1.0}]}],
    }))
    mission = write_mission(tmp_path / "mission.json", ["F p1"])
    policy = tmp_path / "policy.json"
    assert main(["realloc", "--models", str(model), str(model), "--mission", mission,
                 "--out", str(policy)]) == 0, capsys.readouterr().err
    saved = json.loads(policy.read_text())
    report = saved["report"]
    assert report["value"] == 0.0
    assert report["value"] + report["failure"] + report["unaddressed"] == pytest.approx(1.0, abs=1e-12)
    root = saved["chains"][0]["nodes"][0]
    assert root["actions"][0] == "crash" and root["steps"] == [[1.0, 1]]


def test_solve_falls_back_to_value_iteration(tmp_path, capsys):
    # "try" reaches the task node 1 w.p. 0.5, stays at node 0 w.p. 0.3 and
    # breaks down w.p. 0.2: one move splits between two map states, which
    # the exact solve declines
    model = tmp_path / "split.json"
    model.write_text(json.dumps({
        "states": 3, "initial": 0, "atoms": ["p1"], "labels": {"1": ["p1"]}, "failure_state": 2,
        "actions": ["try"],
        "trans": [{"from": 0, "action": "try", "outcomes": [{"to": 1, "p": 0.5}, {"to": 0, "p": 0.3},
                                                            {"to": 2, "p": 0.2}]}],
    }))
    mission = write_mission(tmp_path / "mission.json", ["F p1"])
    solution = tmp_path / "solution.json"
    assert main(["solve", "--models", str(model), str(model), "--mission", mission,
                 "--out", str(solution)]) == 0
    team = build_team(local_products([load_model(model)] * 2, load_mission(mission)))
    assert max_product_reach(team.mdp, team.accepting, team.violating) is None
    value = max_reach(team.mdp, team.accepting, team.violating).values[0]
    assert value != 0.5 / 0.7  # value iteration stops short of the exact value
    assert json.loads(solution.read_text())["value"] == value
    assert capsys.readouterr().out == f'value {value:.6f}, allocation {{"0": 0}} -> {solution}\n'


def test_realloc_time_limit_zero_writes_the_initial_plan(tmp_path, capsys):
    model = tmp_path / "risky.json"
    assert main(["genmap", "--nodes", "5", "--failpoints", "1", "--tasks", "1", "--seed", "1",
                 "--out", str(model)]) == 0
    mission = write_mission(tmp_path / "mission.json", ["F p1"])
    policy = tmp_path / "policy.json"
    base = ["realloc", "--models", str(model), str(model), "--mission", mission, "--out", str(policy)]
    assert main(base) == 0
    assert json.loads(policy.read_text())["report"]["reallocations"] > 0
    capsys.readouterr()
    assert main([*base, "--time-limit", "0", "--epsilon", "1e-9"]) == 0
    report = json.loads(policy.read_text())["report"]
    assert report["reallocations"] == 0
    assert report["value"] == report["initial_value"]
    assert report["unaddressed"] > 0.0
    assert report["value"] + report["failure"] + report["unaddressed"] == pytest.approx(1.0, abs=1e-12)
    assert capsys.readouterr().out.startswith(f"guarantee {report['value']:.6f} after 0 reallocations (")


def test_ceiling_exits_three(tmp_path):
    model = tmp_path / "map.json"
    assert main(["genmap", "--nodes", "6", "--failpoints", "1", "--tasks", "1",
                 "--out", str(model)]) == 0
    mission = write_mission(tmp_path / "mission.json", ["F p1"])
    assert main(["baseline", "--models", str(model), str(model),
                 "--mission", mission, "--ceiling", "10"]) == 3
    assert main(["baseline", "--models", str(model), str(model),
                 "--mission", mission, "--ceiling", "0"]) == 3


def test_product_budget_exits_three(tmp_path, monkeypatch, capsys):
    model = tmp_path / "map.json"
    assert main(["genmap", "--nodes", "6", "--failpoints", "1", "--tasks", "2",
                 "--out", str(model)]) == 0
    mission = write_mission(tmp_path / "mission.json", ["F p1", "F p2"])
    assert main(["solve", "--models", str(model), "--mission", mission,
                 "--out", str(tmp_path / "s.json")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(product, "MAX_STATES", 4)
    assert main(["solve", "--models", str(model), "--mission", mission,
                 "--out", str(tmp_path / "s.json")]) == 3
    assert main(["realloc", "--models", str(model), str(model), "--mission", mission,
                 "--out", str(tmp_path / "p.json")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: exploration passed the budget of 4 states"] * 2
    with pytest.raises(BudgetExceeded):
        local_products([load_model(model)], load_mission(mission))


def test_model_past_budget_exits_three(tmp_path, monkeypatch, capsys):
    """A model file declaring more states than the state budget is
    refused as it loads."""
    model = tmp_path / "map.json"
    assert main(["genmap", "--nodes", "5", "--failpoints", "1", "--tasks", "1",
                 "--out", str(model)]) == 0
    mission = write_mission(tmp_path / "mission.json", ["F p1"])
    data = json.loads(model.read_text())
    data["states"] += 1  # a seventh state, without choices
    model.write_text(json.dumps(data))
    assert load_model(model).num_states == 7
    monkeypatch.setattr(mdp, "MAX_STATES", 6)
    capsys.readouterr()
    for cmd in (["solve", "--out", str(tmp_path / "s.json")], ["realloc", "--out", str(tmp_path / "p.json")],
                ["baseline"]):
        assert main([*cmd, "--models", str(model), "--mission", mission]) == 3, cmd[0]
    assert capsys.readouterr().err.splitlines() == ["error: exploration passed the budget of 6 states"] * 3
    with pytest.raises(BudgetExceeded):
        load_model(model)
    data["states"] -= 1
    model.write_text(json.dumps(data))
    assert load_model(model).num_states == 6


def test_solver_failures_exit_two(tmp_path, monkeypatch, capsys):
    model = tmp_path / "map.json"
    main(["genmap", "--nodes", "5", "--failpoints", "1", "--tasks", "1",
          "--out", str(model)])
    mission = write_mission(tmp_path / "mission.json", ["F p1"])

    def boom(*a, **kw):
        raise SolverError("did not converge")

    monkeypatch.setattr("teamplan.cli.solve_stapu", boom)
    assert main(["solve", "--models", str(model), "--mission", mission,
                 "--out", str(tmp_path / "s.json")]) == 2
    assert "solver error" in capsys.readouterr().err

    def crash(*a, **kw):
        raise RuntimeError("ran out of pixie dust")

    monkeypatch.setattr("teamplan.cli.run_stapu_with_realloc", crash)
    assert main(["realloc", "--models", str(model), "--mission", mission,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert "internal error" in capsys.readouterr().err


def test_defaults_have_one_home():
    """Every solve defaults to `mdp.EPSILON`, every joint build to
    `baseline.CEILING` and every generated map to `maps.MapSpec`'s
    defaults, from the library and from the command line."""
    for fn in (max_reach, solve_mamdp, solve_stapu, solve_realloc, run_stapu_with_realloc, run_cell):
        assert inspect.signature(fn).parameters["epsilon"].default is mdp.EPSILON, fn.__name__
    for fn in (MamdpModel, build_mamdp):
        assert inspect.signature(fn).parameters["ceiling"].default is baseline.CEILING, fn.__name__
    inputs = ["--models", "m.json", "--mission", "mission.json"]
    parser = build_parser()
    for argv in (["solve", *inputs, "--out", "s.json"], ["realloc", *inputs, "--out", "p.json"], ["baseline", *inputs]):
        assert parser.parse_args(argv).epsilon is mdp.EPSILON, argv[0]
    assert parser.parse_args(["baseline", *inputs]).ceiling is baseline.CEILING
    spec = maps.MapSpec._defaults
    genmap = parser.parse_args(["genmap", "--out", "m.json"])
    for name in ("nodes", "failpoints", "pfail", "tasks", "seed"):
        assert getattr(genmap, name) is spec[name], name
    for name in ("nodes", "pfail", "hazards"):
        assert inspect.signature(run_cell).parameters[name].default is spec[name], name


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
