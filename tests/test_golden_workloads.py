"""Pinned digests of the CLI outputs on the benchmark's three map recipes.

Each recipe is a 30-node `teamplan.maps` map with the benchmark
workload's counts and placement seed, planned for the workload's number
of robots. `tests/fixtures/workloads.json` holds, per recipe, the
SHA-256 of the map file `save_model` writes, of what `solve` writes,
what `realloc` writes with its timing fields removed, what `simulate`
prints for that policy, what `baseline` prints for two robots on the
recipe's joint mission, and the exact joint value. A change that means to alter these outputs regenerates them with

    PYTHONPATH=src python tests/test_golden_workloads.py

and says why in its description.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from teamplan.baseline import build_mamdp, solve_mamdp
from teamplan.cli import main
from teamplan.ltl import Mission, format_formula
from teamplan.maps import MapSpec, gen_map, map_mission
from teamplan.mdp import save_model

DIGESTS = Path(__file__).resolve().parent / "fixtures" / "workloads.json"
# name: (map spec, robots, tasks of the two-robot joint mission, guarantee, reallocations)
RECIPES = {
    "plan-large": (MapSpec(nodes=30, failpoints=15, pfail=0.1, tasks=9, hazards=0, seed=0), 2, 1,
                   0.99, 1),
    "realloc-wide": (MapSpec(nodes=30, failpoints=20, pfail=0.1, tasks=4, hazards=0, seed=1), 5, 1,
                     0.9985383396896477, 120),
    "joint-baseline": (MapSpec(nodes=30, failpoints=15, pfail=0.1, tasks=3, hazards=2, seed=0), 2, 3,
                       0.972, 2),
}


def _run(argv):
    assert main(argv) == 0, argv


def _mission_file(path, mission):
    safety = None if mission.safety is None else format_formula(mission.safety)
    path.write_text(json.dumps({"tasks": [format_formula(t) for t in mission.tasks], "safety": safety}))
    return str(path)


def outputs(name, tmp, read_stdout):
    """Recipe `name`'s outputs, built under the directory `tmp`, as
    (name -> bytes, the realloc report); `read_stdout()` returns what the
    CLI printed since its last call."""
    spec, robots, joint_tasks, _, _ = RECIPES[name]
    model, mission = gen_map(spec), map_mission(spec)
    save_model(model, tmp / "map.json")
    joint = Mission(tasks=mission.tasks[:joint_tasks], safety=mission.safety)
    models = ["--models", *[str(tmp / "map.json")] * robots, "--mission", _mission_file(tmp / "mission.json", mission)]
    files = {"map.json": (tmp / "map.json").read_bytes()}
    _run(["solve", *models, "--out", str(tmp / "solve.json")])
    files["solve.json"] = (tmp / "solve.json").read_bytes()
    _run(["realloc", *models, "--out", str(tmp / "policy.json")])
    policy = json.loads((tmp / "policy.json").read_text())
    report = policy["report"]
    del report["wall_ms"]
    for entry in report["log"]:
        del entry["elapsed_ms"]
    files["realloc.json"] = (json.dumps(policy, indent=2) + "\n").encode()
    read_stdout()
    _run(["simulate", "--policy", str(tmp / "policy.json"), "--runs", "20000", "--seed", "5"])
    files["simulate.txt"] = read_stdout().encode()
    _run(["baseline", "--models", str(tmp / "map.json"), str(tmp / "map.json"),
          "--mission", _mission_file(tmp / "joint.json", joint)])
    files["baseline.txt"] = read_stdout().encode()
    files["joint_value"] = repr(solve_mamdp(build_mamdp([model, model], joint))[0]).encode()
    return files, report


def digests(files):
    return {k: hashlib.sha256(data).hexdigest() for k, data in files.items()}


@pytest.mark.parametrize("name", list(RECIPES))
def test_workload_outputs_match_pinned_digests(name, tmp_path, capsys):
    files, report = outputs(name, tmp_path, lambda: capsys.readouterr().out)
    guarantee, reallocations = RECIPES[name][3:]
    assert (report["value"], report["reallocations"]) == (guarantee, reallocations)
    assert digests(files) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    buffer = io.StringIO()

    def read_stdout():
        text = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        return text

    pinned = {}
    for name in RECIPES:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buffer):
            pinned[name] = digests(outputs(name, Path(tmp), read_stdout)[0])
    DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
