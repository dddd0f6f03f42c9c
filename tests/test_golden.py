"""Byte-for-byte CLI outputs on one small pinned team.

`tests/fixtures/` holds the inputs (two `genmap` maps and a three-task
mission for three robots) and what `solve` writes, what `realloc` writes
with its timing fields removed, and what `simulate` prints for them. A
change that means to alter these outputs regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

import json
import sys
from pathlib import Path

from teamplan.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MAPS = {"map_a.json": 8, "map_b.json": 10}  # file: genmap seed
ROBOTS = ["map_a.json", "map_a.json", "map_b.json"]


def _run(argv):
    assert main(argv) == 0, argv


def outputs(tmp, read_stdout):
    """Every golden file's bytes, regenerated under the directory `tmp`;
    `read_stdout()` returns what the CLI printed since its last call."""
    files = {}
    for name, seed in MAPS.items():
        _run(["genmap", "--nodes", "10", "--failpoints", "4", "--pfail", "0.3", "--tasks", "3",
              "--seed", str(seed), "--out", str(tmp / name)])
        files[name] = (tmp / name).read_bytes()
    models = ["--models", *(str(tmp / name) for name in ROBOTS), "--mission", str(FIXTURES / "mission.json")]
    _run(["solve", *models, "--out", str(tmp / "solve.json")])
    files["solve.json"] = (tmp / "solve.json").read_bytes()
    _run(["realloc", *models, "--out", str(tmp / "policy.json")])
    policy = json.loads((tmp / "policy.json").read_text())
    del policy["report"]["wall_ms"]
    for entry in policy["report"]["log"]:
        del entry["elapsed_ms"]
    files["realloc.json"] = (json.dumps(policy, indent=2) + "\n").encode()
    read_stdout()
    _run(["simulate", "--policy", str(tmp / "policy.json"), "--runs", "2000", "--seed", "5"])
    files["simulate.txt"] = read_stdout().encode()
    return files


def test_cli_outputs_match_golden_files(tmp_path, capsys):
    files = outputs(tmp_path, lambda: capsys.readouterr().out)
    for name, data in files.items():
        assert data == (FIXTURES / name).read_bytes(), name


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

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buffer):
        files = outputs(Path(tmp), read_stdout)
    for name, data in files.items():
        (FIXTURES / name).write_bytes(data)
        print(f"wrote {FIXTURES / name}", file=sys.stderr)
