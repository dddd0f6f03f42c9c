"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
the printed result names every metric BENCHMARK.json lists, with its
unit, and counts no failure. Then checks that an operation reporting a
deliberately wrong guarantee is counted as failed, and that a call long
enough for gauge units inside it is timed net of them with the SIGALRM
handler and timer restored afterwards. Exits 0 on success.
"""

import contextlib
import dataclasses
import importlib
import io
import json
import signal
import sys
import time

import run
from pace import INSIDE_S, Pacer
from workloads import WORKLOADS, build_inputs


def tiny(w):
    tasks = min(w.tasks, 2)
    # 5 failure points on a 3x3 grid still give every workload 2 or more replans
    return dataclasses.replace(w, nodes=9, tasks=tasks, failpoints=5, hazards=min(w.hazards, 1),
                               joint_tasks=min(w.joint_tasks, tasks), rollouts=2000)


def printed_result(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(*run.run(workload, seed=7, seconds=0.5, trace=trace))
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main():
    if not (run.SRC / "teamplan" / "__init__.py").is_file():
        print(f"selftest: no teamplan sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json and workloads.py list different workloads")

    for w in WORKLOADS.values():
        for trace in (0, 1):
            result = printed_result(tiny(w), trace)
            where = f"{w.name} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: {result['attempted']} attempted, {result['failed']} failed")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != wanted[trace]:
                errors.append(f"{where}: printed {printed}, BENCHMARK.json names {wanted[trace]}")

    inputs = build_inputs(tiny(WORKLOADS["realloc-wide"]), seed=7)
    sys.modules.pop("missions", None)
    missions = importlib.import_module("missions")

    pacer = Pacer()

    def wrong_guarantee():
        out = missions.operation(inputs, pacer)
        out.guarantee -= 0.1
        return out

    with contextlib.redirect_stderr(io.StringIO()):
        _, attempted, failed = missions.closed_loop(wrong_guarantee, seconds=0)
    if (attempted, failed) != (1, 1):
        errors.append(f"a wrong guarantee gave {attempted} attempted, {failed} failed; expected 1, 1")

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    _, t = pacer.time(busy, 3 * INSIDE_S)
    if len(t.inside) < 2 or abs(t.wall_s + sum(d for _, d in t.inside) - t.elapsed_s) > 1e-9:
        errors.append(f"a {3 * INSIDE_S:g} s call ran {len(t.inside)} gauge units inside it, net time {t.wall_s!r}")
    if not 0.0 < t.paced_lead(INSIDE_S) < t.paced_s:
        errors.append(f"pacing the call's first {INSIDE_S:g} s gave {t.paced_lead(INSIDE_S)!r}, all of it {t.paced_s!r}")
    if signal.getsignal(signal.SIGALRM) != signal.SIG_DFL or signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        errors.append("the SIGALRM handler or timer outlived the timed call")

    for e in errors:
        print("FAIL", e)
    print("selftest:", "failed" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
