"""Pinned benchmark of teamplan.

    python3 perfbench/run.py --workload plan-large --seed 3 --seconds 25 --trace 0

Runs one workload in this single-threaded process as a closed loop: one
operation (plan with replanning, roll out, joint reference) at a time,
the next started only after the previous one finished and was checked.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
drives the plan call by call under spans and reports per-layer metrics,
writing the spans to `perfbench/out/`. End-to-end timings are medians of
paced seconds (see `pace.py`): wall time rescaled by a reference
computation gauged just before and after each call, so that the host's
drifting speed cancels; the detail lines give wall-time medians beside
them. The last line of stdout is the JSON result. teamplan is imported
from `src/` of the checkout this file sits in.
"""

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path

from pace import REF_S, Pacer
from spans import Tracer
from workloads import WORKLOADS, build_inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

E2E_UNITS = {
    "setup_s": "s",
    "first_guarantee_s": "s",
    "plan_s": "s",
    "guarantee": "probability",
    "rollouts_per_s": "1/s",
    "joint_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def describe(name, values, unit):
    """Median, sample count, and the highest of p90/p99/p99.9 that has at
    least ten samples beyond it."""
    line = f"  {name:<32} {statistics.median(values):>14.6g} {unit:<12} median of {len(values)}"
    tails = [p for p in (90, 99, 99.9) if len(values) * (100 - p) / 100 >= 10]
    if tails:
        line += f", p{tails[-1]:g} {percentile(values, tails[-1]):.6g}"
    return line


def run(workload, seed, seconds, trace):
    """Set up, run the closed loop, and return (result, detail lines)."""
    setup = []
    first = {}
    pacer = Pacer()

    def set_up():
        gc.collect()
        inputs, t = pacer.time(build_inputs, workload, seed)
        setup.append(t)
        # operations keep running on the modules of the run's first set-up
        if first:
            sys.modules.update(first)
        else:
            first.update((n, m) for n, m in sys.modules.items() if n == "teamplan" or n.startswith("teamplan."))
        return inputs

    inputs = set_up()
    # bind the operation code to the teamplan modules that set-up imported
    sys.modules.pop("missions", None)
    missions = importlib.import_module("missions")

    tracer = Tracer() if trace else None
    peak_rss = []

    def operation():
        # one more timed set-up per operation spreads the set-up samples over the run
        set_up()
        gc.collect()  # every operation starts from the same collector state
        if tracer is not None:
            tracer.run += 1
        out = missions.operation(inputs, pacer, tracer)
        if not peak_rss:
            # set-up plus one operation: later ones only add heap fragmentation,
            # and how many of them run depends on the host's speed
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return out

    outcomes, attempted, failed = missions.closed_loop(operation, seconds)
    if not outcomes:
        raise SystemExit(f"{workload.name}: no operation completed")

    if trace:
        samples = {name: [o.layers[name] for o in outcomes] for name in outcomes[0].layers}
        units = missions.LAYER_UNITS
        replans = [ms for o in outcomes for ms in o.replan_ms] or [0.0]
        whole_run = {"realloc.replan_ms_p50": percentile(replans, 50), "realloc.replan_ms_p90": percentile(replans, 90)}
        tracer.dump(OUT / f"trace-{workload.name}-seed{seed}.json")
    else:
        samples = {
            "setup_s": [t.paced_s for t in setup],
            "first_guarantee_s": [x for o in outcomes for x in o.seconds["first_guarantee_s"]],
            "plan_s": [x for o in outcomes for x in o.seconds["plan_s"]],
            "guarantee": [o.guarantee for o in outcomes],
            "rollouts_per_s": [inputs.rollouts / x for o in outcomes for x in o.seconds["simulate_s"]],
            "joint_s": [x for o in outcomes for x in o.seconds["joint_s"]],
        }
        units = E2E_UNITS
        replans = []
        whole_run = {"peak_rss_mb": peak_rss[0]}

    detail = [f"{workload.name} seed={seed} trace={trace}: {attempted} operations, {failed} failed"]
    detail += [describe(name, values, units[name]) for name, values in samples.items()]
    if not trace:
        wall = {
            "setup_s": [t.wall_s for t in setup],
            "plan_s": [x for o in outcomes for x in o.wall_seconds["plan_s"]],
            "rollouts_per_s": [inputs.rollouts / x for o in outcomes for x in o.wall_seconds["simulate_s"]],
            "joint_s": [x for o in outcomes for x in o.wall_seconds["joint_s"]],
        }
        detail += [describe(f"{name} (wall)", values, E2E_UNITS[name]) for name, values in wall.items()]
    detail.append(describe(f"pace gauge (nominal {REF_S * 1000:g})", [g * 1000.0 for g in pacer.gauges], "ms"))
    if replans:
        detail.append(describe("realloc.replan_ms (pooled)", replans, "ms"))
    values = {name: statistics.median(v) for name, v in samples.items()}
    values.update(whole_run)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def report(result, detail):
    """Print the detail lines, then the result as the last line of stdout."""
    print("\n".join(detail))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "teamplan" / "__init__.py").is_file():
        print(f"perfbench: no teamplan sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    report(*run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
