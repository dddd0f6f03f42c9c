"""One benchmark operation and the checks it must pass.

An operation plans the workload's mission with unbounded replanning,
rolls the final joint policy out, and solves the 2-robot joint MAMDP
reference. In a traced run it also drives the same plan step by step
through teamplan's public calls, one span per call, and must reach the
untraced result exactly.
"""

import math
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from teamplan.baseline import CeilingExceeded, build_mamdp, solve_mamdp
from teamplan.mdp import DivergenceError, max_reach
from teamplan.product import compile_mission, local_product
from teamplan.realloc import (
    UnsupportedModelError,
    find_realloc_points,
    mission_masses,
    run_stapu_with_realloc,
    synchronize,
)
from teamplan.simulate import simulate
from teamplan.team import build_team, check_class, solve_stapu

from spans import duration_ms, run_totals

# an operation raising one of these counts as failed; any other exception
# is a defect of the benchmark or the program and stops the run
OPERATION_ERRORS = (DivergenceError, CeilingExceeded, UnsupportedModelError)
EPSILON = 1e-6  # solver precision, and the slack of "STAPU <= joint optimum"
MASS_TOL = 1e-9
LOG_TOL = 1e-12  # float noise allowed between successive logged guarantees
# One rollout seed for every run: the 3-standard-error check is then one
# fixed test per instance, not a fresh 0.27% false alarm on every run.
ROLLOUT_SEED = 0
# The plan repeats within an operation until it has run this long, so a
# fast plan (joint-baseline's takes 0.1 s) still yields many samples;
# likewise the rollouts.
MIN_PLAN_S = 0.5
MIN_SIMULATE_S = 1.0

SPAN_NAMES = (
    "plan",
    "product.compile_mission",
    "product.local_product",
    "team.build_team",
    "team.solve_stapu",
    "realloc.synchronize",
    "realloc.mission_masses",
    "realloc.find_realloc_points",
    "realloc.replan",
    "realloc.graft",
    "mdp.max_reach",
    "simulate.simulate",
    "baseline.build_mamdp",
    "baseline.solve_mamdp",
    "baseline.max_reach",
)

# per-layer metric -> unit; a traced operation yields all but the replan
# percentiles, which pool the replans of every operation in the run
LAYER_UNITS = {
    "dfa.compile_ms": "ms",
    "dfa.states": "count",
    "product.build_ms": "ms",
    "product.states": "count",
    "product.transitions": "count",
    "team.build_ms": "ms",
    "team.builds": "count",
    "team.states": "count",
    "team.transitions": "count",
    "team.solve_ms": "ms",
    "mdp.max_reach_ms": "ms",
    "mdp.sweeps": "count",
    "mdp.prob0_states": "count",
    "mdp.prob1_states": "count",
    "mdp.mid_states": "count",
    "realloc.sync_ms": "ms",
    "realloc.chain_nodes": "count",
    "realloc.replans": "count",
    "realloc.distinct_replans": "count",
    "realloc.replan_ms_p50": "ms",
    "realloc.replan_ms_p90": "ms",
    "realloc.survey_ms": "ms",
    "realloc.useful_replan_ratio": "ratio",
    "simulate.ms": "ms",
    "simulate.rollouts": "count",
    "simulate.mean_triggers": "count",
    "baseline.build_ms": "ms",
    "baseline.solve_ms": "ms",
    "baseline.states": "count",
    "baseline.transitions": "count",
    "baseline.sweeps": "count",
    "trace.overhead_ms": "ms",
    **{f"self_ms.{name}": "ms" for name in SPAN_NAMES},
}


@dataclass
class Outcome:
    guarantee: float
    log: list  # guarantee after the initial plan and after every replan
    masses: tuple  # success, failure, unaddressed
    frequency: float
    rollouts: int
    stapu_joint: float  # STAPU-with-replanning guarantee on the joint reference mission
    joint_value: float
    seconds: dict  # end-to-end timing samples of this operation, paced, in lists
    wall_seconds: dict  # the same calls' wall seconds
    layers: dict = field(default_factory=dict)  # traced runs only
    replan_ms: list = field(default_factory=list)  # traced runs only
    problems: list = field(default_factory=list)


def check(out):
    """Every way the operation's outputs can be wrong, as messages."""
    problems = list(out.problems)
    if abs(sum(out.masses) - 1.0) > MASS_TOL:
        problems.append(f"success + failure + unaddressed = {sum(out.masses)!r}, not 1")
    if any(b < a - LOG_TOL for a, b in zip(out.log, out.log[1:])):
        problems.append(f"guarantee dropped across replans: {out.log}")
    if out.stapu_joint > out.joint_value + EPSILON:
        problems.append(f"STAPU guarantee {out.stapu_joint!r} above the joint optimum {out.joint_value!r}")
    # the standard error of a frequency over `rollouts` runs if the guarantee
    # is right; the sample's own error is 0 whenever every rollout agrees
    g = out.guarantee
    stderr = math.sqrt(g * (1.0 - g) / out.rollouts) if 0.0 <= g <= 1.0 else 0.0
    if not 0.0 <= g <= 1.0 or abs(out.frequency - g) > 3.0 * stderr:
        problems.append(
            f"Monte Carlo frequency {out.frequency!r} over {out.rollouts} rollouts is more than "
            f"3 standard errors ({stderr!r}) from the guarantee {g!r}"
        )
    return problems


def closed_loop(operation, seconds):
    """Run `operation` back to back for about `seconds` and check each result.

    The first operation always runs; a further one starts only if an
    operation of the median length so far would still end in time, so a
    run ends near `seconds` however slow its operations are. Returns
    (outcomes, attempted, failed).
    """
    outcomes = []
    durations = []
    attempted = failed = 0
    start = time.perf_counter()
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = operation()
        except OPERATION_ERRORS as e:
            failed += 1
            print(f"operation {attempted} failed: {type(e).__name__}: {e}", file=sys.stderr)
            continue
        finally:
            durations.append(time.perf_counter() - t0)
        problems = check(out)
        if problems:
            failed += 1
            print(f"operation {attempted} failed: " + "; ".join(problems), file=sys.stderr)
        outcomes.append(out)
    return outcomes, attempted, failed


def _no_span(name):
    return nullcontext({})


def _in_span(span, name, fn):
    """`fn` with its call wrapped in span `name`, so the span holds no gauge."""
    def call(*args, **kwargs):
        with span(name):
            return fn(*args, **kwargs)
    return call


def operation(inp, pacer, tracer=None):
    """Plan, roll out and solve the joint reference for one mission.

    Every timed call runs between two gauges of `pacer`; the end-to-end
    samples are paced seconds, with the wall seconds kept beside them.
    With a tracer, the plan is also driven call by call under spans, and
    the simulate and baseline calls are wrapped in spans too.
    """
    span = tracer.span if tracer is not None else _no_span
    plans = []
    reports = []
    start = time.perf_counter()
    while not plans or time.perf_counter() - start < MIN_PLAN_S:
        (jp, report), t = pacer.time(run_stapu_with_realloc, [inp.model] * inp.robots, inp.mission, epsilon=EPSILON)
        plans.append(t)
        reports.append(report)
    report = reports[0]
    problems = []
    if any((r.value, r.reallocations) != (report.value, report.reallocations) for r in reports):
        problems.append(f"repeated plans disagree: {[(r.value, r.reallocations) for r in reports]}")
    layers = {}
    if tracer is not None:
        jp, layers, traced_guarantee = _traced_plan(inp, tracer)
        if (traced_guarantee, layers["realloc.replans"]) != (report.value, report.reallocations):
            problems.append(
                f"traced plan reached {traced_guarantee!r} after {layers['realloc.replans']} replans, "
                f"untraced {report.value!r} after {report.reallocations}"
            )

    sims = []
    start = time.perf_counter()
    # a traced run reports no rollout rate, and one span per call keeps simulate.ms per call
    min_simulate_s = MIN_SIMULATE_S if tracer is None else 0.0
    while not sims or time.perf_counter() - start < min_simulate_s:
        sims.append(pacer.time(_in_span(span, "simulate.simulate", simulate), jp, inp.rollouts, seed=ROLLOUT_SEED))
    sim = sims[0][0]
    if any(s.to_dict() != sim.to_dict() for s, _ in sims):
        problems.append("repeated rollouts with one seed disagree")

    if inp.joint_mission == inp.mission and inp.robots == 2:
        stapu_joint = report.value
    else:
        stapu_joint = run_stapu_with_realloc([inp.model] * 2, inp.joint_mission, epsilon=EPSILON)[1].value
    mm, build_t = pacer.time(_in_span(span, "baseline.build_mamdp", build_mamdp), [inp.model] * 2, inp.joint_mission)
    (joint_value, _), solve_t = pacer.time(_in_span(span, "baseline.solve_mamdp", solve_mamdp), mm, epsilon=EPSILON)

    replan_ms = []
    if tracer is not None:
        # solve_mamdp reports no sweep count; a sibling solve off the timed path does
        with span("baseline.max_reach"):
            res = max_reach(mm.mdp, mm.accepting, mm.violating, epsilon=EPSILON)
        totals = run_totals(tracer.spans, tracer.run)
        replan_ms = [duration_ms(s) for s in tracer.spans
                     if s["run"] == tracer.run and s["name"] == "realloc.replan"]

        def ms(name):
            return totals.get(name, (0.0, 0.0))[0]

        layers.update({
            "dfa.compile_ms": ms("product.compile_mission"),
            "product.build_ms": ms("product.local_product"),
            "team.build_ms": ms("team.build_team"),
            "team.solve_ms": ms("team.solve_stapu"),
            "mdp.max_reach_ms": ms("mdp.max_reach"),
            "realloc.sync_ms": ms("realloc.synchronize"),
            "realloc.survey_ms": ms("realloc.find_realloc_points") + ms("realloc.mission_masses"),
            "simulate.ms": ms("simulate.simulate"),
            "simulate.rollouts": inp.rollouts,
            "simulate.mean_triggers": sim.mean_triggers,
            "baseline.build_ms": ms("baseline.build_mamdp"),
            "baseline.solve_ms": ms("baseline.solve_mamdp"),
            "baseline.states": mm.num_states,
            "baseline.transitions": mm.mdp.transition_count(),
            "baseline.sweeps": res.iterations,
            # wall against wall: spans and untraced plans are both unpaced
            "trace.overhead_ms": ms("plan") - statistics.median(t.wall_s for t in plans) * 1000.0,
        })
        for name in SPAN_NAMES:
            layers[f"self_ms.{name}"] = totals.get(name, (0.0, 0.0))[1]

    return Outcome(
        guarantee=report.value,
        log=[entry["guarantee"] for entry in report.log],
        masses=mission_masses(jp),
        frequency=sim.frequency,
        rollouts=sim.runs,
        stapu_joint=stapu_joint,
        joint_value=joint_value,
        seconds={
            # the first guarantee is logged early inside the plan call
            "first_guarantee_s": [t.paced_lead(r.log[0]["elapsed_ms"] / 1000.0) for r, t in zip(reports, plans)],
            "plan_s": [t.paced_s for t in plans],
            "simulate_s": [t.paced_s for _, t in sims],
            "joint_s": [build_t.paced_s + solve_t.paced_s],
        },
        wall_seconds={
            "plan_s": [t.wall_s for t in plans],
            "simulate_s": [t.wall_s for _, t in sims],
            "joint_s": [build_t.wall_s + solve_t.wall_s],
        },
        layers=layers,
        replan_ms=replan_ms,
        problems=problems,
    )


def _traced_plan(inp, tracer):
    """`run_stapu_with_realloc` call by call, one span per call.

    Returns the joint policy, the plan's per-layer counts, and the
    guarantee the plan reached.
    """
    models = [inp.model] * inp.robots
    counts = {"dfa.states": 0, "product.states": 0, "product.transitions": 0,
              "team.builds": 0, "team.states": 0, "team.transitions": 0}
    keys = []

    def team_plan(products, **kwargs):
        with tracer.span("team.build_team"):
            team = build_team(products, **kwargs)
        counts["team.builds"] += 1
        counts["team.states"] += team.num_states
        counts["team.transitions"] += team.mdp.transition_count()
        with tracer.span("team.solve_stapu"):
            return team, solve_stapu(team, epsilon=EPSILON)

    with tracer.span("plan"):
        for r, model in enumerate(models):
            if not check_class(model):
                raise UnsupportedModelError(f"robot {r}: actions must be deterministic or two-outcome failures")
        with tracer.span("product.compile_mission"):
            shared = compile_mission(inp.mission)
        tasks, safety = shared
        counts["dfa.states"] = sum(d.num_states for d in tasks) + (safety.num_states if safety is not None else 0)
        products = []
        for model in models:
            with tracer.span("product.local_product"):
                pm = local_product(model, inp.mission, automata=shared)
            counts["product.states"] += pm.num_states
            counts["product.transitions"] += pm.mdp.transition_count()
            products.append(pm)
        team, sol = team_plan(products)
        with tracer.span("realloc.synchronize"):
            jp = synchronize(sol)
        with tracer.span("realloc.mission_masses"):
            mission_masses(jp)
        while True:
            with tracer.span("realloc.find_realloc_points"):
                points = find_realloc_points(jp)
            if not points:
                break
            point = points[0]
            keys.append((point.positions, point.q, point.robot, point.failed))
            with tracer.span("realloc.replan"):
                _, sub = team_plan(products, entries=list(point.positions), start_robot=point.robot,
                                   start_q=point.q, failed=point.failed)
                point.mark_addressed()
            with tracer.span("realloc.synchronize"):
                cont = synchronize(sub, q0=point.q)
            with tracer.span("realloc.graft"):
                jp.graft(point, cont)
            with tracer.span("realloc.mission_masses"):
                mission_masses(jp)
        with tracer.span("realloc.mission_masses"):
            guarantee = mission_masses(jp)[0]

    # solve_stapu runs max_reach inside; a sibling call on the initial team
    # model, off the timed plan, exposes its time and region sizes
    with tracer.span("mdp.max_reach"):
        res = max_reach(team.mdp, team.accepting, team.violating, epsilon=EPSILON)
    counts.update({
        "mdp.sweeps": res.iterations,
        "mdp.prob0_states": len(res.zero),
        "mdp.prob1_states": len(res.almost_sure),
        "mdp.mid_states": team.num_states - len(res.zero) - len(res.almost_sure),
        "realloc.chain_nodes": sum(len(c.nodes) for c in jp.chains),
        "realloc.replans": len(keys),
        "realloc.distinct_replans": len(set(keys)),
        "realloc.useful_replan_ratio": len(set(keys)) / len(keys) if keys else 1.0,
    })
    return jp, counts, guarantee
