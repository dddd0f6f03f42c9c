"""The benchmark's pinned workloads and the inputs each one plans over.

Every workload is one map instance from `teamplan.maps`, pinned by a
placement seed. The benchmark's `--seed` does not pick a new placement:
it picks a numbering of the map's nodes (node 0, every robot's entry,
stays 0) and goes into `MapSpec` as the renumbered grid edges and the
renumbered failure, task and hazard nodes. Renumbered instances are
isomorphic, so team sizes, replan counts and guarantees repeat on every
seed, while the program sees different state and action orders. With
fresh placements per seed the same realloc-wide recipe ranged from 56 to
210 replans and 1.3 to 4.5 s of planning over seeds 0-5, wider than any
regression bound the benchmark could hold.

Nothing from `teamplan` is imported at module level: `build_inputs` is
the benchmark's timed set-up, and it imports the package afresh each time.
"""

import importlib
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    robots: int
    tasks: int
    failpoints: int
    hazards: int
    placement_seed: int
    # tasks kept for the joint MAMDP reference solved by every mission
    # (2 robots); the full mission only fits on joint-baseline
    joint_tasks: int
    nodes: int = 30
    pfail: float = 0.1
    rollouts: int = 100_000


WORKLOADS = {
    w.name: w
    for w in (
        # one large STAPU solve (15,294 team states) and a single replan:
        # product, team build and max_reach carry the time
        Workload("plan-large", robots=2, tasks=9, failpoints=15, hazards=0, placement_seed=0, joint_tasks=1),
        # small team model but 120 replans over 8 distinct keys: the
        # replan loop and graft-heavy rollouts carry the time
        Workload("realloc-wide", robots=5, tasks=4, failpoints=20, hazards=0, placement_seed=1, joint_tasks=1),
        # the joint MAMDP of the full mission (6,968 states) with a safety
        # invariant, next to a cheap STAPU run it bounds from above
        Workload("joint-baseline", robots=2, tasks=3, failpoints=15, hazards=2, placement_seed=0, joint_tasks=3),
    )
}


@dataclass
class Inputs:
    model: object
    mission: object
    robots: int
    joint_mission: object  # the mission of the 2-robot joint reference
    rollouts: int


def _placements(model, maps, tasks):
    """Failure, task and hazard nodes of a generated map, read off the model."""
    fail = model.failure_state
    failure_nodes = [u for u in range(len(model.choices)) if u != fail and any(
        t == fail for c in model.choices[u] for t, _ in c.outcomes)]
    task_nodes = [next(v for v, lab in model.labels.items() if f"p{k + 1}" in lab) for k in range(tasks)]
    hazard_nodes = sorted(v for v, lab in model.labels.items() if maps.HAZARD_ATOM in lab)
    return failure_nodes, task_nodes, hazard_nodes


def build_inputs(w, seed):
    """Import teamplan from scratch and build `w`'s inputs renumbered by `seed`."""
    for name in [n for n in sys.modules if n == "teamplan" or n.startswith("teamplan.")]:
        del sys.modules[name]
    importlib.import_module("teamplan.cli")
    maps = importlib.import_module("teamplan.maps")
    ltl = importlib.import_module("teamplan.ltl")

    pinned = maps.MapSpec(nodes=w.nodes, failpoints=w.failpoints, pfail=w.pfail, tasks=w.tasks,
                          hazards=w.hazards, seed=w.placement_seed)
    failure_nodes, task_nodes, hazard_nodes = _placements(maps.gen_map(pinned), maps, w.tasks)
    perm = [0] + [int(v) for v in np.random.default_rng(seed).permutation(range(1, w.nodes))]
    spec = maps.MapSpec(
        nodes=w.nodes,
        pfail=w.pfail,
        seed=seed,
        edges=tuple((perm[u], perm[v]) for u, v in maps.grid_edges(w.nodes)),
        failure_nodes=tuple(sorted(perm[v] for v in failure_nodes)),
        task_nodes=tuple(perm[v] for v in task_nodes),
        hazard_nodes=tuple(sorted(perm[v] for v in hazard_nodes)),
    )
    model = maps.gen_map(spec)
    mission = maps.map_mission(spec)
    joint_mission = ltl.Mission(tasks=mission.tasks[: w.joint_tasks], safety=mission.safety)
    return Inputs(model, mission, w.robots, joint_mission, w.rollouts)
