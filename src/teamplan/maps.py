"""Benchmark map models: topological graphs with designated failure points.

A map is an undirected connected graph walked by one robot. Every edge
gives a movement action in each direction; actions leaving a failure
point lose the robot to the designated failure state with a fixed
probability, all other moves are deterministic, so every generated model
stays inside the deterministic-or-fail class. Placement of failure
points and atoms is seeded: the same spec always yields the same model.
"""

import math

import numpy as np

from .ltl import Mission, _Frozen, parse_formula
from .mdp import Arrays, Mdp, _frontier, _offsets

HAZARD_ATOM = "h"


class MapError(ValueError):
    pass


class MapSpec(_Frozen):
    """Parameters of one benchmark map.

    Counts drive seeded placement; the explicit fields override sampling
    when given (edges default to a near-square grid). Task atoms are
    named p1..pm in node order, hazard nodes all carry the shared atom
    "h" so one invariant like "G !h" covers them.
    """

    _defaults = {"nodes": 30, "failpoints": 5, "pfail": 0.1, "tasks": 3, "hazards": 0, "seed": 0,
                 "edges": None, "failure_nodes": None, "task_nodes": None, "hazard_nodes": None}
    __slots__ = tuple(_defaults)


def grid_edges(nodes):
    """Near-square grid filled row-major; 30 nodes gives the 5x6 default."""
    rows = max(1, math.isqrt(nodes))
    cols = math.ceil(nodes / rows)
    edges = []
    for i in range(nodes):
        if (i % cols) + 1 < cols and i + 1 < nodes:
            edges.append((i, i + 1))
        if i + cols < nodes:
            edges.append((i, i + cols))
    return tuple(edges)


def _placements(spec):
    """Resolve failure/task/hazard nodes, sampling whatever is not explicit.

    Sampling draws tasks first, then a permutation of the remaining
    nodes: failure points are its prefix and hazards its suffix, so
    raising `failpoints` at a fixed seed only adds failure points and
    moves nothing that was already placed. Node 0 is every robot's
    entry and is never sampled: an atom there would sit on a state a
    hand-over can re-enter without being credited.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.task_nodes is not None:
        task_nodes = [int(v) for v in spec.task_nodes]
    else:
        if spec.tasks > spec.nodes - 1:
            raise MapError(f"{spec.tasks} tasks need at least {spec.tasks + 1} nodes")
        task_nodes = sorted(
            int(v) for v in rng.choice(range(1, spec.nodes), size=spec.tasks, replace=False)
        )
    rest = [v for v in range(1, spec.nodes) if v not in set(task_nodes)]
    perm = [int(v) for v in rng.permutation(rest)] if rest else []
    if spec.failure_nodes is not None:
        failure_nodes = {int(v) for v in spec.failure_nodes}
    else:
        if spec.failpoints + spec.hazards > len(perm):
            raise MapError("not enough nodes left for failure points and hazards")
        failure_nodes = set(perm[: spec.failpoints])
    if spec.hazard_nodes is not None:
        hazard_nodes = [int(v) for v in spec.hazard_nodes]
    else:
        hazard_nodes = sorted(perm[len(perm) - spec.hazards :]) if spec.hazards else []
    return failure_nodes, task_nodes, hazard_nodes


def gen_map(spec):
    """Build the movement model a spec describes.

    The designated failure state is the extra last index, so a 30 node
    map yields 31 states. Rejects disconnected graphs and out-of-range
    placements; these checks and the construction make every model
    well formed and deterministic-or-fail, so it is not validated again.
    """
    n = spec.nodes
    if n < 2:
        raise MapError("a map needs at least two nodes")
    for name in ("failpoints", "tasks", "hazards"):
        if getattr(spec, name) < 0:
            raise MapError(f"{name} must not be negative, got {getattr(spec, name)}")
    edges = tuple(spec.edges) if spec.edges is not None else grid_edges(n)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise MapError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise MapError(f"self-loop edge at node {u}")
        adj[u].add(v)
        adj[v].add(u)
    degree = [len(a) for a in adj]
    moves = np.array([v for a in adj for v in sorted(a)], np.int64)  # action go{v} moves to v
    if 1 + sum(len(layer) for _, layer in _frontier((_offsets(degree), moves), np.arange(n) == 0)) < n:
        raise MapError("map graph is disconnected")
    failure_nodes, task_nodes, hazard_nodes = _placements(spec)
    for v in set(failure_nodes) | set(task_nodes) | set(hazard_nodes):
        if not (0 <= v < n):
            raise MapError(f"placed node {v} out of range")
    if failure_nodes and not (0.0 < spec.pfail < 1.0):
        raise MapError(f"failure probability {spec.pfail} outside (0, 1)")

    # the designated failure state only exists when something can reach it
    fail = n if failure_nodes else None
    risky = np.repeat([u in failure_nodes for u in range(n)], degree)
    out_start = _offsets(1 + risky)
    targets = np.full(out_start[-1], n, np.int32)  # a risky move's second outcome: the failure state
    targets[out_start[:-1]] = moves
    probs = np.ones(out_start[-1])
    probs[out_start[:-1][risky]], probs[out_start[1:][risky] - 1] = 1.0 - spec.pfail, spec.pfail
    arrays = Arrays(_offsets(degree + [0] * (fail is not None)), moves, out_start, targets, probs)

    atoms = [f"p{k + 1}" for k in range(len(task_nodes))] + [HAZARD_ATOM] * bool(hazard_nodes)
    labels = {}
    for v, atom in [*zip(task_nodes, atoms), *((v, HAZARD_ATOM) for v in hazard_nodes)]:
        labels.setdefault(v, set()).add(atom)

    return Mdp(
        len(arrays.row_start) - 1,
        0,
        [f"go{v}" for v in range(n)],
        arrays,
        atoms=tuple(atoms),
        labels=labels,
        failure_state=fail,
    )


def map_mission(spec):
    """The reachability mission a spec's atoms support."""
    tasks = len(spec.task_nodes) if spec.task_nodes is not None else spec.tasks
    if tasks < 1:
        raise MapError("a mission needs at least one task atom")
    hazards = len(spec.hazard_nodes) if spec.hazard_nodes is not None else spec.hazards
    return Mission(
        tasks=tuple(parse_formula(f"F p{k + 1}") for k in range(tasks)),
        safety=parse_formula(f"G !{HAZARD_ATOM}") if hazards else None,
    )
