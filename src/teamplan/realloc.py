"""Joint execution of a team plan with failure-driven reallocation.

The solved team model moves one robot at a time. At execution time every
robot runs its own program (`StapuSolution.programs`) simultaneously, so
this module rebuilds the plan as a synchronized Markov chain over joint
states: one map position per robot plus a single shared automaton vector,
advanced once per step on the union of the labels of all robots' current
positions. It executes only robots that pass `team.check_class`, the one
gate of the deterministic-or-fail class; `_require_class` raises
`UnsupportedModelError` for any other. Union semantics credits a task
even when a robot other than the allocated one walks over its atom;
instances meant for exact comparisons should keep task atoms off the
other robots' paths.

States where a robot has just broken down become absorbing reallocation
points. Addressing a point solves a fresh team model from the robots'
current positions and grafts the synchronized continuation onto the
point, so the guarantee improves monotonically and unaddressed points
count as failures. A replan depends only on the point's positions,
automaton vector, start robot and failed set, so each distinct replan is
solved once per plan and a fresh copy of its continuation is grafted at
every point that shares it; the joint policy stays a tree.
"""

import itertools
import time
from dataclasses import dataclass, field

from .mdp import PROB_ATOL
from .product import local_products
from .team import build_team, check_class, solve_stapu

EXECUTING = "executing"
DONE = "done"
FAILED = "failed"
IDLE = "idle"

STEP = "step"
SUCCESS = "success"
VIOLATED = "violated"
POINT = "point"
DEAD = "dead"
KINDS = (STEP, SUCCESS, VIOLATED, POINT, DEAD)


class UnsupportedModelError(ValueError):
    """Inputs outside the deterministic-or-fail class the executor covers."""


@dataclass
class JointNode:
    t: int
    positions: tuple
    statuses: tuple
    q: tuple
    kind: str
    actions: tuple | None = None
    steps: list = field(default_factory=list)
    fresh: tuple = ()
    mass: float = 0.0
    addressed: bool = False
    child: object = None

    def to_dict(self, chain_index):
        out = {
            "t": self.t,
            "positions": list(self.positions),
            "statuses": list(self.statuses),
            "q": list(self.q),
            "kind": self.kind,
            "steps": [[p, j] for p, j in self.steps],
        }
        if self.actions is not None:
            out["actions"] = list(self.actions)
        if self.fresh:
            out["fresh"] = list(self.fresh)
        if self.child is not None:
            out["child"] = chain_index[id(self.child)]
        return out


class JointChain:
    """One synchronized chain. Node 0 is the root; successors are appended
    after their parent, so list order is topological."""

    def __init__(self, nodes):
        self.nodes = nodes
        self._propagate()

    def _propagate(self):
        for nd in self.nodes:
            nd.mass = 0.0
        self.nodes[0].mass = 1.0
        success = failure = 0.0
        points = []
        for i, nd in enumerate(self.nodes):
            if nd.kind == STEP:
                for p, j in nd.steps:
                    self.nodes[j].mass += nd.mass * p
            elif nd.kind == SUCCESS:
                success += nd.mass
            elif nd.kind == POINT:
                points.append(i)
            else:
                failure += nd.mass
        self.success_mass = success
        self.failure_mass = failure
        self.point_indices = points


class ReallocPoint:
    """A joint state some robot just failed in."""

    def __init__(self, chain, node_index, robot, prob):
        self.chain = chain
        self.node_index = node_index
        self.robot = robot
        self.prob = prob

    @property
    def node(self):
        return self.chain.nodes[self.node_index]

    @property
    def positions(self):
        return self.node.positions

    @property
    def q(self):
        return self.node.q

    @property
    def failed(self):
        return frozenset(r for r, st in enumerate(self.node.statuses) if st == FAILED)

    @property
    def addressed(self):
        return self.node.addressed or self.node.child is not None

    def mark_addressed(self):
        self.node.addressed = True


class JointPolicy:
    """Grafted tree of synchronized chains. Chain 0 is the initial plan."""

    def __init__(self, chains, robots):
        self.chains = list(chains)
        self.robots = robots

    def graft(self, point, continuation):
        if point.node.child is not None:
            raise ValueError("reallocation point already grafted")
        point.node.child = continuation.chains[0]
        self.chains.extend(continuation.chains)

    def base_masses(self):
        """Absolute reach probability of each chain's root, keyed by id."""
        base = {id(self.chains[0]): 1.0}
        for chain in self.chains:
            here = base.get(id(chain))
            if here is None:
                continue
            for nd in chain.nodes:
                if nd.child is not None:
                    base[id(nd.child)] = here * nd.mass
        return base


def _copy_chain(chain):
    """An ungrafted copy of a chain: new nodes with their own step lists."""
    return JointChain([
        JointNode(t=nd.t, positions=nd.positions, statuses=nd.statuses, q=nd.q, kind=nd.kind,
                  actions=nd.actions, steps=list(nd.steps), fresh=nd.fresh)
        for nd in chain.nodes
    ])


def _classify(automata, q, statuses, fresh):
    if automata.accepting(q):
        return SUCCESS
    if automata.violating(q):
        return VIOLATED
    if fresh and any(st != FAILED for st in statuses):
        return POINT
    if any(st == EXECUTING for st in statuses):
        return STEP
    return DEAD


def _expand(team, models, progs, node, nodes):
    n = len(models)
    movers = []
    opts = []
    names = []
    for r in range(n):
        if node.statuses[r] != EXECUTING:
            names.append(IDLE)
            continue
        _, succ, pfail, name = progs[r][node.t]
        names.append(name)
        movers.append(r)
        branch = [] if succ is None else [(succ, 1.0 - pfail, False)]
        if pfail > 0.0:
            branch.append((models[r].failure_state, pfail, True))
        opts.append(branch)
    node.actions = tuple(names)
    for combo in itertools.product(*opts):
        prob = 1.0
        pos = list(node.positions)
        sts = list(node.statuses)
        fresh = []
        for r, (tgt, p, died) in zip(movers, combo):
            prob *= p
            pos[r] = tgt
            if died:
                sts[r] = FAILED
                fresh.append(r)
            elif node.t + 1 >= len(progs[r]):
                sts[r] = DONE
        q = team.automata.advance_joint(node.q, models, pos)
        child = JointNode(
            t=node.t + 1,
            positions=tuple(pos),
            statuses=tuple(sts),
            q=q,
            kind=_classify(team.automata, q, sts, fresh),
            fresh=tuple(fresh),
        )
        node.steps.append((prob, len(nodes)))
        nodes.append(child)


def _build_chain(sol, q0):
    team = sol.team
    models = [p.source for p in team.products]
    statuses = [FAILED if r in team.failed else EXECUTING if prog else DONE
                for r, prog in enumerate(sol.programs)]
    q0 = tuple(team.automata.start(models, team.entries) if q0 is None else q0)
    root = JointNode(
        t=0,
        positions=tuple(team.entries),
        statuses=tuple(statuses),
        q=q0,
        kind=_classify(team.automata, q0, statuses, ()),
    )
    nodes = [root]
    i = 0
    while i < len(nodes):
        if nodes[i].kind == STEP:
            _expand(team, models, sol.programs, nodes[i], nodes)
        i += 1
    return JointChain(nodes)


def synchronize(sol, q0=None):
    """Rebuild a plan as the chain of simultaneous per-robot steps.

    `q0` overrides the automaton vector of the joint start; by default it
    is the mission start advanced once with the union of the robots'
    entry labels. Continuations grafted at a reallocation point pass the
    point's vector, which already accounts for every robot's position.
    """
    _require_class([p.source for p in sol.team.products])
    return JointPolicy([_build_chain(sol, q0)], robots=len(sol.team.products))


def _require_class(models):
    """Raise unless every distinct model passes `check_class`."""
    checked = set()
    for r, model in enumerate(models):
        if id(model) in checked:
            continue
        checked.add(id(model))
        if not check_class(model):
            raise UnsupportedModelError(
                f"robot {r}: actions must be deterministic or two-outcome splits with "
                f"the failure state, and the failure state must be absorbing"
            )


def _survey(jp):
    """Totals over the grafted tree plus every ungrafted point."""
    base = jp.base_masses()
    success = failure = 0.0
    points = []
    for chain in jp.chains:
        here = base.get(id(chain))
        if here is None:
            continue
        success += here * chain.success_mass
        failure += here * chain.failure_mass
        for i in chain.point_indices:
            nd = chain.nodes[i]
            if nd.child is None:
                points.append(ReallocPoint(chain, i, min(nd.fresh), here * nd.mass))
    return success, failure, points


def _totals(survey):
    success, failure, points = survey
    return success, failure, sum(p.prob for p in points)


def _pending(jp, points):
    order = {id(c): k for k, c in enumerate(jp.chains)}
    points = [p for p in points if not p.addressed]
    points.sort(key=lambda p: (-p.prob, order[id(p.chain)], p.node_index))
    return points


def mission_masses(jp):
    """(success, failure, unaddressed) over the current joint policy."""
    return _totals(_survey(jp))


def find_realloc_points(jp):
    """Ungrafted, unaddressed points, highest reach probability first.

    Probabilities are absolute, propagated forward through the grafted
    tree. Ties keep graft-then-discovery order.
    """
    return _pending(jp, _survey(jp)[2])


def solve_realloc(point, products, epsilon=1e-6):
    """Replan from a failure: fresh team model whose entries are the
    robots' current positions, started at the failed robot so the ring
    hands its tasks onward."""
    team = build_team(
        products,
        entries=list(point.positions),
        start_robot=point.robot,
        start_q=point.q,
        failed=point.failed,
    )
    sol = solve_stapu(team, epsilon=epsilon)
    point.mark_addressed()
    return sol


@dataclass
class GuaranteeReport:
    value: float
    initial_value: float
    reallocations: int
    solves: int
    unaddressed: float
    failure: float
    log: list
    wall_ms: float

    def to_dict(self):
        return {
            "value": self.value,
            "initial_value": self.initial_value,
            "reallocations": self.reallocations,
            "solves": self.solves,
            "unaddressed": self.unaddressed,
            "failure": self.failure,
            "wall_ms": self.wall_ms,
            "log": self.log,
        }


def _log_entry(survey, reallocations, point_prob, new_value, t0):
    success, failure, unaddressed = _totals(survey)
    return {
        "reallocations": reallocations,
        "point_probability": point_prob,
        "value": new_value,
        "guarantee": success,
        "success": success,
        "failure": failure,
        "unaddressed": unaddressed,
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    }


def run_stapu_with_realloc(models, mission, max_realloc=None, time_limit=None, epsilon=1e-6):
    """Plan, synchronize, then keep addressing the most probable failure
    until none remain or the budget runs out. Returns the grafted joint
    policy and the guarantee it supports; whatever stays unaddressed is
    counted as failure, so stopping early only understates the value.

    `reallocations` counts the points addressed and `solves` the team
    models solved, the initial plan included: points that share a replan
    key share one solve.
    """
    t0 = time.perf_counter()
    _require_class(models)
    products = local_products(models, mission)
    sol = solve_stapu(build_team(products), epsilon=epsilon)
    jp = synchronize(sol)
    # replan key -> (sub-plan value, ungrafted continuation chain)
    replans = {}
    survey = _survey(jp)
    log = [_log_entry(survey, 0, None, sol.value, t0)]
    reallocations = 0
    while max_realloc is None or reallocations < max_realloc:
        if time_limit is not None and time.perf_counter() - t0 > time_limit:
            break
        points = _pending(jp, survey[2])
        if not points:
            break
        point = points[0]
        key = (point.positions, point.q, point.robot, point.failed)
        if key in replans:
            point.mark_addressed()
        else:
            sub = solve_realloc(point, products, epsilon=epsilon)
            replans[key] = (sub.value, synchronize(sub, q0=point.q).chains[0])
        value, template = replans[key]
        jp.graft(point, JointPolicy([_copy_chain(template)], robots=jp.robots))
        reallocations += 1
        survey = _survey(jp)
        log.append(_log_entry(survey, reallocations, point.prob, value, t0))
    success, failure, unaddressed = _totals(survey)
    report = GuaranteeReport(
        value=success,
        initial_value=sol.value,
        reallocations=reallocations,
        solves=1 + len(replans),
        unaddressed=unaddressed,
        failure=failure,
        log=log,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return jp, report


def policy_to_dict(jp, report=None):
    index = {id(c): k for k, c in enumerate(jp.chains)}
    out = {
        "robots": jp.robots,
        "chains": [{"nodes": [nd.to_dict(index) for nd in c.nodes]} for c in jp.chains],
    }
    if report is not None:
        out["report"] = report.to_dict()
    return out


def _index(value, where, what="target"):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: {what} {value!r} is not an integer")
    return value


def _array(value, where, what):
    if not isinstance(value, list):
        raise ValueError(f"{where}: {what} {value!r} is not a list")
    return value


def _object(value, where, what):
    if not isinstance(value, dict):
        raise ValueError(f"{where}: {what} {value!r} is not an object")
    return value


def _step(step, where):
    if len(_array(step, where, "step")) != 2:
        raise ValueError(f"{where}: step {step!r} is not a [probability, target] pair")
    return _probability(step[0], where), _index(step[1], where)


def _probability(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{where}: step probability {value!r} is not in [0, 1]")
    return value


def policy_from_dict(data):
    """Rebuild a saved joint policy. Steps must point forward within their
    chain and children to a later chain, the order mass propagation and
    rollouts rely on; only step nodes have steps, with probabilities in
    [0, 1] that sum to 1. Anything else raises ValueError ("malformed
    policy")."""
    if not _array(_object(data, "malformed policy", "policy")["chains"], "malformed policy", "chains"):
        raise ValueError("malformed policy: no chains")
    chains = []
    links = []
    num_chains = len(data["chains"])
    for ci, cd in enumerate(data["chains"]):
        where = f"malformed policy: chain {ci}"
        if not _array(_object(cd, where, "chain")["nodes"], where, "nodes"):
            raise ValueError(f"{where} has no nodes")
        nodes = []
        for ni, nd in enumerate(cd["nodes"]):
            where = f"malformed policy: chain {ci}, node {ni}"
            if _object(nd, where, "node")["kind"] not in KINDS:
                raise ValueError(f"{where}: unknown kind {nd['kind']!r}")
            node = JointNode(
                t=_index(nd["t"], where, "time"),
                positions=tuple(_array(nd["positions"], where, "positions")),
                statuses=tuple(_array(nd["statuses"], where, "statuses")),
                q=tuple(_array(nd["q"], where, "q")),
                kind=nd["kind"],
                actions=tuple(_array(nd["actions"], where, "actions")) if "actions" in nd else None,
                fresh=tuple(_array(nd.get("fresh", []), where, "fresh")),
            )
            node.steps = [_step(step, where) for step in _array(nd["steps"], where, "steps")]
            for _, j in node.steps:
                if not ni < j < len(cd["nodes"]):
                    raise ValueError(f"{where}: step target {j} out of range")
            if node.kind != STEP and node.steps:
                raise ValueError(f"{where}: a {node.kind} node has steps")
            total = sum(p for p, _ in node.steps)
            if node.kind == STEP and abs(total - 1.0) > PROB_ATOL:
                raise ValueError(f"{where}: step probabilities sum to {total!r}, not 1")
            if "child" in nd:
                if not ci < _index(nd["child"], where, "child chain") < num_chains:
                    raise ValueError(f"{where}: child chain {nd['child']} out of range")
                links.append((ci, ni, nd["child"]))
            nodes.append(node)
        chains.append(JointChain(nodes))
    for ci, ni, target in links:
        chains[ci].nodes[ni].child = chains[target]
    return JointPolicy(chains, robots=data["robots"])
