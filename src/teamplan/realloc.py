"""Joint execution of a team plan with failure-driven reallocation.

The solved team model moves one robot at a time. At execution time every
robot runs its own program (`StapuSolution.programs`) simultaneously, so
this module rebuilds the plan as a synchronized Markov chain over joint
states: one map position per robot plus a single shared automaton vector,
whose id advances once per step on the union of the labels of all robots'
current positions (`Automata.joint_label`). It executes only robots that
pass `team.check_class`, the one gate of the deterministic-or-fail class;
`_require_class` raises `UnsupportedModelError` for any other. Union
semantics credits a task even when a robot other than the allocated one
walks over its atom; instances meant for exact comparisons should keep
task atoms off the other robots' paths.

States where a robot has just broken down become absorbing reallocation
points. Addressing a point solves a fresh team model from the robots'
current positions and grafts the synchronized continuation onto the
point, so the guarantee improves monotonically and unaddressed points
count as failures. A replan depends only on the point's positions,
automaton vector, start robot and failed set, so each distinct replan is
solved once per plan and a fresh copy of its continuation is grafted at
every point that shares it; the joint policy stays a tree.

The `JointPolicy` keeps running success and failure totals and the
ungrafted points in (chain, node) order. A graft surveys only the chains
it appends, each root entered with the absolute mass of its point, so it
costs the new chain plus the pending points; `mission_masses`,
`find_realloc_points` and the replan loop read that survey.
"""

import itertools
import time

from .ltl import _shown
from .mdp import AVOID, EPSILON, PROB_ATOL, TARGET, _integer, _typed
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


class JointNode:
    def __init__(self, t, positions, statuses, q, kind, actions=None, steps=None, fresh=(), mass=0.0, child=None):
        self.t = t
        self.positions = positions
        self.statuses = statuses
        self.q = q
        self.kind = kind
        self.actions = actions
        self.steps = [] if steps is None else steps
        self.fresh = fresh
        self.mass = mass
        self.child = child

    def to_dict(self, chain_index):
        out = {"t": self.t, "positions": list(self.positions), "statuses": list(self.statuses), "q": list(self.q),
               "kind": self.kind, "steps": [[p, j] for p, j in self.steps]}
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
        for nd in self.nodes:
            nd.mass = 0.0
        self.nodes[0].mass = 1.0
        self.success_mass = self.failure_mass = 0.0
        self.point_indices = []
        for i, nd in enumerate(self.nodes):
            if nd.kind == STEP:
                for p, j in nd.steps:
                    self.nodes[j].mass += nd.mass * p
            elif nd.kind == SUCCESS:
                self.success_mass += nd.mass
            elif nd.kind == POINT:
                self.point_indices.append(i)
            else:
                self.failure_mass += nd.mass


class ReallocPoint:
    """A joint state some robot just failed in, node `node_index` of
    `chain`, reached with absolute probability `prob`. `addressed` is set
    once a replan is assigned to it."""

    def __init__(self, chain, node_index, robot, prob, addressed=False):
        self.chain = chain
        self.node_index = node_index
        self.robot = robot
        self.prob = prob
        self.addressed = addressed

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

    def mark_addressed(self):
        self.addressed = True


class JointPolicy:
    """Grafted tree of synchronized chains, chain 0 the initial plan, and
    its survey: `success` and `failure` summed in chain order, `pending`."""

    def __init__(self, chains, robots):
        self.chains = list(chains)
        self.robots = robots
        self.success = self.failure = 0.0
        self.pending = []
        self._survey(self.chains, {id(self.chains[0]): 1.0})

    def _survey(self, chains, base):
        """Add `chains` to the survey, each entered with its mass in `base`
        (by chain id), which grafted points add to; a chain grafted at no
        point is skipped."""
        for chain in chains:
            here = base.get(id(chain))
            if here is None:
                continue
            self.success += here * chain.success_mass
            self.failure += here * chain.failure_mass
            for i in chain.point_indices:
                nd = chain.nodes[i]
                if nd.child is None:
                    self.pending.append(ReallocPoint(chain, i, min(nd.fresh), here * nd.mass))
                else:
                    base[id(nd.child)] = here * nd.mass

    def graft(self, point, continuation):
        """Graft `continuation`, a joint policy or one ungrafted chain, at
        `point`, one of `pending`, and survey its chains."""
        k = next((k for k, p in enumerate(self.pending) if p is point), None)
        if k is None:
            raise ValueError("reallocation point already grafted, or not one of this policy's")
        chains = [continuation] if isinstance(continuation, JointChain) else continuation.chains
        point.node.child = chains[0]
        self.chains.extend(chains)
        self._survey(chains, {id(chains[0]): self.pending.pop(k).prob})


def _copy_chain(chain):
    """An ungrafted copy of a chain: new nodes with their own step lists,
    and the chain's masses taken from it, not propagated again."""
    dup = object.__new__(JointChain)  # positional node fields: twice as fast as keywords
    dup.__dict__.update(chain.__dict__, nodes=[JointNode(nd.t, nd.positions, nd.statuses, nd.q, nd.kind, nd.actions,
                                                         list(nd.steps), nd.fresh, nd.mass) for nd in chain.nodes])
    return dup


def _classify(automata, v, statuses, fresh):
    kind = automata.classes_of(v)
    if kind == TARGET:
        return SUCCESS
    if kind == AVOID:
        return VIOLATED
    if fresh and any(st != FAILED for st in statuses):
        return POINT
    if any(st == EXECUTING for st in statuses):
        return STEP
    return DEAD


def _expand(automata, models, progs, node, v, nodes, vids):
    """Append the children of `node`, of vector id `v`, to `nodes` and their ids to `vids`."""
    movers = []
    opts = []
    names = []
    for r in range(len(models)):
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
        w = automata.advance(v, automata.joint_label(models, pos))
        child = JointNode(node.t + 1, tuple(pos), tuple(sts), automata.vectors[w], _classify(automata, w, sts, fresh),
                          None, [], tuple(fresh))  # positional: twice as fast as keywords
        node.steps.append((prob, len(nodes)))
        nodes.append(child)
        vids.append(w)


def _build_chain(sol, v0):
    """`sol`'s chain from the vector of id `v0`, or from the mission start when it is None."""
    team = sol.team
    automata = team.automata
    models = [p.source for p in team.products]
    statuses = [FAILED if r in team.failed else EXECUTING if prog else DONE
                for r, prog in enumerate(sol.programs)]
    if v0 is None:
        v0 = automata.start(models, team.entries)
    nodes = [JointNode(0, tuple(team.entries), tuple(statuses), automata.vectors[v0],
                       _classify(automata, v0, statuses, ()))]
    vids = [v0]
    for node, v in zip(nodes, vids):  # breadth first: both lists grow as nodes are expanded
        if node.kind == STEP:
            _expand(automata, models, sol.programs, node, v, nodes, vids)
    return JointChain(nodes)


def synchronize(sol, q0=None):
    """Rebuild a plan as the chain of simultaneous per-robot steps.

    `q0` overrides the automaton vector of the joint start; by default it
    is the mission start advanced once with the union of the robots'
    entry labels. Continuations grafted at a reallocation point pass the
    point's vector, which already accounts for every robot's position.
    """
    _require_class([p.source for p in sol.team.products])
    v0 = None if q0 is None else sol.team.automata.vector_id(tuple(q0))
    return JointPolicy([_build_chain(sol, v0)], robots=len(sol.team.products))


def _require_class(models):
    """Raise unless every distinct model passes `check_class`."""
    checked = set()
    for r, model in enumerate(models):
        if id(model) in checked:
            continue
        checked.add(id(model))
        if not check_class(model):
            raise UnsupportedModelError(f"robot {r}: actions must be deterministic or two-outcome splits with "
                                        f"the failure state, and the failure state must be absorbing")


def mission_masses(jp):
    """(success, failure, unaddressed) over the current joint policy."""
    return jp.success, jp.failure, sum(p.prob for p in jp.pending)


def find_realloc_points(jp):
    """Ungrafted points, highest absolute reach probability first; ties
    keep (chain, node) order, that is graft-then-discovery order."""
    return sorted(jp.pending, key=lambda p: -p.prob)


def solve_realloc(point, products, epsilon=EPSILON):
    """Replan from a failure: fresh team model whose entries are the
    robots' current positions, started at the failed robot so the ring
    hands its tasks onward."""
    team = build_team(products, entries=list(point.positions), start_robot=point.robot, start_q=point.q,
                      failed=point.failed)
    sol = solve_stapu(team, epsilon=epsilon)
    point.mark_addressed()
    return sol


class GuaranteeReport:
    def __init__(self, value, initial_value, reallocations, solves, unaddressed, failure, wall_ms, log):
        self.value = value
        self.initial_value = initial_value
        self.reallocations = reallocations
        self.solves = solves
        self.unaddressed = unaddressed
        self.failure = failure
        self.wall_ms = wall_ms
        self.log = log  # a `_log_entry` dict for the initial plan and for each reallocation

    def to_dict(self):
        return {"value": self.value, "initial_value": self.initial_value, "reallocations": self.reallocations,
                "solves": self.solves, "unaddressed": self.unaddressed, "failure": self.failure,
                "wall_ms": self.wall_ms, "log": [dict(entry) for entry in self.log]}


def _log_entry(jp, reallocations, point_prob, new_value, t0):
    success, failure, unaddressed = mission_masses(jp)
    return {"reallocations": reallocations, "point_probability": point_prob, "value": new_value,
            "guarantee": success, "success": success, "failure": failure, "unaddressed": unaddressed,
            "elapsed_ms": (time.perf_counter() - t0) * 1000.0}


def run_stapu_with_realloc(models, mission, max_realloc=None, time_limit=None, epsilon=EPSILON):
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
    # the models are checked above, so the chains are built directly
    jp = JointPolicy([_build_chain(sol, None)], robots=len(models))
    # replan key -> (sub-plan value, ungrafted continuation chain)
    replans = {}
    log = [_log_entry(jp, 0, None, sol.value, t0)]
    reallocations = 0
    while jp.pending and (max_realloc is None or reallocations < max_realloc):
        if time_limit is not None and time.perf_counter() - t0 > time_limit:
            break
        point = max(jp.pending, key=lambda p: p.prob)  # the first most probable, as `find_realloc_points` orders
        key = (point.positions, point.q, point.robot, point.failed)
        if key not in replans:
            sub = solve_realloc(point, products, epsilon=epsilon)
            replans[key] = (sub.value, _build_chain(sub, int(sub.team.vector_ids[0])))  # the id of point.q
        point.mark_addressed()
        value, template = replans[key]
        jp.graft(point, _copy_chain(template))
        reallocations += 1
        log.append(_log_entry(jp, reallocations, point.prob, value, t0))
    success, failure, unaddressed = mission_masses(jp)
    report = GuaranteeReport(value=success, initial_value=sol.value, reallocations=reallocations,
                             solves=1 + len(replans), unaddressed=unaddressed, failure=failure, log=log,
                             wall_ms=(time.perf_counter() - t0) * 1000.0)
    return jp, report


def policy_to_dict(jp, report=None):
    index = {id(c): k for k, c in enumerate(jp.chains)}
    out = {"robots": jp.robots, "chains": [{"nodes": [nd.to_dict(index) for nd in c.nodes]} for c in jp.chains]}
    if report is not None:
        out["report"] = report.to_dict()
    return out


def _step(step, where):
    if len(_typed(step, list, f"{where}: step")) != 2:
        raise ValueError(f"{where}: step {_shown(step)} is not a [probability, target] pair")
    p = step[0]
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
        raise ValueError(f"{where}: step probability {_shown(p)} is not in [0, 1]")
    return p, _integer(step[1], f"{where}: target")


def policy_from_dict(data):
    """Rebuild a saved joint policy: `robots` is a positive integer, and a
    node has one position and status per robot. Steps must point forward
    within their chain and children to a later chain, the order mass
    propagation and rollouts rely on; only step nodes have steps, with
    probabilities in [0, 1] that sum to 1, and only reallocation points
    have children, each chain but the first one point's. A point names
    fresh robots, all in range. Anything else raises ValueError
    ("malformed policy")."""
    try:
        robots = _integer(_typed(data, dict, "malformed policy: policy")["robots"], "malformed policy: robots")
        if robots < 1:
            raise ValueError(f"malformed policy: robots {robots} is not positive")
        if not _typed(data["chains"], list, "malformed policy: chains"):
            raise ValueError("malformed policy: no chains")
        chains = [JointChain(_nodes(ci, cd, robots, len(data["chains"]))) for ci, cd in enumerate(data["chains"])]
    except KeyError as e:
        raise ValueError(f"malformed policy: missing key {e}") from None
    grafted = set()
    for ci, chain in enumerate(chains):
        for ni, node in enumerate(chain.nodes):
            if node.child is None:
                continue
            if node.child in grafted:
                raise ValueError(f"malformed policy: chain {ci}, node {ni}: child chain {node.child} "
                                 f"is grafted at two points")
            grafted.add(node.child)
            node.child = chains[node.child]
    if len(grafted) < len(chains) - 1:
        raise ValueError(f"malformed policy: chain {min(set(range(1, len(chains))) - grafted)} is grafted nowhere")
    return JointPolicy(chains, robots=robots)


def _nodes(ci, cd, robots, num_chains):
    """Chain `ci`'s nodes, children as chain indices."""
    where = f"malformed policy: chain {ci}"
    if not _typed(_typed(cd, dict, f"{where}: chain")["nodes"], list, f"{where}: nodes"):
        raise ValueError(f"{where} has no nodes")
    nodes = []
    for ni, nd in enumerate(cd["nodes"]):
        where = f"malformed policy: chain {ci}, node {ni}"
        if _typed(nd, dict, f"{where}: node")["kind"] not in KINDS:
            raise ValueError(f"{where}: unknown kind {_shown(nd['kind'])}")
        node = JointNode(
            t=_integer(nd["t"], f"{where}: time"),
            positions=tuple(_typed(nd["positions"], list, f"{where}: positions")),
            statuses=tuple(_typed(nd["statuses"], list, f"{where}: statuses")),
            q=tuple(_typed(nd["q"], list, f"{where}: q")),
            kind=nd["kind"],
            actions=tuple(_typed(nd["actions"], list, f"{where}: actions")) if "actions" in nd else None,
            fresh=tuple(_typed(nd.get("fresh", []), list, f"{where}: fresh")),
        )
        if len(node.positions) != robots or len(node.statuses) != robots:
            raise ValueError(f"{where}: positions and statuses not one per robot")
        if not all(0 <= _integer(r, f"{where}: fresh robot") < robots for r in node.fresh) or (
                node.kind == POINT and not node.fresh):
            raise ValueError(f"{where}: fresh robots {_shown(list(node.fresh))} out of range or missing")
        node.steps = [_step(step, where) for step in _typed(nd["steps"], list, f"{where}: steps")]
        for _, j in node.steps:
            if not ni < j < len(cd["nodes"]):
                raise ValueError(f"{where}: step target {j} out of range")
        if node.kind != STEP and node.steps:
            raise ValueError(f"{where}: a {node.kind} node has steps")
        total = sum(p for p, _ in node.steps)
        if node.kind == STEP and abs(total - 1.0) > PROB_ATOL:
            raise ValueError(f"{where}: step probabilities sum to {total!r}, not 1")
        if "child" in nd:
            if not ci < _integer(nd["child"], f"{where}: child chain") < num_chains:
                raise ValueError(f"{where}: child chain {nd['child']} out of range")
            if node.kind != POINT:
                raise ValueError(f"{where}: a {node.kind} node has a child chain")
            node.child = nd["child"]
        nodes.append(node)
    return nodes
