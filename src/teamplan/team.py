"""Sequential team model: robot product spaces chained by switch transitions.

One robot plans at a time; a switch hands the whole automaton vector,
unchanged, to the next robot in the ring, which continues from its own
entry state. Switching costs nothing and takes probability 1: it is a
planning construct, not an executed action. The products advance and
classify the automaton vectors and `product.Automata` says when a vector
may be handed on; this module owns the switch rule only, in one method,
`TeamMdp.switch_target`, which the explicit model's rows, the block
solve's forward pass and the success-path walk all call.

The ring stops before it returns to the start robot, so the team model is
a chain of robot blocks: a robot's block is the part of its product
reachable from its entry states, and its switches lead into the next
robot's block only. `solve_stapu` solves the chain on the products
themselves, last robot first. A block's switch states take the next
block's values at the switch targets as boundary values of one
label-setting pass (`mdp._label_setting`), exact for deterministic-or-fail
robots, where every action reaches one live successor and otherwise a dead
end; the policy passes, which `max_reach` shares, carry their layered
tie-break across the switches the same way. So the solve reads the
products' stacked arrays and never renumbers a product row.

`TeamMdp` builds the team model as one explicit `Mdp`, from rows in the
products' row format, only when something reads it (`mdp`, `states`): the
fallback for a model with two live outcomes in some action, which robots
outside that class can give and which value iteration (`mdp.max_reach`)
solves, and tests, which check the block solve against
`mdp.max_product_reach` on it.

`check_class` is the one gate of that class: an absorbing failure state,
and every action deterministic or split between one successor and the
failure state. For such robots the policy's success path is one live path
per robot, which `solve_stapu` records as `StapuSolution.programs`, the
step lists `realloc.synchronize` executes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mdp import (
    AVOID,
    LIVE,
    SINK,
    TARGET,
    Explorer,
    Mdp,
    _absorbing,
    _backward_index,
    _label_setting,
    _live_edges,
    _max_product_policy,
    _ranges,
    _stack,
    max_reach,
)

SWITCH = "switch"


class TeamError(ValueError):
    """Team model cannot be assembled as requested."""


class TeamMdp:
    """Robots' product spaces, keyed (robot, product state), plus switches.

    `root` is the start robot's product state at its entry with `start_q`.
    `switch_target` is the switch rule. Robots listed in `failed` start at
    the failure state in a reallocation solve and may pass their remaining
    tasks to the ring successor.

    The explicit team model is built on first use: `keys` lists the
    (robot, product state) of every team state breadth-first from the
    root, `states` the matching (robot, map state, automaton vector), and
    `mdp`, `accepting`, `violating` and `num_states` describe it.
    """

    def __init__(self, products, entries=None, start_robot=0, start_q=None, failed=()):
        if not products:
            raise TeamError("at least one robot required")
        mission = products[0].mission
        for k, p in enumerate(products):
            if p.mission != mission:
                raise TeamError(f"robot {k} was built for a different mission")
        n = len(products)
        if entries is None:
            entries = [p.source.initial for p in products]
        if len(entries) != n:
            raise TeamError(f"got {len(entries)} entry states for {n} robots")
        for k, (p, e) in enumerate(zip(products, entries)):
            if not (0 <= e < p.source.num_states):
                raise TeamError(f"entry state {e} out of range for robot {k}")
        if not (0 <= start_robot < n):
            raise TeamError(f"start robot {start_robot} out of range")
        self.products = list(products)
        self.entries = list(entries)
        self.start_robot = start_robot
        self.failed = frozenset(failed)
        self.automata = products[0].automata
        if start_q is None:
            start_q = self.automata.start([products[start_robot].source], [entries[start_robot]])
        self.start_q = tuple(start_q)

        names = []
        seen = {}
        for p in products:
            for a in p.source.actions:
                if a not in seen:
                    seen[a] = len(names)
                    names.append(a)
        if SWITCH in seen:
            raise TeamError(f"action name {SWITCH!r} is reserved for the team model")
        self.switch_action = len(names)
        names.append(SWITCH)
        self.actions = tuple(names)
        self.action_map = [[seen[a] for a in p.source.actions] for p in products]
        self.root = products[start_robot].explore((entries[start_robot], self.start_q))

    def _expand(self, key, intern):
        """The product row of robot state `key` in team actions, plus the
        switch where one is enabled; `intern` maps each successor key."""
        robot, i = key
        acts, counts, targets, probs = self.products[robot].rows[i]
        acts = np.array(self.action_map[robot], np.int64)[acts]
        targets = [intern((robot, t)) for t in targets.tolist()]
        j = self.switch_target(robot, i)
        if j is not None:
            targets.append(intern(((robot + 1) % len(self.products), j)))
            acts, counts, probs = np.append(acts, self.switch_action), np.append(counts, 1), np.append(probs, 1.0)
        return acts, counts, np.array(targets, np.int32), probs

    def switch_target(self, robot, i):
        """The next robot's product state a switch from state `i` of
        `robot`'s product leads to, or None where no switch is enabled.

        The ring stops before it returns to the start robot: wrapping
        would restart a robot at its entry without traveling back there.
        A robot that breaks down mid-plan cannot hand anything on, that is
        what reallocation is for, so the switch is barred from the failure
        state of a robot not listed in `failed`. Nor is a violating vector
        or one in the middle of a task handed on: every component must be
        at its initial state or accepting. The switch leads to the next
        robot's entry with the vector unchanged.
        """
        nxt = (robot + 1) % len(self.products)
        if nxt == self.start_robot:
            return None
        pm = self.products[robot]
        s, q = pm.states[i]
        if s == pm.source.failure_state and robot not in self.failed:
            return None
        if self.automata.violating(q) or not self.automata.switchable(q):
            return None
        return self.products[nxt].explore((self.entries[nxt], q))

    @cached_property
    def _explored(self):
        explorer = Explorer(self._expand)
        explorer.explore((self.start_robot, self.root))
        return explorer.keys, explorer.rows

    @property
    def keys(self):
        return self._explored[0]

    @cached_property
    def states(self):
        return [(robot, *self.products[robot].states[i]) for robot, i in self.keys]

    @cached_property
    def mdp(self):
        return Mdp(len(self.keys), 0, self.actions, arrays=_stack(self._explored[1]))

    @cached_property
    def accepting(self):
        return frozenset(k for k, (robot, i) in enumerate(self.keys) if self.products[robot].accepts(i))

    @cached_property
    def violating(self):
        return frozenset(k for k, (robot, i) in enumerate(self.keys) if self.products[robot].violates(i))

    @property
    def num_states(self):
        return len(self.keys)

    def full_size(self):
        return sum(p.full_size() for p in self.products)


def build_team(products, entries=None, start_robot=0, start_q=None, failed=()):
    return TeamMdp(products, entries, start_robot, start_q, failed)


@dataclass
class StapuSolution:
    """A solved team model and the plan its policy implies.

    `programs[r]` is robot r's part of the plan, one (state, live
    successor, failure probability, action) tuple per step; the live
    successor is None for a step that fails surely. `synchronize` runs the
    programs side by side; `segments` and `switches` describe the same
    plan for the solution file.
    """

    team: TeamMdp
    value: float
    allocation: dict[int, int]
    unallocated: tuple[int, ...]
    segments: list[dict]
    switches: list[dict]
    programs: list[list[tuple]]

    def to_dict(self):
        return {
            "value": self.value,
            "allocation": {str(k): r for k, r in sorted(self.allocation.items())},
            "unallocated": list(self.unallocated),
            "segments": self.segments,
            "switches": self.switches,
        }


def solve_stapu(team, epsilon=1e-6):
    """Solve the team model and read off the allocation the policy implies.

    A team of deterministic-or-fail robots is solved exactly block by block
    (`solve_blocks`); any other falls back to value iteration with
    `max_reach` on the explicit team model, the only use of `epsilon`.
    """
    solved = solve_blocks(team)
    if solved is None:
        res = max_reach(team.mdp, team.accepting, team.violating, epsilon=epsilon)
        value, policy = res.values[0], keyed_policy(team, res.policy)
    else:
        values, policy = solved
        value = values[team.start_robot][team.root]
    return StapuSolution(team, value, *_walk_success_path(team, policy))


def keyed_policy(team, policy):
    """A policy over the explicit team model's states, keyed like
    `solve_blocks`'s: `out[robot]` maps product states to team actions."""
    out = [{} for _ in team.products]
    for k, action in policy.items():
        robot, i = team.keys[k]
        out[robot][i] = action
    return out


def _closure(arrays, roots):
    """Product states reachable from the distinct `roots`: the roots, then
    each breadth-first layer in state order."""
    row_start, _, out_start, targets, _ = arrays
    outcomes = out_start[row_start]  # the outcomes of state s start at outcomes[s]
    order = [np.array(roots, np.int64)]
    seen = np.zeros(len(row_start) - 1, bool)
    seen[order[0]] = True
    while len(order[-1]):
        found = np.zeros(len(seen), bool)
        found[targets[_ranges(outcomes, order[-1])]] = True
        order.append(np.flatnonzero(found & ~seen))
        seen[order[-1]] = True
    return np.concatenate(order).tolist()


def _classes(pm):
    """The class of every explored state of product `pm`: target or avoid
    by its automaton vector, else sink when absorbing, else live."""
    kinds = {}  # per automaton vector
    for _, q in pm.states:
        if q not in kinds:
            kinds[q] = TARGET if pm.automata.accepting(q) else AVOID if pm.automata.violating(q) else LIVE
    cls = np.array([kinds[q] for _, q in pm.states], np.uint8)
    cls[(cls == LIVE) & _absorbing(pm.arrays())] = SINK
    return cls


def _blocks(team):
    """The forward pass: per robot in ring order from the start robot, its
    block's product states and the switch target of each switch state in
    the next robot's product, as (robot, states, {state: target})."""
    products = team.products
    n = len(products)
    blocks = []
    roots = [team.root]
    for k in range(n):
        robot = (team.start_robot + k) % n
        pm = products[robot]
        # the product's first states are those reachable from its initial one
        reach = list(range(pm.num_states)) if roots == [0] else _closure(pm.arrays(), roots)
        switch = {}
        if k + 1 < n:  # the last block of the chain has no next block to switch into
            fail = pm.source.failure_state
            targets = {}  # by (at `fail`, vector): the rule reads the map state only for that
            for i in reach:
                s, q = pm.states[i]
                key = (s == fail, q)
                if key not in targets:
                    targets[key] = team.switch_target(robot, i)
                if targets[key] is not None:
                    switch[i] = targets[key]
            roots = list(dict.fromkeys(switch.values()))
        blocks.append((robot, reach, switch))
    return blocks


def _block_index(team, robot, reach, switch, cls):
    """The backward index of one block, in team action indices: the live
    edges from its states `reach` (an int array) by its product's classes
    `cls`, in which a sink where the robot hands over is live, and one
    switch edge per switch state into an extra state size + k standing for
    the k-th distinct switch target. Returns (index, {switch target: extra
    state}), or None when a choice has two live outcomes. A handing sink's
    self-loops raise no label (p = 1) and assign no action: it is assigned
    before it joins a frontier."""
    handing = [i for i in switch if cls[i] == SINK]
    if handing:
        cls = cls.copy()
        cls[handing] = LIVE
    edges = _live_edges(team.products[robot].arrays(), reach, cls)
    if edges is None:
        return None
    edges[3] = np.array(team.action_map[robot], np.int64)[edges[3]]
    boundary = {}
    for j in switch.values():
        boundary.setdefault(j, len(cls) + len(boundary))
    k = len(switch)
    added = ([boundary[j] for j in switch.values()], list(switch), [1.0] * k, [team.switch_action] * k, [True] * k)
    edges = [np.concatenate((e, np.array(x, e.dtype))) for e, x in zip(edges, added)]
    return _backward_index(edges, len(cls) + len(boundary)), boundary


def solve_blocks(team):
    """Exact values and policy of the team model, robot block by robot block.

    The blocks form a chain, so they are solved last first. Each block's
    values come from one label-setting pass over its product's live edges,
    in which the extra states standing for the switch targets are sources
    carrying the next block's values. The policy passes of
    `mdp._max_product_policy` run over the same index, the switch targets
    joining them at the layers the next block gave them, and break ties on
    team action indices (the switch last). A product's state classes are
    read after the forward pass, which may extend products.

    Returns (values, policy): `values[robot]` is indexed by the robot's
    product state and `policy[robot]` maps product states to team
    actions; states without an entry take their first team action. None
    when some choice has two live outcomes.
    """
    products = team.products
    blocks = _blocks(team)
    classes = {id(pm): _classes(pm) for pm in {id(p): p for p in products}.values()}

    values = [None] * len(products)
    policy = [{} for _ in products]
    after = None  # values and layers of the next block
    for robot, reach, switch in reversed(blocks):
        cls = classes[id(products[robot])]
        states = np.array(reach, np.int64)
        block = _block_index(team, robot, states, switch, cls)
        if block is None:
            return None
        index, boundary = block
        vals = [0.0] * (len(cls) + len(boundary))
        targets = states[cls[states] == TARGET].tolist()
        for i in targets:
            vals[i] = 1.0
        for j, b in boundary.items():
            vals[b] = after[0][j]
        _label_setting(index, vals, targets + list(boundary.values()))
        values[robot] = vals
        joins = [(b, (after[1].get(j), after[2].get(j))) for j, b in boundary.items()]
        after = (vals, *_max_product_policy(index, vals, states, targets, policy[robot], joins))
    return values, policy


def _segment(robot, s, q):
    return {"robot": robot, "entry": {"s": s, "q": list(q)}, "choices": []}


def _walk_success_path(team, policy):
    """Follow the policy along non-failure outcomes, splitting at switches.

    `policy[robot]` maps the robot's product states to team actions, as
    `solve_blocks` returns it; a state without an entry takes its first
    team action, the switch after the product's actions. The walk reads
    the products' rows and `switch_target` directly. Returns the
    allocation, the unallocated tasks, the segments, the switches and the
    programs of `StapuSolution`. A task is allocated to the robot whose
    move makes its component accepting. Exact for the deterministic-or-fail
    class, best effort (highest-probability branch) elsewhere. The
    hand-over ring stops before it returns to the start robot, so each
    robot gets at most one segment.
    """
    tasks = team.automata.tasks
    m = len(tasks)
    robot, i = cur = (team.start_robot, team.root)
    s, q = team.products[robot].states[i]
    allocation = {k: robot for k in range(m) if q[k] in tasks[k].accepting}
    segments = [_segment(robot, s, q)]
    switches = []
    programs = [[] for _ in team.products]
    visited = {cur}
    while True:
        robot, i = cur
        pm = team.products[robot]
        if pm.accepts(i) or pm.violates(i):
            break
        s, q = pm.states[i]
        acts, counts, targets, probs = pm.rows[i]
        acts = np.array(team.action_map[robot], np.int64)[acts]
        action = policy[robot].get(i, acts[0] if len(acts) else team.switch_action)
        if action == team.switch_action:
            j = team.switch_target(robot, i)
            if j is None:
                break
            cur = ((robot + 1) % len(team.products), j)
            visited.add(cur)
            switches.append({
                "from_robot": robot,
                "to_robot": cur[0],
                "state": {"s": s, "q": list(q)},
            })
            segments.append(_segment(cur[0], *team.products[cur[0]].states[j]))
            continue
        chosen = np.repeat(acts, counts) == action  # a state enables an action once
        if not chosen.any():
            break
        outcomes = list(zip(targets[chosen].tolist(), probs[chosen].tolist()))
        name = team.actions[action]
        segments[-1]["choices"].append({"state": {"s": s, "q": list(q)}, "action": name})
        fail = pm.source.failure_state
        live = [(t, p) for t, p in outcomes if pm.states[t][0] != fail]
        if not live:
            programs[robot].append((s, None, 1.0, name))
            break
        nxt = max(live, key=lambda tp: tp[1])[0]
        pfail = sum(p for t, p in outcomes if pm.states[t][0] == fail)
        programs[robot].append((s, pm.states[nxt][0], pfail, name))
        if (robot, nxt) in visited:
            break
        visited.add((robot, nxt))
        newq = pm.states[nxt][1]
        for k in range(m):
            if k not in allocation and newq[k] in tasks[k].accepting:
                allocation[k] = robot
        cur = (robot, nxt)

    planned = {seg["robot"] for seg in segments}
    segments += [{"robot": r, "entry": {"s": team.entries[r], "q": None}, "choices": []}
                 for r in range(len(team.products)) if r not in planned]
    unallocated = tuple(k for k in range(m) if k not in allocation)
    return allocation, unallocated, segments, switches, programs


def check_class(mdp):
    """True when `mdp` is deterministic-or-fail: its failure state, if it
    has one, is absorbing, and every action is deterministic or a
    two-outcome split with the failure state."""
    fail = mdp.failure_state
    if fail is not None and any(len(c.outcomes) != 1 or c.outcomes[0][0] != fail for c in mdp.choices[fail]):
        return False
    for s in range(mdp.num_states):
        for c in mdp.choices[s]:
            if len(c.outcomes) == 1 and abs(c.outcomes[0][1] - 1.0) <= 1e-9:
                continue
            if (
                len(c.outcomes) == 2
                and fail is not None
                and any(t == fail for t, _ in c.outcomes)
                and abs(sum(p for _, p in c.outcomes) - 1.0) <= 1e-9
            ):
                continue
            return False
    return True
