"""Sequential team model: robot product spaces chained by switch transitions.

One robot plans at a time; a switch hands the whole automaton vector,
unchanged, to the next robot in the ring, which continues from its own
entry state. Switching costs nothing and takes probability 1: it is a
planning construct, not an executed action. The products advance and
classify the automaton vectors, by `Automata` id, and `Automata.handover`
says when a vector may be handed on; this module owns the switch rule
only, in one numpy pass per block over ids, `TeamMdp._switches`.

The ring stops before it returns to the start robot, so the team model is
a chain of robot blocks: a robot's block is the part of its product
reachable from its entry states, and its switches lead into the next
robot's block only. `TeamMdp` composes the team model as one array-backed
`Mdp` in one forward pass over the blocks: each block's product rows
(`mdp._take`), renumbered block after block and mapped to team action
indices, joined (`mdp._concat`), with the switch appended as the last
choice of a state that may hand over (`mdp._append_choice`).

`solve_stapu` solves it with the solver of its class: `mdp.max_product_reach`,
exact for deterministic-or-fail robots, where every action reaches one
live successor and otherwise a dead end, and `mdp.max_reach` for a model
with two live outcomes in some action, which robots outside that class
can give.

`check_class` is the one gate of that class: an absorbing failure state,
and every action deterministic or split between one successor and the
failure state. For such robots the policy's success path is one live path
per robot, which `solve_stapu` records as `StapuSolution.programs`, the
step lists `realloc.synchronize` executes.
"""

import numpy as np

from .mdp import AVOID, TARGET, Mdp, _absorbing, _append_choice, _concat, _take, max_product_reach, max_reach

SWITCH = "switch"


class TeamError(ValueError):
    """Team model cannot be assembled as requested."""


class TeamMdp:
    """Robots' product spaces plus switches, as one explicit `Mdp`.

    `root` is the start robot's product state at its entry with `start_q`.
    `_switches` is the switch rule. Robots listed in `failed` start at the
    failure state in a reallocation solve and may pass their remaining
    tasks to the ring successor.

    `blocks` lists (robot, product states) in ring order from the start
    robot. Team states are numbered block after block in the order of
    each block's product states, the root first; the columns `map_states`
    and `vector_ids` hold each one's map state and automaton vector id.
    `mdp`, `accepting`, `violating` and `num_states` describe the model.
    """

    def __init__(self, products, entries=None, start_robot=0, start_q=None, failed=()):
        if not products:
            raise TeamError("at least one robot required")
        mission, automata = products[0].mission, products[0].automata
        for k, p in enumerate(products):  # vector ids are only shared within one `Automata`
            if p.mission != mission or p.automata is not automata:
                raise TeamError(f"robot {k} was not built from robot 0's mission and automata")
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
        self.automata = automata
        if start_q is None:
            v = automata.start([products[start_robot].source], [entries[start_robot]])
        else:  # the one vector tuple the team numbers; it passes ids on
            v = automata.vector_id(tuple(start_q))
        self.start_q = automata.vectors[v]

        names = dict.fromkeys(a for p in products for a in p.source.actions)  # in order of first appearance
        if SWITCH in names:
            raise TeamError(f"action name {SWITCH!r} is reserved for the team model")
        seen = {a: i for i, a in enumerate(names)}
        self.switch_action = len(seen)
        self.actions = (*names, SWITCH)
        self.action_map = [[seen[a] for a in p.source.actions] for p in products]
        self.root = products[start_robot].explore(entries[start_robot], v)
        self._build()

    def _build(self):
        """The forward pass: per robot in ring order from the start robot,
        its block's product states, from the switch targets of the block
        before, and the block's rows (`mdp._take`), renumbered block after
        block and mapped to team action indices. The blocks are joined
        (`mdp._concat`) and the switches appended (`mdp._append_choice`)
        once, after the pass."""
        n = len(self.products)
        self.blocks, parts, switches, targets = [], [], [], []
        roots, size = np.array([self.root]), 0
        for k in range(n):
            robot = (self.start_robot + k) % n
            pm = self.products[robot]
            states = pm.closure(roots)  # the roots first, in order
            switching, succ = self._switches(robot, states)
            roots = np.flatnonzero(np.bincount(succ))  # np.unique would import numpy.ma
            local = np.full(len(pm.arrays.row_start) - 1, -1, np.int32)
            local[states] = np.arange(size, size + len(states))
            rows = _take(pm.arrays, states)
            parts.append(rows._replace(actions=np.array(self.action_map[robot], np.int32)[rows.actions],
                                       targets=local[rows.targets]))
            size += len(states)
            to = np.zeros(len(states), np.int32)
            to[switching] = size + np.searchsorted(roots, succ)  # the next block starts with its roots, in order
            self.blocks.append((robot, states))
            switches.append(switching)
            targets.append(to)
        self.num_states = size
        arrays = _append_choice(_concat(parts), np.concatenate(switches), self.switch_action, np.concatenate(targets))
        self.mdp = Mdp(self.num_states, 0, self.actions, arrays=arrays)
        self.map_states, self.vector_ids, classes = (np.concatenate(
            [getattr(self.products[robot], column)[states] for robot, states in self.blocks])
            for column in ("map_states", "vector_ids", "classes"))
        self.accepting = frozenset(np.flatnonzero(classes == TARGET).tolist())
        self.violating = frozenset(np.flatnonzero(classes == AVOID).tolist())

    def _switches(self, robot, states):
        """Which of the product states `states` of `robot` may switch, and
        the next robot's product state each switch leads to.

        The ring stops before it returns to the start robot: wrapping
        would restart a robot at its entry without traveling back there.
        A robot that breaks down mid-plan cannot hand anything on, that is
        what reallocation is for, so the switch is barred from the failure
        state of a robot not listed in `failed`. Nor is a violating vector
        or one in the middle of a task handed on (`Automata.handover`). The
        switch leads to the next robot's entry with the vector unchanged,
        so the next product is explored once per distinct vector, in
        vector id order."""
        pm, nxt = self.products[robot], (robot + 1) % len(self.products)
        vids = pm.vector_ids[states]
        # synced by `ProductMdp.explore`
        switching = self.automata.handover[vids] & (nxt != self.start_robot)
        if robot not in self.failed:  # all True if that state is None
            switching &= pm.map_states[states] != pm.source.failure_state
        vids = vids[switching]
        target = np.bincount(vids)  # np.unique would import numpy.ma
        for v in np.flatnonzero(target).tolist():
            target[v] = self.products[nxt].explore(self.entries[nxt], v)
        return switching, target[vids]

    def full_size(self):
        return sum(p.full_size() for p in self.products)


def build_team(products, entries=None, start_robot=0, start_q=None, failed=()):
    return TeamMdp(products, entries, start_robot, start_q, failed)


class StapuSolution:
    """A solved team model and the plan its policy implies.

    `programs[r]` is robot r's part of the plan, one (state, live
    successor, failure probability, action) tuple per step; the live
    successor is None for a step that fails surely. `synchronize` runs the
    programs side by side; `segments` and `switches` describe the same
    plan for the solution file.
    """

    def __init__(self, team, value, allocation, unallocated, segments, switches, programs):
        self.team = team
        self.value = value
        self.allocation = allocation  # task -> robot
        self.unallocated = unallocated
        self.segments = segments
        self.switches = switches
        self.programs = programs

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

    A team of deterministic-or-fail robots is solved exactly with
    `max_product_reach`; any other falls back to value iteration with
    `max_reach` on the same model, the only use of `epsilon`.
    """
    res = max_product_reach(team.mdp, team.accepting, team.violating)
    if res is None:
        res = max_reach(team.mdp, team.accepting, team.violating, epsilon=epsilon)
    return StapuSolution(team, res.values[0], *_walk_success_path(team, res.policy))


def _segment(robot, s, q):
    return {"robot": robot, "entry": {"s": s, "q": list(q)}, "choices": []}


def _walk_success_path(team, policy):
    """Follow the policy along non-failure outcomes, splitting at switches.

    `policy` maps team states to team actions, as either solver returns
    it; the walk reads `team.mdp`'s rows and the team's columns from team
    state 0. Returns the allocation, the unallocated tasks, the segments,
    the switches and the programs of `StapuSolution`. A task is allocated
    to the robot whose move makes its component accepting. Exact for the
    deterministic-or-fail class, best effort (highest-probability branch)
    elsewhere. The hand-over ring stops before it returns to the start
    robot, so each robot gets at most one segment; a move stays in its
    robot's block.
    """
    tasks, vectors = team.automata.tasks, team.automata.vectors
    m = len(tasks)
    row_start, actions, out_start, targets, probs = team.mdp.arrays
    map_states, vector_ids = team.map_states, team.vector_ids
    k, robot = 0, team.start_robot
    s, q = int(map_states[k]), vectors[vector_ids[k]]
    allocation = {t: robot for t in range(m) if q[t] in tasks[t].accepting}
    segments = [_segment(robot, s, q)]
    switches = []
    programs = [[] for _ in team.products]
    visited = {k}
    while k not in team.accepting and k not in team.violating and k in policy:
        action = policy[k]
        c = row_start[k] + np.flatnonzero(actions[row_start[k]:row_start[k + 1]] == action)[0]
        first, last = out_start[c], out_start[c + 1]
        if action == team.switch_action:
            prev, robot = robot, (robot + 1) % len(team.products)
            k = int(targets[first])
            visited.add(k)
            switches.append({"from_robot": prev, "to_robot": robot, "state": {"s": s, "q": list(q)}})
            s, q = int(map_states[k]), vectors[vector_ids[k]]
            segments.append(_segment(robot, s, q))
            continue
        name = team.actions[action]
        segments[-1]["choices"].append({"state": {"s": s, "q": list(q)}, "action": name})
        outcomes = list(zip(targets[first:last].tolist(), probs[first:last].tolist()))
        fail = team.products[robot].source.failure_state
        live = [(t, p) for t, p in outcomes if map_states[t] != fail]
        if not live:
            programs[robot].append((s, None, 1.0, name))
            break
        nxt = max(live, key=lambda tp: tp[1])[0]
        pfail = sum(p for t, p in outcomes if map_states[t] == fail)
        programs[robot].append((s, int(map_states[nxt]), pfail, name))
        if nxt in visited:
            break
        visited.add(nxt)
        s, q = int(map_states[nxt]), vectors[vector_ids[nxt]]
        for t in range(m):
            if t not in allocation and q[t] in tasks[t].accepting:
                allocation[t] = robot
        k = nxt

    planned = {seg["robot"] for seg in segments}
    segments += [{"robot": r, "entry": {"s": team.entries[r], "q": None}, "choices": []}
                 for r in range(len(team.products)) if r not in planned]
    unallocated = tuple(t for t in range(m) if t not in allocation)
    return allocation, unallocated, segments, switches, programs


def check_class(mdp):
    """True when `mdp` is deterministic-or-fail: its failure state, if it
    has one, is absorbing, and every action is deterministic or a
    two-outcome split with the failure state."""
    fail = -1 if mdp.failure_state is None else mdp.failure_state
    _, _, out_start, targets, probs = mdp.arrays
    count = np.diff(out_start)
    owner = np.repeat(np.arange(len(count)), count)
    total, hits = (np.bincount(owner, weights, len(count)) for weights in (probs, targets == fail))
    return bool((fail < 0 or _absorbing(mdp.arrays)[fail]) and (
        (np.abs(total - 1.0) <= 1e-9) & ((count == 1) | ((count == 2) & (hits > 0)))).all())
