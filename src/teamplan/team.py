"""Sequential team model: robot product spaces chained by switch transitions.

One robot plans at a time; a switch hands the whole automaton vector,
unchanged, to the next robot in the ring, which continues from its own
entry state. Switching costs nothing and takes probability 1: it is a
planning construct, not an executed action.

The model is built from the robots' local products: a robot's row is its
product row renumbered into the team, plus the switch edge, whose target
extends the next robot's product from (entry, vector) where needed. The
products advance and classify the automaton vectors and `product.Automata`
says when a vector may be handed on; this module owns the switch rule
only.

`solve_stapu` solves the model with `mdp.max_product_reach`, exact on the
team model of deterministic-or-fail robots, where every action reaches one
live successor and otherwise a dead end. A model with two live outcomes in
some action, which robots outside that class can give, falls back to value
iteration (`mdp.max_reach`).

`check_class` is the one gate of that class: an absorbing failure state,
and every action deterministic or split between one successor and the
failure state. For such robots the policy's success path is one live path
per robot, which `solve_stapu` records as `StapuSolution.programs`, the
step lists `realloc.synchronize` executes.
"""

from dataclasses import dataclass

from .mdp import Choice, Explorer, Mdp, max_product_reach, max_reach

SWITCH = "switch"


class TeamError(ValueError):
    """Team model cannot be assembled as requested."""


class TeamMdp:
    """Robots' product spaces, numbered as (robot, product state), plus switches.

    `states` lists (robot, map state, automaton vector) in breadth-first
    order from the start robot's entry.

    The switch action is enabled where every automaton component is at its
    initial state or accepting, i.e. never in the middle of a task. It is
    also barred from a failure state reached during the plan: a robot that
    breaks down mid-plan cannot hand anything on, that is what reallocation
    is for. Robots listed in `failed` start at the failure state in a
    reallocation solve and may pass their remaining tasks to the ring
    successor.
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
        self.action_map = [[seen[a] for a in p.source.actions] for p in products]

        explorer = Explorer(self._expand)
        explorer.explore((start_robot, products[start_robot].explore((entries[start_robot], self.start_q))))
        keys = explorer.keys
        self.states = [(robot, *products[robot].states[i]) for robot, i in keys]
        self.mdp = Mdp(len(self.states), 0, names, explorer.rows)
        self.accepting = frozenset(k for k, (robot, i) in enumerate(keys) if products[robot].accepts(i))
        self.violating = frozenset(k for k, (robot, i) in enumerate(keys) if products[robot].violates(i))

    def _expand(self, key, intern):
        """The product row of robot state `key` renumbered into the team,
        plus the switch to the next robot's entry where it is enabled."""
        robot, i = key
        pm = self.products[robot]
        actions = self.action_map[robot]
        row = [
            Choice(actions[c.action], tuple((intern((robot, t)), p) for t, p in c.outcomes), c.cost)
            for c in pm.rows[i]
        ]
        s, qvec = pm.states[i]
        if not pm.violates(i) and self._switch_enabled(robot, s, qvec):
            nxt = (robot + 1) % len(self.products)
            j = intern((nxt, self.products[nxt].explore((self.entries[nxt], qvec))))
            row.append(Choice(self.switch_action, ((j, 1.0),), None))
        return row

    def _switch_enabled(self, robot, s, qvec):
        if (robot + 1) % len(self.products) == self.start_robot:
            # the hand-over ring stops before wrapping: wrapping would
            # restart a robot at its entry without traveling back there
            return False
        fail = self.products[robot].source.failure_state
        if fail is not None and s == fail and robot not in self.failed:
            return False
        return self.automata.switchable(qvec)

    @property
    def num_states(self):
        return len(self.states)

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

    A team of deterministic-or-fail robots gives a model that
    `max_product_reach` solves exactly; any other model falls back to
    value iteration with `max_reach`, the only use of `epsilon`.
    """
    res = max_product_reach(team.mdp, team.accepting, team.violating)
    if res is None:
        res = max_reach(team.mdp, team.accepting, team.violating, epsilon=epsilon)
    return StapuSolution(team, res.values[0], *_walk_success_path(team, res.policy))


def _segment(state):
    robot, s, q = state
    return {"robot": robot, "entry": {"s": s, "q": list(q)}, "choices": []}


def _walk_success_path(team, policy):
    """Follow the policy along non-failure outcomes, splitting at switches.

    Returns the allocation, the unallocated tasks, the segments, the
    switches and the programs of `StapuSolution`. A task is allocated to
    the robot whose move makes its component accepting. Exact for the
    deterministic-or-fail class, best effort (highest-probability branch)
    elsewhere. The hand-over ring stops before it returns to the start
    robot, so each robot gets at most one segment.
    """
    tasks = team.automata.tasks
    m = len(tasks)
    robot0, _, q0 = team.states[0]
    allocation = {k: robot0 for k in range(m) if q0[k] in tasks[k].accepting}
    segments = [_segment(team.states[0])]
    switches = []
    programs = [[] for _ in team.products]
    cur = 0
    visited = {0}
    while cur not in team.accepting and cur not in team.violating:
        action = policy.get(cur)
        choice = next((c for c in team.mdp.choices[cur] if c.action == action), None)
        if choice is None:
            break
        robot, s, q = team.states[cur]
        if choice.action == team.switch_action:
            cur = choice.outcomes[0][0]
            visited.add(cur)
            switches.append({
                "from_robot": robot,
                "to_robot": team.states[cur][0],
                "state": {"s": s, "q": list(q)},
            })
            segments.append(_segment(team.states[cur]))
            continue
        name = team.mdp.actions[choice.action]
        segments[-1]["choices"].append({"state": {"s": s, "q": list(q)}, "action": name})
        fail = team.products[robot].source.failure_state
        live = [(t, p) for t, p in choice.outcomes if team.states[t][1] != fail]
        if not live:
            programs[robot].append((s, None, 1.0, name))
            break
        nxt = max(live, key=lambda tp: tp[1])[0]
        pfail = sum(p for t, p in choice.outcomes if team.states[t][1] == fail)
        programs[robot].append((s, team.states[nxt][1], pfail, name))
        if nxt in visited:
            break
        visited.add(nxt)
        newq = team.states[nxt][2]
        for k in range(m):
            if k not in allocation and newq[k] in tasks[k].accepting:
                allocation[k] = robot
        cur = nxt

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
    if fail is not None and not mdp.is_absorbing(fail):
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
