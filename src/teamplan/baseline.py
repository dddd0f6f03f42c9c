"""Full synchronous joint model of the whole team.

Every robot moves in the same step, actions and outcomes are taken
jointly, and one shared automaton vector advances on the union of the
robots' successor labels (`Automata.advance_joint`). This module builds
the joint-step rows over `mdp.Explorer` as numpy arrays: one move table
per robot-position tuple, shared by every joint state there, plus one
lookup per state from the table's successor tuples to joint states,
stepping the vector once per (vector, successor positions) pair. The
vector rules and the unpruned size come from `product.Automata`.
Exponential in the team size, so
construction is guarded by a state-count ceiling; within it, solving
this model gives the unconstrained optimum that the sequential planner
and the reallocation loop are measured against.
"""

import itertools

import numpy as np

from .mdp import Explorer, Mdp, _stack, max_reach
from .product import compile_mission

IDLE = "idle"


class CeilingExceeded(RuntimeError):
    """Joint model too large to materialize."""

    def __init__(self, size, ceiling):
        super().__init__(
            f"joint model needs {size} states, over the ceiling of {ceiling}"
        )
        self.size = size
        self.ceiling = ceiling


class MamdpModel:
    """Reachable joint product of all robots with the mission automata.

    Joint action names join the per-robot action names with "|"; every
    robot can also "idle" (self-loop) in any state. Safety violating
    joint states keep their action names but become self-loops.
    """

    def __init__(self, models, mission, ceiling=10_000_000, automata=None):
        self.models = models = list(models)
        if not models:
            raise ValueError("at least one robot required")
        self.automata = automata = automata if automata is not None else compile_mission(mission)
        advance_joint, violating = automata.advance_joint, automata.violating

        bound = 1
        for m in models:
            bound *= m.num_states
        for d in automata.dfas:
            bound *= d.num_states
        if ceiling is not None and bound > ceiling:
            raise CeilingExceeded(bound, ceiling)

        names = []
        name_index = {}
        by_parts = {}

        def action_index(parts):
            """Joint action index of per-robot action indices (-1 for idle),
            its name joined once per distinct combination; combinations
            whose names coincide share one index."""
            idx = by_parts.get(parts)
            if idx is None:
                name = "|".join(IDLE if a < 0 else m.actions[a] for m, a in zip(models, parts))
                idx = name_index.get(name)
                if idx is None:
                    idx = name_index[name] = len(names)
                    names.append(name)
                by_parts[parts] = idx
            return idx

        # each robot's (action index, outcomes) pairs per state; idle (-1) is
        # always available so the joint optimum dominates any execution in
        # which finished robots stand still
        moves = [[[(c.action, c.outcomes) for c in row] + [(-1, ((s, 1.0),))] for s, row in enumerate(m.choices)]
                 for m in models]
        tables = {}

        def move_table(pos):
            """Joint action indices, outcome counts, local successor ids and
            probabilities of the robots at `pos`, and its successor tuples
            in first-appearance order: no automaton vector changes them."""
            acts, counts, local, probs, succs = [], [], [], [], {}
            for combo in itertools.product(*[moves[r][s] for r, s in enumerate(pos)]):
                acts.append(action_index(tuple([a for a, _ in combo])))
                first = len(local)
                for branch in itertools.product(*[outcomes for _, outcomes in combo]):
                    p = 1.0
                    for _, pr in branch:
                        p *= pr
                    local.append(succs.setdefault(tuple([s2 for s2, _ in branch]), len(succs)))
                    probs.append(p)
                counts.append(len(local) - first)
            tables[pos] = np.array(acts), np.array(counts), np.array(local), np.array(probs), list(succs)
            return tables[pos]

        # (vector, successor positions) -> joint state index, for this build
        # only: joint outcomes repeat, and each repeat skips the label union
        # and the vector step
        successor = {}

        def expand(key, intern):
            pos, q = key
            acts, counts, local, probs, succs = tables.get(pos) or move_table(pos)
            if violating(q):
                return acts, np.ones(len(acts), np.int64), np.full(len(acts), intern(key), np.int32), np.ones(len(acts))
            after = successor.setdefault(q, {})
            lookup = []
            for tgt in succs:
                j = after.get(tgt)
                if j is None:
                    j = after[tgt] = intern((tgt, advance_joint(q, models, tgt)))
                lookup.append(j)
            return acts, counts, np.array(lookup, np.int32)[local], probs

        entries = tuple(m.initial for m in models)
        explorer = Explorer(expand)
        explorer.explore((entries, automata.start(models, entries)))
        self.states = explorer.keys
        self.mdp = Mdp(len(self.states), 0, tuple(names), arrays=_stack(explorer.rows))
        self.accepting = frozenset(i for i, (_, q) in enumerate(self.states) if automata.accepting(q))
        self.violating = frozenset(i for i, (_, q) in enumerate(self.states) if automata.violating(q))

    @property
    def num_states(self):
        return len(self.states)

    def full_size(self):
        """Unpruned size; it leaves out the robots' failure states, which
        joint states reach, so it can be below `num_states`."""
        return self.automata.unpruned_size(self.models)


def build_mamdp(models, mission, ceiling=10_000_000, automata=None):
    return MamdpModel(models, mission, ceiling=ceiling, automata=automata)


def solve_mamdp(mm, epsilon=1e-6):
    """Optimal mission probability at the joint start, with the solve's
    `ReachResult` (whose policy is read off on first access)."""
    res = max_reach(mm.mdp, mm.accepting, mm.violating, epsilon=epsilon)
    return res.values[0], res
