"""Full synchronous joint model of the whole team.

Every robot moves in the same step, actions and outcomes are taken
jointly, and one shared automaton vector advances on the union of the
robots' successor labels (`Automata.advance_joint`). This module builds
the joint-step rows over `mdp.Explorer`; the vector rules and the
unpruned size come from `product.Automata`. Exponential in the team
size, so construction is guarded by a state-count ceiling; within it,
solving this model gives the unconstrained optimum that the sequential
planner and the reallocation loop are measured against.
"""

import itertools

from .mdp import Choice, Explorer, Mdp, max_reach
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

        def action_index(parts):
            name = "|".join(parts)
            idx = name_index.get(name)
            if idx is None:
                idx = len(names)
                names.append(name)
                name_index[name] = idx
            return idx

        def options(r, s):
            # idle is always available so the joint optimum dominates any
            # execution in which finished robots stand still
            row = [(models[r].actions[c.action], c.outcomes) for c in models[r].choices[s]]
            row.append((IDLE, ((s, 1.0),)))
            return row

        def expand(key, intern):
            pos, q = key
            combos = itertools.product(*(options(r, s) for r, s in enumerate(pos)))
            if violating(q):
                here = intern(key)
                return [Choice(action_index([n for n, _ in combo]), ((here, 1.0),), None) for combo in combos]
            row = []
            for combo in combos:
                outs = []
                for branch in itertools.product(*(outcomes for _, outcomes in combo)):
                    p = 1.0
                    tgt = []
                    for s2, pr in branch:
                        p *= pr
                        tgt.append(s2)
                    q2 = advance_joint(q, models, tgt)
                    outs.append((intern((tuple(tgt), q2)), p))
                row.append(Choice(action_index([n for n, _ in combo]), tuple(outs), None))
            return row

        entries = tuple(m.initial for m in models)
        explorer = Explorer(expand)
        explorer.explore((entries, automata.start(models, entries)))
        self.states = explorer.keys
        self.mdp = Mdp(len(self.states), 0, tuple(names), explorer.rows)
        self.accepting = frozenset(i for i, (_, q) in enumerate(self.states) if automata.accepting(q))
        self.violating = frozenset(i for i, (_, q) in enumerate(self.states) if automata.violating(q))

    @property
    def num_states(self):
        return len(self.states)

    def full_size(self):
        return self.automata.unpruned_size(self.models)


def build_mamdp(models, mission, ceiling=10_000_000, automata=None):
    return MamdpModel(models, mission, ceiling=ceiling, automata=automata)


def solve_mamdp(mm, epsilon=1e-6):
    """Optimal mission probability at the joint start, with its policy."""
    res = max_reach(mm.mdp, mm.accepting, mm.violating, epsilon=epsilon)
    return res.values[0], res.policy
