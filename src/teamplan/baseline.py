"""Full synchronous joint model of the whole team.

Every robot moves in the same step, actions and outcomes are taken
jointly, and one shared automaton vector advances on the union of the
robots' successor labels (`Automata.joint_label`). `MamdpModel` builds
it with `mdp.Explorer`, whose places here are the robots' position tuples:
a layer's new positions get their move tables in one numpy pass, the
product of the robots' choices and then of their outcomes, and the
explorer steps every state's vector through the automata's dense step
table. The vector rules and the unpruned size come from
`product.Automata`. Exponential in the team size, so construction is
guarded by a state-count ceiling; within it, solving this model gives the
unconstrained optimum that the sequential planner and the reallocation
loop are measured against.
"""

import math
from functools import cached_property

import numpy as np

from .mdp import AVOID, TARGET, Arrays, BudgetExceeded, Explorer, Mdp, Moves, Numbering, _dense_number, \
    _first_seen, _grow, _offsets, _ranges, max_reach
from .product import compile_mission

IDLE = "idle"


class CeilingExceeded(BudgetExceeded):
    """Joint model too large to materialize."""

    def __init__(self, size, ceiling):
        super().__init__(
            f"joint model needs {size} states, over the ceiling of {ceiling}"
        )
        self.size = size
        self.ceiling = ceiling


def _positions(codes, radix):
    """The position tuples, as rows, of codes in the mixed radix `radix`."""
    return codes[:, None] // radix[:-1] % (radix[1:] // radix[:-1])


class _JointMoves:
    """The place side of the joint model's `Explorer`. A place is a slot,
    a position tuple numbered when first seen and keyed by its code in the
    mixed radix of the robots' state counts. `table` builds the move tables
    of a layer's new places in order of first expansion. `actions` numbers
    joint actions by their code in the mixed radix of the robots' distinct
    action names, idle first. A slot's label, the union of the robots',
    is built once per tuple of each robot's first state with that label."""

    def __init__(self, models, automata):
        self.models, self.automata = models, automata
        self._robots, self._names, self._canon, self._union = [], [], [], []
        for m in models:
            # each robot's choices per state, idle (name 0) last: it is always
            # available so the joint optimum dominates any execution in which
            # finished robots stand still
            names, labels = {IDLE: 0}, {}
            codes = np.array([0] + [names.setdefault(a, len(names)) for a in m.actions], np.int64)
            self._names.append(list(names))
            self._canon.append(np.array([labels.setdefault(m.label(s), s) for s in range(m.num_states)]))
            row_start, actions, out_start, targets, probs = m.arrays
            ends = row_start[1:]
            self._robots.append(Arrays(row_start + np.arange(len(row_start)), codes[np.insert(actions, ends, -1) + 1],
                                       _offsets(np.insert(np.diff(out_start), ends, 1)),
                                       np.insert(targets, out_start[ends], np.arange(m.num_states)),
                                       np.insert(probs, out_start[ends], 1.0)))
        self.radix = np.cumprod([1] + [m.num_states for m in models])
        self.stride = int(self.radix[-1])
        self._act_radix = np.cumprod([1] + [len(n) for n in self._names])
        self.slots, self.actions, self._tuples = Numbering(), Numbering(), Numbering()
        self._labels, self._rows, self._moves, self._built = np.zeros(0, np.int64), np.zeros(0, np.int64), None, 0

    def slot(self, codes):
        """The slot of each position code, numbering new ones and their labels."""
        slots = self.slots(codes)
        new = _positions(self.slots.keys[len(self._labels):], self.radix)
        tuples = self._tuples(sum(c[new[:, r]] * k for r, (c, k) in enumerate(zip(self._canon, self.radix.tolist()))))
        for pos in _positions(self._tuples.keys[len(self._union):], self.radix).tolist():
            self._union.append(self.automata.joint_label(self.models, pos))
        self._labels = np.concatenate((self._labels, np.array(self._union, np.int64)[tuples]))
        return slots

    def named(self, arrays):
        """The joint action names, the robots' names joined by "|", and
        `arrays` with actions by name: a "|" in a name can join two codes."""
        index, radix = {}, self._act_radix.tolist()
        parts = zip(*(np.array(n)[self.actions.keys // k % len(n)].tolist() for n, k in zip(self._names, radix)))
        at = np.array([index.setdefault("|".join(p), len(index)) for p in parts], np.int64)
        return tuple(index), arrays._replace(actions=at[arrays.actions])

    def table(self, places):
        """The move tables, built for new places in order of first
        occurrence, and the row of each of `places`."""
        self._rows = _grow(self._rows, (len(self.slots.keys),))  # by slot
        rows, new = _dense_number(self._rows, places, self._built)
        if len(new):
            self._built += len(new)
            new = self._move_table(self.slots.keys[new])
            self._moves = new if self._moves is None else Moves(*(
                np.concatenate((a, b[1:] + a[-1]) if name.endswith("start") else (a, b))
                for name, a, b in zip(Moves._fields, self._moves, new)))
        return self._moves, rows

    def _move_table(self, codes):
        """The `Moves` rows of the position codes `codes`: every joint
        choice, then every joint outcome of each, successor tuples numbered
        per row in first-appearance order."""
        positions, place, chosen = _positions(codes, self.radix), np.arange(len(codes)), []
        parts = np.zeros(len(codes), np.int64)  # the joint action's per-robot parts, coded
        for r, t in enumerate(self._robots):
            s = positions[place, r]
            n = t.row_start[s + 1] - t.row_start[s]
            c = _ranges(t.row_start, s)
            place, parts = np.repeat(place, n), np.repeat(parts, n) + t.actions[c] * self._act_radix[r]
            chosen = [np.repeat(x, n) for x in chosen] + [c]
        owner, probs, succ = np.arange(len(place)), np.ones(len(place)), np.zeros(len(place), np.int64)
        for r, t in enumerate(self._robots):
            c = chosen[r][owner]
            n = t.out_start[c + 1] - t.out_start[c]
            o = _ranges(t.out_start, c)
            owner, probs, succ = np.repeat(owner, n), np.repeat(probs, n) * t.probs[o], \
                np.repeat(succ, n) + t.targets[o] * self.radix[r]
        rank, distinct = _first_seen(place[owner] * self.stride + succ)
        succ_start = _offsets(np.bincount(distinct // self.stride, minlength=len(codes)))
        slots = self.slot(distinct % self.stride)
        return Moves(_offsets(np.bincount(place, minlength=len(codes))), self.actions(parts),
                     _offsets(np.bincount(owner, minlength=len(place))), rank - succ_start[place[owner]], probs,
                     succ_start, slots, self._labels[slots])


class MamdpModel:
    """Reachable joint product of all robots with the mission automata.

    Joint action names join the per-robot action names with "|"; every
    robot can also "idle" (self-loop) in any state. Safety violating
    joint states keep their action names but become self-loops. `states`
    lists (position tuple, automaton vector) pairs, built on first read.
    """

    def __init__(self, models, mission, ceiling=10_000_000, automata=None):
        self.models = models = list(models)
        if not models:
            raise ValueError("at least one robot required")
        self.automata = automata = automata if automata is not None else compile_mission(mission)
        bound = math.prod(m.num_states for m in models) * math.prod(d.num_states for d in automata.dfas)
        if ceiling is not None and bound > ceiling:
            raise CeilingExceeded(bound, ceiling)
        # the build's tables live in `joint` and `explorer`, both dropped here
        joint, entries = _JointMoves(models, automata), tuple(m.initial for m in models)
        explorer = Explorer(automata, joint.table)
        explorer.explore(int(joint.slot(np.array([np.dot(entries, joint.radix[:-1])]))[0]),
                         automata.start(models, entries))
        self.mdp = Mdp(len(explorer.places), 0, *joint.named(explorer.arrays))
        self._codes, self._radix, self._vectors = joint.slots.keys[explorer.places], joint.radix, explorer.vectors
        classes = automata.classes_of(explorer.vectors)
        self.accepting = frozenset(np.flatnonzero(classes == TARGET).tolist())
        self.violating = frozenset(np.flatnonzero(classes == AVOID).tolist())

    @cached_property
    def states(self):
        vectors = self.automata.vectors
        return [(tuple(p), vectors[v])
                for p, v in zip(_positions(self._codes, self._radix).tolist(), self._vectors.tolist())]

    @property
    def num_states(self):
        return self.mdp.num_states

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
