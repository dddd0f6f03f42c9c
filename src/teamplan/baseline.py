"""Full synchronous joint model of the whole team.

Every robot moves in the same step, actions and outcomes are taken
jointly, and one shared automaton vector advances on the union of the
robots' successor labels (`Automata.joint_label`). Swapping the
positions of robots that share one model object changes neither, so a
state and its mirrors have one value, and `MamdpModel` builds the model
up to such swaps (the symmetry reduction of Kwiatkowska, Norman and
Parker, CAV 2006). Its `mdp.Explorer` places are the canonical tuples of
the robots' reachable states, the positions within each group of
identical robots sorted by state id. Before exploring, one numpy pass
builds every place's row of an `Arrays` move table, the product of the
robots' choices and then of their outcomes, each successor tuple sorted
within its groups; the explorer steps the vectors through the automata's
dense step table. A team of distinct models sorts nothing.
`MamdpModel.unreduced_size` counts the whole model from orbit sizes. The
vector rules and the unpruned size come from `product.Automata`.
Exponential in the team size, so construction is guarded by a
state-count ceiling on the whole model; within it, solving this model
gives the unconstrained optimum that the sequential planner and the
reallocation loop are measured against. A joint step keeps or lowers the
vector's `Automata.ranks`, so `solve_mamdp` sweeps the states one rank at
a time, lowest first.
"""

import math
from functools import cached_property

import numpy as np

from .mdp import AVOID, TARGET, Arrays, BudgetExceeded, Explorer, Mdp, _append_choice, _dense_number, _first_seen, \
    _offsets, _ranges, _reachable, max_reach
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


def _sorted_within(columns, groups):
    """The per-robot int arrays `columns` with each index's tuple sorted
    within each of `groups`: k rounds of odd-even transposition sort k
    columns."""
    columns = list(columns)
    for g in groups:
        for j in range(len(g)):
            for a, b in zip(g[j % 2::2], g[j % 2 + 1::2]):
                columns[a], columns[b] = np.minimum(columns[a], columns[b]), np.maximum(columns[a], columns[b])
    return columns


class _JointPlaces:
    """The place side of the joint model's `Explorer`. A place is a tuple
    of robot states, each reachable from its robot's initial state and
    sorted by state id within each of `groups`, the robots (two or more)
    that share one model object. Places are numbered in the order of the
    tuples' numbers in the mixed radix of the robots' reachable-state
    counts, robot 0 lowest, a robot's states in the order `_reachable`
    lists them: place 0 is the start. `positions` holds every place's
    tuple, `orbits` the number of tuples that sort to it, `labels` its
    label id and `moves` its row, whose successor tuples are sorted
    within the groups. A place's label, the union of the
    robots', is built once per tuple of each robot's first state with
    that label.
    Joint actions carry ids local to `moves`, numbering their codes in the
    mixed radix of the robots' distinct action names, idle first."""

    def __init__(self, models, automata):
        robots, self._names, canon, reach, groups = [], [], [], [], {}
        for r, m in enumerate(models):
            groups.setdefault(id(m), []).append(r)
            # each robot's choices per state, idle (name 0) last: it is always
            # available so the joint optimum dominates any execution in which
            # finished robots stand still
            names, labels = {IDLE: 0}, {}
            codes = np.array([0] + [names.setdefault(a, len(names)) for a in m.actions], np.int64)
            self._names.append(list(names))
            canon.append(np.array([labels.setdefault(m.label(s), s) for s in range(m.num_states)]))
            reach.append(_reachable(m.arrays, np.array([m.initial])))
            t = _append_choice(m.arrays, np.ones(m.num_states, bool), -1, np.arange(m.num_states))
            robots.append(t._replace(actions=codes[t.actions + 1]))
        self.groups = [g for g in groups.values() if len(g) > 1]
        self._act_radix = np.cumprod([1] + [len(n) for n in self._names])
        radix = np.cumprod([1] + [len(r) for r in reach])
        self._digits = [np.zeros(m.num_states, np.int64) for m in models]  # a robot state's share of a tuple's number
        for d, r, k in zip(self._digits, reach, radix.tolist()):
            d[r] = np.arange(len(r)) * k
        numbers = np.arange(radix[-1])
        columns = [r[d] for r, d in zip(reach, _positions(numbers, radix).T)]
        sorted_numbers = self._sorted_number(columns)
        canonical = sorted_numbers == numbers
        self.positions = np.column_stack(columns)[canonical]
        self._place = np.cumsum(canonical) - 1  # a canonical tuple's place, by its number
        self.orbits = np.bincount(self._place[sorted_numbers])
        full = np.cumprod([1] + [m.num_states for m in models])
        tuples, distinct = _first_seen(sum(c[self.positions[:, r]] * k for r, (c, k) in enumerate(zip(canon, full))))
        labels = np.array([automata.joint_label(models, pos) for pos in _positions(distinct, full).tolist()], np.int64)
        self.labels = labels[tuples]
        self.moves, self._codes = self._move_table(robots)

    def named(self, arrays):
        """The joint action names, the robots' names joined by "|" and
        numbered by first occurrence in `arrays`, and `arrays` with actions
        by name: a "|" in a name can join two codes."""
        ids, used = _dense_number(np.full(len(self._codes), -1, np.int64), arrays.actions, 0)
        index, codes, radix = {}, self._codes[used], self._act_radix.tolist()
        parts = zip(*(np.array(n)[codes // k % len(n)].tolist() for n, k in zip(self._names, radix)))
        at = np.array([index.setdefault("|".join(p), len(index)) for p in parts], np.int64)
        return tuple(index), arrays._replace(actions=at[ids])

    def _sorted_number(self, columns):
        """The number of each index's tuple of the per-robot state arrays
        `columns` once sorted within the groups."""
        return sum(d[c] for d, c in zip(self._digits, _sorted_within(columns, self.groups)))

    def _move_table(self, robots):
        """The `Arrays` rows of every place: every joint choice, then every
        joint outcome of each, to the place of its successor tuple sorted
        within the groups; and the joint action codes by id."""
        size = len(self.positions)
        place, chosen = np.arange(size), []
        parts = np.zeros(size, np.int64)  # the joint action's per-robot parts, coded
        for r, t in enumerate(robots):
            s = self.positions[place, r]
            n = t.row_start[s + 1] - t.row_start[s]
            c = _ranges(t.row_start, s)
            place, parts = np.repeat(place, n), np.repeat(parts, n) + t.actions[c] * self._act_radix[r]
            chosen = [np.repeat(x, n) for x in chosen] + [c]
        owner, probs, succ = np.arange(len(place)), np.ones(len(place)), []
        for r, t in enumerate(robots):
            c = chosen[r][owner]
            n = t.out_start[c + 1] - t.out_start[c]
            o = _ranges(t.out_start, c)
            owner, probs = np.repeat(owner, n), np.repeat(probs, n) * t.probs[o]
            succ = [np.repeat(s, n) for s in succ] + [t.targets[o]]
        actions, codes = _first_seen(parts)
        return Arrays(_offsets(np.bincount(place, minlength=size)), actions,
                      _offsets(np.bincount(owner, minlength=len(place))),
                      self._place[self._sorted_number(succ)], probs), codes


class MamdpModel:
    """Reachable joint product of all robots with the mission automata.

    Joint action names join the per-robot action names with "|"; every
    robot can also "idle" (self-loop) in any state. Safety violating
    joint states keep their action names but become self-loops. `mdp` is
    the quotient by swaps of robots that share a model object, and
    `states` lists its (position tuple, automaton vector) pairs, the
    positions sorted within each group of them, built on first read.
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
        joint = _JointPlaces(models, automata)
        explorer = Explorer(automata, joint.moves, joint.labels)
        explorer.explore(0, automata.start(models, tuple(m.initial for m in models)))
        self.mdp = Mdp(len(explorer.places), 0, *joint.named(explorer.arrays))
        self._positions, self._vectors = joint.positions[explorer.places], explorer.vectors
        self._orbits = joint.orbits[explorer.places]
        classes = automata.classes_of(explorer.vectors)
        self.accepting = frozenset(np.flatnonzero(classes == TARGET).tolist())
        self.violating = frozenset(np.flatnonzero(classes == AVOID).tolist())

    @cached_property
    def states(self):
        vectors = self.automata.vectors
        return [(tuple(p), vectors[v]) for p, v in zip(self._positions.tolist(), self._vectors.tolist())]

    @property
    def num_states(self):
        return self.mdp.num_states

    def unreduced_size(self):
        """Reachable states and transitions of the joint model without
        the swap reduction: each state stands for its orbit, one state per
        position tuple that sorts to its positions, each reachable and
        with as many outcomes."""
        row_start, _, out_start, _, _ = self.mdp.arrays
        return int(self._orbits.sum()), int(self._orbits @ np.diff(out_start[row_start]))

    def full_size(self):
        """Unpruned size; it leaves out the robots' failure states, which
        joint states reach, so it can be below the reachable count."""
        return self.automata.unpruned_size(self.models)


def build_mamdp(models, mission, ceiling=10_000_000, automata=None):
    return MamdpModel(models, mission, ceiling=ceiling, automata=automata)


def solve_mamdp(mm, epsilon=1e-6):
    """Optimal mission probability at the joint start, with the solve's
    `ReachResult` (whose policy is read off on first access), swept one
    `Automata.ranks` block at a time."""
    res = max_reach(mm.mdp, mm.accepting, mm.violating, epsilon=epsilon, blocks=mm.automata.ranks()[mm._vectors])
    return res.values[0], res
