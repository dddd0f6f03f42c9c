"""Product of a robot model with the mission automata, tracking task progress.

`Automata` owns the rules on automaton vectors. A vector holds one
component per task (mission order) and the safety component last when a
safety formula is present; the safety automaton's accepting states are
its non-violating ones, so a vector is accepting when every component
is. Components advance on the label of the successor map state; the
initial map state's label is applied once at construction so a task true
at the start is immediately accepting. `Automata.advance` caches each
(vector, label) step: few distinct pairs occur (about 2,800 in 38,000
steps over a 15,000-state team's products), so one dictionary replaces
per-component stepping and no second automaton representation is needed.

`ProductMdp` is the only model builder that applies the advance to a
robot's moves; the team model reads its stacked `arrays` and the classes
and vector ids of its states.
"""

from functools import cached_property

import numpy as np

from .dfa import compile_cosafe, compile_safe, minimize
from .mdp import AVOID, LIVE, TARGET, Explorer, Mdp, _concat, _stack


class ProductError(ValueError):
    """Model and mission cannot be composed."""


class Automata:
    """The mission's minimized automata: one per task, plus the safety
    automaton or None. `dfas` lists every component of a vector in order.
    Unpacks as the pair `tasks, safety`.

    A class with slots rather than a named tuple: the per-state rules
    below read its attributes, which a tuple subclass serves more slowly.
    """

    __slots__ = ("tasks", "safety", "dfas", "steps")

    def __init__(self, tasks, safety):
        self.tasks = tuple(tasks)
        self.safety = safety
        self.dfas = self.tasks if safety is None else (*self.tasks, safety)
        self.steps = {}  # (vector, label) -> next vector

    def __iter__(self):
        return iter((self.tasks, self.safety))

    def advance(self, qvec, label):
        """The next vector; `label` is a hashable set of atoms."""
        nxt = self.steps.get((qvec, label))
        if nxt is None:
            nxt = self.steps[qvec, label] = tuple([d.advance(q, label) for d, q in zip(self.dfas, qvec)])
        return nxt

    def advance_joint(self, qvec, models, positions):
        """Advance on the union of the labels of every robot's position."""
        return self.advance(qvec, frozenset().union(*(m.label(s) for m, s in zip(models, positions))))

    def start(self, models, positions):
        """The vector at a start: every automaton's initial state, advanced
        once on the union of the labels of the robots' start positions."""
        return self.advance_joint(tuple(d.initial for d in self.dfas), models, positions)

    def accepting(self, qvec):
        for k, d in enumerate(self.dfas):
            if qvec[k] not in d.accepting:
                return False
        return True

    def violating(self, qvec):
        return self.safety is not None and qvec[-1] not in self.safety.accepting

    def switchable(self, qvec):
        """True when every component is at its initial state or accepting."""
        for k, d in enumerate(self.dfas):
            if qvec[k] != d.initial and qvec[k] not in d.accepting:
                return False
        return True

    def unpruned_size(self, models):
        """Size of the unpruned product of `models` with every automaton.
        The designated failure states carry no task progress, so they are
        not counted as map factors. Reachable models do contain them, so a
        reachable count can exceed this size."""
        n = 1
        for m in models:
            n *= m.num_states - (1 if m.failure_state is not None else 0)
        for d in self.dfas:
            n *= d.num_states
        return n


def compile_mission(mission):
    """Minimized automata for every task plus the safety formula (or None)."""
    tasks = (minimize(compile_cosafe(f)) for f in mission.tasks)
    return Automata(tasks, minimize(compile_safe(mission.safety)) if mission.safety is not None else None)


class ProductMdp:
    """Product of one robot's model with the mission automata.

    The only model builder that advances the automaton vector on one
    robot's moves. Safety-violating product states keep their action names
    but turn into self-loops: nothing that happens after a violation can
    matter, and the collapse keeps the trap region from multiplying out
    the map.

    A state's row is its map state's move table with each distinct
    successor interned once, in first-appearance order; rows carry no costs.
    Per state, `states` holds (map state, automaton vector) and `arrays`
    its row; the numpy columns `map_states`, `vector_ids` (distinct
    vectors numbered in order of first appearance) and `classes` (TARGET,
    AVOID or LIVE by the vector) say the same for the team model's build.

    `mdp`, `accepting`, `violating` and `num_states` describe the product
    reachable from the robot's initial state; the two sets are built on
    first read. `explore((s, q))` extends the product from another root,
    appending the states reachable from it; the first `num_states` states
    never change.
    """

    def __init__(self, source, mission, automata):
        self.source = source
        self.mission = mission
        self.automata = automata
        advance, violating = automata.advance, automata.violating

        def move_table(choices):
            """Action indices, outcome counts, local successor ids and
            probabilities of a map state's choices, and its distinct
            successors with their labels in first-appearance order."""
            succs = {}
            local = [succs.setdefault(t, len(succs)) for c in choices for t, _ in c.outcomes]
            return (np.array([c.action for c in choices], np.int64),
                    np.array([len(c.outcomes) for c in choices], np.int64), np.array(local, np.int64),
                    np.array([p for c in choices for _, p in c.outcomes], np.float64),
                    [(t, source.label(t)) for t in succs])

        tables = [move_table(row) for row in source.choices]

        def expand(key, intern):
            s, qvec = key
            acts, counts, local, probs, succs = tables[s]
            if violating(qvec):
                return acts, np.ones_like(counts), np.full(len(acts), intern(key), np.int32), np.ones(len(acts))
            lookup = [intern((t, advance(qvec, label))) for t, label in succs]
            return acts, counts, np.array(lookup, np.int32)[local], probs

        # expand holds no reference to self, so a product is freed without
        # waiting for the cycle collector
        self._explorer = Explorer(expand)
        self.states = self._explorer.keys
        self._vectors = {}
        self.arrays = self.map_states = self.vector_ids = self.classes = None
        self.explore((source.initial, automata.start([source], [source.initial])))
        n = self.num_states = len(self.states)
        self.mdp = Mdp(n, 0, source.actions, arrays=self.arrays)

    def explore(self, key):
        """Index of product state `key`, after appending every state
        reachable from it; stacks the appended rows onto `arrays`."""
        root = self._explorer.explore(key)
        rows = self._explorer.take()
        if rows:
            automata, vectors = self.automata, self._vectors  # vector -> (id, class)

            def kind(q):
                return TARGET if automata.accepting(q) else AVOID if automata.violating(q) else LIVE

            new = self.states[-len(rows):]
            ids, kinds = np.array([vectors.get(q) or vectors.setdefault(q, (len(vectors), kind(q)))
                                   for _, q in new], np.int32).T
            grown = (_stack(rows), np.array([s for s, _ in new], np.int32), ids, kinds.astype(np.uint8))
            if self.arrays is not None:
                old = (self.map_states, self.vector_ids, self.classes)
                grown = (_concat((self.arrays, grown[0])), *map(np.concatenate, zip(old, grown[1:])))
            self.arrays, self.map_states, self.vector_ids, self.classes = grown
        return root

    @cached_property
    def accepting(self):
        return frozenset(np.flatnonzero(self.classes[:self.num_states] == TARGET).tolist())

    @cached_property
    def violating(self):
        return frozenset(np.flatnonzero(self.classes[:self.num_states] == AVOID).tolist())

    def full_size(self):
        return self.automata.unpruned_size([self.source])


def local_product(mdp, mission, automata=None):
    """Compose one robot's model with the mission.

    `automata` lets several robots share one `compile_mission` result.
    """
    missing = sorted(set(mission.atoms) - set(mdp.atoms))
    if missing:
        raise ProductError(f"mission atoms not in model alphabet: {', '.join(missing)}")
    return ProductMdp(mdp, mission, automata if automata is not None else compile_mission(mission))


def local_products(models, mission):
    """One product per robot, all over one compilation of the mission.

    Robots given the same model object share one product: a product only
    grows by appending states, so sharing it changes nothing a robot sees.
    """
    shared = compile_mission(mission)
    built = {}
    for m in models:
        if id(m) not in built:
            built[id(m)] = local_product(m, mission, automata=shared)
    return [built[id(m)] for m in models]

