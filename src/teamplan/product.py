"""Product of a robot model with the mission automata, tracking task progress.

`Automata` owns the rules on automaton vectors. A vector holds one
component per task (mission order) and the safety component last when a
safety formula is present; the safety automaton's accepting states are
its non-violating ones, so a vector is accepting when every component
is. Components advance on the label of the successor map state; the
initial map state's label is applied once at construction so a task true
at the start is immediately accepting.

`Automata` numbers vectors and labels; modules pass a vector as its id,
and tuples enter only by `vector_id` and leave by `vectors`. Ids step
through one dense (vector id, label id) table. Few distinct pairs occur
(about 2,800 in 38,000 steps, one per outcome, over a 15,000-state
team's products); each layer of an exploration steps each distinct miss
once, in one batch from per-DFA dense tables over (state, label code).
The starts and the joint chain `advance` one id at a time on a
`joint_label`.

`ProductMdp` is the only model builder that applies the advance to a
robot's moves, exploring with `mdp.Explorer`; the team model reads its
stacked `arrays` and the columns of its states. Its move table is the
robot model's arrays, a row per model state, so `MAX_STATES` also bounds
the states of a model file as `mdp.model_from_dict` reads it.
"""

import math
from functools import cached_property
from itertools import count

import numpy as np

from .dfa import compile_cosafe, compile_safe, minimize
from .mdp import AVOID, LIVE, TARGET, Explorer, Mdp, _dense_number, _grow, _reachable

MAX_STATES = 1_000_000  # a product's exploration gives up beyond this many states


class ProductError(ValueError):
    """Model and mission cannot be composed."""


class Automata:
    """The mission's minimized automata: one per task, plus the safety
    automaton or None. `dfas` lists every component of a vector in order.
    Unpacks as the pair `tasks, safety`.

    Vectors and labels are numbered when first seen; `vectors` lists the
    vectors by id, `classes` their TARGET, AVOID or LIVE class and
    `handover` whether a switch may hand them on (`switchable`), both
    appended by `_sync`. `step` takes vector ids through `table`, dense
    over (vector id, label id), -1 where not yet known and grown by
    doubling, and fills a batch's misses at once from a dense table per
    DFA over (state, label code), a label's code setting bit i when the
    label holds the DFA's i-th atom.
    """

    __slots__ = ("tasks", "safety", "dfas", "vectors", "table", "classes", "handover", "_vids", "_lids", "_codes",
                 "_comps", "_deltas")

    def __init__(self, tasks, safety):
        self.tasks = tuple(tasks)
        self.safety = safety
        self.dfas = self.tasks if safety is None else (*self.tasks, safety)
        self.vectors, self._vids, self._lids = [], {}, {}
        self._codes = self._comps = np.zeros((0, len(self.dfas)), np.int64)
        self.classes, self.handover, self.table = np.zeros(0, np.uint8), np.zeros(0, bool), np.zeros((0, 0), np.int64)
        self._deltas = [np.zeros((d.num_states, 1 << len(d.atoms)), np.int64) for d in self.dfas]
        for d, delta in zip(self.dfas, self._deltas):
            for (q, label), r in d.delta.items():
                delta[q, sum(1 << d.atoms.index(a) for a in label)] = r

    def __iter__(self):
        return iter((self.tasks, self.safety))

    def vector_id(self, qvec):
        v = self._vids.get(qvec)
        if v is None:
            v = self._vids[qvec] = len(self.vectors)
            self.vectors.append(qvec)
        return v

    def label_id(self, label):
        """The id of `label`, a hashable set of atoms."""
        i = self._lids.get(label)
        if i is None:
            i = self._lids[label] = len(self._lids)
            self._codes = np.vstack((self._codes, [sum(1 << k for k, a in enumerate(d.atoms) if a in label)
                                                   for d in self.dfas]))
            self.table = _grow(self.table, (0, i + 1))
        return i

    def joint_label(self, models, positions):
        """The id of the union of the labels of the robots' positions."""
        return self.label_id(frozenset().union(*(m.label(s) for m, s in zip(models, positions))))

    def classes_of(self, vids):
        self._sync()
        return self.classes[vids]

    def _sync(self):
        """Append the columns of the vectors numbered since the last call
        and give each a row of the table."""
        n = len(self.classes)
        if n == len(self.vectors):
            return
        new = self.vectors[n:]
        self.classes = np.concatenate((self.classes, np.array(
            [TARGET if self.accepting(q) else AVOID if self.violating(q) else LIVE for q in new], np.uint8)))
        self.handover = np.concatenate((self.handover, np.array([self.switchable(q) for q in new], bool)))
        self._comps = np.concatenate((self._comps, np.array(new, np.int64).reshape(len(new), len(self.dfas))))
        self.table = _grow(self.table, (len(self.vectors), 0))

    def step(self, vids, lids):
        """The next vector id of each (vector id, label id) pair, a missed pair stepped once."""
        self._sync()
        nxt = self.table[vids, lids]
        if (nxt < 0).any():  # the missed pairs, each once and in order, numbered in the table until stepped
            v, label = np.divmod(_dense_number(self.table.reshape(-1), vids * self.table.shape[1] + lids, 0)[1],
                                 self.table.shape[1])
            states, codes = self._comps[v].T, self._codes[label].T
            ids = [self.vector_id(q) for q in zip(*[d[q, c].tolist() for d, q, c in zip(self._deltas, states, codes)])]
            self.table[v, label] = ids
            nxt = self.table[vids, lids]
        return nxt

    def ranks(self):
        """Each vector id's rank: the number of its strongly connected
        component in the graph of the known steps of `table`, components
        numbered in the order Tarjan's algorithm (run iteratively) closes
        them, so that a step keeps or lowers the rank."""
        self._sync()
        succs = [row[row >= 0].tolist() for row in self.table[:len(self.vectors)]]
        order, low, rank = [-1] * len(succs), [0] * len(succs), np.full(len(succs), -1, np.int64)
        stack, calls, visits, closed = [], [], count(), 0

        def call(v):
            order[v] = low[v] = next(visits)
            stack.append(v)
            calls.append((v, iter(succs[v])))

        for root in range(len(succs)):
            if order[root] < 0:
                call(root)
            while calls:
                v, todo = calls[-1]
                for w in todo:
                    if order[w] < 0:
                        call(w)
                        break
                    if rank[w] < 0:  # w is on the stack
                        low[v] = min(low[v], order[w])
                else:
                    calls.pop()
                    if calls:
                        low[calls[-1][0]] = min(low[calls[-1][0]], low[v])
                    if low[v] == order[v]:
                        at = stack.index(v)
                        rank[stack[at:]] = closed
                        del stack[at:]
                        closed += 1
        return rank

    def advance(self, v, label):
        """The id of vector `v` stepped on the label of id `label`."""
        nxt = self.table[v, label] if v < len(self.table) else -1
        return int(nxt if nxt >= 0 else self.step(np.array([v]), np.array([label]))[0])

    def start(self, models, positions):
        """The id of the vector at a start: every automaton's initial state,
        advanced once on the union of the labels of the robots' positions."""
        return self.advance(self.vector_id(tuple(d.initial for d in self.dfas)), self.joint_label(models, positions))

    def accepting(self, qvec):
        return all(q in d.accepting for d, q in zip(self.dfas, qvec))

    def violating(self, qvec):
        return self.safety is not None and qvec[-1] not in self.safety.accepting

    def switchable(self, qvec):
        """True when `qvec` is not violating and every component is at its
        initial state or accepting."""
        return not self.violating(qvec) and all(q == d.initial or q in d.accepting for d, q in zip(self.dfas, qvec))

    def unpruned_size(self, models):
        """Size of the unpruned product of `models` with every automaton.
        The designated failure states carry no task progress, so they are
        not counted as map factors. Reachable models do contain them, so a
        reachable count can exceed this size."""
        return math.prod(m.num_states - (m.failure_state is not None) for m in models) * math.prod(
            d.num_states for d in self.dfas)


def compile_mission(mission):
    """Minimized automata for every task plus the safety formula (or None)."""
    tasks = (minimize(compile_cosafe(f)) for f in mission.tasks)
    return Automata(tasks, minimize(compile_safe(mission.safety)) if mission.safety is not None else None)


class ProductMdp:
    """Product of one robot's model with the mission automata, built by the
    `Explorer` over the robot's map states as places.

    The only model builder that advances the automaton vector on one
    robot's moves. Safety-violating product states keep their action names
    but turn into self-loops: nothing that happens after a violation can
    matter, and the collapse keeps the trap region from multiplying out the
    map. The explorer's move table is the robot model's own `arrays`, a
    row per map state, and every product state there takes that row; no
    costs carry over.

    Per state, `arrays` holds its row and the numpy columns `map_states`,
    `vector_ids` (ids into `automata.vectors`) and `classes` (TARGET,
    AVOID or LIVE by the vector) say what the team model reads; `states`
    builds (map state, vector) tuples on each read, which no plan does.
    `mdp`, `accepting`, `violating` and `num_states` describe the product
    reachable from the robot's initial state. `explore(s, v)` extends
    the product from another root, map state `s` and vector id `v`,
    appending the states reachable from it. Past `MAX_STATES` states,
    exploring raises `BudgetExceeded`.
    """

    def __init__(self, source, mission, automata):
        self.source, self.mission, self.automata = source, mission, automata
        labels = np.array([automata.label_id(source.label(t)) for t in range(source.num_states)], np.int64)
        self._explorer = Explorer(automata, source.arrays, labels, MAX_STATES)
        self.classes = np.zeros(0, np.uint8)
        self._closures = {}
        self.explore(source.initial, automata.start([source], [source.initial]))
        self.num_states = len(self.map_states)
        self.mdp = Mdp(self.num_states, 0, source.actions, arrays=self.arrays)

    def explore(self, s, v):
        """Index of the product state of map state `s` and vector id `v`,
        after appending every state reachable from it to `arrays` and the
        columns."""
        explorer = self._explorer
        root = explorer.explore(s, v)
        if len(explorer.places) > len(self.classes):
            self.arrays, self.map_states, self.vector_ids = explorer.arrays, explorer.places, explorer.vectors
            self.classes = self.automata.classes_of(explorer.vectors)
        return root

    def closure(self, roots):
        """The states reachable from the distinct states `roots`, read-only:
        the roots, then each `_frontier` layer over the outcomes, in state
        order. States are only appended and a state's row never changes,
        so a closure never does; each is computed once per roots in order."""
        key = tuple(roots.tolist())
        if key not in self._closures:
            self._closures[key] = _closure(self, roots)
            self._closures[key].flags.writeable = False
        return self._closures[key]

    @property
    def states(self):
        vectors = self.automata.vectors
        return list(zip(self.map_states.tolist(), [vectors[v] for v in self.vector_ids.tolist()]))

    @cached_property
    def accepting(self):
        return frozenset(np.flatnonzero(self.classes[:self.num_states] == TARGET).tolist())

    @cached_property
    def violating(self):
        return frozenset(np.flatnonzero(self.classes[:self.num_states] == AVOID).tolist())

    def full_size(self):
        return self.automata.unpruned_size([self.source])


def _closure(pm, roots):
    if len(roots) == 1 and roots[0] == 0:  # the first states are those reachable from the initial one
        return np.arange(pm.num_states)
    return _reachable(pm.arrays, roots)


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

