"""Product of a robot model with the mission automata, tracking task progress.

The automaton vector holds one component per task (mission order) and the
safety component last when a safety formula is present. Components advance
on the label of the successor map state; the initial map state's label is
applied once at construction so a task true at the start is immediately
accepting.

This module owns the rules on automaton vectors: the vector at a start
(`vector_start`), how a move advances one (`advance_vector`, and
`advance_joint` on the union of several robots' labels), which vectors
are accepting, violating or switchable, and the unpruned state count
(`unpruned_size`). `ProductMdp` is the only model builder that applies
the advance to a robot's moves; the team model reads its rows.
"""

from .dfa import compile_cosafe, compile_safe, minimize
from .mdp import Choice, Explorer, Mdp


class ProductError(ValueError):
    """Model and mission cannot be composed."""


def compile_mission(mission):
    """Minimized automata for every task plus the safety formula (or None)."""
    tasks = tuple(minimize(compile_cosafe(f)) for f in mission.tasks)
    safety = minimize(compile_safe(mission.safety)) if mission.safety is not None else None
    return tasks, safety


def advance_vector(task_dfas, safety_dfa, qvec, label):
    out = [d.advance(q, label) for d, q in zip(task_dfas, qvec)]
    if safety_dfa is not None:
        out.append(safety_dfa.advance(qvec[-1], label))
    return tuple(out)


def advance_joint(task_dfas, safety_dfa, qvec, models, positions):
    """The joint label step: advance on the union of the labels of every
    robot's position."""
    label = frozenset().union(*(m.label(s) for m, s in zip(models, positions)))
    return advance_vector(task_dfas, safety_dfa, qvec, label)


def vector_start(task_dfas, safety_dfa, models, positions):
    """The vector at a start: every automaton's initial state, advanced
    once on the union of the labels of the robots' start positions."""
    initial = [d.initial for d in task_dfas]
    if safety_dfa is not None:
        initial.append(safety_dfa.initial)
    return advance_joint(task_dfas, safety_dfa, tuple(initial), models, positions)


def vector_accepting(task_dfas, safety_dfa, qvec):
    for k, d in enumerate(task_dfas):
        if qvec[k] not in d.accepting:
            return False
    return safety_dfa is None or qvec[-1] in safety_dfa.accepting


def vector_violating(safety_dfa, qvec):
    return safety_dfa is not None and qvec[-1] not in safety_dfa.accepting


def vector_switchable(task_dfas, safety_dfa, qvec):
    """True when every component is at its initial state or accepting."""
    for k, d in enumerate(task_dfas):
        if qvec[k] != d.initial and qvec[k] not in d.accepting:
            return False
    if safety_dfa is not None:
        q = qvec[-1]
        if q != safety_dfa.initial and q not in safety_dfa.accepting:
            return False
    return True


def unpruned_size(models, task_dfas, safety_dfa, with_safety=False):
    """Size of the unpruned product of `models` with the mission automata.
    The designated failure states carry no task progress, so they are not
    counted as map factors."""
    n = 1
    for m in models:
        n *= m.num_states - (1 if m.failure_state is not None else 0)
    for d in task_dfas:
        n *= d.num_states
    if with_safety and safety_dfa is not None:
        n *= safety_dfa.num_states
    return n


class ProductMdp:
    """Product of one robot's model with the mission automata.

    The only model builder that advances the automaton vector on one
    robot's moves; the team model reads its rows and its classification
    (`accepts`, `violates`). Safety-violating product states keep their
    action names but turn into self-loops:
    nothing that happens after a violation can matter, and the collapse
    keeps the trap region from multiplying out the map.

    `mdp`, `accepting`, `violating` and `num_states` describe the product
    reachable from the robot's initial state. `explore((s, q))` extends
    the product from another root, appending the states reachable from it
    to `states` and `rows`; their first `num_states` entries never change.
    """

    def __init__(self, source, mission, task_dfas, safety_dfa):
        self.source = source
        self.mission = mission
        self.task_dfas = task_dfas
        self.safety_dfa = safety_dfa

        def expand(key, intern):
            s, qvec = key
            choices = source.choices[s]
            if vector_violating(safety_dfa, qvec):
                here = intern(key)
                return [Choice(c.action, ((here, 1.0),), None) for c in choices]
            return [
                Choice(
                    c.action,
                    tuple(
                        (intern((t, advance_vector(task_dfas, safety_dfa, qvec, source.label(t)))), p)
                        for t, p in c.outcomes
                    ),
                    c.cost,
                )
                for c in choices
            ]

        # expand holds no reference to self, so a product is freed without
        # waiting for the cycle collector
        explorer = Explorer(expand)
        self.explore = explorer.explore
        self.states = explorer.keys
        self.rows = explorer.rows
        self.explore((source.initial, vector_start(task_dfas, safety_dfa, [source], [source.initial])))
        n = self.num_states = len(self.states)
        labels = {}
        for i in range(n):
            lab = source.label(self.states[i][0])
            if lab:
                labels[i] = lab
        self.mdp = Mdp(n, 0, source.actions, self.rows[:n], atoms=source.atoms, labels=labels)
        self.accepting = frozenset(i for i in range(n) if self.accepts(i))
        self.violating = frozenset(i for i in range(n) if self.violates(i))

    def accepts(self, i):
        return vector_accepting(self.task_dfas, self.safety_dfa, self.states[i][1])

    def violates(self, i):
        return vector_violating(self.safety_dfa, self.states[i][1])

    def task_done(self, i, k):
        return self.states[i][1][k] in self.task_dfas[k].accepting

    def full_size(self, with_safety=False):
        return unpruned_size([self.source], self.task_dfas, self.safety_dfa, with_safety)

    def state_dict(self, i):
        s, q = self.states[i]
        return {"s": s, "q": list(q)}


def local_product(mdp, mission, automata=None):
    """Compose one robot's model with the mission.

    `automata` lets several robots share one compiled (tasks, safety) pair.
    """
    missing = sorted(set(mission.atoms) - set(mdp.atoms))
    if missing:
        raise ProductError(f"mission atoms not in model alphabet: {', '.join(missing)}")
    task_dfas, safety_dfa = automata if automata is not None else compile_mission(mission)
    return ProductMdp(mdp, mission, task_dfas, safety_dfa)


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

