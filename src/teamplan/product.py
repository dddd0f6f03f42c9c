"""Product of a robot model with the mission automata, tracking task progress.

The automaton vector holds one component per task (mission order) and the
safety component last when a safety formula is present. Components advance
on the label of the successor map state; the initial map state's label is
applied once at construction so a task true at the start is immediately
accepting.
"""

from collections import deque

from .dfa import compile_cosafe, compile_safe, minimize
from .mdp import Choice, Mdp


class ProductError(ValueError):
    """Model and mission cannot be composed."""


def compile_mission(mission):
    """Minimized automata for every task plus the safety formula (or None)."""
    tasks = tuple(minimize(compile_cosafe(f)) for f in mission.tasks)
    safety = minimize(compile_safe(mission.safety)) if mission.safety is not None else None
    return tasks, safety


def vector_initial(task_dfas, safety_dfa):
    out = [d.initial for d in task_dfas]
    if safety_dfa is not None:
        out.append(safety_dfa.initial)
    return tuple(out)


def advance_vector(task_dfas, safety_dfa, qvec, label):
    out = [d.advance(q, label) for d, q in zip(task_dfas, qvec)]
    if safety_dfa is not None:
        out.append(safety_dfa.advance(qvec[-1], label))
    return tuple(out)


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


class ProductMdp:
    """Reachable product of one robot's model with the mission automata.

    Safety-violating product states keep their action names but turn into
    self-loops: nothing that happens after a violation can matter, and the
    collapse keeps the trap region from multiplying out the map.
    """

    def __init__(self, source, mission, task_dfas, safety_dfa):
        self.source = source
        self.mission = mission
        self.task_dfas = task_dfas
        self.safety_dfa = safety_dfa
        init_q = advance_vector(
            task_dfas, safety_dfa, vector_initial(task_dfas, safety_dfa), source.label(source.initial)
        )
        init = (source.initial, init_q)
        self.states = [init]
        self.index = {init: 0}
        choices = []
        queue = deque([0])
        while queue:
            i = queue.popleft()
            s, qvec = self.states[i]
            row = []
            if vector_violating(safety_dfa, qvec):
                row = [Choice(c.action, ((i, 1.0),), None) for c in source.choices[s]]
            else:
                for c in source.choices[s]:
                    outs = []
                    for t, p in c.outcomes:
                        succ = (t, advance_vector(task_dfas, safety_dfa, qvec, source.label(t)))
                        j = self.index.get(succ)
                        if j is None:
                            j = len(self.states)
                            self.index[succ] = j
                            self.states.append(succ)
                            queue.append(j)
                        outs.append((j, p))
                    row.append(Choice(c.action, tuple(outs), c.cost))
            choices.append(row)
        labels = {}
        for i, (s, _) in enumerate(self.states):
            lab = source.label(s)
            if lab:
                labels[i] = lab
        self.mdp = Mdp(len(self.states), 0, source.actions, choices, atoms=source.atoms, labels=labels)
        self.accepting = frozenset(
            i for i, (_, q) in enumerate(self.states) if vector_accepting(task_dfas, safety_dfa, q)
        )
        self.violating = frozenset(
            i for i, (_, q) in enumerate(self.states) if vector_violating(safety_dfa, q)
        )
        if source.failure_state is None:
            self.failed = frozenset()
        else:
            self.failed = frozenset(i for i, (s, _) in enumerate(self.states) if s == source.failure_state)

    @property
    def num_states(self):
        return len(self.states)

    @property
    def num_tasks(self):
        return len(self.task_dfas)

    def task_done(self, i, k):
        return self.states[i][1][k] in self.task_dfas[k].accepting

    def full_size(self, with_safety=False):
        """Unpruned product size. The designated failure state carries no
        task progress, so it is not counted as a map factor."""
        n = self.source.num_states - (1 if self.source.failure_state is not None else 0)
        for d in self.task_dfas:
            n *= d.num_states
        if with_safety and self.safety_dfa is not None:
            n *= self.safety_dfa.num_states
        return n

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

    Robots given the same model object share one product: products are
    never modified once built.
    """
    shared = compile_mission(mission)
    built = {}
    for m in models:
        if id(m) not in built:
            built[id(m)] = local_product(m, mission, automata=shared)
    return [built[id(m)] for m in models]


def accepting_states(pm):
    return pm.accepting
