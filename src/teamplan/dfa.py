"""Finite automata for the two temporal fragments, built by formula progression.

A state is a canonical residual formula: the obligation that remains after
the labels consumed so far. Progressing `true`/`false` loops, so both
fragments yield a total deterministic automaton over the powerset of the
formula's own atoms. Reachability formulas accept exactly in the `true`
residual; invariant formulas reject exactly in the `false` residual (the
trap), every other state being accepting. `minimize` merges the states
that accept the same language by Moore's partition refinement. A formula
over `MAX_ATOMS` atoms is refused before any label is enumerated.
"""

from itertools import combinations

from .ltl import (FALSE, TRUE, And, Atom, Eventually, Always, FalseConst, Formula, FormulaClass, Next, NotAtom, Or,
                  TrueConst, Until, _shown, _subnodes, _write_json, atoms_of, classify, format_formula,
                  is_syntactically_cosafe, is_syntactically_safe)


class CompileError(ValueError):
    pass


# node kinds in the order `_key` sorts them
_KIND = {TrueConst: 0, FalseConst: 1, Atom: 2, NotAtom: 3, Next: 4, Eventually: 5, Always: 6, Until: 7, And: 8, Or: 9}


def _key(f: Formula):
    """Structural total order used to sort conjunct/disjunct lists."""
    kind = _KIND.get(type(f))
    if kind is None:
        raise TypeError(f"not a formula node: {f!r}")
    return kind, getattr(f, "name", ""), tuple(_key(c) for c in _subnodes(f))


def _antichain(sets):
    """Minimal elements under inclusion: X | (X & Y) collapses to X."""
    keep = []
    for d in sorted(set(sets), key=lambda s: (len(s), tuple(sorted(_key(x) for x in s)))):
        if not any(k <= d for k in keep):
            keep.append(d)
    return keep


def _branches(f):
    """Conjunct sets of an already canonical formula."""
    if isinstance(f, Or):
        return [frozenset(_conjuncts(c)) for c in f.children]
    return [frozenset(_conjuncts(f))]


def _conjuncts(f):
    return f.children if isinstance(f, And) else (f,)


def _dnf(f):
    """Conjunct sets of `f` with children canonicalized, as an antichain.

    [] means false, [frozenset()] means true.
    """
    if isinstance(f, Or):
        out = []
        for c in f.children:
            cc = canonical(c)
            if isinstance(cc, TrueConst):
                return [frozenset()]
            if isinstance(cc, FalseConst):
                continue
            out.extend(_branches(cc))
        return _antichain(out)
    parts = [frozenset()]
    for c in f.children:
        cc = canonical(c)
        if isinstance(cc, FalseConst):
            return []
        if isinstance(cc, TrueConst):
            continue
        parts = _antichain(p | b for p in parts for b in _branches(cc))
    return parts


def canonical(f: Formula) -> Formula:
    """Canonical form giving progression states a finite identity.

    The boolean layer is rewritten to a disjunction of conjunctions of
    literals and temporal nodes, deduplicated, sorted and pruned by
    absorption, so progressing never nests fresh And/Or alternations;
    temporal operators over constants collapse. No complementary-literal
    or validity reasoning happens here; residuals like `p | !p` stay
    distinct from `true` on purpose, matching the strong/weak
    finite-trace semantics that accept only once the witness has
    actually been observed. Stacked operators collapse (`F F a` and
    `true U F a` to `F a`, `G G a` to `G a`): progression would otherwise
    carry every level of the stack into ever longer residuals.
    """
    if isinstance(f, (TrueConst, FalseConst, Atom, NotAtom)):
        return f
    if isinstance(f, (And, Or)):
        parts = _dnf(f)
        if not parts:
            return FALSE
        terms = []
        for conj in parts:
            if not conj:
                return TRUE
            ordered = sorted(conj, key=_key)
            terms.append(ordered[0] if len(ordered) == 1 else And(tuple(ordered)))
        terms = sorted(terms, key=_key)
        return terms[0] if len(terms) == 1 else Or(tuple(terms))
    if isinstance(f, (Next, Eventually, Always)):
        c = canonical(f.child)
        if isinstance(c, (TrueConst, FalseConst)) or type(c) is type(f) is not Next:  # F F a = F a, G G a = G a
            return c
        return type(f)(c)
    if isinstance(f, Until):
        left = canonical(f.left)
        right = canonical(f.right)
        if isinstance(right, (TrueConst, FalseConst)):
            return right
        if isinstance(left, FalseConst):
            return right
        if isinstance(left, TrueConst):
            return right if isinstance(right, Eventually) else Eventually(right)
        return Until(left, right)
    raise TypeError(f"not a formula node: {f!r}")


def progress(f: Formula, label: frozenset[str]) -> Formula:
    """One progression step: the canonical obligation after observing `label`.

    prog(p, L) = [p in L];  prog(X a, L) = a;  prog(F a, L) = prog(a, L) | F a;
    prog(G a, L) = prog(a, L) & G a;  prog(a U b, L) = prog(b, L) | (prog(a, L) & a U b).
    """
    if isinstance(f, (TrueConst, FalseConst)):
        return f
    if isinstance(f, Atom):
        return TRUE if f.name in label else FALSE
    if isinstance(f, NotAtom):
        return TRUE if f.name not in label else FALSE
    if isinstance(f, (And, Or)):
        return canonical(type(f)(tuple(progress(c, label) for c in f.children)))
    if isinstance(f, Next):
        return f.child
    if isinstance(f, Eventually):
        return canonical(Or((progress(f.child, label), f)))
    if isinstance(f, Always):
        return canonical(And((progress(f.child, label), f)))
    if isinstance(f, Until):
        return canonical(Or((progress(f.right, label), And((progress(f.left, label), f)))))
    raise TypeError(f"not a formula node: {f!r}")


def _powerset(atoms) -> list[frozenset[str]]:
    """Every subset of `atoms`, by size and then in combination order."""
    return [frozenset(c) for r in range(len(atoms) + 1) for c in combinations(atoms, r)]


class Dfa:
    """Total deterministic automaton over subsets of its relevant atoms."""

    def __init__(self, num_states, initial, accepting, atoms, delta):
        self.num_states: int = num_states
        self.initial: int = initial
        self.accepting: frozenset[int] = frozenset(accepting)
        self.atoms: tuple[str, ...] = tuple(atoms)
        self.delta: dict[tuple[int, frozenset[str]], int] = dict(delta)

    def labels(self) -> list[frozenset[str]]:
        """Powerset of the relevant atoms, in a fixed deterministic order."""
        return _powerset(self.atoms)

    def advance(self, q: int, label) -> int:
        """Step on an arbitrary label set; irrelevant atoms are projected away."""
        return self.delta[(q, frozenset(label) & frozenset(self.atoms))]

    def to_dict(self) -> dict:
        trans = []
        for (q, label), q2 in sorted(self.delta.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
            trans.append({"from": q, "label": sorted(label), "to": q2})
        return {
            "states": list(range(self.num_states)),
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "atoms": list(self.atoms),
            "trans": trans,
        }

    def save(self, path):
        _write_json(path, self.to_dict())


MAX_STATES = 50_000  # progression gives up beyond this many automaton states
# a compile steps every state on every subset of the formula's atoms, and
# `product.Automata` keeps a column per subset, so both double with each
# atom; at 12 (4,096 labels) `F (a0 & ... & a11)` compiles in about 0.5 s
MAX_ATOMS = 12


def _explore(f: Formula):
    f0 = canonical(f)
    atoms = tuple(sorted(atoms_of(f0)))
    if len(atoms) > MAX_ATOMS:
        raise CompileError(f"{_shown(format_formula(f))} has {len(atoms)} atoms, "
                           f"more than the {MAX_ATOMS} a compile allows")
    labels = _powerset(atoms)
    index = {f0: 0}
    order = [f0]
    delta = {}
    frontier = [f0]
    while frontier:
        nxt = []
        for g in frontier:
            qi = index[g]
            for label in labels:
                h = progress(g, label)
                if h not in index:
                    if len(index) >= MAX_STATES:
                        raise CompileError(
                            f"progression exceeded {MAX_STATES} states for {_shown(format_formula(f))}"
                        )
                    index[h] = len(order)
                    order.append(h)
                    nxt.append(h)
                delta[(qi, label)] = index[h]
        frontier = nxt
    return order, atoms, delta, index


def compile_cosafe(f: Formula) -> Dfa:
    """Automaton accepting exactly the strong-semantics good prefixes."""
    if not is_syntactically_cosafe(f):
        raise CompileError("formula has G, not in the reachability fragment")
    order, atoms, delta, index = _explore(f)
    accepting = frozenset({index[TRUE]}) if TRUE in index else frozenset()
    return Dfa(len(order), 0, accepting, atoms, delta)


def compile_safe(f: Formula) -> Dfa:
    """Automaton accepting exactly the traces that are not yet bad prefixes."""
    if not is_syntactically_safe(f):
        raise CompileError("formula has F or U, not in the invariant fragment")
    order, atoms, delta, index = _explore(f)
    trap = index.get(FALSE)
    accepting = frozenset(i for i in range(len(order)) if i != trap)
    return Dfa(len(order), 0, accepting, atoms, delta)


def compile_formula(f: Formula) -> Dfa:
    """Dispatch on the syntactic fragment; rejects formulas in neither."""
    fc = classify(f)
    if fc is FormulaClass.COSAFE:
        return compile_cosafe(f)
    if fc is FormulaClass.SAFE:
        return compile_safe(f)
    raise CompileError(f"{_shown(format_formula(f))} mixes F/U with G, no finite-trace automaton")


def minimize(dfa: Dfa) -> Dfa:
    """Moore's partition refinement over the states reachable from the initial one.

    A state's signature is its block and its successors' blocks, label by
    label; states with equal signatures share the next round's block.
    Refinement stops once the number of blocks stops growing. Blocks are
    numbered by their least state.
    """
    labels = dfa.labels()
    succ, stack = {}, [dfa.initial]
    while stack:
        q = stack.pop()
        if q not in succ:
            succ[q] = [dfa.delta[(q, label)] for label in labels]
            stack.extend(succ[q])
    states = sorted(succ)
    block, count = {q: q in dfa.accepting for q in states}, 0
    while True:
        sig = {q: (block[q], *(block[r] for r in succ[q])) for q in states}
        ids = {}
        for q in states:
            ids.setdefault(sig[q], len(ids))
        block = {q: ids[sig[q]] for q in states}
        if len(ids) == count:
            break
        count = len(ids)
    least = {}
    for q in states:
        least.setdefault(block[q], q)
    delta = {(b, label): block[r] for b, q in least.items() for label, r in zip(labels, succ[q])}
    accepting = frozenset(block[q] for q in states if q in dfa.accepting)
    return Dfa(count, block[dfa.initial], accepting, dfa.atoms, delta)
