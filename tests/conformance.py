"""The finite-trace semantics, and shared machinery for checking automata against it.

The enumerated family is deterministic: every reachability/invariant formula
of depth 1 over two atoms, plus seeded deeper samples reaching depth 3 and a
third atom. Leaves are literals; constants never appear as leaves, so both
the automaton and the recursive evaluator ground out in observed positions.
"""

from itertools import combinations

import numpy as np

from teamplan.dfa import compile_cosafe, compile_safe, minimize
from teamplan.ltl import (
    And,
    Atom,
    Always,
    Eventually,
    FalseConst,
    Next,
    NotAtom,
    Or,
    TrueConst,
    Until,
    atoms_of,
    format_formula,
    is_syntactically_cosafe,
    is_syntactically_safe,
)


def is_good_prefix(f, trace) -> bool:
    """Strong finite-trace satisfaction for reachability-style formulas.

    The witness must lie inside the trace: an atom past the end is false,
    F and U must find their obligation at an observed position. A trace
    that satisfies this can no longer fail the formula however it is
    extended.
    """
    if not is_syntactically_cosafe(f):
        raise ValueError("good-prefix semantics requires a formula without G")
    steps = [frozenset(step) for step in trace]
    return _strong(f, steps, 0)


def _strong(f, w, i) -> bool:
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, FalseConst):
        return False
    if isinstance(f, Atom):
        return i < len(w) and f.name in w[i]
    if isinstance(f, NotAtom):
        return i < len(w) and f.name not in w[i]
    if isinstance(f, And):
        return all(_strong(c, w, i) for c in f.children)
    if isinstance(f, Or):
        return any(_strong(c, w, i) for c in f.children)
    if isinstance(f, Next):
        return _strong(f.child, w, i + 1) if i < len(w) else _strong(f.child, w, i)
    if isinstance(f, Eventually):
        if i >= len(w):
            return _strong(f.child, w, i)
        return _strong(f.child, w, i) or _strong(f, w, i + 1)
    if isinstance(f, Until):
        if i >= len(w):
            return _strong(f.right, w, i)
        return _strong(f.right, w, i) or (_strong(f.left, w, i) and _strong(f, w, i + 1))
    raise TypeError(f"not a reachability-fragment node: {f!r}")


def is_bad_prefix(f, trace) -> bool:
    """Weak finite-trace violation for invariant-style formulas.

    Everything past the end of the trace is treated as optimistically
    satisfiable, so the trace is a bad prefix exactly when the observed
    steps already doom the formula on every extension.
    """
    if not is_syntactically_safe(f):
        raise ValueError("bad-prefix semantics requires a formula without F or U")
    steps = [frozenset(step) for step in trace]
    return not _weak(f, steps, 0)


def _weak(f, w, i) -> bool:
    past_end = i >= len(w)
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, FalseConst):
        return False
    if isinstance(f, Atom):
        return True if past_end else f.name in w[i]
    if isinstance(f, NotAtom):
        return True if past_end else f.name not in w[i]
    if isinstance(f, And):
        return all(_weak(c, w, i) for c in f.children)
    if isinstance(f, Or):
        return any(_weak(c, w, i) for c in f.children)
    if isinstance(f, Next):
        return _weak(f.child, w, i + 1) if not past_end else _weak(f.child, w, i)
    if isinstance(f, Always):
        if past_end:
            return _weak(f.child, w, i)
        return _weak(f.child, w, i) and _weak(f, w, i + 1)
    raise TypeError(f"not an invariant-fragment node: {f!r}")


COSAFE_UNARY = (Next, Eventually)
SAFE_UNARY = (Next, Always)


def _leaves(atoms):
    out = []
    for a in atoms:
        out.append(Atom(a))
        out.append(NotAtom(a))
    return out


def _binary(op, left, right):
    if op is Until:
        return Until(left, right)
    return op((left, right))


def _depth1(atoms, unary, binary):
    leaves = _leaves(atoms)
    out = list(leaves)
    for u in unary:
        out.extend(u(l) for l in leaves)
    for op in binary:
        for l in leaves:
            for r in leaves:
                out.append(_binary(op, l, r))
    return out


def _random_formula(rng, depth, atoms, unary, binary):
    if depth == 0 or rng.random() < 0.25:
        a = atoms[rng.integers(len(atoms))]
        return Atom(a) if rng.random() < 0.5 else NotAtom(a)
    ops = list(unary) + list(binary)
    op = ops[rng.integers(len(ops))]
    if op in unary:
        return op(_random_formula(rng, depth - 1, atoms, unary, binary))
    return _binary(
        op,
        _random_formula(rng, depth - 1, atoms, unary, binary),
        _random_formula(rng, depth - 1, atoms, unary, binary),
    )


def family(kind, deep_two=120, deep_three=30, seed=20240501):
    """Deterministic formula family for one fragment."""
    unary = COSAFE_UNARY if kind == "cosafe" else SAFE_UNARY
    binary = (And, Or, Until) if kind == "cosafe" else (And, Or)
    out = _depth1(("p", "q"), unary, binary)
    rng = np.random.default_rng(seed)
    seen = set(out)
    added = 0
    while added < deep_two:
        f = _random_formula(rng, 2, ("p", "q"), unary, binary)
        if f not in seen:
            seen.add(f)
            out.append(f)
            added += 1
    added = 0
    while added < deep_three:
        f = _random_formula(rng, 3, ("p", "q", "r"), unary, binary)
        if f not in seen:
            seen.add(f)
            out.append(f)
            added += 1
    return out


def _labels(atoms):
    return [frozenset(combo) for r in range(len(atoms) + 1) for combo in combinations(sorted(atoms), r)]


def _table(dfa, labels):
    """Successor of every state on every label, indexed [state][label]."""
    return [[dfa.advance(q, lab) for lab in labels] for q in range(dfa.num_states)]


def check_formula(f, kind, max_len=5):
    """Return mismatch descriptions between the automaton and the oracle.

    Every trace over the formula's atoms up to `max_len` steps is checked
    against both automata. The traces are walked as a prefix trie, so each
    automaton advances once per trace rather than replaying it. The
    fragment is checked once per formula rather than by the oracle on
    every trace, and the oracle runs only until it decides: a good prefix
    of a co-safe formula (a bad prefix of a safe one) stays good (bad)
    however it is extended, so the traces below it inherit its verdict.
    """
    if kind == "cosafe":
        dfa = compile_cosafe(f)
        if not is_syntactically_cosafe(f):
            raise ValueError("good-prefix semantics requires a formula without G")
        oracle = lambda w: _strong(f, w, 0)  # is_good_prefix past its fragment check
        lasting = True  # the verdict no extension can change
    else:
        dfa = compile_safe(f)
        if not is_syntactically_safe(f):
            raise ValueError("bad-prefix semantics requires a formula without F or U")
        oracle = lambda w: _weak(f, w, 0)  # not is_bad_prefix past its fragment check
        lasting = False
    small = minimize(dfa)
    labels = _labels(atoms_of(f))
    big_next, small_next = _table(dfa, labels), _table(small, labels)
    moves = list(enumerate(labels))
    mismatches = []
    # (trace, dfa state, minimized state, the oracle's verdict once decided)
    stack = [((), dfa.initial, small.initial, None)]
    while stack and len(mismatches) <= 4:
        w, q, r, verdict = stack.pop()
        got = q in dfa.accepting
        want = oracle(w) if verdict is None else verdict
        if got != want:
            mismatches.append(f"{format_formula(f)} on {[sorted(s) for s in w]}: dfa={got} oracle={want}")
        elif (r in small.accepting) != got:
            mismatches.append(f"{format_formula(f)} on {[sorted(s) for s in w]}: minimize changed the language")
        if len(w) < max_len:
            qs, rs = big_next[q], small_next[r]
            below = want if want == lasting else None
            stack.extend((w + (lab,), qs[k], rs[k], below) for k, lab in moves)
    return mismatches
