import json
import time

import pytest

from teamplan import dfa as dfa_module
from teamplan.dfa import (MAX_ATOMS, CompileError, Dfa, canonical, compile_cosafe, compile_formula, compile_safe,
                          minimize, progress)
from teamplan.ltl import FALSE, TRUE, Atom, Eventually, Or, parse_formula

from conformance import check_formula, family


def label(*atoms):
    return frozenset(atoms)


# hand progression of F p:
#   prog(F p, {})  = (p in {})  | F p = F p
#   prog(F p, {p}) = true | F p = true
# states: {F p, true}, accepting exactly {true}
def test_compile_eventually_structure():
    dfa = compile_cosafe(parse_formula("F p"))
    assert dfa.num_states == 2
    assert dfa.initial == 0
    assert dfa.atoms == ("p",)
    true_state = next(iter(dfa.accepting))
    assert dfa.delta[(0, label())] == 0
    assert dfa.delta[(0, label("p"))] == true_state
    assert dfa.delta[(true_state, label())] == true_state
    assert dfa.delta[(true_state, label("p"))] == true_state


# hand progression of G !p:
#   prog(G !p, {})  = true & G !p = G !p
#   prog(G !p, {p}) = false
# trap state is the only non-accepting state and is absorbing
def test_compile_always_structure():
    dfa = compile_safe(parse_formula("G !p"))
    assert dfa.num_states == 2
    trap = next(q for q in range(2) if q not in dfa.accepting)
    assert dfa.accepting == frozenset({0})
    assert dfa.delta[(0, label())] == 0
    assert dfa.delta[(0, label("p"))] == trap
    assert dfa.delta[(trap, label())] == trap
    assert dfa.delta[(trap, label("p"))] == trap


# hand progression of p U q:
#   prog(p U q, {})     = false | (false & ...) = false
#   prog(p U q, {p})    = false | (true & p U q) = p U q
#   prog(p U q, {q})    = true
#   prog(p U q, {p,q})  = true
def test_compile_until_structure():
    dfa = compile_cosafe(parse_formula("p U q"))
    assert dfa.num_states == 3
    acc = next(iter(dfa.accepting))
    trap = next(q for q in range(3) if q != acc and q != 0)
    assert dfa.delta[(0, label())] == trap
    assert dfa.delta[(0, label("p"))] == 0
    assert dfa.delta[(0, label("q"))] == acc
    assert dfa.delta[(0, label("p", "q"))] == acc
    for l in dfa.labels():
        assert dfa.delta[(trap, l)] == trap
        assert dfa.delta[(acc, l)] == acc


def test_compile_formula_dispatch():
    assert compile_formula(parse_formula("F p")).accepting
    safe = compile_formula(parse_formula("G !p"))
    assert 0 in safe.accepting
    with pytest.raises(CompileError):
        compile_formula(parse_formula("F p & G q"))


def test_compile_rejects_wrong_fragment():
    with pytest.raises(CompileError):
        compile_cosafe(parse_formula("G p"))
    with pytest.raises(CompileError):
        compile_safe(parse_formula("F p"))


def test_canonical_absorbs_and_sorts():
    f = parse_formula("q | p | q | false")
    assert canonical(f) == parse_formula("p | q")
    assert canonical(parse_formula("p & true & p")) == Atom("p")
    assert canonical(parse_formula("p & false")) == FALSE
    assert canonical(parse_formula("F p | F p")) == parse_formula("F p")


def test_canonical_collapses_stacked_operators():
    assert canonical(parse_formula("F F p")) == parse_formula("F p")
    assert canonical(parse_formula("G G p")) == parse_formula("G p")
    assert canonical(parse_formula("true U F p")) == parse_formula("F p")
    assert canonical(parse_formula("X F F p")) == parse_formula("X F p")


@pytest.mark.parametrize("op", ["F", "G"])
def test_stacked_operators_compile_like_one(op):
    # without the collapse, progression carries every level of the stack
    # into its residuals: 40 levels took seconds
    start = time.perf_counter()
    dfa = compile_formula(parse_formula(f"{op} " * 40 + "p"))
    assert time.perf_counter() - start < 1.0
    assert dfa.to_dict() == compile_formula(parse_formula(f"{op} p")).to_dict()


def test_canonical_keeps_complementary_literals_apart():
    # p | !p is valid over infinite traces but is not yet a witnessed truth;
    # collapsing it to true would accept the empty trace the oracle rejects
    f = canonical(parse_formula("p | !p"))
    assert f != TRUE


def test_progress_matches_hand_values():
    fp = parse_formula("F p")
    assert progress(fp, label()) == fp
    assert progress(fp, label("p")) == TRUE
    until = parse_formula("p U q")
    assert progress(until, label()) == FALSE
    assert progress(until, label("p")) == until
    assert progress(until, label("q")) == TRUE


def test_dfa_is_total_and_deterministic():
    for src, comp in [("F p & (q U r)", compile_cosafe), ("G (p | X !q)", compile_safe)]:
        dfa = comp(parse_formula(src))
        labels = dfa.labels()
        assert len(labels) == 2 ** len(dfa.atoms)
        for q in range(dfa.num_states):
            for l in labels:
                assert (q, l) in dfa.delta


def test_cosafe_single_absorbing_accepting_state():
    for src in ["F p", "p U q", "F (p & q) | F r", "X X p"]:
        dfa = compile_cosafe(parse_formula(src))
        absorbing_accepting = [
            q for q in dfa.accepting if all(dfa.delta[(q, l)] == q for l in dfa.labels())
        ]
        assert len(absorbing_accepting) == len(dfa.accepting) <= 1


def test_safe_single_absorbing_trap():
    for src in ["G !p", "G (p | q)", "G X !p"]:
        dfa = compile_safe(parse_formula(src))
        traps = [q for q in range(dfa.num_states) if q not in dfa.accepting]
        assert len(traps) <= 1
        for t in traps:
            assert all(dfa.delta[(t, l)] == t for l in dfa.labels())


def test_minimize_eventually_two_states():
    dfa = minimize(compile_cosafe(parse_formula("F p")))
    assert dfa.num_states == 2


def test_minimize_always_two_states():
    dfa = minimize(compile_safe(parse_formula("G !p")))
    assert dfa.num_states == 2


def test_minimize_merges_redundant_states():
    # three states accepting "has seen p", states 0 and 1 are language-equal
    delta = {
        (0, label()): 1,
        (0, label("p")): 2,
        (1, label()): 0,
        (1, label("p")): 2,
        (2, label()): 2,
        (2, label("p")): 2,
    }
    dfa = Dfa(3, 0, {2}, ("p",), delta)
    small = minimize(dfa)
    assert small.num_states == 2
    assert small.advance(small.initial, {"p"}) in small.accepting
    assert small.advance(small.advance(small.initial, set()), set()) not in small.accepting


def test_minimize_idempotent():
    for src in ["F p", "p U q", "F (p | q) & F r"]:
        once = minimize(compile_cosafe(parse_formula(src)))
        twice = minimize(once)
        assert twice.num_states == once.num_states
        assert twice.accepting == once.accepting
        assert twice.delta == once.delta


def test_minimize_drops_unreachable():
    delta = {
        (0, label()): 0,
        (0, label("p")): 1,
        (1, label()): 1,
        (1, label("p")): 1,
        (2, label()): 0,
        (2, label("p")): 1,
    }
    dfa = Dfa(3, 0, {1}, ("p",), delta)
    assert minimize(dfa).num_states == 2


def test_advance_projects_irrelevant_atoms():
    dfa = compile_cosafe(parse_formula("F p"))
    q = dfa.advance(0, {"p", "unrelated"})
    assert q in dfa.accepting


def test_save_writes_to_dict(tmp_path):
    dfa = compile_cosafe(parse_formula("p U q"))
    path = tmp_path / "dfa.json"
    dfa.save(path)
    assert json.loads(path.read_text()) == dfa.to_dict()
    assert len(dfa.to_dict()["trans"]) == dfa.num_states * 2 ** len(dfa.atoms)


def test_conformance_quick_cosafe():
    for f in family("cosafe", deep_two=25, deep_three=6):
        assert check_formula(f, "cosafe", max_len=4) == []


def test_conformance_quick_safe():
    for f in family("safe", deep_two=25, deep_three=6):
        assert check_formula(f, "safe", max_len=4) == []


def _all_apart(dfa):
    """Whether some word tells every two states apart, by table filling: a
    pair is apart when one accepts and the other does not, or when a label
    leads it to a pair already apart."""
    pairs = [(a, b) for a in range(dfa.num_states) for b in range(a + 1, dfa.num_states)]
    apart = {(a, b) for a, b in pairs if (a in dfa.accepting) != (b in dfa.accepting)}
    grew = True
    while grew:
        grew = False
        for a, b in pairs:
            if (a, b) not in apart and any(tuple(sorted((dfa.advance(a, l), dfa.advance(b, l)))) in apart
                                           for l in dfa.labels()):
                apart.add((a, b))
                grew = True
    return len(apart) == len(pairs)


def test_minimize_leaves_no_two_states_with_one_language():
    for kind, comp in (("cosafe", compile_cosafe), ("safe", compile_safe)):
        for f in family(kind):
            small = minimize(comp(f))
            assert _all_apart(small), f
            seen, stack = {small.initial}, [small.initial]
            while stack:
                q = stack.pop()
                fresh = {small.advance(q, l) for l in small.labels()} - seen
                seen |= fresh
                stack.extend(fresh)
            assert seen == set(range(small.num_states)), f


def test_compile_refuses_formulas_over_the_atom_cap(monkeypatch):
    atoms = [f"a{k}" for k in range(MAX_ATOMS + 1)]
    at_cap = compile_cosafe(parse_formula(f"F ({' | '.join(atoms[:MAX_ATOMS])})"))
    assert len(at_cap.labels()) == 1 << MAX_ATOMS and at_cap.num_states == 2

    def enumerate_labels(atoms):
        raise AssertionError("labels enumerated past the atom cap")

    monkeypatch.setattr(dfa_module, "_powerset", enumerate_labels)
    for src in (f"F ({' & '.join(atoms)})", f"G ({' | '.join('!' + a for a in atoms)})"):
        with pytest.raises(CompileError, match=f"has {MAX_ATOMS + 1} atoms, more than the {MAX_ATOMS}"):
            compile_formula(parse_formula(src))
