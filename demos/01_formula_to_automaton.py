"""From a temporal formula to a deterministic automaton.

Reachability ("finally p") and invariant ("always not h") formulas are
the two fragments the planner accepts. Both compile, by progression, to
automata over labelings of the map, which is what lets task progress
live inside an ordinary MDP state.
"""

from teamplan.dfa import compile_formula, minimize
from teamplan.ltl import classify, format_formula, parse_formula

for text in ("F p", "G !h", "F (p & X q)", "!h U p"):
    f = parse_formula(text)
    dfa = minimize(compile_formula(f))
    print(f"{format_formula(f):14} {classify(f).name.lower():7} {dfa.num_states} states")
    for (q, label), q2 in sorted(dfa.delta.items()):
        tag = "*" if q2 in dfa.accepting else " "
        print(f"    q{q} --{{{', '.join(sorted(label)) or ''}}}--> q{q2}{tag}")



def accepts(dfa, trace):
    """A run is judged by feeding its labels through the automaton."""
    q = dfa.initial
    for label in trace:
        q = dfa.advance(q, label)
    return q in dfa.accepting


dfa = compile_formula(parse_formula("!h U p"))
good = [frozenset(), frozenset({"p"})]
bad = [frozenset({"h"}), frozenset({"p"})]
print("\n!h U p on a clean prefix reaching p:", accepts(dfa, good))
print("!h U p after stepping on h first:   ", accepts(dfa, bad))
