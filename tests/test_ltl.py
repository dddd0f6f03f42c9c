import copy
import pickle

import pytest

from teamplan.dfa import compile_formula, minimize
from teamplan.ltl import (
    And,
    Atom,
    Eventually,
    Always,
    FALSE,
    Formula,
    FormulaClass,
    Mission,
    MissionError,
    Next,
    NotAtom,
    Or,
    ParseError,
    TRUE,
    MAX_NESTING,
    TrueConst,
    FalseConst,
    Until,
    atoms_of,
    classify,
    format_formula,
    mission_from_dict,
    parse_formula,
)

from conformance import family, is_bad_prefix, is_good_prefix


def test_parse_eventually_atom():
    assert parse_formula("F p1") == Eventually(Atom("p1"))


def test_parse_safety():
    assert parse_formula("G !p") == Always(NotAtom("p"))


def test_parse_until_with_nested_next():
    f = parse_formula("p U (q & X r)")
    assert f == Until(Atom("p"), And((Atom("q"), Next(Atom("r")))))


def test_precedence_until_binds_tighter_than_and():
    assert parse_formula("p U q & r") == And((Until(Atom("p"), Atom("q")), Atom("r")))


def test_precedence_and_binds_tighter_than_or():
    assert parse_formula("a | b & c") == Or((Atom("a"), And((Atom("b"), Atom("c")))))


def test_until_right_associative():
    assert parse_formula("a U b U c") == Until(Atom("a"), Until(Atom("b"), Atom("c")))


def test_chained_and_is_flat():
    assert parse_formula("a & b & c") == And((Atom("a"), Atom("b"), Atom("c")))


def test_constants_and_unary_chain():
    assert parse_formula("true") == TRUE
    assert parse_formula("X F p") == Next(Eventually(Atom("p")))


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("F p &")
    assert exc.value.line == 1
    assert exc.value.col == 6


def test_parse_error_unknown_symbol():
    with pytest.raises(ParseError, match="unknown operator"):
        parse_formula("p % q")


def test_negation_restricted_to_atoms():
    with pytest.raises(ParseError, match="atoms"):
        parse_formula("!F p")


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_formula("((p)")


def test_multiline_error_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("p &\n& q")
    assert exc.value.line == 2
    assert exc.value.col == 1


def test_atoms_take_any_lowercase_start_and_word_characters():
    assert parse_formula("F é2") == Eventually(Atom("é2"))
    assert parse_formula("trueX & falsey") == And((Atom("trueX"), Atom("falsey")))
    assert parse_formula("Fp") == Eventually(Atom("p"))


@pytest.mark.parametrize("bad", ["中", "\f", "1p", "_p", "Ab", "\x0b"])
def test_unknown_symbol_is_reported_at_its_first_character(bad):
    with pytest.raises(ParseError) as exc:
        parse_formula(f"F {bad} & q")
    assert str(exc.value) == f"unknown operator or symbol {bad[0]!r} (line 1, column 3)"


def test_positions_count_tabs_and_crlf_line_breaks():
    with pytest.raises(ParseError) as exc:
        parse_formula("p\t&\t%")
    assert (exc.value.line, exc.value.col) == (1, 5)
    with pytest.raises(ParseError) as exc:
        parse_formula("p &\r\n\r\n  q &")
    assert (exc.value.line, exc.value.col) == (3, 6)


MALFORMED = [
    ("F", "expected a formula at end of input", 1, 2),
    ("p &", "expected a formula at end of input", 1, 4),
    ("(p", "expected ')' at end of input", 1, 3),
    ("p)", "unexpected trailing input, found ')'", 1, 2),
    ("!F p", "negation is only allowed directly on atoms", 1, 2),
    ("p U", "expected a formula at end of input", 1, 4),
    ("p U U q", "expected a formula, found 'U'", 1, 5),
    ("& p", "expected a formula, found '&'", 1, 1),
    ("p q", "unexpected trailing input, found 'q'", 1, 3),
    ("p | & q", "expected a formula, found '&'", 1, 5),
    ("G (p U)", "expected a formula, found ')'", 1, 7),
    ("X (p", "expected ')' at end of input", 1, 5),
    ("F\n", "expected a formula at end of input", 2, 1),
    ("p &\n\n", "expected a formula at end of input", 3, 1),
    ("(\np", "expected ')' at end of input", 2, 2),
    ("p\n  )", "unexpected trailing input, found ')'", 2, 3),
    ("!\nF p", "negation is only allowed directly on atoms", 2, 1),
    ("p\nU", "expected a formula at end of input", 2, 2),
    ("p U\n U q", "expected a formula, found 'U'", 2, 2),
    ("\n& p", "expected a formula, found '&'", 2, 1),
    ("p\n q", "unexpected trailing input, found 'q'", 2, 2),
    ("p |\n& q", "expected a formula, found '&'", 2, 1),
    ("G (p\n U)", "expected a formula, found ')'", 2, 3),
    ("X\n(p", "expected ')' at end of input", 2, 3),
    # one level past MAX_NESTING, reported at the operator that would pass it
    ("(" * 101 + "p" + ")" * 101, "formula nests deeper than 100 levels", 1, 101),
    ("X " * 101 + "p", "formula nests deeper than 100 levels", 1, 201),
    ("p U " * 101 + "q", "formula nests deeper than 100 levels", 1, 403),
    ("X " * 50 + "(" * 51 + "p" + ")" * 51, "formula nests deeper than 100 levels", 1, 151),
    ("(p U " * 51 + "q" + ")" * 51, "formula nests deeper than 100 levels", 1, 251),
    ("(" * 100 + "p U " * 101 + "q" + ")" * 100, "formula nests deeper than 100 levels", 1, 103),
    ("(" * 99 + "p U " * 2 + "q" + ")" * 99, "formula nests deeper than 100 levels", 1, 106),
]


def test_malformed_formulas_keep_their_message_and_position():
    assert MAX_NESTING == 100
    for text, message, line, col in MALFORMED:
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert (str(exc.value), exc.value.line, exc.value.col) == (f"{message} (line {line}, column {col})", line,
                                                                   col), text
    for text in ["(" * 100 + "p" + ")" * 100, "X " * 100 + "p", "p U " * 100 + "q",
                 "X " * 50 + "(" * 50 + "p" + ")" * 50, "(p U " * 50 + "q" + ")" * 50, "(" * 99 + "p U q" + ")" * 99]:
        assert atoms_of(parse_formula(text)) <= {"p", "q"}, text


def _alternating(n):
    text = "q"
    for k in range(n):
        text = f"(p {'&|'[k % 2]} {text})"
    return text


NESTINGS = {
    "X": lambda n: "X " * n + "p",
    "F": lambda n: "F " * n + "p",
    "G": lambda n: "G " * n + "p",
    "U": lambda n: " U ".join(["p"] * (n + 1)),
    "&|": _alternating,
    "()": lambda n: "(" * n + "p" + ")" * n,
}


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_limit(kind):
    f = parse_formula(NESTINGS[kind](MAX_NESTING))
    assert parse_formula(format_formula(f)) == f
    assert atoms_of(f) <= {"p", "q"} and classify(f)
    assert minimize(compile_formula(f)).num_states >= 2
    with pytest.raises(ParseError, match=f"nests deeper than {MAX_NESTING} levels"):
        parse_formula(NESTINGS[kind](MAX_NESTING + 1))


def test_format_round_trip():
    sources = ["F p1", "G !p", "p U (q & X r)", "a | b & c", "a U b U c", "(a | b) & c", "F (p & q) | true",
               "(p & p) & q", "(a | b) | c"]
    for f in [parse_formula(src) for src in sources] + [f for kind in ("cosafe", "safe") for f in family(kind)]:
        assert parse_formula(format_formula(f)) == f


def test_classify():
    assert classify(parse_formula("F p1")) is FormulaClass.COSAFE
    assert classify(parse_formula("G !p")) is FormulaClass.SAFE
    assert classify(parse_formula("F p & G q")) is FormulaClass.NEITHER
    # no G and no F/U fits both fragments; reported as COSAFE
    assert classify(parse_formula("X p")) is FormulaClass.COSAFE


def test_atoms_of():
    assert atoms_of(parse_formula("F p & (q U !r)")) == frozenset({"p", "q", "r"})


# finite-trace reference semantics, hand-derived cases


def test_good_prefix_eventually():
    f = parse_formula("F p")
    assert not is_good_prefix(f, [])
    assert not is_good_prefix(f, [set()])
    assert is_good_prefix(f, [{"p"}])
    assert is_good_prefix(f, [set(), {"p"}])
    assert is_good_prefix(f, [{"p"}, set()])


def test_good_prefix_until():
    f = parse_formula("p U q")
    assert is_good_prefix(f, [{"q"}])
    assert is_good_prefix(f, [{"p"}, {"p", "q"}])
    assert not is_good_prefix(f, [{"p"}])
    assert not is_good_prefix(f, [set(), {"q"}])
    assert not is_good_prefix(f, [])


def test_good_prefix_next_needs_position():
    f = parse_formula("X p")
    assert not is_good_prefix(f, [{"p"}])
    assert is_good_prefix(f, [set(), {"p"}])


def test_good_prefix_rejects_invariant_fragment():
    with pytest.raises(ValueError):
        is_good_prefix(parse_formula("G p"), [])


def test_bad_prefix_invariant():
    f = parse_formula("G !p")
    assert not is_bad_prefix(f, [])
    assert not is_bad_prefix(f, [set(), set()])
    assert is_bad_prefix(f, [{"p"}])
    assert is_bad_prefix(f, [set(), {"p"}, set()])


def test_bad_prefix_with_next():
    f = parse_formula("G X !p")
    assert not is_bad_prefix(f, [{"p"}])  # violation would sit past the end
    assert is_bad_prefix(f, [set(), {"p"}])


def test_bad_prefix_rejects_reachability_fragment():
    with pytest.raises(ValueError):
        is_bad_prefix(parse_formula("F p"), [])


# the node contract: what the parser, the passes and callers may rely on

P, Q = Atom("p"), NotAtom("q")
# each node class with a sample of its fields, in field order
NODES = [(TrueConst, {}), (FalseConst, {}), (Atom, {"name": "p"}), (NotAtom, {"name": "p"}),
         (And, {"children": (P, Q)}), (Or, {"children": (P, TRUE)}), (Next, {"child": P}),
         (Eventually, {"child": Q}), (Always, {"child": Q}), (Until, {"left": P, "right": TRUE})]


@pytest.mark.parametrize("cls, fields", NODES, ids=[cls.__name__ for cls, _ in NODES])
def test_nodes_build_positionally_or_by_keyword(cls, fields):
    node = cls(*fields.values())
    assert isinstance(node, Formula)
    assert cls(**fields) == node
    assert cls.__match_args__ == tuple(fields)
    assert {name: getattr(node, name) for name in fields} == fields
    assert hash(node) == hash(tuple(fields.values()))
    with pytest.raises(TypeError):
        cls(*fields.values(), P)  # one field too many
    with pytest.raises(TypeError):
        cls(*fields.values(), nam="p")  # an unknown field
    if fields:
        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls()  # a missing field
        with pytest.raises(TypeError):
            cls(*fields.values(), **{first: fields[first]})  # a field given twice


def test_nodes_are_frozen():
    u = Until(P, TRUE)
    for node, name in ((u, "left"), (P, "name"), (And((P, Q)), "children"), (TRUE, "name")):
        with pytest.raises(AttributeError):
            setattr(node, name, FALSE)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert u == Until(P, TRUE)


def test_nodes_compare_by_class_and_fields():
    assert hash(Until(P, Q)) == hash((P, Q))
    assert Atom("p") == P and Atom("p") != NotAtom("p") and Atom("p") != Atom("q")
    assert TrueConst() == TRUE != FALSE
    assert Next(P) != Eventually(P) and And((P, Q)) != Or((P, Q)) and And((P, Q)) != And((Q, P))
    assert len({Atom("p"), Atom("p"), NotAtom("p"), Until(P, Q), Until(Atom("p"), NotAtom("q"))}) == 3
    assert P != ("p",) and P != "p"


def test_a_node_reads_its_fields_for_one_hash(monkeypatch):
    """Hashing a node again reuses its first hash: `_key` is read once per
    node, whatever the number of hashes, and equal nodes hash equal."""
    reads = []
    for cls in (Until, Atom, TrueConst):
        monkeypatch.setattr(cls, "_key", staticmethod(lambda f, key=cls._key: reads.append(id(f)) or key(f)))
    nodes = [Until(Atom("p"), TRUE), Until(Atom("p"), TRUE), Atom("p"), TrueConst()]
    hashes = [[hash(f) for _ in range(5)] for f in nodes]
    assert len(reads) == len(set(reads)) and {id(f) for f in nodes} <= set(reads)
    assert all(len(set(h)) == 1 for h in hashes)
    assert hashes[0] == hashes[1] and hashes[0][0] == hash((Atom("p"), TRUE)) and hashes[3][0] == hash(TRUE)
    assert "_hash" not in Until._fields and len({*nodes, P, Atom("p")}) == 3


def test_node_repr():
    assert repr(Until(P, TRUE)) == "Until(left=Atom(name='p'), right=TrueConst())"
    assert repr(And((P, Eventually(Q)))) == "And(children=(Atom(name='p'), Eventually(child=NotAtom(name='q'))))"
    assert repr(FALSE) == "FalseConst()"


def test_nodes_survive_pickle_and_copies():
    f = parse_formula("(F (p & X q) | G !r) U (s & true) | false")
    for clone in (lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy):
        g = clone(f)
        assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
        assert type(g) is type(f) and format_formula(g) == format_formula(f)


# missions


def test_missions_compare_and_hash_by_fields():
    tasks, safety = (Eventually(P), Eventually(Atom("r"))), Always(Q)
    m = Mission(tasks, safety)
    assert m == Mission(tasks=tasks, safety=safety) and hash(m) == hash((tasks, safety))
    assert Mission(tasks).safety is None and Mission(tasks) == Mission(tasks, None) != m
    assert Mission(tasks[:1], safety) != m
    assert not isinstance(m, Formula)
    for name in ("tasks", "safety"):
        with pytest.raises(AttributeError):
            setattr(m, name, ())
    clone = pickle.loads(pickle.dumps(m))
    assert clone == m and hash(clone) == hash(m) and clone.atoms == frozenset({"p", "q", "r"})


def test_mission_from_dict():
    m = mission_from_dict({"tasks": ["F p1", "F p2"], "safety": "G !p"})
    assert len(m.tasks) == 2
    assert m.safety == Always(NotAtom("p"))
    assert m.atoms == frozenset({"p1", "p2", "p"})


def test_mission_safety_optional():
    m = mission_from_dict({"tasks": ["F p1"], "safety": None})
    assert m == Mission((Eventually(Atom("p1")),), None)


def test_mission_needs_tasks():
    with pytest.raises(MissionError):
        mission_from_dict({"tasks": []})


def test_mission_rejects_wrong_fragments():
    with pytest.raises(MissionError):
        mission_from_dict({"tasks": ["G p"]})
    with pytest.raises(MissionError):
        mission_from_dict({"tasks": ["F p"], "safety": "F q"})
