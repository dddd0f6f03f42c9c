"""Linear temporal logic over named atoms: parsing, syntactic fragments, mission files.

Formulas are in negation normal form by construction: negation is only
allowed on atoms, so the node set has no general Not. Two fragments are
supported, reachability-style formulas (no G) compiled for good-prefix
acceptance and invariant-style formulas (no F/U) compiled for bad-prefix
rejection. `_subnodes` is the one walk over a node's children and `_PREC`
the one table of operator symbols and print precedences.
"""

import json
import re
from enum import Enum
from operator import attrgetter
from typing import Iterable


class _Frozen:
    """Immutable record of the fields its subclass names in `__slots__`.

    A subclass's `__slots__` not named with a leading underscore become its
    `_fields` and `__match_args__`, and `_key`, an `operator.attrgetter`,
    reads them as one tuple. Records are equal when they are of one class
    with equal fields, and hash as the tuple of their fields. They build
    positionally or by keyword, a field left out taking its value in
    `_defaults`.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        fields = tuple(name for name in cls.__dict__["__slots__"] if not name.startswith("_"))
        cls._fields = cls.__match_args__ = fields
        if len(fields) > 1:
            cls._key = staticmethod(attrgetter(*fields))
        elif fields:
            cls._key = staticmethod(lambda record, get=attrgetter(*fields): (get(record),))
        else:
            cls._key = staticmethod(lambda record: ())

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values of a call, in field order."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            values[field] = value
        missing = [field for field in fields if field not in values and field not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        return [values[field] if field in values else cls._defaults[field] for field in fields]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __reduce__(self):
        # slots and a refusing __setattr__ leave pickle and copy no other way
        return type(self), self._key(self)


class Formula(_Frozen):
    """Base class of the formula nodes; all nodes are frozen and hashable.

    `_node(name, *fields)` makes each node class, a `_Frozen` record of the
    fields: `Until(left, right)` equals `Until(left=left, right=right)`,
    hashes as `(left, right)` and prints as that keyword call. A node keeps
    its hash in the slot `_hash` from its first hashing on, as the automata
    compile looks the same residual formulas up again and again; pickles
    and copies hash afresh.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._key(self)))
            return self._hash


def _node(name, *fields):
    """The formula node class `name` with these fields."""
    return type(name, (Formula,), {"__slots__": fields})


TrueConst = _node("TrueConst")
FalseConst = _node("FalseConst")
Atom = _node("Atom", "name")
NotAtom = _node("NotAtom", "name")
And = _node("And", "children")
Or = _node("Or", "children")
Next = _node("Next", "child")
Eventually = _node("Eventually", "child")
Always = _node("Always", "child")
Until = _node("Until", "left", "right")

TRUE = TrueConst()
FALSE = FalseConst()


class ParseError(ValueError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# each operator's symbol and binding strength, higher binding tighter; the
# unary operators bind tightest
_PREC = {Or: ("|", 1), And: ("&", 2), Until: ("U", 3), Next: ("X", 4), Eventually: ("F", 4), Always: ("G", 4)}
_TEMPORAL = {symbol: op for op, (symbol, prec) in _PREC.items() if prec == 4}
_BINARY = {prec: (symbol, op) for op, (symbol, prec) in _PREC.items() if prec < 4}

# one token per match: a whitespace run, an operator, a word, or any other
# character (an error); operators match before words, so `Fp` is `F p`
_TOKEN = re.compile(r"[ \t\r\n]+|[!&|()XFGU]|\w+|.")
_KINDS = {"!": "NOT", "&": "AND", "|": "OR", "(": "LPAREN", ")": "RPAREN", "U": "UNTIL",
          "X": "TEMPORAL", "F": "TEMPORAL", "G": "TEMPORAL", "true": "TRUE", "false": "FALSE"}

# deepest nesting of temporal operators, parentheses and U the parser accepts;
# the recursive passes over a formula stay far inside Python's stack at this depth
MAX_NESTING = 100


def _scan(text: str) -> list[tuple[str, str, int, int]]:
    """Tokens as (kind, text, line, column), ending in an EOF token.

    An atom starts with a lowercase letter and goes on over letters,
    digits and underscores.
    """
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        word, col = m.group(), m.start() - line_start + 1
        if word[0] in " \t\r\n":
            if "\n" in word:
                line += word.count("\n")
                line_start = m.start() + word.rindex("\n") + 1
            continue
        kind = _KINDS.get(word) or ("ATOM" if word[0].islower() else None)
        if kind is None:
            raise ParseError(f"unknown operator or symbol {word[0]!r}", line, col)
        tokens.append((kind, word, line, col))
    tokens.append(("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    """Recursive descent over the binding strengths of `_PREC`, loosest first."""

    def __init__(self, text: str):
        self.tokens = _scan(text)
        self.idx = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.idx]

    def take(self):
        self.idx += 1

    def error(self, message: str):
        kind, value, line, col = self.peek()
        found = " at end of input" if kind == "EOF" else f", found {_shown(value)}"
        raise ParseError(message + found, line, col)

    def nested(self, prec) -> Formula:
        """Take the operator at hand and parse its operand, of binding `prec` or tighter, one level deeper."""
        if self.depth == MAX_NESTING:
            _, _, line, col = self.peek()
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", line, col)
        self.take()
        self.depth += 1
        f = self.parse_level(prec)
        self.depth -= 1
        return f

    def parse(self) -> Formula:
        f = self.parse_level(1)
        if self.peek()[0] != "EOF":
            self.error("unexpected trailing input")
        return f

    def parse_level(self, prec) -> Formula:
        """A formula of binding `prec` or tighter: a flat `|` or `&` chain or a
        right-associative `U` of operands one level tighter, or a unary one."""
        if prec not in _BINARY:
            return self.parse_unary()
        symbol, op = _BINARY[prec]
        parts = [self.parse_level(prec + 1)]
        while self.peek()[1] == symbol:
            if op is Until:
                return Until(parts[0], self.nested(prec))
            self.take()
            parts.append(self.parse_level(prec + 1))
        return parts[0] if len(parts) == 1 else op(tuple(parts))

    def parse_unary(self) -> Formula:
        kind, value, line, col = self.peek()
        if kind == "NOT":
            self.take()
            k2, v2, l2, c2 = self.peek()
            if k2 != "ATOM":
                raise ParseError("negation is only allowed directly on atoms", l2, c2)
            self.take()
            return NotAtom(v2)
        if kind == "TEMPORAL":
            op = _TEMPORAL[value]
            return op(self.nested(_PREC[op][1]))
        if kind == "LPAREN":
            f = self.nested(1)
            if self.peek()[0] != "RPAREN":
                self.error("expected ')'")
            self.take()
            return f
        if kind == "ATOM":
            self.take()
            return Atom(value)
        if kind in ("TRUE", "FALSE"):
            self.take()
            return TRUE if kind == "TRUE" else FALSE
        self.error("expected a formula")


def parse_formula(text: str) -> Formula:
    """Parse the ASCII surface syntax, e.g. "F p1 & G !hazard"."""
    return _Parser(text).parse()


class FormulaClass(Enum):
    COSAFE = "cosafe"
    SAFE = "safe"
    NEITHER = "neither"


def _free_of(f: Formula, kinds) -> bool:
    """True when no node of `f` is an instance of `kinds`."""
    return not isinstance(f, kinds) and all(_free_of(c, kinds) for c in _subnodes(f))


def is_syntactically_cosafe(f: Formula) -> bool:
    """True when no G occurs, so any satisfaction has a finite witness."""
    return _free_of(f, Always)


def is_syntactically_safe(f: Formula) -> bool:
    """True when no F or U occurs, so any violation has a finite witness."""
    return _free_of(f, (Eventually, Until))


def classify(f: Formula) -> FormulaClass:
    """Syntactic fragment of a formula.

    Formulas in both fragments (no temporal operator, or X only) report
    COSAFE; use the predicates directly when the distinction matters.
    """
    if is_syntactically_cosafe(f):
        return FormulaClass.COSAFE
    if is_syntactically_safe(f):
        return FormulaClass.SAFE
    return FormulaClass.NEITHER


def _subnodes(f: Formula) -> Iterable[Formula]:
    if isinstance(f, (And, Or)):
        return f.children
    if isinstance(f, (Next, Eventually, Always)):
        return (f.child,)
    if isinstance(f, Until):
        return (f.left, f.right)
    return ()


def atoms_of(f: Formula) -> frozenset[str]:
    if isinstance(f, (Atom, NotAtom)):
        return frozenset((f.name,))
    out: set[str] = set()
    for c in _subnodes(f):
        out |= atoms_of(f=c)
    return frozenset(out)


def format_formula(f: Formula) -> str:
    """Render back to the surface syntax, parenthesizing only where needed."""
    return _fmt(f, 0)


def _fmt(f: Formula, parent_prec: int) -> str:
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, FalseConst):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, NotAtom):
        return f"!{f.name}"
    if type(f) not in _PREC:
        raise TypeError(f"not a formula node: {f!r}")
    symbol, prec = _PREC[type(f)]
    if isinstance(f, Until):
        # right associative, so the left side needs parens at equal precedence
        s = f"{_fmt(f.left, prec + 1)} U {_fmt(f.right, prec)}"
    elif isinstance(f, (And, Or)):
        # the parser merges a chain of one operator, so a nested one needs parens
        s = f" {symbol} ".join(_fmt(c, prec + 1) for c in f.children)
    else:
        s = f"{symbol} {_fmt(f.child, prec)}"
    return f"({s})" if parent_prec > prec else s


# ------------------------------------------------------------------
# missions

class Mission(_Frozen):
    """One or more reachability tasks plus an optional shared invariant."""

    __slots__ = ("tasks", "safety")
    _defaults = {"safety": None}

    @property
    def atoms(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for t in self.tasks:
            out |= atoms_of(t)
        if self.safety is not None:
            out |= atoms_of(self.safety)
        return out


class MissionError(ValueError):
    pass


def _parse_field(src, what) -> Formula:
    if not isinstance(src, str):
        raise MissionError(f"malformed mission: {what} {_shown(src)} is not a formula string")
    return parse_formula(src)


def mission_from_dict(data: dict) -> Mission:
    """Build and validate a mission from {"tasks": [...], "safety": str|null}."""
    if not isinstance(data, dict) or "tasks" not in data:
        raise MissionError("mission must be an object with a 'tasks' list")
    raw_tasks = data["tasks"]
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise MissionError("mission needs at least one task formula")
    tasks = []
    for k, src in enumerate(raw_tasks):
        f = _parse_field(src, f"task {k}")
        if not is_syntactically_cosafe(f):
            raise MissionError(f"task {k} ({_shown(src)}) is not a reachability-fragment formula")
        tasks.append(f)
    safety = None
    raw_safety = data.get("safety")
    if raw_safety is not None:
        safety = _parse_field(raw_safety, "safety")
        if not is_syntactically_safe(safety):
            raise MissionError(f"safety formula {_shown(raw_safety)} is not an invariant-fragment formula")
    return Mission(tuple(tasks), safety)


def _shown(value):
    """The repr of a value read from a file, cut to 80 characters so that
    a message quoting it stays one line."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _read_json(path):
    """The JSON value in the file at `path`. A value nested too deep to
    decode is bad input, a ValueError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _write_json(path, value):
    """Write `value` to the file at `path` as indented JSON and a newline."""
    with open(path, "w") as fh:
        print(json.dumps(value, indent=2), file=fh)


def load_mission(path) -> Mission:
    return mission_from_dict(_read_json(path))

