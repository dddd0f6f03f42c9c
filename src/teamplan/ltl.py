"""Linear temporal logic over named atoms: parsing, syntactic fragments, finite-trace semantics.

Formulas are in negation normal form by construction: negation is only
allowed on atoms, so the node set has no general Not. Two fragments are
supported, reachability-style formulas (no G) compiled for good-prefix
acceptance and invariant-style formulas (no F/U) compiled for bad-prefix
rejection. `is_good_prefix` / `is_bad_prefix` give the recursive
finite-trace reference semantics used to cross-check the automata.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence


class Formula:
    """Base class for formula nodes; all nodes are frozen and hashable."""


@dataclass(frozen=True)
class TrueConst(Formula):
    pass


@dataclass(frozen=True)
class FalseConst(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class NotAtom(Formula):
    name: str


@dataclass(frozen=True)
class And(Formula):
    children: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    children: tuple[Formula, ...]


@dataclass(frozen=True)
class Next(Formula):
    child: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    child: Formula


@dataclass(frozen=True)
class Always(Formula):
    child: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


TRUE = TrueConst()
FALSE = FalseConst()


class ParseError(ValueError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TEMPORAL = {"X": Next, "F": Eventually, "G": Always}


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[tuple[str, str, int, int]] = []
        self._scan()

    def _scan(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch == "\n":
                self.pos += 1
                self.line += 1
                self.col = 1
                continue
            if ch in " \t\r":
                self.pos += 1
                self.col += 1
                continue
            start_line, start_col = self.line, self.col
            if ch in "!&|()":
                kind = {"!": "NOT", "&": "AND", "|": "OR", "(": "LPAREN", ")": "RPAREN"}[ch]
                self.tokens.append((kind, ch, start_line, start_col))
                self.pos += 1
                self.col += 1
                continue
            if ch in "XFGU":
                kind = "UNTIL" if ch == "U" else "TEMPORAL"
                self.tokens.append((kind, ch, start_line, start_col))
                self.pos += 1
                self.col += 1
                continue
            if ch.islower():
                j = self.pos + 1
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[self.pos : j]
                self.col += j - self.pos
                self.pos = j
                if word == "true":
                    self.tokens.append(("TRUE", word, start_line, start_col))
                elif word == "false":
                    self.tokens.append(("FALSE", word, start_line, start_col))
                else:
                    self.tokens.append(("ATOM", word, start_line, start_col))
                continue
            raise ParseError(f"unknown operator or symbol {ch!r}", start_line, start_col)
        self.tokens.append(("EOF", "", self.line, self.col))


class _Parser:
    """Recursive descent; precedence from tightest to loosest: unary, U, &, |."""

    def __init__(self, text: str):
        self.tokens = _Lexer(text).tokens
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def take(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def error(self, message: str):
        kind, value, line, col = self.peek()
        shown = value if kind != "EOF" else "end of input"
        raise ParseError(f"{message}, found {shown!r}" if kind != "EOF" else f"{message} at {shown}", line, col)

    def parse(self) -> Formula:
        f = self.parse_or()
        if self.peek()[0] != "EOF":
            self.error("unexpected trailing input")
        return f

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while self.peek()[0] == "OR":
            self.take()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Formula:
        parts = [self.parse_until()]
        while self.peek()[0] == "AND":
            self.take()
            parts.append(self.parse_until())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_until(self) -> Formula:
        left = self.parse_unary()
        if self.peek()[0] == "UNTIL":
            self.take()
            right = self.parse_until()  # right associative
            return Until(left, right)
        return left

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
            self.take()
            return _TEMPORAL[value](self.parse_unary())
        if kind == "LPAREN":
            self.take()
            f = self.parse_or()
            if self.peek()[0] != "RPAREN":
                self.error("expected ')'")
            self.take()
            return f
        if kind == "ATOM":
            self.take()
            return Atom(value)
        if kind == "TRUE":
            self.take()
            return TRUE
        if kind == "FALSE":
            self.take()
            return FALSE
        self.error("expected a formula")


def parse_formula(text: str) -> Formula:
    """Parse the ASCII surface syntax, e.g. "F p1 & G !hazard"."""
    return _Parser(text).parse()


class FormulaClass(Enum):
    COSAFE = "cosafe"
    SAFE = "safe"
    NEITHER = "neither"


def is_syntactically_cosafe(f: Formula) -> bool:
    """True when no G occurs, so any satisfaction has a finite witness."""
    if isinstance(f, Always):
        return False
    return all(is_syntactically_cosafe(c) for c in _subnodes(f))

def is_syntactically_safe(f: Formula) -> bool:
    """True when no F or U occurs, so any violation has a finite witness."""
    if isinstance(f, (Eventually, Until)):
        return False
    return all(is_syntactically_safe(c) for c in _subnodes(f))


def classify(f: Formula) -> FormulaClass:
    """Syntactic fragment of a formula.

    Formulas in both fragments (no temporal operator, or X only) report
    COSAFE; use the predicates directly when the distinction matters.
    """
    cosafe = is_syntactically_cosafe(f)
    safe = is_syntactically_safe(f)
    if cosafe:
        return FormulaClass.COSAFE
    if safe:
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


# binding strength for printing; higher binds tighter
_PREC = {Or: 1, And: 2, Until: 3}


def _fmt(f: Formula, parent_prec: int) -> str:
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, FalseConst):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, NotAtom):
        return f"!{f.name}"
    if isinstance(f, Next):
        return f"X {_fmt(f.child, 4)}"
    if isinstance(f, Eventually):
        return f"F {_fmt(f.child, 4)}"
    if isinstance(f, Always):
        return f"G {_fmt(f.child, 4)}"
    if isinstance(f, Until):
        # right associative, so the left side needs parens at equal precedence
        s = f"{_fmt(f.left, 4)} U {_fmt(f.right, 3)}"
        return f"({s})" if parent_prec > 3 else s
    if isinstance(f, And):
        s = " & ".join(_fmt(c, 2) for c in f.children)
        return f"({s})" if parent_prec > 2 else s
    if isinstance(f, Or):
        s = " | ".join(_fmt(c, 1) for c in f.children)
        return f"({s})" if parent_prec > 1 else s
    raise TypeError(f"not a formula node: {f!r}")


# ------------------------------------------------------------------
# finite-trace reference semantics

Trace = Sequence[Iterable[str]]


def is_good_prefix(f: Formula, trace: Trace) -> bool:
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


def _strong(f: Formula, w: list[frozenset[str]], i: int) -> bool:
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


def is_bad_prefix(f: Formula, trace: Trace) -> bool:
    """Weak finite-trace violation for invariant-style formulas.

    Everything past the end of the trace is treated as optimistically
    satisfiable, so the trace is a bad prefix exactly when the observed
    steps already doom the formula on every extension.
    """
    if not is_syntactically_safe(f):
        raise ValueError("bad-prefix semantics requires a formula without F or U")
    steps = [frozenset(step) for step in trace]
    return not _weak(f, steps, 0)


def _weak(f: Formula, w: list[frozenset[str]], i: int) -> bool:
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


# ------------------------------------------------------------------
# missions

@dataclass(frozen=True)
class Mission:
    """One or more reachability tasks plus an optional shared invariant."""

    tasks: tuple[Formula, ...]
    safety: Formula | None = None

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
        raise MissionError(f"malformed mission: {what} {src!r} is not a formula string")
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
            raise MissionError(f"task {k} ({src!r}) is not a reachability-fragment formula")
        tasks.append(f)
    safety = None
    raw_safety = data.get("safety")
    if raw_safety is not None:
        safety = _parse_field(raw_safety, "safety")
        if not is_syntactically_safe(safety):
            raise MissionError(f"safety formula {raw_safety!r} is not an invariant-fragment formula")
    return Mission(tuple(tasks), safety)


def load_mission(path) -> Mission:
    import json

    with open(path) as fh:
        return mission_from_dict(json.load(fh))


def mission_to_dict(mission: Mission) -> dict:
    return {
        "tasks": [format_formula(t) for t in mission.tasks],
        "safety": None if mission.safety is None else format_formula(mission.safety),
    }
