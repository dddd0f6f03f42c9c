"""Task allocation and planning for robot teams under uncertainty."""

from .ltl import (TRUE, FALSE, Formula, TrueConst, FalseConst, Atom, NotAtom, And, Or, Next, Eventually, Always,
                  Until, FormulaClass, Mission, MissionError, ParseError, atoms_of, classify, format_formula,
                  is_syntactically_cosafe, is_syntactically_safe, load_mission, mission_from_dict, parse_formula)
from .dfa import CompileError, Dfa, canonical, compile_cosafe, compile_formula, compile_safe, minimize, progress

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
