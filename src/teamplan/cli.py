"""Command line front end.

Artifacts move through JSON files (models, missions, automata, joint
policies) and CSV for sweeps; stdout carries a one-line summary per
command. `--epsilon` defaults to `mdp.EPSILON`, `--ceiling` to
`baseline.CEILING` and the `genmap` flags to `maps.MapSpec`'s defaults.
Exit codes: 0 success, 1 bad input, 2 solver failure, 3 a model over its
size budget (`--ceiling`, `mdp.MAX_STATES`).
"""

import argparse
import json
import math
import sys

from .baseline import CEILING, build_mamdp, solve_mamdp
from .bench import bench_sweep, write_csv
from .dfa import compile_formula
from .ltl import _read_json, _write_json, classify, format_formula, load_mission, parse_formula
from .maps import MapSpec, gen_map, map_mission
from .mdp import EPSILON, BudgetExceeded, SolverError, load_model, save_model
from .product import local_products
from .realloc import policy_from_dict, policy_to_dict, run_stapu_with_realloc
from .simulate import simulate
from .team import build_team, solve_stapu


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _finite(positive):
    """Argument type of a finite number, positive or else non-negative."""

    def parse(text):
        value = float(text)
        if not math.isfinite(value) or value < 0 or (positive and value == 0):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a {'positive' if positive else 'non-negative'} finite number")
        return value

    return parse


def _count(text):
    """Argument type of a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _load_inputs(args):
    """Models in command-line order, each distinct path loaded once."""
    loaded = {path: load_model(path) for path in dict.fromkeys(args.models)}
    return [loaded[path] for path in args.models], load_mission(args.mission)


def cmd_compile(args):
    f = parse_formula(args.formula)
    dfa = compile_formula(f)
    dfa.save(args.out)
    kind = classify(f).name.lower()
    print(f"{format_formula(f)}: {kind}, {dfa.num_states} automaton states -> {args.out}")
    return 0


def cmd_solve(args):
    models, mission = _load_inputs(args)
    sol = solve_stapu(build_team(local_products(models, mission)), epsilon=args.epsilon)
    solution = sol.to_dict()
    _write_json(args.out, solution)
    print(f"value {sol.value:.6f}, allocation {json.dumps(solution['allocation'])} -> {args.out}")
    return 0


def cmd_realloc(args):
    models, mission = _load_inputs(args)
    jp, report = run_stapu_with_realloc(models, mission, max_realloc=args.max_realloc,
                                        time_limit=args.time_limit, epsilon=args.epsilon)
    _write_json(args.out, policy_to_dict(jp, report))
    print(
        f"guarantee {report.value:.6f} after {report.reallocations} reallocations "
        f"(initial {report.initial_value:.6f}, unaddressed {report.unaddressed:.6f}) -> {args.out}"
    )
    return 0


def cmd_baseline(args):
    models, mission = _load_inputs(args)
    mm = build_mamdp(models, mission, ceiling=args.ceiling)
    value, _ = solve_mamdp(mm, epsilon=args.epsilon)
    states, transitions = mm.unreduced_size()
    print(f"joint value {value:.6f}; {states} reachable of {mm.full_size()} joint states, {transitions} transitions")
    return 0


def cmd_simulate(args):
    jp = policy_from_dict(_read_json(args.policy))
    rep = simulate(jp, runs=args.runs, seed=args.seed)
    print(
        f"frequency {rep.frequency:.6f} (stderr {rep.stderr:.6f}) over {rep.runs} runs, "
        f"mean reallocation triggers {rep.mean_triggers:.4f}"
    )
    return 0


def cmd_genmap(args):
    spec = MapSpec(
        nodes=args.nodes,
        failpoints=args.failpoints,
        pfail=args.pfail,
        tasks=args.tasks,
        seed=args.seed,
    )
    model = gen_map(spec)
    save_model(model, args.out)
    tasks = ", ".join(format_formula(t) for t in map_mission(spec).tasks) if args.tasks else "none"
    print(f"wrote {args.out}: {model.num_states} states, task formulas: {tasks}")
    return 0


def cmd_bench(args):
    rows = bench_sweep(_read_json(args.config))
    write_csv(rows, args.csv)
    print(f"wrote {args.csv}: {len(rows)} rows")
    return 0


def _planner(sub, name, help, fn, *flags):
    """A planning command: `--models`, `--mission`, each (flag, options) of `flags`, then `--epsilon`."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--models", required=True, nargs="+")
    p.add_argument("--mission", required=True)
    for flag, options in flags:
        p.add_argument(flag, **options)
    p.add_argument("--epsilon", type=_finite(positive=True), default=EPSILON)
    p.set_defaults(fn=fn)
    return p


def build_parser():
    parser = _Parser(prog="teamplan", description="Plan LTL missions for robot teams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile one formula to an automaton file")
    p.add_argument("--formula", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_compile)

    p = _planner(sub, "solve", "allocate and plan once, no reallocation", cmd_solve)
    p.add_argument("--out", required=True)

    p = _planner(sub, "realloc", "plan with failure-driven reallocation", cmd_realloc,
                 ("--max-realloc", dict(type=_count)),
                 ("--time-limit", dict(type=_finite(positive=False),
                                       help="address no further failure once this many seconds have passed")))
    p.add_argument("--out", required=True)

    _planner(sub, "baseline", "solve the joint multi-agent model", cmd_baseline,
             ("--ceiling", dict(type=_count, default=CEILING)))

    p = sub.add_parser("simulate", help="roll a saved joint policy out")
    p.add_argument("--policy", required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=_count, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("genmap", help="generate a seeded benchmark map model")
    for name, kind in (("nodes", int), ("failpoints", int), ("pfail", float), ("tasks", int), ("seed", _count)):
        p.add_argument(f"--{name}", type=kind, default=MapSpec._defaults[name])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_genmap)

    p = sub.add_parser("bench", help="run a sweep config and write its CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SolverError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a solver-side defect
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
