"""Benchmark sweeps over generated maps.

One cell per (robots, tasks, failpoints, seed) grid point: the team of
identical robots is planned with reallocation, the joint baseline is
built and solved when its size bound fits the ceiling, and everything
lands in one CSV row. State columns report full unpruned sizes while
transition columns count the reachable models' transitions. Time
columns are medians over repeated runs and are the only columns allowed
to differ between identical sweeps.
"""

import csv
import itertools
import logging
import math
import statistics
import time

from .baseline import CeilingExceeded, build_mamdp, solve_mamdp
from .ltl import _shown
from .maps import MapSpec, gen_map, map_mission
from .product import compile_mission, local_product
from .realloc import run_stapu_with_realloc
from .team import build_team

log = logging.getLogger(__name__)

COLUMNS = ("robots", "tasks", "failpoints", "seed", "team_states", "team_trans", "stapu_ms", "reallocations",
           "guarantee", "mamdp_states", "mamdp_trans", "mamdp_ms", "mamdp_value")

DEFAULT_CEILING = 60_000


class BenchRow:
    def __init__(self, robots, tasks, failpoints, seed, team_states, team_trans, stapu_ms, reallocations, guarantee,
                 mamdp_states=None, mamdp_trans=None, mamdp_ms=None, mamdp_value=None):
        self.robots = robots
        self.tasks = tasks
        self.failpoints = failpoints
        self.seed = seed
        self.team_states = team_states
        self.team_trans = team_trans
        self.stapu_ms = stapu_ms
        self.reallocations = reallocations
        self.guarantee = guarantee
        self.mamdp_states = mamdp_states
        self.mamdp_trans = mamdp_trans
        self.mamdp_ms = mamdp_ms
        self.mamdp_value = mamdp_value

    def csv_values(self):
        """Each column as text: empty for None, `_ms` columns to the
        microsecond, other floats by repr."""
        values = [getattr(self, name) for name in COLUMNS]
        return ["" if v is None else f"{v:.3f}" if name.endswith("_ms") else repr(v) if isinstance(v, float)
                else str(v) for name, v in zip(COLUMNS, values)]


def _timed(fn, reps):
    """Result of the first run plus the median wall time in ms."""
    result = None
    times = []
    for rep in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) * 1000.0)
        if rep == 0:
            result = out
    return result, statistics.median(times)


def run_cell(robots, tasks, failpoints, seed, nodes=30, pfail=0.1, hazards=0, reps=3, ceiling=DEFAULT_CEILING,
             max_realloc=None, epsilon=1e-6):
    """Measure one grid point; MAMDP columns stay empty above the ceiling."""
    spec = MapSpec(nodes=nodes, failpoints=failpoints, pfail=pfail, tasks=tasks, hazards=hazards, seed=seed)
    model = gen_map(spec)
    mission = map_mission(spec)
    models = [model] * robots

    shared = compile_mission(mission)
    pm = local_product(model, mission, automata=shared)
    team = build_team([pm] * robots)

    (jp, report), stapu_ms = _timed(
        lambda: run_stapu_with_realloc(models, mission, max_realloc=max_realloc, epsilon=epsilon), reps)
    row = BenchRow(robots, tasks, failpoints, seed, team_states=team.full_size(),
                   team_trans=team.mdp.transition_count(), stapu_ms=stapu_ms, reallocations=report.reallocations,
                   guarantee=report.value)
    try:
        (mm, value), mamdp_ms = _timed(lambda: _solve_joint(models, mission, ceiling, shared, epsilon), reps)
    except CeilingExceeded as e:
        log.info("cell robots=%d tasks=%d failpoints=%d seed=%d: %s", robots, tasks, failpoints, seed, e)
        return row
    row.mamdp_states = mm.full_size()
    row.mamdp_trans = mm.unreduced_size()[1]
    row.mamdp_ms = mamdp_ms
    row.mamdp_value = value
    return row


def _solve_joint(models, mission, ceiling, shared, epsilon):
    mm = build_mamdp(models, mission, ceiling=ceiling, automata=shared)
    value, _ = solve_mamdp(mm, epsilon=epsilon)
    return mm, value


def _grid(config, key, least):
    v = config.get(key)
    if v is None:
        raise ValueError(f"sweep config needs a {key!r} list")
    if type(v) is int:  # bool is an int subclass but not a count
        v = [v]
    if not isinstance(v, list) or not v or not all(type(x) is int for x in v):
        raise ValueError(f"sweep config {key!r} must be a nonempty list of integers")
    if min(v) < least:
        raise ValueError(f"sweep config {key!r} values must be at least {least}, not {min(v)}")
    return v


# what each scalar key of a sweep config must be, and its test; `run_cell` has the defaults
SETTINGS = {
    "nodes": ("an integer of at least 2", lambda v: type(v) is int and v >= 2),
    "pfail": ("a number", lambda v: type(v) in (int, float)),
    "hazards": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    "reps": ("a positive integer", lambda v: type(v) is int and v >= 1),
    "ceiling": ("a non-negative integer or null", lambda v: v is None or type(v) is int and v >= 0),
    "max_realloc": ("a non-negative integer or null", lambda v: v is None or type(v) is int and v >= 0),
    "epsilon": ("a positive finite number", lambda v: type(v) in (int, float) and 0.0 < v < math.inf),
}


def bench_sweep(config):
    """Check the config, then run every grid cell; failed cells are logged and skipped."""
    if not isinstance(config, dict):
        raise ValueError(f"sweep config must be a JSON object, not {type(config).__name__}")
    grids = [_grid(config, k, least) for k, least in (("robots", 1), ("tasks", 1), ("failpoints", 0), ("seeds", 0))]
    kwargs = {key: config[key] for key in SETTINGS if key in config}
    for key, v in kwargs.items():
        what, ok = SETTINGS[key]
        if not ok(v):
            raise ValueError(f"sweep config {key!r} must be {what}, not {_shown(v)}")
    rows = []
    for robots, tasks, failpoints, seed in itertools.product(*grids):
        try:
            rows.append(run_cell(robots, tasks, failpoints, seed, **kwargs))
        except Exception:
            log.exception("cell robots=%d tasks=%d failpoints=%d seed=%d failed; continuing",
                          robots, tasks, failpoints, seed)
    return rows


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow(row.csv_values())
