"""The automaton step cache and the joint build's dictionaries change no model.

`Automata.advance` caches each (vector, label) step, and `MamdpModel`
keeps a build-local dictionary of successor states and interns joint
action names by per-robot action indices. Each must give what stepping
every component and expanding every joint state afresh gives.
"""

import itertools

import numpy as np

from teamplan.baseline import IDLE, build_mamdp
from teamplan.ltl import Mission, parse_formula
from teamplan.mdp import Explorer
from teamplan.product import Automata, compile_mission, local_products
from teamplan.realloc import policy_to_dict, run_stapu_with_realloc

from instances import random_team_instance
from test_team import mixed_team_instance

SEED = 20261018
INSTANCES = 24


def uncached_advance(automata, qvec, label):
    return tuple([d.advance(q, label) for d, q in zip(automata.dfas, qvec)])


def untimed_plan(models, mission):
    """The policy file of a replanning run with its timings stripped."""
    policy = policy_to_dict(*run_stapu_with_realloc(models, mission))
    policy["report"].pop("wall_ms")
    for entry in policy["report"]["log"]:
        entry.pop("elapsed_ms")
    return policy


def instances():
    """Seeded teams; every other mission guards its last task atom with a
    safety formula instead of visiting it."""
    rng = np.random.default_rng(SEED)
    out = []
    while len(out) < INSTANCES:
        model, mission = random_team_instance(rng, max_nodes=7, max_tasks=3)
        n = len(mission.tasks)
        if len(out) % 2:
            if n < 2:
                continue
            mission = Mission(tasks=mission.tasks[:-1], safety=parse_formula(f"G !p{n}"))
        out.append((model, mission))
    return out


def reference_mamdp(models, automata):
    """Keys, rows and action names of the joint model, every joint state
    expanded afresh and every vector stepped component by component."""
    names, name_index = [], {}

    def action_index(parts):
        name = "|".join(parts)
        if name not in name_index:
            name_index[name] = len(names)
            names.append(name)
        return name_index[name]

    def step(q, positions):
        return uncached_advance(automata, q, frozenset().union(*(m.label(s) for m, s in zip(models, positions))))

    def expand(key, intern):
        pos, q = key
        combos = itertools.product(*(
            [(m.actions[c.action], c.outcomes) for c in m.choices[s]] + [(IDLE, ((s, 1.0),))]
            for m, s in zip(models, pos)))
        if automata.violating(q):
            here = intern(key)
            return [(action_index([n for n, _ in combo]), ((here, 1.0),), None) for combo in combos]
        row = []
        for combo in combos:
            outs = []
            for branch in itertools.product(*(outcomes for _, outcomes in combo)):
                p = 1.0
                for _, pr in branch:
                    p *= pr
                tgt = tuple(s2 for s2, _ in branch)
                outs.append((intern((tgt, step(q, tgt))), p))
            row.append((action_index([n for n, _ in combo]), tuple(outs), None))
        return row

    entries = tuple(m.initial for m in models)
    explorer = Explorer(expand)
    explorer.explore((entries, step(tuple(d.initial for d in automata.dfas), entries)))
    return explorer.keys, explorer.rows, tuple(names)


def test_cached_step_equals_componentwise_step():
    for k, (model, mission) in enumerate(instances()):
        products = local_products([model, model], mission)
        mm = build_mamdp([model, model], mission)
        vectors = {q for _, q in products[0].states} | {q for _, q in mm.states}
        atoms = sorted(mission.atoms)
        labels = [frozenset(c) for r in range(len(atoms) + 1) for c in itertools.combinations(atoms, r)]
        fresh = compile_mission(mission)
        for q in sorted(vectors):
            for label in labels:
                expected = uncached_advance(fresh, q, label)
                assert (q, label) not in fresh.steps
                assert fresh.advance(q, label) == expected, (k, q, label)  # cold
                assert fresh.advance(q, label) == expected, (k, q, label)  # repeat
        assert len(fresh.steps) == len(vectors) * len(labels)


def test_models_and_plans_equal_uncached_builds(monkeypatch):
    cases = instances()
    cached = []
    for model, mission in cases:
        products = local_products([model, model], mission)
        mm = build_mamdp([model, model], mission)
        policy = untimed_plan([model, model], mission)
        cached.append((products[0].states, products[0].mdp.choices, mm.states, mm.mdp.choices, mm.mdp.actions, policy))

    monkeypatch.setattr(Automata, "advance", uncached_advance)
    for k, ((model, mission), found) in enumerate(zip(cases, cached)):
        products = local_products([model, model], mission)
        keys, rows, names = reference_mamdp([model, model], compile_mission(mission))
        policy = untimed_plan([model, model], mission)
        assert found == (products[0].states, products[0].mdp.choices, keys, rows, names, policy), k



def test_array_build_equals_reference_on_wider_teams():
    """Three robots on one map, and two or three robots on maps of their own."""
    teams = [([model] * 3, mission) for model, mission in instances()[:8]]
    rng = np.random.default_rng(SEED)
    teams += [mixed_team_instance(rng) for _ in range(12)]
    assert {len(models) for models, _ in teams[8:]} == {2, 3}
    for k, (models, mission) in enumerate(teams):
        mm = build_mamdp(models, mission)
        assert (mm.states, mm.mdp.choices, mm.mdp.actions) == reference_mamdp(models, compile_mission(mission)), k
