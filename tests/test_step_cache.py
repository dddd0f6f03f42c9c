"""The automaton step tables and the joint build change no model.

`Automata` steps (vector id, label id) pairs through a dense table filled
from per-DFA tables, and `MamdpModel` builds its move tables a layer at a
time and interns joint action names by per-robot action codes. Each must
give what stepping every component and expanding every state afresh
gives: the reference builds of `test_explorer`.
"""

import itertools

import numpy as np

from teamplan.baseline import build_mamdp
from teamplan.mdp import Mdp
from teamplan.product import Automata, compile_mission, local_products
from teamplan.realloc import policy_to_dict, run_stapu_with_realloc

from test_explorer import componentwise, reference_mamdp, reference_product, seeded_instances
from test_team import mixed_team_instance

SEED = 20261018
INSTANCES = 24


def known(automata, qvec, label):
    """True when the step table holds the step of `qvec` on `label`."""
    v, i = automata.vector_id(qvec), automata.label_id(label)
    return v < automata.table.shape[0] and i < automata.table.shape[1] and automata.table[v, i] >= 0


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
    return seeded_instances(INSTANCES, SEED)


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
                expected = componentwise(fresh, q, label)
                assert not known(fresh, q, label)
                assert fresh.advance(q, label) == expected, (k, q, label)  # cold
                assert known(fresh, q, label)
                assert fresh.advance(q, label) == expected, (k, q, label)  # repeat
        assert np.count_nonzero(fresh.table >= 0) == len(vectors) * len(labels)


def test_models_and_plans_equal_uncached_builds(monkeypatch):
    cases = instances()
    cached = []
    for model, mission in cases:
        products = local_products([model, model], mission)
        mm = build_mamdp([model, model], mission)
        policy = untimed_plan([model, model], mission)
        cached.append((products[0].states, products[0].mdp.choices, mm.states, mm.mdp.choices, mm.mdp.actions, policy))

    # the plan's start vectors and joint chains step through the patched
    # `advance`; its products are built by the layered explorer
    monkeypatch.setattr(Automata, "advance", componentwise)
    for k, ((model, mission), found) in enumerate(zip(cases, cached)):
        states, arrays, _ = reference_product(model, compile_mission(mission))
        choices = Mdp(len(states), 0, model.actions, arrays=arrays).choices
        keys, rows, names = reference_mamdp([model, model], compile_mission(mission))
        policy = untimed_plan([model, model], mission)
        assert found == (states, choices, keys, rows, names, policy), k



def test_array_build_equals_reference_on_wider_teams():
    """Three robots on one map, and two or three robots on maps of their own."""
    teams = [([model] * 3, mission) for model, mission in instances()[:8]]
    rng = np.random.default_rng(SEED)
    teams += [mixed_team_instance(rng) for _ in range(12)]
    assert {len(models) for models, _ in teams[8:]} == {2, 3}
    for k, (models, mission) in enumerate(teams):
        mm = build_mamdp(models, mission)
        assert (mm.states, mm.mdp.choices, mm.mdp.actions) == reference_mamdp(models, compile_mission(mission)), k
