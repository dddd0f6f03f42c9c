"""The automaton step tables and the joint build change no model.

`Automata` steps (vector id, label id) pairs through a dense table filled
from per-DFA tables, each distinct missed pair once, and `MamdpModel`
builds one move table for every tuple of robot-reachable states (sorted
within the robots that share a model) before exploring and numbers joint
actions by codes of the robots' action names. Each must give what
stepping every component and expanding every state afresh gives: the
reference builds of `test_explorer`.
"""

import itertools
import math
import sys

import numpy as np

from teamplan.baseline import build_mamdp
from teamplan.ltl import Mission
from teamplan.maps import gen_map, map_mission
from teamplan.mdp import Mdp
from teamplan.product import Automata, compile_mission, local_product, local_products
from teamplan.realloc import policy_to_dict, run_stapu_with_realloc, synchronize
from teamplan.team import build_team, solve_stapu

from test_explorer import componentwise, reference_mamdp, reference_product, seeded_instances, vector_class
from test_golden_workloads import RECIPES
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
                v, i = fresh.vector_id(q), fresh.label_id(label)
                assert fresh.vectors[fresh.advance(v, i)] == expected, (k, q, label)  # cold
                assert known(fresh, q, label)
                assert fresh.vectors[fresh.advance(v, i)] == expected, (k, q, label)  # repeat
        assert np.count_nonzero(fresh.table >= 0) == len(vectors) * len(labels)


def test_models_and_plans_equal_uncached_builds(monkeypatch):
    cases = instances()
    cached = []
    for model, mission in cases:
        products = local_products([model, model], mission)
        mm = build_mamdp([model, model], mission)
        policy = untimed_plan([model, model], mission)
        cached.append((products[0].states, products[0].mdp.choices, mm.states, mm.mdp.choices, mm.mdp.actions, policy))

    def componentwise_ids(self, v, i):
        label = next(label for label, j in self._lids.items() if j == i)
        return self.vector_id(componentwise(self, self.vectors[v], label))

    # the plan's start vectors and joint chains step through the patched
    # `advance`; its products are built by the layered explorer
    monkeypatch.setattr(Automata, "advance", componentwise_ids)
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


def test_each_missed_pair_is_stepped_once(monkeypatch):
    """On the joint-baseline recipe's joint model, `step` numbers one
    vector per distinct missed (vector id, label id) pair, 88 of 5,150
    misses (the explorer steps every outcome of a layer of the model up to
    robot swaps, repeated successors too), and numbers the vectors in the
    order a step per miss does."""
    spec, _, joint_tasks, _, _ = RECIPES["joint-baseline"]
    model, full = gen_map(spec), map_mission(spec)
    mission = Mission(tasks=full.tasks[:joint_tasks], safety=full.safety)
    step, vector_id = Automata.step, Automata.vector_id
    misses, stepped = [], []

    def recording_step(self, vids, lids):
        self._sync()
        miss = self.table[vids, lids] < 0
        misses.extend(zip(vids[miss].tolist(), lids[miss].tolist()))
        return step(self, vids, lids)

    def recording_vector_id(self, qvec):
        frame = sys._getframe(1)
        if step.__code__ in (frame.f_code, frame.f_back.f_code):  # from step or a comprehension in it
            stepped.append(qvec)
        return vector_id(self, qvec)

    monkeypatch.setattr(Automata, "step", recording_step)
    monkeypatch.setattr(Automata, "vector_id", recording_vector_id)
    mm = build_mamdp([model, model], mission)
    assert (len(misses), len(set(misses)), len(stepped)) == (5150, 88, 88)

    def per_miss_step(self, vids, lids):
        """Every miss stepped on its own, component by component."""
        self._sync()
        labels = {i: label for label, i in self._lids.items()}
        nxt = self.table[vids, lids]
        for k in np.flatnonzero(nxt < 0).tolist():
            v, i = int(vids[k]), int(lids[k])
            nxt[k] = self.table[v, i] = vector_id(self, componentwise(self, self.vectors[v], labels[i]))
        return nxt

    monkeypatch.setattr(Automata, "step", per_miss_step)
    monkeypatch.setattr(Automata, "vector_id", vector_id)
    reference = build_mamdp([model, model], mission)
    assert mm.automata.vectors == reference.automata.vectors
    assert mm.states == reference.states and mm.mdp.actions == reference.mdp.actions


def test_step_table_grows_by_doubling(monkeypatch):
    """Over the plan-large recipe's plan the step table is reallocated at
    most once per doubling of the vectors and of the labels, plus its
    first row and column."""
    slot, grown, owners = Automata.table, [], set()

    def set_table(self, table):
        try:
            old = slot.__get__(self)
        except AttributeError:  # set in __init__
            old = None
        if old is not None and table is not old:
            grown.append(table.shape)
            owners.add(self)
        slot.__set__(self, table)

    monkeypatch.setattr(Automata, "table", property(slot.__get__, set_table))
    spec, robots, _, guarantee, _ = RECIPES["plan-large"]
    assert run_stapu_with_realloc([gen_map(spec)] * robots, map_mission(spec))[1].value == guarantee
    (automata,) = owners
    vectors, labels = len(automata.vectors), len(automata._lids)
    assert len(grown) <= math.ceil(math.log2(vectors)) + math.ceil(math.log2(labels)) + 2, (grown, vectors, labels)
    assert automata.table.shape[0] >= len(automata.classes) and automata.table.shape[1] >= labels


def test_vector_columns_equal_the_predicates():
    """`classes` and `handover`, appended a batch of vectors at a time,
    hold each numbered vector's class and `switchable` after a product,
    team, joint chain and joint model build on one `Automata`, for
    missions with and without a safety formula."""
    spec, _, joint_tasks, _, _ = RECIPES["joint-baseline"]
    model, full = gen_map(spec), map_mission(spec)
    cases = [([model, model], Mission(tasks=full.tasks[:joint_tasks], safety=full.safety))]
    cases += [([model, model], mission) for model, mission in instances()]
    assert {mission.safety is None for _, mission in cases} == {False, True}
    for k, (models, mission) in enumerate(cases):
        automata = compile_mission(mission)
        products = [local_product(m, mission, automata=automata) for m in models]
        builds = [lambda: build_team(products), lambda: synchronize(solve_stapu(build_team(products))),
                  lambda: build_mamdp(models, mission, automata=automata)]
        for build in builds:
            build()
            vectors = automata.vectors
            assert automata.classes_of(np.arange(len(vectors))).tolist() == [vector_class(automata, q)
                                                                            for q in vectors], k
            assert automata.handover.tolist() == [automata.switchable(q) for q in vectors], k
            assert len(automata.classes) == len(automata.handover) == len(vectors), k
