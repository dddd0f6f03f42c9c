"""The layered explorer builds what the per-key reference explorer builds.

`Explorer` below is the explorer every model builder used before the
layered one: it numbers keys in first-visit breadth-first order and calls
`expand` once per key. The reference builds expand every state afresh and
step every automaton component by component (`Dfa.advance`), without the
dense step tables. Products, extended products and joint models built by
`teamplan` must equal them: states, CSR arrays (values and dtypes), the
per-state columns, action names and the accepting and violating sets.
"""

import itertools

import numpy as np
import pytest

from teamplan import baseline, mdp, product
from teamplan.baseline import IDLE, build_mamdp
from teamplan.ltl import Mission, parse_formula
from teamplan.maps import gen_map, map_mission
from teamplan.mdp import AVOID, LIVE, TARGET, Arrays, BudgetExceeded, Choice
from teamplan.product import compile_mission, local_product

from instances import graph_model, random_team_instance
from rows import from_rows
from test_golden_workloads import RECIPES
from test_team import mixed_team_instance

SEED = 20261019


class Explorer:
    """Append-only reachable-state explorer, one `expand` call per key.

    Keys are numbered in first-visit breadth-first order. `expand(key,
    intern)` builds the row of one key exactly once, as `stack` takes it,
    calling `intern` to number each successor key; an index, a key and a
    row never change once assigned. A later `explore` from a new root
    appends what is reachable from it after everything already explored.
    `rows` holds the rows expanded since the last `take`.
    """

    def __init__(self, expand):
        self.expand = expand
        self.keys = []
        self.index = {}
        self.rows = []
        self.taken = 0

    def intern(self, key):
        j = self.index.get(key)
        if j is None:
            j = len(self.keys)
            self.index[key] = j
            self.keys.append(key)
        return j

    def explore(self, key) -> int:
        """Index of `key`, after expanding everything reachable from it."""
        root = self.intern(key)
        while self.taken + len(self.rows) < len(self.keys):
            self.rows.append(self.expand(self.keys[self.taken + len(self.rows)], self.intern))
        return root

    def take(self):
        """The rows expanded since the last call, which the explorer drops."""
        rows, self.rows = self.rows, []
        self.taken += len(rows)
        return rows


def stack(rows):
    """The `Arrays` of explorer rows, one `(actions, outcome counts,
    targets, probabilities)` row per state in state order."""
    actions, counts, targets, probs = (np.concatenate(col) for col in zip(*rows))
    offsets = np.concatenate(([0], np.cumsum([len(row[0]) for row in rows], dtype=np.int64)))
    return Arrays(offsets, actions, np.concatenate(([0], np.cumsum(counts, dtype=np.int64))), targets, probs)


def componentwise(automata, qvec, label):
    """The next vector, every component stepped on its own."""
    return tuple(d.advance(q, label) for d, q in zip(automata.dfas, qvec))


def vector_class(automata, q):
    return TARGET if automata.accepting(q) else AVOID if automata.violating(q) else LIVE


def reference_product(source, automata, roots=()):
    """States, `Arrays` and (map state, vector, class) columns of the
    product of `source`, explored from its initial state and then from
    each of `roots` in turn; the arrays are stacked in state order."""

    def expand(key, intern):
        s, q = key
        row = source.choices[s]
        acts = np.array([c.action for c in row], np.int64)
        if automata.violating(q):
            return acts, np.ones(len(row), np.int64), np.full(len(row), intern(key), np.int32), np.ones(len(row))
        succs = {}
        for c in row:
            for t, _ in c.outcomes:
                succs.setdefault(t, intern((t, componentwise(automata, q, source.label(t)))))
        return (acts, np.array([len(c.outcomes) for c in row], np.int64),
                np.array([succs[t] for c in row for t, _ in c.outcomes], np.int32),
                np.array([p for c in row for _, p in c.outcomes], np.float64))

    explorer = Explorer(expand)
    start = componentwise(automata, tuple(d.initial for d in automata.dfas), source.label(source.initial))
    for key in [(source.initial, start), *roots]:
        explorer.explore(key)
    states = explorer.keys
    columns = (np.array([s for s, _ in states], np.int64), [q for _, q in states],
               np.array([vector_class(automata, q) for _, q in states], np.uint8))
    return states, stack(explorer.take()), columns


def canonical(models, positions):
    """`positions` with the positions of the robots that share one model
    object sorted within each such group."""
    out = list(positions)
    for m in {id(m): m for m in models}.values():
        group = [r for r, other in enumerate(models) if other is m]
        for r, s in zip(group, sorted(out[r] for r in group)):
            out[r] = s
    return tuple(out)


def reference_mamdp(models, automata):
    """Keys, rows and action names of the joint model up to swaps of
    robots that share a model, every joint state expanded afresh and every
    vector stepped component by component."""
    names, name_index = [], {}

    def action_index(parts):
        name = "|".join(parts)
        if name not in name_index:
            name_index[name] = len(names)
            names.append(name)
        return name_index[name]

    def step(q, positions):
        return componentwise(automata, q, frozenset().union(*(m.label(s) for m, s in zip(models, positions))))

    def expand(key, intern):
        pos, q = key
        combos = itertools.product(*(
            [(m.actions[c.action], c.outcomes) for c in m.choices[s]] + [(IDLE, ((s, 1.0),))]
            for m, s in zip(models, pos)))
        if automata.violating(q):
            here = intern(key)
            return [Choice(action_index([n for n, _ in combo]), ((here, 1.0),), None) for combo in combos]
        row = []
        for combo in combos:
            outs = []
            for branch in itertools.product(*(outcomes for _, outcomes in combo)):
                p = 1.0
                for _, pr in branch:
                    p *= pr
                tgt = canonical(models, (s2 for s2, _ in branch))
                outs.append((intern((tgt, step(q, tgt))), p))
            row.append(Choice(action_index([n for n, _ in combo]), tuple(outs), None))
        return row

    entries = tuple(m.initial for m in models)
    explorer = Explorer(expand)
    explorer.explore((entries, step(tuple(d.initial for d in automata.dfas), entries)))
    return explorer.keys, explorer.rows, tuple(names)


def same_arrays(found, expected):
    """Equal CSR arrays, value by value and dtype by dtype."""
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(found, expected))


def same_columns(pm, columns):
    """The product's map state, vector (its id in `pm.automata.vectors`)
    and class columns equal the reference's, value by value and the map
    states and classes dtype by dtype."""
    map_states, vectors, classes = columns
    return (same_arrays((pm.map_states, pm.classes), (map_states, classes))
            and [pm.automata.vectors[v] for v in pm.vector_ids.tolist()] == vectors)


def seeded_instances(count, seed=SEED):
    """Seeded teams; every other mission guards its last task atom with a
    `G !p` safety formula instead of visiting it."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        model, mission = random_team_instance(rng, max_nodes=7, max_tasks=3)
        n = len(mission.tasks)
        if len(out) % 2:
            if n < 2:
                continue
            mission = Mission(tasks=mission.tasks[:-1], safety=parse_formula(f"G !p{n}"))
        out.append((model, mission))
    return out


def test_products_equal_reference_builds():
    guarded = 0
    for k, (model, mission) in enumerate(seeded_instances(40)):
        pm = local_product(model, mission)
        states, arrays, columns = reference_product(model, compile_mission(mission))
        assert pm.states == states and pm.num_states == len(states), k
        assert same_arrays(pm.arrays, arrays) and same_arrays(pm.mdp.arrays, arrays), k
        assert same_columns(pm, columns), k
        assert pm.accepting == frozenset(np.flatnonzero(columns[2] == TARGET).tolist()), k
        assert pm.violating == frozenset(np.flatnonzero(columns[2] == AVOID).tolist()), k
        guarded += bool(pm.violating)
    assert guarded >= 5, guarded


def test_extended_products_equal_reference_builds():
    """Products extended from roots outside their initial product: robots
    mid-map with vectors of other robots' products or with a vector the
    automata has not numbered yet, which grows the rows of the explorer's
    state table, and a failed robot at its failure state."""
    rng = np.random.default_rng(SEED)
    extended = failed = grown = 0
    for n in range(40):
        models, mission = mixed_team_instance(rng)
        shared = compile_mission(mission)
        products = [local_product(m, mission, automata=shared) for m in models]
        vectors = sorted({q for pm in products for _, q in pm.states})
        for r, (m, pm) in enumerate(zip(models, products)):
            size, rows = pm.num_states, pm._explorer._ids.shape[0]
            roots = [(int(rng.integers(0, m.num_states)), vectors[int(rng.integers(0, len(vectors)))])
                     for _ in range(3)]
            unseen = (q for q in itertools.product(*(range(d.num_states) for d in shared.dfas))
                      if q not in shared.vectors)
            roots += [(0, q) for q in itertools.islice(unseen, 1)]  # at map state 0, drawing nothing from rng
            roots.append((m.failure_state, vectors[int(rng.integers(0, len(vectors)))]))
            for root in roots:
                at = pm.explore(root[0], shared.vector_id(root[1]))
                assert pm.states[at] == root, (n, r)
            states, arrays, columns = reference_product(m, compile_mission(mission), roots)
            assert pm.states == states and pm.num_states == size, (n, r)
            assert same_arrays(pm.arrays, arrays), (n, r)
            assert same_columns(pm, columns), (n, r)
            assert pm._explorer._ids.size <= 4 * (len(shared.vectors) + 1) * (m.num_states + 1), (n, r)
            extended += len(states) > size
            failed += roots[-1] not in pm.states[:size]
            grown += pm._explorer._ids.shape[0] > rows
    assert extended >= 40 and failed >= 20 and grown >= 30, (extended, failed, grown)


def reversed_with_island(model):
    """A copy of `model` with its states numbered in reverse after an
    unreachable two-state island; the island's first state carries the
    initial state's label, so it is the first state with that label."""
    n = model.num_states
    rows = [[Choice(0, ((1, 1.0),), None)], [Choice(0, ((0, 1.0),), None)]]
    rows += [[Choice(c.action, tuple((n + 1 - t, p) for t, p in c.outcomes), None) for c in model.choices[s]]
             for s in reversed(range(n))]
    labels = {n + 1 - s: label for s, label in model.labels.items()}
    labels[0] = model.label(model.initial)
    failure = None if model.failure_state is None else n + 1 - model.failure_state
    return from_rows(n + 2, n + 1 - model.initial, model.actions, rows, atoms=model.atoms, labels=labels,
                     failure_state=failure)


def mamdp_cases():
    """Two robots on one map, three robots on one map, two or three robots
    on maps of their own, and two or three robots on a map and on its
    `reversed_with_island` copy, which starts at a state other than 0."""
    cases = [([model] * 2, mission) for model, mission in seeded_instances(8)]
    cases += [([model] * 3, mission) for model, mission in seeded_instances(6, SEED + 1)]
    rng = np.random.default_rng(SEED)
    cases += [mixed_team_instance(rng) for _ in range(8)]
    for k, (model, mission) in enumerate(seeded_instances(6, SEED + 2)):
        copy = reversed_with_island(model)
        cases.append(([model, copy] if k % 2 else [copy, model, copy], mission))
    return cases


def test_mamdps_equal_reference_builds(monkeypatch):
    """Also: the joint explorer's state table, grown as a layer passes its
    vectors or places, holds at most 4 * (vectors + 1) * (places + 1)
    entries."""
    made = []
    monkeypatch.setattr(baseline, "Explorer", lambda *args: made.append(mdp.Explorer(*args)) or made[-1])
    sizes = set()
    for k, (models, mission) in enumerate(mamdp_cases()):
        mm = build_mamdp(models, mission)
        places = len({pos for pos, _ in mm.states})
        assert made[-1]._ids.size <= 4 * (len(mm.automata.vectors) + 1) * (places + 1), k
        automata = compile_mission(mission)
        keys, rows, names = reference_mamdp(models, automata)
        expected = from_rows(len(keys), 0, names, rows).arrays
        assert mm.states == keys and mm.num_states == len(keys), k
        assert mm.mdp.actions == names, k
        assert same_arrays(mm.mdp.arrays, expected), k
        assert mm.accepting == frozenset(i for i, (_, q) in enumerate(keys) if automata.accepting(q)), k
        assert mm.violating == frozenset(i for i, (_, q) in enumerate(keys) if automata.violating(q)), k
        sizes.add(len(models))
    assert sizes == {2, 3}


def reachable_count(model):
    """The number of states reachable from the model's initial state."""
    seen, todo = {model.initial}, [model.initial]
    while todo:
        for c in model.choices[todo.pop()]:
            todo += [t for t, _ in c.outcomes if t not in seen]
            seen.update(t for t, _ in c.outcomes)
    return len(seen)


def test_joint_moves_are_built_before_exploring(monkeypatch):
    """On the joint-baseline recipe the joint model hands `Explorer` one
    `Arrays` move table, a row per sorted tuple of robot-reachable states,
    and builds no move table once exploring has started."""
    spec, _, joint_tasks, _, _ = RECIPES["joint-baseline"]
    model, full = gen_map(spec), map_mission(spec)
    events, tables, given, explore = [], [], [], mdp.Explorer.explore
    move_table = baseline._JointPlaces._move_table

    def recording_move_table(self, *args):
        table, codes = move_table(self, *args)
        events.append("table")
        tables.append(table)
        return table, codes

    def recording_explorer(automata, moves, labels, *budget):
        given.append(moves)
        return mdp.Explorer(automata, moves, labels, *budget)

    def recording_explore(self, place, vector):
        events.append("explore")
        return explore(self, place, vector)

    monkeypatch.setattr(baseline._JointPlaces, "_move_table", recording_move_table)
    monkeypatch.setattr(baseline, "Explorer", recording_explorer)
    monkeypatch.setattr(mdp.Explorer, "explore", recording_explore)
    build_mamdp([model, model], Mission(tasks=full.tasks[:joint_tasks], safety=full.safety))
    (moves,) = given
    assert type(moves) is mdp.Arrays and tables == [moves]
    n = reachable_count(model)
    assert len(moves.row_start) - 1 == n * (n + 1) // 2 == 496  # the unordered pairs of reachable states
    assert events == ["table", "explore"]


def test_joint_names_that_coincide_share_one_index():
    """A "|" in the robots' action names can spell two joint actions the
    same, here "x|y|z" twice; they share one index, as in the reference."""
    a, b = (graph_model(3, [(0, 1), (0, 2)], failpoints=set(), pfail=0.0, atom_nodes={"p1": 2}) for _ in range(2))
    a.actions, b.actions = ("go0", "x|y", "x"), ("go0", "z", "y|z")
    mission = Mission(tasks=(parse_formula("F p1"),), safety=None)
    mm = build_mamdp([a, b], mission)
    keys, rows, names = reference_mamdp([a, b], compile_mission(mission))
    assert mm.states == keys and mm.mdp.actions == names and names.count("x|y|z") == 1
    assert same_arrays(mm.mdp.arrays, from_rows(len(keys), 0, names, rows).arrays)


def test_a_product_past_its_budget_stays_as_it_was(monkeypatch):
    """An extension that passes `product.MAX_STATES` raises and leaves the
    product as it was, so the same root raises again instead of coming
    back as a state without a row."""
    checked = 0
    for k, (model, mission) in enumerate(seeded_instances(40)):
        states, _, _ = reference_product(model, compile_mission(mission))
        known = set(states)
        roots = [(s, q) for _, q in states for s in range(model.num_states) if (s, q) not in known]
        grown = [r for r in roots if len(reference_product(model, compile_mission(mission), [r])[0]) > len(states) + 1]
        if not grown:
            continue
        monkeypatch.setattr(product, "MAX_STATES", len(states))
        pm = local_product(model, mission)
        before = (list(pm.states), pm.arrays, pm.map_states.copy(), pm.vector_ids.copy(), pm.classes.copy())
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                pm.explore(grown[0][0], pm.automata.vector_id(grown[0][1]))
            assert pm.states == before[0] and pm.arrays is before[1], k
            assert same_arrays((pm.map_states, pm.vector_ids, pm.classes), before[2:]), k
        assert pm.explore(states[-1][0], pm.automata.vector_id(states[-1][1])) == len(states) - 1, k
        checked += 1
    assert checked >= 10, checked
