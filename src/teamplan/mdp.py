"""Explicit-state MDPs and maximal reachability.

`Explorer`, the one reachable-state explorer, builds the local products
and the joint baseline one breadth-first layer per numpy pass, from one
move table (an `Arrays` with a row per place and places for targets,
built before exploring) and the dense automaton tables of
`product.Automata`, into the CSR `Arrays` of an `Mdp`, numbering states
in a dense table. The team model is composed of the products' rows,
taken (`_take`), joined (`_concat`) and closed by a switch
(`_append_choice`), and `model_from_dict` and `maps.gen_map` write their
arrays directly. `MAX_STATES` bounds a product and a model file.
`Mdp.choices`, `Choice` rows read off the arrays, is a view no module
here reads.

Two solvers compute maximal reach probabilities, one per model class:

- `max_product_reach` serves models in which every choice has at most one
  live outcome, i.e. the team models of deterministic-or-fail robots.
  Frontier relaxation from the targets over a backward index of the live
  edges gives the exact values (`_relax`), one numpy round per frontier.
- `max_reach` serves every other model (the joint multi-agent MDP, team
  models of robots outside that class, model files of any shape). It is
  value iteration bracketed by graph precomputation: states that cannot
  reach the target under any scheduler are pinned to 0 and states with an
  almost-sure strategy are pinned to 1 before iteration starts, so the
  iterated region only contains genuinely quantitative states. The Jacobi
  sweeps run in numpy over the model's arrays, a block at a time when the
  caller ranks the states in topological order, to `EPSILON` by default.

Both read their policy off the values on the first read of
`ReachResult.policy`, with `_layered_policy`. Every layered graph pass
(prob0, prob1, both policy passes, and the `_reachable` states of a
product's closure and of each robot of the joint model) runs
`_frontier`, one numpy pass per breadth-first layer over an edge index:
for the solvers a backward index of the outcomes of non-target,
non-avoid states (`max_reach`) or of the live edges
(`max_product_reach`), built once per solve.
"""

from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property

import numpy as np

from .ltl import _read_json, _shown, _write_json

Arrays = namedtuple("Arrays", ["row_start", "actions", "out_start", "targets", "probs"])
# CSR form: state s has choices k in range(row_start[s], row_start[s + 1]), choice k takes
# actions[k] to targets[o] with probs[o] for o in range(out_start[k], out_start[k + 1])
Choice = namedtuple("Choice", ["action", "outcomes", "cost"])  # of the Mdp.choices view


class Mdp:
    """Sparse explicit MDP over CSR `arrays`, with an optional float column
    `costs`, NaN for a choice without. Treated as immutable once built."""

    def __init__(self, num_states, initial, actions, arrays, atoms=(), labels=None, failure_state=None, costs=None):
        self.num_states: int = num_states
        self.initial: int = initial
        self.actions: tuple[str, ...] = tuple(actions)
        self.arrays: Arrays = arrays
        self.atoms: tuple[str, ...] = tuple(atoms)
        self.labels: dict[int, frozenset[str]] = {s: frozenset(l) for s, l in (labels or {}).items()}
        self.failure_state: int | None = failure_state
        self.costs: np.ndarray | None = costs

    @cached_property
    def choices(self) -> list[list[Choice]]:
        """choices[s] lists the enabled choices of s, with cost None for none."""
        flat = [Choice(a, tuple(outcomes), cost) for _, a, outcomes, cost in _each_choice(self)]
        row_start = self.arrays.row_start.tolist()
        return [flat[row_start[s]:row_start[s + 1]] for s in range(self.num_states)]

    def label(self, s: int) -> frozenset[str]:
        return self.labels.get(s, frozenset())

    def transition_count(self) -> int:
        return len(self.arrays.targets)


def _each_choice(mdp):
    """Per choice in order: state, action, outcomes and cost (None for none)."""
    row_start, actions, out_start, targets, probs = mdp.arrays
    costs = np.full(len(actions), np.nan) if mdp.costs is None else mdp.costs
    outcomes, out_start = list(zip(targets.tolist(), probs.tolist())), out_start.tolist()
    states = np.repeat(np.arange(len(row_start) - 1), np.diff(row_start)).tolist()
    for k, (s, a, c) in enumerate(zip(states, actions.tolist(), np.where(np.isnan(costs), None, costs).tolist())):
        yield s, a, outcomes[out_start[k]:out_start[k + 1]], c


def _offsets(counts):
    """Offsets of consecutive segments of the given lengths, from 0."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def _concat(parts):
    """The `Arrays` holding the states of each of `parts` in turn, their
    targets as they are."""
    row_start, actions, out_start, targets, probs = zip(*parts)
    return Arrays(_joined(row_start), np.concatenate(actions), _joined(out_start), np.concatenate(targets),
                  np.concatenate(probs))


def _joined(offsets):
    """The offsets of the segments of each of `offsets`, from 0, in turn."""
    ends = np.cumsum([o[-1] for o in offsets[:-1]], dtype=np.int64)
    return np.concatenate([offsets[0], *(o[1:] + end for o, end in zip(offsets[1:], ends))])


def _take(arrays, states):
    """The `Arrays` of the rows of the int array `states`, in that order,
    their targets as they are."""
    row_start, actions, out_start, targets, probs = arrays
    choices = _ranges(row_start, states)
    outs = _ranges(out_start, choices)
    return Arrays(_offsets(row_start[states + 1] - row_start[states]), actions[choices],
                  _offsets(out_start[choices + 1] - out_start[choices]), targets[outs], probs[outs])


def _append_choice(arrays, where, action, targets):
    """`arrays` with one more choice at the end of the row of each state of
    the mask `where`: `action`, with one outcome, to that state's entry of
    `targets`, with probability 1."""
    row_start, actions, out_start, successors, probs = arrays
    at = row_start[1:][where]  # each new choice goes before the next row's first
    choice, outcome = _slots(len(actions), at), _slots(len(successors), out_start[at])
    return Arrays(_offsets(np.diff(row_start) + where), _spliced(actions, choice, action),
                  _offsets(_spliced(np.diff(out_start), choice, 1)), _spliced(successors, outcome, targets[where]),
                  _spliced(probs, outcome, 1.0))


def _slots(n, at):
    """(new, old): the places of one new value before each of the
    nondecreasing positions `at` among n values, as `np.insert` puts them,
    and the mask of the places the n values move to."""
    new = at + np.arange(len(at))
    old = np.ones(n + len(at), bool)
    old[new] = False
    return new, old


def _spliced(values, slots, fill):
    """`values` in order at the old places of `_slots`, `fill` at the new."""
    new, old = slots
    out = np.empty(len(old), values.dtype)
    out[new] = fill
    out[old] = values
    return out


def _ranges(offsets, idx):
    """The indices in range(offsets[i], offsets[i + 1]) for each i of the
    int array `idx`, concatenated in order."""
    counts = offsets[idx + 1] - offsets[idx]
    shift = np.repeat(offsets[idx] + counts - np.cumsum(counts), counts)
    return shift + np.arange(len(shift))


def _frontier(index, reached, usable=None):
    """Breadth-first layers from the states of the mask `reached` over the
    edges k in range(offsets[s], offsets[s + 1]) from each state s to
    ends[k]: per layer, the `usable` edges (all when None) out of the last
    and the states they newly reach, in order, which it then marks."""
    offsets, ends = index
    layer = np.flatnonzero(reached)
    while len(layer):
        k = _ranges(offsets, layer)
        if usable is not None:
            k = k[usable[k]]
        found = np.zeros(len(reached), bool)
        found[ends[k]] = True
        layer = np.flatnonzero(found & ~reached)
        yield k, layer
        reached[layer] = True


def _reachable(arrays, roots):
    """The states reachable over `arrays` from the distinct states `roots`:
    the roots, then each `_frontier` layer over the outcomes, in state order."""
    row_start, _, out_start, targets, _ = arrays
    reached = np.zeros(len(row_start) - 1, bool)
    reached[roots] = True
    # the outcomes of state s are range(out_start[row_start[s]], out_start[row_start[s + 1]])
    return np.concatenate([roots, *(layer for _, layer in _frontier((out_start[row_start], targets), reached))])


def _absorbing(arrays):
    """Per state, True when every choice of it is a one-outcome self-loop
    (so also when it has no choices)."""
    row_start, _, out_start, targets, _ = arrays
    n = len(row_start) - 1
    state = np.repeat(np.arange(n), np.diff(row_start))
    loop = np.diff(out_start) == 1
    loop[loop] = targets[out_start[:-1][loop]] == state[loop]
    return np.bincount(state[~loop], minlength=n) == 0


class BudgetExceeded(RuntimeError):
    """A model outgrew its state budget."""


MAX_STATES = 1_000_000  # a product's exploration and a model file's load give up beyond this many states


def _first_seen(keys):
    """Per key, the rank of its value among the distinct `keys` in order of
    first occurrence, and those distinct keys in that order (a stable
    argsort: np.unique would import numpy.ma)."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    head = np.empty(len(keys), bool)  # the first of each run of equal keys in `ordered`
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    firsts = order[head]
    first = np.zeros(len(keys), bool)
    first[firsts] = True
    rank = np.empty(len(keys), np.int64)
    rank[order] = (first.cumsum() - 1)[firsts][head.cumsum() - 1]
    return rank, keys[first]


def _dense_number(table, keys, n):
    """The number in the flat table `table`, -1 for none, of each of `keys`,
    new ones numbered from n by first occurrence without sorting; and the new keys."""
    out = table[keys]
    miss = np.flatnonzero(out < 0)
    keys, at = keys[miss], np.arange(len(miss))
    table[keys[::-1]] = at[::-1]  # each new key holds its first position
    new = keys[table[keys] == at]
    table[new] = np.arange(n, n + len(new))
    out[miss] = table[keys]
    return out, new


def _grow(table, shape):
    """`table`, or a copy of at least `shape` doubling each axis passed, -1 in its new entries."""
    grown = tuple(k if t <= k else max(2 * k, t) for k, t in zip(table.shape, shape))
    if grown == table.shape:
        return table
    out = np.full(grown, -1, table.dtype)
    out[tuple(slice(k) for k in table.shape)] = table
    return out


class Explorer:
    """Append-only breadth-first explorer of (place, automaton vector id)
    states, shared by every model builder: one numpy pass per layer.

    A place is where the robots stand: it numbers its row of the move
    table `moves`, an `Arrays` whose targets are places, and its label id
    in `labels`. `automata.step` steps the vector ids of a layer's
    non-violating states on every outcome of their rows. A table
    `ids[vector id, place]`, doubling an axis a state passes (at most
    4 * vectors * places entries), numbers a layer's new successors
    after every known state in row order of first occurrence, unsorted:
    first-visit breadth-first order. A violating vector's state keeps its
    actions as one-outcome self-loops. An index and a row never change
    once assigned: `explore` from a new root appends what is reachable.
    `places`, `vectors` and `arrays` hold every state's place, vector id
    and row. Past `budget` states, checked once per layer, it forgets the
    states of the call and raises `BudgetExceeded`.
    """

    def __init__(self, automata, moves, labels, budget=None):
        self.automata, self.moves, self.labels, self.budget = automata, moves, labels, budget
        self._outs = moves.out_start[moves.row_start]  # the outcomes of place p: range(_outs[p], _outs[p + 1])
        self.places = self.vectors = np.zeros(0, np.int64)
        self.arrays, self._ids = None, np.full((0, 0), -1, np.int32)

    def explore(self, place, vector) -> int:
        """Index of state (place, vector id), after expanding everything
        reachable from it."""
        if vector < self._ids.shape[0] and place < self._ids.shape[1] and self._ids[vector, place] >= 0:
            return int(self._ids[vector, place])  # every known state is expanded
        old = n = len(self.places)
        nxt, succ, layers, found = np.array([vector]), np.array([place]), [], []
        while True:  # number the states nxt, succ; expand the new ones
            self._ids = _grow(self._ids, (int(nxt.max(initial=-1)) + 1, int(succ.max(initial=-1)) + 1))
            ids, new = _dense_number(self._ids.reshape(-1), nxt * self._ids.shape[1] + succ, n)
            v, p = np.divmod(new, self._ids.shape[1])
            if self.budget is not None and layers and n + len(v) > self.budget:
                for q, s in [*layers, (v, p)]:  # back to the states before this call, all expanded
                    self._ids[q, s] = -1
                raise BudgetExceeded(f"exploration passed the budget of {self.budget} states")
            found.append(ids)
            if not len(v):
                break
            layers.append((v, p))
            n += len(v)
            live = self.automata.classes_of(v) != AVOID
            v, p = v[live], p[live]
            succ = self.moves.targets[_ranges(self._outs, p)]
            nxt = self.automata.step(np.repeat(v, self._outs[p + 1] - self._outs[p]), self.labels[succ])
        vectors, places = (np.concatenate(c) for c in zip(*layers))
        self.places, self.vectors = np.append(self.places, places), np.append(self.vectors, vectors)
        new = self._rows(old, np.concatenate(found[1:]))
        self.arrays = new if self.arrays is None else _concat((self.arrays, new))
        return old

    def _rows(self, lo, found):
        """The `Arrays` of states lo.. given the states of the outcomes of
        the non-violating ones, in order."""
        m, p = self.moves, self.places[lo:]
        choices = m.row_start[p + 1] - m.row_start[p]
        c = _ranges(m.row_start, p)
        loop = np.repeat(self.automata.classes_of(self.vectors[lo:]) == AVOID, choices)
        counts = m.out_start[c + 1] - m.out_start[c]
        counts[loop] = 1
        o = _ranges(m.out_start, c[~loop])
        looped = np.repeat(loop, counts)
        targets = np.empty(len(looped), np.int32)
        targets[looped] = np.repeat(np.arange(lo, len(self.places)), choices)[loop]
        targets[~looped] = found
        probs = np.ones(len(targets))
        probs[~looped] = m.probs[o]
        return Arrays(_offsets(choices), m.actions[c], _offsets(counts), targets, probs)


PROB_ATOL = 1e-9


def validate(mdp: Mdp) -> list[str]:
    """Structural diagnostics; an empty list means the model is well formed."""
    if not (0 <= mdp.initial < mdp.num_states):
        return [f"initial state {mdp.initial} out of range"]
    problems, seen = [], set()
    for s, a, outcomes, cost in _each_choice(mdp):
        if not (0 <= a < len(mdp.actions)):
            problems.append(f"state {s}: action index {a} out of range")
            continue
        if (s, a) in seen:
            problems.append(f"state {s}: action {_shown(mdp.actions[a])} enabled twice")
        seen.add((s, a))
        where = f"state {s}, action {_shown(mdp.actions[a])}"
        total = 0.0
        for t, p in outcomes:
            if not (0 <= t < mdp.num_states):
                problems.append(f"{where}: successor {t} out of range")
            if not (0.0 < p <= 1.0):
                problems.append(f"{where}: probability {p} outside (0, 1]")
            total += p
        if abs(total - 1.0) > PROB_ATOL:
            problems.append(f"{where}: probabilities sum to {total!r}, not 1")
        if cost is not None and cost < 0:
            problems.append(f"{where}: negative cost {cost}")
    if mdp.failure_state is not None:
        f = mdp.failure_state
        if not (0 <= f < mdp.num_states):
            problems.append(f"failure state {f} out of range")
        elif not _absorbing(mdp.arrays)[f]:
            problems.append(f"failure state {f} is not absorbing")
    return problems


# ------------------------------------------------------------------
# model files


def model_to_dict(mdp: Mdp) -> dict:
    trans = []
    for s, a, outcomes, cost in _each_choice(mdp):
        entry = {"from": s, "action": mdp.actions[a], "outcomes": [{"to": t, "p": p} for t, p in outcomes]}
        if cost is not None:
            entry["cost"] = cost
        trans.append(entry)
    return {
        "states": mdp.num_states,
        "initial": mdp.initial,
        "atoms": list(mdp.atoms),
        "labels": {str(s): sorted(l) for s, l in sorted(mdp.labels.items()) if l},
        "failure_state": mdp.failure_state,
        "actions": list(mdp.actions),
        "trans": trans,
    }


# The readers of model and policy files share these checks. `what` opens
# the message: the file's "malformed ..." prefix, then the value's name.

_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _integer(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {_shown(value)} is not an integer")
    return value


def _number(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} {_shown(value)} is not a number")
    return float(value)


def _typed(value, kind, what):
    if not isinstance(value, kind):
        raise ValueError(f"{what} {_shown(value)} is not {_JSON_KINDS[kind]}")
    return value


def _strings(value, what):
    for item in _typed(value, list, what):
        _typed(item, str, f"{what} element")
    return value


def _outcome(o):
    o = _typed(o, dict, "malformed model: outcome")
    return _integer(o["to"], "malformed model: successor"), _number(o["p"], "malformed model: probability")


def model_from_dict(data: dict) -> Mdp:
    try:
        num_states = _integer(_typed(data, dict, "malformed model: model")["states"], "malformed model: states")
        if num_states > MAX_STATES:  # before storing anything per state
            raise BudgetExceeded(f"exploration passed the budget of {MAX_STATES} states")
        actions = _strings(data["actions"], "malformed model: actions")
        atoms = tuple(_strings(data.get("atoms", []), "malformed model: atoms"))
        action_index = {a: i for i, a in enumerate(actions)}
        table, outcomes, costs = [], [], []
        for t in _typed(data["trans"], list, "malformed model: trans"):
            source = _typed(t, dict, "malformed model: transition")["from"]
            if not 0 <= _integer(source, "malformed model: transition source") < num_states:
                raise ValueError(f"transition source {t['from']} out of range")
            if _typed(t["action"], str, "malformed model: action") not in action_index:
                raise ValueError(f"transition from {t['from']} uses undeclared action {_shown(t['action'])}")
            outcomes += map(_outcome, _typed(t["outcomes"], list, "malformed model: outcomes"))
            cost = t.get("cost")
            if cost is not None and not np.isfinite(_number(cost, "malformed model: cost")):
                raise ValueError(f"malformed model: cost {cost!r} is not a finite number")  # NaN would read as none
            costs.append(np.nan if cost is None else float(cost))
            table.append((source, action_index[t["action"]], len(t["outcomes"])))
        labels = {}
        for key, l in _typed(data.get("labels", {}), dict, "malformed model: labels").items():
            try:
                s = int(key)
            except ValueError:
                raise ValueError(f"malformed model: label key {_shown(key)} is not an integer") from None
            if not 0 <= s < num_states:
                raise ValueError(f"malformed model: labels of state {s} out of range")
            labels[s] = frozenset(_strings(l, f"malformed model: labels of state {s}"))
            if not labels[s] <= set(atoms):
                raise ValueError(f"malformed model: state {s} has atoms {_shown(sorted(labels[s] - set(atoms)))} "
                                 f"missing from atoms")
        failure_state = data.get("failure_state")
        initial = _integer(data["initial"], "malformed model: initial state")
    except KeyError as e:
        raise ValueError(f"malformed model: missing key {e}") from None
    sources, chosen, counts = np.array(table, np.int64).reshape(-1, 3).T
    order = np.argsort(sources, kind="stable")  # each state's choices in file order
    targets, probs = np.array(outcomes, object).reshape(-1, 2)[_ranges(_offsets(counts), order)].T
    arrays = Arrays(_offsets(np.bincount(sources, minlength=max(num_states, 0))), chosen[order],
                    _offsets(counts[order]), targets, probs.astype(np.float64))
    mdp = Mdp(
        num_states=num_states,
        initial=initial,
        actions=actions,
        arrays=arrays,
        atoms=atoms,
        labels=labels,
        failure_state=None if failure_state is None else _integer(failure_state, "malformed model: failure state"),
        costs=np.array(costs)[order],
    )
    problems = validate(mdp)
    if problems:
        raise ValueError("malformed model: " + "; ".join(problems[:3]))
    mdp.arrays = arrays._replace(targets=arrays.targets.astype(np.int32))  # object until known in range
    return mdp


def save_model(mdp: Mdp, path):
    _write_json(path, model_to_dict(mdp))


def load_model(path) -> Mdp:
    return model_from_dict(_read_json(path))


# ------------------------------------------------------------------
# solving


class SolverError(RuntimeError):
    pass


class DivergenceError(SolverError):
    pass


class Policy(Mapping):
    """A read-only mapping from the states with choices to their actions,
    over one action per state, -1 where a state has none."""

    def __init__(self, actions):
        self.actions = actions

    def __getitem__(self, s):
        if not 0 <= s < len(self.actions) or self.actions[s] < 0:
            raise KeyError(s)
        return int(self.actions[s])

    def __iter__(self):
        return iter(np.flatnonzero(self.actions >= 0).tolist())

    def __len__(self):
        return int(np.count_nonzero(self.actions >= 0))


class ReachResult:
    """Values and sweeps of a solve. The sets of states of value 1 and 0,
    given as masks, and the policy, read by calling `read_policy`, are
    built on first read. `iterations` counts the sweeps of value
    iteration, summed over the blocks of a blocked `max_reach`; 0 for
    `max_product_reach`."""

    def __init__(self, values, iterations, sure_mask, zero_mask, read_policy):
        self.values = values
        self.iterations = iterations
        self.sure_mask = sure_mask
        self.zero_mask = zero_mask
        self.read_policy = read_policy

    @cached_property
    def almost_sure(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.sure_mask).tolist())

    @cached_property
    def zero(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.zero_mask).tolist())

    @cached_property
    def policy(self) -> Policy:
        """One action per state with choices."""
        return self.read_policy()


def _check_sets(mdp: Mdp, target, avoid) -> tuple[set[int], set[int]]:
    target = set(target)
    avoid = set(avoid)
    if target & avoid:
        raise ValueError("target and avoid sets overlap")
    for s in target | avoid:
        if not (0 <= s < mdp.num_states):
            raise ValueError(f"state {s} out of range")
    return target, avoid


def _layered_policy(arrays, index, certificate, optimal, target, sure, positive) -> Policy:
    """The policy rule of every reachability solver for the model of
    `arrays`, over a `_backward_index` `(offsets, tails, actions)`, edge k
    coming from tails[k] by actions[k]. `certificate` and `optimal` flag
    edges; `target`, `sure` and `positive` are state masks.

    A first pass gives the almost-sure states certificate actions, layer
    by layer back from the targets: a state joins the layer after the
    first one a flagged edge of it reaches, with the lowest action among
    those edges. A second gives the rest of the positive region
    value-optimal actions so, back from the targets and `sure`; a plain
    argmax can pick a choice that keeps the value forever without
    reaching anything. Each pass must assign all its states; every other
    state with choices gets its first action.
    """
    row_start, first = arrays[:2]
    policy = np.full(len(row_start) - 1, -1, first.dtype)
    has = np.flatnonzero(np.diff(row_start))
    policy[has] = first[row_start[has]]
    offsets, tails, actions = index
    least = np.full_like(policy, np.iinfo(policy.dtype).max)  # read when a state joins a layer, so no reset
    for usable, assigned, need in ((certificate & sure[tails], target.copy(), sure),
                                   (optimal & positive[tails], target | sure, positive)):
        for k, layer in _frontier((offsets, tails), assigned, usable):
            np.minimum.at(least, tails[k], actions[k])
            policy[layer] = least[layer]
        missing = np.flatnonzero(need & ~assigned)
        if len(missing):
            raise SolverError("internal: no progressing optimal action for states " + str(missing[:5].tolist()))
    return Policy(policy)


def _reach_policy(arrays, index, values, target, sure) -> Policy:
    """`_layered_policy` over `max_reach`'s backward index, given
    numpy values and state masks. Certificate actions on the almost-sure
    states `sure`, whose outcomes all lie in `sure` or `target`;
    value-optimal ones, within PROB_ATOL of the state's best choice, on the
    rest of the positive region; the first enabled action everywhere else.
    """
    row_start, actions, out_start, targets, probs = arrays
    row_count, out_count = np.diff(row_start), np.diff(out_start)
    # each choice's terms added left to right, one outcome position at a
    # time: np.add.reduceat sums three or more terms in another order
    q = np.zeros(len(actions))
    live, j = np.arange(len(actions)), 0
    while len(live := live[out_count[live] > j]):
        o = out_start[live] + j
        q[live] += probs[o] * values[targets[o]]
        j += 1
    has = np.flatnonzero(row_count)
    optimal = q >= np.repeat(np.maximum.reduceat(q, row_start[has]), row_count[has]) - PROB_ATOL
    certificate = np.logical_and.reduceat((sure | target)[targets], out_start[:-1])
    offsets, tails, owner = index
    return _layered_policy(arrays, (offsets, tails, actions[owner]), certificate[owner], optimal[owner], target,
                           sure, (values > 0.0) & ~target & ~sure)


MAX_SWEEPS = 100_000  # value iteration gives up after this many sweeps
EPSILON = 1e-6  # every solve's default `epsilon`


def max_reach(mdp: Mdp, target, avoid=(), epsilon: float = EPSILON, blocks=None) -> ReachResult:
    """Maximal probability of reaching `target` while never entering `avoid`.

    Avoid states are treated as absorbing with value 0 but stay part of the
    state space. States that cannot reach the target are pinned to 0, and
    states with an almost-sure strategy to 1 (the classical double
    fixpoint: shrink a candidate set u, from the states of positive value,
    to the states that reach the target by choices staying in u, a round
    dropping the choices into the states the last one took out). Both
    passes and the policy read a backward index of the outcomes of the
    choices of the states outside `target` and `avoid`. On the rest,
    Jacobi sweeps over `mdp.arrays` (every choice has an outcome) run from
    zero until the largest update falls below `epsilon` (absolute,
    positive). With `blocks`, an int rank per state, they sweep one block
    of equal rank at a time, lowest first, each to its own stop;
    ValueError when an outcome of a quantitative state has a higher rank.
    """
    target, avoid = _check_sets(mdp, target, avoid)
    if not 0.0 < _number(epsilon, "epsilon") < np.inf:
        raise ValueError(f"epsilon {epsilon!r} is not a positive finite number")
    n = mdp.num_states
    if blocks is not None and len(blocks) != n:
        raise ValueError(f"blocks has {len(blocks)} ranks for {n} states")
    row_start, _, out_start, targets, _ = mdp.arrays
    row_count, out_count = np.diff(row_start), np.diff(out_start)
    in_target, u = np.zeros(n, bool), np.ones(n, bool)
    in_target[list(target)] = True
    u[list(avoid)] = False
    # the index holds the outcomes of the states outside target and avoid.
    # Its columns, like the sweeps' heads, are intp: numpy converts an
    # index array of another type on every use
    read = np.repeat(np.repeat(u & ~in_target, row_count), out_count)
    offsets, owner = _backward_index([targets[read], np.repeat(np.arange(len(out_count)), out_count)[read]], n)
    tails = np.repeat(np.arange(n), row_count)[owner]

    def attract(usable):
        """The least superset of the targets holding the tail of every
        `usable` edge into it."""
        reached = in_target.copy()
        for _ in _frontier((offsets, tails), reached, usable):
            pass
        return reached

    zero = ~attract(None)  # no edge of the index leaves an avoid state
    # left: the states u lost in the last round; stay: per choice, every
    # outcome in u. No state outside u has a choice that stays, or the
    # round that took it out would have kept it: no edge needs a tail test
    one, left, stay = ~zero, zero, np.ones(len(out_count), bool)
    while left.any():
        stay[owner[_ranges(offsets, np.flatnonzero(left))]] = False
        u, one = one, attract(stay[owner])
        left = u & ~one

    x, mid, cuts = one.astype(np.float64), np.flatnonzero(~(zero | one)), []
    if blocks is not None:
        mid = mid[np.argsort(blocks[mid], kind="stable")]
        cuts = np.flatnonzero(np.diff(blocks[mid])) + 1
    iterations = 0
    for block in np.split(mid, cuts) if len(mid) else ():
        part = _take(mdp.arrays, block)
        heads, weights = part.targets.astype(np.intp), part.probs
        if blocks is not None and (blocks[heads] > blocks[block[0]]).any():
            raise ValueError(f"blocks: a state of rank {blocks[block[0]]} has an outcome of higher rank")
        starts, rows = part.out_start[:-1], part.row_start[:-1]
        for sweeps in range(1, MAX_SWEEPS + 1):
            best = np.maximum.reduceat(np.add.reduceat(weights * x[heads], starts), rows)
            delta = float((best - x[block]).max())
            x[block] = best
            if delta < epsilon:
                break
        else:
            raise DivergenceError(f"value iteration exceeded {MAX_SWEEPS} sweeps (last delta {delta})")
        iterations += sweeps

    return ReachResult(x.tolist(), iterations, one, zero,
                       lambda: _reach_policy(mdp.arrays, (offsets, tails, owner), x, in_target, one & ~in_target))


# classes of a state for the max-product solver: a sink is absorbing and
# neither target nor avoid state, so dead
LIVE, TARGET, AVOID, SINK = range(4)


def _live_index(arrays, cls):
    """The backward index (`_backward_index`) of the live edges of the
    choices of the live states by `cls`, where a live outcome is a live or
    target state: columns of choosing state, probability, action index
    and whether the live outcome is the choice's only one, states and
    actions as int32. None when a choice has two live outcomes.
    """
    row_start, actions, out_start, targets, probs = arrays
    owner = np.repeat(np.arange(len(actions), dtype=np.int32), np.diff(out_start))
    state = np.repeat(np.arange(len(cls), dtype=np.int32), np.diff(row_start))
    outs = np.flatnonzero((cls[targets] <= TARGET) & (cls[state] == LIVE)[owner])
    owner = owner[outs]
    if (owner[1:] == owner[:-1]).any():  # owners ascend, so a repeat is adjacent
        return None
    return _backward_index([targets[outs], state[owner], probs[outs], actions[owner].astype(np.int32, copy=False),
                            out_start[owner + 1] - out_start[owner] == 1], len(cls))


def _backward_index(edges, n):
    """Edge columns sorted by their first, the head, over states 0..n-1:
    (offsets, *the other columns), the edges into state t being k in
    range(offsets[t], offsets[t + 1])."""
    # heads under 2**16 sort as uint16, by radix: the same stable order, faster
    order = np.argsort(edges[0].astype(np.uint16) if n <= 65_536 else edges[0], kind="stable")
    return (_offsets(np.bincount(edges[0], minlength=n)), *(c[order] for c in edges[1:]))


def _relax(index, heads, values, frontier):
    """Raise `values` to the largest product of probabilities along the live
    edges of `index` (with the head of each in `heads`) to a state of
    `frontier`, times its value (the targets, at 1).

    Each round relaxes the edges into the states that rose in the round
    before and keeps the largest `p * values[head]` per tail. p <= 1 keeps
    every product monotone, also in floating point, so the rounds stop at
    the least fixpoint from below: the largest product over paths.
    """
    offsets, tails, probs = index[:3]
    while len(frontier):
        k = _ranges(offsets, frontier)
        w, tail = probs[k] * values[heads[k]], tails[k]
        rose = w > values[tail]
        tail = tail[rose]
        np.maximum.at(values, tail, w[rose])
        frontier = np.flatnonzero(np.bincount(tail, minlength=len(values)))  # np.unique imports numpy.ma


def _max_product_policy(arrays, index, heads, values, target):
    """`_layered_policy` over the live-edge index of a model with one live
    outcome per choice, given numpy values and the target mask: a choice
    is a certificate when its live outcome is its only one, and
    value-optimal when p times that outcome's value is within PROB_ATOL of
    its state's, which is its best choice's.
    """
    offsets, tails, probs, actions, alone = index
    return _layered_policy(arrays, (offsets, tails, actions), alone, probs * values[heads] >= values[tails] - PROB_ATOL,
                           target, ~target & (values == 1.0), ~target & (values > 0.0) & (values < 1.0))


def max_product_reach(mdp: Mdp, target, avoid=()) -> ReachResult | None:
    """Exact maximal reach probability when every choice has at most one live
    outcome; None when some choice has two.

    An outcome is dead when it is an avoid state or an absorbing non-target
    state: its value is 0. With one live outcome per choice, reached with
    probability p, the value of a state is the largest product of p along a
    path to the target, which frontier relaxation from the targets
    computes exactly (`_relax`). The policy follows the same rule as
    `max_reach`'s.
    """
    target, avoid = _check_sets(mdp, target, avoid)
    cls = np.where(_absorbing(mdp.arrays), SINK, LIVE).astype(np.uint8)
    cls[list(avoid)] = AVOID
    cls[list(target)] = TARGET
    index = _live_index(mdp.arrays, cls)
    if index is None:
        return None

    in_target = cls == TARGET
    values = in_target.astype(np.float64)
    heads = np.repeat(np.arange(mdp.num_states, dtype=np.int32), np.diff(index[0]))
    _relax(index, heads, values, np.flatnonzero(in_target))
    # a product of probabilities is 1.0 only over probability-1 steps
    return ReachResult(values.tolist(), 0, values == 1.0, values == 0.0,
                       lambda: _max_product_policy(mdp.arrays, index, heads, values, in_target))
