"""Models stated as rows of `Choice` records, for tests that write a model
choice by choice, and the row-by-row `validate` that the array one is
checked against."""

import numpy as np

from teamplan.mdp import PROB_ATOL, Arrays, Mdp, _offsets


def from_rows(num_states, initial, actions, rows, **kw):
    """The `Mdp` whose `choices` are `rows`: rows[s] lists the `Choice`
    records of state s. A cost column is kept when some choice has a cost."""
    flat = [c for row in rows for c in row]
    outcomes = [o for c in flat for o in c.outcomes]
    arrays = Arrays(_offsets([len(row) for row in rows]), np.array([c.action for c in flat], np.int64),
                    _offsets([len(c.outcomes) for c in flat]), np.array([t for t, _ in outcomes], np.int32),
                    np.array([p for _, p in outcomes], np.float64))
    if any(c.cost is not None for c in flat):
        kw["costs"] = np.array([np.nan if c.cost is None else c.cost for c in flat], np.float64)
    return Mdp(num_states, initial, actions, arrays, **kw)


def row_validate(mdp: Mdp) -> list[str]:
    """`mdp.validate` as one loop over the rows `mdp.choices`."""
    problems = []
    if not (0 <= mdp.initial < mdp.num_states):
        problems.append(f"initial state {mdp.initial} out of range")
        return problems
    for s in range(mdp.num_states):
        seen_actions = set()
        for c in mdp.choices[s]:
            if not (0 <= c.action < len(mdp.actions)):
                problems.append(f"state {s}: action index {c.action} out of range")
                continue
            if c.action in seen_actions:
                problems.append(f"state {s}: action {mdp.actions[c.action]!r} enabled twice")
            seen_actions.add(c.action)
            total = 0.0
            for t, p in c.outcomes:
                if not (0 <= t < mdp.num_states):
                    problems.append(f"state {s}, action {mdp.actions[c.action]!r}: successor {t} out of range")
                if not (0.0 < p <= 1.0):
                    problems.append(f"state {s}, action {mdp.actions[c.action]!r}: probability {p} outside (0, 1]")
                total += p
            if abs(total - 1.0) > PROB_ATOL:
                problems.append(
                    f"state {s}, action {mdp.actions[c.action]!r}: probabilities sum to {total!r}, not 1"
                )
            if c.cost is not None and c.cost < 0:
                problems.append(f"state {s}, action {mdp.actions[c.action]!r}: negative cost {c.cost}")
    if mdp.failure_state is not None:
        f = mdp.failure_state
        if not (0 <= f < mdp.num_states):
            problems.append(f"failure state {f} out of range")
        elif any(len(c.outcomes) != 1 or c.outcomes[0][0] != f for c in mdp.choices[f]):
            problems.append(f"failure state {f} is not absorbing")
    return problems
