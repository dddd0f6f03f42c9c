"""What a breakdown is worth: replanning from reallocation points.

Two identical robots, one task behind a risky first move that succeeds
with probability 0.9. The initial plan sends robot 0; when its move
fails, the team replans from the exact joint state of the breakdown and
robot 1 takes over, lifting the mission guarantee from 0.9 to
0.9 + 0.1 * 0.9 = 0.99. Every replan grafts a continuation onto the
executed joint chain, so the guarantee improves monotonically and a
seeded simulation of the final policy reproduces it.
"""

from teamplan.ltl import Mission, parse_formula
from teamplan.mdp import model_from_dict
from teamplan.realloc import run_stapu_with_realloc
from teamplan.simulate import simulate

# the same dict as a model file: state 2 is the absorbing failure state
risky = model_from_dict({
    "states": 3,
    "initial": 0,
    "actions": ["go", "stay"],
    "trans": [
        {"from": 0, "action": "go", "outcomes": [{"to": 1, "p": 0.9}, {"to": 2, "p": 0.1}]},
        {"from": 1, "action": "stay", "outcomes": [{"to": 1, "p": 1.0}]},
    ],
    "atoms": ["p1"],
    "labels": {"1": ["p1"]},
    "failure_state": 2,
})
mission = Mission(tasks=(parse_formula("F p1"),))

for budget in (0, 1, None):
    jp, report = run_stapu_with_realloc([risky, risky], mission, max_realloc=budget)
    label = "unbounded" if budget is None else f"budget {budget}"
    print(
        f"{label:9}: guarantee {report.value:.4f}"
        f" (initial {report.initial_value:.4f},"
        f" unaddressed failure mass {report.unaddressed:.4f})"
    )

jp, report = run_stapu_with_realloc([risky, risky], mission)
print("\nreplanning log:")
for entry in report.log:
    print(
        f"  after {entry['reallocations']} reallocations:"
        f" guarantee {entry['guarantee']:.4f},"
        f" success {entry['success']:.4f} / failure {entry['failure']:.4f}"
        f" / unaddressed {entry['unaddressed']:.4f}"
    )

rep = simulate(jp, runs=200_000, seed=7)
print(f"\nsimulated success over {rep.runs} runs: {rep.frequency:.4f} (+-{rep.stderr:.4f})")
print(f"reallocation triggered in {rep.mean_triggers:.4f} of runs")
