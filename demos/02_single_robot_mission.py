"""One robot, one risky map, one mission.

gen_map builds a grid world where a few nodes are failure points: every
move out of them loses the robot with probability pfail. Composing the
map with the mission automata gives a product model whose maximal
reachability probability is exactly the robot's best chance to finish.
"""

from teamplan.maps import MapSpec, gen_map, map_mission
from teamplan.mdp import max_reach
from teamplan.product import local_product

spec = MapSpec(nodes=12, failpoints=6, pfail=0.2, tasks=2, seed=2)
model = gen_map(spec)
mission = map_mission(spec)
print(f"map: {model.num_states} states (12 nodes + failure state)")
print("task atoms:", {s: sorted(l) for s, l in sorted(model.labels.items())})

pm = local_product(model, mission)
res = max_reach(pm.mdp, pm.accepting, pm.violating, epsilon=1e-9)
print(f"product: {pm.num_states} reachable of {pm.full_size()} possible states")
print(f"best completion probability: {res.values[0]:.4f}")

# walk the policy along its intended (non-failure) route, over the
# product's CSR arrays: state i's choices are row_start[i]..row_start[i + 1]
row_start, actions, out_start, targets, probs = pm.mdp.arrays
i = 0
route = [pm.states[i][0]]
seen = set()
while i in res.policy and i not in seen and i not in pm.accepting:
    seen.add(i)
    k = row_start[i] + actions[row_start[i]:row_start[i + 1]].tolist().index(res.policy[i])
    i = int(targets[out_start[k] + probs[out_start[k]:out_start[k + 1]].argmax()])
    route.append(pm.states[i][0])
print("planned route:", " -> ".join(str(s) for s in route))
