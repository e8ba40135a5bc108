#!/usr/bin/env python
# End-to-end cart-pole pipeline: learn a control policy by value iteration,
# model its visited states with a mixture, and distill the policy into a
# small decision tree.
from treextract import (EMConfig, ExtractionConfig, PolicyConfig,
                        collect_states, extract_tree, learn_policy,
                        mean_rollout_reward, select_k_bic)
from treextract.evaluate import fidelity
from treextract.io import export_dot

policy = learn_policy(PolicyConfig(seed=0))
print("mean rollout reward over 100 episodes:",
      mean_rollout_reward(policy, 100, seed=0))

train, test = collect_states(policy, 100, [1, 2])
print("collected 100 train / 100 test states from policy rollouts")

gmm = select_k_bic(train.features, cfg=EMConfig(seed=0, n_init=2))
print("input model: K =", gmm.k)

tree = extract_tree(gmm, policy, ExtractionConfig(max_nodes=15,
                                                  samples_per_node=200,
                                                  seed=0))
report = fidelity(tree, policy, test.features)
print(f"15-node tree: fidelity accuracy {report.accuracy:.3f}, "
      f"F1 {report.f1:.3f}, blackbox calls {tree.budget}")

print()
print(export_dot(tree, train.column_names, ["push left", "push right"]))
