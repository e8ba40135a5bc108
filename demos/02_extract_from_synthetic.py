#!/usr/bin/env python
# Extracting a tree from a synthetic blackbox and comparing it with the
# exact greedy tree computed in closed form.
import numpy as np

from treextract import ExtractionConfig, agreement, exact_greedy_oracle, extract_tree
from treextract.evaluate import three_box_benchmark
from treextract.io import export_dot

gmm, blackbox = three_box_benchmark()

# The label function is piecewise constant on three disjoint boxes, so the
# population Gini gain of every candidate split has closed form and the
# exact greedy tree can be built without any sampling.
oracle = exact_greedy_oracle(gmm, blackbox, k=7)
print("exact greedy tree (7 nodes):")
print(export_dot(oracle.tree, ["x0", "x1"], ["background", "inside"]))
print("exact root gain:", round(oracle.gains[0], 4))

# The sampling extractor approaches the exact tree as the per-node sample
# count grows. Agreement is the exact mixture mass on which the two trees
# agree; rate is the share of 10^5 draws that would agree.
for n in (100, 1000, 10000):
    tree = extract_tree(gmm, blackbox, ExtractionConfig(max_nodes=7,
                                                        samples_per_node=n,
                                                        seed=0))
    a = agreement(tree, oracle.tree, gmm, n=10 ** 5,
                  rng=np.random.default_rng(1))
    print(f"n={n:>6}: agreement with exact tree {a.exact:.4f} "
          f"(over 10^5 draws {a.rate:.4f}, se {a.se:.4f})")
