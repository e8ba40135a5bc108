#!/usr/bin/env python
# CSV ingestion with categorical one-hot encoding, a random-forest blackbox,
# and tree extraction on tabular data.
import os
import tempfile

import numpy as np

from treextract import (EMConfig, ExtractionConfig, RandomForestConfig,
                        extract_tree, fit_em, train_random_forest)
from treextract.evaluate import fidelity
from treextract.io import TableSchema, load_csv

rng = np.random.default_rng(0)

# Build a small tabular file: one numeric column, one categorical column.
rows = ["age,group,label"]
for _ in range(400):
    age = rng.uniform(20, 80)
    group = rng.choice(["a", "b", "c"])
    risk = (age > 55 and group != "c") or (group == "b" and age > 40)
    rows.append(f"{age:.2f},{group},{int(risk)}")
path = os.path.join(tempfile.mkdtemp(), "patients.csv")
with open(path, "w", encoding="utf-8") as fh:
    fh.write("\n".join(rows) + "\n")

schema = TableSchema([("age", "numeric"), ("group", "categorical"),
                      ("label", "label")])
data, schema = load_csv(path, schema)
print("encoded columns:", data.column_names)

forest = train_random_forest(data, RandomForestConfig(n_trees=20, seed=0))
train_acc = np.mean(forest.predict(data.features) == data.labels)
print(f"forest train accuracy: {train_acc:.3f}")

# One-hot columns are just continuous dimensions to the input model.
gmm = fit_em(data.features, 3, EMConfig(seed=0))
tree = extract_tree(gmm, forest, ExtractionConfig(max_nodes=11,
                                                  samples_per_node=500,
                                                  seed=0))
report = fidelity(tree, forest, data.features)
print(f"11-node surrogate: fidelity accuracy {report.accuracy:.3f} "
      f"on the training rows")
splits = [data.column_names[dim] for dim in tree.feature[tree.feature >= 0]]
print("features used by the surrogate:", sorted(set(splits)))
