"""Serialization: CSV ingestion with one-hot encoding, JSON persistence for
trees / mixtures / blackboxes, and Graphviz DOT export.

JSON round-trips are bit-exact for doubles because Python's json module
emits shortest round-tripping decimal representations.
"""

import csv
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from io import StringIO
from typing import Optional, Sequence

import numpy as np

from .blackbox import BoxBlackbox, RandomForest, TabularPolicy
from .core import BoxConstraint, Dataset, DecisionTree, leaf_row, split_row
from .errors import InputError, UnknownCategoryError
from .gmm import GaussianMixture

FORMAT_VERSION = 1

NUMERIC = "numeric"
CATEGORICAL = "categorical"
LABEL = "label"


@contextmanager
def _reading(kind: str):
    """A missing key or a wrong-typed entry in a kind document is an InputError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed {kind} document: {type(e).__name__}: {e}") from e


# ---------------------------------------------------------------------------
# CSV


@dataclass
class TableSchema:
    """Column roles for a CSV file, plus category maps filled at load time.

    columns maps each header name to one of numeric / categorical / label,
    in file order. Categorical columns are one-hot encoded into one binary
    feature per category, ordered by first appearance.
    """

    columns: list[tuple[str, str]]
    categories: dict = field(default_factory=dict)
    label_classes: Optional[list] = None

    def __post_init__(self):
        kinds = {k for _, k in self.columns}
        if not kinds <= {NUMERIC, CATEGORICAL, LABEL}:
            raise InputError(f"unknown column kind in {kinds}")
        if sum(1 for _, k in self.columns if k == LABEL) > 1:
            raise InputError("at most one label column allowed")

    @classmethod
    def from_json(cls, path) -> "TableSchema":
        doc = load_json(path)
        with _reading("table schema"):
            return cls([(c["name"], c["kind"]) for c in doc["columns"]])

    def feature_names(self) -> list[str]:
        names = []
        for name, kind in self.columns:
            if kind == NUMERIC:
                names.append(name)
            elif kind == CATEGORICAL:
                names.extend(f"{name}={c}" for c in self.categories.get(name, []))
        return names


def load_csv(path, schema: Optional[TableSchema] = None) -> tuple[Dataset, TableSchema]:
    """Read a headered CSV into a Dataset, one-hot encoding categoricals.

    Without a schema, every column is numeric and the last is the label.
    The returned schema carries the category orderings needed to encode
    further rows consistently.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # [] for an empty file or a blank first line
        if not header:
            raise InputError(f"{path}: empty first line, header required")
        rows = list(reader)
    if not rows:
        raise InputError(f"{path}: no data rows")
    if schema is None:
        schema = TableSchema([(name, NUMERIC) for name in header[:-1]] + [(header[-1], LABEL)])
    names = [name for name, _ in schema.columns]
    if names != list(header):
        raise InputError(f"{path}: header {header} does not match schema columns {names}")
    for r_idx, row in enumerate(rows, start=1):
        # Checked before the transpose below, which would truncate ragged rows.
        if len(row) != len(names):
            raise InputError(f"{path}: row {r_idx} has {len(row)} fields, expected {len(names)}")
    columns = list(zip(schema.columns, zip(*rows)))

    schema.categories = {}
    for (name, kind), values in columns:  # a repeated name shares one category list
        if kind == CATEGORICAL:
            schema.categories[name] = list(dict.fromkeys([*schema.categories.get(name, ()), *values]))
    labels, m = None, 0
    raw_labels = next((values for (_, kind), values in columns if kind == LABEL), None)
    if raw_labels is not None:
        try:
            labels = [int(v) for v in raw_labels]
            if min(labels) < 0:
                raise ValueError
            schema.label_classes = [str(i) for i in range(max(labels) + 1)]
        except ValueError:
            schema.label_classes = list(dict.fromkeys(raw_labels))
            labels = [schema.label_classes.index(v) for v in raw_labels]
        m = len(schema.label_classes)
    return Dataset(encode_features(schema, rows), labels, tuple(schema.feature_names()), m), schema


def encode_features(schema: TableSchema, rows) -> np.ndarray:
    """Encode raw CSV rows with a fitted schema, as load_csv returns it."""
    X = []
    for r_idx, row in enumerate(rows, start=1):
        if len(row) != len(schema.columns):
            raise InputError(f"row {r_idx} has {len(row)} fields")
        out: list = []
        for (name, kind), value in zip(schema.columns, row):
            if kind == NUMERIC:
                try:
                    out.append(float(value))
                except ValueError:
                    raise InputError(f"row {r_idx}: non-numeric value {value!r} in column {name!r}")
            elif kind == CATEGORICAL:
                cats = schema.categories[name]
                if value not in cats:
                    raise UnknownCategoryError(
                        f"row {r_idx}: unseen category {value!r} in column {name!r}")
                out.extend(1.0 if value == c else 0.0 for c in cats)
        X.append(out)
    return np.array(X)


def csv_text(header: Sequence[str], rows) -> str:
    """Header and rows as "\\n"-terminated CSV. csv writes a Python float in its
    shortest round-trip form and None as an empty field; callers format nothing."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def save_csv(path, dataset: Dataset) -> None:
    """Write a numeric dataset as headered CSV, any labels in a last "label" column."""
    header, columns = list(dataset.column_names), dataset.features.T.tolist()
    if dataset.labels is not None:
        header.append("label")
        columns.append(dataset.labels.tolist())
    write_text_atomic(path, csv_text(header, zip(*columns)))


# ---------------------------------------------------------------------------
# JSON persistence


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def tree_to_doc(tree: DecisionTree) -> dict:
    nodes = []
    for i in range(tree.size):
        if tree.feature[i] >= 0:
            nodes.append({"type": "internal", "dim": int(tree.feature[i]),
                          "threshold": float(tree.threshold[i]),
                          "left": int(tree.left[i]), "right": int(tree.right[i])})
        else:
            nodes.append({"type": "leaf", "label": int(tree.label[i]),
                          "class_histogram": [float(v) for v in tree.histogram[i]],
                          "mass": float(tree.mass[i]),
                          "cached_gain": float(tree.cached_gain[i])})
    doc = {"format_version": FORMAT_VERSION, "kind": "decision_tree",
           "d": tree.d, "m": tree.m, "root": 0, "nodes": nodes}
    if tree.budget is not None:
        doc["budget"] = tree.budget
    return doc


def tree_from_doc(doc: dict) -> DecisionTree:
    with _reading("decision_tree"):
        if doc.get("kind") != "decision_tree":
            raise InputError("not a decision tree document")
        if doc["root"] != 0:
            raise InputError("the root must be node 0")
        if any(nd["type"] == "internal" and nd["dim"] < 0 for nd in doc["nodes"]):
            raise InputError("split dim out of range")
        m = doc["m"]
        rows = [split_row(nd["dim"], nd["threshold"], nd["left"], nd["right"], m)
                if nd["type"] == "internal" else
                leaf_row(nd["label"], nd["class_histogram"], nd["mass"], nd["cached_gain"])
                for nd in doc["nodes"]]
        return DecisionTree.from_rows(rows, doc["d"], m, doc.get("budget"))


def gmm_to_doc(gmm: GaussianMixture) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": "gaussian_mixture",
            "weights": [float(v) for v in gmm.weights],
            "means": [[float(v) for v in row] for row in gmm.means],
            "stddevs": [[float(v) for v in row] for row in gmm.stddevs]}


def gmm_from_doc(doc: dict) -> GaussianMixture:
    with _reading("gaussian_mixture"):
        if doc.get("kind") != "gaussian_mixture":
            raise InputError("not a gaussian mixture document")
        if doc.get("x_max") is not None:  # refused, not read as an untruncated model
            raise InputError("x_max (a domain truncation of the mixture) is not supported")
        return GaussianMixture(np.array(doc["weights"]), np.array(doc["means"]),
                               np.array(doc["stddevs"]))


def _bound_to_json(v: float):
    return None if not np.isfinite(v) else float(v)


def _bound_from_json(v, sign: float) -> float:
    return sign * np.inf if v is None else float(v)


def blackbox_to_doc(model) -> dict:
    if isinstance(model, RandomForest):
        return {"format_version": FORMAT_VERSION, "kind": "random_forest",
                "d": model.d, "m": model.m,
                "trees": [tree_to_doc(t) for t in model.trees]}
    if isinstance(model, TabularPolicy):
        return {"format_version": FORMAT_VERSION, "kind": "tabular_policy",
                "grid_sizes": list(model.grid_sizes),
                "edges": [[float(v) for v in e] for e in model.edges],
                "actions": [int(a) for a in model.actions]}
    if isinstance(model, BoxBlackbox):
        return {"format_version": FORMAT_VERSION, "kind": "box_blackbox",
                "d": model.d, "m": model.m, "default_label": model.default_label,
                "labels": list(model.labels),
                "boxes": [{"lower": [_bound_to_json(v) for v in b.lower],
                           "upper": [_bound_to_json(v) for v in b.upper]}
                          for b in model.boxes]}
    raise InputError(f"cannot serialize blackbox of type {type(model).__name__}")


def blackbox_from_doc(doc: dict):
    kind = doc.get("kind")
    with _reading(kind):
        if kind == "random_forest":
            return RandomForest(tuple(tree_from_doc(t) for t in doc["trees"]),
                                doc["d"], doc["m"])
        if kind == "tabular_policy":
            return TabularPolicy(tuple(np.array(e) for e in doc["edges"]), doc["actions"],
                                 tuple(doc["grid_sizes"]), d=len(doc["grid_sizes"]))
        if kind == "box_blackbox":
            boxes = tuple(BoxConstraint([_bound_from_json(v, -1) for v in b["lower"]],
                                        [_bound_from_json(v, +1) for v in b["upper"]])
                          for b in doc["boxes"])
            return BoxBlackbox(boxes, tuple(doc["labels"]), doc["d"], doc["m"],
                               doc.get("default_label", 0))
        raise InputError(f"unknown blackbox kind {kind!r}")


def save_json(path, doc: dict) -> None:
    write_text_atomic(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:  # not JSON, or not UTF-8
            raise InputError(f"{path}: malformed JSON: {e}") from e
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def save_tree(path, tree: DecisionTree) -> None:
    save_json(path, tree_to_doc(tree))


def load_tree(path) -> DecisionTree:
    return tree_from_doc(load_json(path))


def save_gmm(path, gmm: GaussianMixture) -> None:
    save_json(path, gmm_to_doc(gmm))


def load_gmm(path) -> GaussianMixture:
    return gmm_from_doc(load_json(path))


# ---------------------------------------------------------------------------
# DOT


def export_dot(tree: DecisionTree, column_names: Optional[Sequence[str]] = None,
               class_names: Optional[Sequence[str]] = None) -> str:
    """Graphviz digraph: internal nodes as "name ≤ t", leaves as class names."""
    if column_names is None:
        column_names = [f"x{i}" for i in range(tree.d)]
    if len(column_names) != tree.d:
        raise InputError("column_names length does not match tree dimension")
    if class_names is None:
        class_names = [f"class_{i}" for i in range(tree.m)]
    if len(class_names) != tree.m:
        raise InputError("class_names length does not match the tree's class count")

    def quoted(text):  # a DOT string, its backslashes and quotes escaped
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph tree {"]
    edges = []
    for i in range(tree.size):
        if tree.feature[i] >= 0:
            label = quoted(f"{column_names[tree.feature[i]]} ≤ {tree.threshold[i]:g}")
            lines.append(f"  n{i} [shape=box, label={label}];")
            edges += [f"  n{i} -> n{tree.left[i]};", f"  n{i} -> n{tree.right[i]};"]
        else:
            lines.append(f"  n{i} [shape=ellipse, label={quoted(class_names[tree.label[i]])}];")
    return "\n".join(lines + edges + ["}"]) + "\n"
