import json
import pathlib
import re

import numpy as np
import pytest

from treextract import (BoxConstraint, DecisionTree, EMConfig,
                        ExtractionConfig, FunctionBlackbox, GaussianMixture,
                        InputError, UnknownCategoryError, export_dot,
                        extract_tree, fit_em)
from treextract.core import leaf_row, split_row
from treextract.io import (TableSchema, blackbox_from_doc, blackbox_to_doc,
                           encode_features, gmm_from_doc, gmm_to_doc, load_csv,
                           load_gmm, load_json, load_tree, save_csv, save_gmm, save_tree,
                           tree_from_doc, tree_to_doc, write_text_atomic)

from helpers import dataset, predict_one

REPO = pathlib.Path(__file__).resolve().parent.parent
# A mixture document with d = 0: loader and schema both refuse it.
ZERO_D_GMM_DOC = {"format_version": 1, "kind": "gaussian_mixture", "weights": [1.0],
                  "means": [[]], "stddevs": [[]]}


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("age,color,label\n31,red,0\n45,blue,1\n52,red,1\n29,green,0\n",
                    encoding="utf-8")
    return path


def categorical_schema():
    return TableSchema([("age", "numeric"), ("color", "categorical"),
                        ("label", "label")])


class TestCsv:
    def test_one_hot_first_appearance_order(self, csv_file):
        ds, schema = load_csv(csv_file, categorical_schema())
        assert ds.column_names == ("age", "color=red", "color=blue", "color=green")
        assert np.array_equal(ds.features[:, 1], [1, 0, 1, 0])
        assert np.array_equal(ds.features[:, 2], [0, 1, 0, 0])
        assert ds.m == 2 and np.array_equal(ds.labels, [0, 1, 1, 0])

    def test_default_schema_last_column_label(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("a,b,y\n1,2,0\n3,4,1\n", encoding="utf-8")
        ds, _ = load_csv(path)
        assert ds.d == 2 and ds.m == 2

    def test_encode_features_matches_load(self, csv_file):
        # The fitted schema encodes further rows as load_csv encoded its own.
        ds, schema = load_csv(csv_file, categorical_schema())
        rows = [line.split(",") for line in csv_file.read_text(encoding="utf-8").splitlines()[1:]]
        assert np.array_equal(encode_features(schema, rows), ds.features)
        assert np.array_equal(encode_features(schema, rows[::-1]), ds.features[::-1])

    def test_unknown_category_at_predict_time(self, csv_file):
        _, schema = load_csv(csv_file, categorical_schema())
        with pytest.raises(UnknownCategoryError):
            encode_features(schema, [["33", "purple", "0"]])

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1,0\n2\n", encoding="utf-8")
        with pytest.raises(InputError, match="row 2"):
            load_csv(path)

    def test_header_without_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,y\n", encoding="utf-8")
        with pytest.raises(InputError, match="no data rows"):
            load_csv(path)

    def test_ragged_row_rejected_by_encode(self, csv_file):
        _, schema = load_csv(csv_file, categorical_schema())
        with pytest.raises(InputError, match="row 1 has 2 fields"):
            encode_features(schema, [["33", "red"]])

    @pytest.mark.parametrize("columns, message", [
        ([("a", "numeric"), ("b", "ordinal")], "unknown column kind"),
        ([("a", "label"), ("b", "label")], "at most one label column allowed"),
    ], ids=["kind", "two-labels"])
    def test_bad_schema_rejected(self, columns, message):
        with pytest.raises(InputError, match=message):
            TableSchema(columns)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\nfoo,0\n", encoding="utf-8")
        with pytest.raises(InputError):
            load_csv(path)

    def test_header_schema_mismatch(self, csv_file):
        schema = TableSchema([("x", "numeric"), ("color", "categorical"),
                              ("label", "label")])
        with pytest.raises(InputError):
            load_csv(csv_file, schema)

    def test_save_load_round_trip(self, tmp_path, rng):
        ds = dataset(rng.normal(size=(20, 3)), rng.integers(2, size=20))
        path = tmp_path / "round.csv"
        save_csv(path, ds)
        back, _ = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_string_labels_mapped_in_order(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,y\n1,cat\n2,dog\n3,cat\n", encoding="utf-8")
        ds, schema = load_csv(path)
        assert schema.label_classes == ["cat", "dog"]
        assert np.array_equal(ds.labels, [0, 1, 0])

    def test_negative_integer_labels_mapped_in_order(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("a,y\n1,3\n2,-1\n3,3\n", encoding="utf-8")
        ds, schema = load_csv(path)
        assert schema.label_classes == ["3", "-1"]
        assert np.array_equal(ds.labels, [0, 1, 0])

    def test_label_column_need_not_be_last(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("y,a,b\n0,1.5,2\n1,0.5,3\n", encoding="utf-8")
        schema = TableSchema([("y", "label"), ("a", "numeric"), ("b", "numeric")])
        ds, _ = load_csv(path, schema)
        assert ds.column_names == ("a", "b")
        assert np.array_equal(ds.labels, [0, 1])
        assert np.array_equal(ds.features[:, 0], [1.5, 0.5])


def sample_tree():
    rows = (split_row(0, 0.125, 1, 2, m=2),
            leaf_row(0, [0.75, 0.25], mass=0.5, cached_gain=0.01),
            leaf_row(1, [0.1, 0.9], mass=0.5, cached_gain=0.0))
    return DecisionTree.from_rows(rows, d=2, m=2, budget=400)


def tree_doc(nodes, root=0):
    """A tree document over leaves given as ints and splits as
    (left, right) pairs, all on dimension 0 at threshold 0."""
    return {"kind": "decision_tree", "format_version": 1, "d": 1, "m": 1,
            "root": root, "nodes": [
                {"type": "leaf", "label": 0, "class_histogram": [1.0], "mass": 1.0,
                 "cached_gain": 0.0} if nd == 0 else
                {"type": "internal", "dim": 0, "threshold": 0.0,
                 "left": nd[0], "right": nd[1]} for nd in nodes]}


class TestTreeJson:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        gmm = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        f = FunctionBlackbox(lambda X: (X[:, 0] * 1.7 <= 0.3).astype(int), 2, 2)
        tree = extract_tree(gmm, f, ExtractionConfig(7, 300, seed=0))
        path = tmp_path / "tree.json"
        save_tree(path, tree)
        back = load_tree(path)
        X = rng.normal(size=(1000, 2)) * 3
        assert np.array_equal(tree.predict_batch(X), back.predict_batch(X))
        for name in ("feature", "threshold", "left", "right", "label", "histogram",
                     "mass", "cached_gain"):
            a, b = getattr(tree, name), getattr(back, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert back.budget == tree.budget
        save_tree(tmp_path / "tree2.json", back)
        assert (tmp_path / "tree.json").read_bytes() == (tmp_path / "tree2.json").read_bytes()

    def test_doc_schema_fields(self):
        doc = tree_to_doc(sample_tree())
        assert doc["format_version"] == 1 and doc["kind"] == "decision_tree"
        assert doc["nodes"][0]["type"] == "internal"

    def test_wrong_kind_rejected(self):
        with pytest.raises(InputError):
            tree_from_doc({"kind": "gaussian_mixture"})

    def test_well_formed_doc_loads(self):
        tree = tree_from_doc(tree_doc([(1, 2), 0, 0]))
        assert predict_one(tree, [-1.0]) == 0 and tree.size == 3

    @pytest.mark.parametrize("nodes, root, match", [
        ([(1, 2), 0, 0], 1, "root"),                           # root is not node 0
        ([0, (0, 2), 0], 1, "root"),
        ([(2, 3), 0, (4, 1), 0, 0], 0, "exceed"),              # child id below its parent's
        ([(1, 1), 0, 0], 0, "shared"),                         # one node, two parents
        ([(1, 2), (3, 4), 0, 0, 0, 0], 0, "unreachable"),      # node 5 has no parent
        ([(1, 2), 0, (3, 4), 0, 0, (1, 3)], 0, "shared|unreachable"),
    ])
    def test_arena_invariants(self, nodes, root, match):
        with pytest.raises(InputError, match=match):
            tree_from_doc(tree_doc(nodes, root))

    @pytest.mark.parametrize("node, key, value, match", [
        (0, "dim", 1, "split dim out of range"),
        (1, "cached_gain", -0.5, "cached_gain must be nonnegative"),
    ], ids=["dim-at-d", "negative-gain"])
    def test_node_values_checked(self, node, key, value, match):
        doc = tree_doc([(1, 2), 0, 0])
        doc["nodes"][node][key] = value
        with pytest.raises(InputError, match=match):
            tree_from_doc(doc)

    def test_negative_split_dim_rejected(self):
        # An internal node with dim -1 and no children would read as a leaf.
        doc = tree_doc([0])
        doc["nodes"][0] = {"type": "internal", "dim": -1, "threshold": 0.0,
                           "left": -1, "right": -1}
        with pytest.raises(InputError, match="dim"):
            tree_from_doc(doc)


class TestAtomicWrite:
    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "out").mkdir()  # a directory cannot be replaced by a file
        with pytest.raises(OSError):
            write_text_atomic(tmp_path / "out", "text")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list((tmp_path / "out").iterdir()) == []


class TestLoadJson:
    @pytest.mark.parametrize("raw", [b'{"kind": ', b"\xff\xfe{}", b"[1, 2]"],
                             ids=["truncated", "not-utf8", "not-an-object"])
    def test_malformed_document_is_input_error(self, tmp_path, raw):
        (tmp_path / "doc.json").write_bytes(raw)
        with pytest.raises(InputError, match="doc.json"):
            load_json(tmp_path / "doc.json")


class TestGmmJson:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        gmm = fit_em(rng.normal(size=(200, 3)), 3, EMConfig(seed=1))
        path = tmp_path / "g.json"
        save_gmm(path, gmm)
        back = load_gmm(path)
        assert np.array_equal(back.weights, gmm.weights)
        assert np.array_equal(back.means, gmm.means)
        assert np.array_equal(back.stddevs, gmm.stddevs)

    def test_doc_fields(self, gmm_2d):
        doc = gmm_to_doc(gmm_2d)
        assert doc["kind"] == "gaussian_mixture" and doc["format_version"] == 1
        assert "x_max" not in doc
        for loaded in (doc, dict(doc, x_max=None)):  # a null x_max loads as no key
            assert np.array_equal(gmm_from_doc(loaded).means, gmm_2d.means)
        with pytest.raises(InputError, match="x_max"):
            gmm_from_doc(dict(doc, x_max=4.5))

    def test_wrong_kind_rejected(self):
        with pytest.raises(InputError, match="not a gaussian mixture document"):
            gmm_from_doc({"kind": "decision_tree"})

    def test_zero_dimension_doc_rejected(self):
        with pytest.raises(InputError, match=r"d >= 1"):
            gmm_from_doc(ZERO_D_GMM_DOC)


class TestBlackboxJson:
    def test_box_blackbox_with_infinite_bounds(self, rng):
        from treextract import BoxBlackbox
        bb = BoxBlackbox(
            [BoxConstraint([-np.inf, 0.0], [1.0, np.inf])], [1], d=2, m=2)
        doc = blackbox_to_doc(bb)
        assert doc["boxes"][0]["lower"] == [None, 0.0]
        back = blackbox_from_doc(json.loads(json.dumps(doc)))
        X = rng.normal(size=(200, 2)) * 2
        assert np.array_equal(bb.predict(X), back.predict(X))

    def test_function_blackbox_not_serializable(self):
        f = FunctionBlackbox(lambda X: np.zeros(len(X), dtype=int), 2, 2)
        with pytest.raises(InputError, match="cannot serialize blackbox of type FunctionBlackbox"):
            blackbox_to_doc(f)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError, match="unknown blackbox kind 'mystery'"):
            blackbox_from_doc({"kind": "mystery"})

    def test_policy_round_trip(self, cartpole, rng):
        policy = cartpole
        back = blackbox_from_doc(json.loads(json.dumps(blackbox_to_doc(policy))))
        X = rng.uniform(-1, 1, size=(500, 4))
        assert np.array_equal(policy.predict(X), back.predict(X))


class TestDocumentSchemas:
    """The persistence formats are pinned by JSON Schema files in the repo."""

    jsonschema = pytest.importorskip("jsonschema")

    def test_tree_doc_validates(self):
        schema = json.loads((REPO / "tree.schema.json").read_text())
        self.jsonschema.validate(tree_to_doc(sample_tree()), schema)

    def test_gmm_doc_validates(self, gmm_2d):
        schema = json.loads((REPO / "gmm.schema.json").read_text())
        self.jsonschema.validate(gmm_to_doc(gmm_2d), schema)

    def test_gmm_schema_rejects_zero_dimensions(self):
        schema = json.loads((REPO / "gmm.schema.json").read_text())
        with pytest.raises(self.jsonschema.ValidationError):
            self.jsonschema.validate(ZERO_D_GMM_DOC, schema)

    def test_gmm_schema_rejects_x_max(self, gmm_2d):
        schema = json.loads((REPO / "gmm.schema.json").read_text())
        with pytest.raises(self.jsonschema.ValidationError, match="x_max"):
            self.jsonschema.validate(dict(gmm_to_doc(gmm_2d), x_max=4.5), schema)


class TestDot:
    def test_statement_counts(self):
        dot = export_dot(sample_tree(), ["age", "bmi"], ["low", "high"])
        node_stmts = re.findall(r"^\s*n\d+ \[.*\];$", dot, flags=re.M)
        edge_stmts = re.findall(r"^\s*n\d+ -> n\d+;$", dot, flags=re.M)
        assert len(node_stmts) == 3 and len(edge_stmts) == 2

    def test_labels_render_names(self):
        dot = export_dot(sample_tree(), ["age", "bmi"], ["low", "high"])
        assert 'label="age ≤ 0.125"' in dot
        assert 'label="low"' in dot and 'label="high"' in dot

    def test_column_count_checked(self):
        with pytest.raises(InputError):
            export_dot(sample_tree(), ["only_one"])

    def test_class_count_checked(self):
        with pytest.raises(InputError, match="class_names"):
            export_dot(sample_tree(), ["age", "bmi"], ["only_one"])

    def test_quotes_and_backslashes_escaped(self):
        dot = export_dot(sample_tree(), ['a"b', "bmi"], ["c\\d", 'say "hi"'])
        assert 'label="a\\"b ≤ 0.125"' in dot
        assert 'label="c\\\\d"' in dot and 'label="say \\"hi\\""' in dot
        # Every label is one DOT string: no bare quote ends it early.
        labels = re.findall(r'label=("(?:[^"\\]|\\.)*")\];$', dot, flags=re.M)
        assert len(labels) == 3
