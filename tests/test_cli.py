import json

import numpy as np
import pytest

from treextract import cli
from treextract.cli import build_parser, main
from treextract.io import (blackbox_to_doc, load_csv, load_gmm, load_json, load_tree,
                           save_csv, save_gmm, save_json, save_tree, tree_to_doc)
from treextract import (BoxBlackbox, BoxConstraint, DecisionTree, EMConfig, GaussianMixture,
                        fidelity, sample, select_k_bic)
from treextract.core import leaf_row, split_row

from helpers import dataset, leaf_tree


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def synthetic_spec(workdir, rng):
    bb = BoxBlackbox(
        [BoxConstraint([-np.inf, -np.inf], [0.0, np.inf])], [1], d=2, m=2)
    save_json(workdir / "bb.json", blackbox_to_doc(bb))
    X = rng.normal(size=(200, 2))
    save_csv(workdir / "train.csv", dataset(X, bb.predict(X)))
    return bb


class TestParsing:
    def test_every_subcommand_has_help(self, capsys):
        parser = build_parser()
        subs = ["fit-gmm", "train-rf", "train-cartpole", "extract", "baseline",
                "evaluate", "export", "experiment"]
        for name in subs:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, "--help"])
            assert exc.value.code == 0
            assert "--help" not in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run(["export", "--tree", "x.json", "--bogus"], capsys)
        assert code == 1 and "usage" in err

    def test_missing_required_flag_exits_1(self, capsys):
        code, _, err = run(["extract", "--max-nodes", "3"], capsys)
        assert code == 1

    def test_missing_file_exits_1(self, capsys):
        code, _, _ = run(["export", "--tree", "/nonexistent/tree.json"], capsys)
        assert code == 1

    def test_internal_error_exits_2(self, workdir, capsys, monkeypatch):
        (workdir / "tree.json").write_text(
            '{"kind": "decision_tree", "d": 1, "m": 1, "root": 0, '
            '"nodes": [{"type": "leaf", "label": 0, "class_histogram": [1.0], '
            '"mass": 1.0, "cached_gain": 0.0}]}', encoding="utf-8")
        import treextract.cli as cli_mod
        monkeypatch.setitem(cli_mod._COMMANDS, "export",
                            lambda args: (_ for _ in ()).throw(RuntimeError("boom")))
        code, _, err = run(["export", "--tree", "tree.json"], capsys)
        assert code == 2 and "internal error" in err


class TestPipeline:
    def test_fit_extract_evaluate_export(self, workdir, synthetic_spec, capsys):
        code, out, err = run(["fit-gmm", "--data", "train.csv", "--k", "2",
                              "--seed", "0", "--out", "gmm.json"], capsys)
        assert code == 0 and "fitted mixture" in out
        assert json.loads(err.splitlines()[0])["command"] == "fit-gmm"

        code, out, _ = run(["extract", "--gmm", "gmm.json",
                            "--blackbox", "synthetic:bb.json",
                            "--max-nodes", "5", "--samples-per-node", "300",
                            "--seed", "1", "--out", "tree.json"], capsys)
        assert code == 0
        tree = load_tree(workdir / "tree.json")
        assert tree.size <= 5

        code, out, _ = run(["evaluate", "--tree", "tree.json",
                            "--blackbox", "synthetic:bb.json",
                            "--data", "train.csv"], capsys)
        assert code == 0
        report = json.loads(out.splitlines()[-1])
        assert report["accuracy"] >= 0.95

        code, out, _ = run(["export", "--tree", "tree.json", "--format", "dot"],
                           capsys)
        assert code == 0 and out.startswith("digraph")

    def test_train_rf_and_cart_baseline(self, workdir, synthetic_spec, capsys):
        code, out, _ = run(["train-rf", "--data", "train.csv", "--n-trees", "5",
                            "--seed", "0", "--out", "rf.json"], capsys)
        assert code == 0 and "forest" in out
        code, out, _ = run(["baseline", "--kind", "cart",
                            "--blackbox", "rf:rf.json", "--data", "train.csv",
                            "--max-nodes", "7", "--out", "cart.json"], capsys)
        assert code == 0
        assert load_tree(workdir / "cart.json").size <= 7

    def test_born_again_baseline(self, workdir, synthetic_spec, capsys):
        run(["fit-gmm", "--data", "train.csv", "--k", "1", "--seed", "0",
             "--out", "gmm.json"], capsys)
        code, out, _ = run(["baseline", "--kind", "born-again",
                            "--blackbox", "synthetic:bb.json", "--gmm", "gmm.json",
                            "--max-nodes", "5", "--samples-per-node", "100",
                            "--budget", "1000", "--seed", "0",
                            "--out", "ba.json"], capsys)
        assert code == 0
        assert load_tree(workdir / "ba.json").budget <= 1000

    def test_blackbox_kind_mismatch(self, workdir, synthetic_spec, capsys):
        save_tree(workdir / "tree.json", leaf_tree(0, d=2, m=2))
        code, out, err = run(["evaluate", "--tree", "tree.json", "--blackbox", "rf:bb.json",
                              "--data", "train.csv"], capsys)
        assert code == 1 and out == ""
        assert "bb.json holds 'box_blackbox', expected 'random_forest'" in err

    def test_positive_class_out_of_range_exits_1(self, workdir, synthetic_spec, capsys):
        save_tree(workdir / "tree.json", leaf_tree(0, d=2, m=2))
        code, out, err = run(["evaluate", "--tree", "tree.json",
                              "--blackbox", "synthetic:bb.json", "--data", "train.csv",
                              "--positive-class", "2"], capsys)
        assert code == 1 and out == ""
        assert "error: positive_class must be 0 or 1" in err

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--tree", "bad.json", "--blackbox", "synthetic:bb.json",
         "--data", "train.csv"],
        ["evaluate", "--tree", "tree.json", "--blackbox", "synthetic:bad.json",
         "--data", "train.csv"],
        ["extract", "--gmm", "bad.json", "--blackbox", "synthetic:bb.json",
         "--max-nodes", "3", "--samples-per-node", "50", "--out", "t.json"],
    ], ids=["tree", "blackbox", "gmm"])
    def test_malformed_json_exits_1(self, workdir, synthetic_spec, capsys, argv):
        save_tree(workdir / "tree.json", leaf_tree(0, d=2, m=2))
        (workdir / "bad.json").write_text('{"kind": ', encoding="utf-8")
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "error: bad.json: malformed JSON" in err

    @pytest.mark.parametrize("argv,name,doc,kind", [
        (["export", "--tree", "bad.json"], "bad.json",
         {"kind": "decision_tree"}, "decision_tree"),
        (["extract", "--gmm", "bad.json", "--blackbox", "synthetic:bb.json",
          "--max-nodes", "3", "--samples-per-node", "50", "--out", "t.json"], "bad.json",
         {"kind": "gaussian_mixture", "weights": [1.0], "stddevs": [[1.0, 1.0]]},
         "gaussian_mixture"),
        (["evaluate", "--tree", "tree.json", "--blackbox", "rf:bad.json",
          "--data", "train.csv"], "bad.json",
         {"kind": "random_forest", "d": 2, "m": 2}, "random_forest"),
        (["fit-gmm", "--data", "train.csv", "--schema", "bad.json", "--out", "g.json"],
         "bad.json", {"columns": [{"name": "x0"}, {"name": "x1", "kind": "numeric"},
                                  {"name": "label", "kind": "label"}]}, "table schema"),
    ], ids=["tree", "gmm", "forest", "schema"])
    def test_document_missing_key_exits_1(self, workdir, synthetic_spec, capsys,
                                          argv, name, doc, kind):
        save_tree(workdir / "tree.json", leaf_tree(0, d=2, m=2))
        save_json(workdir / name, doc)
        code, _, err = run(argv, capsys)
        assert code == 1
        assert f"error: malformed {kind} document: KeyError" in err

    @pytest.mark.parametrize("node, key, value, message", [
        (0, "dim", 2, "split dim out of range"),
        (1, "cached_gain", -0.5, "cached_gain must be nonnegative"),
    ], ids=["dim-at-d", "negative-gain"])
    def test_invalid_tree_document_exits_1(self, workdir, synthetic_spec, capsys,
                                           node, key, value, message):
        rows = (split_row(0, 0.0, 1, 2, m=2), leaf_row(1, [0.0, 1.0], mass=0.5),
                leaf_row(0, [1.0, 0.0], mass=0.5))
        doc = tree_to_doc(DecisionTree.from_rows(rows, d=2, m=2))
        doc["nodes"][node][key] = value
        save_json(workdir / "tree.json", doc)
        code, out, err = run(["evaluate", "--tree", "tree.json", "--blackbox", "synthetic:bb.json",
                              "--data", "train.csv"], capsys)
        assert code == 1 and out == "" and message in err

    def test_nonfinite_gmm_mean_exits_1(self, workdir, synthetic_spec, capsys):
        (workdir / "nan.json").write_text(
            '{"kind": "gaussian_mixture", "weights": [1.0], "means": [[NaN, 0.0]], '
            '"stddevs": [[1.0, 1.0]]}', encoding="utf-8")
        code, _, err = run(["extract", "--gmm", "nan.json", "--blackbox", "synthetic:bb.json",
                            "--max-nodes", "3", "--samples-per-node", "50",
                            "--out", "t.json"], capsys)
        assert code == 1 and "means must be finite" in err
        assert not (workdir / "t.json").exists()

    def test_zero_evaluation_episodes_exits_1(self, workdir, capsys, monkeypatch):
        """The episode count is checked before the policy is learned."""
        def no_learning(*args, **kwargs):
            raise AssertionError("train-cartpole learned a policy before checking --episodes")

        monkeypatch.setattr(cli, "learn_policy", no_learning)
        code, _, err = run(["train-cartpole", "--grid", "9,9,9,9", "--episodes", "0",
                            "--out", "policy.json"], capsys)
        assert code == 1 and "n_episodes must be >= 1" in err
        assert not (workdir / "policy.json").exists()

    def test_blank_first_line_exits_1(self, workdir, capsys):
        (workdir / "blank.csv").write_text("\n1,0\n2,1\n", encoding="utf-8")
        code, _, err = run(["fit-gmm", "--data", "blank.csv", "--out", "gmm.json"], capsys)
        assert code == 1 and "internal error" not in err
        assert "blank.csv: empty first line, header required" in err
        assert not (workdir / "gmm.json").exists()

    def test_config_error_exits_1(self, workdir, synthetic_spec, capsys):
        # fit_em raises ConfigError for k above the 200 rows; that is bad
        # input, not a crash.
        code, _, err = run(["fit-gmm", "--data", "train.csv", "--k", "500",
                            "--out", "gmm.json"], capsys)
        assert code == 1 and "internal error" not in err and "error:" in err
        assert not (workdir / "gmm.json").exists()

    @pytest.mark.parametrize("k", ["2.5", "abc", "0", "-1"])
    def test_bad_k_exits_1_before_reading_data(self, workdir, capsys, k):
        # No CSV exists, so only a parse of --k can give this error.
        code, _, err = run(["fit-gmm", "--data", "missing.csv", "--k", k,
                            "--out", "gmm.json"], capsys)
        assert code == 1 and "internal error" not in err
        assert f"argument --k: expected 'auto' or an integer >= 1, got {k!r}" in err
        assert not (workdir / "gmm.json").exists()

    @pytest.mark.parametrize("flag,message", [
        (["--n-init", "0"], "n_init must be >= 1"),
        (["--x-max", "4.5"], "unrecognized arguments: --x-max 4.5"),
    ], ids=["n-init-0", "x-max-unknown"])
    def test_bad_fit_settings_exit_1(self, workdir, synthetic_spec, capsys, monkeypatch,
                                     flag, message):
        """Each bad setting is rejected before any EM fit starts."""
        def no_fit(*args, **kwargs):
            raise AssertionError("fit-gmm started a fit before checking its settings")

        monkeypatch.setattr(cli, "fit_em", no_fit)
        monkeypatch.setattr(cli, "select_k_bic", no_fit)
        for k in ("1", "auto"):
            code, _, err = run(["fit-gmm", "--data", "train.csv", "--k", k, *flag,
                                "--out", "gmm.json"], capsys)
            assert code == 1 and "internal error" not in err and message in err
        assert not (workdir / "gmm.json").exists()

    def test_x_max_document_exits_1(self, workdir, synthetic_spec, capsys):
        """A truncated mixture is refused, not explained as an untruncated one."""
        (workdir / "cut.json").write_text(
            '{"kind": "gaussian_mixture", "weights": [1.0], "means": [[0.0, 0.0]], '
            '"stddevs": [[1.0, 1.0]], "x_max": 4.5}', encoding="utf-8")
        code, _, err = run(["extract", "--gmm", "cut.json", "--blackbox", "synthetic:bb.json",
                            "--max-nodes", "3", "--samples-per-node", "50",
                            "--out", "t.json"], capsys)
        assert code == 1 and "internal error" not in err and "x_max" in err
        assert not (workdir / "t.json").exists()

    def test_born_again_dimension_mismatch_exits_1(self, workdir, synthetic_spec, capsys):
        save_gmm(workdir / "gmm3.json", GaussianMixture([1.0], [[0.0] * 3], [[1.0] * 3]))
        code, _, err = run(["baseline", "--kind", "born-again", "--blackbox", "synthetic:bb.json",
                            "--gmm", "gmm3.json", "--max-nodes", "3", "--samples-per-node", "50",
                            "--budget", "1000", "--out", "ba.json"], capsys)
        assert code == 1 and "model dimension 3 does not match blackbox d=2" in err
        assert not (workdir / "ba.json").exists()

    @pytest.mark.parametrize("flag", [["--n-trees", "0"], ["--max-depth", "-1"]])
    def test_bad_forest_settings_exit_1(self, workdir, synthetic_spec, capsys, flag):
        code, _, err = run(["train-rf", "--data", "train.csv", *flag, "--out", "rf.json"],
                           capsys)
        assert code == 1 and "internal error" not in err
        assert "n_trees >= 1 and max_depth >= 0" in err
        assert not (workdir / "rf.json").exists()


class TestCommandPaths:
    def test_fit_gmm_auto_k_is_bic_selection(self, workdir, synthetic_spec, capsys):
        code, out, _ = run(["fit-gmm", "--data", "train.csv", "--k", "auto", "--n-init", "1",
                            "--seed", "3", "--out", "gmm.json"], capsys)
        assert code == 0
        features = load_csv(workdir / "train.csv")[0].features
        expected = select_k_bic(features, EMConfig(seed=3, n_init=1))
        got = load_gmm(workdir / "gmm.json")
        assert f"K={expected.k} " in out and got.k == expected.k
        assert np.array_equal(got.means, expected.means)

    def test_evaluate_sample_from(self, workdir, synthetic_spec, capsys):
        gmm = GaussianMixture([1.0], [[0.5, 0.0]], [[1.0, 2.0]])
        save_gmm(workdir / "gmm.json", gmm)
        save_tree(workdir / "tree.json", leaf_tree(1, d=2, m=2))
        code, out, _ = run(["evaluate", "--tree", "tree.json", "--blackbox", "synthetic:bb.json",
                            "--sample-from", "gmm.json", "--n", "500", "--seed", "3"], capsys)
        assert code == 0
        report = json.loads(out.splitlines()[-1])
        points = sample(gmm, np.random.default_rng(3), 500)
        assert report["n_test"] == 500
        assert report["accuracy"] == fidelity(leaf_tree(1, d=2, m=2), synthetic_spec, points).accuracy

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_evaluate_sample_count_below_one_exits_1(self, workdir, synthetic_spec, capsys, n):
        save_gmm(workdir / "gmm.json", GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]]))
        save_tree(workdir / "tree.json", leaf_tree(1, d=2, m=2))
        code, out, err = run(["evaluate", "--tree", "tree.json", "--blackbox", "synthetic:bb.json",
                              "--sample-from", "gmm.json", "--n", n], capsys)
        assert code == 1 and out == "" and "--n must be >= 1" in err

    @pytest.mark.parametrize("source", ["data", "sample-from"])
    def test_evaluate_points_of_another_width_exit_1(self, workdir, synthetic_spec, capsys,
                                                     source):
        """A 3-wide file or mixture against a d = 2 tree used to exit 2, the
        blackbox's refusal reported as an internal error."""
        rng = np.random.default_rng(0)
        save_csv(workdir / "wide.csv", dataset(rng.normal(size=(20, 3)), np.zeros(20, int), 2))
        save_gmm(workdir / "gmm.json", GaussianMixture([1.0], [[0.0] * 3], [[1.0] * 3]))
        save_tree(workdir / "tree.json", leaf_tree(0, d=2, m=2))
        points = ["--data", "wide.csv"] if source == "data" else ["--sample-from", "gmm.json"]
        code, out, err = run(["evaluate", "--tree", "tree.json",
                              "--blackbox", "synthetic:bb.json", *points], capsys)
        assert code == 1 and out == "" and "expected points of dimension 2" in err

    def test_evaluate_needs_test_points(self, workdir, synthetic_spec, capsys):
        save_tree(workdir / "tree.json", leaf_tree(0, d=2, m=2))
        code, out, err = run(["evaluate", "--tree", "tree.json",
                              "--blackbox", "synthetic:bb.json"], capsys)
        assert code == 1 and out == ""
        assert "evaluate requires --data or --sample-from" in err

    @pytest.mark.parametrize("spec,message", [
        ("bb.json", "blackbox spec must look like"),
        ("forest:bb.json", "unknown blackbox kind 'forest'"),
        ("cartpole:bb.json", "holds 'box_blackbox', expected 'tabular_policy'"),
    ], ids=["no-colon", "unknown-prefix", "wrong-kind"])
    def test_bad_blackbox_spec_exits_1(self, workdir, synthetic_spec, capsys, spec, message):
        save_tree(workdir / "tree.json", leaf_tree(0, d=2, m=2))
        code, _, err = run(["evaluate", "--tree", "tree.json", "--blackbox", spec,
                            "--data", "train.csv"], capsys)
        assert code == 1 and message in err

    @pytest.mark.parametrize("kind,flags,message", [
        ("cart", [], "cart baseline requires --data"),
        ("born-again", ["--budget", "1000", "--samples-per-node", "100"], "born-again requires"),
        ("born-again", ["--gmm", "gmm.json", "--samples-per-node", "100"], "born-again requires"),
        ("born-again", ["--gmm", "gmm.json", "--budget", "1000"], "born-again requires"),
        ("born-again", ["--gmm", "gmm.json", "--budget", "0", "--samples-per-node", "100"],
         "total_sample_budget must be >= 1"),
    ], ids=["cart-data", "born-again-gmm", "born-again-budget", "born-again-samples",
            "born-again-zero-budget"])
    def test_baseline_missing_inputs_exit_1(self, workdir, synthetic_spec, capsys,
                                            kind, flags, message):
        """Each missing input is named; a zero --budget is given, so the config's
        own check names it."""
        save_gmm(workdir / "gmm.json", GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]]))
        code, _, err = run(["baseline", "--kind", kind, "--blackbox", "synthetic:bb.json",
                            "--max-nodes", "3", *flags, "--out", "b.json"], capsys)
        assert code == 1 and message in err
        assert not (workdir / "b.json").exists()


class TestBlackboxDocumentSizes:
    """Documents whose stated sizes contradict their contents exit 1; they
    used to crash (exit 2) or to report an accuracy from mis-indexed cells."""

    def _evaluate(self, workdir, capsys, spec, d):
        save_gmm(workdir / "gmm.json", GaussianMixture([1.0], [[0.0] * d], [[1.0] * d]))
        save_tree(workdir / "tree.json", leaf_tree(0, d=d, m=2))
        return run(["evaluate", "--tree", "tree.json", "--blackbox", spec,
                    "--sample-from", "gmm.json", "--n", "200"], capsys)

    def test_forest_tree_dimension_mismatch(self, workdir, capsys):
        rows = (split_row(3, 0.0, 1, 2, 2), leaf_row(0, [1.0, 0.0]), leaf_row(1, [0.0, 1.0]))
        tree = DecisionTree.from_rows(rows, 4, 2)
        save_json(workdir / "rf.json", {"format_version": 1, "kind": "random_forest",
                                        "d": 2, "m": 2, "trees": [tree_to_doc(tree)]})
        code, out, err = self._evaluate(workdir, capsys, "rf:rf.json", 2)
        assert code == 1 and out == "" and "every tree of a forest must have d=2" in err

    def test_policy_grid_sizes_contradict_edges(self, workdir, capsys):
        save_json(workdir / "policy.json", {
            "format_version": 1, "kind": "tabular_policy", "grid_sizes": [3, 3, 3, 3],
            "edges": [[0.0]] * 4, "actions": [0] * 81})
        code, out, err = self._evaluate(workdir, capsys, "cartpole:policy.json", 4)
        assert code == 1 and out == "" and "grid_sizes[i] - 1 edges" in err

    def test_tree_and_blackbox_classes_differ(self, workdir, capsys):
        """A 2-class tree against a 3-class blackbox used to exit 2 from a
        numpy reshape of the confusion counts."""
        bb = BoxBlackbox([BoxConstraint([-np.inf, -np.inf], [0.0, np.inf])], [2], d=2, m=3)
        save_json(workdir / "bb3.json", blackbox_to_doc(bb))
        code, out, err = self._evaluate(workdir, capsys, "synthetic:bb3.json", 2)
        assert code == 1 and out == "" and "blackbox (d=2, m=3) differ" in err


class TestCartpoleSettings:
    FAST = ["--transition-samples", "2", "--episodes", "1", "--out", "policy.json"]

    @pytest.mark.parametrize("grid, message", [
        ("7,x,7,7", "argument --grid"),
        ("7,7,7", "four grid sizes"),
        ("7,7,7,0", "four grid sizes"),
    ])
    def test_bad_grid_exits_1(self, workdir, capsys, grid, message):
        code, _, err = run(["train-cartpole", "--grid", grid, *self.FAST], capsys)
        assert code == 1 and "internal error" not in err and message in err
        assert not (workdir / "policy.json").exists()

    @pytest.mark.parametrize("flag", [["--transition-samples", "0"], ["--discount", "1.0"],
                                      ["--discount", "-0.1"]])
    def test_bad_policy_setting_exits_1(self, workdir, capsys, flag):
        code, _, err = run(["train-cartpole", "--grid", "3,3,3,3", *self.FAST, *flag], capsys)
        assert code == 1 and "internal error" not in err
        assert not (workdir / "policy.json").exists()

    @pytest.mark.parametrize("flags", [["--collect", "20"],
                                       ["--train-csv", "train.csv"],
                                       ["--collect", "0", "--test-csv", "test.csv"],
                                       ["--collect", "-5"]])
    def test_collect_without_csv_or_csv_without_collect_exits_1(self, workdir, capsys, flags):
        code, _, err = run(["train-cartpole", "--grid", "3,3,3,3", *self.FAST, *flags], capsys)
        assert code == 1 and "--collect N >= 1" in err
        assert not any(workdir.iterdir())

    def test_collect_writes_each_named_split(self, workdir, capsys):
        from treextract import collect_states
        from treextract.io import blackbox_from_doc, load_csv, load_json
        code, _, _ = run(["train-cartpole", "--grid", "3,3,3,3", *self.FAST, "--seed", "3",
                          "--collect", "20", "--test-csv", "test.csv"], capsys)
        assert code == 0 and not (workdir / "train.csv").exists()
        policy = blackbox_from_doc(load_json(workdir / "policy.json"))
        want, = collect_states(policy, 20, [2 * 3 + 2])
        got, _ = load_csv(workdir / "test.csv")
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)


class TestExportFlags:
    def test_seed_rejected(self, workdir, capsys):
        save_tree(workdir / "tree.json", leaf_tree(1, 2, 2))
        code, _, err = run(["export", "--tree", "tree.json", "--seed", "3"], capsys)
        assert code == 1 and "--seed" in err

    def test_too_few_class_names_rejected(self, workdir, capsys):
        save_tree(workdir / "tree.json", leaf_tree(1, 2, 2))
        code, _, err = run(["export", "--tree", "tree.json", "--format", "dot",
                            "--classes", "only_one"], capsys)
        assert code == 1 and "class_names" in err

    def test_config_accepted(self, workdir, capsys):
        save_tree(workdir / "tree.json", leaf_tree(1, 2, 2))
        (workdir / "cfg.txt").write_text("format=json\n", encoding="utf-8")
        code, out, _ = run(["export", "--tree", "tree.json", "--config", "cfg.txt"], capsys)
        assert code == 0 and json.loads(out)["kind"] == "decision_tree"


class TestDeterminism:
    def test_identical_seeds_byte_identical_outputs(self, workdir, synthetic_spec, capsys):
        run(["fit-gmm", "--data", "train.csv", "--k", "2", "--seed", "0",
             "--out", "gmm.json"], capsys)
        for out in ("t1.json", "t2.json"):
            run(["extract", "--gmm", "gmm.json", "--blackbox", "synthetic:bb.json",
                 "--max-nodes", "5", "--samples-per-node", "200", "--seed", "9",
                 "--out", out], capsys)
        assert (workdir / "t1.json").read_bytes() == (workdir / "t2.json").read_bytes()

    def test_env_seed_honored_when_flag_absent(self, workdir, synthetic_spec,
                                               capsys, monkeypatch):
        run(["fit-gmm", "--data", "train.csv", "--k", "2", "--seed", "0",
             "--out", "gmm.json"], capsys)
        run(["extract", "--gmm", "gmm.json", "--blackbox", "synthetic:bb.json",
             "--max-nodes", "5", "--samples-per-node", "200", "--seed", "4",
             "--out", "flagged.json"], capsys)
        monkeypatch.setenv("EXTRACT_SEED", "4")
        run(["extract", "--gmm", "gmm.json", "--blackbox", "synthetic:bb.json",
             "--max-nodes", "5", "--samples-per-node", "200",
             "--out", "envseed.json"], capsys)
        assert (workdir / "flagged.json").read_bytes() == (workdir / "envseed.json").read_bytes()

    @pytest.mark.parametrize("env, flags, seed", [
        (None, [], 0), ("", [], 0), ("4", [], 4), ("abc", ["--seed", "2"], 2)])
    def test_echo_shows_the_seed_that_runs(self, workdir, synthetic_spec, capsys, monkeypatch,
                                           env, flags, seed):
        """--seed wins, then $EXTRACT_SEED, then 0; an unused bad value is never read."""
        if env is None:
            monkeypatch.delenv("EXTRACT_SEED", raising=False)
        else:
            monkeypatch.setenv("EXTRACT_SEED", env)
        code, _, err = run(["fit-gmm", "--data", "train.csv", "--k", "1", *flags,
                            "--out", "g.json"], capsys)
        assert code == 0 and json.loads(err.splitlines()[0])["seed"] == seed

    def test_non_integer_env_seed_exits_1(self, workdir, synthetic_spec, capsys, monkeypatch):
        monkeypatch.setenv("EXTRACT_SEED", "abc")
        code, _, err = run(["fit-gmm", "--data", "train.csv", "--k", "1",
                            "--out", "g.json"], capsys)
        assert code == 1 and "invalid int value: 'abc'" in err
        assert not (workdir / "g.json").exists()


class TestConfigFile:
    def test_flags_override_config(self, workdir, synthetic_spec, capsys):
        (workdir / "cfg.txt").write_text("seed=5\nk=2\n", encoding="utf-8")
        code, _, err = run(["fit-gmm", "--data", "train.csv", "--config", "cfg.txt",
                            "--k", "1", "--out", "g.json"], capsys)
        assert code == 0
        echoed = json.loads(err.splitlines()[0])
        assert echoed["k"] == "1"      # flag wins
        assert echoed["seed"] == 5     # config fills the gap

    def test_flag_equal_to_its_default_beats_config(self, workdir, synthetic_spec, capsys):
        (workdir / "cfg.txt").write_text("n_init=1\n", encoding="utf-8")
        code, _, err = run(["fit-gmm", "--data", "train.csv", "--n-init", "4", "--k", "1",
                            "--config", "cfg.txt", "--out", "g.json"], capsys)
        assert code == 0
        assert json.loads(err.splitlines()[0])["n_init"] == 4

    def test_bad_config_value_exits_1(self, workdir, synthetic_spec, capsys):
        (workdir / "cfg.txt").write_text("n_init=many\n", encoding="utf-8")
        code, _, err = run(["fit-gmm", "--data", "train.csv", "--config", "cfg.txt",
                            "--out", "g.json"], capsys)
        assert code == 1 and "invalid int value: 'many'" in err

    @pytest.mark.parametrize("value, prune", [("TRUE", True), ("yes", True), ("0", False),
                                              ("No", False), ("ture", None)])
    def test_boolean_config_values(self, workdir, value, prune, capsys):
        (workdir / "cfg.txt").write_text(f"prune={value}\n", encoding="utf-8")
        # gmm.json does not exist, so a run that reads its config then exits 1.
        code, _, err = run(["extract", "--gmm", "gmm.json", "--blackbox", "synthetic:bb.json",
                            "--max-nodes", "3", "--samples-per-node", "10",
                            "--config", "cfg.txt", "--out", "t.json"], capsys)
        assert code == 1
        if prune is None:
            assert f"prune={value!r}" in err
        else:
            assert json.loads(err.splitlines()[0])["prune"] is prune

    def test_comments_and_blank_lines_skipped(self, workdir, synthetic_spec, capsys):
        (workdir / "cfg.txt").write_text("# fit settings\n\nseed = 5\n", encoding="utf-8")
        code, _, err = run(["fit-gmm", "--data", "train.csv", "--config", "cfg.txt",
                            "--k", "1", "--out", "g.json"], capsys)
        assert code == 0 and json.loads(err.splitlines()[0])["seed"] == 5

    def test_line_without_equals_exits_1(self, workdir, synthetic_spec, capsys):
        (workdir / "cfg.txt").write_text("# fit settings\n\nseed 5\n", encoding="utf-8")
        code, _, err = run(["fit-gmm", "--data", "train.csv", "--config", "cfg.txt",
                            "--k", "1", "--out", "g.json"], capsys)
        assert code == 1 and "cfg.txt:3: expected key=value" in err
        assert not (workdir / "g.json").exists()

    def test_unknown_config_key_rejected(self, workdir, synthetic_spec, capsys):
        (workdir / "cfg.txt").write_text("bogus=1\n", encoding="utf-8")
        code, _, _ = run(["fit-gmm", "--data", "train.csv", "--config", "cfg.txt",
                          "--out", "g.json"], capsys)
        assert code == 1


class TestExperimentCommand:
    def test_tiny_synthetic_curve(self, workdir, capsys):
        code, out, _ = run(["experiment", "fidelity-curve", "--task", "synthetic-rf",
                            "--sizes", "3", "--seeds", "1",
                            "--algorithms", "ours,cart",
                            "--samples-per-node", "100",
                            "--out", "rows.csv"], capsys)
        assert code == 0
        text = (workdir / "rows.csv").read_text()
        assert text.splitlines()[0] == "algorithm,size,seed,fidelity_acc,fidelity_f1,budget,wall_ms"
        assert len(text.splitlines()) == 3

    def test_bad_sizes_exit_1(self, workdir, capsys):
        code, _, err = run(["experiment", "fidelity-curve", "--task", "cartpole",
                            "--sizes", "3,x", "--seeds", "1", "--out", "c.csv"], capsys)
        assert code == 1 and "internal error" not in err and "argument --sizes" in err
        assert not (workdir / "c.csv").exists()

    def test_unknown_algorithm_exits_1_without_csv(self, workdir, capsys):
        code, _, err = run(["experiment", "fidelity-curve", "--task", "cartpole",
                            "--sizes", "3", "--seeds", "1", "--algorithms", "ours,bogus",
                            "--out", "rows.csv"], capsys)
        assert code == 1
        assert "error: unknown algorithm 'bogus'" in err
        assert not (workdir / "rows.csv").exists()

    def test_zero_samples_per_node_exits_1_without_csv(self, workdir, capsys, monkeypatch):
        """--samples-per-node 0 used to be replaced by the task's default."""
        from treextract.evaluate import FidelityTask
        monkeypatch.setattr(cli, "synthetic_rf_task", lambda: FidelityTask(
            "toy", 100, lambda seed: pytest.fail("built an instance")))
        code, _, err = run(["experiment", "fidelity-curve", "--task", "synthetic-rf",
                            "--sizes", "3", "--seeds", "1", "--algorithms", "ours",
                            "--samples-per-node", "0", "--out", "rows.csv"], capsys)
        assert code == 1 and "samples_per_node must be >= 2" in err
        assert not (workdir / "rows.csv").exists()

    def test_failed_seed_exits_nonzero(self, workdir, capsys, monkeypatch):
        import treextract.cli as cli
        from treextract.evaluate import FidelityTask, TaskInstance, three_box_benchmark
        from treextract.gmm import sample

        gmm, bb = three_box_benchmark()

        def instance(seed):
            if seed == 1:
                raise RuntimeError("simulated data failure")
            return TaskInstance(bb, gmm, None,
                                sample(gmm, np.random.default_rng(seed), 100))

        monkeypatch.setattr(cli, "synthetic_rf_task",
                            lambda: FidelityTask("toy", 100, instance))
        with pytest.warns(UserWarning, match="task instance failed"):
            code, _, err = run(["experiment", "fidelity-curve", "--task", "synthetic-rf",
                                "--sizes", "3", "--seeds", "2", "--algorithms", "ours",
                                "--out", "rows.csv"], capsys)
        assert code == 1
        assert "task instance failed at seed=1: simulated data failure" in err
        assert len((workdir / "rows.csv").read_text().splitlines()) == 2
