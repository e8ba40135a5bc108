"""Command-line entry point.

Subcommands: fit-gmm, train-rf, train-cartpole, extract, baseline, evaluate,
export, experiment. Outputs are written atomically; the effective config is
echoed to stderr as one JSON line. Exit codes: 0 success, 1 input error
(also: an experiment run failed and left no row), 2 internal error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import io as tio
from .baselines import born_again_extract, cart_extract
from .blackbox import (PolicyConfig, RandomForestConfig, collect_states, learn_policy,
                       mean_rollout_reward, train_random_forest)
from .core import is_count
from .errors import ConfigError, InputError
from .extract import ExtractionConfig, extract_tree
from .evaluate import cartpole_task, fidelity, run_fidelity_curve, synthetic_rf_task
from .gmm import EMConfig, fit_em, sample, select_k_bic

SEED_ENV = "EXTRACT_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    if seed:
        # argparse converts a string default with type=int, at parse time.
        p.add_argument("--seed", type=int, default=os.environ.get(SEED_ENV) or "0",
                       help=f"random seed (default: ${SEED_ENV} or 0)")
    p.add_argument("--config", default=None,
                   help="key=value file supplying defaults; flags win")


def _int_list(text: str) -> tuple[int, ...]:
    """A comma-separated list of integers, e.g. 7,7,7,7."""
    return tuple(int(v) for v in text.split(","))


def _k_arg(text: str) -> str:
    """'auto' (the BIC search) or a component count >= 1, checked as text."""
    if text != "auto" and not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer >= 1, got {text!r}")
    return text


def build_parser() -> _Parser:
    parser = _Parser(prog="treextract",
                     description="Extract decision-tree explanations from blackbox models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-gmm", parents=[], help="fit the Gaussian mixture input model")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--schema", default=None, help="column schema JSON")
    p.add_argument("--k", type=_k_arg, default="auto", help="component count or 'auto' (BIC)")
    p.add_argument("--n-init", type=int, default=4)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("train-rf", help="train the random-forest blackbox")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--n-trees", type=int, default=25)
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--balance", action="store_true",
                   help="duplicate minority rows to parity before bagging")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("train-cartpole", help="learn the cart-pole control policy")
    p.add_argument("--grid", type=_int_list, default="7,7,7,7",
                   help="cells per state dimension")
    p.add_argument("--transition-samples", type=int, default=30)
    p.add_argument("--discount", type=float, default=0.99)
    p.add_argument("--episodes", type=int, default=100, help="evaluation rollouts")
    p.add_argument("--collect", type=int, default=0,
                   help="also collect this many labeled rollout states per split")
    p.add_argument("--train-csv", default=None, help="where to write collected training states")
    p.add_argument("--test-csv", default=None, help="where to write collected test states")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("extract", help="extract a tree with active sampling")
    p.add_argument("--gmm", required=True)
    p.add_argument("--blackbox", required=True,
                   help="rf:path.json | cartpole:path.json | synthetic:spec.json")
    p.add_argument("--max-nodes", type=int, required=True)
    p.add_argument("--samples-per-node", type=int, required=True)
    p.add_argument("--min-gain", type=float, default=0.0)
    p.add_argument("--prune", action="store_true")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("baseline", help="budget-matched baseline extractors")
    p.add_argument("--kind", required=True, choices=["cart", "born-again"])
    p.add_argument("--blackbox", required=True)
    p.add_argument("--max-nodes", type=int, required=True)
    p.add_argument("--data", default=None, help="training CSV (cart)")
    p.add_argument("--schema", default=None)
    p.add_argument("--gmm", default=None, help="input model JSON (born-again)")
    p.add_argument("--samples-per-node", type=int, default=None)
    p.add_argument("--budget", type=int, default=None, help="born-again's raw draws")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("evaluate", help="fidelity of a tree against a blackbox")
    p.add_argument("--tree", required=True)
    p.add_argument("--blackbox", required=True)
    p.add_argument("--data", default=None, help="test CSV (features used, labels ignored)")
    p.add_argument("--schema", default=None)
    p.add_argument("--sample-from", default=None, help="GMM JSON to draw test points from")
    p.add_argument("--n", type=int, default=10000, help="points when sampling")
    p.add_argument("--positive-class", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("export", help="convert a saved tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.add_argument("--columns", default=None, help="comma-separated feature names")
    p.add_argument("--classes", default=None, help="comma-separated class names")
    _add_common(p, seed=False)

    p = sub.add_parser("experiment", help="experiment harness")
    p.add_argument("what", choices=["fidelity-curve"])
    p.add_argument("--task", required=True, choices=["cartpole", "synthetic-rf"])
    p.add_argument("--sizes", type=_int_list, default="3,7,11,15")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--algorithms", default="ours,cart,born_again")
    p.add_argument("--samples-per-node", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)

    return parser


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _read_config(path, sub: argparse.ArgumentParser) -> dict:
    """Subcommand defaults from a key=value file; given flags still win."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError(f"{path}:{line_no}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    for key, value in values.items():
        if key not in actions:
            raise InputError(f"{path}: unknown key {key!r}")
        # argparse converts other string defaults with the flag's type itself.
        if isinstance(actions[key], (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            if value.lower() not in _BOOLEANS:
                raise InputError(f"{path}: {key}={value!r} is not one of {', '.join(_BOOLEANS)}")
            values[key] = _BOOLEANS[value.lower()]
    return values


def _load_features(path, schema_path):
    schema = tio.TableSchema.from_json(schema_path) if schema_path else None
    return tio.load_csv(path, schema)


def _load_blackbox(spec: str):
    if ":" not in spec:
        raise InputError("blackbox spec must look like rf:path.json, "
                         "cartpole:path.json, or synthetic:spec.json")
    kind, path = spec.split(":", 1)
    expected = {"rf": "random_forest", "cartpole": "tabular_policy",
                "synthetic": "box_blackbox"}
    if kind not in expected:
        raise InputError(f"unknown blackbox kind {kind!r}")
    doc = tio.load_json(path)
    if doc.get("kind") != expected[kind]:
        raise InputError(f"{path} holds {doc.get('kind')!r}, expected {expected[kind]!r}")
    return tio.blackbox_from_doc(doc)


def _cmd_fit_gmm(args) -> int:
    dataset, _ = _load_features(args.data, args.schema)
    cfg = EMConfig(seed=args.seed, n_init=args.n_init)
    if args.k == "auto":
        gmm = select_k_bic(dataset.features, cfg=cfg)
    else:
        gmm = fit_em(dataset.features, int(args.k), cfg)
    tio.save_gmm(args.out, gmm)
    print(f"fitted mixture: K={gmm.k} d={gmm.d} -> {args.out}")
    return 0


def _cmd_train_rf(args) -> int:
    dataset, _ = _load_features(args.data, args.schema)
    cfg = RandomForestConfig(n_trees=args.n_trees, max_depth=args.max_depth,
                             balance=args.balance, seed=args.seed)
    forest = train_random_forest(dataset, cfg)
    tio.save_json(args.out, tio.blackbox_to_doc(forest))
    acc = float(np.mean(forest.predict(dataset.features) == dataset.labels))
    print(f"forest: {len(forest.trees)} trees, train accuracy {acc:.3f} -> {args.out}")
    return 0


def _cmd_train_cartpole(args) -> int:
    if args.collect < 0 or bool(args.collect) != bool(args.train_csv or args.test_csv):
        raise InputError("--collect N >= 1 and --train-csv or --test-csv go together")
    if not is_count(args.episodes):  # before learning the policy, which a fine grid makes slow
        raise InputError("n_episodes must be >= 1")
    cfg = PolicyConfig(grid_sizes=args.grid, n_transition_samples=args.transition_samples,
                       discount=args.discount, seed=args.seed)
    policy = learn_policy(cfg)
    reward = mean_rollout_reward(policy, args.episodes, seed=args.seed)
    tio.save_json(args.out, tio.blackbox_to_doc(policy))
    print(f"policy: grid {args.grid}, mean reward {reward:.1f} over {args.episodes} episodes -> {args.out}")
    splits = [(split, path, 2 * args.seed + offset) for split, path, offset
              in (("training", args.train_csv, 1), ("test", args.test_csv, 2)) if path]
    pools = collect_states(policy, args.collect, [s for _, _, s in splits]) if splits else []
    for (split, path, _), data in zip(splits, pools):
        tio.save_csv(path, data)
        print(f"collected {args.collect} {split} states -> {path}")
    return 0


def _cmd_extract(args) -> int:
    gmm = tio.load_gmm(args.gmm)
    f = _load_blackbox(args.blackbox)
    cfg = ExtractionConfig(args.max_nodes, args.samples_per_node, min_gain=args.min_gain,
                           seed=args.seed, prune=args.prune)
    tree = extract_tree(gmm, f, cfg)
    tio.save_tree(args.out, tree)
    print(f"extracted tree: {tree.size} nodes, budget {tree.budget} -> {args.out}")
    return 0


def _cmd_baseline(args) -> int:
    f = _load_blackbox(args.blackbox)
    if args.kind == "cart":
        if not args.data:
            raise InputError("cart baseline requires --data")
        dataset, _ = _load_features(args.data, args.schema)
        tree = cart_extract(dataset, f, args.max_nodes)
    else:
        if None in (args.gmm, args.budget, args.samples_per_node):
            raise InputError("born-again requires --gmm, --budget and --samples-per-node")
        gmm = tio.load_gmm(args.gmm)
        tree = born_again_extract(gmm, f, ExtractionConfig(
            args.max_nodes, args.samples_per_node, seed=args.seed, total_sample_budget=args.budget))
    tio.save_tree(args.out, tree)
    print(f"{args.kind} tree: {tree.size} nodes, budget {tree.budget} -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    tree = tio.load_tree(args.tree)
    f = _load_blackbox(args.blackbox)
    if args.data:
        points = _load_features(args.data, args.schema)[0].features
    elif args.sample_from:
        if args.n < 1:
            raise InputError("--n must be >= 1")
        gmm = tio.load_gmm(args.sample_from)
        points = sample(gmm, np.random.default_rng(args.seed), args.n)
    else:
        raise InputError("evaluate requires --data or --sample-from")
    rep = fidelity(tree, f, points, positive_class=args.positive_class)
    out = {"accuracy": rep.accuracy, "f1": rep.f1, "n_test": rep.n_test,
           "confusion": rep.confusion.tolist()}
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_export(args) -> int:
    tree = tio.load_tree(args.tree)
    if args.format == "json":
        print(json.dumps(tio.tree_to_doc(tree), indent=1, sort_keys=True))
        return 0
    columns = args.columns.split(",") if args.columns else None
    classes = args.classes.split(",") if args.classes else None
    sys.stdout.write(tio.export_dot(tree, columns, classes))
    return 0


def _cmd_experiment(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",")]
    task = cartpole_task() if args.task == "cartpole" else synthetic_rf_task()
    if args.samples_per_node is not None:
        task.samples_per_node = args.samples_per_node
    result = run_fidelity_curve(task, args.sizes, algorithms, n_seeds=args.seeds,
                                base_seed=args.seed)
    tio.write_text_atomic(args.out, result.to_csv_text())
    if result.failures:
        for message in result.failures:
            print(f"error: {message}", file=sys.stderr)
        print(f"{len(result.failures)} run(s) failed; partial rows -> {args.out}",
              file=sys.stderr)
        return 1
    for alg in algorithms:
        meds = {s: round(result.median(alg, s), 3) for s in args.sizes}
        print(f"{alg}: median fidelity by size {meds}")
    print(f"rows -> {args.out}")
    return 0


_COMMANDS = {
    "fit-gmm": _cmd_fit_gmm,
    "train-rf": _cmd_train_rf,
    "train-cartpole": _cmd_train_cartpole,
    "extract": _cmd_extract,
    "baseline": _cmd_baseline,
    "evaluate": _cmd_evaluate,
    "export": _cmd_export,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            sub = parser._subparsers._group_actions[0].choices[args.command]
            sub.set_defaults(**_read_config(args.config, sub))
            args = parser.parse_args(argv)
        print(json.dumps(vars(args), default=str, sort_keys=True), file=sys.stderr)
        return _COMMANDS[args.command](args)
    except (InputError, ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - anything else is an internal error
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
