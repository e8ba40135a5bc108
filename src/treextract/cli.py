"""Command-line entry point.

Subcommands: fit-gmm, train-rf, train-cartpole, extract, baseline, evaluate,
export, experiment. Outputs are written atomically; the effective config is
echoed to stderr as one JSON line. Exit codes: 0 success, 1 input error
(also: an experiment run failed and left no row), 2 internal error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io as tio
from .baselines import BaselineConfig, born_again_extract, cart_extract
from .blackbox import (CartPoleSystem, PolicyConfig, RandomForestConfig,
                       collect_states, learn_policy, mean_rollout_reward,
                       train_random_forest)
from .errors import InputError
from .extract import ExtractionConfig, extract_tree
from .evaluate import (ALGORITHMS, cartpole_task, fidelity, run_fidelity_curve,
                       synthetic_rf_task)
from .gmm import EMConfig, fit_em, sample, select_k_bic

SEED_ENV = "EXTRACT_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help=f"random seed (default: ${SEED_ENV} or 0)")
    p.add_argument("--config", default=None,
                   help="key=value file supplying defaults; flags win")


def build_parser() -> _Parser:
    parser = _Parser(prog="treextract",
                     description="Extract decision-tree explanations from blackbox models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-gmm", parents=[], help="fit the Gaussian mixture input model")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--schema", default=None, help="column schema JSON")
    p.add_argument("--k", default="auto", help="component count or 'auto' (BIC)")
    p.add_argument("--n-init", type=int, default=4)
    p.add_argument("--x-max", type=float, default=None,
                   help="truncate the model to the box ||x||_inf <= x_max")
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
    p.add_argument("--grid", default="7,7,7,7", help="cells per state dimension")
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
    p.add_argument("--budget", type=int, default=None, help="raw-draw budget (born-again)")
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
    _add_common(p)

    p = sub.add_parser("experiment", help="experiment harness")
    p.add_argument("what", choices=["fidelity-curve"])
    p.add_argument("--task", required=True, choices=["cartpole", "synthetic-rf"])
    p.add_argument("--sizes", default="3,7,11,15")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--algorithms", default="ours,cart,born_again")
    p.add_argument("--samples-per-node", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)

    return parser


def _apply_config_file(args: argparse.Namespace, actions: list) -> None:
    """Fill values from a key=value file for flags left at their default."""
    if not getattr(args, "config", None):
        return
    overrides = {}
    with open(args.config, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError(f"{args.config}:{line_no}: expected key=value")
            key, value = line.split("=", 1)
            overrides[key.strip().replace("-", "_")] = value.strip()
    by_dest = {a.dest: a for a in actions}
    for key, value in overrides.items():
        if key not in by_dest or not hasattr(args, key):
            raise InputError(f"{args.config}: unknown key {key!r}")
        action = by_dest[key]
        if getattr(args, key) != action.default:
            continue  # explicit flag wins
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            parsed = value.lower() in ("1", "true", "yes")
        elif action.type is not None:
            parsed = action.type(value)
        else:
            parsed = value
        setattr(args, key, parsed)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 0


def _echo_config(args) -> None:
    doc = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    doc["command"] = args.command
    print(json.dumps(doc, default=str, sort_keys=True), file=sys.stderr)


def _load_features(path, schema_path):
    schema = tio.TableSchema.from_json(schema_path) if schema_path else None
    dataset, schema = tio.load_csv(path, schema)
    return dataset, schema


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
    seed = _resolve_seed(args)
    cfg = EMConfig(seed=seed, n_init=args.n_init)
    if args.k == "auto":
        gmm = select_k_bic(dataset.features, cfg=cfg)
    else:
        gmm = fit_em(dataset.features, int(args.k), cfg)
    if args.x_max is not None:
        from .gmm import GaussianMixture
        gmm = GaussianMixture(gmm.weights, gmm.means, gmm.stddevs, x_max=args.x_max)
    tio.save_gmm(args.out, gmm)
    print(f"fitted mixture: K={gmm.k} d={gmm.d} -> {args.out}")
    return 0


def _cmd_train_rf(args) -> int:
    dataset, _ = _load_features(args.data, args.schema)
    cfg = RandomForestConfig(n_trees=args.n_trees, max_depth=args.max_depth,
                             balance=args.balance, seed=_resolve_seed(args))
    forest = train_random_forest(dataset, cfg)
    tio.save_json(args.out, tio.blackbox_to_doc(forest))
    acc = float(np.mean(forest.predict(dataset.features) == dataset.labels))
    print(f"forest: {len(forest.trees)} trees, train accuracy {acc:.3f} -> {args.out}")
    return 0


def _cmd_train_cartpole(args) -> int:
    grid = tuple(int(v) for v in args.grid.split(","))
    sys_ = CartPoleSystem()
    cfg = PolicyConfig(grid_sizes=grid, n_transition_samples=args.transition_samples,
                       discount=args.discount, seed=_resolve_seed(args))
    policy = learn_policy(sys_, cfg)
    reward = mean_rollout_reward(policy, sys_, args.episodes, seed=_resolve_seed(args))
    tio.save_json(args.out, tio.blackbox_to_doc(policy))
    print(f"policy: grid {grid}, mean reward {reward:.1f} over {args.episodes} episodes -> {args.out}")
    if args.collect:
        seed = _resolve_seed(args)
        if args.train_csv:
            tio.save_csv(args.train_csv, collect_states(policy, sys_, args.collect,
                                                        seed=2 * seed + 1))
            print(f"collected {args.collect} training states -> {args.train_csv}")
        if args.test_csv:
            tio.save_csv(args.test_csv, collect_states(policy, sys_, args.collect,
                                                       seed=2 * seed + 2))
            print(f"collected {args.collect} test states -> {args.test_csv}")
    return 0


def _cmd_extract(args) -> int:
    gmm = tio.load_gmm(args.gmm)
    f = _load_blackbox(args.blackbox)
    cfg = ExtractionConfig(max_nodes=args.max_nodes,
                           samples_per_node=args.samples_per_node,
                           min_gain=args.min_gain, seed=_resolve_seed(args),
                           prune=args.prune)
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
        if not (args.gmm and args.budget and args.samples_per_node):
            raise InputError("born-again requires --gmm, --budget and --samples-per-node")
        gmm = tio.load_gmm(args.gmm)
        cfg = BaselineConfig(args.max_nodes, samples_per_node=args.samples_per_node,
                             total_sample_budget=args.budget,
                             seed=_resolve_seed(args))
        tree = born_again_extract(gmm, f, cfg)
    tio.save_tree(args.out, tree)
    print(f"{args.kind} tree: {tree.size} nodes, budget {tree.budget} -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    tree = tio.load_tree(args.tree)
    f = _load_blackbox(args.blackbox)
    if args.data:
        dataset, _ = _load_features(args.data, args.schema)
        points = dataset.features
    elif args.sample_from:
        gmm = tio.load_gmm(args.sample_from)
        points = sample(gmm, np.random.default_rng(_resolve_seed(args)), args.n)
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
    sizes = [int(v) for v in args.sizes.split(",")]
    algorithms = [a.strip() for a in args.algorithms.split(",")]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise InputError(f"unknown algorithm {a!r}")
    if args.task == "cartpole":
        task = cartpole_task()
    else:
        task = synthetic_rf_task()
    if args.samples_per_node:
        task.samples_per_node = args.samples_per_node
    result = run_fidelity_curve(task, sizes, algorithms, n_seeds=args.seeds,
                                base_seed=_resolve_seed(args))
    tio.write_text_atomic(args.out, result.to_csv_text())
    if result.failures:
        for message in result.failures:
            print(f"error: {message}", file=sys.stderr)
        print(f"{len(result.failures)} run(s) failed; partial rows -> {args.out}",
              file=sys.stderr)
        return 1
    for alg in algorithms:
        meds = {s: round(result.median(alg, s), 3) for s in sizes}
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
        actions = [a for g in parser._subparsers._group_actions
                   for a in g.choices[args.command]._actions]
        _apply_config_file(args, actions)
        _echo_config(args)
        return _COMMANDS[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - anything else is an internal error
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
