"""Span tracing of treextract's public functions, installed from outside.

A Tracer replaces each traced function at every treextract module namespace
that binds it (``from .gmm import sample`` leaves a second binding in the
importing module), and each traced method on its class. A closure made while
the tracer is installed keeps the wrapper (``synthetic_rf_task`` imports
``fit_em`` inside its body), so wrappers record only while the tracer is
installed and call straight through otherwise. The wrappers only read
arguments and results, so the program draws the same random numbers with
tracing on and off. Spans stay in memory; ``write_jsonl`` writes them out
once, at the end of a run.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

_perf = time.perf_counter


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) >= 1 else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _cells(args, kwargs, out):
    X = _arg(args, kwargs, 0, "X")
    return {"cells": int(np.size(X))}


def _tail_info(args, kwargs, out):
    """Points drawn and the expected number of coordinate draws that take the
    per-point rejection path: component j is on it in dimension i when its
    standardized bounds lie beyond TAIL_CUTOFF on one side."""
    from treextract import gmm as gmm_mod

    cm = _arg(args, kwargs, 0, "cm")
    n = 1 if np.ndim(out) == 1 else _rows(out)
    cut = gmm_mod.TAIL_CUTOFF
    tail = (cm.alpha >= cut) | (cm.beta <= -cut)
    expected = float(n * np.dot(cm.tilde_phi, tail.sum(axis=1)))
    return {"points": n, "coords": n * cm.base.d, "tail_coords": expected}


def _fit_em_call(fn):
    """fit_em wrapper body: counts EM iterations through the public
    history_out argument, supplying a private list when the caller passed
    none (the list only collects log-likelihoods)."""
    def call(args, kwargs, info):
        hist = _arg(args, kwargs, 3, "history_out")
        if hist is None:
            hist = []
            if len(args) > 3:
                args = args[:3] + (hist,) + args[4:]
            else:
                kwargs = dict(kwargs, history_out=hist)
        before = len(hist)
        out = fn(*args, **kwargs)
        info["iters"] = len(hist) - before
        return out
    return call


# (module, attribute, span name, info function). Module-level functions are
# patched wherever treextract binds them; the info function turns
# (args, kwargs, result) into the counts a span records.
FUNCTIONS = (
    ("gmm", "fit_em", "gmm.fit_em", None),
    ("gmm", "select_k_bic", "gmm.select_k_bic", None),
    ("gmm", "condition", "gmm.condition", None),
    ("gmm", "sample_conditional", "gmm.sample_conditional", _tail_info),
    ("gmm", "box_mass", "gmm.box_mass", None),
    ("gmm", "sample", "gmm.sample", lambda a, k, out: {"points": _rows(np.atleast_2d(out))}),
    ("extract", "best_split_from_samples", "extract.best_split_from_samples", _cells),
    ("extract", "extract_tree", "extract.extract_tree", None),
    ("blackbox", "train_random_forest", "blackbox.train_random_forest", None),
    ("blackbox", "learn_policy", "blackbox.learn_policy", None),
    ("baselines", "cart_extract", "baselines.cart_extract", None),
    ("baselines", "born_again_extract", "baselines.born_again_extract", None),
    ("evaluate", "fidelity", "evaluate.fidelity", None),
    ("evaluate", "agreement", "evaluate.agreement", None),
    ("evaluate", "exact_greedy_oracle", "evaluate.exact_greedy_oracle", None),
)

# (module, class, method, span name, info function): predict methods of the
# in-repo blackboxes and of the tree itself.
_points = lambda a, k, out: {"points": _rows(out)}  # noqa: E731
METHODS = (
    ("blackbox", "RandomForest", "predict", "blackbox.predict.rf", _points),
    ("blackbox", "TabularPolicy", "predict", "blackbox.predict.policy", _points),
    ("blackbox", "BoxBlackbox", "predict", "blackbox.predict.box", _points),
    ("core", "DecisionTree", "predict_batch", "core.predict_batch", _points),
)


class Tracer:
    """Records spans [name, parent index, start, end, info, pass tag]."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []   # traced names the package no longer has
        self.tag = None           # pass label stored with each span
        self.active = False       # wrappers record only while installed
        self._stack: list = []
        self._undo: list = []

    @contextmanager
    def region(self, name):
        """Record one span around a block; yields the span's info dict."""
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, {}, self.tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = _perf()
        try:
            yield rec[4]
        finally:
            rec[3] = _perf()
            self._stack.pop()

    def span(self, name, fn, info_fn=None, call=None):
        """Wrap fn so each call records one span. call, when given, runs fn
        in place of a plain call and may add to the span's info."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.region(name) as info:
                out = fn(*args, **kwargs) if call is None else call(args, kwargs, info)
            if info_fn is not None:
                info.update(info_fn(args, kwargs, out))
            return out

        return wrapper

    def install(self):
        """Patch every traced function and method; returns self."""
        import importlib

        self.missing = []
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "treextract" or n.startswith("treextract."))]
        def home(modname):
            try:
                return importlib.import_module(f"treextract.{modname}")
            except ModuleNotFoundError:
                return None

        for modname, attr, name, info_fn in FUNCTIONS:
            orig = getattr(home(modname), attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            call = _fit_em_call(orig) if name == "gmm.fit_em" else None
            wrapped = self.span(name, orig, info_fn, call)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for modname, clsname, meth, name, info_fn in METHODS:
            cls = getattr(home(modname), clsname, None)
            orig = None if cls is None else cls.__dict__.get(meth)
            if orig is None:
                self.missing.append(name)
                continue
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self.span(name, orig, info_fn))
        self.active = True
        return self

    def uninstall(self):
        self.active = False
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1, info, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": t0, "end": t1, "pass": tag,
                                     **info}) + "\n")


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics

EXTRACTORS = ("extract.extract_tree", "baselines.born_again_extract",
              "blackbox.train_random_forest", "baselines.cart_extract")
KINDS = ("rf", "policy", "box")


def ancestors(spans, names) -> list:
    """For every span, the index of its nearest ancestor named in names, or
    -1. A parent is always recorded before its children."""
    out = [-1] * len(spans)
    for i, rec in enumerate(spans):
        p = rec[1]
        if p >= 0:
            out[i] = p if spans[p][0] in names else out[p]
    return out


def bb_points(spans) -> dict:
    """Blackbox points labelled per pass tag, leaving out calls made while
    building a task instance (cart-pole rollouts)."""
    inst = ancestors(spans, ("evaluate.task_instance",))
    out: dict = {}
    for i, (name, _, _, _, info, tag) in enumerate(spans):
        if name.startswith("blackbox.predict.") and inst[i] < 0:
            out[tag] = out.get(tag, 0) + info.get("points", 0)
    return out


def layer_metrics(spans, tags) -> dict:
    """Per-layer metrics, per pass, from the spans of the traced passes in
    tags; blackbox.learn_policy.ms is the total over all spans, set-up
    included, because the policy is learned once.

    Calls made inside gmm.sample (which conditions on the unbounded box) are
    counted under gmm.sample only; blackbox calls made while building a task
    instance (cart-pole rollouts) are left out of blackbox.predict.*.
    """
    per = max(len(tags), 1)
    in_sample = ancestors(spans, ("gmm.sample",))
    in_instance = ancestors(spans, ("evaluate.task_instance",))
    in_extractor = ancestors(spans, EXTRACTORS)
    in_extract_tree = ancestors(spans, ("extract.extract_tree",))
    in_born_again = ancestors(spans, ("baselines.born_again_extract",))
    tot: dict = {}
    child_s = [0.0] * len(spans)

    def add(key, v):
        tot[key] = tot.get(key, 0.0) + v

    for i, (name, parent, t0, t1, info, tag) in enumerate(spans):
        dt = t1 - t0
        if name == "blackbox.learn_policy":
            add("learn_policy.s", dt)
        if tag not in tags:
            continue
        if parent >= 0:
            child_s[parent] += dt
        if name in ("gmm.condition", "gmm.sample_conditional") and in_sample[i] >= 0:
            continue
        if name.startswith("blackbox.predict."):
            if in_instance[i] >= 0:
                continue
            if in_extract_tree[i] >= 0:
                add("bb_in_extract.s", dt)
            if in_born_again[i] >= 0:
                add("ba.labelled", info.get("points", 0))
        if name == "gmm.sample" and in_born_again[i] >= 0:
            add("ba.raw", info.get("points", 0))
        if name == "extract.best_split_from_samples":
            j = in_extractor[i]
            ctx = spans[j][0].split(".")[-1] if j >= 0 else "other"
            add(f"scan.{ctx}.calls", 1)
            add(f"scan.{ctx}.s", dt)
            add(f"scan.{ctx}.cells", info.get("cells", 0))
        add(name + ".calls", 1)
        add(name + ".s", dt)
        for k, v in info.items():
            add(f"{name}.{k}", v)
    for i, (name, _, t0, t1, _, tag) in enumerate(spans):
        if name == "extract.extract_tree" and tag in tags:
            add("extract_tree.self_s", (t1 - t0) - child_s[i])

    def g(key):
        return tot.get(key, 0.0)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    def ms(key):
        return 1e3 * g(key + ".s") / per

    out = {
        "gmm.fit_em.calls": g("gmm.fit_em.calls") / per,
        "gmm.fit_em.ms": ms("gmm.fit_em"),
        "gmm.fit_em.iters": g("gmm.fit_em.iters") / per,
        "gmm.select_k_bic.ms": ms("gmm.select_k_bic"),
        "gmm.condition.calls": g("gmm.condition.calls") / per,
        "gmm.condition.us": 1e6 * ratio(g("gmm.condition.s"), g("gmm.condition.calls")),
        "gmm.sample_conditional.calls": g("gmm.sample_conditional.calls") / per,
        "gmm.sample_conditional.points": g("gmm.sample_conditional.points") / per,
        "gmm.sample_conditional.us_per_point":
            1e6 * ratio(g("gmm.sample_conditional.s"), g("gmm.sample_conditional.points")),
        "gmm.sample_conditional.tail_share":
            ratio(g("gmm.sample_conditional.tail_coords"), g("gmm.sample_conditional.coords")),
        "gmm.box_mass.calls": g("gmm.box_mass.calls") / per,
        "gmm.box_mass.us": 1e6 * ratio(g("gmm.box_mass.s"), g("gmm.box_mass.calls")),
        "gmm.sample.points": g("gmm.sample.points") / per,
        "gmm.sample.us_per_point": 1e6 * ratio(g("gmm.sample.s"), g("gmm.sample.points")),
    }
    for ctx in (e.split(".")[-1] for e in EXTRACTORS):
        key = f"extract.best_split_from_samples.{ctx}"
        out[key + ".calls"] = g(f"scan.{ctx}.calls") / per
        out[key + ".ms"] = 1e3 * g(f"scan.{ctx}.s") / per
        out[key + ".cells_per_s"] = ratio(g(f"scan.{ctx}.cells"), g(f"scan.{ctx}.s"))
    out["extract.extract_tree.self_ms"] = 1e3 * g("extract_tree.self_s") / per
    for kind in KINDS:
        key = f"blackbox.predict.{kind}"
        out[key + ".calls"] = g(key + ".calls") / per
        out[key + ".points"] = g(key + ".points") / per
        out[key + ".us_per_1k_points"] = 1e9 * ratio(g(key + ".s"), g(key + ".points"))
    out["blackbox.predict.share"] = ratio(g("bb_in_extract.s"), g("extract.extract_tree.s"))
    out["blackbox.train_random_forest.ms"] = ms("blackbox.train_random_forest")
    out["blackbox.learn_policy.ms"] = 1e3 * g("learn_policy.s")
    out["core.predict_batch.calls"] = g("core.predict_batch.calls") / per
    out["core.predict_batch.points"] = g("core.predict_batch.points") / per
    out["core.predict_batch.us_per_1k_points"] = \
        1e9 * ratio(g("core.predict_batch.s"), g("core.predict_batch.points"))
    out["baselines.cart_extract.ms"] = ms("baselines.cart_extract")
    out["baselines.born_again_extract.ms"] = ms("baselines.born_again_extract")
    out["baselines.born_again.accept_ratio"] = ratio(g("ba.labelled"), g("ba.raw"))
    for name in ("evaluate.task_instance", "evaluate.agreement", "evaluate.fidelity",
                 "evaluate.exact_greedy_oracle"):
        out[name + ".ms"] = ms(name)
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its last name component."""
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "points", "iters"):
        return "count"
    if last.endswith("ms"):
        return "ms"
    if last.startswith("us"):
        return "us"
    if last == "cells_per_s":
        return "1/s"
    return "ratio"
