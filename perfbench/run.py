"""treextract pipeline benchmark.

    python3 perfbench/run.py --workload rf-distill --seed 0 --seconds 25 --trace 0

Runs one workload closed-loop in this single-threaded process (BLAS pinned
to one thread) for about --seconds, checks every output, prints a report and
then, as the last line, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced passes over the same inputs and reports the
per-layer metrics. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("rf-distill", "cartpole-curve", "exact-convergence", "tail-sampling")
SETUP_PROBES = 3        # extra fresh processes that only set up, for setup_s
PROBE_TIMEOUT_S = 60.0

# End-to-end metric units; directions and bounds are in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "pass_s": "s", "op_ms.p50": "ms", "points_per_op": "count",
              "fidelity": "ratio", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="workload seed (inputs)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, asked of the library
    itself (it is already loaded, so this opens nothing new)."""
    import ctypes
    import numpy

    libs = sorted(Path(numpy.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
            "platform": platform.platform()}


def setup_workload(name, seed, tracer=None):
    """Import the program, build the workload's fixtures; returns (workload,
    seconds). With a tracer, set-up runs traced (learn_policy happens here)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]()
    if tracer is None:
        wl.setup(seed)
    else:
        tracer.tag = "setup"
        with tracer.installed():
            wl.setup(seed)
    return wl, time.perf_counter() - t0


def probe_setups(args):
    """Set-up seconds measured in SETUP_PROBES fresh processes."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((rec["setup_s"], rec["calibration_s"]))
    return out


def tail_percentile(values):
    """(percentile, value, n): the highest of p50/p90/p95/p99/p99.9 with at
    least ten samples beyond it, or None below 20 samples."""
    n = len(values)
    tenths = [q for q in (500, 900, 950, 990, 999) if n * (1000 - q) >= 10_000]
    if not tenths:
        return None
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return tenths[-1] / 10, cuts[tenths[-1] - 1], n


def after_setup_calibration():
    """Median of five host-speed samples, taken right after set-up."""
    import hostspeed

    return statistics.median(hostspeed.loop_seconds() for _ in range(5))


def run_passes(wl, seconds, tracer):
    """Closed loop: start another pass (or untraced/traced pair) only while it
    is expected to finish inside `seconds`. Each untraced pass gets three more
    host-speed samples after it. Returns (untraced, traced) lists of
    PassResult."""
    import hostspeed

    plain, traced, units = [], [], []
    t_loop = time.perf_counter()
    p = 0
    while True:
        t0 = time.perf_counter()
        plain.append(wl.run_pass(p))
        plain[-1].calibration += [hostspeed.loop_seconds() for _ in range(3)]
        if tracer is not None:
            tracer.tag = p
            with tracer.installed():
                traced.append(wl.run_pass(p, tracer.region))
        units.append(time.perf_counter() - t0)
        p += 1
        if time.perf_counter() - t_loop + statistics.median(units) > seconds:
            return plain, traced


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "treextract" / "__init__.py").is_file():
        print(f"error: no treextract sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]

    if args.setup_probe:
        _, setup_s = setup_workload(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "calibration_s": after_setup_calibration()}))
        return 0

    setups = [] if args.trace else probe_setups(args)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    wl, setup_s = setup_workload(args.workload, args.seed, tracer)
    import hostspeed
    import treextract

    setups.append((setup_s, after_setup_calibration()))

    if Path(treextract.__file__).resolve().parent != src / "treextract":
        print(f"error: imported treextract from {treextract.__file__}", file=sys.stderr)
        return 2

    plain, traced = run_passes(wl, args.seconds, tracer)
    scales = [hostspeed.scale(r.calibration) for r in plain]
    everything = plain + traced
    errors = [f"pass {i}: {e}" for i, r in enumerate(plain) for e in r.errors]
    errors += [f"traced pass {i}: {e}" for i, r in enumerate(traced) for e in r.errors]
    failures = [f"pass {i}: {e}" for i, r in enumerate(plain) for e in r.failures]
    failures += [f"traced pass {i}: {e}" for i, r in enumerate(traced) for e in r.failures]
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)

    ops = [v * k for r, k in zip(plain, scales) for v in r.op_ms]
    raw_ops = [v for r in plain for v in r.op_ms]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(),
              "calibration_s": [statistics.median(r.calibration) for r in plain],
              "reference_s": hostspeed.REFERENCE_S,
              "passes": len(plain), "raw_pass_s": [r.seconds for r in plain],
              "raw_setup_and_calibration_s": setups,
              "raw": {"setup_s": statistics.median(s for s, _ in setups),
                      "pass_s": statistics.median(r.seconds for r in plain),
                      "op_ms.p50": statistics.median(raw_ops)},
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / max(attempted, 1), "ops": len(ops),
              "op_ms.tail": tail_percentile(ops),
              "digests": [r.digests for r in plain],
              "notes": [r.notes for r in plain]}
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(s * hostspeed.scale([c]) for s, c in setups),
            "pass_s": statistics.median(r.seconds * k for r, k in zip(plain, scales)),
            "op_ms.p50": statistics.median(ops),
            "points_per_op": statistics.median(v for r in plain for v in r.op_points),
            "fidelity": statistics.median(v for r in plain for v in r.quality),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        metrics, units = traced_metrics(plain, traced, tracer, errors)
    report["metrics"] = metrics
    report["errors"] = errors
    report["failures"] = failures

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write_jsonl(out_dir / f"{stem}.spans.jsonl")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(plain)} passes, "
          f"{attempted} attempted, {failed} failed (failed_frac "
          f"{report['failed_frac']:.4g}), {len(errors)} failed checks")
    print("# machine " + json.dumps(report["machine"]))
    if report["op_ms.tail"] is not None:
        q, v, n = report["op_ms.tail"]
        print(f"# op_ms.tail: p{q:g} = {v:.4g} ms over {n} operations")
    raw = report["raw"]
    print(f"# unscaled: setup_s {raw['setup_s']:.4g} s, pass_s {raw['pass_s']:.4g} s, "
          f"op_ms.p50 {raw['op_ms.p50']:.4g} ms; host calibration median "
          f"{1e3 * statistics.median(report['calibration_s']):.3g} ms (reference "
          f"{1e3 * hostspeed.REFERENCE_S:.3g} ms)")
    f1 = [v for r in plain for v in r.notes.get("ours_f1", []) if v is not None]
    if f1:
        print(f"# ours test F1 median = {statistics.median(f1):.4g} over {len(f1)} trees")
    for e in errors[:20]:
        print(f"# CHECK FAILED {e}")
    for e in failures[:20]:
        print(f"# FAILURE OR WARNING {e}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def traced_metrics(plain, traced, tracer, errors):
    """Per-layer metrics, plus the two self-test identities: each traced
    pass labels exactly the blackbox points its outputs account for, and
    yields the same tree digests as its untraced twin."""
    import tracing

    labelled = tracing.bb_points(tracer.spans)
    for p, (a, b) in enumerate(zip(plain, traced)):
        if a.digests != b.digests:
            errors.append(f"pass {p}: traced trees differ from untraced trees")
        if labelled.get(p, 0) != b.bb_points:
            errors.append(f"pass {p}: traced blackbox points {labelled.get(p, 0)} != "
                          f"{b.bb_points} accounted for by tree budgets and test sets")
    if tracer.missing:
        errors.append(f"traced names missing from the package: {tracer.missing}")
    metrics = tracing.layer_metrics(tracer.spans, set(range(len(traced))))
    metrics["trace.overhead_frac"] = (statistics.median(r.seconds for r in traced)
                                      / statistics.median(r.seconds for r in plain) - 1.0)
    return metrics, {k: tracing.unit_of(k) for k in metrics}


if __name__ == "__main__":
    sys.exit(main())
