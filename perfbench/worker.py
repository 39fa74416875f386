"""One benchmark process for one workload.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src`` and BLAS/OpenMP pinned to one thread.  It builds the
workload's inputs, notes when set-up finished (``time.monotonic``, which is
CLOCK_MONOTONIC and so comparable with the parent's clock on Linux), runs
timed passes until the next one would end after ``--seconds``, and prints
one JSON line.  With ``--trace 1`` it alternates plain and traced passes on
the same inputs and writes the spans to ``perfbench/out/``.

``--record`` runs one pass at the default seed and stores the recorded
values in ``reference.json``; it is how that file was made.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def _environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"}}


def _check_library_source():
    import doublepack
    expected = ROOT / "src" / "doublepack"
    found = Path(doublepack.__file__).resolve().parent
    if found != expected:
        sys.exit(f"doublepack imported from {found}, not from {expected}")


def _layer_metrics(tracer, counts, n_traced, layer_functions):
    """Per-pass means of the traced passes, keyed by metric name."""
    totals = tracer.layer_totals()
    out = {}
    failed_by_module = {}
    for fn in layer_functions:
        module, _, name = fn.partition(".")
        if not callable(getattr(sys.modules.get(f"doublepack.{module}"), name, None)):
            raise SystemExit(f"{fn} is not a function of the library")
        t = totals.get(fn, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0})
        out[f"{fn}.calls"] = t["calls"] / n_traced
        out[f"{fn}.busy_s"] = t["busy_s"] / n_traced
        out[f"{fn}.self_s"] = t["self_s"] / n_traced
    for fn, t in totals.items():
        module = fn.split(".")[0]
        failed_by_module[module] = failed_by_module.get(module, 0) + t["failed"]
    from spans import LAYERS
    for module in LAYERS:
        out[f"{module}.failed"] = failed_by_module.get(module, 0) / n_traced
    from workloads import COUNTERS
    for key in COUNTERS:
        out[key] = counts.get(key, 0) / n_traced
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--layer-functions", default="",
                    help="comma-separated <module>.<function> names to report")
    args = ap.parse_args()

    _check_library_source()
    from checks import DEFAULT_SEED, REFERENCE_FILE, References
    from spans import Tracer
    from workloads import WORKLOADS, Context

    if args.record and (args.smoke or args.seed != DEFAULT_SEED):
        sys.exit("--record needs the default seed and full-size inputs")
    refs = References(args.workload, args.seed, enabled=not args.smoke,
                      recording=args.record)
    ctx = Context(args.seed, refs, perturb=args.smoke)
    workload = WORKLOADS[args.workload](args.smoke)
    workload.setup(ctx)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return

    if args.record:
        refs.first_input = True
        workload.run_pass(ctx, 0)
        if ctx.failed:
            sys.exit("recording pass failed: " + "; ".join(ctx.failures))
        table = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
        table[args.workload] = refs.recorded
        REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(json.dumps(result))
        return

    tracer = Tracer()
    walls = {False: [], True: []}
    traced_counts = {}
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        # in a traced run each input set runs once plain, once traced
        inputs = index // 2 if args.trace else index
        refs.first_input = inputs == 0
        ctx.counts.clear()
        if traced:
            tracer.install()
            ctx.tracer = tracer
        t0 = time.perf_counter()
        try:
            workload.run_pass(ctx, inputs)
        finally:
            dt = time.perf_counter() - t0
            if traced:
                ctx.tracer = None
                tracer.uninstall()
        walls[traced].append(dt)
        if traced:
            for key, value in ctx.counts.items():
                traced_counts[key] = traced_counts.get(key, 0) + value
        index += 1
        have_all = walls[False] and (walls[True] or not args.trace)
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls[False] + walls[True])
        if have_all and elapsed + typical > args.seconds:
            break

    result.update({
        "env": _environment(),
        "wall_s": walls[False],
        "traced_wall_s": walls[True],
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": [[count, message] for message, count in ctx.failures.most_common(20)],
        "perturbed_caught": ctx.perturbed_caught,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if args.trace:
        functions = [f for f in args.layer_functions.split(",") if f]
        layers = _layer_metrics(tracer, traced_counts, len(walls[True]), functions)
        layers["bench.trace_overhead_s"] = (statistics.fmean(walls[True])
                                            - statistics.fmean(walls[False]))
        result["layers"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "env": result["env"], "layers": layers,
                                    "columns": ["name", "start_s", "end_s",
                                                "parent", "job", "failed"],
                                    "spans": tracer.dump(start)}))
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
