"""Pipeline benchmark for doublepack.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Each workload runs in fresh worker processes (``worker.py``) with
BLAS/OpenMP pinned to one thread: ``SETUP_SAMPLES - 1`` processes that only
set up, then one that sets up and runs timed passes for about ``--seconds``.
Set-up time is measured from process start to the end of input building,
and reported as the median over those processes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics (from
traced passes) with ``--trace 1``.  Failed operations are counted in
``failed``; ``fail_frac`` is printed above the JSON line.

``--smoke`` runs every job on tiny inputs and perturbs one output per
workload on purpose; it exits 0 only if that output is counted as failed and
nothing else fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKLOADS = ("ball_pack", "field_transfer", "disc_capacity", "map_build")
SETUP_SAMPLES = 3
# Budget for all processes of one workload; the run must end within 180 s.
TIME_LIMIT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def _spawn(argv, deadline):
    """Run one worker to completion; return its JSON result with
    ``setup_s`` (process start to end of set-up) added."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker {' '.join(argv[:2])} ran past the time limit")
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv[:2])} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def run_workload(name, args, spec):
    deadline = time.monotonic() + TIME_LIMIT
    argv = ["--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    setups = [_spawn(argv + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    if args.trace:
        functions = sorted({m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
                            if m["name"].endswith(".calls")})
        argv += ["--layer-functions", ",".join(functions)]
    result = _spawn(argv, deadline)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    # Mean pass time: on a shared machine the per-pass times are bimodal (a
    # core whose sibling is busy runs about 1.7x slower), and the mean over
    # the run tracks the time spent in each mode more steadily than the
    # median, which jumps between the modes.
    values = {"wall_s": statistics.fmean(result["wall_s"]),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": result["peak_rss_mb"]}
    values.update(result.get("layers", {}))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in listed}
    return result


def report(name, args, result):
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    print(f"  env          {json.dumps(result['env'], sort_keys=True)}")
    n_pass, n_traced = len(result["wall_s"]), len(result["traced_wall_s"])
    print(f"  wall_s       {statistics.fmean(result['wall_s']):.4f} s    "
          f"mean of {n_pass} passes")
    print(f"  setup_s      {statistics.median(result['setup_samples']):.4f} s    "
          f"median of {len(result['setup_samples'])} processes")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB   "
          "high-water mark of the measuring process")
    print(f"  fail_frac    {failed / attempted:.4g}        "
          f"{failed} of {attempted} operations failed")
    if args.trace:
        print(f"  traced passes {n_traced}; spans in {result['trace_file']}")
        for key, m in result["metrics"].items():
            if m["value"]:
                print(f"  {key:48s} {m['value']:.6g} {m['unit']}")
    for count, message in result["failures"]:
        print(f"  FAILED x{count} {message}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description="doublepack pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, one output perturbed per workload")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads(SPEC_FILE.read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, spec)
            report(name, args, results[name])
    except BenchError as exc:
        sys.exit(f"benchmark failed: {exc}")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    status = 0
    if args.smoke:
        caught = all(r["perturbed_caught"] for r in results.values())
        others = failed - len(results)
        print(f"smoke: perturbed output {'counted' if caught else 'NOT counted'} "
              f"as failed in each workload; {others} other failed operations")
        status = 0 if caught and others == 0 else 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(status)


if __name__ == "__main__":
    main()
