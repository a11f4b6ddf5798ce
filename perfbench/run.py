"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload population --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  Set-up is timed in a few fresh
processes (imports included) and once more in this one; then this process
runs passes over the workload's task list for `--seconds` seconds.  With
`--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer metrics from a run that makes each pass twice, traced and
untraced.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full result (run
metadata, every check with its band, per-pass values) and, when traced, the
spans are written under `--out`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("population", "incidence", "ancestry")
SETUP_PROBES = 2  # extra fresh processes timing set-up; the run itself is one more
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "EPI_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench_out",
                    help="directory for result and span files")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process, print it, and exit")
    return ap.parse_args(argv)


def timed_setup(workload: str, seed: int, trace: bool):
    """Imports plus the workload's set-up, timed from before the first
    import of numpy or epichain."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    tracer = harness.Tracer(trace)
    work = harness.setup(workload, seed, tracer, harness.Sizes())
    return time.perf_counter() - t0, harness, tracer, work


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def git_commit() -> str:
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    top, commit = done.stdout.split()
    return commit if Path(top).resolve() == ROOT else "unknown"


def metadata(args, n_passes: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": n_passes, "commit": git_commit(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "epichain" / "__init__.py").is_file():
        print(f"perfbench: no epichain sources under {ROOT / 'src'}; "
              "run from a full source checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_s = timed_setup(args.workload, args.seed, False)[0]
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_times = [probe_setup(args) for _ in range(SETUP_PROBES)]
    setup_s, harness, tracer, work = timed_setup(args.workload, args.seed, bool(args.trace))
    setup_times.append(setup_s)
    passes = harness.run_passes(work, args.seconds, tracer if args.trace else None)

    if args.trace:
        metrics = harness.per_layer_metrics(passes)
    else:
        metrics = harness.end_to_end_metrics(passes, setup_times)
    checks = harness.check_records(passes)
    attempted, failed = harness.check_totals(passes)
    meta = metadata(args, len(passes))

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    result = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed,
        "setup_times_s": setup_times,
        "passes": [{"index": r["index"], "traced": r["traced"], "wall_s": r["wall_s"],
                    "cpu_s": r["cpu_s"], "counts": r["counts"]} for r in passes],
        "checks": checks,
    }
    (args.out / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        spans = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                  "task": s.task} for s in tracer.spans]
        (args.out / f"{stem}.spans.json").write_text(json.dumps(spans))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} commit={meta['commit']} nproc={meta['nproc']} "
          f"python={meta['python']} numpy={meta['numpy']} scipy={meta['scipy']} "
          f"threads={meta['thread_env'] or 'default'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  checks: {attempted} attempted, {failed} failed; "
          f"values and bands in {args.out / (stem + '.json')}")
    for c in checks:
        if not c["passed"]:
            print(f"  FAILED {c['name']}: {c['value']:.6g} > {c['band']:.6g}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
