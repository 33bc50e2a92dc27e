"""Benchmark command: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload shards64 --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer breakdown of a traced run instead.  The
last line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the exit code is 0 only when every output check
passed.  Scratch files live under ``.bench_build/perfbench/`` in the
repository and are removed at exit; the result record (with the host) and the
span traces stay in ``.bench_build/perfbench/results/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="length of the serve stage's open loop",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_record(args: argparse.Namespace) -> dict:
    """Where and how this result was measured."""
    import numpy as np
    from repro.kernels import kernel_info

    return {
        "cpu_count": os.cpu_count(),
        "kernel_tier": kernel_info()["active"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Keep the kernel build cache and every temporary file inside the checkout.
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD.parent / "repro-kernels")
    work_dir = BUILD / f"run-{os.getpid()}"
    trace_dir = BUILD / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (work_dir / "tmp").mkdir(parents=True, exist_ok=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work_dir / "tmp")
    tempfile.tempdir = None
    # SIGTERM unwinds through the finally blocks, which stop the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import bench_layers
    import bench_stages

    plan = bench_stages.WORKLOADS.get(args.workload)
    if plan is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench_stages.WORKLOADS)}", file=sys.stderr)
        return 2
    pipeline = None
    try:
        host = host_record(args)
        print("# host " + json.dumps(host), flush=True)
        pipeline = bench_stages.Pipeline(plan, args.seed, args.seconds, work_dir, SRC)
        if args.trace:
            metrics = bench_stages.traced(pipeline, trace_dir)
            units = bench_layers.PER_LAYER_UNITS
        else:
            metrics = bench_stages.untraced(pipeline)
            units = bench_stages.END_TO_END_UNITS
        outcome = pipeline.outcome
    except Exception:  # noqa: BLE001 - the run reports the failure and exits non-zero
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if pipeline is not None:
            pipeline.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in outcome.problems:
        print(f"# check failed: {problem}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    (trace_dir / "result.json").write_text(
        json.dumps({"host": host, "problems": outcome.problems, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
