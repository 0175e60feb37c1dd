#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bulk-opt --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload untraced, then again with span wrappers
around the library's public entry points, and prints the per-layer
metrics with the tracing overhead.  Every run first checks the
benchmark's own checkers (``selftest.py``), gets a private home, kernel
cache and promotions file under ``.bench_build``, and times a fixed host
reference loop at its start and end (``host.calib_ms``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import common  # noqa: E402

WORKLOADS = ("bulk-opt", "bulk-mix", "serve-sharded")

#: Metric units, as BENCHMARK.json names them.
E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _workload(name: str):
    if name == "bulk-opt":
        from perfbench.work_bulk import bulk_opt
        return bulk_opt
    if name == "bulk-mix":
        from perfbench.work_bulk import bulk_mix
        return bulk_mix
    from perfbench.work_serve import serve_sharded
    return serve_sharded


def _peak_rss(measured: common.Measured) -> float:
    return common.hwm_mb() + float(measured.extra.get("shard_rss_mb", 0.0))


def _run(args, run_dir: Path) -> dict:
    env = common.private_env(run_dir)
    common.apply_env(env)
    sys.path.insert(0, str(ROOT / "src"))
    from repro.autofix.store import PromotionStore, save_promotions

    from perfbench import kernels, selftest

    save_promotions(env["REPRO_AUTOFIX_PROMOTIONS"], PromotionStore())
    selftest.run_all()
    # Serving starts warm, as a restart does; bulk-opt starts cold.
    warm_start = args.workload == "serve-sharded"
    if warm_start:
        kernels.prime(env)
        kernels.install(Path(env["REPRO_CACHE_DIR"]))

    def fresh_state() -> None:
        cache = run_dir / "kernels-traced"
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        cache.mkdir(parents=True, exist_ok=True)
        if warm_start:
            kernels.install(cache)

    workload = _workload(args.workload)
    calib = [common.calibrate()]
    if args.trace:
        from perfbench.tracing import traced_run

        tally, metrics = traced_run(workload, args.seed, args.seconds, fresh_state)
        units = {name: unit for name, (_, unit) in metrics.items()}
        values = {name: value for name, (value, _) in metrics.items()}
    else:
        measured = workload(args.seed, args.seconds, None)
        tally = measured.tally
        values = measured.end_to_end(_peak_rss(measured))
        units = E2E_UNITS
    calib.append(common.calibrate())
    calib_ms = sum(calib) / len(calib)
    if args.trace:
        values["host.calib_ms"] = calib_ms
        units["host.calib_ms"] = "ms"
    print(
        f"host.calib_ms {calib_ms:.3f} (start {calib[0]:.3f}, end {calib[1]:.3f})"
    )
    for reason in tally.reasons:
        print(f"failed: {reason}")
    return {
        "correct": tally.wrong == 0,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in sorted(values)
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".bench_build" / "perfbench-runs" / (
        f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    )
    try:
        result = _run(args, run_dir)
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
