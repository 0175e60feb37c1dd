"""The primed kernel store: serving starts warm, as a restart does.

``serve-sharded`` builds one native OPT kernel per batch lane count.  Before
every run, untimed, the priming workers build those kernels against a
persistent store under ``.bench_build``; the store is the library's own
content-addressed kernel cache, so an entry it already holds costs only the
C emission and a tree that emits different C compiles its own.  The run
then copies the store into its private ``REPRO_CACHE_DIR``.

Run as a script, this module is the priming worker: it builds the kernels
for the lane counts named on its command line into ``$REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Sequence, Set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STORE = ROOT / ".bench_build" / "perfbench-kernels"

#: The serving workload's program and batch lane counts.
SERVE_PROGRAM = ("opt", 32)
SERVE_WARP = 32
SERVE_MAX_BATCH = 256
SERVE_LANES = tuple(range(SERVE_WARP, SERVE_MAX_BATCH + 1, SERVE_WARP))

#: Priming workers; the host has two CPUs and each gcc run is one thread.
PRIME_WORKERS = 2


def prime(env: Dict[str, str], lanes: Sequence[int] = SERVE_LANES) -> None:
    """Build the serving kernels into the store (hits cost only emission)."""
    STORE.mkdir(parents=True, exist_ok=True)
    child_env = dict(os.environ)
    child_env.update({k: v for k, v in env.items() if v})
    child_env["REPRO_CACHE_DIR"] = str(STORE)
    shares = [list(lanes[i::PRIME_WORKERS]) for i in range(PRIME_WORKERS)]
    workers = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__)), *map(str, share)],
            env=child_env, stdout=subprocess.DEVNULL,
        )
        for share in shares if share
    ]
    codes = [worker.wait() for worker in workers]
    if any(codes):
        raise RuntimeError(f"kernel priming failed with exit codes {codes}")


def install(cache_dir: Path) -> int:
    """Copy every stored kernel into a run's private kernel cache."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    files = list(STORE.glob("*.so"))
    for path in files:
        shutil.copy2(path, cache_dir / path.name)
    return len(files)


def cached_kernels(cache_dir: Path) -> Set[str]:
    """Names of the compiled kernels in ``cache_dir``; a compile adds one."""
    return {path.name for path in cache_dir.glob("*.so")}


def _build(lanes: Sequence[int]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.algorithms.registry import get_spec
    from repro.bulk import BulkExecutor

    name, n = SERVE_PROGRAM
    program = get_spec(name).build(n)
    for k in lanes:
        # The same construction a shard makes for a batch of ``k`` lanes.
        BulkExecutor(program, k, "column", backend="native").close()


if __name__ == "__main__":
    _build([int(arg) for arg in sys.argv[1:]])
