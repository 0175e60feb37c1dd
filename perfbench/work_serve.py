"""``serve-sharded``: the production serving path, one shard, native backend.

One :class:`~repro.serve.router.ShardedServer` with one worker process
serves single OPT n=32 requests with the default policy, slots and batch
cap, and no guard.  Set-up starts the router and its shard and drives one
batch of every lane count up to ``max_batch``, so no executor is built in
the dispatch path while timing.  Two timed phases follow: a saturation
phase that keeps several full batches queued (``items_per_s``), with the
router and the shard on a CPU each, and an open-loop phase of seeded
Poisson arrivals well under capacity (``call_p50_ms`` / ``call_p90_ms``,
timed from each arrival's due time, as medians over two-second blocks of
the phase), with both processes on one CPU.
"""

from __future__ import annotations

import asyncio
import os
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from .common import BenchError, Measured, Tally, hwm_mb, mark, window_rate
from .kernels import (
    SERVE_LANES,
    SERVE_MAX_BATCH,
    SERVE_PROGRAM,
    SERVE_WARP,
    cached_kernels,
)
from .loadgen import open_loop, poisson_schedule, saturate

#: Distinct seeded inputs the requests draw from.
POOL_SIZE = 512
#: Open-loop arrival rate, well under capacity: with the router and the
#: shard sharing one CPU, the 90th percentile read 44.5 ms at this rate
#: against 42.8 ms at 100 req/s, interleaved block by block.  At 400 req/s
#: (on a CPU each) the router's event loop, which also runs the generator,
#: sat close enough to its limit that a slow moment of the host tipped
#: whole runs into queueing.
OPEN_RATE = 200.0
#: Share of the run given to the saturation phase; the rest is open loop.
SATURATION_SHARE = 0.4
#: Seconds at the start of the saturation phase left out of ``items_per_s``,
#: while the first requests fill the queue.
RAMP_SECONDS = 1.0
#: Seconds per window of the rest of the saturation phase; ``items_per_s``
#: is the median over the windows of the verified replies in each.
WINDOW_SECONDS = 0.5
#: Seconds of arrivals per block of the open-loop phase; ``call_p50_ms``
#: and ``call_p90_ms`` are the medians over the blocks of each block's
#: percentile (a block holds about 400 requests, so each block's 90th
#: percentile has about 40 beyond it).
OPEN_BLOCK_SECONDS = 2.0
#: Full batches kept queued beyond those the slots hold in flight.
QUEUED_BATCHES = 2


class AnswerCheck:
    """A served OPT answer must equal ``opt_bulk`` on its input, bit for bit."""

    def __init__(self, references: np.ndarray, n: int) -> None:
        from repro.algorithms.polygon import answer_address

        self.references = [references[i : i + 1].tobytes() for i in range(len(references))]
        self.address = answer_address(n)

    def __call__(self, index: int, output: np.ndarray) -> bool:
        out = np.asarray(output)
        if out.ndim != 1 or out.shape[0] <= self.address:
            return False
        return out[self.address : self.address + 1].tobytes() == self.references[index]


def _counters(server) -> Dict[str, int]:
    return dict(server.stats()["counters"])


async def warm_up(server, name: str, n: int, pool, check, tally: Tally) -> int:
    """One batch of every lane count, confirmed from the server's stats;
    returns the size in bytes of one reply."""
    for lanes in SERVE_LANES:
        before = _counters(server)
        outputs = await asyncio.gather(*(
            server.submit(name, pool[i % len(pool)], n=n) for i in range(lanes)
        ))
        after = _counters(server)
        dispatched = after.get("batches.dispatched", 0) - before.get("batches.dispatched", 0)
        padded = after.get("lanes.padded", 0) - before.get("lanes.padded", 0)
        if dispatched != 1 or padded != 0:
            raise BenchError(
                f"warm-up for {lanes} lanes ran {dispatched} batch(es) with "
                f"{padded} padded lane(s); expected one full batch"
            )
        for i, output in enumerate(outputs):
            if check(i % len(pool), output):
                tally.ok()
            else:
                tally.fail(
                    f"warm-up answer {i} of the {lanes}-lane batch is wrong",
                    wrong=True,
                )
    return int(np.asarray(outputs[0]).nbytes)


async def _serve(seed: int, seconds: float, tracer) -> Measured:
    from repro.algorithms.registry import make_chord_weights
    from repro.algorithms import polygon
    from repro.bulk.kernels import opt_bulk
    from repro.serve.router import ShardConfig, ShardedServer

    name, n = SERVE_PROGRAM
    rng = np.random.default_rng(seed)
    weights = make_chord_weights(rng, n, POOL_SIZE)
    block = polygon.pack_weights(weights)
    pool = [np.ascontiguousarray(block[i]) for i in range(POOL_SIZE)]
    check = AnswerCheck(opt_bulk(weights), n)
    saturation_seconds = seconds * SATURATION_SHARE
    if saturation_seconds < RAMP_SECONDS + 4 * WINDOW_SECONDS:
        raise BenchError(f"--seconds {seconds} leaves too short a saturation phase")
    open_seconds = seconds - saturation_seconds
    due = poisson_schedule(rng, OPEN_RATE, open_seconds)
    picks = rng.integers(0, POOL_SIZE, size=due.size)
    config = ShardConfig(shards=1, backend="native")
    if config.max_batch != SERVE_MAX_BATCH or config.warp != SERVE_WARP:
        raise BenchError("the serving defaults changed; re-prime the lane counts")

    snapshots: List[dict] = []
    cache = Path(os.environ["REPRO_CACHE_DIR"])
    primed = cached_kernels(cache)
    mark(tracer, "setup")
    started = time.perf_counter()
    server = ShardedServer(config)
    shard_rss = 0.0
    try:
        warm = Tally()
        reply_bytes = await warm_up(server, name, n, pool, check, warm)
        setup = time.perf_counter() - started
        if warm.failed:
            raise BenchError(f"warm-up answers failed: {warm.reasons[:2]}")
        compiled = cached_kernels(cache) - primed
        if compiled:
            raise BenchError(
                f"the shard compiled {len(compiled)} kernel(s) during set-up, "
                "so the primed kernel store does not match what it builds"
            )
        snapshots.append(server.stats())
        shard_pids = [s["pid"] for s in snapshots[-1]["shards"].values() if s["alive"]]
        _bind(os.getpid(), shard_pids, shared=False)

        mark(tracer, "saturation")
        outstanding = (config.slots + QUEUED_BATCHES) * config.max_batch
        saturated = await saturate(
            server, name, n, pool, check,
            outstanding=outstanding, seconds=saturation_seconds,
        )
        snapshots.append(server.stats())

        _bind(os.getpid(), shard_pids, shared=True)
        mark(tracer, "timed")
        opened = await open_loop(
            server, name, n, pool, check, due=due, picks=picks,
        )
        snapshots.append(server.stats())
        mark(tracer, "check")
        pids = [s["pid"] for s in snapshots[-1]["shards"].values() if s["alive"]]
        shard_rss = sum(hwm_mb(pid) for pid in pids)
    finally:
        _set_affinity(os.getpid(), _CPUS)
        await server.stop()
        _stop_resource_tracker()

    tally = Tally()
    tally.merge(saturated.tally)
    tally.merge(opened.tally)
    if not opened.latencies:
        raise BenchError("the open-loop phase completed no request")
    blocks = max(1, int(open_seconds // OPEN_BLOCK_SECONDS))
    grouped: List[List[float]] = [[] for _ in range(blocks)]
    for latency, offset in zip(opened.latencies, opened.due):
        grouped[min(int(offset // OPEN_BLOCK_SECONDS), blocks - 1)].append(latency)
    return Measured(
        setups=[setup],
        calls=opened.latencies,
        call_groups=grouped,
        items_per_s=window_rate(
            saturated.stamps, saturated.start + RAMP_SECONDS,
            saturation_seconds - RAMP_SECONDS, WINDOW_SECONDS,
        ),
        tally=tally,
        extra={
            "shard_rss_mb": shard_rss,
            "timed_ops": float(tally.attempted),
            "bytes_per_item": float(pool[0].nbytes + reply_bytes),
            # Stats snapshots after warm-up, saturation and the open loop.
            "snapshots": snapshots,
            "open_late": opened.late,
        },
    )


_CPUS = frozenset(os.sched_getaffinity(0))


def _set_affinity(pid: int, cpus) -> None:
    """Bind every thread of process ``pid`` to ``cpus``."""
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            os.sched_setaffinity(int(task.name), cpus)
        except (ProcessLookupError, PermissionError):
            pass  # a thread that ended meanwhile


def _bind(router_pid: int, shard_pids: List[int], *, shared: bool) -> None:
    """Bind the router to the first CPU and the shard to the second, or to
    the first as well when ``shared``.  With fewer than two CPUs nothing is
    bound.

    Saturation runs on a CPU each: unbound on a 2-CPU virtual machine, the
    two processes shared one CPU far more often in some runs than in others.
    The open loop runs on one CPU: on a CPU each, a request crosses about
    six wake-ups between two CPUs, the hypervisor's steal delays each one,
    and in 2 s blocks interleaved with blocks on one CPU the 90th percentile
    spread 0.49 (quartiles over median) against 0.10, at 5.2% steal against
    1.3%.  On one CPU the latency is the CPU work on the request's path.
    """
    cpus = sorted(_CPUS)
    if len(cpus) < 2 or len(shard_pids) != 1:
        return
    _set_affinity(router_pid, {cpus[0]})
    _set_affinity(shard_pids[0], {cpus[0] if shared else cpus[1]})


def _stop_resource_tracker() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker the router
    started, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def serve_sharded(seed: int, seconds: float, tracer=None) -> Measured:
    return asyncio.run(_serve(seed, seconds, tracer))
