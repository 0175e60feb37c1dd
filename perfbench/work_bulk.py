"""The library workloads: back-to-back ``BulkExecutor.run()`` calls.

``bulk-opt`` runs Algorithm OPT on 32-gons through the native tiled kernel
from an empty kernel cache; ``bulk-mix`` cycles the default (fused NumPy)
engine through six programs whose answer is most of their memory image.
Every output is checked by ``checks``; an input batch drawn from the seeded
pool is verified against the independent reference the first time and
compared for bit identity after that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .checks import (
    BatchVerifier,
    opt_answers,
    opt_lane_failures,
    registry_lane_failures,
)
from .common import (
    MIN_CALLS_P90,
    BenchError,
    Measured,
    Tally,
    mark,
    median,
    round_rate,
)

#: Algorithm OPT on 32-gons: 26,228 IR instructions, 2,048-word images.
OPT_N = 32
#: Lanes per ``run()``.  The ROADMAP baseline is 8,192; at that width a
#: 10 s run makes about 80 calls, too few for a 90th percentile with ten
#: calls beyond it, so the benchmark halves it.
OPT_P = 4096
#: Distinct seeded input batches each program cycles through.
POOL = 2


@dataclass(frozen=True)
class MixEntry:
    """One program of ``bulk-mix``: registry name, size, lanes, layout."""

    name: str
    n: int
    p: int
    arrangement: str


#: Sized above the registry test sizes so that one call moves megabytes.
MIX = (
    MixEntry("prefix-sums", 1024, 1024, "column"),
    MixEntry("prefix-sums", 1024, 1024, "row"),
    MixEntry("bitonic-sort", 64, 4096, "column"),
    MixEntry("fft", 64, 2048, "column"),
    MixEntry("xtea", 32, 16384, "column"),
    MixEntry("crc32", 64, 2048, "column"),
)


def _timed_calls(
    rounds_body: Callable[[int], None], seconds: float, min_calls: int,
    calls: List[float],
) -> None:
    """Run whole rounds until ``seconds`` have passed and enough calls exist."""
    started = time.perf_counter()
    index = 0
    while (
        time.perf_counter() - started < seconds
        or len(calls) < min_calls
        or index % POOL
    ):
        rounds_body(index)
        index += 1


def bulk_opt(seed: int, seconds: float, tracer=None) -> Measured:
    from repro.algorithms import polygon
    from repro.algorithms.registry import get_spec, make_chord_weights
    from repro.bulk import BulkExecutor
    from repro.bulk.kernels import opt_bulk

    rng = np.random.default_rng(seed)
    weights = [make_chord_weights(rng, OPT_N, OPT_P) for _ in range(POOL)]
    batches = [polygon.pack_weights(w) for w in weights]
    references = [opt_bulk(w) for w in weights]
    del weights
    verifier = BatchVerifier(
        lambda k, out: opt_lane_failures(out, references[k], OPT_N),
        extract=lambda out: opt_answers(out, OPT_N),
    )

    mark(tracer, "setup")
    started = time.perf_counter()
    program = get_spec("opt").build(OPT_N)
    executor = BulkExecutor(program, OPT_P, "column", backend="native", threads=1)
    warm = executor.run(batches[0]).outputs
    setup = time.perf_counter() - started
    mark(tracer, "check")
    if executor.backend != "native":
        executor.close()
        raise BenchError("bulk-opt needs the native backend (a C compiler)")
    # The warm-up is set-up, not a timed operation: its verdict is kept by
    # the verifier but not counted.
    verifier.check(0, warm, Tally())
    del warm

    tally = Tally()
    calls: List[float] = []

    def one(index: int) -> None:
        k = index % POOL
        t0 = time.perf_counter()
        outputs = executor.run(batches[k]).outputs
        calls.append(time.perf_counter() - t0)
        verifier.check(k, outputs, tally)

    mark(tracer, "timed")
    try:
        _timed_calls(one, seconds, MIN_CALLS_P90, calls)
    finally:
        executor.close()
    return Measured(
        setups=[setup],
        calls=calls,
        items_per_s=round_rate(tally.attempted - tally.failed, calls, POOL),
        tally=tally,
        extra={
            "bytes_per_item": float(
                batches[0].shape[1] * batches[0].itemsize
                + program.memory_words * program.dtype.itemsize
            ),
        },
    )


def _mix_inputs(seed: int):
    from repro.algorithms.registry import get_spec

    rng = np.random.default_rng(seed)
    pools = []
    for entry in MIX:
        spec = get_spec(entry.name)
        pools.append([
            np.ascontiguousarray(spec.make_inputs(rng, entry.n, entry.p))
            for _ in range(POOL)
        ])
    return pools


def _mix_setup(entry: MixEntry, pool):
    """Build, construct and warm up one executor; returns it and its warm-up
    outputs."""
    from repro.algorithms.registry import get_spec
    from repro.bulk import BulkExecutor

    program = get_spec(entry.name).build(entry.n)
    executor = BulkExecutor(program, entry.p, entry.arrangement)
    return executor, executor.run(pool[0]).outputs


#: Times ``bulk-mix`` sets up each program in one run.  ``setup_s`` is the
#: sum of the programs' median set-up times, so one stalled set-up moves it
#: by nothing.
MIX_SETUPS = 7


def bulk_mix(seed: int, seconds: float, tracer=None) -> Measured:
    from repro.algorithms.registry import get_spec

    pools = _mix_inputs(seed)
    verifiers = [
        BatchVerifier(
            lambda k, out, entry=entry, pool=pool: registry_lane_failures(
                get_spec(entry.name), pool[k], out, entry.n
            )
        )
        for entry, pool in zip(MIX, pools)
    ]
    per_program: List[List[float]] = [[] for _ in MIX]
    executors: list = [None] * len(MIX)
    for _ in range(MIX_SETUPS):
        warm = []
        mark(tracer, "setup")
        for i, (entry, pool) in enumerate(zip(MIX, pools)):
            if executors[i] is not None:
                executors[i].close()
            started = time.perf_counter()
            executors[i], outputs = _mix_setup(entry, pool)
            per_program[i].append(time.perf_counter() - started)
            warm.append(outputs)
        mark(tracer, "check")
        for verifier, outputs in zip(verifiers, warm):
            verifier.check(0, outputs, Tally())
        del warm, outputs

    tally = Tally()
    calls: List[float] = []

    def one_round(index: int) -> None:
        k = index % POOL
        for executor, pool, verifier in zip(executors, pools, verifiers):
            t0 = time.perf_counter()
            outputs = executor.run(pool[k]).outputs
            calls.append(time.perf_counter() - t0)
            verifier.check(k, outputs, tally)

    fused_ops = float(sum(
        ex.fusion_stats.emitted_ops for ex in executors if ex.fusion_stats is not None
    ))
    mark(tracer, "timed")
    try:
        _timed_calls(one_round, seconds, MIN_CALLS_P90 * len(MIX), calls)
    finally:
        for executor in executors:
            executor.close()
    return Measured(
        setups=[sum(median(times) for times in per_program)],
        calls=calls,
        items_per_s=round_rate(
            tally.attempted - tally.failed, calls, POOL * len(MIX)
        ),
        tally=tally,
        extra={
            "bytes_per_item": sum(
                entry.p * (pool[0].shape[1] + ex.program.memory_words)
                * ex.program.dtype.itemsize
                for entry, pool, ex in zip(MIX, pools, executors)
            ) / sum(entry.p for entry in MIX),
            "fused_ops": fused_ops,
        },
        call_groups=[calls[i::len(MIX)] for i in range(len(MIX))],
    )
