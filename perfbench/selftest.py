#!/usr/bin/env python3
"""Self-tests of the benchmark's checkers; every run calls :func:`run_all`.

Each test plants one fault and demands that the checker counts it as a
failed operation, never as a pass: a flipped answer word (bulk and
serving), a dropped reply and a rejection (load generators).  Run
standalone from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import numpy as np

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench.checks import (  # noqa: E402
    BatchVerifier,
    opt_answers,
    opt_lane_failures,
)
from perfbench.common import BenchError, Tally  # noqa: E402


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise BenchError(f"benchmark self-test failed: {what}")


def _flip(word: np.ndarray) -> None:
    """Flip one mantissa bit of a float64 array's first element, in place."""
    word.view(np.int64)[0] ^= 1 << 20


def flipped_answer_word() -> None:
    from repro.algorithms.registry import get_spec
    from repro.bulk import BulkExecutor
    from repro.bulk.kernels import opt_bulk

    n, p = 6, 8
    spec = get_spec("opt")
    weights = spec.make_inputs(np.random.default_rng(0), n, p)
    reference = opt_bulk(weights[:, : n * n].reshape(p, n, n))
    executor = BulkExecutor(spec.build(n), p)
    try:
        outputs = executor.run(weights).outputs
    finally:
        executor.close()
    verifier = BatchVerifier(
        lambda k, out: opt_lane_failures(out, reference, n),
        extract=lambda out: opt_answers(out, n),
    )
    clean = Tally()
    verifier.check(0, outputs, clean)
    _expect(clean.failed == 0 and clean.attempted == p, "a correct OPT batch passes")

    from repro.algorithms.polygon import answer_address

    bad = outputs.copy()
    _flip(bad[3, answer_address(n) :])
    first = BatchVerifier(
        lambda k, out: opt_lane_failures(out, reference, n),
        extract=lambda out: opt_answers(out, n),
    )
    tally = Tally()
    first.check(0, bad, tally)
    _expect(tally.failed == 1 and tally.wrong == 1,
            "a flipped answer word fails against the reference")
    tally = Tally()
    verifier.check(0, bad, tally)
    _expect(tally.failed == 1, "a flipped answer word fails the bit-identity check")

    from perfbench.work_serve import AnswerCheck

    check = AnswerCheck(reference, n)
    _expect(check(3, outputs[3]), "a correct served answer passes")
    row = outputs[3].copy()
    _flip(row[answer_address(n) :])
    _expect(not check(3, row), "a flipped served answer word fails")


class _FakeServer:
    """Echoes its input, drops the reply to one value, rejects another."""

    def __init__(self, drop: int, reject: int) -> None:
        self.drop, self.reject = drop, reject

    async def submit(self, workload, value, *, n=None):
        from repro.errors import ServerOverloadedError

        key = int(value[0])
        if key == self.reject:
            raise ServerOverloadedError("planted rejection", key=workload, depth=0)
        if key == self.drop:
            await asyncio.Event().wait()  # never answered
        await asyncio.sleep(0)
        return np.asarray(value)


def dropped_reply() -> None:
    from perfbench.loadgen import open_loop

    pool = [np.array([float(i)]) for i in range(6)]
    server = _FakeServer(drop=2, reject=4)
    result = asyncio.run(open_loop(
        server, "echo", 1, pool, lambda i, out: float(out[0]) == i,
        due=np.linspace(0.0, 0.01, 6), picks=np.arange(6), drain_timeout=0.2,
    ))
    _expect(result.tally.attempted == 6, "every sent request is attempted")
    _expect(result.tally.failed == 2,
            "a dropped reply and a rejection each count as one failure")
    _expect(len(result.latencies) == 4, "only verified replies carry a latency")


TESTS = (flipped_answer_word, dropped_reply)


def run_all() -> None:
    for test in TESTS:
        test()


if __name__ == "__main__":
    try:
        run_all()
    except BenchError as exc:
        print(exc, file=sys.stderr)
        sys.exit(1)
    print(f"{len(TESTS)} checker self-tests passed")
