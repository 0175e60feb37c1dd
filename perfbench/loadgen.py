"""Arrival generators for the serving workload, on one asyncio event loop.

* :func:`open_loop` sends seeded Poisson arrivals on a fixed schedule and
  times every request from the moment it was *due*, so a stalled loop or a
  slow server is charged to the requests it delayed; it also records how
  late each send ran behind its due time.
* :func:`saturate` keeps a fixed number of requests outstanding, enough that
  several full batches always wait, and counts the replies that land
  inside the measurement window.

Both are duck-typed on ``server.submit(workload, value, n=...)``.  A
rejection, a deadline expiry, any other error, a wrong answer and a reply
that never arrives each count as one failed operation.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from .common import Tally

#: Seconds a phase waits for outstanding replies before counting them lost.
DRAIN_TIMEOUT = 30.0


@dataclass
class PhaseResult:
    """What one load phase measured."""

    tally: Tally = field(default_factory=Tally)
    latencies: List[float] = field(default_factory=list)  # due -> reply, s
    due: List[float] = field(default_factory=list)  # offset of each latency's due time, s
    late: List[float] = field(default_factory=list)  # due -> send, s
    stamps: List[float] = field(default_factory=list)  # verified replies, s
    start: float = 0.0  # monotonic time the phase began


async def _settle(tasks: Sequence["asyncio.Task"], timeout: float, tally: Tally) -> None:
    """Wait for ``tasks``; a task still pending after ``timeout`` lost its reply."""
    if not tasks:
        return
    _, pending = await asyncio.wait(tasks, timeout=timeout)
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.gather(*pending, return_exceptions=True)
        tally.fail("no reply within the drain timeout", len(pending))
    for task in tasks:
        if not task.cancelled() and task.exception() is not None:
            raise task.exception()


async def _request(server, workload: str, n: int, value, index: int,
                   check: Callable[[int, np.ndarray], bool], tally: Tally) -> bool:
    """Submit one request; ``True`` when it came back verified."""
    from repro.errors import ReproError

    try:
        output = await server.submit(workload, value, n=n)
    except ReproError as exc:
        tally.fail(f"{type(exc).__name__}: {exc}")
        return False
    if not check(index, output):
        tally.fail(f"wrong answer for pool input {index}", wrong=True)
        return False
    tally.ok()
    return True


def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process of ``rate`` over ``seconds``."""
    # 1.5 times the expected count plus 32 draws: running short of
    # ``seconds`` is many standard deviations away.
    due = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 32))
    assert due[-1] >= seconds, "Poisson schedule drew too few arrivals"
    return due[due < seconds]


async def open_loop(
    server, workload: str, n: int, pool: Sequence[np.ndarray],
    check: Callable[[int, np.ndarray], bool], *,
    due: np.ndarray, picks: np.ndarray, drain_timeout: float = DRAIN_TIMEOUT,
) -> PhaseResult:
    """Send request ``i`` (pool input ``picks[i]``) at offset ``due[i]``."""
    result = PhaseResult()
    tasks: List["asyncio.Task"] = []

    async def one(index: int, offset: float) -> None:
        due_at = start + offset
        result.late.append(time.monotonic() - due_at)
        if await _request(server, workload, n, pool[index], index, check, result.tally):
            result.latencies.append(time.monotonic() - due_at)
            result.due.append(offset)

    start = time.monotonic()
    for offset, index in zip(due, picks):
        delay = start + float(offset) - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(int(index), float(offset))))
    await _settle(tasks, drain_timeout, result.tally)
    return result


async def saturate(
    server, workload: str, n: int, pool: Sequence[np.ndarray],
    check: Callable[[int, np.ndarray], bool], *,
    outstanding: int, seconds: float, drain_timeout: float = DRAIN_TIMEOUT,
) -> PhaseResult:
    """Keep ``outstanding`` requests in the server for ``seconds``.

    ``stamps`` records when each verified reply landed before the time was
    up; replies after it are verified and counted but not stamped.
    """
    result = PhaseResult(start=time.monotonic())
    end = result.start + seconds

    async def client(first: int) -> None:
        index = first
        while time.monotonic() < end:
            pick = index % len(pool)
            index += outstanding
            if await _request(server, workload, n, pool[pick], pick, check, result.tally):
                now = time.monotonic()
                if now <= end:
                    result.stamps.append(now)

    tasks = [asyncio.ensure_future(client(i)) for i in range(outstanding)]
    await _settle(tasks, seconds + drain_timeout, result.tally)
    return result
