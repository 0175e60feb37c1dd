"""Shared pieces of the benchmark: statistics, counters, clocks and memory.

Nothing here imports ``repro``: ``run.py`` puts the checkout's ``src`` on
``sys.path`` and isolates the environment first, then the workload modules
import the library.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Root of the checkout the benchmark runs in (the parent of ``perfbench``).
ROOT = Path(__file__).resolve().parent.parent

#: Fewest samples that must lie beyond a reported 90th percentile.
TAIL_SAMPLES = 10

#: Smallest sample count from which a 90th percentile is taken.
MIN_CALLS_P90 = math.ceil(TAIL_SAMPLES / 0.10)


#: Timed passes of the host reference loop at each end of a run.
CALIB_REPEATS = 5


class BenchError(Exception):
    """A run that cannot produce a result (set-up failure, missing tree)."""


def median(values: Sequence[float]) -> float:
    if len(values) == 0:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def quantile(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        raise BenchError("quantile of no samples")
    return float(np.quantile(values, q))


def tail_p90(values: Sequence[float]) -> float:
    """The 90th percentile, refused unless ten samples lie beyond it."""
    if len(values) < MIN_CALLS_P90:
        raise BenchError(
            f"a 90th percentile needs {MIN_CALLS_P90} samples, got {len(values)}"
        )
    return quantile(values, 0.90)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failures that are wrong outputs, not refusals or losses
    reasons: List[str] = field(default_factory=list)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1, *, wrong: bool = False) -> None:
        self.attempted += count
        self.failed += count
        if wrong:
            self.wrong += count
        if len(self.reasons) < 8:
            self.reasons.append(reason)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.reasons.extend(other.reasons[: max(0, 8 - len(self.reasons))])


@dataclass
class Measured:
    """What one workload measured: the inputs of the end-to-end metrics."""

    setups: List[float]
    calls: List[float]  # seconds per timed call
    items_per_s: float  # see round_rate and window_rate
    tally: Tally
    extra: Dict[str, object] = field(default_factory=dict)
    #: ``calls`` split into groups: programs of different speeds, or time
    #: blocks of a phase.  The percentiles are then the medians of the
    #: groups' percentiles, so neither the gap between two programs' time
    #: ranges nor a host slowdown in one block decides them.
    call_groups: Optional[List[Sequence[float]]] = None

    def call_p50(self) -> float:
        return median([median(group) for group in self.call_groups or [self.calls]])

    def call_p90(self) -> float:
        return median([tail_p90(group) for group in self.call_groups or [self.calls]])

    def end_to_end(self, peak_rss_mb: float) -> Dict[str, float]:
        if self.items_per_s <= 0:
            raise BenchError("the timed phase completed no items")
        return {
            "setup_s": median(self.setups),
            "items_per_s": self.items_per_s,
            "call_p50_ms": self.call_p50() * 1e3,
            "call_p90_ms": self.call_p90() * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }


def round_rate(verified: int, calls: Sequence[float], per_round: int) -> float:
    """Verified items per second of timed work, robust to host stalls.

    ``calls`` holds whole rounds of the same ``per_round`` operations in
    order.  Each operation is timed by its median over the rounds, so a
    stall charges one round, not the figure.
    """
    rounds = len(calls) // per_round
    if rounds < 1 or rounds * per_round != len(calls):
        raise BenchError(f"{len(calls)} calls are not whole rounds of {per_round}")
    seconds = sum(
        median(calls[i::per_round]) for i in range(per_round)
    )
    return verified / rounds / seconds


def window_rate(stamps: Sequence[float], start: float, seconds: float,
                width: float) -> float:
    """Items per second, robust to host stalls: the median over the whole
    windows of ``width`` seconds in ``[start, start + seconds)`` of the
    completion ``stamps`` in each, divided by ``width``."""
    counts = [0] * int(seconds // width)
    for stamp in stamps:
        index = int((stamp - start) // width)
        if 0 <= index < len(counts):
            counts[index] += 1
    return median(counts) / width


def hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process), MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python plus NumPy reference loop.

    The loop's work never changes, so a shift in its time between two runs
    is the host's, not the program's.
    """

    def once() -> float:
        started = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc + i * i) % 1_000_003
        block = np.arange(1 << 20, dtype=np.float64)
        for _ in range(20):
            block = np.sqrt(block * 1.0000001 + 1.0)
        elapsed = time.perf_counter() - started
        if acc < 0 or not block[0] > 0:  # keeps both results live
            raise BenchError("reference loop miscomputed")
        return elapsed * 1e3

    once()  # the first pass pays page faults and cold caches
    return median([once() for _ in range(CALIB_REPEATS)])


def private_env(run_dir: Path) -> Dict[str, str]:
    """Environment giving one run its own home, kernel cache and promotions.

    No autotune entry, promotion, kernel or temporary file of another run
    is visible, and nothing this run writes outlives it.
    """
    env = {
        "HOME": run_dir / "home",
        "REPRO_CACHE_DIR": run_dir / "kernels",
        "TMPDIR": run_dir / "tmp",
    }
    for path in env.values():
        path.mkdir(parents=True, exist_ok=True)
    out = {key: str(value) for key, value in env.items()}
    out["REPRO_AUTOFIX_PROMOTIONS"] = str(run_dir / "promotions.json")
    out["REPRO_AUTOFIX"] = "1"
    for knob in ("REPRO_NATIVE_TILE", "REPRO_NATIVE_THREADS", "REPRO_NO_OPENMP",
                 "REPRO_CACHE_MAX_BYTES", "REPRO_ARENA_MAX_BYTES",
                 "REPRO_INCIDENT_MAX", "REPRO_TRACE"):
        out[knob] = ""
    return out


def apply_env(env: Dict[str, str]) -> None:
    for key, value in env.items():
        if value:
            os.environ[key] = value
        else:
            os.environ.pop(key, None)


def mark(tracer, phase: str) -> None:
    """Tell the tracer (when one is installed) which phase starts now."""
    if tracer is not None:
        tracer.mark(phase)
