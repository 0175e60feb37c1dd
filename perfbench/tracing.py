"""Traced runs: spans around the library's public entry points.

The wrappers live here, not in the library: :class:`Tracer` replaces a
function or method attribute with a timing shim while a traced run lasts
and restores it afterwards.  Spans are kept in memory as ``(layer, name,
start, end, parent, phase)`` and reduced to per-layer metrics when the run
ends.  A layer's self time is its spans' time minus their child spans.

In the serving workload the shard is a forked process.  The router-side
wrappers pass straight through there; only the set-up entry points (program
builds, C emission, compiles, executor construction) are recorded inside
the shard, written to a file when the shard stops, and merged.  Per-batch
timing inside the shard comes from what the router already reports
(``shard.<id>.batch_seconds``).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from .common import Measured, Tally, median, quantile

#: Layers whose self time a traced run reports per timed operation.
SELF_TIME_LAYERS = ("bulk", "serve", "machine")

#: ``(layer, span name, [(module or "module:Class", attribute), ...])``.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[Tuple[str, str], ...]], ...] = (
    ("codegen", "emit", (("repro.codegen.c_emitter", "emit_bulk_c"),
                         ("repro.codegen.compile", "emit_bulk_c"))),
    ("codegen", "compile", (("repro.codegen.compile", "cached_library"),
                            ("repro.codegen.cache", "cached_library"))),
    ("codegen", "kernel", (("repro.codegen.compile:CompiledBulkKernel", "__post_init__"),)),
    ("bulk", "construct", (("repro.bulk.engine:BulkExecutor", "__init__"),)),
    ("bulk", "load", (("repro.bulk.engine:BulkExecutor", "load"),)),
    ("bulk", "execute", (("repro.codegen.compile:CompiledBulkKernel", "run_bulk"),
                         ("repro.bulk.fusion:FusedProgram", "run"))),
    ("bulk", "unpack", (("repro.bulk.arrangement:ColumnWise", "unpack"),
                        ("repro.bulk.arrangement:RowWise", "unpack"),
                        ("repro.bulk.arrangement:PaddedRowWise", "unpack"),
                        ("repro.bulk.arrangement:Arrangement", "unpack_rows_into"))),
    ("bulk", "fuse", (("repro.bulk.engine", "compile_fused"),)),
    ("serve", "verify", (("repro.serve.shm:SlotArena", "output_checksum"),)),
    ("machine", "price", (("repro.bulk", "simulate_bulk"),
                          ("repro.bulk.simulate", "simulate_bulk"),
                          ("repro.bulk.simulate", "analytic_kernel"),
                          ("repro.analysis.lint.cost", "analytic_kernel"),
                          ("repro.serve.router", "placement_units"),
                          ("repro.serve.supervisor", "placement_units"))),
    ("analysis", "prove", (("repro.analysis.lint.equiv", "prove_equivalent"),
                           ("repro.analysis.lint.linter", "prove_equivalent"),
                           ("repro.autofix.verify", "prove_equivalent"))),
    ("autofix", "resolve", (("repro.autofix.store:PromotionStore", "resolve"),)),
)

#: Spans a forked shard records: set-up only, never per batch.
SHARD_SPANS = {"build", "emit", "compile", "kernel", "construct", "fuse", "resolve"}


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder with attribute patching."""

    def __init__(self, shard_dir: Path) -> None:
        self.pid = os.getpid()
        self.shard_dir = shard_dir
        self.spans: List[list] = []
        self.phase = "pre"
        self.setups = 0
        self.kernel_bytes = 0
        self.in_shard = False
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self.shard_stats: List[dict] = []

    # -- phases ------------------------------------------------------------
    def mark(self, phase: str) -> None:
        self.phase = phase
        if phase == "setup":
            self.setups += 1

    # -- spans -------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _shim(self, layer: str, name: str, original: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid or (
                tracer.in_shard and name not in SHARD_SPANS
            ):
                return original(*args, **kwargs)
            stack = tracer._stack()
            index = len(tracer.spans)
            span = [layer, name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, tracer.phase]
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = time.perf_counter()
            if name == "compile" and isinstance(result, Path):
                tracer.kernel_bytes += result.stat().st_size
            return result

        traced.__wrapped__ = original
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        shims: Dict[int, Callable] = {}
        for layer, name, targets in ENTRY_POINTS:
            for path, attr in targets:
                owner = _owner(path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                shim = shims.get(id(original))
                if shim is None:
                    shim = shims[id(original)] = self._shim(layer, name, original)
                self._patch(owner, attr, shim)
        self._install_builds()
        self._install_shard_hook()

    def _install_builds(self) -> None:
        from repro.algorithms import registry

        for key, spec in list(registry.REGISTRY.items()):
            self._patches.append((registry.REGISTRY, key, spec))
            registry.REGISTRY[key] = dataclasses.replace(
                spec, build=self._shim("trace", "build", spec.build)
            )

    def _install_shard_hook(self) -> None:
        import repro.serve.router as router

        original = router.shard_main
        tracer = self

        def shard_main(*args, **kwargs):
            # Runs in the forked shard: record its set-up spans only.
            tracer.pid = os.getpid()
            tracer.spans = []
            tracer.kernel_bytes = 0
            tracer.in_shard = True
            tracer.phase = "shard"
            tracer._local = threading.local()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._dump_shard()

        self._patch(router, "shard_main", shard_main)

    def _dump_shard(self) -> None:
        from repro.codegen.cache import cache_stats
        from repro.reliability.incidents import incident_summary

        self.shard_dir.mkdir(parents=True, exist_ok=True)
        path = self.shard_dir / f"shard-{os.getpid()}.json"
        path.write_text(json.dumps({
            "spans": self.spans,
            "kernel_bytes": self.kernel_bytes,
            "cache_misses": cache_stats().misses,
            "incidents": sum(incident_summary().values()),
        }))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def collect_shards(self) -> None:
        for path in sorted(self.shard_dir.glob("shard-*.json")):
            self.shard_stats.append(json.loads(path.read_text()))


# -- reduction --------------------------------------------------------------


def _self_times(spans: Sequence[list]) -> List[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def _outermost(spans: Sequence[list], key: Callable[[list], bool]) -> List[list]:
    """Spans matching ``key`` with no ancestor that also matches."""
    out = []
    for span in spans:
        if not key(span):
            continue
        parent = span[4]
        while parent >= 0 and not key(spans[parent]):
            parent = spans[parent][4]
        if parent < 0:
            out.append(span)
    return out


def _med_ms(spans: Sequence[list]) -> float:
    return median([s[3] - s[2] for s in spans]) * 1e3 if spans else 0.0


def _total(spans: Sequence[list]) -> float:
    return sum(s[3] - s[2] for s in spans)


def _hist_phase(snapshots: Sequence[dict], name: str, a: int, b: int) -> float:
    """Mean of histogram ``name`` over the observations between snapshots."""
    def parts(i):
        h = snapshots[i]["histograms"].get(name, {"count": 0, "mean": 0.0})
        return h["count"], h["count"] * h["mean"]

    (c0, s0), (c1, s1) = parts(a), parts(b)
    return (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0


def _count_phase(snapshots: Sequence[dict], name: str, a: int, b: int) -> float:
    return float(snapshots[b]["counters"].get(name, 0) - snapshots[a]["counters"].get(name, 0))


def _counters() -> Dict[str, float]:
    from repro.bulk.arena import arena_stats
    from repro.codegen.cache import cache_stats
    from repro.reliability.incidents import incident_summary

    return {
        "cache_misses": float(cache_stats().misses),
        "arena_misses": float(arena_stats().misses),
        "incidents": float(sum(incident_summary().values())),
    }


def traced_run(
    workload, seed: int, seconds: float, fresh_state: Callable[[], None],
) -> Tuple[Tally, Dict[str, Tuple[float, str]]]:
    """Run ``workload`` untraced, then traced; return the per-layer metrics.

    The untraced run comes first, so any cost a second run in one process
    pays lands on the traced side of the overhead.  ``fresh_state`` gives
    the traced run a kernel cache in the state the untraced one started
    from; the buffer arena is emptied as well.
    """
    import gc

    from repro.bulk.arena import clear_arena

    untraced = workload(seed, seconds, None)
    fresh_state()
    clear_arena()
    gc.collect()
    tracer = Tracer(Path(os.environ.get("TMPDIR", ".")) / "shard-spans")
    before = _counters()
    tracer.install()
    try:
        traced = workload(seed, seconds, tracer)
    finally:
        tracer.uninstall()
    after = _counters()
    tracer.collect_shards()
    tally = Tally()
    tally.merge(traced.tally)
    tally.merge(untraced.tally)
    return tally, layer_metrics(tracer, traced, untraced, before, after)


def layer_metrics(tracer: Tracer, traced: Measured, untraced: Measured,
                  before: Dict[str, float], after: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    spans = tracer.spans
    shard_spans = [s for doc in tracer.shard_stats for s in doc["spans"]]
    setups = max(tracer.setups, 1)
    timed_phases = ("timed", "saturation")
    calls = float(traced.extra.get("timed_ops", len(traced.calls))) or 1.0

    def named(name: str, phases: Sequence[str] = ()) -> List[list]:
        """Outermost spans called ``name``, optionally only in ``phases``."""
        found = _outermost(spans, lambda s: s[1] == name)
        return [s for s in found if not phases or s[5] in phases]

    def setup_total(name: str) -> float:
        # Router- or library-side set-up plus the shard's (all set-up).
        own = named(name, ("setup",))
        return (_total(own) + _total(_outermost(shard_spans, lambda s: s[1] == name))) / setups

    def setup_count(name: str) -> float:
        own = [s for s in spans if s[1] == name and s[5] == "setup"]
        return (len(own) + sum(1 for s in shard_spans if s[1] == name)) / setups

    out: Dict[str, Tuple[float, str]] = {}
    out["trace.build_s"] = (setup_total("build"), "s")
    out["codegen.emit_s"] = (setup_total("emit"), "s")
    out["codegen.compile_s"] = (setup_total("compile"), "s")
    out["codegen.kernels"] = (setup_count("kernel"), "count")
    shard_bytes = sum(doc["kernel_bytes"] for doc in tracer.shard_stats)
    out["codegen.kernel_bytes"] = ((tracer.kernel_bytes + shard_bytes) / setups, "bytes")
    shard_misses = sum(doc["cache_misses"] for doc in tracer.shard_stats)
    out["codegen.cache_misses"] = (
        (after["cache_misses"] - before["cache_misses"] + shard_misses) / setups, "count"
    )
    out["bulk.construct_s"] = (setup_total("construct"), "s")
    out["bulk.load_ms"] = (_med_ms(named("load", timed_phases)), "ms")
    out["bulk.execute_ms"] = (_med_ms(named("execute", timed_phases)), "ms")
    out["bulk.unpack_ms"] = (_med_ms(named("unpack", timed_phases)), "ms")
    out["bulk.bytes_per_item"] = (float(traced.extra.get("bytes_per_item", 0.0)), "bytes")
    out["bulk.fuse_s"] = (setup_total("fuse"), "s")
    out["bulk.fused_ops"] = (float(traced.extra.get("fused_ops", 0.0)), "count")
    out["bulk.arena_misses"] = ((after["arena_misses"] - before["arena_misses"]) / setups, "count")
    traced_p50 = traced.call_p50() * 1e3
    phases = out["bulk.load_ms"][0] + out["bulk.execute_ms"][0] + out["bulk.unpack_ms"][0]
    out["bulk.phase_cover"] = (phases / traced_p50 if phases else 0.0, "ratio")

    snaps = traced.extra.get("snapshots")
    if snaps:
        wait = _hist_phase(snaps, "queue.time_to_first_dispatch_seconds", 1, 2) * 1e3
        batch = _hist_phase(snaps, "shard.0.batch_seconds", 1, 2) * 1e3
        latency = _hist_phase(snaps, "request.latency_seconds", 1, 2) * 1e3
        done = _count_phase(snaps, "requests.completed", 0, 1)
        batches = _count_phase(snaps, "batches.dispatched", 0, 1)
        padded = _count_phase(snaps, "lanes.padded", 0, 1)
        out["serve.queue_wait_ms"] = (wait, "ms")
        out["serve.batch_ms"] = (batch, "ms")
        out["serve.overhead_ms"] = (latency - wait - batch, "ms")
        out["serve.batch_size"] = (done / batches if batches else 0.0, "count")
        out["serve.occupancy"] = (done / (done + padded) if done else 0.0, "ratio")
        out["loadgen.late_ms"] = (quantile(traced.extra["open_late"], 0.99) * 1e3, "ms")
    else:
        for name, unit in (("serve.queue_wait_ms", "ms"), ("serve.batch_ms", "ms"),
                           ("serve.overhead_ms", "ms"), ("serve.batch_size", "count"),
                           ("serve.occupancy", "ratio"), ("loadgen.late_ms", "ms")):
            out[name] = (0.0, unit)
    out["serve.verify_ms"] = (_med_ms(named("verify", timed_phases)), "ms")

    machine = [
        s for s in _outermost(spans, lambda s: s[0] == "machine")
        if s[5] in timed_phases
    ]
    out["machine.price_ms"] = (_med_ms(machine), "ms")
    out["machine.price_calls"] = (len(machine) / calls, "count")
    out["analysis.prove_ms"] = (_med_ms(named("prove")), "ms")
    out["autofix.resolve_ms"] = (_med_ms(named("resolve")), "ms")
    shard_incidents = sum(doc["incidents"] for doc in tracer.shard_stats)
    out["reliability.incidents"] = (
        after["incidents"] - before["incidents"] + shard_incidents, "count"
    )

    selfs = _self_times(spans)
    for layer in SELF_TIME_LAYERS:
        total = sum(t for s, t in zip(spans, selfs)
                    if s[0] == layer and s[5] in timed_phases)
        out[f"{layer}.self_ms"] = (total / calls * 1e3, "ms")

    untraced_p50 = untraced.call_p50() * 1e3
    out["tracing.items_pct"] = (
        (untraced.items_per_s - traced.items_per_s) / untraced.items_per_s * 100.0, "%"
    )
    out["tracing.p50_pct"] = ((traced_p50 - untraced_p50) / untraced_p50 * 100.0, "%")
    return out
