"""Closed-loop runner: one client, one thread, one operation at a time.

Each operation gets a freshly built cluster (set-up, kept out of the
operation's wall time), is submitted, run to completion on the simulator
and checked against the benchmark's own reference before the next one is
submitted.  An untraced run (``trace=False``) gives the end-to-end
metrics.  A traced run interleaves untraced and traced operations, so the
tracing overhead is measured on the same inputs in the same process, and
gives the per-layer metrics (see :mod:`perfbench.spans`).
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy

from repro.bench.harness import bench_metadata

from .spans import OP, STEP, SpanLog, op_layers, traced_op
from .workloads import WORKLOADS

__all__ = ["run", "environment", "LAYER_SELF_TIMES"]

#: How many times the inputs are generated; set-up reports the median.
SETUP_REPS = 3

#: Per-layer self-time metrics and the span each is read from; together
#: with ``trace.residual_s`` they add up to ``trace.wall_s``.
LAYER_SELF_TIMES = {
    "simcore.step_self_s": STEP,
    "operators.self_s": "operators",
    "cluster.self_s": "cluster",
    "net.allocate_s": "net.allocate",
    "shuffle.write_s": "shuffle.write",
    "integrity.seal_s": "integrity.seal",
    "integrity.verify_s": "integrity.verify",
    "storage.rs_encode_s": "storage.rs_encode",
    "storage.rs_decode_s": "storage.rs_decode",
}

#: Per-layer call counts and the span each counts.
LAYER_CALLS = {
    "simcore.events": STEP,
    "cluster.calls": "cluster",
    "net.allocate_calls": "net.allocate",
    "shuffle.write_calls": "shuffle.write",
    "integrity.seal_calls": "integrity.seal",
    "integrity.verify_calls": "integrity.verify",
    "storage.rs_encode_calls": "storage.rs_encode",
    "storage.rs_decode_calls": "storage.rs_decode",
}

#: Counters the program itself keeps, per operation (0 where absent).
PROGRAM_COUNTS = (
    "net.transfers", "net.bytes", "engine.tasks", "engine.failed_attempts",
    "engine.shuffle_bytes", "engine.fused_segments", "dfs.bytes_written",
    "dfs.bytes_read", "dfs.degraded_reads", "dfs.failed_reads",
    "dfs.repair_bytes",
)


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> Dict[str, Any]:
    """The environment block recorded with every result."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "seed": seed,
        "switches": bench_metadata(),
    }


class _Op:
    """What one operation produced, outside its wall time."""

    __slots__ = ("wall", "ok", "signature", "counts", "layers", "phases")

    def __init__(self) -> None:
        self.wall = 0.0
        self.ok = False
        self.signature: Optional[tuple] = None
        self.counts: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.phases: Dict[str, float] = {}


class _Client:
    """The closed-loop client of one run."""

    def __init__(self, workload, expected: Any, log: SpanLog) -> None:
        self.workload = workload
        self.expected = expected
        self.log = log
        self.build_s: List[float] = []

    def op(self, traced: bool) -> _Op:
        w, res = self.workload, _Op()
        gc.collect()
        t0 = perf_counter()
        cell = w.build()
        self.build_s.append(perf_counter() - t0)
        counts: Dict[str, float] = {}
        first = len(self.log)
        try:
            if traced:
                with traced_op(self.log, cell.sim, counts) as prof:
                    output, res.ok = w.run(cell, self.expected)
                stats = prof.ops.values()
                res.layers, calls = op_layers(self.log, first)
                res.layers["operators"] = sum(s.self_seconds for s in stats)
                counts["operators.records"] = sum(s.records for s in stats)
                res.wall = self.log.end[first] - self.log.start[first]
                counts.update((m, calls.get(span, 0))
                              for m, span in LAYER_CALLS.items())
            else:
                t0 = perf_counter()
                output, res.ok = w.run(cell, self.expected)
                res.wall = perf_counter() - t0
        except Exception:                  # the client keeps running
            traceback.print_exc(file=sys.stderr)
            return res
        net = cell.cluster.net
        counts.update({"net.transfers": net.n_transfers,
                       "net.bytes": net.total_bytes})
        counts.update(w.counts(cell))
        res.counts = counts
        res.phases = getattr(cell, "phases", {})
        if res.ok:
            res.signature = (w.digest(output), cell.sim.now)
        return res


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, import_s: float = 0.0) -> Dict[str, Any]:
    """One run: set up, warm up, then closed-loop operations for
    ``seconds``.  Returns the result record (metrics, checks, report)."""
    cls = WORKLOADS[workload]
    gen_s = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        w = cls(seed, scale)
        gen_s.append(perf_counter() - t0)
    log = SpanLog()
    client = _Client(w, w.reference(), log)

    warm = client.op(traced=False)
    untraced: List[_Op] = []
    traced: List[_Op] = []
    t_start = perf_counter()
    while True:
        if trace:
            pair = (False, True) if len(traced) % 2 == 0 else (True, False)
            for t in pair:
                (traced if t else untraced).append(client.op(traced=t))
        else:
            untraced.append(client.op(traced=False))
        if perf_counter() - t_start >= seconds:
            break
    measured_s = perf_counter() - t_start

    every = [warm] + untraced + traced
    failed = sum(1 for op in every if not op.ok)
    signatures = {op.signature for op in every if op.ok}
    # results and simulated time are a pure function of inputs and seed:
    # every op, traced or not, must give the same digest and makespan, and
    # the program's counters must repeat exactly
    program_counts = {tuple(sorted((k, op.counts.get(k))
                                   for k in PROGRAM_COUNTS))
                      for op in every if op.ok}
    layer_counts = {tuple(sorted(op.counts.items()))
                    for op in traced if op.ok}
    correct = (failed == 0 and len(signatures) == 1
               and len(program_counts) == 1 and len(layer_counts) <= 1)
    digest, makespan = next(iter(signatures)) if signatures else ("-", 0.0)

    walls = [op.wall for op in untraced if op.ok]
    report: Dict[str, Any] = {
        "workload": workload, "seconds": seconds, "scale": scale,
        "trace": trace, "measured_s": measured_s,
        "ops": len(untraced) + len(traced), "warmup_ops": 1,
        "failed_ratio": failed / len(every),
        "digest": digest, "sim.makespan_s": makespan,
        "op_wall_samples": len(walls),
        "consistent_digests": len(signatures) <= 1,
        "consistent_counts": len(program_counts) <= 1
        and len(layer_counts) <= 1,
        "setup": {"import_s": import_s, "inputs_s": gen_s,
                  "build_s_median": statistics.median(client.build_s)},
    }
    metrics: Dict[str, float] = {}
    if walls:
        metrics.update({
            "setup_s": import_s + statistics.median(gen_s)
            + statistics.median(client.build_s),
            "op_wall_p50_s": statistics.median(walls),
            "op_wall_p90_s": _p90(walls),
            "records_per_s": w.records * len(walls) / sum(walls),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    ok_untraced = [op for op in untraced if op.ok]
    nbytes = getattr(w, "bytes", 0) * len(ok_untraced)
    for phase in ("write", "read"):
        spent = sum(op.phases.get(phase, 0.0) for op in ok_untraced)
        metrics[f"dfs.{phase}_mb_per_s"] = nbytes / spent / 1e6 \
            if spent else 0.0
    ok_traced = [op for op in traced if op.ok]
    if ok_traced and walls:
        metrics.update(_layer_metrics(ok_traced, walls))
        metrics["sim.makespan_s"] = makespan
    return {"correct": correct, "attempted": len(every), "failed": failed,
            "metrics": metrics, "report": report, "spans": log}


def _layer_metrics(ops: List[_Op], untraced_walls: List[float]) \
        -> Dict[str, float]:
    n = len(ops)
    first = ops[0].counts
    out: Dict[str, float] = {}
    for name in PROGRAM_COUNTS + tuple(LAYER_CALLS) + (
            "operators.records", "shuffle.records", "shuffle.bytes"):
        out[name] = first.get(name, 0)
    for metric, span in LAYER_SELF_TIMES.items():
        out[metric] = sum(op.layers.get(span, 0.0) for op in ops) / n
    calls = out["net.allocate_calls"]
    out["net.flows_per_allocate"] = first.get("net.flows", 0) / calls \
        if calls else 0.0
    untraced_p50 = statistics.median(untraced_walls)
    traced_walls = [op.wall for op in ops]
    out["simcore.events_per_s"] = out["simcore.events"] / untraced_p50
    out["trace.wall_s"] = sum(traced_walls) / n
    out["trace.residual_s"] = sum(op.layers.get(OP, 0.0) for op in ops) / n
    out["trace.overhead"] = statistics.median(traced_walls) / untraced_p50 - 1
    return out
