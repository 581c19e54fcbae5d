"""The benchmark's workloads, each driving the program's public API.

A workload makes its inputs from a seed, builds a fresh simulated cluster
for every operation, runs one operation on it and checks the output
against a reference the benchmark computes itself from the same inputs.
``scale`` shrinks the inputs for the benchmark's own tests; the measured
runs use ``scale=1``.
"""

from __future__ import annotations

import hashlib
import operator
import random
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.cluster.cluster import make_cluster
from repro.common.units import Gbit_per_s, MiB
from repro.dataflow import CostModel, DataflowContext, EngineConfig, SimEngine
from repro.simcore.kernel import Simulator
from repro.storage.dfs import DFSConfig, DistributedFS
from repro.workloads import teragen, zipf_text

__all__ = ["WORKLOADS", "TerasortShuffle", "EtlNarrow", "DfsRoundTrip"]

#: The perf suite's job-basket cost model and scheduler poll period.
COST = CostModel(cpu_per_record=1.5e-2, task_overhead=5e-3)
CHECK_INTERVAL = 0.1


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _repr_digest(output: Any) -> str:
    return _sha(repr(output).encode())


def _job_cluster() -> SimpleNamespace:
    """2 racks x 4 nodes, 10 Gbit/s leaf-spine, in-process executor."""
    sim = Simulator()
    cluster = make_cluster(sim, 2, 4, host_bw=Gbit_per_s(10))
    ctx = DataflowContext(default_parallelism=16, cost_model=COST,
                          backend="inprocess")
    engine = SimEngine(cluster, config=EngineConfig(
        check_interval=CHECK_INTERVAL), cost_model=COST)
    return SimpleNamespace(sim=sim, cluster=cluster, ctx=ctx, engine=engine,
                           job=None)


def _job_counts(cell: SimpleNamespace) -> Dict[str, float]:
    m = cell.job
    return {"engine.tasks": m.n_tasks,
            "engine.failed_attempts": m.n_failed_attempts,
            "engine.shuffle_bytes": m.shuffle_bytes,
            "engine.fused_segments": m.fused_segments}


def _sort_key(kv: Tuple[bytes, bytes]) -> bytes:
    return kv[0]


class TerasortShuffle:
    """TeraGen records sorted into 16 range partitions (all-to-all shuffle)."""

    name = "terasort_shuffle"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.inputs = teragen(max(64, int(30_000 * scale)), key_bytes=10,
                              payload_bytes=16, seed=seed)
        self.records = len(self.inputs)

    def reference(self) -> List[Tuple[bytes, bytes]]:
        return sorted(self.inputs, key=_sort_key)

    build = staticmethod(_job_cluster)

    def run(self, cell: SimpleNamespace, expected: Any) -> Tuple[Any, bool]:
        ds = cell.ctx.parallelize(self.inputs, 16).sort_by(
            _sort_key, n_partitions=16)
        result = cell.sim.run_until_done(cell.engine.collect(ds))
        cell.job = result.metrics
        return result.value, result.value == expected

    counts = staticmethod(_job_counts)
    digest = staticmethod(_repr_digest)


def _words(doc: str) -> List[str]:
    return doc.split()


def _long(n: int) -> bool:
    return n > 3


class EtlNarrow:
    """Zipf text through a fused flat_map/map/filter chain into a reduce."""

    name = "etl_narrow"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.inputs = zipf_text(n_docs=max(64, int(1500 * scale)),
                                words_per_doc=120, vocab_size=2000,
                                skew=1.0, seed=seed)
        self.records = sum(len(d.split()) for d in self.inputs)

    def reference(self) -> int:
        total = 0
        for doc in self.inputs:
            for word in doc.split():
                if len(word) > 3:
                    total += len(word)
        return total

    build = staticmethod(_job_cluster)

    def run(self, cell: SimpleNamespace, expected: Any) -> Tuple[Any, bool]:
        ds = (cell.ctx.parallelize(self.inputs, 64)
              .flat_map(_words).map(len).filter(_long))
        result = cell.sim.run_until_done(cell.engine.reduce(ds, operator.add))
        cell.job = result.metrics
        return result.value, result.value == expected

    counts = staticmethod(_job_counts)
    digest = staticmethod(_repr_digest)


class DfsRoundTrip:
    """Write a batch of files (half replicated, half RS(6,3)), fail one
    node, read every file back."""

    name = "dfs_rw"
    #: DFS counters reported per round
    COUNTERS = ("dfs.bytes_written", "dfs.bytes_read", "dfs.degraded_reads",
                "dfs.failed_reads", "dfs.repair_bytes")

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = np.random.default_rng(seed)
        n_files = max(2, int(16 * scale))
        size = max(4096, int(MiB(2) * scale))
        self.inputs = [rng.integers(0, 256, size=size, dtype=np.uint8)
                       .tobytes() for _ in range(n_files)]
        self.block_size = max(1024, int(MiB(1) * scale))
        self.seed = seed
        # one record is one file written and read back
        self.records = n_files
        self.bytes = n_files * size
        self.victim = random.Random(seed).choice(
            [f"h{r}_{i}" for r in range(2) for i in range(6)])

    def reference(self) -> List[bytes]:
        return list(self.inputs)

    def build(self) -> SimpleNamespace:
        sim = Simulator()
        cluster = make_cluster(sim, 2, 6, host_bw=Gbit_per_s(10))
        fs = DistributedFS(cluster, DFSConfig(block_size=self.block_size),
                           seed=self.seed)
        return SimpleNamespace(sim=sim, cluster=cluster, fs=fs, phases={})

    def run(self, cell: SimpleNamespace, expected: Any) -> Tuple[Any, bool]:
        sim, fs = cell.sim, cell.fs
        t0 = perf_counter()
        writes = [fs.write(f"/f{i}", data=data,
                           mode="replicate" if i % 2 == 0 else "ec")
                  for i, data in enumerate(self.inputs)]
        written = sim.run_until_done(sim.all_of(writes))
        ok = [written[i].size for i in range(len(writes))] \
            == [len(d) for d in expected]
        t1 = perf_counter()
        cell.cluster.nodes[self.victim].fail()
        reads = [fs.read(f"/f{i}") for i in range(len(self.inputs))]
        got = sim.run_until_done(sim.all_of(reads))
        output = [got[i][0] for i in range(len(reads))]
        ok = ok and output == expected
        cell.phases = {"write": t1 - t0, "read": perf_counter() - t1}
        return output, ok

    def counts(self, cell: SimpleNamespace) -> Dict[str, float]:
        return {name: cell.fs.metrics.counter(name).value
                for name in self.COUNTERS}

    @staticmethod
    def digest(output: Any) -> str:
        return _sha(b"".join(output))


WORKLOADS = {w.name: w for w in (TerasortShuffle, EtlNarrow, DfsRoundTrip)}
