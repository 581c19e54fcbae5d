"""Spans of the traced run, recorded from outside the program.

The traced run wraps the public entry points of each layer (see
:data:`LAYER_ENTRY_POINTS`) for the duration of one operation.  Every call
into a wrapped entry point becomes a span: its name, start, end and the
span that was open when it began.  Spans are kept in flat in-memory arrays
and written out once, when the run ends.

A span's self time is its duration minus the time its child spans cover.
User operators are timed by :func:`repro.obs.profile.profile`, not by
spans (one per record pull would be too many): the time of each outermost
operator pull is taken out of the span it ran in, and every span that runs
directly inside an operator pull is taken out of that operator's profiled
time.  The layer self times, the operators' profiled self time and the
time of the operation outside every layer (the residual) then add up to
the operation's wall time.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.dataflow import engine
from repro.net import netsim
from repro.obs.profile import profile
from repro.simcore.kernel import Simulator
from repro.storage import integrity
from repro.storage.reedsolomon import RSCode

__all__ = ["SpanLog", "op_layers", "traced_op"]

#: Root span of one traced operation; its self time is the residual.
OP = "op"
STEP = "simcore.step"


def _note_flows(counts: Dict[str, float], args: tuple, result: Any) -> None:
    counts["net.flows"] = counts.get("net.flows", 0) + len(args[0])


def _note_shuffle(counts: Dict[str, float], args: tuple, result: Any) -> None:
    _buckets, written, bucket_bytes = result
    counts["shuffle.records"] = counts.get("shuffle.records", 0) + written
    counts["shuffle.bytes"] = counts.get("shuffle.bytes", 0) + sum(bucket_bytes)


#: (owner, attribute, span name, counter hook).  Module-level functions are
#: wrapped where the calling module looks them up: ``allocate_rates`` as
#: ``NetworkSim`` binds it, ``write_buckets`` as the engine binds it.
LAYER_ENTRY_POINTS: List[Tuple[Any, str, str, Optional[Callable]]] = [
    (Simulator, "step", STEP, None),
    (netsim, "allocate_rates", "net.allocate", _note_flows),
    (engine, "write_buckets", "shuffle.write", _note_shuffle),
    (integrity, "seal", "integrity.seal", None),
    (integrity, "seal_object", "integrity.seal", None),
    (integrity, "verify", "integrity.verify", None),
    (integrity, "verify_object", "integrity.verify", None),
    (RSCode, "encode", "storage.rs_encode", None),
    (RSCode, "decode", "storage.rs_decode", None),
    (Cluster, "transfer", "cluster", None),
    (Node, "compute", "cluster", None),
    (Node, "disk_read", "cluster", None),
    (Node, "disk_write", "cluster", None),
]


class SpanLog:
    """Spans in flat arrays: name id, start, end, parent index (-1 = root)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        #: operator time directly inside each span (not in a child span)
        self.covered = array("d")
        self.stack: List[int] = []
        self.profile = None
        self._frame_depth = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def open(self, nid: int) -> None:
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.covered.append(0.0)
        self.stack.append(len(self.start))
        self.start.append(perf_counter())

    def close(self) -> None:
        t = perf_counter()
        idx = self.stack.pop()
        self.end[idx] = t
        prof = self.profile
        if prof is not None and prof._stack \
                and len(self.stack) == self._frame_depth:
            # a span directly inside an operator pull: its time is neither
            # the operator's nor covered by the pull within the parent span
            dur = t - self.start[idx]
            prof._stack[-1][1] += dur
            self.covered[self.stack[-1]] -= dur

    def attach(self, prof) -> None:
        """Account the operator frames of profile ``prof`` (or detach)."""
        self.profile = prof
        if prof is None:
            return
        enter, exit_ = prof._enter, prof._exit

        def _enter(label: str) -> None:
            if not prof._stack:
                self._frame_depth = len(self.stack)
            enter(label)

        def _exit(label: str, dt: float, got_record: bool) -> None:
            exit_(label, dt, got_record)
            if not prof._stack:
                self.covered[self.stack[-1]] += dt
        prof._enter, prof._exit = _enter, _exit

    def write_csv_gz(self, path) -> None:
        """Write every span as ``name,start,end,parent,operators_s``
        (gzip'd CSV); the last column is :attr:`covered`."""
        with gzip.open(path, "wt") as out:
            out.write("name,start,end,parent,operators_s\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{names[self.name[i]]},{self.start[i]!r},"
                          f"{self.end[i]!r},{self.parent[i]},"
                          f"{self.covered[i]!r}\n")


def _wrap(log: SpanLog, fn: Callable, span: str,
          note: Optional[Callable], counts: Dict[str, float]) -> Callable:
    nid = log.name_id(span)

    def wrapper(*args, **kwargs):
        stack = log.stack
        if stack and log.name[stack[-1]] == nid:
            # a nested call into the same layer stays inside one span
            return fn(*args, **kwargs)
        log.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close()
        if note is not None:
            note(counts, args, result)
        return result
    return wrapper


def op_layers(log: SpanLog, first: int) \
        -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self time and call count per span name of spans ``first..`` (one
    traced operation)."""
    n = len(log)
    start, end, parent, name = log.start, log.end, log.parent, log.name
    taken = log.covered[first:n].tolist()
    for i in range(first, n):
        p = parent[i]
        if p >= first:
            taken[p - first] += end[i] - start[i]
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for i in range(first, n):
        label = log.names[name[i]]
        self_s[label] = self_s.get(label, 0.0) + (end[i] - start[i]
                                                   - taken[i - first])
        calls[label] = calls.get(label, 0) + 1
    return self_s, calls


@contextmanager
def traced_op(log: SpanLog, sim: Simulator, counts: Dict[str, float]) \
        -> Iterator[Any]:
    """Trace one operation on ``sim``: wrap every layer entry point, profile
    the user operators and open the root span.  Yields the profile."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _span, _note in LAYER_ENTRY_POINTS]
    for owner, attr, span, note in LAYER_ENTRY_POINTS:
        setattr(owner, attr, _wrap(log, owner.__dict__[attr], span, note,
                                   counts))
    try:
        with profile(sim) as prof:
            log.attach(prof)
            log.open(log.name_id(OP))
            try:
                yield prof
            finally:
                while log.stack:        # an exception can leave spans open
                    log.close()
                log.attach(None)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
