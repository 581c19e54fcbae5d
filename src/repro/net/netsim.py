"""Event-driven fluid network simulation.

:class:`NetworkSim` marries the topology/routing layer with the max-min
rate allocator and the DES kernel: every active transfer is a fluid flow;
at each simulated instant where flows start or finish, rates are
recomputed globally (once, however many flows changed) and the next
completion is rescheduled.  This is the standard flow-level model
used by datacenter-network simulators — accurate for transfers that are
large relative to RTT (shuffles, block writes, VM migrations), which is
exactly what the experiments here measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..common.errors import NetworkError
from ..common.units import Gbit_per_s
from ..simcore.events import Event
from ..simcore.kernel import Simulator, Timer
from .flows import FlowSpec, allocate_rates
from .topology import Link, Topology

__all__ = ["NetworkSim", "TransferStats"]

_EPS_BYTES = 1e-6


@dataclass
class TransferStats:
    """Completion record delivered as a transfer event's value."""

    src: str
    dst: str
    nbytes: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Wall-clock seconds from request to last byte."""
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Average bytes/second (0 for instant transfers)."""
        return self.nbytes / self.duration if self.duration > 0 else float("inf")


class _Flow:
    __slots__ = ("fid", "src", "dst", "nbytes", "remaining", "keys",
                 "spec", "event", "start")

    def __init__(self, fid: int, src: str, dst: str, nbytes: float,
                 links: List[Link], limit: float, event: Event,
                 start: float, weight: float) -> None:
        self.fid = fid
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.keys = tuple(l.key for l in links)
        self.spec = FlowSpec(fid, self.keys, limit, weight)
        self.event = event
        self.start = start


class NetworkSim:
    """Flow-level network simulator bound to a DES kernel.

    Use :meth:`transfer` to move bytes between hosts; the returned event
    fires with a :class:`TransferStats` when the last byte lands.  Per-link
    byte counters (:attr:`link_bytes`) and a global counter
    (:attr:`total_bytes`) support traffic accounting in experiments.

    Rates are recomputed at most once per simulated timestamp: a flow that
    arrives marks the network dirty and arms a zero-delay flush on the one
    re-armable :class:`~repro.simcore.kernel.Timer`, which otherwise waits
    for the next flow completion.  Every arrival at that timestamp shares
    the flush.
    """

    def __init__(self, sim: Simulator, topo: Topology,
                 local_copy_bw: float = Gbit_per_s(100)) -> None:
        self.sim = sim
        self.topo = topo
        self.local_copy_bw = local_copy_bw
        self._flows: Dict[int, _Flow] = {}
        self._next_fid = 0
        self._last_t = sim.now
        self._rates: Dict[int, float] = {}
        #: capacity of every link some flow has crossed, by link key
        self._caps: Dict = {}
        self._timer = Timer(sim, self._reallocate)
        self._dirty = False
        #: cumulative bytes carried per link key
        self.link_bytes: Dict = {}
        #: cumulative bytes moved over the network (excludes local copies)
        self.total_bytes = 0.0
        #: number of transfers started
        self.n_transfers = 0

    # -- public API ----------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: float,
                 limit: float = float("inf"),
                 weight: float = 1.0) -> Event:
        """Move ``nbytes`` from host ``src`` to host ``dst``.

        ``limit`` caps the flow's rate (sender-side throttle); ``weight``
        scales its share of contended links (weighted max-min / WFQ-style
        QoS).  A transfer with ``src == dst`` is a local copy charged at
        ``local_copy_bw``.  Zero-byte transfers complete after path latency
        only.
        """
        if weight <= 0:
            raise NetworkError("transfer weight must be positive")
        if limit <= 0:
            raise NetworkError("transfer limit must be positive")
        if nbytes < 0:
            raise NetworkError(f"negative transfer size {nbytes}")
        self.n_transfers += 1
        ev = self.sim.event()
        start = self.sim.now
        if src == dst:
            dur = nbytes / min(self.local_copy_bw, limit)
            self._complete_later(ev, src, dst, nbytes, start, dur)
            return ev
        fid = self._next_fid
        self._next_fid += 1
        path = self.topo.path(src, dst, flow_id=fid)
        latency = self.topo.path_latency(path)
        if nbytes == 0:
            self._complete_later(ev, src, dst, 0, start, latency)
            return ev
        # charge path latency up-front, then register the fluid flow
        def _starter(sim: Simulator):
            yield sim.timeout(latency)
            self._arrive(_Flow(fid, src, dst, nbytes, path, limit, ev, start,
                               weight), path)
        self.sim.process(_starter(self.sim), name=f"xfer{fid}")
        return ev

    @property
    def active_flows(self) -> int:
        """Number of flows currently moving bytes."""
        return len(self._flows)

    def current_rate(self, fid: int) -> Optional[float]:
        """Instantaneous rate of flow ``fid`` (testing/inspection hook).

        None until the flow's first reallocation and after it completes.
        """
        return self._rates.get(fid)

    # -- engine --------------------------------------------------------------

    def _complete_later(self, ev: Event, src: str, dst: str, nbytes: float,
                        start: float, dur: float) -> None:
        def _finisher(sim: Simulator):
            yield sim.timeout(dur)
            ev.succeed(TransferStats(src, dst, int(nbytes), start, sim.now))
        self.sim.process(_finisher(self.sim), name="xfer-local")

    def _arrive(self, flow: _Flow, path: List[Link]) -> None:
        """Register ``flow`` now; its rate is set by this timestamp's flush."""
        self._advance_progress()
        self._flows[flow.fid] = flow
        self.total_bytes += flow.nbytes
        for link in path:
            self._caps[link.key] = link.capacity
        if not self._dirty:
            self._dirty = True
            self._timer.arm(0.0)

    def _advance_progress(self) -> None:
        now = self.sim.now
        dt = now - self._last_t
        if dt > 0:
            link_bytes = self.link_bytes
            for fid, flow in self._flows.items():
                moved = self._rates.get(fid, 0.0) * dt
                flow.remaining -= moved
                for key in flow.keys:
                    link_bytes[key] = link_bytes.get(key, 0.0) + moved
        self._last_t = now

    def _reallocate(self) -> None:
        """Advance progress, complete finished flows, recompute rates."""
        self._dirty = False
        self._advance_progress()
        # complete flows that drained
        done = [f for f in self._flows.values() if f.remaining <= _EPS_BYTES]
        for flow in done:
            del self._flows[flow.fid]
            self._rates.pop(flow.fid, None)
            flow.event.succeed(TransferStats(
                flow.src, flow.dst, int(flow.nbytes), flow.start, self.sim.now))
        if not self._flows:
            self._rates = {}
            return
        self._rates = allocate_rates(
            [f.spec for f in self._flows.values()], self._caps)
        self._schedule_next_completion()

    def _schedule_next_completion(self) -> None:
        next_dt = float("inf")
        for fid, flow in self._flows.items():
            rate = self._rates.get(fid, 0.0)
            if rate > 0:
                next_dt = min(next_dt, flow.remaining / rate)
        if math.isinf(next_dt):
            raise NetworkError("active flows exist but none can make progress")
        # Clamp up to a representable step so residual sub-ulp transfer
        # times cannot stall the clock (see FluidResource._reschedule).
        next_dt = max(next_dt, 4.0 * math.ulp(max(abs(self.sim.now), 1.0)))
        self._timer.arm(next_dt)
