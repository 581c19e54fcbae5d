"""Event-driven fluid network simulation behaviour."""

import pytest

from repro.cluster import FluidResource
from repro.common.errors import NetworkError
from repro.common.units import Gbit_per_s, KB, MB
from repro.net import NetworkSim, dumbbell, fat_tree, netsim, star
from repro.simcore import Simulator, Timer


def make(topo):
    sim = Simulator()
    return sim, NetworkSim(sim, topo)


class TestSingleFlows:
    def test_duration_matches_bandwidth(self):
        sim, net = make(dumbbell(1, 1, bottleneck_bw=Gbit_per_s(1)))
        ev = net.transfer("l0", "r0", MB(125))      # 1 Gbit-second
        stats = sim.run_until_done(ev)
        assert stats.duration == pytest.approx(1.0, rel=1e-3)

    def test_zero_bytes_latency_only(self):
        sim, net = make(star(2, latency=1e-3))
        ev = net.transfer("h0", "h1", 0)
        stats = sim.run_until_done(ev)
        assert stats.duration == pytest.approx(2e-3)

    def test_local_copy(self):
        sim, net = make(star(2))
        ev = net.transfer("h0", "h0", MB(125))
        stats = sim.run_until_done(ev)
        assert stats.duration == pytest.approx(MB(125) / net.local_copy_bw)

    def test_negative_size_rejected(self):
        sim, net = make(star(2))
        with pytest.raises(Exception):
            net.transfer("h0", "h1", -1)

    def test_rate_limit(self):
        sim, net = make(dumbbell(1, 1, bottleneck_bw=Gbit_per_s(10)))
        ev = net.transfer("l0", "r0", MB(125), limit=Gbit_per_s(1))
        stats = sim.run_until_done(ev)
        assert stats.duration == pytest.approx(1.0, rel=1e-3)


class TestSharing:
    def test_two_flows_half_rate(self):
        sim, net = make(dumbbell(2, 2, bottleneck_bw=Gbit_per_s(1)))
        e1 = net.transfer("l0", "r0", MB(125))
        e2 = net.transfer("l1", "r1", MB(125))
        sim.run()
        assert e1.value.duration == pytest.approx(2.0, rel=1e-3)
        assert e2.value.duration == pytest.approx(2.0, rel=1e-3)

    def test_staggered_arrival_rates_adjust(self):
        sim, net = make(dumbbell(2, 2, bottleneck_bw=Gbit_per_s(1)))
        e1 = net.transfer("l0", "r0", MB(125))
        log = {}

        def later(sim):
            yield sim.timeout(0.5)
            e2 = net.transfer("l1", "r1", MB(125))
            stats = yield e2
            log["b_end"] = sim.now
        sim.process(later(sim))
        sim.run()
        # flow A: 0.5s alone + 1.0s shared = 1.5; flow B: ends at 2.0
        assert e1.value.end == pytest.approx(1.5, rel=1e-3)
        assert log["b_end"] == pytest.approx(2.0, rel=1e-3)

    def test_host_uplink_is_bottleneck_in_star(self):
        sim, net = make(star(3, host_bw=Gbit_per_s(1)))
        # two flows into the same destination share its uplink
        e1 = net.transfer("h0", "h2", MB(125))
        e2 = net.transfer("h1", "h2", MB(125))
        sim.run()
        assert e1.value.duration == pytest.approx(2.0, rel=1e-3)

    def test_disjoint_flows_full_rate(self):
        sim, net = make(fat_tree(4))
        e1 = net.transfer("h0_0_0", "h0_0_1", MB(125))   # same edge switch
        e2 = net.transfer("h1_0_0", "h1_0_1", MB(125))
        sim.run()
        assert e1.value.duration == pytest.approx(0.1, rel=1e-2)
        assert e2.value.duration == pytest.approx(0.1, rel=1e-2)


class TestAccounting:
    def test_total_bytes(self):
        sim, net = make(star(3))
        net.transfer("h0", "h1", 1000)
        net.transfer("h1", "h2", 500)
        sim.run()
        assert net.total_bytes == pytest.approx(1500)

    def test_link_bytes_sum_to_path_lengths(self):
        sim, net = make(star(2))
        net.transfer("h0", "h1", 1000)
        sim.run()
        carried = sum(net.link_bytes.values())
        assert carried == pytest.approx(2 * 1000, rel=1e-6)   # two hops

    def test_n_transfers(self):
        sim, net = make(star(2))
        net.transfer("h0", "h1", 10)
        net.transfer("h0", "h0", 10)
        sim.run()
        assert net.n_transfers == 2

    def test_many_concurrent_flows_complete(self):
        sim, net = make(fat_tree(4))
        hosts = net.topo.hosts
        evs = []
        for i, src in enumerate(hosts):
            dst = hosts[(i + 7) % len(hosts)]
            evs.append(net.transfer(src, dst, MB(10)))
        sim.run()
        assert all(e.triggered and e.ok for e in evs)
        assert net.active_flows == 0


class TestErrors:
    @pytest.mark.parametrize("limit", [0.0, -1.0])
    def test_nonpositive_limit_rejected(self, limit):
        sim, net = make(star(2))
        with pytest.raises(NetworkError):
            net.transfer("h0", "h1", 1000, limit=limit)

    def test_flows_that_cannot_progress_raise(self, monkeypatch):
        monkeypatch.setattr(netsim, "allocate_rates",
                            lambda flows, caps: {f.flow_id: 0.0 for f in flows})
        sim, net = make(star(2))
        net.transfer("h0", "h1", 1000)
        with pytest.raises(NetworkError):
            sim.run(until=1.0)


def _spy_allocations(monkeypatch, sim):
    """Record ``(sim.now, number of flows)`` per ``allocate_rates`` call."""
    calls = []
    real = netsim.allocate_rates

    def spy(flows, caps):
        calls.append((sim.now, len(flows)))
        return real(flows, caps)
    monkeypatch.setattr(netsim, "allocate_rates", spy)
    return calls


class TestReallocation:
    def test_same_time_burst_allocates_once(self, monkeypatch):
        sim, net = make(star(9))
        calls = _spy_allocations(monkeypatch, sim)
        evs = [net.transfer(f"h{i}", "h8", MB(1)) for i in range(8)]
        sim.run()
        # all eight arrive together and, sharing h8's uplink equally,
        # drain together: one allocation for the whole burst
        assert [n for _, n in calls] == [8]
        assert len({ev.value.end for ev in evs}) == 1

    def test_one_allocation_per_timestamp(self, monkeypatch):
        sim, net = make(star(6))
        calls = _spy_allocations(monkeypatch, sim)

        def waves(sim):
            for size in (MB(4), MB(2), MB(1)):
                for i in range(3):
                    net.transfer(f"h{i}", f"h{i + 3}", size)
                yield sim.timeout(1e-3)
        sim.process(waves(sim))
        sim.run()
        times = [t for t, _ in calls]
        assert len(times) == len(set(times))
        assert [n for _, n in calls[:3]] == [3, 6, 9]

    def test_timers_never_pile_up_or_fire_stale(self, monkeypatch):
        fired = []
        real_fire = Timer._fire

        def checked_fire(timer, event):
            assert event is timer._event, "a re-armed timer fired"
            fired.append(timer)
            real_fire(timer, event)
        monkeypatch.setattr(Timer, "_fire", checked_fire)

        sim, net = make(dumbbell(3, 3, bottleneck_bw=Gbit_per_s(1)))
        disk = FluidResource(sim, MB(100))
        timers = (net._timer, disk._timer)
        peak = {timer: 0 for timer in timers}

        class Probe:
            def on_event(self, sim, event, t):
                for timer in timers:
                    queued = sum(
                        1 for _, ev in sim._queue._heap
                        if ev.callbacks and any(
                            getattr(cb, "__self__", None) is timer
                            for cb in ev.callbacks))
                    peak[timer] = max(peak[timer], queued)
        sim.attach_observer(Probe())

        def client(sim, i):
            yield sim.timeout(i * 1e-4)
            yield net.transfer(f"l{i % 3}", f"r{(i + 1) % 3}", KB(64) * (i + 1))
            yield disk.submit(KB(256) * (i % 4 + 1))
        for i in range(12):
            sim.process(client(sim, i))
        sim.run()
        assert set(fired) == set(timers)
        assert peak == {timer: 1 for timer in timers}
