"""The perf suite's one A/B procedure, and smoke coverage of its users.

The shared leg loop and retry helper are exercised with stub legs (no
real jobs); the SQL, fusion and overhead measures run once at a tiny
scale to pin their report keys.  The guarded numbers themselves live in
``benchmarks/bench_p0_wallclock.py``.
"""

import pytest

from benchmarks.perfsuite import (
    _interleave,
    _retry_below,
    measure_integrity_overhead,
    measure_narrow_chain,
    measure_obs_overhead,
    measure_resilience_overhead,
    measure_sql_analytics,
    measure_sql_join,
)


def _stub(name, log, digest=0, secs=1.0):
    def run():
        log.append(name)
        return secs, digest
    return run


class TestInterleave:
    def test_times_per_leg_and_agreed_digest(self):
        log = []
        times, digest = _interleave(
            {"a": _stub("a", log, "d", 1.0), "b": _stub("b", log, "d", 2.0)},
            reps=3, what="stub")
        assert times == {"a": [1.0] * 3, "b": [2.0] * 3}
        assert digest == "d"

    def test_leg_order_rotates_each_rep(self):
        log = []
        _interleave({n: _stub(n, log) for n in "abc"}, reps=4, what="stub")
        assert log == list("abc" "bca" "cab" "abc")

    def test_disagreeing_leg_is_named(self):
        legs = {"a": _stub("a", [], 1), "b": _stub("b", [], 1),
                "odd": _stub("odd", [], 2)}
        with pytest.raises(AssertionError, match=r"stub: leg 'odd'.*'a'"):
            _interleave(legs, reps=1, what="stub")

    def test_disagreement_caught_in_a_later_rep(self):
        calls = iter([(1.0, 7), (1.0, 7), (1.0, 8), (1.0, 7)])
        with pytest.raises(AssertionError, match="leg 'b'"):
            _interleave({"a": lambda: next(calls), "b": lambda: next(calls)},
                        reps=2, what="stub")


class TestRetryBelow:
    def _trials(self, values):
        seen = []
        it = iter(values)

        def trial():
            r = {"overhead": next(it), "n": len(seen)}
            seen.append(r)
            return r
        return trial, seen

    def test_keeps_lowest_when_none_pass(self):
        trial, seen = self._trials([0.09, 0.07, 0.08])
        best = _retry_below(trial, "overhead", attempts=3, guard=0.05)
        assert len(seen) == 3
        assert best["overhead"] == 0.07 and best["n"] == 1

    def test_stops_at_first_trial_under_guard(self):
        trial, seen = self._trials([0.09, 0.03, 0.01])
        best = _retry_below(trial, "overhead", attempts=3, guard=0.05)
        assert len(seen) == 2
        assert best["overhead"] == 0.03

    def test_always_runs_at_least_once(self):
        trial, seen = self._trials([0.2])
        assert _retry_below(trial, "overhead", attempts=0,
                            guard=0.05)["overhead"] == 0.2
        assert len(seen) == 1


_SPEEDUP_KEYS = {"records", "baseline", "current", "speedup"}
_LEG_KEYS = {"wall_seconds", "records_per_sec"}


class TestSpeedupMeasures:
    @pytest.mark.parametrize("measure", [measure_sql_analytics,
                                         measure_narrow_chain])
    def test_report_keys(self, measure):
        r = measure(scale=0.02, reps=1)
        assert set(r) == _SPEEDUP_KEYS
        assert set(r["baseline"]) == set(r["current"]) == _LEG_KEYS
        assert r["records"] > 0 and r["speedup"] > 0

    def test_join_report_keys(self):
        r = measure_sql_join(scale=0.02, reps=1)
        assert set(r) == _SPEEDUP_KEYS | {"dim_records", "adaptive"}
        assert set(r["adaptive"]) == {"wall_seconds", "consistent",
                                      "decisions"}
        assert r["adaptive"]["consistent"] is True


class TestOverheadMeasures:
    def test_obs_report_keys(self):
        r = measure_obs_overhead(scale=0.02, reps=1, attempts=1)
        assert set(r) == {"workload", "records", "off_seconds",
                          "noop_seconds", "traced_seconds", "traced_spans",
                          "enabled_overhead", "kernel_observer_overhead"}
        assert r["traced_spans"] > 0 and r["records"] > 0

    def test_resilience_report_keys(self):
        r = measure_resilience_overhead(scale=0.02, reps=1, attempts=1)
        assert set(r) == {"workload", "records", "off_seconds",
                          "armed_seconds", "armed_overhead"}

    def test_integrity_report_keys(self):
        r = measure_integrity_overhead(scale=0.02, reps=1, attempts=1)
        assert set(r) == {"workload", "records", "off_seconds",
                          "on_seconds", "checksum_overhead"}
        assert r["workload"] == "wordcount"
