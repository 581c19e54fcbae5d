"""Smoke coverage for the schema-9 multi-tenant serving measurement.

Tiny scales only — the full-scale numbers and guards live in
``benchmarks/bench_p0_wallclock.py``; here we pin the report shape, the
per-tenant conservation invariant, and that the chaos sweep classifies
every seed.
"""

from benchmarks.perfsuite import (
    SCHEMA_VERSION,
    SERVE_MIXES,
    measure_multi_tenant_serving,
)


def test_schema_bumped_for_serving():
    assert SCHEMA_VERSION >= 9


class TestMultiTenantServing:
    def test_report_shape_and_conservation(self):
        r = measure_multi_tenant_serving(scale=0.1, mixes=("balanced",),
                                         chaos_seeds=(0,))
        assert set(r["mixes"]) == {"balanced"}
        sec = r["mixes"]["balanced"]
        assert sec["conservation_ok"]
        assert sec["simulated_requests"] > 0
        assert sec["requests_per_wall_sec"] > 0
        assert sec["dollars"] > 0
        for t in sec["tenants"].values():
            assert t["conservation_ok"] and t["inflight"] == 0
            assert t["submitted"] == (t["rejected"] + t["completed"]
                                      + t["failed"])
        chaos = r["chaos_sweep"]
        assert set(chaos["runs"]) == {"0"}
        run = chaos["runs"]["0"]
        assert run["conserved"] and run["injections"] > 0
        assert chaos["all_conserved"] is (run["conserved"] is True)
        assert chaos["max_p99_ratio_vs_clean"] == run["p99_ratio_vs_clean"]

    def test_all_mixes_defined(self):
        assert set(SERVE_MIXES) == {"balanced", "heavy_hitter",
                                    "bursty_mixed"}
