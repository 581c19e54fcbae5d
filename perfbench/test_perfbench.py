"""The benchmark's own checks, on tiny inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import bench  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.02


def _tiny(workload: str, trace: bool):
    return bench.run(workload, seed=3, seconds=0, trace=trace, scale=TINY)


@pytest.fixture(scope="module")
def traced():
    return {w: _tiny(w, trace=True) for w in WORKLOADS}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_prints_every_metric_with_its_unit(workload, trace, capsys):
    code = cli.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--scale", str(TINY)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and last["correct"] and last["failed"] == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_wrong_reference_counts_as_failed(workload, monkeypatch):
    cls = WORKLOADS[workload]
    right = cls.reference
    monkeypatch.setattr(cls, "reference",
                        lambda self: list(reversed(right(self)))
                        if workload != "etl_narrow" else right(self) + 1)
    result = _tiny(workload, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["report"]["failed_ratio"] == 1.0


def test_etl_has_no_flows_and_no_shuffle(traced):
    m = traced["etl_narrow"]["metrics"]
    assert m["net.allocate_calls"] == 0 and m["shuffle.write_calls"] == 0
    assert m["operators.records"] > 0 and m["engine.fused_segments"] >= 1


def test_dfs_has_no_shuffle_and_terasort_has_both(traced):
    assert traced["dfs_rw"]["metrics"]["shuffle.write_calls"] == 0
    assert traced["dfs_rw"]["metrics"]["storage.rs_encode_calls"] > 0
    m = traced["terasort_shuffle"]["metrics"]
    assert m["net.allocate_calls"] > 0 and m["shuffle.write_calls"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_agree(traced, workload):
    result = traced[workload]
    # one warm-up, then at least one untraced and one traced operation
    assert result["attempted"] >= 3
    assert result["correct"] and result["report"]["consistent_digests"]
    assert result["report"]["consistent_counts"]
    untraced = _tiny(workload, trace=False)["report"]
    assert untraced["digest"] == result["report"]["digest"]
    assert untraced["sim.makespan_s"] == result["report"]["sim.makespan_s"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_self_times_add_up_to_traced_wall(traced, workload):
    m = traced[workload]["metrics"]
    parts = [m[name] for name in bench.LAYER_SELF_TIMES]
    assert all(p >= 0 for p in parts) and m["trace.residual_s"] >= 0
    assert math.isclose(sum(parts) + m["trace.residual_s"],
                        m["trace.wall_s"], rel_tol=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "etl_narrow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
