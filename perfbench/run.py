#!/usr/bin/env python3
"""Whole-job wall time on the simulated cluster, split by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload terasort_shuffle --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; both are listed in ``BENCHMARK.json``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run, with its
environment block, is written under ``.perfbench/``; a traced run also
writes its spans there.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
#: The seed used when none is given, and the held-out seed a later claim
#: of a gain must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
#: Fresh interpreters timed importing the program; set-up reports the median.
IMPORT_REPS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("terasort_shuffle", "etl_narrow", "dfs_rw"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor; below 1 only for quick checks")
    return p.parse_args(argv)


def select_metrics(values, spec, trace: bool):
    """The metrics ``BENCHMARK.json`` lists for this mode, with units."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise KeyError(f"run produced no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


def _import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the program."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)]
                           + [os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    times = []
    for _ in range(IMPORT_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import perfbench.bench"],
                       cwd=ROOT, env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import bench
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}",
              file=sys.stderr)
        return 2
    import repro
    src = Path(repro.__file__).resolve().parent.parent
    if src != ROOT / "src":
        print(f"perfbench: repro was imported from {src}, not from this "
              f"checkout's src/", file=sys.stderr)
        return 2

    result = bench.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), scale=args.scale,
                       import_s=_import_seconds())
    metrics = select_metrics(result["metrics"], spec, bool(args.trace))
    report = result["report"]
    report["env"] = bench.environment(ROOT, args.seed)
    report["default_seed"], report["held_out_seed"] = (DEFAULT_SEED,
                                                      HELD_OUT_SEED)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.scale != 1.0:
        stem += f"-scale{args.scale:g}"
    if args.trace:
        result["spans"].write_csv_gz(OUT / f"{stem}.spans.csv.gz")
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**line, "all_metrics": result["metrics"], "report": report},
        indent=1, sort_keys=True))

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale:g}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(f"ops {report['ops']} (+{report['warmup_ops']} warm-up), "
          f"failed_ratio {report['failed_ratio']:.4f}, "
          f"op_wall samples {report['op_wall_samples']}")
    print(f"digest {report['digest']}  sim.makespan_s "
          f"{report['sim.makespan_s']!r}")
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']!r} {m['unit']}")
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
