"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_revisit --seed 1 --seconds 30 --trace 0

Workloads: ``serve_revisit`` (open-loop HTTP load on ``repro serve``)
and ``batch_hdiff`` (closed-loop library operations).
Every metric is printed by name with its unit, then the last line is
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 1`` reports
the per-layer metrics instead of the end-to-end ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import procs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_revisit", "batch_hdiff")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def unit_of(name: str) -> str:
    """Unit of a figure reported beside the declared metrics."""
    for suffix, unit in (
        ("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio"), ("_mb", "MiB"), ("_rps", "1/s"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def machine() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_batch(seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    script = str(HERE / "batch.py")

    leaked: list[int] = []

    def child(*args: str) -> dict:
        # A session of its own, so that pool workers outliving it are found.
        proc = subprocess.Popen(
            [sys.executable, script, *args], cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=170)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            leaked.extend(procs.reap_session(proc.pid))
        if proc.returncode != 0:
            raise RuntimeError(f"batch child failed:\n{err[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    setups = [] if trace else [child("setup")["setup_s"] for _ in range(2)]
    result = child("run", str(seed), str(seconds), str(tmp), "1" if trace else "0")
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["attempted"] += 1
    if leaked:
        result["failed"] += 1
        result["notes"].append(f"processes of the batch interpreter left running: {leaked}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    # A terminated run still stops its servers: SystemExit unwinds
    # through the cleanup of every workload.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    tmp = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if args.workload == "batch_hdiff":
            result = run_batch(args.seed, args.seconds, bool(args.trace), tmp)
        else:
            from serve import run_serve

            result = run_serve(args.seed, args.seconds, bool(args.trace), ROOT, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    figures = result["layers"] if args.trace else result["metrics"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "error_ratio": result["failed"] / max(1, result["attempted"]),
        "notes": result["notes"],
        "known_defects": result.get("known_defects", 0),
        "valid": result.get("valid", True),
        "all": {k: figures[k] for k in sorted(figures)},
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(figures):
        print(f"{name:40s} {figures[name]:>16.6g} {units.get(name, unit_of(name))}")
    print(json.dumps(record))
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
