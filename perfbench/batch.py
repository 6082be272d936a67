"""The ``batch_hdiff`` workload: one closed-loop library caller.

Runs in its own interpreter so that set-up (imports + ``Session``) and
peak memory are this workload's alone::

    python perfbench/batch.py setup
    python perfbench/batch.py run SEED SECONDS TMPDIR TRACE

``setup`` prints the set-up seconds; ``run`` prints one JSON document
with the metrics, the operation counts and (with TRACE=1) the layers.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path

_START = time.perf_counter()

from repro.apps import hdiff  # noqa: E402
from repro.tool import Session  # noqa: E402
from repro.tuning import TuningSearch  # noqa: E402

Session(hdiff.hdiff_program)  # the set-up a caller pays before any operation
SETUP_S = time.perf_counter() - _START

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import percentile, tail_percentile  # noqa: E402

GRID = {"I": list(range(6, 25, 2)), "J": list(range(6, 15, 2)), "K": [4, 6]}
PROD_VIEW = {"I": 1024, "J": 64, "K": 32}
#: The settings of the hdiff rediscovery benchmark (tuning_bench.run_hdiff).
TUNE = dict(
    transforms=["permute_array_layout", "reorder_map", "pad_strides_to_multiple"],
    beam=3,
    depth=4,
    budget=200,
    line_size=hdiff.FIG7_CACHE["line_size"],
    capacity_lines=hdiff.FIG7_CACHE["capacity_lines"],
)
#: The paper's manually tuned hdiff variant moves this many bytes.
MANUAL_BYTES = 177920
#: Per-point latency limit, the same as for a cold point served over HTTP.
LIMIT = 0.250
RESTARTS = 3


def _outcome(point) -> dict:
    doc = point.to_dict()
    doc.pop("seconds")
    return doc


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def __call__(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            self.notes.append(error)


def timed_sweep(session: Session, workers: int | None) -> tuple[float, list, list[float]]:
    """(wall seconds, points, per-point completion gaps) of one grid sweep."""
    stamps: list[float] = []
    start = time.perf_counter()
    points = session.sweep(GRID, workers=workers, on_result=lambda i, p: stamps.append(time.perf_counter()))
    wall = time.perf_counter() - start
    stamps.sort()
    gaps = [b - a for a, b in zip([start] + stamps[:-1], stamps)]
    return wall, points, gaps


def cycle(tmp: Path, index: int, check: Checks, ops: list, sources: list) -> dict:
    """The five operations, each in a fresh session, in a fixed order.

    Appends each operation's wall interval to *ops* and each session's
    (and the search's) ``(metrics, tracer)`` to *sources*.
    """
    out: dict = {}

    def fresh(**kwargs) -> Session:
        session = Session(hdiff.hdiff_program, **kwargs)
        sources.append((session.metrics, session.tracer))
        return session

    def op(name, fn):
        start = time.perf_counter()
        value = fn()
        end = time.perf_counter()
        ops.append((start, end))
        out[name] = end - start
        return value

    _, serial, gaps = op("sweep_serial_s", lambda: timed_sweep(fresh(), None))
    out["point_latencies"] = gaps
    cache_dir = tmp / f"batch-cache{index}"
    _, pooled, _ = op("sweep_pool_s", lambda: timed_sweep(fresh(cache_dir=cache_dir), 2))
    restarts = []
    for _ in range(RESTARTS):
        _, restarted, _ = op(
            "restart_s", lambda: timed_sweep(fresh(cache_dir=cache_dir), 2)
        )
        restarts.append(out["restart_s"])
    out["restarts"] = restarts
    reference = [_outcome(p) for p in serial]
    check(None if [_outcome(p) for p in pooled] == reference else "pooled sweep != serial sweep")
    check(None if [_outcome(p) for p in restarted] == reference else "restarted sweep != serial sweep")

    def prod_view():
        view = fresh().local_view(PROD_VIEW)
        totals = view.miss_counts()
        heatmap = view.miss_heatmap("in_field")
        return totals, heatmap

    totals, heatmap = op("prod_view_s", prod_view)
    check(None if len(heatmap) >= 10**6 else f"production heatmap has {len(heatmap)} elements")
    check(
        None if sum(heatmap.values()) == totals["in_field"].misses
        else "per-element heatmap misses != the container's misses"
    )
    del heatmap

    search = TuningSearch(hdiff.build_sdfg(), hdiff.LOCAL_VIEW_SIZES, **TUNE)
    sources.append((search.metrics, search.tracer))
    result = op("tune_s", search.run)
    out["tune_best_bytes"] = result.best.score.moved_bytes
    out["tuning"] = (result.evaluated, result.deduplicated)
    out["serial_points"] = serial
    out["best_sequence"] = [m.to_dict() for m in result.best.sequence]
    return out


def run(seed: int, seconds: float, tmp: Path, trace: bool) -> dict:
    from oracle import compare_view, rescore, sample

    check = Checks()
    ops: list = []
    sources: list = []
    layers_out: dict = {}
    if trace:
        import layers

        untraced, _, _ = timed_sweep(Session(hdiff.hdiff_program), None)
        log = layers.SpanLog()
        layers.install(log)
    cycles = []
    start = time.perf_counter()
    # Whole cycles until the requested time is used (one when traced):
    # every operation then has a sample from each part of the run.
    while not cycles or (not trace and time.perf_counter() - start < seconds):
        began = time.perf_counter()
        result = cycle(tmp, len(cycles), check, ops, sources)
        result["wall"] = time.perf_counter() - began
        cycles.append(result)

    last = cycles[-1]
    for params in sample([dict(p.params) for p in last["serial_points"]], 3, seed):
        payload = next(p for p in last["serial_points"] if p.params == params).to_dict()
        check(compare_view(payload, 64, 512))
    best = {c["tune_best_bytes"] for c in cycles}
    check(None if len(best) == 1 else f"tuning found different bests: {sorted(best)}")
    replayed = rescore(
        last["best_sequence"], hdiff.LOCAL_VIEW_SIZES, TUNE["line_size"], TUNE["capacity_lines"]
    )
    check(None if replayed == last["tune_best_bytes"] else
          f"best sequence re-scores to {replayed} B, search said {last['tune_best_bytes']} B")
    check(None if last["tune_best_bytes"] <= MANUAL_BYTES else
          f"tuning best {last['tune_best_bytes']} B is worse than the manual {MANUAL_BYTES} B")

    latencies = [g for c in cycles for g in c["point_latencies"]]

    def median_of(name):
        return statistics.median(c[name] for c in cycles)

    metrics = {
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_tail_ms": tail_percentile(latencies, 90) * 1e3,
        "slo_ratio": sum(1 for g in latencies if g <= LIMIT) / len(latencies),
        "throughput_per_s": len(latencies) / len(cycles) / median_of("sweep_pool_s"),
        "restart_s": statistics.median(r for c in cycles for r in c["restarts"]),
        "prod_view_s": median_of("prod_view_s"),
        "tune_s": median_of("tune_s"),
        "tune_best_bytes": last["tune_best_bytes"],
        "sweep_serial_s": median_of("sweep_serial_s"),
        "sweep_pool_s": median_of("sweep_pool_s"),
    }
    if trace:
        layers_out = layers.summarize(log, ops)
        layers_out.update(layers.session_figures(sources))
        evaluated, deduplicated = last["tuning"]
        layers_out["tuning.variants"] = evaluated
        layers_out["tuning.dedup_ratio"] = deduplicated / (evaluated + deduplicated)
        layers_out["loadgen.outstanding_max"] = 1  # one closed-loop caller
        layers_out["analysis.executor.speedup"] = last["sweep_serial_s"] / last["sweep_pool_s"]
        layers_out["trace.overhead_ratio"] = last["sweep_serial_s"] / untraced

    leaked = [p.pid for p in multiprocessing.active_children()]
    check(None if not leaked else f"pool workers left running: {leaked}")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = (own + children) / 1024.0
    return {
        "metrics": metrics,
        "attempted": check.attempted,
        "failed": check.failed,
        "notes": check.notes,
        "cycles": len(cycles),
        "layers": layers_out,
    }


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    seed, seconds, tmp, trace = int(argv[1]), float(argv[2]), Path(argv[3]), argv[4] == "1"
    result = run(seed, seconds, tmp, trace)
    result["metrics"]["setup_s"] = SETUP_S
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
