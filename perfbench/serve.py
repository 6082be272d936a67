"""The ``serve_revisit`` workload on ``repro serve``.

Each run starts its own server processes (``python -m repro serve`` on
the hdiff case study; the restart phase over a fresh cache directory),
drives them with the load generator of :mod:`loadgen`, and stops every
one of them and their pool workers.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import loadgen
import procs
from loadgen import Client
from stats import percentile, tail_percentile

#: Open-loop arrival rate: about a quarter of the mix's closed-loop
#: throughput, so the server is about a third busy.
RATE = 50.0
#: Part of the run's seconds spent in the open loop; the rest in bursts.
SHARE = 0.7
#: Latency limit of ``slo_ratio`` (the serve benchmark's warm target).
LIMIT = 0.050
#: Percentile reported as ``latency_tail_ms``.
TAIL = 95.0

#: Production-size local views, each evaluated cold once.
PROD_VIEWS = [{"I": 1024 - k, "J": 64, "K": 32} for k in range(3)]
#: The timed search: the hdiff rediscovery search of
#: ``tuning_bench.run_hdiff`` (as batch_hdiff runs it in the library),
#: about nine seconds.  Five one-second searches moved together with
#: the machine's speed swings of tens of seconds; one longer search
#: spreads less.
TUNE_PARAMS = {"I": 8, "J": 8, "K": 5}
TUNE = {
    "transforms": ["permute_array_layout", "reorder_map", "pad_strides_to_multiple"],
    "beam": 3,
    "depth": 4,
    "budget": 200,
    "line_size": 64,
    "capacity": 4,
}
#: A small search first, not timed: it pays the one-off import of the
#: tuning modules.
WARM_TUNE_PARAMS = {"I": 8, "J": 8, "K": 3}
WARM_TUNE = dict(TUNE, beam=2, depth=2, budget=24)
#: The paper's manually tuned hdiff variant moves this many bytes.
MANUAL_BYTES = 177920
SETUPS = 3
RESTARTS = 5
#: Closed-loop bursts after the open loop; the median of their rates
#: is reported, so one stall of the machine moves it less.
BURSTS = 3


class Server:
    """One ``repro serve`` child process."""

    def __init__(
        self, root: Path, tmp: Path, cache_dir: Path | None = None, summary: Path | None = None
    ):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(tmp))
        env.pop("REPRO_CACHE_DIR", None)
        serve_args = [
            "serve", str(root / "src/repro/apps/hdiff.py"), "--function", "hdiff_program",
            "--port", "0", "--workers", "2",
        ]
        if cache_dir is not None:
            serve_args += ["--cache-dir", str(cache_dir)]
        if summary is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("server_main.py")),
                   str(summary), *serve_args[1:]]
        self.stopped = False
        self.log = open(tmp / f"server-{time.monotonic_ns()}.log", "wb")
        # A session of its own, so that its pool workers can be found
        # after it exits (procs.py).
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
            start_new_session=True,
        )
        line = self.proc.stdout.readline().decode()
        if " on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split(" on http://")[1].split("/")[0].rsplit(":", 1)[1])

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.perf_counter() + timeout
        client = Client(self.port, timeout=5)
        try:
            while True:
                try:
                    status, _, _ = client.request("GET", "/v1/healthz")
                    if status == 200:
                        return
                except OSError:
                    client.close()
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.005)
        finally:
            client.close()

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server process, all threads."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def stop(self) -> str | None:
        """SIGTERM (graceful drain), then make sure none of its processes
        outlive it.  Returns what went wrong, or None when the server
        drained with exit code 0 and left no process behind."""
        if self.stopped:
            return None
        self.stopped = True
        error = None
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
            if code != 0:
                error = f"server {self.proc.pid} exited with code {code}"
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            error = f"server {self.proc.pid} did not drain within 30 s"
        self.proc.stdout.close()
        self.log.close()
        left = procs.reap_session(self.proc.pid)
        if left:
            error = f"processes of server {self.proc.pid} left running: {left}"
        return error


class Run:
    """Bookkeeping of one benchmark run: attempted and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        #: Failed checks of a defect the program is known to have (see
        #: README.md, "Known defects"): reported, not counted as failed.
        self.known_defects = 0

    def count(self, results, excused=None) -> None:
        """Tally responses; an error for which *excused* holds is the
        known defect, not a new failure."""
        self.attempted += len(results)
        for r in results:
            if r.error and excused is not None and excused(r):
                self.known_defects += 1
            elif r.error:
                self.failed += 1
                if len(self.notes) < 5:
                    self.notes.append(f"{r.request.path}: {r.error}")

    def check(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            self.notes.append(error)


def _timed_start(
    root, tmp, warm, refs, run, servers, cache_dir=None, summary=None, excused=None
) -> tuple[Server, float]:
    """Spawn → healthz 200 → *warm* requests answered; returns the seconds.

    Every server of a run shares *refs*, so a server whose answers
    differ from another's (say, after a restart from disk) fails.
    """
    start = time.perf_counter()
    server = Server(root, tmp, cache_dir, summary)
    servers.append(server)
    server.wait_healthy()
    client = Client(server.port)
    try:
        results = loadgen.run_requests(client, warm, refs)
    finally:
        client.close()
    took = time.perf_counter() - start
    run.count(results, excused)
    return server, took


def _tune(port: int, params: dict, settings: dict, run: Run) -> tuple[float, int, int, int]:
    """POST /v1/tune; returns (seconds, best moved bytes re-scored,
    variants evaluated, duplicates skipped)."""
    from oracle import rescore

    client = Client(port, timeout=120)
    body = json.dumps({"params": params, **settings}).encode()
    start = time.perf_counter()
    try:
        status, _, answer = client.request(
            "POST", "/v1/tune", {"Content-Type": "application/json"}, body
        )
    finally:
        client.close()
    seconds = time.perf_counter() - start
    events = [json.loads(line) for line in answer.splitlines() if line.strip()]
    end = [e for e in events if e.get("event") == "end"]
    if status != 200 or not end:
        run.check(f"tune: status {status}, no end event")
        return seconds, 0, 0, 0
    best = end[0]["best"]
    replayed = rescore(best["sequence"], params, settings["line_size"], settings["capacity"])
    run.check(None if replayed == best["moved_bytes"] else
              f"tune: best {best['moved_bytes']} B re-scores to {replayed} B")
    run.check(None if best["moved_bytes"] <= end[0]["baseline"]["moved_bytes"] else
              "tune: best is worse than the baseline")
    return seconds, best["moved_bytes"], end[0]["evaluated"], end[0]["deduplicated"]


def _tunes(port: int, run: Run, metrics: dict) -> dict:
    """Tuning searches over HTTP; returns their per-layer figures."""
    tunes = [
        _tune(port, WARM_TUNE_PARAMS, WARM_TUNE, run), _tune(port, TUNE_PARAMS, TUNE, run)
    ]
    metrics["tune_s"], metrics["tune_best_bytes"] = tunes[1][:2]
    run.check(None if tunes[1][1] <= MANUAL_BYTES else
              f"tune: best {tunes[1][1]} B is worse than the manual {MANUAL_BYTES} B")
    evaluated = sum(t[2] for t in tunes)
    deduplicated = sum(t[3] for t in tunes)
    return {
        "tuning.variants": evaluated,
        "tuning.dedup_ratio": deduplicated / max(1, evaluated + deduplicated),
    }


def _prod_views(port: int, run: Run, metrics: dict) -> None:
    """Cold production-size local views over HTTP (median)."""
    client = Client(port, timeout=120)
    try:
        views = loadgen.run_requests(client, [loadgen.view_request(p) for p in PROD_VIEWS], {})
    finally:
        client.close()
    run.count(views)
    metrics["prod_view_s"] = statistics.median(r.done - r.sent for r in views)


def _oracle(payloads: list[dict], seed: int, run: Run) -> None:
    from oracle import compare_view, sample

    by_params = {json.dumps(p["params"], sort_keys=True): p for p in payloads}
    for params in sample([p["params"] for p in by_params.values()], 3, seed):
        payload = by_params[json.dumps(params, sort_keys=True)]
        run.check(compare_view(payload, loadgen.LINE_SIZE, loadgen.CAPACITY))


def _load(server, seed, phase, points, envs, refs, run, metrics, burst_seconds):
    """The open loop over the hot set at :data:`RATE` for *phase*
    seconds, then :data:`BURSTS` closed-loop bursts of the same mix over
    both connections.

    ``throughput_per_s`` is the median of the bursts' requests per
    second of server CPU time, what one core of the server sustains.
    The wall-clock rate (``burst_rps``) is bound by hand-offs between
    the server's threads, not by its CPU: it fell by almost half in a
    slow phase of the machine, where CPU time per request rose by far
    less.

    The open loop runs first, on a server that has served only its
    warm-up: alternating open loops with bursts (thousands of requests
    each) raised the open loop's p50 from about 6 to about 11 ms and
    made it vary far more from run to run.
    """
    schedule = loadgen.revisit_schedule(seed, RATE, phase, points, envs)
    main = loadgen.run_open_loop(server.port, schedule, refs)
    run.count(main)
    stream = loadgen.revisit_requests(seed + 1, points, envs)
    bursts, rates, per_cpu = [], [], []
    for _ in range(BURSTS):
        cpu = server.cpu_seconds()
        burst, wall = loadgen.run_closed_loop(server.port, stream, burst_seconds / BURSTS, refs)
        used = server.cpu_seconds() - cpu
        run.count(burst)
        bursts += burst
        rates.append(len(burst) / wall)
        per_cpu.append(len(burst) / used)
    metrics["throughput_per_s"] = statistics.median(per_cpu)
    metrics["burst_rps"] = statistics.median(rates)
    return main, bursts


def run_serve(seed: int, seconds: float, trace: bool, root: Path, tmp: Path) -> dict:
    run = Run()
    points, envs = loadgen.hot_set(seed)
    warm = loadgen.warm_requests(points, envs)
    metrics: dict[str, float] = {}
    servers: list[Server] = []
    refs: dict = {}
    try:
        if trace:
            server, overhead = _traced_start(
                root, tmp, seed, seconds, points, envs, warm, refs, run, servers
            )
            seconds /= 2
        else:
            server = _measured_start(root, tmp, warm, refs, run, servers, metrics)
        # Searches first, on a server that has served only its warm-up:
        # after the burst their times follow how much the burst served.
        tuning = _tunes(server.port, run, metrics)
        phase = seconds * SHARE
        main, burst = _load(
            server, seed, phase, points, envs, refs, run, metrics, seconds - phase
        )
        if not trace:  # the traced run's shorter phase is too small a sample
            latencies = [r.latency for r in main]
            metrics["latency_p50_ms"] = percentile(latencies, 50) * 1e3
            metrics["latency_tail_ms"] = tail_percentile(latencies, TAIL) * 1e3
            metrics["latency_p99_ms"] = tail_percentile(latencies, 99) * 1e3
            metrics["slo_ratio"] = sum(
                1 for r in main if not r.error and r.latency <= LIMIT
            ) / len(main)
        # Peak memory of serving the workload's traffic; the production
        # views would otherwise set the peak.  They run last because
        # their large products slow the collector.
        metrics["peak_rss_mb"] = server.peak_rss_mb()
        _prod_views(server.port, run, metrics)
        generator = {
            "loadgen.lag_p99_ms": loadgen.lag_p99_ms(main),
            "loadgen.outstanding_max": loadgen.outstanding_max(main),
        }
        _oracle([r.payload for r in main + burst if r.payload], seed, run)
    finally:
        for server in servers:
            if not server.stopped:
                run.check(server.stop())
    leaked = procs.children()
    run.check(f"child processes left running: {leaked}" if leaked else None)
    out = {
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "notes": run.notes,
        "known_defects": run.known_defects,
        # A run whose generator fell behind measured the client, not the
        # server: flagged, since no program output is wrong.
        "valid": generator["loadgen.lag_p99_ms"] <= loadgen.MAX_LAG_P99_MS,
    }
    if trace:
        summary = json.loads((tmp / "summary.json").read_text())
        summary.update(generator)
        summary.update(tuning)
        summary["trace.overhead_ratio"] = overhead["traced"] / overhead["untraced"]
        out["layers"] = summary
    return out


def _measured_start(root, tmp, warm, refs, run, servers, metrics) -> Server:
    """Restart: one server fills a cache directory with the hot set, then
    five servers over that directory answer it again.  Set-up: three
    fresh memory-only servers (the default ``repro serve``); the last
    one serves the rest of the run.

    A restarted server renders global heatmap SVGs without their
    movement overlay (README.md, "Known defects"): exactly that symptom
    is tallied as the known defect; every other failure counts.
    """
    cache = tmp / "cache"
    first, _ = _timed_start(root, tmp, warm, refs, run, servers, cache_dir=cache)
    run.check(first.stop())
    restarts, setups = [], []
    for _ in range(RESTARTS):
        server, took = _timed_start(
            root, tmp, warm, refs, run, servers, cache_dir=cache,
            excused=loadgen.is_overlay_defect,
        )
        restarts.append(took)
        run.check(server.stop())
    for index in range(SETUPS):
        server, took = _timed_start(root, tmp, warm, refs, run, servers)
        setups.append(took)
        if index < SETUPS - 1:
            run.check(server.stop())
    metrics["setup_s"] = statistics.median(setups)
    metrics["restart_s"] = statistics.median(restarts)
    return server


def _traced_start(root, tmp, seed, seconds, points, envs, warm, refs, run, servers):
    """Trace overhead: the same open-loop phase on an untraced server,
    then on the traced server that serves the rest of the run."""
    overhead = {}
    for label, summary in (("untraced", None), ("traced", tmp / "summary.json")):
        server, _ = _timed_start(root, tmp, warm, refs, run, servers, summary=summary)
        results = loadgen.run_open_loop(
            server.port, loadgen.revisit_schedule(seed, 30.0, seconds / 8, points, envs), refs
        )
        run.count(results)
        overhead[label] = percentile([r.latency for r in results], 50)
        if summary is None:
            run.check(server.stop())
    return server, overhead
