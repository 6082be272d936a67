"""Parametric scaling analysis (paper Section IV-D) and local-view sweeps.

Symbolic metrics become concrete numbers under a symbol assignment; the
global view "adapt[s] the heatmap visualizations on the fly by
re-evaluating symbolic expressions with the new values".  A
:class:`ParameterSweep` automates the interactive what-if loop: vary one
(or more) parameters and collect how a metric responds, exposing which
input parameters dominate performance.

:func:`sweep_local_views` extends the what-if loop to the *local* view:
every point of a parameter grid runs the full simulation → layout →
stack-distance → miss-classification pipeline and yields a
:class:`LocalSweepPoint`.  Points are independent, so the sweep fans out
over worker processes via the fault-tolerant
:class:`~repro.analysis.executor.SweepExecutor` (the SDFG travels as its
JSON serialization, each worker deserializes once); a serial path
remains both as the narrow pool-cannot-spawn fallback and for
``workers<=1``.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Callable, Generic, Hashable, Iterable, Mapping, Sequence, TypeVar

from repro.errors import AnalysisError, EvaluationError
from repro.symbolic.expr import Expr

__all__ = [
    "evaluate_metrics",
    "evaluate_metrics_grid",
    "ParameterSweep",
    "SweepResult",
    "LocalSweepPoint",
    "parameter_grid",
    "sweep_local_views",
]

K = TypeVar("K", bound=Hashable)


def evaluate_metrics(
    metrics: Mapping[K, Expr], env: Mapping[str, int | float]
) -> dict[K, float]:
    """Evaluate a symbolic metric map under the parameter values *env*.

    Raises :class:`~repro.errors.AnalysisError` naming the first metric
    whose expression still contains unassigned symbols.
    """
    out: dict[K, float] = {}
    for key, expr in metrics.items():
        try:
            out[key] = float(expr.evaluate(env))
        except EvaluationError as exc:
            raise AnalysisError(
                f"metric for {key!r} cannot be evaluated: {exc}"
            ) from exc
    return out


def evaluate_metrics_grid(
    metrics: Mapping[K, Expr],
    envs: Sequence[Mapping[str, int | float]],
    *,
    metrics_registry=None,
    tracer=None,
) -> dict[K, list[float]]:
    """Batched :func:`evaluate_metrics`: all of *envs* in one compiled call.

    Each metric expression is compiled once (hash-consed and cached
    process-wide, see :mod:`repro.symbolic.compiled`) and evaluated over
    the whole grid as vectorized array ops.  Returns one value list per
    metric, ordered like *envs*.  Raises
    :class:`~repro.errors.AnalysisError` naming the first metric that
    cannot be evaluated, matching :func:`evaluate_metrics`.
    """
    from repro.symbolic.compiled import compile_expr
    from repro.symbolic.expr import Number

    out: dict[K, list[float]] = {}
    for key, expr in metrics.items():
        # Constant metrics (common: fixed-size edges) skip the compile
        # machinery entirely — a broadcast beats any program.
        if isinstance(expr, Number):
            out[key] = [float(expr.value)] * len(envs)
            continue
        try:
            fn = compile_expr(expr, metrics=metrics_registry, tracer=tracer)
            out[key] = [float(v) for v in fn.eval_points(envs)]
        except (EvaluationError, KeyError) as exc:
            raise AnalysisError(
                f"metric for {key!r} cannot be evaluated: {exc}"
            ) from exc
    return out


class SweepResult(Generic[K]):
    """Series data from a parameter sweep: one metric value per point."""

    def __init__(self, parameter: str, points: Sequence[int | float]):
        self.parameter = parameter
        self.points: list[int | float] = list(points)
        self.values: list[float] = []

    def growth_factors(self) -> list[float]:
        """Ratio between consecutive metric values (scaling behaviour)."""
        return [
            b / a if a else float("inf")
            for a, b in zip(self.values[:-1], self.values[1:])
        ]

    def __iter__(self):
        return iter(zip(self.points, self.values))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{p}: {v:g}" for p, v in self)
        return f"SweepResult({self.parameter}; {pairs})"


class ParameterSweep:
    """Sweep one parameter while holding the rest of *base_env* fixed.

    Example::

        sweep = ParameterSweep(base_env={"I": 64, "J": 64, "K": 64})
        result = sweep.run("I", [64, 128, 256], total_movement)
    """

    def __init__(
        self,
        base_env: Mapping[str, int | float],
        *,
        metrics_registry=None,
        tracer=None,
    ):
        self.base_env = dict(base_env)
        self.metrics_registry = metrics_registry
        self.tracer = tracer

    def run(
        self,
        parameter: str,
        points: Iterable[int | float],
        metric: Expr | Callable[[Mapping[str, int | float]], float],
    ) -> SweepResult:
        """Evaluate *metric* at every sweep point.

        *metric* is a symbolic expression or a callable receiving the full
        environment (for metrics that are not a single expression).
        Symbolic metrics are compiled once and evaluated over all points
        in a single batched call (:mod:`repro.symbolic.compiled`).
        """
        result = SweepResult(parameter, list(points))
        if isinstance(metric, Expr):
            envs = [
                {**self.base_env, parameter: point} for point in result.points
            ]
            try:
                result.values = self._eval_grid(metric, envs)
                return result
            except EvaluationError:
                # Re-run point by point so the error names the first
                # offending sweep point, like the serial path always did.
                pass
        for point in result.points:
            env = dict(self.base_env)
            env[parameter] = point
            if isinstance(metric, Expr):
                try:
                    value = float(metric.evaluate(env))
                except EvaluationError as exc:
                    raise AnalysisError(f"sweep point {point}: {exc}") from exc
            else:
                value = float(metric(env))
            result.values.append(value)
        return result

    def _eval_grid(
        self, metric: Expr, envs: Sequence[Mapping[str, int | float]]
    ) -> list[float]:
        from repro.symbolic.compiled import compile_expr

        fn = compile_expr(
            metric, metrics=self.metrics_registry, tracer=self.tracer
        )
        return [float(v) for v in fn.eval_points(envs)]

    def rank_parameters(
        self,
        metric: Expr,
        scale_factor: float = 2.0,
    ) -> list[tuple[str, float]]:
        """Rank parameters by metric growth when each is scaled alone.

        Returns ``(parameter, growth)`` pairs sorted by descending growth —
        the "which input parameters are crucial factors" question of the
        paper, answered without program execution.  All scaled
        environments (plus the base point) evaluate as one batched call.
        """
        names = sorted(metric.free_symbols())
        for name in names:
            if name not in self.base_env:
                raise AnalysisError(f"no base value for parameter {name!r}")
        envs: list[Mapping[str, int | float]] = [self.base_env]
        for name in names:
            env = dict(self.base_env)
            env[name] = env[name] * scale_factor
            envs.append(env)
        try:
            values = self._eval_grid(metric, envs)
        except EvaluationError as exc:
            raise AnalysisError(
                f"cannot evaluate metric at the base point: {exc}"
            ) from exc
        base = values[0]
        if base == 0:
            raise AnalysisError("metric evaluates to zero at the base point")
        ranking = [
            (name, scaled / base) for name, scaled in zip(names, values[1:])
        ]
        ranking.sort(key=lambda pair: (-pair[1], pair[0]))
        return ranking


# -- local-view parametric sweeps ---------------------------------------------


def parameter_grid(spec: Mapping[str, Iterable[int]]) -> list[dict[str, int]]:
    """Cross product of per-parameter value lists, as environment dicts.

    ``parameter_grid({"I": [8, 16], "J": [8]})`` yields
    ``[{"I": 8, "J": 8}, {"I": 16, "J": 8}]`` — points vary the *last*
    parameter fastest, matching :func:`itertools.product`.
    """
    names = list(spec)
    axes = [list(spec[name]) for name in names]
    if not names:
        return [{}]
    return [dict(zip(names, combo)) for combo in itertools.product(*axes)]


class LocalSweepPoint:
    """Locality metrics of one parameter point of a local-view sweep.

    Picklable (it crosses process boundaries when the sweep fans out):

    - :attr:`params` — the evaluated symbol assignment;
    - :attr:`misses` — per-container
      :class:`~repro.simulation.cache.MissCounts`;
    - :attr:`moved_bytes` — estimated physical movement per container;
    - :attr:`total_accesses` — trace length;
    - :attr:`seconds` — pipeline wall time for this point.
    """

    __slots__ = ("params", "misses", "moved_bytes", "total_accesses", "seconds")

    def __init__(
        self,
        params: dict[str, int],
        misses: dict,
        moved_bytes: dict[str, int],
        total_accesses: int,
        seconds: float,
    ):
        self.params = params
        self.misses = misses
        self.moved_bytes = moved_bytes
        self.total_accesses = total_accesses
        self.seconds = seconds

    @property
    def total_misses(self) -> int:
        return sum(counts.misses for counts in self.misses.values())

    @property
    def total_moved_bytes(self) -> int:
        return sum(self.moved_bytes.values())

    def to_dict(self) -> dict:
        """JSON-ready summary (the analysis service's response payload)."""
        containers = {}
        for name in sorted(set(self.misses) | set(self.moved_bytes)):
            counts = self.misses.get(name)
            entry = {
                "hits": 0 if counts is None else counts.hits,
                "cold": 0 if counts is None else counts.cold,
                "capacity": 0 if counts is None else counts.capacity,
                "conflict": 0 if counts is None else counts.conflict,
                "misses": 0 if counts is None else counts.misses,
                "moved_bytes": int(self.moved_bytes.get(name, 0)),
            }
            containers[name] = entry
        return {
            "params": dict(self.params),
            "total_accesses": int(self.total_accesses),
            "total_misses": int(self.total_misses),
            "total_moved_bytes": int(self.total_moved_bytes),
            "seconds": float(self.seconds),
            "containers": containers,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalSweepPoint):
            return NotImplemented
        return (
            self.params == other.params
            and self.misses == other.misses
            and self.moved_bytes == other.moved_bytes
            and self.total_accesses == other.total_accesses
        )

    def __repr__(self) -> str:
        return (
            f"LocalSweepPoint({self.params}, accesses={self.total_accesses}, "
            f"misses={self.total_misses}, moved={self.total_moved_bytes}B)"
        )


def _evaluate_point(
    sdfg,
    params: Mapping[str, int],
    line_size: int,
    capacity_lines: int,
    include_transients: bool,
    fast: bool,
    timings=None,
) -> LocalSweepPoint:
    """Run the locality pipeline at one parameter point (array-first).

    *timings* is an optional span collector (a
    :class:`~repro.obs.trace.Tracer`) receiving the per-stage spans of
    this point's pipeline run.
    """
    from repro.analysis.timing import maybe_span
    from repro.errors import ReproError
    from repro.locality import analyze_locality
    from repro.simulation import (
        CacheModel,
        MemoryModel,
        build_array_trace,
        per_container_misses,
        per_container_misses_array,
        simulate_state,
        stack_distances,
        stack_distances_array,
    )
    from repro.simulation.stackdist import line_trace

    start = perf_counter()
    # Analytic-first: the closed-form engine answers exactly when it
    # applies; any engine failure falls back to plain enumeration.
    try:
        with maybe_span(timings, "locality:analytic"):
            analytic = analyze_locality(
                sdfg, params, line_size=line_size,
                include_transients=include_transients, fast=fast,
                timings=timings,
            )
    except ReproError:
        analytic = None
    if analytic is not None:
        with maybe_span(timings, "classify"):
            misses = analytic.miss_counts(capacity_lines)
        moved = {
            name: counts.misses * line_size for name, counts in misses.items()
        }
        return LocalSweepPoint(
            params=dict(params),
            misses=misses,
            moved_bytes=moved,
            total_accesses=analytic.total_events,
            seconds=perf_counter() - start,
        )
    result = simulate_state(
        sdfg, params, include_transients=include_transients, fast=fast,
        timings=timings,
    )
    with maybe_span(timings, "layout"):
        memory = MemoryModel(sdfg, params, line_size=line_size)
        trace = build_array_trace(result, memory)
    model = CacheModel(line_size=line_size, capacity_lines=capacity_lines)
    if trace is not None:
        with maybe_span(timings, "stackdist"):
            distances = stack_distances_array(trace.lines)
        with maybe_span(timings, "classify"):
            misses = per_container_misses_array(trace, distances, model)
    else:
        with maybe_span(timings, "stackdist"):
            distances = stack_distances(line_trace(result.events, memory))
        with maybe_span(timings, "classify"):
            misses = per_container_misses(result.events, memory, model, distances)
    moved = {name: counts.misses * line_size for name, counts in misses.items()}
    return LocalSweepPoint(
        params=dict(params),
        misses=misses,
        moved_bytes=moved,
        total_accesses=result.num_events,
        seconds=perf_counter() - start,
    )


def sweep_local_views(
    sdfg,
    grid: Sequence[Mapping[str, int]],
    workers: int | None = None,
    line_size: int = 64,
    capacity_lines: int = 512,
    include_transients: bool = False,
    fast: bool = True,
    tracer=None,
    metrics=None,
    adaptive: bool = False,
    batch: int | None = None,
) -> list[LocalSweepPoint]:
    """Evaluate the local-view pipeline at every point of *grid*.

    With ``workers > 1`` the points fan out over a worker-process pool
    managed by :class:`~repro.analysis.executor.SweepExecutor` (the SDFG
    is shipped as JSON and deserialized once per worker); the result
    order always matches *grid*.  With ``adaptive=True`` the executor
    first times one point serially and only spawns the pool when the
    measured cost predicts a wall-clock win.

    Error-handling contract: only the narrow "pool cannot be spawned"
    case (no fork/spawn support, unpicklable payload, or a pool that
    dies before producing a single result) falls back to serial
    evaluation.  A deterministic library error at one point — e.g. an
    :class:`~repro.errors.AnalysisError` from the pipeline — propagates
    immediately as :class:`~repro.errors.AnalysisError` naming the
    failing point's parameters; completed points are never re-run.  For
    partial results with structured per-point error records, use
    :class:`~repro.analysis.executor.SweepExecutor` (or
    ``Session.sweep(on_error="record")``) directly.
    """
    from repro.analysis.executor import SweepExecutor

    executor = SweepExecutor(
        workers=None if workers is None or workers <= 1 else workers,
        tracer=tracer,
        metrics=metrics,
        adaptive=adaptive,
        batch=batch,
    )
    run = executor.run(
        sdfg,
        grid,
        line_size=line_size,
        capacity_lines=capacity_lines,
        include_transients=include_transients,
        fast=fast,
        fail_fast=True,
    )
    return run.points
