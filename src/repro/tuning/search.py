"""Beam search over transform sequences, scored by the incremental pipeline.

The search explores sequences of content-keyed transform matches
(:mod:`repro.transforms.protocol`) over a program:

- **enumeration** — every registered transform lists its matches on each
  frontier candidate; applying one match to a *copy* of the candidate
  yields a child variant;
- **dedup** — children are deduplicated by SDFG content fingerprint
  against every variant visited so far, so commuting sequences (permute A
  then B vs. B then A) are explored once;
- **scoring** — children are evaluated through the search's own
  pipeline via the fault-tolerant
  :class:`~repro.analysis.executor.SweepExecutor` (parallel across
  candidates when *workers* is set); the objective is modeled physical
  movement at the given parameter point, so layout-only children re-score
  almost free (the logical-keyed simulation trace is a pipeline cache
  hit);
- **selection** — the best *beam* children (fewest moved bytes) form the
  next frontier; the search runs until *depth* rounds, the evaluation
  *budget*, the wall-clock *timeout*, or a frontier with no new children.

Observability: one ``tune.run`` span wraps the search with one
``tune.round`` span per frontier expansion, and the metrics registry
counts ``tuning.candidates.evaluated`` / ``.deduplicated`` /
``.apply_failures`` and ``tuning.rounds``.  Progress is streamable: every
scored candidate triggers an *on_event* callback (the ``/v1/tune``
endpoint forwards these as NDJSON lines).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.executor import CancelToken, SweepExecutor, SweepPointError
from repro.errors import TransformError, TuningError
from repro.resilience.deadline import Deadline
from repro.passes import PassContext, ResultStore, build_pipeline
from repro.sdfg.sdfg import SDFG
from repro.sdfg.serialize import sdfg_fingerprint
from repro.transforms.protocol import Match, Transform, resolve_transforms
from repro.transforms.report import TransformReport
from repro.tuning.objective import CandidateScore, MovementObjective

__all__ = ["Candidate", "TuningResult", "TuningSearch", "VARIANT_KEY"]

#: Synthetic grid key carrying the candidate index through the executor.
VARIANT_KEY = "__variant__"

#: Memory-tier entries of a search's private store.  A candidate's
#: point-chain products key on its full content, which the search never
#: scores twice, so only logical-keyed products (the simulation trace,
#: ``global.totals``) are re-read, by layout-only siblings scored next
#: to each other.  Holding a whole round instead (~256 entries on the
#: hdiff search) keeps ~35 MB of analytic products alive beside the
#: caller's store to save ~40 ``global.totals`` re-runs (~0.4 s on a
#: 2-core machine).
SEARCH_ENTRIES = 64


class Candidate:
    """One explored variant: a transform sequence and its scored SDFG."""

    __slots__ = ("sequence", "sdfg", "fingerprint", "score", "round")

    def __init__(
        self,
        sequence: tuple[Match, ...],
        sdfg: SDFG,
        fingerprint: str,
        score: CandidateScore | None = None,
        round: int = 0,
    ):
        self.sequence = sequence
        self.sdfg = sdfg
        self.fingerprint = fingerprint
        self.score = score
        self.round = round

    def describe_sequence(self) -> list[dict[str, Any]]:
        return [m.to_dict() for m in self.sequence]

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "sequence": self.describe_sequence(),
            "fingerprint": self.fingerprint,
            "round": self.round,
        }
        if self.score is not None:
            out.update(self.score.to_dict())
        return out

    def __repr__(self) -> str:
        steps = " -> ".join(m.transform for m in self.sequence) or "<baseline>"
        moved = "unscored" if self.score is None else self.score.moved_bytes
        return f"Candidate({steps}, moved_bytes={moved})"


class TuningResult:
    """Outcome of one tuning search."""

    def __init__(
        self,
        baseline: Candidate,
        best: Candidate,
        trajectory: list[dict[str, Any]],
        evaluated: int,
        deduplicated: int,
        rounds: int,
        seconds: float,
        stopped: str,
        pass_hits: int,
    ):
        #: The unmodified program's candidate (empty sequence), scored.
        self.baseline = baseline
        #: The best variant found (may be the baseline).
        self.best = best
        #: One entry per scored candidate, in evaluation order — the
        #: roofline view plots this as the search trajectory.
        self.trajectory = trajectory
        self.evaluated = evaluated
        self.deduplicated = deduplicated
        self.rounds = rounds
        self.seconds = seconds
        #: Why the search ended: ``"converged"``, ``"depth"``,
        #: ``"budget"``, ``"timeout"``, ``"deadline"`` or ``"cancelled"``.
        self.stopped = stopped
        #: Pipeline pass-cache hits observed across candidate scoring.
        self.pass_hits = pass_hits

    @property
    def improvement(self) -> float:
        """Fractional movement reduction of the best variant vs. baseline."""
        base = self.baseline.score.moved_bytes if self.baseline.score else 0
        if base <= 0 or self.best.score is None:
            return 0.0
        return 1.0 - self.best.score.moved_bytes / base

    def to_dict(self) -> dict[str, Any]:
        return {
            "baseline": self.baseline.to_dict(),
            "best": self.best.to_dict(),
            "improvement": self.improvement,
            "evaluated": self.evaluated,
            "deduplicated": self.deduplicated,
            "rounds": self.rounds,
            "seconds": self.seconds,
            "stopped": self.stopped,
            "pass_hits": self.pass_hits,
            "trajectory": self.trajectory,
        }

    def __repr__(self) -> str:
        return (
            f"TuningResult(best={self.best!r}, "
            f"improvement={self.improvement:.1%}, evaluated={self.evaluated}, "
            f"stopped={self.stopped!r})"
        )


class _VariantPointFn:
    """Picklable pool-side evaluator: variant marker -> serialized SDFG.

    Mirrors :class:`~repro.storage.DiskCachedPointFn`'s shape — worker
    processes cannot share the session pipeline, so they deserialize
    their assigned variant and evaluate the locality point from scratch.
    """

    def __init__(self, texts: dict[int, str]):
        self.texts = texts

    def __call__(
        self, _sdfg_text, params, line_size, capacity_lines,
        include_transients, fast,
    ):
        from repro.analysis import parametric
        from repro.sdfg.serialize import loads

        params = dict(params)
        index = int(params.pop(VARIANT_KEY))
        sdfg = loads(self.texts[index])
        return parametric._evaluate_point(
            sdfg, params, line_size, capacity_lines, include_transients, fast
        )


class TuningSearch:
    """Beam search over transform sequences on one program.

    Parameters
    ----------
    sdfg:
        The program to tune (never mutated: children are copies).
    params:
        Concrete simulation sizes for the local-view objective.
    transforms:
        Transform instances or registry names to search over; defaults to
        :func:`~repro.transforms.protocol.default_transforms`.
    beam:
        Frontier width — how many best candidates expand per round.
    depth:
        Maximum sequence length (rounds of expansion).
    budget:
        Maximum number of scored candidates, baseline included.
    timeout:
        Overall wall-clock budget in seconds (``None`` disables).
    workers:
        Fan candidate evaluation out over a process pool when > 1; the
        in-process path (default) scores through the search's pipeline
        and benefits from cross-candidate pass caching.
    tracer, metrics:
        Where the search's spans and counters go (a session passes its
        own); fresh collectors when absent.

    Every search builds a private pipeline and store: candidate keys
    never overlap another search's or an interactive query's, so sharing
    a store would only evict the caller's working set.
    """

    def __init__(
        self,
        sdfg: SDFG,
        params: Mapping[str, int],
        transforms: Sequence[Transform | str] | None = None,
        beam: int = 6,
        depth: int = 4,
        budget: int = 512,
        line_size: int = 64,
        capacity_lines: int = 512,
        include_transients: bool = False,
        fast: bool = True,
        timeout: float | None = None,
        workers: int | None = None,
        tracer=None,
        metrics=None,
    ):
        if beam < 1:
            raise TuningError("beam width must be >= 1")
        if depth < 1:
            raise TuningError("search depth must be >= 1")
        if budget < 1:
            raise TuningError("evaluation budget must be >= 1")
        self.sdfg = sdfg
        self.params = dict(params)
        try:
            self.transforms = resolve_transforms(
                transforms, line_bytes=line_size
            )
        except TransformError as exc:
            raise TuningError(f"bad transform set: {exc}") from exc
        if not self.transforms:
            raise TuningError("no transforms to search over")
        self.beam = int(beam)
        self.depth = int(depth)
        self.budget = int(budget)
        self.timeout = timeout
        self.workers = workers
        from repro.obs import MetricsRegistry, Tracer

        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.pipeline = build_pipeline(
            store=ResultStore(maxsize=SEARCH_ENTRIES),
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.scope = (sdfg.name, "tune")
        self.objective = MovementObjective(
            self.pipeline,
            self.params,
            line_size=line_size,
            capacity_lines=capacity_lines,
            include_transients=include_transients,
            fast=fast,
            scope=self.scope,
            timings=self.tracer,
            metrics=self.metrics,
        )
        self._cfg = {
            "line_size": line_size,
            "capacity_lines": capacity_lines,
            "include_transients": include_transients,
            "fast": fast,
        }

    # -- observability helpers ------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if amount:
            self.metrics.counter(name).inc(amount)

    def _pass_hits(self) -> int:
        counters = self.metrics.to_dict()["counters"]
        return sum(
            value
            for name, value in counters.items()
            if name.startswith("pass.") and name.endswith(".hits")
        )

    # -- search ----------------------------------------------------------------
    def run(
        self,
        cancel: CancelToken | None = None,
        on_event: Callable[[dict[str, Any]], None] | None = None,
        deadline: "Deadline | None" = None,
    ) -> TuningResult:
        """Run the search; returns the scored trajectory and best variant.

        *deadline* (a :class:`~repro.resilience.deadline.Deadline`) is
        the caller's request deadline; it tightens the search's own
        ``timeout`` budget and stops the search with reason
        ``"deadline"`` — distinguishable from ``"timeout"`` (the
        search's configured budget) in the result and terminal event.
        """
        start = time.monotonic()
        budget_at = None if self.timeout is None else start + self.timeout
        deadline_at = None if deadline is None else deadline.at
        hits_before = self._pass_hits()

        def emit(event: dict[str, Any]) -> None:
            if on_event is not None:
                on_event(event)

        with self.tracer.span(
            "tune.run", beam=self.beam, depth=self.depth, budget=self.budget
        ):
            baseline = Candidate((), self.sdfg, sdfg_fingerprint(self.sdfg))
            baseline.score = self.objective.score(self.sdfg)
            evaluated = 1
            deduplicated = 0
            trajectory: list[dict[str, Any]] = [baseline.to_dict()]
            visited = {baseline.fingerprint}
            frontier = [baseline]
            best = baseline
            stopped = "depth"
            rounds = 0
            emit({
                "event": "start",
                "params": dict(self.params),
                "transforms": [t.name for t in self.transforms],
                "beam": self.beam,
                "depth": self.depth,
                "budget": self.budget,
                "baseline": baseline.to_dict(),
            })

            for round_index in range(1, self.depth + 1):
                if cancel is not None and cancel.cancelled:
                    stopped = "cancelled"
                    break
                now = time.monotonic()
                if deadline_at is not None and now >= deadline_at:
                    stopped = "deadline"
                    break
                if budget_at is not None and now >= budget_at:
                    stopped = "timeout"
                    break
                if evaluated >= self.budget:
                    stopped = "budget"
                    break
                with self.tracer.span("tune.round", round=round_index):
                    stop_at = (
                        budget_at
                        if deadline_at is None
                        else deadline_at
                        if budget_at is None
                        else min(budget_at, deadline_at)
                    )
                    children, skipped = self._expand(
                        frontier, visited, round_index,
                        limit=self.budget - evaluated,
                        deadline=stop_at, cancel=cancel,
                    )
                    deduplicated += skipped
                    if not children:
                        stopped = "converged"
                        break
                    rounds = round_index
                    self._count("tuning.rounds")
                    scored = self._evaluate(children, cancel=cancel)
                    evaluated += len(scored)
                    self._count("tuning.candidates.evaluated", len(scored))
                    emit({
                        "event": "round",
                        "round": round_index,
                        "candidates": len(children),
                        "scored": len(scored),
                        "evaluated": evaluated,
                    })
                    for candidate in scored:
                        improved = (
                            best.score is None
                            or candidate.score.moved_bytes
                            < best.score.moved_bytes
                        )
                        if improved:
                            best = candidate
                        trajectory.append(candidate.to_dict())
                        emit({
                            "event": "candidate",
                            "round": round_index,
                            **candidate.to_dict(),
                            "best": improved,
                        })
                # Next frontier: the `beam` best scored children.
                scored.sort(key=lambda c: (
                    c.score.moved_bytes, len(c.sequence)
                ))
                frontier = scored[: self.beam]
                if not frontier:
                    stopped = "converged"
                    break

        seconds = time.monotonic() - start
        result = TuningResult(
            baseline=baseline,
            best=best,
            trajectory=trajectory,
            evaluated=evaluated,
            deduplicated=deduplicated,
            rounds=rounds,
            seconds=seconds,
            stopped=stopped,
            pass_hits=self._pass_hits() - hits_before,
        )
        if self.metrics is not None:
            self.metrics.gauge("tuning.best_moved_bytes").set(
                best.score.moved_bytes if best.score else 0
            )
        emit({"event": "end", **{
            k: v for k, v in result.to_dict().items() if k != "trajectory"
        }})
        return result

    def _expand(
        self,
        frontier: list[Candidate],
        visited: set[str],
        round_index: int,
        limit: int,
        deadline: float | None,
        cancel: CancelToken | None,
    ) -> tuple[list[Candidate], int]:
        """All not-yet-visited children of the frontier, up to *limit*."""
        children: list[Candidate] = []
        skipped = 0
        for parent in frontier:
            for transform in self.transforms:
                for match in transform.enumerate_matches(parent.sdfg):
                    if len(children) >= limit:
                        return children, skipped
                    if cancel is not None and cancel.cancelled:
                        return children, skipped
                    if (
                        deadline is not None
                        and time.monotonic() >= deadline
                    ):
                        return children, skipped
                    variant = parent.sdfg.copy()
                    try:
                        report = transform.apply(variant, match)
                    except TransformError:
                        self._count("tuning.apply_failures")
                        continue
                    assert isinstance(report, TransformReport)
                    fingerprint = sdfg_fingerprint(variant)
                    if fingerprint in visited:
                        skipped += 1
                        self._count("tuning.candidates.deduplicated")
                        continue
                    visited.add(fingerprint)
                    children.append(Candidate(
                        parent.sequence + (match,),
                        variant,
                        fingerprint,
                        round=round_index,
                    ))
        return children, skipped

    def _evaluate(
        self, children: list[Candidate], cancel: CancelToken | None
    ) -> list[Candidate]:
        """Score *children* via the sweep executor; returns the scored ones.

        The executor sees one synthetic grid point per candidate; the
        in-process path evaluates through the search's pipeline (pass-cache
        reuse across variants), the pool path ships each variant's
        serialized text to the workers.
        """
        grid = [
            {**self.params, VARIANT_KEY: index}
            for index in range(len(children))
        ]
        variants = [child.sdfg for child in children]

        def serial_fn(
            _sdfg, point_params, line_size, capacity_lines,
            include_transients, fast,
        ):
            point_params = dict(point_params)
            index = int(point_params.pop(VARIANT_KEY))
            ctx = PassContext(
                variants[index],
                state=None,
                env=point_params,
                line_size=line_size,
                capacity_lines=capacity_lines,
                include_transients=include_transients,
                fast=fast,
                scope=self.scope,
                timings=self.tracer,
                metrics=self.metrics,
            )
            return self.pipeline.run("local.point", ctx)

        use_pool = self.workers is not None and self.workers > 1
        point_fn = None
        if use_pool:
            from repro.sdfg.serialize import dumps

            point_fn = _VariantPointFn({
                index: dumps(variant, indent=None)
                for index, variant in enumerate(variants)
            })
        executor = SweepExecutor(
            workers=self.workers if use_pool else None,
            retries=1,
            tracer=self.tracer,
            metrics=self.metrics,
            point_fn=point_fn,
            serial_fn=serial_fn,
        )
        run = executor.run(
            self.sdfg, grid, cancel=cancel, **self._cfg
        )
        scored: list[Candidate] = []
        for child, outcome in zip(children, run.outcomes):
            if isinstance(outcome, SweepPointError):
                self._count("tuning.candidates.failed")
                continue
            child.score = self.objective.from_point(child.sdfg, outcome)
            scored.append(child)
        return scored
