"""The access-pattern simulator (paper Section V-C).

"In the parameterized graph, where parallel regions have their bounds
fixed, we can perform an iteration space simulation to evaluate these
symbolic expressions and derive the exact data accesses performed by each
computation in the graph."

The simulator walks a state's scopes in topological order, enumerates every
map's concrete iteration space and evaluates each memlet subset at each
point, producing an ordered trace of :class:`AccessEvent` objects.  Symbolic
index expressions are compiled to Python code objects once per memlet, so
the per-iteration cost is a handful of ``eval`` calls.

With ``fast=True`` (the default), flat map scopes whose memlet subsets are
affine in the map parameters bypass the per-iteration loop entirely: the
whole scope trace is materialized with NumPy broadcast arithmetic
(:mod:`~repro.simulation.vectorized`), which is what makes the "fraction
of a second" interactive loop of the paper feasible at realistic sizes.
The two paths are differentially tested to produce identical traces.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Sequence

from repro.errors import SimulationError
from repro.sdfg.data import Array
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, Map, MapEntry, MapExit, NestedSDFG, Node, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.simulation.iterspace import iteration_points
from repro.simulation.trace import AccessEvent, AccessKind

__all__ = [
    "AccessPatternSimulator",
    "SimulationResult",
    "simulate_state",
    "simulate_region",
]

#: Helper globals available when evaluating compiled index expressions.
_EVAL_GLOBALS = {"__builtins__": {}, "Min": min, "Max": max}


class _CompiledSubset:
    """A memlet subset pre-compiled for fast repeated evaluation."""

    __slots__ = ("dims",)

    def __init__(self, memlet: Memlet):
        self.dims = []
        for r in memlet.subset.ranges:
            begin = compile(str(r.begin), "<memlet>", "eval")
            if r.is_point:
                self.dims.append((begin, None, None))
            else:
                end = compile(str(r.end), "<memlet>", "eval")
                step = compile(str(r.step), "<memlet>", "eval")
                self.dims.append((begin, end, step))

    def points(self, env: dict) -> Iterator[tuple[int, ...]]:
        """Concrete element indices covered under *env* (row-major order)."""
        axes: list[list[int]] = []
        for begin, end, step in self.dims:
            b = eval(begin, _EVAL_GLOBALS, env)  # noqa: S307
            if end is None:
                axes.append([int(b)])
                continue
            e = eval(end, _EVAL_GLOBALS, env)  # noqa: S307
            s = eval(step, _EVAL_GLOBALS, env)  # noqa: S307
            if s == 0:
                raise SimulationError("memlet subset step evaluated to zero")
            if s > 0:
                axes.append(list(range(int(b), int(e) + 1, int(s))))
            else:
                axes.append(list(range(int(b), int(e) - 1, int(s))))
        if not axes:
            yield ()
            return
        pos = [0] * len(axes)
        while True:
            yield tuple(a[p] for a, p in zip(axes, pos))
            axis = len(axes) - 1
            while axis >= 0:
                pos[axis] += 1
                if pos[axis] < len(axes[axis]):
                    break
                pos[axis] = 0
                axis -= 1
            if axis < 0:
                return


class SimulationResult:
    """The ordered access trace plus convenient aggregate views.

    Events are stored as a sequence of *segments*.  The interpreter
    appends :class:`AccessEvent` objects eagerly; the vectorized fast
    path registers *lazy* segments (deferred event blocks holding only
    index matrices) so that no per-event Python object exists until a
    consumer explicitly reads :attr:`events`.  Aggregate queries that
    can be answered from the matrices (:meth:`containers`,
    :meth:`access_counts`, :meth:`total_accesses`) never materialize.
    """

    def __init__(self, sdfg: SDFG, env: dict[str, int]):
        self.sdfg = sdfg
        self.env = dict(env)
        self.num_events = 0
        self.num_steps = 0
        self.num_executions = 0
        #: Index matrices recorded by the vectorized fast path; when they
        #: cover the whole trace, line ids can be computed by broadcast
        #: (see :func:`~repro.simulation.vectorized.fast_line_trace`).
        self.vector_blocks: list = []
        self._segments: list = []  # sealed eager lists or lazy segments
        self._tail: list[AccessEvent] = []  # open eager segment
        self._flat: list[AccessEvent] | None = None

    # -- trace construction ----------------------------------------------------
    def append_event(self, event: AccessEvent) -> None:
        """Append one eagerly-built event (the interpreter path)."""
        self._flat = None
        self._tail.append(event)
        self.num_events += 1

    def extend_events(self, events: Sequence[AccessEvent]) -> None:
        """Append a batch of eagerly-built events."""
        self._flat = None
        self._tail.extend(events)
        self.num_events += len(events)

    def add_lazy_segment(self, segment) -> None:
        """Append a deferred event block (``num_events`` + ``materialize()``)."""
        self._flat = None
        if self._tail:
            self._segments.append(self._tail)
            self._tail = []
        self._segments.append(segment)
        self.num_events += segment.num_events

    def _iter_segments(self):
        yield from self._segments
        if self._tail:
            yield self._tail

    def events_materialized(self) -> bool:
        """Whether the object trace exists (no pending lazy segments)."""
        return not any(hasattr(seg, "materialize") for seg in self._segments)

    @property
    def events(self) -> list[AccessEvent]:
        """The ordered object trace; materializes lazy segments on first use."""
        if self._flat is None:
            if self._segments:
                flat: list[AccessEvent] = []
                for seg in self._segments:
                    if hasattr(seg, "materialize"):
                        flat.extend(seg.materialize())
                    else:
                        flat.extend(seg)
                flat.extend(self._tail)
                self._segments = []
                self._tail = flat
            self._flat = self._tail
        return self._flat

    # -- shapes --------------------------------------------------------------
    def shape(self, data: str) -> tuple[int, ...]:
        """Concrete shape of *data* under the simulation parameters."""
        desc = self.sdfg.arrays[data]
        return tuple(int(s.evaluate(self.env)) for s in desc.shape)

    def containers(self) -> list[str]:
        """Containers that appear in the trace, in first-access order."""
        seen: dict[str, None] = {}
        for seg in self._iter_segments():
            if hasattr(seg, "container_order"):
                for name in seg.container_order():
                    seen.setdefault(name)
            else:
                for e in seg:
                    seen.setdefault(e.data)
        return list(seen)

    # -- aggregate views ---------------------------------------------------------
    def container_events(self, data: str) -> list[AccessEvent]:
        return [e for e in self.events if e.data == data]

    def access_counts(
        self, data: str, kind: AccessKind | None = None
    ) -> dict[tuple[int, ...], int]:
        """Flattened time dimension: access count per element (Fig. 4b)."""
        counts: dict[tuple[int, ...], int] = {}
        for seg in self._iter_segments():
            if hasattr(seg, "accumulate_counts"):
                seg.accumulate_counts(data, kind, counts)
                continue
            for e in seg:
                if e.data != data:
                    continue
                if kind is not None and e.kind != kind:
                    continue
                counts[e.indices] = counts.get(e.indices, 0) + 1
        return counts

    def total_accesses(self, data: str | None = None) -> int:
        if data is None:
            return self.num_events
        total = 0
        for seg in self._iter_segments():
            if hasattr(seg, "count_for"):
                total += seg.count_for(data)
            else:
                total += sum(1 for e in seg if e.data == data)
        return total

    def events_at_step(self, step: int) -> list[AccessEvent]:
        """Playback frame: all accesses of one timestep (Section V-C)."""
        return [e for e in self.events if e.step == step]

    def steps(self) -> Iterator[list[AccessEvent]]:
        """Iterate playback frames in order."""
        frame: list[AccessEvent] = []
        current = 0
        for e in self.events:
            if e.step != current:
                yield frame
                frame = []
                current = e.step
            frame.append(e)
        if frame:
            yield frame

    def executions(self) -> Iterator[tuple[int, list[AccessEvent]]]:
        """Iterate (execution id, events) groups — one tasklet firing each."""
        group: list[AccessEvent] = []
        current: int | None = None
        for e in self.events:
            if current is None:
                current = e.execution
            if e.execution != current:
                yield current, group
                group = []
                current = e.execution
            group.append(e)
        if group:
            yield current if current is not None else 0, group

    def per_element_events(self, data: str) -> dict[tuple[int, ...], list[AccessEvent]]:
        out: dict[tuple[int, ...], list[AccessEvent]] = {}
        for e in self.events:
            if e.data == data:
                out.setdefault(e.indices, []).append(e)
        return out

    def __repr__(self) -> str:
        return (
            f"SimulationResult(events={self.num_events}, steps={self.num_steps}, "
            f"containers={self.containers()})"
        )


class AccessPatternSimulator:
    """Simulates the access pattern of a parameterized state.

    Parameters
    ----------
    sdfg:
        The program.
    symbols:
        Concrete values for every free symbol of the simulated region —
        the small "parameterization" sizes of the local view.
    state:
        The state to simulate (default: every state in order).
    include_transients:
        When False (default), accesses to scalar transients (tasklet
        locals) are excluded — they live in registers, not memory.
    fast:
        When True (default), flat map scopes with affine memlet subsets
        are simulated by the vectorized fast path
        (:mod:`~repro.simulation.vectorized`); pass False to force the
        per-iteration interpreter everywhere (the differential-testing
        reference).  Both paths produce identical traces.
    timings:
        Optional :class:`~repro.obs.trace.Tracer` recording
        enumerate/evaluate wall-time spans.
    """

    def __init__(
        self,
        sdfg: SDFG,
        symbols: Mapping[str, int] | None = None,
        state: SDFGState | None = None,
        include_transients: bool = False,
        fast: bool = True,
        timings=None,
    ):
        self.sdfg = sdfg
        self.symbols = {k: int(v) for k, v in (symbols or {}).items()}
        self.state = state
        self.include_transients = include_transients
        self.fast = fast
        self.timings = timings
        missing = sorted(
            s for s in sdfg.free_symbols() if s not in self.symbols
        )
        if missing:
            raise SimulationError(
                f"simulation requires concrete values for symbols {missing}"
            )

    # -- public API ---------------------------------------------------------
    def run(self) -> SimulationResult:
        result = SimulationResult(self.sdfg, self.symbols)
        states = [self.state] if self.state is not None else self.sdfg.all_states_topological()
        for state in states:
            self._simulate_state(state, result)
        return result

    # -- internals -------------------------------------------------------------
    def _tracked(self, data: str) -> bool:
        if self.include_transients:
            return True
        desc = self.sdfg.arrays.get(data)
        return desc is None or isinstance(desc, Array)

    def _simulate_state(self, state: SDFGState, result: SimulationResult) -> None:
        children = state.scope_children()
        sdict = state.scope_dict()
        env: dict[str, int] = dict(self.symbols)
        for node in state.topological_nodes():
            if sdict[node] is not None:
                continue  # handled by its scope
            if isinstance(node, MapEntry):
                self._simulate_scope(state, node, children, env, result, outer_point=())
            elif isinstance(node, Tasklet):
                step = self._next_step(result)
                self._execute_tasklet(state, node, env, result, point=(), step=step)
            elif isinstance(node, NestedSDFG):
                self._simulate_nested(state, node, env, result, outer_point=())
            elif isinstance(node, AccessNode):
                self._simulate_copies(state, node, env, result)

    def _simulate_scope(
        self,
        state: SDFGState,
        entry: MapEntry,
        children: dict,
        env: dict[str, int],
        result: SimulationResult,
        outer_point: tuple[int, ...],
        map_obj: Map | None = None,
    ) -> None:
        # *map_obj* overrides the entry's iteration space (simulate_region's
        # outer-loop window) without touching the graph.
        if map_obj is None:
            map_obj = entry.map
        scope_nodes = children.get(entry, [])
        order = [n for n in state.topological_nodes() if n in scope_nodes]
        tasklets = [n for n in order if isinstance(n, Tasklet)]
        nested = [n for n in order if isinstance(n, MapEntry)]
        nested_sdfgs = [n for n in order if isinstance(n, NestedSDFG)]
        params = map_obj.params

        if self.fast and not nested and not nested_sdfgs:
            from repro.simulation.vectorized import simulate_scope_vectorized

            if simulate_scope_vectorized(
                state, entry, tasklets, env, result, outer_point,
                self._tracked, self._compiled, timings=self.timings,
                map_obj=map_obj,
            ):
                return

        from repro.analysis.timing import maybe_span

        # Only the outermost scope records a span: recursive calls for
        # nested maps run inside it and must not double-count.
        events_before = result.num_events
        with maybe_span(self.timings if not outer_point else None, "evaluate") as span:
            for point in iteration_points(map_obj, env):
                for name, value in zip(params, point):
                    env[name] = value
                step = self._next_step(result)
                for tasklet in tasklets:
                    self._execute_tasklet(
                        state, tasklet, env, result, point=outer_point + point, step=step
                    )
                for nested_node in nested_sdfgs:
                    self._simulate_nested(
                        state, nested_node, env, result, outer_point=outer_point + point
                    )
                for inner in nested:
                    self._simulate_scope(
                        state, inner, children, env, result, outer_point=outer_point + point
                    )
            for name in params:
                env.pop(name, None)
            span.set(scope=map_obj.label, events=result.num_events - events_before)

    def _next_step(self, result: SimulationResult) -> int:
        step = result.num_steps
        result.num_steps += 1
        return step

    def _execute_tasklet(
        self,
        state: SDFGState,
        tasklet: Tasklet,
        env: dict[str, int],
        result: SimulationResult,
        point: tuple[int, ...],
        step: int,
    ) -> None:
        execution = result.num_executions
        result.num_executions += 1
        for edge in state.in_edges(tasklet):
            memlet = edge.data.memlet
            if memlet is None or not self._tracked(memlet.data):
                continue
            for indices in self._compiled(memlet).points(env):
                result.append_event(
                    AccessEvent(
                        memlet.data, indices, AccessKind.READ, step, execution,
                        tasklet.name, point,
                    )
                )
        for edge in state.out_edges(tasklet):
            memlet = edge.data.memlet
            if memlet is None or not self._tracked(memlet.data):
                continue
            for indices in self._compiled(memlet).points(env):
                result.append_event(
                    AccessEvent(
                        memlet.data, indices, AccessKind.WRITE, step, execution,
                        tasklet.name, point,
                    )
                )

    def _simulate_nested(
        self,
        state: SDFGState,
        node: NestedSDFG,
        env: dict[str, int],
        result: SimulationResult,
        outer_point: tuple[int, ...],
    ) -> None:
        """Simulate a NestedSDFG node: recurse and translate the events.

        Connector memlets bind inner container names to outer containers
        at a per-dimension offset (the subset's begin); inner transients
        are private and excluded like tasklet locals.
        """
        from repro.symbolic.expr import sympify

        inner = node.sdfg
        inner_env: dict[str, int] = {}
        for name, value in node.symbol_mapping.items():
            inner_env[name] = int(sympify(value).evaluate(env))
        for symbol in inner.free_symbols():
            if symbol not in inner_env and symbol in env:
                inner_env[symbol] = env[symbol]

        bindings: dict[str, tuple[str, tuple[int, ...]]] = {}

        def bind(conn: str, memlet) -> None:
            offsets = tuple(
                int(r.begin.evaluate(env)) for r in memlet.subset.ranges
            )
            bindings[conn] = (memlet.data, offsets)

        for edge in state.in_edges(node):
            if edge.data.memlet is not None and edge.data.dst_conn is not None:
                bind(edge.data.dst_conn, edge.data.memlet)
        for edge in state.out_edges(node):
            if edge.data.memlet is not None and edge.data.src_conn is not None:
                if edge.data.src_conn not in bindings:
                    bind(edge.data.src_conn, edge.data.memlet)

        sub_result = AccessPatternSimulator(
            inner, inner_env, include_transients=False
        ).run()
        step_base = result.num_steps
        execution_base = result.num_executions
        for event in sub_result.events:
            binding = bindings.get(event.data)
            if binding is None:
                continue  # inner transient: private, like tasklet locals
            data, offsets = binding
            if len(offsets) != len(event.indices):
                raise SimulationError(
                    f"nested connector {event.data!r} rank mismatch"
                )
            indices = tuple(i + o for i, o in zip(event.indices, offsets))
            result.append_event(
                AccessEvent(
                    data, indices, event.kind, step_base + event.step,
                    execution_base + event.execution, event.tasklet,
                    outer_point + event.point,
                )
            )
        result.num_steps += sub_result.num_steps
        result.num_executions += sub_result.num_executions

    def _simulate_copies(
        self,
        state: SDFGState,
        node: AccessNode,
        env: dict[str, int],
        result: SimulationResult,
    ) -> None:
        """Access-node-to-access-node edges are whole-subset copies."""
        for edge in state.out_edges(node):
            if not isinstance(edge.dst, AccessNode) or edge.data.memlet is None:
                continue
            memlet = edge.data.memlet
            if not (self._tracked(node.data) and self._tracked(edge.dst.data)):
                continue
            step = self._next_step(result)
            execution = result.num_executions
            result.num_executions += 1
            src_points = list(self._compiled(memlet).points(dict(self.symbols)))
            for indices in src_points:
                result.append_event(
                    AccessEvent(
                        memlet.data, indices, AccessKind.READ, step, execution,
                        f"copy_{node.data}_{edge.dst.data}", (),
                    )
                )
            # Destination side: same shape, destination container; assume an
            # aligned (identical-subset) copy when ranks match.
            if edge.dst.data != memlet.data:
                dst_desc = self.sdfg.arrays.get(edge.dst.data)
                if dst_desc is not None and len(dst_desc.shape) == len(
                    self.sdfg.arrays[memlet.data].shape
                ):
                    for indices in src_points:
                        result.append_event(
                            AccessEvent(
                                edge.dst.data, indices, AccessKind.WRITE, step,
                                execution, f"copy_{node.data}_{edge.dst.data}", (),
                            )
                        )

    # -- compiled memlet cache -----------------------------------------------------
    _cache_attr = "_compiled_subsets"

    def _compiled(self, memlet: Memlet) -> _CompiledSubset:
        cache: dict[int, _CompiledSubset] = getattr(self, "_subset_cache", None) or {}
        if not hasattr(self, "_subset_cache"):
            self._subset_cache = cache
        key = id(memlet)
        compiled = cache.get(key)
        if compiled is None:
            compiled = _CompiledSubset(memlet)
            cache[key] = compiled
        return compiled


def simulate_state(
    sdfg: SDFG,
    symbols: Mapping[str, int],
    state: SDFGState | None = None,
    include_transients: bool = False,
    fast: bool = True,
    timings=None,
) -> SimulationResult:
    """Convenience wrapper: build a simulator and run it."""
    return AccessPatternSimulator(
        sdfg, symbols=symbols, state=state, include_transients=include_transients,
        fast=fast, timings=timings,
    ).run()


class _ConcreteIndices:
    """A map range stand-in holding an explicit list of concrete indices.

    :func:`simulate_region` simulates a copy of the map whose outermost
    range is one of these, to restrict simulation to a window of
    iterations.
    Only the protocol the simulation paths actually exercise is provided:
    ``concretize`` (both the interpreter's ``iteration_points`` and the
    vectorized ``_iteration_grids`` go through it), ``size`` and
    ``free_symbols``.
    """

    __slots__ = ("indices",)

    def __init__(self, indices: Sequence[int]):
        self.indices = list(indices)

    def concretize(self, env: Mapping[str, int]) -> list[int]:
        return list(self.indices)

    def size(self, env: Mapping[str, int]) -> int:
        return len(self.indices)

    def free_symbols(self) -> frozenset[str]:
        return frozenset()


def simulate_region(
    sdfg: SDFG,
    symbols: Mapping[str, int],
    state: SDFGState,
    node: Node,
    include_transients: bool = False,
    fast: bool = True,
    timings=None,
    outer_slice: tuple[int, int] | None = None,
) -> SimulationResult:
    """Simulate a single top-level region (one node's scope) of a state.

    The analytic locality engine (:mod:`repro.locality`) decomposes a
    state into per-region traces; regions it cannot fold analytically are
    enumerated here through the regular simulator, so a stitched sequence
    of region traces is event-for-event identical to
    :func:`simulate_state` on the whole state.

    ``outer_slice=(lo, hi)`` restricts the *outermost* map dimension of a
    map region to the half-open window ``[lo, hi)`` of its iteration
    list — the window-fold path simulates a few representative blocks of
    the outer loop instead of its whole extent.
    """
    sim = AccessPatternSimulator(
        sdfg, symbols=symbols, state=state,
        include_transients=include_transients, fast=fast, timings=timings,
    )
    result = SimulationResult(sdfg, sim.symbols)
    env: dict[str, int] = dict(sim.symbols)
    if isinstance(node, MapEntry):
        map_obj = node.map
        if outer_slice is not None:
            lo, hi = outer_slice
            indices = list(map_obj.ranges[0].concretize(env))[lo:hi]
            map_obj = Map(
                map_obj.label,
                map_obj.params,
                (_ConcreteIndices(indices),) + map_obj.ranges[1:],
            )
        sim._simulate_scope(
            state, node, state.scope_children(), env, result, outer_point=(),
            map_obj=map_obj,
        )
    elif isinstance(node, Tasklet):
        step = sim._next_step(result)
        sim._execute_tasklet(state, node, env, result, point=(), step=step)
    elif isinstance(node, NestedSDFG):
        sim._simulate_nested(state, node, env, result, outer_point=())
    elif isinstance(node, AccessNode):
        sim._simulate_copies(state, node, env, result)
    else:
        raise SimulationError(
            f"cannot simulate a region rooted at {type(node).__name__}"
        )
    return result
