"""Global-view analyses as incremental pipeline passes.

The symbolic metrics behind the global view's overlays — logical data
movement, operation counts, arithmetic intensity, and whole-program
totals — each become a :class:`~repro.passes.base.Pass`.  Symbolic
passes depend only on graph content, so slider moves (a new symbol
environment) re-run *only* the cheap evaluation passes; conversely, a
transform invalidates the symbolic passes but an unchanged environment
lets the evaluation passes reuse their own key structure.

Per-edge and per-node products are keyed by ``(state name, state-local
edge or node index)``, never by the live graph objects: a product served
from the persistent cache tier in another process must still address the
live graph (:class:`~repro.tool.session.GlobalView` maps the indices back).
Both the name and the index order are part of the state fingerprint the
products are keyed by.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping, Sequence

from repro.analysis.intensity import scope_intensities
from repro.analysis.movement import edge_movement_bytes, total_movement_bytes
from repro.analysis.opcount import program_ops, scope_ops
from repro.analysis.parametric import evaluate_metrics_grid
from repro.passes.base import Pass, PassContext

__all__ = [
    "MovementPass",
    "OpCountPass",
    "IntensityPass",
    "ProgramTotalsPass",
    "MovementEvalPass",
    "OpCountEvalPass",
    "IntensityEvalPass",
    "ProgramTotalsEvalPass",
    "global_passes",
]


def _states(ctx: PassContext) -> list:
    return [ctx.state] if ctx.state is not None else ctx.sdfg.states()


def _by_index(
    state, values: Mapping[Hashable, Any], elements: Sequence
) -> dict[tuple[str, int], Any]:
    """Re-key *values* (keyed by members of *elements*) by position."""
    position = {element: index for index, element in enumerate(elements)}
    return {(state.name, position[key]): value for key, value in values.items()}


class MovementPass(Pass):
    """Symbolic per-edge movement volumes, in both counting modes.

    The product maps ``"unique"`` (distinct elements crossing each edge —
    the heatmap metric) and ``"counted"`` (access counts) to per-edge
    byte expressions.  Depends on the focus state's graph content and the
    *logical* descriptors only: element sizes matter, strides do not.
    """

    name = "global.movement"
    uses = ("scope", "state", "arrays.logical")

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> Any:
        out: dict[str, dict] = {"unique": {}, "counted": {}}
        for state in _states(ctx):
            edges = state.edges()
            for mode, unique in (("unique", True), ("counted", False)):
                out[mode].update(_by_index(
                    state, edge_movement_bytes(ctx.sdfg, state, unique=unique), edges
                ))
        return out


class OpCountPass(Pass):
    """Symbolic per-node arithmetic-operation counts of the focus state."""

    name = "global.opcount"
    uses = ("scope", "state")

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> Any:
        out: dict = {}
        for state in _states(ctx):
            out.update(_by_index(state, scope_ops(state), state.nodes()))
        return out


class IntensityPass(Pass):
    """Symbolic arithmetic intensity, reusing the opcount product."""

    name = "global.intensity"
    depends_on = ("global.opcount",)
    uses = ("scope", "state", "arrays.logical")

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> Any:
        ops = inputs["global.opcount"]
        out: dict = {}
        for state in _states(ctx):
            nodes = state.nodes()
            state_ops = {
                nodes[index]: value
                for (name, index), value in ops.items()
                if name == state.name
            }
            out.update(_by_index(
                state, scope_intensities(ctx.sdfg, state, ops=state_ops), nodes
            ))
        return out


class ProgramTotalsPass(Pass):
    """Whole-program symbolic totals: movement (both modes) and ops."""

    name = "global.totals"
    uses = ("scope", "states", "arrays.logical")

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> Any:
        return {
            "movement_unique": total_movement_bytes(ctx.sdfg, unique=True),
            "movement_counted": total_movement_bytes(ctx.sdfg, unique=False),
            "ops": program_ops(ctx.sdfg),
        }


class _EvalPass(Pass):
    """Evaluate one symbolic product under the context's environment.

    Keyed only by ``env`` plus the upstream pass's key (embedded in this
    pass's own key), so a slider move re-runs just this evaluation while
    an unchanged environment over unchanged content is a pure cache hit.

    Evaluation goes through the compiled engine
    (:mod:`repro.symbolic.compiled`): each metric expression is lowered
    once per distinct structure and cached process-wide, so repeated
    slider moves over the same product pay only the vectorized
    evaluation.  :meth:`evaluate_grid` exposes the batched form — one
    compiled call for a whole parameter grid.
    """

    source = ""

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> Any:
        env = ctx.require_env(self.name)
        grid = self.evaluate_grid(
            inputs[self.source],
            [env],
            metrics=ctx.metrics,
            tracer=ctx.timings,
        )
        return self._first_point(grid)

    @classmethod
    def evaluate_grid(
        cls, product: Any, envs, *, metrics=None, tracer=None
    ) -> Any:
        """Evaluate *product* at every environment of *envs*, batched.

        Mirrors the shape of the single-point product, with each scalar
        replaced by a list ordered like *envs*.
        """
        return evaluate_metrics_grid(
            product, envs, metrics_registry=metrics, tracer=tracer
        )

    @staticmethod
    def _first_point(grid: Any) -> Any:
        return {key: values[0] for key, values in grid.items()}


class MovementEvalPass(_EvalPass):
    name = "global.movement.eval"
    depends_on = ("global.movement",)
    uses = ("env",)
    source = "global.movement"

    @classmethod
    def evaluate_grid(
        cls, product: Any, envs, *, metrics=None, tracer=None
    ) -> Any:
        return {
            mode: evaluate_metrics_grid(
                mode_metrics, envs, metrics_registry=metrics, tracer=tracer
            )
            for mode, mode_metrics in product.items()
        }

    @staticmethod
    def _first_point(grid: Any) -> Any:
        return {
            mode: {key: values[0] for key, values in per_mode.items()}
            for mode, per_mode in grid.items()
        }


class OpCountEvalPass(_EvalPass):
    name = "global.opcount.eval"
    depends_on = ("global.opcount",)
    uses = ("env",)
    source = "global.opcount"


class IntensityEvalPass(_EvalPass):
    name = "global.intensity.eval"
    depends_on = ("global.intensity",)
    uses = ("env",)
    source = "global.intensity"


class ProgramTotalsEvalPass(_EvalPass):
    name = "global.totals.eval"
    depends_on = ("global.totals",)
    uses = ("env",)
    source = "global.totals"


def global_passes() -> tuple[Pass, ...]:
    """One fresh instance of every global-view pass."""
    return (
        MovementPass(),
        OpCountPass(),
        IntensityPass(),
        ProgramTotalsPass(),
        MovementEvalPass(),
        OpCountEvalPass(),
        IntensityEvalPass(),
        ProgramTotalsEvalPass(),
    )
