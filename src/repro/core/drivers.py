"""Application drivers exercising EC/EIC according to their usage contracts.

The EC specification assumes every process invokes ``proposeEC_{j+1}`` as
soon as ``proposeEC_j`` responds. These drivers sit on top of an EC (or EIC)
layer, feed it proposals, and surface the decision stream as application
outputs so property checkers and experiments can consume run records:

- ``("propose", instance, value)`` — recorded when an instance is proposed;
- ``("decide", instance, value)`` — recorded for every (first) response;
- ``("revise", instance, value)`` — EIC only: a revision of an earlier response.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.stack import Layer, LayerContext
from repro.sim.types import ProcessId

#: Maps (pid, instance) to the value that process proposes in that instance.
ProposalFn = Callable[[ProcessId, int], Any]


def distinct_proposals(pid: ProcessId, instance: int) -> str:
    """Every process proposes a distinct value: ``v<pid>.<instance>``."""
    return f"v{pid}.{instance}"


def binary_proposals(pid: ProcessId, instance: int) -> int:
    """Binary proposals with genuine disagreement: parity of pid + instance."""
    return (pid + instance) % 2


class EcDriverLayer(Layer):
    """Runs consecutive EC instances ``1, 2, ...`` on the layer below."""

    name = "ec-driver"

    def __init__(
        self,
        proposal_fn: ProposalFn = distinct_proposals,
        *,
        max_instances: int | None = None,
    ) -> None:
        self.proposal_fn = proposal_fn
        self.max_instances = max_instances
        self.current_instance = 0
        self.decisions: dict[int, Any] = {}

    # Instance ids and decided values are immutable, so a shallow copy of
    # ``decisions`` is a value copy (see Layer.snapshot).
    def snapshot(self) -> tuple:
        return (self.current_instance, dict(self.decisions))

    def restore(self, state: tuple) -> None:
        self.current_instance, decisions = state
        self.decisions = dict(decisions)

    def _propose(self, ctx: LayerContext, instance: int) -> None:
        value = self.proposal_fn(ctx.pid, instance)
        self.current_instance = instance
        ctx.output(("propose", instance, value))
        ctx.call_lower(("propose", instance, value))

    def on_start(self, ctx: LayerContext) -> None:
        if self.max_instances is None or self.max_instances >= 1:
            self._propose(ctx, 1)

    def on_lower_event(self, ctx: LayerContext, event: Any) -> None:
        if not (isinstance(event, tuple) and event and event[0] == "decide"):
            return
        __, instance, value = event
        if instance in self.decisions:
            return  # EC-Integrity violations surface in the checker, not here.
        self.decisions[instance] = value
        ctx.output(("decide", instance, value))
        nxt = instance + 1
        if self.max_instances is None or nxt <= self.max_instances:
            self._propose(ctx, nxt)


class EicDriverLayer(Layer):
    """Runs consecutive EIC instances; proposes the next instance on the
    *first* response and records later responses as revisions."""

    name = "eic-driver"

    def __init__(
        self,
        proposal_fn: ProposalFn = distinct_proposals,
        *,
        max_instances: int | None = None,
    ) -> None:
        self.proposal_fn = proposal_fn
        self.max_instances = max_instances
        self.current_instance = 0
        self.responses: dict[int, Any] = {}
        self.revision_count = 0

    def _propose(self, ctx: LayerContext, instance: int) -> None:
        value = self.proposal_fn(ctx.pid, instance)
        self.current_instance = instance
        ctx.output(("propose", instance, value))
        ctx.call_lower(("propose", instance, value))

    def on_start(self, ctx: LayerContext) -> None:
        if self.max_instances is None or self.max_instances >= 1:
            self._propose(ctx, 1)

    def on_lower_event(self, ctx: LayerContext, event: Any) -> None:
        if not (isinstance(event, tuple) and event and event[0] == "decide"):
            return
        __, instance, value = event
        if instance not in self.responses:
            self.responses[instance] = value
            ctx.output(("decide", instance, value))
            nxt = instance + 1
            if self.max_instances is None or nxt <= self.max_instances:
                self._propose(ctx, nxt)
        else:
            self.responses[instance] = value
            self.revision_count += 1
            ctx.output(("revise", instance, value))
