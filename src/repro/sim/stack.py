"""Layered protocol composition.

The paper's transformation algorithms use a sub-protocol as a black box: the
upper protocol invokes operations ("proposeEC_l(v)") and reacts to responses
("On reception of d as response of proposeEC_l"). :class:`ProtocolStack`
realizes this inside one simulated process:

- a stack is an ordered list of :class:`Layer` objects, bottom (index 0) to
  top; each layer has a private message namespace on the wire;
- a layer calls the layer below with :meth:`LayerContext.call_lower` and
  receives asynchronous responses via :meth:`Layer.on_lower_event`;
- a layer reports to the layer above with :meth:`LayerContext.emit_upper`;
  events emitted by the *top* layer become application outputs;
- application inputs go to the top layer; timeouts reach every layer.

Dispatching is iterative (a FIFO of pending deliveries inside the current
step), so arbitrarily deep call chains do not recurse.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Any, Sequence

from repro.sim.context import Context
from repro.sim.errors import ConfigurationError, ProtocolError
from repro.sim.process import Process
from repro.sim.types import ProcessId


class Layer:
    """One protocol in a stack. Subclass and override the handlers you need."""

    #: Human-readable name; defaults to the class name.
    name: str = ""

    pid: ProcessId = -1
    n: int = 0

    def attach(self, pid: ProcessId, n: int) -> None:
        """Bind the layer to its process id (called by the stack)."""
        self.pid = pid
        self.n = n

    def on_start(self, ctx: "LayerContext") -> None:
        """Called once at the first step of the host process."""

    def on_message(self, ctx: "LayerContext", sender: ProcessId, payload: Any) -> None:
        """Called when a message sent by this layer's peer arrives."""

    def on_timeout(self, ctx: "LayerContext") -> None:
        """Called on every local timeout of the host process."""

    def on_input(self, ctx: "LayerContext", value: Any) -> None:
        """Called for application inputs (top layer only)."""
        raise ProtocolError(
            f"layer {self.layer_name()} received an application input {value!r} "
            "but does not accept inputs"
        )

    def on_call(self, ctx: "LayerContext", request: Any) -> None:
        """Called when the layer above invokes an operation on this layer."""
        raise ProtocolError(
            f"layer {self.layer_name()} received a call {request!r} "
            "but does not accept calls"
        )

    def on_lower_event(self, ctx: "LayerContext", event: Any) -> None:
        """Called when the layer below emits an event."""

    def layer_name(self) -> str:
        return self.name or type(self).__name__

    # -- state snapshots (used by the CHT replay harness) --------------------

    def snapshot(self) -> Any:
        """A value copy of the layer's mutable state.

        The rule every override keeps: a snapshot never aliases a container
        the live layer mutates, and :meth:`restore` never hands the snapshot's
        containers to the live layer — so one snapshot can be restored any
        number of times, and mutating the layer after :meth:`snapshot` leaves
        the snapshot unchanged. The default deep-copies ``__dict__``, which is
        correct for any plain-data layer; a layer on a hot replay path
        overrides both hooks to copy only its own mutable containers.
        """
        return copy.deepcopy(self.__dict__)

    def restore(self, state: Any) -> None:
        """Restore, in place, a state taken with :meth:`snapshot`."""
        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(state))


class LayerContext:
    """Per-layer view of the step context."""

    def __init__(self, stack: "ProtocolStack", base: Context, index: int) -> None:
        self._stack = stack
        self._base = base
        self.index = index

    # -- mirrored step facts ---------------------------------------------------

    @property
    def pid(self) -> ProcessId:
        return self._base.pid

    @property
    def n(self) -> int:
        """The size of this stack's protocol group.

        Equal to the simulation's process count unless the stack was built
        with ``group_size`` — then the layers see only the group (quorum
        arithmetic, rotating-coordinator indexing and ``send_all`` all scale
        to the group, not to whatever client processes share the simulation).
        """
        group = self._stack.group_size
        return group if group is not None else self._base.n

    @property
    def time(self) -> int:
        return self._base.time

    @property
    def fd_value(self) -> Any:
        return self._base.fd_value

    def omega(self) -> ProcessId:
        return self._base.omega()

    def sigma(self) -> frozenset[ProcessId]:
        return self._base.sigma()

    def detector(self, name: str) -> Any:
        return self._base.detector(name)

    # -- effects -----------------------------------------------------------------

    def send(self, receiver: ProcessId, payload: Any) -> None:
        """Send to this layer's peer at ``receiver``."""
        self._base.send(receiver, (self.index, payload))

    def send_all(self, payload: Any, *, include_self: bool = True) -> None:
        """Send to this layer's peers at every process.

        One framing tuple is shared across all receivers (the scheduler's
        batched broadcast path shares the payload reference per envelope).
        Under a ``group_size`` the broadcast reaches only the group — sent
        point-to-point in ascending pid order, exactly the order the batched
        expansion would have used.
        """
        group = self._stack.group_size
        if group is None:
            self._base.send_all((self.index, payload), include_self=include_self)
            return
        framed = (self.index, payload)
        me = self._base.pid
        for receiver in range(group):
            if receiver == me and not include_self:
                continue
            self._base.send(receiver, framed)

    def send_raw(self, receiver: ProcessId, payload: Any) -> None:
        """Send without stack framing — for non-stack peers (e.g. clients)."""
        self._base.send(receiver, payload)

    def call_lower(self, request: Any) -> None:
        """Invoke an operation on the layer below (asynchronous)."""
        if self.index == 0:
            raise ProtocolError("bottom layer has no lower layer to call")
        self._stack._enqueue(self.index - 1, "call", request)

    def emit_upper(self, event: Any) -> None:
        """Report an event to the layer above (or the application, at the top)."""
        if self.index == len(self._stack.layers) - 1:
            self._base.output(event)
        else:
            self._stack._enqueue(self.index + 1, "event", event)

    def output(self, value: Any) -> None:
        """Record an application-visible output directly."""
        self._base.output(value)

    def log(self, event: Any) -> None:
        self._base.log((self._stack.layers[self.index].layer_name(), event))


class ProtocolStack(Process):
    """A process automaton composed of protocol layers."""

    def __init__(
        self, layers: Sequence[Layer], *, group_size: int | None = None
    ) -> None:
        if not layers:
            raise ConfigurationError("a protocol stack needs at least one layer")
        if group_size is not None and group_size < 1:
            raise ConfigurationError("group_size must be >= 1")
        self.layers = list(layers)
        #: When set, the protocol group is pids ``0..group_size-1``: the
        #: layers' view of ``n`` (quorums, coordinator rotation) and their
        #: broadcasts cover only the group. Processes above the group — e.g.
        #: open-loop clients (:mod:`repro.workload`) — share the simulation
        #: without being counted as protocol participants. The group is a
        #: contiguous pid prefix by construction so that every existing
        #: layer's ``pid``-from-index arithmetic stays valid.
        self.group_size = group_size
        self._pending: deque[tuple[int, str, Any]] = deque()

    def attach(self, pid: ProcessId, n: int) -> None:
        super().attach(pid, n)
        group = self.group_size
        if group is not None:
            if group > n:
                raise ConfigurationError(
                    f"group_size {group} exceeds simulation size {n}"
                )
            if pid >= group:
                raise ConfigurationError(
                    f"stack with group_size {group} attached at pid {pid} "
                    "outside its own group"
                )
        for layer in self.layers:
            layer.attach(pid, group if group is not None else n)

    # -- layer lookup --------------------------------------------------------------

    def layer(self, key: int | str | type) -> Layer:
        """Find a layer by index, name, or class."""
        if isinstance(key, int):
            return self.layers[key]
        if isinstance(key, str):
            for layer in self.layers:
                if layer.layer_name() == key:
                    return layer
            raise KeyError(f"no layer named {key!r}")
        for layer in self.layers:
            if isinstance(layer, key):
                return layer
        raise KeyError(f"no layer of type {key!r}")

    @property
    def top(self) -> Layer:
        return self.layers[-1]

    @property
    def bottom(self) -> Layer:
        return self.layers[0]

    # -- dispatch machinery ----------------------------------------------------------

    def _enqueue(self, index: int, kind: str, payload: Any) -> None:
        self._pending.append((index, kind, payload))

    def _drain(self, base_ctx: Context) -> None:
        guard = 0
        while self._pending:
            guard += 1
            if guard > 100_000:
                raise ProtocolError(
                    "layer dispatch did not quiesce within one step "
                    "(likely a call/event loop between layers)"
                )
            index, kind, payload = self._pending.popleft()
            ctx = LayerContext(self, base_ctx, index)
            if kind == "call":
                self.layers[index].on_call(ctx, payload)
            elif kind == "event":
                self.layers[index].on_lower_event(ctx, payload)
            else:  # pragma: no cover - internal invariant
                raise ProtocolError(f"unknown dispatch kind {kind!r}")

    # -- state snapshots ----------------------------------------------------------------

    def snapshot(self) -> tuple[Any, ...]:
        """Per-layer states, bottom to top (see :meth:`Layer.snapshot`).

        The stack's own fields (``pid``, ``n``, ``group_size``, the ``layers``
        list) never change after :meth:`attach`, so nothing at stack level is
        copied.
        """
        return tuple(layer.snapshot() for layer in self.layers)

    def restore(self, state: tuple[Any, ...]) -> None:
        """Restore every layer in place and drop undelivered dispatches.

        A step aborted mid-dispatch (e.g. by the CHT replay's ``InputNeeded``)
        can leave deliveries queued; they belong to the abandoned step.
        """
        self._pending.clear()
        for layer, layer_state in zip(self.layers, state):
            layer.restore(layer_state)

    # -- Process interface -------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        for index, layer in enumerate(self.layers):
            layer.on_start(LayerContext(self, ctx, index))
        self._drain(ctx)

    def on_message(self, ctx: Context, sender: ProcessId, payload: Any) -> None:
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and isinstance(payload[0], int)
            and 0 <= payload[0] < len(self.layers)
        ):
            index, inner = payload
            self.layers[index].on_message(
                LayerContext(self, ctx, index), sender, inner
            )
        else:
            # Unframed message from a non-stack peer (e.g. a client process):
            # deliver to the top layer, the stack's outward-facing protocol.
            top_index = len(self.layers) - 1
            self.layers[top_index].on_message(
                LayerContext(self, ctx, top_index), sender, payload
            )
        self._drain(ctx)

    def on_input(self, ctx: Context, value: Any) -> None:
        top_index = len(self.layers) - 1
        self.layers[top_index].on_input(LayerContext(self, ctx, top_index), value)
        self._drain(ctx)

    def on_timeout(self, ctx: Context) -> None:
        for index, layer in enumerate(self.layers):
            layer.on_timeout(LayerContext(self, ctx, index))
        self._drain(ctx)
