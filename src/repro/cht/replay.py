"""In-vitro replay of an EC algorithm for the CHT simulation.

The CHT construction locally simulates runs of the given algorithm ``A``
against stimuli (process order and detector values) drawn from DAG paths.
:class:`ReplaySandbox` executes single steps of ``A`` on explicit state
snapshots, so the simulation tree can branch: the same state can be extended
with different steps.

A step of the simulated algorithm is ``(pid, fd_value, deliver)``:

- the process may consume the oldest buffered message addressed to it
  (``deliver=True``) or take a lambda step;
- all of the stacked automaton's handlers run exactly as under the real
  scheduler (``on_start`` once, then ``on_message`` / ``on_timeout``);
- EC proposal inputs are *choices of the simulation*: when the algorithm
  asks for the proposal of ``(pid, instance)`` and the current node has not
  fixed it, the step aborts with :class:`InputNeeded` and the tree branches
  over both binary values.

States are plain value objects (automaton snapshots + per-receiver message
FIFOs + cumulative decisions), cheap to copy and hashable enough for
deterministic exploration. Each step restores the stepping automaton from its
snapshot and snapshots it again afterwards; for a :class:`ProtocolStack` that
is one :meth:`Layer.snapshot` per layer, which the layers CHT replays
(Algorithm 4 and its driver) implement by copying only their own mutable
containers. Snapshots have value semantics, so siblings stepped from one
parent state never share state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.sim.context import Context, expand_sends
from repro.sim.process import Process
from repro.sim.types import ProcessId


class InputNeeded(Exception):
    """Raised when the simulated algorithm needs an unchosen proposal input."""

    def __init__(self, pid: ProcessId, instance: Any) -> None:
        super().__init__(f"input needed for (p{pid}, instance {instance})")
        self.key = (pid, instance)


class SharedInputTable:
    """Proposal inputs for the *current* step, controlled by the sandbox.

    The table is intentionally shared (deepcopy returns self) so snapshots of
    automaton state never capture stale copies: inputs belong to tree nodes,
    not to automata.
    """

    def __init__(self) -> None:
        self.table: dict[tuple[ProcessId, Any], Any] = {}

    def __deepcopy__(self, memo: dict) -> "SharedInputTable":
        return self

    def lookup(self, pid: ProcessId, instance: Any) -> Any:
        key = (pid, instance)
        if key not in self.table:
            raise InputNeeded(pid, instance)
        return self.table[key]


@dataclass(frozen=True)
class Decision:
    """A ``proposeEC`` response observed in a simulated schedule."""

    pid: ProcessId
    instance: Any
    value: Any


@dataclass(frozen=True)
class ReplayState:
    """A configuration of the simulated system (immutable value object)."""

    #: per-process automaton snapshots (for a stack: per-layer states).
    automata: tuple[Any, ...]
    started: tuple[bool, ...]
    #: per-receiver FIFO of (sender, payload) pending messages.
    buffers: tuple[tuple[tuple[ProcessId, Any], ...], ...]
    #: cumulative decisions of the whole schedule, in order.
    decisions: tuple[Decision, ...]
    steps_taken: int = 0

    def pending_for(self, pid: ProcessId) -> int:
        return len(self.buffers[pid])

    def oldest_message(self, pid: ProcessId) -> tuple[ProcessId, Any] | None:
        return self.buffers[pid][0] if self.buffers[pid] else None

    def has_disagreement(self, instance: Any) -> bool:
        """True iff two different values were returned for ``instance``."""
        values = {repr(d.value) for d in self.decisions if d.instance == instance}
        return len(values) > 1

    def decided_values(self, instance: Any) -> set:
        return {d.value for d in self.decisions if d.instance == instance}


#: Builds one process automaton; receives the proposal function to use.
StackFactory = Callable[[Callable[[ProcessId, int], Any]], Process]


class ReplaySandbox:
    """Deterministic single-step executor over :class:`ReplayState`."""

    def __init__(self, n: int, stack_factory: StackFactory) -> None:
        self.n = n
        self._inputs = SharedInputTable()
        self._processes = [
            stack_factory(self._inputs.lookup) for _ in range(n)
        ]
        for pid, process in enumerate(self._processes):
            process.attach(pid, n)
        self._initial_automata = tuple(p.snapshot() for p in self._processes)

    def initial_state(self) -> ReplayState:
        return ReplayState(
            automata=self._initial_automata,
            started=tuple(False for _ in range(self.n)),
            buffers=tuple(() for _ in range(self.n)),
            decisions=(),
        )

    def execute(
        self,
        state: ReplayState,
        pid: ProcessId,
        fd_value: Any,
        deliver: bool,
        inputs: dict[tuple[ProcessId, Any], Any],
    ) -> ReplayState:
        """Run one step; returns the successor state.

        Raises :class:`InputNeeded` when the step requires a proposal choice
        missing from ``inputs`` (the state is left untouched — automata are
        restored from snapshots on every call, so aborted attempts are free).
        """
        process = self._processes[pid]
        process.restore(state.automata[pid])
        self._inputs.table = inputs

        ctx = Context(pid=pid, n=self.n, time=state.steps_taken, fd_value=fd_value)
        consumed: tuple[ProcessId, Any] | None = None
        if deliver:
            consumed = state.oldest_message(pid)
            if consumed is None:
                raise ValueError(f"no message pending for p{pid}; use a lambda step")

        # May raise InputNeeded; nothing observable has been mutated yet
        # except the in-flight automaton instance, which the next call
        # restores from a snapshot anyway.
        if not state.started[pid]:
            process.on_start(ctx)
        if consumed is not None:
            process.on_message(ctx, consumed[0], consumed[1])
        process.on_timeout(ctx)

        # Commit effects.
        new_buffers = [list(fifo) for fifo in state.buffers]
        if consumed is not None:
            new_buffers[pid] = new_buffers[pid][1:]
        for receiver, payload in expand_sends(ctx.drain_outbox(), pid, self.n):
            new_buffers[receiver].append((pid, payload))

        new_decisions = list(state.decisions)
        for output in ctx.drain_outputs():
            if isinstance(output, tuple) and output and output[0] == "decide":
                __, instance, value = output
                new_decisions.append(Decision(pid, instance, value))

        new_started = list(state.started)
        new_started[pid] = True
        new_automata = list(state.automata)
        new_automata[pid] = process.snapshot()

        return ReplayState(
            automata=tuple(new_automata),
            started=tuple(new_started),
            buffers=tuple(tuple(fifo) for fifo in new_buffers),
            decisions=tuple(new_decisions),
            steps_taken=state.steps_taken + 1,
        )
