"""The process automaton interface.

Concrete protocols subclass :class:`Process` and implement the event handlers.
The scheduler guarantees:

- ``on_start`` runs once, at the process's first step;
- ``on_input`` runs for each application input scheduled at or before the
  current time, in schedule order (these are the paper's input histories);
- ``on_message`` runs when the oldest deliverable message is consumed;
- ``on_timeout`` runs whenever the process's local periodic timeout is due
  (the paper's "On local timeout" clauses).

Handlers must be deterministic functions of the process state, the received
message, and the failure detector value (available as ``ctx.fd_value``); all
randomness a protocol needs should be derived deterministically from its pid
and step counters so that simulated runs are replayable — a requirement of the
CHT construction, which re-executes protocols along alternative schedules.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.sim.context import Context
from repro.sim.types import ProcessId


class Process:
    """Base class for deterministic process automata."""

    #: Assigned by the simulation when the process is attached.
    pid: ProcessId = -1
    #: Number of processes in the system; assigned at attach time.
    n: int = 0

    def attach(self, pid: ProcessId, n: int) -> None:
        """Bind this automaton to a process id (called by the simulation)."""
        self.pid = pid
        self.n = n

    # -- event handlers (override as needed) ---------------------------------

    def on_start(self, ctx: Context) -> None:
        """Called once at the first step of the process."""

    def on_message(self, ctx: Context, sender: ProcessId, payload: Any) -> None:
        """Called when a message is received."""

    def on_input(self, ctx: Context, value: Any) -> None:
        """Called when the application provides an input (history ``H_I``)."""

    def on_timeout(self, ctx: Context) -> None:
        """Called when the local periodic timeout fires."""

    # -- state snapshots (used by the CHT replay harness) --------------------

    def snapshot(self) -> Any:
        """A value copy of the automaton state.

        The CHT construction simulates many alternative schedules of an
        algorithm; it snapshots states at tree vertices and restores them when
        exploring siblings. The default implementation deep-copies
        ``__dict__``, which suits plain-data protocol state.
        :class:`~repro.sim.stack.ProtocolStack` overrides it with a tuple of
        per-layer states (:meth:`~repro.sim.stack.Layer.snapshot`), so a
        layer can copy only its own mutable containers.
        """
        return copy.deepcopy(self.__dict__)

    def restore(self, state: Any) -> None:
        """Restore a state previously taken with :meth:`snapshot`."""
        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(state))
