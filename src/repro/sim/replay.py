"""Declarative simulation replay (``repro.sim.replay``).

Every run in this repository is pure in its configuration: scheduling
permutations are counter-based in ``(seed, block)``
(:meth:`~repro.sim.scheduler.Simulation._permutation_for_block`), environment
draws are counter-based in ``(seed, link, t)`` (:mod:`repro.sim.envs`), and
detector histories are pure in ``(pattern, seed, pid, t)``. A run is therefore
*reconstructible* from a small declarative description — which three places
used to re-implement ad hoc: the differential tests built simulations from
config dicts, the experiment layer from keyword soup
(``_run_broadcast_scenario``), and nothing offered the wiring publicly. This
module is the single shared implementation:

- :class:`ReplayPlan` — the picklable, hashable description of one run's
  scheduler-side configuration (size, crashes, inputs, seed, scheduling,
  engine/kernel/record selection, duration);
- :func:`build_simulation` / :func:`run_plan` — turn a plan plus the
  non-declarative parts (process automata, detector, links) into a
  :class:`~repro.sim.scheduler.Simulation`;
- :func:`run_digest` — a stable 63-bit digest of a finished run's observable
  outcome (output history, traffic counters, end time), identical across
  kernels, engines, worker processes, and interpreter runs — the equality
  witness replay is checked against;
- :func:`replay_simulation` — rebuild the exact simulation of a falsifier
  witness from ``(experiment, axes, keys)`` (delegates to the target
  registry in :mod:`repro.search.targets`; imported lazily so the sim layer
  keeps no upward dependency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.sim.failures import FailurePattern
from repro.sim.types import ProcessId, Time, stable_hash

__all__ = [
    "ReplayPlan",
    "build_simulation",
    "replay_simulation",
    "run_digest",
    "run_plan",
]


@dataclass(frozen=True)
class ReplayPlan:
    """The declarative half of one simulation run.

    Everything here is a plain value, so a plan pickles, hashes, and
    serializes; the non-declarative half — the process automata, the
    detector history, the link behaviour — is supplied to
    :func:`build_simulation` by the caller (those objects carry code, and
    which code belongs to which experiment is the caller's knowledge).
    """

    n: int
    duration: Time
    crashes: tuple[tuple[ProcessId, Time], ...] = ()
    #: application inputs, in insertion order: ``(pid, time, value)``.
    inputs: tuple[tuple[ProcessId, Time, Any], ...] = ()
    seed: int = 0
    timeout_interval: int | tuple[int, ...] = 8
    scheduling: str = "round_robin"
    message_batch: int = 1
    engine: str = "event"
    kernel: str = "packed"
    record: str = "outputs"

    def failure_pattern(self) -> FailurePattern:
        """The plan's crash map as a :class:`FailurePattern`."""
        return FailurePattern.crash(self.n, dict(self.crashes))


def build_simulation(
    plan: ReplayPlan,
    processes: Sequence[Any],
    *,
    detector: Any = None,
    delay_model: Any = None,
    environment: Any = None,
    network: Any = None,
    observers: Sequence[Any] = (),
    **overrides: Any,
):
    """Build the :class:`~repro.sim.scheduler.Simulation` a plan describes.

    ``overrides`` pass any further ``Simulation`` keyword — including
    re-overriding a plan field, which keeps differential tests able to flip
    one knob (engine, kernel, record) against an otherwise identical plan.
    """
    from repro.sim.scheduler import Simulation  # local: avoid import cycle

    kwargs: dict[str, Any] = dict(
        failure_pattern=plan.failure_pattern(),
        detector=detector,
        timeout_interval=(
            list(plan.timeout_interval)
            if isinstance(plan.timeout_interval, tuple)
            else plan.timeout_interval
        ),
        seed=plan.seed,
        scheduling=plan.scheduling,
        message_batch=plan.message_batch,
        engine=plan.engine,
        kernel=plan.kernel,
        record=plan.record,
        observers=observers,
    )
    if environment is not None:
        # The plan's crash map is authoritative even under an environment
        # with churn: replay must reproduce exactly the recorded pattern.
        kwargs["environment"] = environment
    elif network is not None:
        kwargs["network"] = network
    elif delay_model is not None:
        kwargs["delay_model"] = delay_model
    kwargs.update(overrides)
    sim = Simulation(list(processes), **kwargs)
    for pid, t, value in plan.inputs:
        sim.add_input(pid, t, value)
    return sim


def run_plan(
    plan: ReplayPlan,
    processes: Sequence[Any],
    **build_kwargs: Any,
):
    """Build the plan's simulation and run it to ``plan.duration``."""
    sim = build_simulation(plan, processes, **build_kwargs)
    sim.run_until(plan.duration)
    return sim


def run_digest(sim) -> int:
    """A stable digest of a finished run's observable outcome.

    Folds the quantities every kernel/engine/backend must agree on — the
    pinned byte-equality surface: process count, final clock, the run's end
    time, total traffic counters, and the full output history (what each
    process emitted, when). Pure across interpreter runs and worker
    processes via :func:`~repro.sim.types.stable_hash`, so a witness can
    carry it as a cross-machine equality check.
    """
    run = sim.run
    outputs = sorted(
        (pid, tuple(events)) for pid, events in run.output_history.items()
    )
    return stable_hash(
        "run-digest",
        sim.n,
        sim.time,
        run.end_time,
        sim.network.sent_count,
        sim.network.delivered_count,
        outputs,
    )


def replay_simulation(
    experiment: str,
    axes: dict | None = None,
    *,
    keys: dict,
    kernel: str = "packed",
):
    """Rebuild (and run) the exact simulation behind a falsifier witness.

    ``experiment`` names a registered falsify target's experiment (e.g.
    ``"EXP-4"``), ``axes`` its fixed scenario identity, and ``keys`` the
    witness's search point — scheduler seed, environment parameters, crash
    pattern. Returns the finished :class:`~repro.sim.scheduler.Simulation`;
    :func:`run_digest` of it must match the witness's pinned digest on any
    kernel. Delegates to :mod:`repro.search.targets` (imported lazily: the
    sim layer has no upward dependency at import time).
    """
    from repro.search.targets import rebuild_simulation

    return rebuild_simulation(experiment, axes or {}, keys, kernel=kernel)
