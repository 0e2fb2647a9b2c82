"""The benchmark's four workloads, each a fixed batch of simulations.

A workload is built from a seed (``build``) and then run once (``run``),
which times only the simulation itself and checks every output outside the
timed region. Sizes are fixed per workload because protocol cost per
operation grows with the operation count: ``ops_per_s`` is only comparable
at the count a workload names. ``scale`` shrinks the client operation
counts for the benchmark's own tests.

All workloads use the library defaults ``kernel="packed"`` and
``record="metrics"``, as EXP-11 does.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.experiments import exp_cht_extraction
from repro.analysis.metrics import LatencyHistogram
from repro.replication import ReplicaLayer
from repro.workload import WorkloadSpec, workload_sim

from pacing import Unit, measure

#: EXP-11's network environments (heavy-tail is left out there too: it can
#: strand a Paxos learner).
ENVS = ("baseline", "uniform", "flaky")
#: The fused loop every default (packed, metrics) serving run must take; a
#: run on any other path is a failure, not a slowdown.
EXPECTED_KERNEL = "packed"
EXPECTED_FUSED_PATH = "python"
REPLICAS = 3
#: The exact counts of a batch; 0 where a workload has no such thing.
COUNTS = ("steps", "messages", "retries", "lat_p50_ticks", "lat_p99_ticks", "extractions")


@dataclass
class Batch:
    """What one run of a workload's batch did.

    ``attempted``/``failed`` count client operations (serving workloads) or
    CHT scenarios (``cht-extract``); ``ops`` is the throughput numerator:
    served operations, or leader extractions. ``counts`` holds the exact,
    seed-determined numbers that must repeat on every run of the same seed.
    """

    attempted: int = 0
    failed: int = 0
    ops: int = 0
    wall_s: float = 0.0
    paced_s: float = 0.0
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))
    paths: list[dict[str, Any]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def add(self, unit: Unit) -> None:
        self.wall_s += unit.wall_s
        self.paced_s += unit.paced_s


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Serving:
    """Open-loop clients against one serving stack, once per environment
    and input seed.

    Clients are open-loop in simulated time: the latency observer times
    each operation from its scheduled arrival tick, so the generator can
    never run late. The wall-clock side is the fixed batch of simulations.
    """

    def __init__(
        self,
        *,
        stack: str,
        clients: int,
        ops_per_client: int,
        mean_gap: int,
        envs: tuple[str, ...],
        inputs: int = 1,
        message_batch: int = 4,
        retry_after: int = 120,
    ) -> None:
        self.stack = stack
        self.clients = clients
        self.ops_per_client = ops_per_client
        self.mean_gap = mean_gap
        self.envs = envs
        self.inputs = inputs
        self.message_batch = message_batch
        self.retry_after = retry_after

    def build(self, seed: int, scale: float = 1.0) -> list[tuple]:
        """One simulation per (input set, environment); the input sets of
        ``seed`` are the workload seeds ``seed * inputs + k``."""
        ops = max(1, round(self.ops_per_client * scale))
        built = []
        for k in range(self.inputs):
            spec = WorkloadSpec(
                clients=self.clients,
                ops_per_client=ops,
                mean_gap=self.mean_gap,
                keys=64,
                seed=seed * self.inputs + k,
            )
            for env in self.envs:
                sim, observer, horizon = workload_sim(
                    spec,
                    stack=self.stack,
                    replicas=REPLICAS,
                    env=env,
                    message_batch=self.message_batch,
                    retry_after=self.retry_after,
                )
                built.append((env, spec, sim, observer, horizon))
        return built

    def run(self, built: list[tuple], sampling: bool = True) -> Batch:
        batch = Batch()
        pooled = LatencyHistogram(9)
        steps = messages = retries = 0
        for env, spec, sim, observer, horizon in built:
            batch.attempted += spec.total_ops
            label = f"{env} at seed {spec.seed}"
            path = {
                "env": env,
                "seed": spec.seed,
                "kernel": sim.kernel,
                "fused_path": sim.fused_path,
            }
            batch.paths.append(path)
            if (sim.kernel, sim.fused_path) != (EXPECTED_KERNEL, EXPECTED_FUSED_PATH):
                batch.problems.append(f"{label}: off the fused Python loop")
            error = None
            with measure(sampling=sampling) as unit:
                try:
                    sim.run_until(horizon)
                except Exception as exc:  # failed ops, never a silent timing
                    error = exc
            batch.add(unit)
            path["wall_s"] = unit.wall_s
            if error is not None:
                batch.failed += spec.total_ops
                batch.problems.append(f"{label}: {_failure(error)}")
                continue

            summary = observer.summary()
            batch.ops += summary.completed
            batch.failed += spec.total_ops - summary.completed
            if not summary.served:
                batch.problems.append(
                    f"{label}: served {summary.completed} of {spec.total_ops} ops"
                )
            if self.stack != "direct":
                states = [
                    p.layer(ReplicaLayer).state for p in sim.processes[:REPLICAS]
                ]
                if any(state != states[0] for state in states):
                    batch.problems.append(f"{label}: replica states diverge")
            pooled.merge(observer.histogram)
            steps += sim.metrics.steps
            messages += sim.metrics.messages_sent
            retries += summary.retries
        batch.counts.update(steps=steps, messages=messages, retries=retries)
        if pooled.count:
            batch.counts["lat_p50_ticks"] = pooled.percentile(50)
            batch.counts["lat_p99_ticks"] = pooled.percentile(99)
        return batch


class ChtExtract:
    """One ``exp_cht_extraction`` call: EXP-7's three scenarios.

    The experiment builds its own simulations, so there is nothing to build
    ahead of the timed region and ``scale`` does not apply.
    """

    def build(self, seed: int, scale: float = 1.0) -> int:
        return seed

    def run(self, seed: int, sampling: bool = True) -> Batch:
        batch = Batch(attempted=3)
        error = None
        with measure(sampling=sampling) as unit:
            try:
                rows = exp_cht_extraction(seed=seed).rows
            except Exception as exc:
                error = exc
        batch.add(unit)
        if error is not None:
            batch.failed = batch.attempted
            batch.problems.append(_failure(error))
            return batch
        batch.attempted = len(rows)
        for row in rows:
            if not (row["correct"] and row["stabilized"]):
                batch.failed += 1
                batch.problems.append(f"{row['scenario']}: leader {row['leader']}")
        batch.ops = sum(row["extractions"] for row in rows)
        batch.counts["extractions"] = batch.ops
        return batch


WORKLOADS: dict[str, Serving | ChtExtract] = {
    # The README/CI million-op cell scaled down: no protocol runs, so the
    # sim loop, the stable_hash draws and the workload layer do the work.
    "kv-direct": Serving(
        stack="direct",
        clients=8,
        ops_per_client=18_750,
        mean_gap=1,
        envs=("baseline",),
        message_batch=64,
    ),
    # The paper's eventual side (Algorithm 5) in each EXP-11 environment.
    "eventual-etob": Serving(
        stack="etob",
        clients=4,
        ops_per_client=200,
        mean_gap=24,
        envs=ENVS,
        inputs=2,
        retry_after=300,
    ),
    # The strong side, Paxos-backed TOB. mean_gap is 48, not EXP-11's 24:
    # at 24 Paxos falls into a retry feedback loop past ~400 ops.
    "strong-paxos": Serving(
        stack="paxos",
        clients=4,
        ops_per_client=300,
        mean_gap=48,
        envs=ENVS,
        inputs=2,
        retry_after=300,
    ),
    # The necessity direction: snapshot-heavy replay, no RNG or clients.
    "cht-extract": ChtExtract(),
}
