"""EXP-7: Omega is necessary — the CHT-style extraction (Lemma 1)."""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult, experiment
from repro.analysis.tables import Table
from repro.core import EcDriverLayer, EcUsingOmegaLayer
from repro.detectors import OmegaDetector
from repro.sim import FailurePattern, FixedDelay, ProtocolStack, Simulation


@experiment(
    "EXP-7",
    "the distributed reduction emulates Omega from EC runs",
    group_by=("scenario",),
    metrics=("extractions",),
    flags=("correct", "stabilized"),
    values=("leader",),
    cost=2.7,
)
def exp_cht_extraction(*, seed: int = 0) -> ExperimentResult:
    """EXP-7: the distributed reduction emulates Omega from EC runs."""
    from repro.cht import OmegaExtractionProcess, TreeBounds

    def ec_factory(proposal_fn):
        return ProtocolStack(
            [EcUsingOmegaLayer(), EcDriverLayer(proposal_fn, max_instances=2)]
        )

    table = Table(
        "EXP-7: CHT-style emulation of Omega from an EC algorithm",
        ["scenario", "emulated leader", "is correct", "stabilized", "extractions"],
    )
    rows: list[dict] = []
    scenarios = [
        ("n=2, stable D, leader p1, p0 crashes", 2, {0: 60}, 0, 1, None),
        ("n=3, churn then stable on p1", 3, {0: 100}, 120, 1, 4),
        ("n=3, stable D, leader p2", 3, {}, 0, 2, None),
    ]
    for label, n, crashes, tau, leader, window in scenarios:
        pattern = FailurePattern.crash(n, crashes)
        detector = OmegaDetector(
            stabilization_time=tau,
            leader=leader,
            pre_behavior="rotate",
        ).history(pattern, seed=seed)
        procs = [
            OmegaExtractionProcess(
                ec_factory,
                bounds=TreeBounds(max_depth=5, max_nodes=800),
                analyze_every=5,
                max_samples=None if window else 8,
                window=window,
            )
            for _ in range(n)
        ]
        sim = Simulation(
            procs,
            failure_pattern=pattern,
            detector=detector,
            delay_model=FixedDelay(2),
            timeout_interval=4,
            message_batch=4,
            seed=seed,
        )
        sim.run_until(420)
        finals = {procs[pid].current_leader for pid in pattern.correct}
        stabilized = len(finals) == 1
        emulated = next(iter(finals)) if stabilized else None
        is_correct = emulated in pattern.correct if emulated is not None else False
        extractions = sum(procs[pid].extractions_run for pid in pattern.correct)
        rows.append(
            {
                "scenario": label,
                "leader": emulated,
                "correct": is_correct,
                "stabilized": stabilized,
                "extractions": extractions,
            }
        )
        table.add_row(
            label,
            emulated if emulated is not None else "-",
            is_correct,
            stabilized,
            extractions,
        )
    return ExperimentResult("cht-extraction", table, rows)
