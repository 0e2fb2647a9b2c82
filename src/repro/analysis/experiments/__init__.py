"""Scenario runners for the reproduction experiments (EXP-1 .. EXP-11).

Formerly a single 841-line module, the experiments now live in small modules
that register themselves with the registry in
:mod:`repro.analysis.experiments.base`:

- :mod:`~repro.analysis.experiments.latency` — EXP-1, EXP-10b
- :mod:`~repro.analysis.experiments.equivalence` — EXP-2
- :mod:`~repro.analysis.experiments.environments` — EXP-3, EXP-8
- :mod:`~repro.analysis.experiments.stabilization` — EXP-4, EXP-5
- :mod:`~repro.analysis.experiments.causal` — EXP-6, EXP-10a
- :mod:`~repro.analysis.experiments.cht` — EXP-7
- :mod:`~repro.analysis.experiments.eic` — EXP-9
- :mod:`~repro.analysis.experiments.heartbeat` — EXP-10c
- :mod:`~repro.analysis.experiments.workload` — EXP-11

Each ``exp_*`` function runs the simulations for one experiment of
EXPERIMENTS.md and returns an :class:`ExperimentResult` holding structured
rows and a rendered table; all take a ``seed`` keyword, so every
:class:`ExperimentDef` expands into picklable, provenance-tagged cells
(``cells(seeds)``) that a :class:`Campaign` pools across *all* experiments
onto one shared worker pool.
The benchmark harness (``benchmarks/``) calls the functions under
``pytest-benchmark``; ``EXPERIMENTS.md`` quotes their tables. The functions
are deterministic for fixed seeds.
"""

from __future__ import annotations

from repro.analysis.experiments.base import (
    EXPERIMENT_REGISTRY,
    ExperimentDef,
    ExperimentResult,
    ReportSpec,
    aggregate_sweep,
    experiment,
    run_experiment,
    sweep_rows,
)
from repro.analysis.experiments.campaign import Campaign, CampaignResult
from repro.suite import Axis, Cell

# Importing the experiment modules populates EXPERIMENT_REGISTRY.
from repro.analysis.experiments.latency import (
    exp_ablation_promote_period,
    exp_comm_steps,
)
from repro.analysis.experiments.equivalence import exp_equivalence
from repro.analysis.experiments.environments import (
    exp_ec_any_environment,
    exp_partition_gap,
)
from repro.analysis.experiments.stabilization import (
    exp_etob_stabilization,
    exp_tob_mode,
)
from repro.analysis.experiments.causal import exp_ablation_churn, exp_causal
from repro.analysis.experiments.cht import exp_cht_extraction
from repro.analysis.experiments.eic import exp_eic
from repro.analysis.experiments.heartbeat import exp_ablation_heartbeat_gst
from repro.analysis.experiments.workload import exp_workload_latency

#: registry used by the report generator and the benchmark harness, in
#: EXP-number order (kept as a plain name → callable map for compatibility).
ALL_EXPERIMENTS = {
    key: EXPERIMENT_REGISTRY[key].fn
    for key in (
        "EXP-1",
        "EXP-2",
        "EXP-3",
        "EXP-4",
        "EXP-5",
        "EXP-6",
        "EXP-7",
        "EXP-8",
        "EXP-9",
        "EXP-10a",
        "EXP-10b",
        "EXP-10c",
        "EXP-11",
    )
}

__all__ = [
    "ALL_EXPERIMENTS",
    "Axis",
    "Campaign",
    "CampaignResult",
    "Cell",
    "EXPERIMENT_REGISTRY",
    "ExperimentDef",
    "ExperimentResult",
    "ReportSpec",
    "aggregate_sweep",
    "experiment",
    "run_experiment",
    "sweep_rows",
    "exp_ablation_churn",
    "exp_ablation_heartbeat_gst",
    "exp_ablation_promote_period",
    "exp_causal",
    "exp_cht_extraction",
    "exp_comm_steps",
    "exp_ec_any_environment",
    "exp_eic",
    "exp_equivalence",
    "exp_etob_stabilization",
    "exp_partition_gap",
    "exp_tob_mode",
    "exp_workload_latency",
]
