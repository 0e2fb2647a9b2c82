"""Experiment registry, shared scenario builders, and suite-powered sweeps.

An *experiment* is a deterministic, seedable function returning an
:class:`ExperimentResult` (structured rows plus a rendered table). Experiment
modules register their functions with the :func:`experiment` decorator; the
package ``__init__`` imports every module, so importing
``repro.analysis.experiments`` yields the complete registry.

Because each experiment takes a ``seed`` keyword, any experiment expands
into :class:`~repro.suite.Cell` objects — see :meth:`ExperimentDef.cells` —
each a picklable unit (runner + resolved params + provenance tags) that can
execute on any :class:`~repro.suite.ScenarioSuite` worker pool. A
:class:`~repro.analysis.experiments.campaign.Campaign` pools the cells of
*many* experiments into one shared, cost-ordered pool (a single-experiment
sweep is just ``Campaign([key])``).

Experiments additionally declare a *report spec* — which row columns
identify a scenario (``group_by``), which are numeric measurements
(``metrics``), which are verdict booleans (``flags``), and which are
discrete outcomes quoted verbatim (``values``) — so :func:`aggregate_sweep`
can fold any sweep into a single mean ± spread table with per-seed verdict
counts. ``benchmarks/generate_report.py`` builds EXPERIMENTS.md from exactly
these hooks; no experiment ships custom aggregation code.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from statistics import mean, quantiles, stdev
from typing import Any, Callable, Sequence

from repro.analysis.tables import Table
from repro.consensus import PaxosConsensusLayer, TobFromConsensusLayer
from repro.core import EcUsingOmegaLayer, EtobLayer
from repro.core.transformations import EcToEtobLayer
from repro.detectors import CompositeDetector, OmegaDetector, SigmaDetector
from repro.sim import FixedDelay, ProtocolStack, ReplayPlan, Simulation, run_plan
from repro.sim.errors import ConfigurationError
from repro.sim.network import DelayModel
from repro.suite import Axis, Cell, SuiteResult, derive_seed


@dataclass
class ExperimentResult:
    """Rows plus a rendered table for one experiment."""

    name: str
    table: Table
    rows: list[dict] = field(default_factory=list)

    def render(self) -> str:
        return self.table.render()


@dataclass(frozen=True)
class ReportSpec:
    """How :func:`aggregate_sweep` folds an experiment's rows across seeds.

    Column roles over the experiment's row dicts (see
    :attr:`ExperimentResult.rows`):

    - ``group_by`` — columns identifying one scenario of the experiment; rows
      sharing these values across seeds aggregate into one table row;
    - ``metrics`` — numeric measurements, reported as ``mean ± spread``;
    - ``flags`` — boolean verdicts, reported as ``true/total`` seed counts;
    - ``values`` — discrete outcomes (an elected leader, a paper constant),
      reported as the set of distinct values observed across seeds.
    """

    group_by: tuple[str, ...]
    metrics: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()
    values: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentDef:
    """One registered experiment: key, runner, title, report spec, and its
    campaign face — a cost hint plus the declared extra sweep axes.

    ``cost`` is a *relative* wall-time hint (roughly seconds per seed on the
    reference machine): a campaign sorts its pooled cells cost-descending so
    the long tails (EXP-7) start first and overlap the cheap cells. ``axes``
    declares the extra :class:`~repro.suite.Axis` dimensions the experiment
    supports sweeping beyond ``seed`` (each axis name must be a keyword of
    ``fn``, with the declared values as the recommended sweep).
    """

    key: str
    fn: Callable[..., ExperimentResult]
    title: str
    report: ReportSpec | None = None
    cost: float = 1.0
    axes: tuple[Axis, ...] = ()

    def declared_axis(self, name: str) -> Axis:
        """The declared extra axis called ``name``."""
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise ConfigurationError(
            f"experiment {self.key!r} declares no axis {name!r}; "
            f"declared: {[axis.name for axis in self.axes]}"
        )

    def cells(
        self,
        seeds: int | Sequence[int],
        *,
        base_seed: int = 0,
        axes: dict[str, Sequence[Any]] | None = None,
    ) -> list[Cell]:
        """Expand this experiment into picklable campaign cells.

        One cell per point of ``seed × extra axes`` (seed-major, axes in
        declaration order), each invoking the experiment function with that
        seed (plus one value per extra axis) and returning its
        :class:`ExperimentResult`. An integer ``seeds`` asks for that many
        deterministic seeds via :func:`~repro.suite.derive_seed`. Every cell
        is tagged with its provenance — ``experiment`` (this key), ``seed``,
        ``axes`` (the extra-axis values), and ``cell`` (the canonical index
        within this experiment's expansion) — so pooled results can be
        demultiplexed and reassembled deterministically regardless of
        execution order.
        """
        if isinstance(seeds, int):
            if seeds < 1:
                raise ConfigurationError("need at least one seed")
            seed_values: Sequence[int] = [
                derive_seed(base_seed, i) for i in range(seeds)
            ]
        else:
            seed_values = list(seeds)
            if not seed_values:
                raise ConfigurationError("need at least one seed")
        extra: list[Axis] = []
        for name, values in (axes or {}).items():
            if name == "seed":
                raise ConfigurationError(
                    "'seed' is the implicit first axis; pass seeds=... instead"
                )
            extra.append(Axis(name, tuple(values)))
        names = ["seed"] + [axis.name for axis in extra]
        runner = functools.partial(_sweep_cell, self.key)
        cells: list[Cell] = []
        for combo in itertools.product(seed_values, *(a.values for a in extra)):
            params = dict(zip(names, combo))
            cells.append(
                Cell(
                    runner=runner,
                    params=params,
                    tags={
                        "experiment": self.key,
                        "seed": params["seed"],
                        "axes": {n: params[n] for n in names[1:]},
                        "cell": len(cells),
                    },
                    cost=self.cost,
                )
            )
        return cells


#: key (e.g. ``"EXP-4"``) → definition; populated by the module decorators.
EXPERIMENT_REGISTRY: dict[str, ExperimentDef] = {}


def experiment(
    key: str,
    title: str = "",
    *,
    group_by: Sequence[str] = (),
    metrics: Sequence[str] = (),
    flags: Sequence[str] = (),
    values: Sequence[str] = (),
    cost: float = 1.0,
    axes: Sequence[Axis] = (),
) -> Callable:
    """Class the decorated function as experiment ``key`` in the registry.

    The keyword arguments declare the sweep-native report spec (see
    :class:`ReportSpec`); experiments without ``group_by`` cannot be
    aggregated by :func:`aggregate_sweep`. ``cost`` is the relative
    per-seed wall-time hint a campaign uses to order its shared cell pool;
    ``axes`` declares extra sweep dimensions (see :class:`ExperimentDef`).
    """

    def decorate(fn: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        doc_lines = (fn.__doc__ or "").strip().splitlines()
        summary = title or (doc_lines[0] if doc_lines else key)
        report = (
            ReportSpec(
                group_by=tuple(group_by),
                metrics=tuple(metrics),
                flags=tuple(flags),
                values=tuple(values),
            )
            if group_by
            else None
        )
        EXPERIMENT_REGISTRY[key] = ExperimentDef(
            key, fn, summary, report, cost=cost, axes=tuple(axes)
        )
        return fn

    return decorate


def run_experiment(key: str, **kwargs: Any) -> ExperimentResult:
    """Run one registered experiment by key."""
    try:
        definition = EXPERIMENT_REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown experiment {key!r}; known: {sorted(EXPERIMENT_REGISTRY)}"
        ) from None
    return definition.fn(**kwargs)


# ---------------------------------------------------------------------------
# suite-powered sweeps
# ---------------------------------------------------------------------------


def _sweep_cell(key: str, **params: Any) -> ExperimentResult:
    """Module-level cell runner (picklable) for :meth:`ExperimentDef.cells`."""
    # Import the package, not just this module, so the registry is populated
    # even in a worker that starts from a cold interpreter.
    from repro.analysis import experiments  # noqa: F401

    return run_experiment(key, **params)


def sweep_rows(result: SuiteResult) -> list[dict]:
    """Flatten a sweep's per-cell ExperimentResults into annotated rows."""
    rows: list[dict] = []
    for cell in result.cells:
        if not cell.ok or cell.value is None:
            continue
        for row in cell.value.rows:
            rows.append({**cell.params, **row})
    return rows


def _spread(values: Sequence[float], metric: str) -> float:
    """Dispersion of ``values``: sample stdev (default) or IQR."""
    if len(values) < 2:
        return 0.0
    if metric == "stdev":
        return stdev(values)
    if metric == "iqr":
        q1, __, q3 = quantiles(values, n=4, method="inclusive")
        return q3 - q1
    raise ValueError(f"unknown spread metric {metric!r}; use 'stdev' or 'iqr'")


def _fold_group(
    spec: ReportSpec, group: list[dict], spread: str
) -> tuple[list[Any], dict[str, Any]]:
    """Aggregate one group of rows: display cells + machine-readable fields.

    The display cells cover, in order, every ``metrics`` column
    (``mean ± spread``), every ``values`` column (distinct outcomes), and
    every ``flags`` column (``true/total``); the dict holds the same
    aggregates for the JSON report.
    """
    cells: list[Any] = []
    agg_row: dict[str, Any] = {}
    for metric in spec.metrics:
        numbers = [
            row[metric]
            for row in group
            if isinstance(row.get(metric), (int, float))
            and not isinstance(row.get(metric), bool)
        ]
        if not numbers:
            cells.append("-")
            agg_row[metric] = None
            continue
        mu = mean(numbers)
        sigma = _spread(numbers, spread)
        cells.append(f"{mu:.2f} ± {sigma:.2f}")
        agg_row[metric] = {
            "mean": mu,
            "spread": sigma,
            "min": min(numbers),
            "max": max(numbers),
            "count": len(numbers),
        }
    for column in spec.values:
        distinct = sorted({repr(row.get(column)) for row in group})
        # ", " — never " | ", which Table.render uses as the column
        # separator and would make multi-outcome cells read as columns.
        cells.append(", ".join(distinct))
        agg_row[column] = distinct
    for flag in spec.flags:
        verdicts = [bool(row[flag]) for row in group if flag in row]
        cells.append(f"{sum(verdicts)}/{len(verdicts)}")
        agg_row[flag] = {"true": sum(verdicts), "total": len(verdicts)}
    return cells, agg_row


def aggregate_sweep(
    key: str,
    result: SuiteResult,
    *,
    spread: str = "stdev",
    pivot: str | None = None,
) -> tuple[Table, list[dict]]:
    """Fold one experiment's sweep result into one mean ± spread table.

    Rows are grouped by the experiment's :class:`ReportSpec` ``group_by``
    columns (in first-seen order — the experiment's own scenario order);
    within each group, ``metrics`` aggregate to ``mean ± spread`` over the
    seeds (non-numeric / missing entries are skipped), ``flags`` to
    ``true/total`` counts, and ``values`` to the set of distinct outcomes.
    Returns the rendered :class:`~repro.analysis.tables.Table` plus
    machine-readable aggregate rows (mean/spread/min/max per metric,
    true/total per flag) for the JSON report.

    ``pivot`` renders a two-axis sweep the readable way: the named column —
    typically an extra sweep axis, e.g. ``n`` after
    ``Campaign(["EXP-4"]).extend("EXP-4", n=[4, 5])`` — becomes *columns*
    instead of extra rows.
    Each table row keeps the remaining ``group_by`` identity; every
    aggregate column is repeated once per pivot value (``tau [n=4] |
    tau [n=5] | …``), with ``-`` where a combination produced no rows. The
    machine-readable aggregates stay unpivoted — one dict per
    ``group × pivot value``, each carrying its pivot column — so JSON
    consumers never have to parse header labels.
    """
    definition = EXPERIMENT_REGISTRY[key]
    spec = definition.report
    if spec is None:
        raise ValueError(f"experiment {key!r} declares no report spec")
    rows = sweep_rows(result)
    seeds = sorted({row["seed"] for row in rows if "seed" in row})
    spread_tag = "sd" if spread == "stdev" else spread
    spread_name = "sample stdev" if spread == "stdev" else "IQR"
    title = f"{key}: {definition.title} — {len(seeds)} seeds, spread = {spread_name}"

    if pivot is None:
        groups: dict[tuple, list[dict]] = {}
        for row in rows:
            groups.setdefault(
                tuple(row.get(c) for c in spec.group_by), []
            ).append(row)
        headers = (
            list(spec.group_by)
            + [f"{m} (mean ± {spread_tag})" for m in spec.metrics]
            + list(spec.values)
            + [f"{f} (seeds)" for f in spec.flags]
        )
        table = Table(title, headers)
        aggregated: list[dict] = []
        for group_key, group in groups.items():
            cells, agg_fields = _fold_group(spec, group, spread)
            table.add_row(*group_key, *cells)
            aggregated.append({**dict(zip(spec.group_by, group_key)), **agg_fields})
        return table, aggregated

    # Pivoted rendering: `pivot` leaves the row identity and becomes columns.
    if rows and not any(pivot in row for row in rows):
        raise ValueError(
            f"pivot column {pivot!r} appears in no row of the {key!r} sweep; "
            "pivot on a group_by column or a swept axis"
        )
    group_cols = [c for c in spec.group_by if c != pivot]
    pivot_values: list[Any] = []
    pivoted: dict[tuple, dict[Any, list[dict]]] = {}
    for row in rows:
        value = row.get(pivot)
        if value not in pivot_values:
            pivot_values.append(value)
        group_key = tuple(row.get(c) for c in group_cols)
        pivoted.setdefault(group_key, {}).setdefault(value, []).append(row)

    per_value_headers = (
        [f"{m} (mean ± {spread_tag})" for m in spec.metrics]
        + list(spec.values)
        + [f"{f} (seeds)" for f in spec.flags]
    )
    headers = list(group_cols) + [
        f"{h} [{pivot}={v}]" for v in pivot_values for h in per_value_headers
    ]
    table = Table(f"{title}, pivoted on {pivot}", headers)
    aggregated = []
    for group_key, by_value in pivoted.items():
        cells = list(group_key)
        for value in pivot_values:
            group = by_value.get(value)
            if group is None:
                cells.extend("-" for __ in per_value_headers)
                continue
            folded, agg_fields = _fold_group(spec, group, spread)
            cells.extend(folded)
            aggregated.append(
                {**dict(zip(group_cols, group_key)), pivot: value, **agg_fields}
            )
        table.add_row(*cells)
    return table, aggregated


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------


def _broadcast_protocol(
    protocol: str, *, quorum_mode: str = "majority"
) -> Callable[[], ProtocolStack]:
    """Factory of one process for a named broadcast protocol."""
    if protocol == "etob":
        return lambda: ProtocolStack([EtobLayer()])
    if protocol == "ec-etob":
        return lambda: ProtocolStack([EcUsingOmegaLayer(), EcToEtobLayer()])
    if protocol == "tob-consensus":
        return lambda: ProtocolStack(
            [PaxosConsensusLayer(quorum_mode=quorum_mode), TobFromConsensusLayer()]
        )
    if protocol == "tob-ct":
        from repro.consensus import ChandraTouegConsensusLayer

        return lambda: ProtocolStack(
            [ChandraTouegConsensusLayer(), TobFromConsensusLayer()]
        )
    raise ValueError(f"unknown protocol {protocol!r}")


def _detector(
    pattern,
    *,
    tau_omega,
    pre_behavior="rotate",
    with_sigma=False,
    with_suspects=False,
    seed=0,
):
    omega = OmegaDetector(stabilization_time=tau_omega, pre_behavior=pre_behavior)
    if with_sigma or with_suspects:
        from repro.detectors import EventuallyStrongDetector

        components = {"omega": omega}
        if with_sigma:
            components["sigma"] = SigmaDetector(stabilization_time=tau_omega)
        if with_suspects:
            components["suspects"] = EventuallyStrongDetector(
                stabilization_time=tau_omega
            )
        return CompositeDetector(components).history(pattern, seed=seed)
    return omega.history(pattern, seed=seed)


def _run_broadcast_scenario(
    protocol: str,
    *,
    n: int,
    broadcasts: Sequence[tuple[int, int, Any]],
    duration: int,
    delay: int = 2,
    timeout: int = 2,
    tau_omega: int = 0,
    pre_behavior: str = "rotate",
    crashes: dict[int, int] | None = None,
    quorum_mode: str = "majority",
    seed: int = 0,
    record: str = "outputs",
    delay_model: DelayModel | None = None,
) -> Simulation:
    """One broadcast-protocol run; records at ``outputs`` fidelity by default
    (every experiment metric below reads the delivery timeline, not the raw
    step list, so retaining steps would only burn memory). ``delay_model``
    (e.g. an environment model from :func:`repro.sim.envs.make_env`)
    overrides the fixed ``delay``-tick links.

    The declarative half of the run goes through a
    :class:`~repro.sim.replay.ReplayPlan` — the same wiring the differential
    tests and falsifier witnesses rebuild runs from — so an experiment run
    is reconstructible from its plan plus ``(protocol, detector config)``.
    """
    plan = ReplayPlan(
        n=n,
        duration=duration,
        crashes=tuple(sorted((crashes or {}).items())),
        inputs=tuple(
            (pid, t, ("broadcast", payload)) for pid, t, payload in broadcasts
        ),
        seed=seed,
        timeout_interval=timeout,
        message_batch=4,
        record=record,
    )
    detector = _detector(
        plan.failure_pattern(),
        tau_omega=tau_omega,
        pre_behavior=pre_behavior,
        with_sigma=(quorum_mode == "sigma"),
        with_suspects=(protocol == "tob-ct"),
        seed=seed,
    )
    factory = _broadcast_protocol(protocol, quorum_mode=quorum_mode)
    return run_plan(
        plan,
        [factory() for _ in range(n)],
        detector=detector,
        delay_model=delay_model or FixedDelay(delay),
    )
