"""Scenario suites: parameter grids executed across worker processes.

Every experiment in this repository sweeps *something* — seeds, crash
schedules, delay models, detector stabilization times, protocol stacks. A
:class:`ScenarioSuite` names those axes once, expands the cross product into
cells, and executes the cells either serially or across a
``multiprocessing`` pool:

    from repro.suite import ScenarioSuite

    def cell(*, tau, seed):                     # module level → picklable
        sim = Scenario(4, seed=seed).omega(tau=tau).etob() \\
            .broadcast(0, 20, "m").record("outputs").run(2000)
        return check_etob(sim.run).tau

    result = (
        ScenarioSuite(cell)
        .axis("tau", [0, 100, 200])
        .seeds(8)
        .run(workers=4)
    )

Determinism: cells are enumerated in a fixed order (the cross product of the
axes in declaration order) and each cell's parameters — including its seed —
are fixed before any worker starts, so results are independent of worker
count and scheduling. Derived seeds come from a stable hash of
``(base_seed, index)`` reduced to 31 bits, never from ``hash()`` or global
RNG state.

Parallel execution pickles ``(runner, params)`` to the workers, so the runner
must be a module-level callable (or a ``functools.partial`` of one) and the
returned values must be picklable. Serial execution (``workers=0``) accepts
any callable. Exceptions inside a cell do not abort the suite; they are
captured per cell in :attr:`CellResult.error`.

Execution: :meth:`ScenarioSuite.run` executes over a process pool whose
results are consumed in *completion order* (the ``imap_unordered`` shape)
and reassembled deterministically by cell index, so a ``progress``
callback — e.g. :class:`SuiteProgress`, a live progress table — observes
every cell as it lands instead of waiting for the slowest. Ordinary cell
exceptions are captured per cell; hard worker deaths (a cell calling
``os._exit``, a segfault, an OOM kill) surface as
:class:`SuiteExecutionError` rather than hanging.

Cell pools: besides expanding its own grid, a suite can execute an explicit
list of pre-built :class:`Cell` objects — each carrying its *own* runner,
resolved parameters, and provenance tags — via
:meth:`ScenarioSuite.from_cells`. That is how a
:class:`~repro.analysis.experiments.Campaign` packs the cells of *many*
experiments into one shared worker pool; the tags (``experiment`` / ``seed``
/ ``axes``) travel through :class:`CellResult` so the pooled results can be
demultiplexed afterwards.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

from repro.sim.errors import ConfigurationError
from repro.sim.types import stable_hash


class SuiteExecutionError(RuntimeError):
    """A worker process died mid-suite; the run's results are incomplete.

    Distinct from a cell *raising* (captured per cell in
    :attr:`CellResult.error`): this is the pool itself breaking — a worker
    killed by a signal, an ``os._exit`` inside a cell, an OOM kill.
    """


@dataclass(frozen=True)
class Axis:
    """A named sweep dimension: an axis name plus the values it takes.

    The declarative unit shared by :meth:`ScenarioSuite.axis`, experiment
    definitions (:class:`~repro.analysis.experiments.ExperimentDef` declares
    the extra axes an experiment can sweep), and
    :class:`~repro.analysis.experiments.Campaign`. Values are stored as a
    tuple so an ``Axis`` is immutable and safely shareable.
    """

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.isidentifier():
            raise ConfigurationError(
                f"axis name must be a valid identifier, got {self.name!r}"
            )
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ConfigurationError(
                f"axis {self.name!r} needs at least one value"
            )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SuiteCell:
    """One point of the parameter grid."""

    index: int
    params: dict[str, Any]


@dataclass
class Cell:
    """One picklable unit of pooled work: runner + params + provenance.

    Unlike :class:`SuiteCell` (a point of *one* suite's grid, executed by the
    suite's shared runner), a ``Cell`` carries its own ``runner``, so cells
    of many different experiments can share one worker pool. ``tags`` is
    free-form provenance (a campaign sets ``experiment`` / ``seed`` /
    ``axes`` / ``cell``) used to demultiplex pooled results; ``cost`` is a
    relative wall-time hint used to order the pool most-expensive-first so
    long tails overlap cheap cells. ``index`` is assigned when the cell
    joins a pool (:meth:`ScenarioSuite.from_cells`).
    """

    runner: Callable[..., Any]
    params: dict[str, Any]
    tags: dict[str, Any] = field(default_factory=dict)
    cost: float = 1.0
    index: int = -1


@dataclass
class CellResult:
    """Outcome of one executed (or cache-served) cell.

    ``cached`` records how the result was obtained when the run consulted a
    result cache (see :mod:`repro.analysis.cache`): ``"hit"`` (served from
    the content-addressed store), ``"resumed"`` (recovered from the
    crash-safe journal of an interrupted run of the same campaign), or
    ``"miss"`` (freshly executed under an active cache). It stays ``None``
    on uncached runs and never participates in the cache key or the report
    artifacts — two runs differing only in cache temperature produce
    byte-identical numbers.
    """

    index: int
    params: dict[str, Any]
    value: Any = None
    error: str | None = None
    wall_time: float = 0.0
    tags: dict[str, Any] = field(default_factory=dict)
    cached: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def describe(self, *, value_width: int | None = None) -> str:
        """``param=value, ... -> outcome`` (shared by render and progress)."""
        params = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        outcome = self.error if self.error is not None else repr(self.value)
        if value_width is not None and len(outcome) > value_width:
            outcome = outcome[: value_width - 3] + "..."
        return f"{params} -> {outcome}"


@dataclass
class SuiteResult:
    """All cell outcomes of one suite run, in grid order."""

    name: str
    cells: list[CellResult] = field(default_factory=list)
    wall_time: float = 0.0
    workers: int = 0

    @property
    def ok(self) -> bool:
        """True iff every cell ran without raising."""
        return all(cell.ok for cell in self.cells)

    def failures(self) -> list[CellResult]:
        return [cell for cell in self.cells if not cell.ok]

    def values(self) -> list[Any]:
        """The cell return values, in grid order (None for failed cells)."""
        return [cell.value for cell in self.cells]

    def select(self, **params: Any) -> list[CellResult]:
        """Cells whose parameters match all given ``axis=value`` filters."""
        return [
            cell
            for cell in self.cells
            if all(cell.params.get(k) == v for k, v in params.items())
        ]

    def rows(self) -> list[dict[str, Any]]:
        """One flat dict per cell: parameters plus ``value`` / ``error``."""
        return [
            {**cell.params, "value": cell.value, "error": cell.error}
            for cell in self.cells
        ]

    def render(self) -> str:
        """A compact text table of the suite outcome."""
        lines = [
            f"suite {self.name}: {len(self.cells)} cells, "
            f"{len(self.failures())} failed, "
            f"{self.wall_time:.2f}s wall ({self.workers} workers)"
        ]
        for cell in self.cells:
            lines.append(f"  [{cell.index}] {cell.describe()}")
        return "\n".join(lines)


def derive_seed(base_seed: int, index: int) -> int:
    """A decorrelated, stable per-cell seed (31-bit, reproducible everywhere)."""
    return stable_hash("suite-cell-seed", base_seed, index) % (1 << 31)


def _execute_cell(task: tuple[Callable[..., Any], SuiteCell | Cell]) -> CellResult:
    """Run one cell; capture exceptions instead of propagating them."""
    runner, cell = task
    tags = getattr(cell, "tags", None) or {}
    start = time.perf_counter()
    try:
        value = runner(**cell.params)
        return CellResult(
            cell.index, cell.params, value=value,
            wall_time=time.perf_counter() - start, tags=tags,
        )
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        return CellResult(
            cell.index, cell.params,
            error=f"{type(exc).__name__}: {exc}",
            wall_time=time.perf_counter() - start, tags=tags,
        )


class ScenarioSuite:
    """A named parameter grid over a cell runner (or an explicit cell pool)."""

    def __init__(
        self,
        runner: Callable[..., Any],
        *,
        name: str | None = None,
        base_seed: int = 0,
    ) -> None:
        if not callable(runner):
            raise ConfigurationError(f"suite runner must be callable, got {runner!r}")
        self.runner: Callable[..., Any] | None = runner
        self.name = name or getattr(runner, "__name__", None) or "suite"
        self.base_seed = base_seed
        self._axes: dict[str, Axis] = {}
        self._explicit_cells: list[Cell] | None = None

    @classmethod
    def from_cells(
        cls, cells: Iterable[Cell], *, name: str = "cell-pool"
    ) -> "ScenarioSuite":
        """A suite over an explicit, possibly heterogeneous list of cells.

        Each :class:`Cell` carries its own runner, so one suite — one worker
        pool — can execute the cells of many different experiments (the
        :class:`~repro.analysis.experiments.Campaign` path). Pool indices
        are assigned here, in the order given; the caller owns any
        cost-descending ordering *before* this call. The suite's grid
        methods (:meth:`axis` / :meth:`seeds`) do not apply.
        """
        cells = list(cells)
        if not cells:
            raise ConfigurationError("from_cells needs at least one cell")
        for cell in cells:
            if not isinstance(cell, Cell):
                raise ConfigurationError(
                    f"from_cells expects Cell objects, got {cell!r}"
                )
            if not callable(cell.runner):
                raise ConfigurationError(
                    f"cell runner must be callable, got {cell.runner!r}"
                )
        suite = cls.__new__(cls)
        suite.runner = None
        suite.name = name
        suite.base_seed = 0
        suite._axes = {}
        suite._explicit_cells = [
            Cell(
                runner=cell.runner,
                params=dict(cell.params),
                tags=dict(cell.tags),
                cost=cell.cost,
                index=index,
            )
            for index, cell in enumerate(cells)
        ]
        return suite

    # -- grid definition -----------------------------------------------------

    def axis(self, name: str | Axis, values: Iterable[Any] | None = None) -> "ScenarioSuite":
        """Add one grid axis — ``axis(name, values)`` or ``axis(Axis(...))``.

        A duplicate axis name raises :class:`ConfigurationError` — silently
        replacing a previously declared axis would shrink or reshape the
        grid behind the caller's back.
        """
        if self._explicit_cells is not None:
            raise ConfigurationError(
                "an explicit-cell suite (from_cells) has no grid axes"
            )
        if isinstance(name, Axis):
            if values is not None:
                raise ConfigurationError(
                    "pass either axis(Axis(...)) or axis(name, values), not both"
                )
            axis = name
        else:
            axis = Axis(name, tuple(values if values is not None else ()))
        if axis.name in self._axes:
            raise ConfigurationError(
                f"axis {axis.name!r} is already declared on suite "
                f"{self.name!r}; axes must be unique"
            )
        self._axes[axis.name] = axis
        return self

    def axes(self, **axes: Iterable[Any]) -> "ScenarioSuite":
        """Add several axes at once (keyword name → values)."""
        for name, values in axes.items():
            self.axis(name, values)
        return self

    def seeds(self, seeds: int | Iterable[int]) -> "ScenarioSuite":
        """Add the ``seed`` axis: explicit values, or ``k`` derived ones.

        An integer asks for ``k`` deterministic seeds derived from
        ``base_seed`` via :func:`derive_seed`; an iterable is used verbatim.
        """
        if isinstance(seeds, int):
            if seeds < 1:
                raise ConfigurationError("need at least one seed")
            values: Sequence[int] = [
                derive_seed(self.base_seed, i) for i in range(seeds)
            ]
        else:
            values = list(seeds)
        return self.axis("seed", values)

    def cells(self) -> list[SuiteCell] | list[Cell]:
        """The cells to execute: the explicit pool, or the expanded grid."""
        if self._explicit_cells is not None:
            return list(self._explicit_cells)
        if not self._axes:
            raise ConfigurationError("the suite has no axes; add axis()/seeds() first")
        names = list(self._axes)
        product: Iterator[tuple[Any, ...]] = itertools.product(
            *(self._axes[name].values for name in names)
        )
        return [
            SuiteCell(index, dict(zip(names, combo)))
            for index, combo in enumerate(product)
        ]

    # -- execution -------------------------------------------------------------

    def _runner_of(self, cell: SuiteCell | Cell) -> Callable[..., Any]:
        runner = getattr(cell, "runner", None) or self.runner
        assert runner is not None  # __init__/from_cells both enforce this
        return runner

    def _require_picklable_runners(self, cells: Sequence[SuiteCell | Cell]) -> None:
        import pickle

        checked: set[int] = set()
        for cell in cells:
            runner = self._runner_of(cell)
            if id(runner) in checked:
                continue
            checked.add(id(runner))
            try:
                pickle.dumps(runner)
            except Exception as exc:
                raise ConfigurationError(
                    f"suite runner {self.name!r} is not picklable ({exc}); "
                    "parallel execution needs a module-level callable — "
                    "use workers=0 to run closures serially"
                ) from exc

    def stream(
        self,
        *,
        workers: int | None = None,
        cells: Sequence[SuiteCell | Cell] | None = None,
    ) -> Iterator[CellResult]:
        """Yield each cell's result as it completes (completion order).

        Serial (``workers`` <= 1) streams in grid order from this process and
        accepts any callable. Parallel streams from a process pool in
        whatever order workers finish — consumers needing grid order sort by
        :attr:`CellResult.index` (:meth:`run` does). A worker
        that dies outright raises :class:`SuiteExecutionError` naming the
        cell being awaited. ``cells`` restricts execution to an explicit
        subset (how :meth:`run` skips cache-served cells); default is the
        full grid/pool.
        """
        if cells is None:
            cells = self.cells()
        if not cells:
            return
        if workers is None:
            workers = min(os.cpu_count() or 1, len(cells))
        if workers <= 1:
            for cell in cells:
                yield _execute_cell((self._runner_of(cell), cell))
            return

        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        self._require_picklable_runners(cells)
        executor = ProcessPoolExecutor(max_workers=min(workers, len(cells)))
        try:
            futures = {
                executor.submit(_execute_cell, (self._runner_of(cell), cell)): cell
                for cell in cells
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        yield future.result()
                    except BrokenProcessPool as exc:
                        cell = futures[future]
                        raise SuiteExecutionError(
                            f"a worker process died while suite {self.name!r} "
                            f"awaited cell {cell.index} ({cell.params!r}); "
                            "completed results are unreliable — rerun the suite"
                        ) from exc
        finally:
            executor.shutdown(wait=True, cancel_futures=True)

    def run(
        self,
        *,
        workers: int | None = None,
        progress: Callable[[CellResult, int, int], None] | None = None,
        cache: Any | None = None,
    ) -> SuiteResult:
        """Execute every cell; returns results in grid order.

        ``workers=None`` uses one process per CPU (capped at the cell count);
        ``workers=0`` or ``1`` runs serially in this process.
        Execution goes through :meth:`stream` (completion-order
        consumption, deterministic reassembly by cell index, and hard worker
        deaths surfaced as :class:`SuiteExecutionError` instead of
        hanging). ``progress`` — e.g. :class:`SuiteProgress` — is invoked
        as ``progress(result, completed, total)`` after each cell; cell
        enumeration and seeding are identical across worker counts, so the
        *result* is too.

        ``cache`` — a :class:`repro.analysis.cache.ResultCache` — makes the
        run memoized and resumable: cells whose content-addressed key is
        already in the store (or in the crash-safe journal of an
        interrupted run of this same campaign) are served
        without dispatching, reported to ``progress`` first (grid order,
        marked ``hit``/``resumed``); every freshly executed result is
        journaled (append + fsync) the moment it streams in, *before* it is
        reported, so killing the process mid-run loses at most one in-flight
        cell. Only a run that completes promotes its journal into the store.
        Cache temperature never changes the returned numbers — a served
        result is the pickled payload of the identical earlier execution.
        """
        cells = self.cells()
        total = len(cells)
        start = time.perf_counter()
        if workers is None:
            workers = min(os.cpu_count() or 1, total)
        effective_workers = max(1, min(workers, total))

        session = None
        pending: Sequence[SuiteCell | Cell] = cells
        results: list[CellResult] = []

        def note(result: CellResult) -> None:
            results.append(result)
            if progress is not None:
                progress(result, len(results), total)

        if cache is not None:
            session = cache.session(self.name, cells, self._runner_of)
            pending = session.pending
            for served in session.served:
                note(served)

        for result in self.stream(workers=workers, cells=pending):
            if session is not None:
                session.record(result)
            note(result)
        if session is not None:
            session.commit()
        results.sort(key=lambda cell: cell.index)
        return SuiteResult(
            name=self.name,
            cells=results,
            wall_time=time.perf_counter() - start,
            workers=effective_workers,
        )


class SuiteProgress:
    """A ``progress`` callback rendering a live table, one line per cell.

    ::

        suite.run(progress=SuiteProgress(label="EXP-4"))
        # [ 3/12] EXP-4: tau=200, seed=1400073466 -> ExperimentResult(...) (1.42s)

    Lines go to ``stream`` (default: stderr, keeping stdout clean for piped
    report output) as cells complete, so long sweeps show where they are
    instead of going dark until the end. When a pooled cell carries an
    ``experiment`` provenance tag (a :class:`Cell` from a campaign), that
    tag prefixes the line — one pool carries cells from many experiments,
    so a single static ``label`` could not identify them.

    Under a result cache (``run(cache=...)``) each line carries how the
    cell was obtained (``[cache hit]`` / ``[resumed]``; executed cells stay
    unmarked) and the final line is followed by a one-line hit/resume/miss
    summary with the overall served-from-cache rate.
    """

    def __init__(
        self, *, stream: TextIO | None = None, label: str | None = None,
        value_width: int = 48,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self.value_width = value_width
        self._cache_counts: dict[str, int] = {}

    def __call__(self, result: CellResult, completed: int, total: int) -> None:
        if completed <= 1:
            self._cache_counts = {}
        label = result.tags.get("experiment", self.label) if result.tags else self.label
        prefix = f"{label}: " if label else ""
        width = len(str(total))
        cached = getattr(result, "cached", None)
        if cached is not None:
            self._cache_counts[cached] = self._cache_counts.get(cached, 0) + 1
        marker = {"hit": " [cache hit]", "resumed": " [resumed]"}.get(cached, "")
        self.stream.write(
            f"[{completed:>{width}}/{total}] "
            f"{prefix}{result.describe(value_width=self.value_width)} "
            f"({result.wall_time:.2f}s){marker}\n"
        )
        if completed == total and self._cache_counts:
            hits = self._cache_counts.get("hit", 0)
            resumed = self._cache_counts.get("resumed", 0)
            misses = self._cache_counts.get("miss", 0)
            served = hits + resumed
            rate = 100.0 * served / total if total else 0.0
            self.stream.write(
                f"cache: {hits} hit, {resumed} resumed, {misses} executed "
                f"— {rate:.0f}% served from cache\n"
            )
        self.stream.flush()
