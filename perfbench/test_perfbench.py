"""Tests of the benchmark itself: the layer fold and reduced-size runs.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import cProfile
import json
import pstats
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import pacing  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CORE = "/x/src/repro/core/etob.py"
SIM = "/x/src/repro/sim/scheduler.py"


def _edge(calls: int, tt: float) -> tuple:
    return (calls, calls, tt, tt)


def test_module_names_and_layers():
    assert layers.module_name("/a/src/repro/sim/types.py") == "repro.sim.types"
    assert layers.module_name("/a/src/repro/cht/__init__.py") == "repro.cht"
    assert layers.module_name("/usr/lib/python3.11/heapq.py") is None
    assert layers.file_layer("/a/src/repro/sim/types.py") == "rng"
    assert layers.file_layer("/a/src/repro/sim/envs.py") == "rng"
    assert layers.file_layer("/a/src/repro/sim/kernel.py") == "sim"
    assert layers.file_layer("/a/src/repro/workload/observer.py") == "workload"
    assert layers.file_layer("/a/src/repro/broadcast/urb.py") == "other"
    assert layers.file_layer(copy.__file__) == "snapshot"
    assert layers.file_layer("<string>") == "records"
    assert layers.file_layer("/usr/lib/python3.11/heapq.py") == "other"
    assert layers.file_layer("~") is None


def test_fold_charges_builtins_to_their_caller():
    stats = {
        (SIM, 1, "run"): (1, 1, 1.0, 10.0, {}),
        (CORE, 5, "deliver"): (4, 4, 2.0, 8.0, {(SIM, 1, "run"): _edge(4, 2.0)}),
        ("~", 0, "<built-in method builtins.len>"): (
            7, 7, 3.0, 3.0,
            {(CORE, 5, "deliver"): _edge(5, 2.5), (SIM, 1, "run"): _edge(2, 0.5)},
        ),
        ("<string>", 2, "__eq__"): (9, 9, 4.0, 4.0, {(CORE, 5, "deliver"): _edge(9, 4.0)}),
        ("/usr/lib/python3.11/enum.py", 3, "__get__"): (
            2, 2, 0.5, 0.5, {(CORE, 5, "deliver"): _edge(2, 0.5)},
        ),
    }
    folded = layers.fold(stats)
    assert folded["sim"]["self_s"] == pytest.approx(1.5)
    assert folded["core"]["self_s"] == pytest.approx(4.5)
    assert folded["records"]["self_s"] == pytest.approx(4.0)
    assert folded["other"]["self_s"] == pytest.approx(0.5)
    assert sum(row["share"] for row in folded.values()) == pytest.approx(1.0)
    # Crossing calls only: builtins never cross, the root enters from outside.
    assert folded["sim"]["calls_in"] == 1
    assert folded["core"]["calls_in"] == 4
    assert folded["records"]["calls_in"] == 9
    assert folded["other"]["calls_in"] == 2


def test_builtin_called_by_a_builtin_takes_the_outer_callers_layer():
    outer = ("~", 0, "<built-in method builtins.sorted>")
    inner = ("~", 0, "<built-in method builtins.len>")
    stats = {
        (CORE, 5, "deliver"): (1, 1, 0.1, 1.0, {}),
        outer: (1, 1, 0.2, 0.9, {(CORE, 5, "deliver"): _edge(1, 0.2)}),
        inner: (3, 3, 0.7, 0.7, {outer: _edge(3, 0.7)}),
        ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>"): (1, 1, 0.1, 0.1, {}),
    }
    folded = layers.fold(stats)
    assert folded["core"]["self_s"] == pytest.approx(1.0)
    assert folded["other"]["self_s"] == pytest.approx(0.1)


@dataclass(frozen=True)
class _Record:
    value: int


def test_real_profile_folds_deepcopy_and_dataclass_methods():
    def work():
        records = [_Record(i) for i in range(200)]
        for __ in range(20):
            copy.deepcopy({"a": [1, 2, 3]})
        return sum(r == _Record(0) for r in records)

    profile = cProfile.Profile()
    profile.enable()
    work()
    profile.disable()
    stats = pstats.Stats(profile).stats
    folded = layers.fold(stats)
    assert folded["snapshot"]["self_s"] > 0
    assert folded["records"]["calls_in"] >= 400
    assert layers.call_count(stats, "copy", "deepcopy", primitive=True) == 20


def test_pacing_samples_during_the_unit_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with pacing.measure() as unit:
        deadline = time.perf_counter() + 4 * pacing.SAMPLE_PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # One sample before, one after, and at least two from the handler,
    # whose time is left out of the unit's wall time.
    assert unit.samples >= 4
    assert 0 < unit.wall_s < 4 * pacing.SAMPLE_PERIOD_S
    assert unit.paced_s > 0

    with pacing.measure(sampling=False) as plain:
        pass
    assert plain.samples == 0 and plain.paced_s == plain.wall_s


SCALES = {"kv-direct": 0.01, "eventual-etob": 0.1, "strong-paxos": 0.1}


@pytest.mark.parametrize("name", sorted(SCALES))
def test_reduced_serving_runs_repeat_exactly(name):
    first = run.end_to_end(name, 3, 0.0, SCALES[name])
    second = run.end_to_end(name, 3, 0.0, SCALES[name])
    assert first["problems"] == [] and first["failed"] == 0
    assert first["counts"] == second["counts"]
    assert first["counts"]["steps"] > 0 and first["counts"]["lat_p99_ticks"] > 0
    assert all(p["fused_path"] == "python" for p in first["paths"])


@pytest.mark.parametrize("name", sorted(SCALES))
def test_reduced_traced_run_reproduces_the_untraced_run(name):
    result = run.per_layer(name, 3, SCALES[name])
    assert result["problems"] == [] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["other.share"][0] < 0.05
    assert metrics["sim.steps"][0] == result["counts"]["steps"] > 0
    assert metrics["rng.draws"][0] > 0
    assert metrics["snapshot.calls"][0] == 0
    assert metrics["trace.overhead"][0] > 1


def test_cht_extract_repeats_exactly():
    # exp_cht_extraction has no size knob, so this runs at full size.
    workload = WORKLOADS["cht-extract"]
    first, second = (workload.run(workload.build(0)) for __ in range(2))
    assert first.problems == [] and first.failed == 0 and first.attempted == 3
    assert first.counts == second.counts
    assert first.counts["extractions"] == first.ops > 0


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-direct",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_result_line_shape():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "eventual-etob",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"ops_per_s", "setup_s", "peak_rss_mib"}
