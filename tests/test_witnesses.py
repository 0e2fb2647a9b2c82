"""The pinned witness corpus is a permanent regression suite.

Every JSON file under ``tests/witnesses/`` is a worst case the falsifier
once found; each must reconstruct to the exact same run — same objective
value, same run digest — on every kernel and through the suite worker pool,
and must still strictly exceed its recorded i.i.d. baseline when that
baseline is recomputed from scratch. A mismatch here means replay purity
broke somewhere: the scheduler, the environment models, the detector
histories, or the suite dispatch path.
"""

from __future__ import annotations

import pytest

from repro.search import (
    Witness,
    iid_baseline,
    load_corpus,
    replay_witness,
)
from repro.sim import HAS_COMPILED

CORPUS = load_corpus()
CORPUS_IDS = [w.target for w in CORPUS]

#: every buildable kernel rung replays the corpus in-process; the worker
#: pool matrix stays on the two always-available kernels to bound runtime.
REPLAY_KERNELS = ["legacy", "packed"] + (
    ["compiled-loop"] if HAS_COMPILED else []
)


def test_corpus_is_nonempty_and_covers_both_experiments():
    targets = {w.target for w in CORPUS}
    assert "exp4-tau" in targets
    assert "exp8-tau" in targets


@pytest.mark.parametrize("witness", CORPUS, ids=CORPUS_IDS)
def test_witness_json_roundtrip(witness):
    assert Witness.from_json(witness.to_json()) == witness


@pytest.mark.parametrize("witness", CORPUS, ids=CORPUS_IDS)
@pytest.mark.parametrize("kernel", REPLAY_KERNELS)
def test_witness_replays_identically_in_process(witness, kernel):
    value, digest = replay_witness(witness, kernel=kernel)
    assert value == witness.value
    assert digest == witness.digest


@pytest.mark.parametrize("witness", CORPUS, ids=CORPUS_IDS)
@pytest.mark.parametrize("kernel", ["legacy", "packed"])
def test_witness_replays_identically_through_worker_pool(witness, kernel):
    value, digest = replay_witness(witness, kernel=kernel, workers=2)
    assert value == witness.value
    assert digest == witness.digest


@pytest.mark.parametrize("witness", CORPUS, ids=CORPUS_IDS)
def test_witness_exceeds_recorded_baseline(witness):
    assert witness.baseline is not None, "corpus witnesses must pin a baseline"
    assert witness.exceeds_baseline is True


@pytest.mark.parametrize("witness", CORPUS, ids=CORPUS_IDS)
def test_recorded_baseline_matches_recomputation(witness):
    fresh = iid_baseline(
        witness.target,
        seeds=witness.baseline["seeds"],
        base_seed=witness.baseline["base_seed"],
    )
    assert fresh["values"] == witness.baseline["values"]
    assert fresh["max"] == witness.baseline["max"]
    assert witness.value > fresh["max"]
