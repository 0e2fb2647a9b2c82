#!/usr/bin/env python3
"""Omega is necessary: extracting a leader from an EC algorithm (Lemma 1).

The paper's lower bound: any algorithm solving eventual consensus with any
failure detector D can be used to *emulate* Omega. This demo runs the
executable version of that construction:

- every process samples its detector and gossips an ever-growing DAG of
  samples (the paper's Figure 1);
- periodically, each process locally simulates runs of the EC algorithm
  (Algorithm 4) along DAG paths, organizes them into a simulation tree, tags
  vertices with decision valencies, finds a bivalent vertex and a decision
  gadget (fork/hook) below it — and outputs the gadget's deciding process as
  its Omega estimate.

Watch the emulated Omega stabilize on the same correct process everywhere,
even though the underlying detector misbehaves until t=120 and the initial
leader crashes.

Run:  python examples/cht_extraction_demo.py   (takes a few seconds: it
     simulates hundreds of algorithm schedules per extraction)
"""

from repro import (
    EcDriverLayer,
    EcUsingOmegaLayer,
    FailurePattern,
    FixedDelay,
    OmegaDetector,
    ProtocolStack,
    Simulation,
)
from repro.cht import OmegaExtractionProcess, TreeBounds


def ec_algorithm(proposal_fn):
    """The algorithm A whose EC-ness we exploit: Algorithm 4 plus a driver."""
    return ProtocolStack(
        [EcUsingOmegaLayer(), EcDriverLayer(proposal_fn, max_instances=2)]
    )


def main() -> None:
    n = 3
    # p0 crashes at t=100; the detector D (here: an Omega history) rotates
    # leaders until t=120, then stabilizes on p1.
    pattern = FailurePattern.crash(n, {0: 100})
    detector = OmegaDetector(
        stabilization_time=120, leader=1, pre_behavior="rotate"
    ).history(pattern)

    processes = [
        OmegaExtractionProcess(
            ec_algorithm,
            bounds=TreeBounds(max_depth=5, max_nodes=800),
            analyze_every=5,
            window=4,  # extract from the recent stationary suffix of the DAG
        )
        for _ in range(n)
    ]
    sim = Simulation(
        processes,
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(2),
        timeout_interval=4,
        message_batch=4,
    )
    sim.run_until(450)

    print("Emulated Omega output history (time, leader):")
    for pid in range(n):
        status = "correct" if pid in pattern.correct else "crashed@100"
        stream = [(t, leader) for t, (leader,) in sim.run.tagged_outputs(pid, "omega")]
        print(f"  p{pid} ({status}): {stream}")

    print()
    finals = {processes[pid].current_leader for pid in pattern.correct}
    agreed = len(finals) == 1
    leader = next(iter(finals)) if agreed else None
    print(f"Correct processes agree on emulated leader: {agreed}")
    print(f"Emulated leader: p{leader}  (correct: {leader in pattern.correct})")

    result = processes[1].last_result
    if result is not None:
        print()
        print("Last extraction at p1:")
        print(f"  confidence:        {result.confidence}")
        print(f"  via instance:      {result.instance}")
        print(f"  DAG vertices used: {result.dag_vertices}")
        print(f"  tree vertices:     {result.tree_nodes}")
        if result.gadget is not None:
            print(
                f"  gadget:            {result.gadget.kind} at tree node "
                f"{result.gadget.pivot}, deciding process "
                f"p{result.gadget.deciding_process}"
            )


if __name__ == "__main__":
    main()
