"""Tests for the CHT replay sandbox."""

import pytest

from repro.cht import SampleDag, SimulationTree, TreeBounds, extract_leader
from repro.cht.replay import InputNeeded, ReplaySandbox
from repro.core import EcDriverLayer, EcUsingOmegaLayer
from repro.sim import Layer, ProtocolStack
from tests.test_cht_extraction import SMALL_BOUNDS, stable_dag


def ec_factory(proposal_fn):
    return ProtocolStack(
        [EcUsingOmegaLayer(), EcDriverLayer(proposal_fn, max_instances=2)]
    )


class DeepCopyEcLayer(EcUsingOmegaLayer):
    """Algorithm 4 on the generic deep-copy snapshot: the oracle."""

    snapshot = Layer.snapshot
    restore = Layer.restore


class DeepCopyEcDriverLayer(EcDriverLayer):
    snapshot = Layer.snapshot
    restore = Layer.restore


def deepcopy_factory(proposal_fn):
    return ProtocolStack(
        [DeepCopyEcLayer(), DeepCopyEcDriverLayer(proposal_fn, max_instances=2)]
    )


class TestSandbox:
    def test_first_step_demands_first_input(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        with pytest.raises(InputNeeded) as exc:
            sandbox.execute(state, 0, 0, deliver=False, inputs={})
        assert exc.value.key == (0, 1)

    def test_step_with_input_sends_promote(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        state = sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 1})
        # Algorithm 4 broadcasts promote(v, 1) to all, including itself.
        assert state.pending_for(0) == 1
        assert state.pending_for(1) == 1
        assert state.steps_taken == 1

    def test_aborted_step_leaves_state_reusable(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        with pytest.raises(InputNeeded):
            sandbox.execute(state, 0, 0, deliver=False, inputs={})
        # Same state, now with the input: must work exactly as a fresh run.
        after = sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 0})
        assert after.pending_for(1) == 1

    def test_branching_same_state_two_inputs(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        s0 = sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 0})
        s1 = sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 1})
        # Both branches exist independently; the original is untouched.
        assert state.steps_taken == 0
        assert s0.steps_taken == s1.steps_taken == 1

    def test_full_decision_path(self):
        # p0 proposes 1; its promote reaches p1; p1 (trusting leader 0)
        # decides p0's value in instance 1.
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        state = sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 1})
        # Deciding instance 1 makes the driver propose instance 2 within the
        # same step, so the instance-2 inputs must be available too.
        inputs = {(0, 1): 1, (1, 1): 0, (0, 2): 0, (1, 2): 1}
        state = sandbox.execute(state, 1, 0, deliver=False, inputs=inputs)  # p1 proposes 0
        state = sandbox.execute(state, 1, 0, deliver=True, inputs=inputs)  # receives promote
        # p1's oldest pending message is p0's promote; after consuming it the
        # timeout clause decides instance 1 with p0's value... unless p1's own
        # promote arrived first (FIFO). Drain until a decision appears.
        guard = 0
        while not state.decisions and guard < 4:
            if state.pending_for(1):
                state = sandbox.execute(state, 1, 0, deliver=True, inputs=inputs)
            guard += 1
        assert state.decisions, "p1 never decided"
        decision = state.decisions[0]
        assert decision.pid == 1
        assert decision.instance == 1
        assert decision.value == 1  # the leader's proposal

    def test_lambda_step_without_pending_ok(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        state = sandbox.execute(state, 1, 1, deliver=False, inputs={(1, 1): 0})
        assert state.started[1]

    def test_deliver_without_pending_raises(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        with pytest.raises(ValueError):
            sandbox.execute(state, 0, 0, deliver=True, inputs={(0, 1): 0})

    def test_disagreement_detection(self):
        from repro.cht.replay import Decision, ReplayState

        state = ReplayState(
            automata=(),
            started=(),
            buffers=(),
            decisions=(
                Decision(0, 1, 0),
                Decision(1, 1, 1),
                Decision(0, 2, 1),
            ),
        )
        assert state.has_disagreement(1)
        assert not state.has_disagreement(2)
        assert state.decided_values(1) == {0, 1}


class _EmitTwice(Layer):
    """Queues two events for the layer above within one step."""

    def on_start(self, ctx):
        ctx.emit_upper("a")
        ctx.emit_upper("b")


class _DecideEach(Layer):
    """Decides every lower event with a simulation-chosen input."""

    def __init__(self, proposal_fn):
        self.proposal_fn = proposal_fn

    def on_lower_event(self, ctx, event):
        ctx.emit_upper(("decide", event, self.proposal_fn(ctx.pid, event)))


def emit_twice_factory(proposal_fn):
    return ProtocolStack([_EmitTwice(), _DecideEach(proposal_fn)])


class TestAbortedStep:
    def test_aborted_dispatch_does_not_leak_into_next_step(self):
        sandbox = ReplaySandbox(1, emit_twice_factory)
        state = sandbox.initial_state()
        # "a" needs an input while "b" is still queued inside the stack.
        with pytest.raises(InputNeeded):
            sandbox.execute(state, 0, None, deliver=False, inputs={})
        inputs = {(0, "a"): 0, (0, "b"): 1}
        after = sandbox.execute(state, 0, None, deliver=False, inputs=inputs)
        fresh = ReplaySandbox(1, emit_twice_factory)
        clean = fresh.execute(
            fresh.initial_state(), 0, None, deliver=False, inputs=inputs
        )
        assert after.decisions == clean.decisions
        assert [d.instance for d in after.decisions] == ["a", "b"]


def _containers(stack_state):
    """The mutable containers an ``ec_factory`` stack snapshot carries."""
    (__, received, decided, __), (__, decisions) = stack_state
    return received, decided, decisions


class TestSnapshotValueSemantics:
    def test_siblings_share_no_containers(self):
        sandbox = ReplaySandbox(2, ec_factory)
        inputs = {(0, 1): 1, (1, 1): 0, (0, 2): 0, (1, 2): 1}
        parent = sandbox.execute(
            sandbox.initial_state(), 0, 0, deliver=False, inputs=inputs
        )
        # p0 consumes its own promote and, trusting itself, decides.
        parent = sandbox.execute(parent, 0, 0, deliver=True, inputs=inputs)
        received, decided, decisions = _containers(parent.automata[0])
        before = (dict(received), set(decided), dict(decisions))
        assert all(before), before
        left = sandbox.execute(parent, 0, 0, deliver=True, inputs=inputs)
        right = sandbox.execute(parent, 0, 1, deliver=False, inputs=inputs)
        views = [_containers(s.automata[0]) for s in (parent, left, right)]
        for slot in range(3):
            ids = {id(view[slot]) for view in views}
            assert len(ids) == 3, f"container {slot} shared between states"
        assert _containers(parent.automata[0]) == before

    def test_mutating_live_layers_leaves_snapshot_unchanged(self):
        stack = ec_factory(lambda pid, instance: 0)
        stack.attach(0, 2)
        ec, driver = stack.layers
        ec.received[(1, 1)] = "x"
        ec.decided.add(1)
        driver.decisions[1] = "x"
        snapshot = stack.snapshot()
        ec.received[(1, 2)] = "y"
        ec.decided.add(2)
        driver.decisions[2] = "y"
        stack.restore(snapshot)
        assert (ec.received, ec.decided, driver.decisions) == (
            {(1, 1): "x"},
            {1},
            {1: "x"},
        )
        # Restored containers are fresh copies, so the snapshot survives
        # mutation after a restore too.
        ec.received.clear()
        ec.decided.clear()
        driver.decisions.clear()
        stack.restore(snapshot)
        assert (ec.received, ec.decided, driver.decisions) == (
            {(1, 1): "x"},
            {1},
            {1: "x"},
        )


def _restored_layers(factory, n, automata):
    """Every layer attribute each process's snapshot restores to."""
    views = []
    for pid, snapshot in enumerate(automata):
        stack = factory(None)
        stack.attach(pid, n)
        stack.restore(snapshot)
        views.append(
            [
                {k: v for k, v in vars(layer).items() if k != "proposal_fn"}
                for layer in stack.layers
            ]
        )
    return views


def _tree_digest(factory, dag, n, bounds):
    tree = SimulationTree(dag, ReplaySandbox(n, factory), bounds)
    tree.compute_tags()
    return tree.truncated, [
        (
            node.node_id,
            node.parent,
            node.step,
            node.children,
            node.inputs,
            node.tags,
            node.max_sample_k,
            node.state.started,
            node.state.buffers,
            node.state.decisions,
            node.state.steps_taken,
            _restored_layers(factory, n, node.state.automata),
        )
        for node in tree.nodes
    ]


def rotating_dag(n=3, rounds=3):
    """Samples whose Omega output rotates every round (EXP-7's churn)."""
    dag = SampleDag()
    for r in range(rounds):
        for pid in range(n):
            dag.add_sample(pid, r % n)
    return dag


EXP7_BOUNDS = TreeBounds(max_depth=5, max_nodes=800)

DIFFERENTIAL_CASES = [
    pytest.param(stable_dag(leader=0), 2, SMALL_BOUNDS, id="stable-p0"),
    pytest.param(stable_dag(leader=1), 2, SMALL_BOUNDS, id="stable-p1"),
    pytest.param(
        stable_dag(n=3, leader=2, rounds=3),
        3,
        TreeBounds(max_depth=5, max_nodes=1500, max_successors=4),
        id="stable-n3",
    ),
    pytest.param(rotating_dag(), 3, EXP7_BOUNDS, id="rotating-exp7-bounds"),
]


class TestDeepCopyDifferential:
    """Structural layer snapshots against the generic deep copy."""

    @pytest.mark.parametrize("dag,n,bounds", DIFFERENTIAL_CASES)
    def test_trees_match_node_by_node(self, dag, n, bounds):
        structural = _tree_digest(ec_factory, dag, n, bounds)
        oracle = _tree_digest(deepcopy_factory, dag, n, bounds)
        assert len(structural[1]) > 1
        assert structural == oracle

    @pytest.mark.parametrize("dag,n,bounds", DIFFERENTIAL_CASES)
    def test_extraction_results_match(self, dag, n, bounds):
        structural = extract_leader(dag, ec_factory, n, bounds=bounds)
        oracle = extract_leader(dag, deepcopy_factory, n, bounds=bounds)
        assert structural == oracle
