"""Kernel tests: the packed struct-of-arrays data plane is observationally
identical to the legacy ``Network``, on both the network API and whole runs.

Five pillars:

- a hypothesis differential driving the legacy ``Network`` and the packed
  pool side by side through random send/send_all/pop/batch-pop/crash/tick
  interleavings, asserting identical envelopes, counters, and horizon state
  at every step (the compiled pool joins when the extension is built);
- whole-run differentials over the randomized scenario space of
  ``test_engine_differential`` pinning byte-identical :class:`RunRecord`
  objects across ``kernel="legacy" | "packed" | "compiled-loop"`` under
  both ``round_robin`` and ``random`` scheduling and both engines;
- unit coverage for the kernel selection flag (``sim.kernel`` follows the
  network's type) and the heap self-compaction caps at the fixed
  ``COMPACT_FACTOR``;
- direct unit tests of the compiled ``Pool`` shard ordering and slot
  recycling, skipped when the extension is not built;
- the fused-loop engagement rule (``sim.fused_path``) under every observer
  capability, including mid-lifetime :meth:`attach_observer` /
  :meth:`detach_observer`, and skipif-gated ``run_loop`` /
  ``pop_due_batch`` unit tests mirroring the ``Pool`` units.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    COMPACT_FACTOR,
    HAS_COMPILED,
    KERNELS,
    CompiledPackedNetwork,
    FixedDelay,
    Network,
    PackedNetwork,
    Process,
    SimObserver,
    Simulation,
    StepStore,
    make_network,
    run_digest,
)
from repro.sim.errors import ConfigurationError
from repro.sim.types import NEVER

from test_engine_differential import build_sim, random_config, run_sim

#: kernels exercised by the whole-run differentials; "compiled-loop" joins
#: when the C extension is built (importable and exporting ``run_loop``),
#: and its absence is covered separately.
BUILT_KERNELS = [k for k in KERNELS if k != "compiled-loop" or HAS_COMPILED]


# ---------------------------------------------------------------------------
# Packed pool vs legacy Network, op by op.
# ---------------------------------------------------------------------------


class SometimesNeverDelay:
    """Seeded delays in [1, 9], with a slice of never-deliverable sends."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def delay(self, sender, receiver, t):
        if self._rng.random() < 0.2:
            return NEVER - t
        return self._rng.randint(1, 9)


def _state(net: Network) -> dict:
    return {
        "next": [net.next_delivery_time(r) for r in range(net.n)],
        "transit": [net.in_transit(r) for r in range(net.n)],
        "horizon": net.horizon_peek(),
        "sent": net.sent_count,
        "delivered": net.delivered_count,
        "live_pending": net.live_pending,
    }


class TestPackedPoolDifferential:
    """Drive every built pool implementation in lockstep with the legacy
    queue-of-Envelopes network and require indistinguishable behaviour."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_packed_matches_legacy_across_interleavings(self, data):
        n = data.draw(st.integers(min_value=2, max_value=5), label="n")
        nets = [Network(n, SometimesNeverDelay(seed=n))]
        nets.append(PackedNetwork(n, SometimesNeverDelay(seed=n)))
        if HAS_COMPILED:
            nets.append(CompiledPackedNetwork(n, SometimesNeverDelay(seed=n)))
        t = 0
        ops = data.draw(
            st.lists(
                st.sampled_from(
                    ["send", "send_all", "pop", "pop_batch", "crash", "tick"]
                ),
                min_size=1,
                max_size=50,
            ),
            label="ops",
        )
        for op in ops:
            if op == "send":
                sender = data.draw(st.integers(0, n - 1))
                receiver = data.draw(st.integers(0, n - 1))
                results = [
                    net.send(sender, receiver, ("m", t), t) for net in nets
                ]
                assert all(env == results[0] for env in results[1:])
            elif op == "send_all":
                sender = data.draw(st.integers(0, n - 1))
                include_self = data.draw(st.booleans())
                results = [
                    net.send_all(sender, "m", t, include_self=include_self)
                    for net in nets
                ]
                assert all(envs == results[0] for envs in results[1:])
            elif op == "pop":
                receiver = data.draw(st.integers(0, n - 1))
                peeks = [net.peek_deliverable(receiver, t) for net in nets]
                results = [net.pop_deliverable(receiver, t) for net in nets]
                assert all(env == results[0] for env in results[1:])
                assert peeks == results  # peek previews exactly the pop
            elif op == "pop_batch":
                receiver = data.draw(st.integers(0, n - 1))
                limit = data.draw(st.integers(1, 4))
                results = [
                    net.pop_deliverable_batch(receiver, t, limit)
                    for net in nets
                ]
                assert all(envs == results[0] for envs in results[1:])
            elif op == "crash":
                victim = data.draw(st.integers(0, n - 1))
                for net in nets:
                    net.mark_crashed(victim)
            else:  # tick
                t += data.draw(st.integers(1, 12))
            reference = _state(nets[0])
            for net in nets[1:]:
                assert _state(net) == reference

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_pop_equals_repeated_single_pops(self, data):
        # Satellite pin: pop_deliverable_batch is observationally the same
        # as calling the legacy single pop `limit` times, on every kernel.
        n = data.draw(st.integers(min_value=2, max_value=4), label="n")
        kernel = data.draw(st.sampled_from(BUILT_KERNELS), label="kernel")
        batch = make_network(n, SometimesNeverDelay(seed=n), kernel=kernel)
        single = make_network(n, SometimesNeverDelay(seed=n), kernel=kernel)
        t = 0
        for step in range(data.draw(st.integers(1, 30), label="steps")):
            sender = data.draw(st.integers(0, n - 1))
            receiver = data.draw(st.integers(0, n - 1))
            batch.send(sender, receiver, step, t)
            single.send(sender, receiver, step, t)
            if data.draw(st.booleans()):
                t += data.draw(st.integers(1, 10))
            target = data.draw(st.integers(0, n - 1))
            limit = data.draw(st.integers(1, 5))
            popped = batch.pop_deliverable_batch(target, t, limit)
            expected = []
            for _ in range(limit):
                envelope = single.pop_deliverable(target, t)
                if envelope is None:
                    break
                expected.append(envelope)
            assert popped == expected
            assert _state(batch) == _state(single)


# ---------------------------------------------------------------------------
# Whole-run byte-equality across kernels, both scheduling policies.
# ---------------------------------------------------------------------------


class TestKernelRunDifferential:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    def test_all_kernels_byte_identical(self, seed, scheduling):
        config = random_config(seed)
        config["scheduling"] = scheduling
        runs = {}
        for kernel in BUILT_KERNELS:
            sim = run_sim(
                build_sim(config, engine="event", kernel=kernel), config
            )
            runs[kernel] = sim
        reference = runs["legacy"]
        assert isinstance(reference.run.steps, StepStore)
        for kernel, sim in runs.items():
            assert sim.run == reference.run, (
                f"kernel {kernel!r} diverged for config {config}"
            )
            assert sim.time == reference.time
            assert sim.network.sent_count == reference.network.sent_count
            assert (
                sim.network.delivered_count
                == reference.network.delivered_count
            )

    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    def test_naive_engine_runs_on_every_kernel(self, kernel, scheduling):
        # With test_all_kernels_byte_identical tying the kernels together
        # under the event engine, this completes the full
        # kernel x scheduling x engine byte-equality matrix.
        config = random_config(4)
        config["scheduling"] = scheduling
        naive = run_sim(
            build_sim(config, engine="naive", kernel=kernel), config
        )
        event = run_sim(
            build_sim(config, engine="event", kernel=kernel), config
        )
        assert naive.run == event.run

    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    def test_observers_see_identical_traffic(self, kernel):
        # Send/deliver observers force the envelope-materializing compat
        # paths; the traffic they see must not depend on the kernel.
        from test_engine_differential import CountingObserver

        config = random_config(6)
        counts = {}
        for k in ("legacy", kernel):
            observer = CountingObserver()
            sim = run_sim(
                build_sim(
                    config, engine="event", observers=[observer], kernel=k
                ),
                config,
            )
            counts[k] = (
                observer.steps,
                observer.sends,
                observer.delivers,
                observer.logs,
                sim.network.sent_count,
            )
        assert counts[kernel] == counts["legacy"]


# ---------------------------------------------------------------------------
# Kernel selection flag and the compaction caps.
# ---------------------------------------------------------------------------


class Chatter(Process):
    def on_timeout(self, ctx):
        ctx.send((ctx.pid + 1) % ctx.n, ("m", ctx.time))

    def on_message(self, ctx, sender, payload):
        pass


class TestKernelSelection:
    def test_default_kernel_is_packed(self):
        sim = Simulation([Chatter() for _ in range(2)])
        assert sim.kernel == "packed"
        assert isinstance(sim.network, PackedNetwork)

    def test_legacy_kernel_builds_plain_network(self):
        sim = Simulation([Chatter() for _ in range(2)], kernel="legacy")
        assert type(sim.network) is Network

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError, match="kernel"):
            Simulation([Chatter() for _ in range(2)], kernel="vectorized")
        with pytest.raises(ConfigurationError, match="kernel"):
            make_network(2, kernel="vectorized")

    def test_scenario_builder_passthrough(self):
        from repro.scenario import Scenario

        sim = Scenario(2, seed=0).etob().kernel("legacy").build()
        assert type(sim.network) is Network
        assert type(Scenario(2, seed=0).etob().build().network) is PackedNetwork

    def test_explicit_network_wins_over_kernel_flag(self):
        net = Network(2, FixedDelay(1))
        sim = Simulation([Chatter() for _ in range(2)], network=net)
        assert sim.network is net

    @pytest.mark.parametrize(
        "network_cls, kernel, fused_path",
        [
            (Network, "legacy", None),
            (PackedNetwork, "packed", "python"),
            pytest.param(
                CompiledPackedNetwork, "compiled-loop", "c-loop",
                marks=pytest.mark.skipif(
                    not HAS_COMPILED, reason="C extension not built"
                ),
            ),
        ],
    )
    @pytest.mark.parametrize("flag", KERNELS)
    def test_kernel_follows_an_explicit_network(
        self, network_cls, kernel, fused_path, flag
    ):
        sim = Simulation(
            [Chatter() for _ in range(3)],
            network=network_cls(3, FixedDelay(1)),
            kernel=flag,
        )
        assert (sim.kernel, sim.fused_path) == (kernel, fused_path)

    def test_compiled_kernel_requires_the_extension(self, monkeypatch):
        import repro.sim.kernel as kernel_mod

        monkeypatch.setattr(kernel_mod, "HAS_COMPILED", False)
        with pytest.raises(ConfigurationError, match="compiled-loop"):
            Simulation([Chatter() for _ in range(2)], kernel="compiled-loop")
        # The C pool serves only as part of "compiled-loop"; there is no
        # separately selectable pool-only kernel.
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            Simulation([Chatter() for _ in range(2)], kernel="compiled")

    @pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
    def test_compiled_kernel_builds_pool_network(self):
        sim = Simulation([Chatter() for _ in range(2)], kernel="compiled-loop")
        assert isinstance(sim.network, CompiledPackedNetwork)
        assert sim.network.pool_slots == 0


class TestCompactFactor:
    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    @pytest.mark.parametrize("n", [3, 24])
    def test_heaps_stay_bounded(self, kernel, n):
        # Lazy deletions never accumulate past max(64, COMPACT_FACTOR * n),
        # on either side of the max.
        sim = Simulation(
            [Chatter() for _ in range(n)],
            delay_model=FixedDelay(1),
            timeout_interval=2,
            kernel=kernel,
            record="none",
        )
        sim.run_until(5_000)
        cap = max(64, COMPACT_FACTOR * n)
        assert sim.network._horizon_cap == sim._local_cap == cap
        assert sim.network.delivered_count > 1_000
        assert len(sim.network._horizon) <= cap + 1
        assert len(sim._local_horizon) <= cap + 1


# ---------------------------------------------------------------------------
# Compiled pool unit behaviour.
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
class TestCompiledPool:
    def make_pool(self):
        from repro.sim import _ckernel

        return _ckernel.Pool(3)

    def test_orders_by_deliver_at_then_seq(self):
        pool = self.make_pool()
        pool.push(1, 10, 5, 0, 0, "late")
        pool.push(1, 8, 6, 0, 0, "early")
        pool.push(1, 8, 2, 0, 0, "earlier-seq")
        assert pool.peek(1) == (8, 2, 0, 0, "earlier-seq")
        assert pool.pop_due(1, 20) == (8, 2, 0, 0, "earlier-seq", 8)
        assert pool.pop_due(1, 20) == (8, 6, 0, 0, "early", 10)
        assert pool.pop_due(1, 20) == (10, 5, 0, 0, "late", -1)
        assert pool.pop_due(1, 20) is None

    def test_pop_due_respects_time(self):
        pool = self.make_pool()
        pool.push(0, 7, 0, 1, 2, "x")
        assert pool.pop_due(0, 6) is None
        assert pool.pop_due(0, 7) == (7, 0, 1, 2, "x", -1)

    def test_slot_recycling(self):
        pool = self.make_pool()
        pool.push(0, 1, 0, 0, 0, "a")
        pool.push(1, 2, 1, 0, 0, "b")
        assert (pool.slots(), pool.free()) == (2, 0)
        pool.pop_due(0, 5)
        assert (pool.slots(), pool.free()) == (2, 1)
        pool.push(2, 3, 2, 0, 0, "c")  # reuses the freed slot
        assert (pool.slots(), pool.free()) == (2, 0)

    def test_push_many_matches_single_pushes(self):
        many, single = self.make_pool(), self.make_pool()
        payload = ("beat", 4)
        many.push_many(1, 4, 10, [0, 2], [9, 6], payload)
        single.push(0, 9, 10, 1, 4, payload)
        single.push(2, 6, 11, 1, 4, payload)
        for receiver in (0, 2):
            assert many.pop_due(receiver, 99) == single.pop_due(receiver, 99)

    def test_payload_identity_preserved(self):
        pool = self.make_pool()
        payload = {"mutable": []}
        pool.push(0, 1, 0, 0, 0, payload)
        assert pool.peek(0)[4] is payload
        assert pool.pop_due(0, 1)[4] is payload

    def test_errors(self):
        pool = self.make_pool()
        with pytest.raises(IndexError):
            pool.peek(0)
        with pytest.raises(IndexError):
            pool.push(3, 1, 0, 0, 0, "x")
        with pytest.raises(ValueError):
            pool.push_many(0, 0, 0, [0, 1], [5], "x")

    def test_pop_due_batch_matches_repeated_pop_due(self):
        batch, single = self.make_pool(), self.make_pool()
        for pool in (batch, single):
            pool.push(1, 8, 6, 0, 0, "early")
            pool.push(1, 10, 5, 0, 0, "late")
            pool.push(1, 8, 2, 0, 0, "earlier-seq")
            pool.push(1, 99, 9, 0, 0, "future")
        items, new_head, live_drop = batch.pop_due_batch(1, 10, 3)
        expected = [single.pop_due(1, 10)[:5] for _ in range(3)]
        assert items == expected
        assert new_head == 99  # the first still-undue message
        assert live_drop == 3  # every popped message was live
        # Drained of due messages: empty batch, head unchanged.
        assert batch.pop_due_batch(1, 10, 4) == ([], 99, 0)

    def test_pop_due_batch_respects_time_and_limit(self):
        pool = self.make_pool()
        pool.push(0, 5, 0, 1, 2, "a")
        pool.push(0, 6, 1, 1, 2, "b")
        assert pool.pop_due_batch(0, 4, 10) == ([], 5, 0)
        items, new_head, live_drop = pool.pop_due_batch(0, 5, 10)
        assert items == [(5, 0, 1, 2, "a")]
        assert (new_head, live_drop) == (6, 1)
        assert pool.pop_due_batch(2, 10, 1) == ([], -1, 0)  # empty shard

    def test_pop_due_batch_errors(self):
        pool = self.make_pool()
        with pytest.raises(IndexError):
            pool.pop_due_batch(5, 1, 1)
        with pytest.raises(TypeError):
            pool.pop_due_batch(0, 1)


# ---------------------------------------------------------------------------
# The fused-loop engagement rule and run_loop unit behaviour.
# ---------------------------------------------------------------------------


class StepSpy(SimObserver):
    """Step observer WITHOUT the raw hook: forces materialized dispatch."""

    def __init__(self) -> None:
        self.steps = 0

    def on_step(self, sim, record):
        self.steps += 1


class SendSpy(SimObserver):
    def __init__(self) -> None:
        self.sends = 0

    def on_send(self, sim, envelope):
        self.sends += 1


class DeliverSpy(SimObserver):
    def __init__(self) -> None:
        self.delivers = 0

    def on_deliver(self, sim, envelope):
        self.delivers += 1


class LogSpy(SimObserver):
    def __init__(self) -> None:
        self.events = []

    def on_log(self, sim, t, pid, event):
        self.events.append((t, pid, event))


class LoggingChatter(Process):
    def on_timeout(self, ctx):
        ctx.send((ctx.pid + 1) % ctx.n, ("m", ctx.time))
        ctx.log(("beat", ctx.time))

    def on_message(self, ctx, sender, payload):
        pass


def _loop_sim(kernel, observers=(), cls=Chatter, n=3, **sim_kwargs):
    return Simulation(
        [cls() for _ in range(n)],
        delay_model=FixedDelay(2),
        timeout_interval=3,
        seed=5,
        record="metrics",
        kernel=kernel,
        observers=list(observers),
        **sim_kwargs,
    )


class TestFusedPathResolution:
    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    def test_only_event_round_robin_runs_report_a_fused_loop(self, kernel):
        # The naive engine and random scheduling never run a fused loop
        # (neither the Python one nor the C one), so the property must not
        # name one for them.
        assert _loop_sim(kernel, engine="naive").fused_path is None
        assert _loop_sim(kernel, scheduling="random").fused_path is None

    @pytest.mark.parametrize("spy_cls", [SendSpy, DeliverSpy])
    def test_envelope_observers_take_the_generic_engine(self, spy_cls):
        # Neither fused loop materializes the Envelope views these hooks
        # receive, so on every kernel they run the generic engine — with
        # identical trajectories and identical observations.
        digests, counters = {}, {}
        for kernel in BUILT_KERNELS:
            spy = spy_cls()
            sim = _loop_sim(kernel, [spy])
            assert sim.fused_path is None
            sim.run_until(2_000)
            digests[kernel] = run_digest(sim)
            counters[kernel] = vars(spy)
        assert len(set(digests.values())) == 1
        assert all(c == counters["legacy"] for c in counters.values())
        assert any(counters["legacy"].values())  # the spy saw traffic


class TestObserverAttachDetach:
    """Mid-lifetime observer changes re-resolve the fused runner
    (kernel-independent; the C loop's view is in TestCompiledLoopLadder)."""

    def test_attach_rejects_non_observers(self):
        with pytest.raises(ConfigurationError, match="SimObserver"):
            _loop_sim("packed").attach_observer(object())

    def test_detach_unknown_observer_rejected(self):
        with pytest.raises(ConfigurationError):
            _loop_sim("packed").detach_observer(StepSpy())

    def test_attach_detach_restores_fused_path(self):
        sim = _loop_sim("packed")
        assert sim.fused_path == "python"
        spy = StepSpy()
        sim.attach_observer(spy)
        assert sim.fused_path is None  # non-raw step observer: generic loop
        sim.detach_observer(spy)
        assert sim.fused_path == "python"

    def test_mid_run_attach_does_not_change_the_trajectory(self):
        watched, plain = _loop_sim("packed"), _loop_sim("packed")
        watched.run_until(1_000)
        spy = StepSpy()
        watched.attach_observer(spy)
        watched.run_until(2_000)
        watched.detach_observer(spy)
        watched.run_until(3_000)
        plain.run_until(3_000)
        assert run_digest(watched) == run_digest(plain)
        assert spy.steps > 0


@pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
class TestCompiledLoopLadder:
    """When the C tick loop engages, and that its trajectory is
    byte-identical to the Python fused loop's."""

    def test_engages_and_matches_python_loop(self):
        c, py = _loop_sim("compiled-loop"), _loop_sim("packed")
        assert c.fused_path == "c-loop"
        assert py.fused_path == "python"
        c.run_until(4_000)
        py.run_until(4_000)
        assert run_digest(c) == run_digest(py)

    def test_lower_rungs_never_take_the_c_loop(self):
        assert _loop_sim("legacy").fused_path is None
        assert _loop_sim("packed").fused_path == "python"

    def test_log_observers_stay_on_the_c_loop(self):
        # Log dispatch crosses back into Python from C, so a log observer
        # must not cost the C loop — and must see the identical event stream.
        c_spy, py_spy = LogSpy(), LogSpy()
        c = _loop_sim("compiled-loop", [c_spy], cls=LoggingChatter)
        py = _loop_sim("packed", [py_spy], cls=LoggingChatter)
        assert c.fused_path == "c-loop"
        c.run_until(2_000)
        py.run_until(2_000)
        assert run_digest(c) == run_digest(py)
        assert c_spy.events == py_spy.events
        assert c_spy.events  # the scenario actually logged

    def test_attach_detach_toggles_the_c_loop_mid_run(self):
        c, py = _loop_sim("compiled-loop"), _loop_sim("packed")
        c_spy, py_spy = StepSpy(), StepSpy()
        c.run_until(1_000)
        py.run_until(1_000)
        assert c.fused_path == "c-loop"
        c.attach_observer(c_spy)
        py.attach_observer(py_spy)
        assert c.fused_path is None  # non-raw observer: generic engine
        c.run_until(2_000)
        py.run_until(2_000)
        c.detach_observer(c_spy)
        py.detach_observer(py_spy)
        assert c.fused_path == "c-loop"
        c.run_until(3_000)
        py.run_until(3_000)
        assert run_digest(c) == run_digest(py)
        assert c_spy.steps == py_spy.steps > 0

    def test_run_loop_arity_and_type_errors(self):
        from repro.sim import _ckernel

        with pytest.raises(TypeError):
            _ckernel.run_loop()
        with pytest.raises(TypeError):
            _ckernel.run_loop(1, 2)
        with pytest.raises(AttributeError):
            _ckernel.run_loop(object(), 10, None)

    def test_handler_errors_match_the_python_loop(self):
        class Boom(Process):
            def on_timeout(self, ctx):
                raise RuntimeError("boom")

            def on_message(self, ctx, sender, payload):
                pass

        outcomes = {}
        for kernel in ("packed", "compiled-loop"):
            sim = _loop_sim(kernel, cls=Boom)
            with pytest.raises(RuntimeError, match="boom"):
                sim.run_until(100)
            outcomes[kernel] = (sim.time, sim.network.sent_count)
        assert outcomes["packed"] == outcomes["compiled-loop"]
