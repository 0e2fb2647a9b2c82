"""Property and unit tests for the environment-model subsystem.

Pins the load-bearing properties of :mod:`repro.sim.envs`:

- pickle round-trips are behaviour-preserving (environment-swept cells may
  cross process boundaries);
- batched ``send_all`` (and the vectorized ``delay_profile`` hook) draws
  exactly what ``n`` point-to-point sends draw, per receiver in receiver
  order, for every registered environment;
- an environment-swept cell pool produces byte-identical run records across
  ``workers=0/2``;
- policy semantics: one-way holds, flapping holds, per-pair stabilization
  clamps, outage holds, churn waves render deterministically.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    ChurnSchedule,
    EnvModel,
    FixedDelay,
    Network,
    Process,
    Simulation,
    make_env,
    registered_envs,
)
from repro.sim.envs import (
    AgeGstDist,
    EventuallyStableLinks,
    FixedDist,
    FlappingLinks,
    HeavyTailDist,
    NodeOutage,
    OneWayPartition,
    UniformDist,
    delay_profile_of,
    env_axis,
    register_env,
)
from repro.sim.errors import ConfigurationError
from repro.sim.types import NEVER
from repro.suite import ScenarioSuite

N = 4

env_names = st.sampled_from(registered_envs())
seeds = st.integers(min_value=0, max_value=2**31 - 1)
times = st.integers(min_value=0, max_value=5000)
pids = st.integers(min_value=0, max_value=N - 1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_envs_registered(self):
        names = registered_envs()
        assert "baseline" in names and "heavy-tail" in names
        assert len(names) >= 8

    def test_unknown_env_rejected(self):
        with pytest.raises(ConfigurationError):
            make_env("no-such-environment")

    def test_bad_base_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            make_env("baseline", base_delay=0)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_env("baseline")(lambda seed, d: None)

    def test_env_axis_defaults_to_all(self):
        axis = env_axis()
        assert axis.name == "env"
        assert list(axis.values) == registered_envs()

    def test_env_axis_validates_names(self):
        assert env_axis("baseline", "flaky").values == ("baseline", "flaky")
        with pytest.raises(ConfigurationError):
            env_axis("baseline", "no-such-environment")

    def test_builder_names_match_registry(self):
        for name in registered_envs():
            assert make_env(name, seed=1).name == name


# ---------------------------------------------------------------------------
# pickling and RNG discipline (the tentpole properties)
# ---------------------------------------------------------------------------


class TestPickleRoundTrip:
    @settings(max_examples=60)
    @given(name=env_names, seed=seeds, t=times, sender=pids)
    def test_pickled_model_draws_identical_delays(self, name, seed, t, sender):
        env = make_env(name, seed=seed, base_delay=2)
        clone = pickle.loads(pickle.dumps(env))
        assert clone == env
        for receiver in range(N):
            if receiver == sender:
                continue
            assert clone.delay.delay(sender, receiver, t) == env.delay.delay(
                sender, receiver, t
            )

    def test_envmodel_bundle_roundtrips(self):
        env = make_env("churn-waves", seed=9)
        clone = pickle.loads(pickle.dumps(env))
        assert clone.pattern(5, seed=9) == env.pattern(5, seed=9)
        assert clone.bounds == env.bounds


class TestRngDiscipline:
    @settings(max_examples=60)
    @given(name=env_names, seed=seeds, t=times, sender=pids)
    def test_send_all_matches_n_individual_sends(self, name, seed, t, sender):
        model = make_env(name, seed=seed, base_delay=2).delay
        batched = Network(N, model)
        pointwise = Network(N, model)
        broadcast = batched.send_all(sender, "payload", t)
        singles = [
            pointwise.send(sender, receiver, "payload", t)
            for receiver in range(N)
        ]
        assert [e.deliver_at for e in broadcast] == [
            e.deliver_at for e in singles
        ]
        assert [e.receiver for e in broadcast] == list(range(N))

    @settings(max_examples=60)
    @given(name=env_names, seed=seeds, t=times, sender=pids)
    def test_delay_profile_equals_per_receiver_delays(
        self, name, seed, t, sender
    ):
        model = make_env(name, seed=seed, base_delay=2).delay
        receivers = [r for r in range(N) if r != sender]
        assert delay_profile_of(model, sender, t, receivers) == [
            model.delay(sender, r, t) for r in receivers
        ]

    def test_draws_are_query_order_independent(self):
        # Counter-based discipline: a message's delay depends only on
        # (seed, link, send time), never on what else was queried before.
        model = make_env("heavy-tail", seed=7).delay
        forward = [model.delay(0, r, 11) for r in range(N)]
        backward = [model.delay(0, r, 11) for r in reversed(range(N))]
        assert forward == backward[::-1]

    def test_wrong_length_profile_rejected(self):
        class BadProfile:
            def delay(self, sender, receiver, t):
                return 1

            def delay_profile(self, sender, t, receivers):
                return [1]  # always too short for n >= 3

        with pytest.raises(ValueError, match="delay profile"):
            Network(3, BadProfile()).send_all(0, "x", 0)

    def test_legacy_models_without_profile_still_batch(self):
        # Models lacking the hook take the per-receiver fallback path.
        network = Network(3, FixedDelay(2))
        envelopes = network.send_all(0, "x", 5)
        assert [e.deliver_at for e in envelopes] == [7, 7, 7]


# ---------------------------------------------------------------------------
# suite determinism across workers
# ---------------------------------------------------------------------------


class _Chatter(Process):
    """Broadcasts on every timeout; enough traffic to exercise the model."""

    def on_timeout(self, ctx):
        ctx.send_all(("beat", ctx.time), include_self=False)

    def on_message(self, ctx, sender, payload):
        pass


def _env_cell(*, env: str, seed: int) -> bytes:
    """One suite cell: a short full-fidelity run under the named environment.

    Returns the pickled RunRecord — byte-level comparison catches anything
    equality might coarsen away.
    """
    sim = Simulation(
        [_Chatter() for _ in range(3)],
        environment=make_env(env, seed=seed, base_delay=2),
        timeout_interval=8,
        seed=seed,
        record="full",
    )
    sim.run_until(400)
    return pickle.dumps(sim.run)


class TestSweptPoolDeterminism:
    def _suite(self):
        return (
            ScenarioSuite(_env_cell, name="env-sweep")
            .axis(env_axis())
            .seeds([3, 17])
        )

    def test_records_identical_across_workers(self):
        reference = self._suite().run(workers=0).values()
        assert all(isinstance(v, bytes) for v in reference)
        assert self._suite().run(workers=2).values() == reference


# ---------------------------------------------------------------------------
# model semantics
# ---------------------------------------------------------------------------


class TestDistributions:
    def test_fixed_dist_validates(self):
        with pytest.raises(ConfigurationError):
            FixedDist(0)

    def test_uniform_dist_range(self):
        model = UniformDist(2, 5, seed=1)
        delays = {model.delay(0, 1, t) for t in range(400)}
        assert delays <= set(range(2, 6)) and len(delays) == 4

    def test_heavy_tail_within_lo_cap_and_actually_tailed(self):
        model = HeavyTailDist(lo=1, alpha=1.4, cap=24, seed=3)
        delays = [model.delay(0, 1, t) for t in range(3000)]
        assert min(delays) == 1
        assert max(delays) == 24  # the truncated tail is reached
        assert sum(d == 1 for d in delays) > len(delays) / 3  # mostly short

    def test_age_gst_pre_messages_land_by_gst_plus_post(self):
        model = AgeGstDist(gst=100, pre_max=50, post_delay=2, seed=0)
        for t in range(100):
            assert t + model.delay(0, 1, t) <= 100 + 2
        for t in range(100, 300):
            assert 1 <= model.delay(0, 1, t) <= 2


class TestLinkPolicies:
    def test_one_way_is_asymmetric(self):
        model = OneWayPartition(
            FixedDist(2), edges=((0, 1),), start=10, end=50
        )
        assert model.delay(0, 1, 20) == (50 - 20) + 2  # held until heal
        assert model.delay(1, 0, 20) == 2  # reverse direction unaffected
        assert model.delay(0, 1, 5) == 2  # before the window
        assert model.delay(0, 1, 50) == 2  # after the window

    def test_one_way_permanent_returns_never(self):
        model = OneWayPartition(FixedDist(2), edges=((0, 1),), start=0)
        assert 20 + model.delay(0, 1, 20) >= NEVER

    def test_one_way_validates(self):
        with pytest.raises(ConfigurationError):
            OneWayPartition(FixedDist(1), edges=())
        with pytest.raises(ConfigurationError):
            OneWayPartition(FixedDist(1), edges=((1, 1),))
        with pytest.raises(ConfigurationError):
            OneWayPartition(FixedDist(1), edges=((0, 1),), start=5, end=5)

    def test_flapping_holds_until_link_up(self):
        model = FlappingLinks(
            FixedDist(3), pairs=((0, 1),), period=10, down=4
        )
        # t=12 -> position 2 of the period, link down for 2 more ticks.
        assert model.delay(0, 1, 12) == (4 - 2) + 3
        assert model.delay(1, 0, 12) == (4 - 2) + 3  # undirected
        assert model.delay(0, 1, 17) == 3  # up phase
        assert model.delay(0, 2, 12) == 3  # unlisted pair

    def test_flapping_validates(self):
        with pytest.raises(ConfigurationError):
            FlappingLinks(FixedDist(1), pairs=((0, 1),), period=8, down=8)
        with pytest.raises(ConfigurationError):
            FlappingLinks(FixedDist(1), pairs=())

    def test_eventually_stable_clamps_and_settles(self):
        model = EventuallyStableLinks(
            UniformDist(1, 40, seed=2),
            post_delay=2,
            stable_at=(((0, 1), 100),),
            seed=2,
        )
        for t in range(100):  # pre-stabilization: lands by stable_at + post
            assert t + model.delay(0, 1, t) <= 100 + 2
        for t in range(100, 200):  # post-stabilization: bounded by post
            assert 1 <= model.delay(0, 1, t) <= 2
        assert 1 <= model.delay(2, 3, 0) <= 2  # default stabilizes at 0

    def test_eventually_stable_clamps_a_never_delay_base(self):
        # A permanent one-way blackout underneath: the base returns >= NEVER
        # scale delays, but the stability clamp must still land every
        # pre-stabilization message by stable_at + post_delay, and every
        # post-stabilization message within post_delay. "Eventually stable"
        # is a promise about the *wrapped* link, whatever the base does.
        model = EventuallyStableLinks(
            OneWayPartition(FixedDist(2), edges=((0, 1),), start=0),
            post_delay=3,
            stable_at=(((0, 1), 120),),
            seed=5,
        )
        for t in range(120):
            assert t + model.delay(0, 1, t) <= 120 + 3
        for t in range(120, 240):
            assert 1 <= model.delay(0, 1, t) <= 3

    @settings(max_examples=40)
    @given(
        t=st.integers(min_value=0, max_value=400),
        stable_from=st.integers(min_value=0, max_value=300),
        post=st.integers(min_value=1, max_value=6),
    )
    def test_nested_policy_stack_still_respects_stabilizes_at(
        self, t, stable_from, post
    ):
        # A three-deep nest (stability clamp over flapping over a one-way
        # blackout): whatever holds the inner policies impose, the outermost
        # EventuallyStableLinks bound is what EnvBounds promises, so the
        # delivery deadline max(t, stable_from) + post must survive nesting.
        base = OneWayPartition(
            FixedDist(2), edges=((0, 1),), start=50, end=200
        )
        flapping = FlappingLinks(base, pairs=((0, 1),), period=16, down=6)
        model = EventuallyStableLinks(
            flapping,
            post_delay=post,
            stable_at=(((0, 1), stable_from),),
            seed=11,
        )
        delay = model.delay(0, 1, t)
        assert delay >= 1
        assert t + delay <= max(t, stable_from) + post

    def test_late_links_bounds_hold_empirically(self):
        # The registered "late-links" environment declares EnvBounds; the
        # declaration must match what its delay model actually does — EXP-4
        # computes Lemma 3 bounds from exactly these two numbers.
        env = make_env("late-links", seed=13, base_delay=3)
        stable, post = env.bounds.stabilizes_at, env.bounds.post_bound
        for sender in range(N):
            for receiver in range(N):
                if sender == receiver:
                    continue
                for t in range(0, stable + 100, 7):
                    delay = env.delay.delay(sender, receiver, t)
                    assert t + delay <= max(t, stable) + post

    def test_outage_holds_messages_of_listed_pids(self):
        model = NodeOutage(
            FixedDist(2), pids=(1,), windows=((10, 30), (50, 60))
        )
        assert model.delay(0, 1, 15) == (30 - 15) + 2  # to the dark node
        assert model.delay(1, 2, 55) == (60 - 55) + 2  # from the dark node
        assert model.delay(0, 2, 15) == 2  # bystanders unaffected
        assert model.delay(0, 1, 40) == 2  # between windows

    def test_outage_requires_recovery(self):
        with pytest.raises(ConfigurationError):
            NodeOutage(FixedDist(1), pids=(0,), windows=((10, 10),))
        with pytest.raises(ConfigurationError):
            NodeOutage(FixedDist(1), pids=(), windows=((0, 5),))


class TestChurnSchedule:
    def test_waves_render_deterministically(self):
        schedule = ChurnSchedule(waves=((50, 2), (200, 1)), stagger=5)
        first = schedule.pattern(6, seed=4)
        assert first == schedule.pattern(6, seed=4)
        assert len(first.faulty) == 3
        assert sorted(first.crash_times.values()) == [50, 55, 200]

    def test_different_seeds_pick_different_victims(self):
        schedule = ChurnSchedule(waves=((10, 2),))
        patterns = {schedule.pattern(8, seed=s).faulty for s in range(8)}
        assert len(patterns) > 1

    def test_min_survivors_truncates_waves(self):
        schedule = ChurnSchedule(waves=((10, 99),), min_survivors=2)
        pattern = schedule.pattern(5, seed=0)
        assert len(pattern.correct) == 2

    def test_crash_tick_is_inclusive(self):
        # crashed(p, t) at exactly the wave tick: F is right-continuous —
        # the victim takes no step at the crash tick itself.
        pattern = ChurnSchedule(waves=((50, 1),)).pattern(3, seed=0)
        (victim,) = pattern.faulty
        assert not pattern.crashed(victim, 49)
        assert pattern.crashed(victim, 50)
        assert victim in pattern.alive_at(49)
        assert victim not in pattern.alive_at(50)

    def test_stagger_boundary_mid_wave_truncation(self):
        # Budget runs out inside a staggered wave: exactly the first
        # `budget` slots crash, at times at + slot * stagger, and the
        # remaining slots are spared (not squeezed into earlier ticks).
        schedule = ChurnSchedule(waves=((50, 3),), stagger=5, min_survivors=2)
        pattern = schedule.pattern(4, seed=1)
        assert sorted(pattern.crash_times.values()) == [50, 55]
        assert len(pattern.correct) == 2

    def test_truncation_spans_waves_in_time_order(self):
        # Waves render sorted by time even when declared out of order, and
        # the survivor budget is consumed in that sorted order — the later
        # wave is the one truncated.
        schedule = ChurnSchedule(
            waves=((200, 2), (10, 2)), stagger=3, min_survivors=1
        )
        pattern = schedule.pattern(4, seed=2)
        assert sorted(pattern.crash_times.values()) == [10, 13, 200]

    def test_zero_stagger_and_wave_at_time_zero(self):
        # stagger=0 collapses a wave onto one tick; a wave at t=0 is legal
        # and crashes its victims before they ever step.
        pattern = ChurnSchedule(waves=((0, 2),), stagger=0).pattern(5, seed=3)
        assert sorted(pattern.crash_times.values()) == [0, 0]
        assert len(pattern.alive_at(0)) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnSchedule(waves=((10, 0),))
        with pytest.raises(ValueError):
            ChurnSchedule(waves=((10, 1),), min_survivors=0)
        with pytest.raises(ValueError):
            ChurnSchedule(waves=((10, 1),), stagger=-1)


class TestSimulationEnvironmentHook:
    def test_environment_supplies_delay_and_churn(self):
        env = make_env("churn-waves", seed=6)
        sim = Simulation([_Chatter() for _ in range(4)], environment=env, seed=6)
        assert sim.network.delay_model is env.delay
        assert sim.failure_pattern == env.pattern(4, seed=6)
        assert sim.failure_pattern.faulty  # the waves really crashed someone

    def test_explicit_pattern_wins_over_churn(self):
        from repro.sim import FailurePattern

        env = make_env("churn-waves", seed=6)
        pattern = FailurePattern.no_failures(4)
        sim = Simulation(
            [_Chatter() for _ in range(4)],
            environment=env,
            failure_pattern=pattern,
            seed=6,
        )
        assert sim.failure_pattern == pattern

    def test_environment_conflicts_rejected(self):
        env = make_env("baseline")
        with pytest.raises(ConfigurationError):
            Simulation(
                [_Chatter()], environment=env, delay_model=FixedDelay(1)
            )
        with pytest.raises(ConfigurationError):
            Simulation(
                [_Chatter()], environment=env, network=Network(1, FixedDelay(1))
            )
        with pytest.raises(ConfigurationError):
            Simulation([_Chatter()], environment="baseline")

    def test_environment_runs_under_both_engines_identically(self):
        def run(engine):
            sim = Simulation(
                [_Chatter() for _ in range(3)],
                environment=make_env("flaky", seed=2),
                timeout_interval=8,
                seed=2,
                engine=engine,
                record="full",
            )
            sim.run_until(600)
            return sim.run

        assert run("event") == run("naive")
