"""Tests for repro.workload: the histogram's differential oracle, schedule
purity, the streaming observer vs post-hoc recomputation pin, serving
stacks, and the EXP-11 engine-independence pins."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import (
    Campaign,
    aggregate_sweep,
    sweep_rows,
)
from repro.analysis.metrics import LatencyHistogram, nearest_rank_percentile
from repro.replication.client import Reply, Request
from repro.sim.context import Context
from repro.sim.errors import ConfigurationError
from repro.workload import (
    KvServerProcess,
    WorkloadSpec,
    arrival_gap,
    final_arrival,
    latency_from_run,
    op_command,
    population,
    workload_sim,
)

QUANTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


class TestLatencyHistogramDifferential:
    """The histogram against the sorted-list nearest-rank oracle."""

    @settings(max_examples=120)
    @given(st.lists(st.integers(0, 511), min_size=1, max_size=200))
    def test_exact_below_the_linear_limit(self, values):
        # Below 2**precision_bits every bucket is one integer wide: the
        # histogram percentile IS the nearest-rank percentile.
        hist = LatencyHistogram(9)
        for v in values:
            hist.add(v)
        for q in QUANTILES:
            assert hist.percentile(q) == nearest_rank_percentile(values, q)

    @settings(max_examples=120)
    @given(st.lists(st.integers(0, 10**7), min_size=1, max_size=200))
    def test_bucket_floor_of_the_oracle_everywhere(self, values):
        # Bucketization is monotone, so the ranked bucket is exactly the
        # bucket of the ranked value: the histogram returns the oracle's
        # bucket floor, within the documented 2**-(bits-1) relative error.
        hist = LatencyHistogram(9)
        for v in values:
            hist.add(v)
        for q in QUANTILES:
            oracle = nearest_rank_percentile(values, q)
            measured = hist.percentile(q)
            assert measured == hist.bucket_floor(hist.bucket_index(oracle))
            assert measured <= oracle <= measured + (measured >> 8)

    def test_exact_at_bucket_boundaries(self):
        # Powers of two and every mantissa step land on a bucket floor.
        hist = LatencyHistogram(9)
        for v in (512, 1024, 4096, 1 << 20, 3 << 19, (256 + 17) << 4):
            assert hist.bucket_floor(hist.bucket_index(v)) == v

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=120),
        st.integers(0, 119),
    )
    def test_merge_equals_single_histogram(self, values, cut):
        cut = min(cut, len(values))
        left, right = LatencyHistogram(9), LatencyHistogram(9)
        for v in values[:cut]:
            left.add(v)
        for v in values[cut:]:
            right.add(v)
        whole = LatencyHistogram(9)
        for v in values:
            whole.add(v)
        left.merge(right)
        assert left == whole
        assert left.snapshot() == whole.snapshot()

    def test_mean_min_max_are_exact(self):
        hist = LatencyHistogram(9)
        values = [3, 700_001, 12, 99_999]
        for v in values:
            hist.add(v)
        assert hist.mean() == sum(values) / len(values)
        assert hist.min_value == min(values)
        assert hist.max_value == max(values)

    def test_rejects_misuse(self):
        hist = LatencyHistogram(9)
        with pytest.raises(ValueError):
            hist.percentile(50)  # empty
        with pytest.raises(ValueError):
            hist.add(-1)
        with pytest.raises(ValueError):
            hist.merge(LatencyHistogram(7))
        with pytest.raises(ValueError):
            LatencyHistogram(1)


class TestSchedulePurity:
    """Every workload draw is a pure function of (seed, client, k)."""

    def test_draws_are_reproducible_and_seed_sensitive(self):
        spec_a = WorkloadSpec(clients=3, ops_per_client=40, seed=5)
        spec_b = WorkloadSpec(clients=3, ops_per_client=40, seed=6)
        schedule = [
            (arrival_gap(spec_a, c, k), op_command(spec_a, c, k))
            for c in range(3)
            for k in range(40)
        ]
        again = [
            (arrival_gap(spec_a, c, k), op_command(spec_a, c, k))
            for c in range(3)
            for k in range(40)
        ]
        other = [
            (arrival_gap(spec_b, c, k), op_command(spec_b, c, k))
            for c in range(3)
            for k in range(40)
        ]
        assert schedule == again
        assert schedule != other

    @settings(max_examples=40)
    @given(st.integers(0, 2**32), st.integers(0, 63), st.integers(0, 10_000))
    def test_draw_domains(self, seed, client, k):
        spec = WorkloadSpec(clients=64, keys=16, seed=seed)
        assert arrival_gap(spec, client, k) >= 1
        command = op_command(spec, client, k)
        assert command[0] in ("get", "set")
        rank = int(command[1].removeprefix("key-"))
        assert 0 <= rank < spec.keys

    def test_zipf_skews_toward_low_ranks(self):
        spec = WorkloadSpec(clients=4, ops_per_client=500, zipf_s=1.2, seed=0)
        ranks = [
            int(op_command(spec, c, k)[1].removeprefix("key-"))
            for c in range(4)
            for k in range(500)
        ]
        hot = sum(1 for r in ranks if r == 0)
        # Rank 0 carries ~21% of the Zipf(1.2, 64) mass; demand a loose floor.
        assert hot / len(ranks) > 0.10

    def test_final_arrival_matches_explicit_walk(self):
        spec = WorkloadSpec(clients=3, ops_per_client=17, seed=9)
        last = max(
            spec.start
            + sum(arrival_gap(spec, c, k) for k in range(spec.ops_per_client))
            for c in range(spec.clients)
        )
        assert final_arrival(spec) == last

    def test_spec_validation(self):
        for bad in (
            {"clients": 0},
            {"ops_per_client": 0},
            {"mean_gap": 0},
            {"keys": 0},
            {"read_fraction": 1.5},
            {"start": -1},
        ):
            with pytest.raises(ConfigurationError):
                WorkloadSpec(**bad)


class TestKvServer:
    """The direct stack's bounded-memory KV server."""

    def serve(self, server, rid, command, time=0):
        ctx = Context(pid=0, n=2, time=time)
        server.on_message(ctx, 1, Request(rid, command))
        return [payload for __, payload in ctx._outbox]

    def test_serves_and_replies(self):
        server = KvServerProcess()
        assert self.serve(server, 0, ("set", "k", 7)) == [Reply(0, 7)]
        assert self.serve(server, 1, ("get", "k")) == [Reply(1, 7)]
        assert server.executed == 2

    def test_duplicate_retry_answered_from_window_without_reexecution(self):
        server = KvServerProcess()
        self.serve(server, 0, ("cas", "k", None, 1))
        first = self.serve(server, 0, ("cas", "k", None, 1))
        assert server.executed == 1
        assert server.duplicate_retries == 1
        # The cached reply, not a re-execution (a re-run CAS would fail).
        assert first == [Reply(0, True)]

    def test_window_eviction_bounds_memory(self):
        server = KvServerProcess(dedup_window=2)
        for rid in range(4):
            self.serve(server, rid, ("set", "k", rid))
        assert len(server._recent[1]) == 2
        # An evicted rid re-executes (idempotent commands make this safe).
        self.serve(server, 0, ("set", "k", 0))
        assert server.executed == 5
        assert server.duplicate_retries == 0

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            KvServerProcess(dedup_window=0)


def summaries_for(spec, stack, kernel, record):
    sim, observer, horizon = workload_sim(
        spec, stack=stack, kernel=kernel, record=record, retry_after=60
    )
    run = sim.run_until(horizon)
    return observer.summary(), run


class TestObserverDifferential:
    """Streaming observer == post-hoc recomputation == any engine path."""

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(2, 8),
        st.integers(4, 24),
        st.sampled_from(["direct", "etob"]),
        st.integers(0, 10_000),
    )
    def test_streaming_equals_posthoc_across_kernels(
        self, clients, ops, gap, stack, seed
    ):
        spec = WorkloadSpec(
            clients=clients, ops_per_client=ops, mean_gap=gap, seed=seed
        )
        client_pids = range(3, 3 + clients)
        seen = set()
        for kernel in ("packed", "legacy"):
            streamed, run = summaries_for(spec, stack, kernel, "full")
            assert latency_from_run(run, client_pids) == streamed
            metrics_only, __ = summaries_for(spec, stack, kernel, "metrics")
            assert metrics_only == streamed
            seen.add(streamed)
        assert len(seen) == 1  # kernels agree with each other too

    def test_fused_loop_stays_engaged_with_observer(self):
        spec = WorkloadSpec(clients=2, ops_per_client=4)
        sim, observer, __ = workload_sim(
            spec, stack="direct", record="metrics", kernel="packed"
        )
        assert sim._fused_run is not None
        assert observer.wants_idle_steps is False

    def test_observer_summary_counts_one_serving_run(self):
        spec = WorkloadSpec(clients=2, ops_per_client=10, seed=4)
        sim, observer, horizon = workload_sim(spec, stack="direct")
        sim.run_until(horizon)
        summary = observer.summary()
        assert summary.served
        assert summary.submitted == summary.completed == spec.total_ops
        assert summary.gave_up == 0
        row = summary.as_row()
        assert row["served"] is True and row["p99"] >= row["p50"] >= 0
        assert summary.throughput > 0


class TestExp11Pins:
    """EXP-11 numbers are invariant to workers and cell order."""

    def scrubbed(self, outcome):
        import json

        result = outcome.experiment("EXP-11")
        return json.dumps(
            {
                "rows": sweep_rows(result),
                "aggregated": aggregate_sweep("EXP-11", result)[1],
            },
            sort_keys=True,
            default=repr,
        )

    def test_workers_do_not_change_numbers(self):
        serial = Campaign(["EXP-11"], seeds=[0]).run(workers=0)
        pooled = Campaign(["EXP-11"], seeds=[0]).run(workers=2)
        assert serial.ok and pooled.ok
        assert self.scrubbed(serial) == self.scrubbed(pooled)

    def test_all_stacks_serve_every_operation(self):
        outcome = Campaign(["EXP-11"], seeds=[0]).run(workers=0)
        for cell in outcome.experiment("EXP-11").cells:
            assert all(row["served"] for row in cell.value.rows)


class TestPopulationDrivesService:
    def test_population_is_index_ordered_and_validated(self):
        spec = WorkloadSpec(clients=3, ops_per_client=2)
        clients = population(spec, [0, 1, 2])
        assert [c.client_index for c in clients] == [0, 1, 2]
        with pytest.raises(ConfigurationError):
            from repro.workload import OpenLoopClient

            OpenLoopClient(spec, 3, [0, 1, 2])

    def test_unknown_stack_rejected(self):
        with pytest.raises(ConfigurationError):
            workload_sim(WorkloadSpec(), stack="chain-replication")

    def test_open_loop_clients_finish_and_stay_bounded(self):
        spec = WorkloadSpec(clients=2, ops_per_client=30, mean_gap=4, seed=2)
        sim, observer, horizon = workload_sim(spec, stack="direct")
        sim.run_until(horizon)
        for pid in (3, 4):
            client = sim.processes[pid]
            assert client.done and client.submitted == 30
            # Bounded mode: no per-operation state retained.
            assert client.results == {} and client.gave_up == set()
            assert client.completed == 30
