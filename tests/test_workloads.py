"""Unit tests for the workload generators."""

import hashlib
import struct

import pytest

from repro.sim import Environment
from repro.workloads import (
    BurstEvent,
    HotspotBurst,
    KeyShuffler,
    ScheduledBurst,
    MicroBenchmarkWorkload,
    SSEWorkload,
    ZipfKeyDistribution,
)


class TestZipfKeyDistribution:
    def test_probabilities_sum_to_one(self):
        dist = ZipfKeyDistribution(100, skew=0.5, seed=1)
        total = sum(dist.probability(k) for k in range(100))
        assert total == pytest.approx(1.0)

    def test_skew_shapes_distribution(self):
        flat = ZipfKeyDistribution(100, skew=0.0, seed=1)
        skewed = ZipfKeyDistribution(100, skew=1.0, seed=1)
        hottest_flat = flat.probability(flat.hottest_keys(1)[0])
        hottest_skewed = skewed.probability(skewed.hottest_keys(1)[0])
        assert hottest_skewed > 5 * hottest_flat
        assert hottest_flat == pytest.approx(0.01)

    def test_sample_respects_distribution(self):
        dist = ZipfKeyDistribution(10, skew=1.0, seed=3)
        samples = dist.sample(20_000)
        hottest = dist.hottest_keys(1)[0]
        coldest = dist.hottest_keys(10)[-1]
        assert samples.count(hottest) > 3 * samples.count(coldest)

    def test_shuffle_moves_hot_keys(self):
        dist = ZipfKeyDistribution(1000, skew=1.0, seed=5)
        before = dist.hottest_keys(10)
        dist.shuffle()
        after = dist.hottest_keys(10)
        assert before != after
        assert dist.shuffle_count == 1

    def test_shuffle_preserves_shape(self):
        dist = ZipfKeyDistribution(50, skew=0.8, seed=2)
        top_before = dist.probability(dist.hottest_keys(1)[0])
        dist.shuffle()
        top_after = dist.probability(dist.hottest_keys(1)[0])
        assert top_before == pytest.approx(top_after)

    def test_deterministic_given_seed(self):
        a = ZipfKeyDistribution(100, seed=9).sample(50)
        b = ZipfKeyDistribution(100, seed=9).sample(50)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfKeyDistribution(0)
        with pytest.raises(ValueError):
            ZipfKeyDistribution(10, skew=-1)

    def test_probabilities_invariant_across_shuffles(self):
        # Regression: probability() went through list.index (O(n) per
        # lookup); it now reads an inverse rank map maintained by
        # shuffle().  A shuffle permutes which key has which frequency
        # but must leave the multiset of probabilities untouched.
        dist = ZipfKeyDistribution(64, skew=0.7, seed=11)
        before = sorted(dist.probability(k) for k in range(64))
        for _ in range(3):
            dist.shuffle()
            after = sorted(dist.probability(k) for k in range(64))
            assert after == before
        assert sum(before) == pytest.approx(1.0)

    def test_probability_consistent_with_rank_order(self):
        dist = ZipfKeyDistribution(32, skew=0.9, seed=4)
        for _ in range(2):
            dist.shuffle()
            probabilities = [dist.probability(k) for k in dist.hottest_keys(32)]
            assert probabilities == sorted(probabilities, reverse=True)

    def test_probability_rejects_out_of_range_keys(self):
        dist = ZipfKeyDistribution(10, skew=0.5, seed=0)
        with pytest.raises(ValueError):
            dist.probability(-1)
        with pytest.raises(ValueError):
            dist.probability(10)


class TestKeyShuffler:
    def test_applies_omega_shuffles_per_minute(self):
        env = Environment()
        dist = ZipfKeyDistribution(100, seed=1)
        shuffler = KeyShuffler(env, dist, shuffles_per_minute=4.0)
        shuffler.start()
        env.run(until=60.0)
        assert dist.shuffle_count == 4
        assert shuffler.shuffle_times == [15.0, 30.0, 45.0, 60.0]

    def test_omega_zero_never_shuffles(self):
        env = Environment()
        dist = ZipfKeyDistribution(100, seed=1)
        KeyShuffler(env, dist, shuffles_per_minute=0.0).start()
        env.run(until=120.0)
        assert dist.shuffle_count == 0

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            KeyShuffler(env, ZipfKeyDistribution(10), shuffles_per_minute=-1)


class TestMicroBenchmarkWorkload:
    def test_schedule_rate(self):
        env = Environment()
        workload = MicroBenchmarkWorkload(rate=10_000, batch_size=20, seed=1)
        total = 0
        for emit_time, batch in workload.schedule(env, 0, 1, duration=5.0):
            assert batch.created_at == emit_time
            total += batch.count
        assert total == pytest.approx(50_000, rel=0.01)

    def test_rate_split_across_instances(self):
        env = Environment()
        workload = MicroBenchmarkWorkload(rate=10_000, batch_size=20, seed=1)
        totals = []
        for i in range(4):
            totals.append(
                sum(b.count for _, b in workload.schedule(env, i, 4, duration=2.0))
            )
        for total in totals:
            assert total == pytest.approx(5_000, rel=0.02)

    def test_batches_carry_workload_parameters(self):
        env = Environment()
        workload = MicroBenchmarkWorkload(
            rate=1000, cost_per_tuple=2e-3, tuple_bytes=512, batch_size=10, seed=1
        )
        _, batch = next(iter(workload.schedule(env, 0, 1, duration=1.0)))
        assert batch.cpu_cost == 2e-3
        assert batch.size_bytes == 512
        assert batch.count == 10

    def test_topology_defaults(self):
        workload = MicroBenchmarkWorkload()
        topology = workload.build_topology()
        assert topology.sources() == ["generator"]
        assert topology.sinks() == ["calculator"]
        calc = topology.spec("calculator")
        assert calc.num_executors == 32
        assert calc.shards_per_executor == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBenchmarkWorkload(rate=0)
        with pytest.raises(ValueError):
            MicroBenchmarkWorkload(batch_size=0)
        env = Environment()
        with pytest.raises(ValueError):
            next(MicroBenchmarkWorkload().schedule(env, 5, 2))


class TestSSEWorkload:
    def test_schedule_rate(self):
        env = Environment()
        workload = SSEWorkload(rate=5_000, num_stocks=50, batch_size=10, seed=1)
        total = sum(b.count for _, b in workload.schedule(env, 0, 1, duration=5.0))
        assert total == pytest.approx(25_000, rel=0.02)

    def test_popular_stocks_get_more_orders(self):
        env = Environment()
        workload = SSEWorkload(rate=20_000, num_stocks=50, batch_size=10, seed=1)
        counts = {}
        for _, batch in workload.schedule(env, 0, 1, duration=5.0):
            counts[batch.key] = counts.get(batch.key, 0) + batch.count
        # Stock ids are popularity ranks: 0 is hottest.
        assert counts.get(0, 0) > counts.get(49, 0)

    def test_rates_fluctuate_over_time(self):
        workload = SSEWorkload(rate=10_000, num_stocks=20, seed=3)
        rates = [workload.stock_rate(0, tick) for tick in range(0, 3000, 300)]
        assert max(rates) > 1.5 * min(rates)  # bursts + drift

    def test_real_payload_mode_generates_orders(self):
        env = Environment()
        workload = SSEWorkload(rate=1000, num_stocks=10, real_payloads=True, seed=1)
        _, batch = next(iter(workload.schedule(env, 0, 1, duration=1.0)))
        assert batch.payload is not None
        assert len(batch.payload) == batch.count
        assert all(order.stock_id == batch.key for order in batch.payload)

    def test_arrival_series_tracks_generation(self):
        env = Environment()
        workload = SSEWorkload(rate=10_000, num_stocks=20, batch_size=10, seed=1)
        for _ in workload.schedule(env, 0, 1, duration=10.0):
            pass
        series = workload.arrival_series([0, 1], window_ticks=10)
        assert len(series[0]) >= 9
        total_generated = sum(
            int(counts.sum()) for counts in workload.arrival_counts.values()
        )
        assert total_generated == pytest.approx(workload.generated_tuples)
        assert sum(rate for _, rate in series[0]) > 0
        assert sum(rate for _, rate in series[1]) > 0

    def test_topology_structure(self):
        workload = SSEWorkload(num_stocks=100)
        topology = workload.build_topology(executors_per_operator=8)
        assert topology.sources() == ["orders"]
        assert topology.downstream("orders") == ["transactor"]
        assert len(topology.downstream("transactor")) == 11
        assert len(topology.sinks()) == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            SSEWorkload(rate=0)
        with pytest.raises(ValueError):
            SSEWorkload(num_stocks=0)


class TestZipfBoosts:
    def test_boost_raises_key_probability(self):
        dist = ZipfKeyDistribution(100, skew=0.5, seed=4)
        cold = dist.hottest_keys(100)[-1]
        before = dist.probability(cold)
        dist.boost([cold], 50.0)
        assert dist.probability(cold) > 5 * before
        total = sum(dist.probability(k) for k in range(100))
        assert total == pytest.approx(1.0)

    def test_clear_boost_restores_base_distribution(self):
        dist = ZipfKeyDistribution(40, skew=0.8, seed=4)
        base = [dist.probability(k) for k in range(40)]
        dist.boost([3, 7], 10.0)
        dist.clear_boost()
        assert [dist.probability(k) for k in range(40)] == base

    def test_boost_validation(self):
        dist = ZipfKeyDistribution(10, seed=1)
        with pytest.raises(ValueError):
            dist.boost([0], 0.0)
        with pytest.raises(ValueError):
            dist.boost([10], 2.0)

    def test_boosts_survive_shuffle(self):
        """Regression: boosts follow KEYS, not ranks, across a shuffle.

        Before the fix, shuffle() rebuilt only the base cumulative table
        and kept sampling from a stale boosted table, so a mid-burst
        shuffle silently moved the burst onto whichever keys inherited
        the old ranks."""
        dist = ZipfKeyDistribution(200, skew=0.6, seed=11)
        cold = dist.hottest_keys(200)[-1]
        dist.boost([cold], 200.0)
        boosted_before = dist.probability(cold)
        dist.shuffle()
        # The boosted key keeps (approximately) its boosted probability
        # even though its base rank changed.
        assert dist.probability(cold) == pytest.approx(boosted_before, rel=0.5)
        samples = dist.sample(5_000)
        assert samples.count(cold) > 0.05 * len(samples)
        total = sum(dist.probability(k) for k in range(200))
        assert total == pytest.approx(1.0)

    def test_sampling_unaffected_when_no_boosts(self):
        """The no-boost sample path must stay byte-identical."""
        a = ZipfKeyDistribution(100, seed=9)
        b = ZipfKeyDistribution(100, seed=9)
        b.boost([0], 5.0)
        b.clear_boost()
        assert a.sample(200) == b.sample(200)


class TestHotspotBurst:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            BurstEvent(time=-1.0, duration=5.0, factor=2.0)
        with pytest.raises(ValueError):
            BurstEvent(time=0.0, duration=0.0, factor=2.0)
        with pytest.raises(ValueError):
            BurstEvent(time=0.0, duration=5.0, factor=0.0)
        with pytest.raises(ValueError):
            BurstEvent(time=0.0, duration=5.0, factor=2.0, top_n=0)

    def test_burst_fires_and_clears(self):
        env = Environment()
        dist = ZipfKeyDistribution(50, skew=0.7, seed=3)
        base = [dist.probability(k) for k in range(50)]
        burst = HotspotBurst(
            env, dist, [BurstEvent(time=2.0, duration=3.0, factor=20.0)]
        )
        burst.start()
        env.run(until=1.0)
        assert burst.records == []
        env.run(until=4.0)
        assert len(burst.records) == 1
        onset, keys, factor = burst.records[0]
        assert onset == pytest.approx(2.0)
        assert factor == 20.0
        assert dist.probability(keys[0]) > 2 * base[keys[0]]
        env.run(until=6.0)
        assert [dist.probability(k) for k in range(50)] == base

    def test_mid_burst_shuffle_keeps_same_keys_hot(self):
        env = Environment()
        dist = ZipfKeyDistribution(100, skew=0.6, seed=8)
        burst = HotspotBurst(
            env, dist, [BurstEvent(time=1.0, duration=10.0, factor=100.0, top_n=2)]
        )
        burst.start()
        env.run(until=2.0)
        (_, keys, _) = burst.records[0]
        dist.shuffle()
        hot_now = set(dist.hottest_keys(2))
        assert hot_now == set(keys)


class TestWeightsWindow:
    """Bounded retention of per-tick cumulatives."""

    def test_window_validation(self):
        with pytest.raises(ValueError, match="weights_window"):
            SSEWorkload(num_stocks=10, weights_window=1)

    def test_evicted_tick_raises(self):
        workload = SSEWorkload(num_stocks=50, weights_window=2, seed=2)
        workload.stock_cumulative(5)
        assert workload.stock_cumulative(4) is not None
        for query in (
            workload.stock_cumulative,
            workload.stock_weights,
            lambda tick: workload.stock_rate(0, tick),
        ):
            with pytest.raises(ValueError, match="widen the window"):
                query(3)

    def test_slow_instance_keeps_its_tick(self):
        workload = SSEWorkload(
            rate=20_000, num_stocks=50, batch_size=10, weights_window=2, seed=2
        )
        env = Environment()
        slow = workload.schedule(env, 0, 2)
        fast = workload.schedule(env, 1, 2)
        created, _ = next(slow)
        assert created < workload.tick  # parked on tick 0
        while next(fast)[0] < 1.0:
            pass  # the fast instance runs ten ticks ahead
        # Tick 0 is far outside the window but the slow instance still
        # samples from it, so it survives; later ticks are kept as well.
        kept = workload.stock_cumulative(0)
        assert kept[-1] > 0
        assert next(slow)[0] < workload.tick
        slow.close()  # deregisters the slow instance
        workload.stock_cumulative(12)
        with pytest.raises(ValueError, match="widen the window"):
            workload.stock_cumulative(0)
        assert workload.stock_cumulative(11) is not None


class TestScheduledBurst:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduledBurst(start=-1.0, stock=0, magnitude=2.0)
        with pytest.raises(ValueError):
            ScheduledBurst(start=0.0, stock=-1, magnitude=2.0)
        with pytest.raises(ValueError):
            ScheduledBurst(start=0.0, stock=0, magnitude=0.0)
        with pytest.raises(ValueError):
            SSEWorkload(
                num_stocks=10,
                scheduled_bursts=[ScheduledBurst(start=0.0, stock=10, magnitude=2.0)],
            )

    def test_envelope_shape(self):
        workload = SSEWorkload(
            num_stocks=10,
            burst_probability=0.0,
            scheduled_bursts=[
                ScheduledBurst(start=5.0, stock=2, magnitude=8.0, ramp=4.0, hold=6.0)
            ],
        )
        env = workload._scheduled_envelope
        assert env(2, 0.0) == 0.0
        assert env(2, 7.0) == pytest.approx(4.0)  # halfway up the ramp
        assert env(2, 10.0) == pytest.approx(8.0)  # holding
        assert env(2, 15.0) == pytest.approx(8.0)  # end of hold
        assert 0.0 < env(2, 17.0) < 8.0  # decaying
        assert env(2, 500.0) == 0.0  # decayed below the floor, cut off
        assert env(3, 10.0) == 0.0  # other stocks untouched

    def test_scheduled_burst_consumes_no_rng(self):
        """An empty burst list must leave the RNG stream untouched."""
        quiet = SSEWorkload(num_stocks=20, burst_probability=0.0, seed=5)
        scheduled = SSEWorkload(
            num_stocks=20,
            burst_probability=0.0,
            seed=5,
            scheduled_bursts=[
                ScheduledBurst(start=2.0, stock=0, magnitude=4.0)
            ],
        )
        quiet_rates = [quiet.stock_rate(1, t) for t in range(100)]
        burst_rates = [scheduled.stock_rate(1, t) for t in range(100)]
        # Stock 1 is never boosted: identical streams except for the
        # normalization shift while stock 0's burst is active.
        assert quiet_rates[:15] == burst_rates[:15]

    def test_burst_raises_target_stock_rate(self):
        workload = SSEWorkload(
            rate=1000.0,
            num_stocks=10,
            burst_probability=0.0,
            drift_sigma=0.0,
            scheduled_bursts=[
                ScheduledBurst(start=2.0, stock=4, magnitude=9.0, ramp=2.0, hold=20.0)
            ],
        )
        before = workload.stock_rate(4, 10)  # t = 1.0 s, pre-burst
        during = workload.stock_rate(4, 100)  # t = 10.0 s, holding
        assert during > 5 * before


class TestMillionKeyScale:
    """Zipf edge cases at million-key sizes under batched delivery.

    The distribution's tables are flat numpy arrays; these properties
    pin down that boost + shuffle + batch sampling stay correct (not
    just fast) when the key space is 1M+."""

    NUM_KEYS = 1_000_000

    def test_construction_and_batch_sampling(self):
        dist = ZipfKeyDistribution(self.NUM_KEYS, skew=0.8, seed=3)
        keys = dist.sample(50_000)
        assert len(keys) == 50_000
        assert all(0 <= k < self.NUM_KEYS for k in keys)
        # Skewed: the hottest 1% of ranks draws far more than 1% of mass.
        hot = set(dist.hottest_keys(self.NUM_KEYS // 100))
        hits = sum(1 for k in keys if k in hot)
        assert hits > 0.1 * len(keys)

    def test_boost_survives_shuffle_at_scale(self):
        # The hot/cold base-probability spread is ~1000x at 1M keys
        # (skew 0.5), so the boost factor must beat that spread for the
        # key to stay hottest wherever the shuffle re-ranks it.  The
        # *factor* follows the key; the absolute probability legitimately
        # changes with the key's new rank.
        dist = ZipfKeyDistribution(self.NUM_KEYS, skew=0.5, seed=9)
        victim = dist.hottest_keys(1)[0]
        before = dist.probability(victim)
        dist.boost([victim], 1e6)
        assert dist.probability(victim) > 100 * before
        for _ in range(3):
            dist.shuffle()
            # Boosts follow keys, not ranks — still the hottest key,
            # still holding dominant probability mass.
            assert dist.hottest_keys(1)[0] == victim
            assert dist.probability(victim) > 0.25

    def test_boosted_batches_hit_boosted_keys(self):
        dist = ZipfKeyDistribution(self.NUM_KEYS, skew=0.3, seed=4)
        targets = [0, 123_456, 999_999]
        dist.boost(targets, 1e5)
        keys = dist.sample(10_000)
        hits = sum(1 for k in keys if k in set(targets))
        assert hits > 1_000  # boosted mass dominates the draw
        dist.clear_boost()
        keys = dist.sample(10_000)
        hits = sum(1 for k in keys if k in set(targets))
        assert hits < 100

    def test_probabilities_normalized_after_boost_and_shuffle(self):
        dist = ZipfKeyDistribution(self.NUM_KEYS, skew=0.6, seed=2)
        dist.boost([7, 11], 42.0)
        dist.shuffle()
        table = dist._boosted_probabilities
        assert table is not None
        assert float(table.sum()) == pytest.approx(1.0)
        assert float(table.min()) > 0.0

    def test_rng_state_roundtrip_resumes_stream(self):
        dist = ZipfKeyDistribution(self.NUM_KEYS, skew=0.5, seed=17)
        state = dist.rng_state()
        first = dist.sample(1000)
        dist.set_rng_state(state)
        assert dist.sample(1000) == first


def _stream_digests(workload, num_instances=4, duration=3.0):
    """SHA-256 of each source instance's ``(created_at, key)`` stream.

    The instances are drained round-robin, one batch at a time, so they
    stay within a tick of each other the way live sources do and the
    weights window slides underneath them.
    """
    env = Environment()
    streams = [
        workload.schedule(env, i, num_instances, duration=duration)
        for i in range(num_instances)
    ]
    hashes = [hashlib.sha256() for _ in streams]
    live = list(range(num_instances))
    while live:
        for i in list(live):
            item = next(streams[i], None)
            if item is None:
                live.remove(i)
                continue
            created, batch = item
            hashes[i].update(struct.pack("<dq", created, batch.key))
    return [h.hexdigest()[:16] for h in hashes]


class TestSSEStreamIdentity:
    """Pinned per-instance order streams of a 10k-stock market.

    Any change to the per-tick weight or cumulative arithmetic, or to
    the RNG calls behind it, shows up here as a digest mismatch."""

    NUM_STOCKS = 10_000
    BURSTS = (
        ScheduledBurst(start=0.5, stock=3, magnitude=6.0, ramp=0.5, hold=0.5),
        ScheduledBurst(start=0.8, stock=3, magnitude=2.0, ramp=0.0, hold=0.3),
        ScheduledBurst(start=1.0, stock=9_999, magnitude=40.0, ramp=1.0, hold=0.2),
    )

    def _workload(self, **overrides):
        params = dict(
            rate=20_000.0, num_stocks=self.NUM_STOCKS, batch_size=10,
            track_arrivals=False, weights_window=2, seed=11,
        )
        params.update(overrides)
        return SSEWorkload(**params)

    CASES = {
        "random-bursts": (
            {},
            ["6bf59af100a7ddc0", "11e7aabd02de81d0",
             "2a35b7ddb9445bed", "bd8615399c22707d"],
            "0abad3c004b5b105",
        ),
        "scheduled-bursts": (
            {"scheduled_bursts": BURSTS},
            ["507f079796aedb8d", "4791703ef4e0eaf8",
             "825a4c0c3b215253", "ee067ac9e91f148d"],
            "c80060b487a0037e",
        ),
        "no-drift": (
            {"drift_sigma": 0.0, "weights_window": None},
            ["e1b277d075febe37", "ffe3f8c0916e00b8",
             "a7ddf649906b86b7", "766906b454ec018c"],
            "fd3104b42844a286",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_instance_streams(self, case):
        overrides, digests, _ = self.CASES[case]
        assert _stream_digests(self._workload(**overrides)) == digests

    @pytest.mark.parametrize("case", CASES)
    def test_tick_cumulatives(self, case):
        # Bit-for-bit: a sampled stream only moves when a draw lands
        # within an ulp of a boundary, the cumulatives move at once.
        overrides, _, digest = self.CASES[case]
        workload = self._workload(**overrides)
        sha = hashlib.sha256()
        for tick in range(40):
            sha.update(workload.stock_cumulative(tick).tobytes())
        assert sha.hexdigest()[:16] == digest
