"""End-to-end conservation properties.

Whatever the paradigm does — rebalance, repartition, scale, split — no
tuple may be lost or duplicated.  These tests run each paradigm under
churn-heavy conditions and check exact accounting: every admitted tuple
is either processed or still queued when the clock stops.
"""

import pytest

from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig


def build(paradigm, omega=8.0, rate=6000, enable_hybrid=False):
    workload = MicroBenchmarkWorkload(
        rate=rate, num_keys=1000, skew=0.9, omega=omega, batch_size=10, seed=13
    )
    topology = workload.build_topology(
        executors_per_operator=4, shards_per_executor=16
    )
    config = SystemConfig(
        paradigm=paradigm, num_nodes=4, cores_per_node=4, source_instances=2,
        enable_hybrid=enable_hybrid, hybrid_interval=5.0,
    )
    return StreamSystem(topology, workload, config)


def processed_tuples(system):
    """Tuples completed at the sink — survives executor churn (RC
    creates and retires executors, taking their counters with them)."""
    return int(system.sink_completions.window_sum(0.0, float("inf")))


def emitted_tuples(system):
    return sum(source.emitted_tuples for source in system.sources)


class TestConservation:
    @pytest.mark.parametrize("paradigm", list(Paradigm))
    def test_no_tuple_lost_or_duplicated(self, paradigm):
        system = build(paradigm)
        system.run(duration=25.0, warmup=5.0)
        emitted = emitted_tuples(system)
        processed = processed_tuples(system)
        assert emitted > 0
        # Processed can trail emitted by at most the in-flight capacity
        # (queues + windows), and can never exceed it.
        assert processed <= emitted
        in_flight = emitted - processed
        assert in_flight < 5000, f"{in_flight} tuples unaccounted for"

    def test_conservation_with_hybrid_splits(self):
        system = build(
            Paradigm.ELASTICUTOR, rate=9000, enable_hybrid=True
        )
        system.run(duration=30.0, warmup=5.0)
        controller = system.hybrid_controllers["calculator"]
        emitted = emitted_tuples(system)
        processed = processed_tuples(system)
        assert processed <= emitted
        assert emitted - processed < 5000

    def test_rc_drains_completely_when_source_stops(self):
        system = build(Paradigm.RC, rate=3000)
        # Sources emit for 10 s (duration param bounds the schedule), then
        # the system runs quiet: everything must drain.
        for i, source in enumerate(system.sources):
            source.start(
                system.workload.schedule(
                    system.env, i, len(system.sources), duration=10.0
                )
            )
        system.env.process(system._sampler())
        system.env.run(until=25.0)
        emitted = emitted_tuples(system)
        processed = processed_tuples(system)
        assert emitted > 0
        assert processed == emitted
        manager = system.rc_managers["calculator"]
        assert manager.in_flight.count == 0

    def test_rc_processed_tuples_counts_retired_executors(self):
        # A single-operator, fault-free run: every processed tuple is a
        # sink completion, including those done by executors that a
        # repartition later retired.
        workload = MicroBenchmarkWorkload(
            rate=6000, num_keys=1000, skew=0.8, omega=8.0, batch_size=20,
            seed=11,
        )
        topology = workload.build_topology(
            executors_per_operator=4, shards_per_executor=16
        )
        config = SystemConfig(
            paradigm=Paradigm.RC, num_nodes=4, cores_per_node=4,
            source_instances=2,
        )
        system = StreamSystem(topology, workload, config)
        result = system.run(duration=20.0, warmup=2.0)
        manager = system.rc_managers["calculator"]
        assert manager.retired_processed_tuples > 0  # executors did retire
        assert result.processed_tuples == processed_tuples(system)

    def test_elasticutor_drains_completely_when_source_stops(self):
        system = build(Paradigm.ELASTICUTOR, rate=3000)
        for i, source in enumerate(system.sources):
            source.start(
                system.workload.schedule(
                    system.env, i, len(system.sources), duration=10.0
                )
            )
        system.env.run(until=25.0)
        assert processed_tuples(system) == emitted_tuples(system)
        total = sum(
            ex.metrics.processed_tuples.total
            for ex in system.executors_by_operator["calculator"]
        )
        assert total == emitted_tuples(system)  # per-executor view agrees
        for executor in system.executors_by_operator["calculator"]:
            assert len(executor.input_queue) == 0
            assert executor.routing.buffered_items() == 0
            for task in executor.tasks.values():
                assert len(task.queue) == 0
