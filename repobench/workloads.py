"""The benchmark's three workloads, built through the public ``repro`` API.

Every workload is an open loop in simulated time: sources emit on a fixed
schedule whatever the system does, and ``SystemResult.latency`` counts
from each tuple's nominal arrival, so backlog and stall waits show up in
the latency metrics.  Each is skewed and shifting (see README.md for why
each was chosen and which layers it loads).
"""

from __future__ import annotations

import dataclasses
import random
import typing


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: how to build it and how long a pass lasts."""

    name: str
    #: Simulated seconds per pass; the first quarter is warm-up.
    sim_seconds: float
    #: Wall seconds one pass (set-up plus run) takes on the reference
    #: 2-core machine.  Fixes how many passes fit in ``--seconds``
    #: without reading the clock, so the set of sub-seeds (and with it
    #: every simulated metric) depends only on the arguments.
    pass_wall_s: float
    #: Builds timed per pass for ``setup_s`` (the last one is run).
    setup_repeats: int
    #: Sink tuples expected per admitted tuple, and the number of sink
    #: operators (see ``checks.check_pass``).
    fanout: float
    sinks: int
    build: "Builder"

    def passes(self, seconds: float) -> int:
        """Passes in a run of ``seconds``: at least one plus its repeat."""
        return max(2, round(seconds / self.pass_wall_s))

    def sub_seeds(self, seed: int, count: int) -> typing.List[int]:
        """The workload seeds of one run's passes, derived from ``seed``."""
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randrange(1, 2**31) for _ in range(count)]


#: Input shared by micro-shift and rc-shift: 8,000 t/s against 30 worker
#: cores at 1 ms/tuple.  The key shuffles move the hot keys between
#: executors, so single executors run hot while the cluster keeps up.  At
#: 10,000-12,000 t/s some seeds fall into a growing backlog (p50 above
#: 1 s) and others do not, so the simulated p99 of a run depends more on
#: which seeds it drew than on the program (README.md, "Steadiness").
SHIFT_RATE = 8_000.0


Builder = typing.Callable[[int], typing.Tuple[typing.Any, typing.Any, typing.Any]]


def _shift(paradigm: str) -> Builder:
    def build(seed: int):
        from repro import MicroBenchmarkWorkload, Paradigm, SystemConfig

        workload = MicroBenchmarkWorkload(
            rate=SHIFT_RATE, num_keys=1000, skew=0.8, omega=8.0,
            batch_size=20, seed=seed,
        )
        topology = workload.build_topology(
            executors_per_operator=8, shards_per_executor=16,
        )
        config = SystemConfig(
            paradigm=Paradigm(paradigm), num_nodes=8, cores_per_node=4,
            source_instances=2,
        )
        return workload, topology, config

    return build


def _build_sse(seed: int):
    from repro import Paradigm, SSEWorkload, SystemConfig

    workload = SSEWorkload(
        rate=12_000.0, num_stocks=1_000_000, batch_size=20,
        track_arrivals=False, weights_window=16, seed=seed,
    )
    topology = workload.build_topology(
        executors_per_operator=32, shards_per_executor=32,
        hot_state_entries=1024,
    )
    config = SystemConfig(
        paradigm=Paradigm.ELASTICUTOR, num_nodes=64, cores_per_node=4,
        source_instances=4,
    )
    return workload, topology, config


WORKLOADS: typing.Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="micro-shift",
            sim_seconds=30.0,
            pass_wall_s=0.5,
            setup_repeats=5,
            fanout=1.0,
            sinks=1,
            build=_shift("elasticutor"),
        ),
        WorkloadSpec(
            name="rc-shift",
            sim_seconds=30.0,
            pass_wall_s=0.48,
            setup_repeats=5,
            fanout=1.0,
            sinks=1,
            build=_shift("resource-centric"),
        ),
        WorkloadSpec(
            name="sse-1m",
            sim_seconds=3.0,
            pass_wall_s=2.7,
            setup_repeats=3,
            # 11 analytics sinks behind a transactor emitting 0.7 trades/order.
            fanout=11 * 0.7,
            sinks=11,
            build=_build_sse,
        ),
    )
}
