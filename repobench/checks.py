"""Output checks for one pass of a workload.

A pass fails when any check fails; the benchmark counts failed passes
against passes attempted.  The checks hold for every paradigm and every
seed, so a failure is a defect in the program, never noise.
"""

from __future__ import annotations

import hashlib
import typing


def admitted_tuples(system: typing.Any) -> int:
    """Tuples the sources admitted into the system."""
    return sum(source.emitted_tuples for source in system.sources)


def in_flight_bound(system: typing.Any, batch_size: int) -> int:
    """Most tuples the system can hold between admission and the sinks.

    Every executor's buffers (input, task and emitter queues plus its send
    window) are bounded in batches; there are at most as many executors as
    worker cores, and each source has one send window in flight.
    """
    executor = system.config.executor
    per_executor = (
        executor.input_queue_capacity + executor.task_queue_capacity
        + executor.emitter_queue_capacity + executor.send_window
    )
    batches = (
        system.config.total_cores * per_executor
        + len(system.sources) * executor.send_window
    )
    return batches * batch_size


def check_pass(
    system: typing.Any, result: typing.Any, fanout: float, sinks: int
) -> typing.List[str]:
    """Every violated output invariant of one finished pass, as text.

    ``fanout`` is the expected number of sink tuples per admitted tuple
    and ``sinks`` the number of sink operators (each may round up by one
    carried tuple per executor).
    """
    failures = []
    workload = system.workload
    admitted = admitted_tuples(system)
    generated = result.generated_tuples
    completed = int(sum(result.sink_completions.values))
    # Schedules draw a whole tick of batches at once; batches drawn but
    # not yet due when the run stops are generated but not admitted.
    draw_ahead = workload.rate * workload.tick + len(system.sources) * workload.batch_size
    if not 0 <= generated - admitted <= draw_ahead:
        failures.append(
            f"generated {generated} != admitted {admitted} "
            f"(allowed draw-ahead {draw_ahead:.0f})"
        )
    carry = sinks * sum(len(ex) for ex in system.executors_by_operator.values())
    if completed > fanout * admitted + carry:
        failures.append(
            f"sink completed {completed} > {fanout} x admitted {admitted}"
        )
    bound = fanout * in_flight_bound(system, workload.batch_size)
    gap = fanout * admitted - completed
    if gap > bound:
        failures.append(f"in-flight gap {gap:.0f} > bound {bound:.0f}")
    for key in ("p50", "p99"):
        value = result.latency[key]
        if not 0.0 < value < float("inf"):
            failures.append(f"latency {key} = {value}")
    return failures


def fingerprint(system: typing.Any, result: typing.Any) -> str:
    """Digest of the simulated outcome; equal runs give equal digests."""
    parts = (
        system.env.events_processed,
        result.generated_tuples,
        admitted_tuples(system),
        tuple(result.sink_completions.values),
        result.latency["p50"],
        result.latency["p99"],
        result.migration_bytes,
        result.stream_bytes,
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]
