"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 repobench/run.py --workload micro-shift --seed 1 --seconds 30 --trace 0

One run is one fresh process on one thread.  It makes a fixed number of
passes (``--seconds`` divided by the workload's nominal pass time); each
pass builds the workload, topology and ``StreamSystem`` from a sub-seed
derived from ``--seed`` and runs it for the workload's simulated duration.
The last pass repeats the first sub-seed, and its simulated fingerprint
must match.  Wall-clock metrics are medians over passes; the simulated
metrics pool the post-warm-up samples of the distinct passes.

``--trace 1`` instead runs the first sub-seed twice, untraced and then
under the tracer, checks that both give the same simulated fingerprint,
and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-pass details
and the span table go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import pathlib
import resource
import statistics
import sys
import time
import typing

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "sim_throughput_tps": "tuples/s",
    "sim_latency_p50_s": "s",
    "sim_latency_p99_s": "s",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  The reassignment and
#: waiting times are simulated seconds; every other time is wall time.
PER_LAYER = {
    "runtime.construct_s": "s",
    "runtime.admitted_tuples": "count",
    "runtime.sink_completions": "count",
    "runtime.processed_tuples": "count",
    "runtime.processed_over_admitted": "ratio",
    "topology.lookup_s": "s",
    "workloads.init_s": "s",
    "workloads.schedule_s": "s",
    "workloads.ticks": "count",
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.store_ops": "count",
    "sim.events_per_tuple": "ratio",
    "executors.self_s": "s",
    "executors.submit_calls": "count",
    "executors.submit_s": "s",
    "executors.balancer_plan_s": "s",
    "executors.rebalance_rounds": "count",
    "executors.core_moves": "count",
    "executors.shard_moves": "count",
    "executors.reassign_sync_s": "s",
    "executors.reassign_migration_s": "s",
    "executors.rc_repartitions": "count",
    "executors.admission_wait_s": "s",
    "executors.queue_wait_s": "s",
    "cluster.self_s": "s",
    "cluster.transfers": "count",
    "cluster.transfer_s": "s",
    "cluster.stream_mb": "MB",
    "cluster.remote_task_mb": "MB",
    "cluster.delivery_wait_s": "s",
    "state.migration_mb": "MB",
    "state.spills": "count",
    "state.fetches": "count",
    "scheduler.self_s": "s",
    "scheduler.rounds": "count",
    "scheduler.allocate_s": "s",
    "scheduler.assign_s": "s",
    "scheduler.reassignments": "count",
    "logic.process_calls": "count",
    "logic.process_s": "s",
    "logic.service_s": "s",
    "metrics.latency_records": "count",
    "metrics.record_s": "s",
    "metrics.latency_samples": "count",
    "share.workloads": "ratio",
    "share.sim": "ratio",
    "share.executors": "ratio",
    "share.cluster": "ratio",
    "share.logic": "ratio",
    "share.metrics": "ratio",
    "trace.untraced_run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Every Nth source batch carries a latency-breakdown trace in the traced
#: pass (the waiting metrics); stamping traces schedules no events.
TRACE_EVERY = 10


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"repobench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if pathlib.Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        print(f"repobench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


@dataclasses.dataclass
class PassOutcome:
    """What one pass leaves behind once its system is freed."""

    sub_seed: int
    setup_s: typing.List[float]
    run_s: float
    fingerprint: str
    failures: typing.List[str]
    completed: float
    window_s: float
    #: Retained latency samples and the observations each stands for.
    samples: typing.List[float]
    weight: float
    layers: typing.Dict[str, float] = dataclasses.field(default_factory=dict)


def run_pass(spec: typing.Any, sub_seed: int, tracer: typing.Any = None,
             sim_seconds: typing.Optional[float] = None) -> PassOutcome:
    """Build and run one pass; with ``tracer``, trace it and read the layers."""
    from repro import StreamSystem

    from checks import check_pass, fingerprint

    duration = sim_seconds or spec.sim_seconds
    setups = []
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        # Set-up is milliseconds on the small workloads: time several
        # builds (discarding all but the last) so its median is steady.
        for _ in range(spec.setup_repeats if tracer is None else 1):
            system = None
            started = time.perf_counter()
            workload, topology, config = spec.build(sub_seed)
            if tracer is not None:
                config.trace_every = TRACE_EVERY
            system = StreamSystem(topology, workload, config)
            built = time.perf_counter()
            setups.append(built - started)
        result = system.run(duration=duration, warmup=duration / 4)
        finished = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    reservoir = system.sink_latency
    # The reservoir exposes percentiles, not its samples; pooling passes
    # needs the samples, each standing for count/len observations.
    samples = list(reservoir._samples)
    outcome = PassOutcome(
        sub_seed=sub_seed,
        setup_s=setups,
        run_s=finished - built,
        fingerprint=fingerprint(system, result),
        failures=check_pass(system, result, spec.fanout, spec.sinks),
        completed=sum(
            value for at, value in zip(result.sink_completions.times,
                                       result.sink_completions.values)
            if at > result.warmup
        ),
        window_s=result.measure_window,
        samples=samples,
        weight=reservoir.count / max(1, len(samples)),
    )
    if tracer is not None:
        outcome.layers = layer_metrics(tracer, system, result, len(samples))
    return outcome


def layer_metrics(tracer: typing.Any, system: typing.Any, result: typing.Any,
                  latency_samples: int) -> typing.Dict[str, float]:
    """The per-layer metrics of one traced pass (spans, counts, results)."""
    from checks import admitted_tuples

    admitted = admitted_tuples(system)
    completed = float(sum(result.sink_completions.values))
    events = system.env.events_processed
    self_s = tracer.layer_self_s()
    total_self = sum(self_s.values()) or 1.0
    records = result.reassignment_stats.records
    waits = result.trace_breakdown()
    report = system.scheduler.report if system.scheduler else None
    metrics = {
        "runtime.construct_s": tracer.incl_s("runtime.construct"),
        "runtime.admitted_tuples": admitted,
        "runtime.sink_completions": completed,
        "runtime.processed_tuples": result.processed_tuples,
        "runtime.processed_over_admitted": result.processed_tuples / max(1, admitted),
        "topology.lookup_s": tracer.incl_s("topology.lookup"),
        "workloads.init_s": tracer.incl_s("workloads.init"),
        "workloads.schedule_s": tracer.incl_s("workloads.schedule"),
        "workloads.ticks": tracer.calls["workloads.schedule"],
        "sim.events": events,
        "sim.self_s": self_s["sim"],
        "sim.store_ops": tracer.counts["sim.store_ops"],
        "sim.events_per_tuple": events / max(1, admitted),
        "executors.self_s": self_s["executors"],
        "executors.submit_calls": tracer.calls["executors.submit"],
        "executors.submit_s": tracer.incl_s("executors.submit"),
        "executors.balancer_plan_s": tracer.incl_s("executors.balancer_plan"),
        "executors.rebalance_rounds": tracer.counts["executors.rebalance_rounds"],
        "executors.core_moves": tracer.counts["executors.core_moves"],
        "executors.shard_moves": len(records),
        "executors.reassign_sync_s": sum(r.sync_seconds for r in records),
        "executors.reassign_migration_s": sum(r.migration_seconds for r in records),
        "executors.rc_repartitions": sum(
            manager.repartition_count for manager in system.rc_managers.values()
        ),
        "executors.admission_wait_s": waits["source_wait"],
        "executors.queue_wait_s": waits["queue"],
        "cluster.self_s": self_s["cluster"],
        "cluster.transfers": tracer.calls["cluster.transfer"],
        "cluster.transfer_s": tracer.incl_s("cluster.transfer"),
        "cluster.stream_mb": result.stream_bytes / 1e6,
        "cluster.remote_task_mb": result.remote_task_bytes / 1e6,
        "cluster.delivery_wait_s": waits["delivery"],
        "state.migration_mb": result.migration_bytes / 1e6,
        "state.spills": sum(store.spill_count for store in tracer.key_stores),
        "state.fetches": sum(store.fetch_count for store in tracer.key_stores),
        "scheduler.self_s": self_s["scheduler"],
        "scheduler.rounds": result.scheduler_rounds,
        "scheduler.allocate_s": tracer.incl_s("scheduler.allocate"),
        "scheduler.assign_s": tracer.incl_s("scheduler.assign"),
        "scheduler.reassignments": report.total_reassignments if report else 0,
        "logic.process_calls": tracer.calls["logic.process"],
        "logic.process_s": tracer.incl_s("logic.process"),
        "logic.service_s": waits["service"],
        "metrics.latency_records": tracer.calls["metrics.record"],
        "metrics.record_s": tracer.incl_s("metrics.record"),
        "metrics.latency_samples": latency_samples,
    }
    for layer in ("workloads", "sim", "executors", "cluster", "logic", "metrics"):
        metrics[f"share.{layer}"] = self_s[layer] / total_self
    return metrics


def weighted_percentile(outcomes: typing.Sequence[PassOutcome], q: float) -> float:
    """The ``q``-quantile (0..1) of the pooled, count-weighted samples."""
    values = np.concatenate([outcome.samples for outcome in outcomes])
    weights = np.concatenate(
        [np.full(len(outcome.samples), outcome.weight) for outcome in outcomes]
    )
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    index = np.searchsorted(cumulative, q * cumulative[-1])
    return float(values[order][min(index, len(values) - 1)])


def run_benchmark(
    workload: str, seed: int, seconds: float, trace: bool,
    sim_seconds: typing.Optional[float] = None,
) -> typing.Dict[str, typing.Any]:
    """One benchmark run in this process; returns the result object."""
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    if trace:
        return _run_traced(spec, seed, sim_seconds)
    passes = spec.passes(seconds)
    sub_seeds = spec.sub_seeds(seed, passes - 1)
    outcomes = [run_pass(spec, s, sim_seconds=sim_seconds) for s in sub_seeds]
    repeat = run_pass(spec, sub_seeds[0], sim_seconds=sim_seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if repeat.fingerprint != outcomes[0].fingerprint:
        repeat.failures.append(
            f"same-seed repeat fingerprint {repeat.fingerprint} "
            f"!= {outcomes[0].fingerprint}"
        )
    timed = outcomes + [repeat]
    failed = _report(timed)
    p99 = weighted_percentile(outcomes, 0.99)
    _log(f"{workload}: {len(outcomes)} distinct passes + 1 repeat, "
         f"{sum(len(o.samples) for o in outcomes)} pooled latency samples, "
         f"{sum(v > p99 for o in outcomes for v in o.samples)} beyond p99")
    metrics = {
        "setup_s": statistics.median(s for o in timed for s in o.setup_s),
        "run_s": statistics.median(o.run_s for o in timed),
        "peak_rss_mb": peak_rss_mb,
        "sim_throughput_tps": (
            sum(o.completed for o in outcomes) / sum(o.window_s for o in outcomes)
        ),
        "sim_latency_p50_s": weighted_percentile(outcomes, 0.50),
        "sim_latency_p99_s": p99,
    }
    return _result(len(timed), failed, metrics, END_TO_END)


def _run_traced(spec: typing.Any, seed: int,
                sim_seconds: typing.Optional[float]) -> typing.Dict[str, typing.Any]:
    from tracer import Tracer

    sub_seed = spec.sub_seeds(seed, 1)[0]
    untraced = run_pass(spec, sub_seed, sim_seconds=sim_seconds)
    tracer = Tracer()
    traced = run_pass(spec, sub_seed, tracer=tracer, sim_seconds=sim_seconds)
    if traced.fingerprint != untraced.fingerprint:
        traced.failures.append(
            f"traced fingerprint {traced.fingerprint} != untraced {untraced.fingerprint}"
        )
    failed = _report([untraced, traced])
    _log(tracer.table())
    metrics = dict(traced.layers)
    metrics["trace.untraced_run_s"] = untraced.run_s
    metrics["trace.traced_run_s"] = traced.run_s
    metrics["trace.overhead_ratio"] = traced.run_s / untraced.run_s
    return _result(2, failed, metrics, PER_LAYER)


def _report(outcomes: typing.Sequence[PassOutcome]) -> int:
    failed = 0
    for outcome in outcomes:
        status = "ok" if not outcome.failures else "FAIL " + "; ".join(outcome.failures)
        failed += bool(outcome.failures)
        _log(f"  sub-seed {outcome.sub_seed:>10d}  "
             f"setup {statistics.median(outcome.setup_s):7.4f} s  "
             f"run {outcome.run_s:7.3f} s  fingerprint {outcome.fingerprint}  {status}")
    return failed


def _result(attempted: int, failed: int, values: typing.Mapping[str, float],
            units: typing.Mapping[str, str]) -> typing.Dict[str, typing.Any]:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_repro()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
