"""Spans and counts around the calls into each layer of ``repro``.

The tracer lives entirely in the benchmark: it replaces methods and
functions of the program's classes and modules with timing or counting
wrappers, and puts the originals back on :meth:`Tracer.uninstall`.  It
must be installed *before* the system is built, because the data plane
binds methods once at construction (``NetworkFabric.transfer``, the
``_on_*`` callbacks of the compiled executor pipelines, ``Process._resume``).

Spans are aggregated in memory as they close: per span name, the number
of calls, the inclusive time, and the self time (inclusive time minus the
time covered by directly nested spans).  A layer's self time is the sum of
the self times of its spans.  ``sim.run`` is ``Environment.run``; event
callbacks and process resumptions that belong to another layer get their
own spans, so ``sim.self_s`` holds the event loop's own work.
"""

from __future__ import annotations

import collections
import importlib
import pathlib
import sys
import time
import types
import typing

#: Packages on the run path, in report order.
LAYERS = (
    "runtime", "topology", "workloads", "sim", "executors", "cluster",
    "scheduler", "state", "logic", "metrics", "telemetry", "faults",
    "forecast",
)


class Tracer:
    """Install wrappers, aggregate spans and counts, restore on exit."""

    def __init__(self, delays: typing.Optional[typing.Mapping[str, float]] = None) -> None:
        #: span name -> seconds of busy-wait added inside each call of that
        #: span (the attribution self-test; empty in benchmark runs).
        self.delays = dict(delays or {})
        self.calls: typing.Dict[str, int] = collections.Counter()
        self.incl_ns: typing.Dict[str, int] = collections.Counter()
        self.self_ns: typing.Dict[str, int] = collections.Counter()
        self.counts: typing.Dict[str, int] = collections.Counter()
        #: Stack of child-time accumulators of the open spans.
        self._stack: typing.List[typing.List[int]] = []
        self._restore: typing.List[typing.Tuple[typing.Any, str, typing.Any]] = []
        #: Every SpillableKeyStore built while installed (state counters).
        self.key_stores: typing.List[typing.Any] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn: typing.Callable) -> typing.Callable:
        stack = self._stack
        clock = time.perf_counter_ns
        calls, incl, self_ns = self.calls, self.incl_ns, self.self_ns
        delay_ns = int(self.delays.get(name, 0.0) * 1e9)

        def span(*args, **kwargs):
            start = clock()
            children = [0]
            stack.append(children)
            try:
                return fn(*args, **kwargs)
            finally:
                if delay_ns:
                    until = start + delay_ns
                    while clock() < until:
                        pass
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                incl[name] += elapsed
                self_ns[name] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed

        span.__wrapped__ = fn
        return span

    def _counted(self, name: str, fn: typing.Callable) -> typing.Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _set(self, owner: typing.Any, attr: str, value: typing.Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a module-level function, also where it was imported by name."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = self._timed(name, original)
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and module.__dict__.get(attr) is original
            ):
                self._set(module, attr, wrapped)

    # -- install ------------------------------------------------------------

    def install(self) -> "Tracer":
        from repro.cluster import network
        from repro.executors import balancer, channels, elastic, group
        from repro.logic.base import OperatorLogic
        from repro.metrics.latency import LatencyReservoir
        from repro.runtime.system import StreamSystem
        from repro.scheduler.allocation import GreedyAllocator
        from repro.sim.environment import Environment
        from repro.sim.process import Process
        from repro.sim.stores import Store
        from repro.state.flat import SpillableKeyStore
        from repro.workloads import micro, sse

        timed = self._timed
        patch = self._set

        patch(StreamSystem, "__init__", timed("runtime.construct", StreamSystem.__init__))
        patch(Environment, "run", timed("sim.run", Environment.run))
        for module, attr in (
            ("repro.topology.keys", "shard_lookup"),
            ("repro.topology.keys", "executor_lookup"),
            ("repro.topology.keys", "stable_hash_array"),
        ):
            self._patch_function(module, attr, "topology.lookup")
        for module, attr in (
            ("repro.scheduler.assignment", "greedy_assignment"),
            ("repro.scheduler.assignment", "solve_assignment"),
        ):
            self._patch_function(module, attr, "scheduler.assign")

        for cls in (micro.MicroBenchmarkWorkload, sse.SSEWorkload):
            patch(cls, "__init__", timed("workloads.init", cls.__init__))
            patch(cls, "build_topology", timed("workloads.init", cls.build_topology))
            patch(cls, "schedule", self._schedule_wrapper(cls.schedule))

        for cls in (group.ElasticGroup, group.RCGroup):
            patch(cls, "submit_event", timed("executors.submit", cls.submit_event))
        patch(balancer.ShardBalancer, "plan",
              timed("executors.balancer_plan", balancer.ShardBalancer.plan))
        executor = elastic.ElasticExecutor
        for attr in ("add_core", "remove_core"):
            patch(executor, attr, self._counted("executors.core_moves", getattr(executor, attr)))
        patch(executor, "_rebalance_locked",
              self._counted("executors.rebalance_rounds", executor._rebalance_locked))
        # The compiled pipelines run as event callbacks (``_on_*`` methods,
        # plus the remote-send functor): give them spans so their time is
        # the executors' and not the event loop's.
        for module in (elastic, channels, group):
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == module.__name__:
                    for attr, fn in list(vars(cls).items()):
                        if attr.startswith("_on_") and isinstance(fn, types.FunctionType):
                            patch(cls, attr, timed("executors.callback", fn))
        patch(channels._RemoteSend, "__call__",
              timed("executors.callback", channels._RemoteSend.__call__))

        patch(network.NetworkFabric, "transfer",
              timed("cluster.transfer", network.NetworkFabric.transfer))
        patch(network._GuardedDelivery, "_on_fire",
              timed("cluster.callback", network._GuardedDelivery._on_fire))
        patch(GreedyAllocator, "allocate", timed("scheduler.allocate", GreedyAllocator.allocate))
        patch(LatencyReservoir, "record", timed("metrics.record", LatencyReservoir.record))
        for attr in ("put", "get", "put_nowait"):
            patch(Store, attr, self._counted("sim.store_ops", getattr(Store, attr)))

        for cls in _subclasses(OperatorLogic):
            if "process" in vars(cls):
                patch(cls, "process", timed("logic.process", cls.process))

        stores = self.key_stores
        store_init = SpillableKeyStore.__init__

        def register(store, *args, **kwargs):
            store_init(store, *args, **kwargs)
            stores.append(store)

        patch(SpillableKeyStore, "__init__", register)
        patch(Process, "_resume", self._resume_wrapper(Process._resume))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _schedule_wrapper(self, schedule: typing.Callable) -> typing.Callable:
        tracer = self

        def traced_schedule(workload, *args, **kwargs):
            return _TracedIterator(schedule(workload, *args, **kwargs), tracer)

        traced_schedule.__wrapped__ = schedule
        return traced_schedule

    def _resume_wrapper(self, resume: typing.Callable) -> typing.Callable:
        """Span each process resumption under the layer of its generator."""
        spans: typing.Dict[typing.Any, typing.Callable] = {}

        def traced_resume(process, event):
            code = getattr(process._generator, "gi_code", None)
            span = spans.get(code)
            if span is None:
                span = spans[code] = self._timed(
                    f"{layer_of(code.co_filename if code else '')}.process", resume
                )
            return span(process, event)

        traced_resume.__wrapped__ = resume
        return traced_resume

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> typing.Dict[str, float]:
        """Self seconds per layer, over every span recorded."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + ns / 1e9
        return totals

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def incl_s(self, name: str) -> float:
        return self.incl_ns.get(name, 0) / 1e9

    def table(self) -> str:
        """Human-readable span table, largest self time first."""
        rows = sorted(self.self_ns, key=self.self_ns.get, reverse=True)
        lines = [f"{'span':28s} {'calls':>10s} {'incl_s':>9s} {'self_s':>9s}"]
        for name in rows:
            lines.append(
                f"{name:28s} {self.calls[name]:10d} "
                f"{self.incl_s(name):9.3f} {self.self_s(name):9.3f}"
            )
        for name, count in sorted(self.counts.items()):
            lines.append(f"{name:28s} {count:10d}")
        return "\n".join(lines)


class _TracedIterator:
    """A workload schedule whose every step is a ``workloads.schedule`` span."""

    __slots__ = ("_inner", "_next")

    def __init__(self, inner: typing.Iterator, tracer: Tracer) -> None:
        self._inner = inner
        self._next = tracer._timed("workloads.schedule", inner.__next__)

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> typing.Any:
        return self._next()

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


def _subclasses(cls: type) -> typing.List[type]:
    found: typing.List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return [cls] + found


def layer_of(filename: str) -> str:
    """The ``repro`` package a source file belongs to (``other`` otherwise)."""
    parts = pathlib.PurePath(filename).parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 2 < len(parts) and parts[index + 1] in LAYERS:
            return parts[index + 1]
    return "other"
