"""Synthetic Shanghai-Stock-Exchange workload (paper §5.4).

The paper uses a proprietary trace of limit orders (three months,
~8M records per trading hour, 96-byte orders) whose per-stock arrival
rates fluctuate heavily (Figure 15).  This generator reproduces the
trace's relevant structure:

- stock popularity follows a zipf distribution;
- each stock's rate drifts as a bounded geometric random walk and
  occasionally *bursts* (5-20x for tens of seconds) — giving the spiky
  per-stock rate curves of Figure 15;
- orders are limit orders with bid/ask prices around a per-stock
  reference price, so the real order-book transactor produces plausible
  match rates.

All per-stock state lives in flat numpy arrays and every tick advances
the whole market in a handful of vectorized draws from seeded
``numpy.random.Generator`` streams, so the generator stays usable at
million-stock key spaces.  The per-tick RNG consumption is *fixed shape*
(three full-width vectors) regardless of which stocks burst, which keeps
parameter changes from silently desynchronizing unrelated draws.  Each
tick's weights are built into one fresh array and turned into their
running sum in place; that cumulative is the tick's only record, shared
by every source instance's inverse-CDF sampling.

Topology: orders -> transactor -> 6 statistics + 5 event operators,
keyed by stock id throughout.
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy as np

from repro.logic import (
    CompositeIndexLogic,
    FraudDetectionLogic,
    MovingAverageLogic,
    PriceAlarmLogic,
    TradeStatisticsLogic,
    TransactorLogic,
)
from repro.logic.orderbook import BUY, ORDER_BYTES, SELL, LimitOrder
from repro.sim import Environment
from repro.topology import KeySpace, Topology, TopologyBuilder, TupleBatch

#: Order sizes drawn uniformly (shares per limit order).
_VOLUMES = np.array([100, 200, 300, 500, 1000])


@dataclasses.dataclass(frozen=True)
class ScheduledBurst:
    """A deterministic hotspot burst on one stock (A/B benchmarking).

    Unlike the random bursts drawn per tick, a scheduled burst consumes
    no RNG: its envelope ramps linearly from 0 to ``magnitude`` over
    ``ramp`` seconds starting at ``start``, holds for ``hold`` seconds,
    then decays geometrically (the workload's ``burst_decay``).  Runs
    that differ only in scheduled bursts stay on identical RNG streams.
    """

    start: float
    stock: int
    magnitude: float
    ramp: float = 5.0
    hold: float = 10.0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("burst start must be >= 0")
        if self.stock < 0:
            raise ValueError("burst stock must be >= 0")
        if self.magnitude <= 0:
            raise ValueError("burst magnitude must be positive")
        if self.ramp < 0 or self.hold < 0:
            raise ValueError("burst ramp/hold must be >= 0")


class SSEWorkload:
    """Synthetic order stream plus the market-clearing/analytics topology."""

    #: The six statistics operators and five event operators of Figure 14.
    STATISTICS_OPERATORS = (
        "moving_average", "minute_bars", "vwap", "volume_stats",
        "turnover_stats", "composite_index",
    )
    EVENT_OPERATORS = (
        "price_alarm", "circuit_breaker", "volume_spike", "fraud_detection",
        "momentum",
    )

    def __init__(
        self,
        rate: float = 20_000.0,
        num_stocks: int = 500,
        popularity_skew: float = 0.7,
        order_cost: float = 1e-3,
        analytics_cost: float = 0.05e-3,
        match_ratio: float = 0.7,
        batch_size: int = 10,
        tick: float = 0.1,
        drift_sigma: float = 0.12,
        burst_probability: float = 0.01,
        burst_magnitude: float = 8.0,
        burst_decay: float = 0.92,
        scheduled_bursts: typing.Optional[typing.Sequence[ScheduledBurst]] = None,
        real_payloads: bool = False,
        track_arrivals: bool = True,
        weights_window: typing.Optional[int] = None,
        seed: int = 7,
    ) -> None:
        if rate <= 0 or num_stocks < 1 or batch_size < 1 or tick <= 0:
            raise ValueError("invalid workload parameters")
        self.rate = rate
        self.num_stocks = num_stocks
        self.order_cost = order_cost
        self.analytics_cost = analytics_cost
        self.match_ratio = match_ratio
        self.batch_size = batch_size
        self.tick = tick
        self.drift_sigma = drift_sigma
        self.burst_probability = burst_probability
        self.burst_magnitude = burst_magnitude
        self.burst_decay = burst_decay
        self.scheduled_bursts = list(scheduled_bursts) if scheduled_bursts else []
        for burst in self.scheduled_bursts:
            if burst.stock >= num_stocks:
                raise ValueError(
                    f"scheduled burst targets stock {burst.stock}, but the "
                    f"workload has stocks 0..{num_stocks - 1}"
                )
        self.real_payloads = real_payloads
        #: Record per-tick per-stock arrival counts (Figure 15's data).
        #: Off by default at million-key scale: the counters would
        #: dominate the workload's own memory footprint.
        self.track_arrivals = track_arrivals
        #: Retain only the last N ticks of per-stock cumulatives.
        #: Each one is 8 bytes/stock, so unbounded retention at a
        #: million stocks costs ~8 MB *per tick*; source instances all
        #: read within a tick or two of each other, so a small window
        #: suffices for generation.  None keeps every tick (analysis).
        if weights_window is not None and weights_window < 2:
            raise ValueError("weights_window must be >= 2")
        self.weights_window = weights_window
        self._evicted_ticks = 0
        #: Source-instance progress (instance -> current tick).  Eviction
        #: never passes the slowest registered instance: under
        #: backpressure instances drift apart, and a fast instance must
        #: not advance the shared window past a tick a slow one still
        #: has to sample from.
        self._instance_ticks: typing.Dict[int, int] = {}
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._order_rng = np.random.Generator(np.random.PCG64(seed + 1))
        ranks = np.arange(1, num_stocks + 1, dtype=np.float64)
        weights = ranks ** -popularity_skew
        # Stock 0 is the most popular, 1 next, etc. (ids are ranks).
        self.popularity = weights / weights.sum()
        self._multiplier = np.ones(num_stocks)
        self._burst = np.zeros(num_stocks)
        self._advanced_ticks = 0
        #: tick index -> read-only running sum of that tick's weights
        #: (None once evicted).
        self._tick_cumulative: typing.List[typing.Optional[np.ndarray]] = []
        #: Reused per-tick buffer: uniform draws, then the burst factor.
        self._scratch = np.empty(num_stocks)
        self._scheduled_stocks = sorted(
            {burst.stock for burst in self.scheduled_bursts}
        )
        self._reference_price = 10.0 + 90.0 * self._rng.random(num_stocks)
        self._next_order_id = 0
        self.generated_tuples = 0
        #: Generator-side ingest watermark: newest nominal creation time
        #: drawn by any instance (the stamp the latency probes trace).
        self.last_created = 0.0
        #: tick index -> per-stock tuple counts (drives Figure 15).
        self.arrival_counts: typing.Dict[int, np.ndarray] = {}

    # -- time-varying rates -------------------------------------------------

    def _scheduled_envelope(self, stock: int, time: float) -> float:
        """Deterministic scheduled-burst boost for ``stock`` at ``time``."""
        boost = 0.0
        for burst in self.scheduled_bursts:
            if burst.stock != stock or time < burst.start:
                continue
            plateau_at = burst.start + burst.ramp
            end = plateau_at + burst.hold
            if time < plateau_at:
                boost += burst.magnitude * (time - burst.start) / burst.ramp
            elif time < end:
                boost += burst.magnitude
            else:
                tail = burst.magnitude * self.burst_decay ** (time - end)
                if tail > 0.05:
                    boost += tail
        return boost

    def _advance_to(self, tick_index: int) -> None:
        """Advance the per-stock rate processes up to ``tick_index``.

        One market tick costs three vectorized draws over all stocks
        (drift, burst-onset mask, burst magnitudes) — the RNG stream
        shape never depends on the data, only on the tick count.  The
        tick's weights ``popularity * multiplier * (1 + burst + boost)``
        go into one fresh array, which becomes their cumulative in place.
        """
        rng = self._rng
        n = self.num_stocks
        sigma = self.drift_sigma * math.sqrt(self.tick)
        decay_per_tick = self.burst_decay ** self.tick
        onset_probability = self.burst_probability * self.tick
        multiplier = self._multiplier
        burst = self._burst
        scratch = self._scratch
        while self._advanced_ticks <= tick_index:
            if sigma > 0:
                drift = rng.normal(0.0, sigma, n)
                np.exp(drift, out=drift)
                multiplier *= drift
                np.clip(multiplier, 0.2, 5.0, out=multiplier)
            np.multiply(burst, decay_per_tick, out=burst)
            burst[burst <= 0.05 * decay_per_tick] = 0.0
            onset = np.flatnonzero(rng.random(n, out=scratch) < onset_probability)
            # Every stock's magnitude is drawn; only the onsets are kept.
            rng.random(n, out=scratch)
            burst[onset] = self.burst_magnitude * (0.5 + scratch[onset])
            now = self._advanced_ticks * self.tick
            factor = np.add(burst, 1.0, out=scratch)
            for stock in self._scheduled_stocks:
                factor[stock] += self._scheduled_envelope(stock, now)
            cumulative = np.multiply(self.popularity, multiplier)
            cumulative *= factor
            np.cumsum(cumulative, out=cumulative)
            cumulative.flags.writeable = False
            self._tick_cumulative.append(cumulative)
            self._advanced_ticks += 1
        window = self.weights_window
        if window is not None:
            keep_from = self._advanced_ticks - window
            if self._instance_ticks:
                keep_from = min(keep_from, min(self._instance_ticks.values()))
            drop = keep_from - self._evicted_ticks
            if drop > 0:
                # Free the arrays but keep list indexing tick-aligned.
                for i in range(self._evicted_ticks, self._evicted_ticks + drop):
                    self._tick_cumulative[i] = None
                self._evicted_ticks += drop

    def stock_cumulative(self, tick_index: int) -> np.ndarray:
        """Read-only running sum of the per-stock weights at a tick."""
        self._advance_to(tick_index)
        cumulative = self._tick_cumulative[tick_index]
        if cumulative is None:
            raise ValueError(
                f"tick {tick_index} weights were evicted "
                f"(weights_window={self.weights_window}); widen the window "
                "or query before advancing past it"
            )
        return cumulative

    def stock_weights(self, tick_index: int) -> np.ndarray:
        """Per-stock weights at a tick, recovered from its cumulative."""
        return np.diff(self.stock_cumulative(tick_index), prepend=0.0)

    def stock_rate(self, stock: int, tick_index: int) -> float:
        """Instantaneous arrival rate of one stock (tuples/s)."""
        cumulative = self.stock_cumulative(tick_index)
        total = cumulative[-1]
        if total == 0:
            return 0.0
        below = cumulative[stock - 1] if stock > 0 else 0.0
        return float(self.rate * (cumulative[stock] - below) / total)

    # -- order synthesis ------------------------------------------------------

    def _make_orders(self, stock: int, count: int, time: float) -> typing.List[LimitOrder]:
        rng = self._order_rng
        reference = self._reference_price[stock]
        # Reference price itself random-walks slowly.
        reference = max(1.0, reference * math.exp(rng.normal(0.0, 0.001)))
        self._reference_price[stock] = reference
        # All numeric draws for the batch are vectorized; the python loop
        # only assembles the (immutable) order records.
        buys = rng.random(count) < 0.5
        # Buyers bid slightly below/above reference, sellers mirror it;
        # the overlap yields a realistic partial match rate.
        offsets = rng.normal(0.0, 0.005, count) + np.where(buys, 0.002, -0.002)
        prices = np.round(np.maximum(0.01, reference * (1.0 + offsets)), 2)
        users = rng.integers(0, 10_000, count)
        volumes = _VOLUMES[rng.integers(0, len(_VOLUMES), count)]
        first_id = self._next_order_id + 1
        self._next_order_id += count
        return [
            LimitOrder(
                order_id=first_id + i,
                user_id=int(users[i]),
                stock_id=stock,
                side=BUY if buys[i] else SELL,
                price=float(prices[i]),
                volume=int(volumes[i]),
                time=time,
            )
            for i in range(count)
        ]

    # -- schedule -------------------------------------------------------------

    def schedule(
        self,
        env: Environment,
        instance_index: int,
        num_instances: int,
        duration: typing.Optional[float] = None,
    ) -> typing.Iterator[typing.Tuple[float, TupleBatch]]:
        """(emit_time, order batch) stream for one source instance.

        Lazy at tick granularity: each tick draws the stock ids and
        creation times as whole arrays (inverse-CDF over the tick's
        shared cumulative), then yields the batch objects one by one.
        """
        if not 0 <= instance_index < num_instances:
            raise ValueError("instance_index out of range")
        per_instance_rate = self.rate / num_instances
        tuples_per_tick = per_instance_rate * self.tick
        batch_size = self.batch_size
        carry = 0.0
        tick_index = 0
        rng = np.random.Generator(
            np.random.PCG64(hash((instance_index, 97)) & 0xFFFF)
        )
        try:
            while duration is None or tick_index * self.tick < duration:
                self._instance_ticks[instance_index] = tick_index
                cumulative = self.stock_cumulative(tick_index)
                tick_start = tick_index * self.tick
                wanted = tuples_per_tick + carry
                num_batches = int(wanted / batch_size)
                carry = wanted - num_batches * batch_size
                if num_batches > 0:
                    draws = rng.random(num_batches) * cumulative[-1]
                    stocks = np.minimum(
                        np.searchsorted(cumulative, draws), self.num_stocks - 1
                    )
                    spacing = self.tick / num_batches
                    created_times = (
                        tick_start + spacing * np.arange(num_batches)
                    ).tolist()
                    last = created_times[-1]
                    if last > self.last_created:
                        self.last_created = last
                    if self.track_arrivals:
                        counts = np.bincount(stocks, minlength=self.num_stocks)
                        counts *= batch_size
                        previous = self.arrival_counts.get(tick_index)
                        if previous is None:
                            self.arrival_counts[tick_index] = counts
                        else:
                            previous += counts
                    self.generated_tuples += num_batches * batch_size
                    for created, stock in zip(created_times, stocks.tolist()):
                        payload = (
                            self._make_orders(stock, batch_size, created)
                            if self.real_payloads
                            else None
                        )
                        yield created, TupleBatch(
                            key=stock,
                            count=batch_size,
                            cpu_cost=self.order_cost,
                            size_bytes=ORDER_BYTES,
                            created_at=created,
                            payload=payload,
                        )
                tick_index += 1
        finally:
            self._instance_ticks.pop(instance_index, None)

    def arrival_series(
        self, stocks: typing.Sequence[int], window_ticks: int = 10
    ) -> typing.Dict[int, typing.List[typing.Tuple[float, float]]]:
        """Per-stock (time, rate tuples/s) curves — Figure 15's data."""
        series: typing.Dict[int, typing.List[typing.Tuple[float, float]]] = {
            stock: [] for stock in stocks
        }
        if not self.arrival_counts:
            return series
        max_tick = max(self.arrival_counts)
        for start in range(0, max_tick + 1, window_ticks):
            window = range(start, min(start + window_ticks, max_tick + 1))
            span = len(window) * self.tick
            for stock in stocks:
                total = sum(
                    int(counts[stock])
                    for t in window
                    if (counts := self.arrival_counts.get(t)) is not None
                )
                series[stock].append((start * self.tick, total / span))
        return series

    # -- topology --------------------------------------------------------------

    def build_topology(
        self,
        executors_per_operator: int = 32,
        shards_per_executor: int = 256,
        shard_state_bytes: int = 32 * 1024,
        analytics_executors: typing.Optional[int] = None,
        hot_state_entries: typing.Optional[int] = None,
    ) -> Topology:
        """orders -> transactor -> 6 statistics + 5 event operators."""
        analytics_executors = analytics_executors or max(
            1, executors_per_operator // 4
        )
        key_space = KeySpace(self.num_stocks)
        builder = TopologyBuilder()
        builder.add_source(
            "orders", key_space=key_space, num_executors=executors_per_operator
        )
        builder.add_operator(
            "transactor",
            TransactorLogic(cost_per_order=self.order_cost, match_ratio=self.match_ratio),
            upstream=["orders"],
            key_space=key_space,
            num_executors=executors_per_operator,
            shards_per_executor=shards_per_executor,
            shard_state_bytes=shard_state_bytes,
            hot_state_entries=hot_state_entries,
        )
        reference = self._reference_price
        analytics: typing.Dict[str, typing.Any] = {
            "moving_average": MovingAverageLogic(window=60.0, cost_per_record=self.analytics_cost),
            "minute_bars": MovingAverageLogic(window=300.0, cost_per_record=self.analytics_cost),
            "vwap": TradeStatisticsLogic(cost_per_record=self.analytics_cost),
            "volume_stats": TradeStatisticsLogic(cost_per_record=self.analytics_cost),
            "turnover_stats": TradeStatisticsLogic(cost_per_record=self.analytics_cost),
            "composite_index": CompositeIndexLogic(cost_per_record=self.analytics_cost),
            "price_alarm": PriceAlarmLogic(
                thresholds=reference * 1.05,
                cost_per_record=self.analytics_cost,
            ),
            "circuit_breaker": PriceAlarmLogic(
                thresholds=reference * 1.10,
                cost_per_record=self.analytics_cost,
            ),
            "volume_spike": PriceAlarmLogic(
                thresholds=reference * 1.02,
                cost_per_record=self.analytics_cost,
            ),
            "fraud_detection": FraudDetectionLogic(cost_per_record=self.analytics_cost),
            "momentum": MovingAverageLogic(window=10.0, cost_per_record=self.analytics_cost),
        }
        for name in self.STATISTICS_OPERATORS + self.EVENT_OPERATORS:
            builder.add_operator(
                name,
                analytics[name],
                upstream=["transactor"],
                key_space=key_space,
                num_executors=analytics_executors,
                shards_per_executor=shards_per_executor,
                shard_state_bytes=shard_state_bytes // 4,
                hot_state_entries=hot_state_entries,
            )
        return builder.build()
