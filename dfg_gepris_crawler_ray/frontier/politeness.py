"""Per-host politeness: budget planning, robots rules, token buckets.

The reference throttles per host via Scrapy autothrottle (target
concurrency 1.0/host, 2–30 s delays, settings.py:119-126), obeys
robots.txt (settings.py:66), and caps work per run via cron budgets
(docker/scheduler_cronfile:9-33). A batch engine splits this into:

1. **Plan time** (deterministic): ``apply_host_budget`` caps the
   frontier per host and assigns the planned fetch order — the crawl-
   order contract (J1 priority, then per-host interleaving). Skew
   containment: a single hot host can never occupy more than its
   budget per run; the remainder stays in the frontier for later runs.
2. **Run time** (actor state): ``PolitenessShard`` actors hold token
   buckets + robots matchers per host shard (hosts hash-routed so one
   host's budget lives on exactly one actor). The extract/fetch stage
   reports per-batch host counts; with a configured ``min_delay_ms``
   the shard computes the wait needed to respect the rate. Test/bench
   mode uses delay 0 (accounting only) — the corpus is local, the
   politeness machinery is exercised without sleeping.
"""

from __future__ import annotations

import time
import urllib.robotparser
from collections import defaultdict

import pandas as pd

import ray

from ..kernels.hashing import crc32_shard
from .seen import shard_cpus


def apply_host_budget(
    frontier: pd.DataFrame,
    max_per_host: int | None = None,
    host_col: str = "host",
) -> pd.DataFrame:
    """Cap the planned frontier per host, preserving priority order.

    ``frontier`` rows must already be in J1 priority order; within each
    host the first ``max_per_host`` survive. Adds ``fetch_seq`` — the
    deterministic planned fetch order (global priority order after the
    cap), the engine's analogue of the reference's crawl order.
    """
    out = frontier.copy().reset_index(drop=True)
    if max_per_host is not None:
        out = out[out.groupby(host_col).cumcount() < max_per_host]
    out = out.reset_index(drop=True)
    out["fetch_seq"] = range(len(out))
    return out


@ray.remote(num_cpus=0.25)
class PolitenessShard:
    """Token buckets + robots cache for one shard of hosts."""

    def __init__(
        self,
        min_delay_ms: float = 0.0,
        robots: dict[str, str] | None = None,
        throttle: "AdaptiveThrottle | None" = None,
    ):
        self.min_delay_s = min_delay_ms / 1000.0
        self.throttle = throttle  # optional autothrottle-adaptive delays
        self.next_free: dict[str, float] = defaultdict(float)
        self.fetch_counts: dict[str, int] = defaultdict(int)
        self.robots: dict[str, urllib.robotparser.RobotFileParser] = {}
        for host, txt in (robots or {}).items():
            rp = urllib.robotparser.RobotFileParser()
            rp.parse(txt.splitlines())
            self.robots[host] = rp

    def _host_delay(self, host: str) -> float:
        if self.throttle is not None:
            return max(self.throttle.delay(host), self.min_delay_s)
        return self.min_delay_s

    def acquire(self, host_counts: dict[str, int]) -> float:
        """Account fetches; returns seconds the caller must wait to
        respect the per-host rate (0 when min_delay is 0 and no
        throttle is configured)."""
        now = time.monotonic()
        wait = 0.0
        for host, n in host_counts.items():
            self.fetch_counts[host] += n
            d = self._host_delay(host)
            if d > 0:
                start = max(self.next_free[host], now)
                self.next_free[host] = start + n * d
                wait = max(wait, start - now)
        return wait

    def observe(self, host_latencies: dict[str, tuple[float, int, bool]]) -> dict[str, float]:
        """Feed observed (mean latency, n responses, all-OK) per host
        into the adaptive throttle; returns the new per-host delays.
        No-op ({}) when the shard runs fixed-rate."""
        if self.throttle is None:
            return {}
        return {
            h: self.throttle.observe(h, lat, n=n, ok=ok)
            for h, (lat, n, ok) in host_latencies.items()
        }

    def allowed(self, host: str, paths: list[str]) -> list[bool]:
        """robots.txt check (ROBOTSTXT_OBEY=True, settings.py:66)."""
        rp = self.robots.get(host)
        if rp is None:
            return [True] * len(paths)
        return [rp.can_fetch("*", p) for p in paths]

    def counts(self) -> dict[str, int]:
        return dict(self.fetch_counts)


class PolitenessGate:
    """Facade used inside extract stages: routes hosts to shards.

    Serialisable into map_batches closures (holds only actor handles).
    """

    def __init__(self, num_shards: int = 4, min_delay_ms: float = 0.0,
                 robots: dict[str, str] | None = None):
        robots = robots or {}
        self.has_robots = bool(robots)
        self.num_shards = num_shards
        shard = PolitenessShard.options(num_cpus=shard_cpus(num_shards))
        self.shards = []
        for s in range(num_shards):
            shard_robots = {
                h: t for h, t in robots.items() if crc32_shard(h, num_shards) == s
            }
            self.shards.append(shard.remote(min_delay_ms=min_delay_ms, robots=shard_robots))

    def account(self, host_counts: dict[str, int]) -> None:
        by_shard: dict[int, dict[str, int]] = defaultdict(dict)
        for host, n in host_counts.items():
            by_shard[crc32_shard(host, self.num_shards)][host] = n
        waits = ray.get(
            [self.shards[s].acquire.remote(counts) for s, counts in by_shard.items()]
        )
        wait = max(waits, default=0.0)
        if wait > 0:
            time.sleep(wait)

    def allowed(self, host: str, paths: list[str]) -> list[bool]:
        shard = self.shards[crc32_shard(host, self.num_shards)]
        return ray.get(shard.allowed.remote(host, paths))

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for c in ray.get([s.counts.remote() for s in self.shards]):
            for h, n in c.items():
                total[h] += n
        return dict(total)


class AdaptiveThrottle:
    """Scrapy-AutoThrottle-faithful adaptive per-host delay (the
    reference's run-time throttle: start 2 s, max 30 s, target
    concurrency 1.0/host — settings.py:119-126; algorithm from
    scrapy/extensions/throttle.py):

    per response: ``target = latency / target_concurrency``;
    ``delay ← (delay + target) / 2``, never decreased by a non-OK
    response, clamped to [min_delay, max_delay].

    Batch engines observe n responses of one host at once; applying
    the per-response recurrence n times with the batch's mean latency
    has the closed form ``target + (delay - target) * 0.5**n``, so a
    million-response batch costs the same as one — no loop, no drift
    from the reference's semantics.

    Pure host-local state — lives inside ``PolitenessShard`` next to
    the token buckets (a host's throttle state exists on exactly one
    actor), or standalone in tests.
    """

    def __init__(
        self,
        start_delay: float = 2.0,
        max_delay: float = 30.0,
        min_delay: float = 0.0,
        target_concurrency: float = 1.0,
    ):
        self.start_delay = start_delay
        self.max_delay = max_delay
        self.min_delay = min_delay
        self.target_concurrency = target_concurrency
        self._delay: dict[str, float] = {}

    def delay(self, host: str) -> float:
        return self._delay.get(host, self.start_delay)

    def observe(self, host: str, latency: float, n: int = 1, ok: bool = True) -> float:
        """Fold ``n`` responses of mean ``latency`` into the host's
        delay; returns the new delay."""
        cur = self.delay(host)
        target = latency / self.target_concurrency
        new = target + (cur - target) * 0.5**n
        if not ok and new < cur:
            new = cur  # non-OK responses never speed a host up
        new = min(max(new, self.min_delay), self.max_delay)
        self._delay[host] = new
        return new
