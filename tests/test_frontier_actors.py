"""Tests for the sharded seen-filter and politeness actor pools."""

import numpy as np
import pandas as pd

from dfg_gepris_crawler_ray.frontier.politeness import PolitenessGate, apply_host_budget
from dfg_gepris_crawler_ray.frontier.seen import SeenFilter
from test_runs_ds import SF  # the sf0.001 corpus the run tests share


def test_seen_filter_exact(ray_session):
    f = SeenFilter(num_shards=4, mode="exact")
    keys = [f"projekt/{i}" for i in range(100)]
    new = f.add(keys)
    assert new.all()
    again = f.add(keys + ["person/1"])
    assert (~again[:100]).all() and again[100]
    assert f.contains(["projekt/5", "person/1", "person/2"]).tolist() == [True, True, False]


def test_seen_filter_in_batch_duplicates(ray_session):
    """Only the first occurrence of a key within one batch is novel
    (regression: pre-insert membership made every in-batch copy new)."""
    f = SeenFilter(num_shards=2, mode="exact")
    new = f.add(["a/1", "a/1", "b/2", "a/1", "b/2"])
    assert new.tolist() == [True, False, True, False, False]
    g = SeenFilter(num_shards=2, mode="bloom", bloom_bits=1 << 16)
    new = g.add(["a/1", "a/1", "b/2", "a/1", "b/2"])
    assert new.tolist() == [True, False, True, False, False]


def _entities_per_context() -> dict:
    """Distinct entities per context of the sf0.001 corpus, by context."""
    import duckdb

    return dict(duckdb.sql(
        "SELECT CASE doc_id % 3 WHEN 0 THEN 'projekt' WHEN 1 THEN 'person' "
        "ELSE 'institution' END AS context, count(*) AS unique_entities "
        f"FROM read_parquet('{SF}/documents.parquet') "
        "GROUP BY 1 ORDER BY 1"
    ).fetchall())


def test_unique_entities_by_context(ray_session):
    from dfg_gepris_crawler_ray.frontier.seen import unique_entities_by_context
    from dfg_gepris_crawler_ray.testdata.gen_pages import ensure_pages

    got = (
        unique_entities_by_context(ensure_pages("/root/testdata/sf0.001"), num_shards=4)
        .to_pandas()
        .sort_values("context")
        .reset_index(drop=True)
    )
    want = _entities_per_context()
    assert got["context"].tolist() == list(want)
    assert got["unique_entities"].tolist() == list(want.values())


def test_seen_filter_dedup_finishes_at_one_cpu(ray_session, tmp_path):
    """Eight seen shards on a one-CPU Ray leave the CPU to the Dataset
    tasks that call them (at 0.25 CPU each they asked for 2 CPUs, and
    the dedup never finished). The test session runs Ray at 4 CPUs, so
    this starts its own one-CPU Ray in a subprocess, under a timeout.
    The subprocess writes its answer to a file: the raylet prints its
    worker-start warnings to stdout, after the answer or before it."""
    import json
    import os
    import subprocess
    import sys
    import textwrap

    from dfg_gepris_crawler_ray.testdata.gen_pages import ensure_pages

    pages = ensure_pages(SF)
    result = str(tmp_path / "result.json")
    code = textwrap.dedent(
        f"""
        import json, sys
        sys.path.insert(0, {os.path.dirname(os.path.dirname(os.path.abspath(__file__)))!r})
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
        from dfg_gepris_crawler_ray.frontier.seen import unique_entities_by_context
        rows = unique_entities_by_context({pages!r}, num_shards=8).take_all()
        with open({result!r}, "w") as f:
            json.dump({{r["context"]: r["unique_entities"] for r in rows}}, f)
        ray.shutdown()
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr[-2000:]
    with open(result) as f:
        got = json.load(f)
    assert got == _entities_per_context()


def test_seen_filter_bloom_no_false_negatives(ray_session):
    f = SeenFilter(num_shards=2, mode="bloom", bloom_bits=1 << 16)
    keys = [f"k/{i}" for i in range(500)]
    f.add(keys)
    assert f.contains(keys).all()  # Bloom: no false negatives
    fresh = [f"other/{i}" for i in range(500)]
    fp_rate = f.contains(fresh).mean()
    assert fp_rate < 0.05  # 65k bits / 250 keys per shard → tiny fp rate


def test_seen_filter_bloom_fp_rate_at_design_load(ray_session):
    """At the designed ~10 bits/key load (the 10^10-key sizing in
    frontier/seen.py) the measured false-positive rate stays near the
    theoretical ~1% for k=3."""
    n_keys = 200_000
    f = SeenFilter(num_shards=4, mode="bloom", bloom_bits=1 << 19)  # ≈10.5 bits/key
    keys = [f"k/{i}" for i in range(n_keys)]
    for start in range(0, n_keys, 50_000):
        f.add(keys[start : start + 50_000])
    assert f.contains(keys[:50_000]).all()  # never false-negative
    fresh = [f"x/{i}" for i in range(50_000)]
    fp_rate = f.contains(fresh).mean()
    assert fp_rate < 0.03, fp_rate


def test_politeness_accounting_and_robots(ray_session):
    gate = PolitenessGate(
        num_shards=2,
        min_delay_ms=0.0,
        robots={"h1": "User-agent: *\nDisallow: /private/\n"},
    )
    gate.account({"h1": 3, "h2": 5})
    gate.account({"h1": 2})
    counts = gate.counts()
    assert counts == {"h1": 5, "h2": 5}
    assert gate.allowed("h1", ["/ok", "/private/x"]) == [True, False]
    assert gate.allowed("unknown-host", ["/anything"]) == [True]


def test_politeness_token_bucket_rate(ray_session):
    """With a positive min_delay the bucket makes callers wait: the
    second batch for the same host must queue behind the first."""
    import ray

    from dfg_gepris_crawler_ray.frontier.politeness import PolitenessShard

    shard = PolitenessShard.remote(min_delay_ms=50.0)
    w1 = ray.get(shard.acquire.remote({"h1": 3}))
    w2 = ray.get(shard.acquire.remote({"h1": 2}))
    assert w1 == 0.0
    assert w2 > 0.0  # 3 * 50ms already reserved for h1
    # a different host is unaffected
    assert ray.get(shard.acquire.remote({"h2": 1})) == 0.0


def test_pipeline_accounts_fetches_through_gate(ray_session):
    """The extract stage reports every fetched page to the politeness
    gate (ST5 run-time half): gate totals equal the corpus page count
    for entities that produced items."""
    from dfg_gepris_crawler_ray.pipelines.details import run_details_extraction
    from dfg_gepris_crawler_ray.testdata.gen_pages import ensure_pages

    gate = PolitenessGate(num_shards=2, min_delay_ms=0.0)
    items = run_details_extraction(
        ensure_pages("/root/testdata/sf0.001"), num_buckets=8, politeness=gate
    ).to_pandas()
    counts = gate.counts()
    assert sum(counts.values()) == int(items["pages_fetched"].sum())
    assert "gepris.example.org" in counts  # the 70%-hot host


def test_robots_blocked_entities_skipped(ray_session):
    """ROBOTSTXT_OBEY (settings.py:66): entities whose detail path a
    host's robots.txt disallows yield robots_blocked error rows and
    fetch nothing."""
    from dfg_gepris_crawler_ray.pipelines.details import run_details_extraction
    from dfg_gepris_crawler_ray.testdata.gen_pages import ensure_pages

    gate = PolitenessGate(
        num_shards=2,
        robots={"gepris.example.org": "User-agent: *\nDisallow: /gepris/person/\n"},
    )
    items = run_details_extraction(
        ensure_pages("/root/testdata/sf0.001"), num_buckets=8, politeness=gate
    ).to_pandas()
    blocked = items[items["error_kind"] == "robots_blocked"]
    assert len(blocked) > 0
    assert (blocked["context"] == "person").all()
    assert (blocked["host"] == "gepris.example.org").all()
    assert (blocked["pages_fetched"] == 0).all()
    # persons on other hosts are still crawled
    other = items[(items["context"] == "person") & (items["host"] != "gepris.example.org")]
    assert (other["status"] != "error").any()


def test_apply_host_budget_preserves_priority():
    frontier = pd.DataFrame(
        {"context": "p", "id": range(10),
         "host": ["a", "a", "b", "a", "b", "a", "b", "b", "a", "b"]}
    )
    out = apply_host_budget(frontier, max_per_host=2)
    assert list(out["id"]) == [0, 1, 2, 4]  # first 2 per host, priority order kept
    assert list(out["fetch_seq"]) == [0, 1, 2, 3]


def test_seen_filter_cuckoo_membership_and_fp(ray_session):
    """Cuckoo mode: no false negatives, FP rate far below Bloom's at
    comparable memory (16-bit fingerprints, 4-slot buckets)."""
    f = SeenFilter(num_shards=2, mode="cuckoo", cuckoo_buckets=1 << 12)
    keys = [f"k/{i}" for i in range(5000)]
    novel = f.add(keys)
    assert novel.all()
    assert f.contains(keys).all()  # no false negatives
    again = f.add(keys)
    assert not again.any()  # all already seen
    fresh = [f"other/{i}" for i in range(20000)]
    fp_rate = f.contains(fresh).mean()
    assert fp_rate < 0.005, fp_rate  # ~2*4/2^16 ≈ 0.012% theoretical


def test_seen_filter_cuckoo_delete(ray_session):
    """Deletion — the capability Bloom lacks: retired keys drop out of
    the filter while the rest stay."""
    f = SeenFilter(num_shards=2, mode="cuckoo", cuckoo_buckets=1 << 12)
    keys = [f"k/{i}" for i in range(2000)]
    f.add(keys)
    retired, kept = keys[:1000], keys[1000:]
    removed = f.delete(retired)
    assert removed.all()
    assert f.contains(kept).all()  # survivors unaffected
    # retired keys are gone modulo fingerprint twins (rate ≈ FP rate)
    assert f.contains(retired).mean() < 0.01
    # re-adding a retired key reports it as novel again
    assert f.add(retired[:100]).all()


def test_seen_filter_cuckoo_high_load(ray_session):
    """The eviction chain packs buckets to high occupancy without
    false negatives (design load ~84% here)."""
    f = SeenFilter(num_shards=1, mode="cuckoo", cuckoo_buckets=1 << 10)
    n = int((1 << 10) * 4 * 0.84)
    keys = [f"k/{i}" for i in range(n)]
    f.add(keys)
    assert f.contains(keys).all()


def test_unique_entities_cuckoo_matches_exact(ray_session):
    from dfg_gepris_crawler_ray.frontier.seen import unique_entities_by_context
    from dfg_gepris_crawler_ray.testdata.gen_pages import ensure_pages

    pages = ensure_pages("/root/testdata/sf0.001")
    a = unique_entities_by_context(pages, num_shards=4, mode="exact").to_pandas()
    b = unique_entities_by_context(pages, num_shards=4, mode="cuckoo").to_pandas()
    key = lambda df: sorted(map(tuple, df.astype(str).to_numpy().tolist()))
    assert key(a) == key(b)


def test_adaptive_throttle_matches_scrapy_recurrence():
    """Closed-form batch update equals applying Scrapy's per-response
    recurrence n times; non-OK never decreases; clamps hold."""
    from dfg_gepris_crawler_ray.frontier.politeness import AdaptiveThrottle

    t = AdaptiveThrottle(start_delay=2.0, max_delay=30.0, target_concurrency=1.0)
    # reference recurrence, one response at a time
    d = 2.0
    lat = 0.4
    for _ in range(5):
        d = (d + lat / 1.0) / 2.0
    got = AdaptiveThrottle(start_delay=2.0, max_delay=30.0).observe("h", lat, n=5)
    assert abs(got - d) < 1e-12

    # fast host converges toward latency/target; slow host rises
    t2 = AdaptiveThrottle(start_delay=2.0, max_delay=30.0)
    for _ in range(20):
        t2.observe("fast", 0.1)
    assert abs(t2.delay("fast") - 0.1) < 1e-3
    t2.observe("slow", 120.0)
    assert t2.delay("slow") == 30.0  # max clamp

    # non-OK responses never speed a host up
    t3 = AdaptiveThrottle(start_delay=5.0)
    before = t3.delay("h")
    after = t3.observe("h", 0.01, ok=False)
    assert after == before
    # ...but can still slow it down
    assert t3.observe("h", 40.0, ok=False) > before


def test_politeness_shard_adaptive_accounting(ray_session):
    """A shard with a throttle schedules next_free by the adaptive
    per-host delay and reports updated delays from observe()."""
    import ray

    from dfg_gepris_crawler_ray.frontier.politeness import (
        AdaptiveThrottle,
        PolitenessShard,
    )

    shard = PolitenessShard.remote(
        throttle=AdaptiveThrottle(start_delay=0.001, max_delay=0.002)
    )
    w1 = ray.get(shard.acquire.remote({"h": 3}))
    assert w1 >= 0.0
    delays = ray.get(shard.observe.remote({"h": (0.004, 10, True)}))
    assert delays["h"] == 0.002  # clamped to max
    counts = ray.get(shard.counts.remote())
    assert counts["h"] == 3


def test_seen_filter_cuckoo_churn_no_false_negatives(ray_session):
    """Property churn (VERDICT r3 #8): >10^5 random add/delete/contains
    key-ops against a set model at >0.9 shard load factor, then a
    forced saturation phase that exhausts eviction chains. Contract
    under test: every key whose add() reported NEW and that has not
    been deleted since is contains()-present — including after
    over-capacity raises, which is exactly what the victim slot
    guarantees (interrupted batches are quarantined as indeterminate,
    the caller-continues scenario)."""
    rng = np.random.default_rng(0xC0C0)
    # 1024 buckets × 8 slots per shard: this geometry saturates near
    # 0.968 (measured), so a 0.92 churn plateau has headroom while the
    # final phase can still drive chains to exhaustion.
    f = SeenFilter(num_shards=4, mode="cuckoo", cuckoo_buckets=1 << 10, cuckoo_slots=8)
    capacity = 4 * (1 << 10) * 8
    universe = np.array([f"churn/{i}" for i in range(int(capacity * 1.3))])
    model: set[str] = set()
    unknown: set[str] = set()  # batches interrupted by over-capacity
    checked = 0

    def try_add(keys: list[str]) -> bool:
        nonlocal checked
        checked += len(keys)
        try:
            novel = f.add(keys)
        except RuntimeError:  # over capacity mid-batch: insertions
            unknown.update(keys)  # up to the raise DID land
            return False
        model.update(k for k, n in zip(keys, novel) if n and k not in unknown)
        return True

    # phase 1: fill to >0.9 global load factor
    fill_order = rng.permutation(universe)
    i = 0
    while len(model) < int(capacity * 0.92) and i < len(fill_order):
        try_add(fill_order[i : i + 256].tolist())
        i += 256
    assert len(model) >= int(capacity * 0.9)

    # phase 2: balanced churn at the plateau
    for _ in range(300):
        live = np.array(sorted(model))
        victims = rng.choice(live, size=64, replace=False)
        removed = f.delete(victims.tolist())
        assert removed.all()  # model keys are physically resident
        model.difference_update(victims.tolist())
        fresh = [
            k
            for k in rng.choice(universe, size=96, replace=False).tolist()
            if k not in model and k not in unknown
        ][:64]
        try_add(fresh)
        probe = rng.choice(universe, size=192, replace=False).tolist()
        present = f.contains(probe)
        for k, p in zip(probe, present):
            if k in model:
                assert p, f"false negative for live key {k}"
        checked += len(victims) + len(probe)
    assert checked > 100_000

    # phase 3: force eviction-chain exhaustion (victim slot engages)
    saturation_failures = 0
    for j in range(0, len(universe), 256):
        batch = [k for k in universe[j : j + 256].tolist() if k not in model]
        if batch and not try_add(batch):
            saturation_failures += 1
            if saturation_failures >= 4:
                break
    assert saturation_failures >= 1  # chains DID exhaust
    # the no-false-negative contract survives: every definitely-live
    # key is still present after the over-capacity raises
    live = sorted(model)
    for j in range(0, len(live), 4096):
        assert f.contains(live[j : j + 4096]).all()
    # deleting live keys frees capacity and delete still reports True
    sample = rng.choice(np.array(live), size=512, replace=False).tolist()
    assert f.delete(sample).all()


def test_shard_positions_decorrelated_from_routing():
    """Regression for the routing/position bit-share bug: all keys a
    shard receives share their low log2(num_shards) hash bits (the
    facade routes by h % K), so bucket/bit positions derived from
    those bits would confine the shard to 1/K of its table. After the
    remix, keys with identical low bits must still cover every cuckoo
    bucket and all bloom bit-position residues."""
    from dfg_gepris_crawler_ray.frontier.seen import SeenShard

    Raw = SeenShard.__ray_metadata__.modified_class
    # 5000 hashes, all ≡ 0 (mod 8): what shard 0 of 8 would receive
    hashes = np.arange(5000, dtype=np.uint64) * np.uint64(8)

    cuckoo = Raw(mode="cuckoo", cuckoo_buckets=1 << 7, cuckoo_slots=8)
    _, i1, _ = cuckoo._cuckoo_fp_idx(hashes)
    assert len(np.unique(i1)) == 128  # every i1 bucket reachable

    bloom = Raw(mode="bloom", bloom_bits=1 << 12)
    pos = bloom._positions(hashes)
    assert len(np.unique(pos % np.uint64(8))) == 8  # low bits live again
