"""Recrawl change detection over multi-snapshot pages — the refresh
side of a crawl scheduler: given every (url, warc_ts, html) snapshot a
crawler has fetched, decide per URL whether the latest fetch changed
the content (re-extract downstream) or not (skip, and lengthen the
refresh interval).

This is the reference's change-detection idea (search upsert diffing,
``database.py`` last_updated bumps only on item change; data monitor
comparing successive runs) applied to raw page content at corpus
scale: content fingerprints instead of item equality, so the decision
happens before any extraction work is spent.

Distributed shape — one scan, one keyed exchange over fingerprints:

1. **fingerprint scan**: per page emit ``(url, ts_us, h64)`` — an
   md5-derived 64-bit content fingerprint; HTML bytes never leave the
   scan;
2. **url-keyed exchange** (8 buckets, vectorized pandas inside
   each): per URL sort snapshots by ``warc_ts`` and compare the last
   two fingerprints. The exchange carries one tiny row per snapshot,
   not the corpus.

Output: one row per distinct URL —
``(url, n_snapshots, changed, latest_ts_us)`` where ``changed`` is
true iff the URL has ≥2 snapshots and the latest fingerprint differs
from the previous one.

At 10^10 URLs the groupby is the standard keyed all-to-all over
fingerprint rows (≈24 bytes each); no driver-side state. No SQL
oracle (pages are generated, not a gate view): ground truth is a
brute-force pandas pytest over the sf0.001 corpus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..kernels.partitioning import fan_in, keyed_exchange
from ..testdata.gen_pages import ensure_pages


def _h64(data: bytes) -> int:
    return int.from_bytes(hashlib.md5(data).digest()[:8], "big", signed=True)


def recrawl_delta(sf_dir: str, replicate: int = 1) -> "ray.data.Dataset":
    """(url, n_snapshots, changed, latest_ts_us) per distinct URL."""
    pages_dir = ensure_pages(sf_dir, replicate)
    ds = ray.data.read_parquet(pages_dir, columns=["url", "warc_ts", "html"])

    def fingerprint(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        ts = batch.column("warc_ts").cast(pa.int64())
        hs = np.fromiter(
            (_h64(h) for h in batch.column("html").to_pylist()),
            dtype=np.int64,
            count=len(batch),
        )
        return pa.table({"url": urls, "ts_us": ts, "h64": pa.array(hs)})

    def per_url(group: "pd.DataFrame") -> "pd.DataFrame":
        g = group.sort_values(["url", "ts_us"], kind="stable")
        same_prev = g["url"].shift() == g["url"]
        row_changed = same_prev & (g["h64"].shift() != g["h64"])
        last = g.drop_duplicates("url", keep="last")
        counts = g.groupby("url", sort=False).size()
        out = pd.DataFrame(
            {
                "url": last["url"].to_numpy(),
                "n_snapshots": counts.loc[last["url"]].to_numpy(dtype=np.int64),
                "changed": row_changed.loc[last.index].to_numpy(dtype=bool),
                "latest_ts_us": last["ts_us"].to_numpy(dtype=np.int64),
            }
        )
        return out

    return keyed_exchange(
        ds.map_batches(fingerprint, batch_format="pyarrow", zero_copy_batch=True),
        "url", per_url, n=8,
    )


def recrawl_schedule(
    sf_dir: str,
    base_interval_s: int = 86_400,
    hot_host_ppm: int = 100_000,
) -> "ray.data.Dataset":
    """(url, host, changed, host_change_ppm, next_fetch_ts_us) — the
    refresh plan a production frontier feeds back into its priority
    queue: URLs that changed on the last fetch are revisited sooner,
    unchanged ones back off, and every URL on a "hot" host (≥
    ``hot_host_ppm`` parts-per-million of its URLs changed) gets its
    interval halved again. This is the reference's scheduler cadence
    (data monitor daily, search weekly — scheduler_cronfile) derived
    from observed change rates instead of a fixed crontab.

    Policy (integer-exact so the SQL oracle matches bit-for-bit):

    - interval = base/2 if changed else base*2
    - interval //= 2 again if the URL's host is hot
    - next_fetch_ts_us = latest_ts_us + interval * 1_000_000

    Shape: :func:`recrawl_delta` (one scan + one url-keyed exchange)
    → host tagged row-locally → ONE host-keyed exchange where
    each group computes its hosts' change rates AND applies the policy
    in the same task — host stats never leave the bucket, nothing is
    broadcast, no driver state. At 10^8 hosts the exchange carries one
    row per URL-verdict (24 B class) keyed by host hash — the same
    skew profile as the politeness buckets (hash-partitioning on host,
    BASELINE.json north_rule) and far below the fetch exchange.
    """
    delta = recrawl_delta(sf_dir)

    def tag_host(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(host=df["url"].str.split("/", n=3).str[2])

    def schedule_bucket(g: pd.DataFrame) -> pd.DataFrame:
        stats = g.groupby("host")["changed"].agg(["sum", "size"])
        ppm = (stats["sum"] * 1_000_000 // stats["size"]).astype("int64")
        host_ppm = g["host"].map(ppm).astype("int64")
        interval = np.where(
            g["changed"].to_numpy(), base_interval_s // 2, base_interval_s * 2
        ).astype(np.int64)
        interval = np.where(host_ppm.to_numpy() >= hot_host_ppm, interval // 2, interval)
        return pd.DataFrame(
            {
                "url": g["url"],
                "host": g["host"],
                "changed": g["changed"].astype(bool),
                "host_change_ppm": host_ppm,
                "next_fetch_ts_us": g["latest_ts_us"].astype("int64")
                + interval * 1_000_000,
            }
        )

    return keyed_exchange(
        delta.map_batches(tag_host, batch_format="pandas"), "host", schedule_bucket, n=8
    )


def key_gap_quantiles(
    ds: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
) -> "ray.data.Dataset":
    """(key, n_events, gap_p50_us, gap_p90_us) — per-key inter-arrival
    gap statistics over an event stream: the adaptive-politeness
    estimator (observe a host's historical fetch cadence, derive the
    crawl delay to respect) and, over user events, the engagement-
    cadence profile. Keys with <2 events drop (no gap exists).

    Quantiles are INDEX-SELECTED elements of the sorted gap multiset —
    k = ceil(q·m) computed in INTEGER arithmetic ((9m+9)//10 for p90)
    — so the result is an exact integer and two engines can never
    drift on interpolation or float-times-m boundary behavior.
    Tie-order between equal timestamps is immaterial by construction:
    the sorted-gap multiset of a timestamp multiset is order-free.

    Shape: pruned 2-column scan → ONE key-hash exchange → per-bucket fully
    vectorized kernel (sort by (key, ts), per-key shifted diff, sort
    by (key, gap), offset+index fancy-select — NO per-key Python
    loop)."""

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"key": df[key_col], "ts": df[ts_col]})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"key": pd.Series(dtype=g["key"].dtype),
             "n_events": pd.Series(dtype="int64"),
             "gap_p50_us": pd.Series(dtype="int64"),
             "gap_p90_us": pd.Series(dtype="int64")}
        )
        if not len(g):
            return empty
        d = g.sort_values(["key", "ts"], kind="mergesort")
        ts = d["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        key = d["key"].to_numpy()
        same = np.empty(len(d), dtype=bool)
        same[0] = False
        same[1:] = key[1:] == key[:-1]
        gap = np.empty(len(d), dtype="int64")
        gap[0] = -1
        gap[1:] = ts[1:] - ts[:-1]
        gd = pd.DataFrame({"key": key[same], "gap": gap[same]})
        if not len(gd):
            return empty
        s = gd.sort_values(["key", "gap"], kind="mergesort")
        sizes = s.groupby("key", sort=True).size()  # m gaps per key
        m = sizes.to_numpy().astype("int64")
        start = np.concatenate(([0], np.cumsum(m)[:-1]))
        gaps_sorted = s["gap"].to_numpy()
        k50 = (m + 1) // 2          # ceil(m/2), pure integers
        k90 = (9 * m + 9) // 10     # ceil(0.9·m), pure integers
        return pd.DataFrame(
            {"key": sizes.index.to_numpy(),
             "n_events": m + 1,
             "gap_p50_us": gaps_sorted[start + k50 - 1],
             "gap_p90_us": gaps_sorted[start + k90 - 1]}
        )

    return keyed_exchange(ds.map_batches(tag, batch_format="pandas"), "key", per_bucket)


def user_event_gap_quantiles(sf_dir: str) -> "ray.data.Dataset":
    """Per-user inter-event cadence over the events stream (the
    key_gap_quantiles kernel on an integer key) — windowed-SQL
    oracle."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    out = key_gap_quantiles(ds, "user_id", "ts")
    return out.map_batches(
        lambda df: df.rename(columns={"key": "user_id"}),
        batch_format="pandas",
    )


def host_fetch_gap_quantiles(pages_dir: str) -> "ray.data.Dataset":
    """Per-host fetch-cadence profile over the crawl corpus (string
    key): what an adaptive politeness layer derives its per-host crawl
    delay from — hosts whose observed p50 gap is large get a laxer
    token bucket, dense hosts a stricter one (the reference fixes one
    global 10 s delay + AutoThrottle, settings.py:119-126; this is the
    per-host generalization)."""
    from ..sources.pages import read_pages

    ds = read_pages(pages_dir, columns=["url", "warc_ts"])

    def with_host(batch: pa.Table) -> pd.DataFrame:
        urls = batch.column("url").to_pylist()
        return pd.DataFrame(
            {"host": [u.split("/")[2] for u in urls],
             "warc_ts": batch.column("warc_ts").to_pandas()}
        )

    hosted = ds.map_batches(with_host, batch_format="pyarrow")
    out = key_gap_quantiles(hosted, "host", "warc_ts")
    return out.map_batches(
        lambda df: df.rename(columns={"key": "host"}),
        batch_format="pandas",
    )


def fetch_waves(
    sf_dir: str,
    quota: int = 10,
    replicate: int = 1,
    ts_buckets: int = 1024,
    quota_by_host: dict | None = None,
    url_filter=None,
) -> "ray.data.Dataset":
    """(url, host, wave) — the MATERIALIZED fetch schedule a politeness-
    bound frontier executes: within each host, URLs are ordered
    changed-first then stalest-first (``changed DESC, latest_ts_us,
    url`` — the same priority contract as the reference's J1 frontier
    query, reference ``database.py`` get_ids ordering), and the host's
    queue is cut into waves of ``quota`` fetches (one wave ≈ one
    politeness window).  SQL equivalent: ``(row_number() OVER
    (PARTITION BY host ORDER BY ...) - 1) // quota + 1``.

    Exact per-host row_number WITHOUT a per-host global sort (the
    70%-hot host would funnel into one sort task otherwise) — the
    two-level rank pattern shared with ``textstats.length_deciles``:

    1. ``recrawl_delta`` gives one (url, changed, latest_ts_us) row per
       URL (HTML never leaves that scan);
    2. ts range (2 scalars) → a monotone ts→bucket map; per-batch
       (host, changed, ts_bucket) histogram partials (cells ≤ hosts ×
       2 × ``ts_buckets``, bucket-geometry-bounded, independent of URL
       count) meet in a HOST-keyed exchange that computes each host's
       exclusive cum-below prefix IN THE ORDER KEY'S ORDER inside its
       group task — the cell table never lands on the driver and is
       never broadcast (at 10^7–10^8 hosts it would be a multi-GB
       driver structure). With ``quota_by_host`` the per-host quota
       rows ride the same exchange, and each cum row carries its
       host's quota;
    3. ONE exchange keyed on (host, changed, ts_bucket) carrying the
       URL rows UNION the prefix rows (a cell's cum row has its cell's
       key, so it co-locates with the cell's URLs): each group sorts
       its slice by (ts, url) — the within-bucket residual of the
       order key — attaches cum and quota group-locally, so rank =
       cum_below + position, and the wave follows row-locally.  The
       hot host spreads across 2 × ``ts_buckets`` groups instead of
       one; no driver-resident structure grows with host count."""
    from ray.data.aggregate import Max, Min

    delta = recrawl_delta(sf_dir, replicate)

    def add_host(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"url": df["url"],
             "host": df["url"].str.split("/").str[2],
             "changed": df["changed"].astype(bool),
             "ts_us": df["latest_ts_us"].astype("int64")}
        )

    per_url = delta.map_batches(add_host, batch_format="pandas")
    if url_filter is not None:
        # pluggable pre-schedule gate (e.g. the robots Disallow mask,
        # crawlhealth.robots_allowed_mask): applied row-locally BEFORE
        # the rank machinery, so filtered URLs consume neither ts-grid
        # range nor wave slots — the composition the effective-
        # frontier query exercises
        per_url = per_url.map_batches(
            lambda df, _f=url_filter: df[_f(df)],
            batch_format="pandas",
        )
    per_url = per_url.materialize()

    rng = per_url.aggregate(Min("ts_us"), Max("ts_us"))
    tmin, tmax = int(rng["min(ts_us)"]), int(rng["max(ts_us)"])
    span = max(tmax - tmin + 1, 1)

    def tsb(ts: np.ndarray) -> np.ndarray:
        return ((ts - tmin) * ts_buckets // span).astype("int64")

    cell = ["host", "changed", "tsb"]
    budgeted = quota_by_host is not None  # the map itself stays out of the closures

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.assign(tsb=tsb(df["ts_us"].to_numpy()))
        g = d.groupby(cell, as_index=False).size()
        return g.assign(cnt=g["size"].astype("int64"), q=np.int64(0),
                        _k="h")[cell + ["cnt", "q", "_k"]]

    # the per-host EXCLUSIVE prefix is computed inside a host-keyed
    # exchange — cells ≈ hosts × 2 × ts_buckets NEVER touch the driver
    # (a driver cumsum + ray.put broadcast would be a multi-GB table at
    # 10^7–10^8 hosts, exactly the funnel class the repo's
    # driver-funnel discipline forbids). A host's ≤ 2 × ts_buckets
    # cells sort-and-cumsum in one group task; the cell volume is
    # bucket-geometry-bounded, so this exchange carries ~1/quota-th of
    # the URL exchange's rows.
    def host_prefix(g: pd.DataFrame) -> pd.DataFrame:
        is_q = g["_k"] == "q"
        qmap = g[is_q].set_index("host")["q"]
        g = g[~is_q].groupby(cell, as_index=False)["cnt"].sum()
        # exclusive cumsum per host in the ORDER KEY's order:
        # changed DESC, ts_bucket ASC
        g = g.sort_values(cell, ascending=[True, False, True], kind="mergesort")
        cum = g.groupby("host", sort=False)["cnt"].cumsum() - g["cnt"]
        # budget-aware waves: each host's wave size is ITS quota from
        # host_budget_allocation; a host with no quota row gets 0
        q = (g["host"].map(qmap).fillna(0) if budgeted
             else pd.Series(quota, index=g.index))
        return pd.DataFrame(
            {"url": "", "host": g["host"].astype(str),
             "changed": g["changed"].astype(bool),
             "ts_us": np.int64(-1), "tsb": g["tsb"].astype("int64"),
             "cum": cum.astype("int64").to_numpy(),
             "q": q.astype("int64").to_numpy(), "_k": "c"}
        )

    hist = per_url.map_batches(hist_partial, batch_format="pandas")
    if budgeted:
        hist = hist.union(ray.data.from_pandas(pd.DataFrame(
            {"host": pd.Series(list(quota_by_host), dtype=object),
             "changed": False, "tsb": np.int64(-1), "cnt": np.int64(0),
             "q": pd.Series(list(quota_by_host.values()), dtype="int64"),
             "_k": "q"}
        )))
    cum_rows = keyed_exchange(hist, "host", host_prefix, n=16)

    def tag_url(df: pd.DataFrame) -> pd.DataFrame:
        d = df.assign(tsb=tsb(df["ts_us"].to_numpy()),
                      cum=np.int64(-1), q=np.int64(0), _k="u")
        return d[["url", "host", "changed", "ts_us", "tsb", "cum", "q", "_k"]]

    def rank_waves(g: pd.DataFrame) -> pd.DataFrame:
        # a cell's cum row and ALL its URL rows share the cell key, so
        # they land in the same group: the prefix attach is a
        # group-local merge, no driver table and no broadcast
        lookup = g.loc[g["_k"] == "c", cell + ["cum", "q"]]
        g = g[g["_k"] == "u"]
        if not len(g):
            return pd.DataFrame(
                {"url": pd.Series(dtype=str),
                 "host": pd.Series(dtype=str),
                 "wave": pd.Series(dtype="int64")}
            )
        # residual order inside one (host, changed, tsb) cell: ts, url
        g = g.sort_values(
            cell + ["ts_us", "url"],
            ascending=[True, False, True, True, True], kind="mergesort",
        )
        pos = g.groupby(cell, sort=False).cumcount()
        # vectorized cum-below attach (merge preserves g's sorted
        # order); every nonempty cell has exactly one cum row by
        # construction (the histogram is built from the same per_url)
        att = g.drop(columns=["cum", "q"]).merge(lookup, on=cell, how="left")
        rank = att["cum"].to_numpy(dtype=np.int64) + pos.to_numpy()
        # hosts allocated 0 slots never fetch: their URLs park in wave 0
        q = att["q"].to_numpy(dtype=np.int64)
        wave = np.where(q > 0, rank // np.maximum(q, 1) + 1, 0)
        return pd.DataFrame(
            {"url": g["url"], "host": g["host"],
             "wave": pd.Series(wave, dtype="int64").to_numpy()}
        )

    return keyed_exchange(
        per_url.map_batches(tag_url, batch_format="pandas").union(cum_rows),
        cell, rank_waves,
    )


def host_budget_allocation(
    pages_dir: str, budget: int = 1000,
    weight_source: str = "urls",
) -> "ray.data.Dataset":
    """(host, weight, quota) — largest-remainder (Hamilton)
    apportionment of a global per-cycle fetch budget across hosts,
    weighted by each host's distinct-URL count (or, with
    ``weight_source="novelty"``, by its distinct CANONICAL CONTENT
    count — the ``host_novelty`` feedback loop): ``Σ quota == budget``
    EXACTLY, every quota is ``floor(budget × w / W)`` plus at most 1,
    and the +1s go to the largest remainders (ties broken host-asc).
    This is the scheduler step between the frontier (what COULD be
    fetched) and the fetch waves (in what ORDER): how many politeness
    slots each host gets this cycle.

    Scale shape:

    - weights come from ``boilerplate.host_distinct_urls`` — the
      exact distinct count keyed by (host, url) (the hot host never
      funnels into one reduce task);
    - the total ``W`` is one scalar aggregate; floors and remainders
      are then ROW-LOCAL (integer ``//`` and ``%`` against broadcast
      scalars);
    - the leftover ``budget − Σ floors`` is < #hosts by construction
      (each host contributes < 1 of remainder); selecting WHICH hosts
      get +1 is a global top-``leftover`` by (remainder desc, host
      asc) — per-block prune to ``leftover`` rows, then a ``fan_in``
      of the same prune, so the driver reads ≤ 8 × leftover rows,
      bounded by the budget alone — independent of both host
      cardinality AND block count."""
    from ..ops.boilerplate import host_distinct_urls

    if weight_source == "novelty":
        # the host_novelty feedback loop: budget follows NOVEL content
        # (distinct canonical digests), not raw inventory size — a
        # host full of duplicate calendars/mirrors loses share even if
        # its URL space is huge; same exact-distinct scale shape
        from .crawlhealth import host_novelty

        weights = host_novelty(pages_dir).map_batches(
            lambda df: pd.DataFrame(
                {"host": df["host"],
                 "distinct_urls": df["n_distinct_texts"].astype("int64")}
            ),
            batch_format="pandas",
        ).materialize()
    elif weight_source == "urls":
        weights = host_distinct_urls(pages_dir).materialize()
    else:
        raise ValueError(f"unknown weight_source {weight_source!r}")
    total = int(weights.sum("distinct_urls") or 0)
    if total == 0:
        raise ValueError("empty corpus: no hosts to allocate over")

    def floors(df: pd.DataFrame) -> pd.DataFrame:
        w = df["distinct_urls"].astype("int64")
        return pd.DataFrame(
            {"host": df["host"], "weight": w,
             "fl": (budget * w) // total,
             "rem": (budget * w) % total}
        )

    fl_ds = weights.map_batches(floors, batch_format="pandas").materialize()
    leftover = budget - int(fl_ds.sum("fl") or 0)

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(
            ["rem", "host"], ascending=[False, True], kind="mergesort"
        ).head(leftover)
        return d[["host", "rem"]]

    bonus_hosts: set = set()
    if leftover > 0:
        # per-block top-leftover, then the fan-in of the same prune —
        # the driver reads ≤ 8 × leftover rows regardless of block
        # count (a single prune stage would collect leftover ×
        # num_blocks rows)
        bonus_hosts = set(fan_in(fl_ds.map_batches(prune, batch_format="pandas"), prune)["host"])
    bonus_ref = ray.put(bonus_hosts)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        bonus = ray.get(bonus_ref)
        return pd.DataFrame(
            {"host": df["host"], "weight": df["weight"].astype("int64"),
             "quota": (df["fl"]
                       + df["host"].isin(bonus).astype("int64")).astype("int64")}
        )

    return fl_ds.map_batches(finalize, batch_format="pandas")


def decayed_activity(
    sf_dir: str, half_life_hours: float = 24.0
) -> "ray.data.Dataset":
    """(user_id, n_events, score) — exponentially-decayed activity
    counters over the events stream: score = Σ 2^(−(T−ts)/half-life),
    T = the stream's max timestamp. The standard recency-weighted
    counter a crawl scheduler keeps per host (recent fetch volume
    matters, last month's doesn't) — cf. the forward-decay view of
    Cormode et al. 2009: the per-event weight is a pure function of
    the event's own timestamp, so partial sums are mergeable and the
    counter needs no re-scaling sweep.

    Distributed shape: one ``Dataset.max`` scan for T (driver scalar),
    then ONE scan pre-aggregating (sum, count) per user inside each
    batch (the combiner) and ONE user-keyed exchange merging partials
    — identical cost to a plain groupby-count, the decay rides along
    as arithmetic."""
    import ray

    from ..kernels.partitioning import adaptive_buckets

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    t_max = ev.max("ts")  # driver scalar (np.datetime64)
    t_max_us = int(pd.Timestamp(t_max).value // 1000)
    hl_us = float(half_life_hours) * 3600e6

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts_us = batch.column("ts").cast(pa.int64()).to_numpy()
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        w = np.power(2.0, -(t_max_us - ts_us) / hl_us)
        df = pd.DataFrame({"user_id": uid.astype("int64"), "w": w})
        agg = df.groupby("user_id", as_index=False).agg(
            score=("w", "sum"), n_events=("w", "size")
        )
        return agg

    parts = ev.map_batches(partial, batch_format="pyarrow")
    nb = adaptive_buckets(parts.count(), requested=32)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("user_id", as_index=False).agg(
            n_events=("n_events", "sum"), score=("score", "sum")
        )
        return out.astype({"user_id": "int64", "n_events": "int64"})

    return keyed_exchange(parts, "user_id", merge, n=nb)


def staleness_histogram(
    sf_dir: str, bucket_s: int = 86_400, replicate: int = 1
) -> "ray.data.Dataset":
    """(host, age_bucket, n_urls, n_changed) — the index-freshness
    profile a recrawl planner reads before allocating a cycle: per
    host, how many URLs' LATEST captures are 0–1, 1–2, … bucket
    widths old (``age_bucket`` = floor((T − latest_ts) / bucket_s),
    T = the corpus's max capture timestamp — a pure function of the
    data, so op and oracle agree exactly), and how many of each
    bucket's URLs changed at their last fetch (stale AND churning ⇒
    top refresh priority; the two-axis view behind Cho &
    Garcia-Molina's age/freshness curves).

    Shape: :func:`recrawl_delta`'s one scan + url exchange gives one
    (url, changed, latest_ts_us) row per URL; ONE ``Dataset.max``
    scalar (T); then per-batch (host, bucket) partial counts —
    additive, each URL in exactly one partial — meet in ONE
    host-keyed exchange of tiny count rows. Nothing corpus-sized
    past the url exchange; the hot host's partials pre-sum per
    batch."""
    from ray.data.aggregate import Max

    delta = recrawl_delta(sf_dir, replicate)
    t_max = int(delta.aggregate(Max("latest_ts_us"))["max(latest_ts_us)"])
    span_us = bucket_s * 1_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        host = df["url"].str.split("/").str[2]
        age = ((t_max - df["latest_ts_us"].astype("int64")) // span_us)
        d = pd.DataFrame(
            {"host": host, "age_bucket": age.astype("int64"),
             "chg": df["changed"].astype("int64")}
        )
        return d.groupby(["host", "age_bucket"], as_index=False).agg(
            n_urls=("chg", "size"), n_changed=("chg", "sum")
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["host", "age_bucket"], as_index=False)[
            ["n_urls", "n_changed"]
        ].sum()
        return out.astype({"age_bucket": "int64", "n_urls": "int64",
                           "n_changed": "int64"})

    return keyed_exchange(
        delta.map_batches(partial, batch_format="pandas"), "host", merge, n=16
    )
