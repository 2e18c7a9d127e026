"""Generic relational operators over the TPC-H-ish tables.

These demonstrate (and oracle-check) the engine's generic operator
layer — the same primitives the crawl pipelines compose:

- partial pre-aggregation inside ``map_batches`` before the exchange
  (shrinks the shuffle to one row per key per batch)
- broadcast hash join (small dimension side via ``ray.put``)
- the keyed exchange: every key-local join or reduce — hash joins,
  semi-joins, per-user windows, sessions and funnels — runs through
  ``kernels.partitioning.keyed_exchange`` (one side) or
  ``co_exchange`` (several sides, each routed by its own key columns;
  the reduce gets a dict kind → that side's rows)
- latest-per-key (the A1 pattern over the events stream)
- tumbling- and sliding-window aggregates over event time
- global sort + limit (top-k)

An op's exchange width is ``table_width`` (``adaptive_buckets`` over
its driving table's parquet row count); every reduce is key-local,
so the width never changes a value. Low-cardinality natural keys
(event type, market segment, per-window register merges) group
directly with ``groupby(col)``.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Sum

from ..kernels.partitioning import (
    co_exchange,
    keyed_exchange,
    table_width,
    typed_frame,
)


def round_half_away(x, decimals: int = 2):
    """SQL ``round()`` semantics: half away from zero. np.round's
    half-even diverges from DuckDB on exact .xx5 boundary sums."""
    m = 10.0 ** decimals
    arr = np.asarray(x, dtype=np.float64)
    return np.sign(arr) * np.floor(np.abs(arr) * m + 0.5) / m


def _between(col: str, lo: str, hi: str):
    """Scan pushdown predicate ``lo <= col < hi`` over ISO dates."""
    return (pads.field(col) >= _dt.datetime.fromisoformat(lo)) & (
        pads.field(col) < _dt.datetime.fromisoformat(hi)
    )


def _sum_by(ds: "ray.data.Dataset", keys, *cols) -> "ray.data.Dataset":
    """The small final aggregate of an op's partials: ``cols`` summed
    per ``keys``, each keeping its name."""
    return ds.groupby(keys).aggregate(*[Sum(c, alias_name=c) for c in cols])


def _int_revenue_x10000(extprice: pd.Series, discount: pd.Series) -> pd.Series:
    """Integer ten-thousandths revenue — the Q5 rounding-boundary-safe
    kernel (prices are cents, discounts centi-steps, so np.round's
    half-even never disagrees with SQL's half-away here)."""
    return (extprice * 100).round().astype("int64") * (
        (1.0 - discount) * 100
    ).round().astype("int64")


def _scalar_partials(parts: "ray.data.Dataset", cols) -> pa.Table:
    """One int64 row: each of ``cols`` summed over the per-bucket
    single-row partials ``parts`` (≤ n rows reach the driver)."""
    df = parts.to_pandas()
    return pa.table({c: pa.array([int(df[c].sum())], pa.int64()) for c in cols})


def pricing_summary(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H Q1-shaped aggregate with per-batch partial aggregation.

    Shuffle carries only (flag, status, partial sums) — one row per key
    per batch instead of every lineitem row.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        disc_price = pc.multiply(
            batch.column("l_extendedprice"), pc.subtract(pa.scalar(1.0), batch.column("l_discount"))
        )
        t = batch.append_column("disc_price", disc_price)
        df = t.select(
            ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "disc_price"]
        ).to_pandas()
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], as_index=False)
            .agg(
                sum_qty=("l_quantity", "sum"),
                sum_base_price=("l_extendedprice", "sum"),
                sum_disc_price=("disc_price", "sum"),
                count_order=("l_quantity", "size"),
            )
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    out = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_base_price", alias_name="sum_base_price"),
        Sum("sum_disc_price", alias_name="sum_disc_price"),
        Sum("count_order", alias_name="count_order"),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        for col in ("sum_qty", "sum_base_price", "sum_disc_price"):
            df[col] = round_half_away(df[col], 2)
        return df

    return out.map_batches(finish, batch_format="pandas")


def segment_revenue(sf_dir: str) -> "ray.data.Dataset":
    """orders ⋈ customer (broadcast) → revenue per market segment.

    customer is the small side: shipped once via ``ray.put``, looked up
    per batch — no shuffle join."""

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    seg_map = dict(
        zip(cust.column("c_custkey").to_pylist(), cust.column("c_mktsegment").to_pylist())
    )
    seg_ref = ray.put(seg_map)

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def join_partial(batch: pa.Table) -> pa.Table:
        lookup = ray.get(seg_ref)
        df = batch.select(["o_custkey", "o_totalprice"]).to_pandas()
        df["c_mktsegment"] = df["o_custkey"].map(lookup)  # vectorized hash probe
        g = df.groupby("c_mktsegment", as_index=False).agg(
            revenue=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = orders.map_batches(join_partial, batch_format="pyarrow", zero_copy_batch=True)
    out = partials.groupby("c_mktsegment").aggregate(
        Sum("revenue", alias_name="revenue"), Sum("n_orders", alias_name="n_orders")
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["revenue"] = round_half_away(df["revenue"], 2)
        return df

    return out.map_batches(finish, batch_format="pandas")


def anti_join_bucketed(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    left_t: pd.DataFrame,
    n: int,
) -> "ray.data.Dataset":
    """General hash anti-join: rows of ``left`` (typed like the empty
    frame ``left_t``) whose ``on`` key has no match in ``right``'s
    ``on`` column — BOTH sides at arbitrary scale.

    Shape: per-batch pre-dedup of the right side's keys (one key per
    batch instead of every row), one co-partition of both sides into
    ``n`` buckets (``co_exchange``), vectorized per-bucket ``isin``. This
    is the form to use when neither side fits a ``ray.put`` broadcast; the
    broadcast semi/anti-join (sources.pages.semi_join_frontier) stays
    the right call when one side is budget-bounded. Keys of any dtype
    co-locate (``route_bucket``)."""

    def right_keys(df: pd.DataFrame) -> pd.DataFrame:
        return df[[on]].drop_duplicates()

    def per_bucket(parts: dict) -> pd.DataFrame:
        rows = parts["l"]
        return rows[~rows[on].isin(parts["r"][on])]

    keys = right.map_batches(right_keys, batch_format="pandas")
    return co_exchange({"l": (left, on, left_t), "r": (keys, on, left_t[[on]])}, per_bucket, n)


def customers_without_orders(sf_dir: str) -> "ray.data.Dataset":
    """Anti-join: customers with no orders.

    Uses the general bucketed hash anti-join — at TPC-H shape the
    orders key set would also broadcast, but this query is the repo's
    anti-join exemplar and the bucketed form is the one that still
    works when the right side is 10^10 keys."""
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    out = anti_join_bucketed(
        cust, orders.rename_columns({"o_custkey": "c_custkey"}), "c_custkey",
        typed_frame(c_custkey="int64", c_name="object"), table_width(sf_dir, "orders"),
    )
    # materialise with an explicit schema so an empty result still
    # carries its columns (Dataset.to_pandas drops them on zero blocks)
    tables = [t for t in ray.get(out.to_arrow_refs()) if t.num_columns]
    schema = pa.schema([("c_custkey", pa.int64()), ("c_name", pa.string())])
    tables = [t.cast(schema) for t in tables] or [schema.empty_table()]
    return pa.concat_tables(tables)


def latest_event_per_user(sf_dir: str) -> "ray.data.Dataset":
    """A1 pattern over the events stream: per user the most recent event
    (ties broken by event_id desc, deterministic).

    One user-keyed exchange; the per-user top-1 computes vectorized
    inside each bucket (sort + drop_duplicates keep-last) — one Python
    call per bucket, not per user (millions of users at stream scale).
    The same kernel pre-reduces each input batch first, so the exchange
    carries one candidate row per user per batch."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type", "value"]
    )

    def latest(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["ts", "event_id"], kind="stable")
        return g.drop_duplicates("user_id", keep="last")

    return keyed_exchange(
        ds.map_batches(latest, batch_format="pandas"), "user_id", latest,
        table_width(sf_dir, "events"),
    )


def hourly_event_stats(sf_dir: str) -> "ray.data.Dataset":
    """Tumbling 1-hour event-time windows per event_type: count + sum.

    Windowing = truncate ts to the hour inside ``map_batches`` (partial
    per batch), then a small groupby — the streaming-shaped pattern for
    a batch engine (ordered log + keyed window aggregation)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        df = pd.DataFrame(
            {
                "window_start": hour.to_pandas(),
                "event_type": batch.column("event_type").to_pylist(),
                "value": batch.column("value").to_pylist(),
            }
        )
        g = df.groupby(["window_start", "event_type"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    out = partials.groupby(["window_start", "event_type"]).aggregate(
        Sum("n_events", alias_name="n_events"), Sum("sum_value", alias_name="sum_value")
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_value"] = round_half_away(df["sum_value"], 2)
        return df

    return out.map_batches(finish, batch_format="pandas")


def segment_order_revenue_topk(
    sf_dir: str, segment: str = "BUILDING", k: int = 10
) -> "ray.data.Dataset":
    """TPC-H Q3-shaped 3-way join: customer(segment) ⋈ orders ⋈ lineitem
    → top-k orders by discounted revenue.

    Shape: the customer(segment) semi-join into orders is a broadcast of
    the segment's customer keys (customers per segment ≪ orders); the
    orders⋈lineitem join runs as one orderkey co-partition
    (``co_exchange``) — per-batch partial revenue per order first, so the
    shuffle carries one row per order per batch, never raw lineitems,
    and no order-key set is held on the driver."""
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    seg_keys = {
        ck
        for ck, seg in zip(
            cust.column("c_custkey").to_pylist(), cust.column("c_mktsegment").to_pylist()
        )
        if seg == segment
    }
    seg_ref = ray.put(seg_keys)

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def seg_orders(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["o_custkey"].isin(ray.get(seg_ref)), ["o_orderkey", "o_orderdate"]]

    def line_partial(df: pd.DataFrame) -> pd.DataFrame:
        rev = df["l_extendedprice"] * (1.0 - df["l_discount"])
        # per-batch partial: one row per order per batch
        return (
            pd.DataFrame({"o_orderkey": df["l_orderkey"], "revenue": rev})
            .groupby("o_orderkey", as_index=False)["revenue"].sum()
        )

    empty = typed_frame(o_orderkey="int64", revenue="float64", o_orderdate="datetime64[us]")

    def per_bucket(parts: dict) -> pd.DataFrame:
        o, l = parts["o"], parts["l"]
        if not len(o) or not len(l):
            return empty.copy()
        rev = l.groupby("o_orderkey", as_index=False)["revenue"].sum()
        m = rev.merge(o, on="o_orderkey")  # inner: only segment orders survive
        return m[["o_orderkey", "revenue", "o_orderdate"]]

    per_order = co_exchange(
        {
            "o": (orders.map_batches(seg_orders, batch_format="pandas"), "o_orderkey",
                  empty[["o_orderkey", "o_orderdate"]]),
            "l": (li.map_batches(line_partial, batch_format="pandas"), "o_orderkey",
                  empty[["o_orderkey", "revenue"]]),
        },
        per_bucket,
        table_width(sf_dir, "lineitem"),
    )
    topk = per_order.sort(["revenue", "o_orderkey"], descending=[True, False]).limit(k)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["revenue"] = round_half_away(df["revenue"], 2)
        return df[["o_orderkey", "revenue", "o_orderdate"]]

    return topk.map_batches(finish, batch_format="pandas")


def session_windows(sf_dir: str, gap_minutes: int = 30) -> "ray.data.Dataset":
    """Gap-based session windows per user — the streaming-session
    operator a batch engine expresses as groupby(user) → per-group
    sort + gap split (SURVEY.md §2.10 'custom operators' path (a)).

    A new session starts when the inter-event gap exceeds
    ``gap_minutes``. One user-keyed exchange: each user's event history
    co-locates, and sessionization vectorizes across the whole bucket."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "value"]
    )

    def sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts"], kind="stable")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = g["ts"].diff() > pd.Timedelta(minutes=gap_minutes)
        boundary = new_user | gap
        # per-user session numbering: global boundary cumsum minus each
        # user's first-session offset
        sess_global = boundary.cumsum()
        first_of_user = sess_global.where(new_user).ffill()
        g = g.assign(session_no=(sess_global - first_of_user).astype("int64"))
        out = g.groupby(["user_id", "session_no"], as_index=False).agg(
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("ts", "size"),
            sum_value=("value", "sum"),
        )
        out["sum_value"] = round_half_away(out["sum_value"], 2)
        return out[["user_id", "session_no", "session_start", "session_end", "n_events", "sum_value"]]

    return keyed_exchange(ds, "user_id", sessions, table_width(sf_dir, "events"))


def value_quantiles(sf_dir: str, qs=(0.5, 0.9, 0.99)) -> "ray.data.Dataset":
    """Exact per-event-type quantiles of ``value`` (linear
    interpolation, matching SQL ``quantile_cont``).

    Shuffle key = event_type (small cardinality; each group's values
    co-locate, np.quantile vectorizes over the whole group). For
    high-cardinality keys swap in ``keyed_exchange``; for
    corpus-scale value streams swap np.quantile for a t-digest partial
    merge — the exact path is the oracle either way."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    qs = list(qs)

    def per_type(group: pd.DataFrame) -> pd.DataFrame:
        v = group["value"].to_numpy(dtype=np.float64)
        quants = np.quantile(v, qs)  # linear interpolation = quantile_cont
        return pd.DataFrame(
            {
                "event_type": group["event_type"].iloc[:1].repeat(len(qs)).to_numpy(),
                "q": qs,
                "value": np.floor(quants * 1e6 + 0.5) / 1e6,  # half-away, 6dp
            }
        )

    return ds.groupby("event_type").map_groups(per_type, batch_format="pandas")


def sliding_window_counts(
    sf_dir: str, window_minutes: int = 60, slide_minutes: int = 15
) -> "ray.data.Dataset":
    """Sliding event-time windows (60 min window, 15 min slide): each
    event replicates into window/slide windows inside ``map_batches``
    (vectorized epoch arithmetic), partial counts pre-combine per
    batch, and the window-keyed exchange carries one row per
    (window, type) per batch — the batch-engine form of a
    sliding-window aggregation."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    w = window_minutes * 60
    s = slide_minutes * 60
    k = w // s

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # normalize to whole seconds regardless of the column's
        # datetime64 resolution (us vs ns)
        epoch = batch["ts"].to_numpy().astype("datetime64[s]").astype(np.int64)
        base = epoch // s * s
        frames = []
        for i in range(k):
            frames.append(
                pd.DataFrame(
                    {"window_start": base - i * s, "event_type": batch["event_type"]}
                )
            )
        g = (
            pd.concat(frames, ignore_index=True)
            .groupby(["window_start", "event_type"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return g

    def window_sum(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(["window_start", "event_type"], as_index=False)["n"].sum()
        return out.assign(window_start=pd.to_datetime(out["window_start"], unit="s"))

    return keyed_exchange(
        ds.map_batches(partial, batch_format="pandas"), "window_start", window_sum,
        table_width(sf_dir, "events"),
    )


def distinct_customers_per_segment(sf_dir: str) -> "ray.data.Dataset":
    """count(DISTINCT o_custkey) per market segment, exact and
    distributed: per-batch (segment, custkey) dedup, custkey-keyed
    global dedup (vectorized drop_duplicates per bucket), then partial
    counts sum — no full-width shuffle of the raw orders."""
    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    seg_map = dict(
        zip(cust.column("c_custkey").to_pylist(), cust.column("c_mktsegment").to_pylist())
    )
    seg_ref = ray.put(seg_map)
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])

    def prereduce(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.drop_duplicates("o_custkey")
        return g.assign(c_mktsegment=g["o_custkey"].map(ray.get(seg_ref)))

    def bucket_count(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates("o_custkey")
        return g.groupby("c_mktsegment", as_index=False).size().rename(columns={"size": "n"})

    partials = keyed_exchange(
        orders.map_batches(prereduce, batch_format="pandas"), "o_custkey", bucket_count,
        table_width(sf_dir, "orders"),
    )
    return partials.groupby("c_mktsegment").aggregate(
        Sum("n", alias_name="distinct_customers")
    )


def topk_orders_per_segment(sf_dir: str, k: int = 3) -> "ray.data.Dataset":
    """Top-k orders by totalprice within each market segment (the
    per-group top-k pattern): per-batch nsmallest pre-reduction, then
    one small groupby over ≤ k×batches candidate rows."""

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    seg_map = dict(
        zip(cust.column("c_custkey").to_pylist(), cust.column("c_mktsegment").to_pylist())
    )
    seg_ref = ray.put(seg_map)
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def prereduce(batch: pd.DataFrame) -> pd.DataFrame:
        lookup = ray.get(seg_ref)
        g = batch.assign(c_mktsegment=batch["o_custkey"].map(lookup))
        return (
            g.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
            .groupby("c_mktsegment", group_keys=False)
            .head(k)
        )

    def finish(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = range(1, len(g) + 1)
        return g[["c_mktsegment", "rank", "o_orderkey", "o_totalprice"]]

    return (
        orders.map_batches(prereduce, batch_format="pandas")
        .groupby("c_mktsegment")
        .map_groups(finish, batch_format="pandas")
    )


def top_orders(sf_dir: str, k: int = 20) -> "ray.data.Dataset":
    """Global sort + limit (top-k by totalprice, orderkey tiebreak)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(k)


def asof_join_latest_order(sf_dir: str) -> "ray.data.Dataset":
    """As-of join — the §2.10 custom-operator path (a): for every
    event, the same user's most recent order at event time
    (``o_orderdate <= ts``; ties broken by ``o_orderkey`` max). Inner
    semantics: events whose user has no prior order are dropped (keeps
    dtypes deterministic vs the SQL oracle).

    Shape: events and orders co-partition by user (``co_exchange``, ONE
    keyed shuffle), per-bucket vectorized ``pd.merge_asof`` over frames
    sorted on the time key. At web scale with time-partitioned storage
    the same per-bucket kernel runs as a sorted merge join; no
    all-pairs work anywhere."""
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    empty = typed_frame(
        event_id="int64", user_id="int64", ts="datetime64[us]",
        o_orderkey="int64", o_orderdate="datetime64[us]",
    )

    def per_bucket(parts: dict) -> pd.DataFrame:
        e = parts["e"].sort_values("ts", kind="stable")
        o = parts["o"].rename(columns={"o_custkey": "user_id"}).sort_values(
            ["o_orderdate", "o_orderkey"], kind="stable"
        )
        if not len(e) or not len(o):
            return empty.copy()
        # with the secondary o_orderkey sort, equal-timestamp ties
        # resolve to the max o_orderkey
        m = pd.merge_asof(
            e, o, left_on="ts", right_on="o_orderdate", by="user_id", direction="backward"
        )
        m = m[m["o_orderkey"].notna()]
        return m.astype({"o_orderkey": "int64"})[list(empty.columns)]

    return co_exchange(
        {
            "e": (events, "user_id", typed_frame(event_id="int64", ts="datetime64[us]", user_id="int64")),
            "o": (orders, "o_custkey", typed_frame(
                o_orderkey="int64", o_custkey="int64", o_orderdate="datetime64[us]"
            )),
        },
        per_bucket, table_width(sf_dir, "orders"),
    )


def customer_order_rollup_bucketed(sf_dir: str) -> "ray.data.Dataset":
    """Large⋈large inner join + per-key aggregate, both sides at
    arbitrary scale: customers and orders co-partition by customer key
    (``co_exchange``), and each bucket joins + aggregates vectorized —
    ONE all-to-all exchange, no broadcast side, no post-join shuffle
    (the aggregate key equals the join key, so it is bucket-local).

    This is the scale form of the broadcast join in
    ``segment_revenue``: use it when the dimension side no longer fits
    a ``ray.put``. Output: (c_custkey, c_name, n_orders, total_spent)
    for customers with ≥1 order."""
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def order_partial(df: pd.DataFrame) -> pd.DataFrame:
        # per-batch pre-aggregation: the exchange carries one partial
        # row per customer per batch, never the raw order stream
        return df.groupby("o_custkey", as_index=False).agg(
            price=("o_totalprice", "sum"), n=("o_totalprice", "size")
        )

    def per_bucket(parts: dict) -> pd.DataFrame:
        o = parts["o"].groupby("o_custkey", as_index=False).agg(
            total_spent=("price", "sum"), n_orders=("n", "sum")
        )
        m = parts["c"].merge(o, left_on="c_custkey", right_on="o_custkey")  # inner
        return pd.DataFrame(
            {
                "c_custkey": m["c_custkey"].astype("int64"),
                "c_name": m["c_name"],
                "n_orders": m["n_orders"].astype("int64"),
                "total_spent": round_half_away(m["total_spent"], 2),
            }
        )

    return co_exchange(
        {
            "c": (cust, "c_custkey", typed_frame(c_custkey="int64", c_name="object")),
            "o": (orders.map_batches(order_partial, batch_format="pandas"), "o_custkey",
                  typed_frame(o_custkey="int64", price="float64", n="int64")),
        },
        per_bucket, table_width(sf_dir, "orders"),
    )


def purchase_followup_range_join(sf_dir: str, minutes: int = 30) -> "ray.data.Dataset":
    """Range self-join over the events stream: for every *purchase*
    event, the number of the same user's OTHER events inside the
    ``minutes``-minute window after it — the interval-join shape Ray
    Data has no native operator for.

    Composition: one user-keyed exchange; inside each bucket the
    per-user window count is a vectorized double ``searchsorted`` over
    the user's time-sorted event array — O(E log E) per bucket, never
    the O(E²) cross product a naive join would materialize.
    Partitioning assumption: a single user's events fit one task (salt
    hot users across sub-buckets if not). Output: (event_id, n_follow)
    for purchases with ≥1 follow-up in window."""
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    )
    delta = pd.Timedelta(minutes=minutes)

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out_key, out_n = [], []
        for _, g in group.groupby("user_id"):
            ev = np.sort(g["ts"].to_numpy())
            anchors = g[g["event_type"] == "purchase"]
            if not len(anchors):
                continue
            starts = anchors["ts"].to_numpy()
            lo = np.searchsorted(ev, starts, side="left")
            hi = np.searchsorted(ev, starts + delta, side="left")
            n = hi - lo - 1  # the anchor sits inside its own window
            keep = n > 0
            out_key.extend(anchors.loc[keep, "event_id"].tolist())
            out_n.extend(n[keep].tolist())
        return pd.DataFrame(
            {
                "event_id": pd.Series(out_key, dtype="int64"),
                "n_follow": pd.Series(out_n, dtype="int64"),
            }
        )

    return keyed_exchange(events, "user_id", per_bucket, table_width(sf_dir, "events"))


EVENT_TYPES = ("click", "view", "purchase", "signup", "error")


def event_type_pivot(sf_dir: str) -> "ray.data.Dataset":
    """Pivot the event log into one row per user with per-type counts
    (n_click … n_error) — the wide-table feature layout a per-user
    model consumes.

    Conditional aggregation, NOT a per-type scan: one ``map_batches``
    pass builds per-batch partial pivots (vectorized pandas crosstab —
    one row per user per batch, already wide), then a single keyed
    ``groupby(user_id).Sum`` over the partials. The exchange carries
    |users per batch| wide rows, never the raw events. Integer-exact.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(zero_copy_only=False),
                "event_type": batch.column("event_type").to_pylist(),
            }
        )
        wide = pd.crosstab(df["user_id"], df["event_type"])
        for t in EVENT_TYPES:
            if t not in wide.columns:
                wide[t] = 0
        wide = wide[list(EVENT_TYPES)].rename(
            columns={t: f"n_{t}" for t in EVENT_TYPES}
        )
        out = wide.reset_index()
        out["user_id"] = out["user_id"].astype("int64")
        for t in EVENT_TYPES:
            out[f"n_{t}"] = out[f"n_{t}"].astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(*[Sum(f"n_{t}", alias_name=f"n_{t}") for t in EVENT_TYPES])
    )


def order_rollup(sf_dir: str) -> pa.Table:
    """GROUPING SETS / ROLLUP over orders: (status, priority) →
    (status, ALL) → (ALL, ALL), each with n_orders + revenue — the
    multi-level report query, from ONE exchange.

    The coarser levels are derived from the finest aggregate (sums
    roll up exactly), so the corpus is scanned once, the shuffle
    carries per-batch partials of the ≤ |status|·|priority| finest
    cells, and the rollup math runs over that tiny table. 'ALL' is an
    explicit sentinel (both sides) instead of the SQL NULL marker so
    the gate's string canon compares cleanly.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "status": batch.column("o_orderstatus").to_pylist(),
                "priority": batch.column("o_orderpriority").to_pylist(),
                "price": batch.column("o_totalprice").to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["status", "priority"], as_index=False).agg(
            n_orders=("price", "size"), revenue=("price", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    fine = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["status", "priority"])
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Sum("revenue", alias_name="revenue"))
        .to_pandas()
    )  # ≤ |status|·|priority| rows — the rollup input, not the orders
    by_status = fine.groupby("status", as_index=False).agg(
        n_orders=("n_orders", "sum"), revenue=("revenue", "sum")
    )
    by_status["priority"] = "ALL"
    total = pd.DataFrame(
        {
            "status": ["ALL"], "priority": ["ALL"],
            "n_orders": [fine["n_orders"].sum()],
            "revenue": [fine["revenue"].sum()],
        }
    )
    out = pd.concat([fine, by_status, total], ignore_index=True)[
        ["status", "priority", "n_orders", "revenue"]
    ]
    out["revenue"] = round_half_away(out["revenue"], 2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def window_distinct_users(
    sf_dir: str, route: str = "exact", p: int = 12
) -> "ray.data.Dataset":
    """(window_start, event_type, distinct_users) — distinct users per
    tumbling 1-hour window per event type.

    Distinct-count is the aggregate that does NOT pre-reduce with
    plain partials (two batches may share users), so the shape differs
    from ``hourly_event_stats``. Two routes:

    - ``"exact"``: per batch, project to DEDUPED
      (window, event_type, user_id) triples (the only thing that must
      travel), then ONE window-keyed exchange where each group counts
      uniques vectorized. Exchange volume is bounded by distinct
      triples, not events — the batch-level dedup already collapses
      hot users. At 10^12 events the exact form stays viable as long
      as distinct (window, user) fits the cluster.
    - ``"hll"``: for ultra-wide windows where even the deduped triples
      would dominate the exchange, each batch emits ONE HyperLogLog
      register row (2^p bytes) per (window, event_type) it touches —
      exchange volume is blocks × windows × types × 2^p bytes,
      INDEPENDENT of user cardinality — then a keyed max-merge +
      estimate. Shares the register/estimator kernels with
      ``textstats.approx_distinct_tokens``; error ≈ 1.04/sqrt(2^p)
      (~1.6% at p=12), pinned against the exact route in pytest.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "user_id"]
    )

    if route == "hll":
        from ..kernels.hashing import splitmix64
        from .textstats import _hll_estimate, _hll_registers

        def hll_partial(batch: pa.Table) -> pd.DataFrame:
            hour = pc.floor_temporal(batch.column("ts"), unit="hour")
            df = pd.DataFrame(
                {
                    "window_start": hour.to_pandas(),
                    "event_type": batch.column("event_type").to_pylist(),
                    "_uh": splitmix64(
                        batch.column("user_id")
                        .to_numpy(zero_copy_only=False)
                        .astype(np.uint64)
                    ),
                }
            )
            rows: list[tuple] = []
            for (w, et), g in df.groupby(["window_start", "event_type"], sort=False):
                regs = _hll_registers(np.unique(g["_uh"].to_numpy()), p)
                rows.append((w, et, regs.tobytes()))
            return pd.DataFrame(
                rows, columns=["window_start", "event_type", "registers"]
            )

        def merge_estimate(g: pd.DataFrame) -> pd.DataFrame:
            acc: np.ndarray | None = None
            for blob in g["registers"]:
                r = np.frombuffer(blob, dtype=np.uint8)
                acc = r.copy() if acc is None else np.maximum(acc, r)
            return pd.DataFrame(
                {
                    "window_start": [g["window_start"].iloc[0]],
                    "event_type": [g["event_type"].iloc[0]],
                    "distinct_users": np.asarray([_hll_estimate(acc)], dtype=np.int64),
                }
            )

        return (
            ds.map_batches(hll_partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby(["window_start", "event_type"])
            .map_groups(merge_estimate, batch_format="pandas")
        )
    if route != "exact":
        raise ValueError(f"unknown window-distinct route {route!r}")

    def triples(batch: pa.Table) -> pd.DataFrame:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        return pd.DataFrame(
            {
                "window_start": hour.to_pandas(),
                "event_type": batch.column("event_type").to_pylist(),
                "user_id": batch.column("user_id").to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.drop_duplicates(["window_start", "event_type", "user_id"])
            .groupby(["window_start", "event_type"], as_index=False)["user_id"]
            .nunique()
        )
        out.columns = ["window_start", "event_type", "distinct_users"]
        out["distinct_users"] = out["distinct_users"].astype("int64")
        return out

    return keyed_exchange(
        ds.map_batches(triples, batch_format="pyarrow", zero_copy_batch=True),
        "window_start", count_bucket, table_width(sf_dir, "events"),
    )


def funnel_bucket(g: pd.DataFrame, steps, within_hours: int | None) -> pd.DataFrame:
    """One bucket of ``funnel_steps``: per step, the number of the
    bucket's users (``user_id, ts, event_type`` rows) that reached it —
    a semi-join on the previous step's first-reach time, the
    strict-after (and within-window) filter, then the per-user min."""
    reached: pd.Series | None = None  # user_id -> first-reach ts
    counts: list[int] = []
    for s in steps:
        ev = g[g["event_type"] == s][["user_id", "ts"]]
        if reached is not None:
            ev = ev.merge(
                reached.rename("prev_ts"), left_on="user_id", right_index=True
            )
            # on an EMPTY merge pandas names the result's index after
            # the right side ("user_id"), which makes the groupby below
            # ambiguous — found by the hypothesis kernel property test;
            # reset unconditionally
            ev = ev.reset_index(drop=True)
            ev = ev[ev["ts"] > ev["prev_ts"]]
            if within_hours is not None:
                ev = ev[ev["ts"] <= ev["prev_ts"] + pd.Timedelta(hours=within_hours)]
        reached = ev.groupby("user_id")["ts"].min()
        counts.append(len(reached))
    return pd.DataFrame(
        {
            "step_no": np.arange(1, len(steps) + 1, dtype=np.int64),
            "step": list(steps),
            "n_users": np.asarray(counts, dtype=np.int64),
        }
    )


def funnel_steps(
    sf_dir: str,
    steps: tuple[str, ...] = ("view", "click", "purchase"),
    within_hours: int | None = 24,
) -> "ray.data.Dataset":
    """(step_no, step, n_users) — ordered-funnel analysis: how many
    users performed step 1, then step 2 strictly after it (and within
    ``within_hours`` of it, when set), then step 3 likewise
    (first-occurrence progression — a user reaches step k iff events
    of the step types occur in strict ts order inside the per-step
    conversion window; at this corpus's event density the 24 h default
    yields a real drop-off per step rather than full conversion).

    Shape: rows not in ``steps`` never leave the scan (pushed into the
    parquet read), ONE user-keyed exchange co-locates each user's
    (tiny) event history, the per-bucket progression is vectorized
    pandas (:func:`funnel_bucket`), and each bucket emits
    ``len(steps)`` partial count rows — the final aggregate input is
    buckets × steps rows, independent of event cardinality.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["ts", "user_id", "event_type"],
        filter=pads.field("event_type").isin(steps),
    )
    step_list = list(steps)
    return _sum_by(
        keyed_exchange(
            ds, "user_id", lambda g: funnel_bucket(g, step_list, within_hours),
            table_width(sf_dir, "events"),
        ),
        ["step_no", "step"], "n_users",
    )


def retention_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """One bucket of ``retention_cohorts``: from its users' (user_id,
    day) activity pairs, each user's cohort (first day) and the
    (cohort_day, day_offset, n_users) counts."""
    df = g[["user_id", "day"]].drop_duplicates()
    first = df.groupby("user_id")["day"].min().rename("cohort")
    df = df.merge(first, left_on="user_id", right_index=True)
    df["day_offset"] = (df["day"] - df["cohort"]).astype("int64")
    out = df.groupby(["cohort", "day_offset"], as_index=False).size()
    out.columns = ["cohort", "day_offset", "n_users"]
    out["cohort_day"] = pd.to_datetime(out.pop("cohort"), unit="D")
    return out[["cohort_day", "day_offset", "n_users"]].astype({"n_users": "int64"})


def retention_cohorts(sf_dir: str) -> "ray.data.Dataset":
    """(cohort_day, day_offset, n_users) — the classic retention
    matrix: users grouped by the day of their FIRST event, counted on
    each later day they were active. With funnel_steps and
    session_windows this rounds out the event-analytics family.

    Shape: only DEDUPED (user, day) pairs leave each batch (hot users
    collapse immediately — the same projection trick as
    window_distinct_users), ONE user-keyed exchange co-locates every
    user's activity so the per-bucket first-day min is the global min,
    offsets and partial (cohort, offset) counts are vectorized integer
    arithmetic (:func:`retention_bucket`; epoch days, no calendar
    lookups), and the final Sum sees ≤ buckets × cohorts × offsets
    rows — independent of both event and user cardinality.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )

    def pairs(batch: pa.Table) -> pd.DataFrame:
        days = batch.column("ts").to_numpy(zero_copy_only=False).astype(
            "datetime64[D]"
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(zero_copy_only=False),
                "day": days,
            }
        ).drop_duplicates()

    return _sum_by(
        keyed_exchange(
            ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
            "user_id", retention_bucket, table_width(sf_dir, "events"),
        ),
        ["cohort_day", "day_offset"], "n_users",
    )


def running_totals(sf_dir: str) -> "ray.data.Dataset":
    """(event_id, user_id, running_value) — SQL's ordered analytic
    window ``SUM(value) OVER (PARTITION BY user_id ORDER BY ts,
    event_id)``: the per-event cumulative transform that a batch
    engine expresses as partition-key exchange + per-group ordered
    scan (SURVEY.md §2.10 custom-operator path (a); session_windows'
    aggregate sibling — this one is a TRANSFORM, output is
    event-cardinality by definition).

    Shape: column-pruned read (4 columns), one user-keyed exchange so
    each user's history co-locates, per-bucket mergesort +
    vectorized ``groupby().cumsum()``. The running sum adds doubles in
    the same left-to-right order as the SQL window frame, so values
    match the oracle bit-for-bit, not just to rounding.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )

    def cumulate(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g["running_value"] = g.groupby("user_id", sort=False)["value"].cumsum()
        return g[["event_id", "user_id", "running_value"]]

    return keyed_exchange(ds, "user_id", cumulate, table_width(sf_dir, "events"))


def returned_orders_by_priority(sf_dir: str) -> "ray.data.Dataset":
    """(o_orderpriority, n_orders) — orders with at least one RETURNED
    lineitem (``l_returnflag = 'R'``), counted per priority: TPC-H Q4's
    EXISTS semi-join adapted to this schema. The anti-join sibling is
    ``customers_without_orders``; this op completes the join family
    with the SEMI side.

    Orders and the returned keys (per-batch dedup of the lineitem side
    first: one key per batch, not one per returned line) co-partition in
    ONE orderkey ``co_exchange``; each bucket runs a vectorized ``isin``
    and emits its per-priority partial counts for the tiny priority
    aggregate.
    """
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    returned = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_returnflag"]
    )

    def returned_keys(batch: pa.Table) -> pa.Table:
        keys = batch.filter(
            pc.equal(batch.column("l_returnflag"), "R")
        ).column("l_orderkey")
        return pa.table({"key": pc.unique(keys)})

    keys_ds = returned.map_batches(
        returned_keys, batch_format="pyarrow", zero_copy_batch=True
    )

    def semi(parts: dict) -> pd.DataFrame:
        o = parts["o"]
        hit = o[o["o_orderkey"].isin(parts["k"]["key"])]
        out = hit.groupby("o_orderpriority", as_index=False).size()
        out.columns = ["o_orderpriority", "n_orders"]
        return out.astype({"n_orders": "int64"})

    matched = co_exchange(
        {
            "o": (orders, "o_orderkey", typed_frame(o_orderkey="int64", o_orderpriority="object")),
            "k": (keys_ds, "key", typed_frame(key="int64")),
        },
        semi, table_width(sf_dir, "orders"),
    )
    return _sum_by(matched, "o_orderpriority", "n_orders")


def regional_nation_revenue(
    sf_dir: str, region: str = "EUROPE",
    date_from: str = "1996-01-01", date_to: str = "1997-01-01",
) -> "ray.data.Dataset":
    """(n_name, revenue_x10000) — TPC-H Q5: revenue from lineitems of
    orders placed in ``[date_from, date_to)`` whose customer AND
    supplier sit in the same nation of ``region``, per nation (the
    full Q5 contract including the one-year order-date window; TPC-H
    uses 1994, the synthetic corpus spans 1995–2001 so the default is
    1996). Revenue is kept as integer ten-thousandths
    (``Σ round(100·extendedprice) · round(100·(1−discount))``) so the
    aggregate is INTEGER-EXACT — no float summation-order or rounding
    -mode drift between engines.

    The multi-way join, sized per side:

    - region ⋈ nation and supplier: broadcast via ``ray.put`` (dims —
      thousands of rows at any scale; suppliers grow far slower than
      facts; the standard star-schema small side);
    - the order-date window: pushed into the parquet scan itself
      (``read_parquet(filter=...)``) so row groups outside the year
      never leave storage and the filtered rows never enter
      exchange 1;
    - customer ⋈ orders: ONE custkey ``co_exchange`` (both fact-scale
      at 10^10 — neither broadcastable);
    - (customer⋈orders) ⋈ lineitem: ONE orderkey ``co_exchange``; the
      supplier/nation checks and the revenue partial happen inside the
      same group task, so only per-nation partials leave it;
    - final keyed sum over ≤ nations rows.
    """
    nb = table_width(sf_dir, "orders")
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    nk2name = dict(
        nation.merge(
            reg[reg["r_name"] == region], left_on="n_regionkey",
            right_on="r_regionkey",
        )[["n_nationkey", "n_name"]].itertuples(index=False, name=None)
    )
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    supp_nk = dict(supp.itertuples(index=False, name=None))
    dims_ref = ray.put((nk2name, supp_nk))

    customers = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
        filter=_between("o_orderdate", date_from, date_to),
    )
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    # exchange 1: customer ⋈ orders by custkey (region filter applied
    # on the customer side BEFORE the shuffle)
    def region_cust(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["c_nationkey"].isin(ray.get(dims_ref)[0])]

    def join_co(parts: dict) -> pd.DataFrame:
        m = parts["o"].merge(parts["c"], left_on="o_custkey", right_on="c_custkey")
        return pd.DataFrame({"okey": m["o_orderkey"], "nk": m["c_nationkey"].astype("int64")})

    cust_orders = co_exchange(
        {
            "c": (customers.map_batches(region_cust, batch_format="pandas"), "c_custkey",
                  typed_frame(c_custkey="int64", c_nationkey="int32")),
            "o": (orders, "o_custkey", typed_frame(o_orderkey="int64", o_custkey="int64")),
        },
        join_co, nb,
    )

    # exchange 2: ⋈ lineitem by orderkey; revenue partial +
    # supplier-nation check inside the group task
    def line_rev(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_orderkey": df["l_orderkey"], "l_suppkey": df["l_suppkey"],
             "rev": _int_revenue_x10000(df["l_extendedprice"], df["l_discount"])}
        )

    empty = typed_frame(n_name="object", revenue_x10000="int64")

    def join_rev(parts: dict) -> pd.DataFrame:
        nk2name_, supp_nk_ = ray.get(dims_ref)
        m = parts["l"].merge(parts["co"], left_on="l_orderkey", right_on="okey")
        m = m[m["l_suppkey"].map(supp_nk_) == m["nk"]]
        if not len(m):
            return empty.copy()
        out = m.assign(n_name=m["nk"].map(nk2name_)).groupby("n_name", as_index=False)["rev"].sum()
        return pd.DataFrame(
            {"n_name": out["n_name"], "revenue_x10000": out["rev"].astype("int64")}
        )

    joined = co_exchange(
        {
            "co": (cust_orders, "okey", typed_frame(okey="int64", nk="int64")),
            "l": (lineitem.map_batches(line_rev, batch_format="pandas"), "l_orderkey",
                  typed_frame(l_orderkey="int64", l_suppkey="int64", rev="int64")),
        },
        join_rev, nb,
    )
    return _sum_by(joined, "n_name", "revenue_x10000")


def large_quantity_orders(
    sf_dir: str,
    threshold: float = 300.0,
    k: int = 100,
) -> "ray.data.Dataset":
    """TPC-H Q18 (large-volume customer): orders whose total lineitem
    quantity exceeds ``threshold``, joined back to orders + customer,
    top-``k`` by (o_totalprice desc, o_orderdate, o_orderkey).

    The defining shape is the HAVING-filter semi-join: the aggregate
    side is fact-cardinality going IN but selectivity-bounded coming
    OUT (threshold sits far above the quantity p95, ~0.3% of orders
    here). The aggregate and the join share one exchange: per-batch
    partial quantity sums and the orders co-partition on the order key
    (``co_exchange``), and each bucket sums its orders' partials,
    applies the HAVING filter and inner-merges the survivors with their
    orders — no survivor set on the driver and no second shuffle.

    Customer names attach via dim broadcast; the final top-k is a
    per-batch partial top-k pre-reduce, so the driver sees at most
    (blocks × k) rows, then exactly k.
    """
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
    )

    def qty_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", as_index=False)["l_quantity"].sum()
        return g.rename(columns={"l_quantity": "sum_qty"})

    def having_join(parts: dict) -> pd.DataFrame:
        s = parts["s"].groupby("l_orderkey", as_index=False)["sum_qty"].sum()
        s = s[s["sum_qty"] > threshold].rename(columns={"l_orderkey": "o_orderkey"})
        return parts["o"].merge(s, on="o_orderkey", how="inner")

    joined = co_exchange(
        {
            "o": (orders, "o_orderkey", typed_frame(
                o_orderkey="int64", o_custkey="int64", o_totalprice="float64",
                o_orderdate="datetime64[us]",
            )),
            "s": (lineitem.map_batches(qty_partial, batch_format="pandas"), "l_orderkey",
                  typed_frame(l_orderkey="int64", sum_qty="float64")),
        },
        having_join, table_width(sf_dir, "orders"),
    )

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    name_map = dict(
        zip(cust.column("c_custkey").to_pylist(), cust.column("c_name").to_pylist())
    )
    name_ref = ray.put(name_map)
    sort_cols = ["o_totalprice", "o_orderdate", "o_orderkey"]

    def attach_topk(df: pd.DataFrame) -> pd.DataFrame:
        lookup = ray.get(name_ref)
        df = df.copy()
        df["c_name"] = df["o_custkey"].map(lookup)
        df = df.sort_values(
            sort_cols, ascending=[False, True, True], kind="mergesort"
        ).head(k)
        return df[["c_name", "o_custkey", "o_orderkey",
                   "o_orderdate", "o_totalprice", "sum_qty"]]

    partials = joined.map_batches(attach_topk, batch_format="pandas").to_pandas()
    out = partials.sort_values(
        sort_cols, ascending=[False, True, True], kind="mergesort"
    ).head(k)
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


def event_transition_counts(sf_dir: str) -> "ray.data.Dataset":
    """(event_type, next_event_type, n_transitions) — first-order
    Markov transition counts over each user's time-ordered event
    stream (SQL's ``lead() OVER (PARTITION BY user_id ORDER BY ts,
    event_id)``): the sequence-mining primitive behind session-flow /
    next-action models.

    Shape: column-pruned read, ONE user-keyed exchange so each user's
    history co-locates, per-bucket mergesort + vectorized
    ``groupby().shift(-1)``, per-bucket partial pair counts, then a
    tiny (|types|²-row) global sum. The shuffle carries only
    (user, ts, event_id, type); transitions never cross buckets
    because users never cross buckets.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def transitions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        nxt = g.groupby("user_id", sort=False)["event_type"].shift(-1)
        pairs = pd.DataFrame({"event_type": g["event_type"], "next_event_type": nxt})
        pairs = pairs[pairs["next_event_type"].notna()]
        out = pairs.groupby(
            ["event_type", "next_event_type"], as_index=False
        ).size()
        out.columns = ["event_type", "next_event_type", "n_transitions"]
        out["n_transitions"] = out["n_transitions"].astype("int64")
        return out

    return _sum_by(
        keyed_exchange(ds, "user_id", transitions, table_width(sf_dir, "events")),
        ["event_type", "next_event_type"], "n_transitions",
    )


def late_shipment_priority(sf_dir: str, grace_days: int = 90) -> "ray.data.Dataset":
    """(o_orderpriority, n_late, n_ontime) — TPC-H Q12 adapted to this
    schema (no receipt/commit dates): a lineitem ships LATE when
    ``l_shipdate > o_orderdate + grace_days``; count late vs on-time
    lines per order priority.

    Shape: both fact sides column-pruned, ONE orderkey ``co_exchange``
    (the o_orderdate/o_orderpriority pair must meet each line, so no
    pre-aggregation is possible before the join), then per-bucket
    vectorized date compare + CASE-count partials and a tiny
    priority-cardinality global sum. The exchange carries 2 columns
    per line and 3 per order — nothing wider ever shuffles.
    """
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    )
    grace = pd.Timedelta(days=grace_days)

    def per_bucket(parts: dict) -> pd.DataFrame:
        m = parts["l"].merge(parts["o"], left_on="l_orderkey", right_on="o_orderkey")
        late = m["l_shipdate"] > (m["o_orderdate"] + grace)
        out = pd.DataFrame({"o_orderpriority": m["o_orderpriority"], "late": late})
        agg = out.groupby("o_orderpriority", as_index=False).agg(
            n_late=("late", "sum"), n_ontime=("late", lambda s: int((~s).sum()))
        )
        return agg.astype({"n_late": "int64", "n_ontime": "int64"})

    per_bucket_counts = co_exchange(
        {
            "o": (orders, "o_orderkey", typed_frame(
                o_orderkey="int64", o_orderdate="datetime64[us]", o_orderpriority="object"
            )),
            "l": (lines, "l_orderkey", typed_frame(l_orderkey="int64", l_shipdate="datetime64[us]")),
        },
        per_bucket, table_width(sf_dir, "lineitem"),
    )
    return _sum_by(per_bucket_counts, "o_orderpriority", "n_late", "n_ontime")


def rich_idle_customers(sf_dir: str, cutoff: str = "2001-01-01") -> "ray.data.Dataset":
    """(c_mktsegment, n_custs, total_acctbal) — TPC-H Q22 adapted to
    this schema (segment stands in for the phone prefix, and "no
    orders" becomes "no order on/after ``cutoff``" because the
    synthetic book gives every customer at least one lifetime order):
    DORMANT customers whose account balance exceeds the global average
    POSITIVE balance, counted per market segment.

    Shape: the scalar subquery is a distributed (sum, count) partial
    reduce (driver sees one row per block, merged to ONE scalar, then
    broadcast inside the threshold closure); the NOT EXISTS side is
    the general bucketed hash anti-join (both sides arbitrary scale)
    with the recency predicate pushed into the orders parquet scan;
    the final aggregate is segment-cardinality. No customer or order
    list ever lands on the driver.
    """
    bal = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_acctbal"]
    )

    def bal_partial(batch: pa.Table) -> pa.Table:
        arr = batch.column("c_acctbal")
        pos = pc.filter(arr, pc.greater(arr, 0.0))
        return pa.table(
            {"s": [pc.sum(pos).as_py() or 0.0], "n": [len(pos)]}
        )

    parts = bal.map_batches(
        bal_partial, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()  # one row per block: block-count-bounded, ~16 B each
    avg_pos = float(parts["s"].sum()) / max(int(parts["n"].sum()), 1)

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment", "c_acctbal"],
    ).filter(lambda row: row["c_acctbal"] > avg_pos)
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=pads.field("o_orderdate") >= _dt.datetime.fromisoformat(cutoff),
    ).rename_columns({"o_custkey": "c_custkey"})
    idle = anti_join_bucketed(
        cust, orders, "c_custkey",
        typed_frame(c_custkey="int64", c_mktsegment="object", c_acctbal="float64"),
        table_width(sf_dir, "orders"),
    )

    def seg_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c_mktsegment", as_index=False).agg(
            n_custs=("c_custkey", "size"), total_acctbal=("c_acctbal", "sum")
        )
        return g.astype({"n_custs": "int64"})

    out = _sum_by(
        idle.map_batches(seg_partial, batch_format="pandas"),
        "c_mktsegment", "n_custs", "total_acctbal",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["total_acctbal"] = round_half_away(df["total_acctbal"], 2)
        return df

    return out.map_batches(finish, batch_format="pandas")


def two_nation_volume(
    sf_dir: str,
    nation_a: str = "NATION_3",
    nation_b: str = "NATION_7",
    date_from: str = "1996-01-01",
    date_to: str = "1998-01-01",
) -> "ray.data.Dataset":
    """(supp_nation, cust_nation, l_year, revenue_x10000) — TPC-H Q7:
    trade volume between two nations per direction per ship-year, over
    a two-year ship-date window. Reference parity: the generic join/
    aggregate layer the crawl pipelines compose (reference has no SQL
    engine; this is the §2.7/§2.8 relational surface).

    Shape (same two-exchange star plan as Q5
    ``regional_nation_revenue``, different grouping contract):

    - nation names and the supplier→nationkey map broadcast via
      ``ray.put`` (dims);
    - customer rows NOT in either nation drop before the first
      shuffle; the ship-date window is pushed into the lineitem
      parquet scan (row groups outside it never leave storage);
    - exchange 1: customer ⋈ orders by custkey;
    - exchange 2: ⋈ lineitem by orderkey — the supplier-nation lookup,
      direction filter (exactly (a,b) or (b,a)) and the integer-exact
      revenue partial all happen inside the group task, so only
      per-(direction, year) partials leave it;
    - final keyed sum over ≤ 2·years rows."""
    nb = table_width(sf_dir, "orders")
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nk2name = dict(
        nation[nation["n_name"].isin([nation_a, nation_b])].itertuples(
            index=False, name=None
        )
    )
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    supp_nk = dict(supp.itertuples(index=False, name=None))
    dims_ref = ray.put((nk2name, supp_nk))

    customers = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
            "l_shipdate",
        ],
        filter=_between("l_shipdate", date_from, date_to),
    )

    def pair_cust(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["c_nationkey"].isin(ray.get(dims_ref)[0])]

    def join_co(parts: dict) -> pd.DataFrame:
        m = parts["o"].merge(parts["c"], left_on="o_custkey", right_on="c_custkey")
        return pd.DataFrame({"okey": m["o_orderkey"], "cnk": m["c_nationkey"].astype("int64")})

    cust_orders = co_exchange(
        {
            "c": (customers.map_batches(pair_cust, batch_format="pandas"), "c_custkey",
                  typed_frame(c_custkey="int64", c_nationkey="int32")),
            "o": (orders, "o_custkey", typed_frame(o_orderkey="int64", o_custkey="int64")),
        },
        join_co, nb,
    )

    def line_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_orderkey": df["l_orderkey"], "l_suppkey": df["l_suppkey"],
             "yr": df["l_shipdate"].dt.year.astype("int64"),
             "rev": _int_revenue_x10000(df["l_extendedprice"], df["l_discount"])}
        )

    empty = typed_frame(
        supp_nation="object", cust_nation="object", l_year="int64", revenue_x10000="int64"
    )

    def join_vol(parts: dict) -> pd.DataFrame:
        nk2name_, supp_nk_ = ray.get(dims_ref)
        m = parts["l"].merge(parts["co"], left_on="l_orderkey", right_on="okey")
        m = m.assign(snk=m["l_suppkey"].map(supp_nk_))
        # both endpoints in {a,b} and distinct ⇒ exactly (a,b) or (b,a)
        m = m[m["snk"].isin(nk2name_) & (m["snk"] != m["cnk"])]
        if not len(m):
            return empty.copy()
        m = m.assign(supp_nation=m["snk"].map(nk2name_), cust_nation=m["cnk"].map(nk2name_))
        out = m.groupby(["supp_nation", "cust_nation", "yr"], as_index=False)["rev"].sum()
        return pd.DataFrame(
            {"supp_nation": out["supp_nation"],
             "cust_nation": out["cust_nation"],
             "l_year": out["yr"].astype("int64"),
             "revenue_x10000": out["rev"].astype("int64")}
        )

    joined = co_exchange(
        {
            "co": (cust_orders, "okey", typed_frame(okey="int64", cnk="int64")),
            "l": (lineitem.map_batches(line_rows, batch_format="pandas"), "l_orderkey",
                  typed_frame(l_orderkey="int64", l_suppkey="int64", yr="int64", rev="int64")),
        },
        join_vol, nb,
    )
    return _sum_by(joined, ["supp_nation", "cust_nation", "l_year"], "revenue_x10000")


def returned_customer_revenue(
    sf_dir: str,
    date_from: str = "1996-01-01",
    date_to: str = "1996-07-01",
    k: int = 20,
) -> "ray.data.Dataset":
    """(c_custkey, c_name, n_name, revenue_x10000) — TPC-H Q10: the
    top-``k`` customers by revenue from RETURNED lineitems
    (``l_returnflag = 'R'``) of orders placed in the window, with the
    customer's nation attached; ties broken by custkey.

    Scale shape — aggregate first, join the tiny winner set back:

    - both scans pruned AND filtered at the read (order-date window
      on orders, returnflag on lineitem — row groups that can't match
      never leave storage);
    - exchange 1: orders ⋈ lineitem by orderkey (``co_exchange``);
      per-batch partial revenue per order shrinks the lineitem side
      before the shuffle; the group task emits (custkey, rev) partials;
    - exchange 2: keyed sum per custkey (10^9 customers — stays
      distributed), then distributed sort + limit for the top-k;
    - the ≤k winner custkeys broadcast back into a PRUNED customer
      scan (semi-join in the read path — never a customer-side
      shuffle); nation names via a dim broadcast."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
        filter=_between("o_orderdate", date_from, date_to),
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_returnflag") == "R",
    )

    def line_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_orderkey": df["l_orderkey"],
             "rev": _int_revenue_x10000(df["l_extendedprice"], df["l_discount"])}
        ).groupby("l_orderkey", as_index=False)["rev"].sum()  # per-batch partial

    def join_rev(parts: dict) -> pd.DataFrame:
        m = parts["l"].merge(parts["o"], left_on="l_orderkey", right_on="o_orderkey")
        out = m.groupby("o_custkey", as_index=False)["rev"].sum()
        return pd.DataFrame(
            {"c_custkey": out["o_custkey"].astype("int64"), "rev": out["rev"].astype("int64")}
        )

    per_cust = co_exchange(
        {
            "o": (orders, "o_orderkey", typed_frame(o_orderkey="int64", o_custkey="int64")),
            "l": (li.map_batches(line_partial, batch_format="pandas"), "l_orderkey",
                  typed_frame(l_orderkey="int64", rev="int64")),
        },
        join_rev, table_width(sf_dir, "orders"),
    ).groupby("c_custkey").sum("rev")
    winners = (
        per_cust.sort(["sum(rev)", "c_custkey"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )  # ≤ k rows — bounded driver read by construction

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nk2name = dict(nation.itertuples(index=False, name=None))
    win_rev = dict(
        zip(winners["c_custkey"].tolist(), winners["sum(rev)"].tolist())
    )
    win_ref = ray.put((win_rev, nk2name))

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
    )

    def attach(t: pa.Table) -> pa.Table:
        # zero-copy semi-join against the ≤k winner set; survivors are
        # ≤k rows so the per-row mapping after the filter is bounded
        win_rev_, nk2name_ = ray.get(win_ref)
        d = t.filter(pc.is_in(
            t.column("c_custkey"),
            value_set=pa.array(list(win_rev_), pa.int64()),
        ))
        ck = d.column("c_custkey").to_pylist()
        nk = d.column("c_nationkey").to_pylist()
        return pa.table(
            {"c_custkey": pa.array(ck, pa.int64()),
             "c_name": d.column("c_name"),
             "n_name": pa.array([nk2name_[x] for x in nk], pa.string()),
             "revenue_x10000": pa.array(
                 [int(win_rev_[x]) for x in ck], pa.int64())}
        )

    return cust.map_batches(attach, batch_format="pyarrow")


def promo_revenue_share(
    sf_dir: str,
    date_from: str = "1996-01-01",
    date_to: str = "1996-02-01",
) -> pa.Table:
    """One row (promo_revenue_x10000, total_revenue_x10000) — TPC-H
    Q14: revenue from PROMO-type parts vs all revenue in a one-month
    ship window. Both sums integer-exact; the ratio is the caller's
    division (two exact ints hash-compare cleanly across engines, a
    float share wouldn't).

    Shape: part is fact-scale at 10^10 lineitems (~10^8 parts — too
    big to broadcast), so part.(p_partkey, p_type) ⋈ lineitem runs as
    ONE partkey ``co_exchange``; the lineitem side pre-reduces per
    (partkey) per batch, the ship window is pushed into the scan, and
    each group task emits a single (promo, total) partial — the driver
    reads ≤ n rows."""
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
        filter=_between("l_shipdate", date_from, date_to),
    )

    def line_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_partkey": df["l_partkey"],
             "rev": _int_revenue_x10000(df["l_extendedprice"], df["l_discount"])}
        ).groupby("l_partkey", as_index=False)["rev"].sum()  # per-batch partial

    def per_bucket(parts: dict) -> pd.DataFrame:
        m = parts["l"].merge(parts["p"], left_on="l_partkey", right_on="p_partkey")
        promo = (m["p_type"] == "PROMO").to_numpy()
        rev = m["rev"].to_numpy(np.int64)
        return pd.DataFrame(
            {"promo_revenue_x10000": [np.int64(rev[promo].sum())],
             "total_revenue_x10000": [np.int64(rev.sum())]}
        )

    return _scalar_partials(
        co_exchange(
            {
                "p": (part, "p_partkey", typed_frame(p_partkey="int64", p_type="object")),
                "l": (li.map_batches(line_partial, batch_format="pandas"), "l_partkey",
                      typed_frame(l_partkey="int64", rev="int64")),
            },
            per_bucket, table_width(sf_dir, "lineitem"),
        ),
        ["promo_revenue_x10000", "total_revenue_x10000"],
    )


def top_revenue_supplier(
    sf_dir: str,
    date_from: str = "1996-01-01",
    date_to: str = "1996-04-01",
) -> "ray.data.Dataset":
    """(s_suppkey, s_name, total_revenue_x10000) — TPC-H Q15: the
    supplier(s) whose shipped revenue over the window equals the
    global maximum (ALL argmax rows, as Q15's view formulation
    demands — ties survive).

    Shape — argmax over an aggregate without any driver-side table:

    - per-suppkey revenue: per-batch partial pre-agg inside the scan,
      then ONE keyed ``groupby(suppkey).sum`` exchange (supplier
      cardinality ~10^8 — stays a Dataset);
    - the scalar max via the distributed ``Dataset.max`` aggregate
      (tree-reduced, one number on the driver);
    - winners = filter(total == max) — a scan over the per-supplier
      aggregate, no re-shuffle;
    - names attached from a PRUNED supplier read semi-joined against
      the broadcast winner set (≤ ties rows)."""
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=_between("l_shipdate", date_from, date_to),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame(
            {"s_suppkey": df["l_suppkey"].astype("int64"),
             "rev": _int_revenue_x10000(df["l_extendedprice"], df["l_discount"])}
        ).groupby("s_suppkey", as_index=False)["rev"].sum()
        return g

    per_supp = (
        li.map_batches(partial, batch_format="pandas")
        .groupby("s_suppkey")
        .sum("rev")
    ).materialize()  # per-supplier rows (≪ facts) — pinned in the
    # object store so the max pass and the winner scan don't
    # re-execute the fact scan + exchange
    best = per_supp.max("sum(rev)")  # distributed scalar reduce

    win = per_supp.map_batches(
        lambda df: df[df["sum(rev)"] == best], batch_format="pandas"
    ).to_pandas()  # ≤ #ties rows
    win_rev = dict(zip(win["s_suppkey"].tolist(), win["sum(rev)"].tolist()))
    win_ref = ray.put(win_rev)

    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )

    def attach(t: pa.Table) -> pa.Table:
        win_rev_ = ray.get(win_ref)
        d = t.filter(pc.is_in(
            t.column("s_suppkey"),
            value_set=pa.array(list(win_rev_), pa.int64()),
        ))
        sk = d.column("s_suppkey").to_pylist()  # ≤ #ties rows
        return pa.table(
            {"s_suppkey": pa.array(sk, pa.int64()),
             "s_name": d.column("s_name"),
             "total_revenue_x10000": pa.array(
                 [int(win_rev_[x]) for x in sk], pa.int64())}
        )

    return supp.map_batches(attach, batch_format="pyarrow")


def small_quantity_revenue(sf_dir: str, brand: str = "Brand#4") -> pa.Table:
    """One row (total_extprice_x100, n_small_lines) — TPC-H Q17: the
    extended-price volume of lineitems of ``brand`` parts whose
    quantity is below 20% of that part's average lineitem quantity
    (the lost-revenue-from-small-orders probe).

    The correlated subquery (per-part average over ALL lineitems)
    becomes key-local algebra: ONE partkey ``co_exchange`` co-locates a
    part's brand flag with every one of its lineitems, and the group
    task evaluates the threshold exactly — quantities are integral, so
    ``qty < avg/5`` is tested as ``5·qty·n_lines < sum_qty`` in int64
    (NO float average, hence no engine-specific summation-order
    boundary). Driver reads ≤ n single-row partials."""
    brand_parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey"],
        filter=pads.field("p_brand") == brand,
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )

    def line_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_partkey": df["l_partkey"],
             "qty": df["l_quantity"].round().astype("int64"),
             "ext": (df["l_extendedprice"] * 100).round().astype("int64")}
        )

    def per_bucket(parts: dict) -> pd.DataFrame:
        l = parts["l"]
        # per-part (sum_qty, n) over ALL lineitems, then the exact
        # integer threshold 5·qty·n < sum_qty on brand parts only
        stats = l.groupby("l_partkey")["qty"].agg(sum_qty="sum", n="size")
        lb = l[l["l_partkey"].isin(parts["p"]["p_partkey"])]
        st = stats.loc[lb["l_partkey"]]
        small = (5 * lb["qty"].to_numpy() * st["n"].to_numpy()) < st["sum_qty"].to_numpy()
        return pd.DataFrame(
            {"total_extprice_x100": [np.int64(lb["ext"].to_numpy()[small].sum())],
             "n_small_lines": [np.int64(small.sum())]}
        )

    return _scalar_partials(
        co_exchange(
            {
                "p": (brand_parts, "p_partkey", typed_frame(p_partkey="int64")),
                "l": (li.map_batches(line_rows, batch_format="pandas"), "l_partkey",
                      typed_frame(l_partkey="int64", qty="int64", ext="int64")),
            },
            per_bucket, table_width(sf_dir, "lineitem"),
        ),
        ["total_extprice_x100", "n_small_lines"],
    )


def disjunctive_predicate_revenue(sf_dir: str) -> pa.Table:
    """One row (revenue_x10000, n_lines) — TPC-H Q19: revenue from
    lineitems matching ANY of three brand/size/quantity conjunctions
    (the disjunctive-predicate join no planner can push as a single
    column filter):

    - Brand#1, size 1–5,  quantity 1–11
    - Brand#2, size 1–10, quantity 10–20
    - Brand#3, size 1–15, quantity 20–30

    Shape: the quantity-envelope (1–30, the UNION of the three ranges)
    and brand-set prefilters ARE pushable and are pushed into the
    scans; the residual disjunction is evaluated vectorized inside the
    partkey ``co_exchange`` group task where a part's (brand, size)
    meets its lineitems. Driver reads ≤ n single-row partials."""
    brands = ["Brand#1", "Brand#2", "Brand#3"]
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_size"],
        filter=pads.field("p_brand").isin(brands)
        & (pads.field("p_size") >= 1) & (pads.field("p_size") <= 15),
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_quantity") >= 1.0)
        & (pads.field("l_quantity") <= 30.0),
    )

    def part_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"p_partkey": df["p_partkey"],
             "bno": df["p_brand"].str.removeprefix("Brand#").astype("int64"),
             "size": df["p_size"].astype("int64")}
        )

    def line_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_partkey": df["l_partkey"], "qty": df["l_quantity"],
             "rev": _int_revenue_x10000(df["l_extendedprice"], df["l_discount"])}
        )

    def per_bucket(parts: dict) -> pd.DataFrame:
        m = parts["l"].merge(parts["p"], left_on="l_partkey", right_on="p_partkey")
        bno, size, qty = m["bno"].to_numpy(), m["size"].to_numpy(), m["qty"].to_numpy()
        hit = (
            ((bno == 1) & (size <= 5) & (qty >= 1) & (qty <= 11))
            | ((bno == 2) & (size <= 10) & (qty >= 10) & (qty <= 20))
            | ((bno == 3) & (size <= 15) & (qty >= 20) & (qty <= 30))
        )
        return pd.DataFrame(
            {"revenue_x10000": [np.int64(m["rev"].to_numpy()[hit].sum())],
             "n_lines": [np.int64(hit.sum())]}
        )

    return _scalar_partials(
        co_exchange(
            {
                "p": (part.map_batches(part_rows, batch_format="pandas"), "p_partkey",
                      typed_frame(p_partkey="int64", bno="int64", size="int64")),
                "l": (li.map_batches(line_rows, batch_format="pandas"), "l_partkey",
                      typed_frame(l_partkey="int64", qty="float64", rev="int64")),
            },
            per_bucket, table_width(sf_dir, "lineitem"),
        ),
        ["revenue_x10000", "n_lines"],
    )


def nation_market_share(
    sf_dir: str,
    supp_nation: str = "NATION_3",
    cust_region: str = "EUROPE",
    part_type: str = "PROMO",
    date_from: str = "1995-01-01",
    date_to: str = "1997-01-01",
) -> "ray.data.Dataset":
    """(o_year, nation_revenue_x10000, total_revenue_x10000) — TPC-H Q8
    adapted to this schema (no ``partsupp``): within orders placed by
    customers of one region in a two-year window, on lineitems of one
    part type, the per-order-year revenue delivered by suppliers of one
    nation vs the total.  The share is returned as its two integer-
    exact components (numerator, denominator) so the gate hashes exact
    values instead of a float division.  Reference parity: §2.7/§2.8
    relational surface (the reference has no SQL engine).

    Scale shape (same two-exchange star as Q5/Q7):

    - dims broadcast once via ``ray.put``: the region's nationkey set,
      the supplier→nationkey map, the target nationkey, and the
      filtered-part keyset (only parts of ``part_type`` — at 100 TB
      this is the type's share of partkeys; if that outgrows a
      broadcast, swap for the Q16 partkey co-partition — same
      in-bucket kernel);
    - order-date window pushed into the orders parquet scan; customers
      outside the region drop before exchange 1; lineitems of other
      part types drop before exchange 2;
    - exchange 1 (custkey): customer ⋈ orders → (okey, year);
    - exchange 2 (orderkey): ⋈ lineitem — supplier-nation lookup and
      both integer revenue partials happen in the group task, so only
      per-year (num, den) partials leave it;
    - final keyed sum over ≤ years rows."""
    nb = table_width(sf_dir, "orders")
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    ).to_pandas()
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    rkey = int(region.loc[region["r_name"] == cust_region, "r_regionkey"].iloc[0])
    region_nks = frozenset(
        nation.loc[nation["n_regionkey"] == rkey, "n_nationkey"].astype(int)
    )
    target_nk = int(nation.loc[nation["n_name"] == supp_nation, "n_nationkey"].iloc[0])
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    supp_nk = dict(supp.itertuples(index=False, name=None))
    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).to_pandas()
    part_keys = np.sort(
        part.loc[part["p_type"] == part_type, "p_partkey"].to_numpy(np.int64)
    )
    dims_ref = ray.put((region_nks, supp_nk, part_keys))

    customers = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=_between("o_orderdate", date_from, date_to),
    )
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"],
    )

    def region_cust(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["c_nationkey"].isin(ray.get(dims_ref)[0]), ["c_custkey"]]

    def join_co(parts: dict) -> pd.DataFrame:
        m = parts["o"].merge(parts["c"], left_on="o_custkey", right_on="c_custkey")
        return pd.DataFrame({"okey": m["o_orderkey"], "yr": m["o_orderdate"].dt.year.astype("int64")})

    cust_orders = co_exchange(
        {
            "c": (customers.map_batches(region_cust, batch_format="pandas"), "c_custkey",
                  typed_frame(c_custkey="int64")),
            "o": (orders, "o_custkey", typed_frame(
                o_orderkey="int64", o_custkey="int64", o_orderdate="datetime64[us]"
            )),
        },
        join_co, nb,
    )

    def type_lines(df: pd.DataFrame) -> pd.DataFrame:
        d = df[np.isin(df["l_partkey"].to_numpy(np.int64), ray.get(dims_ref)[2])]
        return pd.DataFrame(
            {"l_orderkey": d["l_orderkey"], "l_suppkey": d["l_suppkey"],
             "rev": _int_revenue_x10000(d["l_extendedprice"], d["l_discount"])}
        )

    empty = typed_frame(o_year="int64", nation_revenue_x10000="int64", total_revenue_x10000="int64")

    def join_share(parts: dict) -> pd.DataFrame:
        supp_nk_ = ray.get(dims_ref)[1]
        m = parts["l"].merge(parts["co"], left_on="l_orderkey", right_on="okey")
        if not len(m):
            return empty.copy()
        is_target = m["l_suppkey"].map(supp_nk_).to_numpy() == target_nk
        m["num"] = np.where(is_target, m["rev"], 0).astype("int64")
        out = m.groupby("yr", as_index=False).agg(
            nation_revenue_x10000=("num", "sum"),
            total_revenue_x10000=("rev", "sum"),
        )
        return out.rename(columns={"yr": "o_year"}).astype("int64")

    joined = co_exchange(
        {
            "co": (cust_orders, "okey", typed_frame(okey="int64", yr="int64")),
            "l": (lineitem.map_batches(type_lines, batch_format="pandas"), "l_orderkey",
                  typed_frame(l_orderkey="int64", l_suppkey="int64", rev="int64")),
        },
        join_share, nb,
    )
    return _sum_by(joined, "o_year", "nation_revenue_x10000", "total_revenue_x10000")


def customer_order_distribution(
    sf_dir: str, exclude_priority: str = "PRIORITY_1"
) -> "ray.data.Dataset":
    """(c_count, custdist) — TPC-H Q13: the distribution of per-
    customer order counts (how many customers placed exactly N
    qualifying orders), INCLUDING the zero bucket, with one order
    class excluded (adapted predicate: ``o_orderpriority <>
    exclude_priority`` — this schema has no ``o_comment``).

    Scale shape — LEFT JOIN COUNT as a two-level count aggregation,
    no driver-side scalar arithmetic:

    - per-batch partial counts: every qualifying order batch emits its
      per-custkey partial count, so exchange 1 (a custkey
      ``co_exchange`` of customers and those partials) carries
      customer-cardinality + per-(batch × custkey) count rows, never
      raw orders;
    - per-bucket sum gives each customer's exact order count (every
      customer row counts in, so customers with no orders surface as
      count 0 — LEFT JOIN semantics);
    - per-bucket histogram partials (count rows per c_count) feed a
      final small keyed sum over ≤ buckets × distinct-counts rows."""
    customers = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"],
        filter=pads.field("o_orderpriority") != exclude_priority,
    )

    def order_counts(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_custkey", as_index=False).size().rename(columns={"size": "n"})

    def bucket_hist(parts: dict) -> pd.DataFrame:
        o = parts["o"].set_index("o_custkey")["n"]
        per_cust = o.groupby(level=0).sum().reindex(parts["c"]["c_custkey"], fill_value=0)
        hist = per_cust.value_counts()
        return pd.DataFrame(
            {"c_count": hist.index.to_numpy(np.int64), "custdist": hist.to_numpy(np.int64)}
        )

    return _sum_by(
        co_exchange(
            {
                "c": (customers, "c_custkey", typed_frame(c_custkey="int64")),
                "o": (orders.map_batches(order_counts, batch_format="pandas"), "o_custkey",
                      typed_frame(o_custkey="int64", n="int64")),
            },
            bucket_hist, table_width(sf_dir, "orders"),
        ),
        "c_count", "custdist",
    )


def part_supplier_variety(
    sf_dir: str,
    exclude_brand: str = "Brand#1",
    sizes: tuple = (1, 3, 5, 7),
) -> "ray.data.Dataset":
    """(p_brand, p_type, p_size, supplier_cnt) — TPC-H Q16 adapted to
    this schema: for every (brand, type, size) combination of interest,
    how many DISTINCT suppliers have actually shipped such a part —
    with one brand excluded, sizes restricted to a set, and
    "complaint" suppliers (adapted: ``s_acctbal < 0``; no ``s_comment``
    here) removed.  The part-supplier pairing comes from lineitem
    (this schema has no ``partsupp``).

    Scale shape — dedup early, join small, dedup again on the group
    key:

    - per-batch distinct (partkey, suppkey) BEFORE the first exchange
      (lineitem rows collapse to the pair universe per batch);
    - excluded-supplier keyset broadcast via ``ray.put`` (complaint
      sets are tiny by construction);
    - exchange 1 (partkey ``co_exchange``): pair rows ⋈ filtered
      part-attr rows, in-bucket pair dedup — emits distinct (brand,
      type, size, suppkey) rows only;
    - exchange 2 (keyed on the attr triple): cross-part supplier dedup
      and the final count — each group task owns whole triples, so
      the count is exact with no driver collection."""
    nb = table_width(sf_dir, "lineitem")
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"]
    ).to_pandas()
    bad_keys = np.sort(
        supp.loc[supp["s_acctbal"] < 0, "s_suppkey"].to_numpy(np.int64)
    )
    bad_ref = ray.put(bad_keys)

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
        filter=(pads.field("p_brand") != exclude_brand)
        & pads.field("p_size").isin(list(sizes)),
    )
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )

    def good_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        return d[~np.isin(d["l_suppkey"].to_numpy(np.int64), ray.get(bad_ref))]

    triple = ["p_brand", "p_type", "p_size"]

    def join_attrs(parts: dict) -> pd.DataFrame:
        m = parts["l"].drop_duplicates().merge(parts["p"], left_on="l_partkey", right_on="p_partkey")
        m = m[triple + ["l_suppkey"]].drop_duplicates()
        return m.astype({"p_size": "int64"})

    def count_distinct(g: pd.DataFrame) -> pd.DataFrame:
        out = g.drop_duplicates().groupby(triple, as_index=False).size()
        return pd.DataFrame(
            {"p_brand": out["p_brand"], "p_type": out["p_type"],
             "p_size": out["p_size"].astype("int64"),
             "supplier_cnt": out["size"].astype("int64")}
        )

    triples = co_exchange(
        {
            "l": (lineitem.map_batches(good_pairs, batch_format="pandas"), "l_partkey",
                  typed_frame(l_partkey="int64", l_suppkey="int64")),
            "p": (part, "p_partkey", typed_frame(
                p_partkey="int64", p_brand="object", p_type="object", p_size="int32"
            )),
        },
        join_attrs, nb,
    )
    return keyed_exchange(triples, triple, count_distinct, nb)


def important_parts(
    sf_dir: str,
    supp_nation: str = "NATION_2",
    fraction_num: int = 1,
    fraction_den: int = 1000,
) -> "ray.data.Dataset":
    """(l_partkey, value_x100) — TPC-H Q11 adapted to this schema
    (no ``partsupp``): per-part shipped value (``Σ extprice_x100 ×
    qty``) restricted to one supplier nation, keeping only parts whose
    value exceeds ``fraction`` of the nation's total — the global-
    threshold HAVING shape.  The threshold compare is integer-rational
    (``value × den > total × num``) so no float crosses the gate.

    Scale shape:

    - supplier→nation filter is a broadcast keyset (suppliers of one
      nation); non-matching lineitems drop in the scan task;
    - per-batch partial (partkey, value) sums BEFORE the exchange, so
      the keyed sum sees per-(batch × partkey) partials, not rows;
    - ONE partkey exchange produces exact per-part values; the global
      total is the Sum aggregate of that same dataset — a scalar, the
      only thing the driver reads before the final distributed filter."""
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nk = int(nation.loc[nation["n_name"] == supp_nation, "n_nationkey"].iloc[0])
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    nation_supp = np.sort(
        supp.loc[supp["s_nationkey"] == nk, "s_suppkey"].to_numpy(np.int64)
    )
    supp_ref = ray.put(nation_supp)

    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"],
    )

    def partial_values(df: pd.DataFrame) -> pd.DataFrame:
        d = df[np.isin(df["l_suppkey"].to_numpy(np.int64), ray.get(supp_ref))]
        val = (d["l_extendedprice"] * 100).round().astype("int64") * d[
            "l_quantity"
        ].round().astype("int64")
        return pd.DataFrame(
            {"l_partkey": d["l_partkey"].astype("int64"), "value_x100": val}
        ).groupby("l_partkey", as_index=False)["value_x100"].sum()

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("l_partkey", as_index=False)["value_x100"].sum()
        return out.astype({"l_partkey": "int64", "value_x100": "int64"})

    per_part_ds = keyed_exchange(
        lineitem.map_batches(partial_values, batch_format="pandas"), "l_partkey", per_part,
        table_width(sf_dir, "lineitem"),
    ).materialize()  # reused by the total pass and the filter pass
    total = per_part_ds.sum("value_x100") or 0
    threshold_num = int(total) * fraction_num  # value*den > total*num

    def keep_important(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["value_x100"] * fraction_den > threshold_num]

    return per_part_ds.map_batches(keep_important, batch_format="pandas")


def nation_year_profit(sf_dir: str, name_word: str = "red") -> "ray.data.Dataset":
    """(n_name, o_year, profit_x10000) — TPC-H Q9 adapted to this
    schema (no ``partsupp``): per supplier-nation per order-year profit
    on parts whose name contains ``name_word``, with the part's retail
    price standing in for ``ps_supplycost`` (``profit = extprice ×
    (1-disc) − retailprice × qty``), all in integer ten-thousandths so
    the gate hashes exact values.  Profit may legitimately be negative.

    Scale shape:

    - dims broadcast once via ``ray.put``: the filtered partkey →
      retailprice_x100 map (one part-name word's share of the part
      table), supplier→nationkey, nationkey→name;
    - lineitems of non-matching parts drop in the scan task, which
      also computes both integer money partials — the exchange never
      carries part or price columns;
    - ONE orderkey ``co_exchange`` joins the order year in;
      supplier-nation mapping and per-(nation, year) partial sums
      happen in the group task, so only ≤ nations × years rows per
      bucket leave it;
    - final keyed sum over ≤ nations × years rows."""
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nk2name = dict(nation.itertuples(index=False, name=None))
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    supp_nk = dict(supp.itertuples(index=False, name=None))
    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name", "p_retailprice"]
    ).to_pandas()
    sel = part[part["p_name"].str.contains(name_word, regex=False)]
    retail_x100 = dict(
        zip(sel["p_partkey"].astype(int),
            (sel["p_retailprice"] * 100).round().astype("int64"))
    )
    dims_ref = ray.put((nk2name, supp_nk, retail_x100))

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    )
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount", "l_quantity"],
    )

    def line_profit(df: pd.DataFrame) -> pd.DataFrame:
        cost_unit = df["l_partkey"].map(ray.get(dims_ref)[2])
        d = df[cost_unit.notna()]
        rev = _int_revenue_x10000(d["l_extendedprice"], d["l_discount"])
        # retail is per-unit cents → ×100 matches the rev scale, ×qty
        cost = (
            cost_unit[cost_unit.notna()].astype("int64") * 100
            * d["l_quantity"].round().astype("int64")
        )
        return pd.DataFrame(
            {"l_orderkey": d["l_orderkey"], "l_suppkey": d["l_suppkey"],
             "profit": (rev - cost).astype("int64")}
        )

    empty = typed_frame(n_name="object", o_year="int64", profit_x10000="int64")

    def join_profit(parts: dict) -> pd.DataFrame:
        nk2name_, supp_nk_, _ = ray.get(dims_ref)
        m = parts["l"].merge(parts["o"], left_on="l_orderkey", right_on="o_orderkey")
        if not len(m):
            return empty.copy()
        m["n_name"] = m["l_suppkey"].map(supp_nk_).map(nk2name_)
        m["o_year"] = m["o_orderdate"].dt.year.astype("int64")
        out = m.groupby(["n_name", "o_year"], as_index=False)["profit"].sum()
        return out.rename(columns={"profit": "profit_x10000"}).astype({"profit_x10000": "int64"})

    joined = co_exchange(
        {
            "o": (orders, "o_orderkey", typed_frame(o_orderkey="int64", o_orderdate="datetime64[us]")),
            "l": (lineitem.map_batches(line_profit, batch_format="pandas"), "l_orderkey",
                  typed_frame(l_orderkey="int64", l_suppkey="int64", profit="int64")),
        },
        join_profit, table_width(sf_dir, "lineitem"),
    )
    return _sum_by(joined, ["n_name", "o_year"], "profit_x10000")


def min_cost_supplier(
    sf_dir: str,
    region: str = "ASIA",
    size: int = 5,
    part_type: str = "SMALL",
    k: int = 100,
) -> "pa.Table":
    """(s_acctbal_x100, s_name, n_name, p_partkey) — TPC-H Q2 adapted
    to this schema: for parts of one size and type, the region
    suppliers that actually shipped the part (pairing from lineitem —
    no ``partsupp``) holding the part's MINIMUM account balance
    (``s_acctbal`` standing in for ``ps_supplycost``; ties keep every
    minimal supplier, exactly as Q2's correlated-min keeps all), top-k
    by (acctbal desc, n_name, s_name, p_partkey).

    Scale shape:

    - per-batch distinct (partkey, suppkey) before the exchange;
    - region-supplier attribute map (suppkey → acctbal_x100, name,
      nation name) broadcast once via ``ray.put`` — supplier is the
      smallest fact (10k rows/SF); non-region suppliers drop in the
      scan task;
    - filtered part rows meet the pairs in ONE partkey ``co_exchange``
      (no part-table broadcast — the Q16 pattern);
    - in-bucket: pair dedup, attr join, per-part correlated min, then
      a per-bucket top-k prune under the FINAL total order, so the
      driver assembles the answer from ≤ buckets × k rows."""
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    ).to_pandas()
    regiont = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    rkey = int(regiont.loc[regiont["r_name"] == region, "r_regionkey"].iloc[0])
    rnat = nation[nation["n_regionkey"] == rkey]
    nk2name = dict(zip(rnat["n_nationkey"].astype(int), rnat["n_name"]))
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_nationkey", "s_acctbal"],
    ).to_pandas()
    supp = supp[supp["s_nationkey"].isin(nk2name)]
    supp_attrs = {
        int(r.s_suppkey): (
            int(round(r.s_acctbal * 100)), r.s_name, nk2name[int(r.s_nationkey)]
        )
        for r in supp.itertuples(index=False)
    }
    attrs_ref = ray.put(supp_attrs)

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey"],
        filter=(pads.field("p_size") == size)
        & (pads.field("p_type") == part_type),
    )
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )

    def region_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        return d[d["l_suppkey"].isin(ray.get(attrs_ref))]

    empty = typed_frame(s_acctbal_x100="int64", s_name="object", n_name="object", p_partkey="int64")

    def per_part_min(parts: dict) -> pd.DataFrame:
        attrs = ray.get(attrs_ref)
        m = parts["l"].drop_duplicates().merge(parts["p"], left_on="l_partkey", right_on="p_partkey")
        if not len(m):
            return empty.copy()
        trip = m["l_suppkey"].map(attrs)
        m = m.assign(
            s_acctbal_x100=[t[0] for t in trip],
            s_name=[t[1] for t in trip],
            n_name=[t[2] for t in trip],
        )
        part_min = m.groupby("p_partkey")["s_acctbal_x100"].transform("min")
        m = m[m["s_acctbal_x100"] == part_min]
        # per-bucket prune under the final total order (acctbal desc,
        # nation, supplier, part — unique within a bucket)
        m = m.sort_values(
            ["s_acctbal_x100", "n_name", "s_name", "p_partkey"],
            ascending=[False, True, True, True], kind="mergesort",
        ).head(k)
        return m[list(empty.columns)].astype({"s_acctbal_x100": "int64", "p_partkey": "int64"})

    finalists = co_exchange(
        {
            "l": (lineitem.map_batches(region_pairs, batch_format="pandas"), "l_partkey",
                  typed_frame(l_partkey="int64", l_suppkey="int64")),
            "p": (part, "p_partkey", typed_frame(p_partkey="int64")),
        },
        per_part_min, table_width(sf_dir, "lineitem"),
    ).to_pandas()  # ≤ buckets × k pruned rows
    if not len(finalists):
        return pa.Table.from_pandas(empty, preserve_index=False)
    out = finalists.sort_values(
        ["s_acctbal_x100", "n_name", "s_name", "p_partkey"],
        ascending=[False, True, True, True], kind="mergesort",
    ).head(k).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def sole_late_bucket(parts: dict, grace_days: int) -> pd.DataFrame:
    """One bucket of ``sole_late_supplier``: ``parts["o"]`` holds
    orders (``o_orderkey, o_orderdate``), ``parts["l"]`` their lines
    (``l_orderkey, l_suppkey, l_shipdate``). Returns (skey, cnt): per
    supplier, the orders on which it was the ONLY late supplier among
    at least two distinct suppliers."""
    m = parts["l"].merge(parts["o"], left_on="l_orderkey", right_on="o_orderkey")
    late = m[m["l_shipdate"] > (m["o_orderdate"] + pd.Timedelta(days=grace_days))]
    per = m.groupby("l_orderkey")["l_suppkey"].nunique().to_frame("ns")
    per["nl"] = late.groupby("l_orderkey")["l_suppkey"].nunique().reindex(per.index, fill_value=0)
    per["lsup"] = late.groupby("l_orderkey")["l_suppkey"].max().reindex(per.index, fill_value=-1)
    hit = per[(per["ns"] >= 2) & (per["nl"] == 1)]
    out = hit.groupby("lsup").size()
    return pd.DataFrame({"skey": out.index.to_numpy(np.int64), "cnt": out.to_numpy(np.int64)})


def sole_late_supplier(
    sf_dir: str,
    supp_nation: str = "NATION_3",
    grace_days: int = 60,
    k: int = 20,
) -> "pa.Table":
    """(s_name, numwait) — TPC-H Q21 adapted to this schema: suppliers
    of one nation who were the ONLY late supplier on a finalized
    multi-supplier order, counted per supplier, top-k by (numwait
    desc, s_name).  "Late" is ``l_shipdate > o_orderdate +
    grace_days`` (this schema has no commit/receipt dates — the same
    adaptation ``late_shipment_counts`` documents).

    Scale shape:

    - finalized orders only (``o_orderstatus = 'F'``) pushed into the
      scan; ONE orderkey ``co_exchange`` co-locates each order's
      lineitems with its date row;
    - the whole per-order EXISTS/NOT-EXISTS pair is vectorized inside
      the group task (:func:`sole_late_bucket`: distinct-supplier
      count ≥ 2, distinct-late == 1) and collapses to per-(bucket ×
      suppkey) count partials;
    - final keyed sum over supplier-cardinality partials, nation
      filter by broadcast map, then per-bucket top-k prune → the
      driver assembles from ≤ buckets × k rows."""
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nk = int(nation.loc[nation["n_name"] == supp_nation, "n_nationkey"].iloc[0])
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name", "s_nationkey"]
    ).to_pandas()
    supp = supp[supp["s_nationkey"] == nk]
    name_map = dict(zip(supp["s_suppkey"].astype(int), supp["s_name"]))
    names_ref = ray.put(name_map)

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"],
        filter=pads.field("o_orderstatus") == "F",
    )
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )

    def topk_prune(df: pd.DataFrame) -> pd.DataFrame:
        names = ray.get(names_ref)
        d = df[df["skey"].isin(names)].copy()
        d["s_name"] = d["skey"].map(names)
        d = d.sort_values(
            ["numwait", "s_name"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return d[["s_name", "numwait"]]

    counts = co_exchange(
        {
            "o": (orders, "o_orderkey", typed_frame(o_orderkey="int64", o_orderdate="datetime64[us]")),
            "l": (lineitem, "l_orderkey", typed_frame(
                l_orderkey="int64", l_suppkey="int64", l_shipdate="datetime64[us]"
            )),
        },
        lambda parts: sole_late_bucket(parts, grace_days), table_width(sf_dir, "lineitem"),
    )
    pruned = (
        counts.groupby("skey")
        .sum("cnt")
        .map_batches(
            lambda df: topk_prune(df.rename(columns={"sum(cnt)": "numwait"})),
            batch_format="pandas",
        )
        .to_pandas()  # ≤ blocks × k pruned rows
    )
    if not len(pruned):
        return pa.table(
            {"s_name": pa.array([], pa.string()),
             "numwait": pa.array([], pa.int64())}
        )
    out = pruned.sort_values(
        ["numwait", "s_name"], ascending=[False, True], kind="mergesort"
    ).head(k).reset_index(drop=True)
    out["numwait"] = out["numwait"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def priority_order_counts(
    sf_dir: str,
    date_from: str = "1996-01-01",
    date_to: str = "1996-07-01",
    grace_days: int = 90,
) -> "ray.data.Dataset":
    """(o_orderpriority, order_count) — TPC-H Q4: orders placed in the
    window counted per priority IF at least one of their lineitems
    shipped late (EXISTS semi-join; "late" is ``l_shipdate >
    o_orderdate + grace_days`` — the commit/receipt-date-free
    adaptation ``late_shipment_priority`` documents).  Q4 counts
    ORDERS, not lines — the per-order EXISTS collapses before anything
    is counted.

    Scale shape: order-date window pushed into the scan; ONE orderkey
    ``co_exchange`` co-locates each order's lines with its (date,
    priority) row; the EXISTS and the per-priority partial count happen
    in the group task, so only ≤ priorities rows per bucket leave it."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=_between("o_orderdate", date_from, date_to),
    )
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    )

    def per_bucket(parts: dict) -> pd.DataFrame:
        o = parts["o"]
        m = parts["l"].merge(o, left_on="l_orderkey", right_on="o_orderkey")
        late = m.loc[m["l_shipdate"] > m["o_orderdate"] + pd.Timedelta(days=grace_days), "o_orderkey"]
        out = o[o["o_orderkey"].isin(late)].groupby("o_orderpriority").size()
        return pd.DataFrame(
            {"o_orderpriority": out.index.to_numpy(object), "order_count": out.to_numpy(np.int64)}
        )

    return _sum_by(
        co_exchange(
            {
                "o": (orders, "o_orderkey", typed_frame(
                    o_orderkey="int64", o_orderdate="datetime64[us]", o_orderpriority="object"
                )),
                "l": (lineitem, "l_orderkey", typed_frame(l_orderkey="int64", l_shipdate="datetime64[us]")),
            },
            per_bucket, table_width(sf_dir, "lineitem"),
        ),
        "o_orderpriority", "order_count",
    )


def forecast_revenue_change(
    sf_dir: str,
    date_from: str = "1996-01-01",
    date_to: str = "1997-01-01",
    disc_lo: float = 0.05,
    disc_hi: float = 0.07,
    max_qty: int = 24,
) -> "pa.Table":
    """(revenue_x10000, n_lines) — TPC-H Q6: the revenue that would be
    recovered by dropping small discounts on low-quantity lines in one
    ship-year (``Σ extprice × discount``), integer ten-thousandths.
    The simplest distributed shape in the suite — and the benchmark
    that everything is pushed INTO THE SCAN: the date window, the
    discount band (in exact centi-steps) and the quantity cap are all
    parquet row-group predicates; what's left is a single-row partial
    per batch and a tree-sum."""
    lo, hi = round(disc_lo * 100), round(disc_hi * 100)
    expr = (
        _between("l_shipdate", date_from, date_to)
        & (pads.field("l_discount") >= (lo - 0.5) / 100)
        & (pads.field("l_discount") <= (hi + 0.5) / 100)
        & (pads.field("l_quantity") < max_qty)
    )
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount"],
        filter=expr,
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        disc_c = (df["l_discount"] * 100).round().astype("int64")
        keep = (disc_c >= lo) & (disc_c <= hi)  # exact residual band
        rev = (
            (df.loc[keep, "l_extendedprice"] * 100).round().astype("int64")
            * disc_c[keep]
        )
        return pd.DataFrame(
            {"revenue_x10000": [np.int64(rev.sum())],
             "n_lines": [np.int64(keep.sum())]}
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return pa.table(
        {"revenue_x10000":
             pa.array([int(parts["revenue_x10000"].sum())], pa.int64()),
         "n_lines": pa.array([int(parts["n_lines"].sum())], pa.int64())}
    )


def excess_shippers(
    sf_dir: str,
    supp_nation: str = "NATION_9",
    name_word: str = "red",
    date_from: str = "1996-01-01",
    date_to: str = "1997-01-01",
    min_qty: int = 20,
) -> "ray.data.Dataset":
    """(s_name, n_parts) — TPC-H Q20 adapted to this schema (no
    ``partsupp.availqty``): suppliers of one nation who shipped MORE
    than ``min_qty`` units of some name-filtered part within the
    window, with how many such parts each qualified on.  The
    semi-join chain (supplier ⋉ part-filtered, threshold-aggregated
    lineitem) is Q20's shape; the fixed threshold stands in for
    ``0.5 × availqty``.

    Scale shape: the filtered partkey set and the nation's
    suppkey→name map broadcast once; date window pushed into the
    scan; per-batch (suppkey, partkey, qty) partials collapse lines
    before ONE pair-keyed exchange; the threshold filter and per-
    supplier count happen per bucket, leaving supplier-cardinality
    rows for the final keyed sum."""
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nk = int(nation.loc[nation["n_name"] == supp_nation, "n_nationkey"].iloc[0])
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name", "s_nationkey"]
    ).to_pandas()
    supp = supp[supp["s_nationkey"] == nk]
    name_map = dict(zip(supp["s_suppkey"].astype(int), supp["s_name"]))
    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    ).to_pandas()
    part_keys = np.sort(
        part.loc[part["p_name"].str.contains(name_word, regex=False),
                 "p_partkey"].to_numpy(np.int64)
    )
    dims_ref = ray.put((name_map, part_keys))

    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity"],
        filter=_between("l_shipdate", date_from, date_to),
    )

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        names, pkeys = ray.get(dims_ref)
        d = df[
            df["l_suppkey"].isin(names)
            & np.isin(df["l_partkey"].to_numpy(np.int64), pkeys)
        ]
        return pd.DataFrame(
            {"skey": d["l_suppkey"].astype("int64"),
             "pkey": d["l_partkey"].astype("int64"),
             "qty": d["l_quantity"].round().astype("int64")}
        ).groupby(["skey", "pkey"], as_index=False)["qty"].sum()

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["skey", "pkey"], as_index=False)["qty"].sum()
        out = s[s["qty"] > min_qty].groupby("skey").size()
        return pd.DataFrame({"skey": out.index.to_numpy(np.int64), "n_parts": out.to_numpy(np.int64)})

    def attach_name(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"s_name": df["skey"].map(ray.get(dims_ref)[0]),
             "n_parts": df["n_parts"].astype("int64")}
        )

    counts = keyed_exchange(
        lineitem.map_batches(pair_partials, batch_format="pandas"), ["skey", "pkey"], per_bucket,
        table_width(sf_dir, "lineitem"),
    )
    return _sum_by(counts, "skey", "n_parts").map_batches(attach_name, batch_format="pandas")


def shipmode_priority_counts(
    sf_dir: str,
    modes: tuple[str, ...] = ("R", "A"),
    date_from: str = "1996-01-01",
    date_to: str = "1997-01-01",
    late_days: int = 30,
) -> "ray.data.Dataset":
    """(ship_mode, high_line_count, low_line_count) — TPC-H Q12 adapted
    to this schema (no ``l_shipmode``/``l_commitdate``/
    ``l_receiptdate``): ``l_returnflag`` stands in for the two audited
    ship modes and "arrived late" becomes ``l_shipdate > o_orderdate +
    late_days`` (the same commit/receipt-date-free lateness proxy Q4
    uses). The aggregate keeps Q12's defining shape: a fact-fact join
    that splits line counts by the ORDER's priority class
    (urgent/high vs everything else) per mode.

    Scale shape: mode + ship-date window pushed into the lineitem
    scan as parquet predicates; ONE orderkey ``co_exchange``
    co-locates each order's (date, priority) row with its surviving
    lines; the lateness test and the per-mode conditional counts
    happen in the group task, so ≤ |modes| partial rows leave each
    bucket; the final groupby sums a buckets×modes-row dataset.

    Completes the repo's TPC-H sweep alongside Q1–Q11/Q13–Q21
    (reference has no relational layer; this is engine-generic)."""
    high = ("1-URGENT", "2-HIGH")
    lineitem = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_shipdate"],
        filter=pads.field("l_returnflag").isin(list(modes))
        & _between("l_shipdate", date_from, date_to),
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    empty = typed_frame(ship_mode="object", high_line_count="int64", low_line_count="int64")

    def per_bucket(parts: dict) -> pd.DataFrame:
        m = parts["l"].merge(parts["o"], left_on="l_orderkey", right_on="o_orderkey")
        m = m[m["l_shipdate"] > m["o_orderdate"] + pd.Timedelta(days=late_days)]
        if not len(m):
            return empty.copy()
        is_high = m["o_orderpriority"].isin(high)
        out = pd.DataFrame({"ship_mode": m["l_returnflag"], "high": is_high, "low": ~is_high})
        out = out.groupby("ship_mode", as_index=False)[["high", "low"]].sum()
        out.columns = list(empty.columns)
        return out.astype({"high_line_count": "int64", "low_line_count": "int64"})

    return _sum_by(
        co_exchange(
            {
                "l": (lineitem, "l_orderkey", typed_frame(
                    l_orderkey="int64", l_returnflag="object", l_shipdate="datetime64[us]"
                )),
                "o": (orders, "o_orderkey", typed_frame(
                    o_orderkey="int64", o_orderdate="datetime64[us]", o_orderpriority="object"
                )),
            },
            per_bucket, table_width(sf_dir, "lineitem"),
        ),
        "ship_mode", "high_line_count", "low_line_count",
    )


def lapsed_customer_opportunity(
    sf_dir: str,
    nation_mod: int = 3,
    nation_rem: int = 1,
    cutoff: str = "2001-01-01",
) -> "ray.data.Dataset":
    """(cntrycode, numcust, totacctbal_x100) — TPC-H Q22 adapted to
    this schema (no ``c_phone``): the country code is ``c_nationkey``
    directly and the pool filter keeps nations with ``nationkey %
    nation_mod == nation_rem`` (standing in for Q22's 7-code phone
    list); because the synthetic orders table gives every customer at
    least one order, Q22's "never ordered" anti-join becomes "no
    order since ``cutoff``" — same shape, non-degenerate result.
    Balances aggregate in integer cents.

    Scale shape — Q22's three signature moves, each distributed:

    - the global average balance over the pool is a per-batch
      (sum, count) partial pair tree-summed to ONE scalar — the only
      driver read;
    - the anti-join runs through the general bucketed hash anti-join
      (per-batch right-key pre-dedup, one custkey ``co_exchange``,
      vectorized per-bucket ``isin``) — no broadcast of the order
      keyset, which at 10^10 orders would not fit;
    - the final per-nation rollup pre-aggregates (cnt, bal) inside
      ``map_batches`` before a ≤25-key groupby."""
    nation_keys = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey"]
    )["n_nationkey"].to_pylist()
    code_list = [k for k in nation_keys if k % nation_mod == nation_rem]
    pool_expr = (pads.field("c_acctbal") > 0.0) & (
        pads.field("c_nationkey").isin(code_list)
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
        filter=pool_expr,
    )

    def bal_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = (df["c_acctbal"] * 100).round().astype("int64")
        return pd.DataFrame(
            {"bal_cents": [int(cents.sum())], "n": [len(df)]}
        )

    pool = cust.materialize()  # reused: avg pass + anti-join pass
    parts = pool.map_batches(bal_partial, batch_format="pandas")
    tot = parts.sum(["bal_cents", "n"]) or {"sum(bal_cents)": 0, "sum(n)": 0}
    sum_cents, n_pool = int(tot["sum(bal_cents)"]), int(tot["sum(n)"])

    recent = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=(pads.field("o_orderdate")
                >= _dt.datetime.fromisoformat(cutoff)),
    ).rename_columns({"o_custkey": "c_custkey"})

    # integer-rational compare: bal_cents * n_pool > sum_cents avoids
    # any float threshold crossing the gate (Q11's trick)
    def keep_rich(df: pd.DataFrame) -> pd.DataFrame:
        cents = (df["c_acctbal"] * 100).round().astype("int64")
        return df[cents * n_pool > sum_cents]

    lapsed = anti_join_bucketed(
        pool.map_batches(keep_rich, batch_format="pandas"), recent, "c_custkey",
        typed_frame(c_custkey="int64", c_nationkey="int32", c_acctbal="float64"),
        table_width(sf_dir, "orders"),
    )

    def rollup_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = (df["c_acctbal"] * 100).round().astype("int64")
        return pd.DataFrame(
            {"cntrycode": df["c_nationkey"].astype("int64"),
             "numcust": 1, "totacctbal_x100": cents}
        ).groupby("cntrycode", as_index=False).sum()

    return _sum_by(
        lapsed.map_batches(rollup_partial, batch_format="pandas"),
        "cntrycode", "numcust", "totacctbal_x100",
    )
