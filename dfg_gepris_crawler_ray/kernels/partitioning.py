"""The keyed exchange: one routing hash, one shuffle shape.

Every keyed reduce in the crawl engine has the same three steps, and
:func:`keyed_exchange` owns all three so no caller writes them again:

1. **route** — each row gets a bucket ``_b`` in ``[0, n)`` from
   :func:`route_bucket` over its key columns. The hash is vectorized
   (``pd.util.hash_pandas_object``, C speed, a fixed hash key so the
   driver and every worker agree) over the key's ``str`` form, so an
   ``id`` of 1001 routes the same as int64, int32, Int64 or an object
   column, and two unioned sides always co-locate. Hashing the
   FULL key — e.g. ``(host, url)`` for an exact per-host distinct
   count — spreads a hot host over all ``n`` buckets while every copy
   of one key still lands in one bucket, so per-bucket partials stay
   exact and need no salt.
2. **coalesce** — the routed blocks are re-blocked to ``n`` before the
   sort-shuffle. Ray's sort-shuffle pays a fixed cost per INPUT block
   (measured on ``host_distinct_urls`` at sf0.1×256: 15.6 s → 4.6 s),
   and the block count also sets the reduce-task count, so ``n`` is
   the one knob for both. The coalesce is an all-to-all barrier, so
   it pays off on the many small blocks of the pages corpus and costs
   on inputs that arrive in few large blocks: the Dataset-state
   transitions (``frontier.state_ds``, ``derive.latest_detail_items_ds``)
   and the ``runs`` id exchanges ran 1.5-2x slower through it over
   10^6 rows, so they route with :func:`route_bucket` (or ``id % 64``)
   and group without it.
3. **reduce** — ``groupby(_b).map_groups(reduce)``; ``reduce`` gets one
   bucket's rows without ``_b`` and returns its output rows. Any
   reduce that is key-local gives the same output for every ``n``.

The exchange stays a sort-shuffle (Ray's hash shuffle hung on this
engine's Ray version; BASELINE.md). Hashes that are values or that an
oracle reads (content digests, the pages' persisted ``bucket``) are not
routers and do not go through here.

``adaptive_buckets`` sizes ``n`` from an input row count; ``cut_lineage``
re-roots materialized blocks for iterative loops.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def route_bucket(frame: pd.DataFrame, keys, n: int) -> np.ndarray:
    """int32 bucket in ``[0, n)`` per row of ``frame``, from the key
    columns ``keys`` (a name or a list). Equal key values get equal
    buckets in any process, whether an integer key is held as int64,
    int32, Int64 or object (the hash reads each key's ``str`` form)."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    text = pd.DataFrame({k: frame[k].astype(str) for k in keys})
    h = pd.util.hash_pandas_object(text, index=False).to_numpy()
    return (h % np.uint64(n)).astype(np.int32)


def keyed_exchange(ds, keys, reduce, n: int = 64, batch_format: str = "pandas"):
    """Route ``ds`` by ``keys`` into ``n`` buckets, coalesce to ``n``
    blocks, and apply ``reduce`` to each bucket's rows (without the
    ``_b`` routing column), as a ``batch_format`` frame.

    The routing step keeps the upstream block format (Arrow string
    buffers slice zero-copy through the shuffle; pandas blocks stay
    pandas)."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def route(batch):
        if isinstance(batch, pa.Table):
            frame = pd.DataFrame({k: batch.column(k).to_pandas() for k in keys})
            return batch.append_column("_b", pa.array(route_bucket(frame, keys, n)))
        return batch.assign(_b=route_bucket(batch, keys, n))

    def reduce_bucket(group):
        if isinstance(group, pa.Table):
            return reduce(group.drop_columns(["_b"]))
        return reduce(group.drop(columns="_b"))

    return (
        ds.map_batches(route, batch_format=None, zero_copy_batch=True)
        .repartition(n)
        .groupby("_b")
        .map_groups(reduce_bucket, batch_format=batch_format)
    )


def adaptive_buckets(
    n_rows: int,
    requested: int = 64,
    rows_per_bucket: int = 512,
    lo: int = 4,
) -> int:
    """Bucket count for a keyed exchange over ``n_rows`` input rows:
    at least ``lo`` (parallelism floor), at most ``requested`` (the
    cluster-scale fanout — wins whenever the input is big enough to
    fill it), roughly one bucket per ``rows_per_bucket`` rows between.

    A fixed 64-way fanout inverts at toy scale: a 5k-row table
    shuffled into 64 reduce partitions pays ~60 near-empty tasks of
    pure scheduling overhead per exchange (~2-4 s/exchange in Ray 2.49
    local mode). For a key-local reduce the bucket count never changes
    the output, so it is safe to adapt to the input size. Callers pass
    the driving table's row count (cheap via parquet metadata)."""
    if n_rows <= 0:
        return lo
    return max(lo, min(requested, n_rows // rows_per_bucket + 1))


def cut_lineage(ds):
    """Rebuild a materialized Dataset from its object-store block refs.

    Ray 2.49's ``materialize()`` keeps the dataset's full logical plan
    (for lineage recreation); in an ITERATIVE loop (label propagation,
    power iteration) each round's plan therefore embeds the previous
    round's — planning time grows quadratically with rounds and deep
    loops hit RecursionError. Re-rooting on the blocks keeps every
    round's plan constant-depth; the blocks are referenced, NOT
    collected to the driver."""
    import ray.data

    return ray.data.from_pandas_refs(ds.to_pandas_refs())
