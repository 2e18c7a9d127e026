"""The keyed exchange: one routing hash, one shuffle shape.

Every keyed reduce in the crawl engine has the same three steps, and
:func:`keyed_exchange` owns all three so no caller writes them again:

1. **route** — each row gets a bucket ``_b`` in ``[0, n)`` from
   :func:`route_bucket` over its key columns. The hash is vectorized
   (``pd.util.hash_array``, C speed, a fixed hash key so the driver
   and every worker agree). An integer-valued key is hashed by
   its int64 value and any other key by its ``str`` form, so an ``id``
   of 1001 routes the same as int64, int32, Int64 or an object column,
   and two unioned sides always co-locate. Hashing the FULL key —
   e.g. ``(host, url)`` for an exact per-host distinct count — spreads
   a hot host over all ``n`` buckets while every copy of one key still
   lands in one bucket, so per-bucket partials stay exact and need no
   salt.
2. **coalesce** — the routed blocks are re-blocked to ``n`` before the
   sort-shuffle. Ray's sort-shuffle pays a fixed cost per INPUT block
   (measured on ``host_distinct_urls`` at sf0.1×256: 15.6 s → 4.6 s),
   and the block count also sets the reduce-task count, so ``n`` is
   the one knob for both. The coalesce is an all-to-all barrier, so
   it pays off on the many small blocks of the pages corpus and costs
   on inputs that arrive in few large blocks: the Dataset-state
   transitions (``frontier.state_ds``, ``derive.latest_detail_items_ds``)
   and the ``runs`` id exchanges ran 1.5-2x slower through it over
   10^6 rows, so they route with :func:`route_bucket` and group
   without it.
3. **reduce** — ``groupby(_b).map_groups(reduce)``; ``reduce`` gets one
   bucket's rows without ``_b`` and returns its output rows. Any
   reduce that is key-local gives the same output for every ``n``.

:func:`co_exchange` is the same exchange over several sides (a join,
or state meeting its edges): each side is routed by its OWN key
columns, tagged with its kind, and given the union of all sides'
columns (a column a side lacks is filled with the default of that
column's dtype, so no side's int64 or bool column is coerced when
blocks of two sides meet); ``reduce`` gets a dict kind → that side's
rows. :func:`co_route` is its tag-and-split step, which the
uncoalesced state transitions reuse, as :func:`keyed_route` is
:func:`keyed_exchange`'s; :func:`typed_frame` builds a side's
template.

:func:`fan_in` is the keyless counterpart: a tree-reduce of mergeable
partial rows (re-block to :data:`FAN_IN`, combine per block, combine
the collected results once more on the driver) for every op whose
answer is a small driver-side merge — the kNN top-k partials
(``similarity._merge_topk``), the k-means and PQ centroid sums, the
PCA moments, the IRLS statistics of ``classifier``, the Count-Min
grid, ``curation.weighted_sample``, the host-budget leftover prune and
both bloom routes (``hashing.bloom_or``).

Callers: the crawl ops (``ops/crawlhealth``, ``ops/recrawl``,
``ops/boilerplate``), every graph op (``ops/graph``), every keyed
join, semi-join and per-key window of ``ops/relational``, every
router-keyed exchange of ``ops/dedup`` (exact and soft dedup, the
MinHash band and verify exchanges, the n-gram pair sums, the
min-label components, the cluster join, SimHash, the IVF pair dedupe,
window and line dedup) and of ``ops/textstats`` (top tokens, TF-IDF,
drift, heavy hitters, the inverted index, the corpus profile,
co-occurrence, novelty, length deciles, TextRank), and the keyed
exchanges of ``curation``, ``classifier``, ``decontaminate``,
``cdc``, ``multimodal`` and ``search``. ``dedup.keep_min`` is the
one exact-dedup keep-min (``exact_dedup``, ``incremental_dedup``,
``corpus_curation``, ``extracted_corpus_funnel``,
``pretrain_pack_pipeline``, ``model_gated_corpus``). An op's width is
:func:`table_width` over its driving table.

Sites that route with :func:`keyed_route` / :func:`route_bucket` /
:func:`co_route` but skip the coalesce, each because it measured
slower through it (one CPU, the query with that site coalesced vs
not): the state-scale ones named above,
``relational.q3_topk_revenue_shuffle`` (2.3x),
``relational.anti_join_bucketed`` (7-10% for each of its callers),
the md5 keep-min of ``dedup.incremental_dedup`` (~10% on its bloom
route), and on the small inputs of the text ops (sf0.01) ten more:
``dedup.exact_dedup`` (1.5x), ``dedup.softdedup_weights`` (1.4x), the
MinHash band exchange (1.2x), both n-gram pair exchanges (1.2x,
1.1x), the first SimHash exchange (1.14x), the window exchange of
``dedup.window_dedup`` (1.2x), ``textstats.top_tokens`` (1.35x),
``textstats.token_novelty`` (1.45x) and ``textstats.length_deciles``
(1.3x). ``dedup.keep_min`` skips it for all six callers (the two
above; ``corpus_curation`` 1.45x, ``extracted_corpus_funnel`` 4.9x,
``pretrain_pack_pipeline`` 1.5x, ``model_gated_corpus`` even), and so
do ``curation.source_quota`` (1.4x), both exchanges of
``decontaminate``'s bucketed route (1.4x, 1.3x), of
``cdc.cdc_chunk_stats`` (1.4x, 1.2x) and of
``multimodal.media_phash_pairs`` (1.4x, 1.2x), and
``search.phrase_search`` (1.3x).

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
import pyarrow.parquet as pq

# the int64 stand-in a missing integer key routes as
_NA_KEY = np.iinfo(np.int64).min


def _routing_values(col: pd.Series) -> np.ndarray:
    """``col`` as the values :func:`route_bucket` hashes: int64 for an
    integer-valued column (numpy signed ints, unsigned ints up to 32
    bits, the nullable ``Int*`` types, object columns of ints; a
    missing value becomes ``_NA_KEY``), the ``str`` form otherwise."""
    dt = col.dtype
    if pd.api.types.is_integer_dtype(dt) and not (dt.kind == "u" and dt.itemsize == 8):
        if isinstance(dt, np.dtype):
            return col.to_numpy(dtype=np.int64)
    elif not (dt == object and pd.api.types.infer_dtype(col) == "integer"):
        return col.astype(str).to_numpy(dtype=object)
    return pd.array(col, dtype="Int64").to_numpy(dtype=np.int64, na_value=_NA_KEY)


def route_bucket(frame: pd.DataFrame, keys, n: int) -> np.ndarray:
    """int32 bucket in ``[0, n)`` per row of ``frame``, from the key
    columns ``keys`` (a name or a list). Equal key values get equal
    buckets in any process, whether an integer key is held as int64,
    int32, Int64 or object: integer-valued columns hash by their int64
    value, every other column by its ``str`` form (``pd.util.hash_array``,
    a fixed hash key), and the column hashes combine FNV-style."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    h = pd.util.hash_array(_routing_values(frame[keys[0]]))
    for k in keys[1:]:
        h = (h * np.uint64(0x100000001B3)) ^ pd.util.hash_array(_routing_values(frame[k]))
    return (h % np.uint64(n)).astype(np.int32)


def _reduce_routed(routed, reduce_bucket, n: int, batch_format: str):
    """Coalesce the ``_b``-routed ``routed`` to ``n`` blocks and apply
    ``reduce_bucket`` to each bucket's rows."""
    return routed.repartition(n).groupby("_b").map_groups(reduce_bucket, batch_format=batch_format)


def keyed_route(ds, keys, n: int):
    """``ds`` with the routing column ``_b`` (:func:`route_bucket` over
    ``keys`` into ``n``) appended: the routing step of
    :func:`keyed_exchange`, which the uncoalesced sites group directly.

    It keeps the upstream block format (Arrow string buffers slice
    zero-copy through the shuffle; pandas blocks stay pandas)."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def route(batch):
        if isinstance(batch, pa.Table):
            frame = pd.DataFrame({k: batch.column(k).to_pandas() for k in keys})
            return batch.append_column("_b", pa.array(route_bucket(frame, keys, n)))
        return batch.assign(_b=route_bucket(batch, keys, n))

    return ds.map_batches(route, batch_format=None, zero_copy_batch=True)


def keyed_exchange(ds, keys, reduce, n: int = 64, batch_format: str = "pandas"):
    """Route ``ds`` by ``keys`` into ``n`` buckets (:func:`keyed_route`),
    coalesce to ``n`` blocks, and apply ``reduce`` to each bucket's rows
    (without the ``_b`` routing column), as a ``batch_format`` frame."""

    def reduce_bucket(group):
        if isinstance(group, pa.Table):
            return reduce(group.drop_columns(["_b"]))
        return reduce(group.drop(columns="_b"))

    return _reduce_routed(keyed_route(ds, keys, n), reduce_bucket, n, batch_format)


def typed_frame(**dtypes) -> pd.DataFrame:
    """A typed empty frame, ``typed_frame(node="int64", ...)``: a
    co-partition side's template, or an op's empty result."""
    return pd.DataFrame({c: pd.Series(dtype=d) for c, d in dtypes.items()})


def _filler(dtype, n: int):
    """``n`` copies of ``dtype``'s default: zero (False) for numpy
    numbers and bools, a missing value for every other dtype."""
    if isinstance(dtype, np.dtype) and dtype.kind in "iufcb":
        return np.zeros(n, dtype=dtype)
    return pd.array([None] * n, dtype=dtype)


def co_route(sides: dict, n: int):
    """Tag and union the sides of a co-partition exchange.

    ``sides`` maps a kind to ``(ds, keys, template)``: the side's
    Dataset, its key column(s) and its typed empty frame. Each row gets
    ``_kind`` (the kind's position in ``sides``) and ``_b`` (
    :func:`route_bucket` over that side's keys into ``n``), and every
    side emits the SAME columns — the union of the templates' columns,
    a missing one filled by :func:`_filler` with its template dtype. A
    sorted block downstream of the union can hold rows of one side
    only, and a single-side block carries only that side's schema, so
    a column of another side would be missing from a group (observed
    as a flaky KeyError); a typed filler, unlike an object ``None``,
    leaves the other side's int64/bool columns exact when the blocks
    meet (an int64 column next to ``None`` came back float64).

    Returns the unioned Dataset and ``split(group)`` → dict kind → that
    side's rows (:func:`_co_split` bound to these sides)."""
    templates = {kind: template for kind, (_, _, template) in sides.items()}
    dtypes = {}
    for template in templates.values():
        for c, dt in template.dtypes.items():
            dtypes.setdefault(c, dt)
    cols = list(dtypes)

    def tag(code: int, keys):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = {c: df[c].array if c in df.columns else _filler(dtypes[c], len(df)) for c in cols}
            out["_kind"] = np.full(len(df), code, dtype=np.int8)
            out["_b"] = route_bucket(df, keys, n)
            return pd.DataFrame(out)

        return fn

    tagged = [
        ds.map_batches(tag(code, keys), batch_format="pandas")
        for code, (ds, keys, _) in enumerate(sides.values())
    ]
    routed = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return routed, lambda group: _co_split(group, templates)


def _co_split(group: pd.DataFrame, templates: dict) -> dict:
    """One bucket's tagged rows as a dict kind → that side's rows, in
    its template's columns (the template itself when the bucket holds
    none of them)."""
    kind = group["_kind"].to_numpy()
    parts = {}
    for code, (name, template) in enumerate(templates.items()):
        rows = group[kind == code]
        parts[name] = (
            rows[list(template.columns)].reset_index(drop=True) if len(rows) else template.copy()
        )
    return parts


def co_exchange(sides: dict, reduce, n: int = 64):
    """Co-partition ``sides`` (kind → ``(ds, keys, template)``, see
    :func:`co_route`) into ``n`` buckets through the keyed exchange's
    coalesce and sort-shuffle, and apply ``reduce`` to each bucket's
    dict kind → that side's rows. Rows of every side whose key values
    are equal meet in one call, whatever the key columns are named."""
    routed, split = co_route(sides, n)
    return _reduce_routed(routed, lambda group: reduce(split(group)), n, "pandas")


#: the block count :func:`fan_in` re-blocks its partials to
FAN_IN = 8


def fan_in(partials, combine) -> pd.DataFrame:
    """Keyless tree-reduce of mergeable partial rows to one driver frame.

    ``partials`` (per-batch partial rows: sketch grids, top-k rows,
    sufficient statistics) is re-blocked to :data:`FAN_IN` blocks,
    ``combine`` runs once per whole block, and the at most ``FAN_IN``
    results are collected and combined once more on the driver, so the
    driver reads a bounded number of rows whatever the input's block
    count. ``combine`` takes a pandas frame of partial rows (on an empty
    input, a frame with no rows and no columns) and returns merged rows
    of the same shape; the merged frame is returned."""
    blocks = partials.repartition(FAN_IN).map_batches(
        combine, batch_size=None, batch_format="pandas"
    )
    return combine(blocks.to_pandas())


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


def table_width(sf_dir: str, table: str) -> int:
    """An op's exchange width: :func:`adaptive_buckets` over the row
    count of its driving ``table`` (parquet metadata, no scan)."""
    return adaptive_buckets(
        pq.read_metadata(f"{sf_dir}/{table}.parquet").num_rows, rows_per_bucket=4096
    )


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
