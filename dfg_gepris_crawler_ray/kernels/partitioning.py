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
2. **bundle** — the route runs in map tasks of about
   :data:`ROUTE_BATCH` rows: Ray merges small input blocks into one
   task in the stream (no barrier) and never splits a large block.
   Ray's sort-shuffle pays a fixed cost per INPUT block, and the block
   count also sets the reduce-task count, so the bundle bounds both by
   the input's rows, whatever its fragmentation: a corpus of thousands
   of tiny blocks shuffles as a few dozen, and a state table that
   arrives in a few large blocks keeps them. The constant is the one
   knob; ``n`` only sets the bucket count.
3. **reduce** — ``groupby(_b).map_groups(reduce)``; ``reduce`` gets one
   bucket's rows without ``_b`` and returns its output rows. Any
   reduce that is key-local gives the same output for every ``n``.

:func:`co_exchange` is the same exchange over several sides (a join,
or state meeting its edges): each side is routed by its OWN key
columns, tagged with its kind, and given the union of all sides'
columns (a column a side lacks is filled with the default of that
column's dtype, so no side's int64 or bool column is coerced when
blocks of two sides meet); ``reduce`` gets a dict kind → that side's
rows. :func:`typed_frame` builds a side's template.

:func:`fan_in` is the keyless counterpart: a tree-reduce of mergeable
partial rows (re-block to :data:`FAN_IN`, combine per block, combine
the collected results once more on the driver) for every op whose
answer is a small driver-side merge — the kNN top-k partials
(``similarity._merge_topk``), the k-means and PQ centroid sums, the
PCA moments, the IRLS statistics of ``classifier``, the Count-Min
grid, ``curation.weighted_sample``, the host-budget leftover prune and
both bloom routes (``hashing.bloom_or``).

Callers: every keyed exchange of the engine (the Dataset-state
transitions of ``frontier.state_ds``, ``derive.latest_detail_items_ds``,
the ``runs`` listing checks) and of ``ops/`` (crawl, graph, relational,
dedup, text-stats, curation and the rest). ``dedup.keep_min`` is the
one exact-dedup keep-min (``exact_dedup``, ``incremental_dedup``,
``corpus_curation``, ``extracted_corpus_funnel``,
``pretrain_pack_pipeline``, ``model_gated_corpus``). An op's width is
:func:`table_width` over its driving table.

The exchange stays a sort-shuffle (Ray's hash shuffle hung on this
engine's Ray version; BASELINE.md). Hashes that are values or that an
oracle reads (content digests, the pages' persisted ``bucket``) are not
routers and do not go through here.

``adaptive_buckets`` sizes ``n`` from an input row count. The iterative
ops run each round through :func:`settle` (one execution, re-rooted on
its blocks, the loop's totals read from them); :func:`supersteps` is the
fixpoint loop over it and owns the round budget; :func:`concat` grows an
accumulator by block refs.
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


#: rows the route step bundles into one map task: small input blocks
#: are merged in the stream up to this many rows (no barrier, and a
#: large block is never split), so the sort-shuffle behind it sees few
#: blocks whether the input arrives in one block or in thousands. Sized
#: on the most fragmented input, ``boilerplate.host_distinct_urls`` over
#: the 1.9M-page corpus (4 CPUs: 27.7 s at 4096 rows, 13.5 s at 16384,
#: 10.6 s at 65536, 10.2 s at 262144), against the 10^6-key
#: ``bench.py --frontier-scale`` state exchanges (19-20 s from 32768 to
#: 131072 rows, 36 s at 262144)
ROUTE_BATCH = 65536


def keyed_exchange(ds, keys, reduce, n: int = 64, batch_format: str = "pandas"):
    """Route ``ds`` by ``keys`` into ``n`` buckets (:func:`route_bucket`
    over the key columns, in map tasks of about :data:`ROUTE_BATCH`
    rows) and apply ``reduce`` to each bucket's rows (without the
    ``_b`` routing column), as a ``batch_format`` frame.

    The route keeps the upstream block format (Arrow string buffers
    slice zero-copy through the shuffle; pandas blocks stay pandas)."""
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

    routed = ds.map_batches(
        route, batch_format=None, batch_size=ROUTE_BATCH, zero_copy_batch=True
    )
    return routed.groupby("_b").map_groups(reduce_bucket, batch_format=batch_format)


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


def _co_tag(code: int, keys, cols: dict, n: int):
    """The route step of side ``code``: its rows in the union's columns
    ``cols`` (name → dtype, a missing one filled by :func:`_filler`),
    tagged with ``_kind`` = ``code`` and routed to ``_b`` by ``keys``."""

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        out = {
            c: df[c].array if c in df.columns else _filler(dt, len(df))
            for c, dt in cols.items()
        }
        out["_kind"] = np.full(len(df), code, dtype=np.int8)
        out["_b"] = route_bucket(df, keys, n)
        return pd.DataFrame(out)

    return tag


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
    """Co-partition ``sides`` into ``n`` buckets and apply ``reduce`` to
    each bucket's dict kind → that side's rows. Rows of every side whose
    key values are equal meet in one call, whatever the key columns are
    named.

    ``sides`` maps a kind to ``(ds, keys, template)``: the side's
    Dataset, its key column(s) and its typed empty frame. Each row gets
    ``_kind`` (the kind's position in ``sides``) and ``_b`` (
    :func:`route_bucket` over that side's keys into ``n``), in map tasks
    of about :data:`ROUTE_BATCH` rows, and every side emits the SAME
    columns — the union of the templates' columns, a missing one filled
    by :func:`_filler` with its template dtype. A sorted block
    downstream of the union can hold rows of one side only, and a
    single-side block carries only that side's schema, so a column of
    another side would be missing from a group (observed as a flaky
    KeyError); a typed filler, unlike an object ``None``, leaves the
    other side's int64/bool columns exact when the blocks meet (an
    int64 column next to ``None`` came back float64)."""
    templates = {kind: template for kind, (_, _, template) in sides.items()}
    cols = {}
    for template in templates.values():
        for c, dt in template.dtypes.items():
            cols.setdefault(c, dt)
    tagged = [
        ds.map_batches(
            _co_tag(code, keys, cols, n), batch_format="pandas", batch_size=ROUTE_BATCH
        )
        for code, (ds, keys, _) in enumerate(sides.values())
    ]
    routed = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return routed.groupby("_b").map_groups(
        lambda group: reduce(_co_split(group, templates)), batch_format="pandas"
    )


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


def _rooted(bundles) -> "ray.data.MaterializedDataset":
    """A Dataset whose plan is only ``bundles`` (Ray ``RefBundle`` s of
    object-store blocks), with no stats chain: ``materialize()`` keeps
    the stats of every earlier plan, which grow with a loop's rounds."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import InputData
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    context = DataContext.get_current()
    return MaterializedDataset(
        ExecutionPlan(DatasetStats(metadata={}, parent=None), data_context=context.copy()),
        LogicalPlan(InputData(input_data=list(bundles)), context),
    )


def _block_totals(block, cols) -> list:
    from ray.data.block import BlockAccessor

    df = BlockAccessor.for_block(block).to_pandas()
    return [df[c].sum() if c in df.columns else 0 for c in cols]


def settle(ds, *cols):
    """Run ``ds``'s plan once and re-root it on its blocks:
    ``(settled, totals)``. ``settled`` has no lineage, and its
    ``count()`` reads block metadata; ``totals`` maps each of ``cols``
    to its sum, read from the same blocks by one small task per block,
    not by a second execution. An already settled Dataset runs nothing."""
    import ray
    from ray.data._internal.remote_fn import cached_remote_fn

    bundles = ds.materialize()._logical_plan.dag.input_data
    task = cached_remote_fn(_block_totals)
    sums = ray.get([task.remote(ref, cols) for b in bundles for ref in b.block_refs]) if cols else []
    return _rooted(bundles), {c: sum(s[i] for s in sums) for i, c in enumerate(cols)}


def concat(*settled):
    """One Dataset over the blocks of settled Datasets, in order: an
    accumulator grows by block refs, with no execution and no copy."""
    return _rooted([b for ds in settled for b in ds._logical_plan.dag.input_data])


def supersteps(state, step, max_rounds: int, what: str, flag: str = "_changed"):
    """The fixpoint loop: each round settles ``step(state)`` (the round's
    lazy plan) as the next ``state``, which is returned once the round's
    ``flag`` total is 0. With ``flag`` still nonzero after ``max_rounds``
    rounds it raises ``RuntimeError(what)``, formatted with ``rounds``
    and ``changed`` (the last total)."""
    changed = None
    for _ in range(max_rounds):
        state, totals = settle(step(state), flag)
        changed = totals[flag]
        if not changed:
            return state
    raise RuntimeError(what.format(rounds=max_rounds, changed=changed))
