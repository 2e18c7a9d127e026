"""The flagship details pipeline: pages corpus → extracted item rows.

Ray-native re-architecture of ``scrapy crawl details`` (SURVEY.md §3.4):

    read_parquet(pages)  [column-pruned]
      → annotate (canonical key, host, bucket)      [map_batches]
      → filter detail pages                          [map_batches]
      → optional frontier semi-join                  [broadcast, no shuffle]
      → groupby(bucket) → extract chain per entity   [the ONE keyed shuffle]
        (a Dataset frontier joins inside this shuffle as sentinel rows)
      → items Dataset (id, context, status, item, …)

The only all-to-all exchange is the bucket groupby keyed by the hashed
canonical entity key — chosen so all language/result variants and all
warc_ts copies of one entity co-locate (SURVEY.md §7.3). ``num_buckets``
bounds shuffle fan-in and sets extract parallelism; size it ≈ 2–4×
cluster cores.
"""

from __future__ import annotations

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..sources.pages import (
    DETAIL_KINDS,
    annotate_batch,
    annotate_pages,
    entity_bucket,
    filter_detail_pages,
    read_pages,
    semi_join_frontier,
)
from ..stages.extract_stage import extract_bucket


def run_details_extraction(
    pages_dir: str,
    frontier_keys=None,
    num_buckets: int = 64,
    strict: bool = False,
    politeness=None,
    stats_out: dict | None = None,
) -> "ray.data.Dataset":
    """Extract items for all (or the frontier-selected) entities.

    ``frontier_keys``: optional iterable of ``(context, id)`` tuples —
    the budget-bounded crawl frontier (broadcast, not shuffled) — or a
    Dataset of ``(context, id)`` rows of any size, which never touches
    the driver (:func:`_frontier_sentinels`).

    The bucket groupby co-locates every page variant of an entity
    wherever the corpus stores it, so the output is the same for any
    row order (tests/test_clustered_degradation.py).

    ``stats_out``: optional dict that receives ``path="shuffle"``, the
    pipeline's only path; kept for callers that record it.

    Returns a Dataset of item rows (stages.extract_stage.RESULT_SCHEMA).
    """
    ds = read_pages(pages_dir, kinds=DETAIL_KINDS)
    ds = annotate_pages(ds, num_buckets=num_buckets)
    ds = filter_detail_pages(ds)
    select = None
    if isinstance(frontier_keys, ray.data.Dataset):
        ds = ds.union(_frontier_sentinels(frontier_keys, pages_dir, num_buckets))
        select = _frontier_members
    elif frontier_keys is not None:
        ds = semi_join_frontier(ds, ray.put(set(frontier_keys)))
    if stats_out is not None:
        stats_out["path"] = "shuffle"
    return ds.groupby("bucket").map_groups(
        lambda b: extract_bucket(select(b) if select else b, strict=strict, politeness=politeness),
        batch_format="pyarrow",
    )


def _frontier_sentinels(
    frontier: "ray.data.Dataset", pages_dir: str, num_buckets: int
) -> "ray.data.Dataset":
    """Fused bucketed semi-join, membership side: each frontier key
    becomes a pages-schema row (``kind='frontier'``, every other column
    null) in the pages' own ``entity_bucket``, so the extract shuffle
    co-locates it with its entity's pages and :func:`_frontier_members`
    keeps those. Per-bucket frontier share is |frontier| / num_buckets —
    raise ``num_buckets`` with frontier cardinality."""
    # the annotated pages schema, statically (an empty-batch pass
    # through the annotator) — no Dataset execution
    base = pq.read_schema(sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))[0])
    schema = annotate_batch(
        pa.table({c: pa.array([], type=base.field(c).type) for c in ["url", "warc_ts", "html"]}),
        num_buckets,
    ).schema

    def to_rows(df: pd.DataFrame) -> pa.Table:
        n = len(df)
        ids = df["id"].astype("int64")
        keys = df["context"].astype(str) + "/" + ids.astype(str)
        fill = dict(id=ids.to_numpy(), context=df["context"].astype(str).tolist(),
                    kind=["frontier"] * n, bucket=entity_bucket(keys.to_numpy(), num_buckets))
        return pa.Table.from_arrays(
            [pa.array(fill[f.name], type=f.type) if f.name in fill else pa.nulls(n, type=f.type)
             for f in schema],
            schema=schema,
        )

    return frontier.map_batches(to_rows, batch_format="pandas")


def _frontier_members(tbl: pa.Table) -> pa.Table:
    """A bucket's pages whose ``(context, id)`` has a sentinel row."""
    is_fr = pc.equal(tbl.column("kind"), "frontier")
    fr, pg = tbl.filter(is_fr), tbl.filter(pc.invert(is_fr))

    def keys(t: pa.Table) -> pd.MultiIndex:
        return pd.MultiIndex.from_arrays([t.column("context").to_pandas(), t.column("id").to_pandas()])

    return pg.filter(pa.array(keys(pg).isin(keys(fr)), type=pa.bool_()))


def write_items_json(items: "ray.data.Dataset", out: str) -> None:
    """S8 feed export (README.md:58-65, runner.py:16-39).

    A directory path streams JSONL, one file per block (the scale
    path). A ``*.json`` file path writes the reference's ``-O
    out.json`` shape — a single JSON array of the *parsed* item
    payloads — and is for small, driver-collectable results only.
    """
    if not out.endswith(".json"):
        items.write_json(out)
        return
    import json

    rows = []
    for row in items.iter_rows():
        item = json.loads(row["item"]) if row.get("item") else None
        rows.append(item if item is not None else {k: v for k, v in row.items()})
    with open(out, "w") as f:
        json.dump(rows, f, ensure_ascii=False)
