"""Pages-table source: read + canonicalise (the frontier key function).

``read_pages`` prunes columns at the read (only what the consumer
needs leaves storage); ``annotate_pages`` adds the canonical crawl-key
columns (kind, context, id, language, host, bucket) via a vectorised
``map_batches`` stage — the engine's equivalent of the reference's
``is_gepris_path`` / ``extract_id`` canonicalisation
(gepris_helper.py:100-106, data_transformations.py:10-27) applied at
corpus scale.

``bucket`` is a stable hash-partition of the canonical entity key:
all page variants (de/en/result, all warc_ts copies) of one entity land
in one bucket, so the downstream per-entity chain assembly is a single
keyed shuffle with bounded, tunable parallelism (SURVEY.md §7.3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..kernels.hashing import stable_hash64_array
from ..kernels.urls import parse_page_url

DETAIL_KINDS = ("details", "result")


def auto_num_blocks(pages_dir: str, target_block_bytes: int = 32 << 20) -> int:
    """Block count sized to data AND cluster width.

    Two observed failure modes at test scale:

    - Ray's default parallelism heuristic over-splits small corpora into
      ~100-row blocks → the keyed sort-shuffle pays per-block fixed
      costs (10-30x slowdowns);
    - too few blocks caps the shuffle's *output* partition count, which
      caps downstream ``map_groups`` parallelism (observed: 8 extract
      tasks on a 32-CPU node).

    Rule: ≥ 4 blocks per CPU (straggler packing), ≥ 1 per ~32 MiB, but never fewer than
    ~2000 rows per block; clamped to [4, 4000].
    """
    import glob
    import os

    import pyarrow.parquet as pq
    import ray

    files = glob.glob(os.path.join(pages_dir, "*.parquet"))
    total_bytes = sum(os.path.getsize(f) for f in files)
    total_rows = sum(pq.read_metadata(f).num_rows for f in files)
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    want = max(4 * cpus, total_bytes // target_block_bytes + 1)
    # when the writer emitted at least that many files, go per-file:
    # bundling 2-3 files per block makes 2-3x row skew between tasks
    # (observed: 4000 vs 12004 rows/block → 2.1s vs 8.9s stragglers),
    # while the files themselves are uniform
    if len(files) >= want:
        want = len(files)
    cap = max(4, total_rows // 2000)
    return int(max(4, min(4000, min(want, cap))))


def read_pages(
    pages_dir: str,
    columns: list[str] | None = None,
    num_blocks: int | None = None,
    kinds: tuple[str, ...] | None = None,
) -> "ray.data.Dataset":
    """Read the pages corpus with column pruning and sane block sizing.

    ``kinds``: optional page-kind pre-filter applied at the FILE level —
    the writer partitions listing/monitor pages into their own file
    (``search_pages-*.parquet`` shards), so a consumer of detail kinds
    only never reads those bytes at all (prune at the read, not after
    it). Any other kind (search, monitor) reads everything. Falls back
    to reading everything when the layout doesn't separate kinds; the
    downstream vectorised kind filter stays authoritative either way.
    """
    import glob
    import os

    paths: str | list[str] = pages_dir
    if kinds is not None and set(kinds) <= set(DETAIL_KINDS):
        split = [
            p
            for p in sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
            if not os.path.basename(p).startswith("search_pages")
        ]
        if split:
            paths = split
    return ray.data.read_parquet(
        paths,
        columns=columns or ["url", "warc_ts", "html"],
        override_num_blocks=num_blocks or auto_num_blocks(pages_dir),
    )


#: one RE2 pass classifies the two hot URL shapes (details + result
#: pages — the overwhelming majority of any pages corpus); everything
#: else (search/monitor/other, <1% of rows and file-separated anyway)
#: falls back to the scalar canonicalizer row by row.
_DETAIL_URL_RE = (
    r"^[a-z][a-z0-9+.-]*://(?P<host>[^/?#]+)/gepris/"
    r"(?P<ctx>projekt|person|institution)/(?P<id>[0-9]+)"
    r"(?P<erg>/ergebnisse)?(?:\?language=(?P<lang>de|en))?$"
)


def entity_bucket(keys, num_buckets: int) -> np.ndarray:
    """The entity bucket of each ``"ctx/id"`` key: blake2b
    (``stable_hash64``) mod ``num_buckets``, as int32, each distinct key
    hashed once; a null key gets bucket 0. The pages and the resident
    frontier's sentinel rows both bucket by this one formula."""
    import pandas as pd

    codes, uniques = pd.factorize(np.asarray(keys, dtype=object))
    if not len(uniques):
        return np.zeros(len(codes), dtype=np.int32)
    buckets = (stable_hash64_array(list(uniques)) % num_buckets).astype(np.int32)
    return np.where(codes >= 0, buckets[np.clip(codes, 0, None)], 0).astype(np.int32)


def annotate_batch(batch: pa.Table, num_buckets: int = 64) -> pa.Table:
    """Add canonical-key columns to a pages batch.

    Vectorised: ``pc.extract_regex`` classifies detail/result URLs in
    one RE2 pass (SURVEY.md M8 as pyarrow.compute string ops); the
    entity-key bucket (:func:`entity_bucket`) hashes each *unique* key
    once (clustered corpora repeat each key ~6×). Rows the regex rejects
    go through :func:`parse_page_url` individually — identical
    semantics, scalar speed, negligible count.
    """
    import pyarrow.compute as pc

    n = batch.num_rows
    if n == 0:
        out = batch
        for name, typ in [
            ("kind", pa.string()), ("context", pa.string()), ("id", pa.int64()),
            ("language", pa.string()), ("host", pa.string()), ("index", pa.int64()),
            ("bucket", pa.int32()),
        ]:
            out = out.append_column(name, pa.array([], type=typ))
        return out
    url_col = batch.column("url")
    if url_col.num_chunks != 1:
        url_col = url_col.combine_chunks()
    m = pc.extract_regex(url_col, _DETAIL_URL_RE)
    matched = pc.is_valid(m).to_numpy(zero_copy_only=False)

    ctx_arr = pc.struct_field(m, "ctx")
    id_str = pc.struct_field(m, "id")
    erg = pc.struct_field(m, "erg")
    lang_raw = pc.struct_field(m, "lang")

    kind = pc.if_else(pc.equal(erg, "/ergebnisse"), "result", "details")
    language = pc.if_else(pc.equal(lang_raw, ""), "de", lang_raw)
    ids = pc.cast(id_str, pa.int64())
    host = pc.struct_field(m, "host")

    # the "ctx/id" entity keys (null where the regex rejected the URL)
    keys = pc.binary_join_element_wise(ctx_arr, id_str, "/").to_numpy(zero_copy_only=False)

    if matched.all():
        index = np.full(n, -1, dtype=np.int64)
        out_cols = dict(
            kind=kind, context=ctx_arr, id=ids, language=language, host=host,
            index=pa.array(index),
        )
    else:
        # patch the scalar-fallback rows in materialised arrays
        kind_l = kind.to_pylist()
        ctx_l = ctx_arr.to_pylist()
        ids_np = np.asarray(ids.fill_null(-1).to_numpy(zero_copy_only=False), dtype=np.int64).copy()
        lang_l = language.to_pylist()
        host_l = host.to_pylist()
        index = np.full(n, -1, dtype=np.int64)
        urls = url_col.to_pylist()
        keys = keys.copy()
        for i in np.flatnonzero(~matched):
            info = parse_page_url(urls[i])
            kind_l[i] = info["kind"]
            ctx_l[i] = info["context"]
            ids_np[i] = info["id"]
            lang_l[i] = info["language"]
            host_l[i] = info["host"]
            index[i] = info["index"]
            keys[i] = f"{info['context']}/{info['id']}"
        out_cols = dict(
            kind=pa.array(kind_l, type=pa.string()),
            context=pa.array(ctx_l, type=pa.string()),
            id=pa.array(ids_np),
            language=pa.array(lang_l, type=pa.string()),
            host=pa.array(host_l, type=pa.string()),
            index=pa.array(index),
        )
    out_cols["bucket"] = pa.array(entity_bucket(keys, num_buckets), type=pa.int32())
    out = batch
    for name, col in out_cols.items():
        out = out.append_column(name, col)
    return out


def annotate_pages(ds: "ray.data.Dataset", num_buckets: int = 64) -> "ray.data.Dataset":
    return ds.map_batches(
        lambda b: annotate_batch(b, num_buckets),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def filter_detail_batch(batch: pa.Table) -> pa.Table:
    """Keep only details/result pages (vectorised predicate)."""
    import pyarrow.compute as pc

    return batch.filter(pc.is_in(batch.column("kind"), value_set=pa.array(DETAIL_KINDS)))


def filter_detail_pages(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    return ds.map_batches(
        filter_detail_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def semi_join_frontier(
    ds: "ray.data.Dataset", frontier_keys_ref
) -> "ray.data.Dataset":
    """Broadcast semi-join: keep pages whose (context, id) is in the
    frontier batch.

    The frontier batch is budget-bounded (the reference's daily crawl
    budget, scheduler_cronfile:19-33), i.e. small relative to the
    corpus — so this is a ``ray.put`` broadcast + per-batch hash lookup
    instead of an all-to-all shuffle join (ray_guide: semi/anti join).
    """
    import ray

    def _filter(batch: pa.Table) -> pa.Table:
        import pandas as pd

        keys = ray.get(frontier_keys_ref)  # set[(context, id)] — cached per worker
        mi = pd.MultiIndex.from_arrays(
            [
                batch.column("context").to_pandas(),
                batch.column("id").to_pandas(),
            ]
        )
        mask = mi.isin(keys)  # vectorized composite-key membership
        return batch.filter(pa.array(mask))

    return ds.map_batches(_filter, batch_format="pyarrow", zero_copy_batch=True)
