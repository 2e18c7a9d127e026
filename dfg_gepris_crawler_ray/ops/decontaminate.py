"""Benchmark decontamination — flag training documents whose word
n-grams overlap an evaluation ("benchmark") set.

The standard pre-training hygiene step (used for every public LLM
corpus): any document sharing an exact n-token span with a held-out
benchmark is flagged so it can be dropped before training.  Here the
benchmark side is carved deterministically out of the same
``documents`` table (``doc_id % bench_mod == 0``) so the op is
self-contained and SQL-oracle-checkable.

Two routes, identical output (equivalence pinned in tests):

- ``route="broadcast"`` (default): the benchmark gram-hash set is
  reduced to one sorted uint64 array, ``ray.put`` ONCE, and every
  extract task does a vectorised ``np.searchsorted`` membership test.
  Right whenever the eval set is small relative to the corpus (the
  real-world case: benchmarks are MBs, corpora are TBs).
- ``route="bucketed"``: no driver-resident gram set — benchmark and
  training grams are exploded to rows, routed together by gram hash
  (``kernels.partitioning.keyed_exchange``), matched inside each
  bucket, and per-doc partial counts are summed by a second, doc-keyed
  exchange. The scale form for when the "benchmark" side is itself
  huge (e.g. decontaminating against another corpus).

100-TB posture: the broadcast route touches the corpus once with no
shuffle; the bucketed route is two keyed exchanges carrying only
(hash, doc_id) rows, never text.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..kernels.hashing import stable_hash64
from ..kernels.partitioning import keyed_exchange, table_width

_P = np.uint64(1099511628211)


def _doc_gram_hashes(text: str, n: int, cache: dict[str, np.uint64]) -> np.ndarray:
    """Distinct hashes of the n-token shingles of ``text`` (uint64).

    Token hashes are memoized across the batch (natural text repeats
    tokens heavily); shingle hash = polynomial combine over uint64
    wraparound — stable across processes (no PYTHONHASHSEED salt).
    """
    toks = text.split(" ")
    if len(toks) < n:
        return np.empty(0, dtype=np.uint64)
    th = np.empty(len(toks), dtype=np.uint64)
    for i, t in enumerate(toks):
        h = cache.get(t)
        if h is None:
            h = cache[t] = np.uint64(stable_hash64(t))
        th[i] = h
    with np.errstate(over="ignore"):
        acc = th[: len(toks) - n + 1].copy()
        for j in range(1, n):
            acc = acc * _P + th[j : len(toks) - n + 1 + j]
    return np.unique(acc)


def _grams_of_batch(batch: pa.Table, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc_ids, per-doc gram counts, concatenated distinct gram hashes)."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    texts = batch.column("text").to_pylist()
    cache: dict[str, np.uint64] = {}
    per_doc = [_doc_gram_hashes(t, n, cache) for t in texts]
    counts = np.fromiter((len(g) for g in per_doc), dtype=np.int64, count=len(per_doc))
    flat = np.concatenate(per_doc) if per_doc else np.empty(0, dtype=np.uint64)
    return ids, counts, flat


def _benchmark_gram_array(sf_dir: str, n: int, bench_mod: int) -> np.ndarray:
    """Sorted distinct gram hashes of the benchmark slice (small side)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def bench_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(ids % bench_mod == 0))
        _, _, flat = _grams_of_batch(batch, n)
        return pa.table({"ghash": pa.array(np.unique(flat), type=pa.uint64())})

    parts = ds.map_batches(bench_grams, batch_format="pyarrow", zero_copy_batch=True)
    # the eval set is tiny by definition — collecting its distinct gram
    # hashes to the driver IS the broadcast pattern (MBs, not corpus-sized)
    arrs = [b.column("ghash").to_numpy() for b in parts.iter_batches(batch_format="pyarrow")]
    flat = np.concatenate(arrs) if arrs else np.empty(0, dtype=np.uint64)
    return np.unique(flat)


def decontaminate(
    sf_dir: str,
    n: int = 4,
    bench_mod: int = 29,
    route: str = "broadcast",
) -> "ray.data.Dataset":
    """Per training doc: (doc_id, n_grams, n_contaminated, contaminated).

    ``n_grams`` = distinct n-token shingles of the doc;
    ``n_contaminated`` = how many of those also occur anywhere in the
    benchmark slice; ``contaminated`` = 1 if any do.  Docs shorter than
    ``n`` tokens have no shingles and are excluded (mirrors the SQL
    oracle's ``unnest`` semantics).
    """
    if route == "bucketed":
        return _decontaminate_bucketed(sf_dir, n, bench_mod)

    bench_ref = ray.put(_benchmark_gram_array(sf_dir, n, bench_mod))
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def flag(batch: pa.Table) -> pa.Table:
        all_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(all_ids % bench_mod != 0))
        bench = ray.get(bench_ref)
        ids, counts, flat = _grams_of_batch(batch, n)
        if len(bench):
            pos = np.searchsorted(bench, flat)
            pos[pos >= len(bench)] = len(bench) - 1 if len(bench) else 0
            hit = (bench[pos] == flat).astype(np.int64)
        else:
            hit = np.zeros(len(flat), dtype=np.int64)
        # segment-sum hits back to docs
        seg = np.repeat(np.arange(len(ids)), counts)
        hits = np.bincount(seg, weights=hit, minlength=len(ids)).astype(np.int64)
        mask = counts > 0
        return pa.table(
            {
                "doc_id": pa.array(ids[mask], type=pa.int64()),
                "n_grams": pa.array(counts[mask]),
                "n_contaminated": pa.array(hits[mask]),
                "contaminated": pa.array((hits[mask] > 0).astype(np.int64)),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


def _decontaminate_bucketed(sf_dir: str, n: int, bench_mod: int) -> "ray.data.Dataset":
    """No driver gram set: route benchmark + training grams together
    by gram hash, match per bucket, sum per-doc partials."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    width = table_width(sf_dir, "documents")

    def gram_rows(batch: pa.Table) -> pa.Table:
        ids, counts, flat = _grams_of_batch(batch, n)
        doc = np.repeat(ids, counts).astype(np.int64)
        is_bench = (doc % bench_mod == 0).astype(np.int8)
        return pa.table(
            {
                "ghash": pa.array(flat.view(np.int64)),
                "doc_id": pa.array(doc),
                "is_bench": pa.array(is_bench),
            }
        )

    def match_bucket(group: pd.DataFrame) -> pd.DataFrame:
        bench = np.sort(group.loc[group["is_bench"] == 1, "ghash"].unique())
        train = group[group["is_bench"] == 0]
        if not len(train):
            return pd.DataFrame(
                {"doc_id": [], "n_grams": [], "n_contaminated": []}
            ).astype({"doc_id": "int64", "n_grams": "int64", "n_contaminated": "int64"})
        g = train["ghash"].to_numpy()
        if len(bench):
            pos = np.clip(np.searchsorted(bench, g), 0, len(bench) - 1)
            hit = (bench[pos] == g).astype(np.int64)
        else:
            hit = np.zeros(len(g), dtype=np.int64)
        agg = (
            pd.DataFrame({"doc_id": train["doc_id"].to_numpy(), "hit": hit, "one": 1})
            .groupby("doc_id", as_index=False)
            .sum()
        )
        return pd.DataFrame(
            {
                "doc_id": agg["doc_id"].astype("int64"),
                "n_grams": agg["one"].astype("int64"),
                "n_contaminated": agg["hit"].astype("int64"),
            }
        )

    def sum_doc(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby("doc_id", as_index=False)[["n_grams", "n_contaminated"]].sum()
        agg["contaminated"] = (agg["n_contaminated"] > 0).astype("int64")
        return agg

    grams = ds.map_batches(gram_rows, batch_format="pyarrow", zero_copy_batch=True)
    partials = keyed_exchange(grams, "ghash", match_bucket, width)
    return keyed_exchange(partials, "doc_id", sum_doc, width)
