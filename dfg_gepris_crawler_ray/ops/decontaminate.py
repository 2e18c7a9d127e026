"""Benchmark decontamination — flag training documents whose word
n-grams overlap an evaluation ("benchmark") set.

The standard pre-training hygiene step (used for every public LLM
corpus): any document sharing an exact n-token span with a held-out
benchmark is flagged so it can be dropped before training.  Here the
benchmark side is carved deterministically out of the same
``documents`` table (``doc_id % bench_mod == 0``) so the op is
self-contained and SQL-oracle-checkable.

Benchmark and training grams are exploded to (hash, doc_id) rows and
routed together by gram hash (``kernels.partitioning.keyed_exchange``),
matched inside each bucket, and per-doc partial counts are summed by a
second, doc-keyed exchange: no gram set is held on the driver, so the
benchmark side may itself be corpus-sized (e.g. decontaminating
against another corpus), and no text ever crosses an exchange.
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


def decontaminate(
    sf_dir: str,
    n: int = 4,
    bench_mod: int = 29,
) -> "ray.data.Dataset":
    """Per training doc: (doc_id, n_grams, n_contaminated, contaminated).

    ``n_grams`` = distinct n-token shingles of the doc;
    ``n_contaminated`` = how many of those also occur anywhere in the
    benchmark slice; ``contaminated`` = 1 if any do.  Docs shorter than
    ``n`` tokens have no shingles and are excluded (mirrors the SQL
    oracle's ``unnest`` semantics).
    """
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
