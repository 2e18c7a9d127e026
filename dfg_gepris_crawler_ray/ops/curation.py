"""End-to-end training-corpus curation — the composition the single
ops exist for, run as ONE streaming pipeline.

``corpus_curation``: quality filter → deterministic split → exact
dedup keep-one — the canonical "raw crawl → training corpus" funnel.
All row-local scoring fuses into a single ``map_batches`` pass over
the corpus (one read, no intermediate materialization); the only
exchange is the content-hash keep-min of the SURVIVORS (post-filter,
so the shuffle carries the kept subset only). Every step is
ANSI-SQL-reproducible, so the whole pipeline is oracle-checked
end-to-end — not just its parts.

``stratified_sample``: per-class deterministic hash sampling (e.g.
downsample the dominant event classes, keep the rare ones whole) —
row-local, reproducible, SQL-checkable.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..kernels.partitioning import fan_in, keyed_exchange, table_width
from .dedup import keep_min
from .textstats import quality_batch

#: per-class keep rates for the stratified events sample (rebalancing:
#: dominant interaction classes downsampled, rare/important kept whole)
STRATA_RATES = {"click": 0.1, "view": 0.1, "purchase": 0.5, "signup": 1.0, "error": 1.0}


def corpus_curation(
    sf_dir: str,
    min_quality: float = 0.5,
    min_tokens: int = 30,
    split: str = "train",
    train: int = 80,
    valid: int = 10,
) -> "ray.data.Dataset":
    """documents → curated training corpus: (doc_id, n_tokens,
    quality_score) for docs that pass the quality bar, fall in the
    requested hash split, and are their duplicate-group's
    representative (min doc_id per exact content hash).

    Dedup runs AFTER the filters (smaller shuffle; the oracle mirrors
    the same order)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    lo, hi = (0, train) if split == "train" else (
        (train, train + valid) if split == "valid" else (train + valid, 100)
    )

    def score_and_filter(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)  # doc_id, n_tokens, stopword_ratio, quality_score
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        split_bucket = np.fromiter(
            (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100 for i in ids),
            dtype=np.int64, count=len(ids),
        )
        md5s = [hashlib.md5(t.encode()).hexdigest() for t in texts]
        n_tok = np.asarray(q.column("n_tokens"))
        score = np.asarray(q.column("quality_score"))
        keep = (
            (score >= min_quality)
            & (n_tok >= min_tokens)
            & (split_bucket >= lo)
            & (split_bucket < hi)
        )
        return pa.table(
            {
                "doc_id": pa.array([i for i, k in zip(ids, keep) if k], type=pa.int64()),
                "n_tokens": pa.array(n_tok[keep]),
                "quality_score": pa.array(score[keep]),
                "content_md5": pa.array([m for m, k in zip(md5s, keep) if k], type=pa.string()),
            }
        )

    scored = ds.map_batches(score_and_filter, batch_format="pyarrow", zero_copy_batch=True)
    return keep_min(
        scored, "content_md5", "doc_id", table_width(sf_dir, "documents")
    ).select_columns(["doc_id", "n_tokens", "quality_score"])


def stratified_sample(sf_dir: str, rates: dict[str, float] | None = None) -> "ray.data.Dataset":
    """Deterministic per-class sampling of the events stream: keep an
    event iff ``md5(str(event_id)) % 1000 < rate(class) * 1000``.
    Row-local (no shuffle, no RNG state); the same rows come back on
    every run and in SQL."""
    rates = STRATA_RATES if rates is None else rates
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type", "value"]
    )

    def sample(batch: pa.Table) -> pa.Table:
        ids = batch.column("event_id").to_pylist()
        etypes = batch.column("event_type").to_pylist()
        h = np.fromiter(
            (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 1000 for i in ids),
            dtype=np.int64, count=len(ids),
        )
        cut = np.fromiter(
            (int(rates.get(t, 1.0) * 1000) for t in etypes), dtype=np.int64, count=len(etypes)
        )
        return batch.filter(pa.array(h < cut))

    return ds.map_batches(sample, batch_format="pyarrow", zero_copy_batch=True)


def sequence_packing(sf_dir: str, budget: int = 1024) -> "ray.data.Dataset":
    """Token-budget sequence packing: assign each document (in doc_id
    order) to a training sequence so every sequence holds ``budget``
    tokens of consecutive documents — the standard pre-tokenization
    packing step of an LLM data pipeline (here in its deterministic
    budgeted-chunking form: ``seq_id = floor(exclusive_prefix_tokens /
    budget)``, so a document may straddle two sequences — where the
    tokenizer would split it).

    Distributed shape — a GLOBAL ordered prefix sum in two passes, the
    scan-then-offset pattern that scales to any corpus:

    1. one pass emits per-batch partials ``(first doc_id, token sum)``
       — two ints per batch, collected to the driver (bounded by block
       count, never rows);
    2. the driver orders partials by first-doc-id and computes each
       batch's starting offset (a tiny cumulative sum), broadcast via
       ``ray.put``;
    3. a second identical-batching pass adds the local exclusive
       prefix to the batch's offset — row-local, no shuffle at all.

    Requires doc_id-clustered input (documents.parquet is written
    sorted; both passes read with the same block/batch layout so batch
    boundaries — keyed by first doc_id — line up). Token convention
    matches ``token_stats``: ``len(text.split(' '))``.
    """
    import ray

    path = f"{sf_dir}/documents.parquet"

    def _counts(batch: pa.Table) -> np.ndarray:
        texts = batch.column("text").to_pylist()
        return np.fromiter(
            (len(t.split(" ")) for t in texts), dtype=np.int64, count=len(texts)
        )

    def partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"first_doc": pa.array([], type=pa.int64()),
                 "tokens": pa.array([], type=pa.int64())}
            )
        c = _counts(batch)
        return pa.table(
            {
                "first_doc": pa.array([int(batch.column("doc_id")[0].as_py())]),
                "tokens": pa.array([int(c.sum())]),
            }
        )

    def _read():
        return ray.data.read_parquet(path, columns=["doc_id", "text"])

    stats = (
        _read()
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .sort_values("first_doc")
    )
    starts = stats["tokens"].cumsum().shift(fill_value=0)
    offsets = dict(zip(stats["first_doc"].astype(int), starts.astype(int)))
    off_ref = ray.put(offsets)

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"doc_id": pa.array([], type=pa.int64()),
                 "n_tokens": pa.array([], type=pa.int64()),
                 "seq_id": pa.array([], type=pa.int64()),
                 "seq_offset": pa.array([], type=pa.int64())}
            )
        offs = ray.get(off_ref)
        c = _counts(batch)
        start = offs[int(batch.column("doc_id")[0].as_py())]
        prefix = start + np.concatenate([[0], np.cumsum(c[:-1])])
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(c),
                "seq_id": pa.array(prefix // budget),
                "seq_offset": pa.array(prefix % budget),
            }
        )

    return _read().map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def text_chunking(
    sf_dir: str, chunk_tokens: int = 128, overlap: int = 32
) -> "ray.data.Dataset":
    """RAG-style sliding-window chunking: explode each document into
    token windows of ``chunk_tokens`` with ``overlap`` tokens shared
    between neighbours (stride = chunk_tokens − overlap). Row-local —
    a pure ``map_batches`` explode, no shuffle at any corpus size.

    Chunk grid (integer-exact, SQL-reproducible): with n tokens and
    stride s, ``n_chunks = 1 + max(0, ceil((n − chunk) / s))``; chunk i
    covers ``[i·s, min(i·s + chunk, n))``. Token convention matches
    ``token_stats`` (split on single space, empties kept)."""
    stride = chunk_tokens - overlap
    if stride <= 0:
        raise ValueError("overlap must be smaller than chunk_tokens")
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def explode(batch: pa.Table) -> pa.Table:
        out_doc, out_idx, out_start, out_len = [], [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            n = len(text.split(" "))
            n_chunks = 1 + max(0, -(-(n - chunk_tokens) // stride))
            for i in range(n_chunks):
                start = i * stride
                out_doc.append(doc_id)
                out_idx.append(i)
                out_start.append(start)
                out_len.append(min(start + chunk_tokens, n) - start)
        return pa.table(
            {
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "chunk_idx": pa.array(out_idx, type=pa.int64()),
                "start_tok": pa.array(out_start, type=pa.int64()),
                "n_tok": pa.array(out_len, type=pa.int64()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


def shuffle_shards(sf_dir: str, n_shards: int = 8) -> "ray.data.Dataset":
    """Deterministic global training shuffle + shard packing: order the
    corpus by ``md5(doc_id)`` (a reproducible pseudo-random permutation
    — the standard seedable pre-training shuffle) and cut the rank
    sequence into ``n_shards`` contiguous, equal-size shards:
    ``shard = global_rank * n_shards // total``.

    Output: (doc_id, shuffle_key, global_rank, shard).

    Distributed shape: the permutation is Ray Data's native all-to-all
    ``Dataset.sort`` over the key column ONLY (doc_id + 32-byte key per
    row — text never moves); global ranks then come from the same
    scan-then-offset two-pass prefix pattern as ``sequence_packing``
    (per-block partials → tiny driver cumsum keyed by each block's
    first key → broadcast offsets; both passes run over the ONE
    materialized sorted index so block boundaries line up).  The
    materialization is the sorted (doc_id, key) index — blocks in the
    object store, never the driver.
    """
    import ray

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def add_key(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        keys = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return pa.table({"doc_id": batch.column("doc_id"), "shuffle_key": pa.array(keys)})

    s = (
        ds.map_batches(add_key, batch_format="pyarrow", zero_copy_batch=True)
        .sort("shuffle_key")
        .materialize()
    )

    def partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"first_key": pa.array([], type=pa.string()),
                 "n": pa.array([], type=pa.int64())}
            )
        return pa.table(
            {
                "first_key": pa.array([batch.column("shuffle_key")[0].as_py()]),
                "n": pa.array([batch.num_rows]),
            }
        )

    stats = (
        s.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .sort_values("first_key")
    )
    total = int(stats["n"].sum())
    starts = stats["n"].cumsum().shift(fill_value=0)
    offsets = dict(zip(stats["first_key"], starts.astype(int)))
    off_ref = ray.put((offsets, total))

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"doc_id": pa.array([], type=pa.int64()),
                 "shuffle_key": pa.array([], type=pa.string()),
                 "global_rank": pa.array([], type=pa.int64()),
                 "shard": pa.array([], type=pa.int64())}
            )
        offs, tot = ray.get(off_ref)
        start = offs[batch.column("shuffle_key")[0].as_py()]
        rank = start + np.arange(batch.num_rows, dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "shuffle_key": batch.column("shuffle_key"),
                "global_rank": pa.array(rank),
                "shard": pa.array(rank * n_shards // total),
            }
        )

    return s.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


#: default per-language epoch weights for ``corpus_mixture`` —
#: upsample the target language, downsample the long tail (the
#: DoReMi / Pile-style "mixture weights" knob, made deterministic)
MIXTURE_WEIGHTS: dict[str, tuple[int, int]] = {
    # lang -> (whole_copies, extra_copy_pct): n_copies = whole +
    # (1 if md5(doc_id) % 100 < pct else 0)
    "en": (2, 0),
    "de": (1, 50),
    "fr": (1, 0),
    "es": (0, 50),
    "zh": (0, 25),
}


def source_quality_filter(sf_dir: str, min_avg_chars: int = 290) -> "ray.data.Dataset":
    """Domain-level quality filtering (the RefinedWeb / C4 "bad host"
    pattern): aggregate per-source stats over the whole corpus, block
    sources whose integer mean document length ``sum(n_chars) //
    n_docs`` falls below the bar, keep every document of the surviving
    sources.  Output: (doc_id, source, n_chars).

    Distributed shape — the canonical pre-aggregate + broadcast
    semi-join (NO doc-level shuffle):

    1. per-batch partial per-source (n_docs, sum_chars) via
       ``pyarrow.Table.group_by`` (vectorized);
    2. global groupby("source") over the partials — the exchange
       carries one row per (batch, source), not per document;
    3. the per-source verdict table is tiny (hosts ≪ docs; ~10^8 rows
       at worst for a full web crawl) → broadcast the blocked-source
       set via ``ray.put`` and filter in a second scan.  If the host
       table ever outgrows broadcast, swap step 3 for the bucketed
       semi-join pattern of ``relational.anti_join_bucketed``.
    """
    import ray

    path = f"{sf_dir}/documents.parquet"
    ds = ray.data.read_parquet(path, columns=["doc_id", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("source").aggregate(
            [("n_chars", "sum"), ("doc_id", "count")]
        )
        return pa.table(
            {
                "source": g.column("source"),
                "sum_chars": g.column("n_chars_sum").cast(pa.int64()),
                "n_docs": g.column("doc_id_count").cast(pa.int64()),
            }
        )

    stats = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .sum(["sum_chars", "n_docs"])
        .to_pandas()
    )
    allowed = sorted(
        s
        for s, sc, n in zip(
            stats["source"], stats["sum(sum_chars)"], stats["sum(n_docs)"]
        )
        if int(sc) // int(n) >= min_avg_chars
    )
    # broadcast the verdict as an Arrow array: zero-copy from the
    # object store, probed with the vectorized is_in kernel
    allowed_ref = ray.put(pa.array(allowed, type=pa.string()))

    def keep(batch: pa.Table) -> pa.Table:
        ok = ray.get(allowed_ref)
        return batch.filter(pc.is_in(batch.column("source"), value_set=ok))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def dsir_importance(
    sf_dir: str,
    target_lang: str = "en",
    n_buckets: int = 256,
    scale: int = 1_000_000,
) -> "ray.data.Dataset":
    """DSIR-style importance weights (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling"): score every
    document by how much its hashed-bigram profile looks like a target
    subcorpus (here: ``lang == target_lang``) relative to the raw
    corpus.  Integer-exact so the SQL oracle reproduces it
    bit-for-bit: bucket ``b = md5(t1 + ' ' + t2)[:8] % n_buckets``,
    per-bigram score ``(target_n[b] * scale) // corpus_n[b]`` with
    +1 smoothing on both counts, per-doc importance = sum over its
    bigram OCCURRENCES.  Output: (doc_id, n_bigrams, importance).

    Distributed shape — two scans, zero doc-level shuffle:

    1. counting scan: each batch emits its nonzero (bucket, corpus_n,
       target_n) partials (≤ n_buckets rows/batch) → tiny
       groupby("bucket") sum → the two count vectors are ``n_buckets``
       int64s, broadcast once via ``ray.put``;
    2. scoring scan: per batch, all bigrams are hashed in one
       ``np.fromiter`` pass, scored vectorized, and summed per doc
       with ``np.add.reduceat`` over the doc boundaries.

    The real-scale note: md5 is the bucket hash ONLY for SQL-oracle
    reproducibility; swap in a 64-bit multiply-shift hash for
    production and the shape is unchanged.
    """
    import ray

    path = f"{sf_dir}/documents.parquet"
    ds = ray.data.read_parquet(path, columns=["doc_id", "text", "lang"])

    def _bigram_buckets_and_bounds(batch: pa.Table):
        """All bigram buckets of the batch (one flat int64 array) plus
        each doc's bigram count, in row order."""
        texts = batch.column("text").to_pylist()
        grams: list[bytes] = []
        counts = np.empty(len(texts), dtype=np.int64)
        for i, text in enumerate(texts):
            toks = text.split(" ")
            counts[i] = max(len(toks) - 1, 0)
            grams.extend(
                (a + " " + b).encode() for a, b in zip(toks, toks[1:])
            )
        if grams:
            buckets = np.fromiter(
                (int(hashlib.md5(g).hexdigest()[:8], 16) for g in grams),
                dtype=np.int64, count=len(grams),
            ) % n_buckets
        else:
            buckets = np.empty(0, dtype=np.int64)
        return buckets, counts

    def count_partial(batch: pa.Table) -> pa.Table:
        buckets, counts = _bigram_buckets_and_bounds(batch)
        corpus = np.bincount(buckets, minlength=n_buckets).astype(np.int64)
        is_tgt = np.repeat(
            np.asarray(batch.column("lang")) == target_lang, counts
        )
        target = np.bincount(buckets[is_tgt], minlength=n_buckets).astype(np.int64)
        nz = (corpus > 0) | (target > 0)
        return pa.table(
            {
                "bucket": pa.array(np.flatnonzero(nz), type=pa.int64()),
                "corpus_n": pa.array(corpus[nz]),
                "target_n": pa.array(target[nz]),
            }
        )

    counts_df = (
        ds.map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .sum(["corpus_n", "target_n"])
        .to_pandas()
    )
    corpus_n = np.ones(n_buckets, dtype=np.int64)  # +1 smoothing
    target_n = np.ones(n_buckets, dtype=np.int64)
    b = counts_df["bucket"].to_numpy()
    corpus_n[b] += counts_df["sum(corpus_n)"].to_numpy().astype(np.int64)
    target_n[b] += counts_df["sum(target_n)"].to_numpy().astype(np.int64)
    per_bucket_score = (target_n * scale) // corpus_n
    score_ref = ray.put(per_bucket_score)

    def score(batch: pa.Table) -> pa.Table:
        buckets, counts = _bigram_buckets_and_bounds(batch)
        tbl = ray.get(score_ref)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        if len(buckets):
            sums_at = np.add.reduceat(
                np.concatenate((tbl[buckets], [0])), np.minimum(starts, len(buckets))
            )
            importance = np.where(counts > 0, sums_at, 0)
        else:
            importance = np.zeros(len(counts), dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_bigrams": pa.array(counts),
                "importance": pa.array(importance.astype(np.int64)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def corpus_mixture(
    sf_dir: str, weights: dict[str, tuple[int, int]] | None = None
) -> "ray.data.Dataset":
    """Deterministic corpus mixing / epoch upsampling: repeat each
    document ``whole + (1 if md5(doc_id) % 100 < pct else 0)`` times
    according to its language's mixture weight (``MIXTURE_WEIGHTS``) —
    the "see high-value data 2 epochs, downsample the tail" knob of
    every pre-training data recipe, with the fractional part resolved
    by the same md5 coin as ``hash_split`` (reproducible, row-local,
    no RNG state).  Output: one row per (doc_id, lang, copy_idx).

    Row-local explode — embarrassingly parallel, no shuffle; at 100 TB
    the expansion happens inside the scan so no pre-expansion corpus
    copy ever exists.
    """
    import ray

    weights = MIXTURE_WEIGHTS if weights is None else weights
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        langs = batch.column("lang").to_pylist()
        coin = np.fromiter(
            (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100 for i in ids),
            dtype=np.int64, count=len(ids),
        )
        whole = np.fromiter(
            (weights.get(l, (1, 0))[0] for l in langs), dtype=np.int64, count=len(langs)
        )
        pct = np.fromiter(
            (weights.get(l, (1, 0))[1] for l in langs), dtype=np.int64, count=len(langs)
        )
        n_copies = whole + (coin < pct)
        total = int(n_copies.sum())
        rep_ids = np.repeat(np.asarray(ids, dtype=np.int64), n_copies)
        rep_langs = np.repeat(np.asarray(langs, dtype=object), n_copies)
        starts = np.concatenate(([0], np.cumsum(n_copies)[:-1]))
        copy_idx = np.arange(total, dtype=np.int64) - np.repeat(starts, n_copies)
        return pa.table(
            {
                "doc_id": pa.array(rep_ids),
                "lang": pa.array(rep_langs.tolist(), type=pa.string()),
                "copy_idx": pa.array(copy_idx),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


def grouped_split(
    sf_dir: str, train: int = 80, valid: int = 10
) -> "ray.data.Dataset":
    """Leakage-safe train/valid/test split keyed by ``source``: every
    document of one source lands in the SAME split, so near-duplicate
    pages from one site can never straddle the train/eval boundary
    (the standard contamination guard; cf. Lee et al. 2022 §5 on
    split leakage through duplicated pages).

    Assignment is ``md5(source) % 100`` — row-local, deterministic and
    ANSI-SQL-reproducible, so the op needs NO shuffle and no state: at
    100 TB it is one column-pruned scan.  The md5 is computed once per
    UNIQUE source per batch (sources repeat heavily in a crawl), then
    scattered back through the dictionary codes.
    """
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )

    def assign(batch: pa.Table) -> pa.Table:
        src = batch.column("source")
        enc = pc.dictionary_encode(src.combine_chunks())
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        uniq = enc.dictionary.to_pylist()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        uniq_buckets = np.fromiter(
            (int(hashlib.md5(s.encode()).hexdigest()[:8], 16) % 100 for s in uniq),
            dtype=np.int64,
            count=len(uniq),
        )
        buckets = uniq_buckets[codes]
        split = np.where(
            buckets < train,
            "train",
            np.where(buckets < train + valid, "valid", "test"),
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": src,
                "hash_bucket": pa.array(buckets),
                "split": pa.array(split.tolist(), type=pa.string()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def budget_select(sf_dir: str, budget: int = 12000) -> "ray.data.Dataset":
    """Token-budget corpus selection: keep the highest-quality prefix
    of the corpus (ordered quality_score DESC, doc_id ASC) whose
    cumulative token count fits ``budget`` — the "select the best N
    billion tokens" step of a training-data build.

    NOT a global sort.  The quality score is 6-decimal-quantized, so
    its value domain is ≤ 1e6 + 1 bins; the op runs as

    1. one scan emitting per-batch PARTIAL histograms
       (q6 → (tokens, docs)) — ≤ bins rows per batch, never per doc;
    2. a tiny keyed sum + driver threshold walk over the ≤ 1e6-row
       histogram (16 MB at any corpus size — the whole point of
       quantizing the key);
    3. one filter scan: every doc strictly above the threshold bin is
       kept outright; the BOUNDARY BIN ONLY is resolved exactly by a
       doc_id-ordered prefix walk over its (doc_id, n_tokens) rows —
       bounded by one bin's occupancy (corpus/1e6 docs expected),
       logged, and the only driver-resident per-doc data.

    Equivalent to the SQL window ``sum(n_tokens) OVER (ORDER BY
    quality_score DESC, doc_id) <= budget`` — oracle-checked.
    """
    import ray

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def histo(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)
        q6 = np.floor(q.column("quality_score").to_numpy() * 1e6 + 0.5).astype(np.int64)
        toks = q.column("n_tokens").to_numpy()
        order = np.argsort(q6, kind="stable")
        uq, start = np.unique(q6[order], return_index=True)
        tok_sums = np.add.reduceat(toks[order], start)
        doc_counts = np.diff(np.append(start, len(q6)))
        return pa.table(
            {
                "q6": pa.array(uq),
                "tokens": pa.array(tok_sums.astype(np.int64)),
                "docs": pa.array(doc_counts.astype(np.int64)),
            }
        )

    hist = (
        ds.map_batches(histo, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("q6")
        .aggregate(ray.data.aggregate.Sum("tokens", alias_name="tokens"),
                   ray.data.aggregate.Sum("docs", alias_name="docs"))
        .to_pandas()
        .sort_values("q6", ascending=False)
    )
    cum = hist["tokens"].cumsum()
    over = cum[cum > budget]
    if over.empty:
        # whole corpus fits: no boundary bin
        thr_q6, head_budget = -1, 0
    else:
        i = over.index[0]
        thr_q6 = int(hist.loc[i, "q6"])
        prev = int(cum.loc[i] - hist.loc[i, "tokens"])
        head_budget = budget - prev  # token budget left inside the boundary bin

    thr_ref = ray.put((thr_q6, head_budget))

    def score(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)
        q6 = np.floor(q.column("quality_score").to_numpy() * 1e6 + 0.5).astype(np.int64)
        return q.append_column("q6", pa.array(q6))

    scored = ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)

    def keep_above(batch: pa.Table) -> pa.Table:
        thr, _ = ray.get(thr_ref)
        out = batch.filter(pc.greater(batch.column("q6"), thr))
        return out.select(["doc_id", "n_tokens", "quality_score"])

    kept = scored.map_batches(keep_above, batch_format="pyarrow", zero_copy_batch=True)

    if thr_q6 >= 0 and head_budget > 0:
        boundary = (
            scored.map_batches(
                lambda b: b.filter(pc.equal(b.column("q6"), thr_q6)).select(
                    ["doc_id", "n_tokens", "quality_score"]
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .to_pandas()
            .sort_values("doc_id", kind="mergesort")
        )
        import logging

        logging.getLogger(__name__).info(
            "budget_select boundary bin q6=%d holds %d docs (driver-resident)",
            thr_q6, len(boundary),
        )
        pick = boundary[boundary["n_tokens"].cumsum() <= head_budget]
        if len(pick):
            kept = kept.union(ray.data.from_arrow(pa.Table.from_pandas(
                pick, preserve_index=False)))
    return kept


def source_quota(sf_dir: str, cap_tokens: int = 400) -> "ray.data.Dataset":
    """Cap each source's contribution to the corpus at ``cap_tokens``
    tokens: within a source, docs are admitted doc_id-ascending while
    the source's cumulative token count stays ≤ cap — the standard
    guard against a single domain dominating a training mix (the
    per-group form of :func:`budget_select`).

    ONE source-keyed exchange: rows carry only (doc_id, source, n_tokens);
    each bucket holds its sources entirely, so the per-source prefix is
    a vectorized pandas groupby-cumsum — no global sort, no driver
    state.  Equivalent to the SQL window ``sum(n_tokens) OVER
    (PARTITION BY source ORDER BY doc_id) <= cap`` — oracle-checked.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
    )

    def count_tokens(batch: pa.Table) -> pa.Table:
        # token convention matches token_stats: split(' '), empties kept
        n = pc.add(
            pc.count_substring(batch.column("text"), " "), 1
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "n_tokens": pc.cast(n, pa.int64()),
            }
        )

    def quota(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["source", "doc_id"], kind="mergesort")
        cum = g.groupby("source", sort=False)["n_tokens"].cumsum()
        out = g[cum <= cap_tokens]
        return out[["doc_id", "source", "n_tokens"]]

    tokens = ds.map_batches(count_tokens, batch_format="pyarrow", zero_copy_batch=True)
    return keyed_exchange(tokens, "source", quota, table_width(sf_dir, "documents"))


def extracted_corpus_funnel(
    items: "ray.data.Dataset",
    min_tokens: int = 12,
    train_pct: int = 80,
) -> "ray.data.Dataset":
    """Crawl→training-corpus bridge: extracted item rows (the details
    pipeline's output) → dedup'd, length-filtered, split-assigned
    text corpus — the composition a real 100-TB build runs directly on
    the crawler's output instead of a pre-existing documents table.

    (id, n_tokens, content_md5) for projekt descriptions that survive

    1. row-local featurize (token count + content md5) fused into one
       scan of the item rows;
    2. exact dedup keep-min-id (:func:`dedup.keep_min`) — the ONE keyed
       exchange, routed by the md5, carrying only (id, n_tokens, md5)
       feature rows (never the text);
    3. row-local length filter + md5 train-split gate.

    Every step is ANSI-SQL over the generator's closed-form page
    formulas, so the whole funnel is oracle-checked end-to-end.
    """
    def featurize(batch: pa.Table) -> pa.Table:
        texts = batch.column("beschreibung_de").to_pylist()
        ids = batch.column("id").to_pylist()
        keep_ids, toks, md5s = [], [], []
        for i, t in zip(ids, texts):
            if t is None:
                continue
            keep_ids.append(i)
            toks.append(len(t.split(" ")))
            md5s.append(hashlib.md5(t.encode()).hexdigest())
        return pa.table(
            {
                "id": pa.array(keep_ids, type=pa.int64()),
                "n_tokens": pa.array(toks, type=pa.int64()),
                "content_md5": pa.array(md5s, type=pa.string()),
            }
        )

    def gate(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_pylist()
        split_ok = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100
                < train_pct
                for i in ids
            ),
            dtype=bool,
            count=len(ids),
        )
        len_ok = pc.greater_equal(batch.column("n_tokens"), min_tokens).to_numpy(
            zero_copy_only=False
        )
        return batch.filter(pa.array(split_ok & len_ok))

    feats = items.map_batches(featurize, batch_format="pyarrow", zero_copy_batch=True)
    # item rows have no table to size the exchange by: a fixed width
    deduped = keep_min(feats, "content_md5", "id", 32)
    return deduped.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)


def weighted_sample(sf_dir: str, k: int = 50) -> pa.Table:
    """(doc_id, n_chars) — deterministic weighted sample WITHOUT
    replacement, weight = n_chars (longer docs proportionally more
    likely): the Efraimidis–Spirakis one-pass scheme, key =
    ln(u)/w with u an md5-derived uniform, top-k by key — the standard
    way to draw a quality/length-weighted subset of a corpus in one
    scan.

    Distributed shape: the key is row-local (md5 → uniform → ln(u)/w,
    float64), each batch keeps its top-k (np.lexsort, doc_id
    tie-break), and :func:`kernels.partitioning.fan_in` merges the
    partials — a pre-reduced top-k, never the corpus.  The SQL oracle
    is the same float64 expression tree ordered by (key DESC, doc_id),
    so the selection is bit-identical.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        w = np.asarray(batch.column("n_chars").to_pylist(), dtype=np.float64)
        u = np.fromiter(
            (
                (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) + 1)
                / 4294967296.0
                for i in ids
            ),
            dtype=np.float64,
            count=len(ids),
        )
        key = np.log(u) / np.maximum(w, 1.0)
        idx = np.lexsort((np.asarray(ids, dtype=np.int64), -key))[:k]
        return pa.table(
            {
                "doc_id": pa.array(np.asarray(ids, dtype=np.int64)[idx]),
                "n_chars": pa.array(
                    np.asarray(batch.column("n_chars").to_pylist(), dtype=np.int64)[idx]
                ),
                "_key": pa.array(key[idx]),
            }
        )

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["_key", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(k)

    top = fan_in(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True), topk)
    return pa.table(
        {
            "doc_id": pa.array(top["doc_id"].to_numpy(np.int64)),
            "n_chars": pa.array(top["n_chars"].to_numpy(np.int64)),
        }
    )


# ---------------------------------------------------------------------------
# Gopher-style document quality rules
# ---------------------------------------------------------------------------

GOPHER_REQUIRED_STOPWORDS = ("the", "a", "to", "of", "and")


def gopher_rules(
    sf_dir: str,
    min_words: int = 50,
    max_words: int = 100_000,
    mean_len_lo: int = 3,
    mean_len_hi: int = 10,
    min_stop_distinct: int = 2,
) -> "ray.data.Dataset":
    """(doc_id, n_words, mean_word_len, stop_distinct, keep) — the
    Gopher corpus-filter rule family (Rae et al. 2021, table A1)
    restricted to the rules this corpus exercises: word-count bounds,
    mean-word-length band, and ≥N distinct required stopwords.

    Every KEEP decision is integer-exact: the mean-word-length band is
    evaluated as ``lo·n ≤ chars−(n−1) ≤ hi·n`` (no float compare), so
    the SQL oracle reproduces the boolean bit-for-bit; the rounded
    float mean is emitted for reporting only.

    Shape: one pruned streaming scan, polars split + list kernels per
    batch, zero shuffles — the cheapest possible corpus pass, which is
    exactly what a first-stage 100-TB gate must be.
    """
    import polars as pl

    import ray

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    stops = list(GOPHER_REQUIRED_STOPWORDS)

    def rules(batch: pa.Table) -> pa.Table:
        t = pl.from_arrow(batch).with_columns(
            pl.col("text").str.split(" ").alias("tok")
        )
        n = t.select(pl.col("tok").list.len()).to_series().to_numpy().astype(np.int64)
        chars = pc.utf8_length(batch.column("text")).to_numpy(zero_copy_only=False).astype(np.int64)
        letters = chars - (n - 1)  # total word chars (single-space separated)
        stop_distinct = np.zeros(len(n), dtype=np.int64)
        for w in stops:
            stop_distinct += (
                t.select(pl.col("tok").list.contains(w)).to_series().to_numpy().astype(np.int64)
            )
        keep = (
            (n >= min_words)
            & (n <= max_words)
            & (letters >= mean_len_lo * n)
            & (letters <= mean_len_hi * n)
            & (stop_distinct >= min_stop_distinct)
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(n),
                "mean_word_len": pa.array(np.round(letters / n, 6), type=pa.float64()),
                "stop_distinct": pa.array(stop_distinct),
                "keep": pa.array(keep),
            }
        )

    return ds.map_batches(rules, batch_format="pyarrow", zero_copy_batch=True)


def gopher_rules_oracle_sql(
    min_words: int = 50,
    max_words: int = 100_000,
    mean_len_lo: int = 3,
    mean_len_hi: int = 10,
    min_stop_distinct: int = 2,
) -> str:
    """DuckDB mirror of :func:`gopher_rules` (integer-exact keep)."""
    stop_sum = " + ".join(
        f"CAST(list_contains(toks, '{w}') AS BIGINT)"
        for w in GOPHER_REQUIRED_STOPWORDS
    )
    return f"""
        WITH t AS (
          SELECT doc_id,
                 string_split(text, ' ') AS toks,
                 len(string_split(text, ' ')) AS n,
                 length(text) - (len(string_split(text, ' ')) - 1) AS letters
          FROM documents
        )
        SELECT doc_id, n AS n_words,
               round(letters / CAST(n AS DOUBLE), 6) AS mean_word_len,
               {stop_sum} AS stop_distinct,
               (n >= {min_words} AND n <= {max_words}
                AND letters >= {mean_len_lo} * n
                AND letters <= {mean_len_hi} * n
                AND {stop_sum} >= {min_stop_distinct}) AS keep
        FROM t
    """


def pretrain_pack_pipeline(
    sf_dir: str,
    budget: int = 1024,
    min_words: int = 50,
) -> "ray.data.Dataset":
    """(doc_id, n_tokens, seq_id, seq_offset) — the full
    web-corpus→training-shards chain as ONE pipeline: Gopher rule gate
    (``gopher_rules`` keep) → corpus-wide exact dedup (keep the lowest
    doc_id per content hash among survivors) → deterministic
    token-budget sequence packing of the surviving documents in doc_id
    order. Every stage's decision is integer-exact, so the END-TO-END
    SQL oracle reproduces the final packed layout bit-for-bit.

    Distributed shape (nothing corpus-sized on the driver):

    1. one pruned scan emits compact feature rows ``(doc_id, n_tokens,
       letters, stop_distinct, md5)`` — the text stays in the scan;
    2. rule gate applied row-locally; survivors enter ONE md5-keyed
       exchange for the keep-min dedup (:func:`dedup.keep_min`);
    3. survivors sort by doc_id (distributed sort) and the packing
       prefix runs as the scan-then-offset pattern of
       ``sequence_packing``: per-block (first_doc, token sum) partials
       → tiny driver cumulative → broadcast offsets → row-local
       assignment.
    """
    import ray

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    stops = list(GOPHER_REQUIRED_STOPWORDS)

    def features(batch: pa.Table) -> pd.DataFrame:
        import polars as pl

        t = pl.from_arrow(batch).with_columns(
            pl.col("text").str.split(" ").alias("tok")
        )
        n = t.select(pl.col("tok").list.len()).to_series().to_numpy().astype(np.int64)
        chars = pc.utf8_length(batch.column("text")).to_numpy(zero_copy_only=False).astype(np.int64)
        letters = chars - (n - 1)
        sd = np.zeros(len(n), dtype=np.int64)
        for w in stops:
            sd += (
                t.select(pl.col("tok").list.contains(w)).to_series().to_numpy().astype(np.int64)
            )
        keep = (
            (n >= min_words) & (n <= 100_000)
            & (letters >= 3 * n) & (letters <= 10 * n)
            & (sd >= 2)
        )
        md5s = [
            hashlib.md5(t_.encode()).hexdigest()
            for t_ in batch.column("text").to_pylist()
        ]
        return pd.DataFrame(
            {
                "doc_id": batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64),
                "n_tokens": n,
                "h": md5s,
            }
        ).loc[keep]

    survivors = (
        keep_min(
            ds.map_batches(features, batch_format="pyarrow", zero_copy_batch=True),
            "h", "doc_id", table_width(sf_dir, "documents"),
        )
        .select_columns(["doc_id", "n_tokens"])
        .sort("doc_id")
        .materialize()
    )

    # scan-then-offset global prefix over the SAME materialized blocks
    part = survivors.map_batches(
        lambda df: pd.DataFrame(
            {"first_doc": [int(df["doc_id"].iloc[0])] if len(df) else [],
             "tokens": [int(df["n_tokens"].sum())] if len(df) else []}
        ),
        batch_size=None,  # one batch per block → partials key by block
        batch_format="pandas",
    ).to_pandas()
    part = part.sort_values("first_doc")
    offsets = dict(
        zip(part["first_doc"], part["tokens"].cumsum().shift(fill_value=0))
    )
    off_ref = ray.put(offsets)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"doc_id": pd.Series(dtype="int64"),
                 "n_tokens": pd.Series(dtype="int64"),
                 "seq_id": pd.Series(dtype="int64"),
                 "seq_offset": pd.Series(dtype="int64")}
            )
        base = int(ray.get(off_ref)[int(df["doc_id"].iloc[0])])
        prefix = base + df["n_tokens"].cumsum().shift(fill_value=0).astype("int64")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_tokens": df["n_tokens"].astype("int64"),
                "seq_id": (prefix // budget).astype("int64"),
                "seq_offset": (prefix % budget).astype("int64"),
            }
        )

    return survivors.map_batches(assign, batch_size=None, batch_format="pandas")
