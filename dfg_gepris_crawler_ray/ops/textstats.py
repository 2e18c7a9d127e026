"""Text-analysis operators over the ``documents`` table.

Large-scale training-data pipeline staples, each a vectorised
``map_batches`` stage over Arrow batches:

- token counting (whitespace discipline matching SQL ``string_split``)
- quality scoring (length / stopword / mean-word-length ratios)
- language ID (stopword-profile heuristic, stateful actor stage)
- document fingerprinting (md5 content hash + 64-bit rolling hash)

Corpus-wide statistics (top tokens, TF-IDF, drift, heavy hitters, the
inverted index, co-occurrence, novelty, length deciles, TextRank) pre-
aggregate per batch and reduce through ``kernels.partitioning``'s keyed
exchange at the ``documents`` table's ``table_width``, keyed on the
token, token pair, doc_id or length itself.
"""

from __future__ import annotations

import hashlib
import itertools
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..kernels.hashing import splitmix64, stable_hash64, stable_hash64_array
from ..kernels.partitioning import (
    co_exchange,
    fan_in,
    keyed_exchange,
    table_width,
    typed_frame,
)

_STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "on", "for", "with"},
    "de": {"der", "die", "das", "und", "zu", "in", "ist", "auf", "für", "mit"},
    "fr": {"le", "la", "de", "et", "à", "dans", "est", "sur", "pour", "avec"},
    "es": {"el", "la", "de", "y", "a", "en", "es", "sobre", "para", "con"},
    "zh": {"的", "和", "在", "是", "了", "有", "我", "不", "人", "这"},
}


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, token_count, char_count, avg_token_len).

    ``token_count`` = elements of ``split(' ')`` (empties kept), exactly
    SQL ``len(string_split(text, ' '))``; ``avg_token_len`` =
    (chars − separators) / tokens, rounded to 6 so the float matches
    the SQL oracle bit-for-bit after rounding.
    """
    texts = batch.column("text").to_pylist()
    tokens = np.fromiter((len(t.split(" ")) for t in texts), dtype=np.int64, count=len(texts))
    chars = pc.utf8_length(batch.column("text")).to_numpy(zero_copy_only=False).astype(np.int64)
    avg = np.round((chars - (tokens - 1)) / tokens, 6)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "token_count": pa.array(tokens),
            "char_count": pa.array(chars),
            "avg_token_len": pa.array(avg),
        }
    )


def token_stats(sf_dir: str) -> "ray.data.Dataset":
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(token_stats_batch, batch_format="pyarrow", zero_copy_batch=True)


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, content_md5, rolling_hash) — md5 matches SQL ``md5(text)``;
    rolling_hash is a 64-bit polynomial rolling hash over tokens."""
    texts = batch.column("text").to_pylist()
    md5s = [hashlib.md5(t.encode()).hexdigest() for t in texts]
    P, M = 1099511628211, (1 << 61) - 1
    rolls = np.empty(len(texts), dtype=np.uint64)
    # token hashes memoized per batch: natural text repeats tokens
    # heavily, so blake2b runs once per distinct token, not per
    # occurrence (values identical to the uncached loop)
    cache: dict[str, int] = {}
    for i, t in enumerate(texts):
        h = 14695981039346656037
        for tok in t.split(" "):
            th = cache.get(tok)
            if th is None:
                th = cache[tok] = stable_hash64(tok)
            h = (h * P + th) % M
        rolls[i] = h
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "content_md5": pa.array(md5s),
            "rolling_hash": pa.array(rolls.astype(np.int64)),
        }
    )


def fingerprints(sf_dir: str) -> "ray.data.Dataset":
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow", zero_copy_batch=True)


def _hll_registers(tokens_hashes: np.ndarray, p: int = 12) -> np.ndarray:
    """HyperLogLog register array (2^p uint8) from 64-bit hashes."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if not len(tokens_hashes):
        return regs
    idx = (tokens_hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = tokens_hashes << np.uint64(p)
    # rank = leading zeros of the remaining 64-p bits, +1 (capped)
    ranks = np.zeros(len(tokens_hashes), dtype=np.uint8)
    mask = np.uint64(1) << np.uint64(63)
    val = rest.copy()
    rank = np.ones(len(val), dtype=np.uint8)
    remaining = np.ones(len(val), dtype=bool)
    for _ in range(64 - p + 1):
        top = (val & mask) != 0
        done = remaining & top
        ranks[done] = rank[done]
        remaining &= ~top
        val = val << np.uint64(1)
        rank += 1
    ranks[remaining] = 64 - p + 1
    np.maximum.at(regs, idx, ranks)
    return regs


def _hll_register_rows(hashes: np.ndarray, p: int = 12) -> np.ndarray:
    """(n, 2^p) uint8 — ONE single-element HLL register set per input
    hash (row i == ``_hll_registers(hashes[i:i+1], p)``, bitwise; the
    per-row form HyperBall's node-state init needs). Vectorized: the
    rank loop runs once over the whole hash vector instead of once
    per node — at 10^6 nodes this is the difference between ~2 s and
    ~140 s of per-singleton Python calls."""
    m = 1 << p
    n = len(hashes)
    out = np.zeros((n, m), dtype=np.uint8)
    if not n:
        return out
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = hashes << np.uint64(p)
    ranks = np.zeros(n, dtype=np.uint8)
    mask = np.uint64(1) << np.uint64(63)
    val = rest.copy()
    rank = np.ones(n, dtype=np.uint8)
    remaining = np.ones(n, dtype=bool)
    for _ in range(64 - p + 1):
        top = (val & mask) != 0
        done = remaining & top
        ranks[done] = rank[done]
        remaining &= ~top
        val = val << np.uint64(1)
        rank += 1
    ranks[remaining] = 64 - p + 1
    out[np.arange(n), idx] = ranks
    return out


def _hll_estimate_rows(regmat: np.ndarray) -> np.ndarray:
    """int64 estimates for a (n, m) register matrix — row i equals
    ``_hll_estimate(regmat[i])`` bitwise (same exp2/sum/log kernels,
    same banker's rounding; pinned in test_ops). The vectorized form
    the HyperBall estimate/readout scans use instead of a per-row
    Python loop."""
    n, m = regmat.shape
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regmat.astype(np.float64)), axis=1)
    zeros = (regmat == 0).sum(axis=1)
    small = (est <= 2.5 * m) & (zeros > 0)
    if small.any():
        with np.errstate(divide="ignore"):
            lc = m * np.log(m / np.where(zeros > 0, zeros, 1))
        est = np.where(small, lc, est)
    return np.rint(est).astype(np.int64)


def _hll_estimate(regs: np.ndarray) -> int:
    """Standard HLL estimator with small-range correction."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting
    return int(round(est))


def approx_distinct_tokens(sf_dir: str, p: int = 12) -> "ray.data.Dataset":
    """Approximate distinct-token count per language — the sketch
    aggregate a 100 TB text pipeline needs where exact distinct would
    shuffle every token.

    Per-batch HLL register arrays [map_batches, numpy max-merge] →
    per-(lang, batch) register rows (4 KB each at p=12) → driver merge
    of a handful of registers. Error ≈ 1.04/sqrt(2^p) ≈ 1.6% at p=12;
    verified against the exact count in tests."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        by_lang: dict[str, np.ndarray] = {}
        for lang, text in zip(batch.column("lang").to_pylist(), batch.column("text").to_pylist()):
            regs = _hll_registers(stable_hash64_array(set(text.split(" "))), p)
            if lang in by_lang:
                np.maximum(by_lang[lang], regs, out=by_lang[lang])
            else:
                by_lang[lang] = regs
        return pa.table(
            {
                "lang": pa.array(list(by_lang)),
                "registers": pa.array(
                    [r.tobytes() for r in by_lang.values()], type=pa.binary()
                ),
            }
        )

    # lang-keyed max-merge stage: the driver reads ONE register row
    # per language, not one per block (registers are max-mergeable)
    def max_merge(g: pd.DataFrame) -> pd.DataFrame:
        acc: np.ndarray | None = None
        for blob in g["registers"]:
            r = np.frombuffer(blob, dtype=np.uint8)
            acc = r.copy() if acc is None else np.maximum(acc, r)
        return pd.DataFrame({"lang": [g["lang"].iloc[0]], "registers": [acc.tobytes()]})

    partials = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .map_groups(max_merge, batch_format="pandas")
        .to_pandas()
    )
    merged: dict[str, np.ndarray] = {}
    for lang, blob in zip(partials["lang"], partials["registers"]):
        regs = np.frombuffer(blob, dtype=np.uint8)
        if lang in merged:
            merged[lang] = np.maximum(merged[lang], regs)
        else:
            merged[lang] = regs.copy()
    return ray.data.from_arrow(
        pa.table(
            {
                "lang": pa.array(sorted(merged)),
                "approx_distinct_tokens": pa.array(
                    [_hll_estimate(merged[lang]) for lang in sorted(merged)],
                    type=pa.int64(),
                ),
            }
        )
    )


_PUNCT_RE = None
_WS_RE = None


def normalize_text(s: str) -> str:
    """Training-pipeline canonicalization: lowercase, strip a fixed
    punctuation set, collapse whitespace — SQL-mirrorable (lower +
    regexp_replace) so dedup on the normalized form is oracle-checkable."""
    global _PUNCT_RE, _WS_RE
    import re

    if _PUNCT_RE is None:
        _PUNCT_RE = re.compile(r'[.,;:!?()"\']')
        _WS_RE = re.compile(r"\s+")
    s = s.lower()
    s = _PUNCT_RE.sub("", s)
    return _WS_RE.sub(" ", s).strip()


def normalized_fingerprints(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, norm_md5) — content fingerprints over the normalized
    text; the exact-dedup key that survives case/punctuation noise."""
    import hashlib as _hashlib

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        hs = [
            _hashlib.md5(normalize_text(t).encode()).hexdigest()
            for t in batch.column("text").to_pylist()
        ]
        return pa.table({"doc_id": batch.column("doc_id"), "norm_md5": pa.array(hs)})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def quality_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, stopword_ratio, quality_score) — heuristic
    quality scoring (length + stopword density)."""
    texts = batch.column("text").to_pylist()
    all_stop = set().union(*_STOPWORDS.values())
    n = len(texts)
    n_tokens = np.empty(n, dtype=np.int64)
    stop_ratio = np.empty(n, dtype=np.float64)
    for i, t in enumerate(texts):
        toks = t.split()
        n_tokens[i] = len(toks)
        stop_ratio[i] = (
            sum(1 for w in toks if w in all_stop) / len(toks) if toks else 0.0
        )
    length_score = np.clip(n_tokens / 100.0, 0, 1)
    score = 0.7 * length_score + 0.3 * (1 - np.abs(stop_ratio - 0.4))

    def round6(x: np.ndarray) -> np.ndarray:
        # half-away-from-zero (SQL round semantics); np.round's
        # half-even diverges on exact .5 boundaries at the 6th decimal
        return np.floor(x * 1e6 + 0.5) / 1e6

    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens),
            "stopword_ratio": pa.array(round6(stop_ratio)),
            "quality_score": pa.array(round6(score)),
        }
    )


def quality_scores(sf_dir: str) -> "ray.data.Dataset":
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(quality_batch, batch_format="pyarrow", zero_copy_batch=True)


class LangId:
    """Stopword-profile language guesser — stateful actor stage
    (profiles built once per actor in ``__init__``)."""

    def __init__(self):
        self.profiles = {lang: frozenset(ws) for lang, ws in _STOPWORDS.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        preds = []
        for t in texts:
            toks = set(t.split())
            best_lang, best = "unknown", 0
            for lang, prof in self.profiles.items():
                hits = len(toks & prof)
                if hits > best:
                    best_lang, best = lang, hits
            preds.append(best_lang)
        return pa.table({"doc_id": batch.column("doc_id"), "lang_pred": pa.array(preds)})


def lang_id(sf_dir: str) -> "ray.data.Dataset":
    # Note: the synthetic documents' ``lang`` column is a label only —
    # the text bodies are drawn from one shared vocabulary — so no
    # content heuristic beats the majority class on this corpus; the
    # op is judged on its mechanics (per-actor model state, vectorised
    # scoring), which real multilingual text would exercise unchanged.
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(LangId, batch_format="pyarrow", zero_copy_batch=True,
                          concurrency=2)


def hash_split(sf_dir: str, train: int = 80, valid: int = 10) -> "ray.data.Dataset":
    """Deterministic hash-based train/valid/test split — the standard
    reproducible corpus partitioner for training-data pipelines. The
    assignment is ``md5(str(doc_id))`` so an ANSI-SQL oracle reproduces
    it bit-for-bit; row-local (NO shuffle, no state)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        buckets = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100
                for i in ids
            ),
            dtype=np.int64,
            count=len(ids),
        )
        split = np.where(
            buckets < train, "train", np.where(buckets < train + valid, "valid", "test")
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "hash_bucket": pa.array(buckets),
                "split": pa.array(split.tolist(), type=pa.string()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


# --- mergeable quantile digest ---------------------------------------------

DIGEST_CENTROIDS = 256


def _compress_centroids(means: np.ndarray, weights: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge (mean, weight) centroids down to ≤ k by equal-weight
    chunking over the mean-sorted sequence (t-digest-style merging
    pass with a uniform scale function)."""
    order = np.argsort(means, kind="stable")
    means, weights = means[order], weights[order]
    total = weights.sum()
    if len(means) <= k:
        return means, weights
    bounds = np.cumsum(weights)
    target = total / k
    bins = np.minimum((bounds - 1e-9) // target, k - 1).astype(np.int64)
    out_w = np.bincount(bins, weights=weights, minlength=k)
    out_m = np.bincount(bins, weights=weights * means, minlength=k)
    keep = out_w > 0
    return out_m[keep] / out_w[keep], out_w[keep]


def quantile_digest(
    sf_dir: str, qs=(0.5, 0.9, 0.99), k: int = DIGEST_CENTROIDS
) -> "pa.Table":
    """Approximate per-event-type quantiles via a MERGEABLE centroid
    digest — the corpus-scale alternative to the exact
    ``value_quantiles`` (which needs each group's full value vector in
    one task). Per-batch partial digests (≤ k centroids each) shrink
    the exchange to O(k) per group per batch; the driver merge is a
    centroid compression, not a data collect. Rank error ≈ 1/k per
    merge level (error-bound pinned in tests against the exact
    quantiles).

    WHY THIS STAYS A ROWS-ONLY GATE (the formal closure the other
    float chains graduated past): a centroid digest's output is a
    function of the PARTITION LAYOUT, not just the value multiset —
    each batch's ``_compress_centroids`` groups whichever values
    share its batch, so two different block/batch layouts produce
    different (means, weights) partials and therefore different (all
    within the rank-error bound) interpolated quantiles. Unlike the
    emb_pca / hash_embed / embed_semdedup graduations, there is no
    determinism margin to measure: the layout-induced variation IS
    the estimator's approximation error (≈ value-scale × 1/k, i.e.
    percent-level), orders of magnitude larger than any hashing grid
    the gate could round to. Making the output layout-invariant
    would require either a fixed partitioning (defeating the
    streaming/mergeable point of the sketch) or an exact algorithm —
    which exists separately as ``value_quantiles`` and carries the
    full SQL oracle. The CONTRACT of this op is the rank-error bound,
    and that is what tests/test_ops pins against exact quantiles."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    qs = list(qs)

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        rows = {"event_type": [], "means": [], "weights": []}
        for etype, grp in df.groupby("event_type"):
            v = np.sort(grp["value"].to_numpy(dtype=np.float64))
            m, w = _compress_centroids(v, np.ones(len(v)), k)
            rows["event_type"].append(etype)
            rows["means"].append(m.tolist())
            rows["weights"].append(w.tolist())
        return pa.table(
            {
                "event_type": pa.array(rows["event_type"], type=pa.string()),
                "means": pa.array(rows["means"], type=pa.list_(pa.float64())),
                "weights": pa.array(rows["weights"], type=pa.list_(pa.float64())),
            }
        )

    # type-keyed pre-merge: the driver reads ONE ≤k-centroid row per
    # event type, not one per block (digest merge is compression over
    # the mean-sorted union — input-order-independent)
    def merge_type(g: pd.DataFrame) -> pd.DataFrame:
        means = np.concatenate([np.asarray(m) for m in g["means"]])
        weights = np.concatenate([np.asarray(w) for w in g["weights"]])
        m, w = _compress_centroids(means, weights, k)
        return pd.DataFrame(
            {"event_type": [g["event_type"].iloc[0]],
             "means": [m.tolist()], "weights": [w.tolist()]}
        )

    partials = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .map_groups(merge_type, batch_format="pandas")
        .to_pandas()
    )

    out = {"event_type": [], "q": [], "value": []}
    for etype, grp in partials.groupby("event_type"):
        means = np.concatenate([np.asarray(m) for m in grp["means"]])
        weights = np.concatenate([np.asarray(w) for w in grp["weights"]])
        means, weights = _compress_centroids(means, weights, k)
        cum = np.cumsum(weights) - weights / 2.0  # centroid mid-ranks
        total = weights.sum()
        for q in qs:
            target = q * total
            est = float(np.interp(target, cum, means))
            out["event_type"].append(etype)
            out["q"].append(q)
            out["value"].append(est)
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], type=pa.string()),
            "q": pa.array(out["q"], type=pa.float64()),
            "value": pa.array(out["value"], type=pa.float64()),
        }
    )


#: GPT-2-style pre-tokenizer shape (contractions, letter runs, digit
#: runs, symbol runs, each with an optional leading space) restricted
#: to character classes whose semantics are IDENTICAL in Python `re`
#: and RE2 — so the SQL oracle counts the same tokens bit-for-bit.
BPE_TOKEN_RE = "'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^ A-Za-z0-9]+"
_BPE_RX = re.compile(BPE_TOKEN_RE)


def bpe_token_count(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_ws_tokens, n_bpe_tokens) — whitespace count plus a
    BPE-ish pre-tokenizer count (the budget estimate a training
    pipeline uses before real tokenization). Pattern compiled once per
    process at module import; row-local, no shuffle."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def count(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ws = np.fromiter((len(t.split(" ")) for t in texts), dtype=np.int64, count=len(texts))
        bpe = np.fromiter(
            (len(_BPE_RX.findall(t)) for t in texts), dtype=np.int64, count=len(texts)
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_ws_tokens": pa.array(ws),
                "n_bpe_tokens": pa.array(bpe),
            }
        )

    return ds.map_batches(count, batch_format="pyarrow", zero_copy_batch=True)


def top_tokens(sf_dir: str, k: int = 50) -> "ray.data.Dataset":
    """Exact corpus-wide token top-k — the canonical wordcount, shaped
    for scale: per-batch partial counts (one row per distinct token per
    batch) → token-keyed exchange → vectorized per-bucket sum +
    per-bucket top-k pre-prune (each bucket can contribute at most k
    winners, so the global sort sees ≤ buckets·k rows, not the
    vocabulary). Ties break by token ascending (deterministic, matches
    the oracle's ORDER BY)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for t in batch.column("text").to_pylist():
            for tok in t.split(" "):
                counts[tok] = counts.get(tok, 0) + 1
        return pa.table(
            {
                "token": pa.array(list(counts), type=pa.string()),
                "n": pa.array(list(counts.values()), type=pa.int64()),
            }
        )

    def bucket_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("token", as_index=False)["n"].sum()
        return g.sort_values(["n", "token"], ascending=[False, True], kind="stable").head(k)

    pruned = keyed_exchange(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "token",
        bucket_topk,
        table_width(sf_dir, "documents"),
    )
    # global merge: ≤ buckets·k tiny rows
    allp = pruned.to_pandas()
    out = allp.sort_values(["n", "token"], ascending=[False, True], kind="stable").head(k)
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


def _tf_rows_polars(batch: pa.Table) -> pa.Table:
    """Per-doc term counts via polars' Rust-side split/explode/group_by
    — the hottest TF-IDF stage touches every byte of text, so it must
    not iterate Python rows."""
    import polars as pl

    out = (
        pl.from_arrow(batch)
        .lazy()
        .with_columns(pl.col("text").str.split(" ").alias("token"))
        .explode("token")
        .group_by("doc_id", "token")
        .len()
        .rename({"len": "tf"})
        .select(
            pl.col("doc_id").cast(pl.Int64),
            pl.col("token"),
            pl.col("tf").cast(pl.Int64),
        )
        .collect()
        .to_arrow()
    )
    return pa.table(
        {
            "doc_id": out.column("doc_id"),
            "token": out.column("token").cast(pa.string()),
            "tf": out.column("tf"),
        }
    )


def _tf_rows_python(batch: pa.Table) -> pa.Table:
    """Pure-Python fallback for :func:`_tf_rows_polars` (identical
    output up to row order; equivalence pinned by test_ops)."""
    doc_ids, tokens, tfs = [], [], []
    for doc_id, text in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        counts: dict[str, int] = {}
        for t in text.split(" "):
            counts[t] = counts.get(t, 0) + 1
        doc_ids.extend([doc_id] * len(counts))
        tokens.extend(counts.keys())
        tfs.extend(counts.values())
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "token": pa.array(tokens, type=pa.string()),
            "tf": pa.array(tfs, type=pa.int64()),
        }
    )


def _tf_rows(batch: pa.Table) -> pa.Table:
    try:
        return _tf_rows_polars(batch)
    except ImportError:  # pragma: no cover - polars is baked in
        return _tf_rows_python(batch)


def tfidf_top_term(sf_dir: str) -> "ray.data.Dataset":
    """Per-document top TF-IDF term, integer-exact so the SQL oracle
    reproduces it bit-for-bit: ``score = tf * n_docs // df`` (the
    idf ratio kept as an integer quotient), ties broken by token
    ascending.

    Distributed shape — two keyed exchanges, no driver-resident
    vocabulary and no extra df pass:

    1. per-doc term counting inside ``map_batches`` (one (doc, token,
       tf) row per distinct term per doc);
    2. token-keyed exchange: EVERY tf row of a token lands in its
       token's bucket, so the bucket group computes the global
       document frequency locally (each (doc, token) appears once —
       df = group size) and scores in the same task.  This replaces
       the earlier union-tag co-group: same exchange volume, one
       fewer scan and no ``materialize()``;
    3. per-doc top-1 by a doc_id-keyed exchange, vectorized
       sort + head inside each bucket.

    Token convention matches ``token_stats``: ``text.split(' ')``,
    empties kept.
    """
    import pyarrow.parquet as pq

    path = f"{sf_dir}/documents.parquet"
    n_docs = int(pq.read_metadata(path).num_rows)
    width = table_width(sf_dir, "documents")

    ds = ray.data.read_parquet(path, columns=["doc_id", "text"])
    tf = ds.map_batches(_tf_rows, batch_format="pyarrow", zero_copy_batch=True)

    def score_bucket(group: pd.DataFrame) -> pd.DataFrame:
        m = group[["doc_id", "token", "tf"]].copy()
        # each (doc, token) appears exactly once, so per-token group
        # size IS the document frequency — computed bucket-locally
        m["df"] = m.groupby("token")["token"].transform("size").astype("int64")
        m["score"] = (m["tf"].astype("int64") * n_docs) // m["df"]
        return m

    scored = keyed_exchange(tf, "token", score_bucket, width)

    def top1(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["doc_id", "score", "token"], ascending=[True, False, True],
            kind="mergesort",
        )
        top = g.groupby("doc_id", as_index=False).head(1)
        return pd.DataFrame(
            {
                "doc_id": top["doc_id"].astype("int64"),
                "top_term": top["token"],
                "tf": top["tf"].astype("int64"),
                "df": top["df"].astype("int64"),
                "score": top["score"].astype("int64"),
            }
        )

    return keyed_exchange(scored, "doc_id", top1, width)


def repetition_stats_batch(batch: pa.Table) -> pa.Table:
    """Gopher-style repetition signals, integer-exact per doc:

    (doc_id, n_tokens, n_distinct_tokens, top_token_count,
     n_2grams, n_distinct_2grams, top_2gram_count)

    The classic "most-frequent-token fraction" / "duplicate-2-gram
    fraction" quality filters (Rae et al., Gopher §A1.1) reduce to
    integer comparisons over these counts (e.g. keep iff
    top_token_count * 10 <= n_tokens * 2), so the op stays
    hash-exact against a SQL oracle — no float ratios.

    Vectorised: one ``np.unique`` over the batch's token stream maps
    tokens to ids, then pandas C-groupbys produce per-(doc, gram)
    counts; no per-row Python beyond the initial split.
    """
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    texts = batch.column("text").to_pylist()
    tok_lists = [t.split(" ") for t in texts]
    lens = np.fromiter((len(t) for t in tok_lists), dtype=np.int64, count=len(tok_lists))
    flat = list(itertools.chain.from_iterable(tok_lists))
    if flat:
        _, inv = np.unique(np.asarray(flat, dtype=object), return_inverse=True)
    else:
        inv = np.empty(0, dtype=np.int64)
    seg = np.repeat(np.arange(len(ids)), lens)

    per = pd.DataFrame({"doc": seg, "tok": inv}).groupby(["doc", "tok"]).size()
    agg1 = per.groupby(level=0).agg(["sum", "count", "max"])

    # 2-grams: adjacent token-id pairs that do not cross doc boundaries
    same_doc = seg[1:] == seg[:-1]
    V = np.int64(inv.max() + 1 if len(inv) else 1)
    g2 = inv[:-1][same_doc] * V + inv[1:][same_doc]
    seg2 = seg[:-1][same_doc]
    per2 = pd.DataFrame({"doc": seg2, "g": g2}).groupby(["doc", "g"]).size()
    agg2 = per2.groupby(level=0).agg(["sum", "count", "max"])

    out = pd.DataFrame(index=np.arange(len(ids)))
    out["doc_id"] = ids
    out["n_tokens"] = agg1["sum"].reindex(out.index, fill_value=0).astype("int64")
    out["n_distinct_tokens"] = agg1["count"].reindex(out.index, fill_value=0).astype("int64")
    out["top_token_count"] = agg1["max"].reindex(out.index, fill_value=0).astype("int64")
    out["n_2grams"] = agg2["sum"].reindex(out.index, fill_value=0).astype("int64")
    out["n_distinct_2grams"] = agg2["count"].reindex(out.index, fill_value=0).astype("int64")
    out["top_2gram_count"] = agg2["max"].reindex(out.index, fill_value=0).astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def repetition_stats(sf_dir: str) -> "ray.data.Dataset":
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(repetition_stats_batch, batch_format="pyarrow", zero_copy_batch=True)


def token_drift(sf_dir: str, k: int = 50) -> "pa.Table":
    """Corpus snapshot drift detector — the reference's data-monitor
    idea (``extract/data_monitor.py``; reference
    ``spiders/data_monitor.py`` tracks aggregate counts between runs)
    lifted to corpus scale: which tokens' relative frequencies moved
    most between two crawl snapshots?

    Snapshots are the deterministic halves ``doc_id % 2`` (a stand-in
    for two dump ids); for each token, ``drift_ppm =
    |count_a*1e6 // total_a − count_b*1e6 // total_b|`` — all-integer
    floor arithmetic, so the DuckDB oracle matches bit-for-bit. Output
    is the top-``k`` tokens by (drift_ppm desc, token asc).

    Distributed shape (the `top_tokens` wordcount skeleton):

    1. one scan emits per-batch partial rows
       ``(token, n_a, n_b)`` — one row per distinct token per batch,
       never the token stream;
    2. partials are materialized once (vocab × blocks rows, bounded);
       side totals come from a ``Dataset.sum`` over the partials
       (two scalars to the driver, no extra corpus scan);
    3. a token-keyed exchange sums counts and computes drift
       vectorized per bucket, pruning to the bucket-local top-``k``
       (each bucket can contribute at most ``k`` global winners);
    4. the driver merge sees ≤ buckets·k tiny rows regardless of
       vocabulary or corpus size.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        sides = (batch.column("doc_id").to_numpy(zero_copy_only=False) % 2).astype(
            np.int64
        )
        counts: dict[str, list[int]] = {}
        for side, t in zip(sides, batch.column("text").to_pylist()):
            for tok in t.split(" "):
                c = counts.get(tok)
                if c is None:
                    counts[tok] = c = [0, 0]
                c[side] += 1
        toks = list(counts)
        n_a = np.fromiter((c[0] for c in counts.values()), dtype=np.int64, count=len(toks))
        n_b = np.fromiter((c[1] for c in counts.values()), dtype=np.int64, count=len(toks))
        return pa.table(
            {
                "token": pa.array(toks, type=pa.string()),
                "n_a": pa.array(n_a),
                "n_b": pa.array(n_b),
            }
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    totals = partials.sum(["n_a", "n_b"])
    total_a = max(int(totals["sum(n_a)"]), 1)
    total_b = max(int(totals["sum(n_b)"]), 1)

    def bucket_topk(group: "pd.DataFrame") -> "pd.DataFrame":
        g = group.groupby("token", as_index=False)[["n_a", "n_b"]].sum()
        ca = g["n_a"].to_numpy(dtype=np.int64)
        cb = g["n_b"].to_numpy(dtype=np.int64)
        g["drift_ppm"] = np.abs(
            ca * 1_000_000 // total_a - cb * 1_000_000 // total_b
        )
        g = g.rename(columns={"n_a": "count_a", "n_b": "count_b"})
        g = g.sort_values(
            ["drift_ppm", "token"], ascending=[False, True], kind="stable"
        ).head(k)
        return g[["token", "count_a", "count_b", "drift_ppm"]]

    allp = keyed_exchange(
        partials, "token", bucket_topk, table_width(sf_dir, "documents")
    ).to_pandas()
    out = allp.sort_values(
        ["drift_ppm", "token"], ascending=[False, True], kind="stable"
    ).head(k)
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


def mg_compress(
    uniq: np.ndarray, counts: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Misra–Gries compression of exact (token, count) pairs to ≤ m
    survivors: subtract the (m+1)-th largest count ``d`` from every
    counter, drop the non-positive ones. Every surviving estimate
    undercounts its true count by at most ``d``, and any token with
    count > d survives. Pure kernel — property-tested directly."""
    if len(uniq) > m:
        order = np.argsort(counts)[::-1]
        d = int(counts[order[m]])
        keep = counts > d
        return uniq[keep], counts[keep] - d, d
    return uniq, counts, 0


def heavy_hitters(sf_dir: str, k: int = 32, sketch_size: int = 256) -> pa.Table:
    """(token, est_count, err_bound) — Misra–Gries heavy-hitters
    sketch over the corpus token stream: the bounded-memory scale path
    next to the exact :func:`top_tokens` (which shuffles the full
    vocabulary).  Returns the top ``k`` survivors by estimated count.

    Shape (mergeable-sketch pattern, like the HLL / t-digest ops):

    1. per-batch exact counts compressed to a ≤ ``sketch_size``-entry
       MG summary — the compression subtracts the (m+1)-th largest
       count ``d`` from every counter and drops the non-positive ones
       (Misra & Gries 1982); each batch also emits its ``d`` so the
       global error bound is exact, not worst-case;
    2. a token-keyed exchange sums the summary rows (summing MG
       summaries is the standard mergeable-sketch union; per-token
       error bounds add);
    3. driver top-k over the ≤ ``sketch_size``·n_blocks surviving
       rows, pre-reduced per bucket to ≤ k — driver input ≤
       buckets·(k+1) rows.

    Each batch's ``d`` rides on one extra ``token=""``, ``est=0`` row
    (the batch may keep no token at all); every bucket sums ``deduct``
    over all its rows and the driver over all buckets, so the bound
    does not depend on which bucket a row lands in.

    Guarantees (pinned in test_ops): for every reported token,
    ``est_count ≤ true_count ≤ est_count + err_bound``; and any token
    whose true count exceeds ``err_bound`` is guaranteed to survive
    the sketch (so the heavy tail is never silently lost).
    """
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def mg_partial(batch: pa.Table) -> pa.Table:
        try:  # Rust-side split/explode/value_counts — no Python row loop
            import polars as pl

            vc = (
                pl.from_arrow(batch.column("text"))
                .str.split(" ")
                .explode()
                .value_counts()
            )
            uniq = vc[:, 0].to_numpy().astype(object)
            counts = vc[:, 1].to_numpy().astype(np.int64)
        except ImportError:  # pragma: no cover - polars is baked in
            toks = []
            for t in batch.column("text").to_pylist():
                toks.extend(t.split(" "))
            uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        uniq, counts, d = mg_compress(uniq, counts, sketch_size)
        return pa.table(
            {
                "token": pa.array(uniq.tolist() + [""], type=pa.string()),
                "est": pa.array(np.append(counts, 0).astype(np.int64)),
                "deduct": pa.array(np.append(np.zeros(len(uniq), np.int64), d)),
            }
        )

    def bucket_reduce(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("token", as_index=False)["est"].sum()
        g = g[g["est"] > 0]
        g = g.sort_values(["est", "token"], ascending=[False, True], kind="mergesort").head(k)
        total = pd.DataFrame({"token": [""], "est": [0], "deduct": [int(group["deduct"].sum())]})
        return pd.concat([g.assign(deduct=0), total], ignore_index=True)

    rows = keyed_exchange(
        ds.map_batches(mg_partial, batch_format="pyarrow", zero_copy_batch=True),
        "token",
        bucket_reduce,
        table_width(sf_dir, "documents"),
    ).to_pandas()
    err = int(rows["deduct"].sum())
    top = (
        rows[rows["est"] > 0]
        .sort_values(["est", "token"], ascending=[False, True], kind="mergesort")
        .head(k)
    )
    return pa.table(
        {
            "token": pa.array(top["token"].tolist(), type=pa.string()),
            "est_count": pa.array(top["est"].to_numpy(np.int64)),
            "err_bound": pa.array(np.full(len(top), err, dtype=np.int64)),
        }
    )


def inverted_index(sf_dir: str, postings_cap: int | None = None) -> "ray.data.Dataset":
    """(token, df, total_tf, postings) — build the corpus inverted
    index: per token, the document frequency, total term count, and
    the doc_id-ascending posting list (comma-joined string, so the
    driver gate and the SQL oracle compare it byte-for-byte).

    Index construction is the canonical "big keyed groupby" sink: per
    -doc term counts from the shared :func:`_tf_rows` kernel (polars
    split/explode/group_by — no Python row loop), then ONE token-keyed
    exchange; each bucket group holds its tokens' complete posting
    lists and emits them with a vectorized pandas groupby.

    Hub tokens: a stopword's posting list is O(corpus) — one unbounded
    string row. ``postings_cap`` keeps only the ``cap`` lowest doc_ids
    in the string (df/total_tf stay exact); a full-fidelity index at
    scale instead shards each hub token's postings across rows, which
    the bucket layout already supports (emit (token, shard_no,
    postings) rows from ``build``).
    """
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    tf = ds.map_batches(_tf_rows, batch_format="pyarrow", zero_copy_batch=True)

    def build(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["token", "doc_id"], kind="mergesort")
        cap = postings_cap

        def join_ids(s: pd.Series) -> str:
            ids = s if cap is None else s.iloc[:cap]
            return ",".join(map(str, ids))

        agg = g.groupby("token", sort=False).agg(
            df=("doc_id", "size"),
            total_tf=("tf", "sum"),
            postings=("doc_id", join_ids),
        )
        return agg.reset_index()[["token", "df", "total_tf", "postings"]]

    return keyed_exchange(tf, "token", build, table_width(sf_dir, "documents"))


def corpus_profile(sf_dir: str) -> pa.Table:
    """One-row corpus health report — (n_docs, total_tokens,
    total_chars, quality_sum_micro, distinct_docs) — the "profile the
    crawl before training" dashboard, in ONE scan plus one tiny
    exchange:

    - counts/tokens/chars/quality fold into per-batch partials (a few
      ints per batch; quality is summed in 1e-6 units of the rounded
      score, so the sum is INTEGER-exact under any batching/order —
      no float accumulation drift vs the SQL oracle);
    - exact distinct-document count without shuffling rows: each batch
      emits its distinct content-md5s through an md5-keyed exchange;
      every copy of an md5 lands in one bucket, so per-bucket nunique
      sums to the exact global distinct count (the disjointness trick
      the dedup ops use).

    A batch's counts ride on its first md5 row (zeros on the rest), and
    every bucket sums them over all its rows, so the totals do not
    depend on which bucket a row lands in.
    """
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partials(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)
        q6 = np.floor(q.column("quality_score").to_numpy() * 1e6 + 0.5).astype(np.int64)
        texts = batch.column("text")
        md5s = sorted({hashlib.md5(t.encode()).hexdigest() for t in texts.to_pylist()})
        stats = {
            "n_docs": batch.num_rows,
            "tokens": int(q.column("n_tokens").to_numpy().sum()),
            "chars": int(pc.sum(pc.utf8_length(texts)).as_py() or 0),
            "q6_sum": int(q6.sum()),
        }
        first = np.arange(len(md5s)) == 0
        return pa.table(
            {"md5": pa.array(md5s, type=pa.string())}
            | {c: pa.array(np.where(first, v, 0).astype(np.int64)) for c, v in stats.items()}
        )

    def reduce_bucket(group: pd.DataFrame) -> pd.DataFrame:
        sums = group[["n_docs", "tokens", "chars", "q6_sum"]].sum()
        return pd.DataFrame({**{c: [int(v)] for c, v in sums.items()},
                             "distinct": [int(group["md5"].nunique())]})

    rows = keyed_exchange(
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        "md5",
        reduce_bucket,
        table_width(sf_dir, "documents"),
    ).to_pandas()  # one tiny row per bucket on the driver
    return pa.table(
        {
            "n_docs": pa.array([int(rows["n_docs"].sum())]),
            "total_tokens": pa.array([int(rows["tokens"].sum())]),
            "total_chars": pa.array([int(rows["chars"].sum())]),
            "quality_sum_micro": pa.array([int(rows["q6_sum"].sum())]),
            "distinct_docs": pa.array([int(rows["distinct"].sum())]),
        }
    )


# ---------------------------------------------------------------------------
# Count-Min sketch token frequencies
# ---------------------------------------------------------------------------

CMS_DEPTH = 4
CMS_SEEDS = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)


def _cms_positions(token_hashes: np.ndarray, width: int) -> np.ndarray:
    """(depth, n) probe columns for 64-bit token hashes — row r uses
    ``splitmix64(h ^ seed_r) % width`` (same derivation on build and
    probe sides)."""
    h = token_hashes.astype(np.uint64)
    return np.stack(
        [splitmix64(h ^ CMS_SEEDS[r]) % np.uint64(width) for r in range(CMS_DEPTH)]
    ).astype(np.int64)


def cms_token_counts(sf_dir: str, width: int = 4096) -> pa.Table:
    """(token, est_count) — Count-Min sketch estimates for every
    distinct corpus token, the third member of the mergeable-sketch
    family (HLL = distinct, MG = heavy hitters, CMS = point
    frequencies with ε = e/width overestimate-only error).

    Shape: per batch, ONE ``CMS_DEPTH × width`` int64 counter grid
    summed from exact batch counts (polars tf kernel) — partials merge
    by plain addition, so the whole corpus reduces to one grid of
    ``depth·width·8`` bytes on the driver regardless of corpus size
    (128 KB at the default width; no keyed exchange at all). Each
    batch also emits its distinct tokens; the driver union is bounded
    by the VOCABULARY (the same budget the BPE/top-tokens ops carry),
    not the corpus.

    At the default parameters the probe set (this corpus's ≤ dozens of
    distinct tokens) is collision-free in every row, so estimates are
    EXACT and the gate oracle compares against true counts; the
    overestimate-only and ε-bound properties are pinned separately in
    tests with an adversarially small width.
    """
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        counts = (
            _tf_rows(batch)
            .group_by("token")
            .aggregate([("tf", "sum")])
        )
        toks = counts.column("token").to_pylist()
        tf = counts.column("tf_sum").to_numpy(zero_copy_only=False).astype(np.int64)
        th = stable_hash64_array(toks)
        grid = np.zeros((CMS_DEPTH, width), dtype=np.int64)
        pos = _cms_positions(th, width)
        for r in range(CMS_DEPTH):
            np.add.at(grid[r], pos[r], tf)
        return pa.table(
            {
                "grid": pa.array([grid.tobytes()], type=pa.binary()),
                "tokens": pa.array([sorted(set(toks))], type=pa.list_(pa.string())),
            }
        )

    # tree-reduce the grids (ADD-mergeable) so the driver pulls a
    # bounded handful of blobs, not one per block
    def sum_rows(df: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(CMS_DEPTH * width, dtype=np.int64)
        toks: set[str] = set()
        for blob, ts in zip(df.get("grid", ()), df.get("tokens", ())):
            acc += np.frombuffer(blob, dtype=np.int64)
            toks.update(ts)
        return pd.DataFrame({"grid": [acc.tobytes()], "tokens": [sorted(toks)]})

    merged = fan_in(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True), sum_rows)
    grid = np.frombuffer(merged["grid"].iloc[0], dtype=np.int64).reshape(CMS_DEPTH, width)
    # an empty corpus counts no token and has an empty vocabulary
    probe = list(merged["tokens"].iloc[0]) if grid.any() else []
    th = stable_hash64_array(probe)
    pos = _cms_positions(th, width)
    est = np.min(
        np.stack([grid[r][pos[r]] for r in range(CMS_DEPTH)]), axis=0
    ).astype(np.int64)
    return pa.table(
        {
            "token": pa.array(probe, type=pa.string()),
            "est_count": pa.array(est),
        }
    )


def cooccurrence_topk(sf_dir: str, k: int = 50, max_doc_tokens: int = 1000) -> pa.Table:
    """(token_a, token_b, n_docs) — the ``k`` most frequent co-occurring
    token pairs (both tokens in the same document, token_a < token_b),
    ties by (token_a, token_b) ascending: collocation mining, the
    corpus-statistics op behind PMI features and phrase detection.

    Shape: per batch, DISTINCT (doc, token) rows self-merge per doc —
    all vectorized pandas — into per-batch pair counts. The classic
    pair explosion (vocab²_doc intermediate rows per doc) is ENFORCED
    bounded by ``max_doc_tokens``: only each document's top-N distinct
    tokens by (tf desc, token asc) enter the self-merge — the
    inverted-index hub rule — so one pathological 50k-distinct-token
    document costs ≤ N²/2 rows, never 1.25G. The SQL oracle applies the
    identical cap (same deterministic tie-break) so results match
    bit-for-bit even when the cap is active. Then ONE pair-keyed
    exchange sums partials, each bucket prunes to its local top-k, and
    the driver merges ≤ buckets·k rows. n_docs counts DOCUMENTS
    containing the pair (not occurrences) so the SQL oracle is a plain
    distinct self-join over the capped token set.
    """
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pair_partials(batch: pa.Table) -> pd.DataFrame:
        tf = _tf_rows(batch).to_pandas()
        # hub rule: cap per-doc distinct tokens BEFORE the self-merge
        # (tf desc, token asc — mirrored verbatim in the SQL oracle)
        tf = tf.sort_values(
            ["doc_id", "tf", "token"], ascending=[True, False, True],
            kind="mergesort",
        )
        tf = tf.groupby("doc_id", sort=False).head(max_doc_tokens)[["doc_id", "token"]]
        m = tf.merge(tf, on="doc_id")
        m = m[m["token_x"] < m["token_y"]]
        out = m.groupby(["token_x", "token_y"], as_index=False).size()
        out.columns = ["token_a", "token_b", "n"]
        return out

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["token_a", "token_b"], as_index=False)["n"].sum()
        return s.sort_values(
            ["n", "token_a", "token_b"], ascending=[False, True, True],
            kind="mergesort",
        ).head(k)

    partials = keyed_exchange(
        ds.map_batches(pair_partials, batch_format="pyarrow", zero_copy_batch=True),
        ["token_a", "token_b"],
        bucket_topk,
        table_width(sf_dir, "documents"),
    ).to_pandas()
    top = partials.sort_values(
        ["n", "token_a", "token_b"], ascending=[False, True, True], kind="mergesort"
    ).head(k)
    return pa.table(
        {
            "token_a": pa.array(top["token_a"], type=pa.string()),
            "token_b": pa.array(top["token_b"], type=pa.string()),
            "n_docs": pa.array(top["n"].to_numpy().astype(np.int64)),
        }
    )


def token_novelty(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_first_tokens) — for each document, how many distinct
    tokens make their corpus-wide FIRST appearance (min doc_id) in it:
    the vocabulary-growth / content-novelty signal a curation pipeline
    uses to spot duplicative tails (a boilerplate-heavy doc introduces
    nothing; a novel doc mints vocabulary). Docs that introduce no
    token are absent by definition (their count is zero).

    Shape: per-batch DISTINCT (doc_id, token) pairs (in-batch dedup
    shrinks the exchange to per-doc vocabulary, not token stream), ONE
    token-keyed exchange, per-bucket ``min(doc_id)`` per token,
    per-bucket partial counts per winning doc, then a tiny doc-keyed
    sum. Token strings never leave their bucket a second time — the
    second aggregate carries only (doc_id, partial_count).
    """
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def pairs(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        d_out: list = []
        t_out: list = []
        for d, t in zip(doc_ids, texts):
            toks = set(t.split(" "))
            d_out.extend([d] * len(toks))
            t_out.extend(toks)
        return pa.table(
            {
                "doc_id": pa.array(d_out, type=pa.int64()),
                "token": pa.array(t_out, type=pa.string()),
            }
        )

    def bucket_firsts(g: pd.DataFrame) -> pd.DataFrame:
        firsts = g.groupby("token", as_index=False)["doc_id"].min()
        out = firsts.groupby("doc_id", as_index=False).size()
        out.columns = ["doc_id", "n_first_tokens"]
        out["n_first_tokens"] = out["n_first_tokens"].astype("int64")
        return out

    return (
        keyed_exchange(
            ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
            "token",
            bucket_firsts,
            table_width(sf_dir, "documents"),
        )
        .groupby("doc_id")
        .aggregate(Sum("n_first_tokens", alias_name="n_first_tokens"))
    )


def length_deciles(sf_dir: str, k: int = 10) -> "ray.data.Dataset":
    """(doc_id, n_chars, decile) — SQL's ``ntile(k) OVER (ORDER BY
    n_chars, doc_id)``: exact global ranking buckets without a global
    sort. The curation use is length-stratified sampling/packing where
    every stratum must hold exactly ⌈N/k⌉ or ⌊N/k⌋ docs (a quantile
    APPROXIMATION can't promise that; this op is exact).

    Shape — rank = (docs with smaller n_chars) + (tie rank by doc_id):

    1. one scan emits per-batch value counts of ``n_chars``; a tiny
       groupby reduces them to the global length histogram, collected
       to the driver (distinct-length-bounded — n_chars of real text
       spans ~10^4 values whatever the corpus size) and turned into an
       exclusive cumulative table, broadcast via ``ray.put``;
    2. ONE n_chars-keyed exchange co-locates equal-length docs;
       per-group mergesort by doc_id gives the tie rank; global rank =
       cum_below[n_chars] + tie_rank, and the ntile bucket follows
       from (rank, N, k) arithmetic row-locally.

    Skew note: a degenerate corpus where most docs share ONE length
    sends that length to one task — salt by doc_id ranges inside the
    group if that ever binds (lengths here are naturally spread).
    """
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def length_counts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("n_chars", as_index=False).size()
        g.columns = ["n_chars", "cnt"]
        return pa.Table.from_pandas(g, preserve_index=False)

    hist = (
        ds.map_batches(length_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("n_chars")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # distinct-length-bounded, NOT row-bounded
        .sort_values("n_chars")
    )
    total = int(hist["cnt"].sum())
    cum_below = dict(
        zip(hist["n_chars"].astype(int),
            (hist["cnt"].cumsum() - hist["cnt"]).astype(int))
    )
    cum_ref = ray.put(cum_below)

    base = total // k
    rem = total % k
    big_span = rem * (base + 1)  # first `rem` buckets hold base+1 rows

    def per_length(g: pd.DataFrame) -> pd.DataFrame:
        lookup = ray.get(cum_ref)
        g = g.sort_values(["n_chars", "doc_id"], kind="mergesort").copy()
        tie_rank = g.groupby("n_chars", sort=False).cumcount()
        rank = g["n_chars"].map(lookup).to_numpy() + tie_rank.to_numpy()
        decile = np.where(
            rank < big_span,
            rank // (base + 1),
            rem + (rank - big_span) // max(base, 1),
        ).astype("int64") + 1
        return pd.DataFrame(
            {"doc_id": g["doc_id"].astype("int64"),
             "n_chars": g["n_chars"].astype("int64"),
             "decile": decile}
        )

    return keyed_exchange(ds, "n_chars", per_length, table_width(sf_dir, "documents"))


def textrank_keywords(
    sf_dir: str,
    k: int = 25,
    n_iters: int = 4,
    min_df: int = 2,
    max_doc_tokens: int = 1000,
) -> pa.Table:
    """(position, keyword, rank_x1e9) — TextRank (Mihalcea & Tarau,
    EMNLP 2004; doc-level co-occurrence variant): corpus keywords
    ranked by weighted PageRank over the token graph where
    token_a—token_b is an edge iff both appear in the same document
    (distinct pairs over the capped per-doc token set — the exact
    ``cooccurrence_topk`` contract, hub rule included), edge weight =
    number of such documents, graph symmetrized, damping 0.85, fixed
    ``n_iters``. Ranks land on the 9-dp grid as int64 billionths;
    ties break by keyword ascending.

    Composition op: the pair machinery of :func:`cooccurrence_topk`
    feeds the weighted kernel of ``graph.pagerank_ds``. Token strings
    get dense int64 ids first (sorted vocab + scan-then-offset id
    assignment — the ``sequence packing`` pattern) because the rank
    kernel keys by int64; ids are SQL-mirrorable as ``row_number()
    OVER (ORDER BY token)``.

    Scale shape:

    - per-batch capped distinct-pair partials (hub rule ENFORCED),
      ONE pair-hash exchange sums them into edge weights;
    - document frequency is ONE token-keyed exchange; the df >=
      ``min_df`` gate prunes the vocabulary before ids exist;
    - vocab ids: global token sort, then per-block (first_token,
      n_rows) partials — the driver reads <= block-count rows, never
      the vocabulary;
    - two token-keyed ``co_exchange`` joins map pair endpoints to ids
      (the id-attach join doubles as the df filter — inner join drops
      low-df endpoints);
    - the rank loop is pagerank_ds's two keyed exchanges per
      iteration; ONE id-keyed ``co_exchange`` joins ranks back to
      keyword strings; only k rows reach the driver (distributed sort
      + limit)."""
    from .graph import pagerank_ds

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    width = table_width(sf_dir, "documents")

    def _capped(batch: pa.Table) -> pd.DataFrame:
        tf = _tf_rows(batch).to_pandas()
        tf = tf.sort_values(
            ["doc_id", "tf", "token"], ascending=[True, False, True],
            kind="mergesort",
        )
        return tf.groupby("doc_id", sort=False).head(max_doc_tokens)[
            ["doc_id", "token"]
        ]

    # --- document frequency (one token-keyed exchange) -> vocab ids
    def df_partials(batch: pa.Table) -> pd.DataFrame:
        dt = _capped(batch)
        out = dt.groupby("token", as_index=False).size()
        out.columns = ["token", "n"]
        return out

    def df_reduce(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("token", as_index=False)["n"].sum()
        s = s[s["n"] >= min_df]
        return s[["token"]]

    vocab_sorted = (
        keyed_exchange(
            ds.map_batches(df_partials, batch_format="pyarrow", zero_copy_batch=True),
            "token",
            df_reduce,
            width,
        )
        .sort("token")
        .materialize()
    )

    empty_part = pd.DataFrame(
        {"first": pd.Series(dtype="object"), "n": pd.Series(dtype="int64")}
    )
    parts = (
        vocab_sorted.map_batches(
            lambda df: pd.DataFrame(
                {"first": [df["token"].iloc[0]], "n": [len(df)]}
            ) if len(df) else empty_part.copy(),
            batch_format="pandas", batch_size=None,
        )
        .to_pandas()  # <= block-count rows
        .sort_values("first")
    )
    starts = parts["n"].cumsum().shift(fill_value=0)
    offs = dict(zip(parts["first"], starts.astype(int)))
    off_ref = ray.put(offs)

    def assign_ids(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"token": pd.Series(dtype="object"),
                 "tid": pd.Series(dtype="int64")}
            )
        start = ray.get(off_ref)[df["token"].iloc[0]]
        return pd.DataFrame(
            {"token": df["token"],
             "tid": start + np.arange(len(df), dtype=np.int64)}
        )

    vocab = vocab_sorted.map_batches(
        assign_ids, batch_format="pandas", batch_size=None
    ).materialize()

    # --- pair weights (the cooccurrence contract, un-pruned)
    def pair_partials(batch: pa.Table) -> pd.DataFrame:
        dt = _capped(batch)
        m = dt.merge(dt, on="doc_id")
        m = m[m["token_x"] < m["token_y"]]
        out = m.groupby(["token_x", "token_y"], as_index=False).size()
        out.columns = ["ta", "tb", "w"]
        return out

    def pair_reduce(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["ta", "tb"], as_index=False)["w"].sum()
        s["w"] = s["w"].astype("int64")
        return s

    pairs = keyed_exchange(
        ds.map_batches(pair_partials, batch_format="pyarrow", zero_copy_batch=True),
        ["ta", "tb"],
        pair_reduce,
        width,
    )

    # --- attach ids: two token-keyed joins (inner join = df gate)
    vocab_side = (vocab, "token", typed_frame(token="object", tid="int64"))

    def join_a(parts: dict) -> pd.DataFrame:
        m = parts["pair"].merge(parts["vocab"], left_on="ta", right_on="token")
        return pd.DataFrame({"ta": m["ta"], "tb": m["tb"], "w": m["w"], "ida": m["tid"]})

    def join_b(parts: dict) -> pd.DataFrame:
        m = parts["pair"].merge(parts["vocab"], left_on="tb", right_on="token")
        return pd.DataFrame({"w": m["w"], "ida": m["ida"], "idb": m["tid"]})

    step1 = co_exchange(
        {"pair": (pairs, "ta", typed_frame(ta="object", tb="object", w="int64")),
         "vocab": vocab_side},
        join_a,
        width,
    )
    with_ids = co_exchange(
        {"pair": (step1, "tb", typed_frame(ta="object", tb="object", w="int64", ida="int64")),
         "vocab": vocab_side},
        join_b,
        width,
    )

    # --- symmetric weighted edges -> fixed-iteration PageRank
    def symmetrize(df: pd.DataFrame) -> pd.DataFrame:
        fwd = pd.DataFrame(
            {"src": df["ida"].astype("int64"),
             "dst": df["idb"].astype("int64"),
             "w": df["w"].astype("float64")}
        )
        rev = pd.DataFrame(
            {"src": df["idb"].astype("int64"),
             "dst": df["ida"].astype("int64"),
             "w": df["w"].astype("float64")}
        )
        return pd.concat([fwd, rev], ignore_index=True)

    edges = with_ids.map_batches(symmetrize, batch_format="pandas")
    if edges.count() == 0:
        return pa.table(
            {"position": pa.array([], type=pa.int64()),
             "keyword": pa.array([], type=pa.string()),
             "rank_x1e9": pa.array([], type=pa.int64())}
        )
    ranks = pagerank_ds(edges, n_iters=n_iters, weight_col="w")

    # --- ranks back to keywords (one id-keyed exchange), top-k out
    def join_kw(parts: dict) -> pd.DataFrame:
        m = parts["rank"].merge(parts["vocab"], left_on="node", right_on="tid")
        return pd.DataFrame(
            {"keyword": m["token"],
             "rank_x1e9": (m["rank"].to_numpy(np.float64) * 1e9).round().astype("int64")}
        )

    top = (
        co_exchange(
            {"rank": (ranks, "node", typed_frame(node="int64", rank="float64")),
             "vocab": (vocab, "tid", typed_frame(token="object", tid="int64"))},
            join_kw,
            width,
        )
        .sort(["rank_x1e9", "keyword"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    top.insert(0, "position", pd.RangeIndex(1, len(top) + 1).astype("int64"))
    return pa.table(
        {"position": pa.array(top["position"], type=pa.int64()),
         "keyword": pa.array(top["keyword"], type=pa.string()),
         "rank_x1e9": pa.array(
             top["rank_x1e9"].to_numpy(np.int64), type=pa.int64()
         )}
    )
