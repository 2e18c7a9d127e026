"""Full-text retrieval over the corpus — BM25 ranked search.

The reference crawls and *stores* text (search_results spider →
database); a training-data engine also needs to *query* it: given a
handful of terms, return the top-k documents by BM25 — the standard
retrieval score an index like Lucene would produce, and the ranking
half of the repo's inverted-index sink (``textstats.inverted_index``).

Distributed shape — two pruned streaming scans, nothing
corpus-sized on the driver:

1. **stats scan**: per batch emit ONE partial row (docs, total token
   count, per-term document frequency) → ``Dataset.sum`` reduces to a
   scalar dict. This is the classic mergeable-aggregate pass; the
   result (N, avgdl, df per query term) is a handful of floats,
   broadcast into stage 2 via closure capture.
2. **score scan**: per batch, vectorized per-doc term frequencies
   (polars split + ``list.count_matches`` — no Python row loop),
   BM25 scored in numpy with an EXPLICIT left-to-right term sum so
   the SQL oracle's expression tree evaluates in the same order;
   non-matching docs are dropped and only each batch's local top-k
   survives, so the final exchange (`sort`+`limit`) sees ≤ k rows per
   batch, not the corpus.

At 100 TB: scan 1 is a pure streaming reduce; scan 2's exchange is
bounded by k × block-count rows. For interactive QPS one would score
against the prebuilt inverted index instead (bucket-partitioned
Parquet, see ``inverted_index``) — this operator is the index-free
one-shot form over raw text.

BM25 parameters follow Robertson/Sparck-Jones with Lucene's
non-negative idf: ``idf = ln((N - df + 0.5)/(df + 0.5) + 1)``,
``score = Σ_t idf_t · tf·(k1+1) / (tf + k1·(1 − b + b·dl/avgdl))``.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

DEFAULT_TERMS = ("spark", "merge", "window")


def bm25_topk(
    sf_dir: str,
    terms: tuple[str, ...] = DEFAULT_TERMS,
    k: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
) -> pa.Table:
    """(rank, doc_id, score) — top-k documents by BM25 for ``terms``.

    Ties break by doc_id ascending; score rounded to 6 dp (matching
    the driver gate's float canonicalization).
    """
    import polars as pl

    terms = list(terms)
    path = f"{sf_dir}/documents.parquet"
    ds = ray.data.read_parquet(path, columns=["doc_id", "text"])

    # ---- pass 1: corpus stats (mergeable partials → tiny driver dict)
    def stats_partial(batch: pa.Table) -> pa.Table:
        t = pl.from_arrow(batch).with_columns(
            pl.col("text").str.split(" ").alias("tok")
        )
        row = {
            "n": [len(batch)],
            "sum_dl": [int(t.select(pl.col("tok").list.len().sum()).item() or 0)],
        }
        for i, term in enumerate(terms):
            row[f"df_{i}"] = [
                int(t.select(pl.col("tok").list.contains(term).sum()).item() or 0)
            ]
        return pa.table(row)

    cols = ["n", "sum_dl"] + [f"df_{i}" for i in range(len(terms))]
    agg = ds.map_batches(stats_partial, batch_format="pyarrow").sum(cols)
    n_docs = int(agg["sum(n)"])
    avgdl = agg["sum(sum_dl)"] / n_docs
    # Lucene idf — same expression tree as the SQL oracle
    idf = [
        math.log((n_docs - int(agg[f"sum(df_{i})"]) + 0.5)
                 / (int(agg[f"sum(df_{i})"]) + 0.5) + 1.0)
        for i in range(len(terms))
    ]

    # ---- pass 2: score + per-batch top-k prune
    def score_batch(batch: pa.Table) -> pa.Table:
        t = pl.from_arrow(batch).with_columns(
            pl.col("text").str.split(" ").alias("tok")
        )
        dl = (
            t.select(pl.col("tok").list.len())
            .to_series()
            .to_numpy()
            .astype(np.float64)
        )
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        norm = k1 * (1.0 - b + b * dl / avgdl)
        score = np.zeros(len(dl), dtype=np.float64)
        matched = np.zeros(len(dl), dtype=bool)
        for i, term in enumerate(terms):  # ≤ a handful of terms; vector ops inside
            tf = (
                t.select(pl.col("tok").list.count_matches(term))
                .to_series()
                .to_numpy()
                .astype(np.float64)
            )
            score = score + idf[i] * (tf * (k1 + 1.0)) / (tf + norm)
            matched |= tf > 0
        # round BEFORE the local prune so the batch-local tie-break
        # sees exactly what the global sort (and the SQL oracle) sees
        score = np.round(score, 6)
        keep = np.flatnonzero(matched)
        order = np.lexsort((doc_ids[keep], -score[keep]))[:k]
        keep = keep[order]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[keep].astype(np.int64)),
                "score": pa.array(score[keep], type=pa.float64()),
            }
        )

    top = (
        ds.map_batches(score_batch, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(top) + 1, dtype=np.int64)),
            "doc_id": pa.array(top["doc_id"].to_numpy().astype(np.int64)),
            "score": pa.array(top["score"].to_numpy(), type=pa.float64()),
        }
    )


def bm25_oracle_sql(
    terms: tuple[str, ...] = DEFAULT_TERMS,
    k: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
) -> str:
    """DuckDB mirror of :func:`bm25_topk` with the identical
    expression tree (explicit left-to-right term sum, same literal
    arithmetic) so float results agree bit-for-bit up to libm's ln."""
    terms = list(terms)

    def esc(t: str) -> str:
        return t.replace("'", "''")

    df_ctes = ",\n".join(
        f"""df_{i} AS (SELECT count(*) AS df FROM documents
             WHERE list_contains(string_split(text, ' '), '{esc(t)}'))"""
        for i, t in enumerate(terms)
    )
    tf_cols = ",\n".join(
        f"""CAST(len(list_filter(string_split(text, ' '),
                 x -> x = '{esc(t)}')) AS DOUBLE) AS tf_{i}"""
        for i, t in enumerate(terms)
    )
    idf_exprs = ",\n".join(
        f"""ln((nn.n - df_{i}.df + 0.5) / (df_{i}.df + 0.5) + 1.0) AS idf_{i}"""
        for i in range(len(terms))
    )
    cross = " ".join(f"CROSS JOIN df_{i}" for i in range(len(terms)))
    contrib = " + ".join(
        f"s.idf_{i} * (t.tf_{i} * ({k1} + 1.0)) / (t.tf_{i} + "
        f"{k1} * (1.0 - {b} + {b} * t.dl / s.avgdl))"
        for i in range(len(terms))
    )
    any_match = " OR ".join(f"t.tf_{i} > 0" for i in range(len(terms)))
    return f"""
        WITH nn AS (SELECT count(*) AS n,
                           sum(len(string_split(text, ' ')))::DOUBLE AS total_dl
                    FROM documents),
        {df_ctes},
        s AS (SELECT nn.n, nn.total_dl / nn.n AS avgdl, {idf_exprs}
              FROM nn {cross}),
        t AS (SELECT doc_id,
                     CAST(len(string_split(text, ' ')) AS DOUBLE) AS dl,
                     {tf_cols}
              FROM documents),
        scored AS (
          SELECT t.doc_id, round({contrib}, 6) AS score
          FROM t CROSS JOIN s
          WHERE {any_match})
        SELECT row_number() OVER (ORDER BY score DESC, doc_id) AS rank,
               doc_id, score
        FROM scored
        ORDER BY score DESC, doc_id
        LIMIT {k}
    """


def phrase_search(
    sf_dir: str,
    phrase: tuple[str, ...] = ("merge", "slow"),
) -> "ray.data.Dataset":
    """(doc_id, n_matches) — exact token-level PHRASE query: documents
    where the terms of ``phrase`` occur at consecutive token
    positions, with the exact occurrence count. The positional half of
    the retrieval surface (``bm25_topk`` ranks bags of words;
    ``textstats.inverted_index`` stores postings) — this is what a
    positional index answers, run here index-free over raw text.
    Token-exact, not substring: "a ab" does NOT match the phrase
    ("a", "a").

    Distributed shape:

    - ONE scan explodes (doc_id, pos, term) postings PRUNED to the
      phrase's own terms before anything leaves the task (polars
      split/explode + cum-count positions — no Python row loop); a
      100-TB corpus yields only the phrase terms' postings, the same
      volume a positional-index lookup would read;
    - ONE doc-keyed exchange (``kernels.partitioning.keyed_exchange``,
      its width sized by the postings count); per bucket the adjacency
      join is a vectorized pandas merge chain: positions of term i must
      equal (start + i) within the doc — k−1 int64 merges for a k-term
      phrase, never a per-row loop.
    """
    import polars as pl

    import ray

    from ..kernels.partitioning import adaptive_buckets, keyed_exchange

    terms = [str(t) for t in phrase]
    if len(terms) < 2:
        raise ValueError("phrase_search needs at least a 2-term phrase")
    term_set = set(terms)

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def postings(batch: pa.Table) -> pd.DataFrame:
        df = (
            pl.from_arrow(batch)
            .with_columns(pl.col("text").str.split(" ").alias("term"))
            .drop("text")
            .explode("term")
            .with_columns(
                (pl.col("doc_id").cum_count().over("doc_id") - 1)
                .cast(pl.Int64).alias("pos")
            )
            .filter(pl.col("term").is_in(list(term_set)))
        )
        out = df.to_pandas()
        out["doc_id"] = out["doc_id"].astype("int64")
        return out[["doc_id", "pos", "term"]]

    posts = docs.map_batches(postings, batch_format="pyarrow").materialize()

    def match(g: pd.DataFrame) -> pd.DataFrame:
        cur = g.loc[g["term"] == terms[0], ["doc_id", "pos"]]
        for i, t in enumerate(terms[1:], start=1):
            nxt = g.loc[g["term"] == t, ["doc_id", "pos"]].assign(
                pos=lambda d, _i=i: d["pos"] - _i
            )
            cur = cur.merge(nxt, on=["doc_id", "pos"], how="inner")
            if not len(cur):
                break
        out = (
            cur.groupby("doc_id", sort=False).size().rename("n_matches")
            .reset_index()
        )
        return out.astype({"doc_id": "int64", "n_matches": "int64"})

    return keyed_exchange(posts, "doc_id", match, adaptive_buckets(posts.count()))
