"""Deduplication operators over the ``documents`` table.

- exact: content-hash partition + per-group min (one shuffle over the
  *hash* column only — the canonical hash-partition + first pattern)
- MinHash + LSH: shingle → minhash signature → banded bucket groupby →
  candidate pairs → Jaccard verification (no all-pairs scan)
- SimHash: 64-bit near-dup fingerprint + banded hamming buckets
- n-gram Jaccard: the exact verifier, reused as a standalone pairwise op
- embedding cosine near-dup: normalised matmul in buckets

All hashes are process-stable (no Python ``hash``). Every keyed
exchange routes through ``kernels.partitioning`` (``keyed_exchange`` for
one side, ``co_exchange`` for several) at the ``documents`` table's
``table_width``; only natural keys (the IVF centroid, the embedding
label) group directly. Candidate verification is vectorised numpy.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..kernels.hashing import (
    minhash_permutations,
    splitmix64,
    stable_hash64,
    stable_hash64_array,
)
from ..kernels.partitioning import (
    adaptive_buckets,
    co_exchange,
    keyed_exchange,
    route_bucket,
    supersteps,
    table_width,
    typed_frame,
)
from .similarity import _as_matrix_arrow, _i64, _list_column

_NODE_LABEL = typed_frame(node="int64", label="int64")


# --- exact dedup -----------------------------------------------------------

def _content_md5(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, content_md5) per document — the exact-dedup key scan;
    the text never leaves the scan task."""

    def add_hash(batch: pa.Table) -> pa.Table:
        md5s = [hashlib.md5(t.encode()).hexdigest() for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"), "content_md5": pa.array(md5s)})

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True)


def keep_min(ds: "ray.data.Dataset", key: str, id_col: str, n: int) -> "ray.data.Dataset":
    """Per distinct ``key`` value (a content hash), the row of ``ds``
    with the lowest ``id_col``, every column kept: one exchange routed
    by ``key`` into ``n`` buckets, the group-min computed vectorized
    per bucket — one Python call per bucket, not one Ray aggregate per
    distinct hash (millions of groups at corpus scale)."""

    def bucket_min(group: pd.DataFrame) -> pd.DataFrame:
        rows = group.sort_values(id_col, kind="mergesort").drop_duplicates(key)
        return rows.reset_index(drop=True)

    return keyed_exchange(ds, key, bucket_min, n)


def exact_dedup(sf_dir: str) -> "ray.data.Dataset":
    """(content_md5, doc_id=min over duplicates) — hash-partition +
    per-group first (:func:`keep_min` on the content hash)."""
    return keep_min(_content_md5(sf_dir), "content_md5", "doc_id", table_width(sf_dir, "documents"))


def softdedup_weights(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, dup_count, weight_ppm) — soft deduplication: instead
    of DROPPING exact duplicates, each document keeps a sampling
    weight 1/duplicate-count (integer ppm, 10^6 // count) so the
    training sampler sees every duplicated text with total mass ~1
    (the reweight-don't-remove strand of the dedup literature, e.g.
    SoftDeDup — He et al. 2024; the down-weighting analogue of
    ``exact_dedup``'s keep-min). Exact duplicates only; the near-dup
    analogue composes ``dedup_clusters`` sizes the same way.

    Shape: the ``exact_dedup`` discipline — one md5-keyed exchange,
    group sizes computed vectorized per bucket and joined back to the
    group's doc rows IN the bucket task (a text's duplicates all share
    its bucket), so the exchange carries fingerprint rows and no second
    pass over the corpus is needed. weight_ppm = 10^6 // dup_count
    exactly (floor), so op and oracle hash-match without float
    division."""

    def bucket_weights(group: pd.DataFrame) -> pd.DataFrame:
        n = group.groupby("content_md5")["doc_id"].transform("size")
        n = n.astype("int64")
        return pd.DataFrame(
            {
                "doc_id": group["doc_id"].astype("int64"),
                "dup_count": n,
                "weight_ppm": (1_000_000 // n).astype("int64"),
            }
        )

    return keyed_exchange(
        _content_md5(sf_dir), "content_md5", bucket_weights, table_width(sf_dir, "documents")
    )


# --- shingling + minhash ---------------------------------------------------

def _token_hashes(text: str) -> np.ndarray:
    return stable_hash64_array(text.split(" "))


def shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Hashes of word k-shingles (rolling combination of token hashes)."""
    th = _token_hashes(text)
    if len(th) < k:
        return np.unique(th)
    # combine k consecutive token hashes with position multipliers
    acc = np.zeros(len(th) - k + 1, dtype=np.uint64)
    for j in range(k):
        acc = acc * np.uint64(1099511628211) + th[j : len(th) - k + 1 + j]
    return np.unique(acc)


def minhash_signature(shingles: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """num_perm minima of scrambler hashes over the shingle set
    (``splitmix64(x ^ seed_i)`` — see kernels.hashing.minhash_permutations
    for why not the affine-mod-p family)."""
    if len(shingles) == 0:
        return np.full(len(seeds), np.uint64(0xFFFFFFFFFFFFFFFF))
    # (num_perm, n_shingles) via broadcasting, min over shingles
    return splitmix64(shingles[None, :] ^ seeds[:, None]).min(axis=1)


def jaccard(sh_a: np.ndarray, sh_b: np.ndarray) -> float:
    inter = len(np.intersect1d(sh_a, sh_b, assume_unique=True))
    union = len(sh_a) + len(sh_b) - inter
    return inter / union if union else 1.0


def minhash_lsh_dedup(
    sf_dir: str,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.8,
    verify_route: str = "auto",
    broadcast_pair_limit: int = 2_000_000,
) -> "ray.data.Dataset":
    """Near-duplicate pairs (doc_a < doc_b, jaccard ≥ threshold).

    Pipeline: signature per doc [map_batches] → explode to
    (band_id, band_hash, doc_id) [map_batches] → keyed exchange on the
    band hash → candidate pairs → exact-Jaccard verify in a second
    exchange keyed by pair bucket (re-shingling only the candidates).

    A candidate pair's bucket is ``route_bucket`` over
    ``(doc_a, doc_b)``, carried as the ``pb`` key column of the pair
    row and of every payload row sent to it, so both meet in one
    verify group. ``verify_route`` picks how candidate shingle payloads
    reach their pair bucket:

    - ``"broadcast"``: the (doc_id → pair buckets) routing rides as
      three numpy arrays in the object store (sorted ids + offsets +
      bucket list, built vectorized — no Python dict); the docs scan
      semi-joins against it in place, so verification costs ONE keyed
      shuffle carrying only candidate payloads. O(candidates) object-
      store footprint — right while candidates fit one machine.
    - ``"bucketed"``: no driver/broadcast routing at all — candidate
      route rows and per-doc payloads co-partition on doc_id (the
      semi-join IS the group task), payload rows are emitted to their
      pair buckets, and a second keyed shuffle verifies. Costs one
      extra all-to-all over the corpus payloads; the form that
      survives a dup-heavy 100-TB crawl where candidates are
      O(duplicate pairs).
    - ``"auto"`` (default): broadcast below ``broadcast_pair_limit``
      candidate pairs, bucketed above. Both routes are
      output-identical (pinned in tests).
    """
    rows_per_band = num_perm // bands
    seeds = minhash_permutations(num_perm)
    docs_path = f"{sf_dir}/documents.parquet"
    width = table_width(sf_dir, "documents")
    ds = ray.data.read_parquet(docs_path, columns=["doc_id", "text"])

    def to_bands(batch: pa.Table) -> pa.Table:
        out_band, out_hash, out_doc = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            sig = minhash_signature(shingle_hashes(text, shingle_k), seeds)
            for band in range(bands):
                chunk = sig[band * rows_per_band : (band + 1) * rows_per_band]
                out_band.append(band)
                out_hash.append(stable_hash64(chunk.tobytes()) % (1 << 62))
                out_doc.append(doc_id)
        return pa.table(
            {
                "band": pa.array(out_band, type=pa.int32()),
                "band_hash": pa.array(out_hash, type=pa.int64()),
                "doc_id": pa.array(out_doc, type=pa.int64()),
            }
        )

    banded = ds.map_batches(to_bands, batch_format="pyarrow", zero_copy_batch=True)

    # candidate pairs via self-merge per hash bucket: ONE vectorized
    # Python call per bucket instead of one per (band, band_hash) LSH
    # bucket (billions of those at web scale)
    def emit_bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group[["band", "band_hash", "doc_id"]].drop_duplicates()
        m = g.merge(g, on=["band", "band_hash"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        out = m[["doc_id_x", "doc_id_y"]].drop_duplicates()
        out.columns = ["doc_a", "doc_b"]
        return out

    candidates = keyed_exchange(banded, "band_hash", emit_bucket_pairs, width)
    # exact verification as a bucketed pairs⋈shingles co-group join:
    # the corpus text column NEVER funnels through the driver; only the
    # candidate doc-id set does (tiny by LSH construction — ≪ corpus
    # cardinality). Cross-bucket duplicate candidates need no separate
    # dedup shuffle — the final per-pair group computes one verdict per
    # (doc_a, doc_b) regardless of how many band buckets proposed it.
    cand = candidates.materialize()
    if cand.count() == 0:
        return ray.data.from_arrow(
            pa.schema(
                [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("jaccard", pa.float64())]
            ).empty_table()
        )

    if verify_route == "auto":
        verify_route = (
            "broadcast" if cand.count() <= broadcast_pair_limit else "bucketed"
        )

    pair_rows = cand.map_batches(
        lambda df: df.assign(pb=route_bucket(df, ["doc_a", "doc_b"], width)),
        batch_format="pandas",
    )
    docs_scan = ray.data.read_parquet(docs_path, columns=["doc_id", "text"])

    if verify_route == "broadcast":
        # routing as three flat numpy arrays (CSR layout): sorted unique
        # candidate doc_ids, per-id offset, concatenated bucket lists —
        # built vectorized from the collected pair frame, ~20 bytes per
        # candidate endpoint in the object store (vs ~100+/entry for a
        # Python dict) and probed with searchsorted in the scan.
        cdf = cand.to_pandas()
        pb = route_bucket(cdf, ["doc_a", "doc_b"], width).astype(np.int64)
        doc_ids = np.concatenate([cdf["doc_a"].to_numpy(np.int64), cdf["doc_b"].to_numpy(np.int64)])
        edge = np.unique(np.stack([doc_ids, np.concatenate([pb, pb])], axis=1), axis=0)
        uniq_ids, counts = np.unique(edge[:, 0], return_counts=True)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        route_ref = ray.put((uniq_ids, offsets, edge[:, 1].astype(np.int32)))

        def doc_shingle_rows(batch: pa.Table) -> pd.DataFrame:
            """Semi-join the docs scan to candidate ids; emit each kept
            doc's shingle set once per destination pair bucket."""
            uniq, offs, bks = ray.get(route_ref)
            ids = _i64(batch.column("doc_id"))
            pos = np.searchsorted(uniq, ids)
            pos_c = np.clip(pos, 0, len(uniq) - 1)
            present = (len(uniq) > 0) & (uniq[pos_c] == ids)
            texts = batch.column("text").to_pylist()
            out_id, out_payload, out_pb = [], [], []
            for i in np.nonzero(present)[0]:
                payload = shingle_hashes(texts[i], shingle_k).tobytes()
                for pb_ in bks[offs[pos[i]] : offs[pos[i] + 1]]:
                    out_id.append(ids[i])
                    out_payload.append(payload)
                    out_pb.append(pb_)
            return pd.DataFrame(
                {
                    "doc_id": np.asarray(out_id, dtype=np.int64),
                    "payload": out_payload,
                    "pb": np.asarray(out_pb, dtype=np.int32),
                }
            )

        shingle_rows = docs_scan.map_batches(
            doc_shingle_rows, batch_format="pyarrow", zero_copy_batch=True
        )
    else:
        # bucketed semi-join: NOTHING routing-shaped touches the driver.
        # Stage A co-partitions candidate route rows and per-doc
        # payloads on doc_id; the group task keeps only docs some pair
        # needs and emits their payload once per destination pair
        # bucket. Stage B (below, shared) verifies per pair bucket.
        def route_rows(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "doc_id": np.concatenate([df["doc_a"], df["doc_b"]]).astype(np.int64),
                    "pb": np.concatenate([df["pb"], df["pb"]]).astype(np.int32),
                }
            )

        def doc_payload_rows(batch: pa.Table) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "doc_id": _i64(batch.column("doc_id")),
                    "payload": [
                        shingle_hashes(t, shingle_k).tobytes()
                        for t in batch.column("text").to_pylist()
                    ],
                }
            )

        def emit_payloads(parts: dict) -> pd.DataFrame:
            return parts["route"].drop_duplicates().merge(parts["doc"], on="doc_id")  # the semi-join

        shingle_rows = co_exchange(
            {
                "route": (
                    pair_rows.map_batches(route_rows, batch_format="pandas"),
                    "doc_id",
                    typed_frame(doc_id="int64", pb="int32"),
                ),
                "doc": (
                    docs_scan.map_batches(
                        doc_payload_rows, batch_format="pyarrow", zero_copy_batch=True
                    ),
                    "doc_id",
                    typed_frame(doc_id="int64", payload="object"),
                ),
            },
            emit_payloads,
            width,
        )

    def verify_pairs(parts: dict) -> pd.DataFrame:
        """Per pair bucket: payloads and pair rows co-located — exact
        Jaccard per distinct pair (cross-bucket LSH duplicates collapse
        here via drop_duplicates)."""
        docs = parts["doc"]
        by_doc = dict(zip(docs["doc_id"], docs["payload"]))
        pairs_df = parts["pair"][["doc_a", "doc_b"]].drop_duplicates()
        out_a, out_b, out_j = [], [], []
        for da, db2 in zip(pairs_df["doc_a"], pairs_df["doc_b"]):
            sh_a = np.frombuffer(by_doc[da], dtype=np.uint64)
            sh_b = np.frombuffer(by_doc[db2], dtype=np.uint64)
            j = jaccard(sh_a, sh_b)
            if j >= threshold:
                out_a.append(da)
                out_b.append(db2)
                out_j.append(round(j, 6))
        return pd.DataFrame(
            {
                "doc_a": pd.Series(out_a, dtype="int64"),
                "doc_b": pd.Series(out_b, dtype="int64"),
                "jaccard": pd.Series(out_j, dtype="float64"),
            }
        )

    return co_exchange(
        {
            "pair": (pair_rows, "pb", typed_frame(doc_a="int64", doc_b="int64", pb="int32")),
            "doc": (shingle_rows, "pb", typed_frame(doc_id="int64", payload="object", pb="int32")),
        },
        verify_pairs,
        width,
    )


# --- n-gram Jaccard --------------------------------------------------------

def word_ngrams(text: str, n: int = 3) -> set[str]:
    """Distinct word n-grams (space-joined) — ANSI-SQL-reproducible
    (string_split + list_transform in the oracle)."""
    toks = text.split(" ")
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def _pair_intersection_sums(
    sf_dir: str,
    n: int,
    max_bucket: int,
    finalize,
) -> "ray.data.Dataset":
    """Shared candidate+intersection machinery for the exact
    set-similarity joins (symmetric Jaccard, asymmetric containment):
    doc → distinct n-gram postings → per-bucket self-merge → partial
    ``(doc_a < doc_b, inter, size_a, size_b)`` rows → per-pair sums,
    handed to ``finalize`` one pair bucket at a time.

    1. doc → distinct gram hashes [map_batches], keyed on
       ``gram_hash`` (the first exchange; a gram's postings all land
       in one bucket).
    2. per bucket: vectorized self-merge on gram_hash → per-pair
       partial intersection counts (ONE Python call per bucket).
    3. a second exchange keyed on ``(doc_a, doc_b)`` sums them to the
       exact |A∩B| (pairs sharing ≥1 gram only — lossless for any
       threshold > 0) and applies ``finalize`` to the summed
       ``(doc_a, doc_b, inter, size_a, size_b)`` rows — vectorized
       groups again, not one Ray aggregate per pair (a 1M-group
       ``groupby().aggregate()`` pays per-group Python overhead).
    4. |A| and |B| RIDE ALONG on the gram rows (each posting carries
       its doc's distinct-gram count — a constant per doc, so any
       partial row has the true sizes) → integer-exact thresholds
       downstream. No driver-resident size map: a per-doc broadcast
       dict would be corpus-cardinality at 10^10 docs.

    Postings of hub grams with more than ``max_bucket`` docs are
    dropped with a log (at web scale drop stopword-run grams); the
    synthetic corpus never hits the cap.
    """
    width = table_width(sf_dir, "documents")
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def to_grams(batch: pa.Table) -> pa.Table:
        out_gram, out_doc, out_size = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            grams_set = word_ngrams(text, n)
            out_gram.extend(grams_set)
            out_doc.extend([doc_id] * len(grams_set))
            out_size.extend([len(grams_set)] * len(grams_set))
        return pa.table(
            {
                "gram_hash": pa.array(
                    (stable_hash64_array(out_gram) % np.uint64(1 << 62)).astype(np.int64)
                ),
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "n_grams": pa.array(out_size, type=pa.int64()),
            }
        )

    grams = ds.map_batches(to_grams, batch_format="pyarrow", zero_copy_batch=True)

    def bucket_pair_partials(group: pd.DataFrame) -> pd.DataFrame:
        """One call per hash bucket: self-merge on gram_hash → partial
        |A∩B| per doc pair within this bucket's grams, set sizes
        carried along (first value per pair side)."""
        g = group[["gram_hash", "doc_id", "n_grams"]]
        post = g.groupby("gram_hash")["doc_id"].transform("size")
        hubs = int((post > max_bucket).sum())
        if hubs:
            import logging

            logging.getLogger(__name__).warning(
                "set-similarity join: dropping %d hub-gram postings (> %d docs)",
                hubs, max_bucket,
            )
            g = g[post <= max_bucket]
        m = g.merge(g, on="gram_hash")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        return (
            m.groupby(["doc_id_x", "doc_id_y"], as_index=False)
            .agg(inter=("gram_hash", "size"), size_a=("n_grams_x", "first"),
                 size_b=("n_grams_y", "first"))
            .rename(columns={"doc_id_x": "doc_a", "doc_id_y": "doc_b"})
        )

    def sum_pairs(group: pd.DataFrame) -> pd.DataFrame:
        return finalize(
            group.groupby(["doc_a", "doc_b"], as_index=False).agg(
                inter=("inter", "sum"), size_a=("size_a", "first"), size_b=("size_b", "first")
            )
        )

    partials = keyed_exchange(grams, "gram_hash", bucket_pair_partials, width)
    return keyed_exchange(partials, ["doc_a", "doc_b"], sum_pairs, width)


def ngram_jaccard_pairs(
    sf_dir: str,
    n: int = 3,
    threshold_num: int = 1,
    threshold_den: int = 2,
    max_bucket: int = 2000,
) -> "ray.data.Dataset":
    """All pairs with n-gram Jaccard ≥ threshold_num/threshold_den.

    Threshold and the returned ``jaccard_ppm`` are integer-exact
    (``den*inter >= num*union``; ``inter*1_000_000 // union``) so the
    DuckDB oracle reproduces values bit-for-bit.

    Exact set-similarity join via the inverted index itself — the
    classic prefix/inverted-index family (cf. "Distributed Streaming
    Set Similarity Join", ICDE 2020) — no re-shingling verify pass;
    candidate+intersection machinery shared with
    :func:`containment_pairs` via :func:`_pair_intersection_sums`
    (see its docstring for the exchange plan).
    """

    def threshold(s: pd.DataFrame) -> pd.DataFrame:
        union = s["size_a"].astype("int64") + s["size_b"].astype("int64") - s["inter"]
        keep = (union > 0) & (threshold_den * s["inter"] >= threshold_num * union)
        s = s[keep]
        s["jaccard_ppm"] = (s["inter"] * 1_000_000 // union[keep]).astype("int64")
        return s[["doc_a", "doc_b", "jaccard_ppm"]]

    return _pair_intersection_sums(sf_dir, n, max_bucket, threshold)


def containment_pairs(
    sf_dir: str,
    n: int = 3,
    threshold_num: int = 19,
    threshold_den: int = 20,
    min_size: int = 5,
    max_bucket: int = 2000,
) -> "ray.data.Dataset":
    """(inner_doc, outer_doc, containment_ppm) — asymmetric
    near-containment join: every DIRECTED pair where
    ``|A∩B| ≥ (num/den)·|A|`` (A's n-gram set nearly contained in
    B's), the quote/boilerplate/superset detector that a symmetric
    Jaccard join misses (a short doc fully embedded in a long one has
    high containment but low Jaccard). Classic overlap/containment
    set-join semantics (cf. the prefix-filter family, Chaudhuri et al.
    ICDE 2006); here the full-postings route of
    :func:`_pair_intersection_sums` is reused unchanged because it
    produces EXACT intersections with no verify pass — a prefix index
    would only pay off with a second re-shingling verify stage.

    Threshold and ``containment_ppm`` are integer-exact
    (``den·inter ≥ num·size_inner``; ``inter·1e6 // size_inner``) so
    the DuckDB oracle matches bit-for-bit. ``min_size`` drops inner
    sides with fewer than that many distinct grams (trivially-contained
    stubs). Each undirected candidate pair fans out to ≤2 directed
    rows in the final per-pair-bucket stage — no extra exchange over
    the Jaccard plan (same two keyed shuffles total).
    """

    def directed(s: pd.DataFrame) -> pd.DataFrame:
        dirs = []
        for inner, outer, sz in (("doc_a", "doc_b", "size_a"), ("doc_b", "doc_a", "size_b")):
            size_in = s[sz].astype("int64")
            keep = (size_in >= min_size) & (
                threshold_den * s["inter"] >= threshold_num * size_in
            )
            d = s[keep]
            dirs.append(
                pd.DataFrame(
                    {
                        "inner_doc": d[inner].astype("int64"),
                        "outer_doc": d[outer].astype("int64"),
                        "containment_ppm": (
                            d["inter"].astype("int64") * 1_000_000 // size_in[keep]
                        ).astype("int64"),
                    }
                )
            )
        return pd.concat(dirs, ignore_index=True)

    return _pair_intersection_sums(sf_dir, n, max_bucket, directed)


def _cluster_labels_distributed(
    pairs: "ray.data.Dataset", max_rounds: int = 50, shortcut: bool = False
) -> "ray.data.Dataset":
    """Connected components over a pair Dataset via min-label
    propagation — the path for edge sets too large for a driver
    union-find. Each round: every edge proposes its endpoint's label to
    the other endpoint; every node takes the min (two node-keyed
    exchanges per round: the proposals, with each node's own label
    riding along, then the min-reduce; all per-bucket work vectorized);
    converges in ≤ diameter rounds (near-dup clusters are shallow).
    Returns ``(node, label)`` for every node that appears in a pair.

    Each round runs as one execution through ``supersteps``, whose
    stop test is the round's ``_changed`` total.

    ``shortcut=True`` adds one pointer-jumping exchange per round
    (``label ← label(label)``, Shiloach–Vishkin-style star
    compression): rounds drop from O(diameter) to roughly
    O(log diameter) at the cost of one extra keyed exchange per round
    — the right trade for HIGH-diameter graphs (a structured link
    graph), while shallow near-dup clusters keep the cheaper 2-exchange
    rounds. Both settings reach the same fixpoint (labels only
    decrease within a component; the component minimum keeps its own
    label; hooking-stability forces edge-constant labels = the min),
    so the union-find oracle pins either."""

    def sym_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [
                df.rename(columns={"doc_a": "src", "doc_b": "dst"})[["src", "dst"]],
                df.rename(columns={"doc_b": "src", "doc_a": "dst"})[["src", "dst"]],
            ],
            ignore_index=True,
        ).astype("int64")

    edges = pairs.map_batches(sym_edges, batch_format="pandas").materialize()
    # fanout is a pure perf knob (all keying is by node value); shrink
    # it when the edge set underfills 64 reduce partitions
    nb = adaptive_buckets(edges.count())
    edge_side = (edges, "src", typed_frame(src="int64", dst="int64"))

    def init_labels(df: pd.DataFrame) -> pd.DataFrame:
        nodes = df["src"].unique()
        return pd.DataFrame({"node": nodes, "label": nodes}).astype("int64")

    labels = keyed_exchange(
        edges.map_batches(init_labels, batch_format="pandas"),
        "node",
        lambda group: group.drop_duplicates("node"),
        nb,
    ).materialize()

    # 1) ship each src's label to its edges: emit (node=dst, label(src));
    # the bucket's own label rows ride along (own=1) into the reduce
    def propose(parts: dict) -> pd.DataFrame:
        cur = parts["label"]
        m = parts["edge"].merge(cur, left_on="src", right_on="node")
        return pd.concat(
            [cur.assign(own=np.int8(1)),
             pd.DataFrame({"node": m["dst"], "label": m["label"], "own": np.int8(0)})],
            ignore_index=True,
        ).astype({"node": "int64", "label": "int64"})

    # 2) per node: new label = min(old, proposals); count changes
    def reduce_min(g: pd.DataFrame) -> pd.DataFrame:
        new = g.groupby("node", as_index=False)["label"].min()
        merged = new.merge(g.loc[g["own"] == 1, ["node", "label"]], on="node", suffixes=("", "_old"))
        merged["_changed"] = (merged["label"] < merged["label_old"]).astype("int64")
        return merged[["node", "label", "_changed"]]

    # pointer jumping: label ← label(label). Each (node, label) row
    # meets the label-node's own row in the label's bucket and adopts
    # its label — star compression halves pointer-chain depth per round
    def jump(parts: dict) -> pd.DataFrame:
        roots = parts["self"].drop_duplicates("node")
        m = parts["ref"].merge(
            roots.rename(columns={"node": "label", "label": "root"}), on="label", how="left"
        )
        # a label always names a node that appears in labels; the
        # fillna is belt-and-braces for isolated rows
        m["label"] = m["root"].fillna(m["label"]).astype("int64")
        return m[["node", "label"]]

    def hook(cur):
        # with ``shortcut``, every round after the first starts with the
        # jump over the labels the last round settled; the round's own
        # stop test sits between its min-reduce and the next jump
        if shortcut and cur is not labels:
            cur = co_exchange(
                {"ref": (cur, "label", _NODE_LABEL), "self": (cur, "node", _NODE_LABEL)}, jump, nb
            )
        msgs = co_exchange({"label": (cur, "node", _NODE_LABEL), "edge": edge_side}, propose, nb)
        # the next round reads the result as it is: co_exchange projects
        # each side onto its template's columns, so ``_changed`` never ships
        return keyed_exchange(msgs, "node", reduce_min, nb)

    # exhausted max_rounds with labels still moving: the output would
    # silently disagree with the union-find oracle (cluster chains
    # deeper than max_rounds). Surface it — callers on real corpora
    # should raise max_rounds (cost is 2 shuffles/round).
    return supersteps(
        labels, hook, max_rounds,
        "min-label propagation did not converge in {rounds} rounds "
        "({changed} labels still changing) — raise max_rounds",
    ).select_columns(["node", "label"])


def dedup_clusters(
    sf_dir: str,
    n: int = 3,
    mode: str = "auto",
    driver_pair_limit: int = 2_000_000,
) -> "ray.data.Dataset":
    """Near-duplicate clusters: connected components over the exact
    n-gram-Jaccard pair graph, each doc labeled with its component's
    minimum doc_id (``keep = doc_id == cluster_rep``) — the final
    keep-one-per-cluster step of a dedup pipeline.

    - ``mode="driver"``: union-find on the driver over the collected
      pairs — right while pairs ≪ corpus (they are, by the dedup
      threshold's construction).
    - ``mode="distributed"``: min-label propagation over the pair
      Dataset (``_cluster_labels_distributed``) and a bucketed
      join back to the corpus — no driver-resident edge set; the path
      when even the pairs outgrow one machine. Equivalence with the
      driver mode is pinned in tests.
    - ``mode="auto"`` (default): count the pairs (already materialized
      by the pair scan — the count is metadata-only) and pick driver
      below ``driver_pair_limit`` edges (~100 MB driver footprint),
      distributed above. Both regimes share the same oracle.
    """
    pair_ds = ngram_jaccard_pairs(sf_dir, n=n).materialize()
    if mode == "auto":
        mode = "driver" if pair_ds.count() <= driver_pair_limit else "distributed"
    if mode == "distributed":
        docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

        def join(parts: dict) -> pd.DataFrame:
            m = parts["doc"].merge(parts["label"], left_on="doc_id", right_on="node", how="left")
            rep = m["label"].fillna(m["doc_id"]).astype("int64")
            return pd.DataFrame(
                {"doc_id": m["doc_id"], "cluster_rep": rep, "keep": m["doc_id"] == rep}
            )

        return co_exchange(
            {
                "doc": (docs, "doc_id", typed_frame(doc_id="int64")),
                "label": (_cluster_labels_distributed(pair_ds), "node", _NODE_LABEL),
            },
            join,
            table_width(sf_dir, "documents"),
        )

    pairs = pair_ds.to_pandas()

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    for a, b in zip(pairs["doc_a"].astype(int), pairs["doc_b"].astype(int)):
        union(a, b)
    rep = {x: find(x) for x in list(parent)}
    rep_ref = ray.put(rep)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def label(batch: pa.Table) -> pa.Table:
        lookup = ray.get(rep_ref)
        ids = batch.column("doc_id").to_pylist()
        reps = [lookup.get(i, i) for i in ids]
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "cluster_rep": pa.array(reps, type=pa.int64()),
                "keep": pa.array([i == r for i, r in zip(ids, reps)]),
            }
        )

    return ds.map_batches(label, batch_format="pyarrow", zero_copy_batch=True)


# --- simhash ---------------------------------------------------------------

def simhash64(text: str) -> int:
    """64-bit SimHash over token hashes (unweighted)."""
    th = _token_hashes(text)
    if len(th) == 0:
        return 0
    bits = ((th[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(np.int32)
    acc = (2 * bits - 1).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def simhash_fingerprints(sf_dir: str) -> "ray.data.Dataset":
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        hs = [simhash64(t) for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "simhash": pa.array(np.array(hs, dtype=np.uint64).astype(np.int64)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def simhash_neardup_pairs(sf_dir: str, max_hamming: int = 3) -> "ray.data.Dataset":
    """Near-dup pairs by SimHash banding (4 bands of 16 bits: any pair
    within hamming ≤ 3 shares at least one exact band)."""
    fps = simhash_fingerprints(sf_dir)

    def to_bands(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        hs = batch.column("simhash").to_pylist()
        rows = {"band": [], "band_val": [], "doc_id": [], "simhash": []}
        for i, h in zip(ids, hs):
            uh = h & 0xFFFFFFFFFFFFFFFF
            for band in range(4):
                rows["band"].append(band)
                rows["band_val"].append((uh >> (band * 16)) & 0xFFFF)
                rows["doc_id"].append(i)
                rows["simhash"].append(h)
        return pa.table(
            {
                "band": pa.array(rows["band"], type=pa.int32()),
                "band_val": pa.array(rows["band_val"], type=pa.int32()),
                "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
                "simhash": pa.array(rows["simhash"], type=pa.int64()),
            }
        )

    def emit_bucket(group: pd.DataFrame) -> pd.DataFrame:
        """One vectorized call per hash bucket (not per 16-bit LSH
        bucket): self-merge on (band, band_val) → xor popcount → pairs.
        Pairs sharing several bands dedupe here (drop_duplicates)."""
        g = group[["band", "band_val", "doc_id", "simhash"]].drop_duplicates()
        m = g.merge(g, on=["band", "band_val"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        if not len(m):
            return pd.DataFrame({"doc_a": [], "doc_b": [], "hamming": []}).astype(
                {"doc_a": "int64", "doc_b": "int64", "hamming": "int32"}
            )
        x = np.bitwise_xor(
            m["simhash_x"].to_numpy().astype(np.uint64),
            m["simhash_y"].to_numpy().astype(np.uint64),
        )
        ham = np.unpackbits(x.view(np.uint8)).reshape(len(m), 8 * 8).sum(axis=1)
        out = pd.DataFrame(
            {
                "doc_a": m["doc_id_x"].to_numpy(),
                "doc_b": m["doc_id_y"].to_numpy(),
                "hamming": ham.astype(np.int32),
            }
        )
        out = out[out["hamming"] <= max_hamming].drop_duplicates(["doc_a", "doc_b"])
        return out

    width = table_width(sf_dir, "documents")
    banded = fps.map_batches(to_bands, batch_format="pyarrow")
    # keyed on band_val only: all four band copies of a (band, band_val)
    # posting stay together, and a pair sharing k bands appears in ≤ k
    # buckets — cross-bucket duplicates removed below
    pairs = keyed_exchange(banded, "band_val", emit_bucket, width)
    # global pair-dedup: cheap second pass keyed by the pair
    return keyed_exchange(
        pairs, ["doc_a", "doc_b"], lambda g: g.drop_duplicates(["doc_a", "doc_b"]), width
    )


# --- embedding cosine near-dup --------------------------------------------

def embedding_neardup_pairs(
    sf_dir: str, threshold: float = 0.95, mode: str = "exact"
) -> "ray.data.Dataset":
    """Pairs with cosine ≥ threshold.

    - ``mode="exact"`` (default): chunked brute force — the normalized
      matrix broadcasts once (``ray.put``), each task owns a row range
      and matmuls it against the whole matrix, emitting its upper-
      triangle hits. O(N²/P) per task, exact (oracle-checkable). Right
      up to ~10^6 vectors per broadcast shard; beyond that, shard the
      matrix and run the block-pair grid.
    - ``mode="ivf"``: IVF multi-assignment — distributed spherical
      k-means, each vector joins its top-``n_assign`` centroid lists,
      pairwise scan per list, distributed pair-dedup. Sound
      approximate: a near-dup pair co-occurs in a list unless the two
      vectors' top-``n_assign`` centroid sets are disjoint (measured
      at the aggressive threshold 0.35: recall 0.66/0.87/0.97 for
      n_assign 2/3/4 at 16 centroids — the default 4 is pinned ≥0.9
      in tests; production near-dup thresholds ≥0.9 co-locate far
      more tightly and tolerate smaller n_assign). The scale default when the matrix
      outgrows even the block-pair grid's O(N²) compute.
    - ``mode="bucketed"``: per-``label`` pairwise scan — cheap but only
      finds within-bucket pairs (measured: misses ~90% of true pairs
      at threshold 0.35 on the synthetic table, where labels don't
      align with the similarity structure; sound only when the bucket
      key provably co-locates near-dups). Kept as the cautionary
      example; prefer ``ivf``.
    """
    if mode == "ivf":
        return _embedding_neardup_ivf(sf_dir, threshold)
    if mode == "bucketed":
        ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")

        def per_label(group) -> pa.Table:
            ids = np.asarray(group["vec_id"])
            mat = np.asarray([np.asarray(e, dtype=np.float64) for e in group["embedding"]])
            normed = mat / np.clip(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12, None)
            sims = normed @ normed.T
            ia, ib = np.triu_indices(len(ids), k=1)
            mask = sims[ia, ib] >= threshold
            return pa.table(
                {
                    "vec_a": pa.array(np.minimum(ids[ia[mask]], ids[ib[mask]]), type=pa.int64()),
                    "vec_b": pa.array(np.maximum(ids[ia[mask]], ids[ib[mask]]), type=pa.int64()),
                    "cosine": pa.array(np.floor(sims[ia, ib][mask] * 1e6 + 0.5) / 1e6),
                }
            )

        return ds.groupby("label").map_groups(per_label, batch_format="numpy")

    # exact mode: BLOCK-PAIR GRID — the matrix is sharded into row
    # blocks that never leave the object store (``to_arrow_refs``: no
    # driver materialization); one Ray task per block pair (i ≤ j)
    # matmuls its two shards and emits only the threshold hits. Each
    # task holds two shards (O(2·n/B·d)), so the grid scales to
    # matrices that fit NO single machine — the scale path promised
    # for >10^6 vectors. Raw tasks (not a Dataset op) because a task's
    # input is a *pair* of existing blocks, which the Dataset API
    # cannot express without reshuffling the vectors B times.
    import math

    import pyarrow.parquet as pq

    n_rows = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    n_blocks = max(1, math.ceil(n_rows / 65536))
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        override_num_blocks=n_blocks,
    )

    def normalize(batch: pa.Table) -> pa.Table:
        ids = _i64(batch.column("vec_id"))
        mat = _as_matrix_arrow(batch.column("embedding"))
        mat /= np.clip(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12, None)
        return pa.table(
            {
                "vec_id": pa.array(ids),
                "normed": _list_column(mat),
            }
        )

    normed = ds.map_batches(normalize, batch_format="pyarrow", zero_copy_batch=True)
    refs = normed.to_arrow_refs()

    @ray.remote
    def block_pair(ref_a: pa.Table, ref_b: pa.Table, same: bool) -> pa.Table:
        ta, tb = ref_a, ref_b  # Ray resolves the refs to tables
        ids_a = _i64(ta.column("vec_id"))
        ids_b = _i64(tb.column("vec_id"))
        ma = _as_matrix_arrow(ta.column("normed"))
        mb = _as_matrix_arrow(tb.column("normed"))
        sims = ma @ mb.T
        ia, ib = np.nonzero(sims >= threshold)
        va, vb = ids_a[ia], ids_b[ib]
        keep = va != vb if same else np.ones(len(va), dtype=bool)
        # canonical orientation + same-block double-emission dedup
        lo = np.minimum(va[keep], vb[keep])
        hi = np.maximum(va[keep], vb[keep])
        cos = sims[ia[keep], ib[keep]]
        if same:
            first = va[keep] < vb[keep]  # keep one of the two mirrored hits
            lo, hi, cos = lo[first], hi[first], cos[first]
        return pa.table(
            {
                "vec_a": pa.array(lo, type=pa.int64()),
                "vec_b": pa.array(hi, type=pa.int64()),
                "cosine": pa.array(np.floor(cos * 1e6 + 0.5) / 1e6),
            }
        )

    out_refs = [
        block_pair.remote(refs[i], refs[j], i == j)
        for i in range(len(refs))
        for j in range(i, len(refs))
    ]
    # hit pairs stay in the object store — the driver holds only the
    # refs (a dup-heavy corpus can emit O(pairs) rows; ray.get +
    # concat_tables here would materialize them all driver-side)
    return ray.data.from_arrow_refs(out_refs)


def _embedding_neardup_ivf(
    sf_dir: str,
    threshold: float,
    n_centroids: int = 16,
    n_assign: int = 4,
    n_iters: int = 3,
) -> "ray.data.Dataset":
    """IVF multi-assignment near-dup pairs (see embedding_neardup_pairs
    mode='ivf'). One natural-key shuffle (centroid id); per-list
    pairwise matmul; a pair-keyed exchange dedups cross-list
    duplicates."""
    from .similarity import spherical_kmeans

    cent = spherical_kmeans(sf_dir, n_centroids=n_centroids, n_iters=n_iters)
    cent_ref = ray.put(cent)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        ids = _i64(batch.column("vec_id"))
        mat = _as_matrix_arrow(batch.column("embedding"))
        mn = mat / np.clip(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12, None)
        top = np.argsort(-(mn @ c.T), axis=1)[:, :n_assign]  # (n, n_assign)
        rep_ids = np.repeat(ids, n_assign)
        rep_cent = top.reshape(-1).astype(np.int64)
        rep_vecs = np.repeat(mn, n_assign, axis=0)
        return pa.table(
            {
                "centroid": pa.array(rep_cent),
                "vec_id": pa.array(rep_ids),
                "normed": _list_column(rep_vecs),
            }
        )

    assigned = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)

    def list_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates("vec_id")
        ids = g["vec_id"].to_numpy(dtype=np.int64)
        if len(ids) < 2:
            return pd.DataFrame(
                {"vec_a": pd.Series([], dtype="int64"),
                 "vec_b": pd.Series([], dtype="int64"),
                 "cosine": pd.Series([], dtype="float64")}
            )
        mat = np.asarray([np.asarray(v) for v in g["normed"]])
        sims = mat @ mat.T
        ia, ib = np.triu_indices(len(ids), k=1)
        keep = sims[ia, ib] >= threshold
        lo = np.minimum(ids[ia[keep]], ids[ib[keep]])
        hi = np.maximum(ids[ia[keep]], ids[ib[keep]])
        return pd.DataFrame(
            {
                "vec_a": lo,
                "vec_b": hi,
                "cosine": np.floor(sims[ia, ib][keep] * 1e6 + 0.5) / 1e6,
            }
        )

    pairs = assigned.groupby("centroid").map_groups(list_pairs, batch_format="pandas")
    return keyed_exchange(
        pairs,
        ["vec_a", "vec_b"],
        lambda g: g.drop_duplicates(["vec_a", "vec_b"]),
        table_width(sf_dir, "embeddings"),
    )


# --- exact-substring (window) dedup ----------------------------------------


def window_dedup(sf_dir: str, w: int = 5) -> "ray.data.Dataset":
    """Exact-substring dedup signal at w-token window granularity
    (the distributed form of Lee et al., "Deduplicating Training Data
    Makes Language Models Better": an occurrence is a *duplicate* if
    the identical w-token span appeared earlier in the global
    (doc_id, pos) order).

    Per doc: (doc_id, n_windows, n_dup_windows).  Docs shorter than
    ``w`` tokens have no windows and are excluded (mirrors the SQL
    oracle's ``unnest``).

    Shape at scale: windows ride as (hash, doc_id, pos) rows — never
    text — through ONE keyed exchange on the window hash
    (first-occurrence marking is vectorised per bucket), then per-doc
    partials are summed by a second, doc_id-keyed exchange.  Window
    hashes are 64-bit position-sensitive polynomial combines of blake2b
    token hashes (process-stable; collision odds ~n²/2⁶⁵).
    """
    from .decontaminate import _P

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def window_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        cache: dict[str, np.uint64] = {}
        hs, docs, poss = [], [], []
        for did, t in zip(ids, texts):
            toks = t.split(" ")
            if len(toks) < w:
                continue
            th = np.empty(len(toks), dtype=np.uint64)
            for i, tok in enumerate(toks):
                h = cache.get(tok)
                if h is None:
                    h = cache[tok] = np.uint64(stable_hash64(tok))
                th[i] = h
            with np.errstate(over="ignore"):
                acc = th[: len(toks) - w + 1].copy()
                for j in range(1, w):
                    acc = acc * _P + th[j : len(toks) - w + 1 + j]
            hs.append(acc)
            docs.append(np.full(len(acc), did, dtype=np.int64))
            poss.append(np.arange(1, len(acc) + 1, dtype=np.int32))
        if not hs:
            return pa.table(
                {
                    "whash": pa.array([], type=pa.int64()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "pos": pa.array([], type=pa.int32()),
                }
            )
        flat = np.concatenate(hs)
        return pa.table(
            {
                "whash": pa.array(flat.view(np.int64)),
                "doc_id": pa.array(np.concatenate(docs)),
                "pos": pa.array(np.concatenate(poss)),
            }
        )

    def bucket_stats(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["whash", "doc_id", "pos"], kind="mergesort")
        first = np.ones(len(g), dtype=bool)
        wv = g["whash"].to_numpy()
        first[1:] = wv[1:] != wv[:-1]
        agg = (
            pd.DataFrame({"doc_id": g["doc_id"].to_numpy(), "dup": (~first).astype("int64")})
            .groupby("doc_id", as_index=False)
            .agg(n_windows=("dup", "size"), n_dup_windows=("dup", "sum"))
        )
        return agg.astype({"doc_id": "int64", "n_windows": "int64", "n_dup_windows": "int64"})

    def sum_doc(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("doc_id", as_index=False)[["n_windows", "n_dup_windows"]].sum()

    width = table_width(sf_dir, "documents")
    windows = ds.map_batches(window_rows, batch_format="pyarrow", zero_copy_batch=True)
    partials = keyed_exchange(windows, "whash", bucket_stats, width)
    return keyed_exchange(partials, "doc_id", sum_doc, width)


# ---------------------------------------------------------------------------
# incremental (cross-snapshot) exact dedup
# ---------------------------------------------------------------------------

def _md5_rows(batch: pa.Table, mod: int, want: int, negate: bool = False) -> pa.Table:
    """(doc_id, h) for rows where ``doc_id % mod == want`` (or ``!=``
    with ``negate``) — snapshot predicate fused into the hash scan so
    the raw text never leaves the task and filtered rows are never
    hashed."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    r = (ids % mod) == want
    batch = batch.filter(pa.array(~r if negate else r))
    texts = batch.column("text").to_pylist()
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "h": pa.array([hashlib.md5(t.encode()).hexdigest() for t in texts],
                          type=pa.string()),
        }
    )


def incremental_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Cross-snapshot exact dedup — the arrival-time form of
    ``exact_dedup``: an established corpus snapshot (docs with
    ``doc_id % 3 != 2``) already exists; a re-crawl batch (docs with
    ``doc_id % 2 == 0``) arrives; emit ``(content_md5, doc_id)`` for
    the genuinely NEW content only (within-batch dups keep the lowest
    doc_id). Re-fetched unchanged pages hash-match the corpus and are
    dropped before any downstream work — the reference's
    change-detection idea (database.py upsert diffing) at corpus scale.

    Within-batch keep-min (one md5-keyed exchange over the NEW batch
    only) → corpus anti-join (``relational.anti_join_bucketed``,
    co-partitioned on the md5). At 100 TB the old side would be a
    PRE-BUILT hash index, bucket-partitioned on disk (the
    ``inverted_index`` sink layout), so only the new batch moves; here
    both sides derive from one table so the old hashes shuffle once.
    """
    import pyarrow.parquet as pq

    from .relational import anti_join_bucketed

    path = f"{sf_dir}/documents.parquet"
    n = adaptive_buckets(pq.read_metadata(path).num_rows)
    docs = ray.data.read_parquet(path, columns=["doc_id", "text"])

    old_h = docs.map_batches(
        lambda b: _md5_rows(b, 3, 2, negate=True),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    new_h = docs.map_batches(
        lambda b: _md5_rows(b, 2, 0),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    rows_t = typed_frame(doc_id="int64", h="object")

    # within-batch keep-min first (commutes with the cross-snapshot
    # filter: members of an md5 group are all dropped or all kept)
    new_min = keep_min(new_h, "h", "doc_id", n)

    # materialized first: at one CPU, a plan that unions a
    # sort-shuffle branch with a streaming read never finishes
    survivors = anti_join_bucketed(new_min.materialize(), old_h, "h", rows_t, n)

    return survivors.map_batches(
        lambda df: pd.DataFrame(
            {"content_md5": df["h"], "doc_id": df["doc_id"].astype("int64")}
        ),
        batch_format="pandas",
    )


# --- cross-document line/chunk dedup (rewrite) ------------------------------

def line_dedup_rewrite(sf_dir: str, chunk_words: int = 8) -> "ray.data.Dataset":
    """(doc_id, clean_text, n_chunks, n_kept) — C4/RefinedWeb-style
    cross-document duplicate-LINE removal that REWRITES the corpus:
    the text is cut into fixed ``chunk_words``-word chunks (the
    "lines" of this newline-free corpus; C4 §2.2 uses the literal
    newline, RefinedWeb dedups repeated spans the same way), each
    chunk is kept only at its FIRST global occurrence — ordered by
    (doc_id, position) — and every later copy anywhere in the corpus
    is dropped; the survivors reassemble in document order into
    ``clean_text``. Unlike :func:`window_dedup` (overlapping-window
    duplication SIGNAL, doc unchanged) this op produces the cleaned
    corpus itself — the actual C4 transform.

    Scale shape — two keyed exchanges, nothing driver-resident:

    - one scan explodes (doc_id, pos, chunk) rows;
    - exchange 1 is keyed on the chunk: per bucket a vectorized
      groupby-min over the (doc_id, pos) order key marks each copy
      kept/dropped (ALL copies of a chunk co-locate, so keep-first is
      exact and global);
    - exchange 2 routes every marked row by doc_id and
      reassembles kept chunks in position order per doc (every doc
      has ≥1 chunk row, so no doc goes missing — a fully-duplicated
      doc comes back with empty clean_text, exactly C4's behavior).
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    cw = int(chunk_words)

    def explode(batch: pa.Table) -> pd.DataFrame:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_pos, out_chunk = [], [], []
        for did, t in zip(ids, texts):
            wds = t.split(" ")
            for p in range(0, (len(wds) + cw - 1) // cw):
                out_id.append(did)
                out_pos.append(p)
                out_chunk.append(" ".join(wds[p * cw:(p + 1) * cw]))
        return pd.DataFrame(
            {"doc_id": pd.Series(out_id, dtype="int64"),
             "pos": pd.Series(out_pos, dtype="int64"),
             "chunk": out_chunk}
        )

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        # order key: first occurrence = smallest (doc_id, pos); pos is
        # bounded far below 2**20 per doc, so one int64 encodes both
        order = g["doc_id"].to_numpy() * (1 << 20) + g["pos"].to_numpy()
        first = pd.Series(order).groupby(g["chunk"].to_numpy()).transform("min")
        return pd.DataFrame(
            {"doc_id": g["doc_id"], "pos": g["pos"], "chunk": g["chunk"],
             "kept": (order == first.to_numpy())}
        )

    width = table_width(sf_dir, "documents")
    chunks = docs.map_batches(explode, batch_format="pyarrow")
    marked = keyed_exchange(chunks, "chunk", keep_first, width)

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, d in g.groupby("doc_id", sort=False):
            d = d.sort_values("pos")
            k = d[d["kept"]]
            rows.append((int(did), " ".join(k["chunk"]),
                         len(d), int(d["kept"].sum())))
        out = pd.DataFrame(
            rows, columns=["doc_id", "clean_text", "n_chunks", "n_kept"]
        )
        return out.astype(
            {"doc_id": "int64", "n_chunks": "int64", "n_kept": "int64"}
        )

    return keyed_exchange(marked, "doc_id", reassemble, width)
