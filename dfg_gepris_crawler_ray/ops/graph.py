"""Distributed link-graph operators — crawl-prioritization signals.

The SURVEY's frontier-expansion loop (the J5 anti-join over the
``spiders/details.py`` discovered-id fan-out) iterated over the
reference-edge graph: BFS tiers, PageRank (global, weighted,
personalized), HITS, OPIC, HyperBall and harmonic centrality, k-core,
SCC with its bow-tie and condensation layers, redirect chains, label
propagation, random walks, triangles, co-citation and assortativity.

Every op is a sequence of keyed exchanges and nothing else. State (one
row per node) and edges co-partition by node key through
``kernels.partitioning.co_exchange`` (``keyed_exchange`` when there is
one side); each bucket runs a vectorized pandas kernel; per round only
scalars (a dangling mass, a change count) reach the driver. No op holds
a node or edge set on the driver. An iterative loop runs each round as
one execution (``settle``: constant-depth plans, scalars read from the
round's blocks); the fixpoint loops run on ``supersteps``.
An op's exchange width is ``adaptive_buckets`` of its edge (or node)
count; every reduce is key-local, so the width never changes a value.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from ..kernels.partitioning import (
    adaptive_buckets,
    co_exchange,
    concat,
    keyed_exchange,
    settle,
    supersteps,
    typed_frame,
)

# module-top import: a runtime relative import inside a map_batches UDF
# body fails on workers even under pickle-by-value registration
from ..testdata.gen_pages import institution_ref, person_ref, projekt_ref


EDGES = typed_frame(src="int64", dst="int64")
NODES = typed_frame(node="int64")
CONTRIB = typed_frame(node="int64", contrib="float64")


def _int64_edges(edges: "ray.data.Dataset", dedup: bool = False) -> "ray.data.Dataset":
    """``edges`` as materialized int64 ``(src, dst)`` rows."""

    def cast(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"src": df["src"].astype("int64"), "dst": df["dst"].astype("int64")})
        return out.drop_duplicates() if dedup else out

    return edges.map_batches(cast, batch_format="pandas").materialize()


def _node_rows(df: pd.DataFrame) -> pd.DataFrame:
    """The distinct endpoints of one edge batch."""
    return pd.DataFrame({"node": pd.unique(pd.concat([df["src"], df["dst"]], ignore_index=True))})


def _reference_edges(sf_dir: str, symmetric: bool = False) -> "ray.data.Dataset":
    """(src, dst) — the projekt → person reference edges (the J5/J9
    frontier-expansion edges: projekt ``1000 + d`` for every doc_id
    ``d`` divisible by 3 cites ``person_ref(d, k)``, k = 1..4), fused
    into the documents scan. ``symmetric`` adds each edge's reverse
    right after it (the crawl follows links in both page directions)."""
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def edge_rows(batch) -> pd.DataFrame:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ids = ids[ids % 3 == 0]
        src = np.repeat(1000 + ids, 4)
        dst = person_ref(ids[:, None], np.arange(1, 5)[None, :], n_docs).ravel()
        if symmetric:
            src, dst = np.column_stack([src, dst]).ravel(), np.column_stack([dst, src]).ravel()
        return pd.DataFrame({"src": src.astype(np.int64), "dst": dst.astype(np.int64)})

    return docs.map_batches(edge_rows, batch_format="pyarrow")


def _seed_rows(stride: int):
    """map_batches fn: the seed list — projekt nodes whose doc_id is a
    multiple of ``stride`` (the deterministic stand-in for a curated
    seed file)."""

    def fn(batch) -> pd.DataFrame:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pd.DataFrame({"node": 1000 + ids[ids % stride == 0]})

    return fn


def _with_dangling(df: pd.DataFrame, col: str = "rank") -> pd.DataFrame:
    """``df`` plus ``_dangling``: ``col`` on rows with no out-edge, 0
    elsewhere — the column whose total is a round's dangling mass."""
    return df.assign(_dangling=df[col].where(df["outdeg"] == 0, 0.0))


def pagerank_ds(
    edges: "ray.data.Dataset",
    n_iters: int = 10,
    damping: float = 0.85,
    weight_col: str | None = None,
    seeds: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """PageRank over an edge Dataset (``src``, ``dst`` int64 columns),
    fixed ``n_iters`` power iterations, dangling mass redistributed
    uniformly. Returns ``(node, rank)`` for every node.

    ``weight_col`` names an optional edge-weight column: the recurrence
    becomes rank' = (1-d)/N + d·dangling/N + d·Σ rank(src)·w/outw(src)
    (outw = src's total outgoing weight) — the host-graph form, where
    an edge is "host A links to host B n times".  Integer-valued
    weights keep every float sum exact (< 2^53), so the weighted path
    is as deterministic as the unweighted one.  ``weight_col=None``
    preserves the original unweighted arithmetic bit-for-bit.

    ``seeds`` (a Dataset with a ``node`` column) switches to
    PERSONALIZED PageRank — random walk with restart to the seed set
    (Haveliwala 2002 topic-sensitive PageRank): teleport and dangling
    mass land uniformly on the |S| seeds instead of all N nodes, and
    rank starts as 1/|S| on seeds / 0 elsewhere. This is the
    focused-crawl prioritization signal: proximity to the curated
    seed list, not global importance. Seeds are attached through ONE
    node-keyed exchange (never a driver set — the seed list may be
    huge); seed ids absent from the graph are ignored.
    ``seeds=None`` preserves the global arithmetic bit-for-bit.

    Per round TWO exchanges: rank/outdeg meets the out-edges by src
    and per-edge contributions are pre-summed per dst INSIDE the bucket
    (so the second exchange carries at most one row per (bucket,
    distinct dst) — O(min(E, nb·V)) instead of O(E)); then the
    contributions meet their node by dst. The dangling mass is the one
    driver scalar per round."""
    weighted = weight_col is not None
    personalized = seeds is not None
    deg_dtype = "float64" if weighted else "int64"

    def cast_edges(df: pd.DataFrame) -> pd.DataFrame:
        out = {"src": df["src"].astype("int64"), "dst": df["dst"].astype("int64")}
        if weighted:
            out["w"] = df[weight_col].astype("float64")
        return pd.DataFrame(out)

    edges = edges.map_batches(cast_edges, batch_format="pandas").materialize()
    edge_t = typed_frame(src="int64", dst="int64", **({"w": "float64"} if weighted else {}))
    nb = adaptive_buckets(edges.count())

    # node list + out-degree/out-weight (one exchange, computed once)
    def node_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = _node_rows(df)
        by_src = df.groupby("src", as_index=False)
        deg = by_src["w"].sum() if weighted else by_src.size()
        deg.columns = ["node", "outdeg"]
        out = out.merge(deg, on="node", how="left")
        out["outdeg"] = out["outdeg"].fillna(0).astype(deg_dtype)
        return out

    nodes = keyed_exchange(
        edges.map_batches(node_rows, batch_format="pandas"), "node",
        lambda g: g.groupby("node", as_index=False)["outdeg"].sum(), nb,
    ).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return ray.data.from_pandas(typed_frame(node="int64", rank="float64"))

    ranks_t = typed_frame(
        node="int64", rank="float64", outdeg=deg_dtype, **({"seed": "int64"} if personalized else {})
    )
    n_seeds = 0
    if personalized:
        def attach_seed(parts: dict) -> pd.DataFrame:
            nd = parts["n"]
            return nd.assign(seed=nd["node"].isin(parts["s"]["node"].to_numpy()).astype("int64"))

        nodes, totals = settle(co_exchange(
            {"n": (nodes, "node", typed_frame(node="int64", outdeg=deg_dtype)),
             "s": (seeds.map_batches(lambda df: df[["node"]].drop_duplicates(), batch_format="pandas"),
                   "node", NODES)},
            attach_seed, nb,
        ), "seed")
        n_seeds = int(totals["seed"])
        if n_seeds == 0:
            raise ValueError(
                "pagerank_ds: no seed id appears in the graph — "
                "personalized rank is undefined"
            )
        ranks = nodes.map_batches(
            lambda df: _with_dangling(df.assign(rank=df["seed"].astype("float64") / n_seeds)),
            batch_format="pandas",
        )
    else:
        ranks = nodes.map_batches(
            lambda df: _with_dangling(df.assign(rank=1.0 / n_nodes)), batch_format="pandas"
        )
    ranks, totals = settle(ranks, "_dangling")  # the first round's dangling mass

    def contribs(parts: dict) -> pd.DataFrame:
        r, e = parts["r"], parts["e"]
        if weighted:
            outw = r["outdeg"].to_numpy()
            val = np.where(outw > 0, r["rank"].to_numpy() / np.clip(outw, 1e-300, None), 0.0)
        else:
            val = r["rank"] / r["outdeg"].clip(lower=1)
        m = e.merge(pd.DataFrame({"src": r["node"], "val": val}), on="src")
        c = m["val"] * m["w"] if weighted else m["val"]
        out = pd.DataFrame({"node": m["dst"], "contrib": c})
        return out.groupby("node", as_index=False)["contrib"].sum()

    for _ in range(n_iters):
        dangling = float(totals["_dangling"])
        contrib = co_exchange({"r": (ranks, "node", ranks_t), "e": (edges, "src", edge_t)}, contribs, nb)

        base = (1.0 - damping) / n_nodes + damping * dangling / n_nodes
        # personalized: teleport + dangling mass restart AT THE SEEDS
        seed_base = ((1.0 - damping) + damping * dangling) / n_seeds if personalized else 0.0

        def reduce_rank(parts: dict, _base=base, _seed_base=seed_base) -> pd.DataFrame:
            nd = parts["n"]
            # deterministic summation: order by node (groupby sorts keys)
            cs = parts["c"].groupby("node")["contrib"].sum()
            s = nd.merge(cs.rename("s"), left_on="node", right_index=True, how="left")["s"].fillna(0.0)
            if personalized:
                return _with_dangling(nd.assign(rank=_seed_base * nd["seed"] + damping * s.to_numpy()))
            return _with_dangling(nd.assign(rank=_base + damping * s.to_numpy()))

        ranks, totals = settle(
            co_exchange(
                {"n": (ranks, "node", ranks_t), "c": (contrib, "node", CONTRIB)},
                reduce_rank, nb,
            ),
            "_dangling",
        )

    return ranks.map_batches(lambda df: df[["node", "rank"]], batch_format="pandas")


def reference_graph_pagerank(sf_dir: str, n_iters: int = 10) -> "ray.data.Dataset":
    """PageRank over the synthetic GEPRIS reference graph: directed
    projekt → person edges (the J5/J9 frontier-expansion edges) — the
    crawl-priority signal a production frontier would ORDER BY."""
    return pagerank_ds(_reference_edges(sf_dir), n_iters=n_iters)


def reference_graph_components(sf_dir: str) -> "ray.data.Dataset":
    """(node, component_rep) — connected components over the
    (symmetrized) projekt→person reference graph via the shared
    min-label propagation (``dedup._cluster_labels_distributed``:
    two key-hash-bucket shuffles per round, converges in ≤ graph
    diameter). The crawl-side use: a component is a co-funding site
    cluster — crawl/refresh it as a unit, and a frontier partitioned
    by component key never splits an entity's neighborhood across
    politeness shards."""
    from .dedup import _cluster_labels_distributed

    pairs = _reference_edges(sf_dir).map_batches(
        lambda df: df.rename(columns={"src": "doc_a", "dst": "doc_b"}), batch_format="pandas"
    )
    # the link graph is structured (arithmetic-progression refs →
    # diameter ~30 at test scale): pointer-jumping keeps rounds log
    labels = _cluster_labels_distributed(pairs, shortcut=True)
    return labels.map_batches(
        lambda df: pd.DataFrame(
            {"node": df["node"].astype("int64"),
             "component_rep": df["label"].astype("int64")}
        ),
        batch_format="pandas",
    )


def frontier_order_by_pagerank(
    sf_dir: str, limit: int = 100, n_iters: int = 4
) -> "pd.DataFrame":
    """(position, id, rank) — the first ``limit`` entities a
    link-importance-driven frontier would fetch: PageRank over the
    reference graph, ordered by (rank DESC, id ASC). This is the J1
    crawl-order contract with the static tier replaced by the
    computed importance signal — what a production crawler does once
    it has a link graph (the reference's cron can only order by
    status/refresh age; database.py:43-64).

    Ranks are rounded to 9 dp BEFORE ordering on both sides (op and
    oracle) so the tie-set is identical. The sort is a distributed
    ``Dataset.sort`` + ``limit`` — only ``limit`` rows reach the
    driver."""
    ranks = reference_graph_pagerank(sf_dir, n_iters=n_iters)

    def round_rank(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": df["node"].astype("int64"),
             "rank": (df["rank"].to_numpy() * 1e9).round() / 1e9}
        )

    top = (
        ranks.map_batches(round_rank, batch_format="pandas")
        .sort(["rank", "node"], descending=[True, False])
        .limit(limit)
        .to_pandas()
    )
    top.insert(0, "position", pd.RangeIndex(1, len(top) + 1).astype("int64"))
    return top.rename(columns={"node": "id"})


def inbound_reference_topk(sf_dir: str, k: int = 25) -> "pa.Table":
    """(rank, person_id, n_inbound) — the ``k`` persons most
    referenced by projekt pages (ties by person_id ascending): the
    in-degree crawl-priority signal, i.e. the degree-based cheap
    cousin of :func:`reference_graph_pagerank` that a frontier uses
    before any iteration has run (reference J5/J9 edges).

    Shape: edge emission fused into the documents scan (formula
    edges, no page parse needed), per-batch partial in-degree counts,
    ONE dst-keyed sum, per-bucket top-k prune, ≤ buckets·k driver
    rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

    def partial_indeg(df: pd.DataFrame) -> pd.DataFrame:
        s = df["dst"].value_counts()
        return pd.DataFrame({"person_id": s.index.astype("int64"), "n": s.to_numpy().astype("int64")})

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("person_id", as_index=False)["n"].sum()
        return s.sort_values(["n", "person_id"], ascending=[False, True],
                             kind="mergesort").head(k)

    top = (
        keyed_exchange(
            _reference_edges(sf_dir).map_batches(partial_indeg, batch_format="pandas"),
            "person_id", bucket_topk, adaptive_buckets(n_docs),
        )
        .to_pandas()
        .sort_values(["n", "person_id"], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(top) + 1, dtype=np.int64)),
            "person_id": pa.array(top["person_id"].to_numpy()),
            "n_inbound": pa.array(top["n"].to_numpy()),
        }
    )


def person_projection_triangles(sf_dir: str, degree_route: str = "auto") -> "ray.data.Dataset":
    """One row: (n_edges, n_wedges, n_triangles, transitivity) over the
    person co-participation graph (persons linked when they share a
    projekt — the J9 projection a crawl scheduler clusters by; the raw
    projekt→person graph is bipartite and trivially triangle-free).

    Degree-ordered node-iterator (Schank–Wagner / Cohen's MapReduce
    form), every stage a keyed exchange — NO driver-resident degree
    map or edge set at any cardinality:

    1. per-projekt person pairs (C(4,2)=6 per projekt, canonical
       a<b, per-batch dedup) → pair-keyed exchange → global dedup =
       the undirected edge set E.
    2. degree rows from both endpoints (per-batch partial counts) →
       node-keyed exchange → (node, deg); n_wedges = Σ C(deg, 2)
       reduces distributed (per-bucket partial sums).
    3. two co-partition exchanges attach deg(a), deg(b) to each edge,
       then each edge orients low→high by (deg, id) — every node's
       out-degree is O(√m), the classic wedge-explosion bound, which
       is why the orientation uses DEGREES and not ids (a hub's id
       order could emit deg² wedges).
    4. out-adjacency groups by src; each group emits its
       wedge pairs ((v, w) canonical by the same (deg, id) order,
       vectorized triu) → wedges and oriented edges co-partition on
       the pair key → per bucket, wedges whose pair is an edge close a
       triangle; partial counts Sum to one row.

    Cites reference J9 (`database.py` reference views) for the
    projection semantics; the count itself is a standard public
    algorithm (Schank & Wagner 2005; Suri & Vassilvitskii WWW'11).
    """
    import pyarrow.parquet as pq

    from ray.data.aggregate import Sum

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    nb = adaptive_buckets(n_docs)

    # 1. candidate pairs, deduped per batch
    def pair_rows(batch) -> pd.DataFrame:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        ids = doc_ids[doc_ids % 3 == 0].astype(np.int64)
        # vectorized person_ref over the (doc, k) grid, then all 6
        # within-projekt pairs via row-sorted column picks — no loop
        ps = np.sort(person_ref(ids[:, None], np.arange(1, 5)[None, :], n_docs), axis=1)
        ii, jj = np.triu_indices(4, k=1)
        a = ps[:, ii].ravel()
        b = ps[:, jj].ravel()
        keep = a != b  # a projekt may reference the same person twice
        return pd.DataFrame({"a": a[keep], "b": b[keep]}).drop_duplicates()

    edges = keyed_exchange(
        docs.map_batches(pair_rows, batch_format="pyarrow"), ["a", "b"], lambda g: g.drop_duplicates(), nb
    ).materialize()
    n_edges = edges.count()

    # 2. degrees (node-keyed exchange over per-batch partials)
    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        nodes = pd.concat([df["a"], df["b"]], ignore_index=True)
        return nodes.value_counts().rename_axis("node").reset_index(name="n")

    degrees = keyed_exchange(
        edges.map_batches(deg_partial, batch_format="pandas"), "node",
        lambda g: g.groupby("node", as_index=False)["n"].sum(), nb,
    ).materialize()
    n_wedges = int(
        degrees.map_batches(
            lambda df: pd.DataFrame(
                {"w": [int((df["n"].to_numpy(dtype=np.int64) * (df["n"].to_numpy(dtype=np.int64) - 1) // 2).sum())]}
            ),
            batch_format="pandas",
        ).aggregate(Sum("w", alias_name="w"))["w"]
    )

    # 3. attach degrees, then orient
    # route selection (the minhash-verify broadcast/bucketed pattern):
    # the degree table is NODE-cardinality — broadcast it only while it
    # comfortably fits the object store as one map (≈16 B/node; the
    # 2M-node threshold is ~32 MB), otherwise attach each endpoint's
    # degree through a node-keyed co-partition exchange (unbounded
    # scale, two more exchanges).
    if degree_route not in ("auto", "broadcast", "bucketed"):
        raise ValueError(f"unknown degree_route {degree_route!r}")
    use_broadcast = degree_route == "broadcast" or (
        degree_route == "auto" and degrees.count() <= 2_000_000
    )
    if use_broadcast:
        deg_pd = degrees.to_pandas()
        deg_ref = ray.put(
            dict(zip(deg_pd["node"].tolist(), deg_pd["n"].tolist()))
        )

        def attach_both(df: pd.DataFrame) -> pd.DataFrame:
            dmap = ray.get(deg_ref)
            out = df.copy()
            out["deg_a"] = out["a"].map(dmap).astype("int64")
            out["deg_b"] = out["b"].map(dmap).astype("int64")
            return out

        e2 = edges.map_batches(attach_both, batch_format="pandas")
    else:
        def join_deg(col: str):
            def fn(parts: dict) -> pd.DataFrame:
                e = parts["e"]
                deg = e[col].map(parts["d"].set_index("node")["n"]).astype("int64")
                return e.assign(**{f"deg_{col}": deg})

            return fn

        deg_t = typed_frame(node="int64", n="int64")
        e1 = co_exchange(
            {"e": (edges, "a", typed_frame(a="int64", b="int64")), "d": (degrees, "node", deg_t)},
            join_deg("a"), nb,
        )
        e2 = co_exchange(
            {"e": (e1, "b", typed_frame(a="int64", b="int64", deg_a="int64")), "d": (degrees, "node", deg_t)},
            join_deg("b"), nb,
        )

    # orient low→high by (deg, id); canonical order key for pair keys
    def orient(df: pd.DataFrame) -> pd.DataFrame:
        a_first = (df["deg_a"].to_numpy() < df["deg_b"].to_numpy()) | (
            (df["deg_a"].to_numpy() == df["deg_b"].to_numpy())
            & (df["a"].to_numpy() < df["b"].to_numpy())
        )
        return pd.DataFrame(
            {"src": np.where(a_first, df["a"], df["b"]).astype("int64"),
             "dst": np.where(a_first, df["b"], df["a"]).astype("int64"),
             "ddeg": np.where(a_first, df["deg_b"], df["deg_a"]).astype("int64")}
        )

    oriented = e2.map_batches(orient, batch_format="pandas").materialize()

    # 4. wedges per src group (vectorized triu over (deg,id)-sorted
    # out-neighbors so (v, w) is already canonical), then close
    def wedge_rows(e: pd.DataFrame) -> pd.DataFrame:
        # vectorized across ALL src groups: self-merge on src, keep the
        # (deg, id)-ordered half — the intermediate is exactly the
        # wedge set, whose size the degree orientation already bounds
        # (out-degree O(√m)); no per-node Python loop
        m = e.merge(e, on="src")
        lt = (m["ddeg_x"] < m["ddeg_y"]) | (
            (m["ddeg_x"] == m["ddeg_y"]) & (m["dst_x"] < m["dst_y"])
        )
        m = m[lt]
        return pd.DataFrame(
            {"v": m["dst_x"].to_numpy(dtype=np.int64), "w": m["dst_y"].to_numpy(dtype=np.int64)}
        )

    def close_triangles(parts: dict) -> pd.DataFrame:
        # vectorized wedge∧edge intersection: inner-merge the bucket's
        # wedge rows with its (deduped) edge keys — no Python loop over
        # wedges, which dominate this stage's row count
        n = len(parts["w"].merge(parts["e"].drop_duplicates(), on=["v", "w"]))
        return pd.DataFrame({"n_tri": [int(n)]})

    pair_t = typed_frame(v="int64", w="int64")
    n_triangles = int(
        co_exchange(
            {"w": (keyed_exchange(oriented, "src", wedge_rows, nb), ["v", "w"], pair_t),
             "e": (oriented.map_batches(lambda df: pd.DataFrame({"v": df["src"], "w": df["dst"]}),
                                        batch_format="pandas"), ["v", "w"], pair_t)},
            close_triangles, nb,
        ).aggregate(Sum("n_tri", alias_name="n_tri"))["n_tri"]
    )

    import pyarrow as pa

    return ray.data.from_arrow(
        pa.table(
            {
                "n_edges": pa.array([n_edges], type=pa.int64()),
                "n_wedges": pa.array([n_wedges], type=pa.int64()),
                "n_triangles": pa.array([n_triangles], type=pa.int64()),
                "transitivity": pa.array(
                    [round(3.0 * n_triangles / n_wedges, 6) if n_wedges else 0.0],
                    type=pa.float64(),
                ),
            }
        )
    )


def bfs_depth_ds(
    edges: "ray.data.Dataset",
    seeds: "ray.data.Dataset",
    max_depth: int = 6,
) -> "ray.data.Dataset":
    """(node, depth) — breadth-first minimum hop distance from a seed
    set along directed ``(src, dst)`` edges, capped at ``max_depth``:
    the crawl-frontier expansion loop itself (reference parity: the J5
    frontier anti-join, `spiders/details.py` discovered-id fan-out),
    made a first-class operator. A tier-N crawl = "fetch everything
    within N hops of the seed list"; the depth label is the tier.

    Scale shape — the textbook distributed BFS, no driver-resident
    node set anywhere:

    - edges are cast and pinned ONCE (reused every round — the loop
      never re-reads the raw edges);
    - per round: frontier ⋈ edges by src (ONE exchange; per-bucket
      vectorized ``isin`` + in-bucket dst dedup), then the bucketed
      anti-join against the visited set (second exchange) keeps only
      first-time nodes;
    - both exchanges run as one execution per round (``settle``);
      visited grows by the block refs of each round's settled delta
      (``concat``: no execution, constant-depth plans);
    - the ONLY driver value per round is the new-node count (the stop
      test a real crawler logs anyway), read from block metadata."""
    edges = _int64_edges(edges)
    nb = adaptive_buckets(edges.count())

    visited, _ = settle(seeds.map_batches(
        lambda df: pd.DataFrame(
            {"node": df["node"].astype("int64")}
        ).drop_duplicates().assign(depth=np.int64(0)),
        batch_format="pandas",
    ))
    frontier = visited

    def expand(parts: dict) -> pd.DataFrame:
        fr = parts["f"]["node"].unique()
        e = parts["e"]
        hit = e.loc[e["src"].isin(fr), "dst"].unique() if len(fr) and len(e) else []
        return pd.DataFrame({"node": pd.Series(hit, dtype="int64")})

    for d in range(1, max_depth + 1):
        nbrs = co_exchange({"f": (frontier, "node", NODES), "e": (edges, "src", EDGES)}, expand, nb)

        # anti-join + GLOBAL dedup in one node-keyed exchange: every
        # copy of a node (one per src bucket that reached it) lands in
        # the same group as any visited record of it
        def new_nodes(parts: dict, _d=np.int64(d)) -> pd.DataFrame:
            out = np.setdiff1d(parts["n"]["node"].unique(), parts["v"]["node"].to_numpy())
            return pd.DataFrame(
                {"node": pd.Series(out, dtype="int64"),
                 "depth": np.full(len(out), _d, dtype="int64")}
            )

        new, _ = settle(co_exchange(
            {"n": (nbrs.map_batches(lambda df: df.drop_duplicates("node"), batch_format="pandas"),
                   "node", NODES),
             "v": (visited, "node", NODES)},
            new_nodes, nb,
        ))
        if new.count() == 0:
            break
        visited = concat(visited, new)
        frontier = new
    return visited


def reference_graph_bfs_depth(
    sf_dir: str, max_depth: int = 6, seed_stride: int = 30
) -> "ray.data.Dataset":
    """(node, depth) — crawl tiers over the symmetrized projekt↔person
    reference graph: minimum hops from the seed list (projekt nodes
    whose doc_id is a multiple of ``seed_stride`` — the deterministic
    stand-in for a curated seed file), capped at ``max_depth``. This
    is the tier-crawl contract: depth 0 = seeds, depth N = pages first
    discoverable N link-follows later; a production frontier fetches
    tiers in order (reference: `spiders/details.py` discovered-id
    fan-out + J5 anti-join, iterated)."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    seeds = docs.map_batches(_seed_rows(seed_stride), batch_format="pyarrow")
    return bfs_depth_ds(_reference_edges(sf_dir, symmetric=True), seeds, max_depth=max_depth)


def hits_ds(
    edges: "ray.data.Dataset", n_iters: int = 4
) -> "ray.data.Dataset":
    """HITS hubs & authorities (Kleinberg, JACM 1999) over an edge
    Dataset (``src``, ``dst`` int64), fixed ``n_iters`` iterations,
    L1-normalized each half-step.  Returns ``(node, hub, auth)`` for
    every node (0.0 where a node has no out- resp. in-edges).

    Crawl-side reading on the projekt→person reference graph: an
    *authority* is an entity many hub pages point at (fetch first, it
    anchors the neighborhood); a *hub* is a page whose out-links reach
    the good authorities (its extraction unlocks the most frontier
    value) — the complementary signal to PageRank for frontier
    ordering.

    Distributed shape — the exchange discipline of :func:`pagerank_ds`,
    two join + two reduce exchanges per iteration (auth half-step joins
    hubs to edges by ``src`` and reduces by ``dst``; hub half-step joins
    auths to edges by ``dst`` and reduces by ``src``); each
    normalization constant is one driver scalar, the total the
    half-step's ``settle`` reads from the blocks it made (no second
    execution)."""
    edges = _int64_edges(edges)
    nb = adaptive_buckets(edges.count())

    # distinct node set (one exchange, computed once)
    nodes = keyed_exchange(
        edges.map_batches(_node_rows, batch_format="pandas"), "node",
        lambda g: g.drop_duplicates("node"), nb,
    ).materialize()
    if nodes.count() == 0:
        return ray.data.from_pandas(typed_frame(node="int64", hub="float64", auth="float64"))

    hubs = nodes.map_batches(lambda df: df.assign(hub=1.0), batch_format="pandas")
    auths = None

    def _half_step(scores, score_col, edge_key, emit_key, keep_all_nodes):
        """One HITS half-step: out[emit_key node] = Σ scores over edges
        joined on ``edge_key``; raw (unnormalized) sums ``(node, s)``."""

        def contribs(parts: dict) -> pd.DataFrame:
            m = parts["e"].merge(parts["s"].rename(columns={"node": edge_key}), on=edge_key)
            out = pd.DataFrame({"node": m[emit_key], "contrib": m[score_col]})
            # pre-sum per target inside the group: the reduce exchange
            # carries ≤ one row per (bucket, distinct target), not one
            # per edge
            return out.groupby("node", as_index=False)["contrib"].sum()

        contrib = co_exchange(
            {"s": (scores, "node", typed_frame(node="int64", **{score_col: "float64"})),
             "e": (edges, edge_key, EDGES)},
            contribs, nb,
        )

        def reduce_sum(parts: dict) -> pd.DataFrame:
            cs = parts["c"].groupby("node", as_index=False)["contrib"].sum()
            if keep_all_nodes:
                cs = parts["n"].merge(cs, on="node", how="left")
                cs["contrib"] = cs["contrib"].fillna(0.0)
            return pd.DataFrame({"node": cs["node"].astype("int64"), "s": cs["contrib"]})

        sides = {"c": (contrib, "node", CONTRIB)}
        if keep_all_nodes:
            sides["n"] = (nodes, "node", NODES)
        return settle(co_exchange(sides, reduce_sum, nb), "s")

    def _normalize(settled, out_col):
        # the L1 total comes with the settled raw sums; the scaling map
        # stays LAZY (it fuses into the next half-step's tag stage)
        raw, totals = settled
        t = float(totals["s"]) or 1.0
        return raw.map_batches(
            lambda df, _t=t: pd.DataFrame({"node": df["node"], out_col: df["s"] / _t}),
            batch_format="pandas",
        )

    for _ in range(n_iters):
        # auth(v) = Σ_{u→v} hub(u), over in-edge nodes only (zero-auth
        # nodes re-enter at the final assembly)
        auths = _normalize(_half_step(hubs, "hub", "src", "dst", keep_all_nodes=False), "auth")
        # hub(u) = Σ_{u→v} auth(v), over ALL nodes (a zero-hub row must
        # survive to the next iteration's join)
        hubs = _normalize(_half_step(auths, "auth", "dst", "src", keep_all_nodes=True), "hub")

    # final assembly: one node-keyed exchange joins hubs (all nodes)
    # with auths (in-edge nodes), filling auth=0 elsewhere
    def assemble(parts: dict) -> pd.DataFrame:
        m = parts["h"].merge(parts["a"], on="node", how="left")
        m["auth"] = m["auth"].fillna(0.0)
        return m

    return co_exchange(
        {"h": (hubs, "node", typed_frame(node="int64", hub="float64")),
         "a": (auths, "node", typed_frame(node="int64", auth="float64"))},
        assemble, nb,
    )


def reference_graph_hits(sf_dir: str, n_iters: int = 4) -> "ray.data.Dataset":
    """HITS over the projekt→person reference graph (same edge set as
    :func:`reference_graph_pagerank`): authorities = persons many
    projekt pages cite, hubs = projekt pages citing the strong
    authorities — the complementary frontier-priority signal."""
    return hits_ds(_reference_edges(sf_dir), n_iters=n_iters)


def host_link_rank(
    pages_dir: str, n_iters: int = 4, damping: float = 0.85
) -> "ray.data.Dataset":
    """(host, rank) — WEIGHTED PageRank over the host-level link
    matrix (:func:`~dfg_gepris_crawler_ray.ops.boilerplate.
    host_link_graph`): an edge "host A links to host B n times"
    contributes rank(A)·n/outw(A).  Host-level PageRank is what a
    crawl scheduler actually orders hosts by (page-level rank is too
    slow-moving and too big to join against the frontier every cycle);
    hosts that only ever appear as link targets (doi/orcid-style
    endpoint hosts) are the dangling set.

    Distributed shape: the host matrix's one extraction scan + one
    keyed exchange, then :func:`pagerank_ds` with ``weight_col`` over
    int64-coded hosts (stable 64-bit content hash — deterministic,
    collision odds ~n²/2⁻⁶⁴ are negligible below ~10⁹ hosts and the
    coding is internal only), and ONE final node-keyed exchange that
    joins ranks back to host strings — no driver-side host table."""
    from ..kernels.hashing import stable_hash64_array
    from .boilerplate import host_link_graph

    links = host_link_graph(pages_dir).materialize()

    def code(df: pd.DataFrame) -> pd.DataFrame:
        s = stable_hash64_array(df["src_host"].tolist()).view(np.int64)
        d = stable_hash64_array(df["dst_host"].tolist()).view(np.int64)
        return pd.DataFrame(
            {"src": pd.Series(s, dtype="int64"),
             "dst": pd.Series(d, dtype="int64"),
             "w": df["n_links"].astype("float64")}
        )

    ranks = pagerank_ds(
        links.map_batches(code, batch_format="pandas"),
        n_iters=n_iters, damping=damping, weight_col="w",
    )

    def host_rows(df: pd.DataFrame) -> pd.DataFrame:
        c = code(df)
        return pd.DataFrame(
            {"node": np.concatenate([c["src"], c["dst"]]),
             "host": pd.concat([df["src_host"], df["dst_host"]], ignore_index=True)}
        ).drop_duplicates(["node"])

    def attach(parts: dict) -> pd.DataFrame:
        m = parts["r"].merge(parts["h"].drop_duplicates(["node"]), on="node")
        return pd.DataFrame({"host": m["host"], "rank": m["rank"]})

    return co_exchange(
        {"r": (ranks, "node", typed_frame(node="int64", rank="float64")),
         "h": (links.map_batches(host_rows, batch_format="pandas"),
               "node", typed_frame(node="int64", host="object"))},
        attach, adaptive_buckets(links.count() * 2),
    )


def redirect_resolve_ds(
    edges: "ray.data.Dataset",
    max_rounds: int = 40,
) -> "ray.data.Dataset":
    """(node, final, hops) — resolve every redirecting node of a
    functional alias graph (``src`` → ``dst``, at most ONE out-edge
    per src: HTTP 301 chains, canonical-URL aliases, moved→ entity
    propagation generalised to arbitrary depth — the reference applies
    ONE hop of this, `database_helper.py` moved→projekt /
    moved-sub→root updates (SURVEY.md J7/J8); a real crawl meets
    multi-hop chains and must chase them to the terminal target).

    ``final`` is the chain's terminal (a node with no out-edge; it
    need not be a known src — an off-corpus destination is a valid
    terminal), ``hops`` the exact number of original edges traversed.
    An empty edge set resolves to an empty (typed) result.

    Scale shape — pointer jumping (path doubling), the
    Shiloach–Vishkin discipline already used by
    ``dedup._cluster_labels_distributed``:

    - state = one row per src: (node, succ, hops, done);
    - per round, ONE co-partition exchange: every row is a lookup
      target, routed by ``node``, and every pending row is also routed
      by ``succ`` into the bucket where succ's OWN state row lives and
      composes succ := state[succ].succ, hops += state[succ].hops — so
      pending chain distances DOUBLE each round and any acyclic input
      resolves in ⌈log2 L⌉ rounds, not L (done rows pass through);
    - a pending row whose succ has no state row anywhere is done
      (terminal); one that composes onto a DONE row inherits its final
      in one step — so resolved rows stay in the exchange as
      map-side lookup targets (they stop issuing queries, which is
      what shrinks); total exchange volume is O(N·log L);
    - the only driver value per round is the pending count (the stop
      test); a cycle never resolves, so pending>0 after ``max_rounds``
      (2^40 ≈ 10^12 chain length) raises instead of silently spinning;
    - duplicate out-edges for one src co-locate in the map bucket and
      raise (corrupt functional graph) rather than resolving
      arbitrarily.
    """
    rows_t = typed_frame(node="int64", succ="int64", hops="int64", done="bool")
    state, _ = settle(edges.map_batches(
        lambda df: pd.DataFrame(
            {"node": df["src"].astype("int64"), "succ": df["dst"].astype("int64"),
             "hops": np.int64(1), "done": False}
        ),
        batch_format="pandas",
    ))
    n_rows = state.count()
    if n_rows == 0:
        return ray.data.from_pandas(typed_frame(node="int64", final="int64", hops="int64"))
    nb = adaptive_buckets(n_rows)

    def compose(parts: dict) -> pd.DataFrame:
        m, q = parts["m"], parts["q"]
        if m["node"].duplicated().any():
            bad = m.loc[m["node"].duplicated(), "node"].iloc[0]
            raise ValueError(
                f"redirect_resolve_ds: src {int(bad)} has multiple "
                "out-edges — input is not a functional graph"
            )
        # nullable Int64 lookups: a missed succ becomes <NA>, not a
        # float64 NaN that would round ids above 2^53
        j = q.merge(
            m.rename(columns={
                "node": "succ", "succ": "m_succ",
                "hops": "m_hops", "done": "m_done",
            }).astype({"m_succ": "Int64", "m_hops": "Int64"}),
            on="succ", how="left",
        )
        hit = j["m_succ"].notna()
        done = np.where(hit, j["m_done"].eq(True), True).astype("bool")
        stepped = pd.DataFrame({
            "node": j["node"].astype("int64"),
            "succ": j["m_succ"].fillna(j["succ"]).astype("int64"),
            "hops": (j["hops"] + j["m_hops"].fillna(0)).astype("int64"),
            # no state row for succ → succ is terminal → done;
            # composed onto a done row → our new succ is ITS final
            "done": done,
        })
        out = pd.concat([m[m["done"]], stepped], ignore_index=True)
        return out.assign(_changed=(~out["done"]).astype("int64"))

    def jump(state):
        pending = state.map_batches(lambda df: df[~df["done"]], batch_format="pandas")
        return co_exchange({"m": (state, "node", rows_t), "q": (pending, "succ", rows_t)}, compose, nb)

    resolved = supersteps(
        state, jump, max_rounds,
        "redirect_resolve_ds: {changed} chains unresolved "
        "after {rounds} pointer-jump rounds — redirect cycle",
    )
    return resolved.map_batches(
        lambda df: pd.DataFrame({"node": df["node"], "final": df["succ"], "hops": df["hops"]}),
        batch_format="pandas",
    )


def reference_redirect_chains(sf_dir: str) -> "ray.data.Dataset":
    """(node, final, hops) — redirect-chain resolution over the
    deterministic alias graph derived from ``documents``: every doc_id
    not on a 16-boundary redirects to doc_id−1 (chains up to 15 long,
    terminals at multiples of 16 — including doc −1 off the low end,
    a valid off-corpus terminal). Exercises multi-hop composition,
    done-row inheritance and the off-corpus-terminal rule; resolves in
    4 pointer-jump rounds where naive chasing needs 15."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def edge_rows(batch) -> pd.DataFrame:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        ids = ids[ids % 16 != 0].astype(np.int64)
        return pd.DataFrame({"src": ids, "dst": ids - 1})

    return redirect_resolve_ds(docs.map_batches(edge_rows, batch_format="pyarrow"))


def kcore_ds(
    edges: "ray.data.Dataset",
    k: int = 5,
    max_rounds: int = 100,
) -> "ray.data.Dataset":
    """(node, core_degree) — the k-CORE of an undirected graph: the
    maximal subgraph where every node keeps ≥ k neighbors, computed by
    iterative peeling (remove all nodes of degree < k, recount,
    repeat to fixpoint). The classic link-farm / spider-web hygiene
    signal: organic web neighborhoods peel away quickly while densely
    self-linking farms survive high k — the complement of
    ``crawl_trap_templates``'s URL-shape census, at graph level
    (Seidman 1983 cores; Batagelj–Zaveršnik peel).

    Input: symmetric DISTINCT edge list (both directions present,
    no self-loops); ``core_degree`` is the node's degree inside the
    surviving subgraph.

    Scale shape — per round exactly TWO keyed exchanges, no
    driver-resident node or edge set:

    - exchange 1 routes edges by src: per bucket a vectorized
      value_counts gives every src's degree; edges whose src survives
      pass through, peeled srcs emit one marker row each (degree
      testing and src-side dropping fused into one exchange);
    - exchange 2 routes survivors by DST together with the markers
      (by their node): edges pointing at a peeled node are dropped
      (symmetric list ⇒ both directions of every incident edge die
      this round), in one execution with the next round's exchange 1;
    - the only driver value per round is the peeled count (stop test);
      the edge set shrinks monotonically, so later rounds cost less;
    - rounds to fixpoint is bounded by the peel depth (the graph's
      degeneracy ordering length), never the node count: each round
      removes EVERY currently-under-k node at once.
    """
    cur = edges.map_batches(
        lambda df: pd.DataFrame(
            {"u": df["u"].astype("int64"), "v": df["v"].astype("int64")}
        ),
        batch_format="pandas",
    ).materialize()
    nb = adaptive_buckets(cur.count())
    kk = int(k)

    def peel_src(g: pd.DataFrame) -> pd.DataFrame:
        deg = g["u"].value_counts()
        dead = deg.index[deg.to_numpy() < kk]
        alive = g[~g["u"].isin(dead)]
        out = pd.DataFrame(
            {"u": alive["u"], "v": alive["v"],
             "_changed": np.zeros(len(alive), dtype=bool)}
        )
        if len(dead):
            out = pd.concat(
                [out, pd.DataFrame({"u": pd.Series(dead, dtype="int64"),
                                    "v": np.int64(-1),
                                    "_changed": True})],
                ignore_index=True,
            )
        return out

    def drop_dst(g: pd.DataFrame) -> pd.DataFrame:
        dead = g.loc[g["_changed"], "u"].to_numpy()
        e = g[~g["_changed"]]
        return e.loc[~e["v"].isin(dead), ["u", "v"]]

    def peel(stepped):
        # after the first round, drop the last round's peeled edges
        # first: a marker routes by its peeled node, a survivor by dst
        if stepped is not cur:
            stepped = keyed_exchange(
                stepped.map_batches(
                    lambda df: df.assign(key=np.where(df["_changed"], df["u"], df["v"])),
                    batch_format="pandas",
                ),
                "key", drop_dst, nb,
            )
        return keyed_exchange(stepped, "u", peel_src, nb)

    stepped = supersteps(cur, peel, max_rounds, f"kcore_ds: no fixpoint after {max_rounds} peel rounds")
    def degree(g: pd.DataFrame) -> pd.DataFrame:
        d = g.groupby("u", sort=False).size().rename("core_degree").reset_index()
        return pd.DataFrame(
            {"node": d["u"].astype("int64"),
             "core_degree": d["core_degree"].astype("int64")}
        )

    # at the fixpoint no row is a peel marker: every row is a core edge
    return keyed_exchange(stepped, "u", degree, nb)


def reference_kcore(sf_dir: str, k: int = 5) -> "ray.data.Dataset":
    """(node, core_degree) — the 5-core of the deterministic
    skewed-degree link graph over ``documents``: node d links to
    (d·7 + j²) mod n for j = 1..(1 + d mod 6) (out-degree 1–6, then
    symmetrized, self-loops and parallel edges removed) — degree
    spread 2–12, which peels in a genuine multi-round cascade
    (measured at sf0.01: 10 rounds to fixpoint, 387 of 500 nodes
    survive) instead of the all-or-nothing a regular graph gives."""
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def edge_rows(batch) -> pd.DataFrame:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        us, vs = [], []
        for j in range(1, 7):
            sel = ids[ids % 6 >= j - 1]
            us.append(sel)
            vs.append((sel * 7 + j * j) % n_docs)
        u = np.concatenate(us)
        v = np.concatenate(vs)
        both_u = np.concatenate([u, v])
        both_v = np.concatenate([v, u])
        keep = both_u != both_v
        return pd.DataFrame({"u": both_u[keep], "v": both_v[keep]}).drop_duplicates()

    # in-batch drop_duplicates dedups only within one batch; a global
    # distinct exchange makes the contract hold at any block layout
    dedup = keyed_exchange(
        docs.map_batches(edge_rows, batch_format="pyarrow"), ["u", "v"], lambda g: g.drop_duplicates(), 16
    )
    return kcore_ds(dedup, k=k)


def focused_frontier_rank(sf_dir: str, n_iters: int = 4) -> "ray.data.Dataset":
    """(node, rank) — PERSONALIZED PageRank over the projekt→person
    reference graph, restarting at the curated seed list (projekt
    nodes whose doc_id is a multiple of 30 — the same deterministic
    seed rule as ``reference_graph_bfs_depth``): the focused-crawl
    frontier signal, ranking pages by random-walk proximity to the
    seeds rather than global importance (Haveliwala 2002). BFS tiers
    give the hop metric; this gives the smooth, link-density-aware
    one."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return pagerank_ds(
        _reference_edges(sf_dir),
        n_iters=n_iters,
        seeds=docs.map_batches(_seed_rows(30), batch_format="pyarrow"),
    )


def hyperball_ds(
    edges: "ray.data.Dataset",
    rounds: int = 4,
    p: int = 8,
    harmonic: bool = False,
    nf_out: "list[int] | None" = None,
) -> "ray.data.Dataset":
    """(node, ball_est) — HyperBall (Boldi–Vigna 2013): per-node
    approximate |ball(node, r)| (nodes reachable within ``rounds``
    hops, the node included) via HyperLogLog counters flowing along
    edges. With ``harmonic=True`` the per-round ball deltas are also
    folded into harmonic centrality H(n) = Σ_r (N_r − N_{r−1})/r —
    the Boldi–Vigna centrality readout, one extra node-keyed exchange
    per round — and the output is (node, ball_est, harmonic).
    THE web-graph measurement algorithm — neighborhood
    function, effective diameter, harmonic centrality all fall out of
    these per-node ball sizes; exact BFS per node is O(V·E) and
    hopeless at web scale, HyperBall is O(rounds) keyed exchanges of
    (node, 2^p bytes).

    Determinism: counters are register-wise MAX-merged, so the final
    registers — and the integer estimates — are independent of batch
    layout, merge order, exchange width and round scheduling; the same
    order-independence that graduated the HLL distinct ops to
    value-hash oracles applies here.

    Scale shape — per round exactly TWO keyed exchanges, the PageRank
    discipline with registers instead of floats:

    - exchange 1 (by src): each node's current registers meet its
      out-edges; ONLY srcs whose registers changed in the last round
      contribute (delta shipping — register-wise max makes the skip
      exact: an unchanged src's registers were already absorbed by
      every dst in the previous round), and a per-bucket pre-merge
      collapses the shipped rows to one per (bucket, distinct dst) —
      O(min(E_changed, nb·V)) exchange volume, decaying as balls
      saturate; the same combiner the PageRank contributions use;
    - exchange 2 (by node): vectorized ``maximum.reduceat``
      max-merges each node's incoming registers with its own;
    - no driver value at all until the final estimates scan
      (a production run would also read the per-round global
      register sum to detect convergence — one scalar).

    ``nf_out``: an optional list the call APPENDS the neighborhood
    function to — N(r) = Σ_node ball_est(node, r) for r = 0..rounds,
    one driver SCALAR per round (the round's total of the per-node
    estimates ``_est``; never per-node rows on the driver). This is HyperANF's N(r) readout (Boldi,
    Rosa & Vigna, WWW 2011) — effective diameter, average distance
    and connectivity mass all derive from it.
    """
    from ..kernels.hashing import splitmix64
    from .textstats import _hll_estimate_rows, _hll_register_rows

    m = 1 << p
    edges = _int64_edges(edges)
    nb = adaptive_buckets(edges.count())
    state_t = typed_frame(node="int64", regs="object", chg="uint8")

    def _bytes_rows(regmat: np.ndarray) -> list:
        """Per-row bytes views of one contiguous buffer (no per-row
        tobytes allocations through numpy)."""
        blob = regmat.tobytes()
        return [blob[i * m:(i + 1) * m] for i in range(regmat.shape[0])]

    def _regmat_of(df: pd.DataFrame) -> np.ndarray:
        return np.frombuffer(b"".join(df["regs"].tolist()), dtype=np.uint8).reshape(len(df), m)

    # init: ship NODE KEYS only (8 bytes/row), build registers ONCE
    # per deduped node inside the group task, fully vectorized — a
    # per-singleton register loop ran once per (batch, node)
    # occurrence and dominated the whole op (~140 s of a 170 s run at
    # 2M edges)
    tally = () if nf_out is None else ("_est",)

    def with_est(out: pd.DataFrame, regmat: np.ndarray) -> pd.DataFrame:
        # the per-node estimate whose total is N(r), only when asked for
        return out.assign(_est=_hll_estimate_rows(regmat).astype("int64")) if tally else out

    def init_group(g: pd.DataFrame) -> pd.DataFrame:
        nodes = np.unique(g["node"].to_numpy())
        regmat = _hll_register_rows(splitmix64(nodes.astype(np.uint64)), p)
        return with_est(pd.DataFrame(
            {"node": pd.Series(nodes, dtype="int64"),
             "regs": _bytes_rows(regmat),
             "chg": np.uint8(1)}
        ), regmat)

    state, totals = settle(
        keyed_exchange(edges.map_batches(_node_rows, batch_format="pandas"), "node", init_group, nb),
        *tally,
    )

    def _merge_by_key(keys: np.ndarray, regmat: np.ndarray):
        """(sorted unique keys, per-key max-merged register matrix)."""
        order = np.argsort(keys, kind="mergesort")
        ks, rm = keys[order], regmat[order]
        uniq, starts = np.unique(ks, return_index=True)
        out = np.maximum.reduceat(rm, starts, axis=0)
        return uniq, out

    def ship(parts: dict) -> pd.DataFrame:
        s, e = parts["s"], parts["e"]
        # self rows carry each node's own registers forward
        outs = [pd.DataFrame({"node": s["node"], "regs": s["regs"], "self": np.uint8(1)})]
        # DELTA SHIPPING: only srcs whose registers CHANGED in the
        # last absorb contribute — an unchanged src's registers were
        # already max-merged into every dst in the previous round, so
        # re-shipping them is a no-op (register-wise max makes this
        # exact, not approximate). The contribution volume decays as
        # balls saturate.
        sc = s[s["chg"].to_numpy() != 0]
        if len(e) and len(sc):
            j = e.merge(sc[["node", "regs"]].rename(columns={"node": "src"}), on="src")
            if len(j):
                # pre-merge per distinct dst inside the bucket (the
                # PageRank combiner): ONE row per (bucket, dst)
                uniq, merged = _merge_by_key(j["dst"].to_numpy(), _regmat_of(j))
                outs.append(pd.DataFrame(
                    {"node": pd.Series(uniq, dtype="int64"),
                     "regs": _bytes_rows(merged), "self": np.uint8(0)}
                ))
        return pd.concat(outs, ignore_index=True) if len(outs) > 1 else outs[0]

    def absorb(g: pd.DataFrame) -> pd.DataFrame:
        regmat = _regmat_of(g)
        keys = g["node"].to_numpy()
        uniq, merged = _merge_by_key(keys, regmat)
        # chg: did the node's registers grow vs its own (exactly one)
        # self row? Aligned by sorting self rows by node — uniq is the
        # sorted distinct key set, and every node has one self row.
        is_self = g["self"].to_numpy() != 0
        so = np.argsort(keys[is_self], kind="mergesort")
        selfmat = regmat[is_self][so]
        chg = (merged != selfmat).any(axis=1)
        return with_est(pd.DataFrame(
            {"node": pd.Series(uniq, dtype="int64"),
             "regs": _bytes_rows(merged),
             "chg": chg.astype(np.uint8)}
        ), merged)

    def estimates(col: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            est = pd.Series(_hll_estimate_rows(_regmat_of(df)), dtype="int64")
            return pd.DataFrame({"node": df["node"], col: est})

        return fn

    if tally:
        nf_out.append(int(totals["_est"]))  # N(0): the {self} estimates

    # harmonic accumulator (node, prev, hc): H(n) = Σ_r (N_r − N_{r−1})
    # / r over the per-round ball estimates (Boldi–Vigna's centrality
    # readout); N_0 = the single-element estimate of {self}
    acc = None
    acc_t = typed_frame(node="int64", prev="int64", hc="float64")
    if harmonic:
        acc = state.map_batches(
            lambda df: estimates("prev")(df).assign(hc=0.0), batch_format="pandas"
        )

    for r in range(1, rounds + 1):
        state, totals = settle(
            keyed_exchange(
                co_exchange({"s": (state, "node", state_t), "e": (edges, "src", EDGES)}, ship, nb),
                "node", absorb, nb,
            ),
            *tally,
        )
        if tally:
            nf_out.append(int(totals["_est"]))
        if harmonic:
            def upd(parts: dict, _r=r) -> pd.DataFrame:
                m_ = parts["a"].merge(parts["e"], on="node", how="inner")
                return pd.DataFrame(
                    {"node": m_["node"],
                     "prev": m_["est"],
                     "hc": m_["hc"] + (m_["est"] - m_["prev"]) / float(_r)}
                )

            acc, _ = settle(
                co_exchange(
                    {"a": (acc, "node", acc_t),
                     "e": (state.map_batches(estimates("est"), batch_format="pandas"), "node",
                           typed_frame(node="int64", est="int64"))},
                    upd, nb,
                )
            )

    if harmonic:
        return acc.map_batches(
            lambda df: pd.DataFrame({"node": df["node"], "ball_est": df["prev"], "harmonic": df["hc"]}),
            batch_format="pandas",
        )
    return state.map_batches(estimates("ball_est"), batch_format="pandas")


def reference_hyperball(sf_dir: str, rounds: int = 4) -> "ray.data.Dataset":
    """(node, ball_est) — HyperBall ball-size estimates at radius 4
    over the symmetrized projekt↔person reference graph (the BFS-tier
    edge set): the sketch-based counterpart of ``crawl_bfs_tiers``,
    measuring HOW MUCH of the graph each page can reach in 4 hops
    rather than which tier it sits in."""
    return hyperball_ds(_reference_edges(sf_dir, symmetric=True), rounds=rounds)


def reference_harmonic(sf_dir: str, rounds: int = 4) -> "ray.data.Dataset":
    """(node, ball_est, harmonic) — HyperBall harmonic centrality over
    the symmetrized reference graph: the crawl-prioritization
    centrality that works on disconnected graphs (unreachable pairs
    contribute 0, not ∞ — why web-graph work prefers it to
    closeness), truncated at radius ``rounds`` exactly as HyperBall
    computes it."""
    return hyperball_ds(_reference_edges(sf_dir, symmetric=True), rounds=rounds, harmonic=True)


def _scc_brute(edge_list: "list[tuple[int, int]]") -> dict[int, int]:
    """Single-process Tarjan (iterative) — the ground-truth kernel the
    pytests pin ``scc_ds`` against and the staged-oracle census uses.
    Returns {node: scc_id} with scc_id = the SCC's minimum member id
    (the same deterministic representative the distributed op emits).
    Shares nothing with the distributed path but the edge list."""
    from collections import defaultdict

    adj: dict[int, list[int]] = defaultdict(list)
    nodes: set[int] = set()
    for s, d in edge_list:
        adj[s].append(d)
        nodes.update((s, d))
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    onstk: set[int] = set()
    stk: list[int] = []
    out: dict[int, int] = {}
    ctr = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = ctr
                ctr += 1
                stk.append(v)
                onstk.add(v)
            descended = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if w not in index:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    descended = True
                    break
                if w in onstk:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stk.pop()
                    onstk.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                m = min(comp)
                for w in comp:
                    out[w] = m
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return out


def scc_ds(
    edges: "ray.data.Dataset",
    max_outer: int = 16,
    max_label_rounds: int = 50,
) -> "ray.data.Dataset":
    """(node, scc_id) — STRONGLY connected components of a directed
    edge Dataset (``src``, ``dst`` int64), scc_id = the SCC's minimum
    member id. The web graph's defining macro-structure (Broder et
    al. 2000's bow-tie is built from exactly this decomposition); a
    crawler uses it to find link farms (dense cores), collapse cycle
    traps, and order recrawls by core membership. Connected components
    (``reference_graph_components``) ignore direction; SCC is the
    directed refinement and needs genuinely different machinery.

    Algorithm — forward-backward LABEL REFINEMENT (the distributed
    FW-BW / coloring family: Fleischer–Hendrickson–Pinar 2000, Orzan
    2004, Hong–Rodia–Olukotun 2013), with every class processed
    simultaneously (no serial pivot):

    - every node carries a class (init: one class);
    - per OUTER round, within each class compute f(v) = min in-class
      node that reaches v and b(v) = min in-class node v reaches, by
      min-label propagation along in-class edges with POINTER
      DOUBLING (f(v) ← min(f(v), f(f(v))) — valid because
      reachability is transitive), then split every class by its
      (f, b) pair;
    - a class never splits an SCC (within-SCC paths never leave the
      SCC, so in-class ancestor/descendant minima agree across its
      members), and at the fixpoint all members share f = b = m ⇒
      m reaches everyone and everyone reaches m ⇒ each class IS one
      SCC with minimum member m = scc_id. Size-1 classes freeze out
      early (a singleton class can never re-merge).

    Scale shape — everything is co-partition exchanges with vectorized
    per-bucket kernels; no driver-resident node/edge set:

    - outer round setup: TWO exchanges attach src/dst classes and keep
      the in-class edges (the active edge set only shrinks);
    - inner label round: ONE exchange carries min-label proposals and
      both pointer-doubling lookups together (state rows by node, the
      in-class label-flow rows and the jump rows by the node they ask);
      each bucket's state rows ride along with its proposals into ONE
      min-reduce exchange — 2 exchanges/round;
    - only per-round scalar change counts reach the driver (label
      changes inside, open nodes per outer round).

    Round count honesty: the doubling jump composes horizons along the
    CURRENT min-pointer, so it accelerates only where ids shrink along
    the travel direction (measured: a 16-cycle with increasing ids
    propagates b one hop per round — f(v)=v is a self-pointer and the
    jump is a no-op). Worst case is therefore O(graph diameter) label
    rounds, like the Orzan coloring it derives from; real web graphs
    have effective diameter ~16–25, and each round is 2 bounded keyed
    exchanges, so the 100-TB posture is rounds × exchange cost, not
    driver state.

    Raises RuntimeError if either loop exhausts its budget with labels
    still moving (the dedup._cluster_labels_distributed convention)."""
    edges = _int64_edges(edges, dedup=True)
    nb = adaptive_buckets(edges.count())

    # every node starts open (``_rest``) in the one class (0, 0)
    start, _ = settle(keyed_exchange(
        edges.map_batches(_node_rows, batch_format="pandas"), "node",
        lambda g: g.drop_duplicates("node").assign(f=np.int64(0), b=np.int64(0), _rest=np.int64(1)), nb,
    ))
    if start.count() == 0:
        return ray.data.from_pandas(typed_frame(node="int64", scc_id="int64"))

    done: list["ray.data.Dataset"] = []
    cls_t = typed_frame(node="int64", cf="int64", cb="int64")
    fb_t = typed_frame(node="int64", f="int64", b="int64")
    flow_t = typed_frame(key="int64", out="int64", dir="int8")

    def _flow_rows(key0, out0, key1, out1) -> pd.DataFrame:
        """Label-flow rows ``(key, out, dir)``: dir 0 carries f from
        ``key0`` to ``out0``, dir 1 carries b from ``key1`` to ``out1``."""
        return pd.DataFrame(
            {"key": np.concatenate([key0, key1]).astype(np.int64),
             "out": np.concatenate([out0, out1]).astype(np.int64),
             "dir": np.repeat(np.array([0, 1], dtype=np.int8), [len(key0), len(key1)])}
        )

    def attach_src(parts: dict) -> pd.DataFrame:
        # src class rides along; the next exchange re-keys by dst
        m = parts["e"].merge(parts["s"].rename(columns={"node": "src"}), on="src")
        return pd.DataFrame({"src": m["src"], "dst": m["dst"], "f": m["cf"], "b": m["cb"]})

    def attach_dst(parts: dict) -> pd.DataFrame:
        m = parts["e"].merge(parts["s"].rename(columns={"node": "dst"}), on="dst")
        m = m[(m["f"] == m["cf"]) & (m["b"] == m["cb"])]
        # both flow directions of each surviving in-class edge: f labels
        # flow src → dst, b labels dst → src
        return _flow_rows(m["src"], m["dst"], m["dst"], m["src"])

    def jump_rows(df: pd.DataFrame) -> pd.DataFrame:
        # pointer doubling: ask f(v) for its f, and b(v) for its b
        return _flow_rows(df["f"], df["node"], df["b"], df["node"])

    def propose(parts: dict) -> pd.DataFrame:
        s = parts["s"]
        ask = pd.concat([parts["flow"], parts["j"]], ignore_index=True)
        pf = ask[ask["dir"] == 0].merge(s[["node", "f"]].rename(columns={"node": "key"}), on="key")
        pb = ask[ask["dir"] == 1].merge(s[["node", "b"]].rename(columns={"node": "key"}), on="key")
        # per-bucket pre-reduce: one proposal per (out, kind); the
        # bucket's own state rows ride along (own=1) into the reduce
        pf = pf.groupby("out", as_index=False)["f"].min()
        pb = pb.groupby("out", as_index=False)["b"].min()
        return pd.concat(
            [s.assign(own=np.int8(1)),
             pf.rename(columns={"out": "node"}).assign(b=np.int64(2**62), own=np.int8(0)),
             pb.rename(columns={"out": "node"}).assign(f=np.int64(2**62), own=np.int8(0))],
            ignore_index=True,
        )[["node", "f", "b", "own"]]

    def reduce_min(g: pd.DataFrame) -> pd.DataFrame:
        new = g.groupby("node", as_index=False)[["f", "b"]].min()
        m = new.merge(g.loc[g["own"] == 1, ["node", "f", "b"]], on="node", suffixes=("", "_old"))
        return pd.DataFrame(
            {"node": m["node"], "f": m["f"], "b": m["b"],
             "_changed": ((m["f"] < m["f_old"]) | (m["b"] < m["b_old"])).astype("int64"),
             "_rest": (m["f"] != m["b"]).astype("int64")}
        )

    def open_classes(df: pd.DataFrame) -> pd.DataFrame:
        rest = df[df["_rest"] != 0]
        return pd.DataFrame({"node": rest["node"], "cf": rest["f"], "cb": rest["b"]})

    def refine(state):
        # the open nodes (lazy over the settled state), classed by (f, b)
        labels = state.map_batches(open_classes, batch_format="pandas")

        # ---- outer setup: in-class edges → flow rows ------------------
        flow, _ = settle(
            co_exchange(
                {"s": (labels, "node", cls_t),
                 "e": (co_exchange({"s": (labels, "node", cls_t), "e": (edges, "src", EDGES)},
                                   attach_src, nb),
                       "dst", typed_frame(src="int64", dst="int64", f="int64", b="int64"))},
                attach_dst, nb,
            )
        )

        # ---- inner: f/b min-label propagation with doubling ---------
        def propagate(fb):
            proposals = co_exchange(
                {"s": (fb, "node", fb_t),
                 "flow": (flow, "key", flow_t),
                 "j": (fb.map_batches(jump_rows, batch_format="pandas"), "key", flow_t)},
                propose, nb,
            )
            return keyed_exchange(proposals, "node", reduce_min, nb)

        fb = supersteps(
            labels.map_batches(
                lambda df: pd.DataFrame({"node": df["node"], "f": df["node"], "b": df["node"]}),
                batch_format="pandas",
            ),
            propagate, max_label_rounds,
            "scc_ds: f/b label propagation did not converge in {rounds} rounds — raise max_label_rounds",
        )
        # ---- freeze f == b; refine the rest by (f, b) ----------------
        # any node with f == b = x is DONE: the whole (x, x) group is
        # exactly SCC(x) ∩ class = SCC(x) (x reaches every member and
        # every member reaches x; conversely mutual reachability forces
        # identical in-class minima). And a class whose members all
        # share one (f, b) pair necessarily has f == b (f(b-min) = f
        # forces f ≤ b, b(f-min) = b forces b ≤ f), so every class that
        # does NOT fully freeze strictly splits — no separate stability
        # exchange is needed; termination is "no survivors left", the
        # round's ``_rest`` total.
        done.append(fb)
        return fb

    supersteps(
        start, refine, max_outer,
        "scc_ds: class refinement did not converge in {rounds} outer rounds — raise max_outer",
        flag="_rest",
    )

    def frozen(df: pd.DataFrame) -> pd.DataFrame:
        fz = df[df["_rest"] == 0]
        return pd.DataFrame({"node": fz["node"].astype("int64"), "scc_id": fz["f"].astype("int64")})

    return concat(*done).map_batches(frozen, batch_format="pandas")


def _directed_reference_edges_for(d: int, n_docs: int) -> "list[tuple[int, int]]":
    """Directed reference-link edges contributed by doc ``d`` — the
    SHARED SPEC between the distributed SCC builder and the brute
    Tarjan census (the page-link direction model: projekt pages link
    their people and sometimes an institution, most person pages link
    back to their first projekt, even institutions link their
    sub-institution — one-way unless the backlink exists; reference
    parity: the details-page reference blocks, extract/details.py)."""
    node = 1000 + d
    out: list[tuple[int, int]] = []
    if d % 3 == 0:
        out.append((node, person_ref(d, 1, n_docs)))
        out.append((node, person_ref(d, 2, n_docs)))
        if d % 5 == 0:
            out.append((node, institution_ref(d, 1, n_docs)))
    elif d % 3 == 1:
        if d % 4 != 0:
            out.append((node, projekt_ref(d, 1, n_docs)))
    else:
        if d % 2 == 0:
            out.append((node, institution_ref(d, 1, n_docs)))
    return out


def directed_reference_edges(sf_dir: str) -> "ray.data.Dataset":
    """(src, dst) — the directed reference-link graph as a Dataset
    (see ``_directed_reference_edges_for`` for the edge spec)."""
    import pyarrow.parquet as pq

    import ray

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def edge_rows(batch) -> pd.DataFrame:
        src, dst = [], []
        for d in batch.column("doc_id").to_pylist():
            for s, t in _directed_reference_edges_for(int(d), n_docs):
                src.append(s)
                dst.append(t)
        return pd.DataFrame(
            {"src": pd.Series(src, dtype="int64"),
             "dst": pd.Series(dst, dtype="int64")}
        )

    return docs.map_batches(edge_rows, batch_format="pyarrow")


def reference_graph_scc(
    sf_dir: str,
    mode: str = "auto",
    driver_edge_limit: int = 2_000_000,
) -> "ray.data.Dataset":
    """(node, scc_id) — SCC decomposition of the directed reference
    graph (a bow-tie at test scale: one giant core SCC, a small cycle,
    and singleton tendrils).

    Modes follow the ``dedup_clusters`` convention: ``driver`` runs
    Tarjan over the collected edge list (right while edges ≪ corpus —
    link-graph edge sets ARE usually collectible after the host-level
    projection, but not at page granularity), ``distributed`` runs the
    FW-B label-refinement ``scc_ds`` (no driver-resident edge set),
    ``auto`` picks driver below ``driver_edge_limit`` edges. Both
    regimes share the recursive-CTE oracle and the route-equivalence
    pytest."""
    import ray

    edges = directed_reference_edges(sf_dir).materialize()
    if mode == "auto":
        mode = "driver" if edges.count() <= driver_edge_limit else "distributed"
    if mode == "distributed":
        return scc_ds(edges)
    df = edges.to_pandas()
    scc = _scc_brute(list(zip(df["src"].tolist(), df["dst"].tolist())))
    out = pd.DataFrame(
        {"node": list(scc.keys()), "scc_id": list(scc.values())}
    ).astype("int64").sort_values("node").reset_index(drop=True)
    return ray.data.from_pandas(out)


def bowtie_ds(
    edges: "ray.data.Dataset",
    max_depth: int = 64,
) -> "ray.data.Dataset":
    """(node, cls) — the Broder et al. (2000) BOW-TIE decomposition of
    a directed graph: ``core`` (the largest SCC; ties broken by min
    scc_id), ``in`` (reaches the core), ``out`` (reached from the
    core), ``other`` (tendrils, tubes and disconnected lumped — the
    classic 4-way simplification). THE macro-map of the web graph: a
    crawler seeded in IN∪CORE covers CORE∪OUT, and the relative sizes
    are the standard corpus-reachability health check.

    Composition of the existing primitives — scc_ds for the core,
    two multi-source BFS sweeps (``bfs_depth_ds``, forward and on the
    reversed edge set) for the reach flags, one node-keyed exchange to
    fold the three labels into a class. The only driver value is the
    core's (scc_id, size) row. ``max_depth`` caps the reach sweeps
    (64 ≫ any real web graph's effective diameter; raise it for
    adversarial chains)."""
    edges = _int64_edges(edges)
    scc = scc_ds(edges).materialize()
    if scc.count() == 0:
        return ray.data.from_pandas(typed_frame(node="int64", cls="object"))
    top = (
        scc.groupby("scc_id")
        .count()
        .sort(["count()", "scc_id"], descending=[True, False])
        .limit(1)
        .take(1)
    )
    rep = int(top[0]["scc_id"])

    core_seeds = scc.map_batches(
        lambda df, _r=rep: df.loc[df["scc_id"] == _r, ["node"]], batch_format="pandas"
    )
    fwd = bfs_depth_ds(edges, core_seeds, max_depth=max_depth)
    rev = edges.map_batches(
        lambda df: pd.DataFrame({"src": df["dst"], "dst": df["src"]}), batch_format="pandas"
    )
    bwd = bfs_depth_ds(rev, core_seeds, max_depth=max_depth)

    def classify(parts: dict, _r=rep) -> pd.DataFrame:
        s = parts["s"].drop_duplicates("node")
        node = s["node"].to_numpy()
        core = s["scc_id"].to_numpy() == _r
        ino = np.isin(node, parts["i"]["node"].to_numpy())
        outo = np.isin(node, parts["o"]["node"].to_numpy())
        cls = np.where(core, "core",
                       np.where(ino, "in",
                                np.where(outo, "out", "other")))
        return pd.DataFrame({"node": node, "cls": cls})

    return co_exchange(
        {"s": (scc, "node", typed_frame(node="int64", scc_id="int64")),
         "o": (fwd, "node", NODES),     # forward reach from core = OUT side
         "i": (bwd, "node", NODES)},    # backward reach = nodes reaching core
        classify, adaptive_buckets(scc.count()),
    )


def reference_graph_bowtie(sf_dir: str) -> "ray.data.Dataset":
    """(node, cls) — bow-tie decomposition of the directed reference
    graph (see ``_directed_reference_edges_for``)."""
    return bowtie_ds(directed_reference_edges(sf_dir))


def condensation_layers_ds(
    edges: "ray.data.Dataset",
    max_rounds: int = 64,
) -> "ray.data.Dataset":
    """(node, scc_id, layer) — topological LAYERS of the SCC
    condensation: layer(C) = longest path (in condensation hops) from
    any source SCC to C. The crawl-scheduling readout of the SCC
    decomposition — fetching layer k before k+1 never fetches a page
    before a page that links to it transitively (modulo its own SCC),
    i.e. dependency-ordered crawl waves over a graph WITH cycles,
    which a plain topological sort cannot give.

    Shape — reuses scc_ds, then:

    - condensation edges: two node-keyed exchanges map (src, dst)
      through the scc labels; cross-SCC pairs dedup per bucket and
      then globally by csrc (the condensation is a DAG by
      construction);
    - layering: longest-path relaxation — per round ONE scc-keyed
      exchange ships layer(src)+1 along condensation edges and ONE
      max-reduces (converges in ≤ condensation depth rounds; the DAG
      guarantees termination, checked against ``max_rounds``);
    - one final scc-keyed exchange joins layers back to members.
    Only per-round scalar change counts reach the driver."""
    edges = _int64_edges(edges)
    scc = scc_ds(edges).materialize()
    if scc.count() == 0:
        return ray.data.from_pandas(typed_frame(node="int64", scc_id="int64", layer="int64"))
    nb = adaptive_buckets(scc.count())
    scc_t = typed_frame(node="int64", scc_id="int64")
    layer_t = typed_frame(c="int64", layer="int64")

    # --- condensation edges: map endpoints through scc labels --------
    def map_src(parts: dict) -> pd.DataFrame:
        s = parts["s"].drop_duplicates("node").rename(columns={"node": "src", "scc_id": "sl"})
        # src's scc rides in sl; the next exchange re-keys by dst
        return parts["e"].merge(s, on="src")[["dst", "sl"]]

    def map_dst(parts: dict) -> pd.DataFrame:
        s = parts["s"].drop_duplicates("node").rename(columns={"node": "dst"})
        m = parts["e"].merge(s, on="dst")
        m = m[m["sl"] != m["scc_id"]][["sl", "scc_id"]].drop_duplicates()
        return pd.DataFrame({"csrc": m["sl"], "cdst": m["scc_id"]})

    mapped_src = co_exchange({"s": (scc, "node", scc_t), "e": (edges, "src", EDGES)}, map_src, nb)
    cond, _ = settle(
        keyed_exchange(
            co_exchange(
                {"s": (scc, "node", scc_t), "e": (mapped_src, "dst", typed_frame(dst="int64", sl="int64"))},
                map_dst, nb,
            ),
            "csrc", lambda g: g.drop_duplicates(["csrc", "cdst"]), nb,
        )
    )

    def ship(parts: dict) -> pd.DataFrame:
        s = parts["s"]
        m = parts["e"].merge(s.drop_duplicates("c").rename(columns={"c": "csrc"}), on="csrc")
        # per-bucket pre-reduce: one (dst, max proposal) row; the
        # bucket's own layer rows ride along (own=1) into the reduce
        p = m.groupby("cdst", as_index=False)["layer"].max()
        return pd.concat(
            [s.assign(own=np.int8(1)),
             pd.DataFrame({"c": p["cdst"], "layer": p["layer"] + 1, "own": np.int8(0)})],
            ignore_index=True,
        )

    def reduce_max(g: pd.DataFrame) -> pd.DataFrame:
        new = g.groupby("c", as_index=False)["layer"].max()
        m = new.merge(g.loc[g["own"] == 1, ["c", "layer"]], on="c", suffixes=("", "_old"))
        return pd.DataFrame(
            {"c": m["c"], "layer": m["layer"], "_changed": (m["layer"] > m["layer_old"]).astype("int64")}
        )

    def relax(layers):
        props = co_exchange(
            {"s": (layers, "c", layer_t), "e": (cond, "csrc", typed_frame(csrc="int64", cdst="int64"))}, ship, nb
        )
        return keyed_exchange(props, "c", reduce_max, nb)

    # --- longest-path relaxation over the condensation DAG -----------
    layers = supersteps(
        scc.map_batches(
            lambda df: pd.DataFrame({"c": df["scc_id"]}).drop_duplicates().assign(layer=np.int64(0)),
            batch_format="pandas",
        ),
        relax, max_rounds,
        "condensation_layers_ds: relaxation did not settle in "
        "{rounds} rounds — not a DAG? (raise max_rounds)",
    )

    # --- join layers back to members ---------------------------------
    def attach(parts: dict) -> pd.DataFrame:
        lay = parts["l"].drop_duplicates("c").rename(columns={"c": "scc_id"})
        return parts["m"].merge(lay, on="scc_id")[["node", "scc_id", "layer"]]

    return co_exchange(
        {"l": (layers, "c", layer_t), "m": (scc, "scc_id", scc_t)}, attach, nb
    )


def reference_condensation_layers(sf_dir: str) -> "ray.data.Dataset":
    """(node, scc_id, layer) — dependency-ordered crawl waves over the
    directed reference graph's SCC condensation."""
    return condensation_layers_ds(directed_reference_edges(sf_dir))


def opic_ds(
    edges: "ray.data.Dataset",
    n_rounds: int = 6,
) -> "ray.data.Dataset":
    """(node, importance) — OPIC, On-line Page Importance Computation
    (Abiteboul–Preda–Cobéna, WWW 2003): the CRAWLER-NATIVE importance
    estimator. Every page holds ``cash``; when read it banks the cash
    into ``hist`` and distributes it equally along its out-links
    (dangling pages distribute uniformly to everyone); importance is
    the normalized Cesàro average (hist + cash) / (rounds + 1). Unlike
    PageRank it needs no convergence wait — a crawler reads the
    estimate mid-crawl to order its frontier — and the synchronous
    all-pages-read-per-round variant implemented here is deterministic
    and exactly SQL-unrollable (the crawl_pagerank oracle discipline).

    Scale shape — identical to ``pagerank_ds``: per round exactly TWO
    co-partition exchanges (ship cash/outdeg along out-edges with
    the per-(bucket, dst) pre-sum combiner; reduce per node), and one
    driver SCALAR (the dangling cash mass)."""
    edges = _int64_edges(edges)
    nb = adaptive_buckets(edges.count())

    def node_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = _node_rows(df)
        deg = df.groupby("src", as_index=False).size()
        deg.columns = ["node", "outdeg"]
        out = out.merge(deg, on="node", how="left")
        out["outdeg"] = out["outdeg"].fillna(0).astype("int64")
        return out

    nodes = keyed_exchange(
        edges.map_batches(node_rows, batch_format="pandas"), "node",
        lambda g: g.groupby("node", as_index=False)["outdeg"].sum(), nb,
    ).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return ray.data.from_pandas(typed_frame(node="int64", importance="float64"))

    state_t = typed_frame(node="int64", cash="float64", hist="float64", outdeg="int64")
    # the dangling cash (on out-degree-0 nodes) each round starts from,
    # read from the blocks that hold it
    state, totals = settle(
        nodes.map_batches(
            lambda df: _with_dangling(df.assign(cash=1.0 / n_nodes, hist=0.0), "cash"),
            batch_format="pandas",
        ),
        "_dangling",
    )

    def contribs(parts: dict) -> pd.DataFrame:
        r = parts["r"]
        val = pd.DataFrame({"src": r["node"], "val": r["cash"] / r["outdeg"].clip(lower=1)})
        m = parts["e"].merge(val, on="src")
        out = pd.DataFrame({"node": m["dst"], "contrib": m["val"]})
        return out.groupby("node", as_index=False)["contrib"].sum()

    for _ in range(n_rounds):
        dangling = float(totals["_dangling"])
        contrib = co_exchange({"r": (state, "node", state_t), "e": (edges, "src", EDGES)}, contribs, nb)

        def reduce_cash(parts: dict, _s=dangling / n_nodes) -> pd.DataFrame:
            nd = parts["n"]
            cs = parts["c"].groupby("node")["contrib"].sum()
            s = nd.merge(cs.rename("s"), left_on="node", right_index=True, how="left")["s"].fillna(0.0)
            return _with_dangling(nd.assign(cash=s.to_numpy() + _s, hist=nd["hist"] + nd["cash"]), "cash")

        state, totals = settle(
            co_exchange(
                {"n": (state, "node", state_t), "c": (contrib, "node", CONTRIB)},
                reduce_cash, nb,
            ),
            "_dangling",
        )

    return state.map_batches(
        lambda df: pd.DataFrame(
            {"node": df["node"],
             "importance": ((df["hist"] + df["cash"]) / (n_rounds + 1)).round(9)}
        ),
        batch_format="pandas",
    )


def reference_graph_opic(sf_dir: str, n_rounds: int = 6) -> "ray.data.Dataset":
    """(node, importance) — OPIC over the directed reference graph."""
    return opic_ds(directed_reference_edges(sf_dir), n_rounds=n_rounds)


def spam_mass_ds(
    ranks: "ray.data.Dataset",
    trust: "ray.data.Dataset",
    candidate_threshold_x1e9: int = 500_000_000,
) -> "ray.data.Dataset":
    """(node, rank_x1e9, trust_x1e9, spam_mass_x1e9, spam_candidate) —
    relative spam mass (Gyöngyi, Berkhin, Garcia-Molina, Pedersen,
    VLDB 2006) composed from two rank vectors the engine already
    produces: ``ranks`` = global PageRank, ``trust`` = TrustRank
    (personalized PageRank restarted at a trusted seed set,
    Gyöngyi–Garcia-Molina–Pedersen 2004). A node whose importance
    comes mostly from outside the trust neighbourhood is a link-spam
    demotion candidate for the crawl scheduler — the standard
    anti-spam signal a production frontier applies before honoring
    PageRank order.

    Determinism contract: both inputs are rounded to integer
    billionths FIRST (the same 9-dp grid their own oracles use), then
    mass is pure int64 arithmetic — ``max(rank9 − trust9, 0) × 10⁹ //
    rank9`` (clamped at 0: trust above rank means "whiter than
    average", not spam) — so op and oracle hash-match bit-for-bit
    with no float division on either side.

    Scale shape: ONE node-keyed co-partition exchange aligns the two
    vectors (per-bucket left join); nothing reaches the driver."""
    nb = adaptive_buckets(ranks.count(), rows_per_bucket=4096)
    v9_t = typed_frame(node="int64", v9="int64")

    def to_v9(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": df["node"].astype("int64"),
             "v9": (df["rank"].to_numpy(np.float64) * 1e9).round().astype("int64")}
        )

    def per_bucket(parts: dict) -> pd.DataFrame:
        m = parts["g"].rename(columns={"v9": "r9"}).merge(
            parts["t"].rename(columns={"v9": "t9"}), on="node", how="left"
        )
        r9 = m["r9"].to_numpy()
        t9 = m["t9"].fillna(0).to_numpy().astype("int64")
        # int64-safe: r9 ≤ 10^9 (rank ≤ 1), so diff × 10^9 ≤ 10^18 < 2^63
        mass = np.where(r9 > 0, np.maximum(r9 - t9, 0) * 10**9, 0) // np.maximum(r9, 1)
        return pd.DataFrame(
            {"node": m["node"],
             "rank_x1e9": r9.astype("int64"),
             "trust_x1e9": t9,
             "spam_mass_x1e9": mass.astype("int64"),
             "spam_candidate": (mass >= candidate_threshold_x1e9).astype("int64")}
        )

    return co_exchange(
        {"g": (ranks.map_batches(to_v9, batch_format="pandas"), "node", v9_t),
         "t": (trust.map_batches(to_v9, batch_format="pandas"), "node", v9_t)},
        per_bucket, nb,
    )


def reference_spam_mass(sf_dir: str, n_iters: int = 4) -> "ray.data.Dataset":
    """Spam mass over the reference graph: global PageRank vs
    TrustRank restarted at the curated projekt seed list (doc_id %
    30 == 0 — the focused-crawl seed rule), both at the gate's fixed
    iteration count."""
    return spam_mass_ds(
        reference_graph_pagerank(sf_dir, n_iters=n_iters),
        focused_frontier_rank(sf_dir, n_iters=n_iters),
    )


def effective_diameter_rows(
    nf: "list[int]", q_num: int = 9, q_den: int = 10
) -> "pd.DataFrame":
    """(radius, nf, eff_diam_x1e6) from a neighborhood function
    N(0..R) — HyperANF's effective-diameter readout (Boldi, Rosa &
    Vigna, WWW 2011): the smallest (interpolated) radius d such that
    N(d) ≥ q·N(R), linear interpolation between the bracketing
    rounds. All arithmetic is int64 on the millionths grid
    (``q = q_num/q_den`` compared as ``q_den·N(r) ≥ q_num·N(R)``;
    interpolation numerator × 10⁶ floor-divided) so op and oracle
    hash-match with no float division. Bounds: N ≤ ~9·10¹¹ keeps
    ``q_num·N·10⁶`` inside int64 — beyond that, pre-scale N (the
    sketch error exceeds the grid long before).

    The same value is stamped on every row so the per-round N(r)
    table AND the headline scalar live in one gate-checkable result.
    """
    n_r = nf[-1]
    target_num = q_num * n_r  # compare q_den·N(r) ≥ q_num·N(R)
    d_x1e6 = 0
    for r, n in enumerate(nf):
        if q_den * n >= target_num:
            if r == 0:
                d_x1e6 = 0
            else:
                lo, hi = nf[r - 1], n
                d_x1e6 = (r - 1) * 10**6 + (
                    (target_num - q_den * lo) * 10**6
                ) // (q_den * (hi - lo))
            break
    return pd.DataFrame(
        {"radius": pd.Series(range(len(nf)), dtype="int64"),
         "nf": pd.Series(nf, dtype="int64"),
         "eff_diam_x1e6": pd.Series([d_x1e6] * len(nf), dtype="int64")}
    )


def reference_effective_diameter(
    sf_dir: str, rounds: int = 4
) -> "pd.DataFrame":
    """(radius, nf, eff_diam_x1e6) — neighborhood function and
    90%-effective diameter of the symmetrized reference graph, from
    the same HyperBall run ``crawl_hyperball`` gates: per round ONE
    extra driver scalar (the global ball-size sum), then the
    interpolation is (rounds+1)-int driver math."""
    nf: list[int] = []
    # the per-round materializes inside hyperball_ds run the loop (and
    # fill nf) during the call — the per-node estimate scan the
    # returned Dataset would add is not needed here
    hyperball_ds(_reference_edges(sf_dir, symmetric=True), rounds=rounds, nf_out=nf)
    return effective_diameter_rows(nf)


def label_propagation_ds(
    edges: "ray.data.Dataset", n_rounds: int = 4
) -> "ray.data.Dataset":
    """Synchronous label-propagation community detection (Raghavan,
    Albert & Kumara 2007) over a directed edge Dataset (``src``,
    ``dst`` int64), made fully deterministic: the graph is symmetrized
    with integer multiplicity weights (a parallel edge counts twice),
    labels start as the node id, and each of the fixed ``n_rounds``
    synchronous rounds moves every node to the label with the largest
    total incident weight among its neighbours, ties broken by the
    SMALLEST label id. Every quantity is int64 — counts and mins, no
    floats anywhere — so op and oracle hash-match exactly.

    Communities are the crawl-side "site neighbourhood" signal
    (reference analogy: the J9 reference-edge views cluster projekt/
    person/institution entities that cite each other — a frontier
    partitioned by community keeps an entity's neighbourhood on one
    politeness shard, like ``reference_graph_components`` but at a
    finer, density-driven granularity than pure connectivity).

    Scale shape (identical to ``pagerank_ds``): per round TWO keyed
    exchanges — exchange 1 by src joins current labels to out-edges
    and pre-sums (dst, label) weight partials INSIDE the group task
    (≤ one row per distinct (dst,label) per bucket); exchange 2 by dst
    reduces the argmax per node, nodes riding along so every node
    keeps a row. ZERO driver reads per round (no scalar funnel at
    all); lineage is cut per round. Returns ``(node, label)``.
    """

    def sym_edges(df: pd.DataFrame) -> pd.DataFrame:
        s = df["src"].astype("int64")
        d = df["dst"].astype("int64")
        return pd.DataFrame(
            {"src": pd.concat([s, d], ignore_index=True),
             "dst": pd.concat([d, s], ignore_index=True),
             "w": np.int64(1)}
        )

    edges = edges.map_batches(sym_edges, batch_format="pandas").materialize()
    nb = adaptive_buckets(edges.count())
    label_t = typed_frame(node="int64", label="int64")

    # labels init: every endpoint is a node, label = own id (one
    # keyed exchange dedupes endpoints; multiplicity is NOT collapsed
    # in the edge set itself — w=1 rows sum to the multiplicity in
    # the vote, which is the same total by commutativity)
    labels = keyed_exchange(
        edges.map_batches(lambda df: df[["src"]].drop_duplicates().rename(columns={"src": "node"}),
                          batch_format="pandas"),
        "node", lambda g: g.drop_duplicates().assign(label=lambda d: d["node"]), nb,
    ).materialize()

    def votes(parts: dict) -> pd.DataFrame:
        # (dst, label) weight partials pre-summed inside the group
        m = parts["e"].merge(parts["l"].rename(columns={"node": "src"}), on="src")
        return m.groupby(["dst", "label"], as_index=False)["w"].sum().rename(columns={"dst": "node"})

    def reduce_label(parts: dict) -> pd.DataFrame:
        # argmax(total w, tie -> min label) per node; current labels
        # ride along so a node with no in-votes (impossible after
        # symmetrization, kept for safety) retains its label
        nd, v = parts["n"], parts["v"]
        v = v.groupby(["node", "label"], as_index=False)["w"].sum()
        # argmax by weight, tie -> smallest label: sort then first
        v = v.sort_values(["node", "w", "label"], ascending=[True, False, True]).drop_duplicates("node")
        new = nd["node"].map(dict(zip(v["node"], v["label"])))
        return pd.DataFrame({"node": nd["node"], "label": new.fillna(nd["label"]).astype("int64")})

    for _ in range(n_rounds):
        vote = co_exchange(
            {"l": (labels, "node", label_t),
             "e": (edges, "src", typed_frame(src="int64", dst="int64", w="int64"))},
            votes, nb,
        )
        labels, _ = settle(
            co_exchange(
                {"n": (labels, "node", label_t),
                 "v": (vote, "node", typed_frame(node="int64", label="int64", w="int64"))},
                reduce_label, nb,
            )
        )

    return labels


def reference_label_communities(
    sf_dir: str, n_rounds: int = 4
) -> "ray.data.Dataset":
    """(node, label) — label-propagation communities over the
    reference projekt→person graph (symmetrized inside the op) at the
    gate's fixed round count."""
    return label_propagation_ds(_reference_edges(sf_dir), n_rounds=n_rounds)


def degree_assortativity_ds(edges: "ray.data.Dataset") -> "pd.DataFrame":
    """Directed degree assortativity (Newman 2002, Phys. Rev. Lett.
    89): the Pearson correlation, over EDGES, between the source's
    out-degree and the target's in-degree — the web-graph mixing
    signal (assortative ≈ hubs citing hubs: link farms / mirror
    rings; disassortative ≈ hubs citing leaves: natural citation
    webs). A crawler reads it as a cheap structural prior before
    trusting rank order.

    Everything is integer-exact end to end: degrees are counts, the
    six edge-moments (n, Σx, Σy, Σxy, Σx², Σy²) are int64 sums, and
    the headline is SIGNED r² on the 9-dp grid —
    ``sign(num) · num²·10⁹ // (den1·den2)`` with
    num = n·Σxy − Σx·Σy, den1 = n·Σx² − (Σx)², den2 = n·Σy² − (Σy)²
    — evaluated in unbounded Python ints (HUGEINT in the oracle), so
    there is no float division anywhere and op/oracle hash-match
    exactly. r itself is the signed square root (reported for humans
    in the docstring only; the gated value is the rational r²).

    Scale shape: degree tables from per-batch partial counts merged
    in ONE keyed exchange; degrees attach to edges via TWO keyed
    exchanges (by src, then by dst — the standard fact-dim pattern);
    moment partials collapse per batch and tree-sum to SIX driver
    scalars. Driver I/O is O(1) regardless of edge count. Returns a
    one-row DataFrame.
    """
    edges = _int64_edges(edges)
    nb = adaptive_buckets(edges.count())
    deg_t = typed_frame(node="int64", outd="int64", ind="int64")

    # degree tables: per-batch (node, out_partial, in_partial) counts
    # merged in one keyed exchange
    def deg_partials(df: pd.DataFrame) -> pd.DataFrame:
        o = df.groupby("src").size().rename("outd")
        i = df.groupby("dst").size().rename("ind")
        m = pd.concat([o, i], axis=1).fillna(0).reset_index(names="node")
        return m.astype("int64")

    deg = keyed_exchange(
        edges.map_batches(deg_partials, batch_format="pandas"), "node",
        lambda g: g.groupby("node", as_index=False)[["outd", "ind"]].sum(), nb,
    ).materialize()

    # exchange 1 (by src): attach x = outdeg(src) to each edge
    def join_src(parts: dict) -> pd.DataFrame:
        d = parts["d"].rename(columns={"node": "src", "outd": "x"})
        return parts["e"].merge(d[["src", "x"]], on="src")[["dst", "x"]]

    # exchange 2 (by dst): attach y = indeg(dst), collapse to moment
    # partials INSIDE the group task
    def moments(parts: dict) -> pd.DataFrame:
        d = parts["d"].rename(columns={"node": "dst", "ind": "y"})
        m = parts["e"].merge(d[["dst", "y"]], on="dst")
        x = m["x"].to_numpy(dtype="int64")
        y = m["y"].to_numpy(dtype="int64")
        return pd.DataFrame(
            {"n": [np.int64(len(m))], "sx": [x.sum()], "sy": [y.sum()],
             "sxy": [(x * y).sum()], "sxx": [(x * x).sum()],
             "syy": [(y * y).sum()]}
        )

    ex = co_exchange({"d": (deg, "node", deg_t), "e": (edges, "src", EDGES)}, join_src, nb)
    part = co_exchange(
        {"d": (deg, "node", deg_t), "e": (ex, "dst", typed_frame(dst="int64", x="int64"))}, moments, nb
    )
    # SIX driver scalars, read from the blocks of the ≤nb one-row partials
    _, tot = settle(part, "n", "sx", "sy", "sxy", "sxx", "syy")
    n, sx, sy, sxy, sxx, syy = (int(v) for v in tot.values())
    num = n * sxy - sx * sy
    den1 = n * sxx - sx * sx
    den2 = n * syy - sy * sy
    den = den1 * den2
    if den > 0:
        # floor-div on NON-NEGATIVE operands only (trunc == floor),
        # then apply the sign — keeps op and SQL oracle bit-identical
        mag = (num * num * 10**9) // den
        r2_9 = mag if num >= 0 else -mag
    else:
        r2_9 = 0  # degenerate: a degree is constant over edges
    return pd.DataFrame(
        {"n_edges": pd.Series([n], dtype="int64"),
         "sx": pd.Series([sx], dtype="int64"),
         "sy": pd.Series([sy], dtype="int64"),
         "sxy": pd.Series([sxy], dtype="int64"),
         "sxx": pd.Series([sxx], dtype="int64"),
         "syy": pd.Series([syy], dtype="int64"),
         "assort_r2_x1e9": pd.Series([r2_9], dtype="int64")}
    )


def reference_assortativity(sf_dir: str) -> "pd.DataFrame":
    """One-row (n_edges, Σx, Σy, Σxy, Σx², Σy², signed r²·10⁹) —
    out-degree→in-degree assortativity of the directed reference
    projekt→person graph."""
    return degree_assortativity_ds(_reference_edges(sf_dir))


def random_walks_ds(
    edges: "ray.data.Dataset", n_steps: int = 4
) -> "ray.data.Dataset":
    """Deterministic unbiased random walks (the DeepWalk corpus
    generator — Perozzi, Al-Rfou & Skiena, KDD 2014) over a directed
    edge Dataset (``src``, ``dst`` int64): the graph is symmetrized
    and its parallel edges collapsed (unweighted neighbor sets), one
    walk starts at EVERY node, and at step ``t`` the walk at ``node``
    moves to ``neighbors_sorted[H % deg]`` where
    ``H = md5("{node}|{t}|{start}")``'s leading 60 bits — a
    per-(walk, step, node) hash instead of an RNG stream, so the walk
    corpus is a pure function of the graph (op and SQL oracle
    hash-match row for row; the embedding-training consumer only
    needs walk co-occurrence statistics, which hash-indexed draws
    preserve). Returns ``(start, step, node)``, steps 0..``n_steps``.

    Scale shape: adjacency is built by ONE src-keyed exchange that
    assigns each neighbor its rank (``idx``) and degree — the walk
    draw needs only (deg, idx), never the whole neighbor list on the
    driver. Each step is ONE co-partition exchange: walk-state rows
    meet their node's adjacency rows, the group task draws the hash
    index and emits the next state — walk state never concentrates
    (it stays one row per live walk, hash-spread over buckets), and
    lineage is cut per step. ``n_steps`` exchanges total; at 10^10
    nodes each carries |walks| ≈ |nodes| fingerprint rows, the same
    profile as a PageRank round.
    """
    import hashlib

    def sym_edges(df: pd.DataFrame) -> pd.DataFrame:
        s = df["src"].astype("int64")
        d = df["dst"].astype("int64")
        out = pd.DataFrame(
            {"src": pd.concat([s, d], ignore_index=True),
             "dst": pd.concat([d, s], ignore_index=True)}
        )
        return out.drop_duplicates()

    sedges = edges.map_batches(sym_edges, batch_format="pandas").materialize()
    nb = adaptive_buckets(sedges.count())
    walk_t = typed_frame(start="int64", node="int64")

    def adj_group(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop_duplicates(["src", "dst"])
             .sort_values(["src", "dst"], kind="stable"))
        return pd.DataFrame(
            {"src": g["src"].astype("int64"),
             "dst": g["dst"].astype("int64"),
             "idx": g.groupby("src").cumcount().astype("int64"),
             "deg": g.groupby("src")["dst"].transform("size")
                     .astype("int64")}
        )

    adj = keyed_exchange(sedges, "src", adj_group, nb).materialize()

    # walk state (start, node); one walk per node of the symmetrized
    # graph (every endpoint appears as a src after symmetrization).
    # Each src owns EXACTLY ONE idx==0 adjacency row (the rank-0
    # neighbor assigned in adj_group), so filtering on it yields one
    # start per node no matter how map_batches splits the bucket
    # blocks — a per-batch drop_duplicates over src would emit
    # duplicate walks whenever a src's adjacency rows straddled the
    # default 1024-row batch boundary (exactly the >=1024-rows-per-
    # bucket regime of the --graph-scale volume runs).
    state = (
        adj.map_batches(
            lambda df: pd.DataFrame(
                {"start": df.loc[df["idx"] == 0, "src"].astype("int64")})
            .assign(node=lambda d: d["start"]),
            batch_format="pandas")
        .materialize()
    )

    def out_rows(step: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"start": df["start"].astype("int64"),
                 "step": np.int64(step),
                 "node": df["node"].astype("int64")}
            )
        return f

    outputs = [state.map_batches(out_rows(0), batch_format="pandas")]

    def _h60(node: int, step: int, start: int) -> int:
        key = f"{node}|{step}|{start}".encode()
        return int(hashlib.md5(key).hexdigest()[:15], 16)

    for t in range(n_steps):
        def step_reduce(parts: dict, _t=t) -> pd.DataFrame:
            s, a = parts["s"].rename(columns={"node": "src"}), parts["a"]
            m = s.merge(a.drop_duplicates("src")[["src", "deg"]], on="src")
            m["idx"] = np.fromiter(
                (_h60(k, _t, st) % dg
                 for k, st, dg in zip(m["src"], m["start"], m["deg"])),
                dtype=np.int64, count=len(m),
            )
            nxt = m.merge(a[["src", "idx", "dst"]], on=["src", "idx"])
            return pd.DataFrame({"start": nxt["start"], "node": nxt["dst"]})

        state, _ = settle(
            co_exchange(
                {"s": (state, "node", walk_t),
                 "a": (adj, "src", typed_frame(src="int64", dst="int64", idx="int64", deg="int64"))},
                step_reduce, nb,
            )
        )
        outputs.append(state.map_batches(out_rows(t + 1),
                                         batch_format="pandas"))

    out = outputs[0]
    for o in outputs[1:]:
        out = out.union(o)
    return out


def reference_random_walks(sf_dir: str, n_steps: int = 4) -> "ray.data.Dataset":
    """(start, step, node) — deterministic DeepWalk-style walk corpus
    over the symmetrized projekt→person reference graph (J5/J9
    edges), one walk per node, ``n_steps`` hash-indexed draws."""
    return random_walks_ds(_reference_edges(sf_dir), n_steps=n_steps)


def cocitation_pairs(sf_dir: str, max_out_deg: int = 64) -> "ray.data.Dataset":
    """(a, b, n_citers) — co-citation strength over the directed
    projekt→person reference graph (J5/J9 edges): for every canonical
    target pair ``a < b``, the number of sources citing BOTH. This is
    the classic "related pages" signal (Dean & Henzinger, WWW 1999:
    pages co-cited by many common sources are related; Small 1973 in
    bibliometrics) — a crawler uses it to expand a seed set sideways,
    complementing ``focused_frontier_rank``'s forward expansion.

    A source with more than ``max_out_deg`` distinct targets is
    dropped SYMMETRICALLY in op and oracle (a directory/boilerplate
    page that cites everyone relates nothing) — the same hub rule as
    ``mirror_host_pairs``, and the bound that caps the per-source
    pair fan-out at C(cap, 2) rows so no scan task can melt at
    open-web scale.

    Shape: pair partials form inside the scan (vectorized triu over
    the per-source target grid, per-batch pre-summed), then ONE
    pair-keyed exchange sums counts — co-citation never builds a
    node-keyed adjacency and ships only (pair, count) fingerprint
    rows.
    """
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def pair_partials(batch) -> pd.DataFrame:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        ids = doc_ids[doc_ids % 3 == 0].astype(np.int64)
        ps = np.sort(person_ref(ids[:, None], np.arange(1, 5)[None, :], n_docs), axis=1)
        # hub rule, vectorized: distinct-target count per source
        ndist = (np.diff(ps, axis=1) != 0).sum(axis=1) + 1
        keep_src = ndist <= max_out_deg
        ps, ids = ps[keep_src], ids[keep_src]
        ii, jj = np.triu_indices(ps.shape[1], k=1)
        a, b = ps[:, ii].ravel(), ps[:, jj].ravel()
        src = np.repeat(ids, len(ii))
        keep = a != b  # duplicate targets collapse (sorted rows)
        df = (
            pd.DataFrame({"s": src[keep], "a": a[keep], "b": b[keep]})
            .drop_duplicates()  # one vote per (source, pair)
            .groupby(["a", "b"], as_index=False).size()
            .rename(columns={"size": "c"})
        )
        return df.astype("int64") if len(df) else typed_frame(a="int64", b="int64", c="int64")

    return keyed_exchange(
        docs.map_batches(pair_partials, batch_format="pyarrow"), ["a", "b"],
        lambda g: g.groupby(["a", "b"], as_index=False)["c"].sum().rename(columns={"c": "n_citers"}),
        adaptive_buckets(n_docs),
    )
