"""Exchange budget of the graph, relational, dedup, text and curation
ops, and empty-input behaviour of the iterative graph ops.

Every keyed exchange in ``ops/`` is routed by ``kernels.partitioning``
(``co_exchange`` / ``keyed_exchange``); these tests
pin how many Dataset executions and sort-shuffles (``Sort`` operators)
each iterative graph op runs on a small graph and each exchanging
relational, dedup, text-stats and curation op runs at sf0.001, so a
change that adds an exchange shows up here, and check that every
iterative op returns a typed empty result on an empty edge set.

The iterative ops run each round as one execution (``settle``), so
their pins also bound the executions whose plan holds no ``Sort``: a
round that reads a stop count or a scalar by a second execution, or
materializes a filter of its own output, shows up there.
"""

import numpy as np
import pandas as pd
import pytest

# (Dataset executions, Sort operators, executions with no Sort) per op
# on _small_graph(), as measured once every round ran as one execution
# (the Sort counts are those of the co_exchange port; the executions
# were pagerank 10, hits 14, kcore 8, hyperball 5 and scc 37 before)
BUDGET = {
    "pagerank": (7, 7, 3),
    "hits": (7, 10, 1),
    "kcore": (4, 4, 1),
    "hyperball": (5, 5, 2),
    "scc": (18, 31, 2),
    "bfs": (8, 12, 2),
    "redirect": (6, 4, 2),
    "condensation": (24, 41, 3),
}


def _small_graph() -> pd.DataFrame:
    rng = np.random.default_rng(7)
    src = rng.integers(0, 40, 160)
    dst = (src + rng.integers(1, 6, 160)) % 40
    ring = np.arange(40, 52)  # one 12-cycle beside the random part
    src = np.concatenate([src, ring])
    dst = np.concatenate([dst, np.roll(ring, -1)])
    return pd.DataFrame({"src": src, "dst": dst}).astype("int64").drop_duplicates()


def _sorts(dag) -> int:
    seen, stack, n = set(), [dag], 0
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        n += op.name == "Sort"
        stack.extend(op.input_dependencies)
    return n


def _count(monkeypatch, fn):
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        calls.append(_sorts(dag))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    try:
        out = fn()
        if hasattr(out, "materialize"):
            out.materialize()
    finally:
        monkeypatch.undo()
    return len(calls), sum(calls), calls.count(0)


def _run(op: str, frame: pd.DataFrame):
    import ray.data

    from dfg_gepris_crawler_ray.ops import graph as G

    edges = ray.data.from_pandas(frame)

    if op == "pagerank":
        return G.pagerank_ds(edges, n_iters=3)
    if op == "hits":
        return G.hits_ds(edges, n_iters=2)
    if op == "kcore":
        sym = pd.DataFrame(
            {"u": pd.concat([frame["src"], frame["dst"]], ignore_index=True),
             "v": pd.concat([frame["dst"], frame["src"]], ignore_index=True)}
        ).drop_duplicates()
        return G.kcore_ds(ray.data.from_pandas(sym), k=3)
    if op == "hyperball":
        return G.hyperball_ds(edges, rounds=2)
    if op == "bfs":
        return G.bfs_depth_ds(edges, ray.data.from_pandas(pd.DataFrame({"node": [0, 40]})))
    if op == "redirect":
        # alias chains of up to 15 hops: every id off a 16-boundary
        # redirects to its predecessor
        src = np.array([i for i in range(1, 64) if i % 16], dtype="int64")
        return G.redirect_resolve_ds(ray.data.from_pandas(pd.DataFrame({"src": src, "dst": src - 1})))
    if op == "condensation":
        return G.condensation_layers_ds(edges)
    return G.scc_ds(edges)


@pytest.mark.parametrize("op", sorted(BUDGET))
def test_iterative_graph_op_exchange_budget(ray_session, monkeypatch, op):
    frame = _small_graph()
    got = _count(monkeypatch, lambda: _run(op, frame))
    assert all(g <= b for g, b in zip(got, BUDGET[op])), (op, got, BUDGET[op])


SF = "/root/testdata/sf0.001"

# (Dataset executions, Sort operators) per relational op at sf0.001, as
# measured before the relational ops moved onto keyed_exchange /
# co_exchange; the port keeps them, except that incremental_dedup
# materializes its keep-min result before the anti-join (one more
# execution, measured (1, 2) before), which lets it finish at one CPU
REL_BUDGET = {
    "regional_nation_revenue": (1, 2),
    "two_nation_volume": (1, 2),
    "nation_market_share": (1, 2),
    "part_supplier_variety": (1, 2),
    "returned_orders_by_priority": (1, 1),
    "returned_orders_by_priority_bloom": (2, 1),
    "customers_without_orders": (2, 2),
    "incremental_dedup": (2, 2),
}


def _run_rel(op: str):
    from dfg_gepris_crawler_ray.ops import dedup
    from dfg_gepris_crawler_ray.ops import relational as R

    if op == "returned_orders_by_priority_bloom":
        return R.returned_orders_by_priority(SF, route="bloom")
    if op == "incremental_dedup":
        return dedup.incremental_dedup(SF, route="bucketed")
    return getattr(R, op)(SF)


@pytest.mark.parametrize("op", sorted(REL_BUDGET))
def test_relational_op_exchange_budget(ray_session, monkeypatch, op):
    got = _count(monkeypatch, lambda: _run_rel(op))
    assert got[:2] == REL_BUDGET[op], (op, got)


# (Dataset executions, Sort operators) per dedup / text-stats op at
# sf0.001, as measured before those ops moved onto keyed_exchange /
# co_exchange; the port may not exceed them (line_dedup_rewrite no
# longer materializes its chunk rows to count them: one execution less).
# The min-label components also pin their executions with no Sort, as
# measured once each round ran as one execution: dedup_clusters_distributed
# measured (10, 8) and then (8, 8) before, the shortcut form,
# reference_graph_components, (46, 33) and then (35, 33)
TEXT_BUDGET = {
    "minhash_lsh_broadcast": (2, 2),
    "minhash_lsh_bucketed": (2, 3),
    "ngram_jaccard_pairs": (1, 2),
    "containment_pairs": (1, 2),
    "dedup_clusters_distributed": (6, 8, 1),
    "reference_graph_components": (14, 33, 2),
    "simhash_neardup_pairs": (1, 2),
    "window_dedup": (1, 2),
    "line_dedup_rewrite": (2, 2),
    "tfidf_top_term": (1, 2),
    "textrank_keywords": (16, 19),
}


def _run_text(op: str):
    from dfg_gepris_crawler_ray.ops import dedup, graph, textstats

    if op.startswith("minhash_lsh_"):
        return dedup.minhash_lsh_dedup(SF, verify_route=op.rsplit("_", 1)[1])
    if op == "dedup_clusters_distributed":
        return dedup.dedup_clusters(SF, mode="distributed")
    if op == "reference_graph_components":  # the shortcut=True label loop
        return graph.reference_graph_components(SF)
    module = textstats if hasattr(textstats, op) else dedup
    return getattr(module, op)(SF)


@pytest.mark.parametrize("op", sorted(TEXT_BUDGET))
def test_text_op_exchange_budget(ray_session, monkeypatch, op):
    got = _count(monkeypatch, lambda: _run_text(op))
    assert all(g <= b for g, b in zip(got, TEXT_BUDGET[op])), (op, got, TEXT_BUDGET[op])


# (Dataset executions, Sort operators) per curation, classifier,
# decontamination, CDC, search and media op at sf0.001, as measured
# before their exchanges moved onto kernels.partitioning; the port keeps
# them
CORPUS_BUDGET = {
    "corpus_curation": (1, 1),
    "source_quota": (1, 1),
    "pretrain_pack_pipeline": (3, 2),
    "model_gated_corpus": (8, 1),
    "decontaminate_bucketed": (1, 2),
    "cdc_chunk_stats": (1, 2),
    "phrase_search": (2, 1),
    "media_phash_pairs": (2, 4),
}


def _run_corpus(op: str):
    from dfg_gepris_crawler_ray.ops import cdc, classifier, curation, decontaminate, multimodal, search

    if op == "decontaminate_bucketed":
        return decontaminate.decontaminate(SF, route="bucketed")
    for module in (curation, classifier, cdc, search, multimodal):
        if hasattr(module, op):
            return getattr(module, op)(SF)
    raise KeyError(op)


@pytest.mark.parametrize("op", sorted(CORPUS_BUDGET))
def test_corpus_op_exchange_budget(ray_session, monkeypatch, op):
    got = _count(monkeypatch, lambda: _run_corpus(op))
    assert got[:2] == CORPUS_BUDGET[op], (op, got)


def test_iterative_graph_ops_accept_an_empty_edge_set(ray_session):
    """Every iterative graph op runs on an empty edge Dataset: BFS keeps
    its seeds at depth 0, the others return no rows, and
    ``redirect_resolve_ds`` returns its typed ``(node, final, hops)``
    frame (it used to crash on a never-set ``resolved``)."""
    import ray.data

    from dfg_gepris_crawler_ray.ops import graph as G

    def empty(*cols):
        return ray.data.from_pandas(pd.DataFrame({c: pd.Series(dtype="int64") for c in cols}))

    runs = {
        "pagerank": lambda: G.pagerank_ds(empty("src", "dst"), n_iters=2),
        "hits": lambda: G.hits_ds(empty("src", "dst"), n_iters=2),
        "kcore": lambda: G.kcore_ds(empty("u", "v"), k=2),
        "hyperball": lambda: G.hyperball_ds(empty("src", "dst"), rounds=2),
        "harmonic": lambda: G.hyperball_ds(empty("src", "dst"), rounds=2, harmonic=True),
        "scc": lambda: G.scc_ds(empty("src", "dst")),
        "opic": lambda: G.opic_ds(empty("src", "dst"), n_rounds=2),
        "label_propagation": lambda: G.label_propagation_ds(empty("src", "dst"), n_rounds=2),
        "random_walks": lambda: G.random_walks_ds(empty("src", "dst"), n_steps=2),
    }
    for name, run in runs.items():
        assert len(run().to_pandas()) == 0, name

    seeds = ray.data.from_pandas(pd.DataFrame({"node": [3, 5]}))
    bfs = G.bfs_depth_ds(empty("src", "dst"), seeds, max_depth=2).to_pandas()
    assert sorted(zip(bfs["node"], bfs["depth"])) == [(3, 0), (5, 0)]

    red = G.redirect_resolve_ds(empty("src", "dst"))
    assert red.count() == 0
    schema = red.schema()
    assert schema.names == ["node", "final", "hops"] and all(str(t) == "int64" for t in schema.types)


def test_fixpoint_loops_raise_at_their_budget(ray_session):
    """A fixpoint loop whose round budget runs out while its change
    count is still above zero raises, and every such raise is the one in
    ``kernels.partitioning.supersteps``, worded by its op."""
    import ray.data

    from dfg_gepris_crawler_ray.ops import graph as G
    from dfg_gepris_crawler_ray.ops.dedup import _cluster_labels_distributed

    frame = _small_graph()
    edges = ray.data.from_pandas(frame)
    sym = pd.DataFrame(
        {"u": pd.concat([frame["src"], frame["dst"]], ignore_index=True),
         "v": pd.concat([frame["dst"], frame["src"]], ignore_index=True)}
    ).drop_duplicates()
    pairs = ray.data.from_pandas(frame.rename(columns={"src": "doc_a", "dst": "doc_b"}))
    runs = {
        "kcore_ds: no fixpoint after 1 peel rounds":
            lambda: G.kcore_ds(ray.data.from_pandas(sym), k=3, max_rounds=1),
        "relaxation did not settle in 1 rounds":
            lambda: G.condensation_layers_ds(edges, max_rounds=1),
        "min-label propagation did not converge in 1 rounds":
            lambda: _cluster_labels_distributed(pairs, max_rounds=1),
        "class refinement did not converge in 1 outer rounds":
            lambda: G.scc_ds(edges, max_outer=1),
    }
    for message, run in runs.items():
        with pytest.raises(RuntimeError, match=message) as raised:
            run()
        assert raised.traceback[-1].name == "supersteps", message
