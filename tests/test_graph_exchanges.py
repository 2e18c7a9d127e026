"""Exchange budget and empty-input behaviour of the iterative graph ops.

Every keyed exchange in ``ops/graph.py`` runs through
``kernels.partitioning.co_exchange`` / ``keyed_exchange``; these tests
pin how many Dataset executions and sort-shuffles (``Sort`` operators)
each iterative op runs on a small graph, so a change that adds an
exchange per round shows up here, and check that every iterative op
returns a typed empty result on an empty edge set.
"""

import numpy as np
import pandas as pd
import pytest

# (Dataset executions, Sort operators) per op on _small_graph(), as
# measured before the graph ops moved onto co_exchange; the port may
# not exceed them
BUDGET = {
    "pagerank": (10, 7),
    "hits": (14, 10),
    "kcore": (8, 4),
    "hyperball": (5, 5),
    "scc": (37, 31),
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
        fn().materialize()
    finally:
        monkeypatch.undo()
    return len(calls), sum(calls)


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
    return G.scc_ds(edges)


@pytest.mark.parametrize("op", sorted(BUDGET))
def test_iterative_graph_op_exchange_budget(ray_session, monkeypatch, op):
    frame = _small_graph()
    got = _count(monkeypatch, lambda: _run(op, frame))
    executions, sorts = BUDGET[op]
    assert got[0] <= executions and got[1] <= sorts, (op, got, BUDGET[op])


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
