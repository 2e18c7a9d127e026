"""Per-partition checkpoint/resume (pipelines.checkpoint)."""

import json
import os

import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(autouse=True)
def _ray(ray_session):
    yield


@pytest.fixture()
def pages_dir():
    from dfg_gepris_crawler_ray.testdata.gen_pages import ensure_pages

    return ensure_pages(SF)


def test_resume_skips_completed_shards(pages_dir, tmp_path):
    from dfg_gepris_crawler_ray.pipelines.checkpoint import (
        read_sharded_items,
        run_details_sharded,
        shard_completed,
    )
    from dfg_gepris_crawler_ray.pipelines.details import run_details_extraction

    out = str(tmp_path / "out")
    # phase 1: "fail" after two shards
    r1 = run_details_sharded(pages_dir, out, num_shards=4, num_buckets=16, max_shards=2)
    assert r1["completed"] == [0, 1] and r1["skipped"] == []
    assert shard_completed(out, 0) and not shard_completed(out, 2)
    mtimes = {
        s: os.path.getmtime(os.path.join(out, f"shard={s}", "manifest.json"))
        for s in (0, 1)
    }

    # phase 2: resume completes the rest without touching done shards
    r2 = run_details_sharded(pages_dir, out, num_shards=4, num_buckets=16)
    assert r2["skipped"] == [0, 1] and r2["completed"] == [2, 3]
    for s in (0, 1):
        assert os.path.getmtime(os.path.join(out, f"shard={s}", "manifest.json")) == mtimes[s]

    # the union of shards equals the unsharded pipeline output
    sharded = read_sharded_items(out).to_pandas()
    whole = run_details_extraction(pages_dir, num_buckets=16).to_pandas()
    key = lambda df: sorted(zip(df["id"], df["context"], df["status"]))
    assert key(sharded) == key(whole)

    # idempotent third invocation: everything skipped
    r3 = run_details_sharded(pages_dir, out, num_shards=4, num_buckets=16)
    assert r3["skipped"] == [0, 1, 2, 3] and r3["completed"] == []


def test_torn_write_detected_and_rerun(pages_dir, tmp_path):
    from dfg_gepris_crawler_ray.pipelines.checkpoint import (
        run_details_sharded,
        shard_completed,
    )

    out = str(tmp_path / "out")
    run_details_sharded(pages_dir, out, num_shards=4, num_buckets=16)
    # truncate one part file → manifest verification fails
    shard_dir = os.path.join(out, "shard=2")
    part = next(
        os.path.join(shard_dir, f)
        for f in os.listdir(shard_dir)
        if f.endswith(".parquet")
    )
    with open(part, "wb") as f:
        f.write(b"torn")
    assert not shard_completed(out, 2)
    r = run_details_sharded(pages_dir, out, num_shards=4, num_buckets=16)
    assert r["completed"] == [2]
    assert shard_completed(out, 2)


def test_parameter_mismatch_refused(pages_dir, tmp_path):
    from dfg_gepris_crawler_ray.pipelines.checkpoint import run_details_sharded

    out = str(tmp_path / "out")
    run_details_sharded(pages_dir, out, num_shards=4, num_buckets=16, max_shards=1)
    with pytest.raises(ValueError, match="mismatch"):
        run_details_sharded(pages_dir, out, num_shards=8, num_buckets=16)


def test_manifest_lineage_fields(pages_dir, tmp_path):
    from dfg_gepris_crawler_ray.pipelines.checkpoint import run_details_sharded

    out = str(tmp_path / "out")
    run_details_sharded(pages_dir, out, num_shards=4, num_buckets=16, max_shards=1)
    with open(os.path.join(out, "shard=0", "manifest.json")) as f:
        m = json.load(f)
    assert m["pages_dir"] == pages_dir
    assert m["buckets"] == [0, 4, 8, 12]
    assert m["rows"] == sum(m["status_counts"].values())
    assert len(m["content_hash"]) == 64


def test_compact_table_ds_preserves_contents(tmp_path):
    """Compaction rewrites a many-file state table into few files via
    the versioned-artifact + pointer-swap publish: identical rows,
    fewer files, bumped pointer seq; small tables are left alone."""
    import json

    import pandas as pd
    import ray.data

    from dfg_gepris_crawler_ray.frontier.manifests import CrawlStore

    store = CrawlStore(str(tmp_path))
    df = pd.DataFrame({"id": range(1000), "v": [f"x{i}" for i in range(1000)]})
    store.save_table_ds("state", ray.data.from_pandas(df).repartition(40))
    live = store._resolve_live("state")
    n_before = sum(1 for f in os.listdir(live) if f.endswith(".parquet"))
    assert n_before > 8
    seq_before = store._read_pointer("state")["seq"]

    compacted = store.compact_table_ds("state", target_blocks=4)
    assert compacted == n_before
    live2 = store._resolve_live("state")
    assert live2 != live  # new versioned artifact
    n_after = sum(1 for f in os.listdir(live2) if f.endswith(".parquet"))
    assert n_after <= 8
    assert store._read_pointer("state")["seq"] == seq_before + 1
    out = (
        store.load_table_ds("state", df.iloc[:0])
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, df)
    assert not os.path.exists(live)  # stale version GC'd

    # second compaction is a no-op (already compact)
    assert store.compact_table_ds("state", target_blocks=4) == 0


def test_empty_ds_tables_are_typed(tmp_path):
    """A store with no ``state`` / ``history`` yet loads them as empty
    Datasets of the tables' canonical Arrow types, never a ``null``
    column (an object-dtype empty frame made Ray log a size error per
    column on every map over it)."""
    import pyarrow as pa

    from dfg_gepris_crawler_ray.frontier import state as S
    from dfg_gepris_crawler_ray.frontier.manifests import CrawlStore

    store = CrawlStore(str(tmp_path))
    for name, empty in (("state", S.empty_state()), ("history", S.empty_history())):
        ds = store.load_table_ds(name, empty)
        schema = ds.schema()
        assert list(schema.names) == list(empty.columns)
        assert not any(pa.types.is_null(t) for t in schema.types), schema
        assert ds.count() == 0
