"""Layout immunity of the details pipeline (pipelines/details.py):
the bucket groupby co-locates every page variant of an entity wherever
the corpus stores it.

Permute the pages corpus into random row order, so that entities
straddle block interiors, and verify that the items are byte-identical
to those of the corpus in its generated (key-clustered) order.
"""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def shuffled_pages(tmp_path_factory):
    import numpy as np

    from dfg_gepris_crawler_ray.testdata.gen_pages import ensure_pages

    src = ensure_pages(SF)
    tbl = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(src + "/*.parquet"))]
    )
    rng = np.random.default_rng(7)
    perm = rng.permutation(tbl.num_rows)
    shuffled = tbl.take(perm)
    out = str(tmp_path_factory.mktemp("shuffled_pages"))
    rows_per_file = tbl.num_rows // 4 + 1
    for i in range(4):
        pq.write_table(
            shuffled.slice(i * rows_per_file, rows_per_file),
            os.path.join(out, f"part-{i}.parquet"),
        )
    return out


def _items(pages_dir):
    from dfg_gepris_crawler_ray.pipelines.details import run_details_extraction

    return run_details_extraction(pages_dir, num_buckets=8).to_pandas()


def test_shuffle_mode_immune_to_layout(shuffled_pages, ray_session):
    from dfg_gepris_crawler_ray.testdata.gen_pages import ensure_pages

    truth = _items(ensure_pages(SF))
    got = _items(shuffled_pages)
    key = lambda df: sorted(zip(df["id"], df["context"], df["status"], df["item"].fillna("")))
    assert key(got) == key(truth)
