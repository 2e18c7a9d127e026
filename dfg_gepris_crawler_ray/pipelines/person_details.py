"""person_details run — the google-webcache alternate-source spider.

Reference: ``spiders/person_details.py:1-69`` — a politeness workaround
that fetches each person's details page from the google webcache first
and falls back to gepris per request via the errback chain
(person_details.py:64-67). Its parse (lines 54-63) emits the RAW
``details`` pairs (no ``nm_person`` normalisation) next to name and
trees; see :func:`...extract.details.parse_person_details_raw` for the
fidelity notes on the reference's own bugs.

Ray-Data shape: the id source is an explicit list/file (the spider
supports no ``db:`` source — person_details.py:20-33), so the id set
broadcasts. One Arrow pass per pages batch unwraps webcache URLs
(``source='cache'``, gepris_helper.py:27,44-45; every other URL is
``source='gepris'``) and selects the pages through the engine's
annotator, ``sources.pages.annotate_batch``: person details pages of a
wanted id, each in its ``entity_bucket``. ONE keyed shuffle by that
bucket co-locates both sources per person, and the group task prefers
the cache copy, falling back per entity to the gepris copy when the
cache copy is absent or fails validation — the batch-world observable
of the spider's request-errback chain (a google error page fails the
GEPRIS structure check). That fallback is not the details stage's
retry-with-refresh: a moved cache copy and any exception fall through
to gepris, and no refreshed copy is tried.
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..extract.details import parse_person_details_raw
from ..extract.validators import (
    PageDoesNotExistAnymoreError,
    check_details_exists,
    check_details_structure,
    check_language,
)
from ..kernels.htmlmini import parse_html
from ..kernels.jsoncanon import dumps_canonical
from ..kernels.urls import GOOGLE_CACHE_BASE_URL
from ..sources.pages import annotate_batch, entity_bucket, read_pages

RESULT_SCHEMA = pa.schema(
    [
        ("id", pa.int64()),
        ("name_de", pa.string()),
        ("details", pa.string()),  # canonical JSON of the raw pairs
        ("trees", pa.string()),  # canonical JSON
        ("source", pa.string()),  # 'cache' | 'gepris'
        ("status", pa.string()),  # success | moved | error
        ("attempts", pa.int64()),
    ]
)


def _parse_ids(ids, ids_file) -> set[int]:
    """Id source semantics of person_details.py:20-33 (comma string,
    list, or a json file of {"id": ...} records; duplicates collapse)."""
    if ids is not None:
        if isinstance(ids, str):
            ids = [int(x) for x in ids.split(",")]
    elif ids_file is not None:
        with open(ids_file) as f:
            ids = [p["id"] for p in json.load(f)]
    else:
        raise ValueError('Either "ids" or "ids_file" argument have to be not none')
    return {int(i) for i in ids}


def run_person_details(
    pages_dir: str,
    ids=None,
    ids_file=None,
    num_buckets: int = 16,
) -> "ray.data.Dataset":
    """One person_details crawl over the pages corpus; returns the item
    Dataset (RESULT_SCHEMA rows, one per id found in the corpus)."""
    ids_set = _parse_ids(ids, ids_file)
    ids_ref = ray.put(ids_set)

    ds = read_pages(pages_dir)

    def classify(batch: pa.Table) -> pa.Table:
        wanted = pa.array(sorted(ray.get(ids_ref)), type=pa.int64())
        url = batch.column("url")
        cached = pc.starts_with(url, GOOGLE_CACHE_BASE_URL)
        inner = pc.if_else(cached, pc.utf8_slice_codeunits(url, len(GOOGLE_CACHE_BASE_URL)), url)
        pages = annotate_batch(batch.set_column(batch.schema.get_field_index("url"), "url", inner))
        keep = pc.and_(
            pc.and_(pc.equal(pages["kind"], "details"), pc.equal(pages["context"], "person")),
            pc.is_in(pages["id"], value_set=wanted),
        )
        pages = pages.append_column("source", pc.if_else(cached, "cache", "gepris")).filter(keep)
        keys = pc.binary_join_element_wise("person", pc.cast(pages["id"], pa.string()), "/")
        bucket = entity_bucket(keys.to_numpy(zero_copy_only=False), num_buckets)
        return pages.select(["id", "source", "warc_ts", "html"]).append_column(
            "bucket", pa.array(bucket, type=pa.int32())
        )

    classified = ds.map_batches(classify, batch_format="pyarrow", zero_copy_batch=True)

    def extract_group(tbl: pa.Table) -> pa.Table:
        by_id: dict[int, dict[str, list]] = {}
        ids_l = tbl.column("id").to_pylist()
        src_l = tbl.column("source").to_pylist()
        ts_l = tbl.column("warc_ts").to_pylist()
        html_l = tbl.column("html").to_pylist()
        for i, s, t, h in zip(ids_l, src_l, ts_l, html_l):
            by_id.setdefault(int(i), {"cache": [], "gepris": []})[s].append((t, h))
        rows = []
        for eid in sorted(by_id):
            copies = by_id[eid]
            row = None
            attempts = 0
            last_error = None
            # cache first, gepris on failure — the errback chain
            for source in ("cache", "gepris"):
                variants = [h for _, h in sorted(copies[source], key=lambda p: p[0])]
                if not variants:
                    continue
                attempts += 1
                try:
                    root = parse_html(variants[0])
                    check_details_structure(root)
                    check_details_exists(root)
                    check_language(root, "de")
                    item = parse_person_details_raw(root, eid)
                    row = dict(
                        id=eid,
                        name_de=item["name_de"],
                        details=dumps_canonical(item["details"]),
                        trees=dumps_canonical(item["trees"]),
                        source=source,
                        status="success",
                        attempts=attempts,
                    )
                    break
                except PageDoesNotExistAnymoreError:
                    if source == "gepris":
                        row = dict(
                            id=eid, name_de=None, details=None, trees=None,
                            source=source, status="moved", attempts=attempts,
                        )
                        break
                    # a cached copy of the not-found page: distrust the
                    # cache, re-check against the live source
                    last_error = "moved"
                except Exception as exc:  # structure/language/parse
                    last_error = type(exc).__name__
            if row is None:
                row = dict(
                    id=eid, name_de=None, details=None, trees=None,
                    source="gepris", status="error", attempts=attempts,
                )
                row["details"] = dumps_canonical([["error", last_error]])
            rows.append(row)
        return pa.Table.from_pylist(rows, schema=RESULT_SCHEMA)

    return classified.groupby("bucket").map_groups(
        extract_group, batch_format="pyarrow"
    )
