"""Search-listing extraction stage (map_batches over listing pages)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..extract.data_monitor import parse_data_monitor
from ..extract.search import extract_total_items, parse_search_page
from ..kernels.htmlmini import parse_html
from ..kernels.jsoncanon import dumps_canonical

SEARCH_RESULT_SCHEMA = pa.schema(
    [
        ("id", pa.int64()),
        ("context", pa.string()),
        ("item", pa.string()),
        ("page_index", pa.int64()),
        ("page_total", pa.int64()),
    ]
)


def extract_search_batch(batch: pa.Table) -> pa.Table:
    """One annotated search page per row → one row per search result.

    The ``total_items`` each page reports is carried per row
    (``page_total``) — the scout/pagination contract ST2
    (search_results.py:15,40-44,69-79) is asserted downstream.
    """
    rows = []
    contexts = batch.column("context").to_pylist()
    indexes = batch.column("index").to_pylist() if "index" in batch.column_names else None
    htmls = batch.column("html").to_pylist()
    for i in range(batch.num_rows):
        root = parse_html(htmls[i])
        total = extract_total_items(root)
        items = parse_search_page(root, contexts[i])
        for it in items:
            rows.append(
                dict(
                    id=int(it["id"]),
                    context=contexts[i],
                    item=dumps_canonical(it),
                    page_index=indexes[i] if indexes else -1,
                    page_total=total if total is not None else -1,
                )
            )
    return pa.Table.from_pylist(rows, schema=SEARCH_RESULT_SCHEMA)


def extract_listing_batch(batch: pa.Table) -> pa.Table:
    """Annotated listing pages → :data:`SEARCH_RESULT_SCHEMA` rows.

    Search pages give :func:`extract_search_batch`'s rows. The
    data-monitor page gives one row with ``context=""``, ``id=-1`` and
    the canonical JSON of its :func:`parse_data_monitor` item (ints and
    ISO strings, so ``json.loads`` returns the same dict) — one pass
    serves the monitor and every context's search run.
    """
    is_monitor = pc.equal(batch.column("kind"), "monitor")
    monitor = [
        dict(id=-1, context="", page_index=-1, page_total=-1,
             item=dumps_canonical(parse_data_monitor(parse_html(html))))
        for html in batch.filter(is_monitor).column("html").to_pylist()
    ]
    return pa.concat_tables([
        extract_search_batch(batch.filter(pc.invert(is_monitor))),
        pa.Table.from_pylist(monitor, schema=SEARCH_RESULT_SCHEMA),
    ])
