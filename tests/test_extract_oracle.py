"""Differential oracle for the details stage.

The reference's HTML fixtures are not in this repo, so the extractor is
pinned by sha256 digests of its own output rows, computed once and
committed: any change to the fetch/validate/parse chain that moves one
byte of one row (status, item, error_kind, attempts, pages_fetched …)
fails here. The inputs are built in-process:

- the sf0.001 synthetic corpus (``gen_pages.pages_for_doc``);
- an enumerated fault corpus: one projekt entity with result pages per
  combination of copy states over its four page roles (de, en,
  result-de, result-en);
- a mixed webcache/gepris corpus through ``run_person_details``.
"""

import datetime
import hashlib
import itertools
import json
import os
import re
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

from dfg_gepris_crawler_ray.kernels import urls as U
from dfg_gepris_crawler_ray.pipelines.person_details import RESULT_SCHEMA as PERSON_SCHEMA
from dfg_gepris_crawler_ray.pipelines.person_details import run_person_details
from dfg_gepris_crawler_ray.sources.pages import annotate_batch, filter_detail_batch
from dfg_gepris_crawler_ray.stages.extract_stage import RESULT_SCHEMA, extract_bucket
from dfg_gepris_crawler_ray.testdata import gen_pages as G

SF = "/root/testdata/sf0.001"

T0 = datetime.datetime(2024, 1, 1)
NOT_FOUND = "Die angeforderte Seite konnte nicht gefunden werden."


def _digest(rows: list[dict], schema: pa.Schema) -> str:
    """sha256 over the sorted rows, every column of ``schema``."""
    lines = sorted(json.dumps([r[c] for c in schema.names], ensure_ascii=False) for r in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _extract(pages: list[dict]) -> list[dict]:
    tbl = pa.Table.from_pylist(pages, schema=G.PAGES_SCHEMA).select(["url", "warc_ts", "html"])
    return extract_bucket(filter_detail_batch(annotate_batch(tbl))).to_pylist()


def test_synthetic_corpus_digest():
    """Every entity of the sf0.001 corpus, including the generator's
    moved, error and language-retry rows."""
    docs = pq.read_table(os.path.join(SF, "documents.parquet"), columns=["doc_id", "text"])
    n = docs.num_rows
    pages = [
        page
        for doc_id, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
        for page in G.pages_for_doc(doc_id, text, n)
    ]
    rows = _extract(pages)
    assert len(rows) == n
    assert Counter(r["status"] for r in rows) == {"success": 490, "moved": 5, "error": 5}
    assert _digest(rows, RESULT_SCHEMA) == (
        "00d0d3074727dcd51bb65d1d2455de836c549e87279a06517232997df2f9009d"
    )


# --- the fault corpus -------------------------------------------------------

def _wrong_language(html: str, language: str) -> str:
    own, other = (G.HEAD_EN, G.HEAD_DE) if language == "en" else (G.HEAD_DE, G.HEAD_EN)
    return html.replace(own, other)


def _moved(html: str) -> str:
    return re.sub(r'(class="h2-context-title">)[^<]*', r"\g<1>" + NOT_FOUND, html)


#: copy state → the copies of one page role, oldest first; ``good`` and
#: ``blank`` are the role's page over the entity's text and over no text
STATES = {
    "good": lambda good, blank, lang: [good],
    "refreshed": lambda good, blank, lang: [_wrong_language(good, lang), good],
    "broken": lambda good, blank, lang: [good.replace(G.ABBR, "")] * 2,
    "moved": lambda good, blank, lang: [_moved(good)],
    "absent": lambda good, blank, lang: [],
    "wrong_language": lambda good, blank, lang: [_wrong_language(good, lang)],
    "stale": lambda good, blank, lang: [good, _wrong_language(good, lang)],
    # passes V1-V3, then its parse raises (no text to extract)
    "unparseable": lambda good, blank, lang: [blank],
}


def _fault_pages() -> list[dict]:
    """One projekt with result pages per combination of STATES over
    (de, en, result-de, result-en)."""
    combos = list(itertools.product(STATES, repeat=4))
    n_docs = 15 * (len(combos) + 1)
    pages = []
    for k, combo in enumerate(combos):
        doc_id = 15 * k  # projekt (% 3 == 0) with result pages (% 5 == 0)
        eid = G.entity_id(doc_id)
        text = f"Zusammenfassung {doc_id} " * 8
        roles = [
            (U.details_page_url(eid, "projekt", "de"), "de",
             G.projekt_de_html(doc_id, text, n_docs), G.projekt_de_html(doc_id, "", n_docs)),
            (U.details_page_url(eid, "projekt", "en"), "en",
             G.projekt_en_html(doc_id, text), G.projekt_en_html(doc_id, "")),
            (U.result_page_url(eid, "projekt", "de"), "de",
             G.projekt_result_html(doc_id, text, "de"), G.projekt_result_html(doc_id, "", "de")),
            (U.result_page_url(eid, "projekt", "en"), "en",
             G.projekt_result_html(doc_id, text, "en"), G.projekt_result_html(doc_id, "", "en")),
        ]
        for state, (url, lang, good, blank) in zip(combo, roles):
            for hour, html in enumerate(STATES[state](good, blank, lang)):
                when = T0 + datetime.timedelta(seconds=k, hours=hour)
                pages.append(dict(url=url, warc_ts=when, html=html.encode(), text=text, lang=lang))
    return pages


def test_fault_corpus_digest():
    rows = _extract(_fault_pages())
    assert len(rows) == len(STATES) ** 4 - 1  # all four absent: no entity
    assert Counter((r["status"], r["error_kind"]) for r in rows) == {
        ("success", None): 96,
        ("moved", None): 784,
        ("error", "language"): 1022,
        ("error", "structure"): 784,
        ("error", "other"): 690,
        ("error", "missing_page"): 719,
    }
    assert _digest(rows, RESULT_SCHEMA) == (
        "d4a57c916b3f13224961830d1a612787a32179a9ec83b38989bb0cb1bfc83e1f"
    )


# --- person_details ---------------------------------------------------------

def test_person_details_digest(tmp_path, ray_session):
    """The cache→gepris fallback over a mixed corpus: good, garbage and
    moved cache copies; gepris de and en copies; an id outside the set;
    a cached projekt URL, a person result page and listing URLs that
    are no person details page."""
    good = G.person_de_html(4, 30).encode()
    moved = G.person_de_html(4, 30, moved=True).encode()
    english = G.person_de_html(4, 30, wrong_language=True).encode()
    garbage = b"<html><body>Error 404</body></html>"
    cache = lambda eid, lang="de": U.google_cache_url(U.details_page_url(eid, "person", lang))
    gepris = lambda eid, lang="de": U.details_page_url(eid, "person", lang)
    hour = lambda h: T0 + datetime.timedelta(hours=h)
    rows = [
        (cache(1), hour(0), good), (gepris(1), hour(0), good),
        (cache(2), hour(0), garbage), (gepris(2), hour(0), good),
        (cache(3), hour(0), moved), (gepris(3), hour(0), good),
        (cache(4), hour(0), moved), (gepris(4), hour(0), moved),
        (gepris(5), hour(0), good), (gepris(5, "en"), hour(1), english),
        (gepris(6, "en"), hour(0), english), (gepris(6), hour(1), good),
        (cache(7), hour(0), garbage),
        (U.google_cache_url(U.details_url(8, "person")), hour(0), good),
        (cache(9, "en"), hour(0), good), (gepris(9), hour(1), garbage),
        (gepris(99), hour(0), good),
        (U.google_cache_url(U.details_url(10, "projekt")), hour(0), good),
        (U.google_cache_url(U.result_page_url(11, "person", "de")), hour(0), good),
        (U.data_monitor_url(), hour(0), good),
        (U.google_cache_url(U.search_results_url("person", 10, 0)), hour(0), good),
    ]
    pq.write_table(
        pa.table(
            {
                "url": pa.array([r[0] for r in rows], type=pa.string()),
                "warc_ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
                "html": pa.array([r[2] for r in rows], type=pa.binary()),
            }
        ),
        str(tmp_path / "pages.parquet"),
    )
    got = run_person_details(str(tmp_path), ids=list(range(1, 12))).take_all()
    assert sorted(r["id"] for r in got) == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    assert _digest(got, PERSON_SCHEMA) == (
        "9b5ca0d479437adee0f621e70b81f8ec8e79ac0363c9f6d9ae5903083e576521"
    )
