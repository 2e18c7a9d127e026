"""person_details spider port (reference spiders/person_details.py):
raw-details parse golden against the reference person fixture (skipped
when the reference fixtures are absent), and the cache→gepris
per-entity fallback chain through the pipeline on a generated person
page."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dfg_gepris_crawler_ray.extract.details import parse_person_details_raw
from dfg_gepris_crawler_ray.kernels.htmlmini import parse_html
from dfg_gepris_crawler_ray.kernels.urls import details_page_url, google_cache_url, details_url
from dfg_gepris_crawler_ray.pipelines.person_details import run_person_details
from dfg_gepris_crawler_ray.testdata.gen_pages import person_de_html

FIXTURE = (
    "/root/reference/test/resources/responses/details/"
    "person_215969423_de_22102021.html"
)


@pytest.fixture(autouse=True)
def _ray(ray_session):
    yield


def _fixture_html() -> bytes:
    with open(FIXTURE, "rb") as f:
        return f.read()


def _person_html() -> bytes:
    """Generated person page of doc 4: name 'Professor Dr. Vorname
    Nachname 4', address 'Institut 4', 'Weg 4 1', '10004 Stadt'."""
    return person_de_html(4, 30).encode()


@pytest.mark.skipif(not os.path.isfile(FIXTURE), reason="reference fixtures not available")
def test_parse_person_details_raw_golden():
    """The spider's parse (person_details.py:54-63) on the reference
    person fixture: first-text-node name, RAW per-row details pairs
    (no nm_person), normalised trees."""
    item = parse_person_details_raw(parse_html(_fixture_html()), 215969423)
    assert item["id"] == 215969423
    assert item["name_de"] == "Professor Dr. Oliver Cornely"
    assert item["details"] == [
        [
            [
                "Adresse",
                [
                    "Universitätsklinikum Köln",
                    "Zentrum für Klinische Studien Köln (ZKS)",
                    "Herder Straße 52-54",
                    "50931 Köln",
                ],
            ]
        ],
        [
            [
                "Internet",
                {
                    "value": "tinyurl.com/cornelylab",
                    "path": "https://tinyurl.com/cornelylab",
                },
            ]
        ],
    ]
    assert item["trees"] == {
        "normalised_projects": [
            {
                "Als beteiligter Wissenschaftler": [
                    {"laufende Projekte": ["390661388"]},
                    {"abgeschlossene Projekte": ["39010820"]},
                ]
            }
        ]
    }


def _write_pages(path, rows):
    tbl = pa.table(
        {
            "url": pa.array([r[0] for r in rows], type=pa.string()),
            "warc_ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "html": pa.array([r[2] for r in rows], type=pa.binary()),
        }
    )
    pq.write_table(tbl, str(path))


def test_person_details_fallback_chain(tmp_path):
    """Three persons through the pipeline: a good cache copy is served
    from the cache source; a garbage cache copy (the batch-world
    observable of a failed webcache request) falls back to gepris; no
    cache copy goes straight to gepris."""
    import datetime

    html = _person_html()
    t0 = datetime.datetime(2021, 10, 22)
    rows = [
        # id 1: good cache + gepris
        (google_cache_url(details_url(1, "person")), t0, html),
        (details_page_url(1, "person", "de"), t0, html),
        # id 2: garbage cache + good gepris → fallback
        (google_cache_url(details_url(2, "person")), t0, b"<html><body>Error 404</body></html>"),
        (details_page_url(2, "person", "de"), t0, html),
        # id 3: gepris only
        (details_page_url(3, "person", "de"), t0, html),
    ]
    _write_pages(tmp_path / "pages.parquet", rows)

    out = (
        run_person_details(str(tmp_path), ids=[1, 2, 3, 4])
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    # id 4 has no pages → no row (like the details run)
    assert out["id"].tolist() == [1, 2, 3]
    assert out["source"].tolist() == ["cache", "gepris", "gepris"]
    assert out["status"].tolist() == ["success"] * 3
    assert out["attempts"].tolist() == [1, 2, 1]
    assert set(out["name_de"]) == {"Professor Dr. Vorname Nachname 4"}
    details = json.loads(out.loc[0, "details"])
    assert details[0] == [["Adresse", ["Institut 4", "Weg 4 1", "10004 Stadt"]]]


def test_person_details_ids_string_and_dedup(tmp_path):
    """Id source semantics: comma string, duplicates collapse, and the
    ids/ids_file requirement (person_details.py:20-33)."""
    import datetime

    rows = [
        (details_page_url(7, "person", "de"), datetime.datetime(2021, 1, 1), _person_html()),
    ]
    _write_pages(tmp_path / "pages.parquet", rows)
    out = run_person_details(str(tmp_path), ids="7,7,7").to_pandas()
    assert out["id"].tolist() == [7]
    assert out["name_de"].tolist() == ["Professor Dr. Vorname Nachname 4"]
    with pytest.raises(ValueError):
        run_person_details(str(tmp_path))
