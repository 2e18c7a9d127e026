"""End-to-end pipeline test over the deterministic sf0.001 corpus."""

import json

import pytest

from dfg_gepris_crawler_ray.testdata import gen_pages as G

SF_DIR = "/root/testdata/sf0.001"
N_DOCS = 500


@pytest.fixture(scope="module")
def pages_dir(ray_session):
    return G.ensure_pages(SF_DIR)


@pytest.fixture(scope="module")
def items_df(pages_dir):
    from dfg_gepris_crawler_ray.pipelines.details import run_details_extraction

    return run_details_extraction(pages_dir, num_buckets=16).to_pandas()


def test_row_counts_and_statuses(items_df):
    assert len(items_df) == N_DOCS
    counts = items_df["status"].value_counts().to_dict()
    moved = len([d for d in range(N_DOCS) if d % 101 == 5])
    error = len([d for d in range(N_DOCS) if d % 101 != 5 and d % 103 == 7])
    assert counts.get("moved", 0) == moved
    assert counts.get("error", 0) == error
    assert counts["success"] == N_DOCS - moved - error
    # status invariant from details_items_history (dfg-gepris.sql:44)
    assert (items_df["item"].notna() == (items_df["status"] == "success")).all()


def test_langretry_rows_succeed_with_two_attempts(items_df):
    # doc_id % 97 == 3 rows have a bad cached copy + good refreshed copy
    retry_ids = [1000 + d for d in range(N_DOCS)
                 if G.corrupt_kind(d) == "langretry"]
    assert retry_ids, "fixture must contain langretry rows"
    rows = items_df[items_df["id"].isin(retry_ids)]
    assert (rows["status"] == "success").all()
    assert (rows["attempts"] >= 2).all()


def test_projekt_item_matches_formulas(items_df):
    doc_id = 30  # projekt with result pages (30 % 15 == 0)
    row = items_df[items_df["id"] == 1000 + doc_id].iloc[0]
    item = json.loads(row["item"])
    assert item["name_de"] == f"Projekt {doc_id}"
    assert item["name_en"] == f"Project {doc_id}"
    attrs = item["attributes"]
    assert attrs["antragsteller_personen"] == [G.person_ref(doc_id, 1, N_DOCS)]
    assert attrs["leiter_personen"] == [G.person_ref(doc_id, 2, N_DOCS)]
    assert attrs["male_personen"] == [G.person_ref(doc_id, 1, N_DOCS)]
    assert attrs["female_personen"] == [G.person_ref(doc_id, 2, N_DOCS)]
    assert attrs["antragstellende_institutionen"] == [G.institution_ref(doc_id, 1, N_DOCS)]
    # doc 30: Förderung variant 30 % 4 == 2 → "in {1999+30%20}" → beginn == ende
    assert attrs["foerderung_beginn"] == attrs["foerderung_ende"] == 1999 + 30 % 20
    assert item["result"]["attributes"]["ergebnis_erstellungsjahr"] == 2004 + doc_id % 16
    assert item["result"]["ergebnis_publikationen"][0][0] == f"Publikation {doc_id}"


def test_person_item_matches_formulas(items_df):
    doc_id = 85  # person: 85 % 3 == 1; orcid (85 % 5 == 0); crucifix (85 % 17 == 0)
    row = items_df[(items_df["id"] == 1000 + doc_id)].iloc[0]
    item = json.loads(row["item"])
    assert item["verstorben"] is True
    assert item["name_de"].endswith(" ")  # crucifix removed, space kept
    assert item["gender"] == ["male", "female", "male", "unknown"][doc_id % 4]
    assert item["attributes"]["mail"] == f"user{doc_id}@example.org"
    assert item["attributes"]["orcid_id"] == f"0000-0002-{doc_id % 10000}"
    assert item["trees"]["normalised_projects"] == [
        {"Als Antragsteller": [str(G.projekt_ref(doc_id, 1, N_DOCS)),
                               str(G.projekt_ref(doc_id, 2, N_DOCS))]}
    ]


def test_institution_item_matches_formulas(items_df):
    doc_id = 8  # institution: 8 % 3 == 2; subinst tree (8 % 2 == 0)
    row = items_df[(items_df["id"] == 1000 + doc_id)].iloc[0]
    item = json.loads(row["item"])
    assert item["name_de"] == f"Institution {doc_id}, Abteilung {doc_id % 7}"
    assert item["attributes"]["telefon"] == f"+49 30 {doc_id}"
    subs = item["trees"]["normalised_subinstitutions"]
    assert subs[0] == str(G.institution_ref(doc_id, 1, N_DOCS))
    assert subs[1] == {
        str(G.institution_ref(doc_id, 2, N_DOCS)): [str(G.institution_ref(doc_id, 3, N_DOCS))]
    }


def test_replicated_bench_corpus_is_valid(ray_session):
    """The bench's tiled corpus (GRAFT_REPLICATE) must satisfy the same
    closed-form formulas at the effective doc ids — otherwise the
    headline throughput would measure wrong work."""
    import json

    from dfg_gepris_crawler_ray.pipelines.details import run_details_extraction
    from dfg_gepris_crawler_ray.testdata.gen_pages import ensure_pages

    n = 1500  # 500 docs x replicate 3
    items = run_details_extraction(
        ensure_pages(SF_DIR, replicate=3), num_buckets=16
    ).to_pandas()
    assert len(items) == n
    counts = items["status"].value_counts().to_dict()
    assert counts.get("moved", 0) == sum(1 for d in range(n) if d % 101 == 5)
    assert counts.get("error", 0) == sum(
        1 for d in range(n) if d % 101 != 5 and d % 103 == 7
    )
    d = 1200  # replica 2 of base doc 200 — formulas use the effective id
    item = json.loads(items[items["id"] == 1000 + d].iloc[0]["item"])
    assert item["name_de"] == f"Projekt {d}"
    assert item["attributes"]["antragsteller_personen"] == [
        1000 + 3 * ((d * 7 + 1) % ((n + 1) // 3)) + 1
    ]


def test_strict_mode_fails_loud_on_corrupt_rows(pages_dir):
    """SURVEY §7.4: closed-world errors become status rows in normal
    mode but must still fail loudly in strict test mode."""
    from dfg_gepris_crawler_ray.pipelines.details import run_details_extraction

    error_doc = next(d for d in range(N_DOCS) if d % 101 != 5 and d % 103 == 7)
    # surfaces as RayTaskError from workers or directly from the
    # driver-side boundary repair — loud either way
    with pytest.raises(Exception, match="unexpected structure"):
        run_details_extraction(
            pages_dir,
            frontier_keys=[(G.context_of(error_doc), 1000 + error_doc)],
            num_buckets=4,
            strict=True,
        ).materialize()
    # healthy entity passes strict mode
    ok_doc = next(
        d for d in range(N_DOCS) if G.corrupt_kind(d) is None
    )
    out = run_details_extraction(
        pages_dir,
        frontier_keys=[(G.context_of(ok_doc), 1000 + ok_doc)],
        num_buckets=4,
        strict=True,
    ).to_pandas()
    assert list(out["status"]) == ["success"]


def test_frontier_semi_join_limits_output(pages_dir):
    from dfg_gepris_crawler_ray.pipelines.details import run_details_extraction

    keys = [("person", 1001), ("projekt", 1000), ("institution", 1002)]
    df = run_details_extraction(pages_dir, frontier_keys=keys, num_buckets=4).to_pandas()
    assert sorted(zip(df["context"], df["id"])) == sorted(keys)


def test_host_health_matches_formula():
    """Per-host outcome counts equal the generator's corrupt-kind
    closed forms (moved %101, error %103, moved-precedence) joined to
    the host formula."""
    import pandas as pd
    import pyarrow.parquet as pq

    from dfg_gepris_crawler_ray.pipelines.derive import host_health
    from dfg_gepris_crawler_ray.pipelines.details import run_details_extraction
    from dfg_gepris_crawler_ray.testdata.gen_pages import ensure_pages, host_of

    sf = "/root/testdata/sf0.001"
    items = run_details_extraction(ensure_pages(sf), num_buckets=8)
    got = (
        host_health(items)
        .to_pandas()
        .sort_values("host")
        .reset_index(drop=True)
    )
    doc_ids = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id"]
    ).column("doc_id").to_pylist()
    rows: dict = {}
    for d in doc_ids:
        h = host_of(d)
        r = rows.setdefault(h, [0, 0, 0, 0])
        r[0] += 1
        if d % 101 == 5:
            r[2] += 1
        elif d % 103 == 7:
            r[3] += 1
        else:
            r[1] += 1
    want = pd.DataFrame(
        [(h, *r) for h, r in sorted(rows.items())],
        columns=["host", "n_total", "n_success", "n_moved", "n_error"],
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert want["n_error"].sum() > 0 and want["n_moved"].sum() > 0


def test_read_pages_prunes_listing_shards_only_for_detail_kinds(pages_dir):
    """A read of detail kinds skips the ``search_pages-*`` shards; a
    monitor read keeps them, since the monitor page lives there."""
    from dfg_gepris_crawler_ray.sources.pages import DETAIL_KINDS, annotate_pages, read_pages

    def kinds(wanted):
        ds = annotate_pages(read_pages(pages_dir, columns=["url"], kinds=wanted))
        return set(ds.to_pandas()["kind"])

    assert "monitor" in kinds(("monitor",))
    assert not kinds(DETAIL_KINDS) & {"search", "monitor"}
