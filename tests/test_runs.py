"""Full crawl-run integration tests over the sf0.001 corpus:
search → details → monitor, with state transitions, manifests,
frontier priority and host budgets."""

import json

import pandas as pd
import pytest

from dfg_gepris_crawler_ray.frontier import state as S
from dfg_gepris_crawler_ray.frontier.manifests import CrawlStore
from dfg_gepris_crawler_ray.pipelines import runs as R
from dfg_gepris_crawler_ray.testdata import gen_pages as G

SF_DIR = "/root/testdata/sf0.001"
N_DOCS = 500


@pytest.fixture(scope="module")
def pages_dir(ray_session):
    return G.ensure_pages(SF_DIR)


@pytest.fixture()
def store(tmp_path):
    return CrawlStore(str(tmp_path / "store"))


def _host_lookup(context, entity_id):
    return G.host_of(entity_id - 1000)


def test_search_then_details_projekt(pages_dir, store):
    out = R.run_search(store, pages_dir, "projekt")
    n_projekt = len([d for d in range(N_DOCS) if d % 3 == 0])
    assert len(out["items"]) == n_projekt
    assert out["totals"] == [n_projekt]  # every page reports the same total

    state = store.load_table("state", S.empty_state())
    assert len(state) == n_projekt
    assert state["detail_check_needed"].all()  # first sighting → True
    assert (state["last_available_seen"] == 1).all()

    # details run on a budget: J1 priority (all never-checked → state order)
    out2 = R.run_details(
        store, pages_dir, "projekt", ids_spec="db:all:50",
        host_lookup=_host_lookup,
    )
    assert out2["run_id"] == 2
    assert len(out2["delta"]) == 50
    state = store.load_table("state", S.empty_state())
    checked = state[state["last_detail_check"].notna()]
    assert len(checked) == 50
    assert (~checked["detail_check_needed"].astype(bool)).all()

    # frontier expansion (J5): referenced persons appear as new frontier rows
    persons = state[state["context"] == "person"]
    assert len(persons) > 0
    assert persons["detail_check_needed"].all()
    assert persons["last_available_seen"].isna().all()

    # manifest lineage
    m = store.read_manifest(2)
    assert m["status_counts"]["success"] > 0
    assert m["frontier_size"] == 50
    assert store.completed_runs() == [1, 2]


def test_details_search_change_detection(pages_dir, store):
    R.run_search(store, pages_dir, "person")
    state1 = store.load_table("state", S.empty_state())
    # rerun search: identical items → seen bumps, change stays, needed unchanged
    R.run_search(store, pages_dir, "person")
    state2 = store.load_table("state", S.empty_state())
    assert (state2["last_available_seen"] == 2).all()
    pd.testing.assert_series_equal(
        state1["last_available_change"], state2["last_available_change"]
    )


def test_details_moved_and_error_states(pages_dir, store):
    moved_docs = [d for d in range(N_DOCS) if d % 3 == 1 and G.corrupt_kind(d) == "moved"]
    error_docs = [d for d in range(N_DOCS) if d % 3 == 1 and G.corrupt_kind(d) == "error"]
    assert moved_docs and error_docs
    ids = [1000 + d for d in moved_docs + error_docs]
    out = R.run_details(store, pages_dir, "person", ids_spec=ids)
    delta = out["delta"]
    assert set(delta[delta["status"] == "moved"]["id"]) == {1000 + d for d in moved_docs}
    assert set(delta[delta["status"] == "error"]["id"]) == {1000 + d for d in error_docs}
    history = store.load_table("history", S.empty_history())
    assert (history["item"].notna() == (history["status"] == "success")).all()
    # moved/error rows still got their detail-check upsert (J3)
    state = store.load_table("state", S.empty_state())
    assert (state[state["id"].isin(ids)]["last_detail_check"] == 1).all()


def test_host_budget_caps_frontier(pages_dir, store):
    R.run_search(store, pages_dir, "institution")
    out = R.run_details(
        store, pages_dir, "institution", ids_spec="db:needed:200",
        host_lookup=_host_lookup, max_per_host=5,
    )
    frontier = out["frontier"]
    assert (frontier.groupby("host").size() <= 5).all()
    assert list(frontier["fetch_seq"]) == list(range(len(frontier)))
    # remainder stays needed in the frontier for the next run
    state = store.load_table("state", S.empty_state())
    needed = state[(state["context"] == "institution") & state["detail_check_needed"]]
    assert len(needed) > 0


def test_data_monitor_run(pages_dir, store):
    out = R.run_data_monitor(store, pages_dir)
    item = out["item"]
    assert item["project_count"] == 136266
    assert item["finished_project_count"] == 34874
    assert item["last_update"] == "2021-10-12"
    assert item["current_index_date"].startswith("2021-10-12T03:00:10")
    assert R.get_latest_dm_stat(store, "person_count") == 87475


def test_ids_spec_variants(tmp_path, store):
    state = S.empty_state()
    runs = S.empty_runs()
    assert R.parse_ids_spec("[3,1,2]", state, runs, "projekt") == [1, 2, 3]
    p = tmp_path / "ids.json"
    p.write_text(json.dumps([{"id": 9}, {"id": 4}]))
    assert R.parse_ids_spec(str(p), state, runs, "projekt") == [4, 9]
    with pytest.raises(ValueError):
        R.parse_ids_spec("nonsense", state, runs, "projekt")


def test_downstream_edges_match_formulas(pages_dir, store):
    R.run_details(store, pages_dir, "projekt", ids_spec=[1000 + 3, 1000 + 6])
    history = store.load_table("history", S.empty_history())
    runs = store.load_table("runs", S.empty_runs())
    latest = S.latest_detail_items(history, runs)
    edges = S.person_projekt_references(latest)
    for d in (3, 6):
        sub = edges[edges["projekt_id"] == 1000 + d]
        expected = {
            (G.person_ref(d, 1, N_DOCS), "antragsteller_personen"),
            (G.person_ref(d, 2, N_DOCS), "leiter_personen"),
            (G.person_ref(d, 3, N_DOCS), "beteiligte_personen"),
            (G.person_ref(d, 4, N_DOCS), "beteiligte_personen"),
        }
        assert {(int(r.person_id), r.reference_type) for r in sub.itertuples()} == expected
