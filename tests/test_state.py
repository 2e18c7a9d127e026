"""Golden state-machine tests, replaying the reference's DB-behavior
goldens (test/test_database.py) over the Parquet-backed state tables."""

import pandas as pd

from dfg_gepris_crawler_ray.frontier import state as S
from dfg_gepris_crawler_ray.kernels.jsoncanon import dumps_canonical


def _runs(*rows):
    return pd.DataFrame(
        [
            dict(id=r[0], spider=r[1], context=r[2], run_started_at=r[3],
                 run_ended_at=None, total_scraped_items=None)
            for r in rows
        ]
    )


def _state_row(id, context, seen, change, item, ldc, needed):
    return dict(
        id=id, context=context, last_available_seen=seen,
        last_available_change=change, last_available_item=item,
        last_detail_check=ldc, detail_check_needed=needed,
    )


def test_get_ids_priority_ordering():
    # golden: test_database.py:20-38
    runs = _runs((1, "search_results", "projekt", 10), (2, "details", "projekt", 20),
                 (3, "details", "projekt", 30))
    state = pd.DataFrame(
        [
            _state_row(3, "projekt", 1, 1, '{"name_de":"test3"}', 2, False),
            _state_row(4, "projekt", 1, 1, '{"name_de":"test4"}', 1, True),
            _state_row(1, "projekt", 1, 1, '{"name_de":"test1"}', None, True),
            _state_row(2, "projekt", 1, 1, '{"name_de":"test2"}', None, True),
        ]
    )
    assert S.get_ids(state, runs, "projekt") == [1, 2, 4, 3]
    assert S.get_ids(state, runs, "projekt", limit=2) == [1, 2]
    assert S.get_ids(state, runs, "projekt", only_needed=True) == [1, 2, 4]
    assert S.get_ids(state, runs, "projekt", limit=2, only_needed=True) == [1, 2]
    assert S.get_ids(state, runs, "person", limit=2, only_needed=True) == []


def test_upsert_search_and_details_state_machine():
    # golden: test_database.py:40-88
    item1 = dumps_canonical({"id": 1, "name_de": "p1"})
    state = S.empty_state()

    state = S.upsert_from_search(state, [(1, item1)], "projekt", run_id=1)
    r = state.iloc[0]
    assert (r["last_available_seen"], r["last_available_change"]) == (1, 1)
    assert r["last_available_item"] == item1
    assert pd.isna(r["last_detail_check"]) and r["detail_check_needed"] == True  # noqa: E712

    # same item again → seen bumps, change stays
    state = S.upsert_from_search(state, [(1, item1)], "projekt", run_id=2)
    r = state.iloc[0]
    assert (r["last_available_seen"], r["last_available_change"]) == (2, 1)

    # changed item → change bumps
    item3 = dumps_canonical({"id": 1, "name_de": "p3"})
    state = S.upsert_from_search(state, [(1, item3)], "projekt", run_id=3)
    r = state.iloc[0]
    assert (r["last_available_seen"], r["last_available_change"]) == (3, 3)
    assert r["last_available_item"] == item3

    # details upsert → detail columns only
    state = S.upsert_from_details(state, [1], "projekt", run_id=4)
    r = state.iloc[0]
    assert (r["last_available_seen"], r["last_available_change"]) == (3, 3)
    assert r["last_available_item"] == item3
    assert (r["last_detail_check"], r["detail_check_needed"]) == (4, False)

    # details upsert of unknown key → insert-if-absent with null search cols
    state = S.upsert_from_details(state, [2], "projekt", run_id=4)
    r = state[state["id"] == 2].iloc[0]
    assert pd.isna(r["last_available_seen"]) and pd.isna(r["last_available_item"])
    assert (r["last_detail_check"], r["detail_check_needed"]) == (4, False)

    # later search sees key 2 with an item: first-seen-change on existing row
    item2 = dumps_canonical({"id": 2, "name_de": "p1"})
    state = S.upsert_from_search(state, [(2, item2)], "projekt", run_id=5)
    r = state[state["id"] == 2].iloc[0]
    assert (r["last_available_seen"], r["last_available_change"]) == (5, 5)
    # previously_seen was False → detail_check_needed NOT flipped
    assert (r["last_detail_check"], r["detail_check_needed"]) == (4, False)


def test_expand_person_frontier():
    # golden: test_database.py:90-124
    state = S.empty_state()
    state = S.upsert_from_search(
        state, [(100, dumps_canonical({"id": 100, "name_de": "test"}))], "projekt", 1
    )
    state = S.upsert_from_search(
        state, [(201, dumps_canonical({"id": 201, "name_de": "test"}))], "person", 2
    )
    history = S.empty_history()
    item = dumps_canonical({"id": 100, "attributes": {"antragsteller_personen": [200, 201]}})
    history = S.insert_detail_items(
        history, S.empty_runs(),
        [dict(id=100, context="projekt", created_at=3, item=item, status="success")],
    )
    state = S.expand_person_frontier(state, history, run_id=3)

    created = state[(state["id"] == 200) & (state["context"] == "person")].iloc[0]
    assert pd.isna(created["last_available_seen"]) and pd.isna(created["last_detail_check"])
    assert created["detail_check_needed"] == True  # noqa: E712
    existing = state[(state["id"] == 201) & (state["context"] == "person")].iloc[0]
    assert existing["last_available_seen"] == 2  # untouched


def test_mark_not_found():
    # golden: test_database.py:126-145
    item1 = dumps_canonical({"id": 1, "name_de": "p1"})
    state = S.upsert_from_search(S.empty_state(), [(1, item1)], "projekt", 1)
    state = S.mark_not_found(state, "projekt", run_id=2)
    r = state.iloc[0]
    assert (r["last_available_seen"], r["last_available_change"]) == (1, 2)
    assert r["last_available_item"] is None or pd.isna(r["last_available_item"])
    assert r["detail_check_needed"] == True  # noqa: E712


def test_mark_projekts_for_moved_institution():
    # golden: test_database.py:147-196
    runs = _runs((1, "search_results", "projekt", 10), (2, "details", "projekt", 20),
                 (3, "search_results", "institution", 30), (4, "details", "institution", 40))
    state = pd.DataFrame(
        [
            _state_row(100, "projekt", 1, 1, '{"name_de":"p100"}', None, False),
            _state_row(101, "projekt", 1, 1, '{"name_de":"p101"}', None, False),
            _state_row(200, "institution", 3, 3, '{"name_de":"i200"}', None, False),
            _state_row(201, "institution", 3, 3, '{"name_de":"i201"}', None, False),
        ]
    )
    history = pd.DataFrame(
        [
            dict(id=100, context="projekt", created_at=2,
                 item=dumps_canonical({"attributes": {"unternehmen_institutionen": [200]}}),
                 status="success"),
            dict(id=101, context="projekt", created_at=2,
                 item=dumps_canonical({"attributes": {"unternehmen_institutionen": [201]}}),
                 status="success"),
            dict(id=200, context="institution", created_at=4, item=None, status="moved"),
            dict(id=201, context="institution", created_at=4,
                 item=dumps_canonical({"name_de": "i201"}), status="success"),
        ]
    )
    refs = S.institution_projekt_references(S.latest_detail_items(history, runs))
    state = S.mark_projekts_for_moved(state, history, 4, "institution", refs)
    assert state[state["id"] == 100].iloc[0]["detail_check_needed"] == True  # noqa: E712
    assert state[state["id"] == 101].iloc[0]["detail_check_needed"] == False  # noqa: E712


def test_mark_roots_for_moved_subinstitutions():
    # golden: test_database.py:198-245
    runs = _runs((1, "search_results", "institution", 10),
                 (2, "details", "institution", 20), (3, "details", "institution", 30))
    state = pd.DataFrame(
        [
            _state_row(100, "institution", 1, 1, '{"name_de":"i100"}', 2, False),
            _state_row(101, "institution", 1, 1, '{"name_de":"i101"}', 2, False),
            _state_row(102, "institution", 1, 1, '{"name_de":"i102"}', 2, False),
        ]
    )
    history = pd.DataFrame(
        [
            dict(id=100, context="institution", created_at=2,
                 item=dumps_canonical(
                     {"name_de": "i100", "trees": {"normalised_subinstitutions": ["101"]}}
                 ),
                 status="success"),
            dict(id=101, context="institution", created_at=2,
                 item=dumps_canonical({"name_de": "i101"}), status="success"),
            dict(id=101, context="institution", created_at=3, item=None, status="moved"),
        ]
    )
    latest = S.latest_items(S.latest_detail_items(history, runs), state)
    hierarchy = S.institution_hierarchy(latest)
    state = S.mark_roots_for_moved_subinstitutions(state, history, 3, hierarchy)
    assert state[state["id"] == 100].iloc[0]["detail_check_needed"] == True  # noqa: E712
    assert state[state["id"] == 101].iloc[0]["detail_check_needed"] == False  # noqa: E712


def test_history_dedup_on_append():
    # J4: database.py:100-116 — unchanged (status, item) not re-appended
    runs = _runs((1, "details", "person", 10), (2, "details", "person", 20),
                 (3, "details", "person", 30))
    item = dumps_canonical({"id": 7, "name_de": "x"})
    h = S.empty_history()
    h = S.insert_detail_items(h, runs, [dict(id=7, context="person", created_at=1,
                                             item=item, status="success")])
    assert len(h) == 1
    h = S.insert_detail_items(h, runs, [dict(id=7, context="person", created_at=2,
                                             item=item, status="success")])
    assert len(h) == 1  # unchanged → skipped
    item2 = dumps_canonical({"id": 7, "name_de": "y"})
    h = S.insert_detail_items(h, runs, [dict(id=7, context="person", created_at=3,
                                             item=item2, status="success")])
    assert len(h) == 2


def test_latest_detail_items_distributed_matches_pandas(ray_session):
    """The 64-bucket distributed A1 equals the driver-side pandas A1."""
    import ray.data

    from dfg_gepris_crawler_ray.frontier import state as S
    from dfg_gepris_crawler_ray.pipelines.derive import latest_detail_items_ds

    history = S.empty_history()
    runs = S.empty_runs()
    for run in (1, 2, 3):
        runs, run_id = S.store_run(runs, "details", "projekt", run)
        history = S.insert_detail_items(
            history,
            runs,
            [
                dict(id=i, context="projekt", created_at=run_id,
                     item=f'{{"id":{i},"v":{run if i % 2 == 0 else 1}}}',
                     status="success")
                for i in range(50)
            ],
        )
    want = S.latest_detail_items(history, runs).sort_values(["id", "context"]).reset_index(drop=True)
    run_started = dict(zip(runs["id"], runs["run_started_at"]))
    got = (
        latest_detail_items_ds(ray.data.from_pandas(history), run_started)
        .to_pandas()
        .sort_values(["id", "context"])
        .reset_index(drop=True)
    )
    assert got["id"].tolist() == want["id"].tolist()
    assert got["created_at"].tolist() == want["created_at"].tolist()
    assert got["item"].tolist() == want["item"].tolist()


def test_latest_views_and_hierarchy():
    # A1/A2 (dfg-gepris.sql:48-64) + J10 golden tree from test_init_sql.py:51-87
    runs = _runs((1, "details", "institution", 10), (2, "details", "institution", 20))
    tree_item = dumps_canonical(
        {"trees": {"normalised_subinstitutions": ["2", {"3": ["4", "5"]}, "6"]}}
    )
    history = pd.DataFrame(
        [
            dict(id=1, context="institution", created_at=1, item=tree_item, status="success"),
            dict(id=9, context="institution", created_at=1, item=None, status="error"),
            dict(id=8, context="institution", created_at=1, item=None, status="moved"),
        ]
    )
    state = pd.DataFrame(
        [
            _state_row(1, "institution", None, None, None, 1, False),
            _state_row(9, "institution", 1, 1, '{"name_de":"i9"}', 1, False),
            _state_row(8, "institution", None, None, None, 1, False),
        ]
    )
    latest = S.latest_items(S.latest_detail_items(history, runs), state)
    by_id = {int(r.id): r.item for r in latest.itertuples()}
    assert by_id[1] == tree_item
    assert by_id[9] == '{"name_de":"i9"}'  # error → search-snapshot fallback
    assert 8 not in by_id  # moved dropped

    hier = S.institution_hierarchy(latest)
    rows = sorted(
        (int(r.id), None if pd.isna(r.parent_id) else int(r.parent_id), int(r.root_id))
        for r in hier.itertuples()
    )
    assert rows == [(1, None, 1), (2, 1, 1), (3, 1, 1), (4, 3, 1), (5, 3, 1), (6, 1, 1)]
