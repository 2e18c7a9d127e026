"""Distributed state transitions equal the driver-side pandas ones
(frontier.state_ds)."""

import json

import pandas as pd
import pytest

import ray.data

from dfg_gepris_crawler_ray.frontier import state as S
from dfg_gepris_crawler_ray.pipelines import derive
from dfg_gepris_crawler_ray.frontier.state_ds import (
    upsert_from_details_bucketed,
    upsert_from_search_ds,
)


@pytest.fixture(autouse=True)
def _ray(ray_session):
    yield


def _norm(df: pd.DataFrame) -> list:
    df = df[S.STATE_COLUMNS].copy()
    for c in ("last_available_seen", "last_available_change", "last_detail_check"):
        df[c] = df[c].astype("Float64")  # int/float unification across splits
    for c in df.columns:
        df[c] = df[c].map(lambda v: None if pd.isna(v) else str(v))
    return sorted(map(tuple, df.to_numpy().tolist()))


def test_search_transition_matches_pandas():
    # run 1: 100 fresh keys; details run 2 clears flags; run 3: half the
    # keys disappear, a third change → J2 change detection + J6 marking
    obs1 = [(i, f'{{"id":{i}}}') for i in range(100)]
    st = S.upsert_from_search(S.empty_state(), obs1, "projekt", 1)
    st = S.upsert_from_details(st, [i for i, _ in obs1], "projekt", 2)
    obs3 = [
        (i, f'{{"id":{i},"v":2}}' if i % 3 == 0 else f'{{"id":{i}}}')
        for i in range(100)
        if i % 2 == 0
    ]
    want = S.mark_not_found(
        S.upsert_from_search(st.copy(), obs3, "projekt", 3), "projekt", 3
    )

    got = upsert_from_search_ds(
        ray.data.from_pandas(st),
        ray.data.from_pandas(pd.DataFrame(obs3, columns=["id", "item"])),
        "projekt",
        3,
    ).to_pandas()
    assert _norm(got) == _norm(want)


def test_history_append_matches_pandas():
    from dfg_gepris_crawler_ray.frontier.state_ds import insert_detail_items_ds

    runs = S.empty_runs()
    history = S.empty_history()
    for run in (1, 2):
        runs, run_id = S.store_run(runs, "details", "projekt", run)
        new = [
            dict(id=i, context="projekt", created_at=run_id,
                 item=f'{{"id":{i},"v":{run if i % 4 == 0 else 1}}}', status="success")
            for i in range(60)
        ]
        history = S.insert_detail_items(history, runs, new)
    # run 3: a third change again, the rest identical → only changes append
    runs, run_id = S.store_run(runs, "details", "projekt", 3)
    new3 = [
        dict(id=i, context="projekt", created_at=run_id,
             item=f'{{"id":{i},"v":{3 if i % 3 == 0 else (2 if i % 4 == 0 else 1)}}}',
             status="success")
        for i in range(60)
    ]
    want = S.insert_detail_items(history.copy(), runs, new3)
    got = insert_detail_items_ds(
        ray.data.from_pandas(history), runs, ray.data.from_pandas(pd.DataFrame(new3))
    ).to_pandas()
    key = lambda df: sorted(
        map(tuple, df[S.HISTORY_COLUMNS].astype(str).to_numpy().tolist())
    )
    assert key(got) == key(want)


def test_details_transition_matches_pandas():
    obs1 = [(i, f'{{"id":{i}}}') for i in range(50)]
    st = S.upsert_from_search(S.empty_state(), obs1, "person", 1)
    ids = list(range(25, 75))  # half known, half brand-new
    want = S.upsert_from_details(st.copy(), ids, "person", 2)
    delta = ray.data.from_pandas(pd.DataFrame({"id": ids + ids[:5]}))
    got = upsert_from_details_bucketed(ray.data.from_pandas(st), delta, "person", 2).to_pandas()
    assert _norm(got) == _norm(want)


def test_details_transition_with_person_references_matches_pandas():
    """J3 + J5 in one exchange equals the pandas J3 then J5: the
    projekt run's processed ids get their flags (known ones) or insert
    (new ones), and the persons its items reference that the state
    lacks join the frontier as needed — each once, however often it is
    referenced; a referenced person the state holds keeps its row."""
    st = S.upsert_from_search(
        S.empty_state(), [(i, f'{{"id":{i}}}') for i in range(20)], "projekt", 1
    )
    st = S.upsert_from_search(
        st, [(100 + i, f'{{"id":{100 + i}}}') for i in range(10)], "person", 1
    )
    st = S.upsert_from_details(st, [100, 101, 102], "person", 2)
    # projekt p (10..29) references persons 95 + (p % 20) and
    # 105 + (p % 7), persons 100..109 are known; every fourth projekt
    # failed and references nothing
    processed = list(range(10, 30))  # half known, half brand-new projekts
    rows = pd.DataFrame(
        [
            dict(id=p, context="projekt", status="success" if p % 4 else "error",
                 item=json.dumps({"id": p, "attributes": {
                     "antragsteller_personen": [95 + (p % 20)],
                     "sprecher_personen": [105 + (p % 7)]}}) if p % 4 else None)
            for p in processed
        ]
    )
    want = S.upsert_from_details(st.copy(), processed, "projekt", 3)
    want = S.expand_person_frontier(want, rows.assign(created_at=3), 3)
    delta = ray.data.from_pandas(rows)
    got = upsert_from_details_bucketed(
        ray.data.from_pandas(st), delta, "projekt", 3,
        references=derive.all_reference_edges(delta, "person"),
    ).to_pandas()
    persons = set(got.loc[got["context"] == "person", "id"]) - set(range(100, 110))
    assert persons == {96, 97, 98, 110, 111, 112, 113, 114}
    assert _norm(got) == _norm(want)
    for c in ("last_available_seen", "last_available_change", "last_detail_check"):
        assert got[c].dtype == "float64", c


def test_get_ids_ds_matches_pandas():
    """J1 at state scale: same priority contract as the pandas form
    (never-checked first, then stalest-first). The test data's
    insertion order is id-ascending within each tier, so the ds form's
    deterministic id tie-break coincides with the pandas form."""
    from dfg_gepris_crawler_ray.frontier.state_ds import get_ids_ds

    obs = [(i, f'{{"id":{i}}}') for i in range(120)]
    st = S.upsert_from_search(S.empty_state(), obs, "projekt", 1)
    st = S.upsert_from_details(st, [i for i in range(0, 120, 3)], "projekt", 2)
    st = S.upsert_from_details(st, [i for i in range(1, 120, 3)], "projekt", 3)
    # a later search marks a subset needed again
    obs4 = [
        (i, f'{{"id":{i},"v":2}}' if i % 5 == 0 else f'{{"id":{i}}}') for i in range(120)
    ]
    st = S.upsert_from_search(st, obs4, "projekt", 4)
    runs = pd.DataFrame(
        [
            dict(id=r, spider="s", context="projekt", run_started_at=r * 10,
                 run_ended_at=None, total_scraped_items=None)
            for r in (1, 2, 3, 4)
        ]
    )
    for only_needed in (False, True):
        for limit in (0, 7, 1000):
            want = S.get_ids(st, runs, "projekt", only_needed=only_needed, limit=limit)
            got = get_ids_ds(
                ray.data.from_pandas(st), runs, "projekt",
                only_needed=only_needed, limit=limit,
            )
            assert got == want, (only_needed, limit)


def test_get_ids_ds_empty_selection():
    """A selection with no candidate rows is an empty id list, as in
    the pandas form: every projekt key is checked and none is needed
    again, so ``only_needed`` selects nothing."""
    from dfg_gepris_crawler_ray.frontier.state_ds import get_ids_ds

    obs = [(i, f'{{"id":{i}}}') for i in range(20)]
    st = S.upsert_from_search(S.empty_state(), obs, "projekt", 1)
    st = S.upsert_from_details(st, list(range(20)), "projekt", 2)
    runs = pd.DataFrame(
        [
            dict(id=r, spider="s", context="projekt", run_started_at=r * 10,
                 run_ended_at=None, total_scraped_items=None)
            for r in (1, 2)
        ]
    )
    for limit in (0, 5):
        want = S.get_ids(st, runs, "projekt", only_needed=True, limit=limit)
        got = get_ids_ds(
            ray.data.from_pandas(st), runs, "projekt", only_needed=True, limit=limit
        )
        assert got == want == [], limit


def test_latest_items_ds_matches_pandas():
    from dfg_gepris_crawler_ray.frontier.state_ds import latest_items_ds

    obs = [(i, f'{{"snap":{i}}}') for i in range(80)]
    st = S.upsert_from_search(S.empty_state(), obs, "projekt", 1)
    runs = S.empty_runs()
    runs, run_id = S.store_run(runs, "details", "projekt", 1)
    rows = [
        dict(
            id=i, context="projekt", created_at=run_id,
            item=f'{{"id":{i}}}' if i % 4 else None,
            status="moved" if i % 7 == 0 else ("error" if i % 4 == 0 else "success"),
        )
        for i in range(80)
    ]
    history = S.insert_detail_items(S.empty_history(), runs, rows)
    latest = S.latest_detail_items(history, runs)
    want = S.latest_items(latest, st)
    got = latest_items_ds(
        ray.data.from_pandas(latest), ray.data.from_pandas(st)
    ).to_pandas()
    key = lambda df: sorted(
        map(tuple, df[["id", "context", "item"]].astype(str).to_numpy().tolist())
    )
    assert key(got) == key(want)


def test_moved_propagation_ds_matches_pandas():
    from dfg_gepris_crawler_ray.frontier.state_ds import (
        mark_projekts_for_moved_ds,
        mark_roots_for_moved_subinstitutions_ds,
    )

    # state: projekts 0..39, persons 100..139, institutions 200..239
    st = S.upsert_from_search(
        S.empty_state(), [(i, f'{{"id":{i}}}') for i in range(40)], "projekt", 1
    )
    st = S.upsert_from_search(
        st, [(100 + i, f'{{"id":{100 + i}}}') for i in range(40)], "person", 1
    )
    st = S.upsert_from_search(
        st, [(200 + i, f'{{"id":{200 + i}}}') for i in range(40)], "institution", 1
    )
    st["detail_check_needed"] = False
    # run 5 history: every 4th person moved
    history = pd.DataFrame(
        [
            dict(id=100 + i, context="person", created_at=5,
                 item=None, status="moved" if i % 4 == 0 else "success")
            for i in range(40)
        ]
    )
    refs = pd.DataFrame(
        [
            dict(person_id=100 + (p % 40), projekt_id=p % 40, reference_type="x")
            for p in range(0, 80, 3)
        ]
    )
    want = S.mark_projekts_for_moved(st, history, 5, "person", refs)
    got = mark_projekts_for_moved_ds(
        ray.data.from_pandas(st), ray.data.from_pandas(history), 5, "person",
        ray.data.from_pandas(refs),
    ).to_pandas()
    assert _norm(got) == _norm(want)

    # J8: moved sub-institutions flag their roots
    history_i = pd.DataFrame(
        [
            dict(id=200 + i, context="institution", created_at=6,
                 item=None, status="moved" if i % 5 == 0 else "success")
            for i in range(40)
        ]
    )
    hierarchy = pd.DataFrame(
        [
            dict(id=200 + i, parent_id=(200 + i - 1) if i % 2 else None,
                 root_id=200 + (i // 4) * 4)
            for i in range(40)
        ]
    )
    want2 = S.mark_roots_for_moved_subinstitutions(st, history_i, 6, hierarchy)
    got2 = mark_roots_for_moved_subinstitutions_ds(
        ray.data.from_pandas(st), ray.data.from_pandas(history_i), 6,
        ray.data.from_pandas(hierarchy),
    ).to_pandas()
    assert _norm(got2) == _norm(want2)
