"""Incremental crawl state over Parquet-backed tables.

The reference keeps all incremental state in Postgres keyed
``(id, context)`` (database/init/dfg-gepris.sql:22-45) and mutates it
with per-item upserts (database.py:66-116) plus post-run set jobs
(database.py:118-207). Here the same state machine is expressed as
batch dataframe transforms — each function takes the current state
table(s) and returns the new version; at cluster scale the same
merges run as keyed groupby jobs (see ``state_ray``), this module is
the exact single-table semantics used by tests and by driver-scale
runs.

Tables (pandas DataFrames; Parquet on disk):

- ``runs``:    id, spider, context, run_started_at, run_ended_at,
               total_scraped_items                      (spider_runs)
- ``state``:   id, context, last_available_seen, last_available_change,
               last_available_item, last_detail_check,
               detail_check_needed                      (available_items)
- ``history``: id, context, created_at(run id), item, status
               (details_items_history)

All golden behaviors mirror the reference's DB tests
(test/test_database.py) — citations inline.
"""

from __future__ import annotations

import json

import pandas as pd

from ..normalise.attribute_maps import INSTITUTIONEN_REFERENCES, PERSONEN_REFERENCES

STATE_COLUMNS = [
    "id",
    "context",
    "last_available_seen",
    "last_available_change",
    "last_available_item",
    "last_detail_check",
    "detail_check_needed",
]

RUNS_COLUMNS = [
    "id",
    "spider",
    "context",
    "run_started_at",
    "run_ended_at",
    "total_scraped_items",
]

HISTORY_COLUMNS = ["id", "context", "created_at", "item", "status"]

# Canonical storage dtypes for the ds-resident tables: every saved
# block must carry these so no parquet file is ever written with an
# Arrow `null`-typed column (an all-None object column infers as null,
# and a later read then mixes null with double/string blocks — the
# exact source of the pandas-3 empty/all-NA concat FutureWarning on
# `.to_pandas()`). Nullable numerics are float64 (NaN-capable),
# strings use the pandas string dtype (round-trips as Arrow string
# even when a whole block is None).
STATE_DTYPES = {
    "id": "int64",
    "context": "string",
    "last_available_seen": "float64",
    "last_available_change": "float64",
    "last_available_item": "string",
    "last_detail_check": "float64",
    "detail_check_needed": "bool",
}

HISTORY_DTYPES = {
    "id": "int64",
    "context": "string",
    "created_at": "int64",
    "item": "string",
    "status": "string",
}

TABLE_DTYPES = {"state": STATE_DTYPES, "history": HISTORY_DTYPES}


def empty_state() -> pd.DataFrame:
    return pd.DataFrame(columns=STATE_COLUMNS).astype(
        {"id": "int64", "context": "object", "detail_check_needed": "bool"}
    )


def empty_runs() -> pd.DataFrame:
    return pd.DataFrame(columns=RUNS_COLUMNS)


def empty_history() -> pd.DataFrame:
    return pd.DataFrame(columns=HISTORY_COLUMNS)


def _concat_rows(base: pd.DataFrame, add: pd.DataFrame) -> pd.DataFrame:
    """Row-append without the pandas-3 empty/all-NA concat warning:
    empty frames are excluded outright, and an all-NA column on either
    side is pre-cast to the other side's dtype — replicating the
    'exclude empty/all-NA entries from dtype determination' behavior
    that pandas 3 removes, so the upsert tables keep their declared
    dtypes on every code path."""
    add = add.reindex(columns=base.columns)
    if not len(add):
        return base
    if not len(base):
        for c, dt in base.dtypes.items():
            if add[c].isna().all() and add[c].dtype != dt:
                try:
                    add[c] = add[c].astype(dt)
                except (TypeError, ValueError):
                    pass
        return add
    casts_a, casts_b = {}, {}
    for c in base.columns:
        if add[c].dtype == base[c].dtype:
            continue
        if add[c].isna().all() and not base[c].isna().all():
            casts_a[c] = base[c].dtype
        elif base[c].isna().all() and not add[c].isna().all():
            casts_b[c] = add[c].dtype
    for c, dt in casts_a.items():
        try:
            add = add.assign(**{c: add[c].astype(dt)})
        except (TypeError, ValueError):
            pass
    for c, dt in casts_b.items():
        try:
            base = base.assign(**{c: base[c].astype(dt)})
        except (TypeError, ValueError):
            pass
    return pd.concat([base, add], ignore_index=True)


def store_run(runs: pd.DataFrame, spider: str, context: str, started_at) -> tuple[pd.DataFrame, int]:
    """Monotonic run-id allocation (database.py:214-221)."""
    run_id = int(runs["id"].max()) + 1 if len(runs) else 1
    row = dict(
        id=run_id,
        spider=spider,
        context=context,
        run_started_at=started_at,
        run_ended_at=None,
        total_scraped_items=None,
    )
    return _concat_rows(runs, pd.DataFrame([row])), run_id


def update_run_result(runs: pd.DataFrame, run_id: int, ended_at, total_items: int) -> pd.DataFrame:
    """database.py:223-229"""
    runs = runs.copy()
    sel = runs["id"] == run_id
    runs.loc[sel, "run_ended_at"] = ended_at
    runs.loc[sel, "total_scraped_items"] = total_items
    return runs


# --- J1: crawl-priority id selection ---------------------------------------

def get_ids(
    state: pd.DataFrame,
    runs: pd.DataFrame,
    context: str,
    only_needed: bool = False,
    limit: int = 0,
) -> list[int]:
    """Priority query (database.py:43-64; ordering golden
    test_database.py:20-38): never-detail-checked ids first (state-table
    order = insertion order), then detail-checked ids ordered by the
    start time of their last check run (stalest first); LIMIT on the
    union. ``only_needed`` filters the second group to
    ``detail_check_needed``."""
    sel = state[state["context"] == context]
    never = sel[sel["last_detail_check"].isna()]
    checked = sel[sel["last_detail_check"].notna()]
    if only_needed:
        checked = checked[checked["detail_check_needed"].astype(bool)]
    if len(checked):
        started = runs.set_index("id")["run_started_at"]
        checked = checked.assign(
            _started=checked["last_detail_check"].map(started)
        ).sort_values("_started", kind="stable")
    ids = list(never["id"].astype(int)) + list(checked["id"].astype(int))
    if limit > 0:
        ids = ids[:limit]
    return ids


# --- J2/J3: upserts ---------------------------------------------------------

def new_state_rows(ids: list[int], context, needed: bool) -> pd.DataFrame:
    """State rows for keys first met here: never seen, never checked.
    ``context`` is one context or one per id."""
    return pd.DataFrame(
        dict(
            id=pd.Series(ids, dtype="int64"),
            context=context,
            last_available_seen=None,
            last_available_change=None,
            last_available_item=None,
            last_detail_check=None,
            detail_check_needed=needed,
        )
    )


def _ensure_keys(state: pd.DataFrame, keys: list[tuple[int, str]]) -> pd.DataFrame:
    existing = set(zip(state["id"], state["context"]))
    new = [(i, c) for (i, c) in keys if (i, c) not in existing]
    if new:
        ids, contexts = zip(*new)
        state = _concat_rows(state, new_state_rows(list(ids), list(contexts), needed=False))
    return state


def upsert_from_details(state: pd.DataFrame, ids: list[int], context: str, run_id: int) -> pd.DataFrame:
    """Details-path upsert (database.py:68-76): set
    ``last_detail_check := run``, ``detail_check_needed := False``;
    insert-if-absent."""
    state = _ensure_keys(state.copy(), [(int(i), context) for i in ids])
    sel = (state["context"] == context) & (state["id"].isin([int(i) for i in ids]))
    state.loc[sel, "last_detail_check"] = run_id
    state.loc[sel, "detail_check_needed"] = False
    return state


def upsert_from_search(
    state: pd.DataFrame,
    observations: list[tuple[int, str]],
    context: str,
    run_id: int,
) -> pd.DataFrame:
    """Search-path upsert with change detection (database.py:80-96;
    goldens test_database.py:40-88).

    Per key: ``last_available_seen := run`` and
    ``last_available_item := new``; iff the stored item differs
    (canonical-JSON string inequality ≙ JSONB ``IS DISTINCT FROM``) →
    ``last_available_change := run`` and — only when the key had been
    seen before — ``detail_check_needed := True``. New keys insert with
    ``detail_check_needed = True`` (the INSERT VALUES carries True)."""
    state = state.copy()
    index = {(int(i), c): pos for pos, (i, c) in enumerate(zip(state["id"], state["context"]))}
    rows = state.to_dict("records")
    for item_id, item_json in observations:
        key = (int(item_id), context)
        pos = index.get(key)
        if pos is None:
            rows.append(
                dict(
                    id=int(item_id),
                    context=context,
                    last_available_seen=run_id,
                    last_available_change=run_id,
                    last_available_item=item_json,
                    last_detail_check=None,
                    detail_check_needed=True,
                )
            )
            index[key] = len(rows) - 1
        else:
            row = rows[pos]
            changed = row["last_available_item"] != item_json
            previously_seen = row["last_available_seen"] is not None and not pd.isna(
                row["last_available_seen"]
            )
            row["last_available_seen"] = run_id
            if changed:
                row["last_available_change"] = run_id
                if previously_seen:
                    row["detail_check_needed"] = True
            row["last_available_item"] = item_json
    return pd.DataFrame(rows, columns=STATE_COLUMNS)


# --- J6: not-found marking --------------------------------------------------

def mark_not_found(state: pd.DataFrame, context: str, run_id: int) -> pd.DataFrame:
    """After a search run: keys previously seen but not seen this run →
    re-check marking (database.py:149-161; golden test_database.py:126-145)."""
    state = state.copy()
    sel = (
        (state["context"] == context)
        & state["last_available_seen"].notna()
        & (state["last_available_seen"] != run_id)
        & state["last_available_item"].notna()
    )
    state.loc[sel, "detail_check_needed"] = True
    state.loc[sel, "last_available_item"] = None
    state.loc[sel, "last_available_change"] = run_id
    return state


# --- J4: history append with dedup -----------------------------------------

def insert_detail_items(
    history: pd.DataFrame,
    runs: pd.DataFrame,
    rows: list[dict],
) -> pd.DataFrame:
    """Append-only history with per-key change dedup (database.py:100-116):
    a row is appended only when the *latest* history row for its key
    differs in (status, item) — ``IS NOT DISTINCT FROM`` on JSONB ≙
    canonical-string equality."""
    latest = latest_detail_items(history, runs)
    latest_map = {
        (int(r.id), r.context): (r.status, r.item) for r in latest.itertuples()
    }
    to_add = []
    for row in rows:
        key = (int(row["id"]), row["context"])
        if latest_map.get(key) == (row["status"], row["item"]):
            continue
        to_add.append({c: row.get(c) for c in HISTORY_COLUMNS})
        latest_map[key] = (row["status"], row["item"])
    if to_add:
        history = _concat_rows(history, pd.DataFrame(to_add))
    return history


# --- A1/A2: latest views ----------------------------------------------------

def latest_detail_items(history: pd.DataFrame, runs: pd.DataFrame) -> pd.DataFrame:
    """Per (id, context): the row of the most recent run
    (dfg-gepris.sql:48-51 DISTINCT ON … ORDER BY run_started_at DESC;
    run id desc as deterministic tie-break)."""
    if not len(history):
        return empty_history()
    started = runs.set_index("id")["run_started_at"]
    h = history.assign(_started=history["created_at"].map(started))
    h = h.sort_values(["_started", "created_at"], kind="stable")
    h = h.drop_duplicates(subset=["id", "context"], keep="last")
    return h.drop(columns=["_started"]).reset_index(drop=True)


def latest_items(latest_details: pd.DataFrame, state: pd.DataFrame) -> pd.DataFrame:
    """Error-fallback coalesce view (dfg-gepris.sql:56-64): success →
    item; error → last search snapshot else '{}'; moved → dropped."""
    rows = []
    snap = {
        (int(r.id), r.context): r.last_available_item for r in state.itertuples()
    }
    for r in latest_details.itertuples():
        if r.status == "moved":
            continue
        if r.status == "success":
            item = r.item
        else:
            fallback = snap.get((int(r.id), r.context))
            item = fallback if fallback is not None and not pd.isna(fallback) else "{}"
        rows.append(dict(id=int(r.id), context=r.context, item=item))
    return pd.DataFrame(rows, columns=["id", "context", "item"])


# --- J9: reference-edge extraction -----------------------------------------

def _projekt_reference_edges(latest_details: pd.DataFrame, fields: list[str], id_col: str) -> pd.DataFrame:
    rows = []
    for r in latest_details.itertuples():
        if r.context != "projekt" or r.item is None or pd.isna(r.item):
            continue
        attrs = json.loads(r.item).get("attributes", {})
        for field in fields:
            for eid in attrs.get(field, []):
                rows.append({id_col: int(eid), "projekt_id": int(r.id), "reference_type": field})
    return pd.DataFrame(rows, columns=[id_col, "projekt_id", "reference_type"])


def person_projekt_references(latest_details: pd.DataFrame) -> pd.DataFrame:
    """dfg-gepris.sql:99-106 — unnest the 17 person-reference arrays."""
    return _projekt_reference_edges(latest_details, PERSONEN_REFERENCES, "person_id")


def institution_projekt_references(latest_details: pd.DataFrame) -> pd.DataFrame:
    """dfg-gepris.sql:108-115"""
    return _projekt_reference_edges(latest_details, INSTITUTIONEN_REFERENCES, "institution_id")


# --- J5: frontier expansion -------------------------------------------------

def expand_person_frontier(state: pd.DataFrame, history: pd.DataFrame, run_id: int) -> pd.DataFrame:
    """Frontier expansion anti-join (database.py:118-147; golden
    test_database.py:90-124): distinct person ids referenced by this
    run's projekt items, EXCEPT persons already known → insert as new
    frontier entries with ``detail_check_needed = True``."""
    run_rows = history[(history["created_at"] == run_id) & (history["context"] == "projekt")]
    referenced: set[int] = set()
    for r in run_rows.itertuples():
        if r.item is None or pd.isna(r.item):
            continue
        attrs = json.loads(r.item).get("attributes", {})
        for field in PERSONEN_REFERENCES:
            referenced.update(int(x) for x in attrs.get(field, []))
    known = set(
        int(i) for i, c in zip(state["id"], state["context"]) if c == "person"
    )
    new_ids = sorted(referenced - known)
    if not new_ids:
        return state
    return _concat_rows(state, new_state_rows(new_ids, "person", needed=True))


# --- J7/J8: moved propagation ----------------------------------------------

def mark_projekts_for_moved(
    state: pd.DataFrame,
    history: pd.DataFrame,
    run_id: int,
    context: str,
    references: pd.DataFrame,
) -> pd.DataFrame:
    """Moved persons/institutions re-check their projekts
    (database.py:163-187; goldens test_database.py:147-196). The update
    matches on id only (no context filter) — faithful to the reference."""
    id_col = "person_id" if context == "person" else "institution_id"
    moved = set(
        int(i)
        for i in history[
            (history["created_at"] == run_id) & (history["status"] == "moved")
        ]["id"]
    )
    projekt_ids = set(
        int(r.projekt_id) for r in references.itertuples() if int(getattr(r, id_col)) in moved
    )
    state = state.copy()
    state.loc[state["id"].isin(projekt_ids), "detail_check_needed"] = True
    return state


def mark_roots_for_moved_subinstitutions(
    state: pd.DataFrame,
    history: pd.DataFrame,
    run_id: int,
    hierarchy: pd.DataFrame,
) -> pd.DataFrame:
    """Moved sub-institutions re-check their root institution
    (database.py:189-207; golden test_database.py:198-245)."""
    moved = set(
        int(i)
        for i in history[
            (history["created_at"] == run_id) & (history["status"] == "moved")
        ]["id"]
    )
    roots = set(
        int(r.root_id)
        for r in hierarchy.itertuples()
        if r.parent_id is not None and not pd.isna(r.parent_id) and int(r.id) in moved
    )
    state = state.copy()
    state.loc[state["id"].isin(roots), "detail_check_needed"] = True
    return state


# --- J10: institution hierarchy flatten ------------------------------------

def institution_hierarchy(latest: pd.DataFrame) -> pd.DataFrame:
    """Flatten ``normalised_subinstitutions`` trees into
    ``(id, parent_id, root_id)`` closure rows (dfg-gepris.sql:117-141;
    golden test_init_sql.py:51-87 — tree ``['2', {'3': ['4','5']}, '6']``
    under root 1 → (1,NULL,1),(2,1,1),(3,1,1),(4,3,1),(5,3,1),(6,1,1)).
    Row-local per institution (no cross-row recursion needed)."""
    rows = []

    def walk(children, parent_id, root_id):
        for child in children:
            if isinstance(child, dict):
                for cid, sub in child.items():
                    rows.append(dict(id=int(cid), parent_id=parent_id, root_id=root_id))
                    walk(sub, int(cid), root_id)
            else:
                rows.append(dict(id=int(child), parent_id=parent_id, root_id=root_id))

    for r in latest.itertuples():
        if r.context != "institution" or r.item is None or pd.isna(r.item):
            continue
        item = json.loads(r.item)
        subs = item.get("trees", {}).get("normalised_subinstitutions")
        if subs is None:
            continue
        root = int(r.id)
        rows.append(dict(id=root, parent_id=None, root_id=root))
        walk(subs, root, root)
    return pd.DataFrame(rows, columns=["id", "parent_id", "root_id"])
