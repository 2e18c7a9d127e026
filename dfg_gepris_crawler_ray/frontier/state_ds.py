"""Distributed forms of the crawl-state transitions.

``frontier.state`` holds the reference-faithful pandas semantics
(right for state tables up to ~10^6 keys on the driver). At 10^10-URL
scale the state itself is a Dataset; each transition here is the SAME
tested pandas function applied per key-hash bucket — keys are disjoint
across buckets, and every transition is key-local, so the bucketed
composition is exactly the driver-side semantics (equivalence tests in
tests/test_state_ds.py).

Shuffle key: the ``(context, id)`` entity key in ``NUM_BUCKETS``
buckets, through ``kernels.partitioning.co_exchange`` — the one
partitioning key the whole engine reuses (SURVEY.md §7.3). A details
run's state merge is one such exchange for every frontier size:
J3, and J5 on a projekt run (:func:`upsert_from_details_bucketed`);
J7/J8 broadcast their run-bounded moved sets.
"""

from __future__ import annotations

import pandas as pd

import ray.data

from ..kernels.partitioning import co_exchange
from . import state as S

NUM_BUCKETS = 64

#: the run-id columns in the saved state's dtype (float64, NaN = never).
#: The pandas templates leave them object; state rows built here are cast
#: to these, so no exchange mixes blocks of two schemas.
RUN_ID_DTYPES = {
    c: S.STATE_DTYPES[c]
    for c in ("last_available_seen", "last_available_change", "last_detail_check")
}


def _co_bucket(sides: dict, reduce) -> "ray.data.Dataset":
    """Union-tag transition: ``sides`` maps a kind to ``(ds, template)``,
    ``template`` being that side's typed empty frame. The sides
    co-partition by ``(context, id)`` (``co_exchange`` at
    ``NUM_BUCKETS``), and ``reduce`` gets, per bucket, a dict kind →
    that side's rows."""
    return co_exchange(
        {kind: (ds, ["context", "id"], template) for kind, (ds, template) in sides.items()},
        reduce,
        NUM_BUCKETS,
    )


def collect_ids(ds: "ray.data.Dataset", col: str = "id") -> set[int]:
    """The distinct ints of ``col`` on the driver — only for
    run-bounded selections (a run's moved keys and their targets)."""
    return {
        int(i)
        for b in ds.select_columns([col]).iter_batches(batch_format="pandas")
        for i in b[col]
    }


def upsert_from_search_ds(
    state: "ray.data.Dataset", observations: "ray.data.Dataset", context: str, run_id: int
) -> "ray.data.Dataset":
    """J2 at state scale: state rows and this run's observations
    co-partition by key bucket; each bucket replays the exact pandas
    upsert (change detection included).

    ``observations``: Dataset of ``(id, item)`` rows (the search run's
    extracted items)."""

    def to_obs(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"id": df["id"].astype("int64"), "_obs_item": df["item"]})
        out["context"] = context
        return out

    def per_bucket(parts: dict) -> pd.DataFrame:
        o = parts["obs"]
        obs = list(zip(o["id"].astype(int), o["_obs_item"]))
        out = S.upsert_from_search(parts["state"], obs, context, run_id)
        return S.mark_not_found(out, context, run_id)  # J6 is key-local too

    return _co_bucket(
        {
            "state": (state, S.empty_state().astype(RUN_ID_DTYPES)),
            "obs": (
                observations.map_batches(to_obs, batch_format="pandas"),
                pd.DataFrame(columns=["id", "context", "_obs_item"]),
            ),
        },
        per_bucket,
    )


def insert_detail_items_ds(
    history: "ray.data.Dataset",
    runs: pd.DataFrame,
    rows: "ray.data.Dataset",
) -> "ray.data.Dataset":
    """J4 at history scale: the dedup-on-append (only rows whose
    (status, item) differ from the key's latest are appended) replays
    per key bucket; the tiny runs ledger broadcasts by closure."""
    runs = runs.copy()

    def per_bucket(parts: dict) -> pd.DataFrame:
        new_rows = [
            dict(id=int(r.id), context=r.context, created_at=r.created_at,
                 item=None if pd.isna(r.item) else r.item, status=r.status)
            for r in parts["new"].itertuples()
        ]
        return S.insert_detail_items(parts["hist"], runs, new_rows)

    return _co_bucket(
        {"hist": (history, S.empty_history()), "new": (rows, S.empty_history())},
        per_bucket,
    )


def upsert_from_details_bucketed(
    state: "ray.data.Dataset",
    delta: "ray.data.Dataset",
    context: str,
    run_id: int,
    references: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """J3, and J5 when ``references`` is given, in one exchange: the
    state, this run's processed keys (``delta.id``) and the referenced
    persons (``references.person_id``, a projekt run's reference edges)
    co-partition by key bucket. Each bucket replays the exact pandas
    upsert — the flag update and the insert-if-absent are key-local —
    then inserts the referenced persons its state does not hold as
    ``S.new_state_rows``, so the state is read once whatever the
    frontier's size or residency."""

    def to_proc(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id": df["id"].astype("int64"), "context": context})

    def to_ref(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id": df["person_id"].astype("int64").unique(), "context": "person"})

    def per_bucket(parts: dict) -> pd.DataFrame:
        ids = parts["proc"]["id"].astype("int64").drop_duplicates().tolist()
        out = S.upsert_from_details(parts["state"], ids, context, run_id)
        if "ref" in parts:
            known = out.loc[out["context"] == "person", "id"].astype("int64")
            new = sorted(set(parts["ref"]["id"].astype("int64")) - set(known))
            out = S._concat_rows(out, S.new_state_rows(new, "person", needed=True))
        return out.astype(RUN_ID_DTYPES)

    keys = pd.DataFrame(columns=["id", "context"])
    sides = {
        "state": (state, S.empty_state().astype(RUN_ID_DTYPES)),
        "proc": (delta.map_batches(to_proc, batch_format="pandas"), keys),
    }
    if references is not None:
        sides["ref"] = (references.map_batches(to_ref, batch_format="pandas"), keys)
    return _co_bucket(sides, per_bucket)


# --- J1: crawl-priority selection at state scale ----------------------------

def get_frontier_ds(
    state: "ray.data.Dataset",
    runs: pd.DataFrame,
    context: str,
    only_needed: bool = False,
) -> "ray.data.Dataset":
    """J1 selection that STAYS a Dataset — the ``db:all:0`` form: the
    column-pruned candidate scan, (tier, staleness rank, id) — three
    ints per candidate row, never the item payloads. Unbudgeted
    selection is order-free (every candidate crawls), so no sort runs;
    the carried columns let downstream host budgeting rebuild the
    priority order per host without a global sort. The runs ledger is
    tiny (one row per crawl run) and broadcasts by closure as a rank
    map."""
    ordered_runs = runs.sort_values("run_started_at", kind="stable")
    rank_of = {int(rid): pos for pos, rid in enumerate(ordered_runs["id"])}

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        sel = df[df["context"] == context]
        never = sel["last_detail_check"].isna()
        if only_needed:
            sel = sel[never | sel["detail_check_needed"].astype(bool)]
            never = sel["last_detail_check"].isna()
        tier = (~never).astype("int64")
        rank = pd.Series(
            [
                -1 if pd.isna(c) else rank_of.get(int(c), -1)
                for c in sel["last_detail_check"]
            ],
            index=sel.index,
            dtype="int64",
        )
        return pd.DataFrame(
            {"tier": tier, "rank": rank, "id": sel["id"].astype("int64")}
        )

    return state.map_batches(prep, batch_format="pandas")


def get_ids_ds(
    state: "ray.data.Dataset",
    runs: pd.DataFrame,
    context: str,
    only_needed: bool = False,
    limit: int = 0,
) -> list[int]:
    """J1 (reference database.py:43-64) over a Dataset-resident state:
    never-detail-checked keys first, then checked keys stalest-first
    (by the start time of their last check run), LIMIT on the union.

    Distributed shape: the :func:`get_frontier_ds` scan then ONE global
    sort + limit; the collected list is budget-bounded by the caller's
    limit. The tie-break inside each staleness tier is ``id`` ascending
    (deterministic under any partitioning); the pandas form's tie-break
    is state-table insertion order, which a 10^10-key distributed table
    cannot observe — callers that need byte-faithful insertion order
    must carry an explicit ``seq`` column. The unbudgeted form is
    :func:`get_frontier_ds` itself, which never collects."""
    ordered = get_frontier_ds(state, runs, context, only_needed).sort(["tier", "rank", "id"])
    if limit > 0:
        ordered = ordered.limit(limit)
    # iter_rows, not to_pandas: an empty selection's pandas frame has no
    # columns at all, while the pandas J1 returns [] there
    return [int(r["id"]) for r in ordered.iter_rows()]


# --- A2: coalesce view at scale ---------------------------------------------

def latest_items_ds(
    latest_details: "ray.data.Dataset", state: "ray.data.Dataset"
) -> "ray.data.Dataset":
    """A2 (dfg-gepris.sql:56-64) with both sides Dataset-resident:
    latest detail rows and state snapshots co-partition by key bucket;
    each bucket replays the exact pandas coalesce."""

    return _co_bucket(
        {
            "latest": (latest_details, S.empty_history()),
            "state": (state, S.empty_state().astype(RUN_ID_DTYPES)),
        },
        lambda parts: S.latest_items(parts["latest"], parts["state"]),
    )


# --- J7/J8: moved propagation at scale --------------------------------------

def _flag_moved_targets(
    state: "ray.data.Dataset",
    history: "ray.data.Dataset",
    run_id: int,
    edges: "ray.data.Dataset",
    moved_col: str,
    target_col: str,
) -> "ray.data.Dataset":
    """J7/J8 shape: the run's moved keys (run-bounded, so a driver set
    is safe by construction) broadcast; the edge scan keeps the
    ``target_col`` of every edge whose ``moved_col`` moved; those
    targets flag ``detail_check_needed`` row-locally (matching on id
    only — faithful to the reference's missing context filter)."""
    import ray

    moved = collect_ids(
        history.map_batches(
            lambda df: df.loc[(df["created_at"] == run_id) & (df["status"] == "moved"), ["id"]],
            batch_format="pandas",
        )
    )
    moved_ref = ray.put(moved)

    def hits(df: pd.DataFrame) -> pd.DataFrame:
        sel = df[df[moved_col].isin(ray.get(moved_ref))]
        return pd.DataFrame({"t": sel[target_col].astype("int64")})

    targets_ref = ray.put(collect_ids(edges.map_batches(hits, batch_format="pandas"), "t"))

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df.loc[df["id"].isin(ray.get(targets_ref)), "detail_check_needed"] = True
        return df

    return state.map_batches(flag, batch_format="pandas")


def mark_projekts_for_moved_ds(
    state: "ray.data.Dataset",
    history: "ray.data.Dataset",
    run_id: int,
    context: str,
    references: "ray.data.Dataset",
) -> "ray.data.Dataset":
    """J7 (reference database.py:163-187) at scale: moved persons /
    institutions re-check their projekts."""
    id_col = "person_id" if context == "person" else "institution_id"
    return _flag_moved_targets(state, history, run_id, references, id_col, "projekt_id")


def mark_roots_for_moved_subinstitutions_ds(
    state: "ray.data.Dataset",
    history: "ray.data.Dataset",
    run_id: int,
    hierarchy: "ray.data.Dataset",
) -> "ray.data.Dataset":
    """J8 (reference database.py:189-207) at scale: moved
    sub-institutions (rows with a parent) re-check their root."""
    subs = hierarchy.map_batches(lambda df: df[df["parent_id"].notna()], batch_format="pandas")
    return _flag_moved_targets(state, history, run_id, subs, "id", "root_id")
