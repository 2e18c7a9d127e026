"""The reference's cron cadence as a driver loop.

``docker/scheduler_cronfile`` schedules, per day: the data monitor,
then per context a search run followed by a budget-bounded
``db:needed`` details run (institution 200, person 200, projekt 500 —
cronfile:5-18), plus a monthly re-index rotation of ``db:all`` runs
(day-of-month mod 10 picks the context; cronfile:19-33). Each run is
one batch job here; a production deployment calls these from whatever
scheduler it has (cron, Airflow, a driver while-loop) — the cadence is
data, not infrastructure. The runs are the one monitor, search and
details run bodies of ``pipelines.runs``; ``backend`` only says where
the crawl state lives while they run.

The listing pages do not change within a day and their extraction
reads no state, so a day scans them once: one ``listing_pass`` before
the first run extracts the monitor item and all three contexts' search
rows, and each run then takes its own slice. The runs still open in the
cron order (monitor, then per context search → details), so run ids
and the J2/J6 → J1 → J3–J8 sequence are those of standalone runs.
"""

from __future__ import annotations

from .notify import classify_run, expected_items
from .runs import _data_monitor, _search, listing_pass, run_details

#: cronfile:9-18 — daily incremental budgets, in schedule order
DAILY_NEEDED_BUDGETS = (("institution", 200), ("person", 200), ("projekt", 500))

#: cronfile:19-33 — day-of-month (mod 10) → (context, budget)
REINDEX_ROTATION = {
    1: ("institution", 50_000),
    2: ("projekt", 20_000),
    3: ("projekt", 20_000),
    4: ("projekt", 20_000),
    5: ("person", 50_000),
    6: ("projekt", 20_000),
    7: ("projekt", 20_000),
    8: ("projekt", 20_000),
    9: ("projekt", 20_000),
    0: ("person", 50_000),
}


def reindex_plan(day_of_month: int):
    """(context, budget) for the monthly rotation; None on the 31st
    (cronfile:23 — 'except for 31. of month, where nothing is done')."""
    if day_of_month == 31:
        return None
    return REINDEX_ROTATION[day_of_month % 10]


def run_daily_cycle(
    store,
    pages_dir: str,
    day_of_month: int | None = None,
    host_lookup=None,
    backend: str = "pandas",
) -> dict:
    """One scheduler day: monitor → per-context search + needed-details
    (+ the re-index run when ``day_of_month`` is given). Returns per-run
    results plus the notifier classification each run would have mailed
    (pipelines.notify).

    ``backend`` passes through to every search/details run: ``"pandas"``
    keeps the state on the driver, ``"ds"`` keeps it in Datasets (the
    10^10-key form) — the budgets and notifier classifications are
    identical (equivalence pinned in tests/test_schedule.py)."""
    out: dict = {"notifications": []}

    contexts = [context for context, _ in DAILY_NEEDED_BUDGETS]
    monitor, listings = listing_pass(pages_dir, contexts, backend)
    dm = _data_monitor(store, monitor)
    out["data_monitor"] = dm
    note = classify_run(
        "data_monitor", None, scraped_items=1,
        expected=expected_items("data_monitor", None),
    )
    if note:
        out["notifications"].append(note)

    for context, budget in DAILY_NEEDED_BUDGETS:
        search = _search(store, pages_dir, context, backend, listings[context])
        out[f"search_{context}"] = search
        n_items = int(search["manifest"]["items"])
        note = classify_run(
            "search_results", context, scraped_items=n_items,
            expected=expected_items(
                "search_results", context, store,
                total_items=(search["totals"][0] if search["totals"] else None),
            ),
        )
        if note:
            out["notifications"].append(note)

        details = run_details(
            store, pages_dir, context,
            ids_spec=f"db:needed:{budget}", host_lookup=host_lookup, backend=backend,
        )
        out[f"details_{context}"] = details
        counts = details["manifest"]["status_counts"]
        note = classify_run(
            "details", context,
            scraped_items=int(counts.get("success", 0)),
            moved_items=int(counts.get("moved", 0)),
            expected=expected_items(
                "details", context, num_ids=int(details["manifest"]["frontier_size"])
            ),
            had_error=bool(counts.get("error", 0)),
        )
        if note:
            out["notifications"].append(note)

    if day_of_month is not None:
        plan = reindex_plan(day_of_month)
        out["reindex_plan"] = plan
        if plan is not None:
            context, budget = plan
            out["reindex"] = run_details(
                store, pages_dir, context,
                ids_spec=f"db:all:{budget}", host_lookup=host_lookup, backend=backend,
            )

    if backend == "ds":
        # standing store maintenance: every incremental ds save can
        # leave one file per upsert bucket; compact (crash-atomic
        # pointer-swap republish, no-op while the table is small) so
        # read amplification doesn't grow with cron days
        out["compacted_files"] = {
            t: store.compact_table_ds(t) for t in ("state", "history")
        }
    return out
