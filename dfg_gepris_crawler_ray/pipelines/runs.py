"""Run orchestration: the reference's three spiders as batch runs.

Each run is one driver invocation (≙ one ``scrapy crawl`` / one
``ray job submit``) over the pages corpus + the durable CrawlStore:

- ``run_search``  ≙ ``scrapy crawl search_results -a context=…``
  (SURVEY.md §3.1): listing pages → SearchResultItems → J2 state
  upsert + J6 not-found marking + duplicate-id detection (ST1).
- ``run_details`` ≙ ``scrapy crawl details -a context=… -a ids=…``
  (SURVEY.md §3.2): id source (S4–S6) → J1 priority frontier → host
  budget + planned fetch order → fetch+extract chain → J3 upsert +
  J4 history append + J5/J7/J8 post-jobs → manifest.
- ``run_data_monitor`` ≙ ``scrapy crawl data_monitor`` (§3.3).

The heavy lifting (page scan, parse, chain assembly) streams through
Ray Data; the state-table transitions are the exact pandas semantics
of ``frontier.state`` — at reference corpus scale (~10^5 keys/context)
the state fits comfortably on the driver, while the pages corpus never
does and never leaves the streaming path.
"""

from __future__ import annotations

import json
import os
import re
from datetime import datetime, timezone

import pandas as pd
import pyarrow.compute as pc

import ray.data

from ..extract.data_monitor import parse_data_monitor
from ..frontier import state as S
from ..frontier.manifests import CrawlStore, content_hash
from ..kernels.htmlmini import parse_html
from ..kernels.jsoncanon import dumps_canonical
from ..frontier.politeness import apply_host_budget
from ..sources.pages import DETAIL_KINDS, annotate_pages, filter_detail_pages, read_pages
from ..stages.extract_stage import extract_bucket
from ..stages.search_stage import extract_search_batch
from .details import run_details_extraction


def _now():
    return datetime.now(timezone.utc).isoformat()


def _load(store: CrawlStore):
    return (
        store.load_table("state", S.empty_state()),
        store.load_table("runs", S.empty_runs()),
        store.load_table("history", S.empty_history()),
    )


# ---------------------------------------------------------------------------
# id sources (S4–S6, spiders/details.py:29-51)
# ---------------------------------------------------------------------------

def parse_ids_spec(ids_spec, state: pd.DataFrame, runs: pd.DataFrame, context: str) -> list[int]:
    """``[1,2,3]`` literal | ``file.json`` | ``db:all:N`` | ``db:needed:N``."""
    if isinstance(ids_spec, (list, tuple, set)):
        return sorted(int(i) for i in set(ids_spec))
    if isinstance(ids_spec, str) and ids_spec.startswith("[") and ids_spec.endswith("]"):
        return sorted({int(x) for x in ids_spec[1:-1].split(",")})
    if isinstance(ids_spec, str) and ids_spec.endswith(".json"):
        with open(ids_spec) as f:
            return sorted({int(p["id"]) for p in json.load(f)})
    if isinstance(ids_spec, str) and re.match(r"db:(all|needed):\d+", ids_spec):
        _, mode, limit = ids_spec.split(":")
        return S.get_ids(
            state, runs, context, only_needed=(mode == "needed"), limit=int(limit)
        )
    raise ValueError(f"Wrong format of the 'ids' argument: {ids_spec!r}")


def plan_frontier(
    ids: list[int],
    context: str,
    host_lookup=None,
    max_per_host: int | None = None,
) -> pd.DataFrame:
    """J1-ordered ids → planned frontier (host cap + fetch_seq).

    ``ids`` arrive in J1 priority order (never-checked first, stalest
    first) and that order is preserved through the host budget — the
    deterministic crawl-order contract (SURVEY.md §2.7)."""
    hosts = [host_lookup(context, i) if host_lookup else "default" for i in ids]
    frontier = pd.DataFrame({"context": context, "id": ids, "host": hosts})
    return apply_host_budget(frontier, max_per_host=max_per_host)


# ---------------------------------------------------------------------------
# details run
# ---------------------------------------------------------------------------

def run_details(
    store: CrawlStore,
    pages_dir: str,
    context: str,
    ids_spec="db:all:0",
    host_lookup=None,
    max_per_host: int | None = None,
    num_buckets: int = 64,
    politeness=None,
) -> dict:
    state, runs, history = _load(store)
    runs, run_id = S.store_run(runs, "details", context, _now())

    ids = parse_ids_spec(ids_spec, state, runs, context)
    frontier = plan_frontier(ids, context, host_lookup, max_per_host)
    frontier_keys = [(context, int(i)) for i in frontier["id"]]

    import time as _time

    _t0 = _time.perf_counter()
    if frontier_keys:
        delta = run_details_extraction(
            pages_dir, frontier_keys, num_buckets, politeness=politeness
        ).to_pandas()
    else:
        # empty frontier crawls nothing (reference: no ids → the spider
        # issues no requests, spiders/details.py:53-57)
        delta = pd.DataFrame(
            columns=["id", "context", "status", "item", "error_kind",
                     "host", "attempts", "pages_fetched"]
        )
    extract_wall_s = round(_time.perf_counter() - _t0, 3)

    # J3 upsert for every processed id (success AND moved/error rows all
    # call upsert_available_item(id, None, details) — pipelines.py:52-54,
    # middlewares.py:35,50)
    state = S.upsert_from_details(state, list(delta["id"]), context, run_id)
    # J4 history append with per-key change dedup
    history = S.insert_detail_items(
        history,
        runs,
        [
            dict(id=int(r.id), context=context, created_at=run_id,
                 item=r.item if r.status == "success" else None, status=r.status)
            for r in delta.itertuples()
        ],
    )
    # post-run jobs (pipelines.py:36-43)
    if context == "projekt":
        state = S.expand_person_frontier(state, history, run_id)  # J5
    else:
        latest = S.latest_detail_items(history, runs)
        if context == "person":
            refs = S.person_projekt_references(latest)
        else:
            refs = S.institution_projekt_references(latest)
        state = S.mark_projekts_for_moved(state, history, run_id, context, refs)  # J7
        if context == "institution":
            hierarchy = S.institution_hierarchy(S.latest_items(latest, state))
            state = S.mark_roots_for_moved_subinstitutions(state, history, run_id, hierarchy)  # J8

    scraped = int((delta["status"] == "success").sum())
    runs = S.update_run_result(runs, run_id, _now(), scraped)

    store.save_table("state", state)
    store.save_table("runs", runs)
    store.save_table("history", history)
    store.write_run_delta(run_id, delta)
    status_counts = delta["status"].value_counts().to_dict()
    manifest = store.write_manifest(
        run_id,
        spider="details",
        context=context,
        pages_dir=pages_dir,
        ids_spec=str(ids_spec),
        frontier_size=len(frontier),
        planned_order_hash=content_hash(frontier, ["fetch_seq", "context", "id"]),
        status_counts=status_counts,
        delta_hash=content_hash(delta, ["id", "context", "status"]),
        parent_run=run_id - 1 if run_id > 1 else None,
        metrics=dict(
            extract_wall_s=extract_wall_s,
            rows=int(len(delta)),
            rows_per_s=round(len(delta) / extract_wall_s, 1) if extract_wall_s else None,
            pages_fetched=int(delta["pages_fetched"].sum()),
            attempts=int(delta["attempts"].sum()),
        ),
    )
    return dict(run_id=run_id, frontier=frontier, delta=delta,
                manifest=manifest, **{f"n_{k}": v for k, v in status_counts.items()})


# ---------------------------------------------------------------------------
# search run
# ---------------------------------------------------------------------------

def run_search(store: CrawlStore, pages_dir: str, context: str) -> dict:
    state, runs, history = _load(store)
    runs, run_id = S.store_run(runs, "search_results", context, _now())

    ds = annotate_pages(read_pages(pages_dir), num_buckets=8)
    ds = ds.map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.equal(b.column("kind"), "search"),
                pc.equal(b.column("context"), context),
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    results = ds.map_batches(extract_search_batch, batch_format="pyarrow").to_pandas()

    # ST1 duplicate-id detection across pages (warn-only in the reference)
    duplicate_ids = sorted(
        int(i) for i, n in results["id"].value_counts().items() if n > 1
    )
    # pagination sanity (ST2): every page reported the same total
    totals = set(int(t) for t in results["page_total"].unique() if t >= 0)

    observations = [(int(r.id), r.item) for r in results.itertuples()]
    state = S.upsert_from_search(state, observations, context, run_id)
    state = S.mark_not_found(state, context, run_id)  # J6

    runs = S.update_run_result(runs, run_id, _now(), len(results))
    store.save_table("state", state)
    store.save_table("runs", runs)
    store.write_run_delta(run_id, results)
    manifest = store.write_manifest(
        run_id,
        spider="search_results",
        context=context,
        pages_dir=pages_dir,
        items=len(results),
        duplicate_ids=duplicate_ids,
        reported_totals=sorted(totals),
        delta_hash=content_hash(results, ["id", "context"]),
    )
    return dict(run_id=run_id, items=results, duplicate_ids=duplicate_ids,
                totals=sorted(totals), manifest=manifest)


# ---------------------------------------------------------------------------
# data monitor run
# ---------------------------------------------------------------------------

def run_data_monitor(store: CrawlStore, pages_dir: str) -> dict:
    ds = annotate_pages(read_pages(pages_dir), num_buckets=2)
    ds = ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("kind"), "monitor")),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    rows = ds.take_all()  # exactly one monitor page
    if not rows:
        raise ValueError("no data-monitor page in corpus")
    item = parse_data_monitor(parse_html(rows[0]["html"]))
    dm = store.load_table("data_monitor", pd.DataFrame())
    row = dict(run_ended_at=_now(), **item)
    dm = pd.concat([dm, pd.DataFrame([row])], ignore_index=True)
    store.save_table("data_monitor", dm)
    return dict(item=item, monitor_json=dumps_canonical(item))


def get_latest_dm_stat(store: CrawlStore, stat: str):
    """argmax over data_monitor.run_ended_at (database.py:231-241)."""
    dm = store.load_table("data_monitor", pd.DataFrame())
    if not len(dm):
        return None
    return dm.sort_values("run_ended_at").iloc[-1][stat]


# ---------------------------------------------------------------------------
# details run — Dataset-resident state (the 10^10-key form)
# ---------------------------------------------------------------------------

def _annotated_pages_schema(pages_dir: str, num_buckets: int):
    """Arrow schema of the annotated pages stream, computed statically
    (empty-batch pass through the annotator) — no Dataset execution."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..sources.pages import annotate_batch

    f = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))[0]
    base = pq.read_schema(f)
    empty = pa.table(
        {c: pa.array([], type=base.field(c).type) for c in ["url", "warc_ts", "html"]}
    )
    return annotate_batch(empty, num_buckets).schema


def _extract_frontier_resident(
    pages: "ray.data.Dataset",
    frontier: "ray.data.Dataset",
    context: str,
    pages_schema,
    num_buckets: int,
    politeness=None,
) -> "ray.data.Dataset":
    """Fused bucketed semi-join + extract — the frontier never touches
    the driver. Frontier ids enter the pages stream as sentinel rows
    (``kind='frontier'``, every other column null) bucketed by the SAME
    entity-key hash the pages carry, so ONE keyed shuffle co-locates
    each entity's pages with its membership row; the group task filters
    to frontier members and runs the normal per-entity chain. Per-bucket
    frontier share is |frontier| / num_buckets — raise ``num_buckets``
    with frontier cardinality (the documented partitioning knob)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc2

    from ..kernels.hashing import stable_hash64

    def to_sentinel_rows(df: pd.DataFrame) -> "pa.Table":
        ids = df["id"].astype("int64").to_numpy()
        n = len(ids)
        arrays = []
        for field in pages_schema:
            if field.name == "id":
                arrays.append(pa.array(ids, type=field.type))
            elif field.name == "context":
                arrays.append(pa.array([context] * n, type=field.type))
            elif field.name == "kind":
                arrays.append(pa.array(["frontier"] * n, type=field.type))
            elif field.name == "bucket":
                b = np.asarray(
                    [stable_hash64(f"{context}/{int(i)}") % num_buckets for i in ids],
                    dtype=np.int32,
                )
                arrays.append(pa.array(b, type=field.type))
            else:
                arrays.append(pa.nulls(n, type=field.type))
        return pa.Table.from_arrays(arrays, schema=pages_schema)

    sentinel_rows = frontier.map_batches(to_sentinel_rows, batch_format="pandas")

    def extract_group(tbl: "pa.Table") -> "pa.Table":
        is_fr = pc2.equal(tbl.column("kind"), "frontier")
        fr = tbl.filter(is_fr)
        pg = tbl.filter(pc2.invert(is_fr))
        keys = set(
            zip(
                fr.column("context").to_pylist(),
                (int(i) for i in fr.column("id").to_pylist()),
            )
        )
        if pg.num_rows:
            mi = pd.MultiIndex.from_arrays(
                [pg.column("context").to_pandas(), pg.column("id").to_pandas()]
            )
            pg = pg.filter(pa.array(mi.isin(list(keys))))
        return extract_bucket(pg, politeness=politeness)

    return (
        pages.union(sentinel_rows)
        .groupby("bucket")
        .map_groups(extract_group, batch_format="pyarrow")
    )

def run_details_ds(
    store: CrawlStore,
    pages_dir: str,
    context: str,
    ids_spec="db:all:0",
    host_lookup=None,
    max_per_host: int | None = None,
    num_buckets: int = 64,
    politeness=None,
) -> dict:
    """``run_details`` with the state machine Dataset-resident
    end-to-end: state and history never materialize on the driver.
    Every transition runs through the distributed forms
    (``frontier.state_ds`` J1/J3/J4/J7/J8, bucketed J5 anti-join).
    Equivalence with the pandas ``run_details`` is pinned in
    tests/test_runs_ds.py.

    Two frontier regimes, chosen by the ids spec:

    - **budgeted** (``db:*:N`` with N>0, literal lists, id files): the
      frontier is run-bounded by construction, so it collects to an
      ordered driver list (exact planned-order manifests, broadcast
      semi-join page selection, broadcast J3) — the reference's cron
      budgets never exceed 50k ids.
    - **unbudgeted** (``db:all:0`` / ``db:needed:0``): the frontier
      NEVER touches the driver — J1 selection stays a Dataset
      (``get_frontier_ds``), the host budget applies per-host
      distributed, page selection fuses into the extract shuffle as
      sentinel rows (``_extract_frontier_resident``), and J3 runs
      through the bucketed upsert. The driver holds only counters and
      the manifest — the 10^10-key form.
    """

    from . import derive
    from ..frontier.state_ds import (
        get_frontier_ds,
        get_ids_ds,
        insert_detail_items_ds,
        mark_projekts_for_moved_ds,
        mark_roots_for_moved_subinstitutions_ds,
        upsert_from_details_bucketed,
        upsert_from_details_ds,
    )
    from ..ops.relational import anti_join_bucketed

    state_ds = store.load_table_ds("state", S.empty_state())
    history_ds = store.load_table_ds("history", S.empty_history())
    runs = store.load_table("runs", S.empty_runs())  # tiny ledger, driver-side
    runs, run_id = S.store_run(runs, "details", context, _now())

    # J1 frontier selection
    import time as _time

    _t0 = _time.perf_counter()
    resident = False
    if isinstance(ids_spec, str) and re.match(r"db:(all|needed):\d+", ids_spec):
        _, mode, limit = ids_spec.split(":")
        if int(limit) > 0:
            # budget-bounded: distributed sort, bounded collect
            ids = get_ids_ds(
                state_ds, runs, context, only_needed=(mode == "needed"), limit=int(limit)
            )
        else:
            resident = True
            frontier_sel = get_frontier_ds(
                state_ds, runs, context, only_needed=(mode == "needed")
            )
    else:
        ids = parse_ids_spec(ids_spec, S.empty_state(), runs, context)

    empty_items_df = pd.DataFrame(
        columns=["id", "context", "status", "item", "error_kind",
                 "host", "attempts", "pages_fetched"]
    )
    if resident:
        frontier = None
        # host budget, distributed: each host's keys co-locate and the
        # J1 priority order is reconstructed from the carried
        # (tier, rank, id) columns — apply_host_budget's exact
        # keep-first-N-per-host semantics without a global sort
        if max_per_host is not None:
            def add_host(df: pd.DataFrame) -> pd.DataFrame:
                hosts = [
                    host_lookup(context, int(i)) if host_lookup else "default"
                    for i in df["id"]
                ]
                return df.assign(host=hosts)

            def cap_host(g: pd.DataFrame) -> pd.DataFrame:
                g = g.sort_values(["tier", "rank", "id"], kind="mergesort")
                return g.head(max_per_host)

            frontier_sel = (
                frontier_sel.map_batches(add_host, batch_format="pandas")
                .groupby("host")
                .map_groups(cap_host, batch_format="pandas")
            )
        frontier_sel = frontier_sel.materialize()
        n_frontier = frontier_sel.count()
        if n_frontier:
            pages = filter_detail_pages(
                annotate_pages(read_pages(pages_dir, kinds=DETAIL_KINDS), num_buckets)
            )
            items = _extract_frontier_resident(
                pages,
                frontier_sel,
                context,
                _annotated_pages_schema(pages_dir, num_buckets),
                num_buckets,
                politeness,
            ).materialize()
        else:
            items = ray.data.from_pandas(empty_items_df)
    else:
        frontier = plan_frontier(ids, context, host_lookup, max_per_host)
        n_frontier = len(frontier)
        frontier_keys = [(context, int(i)) for i in frontier["id"]]
        if frontier_keys:
            items = run_details_extraction(
                pages_dir, frontier_keys, num_buckets, politeness=politeness
            ).materialize()
        else:
            items = ray.data.from_pandas(empty_items_df)

    extract_wall_s = round(_time.perf_counter() - _t0, 3)

    # run counters: distributed aggregation, tiny results
    status_counts: dict[str, int] = {}
    n_rows = 0
    for row in derive.status_counts(items).take_all():
        status_counts[row["status"]] = int(row["n"])
        n_rows += int(row["n"])

    # J3 upsert
    if resident:
        # processed ids stay a Dataset → bucketed upsert (no broadcast)
        processed = items.map_batches(
            lambda df: pd.DataFrame({"id": df["id"].astype("int64")}),
            batch_format="pandas",
        )
        state_ds = upsert_from_details_bucketed(state_ds, processed, context, run_id)
    else:
        # budget-bounded: broadcast intersection (bounded by the budget)
        processed_ids: set[int] = set()
        for b in items.map_batches(
            lambda df: pd.DataFrame({"id": df["id"].astype("int64")}),
            batch_format="pandas",
        ).iter_batches(batch_format="pandas"):
            processed_ids.update(int(i) for i in b["id"])
        state_ds = upsert_from_details_ds(state_ds, processed_ids, context, run_id)

    # J4 history dedup-on-append (bucketed replay)
    def to_history_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "id": df["id"].astype("int64"),
                "context": context,
                "created_at": run_id,
                "item": df["item"].where(df["status"] == "success", None),
                "status": df["status"],
            }
        )

    delta_rows = items.map_batches(to_history_rows, batch_format="pandas")
    history_ds = insert_detail_items_ds(history_ds, runs, delta_rows).materialize()

    # post-run jobs — all through the distributed forms
    if context == "projekt":
        # J5 frontier expansion: referenced persons ANTI-JOIN state
        # persons via the bucketed hash anti-join (both sides Datasets)
        refs = derive.all_reference_edges(items, "person")

        def distinct_ids(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"id": df["person_id"].astype("int64").unique()})

        # GLOBAL dedupe of the referenced ids BEFORE the anti-join: the
        # per-batch distinct leaves cross-batch duplicates, and a
        # duplicate surviving the anti-join would insert the same
        # person key twice (a per-batch unique() downstream is not
        # cross-block-safe once blocks split). All copies of an id
        # co-locate in one bucket, so the group dedupe is exact.
        referenced = (
            refs.map_batches(distinct_ids, batch_format="pandas")
            .map_batches(
                lambda df: df.assign(_db=(df["id"] % 64).astype("int32")),
                batch_format="pandas",
            )
            .groupby("_db")
            .map_groups(
                lambda g: g.drop_duplicates("id")[["id"]], batch_format="pandas"
            )
        )
        state_persons = state_ds.map_batches(
            lambda df: pd.DataFrame(
                {"id": df.loc[df["context"] == "person", "id"].astype("int64")}
            ),
            batch_format="pandas",
        )
        new_person_rows = (
            anti_join_bucketed(referenced, state_persons, on="id")
            .map_batches(
                lambda df: pd.DataFrame(
                    dict(
                        id=df["id"],
                        context="person",
                        last_available_seen=None,
                        last_available_change=None,
                        last_available_item=None,
                        last_detail_check=None,
                        detail_check_needed=True,
                    )
                ),
                batch_format="pandas",
            )
        )
        state_ds = state_ds.union(new_person_rows)
    else:
        run_started = dict(zip(runs["id"].astype(int), runs["run_started_at"]))
        latest = derive.latest_detail_items_ds(history_ds, run_started).materialize()
        refs = derive.all_reference_edges(latest, kind=context)
        state_ds = mark_projekts_for_moved_ds(
            state_ds, history_ds, run_id, context, refs
        )
        if context == "institution":
            # J8: hierarchy closure from the latest institution items
            # (row-local tree flatten — derive.hierarchy_rows shape)
            hierarchy = derive.hierarchy_rows(latest)
            state_ds = mark_roots_for_moved_subinstitutions_ds(
                state_ds, history_ds, run_id, hierarchy
            )

    scraped = int(status_counts.get("success", 0))
    runs = S.update_run_result(runs, run_id, _now(), scraped)

    # no materialize before the save: state_ds is consumed exactly once
    # here, so write_parquet streams the plan's blocks straight to the
    # versioned directory (a materialize would be one extra full copy
    # of a 10^10-key table through the object store)
    store.save_table_ds("state", state_ds)
    store.save_table_ds("history", history_ds)
    store.save_table("runs", runs)
    items.write_parquet(os.path.join(store.run_dir(run_id), "items_ds"))
    manifest = store.write_manifest(
        run_id,
        spider="details",
        context=context,
        pages_dir=pages_dir,
        ids_spec=str(ids_spec),
        frontier_size=n_frontier,
        frontier_resident=resident,
        status_counts=status_counts,
        state_backend="dataset",
        parent_run=run_id - 1 if run_id > 1 else None,
        metrics=dict(
            extract_wall_s=extract_wall_s,
            rows=n_rows,
            rows_per_s=round(n_rows / extract_wall_s, 1) if extract_wall_s else None,
            pages_fetched=int(items.sum("pages_fetched") or 0) if n_rows else 0,
            attempts=int(items.sum("attempts") or 0) if n_rows else 0,
        ),
    )
    return dict(run_id=run_id, frontier=frontier, frontier_size=n_frontier,
                items=items, manifest=manifest,
                **{f"n_{k}": v for k, v in status_counts.items()})


def run_search_ds(store: CrawlStore, pages_dir: str, context: str) -> dict:
    """``run_search`` with Dataset-resident state: the search
    observations are CORPUS-cardinality (one per listed entity), so at
    10^10 entities neither they nor the state may visit the driver.
    J2 change detection + J6 not-found marking run through
    ``upsert_from_search_ds`` (bucketed replay of the exact pandas
    semantics); duplicate-id detection and the pagination sanity check
    reduce distributed to tiny results. Equivalence pinned in
    tests/test_runs_ds.py."""
    from ..frontier.state_ds import upsert_from_search_ds

    state_ds = store.load_table_ds("state", S.empty_state())
    runs = store.load_table("runs", S.empty_runs())
    runs, run_id = S.store_run(runs, "search_results", context, _now())

    ds = annotate_pages(read_pages(pages_dir), num_buckets=8)
    ds = ds.map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.equal(b.column("kind"), "search"),
                pc.equal(b.column("context"), context),
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    results = ds.map_batches(extract_search_batch, batch_format="pyarrow").materialize()
    n_items = results.count()

    # ST1 duplicate-id detection: per-batch partial counts → bucketed
    # sum → the driver reads a per-bucket COUNT plus a capped id
    # sample (≤ 64 buckets × DUP_SAMPLE_CAP rows), never the full
    # duplicate list — on a pathological corpus where most ids
    # duplicate, that list is state-cardinality and must not land on
    # the driver / in the manifest
    DUP_SAMPLE_CAP = 64

    def id_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("id", as_index=False).size().rename(columns={"size": "n"})
        g["_b"] = (g["id"] % 64).astype("int32")
        return g

    def dup_only(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("id", as_index=False)["n"].sum()
        d = g.loc[g["n"] > 1, "id"].sort_values()
        out = pd.DataFrame({"id": d.head(DUP_SAMPLE_CAP).astype("int64")})
        out["_b"] = int(group["_b"].iloc[0]) if len(group) else -1
        out["total"] = len(d)
        return out.astype({"_b": "int32", "total": "int64"})

    dup_rows = (
        results.map_batches(id_counts, batch_format="pandas")
        .groupby("_b")
        .map_groups(dup_only, batch_format="pandas")
        .take_all()
    )
    duplicate_count = sum(
        {int(r["_b"]): int(r["total"]) for r in dup_rows}.values()
    )
    duplicate_ids = sorted(int(r["id"]) for r in dup_rows)[:DUP_SAMPLE_CAP]

    # ST2 pagination sanity: distinct reported totals (tiny set)
    totals: set[int] = set()
    for b in results.map_batches(
        lambda df: df[["page_total"]].drop_duplicates(), batch_format="pandas"
    ).iter_batches(batch_format="pandas"):
        totals.update(int(t) for t in b["page_total"] if t >= 0)

    observations = results.map_batches(
        lambda df: pd.DataFrame({"id": df["id"].astype("int64"), "item": df["item"]}),
        batch_format="pandas",
    )
    state_ds = upsert_from_search_ds(state_ds, observations, context, run_id)  # J2 + J6

    runs = S.update_run_result(runs, run_id, _now(), n_items)
    store.save_table_ds("state", state_ds)  # single consumer — stream to disk
    store.save_table("runs", runs)
    results.write_parquet(os.path.join(store.run_dir(run_id), "items_ds"))
    manifest = store.write_manifest(
        run_id,
        spider="search_results",
        context=context,
        pages_dir=pages_dir,
        items=n_items,
        duplicate_ids=duplicate_ids,  # first-64 ascending SAMPLE
        duplicate_count=duplicate_count,
        reported_totals=sorted(totals),
        state_backend="dataset",
    )
    return dict(run_id=run_id, items=results, duplicate_ids=duplicate_ids,
                duplicate_count=duplicate_count,
                totals=sorted(totals), manifest=manifest)
